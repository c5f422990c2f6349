//! # dp-shard — the distributed sweep scheduler
//!
//! `dpopt sweep --remote A,B,C` lands here: the deterministic cell grid of
//! a [`SweepSpec`] is partitioned across a fleet of `dp-serve` daemons and
//! merged back **in spec order**, so stdout is byte-identical to a local
//! sequential run at any fleet size — the same contract the local engine
//! keeps at any worker count.
//!
//! This crate owns *placement* and nothing else. The cells, their keys,
//! the local cache probe, the label-and-store of an answered cell, the
//! local execution of whatever no daemon could take, and the spec-order
//! merge with verification are [`dp_sweep::Sweep`]'s — the calls a local
//! `run_sweep` makes — so the two cannot drift apart. [`shard_sweep`] is:
//! validate → `Sweep::probe` → route / drive / fail over → `complete` per
//! answered cell → `run_local` for the rest once the fleet is gone →
//! `finish`.
//!
//! Scheduling is cache-aware at both ends:
//!
//! - **Local short-circuit.** Cells already in the local result cache
//!   never leave the machine; only the misses are routed.
//! - **Rendezvous routing.** Each pending cell's content-addressed key is
//!   assigned to the daemon with the highest rendezvous hash
//!   (`fnv1a("<key>|<endpoint>")`), so the same cell lands on the same
//!   daemon run after run and its `--disk-cache` stays warm. Adding or
//!   removing one daemon only moves the cells that daemon owns.
//! - **Pipelined streaming.** One driver thread per daemon sends
//!   `sweep-cell` requests tagged with pipeline ids through a
//!   [`ResilientClient`] session, keeping a bounded in-flight window per
//!   daemon and matching responses by echoed id.
//! - **Failover.** A daemon that stops answering is retried on the
//!   client's deterministic backoff schedule (reconnect, re-authenticate,
//!   re-send everything unacknowledged); once retries are spent it is
//!   declared lost, one diag line is emitted, and its unfinished cells are
//!   re-routed to the survivors — or computed locally when no daemon is
//!   left. Results arrive exactly once per cell: a slot leaves the resend
//!   set only when its response has been read, and a torn connection's
//!   stale responses die with the socket.
//!
//! Completed cells are stored into the local result cache as they arrive
//! (`Sweep::complete`), so a warm rerun never touches the network. [`sync_caches`] goes
//! further: the `cache-push`/`cache-pull` serve ops move sealed cache
//! entries (checksummed bytes, re-verified on every receipt) between the
//! local cache and every daemon until the whole fleet holds the union.

use std::collections::{BTreeSet, VecDeque};
use std::path::PathBuf;

use dp_obs::json::{uint, Json};
use dp_obs::metrics::{labeled_counter, Counter};
use dp_serve::client::{backoff_schedule, ClientOptions, RequestError, ResilientClient};
use dp_serve::proto::{self, Endpoint};
use dp_sweep::{cache, CellSummary, DatasetSpec, Sweep, SweepOptions, SweepResult, SweepSpec};

static CELLS_LOCAL_HITS: Counter = Counter::new("shard.cells.local_hits");
static CELLS_ROUTED: Counter = Counter::new("shard.cells.routed");
static CELLS_REROUTED: Counter = Counter::new("shard.cells.rerouted");
static CELLS_FAILED: Counter = Counter::new("shard.cells.failed");

/// Requests in flight per daemon before the driver waits for a response.
/// Stays under the server's per-session pipeline window (64) so the
/// daemon never stops reading this session.
const IN_FLIGHT_WINDOW: usize = 32;

// ----------------------------------------------------------------------
// Rendezvous routing
// ----------------------------------------------------------------------

/// The index of the endpoint that owns `key` under rendezvous
/// (highest-random-weight) hashing. Deterministic, and minimally
/// disruptive: removing an endpoint re-routes only the keys it owned;
/// every other key keeps its daemon — and that daemon's warm disk cache.
///
/// # Panics
///
/// Panics on an empty endpoint slice (the scheduler never routes against
/// an empty fleet; it falls back to local execution first).
pub fn route(key: u64, endpoints: &[Endpoint]) -> usize {
    assert!(!endpoints.is_empty(), "route over an empty fleet");
    let mut best = 0usize;
    let mut best_weight = 0u64;
    for (i, endpoint) in endpoints.iter().enumerate() {
        let weight = dp_sweep::key::fnv1a(format!("{key:016x}|{endpoint}").as_bytes());
        if i == 0 || weight > best_weight {
            best = i;
            best_weight = weight;
        }
    }
    best
}

// ----------------------------------------------------------------------
// Sharded sweeps
// ----------------------------------------------------------------------

/// Execution options for [`shard_sweep`].
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Connection/retry policy per daemon (the retry budget is also the
    /// failover threshold: a daemon is declared lost once it is spent).
    pub client: ClientOptions,
    /// Consult/populate the local result cache.
    pub cache: bool,
    /// Local cache directory; `None` means `DPOPT_CACHE_DIR` or
    /// `.dpopt-cache`.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            client: ClientOptions::default(),
            cache: std::env::var_os("DPOPT_NO_CACHE").is_none(),
            cache_dir: None,
        }
    }
}

/// What one daemon-driver round produced.
struct DriveOutcome {
    /// Global endpoint index this outcome belongs to.
    endpoint_idx: usize,
    /// Completed cells: `(slot, summary)` — at most one entry per slot.
    done: Vec<(usize, CellSummary)>,
    /// An authoritative `ok:false` from the server (fails the sweep).
    server_error: Option<String>,
    /// The transport failure that exhausted the retry budget (daemon
    /// lost).
    transport_error: Option<String>,
    /// Slots not completed when the daemon was lost.
    unfinished: Vec<usize>,
}

/// Runs a sweep across a daemon fleet. Output is byte-identical to
/// [`run_sweep`] with `--jobs 1` (locally cached cells short-circuit,
/// remote results merge in spec order, cell 0 is the verification
/// reference) — including when daemons die mid-sweep, as long as at least
/// the local machine survives. Requires `Table` datasets and default
/// timing/cost models, like any remote sweep.
pub fn shard_sweep(
    endpoints: &[Endpoint],
    spec: &SweepSpec,
    opts: &ShardOptions,
) -> Result<SweepResult, String> {
    use dp_sweep::key::{canonical_cost, canonical_timing};
    if endpoints.is_empty() {
        return Err("no remote endpoints".to_string());
    }
    for series in &spec.series {
        let DatasetSpec::Table { id, .. } = &series.dataset else {
            return Err("remote sweeps support Table datasets only".to_string());
        };
        // Same guard as the single-daemon path: the protocol carries no
        // timing/cost models, so overriding them must be loud.
        if canonical_timing(&series.timing) != canonical_timing(&dp_core::TimingParams::default())
            || canonical_cost(&series.cost)
                != canonical_cost(&dp_vm::bytecode::CostModel::default())
        {
            return Err(format!(
                "remote sweeps require default timing/cost models ({}/{} overrides them)",
                series.benchmark,
                id.name()
            ));
        }
    }

    // Local short-circuit: cells the local cache already holds never
    // leave the machine.
    let mut sweep = Sweep::probe(
        spec,
        &SweepOptions {
            jobs: 0,
            cache: opts.cache,
            cache_dir: opts.cache_dir.clone(),
            quiet: true,
        },
    )?;
    let cells = sweep.cells().to_vec();
    let mut pending = sweep.pending();
    CELLS_LOCAL_HITS.add((cells.len() - pending.len()) as u64);

    // One request per cell, pipeline id = its slot, prebuilt so every
    // (re)send of a cell is the identical byte sequence.
    let requests: Vec<Json> = cells
        .iter()
        .enumerate()
        .map(|(slot, cell)| {
            let series = &spec.series[cell.series_idx];
            let vspec = &series.variants[cell.cell_idx];
            let DatasetSpec::Table { id, scale, seed } = &series.dataset else {
                unreachable!("validated above");
            };
            let mut request = proto::sweep_cell_request(
                &series.benchmark,
                id.name(),
                *scale,
                *seed,
                &vspec.label,
                &vspec.variant,
            );
            if let Json::Object(members) = &mut request {
                members.insert("id".to_string(), uint(slot as u64));
            }
            request
        })
        .collect();

    let mut alive: Vec<bool> = vec![true; endpoints.len()];
    let mut first_round = true;
    while !pending.is_empty() {
        let live: Vec<usize> = (0..endpoints.len()).filter(|&i| alive[i]).collect();
        if live.is_empty() {
            // Every daemon is gone: compute the remainder locally.
            sweep.run_local(&pending);
            break;
        }
        let live_endpoints: Vec<Endpoint> = live.iter().map(|&i| endpoints[i].clone()).collect();
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); live.len()];
        for &slot in &pending {
            assigned[route(cells[slot].key, &live_endpoints)].push(slot);
        }
        for (li, slots) in assigned.iter().enumerate() {
            if slots.is_empty() {
                continue;
            }
            let name = endpoints[live[li]].to_string();
            let (counter, suffix) = if first_round {
                (&CELLS_ROUTED, "cells_routed")
            } else {
                (&CELLS_REROUTED, "cells_rerouted")
            };
            counter.add(slots.len() as u64);
            labeled_counter("shard.daemon", &name, suffix).add(slots.len() as u64);
        }

        // One driver per daemon, fanned out on the shared pool as
        // `Interactive` jobs (a remote daemon is idling at the other end
        // of each one): the caller drives the first daemon itself, and a
        // busy pool degrades the rest to sequential drives on this thread
        // via the claim gate — correct at any worker count, daemons are
        // independent.
        let drive_list: Vec<(usize, Vec<usize>)> = assigned
            .iter()
            .enumerate()
            .filter(|(_, slots)| !slots.is_empty())
            .map(|(li, slots)| (live[li], slots.clone()))
            .collect();
        let outcome_slots: Vec<std::sync::Mutex<Option<DriveOutcome>>> = drive_list
            .iter()
            .map(|_| std::sync::Mutex::new(None))
            .collect();
        dp_pool::Pool::shared().scope(|scope| {
            let requests = &requests;
            let mut work = drive_list.iter().zip(&outcome_slots);
            let Some(((first_idx, first_slots), first_out)) = work.next() else {
                return;
            };
            for ((endpoint_idx, slots), out) in work {
                let endpoint = endpoints[*endpoint_idx].clone();
                let client_opts = opts.client.clone();
                scope.spawn_as(dp_pool::JobClass::Interactive, move || {
                    *out.lock().unwrap() = Some(drive_daemon(
                        *endpoint_idx,
                        &endpoint,
                        client_opts,
                        requests,
                        slots,
                    ));
                });
            }
            let endpoint = endpoints[*first_idx].clone();
            *first_out.lock().unwrap() = Some(drive_daemon(
                *first_idx,
                &endpoint,
                opts.client.clone(),
                requests,
                first_slots,
            ));
        });
        let outcomes: Vec<DriveOutcome> = outcome_slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("daemon driver delivered an outcome")
            })
            .collect();

        let mut next_pending: Vec<usize> = Vec::new();
        let mut lost: Vec<(usize, String, usize)> = Vec::new();
        let mut server_error: Option<String> = None;
        for outcome in outcomes {
            for (slot, summary) in outcome.done {
                sweep.complete(slot, summary);
            }
            if let Some(message) = outcome.server_error {
                // Authoritative: the daemon looked at a cell and said no.
                // A retry elsewhere would answer the same (determinism),
                // so the sweep fails — like a local cell failure would.
                server_error.get_or_insert(message);
            }
            if let Some(reason) = outcome.transport_error {
                lost.push((outcome.endpoint_idx, reason, outcome.unfinished.len()));
                next_pending.extend(outcome.unfinished);
            }
        }
        if let Some(message) = server_error {
            return Err(message);
        }
        for &(idx, _, _) in &lost {
            alive[idx] = false;
        }
        let survivors = alive.iter().filter(|&&a| a).count();
        for (idx, reason, unfinished) in lost {
            let name = endpoints[idx].to_string();
            CELLS_FAILED.add(unfinished as u64);
            labeled_counter("shard.daemon", &name, "cells_failed").add(unfinished as u64);
            let destination = if survivors > 0 {
                format!("{survivors} surviving daemon(s)")
            } else {
                "local execution".to_string()
            };
            dp_obs::diag!(
                "[dp-shard] daemon {name} lost mid-sweep ({reason}); \
                 rerouting {unfinished} cell(s) to {destination}"
            );
        }
        pending = next_pending;
        pending.sort_unstable();
        first_round = false;
    }

    // A sharded run reports the width of the local merge, whatever the
    // fallback used.
    Ok(SweepResult {
        jobs: 1,
        ..sweep.finish()
    })
}

/// Drives one daemon through its assigned slots: pipelined sends with a
/// bounded in-flight window, responses matched by id, reconnect +
/// re-authenticate + re-send on transport failure until the retry budget
/// is spent.
fn drive_daemon(
    endpoint_idx: usize,
    endpoint: &Endpoint,
    opts: ClientOptions,
    requests: &[Json],
    slots: &[usize],
) -> DriveOutcome {
    let schedule = backoff_schedule(&opts);
    let mut client = ResilientClient::new(endpoint, opts);
    let mut remaining: VecDeque<usize> = slots.iter().copied().collect();
    let mut outcome = DriveOutcome {
        endpoint_idx,
        done: Vec::new(),
        server_error: None,
        transport_error: None,
        unfinished: Vec::new(),
    };
    let mut attempt = 0usize;
    while !remaining.is_empty() {
        match drive_session(&mut client, requests, &mut remaining, &mut outcome.done) {
            Ok(()) => continue,
            Err(RequestError::Server(message)) => outcome.server_error = Some(message),
            Err(RequestError::Transport(message)) => {
                // Poisoned connection: any response still in flight dies
                // with the socket, so re-sending every unacknowledged
                // slot on a fresh session cannot produce duplicates.
                client.reset();
                if attempt < schedule.len() {
                    std::thread::sleep(schedule[attempt]);
                    attempt += 1;
                    continue;
                }
                outcome.transport_error = Some(message);
            }
        }
        break;
    }
    outcome.unfinished = remaining.into_iter().collect();
    outcome
}

/// One session's worth of pipelined driving. On success `remaining` is
/// empty; on a transport error it still holds every unacknowledged slot
/// (a slot leaves it only when its response has been read).
fn drive_session(
    client: &mut ResilientClient,
    requests: &[Json],
    remaining: &mut VecDeque<usize>,
    done: &mut Vec<(usize, CellSummary)>,
) -> Result<(), RequestError> {
    let session = client.session()?;
    let mut queue: VecDeque<usize> = remaining.iter().copied().collect();
    let mut in_flight: BTreeSet<usize> = BTreeSet::new();
    loop {
        while in_flight.len() < IN_FLIGHT_WINDOW {
            let Some(slot) = queue.pop_front() else { break };
            proto::write_line(session.writer_mut(), &requests[slot])
                .map_err(|e| RequestError::Transport(format!("send: {e}")))?;
            in_flight.insert(slot);
        }
        if in_flight.is_empty() {
            return Ok(());
        }
        let line = session
            .read_response_line()
            .map_err(|e| RequestError::Transport(format!("receive: {e}")))?
            .ok_or_else(|| RequestError::Transport("server closed the connection".to_string()))?;
        let response = dp_obs::json::parse(line.trim())
            .map_err(|e| RequestError::Transport(format!("torn response: {e}")))?;
        let Some(slot) = response
            .get("id")
            .and_then(Json::as_u64)
            .map(|v| v as usize)
        else {
            return Err(RequestError::Transport(
                "response missing pipeline id".to_string(),
            ));
        };
        if !in_flight.remove(&slot) {
            return Err(RequestError::Transport(format!(
                "unexpected response id {slot}"
            )));
        }
        if response.get("ok") != Some(&Json::Bool(true)) {
            return Err(RequestError::Server(
                response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown server error")
                    .to_string(),
            ));
        }
        let summary = cache::summary_from_json(&response).ok_or_else(|| {
            RequestError::Transport(format!("malformed sweep-cell response for id {slot}"))
        })?;
        done.push((slot, summary));
        remaining.retain(|&s| s != slot);
    }
}

// ----------------------------------------------------------------------
// Fleet cache convergence
// ----------------------------------------------------------------------

/// Options for [`sync_caches`].
#[derive(Debug, Clone, Default)]
pub struct SyncOptions {
    /// Connection/retry policy per daemon.
    pub client: ClientOptions,
    /// Local cache directory; `None` means `DPOPT_CACHE_DIR` or
    /// `.dpopt-cache`.
    pub cache_dir: Option<PathBuf>,
}

/// What [`sync_caches`] did.
#[derive(Debug, Clone, Default)]
pub struct SyncReport {
    /// Distinct keys across the local cache and the whole fleet.
    pub union: usize,
    /// Keys the local cache held before the sync.
    pub local_before: usize,
    /// Entries pulled into the local cache.
    pub pulled: usize,
    /// Payloads rejected in transit (failed re-verification on receipt).
    pub rejected: usize,
    /// Entries pushed, per endpoint (display name, count), in endpoint
    /// order.
    pub pushed: Vec<(String, usize)>,
}

/// Converges the local result cache and every daemon's disk cache to the
/// union of their entries. Entries travel as their exact sealed on-disk
/// bytes; every receipt re-verifies them against the key
/// ([`cache::receive`]: a corrupt payload is quarantined on the receiving
/// side and another source is tried), so replication can never spread a
/// bad byte. Key order is deterministic.
pub fn sync_caches(endpoints: &[Endpoint], opts: &SyncOptions) -> Result<SyncReport, String> {
    if endpoints.is_empty() {
        return Err("no remote endpoints".to_string());
    }
    let dir = cache::resolve_cache_dir(opts.cache_dir.as_deref());
    let local: BTreeSet<u64> = cache::list_keys(&dir)
        .map_err(|e| format!("list local cache {}: {e}", dir.display()))?
        .into_iter()
        .collect();
    let mut clients: Vec<ResilientClient> = endpoints
        .iter()
        .map(|e| ResilientClient::new(e, opts.client.clone()))
        .collect();
    // Inventory every daemon.
    let mut have: Vec<BTreeSet<u64>> = Vec::new();
    for (i, client) in clients.iter_mut().enumerate() {
        let response = client
            .request(&proto::cache_pull_request(None))
            .map_err(|e| format!("{}: {e}", endpoints[i]))?;
        let keys = response
            .get("keys")
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{}: malformed cache-pull response", endpoints[i]))?;
        have.push(
            keys.iter()
                .filter_map(|k| k.as_str())
                .filter_map(|k| u64::from_str_radix(k, 16).ok())
                .collect(),
        );
    }

    let mut union: BTreeSet<u64> = local.clone();
    for h in &have {
        union.extend(h.iter().copied());
    }
    let mut report = SyncReport {
        union: union.len(),
        local_before: local.len(),
        pushed: endpoints.iter().map(|e| (e.to_string(), 0)).collect(),
        ..SyncReport::default()
    };

    for &key in &union {
        // Obtain verified bytes: the local cache first, then any daemon
        // claiming the key. A source whose copy fails verification is
        // dropped from `have` so the repaired entry gets pushed back.
        let mut entry: Option<String> = if local.contains(&key) {
            cache::load_sealed(&dir, key)
        } else {
            None
        };
        if entry.is_none() {
            for i in 0..clients.len() {
                if !have[i].contains(&key) {
                    continue;
                }
                let response = clients[i]
                    .request(&proto::cache_pull_request(Some(key)))
                    .map_err(|e| format!("pull {key:016x} from {}: {e}", endpoints[i]))?;
                if response.get("found") != Some(&Json::Bool(true)) {
                    have[i].remove(&key);
                    continue;
                }
                let Some(text) = response.get("entry").and_then(Json::as_str) else {
                    have[i].remove(&key);
                    continue;
                };
                labeled_counter("shard.daemon", &endpoints[i].to_string(), "pull_bytes")
                    .add(text.len() as u64);
                match cache::receive(&dir, key, text) {
                    Ok(outcome) => {
                        report.pulled += usize::from(outcome == cache::StoreOutcome::Stored);
                        entry = Some(text.to_string());
                        break;
                    }
                    Err(reason) => {
                        report.rejected += 1;
                        have[i].remove(&key);
                        dp_obs::diag!(
                            "[dp-shard] rejected corrupt entry {key:016x} pulled from {} ({reason})",
                            endpoints[i]
                        );
                    }
                }
            }
        }
        let Some(text) = entry else {
            dp_obs::diag!("[dp-shard] no verifiable copy of {key:016x} anywhere; skipping");
            continue;
        };
        for i in 0..clients.len() {
            if have[i].contains(&key) {
                continue;
            }
            clients[i]
                .request(&proto::cache_push_request(key, &text))
                .map_err(|e| format!("push {key:016x} to {}: {e}", endpoints[i]))?;
            labeled_counter("shard.daemon", &endpoints[i].to_string(), "push_bytes")
                .add(text.len() as u64);
            report.pushed[i].1 += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp(addr: &str) -> Endpoint {
        Endpoint::parse(addr).unwrap()
    }

    #[test]
    fn endpoint_lists_parse_and_reject_bad_entries() {
        let list = proto::parse_endpoint_list("127.0.0.1:7477,host:1,unix:/tmp/dp.sock").unwrap();
        assert_eq!(list.len(), 3);
        assert_eq!(list[0].to_string(), "127.0.0.1:7477");
        assert_eq!(list[2].to_string(), "unix:/tmp/dp.sock");

        let err = proto::parse_endpoint_list("127.0.0.1:7477,,host:1").unwrap_err();
        assert!(err.contains("empty endpoint"), "{err}");
        let err = proto::parse_endpoint_list("a:1,b:2,").unwrap_err();
        assert!(err.contains("empty endpoint"), "{err}");
        let err = proto::parse_endpoint_list("a:1,b:2,a:1").unwrap_err();
        assert!(err.contains("duplicate endpoint `a:1`"), "{err}");
        let err = proto::parse_endpoint_list("no-port").unwrap_err();
        assert!(err.contains("bad endpoint"), "{err}");
    }

    #[test]
    fn rendezvous_routing_is_deterministic_and_balanced() {
        let fleet = [tcp("a:1"), tcp("b:1"), tcp("c:1")];
        let mut counts = [0usize; 3];
        for key in 0..999u64 {
            let first = route(key, &fleet);
            assert_eq!(first, route(key, &fleet), "same inputs, same daemon");
            counts[first] += 1;
        }
        for (i, &n) in counts.iter().enumerate() {
            assert!(n > 200, "daemon {i} got only {n}/999 keys");
        }
    }

    #[test]
    fn removing_a_daemon_only_moves_its_own_keys() {
        let full = [tcp("a:1"), tcp("b:1"), tcp("c:1")];
        let without_c = [tcp("a:1"), tcp("b:1")];
        for key in 0..999u64 {
            let owner = route(key, &full);
            if owner < 2 {
                assert_eq!(
                    route(key, &without_c),
                    owner,
                    "key {key:016x} moved although its daemon survived"
                );
            }
        }
    }

    #[test]
    fn shard_sweep_rejects_an_empty_fleet() {
        let err = shard_sweep(&[], &SweepSpec::default(), &ShardOptions::default()).unwrap_err();
        assert!(err.contains("no remote endpoints"), "{err}");
    }
}
