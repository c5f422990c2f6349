//! The process-wide metrics registry: sharded counters and fixed-bucket
//! latency histograms.
//!
//! Design constraints (all load-bearing for the serve hot path):
//!
//! - **Disabled cost is a branch on a static.** Every record call starts
//!   with a relaxed load of one atomic; unless `DPOPT_METRICS` is set (read
//!   once, by the first such call) or something calls [`enable`], that is
//!   the entire cost.
//! - **No allocation on the hot path.** Handles are `static` items
//!   ([`Counter::new`] / [`Histogram::new`] are `const fn`); recording is
//!   a relaxed `fetch_add` on a pre-sized atomic. The only lock in the
//!   module guards *registration* — the first touch of each handle pushes
//!   it into the global registry, once, behind a [`Once`].
//! - **Sharded counters.** Each counter spreads increments over
//!   cache-line-padded shards indexed by a per-thread slot, so the serve
//!   session threads and pool threads do not bounce one line.
//! - **Fixed buckets.** Histograms bucket microseconds by powers of two
//!   (`le` = 1µs, 2µs, … 2^25µs ≈ 33.5s, plus an overflow bucket), so
//!   p50/p90/p99 are derivable from a snapshot without recording having
//!   ever allocated or sorted.
//!
//! Snapshots ([`snapshot`]) are read-side only and deterministic in
//! *shape*: names sort lexicographically, buckets render sparse
//! (`[le, count]` pairs, overflow `le` = -1). Values are live traffic —
//! which is exactly why the serve `metrics` op joins `stats` in the
//! determinism-contract exemption.

use crate::json::{object, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

// ----------------------------------------------------------------------
// Global enable switch
// ----------------------------------------------------------------------

/// `UNSET` until the first [`enabled`] call has read `DPOPT_METRICS`.
static STATE: AtomicU8 = AtomicU8::new(UNSET);
const UNSET: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Whether recording is on: `DPOPT_METRICS` set to anything but `0` or the
/// empty string, or [`enable`] called. This is the branch every
/// disabled-path record call reduces to.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        UNSET => read_env(),
        state => state == ON,
    }
}

#[cold]
fn read_env() -> bool {
    let on = matches!(std::env::var("DPOPT_METRICS"), Ok(v) if !v.is_empty() && v != "0");
    // Only ever leaves `UNSET`: an `enable` that ran meanwhile stands.
    let _ = STATE.compare_exchange(
        UNSET,
        if on { ON } else { OFF },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == ON
}

/// Turns recording on for the rest of the process. Idempotent; there is
/// deliberately no `disable` (half-recorded histograms mislead). The
/// serve daemon and the bench binaries call this unconditionally.
pub fn enable() {
    STATE.store(ON, Ordering::Relaxed);
}

/// `Some(Instant::now())` when recording is on, `None` otherwise — the
/// idiom for timing a region without paying for the clock when disabled:
///
/// ```ignore
/// let t = metrics::now();
/// do_work();
/// HIST.record_since(t);
/// ```
#[inline]
pub fn now() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

// ----------------------------------------------------------------------
// Registry
// ----------------------------------------------------------------------

struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
    })
}

/// Shards per counter. Eight covers the worker counts this system runs at
/// (the pool budget is per-CPU) without bloating every counter static.
const SHARDS: usize = 8;

/// Per-thread shard slot: threads round-robin over shards at first touch,
/// so two busy threads rarely share a cache line.
#[inline]
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SLOT.with(|s| *s)
}

/// One cache line per shard so `fetch_add`s from different threads do not
/// false-share.
#[repr(align(64))]
struct Pad(AtomicU64);

#[allow(clippy::declare_interior_mutable_const)]
const PAD_ZERO: Pad = Pad(AtomicU64::new(0));

// ----------------------------------------------------------------------
// Counter
// ----------------------------------------------------------------------

/// A monotonically increasing, sharded counter. Declare as a `static` and
/// call [`Counter::add`] / [`Counter::incr`] from any thread.
pub struct Counter {
    name: &'static str,
    shards: [Pad; SHARDS],
    registered: Once,
}

impl Counter {
    /// A counter handle. `name` is its registry key — dotted lowercase by
    /// convention (`pool.jobs.spawned`).
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            shards: [PAD_ZERO; SHARDS],
            registered: Once::new(),
        }
    }

    /// Adds `n`. A no-op branch while recording is disabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.registered
            .call_once(|| registry().counters.lock().unwrap().push(self));
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// The current total across shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

// ----------------------------------------------------------------------
// Labeled counters
// ----------------------------------------------------------------------

/// A counter whose name is composed at runtime: `<base>.<label>.<suffix>`
/// with `label` sanitized to the registry's dotted-lowercase convention
/// (every character outside `[a-z0-9]` becomes `_`). The first call for a
/// given composed name leaks one `Counter` (and its name) to obtain the
/// `&'static` handle the recording API requires; subsequent calls return
/// the same handle from a dedup map. The leak is bounded by the number of
/// distinct labels the process ever sees — for the fleet scheduler that is
/// one handful per daemon endpoint.
pub fn labeled_counter(base: &str, label: &str, suffix: &str) -> &'static Counter {
    static BY_NAME: OnceLock<Mutex<BTreeMap<String, &'static Counter>>> = OnceLock::new();
    let name = format!("{base}.{}.{suffix}", sanitize_label(label));
    let mut map = BY_NAME
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap();
    if let Some(c) = map.get(&name) {
        return c;
    }
    let leaked_name: &'static str = Box::leak(name.clone().into_boxed_str());
    let counter: &'static Counter = Box::leak(Box::new(Counter::new(leaked_name)));
    map.insert(name, counter);
    counter
}

/// Lowercases `label` and folds everything outside `[a-z0-9]` to `_`, so
/// `127.0.0.1:7477` becomes `127_0_0_1_7477` — one dotted-name segment,
/// not five.
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            let c = c.to_ascii_lowercase();
            if c.is_ascii_alphanumeric() {
                c
            } else {
                '_'
            }
        })
        .collect()
}

// ----------------------------------------------------------------------
// Histogram
// ----------------------------------------------------------------------

/// Power-of-two bucket upper bounds in microseconds: bucket `k` holds
/// samples in `(2^(k-1), 2^k]` (bucket 0 holds `0..=1`), bucket
/// [`OVERFLOW_BUCKET`] holds everything above `2^25`µs (~33.5s).
pub(crate) const NUM_BUCKETS: usize = 27;
const OVERFLOW_BUCKET: usize = NUM_BUCKETS - 1;

#[inline]
fn bucket_for(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        let ceil_log2 = 64 - (us - 1).leading_zeros() as usize;
        ceil_log2.min(OVERFLOW_BUCKET)
    }
}

/// The upper bound (`le`) of bucket `idx`, or `None` for the overflow
/// bucket.
pub(crate) fn bucket_bound_us(idx: usize) -> Option<u64> {
    if idx < OVERFLOW_BUCKET {
        Some(1u64 << idx)
    } else {
        None
    }
}

/// A fixed-bucket latency histogram in microseconds. Declare as a
/// `static`; record with `Histogram::record_us` or the
/// [`now`]/[`Histogram::record_since`] pair.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; NUM_BUCKETS],
    sum_us: AtomicU64,
    max_us: AtomicU64,
    registered: Once,
}

impl Histogram {
    /// A histogram handle; `name` conventionally ends in `_us`.
    pub const fn new(name: &'static str) -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            name,
            buckets: [ZERO; NUM_BUCKETS],
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// Records one sample. A no-op branch while recording is disabled.
    #[inline]
    pub(crate) fn record_us(&'static self, us: u64) {
        if !enabled() {
            return;
        }
        self.registered
            .call_once(|| registry().histograms.lock().unwrap().push(self));
        self.buckets[bucket_for(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records the time since `start` (the [`now`] idiom). `None` — the
    /// disabled case — records nothing.
    #[inline]
    pub fn record_since(&'static self, start: Option<Instant>) {
        if let Some(t) = start {
            self.record_us(t.elapsed().as_micros() as u64);
        }
    }
}

// ----------------------------------------------------------------------
// Snapshots
// ----------------------------------------------------------------------

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct HistogramSnapshot {
    /// Total samples.
    pub(crate) count: u64,
    /// Sum of all samples in microseconds.
    pub(crate) sum_us: u64,
    /// Largest single sample in microseconds.
    pub(crate) max_us: u64,
    /// Sparse buckets: `(le_us, count)` for non-empty buckets, in bound
    /// order; the overflow bucket reports `le_us == u64::MAX`.
    pub(crate) buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding that rank — an over-estimate by at most one bucket width.
    /// The overflow bucket reports `max_us`. Zero samples → 0.
    pub(crate) fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(le, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return if le == u64::MAX { self.max_us } else { le };
            }
        }
        self.max_us
    }
}

/// A point-in-time copy of the whole registry. Only handles that have
/// been touched while recording was enabled appear.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub(crate) counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub(crate) histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// A counter's value, or 0 if it has never been touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The snapshot as a deterministic-shape JSON value — the body of the
    /// serve `metrics` op, the `--metrics-dump-secs` line and vmbench's
    /// `metrics` member:
    ///
    /// ```json
    /// {"counters":{"name":N,...},
    ///  "histograms":{"name":{"buckets":[[le_us,count],...],"count":N,
    ///                        "max_us":N,"p50_us":N,"p90_us":N,
    ///                        "p99_us":N,"sum_us":N},...}}
    /// ```
    ///
    /// Names sort lexicographically; buckets are sparse with the overflow
    /// bucket's `le_us` rendered as `-1`.
    pub fn to_json(&self) -> Json {
        let counters = self.counters.iter().map(|(k, v)| (k.clone(), count(*v)));
        let histograms = self.histograms.iter().map(|(name, h)| {
            let buckets = h.buckets.iter().map(|&(le, n)| {
                let le = if le == u64::MAX {
                    Json::Int(-1)
                } else {
                    count(le)
                };
                Json::Array(vec![le, count(n)])
            });
            let members = object([
                ("buckets", Json::Array(buckets.collect())),
                ("count", count(h.count)),
                ("max_us", count(h.max_us)),
                ("p50_us", count(h.quantile_us(0.50))),
                ("p90_us", count(h.quantile_us(0.90))),
                ("p99_us", count(h.quantile_us(0.99))),
                ("sum_us", count(h.sum_us)),
            ]);
            (name.clone(), members)
        });
        object([
            ("counters", Json::Object(counters.collect())),
            ("histograms", Json::Object(histograms.collect())),
        ])
    }
}

/// A registry value as JSON. Values are event counts and sums of
/// microseconds; one past `i64::MAX` saturates (a snapshot must never
/// panic the daemon that serves it).
fn count(v: u64) -> Json {
    Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
}

/// Snapshots every registered counter and histogram. Read-side only;
/// concurrent recording keeps going (totals are a consistent-enough relaxed
/// read, not a stop-the-world cut).
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut counters = BTreeMap::new();
    for c in reg.counters.lock().unwrap().iter() {
        counters.insert(c.name.to_string(), c.value());
    }
    let mut histograms = BTreeMap::new();
    for h in reg.histograms.lock().unwrap().iter() {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (idx, b) in h.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                count += n;
                buckets.push((bucket_bound_us(idx).unwrap_or(u64::MAX), n));
            }
        }
        histograms.insert(
            h.name.to_string(),
            HistogramSnapshot {
                count,
                sum_us: h.sum_us.load(Ordering::Relaxed),
                max_us: h.max_us.load(Ordering::Relaxed),
                buckets,
            },
        );
    }
    Snapshot {
        counters,
        histograms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_COUNTER: Counter = Counter::new("test.metrics.counter");
    static TEST_HIST: Histogram = Histogram::new("test.metrics.hist_us");

    #[test]
    fn counters_and_histograms_roundtrip_through_snapshot() {
        enable();
        TEST_COUNTER.add(2);
        TEST_COUNTER.incr();
        for us in [0, 1, 2, 3, 1000, 70_000_000] {
            TEST_HIST.record_us(us);
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.metrics.counter"), 3);
        let h = &snap.histograms["test.metrics.hist_us"];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum_us, 70_001_006);
        assert_eq!(h.max_us, 70_000_000);
        // 0 and 1 share bucket le=1; 2 is le=2; 3 is le=4; 1000 is le=1024;
        // 70s overflows (2^25µs ≈ 33.5s).
        assert_eq!(
            h.buckets,
            vec![(1, 2), (2, 1), (4, 1), (1024, 1), (u64::MAX, 1)]
        );
        // Quantiles are bucket upper bounds; the overflow bucket reports
        // the true max.
        assert_eq!(h.quantile_us(0.5), 2);
        assert_eq!(h.quantile_us(0.99), 70_000_000);
    }

    #[test]
    fn bucket_bounds_partition_the_axis() {
        assert_eq!(bucket_for(0), 0);
        assert_eq!(bucket_for(1), 0);
        assert_eq!(bucket_for(2), 1);
        assert_eq!(bucket_for(3), 2);
        assert_eq!(bucket_for(4), 2);
        assert_eq!(bucket_for(5), 3);
        assert_eq!(bucket_for(1 << 25), 25);
        assert_eq!(bucket_for((1 << 25) + 1), OVERFLOW_BUCKET);
        assert_eq!(bucket_for(u64::MAX), OVERFLOW_BUCKET);
        for idx in 0..OVERFLOW_BUCKET {
            let le = bucket_bound_us(idx).unwrap();
            assert_eq!(bucket_for(le), idx, "le itself lands in its bucket");
            assert_eq!(bucket_for(le + 1), idx + 1, "le+1 spills to the next");
        }
        assert_eq!(bucket_bound_us(OVERFLOW_BUCKET), None);
    }

    #[test]
    fn snapshot_json_is_valid_and_deterministic_in_shape() {
        // The bytes the hand-rolled writer this replaced produced for the
        // same snapshot: a name that needs escaping, an overflow bucket.
        let mut snap = Snapshot::default();
        snap.counters.insert("serve.op.compile".to_string(), 3);
        snap.counters.insert("odd \"name\"\\\n\u{1}".to_string(), 0);
        snap.histograms.insert(
            "serve.req.compile_us".to_string(),
            HistogramSnapshot {
                count: 4,
                sum_us: 70_000_107,
                max_us: 70_000_000,
                buckets: vec![(1, 1), (128, 2), (u64::MAX, 1)],
            },
        );
        assert_eq!(
            snap.to_json().to_string(),
            concat!(
                r#"{"counters":{"odd \"name\"\\\n\u0001":0,"serve.op.compile":3},"#,
                r#""histograms":{"serve.req.compile_us":{"buckets":[[1,1],[128,2],[-1,1]],"#,
                r#""count":4,"max_us":70000000,"p50_us":128,"p90_us":70000000,"#,
                r#""p99_us":70000000,"sum_us":70000107}}}"#
            )
        );
        // Past `i64::MAX` a value saturates; nothing panics.
        snap.counters.insert("huge".to_string(), u64::MAX);
        let text = snap.to_json().to_string();
        assert!(text.contains("\"huge\":9223372036854775807"), "{text}");
    }

    #[test]
    fn labeled_counters_dedup_and_sanitize() {
        enable();
        let a = labeled_counter("test.shard.daemon", "127.0.0.1:7477", "routed");
        let b = labeled_counter("test.shard.daemon", "127.0.0.1:7477", "routed");
        assert!(std::ptr::eq(a, b), "same label must return the same handle");
        a.add(2);
        b.incr();
        let snap = snapshot();
        assert_eq!(snap.counter("test.shard.daemon.127_0_0_1_7477.routed"), 3);
        let c = labeled_counter("test.shard.daemon", "unix:/tmp/Sock-1", "routed");
        assert!(!std::ptr::eq(a, c));
        c.incr();
        assert_eq!(
            snapshot().counter("test.shard.daemon.unix__tmp_sock_1.routed"),
            1
        );
    }

    #[test]
    fn quantiles_of_empty_histogram_are_zero() {
        let h = HistogramSnapshot {
            count: 0,
            sum_us: 0,
            max_us: 0,
            buckets: Vec::new(),
        };
        assert_eq!(h.quantile_us(0.5), 0);
        assert_eq!(h.quantile_us(0.99), 0);
    }
}
