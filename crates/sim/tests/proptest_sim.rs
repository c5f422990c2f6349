//! Generated traces for the timing model.
//!
//! The generator builds an [`ExecutionTrace`] and its [`HostEvent`]
//! sequence without the VM: 1–4 host grids (a quarter of them aggregated
//! launches of an `_agg` kernel), each followed by up to eight device grids
//! that hang off earlier grids, mostly those of the same host launch, so
//! parents form a tree with a parent's id below its child's. A `Sync` follows
//! a host grid half the time. Grids have 1–64 blocks of 1–1024 threads, and
//! blocks 1–8 warps of random cycles split at random over the code origins.
//! Half the cases run on the default device and half on one of 1–4 SMs with
//! 1–8 blocks each, half of those with only 1–256 threads per slot: there
//! blocks queue for slots and a block can need more slots than the device
//! has.
//!
//! `simulate` must return, to the bit, what the per-slot pool it replaced
//! returns ([`per_slot_simulate`], kept verbatim below as the oracle), and
//! the properties that hold by construction must hold on every case.

use dp_frontend::ast::CodeOrigin;
use dp_sim::{simulate, Breakdown, GridTiming, HostEvent, SimResult, TimingParams};
use dp_vm::trace::{BlockTrace, ExecutionTrace, GridTrace, LaunchOrigin, OriginCycles};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One replay: a trace, its host events and the device it runs on.
#[derive(Debug, Clone)]
struct Case {
    trace: ExecutionTrace,
    events: Vec<HostEvent>,
    params: TimingParams,
    /// Grids the generator made host- and device-launched.
    host_grids: usize,
    device_grids: usize,
}

/// The generator; `device` says whether grids launch device grids.
#[derive(Clone)]
struct Cases {
    device: bool,
}

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let params = if rng.below(2) == 0 {
            TimingParams::default()
        } else {
            let max_blocks_per_sm = 1 + rng.below(8) as u32;
            let threads_per_slot = if rng.below(2) == 0 {
                2048 / max_blocks_per_sm
            } else {
                1 + rng.below(256) as u32
            };
            TimingParams {
                num_sms: 1 + rng.below(4) as u32,
                max_blocks_per_sm,
                max_threads_per_sm: max_blocks_per_sm * threads_per_slot,
                ..Default::default()
            }
        };
        let host_grids = 1 + rng.below(4);
        let mut grids = Vec::new();
        let mut events = Vec::new();
        let mut device_grids = 0;
        for _ in 0..host_grids {
            let root = grids.len();
            let agg = rng.below(4) == 0;
            grids.push(grid(rng, root, agg, LaunchOrigin::Host));
            events.push(if agg {
                HostEvent::AggLaunch(root)
            } else {
                HostEvent::Launch(root)
            });
            let children = if self.device { rng.below(9) } else { 0 };
            for _ in 0..children {
                let id = grids.len();
                let parent_grid = if rng.below(4) == 0 {
                    rng.below(id)
                } else {
                    root + rng.below(id - root)
                };
                let origin = LaunchOrigin::Device {
                    parent_grid,
                    parent_block: rng.below(grids[parent_grid].blocks.len()) as u64,
                    issue_cycles: rng.below(20_000) as u64,
                };
                let agg = rng.below(4) == 0;
                grids.push(grid(rng, id, agg, origin));
                device_grids += 1;
            }
            if rng.below(2) == 0 {
                events.push(HostEvent::Sync);
            }
        }
        Case {
            trace: ExecutionTrace { grids },
            events,
            params,
            host_grids,
            device_grids,
        }
    }
}

fn grid(rng: &mut TestRng, id: usize, agg: bool, origin: LaunchOrigin) -> GridTrace {
    let blocks = 1 + rng.below(64);
    let threads = 1 + rng.below(1024);
    let kernel = match (origin.is_device(), agg) {
        (false, false) => "parent",
        (false, true) => "parent_child_agg",
        (true, false) => "child",
        (true, true) => "child_agg",
    };
    GridTrace {
        id,
        kernel: kernel.into(),
        grid_dim: [blocks as i64, 1, 1],
        block_dim: [threads as i64, 1, 1],
        origin,
        blocks: (0..blocks).map(|_| block(rng)).collect(),
    }
}

fn block(rng: &mut TestRng) -> BlockTrace {
    let warps = 1 + rng.below(8);
    let warp_cycles: Vec<u64> = (0..warps).map(|_| rng.below(20_000) as u64).collect();
    let total: u64 = warp_cycles.iter().sum();
    let mut origin_cycles = OriginCycles::default();
    let mut left = total;
    for bucket in origin_cycles.0.iter_mut() {
        *bucket = rng.below(left as usize + 1) as u64;
        left -= *bucket;
    }
    origin_cycles.0[0] += left;
    BlockTrace {
        warp_cycles,
        origin_cycles,
        launches: vec![],
        instructions: total,
    }
}

/// Every `f64` of a result, in a fixed order.
fn values(r: &SimResult) -> Vec<f64> {
    let b = &r.breakdown;
    let mut v = vec![
        r.total_us,
        r.device_span_us,
        b.parent_us,
        b.child_us,
        b.launch_us,
        b.aggregation_us,
        b.disaggregation_us,
    ];
    for t in &r.grid_timings {
        v.extend([t.ready_us, t.start_us, t.end_us]);
    }
    v
}

/// Every field of a result as bits.
fn bits(r: &SimResult) -> Vec<u64> {
    let mut b: Vec<u64> = values(r).iter().map(|x| x.to_bits()).collect();
    b.extend([r.device_launches as u64, r.host_launches as u64]);
    b
}

proptest! {
    #[test]
    fn runs_of_slots_time_like_one_entry_per_slot(case in Cases { device: true }) {
        let got = simulate(&case.trace, &case.events, &case.params);
        let want = per_slot_simulate(&case.trace, &case.events, &case.params);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn timings_are_deterministic_counted_finite_and_causal(case in Cases { device: true }) {
        let params = &case.params;
        let r = simulate(&case.trace, &case.events, params);
        prop_assert_eq!(bits(&r), bits(&simulate(&case.trace, &case.events, params)));
        prop_assert_eq!(r.device_launches, case.device_grids);
        prop_assert_eq!(r.host_launches, case.host_grids);
        for x in values(&r) {
            prop_assert!(x.is_finite() && x >= 0.0, "{x} in {:?}", r);
        }
        for (gid, (g, t)) in case.trace.grids.iter().zip(&r.grid_timings).enumerate() {
            prop_assert!(t.start_us >= t.ready_us, "grid {gid} starts before it is ready: {t:?}");
            prop_assert!(t.end_us >= t.start_us, "grid {gid} ends before it starts: {t:?}");
            prop_assert!(t.end_us <= r.total_us, "grid {gid} ends after the run: {t:?}");
            if let LaunchOrigin::Device { parent_grid, issue_cycles, .. } = g.origin {
                let p = r.grid_timings[parent_grid];
                let earliest = p.start_us.max(p.ready_us)
                    + params.cycles_to_us(issue_cycles)
                    + params.device_launch_pipe_us;
                prop_assert!(
                    t.ready_us >= earliest,
                    "grid {gid} is ready at {} before its launch arrives at {earliest}",
                    t.ready_us
                );
            }
        }
    }

    #[test]
    fn the_launch_pipe_is_neutral_without_device_grids(
        case in Cases { device: false },
        pipe_ns in 0u32..1_000_000,
    ) {
        let pipe = TimingParams {
            device_launch_pipe_us: pipe_ns as f64 / 1000.0,
            ..case.params.clone()
        };
        prop_assert_eq!(
            bits(&simulate(&case.trace, &case.events, &case.params)),
            bits(&simulate(&case.trace, &case.events, &pipe))
        );
    }
}

// ---- The oracle: the per-slot pool `simulate` used before runs of slots,
// ---- verbatim but for its name.

/// Replays `trace` under `params`.
///
/// `host_events` must reference every host-launched grid in the trace in
/// program order; device-launched grids are timed from their parent block's
/// issue point through the launch pipe.
fn per_slot_simulate(
    trace: &ExecutionTrace,
    host_events: &[HostEvent],
    params: &TimingParams,
) -> SimResult {
    let n = trace.grids.len();
    let mut timings = vec![GridTiming::default(); n];
    let mut scheduled = vec![false; n];

    // Resident-block slots as a min-heap of free times.
    let total_slots = params.total_block_slots() as usize;
    let mut slots: BinaryHeap<Reverse<OrderedF64>> = BinaryHeap::with_capacity(total_slots);
    for _ in 0..total_slots {
        slots.push(Reverse(OrderedF64(0.0)));
    }
    let mut dispatcher_free = 0.0f64;
    let mut pipe_free = 0.0f64;
    let mut host_clock = 0.0f64;
    let mut launch_pipe_busy_us = 0.0f64;
    let mut host_launch_us = 0.0f64;
    let mut dispatch_us = 0.0f64;

    // Grids must be scheduled in id order (parents before children); we
    // walk host events and schedule device-launched descendants eagerly.
    let mut pending_device: Vec<usize> = Vec::new();

    let schedule_grid = |gid: usize,
                         ready: f64,
                         timings: &mut Vec<GridTiming>,
                         slots: &mut BinaryHeap<Reverse<OrderedF64>>,
                         dispatcher_free: &mut f64,
                         dispatch_us: &mut f64| {
        let g = &trace.grids[gid];
        let threads = g.threads_per_block();
        let need = params.slots_for_block(threads).min(total_slots as u64) as usize;
        let mut start_min = ready;
        let mut grid_start = f64::INFINITY;
        let mut grid_end: f64 = ready;
        for block in &g.blocks {
            // Pop the `need` earliest-free slots.
            let mut popped = Vec::with_capacity(need);
            let mut avail: f64 = 0.0;
            for _ in 0..need {
                let Reverse(OrderedF64(t)) = slots.pop().expect("slot pool is non-empty");
                avail = avail.max(t);
                popped.push(t);
            }
            *dispatcher_free = dispatcher_free.max(start_min) + params.block_dispatch_us;
            *dispatch_us += params.block_dispatch_us;
            let start = start_min.max(avail).max(*dispatcher_free);
            let cycles = (block.critical_warp_cycles() as f64)
                .max(block.total_warp_cycles() as f64 / params.issue_slots_per_sm);
            let dur = cycles / (params.clock_ghz * 1000.0);
            let end = start + dur;
            for _ in 0..need {
                slots.push(Reverse(OrderedF64(end)));
            }
            grid_start = grid_start.min(start);
            grid_end = grid_end.max(end);
            start_min = ready; // blocks are independent once the grid is ready
        }
        if g.blocks.is_empty() {
            grid_start = ready;
        }
        timings[gid] = GridTiming {
            ready_us: ready,
            start_us: grid_start,
            end_us: grid_end,
        };
    };

    // Process: walk host events; after each host-scheduled grid, flush any
    // device-launched grids whose parents are scheduled (ids ascend, so a
    // single forward scan suffices).
    let flush = |pending: &mut Vec<usize>,
                 timings: &mut Vec<GridTiming>,
                 scheduled: &mut Vec<bool>,
                 slots: &mut BinaryHeap<Reverse<OrderedF64>>,
                 dispatcher_free: &mut f64,
                 pipe_free: &mut f64,
                 pipe_busy: &mut f64,
                 dispatch_us: &mut f64| {
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < pending.len() {
                let gid = pending[i];
                let LaunchOrigin::Device {
                    parent_grid,
                    parent_block,
                    issue_cycles,
                } = trace.grids[gid].origin
                else {
                    unreachable!("pending grids are device-launched")
                };
                if scheduled[parent_grid] {
                    // Issue time: parent block start + offset within block.
                    let parent_timing = timings[parent_grid];
                    let block_start = parent_timing.start_us.max(parent_timing.ready_us);
                    let _ = parent_block;
                    let issue = block_start + params.cycles_to_us(issue_cycles);
                    *pipe_free = pipe_free.max(issue) + params.device_launch_pipe_us;
                    *pipe_busy += params.device_launch_pipe_us;
                    let ready = *pipe_free;
                    schedule_grid(gid, ready, timings, slots, dispatcher_free, dispatch_us);
                    scheduled[gid] = true;
                    pending.remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                break;
            }
        }
    };

    // Collect device-launched grids up front (in id order).
    for g in &trace.grids {
        if g.origin.is_device() {
            pending_device.push(g.id);
        }
    }

    let mut completed_max = 0.0f64;
    for event in host_events {
        match event {
            HostEvent::Launch(gid) | HostEvent::AggLaunch(gid) => {
                host_clock += params.host_launch_latency_us;
                host_launch_us += params.host_launch_latency_us;
                schedule_grid(
                    *gid,
                    host_clock,
                    &mut timings,
                    &mut slots,
                    &mut dispatcher_free,
                    &mut dispatch_us,
                );
                scheduled[*gid] = true;
                flush(
                    &mut pending_device,
                    &mut timings,
                    &mut scheduled,
                    &mut slots,
                    &mut dispatcher_free,
                    &mut pipe_free,
                    &mut launch_pipe_busy_us,
                    &mut dispatch_us,
                );
            }
            HostEvent::Sync => {
                flush(
                    &mut pending_device,
                    &mut timings,
                    &mut scheduled,
                    &mut slots,
                    &mut dispatcher_free,
                    &mut pipe_free,
                    &mut launch_pipe_busy_us,
                    &mut dispatch_us,
                );
                let device_done = timings
                    .iter()
                    .zip(&scheduled)
                    .filter(|(_, s)| **s)
                    .map(|(t, _)| t.end_us)
                    .fold(0.0f64, f64::max);
                host_clock = host_clock.max(device_done) + params.host_sync_overhead_us;
            }
        }
    }
    // Final flush for any grids launched after the last sync.
    flush(
        &mut pending_device,
        &mut timings,
        &mut scheduled,
        &mut slots,
        &mut dispatcher_free,
        &mut pipe_free,
        &mut launch_pipe_busy_us,
        &mut dispatch_us,
    );
    for t in &timings {
        completed_max = completed_max.max(t.end_us);
    }
    let total_us = host_clock.max(completed_max);

    // Work breakdown (device-throughput-normalized, plus launch path).
    let throughput = params.device_throughput_cycles_per_us();
    let mut breakdown = Breakdown {
        launch_us: launch_pipe_busy_us + host_launch_us + dispatch_us,
        ..Default::default()
    };
    for g in &trace.grids {
        let oc = g.origin_cycles();
        let is_child = g.origin.is_device() || g.kernel.ends_with("_agg");
        let original = oc.get(CodeOrigin::Original) as f64 / throughput;
        let coarsen = oc.get(CodeOrigin::CoarsenLoop) as f64 / throughput;
        if is_child {
            breakdown.child_us += original + coarsen;
        } else {
            breakdown.parent_us += original + coarsen;
        }
        breakdown.parent_us += (oc.get(CodeOrigin::ThresholdCheck)
            + oc.get(CodeOrigin::ThresholdSerial)) as f64
            / throughput;
        breakdown.aggregation_us += oc.get(CodeOrigin::AggLogic) as f64 / throughput;
        breakdown.disaggregation_us += oc.get(CodeOrigin::DisaggLogic) as f64 / throughput;
    }

    SimResult {
        total_us,
        device_span_us: completed_max,
        grid_timings: timings,
        breakdown,
        device_launches: trace.device_launches(),
        host_launches: trace.host_launches(),
    }
}

/// f64 wrapper with total ordering for the slot heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
