//! Trace-driven discrete-event timing model.
//!
//! Replays an [`ExecutionTrace`] (plus the host-side event sequence)
//! against the hardware model in [`TimingParams`]:
//!
//! - **Block slots.** The device offers `num_sms × max_blocks_per_sm`
//!   resident-block slots; a block occupies slots proportional to its
//!   thread count. Small grids leave the device underutilized — the
//!   paper's second CDP pathology. Free slots are kept as runs of slots
//!   that fall free at the same time, so a replay costs what the trace
//!   holds (its blocks and grids), not what the device holds.
//! - **Launch pipe.** Device-side launches queue through a single
//!   grid-management pipe with fixed service time; tens of thousands of
//!   concurrent launches produce exactly the congestion the paper
//!   describes.
//! - **Block duration.** `max(critical warp cycles, total warp cycles /
//!   issue slots)` — the critical-warp term surfaces control divergence
//!   (e.g. over-serialization from a too-high threshold).
//! - **Host timeline.** Host launches and synchronizations advance a host
//!   clock; grid-granularity aggregation pays the host round trip here.

use crate::params::TimingParams;
use dp_frontend::ast::CodeOrigin;
use dp_vm::trace::{ExecutionTrace, LaunchOrigin};
use std::cmp::{Ordering, Reverse};
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Host-side actions in program order, recorded by the executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HostEvent {
    /// Host launched the grid with this trace id.
    Launch(usize),
    /// Host synchronized with the device (`cudaDeviceSynchronize`).
    Sync,
    /// Host performed the aggregated launch for a grid-granularity
    /// aggregation site (grid id of the aggregated child).
    AggLaunch(usize),
}

/// Timing of one grid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GridTiming {
    /// When the grid became available to the block dispatcher (µs).
    pub ready_us: f64,
    /// When its first block started (µs).
    pub start_us: f64,
    /// When its last block finished (µs).
    pub end_us: f64,
}

/// Execution-time breakdown (paper Fig. 10 categories).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Work executed by parent grids (including thresholding's serialized
    /// child work and threshold checks), in µs of device time.
    pub parent_us: f64,
    /// Work executed by child grids (including coarsening loop overhead).
    pub child_us: f64,
    /// Launch-path time: device launch pipe + host launch latencies +
    /// per-block dispatch.
    pub launch_us: f64,
    /// Aggregation logic (parent side).
    pub aggregation_us: f64,
    /// Disaggregation logic (child side).
    pub disaggregation_us: f64,
}

impl Breakdown {
    /// Sum of all categories.
    pub fn total(&self) -> f64 {
        self.parent_us
            + self.child_us
            + self.launch_us
            + self.aggregation_us
            + self.disaggregation_us
    }
}

/// Result of replaying a trace.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// End-to-end time from first host event to final completion (µs).
    pub total_us: f64,
    /// Sum of kernel-execution intervals (device busy span, µs).
    pub device_span_us: f64,
    /// Per-grid timings (indexed by grid id).
    pub grid_timings: Vec<GridTiming>,
    /// Work breakdown by category.
    pub breakdown: Breakdown,
    /// Number of device-side launches.
    pub device_launches: usize,
    /// Number of host-side launches.
    pub host_launches: usize,
}

/// Replays `trace` under `params`.
///
/// `host_events` must reference every host-launched grid in the trace in
/// program order; device-launched grids are timed from their parent block's
/// issue point through the launch pipe.
///
/// A call costs what the trace holds: free resident-block slots are kept as
/// runs of slots that fall free together, so a block takes and returns runs
/// rather than one entry per slot, and device grids are scheduled in one
/// pass over launch order. Nothing scales with the device's slot count.
pub fn simulate(
    trace: &ExecutionTrace,
    host_events: &[HostEvent],
    params: &TimingParams,
) -> SimResult {
    let n = trace.grids.len();
    let total_slots = params.total_block_slots() as usize;
    let mut device = Device {
        trace,
        params,
        total_slots,
        slots: BinaryHeap::from(vec![Reverse(Free {
            at: 0.0,
            count: total_slots,
        })]),
        dispatcher_free: 0.0,
        pipe_free: 0.0,
        pipe_busy_us: 0.0,
        dispatch_us: 0.0,
        done: 0.0,
        timings: vec![GridTiming::default(); n],
        scheduled: vec![false; n],
    };
    let mut host_clock = 0.0f64;
    let mut host_launch_us = 0.0f64;

    // Device-launched grids in id order; after each host-scheduled grid,
    // flush those whose parents are scheduled.
    let mut pending: Vec<usize> = trace
        .grids
        .iter()
        .filter(|g| g.origin.is_device())
        .map(|g| g.id)
        .collect();

    for event in host_events {
        match event {
            HostEvent::Launch(gid) | HostEvent::AggLaunch(gid) => {
                host_clock += params.host_launch_latency_us;
                host_launch_us += params.host_launch_latency_us;
                device.schedule(*gid, host_clock);
                device.flush(&mut pending);
            }
            HostEvent::Sync => {
                device.flush(&mut pending);
                host_clock = host_clock.max(device.done) + params.host_sync_overhead_us;
            }
        }
    }
    // Final flush for any grids launched after the last sync.
    device.flush(&mut pending);
    let completed_max = device.done;
    let total_us = host_clock.max(completed_max);

    // Work breakdown (device-throughput-normalized, plus launch path).
    let throughput = params.device_throughput_cycles_per_us();
    let mut breakdown = Breakdown {
        launch_us: device.pipe_busy_us + host_launch_us + device.dispatch_us,
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
        grid_timings: device.timings,
        breakdown,
        device_launches: trace.device_launches(),
        host_launches: trace.host_launches(),
    }
}

/// The device side of a replay: the slot pool, the block dispatcher, the
/// launch pipe and the grids timed so far.
struct Device<'a> {
    trace: &'a ExecutionTrace,
    params: &'a TimingParams,
    total_slots: usize,
    /// Free resident-block slots, earliest first.
    slots: BinaryHeap<Reverse<Free>>,
    dispatcher_free: f64,
    pipe_free: f64,
    pipe_busy_us: f64,
    dispatch_us: f64,
    /// Latest `end_us` of the grids scheduled so far.
    done: f64,
    timings: Vec<GridTiming>,
    scheduled: Vec<bool>,
}

impl Device<'_> {
    /// Times grid `gid`, which becomes ready at `ready`.
    fn schedule(&mut self, gid: usize, ready: f64) {
        let params = self.params;
        let g = &self.trace.grids[gid];
        let threads = g.threads_per_block();
        let need = params.slots_for_block(threads).min(self.total_slots as u64) as usize;
        let mut grid_start = f64::INFINITY;
        let mut grid_end: f64 = ready;
        for block in &g.blocks {
            // Take the `need` earliest-free slots; `avail` is the latest of
            // their free times. A run larger than what is still needed only
            // shrinks: its `at` is unchanged, so it keeps its heap position.
            let mut avail: f64 = 0.0;
            let mut left = need;
            while left > 0 {
                let mut run = self.slots.peek_mut().expect("slot pool is non-empty");
                avail = avail.max(run.0.at);
                if run.0.count > left {
                    run.0.count -= left;
                    break;
                }
                left -= run.0.count;
                PeekMut::pop(run);
            }
            // Blocks are independent once the grid is ready.
            self.dispatcher_free = self.dispatcher_free.max(ready) + params.block_dispatch_us;
            self.dispatch_us += params.block_dispatch_us;
            let start = ready.max(avail).max(self.dispatcher_free);
            let cycles = (block.critical_warp_cycles() as f64)
                .max(block.total_warp_cycles() as f64 / params.issue_slots_per_sm);
            let dur = cycles / (params.clock_ghz * 1000.0);
            let end = start + dur;
            self.slots.push(Reverse(Free {
                at: end,
                count: need,
            }));
            grid_start = grid_start.min(start);
            grid_end = grid_end.max(end);
        }
        if g.blocks.is_empty() {
            grid_start = ready;
        }
        self.timings[gid] = GridTiming {
            ready_us: ready,
            start_us: grid_start,
            end_us: grid_end,
        };
        self.scheduled[gid] = true;
        self.done = self.done.max(grid_end);
    }

    /// Schedules, in id order, every pending device grid whose parent is
    /// scheduled, and keeps the rest pending. Ids follow launch order, so a
    /// parent comes before its children and one pass reaches every grid
    /// that can be scheduled.
    fn flush(&mut self, pending: &mut Vec<usize>) {
        pending.retain(|&gid| {
            let LaunchOrigin::Device {
                parent_grid,
                issue_cycles,
                ..
            } = self.trace.grids[gid].origin
            else {
                unreachable!("pending grids are device-launched")
            };
            debug_assert!(parent_grid < gid, "grid {gid} precedes its parent");
            if !self.scheduled[parent_grid] {
                return true;
            }
            // Issue time: parent block start + offset within block.
            let parent = self.timings[parent_grid];
            let block_start = parent.start_us.max(parent.ready_us);
            let issue = block_start + self.params.cycles_to_us(issue_cycles);
            self.pipe_free = self.pipe_free.max(issue) + self.params.device_launch_pipe_us;
            self.pipe_busy_us += self.params.device_launch_pipe_us;
            self.schedule(gid, self.pipe_free);
            false
        });
    }
}

/// `count` resident-block slots that all fall free at `at` (µs), ordered
/// by `at` alone.
#[derive(Debug, Clone, Copy)]
struct Free {
    at: f64,
    count: usize,
}

impl PartialEq for Free {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Free {}

impl PartialOrd for Free {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Free {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.total_cmp(&other.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_vm::trace::*;

    fn block(cycles: u64) -> BlockTrace {
        BlockTrace {
            warp_cycles: vec![cycles],
            origin_cycles: {
                let mut oc = OriginCycles::default();
                oc.add(CodeOrigin::Original, cycles);
                oc
            },
            launches: vec![],
            instructions: cycles,
        }
    }

    fn host_grid(id: usize, blocks: usize, cycles: u64) -> GridTrace {
        GridTrace {
            id,
            kernel: "k".into(),
            grid_dim: [blocks as i64, 1, 1],
            block_dim: [32, 1, 1],
            origin: LaunchOrigin::Host,
            blocks: (0..blocks).map(|_| block(cycles)).collect(),
        }
    }

    fn device_grid(id: usize, parent: usize, blocks: usize, cycles: u64) -> GridTrace {
        GridTrace {
            id,
            kernel: "c".into(),
            grid_dim: [blocks as i64, 1, 1],
            block_dim: [32, 1, 1],
            origin: LaunchOrigin::Device {
                parent_grid: parent,
                parent_block: 0,
                issue_cycles: 100,
            },
            blocks: (0..blocks).map(|_| block(cycles)).collect(),
        }
    }

    #[test]
    fn single_grid_time_includes_launch_latency() {
        let trace = ExecutionTrace {
            grids: vec![host_grid(0, 1, 1380)],
        };
        let params = TimingParams::default();
        let r = simulate(&trace, &[HostEvent::Launch(0), HostEvent::Sync], &params);
        // 1380 cycles at 1.38GHz = 1µs, plus launch 6.5 + sync 4.
        assert!((r.total_us - 11.5).abs() < 0.2, "total: {}", r.total_us);
    }

    #[test]
    fn launch_pipe_congestion_grows_linearly() {
        // One parent block issuing many tiny child grids.
        let make_trace = |n_children: usize| {
            let mut grids = vec![host_grid(0, 1, 1000)];
            for i in 0..n_children {
                grids.push(device_grid(1 + i, 0, 1, 10));
            }
            ExecutionTrace { grids }
        };
        let params = TimingParams::default();
        let few = simulate(
            &make_trace(10),
            &[HostEvent::Launch(0), HostEvent::Sync],
            &params,
        );
        let many = simulate(
            &make_trace(1000),
            &[HostEvent::Launch(0), HostEvent::Sync],
            &params,
        );
        let ratio = many.total_us / few.total_us;
        assert!(
            ratio > 20.0,
            "1000 launches should be much slower than 10: {} vs {} (ratio {ratio})",
            many.total_us,
            few.total_us
        );
    }

    #[test]
    fn one_big_grid_beats_many_small_ones() {
        // Same total work: 1024 blocks in one grid vs 1024 grids of 1 block.
        let params = TimingParams::default();
        let one = {
            let mut grids = vec![host_grid(0, 1, 100)];
            grids.push(device_grid(1, 0, 1024, 1000));
            ExecutionTrace { grids }
        };
        let many = {
            let mut grids = vec![host_grid(0, 1, 100)];
            for i in 0..1024 {
                grids.push(device_grid(1 + i, 0, 1, 1000));
            }
            ExecutionTrace { grids }
        };
        let events = [HostEvent::Launch(0), HostEvent::Sync];
        let t_one = simulate(&one, &events, &params).total_us;
        let t_many = simulate(&many, &events, &params).total_us;
        assert!(
            t_many > 3.0 * t_one,
            "aggregated grid should be much faster: {t_one} vs {t_many}"
        );
    }

    #[test]
    fn device_capacity_limits_parallelism() {
        // 5120 blocks of 64 threads need 2 waves on 2560 slots.
        let params = TimingParams::default();
        let mk = |blocks: usize| ExecutionTrace {
            grids: vec![GridTrace {
                id: 0,
                kernel: "k".into(),
                grid_dim: [blocks as i64, 1, 1],
                block_dim: [64, 1, 1],
                origin: LaunchOrigin::Host,
                blocks: (0..blocks).map(|_| block(13_800)).collect(), // 10µs each
            }],
        };
        let events = [HostEvent::Launch(0), HostEvent::Sync];
        let half = simulate(&mk(2560), &events, &params).device_span_us;
        let full = simulate(&mk(5120), &events, &params).device_span_us;
        assert!(
            full > 1.7 * half,
            "two waves should take ~2x one wave: {half} vs {full}"
        );
    }

    #[test]
    fn cost_does_not_grow_with_the_device() {
        // 2^31 resident-block slots: a pool with one entry per slot would
        // need 16 GiB before it timed the one block.
        let huge = TimingParams {
            num_sms: 1 << 21,
            max_blocks_per_sm: 1 << 10,
            ..Default::default()
        };
        assert_eq!(huge.total_block_slots(), 1 << 31);
        let trace = ExecutionTrace {
            grids: vec![host_grid(0, 1, 1380)],
        };
        let events = [HostEvent::Launch(0), HostEvent::Sync];
        let on_huge = simulate(&trace, &events, &huge).total_us;
        let on_default = simulate(&trace, &events, &TimingParams::default()).total_us;
        assert_eq!(on_huge.to_bits(), on_default.to_bits());
    }

    #[test]
    fn sync_advances_host_clock() {
        let trace = ExecutionTrace {
            grids: vec![host_grid(0, 1, 1380), host_grid(1, 1, 1380)],
        };
        let params = TimingParams::default();
        let r = simulate(
            &trace,
            &[
                HostEvent::Launch(0),
                HostEvent::Sync,
                HostEvent::Launch(1),
                HostEvent::Sync,
            ],
            &params,
        );
        // Two sequential launch+run+sync rounds.
        assert!((r.total_us - 23.0).abs() < 0.5, "total: {}", r.total_us);
    }

    #[test]
    fn breakdown_attributes_categories() {
        let mut g = host_grid(0, 1, 1000);
        g.blocks[0].origin_cycles.add(CodeOrigin::AggLogic, 500);
        g.blocks[0]
            .origin_cycles
            .add(CodeOrigin::ThresholdSerial, 200);
        let mut c = device_grid(1, 0, 1, 300);
        c.kernel = "child_agg".into();
        c.blocks[0].origin_cycles.add(CodeOrigin::DisaggLogic, 100);
        let trace = ExecutionTrace { grids: vec![g, c] };
        let params = TimingParams::default();
        let r = simulate(&trace, &[HostEvent::Launch(0), HostEvent::Sync], &params);
        assert!(r.breakdown.parent_us > 0.0);
        assert!(r.breakdown.child_us > 0.0);
        assert!(r.breakdown.aggregation_us > 0.0);
        assert!(r.breakdown.disaggregation_us > 0.0);
        assert!(r.breakdown.launch_us > 0.0);
    }

    #[test]
    fn grid_timings_are_causally_ordered() {
        let trace = ExecutionTrace {
            grids: vec![host_grid(0, 4, 5000), device_grid(4, 0, 2, 100)],
        };
        // Fix ids: device grid id must be 1.
        let mut trace = trace;
        trace.grids[1].id = 1;
        let params = TimingParams::default();
        let r = simulate(&trace, &[HostEvent::Launch(0), HostEvent::Sync], &params);
        let parent = r.grid_timings[0];
        let child = r.grid_timings[1];
        assert!(child.ready_us > parent.start_us);
        assert!(child.end_us <= r.total_us);
    }
}
