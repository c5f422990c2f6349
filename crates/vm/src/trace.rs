//! Execution traces consumed by the timing simulator (`dp-sim`).
//!
//! The VM executes grids functionally and records, per block, how many
//! cycles each warp spent (max over its threads — the warp-synchronous
//! upper path, which is what makes control divergence from
//! over-thresholding visible) and how those cycles split across
//! [`CodeOrigin`] categories (which is what produces the paper's Fig. 10
//! breakdown).

use dp_frontend::ast::CodeOrigin;

/// Number of [`CodeOrigin`] categories.
pub(crate) const N_ORIGINS: usize = 6;

/// Index of an origin in [`OriginCycles`].
pub(crate) fn origin_index(origin: CodeOrigin) -> usize {
    match origin {
        CodeOrigin::Original => 0,
        CodeOrigin::ThresholdCheck => 1,
        CodeOrigin::ThresholdSerial => 2,
        CodeOrigin::CoarsenLoop => 3,
        CodeOrigin::AggLogic => 4,
        CodeOrigin::DisaggLogic => 5,
    }
}

/// Cycle totals split by code origin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OriginCycles(pub [u64; N_ORIGINS]);

impl OriginCycles {
    /// Adds cycles to one origin's bucket.
    pub fn add(&mut self, origin: CodeOrigin, cycles: u64) {
        self.0[origin_index(origin)] += cycles;
    }

    /// Cycles attributed to `origin`.
    pub fn get(&self, origin: CodeOrigin) -> u64 {
        self.0[origin_index(origin)]
    }

    /// Sum across all origins.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Element-wise accumulation.
    pub(crate) fn merge(&mut self, other: &OriginCycles) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }
}

/// How a grid was launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchOrigin {
    /// Launched from the host (CPU).
    Host,
    /// Launched dynamically from device code.
    Device {
        /// Grid id of the launching (parent) grid.
        parent_grid: usize,
        /// Linear block index of the launching block within the parent.
        parent_block: u64,
        /// The launching thread's cycle count when the launch was issued
        /// (used to position the launch in time).
        issue_cycles: u64,
    },
}

impl LaunchOrigin {
    /// `true` for device-side launches.
    pub fn is_device(&self) -> bool {
        matches!(self, LaunchOrigin::Device { .. })
    }
}

/// A device-side launch issued while executing a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Grid id of the launched child.
    pub(crate) child_grid: usize,
    /// Issuing thread's cycle count at the launch instruction.
    pub(crate) issue_cycles: u64,
}

/// Per-block execution record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockTrace {
    /// Max thread cycles per warp (warp-synchronous execution time).
    pub warp_cycles: Vec<u64>,
    /// Sum of thread cycles, split by code origin.
    pub origin_cycles: OriginCycles,
    /// Device launches issued from this block.
    pub launches: Vec<LaunchRecord>,
    /// Dynamic instructions executed by the block (all threads).
    pub instructions: u64,
}

impl BlockTrace {
    /// The block's warp-level execution time: max over warps.
    pub fn critical_warp_cycles(&self) -> u64 {
        self.warp_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Total cycles over all warps (issue-bandwidth view).
    pub fn total_warp_cycles(&self) -> u64 {
        self.warp_cycles.iter().sum()
    }
}

/// Per-grid execution record.
#[derive(Debug, Clone, PartialEq)]
pub struct GridTrace {
    /// Grid id (position in launch order).
    pub id: usize,
    /// Kernel name.
    pub kernel: String,
    /// Grid dimensions.
    pub grid_dim: [i64; 3],
    /// Block dimensions.
    pub block_dim: [i64; 3],
    /// Who launched it.
    pub origin: LaunchOrigin,
    /// Per-block traces, in linear block order.
    pub blocks: Vec<BlockTrace>,
}

impl GridTrace {
    /// Total number of blocks.
    #[cfg(test)]
    pub(crate) fn num_blocks(&self) -> u64 {
        (self.grid_dim[0] * self.grid_dim[1] * self.grid_dim[2]) as u64
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u64 {
        (self.block_dim[0] * self.block_dim[1] * self.block_dim[2]) as u64
    }

    /// Cycle totals split by origin over the whole grid.
    pub fn origin_cycles(&self) -> OriginCycles {
        let mut total = OriginCycles::default();
        for b in &self.blocks {
            total.merge(&b.origin_cycles);
        }
        total
    }
}

/// Trace of one complete run (host launch to quiescence).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionTrace {
    /// Executed grids in launch order (grid id = index).
    pub grids: Vec<GridTrace>,
}

impl ExecutionTrace {
    /// Number of device-side launches in the trace.
    pub fn device_launches(&self) -> usize {
        self.grids.iter().filter(|g| g.origin.is_device()).count()
    }

    /// Number of host-side launches.
    pub fn host_launches(&self) -> usize {
        self.grids.len() - self.device_launches()
    }

    /// Total dynamic instructions.
    pub fn instructions(&self) -> u64 {
        self.grids
            .iter()
            .flat_map(|g| g.blocks.iter())
            .map(|b| b.instructions)
            .sum()
    }

    /// Origin-split cycles over the whole trace.
    pub fn origin_cycles(&self) -> OriginCycles {
        let mut total = OriginCycles::default();
        for g in &self.grids {
            total.merge(&g.origin_cycles());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_indexing_is_bijective() {
        let all = [
            CodeOrigin::Original,
            CodeOrigin::ThresholdCheck,
            CodeOrigin::ThresholdSerial,
            CodeOrigin::CoarsenLoop,
            CodeOrigin::AggLogic,
            CodeOrigin::DisaggLogic,
        ];
        let mut seen = [false; N_ORIGINS];
        for o in all {
            let i = origin_index(o);
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn origin_cycles_accumulate() {
        let mut oc = OriginCycles::default();
        oc.add(CodeOrigin::Original, 10);
        oc.add(CodeOrigin::AggLogic, 5);
        oc.add(CodeOrigin::Original, 3);
        assert_eq!(oc.get(CodeOrigin::Original), 13);
        assert_eq!(oc.total(), 18);
        let mut other = OriginCycles::default();
        other.add(CodeOrigin::DisaggLogic, 2);
        oc.merge(&other);
        assert_eq!(oc.total(), 20);
    }

    #[test]
    fn block_trace_critical_path() {
        let b = BlockTrace {
            warp_cycles: vec![10, 50, 20],
            ..Default::default()
        };
        assert_eq!(b.critical_warp_cycles(), 50);
        assert_eq!(b.total_warp_cycles(), 80);
    }

    #[test]
    fn grid_trace_geometry() {
        let g = GridTrace {
            id: 0,
            kernel: "k".into(),
            grid_dim: [4, 2, 1],
            block_dim: [32, 1, 1],
            origin: LaunchOrigin::Host,
            blocks: vec![],
        };
        assert_eq!(g.num_blocks(), 8);
        assert_eq!(g.threads_per_block(), 32);
    }

    #[test]
    fn trace_launch_counts() {
        let mk = |origin| GridTrace {
            id: 0,
            kernel: "k".into(),
            grid_dim: [1, 1, 1],
            block_dim: [1, 1, 1],
            origin,
            blocks: vec![],
        };
        let t = ExecutionTrace {
            grids: vec![
                mk(LaunchOrigin::Host),
                mk(LaunchOrigin::Device {
                    parent_grid: 0,
                    parent_block: 0,
                    issue_cycles: 5,
                }),
            ],
        };
        assert_eq!(t.device_launches(), 1);
        assert_eq!(t.host_launches(), 1);
    }
}
