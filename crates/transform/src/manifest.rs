//! Transformation manifest: metadata the runtime needs to execute
//! transformed code, plus per-site diagnostics.
//!
//! The paper's artifact pairs its Clang passes with a small runtime library
//! that pre-allocates the aggregation buffer pool. Our equivalent is this
//! manifest: the aggregation pass records, for every transformed parent
//! kernel, which hidden parameters it appended and how large each buffer
//! must be as a function of the parent launch configuration. `dp-core`'s
//! executor consumes it.

use crate::config::AggGranularity;
use dp_frontend::ast::{Name, Type};
use dp_frontend::Span;
use std::fmt;

/// A diagnostic emitted by a pass when it declines to transform a site.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which pass emitted it.
    pub(crate) pass: &'static str,
    /// The function containing the site.
    pub(crate) function: Name,
    /// Human-readable reason.
    pub message: String,
    /// Source location of the site.
    pub(crate) span: Span,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] `{}`: {} (at {})",
            self.pass, self.function, self.message, self.span
        )
    }
}

/// One hidden parameter appended to a transformed parent kernel by the
/// aggregation pass, in appended order.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferParam {
    /// Per-parent argument array for original child parameter `index`,
    /// one element (word) per parent slot.
    ArgArray {
        /// Index of the original child parameter.
        index: usize,
        /// Element type of the array.
        ty: Type,
    },
    /// Scanned grid-dimension array (one `int` per parent slot).
    GDimScanned,
    /// Block-dimension array (one `int` per parent slot).
    BDimArray,
    /// Packed 64-bit `(numParents, sumGDim)` counter (one per group).
    PackedCounter,
    /// Maximum block dimension (one `int` per group).
    MaxBDim,
    /// Finished-blocks counter used by multi-block granularity
    /// (one `int` per group).
    FinishedCounter,
    /// Participating-parents counter used by the aggregation threshold
    /// (one `int` per group).
    ParticipantCounter,
    /// Scalar `int`: number of parent slots per group.
    SlotsPerGroup,
}

/// Metadata for one aggregated launch site.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSiteMeta {
    /// Parent kernel that contains the aggregation logic.
    pub parent: Name,
    /// Original child kernel name.
    pub(crate) child: Name,
    /// Generated aggregated child kernel name.
    pub agg_kernel: Name,
    /// Aggregation granularity.
    pub(crate) granularity: AggGranularity,
    /// Hidden parameters appended to the parent, in order.
    pub buffer_params: Vec<BufferParam>,
    /// Whether the aggregated launch is performed by the host after the
    /// parent grid completes (grid granularity).
    pub host_side_launch: bool,
}

impl AggSiteMeta {
    /// Number of groups for a parent launch with `grid_blocks` blocks of
    /// `block_threads` threads; `None` when it does not fit a `u64` (the
    /// dimensions may come off a socket).
    pub(crate) fn group_count(&self, grid_blocks: u64, block_threads: u64) -> Option<u64> {
        match self.granularity {
            AggGranularity::Warp => grid_blocks.checked_mul(block_threads.div_ceil(32)),
            AggGranularity::Block => Some(grid_blocks),
            AggGranularity::MultiBlock(n) => Some(grid_blocks.div_ceil(n as u64)),
            AggGranularity::Grid => Some(1),
        }
    }

    /// Parent-thread slots per group for the same launch, checked likewise.
    pub fn slots_per_group(&self, grid_blocks: u64, block_threads: u64) -> Option<u64> {
        match self.granularity {
            AggGranularity::Warp => Some(32),
            AggGranularity::Block => Some(block_threads),
            AggGranularity::MultiBlock(n) => block_threads.checked_mul(n as u64),
            AggGranularity::Grid => grid_blocks.checked_mul(block_threads),
        }
    }

    /// Words of device memory the runtime provisions for hidden parameter
    /// `param` at the same launch (none for a scalar): per-slot arrays are
    /// groups × slots, per-group counters one word a group, and an empty
    /// launch still gets one group of one slot.
    pub fn buffer_words(
        &self,
        param: &BufferParam,
        grid_blocks: u64,
        block_threads: u64,
    ) -> Option<u64> {
        let groups = self.group_count(grid_blocks, block_threads)?.max(1);
        match param {
            BufferParam::ArgArray { .. } | BufferParam::GDimScanned | BufferParam::BDimArray => {
                groups.checked_mul(self.slots_per_group(grid_blocks, block_threads)?.max(1))
            }
            BufferParam::PackedCounter
            | BufferParam::MaxBDim
            | BufferParam::FinishedCounter
            | BufferParam::ParticipantCounter => Some(groups),
            BufferParam::SlotsPerGroup => Some(0),
        }
    }
}

/// Metadata for one thresholded launch site.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdSiteMeta {
    /// Function containing the launch.
    pub(crate) parent: Name,
    /// Child kernel.
    pub(crate) child: Name,
    /// Generated serial device function.
    pub(crate) serial_fn: Name,
}

/// Metadata for one coarsened child kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct CoarsenSiteMeta {
    /// The coarsened child kernel.
    pub(crate) child: Name,
    /// Coarsening factor applied at its launch sites.
    pub(crate) factor: i64,
}

/// Everything the passes report back to the driver.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransformManifest {
    /// Aggregated launch sites.
    pub agg_sites: Vec<AggSiteMeta>,
    /// Thresholded launch sites.
    pub threshold_sites: Vec<ThresholdSiteMeta>,
    /// Coarsened child kernels.
    pub coarsen_sites: Vec<CoarsenSiteMeta>,
    /// Sites each pass declined, with reasons.
    pub diagnostics: Vec<Diagnostic>,
}

impl TransformManifest {
    /// Creates an empty manifest.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Merges another manifest (used by the pipeline driver).
    pub fn merge(&mut self, other: TransformManifest) {
        self.agg_sites.extend(other.agg_sites);
        self.threshold_sites.extend(other.threshold_sites);
        self.coarsen_sites.extend(other.coarsen_sites);
        self.diagnostics.extend(other.diagnostics);
    }

    /// Aggregation metadata for a parent kernel, if any.
    #[allow(dead_code, reason = "ROADMAP item 20 gives it a caller")]
    pub(crate) fn agg_site_for_parent(&self, parent: &str) -> Option<&AggSiteMeta> {
        self.agg_sites.iter().find(|s| s.parent == parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(granularity: AggGranularity) -> AggSiteMeta {
        AggSiteMeta {
            parent: "p".into(),
            child: "c".into(),
            agg_kernel: "c_agg".into(),
            granularity,
            buffer_params: vec![],
            host_side_launch: granularity == AggGranularity::Grid,
        }
    }

    #[test]
    fn group_counts_by_granularity() {
        assert_eq!(meta(AggGranularity::Warp).group_count(4, 96), Some(4 * 3));
        assert_eq!(meta(AggGranularity::Warp).group_count(4, 100), Some(4 * 4));
        assert_eq!(meta(AggGranularity::Block).group_count(10, 256), Some(10));
        assert_eq!(
            meta(AggGranularity::MultiBlock(4)).group_count(10, 256),
            Some(3)
        );
        assert_eq!(meta(AggGranularity::Grid).group_count(10, 256), Some(1));
    }

    #[test]
    fn slots_by_granularity() {
        assert_eq!(meta(AggGranularity::Warp).slots_per_group(4, 96), Some(32));
        assert_eq!(meta(AggGranularity::Block).slots_per_group(4, 96), Some(96));
        assert_eq!(
            meta(AggGranularity::MultiBlock(4)).slots_per_group(10, 256),
            Some(1024)
        );
        assert_eq!(
            meta(AggGranularity::Grid).slots_per_group(10, 256),
            Some(2560)
        );
    }

    #[test]
    fn buffer_words_are_checked() {
        let per_slot = BufferParam::GDimScanned;
        let per_group = BufferParam::PackedCounter;
        let block = meta(AggGranularity::Block);
        assert_eq!(block.buffer_words(&per_slot, 10, 256), Some(2560));
        assert_eq!(block.buffer_words(&per_group, 10, 256), Some(10));
        assert_eq!(
            block.buffer_words(&BufferParam::SlotsPerGroup, 10, 256),
            Some(0)
        );
        // An empty launch is provisioned as one group of one slot.
        assert_eq!(block.buffer_words(&per_slot, 0, 0), Some(1));
        for granularity in [
            AggGranularity::Warp,
            AggGranularity::Block,
            AggGranularity::MultiBlock(3),
            AggGranularity::Grid,
        ] {
            let site = meta(granularity);
            assert_eq!(
                site.buffer_words(&per_slot, 1 << 40, 1 << 40),
                None,
                "{granularity}"
            );
        }
    }

    #[test]
    fn diagnostics_render() {
        let d = Diagnostic {
            pass: "thresholding",
            function: "parent".into(),
            message: "uses `__syncthreads` in `child`".into(),
            span: Span::SYNTH,
        };
        let s = d.to_string();
        assert!(s.contains("thresholding"));
        assert!(s.contains("parent"));
    }

    #[test]
    fn manifest_merge_concatenates() {
        let mut a = TransformManifest::new();
        a.agg_sites.push(meta(AggGranularity::Block));
        let mut b = TransformManifest::new();
        b.agg_sites.push(meta(AggGranularity::Grid));
        a.merge(b);
        assert_eq!(a.agg_sites.len(), 2);
        assert!(a.agg_site_for_parent("p").is_some());
    }
}
