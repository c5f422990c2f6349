//! # dp-transform
//!
//! The three dynamic-parallelism optimizations of the paper, implemented as
//! independent source-to-source passes over the `dp-frontend` AST:
//!
//! - [`thresholding`] — serialize small child grids in the parent thread
//!   (paper Section III),
//! - [`coarsening`] — one coarsened child block runs several original
//!   blocks (Section IV),
//! - [`aggregation`] — combine child grids across parent threads at warp,
//!   block, **multi-block** (this paper's contribution), or grid
//!   granularity (Section V), with an optional aggregation threshold
//!   (Section V-B).
//!
//! [`apply_pipeline`] composes them in the paper's default order (Fig. 8a).
//! Each pass records what it did (and what it declined, with reasons) in a
//! [`TransformManifest`]; the aggregation metadata tells the runtime how to
//! provision buffer pools, playing the role of KLAP's runtime library.

pub mod aggregation;
pub mod coarsening;
pub(crate) mod config;
pub(crate) mod manifest;
pub(crate) mod pipeline;
pub mod thresholding;
pub(crate) mod util;

pub use config::{AggConfig, AggGranularity, OptConfig};
pub use manifest::{BufferParam, TransformManifest};
pub use pipeline::apply_pipeline;
