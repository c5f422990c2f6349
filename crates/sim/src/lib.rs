//! # dp-sim
//!
//! A trace-driven GPU timing simulator. `dp-vm` executes transformed
//! CUDA-subset programs functionally and records per-block warp cycles,
//! per-origin cycle attribution, and launch events; this crate replays that
//! trace against a V100-flavoured hardware model ([`TimingParams`]) to
//! produce end-to-end times and the execution-time breakdown of the paper's
//! Fig. 10.
//!
//! The three launch-path phenomena the paper's optimizations target all
//! emerge from the model rather than being hard-coded per optimization:
//!
//! 1. many concurrent device launches queue behind the grid-management
//!    pipe (congestion → thresholding and aggregation help),
//! 2. small grids occupy few resident-block slots (underutilization →
//!    aggregation helps),
//! 3. per-block dispatch and per-block disaggregation instructions scale
//!    with block count (→ coarsening helps).

pub(crate) mod model;
pub(crate) mod params;

pub use model::{simulate, Breakdown, GridTiming, HostEvent, SimResult};
pub use params::TimingParams;
