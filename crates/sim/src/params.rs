//! Hardware timing parameters (V100-flavoured defaults).

/// Timing model parameters.
///
/// Defaults approximate an NVIDIA V100 (the paper's evaluation GPU): 80
/// SMs, 2048 threads and 32 blocks per SM, ~1.38 GHz. The launch-path
/// constants are calibrated so the *relative* effects the paper reports
/// (launch congestion under many small grids, host round-trip cost of
/// grid-granularity aggregation) appear at comparable magnitudes; absolute
/// times are simulator time, not wall-clock measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingParams {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Warp-instruction issue slots per SM per cycle (schedulers).
    pub issue_slots_per_sm: f64,
    /// Latency of a host-side kernel launch (µs).
    pub host_launch_latency_us: f64,
    /// Host↔device round-trip cost charged at each synchronization (µs).
    pub host_sync_overhead_us: f64,
    /// Service time of the grid-management unit per device-side launch
    /// (µs). Concurrent device launches queue behind this single pipe —
    /// the congestion effect central to the paper.
    pub device_launch_pipe_us: f64,
    /// Per-block dispatch cost of the work distribution engine (µs).
    pub block_dispatch_us: f64,
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams {
            num_sms: 80,
            max_blocks_per_sm: 32,
            max_threads_per_sm: 2048,
            clock_ghz: 1.38,
            issue_slots_per_sm: 4.0,
            host_launch_latency_us: 6.5,
            host_sync_overhead_us: 4.0,
            device_launch_pipe_us: 1.1,
            block_dispatch_us: 0.02,
        }
    }
}

impl TimingParams {
    /// Converts device cycles to microseconds.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.clock_ghz * 1000.0)
    }

    /// Total block slots on the device (each slot hosts
    /// `max_threads_per_sm / max_blocks_per_sm` threads).
    pub fn total_block_slots(&self) -> u64 {
        self.num_sms as u64 * self.max_blocks_per_sm as u64
    }

    /// Threads per block slot.
    pub(crate) fn threads_per_slot(&self) -> u64 {
        (self.max_threads_per_sm / self.max_blocks_per_sm) as u64
    }

    /// Slots a block of `threads` threads occupies.
    pub fn slots_for_block(&self, threads: u64) -> u64 {
        threads.div_ceil(self.threads_per_slot()).max(1)
    }

    /// Aggregate device issue throughput in cycles per µs (used to convert
    /// work-cycle totals into device-time for the breakdown bars).
    pub fn device_throughput_cycles_per_us(&self) -> f64 {
        self.num_sms as f64 * self.issue_slots_per_sm * self.clock_ghz * 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_conversion() {
        let p = TimingParams {
            clock_ghz: 1.0,
            ..Default::default()
        };
        assert_eq!(p.cycles_to_us(1000), 1.0);
    }

    #[test]
    fn slot_math() {
        let p = TimingParams::default();
        assert_eq!(p.threads_per_slot(), 64);
        assert_eq!(p.slots_for_block(1), 1);
        assert_eq!(p.slots_for_block(64), 1);
        assert_eq!(p.slots_for_block(65), 2);
        assert_eq!(p.slots_for_block(1024), 16);
        assert_eq!(p.total_block_slots(), 80 * 32);
    }

    #[test]
    fn defaults_are_v100_scale() {
        let p = TimingParams::default();
        assert_eq!(p.num_sms, 80);
        assert!(p.device_launch_pipe_us > p.block_dispatch_us);
        assert!(p.host_launch_latency_us > p.device_launch_pipe_us);
    }
}
