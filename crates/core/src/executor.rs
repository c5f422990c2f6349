//! The runtime executor: a simulated GPU plus the KLAP-style runtime that
//! provisions aggregation buffer pools and performs grid-granularity
//! aggregated launches from the host.

use crate::error::Result;
use dp_sim::{simulate, HostEvent, SimResult, TimingParams};
use dp_transform::{BufferParam, TransformManifest};
use dp_vm::machine::{ExecLimits, Image, Machine, MachineStats};
use dp_vm::trace::ExecutionTrace;
use dp_vm::{ExecError, LaunchDim, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything a run produces: the functional trace, machine statistics, and
/// the host event sequence needed by the timing simulator.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Functional execution trace (per-block cycles, launches, origins).
    pub trace: ExecutionTrace,
    /// Machine statistics.
    pub stats: MachineStats,
    /// Host-side events in program order.
    pub host_events: Vec<HostEvent>,
}

impl RunReport {
    /// Replays the run against a hardware timing model.
    pub fn simulate(&self, params: &TimingParams) -> SimResult {
        simulate(&self.trace, &self.host_events, params)
    }
}

struct PendingHostAgg {
    agg_kernel: dp_frontend::Name,
    arg_ptrs: Vec<i64>,
    scan_ptr: i64,
    barr_ptr: i64,
    ctr_ptr: i64,
    maxb_ptr: i64,
}

/// A simulated GPU bound to one compiled program.
///
/// Mirrors the host-side API of a CUDA program: allocate device memory,
/// launch kernels, synchronize. Kernels transformed by the aggregation pass
/// automatically receive their hidden buffer parameters (allocated, zeroed,
/// and appended here), and grid-granularity sites get their aggregated
/// child launched from the host after synchronization — the role KLAP's
/// runtime library plays in the paper's artifact.
pub struct Executor {
    machine: Machine,
    manifest: Arc<TransformManifest>,
    max_threads_per_block: u64,
    host_events: Vec<HostEvent>,
    pending_host_agg: Vec<PendingHostAgg>,
    /// Each aggregation buffer's address and capacity in words, by its
    /// site's index in `manifest.agg_sites` and its parameter's index.
    buffer_cache: HashMap<(usize, usize), (i64, usize)>,
}

impl Executor {
    pub(crate) fn new(image: Arc<Image>, manifest: Arc<TransformManifest>) -> Self {
        let limits = ExecLimits::default();
        Executor {
            machine: Machine::from_image(image, limits),
            manifest,
            max_threads_per_block: limits.max_threads_per_block,
            host_events: Vec::new(),
            pending_host_agg: Vec::new(),
            buffer_cache: HashMap::new(),
        }
    }

    /// Allocates device memory (`words` words), returning its address.
    pub fn alloc(&mut self, words: usize) -> i64 {
        self.machine.alloc(words)
    }

    /// Allocates and initializes an integer array.
    pub fn alloc_i64s(&mut self, values: &[i64]) -> i64 {
        self.machine.alloc_i64s(values)
    }

    /// Allocates and initializes a float array.
    pub fn alloc_f64s(&mut self, values: &[f64]) -> i64 {
        self.machine.alloc_f64s(values)
    }

    /// Reads integers back from device memory.
    pub fn read_i64s(&self, ptr: i64, len: usize) -> Result<Vec<i64>> {
        Ok(self.machine.read_i64s(ptr, len)?)
    }

    /// Reads floats back from device memory.
    pub fn read_f64s(&self, ptr: i64, len: usize) -> Result<Vec<f64>> {
        Ok(self.machine.read_f64s(ptr, len)?)
    }

    /// Writes one integer word.
    pub fn write_i64(&mut self, ptr: i64, value: i64) -> Result<()> {
        Ok(self.machine.mem.write(ptr, Value::Int(value))?)
    }

    /// Fills `words` words with an integer value.
    pub fn fill_i64(&mut self, ptr: i64, words: usize, value: i64) -> Result<()> {
        Ok(self.machine.mem.fill(ptr, words, Value::Int(value))?)
    }

    /// Direct access to the underlying machine (advanced use).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Launches a kernel from the host. Aggregation buffer parameters are
    /// provisioned automatically for transformed parents.
    pub fn launch(
        &mut self,
        kernel: &str,
        grid: impl Into<LaunchDim>,
        block: impl Into<LaunchDim>,
        args: &[Value],
    ) -> Result<()> {
        let LaunchDim(g) = grid.into();
        let LaunchDim(b) = block.into();
        let mut full_args = args.to_vec();

        // The sites are borrowed from the shared manifest while `self`'s
        // machine is mutated, so the handle is cloned, not the sites.
        let manifest = Arc::clone(&self.manifest);
        let sites = manifest.agg_sites.iter().enumerate();
        let sites = sites.filter(|(_, site)| site.parent == kernel);
        // The buffers are sized from the launch's dimensions, which may come
        // off a socket: a launch the machine is going to refuse is refused
        // here, before anything is provisioned for it, and no size wraps.
        let refused = || {
            ExecError::new(format!(
                "cannot provision aggregation buffers for kernel `{kernel}` at grid {g:?}, \
                 block {b:?}"
            ))
        };
        let threads = dim_count(b).filter(|t| (1..=self.max_threads_per_block).contains(t));
        let counts = dim_count(g).zip(threads);
        for (site_idx, site) in sites {
            let (grid_blocks, block_threads) = counts.ok_or_else(refused)?;
            let mut arg_ptrs = Vec::new();
            let mut scan_ptr = 0;
            let mut barr_ptr = 0;
            let mut ctr_ptr = 0;
            let mut maxb_ptr = 0;
            for (param_idx, param) in site.buffer_params.iter().enumerate() {
                if *param == BufferParam::SlotsPerGroup {
                    let slots = site
                        .slots_per_group(grid_blocks, block_threads)
                        .and_then(|slots| i64::try_from(slots.max(1)).ok())
                        .ok_or_else(refused)?;
                    full_args.push(Value::Int(slots));
                    continue;
                }
                let words = site
                    .buffer_words(param, grid_blocks, block_threads)
                    .and_then(|words| usize::try_from(words).ok())
                    .ok_or_else(refused)?;
                let ptr = self.buffer((site_idx, param_idx), words)?;
                match param {
                    BufferParam::ArgArray { .. } => arg_ptrs.push(ptr),
                    BufferParam::GDimScanned => scan_ptr = ptr,
                    BufferParam::BDimArray => barr_ptr = ptr,
                    BufferParam::PackedCounter => ctr_ptr = ptr,
                    BufferParam::MaxBDim => maxb_ptr = ptr,
                    _ => {}
                }
                full_args.push(Value::Int(ptr));
            }
            if site.host_side_launch {
                self.pending_host_agg.push(PendingHostAgg {
                    agg_kernel: site.agg_kernel.clone(),
                    arg_ptrs,
                    scan_ptr,
                    barr_ptr,
                    ctr_ptr,
                    maxb_ptr,
                });
            }
        }

        let gid = self.machine.launch_host(kernel, g, b, &full_args)?;
        self.host_events.push(HostEvent::Launch(gid));
        Ok(())
    }

    /// Allocates (or reuses) and zeroes the aggregation buffer `key` names
    /// (see `buffer_cache`).
    fn buffer(&mut self, key: (usize, usize), words: usize) -> Result<i64> {
        let entry = self.buffer_cache.get(&key).copied();
        let ptr = match entry {
            Some((ptr, cap)) if cap >= words => ptr,
            _ => {
                let ptr = self.machine.alloc(words);
                self.buffer_cache.insert(key, (ptr, words));
                ptr
            }
        };
        self.machine.mem.fill(ptr, words, Value::Int(0))?;
        Ok(ptr)
    }

    /// Synchronizes with the device (`cudaDeviceSynchronize`): runs every
    /// pending grid to completion, then performs any deferred
    /// grid-granularity aggregated launches.
    pub fn sync(&mut self) -> Result<()> {
        self.machine.run_to_quiescence()?;
        self.host_events.push(HostEvent::Sync);
        let pending: Vec<PendingHostAgg> = self.pending_host_agg.drain(..).collect();
        for agg in pending {
            let packed = self.machine.mem.read(agg.ctr_ptr)?.as_int();
            let num_parents = packed >> 32;
            let total_blocks = packed & 0xFFFF_FFFF;
            if num_parents == 0 || total_blocks == 0 {
                continue;
            }
            let max_bdim = self.machine.mem.read(agg.maxb_ptr)?.as_int();
            let mut args: Vec<Value> = agg.arg_ptrs.iter().map(|&p| Value::Int(p)).collect();
            args.push(Value::Int(agg.scan_ptr));
            args.push(Value::Int(agg.barr_ptr));
            args.push(Value::Int(num_parents));
            let gid = self
                .machine
                .launch_host(&agg.agg_kernel, total_blocks, max_bdim, &args)?;
            self.host_events.push(HostEvent::AggLaunch(gid));
            self.machine.run_to_quiescence()?;
            self.host_events.push(HostEvent::Sync);
        }
        Ok(())
    }

    /// Machine statistics so far.
    pub fn stats(&self) -> MachineStats {
        self.machine.stats()
    }

    /// Finishes the run, returning the trace, stats, and host events.
    pub fn finish(mut self) -> RunReport {
        RunReport {
            trace: self.machine.take_trace(),
            stats: self.machine.stats(),
            host_events: self.host_events,
        }
    }
}

/// Blocks in a grid or threads in a block, counted as the machine counts
/// them; `None` for a negative dimension or a product past `i64`.
fn dim_count(d: [i64; 3]) -> Option<u64> {
    d.iter()
        .try_fold(1i64, |n, &x| n.checked_mul(x).filter(|_| x >= 0))
        .map(|n| n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::Compiler;
    use dp_transform::{AggConfig, AggGranularity, OptConfig};

    const SRC: &str = "\
__global__ void child(int* d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        atomicAdd(&d[i], 1);
    }
}
__global__ void parent(int* d, int* offsets, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int count = offsets[v + 1] - offsets[v];
        if (count > 0) {
            child<<<(count + 31) / 32, 32>>>(d, count);
        }
    }
}
";

    /// Runs SRC under a config; each parent thread v increments d[0..count).
    fn run(config: OptConfig) -> (Vec<i64>, RunReport) {
        let compiled = Compiler::new().config(config).compile(SRC).unwrap();
        let mut exec = compiled.executor();
        // 6 vertices with degrees 3, 0, 70, 1, 40, 5.
        let degrees = [3i64, 0, 70, 1, 40, 5];
        let mut offsets = vec![0i64];
        for d in degrees {
            offsets.push(offsets.last().unwrap() + d);
        }
        let max_degree = 70usize;
        let d = exec.alloc(max_degree);
        let offs = exec.alloc_i64s(&offsets);
        exec.launch(
            "parent",
            2,
            4,
            &[
                Value::Int(d),
                Value::Int(offs),
                Value::Int(degrees.len() as i64),
            ],
        )
        .unwrap();
        exec.sync().unwrap();
        let out = exec.read_i64s(d, max_degree).unwrap();
        (out, exec.finish())
    }

    fn expected() -> Vec<i64> {
        // Each vertex's child grid increments d[0..count), so d[i] ends up
        // counting the vertices whose degree exceeds i.
        let degrees = [3i64, 0, 70, 1, 40, 5];
        (0..70)
            .map(|i| degrees.iter().filter(|&&d| d > i).count() as i64)
            .collect()
    }

    #[test]
    fn plain_cdp_is_correct() {
        let (out, report) = run(OptConfig::none());
        assert_eq!(out, expected());
        // 5 launching vertices (one has count 0).
        assert_eq!(report.stats.device_launches, 5);
    }

    #[test]
    fn thresholding_is_correct_and_reduces_launches() {
        let (out, report) = run(OptConfig::none().threshold(32));
        assert_eq!(out, expected());
        // Only counts 70 and 40 reach the threshold.
        assert_eq!(report.stats.device_launches, 2);
    }

    #[test]
    fn coarsening_is_correct() {
        let (out, _) = run(OptConfig::none().coarsen_factor(2));
        assert_eq!(out, expected());
    }

    #[test]
    fn aggregation_block_granularity_is_correct() {
        let (out, report) =
            run(OptConfig::none().aggregation(AggConfig::new(AggGranularity::Block)));
        assert_eq!(out, expected());
        // One aggregated launch per parent block (both blocks have
        // participants: block 0 hosts v0..3, block 1 hosts v4..5).
        assert_eq!(report.stats.device_launches, 2);
    }

    #[test]
    fn aggregation_warp_granularity_is_correct() {
        let (out, _) = run(OptConfig::none().aggregation(AggConfig::new(AggGranularity::Warp)));
        assert_eq!(out, expected());
    }

    #[test]
    fn aggregation_multiblock_granularity_is_correct() {
        let (out, report) =
            run(OptConfig::none().aggregation(AggConfig::new(AggGranularity::MultiBlock(2))));
        assert_eq!(out, expected());
        // Both parent blocks fall into one group: a single aggregated launch.
        assert_eq!(report.stats.device_launches, 1);
    }

    #[test]
    fn aggregation_grid_granularity_launches_from_host() {
        let (out, report) =
            run(OptConfig::none().aggregation(AggConfig::new(AggGranularity::Grid)));
        assert_eq!(out, expected());
        assert_eq!(report.stats.device_launches, 0);
        assert!(report
            .host_events
            .iter()
            .any(|e| matches!(e, HostEvent::AggLaunch(_))));
    }

    #[test]
    fn aggregation_threshold_falls_back_to_direct_launches() {
        // Threshold of 100 participants can never be met by 4-thread blocks:
        // every child grid is launched directly.
        let (out, report) = run(OptConfig::none().aggregation(AggConfig {
            granularity: AggGranularity::Block,
            agg_threshold: Some(100),
        }));
        assert_eq!(out, expected());
        assert_eq!(report.stats.device_launches, 5);
    }

    #[test]
    fn full_pipeline_is_correct() {
        let (out, report) = run(OptConfig::none()
            .threshold(32)
            .coarsen_factor(4)
            .aggregation(AggConfig::new(AggGranularity::MultiBlock(2))));
        assert_eq!(out, expected());
        // Two surviving launches aggregated into one.
        assert_eq!(report.stats.device_launches, 1);
    }

    #[test]
    fn report_simulates() {
        let (_, report) = run(OptConfig::none());
        let sim = report.simulate(&TimingParams::default());
        assert!(sim.total_us > 0.0);
        assert_eq!(sim.device_launches, 5);
        assert_eq!(sim.host_launches, 1);
    }

    #[test]
    fn repeated_launches_reuse_buffers() {
        let compiled = Compiler::new()
            .config(OptConfig::none().aggregation(AggConfig::new(AggGranularity::Block)))
            .compile(SRC)
            .unwrap();
        let mut exec = compiled.executor();
        let d = exec.alloc(8);
        let offs = exec.alloc_i64s(&[0, 4, 8]);
        for _ in 0..3 {
            exec.launch(
                "parent",
                1,
                2,
                &[Value::Int(d), Value::Int(offs), Value::Int(2)],
            )
            .unwrap();
            exec.sync().unwrap();
        }
        let out = exec.read_i64s(d, 8).unwrap();
        // Both vertices have degree 4, so each round adds 2 to d[0..4).
        assert_eq!(
            out,
            vec![6, 6, 6, 6, 0, 0, 0, 0],
            "three rounds of increments"
        );
        let mem_used = exec.machine_mut().mem.allocated_words();
        assert!(
            mem_used < 10_000,
            "buffers must be reused: {mem_used} words"
        );
    }
}
