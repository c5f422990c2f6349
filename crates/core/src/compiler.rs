//! The end-to-end compiler: CUDA-subset source → optimization passes →
//! transformed source → executable module.
//!
//! A compiled program is its outputs — primitive bytecode, manifest and
//! transformed text. The AST is only how the compiler gets there:
//! [`Compiler::compile`] frees it before returning, while its nodes are
//! still in cache, rather than whenever the last handle to the [`Compiled`]
//! goes (in a daemon, when the cache evicts the entry, on some later
//! request's path). A caller that needs the tree asks
//! [`Compiler::transform`] for it.

use crate::error::Result;
use crate::executor::Executor;
use dp_frontend::ast::Program;
use dp_frontend::printer::print_program;
use dp_transform::{apply_pipeline, OptConfig, TransformManifest};
use dp_vm::bytecode::{CostModel, Module};
use dp_vm::lower::{compile_program_unfused, fuse_module};
use dp_vm::machine::{DispatchMode, Image};
use std::sync::{Arc, OnceLock};

/// Compiles CUDA-subset source with a chosen optimization configuration.
///
/// # Examples
///
/// ```
/// use dp_core::{Compiler, OptConfig};
/// let compiled = Compiler::new()
///     .config(OptConfig::none().threshold(64))
///     .compile(
///         "__global__ void c(int* d, int n) { if (blockIdx.x < n) { d[blockIdx.x] = n; } }\n\
///          __global__ void p(int* d, int n) { c<<<(n + 31) / 32, 32>>>(d, n); }",
///     )
///     .unwrap();
/// assert!(compiled.transformed_source().contains("_THRESHOLD"));
/// ```
#[derive(Debug, Clone)]
pub struct Compiler {
    config: OptConfig,
    cost: CostModel,
    fuse: bool,
    dispatch: DispatchMode,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler::new()
    }
}

impl Compiler {
    /// A compiler with no optimizations (plain CDP) and default cost model.
    pub fn new() -> Self {
        Compiler {
            config: OptConfig::none(),
            cost: CostModel::default(),
            fuse: true,
            dispatch: DispatchMode::default(),
        }
    }

    /// Sets the optimization configuration.
    pub fn config(mut self, config: OptConfig) -> Self {
        self.config = config;
        self
    }

    /// Enables or disables the VM's superinstruction-fusion pass (on by
    /// default). Fusion runs when a program's first executor builds its
    /// image, not in [`Compiler::compile`], so it only decides what that
    /// image dispatches. It is accounting-transparent — traces, statistics,
    /// and origin attribution are identical either way — so disabling it is
    /// only useful as the baseline when benchmarking the interpreter itself.
    pub fn fusion(mut self, on: bool) -> Self {
        self.fuse = on;
        self
    }

    /// Overrides the VM instruction cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Selects the VM dispatch loop (threaded by default). Both modes are
    /// bit-identical in results and accounting; `Match` exists for
    /// differential testing and as the interpreter benchmark baseline.
    pub fn dispatch(mut self, mode: DispatchMode) -> Self {
        self.dispatch = mode;
        self
    }

    /// Parses `source` and runs the configured passes over it: the
    /// transformed tree (with origin tags) and what the passes did.
    ///
    /// # Errors
    ///
    /// Returns parse errors from the frontend.
    pub fn transform(&self, source: &str) -> Result<(Program, TransformManifest)> {
        let mut program = dp_frontend::parse(source)?;
        let manifest = apply_pipeline(&mut program, &self.config);
        Ok((program, manifest))
    }

    /// Transforms, pretty-prints, and lowers `source` to primitive bytecode.
    /// The tree is freed before this returns; [`Compiler::transform`] is the
    /// way to keep it. Nothing here fuses: see [`Compiled`].
    ///
    /// # Errors
    ///
    /// Returns parse errors from the frontend or lowering errors if the
    /// (transformed) program falls outside the executable subset.
    pub fn compile(&self, source: &str) -> Result<Compiled> {
        let (program, manifest) = self.transform(source)?;
        let transformed_source = print_program(&program);
        let module = compile_program_unfused(&program)?;
        drop(program);
        Ok(Compiled {
            transformed_source,
            manifest,
            module,
            cost: self.cost.clone(),
            fuse: self.fuse,
            dispatch: self.dispatch,
            loaded: OnceLock::new(),
        })
    }
}

/// A [`Compiled`] shared across threads.
///
/// A compiled program is immutable once built — bytecode, manifest,
/// transformed text and cost model; its one interior cell is the shared
/// executor state, written once behind a `OnceLock` — so one compilation
/// can fan out to any number of worker threads, each creating its own
/// [`Executor`] via [`Compiled::executor`]. The sweep engine compiles each
/// distinct (source, configuration) pair once and shares the handle across
/// its worker pool.
pub type SharedCompiled = std::sync::Arc<Compiled>;

// `Compiled` must stay shareable across threads (the sweep engine's worker
// pool depends on it); adding an `Rc`/`RefCell` anywhere in its tree breaks
// this assertion at compile time rather than at a distant use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Compiled>();
};

/// A compiled program: primitive bytecode, manifest, and transformed source.
/// It holds no AST; [`Compiler::transform`] gives the tree to a caller that
/// needs it.
///
/// What an executor runs — the fused bytecode with its dispatch tables (an
/// [`Image`]) and the manifest its launches read — is built by the first
/// [`Compiled::executor`] call and shared by every executor after it. It is
/// not built by [`Compiler::compile`]: fusion and the tables together cost
/// about a fifth of a compile, and a program that is only transformed, or
/// never run, would pay for them for nothing.
#[derive(Debug, Clone)]
pub struct Compiled {
    transformed_source: String,
    manifest: TransformManifest,
    module: Module,
    cost: CostModel,
    fuse: bool,
    dispatch: DispatchMode,
    loaded: OnceLock<Loaded>,
}

/// The read-only state every executor of one [`Compiled`] shares.
#[derive(Debug, Clone)]
struct Loaded {
    image: Arc<Image>,
    manifest: Arc<TransformManifest>,
}

impl Compiled {
    /// The transformed source text (what the paper's source-to-source
    /// compiler would write to the output `.cu` file).
    pub fn transformed_source(&self) -> &str {
        &self.transformed_source
    }

    /// What the passes did (and declined to do).
    pub fn manifest(&self) -> &TransformManifest {
        &self.manifest
    }

    /// The compiled bytecode module: primitive instructions only, as
    /// lowered. What executors run is [`fuse_module`] of it (unless
    /// [`Compiler::fusion`] turned fusion off), made by the first
    /// [`Compiled::executor`].
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Creates a fresh executor (simulated GPU) for this program,
    /// inheriting the compiler's dispatch mode. The first call fuses the
    /// bytecode, builds the program's [`Image`] of it and shares it, with
    /// the manifest, by `Arc`; every executor after it copies, fuses and
    /// rebuilds nothing of the program, and allocates only its own device
    /// state.
    pub fn executor(&self) -> Executor {
        let loaded = self.loaded.get_or_init(|| {
            let module = if self.fuse {
                fuse_module(&self.module)
            } else {
                self.module.clone()
            };
            Loaded {
                image: Arc::new(Image::new(module, self.cost.clone())),
                manifest: Arc::new(self.manifest.clone()),
            }
        });
        let mut exec = Executor::new(Arc::clone(&loaded.image), Arc::clone(&loaded.manifest));
        exec.machine_mut().set_dispatch(self.dispatch);
        exec
    }

    /// Wraps this compilation in a thread-shareable handle.
    pub fn into_shared(self) -> SharedCompiled {
        std::sync::Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_transform::{AggConfig, AggGranularity};
    use dp_vm::Value;

    const SRC: &str = "\
__global__ void child(int* d, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        d[i] = d[i] + 1;
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

    #[test]
    fn compiles_all_configurations() {
        for config in [
            OptConfig::none(),
            OptConfig::none().threshold(16),
            OptConfig::none().coarsen_factor(2),
            OptConfig::none().aggregation(AggConfig::new(AggGranularity::Block)),
            OptConfig::all(),
        ] {
            let compiled = Compiler::new().config(config).compile(SRC).unwrap();
            assert!(compiled.module().by_name("parent").is_some());
            // Transformed source must itself re-parse (source-to-source).
            dp_frontend::parse(compiled.transformed_source()).unwrap();
        }
    }

    #[test]
    fn parse_errors_propagate() {
        let err = Compiler::new().compile("__global__ void k( {").unwrap_err();
        assert!(matches!(err, crate::error::Error::Parse(_)));
    }

    /// `compile` keeps primitive bytecode and the first executor fuses it:
    /// the same kernel run under the reference loop, whose `ops` counts one
    /// per table slot, dispatches fewer slots with fusion on and computes
    /// and charges exactly the same.
    #[test]
    fn the_first_executor_runs_fused_bytecode() {
        let run = |compiler: Compiler| {
            let compiled = compiler
                .config(OptConfig::all())
                .dispatch(DispatchMode::Match)
                .compile(SRC)
                .unwrap();
            assert!(compiled
                .module()
                .functions
                .iter()
                .all(|f| f.code.iter().all(|i| i.width() == 1)));
            let mut exec = compiled.executor();
            let d = exec.alloc(64);
            let offsets = exec.alloc_i64s(&[0, 5, 5, 17, 40, 64]);
            let args = [Value::Int(d), Value::Int(offsets), Value::Int(5)];
            exec.launch("parent", 1, 32, &args).unwrap();
            exec.sync().unwrap();
            let out = exec.read_i64s(d, 64).unwrap();
            let stats = exec.stats();
            (out, stats, exec.machine_mut().dispatch_profile().ops)
        };
        let (fused_out, fused_stats, fused_ops) = run(Compiler::new());
        let (out, stats, ops) = run(Compiler::new().fusion(false));
        assert_eq!(fused_out, out);
        assert!(out.iter().any(|&v| v > 0));
        assert_eq!(fused_stats, stats);
        assert!(fused_ops < ops, "fused {fused_ops} slots, unfused {ops}");
    }

    #[test]
    fn manifest_reflects_configuration() {
        let compiled = Compiler::new()
            .config(OptConfig::all())
            .compile(SRC)
            .unwrap();
        let m = compiled.manifest();
        assert_eq!(m.threshold_sites.len(), 1);
        assert_eq!(m.coarsen_sites.len(), 1);
        assert_eq!(m.agg_sites.len(), 1);
    }
}
