//! The seven benchmarks of the paper's evaluation (Table I), each with a
//! CDP source, a No-CDP source, and a shared host driver.
//!
//! | benchmark | nested parallelism | origin |
//! |---|---|---|
//! | [`bfs`]  | per frontier vertex → per neighbour | SHOC |
//! | [`bt`]   | per Bézier line → per tessellation point | CUDA samples |
//! | [`mstf`] | per vertex → per edge (Borůvka find) | LonestarGPU |
//! | [`mstv`] | per vertex → per edge (verify) | LonestarGPU |
//! | [`sp`]   | per clause/variable → per literal/occurrence | LonestarGPU |
//! | [`sssp`] | per frontier vertex → per neighbour | LonestarGPU |
//! | [`tc`]   | per vertex → per neighbour (intersection) | HPEC'18 |
//!
//! Both sources of a benchmark define the *same* kernel names and host
//! protocol, so one driver runs either; the CDP source is additionally the
//! input to the optimization passes.

pub mod bfs;
pub mod bt;
pub mod mstf;
pub mod mstv;
pub mod sp;
pub mod sssp;
pub mod tc;

use crate::datasets::bezier::BezierLines;
use crate::datasets::csr::CsrGraph;
use crate::datasets::ksat::KSatFormula;
use dp_core::{Compiler, Executor, OptConfig, Result, RunReport};

/// Input for one benchmark run.
#[derive(Debug, Clone)]
pub enum BenchInput {
    /// A CSR graph (BFS, SSSP, MSTF, MSTV, TC).
    Graph(CsrGraph),
    /// A k-SAT formula (SP).
    Sat(KSatFormula),
    /// Bézier lines (BT).
    Bezier(BezierLines),
}

/// The three shapes of input: what a benchmark reads and a dataset holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// A CSR graph.
    Graph,
    /// A k-SAT formula.
    Sat,
    /// Bézier lines.
    Bezier,
}

impl std::fmt::Display for InputKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InputKind::Graph => "a graph",
            InputKind::Sat => "a SAT formula",
            InputKind::Bezier => "Bézier lines",
        })
    }
}

impl BenchInput {
    /// Which shape this input is.
    pub(crate) fn kind(&self) -> InputKind {
        match self {
            BenchInput::Graph(_) => InputKind::Graph,
            BenchInput::Sat(_) => InputKind::Sat,
            BenchInput::Bezier(_) => InputKind::Bezier,
        }
    }

    /// The graph, if this input is one.
    ///
    /// # Panics
    ///
    /// Panics if the input is not a graph (driver/input mismatch is a bug).
    pub(crate) fn graph(&self) -> &CsrGraph {
        match self {
            BenchInput::Graph(g) => g,
            other => panic!("benchmark expected a graph, got {}", other.kind()),
        }
    }

    /// The SAT formula, if this input is one.
    ///
    /// # Panics
    ///
    /// Panics if the input is not a formula.
    pub(crate) fn sat(&self) -> &KSatFormula {
        match self {
            BenchInput::Sat(f) => f,
            other => panic!("benchmark expected a SAT formula, got {}", other.kind()),
        }
    }

    /// The Bézier lines, if this input is one.
    ///
    /// # Panics
    ///
    /// Panics if the input is not Bézier lines.
    pub(crate) fn bezier(&self) -> &BezierLines {
        match self {
            BenchInput::Bezier(b) => b,
            other => panic!("benchmark expected Bézier lines, got {}", other.kind()),
        }
    }
}

/// Comparable output of a benchmark run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchOutput {
    /// Integer results (levels, distances, counts, …).
    pub ints: Vec<i64>,
    /// Float results (positions, marginals, …).
    pub floats: Vec<f64>,
}

impl BenchOutput {
    /// Whether two outputs agree, with a relative/absolute tolerance on the
    /// float part (atomic float reductions reassociate across variants).
    pub fn approx_eq(&self, other: &BenchOutput, tol: f64) -> bool {
        if self.ints != other.ints || self.floats.len() != other.floats.len() {
            return false;
        }
        self.floats
            .iter()
            .zip(&other.floats)
            .all(|(a, b)| (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs())))
    }
}

/// One of the paper's benchmarks.
pub trait Benchmark: Send + Sync {
    /// Short name as used in the paper ("BFS", "BT", …).
    fn name(&self) -> &'static str;
    /// CUDA-subset source using dynamic parallelism.
    fn cdp_source(&self) -> &'static str;
    /// CUDA-subset source with the nested work serialized in the parent.
    fn no_cdp_source(&self) -> &'static str;
    /// Host driver: uploads the input, runs the kernels to completion, and
    /// returns the comparable output.
    fn run(&self, exec: &mut Executor, input: &BenchInput) -> Result<BenchOutput>;
}

/// Which code version to run (paper Fig. 9 series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Variant {
    /// The original non-CDP code.
    NoCdp,
    /// The CDP code, transformed with the given configuration
    /// (`OptConfig::none()` is plain CDP).
    Cdp(OptConfig),
}

impl Variant {
    /// Paper-style label.
    pub fn label(&self) -> String {
        match self {
            Variant::NoCdp => "No CDP".to_string(),
            Variant::Cdp(c) => c.label(),
        }
    }

    /// The source of `bench` this variant compiles, and the configuration
    /// it compiles it under.
    pub fn program(&self, bench: &dyn Benchmark) -> (&'static str, OptConfig) {
        match *self {
            Variant::NoCdp => (bench.no_cdp_source(), OptConfig::none()),
            Variant::Cdp(config) => (bench.cdp_source(), config),
        }
    }
}

/// Output and trace of one variant run.
#[derive(Debug, Clone)]
pub struct VariantRun {
    /// Functional output (for verification).
    pub output: BenchOutput,
    /// Trace + host events (for timing).
    pub report: RunReport,
}

/// Compiles and runs one benchmark variant on an input.
pub fn run_variant(
    bench: &dyn Benchmark,
    variant: Variant,
    input: &BenchInput,
) -> Result<VariantRun> {
    let (source, config) = variant.program(bench);
    let compiled = Compiler::new().config(config).compile(source)?;
    let mut exec = compiled.executor();
    let output = bench.run(&mut exec, input)?;
    Ok(VariantRun {
        output,
        report: exec.finish(),
    })
}

/// All seven benchmarks.
pub fn all_benchmarks() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(bfs::Bfs),
        Box::new(bt::Bt),
        Box::new(mstf::Mstf),
        Box::new(mstv::Mstv),
        Box::new(sp::Sp),
        Box::new(sssp::Sssp),
        Box::new(tc::Tc),
    ]
}

/// The benchmark the paper calls `name`.
pub fn benchmark_by_name(name: &str) -> Option<Box<dyn Benchmark>> {
    all_benchmarks().into_iter().find(|b| b.name() == name)
}

/// Uploads a CSR graph, returning `(offsets, edges, weights)` pointers.
pub(crate) fn upload_graph(exec: &mut Executor, g: &CsrGraph) -> (i64, i64, i64) {
    let offsets = exec.alloc_i64s(&g.offsets);
    let edges = exec.alloc_i64s(&g.edges);
    let weights = exec.alloc_i64s(&g.weights);
    (offsets, edges, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_comparison() {
        let a = BenchOutput {
            ints: vec![1, 2],
            floats: vec![1.0, 2.0],
        };
        let mut b = a.clone();
        assert!(a.approx_eq(&b, 1e-9));
        b.floats[0] += 1e-12;
        assert!(a.approx_eq(&b, 1e-9));
        b.floats[0] += 1.0;
        assert!(!a.approx_eq(&b, 1e-9));
        b = a.clone();
        b.ints[0] = 9;
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn variant_labels() {
        assert_eq!(Variant::NoCdp.label(), "No CDP");
        assert_eq!(Variant::Cdp(OptConfig::none()).label(), "CDP");
        assert_eq!(Variant::Cdp(OptConfig::all()).label(), "CDP+T+C+A");
    }

    #[test]
    fn registry_has_seven_benchmarks() {
        let names: Vec<&str> = all_benchmarks().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["BFS", "BT", "MSTF", "MSTV", "SP", "SSSP", "TC"]);
        assert_eq!(benchmark_by_name("SP").map(|b| b.name()), Some("SP"));
        assert!(benchmark_by_name("sp").is_none());
    }

    #[test]
    #[should_panic(expected = "benchmark expected a graph, got Bézier lines")]
    fn a_wrong_kind_input_is_named_not_dumped() {
        let lines = crate::datasets::bezier::bezier_lines(4, 32, 16.0, 1);
        BenchInput::Bezier(lines).graph();
    }

    #[test]
    fn all_sources_parse_and_compile() {
        for bench in all_benchmarks() {
            for (label, src) in [
                ("cdp", bench.cdp_source()),
                ("no-cdp", bench.no_cdp_source()),
            ] {
                let program = dp_frontend::parse(src)
                    .unwrap_or_else(|e| panic!("{} {label}: {}", bench.name(), e.render(src)));
                dp_vm::lower::compile_program(&program)
                    .unwrap_or_else(|e| panic!("{} {label}: {e}", bench.name()));
            }
        }
    }
}
