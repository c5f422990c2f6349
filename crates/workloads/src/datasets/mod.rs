//! Dataset generators and the Table-I registry.

pub mod bezier;
pub mod csr;
pub mod graphs;
pub mod ksat;

use crate::benchmarks::{BenchInput, InputKind};
use bezier::bezier_lines;
use csr::CsrGraph;
use ksat::random_ksat;

/// The paper's datasets (Table I plus the road graph of Section VIII-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// kron_g500-simple-logn16 (65,536 vertices, 2,456,071 edges).
    Kron,
    /// cnr-2000 web crawl (325,557 vertices, 2,738,969 edges).
    Cnr,
    /// USA-road-d.NY (264,346 vertices, 730,100 edges, max degree 8).
    RoadNy,
    /// random-42000-10000-3 (10,000 variables, 3-SAT).
    Rand3,
    /// 5-SATISFIABLE from SAT Competition 2014 (117,296 literals).
    Sat5,
    /// Bézier lines, max tessellation 32, curvature 16, 20,000 lines.
    T0032C16,
    /// Bézier lines, max tessellation 2048, curvature 64, 20,000 lines.
    T2048C64,
}

impl DatasetId {
    /// Every dataset, in Table-I order with the road graph after its kind.
    pub const ALL: [DatasetId; 7] = [
        DatasetId::Kron,
        DatasetId::Cnr,
        DatasetId::RoadNy,
        DatasetId::Rand3,
        DatasetId::Sat5,
        DatasetId::T0032C16,
        DatasetId::T2048C64,
    ];

    /// Name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::Kron => "KRON",
            DatasetId::Cnr => "CNR",
            DatasetId::RoadNy => "ROAD-NY",
            DatasetId::Rand3 => "RAND-3",
            DatasetId::Sat5 => "5-SAT",
            DatasetId::T0032C16 => "T0032-C16",
            DatasetId::T2048C64 => "T2048-C64",
        }
    }

    /// The shape of input the generator produces.
    pub fn kind(&self) -> InputKind {
        match self {
            DatasetId::Kron | DatasetId::Cnr | DatasetId::RoadNy => InputKind::Graph,
            DatasetId::Rand3 | DatasetId::Sat5 => InputKind::Sat,
            DatasetId::T0032C16 | DatasetId::T2048C64 => InputKind::Bezier,
        }
    }

    /// What the generator substitutes for (for Table I).
    pub fn description(&self) -> &'static str {
        match self {
            DatasetId::Kron => {
                "R-MAT substitute for kron_g500-simple-logn16 (heavy-tailed degrees)"
            }
            DatasetId::Cnr => {
                "preferential-attachment substitute for cnr-2000 (power-law web graph)"
            }
            DatasetId::RoadNy => {
                "perturbed-lattice substitute for USA-road-d.NY (avg degree ~3, max <= 8)"
            }
            DatasetId::Rand3 => {
                "uniform random 3-SAT (42,000 clauses over 10,000 variables at full scale)"
            }
            DatasetId::Sat5 => "uniform random 5-SAT (~117,296 literals at full scale)",
            DatasetId::T0032C16 => "random Bezier lines, max tessellation 32, curvature scale 16",
            DatasetId::T2048C64 => "random Bezier lines, max tessellation 2048, curvature scale 64",
        }
    }

    /// Instantiates the dataset at a fraction of the paper's size.
    ///
    /// `scale = 1.0` approximates the sizes in Table I; the default harness
    /// scale is smaller so full sweeps finish quickly on the simulator
    /// (the paper itself notes smaller datasets show the same trends,
    /// Section VII).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn instantiate(&self, scale: f64, seed: u64) -> BenchInput {
        self.instantiate_with(scale, seed, &GRAPHS)
    }

    fn instantiate_with(&self, scale: f64, seed: u64, graphs: &Graphs) -> BenchInput {
        let Graphs { rmat, web, road } = graphs;
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        match self {
            DatasetId::Kron => {
                // Paper: 2^16 vertices, edge factor ~37 (before symmetrize).
                let bits = (16.0 + scale.log2()).round().clamp(8.0, 16.0) as u32;
                BenchInput::Graph(rmat(bits, 19, seed))
            }
            DatasetId::Cnr => {
                let n = ((325_557.0 * scale) as usize).max(512);
                BenchInput::Graph(web(n, 8, seed))
            }
            DatasetId::RoadNy => {
                let n = ((264_346.0 * scale) as usize).max(256);
                let w = (n as f64).sqrt() as usize;
                BenchInput::Graph(road(w.max(8), (n / w.max(8)).max(8), seed))
            }
            DatasetId::Rand3 => {
                let vars = ((10_000.0 * scale) as usize).max(64);
                let clauses = vars * 42 / 10;
                BenchInput::Sat(random_ksat(vars, clauses, 3, seed))
            }
            DatasetId::Sat5 => {
                // ~117,296 literals at k=5 → ~23,460 clauses over ~5,600 vars.
                let clauses = ((23_460.0 * scale) as usize).max(64);
                let vars = (clauses / 4).max(32);
                BenchInput::Sat(random_ksat(vars, clauses, 5, seed))
            }
            DatasetId::T0032C16 => {
                let lines = ((20_000.0 * scale) as usize).max(64);
                BenchInput::Bezier(bezier_lines(lines, 32, 16.0, seed))
            }
            DatasetId::T2048C64 => {
                let lines = ((20_000.0 * scale) as usize).max(64);
                BenchInput::Bezier(bezier_lines(lines, 2048, 64.0, seed))
            }
        }
    }
}

/// The graph generators [`DatasetId::instantiate`] calls, as a table so a
/// test can instantiate the same datasets through the reference generators.
struct Graphs {
    rmat: fn(u32, u32, u64) -> CsrGraph,
    web: fn(usize, usize, u64) -> CsrGraph,
    road: fn(usize, usize, u64) -> CsrGraph,
}

const GRAPHS: Graphs = Graphs {
    rmat: graphs::rmat,
    web: graphs::web,
    road: graphs::road,
};

/// The benchmark → datasets mapping of Table I.
pub fn datasets_for(benchmark: &str) -> Vec<DatasetId> {
    match benchmark {
        "BFS" | "MSTF" | "MSTV" | "SSSP" | "TC" => vec![DatasetId::Kron, DatasetId::Cnr],
        "BT" => vec![DatasetId::T0032C16, DatasetId::T2048C64],
        "SP" => vec![DatasetId::Rand3, DatasetId::Sat5],
        other => panic!("unknown benchmark `{other}`"),
    }
}

/// The shape of input `benchmark` reads: that of its Table-I datasets.
///
/// # Panics
///
/// Panics on an unknown benchmark name, like [`datasets_for`].
pub fn input_kind_for(benchmark: &str) -> InputKind {
    datasets_for(benchmark)[0].kind()
}

/// Summary statistics for Table I output.
pub fn describe(input: &BenchInput) -> String {
    match input {
        BenchInput::Graph(g) => format!(
            "{} vertices, {} edges, avg degree {:.1}, max degree {}",
            g.num_vertices,
            g.num_edges(),
            g.avg_degree(),
            g.max_degree()
        ),
        BenchInput::Sat(f) => format!(
            "{} variables, {} clauses, {} literals, max var degree {}",
            f.num_vars,
            f.num_clauses(),
            f.num_lits(),
            f.max_var_degree()
        ),
        BenchInput::Bezier(b) => format!(
            "{} lines, max tessellation {}, curvature scale {}",
            b.num_lines(),
            b.max_tess,
            b.curvature_scale
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table1_dataset_equals_the_reference_generators() {
        let reference = Graphs {
            rmat: graphs::oracle::rmat,
            web: graphs::oracle::web,
            road: graphs::oracle::road,
        };
        let graph = |input| match input {
            BenchInput::Graph(g) => g,
            _ => unreachable!("a graph dataset"),
        };
        for id in DatasetId::ALL
            .into_iter()
            .filter(|id| id.kind() == InputKind::Graph)
        {
            for scale in [0.001, 0.01] {
                for seed in [0, 1, 7, 42] {
                    assert_eq!(
                        graph(id.instantiate(scale, seed)),
                        graph(id.instantiate_with(scale, seed, &reference)),
                        "{} at {scale}, seed {seed}",
                        id.name()
                    );
                }
            }
        }
    }

    #[test]
    fn every_dataset_instantiates_at_small_scale() {
        for id in DatasetId::ALL {
            let input = id.instantiate(0.01, 42);
            assert_eq!(input.kind(), id.kind(), "{}", id.name());
            let desc = describe(&input);
            assert!(!desc.is_empty(), "{}: {desc}", id.name());
        }
    }

    #[test]
    fn table1_mapping_is_complete() {
        for b in ["BFS", "BT", "MSTF", "MSTV", "SP", "SSSP", "TC"] {
            let datasets = datasets_for(b);
            assert_eq!(datasets.len(), 2);
            assert!(
                datasets.iter().all(|d| d.kind() == input_kind_for(b)),
                "{b}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_panics() {
        DatasetId::Kron.instantiate(0.0, 1);
    }

    #[test]
    fn road_stays_low_degree_at_scale() {
        let BenchInput::Graph(g) = DatasetId::RoadNy.instantiate(0.02, 7) else {
            panic!("road is a graph");
        };
        assert!(g.max_degree() <= 8);
    }
}
