//! TC — triangle counting (collaborative CPU+GPU algorithms paper flavour).
//!
//! Parent thread per vertex; child thread per neighbour `u > v` counting
//! common neighbours `w > u` by binary search in `N(u)` (adjacency lists
//! are sorted). Each triangle `v < u < w` is counted exactly once.

use super::{upload_graph, BenchInput, BenchOutput, Benchmark};
use dp_core::{Executor, Result};
use dp_vm::Value;

/// The TC benchmark.
pub struct Tc;

const CDP: &str = r#"
__global__ void tc_child(int* offsets, int* edges, long long* total, int v, int edgeBegin, int degV) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < degV) {
        int u = edges[edgeBegin + i];
        if (u > v) {
            long long local = 0;
            int ve = edgeBegin + degV;
            for (int j = edgeBegin; j < ve; ++j) {
                int w = edges[j];
                if (w > u) {
                    int lo = offsets[u];
                    int hi = offsets[u + 1] - 1;
                    while (lo <= hi) {
                        int mid = (lo + hi) / 2;
                        int x = edges[mid];
                        if (x == w) {
                            local = local + 1;
                            lo = hi + 1;
                        } else {
                            if (x < w) {
                                lo = mid + 1;
                            } else {
                                hi = mid - 1;
                            }
                        }
                    }
                }
            }
            if (local > 0) {
                atomicAdd(&total[0], local);
            }
        }
    }
}

__global__ void tc_parent(int* offsets, int* edges, long long* total, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int begin = offsets[v];
        int count = offsets[v + 1] - begin;
        if (count > 1) {
            tc_child<<<(count + 127) / 128, 128>>>(offsets, edges, total, v, begin, count);
        }
    }
}
"#;

const NO_CDP: &str = r#"
__global__ void tc_parent(int* offsets, int* edges, long long* total, int numV) {
    int v = blockIdx.x * blockDim.x + threadIdx.x;
    if (v < numV) {
        int begin = offsets[v];
        int count = offsets[v + 1] - begin;
        for (int i = 0; i < count; ++i) {
            int u = edges[begin + i];
            if (u > v) {
                long long local = 0;
                int ve = begin + count;
                for (int j = begin; j < ve; ++j) {
                    int w = edges[j];
                    if (w > u) {
                        int lo = offsets[u];
                        int hi = offsets[u + 1] - 1;
                        while (lo <= hi) {
                            int mid = (lo + hi) / 2;
                            int x = edges[mid];
                            if (x == w) {
                                local = local + 1;
                                lo = hi + 1;
                            } else {
                                if (x < w) {
                                    lo = mid + 1;
                                } else {
                                    hi = mid - 1;
                                }
                            }
                        }
                    }
                }
                if (local > 0) {
                    atomicAdd(&total[0], local);
                }
            }
        }
    }
}
"#;

impl Benchmark for Tc {
    fn name(&self) -> &'static str {
        "TC"
    }

    fn cdp_source(&self) -> &'static str {
        CDP
    }

    fn no_cdp_source(&self) -> &'static str {
        NO_CDP
    }

    fn run(&self, exec: &mut Executor, input: &BenchInput) -> Result<BenchOutput> {
        let g = input.graph();
        let n = g.num_vertices;
        let (offsets, edges, _) = upload_graph(exec, g);
        let total = exec.alloc_i64s(&[0]);

        let grid = (n as i64 + 255) / 256;
        exec.launch(
            "tc_parent",
            grid,
            256,
            &[
                Value::Int(offsets),
                Value::Int(edges),
                Value::Int(total),
                Value::Int(n as i64),
            ],
        )?;
        exec.sync()?;

        Ok(BenchOutput {
            ints: vec![exec.read_i64s(total, 1)?[0]],
            floats: vec![],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{run_variant, Variant};
    use crate::datasets::csr::CsrGraph;
    use crate::datasets::graphs::rmat;
    use dp_core::OptConfig;

    fn reference_triangles(g: &CsrGraph) -> i64 {
        let mut count = 0;
        for v in 0..g.num_vertices {
            for &u in g.neighbours(v) {
                if u <= v as i64 {
                    continue;
                }
                for &w in g.neighbours(v) {
                    if w > u && g.neighbours(u as usize).binary_search(&w).is_ok() {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    #[test]
    fn counts_known_triangle() {
        // K3 plus a pendant vertex: exactly one triangle.
        let g = CsrGraph::undirected(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let input = BenchInput::Graph(g);
        let run = run_variant(&Tc, Variant::Cdp(OptConfig::none()), &input).unwrap();
        assert_eq!(run.output.ints, vec![1]);
    }

    #[test]
    fn matches_host_reference_on_rmat() {
        let g = rmat(6, 6, 61);
        let expected = reference_triangles(&g);
        let input = BenchInput::Graph(g);
        let cdp = run_variant(&Tc, Variant::Cdp(OptConfig::none()), &input).unwrap();
        let no_cdp = run_variant(&Tc, Variant::NoCdp, &input).unwrap();
        assert_eq!(cdp.output.ints, vec![expected]);
        assert_eq!(no_cdp.output.ints, vec![expected]);
        assert!(expected > 0, "rmat graph should contain triangles");
    }
}
