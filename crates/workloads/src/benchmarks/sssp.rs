//! SSSP — single-source shortest paths (LonestarGPU flavour).
//!
//! Bellman-Ford with a worklist: each round relaxes the out-edges of every
//! frontier vertex (child grid per vertex under CDP), using `atomicMin` on
//! distances and a de-duplication flag array for the next frontier.

use super::{upload_graph, BenchInput, BenchOutput, Benchmark};
use dp_core::{Executor, Result};
use dp_vm::Value;

/// The SSSP benchmark.
pub struct Sssp;

/// "Infinite" distance (fits comfortably in the VM's i64 words).
pub(crate) const INF: i64 = 1 << 40;

const CDP: &str = r#"
__global__ void sssp_child(int* edges, int* weights, int* dist, int* inNext, int* frontierNext, int* nextSize, int srcDist, int edgeBegin, int count) {
    int e = blockIdx.x * blockDim.x + threadIdx.x;
    if (e < count) {
        int dst = edges[edgeBegin + e];
        int nd = srcDist + weights[edgeBegin + e];
        int old = atomicMin(&dist[dst], nd);
        if (nd < old) {
            if (atomicExch(&inNext[dst], 1) == 0) {
                int pos = atomicAdd(&nextSize[0], 1);
                frontierNext[pos] = dst;
            }
        }
    }
}

__global__ void sssp_parent(int* offsets, int* edges, int* weights, int* dist, int* inNext, int* frontier, int* frontierSize, int* frontierNext, int* nextSize) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < frontierSize[0]) {
        int v = frontier[i];
        int begin = offsets[v];
        int count = offsets[v + 1] - begin;
        int srcDist = dist[v];
        if (count > 0) {
            sssp_child<<<(count + 127) / 128, 128>>>(edges, weights, dist, inNext, frontierNext, nextSize, srcDist, begin, count);
        }
    }
}
"#;

const NO_CDP: &str = r#"
__global__ void sssp_parent(int* offsets, int* edges, int* weights, int* dist, int* inNext, int* frontier, int* frontierSize, int* frontierNext, int* nextSize) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < frontierSize[0]) {
        int v = frontier[i];
        int begin = offsets[v];
        int count = offsets[v + 1] - begin;
        int srcDist = dist[v];
        for (int e = 0; e < count; ++e) {
            int dst = edges[begin + e];
            int nd = srcDist + weights[begin + e];
            int old = atomicMin(&dist[dst], nd);
            if (nd < old) {
                if (atomicExch(&inNext[dst], 1) == 0) {
                    int pos = atomicAdd(&nextSize[0], 1);
                    frontierNext[pos] = dst;
                }
            }
        }
    }
}
"#;

impl Benchmark for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
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
        let source = g.max_degree_vertex() as i64;
        let (offsets, edges, weights) = upload_graph(exec, g);

        let mut dist = vec![INF; n];
        dist[source as usize] = 0;
        let dist_ptr = exec.alloc_i64s(&dist);
        let in_next = exec.alloc(n.max(1));
        let mut frontier_a = exec.alloc(n.max(1));
        let mut frontier_b = exec.alloc(n.max(1));
        let mut size_a = exec.alloc_i64s(&[1]);
        let mut size_b = exec.alloc_i64s(&[0]);
        exec.write_i64(frontier_a, source)?;

        let mut rounds = 0usize;
        loop {
            let frontier_size = exec.read_i64s(size_a, 1)?[0];
            if frontier_size == 0 || rounds > 4 * n + 16 {
                break;
            }
            let grid = (frontier_size + 255) / 256;
            exec.launch(
                "sssp_parent",
                grid,
                256,
                &[
                    Value::Int(offsets),
                    Value::Int(edges),
                    Value::Int(weights),
                    Value::Int(dist_ptr),
                    Value::Int(in_next),
                    Value::Int(frontier_a),
                    Value::Int(size_a),
                    Value::Int(frontier_b),
                    Value::Int(size_b),
                ],
            )?;
            exec.sync()?;
            std::mem::swap(&mut frontier_a, &mut frontier_b);
            std::mem::swap(&mut size_a, &mut size_b);
            exec.write_i64(size_b, 0)?;
            exec.fill_i64(in_next, n.max(1), 0)?;
            rounds += 1;
        }

        Ok(BenchOutput {
            ints: exec.read_i64s(dist_ptr, n)?,
            floats: vec![],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::{run_variant, Variant};
    use crate::datasets::graphs::{rmat, road};
    use dp_core::OptConfig;

    fn reference_sssp(g: &crate::datasets::csr::CsrGraph, src: usize) -> Vec<i64> {
        // Bellman-Ford (graphs are small in tests).
        let mut dist = vec![INF; g.num_vertices];
        dist[src] = 0;
        loop {
            let mut changed = false;
            for v in 0..g.num_vertices {
                if dist[v] == INF {
                    continue;
                }
                let begin = g.offsets[v] as usize;
                for (i, &u) in g.neighbours(v).iter().enumerate() {
                    let nd = dist[v] + g.weights[begin + i];
                    if nd < dist[u as usize] {
                        dist[u as usize] = nd;
                        changed = true;
                    }
                }
            }
            if !changed {
                return dist;
            }
        }
    }

    #[test]
    fn cdp_matches_host_reference() {
        let g = rmat(6, 4, 21);
        let input = BenchInput::Graph(g.clone());
        let run = run_variant(&Sssp, Variant::Cdp(OptConfig::none()), &input).unwrap();
        assert_eq!(run.output.ints, reference_sssp(&g, g.max_degree_vertex()));
    }

    #[test]
    fn road_graph_matches_reference() {
        let g = road(12, 10, 5);
        let input = BenchInput::Graph(g.clone());
        let run = run_variant(&Sssp, Variant::NoCdp, &input).unwrap();
        assert_eq!(run.output.ints, reference_sssp(&g, g.max_degree_vertex()));
    }
}
