//! Synthetic graph generators substituting for the paper's datasets.
//!
//! | paper dataset | generator | preserved property |
//! |---|---|---|
//! | KRON (kron_g500-simple-logn16) | [`rmat`] R-MAT | heavy-tailed degree distribution (few huge child grids, many tiny ones) |
//! | CNR (cnr-2000 web crawl) | [`web`] preferential attachment | power-law in/out degrees with locality |
//! | USA-road-d.NY | [`road`] perturbed grid lattice | average degree ≈ 3, maximum degree ≤ 8 (uniformly low nested parallelism, paper Section VIII-D) |
//!
//! All generators are deterministic for a given seed.

use crate::datasets::csr::CsrGraph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// R-MAT partition probabilities `(a, b, c)`; `d` is the rest.
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;

/// R-MAT generator (Graph500 flavour, substituting for KRON).
///
/// `scale` gives `2^scale` vertices; `edge_factor` edges are drawn per
/// vertex with partition probabilities `(a, b, c, d) = (0.57, 0.19, 0.19,
/// 0.05)`, then the graph is symmetrized ("-simple" variants of the
/// Graph500 graphs are undirected with dedup).
pub fn rmat(scale: u32, edge_factor: u32, seed: u64) -> CsrGraph {
    CsrGraph::undirected(1 << scale, &rmat_edges(scale, edge_factor, seed, quadrant))
}

/// The quadrant a draw `r` in `[0, 1)` picks, as `(du, dv)`: `(0, 0)` below
/// `a`, `(0, 1)` below `a + b`, `(1, 0)` below `a + b + c`, else `(1, 1)`.
/// The three comparisons are computed without a branch — a draw cannot be
/// predicted, and an if-chain over 39k draws mispredicts: `du` is whether
/// `r` passed `a + b`, and `dv` whether it passed an odd number of the
/// three bounds.
#[inline]
fn quadrant(r: f64) -> (usize, usize) {
    let past = |bound: f64| usize::from(r >= bound);
    (past(A + B), past(A) ^ past(A + B) ^ past(A + B + C))
}

/// R-MAT's directed edge draws, each bit's quadrant picked by `quadrant`.
fn rmat_edges(
    scale: u32,
    edge_factor: u32,
    seed: u64,
    quadrant: impl Fn(f64) -> (usize, usize),
) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = (1usize << scale) * edge_factor as usize;
    let mut edge_list = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for bit in (0..scale).rev() {
            let (du, dv) = quadrant(rng.gen());
            u |= du << bit;
            v |= dv << bit;
        }
        edge_list.push((u as u32, v as u32));
    }
    edge_list
}

/// Power-law web-like graph (substituting for cnr-2000).
///
/// Uses a configuration-model-style construction: link targets follow a
/// Zipf-like rank distribution, producing the few very large hubs real web
/// crawls have (cnr-2000's maximum degree is in the tens of thousands at
/// 325k vertices), plus a local-link component; symmetrized to match the
/// benchmarks' undirected use.
pub fn web(num_vertices: usize, out_degree: usize, seed: u64) -> CsrGraph {
    CsrGraph::undirected(num_vertices, &web_edges(num_vertices, out_degree, seed))
}

fn web_edges(num_vertices: usize, out_degree: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edge_list: Vec<(u32, u32)> = Vec::with_capacity(num_vertices * out_degree);
    for v in 0..num_vertices {
        for _ in 0..out_degree {
            let target = if rng.gen_bool(0.3) && v > 0 {
                // Local link: a nearby page (sites link internally).
                let lo = v.saturating_sub(64);
                rng.gen_range(lo..v) as u32
            } else {
                // Hub link: Zipf-like rank sampling. u^4 concentrates mass
                // on low ranks, giving max degree ≈ 5% of the vertex count.
                let u: f64 = rng.gen();
                ((num_vertices as f64 * u.powi(4)) as usize).min(num_vertices - 1) as u32
            };
            edge_list.push((v as u32, target));
        }
    }
    edge_list
}

/// Road-network-like graph (substituting for USA-road-d.NY).
///
/// A `w × h` grid lattice with a fraction of diagonal shortcuts and random
/// deletions: average degree ≈ 3, maximum degree ≤ 8 — the uniformly low
/// nested parallelism of Section VIII-D.
pub fn road(width: usize, height: usize, seed: u64) -> CsrGraph {
    CsrGraph::undirected(width * height, &road_edges(width, height, seed))
}

fn road_edges(width: usize, height: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edge_list = Vec::with_capacity(width * height * 3);
    let idx = |x: usize, y: usize| (y * width + x) as u32;
    for y in 0..height {
        for x in 0..width {
            let v = idx(x, y);
            // Grid edges, with ~20% deleted to mimic irregular road nets.
            if x + 1 < width && !rng.gen_bool(0.2) {
                edge_list.push((v, idx(x + 1, y)));
            }
            if y + 1 < height && !rng.gen_bool(0.2) {
                edge_list.push((v, idx(x, y + 1)));
            }
            // Occasional diagonal (ramps, bridges).
            if x + 1 < width && y + 1 < height && rng.gen_bool(0.05) {
                edge_list.push((v, idx(x + 1, y + 1)));
            }
        }
    }
    edge_list
}

/// The generators as they were built before the quadrant pick lost its
/// branches and the CSR its vector per vertex: the reference the datasets
/// must equal.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;
    use crate::datasets::csr::oracle::{from_edges, symmetrized};

    fn quadrant(r: f64) -> (usize, usize) {
        let (a, b, c) = (A, B, C);
        if r < a {
            (0, 0)
        } else if r < a + b {
            (0, 1)
        } else if r < a + b + c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    pub(crate) fn rmat(scale: u32, edge_factor: u32, seed: u64) -> CsrGraph {
        let edges = rmat_edges(scale, edge_factor, seed, quadrant);
        symmetrized(&from_edges(1 << scale, &edges))
    }

    pub(crate) fn web(num_vertices: usize, out_degree: usize, seed: u64) -> CsrGraph {
        let edges = web_edges(num_vertices, out_degree, seed);
        symmetrized(&from_edges(num_vertices, &edges))
    }

    pub(crate) fn road(width: usize, height: usize, seed: u64) -> CsrGraph {
        symmetrized(&from_edges(
            width * height,
            &road_edges(width, height, seed),
        ))
    }

    #[test]
    fn the_branchless_quadrant_is_the_if_chain() {
        let edges = [0.0, A, A + B, A + B + C, 1.0];
        let near = edges
            .iter()
            .flat_map(|&e: &f64| [e.next_down(), e, e.next_up()]);
        let grid = (0..=1000).map(|i| f64::from(i) / 1000.0);
        for r in near.chain(grid) {
            assert_eq!(super::quadrant(r), quadrant(r), "r = {r}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_heavy_tailed() {
        let g = rmat(10, 8, 42);
        assert_eq!(g.num_vertices, 1024);
        assert!(g.num_edges() > 4000, "edges: {}", g.num_edges());
        // Heavy tail: max degree far above average.
        assert!(
            g.max_degree() as f64 > 8.0 * g.avg_degree(),
            "max {} avg {}",
            g.max_degree(),
            g.avg_degree()
        );
    }

    #[test]
    fn rmat_is_deterministic() {
        assert_eq!(rmat(8, 4, 7), rmat(8, 4, 7));
        assert_ne!(rmat(8, 4, 7), rmat(8, 4, 8));
    }

    #[test]
    fn web_is_power_law_ish() {
        let g = web(2000, 8, 1);
        assert!(g.avg_degree() > 6.0);
        assert!(g.max_degree() > 50, "hub degree: {}", g.max_degree());
    }

    #[test]
    fn road_has_low_uniform_degree() {
        let g = road(50, 40, 3);
        assert_eq!(g.num_vertices, 2000);
        let avg = g.avg_degree();
        assert!((2.0..4.5).contains(&avg), "avg degree: {avg}");
        assert!(g.max_degree() <= 8, "max degree: {}", g.max_degree());
    }

    #[test]
    fn generators_have_no_self_loops() {
        for g in [rmat(8, 4, 9), web(500, 6, 9), road(20, 20, 9)] {
            for v in 0..g.num_vertices {
                assert!(!g.neighbours(v).contains(&(v as i64)));
            }
        }
    }
}
