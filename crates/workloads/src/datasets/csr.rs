//! Compressed sparse row graphs used by the graph benchmarks.

/// A directed graph in CSR form with optional edge weights.
///
/// Adjacency lists are sorted (required by the triangle-counting kernel's
/// binary search).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Row offsets (`num_vertices + 1` entries).
    pub offsets: Vec<i64>,
    /// Column indices, sorted within each row.
    pub edges: Vec<i64>,
    /// Edge weights, parallel to `edges`.
    pub weights: Vec<i64>,
}

impl CsrGraph {
    /// The directed graph of an edge list, as [`CsrGraph::from_arcs`]
    /// builds it.
    #[cfg(test)]
    pub(crate) fn from_edges(num_vertices: usize, edge_list: &[(u32, u32)]) -> CsrGraph {
        CsrGraph::from_arcs(num_vertices, edge_list.iter().copied())
    }

    /// The undirected graph of an edge list: the edges and their reverses,
    /// as [`CsrGraph::from_arcs`] builds them.
    pub(crate) fn undirected(num_vertices: usize, edge_list: &[(u32, u32)]) -> CsrGraph {
        let both = edge_list.iter().flat_map(|&(u, v)| [(u, v), (v, u)]);
        CsrGraph::from_arcs(num_vertices, both)
    }

    /// Builds a CSR graph from arcs, removing duplicate arcs, self-loops and
    /// out-of-range endpoints, sorting adjacency lists, and assigning
    /// pseudo-random weights in `[1, 64)` derived from the endpoints
    /// (deterministic). Each row's length is counted into `start` in one
    /// pass over the arcs, the arcs are placed in one column array in a
    /// second, and each row is then sorted in place and copied out without
    /// its duplicates.
    fn from_arcs(n: usize, arcs: impl Iterator<Item = (u32, u32)> + Clone) -> CsrGraph {
        let arcs = arcs.filter(move |&(u, v)| u != v && (u as usize) < n && (v as usize) < n);
        let mut start = vec![0usize; n + 1];
        for (u, _) in arcs.clone() {
            start[u as usize + 1] += 1;
        }
        for u in 0..n {
            start[u + 1] += start[u];
        }
        let mut next = start.clone();
        let mut columns = vec![0u32; start[n]];
        for (u, v) in arcs {
            let at = &mut next[u as usize];
            columns[*at] = v;
            *at += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut edges = Vec::with_capacity(columns.len());
        let mut weights = Vec::with_capacity(columns.len());
        offsets.push(0);
        for u in 0..n {
            let row = &mut columns[start[u]..start[u + 1]];
            row.sort_unstable();
            for (i, &v) in row.iter().enumerate() {
                if i == 0 || row[i - 1] != v {
                    edges.push(i64::from(v));
                    weights.push(edge_weight(u as u32, v));
                }
            }
            offsets.push(edges.len() as i64);
        }
        CsrGraph {
            num_vertices: n,
            offsets,
            edges,
            weights,
        }
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-degree of a vertex.
    pub(crate) fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average out-degree.
    pub(crate) fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices as f64
        }
    }

    /// Neighbours of `v` (sorted).
    #[cfg(test)]
    pub(crate) fn neighbours(&self, v: usize) -> &[i64] {
        &self.edges[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// A vertex with the highest degree (breadth-first-search source that
    /// reaches a large component).
    pub(crate) fn max_degree_vertex(&self) -> usize {
        (0..self.num_vertices)
            .max_by_key(|&v| self.degree(v))
            .unwrap_or(0)
    }
}

/// Deterministic pseudo-random weight in `[1, 64)`.
fn edge_weight(u: u32, v: u32) -> i64 {
    let mut h = (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (v as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 31;
    (h % 63 + 1) as i64
}

/// What [`CsrGraph::from_edges`] and [`CsrGraph::undirected`] replace — a
/// vector per vertex, and the undirected graph built twice — kept as the
/// reference they must equal.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{edge_weight, CsrGraph};

    pub(crate) fn from_edges(num_vertices: usize, edge_list: &[(u32, u32)]) -> CsrGraph {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_vertices];
        for &(u, v) in edge_list {
            let (u, v) = (u as usize, v as usize);
            if u == v || u >= num_vertices || v >= num_vertices {
                continue;
            }
            adj[u].push(v as u32);
        }
        let mut offsets = Vec::with_capacity(num_vertices + 1);
        let mut edges = Vec::new();
        let mut weights = Vec::new();
        offsets.push(0);
        for (u, list) in adj.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            for &v in list.iter() {
                edges.push(v as i64);
                weights.push(edge_weight(u as u32, v));
            }
            offsets.push(edges.len() as i64);
        }
        CsrGraph {
            num_vertices,
            offsets,
            edges,
            weights,
        }
    }

    /// Adds the reverse of every edge (symmetrizes), deduplicating the
    /// result.
    pub(crate) fn symmetrized(g: &CsrGraph) -> CsrGraph {
        let mut edge_list = Vec::with_capacity(g.num_edges() * 2);
        for u in 0..g.num_vertices {
            for &v in g.neighbours(u) {
                edge_list.push((u as u32, v as u32));
                edge_list.push((v as u32, u as u32));
            }
        }
        from_edges(g.num_vertices, &edge_list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Generates `count` random edges over `n` vertices.
    fn random_edges<R: Rng>(rng: &mut R, n: usize, count: usize) -> Vec<(u32, u32)> {
        (0..count)
            .map(|_| (rng.gen_range(0..n) as u32, rng.gen_range(0..n) as u32))
            .collect()
    }

    #[test]
    fn builds_sorted_deduped_csr() {
        let g = CsrGraph::from_edges(4, &[(0, 2), (0, 1), (0, 2), (1, 3), (2, 2), (3, 0)]);
        assert_eq!(g.num_vertices, 4);
        assert_eq!(g.neighbours(0), &[1, 2]);
        assert_eq!(g.neighbours(1), &[3]);
        assert_eq!(g.neighbours(2), &[] as &[i64]); // self-loop dropped
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn weights_are_deterministic_and_positive() {
        let g1 = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let g2 = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(g1.weights, g2.weights);
        assert!(g1.weights.iter().all(|&w| (1..64).contains(&w)));
    }

    #[test]
    fn symmetrize_doubles_reachability() {
        let s = CsrGraph::undirected(3, &[(0, 1), (1, 2)]);
        assert_eq!(s.neighbours(1), &[0, 2]);
        assert_eq!(s.neighbours(2), &[1]);
    }

    #[test]
    fn the_counted_csr_equals_the_vector_per_vertex_one() {
        let mut rng = SmallRng::seed_from_u64(5);
        for (n, count) in [(0, 0), (1, 3), (4, 0), (10, 100), (300, 2000)] {
            let mut edges = random_edges(&mut rng, n.max(1), count);
            edges.push((n as u32, 0)); // out of range: dropped
            let directed = CsrGraph::from_edges(n, &edges);
            assert_eq!(directed, oracle::from_edges(n, &edges));
            let undirected = oracle::symmetrized(&oracle::from_edges(n, &edges));
            assert_eq!(CsrGraph::undirected(n, &edges), undirected);
        }
    }

    #[test]
    fn max_degree_vertex_found() {
        let g = CsrGraph::from_edges(4, &[(2, 0), (2, 1), (2, 3), (0, 1)]);
        assert_eq!(g.max_degree_vertex(), 2);
    }

    #[test]
    fn random_edges_in_range() {
        let mut rng = SmallRng::seed_from_u64(1);
        let edges = random_edges(&mut rng, 10, 100);
        assert_eq!(edges.len(), 100);
        assert!(edges.iter().all(|&(u, v)| u < 10 && v < 10));
    }
}
