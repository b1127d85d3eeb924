//! Incremental graph construction.

use crate::{Graph, VertexId};

/// Accumulates edges and vertex weights, then assembles a [`Graph`].
///
/// * Parallel edges are merged by **summing** their weights (the natural
///   semantics for flow graphs: two declarations of the same sector pair add
///   their aircraft counts).
/// * Self-loops are silently dropped — none of the partitioning objectives
///   can see them (they are internal to every part).
/// * Vertex weights default to 1.0.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId, f64)>,
    vwgt: Vec<f64>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            vwgt: vec![1.0; n],
        }
    }

    /// Creates a builder and pre-reserves space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adds undirected edge `{u, v}` of weight `w`.
    ///
    /// Repeated `{u, v}` pairs accumulate; self-loops are dropped. A zero
    /// weight is stored as `+0.0`, also when given as `-0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `u`/`v` are out of range or `w` is negative/non-finite.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) {
        assert!((u as usize) < self.n, "vertex {u} out of range");
        assert!((v as usize) < self.n, "vertex {v} out of range");
        assert!(w.is_finite() && w >= 0.0, "edge weight must be finite ≥ 0");
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Sets the weight of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `w` is negative/non-finite.
    pub fn set_vertex_weight(&mut self, v: VertexId, w: f64) {
        assert!((v as usize) < self.n, "vertex {v} out of range");
        assert!(
            w.is_finite() && w >= 0.0,
            "vertex weight must be finite ≥ 0"
        );
        self.vwgt[v as usize] = w;
    }

    /// Assembles the CSR graph. O(m log m) for the edge sort.
    pub fn build(mut self) -> Graph {
        // Sort canonical edges, then merge duplicates by summing weights.
        self.edges.sort_unstable_by_key(|a| (a.0, a.1));
        let mut merged: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(self.edges.len());
        for (u, v, w) in self.edges {
            match merged.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => merged.push((u, v, w)),
            }
        }

        let n = self.n;
        let mut deg = vec![0usize; n];
        for &(u, v, _) in &merged {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + deg[v];
        }
        let nnz = xadj[n];
        let mut adjncy = vec![0 as VertexId; nnz];
        let mut adjwgt = vec![0.0; nnz];
        let mut cursor = xadj.clone();
        // Edges are processed in (u, v)-sorted order with u < v, so row x
        // first receives its lower neighbours, ascending while earlier u
        // are processed, and then its upper neighbours, ascending: every
        // row comes out sorted.
        for &(u, v, w) in &merged {
            let cu = cursor[u as usize];
            adjncy[cu] = v;
            adjwgt[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize];
            adjncy[cv] = u;
            adjwgt[cv] = w;
            cursor[v as usize] += 1;
        }

        Graph::from_csr(xadj, adjncy, adjwgt, self.vwgt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// `build` with the per-row sort it once ran after the scatter: the
    /// reference the sort-free scatter must reproduce bit for bit.
    fn build_with_row_sort(mut b: GraphBuilder) -> Graph {
        b.edges.sort_unstable_by_key(|a| (a.0, a.1));
        let mut merged: Vec<(VertexId, VertexId, f64)> = Vec::with_capacity(b.edges.len());
        for (u, v, w) in b.edges {
            match merged.last_mut() {
                Some(last) if last.0 == u && last.1 == v => last.2 += w,
                _ => merged.push((u, v, w)),
            }
        }
        let n = b.n;
        let mut deg = vec![0usize; n];
        for &(u, v, _) in &merged {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + deg[v];
        }
        let nnz = xadj[n];
        let mut adjncy = vec![0 as VertexId; nnz];
        let mut adjwgt = vec![0.0; nnz];
        let mut cursor = xadj.clone();
        for &(u, v, w) in &merged {
            let cu = cursor[u as usize];
            adjncy[cu] = v;
            adjwgt[cu] = w;
            cursor[u as usize] += 1;
            let cv = cursor[v as usize];
            adjncy[cv] = u;
            adjwgt[cv] = w;
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            let (lo, hi) = (xadj[v], xadj[v + 1]);
            let mut pairs: Vec<(VertexId, f64)> = adjncy[lo..hi]
                .iter()
                .copied()
                .zip(adjwgt[lo..hi].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(id, _)| id);
            for (k, (id, w)) in pairs.into_iter().enumerate() {
                adjncy[lo + k] = id;
                adjwgt[lo + k] = w;
            }
        }
        Graph::from_csr(xadj, adjncy, adjwgt, b.vwgt)
    }

    fn weight_bits(ws: &[f64]) -> Vec<u64> {
        ws.iter().map(|w| w.to_bits()).collect()
    }

    #[test]
    fn rows_come_out_sorted_without_a_row_sort() {
        for seed in 0..8 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = 80;
            // A small pool of pairs, so pairs repeat (some three or more
            // times), plus self-loops and zero weights, in shuffled order.
            let pool: Vec<(VertexId, VertexId)> = (0..150)
                .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
                .collect();
            let mut edges: Vec<(VertexId, VertexId, f64)> = (0..400)
                .map(|_| {
                    let (u, v) = pool[rng.gen_range(0..pool.len())];
                    let w = if rng.gen_bool(0.2) {
                        0.0
                    } else {
                        rng.gen::<f64>() * 10.0
                    };
                    (u, v, w)
                })
                .collect();
            edges.extend((0..10).map(|v| (v * 7, v * 7, 1.0)));
            edges.shuffle(&mut rng);
            let mut uses = std::collections::BTreeMap::new();
            for &(u, v, _) in &edges {
                *uses.entry((u.min(v), u.max(v))).or_insert(0) += 1;
            }
            assert!(uses.iter().any(|(&(u, v), &k)| u != v && k >= 3));
            assert!(uses.keys().any(|&(u, v)| u == v));

            let mut b = GraphBuilder::new(n);
            for &(u, v, w) in &edges {
                b.add_edge(u, v, w);
            }
            b.set_vertex_weight(3, 2.5);
            let want = build_with_row_sort(b.clone());
            let got = b.build();
            assert_eq!(got.xadj(), want.xadj());
            assert_eq!(got.adjncy(), want.adjncy());
            assert_eq!(weight_bits(got.adjwgt()), weight_bits(want.adjwgt()));
            let vw = |g: &Graph| {
                weight_bits(&g.vertices().map(|v| g.vertex_weight(v)).collect::<Vec<_>>())
            };
            assert_eq!(vw(&got), vw(&want));
        }
    }

    #[test]
    fn merges_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.5);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
    }

    #[test]
    fn drops_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 9.0);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.total_edge_weight(), 1.0);
    }

    #[test]
    fn vertex_weights_respected() {
        let mut b = GraphBuilder::new(3);
        b.set_vertex_weight(1, 5.0);
        let g = b.build();
        assert_eq!(g.vertex_weight(0), 1.0);
        assert_eq!(g.vertex_weight(1), 5.0);
        assert_eq!(g.total_vertex_weight(), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, f64::NAN);
    }

    #[test]
    fn adjacency_sorted_after_build() {
        let mut b = GraphBuilder::new(5);
        // insert in scrambled order
        b.add_edge(4, 0, 1.0);
        b.add_edge(2, 0, 1.0);
        b.add_edge(0, 3, 1.0);
        b.add_edge(1, 0, 1.0);
        let g = b.build();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }
}
