//! Compressed-sparse-row storage for weighted undirected graphs.
//!
//! The graph is immutable after construction (build it with
//! [`crate::GraphBuilder`]). Each undirected edge `{u, v}` is stored twice,
//! once in each endpoint's adjacency list; adjacency lists are sorted by
//! neighbor id so `edge_weight(u, v)` is a binary search.

use crate::VertexId;

/// An immutable weighted undirected graph in CSR form.
///
/// Invariants (checked by `debug_assert!` in constructors and exercised by
/// property tests):
///
/// * `xadj.len() == n + 1`, `xadj[0] == 0`, `xadj` is non-decreasing,
/// * `adjncy.len() == adjwgt.len() == xadj[n]` (= 2·m),
/// * every adjacency list is strictly sorted (no parallel edges, no
///   self-loops),
/// * symmetry: `v ∈ adj(u) ⇔ u ∈ adj(v)` with equal weight,
/// * all edge weights are finite and non-negative, and a zero weight is
///   stored as `+0.0` (a `-0.0` input, such as a METIS `-0` token, is
///   canonicalized, so `-0` and `0` build the same graph),
/// * `degw[v] == Σ_{u ∈ adj(v)} w(u, v)` (cached weighted degree).
#[derive(Clone, Debug)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<VertexId>,
    adjwgt: Vec<f64>,
    vwgt: Vec<f64>,
    degw: Vec<f64>,
    total_edge_weight: f64,
    total_vertex_weight: f64,
}

impl Graph {
    /// Assembles a graph from raw CSR arrays.
    ///
    /// `vwgt` may be empty, in which case every vertex gets unit weight.
    /// Zero edge weights are stored as `+0.0`, whatever their sign.
    ///
    /// # Panics
    ///
    /// Panics if the CSR arrays are structurally inconsistent (mismatched
    /// lengths, unsorted adjacency, self-loops, negative weights, or
    /// asymmetry).
    pub fn from_csr(
        xadj: Vec<usize>,
        adjncy: Vec<VertexId>,
        mut adjwgt: Vec<f64>,
        vwgt: Vec<f64>,
    ) -> Self {
        assert!(!xadj.is_empty(), "xadj must have at least one entry");
        let n = xadj.len() - 1;
        assert_eq!(xadj[0], 0, "xadj[0] must be 0");
        assert_eq!(
            adjncy.len(),
            *xadj.last().unwrap(),
            "adjncy length must equal xadj[n]"
        );
        assert_eq!(adjncy.len(), adjwgt.len(), "adjncy/adjwgt length mismatch");
        let vwgt = if vwgt.is_empty() {
            vec![1.0; n]
        } else {
            assert_eq!(vwgt.len(), n, "vwgt length must equal vertex count");
            vwgt
        };

        let mut degw = vec![0.0; n];
        let mut total = 0.0;
        for v in 0..n {
            assert!(xadj[v] <= xadj[v + 1], "xadj must be non-decreasing");
            let lo = xadj[v];
            let hi = xadj[v + 1];
            let mut prev: Option<VertexId> = None;
            for idx in lo..hi {
                let u = adjncy[idx];
                let w = adjwgt[idx];
                assert!((u as usize) < n, "neighbor id out of range");
                assert!(u as usize != v, "self-loop at vertex {v}");
                assert!(w.is_finite() && w >= 0.0, "edge weight must be finite ≥ 0");
                if w == 0.0 {
                    // `-0.0 == 0.0`: this stores both zeros as `+0.0`.
                    adjwgt[idx] = 0.0;
                }
                if let Some(p) = prev {
                    assert!(p < u, "adjacency of {v} must be strictly sorted");
                }
                prev = Some(u);
                degw[v] += w;
                total += w;
            }
        }
        // Symmetry check (debug builds only: O(m log d)).
        #[cfg(debug_assertions)]
        for v in 0..n {
            for idx in xadj[v]..xadj[v + 1] {
                let u = adjncy[idx] as usize;
                let back = adjncy[xadj[u]..xadj[u + 1]].binary_search(&(v as VertexId));
                let pos = back.expect("graph must be symmetric");
                debug_assert_eq!(
                    adjwgt[xadj[u] + pos],
                    adjwgt[idx],
                    "edge weight must be symmetric"
                );
            }
        }

        let total_vertex_weight = vwgt.iter().sum();
        Graph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
            degw,
            total_edge_weight: total / 2.0,
            total_vertex_weight,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Neighbor ids of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Edge weights parallel to [`Graph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[f64] {
        let v = v as usize;
        &self.adjwgt[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Iterates `(neighbor, weight)` pairs of `v`.
    #[inline]
    pub fn edges_of(&self, v: VertexId) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.neighbor_weights(v).iter().copied())
    }

    /// Unweighted degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Weighted degree of `v`: `Σ_{u ∈ adj(v)} w(u, v)` (cached).
    #[inline]
    pub fn degree_weight(&self, v: VertexId) -> f64 {
        self.degw[v as usize]
    }

    /// Vertex weight of `v` (unit unless set at build time).
    #[inline]
    pub fn vertex_weight(&self, v: VertexId) -> f64 {
        self.vwgt[v as usize]
    }

    /// Weight of edge `{u, v}`, or `None` if absent. O(log deg(u)).
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<f64> {
        if u == v {
            return None;
        }
        // Search the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let list = self.neighbors(a);
        list.binary_search(&b)
            .ok()
            .map(|pos| self.neighbor_weights(a)[pos])
    }

    /// `true` if edge `{u, v}` is present.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Sum of all undirected edge weights `Σ_e w(e)`.
    #[inline]
    pub fn total_edge_weight(&self) -> f64 {
        self.total_edge_weight
    }

    /// Sum of all vertex weights.
    #[inline]
    pub fn total_vertex_weight(&self) -> f64 {
        self.total_vertex_weight
    }

    /// Iterates every undirected edge once, as `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f64)> + '_ {
        (0..self.num_vertices() as VertexId).flat_map(move |u| {
            self.edges_of(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Iterates vertex ids `0..n`.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Maximum unweighted degree, 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Heap bytes held by the CSR arrays (plus the struct itself):
    /// `xadj` + `adjncy` + `adjwgt` + `vwgt` + `degw`. This is the size a
    /// byte-budgeted cache should account a resident graph at — it scales
    /// with `n` and `m`, not with the source text the graph was parsed
    /// from.
    pub fn csr_bytes(&self) -> usize {
        std::mem::size_of::<Graph>()
            + self.xadj.len() * std::mem::size_of::<usize>()
            + self.adjncy.len() * std::mem::size_of::<VertexId>()
            + self.adjwgt.len() * std::mem::size_of::<f64>()
            + self.vwgt.len() * std::mem::size_of::<f64>()
            + self.degw.len() * std::mem::size_of::<f64>()
    }

    /// Mean unweighted degree (2m/n), 0 for the empty graph.
    pub fn mean_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            self.adjncy.len() as f64 / n as f64
        }
    }

    /// Raw CSR row-offset array (`n + 1` entries). Exposed for linear-algebra
    /// assembly (Laplacian construction) without copying.
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw CSR adjacency array (`2m` entries).
    #[inline]
    pub fn adjncy(&self) -> &[VertexId] {
        &self.adjncy
    }

    /// Raw CSR edge-weight array (`2m` entries).
    #[inline]
    pub fn adjwgt(&self) -> &[f64] {
        &self.adjwgt
    }

    /// Builds an [`EdgeIndex`] assigning each undirected edge a dense id in
    /// `0..m` (ordered as [`Graph::edges`] yields them). O(m log d).
    pub fn edge_index(&self) -> EdgeIndex {
        let mut ids = vec![u32::MAX; self.adjncy.len()];
        let mut next = 0u32;
        for u in 0..self.num_vertices() {
            for idx in self.xadj[u]..self.xadj[u + 1] {
                let v = self.adjncy[idx] as usize;
                if u < v {
                    ids[idx] = next;
                    // mirror entry in v's row
                    let lo = self.xadj[v];
                    let pos = self.adjncy[lo..self.xadj[v + 1]]
                        .binary_search(&(u as VertexId))
                        .expect("graph symmetry");
                    ids[lo + pos] = next;
                    next += 1;
                }
            }
        }
        EdgeIndex {
            ids,
            num_edges: next as usize,
        }
    }
}

/// Dense undirected-edge ids for a [`Graph`] — lets per-edge state (e.g.
/// ant-colony pheromone) live in flat `Vec<f64>` arrays of length `m`.
#[derive(Clone, Debug)]
pub struct EdgeIndex {
    /// Edge id parallel to the graph's raw `adjncy` array.
    ids: Vec<u32>,
    num_edges: usize,
}

impl EdgeIndex {
    /// Number of undirected edges indexed.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Edge ids parallel to [`Graph::neighbors`] of `v`.
    #[inline]
    pub fn edge_ids_of(&self, g: &Graph, v: VertexId) -> &[u32] {
        let v = v as usize;
        &self.ids[g.xadj()[v]..g.xadj()[v + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(0, 2, 3.0);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_edge_weight(), 6.0);
        assert_eq!(g.total_vertex_weight(), 3.0);
    }

    #[test]
    fn neighbors_sorted() {
        let g = triangle();
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.edge_weight(1, 0), Some(1.0));
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(0, 2), Some(3.0));
        assert_eq!(g.edge_weight(0, 0), None);
    }

    #[test]
    fn degree_weight_cached() {
        let g = triangle();
        assert_eq!(g.degree_weight(0), 4.0);
        assert_eq!(g.degree_weight(1), 3.0);
        assert_eq!(g.degree_weight(2), 5.0);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 1.0), (0, 2, 3.0), (1, 2, 2.0)]);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.degree_weight(3), 0.0);
    }

    #[test]
    fn zero_weights_are_stored_positive() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, -0.0);
        b.add_edge(1, 2, -0.0);
        b.add_edge(1, 2, -0.0); // a merged pair of negative zeros
        b.add_edge(2, 3, 1.0);
        let g = b.build();
        for v in g.vertices() {
            for &w in g.neighbor_weights(v) {
                assert!(w.is_sign_positive(), "vertex {v} keeps a -0.0 weight");
            }
        }
        let direct = Graph::from_csr(vec![0, 1, 2], vec![1, 0], vec![-0.0, -0.0], vec![]);
        assert_eq!(direct.neighbor_weights(0)[0].to_bits(), 0);
        assert_eq!(direct.neighbor_weights(1)[0].to_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop_in_csr() {
        Graph::from_csr(vec![0, 1], vec![0], vec![1.0], vec![]);
    }

    #[test]
    #[should_panic(expected = "strictly sorted")]
    fn rejects_unsorted_adjacency() {
        // vertex 0 adjacent to 2 then 1 (unsorted)
        Graph::from_csr(
            vec![0, 2, 3, 4],
            vec![2, 1, 0, 0],
            vec![1.0, 1.0, 1.0, 1.0],
            vec![],
        );
    }

    #[test]
    fn max_and_mean_degree() {
        let g = triangle();
        assert_eq!(g.max_degree(), 2);
        assert!((g.mean_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn edge_index_consistent() {
        let g = triangle();
        let idx = g.edge_index();
        assert_eq!(idx.num_edges(), 3);
        // both directions of each edge share an id
        for v in g.vertices() {
            let ids = idx.edge_ids_of(&g, v);
            assert_eq!(ids.len(), g.degree(v));
            for (pos, &u) in g.neighbors(v).iter().enumerate() {
                let back_ids = idx.edge_ids_of(&g, u);
                let back_pos = g.neighbors(u).iter().position(|&x| x == v).unwrap();
                assert_eq!(ids[pos], back_ids[back_pos]);
            }
        }
        // ids are a permutation of 0..m
        let mut seen = [false; 3];
        for v in g.vertices() {
            for &id in idx.edge_ids_of(&g, v) {
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn csr_bytes_scales_with_n_and_m() {
        let small = triangle();
        // 4 entries of xadj, 6 of adjncy (u32), 6+3+3 f64s + struct.
        let expected = std::mem::size_of::<Graph>() + 4 * 8 + 6 * 4 + (6 + 3 + 3) * 8;
        assert_eq!(small.csr_bytes(), expected);
        let bigger = crate::generators::grid2d(20, 20);
        assert!(
            bigger.csr_bytes() > 10 * small.csr_bytes(),
            "400 vertices must account much larger than 3"
        );
    }
}
