//! Induced subgraph extraction with back-mapping.
//!
//! Used by recursive bisection (spectral and multilevel: partition one
//! side further). Fusion–fission's fission operator does not build one: it
//! percolates an atom in place (`ff_metaheur::Percolator`).

use crate::{Graph, VertexId};

/// An induced subgraph together with the mapping back to the parent graph.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The induced graph: vertex `i` corresponds to `to_parent[i]`.
    pub graph: Graph,
    /// Subgraph vertex → parent vertex.
    pub to_parent: Vec<VertexId>,
}

impl Subgraph {
    /// Translates a subgraph vertex id to the parent graph's id.
    #[inline]
    pub fn parent_of(&self, sub_v: VertexId) -> VertexId {
        self.to_parent[sub_v as usize]
    }
}

/// Extracts the subgraph induced by `members` (parent vertex ids, any order,
/// duplicates rejected). Vertex weights carry over; only edges with both
/// endpoints in `members` survive.
///
/// The parent's rows are already strictly sorted, loop-free and
/// symmetric, so each row is copied straight into the CSR, re-sorted by
/// subgraph id only when `members` is not ascending. The result equals
/// what [`crate::GraphBuilder`] assembles from the same edges.
///
/// # Panics
///
/// Panics on out-of-range or duplicate member ids.
pub fn induced_subgraph(g: &Graph, members: &[VertexId]) -> Subgraph {
    let n = g.num_vertices();
    let mut to_sub = vec![VertexId::MAX; n];
    for (i, &v) in members.iter().enumerate() {
        assert!((v as usize) < n, "member {v} out of range");
        assert!(to_sub[v as usize] == VertexId::MAX, "duplicate member {v}");
        to_sub[v as usize] = i as VertexId;
    }
    let mut xadj = Vec::with_capacity(members.len() + 1);
    xadj.push(0);
    let mut adjncy = Vec::new();
    let mut adjwgt = Vec::new();
    let mut row: Vec<(VertexId, f64)> = Vec::new();
    for &v in members {
        row.clear();
        row.extend(
            g.edges_of(v)
                .map(|(u, w)| (to_sub[u as usize], w))
                .filter(|&(su, _)| su != VertexId::MAX),
        );
        if !row.is_sorted_by_key(|&(su, _)| su) {
            row.sort_unstable_by_key(|&(su, _)| su);
        }
        adjncy.extend(row.iter().map(|&(su, _)| su));
        adjwgt.extend(row.iter().map(|&(_, w)| w));
        xadj.push(adjncy.len());
    }
    let vwgt = members.iter().map(|&v| g.vertex_weight(v)).collect();
    Subgraph {
        graph: Graph::from_csr(xadj, adjncy, adjwgt, vwgt),
        to_parent: members.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid2d, two_cliques_bridge};

    #[test]
    fn extracts_clique_side() {
        let g = two_cliques_bridge(4, 2.0, 0.5); // vertices 0..4 and 4..8
        let s = induced_subgraph(&g, &[0, 1, 2, 3]);
        assert_eq!(s.graph.num_vertices(), 4);
        assert_eq!(s.graph.num_edges(), 6); // K4
        for (_, _, w) in s.graph.edges() {
            assert_eq!(w, 2.0); // bridge (weight 0.5) must be absent
        }
    }

    #[test]
    fn back_mapping() {
        let g = grid2d(3, 3);
        let members = vec![4, 1, 7]; // arbitrary order
        let s = induced_subgraph(&g, &members);
        assert_eq!(s.parent_of(0), 4);
        assert_eq!(s.parent_of(1), 1);
        assert_eq!(s.parent_of(2), 7);
        // edges 1-4 and 4-7 exist in the grid; 1-7 does not
        assert!(s.graph.has_edge(0, 1));
        assert!(s.graph.has_edge(0, 2));
        assert!(!s.graph.has_edge(1, 2));
    }

    #[test]
    fn vertex_weights_carry_over() {
        let mut b = crate::GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.set_vertex_weight(1, 6.0);
        let g = b.build();
        let s = induced_subgraph(&g, &[1, 2]);
        assert_eq!(s.graph.vertex_weight(0), 6.0);
        assert_eq!(s.graph.vertex_weight(1), 1.0);
        assert_eq!(s.graph.num_edges(), 0);
    }

    /// The subgraph as `GraphBuilder` assembles it from the same edges.
    fn built_reference(g: &Graph, members: &[VertexId]) -> Graph {
        let mut to_sub = vec![VertexId::MAX; g.num_vertices()];
        for (i, &v) in members.iter().enumerate() {
            to_sub[v as usize] = i as VertexId;
        }
        let mut b = crate::GraphBuilder::new(members.len());
        for (i, &v) in members.iter().enumerate() {
            b.set_vertex_weight(i as VertexId, g.vertex_weight(v));
            for (u, w) in g.edges_of(v) {
                if to_sub[u as usize] != VertexId::MAX && u > v {
                    b.add_edge(i as VertexId, to_sub[u as usize], w);
                }
            }
        }
        b.build()
    }

    #[test]
    fn direct_csr_matches_builder_for_any_member_order() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        let mut b = crate::GraphBuilder::new(60);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for v in 0..60 {
            b.set_vertex_weight(v, rng.gen_range(0.5..2.0));
            for _ in 0..4 {
                b.add_edge(v, rng.gen_range(0..60u32), rng.gen_range(0.1..3.0));
            }
        }
        let g = b.build();
        for round in 0..20 {
            let mut members: Vec<VertexId> = (0..60).filter(|_| rng.gen_bool(0.6)).collect();
            if round % 2 == 1 {
                members.shuffle(&mut rng);
            }
            let s = induced_subgraph(&g, &members);
            let r = built_reference(&g, &members);
            assert_eq!(s.graph.xadj(), r.xadj(), "round {round}");
            assert_eq!(s.graph.adjncy(), r.adjncy(), "round {round}");
            let bits = |h: &Graph| h.adjwgt().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&s.graph), bits(&r), "round {round}");
            for v in r.vertices() {
                assert_eq!(s.graph.vertex_weight(v), r.vertex_weight(v));
                assert_eq!(
                    s.graph.degree_weight(v).to_bits(),
                    r.degree_weight(v).to_bits()
                );
            }
            assert_eq!(
                s.graph.total_edge_weight().to_bits(),
                r.total_edge_weight().to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn rejects_duplicates() {
        let g = grid2d(2, 2);
        induced_subgraph(&g, &[0, 0]);
    }

    #[test]
    fn empty_selection() {
        let g = grid2d(2, 2);
        let s = induced_subgraph(&g, &[]);
        assert_eq!(s.graph.num_vertices(), 0);
    }
}
