//! Graph contraction along a matching (the multilevel "coarsen" step).
//!
//! Matched pairs `{a, b}` become one coarse vertex whose weight is
//! `vwgt(a) + vwgt(b)`; unmatched vertices map through unchanged. Edges
//! between coarse vertices merge by summing weights; the edge *inside* a
//! contracted pair disappears (it becomes coarse-vertex-internal weight).
//!
//! Total vertex weight is preserved exactly. Total edge weight decreases by
//! exactly the weight of the matched edges — the quantity heavy-edge
//! matching maximizes.
//!
//! # How a level is built
//!
//! [`coarsen`] builds the coarse CSR row by row, in O(n + m) for a fine
//! graph of n vertices and m edges, with no sort of the edge list:
//!
//! 1. *Upper pass.* For each coarse vertex `c`, ascending, walk its
//!    members (one or two, ascending fine id) and each member's row, and
//!    add the weight of every edge into a coarse vertex `d > c` to a dense
//!    slot for `d`. A marker lists `d` on first touch, so a coarse edge
//!    whose fine edges all weigh zero stays an edge. Then `c`'s upper
//!    entries are emitted and only the slots `c` touched are reset.
//! 2. *Mirror.* Row `x` is its lower entries (from every `c < x`,
//!    ascending) followed by its upper entries (ascending). One scatter
//!    writes each upper entry `(c, d)` into row `d`'s lower part, in
//!    ascending `c`; a second walks the rows `d` ascending and appends `d`
//!    to the upper part of each lower neighbour `c`.
//!
//! **Summation rule.** The weight of coarse edge `{c, d}`, `c < d`, is the
//! sum of its fine edges in member-then-edge order of `c`, the order
//! `Connections::gather_part` (ff-partition) sums a part in. It is computed
//! once and written to both rows, so the coarse graph is symmetric bit for
//! bit. At most four fine edges merge into one coarse edge per level, and
//! two addends commute exactly, so another order could differ only where
//! three or four merge and a partial sum rounds; weights whose partial
//! sums are all exact (integers and halves) coarsen to the same bits in
//! any order.

use crate::matching::heavy_edge_matching;
use crate::{Graph, Matching, VertexId};

#[cfg(test)]
mod reference;

/// Result of one coarsening step: the coarse graph plus the fine→coarse
/// projection map.
#[derive(Clone, Debug)]
pub struct CoarseGraph {
    /// The contracted graph.
    pub graph: Graph,
    /// `fine_to_coarse[v]` is the coarse vertex containing fine vertex `v`.
    pub fine_to_coarse: Vec<VertexId>,
}

impl CoarseGraph {
    /// Projects a coarse-level partition assignment back to the fine level.
    pub fn project(&self, coarse_assignment: &[u32]) -> Vec<u32> {
        self.fine_to_coarse
            .iter()
            .map(|&c| coarse_assignment[c as usize])
            .collect()
    }
}

/// A stack of coarsening levels built by repeated heavy-edge contraction.
///
/// Only the *coarse* levels are stored — the finest graph stays with the
/// caller (at 10^6 vertices a clone of the input would dominate memory).
/// `levels()[0]` contracts the input graph; `levels()[i]` contracts
/// `levels()[i-1].graph`.
#[derive(Clone, Debug, Default)]
pub struct Hierarchy {
    levels: Vec<CoarseGraph>,
}

impl Hierarchy {
    /// Coarsens `g` by heavy-edge matching until the coarsest level has at
    /// most `coarsen_until` vertices, the matching finds no pair, or a
    /// round shrinks the graph by less than 10 % (diminishing returns —
    /// that level is discarded).
    ///
    /// Level `i` uses matching seed `seed.wrapping_add(i)`, so the whole
    /// stack is a pure function of `(g, coarsen_until, seed)`.
    pub fn build(g: &Graph, coarsen_until: usize, seed: u64) -> Hierarchy {
        let mut levels: Vec<CoarseGraph> = Vec::new();
        loop {
            let cur: &Graph = match levels.last() {
                Some(l) => &l.graph,
                None => g,
            };
            if cur.num_vertices() <= coarsen_until {
                break;
            }
            let level = levels.len() as u64;
            let m = heavy_edge_matching(cur, seed.wrapping_add(level));
            if m.num_pairs() == 0 {
                break;
            }
            let before = cur.num_vertices();
            let c = coarsen(cur, &m);
            if (c.graph.num_vertices() as f64) > 0.9 * before as f64 {
                break; // diminishing returns; discard this level
            }
            levels.push(c);
        }
        Hierarchy { levels }
    }

    /// The coarse levels, finest-first. Empty when the input was already at
    /// or below the target size.
    pub fn levels(&self) -> &[CoarseGraph] {
        &self.levels
    }

    /// Number of coarse levels.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The coarsest graph in the stack; `fine` itself when the stack is
    /// empty. Pass the same graph the hierarchy was built from.
    pub fn coarsest<'a>(&'a self, fine: &'a Graph) -> &'a Graph {
        match self.levels.last() {
            Some(l) => &l.graph,
            None => fine,
        }
    }

    /// The graph at `level` (0 = the input graph itself, `num_levels()` =
    /// the coarsest). Pass the same graph the hierarchy was built from.
    pub fn graph_at<'a>(&'a self, fine: &'a Graph, level: usize) -> &'a Graph {
        if level == 0 {
            fine
        } else {
            &self.levels[level - 1].graph
        }
    }

    /// Pops coarsest levels while they have fewer than `min` vertices.
    /// Safety net for tiny inputs: contraction at most halves per round,
    /// but a caller that needs ≥ k coarse vertices can enforce it here.
    pub fn trim_to_min_vertices(&mut self, min: usize) {
        while self
            .levels
            .last()
            .is_some_and(|l| l.graph.num_vertices() < min)
        {
            self.levels.pop();
        }
    }

    /// Projects a coarsest-level assignment all the way down to the input
    /// graph in one shot (no per-level refinement).
    pub fn project_to_finest(&self, coarse_assignment: &[u32]) -> Vec<u32> {
        let mut asg = coarse_assignment.to_vec();
        for lvl in self.levels.iter().rev() {
            asg = lvl.project(&asg);
        }
        asg
    }
}

/// Contracts `g` along `matching` in O(n + m) (see the module docs for
/// how the coarse rows are built and how parallel edges are summed).
///
/// # Panics
///
/// Panics if `matching` is for a different vertex count or is not a valid
/// involution.
pub fn coarsen(g: &Graph, matching: &Matching) -> CoarseGraph {
    let n = g.num_vertices();
    assert_eq!(matching.num_vertices(), n, "matching/graph size mismatch");
    assert!(matching.is_valid(), "matching must be an involution");

    // Assign coarse ids: representative of a pair is the smaller endpoint.
    let mut fine_to_coarse = vec![VertexId::MAX; n];
    let mut next = 0 as VertexId;
    for v in 0..n as VertexId {
        let m = matching.mate(v);
        if m < v {
            continue; // mate already claimed an id for the pair
        }
        fine_to_coarse[v as usize] = next;
        if m != v {
            fine_to_coarse[m as usize] = next;
        }
        next += 1;
    }
    let nc = next as usize;

    // Coarse vertex weights.
    let mut cw = vec![0.0; nc];
    for v in 0..n as VertexId {
        cw[fine_to_coarse[v as usize] as usize] += g.vertex_weight(v);
    }

    // Upper pass: coarse vertex `c`'s entries into every `d > c`, in
    // first-touch order. Each fine edge gives at most one upper entry, so
    // the fine edge count bounds them.
    let mut upper_start = Vec::with_capacity(nc + 1);
    let mut upper_adj: Vec<VertexId> = Vec::with_capacity(g.num_edges());
    let mut upper_wgt: Vec<f64> = Vec::with_capacity(g.num_edges());
    let mut slot = vec![0.0; nc];
    let mut listed = vec![false; nc];
    // Row degrees, shifted by one so the prefix sum below leaves `xadj`.
    let mut xadj = vec![0usize; nc + 1];
    upper_start.push(0);
    for v in 0..n as VertexId {
        let m = matching.mate(v);
        if m < v {
            continue;
        }
        let c = fine_to_coarse[v as usize];
        let members = [v, m];
        let members = if m == v { &members[..1] } else { &members[..] };
        let row_start = upper_adj.len();
        for &x in members {
            for (&u, &w) in g.neighbors(x).iter().zip(g.neighbor_weights(x)) {
                let d = fine_to_coarse[u as usize];
                if d <= c {
                    continue; // internal to `c`, or summed in `d`'s row
                }
                if !listed[d as usize] {
                    listed[d as usize] = true;
                    upper_adj.push(d);
                }
                slot[d as usize] += w;
            }
        }
        for &d in &upper_adj[row_start..] {
            upper_wgt.push(slot[d as usize]);
            slot[d as usize] = 0.0;
            listed[d as usize] = false;
            xadj[d as usize + 1] += 1;
        }
        xadj[c as usize + 1] += upper_adj.len() - row_start;
        upper_start.push(upper_adj.len());
    }
    for c in 0..nc {
        xadj[c + 1] += xadj[c];
    }
    let nnz = xadj[nc];
    let mut adjncy = vec![0 as VertexId; nnz];
    let mut adjwgt = vec![0.0; nnz];
    // `cursor[x]` walks row `x`: through its lower part in the first
    // scatter, then through its upper part in the second.
    let mut cursor = xadj[..nc].to_vec();
    for c in 0..nc {
        for k in upper_start[c]..upper_start[c + 1] {
            let d = upper_adj[k] as usize;
            adjncy[cursor[d]] = c as VertexId;
            adjwgt[cursor[d]] = upper_wgt[k];
            cursor[d] += 1;
        }
    }
    // When the second scatter reaches row `d`, `cursor[d]` still ends its
    // lower part: only rows above `d`, walked later, advance it.
    for d in 0..nc {
        for k in xadj[d]..cursor[d] {
            let c = adjncy[k] as usize;
            adjncy[cursor[c]] = d as VertexId;
            adjwgt[cursor[c]] = adjwgt[k];
            cursor[c] += 1;
        }
    }

    CoarseGraph {
        graph: Graph::from_csr(xadj, adjncy, adjwgt, cw),
        fine_to_coarse,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid2d, planted_partition_sparse, random_geometric};
    use crate::matching::heavy_edge_matching;

    /// 64-bit FNV-1a, folded into `h`.
    fn fnv1a(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The whole stack of a sparse planted partition whose edge weights
    /// (4, 1 and 0.5) keep every partial sum exact, so its bytes do not
    /// depend on the order in which parallel edges are summed.
    #[test]
    fn hierarchy_golden() {
        let g = planted_partition_sparse(10, 1000, 0.008, 2e-5, 1);
        let h = Hierarchy::build(&g, 300, 7);
        let shape: Vec<(usize, usize)> = h
            .levels()
            .iter()
            .map(|l| (l.graph.num_vertices(), l.graph.num_edges()))
            .collect();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for l in h.levels() {
            let c = &l.graph;
            for &x in c.xadj() {
                fnv1a(&mut digest, &(x as u64).to_le_bytes());
            }
            for &u in c.adjncy() {
                fnv1a(&mut digest, &u.to_le_bytes());
            }
            for &w in c.adjwgt() {
                fnv1a(&mut digest, &w.to_bits().to_le_bytes());
            }
            for v in c.vertices() {
                fnv1a(&mut digest, &c.vertex_weight(v).to_bits().to_le_bytes());
            }
            for &f in &l.fine_to_coarse {
                fnv1a(&mut digest, &f.to_le_bytes());
            }
        }
        assert_eq!(h.num_levels(), 6);
        assert_eq!(
            shape,
            [
                (5280, 45339),
                (2784, 41083),
                (1452, 34182),
                (753, 21123),
                (391, 8149),
                (199, 2973)
            ]
        );
        assert_eq!(digest, 0x2afe_2ae2_0294_3302, "{digest:#018x}");
    }

    #[test]
    fn coarse_count_matches_pairs() {
        let g = grid2d(4, 4);
        let m = heavy_edge_matching(&g, 1);
        let c = coarsen(&g, &m);
        assert_eq!(c.graph.num_vertices(), g.num_vertices() - m.num_pairs());
    }

    #[test]
    fn vertex_weight_preserved() {
        let g = random_geometric(80, 0.25, 11);
        let m = heavy_edge_matching(&g, 2);
        let c = coarsen(&g, &m);
        assert!(
            (c.graph.total_vertex_weight() - g.total_vertex_weight()).abs() < 1e-9,
            "total vertex weight must be invariant under contraction"
        );
    }

    #[test]
    fn edge_weight_decreases_by_matched_weight() {
        let g = random_geometric(60, 0.3, 3);
        let m = heavy_edge_matching(&g, 4);
        let matched_weight: f64 = g
            .edges()
            .filter(|&(u, v, _)| m.mate(u) == v)
            .map(|(_, _, w)| w)
            .sum();
        let c = coarsen(&g, &m);
        assert!(
            (g.total_edge_weight() - c.graph.total_edge_weight() - matched_weight).abs() < 1e-9
        );
    }

    #[test]
    fn projection_roundtrip() {
        let g = grid2d(5, 5);
        let m = heavy_edge_matching(&g, 7);
        let c = coarsen(&g, &m);
        // assign coarse vertices alternately, project, check consistency
        let ca: Vec<u32> = (0..c.graph.num_vertices() as u32).map(|i| i % 3).collect();
        let fa = c.project(&ca);
        for v in g.vertices() {
            assert_eq!(fa[v as usize], ca[c.fine_to_coarse[v as usize] as usize]);
        }
        // mates land in the same part
        for v in g.vertices() {
            let mate = m.mate(v);
            assert_eq!(fa[v as usize], fa[mate as usize]);
        }
    }

    #[test]
    fn hierarchy_reaches_target_and_projects() {
        let g = random_geometric(200, 0.15, 9);
        let h = Hierarchy::build(&g, 24, 5);
        assert!(h.num_levels() >= 1);
        assert!(h.coarsest(&g).num_vertices() <= 200);
        // Each level shrinks by ≥ 10 %.
        let mut prev = g.num_vertices();
        for lvl in h.levels() {
            let nv = lvl.graph.num_vertices();
            assert!((nv as f64) <= 0.9 * prev as f64);
            prev = nv;
        }
        // Projection composes level-by-level projections.
        let nc = h.coarsest(&g).num_vertices();
        let ca: Vec<u32> = (0..nc as u32).map(|i| i % 3).collect();
        let fa = h.project_to_finest(&ca);
        assert_eq!(fa.len(), g.num_vertices());
        let mut step = ca;
        for lvl in h.levels().iter().rev() {
            step = lvl.project(&step);
        }
        assert_eq!(fa, step);
        // Vertex weight is preserved through the whole stack.
        assert!((h.coarsest(&g).total_vertex_weight() - g.total_vertex_weight()).abs() < 1e-9);
    }

    #[test]
    fn hierarchy_empty_for_small_input() {
        let g = grid2d(3, 3);
        let h = Hierarchy::build(&g, 16, 1);
        assert_eq!(h.num_levels(), 0);
        assert_eq!(h.coarsest(&g).num_vertices(), 9);
        let asg = vec![0u32, 1, 0, 1, 0, 1, 0, 1, 0];
        assert_eq!(h.project_to_finest(&asg), asg);
    }

    #[test]
    fn hierarchy_deterministic() {
        let g = random_geometric(150, 0.18, 3);
        let a = Hierarchy::build(&g, 20, 11);
        let b = Hierarchy::build(&g, 20, 11);
        assert_eq!(a.num_levels(), b.num_levels());
        for (x, y) in a.levels().iter().zip(b.levels()) {
            assert_eq!(x.fine_to_coarse, y.fine_to_coarse);
        }
    }

    #[test]
    fn hierarchy_trim_enforces_floor() {
        let g = random_geometric(200, 0.15, 9);
        let mut h = Hierarchy::build(&g, 4, 5);
        h.trim_to_min_vertices(30);
        assert!(h.coarsest(&g).num_vertices() >= 30);
    }

    #[test]
    fn repeated_coarsening_shrinks() {
        let mut g = grid2d(10, 10);
        for level in 0..4 {
            let before = g.num_vertices();
            let m = heavy_edge_matching(&g, level);
            if m.num_pairs() == 0 {
                break;
            }
            let c = coarsen(&g, &m);
            assert!(c.graph.num_vertices() < before);
            g = c.graph;
        }
        assert!(g.num_vertices() <= 13, "4 rounds should reach ≲ n/8");
    }
}
