//! Differential tests of [`coarsen`] against two naive contractions:
//!
//! * [`builder_contraction`], the contraction `coarsen` replaced: every
//!   fine edge goes through a [`GraphBuilder`], whose global sort leaves
//!   the summation order of parallel edges unspecified. It pins the
//!   projection, the neighbour lists and the vertex weights, and — on
//!   weights whose partial sums are exact — the edge weights too.
//! * [`ordered_map_contraction`], which sums each coarse edge `{c, d}`,
//!   `c < d`, in member-then-edge order of `c` through an ordered map. It
//!   pins every edge-weight bit.

use super::*;
use crate::generators::{planted_partition_sparse, random_geometric};
use crate::matching::random_matching;
use crate::GraphBuilder;
use std::collections::BTreeMap;

/// Today's contraction through `GraphBuilder`, as `coarsen` did it before
/// it built rows itself.
fn builder_contraction(g: &Graph, matching: &Matching) -> CoarseGraph {
    let n = g.num_vertices();
    let mut fine_to_coarse = vec![VertexId::MAX; n];
    let mut next = 0 as VertexId;
    for v in 0..n as VertexId {
        let m = matching.mate(v);
        if m < v {
            continue;
        }
        fine_to_coarse[v as usize] = next;
        if m != v {
            fine_to_coarse[m as usize] = next;
        }
        next += 1;
    }
    let nc = next as usize;
    let mut b = GraphBuilder::with_capacity(nc, g.num_edges());
    let mut cw = vec![0.0; nc];
    for v in 0..n as VertexId {
        cw[fine_to_coarse[v as usize] as usize] += g.vertex_weight(v);
    }
    for (c, &w) in cw.iter().enumerate() {
        b.set_vertex_weight(c as VertexId, w);
    }
    for (u, v, w) in g.edges() {
        b.add_edge(fine_to_coarse[u as usize], fine_to_coarse[v as usize], w);
    }
    CoarseGraph {
        graph: b.build(),
        fine_to_coarse,
    }
}

/// How many fine edges merged into each coarse edge, over one or more
/// contractions.
#[derive(Debug, Default)]
struct Merges {
    /// Coarse edges made of exactly three fine edges.
    three: usize,
    /// Coarse edges made of exactly four fine edges.
    four: usize,
    /// Coarse edges whose fine edges all weigh zero.
    zero_only: usize,
}

/// The contraction along `fine_to_coarse` with each coarse edge `{c, d}`,
/// `c < d`, summed through an ordered map in the documented order: `c`'s
/// members ascending, each member's edges in row order. Also counts, per
/// coarse edge, the fine edges that merged into it.
fn ordered_map_contraction(g: &Graph, fine_to_coarse: &[VertexId], merges: &mut Merges) -> Graph {
    let nc = fine_to_coarse
        .iter()
        .map(|&c| c as usize + 1)
        .max()
        .unwrap_or(0);
    let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); nc];
    let mut vwgt = vec![0.0; nc];
    for v in g.vertices() {
        let c = fine_to_coarse[v as usize] as usize;
        members[c].push(v);
        vwgt[c] += g.vertex_weight(v);
    }
    let mut rows: Vec<BTreeMap<VertexId, f64>> = vec![BTreeMap::new(); nc];
    for c in 0..nc {
        let mut upper: BTreeMap<VertexId, (f64, usize)> = BTreeMap::new();
        for &v in &members[c] {
            for (u, w) in g.edges_of(v) {
                let d = fine_to_coarse[u as usize];
                if d as usize > c {
                    let e = upper.entry(d).or_insert((0.0, 0));
                    e.0 += w;
                    e.1 += 1;
                }
            }
        }
        for (d, (w, count)) in upper {
            merges.three += usize::from(count == 3);
            merges.four += usize::from(count == 4);
            merges.zero_only += usize::from(w == 0.0);
            rows[c].insert(d, w);
            rows[d as usize].insert(c as VertexId, w);
        }
    }
    let mut xadj = vec![0];
    let (mut adjncy, mut adjwgt) = (Vec::new(), Vec::new());
    for row in rows {
        for (d, w) in row {
            adjncy.push(d);
            adjwgt.push(w);
        }
        xadj.push(adjncy.len());
    }
    Graph::from_csr(xadj, adjncy, adjwgt, vwgt)
}

fn bits(ws: impl IntoIterator<Item = f64>) -> Vec<u64> {
    ws.into_iter().map(f64::to_bits).collect()
}

fn vertex_weight_bits(g: &Graph) -> Vec<u64> {
    bits(g.vertices().map(|v| g.vertex_weight(v)))
}

/// Contracts `g` along `m` and checks the result against both references;
/// `exact` says every partial sum of `g`'s edge weights is exact, so the
/// builder's summation order cannot round differently.
fn check(g: &Graph, m: &Matching, exact: bool, merges: &mut Merges) -> CoarseGraph {
    let got = coarsen(g, m);
    let old = builder_contraction(g, m);
    assert_eq!(got.fine_to_coarse, old.fine_to_coarse);
    assert_eq!(got.graph.xadj(), old.graph.xadj());
    assert_eq!(got.graph.adjncy(), old.graph.adjncy());
    assert_eq!(
        vertex_weight_bits(&got.graph),
        vertex_weight_bits(&old.graph)
    );
    let naive = ordered_map_contraction(g, &got.fine_to_coarse, merges);
    assert_eq!(got.graph.adjncy(), naive.adjncy());
    assert_eq!(
        bits(got.graph.adjwgt().iter().copied()),
        bits(naive.adjwgt().iter().copied()),
        "edge weights must be summed in member-then-edge order of the lower endpoint"
    );
    if exact {
        assert_eq!(
            bits(got.graph.adjwgt().iter().copied()),
            bits(old.graph.adjwgt().iter().copied())
        );
    }
    got
}

/// Checks `coarsen` under heavy-edge and random matchings over `seeds`.
fn check_matchings(g: &Graph, seeds: std::ops::Range<u64>, exact: bool) -> Merges {
    let mut merges = Merges::default();
    for seed in seeds {
        check(g, &heavy_edge_matching(g, seed), exact, &mut merges);
        check(g, &random_matching(g, seed), exact, &mut merges);
    }
    merges
}

/// Checks every level of the hierarchy `Hierarchy::build` makes for
/// `(g, until, seed)` and that the hierarchy holds exactly those levels.
fn check_hierarchy(g: &Graph, until: usize, seed: u64, exact: bool) -> Merges {
    let h = Hierarchy::build(g, until, seed);
    assert!(h.num_levels() >= 3, "{} levels", h.num_levels());
    let mut merges = Merges::default();
    for (i, level) in h.levels().iter().enumerate() {
        let fine = h.graph_at(g, i);
        let m = heavy_edge_matching(fine, seed.wrapping_add(i as u64));
        let got = check(fine, &m, exact, &mut merges);
        assert_eq!(got.fine_to_coarse, level.fine_to_coarse);
        assert_eq!(
            bits(got.graph.adjwgt().iter().copied()),
            bits(level.graph.adjwgt().iter().copied())
        );
    }
    merges
}

/// A random geometric graph on `n` vertices plus `isolated` vertices with
/// no edge; every edge whose index is 3, 5 or 8 mod 10 weighs zero.
fn with_zero_weights(n: usize, isolated: usize, seed: u64) -> Graph {
    let base = random_geometric(n, 0.05, seed);
    let mut b = GraphBuilder::with_capacity(n + isolated, base.num_edges());
    for (i, (u, v, w)) in base.edges().enumerate() {
        let zero = matches!(i % 10, 3 | 5 | 8);
        b.add_edge(u, v, if zero { 0.0 } else { w });
    }
    b.build()
}

#[test]
fn exact_weights_match_both_references() {
    for seed in 1..4 {
        let g = planted_partition_sparse(10, 200, 0.1, 1e-3, seed);
        let merges = check_matchings(&g, 0..4, true);
        assert!(merges.three > 0 && merges.four > 0, "{merges:?}");
    }
}

#[test]
fn rounding_weights_are_summed_in_the_lower_endpoints_order() {
    let mut merges = Merges::default();
    for seed in 1..4 {
        let g = random_geometric(1500, 0.05, seed);
        let m = check_matchings(&g, 0..4, false);
        merges.three += m.three;
        merges.four += m.four;
    }
    assert!(merges.three > 0 && merges.four > 0, "{merges:?}");
}

#[test]
fn zero_weight_coarse_edges_stay_edges() {
    for seed in 1..4 {
        let g = with_zero_weights(1200, 40, seed);
        assert!((1200..1240).all(|v| g.degree(v) == 0));
        let merges = check_matchings(&g, 0..4, false);
        assert!(merges.zero_only > 0, "{merges:?}");
    }
}

#[test]
fn empty_and_single_vertex_graphs() {
    for n in 0..2 {
        let g = GraphBuilder::new(n).build();
        let mut merges = Merges::default();
        let c = check(&g, &heavy_edge_matching(&g, 1), true, &mut merges);
        assert_eq!(c.graph.num_vertices(), n);
        assert_eq!(c.graph.num_edges(), 0);
    }
}

#[test]
fn whole_hierarchies_match_both_references() {
    let planted = planted_partition_sparse(10, 1000, 0.008, 2e-5, 1);
    let m = check_hierarchy(&planted, 300, 7, true);
    assert!(m.three > 0 && m.four > 0, "{m:?}");
    for seed in 1..3 {
        let m = check_hierarchy(&random_geometric(2000, 0.04, seed), 100, seed, false);
        assert!(m.three > 0 && m.four > 0, "{m:?}");
        let m = check_hierarchy(&with_zero_weights(1500, 30, seed), 100, seed, false);
        assert!(m.zero_only > 0, "{m:?}");
    }
}
