//! The fusion and fission operators (§4.2).
//!
//! Partner choice, nucleon absorption and the crossover's fusions read
//! connection weights from a [`Connections`] gather the caller owns. A
//! [`FusionFissionRun`](crate::FusionFissionRun) owns one next to its
//! [`Percolator`], so both move with the run between epoch threads and a
//! step allocates no map. The gather lists parts by ascending id, which
//! fixes every candidate order and tie-break below.

use crate::config::FissionSplitter;
use ff_graph::{Graph, VertexId};
use ff_metaheur::percolation::{PercolationConfig, Percolator};
use ff_partition::{Connections, CutState, Partition};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Selects a fusion partner for atom `a`.
///
/// §4.2: "A second partition is selected according to its size, its
/// distance to the first one, and temperature." Distance is the inverse
/// connection weight, so the roulette weight is
/// `conn(a, b) / size(b)^size_bias`, sharpened as the system cools
/// (`weight^(1/τ)` with τ the normalized temperature): hot systems pick
/// almost uniformly among neighbors, cold ones almost always take the
/// closest small atom. Returns `None` when `a` has no neighboring atom.
///
/// The candidates are `a`'s neighbouring atoms by ascending part id, as
/// [`Connections::gather_part`] lists them into `conn`: one reached only
/// through zero-weight edges is a candidate too, and is what the uniform
/// fallback for all-zero scores picks among.
pub fn select_partner(
    st: &CutState,
    conn: &mut Connections,
    a: u32,
    t_norm: f64,
    size_bias: f64,
    rng: &mut ChaCha8Rng,
) -> Option<u32> {
    conn.gather_part(st.graph(), st.partition(), a);
    let cands = conn.parts();
    let &last = cands.last()?;
    let tau = t_norm.clamp(0.05, 1.0);
    let scores: Vec<f64> = cands
        .iter()
        .map(|&b| {
            let size = st.partition().part_size(b).max(1) as f64;
            (conn.weight(b) / size.powf(size_bias)).powf(1.0 / tau)
        })
        .collect();
    let total: f64 = scores.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        // Degenerate scores (all zero or overflow): uniform choice.
        return Some(cands[rng.gen_range(0..cands.len())]);
    }
    let mut roll = rng.gen::<f64>() * total;
    for (i, &s) in scores.iter().enumerate() {
        roll -= s;
        if roll <= 0.0 {
            return Some(cands[i]);
        }
    }
    Some(last)
}

/// Fuses atoms `a` and `b`: all nucleons of the smaller move into the
/// larger. Returns the surviving part id.
pub fn fuse(st: &mut CutState, a: u32, b: u32) -> u32 {
    assert_ne!(a, b, "cannot fuse an atom with itself");
    let (survivor, absorbed) = if st.partition().part_size(a) >= st.partition().part_size(b) {
        (a, b)
    } else {
        (b, a)
    };
    // Unordered member order is fine: the merged state is order-independent.
    for v in st.partition().part_members_unordered(absorbed).to_vec() {
        st.move_vertex(v, survivor);
    }
    survivor
}

/// The `count` least-bound nucleons of `part`: those with the smallest
/// internal-connection fraction of their weighted degree. Never selects
/// so many that the part would empty.
pub fn weakest_nucleons(st: &CutState, part: u32, count: usize) -> Vec<VertexId> {
    // Unordered is safe: the (binding, id) sort below fixes a total order.
    let members = st.partition().part_members_unordered(part).to_vec();
    if members.len() <= 1 || count == 0 {
        return Vec::new();
    }
    let take = count.min(members.len() - 1);
    let mut scored: Vec<(f64, VertexId)> = members
        .into_iter()
        .map(|v| {
            let degw = st.graph().degree_weight(v);
            let own: f64 = st
                .graph()
                .edges_of(v)
                .filter(|&(u, _)| st.partition().part_of(u) == part)
                .map(|(_, w)| w)
                .sum();
            let binding = if degw > 0.0 { own / degw } else { 0.0 };
            (binding, v)
        })
        .collect();
    // Partition the `take` smallest to the front, then order only that
    // prefix — same output as a full sort (the (binding, id) key is a total
    // order), O(n + take·log take) instead of O(n·log n).
    let cmp = |x: &(f64, VertexId), y: &(f64, VertexId)| {
        x.0.partial_cmp(&y.0).unwrap().then(x.1.cmp(&y.1))
    };
    if take < scored.len() {
        scored.select_nth_unstable_by(take, cmp);
        scored.truncate(take);
    }
    scored.sort_by(cmp);
    scored.into_iter().map(|(_, v)| v).collect()
}

/// Absorbs nucleon `v` into its best-connected *other* atom ("nfusion"),
/// gathering its connection weights into `conn`. No-op for a nucleon
/// with no external connections.
pub fn nfusion(st: &mut CutState, conn: &mut Connections, v: VertexId) {
    let own = st.partition().part_of(v);
    let mut best: Option<(u32, f64)> = None;
    conn.gather_vertex(st.graph(), st.partition(), v);
    // The gather lists parts by ascending id, so ties break low-id first.
    for (p, w) in conn.iter() {
        if p == own {
            continue;
        }
        if best.is_none_or(|(_, bw)| w > bw) {
            best = Some((p, w));
        }
    }
    if let Some((p, _)) = best {
        // Don't empty the source atom: a one-nucleon atom stays put (it
        // will be fused away by the main loop's choice function instead).
        if st.partition().part_size(own) > 1 {
            st.move_vertex(v, p);
        }
    }
}

/// Splits `part` in two. The new half gets a fresh part id, which is
/// returned; `None` when the atom has fewer than 2 nucleons.
///
/// The percolation splitter (§4.4) runs `perc` on the atom's sorted
/// members in place: no induced subgraph is built and nothing is
/// allocated per flow. A [`FusionFissionRun`](crate::FusionFissionRun)
/// owns the percolator it passes here, so the buffers move with the run
/// between threads. The splitter draws two `u64`s: the first spreads the
/// two seeds, and the second goes unused but is drawn so that the RNG
/// stream, and every result pinned on it, stays as it is.
pub fn fission_split(
    st: &mut CutState,
    part: u32,
    splitter: FissionSplitter,
    perc: &mut Percolator,
    rng: &mut ChaCha8Rng,
) -> Option<u32> {
    let members = st.partition().part_members(part);
    if members.len() < 2 {
        return None;
    }
    let half: Vec<VertexId> = match splitter {
        FissionSplitter::Percolation => {
            let cfg = PercolationConfig {
                max_rounds: 6,
                seed: rng.gen(),
            };
            let _: u64 = rng.gen(); // unused; keeps the stream
            let color = perc.percolate(st.graph(), &members, 2, &cfg);
            members
                .iter()
                .zip(color)
                .filter(|&(_, &c)| c == 1)
                .map(|(&v, _)| v)
                .collect()
        }
        FissionSplitter::RandomHalf => {
            let mut shuffled = members.clone();
            shuffled.shuffle(rng);
            shuffled.truncate(members.len() / 2);
            shuffled
        }
    };
    if half.is_empty() || half.len() == members.len() {
        return None; // degenerate split
    }
    let new_part = st.add_part();
    for v in half {
        st.move_vertex(v, new_part);
    }
    Some(new_part)
}

/// KaFFPaE-style overlap crossover of two molecules.
///
/// The *overlap* of parents `a` and `b` groups vertices by their pair of
/// part ids `(a(v), b(v))`: inside one overlap class both parents agree
/// the vertices belong together; every boundary where they disagree stays
/// cut. The child is then agglomerated back down to at most `k` atoms
/// with the fusion operator itself — repeatedly fuse the smallest atom
/// into its strongest-connected neighbor (ties broken by lowest part id)
/// — so only the disagreement region gets re-fused and the consensus
/// structure survives.
///
/// Fully deterministic (no RNG): a pure function of `(g, a, b, k)`. The
/// result is compacted to dense part ids. Isolated atoms with no
/// neighboring atom cannot fuse; if only such atoms remain the child may
/// keep more than `k` parts (the caller's accept test rejects bad
/// children anyway).
///
/// # Panics
///
/// Panics if the parents disagree with `g` on the vertex count.
pub fn overlap_combine(g: &Graph, a: &Partition, b: &Partition, k: usize) -> Partition {
    assert_eq!(a.num_vertices(), g.num_vertices(), "parent size mismatch");
    assert_eq!(b.num_vertices(), g.num_vertices(), "parent size mismatch");
    // Overlap classes, numbered in first-seen vertex order.
    let mut class_of: HashMap<(u32, u32), u32> = HashMap::new();
    let mut assignment = Vec::with_capacity(g.num_vertices());
    for v in g.vertices() {
        let key = (a.part_of(v), b.part_of(v));
        let next = class_of.len() as u32;
        assignment.push(*class_of.entry(key).or_insert(next));
    }
    let classes = class_of.len();
    let mut st = CutState::new(g, Partition::from_assignment(g, assignment, classes));
    let mut conn = Connections::with_parts(classes);
    while st.partition().num_nonempty_parts() > k {
        // Smallest live atom first (ties → lowest id); the first one with
        // a neighbor fuses into its strongest connection.
        let part = st.partition();
        let mut order: Vec<(usize, u32)> = (0..part.num_parts() as u32)
            .filter(|&p| part.part_size(p) > 0)
            .map(|p| (part.part_size(p), p))
            .collect();
        order.sort_unstable();
        let mut fused = false;
        for &(_, p) in &order {
            conn.gather_part(g, st.partition(), p); // ascending part ids
            let best = conn
                .iter()
                .fold(None::<(u32, f64)>, |acc, (q, w)| match acc {
                    Some((_, bw)) if bw >= w => acc,
                    _ => Some((q, w)),
                });
            if let Some((q, _)) = best {
                fuse(&mut st, p, q);
                fused = true;
                break;
            }
        }
        if !fused {
            break; // only isolated atoms remain
        }
    }
    let mut child = st.into_partition();
    child.compact();
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{grid2d, two_cliques_bridge};
    use ff_graph::Graph;
    use ff_partition::Partition;

    fn state(g: &Graph, asg: Vec<u32>, k: usize) -> CutState<'_> {
        CutState::new(g, Partition::from_assignment(g, asg, k))
    }

    #[test]
    fn part_connections_counts_boundary() {
        let g = ff_graph::generators::path(4); // 0-1-2-3
        let st = state(&g, vec![0, 0, 1, 2], 3);
        let mut conn = Connections::new();
        conn.gather_part(&g, st.partition(), 0);
        assert_eq!(conn.iter().collect::<Vec<_>>(), vec![(1, 1.0)]);
    }

    #[test]
    fn fuse_merges_into_larger() {
        let g = grid2d(2, 3);
        let mut st = state(&g, vec![0, 0, 0, 1, 1, 2], 3);
        let survivor = fuse(&mut st, 0, 1);
        assert_eq!(survivor, 0);
        assert_eq!(st.partition().part_size(0), 5);
        assert_eq!(st.partition().part_size(1), 0);
        assert!(st.drift() < 1e-9);
    }

    #[test]
    fn weakest_nucleons_are_boundary_ones() {
        let g = two_cliques_bridge(5, 2.0, 0.5);
        // Part 0 = clique A plus one vertex of clique B (vertex 5).
        let mut asg = vec![0u32; 10];
        for item in asg.iter_mut().skip(6) {
            *item = 1;
        }
        let st = state(&g, asg, 2);
        let weak = weakest_nucleons(&st, 0, 1);
        assert_eq!(weak, vec![5], "the stray clique-B vertex is least bound");
    }

    #[test]
    fn weakest_never_empties_part() {
        let g = grid2d(2, 2);
        let st = state(&g, vec![0, 0, 1, 1], 2);
        assert_eq!(weakest_nucleons(&st, 0, 10).len(), 1);
    }

    #[test]
    fn nfusion_moves_to_best_connected() {
        let g = two_cliques_bridge(5, 2.0, 0.5);
        let mut asg = vec![0u32; 10];
        for item in asg.iter_mut().skip(6) {
            *item = 1;
        }
        let mut st = state(&g, asg, 2);
        nfusion(&mut st, &mut Connections::new(), 5); // stray vertex rejoins clique B
        assert_eq!(st.partition().part_of(5), 1);
        assert!(st.drift() < 1e-9);
    }

    #[test]
    fn fission_splits_along_bridge() {
        let g = two_cliques_bridge(6, 2.0, 0.1);
        let mut st = state(&g, vec![0u32; 12], 1);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let new = fission_split(
            &mut st,
            0,
            FissionSplitter::Percolation,
            &mut Percolator::new(),
            &mut rng,
        )
        .expect("split must succeed");
        // The percolation split should cut only the bridge.
        assert!((st.cut() - 0.1).abs() < 1e-9, "cut = {}", st.cut());
        assert_eq!(
            st.partition().part_size(0) + st.partition().part_size(new),
            12
        );
    }

    #[test]
    fn fission_of_singleton_fails() {
        let g = grid2d(2, 2);
        let mut st = state(&g, vec![0, 1, 1, 1], 2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert!(fission_split(
            &mut st,
            0,
            FissionSplitter::Percolation,
            &mut Percolator::new(),
            &mut rng
        )
        .is_none());
    }

    #[test]
    fn random_half_splitter_works() {
        let g = grid2d(4, 4);
        let mut st = state(&g, vec![0u32; 16], 1);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let new = fission_split(
            &mut st,
            0,
            FissionSplitter::RandomHalf,
            &mut Percolator::new(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(st.partition().part_size(new), 8);
        assert!(st.drift() < 1e-9);
    }

    #[test]
    fn partner_selection_prefers_connected() {
        let g = ff_graph::generators::path(6); // 0-1-2-3-4-5
        let st = state(&g, vec![0, 0, 1, 1, 2, 2], 3);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut conn = Connections::new();
        // Cold system: part 0 must pick part 1 (its only neighbor).
        for _ in 0..20 {
            assert_eq!(
                select_partner(&st, &mut conn, 0, 0.05, 0.5, &mut rng),
                Some(1)
            );
        }
    }

    #[test]
    fn overlap_combine_keeps_consensus_and_hits_k() {
        let g = two_cliques_bridge(6, 2.0, 0.1);
        // Parent a: the ideal bisection. Parent b: one clique-A vertex
        // defected to the B side — the disagreement region is {5}.
        let a_asg: Vec<u32> = (0..12).map(|v| u32::from(v >= 6)).collect();
        let mut b_asg = a_asg.clone();
        b_asg[5] = 1;
        let a = Partition::from_assignment(&g, a_asg, 2);
        let b = Partition::from_assignment(&g, b_asg, 2);
        let child = overlap_combine(&g, &a, &b, 2);
        assert!(child.validate(&g));
        assert_eq!(child.num_nonempty_parts(), 2);
        // The disagreement vertex re-fuses into its strongest connection:
        // clique A (5 internal edges of weight 2 vs a 0.1 bridge).
        assert_eq!(child.part_of(5), child.part_of(0));
        // Consensus vertices never split.
        for v in 0..5 {
            assert_eq!(child.part_of(v), child.part_of(0));
        }
        for v in 6..12 {
            assert_eq!(child.part_of(v), child.part_of(6));
        }
    }

    #[test]
    fn overlap_combine_is_deterministic_and_order_sensitive_only_to_parents() {
        let g = grid2d(5, 5);
        let a = Partition::random(&g, 3, 7);
        let b = Partition::random(&g, 3, 8);
        let x = overlap_combine(&g, &a, &b, 3);
        let y = overlap_combine(&g, &a, &b, 3);
        assert_eq!(x.assignment(), y.assignment());
        assert_eq!(x.num_nonempty_parts(), 3); // connected grid: always reaches k
    }

    #[test]
    fn overlap_combine_identical_parents_is_the_parent() {
        let g = grid2d(4, 4);
        let a = Partition::from_assignment(&g, (0..16).map(|v| u32::from(v >= 8)).collect(), 2);
        let child = overlap_combine(&g, &a, &a, 2);
        assert_eq!(child.assignment(), a.assignment());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn overlap_combine_size_mismatch_panics() {
        let g = grid2d(2, 2);
        let h = grid2d(3, 3);
        let a = Partition::singletons(&g);
        let b = Partition::singletons(&h);
        overlap_combine(&g, &a, &b, 2);
    }

    #[test]
    fn partner_none_for_isolated_atom() {
        let mut b = ff_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let st = state(&g, vec![0, 0, 1], 2);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut conn = Connections::new();
        assert_eq!(select_partner(&st, &mut conn, 1, 0.5, 0.5, &mut rng), None);
    }
}
