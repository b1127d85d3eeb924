//! Greedy k-way boundary refinement for arbitrary objectives.
//!
//! METIS-style: sweep the vertices; for each, evaluate the objective delta
//! of moving it to each *neighboring* part (the only moves that can reduce
//! any of the three criteria) and apply the best strictly-improving
//! admissible move. Repeat until a sweep makes no move. Works for Cut,
//! Ncut and Mcut because it delegates deltas to the objective's own
//! formula, [`CutState::move_delta_with`].
//!
//! Each visit walks the vertex's edges once: a [`Connections`] gather
//! sums its weight into every neighbouring part, and every candidate's
//! delta is computed from the gathered weights of the source and the
//! target part. They are the sums [`CutState::move_delta`] would make,
//! in the same edge order, so the deltas are bit-identical to it. The
//! sweep owns one scratch, so a visit allocates nothing.

use crate::balance::BalanceConstraint;
use crate::connections::Connections;
use crate::objective::{CutState, Objective};
use ff_graph::VertexId;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Options for [`greedy_refine_kway`].
#[derive(Clone, Copy, Debug)]
pub struct GreedyOptions {
    /// Maximum sweeps (default 12).
    pub max_passes: usize,
    /// Balance band parts must stay inside.
    pub balance: BalanceConstraint,
    /// Seed for the sweep order shuffle.
    pub seed: u64,
    /// Never empty a part (default true — the paper's k-partition must keep
    /// k non-empty parts).
    pub keep_parts_nonempty: bool,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            max_passes: 12,
            balance: BalanceConstraint::unconstrained(),
            seed: 1,
            keep_parts_nonempty: true,
        }
    }
}

/// Greedily refines `st` under `obj`. Returns the number of moves applied.
pub fn greedy_refine_kway(st: &mut CutState, obj: Objective, opts: &GreedyOptions) -> usize {
    let mut conn = Connections::with_parts(st.partition().num_parts());
    sweep(st, opts, |st, v| {
        best_move(st, obj, &opts.balance, &mut conn, v)
    })
}

/// Shuffled passes over every vertex, applying the move `choose` picks
/// for each visited vertex, until a pass moves nothing or `max_passes`
/// run out. A vertex alone in its part is not visited while
/// `keep_parts_nonempty` holds. Returns the number of moves applied.
fn sweep(
    st: &mut CutState,
    opts: &GreedyOptions,
    mut choose: impl FnMut(&CutState, VertexId) -> Option<(u32, f64)>,
) -> usize {
    let mut order: Vec<VertexId> = st.graph().vertices().collect();
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let mut moves_total = 0usize;

    for _pass in 0..opts.max_passes {
        order.shuffle(&mut rng);
        let mut moved_this_pass = 0usize;
        for &v in &order {
            let from = st.partition().part_of(v);
            if opts.keep_parts_nonempty && st.partition().part_size(from) <= 1 {
                continue;
            }
            if let Some((to, _)) = choose(st, v) {
                st.move_vertex(v, to);
                moved_this_pass += 1;
            }
        }
        moves_total += moved_this_pass;
        if moved_this_pass == 0 {
            break;
        }
    }
    moves_total
}

/// The best strictly improving move of `v` that `balance` admits, as
/// `(target, delta)`; among equal deltas the lowest part id wins. The
/// candidates are the parts `v`'s neighbours are in, gathered into
/// `conn`.
fn best_move(
    st: &CutState,
    obj: Objective,
    balance: &BalanceConstraint,
    conn: &mut Connections,
    v: VertexId,
) -> Option<(u32, f64)> {
    let from = st.partition().part_of(v);
    conn.gather_vertex(st.graph(), st.partition(), v);
    let conn_from = conn.weight(from);
    let mut best: Option<(u32, f64)> = None;
    // Ascending part ids, so ties keep the lowest.
    for (to, conn_to) in conn.iter() {
        if to == from {
            continue;
        }
        if !balance.allows_move(
            st.partition().part_weight(from),
            st.partition().part_weight(to),
            st.graph().vertex_weight(v),
        ) {
            continue;
        }
        let delta = st.move_delta_with(obj, v, to, conn_from, conn_to);
        if delta < -1e-12 && best.is_none_or(|(_, bd)| delta < bd) {
            best = Some((to, delta));
        }
    }
    best
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;
    use ff_graph::generators::{planted_partition, random_geometric};

    #[test]
    fn improves_each_objective() {
        let g = random_geometric(80, 0.22, 4);
        for obj in Objective::all() {
            let p = Partition::random(&g, 4, 9);
            let mut st = CutState::new(&g, p);
            let before = st.objective(obj);
            greedy_refine_kway(&mut st, obj, &GreedyOptions::default());
            let after = st.objective(obj);
            assert!(
                after <= before || (before.is_infinite() && after.is_finite()),
                "{obj}: {before} → {after}"
            );
            assert!(st.drift() < 1e-8);
        }
    }

    #[test]
    fn keeps_parts_nonempty() {
        let g = random_geometric(30, 0.4, 5);
        let p = Partition::random(&g, 6, 11);
        let k_before = p.num_nonempty_parts();
        let mut st = CutState::new(&g, p);
        greedy_refine_kway(&mut st, Objective::Cut, &GreedyOptions::default());
        assert_eq!(st.partition().num_nonempty_parts(), k_before);
    }

    #[test]
    fn finds_planted_communities() {
        let g = planted_partition(3, 12, 0.9, 0.02, 7);
        // Start from a noisy version of the planted assignment.
        let mut asg: Vec<u32> = (0..36).map(|v| (v / 12) as u32).collect();
        asg[0] = 1;
        asg[13] = 2;
        asg[25] = 0;
        let p = Partition::from_assignment(&g, asg, 3);
        let mut st = CutState::new(&g, p);
        let moves = greedy_refine_kway(&mut st, Objective::Cut, &GreedyOptions::default());
        assert!(moves >= 3, "should fix the three misplaced vertices");
        // After refinement every group should be pure.
        for group in 0..3u32 {
            let members = st
                .partition()
                .part_members(st.partition().part_of((group * 12) as VertexId));
            assert_eq!(members.len(), 12);
        }
    }

    #[test]
    fn respects_balance() {
        let g = random_geometric(60, 0.25, 8);
        let p = Partition::block(&g, 3);
        let balance = BalanceConstraint::with_tolerance(g.total_vertex_weight(), 3, 0.15);
        let mut st = CutState::new(&g, p);
        greedy_refine_kway(
            &mut st,
            Objective::Cut,
            &GreedyOptions {
                balance,
                ..Default::default()
            },
        );
        for part in 0..3u32 {
            assert!(balance.contains(st.partition().part_weight(part)));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = random_geometric(50, 0.3, 12);
        let run = |seed| {
            let p = Partition::random(&g, 4, 1);
            let mut st = CutState::new(&g, p);
            greedy_refine_kway(
                &mut st,
                Objective::MCut,
                &GreedyOptions {
                    seed,
                    ..Default::default()
                },
            );
            st.partition().assignment().to_vec()
        };
        assert_eq!(run(5), run(5));
    }
}
