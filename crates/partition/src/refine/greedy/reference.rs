//! Lockstep reference test for the greedy k-way refiner.
//!
//! The reference below is the refiner as it was before the dense
//! [`Connections`] gather: for each visited vertex it sums the weight
//! into every neighbouring part into an ordered map, then walks the
//! vertex's edges again through [`CutState::move_delta`] for each
//! candidate part. It and the refiner
//! run from the same start on random graphs (geometric, planted,
//! small-integer weights, zero weights) under Cut, Ncut and Mcut, with
//! and without a balance band, with `keep_parts_nonempty` on and off.
//! Both log every visit as (vertex, target, delta bits), and the logs
//! must agree entry for entry. The final assignments, part sums, part
//! weights and move counts must agree bit for bit too, for the logged
//! refiner and for a plain [`greedy_refine_kway`] call.

use super::*;
use crate::partition::Partition;
use ff_graph::generators::{planted_partition, random_geometric};
use ff_graph::{Graph, GraphBuilder};
use std::collections::BTreeMap;

/// One visit: the vertex and the move taken, with its delta's bits.
type Visit = (VertexId, Option<(u32, u64)>);

fn logged(v: VertexId, mv: Option<(u32, f64)>) -> Visit {
    (v, mv.map(|(to, delta)| (to, delta.to_bits())))
}

/// `v`'s weight into each part among its neighbours, its own part
/// included, summed in edge order into an ordered map.
fn connection_weights(st: &CutState, v: VertexId) -> Vec<(u32, f64)> {
    let mut conn: BTreeMap<u32, f64> = BTreeMap::new();
    for (u, w) in st.graph().edges_of(v) {
        *conn.entry(st.partition().part_of(u)).or_insert(0.0) += w;
    }
    conn.into_iter().collect()
}

/// The refiner with an ordered-map gather per visit and one
/// `move_delta` edge walk per candidate, logging every visit.
fn reference_refine(
    st: &mut CutState,
    obj: Objective,
    opts: &GreedyOptions,
    log: &mut Vec<Visit>,
) -> usize {
    let g = st.graph();
    let mut order: Vec<VertexId> = g.vertices().collect();
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
            let mut best: Option<(u32, f64)> = None;
            for (to, _) in connection_weights(st, v) {
                if to == from {
                    continue;
                }
                if !opts.balance.allows_move(
                    st.partition().part_weight(from),
                    st.partition().part_weight(to),
                    g.vertex_weight(v),
                ) {
                    continue;
                }
                let delta = st.move_delta(obj, v, to);
                if delta < -1e-12 && best.is_none_or(|(_, bd)| delta < bd) {
                    best = Some((to, delta));
                }
            }
            log.push(logged(v, best));
            if let Some((to, _)) = best {
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

/// The refiner's own sweep and move choice, logging every visit.
fn logged_refine(
    st: &mut CutState,
    obj: Objective,
    opts: &GreedyOptions,
    log: &mut Vec<Visit>,
) -> usize {
    let mut conn = Connections::new();
    sweep(st, opts, |st, v| {
        let mv = best_move(st, obj, &opts.balance, &mut conn, v);
        log.push(logged(v, mv));
        mv
    })
}

fn assert_same_state(what: &str, got: &CutState, want: &CutState) {
    let (p, q) = (got.partition(), want.partition());
    assert_eq!(p.assignment(), q.assignment(), "{what}: assignment");
    assert_eq!(p.num_parts(), q.num_parts(), "{what}: part count");
    for part in 0..p.num_parts() as u32 {
        assert_eq!(
            got.external(part).to_bits(),
            want.external(part).to_bits(),
            "{what}: external sum of part {part}"
        );
        assert_eq!(
            got.internal2(part).to_bits(),
            want.internal2(part).to_bits(),
            "{what}: internal sum of part {part}"
        );
        assert_eq!(
            p.part_weight(part).to_bits(),
            q.part_weight(part).to_bits(),
            "{what}: weight of part {part}"
        );
    }
}

/// What the runs exercised, so the test can insist its paths ran.
#[derive(Debug, Default)]
struct Coverage {
    visits: usize,
    moves: usize,
    stays: usize,
    emptied_parts: usize,
}

fn lockstep(
    g: &Graph,
    start: &Partition,
    obj: Objective,
    opts: &GreedyOptions,
    cov: &mut Coverage,
) {
    let mut want = CutState::new(g, start.clone());
    let mut want_log = Vec::new();
    let want_moves = reference_refine(&mut want, obj, opts, &mut want_log);

    let mut got = CutState::new(g, start.clone());
    let mut got_log = Vec::new();
    let got_moves = logged_refine(&mut got, obj, opts, &mut got_log);
    for (i, (a, b)) in got_log.iter().zip(&want_log).enumerate() {
        assert_eq!(a, b, "{obj}: visit {i} (vertex, target, delta bits)");
    }
    assert_eq!(got_log.len(), want_log.len(), "{obj}: visit count");
    assert_eq!(got_moves, want_moves, "{obj}: moves");
    assert_same_state("logged refiner", &got, &want);

    let mut plain = CutState::new(g, start.clone());
    assert_eq!(greedy_refine_kway(&mut plain, obj, opts), want_moves);
    assert_same_state("greedy_refine_kway", &plain, &want);

    cov.visits += want_log.len();
    cov.moves += want_moves;
    cov.stays += want_log.iter().filter(|(_, mv)| mv.is_none()).count();
    cov.emptied_parts += start.num_nonempty_parts() - want.partition().num_nonempty_parts();
}

/// `g` with each edge weight redrawn by `weight` and, when
/// `vertex_weights` is set, vertex weights drawn from 1..=3.
fn reweighted(
    g: &Graph,
    seed: u64,
    vertex_weights: bool,
    weight: impl Fn(&mut ChaCha8Rng, f64) -> f64,
) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(g.num_vertices());
    for (u, v, w) in g.edges() {
        b.add_edge(u, v, weight(&mut rng, w));
    }
    if vertex_weights {
        for v in g.vertices() {
            b.set_vertex_weight(v, rng.gen_range(1..=3) as f64);
        }
    }
    b.build()
}

/// Irregular weights carry rounding residue, so any change in the
/// summation order shows in the delta bits.
fn irregular(rng: &mut ChaCha8Rng, w: f64) -> f64 {
    w * rng.gen_range(0.3..1.7)
}

fn graphs(seed: u64) -> Vec<(&'static str, Graph)> {
    vec![
        (
            "geometric",
            reweighted(&random_geometric(90, 0.2, seed), seed, false, irregular),
        ),
        (
            "planted",
            reweighted(
                &planted_partition(4, 20, 0.5, 0.05, seed),
                seed,
                true,
                irregular,
            ),
        ),
        (
            "small integers",
            reweighted(&random_geometric(80, 0.22, seed), seed, false, |rng, _| {
                rng.gen_range(0..4) as f64
            }),
        ),
        (
            "zero weights",
            reweighted(
                &planted_partition(3, 25, 0.4, 0.08, seed),
                seed,
                true,
                |rng, w| {
                    if rng.gen_bool(0.4) {
                        0.0
                    } else {
                        irregular(rng, w)
                    }
                },
            ),
        ),
    ]
}

fn lockstep_all(obj: Objective) {
    let mut cov = Coverage::default();
    for seed in [1, 2] {
        for (name, g) in graphs(seed) {
            for k in [3, 6] {
                // A random k-way start plus three singleton parts, which
                // only `keep_parts_nonempty = false` lets the refiner empty.
                let mut asg = Partition::random(&g, k, seed + 10).assignment().to_vec();
                for (i, v) in [5, 40, 70].into_iter().enumerate() {
                    asg[v] = (k + i) as u32;
                }
                let start = Partition::from_assignment(&g, asg, k + 3);
                let bands = [
                    BalanceConstraint::unconstrained(),
                    BalanceConstraint::with_tolerance(g.total_vertex_weight(), k, 0.1),
                ];
                for balance in bands {
                    for keep_parts_nonempty in [true, false] {
                        let opts = GreedyOptions {
                            balance,
                            seed: seed + 20,
                            keep_parts_nonempty,
                            ..GreedyOptions::default()
                        };
                        let before = cov.visits;
                        lockstep(&g, &start, obj, &opts, &mut cov);
                        assert!(cov.visits > before, "{name}: no visit");
                    }
                }
            }
        }
    }
    assert!(cov.moves > 0, "no move: {cov:?}");
    assert!(cov.stays > 0, "every visit moved: {cov:?}");
    assert!(cov.emptied_parts > 0, "no part emptied: {cov:?}");
}

#[test]
fn cut_refiner_matches_reference() {
    lockstep_all(Objective::Cut);
}

#[test]
fn ncut_refiner_matches_reference() {
    lockstep_all(Objective::NCut);
}

#[test]
fn mcut_refiner_matches_reference() {
    lockstep_all(Objective::MCut);
}
