//! The refactor-safety net for the pluggable solver:
//!
//! 1. **Golden pins** — `Solver` with `ReplaceIfBetter` on one objective
//!    must reproduce outputs captured from the pre-refactor
//!    `Ensemble::run` bit-for-bit (hashes recorded before the refactor).
//! 2. **Reference model** — a property test drives random graphs/seeds
//!    through both the builder and an independent reimplementation of
//!    the historical epoch loop.
//! 3. **Pareto properties** — the front is mutually non-dominated and
//!    insensitive to island harvest order.
//! 4. **Policy determinism** — byte-identical output across re-runs and
//!    thread caps for *every* migration policy.

use ff_core::{FusionFission, FusionFissionConfig, FusionFissionRun};
use ff_engine::{
    derive_seeds, Adaptive, Combine, EnsembleResult, MigrationPolicyId, ReplaceIfBetter, Solver,
};
use ff_graph::generators::{planted_partition, random_geometric};
use ff_graph::Graph;
use ff_metaheur::StopCondition;
use ff_partition::{dominates, Objective};
use proptest::prelude::*;

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over a Pareto run's front and representative: the front's
/// objectives; each point's island, objective, value bits, parts and
/// assignment; `best_island`; the `best_value` bits; and, for a
/// multilevel run, each level report's value bits and moves.
fn front_digest(res: &EnsembleResult) -> u64 {
    let front = res.pareto.as_ref().expect("front present");
    let mut bytes = Vec::new();
    for o in &front.objectives {
        bytes.extend_from_slice(o.name().as_bytes());
    }
    for p in &front.points {
        bytes.extend_from_slice(&(p.island as u64).to_le_bytes());
        bytes.extend_from_slice(p.objective.name().as_bytes());
        for v in &p.values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&(p.parts as u64).to_le_bytes());
        for part in p.partition.assignment() {
            bytes.extend_from_slice(&part.to_le_bytes());
        }
    }
    bytes.extend_from_slice(&(res.best_island as u64).to_le_bytes());
    bytes.extend_from_slice(&res.best_value.to_bits().to_le_bytes());
    for r in res.multilevel.iter().flat_map(|info| &info.reports) {
        bytes.extend_from_slice(&r.value_before.to_bits().to_le_bytes());
        bytes.extend_from_slice(&r.value_after.to_bits().to_le_bytes());
        bytes.extend_from_slice(&(r.moves as u64).to_le_bytes());
    }
    fnv1a(bytes.into_iter())
}

fn golden_base() -> FusionFissionConfig {
    FusionFissionConfig {
        stop: StopCondition::steps(2_000),
        nbt: 80,
        ..FusionFissionConfig::standard(4)
    }
}

/// Outputs of the pre-refactor `Ensemble::run`, captured on this exact
/// code base immediately before `ensemble.rs` was split into
/// solver/migration/reduction. The builder path must keep reproducing
/// them bit-for-bit.
#[test]
fn golden_pre_refactor_ensemble_outputs() {
    /// `(graph, islands, interval, seed, value, steps, migrations, hash)`.
    type GoldenCase = (&'static str, usize, u64, u64, f64, u64, u64, u64);
    let cases: [GoldenCase; 6] = [
        (
            "rg60",
            1,
            300,
            99,
            0.436_207_740_344_556_67,
            2_000,
            0,
            0xbbdb_45fd_27f0_5085,
        ),
        (
            "rg60",
            4,
            300,
            99,
            0.436_207_740_344_556_67,
            8_000,
            0,
            0xbbdb_45fd_27f0_5085,
        ),
        (
            "rg60",
            3,
            200,
            5,
            0.416_233_749_777_767_6,
            6_000,
            2,
            0x5e7f_23bd_1e14_b297,
        ),
        (
            "pp4",
            1,
            300,
            99,
            0.212_957_487_041_947_92,
            2_000,
            0,
            0x71ae_7404_ec20_98e5,
        ),
        (
            "pp4",
            4,
            300,
            99,
            0.212_957_487_041_947_92,
            8_000,
            0,
            0x71ae_7404_ec20_98e5,
        ),
        (
            "pp4",
            3,
            200,
            5,
            0.212_957_487_041_947_92,
            6_000,
            1,
            0x4636_b6a6_b9d9_20e5,
        ),
    ];
    let rg60 = random_geometric(60, 0.25, 7);
    let pp4 = planted_partition(4, 12, 0.8, 0.05, 3);
    for (name, islands, interval, seed, value, steps, migrations, hash) in cases {
        let g = if name == "rg60" { &rg60 } else { &pp4 };
        let res = Solver::on(g)
            .config(golden_base())
            .islands(islands)
            .migration_interval(interval)
            .seed(seed)
            .run()
            .unwrap();
        assert_eq!(res.best_value, value, "{name}/{islands}/{seed}: value");
        assert_eq!(res.steps, steps, "{name}/{islands}/{seed}: steps");
        assert_eq!(
            res.migrations_adopted, migrations,
            "{name}/{islands}/{seed}: migrations"
        );
        let got = fnv1a(res.best.assignment().iter().flat_map(|p| p.to_le_bytes()));
        assert_eq!(got, hash, "{name}/{islands}/{seed}: assignment hash");
    }
}

/// An independent reimplementation of the pre-refactor epoch loop — the
/// spec the builder's default path must match: lockstep epochs of
/// `interval` steps, then the globally-lowest-energy molecule offered to
/// every island, adopted iff strictly better.
fn reference_ensemble(
    g: &Graph,
    base: FusionFissionConfig,
    islands: usize,
    interval: u64,
    root_seed: u64,
) -> (Vec<u32>, f64, u64, u64) {
    let seeds = derive_seeds(root_seed, islands);
    let mut runs: Vec<FusionFissionRun<'_>> = seeds
        .iter()
        .map(|&s| FusionFission::new(g, base, s).start())
        .collect();
    let chunk = if interval == 0 { u64::MAX } else { interval };
    let mut adopted = 0u64;
    loop {
        let mut more = false;
        for run in &mut runs {
            more |= run.advance(chunk);
        }
        if !more {
            break;
        }
        if islands > 1 && interval > 0 {
            let donor = (0..islands)
                .reduce(|a, b| {
                    if runs[b].best_energy() < runs[a].best_energy() {
                        b
                    } else {
                        a
                    }
                })
                .unwrap();
            let donor_energy = runs[donor].best_energy();
            let molecule = runs[donor].best_molecule().clone();
            for (i, run) in runs.iter_mut().enumerate() {
                if i != donor && run.best_energy() > donor_energy && run.inject(&molecule) {
                    adopted += 1;
                }
            }
        }
    }
    let harvested: Vec<_> = runs.into_iter().map(|r| r.harvest()).collect();
    let best = (0..harvested.len())
        .reduce(|a, b| {
            if harvested[b].best_value < harvested[a].best_value {
                b
            } else {
                a
            }
        })
        .unwrap();
    let steps = harvested.iter().map(|r| r.steps).sum();
    (
        harvested[best].best.assignment().to_vec(),
        harvested[best].best_value,
        steps,
        adopted,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// ISSUE acceptance: `ReplaceIfBetter` through the `Solver` builder
    /// is byte-identical to the pre-refactor `Ensemble::run` semantics on
    /// random graphs and seeds.
    #[test]
    fn replace_if_better_matches_pre_refactor_reference(
        gseed in 0u64..1_000,
        root in 0u64..1_000,
        islands in 1usize..4,
        interval_idx in 0usize..3,
    ) {
        let interval = [0u64, 150, 300][interval_idx];
        let g = random_geometric(40, 0.3, gseed);
        let base = FusionFissionConfig {
            stop: StopCondition::steps(900),
            ..FusionFissionConfig::fast(3)
        };
        let (ref_asg, ref_value, ref_steps, ref_adopted) =
            reference_ensemble(&g, base, islands, interval, root);
        let res = Solver::on(&g)
            .config(base)
            .islands(islands)
            .migration_interval(interval)
            .migration(ReplaceIfBetter)
            .seed(root)
            .run()
            .unwrap();
        prop_assert_eq!(res.best.assignment(), &ref_asg[..]);
        prop_assert_eq!(res.best_value, ref_value);
        prop_assert_eq!(res.steps, ref_steps);
        prop_assert_eq!(res.migrations_adopted, ref_adopted);
    }

    /// ISSUE acceptance: the Pareto front is mutually non-dominated and
    /// insensitive to the order islands are harvested in.
    #[test]
    fn pareto_front_is_non_dominated_and_order_insensitive(
        gseed in 0u64..1_000,
        root in 0u64..1_000,
        rotation in 0usize..4,
    ) {
        use ff_engine::ParetoResult;
        let g = random_geometric(40, 0.3, gseed);
        let solver = |seed| {
            Solver::on(&g)
                .k(3)
                .islands(4)
                .objectives([Objective::Cut, Objective::NCut, Objective::MCut])
                .steps(900)
                .migration_interval(300)
                .seed(seed)
        };
        let res = solver(root).run().unwrap();
        let front: &ParetoResult = res.pareto.as_ref().expect("front present");
        prop_assert!(!front.points.is_empty());
        for a in &front.points {
            for b in &front.points {
                prop_assert!(
                    a.island == b.island || !dominates(&a.values, &b.values),
                    "dominated point survived"
                );
            }
        }
        // Harvest-order insensitivity: re-reduce the same island results
        // in a rotated order; the surviving molecules must be the same
        // set (original indices recovered through the rotation).
        let islands = &res.islands;
        let mut rotated: Vec<_> = islands.to_vec();
        rotated.rotate_left(rotation % islands.len());
        let objectives = [Objective::Cut, Objective::NCut, Objective::MCut];
        let molecules = rotated
            .iter()
            .enumerate()
            .map(|(i, r)| (i, r.trace.tag().unwrap(), &r.best));
        let refront = ParetoResult::new(&g, &objectives, molecules);
        let n = islands.len();
        let mut original: Vec<usize> = refront
            .points
            .iter()
            .map(|p| (p.island + rotation % n) % n)
            .collect();
        original.sort_unstable();
        let base_front: Vec<usize> = front.points.iter().map(|p| p.island).collect();
        // Equal objective vectors may swap which duplicate survives under
        // rotation; compare by vector multiset instead of raw index when
        // duplicates exist, and by index otherwise.
        let mut base_vecs: Vec<Vec<u64>> = front
            .points
            .iter()
            .map(|p| p.values.iter().map(|v| v.to_bits()).collect())
            .collect();
        let mut re_vecs: Vec<Vec<u64>> = refront
            .points
            .iter()
            .map(|p| p.values.iter().map(|v| v.to_bits()).collect())
            .collect();
        base_vecs.sort();
        re_vecs.sort();
        prop_assert_eq!(base_vecs, re_vecs);
        prop_assert_eq!(original.len(), base_front.len());
    }
}

/// Byte-identical output across re-runs and thread caps, for every
/// migration policy (the solver determinism contract).
#[test]
fn every_policy_is_byte_identical_across_reruns_and_thread_caps() {
    let g = random_geometric(50, 0.28, 11);
    for id in [
        MigrationPolicyId::ReplaceIfBetter,
        MigrationPolicyId::Combine,
        MigrationPolicyId::Adaptive,
    ] {
        let run = |threads: usize| {
            let mut solver = Solver::on(&g)
                .k(4)
                .islands(4)
                .migration_interval(200)
                .steps(1_200)
                .seed(21)
                .threads(threads);
            solver = match id {
                MigrationPolicyId::ReplaceIfBetter => solver.migration(ReplaceIfBetter),
                MigrationPolicyId::Combine => solver.migration(Combine),
                MigrationPolicyId::Adaptive => solver.migration(Adaptive::new(2, 8)),
            };
            solver.run().unwrap()
        };
        let base = run(0);
        for threads in [1usize, 2, 3] {
            let other = run(threads);
            assert_eq!(
                base.best.assignment(),
                other.best.assignment(),
                "{id:?} differs at {threads} threads"
            );
            assert_eq!(base.best_value, other.best_value, "{id:?}");
            assert_eq!(base.steps, other.steps, "{id:?}");
            assert_eq!(base.migrations_adopted, other.migrations_adopted, "{id:?}");
        }
    }
}

/// FNV-1a over every field of `res` except the wall-clock ones: each
/// trace point's `elapsed` and each level report's `refine_ms`.
fn result_digest(res: &EnsembleResult) -> u64 {
    fn word(b: &mut Vec<u8>, x: u64) {
        b.extend_from_slice(&x.to_le_bytes());
    }
    fn name(b: &mut Vec<u8>, o: Option<Objective>) {
        b.extend_from_slice(o.map_or("-", |o| o.name()).as_bytes());
    }
    fn partition(b: &mut Vec<u8>, p: &ff_partition::Partition) {
        word(b, p.num_parts() as u64);
        p.assignment().iter().for_each(|&x| word(b, x as u64));
    }
    fn trace(b: &mut Vec<u8>, t: &ff_metaheur::AnytimeTrace) {
        name(b, t.tag());
        word(b, t.len() as u64);
        for p in t.points() {
            word(b, p.step);
            word(b, p.value.to_bits());
            name(b, p.objective);
        }
    }
    fn per_k(b: &mut Vec<u8>, m: &std::collections::BTreeMap<usize, f64>) {
        word(b, m.len() as u64);
        for (&k, &v) in m {
            word(b, k as u64);
            word(b, v.to_bits());
        }
    }
    let mut b = Vec::new();
    partition(&mut b, &res.best);
    word(&mut b, res.best_value.to_bits());
    word(&mut b, res.best_island as u64);
    word(&mut b, res.steps);
    word(&mut b, res.migrations_adopted);
    trace(&mut b, &res.trace);
    per_k(&mut b, &res.best_value_per_k);
    word(&mut b, res.islands.len() as u64);
    for r in &res.islands {
        partition(&mut b, &r.best);
        word(&mut b, r.best_value.to_bits());
        word(&mut b, r.best_energy.to_bits());
        word(&mut b, r.steps);
        trace(&mut b, &r.trace);
        per_k(&mut b, &r.best_value_per_k);
    }
    if let Some(front) = &res.pareto {
        front.objectives.iter().for_each(|&o| name(&mut b, Some(o)));
        for p in &front.points {
            word(&mut b, p.island as u64);
            name(&mut b, Some(p.objective));
            p.values.iter().for_each(|v| word(&mut b, v.to_bits()));
            word(&mut b, p.parts as u64);
            partition(&mut b, &p.partition);
        }
    }
    if let Some(info) = &res.multilevel {
        word(&mut b, info.levels as u64);
        word(&mut b, info.coarse_vertices as u64);
        for r in &info.reports {
            word(&mut b, r.level as u64);
            word(&mut b, r.vertices as u64);
            word(&mut b, r.value_before.to_bits());
            word(&mut b, r.value_after.to_bits());
            word(&mut b, r.moves as u64);
        }
    }
    fnv1a(b.into_iter())
}

/// Every result field but the wall-clock ones is a function of the seed
/// alone: a rerun and thread caps 0, 1 and 2 agree, merged trace
/// included, on 30 seeds.
#[test]
fn every_result_field_is_identical_across_reruns_and_thread_caps() {
    let g = planted_partition(3, 90, 0.15, 0.006, 11);
    for seed in 1..=30 {
        let run = |threads| {
            let res = Solver::on(&g)
                .k(3)
                .objective(Objective::MCut)
                .islands(4)
                .steps(1_500)
                .migration_interval(250)
                .seed(seed)
                .threads(threads)
                .run()
                .unwrap();
            result_digest(&res)
        };
        let first = run(0);
        for threads in [0, 1, 2] {
            assert_eq!(run(threads), first, "seed {seed}, {threads} threads");
        }
    }
}

/// Each island trace point reaches the engine's observation exactly once:
/// every point after an island's first adds one improvement delta.
#[test]
fn observed_improvements_count_each_trace_point_once() {
    let registry = ff_obs::Registry::new();
    let res = Solver::on(&random_geometric(60, 0.25, 7))
        .k(4)
        .objective(Objective::Cut)
        .islands(4)
        .steps(3_000)
        .migration_interval(200)
        .seed(3)
        .observe(registry.clone())
        .run()
        .unwrap();
    let bounds = [1e-4, 1e-3, 1e-2, 1e-1, 1.0]; // the family's buckets
    let deltas = registry
        .histogram("ff_engine_improvement_delta", "", &bounds)
        .count();
    let expected: usize = res.islands.iter().map(|r| r.trace.len() - 1).sum();
    assert!(expected > 0, "no island improved twice");
    assert_eq!(deltas, expected as u64);
}

/// The adaptive policy's interval stretching must not break the lockstep
/// step accounting: total steps stay a pure function of the budget.
#[test]
fn adaptive_policy_reruns_are_byte_identical() {
    let g = planted_partition(3, 12, 0.8, 0.05, 9);
    let run = || {
        Solver::on(&g)
            .k(3)
            .islands(3)
            .migration(Adaptive::new(1, 4))
            .migration_interval(100)
            .steps(1_000)
            .seed(5)
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.best.assignment(), b.best.assignment());
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.migrations_adopted, b.migrations_adopted);
}

/// A mixed-objective ensemble end-to-end at the library layer: the front
/// is deterministic and each point's own-objective value is the best of
/// its group.
#[test]
fn mixed_objective_front_is_deterministic_end_to_end() {
    let g = planted_partition(4, 10, 0.85, 0.03, 5);
    let run = || {
        Solver::on(&g)
            .k(4)
            .islands(4)
            .objectives([Objective::Cut, Objective::MCut])
            .migration(Combine)
            .migration_interval(250)
            .steps(1_500)
            .seed(13)
            .run()
            .unwrap()
    };
    let a = run();
    let b = run();
    let fa = a.pareto.as_ref().unwrap();
    let fb = b.pareto.as_ref().unwrap();
    assert_eq!(fa.points.len(), fb.points.len());
    for (x, y) in fa.points.iter().zip(&fb.points) {
        assert_eq!(x.island, y.island);
        assert_eq!(x.values, y.values);
        assert_eq!(x.partition.assignment(), y.partition.assignment());
    }
    // Islands cycle objectives: 0 and 2 run Cut, 1 and 3 run MCut.
    assert_eq!(a.islands[0].trace.tag(), Some(Objective::Cut));
    assert_eq!(a.islands[1].trace.tag(), Some(Objective::MCut));
    assert_eq!(a.islands[2].trace.tag(), Some(Objective::Cut));
    assert_eq!(a.islands[3].trace.tag(), Some(Objective::MCut));
    // The representative is the front's best under the first objective.
    let rep = fa.best_under(Objective::Cut).unwrap();
    assert_eq!(a.best_island, rep.island);
    assert_eq!(a.best.assignment(), rep.partition.assignment());
    assert_eq!(front_digest(&a), 0x74d3_ba0b_c6e6_20ea, "pinned front");
}

/// Builder validation returns typed errors instead of panicking.
#[test]
fn builder_validation_is_typed() {
    use ff_core::ConfigError;
    let g = random_geometric(10, 0.5, 1);
    assert_eq!(
        Solver::on(&g).islands(2).run().err(),
        Some(ConfigError::NonPositiveK)
    );
    assert_eq!(
        Solver::on(&g).k(2).islands(0).run().err(),
        Some(ConfigError::ZeroIslands)
    );
    assert_eq!(
        Solver::on(&g)
            .k(2)
            .islands(3)
            .island_seeds(vec![1, 2])
            .run()
            .err(),
        Some(ConfigError::SeedCountMismatch {
            islands: 3,
            seeds: 2
        })
    );
    assert_eq!(
        Solver::on(&g)
            .k(2)
            .objectives(Vec::<Objective>::new())
            .run()
            .err(),
        Some(ConfigError::NoObjectives)
    );
    // Cycling [Cut, Cut, MCut] over 2 islands would silently never
    // optimize MCut — rejected, with the coverage bound (3), not the
    // distinct count (2).
    assert_eq!(
        Solver::on(&g)
            .k(2)
            .islands(2)
            .objectives([Objective::Cut, Objective::Cut, Objective::MCut])
            .run()
            .err(),
        Some(ConfigError::UncoveredObjectives {
            islands: 2,
            needed: 3
        })
    );
    assert!(Solver::on(&g)
        .k(2)
        .islands(3)
        .objectives([Objective::Cut, Objective::Cut, Objective::MCut])
        .steps(200)
        .run()
        .is_ok());
}

/// `k` is checked against the graph it partitions: more parts than
/// vertices is a typed error on every entry point, not a panic inside
/// the search.
#[test]
fn k_above_the_vertex_count_is_typed() {
    use ff_engine::MultilevelOpts;
    let g = ff_graph::generators::grid2d(2, 2);
    let over = || Solver::on(&g).k(5).steps(100);
    assert!(over().try_validate().is_err());
    let Err(err) = over().run() else {
        panic!("k = 5 > 4 vertices must be rejected");
    };
    assert!(err.to_string().contains("k must be in 1..=4"), "{err}");
    assert_eq!(
        err,
        ff_core::ConfigError::KExceedsVertices { k: 5, vertices: 4 }
    );
    assert_eq!(over().start().err(), Some(err.clone()));
    assert_eq!(
        over().multilevel(MultilevelOpts::default()).run().err(),
        Some(err)
    );
    // k = n is still a valid request.
    let all = Solver::on(&g).k(4).steps(100).run().unwrap();
    assert_eq!(all.best.num_vertices(), 4);
}

/// The objective-list helpers the CLI, wire schema and builder share.
#[test]
fn objective_list_helpers() {
    use ff_engine::{distinct_objectives, islands_to_cover};
    use Objective::*;
    assert_eq!(distinct_objectives(&[Cut, Cut, MCut]), vec![Cut, MCut]);
    assert_eq!(distinct_objectives(&[]), vec![]);
    assert_eq!(islands_to_cover(&[Cut, NCut, MCut]), 3);
    assert_eq!(islands_to_cover(&[Cut, Cut, MCut]), 3);
    assert_eq!(islands_to_cover(&[Cut, MCut, Cut, Cut]), 2);
    assert_eq!(islands_to_cover(&[Cut]), 1);
    assert_eq!(islands_to_cover(&[]), 0);
}

/// `island_seeds` lets a single-island solver reproduce a plain
/// `FusionFission` run bit-for-bit — the bridge the serving layer uses.
#[test]
fn island_seeds_reproduce_a_direct_run() {
    let g = random_geometric(40, 0.3, 4);
    let cfg = FusionFissionConfig::fast(3);
    let direct = FusionFission::new(&g, cfg, 77).run();
    let via_solver = Solver::on(&g)
        .config(cfg)
        .islands(1)
        .island_seeds(vec![77])
        .run()
        .unwrap();
    assert_eq!(direct.best.assignment(), via_solver.best.assignment());
    assert_eq!(direct.best_value, via_solver.best_value);
    assert_eq!(direct.steps, via_solver.steps);
}

/// A single objective through `objectives([o])` is exactly
/// `objective(o)`.
#[test]
fn singleton_objectives_list_equals_objective() {
    let g = random_geometric(30, 0.35, 8);
    let a = Solver::on(&g)
        .k(3)
        .objective(Objective::Cut)
        .islands(2)
        .steps(800)
        .seed(2)
        .run()
        .unwrap();
    let b = Solver::on(&g)
        .k(3)
        .objectives([Objective::Cut])
        .islands(2)
        .steps(800)
        .seed(2)
        .run()
        .unwrap();
    assert_eq!(a.best.assignment(), b.best.assignment());
    assert_eq!(a.best_value, b.best_value);
}

// ---------------------------------------------------------------------------
// Multilevel: Solver::multilevel(…) — determinism, monotonicity, validation.
// ---------------------------------------------------------------------------

#[test]
fn multilevel_byte_identical_across_reruns_and_thread_caps() {
    use ff_engine::MultilevelOpts;
    let g = planted_partition(4, 120, 0.12, 0.004, 21);
    let run = |threads: usize| {
        Solver::on(&g)
            .k(4)
            .islands(3)
            .threads(threads)
            .steps(2_500)
            .seed(77)
            .multilevel(MultilevelOpts {
                coarsen_until: 80,
                ..Default::default()
            })
            .run()
            .unwrap()
    };
    let base = run(0);
    let info = base.multilevel.as_ref().expect("multilevel info attached");
    assert!(info.levels >= 1, "480 vertices must coarsen below 80");
    assert!(info.coarse_vertices <= 480);
    assert_eq!(base.best.num_vertices(), 480, "best is a fine partition");
    for threads in [1usize, 4] {
        let r = run(threads);
        assert_eq!(r.best.assignment(), base.best.assignment());
        assert_eq!(r.best_value, base.best_value);
        assert_eq!(r.steps, base.steps);
    }
}

#[test]
fn multilevel_refinement_monotone_for_every_objective() {
    use ff_engine::MultilevelOpts;
    let g = planted_partition(3, 100, 0.15, 0.005, 5);
    for obj in Objective::all() {
        let res = Solver::on(&g)
            .k(3)
            .objective(obj)
            .steps(2_000)
            .seed(13)
            .multilevel(MultilevelOpts {
                coarsen_until: 60,
                ..Default::default()
            })
            .run()
            .unwrap();
        let info = res.multilevel.expect("multilevel info");
        assert!(!info.reports.is_empty());
        for r in &info.reports {
            assert!(
                r.value_after <= r.value_before,
                "{obj} level {}: {} → {}",
                r.level,
                r.value_before,
                r.value_after
            );
        }
        // Reported final value matches the result and a fresh evaluation.
        let last = info.reports.last().unwrap();
        assert_eq!(last.level, 0);
        assert_eq!(last.value_after, res.best_value);
        let fresh = obj.evaluate(&g, &res.best);
        assert!((fresh - res.best_value).abs() < 1e-6);
    }
}

#[test]
fn multilevel_validation_and_start_rejection() {
    use ff_core::ConfigError;
    use ff_engine::MultilevelOpts;
    let g = random_geometric(30, 0.3, 1);
    assert_eq!(
        Solver::on(&g)
            .k(2)
            .multilevel(MultilevelOpts {
                coarsen_until: 0,
                ..Default::default()
            })
            .run()
            .err(),
        Some(ConfigError::ZeroCoarsenTarget)
    );
    assert!(matches!(
        Solver::on(&g)
            .k(2)
            .multilevel(MultilevelOpts::default())
            .start()
            .err(),
        Some(ConfigError::MultilevelNotResumable)
    ));
}

#[test]
fn multilevel_small_graph_equals_flat_run() {
    use ff_engine::MultilevelOpts;
    // Input below the coarsening target: the pipeline degenerates to the
    // flat ensemble (zero levels), bit-for-bit.
    let g = random_geometric(50, 0.25, 3);
    let flat = Solver::on(&g).k(4).steps(1_500).seed(9).run().unwrap();
    let ml = Solver::on(&g)
        .k(4)
        .steps(1_500)
        .seed(9)
        .multilevel(MultilevelOpts::default())
        .run()
        .unwrap();
    let info = ml.multilevel.as_ref().unwrap();
    assert_eq!(info.levels, 0);
    assert_eq!(info.coarse_vertices, 50);
    assert_eq!(ml.best.assignment(), flat.best.assignment());
    assert_eq!(ml.best_value, flat.best_value);
    assert_eq!(ml.steps, flat.steps);
}

#[test]
fn multilevel_pareto_points_are_fine_and_non_dominated() {
    use ff_engine::MultilevelOpts;
    let g = planted_partition(3, 90, 0.15, 0.006, 11);
    let objs = [Objective::Cut, Objective::MCut];
    let res = Solver::on(&g)
        .k(3)
        .islands(4)
        .objectives(objs)
        .steps(2_000)
        .seed(31)
        .multilevel(MultilevelOpts {
            coarsen_until: 60,
            ..Default::default()
        })
        .run()
        .unwrap();
    let front = res.pareto.as_ref().expect("pareto front");
    assert_eq!(front.objectives, objs.to_vec());
    assert!(!front.points.is_empty());
    for a in &front.points {
        assert_eq!(a.partition.num_vertices(), 270, "fine-graph point");
        // values re-scored on the fine graph
        for (axis, &o) in front.objectives.iter().enumerate() {
            let fresh = o.evaluate(&g, &a.partition);
            assert!(
                (fresh - a.values[axis]).abs() < 1e-9
                    || (fresh.is_infinite() && a.values[axis].is_infinite())
            );
        }
        for b in &front.points {
            assert!(!dominates(&a.values, &b.values) || a.island == b.island);
        }
    }
    // Representative is the front's best under the first objective.
    let rep = front.best_under(objs[0]).unwrap();
    assert_eq!(res.best_island, rep.island);
    assert_eq!(res.best.assignment(), rep.partition.assignment());
    // Determinism of the whole pareto-multilevel pipeline.
    let rerun = Solver::on(&g)
        .k(3)
        .islands(4)
        .objectives(objs)
        .steps(2_000)
        .seed(31)
        .multilevel(MultilevelOpts {
            coarsen_until: 60,
            ..Default::default()
        })
        .run()
        .unwrap();
    assert_eq!(rerun.best.assignment(), res.best.assignment());
    assert_eq!(
        rerun.pareto.as_ref().unwrap().points.len(),
        front.points.len()
    );
    assert_eq!(front_digest(&res), 0xd015_7f17_6d87_5832, "pinned front");
}
