//! Determinism contract: every algorithm in the suite is a pure function
//! of (graph, config, seed). Reproducibility is what makes the paper's
//! tables regenerable.

use fusionfission::atc::{FabopConfig, FabopInstance};
use fusionfission::metaheur::StopCondition;
use fusionfission::prelude::*;

#[test]
fn fabop_instance_is_stable() {
    let a = FabopInstance::scaled(120, &FabopConfig::default());
    let b = FabopInstance::scaled(120, &FabopConfig::default());
    assert_eq!(
        a.graph.edges().collect::<Vec<_>>(),
        b.graph.edges().collect::<Vec<_>>()
    );
    assert_eq!(a.positions, b.positions);
}

#[test]
fn spectral_is_deterministic() {
    let inst = FabopInstance::scaled(120, &FabopConfig::default());
    let cfg = SpectralConfig {
        seed: 5,
        ..Default::default()
    };
    let p1 = spectral_partition(&inst.graph, 6, &cfg);
    let p2 = spectral_partition(&inst.graph, 6, &cfg);
    assert_eq!(p1.assignment(), p2.assignment());
}

#[test]
fn multilevel_is_deterministic() {
    let inst = FabopInstance::scaled(120, &FabopConfig::default());
    let cfg = MultilevelConfig {
        seed: 9,
        ..Default::default()
    };
    let p1 = multilevel_partition(&inst.graph, 6, &cfg);
    let p2 = multilevel_partition(&inst.graph, 6, &cfg);
    assert_eq!(p1.assignment(), p2.assignment());
}

#[test]
fn metaheuristics_are_deterministic_under_step_budgets() {
    let inst = FabopInstance::scaled(100, &FabopConfig::default());
    let g = &inst.graph;

    let sa = |seed| {
        SimulatedAnnealing::new(
            g,
            5,
            SimulatedAnnealingConfig {
                seed,
                stop: StopCondition::steps(10_000),
                ..Default::default()
            },
        )
        .run()
    };
    assert_eq!(sa(4).best.assignment(), sa(4).best.assignment());
    // different seeds explore differently
    assert_ne!(sa(4).best_value, sa(5).best_value);

    let ff = |seed| FusionFission::new(g, FusionFissionConfig::fast(5), seed).run();
    assert_eq!(ff(7).best.assignment(), ff(7).best.assignment());

    let aco = |seed| {
        AntColony::new(
            g,
            5,
            AntColonyConfig {
                seed,
                stop: StopCondition::steps(300),
                ..Default::default()
            },
        )
        .run()
    };
    assert_eq!(aco(2).best.assignment(), aco(2).best.assignment());
}

#[test]
fn ensemble_is_thread_schedule_independent() {
    let inst = FabopInstance::scaled(100, &FabopConfig::default());
    let g = &inst.graph;
    let base = FusionFissionConfig::fast(5);
    for islands in [1usize, 4] {
        let run = |max_threads: usize| {
            Solver::on(g)
                .config(base)
                .islands(islands)
                .migration_interval(400)
                .threads(max_threads)
                .seed(99)
                .run()
                .unwrap()
        };
        // Two invocations with the same root seed are identical…
        let a = run(0);
        let b = run(0);
        assert_eq!(a.best.assignment(), b.best.assignment());
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.migrations_adopted, b.migrations_adopted);
        // …and so is a run squeezed through a single thread (scheduling
        // cannot matter because the reduction is deterministic).
        let c = run(1);
        assert_eq!(a.best.assignment(), c.best.assignment());
        assert_eq!(a.best_value, c.best_value);
        // Invariant: the ensemble's best is the min over island bests.
        let min = a
            .islands
            .iter()
            .map(|r| r.best_value)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(a.best_value, min);
        assert_eq!(a.islands.len(), islands);
    }
}

#[test]
fn solver_policies_and_pareto_are_deterministic() {
    use fusionfission::partition::{dominates, Objective};
    let inst = FabopInstance::scaled(100, &FabopConfig::default());
    let g = &inst.graph;
    // Every migration policy re-runs byte-identically.
    for policy in [
        MigrationPolicyId::ReplaceIfBetter,
        MigrationPolicyId::Combine,
        MigrationPolicyId::Adaptive,
    ] {
        let run = || {
            Solver::on(g)
                .config(FusionFissionConfig::fast(5))
                .islands(3)
                .migration(policy.build())
                .migration_interval(300)
                .seed(17)
                .run()
                .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best.assignment(), b.best.assignment(), "{policy:?}");
        assert_eq!(a.migrations_adopted, b.migrations_adopted, "{policy:?}");
    }
    // A mixed-objective run returns a deterministic non-dominated front.
    let run = || {
        Solver::on(g)
            .config(FusionFissionConfig::fast(5))
            .islands(3)
            .objectives([Objective::Cut, Objective::NCut, Objective::MCut])
            .seed(23)
            .run()
            .unwrap()
    };
    let (a, b) = (run(), run());
    let (fa, fb) = (a.pareto.unwrap(), b.pareto.unwrap());
    assert_eq!(fa.points.len(), fb.points.len());
    for (x, y) in fa.points.iter().zip(&fb.points) {
        assert_eq!(x.island, y.island);
        assert_eq!(x.values, y.values);
    }
    for x in &fa.points {
        for y in &fa.points {
            assert!(x.island == y.island || !dominates(&x.values, &y.values));
        }
    }
}

#[test]
fn percolation_is_deterministic() {
    let inst = FabopInstance::scaled(100, &FabopConfig::default());
    let cfg = PercolationConfig {
        seed: 12,
        ..Default::default()
    };
    let p1 = percolation_partition(&inst.graph, 7, &cfg);
    let p2 = percolation_partition(&inst.graph, 7, &cfg);
    assert_eq!(p1.assignment(), p2.assignment());
}

/// Distributed islands keep the same contract across *process
/// boundaries*: federated workers (two live servers driven over TCP)
/// produce bytes identical to the in-process [`Solver`] — on the pinned
/// golden instance and on a migration-heavy combine run.
#[test]
fn distributed_islands_match_in_process_goldens() {
    use fusionfission::engine::derive_seeds;
    use fusionfission::service::dist::{solve_distributed, DistOpts, DistSpec, WorkerSet};
    use fusionfission::service::{Client, GraphFormat, GraphSource, Server};

    const GRID: &str = "9 12\n2 4\n1 3 5\n2 6\n1 5 7\n2 4 6 8\n3 5 9\n4 8\n5 7 9\n6 8\n";
    let g = fusionfission::graph::io::read_metis(GRID.as_bytes()).unwrap();

    // Two real servers on ephemeral ports stand in for remote hosts.
    let servers: Vec<_> = (0..2)
        .map(|_| Server::bind("127.0.0.1:0", 2).unwrap().spawn().unwrap())
        .collect();
    let addrs: Vec<String> = servers.iter().map(|h| h.addr().to_string()).collect();

    let federate = |spec: &DistSpec| {
        solve_distributed(
            &g,
            spec,
            &WorkerSet::Connect {
                addrs: addrs.clone(),
            },
            &DistOpts::default(),
            &mut |_, _| {},
        )
        .unwrap()
    };
    let spec = |seed: u64, steps: u64, migration: MigrationPolicyId| DistSpec {
        instance: "grid".into(),
        source: GraphSource::Data(GRID.into()),
        format: GraphFormat::Metis,
        k: 2,
        steps,
        seeds: derive_seeds(seed, 4),
        objectives: vec![fusionfission::partition::Objective::MCut; 4],
        interval: 1024,
        migration,
        pareto: false,
    };

    // Golden 1: the pinned instance. The energy is part of the contract.
    let local = Solver::on(&g)
        .k(2)
        .islands(4)
        .steps(20_000)
        .seed(7)
        .run()
        .unwrap();
    assert!(
        (local.best_value - 0.964286).abs() < 5e-7,
        "pinned golden moved: {}",
        local.best_value
    );
    let dist = federate(&spec(7, 20_000, MigrationPolicyId::ReplaceIfBetter));
    assert_eq!(dist.best.assignment(), local.best.assignment());
    assert_eq!(dist.best_value, local.best_value);
    assert_eq!(dist.steps, local.steps);
    assert_eq!(dist.migrations_adopted, local.migrations_adopted);

    // Golden 2: a 4-island combine-migration (crossover) run.
    let local = Solver::on(&g)
        .k(2)
        .islands(4)
        .migration(Combine)
        .steps(8_000)
        .seed(13)
        .run()
        .unwrap();
    let dist = federate(&spec(13, 8_000, MigrationPolicyId::Combine));
    assert_eq!(dist.best.assignment(), local.best.assignment());
    assert_eq!(dist.best_value, local.best_value);
    assert_eq!(dist.migrations_adopted, local.migrations_adopted);
    for (a, b) in dist.islands.iter().zip(&local.islands) {
        assert_eq!(a.best.assignment(), b.best.assignment());
        assert_eq!(a.steps, b.steps);
    }

    for handle in servers {
        Client::connect(handle.addr()).unwrap().shutdown().unwrap();
        handle.join().unwrap();
    }
}

/// A short served job on the paper's instance (one island, Mcut, k = 32,
/// the standard preset, 4000 steps) is one search three ways: a plain
/// `FusionFission::run`, a `FusionFissionRun` advanced 256 steps per
/// call, and the one-island `Solver` the server builds for the job
/// (`JobRequest::solver`, migration interval = the default chunk, 512).
/// The seeds are the first two short-job seeds of a seed-1 `serve_mixed`
/// benchmark run, whose traced run checks the same equality.
#[test]
fn chunked_paper_scale_run_matches_the_served_solver() {
    use fusionfission::engine::derive_seeds;
    use fusionfission::service::JobRequest;
    let g = FabopInstance::paper_scale(&FabopConfig::default()).graph;
    let cfg = FusionFissionConfig {
        objective: Objective::MCut,
        stop: StopCondition::steps(4_000),
        ..FusionFissionConfig::standard(32)
    };
    for seed in derive_seeds(1 ^ 0x5eed, 8).into_iter().take(2) {
        let one_shot = FusionFission::new(&g, cfg, seed).run();
        let mut run = FusionFission::new(&g, cfg, seed).start();
        while run.advance(256) {}
        let chunked = run.harvest();
        let job = JobRequest {
            objective: Objective::MCut,
            seed,
            steps: Some(4_000),
            ..JobRequest::new("fabop", 32)
        };
        let served = job.solver(&g).run().unwrap();
        let runs = [
            (
                "chunked",
                chunked.best.assignment(),
                chunked.best_value,
                chunked.steps,
                &chunked.best_value_per_k,
            ),
            (
                "served",
                served.best.assignment(),
                served.best_value,
                served.steps,
                &served.best_value_per_k,
            ),
        ];
        for (name, assignment, value, steps, per_k) in runs {
            assert_eq!(assignment, one_shot.best.assignment(), "{name} {seed}");
            assert_eq!(value.to_bits(), one_shot.best_value.to_bits(), "{name}");
            assert_eq!(steps, one_shot.steps, "{name} {seed}");
            assert_eq!(per_k, &one_shot.best_value_per_k, "{name} {seed}");
        }
        assert_eq!(one_shot.steps, 4_000);
    }
}
