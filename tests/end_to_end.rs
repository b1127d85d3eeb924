//! Cross-crate integration: every partitioning method in the suite runs
//! end-to-end on shared workloads and produces structurally valid results
//! with sane quality relationships.

use fusionfission::atc::{FabopConfig, FabopInstance};
use fusionfission::graph::generators::{grid2d, planted_partition};
use fusionfission::metaheur::StopCondition;
use fusionfission::multilevel::MultilevelMode;
use fusionfission::prelude::*;
use fusionfission::spectral::{RefineMethod, SectionMode};

fn small_fabop() -> FabopInstance {
    FabopInstance::scaled(150, &FabopConfig::default())
}

#[test]
fn all_families_produce_valid_k_partitions() {
    let inst = small_fabop();
    let g = &inst.graph;
    let k = 8;

    let partitions: Vec<(&str, Partition)> = vec![
        (
            "linear",
            linear_partition(
                g,
                k,
                fusionfission::spectral::LinearMode::Bisection,
                RefineMethod::Kl,
            ),
        ),
        (
            "spectral-bi",
            spectral_partition(g, k, &SpectralConfig::default()),
        ),
        (
            "spectral-oct",
            spectral_partition(
                g,
                k,
                &SpectralConfig {
                    mode: SectionMode::Octasection,
                    ..Default::default()
                },
            ),
        ),
        (
            "multilevel",
            multilevel_partition(g, k, &MultilevelConfig::default()),
        ),
        (
            "multilevel-kway",
            multilevel_partition(
                g,
                k,
                &MultilevelConfig {
                    mode: MultilevelMode::KWay,
                    ..Default::default()
                },
            ),
        ),
        (
            "percolation",
            percolation_partition(g, k, &PercolationConfig::default()),
        ),
        (
            "sa",
            SimulatedAnnealing::new(
                g,
                k,
                SimulatedAnnealingConfig {
                    stop: StopCondition::steps(20_000),
                    ..Default::default()
                },
            )
            .run()
            .best,
        ),
        (
            "aco",
            AntColony::new(
                g,
                k,
                AntColonyConfig {
                    stop: StopCondition::steps(400),
                    ..Default::default()
                },
            )
            .run()
            .best,
        ),
        (
            "ff",
            FusionFission::new(g, FusionFissionConfig::fast(k), 1)
                .run()
                .best,
        ),
    ];

    for (name, p) in &partitions {
        assert!(p.validate(g), "{name}: invalid partition");
        assert_eq!(p.num_nonempty_parts(), k, "{name}: wrong part count");
        for obj in Objective::all() {
            let v = obj.evaluate(g, p);
            assert!(v >= 0.0, "{name}: negative {obj}");
        }
    }
}

#[test]
fn refinement_only_improves_cut() {
    let inst = small_fabop();
    let g = &inst.graph;
    for k in [4usize, 8] {
        let plain = spectral_partition(g, k, &SpectralConfig::default());
        let kl = spectral_partition(
            g,
            k,
            &SpectralConfig {
                refine: RefineMethod::Kl,
                ..Default::default()
            },
        );
        let c_plain = Objective::Cut.evaluate(g, &plain);
        let c_kl = Objective::Cut.evaluate(g, &kl);
        assert!(c_kl <= c_plain + 1e-9, "KL worsened cut at k={k}");
    }
}

#[test]
fn metaheuristics_beat_their_percolation_start_on_mcut() {
    let inst = small_fabop();
    let g = &inst.graph;
    let k = 8;
    let perc = percolation_partition(
        g,
        k,
        &PercolationConfig {
            seed: 3,
            ..Default::default()
        },
    );
    let perc_mcut = Objective::MCut.evaluate(g, &perc);

    let sa = SimulatedAnnealing::new(
        g,
        k,
        SimulatedAnnealingConfig {
            seed: 3,
            stop: StopCondition::steps(40_000),
            ..Default::default()
        },
    )
    .run();
    assert!(
        sa.best_value <= perc_mcut + 1e-9,
        "SA ({}) worse than its own start ({perc_mcut})",
        sa.best_value
    );

    let ff = FusionFission::new(
        g,
        FusionFissionConfig {
            stop: StopCondition::steps(6_000),
            ..FusionFissionConfig::standard(k)
        },
        3,
    )
    .run();
    assert!(
        ff.best_value <= perc_mcut + 1e-9,
        "FF ({}) worse than percolation ({perc_mcut})",
        ff.best_value
    );
}

#[test]
fn planted_structure_found_by_constructive_methods() {
    let g = planted_partition(4, 20, 0.6, 0.01, 77);
    let total = g.total_edge_weight();
    for (name, p) in [
        (
            "multilevel",
            multilevel_partition(&g, 4, &MultilevelConfig::default()),
        ),
        (
            "spectral+kl",
            spectral_partition(
                &g,
                4,
                &SpectralConfig {
                    refine: RefineMethod::Kl,
                    ..Default::default()
                },
            ),
        ),
    ] {
        let cut = Objective::Cut.evaluate(&g, &p);
        assert!(
            cut < 0.10 * total,
            "{name}: cut {cut} vs total {total} — planted structure missed"
        );
    }
}

#[test]
fn mesh_bisection_quality() {
    // On a 2D mesh the bisection optimum is a straight line; all serious
    // methods should land within 2× of it.
    let g = grid2d(16, 16);
    let optimal = 16.0;
    for (name, p) in [
        (
            "multilevel",
            multilevel_partition(&g, 2, &MultilevelConfig::default()),
        ),
        (
            "spectral",
            spectral_partition(&g, 2, &SpectralConfig::default()),
        ),
    ] {
        let cut = Objective::Cut.evaluate(&g, &p);
        assert!(
            cut <= 2.0 * optimal,
            "{name}: cut {cut} vs optimal {optimal}"
        );
    }
}

#[test]
fn hub_heavy_graphs_partition_cleanly() {
    // Barabási–Albert graphs stress balance: hubs attract everything.
    let g = fusionfission::graph::generators::barabasi_albert(150, 3, 3);
    for (name, p) in [
        (
            "multilevel",
            multilevel_partition(&g, 6, &MultilevelConfig::default()),
        ),
        (
            "percolation",
            percolation_partition(&g, 6, &PercolationConfig::default()),
        ),
        (
            "ff",
            FusionFission::new(&g, FusionFissionConfig::fast(6), 2)
                .run()
                .best,
        ),
    ] {
        assert!(p.validate(&g), "{name}");
        assert_eq!(p.num_nonempty_parts(), 6, "{name}");
    }
}

#[test]
fn warm_started_ff_beats_or_matches_multilevel() {
    let inst = small_fabop();
    let g = &inst.graph;
    let k = 8;
    let ml = multilevel_partition(g, k, &MultilevelConfig::default());
    let ml_mcut = Objective::MCut.evaluate(g, &ml);
    let refined = fusionfission::core::FusionFission::with_initial(
        g,
        FusionFissionConfig {
            stop: fusionfission::metaheur::StopCondition::steps(4_000),
            ..FusionFissionConfig::standard(k)
        },
        5,
        ml,
    )
    .run();
    assert!(
        refined.best_value <= ml_mcut + 1e-9,
        "FF polish worsened multilevel: {ml_mcut} → {}",
        refined.best_value
    );
}

#[test]
fn graph_io_roundtrip_preserves_partition_quality() {
    let inst = small_fabop();
    let g = &inst.graph;
    let mut buf = Vec::new();
    fusionfission::graph::io::write_metis(g, &mut buf).unwrap();
    let g2 = fusionfission::graph::io::read_metis(&buf[..]).unwrap();
    assert_eq!(g.num_vertices(), g2.num_vertices());
    assert_eq!(g.num_edges(), g2.num_edges());
    // Same seeds on the reread graph give identical partitions.
    let p1 = percolation_partition(g, 6, &PercolationConfig::default());
    let p2 = percolation_partition(&g2, 6, &PercolationConfig::default());
    assert_eq!(p1.assignment(), p2.assignment());
}
