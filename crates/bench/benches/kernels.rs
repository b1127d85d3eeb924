//! Criterion microbenchmarks for the substrate kernels every partitioner
//! is built on: spmv, Lanczos Fiedler solves, matching + coarsening, FM
//! passes, percolation (a whole graph, and a coarse atom in place),
//! incremental move bookkeeping, the fusion–fission step loop (core loop
//! and agglomeration), its fission split and partner choice, and one
//! level of greedy k-way refinement.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ff_atc::{FabopConfig, FabopInstance};
use ff_graph::{coarsen, heavy_edge_matching};
use ff_linalg::{smallest_eigenpairs, LanczosOptions, LinearOperator};
use ff_metaheur::{percolation_partition, PercolationConfig};
use ff_partition::refine::fm::FmOptions;
use ff_partition::{fm_refine_bisection, CutState, Objective, Partition};
use ff_spectral::laplacian;
use std::hint::black_box;

fn instance() -> FabopInstance {
    FabopInstance::paper_scale(&FabopConfig::default())
}

fn bench_spmv(c: &mut Criterion) {
    let inst = instance();
    let l = laplacian(&inst.graph);
    let x = vec![1.0; l.n()];
    let mut y = vec![0.0; l.n()];
    c.bench_function("spmv_laplacian_762", |b| {
        b.iter(|| {
            l.apply(black_box(&x), &mut y);
            black_box(&y);
        })
    });
}

fn bench_fiedler(c: &mut Criterion) {
    let inst = instance();
    let l = laplacian(&inst.graph);
    let n = l.n();
    let deflate = vec![vec![1.0 / (n as f64).sqrt(); n]];
    c.bench_function("lanczos_fiedler_762", |b| {
        b.iter(|| {
            let opts = LanczosOptions {
                max_iter: 300,
                tol: 1e-6,
                seed: 1,
                deflate: deflate.clone(),
            };
            black_box(smallest_eigenpairs(&l, 1, &opts))
        })
    });
}

fn bench_matching_coarsen(c: &mut Criterion) {
    let inst = instance();
    c.bench_function("heavy_edge_matching_762", |b| {
        b.iter(|| black_box(heavy_edge_matching(&inst.graph, 1)))
    });
    let m = heavy_edge_matching(&inst.graph, 1);
    c.bench_function("coarsen_762", |b| {
        b.iter(|| black_box(coarsen(&inst.graph, &m)))
    });
    // The first level `Hierarchy::build` contracts for the multilevel
    // benchmark instance: the 10⁵-vertex graph under matching seed 7.
    let (g, _, _) = multilevel_instance();
    let m = heavy_edge_matching(&g, 7);
    c.bench_function("coarsen_level_1e5", |b| {
        b.iter(|| black_box(coarsen(&g, &m)))
    });
}

fn bench_fm_pass(c: &mut Criterion) {
    let inst = instance();
    let g = &inst.graph;
    c.bench_function("fm_refine_bisection_762", |b| {
        b.iter_batched(
            || CutState::new(g, Partition::random(g, 2, 7)),
            |mut st| {
                fm_refine_bisection(&mut st, 0, 1, &FmOptions::default());
                black_box(st.cut())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_mincut(c: &mut Criterion) {
    // Stoer–Wagner is O(n³); bench at reduced scale.
    let inst = ff_atc::FabopInstance::scaled(150, &FabopConfig::default());
    c.bench_function("stoer_wagner_150", |b| {
        b.iter(|| black_box(ff_graph::stoer_wagner(&inst.graph)))
    });
}

fn bench_percolation(c: &mut Criterion) {
    let inst = instance();
    c.bench_function("percolation_k32_762", |b| {
        b.iter(|| {
            black_box(percolation_partition(
                &inst.graph,
                32,
                &PercolationConfig::default(),
            ))
        })
    });
}

/// One percolation of an atom of the coarse graph the multilevel search
/// runs on (part 0 of the 8-way planted partition: ~240 vertices of
/// average degree ~130, most of their edges external), as fission splits
/// it: k = 2, 6 rounds, one percolator reused.
fn bench_percolate_coarse(c: &mut Criterion) {
    use ff_metaheur::Percolator;
    let (g, h, asg) = multilevel_instance();
    let coarse = h.coarsest(&g);
    let members: Vec<u32> = (0..)
        .zip(&asg)
        .filter(|&(_, &p)| p == 0)
        .map(|(v, _)| v)
        .collect();
    let cfg = PercolationConfig {
        max_rounds: 6,
        seed: 1,
    };
    let mut perc = Percolator::new();
    c.bench_function("percolate_coarse_1e5", |b| {
        b.iter(|| black_box(perc.percolate(coarse, &members, 2, &cfg)[0]))
    });
}

fn bench_move_bookkeeping(c: &mut Criterion) {
    let inst = instance();
    let g = &inst.graph;
    c.bench_function("cutstate_move_delta_mcut", |b| {
        let st = CutState::new(g, Partition::random(g, 32, 3));
        let n = g.num_vertices() as u32;
        let mut v = 0u32;
        b.iter(|| {
            v = (v + 97) % n;
            black_box(st.move_delta(Objective::MCut, v, v % 32))
        })
    });
    c.bench_function("cutstate_apply_move", |b| {
        b.iter_batched(
            || CutState::new(g, Partition::random(g, 32, 3)),
            |mut st| {
                for v in (0..500u32).map(|i| (i * 131) % g.num_vertices() as u32) {
                    st.move_vertex(v, v % 32);
                }
                black_box(st.cut())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_ff_steps(c: &mut Criterion) {
    use ff_core::{FusionFission, FusionFissionConfig};
    use ff_metaheur::StopCondition;
    let inst = instance();
    let g = &inst.graph;
    let cfg = FusionFissionConfig {
        stop: StopCondition::steps(u64::MAX),
        ..FusionFissionConfig::standard(32)
    };
    // One persistent run with an unbounded budget: each iteration advances
    // the same search by 64 steps, so this measures the steady-state cost
    // of the core loop (atom pick, reaction, bookkeeping), where few parts
    // are live and the reaction dominates.
    let mut run = FusionFission::new(g, cfg, 1).start();
    run.advance(5_000); // past agglomeration, into the core loop
    c.bench_function("ff_core_steps_x64_762", |b| {
        b.iter(|| {
            run.advance(64);
            black_box(run.steps())
        })
    });
}

fn bench_ff_agglomerate(c: &mut Criterion) {
    use ff_core::{FusionFission, FusionFissionConfig};
    use ff_graph::generators::planted_partition_sparse;
    use ff_metaheur::StopCondition;
    let g = planted_partition_sparse(8, 250, 0.03, 1e-4, 1);
    let cfg = FusionFissionConfig {
        objective: Objective::Cut,
        stop: StopCondition::steps(u64::MAX),
        ..FusionFissionConfig::standard(8)
    };
    // A fresh run from 2000 singletons until the live part count first
    // reaches k: Algorithm 2's agglomeration, where most part slots are
    // live and the molecule improves on nearly every step. This is where
    // per-step work that scales with the slot count shows.
    c.bench_function("ff_core_agglomerate_2k", |b| {
        b.iter(|| {
            let mut run = FusionFission::new(&g, cfg, 1).start();
            while run.best_at_target().is_none() && run.step_once() {}
            black_box(run.steps())
        })
    });
}

/// The `multilevel_sparse_1e5` benchmark graph, its coarsening stack
/// (the multilevel pipeline's default target of 3000 vertices, matching
/// seed 7) and an 8-way partition of the coarsest graph along the planted
/// groups: coarse vertex `c` goes to part `8·group/100` of the group its
/// lowest fine vertex was planted in.
fn multilevel_instance() -> (ff_graph::Graph, ff_graph::Hierarchy, Vec<u32>) {
    use ff_graph::generators::planted_partition_sparse;
    let g = planted_partition_sparse(100, 1000, 0.008, 2e-5, 1);
    let h = ff_graph::Hierarchy::build(&g, 3000, 7);
    let coarse_n = h.coarsest(&g).num_vertices() as u32;
    let owner = h.project_to_finest(&(0..coarse_n).collect::<Vec<_>>());
    let mut asg = vec![0u32; coarse_n as usize];
    for (v, &c) in owner.iter().enumerate().rev() {
        asg[c as usize] = (v / 1000 * 8 / 100) as u32;
    }
    (g, h, asg)
}

fn bench_select_partner(c: &mut Criterion) {
    use ff_core::ops::select_partner;
    use ff_core::FusionFissionConfig;
    use ff_partition::Connections;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    // One atom of the coarse graph the multilevel search runs on: part 0
    // of the 8-way planted partition, ~1/8 of the ~1.9k coarse vertices of
    // average degree ~130, as in the search's core loop.
    let (g, h, asg) = multilevel_instance();
    let coarse = h.coarsest(&g);
    let st = CutState::new(coarse, Partition::from_assignment(coarse, asg, 8));
    let size_bias = FusionFissionConfig::standard(8).size_bias;
    let mut conn = Connections::new();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    c.bench_function("select_partner_coarse_1e5", |b| {
        b.iter(|| black_box(select_partner(&st, &mut conn, 0, 0.5, size_bias, &mut rng)))
    });
}

fn bench_greedy_level(c: &mut Criterion) {
    use ff_partition::greedy_refine_kway;
    use ff_partition::refine::greedy::GreedyOptions;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    // The first level `refine_up` refines: the coarse partition, with 10%
    // of its vertices moved to random parts, projected onto the graph one
    // level finer than the coarsest, and refined with the pipeline's
    // default 8 passes.
    let (g, h, asg) = multilevel_instance();
    let lvl = h.num_levels() - 1;
    let fine = h.graph_at(&g, lvl);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let noisy: Vec<u32> = asg
        .iter()
        .map(|&p| {
            if rng.gen_bool(0.1) {
                rng.gen_range(0..8u32)
            } else {
                p
            }
        })
        .collect();
    let part = Partition::from_assignment(fine, h.levels()[lvl].project(&noisy), 8);
    let opts = GreedyOptions {
        max_passes: 8,
        seed: 7,
        ..GreedyOptions::default()
    };
    c.bench_function("greedy_refine_kway_level_1e5", |b| {
        b.iter_batched(
            || CutState::new(fine, part.clone()),
            |mut st| black_box(greedy_refine_kway(&mut st, Objective::Cut, &opts)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_ff_fission(c: &mut Criterion) {
    use ff_core::ops::fission_split;
    use ff_core::FissionSplitter;
    use ff_graph::generators::planted_partition_sparse;
    use ff_metaheur::Percolator;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    // The flat_sparse_1e4 benchmark instance, and an atom the size of its
    // average primary split: 2400 vertices, two planted groups and 40% of
    // a third. Each iteration splits the same atom with the same draws,
    // reusing one percolator as a run does.
    let g = planted_partition_sparse(10, 1000, 0.008, 2e-5, 1);
    let atom = (0..g.num_vertices())
        .map(|v| u32::from(v >= 2400))
        .collect();
    let molecule = Partition::from_assignment(&g, atom, 2);
    let mut perc = Percolator::new();
    c.bench_function("ff_core_fission_sparse_1e4", |b| {
        b.iter_batched(
            || {
                let st = CutState::new(&g, molecule.clone());
                (st, ChaCha8Rng::seed_from_u64(1))
            },
            |(mut st, mut rng)| {
                fission_split(
                    &mut st,
                    0,
                    FissionSplitter::Percolation,
                    &mut perc,
                    &mut rng,
                )
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_spmv,
    bench_fiedler,
    bench_matching_coarsen,
    bench_fm_pass,
    bench_mincut,
    bench_percolation,
    bench_percolate_coarse,
    bench_move_bookkeeping,
    bench_ff_steps,
    bench_ff_agglomerate,
    bench_ff_fission,
    bench_select_partner,
    bench_greedy_level
);
criterion_main!(benches);
