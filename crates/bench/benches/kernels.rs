//! Criterion microbenchmarks for the substrate kernels every partitioner
//! is built on: spmv, Lanczos Fiedler solves, matching + coarsening, FM
//! passes, percolation, incremental move bookkeeping, the fusion–fission
//! step loop (core loop and agglomeration) and its fission split.

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
    bench_move_bookkeeping,
    bench_ff_steps,
    bench_ff_agglomerate,
    bench_ff_fission
);
criterion_main!(benches);
