//! `multilevel_sparse_1e5`: `Solver::multilevel` on a 10⁵-vertex sparse
//! planted partition, 2 islands × 1000 steps. Coarsening (ff-graph) and
//! per-level refinement (ff-multilevel / ff-partition) dominate; the
//! searched coarse graph has only a few thousand vertices.
//!
//! The traced run recomposes the pipeline from public calls —
//! `Vcycle::new` → `Solver::on(vc.coarsest())…start()` +
//! `advance_epoch` + `harvest` → `refine_up` — and checks it is
//! byte-identical to `Solver::run`.

use crate::common::{latency, ms, repeat_setup, timed_loop, Checks, Ctx, Outcome};
use crate::scrape::Scrape;
use crate::stats::median;
use crate::trace::{totals_by_name, Tracer};
use ff_engine::{derive_seeds, EnsembleResult, LevelReport, MultilevelOpts, Solver};
use ff_graph::generators::planted_partition_sparse;
use ff_graph::Graph;
use ff_multilevel::{Vcycle, VcycleOpts};
use ff_partition::{Objective, Partition};
use std::time::Instant;

const K: usize = 8;
/// The CI `mlscale` instance: the graph is fixed and `--seed` drives the
/// searches, so runs differ by search trajectory and machine only.
const GRAPH_SEED: u64 = 1;
const ISLANDS: usize = 2;
/// Steps per island on the coarse graph: enough for agglomeration from its
/// ~1.9k singletons to reach k (1000 steps end at ~860 live parts).
const STEPS: u64 = 3000;

fn solver(g: &Graph, seed: u64) -> Solver<'_> {
    Solver::on(g)
        .k(K)
        .objective(Objective::Cut)
        .islands(ISLANDS)
        .steps(STEPS)
        .seed(seed)
}

fn solve(g: &Graph, seed: u64) -> EnsembleResult {
    solver(g, seed)
        .multilevel(MultilevelOpts::default())
        .run()
        .expect("valid multilevel configuration")
}

struct Recomposed {
    best: Partition,
    best_value: f64,
    levels: usize,
    coarse_vertices: usize,
    reports: Vec<LevelReport>,
}

/// The multilevel pipeline from its public pieces, one span per call.
fn solve_traced(
    g: &Graph,
    seed: u64,
    tracer: &Tracer,
    job: u64,
    registry: &ff_obs::Registry,
) -> Recomposed {
    let opts = MultilevelOpts::default();
    tracer.span("job", job, || {
        let vc = tracer.span("graph.coarsen", job, || {
            Vcycle::new(
                g,
                VcycleOpts {
                    coarsen_until: opts.coarsen_until,
                    refine_passes: opts.refine_passes,
                    seed,
                    min_coarse_vertices: K.max(2),
                },
            )
        });
        let res = tracer.span("engine.coarse_search", job, || {
            let mut run = tracer.span("engine.start", job, || {
                solver(vc.coarsest(), seed)
                    .observe(registry.clone())
                    .start()
                    .expect("valid coarse configuration")
            });
            while tracer.span("engine.advance_epoch", job, || run.advance_epoch()) {}
            tracer.span("engine.harvest", job, || run.harvest())
        });
        let objective = res.islands[res.best_island]
            .trace
            .tag()
            .unwrap_or(Objective::Cut);
        let (fine, reports) = tracer.span("multilevel.refine_up", job, || {
            vc.refine_up(&res.best, objective)
        });
        Recomposed {
            best_value: reports.last().map_or(res.best_value, |r| r.value_after),
            best: fine,
            levels: vc.num_levels(),
            coarse_vertices: vc.coarsest().num_vertices(),
            reports,
        }
    })
}

fn check_recomposed(checks: &mut Checks, rec: &Recomposed, res: &EnsembleResult) {
    let info = res.multilevel.as_ref();
    checks.check(
        rec.best.assignment() == res.best.assignment()
            && rec.best_value == res.best_value
            && info.is_some_and(|i| {
                i.levels == rec.levels && i.coarse_vertices == rec.coarse_vertices
            }),
        || "recomposed V-cycle differs from Solver::run".into(),
    );
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (g, setup) = repeat_setup(|| planted_partition_sparse(100, 1000, 0.008, 2e-5, GRAPH_SEED));
    out.setup(&setup);
    out.layer(
        "graph.generate_ms",
        median(&setup.iter().map(|d| ms(*d)).collect::<Vec<_>>()),
    );

    let registry = ff_obs::Registry::new();
    let tracer = Tracer::new();
    // Each job searches with its own seed, so a run's medians average
    // over several trajectories.
    let seeds = derive_seeds(ctx.seed, 32);
    let mut job_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut values = Vec::new();
    let mut first: Option<EnsembleResult> = None;
    let mut recomposed: Option<Recomposed> = None;
    timed_loop(ctx.seconds, 3, |i| {
        let seed = seeds[i % seeds.len()];
        let t = Instant::now();
        let res = out.measure_rss(|| solve(&g, seed));
        job_ms.push(ms(t.elapsed()));
        out.checks.partition(
            "multilevel job",
            &g,
            &res.best,
            res.best_value,
            Objective::Cut,
            K,
        );
        values.push(res.best_value);
        if ctx.trace {
            let t = Instant::now();
            let rec = solve_traced(&g, seed, &tracer, i as u64, &registry);
            traced_ms.push(ms(t.elapsed()));
            check_recomposed(&mut out.checks, &rec, &res);
            recomposed = Some(rec);
        }
        first.get_or_insert(res);
    });
    let first = first.expect("at least one job ran");
    // The recomposed pipeline must be byte-identical to `Solver::run`;
    // without tracing, check it once, untraced, on the first job's seed.
    let rec = match recomposed {
        Some(rec) => rec,
        None => {
            let rec = solve_traced(&g, seeds[0], &Tracer::new(), 0, &ff_obs::Registry::new());
            check_recomposed(&mut out.checks, &rec, &first);
            rec
        }
    };

    let (p50, _) = latency(&mut out, "multilevel job", &job_ms);
    out.e2e.insert("job_ms", p50);
    out.layer("quality.best_value", median(&values));

    if ctx.trace {
        let spans = tracer.spans();
        let totals = totals_by_name(&spans);
        let jobs = traced_ms.len() as f64;
        let per_job = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ms() / jobs);
        let coarsen = per_job("graph.coarsen");
        let search = per_job("engine.coarse_search");
        let refine = per_job("multilevel.refine_up");
        let traced = median(&traced_ms);
        out.layer("graph.coarsen_ms", coarsen);
        out.layer("graph.levels", rec.levels as f64);
        out.layer("graph.coarse_vertices", rec.coarse_vertices as f64);
        out.layer("engine.coarse_search_ms", search);
        out.layer("engine.start_ms", per_job("engine.start"));
        out.layer("engine.harvest_ms", per_job("engine.harvest"));
        let epochs = totals.get("engine.advance_epoch").map_or(0, |t| t.count) as f64;
        out.layer("engine.epochs", epochs / jobs);
        out.layer(
            "engine.epoch_ms",
            totals["engine.advance_epoch"].total_ms() / epochs.max(1.0),
        );
        out.layer("multilevel.refine_ms", refine);
        for r in &rec.reports {
            out.layer(
                format!("multilevel.refine_ms.level{}", r.level),
                r.refine_ms as f64,
            );
        }
        out.layer(
            "multilevel.refine_moves",
            rec.reports.iter().map(|r| r.moves as f64).sum(),
        );
        out.layer(
            "multilevel.refine_gain",
            rec.reports
                .iter()
                .map(|r| r.value_before - r.value_after)
                .sum(),
        );
        out.layer("pipeline.residual_ms", totals["job"].self_ms() / jobs);
        out.layer("trace.overhead_ms", traced - p50);
        if let Ok(scrape) = Scrape::registry(&registry) {
            out.layer(
                "engine.migration_accept_ratio",
                scrape.migration_accept_ratio(),
            );
        }
        out.notes.push(format!(
            "traced pipeline per job: coarsen {coarsen:.1} + coarse search {search:.1} + refine {refine:.1} + residual {:.1} = {:.1} ms",
            totals["job"].self_ms() / jobs,
            totals["job"].total_ms() / jobs,
        ));
        out.spans = spans;
    }
    out
}
