//! `flat_sparse_1e4`: one fusion–fission island from singletons on a
//! 10⁴-vertex sparse planted partition. No coarsening, refinement or
//! wire: the per-step work of ff-core is all of the wall-clock.

use crate::common::{ms, repeat_setup, timed_loop, Ctx, Outcome};
use crate::stats::median;
use crate::trace::{totals_by_name, Tracer};
use ff_core::{FusionFission, FusionFissionConfig, FusionFissionResult};
use ff_engine::{derive_seeds, EnsembleResult, Solver};
use ff_graph::generators::planted_partition_sparse;
use ff_graph::Graph;
use ff_metaheur::StopCondition;
use ff_partition::Objective;
use std::time::Instant;

const K: usize = 8;
/// Long enough to finish agglomeration from 10⁴ singletons (~10 050
/// steps at ~0.3 ms) and then spend comparable time in the core loop
/// (~1 ms per step).
pub const STEPS: u64 = 11_500;
/// Steps per traced `advance` call.
const CHUNK: u64 = 64;

/// The instance is fixed; `--seed` drives the searches. Run-to-run
/// differences then come from the search and the machine, not from
/// graphs of different difficulty.
const GRAPH_SEED: u64 = 1;

fn solve(g: &Graph, seed: u64) -> EnsembleResult {
    Solver::on(g)
        .k(K)
        .objective(Objective::Cut)
        .islands(1)
        .steps(STEPS)
        .seed(seed)
        .run()
        .expect("valid flat configuration")
}

/// Per-phase figures of one traced run.
struct Phases {
    agglomerate_steps: u64,
    agglomerate_ns: u64,
    core_steps: u64,
    core_ns: u64,
    trace_points: usize,
}

/// The same single-island search as [`solve`], driven through
/// `FusionFissionRun::advance` in chunks with a span around each call.
fn solve_traced(g: &Graph, seed: u64, tracer: &Tracer, job: u64) -> (FusionFissionResult, Phases) {
    let cfg = FusionFissionConfig {
        objective: Objective::Cut,
        stop: StopCondition::steps(STEPS),
        ..FusionFissionConfig::standard(K)
    };
    let island_seed = derive_seeds(seed, 1)[0];
    let mut phases = Phases {
        agglomerate_steps: 0,
        agglomerate_ns: 0,
        core_steps: 0,
        core_ns: 0,
        trace_points: 0,
    };
    let result = tracer.span("job", job, || {
        let mut run = tracer.span("core.start", job, || {
            FusionFission::new(g, cfg, island_seed).start()
        });
        loop {
            let before = run.steps();
            let agglomerating = run.best_at_target().is_none();
            let t = Instant::now();
            let more = tracer.span("core.advance", job, || run.advance(CHUNK));
            let ns = t.elapsed().as_nanos() as u64;
            let steps = run.steps() - before;
            if agglomerating {
                phases.agglomerate_steps += steps;
                phases.agglomerate_ns += ns;
            } else {
                phases.core_steps += steps;
                phases.core_ns += ns;
            }
            if !more {
                break;
            }
        }
        phases.trace_points = run.trace().len();
        tracer.span("core.harvest", job, || run.harvest())
    });
    (result, phases)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (g, setup) = repeat_setup(|| planted_partition_sparse(10, 1000, 0.008, 2e-5, GRAPH_SEED));
    out.setup(&setup);
    out.layer(
        "graph.generate_ms",
        median(&setup.iter().map(|d| ms(*d)).collect::<Vec<_>>()),
    );

    // Each job searches with its own seed, so a run's medians average
    // over several trajectories.
    let seeds = derive_seeds(ctx.seed, 16);
    let mut job_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut values = Vec::new();
    let mut steps = 0;
    let tracer = Tracer::new();
    let mut phases = Vec::new();
    timed_loop(ctx.seconds, if ctx.trace { 1 } else { 2 }, |i| {
        let seed = seeds[i % seeds.len()];
        let t = Instant::now();
        let res = out.measure_rss(|| solve(&g, seed));
        job_ms.push(ms(t.elapsed()));
        out.checks
            .partition("flat job", &g, &res.best, res.best_value, Objective::Cut, K);
        values.push(res.best_value);
        steps = res.steps;
        if ctx.trace {
            let t = Instant::now();
            let (traced, ph) = solve_traced(&g, seed, &tracer, i as u64);
            traced_ms.push(ms(t.elapsed()));
            phases.push(ph);
            out.checks.check(
                traced.best.assignment() == res.best.assignment()
                    && traced.best_value == res.best_value
                    && traced.steps == res.steps,
                || format!("flat job {i}: chunked FusionFissionRun differs from Solver::run"),
            );
        }
    });
    let (p50, _) = crate::common::latency(&mut out, "flat job", &job_ms);
    out.e2e.insert("job_ms", p50);
    out.layer("quality.best_value", median(&values));

    if ctx.trace {
        let ph = |f: fn(&Phases) -> u64| phases.iter().map(f).sum::<u64>() as f64;
        let agg_steps = ph(|p| p.agglomerate_steps);
        let core_steps = ph(|p| p.core_steps);
        out.layer(
            "core.agglomerate_us_per_step",
            ph(|p| p.agglomerate_ns) / 1e3 / agg_steps.max(1.0),
        );
        out.layer(
            "core.step_us",
            ph(|p| p.core_ns) / 1e3 / core_steps.max(1.0),
        );
        out.layer("core.steps", steps as f64);
        out.layer("core.agglomerate_steps", agg_steps / phases.len() as f64);
        out.layer("core.trace_points", phases[0].trace_points as f64);
        out.layer("trace.overhead_ms", median(&traced_ms) - p50);
        out.spans = tracer.spans();
        let totals = totals_by_name(&out.spans);
        out.notes.push(format!(
            "traced: {} jobs, core.advance calls {} (self {:.1} ms), job self {:.1} ms",
            traced_ms.len(),
            totals["core.advance"].count,
            totals["core.advance"].self_ms(),
            totals["job"].self_ms()
        ));
    }
    out
}
