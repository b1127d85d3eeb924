//! `dist_islands`: `solve_distributed` over `WorkerSet::Connect` to two
//! in-process servers, one FABOP island each, with a small migration
//! interval so many lockstep epochs cross the `w*` wire. The same spec
//! through the in-process `Solver` is the byte-identical reference.

use crate::common::{
    latency, metis_round_trip, ms, repeat_setup, timed_loop, Ctx, Outcome, ServerGuard,
};
use crate::scrape::Scrape;
use crate::stats::median;
use crate::trace::{totals_by_name, Tracer};
use ff_atc::{FabopConfig, FabopInstance};
use ff_engine::{derive_seeds, EnsembleResult, MigrationPolicyId, Solver};
use ff_graph::Graph;
use ff_partition::Objective;
use ff_service::dist::{solve_distributed, DistOpts, DistSpec, WorkerSet};
use ff_service::{Client, GraphFormat, GraphSource, ServerConfig};
use std::collections::BTreeMap;
use std::time::Instant;

const K: usize = 32;
const ISLANDS: usize = 2;
const STEPS: u64 = 4096;
const INTERVAL: u64 = 128;
const INSTANCE: &str = "fabop";
/// Distinct job seeds a run cycles through (at least one job each); each
/// has one in-process reference.
const JOB_SEEDS: usize = 3;

struct Setup {
    g: Graph,
    spec: DistSpec,
    addrs: Vec<String>,
    _servers: Vec<ServerGuard>,
}

fn setup() -> Setup {
    let inst = FabopInstance::paper_scale(&FabopConfig::default());
    let (metis, g) = metis_round_trip(&inst.graph);
    let servers: Vec<ServerGuard> = (0..ISLANDS)
        .map(|_| ServerGuard::start(ServerConfig::with_workers(1)).expect("bind a local server"))
        .collect();
    let addrs: Vec<String> = servers
        .iter()
        .map(|s| s.handle().addr().to_string())
        .collect();
    // Warm-up: every server holds the instance before the first job.
    for addr in &addrs {
        let mut client = Client::connect(addr.as_str()).expect("connect to a local server");
        client
            .load(
                INSTANCE,
                GraphSource::Data(metis.clone()),
                GraphFormat::Metis,
            )
            .expect("warm-up load");
    }
    let spec = DistSpec {
        instance: INSTANCE.into(),
        source: GraphSource::Data(metis),
        format: GraphFormat::Metis,
        k: K,
        steps: STEPS,
        seeds: Vec::new(),
        objectives: vec![Objective::MCut; ISLANDS],
        interval: INTERVAL,
        migration: MigrationPolicyId::ReplaceIfBetter,
        pareto: false,
    };
    Setup {
        g,
        spec,
        addrs,
        _servers: servers,
    }
}

fn solver(g: &Graph, seed: u64) -> Solver<'_> {
    Solver::on(g)
        .k(K)
        .objective(Objective::MCut)
        .islands(ISLANDS)
        .steps(STEPS)
        .migration_interval(INTERVAL)
        .seed(seed)
}

fn same(a: &EnsembleResult, b: &EnsembleResult) -> bool {
    a.best.assignment() == b.best.assignment()
        && a.best_value == b.best_value
        && a.steps == b.steps
        && a.migrations_adopted == b.migrations_adopted
        && a.islands.len() == b.islands.len()
        && a.islands.iter().zip(&b.islands).all(|(x, y)| {
            x.best.assignment() == y.best.assignment()
                && x.best_value == y.best_value
                && x.steps == y.steps
        })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (s, setup_times) = repeat_setup(setup);
    out.setup(&setup_times);
    let workers = WorkerSet::Connect {
        addrs: s.addrs.clone(),
    };
    let dist_obs = ff_obs::Registry::new();
    let opts = DistOpts {
        obs: Some(dist_obs.clone()),
        ..DistOpts::default()
    };
    // Job j runs with root seed `seeds[j % JOB_SEEDS]`: island seeds are
    // derived from it exactly as the in-process solver derives them.
    let seeds = derive_seeds(ctx.seed, JOB_SEEDS);
    let spec = |seed: u64| DistSpec {
        seeds: derive_seeds(seed, ISLANDS),
        ..s.spec.clone()
    };
    let engine_obs = ff_obs::Registry::new();
    let tracer = Tracer::new();
    let mut job_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut ref_ms = Vec::new();
    let mut first_news_ms = Vec::new();
    let mut results: Vec<(u64, EnsembleResult)> = Vec::new();
    let mut errors = Vec::new();
    timed_loop(ctx.seconds, JOB_SEEDS, |i| {
        let seed = seeds[i % JOB_SEEDS];
        let spec = spec(seed);
        let t = Instant::now();
        let solved =
            out.measure_rss(|| solve_distributed(&s.g, &spec, &workers, &opts, &mut |_, _| {}));
        job_ms.push(ms(t.elapsed()));
        match solved {
            Ok(res) => results.push((seed, res)),
            Err(e) => errors.push(e),
        }
        if ctx.trace {
            let job = i as u64;
            let t = Instant::now();
            let mut first = None;
            let traced = tracer.span("job", job, || {
                tracer.span("dist.solve", job, || {
                    solve_distributed(&s.g, &spec, &workers, &opts, &mut |_, _| {
                        first.get_or_insert_with(|| ms(t.elapsed()));
                    })
                })
            });
            traced_ms.push(ms(t.elapsed()));
            first_news_ms.extend(first);
            match traced {
                Ok(res) => results.push((seed, res)),
                Err(e) => errors.push(e),
            }
            let t = Instant::now();
            let _ = solver(&s.g, seed).run();
            ref_ms.push(ms(t.elapsed()));
            tracer.span("reference", job, || {
                let mut run = tracer.span("engine.start", job, || {
                    solver(&s.g, seed)
                        .observe(engine_obs.clone())
                        .start()
                        .expect("valid reference configuration")
                });
                while tracer.span("engine.advance_epoch", job, || run.advance_epoch()) {}
                tracer.span("engine.harvest", job, || run.harvest())
            });
        }
    });

    // Every distributed result must be byte-identical to the in-process
    // reference of its seed, and a valid k-way partition.
    let mut references = BTreeMap::new();
    for &seed in seeds.iter().take(job_ms.len()) {
        let t = Instant::now();
        let reference = solver(&s.g, seed)
            .run()
            .expect("valid reference configuration");
        ref_ms.push(ms(t.elapsed()));
        references.insert(seed, reference);
    }
    for e in &errors {
        out.checks
            .check(false, || format!("distributed job failed: {e}"));
    }
    let mut values = Vec::new();
    for (i, (seed, res)) in results.iter().enumerate() {
        out.checks.partition(
            "distributed job",
            &s.g,
            &res.best,
            res.best_value,
            Objective::MCut,
            K,
        );
        out.checks.check(same(res, &references[seed]), || {
            format!("distributed job {i} differs from the in-process reference")
        });
        values.push(res.best_value);
    }

    let (p50, _) = latency(&mut out, "distributed job", &job_ms);
    out.e2e.insert("job_ms", p50);
    out.layer("quality.best_value", median(&values));

    if ctx.trace {
        let spans = tracer.spans();
        let totals = totals_by_name(&spans);
        let refs = totals["reference"].count as f64;
        let epochs = totals["engine.advance_epoch"].count as f64 / refs;
        let reference_ms = median(&ref_ms);
        out.layer("dist.ref_ms", reference_ms);
        out.layer("dist.epochs", epochs);
        out.layer("dist.wire_ms_per_epoch", (p50 - reference_ms) / epochs);
        out.layer("dist.first_news_ms", median(&first_news_ms));
        out.layer("engine.epochs", epochs);
        out.layer(
            "engine.epoch_ms",
            totals["engine.advance_epoch"].total_ms() / (epochs * refs),
        );
        out.layer("engine.start_ms", totals["engine.start"].total_ms() / refs);
        out.layer(
            "engine.harvest_ms",
            totals["engine.harvest"].total_ms() / refs,
        );
        out.layer("trace.overhead_ms", median(&traced_ms) - p50);
        if let Ok(scrape) = Scrape::registry(&engine_obs) {
            out.layer(
                "engine.migration_accept_ratio",
                scrape.migration_accept_ratio(),
            );
        }
        if let Ok(scrape) = Scrape::registry(&dist_obs) {
            out.layer(
                "dist.wire_failures",
                scrape.sum("ff_dist_wire_failures_total"),
            );
            out.layer("dist.respawns", scrape.sum("ff_dist_respawns_total"));
        }
        out.spans = spans;
    }
    out
}
