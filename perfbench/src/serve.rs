//! `serve_mixed`: one in-process server (NDJSON + HTTP gateway +
//! journal, one compute slot, a cache budget that forces evictions) and
//! two closed-loop clients on their own connections:
//!
//! * `ndjson` submits short step-budgeted jobs on the resident FABOP
//!   instance (cache reads);
//! * `http` cycles `PUT /instances/:key` of a fresh sparse graph (parse,
//!   digest, journal append, LRU eviction), `POST /jobs` with
//!   `multilevel` on it, and `GET /jobs/:id/events` until `done`.

use crate::common::{
    latency, metis_round_trip, ms, repeat_setup, Checks, Ctx, Outcome, ServerGuard,
};
use crate::http::{stream_lines, HttpClient};
use crate::scrape::Scrape;
use crate::stats::{median, median_of};
use crate::trace::{merge, totals_by_name, Tracer};
use ff_atc::{FabopConfig, FabopInstance};
use ff_core::{FusionFission, FusionFissionConfig};
use ff_engine::{derive_seeds, Solver};
use ff_graph::generators::planted_partition_sparse;
use ff_graph::Graph;
use ff_metaheur::StopCondition;
use ff_partition::Objective;
use ff_service::{Client, DoneInfo, Event, GraphFormat, GraphSource, JobRequest, ServerConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const FABOP: &str = "fabop";
const SHORT_K: usize = 32;
const SHORT_STEPS: u64 = 4000;
/// Distinct short-job seeds, cycled; each has one in-process reference.
const SHORT_SEEDS: usize = 8;
const LONG_K: usize = 8;
const LONG_STEPS: u64 = 1000;
/// Coarsening target of the long job: small enough that 1000 steps
/// agglomerate the coarse graph down to k parts.
const LONG_COARSEN_UNTIL: u64 = 500;
/// Sparse graphs the `http` client cycles through, each PUT under a
/// fresh key.
const LONG_GRAPHS: usize = 8;
/// Steps per traced `advance` call of the in-process reference.
const CHUNK: u64 = 256;

struct Setup {
    fabop: Graph,
    sparse: Vec<(String, Graph)>,
    journal: PathBuf,
    server: ServerGuard,
}

fn setup(seed: u64, journal: &PathBuf) -> Setup {
    let inst = FabopInstance::paper_scale(&FabopConfig::default());
    let (fabop_metis, fabop) = metis_round_trip(&inst.graph);
    let sparse: Vec<(String, Graph)> = derive_seeds(seed, LONG_GRAPHS)
        .into_iter()
        .map(|s| metis_round_trip(&planted_partition_sparse(10, 1000, 0.008, 2e-5, s)))
        .collect();
    // Room for FABOP and two sparse graphs: every third PUT evicts.
    let largest = sparse.iter().map(|(_, g)| g.csr_bytes()).max().unwrap_or(0);
    let cache_bytes = fabop.csr_bytes() + 2 * largest + largest / 2;
    // A fresh journal: replaying an old one would re-run its jobs.
    let _ = std::fs::remove_file(journal);
    let server = ServerGuard::start(ServerConfig {
        workers: 1,
        cache_bytes,
        http: Some("127.0.0.1:0".into()),
        journal: Some(journal.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    })
    .expect("bind the server");
    let mut client = Client::connect(server.handle().addr()).expect("connect");
    client
        .load(FABOP, GraphSource::Data(fabop_metis), GraphFormat::Metis)
        .expect("warm-up load");
    Setup {
        fabop,
        sparse,
        journal: journal.clone(),
        server,
    }
}

fn short_job(seed: u64) -> JobRequest {
    JobRequest {
        objective: Objective::MCut,
        seed,
        steps: Some(SHORT_STEPS),
        ..JobRequest::new(FABOP, SHORT_K)
    }
}

fn long_job(instance: &str, seed: u64) -> JobRequest {
    JobRequest {
        objective: Objective::Cut,
        seed,
        steps: Some(LONG_STEPS),
        multilevel: Some(LONG_COARSEN_UNTIL),
        ..JobRequest::new(instance, LONG_K)
    }
}

/// The single-island solver the server builds for a short job.
fn reference(g: &Graph, job: &JobRequest) -> (f64, Vec<u32>) {
    let res = Solver::on(g)
        .config(short_config(job))
        .islands(1)
        .threads(1)
        .migration_interval(job.chunk)
        .seed(job.seed)
        .island_seeds(vec![job.seed])
        .run()
        .expect("valid short-job configuration");
    (res.best_value, res.best.assignment().to_vec())
}

fn short_config(job: &JobRequest) -> FusionFissionConfig {
    FusionFissionConfig {
        objective: job.objective,
        stop: StopCondition::new(job.steps.unwrap_or(u64::MAX), Duration::MAX),
        ..FusionFissionConfig::standard(job.k)
    }
}

/// The same reference search driven through `FusionFissionRun::advance`
/// in chunks, one span per call.
fn reference_traced(g: &Graph, job: &JobRequest, tracer: &Tracer, id: u64) -> (f64, Vec<u32>) {
    tracer.span("reference", id, || {
        let mut run = tracer.span("core.start", id, || {
            FusionFission::new(g, short_config(job), job.seed).start()
        });
        while tracer.span("core.advance", id, || run.advance(CHUNK)) {}
        let res = tracer.span("core.harvest", id, || run.harvest());
        (res.best_value, res.best.assignment().to_vec())
    })
}

struct ShortSample {
    seed: u64,
    client_ms: f64,
    traced: bool,
    done: DoneInfo,
    first_improvement_ms: Option<f64>,
}

struct LongSample {
    graph: usize,
    load_ms: f64,
    client_ms: f64,
    done: DoneInfo,
}

struct ClientLog<T> {
    samples: Vec<T>,
    errors: Vec<String>,
}

impl<T> ClientLog<T> {
    fn new() -> Self {
        ClientLog {
            samples: Vec::new(),
            errors: Vec::new(),
        }
    }
}

/// The `ndjson` client: short FABOP jobs, back to back.
fn ndjson_client(
    addr: SocketAddr,
    seeds: &[u64],
    deadline: Instant,
    trace: bool,
    tracer: &Tracer,
) -> ClientLog<ShortSample> {
    let mut log = ClientLog::new();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("ndjson connect: {e}"));
            return log;
        }
    };
    let mut i = 0u64;
    while Instant::now() < deadline {
        let seed = seeds[i as usize % seeds.len()];
        let job = short_job(seed);
        // In the traced run every other job is wrapped in spans, so the
        // untraced half gives the overhead baseline.
        let traced = trace && i % 2 == 1;
        let t = Instant::now();
        let mut first = None;
        let mut run = || -> std::io::Result<DoneInfo> {
            let id = if traced {
                tracer.span("ndjson.submit", i, || client.submit(&job))?
            } else {
                client.submit(&job)?
            };
            let mut wait = || loop {
                match client.next_event()? {
                    Event::Improvement(imp) if imp.job == id => {
                        first.get_or_insert_with(|| ms(t.elapsed()));
                    }
                    Event::Done(d) if d.job == id => return Ok(d),
                    Event::Error { message, .. } => {
                        return Err(std::io::Error::other(format!("job error: {message}")))
                    }
                    _ => {}
                }
            };
            if traced {
                tracer.span("ndjson.wait_done", i, wait)
            } else {
                wait()
            }
        };
        let result = if traced {
            tracer.span("short_job", i, run)
        } else {
            run()
        };
        match result {
            Ok(done) => log.samples.push(ShortSample {
                seed,
                client_ms: ms(t.elapsed()),
                traced,
                done,
                first_improvement_ms: first,
            }),
            Err(e) => {
                log.errors.push(format!("short job {i}: {e}"));
                break;
            }
        }
        i += 1;
    }
    log
}

/// The `http` client: PUT a fresh instance, POST a multilevel job on
/// it, stream its events until `done`.
fn http_client(
    addr: SocketAddr,
    sparse: &[(String, Graph)],
    seed: u64,
    deadline: Instant,
    trace: bool,
    tracer: &Tracer,
) -> ClientLog<LongSample> {
    let mut log = ClientLog::new();
    let mut http = HttpClient::new(addr);
    let mut cycle = 0u64;
    while Instant::now() < deadline {
        let graph = cycle as usize % sparse.len();
        let key = format!("sparse-{cycle}");
        let span = |name: &'static str, f: &mut dyn FnMut() -> Result<(), String>| {
            if trace {
                tracer.span(name, cycle, f)
            } else {
                f()
            }
        };
        let mut load_ms = 0.0;
        let mut client_ms = 0.0;
        let mut done = None;
        let result = span("http.cycle", &mut || {
            let t = Instant::now();
            span("http.put_instance", &mut || {
                let resp = http
                    .request(
                        "PUT",
                        &format!("/instances/{key}?format=metis"),
                        sparse[graph].0.as_bytes(),
                    )
                    .map_err(|e| format!("PUT: {e}"))?;
                (resp.status == 200)
                    .then_some(())
                    .ok_or_else(|| format!("PUT: status {} {}", resp.status, resp.text()))
            })?;
            load_ms = ms(t.elapsed());
            let t = Instant::now();
            let body = long_job(&key, seed).to_value().to_string();
            let mut id = 0;
            span("http.post_job", &mut || {
                let resp = http
                    .request("POST", "/jobs", body.as_bytes())
                    .map_err(|e| format!("POST: {e}"))?;
                match Event::parse(resp.text().trim()) {
                    Ok(Event::Accepted { job, .. }) if resp.status == 202 => {
                        id = job;
                        Ok(())
                    }
                    _ => Err(format!("POST: status {} {}", resp.status, resp.text())),
                }
            })?;
            span("http.stream_events", &mut || {
                let status = stream_lines(addr, &format!("/jobs/{id}/events"), &mut |line| {
                    if let Ok(Event::Done(d)) = Event::parse(line) {
                        client_ms = ms(t.elapsed());
                        done = Some(d);
                    }
                })
                .map_err(|e| format!("GET events: {e}"))?;
                (status == 200)
                    .then_some(())
                    .ok_or_else(|| format!("GET events: status {status}"))
            })
        });
        match (result, done) {
            (Ok(()), Some(done)) => log.samples.push(LongSample {
                graph,
                load_ms,
                client_ms,
                done,
            }),
            (Ok(()), None) => log
                .errors
                .push(format!("cycle {cycle}: stream ended without done")),
            (Err(e), _) => log.errors.push(format!("cycle {cycle}: {e}")),
        }
        cycle += 1;
    }
    log
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let journal = ctx
        .work_dir
        .join(format!("serve-journal-{}.ndjson", std::process::id()));
    let (s, setup_times) = repeat_setup(|| setup(ctx.seed, &journal));
    out.setup(&setup_times);
    let addr = s.server.handle().addr();
    let http_addr = s.server.handle().http_addr().expect("HTTP gateway enabled");
    // A root distinct from the one the uploaded graphs' seeds come from.
    let short_seeds = derive_seeds(ctx.seed ^ 0x5eed, SHORT_SEEDS);
    let long_seed = ctx.seed;

    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs_f64(ctx.seconds);
    let (short, long, tracers) = out.measure_rss(|| {
        std::thread::scope(|scope| {
            let ndjson = scope.spawn(|| {
                let tracer = Tracer::with_epoch(epoch);
                let log = ndjson_client(addr, &short_seeds, deadline, ctx.trace, &tracer);
                (log, tracer)
            });
            let http = scope.spawn(|| {
                let tracer = Tracer::with_epoch(epoch);
                let log = http_client(
                    http_addr, &s.sparse, long_seed, deadline, ctx.trace, &tracer,
                );
                (log, tracer)
            });
            let (short, t1) = ndjson.join().expect("ndjson client thread");
            let (long, t2) = http.join().expect("http client thread");
            (short, long, [t1, t2])
        })
    });
    let elapsed = epoch.elapsed();

    let scrape = HttpClient::new(http_addr)
        .request("GET", "/metrics", b"")
        .map_err(|e| e.to_string())
        .and_then(|r| Scrape::parse(&r.text()));
    out.checks.check(scrape.is_ok(), || {
        format!("GET /metrics did not parse: {:?}", scrape.as_ref().err())
    });

    check_outputs(&mut out.checks, &s, &short, &long);
    // Each served short job must equal the in-process run of the same
    // request; one reference per distinct seed.
    let ref_tracer = Tracer::with_epoch(epoch);
    let mut ref_ms = Vec::new();
    let mut references = BTreeMap::new();
    for (i, &seed) in short_seeds.iter().enumerate() {
        let job = short_job(seed);
        let t = Instant::now();
        let want = reference(&s.fabop, &job);
        ref_ms.push(ms(t.elapsed()));
        if ctx.trace {
            let traced = reference_traced(&s.fabop, &job, &ref_tracer, i as u64);
            out.checks.check(traced == want, || {
                format!("chunked FusionFissionRun differs from Solver for seed {seed}")
            });
        }
        references.insert(seed, want);
    }
    for (i, sample) in short.samples.iter().enumerate() {
        let want = &references[&sample.seed];
        let got = (
            sample.done.value,
            sample.done.assignment.clone().unwrap_or_default(),
        );
        out.checks.check(&got == want, || {
            format!(
                "short job {i} (seed {}) differs from the in-process Solver",
                sample.seed
            )
        });
    }

    let untraced: Vec<f64> = short
        .samples
        .iter()
        .filter(|x| !x.traced)
        .map(|x| x.client_ms)
        .collect();
    let (p50, short_tail) = latency(&mut out, "short job (ndjson, untraced)", &untraced);
    let long_ms: Vec<f64> = long.samples.iter().map(|x| x.client_ms).collect();
    let load_ms: Vec<f64> = long.samples.iter().map(|x| x.load_ms).collect();
    let (long_p50, _) = latency(&mut out, "long job (http multilevel)", &long_ms);
    let (load_p50, _) = latency(&mut out, "instance load (http PUT)", &load_ms);
    let values: Vec<f64> = references.values().map(|(v, _)| *v).collect();
    out.e2e.insert("job_ms", p50);
    out.layer("quality.best_value", median(&values));
    out.layer(
        "service.jobs_per_s",
        (short.samples.len() + long.samples.len()) as f64 / elapsed.as_secs_f64(),
    );

    out.layer("service.short_job_tail_ms", short_tail);
    out.layer("service.long_job_p50_ms", long_p50);
    out.layer("service.load_ms", load_p50);
    out.layer("service.short_jobs", short.samples.len() as f64);
    out.layer("service.long_jobs", long.samples.len() as f64);
    let shorts = || short.samples.iter();
    out.layer(
        "service.overhead_ms.ndjson",
        median_of(shorts().map(|x| x.client_ms - x.done.elapsed_ms as f64)),
    );
    out.layer(
        "service.overhead_ms.http",
        median_of(
            long.samples
                .iter()
                .map(|x| x.client_ms - x.done.elapsed_ms as f64),
        ),
    );
    out.layer(
        "service.engine_ms",
        median_of(shorts().map(|x| x.done.elapsed_ms as f64)),
    );
    out.layer("service.ref_ms", median(&ref_ms));
    out.layer(
        "service.first_improvement_ms",
        median_of(shorts().filter_map(|x| x.first_improvement_ms)),
    );
    if let Ok(scrape) = &scrape {
        let hits = scrape.sum("ff_cache_hits_total");
        let loads = scrape.sum("ff_cache_loads_total");
        out.layer(
            "service.permit_wait_ms",
            scrape.histogram_mean("ff_permit_wait_ms"),
        );
        out.layer(
            "service.cache_hit_ratio",
            if hits + loads > 0.0 {
                hits / (hits + loads)
            } else {
                0.0
            },
        );
        out.layer(
            "service.cache_evictions",
            scrape.sum("ff_cache_evictions_total"),
        );
        out.layer(
            "service.journal_records",
            scrape.sum("ff_journal_records_total"),
        );
    }
    if ctx.trace {
        let traced: Vec<f64> = short
            .samples
            .iter()
            .filter(|x| x.traced)
            .map(|x| x.client_ms)
            .collect();
        out.layer("trace.overhead_ms", median(&traced) - p50);
        let [t1, t2] = tracers;
        out.spans = merge([t1, t2, ref_tracer]);
        let totals = totals_by_name(&out.spans);
        let advance = totals.get("core.advance").copied().unwrap_or_default();
        let steps = SHORT_STEPS as f64 * SHORT_SEEDS as f64;
        out.layer("core.step_us", advance.total_ms() * 1e3 / steps);
        out.layer("core.steps", SHORT_STEPS as f64);
        out.notes.push(format!(
            "traced short jobs: n={}, spans {}",
            traced.len(),
            out.spans.len()
        ));
    }
    out.notes.push(format!(
        "short tail {short_tail:.3} ms at n={}; long p50 {long_p50:.3} ms; load p50 {load_p50:.3} ms",
        untraced.len()
    ));
    drop(s.server);
    let _ = std::fs::remove_file(&s.journal);
    out
}

fn check_outputs(
    checks: &mut Checks,
    s: &Setup,
    short: &ClientLog<ShortSample>,
    long: &ClientLog<LongSample>,
) {
    for e in short.errors.iter().chain(&long.errors) {
        checks.check(false, || e.clone());
    }
    for x in &short.samples {
        let a = x.done.assignment.as_deref().unwrap_or_default();
        checks.assignment(
            "short job",
            &s.fabop,
            a,
            x.done.value,
            Objective::MCut,
            SHORT_K,
        );
    }
    for x in &long.samples {
        let a = x.done.assignment.as_deref().unwrap_or_default();
        checks.assignment(
            "long job",
            &s.sparse[x.graph].1,
            a,
            x.done.value,
            Objective::Cut,
            LONG_K,
        );
    }
}
