//! Observability is observation-only: enabling the metrics registry and
//! structured logging at any layer — engine, NDJSON server, HTTP
//! gateway, distributed coordinator — must not change a single output
//! byte. Each test here runs the pinned golden job (3×3 grid, k = 2,
//! mcut, 20 000 steps, seed 7 → 0.964286) with instrumentation on and
//! off and compares the bytes, then checks the instruments actually
//! moved.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ff_engine::{MigrationPolicyId, MultilevelOpts, Solver};
use ff_graph::generators::planted_partition_sparse;
use ff_graph::io::read_metis;
use ff_obs::{parse_exposition, LogFormat, Logger, Registry, Sample, EXPOSITION_CONTENT_TYPE};
use ff_partition::Objective;
use ff_service::dist::{solve_distributed, DistOpts, DistSpec, WorkerSet};
use ff_service::{
    Client, GraphFormat, GraphSource, JobRequest, JobStatus, Server, ServerConfig, SubmitOutcome,
};

const GRID: &str = "9 12\n2 4\n1 3 5\n2 6\n1 5 7\n2 4 6 8\n3 5 9\n4 8\n5 7 9\n6 8\n";
const GOLDEN: &str = "0.964286";

/// Finds one exposition sample by name + label subset.
fn sample<'a>(samples: &'a [Sample], name: &str, labels: &[(&str, &str)]) -> &'a Sample {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|&(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
        .unwrap_or_else(|| panic!("no sample `{name}` with labels {labels:?}"))
}

// ---------------------------------------------------------------- engine

#[test]
fn solver_observation_changes_no_output_byte() {
    let g = read_metis(GRID.as_bytes()).unwrap();
    let plain = Solver::on(&g).k(2).steps(20_000).seed(7).run().unwrap();
    let registry = Registry::new();
    let observed = Solver::on(&g)
        .k(2)
        .steps(20_000)
        .seed(7)
        .observe(registry.clone())
        .run()
        .unwrap();
    assert_eq!(observed.best.assignment(), plain.best.assignment());
    assert_eq!(observed.best_value.to_bits(), plain.best_value.to_bits());
    assert_eq!(format!("{:.6}", observed.best_value), GOLDEN);
    // The registry did record the run.
    let samples = parse_exposition(&registry.render()).unwrap();
    assert!(sample(&samples, "ff_engine_epochs_total", &[]).value >= 1.0);
}

#[test]
fn solver_observation_is_inert_across_migration_policies() {
    let g = read_metis(GRID.as_bytes()).unwrap();
    for policy in [
        MigrationPolicyId::ReplaceIfBetter,
        MigrationPolicyId::Combine,
        MigrationPolicyId::Adaptive,
    ] {
        let run = |registry: Option<Registry>| {
            let mut solver = Solver::on(&g)
                .k(2)
                .islands(4)
                .migration(policy.build())
                .steps(6_000)
                .seed(7);
            if let Some(registry) = registry {
                solver = solver.observe(registry);
            }
            solver.run().unwrap()
        };
        let registry = Registry::new();
        let (plain, observed) = (run(None), run(Some(registry.clone())));
        assert_eq!(
            observed.best.assignment(),
            plain.best.assignment(),
            "{policy:?} diverged under observation"
        );
        assert_eq!(observed.migrations_adopted, plain.migrations_adopted);
        // Offers were counted under this policy's label; every planned
        // receiver pair (≥ 1 per offer) was adopted or rejected, and
        // adoptions agree with the engine's own counter.
        let samples = parse_exposition(&registry.render()).unwrap();
        let label = [("policy", policy.name())];
        let offers = sample(&samples, "ff_engine_migration_offers_total", &label).value;
        let accepts = sample(&samples, "ff_engine_migration_accepts_total", &label).value;
        let rejects = sample(&samples, "ff_engine_migration_rejects_total", &label).value;
        assert!(accepts + rejects >= offers, "{policy:?}: pairs < offers");
        assert_eq!(accepts as u64, observed.migrations_adopted);
        if observed.migrations_adopted > 0 {
            assert!(offers >= 1.0, "{policy:?}: adoptions without offers");
        }
    }
}

#[test]
fn multilevel_observation_times_one_coarsening() {
    let g = planted_partition_sparse(4, 250, 0.02, 1e-3, 1);
    let run = |registry: Option<Registry>| {
        let mut solver = Solver::on(&g)
            .k(4)
            .islands(2)
            .steps(2_000)
            .seed(3)
            .multilevel(MultilevelOpts {
                coarsen_until: 200,
                ..MultilevelOpts::default()
            });
        if let Some(registry) = registry {
            solver = solver.observe(registry);
        }
        solver.run().unwrap()
    };
    let registry = Registry::new();
    let (plain, observed) = (run(None), run(Some(registry.clone())));
    assert_eq!(observed.best.assignment(), plain.best.assignment());
    assert_eq!(observed.best_value.to_bits(), plain.best_value.to_bits());
    assert!(observed.multilevel.as_ref().unwrap().levels >= 2);
    let samples = parse_exposition(&registry.render()).unwrap();
    assert_eq!(
        sample(&samples, "ff_engine_coarsen_ms_count", &[]).value,
        1.0
    );
}

// --------------------------------------------------------- NDJSON server

fn golden_job() -> JobRequest {
    JobRequest {
        steps: Some(20_000),
        seed: 7,
        ..JobRequest::new("grid", 2)
    }
}

fn run_golden(handle: &ff_service::ServerHandle) -> ff_service::DoneInfo {
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .load("grid", GraphSource::Data(GRID.into()), GraphFormat::Metis)
        .unwrap();
    let id = client.submit(&golden_job()).unwrap();
    let (_, done) = client.wait_done(id).unwrap();
    done
}

#[test]
fn server_json_logging_and_metrics_change_no_output_byte() {
    let plain_handle = Server::bind("127.0.0.1:0", 2).unwrap().spawn().unwrap();
    let logged_handle = Server::bind_with(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            log_format: Some(LogFormat::Json),
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();

    let plain = run_golden(&plain_handle);
    let logged = run_golden(&logged_handle);
    assert_eq!(plain.status, JobStatus::Completed);
    assert_eq!(format!("{:.6}", plain.value), GOLDEN);
    assert_eq!(logged.assignment, plain.assignment);
    assert_eq!(logged.value.to_bits(), plain.value.to_bits());
    assert_eq!(logged.steps, plain.steps);

    // The instrumented server's stats snapshot saw the job end to end.
    let mut client = Client::connect(logged_handle.addr()).unwrap();
    let ff_service::Event::Stats(st) = client.stats().unwrap() else {
        panic!("stats() returns the stats event");
    };
    assert_eq!(st.jobs_submitted, 1);
    assert_eq!(st.jobs_done, 1);
    assert_eq!(st.jobs_cancelled, 0);
    assert_eq!(st.cache_loads, 1);
    assert_eq!(st.job_duration_hist.iter().sum::<u64>(), 1);
    assert_eq!(st.permit_wait_bucket_ms, ff_service::WAIT_BUCKET_MS);
    assert_eq!(st.job_duration_bucket_ms, ff_service::DURATION_BUCKET_MS);

    client.shutdown().unwrap();
    logged_handle.join().unwrap();
    Client::connect(plain_handle.addr())
        .unwrap()
        .shutdown()
        .unwrap();
    plain_handle.join().unwrap();
}

// ----------------------------------------------------------- HTTP gateway

/// One-shot HTTP exchange, returning `(status, head, body)`.
fn http(addr: std::net::SocketAddr, method: &str, path: &str) -> (u16, String, String) {
    use std::io::Read;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("response has a head");
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, head.to_string(), body.to_string())
}

#[test]
fn http_metrics_scrape_is_valid_exposition_covering_every_layer() {
    let handle = Server::bind_with(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            http: Some("127.0.0.1:0".into()),
            log_format: Some(LogFormat::Json),
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let http_addr = handle.http_addr().unwrap();

    let done = run_golden(&handle);
    assert_eq!(format!("{:.6}", done.value), GOLDEN);

    let (status, head, page) = http(http_addr, "GET", "/metrics");
    assert_eq!(status, 200);
    assert!(
        head.contains(EXPOSITION_CONTENT_TYPE),
        "missing exposition content type in {head:?}"
    );
    let samples = parse_exposition(&page).expect("page parses as Prometheus text");
    // Service layer.
    assert_eq!(
        sample(
            &samples,
            "ff_jobs_completed_total",
            &[("status", "completed")]
        )
        .value,
        1.0
    );
    assert_eq!(sample(&samples, "ff_jobs_submitted_total", &[]).value, 1.0);
    assert_eq!(sample(&samples, "ff_cache_loads_total", &[]).value, 1.0);
    assert_eq!(sample(&samples, "ff_job_duration_ms_count", &[]).value, 1.0);
    assert!(
        sample(
            &samples,
            "ff_connections_opened_total",
            &[("proto", "ndjson")]
        )
        .value
            >= 1.0
    );
    // Engine layer, wired through the job driver's `Solver::observe`.
    assert!(sample(&samples, "ff_engine_epochs_total", &[]).value >= 1.0);
    assert!(sample(&samples, "ff_engine_epoch_ms_count", &[]).value >= 1.0);
    // Distributed-coordinator families are pre-registered at zero, so
    // dashboards see the full catalog before the first fault.
    assert_eq!(
        sample(&samples, "ff_dist_wire_failures_total", &[("kind", "dead")]).value,
        0.0
    );
    assert_eq!(sample(&samples, "ff_dist_respawns_total", &[]).value, 0.0);

    // A rerun of the same job leaves every counter monotone.
    let rerun = run_golden(&handle);
    assert_eq!(
        rerun.assignment, done.assignment,
        "rerun must be deterministic"
    );
    let (_, _, page2) = http(http_addr, "GET", "/metrics");
    let after = parse_exposition(&page2).unwrap();
    for s in samples.iter().filter(|s| s.name.ends_with("_total")) {
        let labels: Vec<(&str, &str)> = s
            .labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let now = sample(&after, &s.name, &labels).value;
        assert!(
            now >= s.value,
            "{} went backwards: {} -> {now}",
            s.name,
            s.value
        );
    }
    assert_eq!(
        sample(
            &after,
            "ff_jobs_completed_total",
            &[("status", "completed")]
        )
        .value,
        2.0
    );
    assert!(
        sample(&after, "ff_cache_hits_total", &[]).value
            > sample(&samples, "ff_cache_hits_total", &[]).value,
        "rerun hits the instance cache"
    );

    // The scrape endpoint rejects non-GET like the other routes.
    let (status, _, _) = http(http_addr, "POST", "/metrics");
    assert_eq!(status, 405);

    Client::connect(handle.addr()).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

// ------------------------------------------------- distributed coordinator

/// A `Write` sink tests can read back — captures the coordinator's
/// structured log.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn distributed_observation_changes_no_output_byte() {
    let g = read_metis(GRID.as_bytes()).unwrap();
    let spec = DistSpec {
        instance: "grid".into(),
        source: GraphSource::Data(GRID.into()),
        format: GraphFormat::Metis,
        k: 2,
        steps: 20_000,
        seeds: ff_engine::derive_seeds(7, 4),
        objectives: vec![Objective::MCut; 4],
        interval: ff_service::DEFAULT_CHUNK,
        migration: MigrationPolicyId::ReplaceIfBetter,
        pareto: false,
    };
    let workers = WorkerSet::Spawn {
        cmd: vec![env!("CARGO_BIN_EXE_ffworker").to_string()],
        count: 2,
    };
    let run =
        |opts: &DistOpts| solve_distributed(&g, &spec, &workers, opts, &mut |_, _| {}).unwrap();

    let plain = run(&DistOpts {
        reply_timeout: Duration::from_secs(120),
        ..DistOpts::default()
    });
    let registry = Registry::new();
    let buf = SharedBuf::default();
    let observed = run(&DistOpts {
        reply_timeout: Duration::from_secs(120),
        obs: Some(registry.clone()),
        logger: Logger::to(LogFormat::Json, Box::new(buf.clone())),
        ..DistOpts::default()
    });

    assert_eq!(observed.best.assignment(), plain.best.assignment());
    assert_eq!(observed.best_value.to_bits(), plain.best_value.to_bits());
    assert_eq!(observed.steps, plain.steps);
    assert_eq!(observed.migrations_adopted, plain.migrations_adopted);
    assert_eq!(format!("{:.6}", observed.best_value), GOLDEN);

    // A clean run: per-worker epoch gauges advanced in lockstep, no
    // faults, no respawns.
    let samples = parse_exposition(&registry.render()).unwrap();
    let lag0 = sample(&samples, "ff_dist_worker_epoch", &[("worker", "0")]).value;
    let lag1 = sample(&samples, "ff_dist_worker_epoch", &[("worker", "1")]).value;
    assert!(lag0 >= 1.0);
    assert_eq!(lag0, lag1, "lockstep workers must share an epoch");
    for kind in ["dead", "timeout", "corrupt"] {
        assert_eq!(
            sample(&samples, "ff_dist_wire_failures_total", &[("kind", kind)]).value,
            0.0
        );
    }
    assert_eq!(sample(&samples, "ff_dist_respawns_total", &[]).value, 0.0);

    // Every captured log line is one valid JSON object tagged `epoch`.
    let raw = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(!raw.is_empty(), "json logger captured no spans");
    for line in raw.lines() {
        let v = serde_json::from_str(line).unwrap_or_else(|e| panic!("bad log line {line:?}: {e}"));
        assert_eq!(v.get("event").and_then(|e| e.as_str()), Some("epoch"));
        assert!(v.get("ts_ms").and_then(|t| t.as_u64()).is_some());
        assert!(v.get("workers").and_then(|w| w.as_u64()).is_some());
    }
}

// ------------------------------------------------ stats vs /metrics

/// A histogram's cumulative `_bucket` samples, de-cumulated, in the
/// order of the `stats` event's bounds followed by `+Inf`.
fn decumulated(samples: &[Sample], family: &str, bounds_ms: &[u64]) -> Vec<u64> {
    let name = format!("{family}_bucket");
    let mut below = 0;
    bounds_ms
        .iter()
        .map(u64::to_string)
        .chain(["+Inf".to_string()])
        .map(|le| {
            let cumulative = sample(samples, &name, &[("le", &le)]).value as u64;
            let count = cumulative - below;
            below = cumulative;
            count
        })
        .collect()
}

/// Takes a `stats` snapshot and a `/metrics` scrape of a quiescent
/// server and checks every `stats` field that has a metric family
/// against its scraped sample. Returns the snapshot.
fn assert_stats_match_scrape(handle: &ff_service::ServerHandle) -> ff_service::StatsInfo {
    let mut client = Client::connect(handle.addr()).unwrap();
    let ff_service::Event::Stats(st) = client.stats().unwrap() else {
        panic!("stats() returns the stats event");
    };
    let (status, _, page) = http(handle.http_addr().unwrap(), "GET", "/metrics");
    assert_eq!(status, 200);
    let samples = parse_exposition(&page).unwrap();
    let value = |name: &str, labels: &[(&str, &str)]| sample(&samples, name, labels).value as u64;
    let by_status = |status: &str| value("ff_jobs_completed_total", &[("status", status)]);
    let scraped = [
        value("ff_jobs_submitted_total", &[]),
        value("ff_jobs_rejected_total", &[]),
        by_status("completed") + by_status("cancelled") + by_status("deadline"),
        by_status("cancelled"),
        value("ff_cache_hits_total", &[]),
        value("ff_cache_loads_total", &[]),
        value("ff_cache_evictions_total", &[]),
        value("ff_cache_bytes", &[]),
        value("ff_cache_instances", &[]),
    ];
    let from_stats = [
        st.jobs_submitted,
        st.jobs_rejected,
        st.jobs_done,
        st.jobs_cancelled,
        st.cache_hits,
        st.cache_loads,
        st.cache_evictions,
        st.cache_bytes,
        st.instances as u64,
    ];
    assert_eq!(
        from_stats, scraped,
        "`stats` [submitted, rejected, done, cancelled, cache hits, loads, \
         evictions, bytes, instances] vs /metrics"
    );
    assert_eq!(
        st.permit_wait_hist.to_vec(),
        decumulated(&samples, "ff_permit_wait_ms", &st.permit_wait_bucket_ms),
        "`stats` permit-wait buckets vs /metrics ff_permit_wait_ms"
    );
    assert_eq!(
        st.job_duration_hist.to_vec(),
        decumulated(&samples, "ff_job_duration_ms", &st.job_duration_bucket_ms),
        "`stats` job-duration buckets vs /metrics ff_job_duration_ms"
    );
    st
}

/// `stats` and `/metrics` read one store, so they agree on every count
/// they share — including the permit waits of a worker session this
/// server hosts for a distributed job, and the totals a journal restart
/// restores.
#[test]
fn stats_and_metrics_agree_on_every_shared_count_across_a_restart() {
    let journal =
        std::env::temp_dir().join(format!("ff-obs-coherence-{}.ndjson", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let g = read_metis(GRID.as_bytes()).unwrap();
    let config = ServerConfig {
        workers: 1,
        max_jobs: 1,
        // Room for one resident grid, not two.
        cache_bytes: g.csr_bytes() + g.csr_bytes() / 2,
        http: Some("127.0.0.1:0".into()),
        journal: Some(journal.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let handle = Server::bind_with("127.0.0.1:0", config.clone())
        .unwrap()
        .spawn()
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .load("grid", GraphSource::Data(GRID.into()), GraphFormat::Metis)
        .unwrap();
    // A long job holds the one admission slot, so the next submit is
    // rejected; then it is cancelled.
    let long = client
        .submit(&JobRequest {
            steps: Some(u64::MAX / 2),
            chunk: 128,
            ..JobRequest::new("grid", 2)
        })
        .unwrap();
    match client.try_submit(&golden_job()).unwrap() {
        SubmitOutcome::Rejected { .. } => {}
        other => panic!("expected a rejection, got {other:?}"),
    }
    assert!(client.cancel(long).unwrap());
    assert_eq!(
        client.wait_done(long).unwrap().1.status,
        JobStatus::Cancelled
    );
    // A served job.
    let id = client.submit(&golden_job()).unwrap();
    let (_, done) = client.wait_done(id).unwrap();
    assert_eq!(format!("{:.6}", done.value), GOLDEN);
    // A second instance evicts the first.
    client
        .load("copy", GraphSource::Data(GRID.into()), GraphFormat::Metis)
        .unwrap();
    // One worker session of a distributed job, hosted by this server: its
    // epochs acquire the same compute slots as the served jobs.
    let spec = DistSpec {
        instance: "grid".into(),
        source: GraphSource::Data(GRID.into()),
        format: GraphFormat::Metis,
        k: 2,
        steps: 6_000,
        seeds: ff_engine::derive_seeds(7, 2),
        objectives: vec![Objective::MCut; 2],
        interval: 256,
        migration: MigrationPolicyId::ReplaceIfBetter,
        pareto: false,
    };
    let workers = WorkerSet::Connect {
        addrs: vec![handle.addr().to_string()],
    };
    let opts = DistOpts {
        reply_timeout: Duration::from_secs(120),
        ..DistOpts::default()
    };
    solve_distributed(&g, &spec, &workers, &opts, &mut |_, _| {}).unwrap();

    let st = assert_stats_match_scrape(&handle);
    assert_eq!(
        (
            st.jobs_submitted,
            st.jobs_rejected,
            st.jobs_done,
            st.jobs_cancelled
        ),
        (2, 1, 2, 1)
    );
    assert!(st.cache_evictions >= 1, "the second instance evicts");
    assert!(
        st.permit_wait_hist.iter().sum::<u64>() >= 6_000 / 256,
        "the worker session's epochs acquire slots"
    );
    client.shutdown().unwrap();
    handle.join().unwrap();

    // A restarted server rebuilds its totals from the journal.
    let handle = Server::bind_with("127.0.0.1:0", config)
        .unwrap()
        .spawn()
        .unwrap();
    assert_eq!(handle.replay_summary().unwrap().finished, 2);
    let st = assert_stats_match_scrape(&handle);
    assert_eq!(
        (
            st.jobs_submitted,
            st.jobs_rejected,
            st.jobs_done,
            st.jobs_cancelled
        ),
        (2, 1, 2, 1)
    );
    Client::connect(handle.addr()).unwrap().shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_file(&journal);
}
