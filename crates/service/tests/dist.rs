//! Distributed-islands determinism at the library layer: the
//! coordinator driving real worker *processes* must produce the same
//! bytes as the in-process [`Solver`] — same seeds, same epoch
//! schedule, any worker layout.

use std::time::{Duration, Instant};

use ff_engine::{Adaptive, Combine, MigrationPolicyId, Solver};
use ff_graph::io::read_metis;
use ff_metaheur::AnytimeTrace;
use ff_obs::Registry;
use ff_partition::Objective;
use ff_service::dist::{solve_distributed, DistOpts, DistSpec, WorkerSet};
use ff_service::{Client, GraphFormat, GraphSource, Server, ServerConfig};

const GRID: &str = "9 12\n2 4\n1 3 5\n2 6\n1 5 7\n2 4 6 8\n3 5 9\n4 8\n5 7 9\n6 8\n";

fn worker_cmd() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_ffworker").to_string()]
}

fn spec(islands: usize, seed: u64, migration: MigrationPolicyId) -> DistSpec {
    DistSpec {
        instance: "grid".into(),
        source: GraphSource::Data(GRID.into()),
        format: GraphFormat::Metis,
        k: 2,
        steps: 6_000,
        seeds: ff_engine::derive_seeds(seed, islands),
        objectives: vec![Objective::MCut; islands],
        interval: 1024,
        migration,
        pareto: false,
    }
}

/// A trace as `(step, value)` pairs — everything but the wall-clock
/// stamps, which differ between processes.
fn trace_points(trace: &AnytimeTrace) -> Vec<(u64, f64)> {
    trace.points().iter().map(|p| (p.step, p.value)).collect()
}

fn run_dist(spec: &DistSpec, workers: usize) -> ff_engine::EnsembleResult {
    let g = read_metis(GRID.as_bytes()).unwrap();
    solve_distributed(
        &g,
        spec,
        &WorkerSet::Spawn {
            cmd: worker_cmd(),
            count: workers,
        },
        &DistOpts {
            reply_timeout: Duration::from_secs(120),
            ..DistOpts::default()
        },
        &mut |_, _| {},
    )
    .unwrap()
}

#[test]
fn distributed_replace_matches_in_process_for_any_worker_count() {
    let g = read_metis(GRID.as_bytes()).unwrap();
    let spec = spec(4, 7, MigrationPolicyId::ReplaceIfBetter);
    let local = Solver::on(&g)
        .k(2)
        .islands(4)
        .steps(6_000)
        .seed(7)
        .run()
        .unwrap();
    for workers in [1, 2, 4] {
        let dist = run_dist(&spec, workers);
        assert_eq!(
            dist.best.assignment(),
            local.best.assignment(),
            "{workers} workers diverged from in-process"
        );
        assert_eq!(dist.best_value, local.best_value);
        assert_eq!(dist.best_island, local.best_island);
        assert_eq!(dist.steps, local.steps);
        assert_eq!(dist.migrations_adopted, local.migrations_adopted);
        assert_eq!(dist.best_value_per_k, local.best_value_per_k);
        assert_eq!(trace_points(&dist.trace), trace_points(&local.trace));
        assert_eq!(dist.islands.len(), local.islands.len());
        for (a, b) in dist.islands.iter().zip(&local.islands) {
            assert_eq!(a.best.assignment(), b.best.assignment());
            assert_eq!(a.best_energy, b.best_energy);
            assert_eq!(a.steps, b.steps);
            assert_eq!(trace_points(&a.trace), trace_points(&b.trace));
        }
    }
}

#[test]
fn distributed_adaptive_matches_in_process() {
    // Adaptive is the one policy whose `interval()` reshapes the epoch
    // schedule; 8-step barriers on the tiny grid stagnate quickly, and
    // seed 7 still adopts migrants before they do.
    let g = read_metis(GRID.as_bytes()).unwrap();
    let registry = Registry::new();
    let local = Solver::on(&g)
        .k(2)
        .islands(4)
        .migration(Adaptive::default())
        .migration_interval(8)
        .steps(6_000)
        .seed(7)
        .observe(registry.clone())
        .run()
        .unwrap();
    let epochs = registry
        .counter("ff_engine_epochs_total", "Epoch barriers crossed")
        .get();
    assert!(
        epochs < 6_000 / 8,
        "{epochs} epochs: the interval never stretched"
    );
    assert!(local.migrations_adopted > 0, "no migrant was adopted");
    let mut spec = spec(4, 7, MigrationPolicyId::Adaptive);
    spec.interval = 8;
    let dist = run_dist(&spec, 2);
    assert_eq!(dist.best.assignment(), local.best.assignment());
    assert_eq!(dist.best_value, local.best_value);
    assert_eq!(dist.best_island, local.best_island);
    assert_eq!(dist.steps, local.steps);
    assert_eq!(dist.migrations_adopted, local.migrations_adopted);
    assert_eq!(dist.islands.len(), local.islands.len());
    for (a, b) in dist.islands.iter().zip(&local.islands) {
        assert_eq!(a.best.assignment(), b.best.assignment());
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.best_value_per_k, b.best_value_per_k);
        assert_eq!(trace_points(&a.trace), trace_points(&b.trace));
    }
}

#[test]
fn distributed_combine_crossover_matches_in_process() {
    let g = read_metis(GRID.as_bytes()).unwrap();
    let local = Solver::on(&g)
        .k(2)
        .islands(3)
        .migration(Combine)
        .steps(6_000)
        .seed(11)
        .run()
        .unwrap();
    let mut spec = spec(3, 11, MigrationPolicyId::Combine);
    spec.seeds = ff_engine::derive_seeds(11, 3);
    let dist = run_dist(&spec, 2);
    assert_eq!(dist.best.assignment(), local.best.assignment());
    assert_eq!(dist.best_value, local.best_value);
    assert_eq!(dist.migrations_adopted, local.migrations_adopted);
}

#[test]
fn distributed_pareto_front_matches_in_process() {
    let g = read_metis(GRID.as_bytes()).unwrap();
    let local = Solver::on(&g)
        .k(2)
        .islands(2)
        .objectives([Objective::Cut, Objective::MCut])
        .steps(6_000)
        .seed(5)
        .run()
        .unwrap();
    let mut spec = spec(2, 5, MigrationPolicyId::ReplaceIfBetter);
    spec.objectives = vec![Objective::Cut, Objective::MCut];
    spec.pareto = true;
    let dist = run_dist(&spec, 2);
    let (a, b) = (dist.pareto.unwrap(), local.pareto.unwrap());
    assert_eq!(a.objectives, b.objectives);
    assert_eq!(a.points.len(), b.points.len());
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.island, pb.island);
        assert_eq!(pa.values, pb.values);
        assert_eq!(pa.partition.assignment(), pb.partition.assignment());
    }
    assert_eq!(dist.best.assignment(), local.best.assignment());
}

#[test]
fn improvement_stream_reports_each_island_once_in_order() {
    let spec = spec(2, 7, MigrationPolicyId::ReplaceIfBetter);
    let g = read_metis(GRID.as_bytes()).unwrap();
    let mut seen: Vec<(usize, u64, f64)> = Vec::new();
    solve_distributed(
        &g,
        &spec,
        &WorkerSet::Spawn {
            cmd: worker_cmd(),
            count: 2,
        },
        &DistOpts {
            reply_timeout: Duration::from_secs(120),
            ..DistOpts::default()
        },
        &mut |island, news| seen.push((island, news.step, news.value)),
    )
    .unwrap();
    assert!(!seen.is_empty(), "improvements should stream");
    // Per island, values are strictly improving and steps increase.
    for island in 0..2 {
        let mine: Vec<_> = seen.iter().filter(|(i, _, _)| *i == island).collect();
        for pair in mine.windows(2) {
            assert!(pair[1].1 > pair[0].1, "steps must increase");
            assert!(pair[1].2 < pair[0].2, "values must improve");
        }
    }
}

/// The server's `ff_connections_open{proto="ndjson"}` gauge, scraped
/// over its HTTP gateway.
fn open_ndjson_connections(http: std::net::SocketAddr) -> f64 {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(http).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut page = String::new();
    stream.read_to_string(&mut page).unwrap();
    page.lines()
        .find_map(|line| line.strip_prefix("ff_connections_open{proto=\"ndjson\"} "))
        .unwrap_or_else(|| panic!("no NDJSON connection gauge in:\n{page}"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn tcp_worker_connections_close_after_each_job() {
    let servers: Vec<_> = (0..2)
        .map(|_| {
            let config = ServerConfig {
                workers: 1,
                http: Some("127.0.0.1:0".into()),
                ..ServerConfig::default()
            };
            Server::bind_with("127.0.0.1:0", config)
                .unwrap()
                .spawn()
                .unwrap()
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|h| h.addr().to_string()).collect();
    let g = read_metis(GRID.as_bytes()).unwrap();
    let spec = spec(2, 7, MigrationPolicyId::ReplaceIfBetter);
    for _ in 0..3 {
        solve_distributed(
            &g,
            &spec,
            &WorkerSet::Connect {
                addrs: addrs.clone(),
            },
            &DistOpts {
                reply_timeout: Duration::from_secs(120),
                ..DistOpts::default()
            },
            &mut |_, _| {},
        )
        .unwrap();
    }
    // Each job's worker connections end with it: every server's gauge
    // returns to 0 instead of holding two more per job.
    for handle in &servers {
        let http = handle.http_addr().unwrap();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let open = open_ndjson_connections(http);
            if open == 0.0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{open} NDJSON connections still open on {}",
                handle.addr()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    for handle in servers {
        Client::connect(handle.addr()).unwrap().shutdown().unwrap();
        handle.join().unwrap();
    }
}
