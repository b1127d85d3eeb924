//! `ffpart` — partition a graph file from the command line, or serve
//! partition jobs to many clients.
//!
//! ```text
//! ffpart <graph> -k <parts> [options]      one-shot partitioning
//! ffpart serve [serve-options]             run the NDJSON partition server
//! ffpart submit [submit-options]           submit a job to a running server
//! ffpart stats --connect ADDR              print a server statistics snapshot
//! ffpart worker [slots]                    distributed-islands worker on
//!                                          stdin/stdout (spawned by
//!                                          --workers; rarely run by hand)
//!
//! serve options:
//!   --listen ADDR            bind address          (default 127.0.0.1:7411;
//!                            use port 0 for an ephemeral port)
//!   --workers N              compute slots shared by all in-flight jobs
//!                            (default: one per core)
//!   --max-jobs N             admission bound on in-flight (queued+running)
//!                            jobs; overflow gets a typed `rejected` event
//!                            with a retry hint            (default: unlimited)
//!   --max-jobs-per-conn N    same bound per client connection
//!                            (default: unlimited)
//!   --cache-bytes N          instance-cache byte budget (CSR bytes); LRU
//!                            entries past it are evicted, pinned in-use
//!                            instances never               (default: unlimited)
//!   --http [ADDR]            also serve the HTTP/1.1 gateway on ADDR
//!                            (default 127.0.0.1:7412 when ADDR omitted):
//!                            POST /jobs, GET /jobs/:id/events (chunked
//!                            NDJSON), DELETE /jobs/:id, GET /stats,
//!                            GET /metrics (Prometheus text),
//!                            PUT /instances/:key
//!   --log-format FORMAT      structured job logs on stderr: json (one
//!                            object per line) or text (human-readable);
//!                            spans: load, submit, reject, epoch, done,
//!                            fault                  (default: no logging)
//!   --journal PATH           durable append-only job journal: every
//!                            instance load, submit, improvement and done
//!                            is logged; on restart the journal is
//!                            replayed — finished jobs are served from
//!                            history, jobs in flight at crash time are
//!                            re-executed (byte-identical when
//!                            step-budgeted)     (default: no durability)
//!   --stdio                  serve one client on stdin/stdout instead of TCP
//!
//! submit options:
//!   --connect ADDR           server address (required)
//!   <graph> -k N             instance file (server-side path) and part count
//!   -o, --objective LIST     cut | ncut | mcut, or a comma list like
//!                            cut,ncut,mcut — more than one distinct
//!                            objective runs a Pareto job: islands cycle
//!                            the list and the non-dominated front is
//!                            reported                          (default mcut)
//!   --steps N                step budget per island (deterministic output
//!                            when used without --deadline-ms)
//!   --deadline-ms N          wall-clock budget from job start
//!   -s, --seed N             root RNG seed                     (default 1)
//!   -j, --islands N          island-ensemble width (default 1; raised to
//!                            the objective count for Pareto jobs)
//!   --migration NAME         replace | combine | adaptive      (default replace)
//!   --chunk N                cooperative scheduling quantum    (default 512)
//!   --multilevel             coarsen→solve→uncoarsen+refine server-side
//!                            (engine default coarse target)
//!   --coarsen-until N        multilevel coarse target (implies --multilevel)
//!   --instance NAME          cache key                 (default: graph path)
//!   -f, --format NAME        metis | edgelist                  (default metis)
//!   -w, --write PATH         write the final partition (.part format)
//!   --cancel-after-ms N      send a cancel N ms after acceptance (the job
//!                            then returns its best-so-far partition)
//!   --retry-ms N             keep retrying for N ms on connection failure
//!                            or admission rejection: reconnect, reload,
//!                            resubmit — the client half of a journaled
//!                            server's crash-recovery story
//!   -q, --quiet              suppress streamed improvement lines
//!   --workers A,B,…          federate the job across several running
//!                            servers instead of submitting to one: this
//!                            process coordinates, each listed server
//!                            hosts a shard of the islands. Same bytes
//!                            out as a single-server submit with the
//!                            same seed/steps/chunk. Needs --steps (no
//!                            --deadline-ms/--multilevel); replaces
//!                            --connect
//!
//! stats options:
//!   --connect ADDR           server address (required); prints the
//!                            server's counters, gauges, and latency
//!                            histograms with human-readable bucket
//!                            bounds (same snapshot the NDJSON `stats`
//!                            event and `GET /stats` serve)
//!
//! one-shot options:
//!   -k, --parts N            number of parts (required)
//!   -m, --method NAME        ff | sa | aco | percolation | multilevel |
//!                            multilevel-kway | spectral | spectral-rqi |
//!                            spectral-oct | linear | linear-kl  (default ff)
//!   -o, --objective LIST     cut | ncut | mcut, or a comma list like
//!                            cut,ncut — more than one distinct objective
//!                            runs a mixed-objective Pareto ensemble
//!                            (method ff only): islands cycle the list and
//!                            the non-dominated front is printed
//!                            (default mcut)
//!   -b, --budget-secs S      metaheuristic time budget         (default 10)
//!   --steps N                metaheuristic step budget per island; when
//!                            given without -b, the run is purely
//!                            step-bounded (deterministic output)
//!   -s, --seed N             root RNG seed                     (default 1)
//!   -j, --islands N          parallel ensemble width: N independently
//!                            seeded searches with periodic best-molecule
//!                            exchange (ff) or best-of-N (other methods)
//!                            (default 1; raised to the objective count
//!                            for Pareto runs)
//!   --migration NAME         island-exchange policy for ff ensembles:
//!                            replace | combine | adaptive      (default replace)
//!   --threads N              concurrent OS threads for the ensemble
//!                            (default: one per island)
//!   --multilevel             accelerate ff on big graphs: coarsen by
//!                            heavy-edge matching, run the ensemble on the
//!                            coarse graph, uncoarsen with refinement
//!                            (method ff only; deterministic with --steps)
//!   --coarsen-until N        multilevel coarse-graph target size
//!                            (implies --multilevel; default 3000)
//!   --workers N|auto         distribute the islands across N spawned
//!                            worker processes (`auto` = one per core,
//!                            capped at the island count). Byte-identical
//!                            to the same run without --workers; needs
//!                            -m ff and a pure --steps budget
//!   -f, --format NAME        metis | edgelist                  (default metis)
//!   -w, --write PATH         write the partition (.part format)
//!   -r, --repair             repair disconnected parts before reporting
//!   -q, --quiet              suppress the per-part table
//!   --mincut                 also report the global minimum cut
//!                            (Stoer–Wagner) as an instance diagnostic
//!   -h, --help               this text
//! ```
//!
//! Exit codes: 0 success, 2 usage error, 3 input/connection error,
//! 4 submit rejected by admission control (retry later).

use ff_bench::{run_method_ensemble, MethodBudget, MethodId};
use ff_engine::{EnsembleResult, MigrationPolicyId, ParetoResult};
use ff_graph::Graph;
use ff_partition::{analyze, imbalance, repair_connectivity, write_partition, Objective};
use ff_service::{DistSpec, GraphFormat, GraphSource, JobRequest};
use std::fs::File;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: ffpart <graph> -k <parts> [-m method] [-o objective[,objective…]] \
[-b budget-secs] [--steps n] [-s seed] [-j islands] [--migration replace|combine|adaptive] \
[--threads n] [--workers n|auto] [--multilevel] [--coarsen-until n] [-f metis|edgelist] \
[-w out.part] [-r] [-q]\n       \
ffpart serve [--listen addr] [--workers n] [--max-jobs n] \
[--max-jobs-per-conn n] [--cache-bytes n] [--http [addr]] [--log-format json|text] \
[--journal path] [--stdio]\n       \
ffpart submit --connect addr <graph> -k <parts> [--steps n] [--deadline-ms n] \
[--retry-ms n] …\n       \
ffpart submit --workers addr,addr… <graph> -k <parts> --steps n …\n       \
ffpart stats --connect addr\n       \
ffpart worker [slots]\n\
see `ffpart --help`";

struct Args {
    graph_path: String,
    k: usize,
    method: MethodId,
    objectives: Vec<Objective>,
    migration: MigrationPolicyId,
    budget_secs: Option<f64>,
    steps: Option<u64>,
    seed: u64,
    islands: usize,
    threads: usize,
    multilevel: bool,
    coarsen_until: Option<usize>,
    format: String,
    write: Option<String>,
    repair: bool,
    quiet: bool,
    mincut: bool,
    workers: Option<String>,
}

fn parse_method(name: &str) -> Option<MethodId> {
    Some(match name {
        "ff" | "fusion-fission" => MethodId::FusionFission,
        "sa" | "annealing" => MethodId::SimulatedAnnealing,
        "aco" | "ants" => MethodId::AntColony,
        "percolation" => MethodId::Percolation,
        "multilevel" => MethodId::MultilevelBi,
        "multilevel-kway" => MethodId::MultilevelOct,
        "spectral" => MethodId::SpectralLancBiKl,
        "spectral-rqi" => MethodId::SpectralRqiBiKl,
        "spectral-oct" => MethodId::SpectralLancOctKl,
        "linear" => MethodId::LinearBi,
        "linear-kl" => MethodId::LinearBiKl,
        _ => return None,
    })
}

fn parse_objective(name: &str) -> Option<Objective> {
    Some(match name {
        "cut" => Objective::Cut,
        "ncut" => Objective::NCut,
        "mcut" => Objective::MCut,
        _ => return None,
    })
}

/// Parses `-o`'s comma list (`cut`, `cut,ncut,mcut`, …). Order is kept —
/// the first objective is the primary one a Pareto run reports its
/// representative under.
fn parse_objective_list(list: &str) -> Option<Vec<Objective>> {
    let objectives: Option<Vec<Objective>> = list
        .split(',')
        .map(|name| parse_objective(name.trim()))
        .collect();
    objectives.filter(|l| !l.is_empty())
}

fn objective_label(o: Objective) -> &'static str {
    match o {
        Objective::Cut => "cut",
        Objective::NCut => "ncut",
        Objective::MCut => "mcut",
    }
}

/// One row of a rendered Pareto front:
/// `(island, its own objective, (objective, value) vector, parts)`.
type FrontRow = (usize, Objective, Vec<(Objective, f64)>, usize);

/// Renders a Pareto front, one deterministic line per point (pinned by
/// the CI smoke, so the format is part of the CLI contract).
fn print_front(front: &[FrontRow]) {
    println!("pareto front: {} point(s)", front.len());
    for (island, objective, values, parts) in front {
        let values: Vec<String> = values
            .iter()
            .map(|&(o, v)| format!("{} {:.6}", objective_label(o), v))
            .collect();
        println!(
            "  island {} [{}]  {}  parts {}",
            island,
            objective_label(*objective),
            values.join("  "),
            parts
        );
    }
}

/// [`print_front`] for a library front: each point's values paired with
/// the front's objective axes.
fn print_pareto(front: &ParetoResult) {
    let rows: Vec<FrontRow> = front
        .points
        .iter()
        .map(|p| {
            let values = front
                .objectives
                .iter()
                .copied()
                .zip(p.values.iter().copied());
            (p.island, p.objective, values.collect(), p.parts)
        })
        .collect();
    print_front(&rows);
}

fn parse_args() -> Result<Args, String> {
    let mut graph_path: Option<String> = None;
    let mut k: Option<usize> = None;
    let mut method = MethodId::FusionFission;
    let mut objectives = vec![Objective::MCut];
    let mut migration = MigrationPolicyId::default();
    let mut budget_secs = None;
    let mut steps = None;
    let mut seed = 1u64;
    let mut islands = 1usize;
    let mut threads = 0usize;
    let mut multilevel = false;
    let mut coarsen_until = None;
    let mut format = "metis".to_string();
    let mut write = None;
    let mut repair = false;
    let mut quiet = false;
    let mut mincut = false;
    let mut workers = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                return Err("help".into());
            }
            "-k" | "--parts" => {
                k = Some(val("-k")?.parse().map_err(|_| "bad -k value".to_string())?)
            }
            "-m" | "--method" => {
                let name = val("-m")?;
                method = parse_method(&name).ok_or_else(|| format!("unknown method `{name}`"))?;
            }
            "-o" | "--objective" => {
                let name = val("-o")?;
                objectives = parse_objective_list(&name)
                    .ok_or_else(|| format!("unknown objective `{name}`"))?;
            }
            "--migration" => {
                let name = val("--migration")?;
                migration = MigrationPolicyId::parse(&name)
                    .ok_or_else(|| format!("unknown migration policy `{name}`"))?;
            }
            "-b" | "--budget-secs" => {
                let secs = val("-b")?.parse().map_err(|_| "bad budget".to_string())?;
                // Negative, NaN or out-of-range budgets have no Duration.
                Duration::try_from_secs_f64(secs).map_err(|_| "bad budget".to_string())?;
                budget_secs = Some(secs);
            }
            "--steps" => {
                steps = Some(
                    val("--steps")?
                        .parse()
                        .map_err(|_| "bad steps".to_string())?,
                )
            }
            "-s" | "--seed" => seed = val("-s")?.parse().map_err(|_| "bad seed".to_string())?,
            "-j" | "--islands" => {
                islands = val("-j")?.parse().map_err(|_| "bad islands".to_string())?
            }
            "--threads" => {
                threads = val("--threads")?
                    .parse()
                    .map_err(|_| "bad threads".to_string())?
            }
            "--multilevel" => multilevel = true,
            "--coarsen-until" => {
                multilevel = true;
                coarsen_until = Some(
                    val("--coarsen-until")?
                        .parse()
                        .map_err(|_| "bad --coarsen-until value".to_string())?,
                );
            }
            "-f" | "--format" => format = val("-f")?,
            "-w" | "--write" => write = Some(val("-w")?),
            "-r" | "--repair" => repair = true,
            "-q" | "--quiet" => quiet = true,
            "--mincut" => mincut = true,
            "--workers" => workers = Some(val("--workers")?),
            other if other.starts_with('-') => return Err(format!("unknown flag `{other}`")),
            other => {
                if graph_path.is_some() {
                    return Err("multiple graph paths given".into());
                }
                graph_path = Some(other.to_string());
            }
        }
    }
    Ok(Args {
        graph_path: graph_path.ok_or("missing graph path")?,
        k: k.ok_or("missing -k")?,
        method,
        objectives,
        migration,
        budget_secs,
        steps,
        seed,
        islands,
        threads,
        multilevel,
        coarsen_until,
        format,
        write,
        repair,
        quiet,
        mincut,
        workers,
    })
}

fn load_graph(path: &str, format: &str) -> Result<Graph, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    match format {
        "metis" => ff_graph::io::read_metis(file).map_err(|e| format!("{path}: {e}")),
        "edgelist" => ff_graph::io::read_edge_list(file).map_err(|e| format!("{path}: {e}")),
        other => Err(format!("unknown format `{other}` (metis|edgelist)")),
    }
}

/// `ffpart serve`: run the ff-service partition server.
fn serve_main(args: &[String]) -> ExitCode {
    let mut listen = "127.0.0.1:7411".to_string();
    let mut config = ff_service::ServerConfig::default();
    let mut stdio = false;
    let usage_err = |msg: &str| {
        eprintln!("ffpart serve: {msg}\n{USAGE}");
        ExitCode::from(2)
    };
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        // Flags with a required value read args[i + 1].
        let mut val = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--listen" => match val("--listen") {
                Ok(v) => listen = v,
                Err(e) => return usage_err(&e),
            },
            "--workers" => match val("--workers").map(|v| v.parse()) {
                Ok(Ok(v)) => config.workers = v,
                _ => return usage_err("bad --workers value"),
            },
            "--max-jobs" => match val("--max-jobs").map(|v| v.parse()) {
                Ok(Ok(v)) => config.max_jobs = v,
                _ => return usage_err("bad --max-jobs value"),
            },
            "--max-jobs-per-conn" => match val("--max-jobs-per-conn").map(|v| v.parse()) {
                Ok(Ok(v)) => config.max_jobs_per_conn = v,
                _ => return usage_err("bad --max-jobs-per-conn value"),
            },
            "--cache-bytes" => match val("--cache-bytes").map(|v| v.parse()) {
                Ok(Ok(v)) => config.cache_bytes = v,
                _ => return usage_err("bad --cache-bytes value"),
            },
            // `--http` takes an optional address: `--http 0.0.0.0:8080`
            // or bare `--http` for the default gateway port.
            "--http" => {
                let addr = match args.get(i + 1) {
                    Some(next) if !next.starts_with('-') => {
                        i += 1;
                        next.clone()
                    }
                    _ => "127.0.0.1:7412".to_string(),
                };
                config.http = Some(addr);
            }
            "--log-format" => match val("--log-format") {
                Ok(name) => match ff_service::LogFormat::parse(&name) {
                    Some(format) => config.log_format = Some(format),
                    None => return usage_err(&format!("unknown log format `{name}` (json|text)")),
                },
                Err(e) => return usage_err(&e),
            },
            "--journal" => match val("--journal") {
                Ok(v) => config.journal = Some(v),
                Err(e) => return usage_err(&e),
            },
            "--stdio" => stdio = true,
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if stdio {
        config.http = None;
        ff_service::serve_stdio_with(config);
        return ExitCode::SUCCESS;
    }
    let server = match ff_service::Server::bind_with(&listen, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ffpart serve: cannot bind {listen}: {e}");
            return ExitCode::from(3);
        }
    };
    match server.local_addr() {
        // Scripts parse this line to learn the (possibly ephemeral) port.
        Ok(addr) => println!("ffpart: serving on {addr}"),
        Err(e) => {
            eprintln!("ffpart serve: {e}");
            return ExitCode::from(3);
        }
    }
    if let Some(http) = server.http_addr() {
        // Second banner line, same parseable shape.
        println!("ffpart: http on {http}");
    }
    if let Some(replay) = server.replay_summary() {
        // Third banner line: what the journal restored at boot.
        println!(
            "ffpart: journal replay: records={} finished={} resumed={} skipped={}",
            replay.records, replay.finished, replay.resumed, replay.skipped
        );
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ffpart serve: {e}");
            ExitCode::from(3)
        }
    }
}

/// One `  <range> <count>` histogram row per bucket. Buckets are
/// `≤ bound` (ff-obs histogram semantics); the last is unbounded.
fn print_histogram(counts: &[u64], bounds_ms: &[u64]) {
    for (i, &count) in counts.iter().enumerate() {
        let label = match bounds_ms.get(i) {
            Some(&bound) => format!("<= {bound} ms"),
            None => format!("> {} ms", bounds_ms.last().copied().unwrap_or(0)),
        };
        println!("  {label:<14}{count:>10}");
    }
}

/// `ffpart stats`: fetch and pretty-print a server statistics snapshot —
/// the same [`ff_service::StatsInfo`] the NDJSON `stats` event and
/// `GET /stats` serve, with histogram buckets labelled from the wire's
/// own bound arrays rather than anything hard-coded here.
fn stats_main(args: &[String]) -> ExitCode {
    let mut connect: Option<String> = None;
    let usage_err = |msg: &str| {
        eprintln!("ffpart stats: {msg}\n{USAGE}");
        ExitCode::from(2)
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--connect" => match it.next() {
                Some(v) => connect = Some(v.clone()),
                None => return usage_err("--connect needs a value"),
            },
            other => return usage_err(&format!("unknown flag `{other}`")),
        }
    }
    let Some(connect) = connect else {
        return usage_err("missing --connect");
    };
    let mut client = match ff_service::Client::connect(&*connect) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ffpart stats: cannot connect to {connect}: {e}");
            return ExitCode::from(3);
        }
    };
    let st = match client.stats() {
        Ok(ff_service::Event::Stats(st)) => st,
        Ok(_) => {
            eprintln!("ffpart stats: server sent an unexpected event");
            return ExitCode::from(3);
        }
        Err(e) => {
            eprintln!("ffpart stats: {e}");
            return ExitCode::from(3);
        }
    };
    // `0` means "unbounded" for both admission and cache budgets.
    let unlimited = |n: u64| {
        if n == 0 {
            "unlimited".to_string()
        } else {
            n.to_string()
        }
    };
    println!("server {connect}");
    println!("jobs");
    println!("  submitted   {:>10}", st.jobs_submitted);
    println!("  running     {:>10}", st.jobs_running);
    println!(
        "  done        {:>10}  ({} cancelled)",
        st.jobs_done, st.jobs_cancelled
    );
    println!(
        "  rejected    {:>10}  (max in-flight {})",
        st.jobs_rejected,
        unlimited(st.max_jobs)
    );
    println!("cache");
    println!("  instances   {:>10}", st.instances);
    println!("  hits        {:>10}", st.cache_hits);
    println!("  loads       {:>10}", st.cache_loads);
    println!("  evictions   {:>10}", st.cache_evictions);
    println!(
        "  bytes       {:>10}  (budget {})",
        st.cache_bytes,
        unlimited(st.cache_budget_bytes)
    );
    println!("compute");
    println!("  slots       {:>10}", st.workers);
    println!("  gate queued {:>10}", st.gate_queued);
    println!("permit wait (slot acquisitions)");
    print_histogram(&st.permit_wait_hist, &st.permit_wait_bucket_ms);
    println!("job duration (finished jobs)");
    print_histogram(&st.job_duration_hist, &st.job_duration_bucket_ms);
    ExitCode::SUCCESS
}

/// `ffpart submit`: run one job against a server, streaming improvements.
fn submit_main(args: &[String]) -> ExitCode {
    let mut connect: Option<String> = None;
    let mut graph_path: Option<String> = None;
    let mut k: Option<usize> = None;
    let mut objectives = vec![Objective::MCut];
    let mut migration = MigrationPolicyId::default();
    let mut steps: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut seed = 1u64;
    let mut islands = 1usize;
    let mut chunk = ff_service::DEFAULT_CHUNK;
    let mut multilevel = false;
    let mut coarsen_until: Option<u64> = None;
    let mut instance: Option<String> = None;
    let mut format = "metis".to_string();
    let mut write: Option<String> = None;
    let mut cancel_after_ms: Option<u64> = None;
    let mut quiet = false;
    let mut workers: Option<String> = None;
    let mut retry_ms: Option<u64> = None;

    let mut it = args.iter();
    let usage_err = |msg: &str| {
        eprintln!("ffpart submit: {msg}\n{USAGE}");
        ExitCode::from(2)
    };
    while let Some(arg) = it.next() {
        macro_rules! value_of {
            ($flag:literal) => {
                match it.next() {
                    Some(v) => v.clone(),
                    None => return usage_err(concat!($flag, " needs a value")),
                }
            };
        }
        macro_rules! parse_of {
            ($flag:literal) => {
                match value_of!($flag).parse() {
                    Ok(v) => v,
                    Err(_) => return usage_err(concat!("bad ", $flag, " value")),
                }
            };
        }
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--connect" => connect = Some(value_of!("--connect")),
            "-k" | "--parts" => k = Some(parse_of!("-k")),
            "-o" | "--objective" => {
                let name = value_of!("-o");
                objectives = match parse_objective_list(&name) {
                    Some(list) => list,
                    None => return usage_err(&format!("unknown objective `{name}`")),
                };
            }
            "--migration" => {
                let name = value_of!("--migration");
                migration = match MigrationPolicyId::parse(&name) {
                    Some(policy) => policy,
                    None => return usage_err(&format!("unknown migration policy `{name}`")),
                };
            }
            "--steps" => steps = Some(parse_of!("--steps")),
            "--deadline-ms" => deadline_ms = Some(parse_of!("--deadline-ms")),
            "-s" | "--seed" => seed = parse_of!("-s"),
            "-j" | "--islands" => islands = parse_of!("-j"),
            "--chunk" => chunk = parse_of!("--chunk"),
            "--multilevel" => multilevel = true,
            "--coarsen-until" => {
                multilevel = true;
                coarsen_until = Some(parse_of!("--coarsen-until"));
            }
            "--instance" => instance = Some(value_of!("--instance")),
            "-f" | "--format" => format = value_of!("-f"),
            "-w" | "--write" => write = Some(value_of!("-w")),
            "--cancel-after-ms" => cancel_after_ms = Some(parse_of!("--cancel-after-ms")),
            "--retry-ms" => retry_ms = Some(parse_of!("--retry-ms")),
            "-q" | "--quiet" => quiet = true,
            "--workers" => workers = Some(value_of!("--workers")),
            other if other.starts_with('-') => {
                return usage_err(&format!("unknown flag `{other}`"))
            }
            other => {
                if graph_path.is_some() {
                    return usage_err("multiple graph paths given");
                }
                graph_path = Some(other.to_string());
            }
        }
    }
    let Some(graph_path) = graph_path else {
        return usage_err("missing graph path");
    };
    let Some(k) = k else {
        return usage_err("missing -k");
    };
    if steps.is_none() && deadline_ms.is_none() {
        return usage_err("need --steps and/or --deadline-ms");
    }
    let Some(format) = GraphFormat::parse(&format) else {
        return usage_err("unknown format (metis|edgelist)");
    };
    let needed = ff_engine::islands_to_cover(&objectives);
    if ff_engine::distinct_objectives(&objectives).len() > 1 && islands < needed {
        eprintln!("ffpart: raising --islands {islands} → {needed} (covering every objective)");
        islands = needed;
    }
    let job = JobRequest {
        instance: instance.unwrap_or_else(|| graph_path.clone()),
        k,
        objective: objectives[0],
        objectives: (objectives.len() > 1).then(|| objectives.clone()),
        migration,
        seed,
        steps,
        deadline_ms,
        islands,
        chunk,
        assignment: true,
        // `0` asks the server for the engine's default coarse target.
        multilevel: multilevel.then(|| coarsen_until.unwrap_or(0)),
    };
    if let Some(list) = workers {
        // Federated mode: this process is the coordinator, the listed
        // servers are the workers.
        if connect.is_some() {
            return usage_err("--workers and --connect are mutually exclusive");
        }
        if cancel_after_ms.is_some() {
            return usage_err("--cancel-after-ms is not supported with --workers");
        }
        if retry_ms.is_some() {
            return usage_err("--retry-ms is not supported with --workers");
        }
        let addrs: Vec<String> = list
            .split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        if addrs.is_empty() {
            return usage_err("--workers needs a comma list of host:port addresses");
        }
        return submit_federated(addrs, &graph_path, format, &job, write, quiet);
    }
    let Some(connect) = connect else {
        return usage_err("missing --connect");
    };
    // With `--retry-ms`, transport failures and admission rejections
    // restart the whole attempt (connect → load → submit → stream) until
    // the budget elapses — the client half of the durability story: a
    // journaled server that was killed mid-job comes back, re-executes
    // the job, and a step-budgeted retry lands byte-identically.
    let deadline = retry_ms.map(|ms| std::time::Instant::now() + Duration::from_millis(ms));
    loop {
        let connect_budget = match deadline {
            Some(d) => d
                .saturating_duration_since(std::time::Instant::now())
                .min(Duration::from_secs(5)),
            None => Duration::ZERO,
        };
        let retry = match submit_attempt(
            &connect,
            connect_budget,
            &graph_path,
            format,
            &job,
            cancel_after_ms,
            write.as_deref(),
            quiet,
        ) {
            Ok(code) => return code,
            Err(retry) => retry,
        };
        let now = std::time::Instant::now();
        match (&retry, deadline) {
            (SubmitRetry::Transport(e), Some(d)) if now < d => {
                eprintln!("ffpart submit: {e}; retrying");
                std::thread::sleep(Duration::from_millis(300));
            }
            (
                SubmitRetry::Rejected {
                    message,
                    retry_after_ms,
                },
                Some(d),
            ) if now < d => {
                eprintln!("ffpart submit: {message}; retrying in {retry_after_ms} ms");
                let wait = Duration::from_millis(*retry_after_ms).min(d - now);
                std::thread::sleep(wait);
            }
            // Budget exhausted (or none given): the documented exit
            // codes — 3 for transport, 4 for admission rejection.
            (SubmitRetry::Transport(e), _) => {
                eprintln!("ffpart submit: {e}");
                return ExitCode::from(3);
            }
            (SubmitRetry::Rejected { message, .. }, _) => {
                eprintln!("ffpart submit: {message}");
                return ExitCode::from(4);
            }
        }
    }
}

/// A failed [`submit_attempt`] that `--retry-ms` may run again.
enum SubmitRetry {
    /// Connect/read/write failure — the server may be restarting.
    Transport(std::io::Error),
    /// Admission control said "later"; honor its hint.
    Rejected {
        message: String,
        retry_after_ms: u64,
    },
}

/// One full connected-mode submit: connect, load, submit, stream events
/// to `done`, write the partition. `Ok` is a final exit code (success
/// *or* a non-retryable failure like a usage error); `Err` is a failure
/// worth retrying against a restarted server.
#[allow(clippy::too_many_arguments)]
fn submit_attempt(
    connect: &str,
    connect_budget: Duration,
    graph_path: &str,
    format: ff_service::GraphFormat,
    job: &ff_service::JobRequest,
    cancel_after_ms: Option<u64>,
    write: Option<&str>,
    quiet: bool,
) -> Result<ExitCode, SubmitRetry> {
    let mut client =
        ff_service::Client::connect_with_retry(connect, connect_budget).map_err(|e| {
            SubmitRetry::Transport(std::io::Error::new(
                e.kind(),
                format!("cannot connect to {connect}: {e}"),
            ))
        })?;
    let loaded = client.load(
        &job.instance,
        ff_service::GraphSource::Path(graph_path.to_string()),
        format,
    );
    let (vertices, edges, cached) = match loaded {
        Ok(v) => v,
        // The server rejecting the graph (parse error, bad path) is
        // final; a dead connection is worth retrying.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            eprintln!("ffpart submit: load failed: {e}");
            return Ok(ExitCode::from(3));
        }
        Err(e) => return Err(SubmitRetry::Transport(e)),
    };
    eprintln!(
        "ffpart: instance `{}` {vertices} vertices, {edges} edges{}",
        job.instance,
        if cached { " (cached)" } else { "" }
    );
    let id = match client.try_submit(job) {
        Ok(ff_service::SubmitOutcome::Accepted(id)) => id,
        // Admission-control rejection: transient capacity. The caller
        // maps it to exit 4 or a retry, per `--retry-ms`.
        Ok(ff_service::SubmitOutcome::Rejected {
            reason,
            retry_after_ms,
        }) => {
            return Err(SubmitRetry::Rejected {
                message: format!("rejected: {reason} (retry after {retry_after_ms} ms)"),
                retry_after_ms,
            })
        }
        // The server refusing the request (bad k, unknown instance) is a
        // usage error (2); a dropped/failed connection is exit 3 or a
        // retry, matching the documented contract.
        Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
            eprintln!("ffpart submit: rejected: {e}");
            return Ok(ExitCode::from(2));
        }
        Err(e) => return Err(SubmitRetry::Transport(e)),
    };
    eprintln!("ffpart: job {id} accepted");
    if let Some(ms) = cancel_after_ms {
        // Cancel by the job handle we already hold, over this same
        // connection: `submit` has consumed the `accepted` event, so even
        // a 0 ms cancel targets a job the server definitely knows —
        // unlike a second connection racing the handshake.
        let mut canceller = client.canceller();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(ms));
            let _ = canceller.cancel(id);
        });
    }
    // Stream events as they arrive — printing an improvement the moment
    // the server finds it is the point of an anytime server.
    let done = loop {
        match client.next_event() {
            Ok(ff_service::Event::Improvement(imp)) if imp.job == id => {
                if !quiet {
                    let tag = imp
                        .objective
                        .map(|o| format!(" objective={}", objective_label(o)))
                        .unwrap_or_default();
                    println!(
                        "improvement job={} value={:.6} step={} t={}ms island={}{tag}",
                        imp.job, imp.value, imp.step, imp.elapsed_ms, imp.island
                    );
                }
            }
            Ok(ff_service::Event::Done(d)) if d.job == id => break d,
            Ok(ff_service::Event::Error { message, job }) if job == Some(id) || job.is_none() => {
                eprintln!("ffpart submit: job failed: {message}");
                return Ok(ExitCode::from(3));
            }
            Ok(_) => {} // another job's event on a shared connection
            Err(e) => return Err(SubmitRetry::Transport(e)),
        }
    };
    if let Some(front) = &done.pareto {
        let rows: Vec<FrontRow> = front
            .iter()
            .map(|p| (p.island, p.objective, p.values.clone(), p.parts))
            .collect();
        print_front(&rows);
    }
    println!(
        "done job={} status={} value={:.6} parts={} steps={} migrations={} time={}ms",
        done.job,
        match done.status {
            ff_service::JobStatus::Completed => "completed",
            ff_service::JobStatus::Cancelled => "cancelled",
            ff_service::JobStatus::Deadline => "deadline",
        },
        done.value,
        done.parts,
        done.steps,
        done.migrations,
        done.elapsed_ms
    );
    if let Some(path) = write {
        let Some(assignment) = &done.assignment else {
            eprintln!("ffpart submit: server sent no assignment to write");
            return Ok(ExitCode::from(3));
        };
        let mut text = String::new();
        for part in assignment {
            text.push_str(&part.to_string());
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("ffpart submit: cannot write {path}: {e}");
            return Ok(ExitCode::from(3));
        }
        eprintln!("ffpart: partition written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

/// `ffpart submit --workers`: run `job` federated across several
/// already-running servers, this process acting as the coordinator.
/// Byte-identical to submitting the same job to a single server: both
/// run the islands `job` defines ([`DistSpec::for_job`]).
fn submit_federated(
    addrs: Vec<String>,
    graph_path: &str,
    format: GraphFormat,
    job: &JobRequest,
    write: Option<String>,
    quiet: bool,
) -> ExitCode {
    // The coordinator needs the graph locally (reduction, molecule
    // reconstruction) and the servers don't share our filesystem, so
    // read the file once and ship it inline.
    let data = match std::fs::read_to_string(graph_path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ffpart submit: cannot read {graph_path}: {e}");
            return ExitCode::from(3);
        }
    };
    let parsed = match format {
        GraphFormat::Metis => ff_graph::io::read_metis(data.as_bytes()),
        GraphFormat::EdgeList => ff_graph::io::read_edge_list(data.as_bytes()),
    };
    let g = match parsed {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ffpart submit: {graph_path}: {e}");
            return ExitCode::from(3);
        }
    };
    if let Err(e) = job.solver(&g).try_validate() {
        eprintln!("ffpart submit: invalid job configuration: {e}");
        return ExitCode::from(2);
    }
    // The deterministic contract needs a pure step budget and the flat
    // solver path.
    let spec = match DistSpec::for_job(job, GraphSource::Data(data), format) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("ffpart submit: --workers: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "ffpart: federating {} island(s) across {} server(s)",
        job.islands,
        addrs.len()
    );
    let started = Instant::now();
    let result = ff_service::solve_distributed(
        &g,
        &spec,
        &ff_service::WorkerSet::Connect { addrs },
        &ff_service::DistOpts::default(),
        &mut |island, news| {
            if !quiet {
                println!(
                    "improvement value={:.6} step={} t={}ms island={island}",
                    news.value, news.step, news.elapsed_ms
                );
            }
        },
    );
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ffpart submit: {e}");
            return ExitCode::from(3);
        }
    };
    if let Some(front) = &result.pareto {
        print_pareto(front);
    }
    println!(
        "done status=completed value={:.6} parts={} steps={} migrations={} time={}ms",
        result.best_value,
        result.best.num_nonempty_parts(),
        result.steps,
        result.migrations_adopted,
        started.elapsed().as_millis()
    );
    if let Some(path) = write {
        match File::create(&path)
            .map_err(|e| e.to_string())
            .and_then(|f| write_partition(&result.best, f).map_err(|e| e.to_string()))
        {
            Ok(()) => eprintln!("ffpart: partition written to {path}"),
            Err(e) => {
                eprintln!("ffpart submit: cannot write {path}: {e}");
                return ExitCode::from(3);
            }
        }
    }
    ExitCode::SUCCESS
}

/// One-shot fusion–fission: the job `ffpart submit` would send for the
/// same flags, with `chunk` at the solver's default migration interval
/// (1024). It runs in process through [`JobRequest::solver`], with
/// `--threads` lifting the served one-thread cap, or across `--workers`.
fn run_ff(g: &Graph, args: &Args, islands: usize) -> Result<(EnsembleResult, Duration), ExitCode> {
    if args.coarsen_until == Some(0) {
        // The job's `multilevel: Some(0)` means the engine default.
        eprintln!(
            "ffpart: invalid configuration: {}",
            ff_core::ConfigError::ZeroCoarsenTarget
        );
        return Err(ExitCode::from(2));
    }
    let job = JobRequest {
        objective: args.objectives[0],
        objectives: (args.objectives.len() > 1).then(|| args.objectives.clone()),
        migration: args.migration,
        seed: args.seed,
        steps: args.steps,
        // `--steps` without `-b` is purely step-bounded; with neither,
        // the budget is 10 s.
        deadline_ms: match (args.budget_secs, args.steps) {
            (Some(secs), _) => Some((secs * 1000.0).round() as u64),
            (None, Some(_)) => None,
            (None, None) => Some(10_000),
        },
        islands,
        chunk: 1024,
        multilevel: args
            .multilevel
            .then(|| args.coarsen_until.unwrap_or(0) as u64),
        ..JobRequest::new(args.graph_path.clone(), args.k)
    };
    let started = Instant::now();
    let result = match &args.workers {
        Some(workers) => run_distributed(g, args, &job, workers)?,
        None => job.solver(g).threads(args.threads).run().map_err(|e| {
            eprintln!("ffpart: invalid configuration: {e}");
            ExitCode::from(2)
        })?,
    };
    Ok((result, started.elapsed()))
}

/// One-shot `--workers`: shard `job`'s islands across spawned `ffpart
/// worker` child processes. Byte-identical to the same run without
/// `--workers`, which is why [`DistSpec::for_job`] insists on the
/// deterministic budget shape (`--steps`, no `-b`).
fn run_distributed(
    g: &Graph,
    args: &Args,
    job: &JobRequest,
    workers_spec: &str,
) -> Result<EnsembleResult, ExitCode> {
    let fail = |code: u8, msg: &str| {
        eprintln!("ffpart: {msg}");
        ExitCode::from(code)
    };
    let Some(format) = GraphFormat::parse(&args.format) else {
        return Err(fail(2, "unknown format (metis|edgelist)"));
    };
    let source = GraphSource::Path(args.graph_path.clone());
    let spec =
        DistSpec::for_job(job, source, format).map_err(|e| fail(2, &format!("--workers: {e}")))?;
    let workers = if workers_spec == "auto" {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        match workers_spec.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                let msg = format!("bad --workers value `{workers_spec}` (count or `auto`)");
                return Err(fail(2, &msg));
            }
        }
    }
    .min(job.islands);
    let exe = match std::env::current_exe() {
        Ok(p) => p.to_string_lossy().into_owned(),
        Err(e) => return Err(fail(3, &format!("cannot locate own executable: {e}"))),
    };
    eprintln!(
        "ffpart: distributing {} island(s) across {workers} worker process(es)",
        job.islands
    );
    ff_service::solve_distributed(
        g,
        &spec,
        &ff_service::WorkerSet::Spawn {
            cmd: vec![exe, "worker".into()],
            count: workers,
        },
        &ff_service::DistOpts::default(),
        &mut |_, _| {},
    )
    .map_err(|e| fail(3, &e))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("serve") => return serve_main(&argv[1..]),
        Some("submit") => return submit_main(&argv[1..]),
        Some("stats") => return stats_main(&argv[1..]),
        Some("worker") => {
            // Spawned by the `--workers` coordinator: the full NDJSON
            // server on stdin/stdout, one compute slot (island layout,
            // not host load, decides a worker's parallelism).
            let slots = match argv.get(1).map(|a| a.parse::<usize>()) {
                None => 1,
                Some(Ok(n)) => n,
                Some(Err(_)) => {
                    eprintln!("ffpart worker: expected a slot count\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            ff_service::serve_stdio(slots);
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) if e == "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("ffpart: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let g = match load_graph(&args.graph_path, &args.format) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ffpart: {e}");
            return ExitCode::from(3);
        }
    };
    if args.k == 0 || args.k > g.num_vertices() {
        eprintln!(
            "ffpart: -k must be in 1..={} for this graph",
            g.num_vertices()
        );
        return ExitCode::from(2);
    }
    if args.islands == 0 {
        eprintln!("ffpart: --islands must be at least 1");
        return ExitCode::from(2);
    }
    let pareto_run = ff_engine::distinct_objectives(&args.objectives).len() > 1;
    if pareto_run && args.method != MethodId::FusionFission {
        eprintln!("ffpart: multi-objective runs need -m ff");
        return ExitCode::from(2);
    }
    if args.multilevel && args.method != MethodId::FusionFission {
        eprintln!("ffpart: --multilevel needs -m ff (it accelerates the fusion–fission engine)");
        return ExitCode::from(2);
    }
    // Cycling the objective list needs enough islands that every
    // distinct objective gets one (duplicates in the list weight the
    // cycle, so this can exceed the distinct count).
    let needed = ff_engine::islands_to_cover(&args.objectives);
    let islands = if pareto_run && args.islands < needed {
        eprintln!(
            "ffpart: raising --islands {} → {needed} (covering every objective)",
            args.islands
        );
        needed
    } else {
        args.islands
    };
    eprintln!(
        "ffpart: {} vertices, {} edges → k = {} via {}{}",
        g.num_vertices(),
        g.num_edges(),
        args.k,
        args.method.label(),
        if islands > 1 {
            format!(" × {islands} islands")
        } else {
            String::new()
        }
    );
    if args.mincut && g.num_vertices() >= 2 {
        let cut = ff_graph::stoer_wagner(&g);
        println!(
            "global min cut: {:.4} (isolates {} of {} vertices)",
            cut.weight,
            cut.side.len().min(g.num_vertices() - cut.side.len()),
            g.num_vertices()
        );
    }

    let (mut partition, elapsed) = if args.method == MethodId::FusionFission {
        let (result, elapsed) = match run_ff(&g, &args, islands) {
            Ok(out) => out,
            Err(code) => return code,
        };
        if let Some(info) = &result.multilevel {
            eprintln!(
                "ffpart: multilevel: {} levels, coarse {} vertices",
                info.levels, info.coarse_vertices
            );
        }
        // A Pareto run continues with its representative (best under
        // the primary, first, objective) for the report and -w.
        if let Some(front) = &result.pareto {
            print_pareto(front);
        }
        (result.best, elapsed)
    } else if args.workers.is_some() {
        eprintln!("ffpart: --workers needs -m ff (it distributes the fusion–fission ensemble)");
        return ExitCode::from(2);
    } else {
        // `--steps` without `-b` means purely step-bounded: the run's
        // output is then a pure function of (graph, config, seed).
        let budget = match (args.budget_secs, args.steps) {
            (Some(secs), steps) => MethodBudget {
                time: Duration::from_secs_f64(secs),
                steps: steps.unwrap_or(u64::MAX),
            },
            (None, Some(steps)) => MethodBudget {
                time: Duration::MAX,
                steps,
            },
            (None, None) => MethodBudget::seconds(10.0),
        };
        let out = run_method_ensemble(
            args.method,
            &g,
            args.k,
            args.objectives[0],
            budget,
            args.seed,
            islands,
            args.threads,
            args.migration,
        );
        (out.partition, out.elapsed)
    };
    if args.repair {
        let moved = repair_connectivity(&g, &mut partition, 16);
        if moved > 0 {
            eprintln!("ffpart: connectivity repair moved {moved} vertices");
        }
    }

    println!(
        "cut {:.4}  ncut {:.4}  mcut {:.4}  imbalance {:.2}%  time {:.2}s",
        Objective::Cut.evaluate(&g, &partition),
        Objective::NCut.evaluate(&g, &partition),
        Objective::MCut.evaluate(&g, &partition),
        100.0 * imbalance(&partition),
        elapsed.as_secs_f64()
    );
    if !args.quiet {
        let report = analyze(&g, &partition);
        println!(
            "{} parts ({} fragmented)",
            partition.num_nonempty_parts(),
            report.fragmented_parts
        );
        println!("part  size  weight  internal  external  components");
        for s in &report.parts {
            if s.size == 0 {
                continue;
            }
            println!(
                "{:>4}  {:>4}  {:>6.1}  {:>8.1}  {:>8.1}  {:>10}",
                s.part, s.size, s.weight, s.internal_weight, s.external_weight, s.components
            );
        }
    }
    if let Some(path) = args.write {
        match File::create(&path)
            .map_err(|e| e.to_string())
            .and_then(|f| write_partition(&partition, f).map_err(|e| e.to_string()))
        {
            Ok(()) => eprintln!("ffpart: partition written to {path}"),
            Err(e) => {
                eprintln!("ffpart: cannot write {path}: {e}");
                return ExitCode::from(3);
            }
        }
    }
    ExitCode::SUCCESS
}
