#![doc = concat!(
    "`ffpart` — partition a graph file from the command line, or serve\n",
    "partition jobs to many clients. `ffpart --help` prints this reference.\n\n",
    "```text\n",
    include_str!("help.txt"),
    "```"
)]

use ff_bench::flags::{exit_usage, Flags};
use ff_bench::{run_method_ensemble, MethodBudget, MethodId};
use ff_engine::{EnsembleResult, MigrationPolicyId};
use ff_graph::Graph;
use ff_partition::{analyze, imbalance, repair_connectivity, write_assignment, Objective};
use ff_service::protocol::WNews;
use ff_service::{
    pareto_points, read_graph, DistSpec, GraphFormat, GraphSource, JobRequest, ParetoPointInfo,
    WorkerSet,
};
use std::fs::File;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The option reference that `--help` prints.
const HELP: &str = include_str!("help.txt");

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

/// What [`read_flags`] returns for a command line that asks for `--help`.
const HELP_FLAG: &str = "--help";

/// Ends a sub-command whose command line did not parse: `--help` prints
/// the option reference, anything else is a usage error (exit 2).
fn usage_exit(prefix: &str, err: &str) -> ExitCode {
    if err == HELP_FLAG {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    exit_usage(prefix, USAGE, err)
}

/// Reads `args` flag by flag through `read`, which returns `Ok(false)`
/// for a flag it does not know. `-h`/`--help` stops with [`HELP_FLAG`].
fn read_flags(
    args: &[String],
    mut read: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
) -> Result<(), String> {
    let mut flags = Flags::new(args.iter().cloned());
    while let Some(flag) = flags.next() {
        if flag == "-h" || flag == "--help" {
            return Err(HELP_FLAG.into());
        }
        if !read(&flag, &mut flags)? {
            return Err(format!("unknown flag `{flag}`"));
        }
    }
    Ok(())
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

/// Parses `-o`'s comma list (`cut`, `cut,ncut,mcut`, …). Order is kept —
/// the first objective is the primary one a Pareto run reports its
/// representative under.
fn parse_objective_list(list: &str) -> Option<Vec<Objective>> {
    let objectives: Option<Vec<Objective>> = list
        .split(',')
        .map(|name| Objective::parse(name.trim()))
        .collect();
    objectives.filter(|l| !l.is_empty())
}

/// Renders a Pareto front, one deterministic line per point (pinned by
/// the CI smoke, so the format is part of the CLI contract).
fn print_front(front: &[ParetoPointInfo]) {
    println!("pareto front: {} point(s)", front.len());
    for p in front {
        let values: Vec<String> = p
            .values
            .iter()
            .map(|(o, v)| format!("{} {v:.6}", o.name()))
            .collect();
        println!(
            "  island {} [{}]  {}  parts {}",
            p.island,
            p.objective.name(),
            values.join("  "),
            p.parts
        );
    }
}

/// The job flags the one-shot run and `ffpart submit` share.
struct JobFlags {
    graph_path: String,
    k: usize,
    objectives: Vec<Objective>,
    migration: MigrationPolicyId,
    steps: Option<u64>,
    seed: u64,
    islands: usize,
    multilevel: bool,
    coarsen_until: Option<u64>,
    format: GraphFormat,
    write: Option<String>,
    quiet: bool,
}

impl JobFlags {
    /// Parses a one-shot or `submit` command line: the shared job flags
    /// and the graph path here, the sub-command's own flags through
    /// `own`, which returns `Ok(false)` for a flag it does not know.
    fn parse(
        args: &[String],
        mut own: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
    ) -> Result<JobFlags, String> {
        let mut job = JobFlags {
            graph_path: String::new(),
            k: 0,
            objectives: vec![Objective::MCut],
            migration: MigrationPolicyId::default(),
            steps: None,
            seed: 1,
            islands: 1,
            multilevel: false,
            coarsen_until: None,
            format: GraphFormat::Metis,
            write: None,
            quiet: false,
        };
        let (mut graph_path, mut k) = (None, None);
        read_flags(args, |flag, flags| {
            if own(flag, flags)? {
                return Ok(true);
            }
            match flag {
                "-k" | "--parts" => k = Some(flags.parse("-k value")?),
                "-o" | "--objective" => {
                    let list = flags.value("-o")?;
                    job.objectives = parse_objective_list(&list)
                        .ok_or_else(|| format!("unknown objective `{list}`"))?;
                }
                "--migration" => {
                    let name = flags.value("--migration")?;
                    job.migration = MigrationPolicyId::parse(&name)
                        .ok_or_else(|| format!("unknown migration policy `{name}`"))?;
                }
                "--steps" => job.steps = Some(flags.parse("steps")?),
                "-s" | "--seed" => job.seed = flags.parse("seed")?,
                "-j" | "--islands" => job.islands = flags.parse("islands")?,
                "--multilevel" => job.multilevel = true,
                "--coarsen-until" => {
                    job.multilevel = true;
                    job.coarsen_until = Some(flags.parse("--coarsen-until value")?);
                }
                "-f" | "--format" => {
                    let name = flags.value("-f")?;
                    job.format = GraphFormat::parse(&name)
                        .ok_or_else(|| format!("unknown format `{name}` (metis|edgelist)"))?;
                }
                "-w" | "--write" => job.write = Some(flags.value("-w")?),
                "-q" | "--quiet" => job.quiet = true,
                other if other.starts_with('-') => return Ok(false),
                _ if graph_path.is_some() => return Err("multiple graph paths given".into()),
                path => graph_path = Some(path.to_string()),
            }
            Ok(true)
        })?;
        job.graph_path = graph_path.ok_or("missing graph path")?;
        job.k = k.ok_or("missing -k")?;
        Ok(job)
    }

    /// The [`JobRequest`] these flags describe, with the sub-command's
    /// deadline and chunk. `--coarsen-until 0` is refused, since the
    /// job's `multilevel: Some(0)` asks for the engine default.
    fn request(&self, deadline_ms: Option<u64>, chunk: u64) -> Result<JobRequest, String> {
        if self.coarsen_until == Some(0) {
            let e = ff_core::ConfigError::ZeroCoarsenTarget;
            return Err(format!("invalid configuration: {e}"));
        }
        // Cycling the objective list needs enough islands that every
        // distinct objective gets one (duplicates in the list weight the
        // cycle, so this can exceed the distinct count).
        let needed = ff_engine::islands_to_cover(&self.objectives);
        let mut islands = self.islands;
        if ff_engine::distinct_objectives(&self.objectives).len() > 1 && islands < needed {
            eprintln!("ffpart: raising --islands {islands} → {needed} (covering every objective)");
            islands = needed;
        }
        Ok(JobRequest {
            objective: self.objectives[0],
            objectives: (self.objectives.len() > 1).then(|| self.objectives.clone()),
            migration: self.migration,
            seed: self.seed,
            steps: self.steps,
            deadline_ms,
            islands,
            chunk,
            // `0` asks for the engine's default coarse target.
            multilevel: self.multilevel.then(|| self.coarsen_until.unwrap_or(0)),
            ..JobRequest::new(self.graph_path.clone(), self.k)
        })
    }
}

/// `ffpart serve`: run the ff-service partition server.
fn serve_main(args: &[String]) -> ExitCode {
    let mut listen = "127.0.0.1:7411".to_string();
    let mut config = ff_service::ServerConfig::default();
    let mut stdio = false;
    let parsed = read_flags(args, |flag, flags| {
        match flag {
            "--listen" => listen = flags.value("--listen")?,
            "--workers" => config.workers = flags.parse("--workers value")?,
            "--max-jobs" => config.max_jobs = flags.parse("--max-jobs value")?,
            "--max-jobs-per-conn" => {
                config.max_jobs_per_conn = flags.parse("--max-jobs-per-conn value")?
            }
            "--cache-bytes" => config.cache_bytes = flags.parse("--cache-bytes value")?,
            // `--http` takes an optional address: `--http 0.0.0.0:8080`
            // or bare `--http` for the default gateway port.
            "--http" => {
                let addr = flags.optional_value();
                config.http = Some(addr.unwrap_or_else(|| "127.0.0.1:7412".into()));
            }
            "--log-format" => {
                let name = flags.value("--log-format")?;
                let format = ff_service::LogFormat::parse(&name)
                    .ok_or_else(|| format!("unknown log format `{name}` (json|text)"))?;
                config.log_format = Some(format);
            }
            "--journal" => config.journal = Some(flags.value("--journal")?),
            "--stdio" => stdio = true,
            _ => return Ok(false),
        }
        Ok(true)
    });
    if let Err(e) = parsed {
        return usage_exit("ffpart serve", &e);
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
    let mut connect = None;
    let parsed = read_flags(args, |flag, flags| {
        if flag != "--connect" {
            return Ok(false);
        }
        connect = Some(flags.value("--connect")?);
        Ok(true)
    });
    if let Err(e) = parsed {
        return usage_exit("ffpart stats", &e);
    }
    let Some(connect) = connect else {
        return usage_exit("ffpart stats", "missing --connect");
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
    let usage_err = |msg: &str| usage_exit("ffpart submit", msg);
    let mut connect: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut chunk = ff_service::DEFAULT_CHUNK;
    let mut instance: Option<String> = None;
    let mut cancel_after_ms: Option<u64> = None;
    let mut retry_ms: Option<u64> = None;
    let mut workers: Option<String> = None;
    let parsed = JobFlags::parse(args, |flag, flags| {
        match flag {
            "--connect" => connect = Some(flags.value("--connect")?),
            "--deadline-ms" => deadline_ms = Some(flags.parse("--deadline-ms value")?),
            "--chunk" => chunk = flags.parse("--chunk value")?,
            "--instance" => instance = Some(flags.value("--instance")?),
            "--cancel-after-ms" => cancel_after_ms = Some(flags.parse("--cancel-after-ms value")?),
            "--retry-ms" => retry_ms = Some(flags.parse("--retry-ms value")?),
            "--workers" => workers = Some(flags.value("--workers")?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let job = match parsed {
        Ok(job) => job,
        Err(e) => return usage_err(&e),
    };
    if job.steps.is_none() && deadline_ms.is_none() {
        return usage_err("need --steps and/or --deadline-ms");
    }
    let mut request = match job.request(deadline_ms, chunk) {
        Ok(request) => request,
        Err(e) => return usage_err(&e),
    };
    if let Some(name) = instance {
        request.instance = name;
    }
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
        return submit_federated(addrs, &job, &request);
    }
    let Some(connect) = connect else {
        return usage_err("missing --connect");
    };
    // With `--retry-ms`, transport failures and admission rejections
    // restart the whole attempt (connect → load → submit → stream) until
    // the budget elapses — the client half of the durability story: a
    // journaled server that was killed mid-job comes back, re-executes
    // the job, and a step-budgeted retry lands byte-identically.
    let deadline = retry_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    loop {
        let connect_budget = match deadline {
            Some(d) => d
                .saturating_duration_since(Instant::now())
                .min(Duration::from_secs(5)),
            None => Duration::ZERO,
        };
        let attempt = submit_attempt(&connect, connect_budget, &job, &request, cancel_after_ms);
        let retry = match attempt {
            Ok(code) => return code,
            Err(retry) => retry,
        };
        let now = Instant::now();
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
fn submit_attempt(
    connect: &str,
    connect_budget: Duration,
    job: &JobFlags,
    request: &JobRequest,
    cancel_after_ms: Option<u64>,
) -> Result<ExitCode, SubmitRetry> {
    let mut client =
        ff_service::Client::connect_with_retry(connect, connect_budget).map_err(|e| {
            SubmitRetry::Transport(std::io::Error::new(
                e.kind(),
                format!("cannot connect to {connect}: {e}"),
            ))
        })?;
    let source = GraphSource::Path(job.graph_path.clone());
    let (vertices, edges, cached) = match client.load(&request.instance, source, job.format) {
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
        request.instance,
        if cached { " (cached)" } else { "" }
    );
    let id = match client.try_submit(request) {
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
                if !job.quiet {
                    let tag = imp
                        .objective
                        .map(|o| format!(" objective={}", o.name()))
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
        print_front(front);
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
    if let Some(path) = &job.write {
        let Some(assignment) = &done.assignment else {
            eprintln!("ffpart submit: server sent no assignment to write");
            return Ok(ExitCode::from(3));
        };
        if let Err(code) = write_part("ffpart submit", path, assignment) {
            return Ok(code);
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `ffpart submit --workers`: run `request` federated across several
/// already-running servers, this process acting as the coordinator.
/// Byte-identical to submitting the same job to a single server.
fn submit_federated(addrs: Vec<String>, job: &JobFlags, request: &JobRequest) -> ExitCode {
    let path = &job.graph_path;
    let fail = |msg: String| {
        eprintln!("ffpart submit: {msg}");
        ExitCode::from(3)
    };
    // The coordinator needs the graph locally (reduction, molecule
    // reconstruction) and the servers don't share our filesystem, so
    // read the file once and ship it inline.
    let source = match std::fs::read_to_string(path) {
        Ok(data) => GraphSource::Data(data),
        Err(e) => return fail(format!("cannot read {path}: {e}")),
    };
    let g = match read_graph(&source, job.format) {
        Ok(g) => g,
        Err(e) => return fail(format!("{path}: {e}")),
    };
    let started = Instant::now();
    let workers = WorkerSet::Connect { addrs };
    let result = distribute(
        "ffpart submit",
        &g,
        request,
        source,
        job.format,
        workers,
        &mut |island, news| {
            if !job.quiet {
                println!(
                    "improvement value={:.6} step={} t={}ms island={island}",
                    news.value, news.step, news.elapsed_ms
                );
            }
        },
    );
    let result = match result {
        Ok(r) => r,
        Err(code) => return code,
    };
    if let Some(front) = &result.pareto {
        print_front(&pareto_points(front, false));
    }
    println!(
        "done status=completed value={:.6} parts={} steps={} migrations={} time={}ms",
        result.best_value,
        result.best.num_nonempty_parts(),
        result.steps,
        result.migrations_adopted,
        started.elapsed().as_millis()
    );
    if let Some(path) = &job.write {
        if let Err(code) = write_part("ffpart submit", path, result.best.assignment()) {
            return code;
        }
    }
    ExitCode::SUCCESS
}

/// Runs `request`'s islands on `workers` (spawned `ffpart worker`
/// processes or running servers, which read the graph from `source`),
/// this process coordinating. Byte-identical to running the job in one
/// process, which is why [`DistSpec::for_job`] insists on a pure step
/// budget.
fn distribute(
    prefix: &str,
    g: &Graph,
    request: &JobRequest,
    source: GraphSource,
    format: GraphFormat,
    workers: WorkerSet,
    on_news: &mut dyn FnMut(usize, &WNews),
) -> Result<EnsembleResult, ExitCode> {
    let fail = |code: u8, msg: String| {
        eprintln!("{prefix}: {msg}");
        ExitCode::from(code)
    };
    if let Err(e) = request.solver(g).try_validate() {
        return Err(fail(2, format!("invalid job configuration: {e}")));
    }
    let spec = DistSpec::for_job(request, source, format)
        .map_err(|e| fail(2, format!("--workers: {e}")))?;
    let islands = request.islands;
    match &workers {
        WorkerSet::Spawn { count, .. } => {
            eprintln!("ffpart: distributing {islands} island(s) across {count} worker process(es)")
        }
        WorkerSet::Connect { addrs } => {
            eprintln!(
                "ffpart: federating {islands} island(s) across {} server(s)",
                addrs.len()
            )
        }
    }
    let opts = ff_service::DistOpts::default();
    ff_service::solve_distributed(g, &spec, &workers, &opts, on_news).map_err(|e| fail(3, e))
}

/// Writes `assignment` to `path` as a `.part` file.
fn write_part(prefix: &str, path: &str, assignment: &[u32]) -> Result<(), ExitCode> {
    match File::create(path).and_then(|f| write_assignment(assignment, f)) {
        Ok(()) => {
            eprintln!("ffpart: partition written to {path}");
            Ok(())
        }
        Err(e) => {
            eprintln!("{prefix}: cannot write {path}: {e}");
            Err(ExitCode::from(3))
        }
    }
}

/// One-shot fusion–fission: the job `ffpart submit` would send for the
/// same flags, with `chunk` at the solver's default migration interval
/// (1024). It runs in process through [`JobRequest::solver`], with
/// `--threads` lifting the served one-thread cap, or across `--workers`
/// spawned worker processes.
fn run_ff(
    g: &Graph,
    job: &JobFlags,
    request: &JobRequest,
    threads: usize,
    workers: Option<&str>,
) -> Result<EnsembleResult, ExitCode> {
    let Some(workers) = workers else {
        return request.solver(g).threads(threads).run().map_err(|e| {
            eprintln!("ffpart: invalid configuration: {e}");
            ExitCode::from(2)
        });
    };
    let count = if workers == "auto" {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        match workers.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("ffpart: bad --workers value `{workers}` (count or `auto`)");
                return Err(ExitCode::from(2));
            }
        }
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p.to_string_lossy().into_owned(),
        Err(e) => {
            eprintln!("ffpart: cannot locate own executable: {e}");
            return Err(ExitCode::from(3));
        }
    };
    let workers = WorkerSet::Spawn {
        cmd: vec![exe, "worker".into()],
        count: count.min(request.islands),
    };
    let source = GraphSource::Path(job.graph_path.clone());
    distribute(
        "ffpart",
        g,
        request,
        source,
        job.format,
        workers,
        &mut |_, _| {},
    )
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
            let slots = match argv.len() {
                1 => Ok(1),
                _ => Flags::new(argv[1..].to_vec()).parse("slot count"),
            };
            match slots {
                Ok(slots) => ff_service::serve_stdio(slots),
                Err(e) => return usage_exit("ffpart worker", &e),
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let mut method = MethodId::FusionFission;
    let mut budget_secs = None;
    let mut threads = 0usize;
    let mut repair = false;
    let mut mincut = false;
    let mut workers: Option<String> = None;
    let parsed = JobFlags::parse(&argv, |flag, flags| {
        match flag {
            "-m" | "--method" => {
                let name = flags.value("-m")?;
                method = parse_method(&name).ok_or_else(|| format!("unknown method `{name}`"))?;
            }
            "-b" | "--budget-secs" => {
                let secs = flags.parse("budget")?;
                // Negative, NaN or out-of-range budgets have no Duration.
                Duration::try_from_secs_f64(secs).map_err(|_| "bad budget")?;
                budget_secs = Some(secs);
            }
            "--threads" => threads = flags.parse("threads")?,
            "-r" | "--repair" => repair = true,
            "--mincut" => mincut = true,
            "--workers" => workers = Some(flags.value("--workers")?),
            _ => return Ok(false),
        }
        Ok(true)
    });
    let job = match parsed {
        Ok(job) => job,
        Err(e) => return usage_exit("ffpart", &e),
    };
    let g = match read_graph(&GraphSource::Path(job.graph_path.clone()), job.format) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("ffpart: {e}");
            return ExitCode::from(3);
        }
    };
    if job.k == 0 || job.k > g.num_vertices() {
        eprintln!(
            "ffpart: -k must be in 1..={} for this graph",
            g.num_vertices()
        );
        return ExitCode::from(2);
    }
    if job.islands == 0 {
        eprintln!("ffpart: --islands must be at least 1");
        return ExitCode::from(2);
    }
    let pareto_run = ff_engine::distinct_objectives(&job.objectives).len() > 1;
    if pareto_run && method != MethodId::FusionFission {
        eprintln!("ffpart: multi-objective runs need -m ff");
        return ExitCode::from(2);
    }
    if job.multilevel && method != MethodId::FusionFission {
        eprintln!("ffpart: --multilevel needs -m ff (it accelerates the fusion–fission engine)");
        return ExitCode::from(2);
    }
    // `--steps` without `-b` is purely step-bounded: the run's output is
    // then a pure function of (graph, config, seed). With neither, the
    // budget is 10 s.
    let deadline_ms = match (budget_secs, job.steps) {
        (Some(secs), _) => Some((secs * 1000.0).round() as u64),
        (None, Some(_)) => None,
        (None, None) => Some(10_000),
    };
    let request = match job.request(deadline_ms, 1024) {
        Ok(request) => request,
        Err(e) => {
            eprintln!("ffpart: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "ffpart: {} vertices, {} edges → k = {} via {}{}",
        g.num_vertices(),
        g.num_edges(),
        job.k,
        method.label(),
        if request.islands > 1 {
            format!(" × {} islands", request.islands)
        } else {
            String::new()
        }
    );
    if mincut && g.num_vertices() >= 2 {
        let cut = ff_graph::stoer_wagner(&g);
        println!(
            "global min cut: {:.4} (isolates {} of {} vertices)",
            cut.weight,
            cut.side.len().min(g.num_vertices() - cut.side.len()),
            g.num_vertices()
        );
    }

    let (mut partition, elapsed) = if method == MethodId::FusionFission {
        let started = Instant::now();
        let result = match run_ff(&g, &job, &request, threads, workers.as_deref()) {
            Ok(result) => result,
            Err(code) => return code,
        };
        let elapsed = started.elapsed();
        if let Some(info) = &result.multilevel {
            eprintln!(
                "ffpart: multilevel: {} levels, coarse {} vertices",
                info.levels, info.coarse_vertices
            );
        }
        // A Pareto run continues with its representative (best under
        // the primary, first, objective) for the report and -w.
        if let Some(front) = &result.pareto {
            print_front(&pareto_points(front, false));
        }
        (result.best, elapsed)
    } else if workers.is_some() {
        eprintln!("ffpart: --workers needs -m ff (it distributes the fusion–fission ensemble)");
        return ExitCode::from(2);
    } else {
        let budget = match (budget_secs, job.steps) {
            (Some(secs), steps) => MethodBudget {
                time: Duration::from_secs_f64(secs),
                steps: steps.unwrap_or(u64::MAX),
            },
            (None, Some(steps)) => MethodBudget {
                time: Duration::MAX,
                steps,
            },
            (None, None) => MethodBudget::seconds(Duration::from_secs(10)),
        };
        let out = run_method_ensemble(
            method,
            &g,
            job.k,
            request.objective,
            budget,
            job.seed,
            request.islands,
            threads,
            job.migration,
        );
        (out.partition, out.elapsed)
    };
    if repair {
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
    if !job.quiet {
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
    if let Some(path) = &job.write {
        if let Err(code) = write_part("ffpart", path, partition.assignment()) {
            return code;
        }
    }
    ExitCode::SUCCESS
}
