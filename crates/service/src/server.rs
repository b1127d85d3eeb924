//! The serve loop: TCP listener, per-connection dispatch, job registry,
//! admission control.
//!
//! Threading model: one cheap reader thread per client connection, one
//! cheap driver thread per in-flight job, and one [`FairGate`] bounding
//! actual compute to `workers` slots. Connections and jobs are decoupled
//! — a connection can stream many concurrent jobs (events are
//! line-atomic and tagged with the job id), and a job keeps its identity
//! in the server-wide registry so `cancel` works from any connection
//! (clients are trusted; this is a local/LAN service, not a public one).
//!
//! Unbounded acceptance is the demo-server failure mode: every submit
//! spawns a parked thread and pins a graph, so a burst of clients can
//! exhaust memory long before the gate saturates. [`ServerConfig`]
//! therefore bounds in-flight jobs server-wide (`max_jobs`) and per
//! connection (`max_jobs_per_conn`); overflow is answered with a typed
//! `rejected` event carrying a retry hint, never silently queued.

use crate::cache::{GraphFormat, GraphSource, InstanceCache, PinnedGraph};
use crate::gate::{FairGate, WAIT_BUCKET_MS};
use crate::http::{handle_http_client, EventLog};
use crate::job::{run_job, EventSink};
use crate::journal::{read_journal, JournalRecord, JournalTap, JournalWriter, ReplaySummary};
use crate::obs::{Metrics, DURATION_BUCKET_MS};
use crate::protocol::{DoneInfo, Event, JobRequest, Request, StatsInfo, PROTOCOL_VERSION};
use crate::sync::lock;
use crate::wsession;
use ff_metaheur::CancelToken;
use ff_obs::{LogFormat, LogValue, Logger, Registry};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::BufRead;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Longest request line the NDJSON reader will buffer (inline graph
/// uploads are the legitimate big lines; anything larger is answered
/// with an `error` event and the connection is closed, since there is no
/// way to resynchronize mid-line).
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// Completed HTTP job event logs retained for late `GET /jobs/:id/events`
/// readers before the oldest are dropped.
const RETAINED_EVENT_LOGS: usize = 256;

/// Everything configurable about a [`Server`]. `0` means "unlimited"
/// (or "one per core" for `workers`) throughout.
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// Compute slots shared by all in-flight jobs (`0` = one per core).
    pub workers: usize,
    /// Server-wide bound on in-flight (queued + running) jobs.
    pub max_jobs: usize,
    /// Per-connection bound on in-flight jobs.
    pub max_jobs_per_conn: usize,
    /// Instance-cache byte budget (CSR bytes; LRU eviction past it).
    pub cache_bytes: usize,
    /// Bind address for the HTTP/1.1 gateway (e.g. `127.0.0.1:0`);
    /// `None` serves NDJSON only.
    pub http: Option<String>,
    /// Structured operational logging to stderr (`ffpart serve
    /// --log-format json|text`); `None` logs nothing. Observation-only:
    /// results are byte-identical with logging on or off.
    pub log_format: Option<LogFormat>,
    /// Append-only job-journal path (`ffpart serve --journal PATH`).
    /// When set, instance loads, admitted specs and job events are
    /// journaled, and binding replays the journal: finished jobs are
    /// restored into the event-log retention ring, in-flight jobs are
    /// re-executed from their journaled spec. `None` keeps everything
    /// in memory (the pre-journal shape).
    pub journal: Option<String>,
}

impl ServerConfig {
    /// The PR-3-compatible shape: `workers` slots, everything unbounded,
    /// no HTTP listener.
    pub fn with_workers(workers: usize) -> ServerConfig {
        ServerConfig {
            workers,
            ..ServerConfig::default()
        }
    }
}

/// Event logs of the jobs that stream into one (HTTP submits and resumed
/// jobs), for `GET /jobs/:id/events`, and the completion order that
/// bounds how many finished ones are retained.
#[derive(Default)]
struct EventLogs {
    by_job: HashMap<u64, Arc<EventLog>>,
    finished: VecDeque<u64>,
}

/// Shared server state: cache, worker pool, job registry, metrics.
pub(crate) struct ServerState {
    pub(crate) cache: InstanceCache,
    pub(crate) gate: Arc<FairGate>,
    pub(crate) workers: usize,
    max_jobs: usize,
    max_jobs_per_conn: usize,
    jobs: Mutex<HashMap<u64, CancelToken>>,
    logs: Mutex<EventLogs>,
    next_job: AtomicU64,
    shutdown: AtomicBool,
    /// The always-on metrics registry (behind `GET /metrics` and the
    /// extended `stats` event, and the only store of the server's
    /// counters) plus the opt-in operational logger.
    pub(crate) metrics: Metrics,
    /// The append end of the job journal, when `--journal` is set.
    pub(crate) journal: Option<Arc<JournalTap>>,
}

impl ServerState {
    /// Fails only when the journal path cannot be opened for append.
    fn new(config: &ServerConfig) -> std::io::Result<Arc<ServerState>> {
        let workers = resolve_workers(config.workers);
        let metrics = Metrics::new(
            Registry::new(),
            match config.log_format {
                Some(format) => Logger::stderr(format),
                None => Logger::off(),
            },
        );
        metrics.workers.set(workers as f64);
        let journal = match &config.journal {
            Some(path) => Some(Arc::new(JournalTap::new(
                JournalWriter::open(path)?,
                &metrics.registry,
            ))),
            None => None,
        };
        Ok(Arc::new(ServerState {
            cache: InstanceCache::with_registry(config.cache_bytes, &metrics.registry),
            gate: FairGate::with_registry(workers, &metrics.registry),
            workers,
            max_jobs: config.max_jobs,
            max_jobs_per_conn: config.max_jobs_per_conn,
            jobs: Mutex::new(HashMap::new()),
            logs: Mutex::default(),
            next_job: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            metrics,
            journal,
        }))
    }

    /// Enters a finished job's event log into the bounded retention
    /// ring, evicting the oldest past [`RETAINED_EVENT_LOGS`].
    fn retain_finished_log(&self, job_id: u64) {
        let mut logs = lock(&self.logs);
        logs.finished.push_back(job_id);
        while logs.finished.len() > RETAINED_EVENT_LOGS {
            if let Some(old) = logs.finished.pop_front() {
                logs.by_job.remove(&old);
            }
        }
    }

    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    pub(crate) fn cancel_job(&self, job: u64) -> bool {
        match lock(&self.jobs).get(&job) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    pub(crate) fn event_log(&self, job: u64) -> Option<Arc<EventLog>> {
        lock(&self.logs).by_job.get(&job).cloned()
    }

    /// Admission control: reserves a slot for a submit from the
    /// connection that `conn_jobs` counts, or returns why not and how
    /// many jobs are in flight. The bound checks and the registry insert
    /// happen under one lock, so a burst of concurrent submits can never
    /// admit past the bound.
    fn admit(self: &Arc<Self>, conn_jobs: &Arc<AtomicUsize>) -> Result<Slot, (String, u64)> {
        let mut jobs = lock(&self.jobs);
        let reason = if self.max_jobs > 0 && jobs.len() >= self.max_jobs {
            format!("server at capacity (max {} in-flight jobs)", self.max_jobs)
        } else if self.max_jobs_per_conn > 0
            && conn_jobs.load(Ordering::Relaxed) >= self.max_jobs_per_conn
        {
            format!(
                "connection at capacity (max {} in-flight jobs per connection)",
                self.max_jobs_per_conn
            )
        } else {
            let job = self.next_job.fetch_add(1, Ordering::Relaxed);
            return Ok(self.claim(&mut jobs, job, Some(conn_jobs)));
        };
        Err((reason, jobs.len() as u64))
    }

    /// Enters `job` into the registry (`jobs`, held locked by the
    /// caller) under a fresh cancel token and counts it against its
    /// connection, if it has one.
    fn claim(
        self: &Arc<Self>,
        jobs: &mut HashMap<u64, CancelToken>,
        job: u64,
        conn_jobs: Option<&Arc<AtomicUsize>>,
    ) -> Slot {
        let token = CancelToken::new();
        jobs.insert(job, token.clone());
        if let Some(conn_jobs) = conn_jobs {
            conn_jobs.fetch_add(1, Ordering::Relaxed);
        }
        Slot {
            state: self.clone(),
            job,
            token,
            conn_jobs: conn_jobs.cloned(),
        }
    }

    /// One statistics snapshot, read from the registry's counters and
    /// histograms and from the owners of the point-in-time values. Also
    /// sets the registry's gauges from it: `stats` and `/metrics` both
    /// take this snapshot.
    pub(crate) fn stats(&self) -> StatsInfo {
        let cache = self.cache.stats();
        let metrics = &self.metrics;
        // Each owner's lock is taken on its own, none while another is
        // held: the gate's first, then the job registry's.
        let gate_queued = self.gate.queued();
        let permit_wait_hist = self.gate.wait_histogram();
        let jobs_running = lock(&self.jobs).len() as u64;
        let info = StatsInfo {
            instances: cache.instances,
            cache_hits: cache.hits,
            cache_loads: cache.loads,
            cache_evictions: cache.evictions,
            cache_bytes: cache.bytes,
            cache_budget_bytes: cache.budget,
            jobs_submitted: metrics.submitted.get(),
            jobs_running,
            jobs_done: metrics.jobs_done(),
            jobs_cancelled: metrics.jobs_cancelled(),
            jobs_rejected: metrics.rejected.get(),
            max_jobs: self.max_jobs as u64,
            workers: self.workers,
            gate_queued,
            permit_wait_hist,
            permit_wait_bucket_ms: WAIT_BUCKET_MS,
            job_duration_hist: metrics.job_duration_counts(),
            job_duration_bucket_ms: DURATION_BUCKET_MS,
        };
        metrics.set_gauges(&info);
        info
    }
}

/// Resolves a worker count: `0` means one per available core.
fn resolve_workers(workers: usize) -> usize {
    if workers > 0 {
        workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Replays a journal into fresh server state. Three passes:
///
/// 1. Instance records reload their sources and compare content digests
///    — a mismatch (the file changed across the restart) poisons the
///    key, invalidating every journaled job that references it.
/// 2. Finished jobs (a `done` event exists) are restored into the
///    event-log retention ring *without re-execution*: their journaled
///    `improvement`/`done` lines become a finished [`EventLog`], served
///    by `GET /jobs/:id/events` exactly like a live job's, and each
///    `done` is counted on the fresh registry like a live one.
/// 3. Jobs with a journaled spec but no `done` were in flight at crash
///    time: they are re-executed from the spec through the same driver
///    path as a live submit (step-budgeted jobs land byte-identically,
///    per the determinism contract).
fn replay_journal(state: &Arc<ServerState>, path: &str) -> std::io::Result<ReplaySummary> {
    let outcome = read_journal(path).map_err(std::io::Error::from)?;
    let mut summary = ReplaySummary {
        records: outcome.records.len(),
        truncated: outcome.truncated,
        ..ReplaySummary::default()
    };
    // Keys whose journaled digest matches what reloading produces now.
    let mut instance_ok: HashMap<String, bool> = HashMap::new();
    let mut specs: BTreeMap<u64, JobRequest> = BTreeMap::new();
    let mut improvements: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut seen_points: HashSet<(u64, usize, u64, u64)> = HashSet::new();
    let mut dones: BTreeMap<u64, (DoneInfo, String)> = BTreeMap::new();
    let mut rejected = 0u64;
    let mut max_job = 0u64;
    for record in &outcome.records {
        match record {
            JournalRecord::Instance {
                instance,
                source,
                format,
                digest,
            } => {
                summary.instances += 1;
                let ok = match state.cache.load(instance, source.clone(), *format) {
                    Ok(_) => state.cache.digest(instance) == Some(*digest),
                    Err(_) => false,
                };
                if !ok {
                    state.metrics.logger.log(
                        "replay_instance_invalid",
                        None,
                        &[("instance", LogValue::Str(instance))],
                    );
                }
                instance_ok.insert(instance.clone(), ok);
            }
            JournalRecord::Submitted { job, spec } => {
                max_job = max_job.max(*job);
                specs.insert(*job, spec.clone());
            }
            JournalRecord::Event(event @ Event::Improvement(imp)) => {
                max_job = max_job.max(imp.job);
                // Re-executions after earlier crashes re-journal the
                // same improvements with fresh timestamps; dedup on the
                // deterministic coordinates, keep the first occurrence.
                if seen_points.insert((imp.job, imp.island, imp.step, imp.value.to_bits())) {
                    improvements
                        .entry(imp.job)
                        .or_default()
                        .push(event.to_value().to_string());
                }
            }
            JournalRecord::Event(event @ Event::Done(done)) => {
                max_job = max_job.max(done.job);
                dones
                    .entry(done.job)
                    .or_insert_with(|| (done.clone(), event.to_value().to_string()));
            }
            JournalRecord::Event(Event::Rejected { .. }) => rejected += 1,
            JournalRecord::Event(_) => {}
        }
    }
    // Totals: counted once on the fresh registry, which starts at zero.
    let metrics = &state.metrics;
    state.next_job.store(max_job + 1, Ordering::Relaxed);
    metrics.submitted.add(specs.len() as u64);
    metrics.rejected.add(rejected);
    // Finished jobs: observation-only restore into the retention ring.
    for (job, (done, done_line)) in &dones {
        metrics.count_done(done);
        let log = EventLog::new();
        for line in improvements.remove(job).unwrap_or_default() {
            log.push_line(line);
        }
        log.push_line(done_line.clone());
        log.finish();
        lock(&state.logs).by_job.insert(*job, log);
        state.retain_finished_log(*job);
        summary.finished += 1;
    }
    // In-flight jobs: re-execute from the journaled spec, same job id.
    for (job, spec) in specs {
        if dones.contains_key(&job) {
            continue;
        }
        if instance_ok.get(&spec.instance).copied() == Some(true) && resume_job(state, job, &spec) {
            summary.resumed += 1;
        } else {
            summary.skipped += 1;
            state.metrics.logger.log(
                "replay_skip",
                Some(job),
                &[("instance", LogValue::Str(&spec.instance))],
            );
        }
    }
    let registry = &metrics.registry;
    crate::obs::journal_replayed_records(registry).add(summary.records as u64);
    crate::obs::journal_replay_jobs(registry, "finished").add(summary.finished as u64);
    crate::obs::journal_replay_jobs(registry, "resumed").add(summary.resumed as u64);
    crate::obs::journal_replay_jobs(registry, "skipped").add(summary.skipped as u64);
    metrics.logger.log(
        "replay",
        None,
        &[
            ("records", LogValue::U64(summary.records as u64)),
            ("instances", LogValue::U64(summary.instances as u64)),
            ("finished", LogValue::U64(summary.finished as u64)),
            ("resumed", LogValue::U64(summary.resumed as u64)),
            ("skipped", LogValue::U64(summary.skipped as u64)),
            ("truncated", LogValue::Bool(summary.truncated)),
        ],
    );
    Ok(summary)
}

/// Re-executes one journaled in-flight job under its *original* id.
/// Admission was already granted (and counted) before the crash, so
/// this bypasses the admission gate and goes straight to the job start;
/// events stream into a fresh [`EventLog`] (and back into the journal),
/// so a retrying client picks the result up over HTTP or by
/// resubmitting the identical spec.
fn resume_job(state: &Arc<ServerState>, job_id: u64, spec: &JobRequest) -> bool {
    let slot = state.claim(&mut lock(&state.jobs), job_id, None);
    let sink = EventSink::new_log(state.journal.clone());
    let span = [
        ("instance", LogValue::Str(&spec.instance)),
        ("seed", LogValue::U64(spec.seed)),
    ];
    start_job(state, slot, spec, sink, "resume", &span, || {}).is_ok()
}

/// A bound, not-yet-running partition server.
pub struct Server {
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    state: Arc<ServerState>,
    replay: Option<ReplaySummary>,
}

impl Server {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral port) with a
    /// worker pool of `workers` compute slots (`0` = one per core) and no
    /// admission/cache bounds — the PR 3 shape. Production servers want
    /// [`Server::bind_with`].
    pub fn bind(addr: &str, workers: usize) -> std::io::Result<Server> {
        Server::bind_with(addr, ServerConfig::with_workers(workers))
    }

    /// Binds the NDJSON listener on `addr` and, if `config.http` is set,
    /// the HTTP/1.1 gateway on that address too. Both front-ends share
    /// one cache, gate, job registry and admission bound.
    pub fn bind_with(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let http_listener = match &config.http {
            Some(http_addr) => Some(TcpListener::bind(http_addr.as_str())?),
            None => None,
        };
        let state = ServerState::new(&config)?;
        let replay = match &config.journal {
            Some(path) => Some(replay_journal(&state, path)?),
            None => None,
        };
        Ok(Server {
            listener,
            http_listener,
            state,
            replay,
        })
    }

    /// What journal replay restored at bind time, if a journal was
    /// configured. `None` means the server runs without durability.
    pub fn replay_summary(&self) -> Option<ReplaySummary> {
        self.replay
    }

    /// The address actually bound (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The HTTP gateway's bound address, if one was configured.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Accepts and serves connections until a client sends `shutdown`.
    /// Jobs still in flight at shutdown keep their driver threads; a
    /// process that wants a hard stop simply exits.
    pub fn run(self) -> std::io::Result<()> {
        let http_join = match self.http_listener {
            Some(listener) => {
                let state = self.state.clone();
                Some(std::thread::spawn(move || {
                    accept_loop(&listener, &state, |state, stream| {
                        handle_http_client(state, stream)
                    })
                }))
            }
            None => None,
        };
        let result = accept_loop(&self.listener, &self.state, handle_tcp_client);
        self.state.request_shutdown(); // unblock the http loop on error
        if let Some(join) = http_join {
            join.join()
                .map_err(|_| std::io::Error::other("http accept loop panicked"))??;
        }
        result
    }

    /// Runs the serve loop on a background thread, returning a handle
    /// with the bound addresses — the shape tests and examples want.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let http_addr = self.http_addr();
        let replay = self.replay;
        let join = std::thread::spawn(move || self.run());
        Ok(ServerHandle {
            addr,
            http_addr,
            replay,
            join,
        })
    }
}

/// One nonblocking accept loop; used for both the NDJSON and HTTP
/// listeners so they poll the same shutdown flag.
fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    handle: fn(Arc<ServerState>, TcpStream),
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return Ok(());
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let state = state.clone();
                std::thread::spawn(move || handle(state, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                // Transient accept failures (a client resetting
                // mid-handshake, a momentary fd shortage under a
                // connection burst) must not take down a server with
                // jobs in flight; back off and keep accepting.
                eprintln!("ff-service: accept error (continuing): {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// A running server on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    replay: Option<ReplaySummary>,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The address NDJSON clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address HTTP clients connect to, if the gateway is enabled.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// What journal replay restored at bind time, if journaling is on.
    pub fn replay_summary(&self) -> Option<ReplaySummary> {
        self.replay
    }

    /// Waits for the serve loop to end (a client must send `shutdown`).
    pub fn join(self) -> std::io::Result<()> {
        self.join
            .join()
            .map_err(|_| std::io::Error::other("serve loop panicked"))?
    }
}

/// What one capped line read produced.
pub(crate) enum LineRead {
    /// A complete line (without its newline).
    Line,
    /// End of stream (any partial trailing line is in the buffer).
    Eof,
    /// The line exceeded the cap; the stream cannot be resynchronized.
    TooLong,
}

/// Reads one `\n`-terminated line into `out` without ever buffering more
/// than `cap` bytes — `BufRead::read_line` would happily grow the
/// buffer until the allocator gives out, which hands any client a
/// one-line memory DoS.
pub(crate) fn read_line_capped<R: BufRead>(
    reader: &mut R,
    out: &mut Vec<u8>,
    cap: usize,
) -> std::io::Result<LineRead> {
    out.clear();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if out.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if out.len() + pos > cap {
                reader.consume(pos + 1);
                return Ok(LineRead::TooLong);
            }
            out.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            return Ok(LineRead::Line);
        }
        let len = buf.len();
        if out.len() + len > cap {
            reader.consume(len);
            return Ok(LineRead::TooLong);
        }
        out.extend_from_slice(buf);
        reader.consume(len);
    }
}

/// Serves one already-connected client over any `(reader, sink)` pair —
/// the transport-agnostic core shared by TCP and stdio serving.
fn handle_client(state: &Arc<ServerState>, mut reader: impl BufRead, sink: &EventSink) {
    if sink
        .send(&Event::Hello {
            proto: PROTOCOL_VERSION,
            workers: state.workers,
        })
        .is_err()
    {
        return;
    }
    let conn_jobs = Arc::new(AtomicUsize::new(0));
    // Worker sessions are connection-scoped: the map's senders are the
    // only handles to the session threads, so dropping the connection
    // closes the channels and the threads wind down on their own.
    let mut wsessions: HashMap<u64, mpsc::Sender<Request>> = HashMap::new();
    let mut line = Vec::new();
    loop {
        let line = match read_line_capped(&mut reader, &mut line, MAX_LINE_BYTES) {
            Ok(LineRead::Line) => String::from_utf8_lossy(&line),
            Ok(LineRead::Eof) | Err(_) => break, // connection dropped
            Ok(LineRead::TooLong) => {
                let _ = sink.send(&Event::Error {
                    message: format!(
                        "request line exceeds {} bytes; closing connection",
                        MAX_LINE_BYTES
                    ),
                    job: None,
                });
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(r) => r,
            Err(message) => {
                if sink.send(&Event::Error { message, job: None }).is_err() {
                    break;
                }
                continue;
            }
        };
        let reply = match request {
            Request::Shutdown => {
                state.request_shutdown();
                let _ = sink.send(&Event::Bye);
                return;
            }
            // Worker-session ops reply from the session thread (the sink
            // is line-atomic and FIFO per session), so a successful
            // forward has nothing to send here.
            Request::WStart(start) => {
                match wsession::start_session(state, start, sink, &mut wsessions) {
                    Ok(()) => continue,
                    Err(message) => Event::Error { message, job: None },
                }
            }
            op @ (Request::WAdvance { session, .. }
            | Request::WMolecule { session, .. }
            | Request::WInject { session, .. }
            | Request::WHarvest { session }) => {
                match wsession::forward(&mut wsessions, session, op) {
                    Ok(()) => continue,
                    Err(message) => Event::Error { message, job: None },
                }
            }
            shared => dispatch(state, shared, Some(sink), &conn_jobs),
        };
        if sink.send(&reply).is_err() {
            break;
        }
    }
}

/// Answers a request that both front-ends serve — `load`, `submit`,
/// `cancel` or `stats` — with its reply event. A submitted job streams
/// its events into `sink`, the submitting connection's, or with `None`
/// (the HTTP gateway) into an [`EventLog`] of its own; `conn_jobs`
/// counts the connection's in-flight jobs.
pub(crate) fn dispatch(
    state: &Arc<ServerState>,
    request: Request,
    sink: Option<&EventSink>,
    conn_jobs: &Arc<AtomicUsize>,
) -> Event {
    match request {
        Request::Load {
            instance,
            source,
            format,
        } => load_instance(state, instance, source, format),
        Request::Submit(spec) => submit_job(state, spec, sink, conn_jobs),
        Request::Cancel { job } => Event::Cancelling {
            job,
            known: state.cancel_job(job),
        },
        Request::Stats => Event::Stats(state.stats()),
        // `shutdown` and the worker-session ops belong to an NDJSON
        // connection, which answers them itself.
        _ => Event::Error {
            message: "not a shared request".into(),
            job: None,
        },
    }
}

/// Loads an instance into the cache (or finds it there), journals a
/// fresh load and logs the `load` span.
fn load_instance(
    state: &ServerState,
    instance: String,
    source: GraphSource,
    format: GraphFormat,
) -> Event {
    // Clone the source only when a journal will record it.
    let journal_copy = state.journal.as_ref().map(|tap| (tap, source.clone()));
    match state.cache.load(&instance, source, format) {
        Ok((graph, outcome)) => {
            // A fresh load is journaled with the digest the cache
            // computed for it.
            if let Some((tap, source)) = journal_copy.filter(|_| !outcome.cached) {
                if let Some(digest) = state.cache.digest(&instance) {
                    tap.record(&JournalRecord::Instance {
                        instance: instance.clone(),
                        source,
                        format,
                        digest,
                    });
                }
            }
            state.metrics.logger.log(
                "load",
                None,
                &[
                    ("instance", LogValue::Str(&instance)),
                    ("vertices", LogValue::U64(graph.num_vertices() as u64)),
                    ("edges", LogValue::U64(graph.num_edges() as u64)),
                    ("cached", LogValue::Bool(outcome.cached)),
                ],
            );
            Event::Loaded {
                instance,
                vertices: graph.num_vertices(),
                edges: graph.num_edges(),
                cached: outcome.cached,
                reloaded: outcome.reloaded,
            }
        }
        Err(message) => Event::Error { message, job: None },
    }
}

/// A deterministic-enough backoff hint for a rejected submit: roughly
/// how long until a gate slot has turned over once per queued job. A
/// heuristic for polite clients, not a reservation.
fn retry_hint_ms(in_flight: u64, workers: usize) -> u64 {
    (100 * in_flight / workers.max(1) as u64).clamp(50, 10_000)
}

/// Applies admission control to a submit and, if admitted, starts its
/// job. Returns the event to send back (`accepted`, `rejected` or
/// `error`).
fn submit_job(
    state: &Arc<ServerState>,
    spec: JobRequest,
    sink: Option<&EventSink>,
    conn_jobs: &Arc<AtomicUsize>,
) -> Event {
    // Admission control runs FIRST — a rejected submit must not touch
    // the cache (no hit counted, no LRU recency refreshed for work that
    // will never run). A rejection is only decided under the registry's
    // lock; it is counted, logged and journaled after the lock is
    // released.
    let slot = match state.admit(conn_jobs) {
        Ok(slot) => slot,
        Err((reason, in_flight)) => {
            state.metrics.rejected.inc();
            state.metrics.logger.log(
                "reject",
                None,
                &[
                    ("instance", LogValue::Str(&spec.instance)),
                    ("reason", LogValue::Str(&reason)),
                    ("in_flight", LogValue::U64(in_flight)),
                ],
            );
            let event = Event::Rejected {
                instance: spec.instance,
                reason,
                retry_after_ms: retry_hint_ms(in_flight.max(1), state.workers),
                in_flight,
            };
            if let Some(tap) = &state.journal {
                tap.record(&JournalRecord::Event(event.clone()));
            }
            return event;
        }
    };
    let job = slot.job;
    let sink = match sink {
        Some(sink) => sink.clone(),
        None => EventSink::new_log(state.journal.clone()),
    };
    let span = [
        ("instance", LogValue::Str(&spec.instance)),
        ("k", LogValue::U64(spec.k as u64)),
        ("islands", LogValue::U64(spec.islands as u64)),
        ("seed", LogValue::U64(spec.seed)),
    ];
    let started = start_job(state, slot, &spec, sink, "submit", &span, || {
        state.metrics.submitted.inc();
        // Journal the admitted spec *after* validation, so replay only
        // ever re-executes jobs that were actually going to run.
        if let Some(tap) = &state.journal {
            tap.record(&JournalRecord::Submitted {
                job,
                spec: spec.clone(),
            });
        }
    });
    match started {
        Ok(()) => Event::Accepted {
            job,
            instance: spec.instance,
            k: spec.k,
        },
        Err(message) => Event::Error { message, job: None },
    }
}

/// Starts an admitted or journal-resumed job — the one way to its
/// driver: pins the instance, validates the job, registers its event log
/// (if it streams into one), runs `admitted` (a live submit's own
/// bookkeeping), logs `span` and spawns the driver. A refusal drops
/// `slot`, which releases it.
fn start_job(
    state: &Arc<ServerState>,
    slot: Slot,
    spec: &JobRequest,
    sink: EventSink,
    span: &str,
    fields: &[(&str, LogValue)],
    admitted: impl FnOnce(),
) -> Result<(), String> {
    let Some(graph) = state.cache.pin(&spec.instance) else {
        return Err(format!(
            "unknown instance `{}` (load it first)",
            spec.instance
        ));
    };
    // Full engine-level validation up front: the driver thread must never
    // panic on a config the wire schema happened to allow — the typed
    // error goes back to the client instead.
    if let Err(e) = spec.solver(graph.graph()).try_validate() {
        return Err(format!("invalid job configuration: {e}"));
    }
    if let Some(log) = sink.event_log() {
        lock(&state.logs).by_job.insert(slot.job, log.clone());
    }
    admitted();
    state.metrics.logger.log(span, Some(slot.job), fields);
    spawn_driver(state.clone(), slot, spec.clone(), graph, sink);
    Ok(())
}

/// A job's admission slot: its entry in the job registry and, for a live
/// submit, one count on its connection's in-flight jobs. Dropping it
/// releases both, however the job ends: refused after admission, in
/// `before_done`, or unwound by a panicking driver.
struct Slot {
    state: Arc<ServerState>,
    job: u64,
    token: CancelToken,
    conn_jobs: Option<Arc<AtomicUsize>>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        lock(&self.state.jobs).remove(&self.job);
        if let Some(conn_jobs) = &self.conn_jobs {
            conn_jobs.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The end of a driver thread, normal or panicking: finishes the job's
/// event log, if it has one, and after a panic counts it and tells
/// whoever is streaming. The slot is free by then: `before_done` owns
/// it, and a panicking `run_job` drops it while unwinding.
struct DriverEnd {
    state: Arc<ServerState>,
    job: u64,
    sink: EventSink,
}

impl Drop for DriverEnd {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.state.metrics.job_panicked(self.job);
            // The error is not journaled (the tap records only
            // `improvement` and `done`), so a journaled server
            // re-executes the job at the next restart instead of losing
            // it.
            let _ = self.sink.send(&Event::Error {
                message: "job driver panicked; admission slot released".into(),
                job: Some(self.job),
            });
        }
        if let Some(log) = self.sink.event_log() {
            log.finish();
            self.state.retain_finished_log(self.job);
        }
    }
}

/// Spawns the driver thread of a started job.
fn spawn_driver(
    state: Arc<ServerState>,
    slot: Slot,
    spec: JobRequest,
    graph: PinnedGraph,
    sink: EventSink,
) {
    std::thread::spawn(move || {
        let (job, token) = (slot.job, slot.token.clone());
        let _end = DriverEnd {
            state: state.clone(),
            job,
            sink: sink.clone(),
        };
        // `graph` is a PinnedGraph: the cache cannot evict this instance
        // for as long as the job runs. The slot is released and the
        // counters updated in `before_done` — i.e. before the `done`
        // event reaches the client — so stats taken right after
        // `wait_done` are coherent and the freed admission slot is
        // visible to an instant resubmit.
        run_job(
            job,
            &spec,
            graph.graph(),
            &state.gate,
            &token,
            &sink,
            &state.metrics,
            |done| {
                drop(slot);
                state.metrics.job_done(done);
            },
        );
    });
}

fn handle_tcp_client(state: Arc<ServerState>, stream: TcpStream) {
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let _conn = state.metrics.connection("ndjson");
    let sink = EventSink::with_journal(Box::new(writer), state.journal.clone());
    handle_client(&state, std::io::BufReader::new(stream), &sink);
}

/// Serves exactly one client over stdin/stdout — `ffpart serve --stdio`,
/// the shape that slots under an inetd-style supervisor or a pipe-speaking
/// parent process. Returns when stdin closes or the client sends
/// `shutdown`.
pub fn serve_stdio(workers: usize) {
    serve_stdio_with(ServerConfig::with_workers(workers));
}

/// [`serve_stdio`] with full [`ServerConfig`] control (admission bounds,
/// cache budget; `config.http` is ignored — stdio serves one NDJSON
/// client).
pub fn serve_stdio_with(config: ServerConfig) {
    let state = match ServerState::new(&config) {
        Ok(state) => state,
        Err(e) => {
            eprintln!("ffpart: journal open failed: {e}");
            return;
        }
    };
    if let Some(path) = &config.journal {
        if let Err(e) = replay_journal(&state, path) {
            eprintln!("ffpart: journal replay failed: {e}");
            return;
        }
    }
    let sink = EventSink::with_journal(Box::new(std::io::stdout()), state.journal.clone());
    handle_client(&state, std::io::stdin().lock(), &sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn capped_line_reader_reads_lines_and_rejects_monsters() {
        let mut input = Cursor::new(b"short\nsecond line\n".to_vec());
        let mut buf = Vec::new();
        assert!(matches!(
            read_line_capped(&mut input, &mut buf, MAX_LINE_BYTES).unwrap(),
            LineRead::Line
        ));
        assert_eq!(buf, b"short");
        assert!(matches!(
            read_line_capped(&mut input, &mut buf, MAX_LINE_BYTES).unwrap(),
            LineRead::Line
        ));
        assert_eq!(buf, b"second line");
        assert!(matches!(
            read_line_capped(&mut input, &mut buf, MAX_LINE_BYTES).unwrap(),
            LineRead::Eof
        ));
        // A trailing unterminated line still comes out.
        let mut input = Cursor::new(b"tail".to_vec());
        assert!(matches!(
            read_line_capped(&mut input, &mut buf, MAX_LINE_BYTES).unwrap(),
            LineRead::Line
        ));
        assert_eq!(buf, b"tail");
    }

    #[test]
    fn retry_hint_is_clamped_and_monotone() {
        assert_eq!(retry_hint_ms(1, 4), 50);
        assert!(retry_hint_ms(100, 2) >= retry_hint_ms(10, 2));
        assert_eq!(retry_hint_ms(u64::MAX / 200, 1), 10_000);
    }
}
