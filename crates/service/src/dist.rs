//! The distributed-islands coordinator: shards an ensemble's islands
//! across worker processes and drives them in deterministic lockstep.
//!
//! ## Topology
//!
//! ```text
//!   coordinator (owns the graph and the MigrationPolicy, reduces the harvest)
//!      │ NDJSON: load, wstart, then per epoch wadvance / wmolecule / winject
//!      ├──────────────┬──────────────┐
//!   worker 0       worker 1       worker 2     (spawned `ffpart worker`
//!   islands 0,3    islands 1,4    islands 2,5   processes, or remote
//!                                               `ffpart serve` servers)
//! ```
//!
//! Islands are assigned round-robin (island `i` is island `i / W` of
//! worker `i mod W`), each worker hosting its shard in one session built
//! by the same [`Solver`](ff_engine::Solver) an in-process run uses. The
//! coordinator runs the engine's own epoch loop ([`EpochLoop`]) over the
//! shards; this module implements its [`IslandSet`] seam as `w*` calls.
//! A `wstate` carries each hosted island's barrier report
//! ([`IslandReport`]) field for field: the energy the migration policy
//! plans on, and the improvements found since the last barrier. A
//! planned molecule crosses the process boundary as an assignment
//! vector (`wmolecule` → `winject`).
//!
//! ## Determinism contract
//!
//! An island's state is a pure function of its seed and injection
//! history, and injected molecules are canonicalized from their
//! assignment on arrival — so a distributed run is **byte-identical**
//! to the in-process [`Solver`](ff_engine::Solver) run with the same
//! seeds, per-island objectives, step budget and migration interval,
//! for any worker count or layout.
//!
//! ## Fault tolerance (crash–replay)
//!
//! Every state-changing op (`load`, `wstart`, each completed `wadvance`
//! and `winject`) is appended to a per-worker op log *after* its reply
//! arrives. When a worker dies, stalls past the reply timeout, or
//! returns a corrupt line, the coordinator kills it, spawns a fresh
//! one, replays the log (cheap deterministic recompute; replayed
//! replies are discarded so improvement callbacks never fire twice),
//! and re-sends the in-flight op. Purity of the island state makes the
//! replayed worker indistinguishable from the lost one, which is what
//! keeps the byte-identical contract intact *under* faults.

use crate::sync::lock;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ff_core::FusionFissionResult;
use ff_engine::{
    distinct_objectives, EnsembleResult, EpochLoop, IslandReport, IslandSet, MigrationPolicyId,
};
use ff_graph::Graph;
use ff_metaheur::AnytimeTrace;
use ff_partition::{Objective, Partition};

use crate::cache::{GraphFormat, GraphSource};
use crate::protocol::{Event, JobRequest, MoleculeInfo, Request, WIslandState, WNews, WorkerStart};

/// What to solve, distributed. `seeds` and `objectives` are the full
/// per-island lists in global island order, fixed exactly as the
/// in-process path would fix them: "same seeds in, same bytes out" is
/// the caller's to state and this module's to keep.
/// [`DistSpec::for_job`] derives the whole spec from a [`JobRequest`].
#[derive(Clone, Debug)]
pub struct DistSpec {
    /// Cache key the workers load the instance under.
    pub instance: String,
    /// Where each worker gets the graph bytes (a path for local
    /// spawned workers, inline data for remote servers).
    pub source: GraphSource,
    /// File format of `source`.
    pub format: GraphFormat,
    /// Target part count.
    pub k: usize,
    /// Step budget per island.
    pub steps: u64,
    /// Per-island seeds (length = island count).
    pub seeds: Vec<u64>,
    /// Per-island objectives (same length as `seeds`, already cycled).
    pub objectives: Vec<Objective>,
    /// Base migration interval in steps (`0` = no migration).
    pub interval: u64,
    /// Migration policy, instantiated coordinator-side.
    pub migration: MigrationPolicyId,
    /// Whether `objectives` holds more than one distinct objective, in
    /// which case the result carries a Pareto front. The objectives alone
    /// decide that: [`solve_distributed`] rejects a spec whose flag
    /// disagrees with them, and [`DistSpec::for_job`] sets it from the job.
    pub pareto: bool,
}

impl DistSpec {
    /// The distributed form of `job`, read from the same definition as
    /// [`JobRequest::solver`]: its island seeds and per-island objectives,
    /// and `chunk` as the migration interval. Running it is
    /// byte-identical to serving `job`. `source` and `format` tell the
    /// workers where to get the instance.
    ///
    /// Lockstep epochs need a pure step budget on the flat search, so a
    /// job without `steps`, with `deadline_ms`, or with `multilevel` is an
    /// error.
    pub fn for_job(
        job: &JobRequest,
        source: GraphSource,
        format: GraphFormat,
    ) -> Result<DistSpec, String> {
        if job.deadline_ms.is_some() {
            return Err("a distributed job needs a pure step budget, not a deadline".into());
        }
        let Some(steps) = job.steps else {
            return Err("a distributed job needs a step budget".into());
        };
        if job.multilevel.is_some() {
            return Err("a distributed job does not combine with multilevel".into());
        }
        Ok(DistSpec {
            instance: job.instance.clone(),
            source,
            format,
            k: job.k,
            steps,
            seeds: job.island_seeds(),
            objectives: job.island_objectives(),
            interval: job.chunk,
            migration: job.migration,
            pareto: job.is_pareto(),
        })
    }
}

/// Where the workers come from.
#[derive(Clone, Debug)]
pub enum WorkerSet {
    /// Spawn `count` local processes running `cmd` (argv vector) and
    /// speak NDJSON over their stdin/stdout.
    Spawn { cmd: Vec<String>, count: usize },
    /// Connect to already-running NDJSON servers.
    Connect { addrs: Vec<String> },
}

/// Coordinator knobs. The defaults suit production; the fault-injection
/// tests shorten `reply_timeout` and watch `pids`.
#[derive(Clone, Debug)]
pub struct DistOpts {
    /// How long to wait for any single reply before declaring the
    /// worker hung and respawning it. Generous by default — a legal
    /// epoch can run `interval` steps of real optimization.
    pub reply_timeout: Duration,
    /// Respawn/reconnect budget per worker before giving up.
    pub max_respawns: usize,
    /// Extra environment for spawned workers (the fault-injection hook:
    /// set `FFPART_FAULT` here).
    pub env: Vec<(String, String)>,
    /// When set, every spawned worker's pid is pushed here — lets a
    /// test `kill -9` a live worker mid-run.
    pub pids: Option<Arc<Mutex<Vec<u32>>>>,
    /// When set, the coordinator records its metrics here: respawns,
    /// wire failures by kind, replay lengths, per-worker epoch lag.
    /// Observation-only — the result bytes are identical either way.
    pub obs: Option<ff_obs::Registry>,
    /// Structured span logging (`epoch` / `fault` events). Defaults to
    /// [`ff_obs::Logger::off`].
    pub logger: ff_obs::Logger,
}

impl Default for DistOpts {
    fn default() -> DistOpts {
        DistOpts {
            reply_timeout: Duration::from_secs(600),
            max_respawns: 3,
            env: Vec::new(),
            pids: None,
            obs: None,
            logger: ff_obs::Logger::off(),
        }
    }
}

/// Runs `spec` across `workers` and reduces, coordinator-side, to the
/// same [`EnsembleResult`] the in-process solver would return. `g` is
/// the coordinator's own copy of the instance (for molecule
/// reconstruction and the reduction); it must be the graph `spec.source`
/// describes. `on_news` receives each island improvement exactly once
/// (global island index + point), replays excluded.
pub fn solve_distributed(
    g: &Graph,
    spec: &DistSpec,
    workers: &WorkerSet,
    opts: &DistOpts,
    on_news: &mut dyn FnMut(usize, &WNews),
) -> Result<EnsembleResult, String> {
    let n = spec.seeds.len();
    if n == 0 {
        return Err("distributed run needs at least one island".into());
    }
    if spec.objectives.len() != n {
        return Err("one objective per island required".into());
    }
    if spec.pareto != (distinct_objectives(&spec.objectives).len() > 1) {
        return Err("`pareto` must be set exactly when the islands run several objectives".into());
    }
    if let Some(registry) = &opts.obs {
        // Pre-register the coordinator's metric families so a clean run
        // still exposes the full catalog (failure counters at zero).
        crate::obs::dist_families(registry);
    }
    let targets = make_targets(workers, opts)?;
    // Never spawn more workers than islands: the extras would idle.
    let w_eff = targets.len().min(n);
    let mut conns = Vec::with_capacity(w_eff);
    for (w, target) in targets.into_iter().take(w_eff).enumerate() {
        conns.push(WorkerConn::open(w, target, opts)?);
    }
    for i in 0..n {
        conns[i % w_eff].islands.push(i);
    }

    // Load + session start, logged for replay.
    for conn in &mut conns {
        let load = Request::Load {
            instance: spec.instance.clone(),
            source: spec.source.clone(),
            format: spec.format,
        };
        match conn.call_logged(load, opts, true)? {
            Event::Loaded { .. } => {}
            other => return Err(conn.unexpected("loaded", &other)),
        }
        let start = Request::WStart(WorkerStart {
            session: conn.session,
            instance: spec.instance.clone(),
            k: spec.k,
            seeds: conn.islands.iter().map(|&i| spec.seeds[i]).collect(),
            objectives: conn.islands.iter().map(|&i| spec.objectives[i]).collect(),
            steps: spec.steps,
        });
        match conn.call_logged(start, opts, true)? {
            Event::WReady { islands, .. } if islands == conn.islands.len() => {}
            other => return Err(conn.unexpected("wready", &other)),
        }
    }

    let shards = Shards {
        traces: spec
            .objectives
            .iter()
            .map(|&o| AnytimeTrace::with_tag(o))
            .collect(),
        epoch: 0,
        conns,
        g,
        opts,
        on_news,
    };
    let objectives = spec.objectives.clone();
    let mut epochs = EpochLoop::new(shards, objectives, spec.interval, spec.migration.build());
    while epochs.advance_epoch()?.more {}
    epochs.harvest(g)
}

/// A distributed run's islands, sharded across worker connections: the
/// [`IslandSet`] the engine's epoch loop drives with `w*` calls.
struct Shards<'a> {
    /// Per island, its trace rebuilt from the news.
    traces: Vec<AnytimeTrace>,
    /// Index of the next `wadvance`.
    epoch: u64,
    conns: Vec<WorkerConn>,
    g: &'a Graph,
    opts: &'a DistOpts,
    on_news: &'a mut dyn FnMut(usize, &WNews),
}

impl IslandSet for Shards<'_> {
    type Molecule = MoleculeInfo;
    type Error = String;

    fn advance(&mut self, steps: u64) -> Result<Vec<IslandReport>, String> {
        let mut reports = vec![IslandReport::default(); self.traces.len()];
        for conn in &mut self.conns {
            let req = Request::WAdvance {
                session: conn.session,
                epoch: self.epoch,
                steps,
            };
            let islands = match conn.call_logged(req, self.opts, true)? {
                Event::WState { islands, .. } => islands,
                other => return Err(conn.unexpected("wstate", &other)),
            };
            conn.check_each_hosted_once(&islands)?;
            for st in islands {
                let gi = conn.islands[st.island];
                let trace = &mut self.traces[gi];
                let from = trace.len();
                for wire in &st.news {
                    let elapsed = Duration::from_millis(wire.elapsed_ms);
                    trace.record(elapsed, wire.value, wire.step);
                    (self.on_news)(gi, wire);
                }
                reports[gi] = IslandReport {
                    more: st.more,
                    energy: st.energy,
                    steps: st.steps,
                    news: trace.points()[from..].to_vec(),
                };
            }
            // Each shard's gauge advances as its `wadvance` completes,
            // so a scrape mid-epoch reads the true lag (max − min).
            if let Some(registry) = &self.opts.obs {
                crate::obs::dist_worker_epoch(registry, conn.session as usize, self.epoch);
            }
        }
        self.opts.logger.log(
            "epoch",
            None,
            &[
                ("epoch", ff_obs::LogValue::U64(self.epoch)),
                ("workers", ff_obs::LogValue::U64(self.conns.len() as u64)),
                (
                    "live_islands",
                    ff_obs::LogValue::U64(reports.iter().filter(|r| r.more).count() as u64),
                ),
            ],
        );
        self.epoch += 1;
        Ok(reports)
    }

    /// Read-only, so not logged: the injections it feeds carry the
    /// molecule bytes in the log, which is what makes replay
    /// self-contained.
    fn fetch(&mut self, donor: usize) -> Result<MoleculeInfo, String> {
        let w = self.conns.len();
        let conn = &mut self.conns[donor % w];
        let req = Request::WMolecule {
            session: conn.session,
            island: donor / w,
        };
        match conn.call_logged(req, self.opts, false)? {
            Event::WMolecule { molecule, .. } => Ok(molecule),
            other => Err(conn.unexpected("wmolecule", &other)),
        }
    }

    fn inject(
        &mut self,
        island: usize,
        molecule: &MoleculeInfo,
        crossover: bool,
    ) -> Result<bool, String> {
        let w = self.conns.len();
        let conn = &mut self.conns[island % w];
        let req = Request::WInject {
            session: conn.session,
            island: island / w,
            molecule: molecule.clone(),
            crossover,
        };
        match conn.call_logged(req, self.opts, true)? {
            Event::WInjected { adopted, .. } => Ok(adopted),
            other => Err(conn.unexpected("winjected", &other)),
        }
    }

    /// Not logged either: a worker lost mid-harvest is replayed to the
    /// same epoch and asked again.
    fn harvest(mut self) -> Result<Vec<FusionFissionResult>, String> {
        let mut out = vec![None; self.traces.len()];
        for conn in &mut self.conns {
            let req = Request::WHarvest {
                session: conn.session,
            };
            match conn.call_logged(req, self.opts, false)? {
                Event::WHarvested { islands, .. } => {
                    for r in islands {
                        let gi = conn.global(r.island)?;
                        out[gi] = Some(rebuild_island(self.g, r, &mut self.traces[gi])?);
                    }
                }
                other => return Err(conn.unexpected("wharvested", &other)),
            }
        }
        for conn in self.conns {
            conn.close();
        }
        out.into_iter()
            .enumerate()
            .map(|(i, r)| r.ok_or(format!("worker omitted island {i} from its harvest")))
            .collect()
    }
}

/// Rebuilds one island's [`FusionFissionResult`] from its wire harvest
/// plus the improvement trace accumulated epoch by epoch.
fn rebuild_island(
    g: &Graph,
    r: crate::protocol::WIslandResult,
    trace: &mut AnytimeTrace,
) -> Result<FusionFissionResult, String> {
    if r.molecule.assignment.len() != g.num_vertices() {
        return Err(format!(
            "harvested molecule has {} vertices, instance has {}",
            r.molecule.assignment.len(),
            g.num_vertices()
        ));
    }
    Ok(FusionFissionResult {
        best: Partition::from_assignment(g, r.molecule.assignment, r.molecule.parts),
        best_value: r.value,
        best_energy: r.energy,
        steps: r.steps,
        trace: std::mem::take(trace),
        best_value_per_k: r.per_k.iter().map(|&(k, v)| (k as usize, v)).collect(),
    })
}

/// One worker's connection recipe, kept for respawn/reconnect.
#[derive(Clone)]
enum Target {
    Spawn {
        cmd: Vec<String>,
        env: Vec<(String, String)>,
    },
    Addr(String),
}

fn make_targets(workers: &WorkerSet, opts: &DistOpts) -> Result<Vec<Target>, String> {
    match workers {
        WorkerSet::Spawn { cmd, count } => {
            if cmd.is_empty() {
                return Err("empty worker command".into());
            }
            if *count == 0 {
                return Err("worker count must be at least 1".into());
            }
            Ok(vec![
                Target::Spawn {
                    cmd: cmd.clone(),
                    env: opts.env.clone(),
                };
                *count
            ])
        }
        WorkerSet::Connect { addrs } => {
            if addrs.is_empty() {
                return Err("no worker addresses given".into());
            }
            Ok(addrs.iter().cloned().map(Target::Addr).collect())
        }
    }
}

/// How a single call can fail on the wire — each answer is "kill the
/// worker and replay" (even `Corrupt`, where the worker may in fact be
/// healthy: a replayed worker is cheap, an untrusted one is not).
enum WireFail {
    Dead(String),
    Timeout,
    Corrupt(String),
}

struct WorkerConn {
    /// Session id on the worker (= worker index; sessions are
    /// per-connection so ids need only be unique within one).
    session: u64,
    label: String,
    target: Target,
    child: Option<Child>,
    writer: Box<dyn Write + Send>,
    rx: Receiver<io::Result<String>>,
    /// Global island indices hosted by this worker, ascending; position
    /// = the worker's local island index.
    islands: Vec<usize>,
    /// Replayable op log: `load`, `wstart`, every *completed* `wadvance`
    /// and `winject`, in order.
    history: Vec<Request>,
    respawns: usize,
}

impl WorkerConn {
    fn open(index: usize, target: Target, opts: &DistOpts) -> Result<WorkerConn, String> {
        let label = match &target {
            Target::Spawn { cmd, .. } => format!("worker {index} ({})", cmd[0]),
            Target::Addr(addr) => format!("worker {index} ({addr})"),
        };
        let (child, writer, rx) = connect(&target, opts)?;
        let mut conn = WorkerConn {
            session: index as u64,
            label,
            target,
            child,
            writer,
            rx,
            islands: Vec::new(),
            history: Vec::new(),
            respawns: 0,
        };
        conn.handshake(opts)
            .map_err(|f| format!("{}: {}", conn.label, f.describe()))?;
        Ok(conn)
    }

    /// Maps a worker-local island index to the global one.
    fn global(&self, local: usize) -> Result<usize, String> {
        self.islands
            .get(local)
            .copied()
            .ok_or(format!("{}: reported unknown island {local}", self.label))
    }

    /// Checks that a `wstate` names each island this worker hosts exactly
    /// once, before any of its news is recorded.
    fn check_each_hosted_once(&self, islands: &[WIslandState]) -> Result<(), String> {
        let mut named = vec![false; self.islands.len()];
        for st in islands {
            let gi = self.global(st.island)?;
            if std::mem::replace(&mut named[st.island], true) {
                return Err(format!("{}: wstate names island {gi} twice", self.label));
            }
        }
        let omitted = named
            .iter()
            .position(|&seen| !seen)
            .map(|l| self.islands[l]);
        omitted.map_or(Ok(()), |gi| {
            Err(format!("{}: wstate omits island {gi}", self.label))
        })
    }

    fn unexpected(&self, wanted: &str, got: &Event) -> String {
        format!("{}: expected `{wanted}` reply, got {:?}", self.label, got)
    }

    /// One request/reply round, no recovery.
    fn call(&mut self, req: &Request, timeout: Duration) -> Result<Event, WireFail> {
        let line = req.to_value().to_string();
        if writeln!(self.writer, "{line}")
            .and_then(|_| self.writer.flush())
            .is_err()
        {
            return Err(WireFail::Dead("write failed (pipe closed)".into()));
        }
        self.recv(timeout)
    }

    /// The worker's next event.
    fn recv(&mut self, timeout: Duration) -> Result<Event, WireFail> {
        match self.rx.recv_timeout(timeout) {
            Ok(Ok(line)) => Event::parse(line.trim()).map_err(WireFail::Corrupt),
            Ok(Err(e)) => Err(WireFail::Dead(e.to_string())),
            Err(RecvTimeoutError::Timeout) => Err(WireFail::Timeout),
            Err(RecvTimeoutError::Disconnected) => {
                Err(WireFail::Dead("reader thread exited".into()))
            }
        }
    }

    /// A reliable call: on any wire failure the worker is respawned,
    /// its op log replayed, and `req` re-sent — repeated within the
    /// respawn budget. An `error` *event* is not a wire failure; it
    /// means a healthy worker rejected the op, which is fatal. When
    /// `log` is set, a completed `req` is appended to the replay log.
    fn call_logged(&mut self, req: Request, opts: &DistOpts, log: bool) -> Result<Event, String> {
        loop {
            match self.call(&req, opts.reply_timeout) {
                Ok(Event::Error { message, .. }) => {
                    return Err(format!("{}: {message}", self.label))
                }
                Ok(event) => {
                    if log {
                        self.history.push(req);
                    }
                    return Ok(event);
                }
                Err(fail) => {
                    eprintln!(
                        "ffpart: {}: {}; respawning and replaying {} ops",
                        self.label,
                        fail.describe(),
                        self.history.len()
                    );
                    if let Some(registry) = &opts.obs {
                        crate::obs::dist_wire_failure(registry, fail.kind(), self.history.len());
                    }
                    opts.logger.log(
                        "fault",
                        None,
                        &[
                            ("worker", ff_obs::LogValue::U64(self.session)),
                            ("kind", ff_obs::LogValue::Str(fail.kind())),
                            ("detail", ff_obs::LogValue::Str(&fail.describe())),
                            (
                                "replay_ops",
                                ff_obs::LogValue::U64(self.history.len() as u64),
                            ),
                        ],
                    );
                    self.reopen_and_replay(opts)?;
                }
            }
        }
    }

    /// Kills the worker (if spawned), opens a fresh one, and replays the
    /// op log. Replay replies are discarded — the ops are deterministic
    /// recompute, their effects already observed. Retries internally on
    /// further wire failures until the respawn budget runs out.
    fn reopen_and_replay(&mut self, opts: &DistOpts) -> Result<(), String> {
        'attempt: loop {
            self.respawns += 1;
            if let Some(registry) = &opts.obs {
                crate::obs::dist_respawn(registry);
            }
            if self.respawns > opts.max_respawns {
                return Err(format!(
                    "{}: gave up after {} respawns",
                    self.label, opts.max_respawns
                ));
            }
            if let Some(child) = &mut self.child {
                let _ = child.kill();
                let _ = child.wait();
            }
            let (child, writer, rx) = connect(&self.target, opts)?;
            self.child = child;
            self.writer = writer;
            self.rx = rx;
            if self.handshake(opts).is_err() {
                continue 'attempt;
            }
            for i in 0..self.history.len() {
                let req = self.history[i].clone();
                match self.call(&req, opts.reply_timeout) {
                    Ok(Event::Error { message, .. }) => {
                        return Err(format!("{}: replay diverged: {message}", self.label))
                    }
                    Ok(_) => {} // deterministic recompute; reply discarded
                    Err(_) => continue 'attempt,
                }
            }
            return Ok(());
        }
    }

    fn handshake(&mut self, opts: &DistOpts) -> Result<(), WireFail> {
        match self.recv(opts.reply_timeout)? {
            Event::Hello { .. } => Ok(()),
            other => Err(WireFail::Corrupt(format!("expected hello, got {other:?}"))),
        }
    }

    /// Orderly teardown: closing stdin (or shutting the socket down) is
    /// the protocol's goodbye; a spawned worker exits on stdin EOF and is
    /// reaped.
    fn close(self) {
        drop(self.writer);
        drop(self.rx);
        if let Some(mut child) = self.child {
            let _ = child.wait();
        }
    }
}

impl WireFail {
    fn describe(&self) -> String {
        match self {
            WireFail::Dead(why) => format!("connection lost ({why})"),
            WireFail::Timeout => "reply timed out".into(),
            WireFail::Corrupt(why) => format!("corrupt reply ({why})"),
        }
    }

    /// The `kind` label on `ff_dist_wire_failures_total`.
    fn kind(&self) -> &'static str {
        match self {
            WireFail::Dead(_) => "dead",
            WireFail::Timeout => "timeout",
            WireFail::Corrupt(_) => "corrupt",
        }
    }
}

/// Opens the transport for a target: a child process with piped stdio,
/// or a TCP connection. Returns the writer plus a reader-thread channel
/// (the thread lets every read carry a timeout).
type Transport = (
    Option<Child>,
    Box<dyn Write + Send>,
    Receiver<io::Result<String>>,
);

fn connect(target: &Target, opts: &DistOpts) -> Result<Transport, String> {
    match target {
        Target::Spawn { cmd, env } => {
            let mut command = Command::new(&cmd[0]);
            command
                .args(&cmd[1..])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped());
            for (key, value) in env {
                command.env(key, value);
            }
            let mut child = command
                .spawn()
                .map_err(|e| format!("failed to spawn `{}`: {e}", cmd[0]))?;
            if let Some(pids) = &opts.pids {
                lock(pids).push(child.id());
            }
            let stdin = child
                .stdin
                .take()
                .ok_or_else(|| format!("`{}`: no piped stdin", cmd[0]))?;
            let stdout = child
                .stdout
                .take()
                .ok_or_else(|| format!("`{}`: no piped stdout", cmd[0]))?;
            Ok((Some(child), Box::new(stdin), spawn_reader(stdout)))
        }
        Target::Addr(addr) => {
            let stream = TcpStream::connect(addr)
                .map_err(|e| format!("failed to connect to {addr}: {e}"))?;
            let _ = stream.set_nodelay(true);
            let read_half = stream
                .try_clone()
                .map_err(|e| format!("failed to clone socket to {addr}: {e}"))?;
            Ok((
                None,
                Box::new(SocketWriter(stream)),
                spawn_reader(read_half),
            ))
        }
    }
}

/// The write half of a TCP worker connection. Dropping it, on close or
/// on respawn, shuts the socket down both ways: the reader thread holds
/// a clone of the stream, so without the shutdown the socket would stay
/// open, and that thread and the worker's connection thread would block
/// forever.
struct SocketWriter(TcpStream);

impl Write for SocketWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Drop for SocketWriter {
    fn drop(&mut self) {
        let _ = self.0.shutdown(Shutdown::Both);
    }
}

/// One line per message; EOF and errors are delivered in-band so the
/// consumer's `recv_timeout` sees everything.
fn spawn_reader(read: impl io::Read + Send + 'static) -> Receiver<io::Result<String>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(read);
        loop {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    let _ = tx.send(Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "worker closed the connection",
                    )));
                    return;
                }
                Ok(_) if line.ends_with('\n') => {
                    if tx.send(Ok(line)).is_err() {
                        return;
                    }
                }
                Ok(_) => {
                    // A final fragment with no newline: the peer died
                    // mid-message. Surface it as data — it will fail to
                    // parse — and then report the EOF.
                    let _ = tx.send(Ok(line));
                    let _ = tx.send(Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "worker closed the connection mid-line",
                    )));
                    return;
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        }
    });
    rx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn islands_are_assigned_round_robin_and_mapped_both_ways() {
        // Pure index arithmetic — mirrors the assignment loop in
        // solve_distributed without any I/O.
        let n = 5;
        let w_eff = 2;
        let mut islands: Vec<Vec<usize>> = vec![Vec::new(); w_eff];
        for i in 0..n {
            islands[i % w_eff].push(i);
        }
        assert_eq!(islands[0], vec![0, 2, 4]);
        assert_eq!(islands[1], vec![1, 3]);
        // local -> global -> local round-trips.
        for (w, hosted) in islands.iter().enumerate() {
            for (local, &global) in hosted.iter().enumerate() {
                assert_eq!(global % w_eff, w);
                assert_eq!(global / w_eff, local, "the routing arithmetic");
                assert_eq!(hosted.iter().position(|&i| i == global), Some(local));
            }
        }
    }

    /// `DistSpec::for_job` and `JobRequest::solver` are two readings of
    /// one job: the same island seeds (the root seed for a lone island),
    /// the same per-island objectives, and `chunk` as the interval.
    #[test]
    fn for_job_distributes_the_islands_the_job_solver_starts() {
        use ff_core::{FusionFission, FusionFissionConfig};
        let g = ff_graph::generators::planted_partition(3, 12, 0.5, 0.05, 4);
        let path = || GraphSource::Path("pp".into());
        for islands in [1, 2, 5] {
            let job = JobRequest {
                steps: Some(600),
                seed: 11,
                islands,
                chunk: 200,
                objectives: (islands > 1).then(|| vec![Objective::Cut, Objective::MCut]),
                ..JobRequest::new("pp", 3)
            };
            let spec = DistSpec::for_job(&job, path(), GraphFormat::Metis).unwrap();
            assert_eq!((spec.k, spec.steps, spec.interval), (3, 600, 200));
            assert_eq!(spec.pareto, islands > 1);
            let seeds = if islands == 1 {
                vec![11]
            } else {
                ff_engine::derive_seeds(11, islands)
            };
            assert_eq!(spec.seeds, seeds);
            // Each island of the job's solver is the plain run its spec
            // seed and objective start.
            let mut shard = job.solver(&g).start().unwrap().into_islands();
            let Ok(_) = shard.advance(300);
            assert_eq!(shard.runs().len(), islands);
            for (i, run) in shard.runs().iter().enumerate() {
                assert_eq!(run.config().objective, spec.objectives[i], "island {i}");
                let cfg = FusionFissionConfig {
                    objective: spec.objectives[i],
                    stop: ff_metaheur::StopCondition::steps(spec.steps),
                    ..FusionFissionConfig::standard(spec.k)
                };
                let mut plain = FusionFission::new(&g, cfg, spec.seeds[i]).start();
                plain.advance(300);
                let (got, want) = (run.best_molecule(), plain.best_molecule());
                assert_eq!(got.assignment(), want.assignment(), "island {i}");
                assert_eq!(run.best_energy(), plain.best_energy(), "island {i}");
            }
        }
        // Lockstep epochs need a pure step budget on the flat search.
        let job = JobRequest {
            steps: Some(600),
            ..JobRequest::new("pp", 3)
        };
        let reject = |job: JobRequest| DistSpec::for_job(&job, path(), GraphFormat::Metis);
        let deadline = JobRequest {
            deadline_ms: Some(50),
            ..job.clone()
        };
        assert!(reject(deadline).unwrap_err().contains("deadline"));
        let no_steps = JobRequest {
            steps: None,
            ..job.clone()
        };
        assert!(reject(no_steps).unwrap_err().contains("step budget"));
        let multilevel = JobRequest {
            multilevel: Some(0),
            ..job.clone()
        };
        assert!(reject(multilevel).unwrap_err().contains("multilevel"));
        assert!(reject(job).is_ok());
    }

    #[test]
    fn worker_set_validation_rejects_empty_configurations() {
        let opts = DistOpts::default();
        assert!(make_targets(
            &WorkerSet::Spawn {
                cmd: vec![],
                count: 2
            },
            &opts
        )
        .is_err());
        assert!(make_targets(
            &WorkerSet::Spawn {
                cmd: vec!["ffworker".into()],
                count: 0
            },
            &opts
        )
        .is_err());
        assert!(make_targets(&WorkerSet::Connect { addrs: vec![] }, &opts).is_err());
        let ok = make_targets(
            &WorkerSet::Spawn {
                cmd: vec!["ffworker".into()],
                count: 3,
            },
            &opts,
        )
        .unwrap();
        assert_eq!(ok.len(), 3);
    }

    /// A `wstate` that omits a hosted island, names one twice or names
    /// one the worker does not host is an error naming the island and the
    /// worker, raised before any of the reply's news is recorded.
    #[test]
    fn a_wstate_must_name_each_hosted_island_once() {
        let state = |island| WIslandState {
            island,
            more: true,
            energy: 1.0,
            steps: 8,
            news: vec![WNews {
                step: 3,
                value: 2.0,
                elapsed_ms: 1,
            }],
        };
        let g = ff_graph::generators::grid2d(2, 2);
        let opts = DistOpts::default();
        for (named, error) in [
            (vec![0], "worker 0 (test): wstate omits island 2"),
            (
                vec![0, 0, 1],
                "worker 0 (test): wstate names island 0 twice",
            ),
            (vec![0, 1, 2], "worker 0 (test): reported unknown island 2"),
        ] {
            // The reply waits in the reader channel; requests go nowhere.
            let (tx, rx) = mpsc::channel();
            let islands = named.iter().map(|&i| state(i)).collect();
            let reply = Event::WState {
                session: 0,
                epoch: 0,
                islands,
            };
            tx.send(Ok(reply.to_value().to_string())).unwrap();
            let conn = WorkerConn {
                session: 0,
                label: "worker 0 (test)".into(),
                target: Target::Addr("test".into()),
                child: None,
                writer: Box::new(io::sink()),
                rx,
                islands: vec![0, 2],
                history: Vec::new(),
                respawns: 0,
            };
            let mut news = 0;
            let mut on_news = |_: usize, _: &WNews| news += 1;
            let mut shards = Shards {
                traces: vec![AnytimeTrace::with_tag(Objective::MCut); 3],
                epoch: 0,
                conns: vec![conn],
                g: &g,
                opts: &opts,
                on_news: &mut on_news,
            };
            assert_eq!(shards.advance(8).unwrap_err(), error, "{named:?}");
            assert!(shards.traces.iter().all(|t| t.is_empty()), "{named:?}");
            assert_eq!(news, 0, "{named:?}");
        }
    }

    /// A spec whose `pareto` flag disagrees with its objectives is
    /// rejected before any worker is contacted: the command below does
    /// not exist, so reaching the spawn would fail differently.
    #[test]
    fn pareto_flag_must_match_the_objectives() {
        let g = ff_graph::generators::grid2d(3, 3);
        let job = JobRequest {
            steps: Some(100),
            islands: 2,
            objectives: Some(vec![Objective::Cut, Objective::MCut]),
            ..JobRequest::new("grid", 2)
        };
        let source = GraphSource::Path("g".into());
        let spec = DistSpec::for_job(&job, source, GraphFormat::Metis).unwrap();
        let workers = WorkerSet::Spawn {
            cmd: vec!["/nonexistent/ffpart-worker".into()],
            count: 1,
        };
        let solve = |spec: &DistSpec| {
            let opts = DistOpts::default();
            solve_distributed(&g, spec, &workers, &opts, &mut |_, _| {}).unwrap_err()
        };
        assert!(
            solve(&spec).contains("failed to spawn"),
            "a valid spec spawns"
        );
        let single = DistSpec {
            objectives: vec![Objective::MCut; 2],
            ..spec.clone()
        };
        for bad in [
            DistSpec {
                pareto: false,
                ..spec
            },
            DistSpec {
                pareto: true,
                ..single
            },
        ] {
            assert!(solve(&bad).contains("`pareto`"), "{bad:?}");
        }
    }
}
