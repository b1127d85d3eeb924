//! The newline-delimited-JSON wire protocol: typed requests and events.
//!
//! Every line is one JSON object. Client→server objects carry an `"op"`
//! field ([`Request`]); server→client objects carry an `"event"` field
//! ([`Event`]). Both ends of the connection use the same types, so the
//! wire format is defined exactly once: [`Request::to_value`] /
//! [`Request::parse`] and [`Event::to_value`] / [`Event::parse`] are
//! inverse pairs (round-trip tested below).
//!
//! # The schema
//!
//! Each message type is defined inside `wire_struct!` / `wire_enum!`,
//! whose field list, in wire order, also generates its encoder, strict
//! decoder and known-field set. One rule decodes every field: an unknown
//! field is rejected by name first; an absent optional field takes its
//! default; a present one that does not decode (a wrong type, a negative
//! or fractional number, `null`, an unknown name) is rejected by name,
//! never defaulted. Rules spanning fields are `check` functions.
//!
//! See the README's "Serving" section for the protocol reference with
//! example lines, the determinism contract, and cache semantics.

use crate::cache::{GraphFormat, GraphSource};
use crate::gate::{WAIT_BUCKETS, WAIT_BUCKET_MS};
use crate::obs::{DURATION_BUCKETS, DURATION_BUCKET_MS};
use crate::schema::{parse_line, wire_enum, wire_struct, Wire};
use ff_engine::MigrationPolicyId;
use ff_partition::Objective;
use serde_json::Value;

/// Wire protocol version, reported in the `hello` event.
pub const PROTOCOL_VERSION: u64 = 1;

/// Default cooperative-scheduling quantum (steps per worker-pool permit;
/// for ensemble jobs, also the migration interval).
pub const DEFAULT_CHUNK: u64 = 512;

/// `Err(message)` unless `ok`.
fn ensure(ok: bool, message: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| message.to_string())
}

wire_struct! {
    /// A partition job: everything the server needs to reproduce the result.
    ///
    /// The determinism contract: a step-budgeted job (`steps` set, no
    /// `deadline_ms`) is a pure function of `(instance content, k, objective
    /// list, seed, islands, chunk, migration policy)` — resubmitting it, on
    /// this server run or the next, yields a byte-identical final partition
    /// (and, for multi-objective jobs, an identical Pareto front).
    #[derive(Clone, Debug, PartialEq)]
    pub struct JobRequest in "op" = "submit" {
        /// Key of a previously loaded instance.
        pub instance: String,
        /// Target number of parts.
        pub k: usize,
        /// Objective to minimize (ignored when `objectives` is set).
        pub objective: Objective = Objective::MCut,
        /// Root RNG seed.
        pub seed: u64 = 1,
        /// Per-island objective overrides (wire field `objectives`, an array
        /// of objective names): island `i` minimizes `objectives[i % len]`.
        /// More than one distinct objective makes this a Pareto job — the
        /// `done` event then carries the non-dominated front.
        pub objectives: Option<Vec<Objective>>,
        /// Island-migration policy (wire field `migration`:
        /// `replace` | `combine` | `adaptive`).
        pub migration: MigrationPolicyId,
        /// Step budget (per island). At least one of `steps` / `deadline_ms`
        /// is required.
        pub steps: Option<u64>,
        /// Wall-clock budget in milliseconds, measured from job start.
        pub deadline_ms: Option<u64>,
        /// Island-ensemble width (1 = a single search).
        pub islands: usize = 1,
        /// Cooperative quantum: steps advanced per worker-pool permit; for
        /// `islands > 1` this is also the migration interval.
        pub chunk: u64 = DEFAULT_CHUNK,
        /// Whether the `done` event should carry the full assignment vector.
        pub assignment: bool = true,
        /// Multilevel acceleration (wire field `multilevel`): coarsen the
        /// instance to at most this many vertices, run the ensemble there,
        /// then uncoarsen with per-level refinement. `Some(0)` uses the
        /// engine's default target; `None` (default) runs flat. Part of the
        /// determinism contract like every other field.
        pub multilevel: Option<u64>,
    }
    check check_job
}

/// A job needs a budget, at least one island, a non-zero chunk, and
/// enough islands that every distinct objective gets one: cycling
/// `["cut","cut","mcut"]` over two islands would never run mcut.
fn check_job(job: &JobRequest) -> Result<(), String> {
    let empty = job.objectives.as_ref().is_some_and(Vec::is_empty);
    ensure(!empty, "`objectives` must not be empty")?;
    let budget = job.steps.is_some() || job.deadline_ms.is_some();
    ensure(budget, "need `steps` and/or `deadline_ms`")?;
    ensure(job.islands > 0, "`islands` must be at least 1")?;
    ensure(job.chunk > 0, "`chunk` must be at least 1")?;
    let needed = ff_engine::islands_to_cover(job.objectives.as_deref().unwrap_or_default());
    if job.islands < needed {
        return Err(format!(
            "`objectives` needs at least {needed} islands so every distinct \
             objective gets an island (got {})",
            job.islands
        ));
    }
    Ok(())
}

impl JobRequest {
    /// A job on `instance` targeting `k` parts, with serving defaults:
    /// Mcut, seed 1, single island, chunk [`DEFAULT_CHUNK`], assignment
    /// included, and no budget (set `steps` and/or `deadline_ms` before
    /// submitting).
    pub fn new(instance: impl Into<String>, k: usize) -> Self {
        JobRequest {
            instance: instance.into(),
            k,
            objective: Objective::MCut,
            seed: 1,
            objectives: None,
            migration: MigrationPolicyId::default(),
            steps: None,
            deadline_ms: None,
            islands: 1,
            chunk: DEFAULT_CHUNK,
            assignment: true,
            multilevel: None,
        }
    }

    /// The objective each island minimizes, in island order: island `i`
    /// takes `objectives[i % len]`, or `objective` when no list is set.
    pub fn island_objectives(&self) -> Vec<Objective> {
        match &self.objectives {
            None => vec![self.objective; self.islands],
            Some(list) => list.iter().copied().cycle().take(self.islands).collect(),
        }
    }

    /// The distinct objectives this job optimizes, in island order of
    /// first appearance (a single-objective job yields one entry).
    pub fn distinct_objectives(&self) -> Vec<Objective> {
        ff_engine::distinct_objectives(&self.island_objectives())
    }

    /// Whether the job runs more than one distinct objective (and its
    /// `done` event therefore carries a Pareto front).
    pub fn is_pareto(&self) -> bool {
        self.distinct_objectives().len() > 1
    }

    /// Extracts and validates a job from a parsed JSON object — the
    /// shared schema behind both the NDJSON `submit` op and the HTTP
    /// `POST /jobs` body, so the two transports can never drift apart.
    ///
    /// Unknown fields are rejected with an error naming the field — a
    /// typo'd `objctives` must not silently run a different job than the
    /// client believes it submitted.
    pub fn from_value(v: &Value) -> Result<JobRequest, String> {
        Wire::decode(v).map_err(|e| format!("submit: {e}"))
    }

    /// Serializes to the wire `submit` object — the exact bytes
    /// `Request::Submit` puts on an NDJSON connection, an HTTP client
    /// POSTs to `/jobs`, and the job journal records, so a journaled
    /// spec replays through the same strict parser it was admitted by.
    pub fn to_value(&self) -> Value {
        self.encode()
    }
}

wire_struct! {
    /// A molecule on the wire: the full assignment plus the explicit
    /// part-slot count. `parts` is [`ff_partition::Partition::num_parts`] —
    /// the *slot* count, not the non-empty count — because a best molecule
    /// can legitimately hold empty slots and both sides must rebuild the
    /// exact same partition via `Partition::from_assignment`. Combined with
    /// the inject-side canonicalization in `ff_core`, a molecule that
    /// crosses a process boundary lands bit-identically to one cloned
    /// in-process.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct MoleculeInfo {
        /// Part id of every vertex, in vertex order.
        pub assignment: Vec<u32>,
        /// Part-slot count; every assignment entry is `< parts`.
        pub parts: usize,
    }
    check check_molecule
}

/// Truncated or out-of-range payloads are errors, never a silently
/// different molecule.
fn check_molecule(m: &MoleculeInfo) -> Result<(), String> {
    ensure(m.parts > 0, "`parts` must be at least 1")?;
    ensure(!m.assignment.is_empty(), "`assignment` must not be empty")?;
    let Some(i) = m.assignment.iter().position(|&p| p as usize >= m.parts) else {
        return Ok(());
    };
    let (p, parts) = (m.assignment[i], m.parts);
    Err(format!(
        "part id {p} at vertex {i} out of range (parts {parts})"
    ))
}

wire_struct! {
    /// The `wstart` op: everything a worker needs to host a shard of a
    /// distributed ensemble's islands. Island `i` of the shard runs seed
    /// `seeds[i]` under `objectives[i]` with a per-island budget of `steps`.
    /// The worker performs **no internal migration** — the coordinator owns
    /// every exchange decision, which is what keeps the distributed run
    /// bit-identical to the in-process one.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WorkerStart {
        /// Coordinator-chosen session id, echoed on every session event.
        pub session: u64,
        /// Key of a previously loaded instance.
        pub instance: String,
        /// Target part count.
        pub k: usize,
        /// Root RNG seed of each hosted island (full-width u64s — these ride
        /// the string escape hatch above 2^53).
        pub seeds: Vec<u64>,
        /// Objective of each hosted island (same length as `seeds`).
        pub objectives: Vec<Objective>,
        /// Per-island step budget.
        pub steps: u64,
    }
    check check_worker_start
}

fn check_worker_start(w: &WorkerStart) -> Result<(), String> {
    ensure(w.k > 0, "`k` must be at least 1")?;
    ensure(!w.seeds.is_empty(), "`seeds` must not be empty")?;
    let per_seed = w.objectives.len() == w.seeds.len();
    ensure(per_seed, "`objectives` must list one objective per seed")?;
    ensure(w.steps > 0, "`steps` must be at least 1")
}

wire_struct! {
    /// Per-island progress reported by a `wstate` event after an epoch.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WIslandState {
        /// Shard-local island index.
        pub island: usize,
        /// Whether the island still has budget left.
        pub more: bool,
        /// Best scaled energy so far — the [`MigrationPolicy`] decision
        /// input, transferred exactly (f64s print shortest-round-trip).
        ///
        /// [`MigrationPolicy`]: ff_engine::MigrationPolicy
        pub energy: f64,
        /// Steps executed so far.
        pub steps: u64,
        /// Best-at-k improvements found during this epoch, in step order.
        pub news: Vec<WNews>,
    }
}

wire_struct! {
    /// One anytime improvement inside a [`WIslandState`].
    #[derive(Clone, Debug, PartialEq)]
    pub struct WNews {
        /// Step at which the improvement was found.
        pub step: u64,
        /// New best objective value at the target k.
        pub value: f64,
        /// Worker wall-clock since session start, in milliseconds.
        pub elapsed_ms: u64,
    }
}

wire_struct! {
    /// One island's final result inside a `wharvested` event.
    #[derive(Clone, Debug, PartialEq)]
    pub struct WIslandResult {
        /// Shard-local island index.
        pub island: usize,
        /// Best objective value at the target k.
        pub value: f64,
        /// Best scaled energy across all part counts.
        pub energy: f64,
        /// Steps executed.
        pub steps: u64,
        /// The final (compacted) molecule.
        @flatten pub molecule: MoleculeInfo,
        /// Best value seen per visited part count, ascending by k.
        pub per_k: Vec<(u64, f64)>,
    }
}

wire_enum! {
    /// A client→server request.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Request by "op", unknown "op" {
        /// Load a graph into the instance cache under a key.
        "load" => Load {
            /// Cache key.
            instance: String,
            /// Where the graph bytes come from.
            @flatten source: GraphSource,
            /// File format.
            format: GraphFormat = GraphFormat::Metis,
        },
        /// Submit a partition job.
        "submit" => Submit(@flatten job: JobRequest),
        /// Cancel a running job by id.
        "cancel" => Cancel {
            /// Job id from the `accepted` event.
            job: u64,
        },
        /// Ask for server statistics.
        "stats" => Stats,
        /// Stop accepting connections and exit the serve loop.
        "shutdown" => Shutdown,
        /// Start a worker session hosting a shard of a distributed
        /// ensemble's islands (answered by `wready`).
        "wstart" => WStart(@flatten start: WorkerStart),
        /// Advance every island of a session by up to `steps` steps
        /// (answered by `wstate`). Epochs are numbered by the coordinator;
        /// the worker rejects out-of-order epochs, which makes crash-replay
        /// self-checking.
        "wadvance" => WAdvance {
            /// Session id from `wstart`.
            session: u64,
            /// Zero-based epoch index; must be exactly one past the last.
            epoch: u64,
            /// Steps each island advances this epoch.
            steps: u64,
        } check check_advance,
        /// Fetch an island's current best molecule (answered by
        /// `wmolecule`).
        "wmolecule" => WMolecule {
            /// Session id from `wstart`.
            session: u64,
            /// Shard-local island index.
            island: usize,
        },
        /// Offer a molecule to an island via the engine's `inject` /
        /// `inject_crossover` hooks (answered by `winjected`).
        "winject" => WInject {
            /// Session id from `wstart`.
            session: u64,
            /// Shard-local island index.
            island: usize,
            /// The offered molecule.
            @flatten molecule: MoleculeInfo,
            /// `true` → KaFFPaE-style combine crossover before the offer.
            crossover: bool,
        },
        /// Harvest every island's final result and end the session
        /// (answered by `wharvested`).
        "wharvest" => WHarvest {
            /// Session id from `wstart`.
            session: u64,
        },
    }
}

impl Request {
    /// Parses one request line. Errors are human-readable and become
    /// `error` events.
    pub fn parse(line: &str) -> Result<Request, String> {
        parse_line(line)
    }
}

fn check_advance(request: &Request) -> Result<(), String> {
    let zero = matches!(request, Request::WAdvance { steps: 0, .. });
    ensure(!zero, "`steps` must be at least 1")
}

/// How a job ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran its full step budget.
    Completed,
    /// Stopped by a `cancel` request (or client disconnect).
    Cancelled,
    /// Stopped by its wall-clock deadline.
    Deadline,
}

wire_struct! {
    /// One point of a multi-objective job's non-dominated front, carried in
    /// the `done` event's optional `pareto` array.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ParetoPointInfo {
        /// Island that produced the molecule.
        pub island: usize,
        /// The objective that island itself was minimizing.
        pub objective: Objective,
        /// The molecule scored under every objective of the job, as
        /// `(objective, value)` pairs in the job's distinct-objective order.
        pub values: Vec<(Objective, f64)>,
        /// Non-empty parts of the molecule.
        pub parts: usize = 0,
        /// The part id of every vertex, if the job asked for assignments.
        pub assignment: Option<Vec<u32>>,
    }
}

wire_struct! {
    /// Final result of a job, carried by the `done` event.
    #[derive(Clone, Debug, PartialEq)]
    pub struct DoneInfo {
        /// Job id.
        pub job: u64,
        /// How the job ended. Cancelled/deadline jobs still carry their
        /// best-so-far solution.
        pub status: JobStatus,
        /// Best objective value found (for a Pareto job: the representative
        /// point's value under its own objective).
        pub value: f64,
        /// Non-empty parts in the returned partition.
        pub parts: usize,
        /// Total steps executed (summed over islands).
        pub steps: u64,
        /// Wall-clock from job start to completion, in milliseconds.
        pub elapsed_ms: u64,
        /// Migration offers adopted (ensemble jobs; 0 for a single island).
        pub migrations: u64 = 0,
        /// The part id of every vertex, if the job asked for it.
        pub assignment: Option<Vec<u32>>,
        /// The deterministic non-dominated front, for multi-objective jobs.
        pub pareto: Option<Vec<ParetoPointInfo>>,
    }
}

wire_struct! {
    /// A server statistics snapshot, carried by the `stats` event. Every
    /// knob relevant to capacity planning travels with its live counter, so
    /// a dashboard needs exactly one request.
    #[derive(Clone, Debug, PartialEq, Eq, Default)]
    pub struct StatsInfo {
        /// Instances currently cached.
        pub instances: usize,
        /// Cache hits served.
        pub cache_hits: u64,
        /// Graph loads performed.
        pub cache_loads: u64,
        /// Cache entries evicted to stay within the byte budget.
        pub cache_evictions: u64 = 0,
        /// CSR bytes currently resident in the cache.
        pub cache_bytes: u64 = 0,
        /// Cache byte budget (`0` = unlimited).
        pub cache_budget_bytes: u64 = 0,
        /// Jobs accepted since start.
        pub jobs_submitted: u64,
        /// Jobs currently admitted and not yet done (queued + running).
        pub jobs_running: u64,
        /// Jobs finished (any status).
        pub jobs_done: u64,
        /// Jobs that finished cancelled (a subset of `jobs_done`).
        pub jobs_cancelled: u64 = 0,
        /// Jobs refused by admission control.
        pub jobs_rejected: u64 = 0,
        /// Admission bound on in-flight jobs (`0` = unlimited).
        pub max_jobs: u64 = 0,
        /// Worker-pool width (compute slots).
        pub workers: usize = 0,
        /// Job chunks and worker-session epochs currently waiting for a
        /// compute slot.
        pub gate_queued: usize = 0,
        /// Permit-wait histogram: completed slot acquisitions (job chunks
        /// and worker-session epochs) bucketed by how long they blocked
        /// (`≤ 1 ms`, `≤ 10 ms`, `≤ 100 ms`, `≤ 1 s`, `> 1 s`) — the
        /// buckets of `/metrics`' `ff_permit_wait_ms`, de-cumulated.
        pub permit_wait_hist: [u64; WAIT_BUCKETS],
        /// Upper bounds (ms, inclusive) of the first `WAIT_BUCKETS - 1`
        /// permit-wait buckets, so a dashboard can label the histogram
        /// without hard-coding the server's bucket layout.
        pub permit_wait_bucket_ms: [u64; WAIT_BUCKETS - 1] = WAIT_BUCKET_MS,
        /// Job-duration histogram: finished jobs bucketed by wall-clock
        /// start→done milliseconds (bounds in `job_duration_bucket_ms`,
        /// inclusive; last bucket unbounded).
        pub job_duration_hist: [u64; DURATION_BUCKETS] = [0; DURATION_BUCKETS],
        /// Upper bounds (ms, inclusive) of the first `DURATION_BUCKETS - 1`
        /// job-duration buckets.
        pub job_duration_bucket_ms: [u64; DURATION_BUCKETS - 1] = DURATION_BUCKET_MS,
    }
}

wire_struct! {
    /// One streamed improvement: the job's best-so-far value dropped.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Improvement {
        /// Job id.
        pub job: u64,
        /// New best objective value at the target k.
        pub value: f64,
        /// Step (within the finding island) at which it was found.
        pub step: u64,
        /// Wall-clock since job start, in milliseconds.
        pub elapsed_ms: u64,
        /// Index of the island that found it (0 for single-island jobs).
        pub island: usize = 0,
        /// Which criterion `value` measures — set on multi-objective jobs,
        /// where islands stream improvements under different objectives.
        pub objective: Option<Objective>,
    }
}

wire_enum! {
    /// A server→client event.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Event by "event", unknown "event" {
        /// Greeting sent on connect.
        "hello" => Hello {
            /// Protocol version ([`PROTOCOL_VERSION`]).
            proto: u64,
            /// Worker-pool width.
            workers: usize,
        },
        /// A `load` succeeded.
        "loaded" => Loaded {
            /// Cache key.
            instance: String,
            /// Vertices in the graph.
            vertices: usize,
            /// Edges in the graph.
            edges: usize,
            /// Served from cache without re-reading the source.
            cached: bool = false,
            /// Replaced a previous entry under the same key.
            reloaded: bool = false,
        },
        /// A `submit` was admitted; subsequent events reference the job id.
        "accepted" => Accepted {
            /// Assigned job id (unique per server run).
            job: u64,
            /// Instance the job runs on.
            instance: String = String::new(),
            /// Target part count.
            k: usize,
        },
        /// A `submit` was refused by admission control (the server or this
        /// connection is at its in-flight job bound). Not an error: the
        /// request was well-formed — retry after `retry_after_ms`.
        "rejected" => Rejected {
            /// Instance the refused job targeted.
            instance: String = String::new(),
            /// Which bound tripped, human-readable.
            reason: String = String::new(),
            /// Suggested client backoff before resubmitting, in ms (a load
            /// heuristic, not a promise of admission).
            retry_after_ms: u64,
            /// Jobs in flight (queued + running) at the moment of refusal.
            in_flight: u64 = 0,
        },
        /// Streamed anytime improvement.
        "improvement" => Improvement(@flatten improvement: Improvement),
        /// Job finished (in any [`JobStatus`]).
        "done" => Done(@flatten done: DoneInfo),
        /// Acknowledges a `cancel` request.
        "cancelling" => Cancelling {
            /// The job id the cancel targeted.
            job: u64,
            /// Whether that job was actually running here.
            known: bool = false,
        },
        /// Server statistics snapshot.
        "stats" => Stats(@flatten stats: StatsInfo),
        /// A request failed; `job` is set when the failure is job-scoped.
        "error" => Error {
            /// Human-readable description.
            message: String = String::new(),
            /// The affected job, if any.
            job: Option<u64>,
        },
        /// Acknowledges `shutdown`.
        "bye" => Bye,
        /// A `wstart` succeeded; the session's islands are live.
        "wready" => WReady {
            /// Echoed session id.
            session: u64,
            /// Islands hosted by this session.
            islands: usize,
        },
        /// A `wadvance` completed: per-island progress for the epoch.
        "wstate" => WState {
            /// Echoed session id.
            session: u64,
            /// Echoed epoch index.
            epoch: u64,
            /// One entry per hosted island, ascending by index.
            islands: Vec<WIslandState>,
        },
        /// Answer to `wmolecule`: the island's current best molecule.
        "wmolecule" => WMolecule {
            /// Echoed session id.
            session: u64,
            /// Echoed island index.
            island: usize,
            /// The best molecule.
            @flatten molecule: MoleculeInfo,
            /// Its scaled energy.
            energy: f64,
        },
        /// Answer to `winject`: whether the offer was adopted.
        "winjected" => WInjected {
            /// Echoed session id.
            session: u64,
            /// Echoed island index.
            island: usize,
            /// Whether anything was adopted.
            adopted: bool,
        },
        /// Answer to `wharvest`: every island's final result.
        "wharvested" => WHarvested {
            /// Echoed session id.
            session: u64,
            /// One entry per hosted island, ascending by index.
            islands: Vec<WIslandResult>,
        },
    }
}

impl Event {
    /// Parses one event line (the client side of the protocol).
    pub fn parse(line: &str) -> Result<Event, String> {
        parse_line(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{num, s};
    use serde_json::Map;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Load {
                instance: "web".into(),
                source: GraphSource::Path("/tmp/g.graph".into()),
                format: GraphFormat::Metis,
            },
            Request::Load {
                instance: "inline".into(),
                source: GraphSource::Data("3 3\n2 3\n1 3\n1 2\n".into()),
                format: GraphFormat::Metis,
            },
            Request::Submit(JobRequest {
                steps: Some(20_000),
                deadline_ms: Some(4_000),
                islands: 3,
                seed: 7,
                ..JobRequest::new("web", 4)
            }),
            // Multi-objective Pareto job with a non-default migration
            // policy: both new fields must survive the wire.
            Request::Submit(JobRequest {
                steps: Some(5_000),
                islands: 4,
                objectives: Some(vec![Objective::Cut, Objective::NCut, Objective::MCut]),
                migration: MigrationPolicyId::Combine,
                ..JobRequest::new("web", 4)
            }),
            // Integers above 2^53 (an "unbounded" budget, a full-width
            // seed) must round-trip exactly, not round through f64.
            Request::Submit(JobRequest {
                steps: Some(u64::MAX - 1),
                seed: u64::MAX,
                ..JobRequest::new("web", 4)
            }),
            // Multilevel jobs: both an explicit target and the 0 =
            // server-default sentinel must survive the wire.
            Request::Submit(JobRequest {
                steps: Some(5_000),
                multilevel: Some(2_000),
                ..JobRequest::new("web", 4)
            }),
            Request::Submit(JobRequest {
                steps: Some(5_000),
                multilevel: Some(0),
                ..JobRequest::new("web", 4)
            }),
            Request::Cancel { job: 9 },
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_value().to_string();
            assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn events_round_trip() {
        let events = [
            Event::Hello {
                proto: PROTOCOL_VERSION,
                workers: 4,
            },
            Event::Loaded {
                instance: "web".into(),
                vertices: 762,
                edges: 3444,
                cached: true,
                reloaded: false,
            },
            Event::Accepted {
                job: 3,
                instance: "web".into(),
                k: 26,
            },
            Event::Improvement(Improvement {
                job: 3,
                value: 4.25,
                step: 900,
                elapsed_ms: 15,
                island: 2,
                objective: None,
            }),
            // Non-finite objective values must survive the wire (a part
            // with no internal weight has infinite Mcut); multi-objective
            // improvements carry the finding island's criterion.
            Event::Improvement(Improvement {
                job: 3,
                value: f64::INFINITY,
                step: 1,
                elapsed_ms: 0,
                island: 0,
                objective: Some(Objective::NCut),
            }),
            Event::Done(DoneInfo {
                job: 3,
                status: JobStatus::Cancelled,
                value: 4.125,
                parts: 26,
                steps: 12_345,
                elapsed_ms: 250,
                migrations: 2,
                assignment: Some(vec![0, 1, 1, 0]),
                pareto: None,
            }),
            // A Pareto job's done event: the non-dominated front rides
            // along, objective vectors keyed by objective name.
            Event::Done(DoneInfo {
                job: 4,
                status: JobStatus::Completed,
                value: 2.0,
                parts: 4,
                steps: 40_000,
                elapsed_ms: 125,
                migrations: 1,
                assignment: Some(vec![0, 1, 0, 1]),
                pareto: Some(vec![
                    ParetoPointInfo {
                        island: 0,
                        objective: Objective::Cut,
                        values: vec![(Objective::Cut, 2.0), (Objective::MCut, f64::INFINITY)],
                        parts: 4,
                        assignment: Some(vec![0, 1, 0, 1]),
                    },
                    ParetoPointInfo {
                        island: 1,
                        objective: Objective::MCut,
                        values: vec![(Objective::Cut, 3.0), (Objective::MCut, 0.25)],
                        parts: 4,
                        assignment: None,
                    },
                ]),
            }),
            Event::Cancelling {
                job: 3,
                known: true,
            },
            Event::Rejected {
                instance: "web".into(),
                reason: "server at capacity (max 8 in-flight jobs)".into(),
                retry_after_ms: 250,
                in_flight: 8,
            },
            Event::Stats(StatsInfo {
                instances: 1,
                cache_hits: 9,
                cache_loads: 1,
                cache_evictions: 3,
                cache_bytes: 65_536,
                cache_budget_bytes: 1 << 20,
                jobs_submitted: 10,
                jobs_running: 2,
                jobs_done: 8,
                jobs_cancelled: 1,
                jobs_rejected: 4,
                max_jobs: 16,
                workers: 2,
                gate_queued: 5,
                permit_wait_hist: [7, 5, 3, 1, 0],
                permit_wait_bucket_ms: WAIT_BUCKET_MS,
                job_duration_hist: [2, 3, 1, 1, 1, 0],
                job_duration_bucket_ms: DURATION_BUCKET_MS,
            }),
            Event::Error {
                message: "unknown instance `x`".into(),
                job: Some(4),
            },
            Event::Bye,
        ];
        for ev in events {
            let line = ev.to_value().to_string();
            assert_eq!(Event::parse(&line).unwrap(), ev, "line: {line}");
        }
    }

    #[test]
    fn stats_histograms_are_rejected_by_name_not_zero_filled() {
        let with_field = |v: &Value, key: &str, val: Value| {
            let mut m = Map::new();
            for (k, x) in v.as_object().unwrap().iter() {
                m.insert(k.clone(), x.clone());
            }
            m.insert(key.to_string(), val);
            Value::Object(m)
        };
        let without_fields = |v: &Value, keys: &[&str]| {
            let mut m = Map::new();
            for (k, x) in v.as_object().unwrap().iter() {
                if !keys.contains(&k.as_str()) {
                    m.insert(k.clone(), x.clone());
                }
            }
            Value::Object(m)
        };
        let ints = |vals: &[i64]| Value::Array(vals.iter().map(|&x| num(x as f64)).collect());
        let good = Event::Stats(StatsInfo {
            jobs_submitted: 3,
            permit_wait_hist: [1, 2, 3, 4, 5],
            permit_wait_bucket_ms: WAIT_BUCKET_MS,
            job_duration_bucket_ms: DURATION_BUCKET_MS,
            ..StatsInfo::default()
        })
        .to_value();
        // A short histogram used to be silently zero-filled into a fake
        // all-fast profile; it must now be rejected by name.
        let short = with_field(&good, "permit_wait_hist", ints(&[1, 2, 3]));
        let err = Event::parse(&short.to_string()).unwrap_err();
        assert!(err.contains("permit_wait_hist"), "err: {err}");
        assert!(err.contains("5 entries"), "err: {err}");
        // An absent histogram likewise.
        let absent = without_fields(&good, &["permit_wait_hist"]);
        let err = Event::parse(&absent.to_string()).unwrap_err();
        assert!(err.contains("missing `permit_wait_hist`"), "err: {err}");
        // So does a non-integer entry.
        let bad = with_field(&good, "permit_wait_hist", ints(&[1, 2, 3, 4, -1]));
        let err = Event::parse(&bad.to_string()).unwrap_err();
        assert!(err.contains("unsigned integers"), "err: {err}");
        // The post-v1 arrays are optional-but-strict: absent falls back
        // to the server's compile-time layout, present-but-short errors.
        let old = without_fields(
            &good,
            &[
                "jobs_cancelled",
                "permit_wait_bucket_ms",
                "job_duration_hist",
                "job_duration_bucket_ms",
            ],
        );
        let Event::Stats(parsed) = Event::parse(&old.to_string()).unwrap() else {
            panic!("stats expected");
        };
        assert_eq!(parsed.permit_wait_bucket_ms, WAIT_BUCKET_MS);
        assert_eq!(parsed.job_duration_bucket_ms, DURATION_BUCKET_MS);
        assert_eq!(parsed.job_duration_hist, [0; DURATION_BUCKETS]);
        let short_new = with_field(&good, "job_duration_hist", ints(&[1]));
        let err = Event::parse(&short_new.to_string()).unwrap_err();
        assert!(err.contains("job_duration_hist"), "err: {err}");
        // String-encoded entries (the >2^53 escape hatch) still parse.
        let stringy = with_field(
            &good,
            "permit_wait_hist",
            Value::Array(vec![
                s("18446744073709551615"),
                num(2.0),
                num(3.0),
                num(4.0),
                num(5.0),
            ]),
        );
        let Event::Stats(parsed) = Event::parse(&stringy.to_string()).unwrap() else {
            panic!("stats expected");
        };
        assert_eq!(parsed.permit_wait_hist[0], u64::MAX);
    }

    #[test]
    fn worker_requests_round_trip() {
        let molecule = MoleculeInfo {
            assignment: vec![0, 2, 1, 2, 0],
            parts: 3,
        };
        let reqs = [
            // Full-width seeds must survive the wire exactly — a rounded
            // seed is a different distributed run.
            Request::WStart(WorkerStart {
                session: 5,
                instance: "web".into(),
                k: 4,
                seeds: vec![7, u64::MAX, (1 << 53) + 1],
                objectives: vec![Objective::MCut, Objective::Cut, Objective::MCut],
                steps: 20_000,
            }),
            Request::WAdvance {
                session: 5,
                epoch: 3,
                steps: 1024,
            },
            Request::WMolecule {
                session: 5,
                island: 2,
            },
            Request::WInject {
                session: 5,
                island: 0,
                molecule: molecule.clone(),
                crossover: true,
            },
            Request::WInject {
                session: 5,
                island: 1,
                molecule,
                crossover: false,
            },
            Request::WHarvest { session: 5 },
        ];
        for req in reqs {
            let line = req.to_value().to_string();
            assert_eq!(Request::parse(&line).unwrap(), req, "line: {line}");
        }
    }

    #[test]
    fn worker_events_round_trip() {
        let events = [
            Event::WReady {
                session: 5,
                islands: 2,
            },
            // Fresh islands hold +inf best energy — the non-finite escape
            // hatch must work on every worker-state field.
            Event::WState {
                session: 5,
                epoch: 0,
                islands: vec![
                    WIslandState {
                        island: 0,
                        more: true,
                        energy: f64::INFINITY,
                        steps: 1024,
                        news: vec![],
                    },
                    WIslandState {
                        island: 1,
                        more: false,
                        energy: 0.953125,
                        steps: 20_000,
                        news: vec![
                            WNews {
                                step: 512,
                                value: 4.25,
                                elapsed_ms: 3,
                            },
                            WNews {
                                step: 900,
                                value: f64::NEG_INFINITY,
                                elapsed_ms: 15,
                            },
                        ],
                    },
                ],
            },
            Event::WMolecule {
                session: 5,
                island: 1,
                molecule: MoleculeInfo {
                    assignment: vec![0, 1, 1, 0],
                    parts: 2,
                },
                energy: 0.953125,
            },
            Event::WInjected {
                session: 5,
                island: 0,
                adopted: true,
            },
            Event::WHarvested {
                session: 5,
                islands: vec![WIslandResult {
                    island: 0,
                    value: 4.25,
                    energy: 0.953125,
                    steps: 20_000,
                    molecule: MoleculeInfo {
                        assignment: vec![0, 1, 1, 0],
                        parts: 2,
                    },
                    per_k: vec![(2, 4.25), (3, f64::INFINITY)],
                }],
            },
        ];
        for ev in events {
            let line = ev.to_value().to_string();
            assert_eq!(Event::parse(&line).unwrap(), ev, "line: {line}");
        }
    }

    #[test]
    fn worker_ops_reject_unknown_fields_and_bad_molecules() {
        // Unknown fields named, per the strict-schema contract.
        let typo = r#"{"op":"wadvance","session":1,"epoch":0,"stesp":64}"#;
        let err = Request::parse(typo).unwrap_err();
        assert!(
            err.contains("unknown field") && err.contains("stesp"),
            "{err}"
        );
        let ev_typo = r#"{"event":"winjected","session":1,"island":0,"adoptd":true}"#;
        let err = Event::parse(ev_typo).unwrap_err();
        assert!(
            err.contains("unknown field") && err.contains("adoptd"),
            "{err}"
        );
        // Molecule payloads: out-of-range ids, type confusion, and
        // missing fields are errors, never a silently different molecule.
        let out_of_range = r#"{"op":"winject","session":1,"island":0,"assignment":[0,3],"parts":2,"crossover":false}"#;
        assert!(Request::parse(out_of_range)
            .unwrap_err()
            .contains("out of range"));
        let confused = r#"{"op":"winject","session":1,"island":0,"assignment":[0,"x"],"parts":2,"crossover":false}"#;
        assert!(Request::parse(confused)
            .unwrap_err()
            .contains("bad part id"));
        let empty = r#"{"op":"winject","session":1,"island":0,"assignment":[],"parts":2,"crossover":false}"#;
        assert!(Request::parse(empty).is_err());
        // wstart validation: per-seed objectives, non-zero k/steps.
        let mismatched = r#"{"op":"wstart","session":1,"instance":"g","k":2,"seeds":[1,2],"objectives":["cut"],"steps":10}"#;
        assert!(Request::parse(mismatched)
            .unwrap_err()
            .contains("objectives"));
        let zero_steps = r#"{"op":"wstart","session":1,"instance":"g","k":2,"seeds":[1],"objectives":["cut"],"steps":0}"#;
        assert!(Request::parse(zero_steps).unwrap_err().contains("steps"));
    }

    #[test]
    fn submit_validation_rejects_unbounded_and_degenerate_jobs() {
        let no_budget = r#"{"op":"submit","instance":"g","k":2}"#;
        assert!(Request::parse(no_budget).unwrap_err().contains("steps"));
        let zero_islands = r#"{"op":"submit","instance":"g","k":2,"steps":10,"islands":0}"#;
        assert!(Request::parse(zero_islands)
            .unwrap_err()
            .contains("islands"));
        let zero_chunk = r#"{"op":"submit","instance":"g","k":2,"steps":10,"chunk":0}"#;
        assert!(Request::parse(zero_chunk).unwrap_err().contains("chunk"));
        let empty_objectives = r#"{"op":"submit","instance":"g","k":2,"steps":10,"objectives":[]}"#;
        assert!(Request::parse(empty_objectives)
            .unwrap_err()
            .contains("objectives"));
        // Fewer islands than distinct objectives would silently drop one.
        let starved = r#"{"op":"submit","instance":"g","k":2,"steps":10,"islands":1,"objectives":["cut","mcut"]}"#;
        assert!(Request::parse(starved).unwrap_err().contains("islands"));
        let bad_policy = r#"{"op":"submit","instance":"g","k":2,"steps":10,"migration":"osmosis"}"#;
        assert!(Request::parse(bad_policy)
            .unwrap_err()
            .contains("migration"));
    }

    #[test]
    fn unknown_submit_fields_are_rejected_by_name() {
        // The satellite fix: a typo'd field must be named, not ignored.
        let typo = r#"{"op":"submit","instance":"g","k":2,"steps":10,"objctives":["cut"]}"#;
        let err = Request::parse(typo).unwrap_err();
        assert!(err.contains("unknown field"), "{err}");
        assert!(err.contains("objctives"), "{err}");
        // All documented fields still pass.
        let full = r#"{"op":"submit","instance":"g","k":2,"steps":10,"deadline_ms":50,
            "objective":"cut","objectives":["cut","ncut"],"migration":"adaptive","seed":3,
            "islands":2,"chunk":64,"assignment":false,"multilevel":500}"#
            .replace('\n', " ");
        assert!(Request::parse(&full).is_ok(), "{:?}", Request::parse(&full));
        let bad_ml = r#"{"op":"submit","instance":"g","k":2,"steps":10,"multilevel":"big"}"#;
        assert!(Request::parse(bad_ml).unwrap_err().contains("multilevel"));
    }

    #[test]
    fn malformed_lines_error_cleanly() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{}").unwrap_err().contains("op"));
        assert!(Request::parse(r#"{"op":"warp"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(Request::parse(r#"{"op":"load","instance":"a"}"#)
            .unwrap_err()
            .contains("path"));
        assert!(Event::parse(r#"{"event":"nope"}"#).is_err());
    }

    #[test]
    fn submit_defaults_match_job_request_new() {
        let line = r#"{"op":"submit","instance":"g","k":3,"steps":100}"#;
        let parsed = match Request::parse(line).unwrap() {
            Request::Submit(j) => j,
            other => panic!("wrong request {other:?}"),
        };
        let expected = JobRequest {
            steps: Some(100),
            k: 3,
            ..JobRequest::new("g", 3)
        };
        assert_eq!(parsed, expected);
    }

    #[test]
    fn malformed_optional_fields_are_rejected_by_name() {
        // A present value that does not decode names its field; it never
        // falls back to the default or drops the entries that fail.
        let submit =
            |extra: &str| format!(r#"{{"op":"submit","instance":"g","k":2,"steps":10,{extra}}}"#);
        let requests = [
            (submit(r#""seed":-1"#), "seed"),
            (submit(r#""islands":2.5"#), "islands"),
            (submit(r#""chunk":-3"#), "chunk"),
            (submit(r#""assignment":"false""#), "assignment"),
            (submit(r#""deadline_ms":"soon""#), "deadline_ms"),
            (submit(r#""objective":5"#), "objective"),
            (submit(r#""migration":null"#), "migration"),
            (submit(r#""steps":null"#), "steps"),
            (
                r#"{"op":"load","instance":"g","path":"/g","format":7}"#.into(),
                "format",
            ),
            (
                r#"{"op":"load","instance":"g","path":"/g","data":5}"#.into(),
                "data",
            ),
        ];
        for (line, field) in &requests {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(&format!("bad `{field}`")), "{line}: {err}");
        }
        let events = [
            (
                r#"{"event":"done","job":1,"status":"completed","value":1.5,"parts":2,"steps":9,"elapsed_ms":1,"assignment":[0,"x",1]}"#,
                "assignment",
            ),
            (
                r#"{"event":"improvement","job":1,"value":1.5,"step":3,"elapsed_ms":1,"island":"two","objective":"kcut"}"#,
                "island",
            ),
            (
                r#"{"event":"improvement","job":1,"value":1.5,"step":3,"elapsed_ms":1,"objective":"kcut"}"#,
                "objective",
            ),
            (r#"{"event":"cancelling","job":1,"known":"yes"}"#, "known"),
            (r#"{"event":"error","message":"x","job":null}"#, "job"),
            (
                r#"{"event":"rejected","reason":7,"retry_after_ms":5}"#,
                "reason",
            ),
        ];
        for (line, field) in events {
            let err = Event::parse(line).expect_err(line);
            assert!(err.contains(&format!("bad `{field}`")), "{line}: {err}");
        }
        // HTTP `POST /jobs` bodies share the decoder.
        let body: Value =
            serde_json::from_str(r#"{"instance":"g","k":2,"steps":10,"seed":-1}"#).unwrap();
        let err = JobRequest::from_value(&body).unwrap_err();
        assert!(err.contains("bad `seed`"), "{err}");
    }
}
