//! # ff-service — the multi-client partition-serving subsystem
//!
//! The paper's search is an *anytime* algorithm: it always holds a best
//! molecule, and it only gets better. A production partitioner exploits
//! that by running as a long-lived server — load a graph once, accept
//! jobs from many clients, stream each job's improvements as they happen,
//! and let clients cancel or set deadlines — instead of one-shot batch
//! runs. This crate is that server, std-only (no async runtime):
//!
//! * **Protocol** ([`protocol`]): newline-delimited JSON over TCP (or
//!   stdin/stdout), typed at both ends as [`Request`] / [`Event`].
//! * **HTTP/1.1 gateway** ([`ServerConfig::http`]): the same job layer
//!   for browsers and `curl` — `PUT /instances/:key`, `POST /jobs`,
//!   `GET /jobs/:id/events` (chunked NDJSON streaming), `DELETE
//!   /jobs/:id`, `GET /stats`, `GET /metrics`; overflow is `429` with
//!   `Retry-After`. Loads, submits, cancels and stats go through the
//!   same dispatcher as their NDJSON requests.
//! * **Worker pool** ([`gate`]): a FIFO-fair permit gate. Jobs hold a
//!   cheap parked thread and only compute while holding one of N
//!   permits, advancing their [`ff_core::FusionFissionRun`] /
//!   [`ff_engine::SolverRun`] a chunk at a time — M in-flight jobs
//!   share N slots round-robin instead of queueing whole-job. Every
//!   slot acquisition's wait, job chunks and worker-session epochs
//!   alike, lands in one histogram that `stats` and `/metrics` both
//!   read ([`obs`]).
//! * **Admission control** ([`ServerConfig::max_jobs`],
//!   [`ServerConfig::max_jobs_per_conn`]): in-flight jobs are bounded
//!   server-wide and per connection; overflow gets a typed `rejected`
//!   event with a `retry_after_ms` hint instead of unbounded queueing.
//! * **Instance cache** ([`cache`]): one loaded graph (METIS file, edge
//!   list, inline data) serves many `(k, objective, seed)` jobs. Sources
//!   are remembered as 64-bit content digests (keys stay O(1) however
//!   large the graph), and a byte budget ([`ServerConfig::cache_bytes`])
//!   evicts least-recently-used instances — never one pinned by a
//!   running job.
//! * **Distributed islands** ([`dist`]): a coordinator that shards an
//!   ensemble's islands across worker *processes* — spawned `ffpart
//!   worker` children or remote `ffpart serve` servers — and runs the
//!   engine's own epoch loop ([`ff_engine::EpochLoop`]) over them, in
//!   deterministic lockstep epochs of typed `w*` NDJSON messages.
//!   Results are byte-identical to the in-process
//!   [`ff_engine::Solver`], for any worker count, and stay so when
//!   workers crash: every state-changing op is logged and replayed
//!   into a respawned worker.
//! * **Durability** ([`journal`], [`ServerConfig::journal`]): an
//!   append-only NDJSON job journal with length/checksum framing.
//!   Binding replays it: finished jobs are restored into the HTTP
//!   event-log ring as observable history (counters restored from the
//!   journaled totals, nothing re-executed), jobs in flight at crash time
//!   are re-executed from their journaled request — byte-identically
//!   when step-budgeted. A torn final record (the crash shape) is
//!   tolerated; any other corruption fails the bind with a byte offset.
//! * **Anytime streaming**: each improvement recorded in the engine's
//!   [`ff_metaheur::AnytimeTrace`] is forwarded to the owning client as
//!   an `improvement` event, tagged with the job id.
//! * **Cancel & deadline**: plumbed into the engine via
//!   [`ff_metaheur::CancelToken`] and the wall-clock half of
//!   [`ff_metaheur::StopCondition`]; a cancelled or expired job still
//!   returns its best-so-far partition.
//!
//! ## Determinism contract
//!
//! A step-budgeted job (`steps` set, no `deadline_ms`) is a pure function
//! of `(instance content, k, objective, seed, islands, chunk)`: the
//! chunked cooperative drive consumes the RNG stream exactly like a
//! one-shot run, so resubmitting the same request — to this server run
//! or a fresh one — yields a byte-identical final partition, regardless
//! of worker count, pool contention, or how many other jobs are in
//! flight. Deadline or cancelled jobs are best-effort by nature.
//!
//! ## Example
//!
//! ```
//! use ff_service::{Client, GraphFormat, GraphSource, JobRequest, JobStatus, Server};
//!
//! // A server on an ephemeral port with 2 compute slots.
//! let handle = Server::bind("127.0.0.1:0", 2).unwrap().spawn().unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//!
//! // Load once (here from inline METIS data: a triangle + a pendant).
//! let (vertices, _, cached) = client
//!     .load(
//!         "demo",
//!         GraphSource::Data("4 4\n2 3\n1 3\n1 2 4\n3\n".into()),
//!         GraphFormat::Metis,
//!     )
//!     .unwrap();
//! assert_eq!((vertices, cached), (4, false));
//!
//! // Submit a step-budgeted job and stream it to completion.
//! let job = JobRequest {
//!     steps: Some(800),
//!     ..JobRequest::new("demo", 2)
//! };
//! let id = client.submit(&job).unwrap();
//! let (improvements, done) = client.wait_done(id).unwrap();
//! assert!(!improvements.is_empty(), "anytime events streamed");
//! assert_eq!(done.status, JobStatus::Completed);
//! assert_eq!(done.assignment.as_ref().unwrap().len(), 4);
//!
//! // Same request ⇒ byte-identical result (the determinism contract).
//! let rerun = client.submit(&job).unwrap();
//! let (_, done2) = client.wait_done(rerun).unwrap();
//! assert_eq!(done.assignment, done2.assignment);
//!
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```
//!
//! ## Durability example
//!
//! A journaled server's history survives a restart: the finished job is
//! replayed into the event ring (not re-executed), counters are
//! restored, and a rerun of the same request is byte-identical:
//!
//! ```
//! use ff_service::{
//!     Client, GraphFormat, GraphSource, JobRequest, JobStatus, Server, ServerConfig,
//! };
//!
//! let path = std::env::temp_dir().join(format!("ff-doc-journal-{}.ndjson", std::process::id()));
//! let _ = std::fs::remove_file(&path);
//! let config = || ServerConfig {
//!     workers: 1,
//!     journal: Some(path.to_string_lossy().into_owned()),
//!     ..ServerConfig::default()
//! };
//! let job = JobRequest {
//!     steps: Some(800),
//!     ..JobRequest::new("demo", 2)
//! };
//!
//! // First life: run one job to completion, then exit.
//! let handle = Server::bind_with("127.0.0.1:0", config()).unwrap().spawn().unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! client
//!     .load(
//!         "demo",
//!         GraphSource::Data("4 4\n2 3\n1 3\n1 2 4\n3\n".into()),
//!         GraphFormat::Metis,
//!     )
//!     .unwrap();
//! let id = client.submit(&job).unwrap();
//! let (_, done) = client.wait_done(id).unwrap();
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//!
//! // Second life: the journal replays the finished job as history.
//! let handle = Server::bind_with("127.0.0.1:0", config()).unwrap().spawn().unwrap();
//! let replay = handle.replay_summary().unwrap();
//! assert_eq!((replay.finished, replay.resumed, replay.skipped), (1, 0, 0));
//!
//! // Same request ⇒ the same bytes, across the restart.
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let rerun = client.submit(&job).unwrap();
//! let (_, done2) = client.wait_done(rerun).unwrap();
//! assert_eq!(done.assignment, done2.assignment);
//! assert_eq!(done2.status, JobStatus::Completed);
//!
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! let _ = std::fs::remove_file(&path);
//! ```
//!
//! ## Distributed islands example
//!
//! Two live servers stand in for remote hosts; the coordinator drives
//! one island on each and reduces exactly like the in-process solver:
//!
//! ```
//! use ff_service::dist::{solve_distributed, DistOpts, DistSpec, WorkerSet};
//! use ff_service::{Client, GraphFormat, GraphSource, Server};
//!
//! let hosts: Vec<_> = (0..2)
//!     .map(|_| Server::bind("127.0.0.1:0", 2).unwrap().spawn().unwrap())
//!     .collect();
//!
//! let metis = "4 4\n2 3\n1 3\n1 2 4\n3\n";
//! let g = ff_graph::io::read_metis(metis.as_bytes()).unwrap();
//! let spec = DistSpec {
//!     instance: "demo".into(),
//!     source: GraphSource::Data(metis.into()),
//!     format: GraphFormat::Metis,
//!     k: 2,
//!     steps: 800,
//!     seeds: ff_engine::derive_seeds(7, 2),
//!     objectives: vec![ff_partition::Objective::MCut; 2],
//!     interval: 1024,
//!     migration: ff_engine::MigrationPolicyId::ReplaceIfBetter,
//!     pareto: false,
//! };
//! let workers = WorkerSet::Connect {
//!     addrs: hosts.iter().map(|h| h.addr().to_string()).collect(),
//! };
//! let result =
//!     solve_distributed(&g, &spec, &workers, &DistOpts::default(), &mut |_, _| {}).unwrap();
//! assert_eq!(result.islands.len(), 2);
//! assert_eq!(result.best.assignment().len(), 4);
//! // Same seeds in-process ⇒ the same bytes out (the contract the
//! // dist tests assert field by field).
//! let local = ff_engine::Solver::on(&g)
//!     .k(2)
//!     .islands(2)
//!     .steps(800)
//!     .seed(7)
//!     .run()
//!     .unwrap();
//! assert_eq!(result.best.assignment(), local.best.assignment());
//!
//! for handle in hosts {
//!     Client::connect(handle.addr()).unwrap().shutdown().unwrap();
//!     handle.join().unwrap();
//! }
//! ```
//!
//! ## HTTP example
//!
//! The gateway speaks plain HTTP/1.1, so `curl` — or twenty lines of
//! `std::net` — is a complete client:
//!
//! ```
//! use ff_service::{Server, ServerConfig};
//! use std::io::{Read, Write};
//!
//! let handle = Server::bind_with(
//!     "127.0.0.1:0",
//!     ServerConfig {
//!         workers: 1,
//!         http: Some("127.0.0.1:0".into()),
//!         ..Default::default()
//!     },
//! )
//! .unwrap()
//! .spawn()
//! .unwrap();
//! let http = handle.http_addr().unwrap();
//! let exchange = |request: String| {
//!     let mut s = std::net::TcpStream::connect(http).unwrap();
//!     s.write_all(request.as_bytes()).unwrap();
//!     let mut reply = String::new();
//!     s.read_to_string(&mut reply).unwrap();
//!     reply
//! };
//!
//! // Load an instance (inline METIS body), then submit a job against it.
//! let graph = "4 4\n2 3\n1 3\n1 2 4\n3\n";
//! let reply = exchange(format!(
//!     "PUT /instances/demo HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{graph}",
//!     graph.len()
//! ));
//! assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
//! let job = r#"{"instance":"demo","k":2,"steps":500}"#;
//! let reply = exchange(format!(
//!     "POST /jobs HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{job}",
//!     job.len()
//! ));
//! assert!(reply.starts_with("HTTP/1.1 202"), "{reply}");
//!
//! // Stream the job's events: chunked NDJSON that ends with `done`.
//! let reply = exchange("GET /jobs/1/events HTTP/1.1\r\nConnection: close\r\n\r\n".into());
//! assert!(reply.contains("\"event\":\"done\""), "{reply}");
//!
//! ff_service::Client::connect(handle.addr()).unwrap().shutdown().unwrap();
//! handle.join().unwrap();
//! ```
//!
//! ## Invariants
//!
//! `ff-lint` (`crates/lint`) statically checks this crate on every CI
//! run: the lock-acquisition order must stay a DAG (`LOCK_CYCLE`), and
//! request-handling files must not panic on reachable paths
//! (`PANIC_PATH`) — poisoned locks are recovered via the crate's
//! `sync::lock` / `sync::wait` helpers instead of unwrapped. Wire
//! strictness is structural: each [`protocol`] and [`journal`] message
//! is declared once in the crate's wire schema, which generates its
//! encoder and a decoder that rejects unknown fields and malformed
//! values by name. See `INVARIANTS.md` at the repo root for the full
//! contract.

pub mod cache;
pub mod client;
pub mod dist;
pub mod gate;
mod http;
pub mod job;
pub mod journal;
pub mod obs;
pub mod protocol;
mod schema;
pub mod server;
mod sync;
mod wsession;

pub use cache::{
    read_graph, CacheEntryInfo, CacheStats, GraphFormat, GraphSource, InstanceCache, LoadOutcome,
    PinnedGraph,
};
pub use client::{Client, JobCanceller, SubmitOutcome};
pub use dist::{solve_distributed, DistOpts, DistSpec, WorkerSet};
pub use gate::{FairGate, Permit, WAIT_BUCKETS, WAIT_BUCKET_MS};
pub use job::{pareto_points, EventSink};
pub use journal::{
    parse_journal, read_journal, JournalError, JournalRecord, JournalWriter, ReadOutcome,
    ReplaySummary,
};
pub use obs::{DURATION_BUCKETS, DURATION_BUCKET_MS};
// The observability vocabulary `ServerConfig` and `DistOpts` speak.
pub use ff_obs::{LogFormat, Logger, Registry, EXPOSITION_CONTENT_TYPE};
pub use protocol::{
    DoneInfo, Event, Improvement, JobRequest, JobStatus, ParetoPointInfo, Request, StatsInfo,
    DEFAULT_CHUNK, PROTOCOL_VERSION,
};
pub use server::{
    serve_stdio, serve_stdio_with, Server, ServerConfig, ServerHandle, MAX_LINE_BYTES,
};
