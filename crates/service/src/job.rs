//! One job's lifecycle: cooperative chunked execution on the worker pool.
//!
//! A job thread is cheap — it spends its life parked on the
//! [`FairGate`] — and only *advances* its search while holding a gate
//! permit, `chunk` steps (or one migration epoch) at a time. Between
//! chunks it turns the trace points of each island's epoch report into
//! `improvement` events and checks for cancellation, so M in-flight jobs
//! share the pool's N compute slots fairly and react to cancel/deadline
//! within one chunk.

use crate::gate::FairGate;
use crate::http::EventLog;
use crate::journal::{JournalRecord, JournalTap};
use crate::obs::Metrics;
use crate::protocol::{DoneInfo, Event, Improvement, JobRequest, JobStatus, ParetoPointInfo};
use crate::sync::lock;
use ff_core::FusionFissionConfig;
use ff_engine::{derive_seeds, MultilevelOpts, ParetoResult, Solver};
use ff_graph::Graph;
use ff_metaheur::{CancelToken, StopCondition};
use ff_obs::LogValue;
use ff_partition::Objective;
use std::collections::HashMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A line-atomic, shareable event writer: a client stream (one per
/// connection), or one job's buffered event log (HTTP-submitted and
/// journal-resumed jobs).
///
/// Clones share the underlying stream; each event is written as one
/// `\n`-terminated line under the lock, so events from concurrent jobs
/// interleave *between* lines, never within one.
#[derive(Clone)]
pub struct EventSink {
    to: Target,
    /// When the server journals, job-progress events (`improvement`,
    /// `done`) are appended to the journal *before* the client write —
    /// write-ahead, so a crash can lose a client line but never a
    /// journaled fact the client already saw.
    journal: Option<Arc<JournalTap>>,
}

#[derive(Clone)]
enum Target {
    Stream(Arc<ClientStream>),
    Log(Arc<EventLog>),
}

/// A named struct, not a bare `Mutex` in [`Target`], so `ff-lint
/// --locks` sees the stream lock.
struct ClientStream {
    out: Mutex<Box<dyn Write + Send>>,
}

impl EventSink {
    /// Wraps a writer (a `TcpStream`, stdout, or a test buffer).
    pub fn new(out: Box<dyn Write + Send>) -> EventSink {
        EventSink::with_journal(out, None)
    }

    /// [`EventSink::new`] with the server's journal tap, if journaling.
    pub(crate) fn with_journal(
        out: Box<dyn Write + Send>,
        journal: Option<Arc<JournalTap>>,
    ) -> EventSink {
        let stream = ClientStream {
            out: Mutex::new(out),
        };
        EventSink {
            to: Target::Stream(Arc::new(stream)),
            journal,
        }
    }

    /// A sink into a fresh [`EventLog`], with the server's journal tap.
    pub(crate) fn new_log(journal: Option<Arc<JournalTap>>) -> EventSink {
        EventSink {
            to: Target::Log(EventLog::new()),
            journal,
        }
    }

    /// The event log this sink writes into, if it is not a stream.
    pub(crate) fn event_log(&self) -> Option<&Arc<EventLog>> {
        match &self.to {
            Target::Log(log) => Some(log),
            Target::Stream(_) => None,
        }
    }

    /// Writes one event line (and flushes a stream). For stream sinks an
    /// `Err` means the client is gone; callers use that to cancel the
    /// job it was streaming to. (Log sinks never fail — an HTTP job
    /// outlives its submitting connection by design.)
    pub fn send(&self, event: &Event) -> std::io::Result<()> {
        if let Some(tap) = &self.journal {
            if matches!(event, Event::Improvement(_) | Event::Done(_)) {
                tap.record(&JournalRecord::Event(event.clone()));
            }
        }
        match &self.to {
            Target::Stream(stream) => {
                let mut out = lock(&stream.out);
                writeln!(out, "{}", event.to_value())?;
                out.flush()
            }
            Target::Log(log) => {
                log.push_line(event.to_value().to_string());
                Ok(())
            }
        }
    }

    /// Fault-injection hook: writes raw bytes with *no* trailing newline
    /// and flushes — how the truncate-mid-message fault mode simulates a
    /// worker dying halfway through a reply line. Worker sessions stream
    /// to their connection, so a log sink ignores it.
    pub(crate) fn send_raw_partial(&self, bytes: &[u8]) {
        if let Target::Stream(stream) = &self.to {
            let mut out = lock(&stream.out);
            let _ = out.write_all(bytes);
            let _ = out.flush();
        }
    }
}

fn stop_condition(spec: &JobRequest) -> StopCondition {
    StopCondition::new(
        spec.steps.unwrap_or(u64::MAX),
        spec.deadline_ms
            .map(Duration::from_millis)
            .unwrap_or(Duration::MAX),
    )
}

fn base_config(spec: &JobRequest) -> FusionFissionConfig {
    FusionFissionConfig {
        objective: spec.objective,
        stop: stop_condition(spec),
        ..FusionFissionConfig::standard(spec.k)
    }
}

impl JobRequest {
    /// Per-island seeds, in island order: a single island keeps the root
    /// seed, so it is the plain `FusionFission::new(g, cfg, seed)` run;
    /// an ensemble derives one seed per island from the root.
    pub fn island_seeds(&self) -> Vec<u64> {
        if self.islands == 1 {
            vec![self.seed]
        } else {
            derive_seeds(self.seed, self.islands)
        }
    }

    /// The [`Solver`] this job describes: the one place a fusion–fission
    /// job becomes a run. The server validates a submit with it and its
    /// driver thread runs it, so an admitted job can never fail to start;
    /// `ffpart` runs its one-shot jobs through it too, and
    /// [`DistSpec::for_job`](crate::DistSpec::for_job) distributes the
    /// same islands.
    ///
    /// Island seeds come from [`JobRequest::island_seeds`]; `chunk` is
    /// also the migration interval. Waves are capped at one thread, so a
    /// served job never holds more compute than the one pool slot its
    /// permit stands for; a caller that owns its cores may lift the cap
    /// with [`Solver::threads`], which never changes a step-budgeted
    /// result.
    pub fn solver<'g>(&self, graph: &'g Graph) -> Solver<'g> {
        let mut solver = Solver::on(graph)
            .config(base_config(self))
            .islands(self.islands)
            .threads(1)
            .migration_interval(self.chunk)
            .migration(self.migration.build())
            .seed(self.seed)
            .island_seeds(self.island_seeds());
        if let Some(list) = &self.objectives {
            solver = solver.objectives(list.clone());
        }
        if let Some(target) = self.multilevel {
            let mut opts = MultilevelOpts::default();
            if target > 0 {
                opts.coarsen_until = target as usize;
            }
            solver = solver.multilevel(opts);
        }
        solver
    }
}

/// Runs one job to its end (budget, deadline or cancellation), streaming
/// `improvement` events as they happen and finishing with a `done` event.
/// Returns the final [`DoneInfo`] (already sent, unless the client
/// disconnected mid-run).
///
/// `before_done` runs after the result is final but *before* the `done`
/// event is emitted: the server hangs registry removal and counter
/// updates on it, so a client that reacts instantly to `done` (resubmit,
/// stats) can never observe the finished job as still in flight.
///
/// `obs` hooks the engine's per-epoch instrumentation into the server
/// registry and emits `epoch` log spans (the gate records its own
/// waits). All of it is observation-only: the solve consumes no RNG,
/// chunking or output byte differently for being observed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_job(
    job_id: u64,
    spec: &JobRequest,
    graph: &Arc<Graph>,
    gate: &Arc<FairGate>,
    token: &CancelToken,
    sink: &EventSink,
    obs: &Metrics,
    before_done: impl FnOnce(&DoneInfo),
) -> DoneInfo {
    let started = Instant::now();
    // Fault-injection hook for the slot-release guard: a job whose
    // instance key equals `FFPART_JOB_PANIC` panics mid-drive, while
    // holding its gate permit — the worst-placed panic a driver can
    // have. Same discipline as the dist layer's `FFPART_FAULT`.
    let poisoned = std::env::var("FFPART_JOB_PANIC").is_ok_and(|key| key == spec.instance);
    let multi = spec.is_pareto();
    let solver = spec.solver(graph).observe(obs.registry.clone());
    // `run_with` lets the service keep its cooperative chunked drive
    // (gate permits, improvement streaming, cancellation) while the
    // engine decides *where* that drive runs: on the input graph, or —
    // for a multilevel job — on its coarsened stand-in, with the
    // uncoarsen+refine pipeline applied after the drive finishes.
    let res = solver
        .run_with(|run| {
            run.bind_cancel(token.clone());
            // Per-objective best-so-far: improvements stream only when an
            // island's value beats the best of *its own criterion* (for a
            // single-objective job that is the historical global filter;
            // island order then chronological, so step-budgeted jobs
            // stream deterministic values).
            let mut best: HashMap<Option<Objective>, f64> = HashMap::new();
            for epoch in 1u64.. {
                let permit = gate.acquire();
                if poisoned {
                    // lint: allow(PANIC_PATH) — deliberate fault-injection hook; fires only when the
                    // FFPART_JOB_PANIC env var is set by the crash-recovery tests.
                    panic!("injected driver panic (FFPART_JOB_PANIC)");
                }
                let more = run.advance_epoch();
                drop(permit);
                obs.logger.log(
                    "epoch",
                    Some(job_id),
                    &[
                        ("epoch", LogValue::U64(epoch)),
                        ("steps", LogValue::U64(run.total_steps())),
                        (
                            "best",
                            LogValue::F64(run.best_value_at_target().unwrap_or(f64::INFINITY)),
                        ),
                    ],
                );
                for (i, island) in run.last_epoch().islands.iter().enumerate() {
                    for p in &island.news {
                        let entry = best.entry(p.objective).or_insert(f64::INFINITY);
                        if p.value < *entry {
                            *entry = p.value;
                            let ev = Event::Improvement(Improvement {
                                job: job_id,
                                value: p.value,
                                step: p.step,
                                elapsed_ms: p.elapsed.as_millis() as u64,
                                island: i,
                                objective: p.objective.filter(|_| multi),
                            });
                            if sink.send(&ev).is_err() {
                                // Client gone: nobody will harvest this
                                // job (HTTP log sinks never fail, so their
                                // jobs outlive the submitting connection
                                // by design).
                                token.cancel();
                            }
                        }
                    }
                }
                if !more {
                    break;
                }
            }
        })
        // lint: allow(PANIC_PATH) — the spec was validated at submit time; a config
        // rejection here means admission and the engine disagree, which is a bug.
        .expect("job config validated at submit time");
    let steps = res.steps;
    let pareto = res
        .pareto
        .as_ref()
        .map(|front| pareto_points(front, spec.assignment));
    // A deadline-bounded job that stopped before exhausting its step
    // budget stopped because the clock ran out.
    let budget_exhausted = spec
        .steps
        .is_some_and(|per_island| steps >= per_island.saturating_mul(spec.islands as u64));
    let status = if token.is_cancelled() {
        JobStatus::Cancelled
    } else if spec.deadline_ms.is_some() && !budget_exhausted {
        JobStatus::Deadline
    } else {
        JobStatus::Completed
    };
    let done = DoneInfo {
        job: job_id,
        status,
        value: res.best_value,
        parts: res.best.num_nonempty_parts(),
        steps,
        elapsed_ms: started.elapsed().as_millis() as u64,
        migrations: res.migrations_adopted,
        assignment: spec.assignment.then(|| res.best.assignment().to_vec()),
        pareto,
    };
    before_done(&done);
    let _ = sink.send(&Event::Done(done.clone()));
    done
}

/// A Pareto front as the `done` event carries it: each point scored
/// under every objective of the front, with its part ids when
/// `assignment` is set.
pub fn pareto_points(front: &ParetoResult, assignment: bool) -> Vec<ParetoPointInfo> {
    front
        .points
        .iter()
        .map(|p| ParetoPointInfo {
            island: p.island,
            objective: p.objective,
            values: front
                .objectives
                .iter()
                .copied()
                .zip(p.values.iter().copied())
                .collect(),
            parts: p.parts,
            assignment: assignment.then(|| p.partition.assignment().to_vec()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{GraphFormat, GraphSource, InstanceCache};
    use ff_core::ConfigError;

    fn sink_to_vec() -> (EventSink, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                lock(&self.0).extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        (EventSink::new(Box::new(Shared(buf.clone()))), buf)
    }

    fn metrics() -> Metrics {
        Metrics::new(ff_obs::Registry::new(), ff_obs::Logger::off())
    }

    fn events_from(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<Event> {
        let bytes = lock(buf);
        let text = String::from_utf8(bytes.clone()).unwrap();
        text.lines().map(|l| Event::parse(l).unwrap()).collect()
    }

    fn grid_graph() -> Arc<Graph> {
        let cache = InstanceCache::new();
        // 4×4 grid METIS text via the generator + writer, so the test
        // exercises the same path a served instance takes.
        let g = ff_graph::generators::grid2d(4, 4);
        let mut text = Vec::new();
        ff_graph::io::write_metis(&g, &mut text).unwrap();
        let (graph, _) = cache
            .load(
                "grid",
                GraphSource::Data(String::from_utf8(text).unwrap()),
                GraphFormat::Metis,
            )
            .unwrap();
        graph
    }

    #[test]
    fn step_budgeted_job_is_deterministic_and_streams_improvements() {
        let graph = grid_graph();
        let gate = FairGate::new(1);
        let spec = JobRequest {
            steps: Some(3_000),
            seed: 5,
            ..JobRequest::new("grid", 2)
        };
        let run = || {
            let (sink, buf) = sink_to_vec();
            let token = CancelToken::new();
            let done = run_job(7, &spec, &graph, &gate, &token, &sink, &metrics(), |_| ());
            (done, events_from(&buf))
        };
        let (done_a, events_a) = run();
        let (done_b, events_b) = run();
        assert_eq!(done_a.status, JobStatus::Completed);
        assert_eq!(done_a.steps, 3_000);
        assert_eq!(done_a.value, done_b.value);
        assert_eq!(done_a.assignment, done_b.assignment);
        assert!(done_a.assignment.as_ref().unwrap().len() == 16);
        // The event stream ends with done, preceded by ≥1 improvement,
        // and improvement values are strictly decreasing.
        let improvements: Vec<f64> = events_a
            .iter()
            .filter_map(|e| match e {
                Event::Improvement(i) => Some(i.value),
                _ => None,
            })
            .collect();
        assert!(!improvements.is_empty());
        assert!(improvements.windows(2).all(|w| w[1] < w[0]));
        assert!(matches!(events_a.last(), Some(Event::Done(_))));
        // Improvement values (not timestamps) are deterministic too.
        let values_b: Vec<f64> = events_b
            .iter()
            .filter_map(|e| match e {
                Event::Improvement(i) => Some(i.value),
                _ => None,
            })
            .collect();
        assert_eq!(improvements, values_b);
        // The last streamed improvement equals the final value.
        assert_eq!(*improvements.last().unwrap(), done_a.value);
    }

    #[test]
    fn ensemble_job_matches_direct_solver_run() {
        let graph = grid_graph();
        let gate = FairGate::new(1);
        let spec = JobRequest {
            steps: Some(2_000),
            seed: 9,
            islands: 3,
            chunk: 256,
            ..JobRequest::new("grid", 2)
        };
        let (sink, _buf) = sink_to_vec();
        let token = CancelToken::new();
        let done = run_job(1, &spec, &graph, &gate, &token, &sink, &metrics(), |_| ());
        // The service drive must be bit-equal to driving ff-engine
        // directly with the same shape.
        let direct = Solver::on(&graph)
            .config(base_config(&spec))
            .islands(3)
            .threads(1)
            .migration_interval(256)
            .seed(9)
            .run()
            .unwrap();
        assert_eq!(done.value, direct.best_value);
        assert_eq!(
            done.assignment.as_deref().unwrap(),
            direct.best.assignment()
        );
        assert_eq!(done.steps, direct.steps);
        assert_eq!(done.migrations, direct.migrations_adopted);
        assert_eq!(done.status, JobStatus::Completed);
    }

    #[test]
    fn pareto_job_returns_the_library_front_end_to_end() {
        let graph = grid_graph();
        let gate = FairGate::new(1);
        let spec = JobRequest {
            steps: Some(3_000),
            seed: 4,
            islands: 4,
            chunk: 300,
            objectives: Some(vec![Objective::Cut, Objective::MCut]),
            ..JobRequest::new("grid", 2)
        };
        assert!(spec.is_pareto());
        let (sink, buf) = sink_to_vec();
        let token = CancelToken::new();
        let done = run_job(5, &spec, &graph, &gate, &token, &sink, &metrics(), |_| ());
        let front = done.pareto.as_ref().expect("pareto job carries a front");
        // The wire front must equal the library front exactly.
        let direct = spec.solver(&graph).start().unwrap();
        let mut direct = direct;
        while direct.advance_epoch() {}
        let lib = direct.harvest();
        let lib_front = lib.pareto.expect("library front");
        assert_eq!(front.len(), lib_front.points.len());
        for (wire, point) in front.iter().zip(&lib_front.points) {
            assert_eq!(wire.island, point.island);
            assert_eq!(wire.objective, point.objective);
            let values: Vec<f64> = wire.values.iter().map(|&(_, v)| v).collect();
            assert_eq!(values, point.values);
            assert_eq!(
                wire.assignment.as_deref().unwrap(),
                point.partition.assignment()
            );
        }
        // Front points are mutually non-dominated.
        for a in front {
            for b in front {
                let av: Vec<f64> = a.values.iter().map(|&(_, v)| v).collect();
                let bv: Vec<f64> = b.values.iter().map(|&(_, v)| v).collect();
                assert!(a.island == b.island || !ff_partition::dominates(&av, &bv));
            }
        }
        // Multi-objective improvements are tagged with their criterion.
        let improvements: Vec<Improvement> = events_from(&buf)
            .into_iter()
            .filter_map(|e| match e {
                Event::Improvement(i) => Some(i),
                _ => None,
            })
            .collect();
        assert!(!improvements.is_empty());
        assert!(improvements.iter().all(|i| i.objective.is_some()));
        // And the representative equals the front's best under the first
        // objective.
        assert_eq!(done.value, lib.best_value);
        assert_eq!(done.assignment.as_deref().unwrap(), lib.best.assignment());
    }

    /// The served improvement stream of a step-budgeted Pareto job,
    /// pinned: FNV-1a over every `improvement` event's island, step,
    /// value bits and objective, in stream order.
    #[test]
    fn served_improvement_stream_is_pinned() {
        let cache = InstanceCache::new();
        let g = ff_graph::generators::planted_partition(4, 30, 0.3, 0.02, 11);
        let mut text = Vec::new();
        ff_graph::io::write_metis(&g, &mut text).unwrap();
        let source = GraphSource::Data(String::from_utf8(text).unwrap());
        let (graph, _) = cache.load("pp", source, GraphFormat::Metis).unwrap();
        let spec = JobRequest {
            steps: Some(3_000),
            seed: 16,
            islands: 3,
            chunk: 256,
            objectives: Some(vec![Objective::Cut, Objective::MCut]),
            ..JobRequest::new("pp", 4)
        };
        let (sink, buf) = sink_to_vec();
        let token = CancelToken::new();
        let gate = FairGate::new(1);
        run_job(6, &spec, &graph, &gate, &token, &sink, &metrics(), |_| ());
        let mut digest = crate::cache::Fnv1a::new();
        let mut count = 0;
        for event in events_from(&buf) {
            if let Event::Improvement(i) = event {
                let objective = i.objective.map_or("-", |o| o.name());
                digest = digest
                    .eat(&(i.island as u64).to_le_bytes())
                    .eat(&i.step.to_le_bytes())
                    .eat(&i.value.to_bits().to_le_bytes())
                    .eat(objective.as_bytes());
                count += 1;
            }
        }
        assert_eq!((count, digest.finish()), (14, 0x4f0c_08da_ae55_4f74));
    }

    #[test]
    fn multilevel_job_is_deterministic_and_matches_direct_run() {
        let cache = InstanceCache::new();
        let g = ff_graph::generators::planted_partition(4, 30, 0.3, 0.02, 11);
        let mut text = Vec::new();
        ff_graph::io::write_metis(&g, &mut text).unwrap();
        let (graph, _) = cache
            .load(
                "pp",
                GraphSource::Data(String::from_utf8(text).unwrap()),
                GraphFormat::Metis,
            )
            .unwrap();
        let gate = FairGate::new(1);
        let spec = JobRequest {
            steps: Some(2_000),
            seed: 13,
            islands: 2,
            chunk: 256,
            multilevel: Some(30),
            ..JobRequest::new("pp", 4)
        };
        assert!(spec.solver(&graph).try_validate().is_ok());
        let run = || {
            let (sink, _buf) = sink_to_vec();
            let token = CancelToken::new();
            run_job(9, &spec, &graph, &gate, &token, &sink, &metrics(), |_| ())
        };
        let a = run();
        let b = run();
        assert_eq!(a.status, JobStatus::Completed);
        assert_eq!(a.value, b.value);
        assert_eq!(a.assignment, b.assignment);
        // The done assignment lives on the *fine* graph.
        assert_eq!(a.assignment.as_ref().unwrap().len(), 120);
        assert_eq!(a.parts, 4);
        // And the served drive is bit-equal to the engine's own run().
        let direct = spec.solver(&graph).run().unwrap();
        assert_eq!(a.value, direct.best_value);
        assert_eq!(a.assignment.as_deref().unwrap(), direct.best.assignment());
        assert_eq!(a.steps, direct.steps);
    }

    #[test]
    fn invalid_job_config_is_a_typed_error_not_a_panic() {
        let graph = grid_graph();
        // 17 parts on a 16-vertex graph: k > n.
        let spec = JobRequest {
            steps: Some(100),
            ..JobRequest::new("grid", 2)
        };
        assert!(spec.solver(&graph).try_validate().is_ok());
        let starved = JobRequest {
            steps: Some(100),
            islands: 0,
            ..JobRequest::new("grid", 2)
        };
        assert_eq!(
            starved.solver(&graph).try_validate(),
            Err(ConfigError::ZeroIslands)
        );
    }

    #[test]
    fn cancelled_job_returns_best_so_far_promptly() {
        let graph = grid_graph();
        let gate = FairGate::new(1);
        let spec = JobRequest {
            steps: Some(u64::MAX / 2),
            chunk: 128,
            ..JobRequest::new("grid", 2)
        };
        let (sink, buf) = sink_to_vec();
        let token = CancelToken::new();
        let canceller = token.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(120));
            canceller.cancel();
        });
        let started = Instant::now();
        let done = run_job(2, &spec, &graph, &gate, &token, &sink, &metrics(), |_| ());
        handle.join().unwrap();
        assert_eq!(done.status, JobStatus::Cancelled);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "cancel must be prompt"
        );
        assert!(done.value.is_finite(), "best-so-far must be returned");
        assert_eq!(done.parts, 2);
        assert!(matches!(events_from(&buf).last(), Some(Event::Done(_))));
    }

    #[test]
    fn deadline_job_stops_within_tolerance() {
        let graph = grid_graph();
        let gate = FairGate::new(1);
        let spec = JobRequest {
            deadline_ms: Some(250),
            ..JobRequest::new("grid", 2)
        };
        let (sink, _buf) = sink_to_vec();
        let token = CancelToken::new();
        let started = Instant::now();
        let done = run_job(3, &spec, &graph, &gate, &token, &sink, &metrics(), |_| ());
        let elapsed = started.elapsed();
        assert_eq!(done.status, JobStatus::Deadline);
        assert!(
            elapsed >= Duration::from_millis(250),
            "stopped early: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "deadline overshot: {elapsed:?}"
        );
        assert!(done.value.is_finite());
    }
}
