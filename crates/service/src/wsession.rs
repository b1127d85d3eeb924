//! Worker sessions: a shard of a distributed ensemble hosted in this
//! process, driven in lockstep by a remote coordinator.
//!
//! A coordinator splits a job's islands across worker processes and
//! drives them with the `w*` NDJSON ops: `wstart` creates a session (a
//! dedicated thread owning the islands),
//! `wadvance` runs one epoch on every island, `wmolecule`/`winject`
//! carry migration payloads across the process boundary, and `wharvest`
//! finalizes. The session thread validates that `wadvance` epochs arrive
//! in order — after a crash the coordinator replays its op log from
//! epoch 0 against a fresh session, and the check makes a divergent
//! replay fail loudly instead of silently desynchronizing.
//!
//! Determinism contract: an island's state is a pure function of its
//! seed and injection history. The shard is built by the [`Solver`]
//! builder — the islands, seeds and objectives an in-process run would
//! start — and its ops run through the engine's in-process
//! [`IslandSet`], [`LocalIslands`](ff_engine::LocalIslands), with
//! injected molecules rebuilt from their assignment on arrival. So a
//! distributed run is byte-identical to the single-process run with the
//! same seeds and epoch schedule.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use ff_engine::{IslandSet, Solver};
use ff_graph::Graph;
use ff_partition::Partition;

use crate::cache::PinnedGraph;
use crate::gate::FairGate;
use crate::job::EventSink;
use crate::protocol::{
    Event, MoleculeInfo, Request, WIslandResult, WIslandState, WNews, WorkerStart,
};
use crate::server::ServerState;

/// Injected failure for the fault-tolerance test harness, parsed from
/// the `FFPART_FAULT` environment variable as
/// `die|stall|truncate|garbage@EPOCH[,flag=PATH]`.
///
/// The fault fires when a `wadvance` for `EPOCH` arrives. With a flag
/// path it fires once: the file's existence means "already fired", so
/// the respawned worker replaying the same epochs sails past it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct FaultMode {
    kind: FaultKind,
    epoch: u64,
    flag: Option<PathBuf>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultKind {
    /// Exit the process before replying.
    Die,
    /// Stop replying but stay alive (hung worker).
    Stall,
    /// Write half a reply line, then exit (death mid-message).
    Truncate,
    /// Write a non-JSON line instead of the reply, then keep serving.
    Garbage,
}

impl FaultMode {
    pub(crate) fn from_env() -> Option<FaultMode> {
        FaultMode::parse(&std::env::var("FFPART_FAULT").ok()?)
    }

    pub(crate) fn parse(spec: &str) -> Option<FaultMode> {
        let mut fields = spec.split(',');
        let (kind, epoch) = fields.next()?.split_once('@')?;
        let kind = match kind {
            "die" => FaultKind::Die,
            "stall" => FaultKind::Stall,
            "truncate" => FaultKind::Truncate,
            "garbage" => FaultKind::Garbage,
            _ => return None,
        };
        let epoch = epoch.parse().ok()?;
        let mut flag = None;
        for field in fields {
            flag = Some(PathBuf::from(field.strip_prefix("flag=")?));
        }
        Some(FaultMode { kind, epoch, flag })
    }

    /// True if the fault should fire now; marks the flag file so a
    /// replayed epoch doesn't re-fire.
    fn fire_once(&self, epoch: u64) -> bool {
        if epoch != self.epoch {
            return false;
        }
        if let Some(flag) = &self.flag {
            if flag.exists() {
                return false;
            }
            let _ = std::fs::File::create(flag);
        }
        true
    }
}

/// Validates a `wstart` and spawns its session thread. On success the
/// thread itself emits `wready`; errors are returned for the handler to
/// report.
pub(crate) fn start_session(
    state: &Arc<ServerState>,
    start: WorkerStart,
    sink: &EventSink,
    sessions: &mut HashMap<u64, Sender<Request>>,
) -> Result<(), String> {
    if sessions.contains_key(&start.session) {
        return Err(format!("wstart: session {} already active", start.session));
    }
    let Some(graph) = state.cache.pin(&start.instance) else {
        return Err(format!(
            "unknown instance `{}` (load it first)",
            start.instance
        ));
    };
    shard_solver(&start, graph.graph())
        .try_validate()
        .map_err(|e| format!("invalid session configuration: {e}"))?;
    let (tx, rx) = std::sync::mpsc::channel();
    let session = start.session;
    let gate = Arc::clone(&state.gate);
    let sink = sink.clone();
    let fault = FaultMode::from_env();
    std::thread::Builder::new()
        .name(format!("ff-wsession-{session}"))
        .spawn(move || run_session(start, graph, gate, sink, rx, fault))
        .map_err(|e| format!("failed to spawn session thread: {e}"))?;
    sessions.insert(session, tx);
    Ok(())
}

/// Routes a session op (`wadvance`, `wmolecule`, `winject`, `wharvest`)
/// to its session thread, which replies; errors (unknown or ended
/// session) are returned for the handler to report. A forwarded
/// `wharvest` ends the session.
pub(crate) fn forward(
    sessions: &mut HashMap<u64, Sender<Request>>,
    session: u64,
    op: Request,
) -> Result<(), String> {
    let ends = matches!(op, Request::WHarvest { .. });
    let Some(tx) = sessions.get(&session) else {
        return Err(format!("unknown worker session {session}"));
    };
    let sent = tx.send(op).is_ok();
    if ends || !sent {
        sessions.remove(&session);
    }
    if sent {
        Ok(())
    } else {
        Err(format!("worker session {session} has ended"))
    }
}

/// The [`Solver`] a `wstart` describes: the standard paper parameters
/// for k, one island per seed under its objective, and a pure step
/// budget — the islands the coordinator's in-process twin would start.
/// Capped at one thread, so the session advances its islands on its own
/// thread under its one gate permit.
fn shard_solver<'g>(start: &WorkerStart, g: &'g Graph) -> Solver<'g> {
    Solver::on(g)
        .k(start.k)
        .steps(start.steps)
        .islands(start.seeds.len())
        .island_seeds(start.seeds.clone())
        .objectives(start.objectives.clone())
        .threads(1)
}

/// The session thread: owns the islands, answers ops in FIFO order.
/// Exits when the op channel closes (connection gone) or after
/// `wharvest`.
fn run_session(
    start: WorkerStart,
    graph: PinnedGraph,
    gate: Arc<FairGate>,
    sink: EventSink,
    rx: Receiver<Request>,
    fault: Option<FaultMode>,
) {
    let session = start.session;
    let g: &Graph = graph.graph();
    // `start_session` validated this configuration before spawning us.
    let mut shard = match shard_solver(&start, g).start() {
        Ok(run) => run.into_islands(),
        Err(e) => {
            let _ = sink.send(&Event::Error {
                message: format!("invalid session configuration: {e}"),
                job: None,
            });
            return;
        }
    };
    let count = shard.runs().len();
    let mut next_epoch = 0u64;
    if sink
        .send(&Event::WReady {
            session,
            islands: count,
        })
        .is_err()
    {
        return;
    }
    while let Ok(op) = rx.recv() {
        let reply = match op {
            Request::WAdvance { epoch, steps, .. } => {
                if let Some(f) = &fault {
                    if f.fire_once(epoch) {
                        match f.kind {
                            FaultKind::Die => std::process::exit(3),
                            FaultKind::Stall => loop {
                                std::thread::sleep(std::time::Duration::from_secs(3600));
                            },
                            FaultKind::Truncate => {
                                let line = Event::WState {
                                    session,
                                    epoch,
                                    islands: vec![],
                                }
                                .to_value()
                                .to_string();
                                sink.send_raw_partial(&line.as_bytes()[..line.len() / 2]);
                                std::process::exit(3);
                            }
                            FaultKind::Garbage => {
                                sink.send_raw_partial(b"%% not json %%\n");
                                continue;
                            }
                        }
                    }
                }
                if epoch != next_epoch {
                    Event::Error {
                        message: format!("wadvance: expected epoch {next_epoch}, got {epoch}"),
                        job: None,
                    }
                } else {
                    let Ok(reports) = {
                        let _permit = gate.acquire();
                        shard.advance(steps)
                    };
                    let islands = reports
                        .into_iter()
                        .enumerate()
                        .map(|(island, r)| WIslandState {
                            island,
                            more: r.more,
                            energy: r.energy,
                            steps: r.steps,
                            news: r
                                .news
                                .iter()
                                .map(|p| WNews {
                                    step: p.step,
                                    value: p.value,
                                    elapsed_ms: p.elapsed.as_millis() as u64,
                                })
                                .collect(),
                        })
                        .collect();
                    next_epoch += 1;
                    Event::WState {
                        session,
                        epoch,
                        islands,
                    }
                }
            }
            Request::WMolecule { island, .. } | Request::WInject { island, .. }
                if island >= count =>
            {
                Event::Error {
                    message: format!("island {island} out of range (session has {count})"),
                    job: None,
                }
            }
            Request::WMolecule { island, .. } => {
                let run = &shard.runs()[island];
                let p = run.best_molecule();
                Event::WMolecule {
                    session,
                    island,
                    molecule: MoleculeInfo {
                        assignment: p.assignment().to_vec(),
                        parts: p.num_parts(),
                    },
                    energy: run.best_energy(),
                }
            }
            Request::WInject {
                island,
                molecule,
                crossover,
                ..
            } => {
                if molecule.assignment.len() != g.num_vertices() {
                    Event::Error {
                        message: format!(
                            "winject: molecule has {} vertices, instance has {}",
                            molecule.assignment.len(),
                            g.num_vertices()
                        ),
                        job: None,
                    }
                } else {
                    let p = Partition::from_assignment(g, molecule.assignment, molecule.parts);
                    let Ok(adopted) = shard.inject(island, &p, crossover);
                    Event::WInjected {
                        session,
                        island,
                        adopted,
                    }
                }
            }
            Request::WHarvest { .. } => {
                let Ok(results) = shard.harvest();
                let islands = results
                    .into_iter()
                    .enumerate()
                    .map(|(i, r)| WIslandResult {
                        island: i,
                        value: r.best_value,
                        energy: r.best_energy,
                        steps: r.steps,
                        molecule: MoleculeInfo {
                            assignment: r.best.assignment().to_vec(),
                            parts: r.best.num_parts(),
                        },
                        per_k: r
                            .best_value_per_k
                            .iter()
                            .map(|(&k, &v)| (k as u64, v))
                            .collect(),
                    })
                    .collect();
                let _ = sink.send(&Event::WHarvested { session, islands });
                return;
            }
            _ => continue, // `forward` routes only session ops
        };
        if sink.send(&reply).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_parses_kind_epoch_and_flag() {
        let f = FaultMode::parse("die@3").unwrap();
        assert_eq!(
            f,
            FaultMode {
                kind: FaultKind::Die,
                epoch: 3,
                flag: None
            }
        );
        let f = FaultMode::parse("truncate@0,flag=/tmp/x").unwrap();
        assert_eq!(f.kind, FaultKind::Truncate);
        assert_eq!(f.epoch, 0);
        assert_eq!(f.flag.as_deref(), Some(std::path::Path::new("/tmp/x")));
        assert!(FaultMode::parse("explode@1").is_none());
        assert!(FaultMode::parse("die").is_none());
        assert!(FaultMode::parse("die@x").is_none());
        assert!(FaultMode::parse("die@1,bogus=2").is_none());
    }

    #[test]
    fn flag_file_makes_fault_fire_exactly_once() {
        let dir = std::env::temp_dir().join(format!("ff-fault-{}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        let f = FaultMode {
            kind: FaultKind::Die,
            epoch: 2,
            flag: Some(dir.clone()),
        };
        assert!(!f.fire_once(1), "wrong epoch never fires");
        assert!(f.fire_once(2), "armed fault fires");
        assert!(!f.fire_once(2), "flag file suppresses the replayed epoch");
        let _ = std::fs::remove_file(&dir);
    }
}
