//! The [`Solver`] builder — the one front door to the fusion–fission
//! engine.
//!
//! The builder is one fluent, validated configuration path for a single
//! search or a whole island ensemble, with one strategy seam,
//! [`MigrationPolicy`] (what moves between islands, and when). How the
//! harvested islands become one result follows from their objectives: a
//! minimum under one, a Pareto front under several
//! ([`EnsembleResult::pareto`]).
//!
//! ```
//! use ff_engine::Solver;
//! use ff_graph::generators::planted_partition;
//!
//! let g = planted_partition(4, 10, 0.85, 0.03, 5);
//! let result = Solver::on(&g)
//!     .k(4)
//!     .islands(3)
//!     .steps(2_000)
//!     .seed(42)
//!     .run()
//!     .unwrap();
//! assert_eq!(result.best.num_nonempty_parts(), 4);
//! ```

use crate::ensemble::EnsembleResult;
use crate::epoch::{Epoch, EpochLoop, LocalIslands};
use crate::migration::{MigrationPolicy, ReplaceIfBetter};
use crate::multilevel::{MultilevelInfo, MultilevelOpts};
use crate::obs::{record_coarsen, record_level_reports, EngineObs};
use crate::reduction::ParetoResult;
use crate::seeds::derive_seeds;
use ff_core::{ConfigError, FusionFission, FusionFissionConfig, FusionFissionRun};
use ff_graph::Graph;
use ff_metaheur::{CancelToken, StopCondition};
use ff_multilevel::{Vcycle, VcycleOpts};
use ff_partition::Objective;

/// The distinct objectives of a per-island cycle list, in first-
/// appearance order — the axis order of any Pareto front built over it.
pub fn distinct_objectives(list: &[Objective]) -> Vec<Objective> {
    let mut distinct = Vec::new();
    for &o in list {
        if !distinct.contains(&o) {
            distinct.push(o);
        }
    }
    distinct
}

/// Minimum island count so that cycling `list` over the islands gives
/// every distinct objective at least one island: the index of the last
/// first occurrence, plus one. (`[Cut, Cut, MCut]` needs 3 islands —
/// with 2, MCut would silently never be optimized.)
pub fn islands_to_cover(list: &[Objective]) -> usize {
    let mut seen = Vec::new();
    let mut needed = 0;
    for (i, &o) in list.iter().enumerate() {
        if !seen.contains(&o) {
            seen.push(o);
            needed = i + 1;
        }
    }
    needed
}

/// Fluent, validated configuration for a fusion–fission run — one island
/// or a whole migration ensemble. Build with [`Solver::on`], configure,
/// then [`Solver::run`] (one-shot) or [`Solver::start`] (resumable
/// [`SolverRun`]).
pub struct Solver<'g> {
    g: &'g Graph,
    base: FusionFissionConfig,
    islands: usize,
    max_threads: usize,
    migration_interval: u64,
    migration: Box<dyn MigrationPolicy>,
    seed: u64,
    island_seeds: Option<Vec<u64>>,
    objectives: Option<Vec<Objective>>,
    multilevel: Option<MultilevelOpts>,
    obs: Option<ff_obs::Registry>,
}

impl<'g> Solver<'g> {
    /// A solver on `g` with the paper-faithful defaults: single island,
    /// Mcut, seed 1, [`ReplaceIfBetter`] migration every 1024 steps. `k`
    /// **must** be set before starting.
    pub fn on(g: &'g Graph) -> Solver<'g> {
        Solver {
            g,
            base: FusionFissionConfig::standard(0),
            islands: 1,
            max_threads: 0,
            migration_interval: 1024,
            migration: Box::new(ReplaceIfBetter),
            seed: 1,
            island_seeds: None,
            objectives: None,
            multilevel: None,
            obs: None,
        }
    }

    /// Target part count (required).
    pub fn k(mut self, k: usize) -> Self {
        self.base.k = k;
        self
    }

    /// The objective every island minimizes (default Mcut). For
    /// per-island overrides see [`Solver::objectives`].
    pub fn objective(mut self, objective: Objective) -> Self {
        self.base.objective = objective;
        self.objectives = None;
        self
    }

    /// Per-island objective overrides: island `i` minimizes
    /// `objectives[i % len]`, so 4 islands over `[Cut, MCut]` run two of
    /// each. With more than one distinct objective the result carries the
    /// Pareto front of the islands ([`EnsembleResult::pareto`]).
    pub fn objectives(mut self, objectives: impl Into<Vec<Objective>>) -> Self {
        self.objectives = Some(objectives.into());
        self
    }

    /// Island count (default 1).
    pub fn islands(mut self, islands: usize) -> Self {
        self.islands = islands;
        self
    }

    /// Concurrent OS threads per epoch; `0` (default) means one per
    /// island. A single island, or any island under a cap of 1, runs on
    /// the calling thread. Results are identical for any cap under step
    /// budgets.
    pub fn threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// The migration policy (default [`ReplaceIfBetter`]).
    pub fn migration(mut self, policy: impl MigrationPolicy + 'static) -> Self {
        self.migration = Box::new(policy);
        self
    }

    /// Steps each island advances between migration barriers (default
    /// 1024); `0` disables migration (pure independent multi-start).
    pub fn migration_interval(mut self, interval: u64) -> Self {
        self.migration_interval = interval;
        self
    }

    /// Root RNG seed (default 1). Island seeds are derived from it with
    /// [`derive_seeds`] unless [`Solver::island_seeds`] overrides them.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Explicit per-island seeds, bypassing root-seed derivation — how a
    /// single-island solver reproduces a plain
    /// `FusionFission::new(g, cfg, seed)` run bit-for-bit. Must match the
    /// island count.
    pub fn island_seeds(mut self, seeds: impl Into<Vec<u64>>) -> Self {
        self.island_seeds = Some(seeds.into());
        self
    }

    /// Step budget per island (a convenience over [`Solver::stop`]).
    pub fn steps(mut self, steps: u64) -> Self {
        self.base.stop = StopCondition::steps(steps);
        self
    }

    /// Full stop condition per island (steps and/or wall-clock).
    pub fn stop(mut self, stop: StopCondition) -> Self {
        self.base.stop = stop;
        self
    }

    /// Multilevel acceleration: coarsen the graph, run the (unchanged)
    /// ensemble on the coarse graph, then uncoarsen with per-level greedy
    /// refinement. Only [`Solver::run`] / [`Solver::run_with`] support it
    /// — the V-cycle owns the epoch loop, so [`Solver::start`] rejects it
    /// with [`ConfigError::MultilevelNotResumable`].
    pub fn multilevel(mut self, opts: MultilevelOpts) -> Self {
        self.multilevel = Some(opts);
        self
    }

    /// Attaches a metrics registry. Observation-only — partition bytes,
    /// RNG streams and epoch chunking are identical with or without it
    /// (test-asserted). Registered families, per epoch barrier:
    /// `ff_engine_epochs_total`, `ff_engine_epoch_ms`,
    /// `ff_engine_migration_offers_total{policy}`,
    /// `ff_engine_migration_accepts_total{policy}`,
    /// `ff_engine_migration_rejects_total{policy}`,
    /// `ff_engine_improvement_delta`, and — under
    /// [`Solver::multilevel`] — `ff_engine_coarsen_ms` (once per run),
    /// `ff_engine_level_refine_ms` and `ff_engine_refine_moves_total`.
    pub fn observe(mut self, registry: ff_obs::Registry) -> Self {
        self.obs = Some(registry);
        self
    }

    /// Full control over the per-island search configuration (presets,
    /// temperatures, ablation switches). Overwrites `k`, `objective` and
    /// the stop condition, so call it *before* those builder methods.
    pub fn config(mut self, base: FusionFissionConfig) -> Self {
        self.base = base;
        self
    }

    /// Validates the whole configuration without starting anything.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        self.base.try_validate()?;
        let vertices = self.g.num_vertices();
        if self.base.k > vertices {
            return Err(ConfigError::KExceedsVertices {
                k: self.base.k,
                vertices,
            });
        }
        if self.islands == 0 {
            return Err(ConfigError::ZeroIslands);
        }
        if let Some(seeds) = &self.island_seeds {
            if seeds.len() != self.islands {
                return Err(ConfigError::SeedCountMismatch {
                    islands: self.islands,
                    seeds: seeds.len(),
                });
            }
        }
        if let Some(objectives) = &self.objectives {
            if objectives.is_empty() {
                return Err(ConfigError::NoObjectives);
            }
            let needed = islands_to_cover(objectives);
            if self.islands < needed {
                return Err(ConfigError::UncoveredObjectives {
                    islands: self.islands,
                    needed,
                });
            }
        }
        if let Some(ml) = &self.multilevel {
            if ml.coarsen_until == 0 {
                return Err(ConfigError::ZeroCoarsenTarget);
            }
        }
        Ok(())
    }

    /// Builds the live, resumable run, or reports the first
    /// configuration error. Rejects multilevel configurations
    /// ([`ConfigError::MultilevelNotResumable`]): the V-cycle owns the
    /// epoch loop, so multilevel runs go through [`Solver::run`] or
    /// [`Solver::run_with`].
    pub fn start(self) -> Result<SolverRun<'g>, ConfigError> {
        if self.multilevel.is_some() {
            return Err(ConfigError::MultilevelNotResumable);
        }
        self.start_flat()
    }

    /// The flat start path — `self.multilevel` must already be `None` or
    /// stripped (the coarse solver inside [`Solver::run_with`]).
    fn start_flat(self) -> Result<SolverRun<'g>, ConfigError> {
        self.try_validate()?;
        let n = self.islands;
        let seeds = match self.island_seeds {
            Some(seeds) => seeds,
            None => derive_seeds(self.seed, n),
        };
        let per_island: Vec<Objective> = match &self.objectives {
            Some(list) => (0..n).map(|i| list[i % list.len()]).collect(),
            None => vec![self.base.objective; n],
        };
        let runs: Vec<FusionFissionRun<'g>> = seeds
            .iter()
            .zip(&per_island)
            .map(|(&seed, &objective)| {
                let cfg = FusionFissionConfig {
                    objective,
                    ..self.base
                };
                FusionFission::new(self.g, cfg, seed).start()
            })
            .collect();
        let obs = self
            .obs
            .as_ref()
            .map(|registry| EngineObs::new(registry, self.migration.name(), n));
        let islands = LocalIslands {
            runs,
            max_threads: self.max_threads,
            reported: vec![0; n],
        };
        Ok(SolverRun {
            g: self.g,
            epochs: EpochLoop::new(islands, per_island, self.migration_interval, self.migration),
            obs,
            last: Epoch::default(),
        })
    }

    /// Runs to every island's stop condition and reduces. Without
    /// [`Solver::multilevel`] this is equivalent to [`Solver::start`] +
    /// [`SolverRun::advance_epoch`] to exhaustion + [`SolverRun::harvest`]
    /// (bit-equal; both paths drive the same epoch code). With it, the
    /// ensemble runs on the coarse graph and the winner is uncoarsened
    /// with per-level refinement.
    pub fn run(self) -> Result<EnsembleResult, ConfigError> {
        self.run_with(|run| while run.advance_epoch() {})
    }

    /// Like [`Solver::run`], but the caller drives the epoch loop: `drive`
    /// receives the live [`SolverRun`] (the *coarse* run under
    /// [`Solver::multilevel`]) and advances it however it likes —
    /// streaming traces, checking deadlines, binding cancellation.
    /// Harvest (and, for multilevel, uncoarsening) happens after `drive`
    /// returns.
    pub fn run_with<D>(mut self, mut drive: D) -> Result<EnsembleResult, ConfigError>
    where
        D: for<'a> FnMut(&mut SolverRun<'a>),
    {
        self.try_validate()?;
        let Some(opts) = self.multilevel.take() else {
            let mut run = self.start_flat()?;
            drive(&mut run);
            return Ok(run.harvest());
        };
        let g = self.g;
        let base = self.base;
        let coarsen_start = self.obs.as_ref().map(|_| std::time::Instant::now());
        let vc = Vcycle::new(
            g,
            VcycleOpts {
                coarsen_until: opts.coarsen_until,
                refine_passes: opts.refine_passes,
                seed: self.seed,
                min_coarse_vertices: base.k.max(2),
            },
        );
        if let (Some(registry), Some(start)) = (&self.obs, coarsen_start) {
            record_coarsen(registry, start.elapsed());
        }
        let obs_registry = self.obs.clone();
        let (islands, seed) = (self.islands, self.seed);
        let coarse_solver = Solver {
            g: vc.coarsest(),
            base,
            islands,
            max_threads: self.max_threads,
            migration_interval: self.migration_interval,
            migration: self.migration,
            seed,
            island_seeds: self.island_seeds,
            objectives: self.objectives,
            multilevel: None,
            obs: self.obs,
        };
        let mut run = coarse_solver.start_flat()?;
        drive(&mut run);
        let mut res = run.harvest();
        let refine = |partition, objective| {
            let (fine, reports) = vc.refine_up(partition, objective);
            if let Some(registry) = &obs_registry {
                record_level_reports(registry, &reports);
            }
            (fine, reports)
        };
        let reports = if let Some(coarse) = res.pareto.take() {
            // Refine every front point under its own objective, then build
            // the front again on the fine graph: refinement can change
            // domination.
            let refined: Vec<_> = coarse
                .points
                .iter()
                .map(|pt| (pt.island, pt.objective, refine(&pt.partition, pt.objective)))
                .collect();
            let molecules = refined.iter().map(|(i, o, (fine, _))| (*i, *o, fine));
            let front = ParetoResult::new(g, &coarse.objectives, molecules);
            let mut rep_reports = Vec::new();
            if let Some(rep) = front.best_under(front.objectives[0]) {
                let axis = front
                    .objectives
                    .iter()
                    .position(|&o| o == rep.objective)
                    .unwrap_or(0);
                res.best = rep.partition.clone();
                res.best_value = rep.values[axis];
                res.best_island = rep.island;
                let own = refined.into_iter().find(|&(i, ..)| i == rep.island);
                rep_reports = own.map(|(.., (_, reports))| reports).unwrap_or_default();
            }
            res.pareto = Some(front);
            rep_reports
        } else {
            // Refine the winning partition under the winning island's own
            // objective.
            let win_obj = res.islands[res.best_island]
                .trace
                .tag()
                .unwrap_or(base.objective);
            let (fine, reports) = refine(&res.best, win_obj);
            res.best_value = reports
                .last()
                .map(|r| r.value_after)
                .unwrap_or(res.best_value);
            res.best = fine;
            reports
        };
        res.multilevel = Some(MultilevelInfo {
            levels: vc.num_levels(),
            coarse_vertices: vc.coarsest().num_vertices(),
            reports,
        });
        Ok(res)
    }
}

/// A live, resumable solver run: the [`EpochLoop`] over [`LocalIslands`].
/// Islands advance in lockstep epochs and exchange molecules at each
/// barrier under the migration policy. Produced by [`Solver::start`];
/// drive with [`SolverRun::advance_epoch`], read each epoch's island
/// reports through [`SolverRun::last_epoch`], harvest with
/// [`SolverRun::harvest`].
///
/// ## Determinism
///
/// With a step-based stop condition the result is byte-identical across
/// repeated runs and across any [`Solver::threads`] cap, for every
/// migration policy: island seeds are pure functions of the root seed,
/// epochs are barriers, and policies act only on barrier-time island
/// state.
pub struct SolverRun<'g> {
    g: &'g Graph,
    epochs: EpochLoop<LocalIslands<'g>>,
    obs: Option<EngineObs>,
    last: Epoch,
}

impl<'g> SolverRun<'g> {
    /// One epoch of the [`EpochLoop`]: every island advances by the
    /// policy's interval (in waves of at most the configured thread cap),
    /// then the policy's exchange runs at the barrier. Returns `true`
    /// while at least one island has work left, `false` once all islands
    /// hit their stop conditions or a bound [`CancelToken`] fired.
    pub fn advance_epoch(&mut self) -> bool {
        let epoch_start = self.obs.as_ref().map(|_| std::time::Instant::now());
        let Ok(epoch) = self.epochs.advance_epoch();
        self.last = epoch;
        if let (Some(obs), Some(start)) = (&mut self.obs, epoch_start) {
            obs.record_epoch(start.elapsed(), &self.last);
        }
        self.last.more
    }

    /// What the last [`advance_epoch`](SolverRun::advance_epoch) did,
    /// with every island's barrier report: the streaming tap. Each
    /// island's trace points reach exactly one report, tagged with that
    /// island's objective. Empty before the first epoch.
    pub fn last_epoch(&self) -> &Epoch {
        &self.last
    }

    /// Binds one cooperative cancellation token to every island: when it
    /// fires, the in-flight epoch ends at each island's next step check
    /// and [`advance_epoch`](SolverRun::advance_epoch) returns `false`.
    pub fn bind_cancel(&mut self, token: CancelToken) {
        for run in &mut self.epochs.islands.runs {
            run.bind_cancel(token.clone());
        }
    }

    /// The islands without their scheduler — how a worker session hosts
    /// its shard of a distributed run, whose coordinator owns the epoch
    /// loop.
    pub fn into_islands(self) -> LocalIslands<'g> {
        self.epochs.islands
    }

    /// Whether every island has finished (stop condition or cancellation).
    pub fn finished(&self) -> bool {
        self.epochs.islands.runs.iter().all(|r| r.finished())
    }

    /// Total steps executed so far across all islands.
    pub fn total_steps(&self) -> u64 {
        self.epochs.islands.runs.iter().map(|r| r.steps()).sum()
    }

    /// Best objective value held at the target k so far, minimized across
    /// islands (`None` until some island first visits the target k). Only
    /// meaningful for single-objective runs — mixed-objective values are
    /// not comparable.
    pub fn best_value_at_target(&self) -> Option<f64> {
        let runs = self.epochs.islands.runs.iter();
        runs.filter_map(|r| r.best_at_target().map(|(v, _)| v))
            .min_by(f64::total_cmp)
    }

    /// Consumes the run, harvesting every island and reducing them by the
    /// run's objectives ([`EpochLoop::harvest`]).
    pub fn harvest(self) -> EnsembleResult {
        let Ok(result) = self.epochs.harvest(self.g);
        result
    }
}
