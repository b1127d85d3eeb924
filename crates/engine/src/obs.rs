//! Engine-side observability: the registry handles behind
//! [`Solver::observe`](crate::Solver::observe).
//!
//! Everything here is **observation-only**: the epoch loop reports what
//! it planned and what was adopted, with every island's barrier report,
//! and [`EngineObs::record_epoch`] only counts it, so the decision
//! stream — and therefore every partition byte — is identical with and
//! without observation. The test suite pins that contract.

use crate::epoch::Epoch;
use ff_multilevel::LevelReport;
use ff_obs::{Counter, Histogram, Registry};
use std::time::Duration;

/// Upper bounds (ms) for epoch-advance, coarsening and per-level refine
/// timings.
const TIMING_BUCKET_MS: [f64; 5] = [1.0, 10.0, 100.0, 1000.0, 10000.0];

/// Upper bounds for trace-point improvement deltas (objective units).
const IMPROVEMENT_BUCKETS: [f64; 5] = [1e-4, 1e-3, 1e-2, 1e-1, 1.0];

/// Per-run registry handles plus each island's last trace value, which
/// turns the island's reported trace points into improvement deltas.
pub(crate) struct EngineObs {
    epochs: Counter,
    epoch_ms: Histogram,
    offers: Counter,
    accepts: Counter,
    rejects: Counter,
    improvement: Histogram,
    /// Per-island last trace value, the minuend of the next delta.
    last_value: Vec<Option<f64>>,
}

impl EngineObs {
    /// Registers the engine metric families on `registry` (idempotent —
    /// several runs may share one registry) and returns fresh handles.
    pub(crate) fn new(registry: &Registry, policy: &'static str, islands: usize) -> EngineObs {
        let labels = [("policy", policy)];
        EngineObs {
            epochs: registry.counter("ff_engine_epochs_total", "Epoch barriers crossed"),
            epoch_ms: registry.histogram(
                "ff_engine_epoch_ms",
                "Wall-clock milliseconds per epoch (island waves + exchange)",
                &TIMING_BUCKET_MS,
            ),
            offers: registry.counter_with(
                "ff_engine_migration_offers_total",
                "Migration offers the policy planned at exchange barriers",
                &labels,
            ),
            accepts: registry.counter_with(
                "ff_engine_migration_accepts_total",
                "Planned migration injections the receiver adopted",
                &labels,
            ),
            rejects: registry.counter_with(
                "ff_engine_migration_rejects_total",
                "Planned migration injections the receiver declined",
                &labels,
            ),
            improvement: registry.histogram(
                "ff_engine_improvement_delta",
                "Objective improvement per island trace point",
                &IMPROVEMENT_BUCKETS,
            ),
            last_value: vec![None; islands],
        }
    }

    /// Records one epoch: timing, the offers planned, accept/reject
    /// accounting over the receiver pairs planned, and the trace points
    /// each island reported.
    pub(crate) fn record_epoch(&mut self, elapsed: Duration, epoch: &Epoch) {
        self.epochs.inc();
        self.epoch_ms.observe(elapsed.as_secs_f64() * 1e3);
        self.offers.add(epoch.offers);
        self.accepts.add(epoch.adopted);
        self.rejects.add(epoch.pairs - epoch.adopted);
        for (report, last) in epoch.islands.iter().zip(&mut self.last_value) {
            for pt in &report.news {
                if let Some(prev) = *last {
                    let delta = prev - pt.value;
                    if delta.is_finite() && delta >= 0.0 {
                        self.improvement.observe(delta);
                    }
                }
                *last = Some(pt.value);
            }
        }
    }
}

/// Records one multilevel run's coarsening (`Vcycle::new`) time.
pub(crate) fn record_coarsen(registry: &Registry, elapsed: Duration) {
    registry
        .histogram(
            "ff_engine_coarsen_ms",
            "Wall-clock milliseconds coarsening the input, once per multilevel run",
            &TIMING_BUCKET_MS,
        )
        .observe(elapsed.as_secs_f64() * 1e3);
}

/// Records per-level V-cycle refinement work from [`LevelReport`]s.
pub(crate) fn record_level_reports(registry: &Registry, reports: &[LevelReport]) {
    let refine_ms = registry.histogram(
        "ff_engine_level_refine_ms",
        "Wall-clock milliseconds per uncoarsening level (projection + refinement)",
        &TIMING_BUCKET_MS,
    );
    let moves = registry.counter(
        "ff_engine_refine_moves_total",
        "Vertex moves applied by the per-level greedy refiner",
    );
    for r in reports {
        refine_ms.observe(r.refine_ms as f64);
        moves.add(r.moves as u64);
    }
}
