//! Anytime behaviour: best-so-far traces, stop conditions, result types.
//!
//! Figure 1 of the paper plots the best Mcut each metaheuristic holds as a
//! function of wall-clock time (log scale, 1 s → 60 m). Every metaheuristic
//! in this suite therefore records a [`TracePoint`] whenever its best
//! solution improves; the figure harness samples these traces at the
//! paper's checkpoints.

use ff_partition::{Objective, Partition};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One improvement event: after `elapsed`, the best objective was `value`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TracePoint {
    /// Wall-clock time since the run started.
    pub elapsed: Duration,
    /// Best objective value held at that moment.
    pub value: f64,
    /// Steps executed so far.
    pub step: u64,
    /// Which criterion `value` measures, when the producing trace was
    /// tagged ([`AnytimeTrace::with_tag`]) — how multi-objective
    /// ensembles keep provenance through [`AnytimeTrace::merged`], and
    /// how a consumer of an island's reported points tells the island's
    /// objective. Every fusion–fission run tags its trace.
    pub objective: Option<Objective>,
}

/// A best-so-far trace.
#[derive(Clone, Debug, Default)]
pub struct AnytimeTrace {
    points: Vec<TracePoint>,
    tag: Option<Objective>,
}

impl AnytimeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty trace whose future points are all stamped with
    /// `objective` — used by runs inside a mixed-objective ensemble so a
    /// merged stream stays attributable.
    pub fn with_tag(objective: Objective) -> Self {
        AnytimeTrace {
            points: Vec::new(),
            tag: Some(objective),
        }
    }

    /// The objective this trace is tagged with, if any.
    pub fn tag(&self) -> Option<Objective> {
        self.tag
    }

    /// Appends an improvement event (stamped with the trace's tag).
    pub fn record(&mut self, elapsed: Duration, value: f64, step: u64) {
        debug_assert!(
            self.points.last().is_none_or(|p| value <= p.value),
            "trace must be non-increasing"
        );
        self.points.push(TracePoint {
            elapsed,
            value,
            step,
            objective: self.tag,
        });
    }

    /// All improvement events, chronological.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// Number of improvement events recorded so far.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no improvement has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The events recorded at or after index `from` (none if `from` is out
    /// of range) — the streaming tap: a consumer that counts the points it
    /// has read observes every improvement exactly once, as it happens.
    pub fn points_since(&self, from: usize) -> &[TracePoint] {
        self.points.get(from..).unwrap_or(&[])
    }

    /// Best value held at time `t` (the last improvement at or before `t`),
    /// or `None` if nothing was recorded by then.
    pub fn value_at(&self, t: Duration) -> Option<f64> {
        self.points
            .iter()
            .take_while(|p| p.elapsed <= t)
            .last()
            .map(|p| p.value)
    }

    /// Final best value, or `None` for an empty trace.
    pub fn final_value(&self) -> Option<f64> {
        self.points.last().map(|p| p.value)
    }

    /// Merges best-so-far traces from parallel runs (ensemble islands)
    /// into the ensemble-level best-so-far trace.
    ///
    /// All points are ordered by `step`, points at equal steps in argument
    /// order, and only strictly-improving values are kept, so the result
    /// is non-increasing like any single trace. Islands advance in
    /// lockstep epochs, so their step counts are comparable, and the
    /// merged points are a function of the input points alone, never of
    /// thread timing. Each point keeps its wall-clock `elapsed` as a
    /// reporting field; it plays no part in the order.
    pub fn merged<'a, I>(traces: I) -> AnytimeTrace
    where
        I: IntoIterator<Item = &'a AnytimeTrace>,
    {
        let mut pts: Vec<TracePoint> = traces
            .into_iter()
            .flat_map(|t| t.points.iter().copied())
            .collect();
        pts.sort_by_key(|p| p.step); // stable: argument order breaks ties
        let mut out = AnytimeTrace::new();
        let mut best = f64::INFINITY;
        for p in pts {
            if p.value < best {
                best = p.value;
                out.points.push(p);
            }
        }
        out
    }
}

/// A shared cooperative-cancellation flag.
///
/// Cloning yields another handle to the *same* flag, so one side (a
/// server, a supervisor thread, a signal handler) can hold a clone and
/// [`cancel`](CancelToken::cancel) while the search loop polls
/// [`is_cancelled`](CancelToken::is_cancelled) between steps. Cancellation
/// is sticky: once set it never resets. The flag composes with
/// [`StopCondition`] rather than replacing it — a run stops at whichever
/// of (steps, time, cancel) trips first — so step-budgeted runs that are
/// never cancelled keep their deterministic output.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// When a metaheuristic run must stop (whichever limit hits first).
#[derive(Clone, Copy, Debug)]
pub struct StopCondition {
    /// Maximum number of steps (perturbations / iterations).
    pub max_steps: u64,
    /// Wall-clock budget.
    pub max_time: Duration,
}

impl StopCondition {
    /// Step-bounded only.
    pub fn steps(max_steps: u64) -> Self {
        StopCondition {
            max_steps,
            max_time: Duration::MAX,
        }
    }

    /// Time-bounded only.
    pub fn time(max_time: Duration) -> Self {
        StopCondition {
            max_steps: u64::MAX,
            max_time,
        }
    }

    /// Both limits.
    pub fn new(max_steps: u64, max_time: Duration) -> Self {
        StopCondition {
            max_steps,
            max_time,
        }
    }

    /// Whether the run should stop.
    #[inline]
    pub fn should_stop(&self, step: u64, started: Instant) -> bool {
        step >= self.max_steps
            || (self.max_time != Duration::MAX && started.elapsed() >= self.max_time)
    }
}

/// What every metaheuristic run returns.
#[derive(Clone, Debug)]
pub struct MetaheuristicResult {
    /// Best partition found.
    pub best: Partition,
    /// Its objective value (under the run's configured objective).
    pub best_value: f64,
    /// Steps executed.
    pub steps: u64,
    /// Best-so-far trace for anytime plots.
    pub trace: AnytimeTrace,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_records_and_queries() {
        let mut t = AnytimeTrace::new();
        t.record(Duration::from_millis(10), 5.0, 1);
        t.record(Duration::from_millis(30), 3.0, 8);
        t.record(Duration::from_millis(90), 2.5, 20);
        assert_eq!(t.points().len(), 3);
        assert_eq!(t.value_at(Duration::from_millis(5)), None);
        assert_eq!(t.value_at(Duration::from_millis(10)), Some(5.0));
        assert_eq!(t.value_at(Duration::from_millis(50)), Some(3.0));
        assert_eq!(t.value_at(Duration::from_secs(10)), Some(2.5));
        assert_eq!(t.final_value(), Some(2.5));
    }

    #[test]
    fn stop_condition_steps() {
        let s = StopCondition::steps(100);
        let now = Instant::now();
        assert!(!s.should_stop(99, now));
        assert!(s.should_stop(100, now));
    }

    #[test]
    fn stop_condition_time() {
        let s = StopCondition::time(Duration::from_millis(0));
        assert!(s.should_stop(0, Instant::now()));
        let s2 = StopCondition::time(Duration::from_secs(3600));
        assert!(!s2.should_stop(0, Instant::now()));
    }

    #[test]
    fn merged_is_order_independent_and_monotone() {
        let mut a = AnytimeTrace::new();
        a.record(Duration::from_millis(10), 5.0, 1);
        a.record(Duration::from_millis(40), 2.0, 9);
        let mut b = AnytimeTrace::new();
        b.record(Duration::from_millis(20), 4.0, 3);
        b.record(Duration::from_millis(30), 3.0, 5);
        b.record(Duration::from_millis(50), 2.5, 12); // worse than a's 2.0 — dropped

        let ab = AnytimeTrace::merged([&a, &b]);
        let ba = AnytimeTrace::merged([&b, &a]);
        let vals: Vec<f64> = ab.points().iter().map(|p| p.value).collect();
        assert_eq!(vals, vec![5.0, 4.0, 3.0, 2.0]);
        let vals_ba: Vec<f64> = ba.points().iter().map(|p| p.value).collect();
        assert_eq!(vals, vals_ba);
        for w in ab.points().windows(2) {
            assert!(w[1].value < w[0].value);
            assert!(w[1].elapsed >= w[0].elapsed);
        }
        assert_eq!(ab.final_value(), Some(2.0));
    }

    #[test]
    fn merged_of_nothing_is_empty() {
        assert!(AnytimeTrace::merged(std::iter::empty()).points().is_empty());
        let empty = AnytimeTrace::new();
        assert!(AnytimeTrace::merged([&empty]).points().is_empty());
    }

    #[test]
    fn points_since_is_an_exactly_once_tap() {
        let mut t = AnytimeTrace::new();
        let mut cursor = 0usize;
        assert!(t.points_since(cursor).is_empty());
        t.record(Duration::from_millis(1), 9.0, 1);
        t.record(Duration::from_millis(2), 7.0, 4);
        let seen = t.points_since(cursor);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[1].value, 7.0);
        cursor = t.len();
        assert!(t.points_since(cursor).is_empty());
        t.record(Duration::from_millis(5), 6.0, 9);
        let seen = t.points_since(cursor);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].step, 9);
        // Out-of-range cursors are harmless.
        assert!(t.points_since(t.len() + 10).is_empty());
    }

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled() && !clone.is_cancelled());
        clone.cancel();
        assert!(t.is_cancelled() && clone.is_cancelled());
        clone.cancel(); // idempotent
        assert!(t.is_cancelled());
        // A fresh token is independent.
        assert!(!CancelToken::new().is_cancelled());
    }

    #[test]
    fn empty_trace() {
        let t = AnytimeTrace::new();
        assert!(t.final_value().is_none());
        assert!(t.value_at(Duration::from_secs(1)).is_none());
    }

    #[test]
    fn tagged_points_keep_provenance_through_merge() {
        use ff_partition::Objective;
        let mut cut = AnytimeTrace::with_tag(Objective::Cut);
        cut.record(Duration::from_millis(10), 5.0, 1);
        let mut untagged = AnytimeTrace::new();
        untagged.record(Duration::from_millis(20), 4.0, 2);
        assert_eq!(cut.tag(), Some(Objective::Cut));
        assert_eq!(untagged.tag(), None);
        let merged = AnytimeTrace::merged([&cut, &untagged]);
        let objs: Vec<Option<Objective>> = merged.points().iter().map(|p| p.objective).collect();
        assert_eq!(objs, vec![Some(Objective::Cut), None]);
    }
}
