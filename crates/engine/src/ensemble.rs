//! [`EnsembleResult`], the result every [`Solver`](crate::Solver) run
//! harvests, and tests of its contract on the `Solver` chain.

use crate::reduction::ParetoResult;
use ff_core::FusionFissionResult;
use ff_metaheur::AnytimeTrace;
use ff_partition::Partition;
use std::collections::BTreeMap;

/// Result of an ensemble / solver run.
#[derive(Clone, Debug)]
pub struct EnsembleResult {
    /// Best partition across all islands: with one objective the lowest
    /// value, ties to the lowest island index; with several, the front's
    /// representative under the first objective. It has exactly the
    /// target k non-empty parts whenever the winning island visited k at
    /// all; under a budget too tiny for that, it falls back to that
    /// island's best molecule at whatever part count it holds (same
    /// contract as [`FusionFissionResult::best`]).
    pub best: Partition,
    /// Objective value of [`EnsembleResult::best`] under the winning
    /// island's own objective.
    pub best_value: f64,
    /// Index of the island that holds [`EnsembleResult::best`].
    pub best_island: usize,
    /// Every island's own result, in island order.
    pub islands: Vec<FusionFissionResult>,
    /// Ensemble-level best-so-far trace
    /// ([`AnytimeTrace::merged`] over the island traces of the primary —
    /// first — objective): points ordered by step, island order breaking
    /// ties, so under a step budget it is as deterministic as `best`.
    pub trace: AnytimeTrace,
    /// Total steps executed across all islands.
    pub steps: u64,
    /// How many migration offers were adopted (a foreign molecule strictly
    /// beat an island's own best).
    pub migrations_adopted: u64,
    /// Best value seen at every visited part count, min-merged across the
    /// primary objective's islands.
    pub best_value_per_k: BTreeMap<usize, f64>,
    /// The deterministic non-dominated front, when the islands minimize
    /// more than one distinct objective. Under
    /// [`Solver::multilevel`](crate::Solver::multilevel) the points are
    /// fine-graph partitions, each refined under its own objective and
    /// re-scored on the input graph, and the front is built again there.
    pub pareto: Option<ParetoResult>,
    /// What the multilevel pipeline did, when the run used
    /// [`Solver::multilevel`](crate::Solver::multilevel). `best`,
    /// `best_value` and `pareto` are then fine-graph quantities, while
    /// `islands`, `trace` and `best_value_per_k` describe the coarse
    /// search.
    pub multilevel: Option<crate::MultilevelInfo>,
}

#[cfg(test)]
mod tests {
    use crate::seeds::derive_seeds;
    use crate::solver::Solver;
    use ff_core::{FusionFission, FusionFissionConfig};
    use ff_graph::generators::{planted_partition, random_geometric, two_cliques_bridge};
    use ff_graph::Graph;
    use ff_metaheur::StopCondition;

    /// `islands` fast-preset islands seeded from `seed`, migrating every
    /// 300 steps (replace-if-better, the default policy).
    fn fast(g: &Graph, k: usize, islands: usize, seed: u64) -> Solver<'_> {
        Solver::on(g)
            .config(FusionFissionConfig::fast(k))
            .islands(islands)
            .migration_interval(300)
            .seed(seed)
    }

    #[test]
    fn single_island_matches_plain_fusion_fission() {
        let g = random_geometric(50, 0.25, 3);
        let ens = fast(&g, 4, 1, 11).run().unwrap();
        let seed = derive_seeds(11, 1)[0];
        let solo = FusionFission::new(&g, FusionFissionConfig::fast(4), seed).run();
        assert_eq!(ens.best.assignment(), solo.best.assignment());
        assert_eq!(ens.best_value, solo.best_value);
        assert_eq!(ens.steps, solo.steps);
        assert_eq!(ens.migrations_adopted, 0);
        assert!(ens.pareto.is_none());
    }

    #[test]
    fn byte_identical_across_runs_and_thread_caps() {
        let g = random_geometric(60, 0.25, 7);
        for islands in [1usize, 4] {
            let results: Vec<_> = [0usize, 1, 2]
                .into_iter()
                .map(|threads| fast(&g, 4, islands, 99).threads(threads).run().unwrap())
                .collect();
            for r in &results[1..] {
                assert_eq!(r.best.assignment(), results[0].best.assignment());
                assert_eq!(r.best_value, results[0].best_value);
                assert_eq!(r.steps, results[0].steps);
                assert_eq!(r.migrations_adopted, results[0].migrations_adopted);
                assert_eq!(r.best_value_per_k, results[0].best_value_per_k);
            }
        }
    }

    #[test]
    fn best_is_min_over_islands() {
        let g = planted_partition(4, 10, 0.85, 0.03, 5);
        let res = fast(&g, 4, 4, 2).run().unwrap();
        assert_eq!(res.islands.len(), 4);
        let min = res
            .islands
            .iter()
            .map(|r| r.best_value)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(res.best_value, min);
        assert_eq!(res.best_value, res.islands[res.best_island].best_value);
        assert!(res.best.validate(&g));
        assert_eq!(res.best.num_nonempty_parts(), 4);
        assert_eq!(res.steps, res.islands.iter().map(|r| r.steps).sum::<u64>());
    }

    #[test]
    fn ensemble_never_loses_to_its_worst_island() {
        let g = two_cliques_bridge(8, 2.0, 0.1);
        let res = fast(&g, 2, 3, 5).run().unwrap();
        for island in &res.islands {
            assert!(res.best_value <= island.best_value);
        }
        // On this instance every island should find the bridge-only cut.
        assert!((res.best_value - 2.0 * (0.1 / 112.0)).abs() < 1e-9);
    }

    #[test]
    fn migration_disabled_is_pure_multistart() {
        let g = random_geometric(50, 0.25, 3);
        let ens = fast(&g, 3, 3, 8).migration_interval(0).run().unwrap();
        assert_eq!(ens.migrations_adopted, 0);
        // Each island must equal its own independent run.
        for (i, &seed) in derive_seeds(8, 3).iter().enumerate() {
            let solo = FusionFission::new(&g, FusionFissionConfig::fast(3), seed).run();
            assert_eq!(ens.islands[i].best.assignment(), solo.best.assignment());
        }
    }

    #[test]
    fn merged_trace_is_monotone_and_reaches_best() {
        let g = random_geometric(60, 0.25, 4);
        let res = fast(&g, 4, 4, 3).run().unwrap();
        let pts = res.trace.points();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[1].value < w[0].value);
        }
        assert_eq!(res.trace.final_value(), Some(res.best_value));
    }

    #[test]
    fn respects_per_island_step_budget() {
        let g = random_geometric(40, 0.3, 2);
        let res = fast(&g, 3, 3, 1).steps(500).run().unwrap();
        for island in &res.islands {
            assert!(island.steps <= 500);
        }
        assert!(res.steps <= 1500);
    }

    #[test]
    fn manual_epoch_drive_matches_run() {
        let g = random_geometric(60, 0.25, 7);
        let oneshot = fast(&g, 4, 3, 99).run().unwrap();
        let mut run = fast(&g, 4, 3, 99).start().unwrap();
        let mut epochs = 0;
        while run.advance_epoch() {
            epochs += 1;
            assert!(run.total_steps() > 0);
        }
        assert!(epochs > 1, "budget should span several epochs");
        assert!(run.finished());
        let manual = run.harvest();
        assert_eq!(manual.best.assignment(), oneshot.best.assignment());
        assert_eq!(manual.best_value, oneshot.best_value);
        assert_eq!(manual.steps, oneshot.steps);
        assert_eq!(manual.migrations_adopted, oneshot.migrations_adopted);
        assert_eq!(manual.best_value_per_k, oneshot.best_value_per_k);
    }

    #[test]
    fn cancel_stops_every_island_and_harvests_best_so_far() {
        use ff_metaheur::CancelToken;
        let g = random_geometric(60, 0.25, 4);
        // Unbounded: only the cancel stops it.
        let solver = fast(&g, 4, 3, 3).stop(StopCondition::steps(u64::MAX));
        let mut run = solver.threads(1).start().unwrap();
        let token = CancelToken::new();
        run.bind_cancel(token.clone());
        assert!(run.advance_epoch(), "not cancelled yet");
        let steps_before = run.total_steps();
        token.cancel();
        assert!(!run.advance_epoch(), "cancelled ensemble must stop");
        assert!(run.finished());
        assert_eq!(run.total_steps(), steps_before);
        let res = run.harvest();
        assert!(res.best.validate(&g));
        assert!(res.best_value.is_finite());
        assert_eq!(res.steps, steps_before);
    }

    #[test]
    fn best_value_at_target_tracks_the_min_island() {
        let g = two_cliques_bridge(8, 2.0, 0.1);
        let mut run = fast(&g, 2, 2, 5).start().unwrap();
        while run.advance_epoch() {}
        let live_best = run.best_value_at_target().expect("target k visited");
        let res = run.harvest();
        assert_eq!(live_best, res.best_value);
    }
}
