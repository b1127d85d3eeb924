//! How harvested islands become one result. The rule follows from the
//! run's objectives. When every island minimizes the same one, the island
//! with the lowest value wins (ties to the lowest index). When they
//! minimize several, every island's best molecule is scored under *all*
//! of them and the deterministic non-dominated front survives as a
//! [`ParetoResult`] (dominance from [`ff_partition::dominance`], ties
//! broken by island index); its best point under the first objective is
//! the representative.

use ff_core::FusionFissionResult;
use ff_graph::Graph;
use ff_partition::{pareto_front_indices, Objective, Partition};

/// One non-dominated point of a [`ParetoResult`].
#[derive(Clone, Debug)]
pub struct ParetoPoint {
    /// Island that produced the molecule.
    pub island: usize,
    /// The objective that island itself was minimizing.
    pub objective: Objective,
    /// The molecule scored under every objective of
    /// [`ParetoResult::objectives`], in that order.
    pub values: Vec<f64>,
    /// Non-empty parts of [`ParetoPoint::partition`].
    pub parts: usize,
    /// The molecule itself.
    pub partition: Partition,
}

/// The deterministic non-dominated front of a mixed-objective ensemble.
#[derive(Clone, Debug)]
pub struct ParetoResult {
    /// The distinct objectives the ensemble ran, in island order of first
    /// appearance; every point's `values` aligns with this.
    pub objectives: Vec<Objective>,
    /// Front points in ascending island order (the index is also the
    /// tie-break: of two equal objective vectors only the lower island
    /// survives).
    pub points: Vec<ParetoPoint>,
}

impl ParetoResult {
    /// The front of `molecules`, given as `(island, objective, partition)`
    /// in island order, where `objective` is the one that island was
    /// minimizing. Each molecule is scored on `g` under every one of
    /// `objectives`; only the non-dominated ones are kept, and only they
    /// are cloned.
    pub fn new<'a>(
        g: &Graph,
        objectives: &[Objective],
        molecules: impl IntoIterator<Item = (usize, Objective, &'a Partition)>,
    ) -> ParetoResult {
        let molecules: Vec<_> = molecules.into_iter().collect();
        let mut vectors: Vec<Vec<f64>> = molecules
            .iter()
            .map(|&(_, _, p)| objectives.iter().map(|o| o.evaluate(g, p)).collect())
            .collect();
        let points = pareto_front_indices(&vectors)
            .into_iter()
            .map(|i| {
                let (island, objective, partition) = molecules[i];
                ParetoPoint {
                    island,
                    objective,
                    values: std::mem::take(&mut vectors[i]),
                    parts: partition.num_nonempty_parts(),
                    partition: partition.clone(),
                }
            })
            .collect();
        ParetoResult {
            objectives: objectives.to_vec(),
            points,
        }
    }

    /// The front point minimizing `objective` (ties → lowest island), or
    /// `None` when the objective wasn't part of the run or the front is
    /// empty.
    pub fn best_under(&self, objective: Objective) -> Option<&ParetoPoint> {
        let axis = self.objectives.iter().position(|&o| o == objective)?;
        self.points.iter().min_by(|a, b| {
            a.values[axis]
                .total_cmp(&b.values[axis])
                .then(a.island.cmp(&b.island))
        })
    }
}

/// The island whose molecule becomes the run's result, and the front
/// when the islands minimize more than one distinct objective.
/// `objectives` is the run's distinct objective list in island order of
/// first appearance; `islands` is in island order.
pub(crate) fn reduce(
    g: &Graph,
    islands: &[FusionFissionResult],
    objectives: &[Objective],
) -> (usize, Option<ParetoResult>) {
    if objectives.len() < 2 {
        let mut best = 0;
        for i in 1..islands.len() {
            if islands[i].best_value < islands[best].best_value {
                best = i;
            }
        }
        return (best, None);
    }
    let molecules = islands
        .iter()
        .enumerate()
        .map(|(i, r)| (i, r.trace.tag().unwrap_or(objectives[0]), &r.best));
    let front = ParetoResult::new(g, objectives, molecules);
    let best = front.best_under(objectives[0]).map_or(0, |p| p.island);
    (best, Some(front))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_core::{FusionFission, FusionFissionConfig};
    use ff_graph::generators::two_cliques_bridge;
    use ff_metaheur::StopCondition;

    fn harvests(objs: &[Objective]) -> (Graph, Vec<FusionFissionResult>) {
        let g = two_cliques_bridge(6, 2.0, 0.1);
        let islands = objs
            .iter()
            .enumerate()
            .map(|(i, &objective)| {
                FusionFission::new(
                    &g,
                    FusionFissionConfig {
                        objective,
                        stop: StopCondition::steps(1_200),
                        ..FusionFissionConfig::fast(2)
                    },
                    7 + i as u64,
                )
                .run()
            })
            .collect();
        (g, islands)
    }

    #[test]
    fn min_energy_matches_manual_argmin() {
        let (g, islands) = harvests(&[Objective::MCut, Objective::MCut, Objective::MCut]);
        let (best_island, pareto) = reduce(&g, &islands, &[Objective::MCut]);
        let manual = (0..islands.len())
            .min_by(|&a, &b| islands[a].best_value.total_cmp(&islands[b].best_value))
            .unwrap();
        assert_eq!(best_island, manual);
        assert!(pareto.is_none());
    }

    #[test]
    fn pareto_front_is_mutually_non_dominated_and_tagged() {
        use ff_partition::dominates;
        let objs = [Objective::Cut, Objective::NCut, Objective::MCut];
        let (g, islands) = harvests(&objs);
        let (best_island, pareto) = reduce(&g, &islands, &objs);
        let front = pareto.expect("several objectives reduce to a front");
        assert_eq!(front.objectives, objs.to_vec());
        assert!(!front.points.is_empty());
        for a in &front.points {
            assert_eq!(a.values.len(), 3);
            assert_eq!(a.objective, islands[a.island].trace.tag().unwrap());
            for b in &front.points {
                assert!(
                    !dominates(&a.values, &b.values) || a.island == b.island,
                    "front not mutually non-dominated"
                );
            }
        }
        // Ascending island order, and the representative minimizes the
        // first objective.
        for w in front.points.windows(2) {
            assert!(w[0].island < w[1].island);
        }
        let rep = front.best_under(Objective::Cut).unwrap();
        assert_eq!(best_island, rep.island);
    }

    #[test]
    fn best_under_unknown_objective_is_none() {
        let objs = [Objective::Cut];
        let (g, islands) = harvests(&objs);
        let molecules = islands
            .iter()
            .enumerate()
            .map(|(i, r)| (i, Objective::Cut, &r.best));
        let front = ParetoResult::new(&g, &objs, molecules);
        assert!(front.best_under(Objective::NCut).is_none());
    }
}
