//! Reusable V-cycle driver with a *pluggable* coarse-level optimizer.
//!
//! [`multilevel_partition`](crate::multilevel_partition) hard-wires its
//! coarsest-graph partitioner (spectral / region growing). [`Vcycle`]
//! instead splits the cycle open: it owns only the coarsening stack and
//! the refined uncoarsening, and the caller runs *any* optimizer — a
//! fusion–fission ensemble, simulated annealing, an oracle — on
//! [`Vcycle::coarsest`], then hands the coarse partition to
//! [`Vcycle::refine_up`]. This is the memetic-multilevel shape: a global
//! metaheuristic where it is cheap (the coarse graph), local refinement
//! where it is effective (every uncoarsening level).

use ff_graph::{Graph, Hierarchy};
use ff_partition::refine::greedy::GreedyOptions;
use ff_partition::{greedy_refine_kway, CutState, Objective, Partition};

/// Options for [`Vcycle`].
#[derive(Clone, Copy, Debug)]
pub struct VcycleOpts {
    /// Stop coarsening at this many vertices (default 3000 — small enough
    /// that per-step reaction costs stop mattering, large enough that the
    /// coarse optimum projects well).
    pub coarsen_until: usize,
    /// Greedy refinement sweeps per uncoarsening level (default 8).
    pub refine_passes: usize,
    /// Seed for matching order and refinement sweep shuffles.
    pub seed: u64,
    /// Coarsest levels with fewer vertices than this are dropped, so the
    /// coarse optimizer always has room for its parts (default 2).
    pub min_coarse_vertices: usize,
}

impl Default for VcycleOpts {
    fn default() -> Self {
        VcycleOpts {
            coarsen_until: 3000,
            refine_passes: 8,
            seed: 1,
            min_coarse_vertices: 2,
        }
    }
}

/// What one uncoarsening level did, coarsest-first in
/// [`Vcycle::refine_up`]'s return (so the last report's `value_after` is
/// the final objective value on the input graph).
#[derive(Clone, Copy, Debug)]
pub struct LevelReport {
    /// Level index: 0 is the input graph, higher is coarser.
    pub level: usize,
    /// Vertices of the graph refined at this level.
    pub vertices: usize,
    /// Objective value right after projection, before refinement.
    pub value_before: f64,
    /// Objective value after refinement. Never worse than `value_before`:
    /// the greedy refiner applies only strictly improving moves.
    pub value_after: f64,
    /// Moves the refiner applied.
    pub moves: usize,
    /// Wall-clock milliseconds this level spent projecting + refining.
    /// Observability only — never feeds back into the algorithm.
    pub refine_ms: u64,
}

/// A prepared V-cycle over a fine graph: coarsening stack plus refined
/// uncoarsening, with the coarse-level optimization left to the caller.
///
/// Deterministic: the stack and every refinement sweep are pure functions
/// of `(graph, opts)`, so equal inputs (plus a deterministic coarse
/// optimizer) give byte-identical fine partitions.
#[derive(Clone, Debug)]
pub struct Vcycle<'g> {
    fine: &'g Graph,
    hierarchy: Hierarchy,
    opts: VcycleOpts,
}

impl<'g> Vcycle<'g> {
    /// Builds the coarsening stack for `g`.
    pub fn new(g: &'g Graph, opts: VcycleOpts) -> Self {
        let mut hierarchy = Hierarchy::build(g, opts.coarsen_until.max(1), opts.seed);
        hierarchy.trim_to_min_vertices(opts.min_coarse_vertices);
        Vcycle {
            fine: g,
            hierarchy,
            opts,
        }
    }

    /// The graph the coarse optimizer should run on. The input graph
    /// itself when it was already at or below the coarsening target.
    pub fn coarsest(&self) -> &Graph {
        self.hierarchy.coarsest(self.fine)
    }

    /// Number of coarse levels (0 means no coarsening happened).
    pub fn num_levels(&self) -> usize {
        self.hierarchy.num_levels()
    }

    /// The input graph this V-cycle was built over.
    pub fn fine(&self) -> &'g Graph {
        self.fine
    }

    /// Projects a partition of [`coarsest`](Self::coarsest) down the stack,
    /// greedily refining under `objective` at every level. Returns the fine
    /// partition plus one [`LevelReport`] per level, coarsest-first.
    ///
    /// The part count (and non-emptiness of every part) is preserved end
    /// to end: projection cannot empty a part, and the refiner runs with
    /// `keep_parts_nonempty`.
    ///
    /// # Panics
    ///
    /// Panics if `coarse` is not a partition of the coarsest graph.
    pub fn refine_up(
        &self,
        coarse: &Partition,
        objective: Objective,
    ) -> (Partition, Vec<LevelReport>) {
        assert_eq!(
            coarse.num_vertices(),
            self.coarsest().num_vertices(),
            "partition must cover the coarsest graph"
        );
        self.uncoarsen(coarse.clone(), coarse.num_parts(), objective, |lvl, st| {
            let opts = GreedyOptions {
                max_passes: self.opts.refine_passes,
                seed: self.opts.seed.wrapping_add(lvl as u64),
                ..Default::default()
            };
            greedy_refine_kway(st, objective, &opts)
        })
    }

    /// The one uncoarsening loop: projects `coarse` down the stack, level
    /// by level, as a partition with `k` part slots, and hands each
    /// projection to `refine(level, state)`, which returns the moves it
    /// applied. Each level's [`LevelReport`] scores the state under
    /// `objective` before and after `refine`.
    pub(crate) fn uncoarsen(
        &self,
        coarse: Partition,
        k: usize,
        objective: Objective,
        mut refine: impl FnMut(usize, &mut CutState) -> usize,
    ) -> (Partition, Vec<LevelReport>) {
        let mut cur = coarse;
        let mut reports = Vec::with_capacity(self.hierarchy.num_levels());
        for lvl in (0..self.hierarchy.num_levels()).rev() {
            let level_start = std::time::Instant::now();
            let fine = self.hierarchy.graph_at(self.fine, lvl);
            let fine_asg = self.hierarchy.levels()[lvl].project(cur.assignment());
            let mut st = CutState::new(fine, Partition::from_assignment(fine, fine_asg, k));
            let value_before = st.objective(objective);
            let moves = refine(lvl, &mut st);
            let value_after = st.objective(objective);
            reports.push(LevelReport {
                level: lvl,
                vertices: fine.num_vertices(),
                value_before,
                value_after,
                moves,
                refine_ms: level_start.elapsed().as_millis() as u64,
            });
            cur = st.into_partition();
        }
        (cur, reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{grid2d, planted_partition, random_geometric};

    fn random_coarse_partition(g: &Graph, k: usize, seed: u64) -> Partition {
        Partition::random(g, k, seed)
    }

    #[test]
    fn refine_up_preserves_part_count() {
        let g = random_geometric(300, 0.12, 4);
        let vc = Vcycle::new(
            &g,
            VcycleOpts {
                coarsen_until: 40,
                ..Default::default()
            },
        );
        assert!(vc.num_levels() >= 1);
        let coarse = random_coarse_partition(vc.coarsest(), 5, 3);
        let k_before = coarse.num_nonempty_parts();
        let (fine, reports) = vc.refine_up(&coarse, Objective::Cut);
        assert_eq!(fine.num_vertices(), 300);
        assert_eq!(fine.num_nonempty_parts(), k_before);
        assert_eq!(reports.len(), vc.num_levels());
        assert_eq!(reports.last().unwrap().level, 0);
        assert_eq!(reports.last().unwrap().vertices, 300);
    }

    #[test]
    fn refinement_is_monotone_per_level_for_all_objectives() {
        let g = planted_partition(4, 60, 0.25, 0.01, 9);
        let vc = Vcycle::new(
            &g,
            VcycleOpts {
                coarsen_until: 30,
                ..Default::default()
            },
        );
        for obj in Objective::all() {
            let coarse = random_coarse_partition(vc.coarsest(), 4, 17);
            let (fine, reports) = vc.refine_up(&coarse, obj);
            for r in &reports {
                assert!(
                    r.value_after <= r.value_before,
                    "{obj} level {}: {} → {}",
                    r.level,
                    r.value_before,
                    r.value_after
                );
            }
            // The last report's value_after is the fine objective value.
            let final_v = reports.last().unwrap().value_after;
            let fresh = obj.evaluate(&g, &fine);
            assert!(
                (final_v - fresh).abs() < 1e-6 || (final_v.is_infinite() && fresh.is_infinite()),
                "{obj}: reported {final_v} vs fresh {fresh}"
            );
        }
    }

    #[test]
    fn projection_without_refinement_keeps_cut() {
        // With 0 refinement passes the fine cut equals the coarse cut:
        // matched pairs share a part, so no intra-pair edge is cut.
        let g = random_geometric(250, 0.13, 6);
        let vc = Vcycle::new(
            &g,
            VcycleOpts {
                coarsen_until: 35,
                refine_passes: 0,
                ..Default::default()
            },
        );
        let coarse = random_coarse_partition(vc.coarsest(), 3, 8);
        let coarse_cut = Objective::Cut.evaluate(vc.coarsest(), &coarse);
        let (fine, _) = vc.refine_up(&coarse, Objective::Cut);
        let fine_cut = Objective::Cut.evaluate(&g, &fine);
        assert!(
            (coarse_cut - fine_cut).abs() < 1e-9,
            "coarse {coarse_cut} vs fine {fine_cut}"
        );
    }

    #[test]
    fn no_coarsening_passes_partition_through() {
        let g = grid2d(4, 4);
        let vc = Vcycle::new(&g, VcycleOpts::default());
        assert_eq!(vc.num_levels(), 0);
        let p = Partition::block(&g, 2);
        let (out, reports) = vc.refine_up(&p, Objective::Cut);
        assert!(reports.is_empty());
        assert_eq!(out.assignment(), p.assignment());
    }

    #[test]
    fn deterministic_refine_up() {
        let g = random_geometric(200, 0.14, 2);
        let run = || {
            let vc = Vcycle::new(
                &g,
                VcycleOpts {
                    coarsen_until: 25,
                    seed: 42,
                    ..Default::default()
                },
            );
            let coarse = random_coarse_partition(vc.coarsest(), 4, 5);
            vc.refine_up(&coarse, Objective::NCut).0
        };
        assert_eq!(run().assignment(), run().assignment());
    }
}
