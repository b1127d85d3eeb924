//! The "Linear" baseline partitioner.
//!
//! Chaco's simplest scheme: treat the vertex numbering itself as the
//! one-dimensional coordinate and split index ranges — no eigenvectors, no
//! geometry. Table 1's first three rows (`Linear (Bi)`, `Linear (Bi, KL)`,
//! `Linear (Oct, KL)`) come from this family; unrefined linear bisection is
//! the paper's example of how badly a structure-blind method does on Mcut
//! (2300.85 vs ≈70 for the metaheuristics).

use crate::bisect::{recursive_bisection, RefineMethod};
use ff_graph::{Graph, VertexId};
use ff_partition::refine::pairwise::{pairwise_refine_kway, PairwiseMethod, PairwiseOptions};
use ff_partition::{CutState, Partition};

/// Division arity for the linear scheme (mirrors the spectral modes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinearMode {
    /// Recursive 2-way index splits.
    Bisection,
    /// Direct k-way index blocks, then optional pairwise refinement —
    /// the `Linear (Oct, KL)` construction.
    Octasection,
}

/// Linear (index-order) k-way partitioning with optional refinement.
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds the vertex count.
pub fn linear_partition(g: &Graph, k: usize, mode: LinearMode, refine: RefineMethod) -> Partition {
    assert!(k >= 1, "k must be positive");
    assert!(k <= g.num_vertices().max(1), "more parts than vertices");
    match mode {
        LinearMode::Bisection => {
            recursive_bisection(g, k, refine, &mut |_: &Graph, to_parent: &[VertexId]| {
                to_parent.iter().map(|&v| v as f64).collect()
            })
        }
        LinearMode::Octasection => {
            let p = Partition::block(g, k);
            if refine == RefineMethod::None {
                return p;
            }
            let mut st = CutState::new(g, p);
            let opts = PairwiseOptions {
                method: PairwiseMethod::Kl,
                ..Default::default()
            };
            pairwise_refine_kway(&mut st, &opts);
            st.into_partition()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{grid2d, random_geometric};
    use ff_partition::{imbalance, Objective};

    #[test]
    fn unrefined_bisection_is_block_like() {
        let g = grid2d(4, 8);
        let p = linear_partition(&g, 2, LinearMode::Bisection, RefineMethod::None);
        assert_eq!(p.num_nonempty_parts(), 2);
        // index split of a row-major grid = first 16 vs last 16
        assert_eq!(p.part_of(0), p.part_of(15));
        assert_ne!(p.part_of(0), p.part_of(16));
    }

    #[test]
    fn kl_improves_linear() {
        // On a geometric graph, index order is uninformative; KL must help.
        let g = random_geometric(80, 0.25, 33);
        let plain = linear_partition(&g, 4, LinearMode::Bisection, RefineMethod::None);
        let kl = linear_partition(&g, 4, LinearMode::Bisection, RefineMethod::Kl);
        let c0 = Objective::Cut.evaluate(&g, &plain);
        let c1 = Objective::Cut.evaluate(&g, &kl);
        assert!(
            c1 < c0,
            "KL should improve random-order linear: {c0} → {c1}"
        );
    }

    #[test]
    fn octasection_mode_balanced() {
        let g = grid2d(8, 8);
        let p = linear_partition(&g, 8, LinearMode::Octasection, RefineMethod::None);
        assert_eq!(p.num_nonempty_parts(), 8);
        assert!(imbalance(&p) < 1e-9);
    }

    #[test]
    fn octasection_kl_refines() {
        let g = random_geometric(60, 0.3, 9);
        let plain = linear_partition(&g, 4, LinearMode::Octasection, RefineMethod::None);
        let kl = linear_partition(&g, 4, LinearMode::Octasection, RefineMethod::Kl);
        let c0 = Objective::Cut.evaluate(&g, &plain);
        let c1 = Objective::Cut.evaluate(&g, &kl);
        assert!(c1 <= c0 + 1e-9);
    }

    #[test]
    fn any_k() {
        let g = grid2d(5, 5);
        for k in [1usize, 3, 5, 25] {
            let p = linear_partition(&g, k, LinearMode::Bisection, RefineMethod::None);
            assert_eq!(p.num_nonempty_parts(), k);
        }
    }
}
