//! Multilevel acceleration for the solver: run the fusion–fission
//! ensemble on a coarsened graph, then uncoarsen with per-level
//! refinement.
//!
//! Flat fusion–fission starts from singletons and pays per-vertex
//! reaction costs on the full graph. [`Solver::multilevel`] instead runs
//! the *unchanged* ensemble (islands, migration, reduction) as the
//! coarse-level optimizer of an [`ff_multilevel::Vcycle`]: heavy-edge
//! coarsening to a few thousand vertices, the full search there, then
//! level-by-level projection plus greedy refinement back to the input
//! graph — the memetic-multilevel recipe. Steps cost ~`coarse_n / n` of
//! their flat price, so the same step budget finishes in a fraction of
//! the wall-clock.
//!
//! Determinism is preserved end to end: the coarsening stack, the coarse
//! ensemble, and every refinement sweep are pure functions of the root
//! seed, so equal seeds and step budgets give byte-identical fine
//! partitions across reruns and thread caps.
//!
//! [`Solver::multilevel`]: crate::Solver::multilevel

pub use ff_multilevel::LevelReport;

/// Options for [`Solver::multilevel`](crate::Solver::multilevel).
#[derive(Clone, Copy, Debug)]
pub struct MultilevelOpts {
    /// Coarsen until at most this many vertices remain (default 3000).
    /// Must be positive; validation rejects 0.
    pub coarsen_until: usize,
    /// Greedy refinement sweeps per uncoarsening level (default 8).
    pub refine_passes: usize,
}

impl Default for MultilevelOpts {
    fn default() -> Self {
        MultilevelOpts {
            coarsen_until: 3000,
            refine_passes: 8,
        }
    }
}

/// What the multilevel pipeline did, attached to
/// [`EnsembleResult::multilevel`](crate::EnsembleResult::multilevel).
#[derive(Clone, Debug)]
pub struct MultilevelInfo {
    /// Coarsening levels built (0 means the input was already at or below
    /// the target and the run was effectively flat).
    pub levels: usize,
    /// Vertices of the graph the ensemble actually searched.
    pub coarse_vertices: usize,
    /// Per-level refinement reports for the winning partition,
    /// coarsest-first; the last report's `value_after` is the final fine
    /// objective value.
    pub reports: Vec<LevelReport>,
}
