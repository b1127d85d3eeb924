//! # ff-multilevel — multilevel graph partitioning
//!
//! Implements §2.2 of the paper (the Hendrickson–Leland / Karypis–Kumar
//! scheme behind Chaco and METIS):
//!
//! 1. **Coarsen** — contract randomized heavy-edge matchings until the
//!    graph is small ([`ff_graph::matching`], [`ff_graph::coarsen`](fn@ff_graph::coarsen)),
//! 2. **Partition** the coarsest graph spectrally with KL refinement
//!    (bisection for `Multilevel (Bi)`, octasection for `Multilevel (Oct)`),
//! 3. **Uncoarsen** — project the partition level by level, locally
//!    refining at each level ([`vcycle`]): FM for bisections, greedy
//!    k-way + pairwise FM for direct k-way.
//!
//! Two drivers mirror the paper's Table 1 rows:
//! * `Multilevel (Bi)` — [`multilevel_partition`] with
//!   [`MultilevelMode::RecursiveBisection`],
//! * `Multilevel (Oct)` — [`MultilevelMode::KWay`] (direct k-way V-cycle
//!   seeded by spectral octasection on the coarsest graph).
//!
//! A third entry point, [`Vcycle`], opens the cycle up for a *pluggable*
//! coarse optimizer: build the stack, run any search (`ff-engine`'s
//! fusion–fission ensemble uses this for `Solver::multilevel`) on
//! [`Vcycle::coarsest`], then [`Vcycle::refine_up`] the result:
//!
//! ```
//! use ff_graph::generators::random_geometric;
//! use ff_multilevel::{Vcycle, VcycleOpts};
//! use ff_partition::{Objective, Partition};
//!
//! let g = random_geometric(400, 0.1, 7);
//! let vc = Vcycle::new(&g, VcycleOpts { coarsen_until: 50, ..Default::default() });
//! // Any optimizer goes here — even a plain random partition:
//! let coarse = Partition::random(vc.coarsest(), 4, 1);
//! let (fine, reports) = vc.refine_up(&coarse, Objective::Cut);
//! assert_eq!(fine.num_vertices(), 400);
//! // Refinement never worsens the objective at any level:
//! assert!(reports.iter().all(|r| r.value_after <= r.value_before));
//! ```

pub mod driver;
pub mod vcycle;

use ff_graph::Graph;
use ff_partition::Partition;

pub use driver::{LevelReport, Vcycle, VcycleOpts};
pub use vcycle::{multilevel_bisection, multilevel_kway};

/// How the k-way partition is assembled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MultilevelMode {
    /// Recursive multilevel bisection (Table 1 `Multilevel (Bi)`).
    RecursiveBisection,
    /// One direct k-way V-cycle (Table 1 `Multilevel (Oct)`).
    KWay,
}

/// Configuration for the multilevel drivers.
#[derive(Clone, Copy, Debug)]
pub struct MultilevelConfig {
    /// Assembly mode.
    pub mode: MultilevelMode,
    /// Seed driving matching order, initial partition, refinement sweeps.
    pub seed: u64,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            mode: MultilevelMode::RecursiveBisection,
            seed: 1,
        }
    }
}

/// Multilevel k-way partitioning.
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds the vertex count.
pub fn multilevel_partition(g: &Graph, k: usize, cfg: &MultilevelConfig) -> Partition {
    assert!(k >= 1, "k must be positive");
    assert!(k <= g.num_vertices().max(1), "more parts than vertices");
    match cfg.mode {
        MultilevelMode::RecursiveBisection => vcycle::multilevel_recursive_bisection(g, k, cfg),
        MultilevelMode::KWay => vcycle::multilevel_kway(g, k, cfg),
    }
}
