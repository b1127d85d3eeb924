//! # ff-metaheur — classical metaheuristics for graph partitioning
//!
//! The paper's §3 comparators plus the percolation heuristic of §4.4:
//!
//! * [`percolation`] — the seeded "colored liquid" flood partitioner. It is
//!   Table 1's `Percolation` row, the initializer the paper gives simulated
//!   annealing and ant colony, and the splitter fusion–fission's fission
//!   operator uses (in place, through a reusable [`Percolator`]),
//! * [`sa`] — simulated annealing with the paper's perturbation (random
//!   vertex; at high temperature it migrates to the part with the lowest
//!   internal weight, at low temperature to a random *connected* part),
//! * [`ant`] — the k-competing-colonies ant algorithm (per-colony edge
//!   pheromone; a vertex belongs to the colony with the largest adjacent
//!   pheromone mass),
//! * [`anytime`] — best-so-far traces with wall-clock stamps, the data
//!   behind Figure 1, and the shared [`StopCondition`]/
//!   [`MetaheuristicResult`] types ([`AnytimeTrace::merged`] is the
//!   deterministic reduction the `ff-engine` island ensemble uses to
//!   combine per-island traces).
//!
//! Every runner here is a pure function of (graph, config, seed):
//!
//! ```
//! use ff_graph::generators::grid2d;
//! use ff_metaheur::{percolation_partition, PercolationConfig};
//!
//! let g = grid2d(4, 4);
//! let cfg = PercolationConfig::default();
//! let p = percolation_partition(&g, 2, &cfg);
//! assert_eq!(p.num_nonempty_parts(), 2);
//! assert_eq!(p.assignment(), percolation_partition(&g, 2, &cfg).assignment());
//! ```

pub mod ant;
pub mod anytime;
pub mod percolation;
pub mod sa;

pub use ant::{AntColony, AntColonyConfig};
pub use anytime::{AnytimeTrace, CancelToken, MetaheuristicResult, StopCondition, TracePoint};
pub use percolation::{
    percolation_partition, percolation_with_seeds, PercolationConfig, Percolator,
};
pub use sa::{Cooling, SimulatedAnnealing, SimulatedAnnealingConfig};
