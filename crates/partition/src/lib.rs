//! # ff-partition — partition state, objectives, refinement
//!
//! The vocabulary shared by every partitioner in the suite:
//!
//! * [`Partition`] — a k-way assignment of vertices to parts with O(1)
//!   move bookkeeping (parts may be empty; fusion–fission grows and
//!   shrinks the part count at runtime),
//! * [`Objective`] — the paper's three criteria (§1): **Cut**, **Ncut**
//!   (Shi–Malik normalized cut) and **Mcut** (Ding et al. min-max cut),
//! * [`CutState`] — incremental per-part internal/external weight tracking
//!   so a vertex move and its objective delta cost O(deg v),
//! * [`Connections`] — a reusable dense scratch that gathers a vertex's or
//!   a part's connection weight into each neighbouring part,
//! * [`refine`] — local refinement: Kernighan–Lin pairwise swaps,
//!   Fiduccia–Mattheyses single-move passes with rollback, and greedy
//!   k-way boundary refinement,
//! * [`balance`] — part-weight balance metrics and constraints,
//! * [`dominance`] — Pareto dominance over objective vectors, the
//!   reduction multi-objective ensembles use instead of a scalar min.
//!
//! In the paper's analogy this crate is the *molecule*: a [`Partition`] is
//! the molecule, each part an atom, each vertex a nucleon; [`CutState`] is
//! the calorimeter that re-measures a molecule's energy in O(deg v) per
//! reaction instead of O(m).
//!
//! ```
//! use ff_graph::generators::path;
//! use ff_partition::{CutState, Objective, Partition};
//!
//! let g = path(6); // 0-1-2-3-4-5
//! let mut st = CutState::new(&g, Partition::block(&g, 2)); // {0,1,2}|{3,4,5}
//! assert_eq!(st.cut(), 1.0); // only edge 2-3 crosses
//! // Predict a move without applying it, then apply and confirm:
//! let delta = st.move_delta(Objective::Cut, 2, 1);
//! st.move_vertex(2, 1);
//! assert_eq!(st.cut(), 1.0 + delta);
//! assert_eq!(st.objective(Objective::Cut), Objective::Cut.evaluate(&g, st.partition()));
//! ```

pub mod analysis;
pub mod balance;
pub mod connections;
pub mod dominance;
pub mod io;
pub mod objective;
pub mod partition;
pub mod refine;

pub use analysis::{analyze, repair_connectivity, PartStats, PartitionReport};
pub use balance::{imbalance, BalanceConstraint};
pub use connections::Connections;
pub use dominance::{dominates, pareto_front_indices};
pub use io::{read_partition, write_assignment, write_partition};
pub use objective::{CutState, Objective, PartConnectivity};
pub use partition::Partition;
pub use refine::{
    fm::fm_refine_bisection,
    greedy::greedy_refine_kway,
    kl::kl_refine_bisection,
    pairwise::{pairwise_refine_kway, PairwiseMethod, PairwiseOptions},
};
