//! # ff-graph — weighted undirected graph substrate
//!
//! Foundation crate of the fusion–fission partitioning suite. It provides:
//!
//! * [`Graph`] — an immutable, CSR-stored, edge- and vertex-weighted
//!   undirected graph with sorted adjacency (binary-searchable),
//! * [`GraphBuilder`] — incremental construction with parallel-edge merging,
//! * [`generators`] — deterministic seeded families (grids, random
//!   geometric, Erdős–Rényi, planted partitions, …) used by tests and
//!   benchmarks,
//! * [`io`] — METIS `.graph` and weighted edge-list readers/writers,
//! * [`traversal`] — BFS, connected components, subset connectivity,
//! * [`matching`] / [`coarsen`](mod@coarsen) — randomized heavy-edge matching and graph
//!   contraction, the coarsening substrate of the multilevel partitioner,
//! * [`subgraph`] — induced-subgraph extraction with back-mapping.
//!
//! All algorithms in the suite (spectral, multilevel, simulated annealing,
//! ant colony, fusion–fission) consume this one graph type.
//!
//! ## Quick example
//!
//! ```
//! use ff_graph::{GraphBuilder, Graph};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 2.0);
//! b.add_edge(1, 2, 1.0);
//! b.add_edge(2, 3, 2.0);
//! let g: Graph = b.build();
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.total_edge_weight(), 5.0);
//! ```

pub mod builder;
pub mod coarsen;
pub mod csr;
pub mod generators;
pub mod io;
pub mod matching;
pub mod mincut;
pub mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use coarsen::{coarsen, CoarseGraph, Hierarchy};
pub use csr::{EdgeIndex, Graph};
pub use matching::{heavy_edge_matching, random_matching, Matching};
pub use mincut::{stoer_wagner, MinCut};
pub use subgraph::{induced_subgraph, Subgraph};
pub use traversal::{connected_components, is_connected, subset_components};

/// Vertex identifier. Graphs in this suite are laptop-scale (≤ a few million
/// vertices); `u32` halves adjacency-array memory traffic versus `usize`.
pub type VertexId = u32;
