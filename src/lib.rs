//! # fusionfission — umbrella crate
//!
//! Re-exports the whole fusion–fission graph-partitioning suite behind one
//! dependency. See the README for the architecture overview; the pieces are:
//!
//! | crate | contents |
//! |---|---|
//! | [`graph`] (`ff-graph`) | CSR graph, generators, METIS I/O, matching, coarsening |
//! | [`linalg`] (`ff-linalg`) | sparse symmetric eigensolvers: Lanczos, tridiagonal QL, SYMMLQ, RQI |
//! | [`partition`] (`ff-partition`) | partition state, Cut/Ncut/Mcut objectives, KL/FM refinement |
//! | [`spectral`] (`ff-spectral`) | Fiedler bisection/octasection, linear baseline |
//! | [`multilevel`] (`ff-multilevel`) | heavy-edge multilevel partitioner |
//! | [`metaheur`] (`ff-metaheur`) | simulated annealing, ant colony, percolation |
//! | [`core`] (`ff-core`) | the fusion–fission metaheuristic itself |
//! | [`engine`] (`ff-engine`) | the pluggable `Solver` engine: island ensembles with swappable migration policies; one objective keeps the best island, several the Pareto front |
//! | [`service`] (`ff-service`) | multi-client partition server: NDJSON + HTTP/1.1 front-ends, admission control, byte-budgeted LRU instance cache, streaming anytime results, cancel/deadline |
//! | [`atc`] (`ff-atc`) | synthetic European-airspace FABOP workload |
//!
//! ## Quickstart
//!
//! ```
//! use fusionfission::prelude::*;
//!
//! // A graph with obvious 2-community structure…
//! let g = fusionfission::graph::generators::two_cliques_bridge(8, 2.0, 0.1);
//! // …partitioned into 2 parts by fusion–fission.
//! let cfg = FusionFissionConfig::fast(2);
//! let result = FusionFission::new(&g, cfg, 42).run();
//! let mcut = Objective::MCut.evaluate(&g, &result.best);
//! assert!(mcut < 0.1, "the bridge should be the only cut edge");
//! ```

pub use ff_atc as atc;
pub use ff_core as core;
pub use ff_engine as engine;
pub use ff_graph as graph;
pub use ff_linalg as linalg;
pub use ff_metaheur as metaheur;
pub use ff_multilevel as multilevel;
pub use ff_partition as partition;
pub use ff_service as service;
pub use ff_spectral as spectral;

/// One-stop imports for the common workflow: build/generate a graph, run a
/// partitioner, evaluate objectives.
pub mod prelude {
    pub use ff_core::{ConfigError, FusionFission, FusionFissionConfig, FusionFissionResult};
    pub use ff_engine::{
        Adaptive, Combine, EnsembleResult, MigrationPolicy, MigrationPolicyId, ParetoResult,
        ReplaceIfBetter, Solver, SolverRun,
    };
    pub use ff_graph::{Graph, GraphBuilder};
    pub use ff_metaheur::{
        ant::{AntColony, AntColonyConfig},
        percolation::{percolation_partition, PercolationConfig},
        sa::{SimulatedAnnealing, SimulatedAnnealingConfig},
    };
    pub use ff_multilevel::{multilevel_partition, MultilevelConfig};
    pub use ff_partition::{Objective, Partition};
    pub use ff_spectral::{linear_partition, spectral_partition, SpectralConfig, SpectralSolver};
}
