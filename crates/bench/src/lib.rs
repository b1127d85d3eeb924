//! # ff-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (§6):
//!
//! | artifact | binary | what it reproduces |
//! |---|---|---|
//! | Table 1 | `table1` | 17 methods × {Cut, Ncut, Mcut} on the FABOP instance, k = 32 |
//! | Figure 1 | `figure1` | anytime Mcut vs wall-clock for SA / ACO / FF with spectral & multilevel reference lines |
//! | §6 claim | `sweep_k` | fusion–fission quality across realized part counts 27–38 |
//! | design ablations | `ablation` | energy scaling, law learning, fission splitter, SA cooling |
//!
//! Criterion micro/meso benches live in `benches/`. All binaries print
//! human-readable tables and write CSV into `results/`, and read their
//! flags, like `ffpart`, through [`flags::Flags`]; the FABOP binaries
//! share their budget, k, sector and seed flags through
//! [`experiment::ExperimentArgs`].

pub mod experiment;
pub mod flags;
pub mod methods;
pub mod report;

pub use ff_engine::MigrationPolicyId;
pub use methods::{run_method, run_method_ensemble, MethodBudget, MethodId, MethodOutcome};
pub use report::{to_json, write_csv, write_json, write_results, Cell, Table};
