//! # ff-engine — the pluggable fusion–fission solver engine
//!
//! The paper's search is restart-friendly by construction: it reheats from
//! the best molecule whenever the temperature freezes, so it loses nothing
//! by being told, mid-run, about a better molecule someone *else* found.
//! This crate exploits that with island/ensemble parallelism in the style
//! of KaFFPaE (Sanders & Schulz, *Distributed Evolutionary Graph
//! Partitioning*), configured through one front door — the [`Solver`]
//! builder — with one strategy seam: a [`MigrationPolicy`] decides *what*
//! moves between islands at each epoch barrier and *when* the next
//! barrier happens — [`ReplaceIfBetter`] (offer the best molecule, adopt
//! if strictly better), [`Combine`] (KaFFPaE-style overlap crossover via
//! [`ff_core::overlap_combine`]), [`Adaptive`] (stagnation-driven interval
//! stretching).
//!
//! How the harvested islands become one result follows from their
//! objectives. When they all minimize one, the lowest value wins (ties to
//! the lowest island). Islands may also optimize *different* objectives;
//! then the deterministic non-dominated front survives as a
//! [`ParetoResult`], and its best point under the first objective is the
//! result.
//!
//! In the paper's vocabulary, an **island** is a separate beaker running
//! its own reaction chain; **migration** pours the most stable molecule
//! found so far into every other beaker (or, under [`Combine`], titrates
//! the two molecules together first).
//!
//! ## Determinism
//!
//! Results are reproducible regardless of thread scheduling, for every
//! policy:
//!
//! * per-island seeds are derived from one root seed with SplitMix64
//!   ([`derive_seeds`]), so island i's stream never depends on how many
//!   threads executed it,
//! * islands advance in lockstep **epochs** with a barrier between them;
//!   policies act only on barrier-time island state and consume no RNG,
//!   wall-clock or thread identity,
//! * the reduction is a deterministic function of the harvested islands
//!   (ties broken by island index), insensitive to harvest order.
//!
//! With a step-based [`ff_metaheur::StopCondition`] the solver's output is
//! therefore byte-identical across repeated runs and across any
//! [`Solver::threads`] cap. Wall-clock stop conditions keep every
//! *structural* guarantee but naturally cut each island at a
//! machine-dependent step count.
//!
//! ## Replace-if-better (the default)
//!
//! ```
//! use ff_engine::Solver;
//! use ff_graph::generators::planted_partition;
//!
//! let g = planted_partition(4, 10, 0.85, 0.03, 5);
//! let a = Solver::on(&g).k(4).islands(4).steps(1_500).seed(42).run().unwrap();
//! let b = Solver::on(&g).k(4).islands(4).steps(1_500).seed(42).run().unwrap();
//! assert_eq!(a.best.assignment(), b.best.assignment());
//! // With one objective the lowest-value island wins.
//! let island_min = a.islands.iter().map(|r| r.best_value).fold(f64::INFINITY, f64::min);
//! assert_eq!(a.best_value, island_min);
//! ```
//!
//! ## Combine (KaFFPaE-style crossover)
//!
//! ```
//! use ff_engine::{Combine, Solver};
//! use ff_graph::generators::planted_partition;
//!
//! let g = planted_partition(4, 10, 0.85, 0.03, 5);
//! let run = |threads| {
//!     Solver::on(&g)
//!         .k(4)
//!         .islands(3)
//!         .migration(Combine)
//!         .migration_interval(300)
//!         .steps(1_500)
//!         .seed(7)
//!         .threads(threads)
//!         .run()
//!         .unwrap()
//! };
//! // Byte-identical across thread caps, crossover included.
//! assert_eq!(run(0).best.assignment(), run(1).best.assignment());
//! ```
//!
//! ## Adaptive migration intervals
//!
//! ```
//! use ff_engine::{Adaptive, Solver};
//! use ff_graph::generators::planted_partition;
//!
//! let g = planted_partition(4, 10, 0.85, 0.03, 5);
//! let res = Solver::on(&g)
//!     .k(4)
//!     .islands(3)
//!     .migration(Adaptive::new(2, 8)) // patience 2 barriers, ≤ 8× interval
//!     .migration_interval(200)
//!     .steps(1_500)
//!     .seed(3)
//!     .run()
//!     .unwrap();
//! assert_eq!(res.best.num_nonempty_parts(), 4);
//! ```
//!
//! ## Multi-objective Pareto ensembles
//!
//! ```
//! use ff_engine::Solver;
//! use ff_graph::generators::planted_partition;
//! use ff_partition::{dominates, Objective};
//!
//! let g = planted_partition(4, 10, 0.85, 0.03, 5);
//! let res = Solver::on(&g)
//!     .k(4)
//!     .islands(4) // cycles over the objective list: cut, ncut, cut, ncut
//!     .objectives([Objective::Cut, Objective::NCut])
//!     .steps(1_500)
//!     .seed(11)
//!     .run()
//!     .unwrap();
//! let front = res.pareto.expect("two objectives give a front");
//! assert!(!front.points.is_empty());
//! for a in &front.points {
//!     for b in &front.points {
//!         assert!(a.island == b.island || !dominates(&a.values, &b.values));
//!     }
//! }
//! ```
//!
//! ## Multilevel acceleration (the big-graph path)
//!
//! [`Solver::multilevel`] coarsens the input by heavy-edge matching, runs
//! the unchanged ensemble on the coarse graph, then uncoarsens level by
//! level with greedy refinement ([`ff_multilevel::Vcycle`]). Same
//! determinism contract; steps cost a fraction of their flat price:
//!
//! ```
//! use ff_engine::{MultilevelOpts, Solver};
//! use ff_graph::generators::planted_partition;
//!
//! let g = planted_partition(4, 100, 0.1, 0.005, 5); // 400 vertices
//! let run = |threads| {
//!     Solver::on(&g)
//!         .k(4)
//!         .islands(2)
//!         .steps(1_500)
//!         .seed(42)
//!         .threads(threads)
//!         .multilevel(MultilevelOpts { coarsen_until: 64, ..Default::default() })
//!         .run()
//!         .unwrap()
//! };
//! let res = run(0);
//! let info = res.multilevel.as_ref().expect("multilevel pipeline ran");
//! assert!(info.levels >= 1 && info.coarse_vertices <= 400);
//! // Refinement never worsens the objective at any uncoarsening level,
//! // and the result is byte-identical across thread caps.
//! assert!(info.reports.iter().all(|r| r.value_after <= r.value_before));
//! assert_eq!(run(4).best.assignment(), res.best.assignment());
//! ```

pub mod ensemble;
pub mod epoch;
pub mod migration;
pub mod multilevel;
mod obs;
pub mod pool;
pub mod reduction;
pub mod seeds;
pub mod solver;

pub use ensemble::EnsembleResult;
pub use epoch::{Epoch, EpochLoop, IslandReport, IslandSet, LocalIslands};
pub use migration::{
    Adaptive, Combine, IslandStatus, MigrationOffer, MigrationPolicy, MigrationPolicyId,
    ReplaceIfBetter,
};
pub use multilevel::{LevelReport, MultilevelInfo, MultilevelOpts};
pub use pool::parallel_map;
pub use reduction::{ParetoPoint, ParetoResult};
pub use seeds::derive_seeds;
pub use solver::{distinct_objectives, islands_to_cover, Solver, SolverRun};
