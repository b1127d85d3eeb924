//! The 17 Table-1 methods behind one dispatch enum, plus the ensemble
//! wrapper that gives any of them the multi-seed island treatment.

use ff_core::FusionFissionConfig;
use ff_engine::{derive_seeds, parallel_map, MigrationPolicyId, Solver};
use ff_graph::Graph;
use ff_metaheur::{AntColonyConfig, PercolationConfig, SimulatedAnnealingConfig, StopCondition};
use ff_multilevel::{multilevel_partition, MultilevelConfig, MultilevelMode};
use ff_partition::{Objective, Partition};
use ff_spectral::{
    linear_partition, spectral_partition, LinearMode, RefineMethod, SectionMode, SpectralConfig,
    SpectralSolver,
};
use std::time::{Duration, Instant};

/// Every method row of Table 1, in the paper's order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodId {
    /// `Linear (Bi)` — index-order recursive bisection, unrefined.
    LinearBi,
    /// `Linear (Bi, KL)`.
    LinearBiKl,
    /// `Linear (Oct, KL)` — index blocks + pairwise KL.
    LinearOctKl,
    /// `Spectral (Lanc, Bi)`.
    SpectralLancBi,
    /// `Spectral (Lanc, Bi, KL)`.
    SpectralLancBiKl,
    /// `Spectral (Lanc, Oct)`.
    SpectralLancOct,
    /// `Spectral (Lanc, Oct, KL)`.
    SpectralLancOctKl,
    /// `Spectral (RQI, Bi)`.
    SpectralRqiBi,
    /// `Spectral (RQI, Bi, KL)`.
    SpectralRqiBiKl,
    /// `Spectral (RQI, Oct)`.
    SpectralRqiOct,
    /// `Spectral (RQI, Oct, KL)`.
    SpectralRqiOctKl,
    /// `Multilevel (Bi)`.
    MultilevelBi,
    /// `Multilevel (Oct)` — direct k-way V-cycle.
    MultilevelOct,
    /// `Percolation`.
    Percolation,
    /// `Simulated annealing`.
    SimulatedAnnealing,
    /// `Ant colony`.
    AntColony,
    /// `Fusion Fission`.
    FusionFission,
}

impl MethodId {
    /// The paper's Table-1 ordering.
    pub fn all() -> [MethodId; 17] {
        use MethodId::*;
        [
            LinearBi,
            LinearBiKl,
            LinearOctKl,
            SpectralLancBi,
            SpectralLancBiKl,
            SpectralLancOct,
            SpectralLancOctKl,
            SpectralRqiBi,
            SpectralRqiBiKl,
            SpectralRqiOct,
            SpectralRqiOctKl,
            MultilevelBi,
            MultilevelOct,
            Percolation,
            SimulatedAnnealing,
            AntColony,
            FusionFission,
        ]
    }

    /// The paper's row label.
    pub fn label(&self) -> &'static str {
        use MethodId::*;
        match self {
            LinearBi => "Linear (Bi)",
            LinearBiKl => "Linear (Bi, KL)",
            LinearOctKl => "Linear (Oct, KL)",
            SpectralLancBi => "Spectral (Lanc, Bi)",
            SpectralLancBiKl => "Spectral (Lanc, Bi, KL)",
            SpectralLancOct => "Spectral (Lanc, Oct)",
            SpectralLancOctKl => "Spectral (Lanc, Oct, KL)",
            SpectralRqiBi => "Spectral (RQI, Bi)",
            SpectralRqiBiKl => "Spectral (RQI, Bi, KL)",
            SpectralRqiOct => "Spectral (RQI, Oct)",
            SpectralRqiOctKl => "Spectral (RQI, Oct, KL)",
            MultilevelBi => "Multilevel (Bi)",
            MultilevelOct => "Multilevel (Oct)",
            Percolation => "Percolation",
            SimulatedAnnealing => "Simulated annealing",
            AntColony => "Ant colony",
            FusionFission => "Fusion Fission",
        }
    }
}

/// Budget for the budget-driven (metaheuristic) methods.
#[derive(Clone, Copy, Debug)]
pub struct MethodBudget {
    /// Wall-clock cap per metaheuristic run.
    pub time: Duration,
    /// Step cap per metaheuristic run (safety net for tests).
    pub steps: u64,
}

impl MethodBudget {
    /// A small budget suitable for CI and tests.
    pub fn quick() -> Self {
        MethodBudget {
            time: Duration::from_millis(1500),
            steps: 60_000,
        }
    }

    /// Time-bounded budget.
    pub fn seconds(time: Duration) -> Self {
        MethodBudget {
            time,
            steps: u64::MAX,
        }
    }

    fn stop(&self) -> StopCondition {
        StopCondition::new(self.steps, self.time)
    }
}

/// What one method run produced.
#[derive(Clone, Debug)]
pub struct MethodOutcome {
    /// The partition (k non-empty parts).
    pub partition: Partition,
    /// Wall-clock the run took.
    pub elapsed: Duration,
}

fn spectral_cfg(
    solver: SpectralSolver,
    mode: SectionMode,
    refine: RefineMethod,
    seed: u64,
) -> SpectralConfig {
    SpectralConfig {
        solver,
        mode,
        refine,
        seed,
    }
}

/// Runs `method` on `g` targeting `k` parts.
///
/// Metaheuristics honor `budget`; constructive methods run to completion
/// (their wall-clock is reported in `elapsed`, Figure 1's reference
/// points). The paper tunes its metaheuristics on Mcut (§5); `objective`
/// parameterizes that.
pub fn run_method(
    method: MethodId,
    g: &Graph,
    k: usize,
    objective: Objective,
    budget: MethodBudget,
    seed: u64,
) -> MethodOutcome {
    use MethodId::*;
    let start = Instant::now();
    let partition = match method {
        LinearBi => linear_partition(g, k, LinearMode::Bisection, RefineMethod::None),
        LinearBiKl => linear_partition(g, k, LinearMode::Bisection, RefineMethod::Kl),
        LinearOctKl => linear_partition(g, k, LinearMode::Octasection, RefineMethod::Kl),
        SpectralLancBi => spectral_partition(
            g,
            k,
            &spectral_cfg(
                SpectralSolver::Lanczos,
                SectionMode::Bisection,
                RefineMethod::None,
                seed,
            ),
        ),
        SpectralLancBiKl => spectral_partition(
            g,
            k,
            &spectral_cfg(
                SpectralSolver::Lanczos,
                SectionMode::Bisection,
                RefineMethod::Kl,
                seed,
            ),
        ),
        SpectralLancOct => spectral_partition(
            g,
            k,
            &spectral_cfg(
                SpectralSolver::Lanczos,
                SectionMode::Octasection,
                RefineMethod::None,
                seed,
            ),
        ),
        SpectralLancOctKl => spectral_partition(
            g,
            k,
            &spectral_cfg(
                SpectralSolver::Lanczos,
                SectionMode::Octasection,
                RefineMethod::Kl,
                seed,
            ),
        ),
        SpectralRqiBi => spectral_partition(
            g,
            k,
            &spectral_cfg(
                SpectralSolver::Rqi,
                SectionMode::Bisection,
                RefineMethod::None,
                seed,
            ),
        ),
        SpectralRqiBiKl => spectral_partition(
            g,
            k,
            &spectral_cfg(
                SpectralSolver::Rqi,
                SectionMode::Bisection,
                RefineMethod::Kl,
                seed,
            ),
        ),
        SpectralRqiOct => spectral_partition(
            g,
            k,
            &spectral_cfg(
                SpectralSolver::Rqi,
                SectionMode::Octasection,
                RefineMethod::None,
                seed,
            ),
        ),
        SpectralRqiOctKl => spectral_partition(
            g,
            k,
            &spectral_cfg(
                SpectralSolver::Rqi,
                SectionMode::Octasection,
                RefineMethod::Kl,
                seed,
            ),
        ),
        MultilevelBi => multilevel_partition(
            g,
            k,
            &MultilevelConfig {
                mode: MultilevelMode::RecursiveBisection,
                seed,
            },
        ),
        MultilevelOct => multilevel_partition(
            g,
            k,
            &MultilevelConfig {
                mode: MultilevelMode::KWay,
                seed,
            },
        ),
        Percolation => ff_metaheur::percolation_partition(
            g,
            k,
            &PercolationConfig {
                seed,
                ..Default::default()
            },
        ),
        SimulatedAnnealing => {
            let cfg = SimulatedAnnealingConfig {
                objective,
                stop: budget.stop(),
                seed,
                ..Default::default()
            };
            ff_metaheur::SimulatedAnnealing::new(g, k, cfg).run().best
        }
        AntColony => {
            let cfg = AntColonyConfig {
                objective,
                stop: budget.stop(),
                seed,
                ..Default::default()
            };
            ff_metaheur::AntColony::new(g, k, cfg).run().best
        }
        FusionFission => {
            let cfg = FusionFissionConfig {
                objective,
                stop: budget.stop(),
                ..FusionFissionConfig::standard(k)
            };
            ff_core::FusionFission::new(g, cfg, seed).run().best
        }
    };
    MethodOutcome {
        partition,
        elapsed: start.elapsed(),
    }
}

/// Like [`run_method`], but as an `islands`-wide parallel ensemble rooted
/// at `seed` (per-island seeds are [`derive_seeds`]-derived, so results
/// are reproducible for any thread schedule; see the `ff-engine` docs).
///
/// * **Fusion–fission** runs as a true island ensemble through the
///   [`Solver`] builder, with `migration` choosing the exchange policy
///   (replace-if-better, KaFFPaE-style combine, or adaptive intervals),
/// * **every other method** runs `islands` independently seeded copies in
///   parallel and keeps the partition with the lowest `objective` (ties to
///   the lowest island index) — multi-start, the fair baseline treatment
///   (`migration` is ignored for them).
///
/// `max_threads` caps concurrency (`0` = one thread per island);
/// `islands <= 1` is exactly [`run_method`].
///
/// Fairness caveat: with a *time* budget and `max_threads < islands`, the
/// two branches budget differently — fusion–fission islands all start
/// their clocks together (late waves lose compute to waiting), while the
/// multi-start branch starts each island's clock when its wave runs (the
/// ensemble takes more wall-clock but every island gets the full budget).
/// For an apples-to-apples comparison use `max_threads = 0` or a
/// step-based budget, which are schedule-independent.
#[allow(clippy::too_many_arguments)]
pub fn run_method_ensemble(
    method: MethodId,
    g: &Graph,
    k: usize,
    objective: Objective,
    budget: MethodBudget,
    seed: u64,
    islands: usize,
    max_threads: usize,
    migration: MigrationPolicyId,
) -> MethodOutcome {
    if islands <= 1 {
        return run_method(method, g, k, objective, budget, seed);
    }
    let start = Instant::now();
    let partition = match method {
        MethodId::FusionFission => {
            let base = FusionFissionConfig {
                objective,
                stop: budget.stop(),
                ..FusionFissionConfig::standard(k)
            };
            Solver::on(g)
                .config(base)
                .islands(islands)
                .threads(max_threads)
                .migration(migration.build())
                .seed(seed)
                .run()
                .expect("validated budget/k")
                .best
        }
        _ => {
            let mut seeds = derive_seeds(seed, islands);
            let mut outs = parallel_map(&mut seeds, max_threads, |&mut seed| {
                run_method(method, g, k, objective, budget, seed)
            });
            let values: Vec<f64> = outs
                .iter()
                .map(|o| objective.evaluate(g, &o.partition))
                .collect();
            let mut best = 0;
            for i in 1..islands {
                if values[i] < values[best] {
                    best = i;
                }
            }
            outs.swap_remove(best).partition
        }
    };
    MethodOutcome {
        partition,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_atc::{FabopConfig, FabopInstance};

    #[test]
    fn all_seventeen_methods_produce_k_parts() {
        // Small instance so the whole matrix stays fast. A step-only
        // budget makes the metaheuristic rows deterministic too, so every
        // row's exact partition is pinned: FNV-1a over the little-endian
        // assignment, in Table 1's order.
        let inst = FabopInstance::scaled(120, &FabopConfig::default());
        let k = 8;
        let budget = MethodBudget {
            time: Duration::MAX,
            steps: 20_000,
        };
        let pinned: [u64; 17] = [
            0xe147_6397_ee22_2325,
            0x4eee_b62a_5e3d_7325,
            0x7475_d625_17b0_1625,
            0x0eaf_6eb1_6bc8_5ef5,
            0xfbf6_f779_34ac_4695,
            0x4c96_04dc_a0ea_c875,
            0x6534_bf9c_4587_5065,
            0x32ff_f8ae_0898_fa75,
            0x5d9c_2f32_d3d4_f7d5,
            0x339c_ce36_3399_6af5,
            0x471a_9e33_918a_44a5,
            0x9682_d661_c224_bf82,
            0xf375_a858_879b_a571,
            0x458c_c753_b31b_1515,
            0x1032_3cff_a1e6_4593,
            0xd404_c74d_de56_2d61,
            0xc325_f3f2_3739_33a5,
        ];
        for (method, want) in MethodId::all().into_iter().zip(pinned) {
            let out = run_method(method, &inst.graph, k, Objective::MCut, budget, 1);
            assert_eq!(
                out.partition.num_nonempty_parts(),
                k,
                "{} returned wrong k",
                method.label()
            );
            assert!(out.partition.validate(&inst.graph));
            let digest = out
                .partition
                .assignment()
                .iter()
                .flat_map(|a| a.to_le_bytes())
                .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
                });
            assert_eq!(digest, want, "{}: {digest:#018x}", method.label());
        }
    }

    #[test]
    fn ensemble_treatment_for_metaheuristics_and_baselines() {
        let inst = FabopInstance::scaled(100, &FabopConfig::default());
        let budget = MethodBudget {
            time: std::time::Duration::MAX,
            steps: 2_000,
        };
        for method in [
            MethodId::FusionFission,
            MethodId::SimulatedAnnealing,
            MethodId::MultilevelBi,
        ] {
            let policy = MigrationPolicyId::default();
            let a = run_method_ensemble(
                method,
                &inst.graph,
                6,
                Objective::MCut,
                budget,
                3,
                3,
                2,
                policy,
            );
            let b = run_method_ensemble(
                method,
                &inst.graph,
                6,
                Objective::MCut,
                budget,
                3,
                3,
                2,
                policy,
            );
            assert_eq!(
                a.partition.assignment(),
                b.partition.assignment(),
                "{} ensemble not reproducible",
                method.label()
            );
            assert_eq!(a.partition.num_nonempty_parts(), 6);
            // For the multi-start branch (everything except fusion–
            // fission) best-of-N is a hard invariant: the ensemble keeps
            // the minimum over islands, one of which IS the solo run at
            // the first derived seed. Fusion–fission is excluded — its
            // migration perturbs island trajectories, so min-over-islands
            // is only guaranteed against its *own* islands, not against a
            // migration-free solo run.
            if method != MethodId::FusionFission {
                let solo_seed = ff_engine::derive_seeds(3, 3)[0];
                let solo = run_method(method, &inst.graph, 6, Objective::MCut, budget, solo_seed);
                assert!(
                    Objective::MCut.evaluate(&inst.graph, &a.partition)
                        <= Objective::MCut.evaluate(&inst.graph, &solo.partition) + 1e-9,
                    "{} ensemble lost to its own first island",
                    method.label()
                );
            }
        }
    }

    #[test]
    fn ensemble_with_one_island_is_run_method() {
        let inst = FabopInstance::scaled(100, &FabopConfig::default());
        let budget = MethodBudget {
            time: std::time::Duration::MAX,
            steps: 1_500,
        };
        let a = run_method_ensemble(
            MethodId::FusionFission,
            &inst.graph,
            5,
            Objective::MCut,
            budget,
            7,
            1,
            0,
            MigrationPolicyId::default(),
        );
        let b = run_method(
            MethodId::FusionFission,
            &inst.graph,
            5,
            Objective::MCut,
            budget,
            7,
        );
        assert_eq!(a.partition.assignment(), b.partition.assignment());
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<&str> = MethodId::all().iter().map(|m| m.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 17);
    }
}
