//! Fusion–fission configuration.
//!
//! The paper (§6) counts five tunables: `t_max`, `t_min`, `nbt` for the
//! temperature, and `k`, `r` in the choice function α(t). This config
//! exposes exactly those (as `t_max`/`t_min`/`nbt`/`choice_k`/`choice_r`)
//! plus the mechanical knobs the paper fixes implicitly (law learning
//! rate, ejection cap), ablation switches, and the stop condition.

use crate::choice::ChoiceFunction;
use ff_metaheur::StopCondition;
use ff_partition::Objective;

/// A configuration invariant violation, as a typed value instead of a
/// panic — servers map it to a typed `error` event, CLIs to a usage-error
/// exit code. Produced by [`FusionFissionConfig::try_validate`] and the
/// `ff-engine` solver builder (which adds the ensemble-level variants).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `k` was 0 (or never set on a builder).
    NonPositiveK,
    /// `k` exceeded the graph's vertex count: a partition cannot have
    /// more non-empty parts than vertices. Checked by the `ff-engine`
    /// solver builder, which holds the graph.
    KExceedsVertices {
        /// Requested part count.
        k: usize,
        /// Vertices in the graph.
        vertices: usize,
    },
    /// `t_max` did not exceed `t_min`.
    BadTemperatureRange,
    /// `nbt` was 0.
    ZeroNbt,
    /// `choice_k` or `choice_r` was negative.
    NegativeChoice,
    /// `law_rate` was outside `[0, 1)`.
    BadLawRate,
    /// An ensemble was configured with 0 islands.
    ZeroIslands,
    /// A per-island objective override list was empty.
    NoObjectives,
    /// An explicit island-seed list did not match the island count.
    SeedCountMismatch {
        /// Configured island count.
        islands: usize,
        /// Seeds supplied.
        seeds: usize,
    },
    /// Too few islands to cycle the per-island objective list: some
    /// distinct objective would never get an island.
    UncoveredObjectives {
        /// Configured island count.
        islands: usize,
        /// Minimum islands so every distinct objective gets one.
        needed: usize,
    },
    /// A multilevel coarsening target of 0 vertices.
    ZeroCoarsenTarget,
    /// Multilevel mode requested on the resumable `start()` path: the
    /// V-cycle owns the epoch loop, so only `run()` supports it.
    MultilevelNotResumable,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NonPositiveK => write!(f, "k must be positive"),
            ConfigError::KExceedsVertices { k, vertices } => {
                write!(f, "k must be in 1..={vertices} (got {k})")
            }
            ConfigError::BadTemperatureRange => write!(f, "t_max must exceed t_min"),
            ConfigError::ZeroNbt => write!(f, "nbt must be positive"),
            ConfigError::NegativeChoice => {
                write!(f, "choice_k and choice_r must be non-negative")
            }
            ConfigError::BadLawRate => write!(f, "law_rate in [0,1)"),
            ConfigError::ZeroIslands => write!(f, "need at least one island"),
            ConfigError::NoObjectives => write!(f, "need at least one objective"),
            ConfigError::SeedCountMismatch { islands, seeds } => write!(
                f,
                "island seed count mismatch: {islands} islands but {seeds} seeds"
            ),
            ConfigError::UncoveredObjectives { islands, needed } => write!(
                f,
                "the objective list needs at least {needed} islands so every \
                 distinct objective gets an island (got {islands})"
            ),
            ConfigError::ZeroCoarsenTarget => {
                write!(f, "multilevel coarsening target must be positive")
            }
            ConfigError::MultilevelNotResumable => {
                write!(
                    f,
                    "multilevel runs are not resumable; use run() instead of start()"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// How fission splits an atom in two (ablation switch; the paper uses
/// percolation, §4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FissionSplitter {
    /// The §4.4 percolation flood from two spread seeds.
    Percolation,
    /// Random half/half split (ablation baseline).
    RandomHalf,
}

/// Configuration for [`crate::FusionFission`].
#[derive(Clone, Copy, Debug)]
pub struct FusionFissionConfig {
    /// Target number of parts k (the result is reported at this k; the
    /// search itself roams k−…k+).
    pub k: usize,
    /// Objective to minimize (the paper's ATC study uses Mcut).
    pub objective: Objective,
    /// Maximal temperature (annealing restarts reheat to this).
    pub t_max: f64,
    /// Minimal temperature (the freeze point triggering a restart).
    pub t_min: f64,
    /// Temperature steps per annealing cycle: the paper's
    /// `decrease(t) = t − (t_max − t_min)/nbt`.
    pub nbt: u32,
    /// `k` in the paper's `α(t) = k·(t_max − t)/(t_max − t_min) + r`
    /// (slope of the fusion/fission threshold when frozen).
    pub choice_k: f64,
    /// `r` in α(t) (residual slope when hot).
    pub choice_r: f64,
    /// Shape of the fusion/fission decision (the paper's announced
    /// customization point; `Linear` is the published form).
    pub choice_fn: ChoiceFunction,
    /// Law reinforcement step (§4.1's "input value").
    pub law_rate: f64,
    /// Exponent biasing fusion-partner selection toward small atoms.
    pub size_bias: f64,
    /// Scale of the probability that an ejected nucleon triggers a
    /// secondary fission at high temperature.
    pub secondary_fission: f64,
    /// Stop condition for the whole run (initialization included).
    pub stop: StopCondition,
    /// Ablation: apply the binding-energy scaling (true = paper's method).
    pub use_energy_scaling: bool,
    /// Ablation: update laws from outcomes (true = paper's method).
    pub learn_laws: bool,
    /// Ablation: fission splitting mechanism.
    pub splitter: FissionSplitter,
}

impl FusionFissionConfig {
    /// The paper-faithful default for target `k`.
    pub fn standard(k: usize) -> Self {
        FusionFissionConfig {
            k,
            objective: Objective::MCut,
            // Defaults from the tuning sweep in `results/tune.csv`
            // (`cargo run -p ff-bench --release --bin tune`): long
            // annealing cycles and a strong small-partner bias dominate.
            t_max: 1.0,
            t_min: 0.0,
            nbt: 1600,
            choice_k: 8.0,
            choice_r: 0.25,
            choice_fn: ChoiceFunction::Linear,
            law_rate: 0.08,
            size_bias: 1.0,
            secondary_fission: 0.5,
            stop: StopCondition::steps(20_000),
            use_energy_scaling: true,
            learn_laws: true,
            splitter: FissionSplitter::Percolation,
        }
    }

    /// A small-budget preset for tests, examples and doctests.
    pub fn fast(k: usize) -> Self {
        FusionFissionConfig {
            nbt: 80,
            stop: StopCondition::steps(1_500),
            ..Self::standard(k)
        }
    }

    /// Validates invariants, returning a typed [`ConfigError`]. Called by
    /// the runner (which panics on `Err` to preserve the historical
    /// contract for in-process misuse) and by the `ff-engine` solver
    /// builder (which propagates the error).
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.k < 1 {
            return Err(ConfigError::NonPositiveK);
        }
        if self.t_max <= self.t_min {
            return Err(ConfigError::BadTemperatureRange);
        }
        if self.nbt < 1 {
            return Err(ConfigError::ZeroNbt);
        }
        if self.choice_k < 0.0 || self.choice_r < 0.0 {
            return Err(ConfigError::NegativeChoice);
        }
        if !(0.0..1.0).contains(&self.law_rate) {
            return Err(ConfigError::BadLawRate);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        FusionFissionConfig::standard(32).try_validate().unwrap();
        FusionFissionConfig::fast(2).try_validate().unwrap();
    }

    #[test]
    fn bad_temperatures_are_typed() {
        let cfg = FusionFissionConfig {
            t_max: 0.0,
            t_min: 0.5,
            ..FusionFissionConfig::standard(4)
        };
        assert_eq!(cfg.try_validate(), Err(ConfigError::BadTemperatureRange));
        assert_eq!(
            cfg.try_validate().unwrap_err().to_string(),
            "t_max must exceed t_min"
        );
    }

    #[test]
    fn zero_k_is_typed() {
        assert_eq!(
            FusionFissionConfig::standard(0).try_validate(),
            Err(ConfigError::NonPositiveK)
        );
    }

    #[test]
    fn bad_law_rate_is_typed() {
        let cfg = FusionFissionConfig {
            law_rate: 1.0,
            ..FusionFissionConfig::standard(4)
        };
        assert_eq!(cfg.try_validate(), Err(ConfigError::BadLawRate));
    }
}
