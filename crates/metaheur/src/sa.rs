//! Simulated annealing for k-way partitioning (§3.1 of the paper).
//!
//! The paper's adaptation (which it notes differs from Ercal et al. \[7\]):
//!
//! * the perturbation picks a **random vertex** and moves it to another
//!   part: at **high temperature**, to the part with the lowest internal
//!   edge weight (a mass-balancing exploration move); at low temperature,
//!   to a random part **connected** to the vertex ("connectivity between
//!   sectors is not forced" — but low-temperature moves follow edges),
//! * Boltzmann acceptance `exp((e(s) − e(s'))/T)`,
//! * **equilibrium** = a fixed number of refused moves at the current
//!   temperature, after which the temperature decreases,
//! * stopping when `T ≤ t_min`.
//!
//! The printed cooling formula `D(T) = T·(t_max − t_min)/t_max` is
//! degenerate for the paper's own `t_min = 0` (it would never cool), so —
//! as the surrounding text describes a schedule that "decreases during the
//! search" — this implementation offers the two standard readings:
//! geometric (`T ← αT`) and linear-by-span (`T ← T − (t_max − t_min)/n_t`,
//! the same schedule fusion–fission uses). Geometric with α = 0.97 is the
//! default; the choice is an explicit config knob so the ablation bench can
//! compare.

use crate::anytime::{AnytimeTrace, MetaheuristicResult, StopCondition};
use crate::percolation::{percolation_partition, PercolationConfig};
use ff_graph::{Graph, VertexId};
use ff_partition::{Connections, CutState, Objective, Partition};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Cooling schedule.
#[derive(Clone, Copy, Debug)]
pub enum Cooling {
    /// `T ← α·T` (0 < α < 1).
    Geometric(f64),
    /// `T ← T − (t_max − t_min)/steps` — reaches `t_min` in `steps`
    /// decrements.
    Linear {
        /// Number of decrements from `t_max` to `t_min`.
        steps: u32,
    },
}

/// Configuration for [`SimulatedAnnealing`].
#[derive(Clone, Copy, Debug)]
pub struct SimulatedAnnealingConfig {
    /// Objective to minimize (the paper uses Mcut for the ATC problem).
    pub objective: Objective,
    /// Initial temperature (the paper's only tuned parameter).
    pub t_max: f64,
    /// Freezing point (paper: 0).
    pub t_min: f64,
    /// Cooling schedule.
    pub cooling: Cooling,
    /// Refused moves at one temperature that constitute equilibrium.
    pub refusals_per_level: u32,
    /// Fraction of `t_max` above which the "high temperature" perturbation
    /// is used (default 0.5).
    pub high_temp_fraction: f64,
    /// When the freezing point is reached with budget left, reheat to
    /// `t_max` and restart from the best solution (default true — this is
    /// what lets Figure 1 run SA "infinitely"; set false for the classic
    /// single-descent schedule).
    pub reheat: bool,
    /// Step/time budget.
    pub stop: StopCondition,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimulatedAnnealingConfig {
    fn default() -> Self {
        SimulatedAnnealingConfig {
            objective: Objective::MCut,
            t_max: 1.0,
            t_min: 1e-4,
            cooling: Cooling::Geometric(0.97),
            refusals_per_level: 64,
            high_temp_fraction: 0.5,
            reheat: true,
            stop: StopCondition::steps(200_000),
            seed: 1,
        }
    }
}

/// The simulated-annealing runner.
pub struct SimulatedAnnealing<'g> {
    g: &'g Graph,
    cfg: SimulatedAnnealingConfig,
    init: Partition,
}

impl<'g> SimulatedAnnealing<'g> {
    /// Starts from the percolation partition, as the paper does.
    pub fn new(g: &'g Graph, k: usize, cfg: SimulatedAnnealingConfig) -> Self {
        let init = percolation_partition(
            g,
            k,
            &PercolationConfig {
                seed: cfg.seed,
                ..Default::default()
            },
        );
        SimulatedAnnealing { g, cfg, init }
    }

    /// Starts from an explicit partition.
    pub fn with_initial(g: &'g Graph, init: Partition, cfg: SimulatedAnnealingConfig) -> Self {
        assert_eq!(init.num_vertices(), g.num_vertices());
        SimulatedAnnealing { g, cfg, init }
    }

    /// Runs the annealing loop to completion.
    pub fn run(&self) -> MetaheuristicResult {
        let cfg = &self.cfg;
        let g = self.g;
        let n = g.num_vertices();
        let k = self.init.num_parts();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut st = CutState::new(g, self.init.clone());
        let mut conn = Connections::with_parts(k);
        let mut current = st.objective(cfg.objective);
        let mut best = self.init.clone();
        let mut best_value = current;
        let mut trace = AnytimeTrace::with_tag(cfg.objective);
        let started = Instant::now();
        trace.record(started.elapsed(), best_value, 0);

        let mut t = cfg.t_max;
        let mut refusals = 0u32;
        let mut step = 0u64;
        let high_threshold = cfg.t_max * cfg.high_temp_fraction;

        while !cfg.stop.should_stop(step, started) {
            if t <= cfg.t_min {
                if !cfg.reheat {
                    break;
                }
                // Freeze point reached with budget left: restart the
                // annealing cycle from the best solution found so far.
                t = cfg.t_max;
                st = CutState::new(g, best.clone());
                current = best_value;
            }
            step += 1;
            let v = rng.gen_range(0..n) as VertexId;
            let from = st.partition().part_of(v);
            // Never empty a part: the problem is a fixed-k partition.
            if st.partition().part_size(from) <= 1 {
                continue;
            }
            let to = if t > high_threshold {
                // Part with the lowest internal weight (excluding v's own).
                (0..k as u32)
                    .filter(|&p| p != from)
                    .min_by(|&a, &b| {
                        st.internal2(a)
                            .partial_cmp(&st.internal2(b))
                            .unwrap()
                            .then(a.cmp(&b))
                    })
                    .unwrap_or(from)
            } else {
                // Random part among those connected to v, by ascending
                // part id (deterministic).
                conn.gather_vertex(g, st.partition(), v);
                let cands: Vec<u32> = conn
                    .parts()
                    .iter()
                    .copied()
                    .filter(|&p| p != from)
                    .collect();
                match cands.len() {
                    0 => continue,
                    len => cands[rng.gen_range(0..len)],
                }
            };
            if to == from {
                continue;
            }

            let delta = st.move_delta(cfg.objective, v, to);
            let accept = if delta <= 0.0 {
                true
            } else if delta.is_finite() {
                // Boltzmann: exp(−Δ/T) > U(0,1).
                (-delta / t).exp() > rng.gen::<f64>()
            } else {
                false
            };
            if accept {
                st.move_vertex(v, to);
                current += delta;
                if current < best_value {
                    best_value = current;
                    best = st.partition().clone();
                    trace.record(started.elapsed(), best_value, step);
                }
            } else {
                refusals += 1;
                if refusals >= cfg.refusals_per_level {
                    refusals = 0;
                    t = match cfg.cooling {
                        Cooling::Geometric(alpha) => t * alpha,
                        Cooling::Linear { steps } => t - (cfg.t_max - cfg.t_min) / steps as f64,
                    };
                }
            }
        }

        // Guard against float drift in the accumulated `current`.
        let exact = Objective::evaluate(&cfg.objective, g, &best);
        MetaheuristicResult {
            best,
            best_value: exact,
            steps: step,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{planted_partition, random_geometric, two_cliques_bridge};

    fn quick_cfg(objective: Objective, seed: u64) -> SimulatedAnnealingConfig {
        SimulatedAnnealingConfig {
            objective,
            t_max: 0.5,
            stop: StopCondition::steps(30_000),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn improves_over_initial() {
        let g = random_geometric(80, 0.22, 7);
        let sa = SimulatedAnnealing::new(&g, 4, quick_cfg(Objective::Cut, 3));
        let init_cut = Objective::Cut.evaluate(&g, &sa.init);
        let res = sa.run();
        assert!(
            res.best_value <= init_cut + 1e-9,
            "SA worsened: {init_cut} → {}",
            res.best_value
        );
        assert!(res.best.validate(&g));
        assert_eq!(res.best.num_nonempty_parts(), 4);
    }

    #[test]
    fn finds_two_clique_bisection() {
        let g = two_cliques_bridge(10, 2.0, 0.2);
        let sa = SimulatedAnnealing::new(&g, 2, quick_cfg(Objective::Cut, 5));
        let res = sa.run();
        assert!(
            (res.best_value - 0.2).abs() < 1e-9,
            "cut = {}",
            res.best_value
        );
    }

    #[test]
    fn mcut_run_produces_finite_value() {
        let g = planted_partition(4, 12, 0.7, 0.05, 9);
        let sa = SimulatedAnnealing::new(&g, 4, quick_cfg(Objective::MCut, 2));
        let res = sa.run();
        assert!(res.best_value.is_finite());
        assert!(res.best_value >= 0.0);
    }

    #[test]
    fn trace_is_monotone() {
        let g = random_geometric(60, 0.25, 1);
        let sa = SimulatedAnnealing::new(&g, 3, quick_cfg(Objective::NCut, 4));
        let res = sa.run();
        let pts = res.trace.points();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[1].value <= w[0].value + 1e-12);
        }
    }

    #[test]
    fn keeps_k_parts() {
        let g = random_geometric(50, 0.3, 6);
        let sa = SimulatedAnnealing::new(&g, 6, quick_cfg(Objective::Cut, 8));
        let res = sa.run();
        assert_eq!(res.best.num_nonempty_parts(), 6);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = random_geometric(40, 0.3, 2);
        let run = |seed| {
            SimulatedAnnealing::new(&g, 3, quick_cfg(Objective::Cut, seed))
                .run()
                .best_value
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn linear_cooling_works() {
        let g = random_geometric(40, 0.3, 11);
        let cfg = SimulatedAnnealingConfig {
            cooling: Cooling::Linear { steps: 200 },
            stop: StopCondition::steps(20_000),
            ..quick_cfg(Objective::Cut, 3)
        };
        let res = SimulatedAnnealing::new(&g, 3, cfg).run();
        assert!(res.best_value.is_finite());
    }
}
