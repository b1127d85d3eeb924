//! The one epoch loop ([`EpochLoop`]) and the seam it drives
//! ([`IslandSet`]): the islands of one run, wherever they live. A
//! [`SolverRun`](crate::SolverRun) is the loop over [`LocalIslands`]; a
//! distributed coordinator runs it over worker processes.
//!
//! Every epoch reads each island once, at the barrier, into an
//! [`IslandReport`]. The migration policy plans on those reports, and
//! [`Epoch::islands`] hands the same values to everything downstream:
//! the solver's metrics, a served job's improvement events and a
//! worker's `wstate` reply.

use crate::ensemble::EnsembleResult;
use crate::migration::{IslandStatus, MigrationPolicy};
use crate::pool::parallel_map;
use crate::reduction::reduce;
use crate::solver::distinct_objectives;
use ff_core::{FusionFissionResult, FusionFissionRun};
use ff_graph::Graph;
use ff_metaheur::{AnytimeTrace, TracePoint};
use ff_partition::{Objective, Partition};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// The islands of one run, addressed by their index in run order. Each
/// placement picks how a molecule travels and how an operation fails.
pub trait IslandSet {
    /// A best molecule on its way from a donor to its receivers.
    type Molecule;
    /// Why an operation failed.
    type Error;

    /// Advances every island by up to `steps` steps and returns each
    /// island's barrier report, in island order.
    fn advance(&mut self, steps: u64) -> Result<Vec<IslandReport>, Self::Error>;

    /// The donor's current best molecule.
    fn fetch(&mut self, donor: usize) -> Result<Self::Molecule, Self::Error>;

    /// Offers `molecule` to `island`, crossed with the island's own best
    /// when `crossover`, and reports whether it was adopted.
    fn inject(
        &mut self,
        island: usize,
        molecule: &Self::Molecule,
        crossover: bool,
    ) -> Result<bool, Self::Error>;

    /// Consumes the islands into their results, in island order.
    fn harvest(self) -> Result<Vec<FusionFissionResult>, Self::Error>;
}

/// One island as an epoch barrier finds it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IslandReport {
    /// Whether the island still has work.
    pub more: bool,
    /// Best scaled energy so far: the migration policy's input.
    pub energy: f64,
    /// Steps executed so far.
    pub steps: u64,
    /// Trace points recorded since the island's last report.
    pub news: Vec<TracePoint>,
}

/// What one epoch did.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Epoch {
    /// Whether any island still has work.
    pub more: bool,
    /// Every island's barrier report, in island order.
    pub islands: Vec<IslandReport>,
    /// Offers the policy planned at the barrier.
    pub offers: u64,
    /// Receiver pairs those offers named, one injection each.
    pub pairs: u64,
    /// Injections the receiver adopted.
    pub adopted: u64,
}

/// The epoch scheduler. Each epoch advances every island by the
/// policy's interval. Then, unless no island has work left (there is no
/// final exchange), the run has one island, or migration is disabled
/// (base interval 0), the policy plans over the barrier reports and the
/// loop executes the plan: it fetches each offer's donor once and
/// injects the molecule into each receiver in plan order.
pub struct EpochLoop<I> {
    pub(crate) islands: I,
    /// Each island's objective, in island order.
    objectives: Vec<Objective>,
    base_interval: u64,
    migration: Box<dyn MigrationPolicy>,
    migrations_adopted: u64,
}

impl<I: IslandSet> EpochLoop<I> {
    /// The loop over `islands`, island `i` minimizing `objectives[i]`,
    /// exchanging under `migration` every `base_interval` steps (`0`
    /// disables migration).
    pub fn new(
        islands: I,
        objectives: Vec<Objective>,
        base_interval: u64,
        migration: Box<dyn MigrationPolicy>,
    ) -> EpochLoop<I> {
        EpochLoop {
            islands,
            objectives,
            base_interval,
            migration,
            migrations_adopted: 0,
        }
    }

    /// Runs one epoch (see [`EpochLoop`]).
    pub fn advance_epoch(&mut self) -> Result<Epoch, I::Error> {
        let interval = self.migration.interval(self.base_interval);
        let chunk = if self.base_interval == 0 {
            u64::MAX
        } else {
            interval.max(1)
        };
        let islands = self.islands.advance(chunk)?;
        let mut epoch = Epoch {
            more: islands.iter().any(|r| r.more),
            islands,
            ..Epoch::default()
        };
        if !epoch.more || epoch.islands.len() < 2 || self.base_interval == 0 {
            return Ok(epoch);
        }
        let statuses: Vec<IslandStatus> = std::iter::zip(&self.objectives, &epoch.islands)
            .map(|(&objective, r)| IslandStatus {
                objective,
                best_energy: r.energy,
            })
            .collect();
        // Offers move within disjoint objective groups, so a donor holds
        // at fetch time the molecule it held at plan time.
        for offer in self.migration.plan(&statuses) {
            epoch.offers += 1;
            let molecule = self.islands.fetch(offer.donor)?;
            for &receiver in &offer.receivers {
                epoch.pairs += 1;
                if self.islands.inject(receiver, &molecule, offer.crossover)? {
                    epoch.adopted += 1;
                }
            }
        }
        self.migrations_adopted += epoch.adopted;
        Ok(epoch)
    }

    /// Harvests every island and reduces them by the run's objectives:
    /// the lowest value wins when the islands share one, a Pareto front is
    /// built when they run several. `g` is the graph the islands
    /// partition.
    pub fn harvest(self, g: &Graph) -> Result<EnsembleResult, I::Error> {
        let islands = self.islands.harvest()?;
        // The axis order of any Pareto front: the islands' objectives in
        // first-appearance order.
        let objectives = distinct_objectives(&self.objectives);
        let (best_island, pareto) = reduce(g, &islands, &objectives);
        // Cross-island merges only make sense within one criterion: merge
        // the primary (first) objective's islands, which for a
        // single-objective run is every island — bit-equal to the
        // historical reduction.
        let primary = objectives[0];
        let primary_islands = || {
            islands
                .iter()
                .filter(move |r| r.trace.tag().unwrap_or(primary) == primary)
        };
        let trace = AnytimeTrace::merged(primary_islands().map(|r| &r.trace));
        // Min-merge in island order per k, then build the map from the
        // sorted entries in bulk: inserting one key at a time in
        // ascending order would leave its nodes about half full.
        let mut per_k: Vec<(usize, f64)> = primary_islands()
            .flat_map(|r| r.best_value_per_k.iter().map(|(&k, &v)| (k, v)))
            .collect();
        per_k.sort_by_key(|&(k, _)| k); // stable: island order within a k
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(per_k.len());
        for (k, v) in per_k {
            if merged.last().is_none_or(|&(last, _)| last != k) {
                merged.push((k, f64::INFINITY));
            }
            if let Some((_, best)) = merged.last_mut() {
                if v < *best {
                    *best = v;
                }
            }
        }
        let best_value_per_k: BTreeMap<usize, f64> = merged.into_iter().collect();
        Ok(EnsembleResult {
            best: islands[best_island].best.clone(),
            best_value: islands[best_island].best_value,
            best_island,
            steps: islands.iter().map(|r| r.steps).sum(),
            migrations_adopted: self.migrations_adopted,
            trace,
            best_value_per_k,
            pareto,
            multilevel: None,
            islands,
        })
    }
}

/// In-process islands: [`FusionFissionRun`]s advanced in waves of at
/// most the [`Solver::threads`](crate::Solver::threads) cap
/// ([`parallel_map`]).
pub struct LocalIslands<'g> {
    pub(crate) runs: Vec<FusionFissionRun<'g>>,
    pub(crate) max_threads: usize,
    /// Per island, how many trace points its reports have carried.
    pub(crate) reported: Vec<usize>,
}

impl<'g> LocalIslands<'g> {
    /// The island runs, in island order.
    pub fn runs(&self) -> &[FusionFissionRun<'g>] {
        &self.runs
    }
}

impl IslandSet for LocalIslands<'_> {
    type Molecule = Partition;
    type Error = Infallible;

    fn advance(&mut self, steps: u64) -> Result<Vec<IslandReport>, Infallible> {
        // Each island's state evolution depends only on its own seed and
        // past injections, so wave layout cannot change results.
        let more = parallel_map(&mut self.runs, self.max_threads, |run| run.advance(steps));
        let mut reports = Vec::with_capacity(more.len());
        for ((run, reported), more) in self.runs.iter().zip(&mut self.reported).zip(more) {
            let news = run.trace().points_since(*reported).to_vec();
            *reported += news.len();
            reports.push(IslandReport {
                more,
                energy: run.best_energy(),
                steps: run.steps(),
                news,
            });
        }
        Ok(reports)
    }

    fn fetch(&mut self, donor: usize) -> Result<Partition, Infallible> {
        Ok(self.runs[donor].best_molecule().clone())
    }

    fn inject(
        &mut self,
        island: usize,
        molecule: &Partition,
        crossover: bool,
    ) -> Result<bool, Infallible> {
        let run = &mut self.runs[island];
        Ok(if crossover {
            run.inject_crossover(molecule)
        } else {
            run.inject(molecule)
        })
    }

    fn harvest(self) -> Result<Vec<FusionFissionResult>, Infallible> {
        Ok(self.runs.into_iter().map(|r| r.harvest()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::MigrationOffer;
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    /// Every call the loop makes, on the policy or the islands.
    #[derive(Clone, Debug, PartialEq)]
    enum Call {
        Interval(u64),
        Advance(u64),
        Plan(Vec<f64>),
        Fetch(usize),
        /// Receiver, molecule (its donor's index), crossover.
        Inject(usize, usize, bool),
    }

    type Log = Arc<Mutex<Vec<Call>>>;

    fn record(log: &Log, call: Call) {
        log.lock().unwrap().push(call);
    }

    /// Answers `interval` from a script, one entry per epoch, and `plan`
    /// with a fixed plan. Past the script's end it keeps the base, so a
    /// loop that calls too often fails on the call log, not in the fake.
    struct ScriptedPolicy {
        log: Log,
        intervals: VecDeque<u64>,
        plan: Vec<MigrationOffer>,
    }

    impl MigrationPolicy for ScriptedPolicy {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn interval(&mut self, base: u64) -> u64 {
            record(&self.log, Call::Interval(base));
            self.intervals.pop_front().unwrap_or(base)
        }

        fn plan(&mut self, islands: &[IslandStatus]) -> Vec<MigrationOffer> {
            let energies = islands.iter().map(|s| s.best_energy).collect();
            record(&self.log, Call::Plan(energies));
            self.plan.clone()
        }
    }

    /// Islands whose reported work flags and energies follow a script,
    /// one entry per advance, and whose injections answer from a scripted
    /// queue. A molecule is its donor's index. Past the script's end the
    /// islands have no work, keep their last energies and decline every
    /// offer.
    struct ScriptedIslands {
        log: Log,
        more: Vec<Vec<bool>>,
        energies: Vec<Vec<f64>>,
        adopt: VecDeque<bool>,
        advances: usize,
    }

    impl IslandSet for ScriptedIslands {
        type Molecule = usize;
        type Error = Infallible;

        fn advance(&mut self, steps: u64) -> Result<Vec<IslandReport>, Infallible> {
            record(&self.log, Call::Advance(steps));
            self.advances += 1;
            let flags = self.more.get(self.advances - 1).cloned();
            let flags = flags.unwrap_or_else(|| vec![false; self.more[0].len()]);
            let last = self.energies.len() - 1;
            let energies = &self.energies[(self.advances - 1).min(last)];
            Ok(island_reports(&flags, energies))
        }

        fn fetch(&mut self, donor: usize) -> Result<usize, Infallible> {
            record(&self.log, Call::Fetch(donor));
            Ok(donor)
        }

        fn inject(
            &mut self,
            island: usize,
            from: &usize,
            crossover: bool,
        ) -> Result<bool, Infallible> {
            record(&self.log, Call::Inject(island, *from, crossover));
            Ok(self.adopt.pop_front().unwrap_or(false))
        }

        fn harvest(self) -> Result<Vec<FusionFissionResult>, Infallible> {
            Ok(Vec::new())
        }
    }

    /// Reports carrying only a work flag and an energy per island.
    fn island_reports(more: &[bool], energies: &[f64]) -> Vec<IslandReport> {
        more.iter()
            .zip(energies)
            .map(|(&more, &energy)| IslandReport {
                more,
                energy,
                ..IslandReport::default()
            })
            .collect()
    }

    struct Script {
        base_interval: u64,
        intervals: Vec<u64>,
        more: Vec<Vec<bool>>,
        energies: Vec<Vec<f64>>,
        adopt: Vec<bool>,
    }

    /// Drives the loop until an epoch reports no work left; returns each
    /// epoch's report, the adopted total, and every call.
    fn drive(script: Script) -> (Vec<Epoch>, u64, Vec<Call>) {
        let log = Log::default();
        let objectives = vec![Objective::MCut; script.more[0].len()];
        let islands = ScriptedIslands {
            log: log.clone(),
            more: script.more,
            energies: script.energies,
            adopt: script.adopt.into(),
            advances: 0,
        };
        let policy = ScriptedPolicy {
            log: log.clone(),
            intervals: script.intervals.into(),
            plan: vec![
                MigrationOffer {
                    donor: 2,
                    receivers: vec![0, 3],
                    crossover: false,
                },
                MigrationOffer {
                    donor: 1,
                    receivers: vec![2],
                    crossover: true,
                },
            ],
        };
        let mut epochs =
            EpochLoop::new(islands, objectives, script.base_interval, Box::new(policy));
        let mut reports = Vec::new();
        loop {
            let Ok(epoch) = epochs.advance_epoch();
            let more = epoch.more;
            reports.push(epoch);
            if !more {
                break;
            }
        }
        let calls = log.lock().unwrap().clone();
        (reports, epochs.migrations_adopted, calls)
    }

    #[test]
    fn each_epoch_advances_then_executes_the_plan_in_order() {
        use Call::*;
        let (t, f) = (true, false);
        let (reports, adopted, calls) = drive(Script {
            base_interval: 100,
            // A policy's 0 for a non-zero base still advances one step.
            intervals: vec![100, 250, 0],
            more: vec![vec![t, t, f, t], vec![f, t, f, f], vec![f, f, f, f]],
            energies: vec![vec![4.0, 3.0, 1.0, 2.0], vec![3.0, 2.0, 1.0, 1.5]],
            adopt: vec![t, f, t, f, t, f],
        });
        let exchange = |energies: Vec<f64>| {
            vec![
                Plan(energies),
                Fetch(2),
                Inject(0, 2, false),
                Inject(3, 2, false),
                Fetch(1),
                Inject(2, 1, true),
            ]
        };
        let mut expected = vec![Interval(100), Advance(100)];
        expected.extend(exchange(vec![4.0, 3.0, 1.0, 2.0]));
        expected.extend([Interval(100), Advance(250)]);
        expected.extend(exchange(vec![3.0, 2.0, 1.0, 1.5]));
        // The advance that leaves no island with work ends the run: no
        // final exchange.
        expected.extend([Interval(100), Advance(1)]);
        assert_eq!(calls, expected);
        let second = [3.0, 2.0, 1.0, 1.5];
        let report = |more, islands, adopted| Epoch {
            more,
            islands,
            offers: 2,
            pairs: 3,
            adopted,
        };
        let last = Epoch {
            islands: island_reports(&[f; 4], &second),
            ..Epoch::default()
        };
        assert_eq!(
            reports,
            vec![
                report(t, island_reports(&[t, t, f, t], &[4.0, 3.0, 1.0, 2.0]), 2),
                report(t, island_reports(&[f, t, f, f], &second), 1),
                last,
            ]
        );
        assert_eq!(adopted, 3, "adopted = injections that returned true");
    }

    #[test]
    fn one_island_or_interval_zero_never_exchanges() {
        use Call::*;
        let (reports, adopted, calls) = drive(Script {
            base_interval: 50,
            intervals: vec![50, 50, 50],
            more: vec![vec![true], vec![true], vec![false]],
            energies: vec![vec![1.0]],
            adopt: Vec::new(),
        });
        assert_eq!(calls, vec![vec![Interval(50), Advance(50)]; 3].concat());
        assert_eq!(reports.iter().filter(|e| e.more).count(), 2);
        assert_eq!(adopted, 0);

        // Base interval 0: one advance to the stop condition, no plan.
        let (reports, adopted, calls) = drive(Script {
            base_interval: 0,
            intervals: vec![0, 0],
            more: vec![vec![true; 4], vec![false; 4]],
            energies: vec![vec![4.0, 3.0, 2.0, 1.0]],
            adopt: Vec::new(),
        });
        assert_eq!(
            calls,
            [
                Interval(0),
                Advance(u64::MAX),
                Interval(0),
                Advance(u64::MAX)
            ]
        );
        assert!(reports.iter().all(|e| e.offers == 0 && e.pairs == 0));
        assert_eq!(adopted, 0);
    }
}
