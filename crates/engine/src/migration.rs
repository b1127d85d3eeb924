//! Pluggable island-migration policies: *what* moves between islands at
//! an epoch barrier, and *when* the next barrier happens.
//!
//! At each epoch barrier a policy turns the island statuses into a plan,
//! and the one epoch loop ([`EpochLoop`](crate::EpochLoop)) executes it
//! wherever the islands live. A policy must be a deterministic function
//! of the statuses it observes — it may keep its own state across
//! barriers (the adaptive policy does), but it must not consult
//! wall-clock time, thread identity, or an unseeded RNG, or the engine's
//! byte-identical reproducibility contract breaks.
//!
//! Islands optimizing **different objectives** (a Pareto ensemble) are
//! grouped by objective before any exchange: binding energies are only
//! comparable within one criterion, so each objective group elects its
//! own donor. Single-objective ensembles form one group, which makes
//! [`ReplaceIfBetter`] bit-equal to the historical hard-coded rule.

use ff_partition::Objective;

/// What a policy sees of one island at an exchange barrier — the full
/// decision input. The epoch loop builds it from the island's objective
/// and its [`IslandReport`](crate::IslandReport), plain values a worker
/// *process* reports exactly as an in-process run does, so both land on
/// the identical plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IslandStatus {
    /// The objective this island optimizes (exchange never crosses
    /// objective groups).
    pub objective: Objective,
    /// The island's best scaled energy so far.
    pub best_energy: f64,
}

/// One planned migration: the donor's best molecule is offered to each
/// receiver, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationOffer {
    /// Island whose best molecule is cloned and offered.
    pub donor: usize,
    /// Islands the molecule is offered to, in execution order.
    pub receivers: Vec<usize>,
    /// `false` → offer via [`ff_core::FusionFissionRun::inject`]; `true` →
    /// via [`ff_core::FusionFissionRun::inject_crossover`] (KaFFPaE-style
    /// combine).
    pub crossover: bool,
}

/// A migration strategy plugged into the solver
/// ([`Solver::migration`](crate::Solver::migration)).
///
/// A policy plans; it does not execute. Once per epoch the one epoch loop
/// ([`EpochLoop`](crate::EpochLoop)) asks for the interval, and at the
/// barrier it hands [`plan`](MigrationPolicy::plan) the island statuses
/// and executes the returned offers against the islands, wherever they
/// live. In-process and distributed runs therefore make bit-identical
/// decisions.
pub trait MigrationPolicy: Send {
    /// Stable display name (also the wire/CLI spelling).
    fn name(&self) -> &'static str;

    /// Steps every island advances before the next exchange barrier,
    /// given the configured base interval. The default keeps the base;
    /// [`Adaptive`] stretches it under stagnation. Called once per epoch,
    /// before the islands advance.
    fn interval(&mut self, base: u64) -> u64 {
        base
    }

    /// Decides the exchanges for one barrier from a snapshot of island
    /// statuses. Must be deterministic in `islands` (plus any state the
    /// policy carries across barriers) — no wall clock, no unseeded RNG —
    /// or the byte-identical reproducibility contract breaks. Only
    /// called when at least two islands are live and migration is
    /// enabled.
    fn plan(&mut self, islands: &[IslandStatus]) -> Vec<MigrationOffer>;
}

impl MigrationPolicy for Box<dyn MigrationPolicy> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn interval(&mut self, base: u64) -> u64 {
        (**self).interval(base)
    }

    fn plan(&mut self, islands: &[IslandStatus]) -> Vec<MigrationOffer> {
        (**self).plan(islands)
    }
}

/// Indices grouped by objective, each group in ascending island order;
/// groups ordered by first appearance. Exchange never crosses groups.
fn objective_groups(islands: &[IslandStatus]) -> Vec<(Objective, Vec<usize>)> {
    let mut groups: Vec<(Objective, Vec<usize>)> = Vec::new();
    for (i, st) in islands.iter().enumerate() {
        match groups.iter_mut().find(|(o, _)| *o == st.objective) {
            Some((_, members)) => members.push(i),
            None => groups.push((st.objective, vec![i])),
        }
    }
    groups
}

/// Donor = lowest best-energy island of the group (ties → lowest index).
fn donor_of(group: &[usize], islands: &[IslandStatus]) -> usize {
    let mut best = group[0];
    for &i in &group[1..] {
        if islands[i].best_energy < islands[best].best_energy {
            best = i;
        }
    }
    best
}

/// The historical rule: the group's best molecule is offered to every
/// other island, adopted iff strictly better (bit-equal to the
/// pre-builder ensemble loop, pinned by golden tests).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplaceIfBetter;

impl MigrationPolicy for ReplaceIfBetter {
    fn name(&self) -> &'static str {
        "replace"
    }

    fn plan(&mut self, islands: &[IslandStatus]) -> Vec<MigrationOffer> {
        let mut offers = Vec::new();
        for (_, group) in objective_groups(islands) {
            if group.len() < 2 {
                continue;
            }
            let donor = donor_of(&group, islands);
            let donor_energy = islands[donor].best_energy;
            // Islands already at or below the donor's energy would
            // reject the offer; skip them up front and spare the O(m)
            // re-scoring `inject` performs.
            let receivers: Vec<usize> = group
                .iter()
                .copied()
                .filter(|&i| i != donor && islands[i].best_energy > donor_energy)
                .collect();
            if !receivers.is_empty() {
                offers.push(MigrationOffer {
                    donor,
                    receivers,
                    crossover: false,
                });
            }
        }
        offers
    }
}

/// KaFFPaE-style *combine*: each receiving island crosses the donor's
/// molecule with its own best via
/// [`ff_core::overlap_combine`] (consensus
/// structure kept, disagreement region re-fused by the fusion operator)
/// and adopts whichever of {child, donor molecule} strictly improves it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Combine;

impl MigrationPolicy for Combine {
    fn name(&self) -> &'static str {
        "combine"
    }

    fn plan(&mut self, islands: &[IslandStatus]) -> Vec<MigrationOffer> {
        let mut offers = Vec::new();
        for (_, group) in objective_groups(islands) {
            if group.len() < 2 {
                continue;
            }
            let donor = donor_of(&group, islands);
            let receivers: Vec<usize> = group.iter().copied().filter(|&i| i != donor).collect();
            offers.push(MigrationOffer {
                donor,
                receivers,
                crossover: true,
            });
        }
        offers
    }
}

/// Stagnation-driven interval scaling around [`ReplaceIfBetter`]: while
/// the ensemble keeps improving, barriers stay at the base interval
/// (frequent mixing); after `patience` consecutive barriers with no group
/// improving its best energy, the interval doubles — up to
/// `max_scale`× — so stagnating islands get longer independent walks
/// before the next exchange. Any improvement snaps the interval back to
/// the base. Entirely a function of barrier-time island energies, so the
/// byte-identical contract holds.
#[derive(Clone, Debug)]
pub struct Adaptive {
    /// Stagnant barriers tolerated before the interval doubles.
    pub patience: u32,
    /// Hard cap on the interval multiplier.
    pub max_scale: u64,
    inner: ReplaceIfBetter,
    scale: u64,
    stagnant: u32,
    last_energies: Vec<f64>,
}

impl Default for Adaptive {
    fn default() -> Self {
        Adaptive {
            patience: 3,
            max_scale: 8,
            inner: ReplaceIfBetter,
            scale: 1,
            stagnant: 0,
            last_energies: Vec::new(),
        }
    }
}

impl Adaptive {
    /// An adaptive policy with explicit knobs.
    pub fn new(patience: u32, max_scale: u64) -> Self {
        Adaptive {
            patience: patience.max(1),
            max_scale: max_scale.max(1),
            ..Adaptive::default()
        }
    }

    /// The current interval multiplier (1 until stagnation kicks in).
    pub fn scale(&self) -> u64 {
        self.scale
    }
}

impl MigrationPolicy for Adaptive {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn interval(&mut self, base: u64) -> u64 {
        base.saturating_mul(self.scale)
    }

    fn plan(&mut self, islands: &[IslandStatus]) -> Vec<MigrationOffer> {
        // Per-group minimum best energy, in deterministic group order.
        let energies: Vec<f64> = objective_groups(islands)
            .iter()
            .map(|(_, group)| {
                group
                    .iter()
                    .map(|&i| islands[i].best_energy)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let improved = self.last_energies.is_empty()
            || energies
                .iter()
                .zip(&self.last_energies)
                .any(|(now, before)| now < before);
        if improved {
            self.stagnant = 0;
            self.scale = 1;
        } else {
            self.stagnant += 1;
            if self.stagnant >= self.patience {
                self.stagnant = 0;
                self.scale = (self.scale * 2).min(self.max_scale);
            }
        }
        self.last_energies = energies;
        self.inner.plan(islands)
    }
}

/// The built-in policies by name — the CLI/wire spelling used by
/// `ffpart --migration` and the service job schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MigrationPolicyId {
    /// [`ReplaceIfBetter`] (the default, spelled `replace`).
    #[default]
    ReplaceIfBetter,
    /// [`Combine`] (spelled `combine`).
    Combine,
    /// [`Adaptive`] with default knobs (spelled `adaptive`).
    Adaptive,
}

impl MigrationPolicyId {
    /// The wire/CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            MigrationPolicyId::ReplaceIfBetter => "replace",
            MigrationPolicyId::Combine => "combine",
            MigrationPolicyId::Adaptive => "adaptive",
        }
    }

    /// Parses the wire/CLI spelling.
    pub fn parse(name: &str) -> Option<MigrationPolicyId> {
        match name {
            "replace" | "replace-if-better" => Some(MigrationPolicyId::ReplaceIfBetter),
            "combine" => Some(MigrationPolicyId::Combine),
            "adaptive" => Some(MigrationPolicyId::Adaptive),
            _ => None,
        }
    }

    /// Instantiates the policy with default knobs.
    pub fn build(&self) -> Box<dyn MigrationPolicy> {
        match self {
            MigrationPolicyId::ReplaceIfBetter => Box::new(ReplaceIfBetter),
            MigrationPolicyId::Combine => Box::new(Combine),
            MigrationPolicyId::Adaptive => Box::new(Adaptive::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_ids_round_trip() {
        for id in [
            MigrationPolicyId::ReplaceIfBetter,
            MigrationPolicyId::Combine,
            MigrationPolicyId::Adaptive,
        ] {
            assert_eq!(MigrationPolicyId::parse(id.name()), Some(id));
            assert_eq!(id.build().name(), id.name());
        }
        assert_eq!(MigrationPolicyId::parse("osmosis"), None);
    }

    fn status(objective: Objective, best_energy: f64) -> IslandStatus {
        IslandStatus {
            objective,
            best_energy,
        }
    }

    #[test]
    fn groups_split_by_objective_in_island_order() {
        let statuses = vec![
            status(Objective::Cut, 1.0),
            status(Objective::MCut, 1.0),
            status(Objective::Cut, 1.0),
            status(Objective::NCut, 1.0),
        ];
        let groups = objective_groups(&statuses);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], (Objective::Cut, vec![0, 2]));
        assert_eq!(groups[1], (Objective::MCut, vec![1]));
        assert_eq!(groups[2], (Objective::NCut, vec![3]));
    }

    #[test]
    fn replace_plan_elects_donor_and_filters_receivers() {
        let statuses = vec![
            status(Objective::MCut, 3.0),
            status(Objective::MCut, 1.0),
            status(Objective::MCut, 1.0), // ties with 1 → donor is 1
            status(Objective::MCut, 2.0),
        ];
        let offers = ReplaceIfBetter.plan(&statuses);
        assert_eq!(
            offers,
            vec![MigrationOffer {
                donor: 1,
                receivers: vec![0, 3], // 2 holds the donor energy → skipped
                crossover: false,
            }]
        );
        // All islands at the donor's energy → nothing to offer.
        let tied: Vec<IslandStatus> = (0..3).map(|_| status(Objective::Cut, 1.0)).collect();
        assert!(ReplaceIfBetter.plan(&tied).is_empty());
    }

    #[test]
    fn combine_plan_offers_to_all_non_donors_per_group() {
        let statuses = vec![
            status(Objective::Cut, 2.0),
            status(Objective::MCut, 5.0),
            status(Objective::Cut, 1.0),
            status(Objective::MCut, 5.0), // ties with 1 → donor is 1
        ];
        let offers = Combine.plan(&statuses);
        assert_eq!(
            offers,
            vec![
                MigrationOffer {
                    donor: 2,
                    receivers: vec![0],
                    crossover: true,
                },
                MigrationOffer {
                    donor: 1,
                    receivers: vec![3],
                    crossover: true,
                },
            ]
        );
    }

    #[test]
    fn adaptive_scales_on_stagnation_and_resets_on_improvement() {
        let mut pol = Adaptive::new(2, 8);
        assert_eq!(pol.interval(100), 100);
        // Fake the state machine directly: no islands needed to check
        // the scaling arithmetic, which is what determinism rests on.
        pol.last_energies = vec![1.0];
        // Fresh islands hold +inf best energy: never an improvement on 1.0.
        let fresh = vec![status(Objective::MCut, f64::INFINITY); 2];
        for _ in 0..2 {
            pol.plan(&fresh);
        }
        assert_eq!(pol.scale(), 2);
        for _ in 0..2 {
            pol.plan(&fresh);
        }
        assert_eq!(pol.scale(), 4);
        assert_eq!(pol.interval(100), 400);
        // An improvement (finite energy below the fake previous best)
        // snaps back to the base.
        pol.last_energies = vec![f64::INFINITY];
        pol.plan(&[status(Objective::MCut, 0.5), status(Objective::MCut, 0.7)]);
        assert_eq!(pol.scale(), 1);
        assert_eq!(pol.interval(100), 100);
    }
}
