//! Algorithm 1 (the fusion–fission loop) and Algorithm 2 (initialization).
//!
//! Two ways to drive the search:
//!
//! * [`FusionFission::run`] — one-shot: runs to the stop condition and
//!   harvests, exactly the paper's protocol;
//! * [`FusionFission::start`] → [`FusionFissionRun`] — a resumable handle
//!   that advances in bounded step chunks ([`FusionFissionRun::advance`])
//!   and accepts foreign best molecules between chunks
//!   ([`FusionFissionRun::inject`]). This is the seam the `ff-engine`
//!   island ensemble drives: both paths consume the RNG stream
//!   identically, so a chunked run is bit-equal to a one-shot run.

use crate::choice::{alpha, choice_with};
use crate::config::FusionFissionConfig;
use crate::energy::scaled_energy;
use crate::laws::{LawTable, Reaction};
use crate::ops::{fission_split, fuse, nfusion, select_partner, weakest_nucleons};
use ff_graph::Graph;
use ff_metaheur::{AnytimeTrace, CancelToken, Percolator};
use ff_partition::{Connections, CutState, Partition};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The fusion–fission runner.
pub struct FusionFission<'g> {
    g: &'g Graph,
    cfg: FusionFissionConfig,
    seed: u64,
    warm_start: Option<Partition>,
}

/// Result of a fusion–fission run.
#[derive(Clone, Debug)]
pub struct FusionFissionResult {
    /// Best partition observed with exactly the target k non-empty parts
    /// (compacted to dense ids).
    pub best: Partition,
    /// Objective value of [`FusionFissionResult::best`].
    pub best_value: f64,
    /// Lowest scaled energy seen across *all* part counts.
    pub best_energy: f64,
    /// Steps executed (initialization included).
    pub steps: u64,
    /// Best-at-target-k trace (feeds Figure 1).
    pub trace: AnytimeTrace,
    /// Best objective value seen at every visited part count — the data
    /// behind the paper's "returns good solutions from 27 to 38
    /// partitions" observation.
    pub best_value_per_k: BTreeMap<usize, f64>,
}

/// Per-run mutable search state shared by both phases.
struct Search<'g> {
    /// The current molecule. Its undo journal runs from the best
    /// molecule whenever `best_molecule` is empty.
    st: CutState<'g>,
    laws: LawTable,
    rng: ChaCha8Rng,
    step: u64,
    started: Instant,
    trace: AnytimeTrace,
    best_at_k: Option<(f64, Partition)>,
    best_energy: f64,
    /// The best molecule once materialized. While empty, it is the
    /// journal base of `st`.
    best_molecule: OnceLock<Partition>,
    best_value_per_k: BTreeMap<usize, f64>,
    /// The current molecule's objective value; cleared by every change
    /// to `st`'s sums (reaction, compaction, reheat).
    value: Option<f64>,
    /// Fission's percolation buffers, reused by every split of this run.
    perc: Percolator,
    /// Connection-weight slots, reused by every partner choice, nucleon
    /// absorption and secondary-fission target of this run.
    conn: Connections,
}

impl<'g> FusionFission<'g> {
    /// Prepares a run on `g` with configuration `cfg` and RNG `seed`.
    pub fn new(g: &'g Graph, cfg: FusionFissionConfig, seed: u64) -> Self {
        FusionFission {
            g,
            cfg,
            seed,
            warm_start: None,
        }
    }

    /// Prepares a warm-started run: Algorithm 2's singleton agglomeration
    /// is skipped and the core loop starts from `initial` (e.g. a
    /// multilevel partition). This is the hybridization Bichot's follow-up
    /// work explores; the paper's own protocol is [`FusionFission::new`].
    ///
    /// # Panics
    ///
    /// Panics if `initial` is for a different vertex count.
    pub fn with_initial(
        g: &'g Graph,
        cfg: FusionFissionConfig,
        seed: u64,
        initial: Partition,
    ) -> Self {
        assert_eq!(
            initial.num_vertices(),
            g.num_vertices(),
            "initial partition size mismatch"
        );
        FusionFission {
            g,
            cfg,
            seed,
            warm_start: Some(initial),
        }
    }

    /// Runs initialization (Algorithm 2) followed by the core loop
    /// (Algorithm 1) to the stop condition, then harvests.
    pub fn run(&self) -> FusionFissionResult {
        self.start().run_to_completion()
    }

    /// Builds the live, resumable search state. Drive it with
    /// [`FusionFissionRun::advance`] (or [`FusionFissionRun::run_to_completion`]);
    /// a chunked drive consumes the RNG stream exactly like [`FusionFission::run`].
    pub fn start(&self) -> FusionFissionRun<'g> {
        let cfg = self.cfg;
        if let Err(e) = cfg.try_validate() {
            panic!("{e}");
        }
        let g = self.g;
        let n = g.num_vertices();
        assert!(n >= 1, "graph must have vertices");
        assert!(cfg.k <= n, "more parts than vertices");
        let ideal = n as f64 / cfg.k as f64;

        let init_part = match &self.warm_start {
            Some(p) => p.clone(),
            None => Partition::singletons(g),
        };
        let skip_agglomeration = self.warm_start.is_some();
        // Until something beats it, the best molecule is the initial one:
        // the journal base.
        let mut st = CutState::new(g, init_part);
        st.mark_journal_base();
        let s = Search {
            st,
            laws: LawTable::new(n),
            rng: ChaCha8Rng::seed_from_u64(self.seed),
            step: 0,
            started: Instant::now(),
            trace: AnytimeTrace::with_tag(cfg.objective),
            best_at_k: None,
            best_energy: f64::INFINITY,
            best_molecule: OnceLock::new(),
            best_value_per_k: BTreeMap::new(),
            value: None,
            perc: Percolator::new(),
            conn: Connections::new(),
        };
        // Phase 1 uses no temperature, no secondary fissions, and the
        // sharpest (frozen) α, so every undersized atom fuses.
        let sharp = alpha(
            cfg.t_min,
            cfg.t_max,
            cfg.t_min,
            cfg.choice_k,
            cfg.choice_r,
            ideal,
        );
        let dt = (cfg.t_max - cfg.t_min) / cfg.nbt as f64;
        let mut run = FusionFissionRun {
            g,
            cfg,
            s,
            ideal,
            sharp,
            dt,
            t: cfg.t_max,
            agglomerating: !skip_agglomeration,
            cancel: None,
        };
        run.observe();
        run
    }
}

/// A live fusion–fission search that can be advanced in bounded chunks.
///
/// Produced by [`FusionFission::start`]. Between chunks the owner may
/// [`inject`](FusionFissionRun::inject) a foreign molecule — the hook the
/// `ff-engine` island ensemble uses for KaFFPaE-style best-molecule
/// migration — and finally [`harvest`](FusionFissionRun::harvest) the
/// result. The search is a pure function of (graph, config, seed, injected
/// molecules): wall-clock only enters through time-based stop conditions.
pub struct FusionFissionRun<'g> {
    g: &'g Graph,
    cfg: FusionFissionConfig,
    s: Search<'g>,
    ideal: f64,
    sharp: f64,
    dt: f64,
    t: f64,
    agglomerating: bool,
    cancel: Option<CancelToken>,
}

impl<'g> FusionFissionRun<'g> {
    /// The current molecule's objective value: one fold over the part
    /// sums per change of the molecule, shared by every reader.
    fn value_of_current(&mut self) -> f64 {
        let s = &mut self.s;
        *s.value
            .get_or_insert_with(|| s.st.objective(self.cfg.objective))
    }

    fn energy_of_current(&mut self) -> f64 {
        scaled_energy(
            self.value_of_current(),
            self.cfg.objective,
            self.s.st.partition().num_nonempty_parts(),
            self.cfg.k,
            self.cfg.use_energy_scaling,
        )
    }

    /// Picks a uniformly random live (non-empty) atom: the r-th live part
    /// id in ascending order for a uniform draw r.
    fn pick_live_atom(&mut self) -> u32 {
        let part = self.s.st.partition();
        let r = self.s.rng.gen_range(0..part.num_nonempty_parts());
        part.nth_live_part(r)
    }

    /// Records the current molecule into best-trackers and the trace.
    fn observe(&mut self) {
        let value = self.value_of_current();
        let s = &mut self.s;
        let live = s.st.partition().num_nonempty_parts();
        let entry = s.best_value_per_k.entry(live).or_insert(f64::INFINITY);
        if value < *entry {
            *entry = value;
        }
        let energy = scaled_energy(
            value,
            self.cfg.objective,
            live,
            self.cfg.k,
            self.cfg.use_energy_scaling,
        );
        if energy < s.best_energy {
            // The current molecule becomes the best one, kept as the
            // journal base rather than copied.
            s.best_energy = energy;
            s.best_molecule.take();
            s.st.mark_journal_base();
        } else if s.best_molecule.get().is_some()
            || s.st.journal_len() >= s.st.partition().num_vertices()
        {
            // Materialize a journaled best before its journal outgrows
            // O(n); a materialized best needs no journal.
            s.best_molecule.get_or_init(|| s.st.journal_base());
            s.st.mark_journal_base();
        }
        if live == self.cfg.k && s.best_at_k.as_ref().is_none_or(|(bv, _)| value < *bv) {
            s.best_at_k = Some((value, s.st.partition().clone()));
            s.trace.record(s.started.elapsed(), value, s.step);
        }
    }

    /// One fusion of `atom`, with law-driven nucleon ejection.
    /// Returns `(law_size, chosen_ejection)` when a fusion happened.
    fn do_fusion(&mut self, atom: u32, t_norm: f64) -> Option<(usize, usize)> {
        let s = &mut self.s;
        let partner = select_partner(
            &s.st,
            &mut s.conn,
            atom,
            t_norm,
            self.cfg.size_bias,
            &mut s.rng,
        )?;
        s.value = None;
        let merged = fuse(&mut s.st, atom, partner);
        let size = s.st.partition().part_size(merged);
        let law = s.laws.law(Reaction::Fusion, size);
        let eject = law.sample(&mut s.rng, size.saturating_sub(1));
        for v in weakest_nucleons(&s.st, merged, eject) {
            nfusion(&mut s.st, &mut s.conn, v);
        }
        Some((size, eject))
    }

    /// One fission of `atom` (§4.2), optionally with secondary fissions at
    /// high temperature. Returns `(law_size, chosen_ejection)`.
    fn do_fission(
        &mut self,
        atom: u32,
        t_norm: f64,
        allow_secondary: bool,
    ) -> Option<(usize, usize)> {
        let s = &mut self.s;
        let size_before = s.st.partition().part_size(atom);
        let new_half = fission_split(&mut s.st, atom, self.cfg.splitter, &mut s.perc, &mut s.rng)?;
        s.value = None;
        let law = s.laws.law(Reaction::Fission, size_before);
        // Ejection from the larger half, which has the loosest nucleons.
        let bigger = if s.st.partition().part_size(atom) >= s.st.partition().part_size(new_half) {
            atom
        } else {
            new_half
        };
        let avail = s.st.partition().part_size(bigger).saturating_sub(1);
        let eject = law.sample(&mut s.rng, avail);
        for v in weakest_nucleons(&s.st, bigger, eject) {
            let high_energy =
                allow_secondary && s.rng.gen::<f64>() < self.cfg.secondary_fission * t_norm;
            if high_energy {
                // §4.2: the hot nucleon triggers a simple fission (no
                // ejection) of an atom connected to it, then settles.
                s.conn.gather_vertex(s.st.graph(), s.st.partition(), v); // ascending part ids
                if let Some((target, _)) =
                    s.conn.iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                {
                    let _ = fission_split(
                        &mut s.st,
                        target,
                        self.cfg.splitter,
                        &mut s.perc,
                        &mut s.rng,
                    );
                }
            }
            nfusion(&mut s.st, &mut s.conn, v);
        }
        Some((size_before, eject))
    }

    /// Compacts away accumulated empty part slots when they dominate.
    /// Compaction renumbers parts, which ends the journal, so a journaled
    /// best molecule is materialized first.
    fn maybe_compact(&mut self) {
        let s = &mut self.s;
        let total = s.st.partition().num_parts();
        let live = s.st.partition().num_nonempty_parts();
        if total > 2 * live + 64 {
            s.best_molecule.get_or_init(|| s.st.journal_base());
            s.st.compact();
            s.value = None;
        }
    }

    /// Reinforces or weakens the law a reaction used, based on whether the
    /// molecule's scaled energy improved.
    fn learn(&mut self, outcome: Option<(Reaction, (usize, usize))>, e_before: f64) {
        if let Some((reaction, (law_size, eject))) = outcome {
            let improved = self.energy_of_current() < e_before;
            if self.cfg.learn_laws {
                self.s
                    .laws
                    .law_mut(reaction, law_size)
                    .update(eject, improved, self.cfg.law_rate);
            }
        }
    }

    /// One step of Algorithm 2 (fusion-dominated agglomeration).
    fn init_step(&mut self) {
        let cfg = self.cfg;
        self.s.step += 1;
        let atom = self.pick_live_atom();
        let x = self.s.st.partition().part_size(atom) as f64;
        let e_before = self.energy_of_current();
        let wants_fission =
            self.s.rng.gen::<f64>() < choice_with(cfg.choice_fn, x, self.ideal, self.sharp);
        let outcome = if wants_fission {
            self.do_fission(atom, 0.0, false)
                .map(|o| (Reaction::Fission, o))
        } else {
            self.do_fusion(atom, 0.25).map(|o| (Reaction::Fusion, o))
        };
        self.learn(outcome, e_before);
        self.observe();
        self.maybe_compact();
    }

    /// One step of Algorithm 1 (the temperature-driven core loop),
    /// including cooling and the freeze-reheat restart.
    fn core_step(&mut self) {
        let cfg = self.cfg;
        self.s.step += 1;
        let t_norm = (self.t - cfg.t_min) / (cfg.t_max - cfg.t_min);
        let atom = self.pick_live_atom();
        let x = self.s.st.partition().part_size(atom) as f64;
        let a = alpha(
            self.t,
            cfg.t_max,
            cfg.t_min,
            cfg.choice_k,
            cfg.choice_r,
            self.ideal,
        );
        let e_before = self.energy_of_current();

        let wants_fission = self.s.rng.gen::<f64>() < choice_with(cfg.choice_fn, x, self.ideal, a);
        let outcome = if wants_fission {
            self.do_fission(atom, t_norm, true)
                .map(|o| (Reaction::Fission, o))
                // Unsplittable singleton: fuse it away instead.
                .or_else(|| self.do_fusion(atom, t_norm).map(|o| (Reaction::Fusion, o)))
        } else {
            self.do_fusion(atom, t_norm)
                .map(|o| (Reaction::Fusion, o))
                .or_else(|| {
                    self.do_fission(atom, t_norm, true)
                        .map(|o| (Reaction::Fission, o))
                })
        };
        self.learn(outcome, e_before);
        self.observe();
        self.maybe_compact();

        // Cool; reheat-restart from the best molecule when frozen. The
        // restarted molecule is the best one, so it is the journal base
        // again and the best needs no copy of its own.
        self.t -= self.dt;
        if self.t <= cfg.t_min {
            self.t = cfg.t_max;
            let s = &mut self.s;
            let best = s.best_molecule.take();
            s.st.reset(best.unwrap_or_else(|| s.st.journal_base()));
            s.value = None;
        }
    }

    /// Binds a cooperative cancellation token: once `token.cancel()` is
    /// called (from any clone, any thread), the next [`step_once`]
    /// (equivalently the current [`advance`] chunk) stops and the run
    /// behaves as finished, with every best-so-far accessor and
    /// [`harvest`] still valid. This is the per-job cancel hook the
    /// serving layer plumbs through; it composes with — never replaces —
    /// the configured [`ff_metaheur::StopCondition`].
    ///
    /// [`step_once`]: FusionFissionRun::step_once
    /// [`advance`]: FusionFissionRun::advance
    /// [`harvest`]: FusionFissionRun::harvest
    pub fn bind_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether a bound [`CancelToken`] has been triggered.
    pub fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// Executes one search step. Returns `false` (doing nothing) once the
    /// stop condition is met or a bound [`CancelToken`] fires.
    pub fn step_once(&mut self) -> bool {
        if self.cancelled() || self.cfg.stop.should_stop(self.s.step, self.s.started) {
            return false;
        }
        if self.agglomerating {
            if self.s.st.partition().num_nonempty_parts() > self.cfg.k {
                self.init_step();
                return true;
            }
            self.agglomerating = false;
        }
        self.core_step();
        true
    }

    /// Executes up to `max_steps` steps. Returns `true` while the stop
    /// condition has not been reached (i.e. there is more work to do).
    pub fn advance(&mut self, max_steps: u64) -> bool {
        for _ in 0..max_steps {
            if !self.step_once() {
                return false;
            }
        }
        !self.finished()
    }

    /// Whether the stop condition has been reached or the run cancelled.
    pub fn finished(&self) -> bool {
        self.cancelled() || self.cfg.stop.should_stop(self.s.step, self.s.started)
    }

    /// Steps executed so far (initialization included).
    pub fn steps(&self) -> u64 {
        self.s.step
    }

    /// Lowest scaled energy seen so far, across all part counts.
    pub fn best_energy(&self) -> f64 {
        self.s.best_energy
    }

    /// The molecule holding [`FusionFissionRun::best_energy`] — the
    /// reheat-restart point.
    ///
    /// The search does not copy a molecule when it improves on the best;
    /// it keeps an undo journal back to it instead. The best molecule is
    /// materialized lazily: the first read after an improvement costs one
    /// partition clone plus a rewind of the moves made since (at most
    /// about n of them), and later reads until the next improvement are
    /// free.
    pub fn best_molecule(&self) -> &Partition {
        self.s
            .best_molecule
            .get_or_init(|| self.s.st.journal_base())
    }

    /// Best `(value, partition)` seen with exactly the target k parts.
    pub fn best_at_target(&self) -> Option<(f64, &Partition)> {
        self.s.best_at_k.as_ref().map(|(v, p)| (*v, p))
    }

    /// The live best-at-target-k trace. Combined with
    /// [`ff_metaheur::AnytimeTrace::points_since`] this is the streaming
    /// tap: read between [`advance`](FusionFissionRun::advance) chunks to
    /// observe each improvement exactly once, as it happens.
    pub fn trace(&self) -> &AnytimeTrace {
        &self.s.trace
    }

    /// The configuration this run was started with.
    pub fn config(&self) -> &FusionFissionConfig {
        &self.cfg
    }

    /// Offers a foreign molecule (an island-migration candidate). It is
    /// adopted as the new best molecule — hence the next freeze-reheat
    /// restart point — iff its scaled energy strictly beats the current
    /// best. The in-flight walk is not interrupted, mirroring the paper's
    /// reheat-from-best rule. Returns whether the molecule was adopted.
    ///
    /// # Panics
    ///
    /// Panics if `molecule` is for a different vertex count.
    pub fn inject(&mut self, molecule: &Partition) -> bool {
        assert_eq!(
            molecule.num_vertices(),
            self.g.num_vertices(),
            "molecule size mismatch"
        );
        // An offered molecule is adopted by assignment only: rebuild it
        // vertex-ascending so the verdict, the cached part weights, and
        // the stored reheat point are all independent of the donor's
        // internal move history. This is what lets a migration cross a
        // process boundary (serialized as its assignment) and land
        // bit-identically to the in-process exchange.
        let molecule = Partition::from_assignment(
            self.g,
            molecule.assignment().to_vec(),
            molecule.num_parts(),
        );
        let value = self.cfg.objective.evaluate(self.g, &molecule);
        let energy = scaled_energy(
            value,
            self.cfg.objective,
            molecule.num_nonempty_parts(),
            self.cfg.k,
            self.cfg.use_energy_scaling,
        );
        if energy < self.s.best_energy {
            self.s.best_energy = energy;
            self.s.best_molecule = OnceLock::from(molecule);
            true
        } else {
            false
        }
    }

    /// KaFFPaE-style *combine* migration hook: crosses the foreign
    /// molecule with this island's current best via
    /// [`ops::overlap_combine`](crate::ops::overlap_combine) and offers
    /// both the child and the raw foreign molecule through
    /// [`inject`](FusionFissionRun::inject) (each adopted only if
    /// strictly better than the best held at the time). Deterministic —
    /// no RNG is consumed, so the island's own stream is untouched.
    /// Returns whether anything was adopted.
    ///
    /// # Panics
    ///
    /// Panics if `foreign` is for a different vertex count.
    pub fn inject_crossover(&mut self, foreign: &Partition) -> bool {
        assert_eq!(
            foreign.num_vertices(),
            self.g.num_vertices(),
            "molecule size mismatch"
        );
        let child = crate::ops::overlap_combine(self.g, self.best_molecule(), foreign, self.cfg.k);
        let adopted_child = self.inject(&child);
        let adopted_foreign = self.inject(foreign);
        adopted_child || adopted_foreign
    }

    /// Steps to the stop condition, then harvests.
    pub fn run_to_completion(mut self) -> FusionFissionResult {
        while self.step_once() {}
        self.harvest()
    }

    /// Consumes the run, producing the final result.
    pub fn harvest(self) -> FusionFissionResult {
        let s = self.s;
        let (best_value, mut best) = match s.best_at_k {
            Some((v, p)) => (v, p),
            None => {
                // Target k never visited (tiny budgets): fall back to the
                // best molecule regardless of its part count.
                let best = s
                    .best_molecule
                    .into_inner()
                    .unwrap_or_else(|| s.st.journal_base());
                (self.cfg.objective.evaluate(self.g, &best), best)
            }
        };
        best.compact();
        FusionFissionResult {
            best,
            best_value,
            best_energy: s.best_energy,
            steps: s.step,
            trace: s.trace,
            best_value_per_k: s.best_value_per_k,
        }
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FissionSplitter;
    use ff_graph::generators::{
        planted_partition, planted_partition_sparse, random_geometric, two_cliques_bridge,
    };
    use ff_metaheur::StopCondition;
    use ff_partition::Objective;

    #[test]
    fn cut_from_singletons_golden() {
        // Pinned output of a Cut run from singletons: agglomeration, then
        // the core loop. Any change to these values is a change of the
        // search, not of its speed.
        let g = planted_partition_sparse(4, 500, 0.02, 1e-3, 3);
        let cfg = FusionFissionConfig {
            objective: Objective::Cut,
            stop: StopCondition::steps(2500),
            ..FusionFissionConfig::standard(4)
        };
        let res = FusionFission::new(&g, cfg, 7).run();
        // FNV-1a over the little-endian assignment.
        let digest = res
            .best
            .assignment()
            .iter()
            .flat_map(|a| a.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
        assert_eq!(digest, 0x8cbc_7fb3_daa2_c7c4);
        assert_eq!(res.best_value.to_bits(), 0x4094_5200_0000_0000); // 1300.5
        assert_eq!(res.steps, 2500);
    }

    #[test]
    fn run_can_move_between_threads() {
        // Island ensembles advance each run on a scoped thread.
        fn check<T: Send + Sync>() {}
        check::<FusionFissionRun<'static>>();
    }

    #[test]
    fn finds_two_clique_bisection() {
        let g = two_cliques_bridge(8, 2.0, 0.1);
        let res = FusionFission::new(&g, FusionFissionConfig::fast(2), 42).run();
        assert_eq!(res.best.num_nonempty_parts(), 2);
        // Optimal bisection cuts only the bridge: each K8 side has
        // W(A) = 2 × 28 edges × 2.0 = 112, so Mcut = 2 × 0.1/112.
        assert!(
            (res.best_value - 2.0 * (0.1 / 112.0)).abs() < 1e-9,
            "Mcut = {}",
            res.best_value
        );
    }

    #[test]
    fn partition_stays_valid() {
        let g = random_geometric(60, 0.25, 3);
        let res = FusionFission::new(&g, FusionFissionConfig::fast(4), 7).run();
        assert!(res.best.validate(&g));
        assert_eq!(res.best.num_nonempty_parts(), 4);
    }

    #[test]
    fn recovers_planted_communities_under_cut() {
        let g = planted_partition(4, 10, 0.85, 0.03, 5);
        let cfg = FusionFissionConfig {
            objective: Objective::Cut,
            stop: StopCondition::steps(3_000),
            ..FusionFissionConfig::fast(4)
        };
        let res = FusionFission::new(&g, cfg, 11).run();
        assert!(
            res.best_value < 0.15 * g.total_edge_weight(),
            "cut {} too large",
            res.best_value
        );
    }

    #[test]
    fn roams_neighboring_part_counts() {
        let g = random_geometric(80, 0.22, 9);
        let res = FusionFission::new(&g, FusionFissionConfig::fast(6), 3).run();
        // The search must have visited the target and at least one
        // neighboring k (that is its defining feature).
        assert!(res.best_value_per_k.contains_key(&6));
        assert!(
            res.best_value_per_k.len() >= 3,
            "visited only {:?}",
            res.best_value_per_k.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn trace_monotone() {
        let g = random_geometric(50, 0.3, 2);
        let res = FusionFission::new(&g, FusionFissionConfig::fast(3), 8).run();
        let pts = res.trace.points();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[1].value <= w[0].value + 1e-12);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = random_geometric(40, 0.3, 6);
        let run = |seed| {
            FusionFission::new(&g, FusionFissionConfig::fast(3), seed)
                .run()
                .best_value
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn ablation_variants_run() {
        let g = random_geometric(40, 0.3, 12);
        for (scaling, learn, splitter) in [
            (false, true, FissionSplitter::Percolation),
            (true, false, FissionSplitter::Percolation),
            (true, true, FissionSplitter::RandomHalf),
        ] {
            let cfg = FusionFissionConfig {
                use_energy_scaling: scaling,
                learn_laws: learn,
                splitter,
                ..FusionFissionConfig::fast(3)
            };
            let res = FusionFission::new(&g, cfg, 4).run();
            assert!(res.best.validate(&g));
            assert!(res.best_value.is_finite());
        }
    }

    #[test]
    fn k_equals_one() {
        // Deterministically connected graph: fusion only merges atoms that
        // exchange flow, so a disconnected instance can never collapse to
        // a single part.
        let g = ff_graph::generators::grid2d(4, 5);
        let res = FusionFission::new(&g, FusionFissionConfig::fast(1), 2).run();
        assert_eq!(res.best.num_nonempty_parts(), 1);
        assert_eq!(res.best_value, 0.0);
    }

    #[test]
    fn respects_step_budget() {
        let g = random_geometric(30, 0.35, 4);
        let cfg = FusionFissionConfig {
            stop: StopCondition::steps(100),
            ..FusionFissionConfig::fast(3)
        };
        let res = FusionFission::new(&g, cfg, 3).run();
        assert!(res.steps <= 100);
    }

    #[test]
    fn warm_start_skips_agglomeration_and_improves() {
        let g = random_geometric(60, 0.25, 15);
        let init = Partition::random(&g, 4, 9);
        let init_val = Objective::MCut.evaluate(&g, &init);
        let res =
            FusionFission::with_initial(&g, FusionFissionConfig::fast(4), 7, init.clone()).run();
        assert!(res.best.validate(&g));
        assert_eq!(res.best.num_nonempty_parts(), 4);
        assert!(
            res.best_value <= init_val + 1e-9,
            "warm start worsened: {init_val} → {}",
            res.best_value
        );
        // A warm-started run must not visit the singleton-count regime.
        assert!(
            res.best_value_per_k.keys().all(|&k| k <= 4 + 10),
            "visited {:?}",
            res.best_value_per_k.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn chunked_advance_matches_one_shot() {
        let g = random_geometric(50, 0.25, 3);
        let cfg = FusionFissionConfig::fast(4);
        let oneshot = FusionFission::new(&g, cfg, 9).run();
        let mut run = FusionFission::new(&g, cfg, 9).start();
        while run.advance(97) {}
        assert!(run.finished());
        let chunked = run.harvest();
        assert_eq!(oneshot.best.assignment(), chunked.best.assignment());
        assert_eq!(oneshot.best_value, chunked.best_value);
        assert_eq!(oneshot.best_energy, chunked.best_energy);
        assert_eq!(oneshot.steps, chunked.steps);
        assert_eq!(oneshot.best_value_per_k, chunked.best_value_per_k);
    }

    #[test]
    fn inject_adopts_only_strictly_better_molecules() {
        let g = two_cliques_bridge(8, 2.0, 0.1);
        let mut run = FusionFission::new(&g, FusionFissionConfig::fast(2), 1).start();
        run.advance(2);
        // The optimal bisection (cut only the bridge) beats anything a
        // 2-step-old search holds (still mid-agglomeration, mostly
        // singleton atoms).
        let optimal = Partition::from_assignment(
            &g,
            (0..16).map(|v| u32::from(v >= 8)).collect::<Vec<_>>(),
            2,
        );
        assert!(run.inject(&optimal), "optimal molecule must be adopted");
        assert_eq!(run.best_molecule().assignment(), optimal.assignment());
        let adopted_energy = run.best_energy();
        // Re-offering the same molecule is not *strictly* better.
        assert!(!run.inject(&optimal));
        // A much worse molecule (all singletons) is rejected.
        assert!(!run.inject(&Partition::singletons(&g)));
        assert_eq!(run.best_energy(), adopted_energy);
        // The run keeps working and still harvests the target k.
        let res = run.run_to_completion();
        assert_eq!(res.best.num_nonempty_parts(), 2);
    }

    #[test]
    fn inject_crossover_adopts_improving_children_without_touching_rng() {
        let g = two_cliques_bridge(8, 2.0, 0.1);
        let cfg = FusionFissionConfig::fast(2);
        // Two runs, same seed: one receives a crossover offer mid-flight,
        // the other doesn't. The offer must not consume RNG, so both
        // walk identical step streams afterward.
        let mut with = FusionFission::new(&g, cfg, 3).start();
        let mut without = FusionFission::new(&g, cfg, 3).start();
        // Only a couple of steps in, the searches are still mid-
        // agglomeration, so the optimal bisection strictly beats them.
        with.advance(2);
        without.advance(2);
        let optimal = Partition::from_assignment(
            &g,
            (0..16).map(|v| u32::from(v >= 8)).collect::<Vec<_>>(),
            2,
        );
        assert!(with.inject_crossover(&optimal), "optimal offer adopted");
        assert_eq!(with.best_molecule().assignment(), optimal.assignment());
        // Re-offering is not strictly better.
        assert!(!with.inject_crossover(&optimal));
        while with.advance(64) {}
        while without.advance(64) {}
        assert_eq!(with.steps(), without.steps(), "no RNG consumed by offer");
        let res = with.harvest();
        assert_eq!(res.best.num_nonempty_parts(), 2);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn inject_crossover_wrong_size_panics() {
        let g = random_geometric(20, 0.4, 1);
        let h = random_geometric(10, 0.4, 1);
        let mut run = FusionFission::new(&g, FusionFissionConfig::fast(2), 1).start();
        run.inject_crossover(&Partition::random(&h, 2, 1));
    }

    #[test]
    fn trace_is_tagged_with_the_objective() {
        let g = random_geometric(40, 0.3, 2);
        let cfg = FusionFissionConfig {
            objective: Objective::Cut,
            ..FusionFissionConfig::fast(3)
        };
        let res = FusionFission::new(&g, cfg, 5).run();
        assert_eq!(res.trace.tag(), Some(Objective::Cut));
        assert!(res
            .trace
            .points()
            .iter()
            .all(|p| p.objective == Some(Objective::Cut)));
    }

    #[test]
    fn cancel_stops_promptly_and_keeps_best_so_far() {
        use ff_metaheur::CancelToken;
        let g = random_geometric(50, 0.25, 3);
        let cfg = FusionFissionConfig {
            stop: StopCondition::steps(u64::MAX),
            ..FusionFissionConfig::fast(4)
        };
        let mut run = FusionFission::new(&g, cfg, 9).start();
        let token = CancelToken::new();
        run.bind_cancel(token.clone());
        assert!(run.advance(5_000), "not cancelled yet");
        let steps_before = run.steps();
        let energy_before = run.best_energy();
        token.cancel();
        assert!(run.cancelled());
        assert!(run.finished());
        assert!(!run.step_once(), "cancelled run must not step");
        assert!(!run.advance(1_000));
        assert_eq!(run.steps(), steps_before, "no work after cancellation");
        // Best-so-far state survives and harvests cleanly.
        assert_eq!(run.best_energy(), energy_before);
        let res = run.harvest();
        assert!(res.best.validate(&g));
        assert!(res.best_value.is_finite());
        assert_eq!(res.steps, steps_before);
    }

    #[test]
    fn trace_tap_sees_every_improvement_exactly_once() {
        let g = random_geometric(50, 0.3, 2);
        let cfg = FusionFissionConfig::fast(3);
        let mut run = FusionFission::new(&g, cfg, 8).start();
        let mut cursor = 0usize;
        let mut streamed = Vec::new();
        loop {
            let more = run.advance(37);
            for p in run.trace().points_since(cursor) {
                streamed.push((p.step, p.value));
            }
            cursor = run.trace().len();
            if !more {
                break;
            }
        }
        let res = run.harvest();
        let all: Vec<(u64, f64)> = res
            .trace
            .points()
            .iter()
            .map(|p| (p.step, p.value))
            .collect();
        assert_eq!(streamed, all, "tap must equal the final trace");
        assert!(!streamed.is_empty());
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn inject_wrong_size_panics() {
        let g = random_geometric(20, 0.4, 1);
        let h = random_geometric(10, 0.4, 1);
        let mut run = FusionFission::new(&g, FusionFissionConfig::fast(2), 1).start();
        run.inject(&Partition::random(&h, 2, 1));
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn warm_start_wrong_size_panics() {
        let g = random_geometric(20, 0.4, 1);
        let h = random_geometric(10, 0.4, 1);
        let p = Partition::random(&h, 2, 1);
        FusionFission::with_initial(&g, FusionFissionConfig::fast(2), 1, p);
    }
}
