//! Per-step reference test: the optimized run against a naive step loop.
//!
//! The naive loop below is the step without the liveness index, the
//! cached objective value or the undo journal. It counts live parts by
//! scanning every slot, picks the atom by an ascending scan for the same
//! draw, folds the objective on every read, clones the best molecule on
//! every improvement, and compacts or reheats by building a fresh
//! `CutState`. It splits atoms the old way too: percolation on the
//! atom's `induced_subgraph`, seeded by `spread_seeds` and run by
//! `percolation_with_seeds` on that subgraph, then mapped back to the
//! members, so every split checks the in-place split's member mapping
//! and its draw order. It gathers connection weights the old way too:
//! partner choice, nucleon absorption, the secondary-fission target and
//! the crossover's fusions sum into ordered maps, so every step checks
//! the dense gather's sums, their order and the tie-breaks that follow
//! from it. Both loops run in lockstep on Cut, Ncut and Mcut. After
//! every `step_once` the current molecules must agree bit for bit
//! (assignment, member order, part-weight bits, part count, cut sums), as
//! must the energies, the temperature, the RNG streams, the best-at-k
//! molecules and the best molecule (read without materializing it while
//! it is journaled). Mid-run `best_molecule` reads and injected migrants
//! make the lazy materialization paths (read, compaction, reheat,
//! journal cap, adoption) all run; each test checks that they did.

use super::*;
use crate::config::FissionSplitter;
use ff_graph::generators::planted_partition_sparse;
use ff_graph::{induced_subgraph, GraphBuilder, VertexId};
use ff_metaheur::percolation::{percolation_with_seeds, spread_seeds, PercolationConfig};
use ff_metaheur::StopCondition;
use ff_partition::Objective;
use std::collections::HashMap;

fn live_by_scan(p: &Partition) -> usize {
    (0..p.num_parts() as u32)
        .filter(|&q| p.part_size(q) > 0)
        .count()
}

/// `a`'s weight into each other part through an ordered map, summed in
/// member-then-edge order.
fn part_connections(st: &CutState, a: u32) -> Vec<(u32, f64)> {
    let mut conn: BTreeMap<u32, f64> = BTreeMap::new();
    for &v in st.partition().part_members_unordered(a) {
        for (u, w) in st.graph().edges_of(v) {
            let pu = st.partition().part_of(u);
            if pu != a {
                *conn.entry(pu).or_insert(0.0) += w;
            }
        }
    }
    conn.into_iter().collect()
}

/// `v`'s weight into each part among its neighbours through an ordered
/// map, summed in edge order.
fn connection_weights(st: &CutState, v: VertexId) -> Vec<(u32, f64)> {
    let mut conn: BTreeMap<u32, f64> = BTreeMap::new();
    for (u, w) in st.graph().edges_of(v) {
        *conn.entry(st.partition().part_of(u)).or_insert(0.0) += w;
    }
    conn.into_iter().collect()
}

/// `select_partner` over the ordered-map gather.
fn naive_select_partner(
    st: &CutState,
    a: u32,
    t_norm: f64,
    size_bias: f64,
    rng: &mut ChaCha8Rng,
) -> Option<u32> {
    let cands = part_connections(st, a);
    if cands.is_empty() {
        return None;
    }
    let tau = t_norm.clamp(0.05, 1.0);
    let scores: Vec<f64> = cands
        .iter()
        .map(|&(b, w)| {
            let size = st.partition().part_size(b).max(1) as f64;
            (w / size.powf(size_bias)).powf(1.0 / tau)
        })
        .collect();
    let total: f64 = scores.iter().sum();
    if total <= 0.0 || !total.is_finite() {
        return Some(cands[rng.gen_range(0..cands.len())].0);
    }
    let mut roll = rng.gen::<f64>() * total;
    for (i, &s) in scores.iter().enumerate() {
        roll -= s;
        if roll <= 0.0 {
            return Some(cands[i].0);
        }
    }
    Some(cands[cands.len() - 1].0)
}

/// `nfusion` over the ordered-map gather.
fn naive_nfusion(st: &mut CutState, v: VertexId) {
    let own = st.partition().part_of(v);
    let mut best: Option<(u32, f64)> = None;
    for (p, w) in connection_weights(st, v) {
        if p != own && best.is_none_or(|(_, bw)| w > bw) {
            best = Some((p, w));
        }
    }
    if let Some((p, _)) = best {
        if st.partition().part_size(own) > 1 {
            st.move_vertex(v, p);
        }
    }
}

/// `overlap_combine` over the ordered-map gather.
fn naive_overlap_combine(g: &Graph, a: &Partition, b: &Partition, k: usize) -> Partition {
    let mut class_of: HashMap<(u32, u32), u32> = HashMap::new();
    let assignment = g
        .vertices()
        .map(|v| {
            let next = class_of.len() as u32;
            *class_of.entry((a.part_of(v), b.part_of(v))).or_insert(next)
        })
        .collect();
    let classes = class_of.len();
    let mut st = CutState::new(g, Partition::from_assignment(g, assignment, classes));
    'fuse: while live_by_scan(st.partition()) > k {
        let part = st.partition();
        let mut order: Vec<(usize, u32)> = (0..part.num_parts() as u32)
            .filter(|&p| part.part_size(p) > 0)
            .map(|p| (part.part_size(p), p))
            .collect();
        order.sort_unstable();
        for (_, p) in order {
            let mut best: Option<(u32, f64)> = None;
            for (q, w) in part_connections(&st, p) {
                if best.is_none_or(|(_, bw)| bw < w) {
                    best = Some((q, w));
                }
            }
            if let Some((q, _)) = best {
                fuse(&mut st, p, q);
                continue 'fuse;
            }
        }
        break;
    }
    let mut child = st.into_partition();
    child.compact();
    child
}

/// Percolation fission through the atom's induced subgraph, as it was
/// done before the in-place percolator. Other splits go to
/// `fission_split`.
fn split_via_subgraph(
    st: &mut CutState,
    part: u32,
    splitter: FissionSplitter,
    rng: &mut ChaCha8Rng,
) -> Option<u32> {
    let members = st.partition().part_members(part);
    if splitter != FissionSplitter::Percolation || members.len() < 2 {
        return fission_split(st, part, splitter, &mut Percolator::new(), rng);
    }
    let sub = induced_subgraph(st.graph(), &members);
    let seeds = spread_seeds(&sub.graph, 2, rng.gen());
    let p = percolation_with_seeds(
        &sub.graph,
        &seeds,
        &PercolationConfig {
            max_rounds: 6,
            seed: rng.gen(),
        },
    );
    let half: Vec<VertexId> = (0..members.len())
        .filter(|&i| p.part_of(i as VertexId) == 1)
        .map(|i| members[i])
        .collect();
    if half.is_empty() || half.len() == members.len() {
        return None;
    }
    let new_part = st.add_part();
    for v in half {
        st.move_vertex(v, new_part);
    }
    Some(new_part)
}

/// The step loop with every bookkeeping shortcut taken out.
struct Naive<'g> {
    g: &'g Graph,
    cfg: FusionFissionConfig,
    st: CutState<'g>,
    laws: LawTable,
    rng: ChaCha8Rng,
    step: u64,
    best_energy: f64,
    best_molecule: Partition,
    best_at_k: Option<(f64, Partition)>,
    best_value_per_k: BTreeMap<usize, f64>,
    ideal: f64,
    sharp: f64,
    dt: f64,
    t: f64,
    agglomerating: bool,
}

impl<'g> Naive<'g> {
    fn start(g: &'g Graph, cfg: FusionFissionConfig, seed: u64) -> Self {
        let n = g.num_vertices();
        let ideal = n as f64 / cfg.k as f64;
        let init = Partition::singletons(g);
        let mut naive = Naive {
            g,
            cfg,
            st: CutState::new(g, init.clone()),
            laws: LawTable::new(n),
            rng: ChaCha8Rng::seed_from_u64(seed),
            step: 0,
            best_energy: f64::INFINITY,
            best_molecule: init,
            best_at_k: None,
            best_value_per_k: BTreeMap::new(),
            ideal,
            sharp: alpha(
                cfg.t_min,
                cfg.t_max,
                cfg.t_min,
                cfg.choice_k,
                cfg.choice_r,
                ideal,
            ),
            dt: (cfg.t_max - cfg.t_min) / cfg.nbt as f64,
            t: cfg.t_max,
            agglomerating: true,
        };
        naive.observe();
        naive
    }

    fn energy(&self) -> f64 {
        scaled_energy(
            self.st.objective(self.cfg.objective),
            self.cfg.objective,
            live_by_scan(self.st.partition()),
            self.cfg.k,
            self.cfg.use_energy_scaling,
        )
    }

    fn pick_live_atom(&mut self) -> u32 {
        let part = self.st.partition();
        let atoms: Vec<u32> = (0..part.num_parts() as u32)
            .filter(|&p| part.part_size(p) > 0)
            .collect();
        atoms[self.rng.gen_range(0..atoms.len())]
    }

    fn observe(&mut self) {
        let live = live_by_scan(self.st.partition());
        let value = self.st.objective(self.cfg.objective);
        let entry = self.best_value_per_k.entry(live).or_insert(f64::INFINITY);
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
        if energy < self.best_energy {
            self.best_energy = energy;
            self.best_molecule = self.st.partition().clone();
        }
        if live == self.cfg.k && self.best_at_k.as_ref().is_none_or(|(bv, _)| value < *bv) {
            self.best_at_k = Some((value, self.st.partition().clone()));
        }
    }

    fn do_fusion(&mut self, atom: u32, t_norm: f64) -> Option<(usize, usize)> {
        let partner =
            naive_select_partner(&self.st, atom, t_norm, self.cfg.size_bias, &mut self.rng)?;
        let merged = fuse(&mut self.st, atom, partner);
        let size = self.st.partition().part_size(merged);
        let eject = self
            .laws
            .law(Reaction::Fusion, size)
            .sample(&mut self.rng, size.saturating_sub(1));
        for v in weakest_nucleons(&self.st, merged, eject) {
            naive_nfusion(&mut self.st, v);
        }
        Some((size, eject))
    }

    fn do_fission(
        &mut self,
        atom: u32,
        t_norm: f64,
        allow_secondary: bool,
    ) -> Option<(usize, usize)> {
        let size_before = self.st.partition().part_size(atom);
        let new_half = split_via_subgraph(&mut self.st, atom, self.cfg.splitter, &mut self.rng)?;
        let part = self.st.partition();
        let bigger = if part.part_size(atom) >= part.part_size(new_half) {
            atom
        } else {
            new_half
        };
        let avail = part.part_size(bigger).saturating_sub(1);
        let eject = self
            .laws
            .law(Reaction::Fission, size_before)
            .sample(&mut self.rng, avail);
        for v in weakest_nucleons(&self.st, bigger, eject) {
            let hot =
                allow_secondary && self.rng.gen::<f64>() < self.cfg.secondary_fission * t_norm;
            if hot {
                let targets = connection_weights(&self.st, v);
                if let Some(&(target, _)) =
                    targets.iter().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                {
                    let _ =
                        split_via_subgraph(&mut self.st, target, self.cfg.splitter, &mut self.rng);
                }
            }
            naive_nfusion(&mut self.st, v);
        }
        Some((size_before, eject))
    }

    fn learn(&mut self, outcome: Option<(Reaction, (usize, usize))>, e_before: f64) {
        if let Some((reaction, (law_size, eject))) = outcome {
            let improved = self.energy() < e_before;
            if self.cfg.learn_laws {
                self.laws
                    .law_mut(reaction, law_size)
                    .update(eject, improved, self.cfg.law_rate);
            }
        }
    }

    fn maybe_compact(&mut self) {
        if self.st.partition().num_parts() > 2 * live_by_scan(self.st.partition()) + 64 {
            let mut p = self.st.partition().clone();
            p.compact();
            self.st = CutState::new(self.g, p);
        }
    }

    fn step_once(&mut self) {
        let cfg = self.cfg;
        if self.agglomerating && live_by_scan(self.st.partition()) <= cfg.k {
            self.agglomerating = false;
        }
        self.step += 1;
        let atom = self.pick_live_atom();
        let x = self.st.partition().part_size(atom) as f64;
        if self.agglomerating {
            let e_before = self.energy();
            let outcome =
                if self.rng.gen::<f64>() < choice_with(cfg.choice_fn, x, self.ideal, self.sharp) {
                    self.do_fission(atom, 0.0, false)
                        .map(|o| (Reaction::Fission, o))
                } else {
                    self.do_fusion(atom, 0.25).map(|o| (Reaction::Fusion, o))
                };
            self.learn(outcome, e_before);
            self.observe();
            self.maybe_compact();
            return;
        }
        let t_norm = (self.t - cfg.t_min) / (cfg.t_max - cfg.t_min);
        let a = alpha(
            self.t,
            cfg.t_max,
            cfg.t_min,
            cfg.choice_k,
            cfg.choice_r,
            self.ideal,
        );
        let e_before = self.energy();
        let outcome = if self.rng.gen::<f64>() < choice_with(cfg.choice_fn, x, self.ideal, a) {
            self.do_fission(atom, t_norm, true)
                .map(|o| (Reaction::Fission, o))
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
        self.t -= self.dt;
        if self.t <= cfg.t_min {
            self.t = cfg.t_max;
            self.st = CutState::new(self.g, self.best_molecule.clone());
        }
    }

    fn inject(&mut self, molecule: &Partition) -> bool {
        let molecule = Partition::from_assignment(
            self.g,
            molecule.assignment().to_vec(),
            molecule.num_parts(),
        );
        let energy = scaled_energy(
            self.cfg.objective.evaluate(self.g, &molecule),
            self.cfg.objective,
            live_by_scan(&molecule),
            self.cfg.k,
            self.cfg.use_energy_scaling,
        );
        let adopted = energy < self.best_energy;
        if adopted {
            self.best_energy = energy;
            self.best_molecule = molecule;
        }
        adopted
    }

    fn inject_crossover(&mut self, foreign: &Partition) -> bool {
        let child = naive_overlap_combine(self.g, &self.best_molecule, foreign, self.cfg.k);
        let adopted_child = self.inject(&child);
        let adopted_foreign = self.inject(foreign);
        adopted_child || adopted_foreign
    }
}

fn assert_same_molecule(what: &str, step: u64, a: &Partition, b: &Partition) {
    assert_eq!(a.assignment(), b.assignment(), "{what}: step {step}");
    assert_eq!(
        a.num_parts(),
        b.num_parts(),
        "{what} part slots: step {step}"
    );
    for p in 0..a.num_parts() as u32 {
        assert_eq!(
            a.part_members_unordered(p),
            b.part_members_unordered(p),
            "{what} member order of part {p}: step {step}"
        );
        assert_eq!(
            a.part_weight(p).to_bits(),
            b.part_weight(p).to_bits(),
            "{what} weight of part {p}: step {step}"
        );
    }
}

fn assert_lockstep(run: &FusionFissionRun<'_>, naive: &Naive<'_>) {
    let step = naive.step;
    assert_eq!(run.steps(), step);
    let (st, naive_st) = (&run.s.st, &naive.st);
    assert_same_molecule(
        "current molecule",
        step,
        st.partition(),
        naive_st.partition(),
    );
    assert_eq!(
        st.partition().num_nonempty_parts(),
        live_by_scan(naive_st.partition()),
        "live count: step {step}"
    );
    for p in 0..st.partition().num_parts() as u32 {
        assert_eq!(st.external(p).to_bits(), naive_st.external(p).to_bits());
        assert_eq!(st.internal2(p).to_bits(), naive_st.internal2(p).to_bits());
    }
    if let Some(value) = run.s.value {
        let fold = naive_st.objective(naive.cfg.objective);
        assert_eq!(value.to_bits(), fold.to_bits(), "cached value: step {step}");
    }
    assert_eq!(
        run.best_energy().to_bits(),
        naive.best_energy.to_bits(),
        "best energy: step {step}"
    );
    assert_eq!(
        run.t.to_bits(),
        naive.t.to_bits(),
        "temperature: step {step}"
    );
    assert_eq!(
        run.s.rng.clone().gen::<u64>(),
        naive.rng.clone().gen::<u64>(),
        "RNG stream: step {step}"
    );
    assert_eq!(run.s.best_value_per_k, naive.best_value_per_k);
    match (run.best_at_target(), &naive.best_at_k) {
        (None, None) => {}
        (Some((v, p)), Some((nv, np))) => {
            assert_eq!(v.to_bits(), nv.to_bits(), "best-at-k value: step {step}");
            assert_same_molecule("best at k", step, p, np);
        }
        _ => panic!("best-at-k presence differs: step {step}"),
    }
    assert!(
        st.journal_len() < st.partition().num_vertices(),
        "journal outgrew n: step {step}"
    );
    // The best molecule as a read would materialize it, without the read:
    // a journaled best must be the journal base at every step.
    match run.s.best_molecule.get() {
        Some(best) => assert_same_molecule("best molecule", step, best, &naive.best_molecule),
        None => assert_same_molecule(
            "journal base",
            step,
            &st.journal_base(),
            &naive.best_molecule,
        ),
    }
}

/// What the lockstep run exercised, so each test can insist its paths ran.
#[derive(Debug, Default)]
struct Coverage {
    reheats: u32,
    compactions: u32,
    cap_materializations: u32,
    adopted_migrants: u32,
}

/// A planted 4 × 75 graph with irregular edge weights: incremental sums
/// then carry rounding residue, so a rebuilt state differs from an
/// updated one in the last bits and any stale cached value shows.
fn graph(seed: u64) -> Graph {
    let g = planted_partition_sparse(4, 75, 0.12, 0.01, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(g.num_vertices());
    for (u, v, w) in g.edges() {
        b.add_edge(u, v, w * rng.gen_range(0.3..1.7));
    }
    b.build()
}

fn lockstep(objective: Objective, seed: u64, steps: u64) -> Coverage {
    let g = graph(seed);
    let cfg = FusionFissionConfig {
        objective,
        stop: StopCondition::steps(u64::MAX),
        ..FusionFissionConfig::fast(4)
    };
    assert_eq!(cfg.nbt, 80);
    let mut run = FusionFission::new(&g, cfg, seed).start();
    let mut naive = Naive::start(&g, cfg, seed);
    let planted = Partition::block(&g, 4);
    let foreign = FusionFission::new(
        &g,
        FusionFissionConfig {
            stop: StopCondition::steps(600),
            ..cfg
        },
        seed + 1,
    )
    .run()
    .best;
    let mut cov = Coverage::default();
    assert_lockstep(&run, &naive);
    for step in 1..=steps {
        let journaled = run.s.best_molecule.get().is_none();
        let slots = run.s.st.partition().num_parts();
        let t = run.t;
        assert!(run.step_once());
        naive.step_once();
        assert_lockstep(&run, &naive);
        if run.t > t {
            cov.reheats += 1;
        } else if run.s.st.partition().num_parts() < slots {
            cov.compactions += 1;
        } else if journaled && run.s.best_molecule.get().is_some() {
            cov.cap_materializations += 1;
        }
        // Barrier-time reads and migrations, as an island ensemble makes.
        if step % 211 == 0 {
            assert_same_molecule(
                "best molecule",
                step,
                run.best_molecule(),
                &naive.best_molecule,
            );
        }
        // Offers arrive mid-agglomeration, after the first compaction,
        // while the search still holds a poor molecule, so they are
        // adopted; the later crossover offers meet a better best.
        if step == 250 || step % 400 == 350 {
            let adopted = run.inject_crossover(&foreign);
            assert_eq!(
                adopted,
                naive.inject_crossover(&foreign),
                "inject_crossover: step {step}"
            );
            cov.adopted_migrants += u32::from(adopted);
        }
        if step == 260 {
            let adopted = run.inject(&planted);
            assert_eq!(adopted, naive.inject(&planted), "inject: step {step}");
            cov.adopted_migrants += u32::from(adopted);
        }
    }
    assert_same_molecule(
        "best molecule",
        steps,
        run.best_molecule(),
        &naive.best_molecule,
    );
    cov
}

fn assert_covered(cov: &Coverage) {
    assert!(cov.reheats > 0, "no reheat: {cov:?}");
    assert!(cov.compactions > 0, "no compaction: {cov:?}");
    assert!(
        cov.cap_materializations > 0,
        "journal cap never hit: {cov:?}"
    );
    assert!(cov.adopted_migrants > 0, "no migrant adopted: {cov:?}");
}

#[test]
fn cut_matches_naive_step_loop() {
    assert_covered(&lockstep(Objective::Cut, 3, 1600));
}

#[test]
fn ncut_matches_naive_step_loop() {
    assert_covered(&lockstep(Objective::NCut, 5, 1600));
}

#[test]
fn mcut_matches_naive_step_loop() {
    assert_covered(&lockstep(Objective::MCut, 7, 1600));
}
