//! The paper's objective functions and incremental cut bookkeeping.
//!
//! §1 of the paper defines, for a partition P_k(G) into parts A:
//!
//! * `Cut(P) = Σ_A cut(A, V−A)` — counting each cut edge twice (once per
//!   side); the conventional single-count cut is `Cut(P)/2`, which is what
//!   [`CutState::cut`] reports and what Table 1's "Cut" column lists,
//! * `Ncut(P) = Σ_A cut(A, V−A) / assoc(A, V)` with
//!   `assoc(A, V) = cut(A, V−A) + W(A)`,
//! * `Mcut(P) = Σ_A cut(A, V−A) / W(A)`,
//!
//! where `W(A) = Σ_{u∈A, v∈A} w(u, v)` sums **ordered** pairs, i.e. twice
//! the internal edge weight — so `assoc(A, V)` equals the degree-weight sum
//! of A, matching Shi–Malik.
//!
//! A move's objective delta needs only the moving vertex's connection
//! weight into its own part and into the target part.
//! [`CutState::move_delta`] sums both in one walk over the vertex's edges;
//! a caller that already holds them, from a
//! [`Connections`](crate::Connections) gather, passes them to
//! [`CutState::move_delta_with`] and skips the walk.

use crate::partition::{Partition, Undo};
use ff_graph::{Graph, VertexId};
use std::collections::HashMap;

/// The three partitioning criteria of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Sum of cut edge weights (each edge counted once).
    Cut,
    /// Normalized cut (Shi–Malik).
    NCut,
    /// Min-max cut (Ding et al.).
    MCut,
}

impl Objective {
    /// Evaluates the objective from scratch in O(m).
    pub fn evaluate(&self, g: &Graph, p: &Partition) -> f64 {
        CutState::new(g, p.clone()).objective(*self)
    }

    /// All three criteria, for reporting tables.
    pub fn all() -> [Objective; 3] {
        [Objective::Cut, Objective::NCut, Objective::MCut]
    }

    /// The CLI spelling: `cut`, `ncut` or `mcut`.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::Cut => "cut",
            Objective::NCut => "ncut",
            Objective::MCut => "mcut",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(name: &str) -> Option<Objective> {
        Objective::all().into_iter().find(|o| o.name() == name)
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Objective::Cut => write!(f, "Cut"),
            Objective::NCut => write!(f, "Ncut"),
            Objective::MCut => write!(f, "Mcut"),
        }
    }
}

/// A partition plus per-part external (cut) and internal (2×edge-weight)
/// sums, maintained incrementally: moving a vertex costs O(deg v), and the
/// objective delta of a candidate move is evaluated without applying it.
///
/// ```
/// use ff_graph::generators::path;
/// use ff_partition::{CutState, Objective, Partition};
///
/// let g = path(4); // 0-1-2-3
/// let mut st = CutState::new(&g, Partition::block(&g, 2)); // {0,1}|{2,3}
/// assert_eq!(st.cut(), 1.0);
/// // Moving vertex 1 across swaps edge 1-2 out of the cut, edge 0-1 in:
/// assert_eq!(st.move_delta(Objective::Cut, 1, 1), 0.0);
/// // Moving vertex 0 across would newly cut its edge to vertex 1:
/// assert_eq!(st.move_delta(Objective::Cut, 0, 1), 1.0);
/// // The block split is optimal; applying the neutral move keeps cut = 1.
/// st.move_vertex(1, 1);
/// assert_eq!(st.cut(), 1.0);
/// ```
///
/// ## Undo journal
///
/// [`CutState::mark_journal_base`] starts an undo journal: every later
/// move and added part is recorded, so [`CutState::journal_base`] can
/// rebuild the partition as it was at the mark, bit for bit, without the
/// caller snapshotting it eagerly. The journal holds one record per edit
/// since the mark. [`CutState::compact`] and [`CutState::reset`] move the
/// mark to their result.
#[derive(Clone, Debug)]
pub struct CutState<'g> {
    g: &'g Graph,
    part: Partition,
    /// Per-part sums, interleaved so the two values a move touches per
    /// part share a cache line.
    sums: Vec<PartSums>,
    /// Undo records since the journal base, oldest first; `None` while
    /// no journal was started.
    journal: Option<Vec<Undo>>,
}

/// Interleaved per-part cut bookkeeping: `ext` = cut(P_p, V − P_p),
/// `int2` = W(P_p) = 2 × (internal edge weight of P_p).
#[derive(Clone, Copy, Debug, Default)]
struct PartSums {
    ext: f64,
    int2: f64,
}

impl<'g> CutState<'g> {
    /// Builds the state in O(m).
    pub fn new(g: &'g Graph, part: Partition) -> Self {
        assert_eq!(part.num_vertices(), g.num_vertices(), "partition size");
        let mut st = CutState {
            g,
            part,
            sums: Vec::new(),
            journal: None,
        };
        st.rebuild_sums();
        st
    }

    /// Recomputes every part's sums from scratch in O(m), vertex by
    /// vertex in ascending order, so the floats depend only on the
    /// partition. Moves the journal base here.
    fn rebuild_sums(&mut self) {
        let (g, part) = (self.g, &self.part);
        self.sums.clear();
        self.sums.resize(part.num_parts(), PartSums::default());
        let sums = &mut self.sums;
        for v in g.vertices() {
            let pv = part.part_of(v) as usize;
            for (u, w) in g.edges_of(v) {
                if part.part_of(u) as usize == pv {
                    sums[pv].int2 += w; // each internal edge visited twice → 2w total
                } else {
                    sums[pv].ext += w;
                }
            }
        }
        if let Some(journal) = &mut self.journal {
            journal.clear();
        }
    }

    /// Replaces the partition in place, recomputing the sums in O(m):
    /// the same state as `CutState::new(g, part)`, keeping this state's
    /// buffers. The journal base moves to `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part` is for a different vertex count.
    pub fn reset(&mut self, part: Partition) {
        assert_eq!(part.num_vertices(), self.g.num_vertices(), "partition size");
        self.part = part;
        self.rebuild_sums();
    }

    /// Renumbers parts densely ([`Partition::compact`]) and recomputes
    /// the sums in O(m): the same state as `CutState::new` of the
    /// compacted partition. Part ids change, so the journal base moves to
    /// the compacted partition.
    pub fn compact(&mut self) {
        self.part.compact();
        self.rebuild_sums();
    }

    /// Makes the current partition the journal base and records every
    /// later edit, starting the journal if none runs. The buffer is
    /// kept, so a long run allocates it once.
    pub fn mark_journal_base(&mut self) {
        self.journal.get_or_insert_with(Vec::new).clear();
    }

    /// Edits recorded since the journal base (0 without a journal).
    pub fn journal_len(&self) -> usize {
        self.journal.as_ref().map_or(0, Vec::len)
    }

    /// The partition at the journal base, rebuilt by undoing the
    /// recorded edits, newest first, on a copy of the current one. It is
    /// bit-identical to a clone taken at the mark: assignment, part
    /// weights, member order and part count. O(n + journal length).
    pub fn journal_base(&self) -> Partition {
        let mut p = self.part.clone();
        for &undo in self.journal.iter().flatten().rev() {
            p.undo(undo);
        }
        p
    }

    /// The underlying partition.
    #[inline]
    pub fn partition(&self) -> &Partition {
        &self.part
    }

    /// The graph this state refers to.
    #[inline]
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Consumes the state, returning the partition.
    pub fn into_partition(self) -> Partition {
        self.part
    }

    /// cut(P_p, V − P_p) for part `p`.
    #[inline]
    pub fn external(&self, p: u32) -> f64 {
        self.sums[p as usize].ext
    }

    /// W(P_p) = 2 × internal edge weight of part `p`.
    #[inline]
    pub fn internal2(&self, p: u32) -> f64 {
        self.sums[p as usize].int2
    }

    /// assoc(P_p, V) = degree-weight sum of part `p`.
    #[inline]
    pub fn assoc(&self, p: u32) -> f64 {
        let s = self.sums[p as usize];
        s.ext + s.int2
    }

    /// Total cut weight, each edge counted once.
    pub fn cut(&self) -> f64 {
        self.sums.iter().map(|s| s.ext).sum::<f64>() / 2.0
    }

    /// Per-part contribution to Ncut/Mcut-style sums.
    ///
    /// Incremental updates can leave ±1e-16-scale residue on sums that are
    /// mathematically zero; snapping below `EPS` keeps Mcut's "hollow part
    /// ⇒ ∞" semantics identical between incremental and fresh evaluation.
    fn part_term(obj: Objective, ext: f64, int2: f64) -> f64 {
        const EPS: f64 = 1e-9;
        let ext = if ext <= EPS { 0.0 } else { ext };
        let int2 = if int2 <= EPS { 0.0 } else { int2 };
        match obj {
            Objective::Cut => ext / 2.0,
            Objective::NCut => {
                let assoc = ext + int2;
                if assoc <= 0.0 {
                    0.0
                } else {
                    ext / assoc
                }
            }
            Objective::MCut => {
                if ext <= 0.0 {
                    0.0
                } else if int2 <= 0.0 {
                    f64::INFINITY
                } else {
                    ext / int2
                }
            }
        }
    }

    /// Evaluates an objective from the cached per-part sums. O(k).
    pub fn objective(&self, obj: Objective) -> f64 {
        self.sums
            .iter()
            .map(|s| Self::part_term(obj, s.ext, s.int2))
            .sum()
    }

    /// Objective change if `v` moved to part `to`, without applying it.
    /// O(deg v): one walk over `v`'s edges sums its weight into its own
    /// part and into `to`, then [`CutState::move_delta_with`] applies the
    /// formula. Returns 0.0 for a no-op move.
    pub fn move_delta(&self, obj: Objective, v: VertexId, to: u32) -> f64 {
        let from = self.part.part_of(v);
        if from == to {
            return 0.0;
        }
        let mut conn_from = 0.0;
        let mut conn_to = 0.0;
        for (u, w) in self.g.edges_of(v) {
            let pu = self.part.part_of(u);
            if pu == from {
                conn_from += w;
            } else if pu == to {
                conn_to += w;
            }
        }
        self.move_delta_with(obj, v, to, conn_from, conn_to)
    }

    /// [`CutState::move_delta`] from `v`'s connection weight `conn_from`
    /// into its own part and `conn_to` into `to`, without walking the
    /// edges. O(1). Weights summed in edge order, as
    /// [`Connections::gather_vertex`](crate::Connections::gather_vertex)
    /// sums them, give `move_delta`'s result bit for bit. Returns 0.0
    /// for a no-op move.
    #[inline]
    pub fn move_delta_with(
        &self,
        obj: Objective,
        v: VertexId,
        to: u32,
        conn_from: f64,
        conn_to: f64,
    ) -> f64 {
        let from = self.part.part_of(v);
        if from == to {
            return 0.0;
        }
        let degw = self.g.degree_weight(v);
        let (ef, if2) = {
            let s = self.sums[from as usize];
            (s.ext, s.int2)
        };
        let (et, it2) = {
            let s = self.sums[to as usize];
            (s.ext, s.int2)
        };
        let ef_new = ef - degw + 2.0 * conn_from;
        let if2_new = if2 - 2.0 * conn_from;
        let et_new = et + degw - 2.0 * conn_to;
        let it2_new = it2 + 2.0 * conn_to;
        Self::part_term(obj, ef_new, if2_new) + Self::part_term(obj, et_new, it2_new)
            - Self::part_term(obj, ef, if2)
            - Self::part_term(obj, et, it2)
    }

    /// Moves `v` to part `to`, updating all sums in O(deg v).
    ///
    /// # Panics
    ///
    /// Panics if `to` is not an existing part id.
    pub fn move_vertex(&mut self, v: VertexId, to: u32) {
        let from = self.part.part_of(v);
        if from == to {
            return;
        }
        let mut conn_from = 0.0;
        let mut conn_to = 0.0;
        for (u, w) in self.g.edges_of(v) {
            let pu = self.part.part_of(u);
            if pu == from {
                conn_from += w;
            } else if pu == to {
                conn_to += w;
            }
        }
        let degw = self.g.degree_weight(v);
        {
            let s = &mut self.sums[from as usize];
            s.ext += 2.0 * conn_from - degw;
            s.int2 -= 2.0 * conn_from;
        }
        {
            let s = &mut self.sums[to as usize];
            s.ext += degw - 2.0 * conn_to;
            s.int2 += 2.0 * conn_to;
        }
        if let Some(journal) = &mut self.journal {
            journal.push(self.part.undo_of_move(v, to));
        }
        self.part.move_vertex(self.g, v, to);
    }

    /// Appends a new empty part to the partition and the cached sums.
    pub fn add_part(&mut self) -> u32 {
        self.sums.push(PartSums::default());
        if let Some(journal) = &mut self.journal {
            journal.push(Undo::AddPart);
        }
        self.part.add_part()
    }

    /// Rebuilds sums from scratch and compares with the incremental state
    /// (test/debug aid). Returns the maximum absolute discrepancy.
    pub fn drift(&self) -> f64 {
        let fresh = CutState::new(self.g, self.part.clone());
        let mut d = 0.0f64;
        for p in 0..self.part.num_parts() {
            d = d.max((fresh.sums[p].ext - self.sums[p].ext).abs());
            d = d.max((fresh.sums[p].int2 - self.sums[p].int2).abs());
        }
        d
    }
}

/// Inter-part connection weights: `weight(a, b)` = total edge weight
/// between parts `a` and `b`. The fusion–fission *distance* between atoms
/// is the inverse of this quantity (§4.2).
#[derive(Clone, Debug)]
pub struct PartConnectivity {
    weights: HashMap<(u32, u32), f64>,
}

impl PartConnectivity {
    /// Builds from a partition in O(m).
    pub fn new(g: &Graph, p: &Partition) -> Self {
        let mut weights = HashMap::new();
        for (u, v, w) in g.edges() {
            let (a, b) = (p.part_of(u), p.part_of(v));
            if a != b {
                let key = if a < b { (a, b) } else { (b, a) };
                *weights.entry(key).or_insert(0.0) += w;
            }
        }
        PartConnectivity { weights }
    }

    /// Total edge weight between parts `a` and `b` (0.0 when unconnected).
    pub fn weight(&self, a: u32, b: u32) -> f64 {
        if a == b {
            return 0.0;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        self.weights.get(&key).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{path, random_geometric, two_cliques_bridge};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn names_round_trip() {
        for o in Objective::all() {
            assert_eq!(Objective::parse(o.name()), Some(o));
        }
        assert_eq!(Objective::parse("Mcut"), None);
        assert_eq!(Objective::parse("mincut"), None);
    }

    #[test]
    fn cut_on_path_block() {
        let g = path(6); // edges 0-1,1-2,2-3,3-4,4-5
        let p = Partition::block(&g, 2); // {0,1,2} {3,4,5}
        let st = CutState::new(&g, p);
        assert_eq!(st.cut(), 1.0); // only edge 2-3 crosses
        assert_eq!(st.external(0), 1.0);
        assert_eq!(st.internal2(0), 4.0); // edges 0-1,1-2 ×2
    }

    #[test]
    fn ncut_mcut_on_two_cliques() {
        let g = two_cliques_bridge(3, 1.0, 0.5); // K3 + K3, bridge 0.5
        let p = Partition::from_assignment(&g, vec![0, 0, 0, 1, 1, 1], 2);
        let st = CutState::new(&g, p);
        // each side: internal2 = 2*3 = 6, external = 0.5
        assert_eq!(st.cut(), 0.5);
        let ncut = st.objective(Objective::NCut);
        assert!((ncut - 2.0 * (0.5 / 6.5)).abs() < 1e-12);
        let mcut = st.objective(Objective::MCut);
        assert!((mcut - 2.0 * (0.5 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn mcut_infinite_for_hollow_part() {
        let g = path(4);
        // part 1 = {1}: no internal edges but has cut → ∞
        let p = Partition::from_assignment(&g, vec![0, 1, 0, 0], 2);
        let st = CutState::new(&g, p);
        assert!(st.objective(Objective::MCut).is_infinite());
    }

    #[test]
    fn single_part_objectives_zero() {
        let g = path(5);
        let p = Partition::from_assignment(&g, vec![0; 5], 1);
        let st = CutState::new(&g, p);
        assert_eq!(st.objective(Objective::Cut), 0.0);
        assert_eq!(st.objective(Objective::NCut), 0.0);
        assert_eq!(st.objective(Objective::MCut), 0.0);
    }

    #[test]
    fn move_vertex_matches_rebuild() {
        let g = random_geometric(50, 0.3, 5);
        let p = Partition::random(&g, 4, 6);
        let mut st = CutState::new(&g, p);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..200 {
            let v = rng.gen_range(0..50) as VertexId;
            let to = rng.gen_range(0..4) as u32;
            st.move_vertex(v, to);
        }
        assert!(
            st.drift() < 1e-8,
            "incremental sums drifted: {}",
            st.drift()
        );
    }

    #[test]
    fn move_delta_matches_actual_change() {
        let g = random_geometric(40, 0.3, 8);
        let p = Partition::random(&g, 3, 9);
        let mut st = CutState::new(&g, p);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        for obj in Objective::all() {
            for _ in 0..100 {
                let v = rng.gen_range(0..40) as VertexId;
                let to = rng.gen_range(0..3) as u32;
                let before = st.objective(obj);
                let delta = st.move_delta(obj, v, to);
                st.move_vertex(v, to);
                let after = st.objective(obj);
                if delta.is_finite() && before.is_finite() && after.is_finite() {
                    assert!(
                        ((after - before) - delta).abs() < 1e-9,
                        "{obj}: delta {delta} but actual {}",
                        after - before
                    );
                }
            }
        }
    }

    #[test]
    fn evaluate_matches_state() {
        let g = random_geometric(30, 0.35, 2);
        let p = Partition::random(&g, 5, 3);
        let st = CutState::new(&g, p.clone());
        for obj in Objective::all() {
            let a = obj.evaluate(&g, &p);
            let b = st.objective(obj);
            assert!((a - b).abs() < 1e-12 || (a.is_infinite() && b.is_infinite()));
        }
    }

    #[test]
    fn connectivity_weights() {
        let g = path(4); // 0-1-2-3
        let p = Partition::from_assignment(&g, vec![0, 0, 1, 2], 3);
        let pc = PartConnectivity::new(&g, &p);
        assert_eq!(pc.weight(0, 1), 1.0); // edge 1-2
        assert_eq!(pc.weight(1, 2), 1.0); // edge 2-3
        assert_eq!(pc.weight(0, 2), 0.0);
    }

    #[test]
    fn add_part_then_move() {
        let g = path(4);
        let p = Partition::from_assignment(&g, vec![0, 0, 0, 0], 1);
        let mut st = CutState::new(&g, p);
        let newp = st.add_part();
        st.move_vertex(3, newp);
        assert_eq!(st.cut(), 1.0);
        assert!(st.drift() < 1e-12);
    }
}
