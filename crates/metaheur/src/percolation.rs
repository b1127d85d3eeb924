//! Percolation partitioning (§4.4 of the paper).
//!
//! k seed vertices release k "colored liquids" that drip through the graph.
//! The bond a color offers a vertex accumulates edge weights along the
//! flow path, attenuated by `1/2^d` with hop depth `d` — nearby, strongly
//! connected vertices bond strongly; distant ones barely at all. Each
//! vertex joins the color with the strongest bond; the flow is then re-run
//! with each color confined to its own territory, and the process repeats
//! until no vertex changes color (or a round cap).
//!
//! **Bond semantics.** The paper's printed formula sums `w(e)/2^d` along
//! "the path" but simultaneously says the *lowest* candidate bond is kept —
//! as printed, a sum-of-weights bond lets liquid cross a near-zero bridge
//! at full strength (the weight mass accumulated before the bridge is not
//! lost), which would defeat the operator's own use as a fission splitter.
//! This implementation resolves the ambiguity with a *gated decay* flow
//! that keeps all three ingredients the text insists on: per-hop `1/2^d`
//! attenuation, weakest-link gating ("the lowest bond … assigned to v"),
//! and highest-bond coloring:
//!
//! ```text
//! bond(cᵢ) = ∞,   bond(v) = max over neighbors u of
//!                            min(bond(u), w(u, v) / 2^{depth(u)})
//! ```
//!
//! A thin pipe throttles everything downstream of it — exactly how liquid
//! percolates through a porous medium. Max–min flows settle exactly with a
//! Dijkstra-style greedy, and the chosen path "is not always the shortest,
//! and can change during the process" (between confinement rounds), as the
//! paper notes.
//!
//! **In place.** A [`Percolator`] holds reusable buffers and percolates a
//! strictly ascending vertex subset of a graph without building the
//! subset's induced [`Graph`]. It copies the subset's internal edges into
//! a local CSR whose vertex ids are ranks in the subset. The copy has no
//! branch per edge: it writes every edge of a member's row and moves its
//! cursor on only past members, so the edge buffers hold the kept rows
//! plus room for one more row, and what lies past the kept rows is left
//! over and never read. Ranks order like the parent ids, so every local
//! row equals the row [`ff_graph::induced_subgraph`] builds, and the
//! colors are the ones percolation of that subgraph gives. Fusion–fission's
//! fission operator splits its atoms this way with a percolator its run
//! owns; [`spread_seeds`], [`percolation_partition`] and
//! [`percolation_with_seeds`] run a fresh one on all vertices.
//!
//! **Pop order.** A flow settles its vertices strongest bond first, ties
//! to the highest vertex id: the order in which a max-heap of
//! `(bond bits, id)` pairs pops them, stale entries skipped. The order is
//! observable, because two vertices with equal bonds at different depths
//! attenuate their neighbors' bonds differently. The flow's queue keeps
//! that order exactly without a heap over all pairs. A flow only pushes a
//! bond no stronger than the one it just popped
//! (`min(bond(v), w/2^d) ≤ bond(v)`), and it pushes a vertex again only
//! with a strictly stronger bond, so no `(bits, id)` pair repeats and a
//! monotone radix queue pops the heap's exact sequence. Entries wait in
//! buckets by the highest bit where they differ from the last popped
//! bond. The *run* of entries equal to it, with the pushes that tie it
//! (on weighted graphs, whenever `w/2^d ≥ bond(v)`), is a bitset over
//! ids that pops its highest set bit first, so no run is sorted. An entry
//! whose vertex has since been pushed with a stronger bond is stale; the
//! queue drops it when it leaves its bucket instead of popping it.
//! "Push ≤ last pop" is asserted.
//!
//! **Zero weights.** The queue compares bonds by their IEEE bits, which
//! order non-negative floats like their values except that `-0.0` sorts
//! above every positive number. [`Graph`] stores every zero edge weight as
//! `+0.0`, so every bond is `+0.0` or positive and the two orders agree.

use ff_graph::{Graph, VertexId};
use ff_partition::Partition;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Options for [`percolation_partition`].
#[derive(Clone, Copy, Debug)]
pub struct PercolationConfig {
    /// Maximum recoloring rounds (default 16; convergence is usually < 5).
    /// At least one round always runs.
    pub max_rounds: usize,
    /// Seed for the initial seed-vertex spreading.
    pub seed: u64,
}

impl Default for PercolationConfig {
    fn default() -> Self {
        PercolationConfig {
            max_rounds: 16,
            seed: 1,
        }
    }
}

/// A vertex outside the loaded subset, or one not yet colored.
const NONE: u32 = u32::MAX;

/// Reusable buffers that percolate a vertex subset of a graph in place.
///
/// Each call loads the subgraph induced by `members`, which must be
/// strictly ascending, and returns colors indexed by rank in `members`.
/// Nothing carries over between calls except allocations: one `u32` per
/// vertex of the largest graph seen (the rank map, reset after each load),
/// buffers sized to the largest subset, and edge buffers sized to the most
/// edges a subset kept plus one row (see "In place" in the module docs).
#[derive(Clone, Debug, Default)]
pub struct Percolator {
    /// Vertex of the graph → its rank in the loaded subset; `NONE`
    /// between calls.
    rank: Vec<u32>,
    /// The subset's induced subgraph in CSR form over ranks. Entries of
    /// `adjncy` and `adjwgt` past `xadj[n]` are leftovers, never read.
    xadj: Vec<usize>,
    adjncy: Vec<VertexId>,
    adjwgt: Vec<f64>,
    seeds: Vec<VertexId>,
    /// Hop distance to the nearest seed, and the BFS queue behind it.
    dist: Vec<u32>,
    fifo: Vec<VertexId>,
    /// One flow's bonds (`-1` = unreached) and hop depths.
    bond: Vec<f64>,
    depth: Vec<u32>,
    /// `halves[d]` is the attenuation `0.5^d` at depth `d`, for every
    /// depth a flow has reached.
    halves: Vec<f64>,
    queue: BondQueue,
    /// The round's strongest bond per vertex, and the color offering it.
    best: Vec<f64>,
    color: Vec<u32>,
    /// The previous round's colors.
    prev: Vec<u32>,
}

impl Percolator {
    /// Empty buffers; they grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Farthest-point seed spreading on the subgraph induced by
    /// `members`: a uniformly drawn first seed, then repeatedly the vertex
    /// farthest in hops from every seed so far (unreachable counts as
    /// farthest, ties go to the highest rank). Returns `k` ranks.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ members.len()` and `members` is strictly
    /// ascending and in range.
    pub(crate) fn spread_seeds(
        &mut self,
        g: &Graph,
        members: &[VertexId],
        k: usize,
        seed: u64,
    ) -> &[VertexId] {
        self.load(g, members);
        self.spread(k, seed);
        &self.seeds
    }

    /// Percolates the subgraph induced by `members` from `k` seeds spread
    /// under `cfg.seed` and returns each member's color, by rank.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ k ≤ members.len()` and `members` is strictly
    /// ascending and in range.
    pub fn percolate(
        &mut self,
        g: &Graph,
        members: &[VertexId],
        k: usize,
        cfg: &PercolationConfig,
    ) -> &[u32] {
        self.load(g, members);
        self.spread(k, cfg.seed);
        self.rounds(cfg.max_rounds)
    }

    /// Percolates the subgraph induced by `members` from explicit seeds,
    /// given as ranks, one per color; returns each member's color, by rank.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty, longer than `members`, out of range or
    /// contains duplicates, or if `members` is not strictly ascending and
    /// in range.
    pub(crate) fn percolate_from(
        &mut self,
        g: &Graph,
        members: &[VertexId],
        seeds: &[VertexId],
        cfg: &PercolationConfig,
    ) -> &[u32] {
        self.load(g, members);
        self.seeds.clear();
        self.seeds.extend_from_slice(seeds);
        self.rounds(cfg.max_rounds)
    }

    fn len(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Copies the subgraph induced by `members` into the local CSR, each
    /// row without a branch per edge: every edge is written at the cursor,
    /// which moves on only past members.
    fn load(&mut self, g: &Graph, members: &[VertexId]) {
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "members must be strictly ascending"
        );
        if let Some(&last) = members.last() {
            assert!(
                (last as usize) < g.num_vertices(),
                "member {last} out of range"
            );
        }
        let Percolator {
            rank,
            xadj,
            adjncy,
            adjwgt,
            ..
        } = self;
        if rank.len() < g.num_vertices() {
            rank.resize(g.num_vertices(), NONE);
        }
        for (i, &v) in members.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        xadj.clear();
        xadj.push(0);
        let mut kept = 0;
        for &v in members {
            let (nbrs, wgts) = (g.neighbors(v), g.neighbor_weights(v));
            let end = kept + nbrs.len();
            if adjncy.len() < end {
                // Climb the capacity ladder that pushes climb (4, 8, 16,
                // …) rather than jump to `end`: off-ladder sizes change
                // where the allocator places later large buffers, which
                // cost multilevel runs ~4 MB of peak RSS with two islands.
                while adjncy.capacity() < end {
                    let cap = (2 * adjncy.capacity()).max(4);
                    adjncy.reserve_exact(cap - adjncy.len());
                    adjwgt.reserve_exact(cap - adjwgt.len());
                }
                adjncy.resize(end, NONE);
                adjwgt.resize(end, 0.0);
            }
            for (&u, &w) in nbrs.iter().zip(wgts) {
                let r = rank[u as usize];
                adjncy[kept] = r;
                adjwgt[kept] = w;
                kept += usize::from(r != NONE);
            }
            xadj.push(kept);
        }
        for &v in members {
            rank[v as usize] = NONE;
        }
    }

    /// Fills `seeds` with `k` farthest-point seeds of the loaded subgraph.
    fn spread(&mut self, k: usize, seed: u64) {
        let n = self.len();
        assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ n");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut newest = rng.gen_range(0..n) as VertexId;
        let Percolator {
            xadj,
            adjncy,
            seeds,
            dist,
            fifo,
            ..
        } = self;
        seeds.clear();
        seeds.push(newest);
        dist.clear();
        dist.resize(n, u32::MAX);
        while seeds.len() < k {
            // Lower every distance that the newest seed shortens: a BFS
            // from it that stops where it does not improve.
            dist[newest as usize] = 0;
            fifo.clear();
            fifo.push(newest);
            let mut head = 0;
            while let Some(&v) = fifo.get(head) {
                head += 1;
                let d = dist[v as usize] + 1;
                for &u in &adjncy[xadj[v as usize]..xadj[v as usize + 1]] {
                    if d < dist[u as usize] {
                        dist[u as usize] = d;
                        fifo.push(u);
                    }
                }
            }
            // The farthest vertex, unreachable (`u32::MAX`) farthest of
            // all, ties to the highest rank. Seeds sit at distance 0, below
            // every vertex still unseeded, so none is picked twice.
            let mut far = 0;
            for v in 0..n {
                if dist[v] >= dist[far] {
                    far = v;
                }
            }
            newest = far as VertexId;
            seeds.push(newest);
        }
    }

    /// The percolation rounds from `seeds`: a free flow per color, then
    /// flows confined to their own color's territory, until no vertex
    /// changes color or `max_rounds` rounds have run (at least one).
    fn rounds(&mut self, max_rounds: usize) -> &[u32] {
        let n = self.len();
        let k = self.seeds.len();
        assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ n seeds");
        // Mark the seeds in `color` to find duplicates, then start from no
        // color at all.
        self.color.clear();
        self.color.resize(n, NONE);
        for &s in &self.seeds {
            assert!((s as usize) < n, "seed {s} out of range");
            assert!(self.color[s as usize] == NONE, "duplicate seeds");
            self.color[s as usize] = 0;
        }
        self.color.fill(NONE);
        let mut round = 0;
        loop {
            self.prev.clone_from(&self.color);
            self.best.clear();
            self.best.resize(n, -1.0);
            for c in 0..k {
                self.flow(c, round > 0);
            }
            // Unreached vertices (disconnected from every seed): nearest
            // color by round-robin to keep the partition total.
            for (v, c) in self.color.iter_mut().enumerate() {
                if *c == NONE {
                    *c = (v % k) as u32;
                }
            }
            // Seeds always keep their own color.
            for (c, &s) in self.seeds.iter().enumerate() {
                self.color[s as usize] = c as u32;
            }
            round += 1;
            if self.color == self.prev || round >= max_rounds {
                return &self.color;
            }
        }
    }

    /// Color `c`'s gated-decay flow from its seed. Each vertex takes color
    /// `c` as it settles if `c` offers it a stronger bond than every
    /// earlier color this round. Liquid can *reach* foreign territory but,
    /// when `confined`, flows onward only through its own.
    fn flow(&mut self, c: usize, confined: bool) {
        let n = self.len();
        let Percolator {
            xadj,
            adjncy,
            adjwgt,
            seeds,
            bond,
            depth,
            queue,
            best,
            color,
            prev,
            halves,
            ..
        } = self;
        let source = seeds[c];
        let c = c as u32;
        bond.clear();
        bond.resize(n, -1.0);
        bond[source as usize] = f64::MAX;
        // Every push writes its vertex's depth; only the source's is not.
        depth.resize(n, 0);
        depth[source as usize] = 0;
        queue.clear();
        queue.push(f64::MAX.to_bits(), source);
        // An entry is stale once its vertex was pushed again with a
        // stronger bond. The queue drops stale entries before they reach a
        // run, and an entry in the run cannot go stale: that would take a
        // push above the last pop.
        while let Some((bits, v)) = queue.pop_live(|bits, u| bond[u as usize].to_bits() == bits) {
            let vi = v as usize;
            let b = bond[vi];
            debug_assert_eq!(b.to_bits(), bits, "popped a stale entry");
            if b > best[vi] {
                best[vi] = b;
                color[vi] = c;
            }
            if confined && v != source && prev[vi] != c {
                continue;
            }
            let d = depth[vi];
            // A vertex at depth d was pushed by one at depth d - 1.
            if halves.len() == d as usize {
                halves.push(0.5f64.powi(d as i32));
            }
            let atten = halves[d as usize];
            let (lo, hi) = (xadj[vi], xadj[vi + 1]);
            for (&u, &w) in adjncy[lo..hi].iter().zip(&adjwgt[lo..hi]) {
                // Weakest link along the path, attenuated per hop. A
                // settled u already holds a bond of at least b.
                let cand = b.min(w * atten);
                if cand > bond[u as usize] {
                    bond[u as usize] = cand;
                    depth[u as usize] = d + 1;
                    queue.push(cand.to_bits(), u);
                }
            }
        }
    }
}

/// A flow's priority queue of `(bond bits, vertex)` pairs. It pops in
/// exactly the order of a `BinaryHeap<(u64, VertexId)>`, bits descending
/// then id descending, provided no push carries more bits than the last
/// pop (see the module docs).
#[derive(Clone, Debug)]
struct BondQueue {
    /// Bits of the last popped bond; `u64::MAX` before the first pop.
    last: u64,
    /// The ids pending with bits equal to `last`, pushed before or after
    /// it was popped.
    run: IdRun,
    /// `buckets[i]` holds the entries below `last` whose highest bit
    /// differing from it is bit `i`, so lower buckets hold stronger bonds.
    buckets: Vec<Vec<(u64, VertexId)>>,
}

impl Default for BondQueue {
    fn default() -> Self {
        BondQueue {
            last: u64::MAX,
            run: IdRun::default(),
            buckets: vec![Vec::new(); 64],
        }
    }
}

/// The bucket of `bits` below `last`.
#[inline]
fn bucket(bits: u64, last: u64) -> usize {
    63 - (bits ^ last).leading_zeros() as usize
}

impl BondQueue {
    fn clear(&mut self) {
        self.last = u64::MAX;
        self.run.clear();
        for b in &mut self.buckets {
            b.clear();
        }
    }

    fn push(&mut self, bits: u64, id: VertexId) {
        assert!(
            bits <= self.last,
            "percolation pushed a bond above the last one popped"
        );
        if bits == self.last {
            self.run.insert(id);
        } else {
            self.buckets[bucket(bits, self.last)].push((bits, id));
        }
    }

    /// [`BondQueue::pop_live`] with no entry stale.
    #[cfg(test)]
    fn pop(&mut self) -> Option<(u64, VertexId)> {
        self.pop_live(|_, _| true)
    }

    /// Pops in the heap's order, skipping the entries `live` rejects. It
    /// is asked as an entry leaves its bucket, so a rejected entry moves
    /// no further. `live` must be monotone (an entry it rejects once, it
    /// rejects for good); then every entry it rejects would only have
    /// popped to be skipped.
    fn pop_live(&mut self, live: impl Fn(u64, VertexId) -> bool) -> Option<(u64, VertexId)> {
        let popped = self.last;
        while self.run.len == 0 {
            // Start the next run: the strongest bits left sit in the
            // lowest non-empty bucket. Its other entries agree with them
            // above bit i, so they move to lower buckets; entries of
            // higher buckets keep theirs. If every entry of the strongest
            // bits is stale, the run stays empty and the next one starts.
            let Some(i) = self.buckets.iter().position(|b| !b.is_empty()) else {
                // Only stale entries were left, so the last pop stands.
                self.last = popped;
                return None;
            };
            let (lower, rest) = self.buckets.split_at_mut(i);
            let top = &mut rest[0];
            let last = top.iter().map(|&(bits, _)| bits).max()?;
            for (bits, id) in top.drain(..) {
                if !live(bits, id) {
                    continue;
                }
                if bits == last {
                    self.run.insert(id);
                } else {
                    lower[bucket(bits, last)].push((bits, id));
                }
            }
            self.last = last;
        }
        Some((self.last, self.run.pop()?))
    }
}

/// A multiset of ids that pops its highest id first: one bit per id,
/// highest set bit first, with no sorting. An id inserted while its bit
/// is set is also listed in `repeats`, so a repeated pair pops as often as
/// a heap pops it; a flow never repeats one.
#[derive(Clone, Debug, Default)]
struct IdRun {
    /// Bit `id % 64` of word `id / 64` is set while `id` is pending.
    words: Vec<u64>,
    /// No word above `top` has a bit set.
    top: usize,
    /// Ids pending, repeats included.
    len: usize,
    /// A copy of an id for each insertion beyond its first.
    repeats: Vec<VertexId>,
}

impl IdRun {
    fn clear(&mut self) {
        if self.len > 0 {
            self.words[..=self.top].fill(0);
        }
        self.top = 0;
        self.len = 0;
        self.repeats.clear();
    }

    #[inline]
    fn insert(&mut self, id: VertexId) {
        let (w, bit) = (id as usize / 64, 1u64 << (id % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        if self.words[w] & bit != 0 {
            self.repeats.push(id);
        }
        self.words[w] |= bit;
        self.top = self.top.max(w);
        self.len += 1;
    }

    /// Removes the highest pending id, walking `top` down past words that
    /// emptied.
    #[inline]
    fn pop(&mut self) -> Option<VertexId> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        while self.words[self.top] == 0 {
            self.top -= 1;
        }
        let high = 63 - self.words[self.top].leading_zeros();
        let id = (self.top * 64) as VertexId + high;
        match self.repeats.iter().position(|&r| r == id) {
            Some(i) => {
                self.repeats.swap_remove(i);
            }
            None => self.words[self.top] &= !(1u64 << high),
        }
        Some(id)
    }
}

/// Farthest-point seed spreading (BFS metric), deterministic under
/// `seed`: a uniformly drawn first seed, then repeatedly the vertex
/// farthest in hops from every seed so far (unreachable counts as
/// farthest, ties go to the highest id).
pub fn spread_seeds(g: &Graph, k: usize, seed: u64) -> Vec<VertexId> {
    let all: Vec<VertexId> = g.vertices().collect();
    Percolator::new().spread_seeds(g, &all, k, seed).to_vec()
}

/// Percolation with automatically spread seeds.
pub fn percolation_partition(g: &Graph, k: usize, cfg: &PercolationConfig) -> Partition {
    let all: Vec<VertexId> = g.vertices().collect();
    let color = Percolator::new().percolate(g, &all, k, cfg).to_vec();
    Partition::from_assignment(g, color, k)
}

/// Percolation from explicit seed vertices (one per color).
///
/// # Panics
///
/// Panics if `seeds` is empty, contains duplicates or a vertex out of
/// range, or exceeds the vertex count.
pub fn percolation_with_seeds(g: &Graph, seeds: &[VertexId], cfg: &PercolationConfig) -> Partition {
    let all: Vec<VertexId> = g.vertices().collect();
    let color = Percolator::new()
        .percolate_from(g, &all, seeds, cfg)
        .to_vec();
    Partition::from_assignment(g, color, seeds.len())
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{grid2d, path, random_geometric, two_cliques_bridge};
    use ff_partition::{imbalance, Objective};

    #[test]
    fn covers_all_vertices() {
        let g = grid2d(8, 8);
        let p = percolation_partition(&g, 4, &PercolationConfig::default());
        assert_eq!(p.num_nonempty_parts(), 4);
        assert_eq!((0..4u32).map(|i| p.part_size(i)).sum::<usize>(), 64);
    }

    #[test]
    fn respects_two_clique_structure() {
        let g = two_cliques_bridge(8, 2.0, 0.1);
        // Seeds inside each clique.
        let p = percolation_with_seeds(&g, &[0, 12], &PercolationConfig::default());
        let cut = Objective::Cut.evaluate(&g, &p);
        assert!((cut - 0.1).abs() < 1e-9, "cut = {cut}");
    }

    #[test]
    fn path_split_roughly_half() {
        let g = path(20);
        let p = percolation_with_seeds(&g, &[0, 19], &PercolationConfig::default());
        // Two liquids from the ends meet near the middle.
        assert!(imbalance(&p) < 0.35, "imbalance {}", imbalance(&p));
        // Each side is an interval: part of v non-decreasing along the path.
        let a: Vec<u32> = (0..20).map(|v| p.part_of(v)).collect();
        let changes = a.windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(changes, 1, "path parts must be contiguous: {a:?}");
    }

    #[test]
    fn seeds_keep_their_colors() {
        let g = grid2d(6, 6);
        let seeds = [0 as VertexId, 35, 5];
        let p = percolation_with_seeds(&g, &seeds, &PercolationConfig::default());
        for (c, &s) in seeds.iter().enumerate() {
            assert_eq!(p.part_of(s), c as u32);
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = random_geometric(100, 0.2, 3);
        let cfg = PercolationConfig {
            seed: 11,
            ..Default::default()
        };
        let a = percolation_partition(&g, 5, &cfg);
        let b = percolation_partition(&g, 5, &cfg);
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn k_equals_one() {
        let g = grid2d(4, 4);
        let p = percolation_partition(&g, 1, &PercolationConfig::default());
        assert_eq!(p.num_nonempty_parts(), 1);
    }

    #[test]
    fn disconnected_graph_handled() {
        let mut b = ff_graph::GraphBuilder::new(6);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(3, 4, 1.0);
        b.add_edge(4, 5, 1.0);
        let g = b.build();
        let p = percolation_with_seeds(&g, &[0, 3], &PercolationConfig::default());
        assert_eq!(p.num_nonempty_parts(), 2);
        assert_eq!(Objective::Cut.evaluate(&g, &p), 0.0);
    }

    #[test]
    fn negative_zero_weight_is_zero() {
        // A 9-vertex path whose last two edges weigh zero, written `-0`
        // in one METIS text and `0` in the other.
        let metis = |zero: &str| {
            format!(
                "9 8 001\n2 1\n1 1 3 1\n2 1 4 1\n3 1 5 1\n4 1 6 1\n5 1 7 1\n\
                 6 1 8 {zero}\n7 {zero} 9 {zero}\n8 {zero}\n"
            )
        };
        let neg = ff_graph::io::read_metis(metis("-0").as_bytes()).unwrap();
        let pos = ff_graph::io::read_metis(metis("0").as_bytes()).unwrap();
        let bits = |g: &Graph, v| -> Vec<u64> {
            g.neighbor_weights(v).iter().map(|w| w.to_bits()).collect()
        };
        for v in pos.vertices() {
            assert_eq!(neg.neighbors(v), pos.neighbors(v));
            assert_eq!(bits(&neg, v), bits(&pos, v), "weights of vertex {v}");
        }
        for seed in 0..50 {
            for k in [2, 3] {
                let cfg = PercolationConfig {
                    seed,
                    ..Default::default()
                };
                assert_eq!(
                    percolation_partition(&neg, k, &cfg).assignment(),
                    percolation_partition(&pos, k, &cfg).assignment(),
                    "seed {seed}, k {k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate seeds")]
    fn duplicate_seeds_panic() {
        let g = path(5);
        percolation_with_seeds(&g, &[1, 1], &PercolationConfig::default());
    }
}
