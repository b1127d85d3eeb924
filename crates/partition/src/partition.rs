//! The k-way partition data structure.

use ff_graph::{Graph, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// An assignment of every vertex to one of `num_parts` parts.
///
/// Parts are dense ids `0..num_parts`. Parts **may be empty** — the
/// fusion–fission metaheuristic deliberately drifts the live part count, so
/// emptiness is a state, not an error; [`Partition::compact`] renumbers
/// away empty parts when a caller needs dense non-empty ids.
///
/// Per-part vertex counts and vertex weights are maintained on every move,
/// so they are always O(1) reads. So is the live (non-empty) part count,
/// [`Partition::num_nonempty_parts`]. A liveness index over the part slots
/// answers [`Partition::nth_live_part`], the r-th non-empty part in
/// ascending id order, in O(log P) for P part slots; a move that empties
/// or fills a part pays the same O(log P) to keep it current.
///
/// ```
/// use ff_graph::generators::path;
/// use ff_partition::Partition;
///
/// let g = path(6);
/// let mut p = Partition::block(&g, 2); // {0,1,2} | {3,4,5}
/// assert_eq!(p.part_of(1), 0);
/// assert_eq!(p.part_size(1), 3);
/// p.move_vertex(&g, 2, 1);
/// assert_eq!(p.part_size(1), 4);
/// assert!(p.validate(&g));
/// ```
#[derive(Clone, Debug)]
pub struct Partition {
    assignment: Vec<u32>,
    part_weight: Vec<f64>,
    /// Member list per part (unordered; maintained with swap-remove).
    members: Vec<Vec<VertexId>>,
    /// Index of each vertex inside its part's member list.
    pos: Vec<u32>,
    /// Which part slots are non-empty.
    live: LiveIndex,
}

/// Order-statistic index over part slots: a Fenwick tree of 0/1 liveness
/// flags plus their total, so the live count is O(1) and both flipping a
/// flag and selecting the r-th live slot are O(log P).
#[derive(Clone, Debug, PartialEq)]
struct LiveIndex {
    /// 1-based Fenwick array: `tree[i - 1]` counts the live slots among
    /// `(i - lowbit(i), i]`.
    tree: Vec<u32>,
    count: usize,
}

impl LiveIndex {
    /// Builds the index over `flags` (one per slot) in O(P).
    fn from_flags(flags: impl Iterator<Item = bool>) -> Self {
        let mut tree: Vec<u32> = flags.map(u32::from).collect();
        let count = tree.iter().map(|&f| f as usize).sum();
        for i in 1..=tree.len() {
            let parent = i + (i & i.wrapping_neg());
            if parent <= tree.len() {
                tree[parent - 1] += tree[i - 1];
            }
        }
        LiveIndex { tree, count }
    }

    /// Appends one slot. Its node sums itself and its children
    /// `i − 1, i − 2, i − 4, …` below `lowbit(i)`.
    fn push(&mut self, live: bool) {
        let i = self.tree.len() + 1;
        let low = i & i.wrapping_neg();
        let mut node = u32::from(live);
        let mut step = 1;
        while step < low {
            node += self.tree[i - step - 1];
            step <<= 1;
        }
        self.tree.push(node);
        self.count += usize::from(live);
    }

    /// Drops the last slot, which must be dead: no node above it exists,
    /// so nothing else changes.
    fn pop_dead(&mut self) {
        self.tree.pop();
    }

    /// Flips `slot` to `live`; the caller guarantees it was `!live`.
    fn set(&mut self, slot: u32, live: bool) {
        let mut i = slot as usize + 1;
        while i <= self.tree.len() {
            if live {
                self.tree[i - 1] += 1;
            } else {
                self.tree[i - 1] -= 1;
            }
            i += i & i.wrapping_neg();
        }
        if live {
            self.count += 1;
        } else {
            self.count -= 1;
        }
    }

    /// The `r`-th live slot (0-based, ascending): the Fenwick descent to
    /// the longest prefix holding at most `r` live slots.
    fn nth(&self, r: usize) -> u32 {
        assert!(r < self.count, "live part {r} of {}", self.count);
        let len = self.tree.len();
        let mut pos = 0;
        let mut rem = r as u32;
        let mut step = if len == 0 { 0 } else { 1 << len.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= len && self.tree[next - 1] <= rem {
                pos = next;
                rem -= self.tree[next - 1];
            }
            step >>= 1;
        }
        pos as u32
    }
}

/// How to undo one [`Partition`] edit exactly: assignment, part weights
/// (bit for bit), member order and slot count. Recorded before the edit.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Undo {
    /// `v` left part `from`, where it sat at `slot` of the member list.
    /// `from_weight` and `to_weight` are both parts' weights before.
    Move {
        v: VertexId,
        from: u32,
        slot: u32,
        from_weight: f64,
        to_weight: f64,
    },
    /// An empty part was appended.
    AddPart,
}

impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        // Semantic equality: same assignment and part count; member-list
        // internal order is an implementation detail.
        self.assignment == other.assignment && self.num_parts() == other.num_parts()
    }
}

impl Partition {
    /// Builds from an explicit assignment; `num_parts` must exceed every
    /// assigned id.
    ///
    /// # Panics
    ///
    /// Panics if any assignment id is ≥ `num_parts`.
    pub fn from_assignment(g: &Graph, assignment: Vec<u32>, num_parts: usize) -> Self {
        assert_eq!(assignment.len(), g.num_vertices(), "assignment length");
        let mut part_weight = vec![0.0f64; num_parts];
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); num_parts];
        let mut pos = vec![0u32; assignment.len()];
        for (v, &p) in assignment.iter().enumerate() {
            assert!(
                (p as usize) < num_parts,
                "vertex {v} assigned to part {p} ≥ {num_parts}"
            );
            part_weight[p as usize] += g.vertex_weight(v as VertexId);
            pos[v] = members[p as usize].len() as u32;
            members[p as usize].push(v as VertexId);
        }
        let live = LiveIndex::from_flags(members.iter().map(|m| !m.is_empty()));
        Partition {
            assignment,
            part_weight,
            members,
            pos,
            live,
        }
    }

    /// Contiguous block partition: the first ⌈n/k⌉ vertices in part 0, etc.
    /// This is the "Linear" scheme of Chaco's simplest mode.
    pub fn block(g: &Graph, k: usize) -> Self {
        assert!(k >= 1);
        let n = g.num_vertices();
        let assignment = (0..n)
            .map(|v| ((v * k) / n.max(1)).min(k - 1) as u32)
            .collect();
        Self::from_assignment(g, assignment, k)
    }

    /// Uniform random partition (each vertex assigned independently).
    pub fn random(g: &Graph, k: usize, seed: u64) -> Self {
        assert!(k >= 1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let assignment = (0..g.num_vertices())
            .map(|_| rng.gen_range(0..k) as u32)
            .collect();
        Self::from_assignment(g, assignment, k)
    }

    /// Every vertex its own part (the fusion–fission initial state).
    pub fn singletons(g: &Graph) -> Self {
        let n = g.num_vertices();
        Self::from_assignment(g, (0..n as u32).collect(), n)
    }

    /// Number of parts, including empty ones.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.members.len()
    }

    /// Number of non-empty parts. O(1).
    #[inline]
    pub fn num_nonempty_parts(&self) -> usize {
        self.live.count
    }

    /// The `r`-th non-empty part in ascending id order (0-based), i.e.
    /// the `r`-th element of the ids `p` with `part_size(p) > 0`.
    /// O(log P) for P part slots.
    ///
    /// # Panics
    ///
    /// Panics if `r ≥` [`Partition::num_nonempty_parts`].
    pub fn nth_live_part(&self, r: usize) -> u32 {
        self.live.nth(r)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Part of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// Vertex count of part `p`.
    #[inline]
    pub fn part_size(&self, p: u32) -> usize {
        self.members[p as usize].len()
    }

    /// Vertex-weight sum of part `p`.
    #[inline]
    pub fn part_weight(&self, p: u32) -> f64 {
        self.part_weight[p as usize]
    }

    /// The raw assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Moves `v` to `to` (no-op when already there). O(1), plus O(log P)
    /// when the move empties `v`'s part or fills an empty `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not an existing part id.
    pub fn move_vertex(&mut self, g: &Graph, v: VertexId, to: u32) {
        assert!((to as usize) < self.num_parts(), "part {to} out of range");
        let from = self.assignment[v as usize];
        if from == to {
            return;
        }
        let w = g.vertex_weight(v);
        self.part_weight[from as usize] -= w;
        self.part_weight[to as usize] += w;
        // Swap-remove from the old member list, patching the swapped-in
        // vertex's position.
        let vpos = self.pos[v as usize] as usize;
        let old = &mut self.members[from as usize];
        let last = *old.last().expect("member list can't be empty here");
        old.swap_remove(vpos);
        if last != v {
            self.pos[last as usize] = vpos as u32;
        }
        if old.is_empty() {
            self.live.set(from, false);
        }
        let dest = &mut self.members[to as usize];
        if dest.is_empty() {
            self.live.set(to, true);
        }
        self.pos[v as usize] = dest.len() as u32;
        dest.push(v);
        self.assignment[v as usize] = to;
    }

    /// Appends a new empty part; returns its id.
    pub fn add_part(&mut self) -> u32 {
        self.members.push(Vec::new());
        self.part_weight.push(0.0);
        self.live.push(false);
        (self.num_parts() - 1) as u32
    }

    /// The record that undoes moving `v` to `to`, taken before the move.
    pub(crate) fn undo_of_move(&self, v: VertexId, to: u32) -> Undo {
        let from = self.assignment[v as usize];
        Undo::Move {
            v,
            from,
            slot: self.pos[v as usize],
            from_weight: self.part_weight[from as usize],
            to_weight: self.part_weight[to as usize],
        }
    }

    /// Reverts the edit `undo` was recorded for. Edits must be undone
    /// newest first; each then restores the exact prior state, member
    /// order and weight bits included.
    pub(crate) fn undo(&mut self, undo: Undo) {
        match undo {
            Undo::Move {
                v,
                from,
                slot,
                from_weight,
                to_weight,
            } => {
                let to = self.assignment[v as usize];
                let dest = &mut self.members[to as usize];
                debug_assert_eq!(dest.last(), Some(&v), "undo out of order");
                dest.pop();
                if dest.is_empty() {
                    self.live.set(to, false);
                }
                // Reverse the swap-remove: the vertex that filled `slot`
                // goes back to the end of the list.
                let src = &mut self.members[from as usize];
                if src.is_empty() {
                    self.live.set(from, true);
                }
                let slot_us = slot as usize;
                if slot_us < src.len() {
                    let displaced = src[slot_us];
                    self.pos[displaced as usize] = src.len() as u32;
                    src.push(displaced);
                    src[slot_us] = v;
                } else {
                    src.push(v);
                }
                self.pos[v as usize] = slot;
                self.assignment[v as usize] = from;
                self.part_weight[from as usize] = from_weight;
                self.part_weight[to as usize] = to_weight;
            }
            Undo::AddPart => {
                let last = self.members.pop();
                debug_assert!(last.is_some_and(|m| m.is_empty()), "undo out of order");
                self.part_weight.pop();
                self.live.pop_dead();
            }
        }
    }

    /// Members of part `p`, ascending. O(s log s) for the sort; use
    /// [`Partition::part_members_unordered`] in hot paths that don't need
    /// ordering.
    pub fn part_members(&self, p: u32) -> Vec<VertexId> {
        let mut m = self.members[p as usize].clone();
        m.sort_unstable();
        m
    }

    /// Members of part `p` in internal (arbitrary but deterministic)
    /// order. O(1), no allocation.
    #[inline]
    pub fn part_members_unordered(&self, p: u32) -> &[VertexId] {
        &self.members[p as usize]
    }

    /// Renumbers parts densely, dropping empty ones. Returns the old→new
    /// id map (`u32::MAX` for dropped parts).
    pub fn compact(&mut self) -> Vec<u32> {
        let mut remap = vec![u32::MAX; self.num_parts()];
        let mut next = 0u32;
        for (p, m) in self.members.iter().enumerate() {
            if !m.is_empty() {
                remap[p] = next;
                next += 1;
            }
        }
        for a in &mut self.assignment {
            *a = remap[*a as usize];
        }
        let live = next as usize;
        let mut weight = vec![0.0; live];
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); live];
        for (p, m) in self.members.iter_mut().enumerate() {
            if remap[p] != u32::MAX {
                weight[remap[p] as usize] = self.part_weight[p];
                members[remap[p] as usize] = std::mem::take(m);
            }
        }
        self.part_weight = weight;
        self.members = members;
        self.live = LiveIndex::from_flags(std::iter::repeat_n(true, live));
        remap
    }

    /// Structural self-check (tests and debug assertions): counts, weights
    /// and the liveness index agree with the assignment.
    pub fn validate(&self, g: &Graph) -> bool {
        if self.live != LiveIndex::from_flags(self.members.iter().map(|m| !m.is_empty())) {
            return false;
        }
        if self.assignment.len() != g.num_vertices() {
            return false;
        }
        let mut count = vec![0usize; self.num_parts()];
        let mut weight = vec![0.0f64; self.num_parts()];
        for (v, &p) in self.assignment.iter().enumerate() {
            if (p as usize) >= self.num_parts() {
                return false;
            }
            count[p as usize] += 1;
            weight[p as usize] += g.vertex_weight(v as VertexId);
        }
        // Member lists and position index agree with the assignment.
        for (p, m) in self.members.iter().enumerate() {
            if m.len() != count[p] {
                return false;
            }
            for (i, &v) in m.iter().enumerate() {
                if self.assignment[v as usize] != p as u32 || self.pos[v as usize] != i as u32 {
                    return false;
                }
            }
        }
        weight
            .iter()
            .zip(&self.part_weight)
            .all(|(a, b)| (a - b).abs() < 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{grid2d, path};

    #[test]
    fn block_partition_sizes() {
        let g = path(10);
        let p = Partition::block(&g, 3);
        assert_eq!(p.num_parts(), 3);
        let sizes: Vec<_> = (0..3).map(|i| p.part_size(i)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)));
        assert!(p.validate(&g));
    }

    #[test]
    fn move_updates_bookkeeping() {
        let g = path(6);
        let mut p = Partition::block(&g, 2);
        let before0 = p.part_size(0);
        p.move_vertex(&g, 0, 1);
        assert_eq!(p.part_of(0), 1);
        assert_eq!(p.part_size(0), before0 - 1);
        assert!(p.validate(&g));
        // no-op move
        p.move_vertex(&g, 0, 1);
        assert!(p.validate(&g));
    }

    #[test]
    fn singletons_and_compact() {
        let g = path(5);
        let mut p = Partition::singletons(&g);
        assert_eq!(p.num_parts(), 5);
        // merge everything into part 0
        for v in 1..5 {
            p.move_vertex(&g, v, 0);
        }
        assert_eq!(p.num_nonempty_parts(), 1);
        let remap = p.compact();
        assert_eq!(p.num_parts(), 1);
        assert_eq!(remap[0], 0);
        assert!(remap[1..].iter().all(|&r| r == u32::MAX));
        assert!(p.validate(&g));
    }

    #[test]
    fn add_part_grows() {
        let g = path(4);
        let mut p = Partition::block(&g, 2);
        let new = p.add_part();
        assert_eq!(new, 2);
        p.move_vertex(&g, 3, new);
        assert_eq!(p.part_size(new), 1);
        assert!(p.validate(&g));
    }

    #[test]
    fn random_is_deterministic() {
        let g = grid2d(5, 5);
        let a = Partition::random(&g, 4, 9);
        let b = Partition::random(&g, 4, 9);
        assert_eq!(a, b);
        let c = Partition::random(&g, 4, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn part_members_lists() {
        let g = path(6);
        let p = Partition::block(&g, 2);
        assert_eq!(p.part_members(0), vec![0, 1, 2]);
        assert_eq!(p.part_members(1), vec![3, 4, 5]);
    }

    #[test]
    fn part_weight_tracks_vertex_weights() {
        let mut b = ff_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.set_vertex_weight(2, 10.0);
        let g = b.build();
        let p = Partition::from_assignment(&g, vec![0, 0, 1], 2);
        assert_eq!(p.part_weight(0), 2.0);
        assert_eq!(p.part_weight(1), 10.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn move_to_missing_part_panics() {
        let g = path(3);
        let mut p = Partition::block(&g, 2);
        p.move_vertex(&g, 0, 7);
    }
}
