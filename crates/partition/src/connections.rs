//! Dense connection-weight gathers: a vertex's or a part's edge weight
//! into each neighbouring part.
//!
//! Fusion picks its partner by an atom's connection weights, an ejected
//! nucleon joins the part it is most connected to, and the greedy
//! refiner evaluates a move into every part a vertex touches. All of
//! them read one [`Connections`] scratch: a weight slot per part id plus
//! the list of part ids the gather reached. The caller owns the scratch
//! and reuses it, so a gather allocates nothing once the slots cover the
//! part count.
//!
//! ## Order
//!
//! Each part's weight is summed in a fixed order: edge order for a
//! vertex, member-then-edge order over
//! [`Partition::part_members_unordered`](crate::Partition::part_members_unordered)
//! for a part. The reached part ids are then sorted, so a reader that
//! walks [`Connections::parts`] sees ascending ids, and tie-breaks by
//! position are tie-breaks by lowest (or highest) id. A part is listed
//! when the gather reached it, whatever its weight: one reached only
//! through zero-weight edges is listed with weight `+0.0`.

use crate::partition::Partition;
use ff_graph::{Graph, VertexId};

/// Reusable scratch for connection-weight gathers (see the
/// [module docs](self)). It holds the result of the last gather until
/// the next one.
///
/// ```
/// use ff_graph::generators::path;
/// use ff_partition::{Connections, Partition};
///
/// let g = path(4); // 0-1-2-3
/// let p = Partition::from_assignment(&g, vec![0, 0, 1, 2], 3);
/// let mut conn = Connections::new();
/// conn.gather_vertex(&g, &p, 2); // neighbours 1 (part 0) and 3 (part 2)
/// assert_eq!(conn.iter().collect::<Vec<_>>(), vec![(0, 1.0), (2, 1.0)]);
/// conn.gather_part(&g, &p, 0); // part 0 = {0, 1}: one edge into part 1
/// assert_eq!(conn.parts(), &[1]);
/// assert_eq!(conn.weight(1), 1.0);
/// assert_eq!(conn.weight(2), 0.0); // not reached
/// ```
#[derive(Clone, Debug, Default)]
pub struct Connections {
    /// One weight slot per part id; `+0.0` outside `parts`.
    weight: Vec<f64>,
    /// Whether the last gather reached each part id; `false` outside
    /// `parts`.
    reached: Vec<bool>,
    /// Part ids the last gather reached, ascending once it finished.
    parts: Vec<u32>,
}

impl Connections {
    /// An empty scratch; the first gather sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch with slots for `num_parts` part ids.
    pub fn with_parts(num_parts: usize) -> Self {
        Connections {
            weight: vec![0.0; num_parts],
            reached: vec![false; num_parts],
            parts: Vec::new(),
        }
    }

    /// Gathers `v`'s edge weight in `g` into each part of `part` among
    /// its neighbours, its own part included, each summed in edge order.
    /// O(deg v + r log r) for r reached parts.
    pub fn gather_vertex(&mut self, g: &Graph, part: &Partition, v: VertexId) {
        self.begin(part.num_parts());
        for (u, w) in g.edges_of(v) {
            self.add(part.part_of(u), w);
        }
        self.parts.sort_unstable();
    }

    /// Gathers part `a`'s edge weight in `g` into every other part of
    /// `part`, each summed in member-then-edge order over `a`'s unordered
    /// members. O(Σ deg + r log r) over `a`'s members, for r reached
    /// parts.
    pub fn gather_part(&mut self, g: &Graph, part: &Partition, a: u32) {
        self.begin(part.num_parts());
        for &v in part.part_members_unordered(a) {
            for (u, w) in g.edges_of(v) {
                let pu = part.part_of(u);
                if pu != a {
                    self.add(pu, w);
                }
            }
        }
        self.parts.sort_unstable();
    }

    /// The part ids the last gather reached, ascending.
    #[inline]
    pub fn parts(&self) -> &[u32] {
        &self.parts
    }

    /// The last gather's weight into part `p`; `0.0` for a part it did
    /// not reach.
    #[inline]
    pub fn weight(&self, p: u32) -> f64 {
        self.weight.get(p as usize).copied().unwrap_or(0.0)
    }

    /// `(part, weight)` for every part the last gather reached, by
    /// ascending part id.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.parts.iter().map(|&p| (p, self.weight[p as usize]))
    }

    /// Clears the slots the previous gather reached back to `+0.0` and
    /// grows the slots to `num_parts`: parts may have been added or
    /// renumbered since.
    fn begin(&mut self, num_parts: usize) {
        for &p in &self.parts {
            self.weight[p as usize] = 0.0;
            self.reached[p as usize] = false;
        }
        self.parts.clear();
        if self.weight.len() < num_parts {
            self.weight.resize(num_parts, 0.0);
            self.reached.resize(num_parts, false);
        }
    }

    #[inline]
    fn add(&mut self, p: u32, w: f64) {
        let i = p as usize;
        if !self.reached[i] {
            self.reached[i] = true;
            self.parts.push(p);
        }
        self.weight[i] += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::CutState;
    use ff_graph::generators::{planted_partition, random_geometric};
    use ff_graph::GraphBuilder;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeMap;

    /// `v`'s weight into each neighbouring part through an ordered map,
    /// summed in edge order.
    fn vertex_reference(st: &CutState, v: VertexId) -> Vec<(u32, f64)> {
        let mut conn: BTreeMap<u32, f64> = BTreeMap::new();
        for (u, w) in st.graph().edges_of(v) {
            *conn.entry(st.partition().part_of(u)).or_insert(0.0) += w;
        }
        conn.into_iter().collect()
    }

    /// Part `a`'s weight into each other part through an ordered map,
    /// summed in member-then-edge order.
    fn part_reference(st: &CutState, a: u32) -> Vec<(u32, f64)> {
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

    fn bits(conn: &[(u32, f64)]) -> Vec<(u32, u64)> {
        conn.iter().map(|&(p, w)| (p, w.to_bits())).collect()
    }

    fn assert_gathered(conn: &Connections, want: &[(u32, f64)], what: &str) {
        let got: Vec<(u32, f64)> = conn.iter().collect();
        assert_eq!(bits(&got), bits(want), "{what}");
        let ids: Vec<u32> = want.iter().map(|&(p, _)| p).collect();
        assert_eq!(conn.parts(), &ids[..], "{what}: parts");
        for &(p, w) in want {
            assert_eq!(conn.weight(p).to_bits(), w.to_bits(), "{what}: weight({p})");
        }
    }

    /// A graph with irregular weights (so the summation order shows in
    /// the bits) and about a third of its edges at weight zero.
    fn graph(base: &Graph, seed: u64) -> Graph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = GraphBuilder::new(base.num_vertices());
        for (u, v, w) in base.edges() {
            let w = if rng.gen_bool(0.3) {
                0.0
            } else {
                w * rng.gen_range(0.3..1.7)
            };
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// What the gathers met, so the test can insist its cases ran.
    #[derive(Debug, Default)]
    struct Coverage {
        zero_weight_parts: usize,
        empty_parts: usize,
        unordered_members: usize,
        added_parts: usize,
        compactions: usize,
    }

    /// Gathers every vertex and every part slot through one scratch and
    /// compares each with the ordered-map references.
    fn check_all(st: &CutState, conn: &mut Connections, cov: &mut Coverage) {
        let part = st.partition();
        for v in st.graph().vertices() {
            let want = vertex_reference(st, v);
            conn.gather_vertex(st.graph(), part, v);
            assert_gathered(conn, &want, &format!("vertex {v}"));
            cov.zero_weight_parts += want.iter().filter(|&&(_, w)| w == 0.0).count();
        }
        for a in 0..part.num_parts() as u32 {
            let want = part_reference(st, a);
            conn.gather_part(st.graph(), part, a);
            assert_gathered(conn, &want, &format!("part {a}"));
            cov.empty_parts += usize::from(part.part_size(a) == 0);
            let members = part.part_members_unordered(a);
            cov.unordered_members += usize::from(!members.is_sorted());
        }
    }

    #[test]
    fn gathers_match_ordered_map_references() {
        let mut cov = Coverage::default();
        for seed in 1..=4 {
            let base = if seed % 2 == 0 {
                random_geometric(60, 0.25, seed)
            } else {
                planted_partition(4, 15, 0.5, 0.06, seed)
            };
            let g = graph(&base, seed);
            let n = g.num_vertices() as VertexId;
            let mut rng = ChaCha8Rng::seed_from_u64(seed + 100);
            let mut st = CutState::new(&g, Partition::random(&g, 5, seed));
            // One scratch across every round: part counts grow by
            // `add_part` and shrink and renumber by `compact` between
            // gathers.
            let mut conn = Connections::new();
            for round in 0..12 {
                for _ in 0..3 {
                    let fresh = st.add_part();
                    cov.added_parts += 1;
                    for _ in 0..rng.gen_range(0..4) {
                        st.move_vertex(rng.gen_range(0..n), fresh);
                    }
                }
                let parts = st.partition().num_parts() as u32;
                for _ in 0..40 {
                    st.move_vertex(rng.gen_range(0..n), rng.gen_range(0..parts));
                }
                check_all(&st, &mut conn, &mut cov);
                if round % 3 == 2 {
                    st.compact();
                    cov.compactions += 1;
                    check_all(&st, &mut conn, &mut cov);
                }
            }
        }
        assert!(cov.zero_weight_parts > 0, "{cov:?}");
        assert!(cov.empty_parts > 0, "{cov:?}");
        assert!(cov.unordered_members > 0, "{cov:?}");
        assert!(cov.added_parts > 0 && cov.compactions > 0, "{cov:?}");
    }

    #[test]
    fn zero_weight_neighbours_are_listed() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(1, 3, 0.0);
        let g = b.build();
        let p = Partition::from_assignment(&g, vec![0, 1, 2, 3], 4);
        let mut conn = Connections::with_parts(2);
        conn.gather_vertex(&g, &p, 0);
        assert_eq!(conn.iter().collect::<Vec<_>>(), vec![(1, 0.0), (2, 2.0)]);
        conn.gather_part(&g, &p, 1);
        assert_eq!(conn.iter().collect::<Vec<_>>(), vec![(0, 0.0), (3, 0.0)]);
        assert_eq!(conn.weight(2), 0.0, "cleared by the next gather");
        assert_eq!(conn.weight(9), 0.0, "beyond the slots");
    }
}
