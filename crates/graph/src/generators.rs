//! Deterministic seeded graph generators.
//!
//! Every generator takes an explicit `seed` (where randomness is involved)
//! and uses ChaCha8 so the same seed yields the same graph on every
//! platform. These families cover the topologies the partitioning
//! literature benchmarks on: meshes (grids), geometric graphs (the shape of
//! airspace sector graphs), scale-free graphs, and planted community
//! structure.

use crate::{Graph, GraphBuilder, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// `rows × cols` 4-neighbor grid mesh with unit edge weights.
pub fn grid2d(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let mut b = GraphBuilder::with_capacity(n, 2 * n);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), 1.0);
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), 1.0);
            }
        }
    }
    b.build()
}

/// Path graph `0 — 1 — … — n-1` with unit weights.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    for v in 1..n {
        b.add_edge((v - 1) as VertexId, v as VertexId, 1.0);
    }
    b.build()
}

/// Cycle graph on `n ≥ 3` vertices with unit weights.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 vertices");
    let mut b = GraphBuilder::with_capacity(n, n);
    for v in 0..n {
        b.add_edge(v as VertexId, ((v + 1) % n) as VertexId, 1.0);
    }
    b.build()
}

/// Complete graph `K_n` with unit weights.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            b.add_edge(u as VertexId, v as VertexId, 1.0);
        }
    }
    b.build()
}

/// Star graph: vertex 0 connected to `1..n`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1);
    let mut b = GraphBuilder::with_capacity(n, n - 1);
    for v in 1..n {
        b.add_edge(0, v as VertexId, 1.0);
    }
    b.build()
}

/// Random geometric graph: `n` uniform points in the unit square, edge
/// between points closer than `radius`, weight `1/(dist + 0.01)` so nearby
/// pairs couple strongly (mimicking flow density between close sectors).
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen(), rng.gen())).collect();
    let mut b = GraphBuilder::new(n);
    let r2 = radius * radius;
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            let d2 = dx * dx + dy * dy;
            if d2 < r2 {
                b.add_edge(u as VertexId, v as VertexId, 1.0 / (d2.sqrt() + 0.01));
            }
        }
    }
    b.build()
}

/// Planted-partition graph: `k` groups of `group_size` vertices; each
/// intra-group pair is an edge with probability `p_in` and weight
/// `w_in`, each inter-group pair with probability `p_out` and weight 1.0.
///
/// The planted optimum (each group a part) is known by construction, which
/// makes this family the workhorse of quality assertions in tests.
pub fn planted_partition(k: usize, group_size: usize, p_in: f64, p_out: f64, seed: u64) -> Graph {
    assert!(k >= 1 && group_size >= 1);
    assert!((0.0..=1.0).contains(&p_in) && (0.0..=1.0).contains(&p_out));
    let n = k * group_size;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let group = |v: usize| v / group_size;
    for u in 0..n {
        for v in (u + 1)..n {
            let (p, w) = if group(u) == group(v) {
                (p_in, 4.0)
            } else {
                (p_out, 1.0)
            };
            if rng.gen::<f64>() < p {
                b.add_edge(u as VertexId, v as VertexId, w);
            }
        }
    }
    // Guarantee connectivity of the planted structure: chain the groups and
    // ring each group, so degenerate RNG draws can't disconnect the graph.
    let mut b2 = b;
    for g in 0..k {
        let base = g * group_size;
        for i in 0..group_size.saturating_sub(1) {
            b2.add_edge((base + i) as VertexId, (base + i + 1) as VertexId, 4.0);
        }
        if g + 1 < k {
            b2.add_edge(
                (base + group_size - 1) as VertexId,
                (base + group_size) as VertexId,
                0.5,
            );
        }
    }
    b2.build()
}

/// Advances a Batagelj–Brandes geometric skip: the number of failures
/// before the next success of a Bernoulli(p) stream.
fn geometric_skip(rng: &mut ChaCha8Rng, p: f64) -> u64 {
    let u: f64 = rng.gen();
    let s = (1.0 - u).ln() / (1.0 - p).ln();
    if s >= u64::MAX as f64 {
        u64::MAX
    } else {
        s as u64
    }
}

/// Decodes linear pair index `idx` into the `(u, v)` pair (u < v) in the
/// lexicographic enumeration of unordered pairs over `n` vertices.
fn pair_at(n: u64, idx: u64) -> (u64, u64) {
    // offset(u) = pairs whose first coordinate is < u = u·(2n−u−1)/2.
    let (mut lo, mut hi) = (0u64, n - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if mid * (2 * n - mid - 1) / 2 <= idx {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let off = lo * (2 * n - lo - 1) / 2;
    (lo, lo + 1 + (idx - off))
}

/// Sparse planted-partition graph: same family as [`planted_partition`]
/// (k groups, intra edges weight 4.0 with probability `p_in`, inter edges
/// weight 1.0 with probability `p_out`, plus the connectivity chain and
/// bridges), but generated in O(edges) by Batagelj–Brandes geometric skip
/// sampling instead of O(n²) pair enumeration — usable at 10^5–10^6
/// vertices.
///
/// The RNG stream differs from the dense generator, so the two produce
/// different (equally valid) instances for the same seed. Deterministic in
/// `(k, group_size, p_in, p_out, seed)`.
pub fn planted_partition_sparse(
    k: usize,
    group_size: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> Graph {
    assert!(k >= 1 && group_size >= 1);
    assert!((0.0..1.0).contains(&p_in) && (0.0..1.0).contains(&p_out));
    let n = k * group_size;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let expected =
        (group_size * group_size * k) as f64 * p_in / 2.0 + (n * n) as f64 * p_out / 2.0 + n as f64;
    let mut b = GraphBuilder::with_capacity(n, expected as usize);
    let group = |v: u64| v / group_size as u64;
    // Intra-group edges: one skip stream per group over its own pair space.
    if p_in > 0.0 && group_size >= 2 {
        let s = group_size as u64;
        let total = s * (s - 1) / 2;
        for g in 0..k as u64 {
            let base = g * s;
            let mut idx = geometric_skip(&mut rng, p_in);
            while idx < total {
                let (u, v) = pair_at(s, idx);
                b.add_edge((base + u) as VertexId, (base + v) as VertexId, 4.0);
                idx += 1 + geometric_skip(&mut rng, p_in);
            }
        }
    }
    // Inter-group edges: one skip stream over the full pair space,
    // discarding intra-group hits (they were handled above at p_in).
    if p_out > 0.0 && k >= 2 {
        let total = (n as u64) * (n as u64 - 1) / 2;
        let mut idx = geometric_skip(&mut rng, p_out);
        while idx < total {
            let (u, v) = pair_at(n as u64, idx);
            if group(u) != group(v) {
                b.add_edge(u as VertexId, v as VertexId, 1.0);
            }
            idx += 1 + geometric_skip(&mut rng, p_out);
        }
    }
    // Same connectivity guarantee as the dense generator: chain each group
    // and bridge consecutive groups.
    for g in 0..k {
        let base = g * group_size;
        for i in 0..group_size.saturating_sub(1) {
            b.add_edge((base + i) as VertexId, (base + i + 1) as VertexId, 4.0);
        }
        if g + 1 < k {
            b.add_edge(
                (base + group_size - 1) as VertexId,
                (base + group_size) as VertexId,
                0.5,
            );
        }
    }
    b.build()
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m_attach` existing vertices with probability proportional to degree.
/// Produces the hub-dominated topology air-route networks resemble —
/// the stress case for balance-seeking partitioners.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Graph {
    assert!(m_attach >= 1, "need at least one attachment per vertex");
    assert!(n > m_attach, "need n > m_attach");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::with_capacity(n, n * m_attach);
    // Repeated-endpoint pool: sampling uniformly from it is sampling
    // proportionally to degree.
    let mut pool: Vec<VertexId> = Vec::with_capacity(2 * n * m_attach);
    // Seed clique of m_attach + 1 vertices.
    for u in 0..=m_attach {
        for v in (u + 1)..=m_attach {
            b.add_edge(u as VertexId, v as VertexId, 1.0);
            pool.push(u as VertexId);
            pool.push(v as VertexId);
        }
    }
    for v in (m_attach + 1)..n {
        let mut targets = std::collections::BTreeSet::new();
        while targets.len() < m_attach {
            let t = pool[rng.gen_range(0..pool.len())];
            targets.insert(t);
        }
        for &t in &targets {
            b.add_edge(v as VertexId, t, 1.0);
            pool.push(v as VertexId);
            pool.push(t);
        }
    }
    b.build()
}

/// A weighted "two communities + bridge" graph of 2·`half` vertices —
/// the smallest instance with an unambiguous best bisection, used in unit
/// tests across the suite.
pub fn two_cliques_bridge(half: usize, w_in: f64, w_bridge: f64) -> Graph {
    assert!(half >= 2);
    let n = 2 * half;
    let mut b = GraphBuilder::new(n);
    for u in 0..half {
        for v in (u + 1)..half {
            b.add_edge(u as VertexId, v as VertexId, w_in);
            b.add_edge((half + u) as VertexId, (half + v) as VertexId, w_in);
        }
    }
    b.add_edge((half - 1) as VertexId, half as VertexId, w_bridge);
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn grid_counts() {
        let g = grid2d(3, 4);
        assert_eq!(g.num_vertices(), 12);
        // horizontal: 3 rows × 3 = 9, vertical: 2 × 4 = 8
        assert_eq!(g.num_edges(), 17);
        assert!(is_connected(&g));
    }

    #[test]
    fn path_and_cycle() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(path(1).num_edges(), 0);
    }

    #[test]
    fn complete_counts() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.degree(0), 6);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn geometric_connected_at_reasonable_radius() {
        let g = random_geometric(200, 0.18, 42);
        assert!(is_connected(&g), "r=0.18 should connect 200 points");
        // weights decrease with distance
        for (_, _, w) in g.edges() {
            assert!(w > 1.0 / 0.2);
        }
    }

    #[test]
    fn planted_partition_structure() {
        let g = planted_partition(4, 10, 0.8, 0.05, 3);
        assert_eq!(g.num_vertices(), 40);
        assert!(is_connected(&g));
    }

    #[test]
    fn two_cliques_bridge_shape() {
        let g = two_cliques_bridge(4, 2.0, 0.5);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 2 * 6 + 1);
        assert_eq!(g.edge_weight(3, 4), Some(0.5));
    }

    #[test]
    fn barabasi_albert_hub_structure() {
        let g = barabasi_albert(200, 3, 5);
        assert_eq!(g.num_vertices(), 200);
        assert!(is_connected(&g));
        // heavy-tailed degrees: max degree far above the mean
        assert!(
            g.max_degree() as f64 > 3.0 * g.mean_degree(),
            "max {} vs mean {}",
            g.max_degree(),
            g.mean_degree()
        );
    }

    #[test]
    fn barabasi_albert_deterministic() {
        let a = barabasi_albert(80, 2, 9);
        let b = barabasi_albert(80, 2, 9);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn pair_at_decodes_lexicographic_enumeration() {
        let n = 7u64;
        let mut idx = 0u64;
        for u in 0..n {
            for v in (u + 1)..n {
                assert_eq!(pair_at(n, idx), (u, v));
                idx += 1;
            }
        }
    }

    #[test]
    fn sparse_planted_partition_structure() {
        let g = planted_partition_sparse(5, 200, 0.05, 0.001, 7);
        assert_eq!(g.num_vertices(), 1000);
        assert!(is_connected(&g));
        // Expected intra ≈ 5·C(200,2)·0.05 ≈ 4975 plus 995 chain edges;
        // inter ≈ C(1000,2)·0.001·(1 − 1/5) ≈ 399 plus 4 bridges.
        let (mut intra, mut inter) = (0usize, 0usize);
        for (u, v, _) in g.edges() {
            if u as usize / 200 == v as usize / 200 {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!((4500..7000).contains(&intra), "intra {intra}");
        assert!((250..600).contains(&inter), "inter {inter}");
    }

    #[test]
    fn sparse_planted_partition_deterministic() {
        let a = planted_partition_sparse(4, 100, 0.08, 0.002, 3);
        let b = planted_partition_sparse(4, 100, 0.08, 0.002, 3);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn sparse_planted_partition_zero_probabilities() {
        // Only the connectivity skeleton: chains + bridges.
        let g = planted_partition_sparse(3, 10, 0.0, 0.0, 1);
        assert_eq!(g.num_vertices(), 30);
        assert_eq!(g.num_edges(), 3 * 9 + 2);
        assert!(is_connected(&g));
    }
}
