//! Spectral quadrisection and octasection.
//!
//! §2.1 of the paper: "To simultaneously cut the graph into 2ⁿ sets, we can
//! use the n top eigenvectors in the Fiedler order … The first eigenvector
//! gives a bisection, the second a quadrisection, the third an octasection."
//!
//! Following Hendrickson–Leland's multidimensional scheme in spirit, each
//! section step uses up to three non-trivial eigenvectors as coordinates
//! and splits hierarchically at weighted quantiles: u₂ divides the set in
//! two, u₃ divides each half, u₄ divides each quarter. Quantile (rather
//! than sign) thresholds keep the eight cells weight-balanced. Steps recurse
//! until `k` parts exist, so any `k` with more than 8 parts is handled by
//! recursion (32 = 8 × 4, as in the paper's experiments).

use crate::bisect::{RefineMethod, SpectralConfig};
use crate::fiedler::smallest_nontrivial_eigenvectors;
use ff_graph::{induced_subgraph, Graph, VertexId};
use ff_partition::refine::pairwise::{pairwise_refine_kway, PairwiseMethod, PairwiseOptions};
use ff_partition::{CutState, Partition};

/// Spectral section with up-to-8-way steps (the paper's `Oct` rows).
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds the vertex count.
pub fn spectral_section(g: &Graph, k: usize, cfg: &SpectralConfig) -> Partition {
    assert!(k >= 1, "k must be positive");
    assert!(k <= g.num_vertices().max(1), "more parts than vertices");
    let n = g.num_vertices();
    let mut assignment = vec![0u32; n];
    let members: Vec<VertexId> = g.vertices().collect();
    section_recursive(g, &members, k, 0, cfg, &mut assignment);
    Partition::from_assignment(g, assignment, k)
}

fn section_recursive(
    g: &Graph,
    members: &[VertexId],
    k: usize,
    base: u32,
    cfg: &SpectralConfig,
    assignment: &mut [u32],
) {
    if k <= 1 || members.len() <= 1 {
        for &v in members {
            assignment[v as usize] = base;
        }
        return;
    }
    // Arity of this step: 8, 4, or 2 — bounded by k and by subgraph size.
    let arity: usize = if k >= 8 && members.len() >= 8 {
        8
    } else if k >= 4 && members.len() >= 4 {
        4
    } else {
        2
    };
    let depth = arity.trailing_zeros() as usize; // 3, 2, 1 eigenvectors

    // Distribute k over `arity` cells as evenly as possible.
    let kq = k / arity;
    let kr = k % arity;
    let child_k: Vec<usize> = (0..arity).map(|i| kq + usize::from(i < kr)).collect();

    let sub = induced_subgraph(g, members);
    let m = members.len();
    let evecs = if sub.graph.num_edges() == 0 {
        // Degenerate subgraph: fall back to index coordinates.
        (0..depth)
            .map(|_| (0..m).map(|i| i as f64).collect::<Vec<f64>>())
            .collect::<Vec<_>>()
    } else {
        smallest_nontrivial_eigenvectors(&sub.graph, depth.min(m - 1), cfg.solver, cfg.seed)
    };

    // Hierarchical quantile split: cell id built bit by bit.
    let mut cell = vec![0u32; m];
    for (bit, coord) in evecs.iter().enumerate() {
        // For each existing cell prefix, split its members by this
        // eigenvector at the weight fraction implied by child_k.
        let prefixes: Vec<u32> = (0..(1u32 << bit)).collect();
        for prefix in prefixes {
            let group: Vec<u32> = (0..m as u32)
                .filter(|&v| cell[v as usize] == prefix)
                .collect();
            if group.is_empty() {
                continue;
            }
            // Weight fraction for the 0-branch of this prefix at this bit:
            // sum child_k of cells whose id extends prefix with bit 0.
            let (k0, k1) = branch_k(&child_k, prefix, bit, depth);
            if k0 == 0 {
                for &v in &group {
                    cell[v as usize] |= 1 << bit;
                }
                continue;
            }
            if k1 == 0 {
                continue; // all stay in 0-branch
            }
            let frac = k0 as f64 / (k0 + k1) as f64;
            let mut order = group.clone();
            order.sort_by(|&a, &b| {
                coord[a as usize]
                    .partial_cmp(&coord[b as usize])
                    .unwrap()
                    .then(a.cmp(&b))
            });
            let total_w: f64 = group.iter().map(|&v| sub.graph.vertex_weight(v)).sum();
            let target = total_w * frac;
            let mut acc = 0.0;
            let min_zero = k0.min(group.len());
            let max_zero = group.len().saturating_sub(k1);
            let mut zeros = 0usize;
            for (rank, &v) in order.iter().enumerate() {
                let take = (acc < target || zeros < min_zero) && zeros < max_zero.max(min_zero);
                if take && rank < group.len() {
                    acc += sub.graph.vertex_weight(v);
                    zeros += 1;
                } else {
                    cell[v as usize] |= 1 << bit;
                }
            }
        }
    }

    // Optional pairwise KL refinement of the cells on the subgraph. KL
    // swaps vertex pairs, so every cell keeps its size, and with it the
    // capacity for its parts, without a balance band.
    let live_cells = 1usize << depth;
    if cfg.refine == RefineMethod::Kl && live_cells > 1 {
        let p = Partition::from_assignment(&sub.graph, cell, live_cells);
        let mut st = CutState::new(&sub.graph, p);
        let opts = PairwiseOptions {
            method: PairwiseMethod::Kl,
            max_rounds: 2,
            ..Default::default()
        };
        pairwise_refine_kway(&mut st, &opts);
        cell = st.into_partition().assignment().to_vec();
    }

    // Recurse into cells.
    let mut next_base = base;
    for c in 0..live_cells as u32 {
        let kc = child_k[c as usize];
        let group: Vec<VertexId> = (0..m)
            .filter(|&i| cell[i] == c)
            .map(|i| sub.to_parent[i])
            .collect();
        if kc == 0 {
            // Shouldn't happen with balanced child_k, but place safely.
            for &v in &group {
                assignment[v as usize] = base;
            }
            continue;
        }
        section_recursive(g, &group, kc, next_base, cfg, assignment);
        next_base += kc as u32;
    }
}

/// `(k_zero, k_one)`: how many final parts land in the 0/1 branches of
/// `prefix` at `bit`, given per-cell part counts `child_k`.
fn branch_k(child_k: &[usize], prefix: u32, bit: usize, depth: usize) -> (usize, usize) {
    let mut k0 = 0;
    let mut k1 = 0;
    for (cell, &kc) in child_k.iter().enumerate() {
        let cell = cell as u32;
        // Cells whose low `bit` bits equal prefix belong to this group.
        if bit > 0 && (cell & ((1 << bit) - 1)) != prefix {
            continue;
        }
        if bit == 0 || depth >= bit {
            if (cell >> bit) & 1 == 0 {
                k0 += kc;
            } else {
                k1 += kc;
            }
        }
    }
    (k0, k1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SectionMode;
    use ff_graph::generators::{grid2d, planted_partition};
    use ff_partition::{imbalance, Objective};

    fn octa_cfg() -> SpectralConfig {
        SpectralConfig {
            mode: SectionMode::Octasection,
            ..Default::default()
        }
    }

    #[test]
    fn octasection_eight_parts() {
        let g = grid2d(8, 8);
        let p = spectral_section(&g, 8, &octa_cfg());
        assert_eq!(p.num_nonempty_parts(), 8);
        assert!(imbalance(&p) < 0.30, "imbalance {}", imbalance(&p));
    }

    #[test]
    fn quadrisection_four_parts() {
        let g = grid2d(10, 10);
        let p = spectral_section(&g, 4, &octa_cfg());
        assert_eq!(p.num_nonempty_parts(), 4);
        assert!(imbalance(&p) < 0.25);
    }

    #[test]
    fn thirty_two_parts_two_levels() {
        let g = grid2d(16, 16);
        let p = spectral_section(&g, 32, &octa_cfg());
        assert_eq!(p.num_nonempty_parts(), 32);
        assert!(imbalance(&p) < 0.5, "imbalance {}", imbalance(&p));
    }

    #[test]
    fn non_power_of_two_k() {
        let g = grid2d(9, 9);
        for k in [3usize, 6, 12] {
            let p = spectral_section(&g, k, &octa_cfg());
            assert_eq!(p.num_nonempty_parts(), k, "k = {k}");
        }
    }

    #[test]
    fn refinement_improves_or_equals() {
        let g = planted_partition(8, 8, 0.85, 0.04, 31);
        let plain = spectral_section(&g, 8, &octa_cfg());
        let refined = spectral_section(
            &g,
            8,
            &SpectralConfig {
                refine: RefineMethod::Kl,
                ..octa_cfg()
            },
        );
        let c0 = Objective::Cut.evaluate(&g, &plain);
        let c1 = Objective::Cut.evaluate(&g, &refined);
        assert!(c1 <= c0 + 1e-9, "KL worsened octasection: {c0} → {c1}");
    }

    #[test]
    fn two_parts_degenerates_to_bisection() {
        let g = grid2d(6, 6);
        let p = spectral_section(&g, 2, &octa_cfg());
        assert_eq!(p.num_nonempty_parts(), 2);
    }
}
