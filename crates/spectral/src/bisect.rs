//! Recursive bisection drivers (spectral and generic).
//!
//! A *bisection step* sorts vertices along a one-dimensional coordinate
//! (the Fiedler vector for the spectral method, the vertex index for the
//! Linear baseline), splits at the weighted quantile matching the target
//! part ratio, optionally refines the two sides with KL, and recurses.
//! Unlike textbook recursive bisection this driver supports any `k`, not
//! just powers of two, by splitting `k` into `⌊k/2⌋ + ⌈k/2⌉` and cutting
//! at the proportional weight fraction.

use crate::fiedler::{fiedler_vector, SpectralSolver};
use crate::octa::spectral_section;
use crate::SectionMode;
use ff_graph::{induced_subgraph, Graph, VertexId};
use ff_partition::refine::kl::KlOptions;
use ff_partition::{kl_refine_bisection, CutState, Partition};

/// Optional local refinement applied after each division step — the
/// presence/absence of `KL` in Table 1's method names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefineMethod {
    /// No refinement.
    None,
    /// Kernighan–Lin pair swaps.
    Kl,
}

/// Configuration for [`spectral_partition`].
#[derive(Clone, Copy, Debug)]
pub struct SpectralConfig {
    /// Fiedler solver (Lanczos or RQI/SYMMLQ).
    pub solver: SpectralSolver,
    /// Bisection or octasection steps.
    pub mode: SectionMode,
    /// Per-step local refinement.
    pub refine: RefineMethod,
    /// Seed for the eigensolver start vectors.
    pub seed: u64,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig {
            solver: SpectralSolver::Lanczos,
            mode: SectionMode::Bisection,
            refine: RefineMethod::None,
            seed: 1,
        }
    }
}

/// Spectral k-way partitioning per the configured mode.
///
/// # Panics
///
/// Panics if `k` is 0 or exceeds the vertex count.
pub fn spectral_partition(g: &Graph, k: usize, cfg: &SpectralConfig) -> Partition {
    assert!(k >= 1, "k must be positive");
    assert!(
        k <= g.num_vertices().max(1),
        "cannot make {k} non-empty parts from {} vertices",
        g.num_vertices()
    );
    match cfg.mode {
        SectionMode::Bisection => {
            let solver = cfg.solver;
            let seed = cfg.seed;
            recursive_bisection(g, k, cfg.refine, &mut move |sub: &Graph, _: &[VertexId]| {
                fiedler_vector(sub, solver, seed)
            })
        }
        SectionMode::Octasection => spectral_section(g, k, cfg),
    }
}

/// Generic recursive bisection along caller-supplied coordinates.
///
/// `value_fn(sub, to_parent)` returns one coordinate per subgraph vertex;
/// the split point is the weighted quantile at the target part ratio.
pub fn recursive_bisection<F>(
    g: &Graph,
    k: usize,
    refine: RefineMethod,
    value_fn: &mut F,
) -> Partition
where
    F: FnMut(&Graph, &[VertexId]) -> Vec<f64>,
{
    let mut assignment = vec![0u32; g.num_vertices()];
    let all: Vec<VertexId> = g.vertices().collect();
    split_recursive(g, &all, k, 0, refine, value_fn, &mut assignment);
    Partition::from_assignment(g, assignment, k)
}

/// Recursively assigns parts `base..base+k` to `members` (parent ids).
fn split_recursive<F>(
    g: &Graph,
    members: &[VertexId],
    k: usize,
    base: u32,
    refine: RefineMethod,
    value_fn: &mut F,
    assignment: &mut [u32],
) where
    F: FnMut(&Graph, &[VertexId]) -> Vec<f64>,
{
    if k <= 1 || members.len() <= 1 {
        for &v in members {
            assignment[v as usize] = base;
        }
        return;
    }
    let sub = induced_subgraph(g, members);
    let k_left = k / 2;
    let k_right = k - k_left;
    let frac = k_left as f64 / k as f64;

    // Coordinate sort and weighted-quantile split.
    let coords = value_fn(&sub.graph, &sub.to_parent);
    assert_eq!(coords.len(), members.len(), "value_fn length mismatch");
    let mut order: Vec<u32> = (0..members.len() as u32).collect();
    order.sort_by(|&a, &b| {
        coords[a as usize]
            .partial_cmp(&coords[b as usize])
            .unwrap()
            .then(a.cmp(&b))
    });
    let total_w: f64 = (0..members.len() as u32)
        .map(|v| sub.graph.vertex_weight(v))
        .sum();
    let target = total_w * frac;
    let mut local_side = vec![1u32; members.len()];
    let mut acc = 0.0;
    let mut left_count = 0usize;
    for &v in &order {
        if (acc < target && left_count < members.len() - k_right) || left_count < k_left.min(1) {
            local_side[v as usize] = 0;
            acc += sub.graph.vertex_weight(v);
            left_count += 1;
        } else {
            break;
        }
    }
    // Ensure both sides can host their k parts.
    let mut right_count = members.len() - left_count;
    if left_count < k_left || right_count < k_right {
        // Fall back to a count-proportional split.
        local_side.iter_mut().for_each(|s| *s = 1);
        left_count = (members.len() * k_left / k).clamp(k_left, members.len() - k_right);
        for &v in order.iter().take(left_count) {
            local_side[v as usize] = 0;
        }
        right_count = members.len() - left_count;
    }
    debug_assert!(left_count >= k_left && right_count >= k_right);

    // Optional KL refinement of the 2-way split on the subgraph. KL swaps
    // vertex pairs, so both sides keep their sizes and their capacity.
    if refine == RefineMethod::Kl {
        let p = Partition::from_assignment(&sub.graph, local_side, 2);
        let mut st = CutState::new(&sub.graph, p);
        kl_refine_bisection(&mut st, 0, 1, &KlOptions::default());
        local_side = st.into_partition().assignment().to_vec();
    }

    let left: Vec<VertexId> = members
        .iter()
        .enumerate()
        .filter(|&(i, _)| local_side[i] == 0)
        .map(|(_, &v)| v)
        .collect();
    let right: Vec<VertexId> = members
        .iter()
        .enumerate()
        .filter(|&(i, _)| local_side[i] == 1)
        .map(|(_, &v)| v)
        .collect();

    split_recursive(g, &left, k_left, base, refine, value_fn, assignment);
    split_recursive(
        g,
        &right,
        k_right,
        base + k_left as u32,
        refine,
        value_fn,
        assignment,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{grid2d, planted_partition, two_cliques_bridge};
    use ff_partition::{imbalance, Objective};

    #[test]
    fn bisects_two_cliques_cleanly() {
        let g = two_cliques_bridge(8, 2.0, 0.2);
        let p = spectral_partition(&g, 2, &SpectralConfig::default());
        assert_eq!(p.num_nonempty_parts(), 2);
        let cut = Objective::Cut.evaluate(&g, &p);
        assert!((cut - 0.2).abs() < 1e-9, "cut = {cut}");
    }

    #[test]
    fn recursive_power_of_two() {
        let g = grid2d(8, 8);
        let p = spectral_partition(&g, 4, &SpectralConfig::default());
        assert_eq!(p.num_nonempty_parts(), 4);
        assert!(imbalance(&p) < 0.20, "imbalance {}", imbalance(&p));
    }

    #[test]
    fn arbitrary_k_supported() {
        let g = grid2d(9, 7);
        for k in [3usize, 5, 6, 7] {
            let p = spectral_partition(&g, k, &SpectralConfig::default());
            assert_eq!(p.num_nonempty_parts(), k, "k = {k}");
        }
    }

    #[test]
    fn kl_refinement_does_not_hurt() {
        let g = planted_partition(4, 12, 0.8, 0.03, 17);
        let base = spectral_partition(&g, 4, &SpectralConfig::default());
        let refined = spectral_partition(
            &g,
            4,
            &SpectralConfig {
                refine: RefineMethod::Kl,
                ..Default::default()
            },
        );
        let c0 = Objective::Cut.evaluate(&g, &base);
        let c1 = Objective::Cut.evaluate(&g, &refined);
        assert!(c1 <= c0 + 1e-9, "KL made it worse: {c0} → {c1}");
    }

    #[test]
    fn rqi_solver_also_works() {
        let g = two_cliques_bridge(6, 2.0, 0.3);
        let p = spectral_partition(
            &g,
            2,
            &SpectralConfig {
                solver: SpectralSolver::Rqi,
                ..Default::default()
            },
        );
        let cut = Objective::Cut.evaluate(&g, &p);
        assert!((cut - 0.3).abs() < 1e-9, "cut = {cut}");
    }

    #[test]
    fn k_equals_one() {
        let g = grid2d(3, 3);
        let p = spectral_partition(&g, 1, &SpectralConfig::default());
        assert_eq!(p.num_nonempty_parts(), 1);
        assert_eq!(Objective::Cut.evaluate(&g, &p), 0.0);
    }

    #[test]
    fn k_equals_n() {
        let g = grid2d(2, 3);
        let p = spectral_partition(&g, 6, &SpectralConfig::default());
        assert_eq!(p.num_nonempty_parts(), 6);
    }
}
