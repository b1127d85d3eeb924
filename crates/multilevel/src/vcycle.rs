//! The multilevel V-cycle: coarsen → initial partition → refined
//! uncoarsening.

use crate::{MultilevelConfig, Vcycle, VcycleOpts};
use ff_graph::{Graph, VertexId};
use ff_partition::refine::fm::FmOptions;
use ff_partition::refine::greedy::GreedyOptions;
use ff_partition::refine::pairwise::{pairwise_refine_kway, PairwiseMethod, PairwiseOptions};
use ff_partition::{
    fm_refine_bisection, greedy_refine_kway, BalanceConstraint, CutState, Objective, Partition,
};
use ff_spectral::{spectral_partition, RefineMethod, SectionMode, SpectralConfig};

/// Coarsening stops at this many vertices (or when a level shrinks
/// < 10 %); the k-way driver raises it to `3k`.
const COARSEN_UNTIL: usize = 48;

/// Relative balance tolerance of the refiners: ±5 % for bisections,
/// three times that for direct k-way.
const BALANCE_EPS: f64 = 0.05;

/// Multilevel bisection of `g` (the Table 1 `Multilevel (Bi)` building
/// block): coarsen, bisect the coarsest graph spectrally (Lanczos + KL),
/// uncoarsen with FM refinement at every level.
pub fn multilevel_bisection(g: &Graph, cfg: &MultilevelConfig) -> Partition {
    assert!(g.num_vertices() >= 2, "bisection needs ≥ 2 vertices");
    let vc = vcycle(g, COARSEN_UNTIL, cfg.seed);
    let scfg = SpectralConfig {
        refine: RefineMethod::Kl,
        seed: cfg.seed,
        ..Default::default()
    };
    let part = spectral_partition(vc.coarsest(), 2, &scfg);
    let (part, _) = vc.uncoarsen(part, 2, Objective::Cut, |_, st| {
        let ideal = st.graph().total_vertex_weight() / 2.0;
        let balance = BalanceConstraint {
            lo: ideal * (1.0 - BALANCE_EPS),
            hi: ideal * (1.0 + BALANCE_EPS),
        };
        let opts = FmOptions {
            balance,
            ..Default::default()
        };
        fm_refine_bisection(st, 0, 1, &opts);
        0 // FM counts gain, not moves; this driver drops the reports.
    });
    part
}

/// The V-cycle of one Table 1 driver: its coarsening stack, untrimmed.
fn vcycle(g: &Graph, coarsen_until: usize, seed: u64) -> Vcycle<'_> {
    let opts = VcycleOpts {
        coarsen_until,
        seed,
        min_coarse_vertices: 0,
        ..Default::default()
    };
    Vcycle::new(g, opts)
}

/// Recursive multilevel bisection to `k` parts (`Multilevel (Bi)`).
pub fn multilevel_recursive_bisection(g: &Graph, k: usize, cfg: &MultilevelConfig) -> Partition {
    let n = g.num_vertices();
    let mut assignment = vec![0u32; n];
    let members: Vec<VertexId> = g.vertices().collect();
    recurse_bisect(g, &members, k, 0, cfg, &mut assignment);
    Partition::from_assignment(g, assignment, k)
}

fn recurse_bisect(
    g: &Graph,
    members: &[VertexId],
    k: usize,
    base: u32,
    cfg: &MultilevelConfig,
    assignment: &mut [u32],
) {
    if k <= 1 || members.len() <= 1 {
        for &v in members {
            assignment[v as usize] = base;
        }
        return;
    }
    let sub = ff_graph::induced_subgraph(g, members);
    let k_left = k / 2;
    let k_right = k - k_left;

    let side: Vec<u32> = if sub.graph.num_vertices() >= 2 && sub.graph.num_edges() > 0 {
        let p = multilevel_bisection(&sub.graph, cfg);
        (0..members.len())
            .map(|i| p.part_of(i as VertexId))
            .collect()
    } else {
        // Edgeless fragment: alternate.
        (0..members.len()).map(|i| (i % 2) as u32).collect()
    };
    // Guarantee each side can host its parts.
    let mut side = side;
    let zeros = side.iter().filter(|&&s| s == 0).count();
    let ones = side.len() - zeros;
    if zeros < k_left || ones < k_right {
        for (i, s) in side.iter_mut().enumerate() {
            *s = if i * k < members.len() * k_left { 0 } else { 1 };
        }
    }
    let left: Vec<VertexId> = members
        .iter()
        .zip(&side)
        .filter(|&(_, &s)| s == 0)
        .map(|(&v, _)| v)
        .collect();
    let right: Vec<VertexId> = members
        .iter()
        .zip(&side)
        .filter(|&(_, &s)| s == 1)
        .map(|(&v, _)| v)
        .collect();
    recurse_bisect(g, &left, k_left, base, cfg, assignment);
    recurse_bisect(g, &right, k_right, base + k_left as u32, cfg, assignment);
}

/// Direct k-way multilevel V-cycle (`Multilevel (Oct)`): one hierarchy,
/// coarsest graph partitioned into all `k` parts at once by spectral
/// octasection with KL, greedy k-way + pairwise FM refinement during
/// uncoarsening.
pub fn multilevel_kway(g: &Graph, k: usize, cfg: &MultilevelConfig) -> Partition {
    let vc = vcycle(g, COARSEN_UNTIL.max(3 * k), cfg.seed);
    let coarsest = vc.coarsest();
    let k_eff = k.min(coarsest.num_vertices());
    let scfg = SpectralConfig {
        mode: SectionMode::Octasection,
        refine: RefineMethod::Kl,
        seed: cfg.seed,
        ..Default::default()
    };
    let part = spectral_partition(coarsest, k_eff, &scfg);
    let balance = |total: f64| {
        let ideal = total / k_eff as f64;
        BalanceConstraint {
            lo: ideal * (1.0 - 3.0 * BALANCE_EPS),
            hi: ideal * (1.0 + 3.0 * BALANCE_EPS),
        }
    };
    let (part, _) = vc.uncoarsen(part, k_eff, Objective::Cut, |_, st| {
        let opts = GreedyOptions {
            max_passes: 6,
            balance: balance(st.graph().total_vertex_weight()),
            seed: cfg.seed,
            keep_parts_nonempty: true,
        };
        greedy_refine_kway(st, Objective::Cut, &opts)
    });
    // Final pairwise polish on the full graph.
    let mut st = CutState::new(g, part);
    pairwise_refine_kway(
        &mut st,
        &PairwiseOptions {
            method: PairwiseMethod::Fm,
            max_rounds: 2,
            balance: balance(g.total_vertex_weight()),
        },
    );
    st.into_partition()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{multilevel_partition, MultilevelMode};
    use ff_graph::generators::{grid2d, planted_partition, random_geometric, two_cliques_bridge};
    use ff_graph::Hierarchy;
    use ff_partition::imbalance;

    #[test]
    fn bisection_finds_bridge() {
        let g = two_cliques_bridge(20, 2.0, 0.3);
        let p = multilevel_bisection(&g, &MultilevelConfig::default());
        let cut = Objective::Cut.evaluate(&g, &p);
        assert!((cut - 0.3).abs() < 1e-9, "cut = {cut}");
    }

    #[test]
    fn bisection_on_grid_near_optimal() {
        let g = grid2d(16, 16);
        let p = multilevel_bisection(&g, &MultilevelConfig::default());
        let cut = Objective::Cut.evaluate(&g, &p);
        // Optimal straight cut is 16; allow modest slack.
        assert!(cut <= 24.0, "cut = {cut}");
        assert!(imbalance(&p) < 0.10);
    }

    #[test]
    fn recursive_bisection_k_parts() {
        let g = random_geometric(200, 0.14, 4);
        for k in [2usize, 4, 7] {
            let p = multilevel_partition(&g, k, &MultilevelConfig::default());
            assert_eq!(p.num_nonempty_parts(), k, "k = {k}");
        }
    }

    #[test]
    fn kway_mode_works() {
        let g = random_geometric(300, 0.12, 8);
        let p = multilevel_partition(
            &g,
            8,
            &MultilevelConfig {
                mode: MultilevelMode::KWay,
                ..Default::default()
            },
        );
        assert_eq!(p.num_nonempty_parts(), 8);
    }

    #[test]
    fn recovers_planted_communities() {
        let g = planted_partition(4, 25, 0.5, 0.01, 13);
        let p = multilevel_partition(&g, 4, &MultilevelConfig::default());
        // Planted cut: only inter-community edges. Internal heavy edges
        // must not be cut: check the cut is much smaller than the total.
        let cut = Objective::Cut.evaluate(&g, &p);
        assert!(
            cut < 0.12 * g.total_edge_weight(),
            "cut {cut} vs total {}",
            g.total_edge_weight()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let g = random_geometric(120, 0.16, 5);
        let cfg = MultilevelConfig {
            seed: 77,
            ..Default::default()
        };
        let a = multilevel_partition(&g, 4, &cfg);
        let b = multilevel_partition(&g, 4, &cfg);
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn hierarchy_respects_floor() {
        let g = grid2d(20, 20);
        let h = Hierarchy::build(&g, 50, 1);
        assert!(h.coarsest(&g).num_vertices() <= 400);
        assert!(h.num_levels() >= 1, "400-vertex grid must coarsen");
        // weights preserved through every level
        for lvl in h.levels() {
            assert!((lvl.graph.total_vertex_weight() - 400.0).abs() < 1e-9);
        }
    }

    #[test]
    fn small_graph_skips_coarsening() {
        let g = grid2d(3, 3);
        let p = multilevel_bisection(&g, &MultilevelConfig::default());
        assert_eq!(p.num_nonempty_parts(), 2);
    }
}
