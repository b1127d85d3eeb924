//! The FABOP instance builder.

use crate::airspace::{layout, proximity_edges, Layout};
use crate::countries::{all_hubs, COUNTRIES};
use crate::flows::flow_weights;
use crate::{PAPER_FLOWS, PAPER_SECTORS};
use ff_graph::{Graph, GraphBuilder};

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct FabopConfig {
    /// RNG seed (the default instance uses 2006, the paper's year).
    pub seed: u64,
    /// Trunk-route traffic scale.
    pub trunk_scale: f64,
    /// Weight sectors by controller workload (their total handled flow)
    /// instead of unit weights. The paper's objectives ignore vertex
    /// weights, so this is off by default; balance-constrained refiners
    /// use it to equalize *workload* per block rather than sector count.
    pub workload_weights: bool,
}

impl Default for FabopConfig {
    fn default() -> Self {
        FabopConfig {
            seed: 2006,
            // 0.7 keeps the default instance's flow tail trunk-dominated
            // (p99 ≳ 8× median, the crate's documented structural target)
            // under the vendored ChaCha stream; re-check that margin if
            // the RNG backend or default seed ever changes.
            trunk_scale: 0.7,
            workload_weights: false,
        }
    }
}

/// A synthetic "country core area" instance: the sector graph plus the
/// geometric metadata it was generated from.
#[derive(Clone, Debug)]
pub struct FabopInstance {
    /// The weighted sector-flow graph (vertices = sectors, edge weights =
    /// aircraft flows).
    pub graph: Graph,
    /// Sector positions on the 10×10 map.
    pub positions: Vec<(f64, f64)>,
    /// Country index per sector (into [`crate::COUNTRIES`]).
    pub country_of: Vec<u16>,
}

impl FabopInstance {
    /// The paper-scale instance: exactly 762 sectors and 3,165 flows.
    pub fn paper_scale(cfg: &FabopConfig) -> Self {
        Self::build(PAPER_SECTORS, PAPER_FLOWS, cfg)
    }

    /// A scaled instance with `sectors` vertices and the paper's edge
    /// density (m ≈ 4.153·n). Sector counts per country are scaled
    /// proportionally (largest-remainder rounding).
    pub fn scaled(sectors: usize, cfg: &FabopConfig) -> Self {
        assert!(sectors >= 22, "need ≥ 2 sectors per country");
        let edges =
            ((sectors as f64) * (PAPER_FLOWS as f64) / (PAPER_SECTORS as f64)).round() as usize;
        Self::build(sectors, edges, cfg)
    }

    fn build(sectors: usize, edges: usize, cfg: &FabopConfig) -> Self {
        // Scale per-country sector counts by largest remainder.
        let mut countries = COUNTRIES.to_vec();
        if sectors != PAPER_SECTORS {
            let total = PAPER_SECTORS as f64;
            let mut floor_sum = 0usize;
            let mut shares: Vec<(usize, f64)> = countries
                .iter()
                .map(|c| {
                    let exact = c.sectors as f64 * sectors as f64 / total;
                    let fl = exact.floor() as usize;
                    floor_sum += fl.max(2);
                    (fl.max(2), exact - exact.floor())
                })
                .collect();
            // Below 44 sectors the floor of 2 per country can exceed the
            // request: take the surplus back one sector at a time from the
            // largest country above 2 (ties to the first).
            while floor_sum > sectors {
                let Some(i) = (0..shares.len())
                    .filter(|&i| shares[i].0 > 2)
                    .max_by_key(|&i| (shares[i].0, std::cmp::Reverse(i)))
                else {
                    break;
                };
                shares[i].0 -= 1;
                floor_sum -= 1;
            }
            let mut remainder = sectors.saturating_sub(floor_sum);
            let mut order: Vec<usize> = (0..shares.len()).collect();
            order.sort_by(|&a, &b| shares[b].1.partial_cmp(&shares[a].1).unwrap());
            for &i in order.iter().cycle().take(remainder.min(1_000_000)) {
                shares[i].0 += 1;
                remainder -= 1;
                if remainder == 0 {
                    break;
                }
            }
            for (c, (count, _)) in countries.iter_mut().zip(&shares) {
                c.sectors = *count;
            }
        }

        let Layout {
            positions,
            country_of,
        } = layout(&countries, cfg.seed);
        let edge_list = proximity_edges(&positions, edges);
        let weights = flow_weights(&positions, &edge_list, &all_hubs(), cfg.trunk_scale);

        let mut b = GraphBuilder::with_capacity(positions.len(), edge_list.len());
        for (&(u, v, _), &w) in edge_list.iter().zip(&weights) {
            b.add_edge(u, v, w);
        }
        if cfg.workload_weights {
            // Controller workload ≈ total flow the sector handles.
            let mut load = vec![0.0f64; positions.len()];
            for (&(u, v, _), &w) in edge_list.iter().zip(&weights) {
                load[u as usize] += w;
                load[v as usize] += w;
            }
            for (v, &l) in load.iter().enumerate() {
                b.set_vertex_weight(v as u32, l.max(1.0));
            }
        }
        FabopInstance {
            graph: b.build(),
            positions,
            country_of,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::traversal::is_connected;

    #[test]
    fn paper_scale_counts() {
        let inst = FabopInstance::paper_scale(&FabopConfig::default());
        assert_eq!(inst.graph.num_vertices(), 762);
        assert_eq!(inst.graph.num_edges(), 3165);
        assert!(is_connected(&inst.graph));
    }

    #[test]
    fn paper_scale_degree_shape() {
        let inst = FabopInstance::paper_scale(&FabopConfig::default());
        let mean = inst.graph.mean_degree();
        assert!(
            (mean - 8.31).abs() < 0.1,
            "mean degree {mean}, paper has 2·3165/762 ≈ 8.31"
        );
        assert!(inst.graph.max_degree() < 60, "no absurd super-hubs");
    }

    #[test]
    fn flows_heavy_tailed() {
        let inst = FabopInstance::paper_scale(&FabopConfig::default());
        let mut ws: Vec<f64> = inst.graph.edges().map(|(_, _, w)| w).collect();
        ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ws[ws.len() / 2];
        let p99 = ws[ws.len() * 99 / 100];
        assert!(
            p99 > 8.0 * median,
            "trunk routes must dominate: median {median}, p99 {p99}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = FabopInstance::paper_scale(&FabopConfig::default());
        let b = FabopInstance::paper_scale(&FabopConfig::default());
        let ea: Vec<_> = a.graph.edges().collect();
        let eb: Vec<_> = b.graph.edges().collect();
        assert_eq!(ea, eb);
        let c = FabopInstance::paper_scale(&FabopConfig {
            seed: 7,
            ..Default::default()
        });
        let ec: Vec<_> = c.graph.edges().collect();
        assert_ne!(ea, ec);
    }

    #[test]
    fn scaled_instances() {
        let cfg = FabopConfig::default();
        for n in (22usize..=43).chain([100, 200, 381]) {
            let inst = FabopInstance::scaled(n, &cfg);
            assert_eq!(inst.graph.num_vertices(), n, "n = {n}");
            assert!(is_connected(&inst.graph));
            let mean = inst.graph.mean_degree();
            assert!((mean - 8.31).abs() < 0.6, "n = {n}: mean degree {mean}");
        }
    }

    #[test]
    fn scaled_to_paper_size_is_paper_scale() {
        // 762 sectors scale to exactly 3,165 flows, and the builder skips
        // the per-country rescaling at 762, so both constructors agree
        // bit for bit.
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in [2006, 7] {
            let cfg = FabopConfig {
                seed,
                ..Default::default()
            };
            let a = FabopInstance::paper_scale(&cfg);
            let b = FabopInstance::scaled(PAPER_SECTORS, &cfg);
            assert_eq!(a.graph.xadj(), b.graph.xadj());
            assert_eq!(a.graph.adjncy(), b.graph.adjncy());
            assert_eq!(bits(a.graph.adjwgt()), bits(b.graph.adjwgt()));
            let vwgt = |i: &FabopInstance| {
                let g = &i.graph;
                bits(&g.vertices().map(|v| g.vertex_weight(v)).collect::<Vec<_>>())
            };
            assert_eq!(vwgt(&a), vwgt(&b));
            let coords = |i: &FabopInstance| {
                bits(
                    &i.positions
                        .iter()
                        .flat_map(|&(x, y)| [x, y])
                        .collect::<Vec<_>>(),
                )
            };
            assert_eq!(coords(&a), coords(&b));
            assert_eq!(a.country_of, b.country_of);
        }
    }

    #[test]
    fn metadata_lengths_match() {
        let inst = FabopInstance::scaled(150, &FabopConfig::default());
        assert_eq!(inst.positions.len(), 150);
        assert_eq!(inst.country_of.len(), 150);
    }

    #[test]
    fn workload_weights_track_degree_flow() {
        let cfg = FabopConfig {
            workload_weights: true,
            ..Default::default()
        };
        let inst = FabopInstance::scaled(120, &cfg);
        let g = &inst.graph;
        for v in g.vertices() {
            assert!(
                (g.vertex_weight(v) - g.degree_weight(v).max(1.0)).abs() < 1e-9,
                "sector {v}: weight {} vs handled flow {}",
                g.vertex_weight(v),
                g.degree_weight(v)
            );
        }
        // Unweighted variant stays unit-weight.
        let plain = FabopInstance::scaled(120, &FabopConfig::default());
        assert!(plain
            .graph
            .vertices()
            .all(|v| plain.graph.vertex_weight(v) == 1.0));
    }
}
