//! Partition analysis: per-part statistics, connectivity diagnostics, and
//! fragment repair.
//!
//! §3.1/§3.2 of the paper stress that its metaheuristics do **not** force
//! parts to be connected — "if connected sets often produced best results,
//! we should not force this connectivity". That makes connectivity a
//! *diagnostic*, not an invariant: this module measures it (how many parts
//! are fragmented, how big the fragments are) and offers an optional
//! repair pass for consumers (e.g. airspace blocks must be flyable as one
//! volume).

use crate::connections::Connections;
use crate::objective::CutState;
use crate::partition::Partition;
use ff_graph::{subset_components, Graph, VertexId};

/// Summary of one part.
#[derive(Clone, Debug)]
pub struct PartStats {
    /// Part id.
    pub part: u32,
    /// Vertex count.
    pub size: usize,
    /// Vertex-weight sum.
    pub weight: f64,
    /// Internal edge weight (each edge once).
    pub internal_weight: f64,
    /// Cut weight to all other parts.
    pub external_weight: f64,
    /// Number of connected components of the induced subgraph.
    pub components: usize,
}

/// Whole-partition report.
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// Per-part stats, indexed by part id (empty parts included with
    /// `size == 0`).
    pub parts: Vec<PartStats>,
    /// Total cut weight (each edge once).
    pub cut: f64,
    /// Number of parts with more than one component.
    pub fragmented_parts: usize,
}

/// Computes the full report in O(m + n).
pub fn analyze(g: &Graph, p: &Partition) -> PartitionReport {
    let st = CutState::new(g, p.clone());
    let mut parts = Vec::with_capacity(p.num_parts());
    let mut fragmented = 0;
    let mut members_mask = vec![false; g.num_vertices()];
    for part in 0..p.num_parts() as u32 {
        let members = p.part_members(part);
        for &v in &members {
            members_mask[v as usize] = true;
        }
        let components = if members.is_empty() {
            0
        } else {
            subset_components(g, &members_mask)
        };
        for &v in &members {
            members_mask[v as usize] = false;
        }
        if components > 1 {
            fragmented += 1;
        }
        parts.push(PartStats {
            part,
            size: members.len(),
            weight: p.part_weight(part),
            internal_weight: st.internal2(part) / 2.0,
            external_weight: st.external(part),
            components,
        });
    }
    PartitionReport {
        cut: st.cut(),
        parts,
        fragmented_parts: fragmented,
    }
}

/// Repairs fragmented parts: every component of a part except its largest
/// is reassigned, vertex by vertex, to the neighboring part with the
/// strongest connection. Returns the number of vertices moved. The result
/// has every non-empty part connected (repair iterates until clean or the
/// pass cap is hit).
pub fn repair_connectivity(g: &Graph, p: &mut Partition, max_passes: usize) -> usize {
    let mut conn = Connections::with_parts(p.num_parts());
    let mut moved_total = 0usize;
    for _ in 0..max_passes {
        let mut moved_this_pass = 0usize;
        for part in 0..p.num_parts() as u32 {
            let members = p.part_members(part);
            if members.len() <= 1 {
                continue;
            }
            // Label components of the induced subgraph.
            let comp = label_components(g, &members, p, part);
            let ncomp = comp.iter().copied().max().map_or(0, |m| m as usize + 1);
            if ncomp <= 1 {
                continue;
            }
            // Keep the largest component; disperse the rest.
            let mut sizes = vec![0usize; ncomp];
            for &c in &comp {
                sizes[c as usize] += 1;
            }
            let keep = sizes
                .iter()
                .enumerate()
                .max_by_key(|&(_, s)| *s)
                .map(|(i, _)| i as u32)
                .unwrap();
            for (i, &v) in members.iter().enumerate() {
                if comp[i] == keep {
                    continue;
                }
                // Strongest-connected other part; ties go to the lowest id.
                let mut best: Option<(u32, f64)> = None;
                conn.gather_vertex(g, p, v);
                for (cand, w) in conn.iter() {
                    if cand == part {
                        continue;
                    }
                    if best.is_none_or(|(_, bw)| w > bw) {
                        best = Some((cand, w));
                    }
                }
                if let Some((to, _)) = best {
                    p.move_vertex(g, v, to);
                    moved_this_pass += 1;
                }
            }
        }
        moved_total += moved_this_pass;
        if moved_this_pass == 0 {
            break;
        }
    }
    moved_total
}

/// Component label per member of `part` (0-based, discovery order).
fn label_components(g: &Graph, members: &[VertexId], p: &Partition, part: u32) -> Vec<u32> {
    use std::collections::VecDeque;
    let index: std::collections::HashMap<VertexId, usize> =
        members.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let mut label = vec![u32::MAX; members.len()];
    let mut next = 0u32;
    for start in 0..members.len() {
        if label[start] != u32::MAX {
            continue;
        }
        label[start] = next;
        let mut q = VecDeque::from([members[start]]);
        while let Some(v) = q.pop_front() {
            for &u in g.neighbors(v) {
                if p.part_of(u) != part {
                    continue;
                }
                let ui = index[&u];
                if label[ui] == u32::MAX {
                    label[ui] = next;
                    q.push_back(u);
                }
            }
        }
        next += 1;
    }
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_graph::generators::{grid2d, path, two_cliques_bridge};

    #[test]
    fn analyze_two_cliques() {
        let g = two_cliques_bridge(4, 2.0, 0.5);
        let p = Partition::from_assignment(&g, vec![0, 0, 0, 0, 1, 1, 1, 1], 2);
        let r = analyze(&g, &p);
        assert_eq!(r.cut, 0.5);
        assert_eq!(r.fragmented_parts, 0);
        assert_eq!(r.parts[0].size, 4);
        assert_eq!(r.parts[0].internal_weight, 12.0); // K4 × 2.0
        assert_eq!(r.parts[0].external_weight, 0.5);
        assert_eq!(r.parts[0].components, 1);
    }

    #[test]
    fn detects_fragmentation() {
        let g = path(5); // 0-1-2-3-4
                         // part 0 = {0, 4}: two fragments around part 1 = {1,2,3}
        let p = Partition::from_assignment(&g, vec![0, 1, 1, 1, 0], 2);
        let r = analyze(&g, &p);
        assert_eq!(r.fragmented_parts, 1);
        assert_eq!(r.parts[0].components, 2);
        assert_eq!(r.parts[1].components, 1);
    }

    #[test]
    fn repair_makes_parts_connected() {
        let g = path(6); // 0-1-2-3-4-5
        let mut p = Partition::from_assignment(&g, vec![0, 1, 1, 0, 0, 1], 2);
        // part 0 = {0, 3, 4} (two fragments), part 1 = {1, 2, 5} (two).
        let moved = repair_connectivity(&g, &mut p, 8);
        assert!(moved > 0);
        let r = analyze(&g, &p);
        assert_eq!(r.fragmented_parts, 0, "assignment: {:?}", p.assignment());
        assert!(p.validate(&g));
    }

    #[test]
    fn repair_noop_when_connected() {
        let g = grid2d(4, 4);
        let mut p = Partition::block(&g, 2);
        assert_eq!(repair_connectivity(&g, &mut p, 4), 0);
    }

    #[test]
    fn empty_parts_reported() {
        let g = path(3);
        let mut p = Partition::from_assignment(&g, vec![0, 0, 0], 1);
        p.add_part();
        let r = analyze(&g, &p);
        assert_eq!(r.parts[1].size, 0);
        assert_eq!(r.parts[1].components, 0);
    }
}
