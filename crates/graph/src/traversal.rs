//! Breadth-first traversal, connectivity, and subset connectivity.

use crate::{Graph, VertexId};
use std::collections::VecDeque;

/// Component label (0-based, in discovery order) for every vertex, plus the
/// number of components.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.num_vertices();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if label[s] != u32::MAX {
            continue;
        }
        label[s] = count;
        queue.push_back(s as VertexId);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = count;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    (label, count as usize)
}

/// `true` iff the graph has exactly one connected component (the empty graph
/// is considered connected).
pub fn is_connected(g: &Graph) -> bool {
    let n = g.num_vertices();
    if n == 0 {
        return true;
    }
    let (_, c) = connected_components(g);
    c == 1
}

/// Number of connected components of the subgraph induced by `members`
/// (vertices `v` with `members[v] == true`), restricted to edges whose both
/// endpoints are members.
///
/// This is how the suite asks "is this partition's part internally
/// connected?" without materializing the induced subgraph.
pub fn subset_components(g: &Graph, members: &[bool]) -> usize {
    let n = g.num_vertices();
    assert_eq!(members.len(), n, "membership mask length mismatch");
    let mut seen = vec![false; n];
    let mut count = 0;
    let mut queue = VecDeque::new();
    for s in 0..n {
        if !members[s] || seen[s] {
            continue;
        }
        seen[s] = true;
        queue.push_back(s as VertexId);
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                let ui = u as usize;
                if members[ui] && !seen[ui] {
                    seen[ui] = true;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::path;
    use crate::GraphBuilder;

    #[test]
    fn components_of_disconnected() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 3, 1.0);
        // 4, 5 isolated
        let g = b.build();
        let (labels, c) = connected_components(&g);
        assert_eq!(c, 4);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&path(10)));
        let g = GraphBuilder::new(3).build();
        assert!(!is_connected(&g));
        let empty = GraphBuilder::new(0).build();
        assert!(is_connected(&empty));
    }

    #[test]
    fn subset_components_splits() {
        let g = path(5); // 0-1-2-3-4
                         // members {0,1,3,4}: removing 2 splits into two components
        let members = vec![true, true, false, true, true];
        assert_eq!(subset_components(&g, &members), 2);
        let all = vec![true; 5];
        assert_eq!(subset_components(&g, &all), 1);
        let none = vec![false; 5];
        assert_eq!(subset_components(&g, &none), 0);
    }
}
