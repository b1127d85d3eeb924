//! Differential tests: the in-place [`Percolator`] against the percolation
//! it replaced.
//!
//! The reference below is the former implementation: seed spreading by a
//! fresh multi-source BFS per seed, and flows over a lazy
//! `BinaryHeap<(u64, VertexId)>` with per-flow vectors, run on the subset's
//! [`induced_subgraph`]. Its rounds stop on a plain count, which is what the
//! former `StopCondition::steps(max_rounds)` check amounted to (that
//! condition has no time budget). The percolator must give the same seeds
//! and colors, on random ascending subsets and on whole graphs, with one
//! percolator reused across every case so state left over from an earlier
//! subset shows. The inputs carry small-integer and zero weights, so equal
//! bonds at different depths and same-bond pushes occur, and sparse
//! subsets fall apart, so the round-robin fallback runs; each test checks
//! that these paths ran. A dense graph shaped like the multilevel coarse
//! graph checks the load's leftovers: small subsets loaded after a large
//! one keep few of their edges. Property tests check the bond queue alone
//! against `BinaryHeap` on random monotone push/pop sequences with ties,
//! with ids across several bitset words, and with stale entries dropped.

use super::*;
use ff_graph::generators::{grid2d, planted_partition_sparse, random_geometric};
use ff_graph::{induced_subgraph, GraphBuilder};
use proptest::prelude::*;
use std::collections::{BinaryHeap, VecDeque};

/// What the reference runs saw, so each test can insist its paths ran.
#[derive(Debug, Default)]
struct Coverage {
    /// Pushes that tie the bond just popped.
    same_bond_pushes: u32,
    /// Settles of a bond equal to the previous settle's at another depth.
    equal_bonds_other_depth: u32,
    /// Vertices colored by the round-robin fallback.
    fallbacks: u32,
    /// Confined rounds run.
    confined_rounds: u32,
}

/// The former flow: the bond each vertex receives from `source`, flowing
/// only through vertices where `allowed` is true.
fn flow(
    g: &Graph,
    source: VertexId,
    allowed: impl Fn(VertexId) -> bool,
    cov: &mut Coverage,
) -> Vec<f64> {
    let n = g.num_vertices();
    let mut bond = vec![-1.0f64; n]; // -1 = unreached
    let mut depth = vec![0u32; n];
    let mut heap: BinaryHeap<(u64, VertexId)> = BinaryHeap::new();
    bond[source as usize] = f64::MAX;
    heap.push((f64::MAX.to_bits(), source));
    let mut settled = vec![false; n];
    let mut last_settle: Option<(u64, u32)> = None;
    while let Some((b, v)) = heap.pop() {
        if settled[v as usize] || bond[v as usize].max(0.0).to_bits() != b {
            continue;
        }
        settled[v as usize] = true;
        let d = depth[v as usize];
        if last_settle.is_some_and(|(lb, ld)| lb == b && ld != d) {
            cov.equal_bonds_other_depth += 1;
        }
        last_settle = Some((b, d));
        if v != source && !allowed(v) {
            continue;
        }
        let atten = 0.5f64.powi(d as i32);
        for (u, w) in g.edges_of(v) {
            if settled[u as usize] {
                continue;
            }
            let cand = bond[v as usize].min(w * atten);
            if cand > bond[u as usize] {
                bond[u as usize] = cand;
                depth[u as usize] = d + 1;
                cov.same_bond_pushes += u32::from(cand.to_bits() == b);
                heap.push((cand.to_bits(), u));
            }
        }
    }
    bond
}

/// The former farthest-point seed spreading.
fn spread_seeds_ref(g: &Graph, k: usize, seed: u64) -> Vec<VertexId> {
    let n = g.num_vertices();
    assert!(k >= 1 && k <= n, "need 1 ≤ k ≤ n");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut seeds = vec![rng.gen_range(0..n) as VertexId];
    while seeds.len() < k {
        let mut dist = vec![usize::MAX; n];
        let mut q = VecDeque::new();
        for &s in &seeds {
            dist[s as usize] = 0;
            q.push_back(s);
        }
        while let Some(v) = q.pop_front() {
            for &u in g.neighbors(v) {
                if dist[u as usize] == usize::MAX {
                    dist[u as usize] = dist[v as usize] + 1;
                    q.push_back(u);
                }
            }
        }
        let far = (0..n as VertexId)
            .filter(|v| !seeds.contains(v))
            .max_by_key(|&v| {
                if dist[v as usize] == usize::MAX {
                    n + 1 // unreachable = farthest
                } else {
                    dist[v as usize]
                }
            })
            .expect("k ≤ n leaves an unseeded vertex");
        seeds.push(far);
    }
    seeds
}

/// The former percolation rounds from explicit seeds: each vertex's color.
fn percolation_ref(
    g: &Graph,
    seeds: &[VertexId],
    max_rounds: usize,
    cov: &mut Coverage,
) -> Vec<u32> {
    let n = g.num_vertices();
    let k = seeds.len();
    let mut color: Vec<u32> = vec![u32::MAX; n];
    let mut round = 0;
    loop {
        let prev = color.clone();
        let mut best_bond = vec![-1.0f64; n];
        for (c, &s) in seeds.iter().enumerate() {
            let c32 = c as u32;
            let free_round = round == 0;
            let allowed =
                |v: VertexId| free_round || prev[v as usize] == c32 || prev[v as usize] == u32::MAX;
            let bond = flow(g, s, allowed, cov);
            for v in 0..n {
                if bond[v] > best_bond[v] {
                    best_bond[v] = bond[v];
                    color[v] = c32;
                }
            }
        }
        cov.confined_rounds += u32::from(round > 0);
        for (v, c) in color.iter_mut().enumerate() {
            if *c == u32::MAX {
                *c = (v % k) as u32;
                cov.fallbacks += u32::from(k > 1);
            }
        }
        for (c, &s) in seeds.iter().enumerate() {
            color[s as usize] = c as u32;
        }
        round += 1;
        if color == prev || round >= max_rounds {
            break;
        }
    }
    color
}

/// A random graph with weights from {0, ½, 1, 2, 3} (parallel draws sum),
/// sparse enough that random subsets fall apart.
fn small_integer_graph(n: usize, rng: &mut ChaCha8Rng) -> Graph {
    const WEIGHTS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 3.0];
    let mut b = GraphBuilder::new(n);
    for _ in 0..rng.gen_range(0..=2 * n) {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        b.add_edge(u, v, WEIGHTS[rng.gen_range(0..WEIGHTS.len())]);
    }
    b.build()
}

/// Each vertex of `g` with probability `p`, ascending.
fn random_subset(g: &Graph, p: f64, rng: &mut ChaCha8Rng) -> Vec<VertexId> {
    g.vertices().filter(|_| rng.gen_bool(p)).collect()
}

/// `k` distinct ranks below `n`, in random order.
fn random_seeds(n: usize, k: usize, rng: &mut ChaCha8Rng) -> Vec<VertexId> {
    let mut all: Vec<VertexId> = (0..n as VertexId).collect();
    all.shuffle(rng);
    all.truncate(k);
    all
}

const ROUNDS: [usize; 4] = [0, 1, 6, 16];

/// Compares the percolator on `members` of `g` with the reference run on
/// their induced subgraph, for k in 1..=5 and every round cap.
fn check_subset(
    perc: &mut Percolator,
    g: &Graph,
    members: &[VertexId],
    rng: &mut ChaCha8Rng,
    cov: &mut Coverage,
) {
    let sub = induced_subgraph(g, members);
    for k in 1..=members.len().min(5) {
        for max_rounds in ROUNDS {
            let cfg = PercolationConfig {
                max_rounds,
                seed: rng.gen(),
            };
            let seeds = spread_seeds_ref(&sub.graph, k, cfg.seed);
            let what = format!("{} members, k {k}, rounds {max_rounds}", members.len());
            assert_eq!(
                perc.spread_seeds(g, members, k, cfg.seed),
                seeds,
                "seeds: {what}"
            );
            let want = percolation_ref(&sub.graph, &seeds, max_rounds, cov);
            assert_eq!(perc.percolate(g, members, k, &cfg), want, "{what}");
            let explicit = random_seeds(members.len(), k, rng);
            let want = percolation_ref(&sub.graph, &explicit, max_rounds, cov);
            assert_eq!(
                perc.percolate_from(g, members, &explicit, &cfg),
                want,
                "explicit seeds {explicit:?}: {what}"
            );
        }
    }
}

fn assert_covered(cov: &Coverage) {
    assert!(cov.same_bond_pushes > 0, "no same-bond push: {cov:?}");
    assert!(
        cov.equal_bonds_other_depth > 0,
        "no equal bonds at different depths: {cov:?}"
    );
    assert!(cov.fallbacks > 0, "no round-robin fallback: {cov:?}");
    assert!(cov.confined_rounds > 0, "no confined round: {cov:?}");
}

#[test]
fn subsets_match_the_induced_subgraph_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let mut perc = Percolator::new();
    let mut cov = Coverage::default();
    for case in 0..80 {
        let g = small_integer_graph(rng.gen_range(1..=40usize), &mut rng);
        for p in [0.3, 0.6, 0.9, 1.0] {
            let members = random_subset(&g, p, &mut rng);
            check_subset(&mut perc, &g, &members, &mut rng, &mut cov);
        }
        // Atoms of a planted instance, as fission splits them: a group
        // with stragglers from its neighbors.
        if case % 16 == 0 {
            let g = planted_partition_sparse(4, 100, 0.06, 0.004, case);
            let members: Vec<VertexId> = g
                .vertices()
                .filter(|&v| v < 100 || rng.gen_bool(0.1))
                .collect();
            check_subset(&mut perc, &g, &members, &mut rng, &mut cov);
        }
    }
    assert_covered(&cov);
}

/// A random graph with mean degree `2·m/n` from `m` edge draws, weights
/// from {½, 1, 2, 3} (parallel draws sum).
fn dense_graph(n: usize, m: usize, rng: &mut ChaCha8Rng) -> Graph {
    const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];
    let mut b = GraphBuilder::new(n);
    for _ in 0..m {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u != v {
            b.add_edge(u, v, WEIGHTS[rng.gen_range(0..WEIGHTS.len())]);
        }
    }
    b.build()
}

#[test]
fn dense_subsets_after_a_large_one_match_the_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let g = dense_graph(240, 240 * 40, &mut rng);
    let degree_sum = |vs: &[VertexId]| vs.iter().map(|&v| g.degree(v)).sum::<usize>();
    let all: Vec<VertexId> = g.vertices().collect();
    assert!(
        degree_sum(&all) >= 64 * g.num_vertices(),
        "mean degree {} below 64",
        degree_sum(&all) / g.num_vertices()
    );
    let mut perc = Percolator::new();
    let mut cov = Coverage::default();
    // The large subset leaves its rows in the edge buffers; each small one
    // after it keeps only a few of its edges, so the large load's entries
    // and this load's own external edges lie past its kept rows.
    let large = random_subset(&g, 0.8, &mut rng);
    check_subset(&mut perc, &g, &large, &mut rng, &mut cov);
    for p in [0.02, 0.05, 0.1, 0.2, 0.05] {
        let members = random_subset(&g, p, &mut rng);
        let kept = induced_subgraph(&g, &members).graph.num_edges() * 2;
        assert!(
            2 * kept < degree_sum(&members),
            "{} of {} edge ends kept",
            kept,
            degree_sum(&members)
        );
        check_subset(&mut perc, &g, &members, &mut rng, &mut cov);
    }
    assert!(cov.same_bond_pushes > 0, "no same-bond push: {cov:?}");
    assert!(cov.confined_rounds > 0, "no confined round: {cov:?}");
}

#[test]
fn whole_graphs_match_the_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    let mut cov = Coverage::default();
    let mut graphs = vec![
        grid2d(7, 9),
        random_geometric(120, 0.15, 4),
        planted_partition_sparse(5, 60, 0.1, 0.01, 2),
    ];
    graphs.extend((0..12).map(|_| small_integer_graph(rng.gen_range(1..=50usize), &mut rng)));
    for g in &graphs {
        let n = g.num_vertices();
        for k in 1..=n.min(5) {
            for max_rounds in ROUNDS {
                let cfg = PercolationConfig {
                    max_rounds,
                    seed: rng.gen(),
                };
                let seeds = spread_seeds_ref(g, k, cfg.seed);
                assert_eq!(spread_seeds(g, k, cfg.seed), seeds);
                let want = percolation_ref(g, &seeds, max_rounds, &mut cov);
                assert_eq!(percolation_partition(g, k, &cfg).assignment(), want);
                let explicit = random_seeds(n, k, &mut rng);
                let want = percolation_ref(g, &explicit, max_rounds, &mut cov);
                assert_eq!(
                    percolation_with_seeds(g, &explicit, &cfg).assignment(),
                    want
                );
            }
        }
    }
    assert_covered(&cov);
}

/// A push no stronger than `last`: often equal to it, often just below,
/// often one of a few shared values, sometimes anywhere below.
fn monotone_bits(last: u64, pool: &[u64], rng: &mut ChaCha8Rng) -> u64 {
    match rng.gen_range(0..4) {
        0 if last != u64::MAX => last,
        1 => last.saturating_sub(rng.gen_range(0..4u64)),
        2 => pool[rng.gen_range(0..pool.len())].min(last),
        _ => rng.gen_range(0..=last),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_pops_like_binary_heap(seed in any::<u64>(), ops in 1usize..600) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pool: Vec<u64> = (0..4).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64)).collect();
        let mut queue = BondQueue::default();
        // Two sequences through one queue: clearing must forget the first.
        for _ in 0..2 {
            queue.clear();
            let mut heap: BinaryHeap<(u64, VertexId)> = BinaryHeap::new();
            let mut last = u64::MAX;
            for _ in 0..ops {
                if heap.is_empty() || rng.gen_bool(0.55) {
                    let bits = monotone_bits(last, &pool, &mut rng);
                    let id = rng.gen_range(0..12u32);
                    queue.push(bits, id);
                    heap.push((bits, id));
                } else {
                    let want = heap.pop();
                    prop_assert_eq!(queue.pop(), want);
                    last = want.map_or(last, |(bits, _)| bits);
                }
            }
            while let Some(want) = heap.pop() {
                prop_assert_eq!(queue.pop(), Some(want));
            }
            prop_assert_eq!(queue.pop(), None);
        }
    }
}

/// Pops `want` from `queue` and counts pops of one run that skip at
/// least one empty bitset word.
fn pop_across_words(
    queue: &mut BondQueue,
    want: Option<(u64, VertexId)>,
    prev: &mut Option<(u64, VertexId)>,
    gaps: &mut u32,
) -> Result<(), String> {
    prop_assert_eq!(queue.pop(), want);
    if let (Some((pb, pi)), Some((b, i))) = (*prev, want) {
        *gaps += u32::from(pb == b && pi / 64 > i / 64 + 1);
    }
    *prev = want;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn queue_pops_like_binary_heap_across_words(seed in any::<u64>(), ops in 300usize..900) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pool: Vec<u64> = (0..4)
            .map(|_| rng.gen::<u64>() >> rng.gen_range(0..64))
            .collect();
        let mut queue = BondQueue::default();
        let mut heap: BinaryHeap<(u64, VertexId)> = BinaryHeap::new();
        let mut last = u64::MAX;
        let mut prev = None;
        // Same-bond pushes into a word above every id pending at that
        // bond, and pops that skip an empty word.
        let (mut above, mut gaps) = (0u32, 0u32);
        for _ in 0..ops {
            if heap.is_empty() || rng.gen_bool(0.55) {
                let bits = monotone_bits(last, &pool, &mut rng);
                let id = rng.gen_range(0..300u32);
                let mut pending = heap
                    .iter()
                    .filter(|&&(b, _)| b == bits)
                    .map(|&(_, i)| i / 64);
                above += u32::from(
                    bits == last
                        && pending.next().is_some_and(|w| w < id / 64)
                        && pending.all(|w| w < id / 64),
                );
                queue.push(bits, id);
                heap.push((bits, id));
            } else {
                let want = heap.pop();
                pop_across_words(&mut queue, want, &mut prev, &mut gaps)?;
                last = want.map_or(last, |(bits, _)| bits);
            }
        }
        while let Some(want) = heap.pop() {
            pop_across_words(&mut queue, Some(want), &mut prev, &mut gaps)?;
        }
        prop_assert_eq!(queue.pop(), None);
        prop_assert!(above > 0 && gaps > 0, "above {} gaps {}", above, gaps);
    }
}

/// One random sequence through `queue` against a heap that skips stale
/// entries; returns how many entries went stale. As in a flow, an id's
/// latest push is its live entry, and an id is pushed again only with more
/// bits, which leaves its earlier entry stale.
fn stale_sequence(queue: &mut BondQueue, seed: u64, ops: usize) -> Result<u32, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pool: Vec<u64> = (0..4)
        .map(|_| rng.gen::<u64>() >> rng.gen_range(0..64))
        .collect();
    queue.clear();
    let mut heap: BinaryHeap<(u64, VertexId)> = BinaryHeap::new();
    let mut current: Vec<Option<u64>> = vec![None; 300];
    let live =
        |current: &[Option<u64>], bits: u64, id: VertexId| current[id as usize] == Some(bits);
    let pop =
        |queue: &mut BondQueue, heap: &mut BinaryHeap<(u64, VertexId)>, current: &[Option<u64>]| {
            let want = loop {
                match heap.pop() {
                    Some((bits, id)) if !live(current, bits, id) => continue,
                    other => break other,
                }
            };
            (queue.pop_live(|bits, id| live(current, bits, id)), want)
        };
    let mut last = u64::MAX;
    let mut stale = 0;
    for _ in 0..ops {
        if heap.is_empty() || rng.gen_bool(0.6) {
            let bits = monotone_bits(last, &pool, &mut rng);
            // Half the pushes raise a pending entry, if it allows.
            let id = match heap.len() {
                len if len > 0 && rng.gen_bool(0.5) => {
                    heap.iter().nth(rng.gen_range(0..len)).unwrap().1
                }
                _ => rng.gen_range(0..300u32),
            };
            match current[id as usize] {
                Some(b) if b >= bits => continue,
                Some(_) => stale += 1,
                None => {}
            }
            current[id as usize] = Some(bits);
            queue.push(bits, id);
            heap.push((bits, id));
        } else {
            let (got, want) = pop(queue, &mut heap, &current);
            prop_assert_eq!(got, want);
            last = want.map_or(last, |(bits, _)| bits);
        }
    }
    loop {
        let (got, want) = pop(queue, &mut heap, &current);
        prop_assert_eq!(got, want);
        if want.is_none() {
            return Ok(stale);
        }
    }
}

#[test]
fn queue_drops_stale_entries_like_a_skipping_heap() {
    let mut queue = BondQueue::default();
    let mut stale = 0;
    for seed in 0..256 {
        stale += stale_sequence(&mut queue, seed, 1 + seed as usize * 3)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    assert!(stale > 1000, "{stale} entries went stale");
}

#[test]
#[should_panic(expected = "above the last one popped")]
fn queue_rejects_a_push_above_the_last_pop() {
    let mut queue = BondQueue::default();
    queue.push(5, 0);
    assert_eq!(queue.pop(), Some((5, 0)));
    queue.push(6, 1);
}
