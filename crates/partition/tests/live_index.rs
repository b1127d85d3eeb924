//! Property tests for the partition's liveness index and the `CutState`
//! undo journal, over random sequences of moves, added parts,
//! compactions and journal marks.
//!
//! * `num_nonempty_parts` and `nth_live_part` agree with a linear scan
//!   of the part slots after every edit;
//! * `validate()` holds after every edit;
//! * `journal_base()` equals an eager snapshot taken at the mark, bit for
//!   bit: assignment, part count, member order and part-weight bits.

use ff_graph::{Graph, GraphBuilder, VertexId};
use ff_partition::{CutState, Partition};
use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// A random graph whose vertex weights are not integers, so part weights
/// carry rounding that an inexact undo would show.
fn weighted_graph(n: usize, rng: &mut ChaCha8Rng) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 0..n as VertexId {
        b.set_vertex_weight(v, rng.gen_range(0.1..3.0));
        for _ in 0..3 {
            let u = rng.gen_range(0..n) as VertexId;
            b.add_edge(v, u, rng.gen_range(0.5..2.0));
        }
    }
    b.build()
}

fn live_by_scan(p: &Partition) -> Vec<u32> {
    (0..p.num_parts() as u32)
        .filter(|&q| p.part_size(q) > 0)
        .collect()
}

fn assert_same_bits(a: &Partition, b: &Partition) -> Result<(), String> {
    prop_assert_eq!(a.assignment(), b.assignment());
    prop_assert_eq!(a.num_parts(), b.num_parts());
    for p in 0..a.num_parts() as u32 {
        prop_assert_eq!(a.part_members_unordered(p), b.part_members_unordered(p));
        prop_assert_eq!(a.part_weight(p).to_bits(), b.part_weight(p).to_bits());
    }
    Ok(())
}

fn check_index(g: &Graph, p: &Partition) -> Result<(), String> {
    let live = live_by_scan(p);
    prop_assert_eq!(p.num_nonempty_parts(), live.len());
    for (r, &q) in live.iter().enumerate() {
        prop_assert_eq!(p.nth_live_part(r), q);
    }
    prop_assert!(p.validate(g), "validate() failed");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn live_index_and_journal_match_naive(
        n in 1usize..48,
        k in 1usize..7,
        ops in 0usize..400,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = weighted_graph(n, &mut rng);
        let mut st = CutState::new(&g, Partition::random(&g, k, seed));
        check_index(&g, st.partition())?;
        st.mark_journal_base();
        let mut snapshot = st.partition().clone();
        for _ in 0..ops {
            match rng.gen_range(0..100) {
                0..=69 => {
                    let v = rng.gen_range(0..n) as VertexId;
                    let to = rng.gen_range(0..st.partition().num_parts()) as u32;
                    st.move_vertex(v, to);
                }
                70..=79 => {
                    st.add_part();
                }
                80..=84 => {
                    // Compaction renumbers parts and moves the base.
                    st.compact();
                    prop_assert_eq!(st.journal_len(), 0);
                    snapshot = st.partition().clone();
                }
                85..=94 => {
                    st.mark_journal_base();
                    snapshot = st.partition().clone();
                }
                _ => assert_same_bits(&st.journal_base(), &snapshot)?,
            }
            check_index(&g, st.partition())?;
        }
        let base = st.journal_base();
        assert_same_bits(&base, &snapshot)?;
        check_index(&g, &base)?;
    }

    #[test]
    fn nth_live_part_matches_scan_on_sparse_slots(
        slots in 1usize..300,
        fill in 0u64..100,
        seed in any::<u64>(),
    ) {
        // Many empty slots, few live ones: the Fenwick descent must skip
        // runs of dead slots of every length.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = slots;
        let g = weighted_graph(n, &mut rng);
        let mut p = Partition::singletons(&g);
        for v in 0..n as VertexId {
            if rng.gen_range(0..100u64) >= fill {
                let to = rng.gen_range(0..n) as u32;
                p.move_vertex(&g, v, to);
            }
        }
        for _ in 0..rng.gen_range(0..5) {
            p.add_part();
        }
        check_index(&g, &p)?;
    }
}

#[test]
#[should_panic(expected = "live part")]
fn nth_live_part_out_of_range_panics() {
    let g = ff_graph::generators::path(3);
    let p = Partition::block(&g, 2);
    p.nth_live_part(2);
}
