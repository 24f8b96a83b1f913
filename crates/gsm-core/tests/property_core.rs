//! Property-based tests for the core substrate: covering paths, relations,
//! joins and the join cache.

use proptest::prelude::*;

use gsm_core::interner::Sym;
use gsm_core::model::term::{PatternEdge, Term};
use gsm_core::query::paths::{covering_paths, is_valid_cover};
use gsm_core::query::pattern::QueryPattern;
use gsm_core::relation::cache::JoinCache;
use gsm_core::relation::join::{hash_join, hash_join_with_build, nested_loop_join};
use gsm_core::relation::Relation;

/// Strategy: a connected query pattern with up to `max_edges` edges over a
/// small variable/constant universe. Connectivity is ensured by always
/// attaching each new edge to a vertex already used (or to vertex 0).
fn query_strategy(max_edges: usize) -> impl Strategy<Value = QueryPattern> {
    let edge = (0u32..4, 0u32..6, 0u32..6, any::<bool>(), any::<bool>());
    proptest::collection::vec(edge, 1..=max_edges).prop_map(|specs| {
        let mut edges = Vec::new();
        // Connectivity: every edge touches a variable vertex already in use
        // (variables only — constants are leaves and never act as anchors).
        let mut used: Vec<u32> = vec![0];
        for (label, a, b, other_const, flip) in specs {
            let anchor = used[(a as usize) % used.len()];
            let anchor_term = Term::Var(anchor);
            let other_term = if other_const {
                Term::Const(Sym(1000 + b))
            } else {
                if !used.contains(&b) {
                    used.push(b);
                }
                Term::Var(b)
            };
            let (src, tgt) = if flip {
                (other_term, anchor_term)
            } else {
                (anchor_term, other_term)
            };
            edges.push(PatternEdge::new(Sym(label), src, tgt));
        }
        QueryPattern::from_edges(edges).expect("constructed patterns are connected")
    })
}

fn relation_strategy(arity: usize, max_rows: usize) -> impl Strategy<Value = Relation> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..12, arity..=arity),
        0..=max_rows,
    )
    .prop_map(move |rows| {
        let mut rel = Relation::new(arity);
        for row in rows {
            let row: Vec<Sym> = row.into_iter().map(Sym).collect();
            rel.push(&row);
        }
        rel
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The covering-path extraction always produces a valid cover: every
    /// vertex and edge covered, consecutive edges chained, no empty paths.
    #[test]
    fn covering_paths_cover_everything(query in query_strategy(7)) {
        let paths = covering_paths(&query);
        prop_assert!(!paths.is_empty());
        prop_assert!(is_valid_cover(&query, &paths));
        // No more paths than edges (each path has at least one edge).
        prop_assert!(paths.len() <= query.num_edges());
    }

    /// Path vertex sequences are consistent with the pattern's endpoints.
    #[test]
    fn covering_path_vertex_sequences_chain(query in query_strategy(7)) {
        for path in covering_paths(&query) {
            let seq = path.vertex_sequence(&query);
            prop_assert_eq!(seq.len(), path.len() + 1);
            for (i, &e) in path.edges.iter().enumerate() {
                let (s, t) = query.edge_endpoints(e);
                prop_assert_eq!(seq[i], s);
                prop_assert_eq!(seq[i + 1], t);
            }
        }
    }

    /// Hash join ≡ nested-loop join on arbitrary inputs and key columns.
    #[test]
    fn hash_join_equals_nested_loop(
        left in relation_strategy(3, 40),
        right in relation_strategy(2, 40),
        lk in 0usize..3,
        rk in 0usize..2,
    ) {
        let a = hash_join(&left, &right, &[lk], &[rk]);
        let b = nested_loop_join(&left, &right, &[lk], &[rk]);
        prop_assert_eq!(a.to_sorted_vec(), b.to_sorted_vec());
    }

    /// A cached, incrementally-maintained build produces exactly the same
    /// join result as a freshly built one, no matter how the relation grows.
    #[test]
    fn cached_builds_are_equivalent_to_fresh_builds(
        initial in relation_strategy(2, 30),
        extra in proptest::collection::vec(proptest::collection::vec(0u32..12, 2), 0..30),
        probe in relation_strategy(2, 20),
    ) {
        let mut cache = JoinCache::new();
        let mut rel = initial;
        cache.get_or_build(&rel, &[0]);
        for row in extra {
            let row: Vec<Sym> = row.into_iter().map(Sym).collect();
            rel.push(&row);
        }
        let build = cache.get_or_build(&rel, &[0]);
        let cached = hash_join_with_build(&probe, &rel, &[1], &[0], build);
        let fresh = hash_join(&probe, &rel, &[1], &[0]);
        prop_assert_eq!(cached.to_sorted_vec(), fresh.to_sorted_vec());
    }

    /// Relations never contain duplicate rows, whatever is pushed into them.
    #[test]
    fn relations_are_duplicate_free(rows in proptest::collection::vec(proptest::collection::vec(0u32..5, 2), 0..100)) {
        let mut rel = Relation::new(2);
        for row in &rows {
            let row: Vec<Sym> = row.iter().copied().map(Sym).collect();
            rel.push(&row);
        }
        let distinct: std::collections::HashSet<Vec<Sym>> =
            rel.iter().map(|r| r.to_vec()).collect();
        prop_assert_eq!(distinct.len(), rel.len());
        // And every pushed row is present.
        for row in &rows {
            let row: Vec<Sym> = row.iter().copied().map(Sym).collect();
            prop_assert!(rel.contains(&row));
        }
    }

    /// Projection keeps exactly the selected columns in order.
    #[test]
    fn projection_is_column_selection(rel in relation_strategy(3, 40)) {
        let projected = rel.project(&[2, 0]);
        prop_assert_eq!(projected.arity(), 2);
        for row in rel.iter() {
            prop_assert!(projected.contains(&[row[2], row[0]]));
        }
        prop_assert!(projected.len() <= rel.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chunked-storage snapshot contract under a concurrent writer:
    /// whatever interleaving of appends, snapshots and `iter_from` reads
    /// happens, a snapshot taken at watermark `v` is bitwise stable while
    /// the writer — moved to a second thread — keeps appending (including
    /// across chunk-freeze boundaries), and prefix + delta always
    /// repartition the final relation exactly.
    #[test]
    fn chunked_snapshots_are_stable_under_a_threaded_writer(
        // Offsets around the chunk edge so freezes happen mid-test: the
        // relation starts within one chunk, the writer pushes it past the
        // boundary.
        initial_rows in 1usize..40,
        near_edge in any::<bool>(),
        watermark_pct in 0usize..=100,
        writer_appends in 1usize..80,
    ) {
        use gsm_core::relation::CHUNK_ROWS;
        let base = if near_edge { CHUNK_ROWS - 20 } else { 0 };
        let n = base + initial_rows;
        let mut rel = Relation::new(2);
        for i in 0..n as u32 {
            rel.push(&[Sym(i), Sym(i.wrapping_mul(7))]);
        }
        let v = n * watermark_pct / 100;
        let snap = rel.snapshot_owned(v);
        let before: Vec<Vec<Sym>> = snap.to_vec();
        prop_assert_eq!(snap.len(), v);

        // Writer thread appends (distinct) rows behind the watermark; the
        // snapshot is read back on this thread afterwards.
        let writer = std::thread::spawn(move || {
            for i in 0..writer_appends as u32 {
                rel.push(&[Sym(1_000_000 + i), Sym(i)]);
            }
            rel
        });
        let rel = writer.join().expect("writer thread");

        let after: Vec<Vec<Sym>> = snap.to_vec();
        prop_assert_eq!(&after, &before, "snapshot moved under the writer");

        // The snapshot is exactly the first v rows of the final relation…
        let prefix: Vec<Vec<Sym>> = rel.iter().take(v).map(|r| r.to_vec()).collect();
        prop_assert_eq!(&after, &prefix);
        // …and iter_from(v) is exactly the rest.
        let delta: Vec<Vec<Sym>> = rel.iter_from(v).map(|r| r.to_vec()).collect();
        prop_assert_eq!(delta.len(), rel.len() - v);
        let mut reassembled = after.clone();
        reassembled.extend(delta);
        let all: Vec<Vec<Sym>> = rel.iter().map(|r| r.to_vec()).collect();
        prop_assert_eq!(reassembled, all);
    }
}
