//! Property-based tests for the core substrate: covering paths, relations,
//! joins and the join cache.

use proptest::prelude::*;

use gsm_core::engine::QueryId;
use gsm_core::interner::Sym;
use gsm_core::model::term::{PatternEdge, Term};
use gsm_core::query::paths::{covering_paths, is_valid_cover};
use gsm_core::query::pattern::QueryPattern;
use gsm_core::relation::cache::JoinCache;
use gsm_core::relation::eval::{join_covering_paths, join_paths, PathBinding, PathDelta};
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

    /// Hash join ≡ nested-loop join on arbitrary inputs and key columns, as
    /// sets: the hash join writes its output without a dedup index, which is
    /// only sound because a join of two sets has no duplicate rows.
    #[test]
    fn hash_join_equals_nested_loop(
        left in relation_strategy(3, 40),
        right in relation_strategy(2, 40),
        lk in 0usize..3,
        rk in 0usize..2,
    ) {
        let a = hash_join(&left, &right, &[lk], &[rk]);
        let b = nested_loop_join(&left, &right, &[lk], &[rk]);
        let distinct: std::collections::BTreeSet<Vec<Sym>> =
            a.iter().map(|r| r.to_vec()).collect();
        prop_assert_eq!(distinct.len(), a.len(), "a join of sets is a set");
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

/// Row `i` of the retraction properties' universe: distinct in the first
/// column, so any arity 1–4 prefix of it is a distinct row.
fn universe_row(i: u32, arity: usize) -> Vec<Sym> {
    [i, i.wrapping_mul(7) % 13, i % 5, i / 3][..arity]
        .iter()
        .copied()
        .map(Sym)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Swap-remove retraction against a `BTreeSet` model: whatever
    /// interleaving of `push`, `retract_row` and `retract_rows` runs over a
    /// relation of a few thousand rows (starting within a few rows of a
    /// doubling of its row storage, so the first pushes reallocate it),
    /// `len`, `contains`, the sorted contents and the generation agree with
    /// the model after every step.
    #[test]
    fn retraction_matches_a_set_model(
        arity in 1usize..=4,
        short_of_growth in 0usize..4,
        ops in proptest::collection::vec((0u8..7, any::<u32>(), 1usize..9), 1..60),
    ) {
        use std::collections::BTreeSet;

        // Row storage doubles from 4 syms, so 4096 syms is a capacity edge.
        let base = 4096 / arity - short_of_growth;
        let mut rel = Relation::new(arity);
        let mut model: BTreeSet<Vec<Sym>> = BTreeSet::new();
        for i in 0..base as u32 {
            rel.push(&universe_row(i, arity));
            model.insert(universe_row(i, arity));
        }
        let mut next_fresh = base as u32;
        // A row of the model (`pick` walks it) or, one time in four, one
        // that was never inserted.
        let victim = |model: &BTreeSet<Vec<Sym>>, pick: u32| -> Vec<Sym> {
            if pick.is_multiple_of(4) || model.is_empty() {
                universe_row(3_000_000 + pick % 50, arity)
            } else {
                model.iter().nth(pick as usize % model.len()).expect("in range").clone()
            }
        };

        for (kind, pick, count) in ops {
            let generation = rel.generation();
            let removed = match kind {
                0 | 1 => {
                    // Fresh rows, plus a duplicate of a live one.
                    for _ in 0..count {
                        let row = universe_row(next_fresh, arity);
                        next_fresh += 1;
                        prop_assert!(rel.push(&row));
                        model.insert(row);
                    }
                    let dup = victim(&model, pick | 1);
                    prop_assert_eq!(rel.push(&dup), model.insert(dup));
                    0
                }
                2 | 3 => {
                    let row = victim(&model, pick);
                    let present = model.remove(&row);
                    prop_assert_eq!(rel.retract_row(&row), present);
                    prop_assert!(!rel.contains(&row));
                    usize::from(present)
                }
                _ => {
                    // A batch: rows from anywhere in the table, the
                    // physical tail end, and absent rows.
                    let mut gone = Relation::new(arity);
                    let mut expected = 0;
                    for k in 0..count as u32 {
                        let row = if k % 3 == 2 && !rel.is_empty() {
                            rel.row(rel.len() - 1 - (k as usize % rel.len().min(3)))
                                .to_vec()
                        } else {
                            victim(&model, pick.wrapping_add(k.wrapping_mul(2_654_435_761)))
                        };
                        expected += usize::from(model.remove(&row));
                        gone.push(&row);
                    }
                    prop_assert_eq!(rel.retract_rows(&gone), expected);
                    expected
                }
            };

            prop_assert_eq!(rel.generation(), generation + u64::from(removed > 0));
            prop_assert_eq!(rel.len(), model.len());
            let expected: Vec<Vec<Sym>> = model.iter().cloned().collect();
            prop_assert_eq!(rel.to_sorted_vec(), expected);
        }
        // The dedup index followed every move: each survivor is found and
        // still rejected as a duplicate, nothing else is.
        for row in &model {
            prop_assert!(rel.contains(row));
            prop_assert!(!rel.push(row));
        }
        prop_assert_eq!(rel.len(), model.len());
    }

    /// Builds that a `JoinCache` retracts *through* answer every probe
    /// exactly like a build made from scratch over the final relation —
    /// whether they were current when the retraction arrived, behind on
    /// appends, or behind on generation (rows retracted behind the cache's
    /// back), with one or two builds over the relation, across a
    /// reallocation of its row storage, and with every row forced into a
    /// single bucket chain.
    #[test]
    fn cache_retracted_builds_equal_fresh_builds(
        near_growth in any::<bool>(),
        one_chain in any::<bool>(),
        ops in proptest::collection::vec((0u8..8, any::<u32>(), 1usize..7), 1..50),
    ) {
        use gsm_core::relation::join::JoinBuild;

        let keys: u32 = if one_chain { 1 } else { 9 };
        let row_of = |i: u32| [Sym(i % keys), Sym(i), Sym(i % 4)];
        let mut rel = Relation::new(3);
        let mut next = 0u32;
        let mut live: Vec<u32> = Vec::new();
        // 1362 rows of arity 3 sit 10 syms short of a 4096-sym capacity.
        let prefill = if near_growth { 1362 } else { 5 };
        for _ in 0..prefill {
            rel.push(&row_of(next));
            live.push(next);
            next += 1;
        }
        let mut cache = JoinCache::new();
        cache.get_or_build(&rel, &[0]);
        let mut bypassed = false;

        for (kind, pick, count) in ops {
            let take = |live: &mut Vec<u32>, k: usize| -> Relation {
                let mut gone = Relation::new(3);
                for j in 0..k {
                    if live.is_empty() {
                        break;
                    }
                    let at = (pick as usize).wrapping_add(j * 7919) % live.len();
                    gone.push(&row_of(live.swap_remove(at)));
                }
                gone.push(&row_of(4_000_000 + pick % 10)); // absent
                gone
            };
            match kind {
                0 | 1 => {
                    // Appends the builds do not see yet.
                    for _ in 0..count {
                        rel.push(&row_of(next));
                        live.push(next);
                        next += 1;
                    }
                }
                2 => {
                    cache.get_or_build(&rel, &[0]);
                }
                3 => {
                    // A second build over the same relation.
                    cache.get_or_build(&rel, &[2, 0]);
                }
                4 => {
                    // Behind the cache's back: its builds go stale.
                    let gone = take(&mut live, count);
                    bypassed |= rel.retract_rows(&gone) > 0;
                }
                _ => {
                    let gone = take(&mut live, count);
                    let expected = gone.len() - 1;
                    prop_assert_eq!(cache.retract_rows(&mut rel, &gone), expected);
                    prop_assert_eq!(rel.len(), live.len());
                }
            }
        }

        for cols in [vec![0], vec![2, 0]] {
            let fresh = JoinBuild::build(&rel, &cols);
            let cached = cache.get_or_build(&rel, &cols);
            prop_assert_eq!(cached.rows_indexed(), rel.len());
            prop_assert_eq!(cached.generation(), rel.generation());
            for k in 0..keys + 1 {
                for m in 0..4 {
                    let key: Vec<Sym> = match cols.len() {
                        1 => vec![Sym(k)],
                        _ => vec![Sym(m), Sym(k)],
                    };
                    let mut a = cached.probe(&rel, &key);
                    let mut b = fresh.probe(&rel, &key);
                    a.sort_unstable();
                    b.sort_unstable();
                    prop_assert_eq!(a, b, "key {:?} over {:?}", key, cols);
                }
            }
        }
        if !bypassed {
            prop_assert_eq!(cache.rebuilds(), 0, "no build may start over");
        }
    }
}

/// The counts [`join_covering_paths`] must produce, the long way: per query,
/// every changed path's [`join_paths`] result, canonicalized and unioned.
fn union_reference(
    queries: &[Vec<usize>],
    vertices: &[Vec<usize>],
    delta_of: impl Fn(usize) -> Option<Relation>,
    full_of: impl Fn(usize) -> Relation,
) -> Vec<(QueryId, u64)> {
    let mut counts = Vec::new();
    for (q, paths) in queries.iter().enumerate() {
        let mut union: Option<Relation> = None;
        for &p in paths {
            let Some(delta) = delta_of(p) else { continue };
            let others: Vec<(Relation, usize)> = paths
                .iter()
                .filter(|&&o| o != p)
                .map(|&o| (full_of(o), o))
                .collect();
            if others.iter().any(|(full, _)| full.is_empty()) {
                continue;
            }
            let mut bindings = vec![PathBinding::new(&delta, &vertices[p])];
            bindings.extend(
                others
                    .iter()
                    .map(|(full, o)| PathBinding::new(full, &vertices[*o])),
            );
            if let Some(result) = join_paths(&bindings) {
                let canon = result.canonicalize().rel;
                match &mut union {
                    None => union = Some(canon),
                    Some(acc) => {
                        acc.extend_from(&canon);
                    }
                }
            }
        }
        if let Some(n) = union.map(|u| u.len()).filter(|&n| n > 0) {
            counts.push((QueryId(q as u32), n as u64));
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The covering-path join answers the same with and without a build
    /// cache, and as the `join_paths` + `canonicalize` union, over views
    /// that grow by `push` and shrink through `JoinCache::retract_rows`
    /// between calls. Three views of arity 2–4 back four covering paths —
    /// path 3 binds view 0 a second time under its own vertices — and the
    /// vertex sequences repeat vertices at random, so some bindings are
    /// filtered and projected (and must never be cached). Query 1 is query
    /// 0's paths in reverse, so the two share views and key columns; query
    /// 2 is drawn on its own. Every answer is counted by ordered delta
    /// terms, whether a run changes one of a query's paths or several.
    #[test]
    fn covering_path_join_with_a_cache_equals_the_union_without(
        arities in proptest::collection::vec(2usize..=4, 3),
        seqs in proptest::collection::vec(proptest::collection::vec(0usize..4, 4), 4),
        first in proptest::collection::vec(0usize..4, 1..=3),
        other in proptest::collection::vec(0usize..4, 1..=3),
        initial in proptest::collection::vec((0usize..3, proptest::collection::vec(0u32..4, 4)), 0..40),
        steps in proptest::collection::vec(
            (any::<bool>(), proptest::collection::vec((0usize..3, any::<u32>(), proptest::collection::vec(0u32..4, 4)), 1..6)),
            1..10,
        ),
    ) {
        let view_of = |p: usize| if p == 3 { 0 } else { p };
        let vertices: Vec<Vec<usize>> = seqs
            .iter()
            .enumerate()
            .map(|(p, seq)| seq[..arities[view_of(p)]].to_vec())
            .collect();
        let distinct = |paths: &[usize]| {
            let mut seen = Vec::new();
            for &p in paths {
                if !seen.contains(&p) {
                    seen.push(p);
                }
            }
            seen
        };
        let query0 = distinct(&first);
        let query1: Vec<usize> = query0.iter().rev().copied().collect();
        let queries = vec![query0, query1, distinct(&other)];

        let row_of = |view: usize, values: &[u32]| -> Vec<Sym> {
            values[..arities[view]].iter().copied().map(Sym).collect()
        };
        let mut views: Vec<Relation> = arities.iter().map(|&a| Relation::new(a)).collect();
        for (v, values) in &initial {
            views[*v].push(&row_of(*v, values));
        }
        let mut cache = JoinCache::new();

        for (retract, changes) in steps {
            let mut deltas: Vec<Option<Relation>> = vec![None; views.len()];
            for (v, pick, values) in changes {
                let row = if retract {
                    if views[v].is_empty() {
                        continue;
                    }
                    views[v].row(pick as usize % views[v].len()).to_vec()
                } else {
                    let row = row_of(v, &values);
                    if !views[v].push(&row) {
                        continue;
                    }
                    row
                };
                deltas[v]
                    .get_or_insert_with(|| Relation::new(arities[v]))
                    .push(&row);
            }

            // Inserted rows are in their views already, as their tails;
            // removed ones are still there, and leave after the join.
            let positions: Vec<Vec<u32>> = views
                .iter()
                .zip(&deltas)
                .map(|(view, delta)| {
                    let mut at: Vec<u32> = delta
                        .iter()
                        .flat_map(Relation::iter)
                        .map(|row| view.position(row).unwrap() as u32)
                        .collect();
                    at.sort_unstable();
                    at
                })
                .collect();
            let path_delta = |p: usize| {
                let (v, delta) = (view_of(p), deltas[view_of(p)].as_ref()?);
                Some(if retract {
                    PathDelta::retracted(delta, &positions[v])
                } else {
                    PathDelta::inserted(delta, &views[v])
                })
            };
            let counts = |cache: Option<&mut JoinCache>| {
                let mut counts = Vec::new();
                join_covering_paths(
                    queries
                        .iter()
                        .enumerate()
                        .map(|(q, paths)| (QueryId(q as u32), paths.as_slice())),
                    |&p| vertices[p].as_slice(),
                    |&p| path_delta(p),
                    |&p| Some(&views[view_of(p)]),
                    cache,
                    &mut counts,
                );
                counts
            };
            let cached = counts(Some(&mut cache));
            let fresh = counts(None);
            let reference = union_reference(
                &queries,
                &vertices,
                |p| deltas[view_of(p)].clone(),
                |p| views[view_of(p)].clone(),
            );
            prop_assert_eq!(&cached, &fresh, "retract {}", retract);
            prop_assert_eq!(&fresh, &reference, "retract {}", retract);

            if retract {
                for (view, delta) in views.iter_mut().zip(&deltas) {
                    if let Some(delta) = delta {
                        prop_assert_eq!(cache.retract_rows(view, delta), delta.len());
                    }
                }
            }
        }

        prop_assert_eq!(cache.rebuilds(), 0, "every shrink went through the cache");
        // Only the views' builds were cached: no delta, projection or
        // intermediate result left an entry behind.
        for view in &views {
            cache.evict_relation(view.id());
        }
        prop_assert!(cache.is_empty(), "a transient relation was cached");
    }
}
