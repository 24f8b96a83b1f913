//! Cross-path evaluation: turning per-path materialized views into query
//! embeddings.
//!
//! Every engine ends the answering phase the same way (Fig. 8, lines 8–13 of
//! the paper): the materialized views of a query's covering paths are joined
//! on the query vertices they share, after enforcing any repeated vertices
//! *within* a path. This module implements that final stage once, so TRIC
//! and the baselines differ only in how the per-path relations are produced.

use std::borrow::Cow;

use super::cache::JoinCache;
use super::join::{probe_count, probe_join, JoinBuild, Version};
use super::Relation;
use crate::engine::QueryId;
use crate::interner::Sym;
use crate::query::pattern::QVertexId;

/// A per-path relation together with the query vertex each column binds,
/// read at one version: all of its rows, or (inside the covering-path join)
/// the rows it held before or after a run.
///
/// The relation and vertex sequence are borrowed: bindings are built per
/// affected path on every update, so they must not copy the path's vertex
/// sequence (or worse, its relation) just to describe it.
#[derive(Debug, Clone, Copy)]
pub struct PathBinding<'a> {
    /// The path's materialized view (or delta).
    pub rel: &'a Relation,
    /// For each column of `rel`, the query vertex it binds. Columns may
    /// repeat a vertex (e.g. a path that traverses a cycle).
    pub vertices: &'a [QVertexId],
    /// Which rows of `rel` the join reads: all of them for a binding made
    /// by [`PathBinding::new`]; the covering-path join reads the other
    /// changed paths of a query at their old or new version
    /// ([`join_covering_paths`]).
    pub(crate) version: Version<'a>,
}

impl<'a> PathBinding<'a> {
    /// Creates a binding over every row of `rel`; the number of vertices
    /// must match the arity.
    pub fn new(rel: &'a Relation, vertices: &'a [QVertexId]) -> Self {
        assert_eq!(rel.arity(), vertices.len());
        PathBinding {
            rel,
            vertices,
            version: Version::All,
        }
    }

    /// True if the bound version holds no rows.
    pub fn is_empty(&self) -> bool {
        self.version.len(self.rel) == 0
    }
}

/// A relation over query vertices: the result of joining path bindings.
#[derive(Debug, Clone)]
pub struct VertexRelation {
    /// The embeddings found.
    pub rel: Relation,
    /// Query vertex bound by each column of `rel`.
    pub vertices: Vec<QVertexId>,
}

impl VertexRelation {
    /// Re-orders columns so vertices appear in ascending order — a canonical
    /// form that allows embeddings from different evaluation orders to be
    /// unioned and compared.
    pub fn canonicalize(&self) -> VertexRelation {
        let mut order: Vec<usize> = (0..self.vertices.len()).collect();
        order.sort_by_key(|&i| self.vertices[i]);
        let rel = self.rel.project(&order);
        let vertices = order.iter().map(|&i| self.vertices[i]).collect();
        VertexRelation { rel, vertices }
    }
}

/// A normalised binding: the relation and vertices are borrowed straight
/// from the input when no repeated-vertex work was needed (the common case),
/// and owned only when a selection/projection actually had to materialise
/// rows.
#[derive(Debug, Clone)]
struct Normalised<'a> {
    rel: Cow<'a, Relation>,
    /// The rows of `rel` the join reads.
    version: Version<'a>,
    vertices: Cow<'a, [QVertexId]>,
    /// True when a build over `rel` may be cached: a long-lived full view
    /// passed through unchanged. Deltas, filtered/projected copies and
    /// intermediate results are transient, and their never-reused ids would
    /// only leak cache entries.
    cacheable: bool,
}

impl Normalised<'_> {
    /// Number of rows the join reads.
    fn len(&self) -> usize {
        self.version.len(&self.rel)
    }
}

/// Normalises a single path binding: enforce repeated vertices (selection)
/// and project to one column per distinct vertex (first occurrence order).
/// Bindings without repeated vertices — the overwhelming majority, told
/// apart by comparing the binding's few vertices pairwise — are passed
/// through without copying a single row or vertex, keep their version, and
/// stay cacheable when the binding is `long_lived`. A filtered copy holds
/// exactly the rows of the binding's version, so it reads all of itself.
fn normalise<'a>(binding: &PathBinding<'a>, long_lived: bool) -> Normalised<'a> {
    let vertices = binding.vertices;
    if (1..vertices.len()).all(|c| !vertices[..c].contains(&vertices[c])) {
        return Normalised {
            rel: Cow::Borrowed(binding.rel),
            version: binding.version,
            vertices: Cow::Borrowed(vertices),
            cacheable: long_lived,
        };
    }
    // A row survives when every column equals its vertex's first column,
    // and is projected onto the first columns. Equal columns make that
    // projection injective on the survivors, so the copy is distinct by
    // construction.
    let first: Vec<usize> = vertices
        .iter()
        .map(|v| vertices.iter().position(|x| x == v).expect("present"))
        .collect();
    let cols: Vec<usize> = (0..vertices.len()).filter(|&c| first[c] == c).collect();
    let mut rel = Relation::new_distinct(cols.len());
    let mut row_buf = vec![Sym(0); cols.len()];
    for range in binding.version.ranges(binding.rel.len()) {
        for row in binding.rel.iter_range(range) {
            if row.iter().zip(&first).all(|(value, &f)| *value == row[f]) {
                for (slot, &c) in row_buf.iter_mut().zip(&cols) {
                    *slot = row[c];
                }
                rel.append_distinct(&row_buf);
            }
        }
    }
    Normalised {
        rel: Cow::Owned(rel),
        version: Version::All,
        vertices: cols.iter().map(|&c| vertices[c]).collect(),
        cacheable: false,
    }
}

/// What [`join_bindings`] returns: the joined embeddings, or only how many
/// there are.
enum Joined {
    Rows(VertexRelation),
    Count(usize),
}

/// Joins all path bindings of a query into a single relation over query
/// vertices. Returns `None` as soon as any intermediate result is empty.
///
/// The join order is greedy: start from the smallest normalised relation and
/// repeatedly join the remaining relation that shares at least one vertex
/// with the accumulated result (falling back to a cross product only for
/// degenerate inputs, which validated query patterns never produce).
pub fn join_paths(bindings: &[PathBinding<'_>]) -> Option<VertexRelation> {
    match join_bindings(bindings.iter().copied(), None, false)? {
        Joined::Rows(result) => Some(result),
        Joined::Count(_) => unreachable!("join_bindings counts only when asked to"),
    }
}

/// [`join_paths`], probing cached builds where it may, or — with `count` —
/// only the size of its result, without building the last step's output: a
/// join of sets is a set, so the last step's probe hits are the distinct
/// embeddings.
///
/// Every binding is read at its version: the first join step iterates the
/// rows of the accumulator's version, and every step keeps only the probe
/// hits inside the version of the relation it builds over. A cached build
/// always indexes a whole view, so one build serves every version of it.
///
/// With a `cache`, every binding but the first must be a long-lived
/// relation — a materialized view whose [`Relation::id`] names it for as
/// long as the cache lives, maintained through the cache — and a step that
/// builds over one of them passed through unchanged probes its cached build
/// ([`JoinCache::get_or_build`]) instead of hashing the whole view again.
/// The first binding (the delta) and bindings filtered/projected for a
/// repeated vertex are transient and always get a fresh build.
fn join_bindings<'b>(
    bindings: impl IntoIterator<Item = PathBinding<'b>>,
    mut cache: Option<&mut JoinCache>,
    count: bool,
) -> Option<Joined> {
    let mut normalised: Vec<Normalised<'b>> = bindings
        .into_iter()
        .enumerate()
        .map(|(i, binding)| normalise(&binding, i > 0))
        .collect();
    if normalised.is_empty() || normalised.iter().any(|n| n.len() == 0) {
        return None;
    }
    // Start from the smallest relation.
    normalised.sort_by_key(Normalised::len);
    let mut acc = normalised.remove(0);

    while !normalised.is_empty() {
        // Pick the relation sharing the most vertices with the accumulator,
        // preferring smaller relations on ties.
        let (idx, _) = normalised
            .iter()
            .enumerate()
            .max_by_key(|(_, n)| {
                let shared = n
                    .vertices
                    .iter()
                    .filter(|v| acc.vertices.contains(v))
                    .count();
                (shared, usize::MAX - n.len())
            })
            .expect("non-empty");
        let next = normalised.remove(idx);

        let shared: Vec<QVertexId> = next
            .vertices
            .iter()
            .copied()
            .filter(|v| acc.vertices.contains(v))
            .collect();
        let left_keys: Vec<usize> = shared
            .iter()
            .map(|v| acc.vertices.iter().position(|x| x == v).unwrap())
            .collect();
        let right_keys: Vec<usize> = shared
            .iter()
            .map(|v| next.vertices.iter().position(|x| x == v).unwrap())
            .collect();

        // No shared vertex means a cross product: the hash join on zero
        // columns (all rows share the empty key).
        let fresh;
        let build = match cache.as_deref_mut() {
            Some(cache) if next.cacheable => cache.get_or_build(&next.rel, &right_keys),
            _ => {
                fresh = JoinBuild::build(&next.rel, &right_keys);
                &fresh
            }
        };
        let (left, right) = ((&*acc.rel, acc.version), (&*next.rel, next.version));
        if count && normalised.is_empty() {
            let hits = probe_count(left, right, &left_keys, build);
            return (hits > 0).then_some(Joined::Count(hits));
        }
        let joined = probe_join(left, right, &left_keys, build);
        if joined.is_empty() {
            return None;
        }
        // The join output is the left columns then the right columns minus
        // the key columns; normalise() already removed duplicate vertices
        // within a binding, so columns line up with `vertices`.
        let mut vertices = acc.vertices.into_owned();
        vertices.extend(
            next.vertices
                .iter()
                .copied()
                .filter(|v| !shared.contains(v)),
        );
        acc = Normalised {
            rel: Cow::Owned(joined),
            version: Version::All,
            vertices: Cow::Owned(vertices),
            cacheable: false,
        };
    }
    Some(if count {
        Joined::Count(acc.len())
    } else {
        debug_assert_eq!(
            acc.version,
            Version::All,
            "join_paths reads whole relations"
        );
        Joined::Rows(VertexRelation {
            rel: acc.rel.into_owned(),
            vertices: acc.vertices.into_owned(),
        })
    })
}

/// One covering path's change in a run: its delta rows, and which rows of
/// the path's full relation — the live view the delta changes — make up the
/// view's versions before (`old`) and after (`new`) the run.
#[derive(Debug, Clone, Copy)]
pub struct PathDelta<'a> {
    /// The rows the run adds to, or removes from, the full relation.
    rows: &'a Relation,
    /// The full relation's rows before the run.
    old: Version<'a>,
    /// The full relation's rows after the run.
    new: Version<'a>,
}

impl<'a> PathDelta<'a> {
    /// An insertion run appended `rows` to `full`, whose tail they are, in
    /// order: the old version is the prefix below them.
    pub fn inserted(rows: &'a Relation, full: &Relation) -> Self {
        let old_len = full.len() - rows.len();
        debug_assert!(
            full.iter_from(old_len).eq(rows.iter()),
            "an insertion delta must be its view's tail"
        );
        PathDelta {
            rows,
            old: Version::Below(old_len),
            new: Version::All,
        }
    }

    /// A retraction run is about to remove `rows` from the full relation,
    /// which still holds them at `positions` (ascending): the new version
    /// is the relation without them.
    pub fn retracted(rows: &'a Relation, positions: &'a [u32]) -> Self {
        debug_assert_eq!(rows.len(), positions.len());
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        PathDelta {
            rows,
            old: Version::All,
            new: Version::Without(positions),
        }
    }
}

/// The covering-path delta join (Fig. 8, lines 8–13, restricted to the
/// embeddings an update run changes) — the one copy every staged engine
/// answers with. Appends the non-zero `(query, changed embeddings)` counts
/// to `counts`, a buffer the caller owns (see
/// [`FlushCounts`](crate::engine::FlushCounts)).
///
/// Every answer is a count, by ordered delta terms (the telescoping identity
/// of Gupta, Mumick & Subrahmanian; the "delta queries" of continuous
/// subgraph matching). For an affected query whose changed paths (`delta_of`)
/// are i₁ < i₂ < … in `paths` order, term i joins Δᵢ with
/// - the **new** version of every changed path before i,
/// - the **old** version of every changed path after i,
/// - the full relation (`full_of`) of every unchanged path,
///
/// and counts its last probe's hits ([`join_paths`]' order; a join of sets
/// is a set). The terms are disjoint — an embedding is counted by the term
/// of the first changed path whose delta it uses — and their sizes sum to
/// the exact change, so nothing is materialised or deduplicated; a query
/// with one changed path is the one-term case. `None` or an empty relation
/// from `full_of` means the path holds no tuples and the query cannot
/// match.
///
/// The sign lives with the caller, in each [`PathDelta`]: inserted rows
/// against post-insert views count new embeddings
/// ([`PathDelta::inserted`]), removed rows against pre-removal views
/// disappearing ones ([`PathDelta::retracted`]).
///
/// With a `cache` (TRIC+), the full relations must be the engine's live
/// views, maintained through that cache: each join step over one of them
/// probes a cached, incrementally maintained build of the whole view (a
/// version only filters its hits), so queries sharing an end node and a
/// join vertex share one build within a batch and across batches. Plain
/// TRIC and the baselines pass `None` and build what they probe afresh.
///
/// `P` is whatever the engine keeps per covering path (a trie end node, a
/// shard's path state); `vertices_of` names the query vertex each of its
/// view's columns binds.
pub fn join_covering_paths<'a, P: 'a>(
    queries: impl Iterator<Item = (QueryId, &'a [P])>,
    vertices_of: impl Fn(&'a P) -> &'a [QVertexId],
    delta_of: impl Fn(&'a P) -> Option<PathDelta<'a>>,
    full_of: impl Fn(&'a P) -> Option<&'a Relation>,
    mut cache: Option<&mut JoinCache>,
    counts: &mut Vec<(QueryId, u64)>,
) {
    for (query, paths) in queries {
        // Some path has no tuples yet, so the query cannot match. (A
        // changed path's full relation holds its delta, so this is an
        // unchanged one.)
        if paths
            .iter()
            .any(|path| full_of(path).is_none_or(Relation::is_empty))
        {
            continue;
        }
        let mut count = 0;
        for (i, path) in paths.iter().enumerate() {
            let Some(delta) = delta_of(path) else {
                continue; // this covering path did not change
            };
            // Term i: Δᵢ, then every other path at its version; the
            // bindings stream straight into the join, nothing is collected.
            let others = paths.iter().enumerate().filter(|&(j, _)| j != i);
            let bindings = std::iter::once(PathBinding::new(delta.rows, vertices_of(path))).chain(
                others.map(|(j, other)| {
                    let full = full_of(other).expect("checked above");
                    let version = match delta_of(other) {
                        None => Version::All,
                        Some(d) if j < i => d.new,
                        Some(d) => d.old,
                    };
                    PathBinding {
                        version,
                        ..PathBinding::new(full, vertices_of(other))
                    }
                }),
            );
            if let Some(Joined::Count(hits)) = join_bindings(bindings, cache.as_deref_mut(), true) {
                count += hits;
            }
        }
        if count > 0 {
            counts.push((query, count as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Sym;

    fn s(v: u32) -> Sym {
        Sym(v)
    }

    fn rel(arity: usize, rows: &[&[u32]]) -> Relation {
        let mut r = Relation::new(arity);
        for row in rows {
            let row: Vec<Sym> = row.iter().map(|&v| s(v)).collect();
            r.push(&row);
        }
        r
    }

    #[test]
    fn single_path_passthrough() {
        let r = rel(3, &[&[1, 2, 3], &[4, 5, 6]]);
        let b = PathBinding::new(&r, &[0, 1, 2]);
        let out = join_paths(&[b]).unwrap();
        assert_eq!(out.rel.len(), 2);
        assert_eq!(out.vertices, vec![0, 1, 2]);
    }

    #[test]
    fn repeated_vertex_within_path_is_enforced() {
        // Path visits vertices [0, 1, 0]: only rows with col0 == col2 survive.
        let r = rel(3, &[&[1, 2, 1], &[1, 2, 3]]);
        let b = PathBinding::new(&r, &[0, 1, 0]);
        let out = join_paths(&[b]).unwrap();
        assert_eq!(out.rel.len(), 1);
        assert_eq!(out.vertices, vec![0, 1]);
        assert_eq!(out.rel.row(0), &[s(1), s(2)]);
    }

    #[test]
    fn every_repeated_vertex_group_is_enforced() {
        // Vertices [0, 1, 0, 1]: a row survives only when col0 == col2 and
        // col1 == col3, and is projected onto the first occurrences.
        let r = rel(
            4,
            &[&[1, 2, 1, 2], &[1, 2, 1, 3], &[1, 2, 3, 2], &[4, 4, 4, 4]],
        );
        let b = PathBinding::new(&r, &[0, 1, 0, 1]);
        let out = join_paths(&[b]).unwrap();
        assert_eq!(out.vertices, vec![0, 1]);
        assert_eq!(out.rel.len(), 2);
        assert!(out.rel.contains(&[s(1), s(2)]));
        assert!(out.rel.contains(&[s(4), s(4)]));
    }

    #[test]
    fn two_paths_join_on_shared_vertex() {
        // Path A over vertices [0,1], path B over vertices [1,2].
        let a = rel(2, &[&[1, 2], &[3, 4]]);
        let b = rel(2, &[&[2, 10], &[9, 11]]);
        let out =
            join_paths(&[PathBinding::new(&a, &[0, 1]), PathBinding::new(&b, &[1, 2])]).unwrap();
        assert_eq!(out.rel.len(), 1);
        let canon = out.canonicalize();
        assert_eq!(canon.vertices, vec![0, 1, 2]);
        assert_eq!(canon.rel.row(0), &[s(1), s(2), s(10)]);
    }

    #[test]
    fn empty_intermediate_short_circuits() {
        let a = rel(2, &[&[1, 2]]);
        let b = rel(2, &[&[7, 8]]);
        let out = join_paths(&[PathBinding::new(&a, &[0, 1]), PathBinding::new(&b, &[1, 2])]);
        assert!(out.is_none());
    }

    #[test]
    fn empty_input_path_short_circuits() {
        let a = rel(2, &[&[1, 2]]);
        let empty = Relation::new(2);
        let out = join_paths(&[
            PathBinding::new(&a, &[0, 1]),
            PathBinding::new(&empty, &[1, 2]),
        ]);
        assert!(out.is_none());
    }

    #[test]
    fn three_paths_star_join() {
        // Star query: centre vertex 0 with leaves 1, 2, 3 — three paths.
        let p1 = rel(2, &[&[5, 10], &[6, 11]]);
        let p2 = rel(2, &[&[5, 20]]);
        let p3 = rel(2, &[&[5, 30], &[5, 31]]);
        let out = join_paths(&[
            PathBinding::new(&p1, &[0, 1]),
            PathBinding::new(&p2, &[0, 2]),
            PathBinding::new(&p3, &[0, 3]),
        ])
        .unwrap();
        // centre must be 5 ⇒ embeddings: (5,10,20,30) and (5,10,20,31)
        assert_eq!(out.rel.len(), 2);
        let canon = out.canonicalize();
        assert_eq!(canon.vertices, vec![0, 1, 2, 3]);
        assert!(canon.rel.contains(&[s(5), s(10), s(20), s(30)]));
        assert!(canon.rel.contains(&[s(5), s(10), s(20), s(31)]));
    }

    #[test]
    fn shared_vertices_across_paths_constrain_results() {
        // Paths [0,1] and [0,1] (same vertices): intersection semantics.
        let a = rel(2, &[&[1, 2], &[3, 4]]);
        let b = rel(2, &[&[3, 4], &[5, 6]]);
        let out =
            join_paths(&[PathBinding::new(&a, &[0, 1]), PathBinding::new(&b, &[0, 1])]).unwrap();
        assert_eq!(out.rel.len(), 1);
        assert_eq!(out.rel.row(0), &[s(3), s(4)]);
    }

    #[test]
    fn covering_path_join_counts_each_embedding_once_and_skips_empty_paths() {
        // Star query over vertices [0,1] and [0,2]; both paths gained the
        // row that completes embedding (5,10,20), which must count once.
        // Each delta is its view's tail, as an insertion run leaves it.
        let (pa, pb) = (rel(2, &[&[5, 10]]), rel(2, &[&[6, 21], &[5, 20]]));
        let (da, db) = (rel(2, &[&[5, 10]]), rel(2, &[&[5, 20]]));
        // (vertices, delta, full) per covering path.
        type Path<'r> = (Vec<QVertexId>, Option<&'r Relation>, &'r Relation);
        let count = |paths: &[Path<'_>]| {
            let mut counts = Vec::new();
            join_covering_paths(
                std::iter::once((QueryId(3), paths)),
                |p| p.0.as_slice(),
                |p| p.1.map(|delta| PathDelta::inserted(delta, p.2)),
                |p| Some(p.2),
                None,
                &mut counts,
            );
            counts
        };
        let both = [(vec![0, 1], Some(&da), &pa), (vec![0, 2], Some(&db), &pb)];
        assert_eq!(count(&both), vec![(QueryId(3), 1)]);
        // Only path B changed: its delta joins A's full relation.
        let one = [(vec![0, 1], None, &pa), (vec![0, 2], Some(&db), &pb)];
        assert_eq!(count(&one), vec![(QueryId(3), 1)]);
        // An empty other path means the query cannot match.
        let empty = Relation::new(2);
        let none = [(vec![0, 1], None, &empty), (vec![0, 2], Some(&db), &pb)];
        assert!(count(&none).is_empty());
    }

    /// The counts [`join_covering_paths`] must produce when every path of
    /// `queries` binds `view` and changed by `delta`, the long way: per
    /// query, every path's [`join_paths`] result against the full view,
    /// canonicalized and unioned.
    fn union_reference(
        queries: &[Vec<usize>],
        vertices: &[Vec<QVertexId>],
        delta: &Relation,
        view: &Relation,
    ) -> Vec<(QueryId, u64)> {
        let mut counts = Vec::new();
        for (q, paths) in queries.iter().enumerate() {
            let mut union: Option<Relation> = None;
            for &p in paths {
                let mut bindings = vec![PathBinding::new(delta, &vertices[p])];
                bindings.extend(
                    paths
                        .iter()
                        .filter(|&&o| o != p)
                        .map(|&o| PathBinding::new(view, &vertices[o])),
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

    #[test]
    fn ordered_delta_terms_count_what_the_union_counts_for_both_signs() {
        // Every covering path binds one view, so every run changes all of a
        // query's paths. Query 0 is a two-path star on the view; queries 1
        // and 2 pair a self-loop binding [0,0] — filtered and projected —
        // with an edge [0,1], in both orders, so the loop binding is read
        // at its old version in one and its new version in the other.
        let vertices: Vec<Vec<QVertexId>> = vec![vec![0, 1], vec![0, 2], vec![0, 0]];
        let queries: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 0], vec![0, 2]];
        let count = |delta: PathDelta<'_>, view: &Relation, cache: Option<&mut JoinCache>| {
            let mut counts = Vec::new();
            join_covering_paths(
                queries
                    .iter()
                    .enumerate()
                    .map(|(q, paths)| (QueryId(q as u32), paths.as_slice())),
                |&p| vertices[p].as_slice(),
                |_| Some(delta),
                |_| Some(view),
                cache,
                &mut counts,
            );
            counts
        };
        let mut cache = JoinCache::new();
        let mut view = rel(2, &[&[1, 1], &[2, 2], &[3, 9], &[1, 5]]);
        // A warm build on the star's join column, caught up by the insert.
        cache.get_or_build(&view, &[0]);

        // Insertion: the old version is the first 4 rows, but the loop
        // binding's filtered copy of the new view has 5 ([1,1] [2,2] [4,4]
        // [5,5] [6,6]) — a prefix bound applied after the filter would
        // count (4,4) as old.
        let inserted = rel(2, &[&[4, 4], &[5, 5], &[1, 6], &[6, 6]]);
        for row in inserted.iter() {
            assert!(view.push(row));
        }
        let delta = PathDelta::inserted(&inserted, &view);
        let expected = union_reference(&queries, &vertices, &inserted, &view);
        // Star: Σ deg² goes 6 → 14; loop pairs: 3 → 7.
        let by_hand = vec![(QueryId(0), 8), (QueryId(1), 4), (QueryId(2), 4)];
        assert_eq!(expected, by_hand);
        assert_eq!(count(delta, &view, Some(&mut cache)), expected);
        assert_eq!(count(delta, &view, None), expected);

        // Retraction, answered against the pre-removal view: the new
        // version skips the removed rows' positions.
        let removed = rel(2, &[&[6, 6], &[1, 1], &[1, 5]]);
        let mut positions: Vec<u32> = removed
            .iter()
            .map(|row| view.position(row).expect("present") as u32)
            .collect();
        positions.sort_unstable();
        let delta = PathDelta::retracted(&removed, &positions);
        let expected = union_reference(&queries, &vertices, &removed, &view);
        // Star: 14 → 5; loop pairs: 7 → 3.
        let by_hand = vec![(QueryId(0), 9), (QueryId(1), 4), (QueryId(2), 4)];
        assert_eq!(expected, by_hand);
        assert_eq!(count(delta, &view, Some(&mut cache)), expected);
        assert_eq!(count(delta, &view, None), expected);
        assert_eq!(cache.retract_rows(&mut view, &removed), 3);
        assert_eq!(cache.rebuilds(), 0);
    }

    #[test]
    fn canonicalize_sorts_vertex_columns() {
        let r = rel(2, &[&[7, 8]]);
        let out = VertexRelation {
            rel: r,
            vertices: vec![2, 0],
        };
        let canon = out.canonicalize();
        assert_eq!(canon.vertices, vec![0, 2]);
        assert_eq!(canon.rel.row(0), &[s(8), s(7)]);
    }
}
