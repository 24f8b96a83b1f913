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
use super::fasthash::FxHashMap;
use super::join::{hash_join_with_build, probe_count, JoinBuild};
use super::Relation;
use crate::engine::QueryId;
use crate::query::pattern::QVertexId;

/// A per-path relation together with the query vertex each column binds.
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
}

impl<'a> PathBinding<'a> {
    /// Creates a binding; the number of vertices must match the arity.
    pub fn new(rel: &'a Relation, vertices: &'a [QVertexId]) -> Self {
        assert_eq!(rel.arity(), vertices.len());
        PathBinding { rel, vertices }
    }

    /// True if the bound relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rel.is_empty()
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

/// A normalised binding: the relation is borrowed straight from the input
/// when no repeated-vertex work was needed (the common case), and owned only
/// when a selection/projection actually had to materialise rows.
#[derive(Debug, Clone)]
struct Normalised<'a> {
    rel: Cow<'a, Relation>,
    vertices: Vec<QVertexId>,
    /// True when a build over `rel` may be cached: a long-lived full view
    /// passed through unchanged. Deltas, filtered/projected copies and
    /// intermediate results are transient, and their never-reused ids would
    /// only leak cache entries.
    cacheable: bool,
}

/// Normalises a single path binding: enforce repeated vertices (selection)
/// and project to one column per distinct vertex (first occurrence order).
/// Bindings without repeated vertices — the overwhelming majority — are
/// passed through without copying a single row, and stay cacheable when the
/// binding is `long_lived`.
fn normalise<'a>(binding: &PathBinding<'a>, long_lived: bool) -> Normalised<'a> {
    // Find repeated vertices and the first-occurrence projection in one scan.
    let mut groups: FxHashMap<QVertexId, Vec<usize>> = FxHashMap::default();
    for (col, &v) in binding.vertices.iter().enumerate() {
        groups.entry(v).or_default().push(col);
    }
    if groups.len() == binding.vertices.len() {
        // All vertices distinct: nothing to enforce, nothing to project away.
        return Normalised {
            rel: Cow::Borrowed(binding.rel),
            vertices: binding.vertices.to_vec(),
            cacheable: long_lived,
        };
    }
    let filter_groups: Vec<Vec<usize>> = groups.values().filter(|g| g.len() > 1).cloned().collect();
    let filtered = binding.rel.filter_equal_groups(&filter_groups);
    // Project to the first occurrence of each vertex.
    let mut seen = Vec::new();
    let mut cols = Vec::new();
    for (col, &v) in binding.vertices.iter().enumerate() {
        if !seen.contains(&v) {
            seen.push(v);
            cols.push(col);
        }
    }
    Normalised {
        rel: Cow::Owned(filtered.project(&cols)),
        vertices: seen,
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
    match join_bindings(bindings, None, false)? {
        Joined::Rows(result) => Some(result),
        Joined::Count(_) => unreachable!("join_bindings counts only when asked to"),
    }
}

/// [`join_paths`], probing cached builds where it may, or — with
/// `count_only` — only the size of its result, without building the last
/// step's output: a join of sets is a set, so the last step's probe hits
/// are the distinct embeddings.
///
/// With a `cache`, every binding but the first must be a long-lived
/// relation — a materialized view whose [`Relation::id`] names it for as
/// long as the cache lives, maintained through the cache — and a step that
/// builds over one of them passed through unchanged probes its cached build
/// ([`JoinCache::get_or_build`]) instead of hashing the whole view again.
/// The first binding (the delta) and bindings filtered/projected for a
/// repeated vertex are transient and always get a fresh build.
fn join_bindings(
    bindings: &[PathBinding<'_>],
    mut cache: Option<&mut JoinCache>,
    count_only: bool,
) -> Option<Joined> {
    if bindings.is_empty() {
        return None;
    }
    let mut normalised: Vec<Normalised<'_>> = bindings
        .iter()
        .enumerate()
        .map(|(i, binding)| normalise(binding, i > 0))
        .collect();
    if normalised.iter().any(|n| n.rel.is_empty()) {
        return None;
    }
    // Start from the smallest relation.
    normalised.sort_by_key(|n| n.rel.len());
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
                (shared, usize::MAX - n.rel.len())
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
        if count_only && normalised.is_empty() {
            let hits = probe_count(&acc.rel, &next.rel, &left_keys, &right_keys, build);
            return (hits > 0).then_some(Joined::Count(hits));
        }
        let joined = hash_join_with_build(&acc.rel, &next.rel, &left_keys, &right_keys, build);
        if joined.is_empty() {
            return None;
        }
        // The join output is the left columns then the right columns minus
        // the key columns; normalise() already removed duplicate vertices
        // within a binding, so columns line up with `vertices`.
        let mut vertices = acc.vertices;
        vertices.extend(
            next.vertices
                .iter()
                .copied()
                .filter(|v| !shared.contains(v)),
        );
        acc = Normalised {
            rel: Cow::Owned(joined),
            vertices,
            cacheable: false,
        };
    }
    Some(if count_only {
        Joined::Count(acc.rel.len())
    } else {
        Joined::Rows(VertexRelation {
            rel: acc.rel.into_owned(),
            vertices: acc.vertices,
        })
    })
}

/// The covering-path delta join (Fig. 8, lines 8–13, restricted to the
/// embeddings an update batch changes) — the one copy every staged engine
/// answers with. Per affected query, each covering path that has a delta
/// (`delta_of`) is bound with the other paths' full relations (`full_of`)
/// and joined ([`join_paths`]). `None` or an empty relation from `full_of`
/// means the path holds no tuples and the query cannot match. Returns the
/// non-zero `(query, distinct embeddings)` counts.
///
/// Reports are counts, so only what must be deduplicated is materialised:
/// a query with exactly one changed path counts the probe hits of its last
/// join step (a join of sets is a set) and builds no output relation; with
/// two or more, the canonicalized results union across paths, so an
/// embedding reached through several paths' deltas counts once.
///
/// With a `cache` (TRIC+), the full relations must be the engine's live
/// views, maintained through that cache: each join step over one of them
/// probes a cached, incrementally maintained build, so queries sharing an
/// end node and a join vertex share one build within a batch and across
/// batches. Plain TRIC and the baselines pass `None` and build what they
/// probe afresh.
///
/// The sign lives with the caller: inserted rows joined against the
/// post-insert views count new embeddings, removed rows joined against the
/// pre-removal views count disappearing ones. `P` is whatever the engine
/// keeps per covering path (a trie end node, a shard's path state);
/// `vertices_of` names the query vertex each of its view's columns binds.
pub fn join_covering_paths<'a, P: 'a>(
    queries: impl Iterator<Item = (QueryId, &'a [P])>,
    vertices_of: impl Fn(&'a P) -> &'a [QVertexId],
    delta_of: impl Fn(&'a P) -> Option<&'a Relation>,
    full_of: impl Fn(&'a P) -> Option<&'a Relation>,
    mut cache: Option<&mut JoinCache>,
) -> Vec<(QueryId, u64)> {
    let mut counts: Vec<(QueryId, u64)> = Vec::new();
    let mut bindings: Vec<PathBinding<'a>> = Vec::new();
    for (query, paths) in queries {
        let count_only = paths.iter().filter(|p| delta_of(p).is_some()).count() == 1;
        let mut count = 0;
        // Distinct changed embeddings, accumulated across affected paths.
        let mut embeddings: Option<Relation> = None;
        for (i, path) in paths.iter().enumerate() {
            let Some(delta) = delta_of(path) else {
                continue; // this covering path did not change
            };
            bindings.clear();
            bindings.push(PathBinding::new(delta, vertices_of(path)));
            bindings.extend(paths.iter().enumerate().filter(|(j, _)| *j != i).map_while(
                |(_, other)| {
                    full_of(other)
                        .filter(|full| !full.is_empty())
                        .map(|full| PathBinding::new(full, vertices_of(other)))
                },
            ));
            if bindings.len() < paths.len() {
                continue; // some other path has no tuples yet
            }
            match join_bindings(&bindings, cache.as_deref_mut(), count_only) {
                Some(Joined::Count(hits)) => count = hits,
                Some(Joined::Rows(result)) => {
                    let canon = result.canonicalize().rel;
                    match &mut embeddings {
                        None => embeddings = Some(canon),
                        Some(acc) => {
                            acc.extend_from(&canon);
                        }
                    }
                }
                None => {}
            }
        }
        if let Some(emb) = embeddings {
            count = emb.len();
        }
        if count > 0 {
            counts.push((query, count as u64));
        }
    }
    counts
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
    fn covering_path_join_unions_path_deltas_and_skips_empty_paths() {
        // Star query over vertices [0,1] and [0,2]; both paths gained the
        // row that completes embedding (5,10,20), which must count once.
        let (pa, pb) = (rel(2, &[&[5, 10]]), rel(2, &[&[5, 20], &[6, 21]]));
        let (da, db) = (rel(2, &[&[5, 10]]), rel(2, &[&[5, 20]]));
        // (vertices, delta, full) per covering path.
        type Path<'r> = (Vec<QVertexId>, Option<&'r Relation>, &'r Relation);
        let count = |paths: &[Path<'_>]| {
            join_covering_paths(
                std::iter::once((QueryId(3), paths)),
                |p| p.0.as_slice(),
                |p| p.1,
                |p| Some(p.2),
                None,
            )
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
