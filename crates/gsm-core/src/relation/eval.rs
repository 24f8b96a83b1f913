//! Cross-path evaluation: turning per-path materialized views into query
//! embeddings.
//!
//! Every engine ends the answering phase the same way (Fig. 8, lines 8–13 of
//! the paper): the materialized views of a query's covering paths are joined
//! on the query vertices they share, after enforcing any repeated vertices
//! *within* a path. This module implements that final stage once, so TRIC
//! and the baselines differ only in how the per-path relations are produced.

use std::borrow::Cow;

use super::fasthash::FxHashMap;
use super::join::hash_join_prefix;
use super::Relation;
use crate::query::pattern::QVertexId;

/// A per-path relation together with the query vertex each column binds.
///
/// The relation and vertex sequence are borrowed: bindings are built per
/// affected path on every update, so they must not copy the path's vertex
/// sequence (or worse, its relation) just to describe it. A binding may
/// additionally be **version-bounded** ([`PathBinding::at_version`]): only
/// the rows below the watermark participate in joins, which is how the
/// deferred answering phase of the pipelined executor joins a batch's
/// deltas against frozen snapshots of the other covering paths' insert-only
/// views (see [`Relation::version`]).
#[derive(Debug, Clone, Copy)]
pub struct PathBinding<'a> {
    /// The path's materialized view (or delta).
    pub rel: &'a Relation,
    /// For each column of `rel`, the query vertex it binds. Columns may
    /// repeat a vertex (e.g. a path that traverses a cycle).
    pub vertices: &'a [QVertexId],
    /// Number of leading rows of `rel` visible to the join (always
    /// `<= rel.len()`); `rel.len()` for an unbounded binding.
    pub limit: usize,
}

impl<'a> PathBinding<'a> {
    /// Creates an unbounded binding; the number of vertices must match the
    /// arity.
    pub fn new(rel: &'a Relation, vertices: &'a [QVertexId]) -> Self {
        Self::at_version(rel, vertices, rel.len())
    }

    /// Creates a binding frozen at a version watermark: only the first
    /// `version` rows of `rel` participate (clamped to the current length).
    pub fn at_version(rel: &'a Relation, vertices: &'a [QVertexId], version: usize) -> Self {
        assert_eq!(rel.arity(), vertices.len());
        PathBinding {
            rel,
            vertices,
            limit: version.min(rel.len()),
        }
    }

    /// True if no rows are visible to the join.
    pub fn is_empty(&self) -> bool {
        self.limit == 0
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
/// when a selection/projection actually had to materialise rows. `limit`
/// carries the binding's version bound through the join pipeline (it equals
/// the relation's length for owned intermediates, which are built already
/// bounded).
#[derive(Debug, Clone)]
struct Normalised<'a> {
    rel: Cow<'a, Relation>,
    vertices: Vec<QVertexId>,
    limit: usize,
}

/// Normalises a single path binding: enforce repeated vertices (selection)
/// and project to one column per distinct vertex (first occurrence order).
/// Bindings without repeated vertices — the overwhelming majority — are
/// passed through without copying a single row; the version bound of the
/// binding is respected in either case.
fn normalise<'a>(binding: &PathBinding<'a>) -> Normalised<'a> {
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
            limit: binding.limit,
        };
    }
    let filter_groups: Vec<Vec<usize>> = groups.values().filter(|g| g.len() > 1).cloned().collect();
    // Bounded selection: only the rows below the binding's watermark are
    // considered (the materialised result is then unbounded by construction).
    let filtered = binding
        .rel
        .filter_equal_groups_prefix(&filter_groups, binding.limit);
    // Project to the first occurrence of each vertex.
    let mut seen = Vec::new();
    let mut cols = Vec::new();
    for (col, &v) in binding.vertices.iter().enumerate() {
        if !seen.contains(&v) {
            seen.push(v);
            cols.push(col);
        }
    }
    let projected = filtered.project(&cols);
    let limit = projected.len();
    Normalised {
        rel: Cow::Owned(projected),
        vertices: seen,
        limit,
    }
}

/// Joins all path bindings of a query into a single relation over query
/// vertices. Returns `None` as soon as any intermediate result is empty.
///
/// The join order is greedy: start from the smallest normalised relation and
/// repeatedly join the remaining relation that shares at least one vertex
/// with the accumulated result (falling back to a cross product only for
/// degenerate inputs, which validated query patterns never produce).
pub fn join_paths(bindings: &[PathBinding<'_>]) -> Option<VertexRelation> {
    if bindings.is_empty() {
        return None;
    }
    let mut normalised: Vec<Normalised<'_>> = bindings.iter().map(normalise).collect();
    if normalised.iter().any(|n| n.limit == 0) {
        return None;
    }
    // Start from the smallest relation.
    normalised.sort_by_key(|n| n.limit);
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
                (shared, usize::MAX - n.limit)
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

        let joined = if shared.is_empty() {
            // Cross product: join on zero columns. Implemented by a nested
            // loop through the hash join with an empty key (all rows share
            // the empty key).
            hash_join_prefix(&acc.rel, acc.limit, &next.rel, next.limit, &[], &[])
        } else {
            hash_join_prefix(
                &acc.rel,
                acc.limit,
                &next.rel,
                next.limit,
                &left_keys,
                &right_keys,
            )
        };
        if joined.is_empty() {
            return None;
        }
        let mut vertices = acc.vertices.clone();
        vertices.extend(
            next.vertices
                .iter()
                .copied()
                .filter(|v| !shared.contains(v)),
        );
        // The join output: left columns then right columns minus key cols —
        // but right may still contain a *duplicate* vertex under a different
        // column if the vertex appeared twice; normalise() already removed
        // duplicates, so columns line up with `vertices`.
        let limit = joined.len();
        acc = Normalised {
            rel: Cow::Owned(joined),
            vertices,
            limit,
        };
    }
    // Single-binding passthrough: a version-bounded borrowed binding must
    // not leak rows past its watermark when materialised.
    let rel = if acc.limit < acc.rel.len() {
        let mut cut = Relation::new(acc.rel.arity());
        for row in acc.rel.iter().take(acc.limit) {
            cut.push(row);
        }
        cut
    } else {
        acc.rel.into_owned()
    };
    Some(VertexRelation {
        rel,
        vertices: acc.vertices,
    })
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
    fn version_bounded_bindings_ignore_rows_past_the_watermark() {
        // Path A over [0,1] with 2 rows; path B over [1,2] grows from 1 to 3
        // rows. A binding frozen at version 1 of B must join as if B still
        // had one row, whatever was appended after the watermark.
        let a = rel(2, &[&[1, 2], &[3, 9]]);
        let mut b = rel(2, &[&[2, 10]]);
        let v = b.version();
        b.push(&[s(2), s(11)]); // appended after the watermark
        b.push(&[s(9), s(12)]);

        let bounded = join_paths(&[
            PathBinding::new(&a, &[0, 1]),
            PathBinding::at_version(&b, &[1, 2], v),
        ])
        .unwrap();
        assert_eq!(bounded.rel.len(), 1, "only the pre-watermark row joins");
        assert_eq!(bounded.canonicalize().rel.row(0), &[s(1), s(2), s(10)]);

        // Unbounded sees all three rows of B: (1,2,10), (1,2,11), (3,9,12).
        let full =
            join_paths(&[PathBinding::new(&a, &[0, 1]), PathBinding::new(&b, &[1, 2])]).unwrap();
        assert_eq!(full.rel.len(), 3);

        // A zero-version binding short-circuits like an empty relation.
        assert!(join_paths(&[
            PathBinding::new(&a, &[0, 1]),
            PathBinding::at_version(&b, &[1, 2], 0),
        ])
        .is_none());

        // Single bounded binding: the passthrough must truncate.
        let single = join_paths(&[PathBinding::at_version(&b, &[1, 2], v)]).unwrap();
        assert_eq!(single.rel.len(), 1);
        assert_eq!(single.rel.row(0), &[s(2), s(10)]);

        // Bounded binding with a repeated vertex: selection is bounded too.
        let mut loops = rel(2, &[&[4, 4]]);
        let lv = loops.version();
        loops.push(&[s(5), s(5)]);
        let looped = join_paths(&[PathBinding::at_version(&loops, &[7, 7], lv)]).unwrap();
        assert_eq!(looped.rel.len(), 1);
        assert_eq!(looped.rel.row(0), &[s(4)]);
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
