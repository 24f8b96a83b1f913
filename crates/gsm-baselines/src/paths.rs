//! The INV/INC reference kernel: a covering path's full and per-batch delta
//! relations, re-joined from the per-edge views on every call — the work
//! TRIC's tries avoid by materializing path prefixes.

use gsm_core::interner::Sym;
use gsm_core::model::generic::GenericEdge;
use gsm_core::relation::cache::JoinCache;
use gsm_core::relation::fasthash::FxHashMap;
use gsm_core::relation::join::JoinBuild;
use gsm_core::relation::Relation;
use gsm_core::views::EdgeViewStore;

/// Extends every row of `rel` (last column = frontier vertex) to the right
/// with the matching tuples of `view` (joined on the view's source column).
/// `cache` selects between the persistent join-structure cache of the `+`
/// engine variants and a throw-away build; `buf` is caller-provided row
/// scratch so repeated extensions share one allocation.
fn extend_path_right(
    rel: &Relation,
    view: &Relation,
    cache: Option<&mut JoinCache>,
    buf: &mut Vec<Sym>,
) -> Relation {
    let out_arity = rel.arity() + 1;
    // Distinct inputs × distinct view rows keyed on the shared frontier
    // vertex yield distinct outputs; skip the dedup index.
    let mut out = Relation::new_distinct(out_arity);
    if rel.is_empty() || view.is_empty() {
        return out;
    }
    let last = rel.arity() - 1;
    buf.clear();
    buf.resize(out_arity, Sym(0));
    let build_storage;
    let build = match cache {
        Some(cache) => cache.get_or_build(view, &[0]),
        None => {
            build_storage = JoinBuild::build(view, &[0]);
            &build_storage
        }
    };
    for row in rel.iter() {
        build.probe_each(view, &[row[last]], |idx| {
            buf[..row.len()].copy_from_slice(row);
            buf[out_arity - 1] = view.row(idx)[1];
            out.append_distinct(buf);
        });
    }
    out
}

/// Extends every row of `rel` (first column = frontier vertex) to the left
/// with the matching tuples of `view` (joined on the view's target column).
fn extend_path_left(
    rel: &Relation,
    view: &Relation,
    cache: Option<&mut JoinCache>,
    buf: &mut Vec<Sym>,
) -> Relation {
    let out_arity = rel.arity() + 1;
    let mut out = Relation::new_distinct(out_arity);
    if rel.is_empty() || view.is_empty() {
        return out;
    }
    buf.clear();
    buf.resize(out_arity, Sym(0));
    let build_storage;
    let build = match cache {
        Some(cache) => cache.get_or_build(view, &[1]),
        None => {
            build_storage = JoinBuild::build(view, &[1]);
            &build_storage
        }
    };
    for row in rel.iter() {
        build.probe_each(view, &[row[0]], |idx| {
            buf[0] = view.row(idx)[0];
            buf[1..].copy_from_slice(row);
            out.append_distinct(buf);
        });
    }
    out
}

/// The **full** relation of a covering path (one column per path position),
/// joined left-to-right from the per-edge views of `views`. Returns an empty
/// relation of arity `edges.len() + 1` as soon as any view is missing or any
/// intermediate result is empty.
pub(crate) fn full_path_relation(
    views: &EdgeViewStore,
    edges: &[GenericEdge],
    mut cache: Option<&mut JoinCache>,
    buf: &mut Vec<Sym>,
) -> Relation {
    let empty = || Relation::new(edges.len() + 1);
    let Some(first) = views.get(&edges[0]) else {
        return empty();
    };
    if first.is_empty() {
        return empty();
    }
    let mut rel = first.clone();
    for e in &edges[1..] {
        let Some(view) = views.get(e) else {
            return empty();
        };
        rel = extend_path_right(&rel, view, cache.as_deref_mut(), buf);
        if rel.is_empty() {
            return empty();
        }
    }
    rel
}

/// The **delta** relation of a covering path for one batch: every path tuple
/// that uses at least one tuple of the batch's per-edge delta relations at a
/// position whose generic edge gained it. Seeds each matched position with
/// the merged edge delta and extends right then left over the post-batch
/// views — the standard incremental-join derivative, so the result is
/// exactly `full_after − full_before`. For a single-update batch the seeds
/// are one-row relations and this is the paper's per-update seeding.
///
/// The same kernel computes **deletion** deltas: called with the removed
/// rows as `edge_deltas` while `views` still holds the *pre-removal* state,
/// it yields exactly `full_before − full_after` — every path tuple that
/// used at least one removed row (set semantics make the two derivatives
/// symmetric). Engines exploit this by answering retraction batches before
/// committing them with [`EdgeViewStore::retract_deltas`].
pub(crate) fn delta_path_relation(
    views: &EdgeViewStore,
    edges: &[GenericEdge],
    edge_deltas: &FxHashMap<GenericEdge, Relation>,
    mut cache: Option<&mut JoinCache>,
    buf: &mut Vec<Sym>,
) -> Relation {
    let len = edges.len();
    let mut delta = Relation::new(len + 1);
    for pos in 0..len {
        let Some(seed) = edge_deltas.get(&edges[pos]) else {
            continue;
        };
        let mut rel = seed.clone();
        let mut ok = true;
        for e in &edges[pos + 1..] {
            match views.get(e) {
                Some(view) => rel = extend_path_right(&rel, view, cache.as_deref_mut(), buf),
                None => {
                    ok = false;
                    break;
                }
            }
            if rel.is_empty() {
                ok = false;
                break;
            }
        }
        if !ok {
            continue;
        }
        for e in edges[..pos].iter().rev() {
            match views.get(e) {
                Some(view) => rel = extend_path_left(&rel, view, cache.as_deref_mut(), buf),
                None => {
                    ok = false;
                    break;
                }
            }
            if rel.is_empty() {
                ok = false;
                break;
            }
        }
        if ok && !rel.is_empty() {
            debug_assert_eq!(rel.arity(), len + 1);
            delta.extend_from(&rel);
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsm_core::model::term::{PatternEdge, Term};
    use gsm_core::model::update::Update;

    fn ge(label: u32, src: Term, tgt: Term) -> GenericEdge {
        GenericEdge::from_pattern(&PatternEdge::new(Sym(label), src, tgt))
    }

    #[test]
    fn path_delta_equals_full_difference() {
        // Two-edge path over labels 0 and 1; stream a few batches and check
        // the documented invariant delta == full_after − full_before.
        let edges = [
            ge(0, Term::Var(0), Term::Var(1)),
            ge(1, Term::Var(1), Term::Var(2)),
        ];
        let mut views = EdgeViewStore::new();
        for e in &edges {
            views.register(*e);
        }
        let mut full = Relation::new(3);
        let batches: Vec<Vec<Update>> = vec![
            vec![Update::new(Sym(0), Sym(10), Sym(11))],
            vec![
                Update::new(Sym(1), Sym(11), Sym(12)),
                Update::new(Sym(0), Sym(9), Sym(11)),
            ],
            vec![
                Update::new(Sym(1), Sym(11), Sym(13)),
                Update::new(Sym(1), Sym(11), Sym(13)), // duplicate in batch
            ],
        ];
        let mut buf = Vec::new();
        for batch in batches {
            let before = full.to_sorted_vec();
            let deltas = views.apply_batch(&batch);
            let delta = delta_path_relation(&views, &edges, &deltas, None, &mut buf);
            full.extend_from(&delta);
            let after_expected = full_path_relation(&views, &edges, None, &mut buf).to_sorted_vec();
            assert_eq!(full.to_sorted_vec(), after_expected);
            for row in delta.iter() {
                assert!(!before.contains(&row.to_vec()), "delta row not new");
            }
        }
        // Sources {9, 10} reach 11, which reaches targets {12, 13}.
        assert_eq!(full.len(), 4);
    }

    #[test]
    fn deletion_delta_is_full_before_minus_full_after() {
        // The kernel-reuse property the deletion paths rely on: seeding
        // delta_path_relation with the removed rows over the PRE-removal
        // views yields exactly full_before − full_after.
        let mut store = EdgeViewStore::new();
        let a = ge(0, Term::Var(0), Term::Var(1));
        let b = ge(1, Term::Var(1), Term::Var(2));
        store.register(a);
        store.register(b);
        store.apply_batch(&[
            Update::new(Sym(0), Sym(1), Sym(2)),
            Update::new(Sym(0), Sym(5), Sym(2)),
            Update::new(Sym(1), Sym(2), Sym(3)),
            Update::new(Sym(1), Sym(2), Sym(4)),
        ]);
        let edges = [a, b];
        let mut buf = Vec::new();
        let full_before = full_path_relation(&store, &edges, None, &mut buf).to_sorted_vec();

        let batch = vec![Update::retraction(Sym(1), Sym(2), Sym(3))];
        let removed = store.remove_deltas(&batch);
        let deletion_delta = delta_path_relation(&store, &edges, &removed, None, &mut buf);

        store.retract_deltas(&removed, None);
        let full_after = full_path_relation(&store, &edges, None, &mut buf).to_sorted_vec();

        let mut expected: Vec<Vec<Sym>> = full_before
            .iter()
            .filter(|row| !full_after.contains(row))
            .cloned()
            .collect();
        expected.sort();
        assert_eq!(deletion_delta.to_sorted_vec(), expected);
        assert_eq!(deletion_delta.len(), 2, "both 3-paths through (2,3) gone");
    }
}
