//! The shared per-edge materialized-view store.
//!
//! Every algorithm of the paper maintains, for each distinct (generic) query
//! edge appearing in the query database, a materialized view `matV[e]`
//! containing all updates that satisfy that edge (Section 4.1,
//! "Materialization"). This store is the common implementation: engines
//! register the generic edges of their query set and feed updates; the store
//! routes each update to the affected views with O(1) hash lookups.

use std::collections::HashMap;

use crate::interner::Sym;
use crate::memory::HeapSize;
use crate::model::generic::GenericEdge;
use crate::model::update::Update;
use crate::relation::cache::JoinCache;
use crate::relation::fasthash::FxHashMap;
use crate::relation::join::JoinBuild;
use crate::relation::Relation;

/// Per-generic-edge materialized views.
#[derive(Debug, Default)]
pub struct EdgeViewStore {
    views: HashMap<GenericEdge, Relation>,
}

impl EdgeViewStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures a view exists for `edge` (idempotent). Views always have two
    /// columns: the concrete source and target vertices of matching updates.
    pub fn register(&mut self, edge: GenericEdge) {
        self.views.entry(edge).or_insert_with(|| Relation::new(2));
    }

    /// Registers a view for `edge` and replays `source`'s rows into it —
    /// the catch-up path for views created mid-stream (e.g. a shard whose
    /// spanning view must see history that was routed before the owning
    /// query registered). Rows already present are absorbed by the dedup
    /// push, so backfilling is idempotent and safe to interleave with a
    /// view that independently received some of the same history. Returns
    /// the number of rows actually added.
    pub fn backfill_from(&mut self, edge: GenericEdge, source: &Relation) -> usize {
        self.register(edge);
        let view = self.views.get_mut(&edge).expect("just registered");
        let mut added = 0;
        for row in source.iter() {
            if view.push(row) {
                added += 1;
            }
        }
        added
    }

    /// True if a view is registered for `edge`.
    pub fn is_registered(&self, edge: &GenericEdge) -> bool {
        self.views.contains_key(edge)
    }

    /// The view of `edge`, if registered.
    pub fn get(&self, edge: &GenericEdge) -> Option<&Relation> {
        self.views.get(edge)
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True if no view is registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Routes an update to every registered view it satisfies and appends the
    /// `(src, tgt)` tuple. Returns the generic edges whose view actually
    /// gained a new tuple (an exact duplicate of an earlier update leaves all
    /// views unchanged and therefore cannot produce new embeddings).
    pub fn apply_update(&mut self, u: &Update) -> Vec<GenericEdge> {
        debug_assert!(
            !u.is_retraction(),
            "retractions route through remove_deltas/retract_deltas"
        );
        let row: [Sym; 2] = [u.src, u.tgt];
        let mut affected = Vec::new();
        for shape in GenericEdge::shapes_of_update(u) {
            if let Some(view) = self.views.get_mut(&shape) {
                if view.push(&row) {
                    affected.push(shape);
                }
            }
        }
        affected
    }

    /// Routes a whole batch of updates, returning for every affected generic
    /// edge the **delta relation** of the batch: the `(src, tgt)` tuples that
    /// were actually new for that edge's view (exact duplicates — of earlier
    /// stream history or of an earlier update in the same batch — are
    /// absorbed exactly as they would be one at a time). Routing walks the
    /// generic-edge shapes of each update once, so the per-edge hash lookups
    /// are shared across the whole batch instead of being re-done per call
    /// site downstream.
    pub fn apply_batch(&mut self, updates: &[Update]) -> FxHashMap<GenericEdge, Relation> {
        let mut deltas: FxHashMap<GenericEdge, Relation> = FxHashMap::default();
        for u in updates {
            debug_assert!(
                !u.is_retraction(),
                "retractions route through remove_deltas/retract_deltas"
            );
            let row: [Sym; 2] = [u.src, u.tgt];
            for shape in GenericEdge::shapes_of_update(u) {
                if let Some(view) = self.views.get_mut(&shape) {
                    if view.push(&row) {
                        // The view accepted the row as new, so it cannot
                        // repeat within this batch's delta either — the
                        // delta skips the dedup index.
                        deltas
                            .entry(shape)
                            .or_insert_with(|| Relation::new_distinct(2))
                            .append_distinct(&row);
                    }
                }
            }
        }
        deltas
    }

    /// Routes a batch of **retractions** against the *pre-removal* state,
    /// returning for every affected generic edge the rows its view will
    /// lose: the `(src, tgt)` tuples of retracted updates that are actually
    /// present in that view (retracting an absent edge is a no-op;
    /// duplicate retractions within the batch are absorbed). The store is
    /// **not** modified — engines answer their deletion joins against the
    /// pre-removal views first and then commit with
    /// [`retract_deltas`](EdgeViewStore::retract_deltas).
    pub fn remove_deltas(&self, updates: &[Update]) -> FxHashMap<GenericEdge, Relation> {
        let mut deltas: FxHashMap<GenericEdge, Relation> = FxHashMap::default();
        for u in updates {
            debug_assert!(u.is_retraction(), "remove_deltas takes retractions");
            let row: [Sym; 2] = [u.src, u.tgt];
            for shape in GenericEdge::shapes_of_update(u) {
                if let Some(view) = self.views.get(&shape) {
                    if view.contains(&row) {
                        // The per-edge delta is indexed so a doubly-retracted
                        // edge contributes one removed row, not two.
                        deltas
                            .entry(shape)
                            .or_insert_with(|| Relation::new(2))
                            .push(&row);
                    }
                }
            }
        }
        deltas
    }

    /// Commits a retraction batch: removes every delta row from its view,
    /// compacting the storage (see [`Relation::retract_rows`]). Pass the
    /// map produced by [`remove_deltas`](EdgeViewStore::remove_deltas)
    /// after all pre-removal answering is done.
    pub fn retract_deltas(&mut self, deltas: &FxHashMap<GenericEdge, Relation>) {
        for (edge, removed) in deltas {
            if let Some(view) = self.views.get_mut(edge) {
                view.retract_rows(removed);
            }
        }
    }

    /// Iterates over all registered (edge, view) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&GenericEdge, &Relation)> {
        self.views.iter()
    }
}

impl HeapSize for EdgeViewStore {
    fn heap_size(&self) -> usize {
        self.views.heap_size()
    }
}

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
/// intermediate result is empty. Shared by the INV/INC baselines and the
/// spanning-path machinery of [`crate::shard::ShardedEngine`].
pub fn full_path_relation(
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
pub fn delta_path_relation(
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
    use crate::model::term::{PatternEdge, Term};

    fn ge(label: u32, src: Term, tgt: Term) -> GenericEdge {
        GenericEdge::from_pattern(&PatternEdge::new(Sym(label), src, tgt))
    }

    #[test]
    fn update_is_routed_to_all_matching_views() {
        let mut store = EdgeViewStore::new();
        let var_var = ge(0, Term::Var(0), Term::Var(1));
        let var_const = ge(0, Term::Var(0), Term::Const(Sym(100)));
        let const_const = ge(0, Term::Const(Sym(50)), Term::Const(Sym(100)));
        let other_label = ge(1, Term::Var(0), Term::Var(1));
        for e in [var_var, var_const, const_const, other_label] {
            store.register(e);
        }
        let affected = store.apply_update(&Update::new(Sym(0), Sym(50), Sym(100)));
        assert_eq!(affected.len(), 3);
        assert!(store.get(&var_var).unwrap().len() == 1);
        assert!(store.get(&var_const).unwrap().len() == 1);
        assert!(store.get(&const_const).unwrap().len() == 1);
        assert!(store.get(&other_label).unwrap().is_empty());
    }

    #[test]
    fn duplicate_updates_do_not_affect_views() {
        let mut store = EdgeViewStore::new();
        let var_var = ge(0, Term::Var(0), Term::Var(1));
        store.register(var_var);
        let u = Update::new(Sym(0), Sym(1), Sym(2));
        assert_eq!(store.apply_update(&u).len(), 1);
        assert_eq!(store.apply_update(&u).len(), 0);
        assert_eq!(store.get(&var_var).unwrap().len(), 1);
    }

    #[test]
    fn self_loop_views_only_get_loop_updates() {
        let mut store = EdgeViewStore::new();
        let loop_edge = ge(0, Term::Var(0), Term::Var(0));
        store.register(loop_edge);
        store.apply_update(&Update::new(Sym(0), Sym(1), Sym(2)));
        assert!(store.get(&loop_edge).unwrap().is_empty());
        store.apply_update(&Update::new(Sym(0), Sym(3), Sym(3)));
        assert_eq!(store.get(&loop_edge).unwrap().len(), 1);
    }

    #[test]
    fn register_is_idempotent() {
        let mut store = EdgeViewStore::new();
        let e = ge(0, Term::Var(0), Term::Var(1));
        store.register(e);
        store.apply_update(&Update::new(Sym(0), Sym(1), Sym(2)));
        store.register(e);
        assert_eq!(
            store.get(&e).unwrap().len(),
            1,
            "re-register must not wipe data"
        );
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn batch_routing_collects_per_edge_deltas() {
        let mut store = EdgeViewStore::new();
        let var_var = ge(0, Term::Var(0), Term::Var(1));
        let loop_edge = ge(0, Term::Var(0), Term::Var(0));
        let other_label = ge(1, Term::Var(0), Term::Var(1));
        for e in [var_var, loop_edge, other_label] {
            store.register(e);
        }
        // One pre-batch update: its row must not reappear in the batch delta.
        store.apply_update(&Update::new(Sym(0), Sym(1), Sym(2)));

        let batch = vec![
            Update::new(Sym(0), Sym(1), Sym(2)), // duplicate of history
            Update::new(Sym(0), Sym(3), Sym(4)),
            Update::new(Sym(0), Sym(3), Sym(4)), // duplicate inside the batch
            Update::new(Sym(0), Sym(5), Sym(5)), // self loop
        ];
        let deltas = store.apply_batch(&batch);

        let vv = deltas.get(&var_var).expect("var-var affected");
        assert_eq!(
            vv.to_sorted_vec(),
            vec![vec![Sym(3), Sym(4)], vec![Sym(5), Sym(5)],]
        );
        let lp = deltas.get(&loop_edge).expect("loop affected");
        assert_eq!(lp.to_sorted_vec(), vec![vec![Sym(5), Sym(5)]]);
        assert!(!deltas.contains_key(&other_label), "label 1 never updated");

        // The views themselves advanced exactly as sequential routing would.
        assert_eq!(store.get(&var_var).unwrap().len(), 3);
        assert_eq!(store.get(&loop_edge).unwrap().len(), 1);
    }

    #[test]
    fn batch_routing_on_empty_batch_is_empty() {
        let mut store = EdgeViewStore::new();
        store.register(ge(0, Term::Var(0), Term::Var(1)));
        assert!(store.apply_batch(&[]).is_empty());
    }

    #[test]
    fn remove_deltas_collects_present_rows_then_commits() {
        let mut store = EdgeViewStore::new();
        let var_var = ge(0, Term::Var(0), Term::Var(1));
        let other_label = ge(1, Term::Var(0), Term::Var(1));
        store.register(var_var);
        store.register(other_label);
        store.apply_batch(&[
            Update::new(Sym(0), Sym(1), Sym(2)),
            Update::new(Sym(0), Sym(3), Sym(4)),
        ]);

        let batch = vec![
            Update::retraction(Sym(0), Sym(1), Sym(2)),
            Update::retraction(Sym(0), Sym(1), Sym(2)), // duplicate in batch
            Update::retraction(Sym(0), Sym(9), Sym(9)), // absent edge: no-op
            Update::retraction(Sym(1), Sym(5), Sym(6)), // view empty: no-op
        ];
        let deltas = store.remove_deltas(&batch);
        assert_eq!(deltas.len(), 1);
        let d = deltas.get(&var_var).expect("affected");
        assert_eq!(d.to_sorted_vec(), vec![vec![Sym(1), Sym(2)]]);
        // Pre-removal state untouched until commit.
        assert_eq!(store.get(&var_var).unwrap().len(), 2);

        store.retract_deltas(&deltas);
        assert_eq!(
            store.get(&var_var).unwrap().to_sorted_vec(),
            vec![vec![Sym(3), Sym(4)]]
        );
        // A retracted edge can be re-inserted afterwards.
        assert_eq!(
            store
                .apply_update(&Update::new(Sym(0), Sym(1), Sym(2)))
                .len(),
            1
        );
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

        store.retract_deltas(&removed);
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

    #[test]
    fn unregistered_edges_are_ignored() {
        let mut store = EdgeViewStore::new();
        let affected = store.apply_update(&Update::new(Sym(0), Sym(1), Sym(2)));
        assert!(affected.is_empty());
        assert!(store.is_empty());
    }
}
