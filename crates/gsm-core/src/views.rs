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

    /// Commits a retraction batch: removes every delta row from its view
    /// (see [`Relation::retract_rows`]). Pass the map produced by
    /// [`remove_deltas`](EdgeViewStore::remove_deltas) after all
    /// pre-removal answering is done. An engine that caches join builds
    /// over these views passes its `cache`, so the rows leave *through* it
    /// ([`JoinCache::retract_rows`]) and the builds survive the deletion.
    pub fn retract_deltas(
        &mut self,
        deltas: &FxHashMap<GenericEdge, Relation>,
        mut cache: Option<&mut JoinCache>,
    ) {
        for (edge, removed) in deltas {
            if let Some(view) = self.views.get_mut(edge) {
                match cache.as_deref_mut() {
                    Some(cache) => cache.retract_rows(view, removed),
                    None => view.retract_rows(removed),
                };
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::term::{PatternEdge, Term};

    fn ge(label: u32, src: Term, tgt: Term) -> GenericEdge {
        GenericEdge::from_pattern(&PatternEdge::new(Sym(label), src, tgt))
    }

    /// Routes one update as a one-update batch and returns the generic
    /// edges whose view gained its row, sorted.
    fn route(store: &mut EdgeViewStore, u: Update) -> Vec<GenericEdge> {
        let mut keys: Vec<GenericEdge> = store
            .apply_batch(std::slice::from_ref(&u))
            .into_keys()
            .collect();
        keys.sort_unstable();
        keys
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
        let affected = route(&mut store, Update::new(Sym(0), Sym(50), Sym(100)));
        let mut expected = vec![var_var, var_const, const_const];
        expected.sort_unstable();
        assert_eq!(affected, expected);
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
        assert_eq!(route(&mut store, u), vec![var_var]);
        assert!(route(&mut store, u).is_empty());
        assert_eq!(store.get(&var_var).unwrap().len(), 1);
    }

    #[test]
    fn self_loop_views_only_get_loop_updates() {
        let mut store = EdgeViewStore::new();
        let loop_edge = ge(0, Term::Var(0), Term::Var(0));
        store.register(loop_edge);
        assert!(route(&mut store, Update::new(Sym(0), Sym(1), Sym(2))).is_empty());
        assert!(store.get(&loop_edge).unwrap().is_empty());
        assert_eq!(
            route(&mut store, Update::new(Sym(0), Sym(3), Sym(3))),
            vec![loop_edge]
        );
        assert_eq!(store.get(&loop_edge).unwrap().len(), 1);
    }

    #[test]
    fn register_is_idempotent() {
        let mut store = EdgeViewStore::new();
        let e = ge(0, Term::Var(0), Term::Var(1));
        store.register(e);
        route(&mut store, Update::new(Sym(0), Sym(1), Sym(2)));
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
        route(&mut store, Update::new(Sym(0), Sym(1), Sym(2)));

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

        store.retract_deltas(&deltas, None);
        assert_eq!(
            store.get(&var_var).unwrap().to_sorted_vec(),
            vec![vec![Sym(3), Sym(4)]]
        );
        // A retracted edge can be re-inserted afterwards.
        assert_eq!(
            route(&mut store, Update::new(Sym(0), Sym(1), Sym(2))),
            vec![var_var]
        );
    }

    #[test]
    fn unregistered_edges_are_ignored() {
        let mut store = EdgeViewStore::new();
        assert!(route(&mut store, Update::new(Sym(0), Sym(1), Sym(2))).is_empty());
        assert!(store.is_empty());
    }
}
