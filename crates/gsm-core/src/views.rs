//! The live graph and the per-edge materialized views that hang off it.
//!
//! Every algorithm of the paper maintains, for each distinct (generic) query
//! edge appearing in the query database, a materialized view `matV[e]`
//! containing all updates that satisfy that edge (Section 4.1,
//! "Materialization"). [`EdgeViewStore`] keeps them on top of the **live
//! graph**: one duplicate-free `(src, tgt)` [`Relation`] per label holding
//! every live edge of that label, whether or not a query uses it. The view
//! of a variable–variable generic edge (`?a -l-> ?b`) *is* its label's
//! relation; the views of the other shapes — a constant endpoint
//! (`c -l-> ?b`, `?a -l-> c`, `c -l-> d`) or a self loop (`?a -l-> ?a`) —
//! hang off the label and hold exactly the label's rows they admit.
//! Routing an update costs one label lookup, plus one probe per shape only
//! on labels that have such views.
//!
//! Registering a generic edge seeds its view from the live graph, so a
//! query registered at time *t* matches against the live graph at *t*,
//! whichever engine holds it (the contract of
//! [`ContinuousEngine::register_query`](crate::engine::ContinuousEngine::register_query)).
//! The wrappers keep a store with no views as their live graph:
//! [`ShardedEngine`](crate::shard::ShardedEngine) replays from it when a
//! shard first observes a generic edge, and the persistence layer
//! checkpoints it.

use std::collections::hash_map::Entry;

use crate::interner::Sym;
use crate::memory::HeapSize;
use crate::model::generic::{GenTerm, GenericEdge};
use crate::model::update::Update;
use crate::relation::cache::JoinCache;
use crate::relation::fasthash::FxHashMap;
use crate::relation::Relation;

/// The variable–variable generic edge of `label`, whose view is the label's
/// live relation.
fn open_edge(label: Sym) -> GenericEdge {
    GenericEdge {
        label,
        src: GenTerm::Any,
        tgt: GenTerm::Any,
        same_var: false,
    }
}

/// One label: its live edges and the views of its registered shapes.
#[derive(Debug)]
struct LabelViews {
    /// Every live edge of the label, `(src, tgt)`; the view of the
    /// label's variable–variable generic edge.
    edges: Relation,
    /// True once the variable–variable generic edge is registered.
    open: bool,
    /// The views of the registered constant-endpoint and self-loop shapes.
    shapes: FxHashMap<GenericEdge, Relation>,
}

impl LabelViews {
    fn new(edges: Relation) -> Self {
        LabelViews {
            edges,
            open: false,
            shapes: FxHashMap::default(),
        }
    }

    fn empty() -> Self {
        Self::new(Relation::new(2))
    }

    /// Calls `f` with every registered constant-endpoint or self-loop
    /// shape that admits `u`, and its view.
    fn for_each_shape(&mut self, u: &Update, mut f: impl FnMut(GenericEdge, &mut Relation)) {
        if self.shapes.is_empty() {
            return;
        }
        for shape in GenericEdge::shapes_of_update(u) {
            if let Some(view) = self.shapes.get_mut(&shape) {
                f(shape, view);
            }
        }
    }
}

impl HeapSize for LabelViews {
    fn heap_size(&self) -> usize {
        self.edges.heap_size() + self.shapes.heap_size()
    }
}

/// The live graph, one relation per label, and the per-generic-edge views
/// over it.
#[derive(Debug, Default)]
pub struct EdgeViewStore {
    labels: FxHashMap<Sym, LabelViews>,
    /// Number of registered views.
    num_views: usize,
}

impl EdgeViewStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures a view exists for `edge` (idempotent), seeded with the live
    /// edges it admits. Views always have two columns: the concrete source
    /// and target vertices of matching updates.
    pub fn register(&mut self, edge: GenericEdge) {
        let entry = self
            .labels
            .entry(edge.label)
            .or_insert_with(LabelViews::empty);
        if edge == open_edge(edge.label) {
            if !entry.open {
                entry.open = true;
                self.num_views += 1;
            }
        } else if let Entry::Vacant(slot) = entry.shapes.entry(edge) {
            let mut view = Relation::new(2);
            for row in entry.edges.iter() {
                if edge.matches(&Update::new(edge.label, row[0], row[1])) {
                    view.append_distinct(row);
                }
            }
            slot.insert(view);
            self.num_views += 1;
        }
    }

    /// The view of `edge`, if registered.
    pub fn get(&self, edge: &GenericEdge) -> Option<&Relation> {
        let entry = self.labels.get(&edge.label)?;
        if *edge == open_edge(edge.label) {
            entry.open.then_some(&entry.edges)
        } else {
            entry.shapes.get(edge)
        }
    }

    /// Every live edge carrying `label`, as `(src, tgt)` rows, if the label
    /// was ever seen.
    pub fn edges(&self, label: Sym) -> Option<&Relation> {
        self.labels.get(&label).map(|entry| &entry.edges)
    }

    /// Every label's live edges, in increasing label order.
    pub fn labels(&self) -> Vec<(Sym, &Relation)> {
        let mut labels: Vec<(Sym, &Relation)> = self
            .labels
            .iter()
            .map(|(&label, entry)| (label, &entry.edges))
            .collect();
        labels.sort_unstable_by_key(|&(label, _)| label);
        labels
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.num_views
    }

    /// True if no view is registered.
    pub fn is_empty(&self) -> bool {
        self.num_views == 0
    }

    /// Routes a whole run of insertions, returning for every affected
    /// generic edge the **delta relation** of the run: the `(src, tgt)`
    /// tuples that were actually new for that edge's view (exact duplicates
    /// — of earlier stream history or of an earlier update in the same run
    /// — are absorbed exactly as they would be one at a time). Every row
    /// enters the live graph, whether or not a view admits it.
    pub fn apply_batch(&mut self, updates: &[Update]) -> FxHashMap<GenericEdge, Relation> {
        let mut deltas: FxHashMap<GenericEdge, Relation> = FxHashMap::default();
        for u in updates {
            debug_assert!(
                !u.is_retraction(),
                "retractions route through remove_deltas/retract_deltas"
            );
            let row: [Sym; 2] = [u.src, u.tgt];
            let entry = self.labels.entry(u.label).or_insert_with(LabelViews::empty);
            // A view holds exactly the label rows it admits, so a row new to
            // the label is new to every view that admits it — and cannot
            // repeat within this run's delta either, which therefore skips
            // the dedup index.
            if !entry.edges.push(&row) {
                continue;
            }
            let mut add = |shape: GenericEdge| {
                deltas
                    .entry(shape)
                    .or_insert_with(|| Relation::new_distinct(2))
                    .append_distinct(&row)
            };
            if entry.open {
                add(open_edge(u.label));
            }
            entry.for_each_shape(u, |shape, view| {
                view.append_distinct(&row);
                add(shape);
            });
        }
        deltas
    }

    /// Routes a run of **retractions** against the *pre-removal* views,
    /// returning for every affected generic edge the rows its view will
    /// lose: the `(src, tgt)` tuples of retracted updates that are actually
    /// live (retracting an absent edge is a no-op; duplicate retractions
    /// within the run are absorbed). The views are **not** modified —
    /// engines answer their deletion joins against the pre-removal views
    /// first and then commit with
    /// [`retract_deltas`](EdgeViewStore::retract_deltas). A row of a label
    /// whose relation is no registered view leaves the live graph here
    /// already: nothing reads it.
    pub fn remove_deltas(&mut self, updates: &[Update]) -> FxHashMap<GenericEdge, Relation> {
        let mut deltas: FxHashMap<GenericEdge, Relation> = FxHashMap::default();
        for u in updates {
            debug_assert!(u.is_retraction(), "remove_deltas takes retractions");
            let row: [Sym; 2] = [u.src, u.tgt];
            let Some(entry) = self.labels.get_mut(&u.label) else {
                continue;
            };
            let live = if entry.open {
                entry.edges.contains(&row)
            } else {
                entry.edges.retract_row(&row)
            };
            if !live {
                continue;
            }
            // The per-edge delta is indexed so a doubly-retracted edge
            // contributes one removed row, not two.
            let mut add = |shape: GenericEdge| {
                deltas
                    .entry(shape)
                    .or_insert_with(|| Relation::new(2))
                    .push(&row);
            };
            if entry.open {
                add(open_edge(u.label));
            }
            entry.for_each_shape(u, |shape, _| add(shape));
        }
        deltas
    }

    /// Commits a retraction run: removes every delta row from its view
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
            let Some(entry) = self.labels.get_mut(&edge.label) else {
                continue;
            };
            let view = if *edge == open_edge(edge.label) {
                &mut entry.edges
            } else if let Some(view) = entry.shapes.get_mut(edge) {
                view
            } else {
                continue;
            };
            match cache.as_deref_mut() {
                Some(cache) => cache.retract_rows(view, removed),
                None => view.retract_rows(removed),
            };
        }
    }

    /// Applies `updates` of either sign to the live graph in stream order:
    /// the write path of a store with no views, which the wrappers keep as
    /// their live graph.
    pub fn apply(&mut self, updates: &[Update]) {
        debug_assert!(self.is_empty(), "apply writes a store with no views");
        for u in updates {
            let row: [Sym; 2] = [u.src, u.tgt];
            if !u.is_retraction() {
                let entry = self.labels.entry(u.label).or_insert_with(LabelViews::empty);
                entry.edges.push(&row);
            } else if let Some(entry) = self.labels.get_mut(&u.label) {
                entry.edges.retract_row(&row);
            }
        }
    }
}

/// A store with no views whose live graph is `labels` — how the
/// persistence layer restores a checkpointed live graph.
impl FromIterator<(Sym, Relation)> for EdgeViewStore {
    fn from_iter<I: IntoIterator<Item = (Sym, Relation)>>(labels: I) -> Self {
        EdgeViewStore {
            labels: labels
                .into_iter()
                .map(|(label, edges)| (label, LabelViews::new(edges)))
                .collect(),
            num_views: 0,
        }
    }
}

impl HeapSize for EdgeViewStore {
    fn heap_size(&self) -> usize {
        self.labels.heap_size()
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

    #[test]
    fn registration_seeds_views_from_the_live_graph() {
        let mut store = EdgeViewStore::new();
        store.apply_batch(&[
            Update::new(Sym(0), Sym(1), Sym(2)),
            Update::new(Sym(0), Sym(3), Sym(3)),
            Update::new(Sym(0), Sym(50), Sym(100)),
            Update::new(Sym(1), Sym(50), Sym(7)),
        ]);
        assert!(store.is_empty(), "no view registered yet");
        assert_eq!(store.edges(Sym(0)).unwrap().len(), 3);

        let var_var = ge(0, Term::Var(0), Term::Var(1));
        let from_50 = ge(0, Term::Const(Sym(50)), Term::Var(1));
        let loop_edge = ge(0, Term::Var(0), Term::Var(0));
        let unseen = ge(2, Term::Var(0), Term::Var(1));
        for e in [var_var, from_50, loop_edge, unseen] {
            store.register(e);
        }
        assert_eq!(store.len(), 4);
        assert_eq!(store.get(&var_var).unwrap().len(), 3);
        assert_eq!(
            store.get(&from_50).unwrap().to_sorted_vec(),
            vec![vec![Sym(50), Sym(100)]]
        );
        assert_eq!(
            store.get(&loop_edge).unwrap().to_sorted_vec(),
            vec![vec![Sym(3), Sym(3)]]
        );
        assert!(store.get(&unseen).unwrap().is_empty());
        // The variable-variable view is the label's live relation itself.
        assert!(std::ptr::eq(
            store.get(&var_var).unwrap(),
            store.edges(Sym(0)).unwrap()
        ));
    }

    #[test]
    fn a_retraction_no_view_reads_leaves_the_live_graph_at_once() {
        let mut store = EdgeViewStore::new();
        let var_var = ge(0, Term::Var(0), Term::Var(1));
        let from_5 = ge(1, Term::Const(Sym(5)), Term::Var(1));
        store.register(var_var);
        store.register(from_5);
        store.apply_batch(&[
            Update::new(Sym(0), Sym(1), Sym(2)),
            Update::new(Sym(1), Sym(5), Sym(6)),
            Update::new(Sym(2), Sym(8), Sym(9)),
        ]);
        let deltas = store.remove_deltas(&[
            Update::retraction(Sym(0), Sym(1), Sym(2)),
            Update::retraction(Sym(1), Sym(5), Sym(6)),
            Update::retraction(Sym(2), Sym(8), Sym(9)),
        ]);
        let mut affected: Vec<GenericEdge> = deltas.keys().copied().collect();
        affected.sort_unstable();
        let mut expected = vec![var_var, from_5];
        expected.sort_unstable();
        assert_eq!(affected, expected);
        // Label 0's relation is a view: pre-removal until the commit. The
        // other two are read by no view and shrink at once.
        assert_eq!(store.edges(Sym(0)).unwrap().len(), 1);
        assert!(store.edges(Sym(1)).unwrap().is_empty());
        assert!(store.edges(Sym(2)).unwrap().is_empty());
        assert_eq!(store.get(&from_5).unwrap().len(), 1);

        store.retract_deltas(&deltas, None);
        assert!(store.edges(Sym(0)).unwrap().is_empty());
        assert!(store.get(&from_5).unwrap().is_empty());
    }

    #[test]
    fn apply_follows_the_stream_in_order() {
        let mut store = EdgeViewStore::new();
        store.apply(&[
            Update::new(Sym(0), Sym(5), Sym(1)),
            Update::new(Sym(0), Sym(5), Sym(2)),
            Update::retraction(Sym(0), Sym(5), Sym(1)),
            Update::new(Sym(0), Sym(7), Sym(7)),
            Update::retraction(Sym(3), Sym(1), Sym(1)), // unseen label: no-op
        ]);
        assert_eq!(
            store.edges(Sym(0)).unwrap().to_sorted_vec(),
            vec![vec![Sym(5), Sym(2)], vec![Sym(7), Sym(7)]]
        );
        assert!(store.edges(Sym(3)).is_none());
        // A view registered afterwards is seeded with what is live.
        let from_5 = ge(0, Term::Const(Sym(5)), Term::Var(1));
        store.register(from_5);
        assert_eq!(
            store.get(&from_5).unwrap().to_sorted_vec(),
            vec![vec![Sym(5), Sym(2)]]
        );
    }

    #[test]
    fn labels_list_the_live_graph_in_label_order() {
        let mut store = EdgeViewStore::new();
        store.apply(&[
            Update::new(Sym(9), Sym(1), Sym(2)),
            Update::new(Sym(4), Sym(1), Sym(2)),
            Update::new(Sym(4), Sym(2), Sym(3)),
        ]);
        let listed: Vec<(Sym, usize)> = store
            .labels()
            .into_iter()
            .map(|(label, edges)| (label, edges.len()))
            .collect();
        assert_eq!(listed, vec![(Sym(4), 2), (Sym(9), 1)]);

        let restored: EdgeViewStore = store
            .labels()
            .into_iter()
            .map(|(label, edges)| (label, edges.clone()))
            .collect();
        assert_eq!(
            restored.edges(Sym(4)).unwrap().to_sorted_vec(),
            store.edges(Sym(4)).unwrap().to_sorted_vec()
        );
        assert!(restored.is_empty());
    }
}
