//! The embedded graph store.
//!
//! A thin property-graph layer on std collections (hashed with the
//! workspace's Fx hasher, as the other engines' symbol-keyed maps are),
//! holding the graph once: the set of distinct edges (the O(1) duplicate
//! and existence check) and, per label, adjacency in both directions
//! (`label → vertex → neighbours`) — the equivalent of Neo4j's
//! relationship-type-filtered expansion. The backtracking matcher expands a bound vertex through
//! that label's adjacency, and the per-label edge counts are the
//! cardinality statistics the query planner reads.
//!
//! The store shares no code with the relational engines (no relations,
//! join builds or views), so the graph-database baseline is an
//! independent reference the differential suites check every other
//! engine against.

use gsm_core::interner::Sym;
use gsm_core::memory::HeapSize;
use gsm_core::model::update::Update;
use gsm_core::relation::fasthash::{FxHashMap, FxHashSet};

/// One label's edges as adjacency in both directions. A vertex is a key
/// only while it has at least one edge of the label in that direction.
#[derive(Debug, Default)]
struct LabelAdjacency {
    /// Source → targets.
    out: FxHashMap<Sym, Vec<Sym>>,
    /// Target → sources.
    inc: FxHashMap<Sym, Vec<Sym>>,
    /// Number of edges carrying the label.
    len: usize,
}

impl HeapSize for LabelAdjacency {
    fn heap_size(&self) -> usize {
        self.out.heap_size() + self.inc.heap_size()
    }
}

/// Removes `v` from the neighbour list of `key`, dropping the entry once
/// the list is empty so that a vertex's last edge takes its heap with it.
fn unlink(adjacency: &mut FxHashMap<Sym, Vec<Sym>>, key: Sym, v: Sym) {
    const STORED: &str = "a stored edge is in both adjacencies";
    let neighbours = adjacency.get_mut(&key).expect(STORED);
    let i = neighbours.iter().position(|&n| n == v).expect(STORED);
    neighbours.swap_remove(i);
    if neighbours.is_empty() {
        adjacency.remove(&key);
    }
}

/// An in-memory property-graph store.
#[derive(Debug, Default)]
pub struct GraphStore {
    /// Every stored edge, in the sign-normalized [`Update::edge`] form.
    edges: FxHashSet<Update>,
    /// Per-label adjacency; a label is a key only while it has edges.
    labels: FxHashMap<Sym, LabelAdjacency>,
}

impl GraphStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies an edge addition. Returns `true` if the edge was new.
    pub fn insert_edge(&mut self, u: Update) -> bool {
        let e = u.edge();
        if !self.edges.insert(e) {
            return false;
        }
        let adjacency = self.labels.entry(e.label).or_default();
        adjacency.out.entry(e.src).or_default().push(e.tgt);
        adjacency.inc.entry(e.tgt).or_default().push(e.src);
        adjacency.len += 1;
        true
    }

    /// Applies an edge retraction (either sign — the lookup is
    /// sign-normalized). Returns `true` if the edge existed.
    pub fn remove_edge(&mut self, u: Update) -> bool {
        let e = u.edge();
        if !self.edges.remove(&e) {
            return false;
        }
        let adjacency = self
            .labels
            .get_mut(&e.label)
            .expect("a stored edge's label has adjacency");
        unlink(&mut adjacency.out, e.src, e.tgt);
        unlink(&mut adjacency.inc, e.tgt, e.src);
        adjacency.len -= 1;
        if adjacency.len == 0 {
            self.labels.remove(&e.label);
        }
        true
    }

    /// Number of edges carrying `label` (0 if unseen).
    pub fn label_count(&self, label: Sym) -> usize {
        self.labels.get(&label).map_or(0, |a| a.len)
    }

    /// Number of distinct edges stored.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// True if the exact edge is stored.
    pub fn has_edge(&self, label: Sym, src: Sym, tgt: Sym) -> bool {
        self.edges.contains(&Update::new(label, src, tgt))
    }

    /// The targets of `src`'s edges carrying `label`.
    pub(crate) fn targets(&self, label: Sym, src: Sym) -> &[Sym] {
        self.labels
            .get(&label)
            .and_then(|a| a.out.get(&src))
            .map_or(&[], Vec::as_slice)
    }

    /// The sources of `tgt`'s edges carrying `label`.
    pub(crate) fn sources(&self, label: Sym, tgt: Sym) -> &[Sym] {
        self.labels
            .get(&label)
            .and_then(|a| a.inc.get(&tgt))
            .map_or(&[], Vec::as_slice)
    }

    /// Every `(source, target)` pair carrying `label`.
    pub(crate) fn label_edges(&self, label: Sym) -> impl Iterator<Item = (Sym, Sym)> + '_ {
        self.labels
            .get(&label)
            .into_iter()
            .flat_map(|a| a.out.iter())
            .flat_map(|(&s, targets)| targets.iter().map(move |&t| (s, t)))
    }
}

impl HeapSize for GraphStore {
    fn heap_size(&self) -> usize {
        self.edges.heap_size() + self.labels.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(l: u32, s: u32, t: u32) -> Update {
        Update::new(Sym(l), Sym(s), Sym(t))
    }

    fn sorted(syms: &[Sym]) -> Vec<Sym> {
        let mut v = syms.to_vec();
        v.sort_unstable();
        v
    }

    #[test]
    fn insert_fills_the_edge_set_and_both_adjacencies() {
        let mut store = GraphStore::new();
        assert!(store.insert_edge(u(0, 1, 2)));
        assert!(store.insert_edge(u(0, 1, 3)));
        assert!(store.insert_edge(u(0, 4, 2)));
        assert!(store.insert_edge(u(1, 1, 2)));
        assert_eq!(store.num_edges(), 4);
        assert_eq!(store.label_count(Sym(0)), 3);
        assert_eq!(store.label_count(Sym(1)), 1);
        assert_eq!(store.label_count(Sym(9)), 0);
        assert!(store.has_edge(Sym(0), Sym(1), Sym(2)));
        assert!(!store.has_edge(Sym(0), Sym(2), Sym(1)));
        assert_eq!(sorted(store.targets(Sym(0), Sym(1))), vec![Sym(2), Sym(3)]);
        assert_eq!(sorted(store.sources(Sym(0), Sym(2))), vec![Sym(1), Sym(4)]);
        assert_eq!(store.targets(Sym(1), Sym(1)), &[Sym(2)]);
        assert!(store.targets(Sym(0), Sym(9)).is_empty());
        assert!(store.sources(Sym(7), Sym(2)).is_empty(), "unseen label");
        let mut edges: Vec<(Sym, Sym)> = store.label_edges(Sym(0)).collect();
        edges.sort_unstable();
        assert_eq!(
            edges,
            vec![(Sym(1), Sym(2)), (Sym(1), Sym(3)), (Sym(4), Sym(2))]
        );
        assert_eq!(store.label_edges(Sym(7)).count(), 0);
    }

    #[test]
    fn duplicate_inserts_are_absorbed() {
        let mut store = GraphStore::new();
        assert!(store.insert_edge(u(0, 1, 2)));
        assert!(!store.insert_edge(u(0, 1, 2)));
        assert_eq!(store.num_edges(), 1);
        assert_eq!(store.label_count(Sym(0)), 1);
        assert_eq!(store.targets(Sym(0), Sym(1)), &[Sym(2)]);
        assert_eq!(store.sources(Sym(0), Sym(2)), &[Sym(1)]);
    }

    #[test]
    fn removal_by_either_sign() {
        let mut store = GraphStore::new();
        store.insert_edge(u(0, 1, 2));
        store.insert_edge(u(0, 1, 3));
        store.insert_edge(u(1, 1, 2));
        assert!(store.remove_edge(u(0, 1, 2).inverted()), "retraction sign");
        assert!(!store.remove_edge(u(0, 1, 2)), "already gone");
        assert!(store.remove_edge(u(0, 1, 3)), "insertion sign");
        assert!(!store.remove_edge(u(0, 7, 8)), "never there");
        assert_eq!(store.num_edges(), 1);
        assert_eq!(store.label_count(Sym(0)), 0);
        assert!(!store.has_edge(Sym(0), Sym(1), Sym(2)));
        assert!(store.targets(Sym(0), Sym(1)).is_empty());
        assert!(store.sources(Sym(0), Sym(2)).is_empty());
        assert!(
            store.has_edge(Sym(1), Sym(1), Sym(2)),
            "parallel label kept"
        );
        assert_eq!(store.sources(Sym(1), Sym(2)), &[Sym(1)]);
        // A removed edge comes back as if it had never been stored.
        assert!(store.insert_edge(u(0, 1, 2)));
        assert_eq!(store.label_count(Sym(0)), 1);
    }

    #[test]
    fn a_self_loop_is_its_own_source_and_target() {
        let mut store = GraphStore::new();
        assert!(store.insert_edge(u(0, 5, 5)));
        assert!(!store.insert_edge(u(0, 5, 5)));
        assert_eq!(store.targets(Sym(0), Sym(5)), &[Sym(5)]);
        assert_eq!(store.sources(Sym(0), Sym(5)), &[Sym(5)]);
        assert_eq!(
            store.label_edges(Sym(0)).collect::<Vec<_>>(),
            [(Sym(5), Sym(5))]
        );
        assert!(store.remove_edge(u(0, 5, 5).inverted()));
        assert!(store.targets(Sym(0), Sym(5)).is_empty());
        assert!(store.sources(Sym(0), Sym(5)).is_empty());
        assert_eq!(store.num_edges(), 0);
    }

    #[test]
    fn label_count_follows_churn() {
        let mut store = GraphStore::new();
        let mut live = 0;
        for round in 0..5u32 {
            for i in 0..10 {
                live += usize::from(store.insert_edge(u(0, i, (i + round) % 10)));
            }
            for i in (0..10).step_by(3) {
                live -= usize::from(store.remove_edge(u(0, i, (i + round) % 10).inverted()));
            }
            assert_eq!(store.label_count(Sym(0)), live, "round {round}");
            assert_eq!(store.label_edges(Sym(0)).count(), live);
            assert_eq!(store.num_edges(), live);
        }
    }

    #[test]
    fn a_vertex_loses_its_adjacency_entry_with_its_last_edge_of_the_label() {
        let mut store = GraphStore::new();
        store.insert_edge(u(0, 1, 2));
        let before = store.heap_size();
        store.insert_edge(u(0, 5, 6));
        store.insert_edge(u(0, 1, 6));
        assert!(store.heap_size() > before);
        store.remove_edge(u(0, 5, 6));
        store.remove_edge(u(0, 1, 6));
        let adjacency = &store.labels[&Sym(0)];
        assert!(!adjacency.out.contains_key(&Sym(5)));
        assert!(!adjacency.inc.contains_key(&Sym(6)));
        assert_eq!(store.heap_size(), before, "the heap shrinks back");
        // The label's last edge takes the label's entry with it.
        store.remove_edge(u(0, 1, 2));
        assert!(store.labels.is_empty());
    }
}
