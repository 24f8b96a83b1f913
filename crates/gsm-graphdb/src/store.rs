//! The embedded graph store.
//!
//! A thin property-graph layer: adjacency in both directions and a
//! per-label edge index (the equivalent of Neo4j's schema indexes the paper
//! enables), whose sizes are the cardinality statistics the query planner
//! reads.
//!
//! Candidate enumeration for the backtracking matcher goes through
//! [`LabelProbeIndex`]: each label's edges are kept as a two-column
//! [`Relation`] with incrementally maintained hash builds keyed on source
//! and on target — the same zero-allocation `probe_iter`/`probe_each`
//! substrate the relational engines use — so the baseline's per-candidate
//! cost is a verified hash probe instead of a label-filtered scan of a
//! vertex's whole adjacency list.
//!
//! The [`AttributeGraph`] adjacency lists and per-label edge index remain
//! maintained alongside the probe indexes even though the matcher no
//! longer reads them: the graph provides the O(1) duplicate check on
//! insert and the paper-faithful property-graph surface
//! (`out_edges`/`in_edges`/`edges_with_label`), mirroring a real database
//! that keeps adjacency *and* schema indexes. The cost is deliberate and
//! visible in `heap_size` — the memory-comparison experiment (Tab. 13c)
//! reports the baseline including both structures, as the paper's Neo4j
//! deployment would.

use std::collections::HashMap;

use gsm_core::interner::Sym;
use gsm_core::memory::HeapSize;
use gsm_core::model::graph::AttributeGraph;
use gsm_core::model::update::Update;
use gsm_core::relation::join::JoinBuild;
use gsm_core::relation::Relation;

/// One label's edges on the relational probe substrate: a `(src, tgt)`
/// relation plus hash builds over both columns, maintained incrementally on
/// every insert and every removal (the builds never start over: a removed
/// edge leaves the relation through them).
#[derive(Debug)]
pub struct LabelProbeIndex {
    /// The label's edges as `(src, tgt)` rows. Distinct by construction:
    /// the attribute graph deduplicates edges before they reach here.
    pub edges: Relation,
    /// Hash build keyed on the source column.
    pub by_src: JoinBuild,
    /// Hash build keyed on the target column.
    pub by_tgt: JoinBuild,
}

impl LabelProbeIndex {
    fn new() -> Self {
        let edges = Relation::new_distinct(2);
        let by_src = JoinBuild::build(&edges, &[0]);
        let by_tgt = JoinBuild::build(&edges, &[1]);
        LabelProbeIndex {
            edges,
            by_src,
            by_tgt,
        }
    }

    fn insert(&mut self, src: Sym, tgt: Sym) {
        self.edges.append_distinct(&[src, tgt]);
        self.by_src.update(&self.edges);
        self.by_tgt.update(&self.edges);
    }

    fn remove(&mut self, src: Sym, tgt: Sym) {
        JoinBuild::retract_row(
            &mut self.edges,
            &[src, tgt],
            &mut [&mut self.by_src, &mut self.by_tgt],
        );
    }
}

impl HeapSize for LabelProbeIndex {
    fn heap_size(&self) -> usize {
        self.edges.heap_size() + self.by_src.heap_size() + self.by_tgt.heap_size()
    }
}

/// An in-memory property-graph store.
#[derive(Debug)]
pub struct GraphStore {
    graph: AttributeGraph,
    /// Per-label probe indexes for the matcher's candidate enumeration;
    /// their sizes are the planner's selectivity statistics.
    label_probes: HashMap<Sym, LabelProbeIndex>,
}

impl GraphStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        GraphStore {
            graph: AttributeGraph::new(),
            label_probes: HashMap::new(),
        }
    }

    /// Applies an edge addition. Returns `true` if the edge was new.
    pub fn insert_edge(&mut self, u: Update) -> bool {
        let added = self.graph.apply(u);
        if added {
            self.label_probes
                .entry(u.label)
                .or_insert_with(LabelProbeIndex::new)
                .insert(u.src, u.tgt);
        }
        added
    }

    /// Applies an edge retraction (either sign — the lookup is
    /// sign-normalized). Returns `true` if the edge existed; adjacency and
    /// the label's probe index shrink together.
    pub fn remove_edge(&mut self, u: Update) -> bool {
        let e = u.edge();
        let removed = self.graph.remove(e);
        if removed {
            if let Some(probe) = self.label_probes.get_mut(&e.label) {
                probe.remove(e.src, e.tgt);
            }
        }
        removed
    }

    /// The probe index of `label`, if any edge with that label exists.
    /// The matcher's candidate enumeration probes this instead of scanning
    /// adjacency lists.
    pub fn label_probe(&self, label: Sym) -> Option<&LabelProbeIndex> {
        self.label_probes.get(&label)
    }

    /// The underlying attribute graph.
    pub fn graph(&self) -> &AttributeGraph {
        &self.graph
    }

    /// Number of edges carrying `label` (0 if unseen).
    pub fn label_count(&self, label: Sym) -> usize {
        self.label_probes
            .get(&label)
            .map_or(0, |probe| probe.edges.len())
    }

    /// Number of distinct edges stored.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Number of distinct vertices stored.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// True if the exact edge is stored.
    pub fn has_edge(&self, label: Sym, src: Sym, tgt: Sym) -> bool {
        self.graph.contains(&Update::new(label, src, tgt))
    }

    /// Outgoing `(label, target)` pairs of `v`.
    pub fn out_edges(&self, v: Sym) -> &[(Sym, Sym)] {
        self.graph.out_edges(v)
    }

    /// Incoming `(label, source)` pairs of `v`.
    pub fn in_edges(&self, v: Sym) -> &[(Sym, Sym)] {
        self.graph.in_edges(v)
    }

    /// All `(source, target)` pairs with `label`.
    pub fn edges_with_label(&self, label: Sym) -> &[(Sym, Sym)] {
        self.graph.edges_with_label(label)
    }
}

impl Default for GraphStore {
    fn default() -> Self {
        Self::new()
    }
}

impl HeapSize for GraphStore {
    fn heap_size(&self) -> usize {
        self.graph.heap_size() + self.label_probes.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(l: u32, s: u32, t: u32) -> Update {
        Update::new(Sym(l), Sym(s), Sym(t))
    }

    #[test]
    fn insert_updates_label_statistics() {
        let mut store = GraphStore::new();
        store.insert_edge(u(0, 1, 2));
        store.insert_edge(u(0, 2, 3));
        store.insert_edge(u(1, 1, 3));
        assert_eq!(store.label_count(Sym(0)), 2);
        assert_eq!(store.label_count(Sym(1)), 1);
        assert_eq!(store.label_count(Sym(9)), 0);
        assert_eq!(store.num_edges(), 3);
        assert_eq!(store.num_vertices(), 3);
    }

    #[test]
    fn duplicate_edges_do_not_inflate_statistics() {
        let mut store = GraphStore::new();
        assert!(store.insert_edge(u(0, 1, 2)));
        assert!(!store.insert_edge(u(0, 1, 2)));
        assert_eq!(store.label_count(Sym(0)), 1);
    }

    #[test]
    fn label_probe_index_agrees_with_adjacency() {
        let mut store = GraphStore::new();
        let edges = [
            u(0, 1, 2),
            u(0, 1, 3),
            u(0, 4, 2),
            u(1, 1, 2),
            u(0, 1, 2), // duplicate: absorbed everywhere
        ];
        for e in edges {
            store.insert_edge(e);
        }
        let probe = store.label_probe(Sym(0)).expect("label 0 indexed");
        assert_eq!(probe.edges.len(), 3, "duplicates never reach the index");

        // Probe by source == label-filtered out-edges.
        let key = [Sym(1)];
        let mut targets: Vec<Sym> = probe
            .by_src
            .probe_iter(&probe.edges, &key)
            .map(|i| probe.edges.row(i)[1])
            .collect();
        targets.sort();
        assert_eq!(targets, vec![Sym(2), Sym(3)]);

        // Probe by target == label-filtered in-edges.
        let key = [Sym(2)];
        let mut sources: Vec<Sym> = probe
            .by_tgt
            .probe_iter(&probe.edges, &key)
            .map(|i| probe.edges.row(i)[0])
            .collect();
        sources.sort();
        assert_eq!(sources, vec![Sym(1), Sym(4)]);

        // Misses and unseen labels.
        let key = [Sym(9)];
        assert_eq!(probe.by_src.probe_iter(&probe.edges, &key).count(), 0);
        assert!(store.label_probe(Sym(7)).is_none());
    }

    #[test]
    fn remove_edge_shrinks_statistics_and_probe_indexes() {
        let mut store = GraphStore::new();
        store.insert_edge(u(0, 1, 2));
        store.insert_edge(u(0, 1, 3));
        store.insert_edge(u(1, 1, 2));
        assert!(store.remove_edge(u(0, 1, 2).inverted()));
        assert!(!store.remove_edge(u(0, 1, 2)), "already gone");
        assert_eq!(store.label_count(Sym(0)), 1);
        assert_eq!(store.num_edges(), 2);
        assert!(!store.has_edge(Sym(0), Sym(1), Sym(2)));

        // The probe index lost the row and both builds followed the removal.
        let probe = store.label_probe(Sym(0)).expect("label 0 indexed");
        assert_eq!(probe.edges.len(), 1);
        let key = [Sym(1)];
        let targets: Vec<Sym> = probe
            .by_src
            .probe_iter(&probe.edges, &key)
            .map(|i| probe.edges.row(i)[1])
            .collect();
        assert_eq!(targets, vec![Sym(3)]);
        let key = [Sym(2)];
        assert_eq!(probe.by_tgt.probe_iter(&probe.edges, &key).count(), 0);
    }

    #[test]
    fn adjacency_lookups() {
        let mut store = GraphStore::new();
        store.insert_edge(u(0, 1, 2));
        store.insert_edge(u(1, 1, 3));
        assert_eq!(store.out_edges(Sym(1)).len(), 2);
        assert_eq!(store.in_edges(Sym(2)).len(), 1);
        assert!(store.has_edge(Sym(0), Sym(1), Sym(2)));
        assert!(!store.has_edge(Sym(0), Sym(2), Sym(1)));
        assert_eq!(store.edges_with_label(Sym(1)).len(), 1);
    }
}
