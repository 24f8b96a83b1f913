//! The inverted indexes of the INV/INC baselines (Section 5.1, Step 2).

use std::collections::HashMap;
use std::sync::Arc;

use gsm_core::engine::QueryId;
use gsm_core::memory::HeapSize;
use gsm_core::model::generic::{GenTerm, GenericEdge};
use gsm_core::query::pattern::QVertexId;

/// One covering path of a registered query, kept verbatim in `queryInd`.
#[derive(Debug, Clone)]
pub struct PathRecord {
    /// Generic edges of the path, in walk order.
    pub edges: Vec<GenericEdge>,
    /// Query vertex bound by each path position (`edges.len() + 1` entries).
    pub vertices: Vec<QVertexId>,
}

impl HeapSize for PathRecord {
    fn heap_size(&self) -> usize {
        self.edges.heap_size() + self.vertices.heap_size()
    }
}

/// Everything `queryInd` stores about one query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// The query's covering paths.
    pub paths: Vec<PathRecord>,
    /// Every distinct generic edge of the query (for the "all views
    /// non-empty" quick check of the answering phase).
    pub edges: Vec<GenericEdge>,
}

impl HeapSize for QueryRecord {
    fn heap_size(&self) -> usize {
        self.paths.heap_size() + self.edges.heap_size()
    }
}

/// The inverted indexes shared by INV/INV+/INC/INC+.
#[derive(Debug, Default)]
pub struct InvertedIndexes {
    /// edgeInd: generic edge → queries containing it.
    pub edge_index: HashMap<GenericEdge, Vec<QueryId>>,
    /// sourceInd: source vertex position → generic edges with that source.
    pub source_index: HashMap<GenTerm, Vec<GenericEdge>>,
    /// targetInd: target vertex position → generic edges with that target.
    pub target_index: HashMap<GenTerm, Vec<GenericEdge>>,
    /// queryInd: query id → its covering paths. Records are `Arc`-shared so
    /// a batch's working set references them instead of deep-copying every
    /// path of every affected query (the records are immutable after
    /// registration).
    /// Unregistration tombstones a slot with an empty record — ids are
    /// never reused, so outstanding shared records stay valid.
    pub query_index: Vec<Arc<QueryRecord>>,
    /// Number of non-tombstoned `query_index` slots.
    live: usize,
}

impl InvertedIndexes {
    /// Creates empty indexes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a query's record, updating every inverted index.
    pub fn insert(&mut self, qid: QueryId, record: QueryRecord) {
        debug_assert_eq!(qid.index(), self.query_index.len());
        for edge in &record.edges {
            let queries = self.edge_index.entry(*edge).or_default();
            if !queries.contains(&qid) {
                queries.push(qid);
            }
            let sources = self.source_index.entry(edge.src).or_default();
            if !sources.contains(edge) {
                sources.push(*edge);
            }
            let targets = self.target_index.entry(edge.tgt).or_default();
            if !targets.contains(edge) {
                targets.push(*edge);
            }
        }
        self.query_index.push(Arc::new(record));
        self.live += 1;
    }

    /// Unregisters a query: strips it from `edgeInd` (and drops edges no
    /// remaining query uses from the vertex-position indexes too), then
    /// tombstones its `queryInd` slot with an empty record so the id is
    /// never reused. Returns `false` when the slot does not exist or was
    /// already tombstoned.
    pub fn remove(&mut self, qid: QueryId) -> bool {
        let Some(slot) = self.query_index.get_mut(qid.index()) else {
            return false;
        };
        if slot.edges.is_empty() {
            return false;
        }
        let record = std::mem::replace(
            slot,
            Arc::new(QueryRecord {
                paths: Vec::new(),
                edges: Vec::new(),
            }),
        );
        for edge in &record.edges {
            let Some(queries) = self.edge_index.get_mut(edge) else {
                continue;
            };
            queries.retain(|q| *q != qid);
            if !queries.is_empty() {
                continue;
            }
            self.edge_index.remove(edge);
            if let Some(edges) = self.source_index.get_mut(&edge.src) {
                edges.retain(|e| e != edge);
                if edges.is_empty() {
                    self.source_index.remove(&edge.src);
                }
            }
            if let Some(edges) = self.target_index.get_mut(&edge.tgt) {
                edges.retain(|e| e != edge);
                if edges.is_empty() {
                    self.target_index.remove(&edge.tgt);
                }
            }
        }
        self.live -= 1;
        true
    }

    /// `true` when the id names a non-tombstoned query.
    pub fn is_live(&self, qid: QueryId) -> bool {
        self.query_index
            .get(qid.index())
            .is_some_and(|r| !r.edges.is_empty())
    }

    /// Number of live (non-tombstoned) queries.
    pub fn num_live(&self) -> usize {
        self.live
    }

    /// Queries containing any of the given generic edges, deduplicated and
    /// sorted.
    pub fn affected_queries(&self, edges: &[GenericEdge]) -> Vec<QueryId> {
        let mut out: Vec<QueryId> = edges
            .iter()
            .filter_map(|e| self.edge_index.get(e))
            .flatten()
            .copied()
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of `queryInd` slots ever issued (live + tombstoned) — the
    /// next registration's id.
    pub fn num_queries(&self) -> usize {
        self.query_index.len()
    }

    /// The record of a query.
    pub fn record(&self, qid: QueryId) -> &QueryRecord {
        &self.query_index[qid.index()]
    }

    /// A shared handle to the record of a query — an `Arc` bump, not a deep
    /// copy. This is what a batch's answer pass iterates.
    pub fn record_shared(&self, qid: QueryId) -> Arc<QueryRecord> {
        Arc::clone(&self.query_index[qid.index()])
    }
}

impl HeapSize for InvertedIndexes {
    fn heap_size(&self) -> usize {
        self.edge_index.heap_size()
            + self.source_index.heap_size()
            + self.target_index.heap_size()
            + self.query_index.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsm_core::interner::Sym;
    use gsm_core::model::term::{PatternEdge, Term};

    fn ge(label: u32, src: Term, tgt: Term) -> GenericEdge {
        GenericEdge::from_pattern(&PatternEdge::new(Sym(label), src, tgt))
    }

    fn record(edges: Vec<GenericEdge>) -> QueryRecord {
        QueryRecord {
            paths: vec![PathRecord {
                edges: edges.clone(),
                vertices: (0..=edges.len()).collect(),
            }],
            edges,
        }
    }

    #[test]
    fn edge_index_maps_edges_to_queries() {
        let mut idx = InvertedIndexes::new();
        let shared = ge(0, Term::Var(0), Term::Var(1));
        let only_q1 = ge(1, Term::Var(0), Term::Const(Sym(9)));
        idx.insert(QueryId(0), record(vec![shared, only_q1]));
        idx.insert(QueryId(1), record(vec![shared]));

        assert_eq!(
            idx.affected_queries(&[shared]),
            vec![QueryId(0), QueryId(1)]
        );
        assert_eq!(idx.affected_queries(&[only_q1]), vec![QueryId(0)]);
        assert!(idx
            .affected_queries(&[ge(7, Term::Var(0), Term::Var(1))])
            .is_empty());
    }

    #[test]
    fn source_and_target_indexes_group_by_vertex_position() {
        let mut idx = InvertedIndexes::new();
        let a = ge(0, Term::Var(0), Term::Const(Sym(5)));
        let b = ge(1, Term::Var(2), Term::Const(Sym(5)));
        idx.insert(QueryId(0), record(vec![a, b]));
        assert_eq!(idx.source_index.get(&GenTerm::Any).map(Vec::len), Some(2));
        assert_eq!(
            idx.target_index.get(&GenTerm::Const(Sym(5))).map(Vec::len),
            Some(2)
        );
    }

    #[test]
    fn duplicate_edges_within_query_are_indexed_once() {
        let mut idx = InvertedIndexes::new();
        let e = ge(0, Term::Var(0), Term::Var(1));
        idx.insert(QueryId(0), record(vec![e, e]));
        assert_eq!(idx.edge_index.get(&e).map(Vec::len), Some(1));
    }

    #[test]
    fn remove_strips_indexes_but_keeps_shared_edges() {
        let mut idx = InvertedIndexes::new();
        let shared = ge(0, Term::Var(0), Term::Var(1));
        let only_q0 = ge(1, Term::Var(0), Term::Const(Sym(9)));
        idx.insert(QueryId(0), record(vec![shared, only_q0]));
        idx.insert(QueryId(1), record(vec![shared]));

        assert!(idx.remove(QueryId(0)));
        assert_eq!(idx.num_live(), 1);
        assert_eq!(idx.num_queries(), 2, "slots stay for id stability");
        assert!(!idx.is_live(QueryId(0)));
        assert!(idx.is_live(QueryId(1)));

        // The shared edge still routes to q1; q0's private edge is gone
        // from every index, including the vertex-position ones.
        assert_eq!(idx.affected_queries(&[shared]), vec![QueryId(1)]);
        assert!(idx.affected_queries(&[only_q0]).is_empty());
        assert!(!idx.target_index.contains_key(&GenTerm::Const(Sym(9))));
        assert!(idx.source_index.contains_key(&GenTerm::Any));

        // Removing the tombstone again reports absence.
        assert!(!idx.remove(QueryId(0)));
        assert!(!idx.remove(QueryId(7)));

        assert!(idx.remove(QueryId(1)));
        assert_eq!(idx.num_live(), 0);
        assert!(idx.edge_index.is_empty());
        assert!(idx.source_index.is_empty());
        assert!(idx.target_index.is_empty());
    }

    #[test]
    fn affected_queries_dedup_across_shapes() {
        let mut idx = InvertedIndexes::new();
        let a = ge(0, Term::Var(0), Term::Var(1));
        let b = ge(0, Term::Var(0), Term::Const(Sym(3)));
        idx.insert(QueryId(0), record(vec![a, b]));
        let affected = idx.affected_queries(&[a, b]);
        assert_eq!(affected, vec![QueryId(0)]);
    }
}
