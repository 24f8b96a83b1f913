//! The continuous adapter: the paper's Neo4j-based baseline as a
//! [`ContinuousEngine`].
//!
//! Query indexing keeps the query patterns verbatim (`queryInd`) plus an
//! inverted index from generic edges to query ids (`edgeInd`). Answering a
//! stream update then follows Section 5.3 exactly: (1) apply the update to
//! the database, (2) look up the affected queries in `edgeInd`, (3) fetch
//! them from `queryInd`, and (4) execute them against the database — here
//! anchored at the new edge so that the reported matches are the *new*
//! embeddings, which keeps the outputs of all engines identical.

use std::collections::HashMap;

use gsm_core::engine::{
    ContinuousEngine, EngineStats, FlushCounts, MatchReport, QueryId, QueryTable,
};
use gsm_core::error::Result;
use gsm_core::memory::HeapSize;
use gsm_core::model::generic::GenericEdge;
use gsm_core::model::update::{sign_runs, Update};
use gsm_core::query::pattern::QueryPattern;
use gsm_core::relation::fasthash::FxHashMap;

use crate::matcher::{execute, MatchCollector};
use crate::plan::PlanCache;
use crate::store::GraphStore;

/// The graph-database baseline engine.
#[derive(Debug)]
pub struct GraphDbEngine {
    store: GraphStore,
    /// queryInd: the registered query patterns.
    queries: QueryTable<QueryPattern>,
    /// edgeInd: generic edge → queries containing a pattern edge with that shape,
    /// along with the indices of those pattern edges.
    edge_index: FxHashMap<GenericEdge, Vec<(QueryId, usize)>>,
    plan_cache: PlanCache,
    /// Every run's signed counts, assembled into the batch's report once.
    counts: FlushCounts,
    stats: EngineStats,
}

impl GraphDbEngine {
    /// Creates an engine over an empty store.
    pub fn new() -> Self {
        GraphDbEngine {
            store: GraphStore::new(),
            queries: QueryTable::new(),
            edge_index: FxHashMap::default(),
            plan_cache: PlanCache::new(),
            counts: FlushCounts::default(),
            stats: EngineStats::default(),
        }
    }

    /// The underlying store (for inspection in tests and examples).
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// Number of cached execution plans.
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }
}

impl Default for GraphDbEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// GraphDB rides the trait-default staging (`stage_batch` = `apply_batch`)
/// and the trait-default `apply_update` (a one-update batch), like every
/// engine: a retraction run is answered against the pre-removal store and
/// committed before `stage_batch` returns.
impl ContinuousEngine for GraphDbEngine {
    fn name(&self) -> &'static str {
        "GraphDB"
    }

    fn register_query(&mut self, query: &QueryPattern) -> Result<QueryId> {
        let qid = self.queries.insert(query.clone());
        for (edge_idx, edge) in query.edges().iter().enumerate() {
            let ge = GenericEdge::from_pattern(edge);
            self.edge_index.entry(ge).or_default().push((qid, edge_idx));
        }
        Ok(qid)
    }

    /// Strips the query from edgeInd, tombstones its queryInd slot and
    /// evicts its cached plans. The database itself is untouched — edges
    /// belong to the stream, not to any query.
    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        let pattern = self.queries.remove(query)?;
        for edge in pattern.edges() {
            let ge = GenericEdge::from_pattern(edge);
            if let Some(entries) = self.edge_index.get_mut(&ge) {
                entries.retain(|(q, _)| *q != query);
                if entries.is_empty() {
                    self.edge_index.remove(&ge);
                }
            }
        }
        self.plan_cache.evict_query(query);
        Ok(())
    }

    fn next_query_id(&self) -> QueryId {
        self.queries.next_id()
    }

    fn is_registered(&self, query: QueryId) -> bool {
        self.queries.is_live(query)
    }

    /// Batched answering: the whole batch is applied to the database first,
    /// then every affected query is executed **once**, anchored at each
    /// genuinely new edge of the batch, with a single embedding collector
    /// per query. The collector deduplicates embeddings discovered from
    /// several anchors — including an embedding completed by more than one
    /// batch edge — so the per-query count equals the distinct new
    /// embeddings of the whole batch, exactly the merged sequential total
    /// (each embedding is reported sequentially once, at the update that
    /// completes it). Unlike answering the updates one at a time, each
    /// (query, anchor-edge) plan is built at most once per batch. A single
    /// update is the one-update batch: Section 5.3's per-update algorithm
    /// exactly. A batch of both signs answers each same-sign run in turn,
    /// and every run's counts go into one report.
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        for run in sign_runs(updates) {
            if run[0].is_retraction() {
                self.retract_batch(run);
            } else {
                self.insert_batch(run);
            }
        }
        let report = self.counts.take_report();
        self.stats.notifications += report.len() as u64;
        self.stats.embeddings += report.total_embeddings();
        self.stats.retracted += report.total_retracted();
        report
    }

    fn num_queries(&self) -> usize {
        self.queries.num_live()
    }

    fn heap_bytes(&self) -> usize {
        self.store.heap_size()
            + self.queries.heap_size()
            + self.edge_index.heap_size()
            + self.plan_cache.heap_size()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

impl GraphDbEngine {
    /// Steps 2–4 of Section 5.3 for a set of anchor edges: resolves the
    /// affected (query, pattern edge) pairs of every edge via edgeInd, then
    /// executes each affected query against the store as it stands,
    /// anchored at every such pair, with one deduplicating collector per
    /// query. Appends `(query, distinct embeddings)` to the counts of the
    /// run's sign, in query order, for the queries with at least one.
    fn answer_anchored(&mut self, edges: &[Update], retract: bool) {
        let mut anchored: HashMap<QueryId, Vec<(usize, Update)>> = HashMap::new();
        for &e in edges {
            for shape in GenericEdge::shapes_of_update(&e) {
                if let Some(entries) = self.edge_index.get(&shape) {
                    for &(qid, edge_idx) in entries {
                        anchored.entry(qid).or_default().push((edge_idx, e));
                    }
                }
            }
        }
        let mut sorted: Vec<(QueryId, Vec<(usize, Update)>)> = anchored.into_iter().collect();
        sorted.sort_by_key(|(q, _)| *q);
        let counts = self.counts.of_sign(retract);
        for (qid, anchors) in sorted {
            let query = self
                .queries
                .get(qid)
                .expect("edgeInd routes only to live queries");
            let mut collector = MatchCollector::new();
            for (anchor_edge, e) in anchors {
                let plan = self
                    .plan_cache
                    .get_or_build(qid, query, &self.store, Some(anchor_edge));
                execute(
                    query,
                    plan,
                    &self.store,
                    Some((anchor_edge, e)),
                    &mut collector,
                );
            }
            if !collector.is_empty() {
                counts.push((qid, collector.len() as u64));
            }
        }
    }

    /// The insert-only batch core (Section 5.3 amortized over the run):
    /// apply the run to the database, then answer every affected query
    /// against the post-batch store, anchored at each genuinely new edge.
    fn insert_batch(&mut self, updates: &[Update]) {
        self.stats.updates_processed += updates.len() as u64;

        // (1) Apply the whole batch to the database, keeping the genuinely
        // new edges (duplicates of history or of earlier updates in the same
        // batch are absorbed exactly as they would be one at a time).
        let new_edges: Vec<Update> = updates
            .iter()
            .copied()
            .filter(|u| self.store.insert_edge(*u))
            .collect();

        // (2)–(4) Answer the affected queries, anchored at the new edges.
        self.answer_anchored(&new_edges, false);
    }

    /// The retraction core: the disappearing embeddings are enumerated
    /// **before** the database changes — every affected query is answered
    /// against the pre-removal store, anchored at each edge about to go
    /// (an embedding disappears iff it maps some pattern edge onto a
    /// removed edge) — and only then are the edges deleted from the
    /// store's edge set and adjacency.
    fn retract_batch(&mut self, updates: &[Update]) {
        self.stats.updates_processed += updates.len() as u64;

        // (1) Resolve which of the named edges actually exist (the batch may
        // retract the same edge twice; removal is answered and applied once).
        let mut victims: Vec<Update> = Vec::new();
        for u in updates {
            let e = u.edge();
            if self.store.has_edge(e.label, e.src, e.tgt) && !victims.contains(&e) {
                victims.push(e);
            }
        }

        // (2)–(4) Answer against the PRE-removal store.
        self.answer_anchored(&victims, true);

        // (5) Commit the removals.
        for &e in &victims {
            self.store.remove_edge(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsm_core::error::Error;
    use gsm_core::interner::SymbolTable;

    struct Fixture {
        symbols: SymbolTable,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                symbols: SymbolTable::new(),
            }
        }
        fn q(&mut self, text: &str) -> QueryPattern {
            QueryPattern::parse(text, &mut self.symbols).unwrap()
        }
        fn u(&mut self, label: &str, src: &str, tgt: &str) -> Update {
            Update::new(
                self.symbols.intern(label),
                self.symbols.intern(src),
                self.symbols.intern(tgt),
            )
        }
    }

    #[test]
    fn default_immediate_staging_answers_retraction_runs_at_stage_time() {
        use gsm_core::engine::ContinuousEngine as _;
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        let q = f.q("?a -x-> ?b; ?b -y-> ?c");
        engine.register_query(&q).unwrap();
        let ux = f.u("x", "a", "b");
        let uy = f.u("y", "b", "c");
        assert_eq!(engine.apply_batch(&[ux, uy]).total_embeddings(), 1);

        // The retraction is answered against the pre-removal store at stage
        // time and the commit lands before stage_batch returns, so a staged
        // re-insert routes post-removal.
        let t1 = engine.stage_batch(&[uy.inverted()]);
        let d1 = engine.detach_staged(t1);
        let t2 = engine.stage_batch(&[uy]);
        let r1 = d1.run();
        engine.absorb_answered(&r1);
        assert_eq!(r1.total_retracted(), 1);
        let r2 = engine.answer_staged(t2);
        assert_eq!(r2.total_embeddings(), 1);
        assert_eq!(engine.stats().retracted, 1);
    }

    #[test]
    fn unregister_stops_matching_and_evicts_cached_plans() {
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        let q1 = f.q("?a -knows-> ?b; ?b -worksAt-> acme");
        let q2 = f.q("?a -knows-> ?b");
        let id1 = engine.register_query(&q1).unwrap();
        let id2 = engine.register_query(&q2).unwrap();
        engine.apply_update(f.u("knows", "ann", "bob"));
        engine.apply_update(f.u("worksAt", "bob", "acme"));
        assert!(engine.cached_plans() > 0);

        engine.unregister_query(id1).unwrap();
        assert_eq!(engine.num_queries(), 1);
        assert!(!engine.is_registered(id1));
        assert!(engine.is_registered(id2));
        assert_eq!(
            engine.unregister_query(id1),
            Err(Error::UnknownQuery(id1.0))
        );

        // q1 no longer reports; q2 still does; the store keeps its edges.
        assert!(engine
            .apply_update(f.u("worksAt", "cat", "acme"))
            .is_empty());
        let r = engine.apply_update(f.u("knows", "cat", "dan"));
        assert_eq!(r.satisfied_queries(), vec![id2]);
        assert_eq!(engine.store().num_edges(), 4);

        // The freed id is never reused; the new query sees retained history.
        let id3 = engine.register_query(&f.q("?p -worksAt-> ?c")).unwrap();
        assert_eq!(id3, QueryId(2));
        assert_eq!(engine.next_query_id(), QueryId(3));
        let r = engine.apply_update(f.u("worksAt", "eve", "inc"));
        assert_eq!(r.satisfied_queries(), vec![id3]);
    }

    #[test]
    fn chain_query_matches_when_complete() {
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        let q = f.q("?a -knows-> ?b; ?b -worksAt-> acme");
        let qid = engine.register_query(&q).unwrap();
        assert!(engine.apply_update(f.u("knows", "alice", "bob")).is_empty());
        let report = engine.apply_update(f.u("worksAt", "bob", "acme"));
        assert_eq!(report.satisfied_queries(), vec![qid]);
        assert_eq!(report.matches[0].new_embeddings, 1);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        let q = f.q("?a -knows-> ?b");
        engine.register_query(&q).unwrap();
        let u = f.u("knows", "a", "b");
        assert_eq!(engine.apply_update(u).len(), 1);
        assert_eq!(engine.apply_update(u).len(), 0);
    }

    #[test]
    fn self_loop_query() {
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        let q = f.q("?a -follows-> ?a");
        let qid = engine.register_query(&q).unwrap();
        assert!(engine.apply_update(f.u("follows", "x", "y")).is_empty());
        let r = engine.apply_update(f.u("follows", "z", "z"));
        assert_eq!(r.satisfied_queries(), vec![qid]);
    }

    #[test]
    fn embedding_counts_match_the_relational_engines() {
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        let q = f.q("?a -knows-> ?b; ?b -likes-> ?c");
        engine.register_query(&q).unwrap();
        engine.apply_update(f.u("knows", "a1", "b"));
        engine.apply_update(f.u("knows", "a2", "b"));
        let report = engine.apply_update(f.u("likes", "b", "c"));
        assert_eq!(report.matches[0].new_embeddings, 2);
    }

    #[test]
    fn plan_cache_is_reused_across_updates() {
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        let q = f.q("?a -x-> ?b; ?b -y-> ?c");
        engine.register_query(&q).unwrap();
        for i in 0..10 {
            engine.apply_update(f.u("x", &format!("a{i}"), &format!("b{i}")));
            engine.apply_update(f.u("y", &format!("b{i}"), &format!("c{i}")));
        }
        assert!(engine.cached_plans() <= 2);
        assert!(engine.store().num_edges() == 20);
    }

    #[test]
    fn retraction_reports_disappearing_matches() {
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        let q = f.q("?a -knows-> ?b; ?b -likes-> ?c");
        let qid = engine.register_query(&q).unwrap();
        engine.apply_update(f.u("knows", "a1", "b"));
        engine.apply_update(f.u("knows", "a2", "b"));
        engine.apply_update(f.u("likes", "b", "c"));
        // Removing the shared `likes` edge destroys both embeddings.
        let report = engine.apply_update(f.u("likes", "b", "c").inverted());
        assert_eq!(report.matches.len(), 1);
        assert_eq!(report.matches[0].query, qid);
        assert_eq!(report.matches[0].retracted_embeddings, 2);
        assert_eq!(engine.stats().retracted, 2);
        assert_eq!(engine.store().num_edges(), 2);
        // Retracting again (or an absent edge) is a no-op.
        assert!(engine
            .apply_update(f.u("likes", "b", "c").inverted())
            .is_empty());
        // Re-adding brings both embeddings back.
        let revived = engine.apply_update(f.u("likes", "b", "c"));
        assert_eq!(revived.matches[0].new_embeddings, 2);
    }

    #[test]
    fn mixed_batch_reports_both_signs_without_cancelling() {
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        let q = f.q("?a -x-> ?b; ?b -y-> ?c");
        engine.register_query(&q).unwrap();
        let ux = f.u("x", "a1", "b1");
        let uy = f.u("y", "b1", "c1");
        let report = engine.apply_batch(&[ux, uy, ux.inverted()]);
        assert_eq!(report.total_embeddings(), 1);
        assert_eq!(report.total_retracted(), 1);
        assert_eq!(engine.store().num_edges(), 1);
    }

    #[test]
    fn retracting_every_edge_of_an_embedding_in_one_batch_counts_it_once() {
        // Both removed edges anchor the same disappearing embedding; the
        // collector is shared across anchors, so it is reported once.
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        let qid = engine
            .register_query(&f.q("?a -x-> ?b; ?b -y-> ?c"))
            .unwrap();
        let ux = f.u("x", "a", "b");
        let uy = f.u("y", "b", "c");
        engine.apply_batch(&[ux, uy]);
        let report = engine.apply_batch(&[ux.inverted(), uy.inverted()]);
        assert_eq!(report.matches.len(), 1);
        assert_eq!(report.matches[0].query, qid);
        assert_eq!(report.matches[0].retracted_embeddings, 1);
        assert_eq!(engine.store().num_edges(), 0);
    }

    #[test]
    fn a_batch_retracting_one_edge_twice_removes_it_once() {
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        engine.register_query(&f.q("?a -knows-> ?b")).unwrap();
        let u = f.u("knows", "a", "b");
        engine.apply_update(u);
        let report = engine.apply_batch(&[u.inverted(), u.inverted()]);
        assert_eq!(report.total_retracted(), 1);
        assert_eq!(engine.stats().retracted, 1);
        assert_eq!(engine.stats().updates_processed, 3);
        assert_eq!(engine.store().num_edges(), 0);
    }

    #[test]
    fn edges_no_query_indexes_reach_the_store_only() {
        let mut f = Fixture::new();
        let mut engine = GraphDbEngine::new();
        engine.register_query(&f.q("?a -knows-> ?b")).unwrap();
        let other = f.u("likes", "a", "b");
        assert!(engine.apply_batch(&[other]).is_empty());
        assert_eq!(engine.store().num_edges(), 1);
        assert_eq!(engine.cached_plans(), 0, "edgeInd routed it nowhere");
        assert!(engine.apply_batch(&[other.inverted()]).is_empty());
        assert_eq!(engine.store().num_edges(), 0);
        assert_eq!(engine.stats().updates_processed, 2);
        assert_eq!(engine.stats().notifications, 0);
    }
}
