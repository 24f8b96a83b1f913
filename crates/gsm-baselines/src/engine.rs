//! The INV / INV+ / INC / INC+ answering engines (Sections 5.1 and 5.2).

use gsm_core::engine::{ContinuousEngine, EngineStats, MatchReport, QueryId};
use gsm_core::error::{Error, Result};
use gsm_core::interner::Sym;
use gsm_core::memory::HeapSize;
use gsm_core::model::generic::GenericEdge;
use gsm_core::model::update::Update;
use gsm_core::query::paths::covering_paths;
use gsm_core::query::pattern::QueryPattern;
use std::sync::Arc;

use gsm_core::relation::cache::JoinCache;
use gsm_core::relation::eval::{join_paths, PathBinding};
use gsm_core::relation::fasthash::FxHashMap;
use gsm_core::relation::Relation;
use gsm_core::shard::ShardedEngine;
use gsm_core::views::EdgeViewStore;

use crate::index::{InvertedIndexes, PathRecord, QueryRecord};
use crate::paths;

/// Which baseline algorithm the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMode {
    /// INV: joins the full materialized views of every covering path of every
    /// affected query, then derives the new embeddings.
    Inv,
    /// INC: seeds the affected covering path(s) with the incoming update only
    /// (fewer tuples examined), recomputing only the unaffected paths fully.
    Inc,
}

/// The shared INV/INC engine; the mode and the caching flag select between
/// the four baselines of the paper.
#[derive(Debug)]
pub struct BaselineEngine {
    mode: BaselineMode,
    caching: bool,
    views: EdgeViewStore,
    indexes: InvertedIndexes,
    cache: JoinCache,
    /// Row assembly scratch shared by the per-update path extensions.
    row_buf: Vec<Sym>,
    stats: EngineStats,
}

impl BaselineEngine {
    /// Creates an engine with an explicit mode and caching flag.
    pub fn with_mode(mode: BaselineMode, caching: bool) -> Self {
        BaselineEngine {
            mode,
            caching,
            views: EdgeViewStore::new(),
            indexes: InvertedIndexes::new(),
            cache: JoinCache::new(),
            row_buf: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Algorithm INV.
    pub fn inv() -> Self {
        Self::with_mode(BaselineMode::Inv, false)
    }

    /// Algorithm INV+ (join-structure caching).
    pub fn inv_plus() -> Self {
        Self::with_mode(BaselineMode::Inv, true)
    }

    /// Algorithm INC.
    pub fn inc() -> Self {
        Self::with_mode(BaselineMode::Inc, false)
    }

    /// Algorithm INC+ (join-structure caching).
    pub fn inc_plus() -> Self {
        Self::with_mode(BaselineMode::Inc, true)
    }

    /// Wraps the selected baseline in a [`ShardedEngine`] with `num_shards`
    /// worker shards, partitioned by each query's first root generic edge
    /// exactly like the sharded TRIC variants — the INV/INC parity point for
    /// the shard-count differential tests.
    pub fn sharded(
        mode: BaselineMode,
        caching: bool,
        num_shards: usize,
    ) -> ShardedEngine<BaselineEngine> {
        ShardedEngine::new(num_shards, move || Self::with_mode(mode, caching))
    }

    /// The mode of this engine.
    pub fn mode(&self) -> BaselineMode {
        self.mode
    }

    /// Join-cache hit counter (always zero for the non-`+` variants).
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Resolves the queries affected by a routed batch via edgeInd and takes
    /// shared handles to their records — the per-batch working set the
    /// answer pass iterates. Records are immutable after registration, so
    /// the handles are `Arc` bumps, not deep copies.
    fn affected_records(
        &self,
        edge_deltas: &FxHashMap<GenericEdge, Relation>,
    ) -> Vec<(QueryId, Arc<QueryRecord>)> {
        let affected_edges: Vec<GenericEdge> = edge_deltas.keys().copied().collect();
        self.indexes
            .affected_queries(&affected_edges)
            .into_iter()
            .map(|qid| (qid, self.indexes.record_shared(qid)))
            .collect()
    }
}

/// The baselines' answer pass (steps 2–3 plus the final join), shared by the
/// insertion path (post-batch views, seeded with the routed deltas) and the
/// retraction path (pre-removal views, seeded with the removed rows).
/// Returns the per-query embedding counts.
fn answer_affected(
    mode: BaselineMode,
    views: &EdgeViewStore,
    mut cache: Option<&mut JoinCache>,
    row_buf: &mut Vec<Sym>,
    edge_deltas: &FxHashMap<GenericEdge, Relation>,
    affected: &[(QueryId, Arc<QueryRecord>)],
) -> Vec<(QueryId, u64)> {
    let mut counts: Vec<(QueryId, u64)> = Vec::new();

    'queries: for (qid, record) in affected {
        for edge in &record.edges {
            match views.get(edge) {
                Some(view) if !view.is_empty() => {}
                _ => continue 'queries,
            }
        }

        // Step 2/3: path examination and materialization.
        //
        // INV computes the full relation of *every* covering path (the
        // "join and explore" cost the paper attributes to it); INC only
        // computes full relations for the paths the update does not
        // touch. Both then derive the new embeddings by joining the
        // update-seeded delta of each affected path with the other
        // paths' relations.
        let path_affected: Vec<bool> = record
            .paths
            .iter()
            .map(|p| p.edges.iter().any(|e| edge_deltas.contains_key(e)))
            .collect();

        let mut full_relations: Vec<Option<Relation>> = vec![None; record.paths.len()];
        let mut all_present = true;
        for (i, path) in record.paths.iter().enumerate() {
            let need_full = match mode {
                BaselineMode::Inv => true,
                BaselineMode::Inc => !path_affected[i],
            };
            if need_full {
                let rel =
                    paths::full_path_relation(views, &path.edges, cache.as_deref_mut(), row_buf);
                if rel.is_empty() {
                    all_present = false;
                    break;
                }
                full_relations[i] = Some(rel);
            }
        }
        if !all_present {
            continue;
        }

        let mut deltas: Vec<Option<Relation>> = vec![None; record.paths.len()];
        for (i, path) in record.paths.iter().enumerate() {
            if path_affected[i] {
                let d = paths::delta_path_relation(
                    views,
                    &path.edges,
                    edge_deltas,
                    cache.as_deref_mut(),
                    row_buf,
                );
                if !d.is_empty() {
                    deltas[i] = Some(d);
                }
            }
        }
        if deltas.iter().all(Option::is_none) {
            continue;
        }

        // INC may not yet have computed the full relation of an affected
        // path that is needed as "the other path" during the final join;
        // compute those now (only when at least two paths are involved).
        if record.paths.len() > 1 {
            for (j, path) in record.paths.iter().enumerate() {
                let needed = deltas
                    .iter()
                    .enumerate()
                    .any(|(i, d)| i != j && d.is_some());
                if needed && full_relations[j].is_none() {
                    let rel = paths::full_path_relation(
                        views,
                        &path.edges,
                        cache.as_deref_mut(),
                        row_buf,
                    );
                    if !rel.is_empty() {
                        full_relations[j] = Some(rel);
                    }
                }
            }
        }

        // Final join per affected path, union of distinct embeddings.
        let mut embeddings: Option<Relation> = None;
        for (i, delta) in deltas.iter().enumerate() {
            let Some(delta) = delta else { continue };
            let mut bindings = Vec::with_capacity(record.paths.len());
            bindings.push(PathBinding::new(delta, &record.paths[i].vertices));
            let mut usable = true;
            for (j, other) in record.paths.iter().enumerate() {
                if j == i {
                    continue;
                }
                match &full_relations[j] {
                    Some(rel) => bindings.push(PathBinding::new(rel, &other.vertices)),
                    None => {
                        usable = false;
                        break;
                    }
                }
            }
            if !usable {
                continue;
            }
            if let Some(result) = join_paths(&bindings) {
                let canon = result.canonicalize();
                match &mut embeddings {
                    None => embeddings = Some(canon.rel),
                    Some(acc) => {
                        acc.extend_from(&canon.rel);
                    }
                }
            }
        }
        if let Some(emb) = embeddings {
            if !emb.is_empty() {
                counts.push((*qid, emb.len() as u64));
            }
        }
    }

    counts
}

impl ContinuousEngine for BaselineEngine {
    fn name(&self) -> &'static str {
        match (self.mode, self.caching) {
            (BaselineMode::Inv, false) => "INV",
            (BaselineMode::Inv, true) => "INV+",
            (BaselineMode::Inc, false) => "INC",
            (BaselineMode::Inc, true) => "INC+",
        }
    }

    fn register_query(&mut self, query: &QueryPattern) -> Result<QueryId> {
        let qid = QueryId(self.indexes.num_queries() as u32);
        let paths = covering_paths(query);
        let mut records = Vec::with_capacity(paths.len());
        let mut edges: Vec<GenericEdge> = Vec::new();
        for path in &paths {
            let generic: Vec<GenericEdge> = path
                .edges
                .iter()
                .map(|&e| GenericEdge::from_pattern(&query.edges()[e]))
                .collect();
            for &ge in &generic {
                self.views.register(ge);
                if !edges.contains(&ge) {
                    edges.push(ge);
                }
            }
            records.push(PathRecord {
                edges: generic,
                vertices: path.vertex_sequence(query),
            });
        }
        self.indexes.insert(
            qid,
            QueryRecord {
                paths: records,
                edges,
            },
        );
        Ok(qid)
    }

    /// Strips the query from every inverted index and tombstones its
    /// `queryInd` slot (ids are never reused). Edge views stay registered —
    /// routing consults edgeInd, so an unmatched view is dead weight only,
    /// and a later registration over the same edge reuses its history.
    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        if !self.indexes.remove(query) {
            return Err(Error::UnknownQuery(query.0));
        }
        Ok(())
    }

    fn next_query_id(&self) -> QueryId {
        QueryId(self.indexes.num_queries() as u32)
    }

    fn is_registered(&self, query: QueryId) -> bool {
        self.indexes.is_live(query)
    }

    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        let mut report = MatchReport::empty();
        for run in gsm_core::model::update::sign_runs(updates) {
            let run_report = if run[0].is_retraction() {
                self.retract_batch_core(run)
            } else {
                self.apply_batch_core(run)
            };
            report = report.merge(&run_report);
        }
        report
    }

    fn num_queries(&self) -> usize {
        self.indexes.num_live()
    }

    fn heap_bytes(&self) -> usize {
        self.views.heap_size() + self.indexes.heap_size() + self.cache.heap_size()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

impl BaselineEngine {
    /// The shared answering core: a single update is just a batch of one
    /// (its per-edge deltas are one-row relations, reproducing the paper's
    /// per-update algorithm exactly), while a larger batch routes once,
    /// resolves the affected queries once, computes the full relations of
    /// the unaffected covering paths once, and seeds the affected paths with
    /// the merged per-edge deltas — the batched index maintenance the
    /// ROADMAP's batch-updates item asks for.
    fn apply_batch_core(&mut self, updates: &[Update]) -> MatchReport {
        self.stats.updates_processed += updates.len() as u64;

        // Route the whole batch to the edge-level materialized views,
        // collecting the merged per-edge delta relations.
        let edge_deltas = self.views.apply_batch(updates);
        if edge_deltas.is_empty() {
            return MatchReport::empty();
        }

        // Step 1: locate the affected queries via edgeInd once per batch,
        // then run the shared answer pass against the live views (wiring in
        // the join cache when caching is enabled).
        let affected = self.affected_records(&edge_deltas);
        let counts = answer_affected(
            self.mode,
            &self.views,
            self.caching.then_some(&mut self.cache),
            &mut self.row_buf,
            &edge_deltas,
            &affected,
        );

        let report = MatchReport::from_counts(counts);
        self.stats.notifications += report.len() as u64;
        self.stats.embeddings += report.total_embeddings();
        report
    }

    /// The retraction mirror of [`apply_batch_core`](Self::apply_batch_core):
    /// collect the removed rows read-only
    /// ([`EdgeViewStore::remove_deltas`]), run the very same
    /// join-and-explore pass seeded with them against the still
    /// **pre-removal** views — which by the deletion-delta property of
    /// [`paths::delta_path_relation`] yields exactly
    /// `full_before − full_after` per covering path — and only then commit
    /// the removal ([`EdgeViewStore::retract_deltas`]).
    fn retract_batch_core(&mut self, updates: &[Update]) -> MatchReport {
        self.stats.updates_processed += updates.len() as u64;

        let removed = self.views.remove_deltas(updates);
        if removed.is_empty() {
            return MatchReport::empty();
        }

        let affected = self.affected_records(&removed);
        let counts = answer_affected(
            self.mode,
            &self.views,
            self.caching.then_some(&mut self.cache),
            &mut self.row_buf,
            &removed,
            &affected,
        );
        self.views
            .retract_deltas(&removed, self.caching.then_some(&mut self.cache));

        let report = MatchReport::from_retraction_counts(counts);
        self.stats.notifications += report.len() as u64;
        self.stats.retracted += report.total_retracted();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn engines() -> Vec<BaselineEngine> {
        vec![
            BaselineEngine::inv(),
            BaselineEngine::inv_plus(),
            BaselineEngine::inc(),
            BaselineEngine::inc_plus(),
        ]
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = engines().iter().map(|e| e.name()).collect();
        assert_eq!(names, vec!["INV", "INV+", "INC", "INC+"]);
    }

    #[test]
    fn unregister_silences_the_query_and_frees_its_id_slot_forever() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q1 = f.q("?a -knows-> ?b; ?b -worksAt-> acme");
            let q2 = f.q("?a -knows-> ?b");
            let id1 = engine.register_query(&q1).unwrap();
            let id2 = engine.register_query(&q2).unwrap();
            engine.apply_update(f.u("knows", "ann", "bob"));

            engine.unregister_query(id1).unwrap();
            assert_eq!(engine.num_queries(), 1, "{}", engine.name());
            assert!(!engine.is_registered(id1));
            assert!(engine.is_registered(id2));
            assert_eq!(
                engine.unregister_query(id1),
                Err(Error::UnknownQuery(id1.0))
            );

            // The edge that only q1 used no longer routes anywhere; the
            // shared edge still answers q2.
            assert!(engine
                .apply_update(f.u("worksAt", "bob", "acme"))
                .is_empty());
            let r = engine.apply_update(f.u("knows", "cat", "dan"));
            assert_eq!(r.satisfied_queries(), vec![id2], "{}", engine.name());

            // Re-registering gets a fresh id and sees the retained history.
            let id3 = engine.register_query(&f.q("?a -worksAt-> ?c")).unwrap();
            assert_eq!(id3, QueryId(2));
            assert_eq!(engine.next_query_id(), QueryId(3));
            let r = engine.apply_update(f.u("worksAt", "eve", "acme"));
            assert_eq!(r.satisfied_queries(), vec![id3], "{}", engine.name());
        }
    }

    #[test]
    fn single_edge_query_matches() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -knows-> ?b");
            let qid = engine.register_query(&q).unwrap();
            let report = engine.apply_update(f.u("knows", "a", "b"));
            assert_eq!(report.satisfied_queries(), vec![qid], "{}", engine.name());
        }
    }

    #[test]
    fn chain_completes_on_last_edge_regardless_of_order() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b; ?b -y-> ?c");
            let qid = engine.register_query(&q).unwrap();
            assert!(engine.apply_update(f.u("y", "b1", "c1")).is_empty());
            let report = engine.apply_update(f.u("x", "a1", "b1"));
            assert_eq!(report.satisfied_queries(), vec![qid], "{}", engine.name());
        }
    }

    #[test]
    fn cycle_closure_is_required() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b; ?b -y-> ?c; ?c -z-> ?a");
            let qid = engine.register_query(&q).unwrap();
            engine.apply_update(f.u("x", "1", "2"));
            engine.apply_update(f.u("y", "2", "3"));
            assert!(engine.apply_update(f.u("z", "3", "7")).is_empty());
            let report = engine.apply_update(f.u("z", "3", "1"));
            assert_eq!(report.satisfied_queries(), vec![qid], "{}", engine.name());
        }
    }

    #[test]
    fn star_query_counts_embeddings() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?c -a-> ?x; ?c -b-> ?y");
            engine.register_query(&q).unwrap();
            engine.apply_update(f.u("a", "hub", "x1"));
            engine.apply_update(f.u("a", "hub", "x2"));
            let report = engine.apply_update(f.u("b", "hub", "y1"));
            assert_eq!(report.matches.len(), 1);
            assert_eq!(report.matches[0].new_embeddings, 2, "{}", engine.name());
        }
    }

    #[test]
    fn duplicate_updates_are_ignored() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -knows-> ?b");
            engine.register_query(&q).unwrap();
            let u = f.u("knows", "a", "b");
            assert_eq!(engine.apply_update(u).len(), 1);
            assert_eq!(engine.apply_update(u).len(), 0, "{}", engine.name());
        }
    }

    #[test]
    fn retraction_reports_disappearing_matches() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b; ?b -y-> ?c");
            let qid = engine.register_query(&q).unwrap();
            let ux = f.u("x", "a1", "b1");
            let uy = f.u("y", "b1", "c1");
            engine.apply_update(ux);
            assert_eq!(engine.apply_update(uy).len(), 1, "{}", engine.name());

            let report = engine.apply_update(ux.inverted());
            assert_eq!(report.matches.len(), 1, "{}", engine.name());
            assert_eq!(report.matches[0].query, qid);
            assert_eq!(report.matches[0].new_embeddings, 0);
            assert_eq!(report.matches[0].retracted_embeddings, 1);
            assert_eq!(engine.stats().retracted, 1);

            // The match reappears when the edge comes back.
            let revived = engine.apply_update(ux);
            assert_eq!(revived.matches[0].new_embeddings, 1, "{}", engine.name());
        }
    }

    #[test]
    fn retracting_absent_edges_is_a_noop() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b");
            engine.register_query(&q).unwrap();
            let phantom = f.u("x", "nope", "nada").inverted();
            assert!(engine.apply_update(phantom).is_empty(), "{}", engine.name());
            engine.apply_update(f.u("x", "a", "b"));
            // Double retraction in one batch removes the row once and
            // reports the disappearance once.
            let gone = f.u("x", "a", "b").inverted();
            let report = engine.apply_batch(&[gone, gone]);
            assert_eq!(report.total_retracted(), 1, "{}", engine.name());
            assert!(engine.apply_update(gone).is_empty(), "{}", engine.name());
        }
    }

    #[test]
    fn mixed_batch_reports_both_signs_without_cancelling() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b; ?b -y-> ?c");
            engine.register_query(&q).unwrap();
            let ux = f.u("x", "a1", "b1");
            let uy = f.u("y", "b1", "c1");
            // The match appears (insert run) then disappears (retraction
            // run) within one batch; both events are reported.
            let report = engine.apply_batch(&[ux, uy, ux.inverted()]);
            assert_eq!(report.total_embeddings(), 1, "{}", engine.name());
            assert_eq!(report.total_retracted(), 1, "{}", engine.name());
        }
    }

    #[test]
    fn net_counts_match_a_from_scratch_replay_under_random_deletions() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(91);
        let mut f = Fixture::new();
        let queries = vec![
            f.q("?a -e0-> ?b; ?b -e1-> ?c"),
            f.q("?h -e0-> ?x; ?h -e2-> ?y"),
            f.q("?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a"),
            f.q("?a -e2-> ?a"),
        ];
        let mut live_engines = engines();
        for q in &queries {
            for e in live_engines.iter_mut() {
                e.register_query(q).unwrap();
            }
        }
        // Random mixed stream: inserts of a smallish edge universe with a
        // 35% chance of retracting a currently-live edge instead.
        let mut live: Vec<Update> = Vec::new();
        let mut stream: Vec<Update> = Vec::new();
        for _ in 0..400 {
            if !live.is_empty() && rng.gen_bool(0.35) {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                stream.push(victim.inverted());
            } else {
                let label = format!("e{}", rng.gen_range(0..3));
                let src = format!("v{}", rng.gen_range(0..7));
                let tgt = format!("v{}", rng.gen_range(0..7));
                let u = f.u(&label, &src, &tgt);
                if !live.contains(&u) {
                    live.push(u);
                }
                stream.push(u);
            }
        }
        // Stream through each engine, tallying net (new − retracted) per
        // query; the tally must equal a from-scratch replay of the
        // surviving edge set.
        for engine in live_engines.iter_mut() {
            let mut net: FxHashMap<QueryId, i64> = FxHashMap::default();
            for batch in stream.chunks(5) {
                let report = engine.apply_batch(batch);
                for m in &report.matches {
                    *net.entry(m.query).or_default() +=
                        m.new_embeddings as i64 - m.retracted_embeddings as i64;
                }
            }
            net.retain(|_, v| *v != 0);
            let mut fresh = BaselineEngine::with_mode(engine.mode(), false);
            for q in &queries {
                fresh.register_query(q).unwrap();
            }
            let mut expected: FxHashMap<QueryId, i64> = FxHashMap::default();
            for m in &fresh.apply_batch(&live).matches {
                *expected.entry(m.query).or_default() += m.new_embeddings as i64;
            }
            expected.retain(|_, v| *v != 0);
            assert_eq!(net, expected, "{} net counts diverged", engine.name());
        }
    }

    #[test]
    fn caching_variants_report_cache_hits() {
        let mut f = Fixture::new();
        let q = f.q("?a -x-> ?b; ?b -y-> ?c");
        let mut plus = BaselineEngine::inv_plus();
        let mut plain = BaselineEngine::inv();
        plus.register_query(&q).unwrap();
        plain.register_query(&q).unwrap();
        for i in 0..20 {
            let u1 = f.u("x", &format!("a{i}"), &format!("b{i}"));
            let u2 = f.u("y", &format!("b{i}"), &format!("c{i}"));
            plus.apply_update(u1);
            plus.apply_update(u2);
            plain.apply_update(u1);
            plain.apply_update(u2);
        }
        assert!(plus.cache_hits() > 0);
        assert_eq!(plain.cache_hits(), 0);
    }
}
