//! The TRIC / TRIC+ continuous-query engine (Sections 4.1 and 4.2).

use std::collections::BTreeMap;

use gsm_core::engine::{ContinuousEngine, EngineStats, MatchReport, QueryId, QueryTable};
use gsm_core::error::Result;
use gsm_core::interner::Sym;
use gsm_core::memory::HeapSize;
use gsm_core::model::generic::GenericEdge;
use gsm_core::model::update::{sign_runs, Update};
use gsm_core::query::paths::covering_paths;
use gsm_core::query::pattern::{QVertexId, QueryPattern};
use gsm_core::relation::cache::JoinCache;
use gsm_core::relation::eval::{join_covering_paths, PathDelta};
use gsm_core::relation::fasthash::{FxHashMap, FxHashSet};
use gsm_core::relation::join::JoinBuild;
use gsm_core::relation::Relation;
use gsm_core::shard::ShardedEngine;
use gsm_core::views::EdgeViewStore;

use crate::trie::{NodeId, TrieForest};

/// Configuration of the engine — the only switch is the join-structure cache
/// that turns TRIC into TRIC+.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TricConfig {
    /// Keep and incrementally maintain hash-join build structures across
    /// updates (the TRIC+ extension of Section 4.2, "Caching"): the builds
    /// propagation probes *and* the builds over end-node views the
    /// covering-path join probes while answering. Both configurations
    /// answer every run right after propagating it; plain TRIC builds what
    /// it probes afresh each time.
    pub caching: bool,
}

/// Per-covering-path bookkeeping: where the path ends in the forest and which
/// query vertex each column of that node's materialized view binds.
#[derive(Debug, Clone)]
struct PathInfo {
    end_node: NodeId,
    /// Query vertex bound by each column of the end node's view
    /// (`path length + 1` entries).
    vertices: Vec<QVertexId>,
}

impl HeapSize for PathInfo {
    fn heap_size(&self) -> usize {
        self.vertices.heap_size()
    }
}

/// Update-scoped scratch buffers, reused across `apply_update` calls so the
/// per-update hot path performs no bookkeeping allocations once the buffers
/// have grown to the working-set size.
#[derive(Debug, Default)]
struct UpdateScratch {
    /// Trie nodes touched by the current update (sorted, deduped).
    affected_nodes: Vec<NodeId>,
    /// Nodes already expanded during delta propagation (replaces the former
    /// O(n²) `Vec::contains` scan).
    processed: FxHashSet<NodeId>,
    /// Row assembly buffer shared by seed construction and delta extension.
    row_buf: Vec<Sym>,
}

impl UpdateScratch {
    fn reset(&mut self) {
        self.affected_nodes.clear();
        self.processed.clear();
    }
}

/// The TRIC / TRIC+ engine.
#[derive(Debug, Default)]
pub struct TricEngine {
    config: TricConfig,
    forest: TrieForest,
    views: EdgeViewStore,
    cache: JoinCache,
    /// queryInd: each query's covering-path descriptors.
    queries: QueryTable<Vec<PathInfo>>,
    scratch: UpdateScratch,
    stats: EngineStats,
}

impl TricEngine {
    /// Creates an engine with the given configuration.
    pub fn with_config(config: TricConfig) -> Self {
        TricEngine {
            config,
            ..Default::default()
        }
    }

    /// Creates a plain TRIC engine (no join-structure caching).
    pub fn tric() -> Self {
        Self::with_config(TricConfig { caching: false })
    }

    /// Creates a TRIC+ engine (join-structure caching enabled).
    pub fn tric_plus() -> Self {
        Self::with_config(TricConfig { caching: true })
    }

    /// Creates a TRIC engine partitioned across `num_shards` worker shards.
    ///
    /// The query database is split by the root generic edge of each query's
    /// first covering path: the shard [`gsm_core::shard::shard_of`] assigns
    /// to it holds the whole query — every trie its covering paths extend
    /// and the edge views they reach.
    pub fn tric_sharded(num_shards: usize) -> ShardedEngine<TricEngine> {
        ShardedEngine::new(num_shards, TricEngine::tric)
    }

    /// Creates a TRIC+ engine partitioned across `num_shards` worker shards
    /// (see [`TricEngine::tric_sharded`]); each shard maintains its own
    /// join-structure cache.
    pub fn tric_plus_sharded(num_shards: usize) -> ShardedEngine<TricEngine> {
        ShardedEngine::new(num_shards, TricEngine::tric_plus)
    }

    /// The trie forest — exposed for inspection in tests and experiments.
    pub fn forest(&self) -> &TrieForest {
        &self.forest
    }

    /// Number of trie nodes currently in the forest.
    pub fn num_trie_nodes(&self) -> usize {
        self.forest.num_nodes()
    }

    /// Number of tries (distinct root generic edges).
    pub fn num_tries(&self) -> usize {
        self.forest.num_tries()
    }

    /// Join-cache hit counter (always zero for plain TRIC).
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Join-cache miss counter: how many builds TRIC+ has made (always zero
    /// for plain TRIC). Flat once every (view, key columns) pair the stream
    /// reaches has been built.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// How often a cached join build had to start over from scratch
    /// ([`JoinCache::rebuilds`]) — zero for TRIC+ too, deletions included.
    pub fn cache_rebuilds(&self) -> u64 {
        self.cache.rebuilds()
    }

    /// Extends every row of `delta` (a prefix-path delta whose last column is
    /// the frontier vertex) with the matching tuples of `edge_view`,
    /// producing the delta of the child node. Tuples in `skip` are left out:
    /// a retraction run reads the edge view without the rows it removes.
    /// `row_buf` is caller-provided scratch so repeated extensions share one
    /// allocation.
    fn extend_delta(
        caching: bool,
        cache: &mut JoinCache,
        delta: &Relation,
        edge_view: &Relation,
        skip: Option<&Relation>,
        row_buf: &mut Vec<Sym>,
    ) -> Relation {
        let out_arity = delta.arity() + 1;
        // Distinct inputs extended with distinct edge matches yield distinct
        // rows, so the child delta skips the dedup index entirely.
        let mut out = Relation::new_distinct(out_arity);
        if delta.is_empty() || edge_view.is_empty() {
            return out;
        }
        let last = delta.arity() - 1;
        row_buf.clear();
        row_buf.resize(out_arity, Sym(0));
        let build_storage;
        let build = if caching {
            cache.get_or_build(edge_view, &[0])
        } else {
            build_storage = JoinBuild::build(edge_view, &[0]);
            &build_storage
        };
        for drow in delta.iter() {
            build.probe_each(edge_view, &[drow[last]], |idx| {
                let erow = edge_view.row(idx);
                if skip.is_some_and(|skip| skip.contains(erow)) {
                    return;
                }
                row_buf[..drow.len()].copy_from_slice(drow);
                row_buf[out_arity - 1] = erow[1];
                out.append_distinct(row_buf);
            });
        }
        out
    }

    /// Initialises the materialized view of a freshly created trie node from
    /// its parent's view and the (already registered) edge view, so that
    /// queries may be added after updates have already streamed in.
    fn initialise_node_view(&mut self, node: NodeId) {
        let (parent, edge) = {
            let n = self.forest.node(node);
            (n.parent, n.edge)
        };
        let Some(edge_view) = self.views.get(&edge) else {
            return;
        };
        match parent {
            None => {
                // Root node: the view is exactly the edge view.
                self.forest.node_mut(node).mat_view.extend_from(edge_view);
            }
            Some(p) => {
                let parent_view = &self.forest.node(p).mat_view;
                let extended = Self::extend_delta(
                    self.config.caching,
                    &mut self.cache,
                    parent_view,
                    edge_view,
                    None,
                    &mut self.scratch.row_buf,
                );
                let view = &mut self.forest.node_mut(node).mat_view;
                view.extend_from(&extended);
            }
        }
    }
}

impl ContinuousEngine for TricEngine {
    fn name(&self) -> &'static str {
        if self.config.caching {
            "TRIC+"
        } else {
            "TRIC"
        }
    }

    fn register_query(&mut self, query: &QueryPattern) -> Result<QueryId> {
        let qid = self.queries.next_id();
        let paths = covering_paths(query);
        let mut infos = Vec::with_capacity(paths.len());
        for (path_idx, path) in paths.iter().enumerate() {
            let generic: Vec<GenericEdge> = path
                .edges
                .iter()
                .map(|&e| GenericEdge::from_pattern(&query.edges()[e]))
                .collect();
            for &ge in &generic {
                self.views.register(ge);
            }
            let (path_nodes, created) = self.forest.insert_path(&generic, qid, path_idx);
            // New nodes must catch up with views that already hold data
            // (supports continuous query additions).
            for c in created {
                self.initialise_node_view(c);
            }
            infos.push(PathInfo {
                end_node: *path_nodes.last().expect("paths are non-empty"),
                vertices: path.vertex_sequence(query),
            });
        }
        Ok(self.queries.insert(infos))
    }

    /// Removes the query's registrations from every covering-path end node,
    /// pruning trie nodes (and evicting their cached join builds) that no
    /// longer serve any query. The query's id slot is tombstoned — emptied,
    /// never reused — so later ids stay valid.
    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        let infos = self.queries.remove(query)?;
        for (path_idx, info) in infos.iter().enumerate() {
            let released = self
                .forest
                .remove_registration(info.end_node, query, path_idx)
                .expect("query table and forest registrations agree");
            for rel_id in released {
                self.cache.evict_relation(rel_id);
            }
        }
        Ok(())
    }

    fn next_query_id(&self) -> QueryId {
        self.queries.next_id()
    }

    fn is_registered(&self, query: QueryId) -> bool {
        self.queries.is_live(query)
    }

    /// Batched answering (the scaling step of the ROADMAP): every same-sign
    /// run of the batch takes one `TricEngine::stage_run` pass — routing,
    /// join builds, propagation and the answer are paid once per run, not
    /// once per update. Staging rides the trait's default: the batch is
    /// answered here and its report is the token.
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        let report = sign_runs(updates)
            .map(|run| self.stage_run(run))
            .reduce(|merged, report| merged.merge(&report))
            .unwrap_or_default();
        self.stats.notifications += report.len() as u64;
        self.stats.embeddings += report.total_embeddings();
        self.stats.retracted += report.total_retracted();
        report
    }

    fn num_queries(&self) -> usize {
        self.queries.num_live()
    }

    fn heap_bytes(&self) -> usize {
        self.forest.heap_size()
            + self.views.heap_size()
            + self.cache.heap_size()
            + self.queries.heap_size()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

impl TricEngine {
    /// The answering algorithm (Fig. 8–10) for one same-sign run, returning
    /// its uncounted report — a deletion is the insertion pass with the
    /// sign flipped:
    ///
    /// 0. **Route** the run to the per-edge views, collecting the delta
    ///    relation Δe of every affected generic edge. Insertions append now
    ///    ([`EdgeViewStore::apply_batch`]); retractions leave the views as
    ///    they are ([`EdgeViewStore::remove_deltas`]) and commit in step 3.
    /// 1. Locate the affected trie nodes (`edgeInd`).
    /// 2. **Seed** each from its parent's *pre-commit* view ⋈ Δe and
    ///    **propagate** Δp ⋈ child edge view down the sub-tries, pruning
    ///    branches whose delta is empty (Fig. 10). That is the ordered
    ///    delta identity of the answer (step 4) for a two-way join, in both
    ///    directions: `new(p)⋈new(e) − old(p)⋈old(e) = old(p)⋈Δe ⊎
    ///    Δp⋈new(e)` and `old(p)⋈old(e) − new(p)⋈new(e) = old(p)⋈Δe ⊎
    ///    Δp⋈new(e)`. The two terms are disjoint (a seed row's last edge is
    ///    in Δe, a propagated row's is not), so a node's delta is their
    ///    plain concatenation. An insertion's propagation reads the
    ///    already-appended edge views; a retraction's reads the
    ///    not-yet-shrunk ones and skips the edge rows in Δe.
    /// 3. **Commit** the node deltas: insertions append the truly new rows
    ///    to the node views; retractions swap-remove the delta rows from
    ///    node and edge views, O(|Δ|) per view ([`Relation::retract_rows`],
    ///    [`EdgeViewStore::retract_deltas`]). TRIC+ retracts *through* its
    ///    cache ([`JoinCache::retract_rows`]), so the cached join builds
    ///    follow the moved rows and no build starts over after a deletion.
    ///    A retraction commits last, after step 4.
    /// 4. **Answer** with the covering-path join ([`answer_tric`]) against
    ///    the live views — an insertion after its commit, a retraction
    ///    before it, so against the pre-removal views. Every affected
    ///    query is counted by ordered delta terms, which read the other
    ///    changed paths' end-node views at their old or new version: after
    ///    an insertion's commit the old version is the prefix below the
    ///    appended delta, before a retraction's the new version is the view
    ///    without the delta's rows, whose positions are looked up once per
    ///    run. TRIC+ probes the builds of the end-node views its cache
    ///    maintains; plain TRIC builds them afresh.
    ///
    /// A single update is a run of length one.
    fn stage_run(&mut self, run: &[Update]) -> MatchReport {
        let Some(first) = run.first() else {
            return MatchReport::empty();
        };
        let retract = first.is_retraction();
        self.stats.updates_processed += run.len() as u64;

        let edge_deltas = if retract {
            self.views.remove_deltas(run)
        } else {
            self.views.apply_batch(run)
        };
        if edge_deltas.is_empty() {
            return MatchReport::empty();
        }

        // Step 1. The node list, the processed set and the row buffer are
        // run-scoped scratch reused across calls.
        self.scratch.reset();
        for ge in edge_deltas.keys() {
            self.scratch
                .affected_nodes
                .extend_from_slice(self.forest.nodes_for_edge(ge));
        }
        self.scratch.affected_nodes.sort_unstable();
        self.scratch.affected_nodes.dedup();

        let caching = self.config.caching;

        // Step 2a: seed a delta at every affected node (one hash-join build
        // per node per run).
        let mut deltas: FxHashMap<NodeId, Relation> = FxHashMap::default();
        let mut by_depth: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for i in 0..self.scratch.affected_nodes.len() {
            let n = self.scratch.affected_nodes[i];
            let node = self.forest.node(n);
            let delta_e = &edge_deltas[&node.edge];
            let seed = match node.parent {
                // Root node: the seed is exactly the edge's delta.
                None => delta_e.clone(),
                Some(p) => {
                    let parent_view = &self.forest.node(p).mat_view;
                    // Distinct parent rows x distinct edge-delta tuples give
                    // distinct seed rows; skip the dedup index.
                    let mut seed = Relation::new_distinct(parent_view.arity() + 1);
                    if !parent_view.is_empty() {
                        let last = parent_view.arity() - 1;
                        let row_buf = &mut self.scratch.row_buf;
                        row_buf.clear();
                        row_buf.resize(parent_view.arity() + 1, Sym(0));
                        let build_storage;
                        let build = if caching {
                            self.cache.get_or_build(parent_view, &[last])
                        } else {
                            build_storage = JoinBuild::build(parent_view, &[last]);
                            &build_storage
                        };
                        for drow in delta_e.iter() {
                            build.probe_each(parent_view, &[drow[0]], |idx| {
                                let prow = parent_view.row(idx);
                                row_buf[..prow.len()].copy_from_slice(prow);
                                row_buf[prow.len()] = drow[1];
                                seed.append_distinct(row_buf);
                            });
                        }
                    }
                    seed
                }
            };
            if !seed.is_empty() {
                by_depth.entry(node.depth).or_default().push(n);
                // Affected nodes are deduped, so each node is seeded exactly
                // once; merging only happens during propagation.
                deltas.insert(n, seed);
            }
        }

        // Step 2b: propagate in depth order. Each node's delta is taken out
        // of the map while its children are extended (and put back
        // afterwards for step 3), so nothing is cloned.
        while let Some((_, level)) = by_depth.pop_first() {
            for n in level {
                if !self.scratch.processed.insert(n) {
                    continue;
                }
                let Some(delta) = deltas.remove(&n) else {
                    continue;
                };
                for ci in 0..self.forest.node(n).children.len() {
                    let c = self.forest.node(n).children[ci];
                    let child = self.forest.node(c);
                    let Some(edge_view) = self.views.get(&child.edge) else {
                        continue;
                    };
                    let child_delta = Self::extend_delta(
                        caching,
                        &mut self.cache,
                        &delta,
                        edge_view,
                        edge_deltas.get(&child.edge).filter(|_| retract),
                        &mut self.scratch.row_buf,
                    );
                    if child_delta.is_empty() {
                        continue; // prune this sub-trie
                    }
                    by_depth.entry(child.depth).or_default().push(c);
                    match deltas.entry(c) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            // The seed old(p)⋈Δe and Δp⋈new(e) are disjoint.
                            e.get_mut().extend_from(&child_delta);
                        }
                        std::collections::hash_map::Entry::Vacant(e) => {
                            e.insert(child_delta);
                        }
                    }
                }
                deltas.insert(n, delta);
            }
        }

        if !retract {
            self.append_deltas(&mut deltas);
        }

        // A query is affected iff some covering path's end node changed.
        let mut affected_queries: Vec<QueryId> = deltas
            .keys()
            .flat_map(|n| &self.forest.node(*n).registrations)
            .map(|reg| reg.query)
            .collect();
        affected_queries.sort_unstable();
        affected_queries.dedup();

        // Step 4, against the live views (a retraction's are still
        // pre-removal here, and its end-node deltas are located in them).
        let removed_at = retract.then(|| self.removed_positions(&deltas));
        let counts = answer_tric(
            &deltas,
            removed_at.as_ref(),
            &affected_queries,
            &self.queries,
            &self.forest,
            caching.then_some(&mut self.cache),
        );
        if retract {
            let mut cache = caching.then_some(&mut self.cache);
            for (n, d) in &deltas {
                let view = &mut self.forest.node_mut(*n).mat_view;
                match cache.as_deref_mut() {
                    Some(cache) => cache.retract_rows(view, d),
                    None => view.retract_rows(d),
                };
            }
            self.views.retract_deltas(&edge_deltas, cache);
            MatchReport::from_retraction_counts(counts)
        } else {
            MatchReport::from_counts(counts)
        }
    }

    /// Where each end-node delta of a retraction run sits in its (still
    /// pre-removal) view: the ascending row positions that the view's new
    /// version leaves out ([`PathDelta::retracted`]), one dedup-index lookup
    /// per row.
    fn removed_positions(
        &self,
        deltas: &FxHashMap<NodeId, Relation>,
    ) -> FxHashMap<NodeId, Vec<u32>> {
        deltas
            .iter()
            .filter(|(n, _)| !self.forest.node(**n).registrations.is_empty())
            .map(|(n, delta)| {
                let view = &self.forest.node(*n).mat_view;
                let mut positions: Vec<u32> = delta
                    .iter()
                    .map(|row| view.position(row).expect("a removed row is in its view") as u32)
                    .collect();
                positions.sort_unstable();
                (*n, positions)
            })
            .collect()
    }

    /// Step 3 of an insertion run: append the deltas to the per-node
    /// materialized views, shrinking each to its truly new rows. (Done after
    /// propagation so seeds are computed against pre-update views.) Because
    /// node views maintain the invariant `matV[n] = prefix-path join`, a
    /// delta row derived from at least one new edge row is almost never
    /// already present, so the common case keeps the whole delta without
    /// re-hashing a single row; only when a duplicate does appear is a
    /// filtered copy built.
    fn append_deltas(&mut self, deltas: &mut FxHashMap<NodeId, Relation>) {
        deltas.retain(|n, delta| {
            let view = &mut self.forest.node_mut(*n).mat_view;
            // Lazily switch to a duplicate mask on the first rejected row.
            let mut dup_mask: Option<Vec<bool>> = None;
            for (i, row) in delta.iter().enumerate() {
                let fresh = view.push(row);
                if !fresh && dup_mask.is_none() {
                    // Rows before `i` were all fresh.
                    dup_mask = Some(vec![false; delta.len()]);
                }
                if let Some(mask) = &mut dup_mask {
                    mask[i] = !fresh;
                }
            }
            if let Some(mask) = dup_mask {
                let mut new_rows = Relation::new(delta.arity());
                for (row, _) in delta.iter().zip(&mask).filter(|(_, dup)| !**dup) {
                    new_rows.push(row);
                }
                *delta = new_rows;
            }
            !delta.is_empty()
        });
    }
}

/// Step 4 — the covering-path join pass of a run, for either sign: per
/// affected query, count the ordered delta terms of its changed covering
/// paths (`deltas`, keyed by end node) against the other paths' views in
/// `forest` ([`join_covering_paths`]), probing `cache`'s builds of those
/// views when given one. An insertion run (`removed_at` is `None`) has
/// appended its deltas to the views, so inserted rows count new
/// embeddings; a retraction run has not removed its deltas yet, and
/// `removed_at` says where they sit, so removed rows count disappearing
/// ones.
fn answer_tric(
    deltas: &FxHashMap<NodeId, Relation>,
    removed_at: Option<&FxHashMap<NodeId, Vec<u32>>>,
    affected_queries: &[QueryId],
    queries: &QueryTable<Vec<PathInfo>>,
    forest: &TrieForest,
    cache: Option<&mut JoinCache>,
) -> Vec<(QueryId, u64)> {
    join_covering_paths(
        affected_queries.iter().map(|qid| {
            let paths = queries.get(*qid).expect("trie registrations are live");
            (*qid, paths.as_slice())
        }),
        |path| path.vertices.as_slice(),
        |path| {
            let rows = deltas.get(&path.end_node)?;
            Some(match removed_at {
                Some(at) => PathDelta::retracted(rows, &at[&path.end_node]),
                None => PathDelta::inserted(rows, &forest.node(path.end_node).mat_view),
            })
        },
        |path| Some(&forest.node(path.end_node).mat_view),
        cache,
    )
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

    fn engines() -> Vec<TricEngine> {
        vec![TricEngine::tric(), TricEngine::tric_plus()]
    }

    #[test]
    fn single_edge_query_matches_immediately() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -knows-> ?b");
            let qid = engine.register_query(&q).unwrap();
            let report = engine.apply_update(f.u("knows", "alice", "bob"));
            assert_eq!(report.satisfied_queries(), vec![qid], "{}", engine.name());
            assert_eq!(report.matches[0].new_embeddings, 1);
        }
    }

    #[test]
    fn chain_query_matches_only_when_complete() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -knows-> ?b; ?b -worksAt-> acme");
            let qid = engine.register_query(&q).unwrap();
            assert!(engine.apply_update(f.u("knows", "alice", "bob")).is_empty());
            assert!(engine
                .apply_update(f.u("worksAt", "carol", "acme"))
                .is_empty());
            let report = engine.apply_update(f.u("worksAt", "bob", "acme"));
            assert_eq!(report.satisfied_queries(), vec![qid], "{}", engine.name());
        }
    }

    #[test]
    fn out_of_order_arrival_still_matches() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b; ?b -y-> ?c; ?c -z-> ?d");
            let qid = engine.register_query(&q).unwrap();
            // Arrive in reverse order: the chain only completes on the last one.
            assert!(engine.apply_update(f.u("z", "c1", "d1")).is_empty());
            assert!(engine.apply_update(f.u("y", "b1", "c1")).is_empty());
            let report = engine.apply_update(f.u("x", "a1", "b1"));
            assert_eq!(report.satisfied_queries(), vec![qid], "{}", engine.name());
        }
    }

    #[test]
    fn constants_restrict_matches() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?p -checksIn-> rio");
            let qid = engine.register_query(&q).unwrap();
            assert!(engine
                .apply_update(f.u("checksIn", "ann", "oslo"))
                .is_empty());
            let report = engine.apply_update(f.u("checksIn", "ann", "rio"));
            assert_eq!(report.satisfied_queries(), vec![qid]);
        }
    }

    #[test]
    fn duplicate_updates_do_not_rereport() {
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
    fn multiple_queries_shared_prefix_all_match() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q1 = f.q("?f -hasMod-> ?p; ?p -posted-> pst1");
            let q2 = f.q("?f -hasMod-> ?p; ?p -posted-> pst2");
            let q3 = f.q("?f -hasMod-> ?p");
            let id1 = engine.register_query(&q1).unwrap();
            let id2 = engine.register_query(&q2).unwrap();
            let id3 = engine.register_query(&q3).unwrap();

            let r = engine.apply_update(f.u("hasMod", "frank", "paula"));
            assert_eq!(r.satisfied_queries(), vec![id3]);

            let r = engine.apply_update(f.u("posted", "paula", "pst1"));
            assert_eq!(r.satisfied_queries(), vec![id1]);

            let r = engine.apply_update(f.u("posted", "paula", "pst2"));
            assert_eq!(r.satisfied_queries(), vec![id2]);

            // The two 2-edge queries share their hasMod prefix in one trie.
            assert!(engine.num_trie_nodes() <= 3);
        }
    }

    #[test]
    fn unregistered_query_stops_reporting_and_shared_nodes_survive() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q1 = f.q("?f -hasMod-> ?p; ?p -posted-> pst1");
            let q2 = f.q("?f -hasMod-> ?p; ?p -posted-> pst2");
            let id1 = engine.register_query(&q1).unwrap();
            let id2 = engine.register_query(&q2).unwrap();
            engine.apply_update(f.u("hasMod", "frank", "paula"));

            engine.unregister_query(id1).unwrap();
            assert_eq!(engine.num_queries(), 1, "{}", engine.name());
            assert!(!engine.is_registered(id1));
            assert!(engine.is_registered(id2));

            // q1's private leaf died with it; the shared hasMod prefix
            // survives and q2 still answers over the shared history.
            assert!(engine
                .apply_update(f.u("posted", "paula", "pst1"))
                .is_empty());
            let r = engine.apply_update(f.u("posted", "paula", "pst2"));
            assert_eq!(r.satisfied_queries(), vec![id2], "{}", engine.name());

            // Double-unregister reports the tombstone instead of corrupting.
            assert_eq!(
                engine.unregister_query(id1),
                Err(Error::UnknownQuery(id1.0))
            );
            assert_eq!(
                engine.unregister_query(QueryId(99)),
                Err(Error::UnknownQuery(99))
            );
        }
    }

    #[test]
    fn reregistration_after_unregister_gets_a_fresh_id_and_backfills() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -knows-> ?b");
            let id0 = engine.register_query(&q).unwrap();
            assert_eq!(engine.apply_update(f.u("knows", "a", "b")).len(), 1);

            engine.unregister_query(id0).unwrap();
            assert_eq!(engine.num_queries(), 0);
            assert_eq!(engine.num_trie_nodes(), 0, "{}", engine.name());
            assert!(
                engine.apply_update(f.u("knows", "c", "d")).is_empty(),
                "{}: unregistered query must stop reporting",
                engine.name()
            );

            // The freed slot is never reused; the new trie node backfills
            // from the still-maintained edge views, so only the post-
            // registration edge is reported as new.
            let id1 = engine.register_query(&f.q("?a -knows-> ?b")).unwrap();
            assert_eq!(id1, QueryId(1));
            assert_eq!(engine.next_query_id(), QueryId(2));
            let r = engine.apply_update(f.u("knows", "e", "f"));
            assert_eq!(r.satisfied_queries(), vec![id1], "{}", engine.name());
            assert_eq!(r.matches[0].new_embeddings, 1);
        }
    }

    #[test]
    fn star_query_with_multiple_paths() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?c -a-> ?x; ?c -b-> ?y");
            let qid = engine.register_query(&q).unwrap();
            assert!(engine.apply_update(f.u("a", "hub", "x1")).is_empty());
            let report = engine.apply_update(f.u("b", "hub", "y1"));
            assert_eq!(report.satisfied_queries(), vec![qid], "{}", engine.name());
            // A second leaf for the other branch creates one more embedding.
            let report = engine.apply_update(f.u("a", "hub", "x2"));
            assert_eq!(report.satisfied_queries(), vec![qid]);
            assert_eq!(report.matches[0].new_embeddings, 1);
        }
    }

    #[test]
    fn cycle_query_requires_closure() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b; ?b -y-> ?c; ?c -z-> ?a");
            let qid = engine.register_query(&q).unwrap();
            assert!(engine.apply_update(f.u("x", "1", "2")).is_empty());
            assert!(engine.apply_update(f.u("y", "2", "3")).is_empty());
            // A z-edge that does not close the cycle must not match.
            assert!(engine.apply_update(f.u("z", "3", "9")).is_empty());
            let report = engine.apply_update(f.u("z", "3", "1"));
            assert_eq!(report.satisfied_queries(), vec![qid], "{}", engine.name());
        }
    }

    #[test]
    fn repeated_variable_self_loop() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -follows-> ?a");
            let qid = engine.register_query(&q).unwrap();
            assert!(engine.apply_update(f.u("follows", "x", "y")).is_empty());
            let report = engine.apply_update(f.u("follows", "x", "x"));
            assert_eq!(report.satisfied_queries(), vec![qid]);
        }
    }

    #[test]
    fn late_query_registration_sees_existing_views() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q1 = f.q("?a -knows-> ?b");
            engine.register_query(&q1).unwrap();
            engine.apply_update(f.u("knows", "a", "b"));

            // Register a longer query that shares the already-populated
            // `knows` view; its new trie node must catch up.
            let q2 = f.q("?a -knows-> ?b; ?b -knows-> ?c");
            let id2 = engine.register_query(&q2).unwrap();
            let report = engine.apply_update(f.u("knows", "b", "c"));
            assert!(
                report.satisfied_queries().contains(&id2),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn embedding_counts_are_exact() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -knows-> ?b; ?b -likes-> ?c");
            engine.register_query(&q).unwrap();
            engine.apply_update(f.u("knows", "a1", "b"));
            engine.apply_update(f.u("knows", "a2", "b"));
            // Two knowers of b: the likes edge completes two embeddings.
            let report = engine.apply_update(f.u("likes", "b", "c"));
            assert_eq!(report.matches.len(), 1);
            assert_eq!(report.matches[0].new_embeddings, 2, "{}", engine.name());
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

            // Retracting the *root* edge exercises descendant propagation:
            // the x→y trie node's view loses its row too.
            let report = engine.apply_update(ux.inverted());
            assert_eq!(report.matches.len(), 1, "{}", engine.name());
            assert_eq!(report.matches[0].query, qid);
            assert_eq!(report.matches[0].retracted_embeddings, 1);
            assert_eq!(report.matches[0].new_embeddings, 0);
            assert_eq!(engine.stats().retracted, 1);

            // The match reappears when the edge comes back — which only
            // works if the intermediate node views were really pruned.
            let revived = engine.apply_update(ux);
            assert_eq!(revived.matches[0].new_embeddings, 1, "{}", engine.name());
            assert!(engine.apply_update(ux.inverted()).total_retracted() == 1);
            assert!(engine.apply_update(uy.inverted()).is_empty());
        }
    }

    #[test]
    fn retracting_absent_edges_is_a_noop() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b");
            engine.register_query(&q).unwrap();
            let phantom = f.u("x", "no", "pe").inverted();
            assert!(engine.apply_update(phantom).is_empty(), "{}", engine.name());
            engine.apply_update(f.u("x", "a", "b"));
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
            let report = engine.apply_batch(&[ux, uy, ux.inverted()]);
            assert_eq!(report.total_embeddings(), 1, "{}", engine.name());
            assert_eq!(report.total_retracted(), 1, "{}", engine.name());
        }
    }

    #[test]
    fn retraction_runs_join_against_the_pre_removal_views() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?c -a-> ?x; ?c -b-> ?y");
            let qid = engine.register_query(&q).unwrap();
            let a1 = f.u("a", "hub", "x1");
            let a2 = f.u("a", "hub", "x2");
            let b1 = f.u("b", "hub", "y1");
            let b2 = f.u("b", "hub", "y2");
            assert_eq!(engine.apply_batch(&[a1, a2, b1, b2]).total_embeddings(), 4);
            // One run drops a1 and b1. The covering-path join of each delta
            // must see the other path's view as it was before the run, or
            // (x1,y2) and (x2,y1) go unreported; (x1,y1) loses both of its
            // edges and still counts once.
            let report = engine.apply_batch(&[a1.inverted(), b1.inverted()]);
            assert_eq!(
                report,
                MatchReport::from_retraction_counts(vec![(qid, 3)]),
                "{}",
                engine.name()
            );
            // Only (x2,y2) is left.
            let report = engine.apply_update(b2.inverted());
            assert_eq!(report.total_retracted(), 1, "{}", engine.name());
            assert!(engine.apply_update(a2.inverted()).is_empty());
            assert_eq!(engine.stats().retracted, 4, "{}", engine.name());
        }
    }

    #[test]
    fn staged_runs_of_both_signs_are_immediate_and_survive_later_stages() {
        let all: Vec<Box<dyn ContinuousEngine>> = vec![
            Box::new(TricEngine::tric()),
            Box::new(TricEngine::tric_plus()),
            Box::new(TricEngine::tric_sharded(1)),
            Box::new(TricEngine::tric_sharded(2)),
        ];
        let mut outcomes = Vec::new();
        for mut engine in all {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b; ?b -y-> ?c");
            engine.register_query(&q).unwrap();
            let ux = f.u("x", "a", "b");
            let uy = f.u("y", "b", "c");
            assert_eq!(engine.apply_batch(&[ux, uy]).total_embeddings(), 1);
            // Every configuration answers a run where it stages it: the
            // retraction is answered against the pre-removal views, then
            // committed, and detaches as a ready report.
            let t1 = engine.stage_batch(&[uy.inverted()]);
            let d1 = engine.detach_staged(t1);
            assert!(d1.is_ready(), "{}", engine.name());
            // A later insert run stages (re-creating the embedding) before
            // the detached retraction is read. The retraction committed at
            // stage time, so the re-insert routes against post-removal views
            // and is truly new; the retraction's report is already final.
            let t2 = engine.stage_batch(&[uy]);
            let r1 = d1.run();
            engine.absorb_answered(&r1);
            assert_eq!(r1.total_retracted(), 1, "{}", engine.name());
            assert_eq!(r1.total_embeddings(), 0, "{}", engine.name());
            let r2 = engine.answer_staged(t2);
            assert_eq!(
                r2.total_embeddings(),
                1,
                "{}: the re-insert must be truly new again",
                engine.name()
            );
            assert_eq!(engine.stats().retracted, 1, "{}", engine.name());
            outcomes.push((r1, r2, engine.stats()));
        }
        for other in &outcomes[1..] {
            assert_eq!(&outcomes[0], other, "reports and stats across configs");
        }
    }

    #[test]
    fn staging_a_mixed_sign_batch_falls_back_to_immediate() {
        let all: Vec<Box<dyn ContinuousEngine>> = vec![
            Box::new(TricEngine::tric()),
            Box::new(TricEngine::tric_plus()),
            Box::new(TricEngine::tric_sharded(2)),
        ];
        for mut engine in all {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b");
            engine.register_query(&q).unwrap();
            let u = f.u("x", "a", "b");
            let token = engine.stage_batch(&[u, u.inverted()]);
            let report = engine.answer_staged(token);
            assert_eq!(report.total_embeddings(), 1, "{}", engine.name());
            assert_eq!(report.total_retracted(), 1, "{}", engine.name());
            assert_eq!(engine.stats().embeddings, 1, "{}", engine.name());

            // The detached route counts the token exactly once as well: at
            // stage time, never again when the report is absorbed.
            let v = f.u("x", "c", "d");
            let token = engine.stage_batch(&[v, v.inverted()]);
            let report = engine.detach_staged(token).run();
            engine.absorb_answered(&report);
            assert_eq!(report.total_embeddings(), 1, "{}", engine.name());
            let stats = engine.stats();
            assert_eq!((stats.embeddings, stats.retracted), (2, 2));
            assert_eq!(stats.notifications, 2, "{}", engine.name());
        }
    }

    /// A 3-edge chain `x→y→z` with a sibling branch `x→w` sharing the root:
    /// `(a,b,c,d)` embeds the chain, `(a2,b2,e)` the branch.
    fn chain_with_sibling(f: &mut Fixture) -> (Vec<QueryPattern>, [Update; 5]) {
        let queries = vec![
            f.q("?a -x-> ?b; ?b -y-> ?c; ?c -z-> ?d"),
            f.q("?a -x-> ?b; ?b -w-> ?e"),
        ];
        let edges = [
            f.u("x", "a", "b"),
            f.u("y", "b", "c"),
            f.u("z", "c", "d"),
            f.u("x", "a2", "b2"),
            f.u("w", "b2", "e"),
        ];
        (queries, edges)
    }

    #[test]
    fn retraction_run_counts_the_overlap_once_and_prunes_empty_branches() {
        for caching in [false, true] {
            let mut f = Fixture::new();
            let (queries, [x, y, z, x2, w]) = chain_with_sibling(&mut f);
            let replay = |edges: &[Update]| {
                let mut engine = TricEngine::with_config(TricConfig { caching });
                for q in &queries {
                    engine.register_query(q).unwrap();
                }
                assert_eq!(engine.num_trie_nodes(), 4, "x, x→y, x→y→z, x→w");
                engine.apply_batch(edges);
                engine
            };
            let mut engine = replay(&[x, y, z, x2, w]);
            let views = |e: &TricEngine| -> Vec<Vec<Vec<Sym>>> {
                let nodes = e.forest().node_ids();
                nodes
                    .map(|n| e.forest().node(n).mat_view.to_sorted_vec())
                    .collect()
            };
            let branch = engine
                .forest()
                .nodes_for_edge(&GenericEdge::from_pattern(&queries[1].edges()[1]))[0];
            let branch_generation = engine.forest().node(branch).mat_view.generation();

            // One run removes the root tuple and the child tuple of path row
            // (a,b,c): node x→y loses it through old(x)⋈Δy and through
            // Δx⋈old(y) at once, and passes it on to x→y→z. The x delta
            // (a,b) extends to nothing under x→w, so that branch is pruned.
            let report = engine.apply_batch(&[x.inverted(), y.inverted()]);
            assert_eq!(
                report,
                MatchReport::from_retraction_counts(vec![(QueryId(0), 1)]),
                "caching {caching}"
            );
            assert_eq!(engine.stats().retracted, 1, "caching {caching}");
            assert_eq!(views(&engine), views(&replay(&[z, x2, w])));
            assert_eq!(
                engine.forest().node(branch).mat_view.generation(),
                branch_generation,
                "the untouched sibling view must not be compacted"
            );
        }
    }

    #[test]
    fn one_run_singleton_runs_and_single_updates_agree_for_both_signs() {
        type Feed = fn(&mut TricEngine, &[Update]) -> MatchReport;
        let feeds: [Feed; 3] = [
            |e, run| e.apply_batch(run),
            |e, run| {
                run.iter().fold(MatchReport::empty(), |acc, u| {
                    let token = e.stage_batch(&[*u]);
                    acc.merge(&e.answer_staged(token))
                })
            },
            |e, run| {
                run.iter().fold(MatchReport::empty(), |acc, u| {
                    acc.merge(&e.apply_update(*u))
                })
            },
        ];
        for caching in [false, true] {
            let mut f = Fixture::new();
            let (queries, edges) = chain_with_sibling(&mut f);
            let removals = edges.map(|u| u.inverted());
            let outcomes: Vec<_> = feeds
                .iter()
                .map(|feed| {
                    let mut engine = TricEngine::with_config(TricConfig { caching });
                    for q in &queries {
                        engine.register_query(q).unwrap();
                    }
                    let gained = feed(&mut engine, &edges);
                    let lost = feed(&mut engine, &removals);
                    (gained, lost, engine.stats())
                })
                .collect();
            let (gained, lost, stats) = &outcomes[0];
            assert_eq!(gained.total_embeddings(), 2, "caching {caching}");
            assert_eq!(lost.total_retracted(), 2, "caching {caching}");
            assert_eq!((stats.embeddings, stats.retracted), (2, 2));
            for (other_gained, other_lost, other_stats) in &outcomes[1..] {
                assert_eq!((other_gained, other_lost), (gained, lost));
                assert_eq!(other_stats.retracted, stats.retracted);
                assert_eq!(other_stats.embeddings, stats.embeddings);
            }
        }
    }

    #[test]
    fn tric_plus_keeps_its_builds_across_a_sliding_window() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::VecDeque;
        const WINDOW: usize = 200;
        let mut rng = StdRng::seed_from_u64(29);
        let mut f = Fixture::new();
        let q = f.q("?a -e0-> ?b; ?b -e1-> ?c; ?c -e2-> ?d");
        let mut tric = TricEngine::tric();
        let mut plus = TricEngine::tric_plus();
        tric.register_query(&q).unwrap();
        plus.register_query(&q).unwrap();

        // One slide: a fresh edge enters, and once the window is full the
        // oldest leaves — every update its own sign run, as on a served
        // sliding-window stream.
        let mut window: VecDeque<Update> = VecDeque::new();
        let mut slide = |tric: &mut TricEngine, plus: &mut TricEngine| {
            let fresh = loop {
                let label = format!("e{}", rng.gen_range(0..3));
                let src = format!("v{}", rng.gen_range(0..30));
                let tgt = format!("v{}", rng.gen_range(0..30));
                let u = f.u(&label, &src, &tgt);
                if !window.contains(&u) {
                    break u;
                }
            };
            window.push_back(fresh);
            let expired = (window.len() > WINDOW).then(|| window.pop_front().expect("full"));
            for u in std::iter::once(fresh).chain(expired.map(|u| u.inverted())) {
                assert_eq!(tric.apply_update(u), plus.apply_update(u), "on {u:?}");
            }
        };
        for _ in 0..2 * WINDOW {
            slide(&mut tric, &mut plus);
        }
        let (warm_hits, warm_retracted) = (plus.cache_hits(), plus.stats().retracted);
        for _ in 0..2_000 {
            slide(&mut tric, &mut plus);
        }
        assert_eq!(
            plus.cache_rebuilds(),
            0,
            "a deletion made a cached join build start over"
        );
        assert!(
            plus.cache_hits() > warm_hits + 2_000,
            "the builds were used"
        );
        assert!(
            plus.stats().retracted > warm_retracted,
            "the slides retracted embeddings, so node views shrank too"
        );
        assert_eq!(tric.stats(), plus.stats());
    }

    #[test]
    fn tric_plus_answers_from_cached_builds() {
        use std::collections::VecDeque;
        // A 2-path and a 3-path star share the end nodes of `a` and `b`, so
        // they share those views' builds on the hub column. Every view holds
        // more than 2 000 rows: answering from a fresh build would hash all
        // of them per run, from a cached one none.
        const HUBS: usize = 1024;
        let rows = 2148;
        let labels = ["a", "b", "c"];
        let mut f = Fixture::new();
        let queries = [
            f.q("?h -a-> ?x; ?h -b-> ?y"),
            f.q("?h -a-> ?x; ?h -b-> ?y; ?h -c-> ?z"),
        ];
        let mut tric = TricEngine::tric();
        let mut plus = TricEngine::tric_plus();
        for q in &queries {
            tric.register_query(q).unwrap();
            plus.register_query(q).unwrap();
        }
        let mut next = 0;
        let mut fresh = |f: &mut Fixture, label: &str| {
            next += 1;
            f.u(
                label,
                &format!("h{}", next % HUBS),
                &format!("{label}{next}"),
            )
        };
        let mut live: VecDeque<Update> = VecDeque::new();
        let run = |tric: &mut TricEngine, plus: &mut TricEngine, batch: &[Update]| {
            let report = tric.apply_batch(batch);
            assert_eq!(plus.apply_batch(batch), report, "on {batch:?}");
        };

        // Fill each view with one run, then touch every (view, hub column)
        // build once.
        for label in labels {
            let batch: Vec<Update> = (0..rows).map(|_| fresh(&mut f, label)).collect();
            run(&mut tric, &mut plus, &batch);
            live.extend(batch);
        }
        for label in labels {
            let u = fresh(&mut f, label);
            run(&mut tric, &mut plus, &[u]);
            live.push_back(u);
        }
        let (misses, hits) = (plus.cache_misses(), plus.cache_hits());
        let embeddings = plus.stats().embeddings;

        for i in 0..500 {
            let u = fresh(&mut f, labels[i % 3]);
            run(&mut tric, &mut plus, &[u]);
            live.push_back(u);
        }
        for i in 0..500 {
            let u = fresh(&mut f, labels[i % 3]);
            run(&mut tric, &mut plus, &[u]);
            live.push_back(u);
            let expired = live.pop_front().expect("the window is full");
            run(&mut tric, &mut plus, &[expired.inverted()]);
        }

        assert_eq!(plus.cache_misses(), misses, "a warm answer built afresh");
        assert_eq!(plus.cache_rebuilds(), 0, "a cached build started over");
        assert!(
            plus.cache_hits() >= hits + 1_500,
            "the answers probed the cache"
        );
        assert!(plus.stats().embeddings > embeddings, "the runs answered");
        assert!(
            plus.stats().retracted > 0,
            "the slides retracted embeddings"
        );
        assert_eq!(tric.stats(), plus.stats());
        assert_eq!(tric.cache_misses(), 0, "plain TRIC caches nothing");
    }

    #[test]
    fn net_counts_match_a_from_scratch_replay_under_random_deletions() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for caching in [false, true] {
            let mut rng = StdRng::seed_from_u64(67);
            let mut f = Fixture::new();
            let queries = vec![
                f.q("?a -e0-> ?b; ?b -e1-> ?c"),
                f.q("?h -e0-> ?x; ?h -e2-> ?y"),
                f.q("?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a"),
                f.q("?a -e2-> ?a"),
            ];
            let config = TricConfig { caching };
            let mut engine = TricEngine::with_config(config);
            for q in &queries {
                engine.register_query(q).unwrap();
            }
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
            let mut net: FxHashMap<QueryId, i64> = FxHashMap::default();
            for batch in stream.chunks(5) {
                for m in &engine.apply_batch(batch).matches {
                    *net.entry(m.query).or_default() +=
                        m.new_embeddings as i64 - m.retracted_embeddings as i64;
                }
            }
            net.retain(|_, v| *v != 0);
            let mut fresh = TricEngine::with_config(config);
            for q in &queries {
                fresh.register_query(q).unwrap();
            }
            let mut expected: FxHashMap<QueryId, i64> = FxHashMap::default();
            for m in &fresh.apply_batch(&live).matches {
                *expected.entry(m.query).or_default() += m.new_embeddings as i64;
            }
            expected.retain(|_, v| *v != 0);
            assert_eq!(net, expected, "caching {caching} net counts diverged");
        }
    }

    #[test]
    fn detached_answers_survive_later_stages() {
        // The staging contract: a token is answered or detached before the
        // next batch is staged, and a detached answer must still report
        // exactly what apply_batch would have however many later batches
        // were staged before it ran. Replay a random stream in chunks,
        // staging and detaching a whole window before running any of it,
        // against a sequential reference.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for caching in [false, true] {
            for window in [2usize, 3, 5] {
                let mut rng = StdRng::seed_from_u64(23);
                let mut f = Fixture::new();
                let queries = vec![
                    f.q("?a -e0-> ?b; ?b -e1-> ?c"),
                    f.q("?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a"),
                    f.q("?h -e0-> ?x; ?h -e2-> ?y"),
                    f.q("?a -e2-> ?a"),
                ];
                let config = TricConfig { caching };
                let mut reference = TricEngine::with_config(config);
                let mut staged_engine = TricEngine::with_config(config);
                for q in &queries {
                    reference.register_query(q).unwrap();
                    staged_engine.register_query(q).unwrap();
                }
                let stream: Vec<Update> = (0..300)
                    .map(|_| {
                        let label = format!("e{}", rng.gen_range(0..3));
                        let src = format!("v{}", rng.gen_range(0..8));
                        let tgt = format!("v{}", rng.gen_range(0..8));
                        f.u(&label, &src, &tgt)
                    })
                    .collect();
                let chunk = 4usize;
                let batches: Vec<&[Update]> = stream.chunks(chunk).collect();
                for group in batches.chunks(window) {
                    // Stage and detach the whole window first…
                    let tasks: Vec<_> = group
                        .iter()
                        .map(|b| {
                            let token = staged_engine.stage_batch(b);
                            staged_engine.detach_staged(token)
                        })
                        .collect();
                    // …then run FIFO.
                    for (batch, task) in group.iter().zip(tasks) {
                        let expected = reference.apply_batch(batch);
                        let got = task.run();
                        staged_engine.absorb_answered(&got);
                        assert_eq!(
                            got, expected,
                            "caching {caching} window {window} diverged on {batch:?}"
                        );
                    }
                }
                assert_eq!(reference.stats(), staged_engine.stats());
            }
        }
    }

    #[test]
    fn detached_answers_match_sequential_even_run_out_of_order() {
        // The detachment contract: tasks are self-contained, Send, and may
        // run on any thread in any order after later batches have been
        // staged — each must still report exactly what apply_batch would
        // have. Stage a whole window, detach every token, run the tasks on
        // worker threads in *reverse* order, then compare FIFO.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for caching in [false, true] {
            let mut rng = StdRng::seed_from_u64(41);
            let mut f = Fixture::new();
            let queries = vec![
                f.q("?a -e0-> ?b; ?b -e1-> ?c"),
                f.q("?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a"),
                f.q("?h -e0-> ?x; ?h -e2-> ?y"),
                f.q("?a -e2-> ?a"),
            ];
            let config = TricConfig { caching };
            let mut reference = TricEngine::with_config(config);
            let mut staged_engine = TricEngine::with_config(config);
            for q in &queries {
                reference.register_query(q).unwrap();
                staged_engine.register_query(q).unwrap();
            }
            let stream: Vec<Update> = (0..240)
                .map(|_| {
                    let label = format!("e{}", rng.gen_range(0..3));
                    let src = format!("v{}", rng.gen_range(0..8));
                    let tgt = format!("v{}", rng.gen_range(0..8));
                    f.u(&label, &src, &tgt)
                })
                .collect();
            let batches: Vec<&[Update]> = stream.chunks(5).collect();
            for group in batches.chunks(4) {
                let tasks: Vec<_> = group
                    .iter()
                    .map(|b| {
                        let token = staged_engine.stage_batch(b);
                        staged_engine.detach_staged(token)
                    })
                    .collect();
                // Run every detached task concurrently on its own thread —
                // completion order is up to the scheduler; reports are
                // gathered back in stage order.
                let handles: Vec<_> = tasks
                    .into_iter()
                    .map(|t| std::thread::spawn(move || t.run()))
                    .collect();
                let reports: Vec<MatchReport> = handles
                    .into_iter()
                    .map(|h| h.join().expect("detached task"))
                    .collect();
                for (batch, report) in group.iter().zip(reports) {
                    let expected = reference.apply_batch(batch);
                    assert_eq!(report, expected, "caching {caching} diverged on {batch:?}");
                    staged_engine.absorb_answered(&report);
                }
            }
            assert_eq!(reference.stats(), staged_engine.stats());
        }
    }

    #[test]
    fn sharded_forest_partitions_by_root_edge() {
        use gsm_core::model::generic::GenericEdge;
        use gsm_core::query::paths::covering_paths;
        use gsm_core::shard::shard_of;

        // Single-path chain queries over distinct labels: each query is
        // shard-local, so its trie must live on exactly the shard that owns
        // its root generic edge — and nowhere else.
        let mut f = Fixture::new();
        let queries: Vec<QueryPattern> = (0..8)
            .map(|i| f.q(&format!("?a -r{i}-> ?b; ?b -s{i}-> ?c")))
            .collect();
        let num_shards = 4;
        let mut sharded = TricEngine::tric_sharded(num_shards);
        let mut plain = TricEngine::tric();
        for q in &queries {
            sharded.register_query(q).unwrap();
            plain.register_query(q).unwrap();
        }
        assert_eq!(sharded.num_spanning_queries(), 0);
        let per_shard_tries: Vec<usize> = sharded.shard_engines().map(|e| e.num_tries()).collect();
        assert_eq!(per_shard_tries.iter().sum::<usize>(), plain.num_tries());
        let per_shard_nodes: Vec<usize> = sharded
            .shard_engines()
            .map(|e| e.num_trie_nodes())
            .collect();
        assert_eq!(
            per_shard_nodes.iter().sum::<usize>(),
            plain.num_trie_nodes()
        );
        // Every root edge's trie sits on the shard `shard_of` assigns.
        for q in &queries {
            for p in covering_paths(q) {
                let root = GenericEdge::from_pattern(&q.edges()[p.edges[0]]);
                let owner = shard_of(&root, num_shards);
                for (s, engine) in sharded.shard_engines().enumerate() {
                    let has = engine.forest().nodes_for_edge(&root).iter().any(|&n| {
                        engine.forest().node(n).depth == 0 && engine.forest().node(n).edge == root
                    });
                    assert_eq!(
                        has,
                        s == owner,
                        "trie for {root:?} on shard {s}, owner {owner}"
                    );
                }
            }
        }
    }

    #[test]
    fn registration_between_stage_and_answer_keeps_the_staged_report() {
        for num_shards in [1usize, 2] {
            let mut f = Fixture::new();
            let mut sharded = TricEngine::tric_sharded(num_shards);
            let q0 = f.q("?a -e0-> ?b");
            let id0 = sharded.register_query(&q0).unwrap();
            let staged = sharded.stage_batch(&[f.u("e0", "a", "b")]);
            // The token is the report, so registering mid-window succeeds
            // and leaves it unchanged; the next batch sees the new query.
            let q1 = f.q("?a -e1-> ?b");
            let id1 = sharded.register_query(&q1).unwrap();
            let report = sharded.answer_staged(staged);
            assert_eq!(report.satisfied_queries(), vec![id0]);
            assert_eq!(report.total_embeddings(), 1);
            let next = sharded.apply_batch(&[f.u("e0", "c", "d"), f.u("e1", "a", "b")]);
            assert_eq!(next.satisfied_queries(), vec![id0, id1]);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut f = Fixture::new();
        let mut engine = TricEngine::tric();
        let q = f.q("?a -knows-> ?b");
        engine.register_query(&q).unwrap();
        engine.apply_update(f.u("knows", "a", "b"));
        engine.apply_update(f.u("knows", "b", "c"));
        let stats = engine.stats();
        assert_eq!(stats.updates_processed, 2);
        assert_eq!(stats.notifications, 2);
        assert_eq!(stats.embeddings, 2);
        assert!(engine.heap_bytes() > 0);
        assert_eq!(engine.num_queries(), 1);
    }
}
