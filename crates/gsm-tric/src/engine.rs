//! The TRIC / TRIC+ continuous-query engine (Sections 4.1 and 4.2).

use std::collections::BTreeMap;

use gsm_core::engine::{
    ContinuousEngine, DetachedAnswer, EngineStats, MatchReport, QueryId, StagedBatch,
};
use gsm_core::error::{Error, Result};
use gsm_core::interner::Sym;
use gsm_core::memory::HeapSize;
use gsm_core::model::generic::GenericEdge;
use gsm_core::model::update::{sign_runs, Update};
use gsm_core::query::paths::covering_paths;
use gsm_core::query::pattern::{QVertexId, QueryPattern};
use gsm_core::relation::cache::JoinCache;
use gsm_core::relation::eval::{join_paths, PathBinding};
use gsm_core::relation::fasthash::{FxHashMap, FxHashSet};
use gsm_core::relation::join::JoinBuild;
use gsm_core::relation::Relation;
use gsm_core::shard::ShardedEngine;
use gsm_core::views::{self, EdgeViewStore};

use crate::trie::{NodeId, TrieForest};

/// Configuration of the engine — the only switch is the join-structure cache
/// that turns TRIC into TRIC+.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TricConfig {
    /// Keep and incrementally maintain hash-join build structures across
    /// updates (the TRIC+ extension of Section 4.2, "Caching").
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

/// Per-query bookkeeping (the paper's `queryInd`).
#[derive(Debug, Clone)]
struct QueryInfo {
    paths: Vec<PathInfo>,
}

impl HeapSize for QueryInfo {
    fn heap_size(&self) -> usize {
        self.paths.heap_size()
    }
}

/// The deferred-answer token of the TRIC engines: everything the final
/// covering-path join pass (step 4) needs, captured at stage time so the
/// answer may run after later batches have already been routed and
/// propagated.
///
/// `truly_new` owns the per-end-node delta relations of the staged batch;
/// `watermarks` freezes the version ([`Relation::version`]) of every
/// affected query's end-node views *after* this batch's appends, so the
/// answer pass joins against exactly the state the views had when the batch
/// was absorbed — rows appended by later staged batches sit past the
/// watermarks and are invisible (see the staging contract on
/// [`ContinuousEngine::stage_batch`]).
#[derive(Debug, Default)]
struct StagedTric {
    /// Per-node truly-new rows of the staged batch (step 3 output).
    truly_new: FxHashMap<NodeId, Relation>,
    /// Queries with at least one affected covering path, sorted.
    affected_queries: Vec<QueryId>,
    /// Post-batch version watermark of every end-node view of every path of
    /// every affected query.
    watermarks: FxHashMap<NodeId, usize>,
}

/// The deferred-answer token of an all-retraction run: the per-node removed
/// rows (steps 1–3 of [`TricEngine::retract_batch`]) plus the **pre-removal**
/// end-node views of every affected query, frozen as generation-pinned
/// [`Relation::snapshot_owned`] snapshots *before* the destructive commit.
/// The snapshots share frozen chunks by `Arc`, so the commit's compaction
/// (and any later one) cannot invalidate them — the disappearing-embedding
/// join can therefore run deferred, on any thread, while the engine stages
/// later batches against the already-committed post-removal state.
#[derive(Debug, Default)]
struct StagedRetractTric {
    /// Rows each affected node's materialized view lost (step 3 output).
    node_removed: FxHashMap<NodeId, Relation>,
    /// Queries with at least one covering path that lost rows, sorted.
    affected_queries: Vec<QueryId>,
    /// Pre-removal snapshot of every end-node view of every path of every
    /// affected query, at full length.
    frozen: FxHashMap<NodeId, Relation>,
}

/// What [`TricEngine::stage_batch`] defers: an insert run's watermark token
/// or a retraction run's frozen-snapshot token (mixed-sign batches fall back
/// to an immediate token — see the staging contract).
#[derive(Debug)]
enum TricToken {
    Insert(StagedTric),
    Retract(StagedRetractTric),
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
    /// Per-query path descriptors, `Arc`-shared with detached answer tasks:
    /// registration barriers the pipeline first (no tokens outstanding), so
    /// the engine thread mutates via [`Arc::make_mut`] — in place while no
    /// detached task holds a reference, copy-on-write otherwise — and
    /// `detach_staged` captures the whole table with one `Arc` bump instead
    /// of deep-copying every affected query's vertex sequences per batch.
    queries: std::sync::Arc<Vec<QueryInfo>>,
    /// Number of currently registered (non-tombstoned) queries. `queries`
    /// keeps a slot per id ever issued — unregistration empties the slot's
    /// path list instead of shifting later ids — so the live count is
    /// tracked separately.
    live_queries: usize,
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
    /// The trie forest and edge-view store are split by root generic edge:
    /// each shard's inner engine holds exactly the tries whose root edges
    /// [`gsm_core::shard::shard_of`] assigns to it (plus the edge views
    /// those tries reach), and queries whose covering paths root on
    /// different shards are answered by the wrapper's post-merge
    /// covering-path join pass. With `num_shards <= 1` this is an unsharded
    /// [`TricEngine::tric`] behind a zero-overhead delegation.
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

    /// Probes `rel` (keyed on `key_cols`) for rows whose key equals `key`,
    /// invoking `f` with each matching row index — zero allocations per
    /// probe. Uses the persistent cache when caching is enabled and a
    /// throw-away build otherwise (the paper's TRIC rebuilds the hash
    /// structures of every join on every update; TRIC+ reuses them).
    fn probe_rows(
        caching: bool,
        cache: &mut JoinCache,
        rel: &Relation,
        key_cols: &[usize],
        key: &[Sym],
        f: impl FnMut(usize),
    ) {
        if rel.is_empty() {
            return;
        }
        if caching {
            cache.get_or_build(rel, key_cols).probe_each(rel, key, f);
        } else {
            JoinBuild::build(rel, key_cols).probe_each(rel, key, f);
        }
    }

    /// Extends every row of `delta` (a prefix-path delta whose last column is
    /// the frontier vertex) with the matching tuples of `edge_view`,
    /// producing the delta of the child node. `row_buf` is caller-provided
    /// scratch so repeated extensions share one allocation.
    fn extend_delta(
        caching: bool,
        cache: &mut JoinCache,
        delta: &Relation,
        edge_view: &Relation,
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
                row_buf[..drow.len()].copy_from_slice(drow);
                row_buf[out_arity - 1] = edge_view.row(idx)[1];
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
                let rows: Vec<Vec<Sym>> = edge_view.iter().map(|r| r.to_vec()).collect();
                let view = &mut self.forest.node_mut(node).mat_view;
                for r in rows {
                    view.push(&r);
                }
            }
            Some(p) => {
                let parent_view = &self.forest.node(p).mat_view;
                let extended = Self::extend_delta(
                    self.config.caching,
                    &mut self.cache,
                    parent_view,
                    edge_view,
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
        let qid = QueryId(self.queries.len() as u32);
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
        std::sync::Arc::make_mut(&mut self.queries).push(QueryInfo { paths: infos });
        self.live_queries += 1;
        Ok(qid)
    }

    /// Removes the query's registrations from every covering-path end node,
    /// pruning trie nodes (and evicting their cached join builds) that no
    /// longer serve any query. The query's id slot is tombstoned — emptied,
    /// never reused — so later ids and detached answer tasks stay valid.
    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        let idx = query.index();
        if idx >= self.queries.len() || self.queries[idx].paths.is_empty() {
            return Err(Error::UnknownQuery(query.0));
        }
        let infos = std::mem::take(&mut std::sync::Arc::make_mut(&mut self.queries)[idx].paths);
        for (path_idx, info) in infos.iter().enumerate() {
            let released = self
                .forest
                .remove_registration(info.end_node, query, path_idx)
                .expect("query table and forest registrations agree");
            for rel_id in released {
                self.cache.evict_relation(rel_id);
            }
        }
        self.live_queries -= 1;
        Ok(())
    }

    fn next_query_id(&self) -> QueryId {
        QueryId(self.queries.len() as u32)
    }

    fn is_registered(&self, query: QueryId) -> bool {
        query.index() < self.queries.len() && !self.queries[query.index()].paths.is_empty()
    }

    fn apply_update(&mut self, update: Update) -> MatchReport {
        if update.is_retraction() {
            return self.retract_batch(&[update]);
        }
        let staged = self.stage_update(update);
        self.answer_tric(staged)
    }

    /// Batched answering (the scaling step of the ROADMAP): routing, join
    /// builds and covering-path joins are amortized across the whole batch
    /// instead of being paid once per update.
    ///
    /// The pipeline mirrors [`apply_update`](ContinuousEngine::apply_update)
    /// step for step, but every per-update quantity is replaced by its merged
    /// batch counterpart: the per-edge **batch delta relations** collected by
    /// one routing pass ([`EdgeViewStore::apply_batch`]), per-node seeds
    /// joining each parent's pre-batch view against the merged edge delta
    /// (one hash-join build per affected node per batch), one delta
    /// propagation pass down the affected sub-tries, and one covering-path
    /// join per affected query against the merged truly-new rows.
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        let mut report = MatchReport::empty();
        for run in sign_runs(updates) {
            let run_report = if run[0].is_retraction() {
                self.retract_batch(run)
            } else {
                let staged = self.stage_updates(run);
                self.answer_tric(staged)
            };
            report = report.merge(&run_report);
        }
        report
    }

    /// Routing + propagation of a batch with the covering-path join pass
    /// deferred: for an insert run, steps 0–3 run now and step 4 runs in
    /// [`answer_staged`](ContinuousEngine::answer_staged) against the
    /// version watermarks captured in the token. An all-retraction run
    /// stages too (`TricEngine::stage_retractions`): the removal commits
    /// now and the disappearing-embedding join defers against the token's
    /// generation-pinned pre-removal snapshots. Mixed-sign batches have no
    /// deferred shape and fall back to an immediate token — callers wanting
    /// deferral split with `sign_runs` first, as the pipelined executor
    /// does. See the staging contract on
    /// [`ContinuousEngine::stage_batch`].
    fn stage_batch(&mut self, updates: &[Update]) -> StagedBatch {
        let retractions = updates.iter().filter(|u| u.is_retraction()).count();
        if retractions == updates.len() && !updates.is_empty() {
            return StagedBatch::deferred(TricToken::Retract(self.stage_retractions(updates)));
        }
        if retractions > 0 {
            return StagedBatch::immediate(self.apply_batch(updates));
        }
        StagedBatch::deferred(TricToken::Insert(self.stage_updates(updates)))
    }

    fn answer_staged(&mut self, staged: StagedBatch) -> MatchReport {
        match staged.into_deferred::<TricToken>() {
            Ok(TricToken::Insert(token)) => self.answer_tric(token),
            Ok(TricToken::Retract(token)) => self.answer_retract(token),
            Err(report) => report,
        }
    }

    /// The cross-thread form of the deferred covering-path join pass (see
    /// the detachment contract on [`ContinuousEngine::detach_staged`]). For
    /// an insert token, the per-node truly-new deltas travel as-is, each
    /// affected end-node view is frozen at its staged watermark via the
    /// chunk-sharing [`Relation::snapshot_owned`], and the query metadata
    /// travels as one `Arc` bump of the engine's shared table — nothing is
    /// deep-copied — so the returned task owns everything step 4 reads and
    /// can run while this engine stages later batches. A retraction token
    /// already froze its pre-removal snapshots at stage time, so detaching
    /// it is just the `Arc` bump.
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        let token = match staged.into_deferred::<TricToken>() {
            Ok(token) => token,
            Err(report) => return DetachedAnswer::ready(report),
        };
        match token {
            TricToken::Insert(token) => {
                let mut frozen: FxHashMap<NodeId, Relation> = FxHashMap::default();
                for &qid in &token.affected_queries {
                    for path in &self.queries[qid.index()].paths {
                        frozen.entry(path.end_node).or_insert_with(|| {
                            let view = &self.forest.node(path.end_node).mat_view;
                            let watermark = token
                                .watermarks
                                .get(&path.end_node)
                                .copied()
                                .unwrap_or_else(|| view.version());
                            view.snapshot_owned(watermark)
                        });
                    }
                }
                let queries = std::sync::Arc::clone(&self.queries);
                let affected_queries = token.affected_queries;
                let truly_new = token.truly_new;
                DetachedAnswer::task(move || {
                    answer_tric_detached(&affected_queries, &queries, &truly_new, &frozen)
                })
            }
            TricToken::Retract(token) => {
                let queries = std::sync::Arc::clone(&self.queries);
                DetachedAnswer::task(move || {
                    answer_retract_detached(
                        &token.affected_queries,
                        &queries,
                        &token.node_removed,
                        &token.frozen,
                    )
                })
            }
        }
    }

    fn absorb_answered(&mut self, report: &MatchReport) {
        self.stats.notifications += report.len() as u64;
        self.stats.embeddings += report.total_embeddings();
        self.stats.retracted += report.total_retracted();
    }

    fn num_queries(&self) -> usize {
        self.live_queries
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
    /// The staging phase for a single update: steps 0–3 of the answering
    /// algorithm (routing, seeding, propagation, view appends), with the
    /// covering-path join pass captured in the returned token.
    fn stage_update(&mut self, update: Update) -> StagedTric {
        self.stats.updates_processed += 1;

        // Step 0: route the update to the per-edge materialized views.
        let affected_edges = self.views.apply_update(&update);
        if affected_edges.is_empty() {
            return StagedTric::default();
        }

        // Step 1: locate the affected trie nodes (paper: edgeInd lookup plus
        // trie traversal). The node list, the processed set and the row
        // buffer are update-scoped scratch reused across calls.
        self.scratch.reset();
        for ge in &affected_edges {
            self.scratch
                .affected_nodes
                .extend_from_slice(self.forest.nodes_for_edge(ge));
        }
        self.scratch.affected_nodes.sort_unstable();
        self.scratch.affected_nodes.dedup();
        if self.scratch.affected_nodes.is_empty() {
            return StagedTric::default();
        }

        let caching = self.config.caching;

        // Step 2a: seed a delta at every affected node from its parent's
        // (pre-update) materialized view joined with the single new tuple.
        let mut deltas: FxHashMap<NodeId, Relation> = FxHashMap::default();
        let mut by_depth: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for i in 0..self.scratch.affected_nodes.len() {
            let n = self.scratch.affected_nodes[i];
            let node = self.forest.node(n);
            let seed = match node.parent {
                None => Relation::singleton(&[update.src, update.tgt]),
                Some(p) => {
                    let parent_view = &self.forest.node(p).mat_view;
                    let last = parent_view.arity() - 1;
                    // Distinct parent rows extended by one update tuple are
                    // distinct; skip the dedup index.
                    let mut seed = Relation::new_distinct(parent_view.arity() + 1);
                    let row_buf = &mut self.scratch.row_buf;
                    row_buf.clear();
                    row_buf.resize(parent_view.arity() + 1, Sym(0));
                    Self::probe_rows(
                        caching,
                        &mut self.cache,
                        parent_view,
                        &[last],
                        &[update.src],
                        |idx| {
                            let prow = parent_view.row(idx);
                            row_buf[..prow.len()].copy_from_slice(prow);
                            row_buf[prow.len()] = update.tgt;
                            seed.append_distinct(row_buf);
                        },
                    );
                    seed
                }
            };
            if !seed.is_empty() {
                by_depth
                    .entry(self.forest.node(n).depth)
                    .or_default()
                    .push(n);
                // Affected nodes are deduped, so each node is seeded exactly
                // once; merging only happens during propagation.
                deltas.insert(n, seed);
            }
        }

        self.propagate_and_stage(deltas, by_depth)
    }

    /// The staging phase for a whole batch: steps 0–3 with every per-update
    /// quantity replaced by its merged batch counterpart (see
    /// [`ContinuousEngine::apply_batch`] on this type). Tiny batches take
    /// the single-update path — the batched machinery only pays off once
    /// builds are shared.
    fn stage_updates(&mut self, updates: &[Update]) -> StagedTric {
        match updates {
            [] => return StagedTric::default(),
            [u] => return self.stage_update(*u),
            _ => {}
        }
        self.stats.updates_processed += updates.len() as u64;

        // Step 0: route the whole batch to the per-edge materialized views,
        // collecting the merged delta relation of every affected edge.
        let edge_deltas = self.views.apply_batch(updates);
        if edge_deltas.is_empty() {
            return StagedTric::default();
        }

        // Step 1: locate the affected trie nodes once per batch, so the
        // edgeInd lookups are shared by every update with the same root.
        self.scratch.reset();
        for ge in edge_deltas.keys() {
            self.scratch
                .affected_nodes
                .extend_from_slice(self.forest.nodes_for_edge(ge));
        }
        self.scratch.affected_nodes.sort_unstable();
        self.scratch.affected_nodes.dedup();
        if self.scratch.affected_nodes.is_empty() {
            return StagedTric::default();
        }

        let caching = self.config.caching;

        // Step 2a: seed a delta at every affected node from its parent's
        // pre-batch materialized view joined with the merged batch delta of
        // the node's edge. Seeds against the *old* parent views plus
        // propagation against the *new* edge views cover exactly the new
        // path rows: new(p)⋈new(e) − old(p)⋈old(e) =
        // old(p)⋈Δe ∪ Δp⋈new(e), and the second term is what the
        // propagation step below produces.
        let mut deltas: FxHashMap<NodeId, Relation> = FxHashMap::default();
        let mut by_depth: BTreeMap<usize, Vec<NodeId>> = BTreeMap::new();
        for i in 0..self.scratch.affected_nodes.len() {
            let n = self.scratch.affected_nodes[i];
            let (parent, edge) = {
                let node = self.forest.node(n);
                (node.parent, node.edge)
            };
            let Some(delta_e) = edge_deltas.get(&edge) else {
                continue;
            };
            let seed = match parent {
                // Root node: the seed is exactly the edge's batch delta.
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
                by_depth
                    .entry(self.forest.node(n).depth)
                    .or_default()
                    .push(n);
                // Affected nodes are deduped, so each node is seeded exactly
                // once; merging only happens during propagation.
                deltas.insert(n, seed);
            }
        }

        self.propagate_and_stage(deltas, by_depth)
    }

    /// Steps 2b–3 of the answering algorithm, shared by the single-update and
    /// batched front-ends: propagate the seeded deltas down the affected
    /// sub-tries, append the truly new rows to the node views, and capture
    /// everything the deferred covering-path join pass needs — the truly-new
    /// relations, the affected queries, and the post-append version
    /// watermarks of their end-node views. The seeds must have been computed
    /// against **pre-append** node views; this method performs all view
    /// appends itself.
    fn propagate_and_stage(
        &mut self,
        mut deltas: FxHashMap<NodeId, Relation>,
        mut by_depth: BTreeMap<usize, Vec<NodeId>>,
    ) -> StagedTric {
        let caching = self.config.caching;

        // Step 2b: propagate deltas down the affected sub-tries in depth
        // order, pruning branches whose delta is empty (Fig. 10). Each
        // node's delta is taken out of the map while its children are
        // extended (and put back afterwards for step 3), so nothing is
        // cloned; the processed set is a hash set, not a linear scan.
        while let Some((&depth, _)) = by_depth.iter().next() {
            let level = by_depth.remove(&depth).unwrap_or_default();
            for n in level {
                if !self.scratch.processed.insert(n) {
                    continue;
                }
                let delta = match deltas.remove(&n) {
                    Some(d) if !d.is_empty() => d,
                    Some(d) => {
                        deltas.insert(n, d);
                        continue;
                    }
                    None => continue,
                };
                for ci in 0..self.forest.node(n).children.len() {
                    let c = self.forest.node(n).children[ci];
                    let child_edge = self.forest.node(c).edge;
                    let Some(edge_view) = self.views.get(&child_edge) else {
                        continue;
                    };
                    let child_delta = Self::extend_delta(
                        caching,
                        &mut self.cache,
                        &delta,
                        edge_view,
                        &mut self.scratch.row_buf,
                    );
                    if child_delta.is_empty() {
                        continue; // prune this sub-trie
                    }
                    by_depth
                        .entry(self.forest.node(c).depth)
                        .or_default()
                        .push(c);
                    match deltas.entry(c) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
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

        // Step 3: append the deltas to the per-node materialized views.
        // (Done after propagation so seeds are computed against pre-update
        // views — the standard incremental-join derivative.) Because node
        // views maintain the invariant `matV[n] = prefix-path join`, a delta
        // row derived from at least one new edge row is almost never already
        // present, so the common case moves the whole delta out as the
        // truly-new set without re-hashing a single row; only when a
        // duplicate does appear is a filtered copy built.
        let mut truly_new: FxHashMap<NodeId, Relation> = FxHashMap::default();
        for (n, delta) in deltas.drain() {
            let view = &mut self.forest.node_mut(n).mat_view;
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
            match dup_mask {
                None => {
                    if !delta.is_empty() {
                        truly_new.insert(n, delta);
                    }
                }
                Some(mask) => {
                    let mut new_rows = Relation::new(delta.arity());
                    for (i, row) in delta.iter().enumerate() {
                        if !mask[i] {
                            new_rows.push(row);
                        }
                    }
                    if !new_rows.is_empty() {
                        truly_new.insert(n, new_rows);
                    }
                }
            }
        }

        // Capture the deferred answer pass: the affected queries and the
        // post-append version watermark of every end-node view any of them
        // will join against. Freezing the watermarks here is what allows
        // later batches to be staged (appending past the watermarks) before
        // this batch is answered.
        let mut affected_queries: Vec<QueryId> = Vec::new();
        for n in truly_new.keys() {
            for reg in &self.forest.node(*n).registrations {
                affected_queries.push(reg.query);
            }
        }
        affected_queries.sort_unstable();
        affected_queries.dedup();

        let mut watermarks: FxHashMap<NodeId, usize> = FxHashMap::default();
        for &qid in &affected_queries {
            for path in &self.queries[qid.index()].paths {
                watermarks.insert(
                    path.end_node,
                    self.forest.node(path.end_node).mat_view.version(),
                );
            }
        }

        StagedTric {
            truly_new,
            affected_queries,
            watermarks,
        }
    }

    /// Step 4 — the deferred covering-path join pass: per affected query,
    /// join the truly-new delta of each affected covering path with the
    /// other paths' views **frozen at the staged watermarks** (Fig. 8,
    /// lines 8–13, restricted to new embeddings). Rows appended to the views
    /// by batches staged after this one sit past the watermarks and are
    /// invisible, so the report is identical whether the answer runs
    /// immediately or after any number of later stages. Bindings borrow the
    /// deltas/views and each path's vertex sequence — nothing is copied to
    /// describe a join.
    fn answer_tric(&mut self, staged: StagedTric) -> MatchReport {
        let StagedTric {
            truly_new,
            affected_queries,
            watermarks,
        } = staged;

        let counts = join_covering_paths(
            affected_queries
                .iter()
                .map(|qid| (*qid, self.queries[qid.index()].paths.as_slice())),
            |end_node| truly_new.get(&end_node),
            |end_node| {
                let view = &self.forest.node(end_node).mat_view;
                let watermark = watermarks
                    .get(&end_node)
                    .copied()
                    .unwrap_or_else(|| view.version());
                Some((view, watermark))
            },
        );

        let report = MatchReport::from_counts(counts);
        self.stats.notifications += report.len() as u64;
        self.stats.embeddings += report.total_embeddings();
        report
    }

    /// The retraction mirror of the staged answering pipeline: one
    /// [`TricEngine::stage_retractions`] staging pass followed immediately
    /// by the deferred join — so the eager path and the pipelined path are
    /// the same code and equivalent by construction.
    fn retract_batch(&mut self, updates: &[Update]) -> MatchReport {
        let token = self.stage_retractions(updates);
        self.answer_retract(token)
    }

    /// The staging half of a retraction run:
    ///
    /// 1. Collect the removed rows per generic edge **without** touching the
    ///    views ([`EdgeViewStore::remove_deltas`]).
    /// 2. Locate the affected trie nodes — every node whose own edge lost
    ///    rows plus all of its descendants, since a descendant's prefix join
    ///    runs through the removed rows.
    /// 3. Per affected node, derive the rows its materialized view loses as
    ///    the deletion delta of the node's root→node prefix path against the
    ///    still-pre-removal views: by the deletion-delta property of
    ///    [`views::delta_path_relation`] this is exactly
    ///    `matV_before − matV_after`.
    /// 4. **Freeze** the pre-removal end-node views of every affected query
    ///    into generation-pinned [`Relation::snapshot_owned`] snapshots —
    ///    the chunk-sharing `Arc` pins keep them valid across any
    ///    compaction.
    /// 5. **Commit**, still at stage time: [`Relation::retract_rows`] on
    ///    each affected node view and [`EdgeViewStore::retract_deltas`] on
    ///    the edge views, compacting each touched relation into its next
    ///    generation (stale cached join builds are rejected by their
    ///    generation stamp). Later staged batches route against the
    ///    post-removal state, exactly as sequential execution would.
    ///
    /// The expensive part — joining the removed rows against the frozen
    /// snapshots to count disappearing embeddings — is deferred into the
    /// returned token ([`TricEngine::answer_retract`]). Requires every
    /// earlier staged token to have been answered or detached (see the
    /// staging contract on [`ContinuousEngine::stage_batch`]).
    fn stage_retractions(&mut self, updates: &[Update]) -> StagedRetractTric {
        self.stats.updates_processed += updates.len() as u64;

        let removed = self.views.remove_deltas(updates);
        if removed.is_empty() {
            return StagedRetractTric::default();
        }

        // Step 2: the affected sub-forest, depth-first from the edge's nodes.
        let mut stack: Vec<NodeId> = Vec::new();
        let mut seen: FxHashSet<NodeId> = FxHashSet::default();
        for ge in removed.keys() {
            for &n in self.forest.nodes_for_edge(ge) {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        let mut affected_nodes: Vec<NodeId> = Vec::new();
        while let Some(n) = stack.pop() {
            affected_nodes.push(n);
            for &c in &self.forest.node(n).children {
                if seen.insert(c) {
                    stack.push(c);
                }
            }
        }

        // Step 3: per-node removed rows from the pre-removal edge views.
        let caching = self.config.caching;
        let mut node_removed: FxHashMap<NodeId, Relation> = FxHashMap::default();
        let mut prefix: Vec<GenericEdge> = Vec::new();
        for &n in &affected_nodes {
            prefix.clear();
            let mut cur = Some(n);
            while let Some(m) = cur {
                let node = self.forest.node(m);
                prefix.push(node.edge);
                cur = node.parent;
            }
            prefix.reverse();
            let d = views::delta_path_relation(
                &self.views,
                &prefix,
                &removed,
                caching.then_some(&mut self.cache),
                &mut self.scratch.row_buf,
            );
            if !d.is_empty() {
                node_removed.insert(n, d);
            }
        }

        // A query loses embeddings iff some covering path's end node lost
        // view rows (an embedding disappears exactly when at least one of
        // its per-path tuples does, and the cross-path union dedups).
        let mut affected_queries: Vec<QueryId> = Vec::new();
        for n in node_removed.keys() {
            for reg in &self.forest.node(*n).registrations {
                affected_queries.push(reg.query);
            }
        }
        affected_queries.sort_unstable();
        affected_queries.dedup();

        // Step 4: freeze the pre-removal answer inputs. Every end-node view
        // an affected query's join pass will read is snapshot at its full
        // pre-removal length; the snapshots share frozen chunks by `Arc`.
        let mut frozen: FxHashMap<NodeId, Relation> = FxHashMap::default();
        for &qid in &affected_queries {
            for path in &self.queries[qid.index()].paths {
                frozen.entry(path.end_node).or_insert_with(|| {
                    let view = &self.forest.node(path.end_node).mat_view;
                    view.snapshot_owned(view.version())
                });
            }
        }

        // Step 5: commit the removal everywhere, at stage time.
        for (n, d) in &node_removed {
            self.forest.node_mut(*n).mat_view.retract_rows(d);
        }
        self.views.retract_deltas(&removed);

        StagedRetractTric {
            node_removed,
            affected_queries,
            frozen,
        }
    }

    /// The deferred half of a retraction run: join each affected query's
    /// removed rows against the token's frozen pre-removal snapshots —
    /// the very same [`join_covering_paths`] pass as insertion, counting
    /// disappearing embeddings instead of new ones.
    fn answer_retract(&mut self, token: StagedRetractTric) -> MatchReport {
        let report = answer_retract_detached(
            &token.affected_queries,
            &self.queries,
            &token.node_removed,
            &token.frozen,
        );
        self.stats.notifications += report.len() as u64;
        self.stats.retracted += report.total_retracted();
        report
    }
}

/// One covering path of a query as [`join_covering_paths`] sees it: the
/// trie node its materialized view lives at, and the query vertex each
/// view column binds.
trait CoveringPathRef {
    fn end_node(&self) -> NodeId;
    fn vertices(&self) -> &[QVertexId];
}

impl CoveringPathRef for PathInfo {
    fn end_node(&self) -> NodeId {
        self.end_node
    }
    fn vertices(&self) -> &[QVertexId] {
        &self.vertices
    }
}

/// Step 4's join loop (Fig. 8, lines 8–13, restricted to new embeddings),
/// shared by the engine-resident pass — live views bounded by the staged
/// watermarks — and the detached cross-thread pass — pre-cut
/// [`Relation::snapshot_owned`] views, whose limit is simply their length.
/// Per affected query, each path's truly-new delta (resolved by `delta_of`)
/// joins the other paths' views (resolved with their visible-row limit by
/// `other_of`; `None` or a zero limit means the path has no tuples and the
/// query cannot match), and the distinct embeddings union across paths.
fn join_covering_paths<'a, P, Q, D, F>(queries: Q, delta_of: D, other_of: F) -> Vec<(QueryId, u64)>
where
    P: CoveringPathRef + 'a,
    Q: Iterator<Item = (QueryId, &'a [P])>,
    D: Fn(NodeId) -> Option<&'a Relation>,
    F: Fn(NodeId) -> Option<(&'a Relation, usize)>,
{
    let mut counts: Vec<(QueryId, u64)> = Vec::new();
    let mut bindings: Vec<PathBinding<'a>> = Vec::new();
    for (qid, paths) in queries {
        // Accumulate distinct new embeddings across affected paths.
        let mut embeddings: Option<Relation> = None;
        for (i, path) in paths.iter().enumerate() {
            let Some(delta) = delta_of(path.end_node()) else {
                continue; // this covering path gained nothing new
            };
            bindings.clear();
            bindings.push(PathBinding::new(delta, path.vertices()));
            let mut all_present = true;
            for (j, other) in paths.iter().enumerate() {
                if i == j {
                    continue;
                }
                match other_of(other.end_node()) {
                    Some((view, limit)) if limit > 0 => {
                        bindings.push(PathBinding::at_version(view, other.vertices(), limit));
                    }
                    _ => {
                        all_present = false;
                        break;
                    }
                }
            }
            if !all_present {
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
                counts.push((qid, emb.len() as u64));
            }
        }
    }
    counts
}

/// Step 4 over detached state ([`join_covering_paths`] with owned inputs):
/// the staged truly-new deltas, the `Arc`-shared query table (indexed by
/// the affected query ids), and the end-node views frozen at the staged
/// watermarks — an empty frozen view is the `watermark == 0` case (the
/// query cannot match yet).
fn answer_tric_detached(
    affected_queries: &[QueryId],
    queries: &[QueryInfo],
    truly_new: &FxHashMap<NodeId, Relation>,
    frozen: &FxHashMap<NodeId, Relation>,
) -> MatchReport {
    MatchReport::from_counts(join_covering_paths(
        affected_queries
            .iter()
            .map(|qid| (*qid, queries[qid.index()].paths.as_slice())),
        |end_node| truly_new.get(&end_node),
        |end_node| frozen.get(&end_node).map(|view| (view, view.len())),
    ))
}

/// The retraction mirror of [`answer_tric_detached`]: the same covering-path
/// join over owned state, but the deltas are the removed rows, the snapshots
/// are pre-removal, and the counts report disappearing embeddings. Safe on
/// any thread at any later time — the generation-pinned snapshots outlive
/// the commit that already ran at stage time.
fn answer_retract_detached(
    affected_queries: &[QueryId],
    queries: &[QueryInfo],
    node_removed: &FxHashMap<NodeId, Relation>,
    frozen: &FxHashMap<NodeId, Relation>,
) -> MatchReport {
    MatchReport::from_retraction_counts(join_covering_paths(
        affected_queries
            .iter()
            .map(|qid| (*qid, queries[qid.index()].paths.as_slice())),
        |end_node| node_removed.get(&end_node),
        |end_node| frozen.get(&end_node).map(|view| (view, view.len())),
    ))
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
    fn staged_retraction_runs_defer_and_survive_later_stages() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b; ?b -y-> ?c");
            engine.register_query(&q).unwrap();
            let ux = f.u("x", "a", "b");
            let uy = f.u("y", "b", "c");
            assert_eq!(engine.apply_batch(&[ux, uy]).total_embeddings(), 1);
            // The retraction run stages a deferred token; its commit has
            // already run.
            let t1 = engine.stage_batch(&[uy.inverted()]);
            assert!(
                !t1.is_immediate(),
                "{}: retraction runs must defer",
                engine.name()
            );
            // A later insert run stages (re-creating the embedding) before
            // the retraction is answered. Because the retraction committed
            // at stage time, the re-insert routes against post-removal
            // views and is truly new; because the retraction froze
            // generation-pinned pre-removal snapshots, its deferred answer
            // is unaffected by this later append.
            let t2 = engine.stage_batch(&[uy]);
            let r1 = engine.answer_staged(t1);
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
        }
    }

    #[test]
    fn staging_a_mixed_sign_batch_falls_back_to_immediate() {
        for mut engine in engines() {
            let mut f = Fixture::new();
            let q = f.q("?a -x-> ?b");
            engine.register_query(&q).unwrap();
            let u = f.u("x", "a", "b");
            let token = engine.stage_batch(&[u, u.inverted()]);
            assert!(token.is_immediate(), "{}", engine.name());
            let report = engine.answer_staged(token);
            assert_eq!(report.total_embeddings(), 1, "{}", engine.name());
            assert_eq!(report.total_retracted(), 1, "{}", engine.name());
        }
    }

    #[test]
    fn tric_and_tric_plus_agree_on_random_mixed_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let mut f = Fixture::new();
        let queries = vec![
            f.q("?a -e0-> ?b; ?b -e1-> ?c"),
            f.q("?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a"),
            f.q("?h -e0-> ?x; ?h -e2-> ?y"),
            f.q("?a -e0-> v3"),
            f.q("?a -e2-> ?a"),
        ];
        let mut tric = TricEngine::tric();
        let mut plus = TricEngine::tric_plus();
        for q in &queries {
            tric.register_query(q).unwrap();
            plus.register_query(q).unwrap();
        }
        let mut live: Vec<Update> = Vec::new();
        for step in 0..500 {
            let u = if !live.is_empty() && rng.gen_bool(0.4) {
                live.swap_remove(rng.gen_range(0..live.len())).inverted()
            } else {
                let label = format!("e{}", rng.gen_range(0..3));
                let src = format!("v{}", rng.gen_range(0..8));
                let tgt = format!("v{}", rng.gen_range(0..8));
                let u = f.u(&label, &src, &tgt);
                if !live.contains(&u) {
                    live.push(u);
                }
                u
            };
            let a = tric.apply_update(u);
            let b = plus.apply_update(u);
            assert_eq!(a, b, "TRIC and TRIC+ diverged at #{step} on {u:?}");
        }
        assert_eq!(tric.stats(), plus.stats());
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
    fn tric_and_tric_plus_agree_on_random_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut f = Fixture::new();
        let queries = vec![
            f.q("?a -e0-> ?b; ?b -e1-> ?c"),
            f.q("?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a"),
            f.q("?h -e0-> ?x; ?h -e2-> ?y"),
            f.q("?a -e0-> v3"),
            f.q("?a -e2-> ?a"),
        ];
        let mut tric = TricEngine::tric();
        let mut plus = TricEngine::tric_plus();
        for q in &queries {
            tric.register_query(q).unwrap();
            plus.register_query(q).unwrap();
        }
        for _ in 0..400 {
            let label = format!("e{}", rng.gen_range(0..3));
            let src = format!("v{}", rng.gen_range(0..8));
            let tgt = format!("v{}", rng.gen_range(0..8));
            let u = f.u(&label, &src, &tgt);
            let a = tric.apply_update(u);
            let b = plus.apply_update(u);
            assert_eq!(a, b, "TRIC and TRIC+ diverged on {u:?}");
        }
        assert!(plus.cache_hits() > 0);
        assert_eq!(tric.cache_hits(), 0);
    }

    #[test]
    fn batch_report_equals_merged_sequential_reports() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for chunk in [2usize, 5, 32, 400] {
            for caching in [false, true] {
                let mut rng = StdRng::seed_from_u64(11);
                let mut f = Fixture::new();
                let queries = vec![
                    f.q("?a -e0-> ?b; ?b -e1-> ?c"),
                    f.q("?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a"),
                    f.q("?h -e0-> ?x; ?h -e2-> ?y"),
                    f.q("?a -e0-> v3"),
                    f.q("?a -e2-> ?a"),
                ];
                let config = TricConfig { caching };
                let mut seq = TricEngine::with_config(config);
                let mut bat = TricEngine::with_config(config);
                for q in &queries {
                    seq.register_query(q).unwrap();
                    bat.register_query(q).unwrap();
                }
                let stream: Vec<Update> = (0..400)
                    .map(|_| {
                        let label = format!("e{}", rng.gen_range(0..3));
                        let src = format!("v{}", rng.gen_range(0..8));
                        let tgt = format!("v{}", rng.gen_range(0..8));
                        f.u(&label, &src, &tgt)
                    })
                    .collect();
                for batch in stream.chunks(chunk) {
                    let mut counts = Vec::new();
                    for &u in batch {
                        let r = seq.apply_update(u);
                        counts.extend(r.matches.iter().map(|m| (m.query, m.new_embeddings)));
                    }
                    let expected = MatchReport::from_counts(counts);
                    let got = bat.apply_batch(batch);
                    assert_eq!(
                        got, expected,
                        "chunk {chunk} caching {caching} diverged on {batch:?}"
                    );
                }
                assert_eq!(seq.stats().updates_processed, bat.stats().updates_processed);
                assert_eq!(seq.stats().embeddings, bat.stats().embeddings);
            }
        }
    }

    #[test]
    fn deferred_answers_survive_later_stages() {
        // The staging contract: answer(N) may run after stage(N+1), …,
        // stage(N+k), and must still report exactly what apply_batch would
        // have — the version watermarks in the token freeze the views. Replay
        // a random stream in chunks, staging the whole window before
        // answering any of it, against a sequential reference.
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
                    // Stage the whole window first…
                    let tokens: Vec<_> =
                        group.iter().map(|b| staged_engine.stage_batch(b)).collect();
                    // …then answer FIFO, each against its frozen watermarks.
                    for (batch, token) in group.iter().zip(tokens) {
                        let expected = reference.apply_batch(batch);
                        let got = staged_engine.answer_staged(token);
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
    fn sharded_tric_agrees_with_plain_on_random_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for num_shards in [1usize, 2, 3, 8] {
            let mut rng = StdRng::seed_from_u64(77);
            let mut f = Fixture::new();
            let queries = vec![
                f.q("?a -e0-> ?b; ?b -e1-> ?c"),
                f.q("?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a"),
                f.q("?h -e0-> ?x; ?h -e2-> ?y"),
                f.q("?a -e0-> v3"),
                f.q("?a -e2-> ?a"),
            ];
            let mut plain = TricEngine::tric_plus();
            let mut sharded = TricEngine::tric_plus_sharded(num_shards);
            for q in &queries {
                let a = plain.register_query(q).unwrap();
                let b = sharded.register_query(q).unwrap();
                assert_eq!(a, b, "query ids must line up");
            }
            for step in 0..400 {
                let label = format!("e{}", rng.gen_range(0..3));
                let src = format!("v{}", rng.gen_range(0..8));
                let tgt = format!("v{}", rng.gen_range(0..8));
                let u = f.u(&label, &src, &tgt);
                let a = plain.apply_update(u);
                let b = sharded.apply_update(u);
                assert_eq!(a, b, "{num_shards} shards diverged at #{step} on {u:?}");
            }
            let (ps, ss) = (plain.stats(), sharded.stats());
            assert_eq!(ps.updates_processed, ss.updates_processed);
            assert_eq!(ps.notifications, ss.notifications);
            assert_eq!(ps.embeddings, ss.embeddings);
            assert!(sharded.heap_bytes() > 0);
        }
    }

    #[test]
    fn sharded_tric_agrees_with_plain_on_random_mixed_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for num_shards in [2usize, 3, 8] {
            let mut rng = StdRng::seed_from_u64(99);
            let mut f = Fixture::new();
            let queries = vec![
                f.q("?a -e0-> ?b; ?b -e1-> ?c"),
                f.q("?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a"),
                f.q("?h -e0-> ?x; ?h -e2-> ?y"),
                f.q("?a -e0-> v3"),
                f.q("?a -e2-> ?a"),
            ];
            let mut plain = TricEngine::tric_plus();
            let mut sharded = TricEngine::tric_plus_sharded(num_shards);
            for q in &queries {
                let a = plain.register_query(q).unwrap();
                let b = sharded.register_query(q).unwrap();
                assert_eq!(a, b, "query ids must line up");
            }
            // Multi-update batches mixing signs, so the sharded wrapper's
            // sign-run split, eager retraction path and spanning pre-removal
            // join all get exercised against the unsharded engine.
            let mut live: Vec<Update> = Vec::new();
            let mut batch: Vec<Update> = Vec::new();
            for step in 0..250 {
                batch.clear();
                for _ in 0..rng.gen_range(1..4) {
                    let u = if !live.is_empty() && rng.gen_bool(0.4) {
                        live.swap_remove(rng.gen_range(0..live.len())).inverted()
                    } else {
                        let label = format!("e{}", rng.gen_range(0..3));
                        let src = format!("v{}", rng.gen_range(0..8));
                        let tgt = format!("v{}", rng.gen_range(0..8));
                        let u = f.u(&label, &src, &tgt);
                        if !live.contains(&u) {
                            live.push(u);
                        }
                        u
                    };
                    batch.push(u);
                }
                let a = plain.apply_batch(&batch);
                let b = sharded.apply_batch(&batch);
                assert_eq!(a, b, "{num_shards} shards diverged at #{step} on {batch:?}");
            }
            let (ps, ss) = (plain.stats(), sharded.stats());
            assert_eq!(ps.updates_processed, ss.updates_processed);
            assert_eq!(ps.notifications, ss.notifications);
            assert_eq!(ps.embeddings, ss.embeddings);
            assert_eq!(ps.retracted, ss.retracted);
        }
    }

    #[test]
    fn registration_with_staged_tokens_outstanding_is_rejected() {
        use gsm_core::error::Error;
        for num_shards in [1usize, 2] {
            let mut f = Fixture::new();
            let mut sharded = TricEngine::tric_sharded(num_shards);
            let q0 = f.q("?a -e0-> ?b");
            sharded.register_query(&q0).unwrap();
            let staged = sharded.stage_batch(&[f.u("e0", "a", "b")]);
            let q1 = f.q("?a -e1-> ?b");
            match sharded.register_query(&q1) {
                Err(Error::RegistrationWhileStaged(n)) => assert_eq!(n, 1),
                other => panic!("expected RegistrationWhileStaged, got {other:?}"),
            }
            let report = sharded.answer_staged(staged);
            assert_eq!(report.total_embeddings(), 1);
            // The token is consumed, so registration is legal again.
            sharded.register_query(&q1).unwrap();
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
