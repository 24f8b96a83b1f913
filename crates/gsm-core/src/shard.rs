//! Sharding the trie forest and edge-view store across workers.
//!
//! The unit of partitioning is the **root generic edge**: every covering path
//! of every registered query starts at some generic edge, and
//! [`shard_of`] deterministically assigns each such root — and with it the
//! whole trie (or path state) hanging under it, plus the edge views reachable
//! from it — to one of `N` shards. Each shard owns a disjoint subset of root
//! generic edges and absorbs its slice of a routed update batch
//! independently — on the engine's **persistent worker pool**
//! ([`crate::pool::WorkerPool`], long-lived channel-fed threads sized to
//! `min(shards, available_parallelism)`, spawned once and reused for every
//! batch) when `N > 1`; a deterministic, order-insensitive merge of the
//! per-shard [`MatchReport`]s (see [`MatchReport::merge`]) produces the
//! final report. The staged answer pass can additionally be **detached**
//! ([`ContinuousEngine::detach_staged`]): inner answers and the cross-shard
//! spanning join then run as one self-contained task on the pipelined
//! executor's answer thread, against full relations frozen at the staged
//! watermarks.
//!
//! Two kinds of queries arise:
//!
//! * **Shard-local queries** — all covering-path roots map to the same
//!   shard. The query is registered verbatim on that shard's inner engine;
//!   its trie nodes, edge views and covering-path joins all stay
//!   shard-local.
//! * **Spanning queries** — covering-path roots map to at least two shards.
//!   Each covering path becomes a shard-local *path state* (a materialized
//!   path relation plus its per-batch delta) owned by the shard of its root
//!   edge; path states are shared between spanning queries with identical
//!   edge sequences, mirroring the trie-node sharing of TRIC. Propagation
//!   (computing the per-path deltas) happens inside the owning shard's
//!   worker; the cross-path **covering-path join pass** runs post-merge,
//!   joining each path's delta against the other paths' full relations —
//!   the same separation of propagation from answering that TRIC/TRIC+ use
//!   within a single engine.
//!
//! With `num_shards == 1` the wrapper degenerates to a plain delegation to
//! the single inner engine (no routing, no translation, no threads), so a
//! 1-core deployment pays no sharding overhead.
//!
//! Registration order still assigns [`QueryId`]s sequentially at the
//! wrapper, so reports are directly comparable with an unsharded engine fed
//! the same query set.
//!
//! # Late registration
//!
//! Queries may be added mid-stream. The wrapper keeps a **history store**
//! (an [`EdgeViewStore`] mirroring every generic edge any query has
//! routed), fed once per batch on the routing pass. When a **spanning**
//! query registers mid-stream, each path's owner shard backfills its
//! spanning views from the history store
//! ([`EdgeViewStore::backfill_from`]) before the path's catch-up relation
//! is computed — so a spanning query sees exactly the history an unsharded
//! engine's shared view store would have held, even for edges whose
//! updates previously routed only to *other* shards. The replay is a
//! set-union into deduplicated insert-only views and registration barriers
//! the pipeline first, so backfilling is idempotent and invisible to
//! outstanding work.
//!
//! **Shard-local** queries still catch up only with their home shard's
//! inner-engine history: the inner engine's views are private and
//! replaying through its public update path would repollute its reports
//! and statistics. An unsharded engine may therefore see strictly more
//! history for a *shard-local* query registered mid-stream whose edges
//! were previously driven by queries on other shards. Registering the
//! query database before streaming — what every workload in this
//! workspace does — is always exact, as is mid-stream registration whose
//! new edges carry no prior history.

use std::collections::BTreeSet;
use std::hash::BuildHasher;
use std::sync::Arc;

use crate::engine::{
    ContinuousEngine, DetachedAnswer, EngineStats, MatchReport, QueryId, StagedBatch,
};
use crate::error::{Error, Result};
use crate::interner::Sym;
use crate::memory::HeapSize;
use crate::model::generic::GenericEdge;
use crate::model::update::{sign_runs, Update};
use crate::pool::WorkerPool;
use crate::query::paths::covering_paths;
use crate::query::pattern::{QVertexId, QueryPattern};
use crate::relation::eval::{join_paths, PathBinding};
use crate::relation::fasthash::{FxBuildHasher, FxHashMap};
use crate::relation::Relation;
use crate::views::{delta_path_relation, full_path_relation, EdgeViewStore};

/// Deterministic shard assignment of a root generic edge.
///
/// Uses the workspace's FxHash (no per-process randomness), so the same edge
/// maps to the same shard in every run, test and process — the property the
/// shard-count differential tests rely on. `num_shards == 0` is treated as 1.
pub fn shard_of(root: &GenericEdge, num_shards: usize) -> usize {
    if num_shards <= 1 {
        return 0;
    }
    (FxBuildHasher.hash_one(root) % num_shards as u64) as usize
}

/// The materialized state of one spanning covering path: the path's full
/// relation (one column per path position). Owned by the shard of the
/// path's root generic edge and shared by every spanning query with the
/// same generic-edge sequence; the per-batch delta travels in the staged
/// token ([`StagedSharded`]) rather than living here, so later batches can
/// be staged while earlier deltas await their join pass.
#[derive(Debug)]
struct PathState {
    /// Generic edges along the path. Emptied when the last referencing
    /// query unregisters, which makes every per-batch sweep skip the slot
    /// (the pid itself is never reused).
    edges: Vec<GenericEdge>,
    /// Materialized path relation (`edges.len() + 1` columns). For
    /// **single-edge paths this stays empty and unused**: the shard's edge
    /// view already *is* the path relation, so materializing it here would
    /// double the memory and per-batch write work —
    /// [`Shard::spanning_full`] resolves the right relation at join time.
    full: Relation,
    /// Number of registered spanning covering paths sharing this state.
    refs: usize,
}

impl HeapSize for PathState {
    fn heap_size(&self) -> usize {
        self.edges.heap_size() + self.full.heap_size()
    }
}

/// Per-shard state for the spanning-query machinery: a shard-local edge-view
/// store plus the path states owned by this shard.
#[derive(Debug, Default)]
struct SpanningState {
    views: EdgeViewStore,
    paths: Vec<PathState>,
    /// Edge sequence → index into `paths` (path-state sharing).
    by_key: FxHashMap<Vec<GenericEdge>, usize>,
    /// Row assembly scratch for the shared path-join kernels.
    row_buf: Vec<Sym>,
}

impl HeapSize for SpanningState {
    fn heap_size(&self) -> usize {
        self.views.heap_size()
            + self.paths.heap_size()
            + self.by_key.heap_size()
            + self.row_buf.capacity() * std::mem::size_of::<Sym>()
    }
}

/// One shard's contribution to a staged batch: the inner engine's own
/// staged token, the spanning path deltas this batch produced here, and the
/// post-batch version watermark of every path state's full relation (the
/// frozen prefix the deferred join pass reads — see
/// [`crate::relation::Relation::version`]).
#[derive(Debug, Default)]
struct StagedShard {
    inner: Option<StagedBatch>,
    /// `(path-state index, delta relation)` for every path that gained rows.
    spanning_deltas: Vec<(usize, Relation)>,
    /// Per path-state index: version of [`Shard::spanning_full`] at stage
    /// end (covers this batch's appends, not later batches').
    watermarks: Vec<usize>,
}

/// The insert half of the sharded wrapper's deferred-answer token: one
/// [`StagedShard`] per shard, in shard order.
#[derive(Debug, Default)]
struct StagedSharded {
    shards: Vec<StagedShard>,
}

/// The retraction half: each receiving shard's inner staged token (the
/// inner commits already ran at stage time, per the staging contract) plus
/// the spanning join inputs — removed path deltas and the other paths'
/// **pre-removal** fulls, generation-pinned by [`Relation::snapshot_owned`]
/// so the commit that already compacted the live spanning state cannot
/// move them.
struct StagedShardedRetract {
    /// `(shard index, inner staged token)` for every shard the run routed to.
    inners: Vec<(usize, StagedBatch)>,
    spanning: Option<DetachedSpanning>,
}

/// Downcast target of every deferred token the sharded wrapper issues
/// (`num_shards > 1`); single-shard deployments delegate and re-issue the
/// inner engine's own tokens instead.
enum ShardedToken {
    Insert(StagedSharded),
    Retract(StagedShardedRetract),
}

/// One shard: an inner engine for shard-local queries plus the spanning
/// path states owned here.
struct Shard<E> {
    engine: E,
    /// Inner (shard-local) query index → wrapper-level query id.
    /// `Arc`-shared with detached answer tasks (registration barriers the
    /// pipeline first, so the engine thread mutates via [`Arc::make_mut`]
    /// and detachment is an `Arc` bump instead of a per-batch deep copy).
    local_to_global: Arc<Vec<QueryId>>,
    spanning: SpanningState,
    /// Slice of the current batch routed to this shard (reused buffer).
    slice: Vec<Update>,
    /// Inner staged token of the current batch (set by [`Shard::absorb`]).
    staged_inner: Option<StagedBatch>,
    /// Spanning path deltas of the current batch (set by [`Shard::absorb`]).
    staged_deltas: Vec<(usize, Relation)>,
    /// Total updates routed to this shard (observability).
    routed: u64,
}

impl<E: ContinuousEngine> Shard<E> {
    fn new(engine: E) -> Self {
        Shard {
            engine,
            local_to_global: Arc::new(Vec::new()),
            spanning: SpanningState::default(),
            slice: Vec::new(),
            staged_inner: None,
            staged_deltas: Vec::new(),
            routed: 0,
        }
    }

    /// The full (post-batch) relation of spanning path state `pid`: the
    /// shard's edge view itself for single-edge paths, the materialized
    /// path relation otherwise.
    fn spanning_full(&self, pid: usize) -> &Relation {
        let ps = &self.spanning.paths[pid];
        if ps.edges.len() == 1 {
            // Registered at path creation, so the view always exists; the
            // (empty) materialized relation is a safe fallback regardless.
            self.spanning.views.get(&ps.edges[0]).unwrap_or(&ps.full)
        } else {
            &ps.full
        }
    }

    /// Registers a spanning covering path on this shard, returning the index
    /// of its (possibly pre-existing, shared) path state.
    fn register_spanning_path(&mut self, edges: &[GenericEdge]) -> usize {
        for &e in edges {
            self.spanning.views.register(e);
        }
        if let Some(&pid) = self.spanning.by_key.get(edges) {
            self.spanning.paths[pid].refs += 1;
            return pid;
        }
        // Catch up with whatever history this shard's spanning views have
        // already absorbed (queries may be registered mid-stream). A
        // single-edge path needs no materialized relation at all — its
        // edge view is consulted directly.
        let full = if edges.len() == 1 {
            Relation::new(2)
        } else {
            full_path_relation(
                &self.spanning.views,
                edges,
                None,
                &mut self.spanning.row_buf,
            )
        };
        let pid = self.spanning.paths.len();
        self.spanning.paths.push(PathState {
            edges: edges.to_vec(),
            full,
            refs: 1,
        });
        self.spanning.by_key.insert(edges.to_vec(), pid);
        pid
    }

    /// Drops one covering-path reference to path state `pid`. The last
    /// reference clears the state — edges emptied, so every per-batch sweep
    /// skips the slot, and the materialized relation dropped — and unlinks
    /// it from `by_key`; the pid slot itself is never reused, so staged
    /// watermark vectors and path descriptors held elsewhere stay aligned.
    fn release_spanning_path(&mut self, pid: usize) {
        let ps = &mut self.spanning.paths[pid];
        debug_assert!(ps.refs > 0, "releasing an already dead path state");
        ps.refs -= 1;
        if ps.refs > 0 {
            return;
        }
        let edges = std::mem::take(&mut ps.edges);
        ps.full = Relation::new(2);
        self.spanning.by_key.remove(&edges);
    }

    /// Absorbs this shard's slice of the current batch: the inner engine
    /// **stages** its local queries (routing + propagation, answer deferred
    /// into `staged_inner`), and every spanning path state owned here
    /// computes (and appends) its batch delta into `staged_deltas`. Runs on
    /// a worker thread when several shards are active.
    fn absorb(&mut self) {
        self.staged_deltas.clear();
        self.staged_inner = if self.slice.is_empty() {
            None
        } else {
            Some(self.engine.stage_batch(&self.slice))
        };
        if self.slice.is_empty() || self.spanning.paths.is_empty() {
            return;
        }
        let edge_deltas = self.spanning.views.apply_batch(&self.slice);
        if edge_deltas.is_empty() {
            return;
        }
        for pid in 0..self.spanning.paths.len() {
            let touches = self.spanning.paths[pid]
                .edges
                .iter()
                .any(|e| edge_deltas.contains_key(e));
            if !touches {
                continue;
            }
            let delta = delta_path_relation(
                &self.spanning.views,
                &self.spanning.paths[pid].edges,
                &edge_deltas,
                None,
                &mut self.spanning.row_buf,
            );
            if delta.is_empty() {
                continue;
            }
            let ps = &mut self.spanning.paths[pid];
            // Single-edge path relations are the edge views themselves
            // (already advanced by the routing pass above); only genuinely
            // joined paths materialize their full relation.
            if ps.edges.len() > 1 {
                ps.full.extend_from(&delta);
            }
            self.staged_deltas.push((pid, delta));
        }
    }
}

/// One covering path of a spanning query: the owning shard, the index of
/// the (shared) path state inside that shard, and the query-vertex sequence
/// the path's columns bind.
type SpanningPathInfo = (usize, usize, Vec<QVertexId>);

/// A query whose covering paths live on at least two shards. The path
/// descriptors are `Arc`-shared with detached answer tasks (immutable after
/// registration, which barriers the pipeline first), so detaching a batch
/// captures them by reference count instead of deep-copying every vertex
/// sequence.
struct SpanningQuery {
    query: QueryId,
    paths: Arc<Vec<SpanningPathInfo>>,
}

/// Where a wrapper-level query id lives — the unregistration directory.
/// Indexed by id; maintained only for genuinely sharded deployments
/// (`num_shards > 1`; single-shard wrappers delegate the whole lifecycle).
enum QueryHome {
    /// Registered on one shard's inner engine under a local id.
    Local { shard: usize, local: QueryId },
    /// Spanning: answered by the wrapper's covering-path join pass.
    Spanning,
    /// Unregistered; the id slot is never reused.
    Dead,
}

/// The spanning covering-path join pass, shared by the engine-resident
/// answer path ([`ShardedEngine::answer_spanning`]) and the detached
/// cross-thread path ([`DetachedSpanning::answer`]): for every spanning
/// query with at least one staged path delta, join each affected path's
/// delta against the other paths' full relations frozen at the staged
/// watermarks. `delta_of` resolves a path's staged delta, `full_of` its
/// full relation plus watermark (`None`, or a zero watermark, means the
/// path had no tuples at stage time — the query cannot match).
fn join_spanning_queries<'a, Q, D, F>(queries: Q, delta_of: D, full_of: F) -> MatchReport
where
    Q: Iterator<Item = (QueryId, &'a [SpanningPathInfo])>,
    D: Fn(usize, usize) -> Option<&'a Relation>,
    F: Fn(usize, usize) -> Option<(&'a Relation, usize)>,
{
    let mut counts: Vec<(QueryId, u64)> = Vec::new();
    let mut bindings: Vec<PathBinding<'a>> = Vec::new();
    for (query, paths) in queries {
        let mut embeddings: Option<Relation> = None;
        for (i, (shard_i, pid_i, verts_i)) in paths.iter().enumerate() {
            let Some(delta) = delta_of(*shard_i, *pid_i) else {
                continue;
            };
            bindings.clear();
            bindings.push(PathBinding::new(delta, verts_i));
            let mut all_present = true;
            for (j, (shard_j, pid_j, verts_j)) in paths.iter().enumerate() {
                if i == j {
                    continue;
                }
                match full_of(*shard_j, *pid_j) {
                    Some((full, watermark)) if watermark > 0 => {
                        bindings.push(PathBinding::at_version(full, verts_j, watermark));
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
                counts.push((query, emb.len() as u64));
            }
        }
    }
    MatchReport::from_counts(counts)
}

/// The spanning half of a detached sharded answer: affected spanning-query
/// descriptors, the staged path deltas, and the other paths' full relations
/// frozen at the staged watermarks ([`Relation::snapshot_owned`]) — all
/// owned, so the covering-path join pass can run on any thread while the
/// shards absorb later batches.
struct DetachedSpanning {
    queries: Vec<(QueryId, Arc<Vec<SpanningPathInfo>>)>,
    /// (shard, path-state index) → staged delta.
    deltas: FxHashMap<(usize, usize), Relation>,
    /// (shard, path-state index) → full relation frozen at the staged
    /// watermark (absent when the watermark was zero).
    fulls: FxHashMap<(usize, usize), Relation>,
}

impl DetachedSpanning {
    fn answer(&self) -> MatchReport {
        join_spanning_queries(
            self.queries.iter().map(|(q, p)| (*q, p.as_slice())),
            |shard, pid| self.deltas.get(&(shard, pid)),
            |shard, pid| self.fulls.get(&(shard, pid)).map(|full| (full, full.len())),
        )
    }

    /// The retraction reading of the same covering-path join: the deltas
    /// hold removed path rows and the fulls are frozen pre-removal, so
    /// every joined row is an embedding that **disappears** with the run.
    fn answer_retract(&self) -> MatchReport {
        let joined = self.answer();
        MatchReport::from_retraction_counts(
            joined
                .matches
                .iter()
                .map(|m| (m.query, m.new_embeddings))
                .collect(),
        )
    }
}

/// Partitions any [`ContinuousEngine`] into `N` shards by root generic edge.
///
/// See the [module documentation](self) for the partitioning and merge
/// contract. The wrapper is itself a `ContinuousEngine`, observationally
/// equivalent to the unsharded inner engine on every stream: this is pinned
/// by the shard-count differential matrix in the workspace test suites.
pub struct ShardedEngine<E> {
    shards: Vec<Shard<E>>,
    /// Persistent absorb workers (lazily spawned on the first genuinely
    /// parallel batch; never spawned for `shards == 1`). Long-lived and
    /// channel-fed — shards *move* through absorb jobs and back — replacing
    /// the per-batch scoped threads of earlier revisions.
    pool: Option<WorkerPool>,
    spanning_queries: Vec<SpanningQuery>,
    /// Reverse routing index: generic edge → shards observing it (sorted,
    /// deduplicated). Routing an update is then O(shapes) lookups,
    /// independent of the shard count.
    route_index: FxHashMap<GenericEdge, Vec<usize>>,
    /// Per-shard "already routed this update" marks (reused buffer).
    route_marks: Vec<bool>,
    /// Shards marked for the current update (reused buffer).
    route_marked: Vec<usize>,
    /// Wrapper-level history: one view per generic edge any query has ever
    /// routed, fed once per batch. Mid-stream spanning registration
    /// backfills owner shards from here (see the module docs).
    history: EdgeViewStore,
    /// Number of live (non-tombstoned) queries.
    num_queries: usize,
    /// Wrapper-level query-id slots ever issued — the next registration's
    /// id. Unregistration tombstones, never reclaims, so `next_id` only
    /// grows.
    next_id: usize,
    /// Id → home directory (see [`QueryHome`]); empty when `shards == 1`.
    query_homes: Vec<QueryHome>,
    /// Staged batch tokens issued by [`ContinuousEngine::stage_batch`] and
    /// not yet consumed by `answer_staged`/`detach_staged`. Registration is
    /// rejected while any are outstanding (it would restructure the tries,
    /// views and id maps a deferred answer pass reads).
    outstanding: usize,
    name: &'static str,
    stats: EngineStats,
}

impl<E: ContinuousEngine + Send + 'static> ShardedEngine<E> {
    /// Builds a sharded engine with `num_shards` shards (clamped to at least
    /// one), each backed by a fresh inner engine from `factory`.
    pub fn new(num_shards: usize, mut factory: impl FnMut() -> E) -> Self {
        let n = num_shards.max(1);
        let shards: Vec<Shard<E>> = (0..n).map(|_| Shard::new(factory())).collect();
        let name = shards[0].engine.name();
        ShardedEngine {
            shards,
            pool: None,
            spanning_queries: Vec::new(),
            route_index: FxHashMap::default(),
            route_marks: vec![false; n],
            route_marked: Vec::new(),
            history: EdgeViewStore::new(),
            num_queries: 0,
            next_id: 0,
            query_homes: Vec::new(),
            outstanding: 0,
            name,
            stats: EngineStats::default(),
        }
    }

    /// Records that `shard` observes `edge` in the reverse routing index,
    /// and starts mirroring the edge in the wrapper-level history store.
    fn route_edge_to(&mut self, edge: GenericEdge, shard: usize) {
        self.history.register(edge);
        let shards = self.route_index.entry(edge).or_default();
        if !shards.contains(&shard) {
            shards.push(shard);
            shards.sort_unstable();
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The inner engines, in shard order — for inspection in tests and
    /// experiments.
    pub fn shard_engines(&self) -> impl Iterator<Item = &E> {
        self.shards.iter().map(|s| &s.engine)
    }

    /// How many updates have been routed to each shard so far. An update
    /// matching edges on several shards counts once per receiving shard.
    pub fn routed_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.routed).collect()
    }

    /// Number of registered queries whose covering paths span shards.
    pub fn num_spanning_queries(&self) -> usize {
        self.spanning_queries.len()
    }

    /// Routes a batch into the per-shard slices: an update goes to every
    /// shard observing one of its generic-edge shapes, via the reverse
    /// routing index — O(shapes) hash lookups per update, independent of
    /// the shard count. The marks deduplicate shards reached through
    /// several shapes of the same update.
    fn route_into_slices(&mut self, updates: &[Update]) {
        for shard in &mut self.shards {
            shard.slice.clear();
        }
        for &u in updates {
            for shape in GenericEdge::shapes_of_update(&u) {
                let Some(shards) = self.route_index.get(&shape) else {
                    continue;
                };
                for &s in shards {
                    if !self.route_marks[s] {
                        self.route_marks[s] = true;
                        self.route_marked.push(s);
                        self.shards[s].slice.push(u);
                        self.shards[s].routed += 1;
                    }
                }
            }
            for s in self.route_marked.drain(..) {
                self.route_marks[s] = false;
            }
        }
    }

    /// The staging core for `num_shards > 1`: route the batch into
    /// per-shard slices and absorb the slices (in parallel when at least two
    /// shards are active and the batch is a real batch). Inner engines stage
    /// their local queries, spanning path deltas are computed and appended,
    /// and everything the deferred merge + covering-path join pass needs —
    /// inner tokens, spanning deltas, per-path version watermarks — is
    /// collected into the returned token.
    fn stage_batch_routed(&mut self, updates: &[Update]) -> StagedSharded {
        self.stats.updates_processed += updates.len() as u64;
        if updates.is_empty() {
            return StagedSharded::default();
        }

        // Mirror the batch into the wrapper-level history store (dropping
        // the per-edge deltas — only mid-stream registration reads it).
        self.history.apply_batch(updates);

        self.route_into_slices(updates);

        // Absorb. Worker threads only pay off when several shards have real
        // work; single-update calls and single-active-shard batches take the
        // in-place sequential path. The parallel path scatters the shards
        // over the persistent worker pool — each shard (engine, spanning
        // state and routed slice) *moves* into its absorb job and comes back
        // with the gathered results, so the long-lived workers need no
        // scoped borrows. The pool is spawned once, on the first batch that
        // needs it, and reused for the engine's whole life.
        let active = self.shards.iter().filter(|s| !s.slice.is_empty()).count();
        if active >= 2 && updates.len() > 1 {
            let threads = self.shards.len().min(WorkerPool::default_threads());
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(threads));
            let shards = std::mem::take(&mut self.shards);
            let jobs: Vec<_> = shards
                .into_iter()
                .map(|mut shard| {
                    move || {
                        if shard.slice.is_empty() {
                            shard.staged_inner = None;
                            shard.staged_deltas.clear();
                        } else {
                            shard.absorb();
                        }
                        shard
                    }
                })
                .collect();
            self.shards = pool.scatter(jobs);
        } else {
            for shard in self.shards.iter_mut() {
                if shard.slice.is_empty() {
                    shard.staged_inner = None;
                    shard.staged_deltas.clear();
                } else {
                    shard.absorb();
                }
            }
        }

        // Collect the token: inner staged tokens and spanning deltas move
        // out of the shards, and every path state's full relation is
        // watermarked — including on shards this batch never touched, whose
        // fulls the join pass may still read (they must be frozen against
        // appends by later staged batches). When *no* spanning path gained
        // rows anywhere — the common case for sparse per-update staging —
        // the join pass never reads a watermark, so none are captured.
        let any_spanning_delta = self.shards.iter().any(|s| !s.staged_deltas.is_empty());
        StagedSharded {
            shards: self
                .shards
                .iter_mut()
                .map(|shard| StagedShard {
                    inner: shard.staged_inner.take(),
                    spanning_deltas: std::mem::take(&mut shard.staged_deltas),
                    watermarks: if any_spanning_delta {
                        (0..shard.spanning.paths.len())
                            .map(|pid| shard.spanning_full(pid).version())
                            .collect()
                    } else {
                        Vec::new()
                    },
                })
                .collect(),
        }
    }

    /// The deferred merge + answer pass for `num_shards > 1`: every shard's
    /// inner engine answers its staged token (translating local ids to
    /// wrapper ids; each query is reported by at most one shard, so one
    /// sort-and-fold over the concatenated pairs merges all shards at once),
    /// then the spanning covering-path join pass joins the staged deltas
    /// against the other paths' watermarked fulls, and the two reports
    /// combine via the associative, order-insensitive report merge.
    fn answer_batch_routed(&mut self, mut token: StagedSharded) -> MatchReport {
        let mut counts: Vec<(QueryId, u64)> = Vec::new();
        for (s, staged) in token.shards.iter_mut().enumerate() {
            let Some(inner) = staged.inner.take() else {
                continue;
            };
            let report = self.shards[s].engine.answer_staged(inner);
            counts.extend(report.matches.iter().map(|m| {
                (
                    self.shards[s].local_to_global[m.query.index()],
                    m.new_embeddings,
                )
            }));
        }
        let merged = MatchReport::from_counts(counts).merge(&self.answer_spanning(&token));
        self.stats.notifications += merged.len() as u64;
        self.stats.embeddings += merged.total_embeddings();
        merged
    }

    /// The post-merge covering-path join pass: for every spanning query with
    /// at least one non-empty staged path delta, join each affected path's
    /// delta against the other paths' full relations **frozen at the staged
    /// watermarks** — exactly the final answering step the engines run
    /// locally (Fig. 8, lines 8–13 of the paper), lifted across shards.
    /// Rows appended to the fulls by later staged batches sit past the
    /// watermarks and are invisible.
    fn answer_spanning(&self, token: &StagedSharded) -> MatchReport {
        // The staged delta lists say exactly whether any path state gained
        // rows in the staged batch; without one, no spanning query can
        // report, so skip the per-query delta scan entirely.
        if self.spanning_queries.is_empty()
            || token.shards.iter().all(|s| s.spanning_deltas.is_empty())
        {
            return MatchReport::empty();
        }
        // (path-state id → staged delta) per shard, for O(1) lookups below.
        let delta_index: Vec<FxHashMap<usize, &Relation>> = token
            .shards
            .iter()
            .map(|s| {
                s.spanning_deltas
                    .iter()
                    .map(|(pid, delta)| (*pid, delta))
                    .collect()
            })
            .collect();
        join_spanning_queries(
            self.spanning_queries
                .iter()
                .map(|sq| (sq.query, sq.paths.as_slice())),
            |shard, pid| delta_index[shard].get(&pid).copied(),
            |shard, pid| {
                let watermark = token.shards[shard]
                    .watermarks
                    .get(pid)
                    .copied()
                    .unwrap_or(0);
                Some((self.shards[shard].spanning_full(pid), watermark))
            },
        )
    }

    /// The cross-thread form of [`answer_batch_routed`]
    /// (`ShardedEngine::answer_batch_routed`): every shard's inner engine
    /// detaches its own staged token (freezing whatever its answer pass
    /// reads), the spanning machinery freezes the staged deltas plus the
    /// other paths' fulls at the staged watermarks, and the combined task —
    /// inner answers, id translation, one merged fold, spanning join —
    /// owns all of it and runs on any thread.
    fn detach_batch_routed(&mut self, mut token: StagedSharded) -> DetachedAnswer {
        let mut inners: Vec<(DetachedAnswer, Arc<Vec<QueryId>>)> = Vec::new();
        for (s, staged) in token.shards.iter_mut().enumerate() {
            if let Some(inner) = staged.inner.take() {
                inners.push((
                    self.shards[s].engine.detach_staged(inner),
                    Arc::clone(&self.shards[s].local_to_global),
                ));
            }
        }

        let any_delta = token.shards.iter().any(|s| !s.spanning_deltas.is_empty());
        let spanning = if any_delta && !self.spanning_queries.is_empty() {
            // Only queries with at least one staged path delta can report;
            // capture exactly those (and the fulls their joins will read).
            let queries: Vec<(QueryId, Arc<Vec<SpanningPathInfo>>)> = self
                .spanning_queries
                .iter()
                .filter(|sq| {
                    sq.paths.iter().any(|(s, pid, _)| {
                        token.shards[*s]
                            .spanning_deltas
                            .iter()
                            .any(|(p, _)| p == pid)
                    })
                })
                .map(|sq| (sq.query, Arc::clone(&sq.paths)))
                .collect();
            let mut fulls: FxHashMap<(usize, usize), Relation> = FxHashMap::default();
            for (_, paths) in &queries {
                for (s, pid, _) in paths.iter() {
                    let watermark = token.shards[*s].watermarks.get(*pid).copied().unwrap_or(0);
                    if watermark > 0 {
                        fulls.entry((*s, *pid)).or_insert_with(|| {
                            self.shards[*s]
                                .spanning_full(*pid)
                                .snapshot_owned(watermark)
                        });
                    }
                }
            }
            let deltas: FxHashMap<(usize, usize), Relation> = token
                .shards
                .into_iter()
                .enumerate()
                .flat_map(|(s, staged)| {
                    staged
                        .spanning_deltas
                        .into_iter()
                        .map(move |(pid, delta)| ((s, pid), delta))
                })
                .collect();
            Some(DetachedSpanning {
                queries,
                deltas,
                fulls,
            })
        } else {
            None
        };

        DetachedAnswer::task(move || {
            let mut counts: Vec<(QueryId, u64)> = Vec::new();
            for (inner, local_to_global) in inners {
                let report = inner.run();
                counts.extend(
                    report
                        .matches
                        .iter()
                        .map(|m| (local_to_global[m.query.index()], m.new_embeddings)),
                );
            }
            let spanning_report = spanning
                .as_ref()
                .map(DetachedSpanning::answer)
                .unwrap_or_default();
            MatchReport::from_counts(counts).merge(&spanning_report)
        })
    }

    /// Stages one all-retraction run for `num_shards > 1` — the deletion
    /// mirror of [`stage_batch_routed`](Self::stage_batch_routed):
    ///
    /// 1. The wrapper-level history store retracts the named edges at stage
    ///    time (mid-stream spanning registration must never backfill
    ///    removed rows).
    /// 2. Spanning path states collect their deletion deltas read-only
    ///    ([`EdgeViewStore::remove_deltas`] seeding [`delta_path_relation`]
    ///    against the pre-removal views), and the other paths' fulls are
    ///    frozen **pre-removal** via [`Relation::snapshot_owned`] —
    ///    generation-pinned, so step 3's compaction cannot move them under
    ///    the deferred join.
    /// 3. The spanning views and materialized fulls commit
    ///    ([`Relation::retract_rows`]), exactly as the eager path did.
    /// 4. Each receiving shard's inner engine **stages** its slice: inner
    ///    commits land now (per the staging contract), the disappearing-
    ///    embedding joins defer into the inner tokens.
    ///
    /// Routing runs sequentially — the commits are cheap compactions; all
    /// the join work rides in the returned token and overlaps later stages.
    fn stage_retract_run(&mut self, updates: &[Update]) -> StagedShardedRetract {
        self.stats.updates_processed += updates.len() as u64;

        let removed_hist = self.history.remove_deltas(updates);
        self.history.retract_deltas(&removed_hist);

        self.route_into_slices(updates);

        // Spanning: collect every shard's removed view rows and the removed
        // rows of each affected path state — all against pre-removal state.
        let mut removed_by_shard: Vec<FxHashMap<GenericEdge, Relation>> =
            Vec::with_capacity(self.shards.len());
        let mut removed_paths: FxHashMap<(usize, usize), Relation> = FxHashMap::default();
        for s in 0..self.shards.len() {
            let shard = &mut self.shards[s];
            if shard.slice.is_empty() || shard.spanning.paths.is_empty() {
                removed_by_shard.push(FxHashMap::default());
                continue;
            }
            let removed = shard.spanning.views.remove_deltas(&shard.slice);
            for pid in 0..shard.spanning.paths.len() {
                let touches = shard.spanning.paths[pid]
                    .edges
                    .iter()
                    .any(|e| removed.contains_key(e));
                if !touches {
                    continue;
                }
                let d = delta_path_relation(
                    &shard.spanning.views,
                    &shard.spanning.paths[pid].edges,
                    &removed,
                    None,
                    &mut shard.spanning.row_buf,
                );
                if !d.is_empty() {
                    removed_paths.insert((s, pid), d);
                }
            }
            removed_by_shard.push(removed);
        }

        // Freeze the spanning join's inputs BEFORE committing: the affected
        // queries and the other paths' fulls pinned at the pre-removal
        // generation (queries without a removed path delta cannot report
        // and are skipped).
        let spanning = if removed_paths.is_empty() {
            None
        } else {
            let queries: Vec<(QueryId, Arc<Vec<SpanningPathInfo>>)> = self
                .spanning_queries
                .iter()
                .filter(|sq| {
                    sq.paths
                        .iter()
                        .any(|(s, pid, _)| removed_paths.contains_key(&(*s, *pid)))
                })
                .map(|sq| (sq.query, Arc::clone(&sq.paths)))
                .collect();
            let mut fulls: FxHashMap<(usize, usize), Relation> = FxHashMap::default();
            for (_, paths) in &queries {
                for (s, pid, _) in paths.iter() {
                    let full = self.shards[*s].spanning_full(*pid);
                    let watermark = full.version();
                    if watermark > 0 {
                        fulls
                            .entry((*s, *pid))
                            .or_insert_with(|| full.snapshot_owned(watermark));
                    }
                }
            }
            Some((queries, fulls))
        };

        // Commit: spanning views compact (covers single-edge path fulls,
        // which are the views themselves), then the materialized multi-edge
        // fulls drop their removed rows.
        for (s, removed) in removed_by_shard.iter().enumerate() {
            if !removed.is_empty() {
                self.shards[s].spanning.views.retract_deltas(removed);
            }
        }
        for ((s, pid), d) in &removed_paths {
            let ps = &mut self.shards[*s].spanning.paths[*pid];
            if ps.edges.len() > 1 {
                ps.full.retract_rows(d);
            }
        }

        // Inner engines stage their slices: their commits land here, their
        // disappearing-embedding joins defer into the collected tokens.
        let mut inners: Vec<(usize, StagedBatch)> = Vec::new();
        for s in 0..self.shards.len() {
            if self.shards[s].slice.is_empty() {
                continue;
            }
            let shard = &mut self.shards[s];
            let slice = std::mem::take(&mut shard.slice);
            let token = shard.engine.stage_batch(&slice);
            shard.slice = slice;
            inners.push((s, token));
        }

        StagedShardedRetract {
            inners,
            spanning: spanning.map(|(queries, fulls)| DetachedSpanning {
                queries,
                deltas: removed_paths,
                fulls,
            }),
        }
    }

    /// The deferred answer pass of a staged retraction run: each receiving
    /// shard's inner engine answers its token (reports carry retracted
    /// embeddings; ids translate per shard), the spanning covering-path
    /// join runs over the frozen pre-removal snapshots, and the merged
    /// report feeds the wrapper's retraction counters.
    fn answer_retract_token(&mut self, token: StagedShardedRetract) -> MatchReport {
        let mut counts: Vec<(QueryId, u64)> = Vec::new();
        for (s, inner) in token.inners {
            let report = self.shards[s].engine.answer_staged(inner);
            counts.extend(report.matches.iter().map(|m| {
                (
                    self.shards[s].local_to_global[m.query.index()],
                    m.retracted_embeddings,
                )
            }));
        }
        let spanning_report = token
            .spanning
            .as_ref()
            .map(DetachedSpanning::answer_retract)
            .unwrap_or_default();
        let merged = MatchReport::from_retraction_counts(counts).merge(&spanning_report);
        self.stats.notifications += merged.len() as u64;
        self.stats.retracted += merged.total_retracted();
        merged
    }

    /// The cross-thread form of [`answer_retract_token`]
    /// (`ShardedEngine::answer_retract_token`): inner tokens detach through
    /// their shard's inner engine (retraction tokens are fully frozen
    /// already), the spanning half moves into the task as-is.
    fn detach_retract_token(&mut self, token: StagedShardedRetract) -> DetachedAnswer {
        let inners: Vec<(DetachedAnswer, Arc<Vec<QueryId>>)> = token
            .inners
            .into_iter()
            .map(|(s, inner)| {
                (
                    self.shards[s].engine.detach_staged(inner),
                    Arc::clone(&self.shards[s].local_to_global),
                )
            })
            .collect();
        let spanning = token.spanning;
        DetachedAnswer::task(move || {
            let mut counts: Vec<(QueryId, u64)> = Vec::new();
            for (inner, local_to_global) in inners {
                let report = inner.run();
                counts.extend(
                    report
                        .matches
                        .iter()
                        .map(|m| (local_to_global[m.query.index()], m.retracted_embeddings)),
                );
            }
            let spanning_report = spanning
                .as_ref()
                .map(DetachedSpanning::answer_retract)
                .unwrap_or_default();
            MatchReport::from_retraction_counts(counts).merge(&spanning_report)
        })
    }

    /// Applies one all-retraction run eagerly for `num_shards > 1`,
    /// expressed as stage-then-answer over the very same token the deferred
    /// path issues — equivalence between the two is by construction.
    fn retract_run(&mut self, updates: &[Update]) -> MatchReport {
        let token = self.stage_retract_run(updates);
        self.answer_retract_token(token)
    }
}

impl<E: ContinuousEngine + Send + 'static> ContinuousEngine for ShardedEngine<E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn register_query(&mut self, query: &QueryPattern) -> Result<QueryId> {
        if self.outstanding > 0 {
            return Err(Error::RegistrationWhileStaged(self.outstanding));
        }
        let gqid = QueryId(self.next_id as u32);
        let n = self.shards.len();
        if n == 1 {
            // Degenerate single-shard deployment: plain delegation, local
            // ids coincide with wrapper ids by construction (the inner
            // engine tombstones unregistered slots too).
            let lid = self.shards[0].engine.register_query(query)?;
            debug_assert_eq!(lid, gqid);
            self.num_queries += 1;
            self.next_id += 1;
            return Ok(gqid);
        }

        let paths = covering_paths(query);
        let path_edges: Vec<Vec<GenericEdge>> = paths
            .iter()
            .map(|p| {
                p.edges
                    .iter()
                    .map(|&e| GenericEdge::from_pattern(&query.edges()[e]))
                    .collect()
            })
            .collect();
        let owners: Vec<usize> = path_edges.iter().map(|es| shard_of(&es[0], n)).collect();
        let home: BTreeSet<usize> = owners.iter().copied().collect();

        if home.len() == 1 {
            // Shard-local query: every covering-path root is owned by the
            // same shard, so the whole query (tries, views, joins) lives
            // there.
            let s = *home.iter().next().expect("non-empty home set");
            let shard = &mut self.shards[s];
            let lid = shard.engine.register_query(query)?;
            debug_assert_eq!(lid.index(), shard.local_to_global.len());
            // Registration barriers the pipeline first, so no detached task
            // holds the map and `make_mut` mutates in place.
            Arc::make_mut(&mut shard.local_to_global).push(gqid);
            for es in &path_edges {
                for &e in es {
                    self.route_edge_to(e, s);
                }
            }
            self.query_homes.push(QueryHome::Local {
                shard: s,
                local: lid,
            });
        } else {
            // Spanning query: each covering path becomes a path state on
            // the shard owning its root edge; answering is deferred to the
            // post-merge covering-path join pass.
            let mut sq_paths: Vec<SpanningPathInfo> = Vec::with_capacity(paths.len());
            for (i, p) in paths.iter().enumerate() {
                // Backfill the owner shard's spanning views from the
                // wrapper-level history store *before* the path state's
                // catch-up relation is computed, so a mid-stream spanning
                // query sees the history of edges that previously routed
                // only to other shards (see the module docs). The replay is
                // a deduplicated set-union, hence idempotent for edges the
                // shard already observes.
                for &e in &path_edges[i] {
                    if let Some(h) = self.history.get(&e) {
                        self.shards[owners[i]].spanning.views.backfill_from(e, h);
                    }
                }
                let pid = self.shards[owners[i]].register_spanning_path(&path_edges[i]);
                for &e in &path_edges[i] {
                    self.route_edge_to(e, owners[i]);
                }
                sq_paths.push((owners[i], pid, p.vertex_sequence(query)));
            }
            self.spanning_queries.push(SpanningQuery {
                query: gqid,
                paths: Arc::new(sq_paths),
            });
            self.query_homes.push(QueryHome::Spanning);
        }
        self.num_queries += 1;
        self.next_id += 1;
        Ok(gqid)
    }

    /// Unregisters via the id → home directory: shard-local queries
    /// delegate to their shard's inner engine (whose tombstoning keeps the
    /// `local_to_global` map aligned), spanning queries leave the join pass
    /// and release their shards' path-state references. Routing-index and
    /// history entries stay — an update routed to a shard with no
    /// interested query is absorbed without output, and a later
    /// registration over the same edges reuses the retained history.
    /// Rejected while staged tokens are outstanding, exactly like
    /// registration (the pipelined executor's epoch queue drains first).
    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        if self.outstanding > 0 {
            return Err(Error::RegistrationWhileStaged(self.outstanding));
        }
        if self.shards.len() == 1 {
            let r = self.shards[0].engine.unregister_query(query);
            if r.is_ok() {
                self.num_queries -= 1;
            }
            return r;
        }
        match self.query_homes.get(query.index()) {
            None | Some(QueryHome::Dead) => return Err(Error::UnknownQuery(query.0)),
            Some(&QueryHome::Local { shard, local }) => {
                self.shards[shard].engine.unregister_query(local)?;
            }
            Some(QueryHome::Spanning) => {
                let pos = self
                    .spanning_queries
                    .iter()
                    .position(|sq| sq.query == query)
                    .expect("directory and spanning table agree");
                // Preserve registration order: the answer passes walk this
                // table in order and reports are built query-id ascending.
                let sq = self.spanning_queries.remove(pos);
                for &(shard, pid, _) in sq.paths.iter() {
                    self.shards[shard].release_spanning_path(pid);
                }
            }
        }
        self.query_homes[query.index()] = QueryHome::Dead;
        self.num_queries -= 1;
        Ok(())
    }

    fn next_query_id(&self) -> QueryId {
        if self.shards.len() == 1 {
            return self.shards[0].engine.next_query_id();
        }
        QueryId(self.next_id as u32)
    }

    fn is_registered(&self, query: QueryId) -> bool {
        if self.shards.len() == 1 {
            return self.shards[0].engine.is_registered(query);
        }
        matches!(
            self.query_homes.get(query.index()),
            Some(QueryHome::Local { .. } | QueryHome::Spanning)
        )
    }

    fn apply_update(&mut self, update: Update) -> MatchReport {
        if self.shards.len() == 1 {
            return self.shards[0].engine.apply_update(update);
        }
        if update.is_retraction() {
            return self.retract_run(&[update]);
        }
        let token = self.stage_batch_routed(&[update]);
        self.answer_batch_routed(token)
    }

    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        if self.shards.len() == 1 {
            return self.shards[0].engine.apply_batch(updates);
        }
        // Split into maximal same-sign runs: insert runs take the staged
        // routing path, retraction runs apply eagerly (they compact shared
        // state, so nothing may be deferred across them).
        let mut report = MatchReport::empty();
        for run in sign_runs(updates) {
            let r = if run[0].is_retraction() {
                self.retract_run(run)
            } else {
                let token = self.stage_batch_routed(run);
                self.answer_batch_routed(token)
            };
            report = report.merge(&r);
        }
        report
    }

    /// Routing + per-shard absorption with the merge and spanning join pass
    /// deferred: inner engines stage their slices (in parallel when several
    /// shards are active) and the token freezes every path state's version
    /// watermark. See the staging contract on
    /// [`ContinuousEngine::stage_batch`]. All-retraction runs stage too
    /// (`stage_retract_run`): the commits —
    /// spanning compaction, inner-engine removal — land before this returns,
    /// while the disappearing-embedding joins ride the token over
    /// generation-pinned pre-removal snapshots. Only mixed-sign batches
    /// fall back to an immediate token; callers split with
    /// [`sign_runs`] first.
    fn stage_batch(&mut self, updates: &[Update]) -> StagedBatch {
        let staged = if self.shards.len() == 1 {
            self.shards[0].engine.stage_batch(updates)
        } else {
            let retractions = updates.iter().filter(|u| u.is_retraction()).count();
            if retractions == updates.len() && !updates.is_empty() {
                StagedBatch::deferred(ShardedToken::Retract(self.stage_retract_run(updates)))
            } else if retractions > 0 {
                StagedBatch::immediate(self.apply_batch(updates))
            } else {
                StagedBatch::deferred(ShardedToken::Insert(self.stage_batch_routed(updates)))
            }
        };
        self.outstanding += 1;
        staged
    }

    fn answer_staged(&mut self, staged: StagedBatch) -> MatchReport {
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.shards.len() == 1 {
            return self.shards[0].engine.answer_staged(staged);
        }
        match staged.into_deferred::<ShardedToken>() {
            Ok(ShardedToken::Insert(token)) => self.answer_batch_routed(token),
            Ok(ShardedToken::Retract(token)) => self.answer_retract_token(token),
            Err(report) => report,
        }
    }

    /// Detaches the deferred merge + spanning join pass into a
    /// self-contained task (see the detachment contract on
    /// [`ContinuousEngine::detach_staged`]): inner tokens detach through
    /// their shard's inner engine, and the spanning join captures the staged
    /// deltas plus [`Relation::snapshot_owned`] copies of the fulls at the
    /// staged watermarks (retraction tokens froze theirs at stage time
    /// already and just move into the task).
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.shards.len() == 1 {
            return self.shards[0].engine.detach_staged(staged);
        }
        match staged.into_deferred::<ShardedToken>() {
            Ok(ShardedToken::Insert(token)) => self.detach_batch_routed(token),
            Ok(ShardedToken::Retract(token)) => self.detach_retract_token(token),
            Err(report) => DetachedAnswer::ready(report),
        }
    }

    fn absorb_answered(&mut self, report: &MatchReport) {
        if self.shards.len() == 1 {
            return self.shards[0].engine.absorb_answered(report);
        }
        // Inner engines answered inside the detached task and could not
        // count; in sharded deployments the wrapper's counters are the
        // authoritative ones (see `stats`).
        self.stats.notifications += report.len() as u64;
        self.stats.embeddings += report.total_embeddings();
        self.stats.retracted += report.total_retracted();
    }

    fn num_queries(&self) -> usize {
        self.num_queries
    }

    fn heap_bytes(&self) -> usize {
        self.route_index.heap_size()
            + self.history.heap_size()
            + self
                .shards
                .iter()
                .map(|s| {
                    s.engine.heap_bytes() + s.spanning.heap_size() + s.local_to_global.heap_size()
                })
                .sum::<usize>()
    }

    fn stats(&self) -> EngineStats {
        if self.shards.len() == 1 {
            self.shards[0].engine.stats()
        } else {
            self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::generic::GenTerm;

    fn ge(label: u32) -> GenericEdge {
        GenericEdge {
            label: Sym(label),
            src: GenTerm::Any,
            tgt: GenTerm::Any,
            same_var: false,
        }
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        for n in [1usize, 2, 3, 4, 8, 17] {
            for label in 0..200u32 {
                let s1 = shard_of(&ge(label), n);
                let s2 = shard_of(&ge(label), n);
                assert_eq!(s1, s2);
                assert!(s1 < n);
            }
        }
        assert_eq!(shard_of(&ge(7), 0), 0);
        assert_eq!(shard_of(&ge(7), 1), 0);
    }

    #[test]
    fn shard_assignment_uses_every_shard() {
        // Sanity: over a couple hundred labels, FxHash spreads roots across
        // all shards (a degenerate constant assignment would defeat the
        // point of sharding and silently weaken the differential tests).
        for n in [2usize, 4, 8] {
            let mut seen = vec![false; n];
            for label in 0..200u32 {
                seen[shard_of(&ge(label), n)] = true;
            }
            assert!(seen.iter().all(|&s| s), "{n} shards not all used");
        }
    }

    #[test]
    fn self_loop_and_open_edges_shard_independently() {
        // The same label with and without the same-variable flag are
        // different generic edges and may land on different shards; both
        // must be stable.
        let open = ge(3);
        let mut looped = ge(3);
        looped.same_var = true;
        for n in [2usize, 4, 8] {
            assert_eq!(shard_of(&open, n), shard_of(&open, n));
            assert_eq!(shard_of(&looped, n), shard_of(&looped, n));
        }
    }

    #[test]
    fn path_delta_equals_full_difference() {
        // Two-edge path over labels 0 and 1; stream a few batches and check
        // the documented invariant delta == full_after − full_before.
        let edges = [ge(0), ge(1)];
        let mut views = EdgeViewStore::new();
        for e in &edges {
            views.register(*e);
        }
        let mut full = Relation::new(3);
        let batches: Vec<Vec<Update>> = vec![
            vec![Update::new(Sym(0), Sym(10), Sym(11))],
            vec![
                Update::new(Sym(1), Sym(11), Sym(12)),
                Update::new(Sym(0), Sym(9), Sym(11)),
            ],
            vec![
                Update::new(Sym(1), Sym(11), Sym(13)),
                Update::new(Sym(1), Sym(11), Sym(13)), // duplicate in batch
            ],
        ];
        let mut buf = Vec::new();
        for batch in batches {
            let before = full.to_sorted_vec();
            let deltas = views.apply_batch(&batch);
            let delta = delta_path_relation(&views, &edges, &deltas, None, &mut buf);
            full.extend_from(&delta);
            let after_expected = full_path_relation(&views, &edges, None, &mut buf).to_sorted_vec();
            assert_eq!(full.to_sorted_vec(), after_expected);
            for row in delta.iter() {
                assert!(!before.contains(&row.to_vec()), "delta row not new");
            }
        }
        // Sources {9, 10} reach 11, which reaches targets {12, 13}.
        assert_eq!(full.len(), 4);
    }
}
