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
//! executor's answer workers, against owned snapshots of the spanning
//! paths' full relations. Insertion and retraction runs take the same
//! route → absorb → token → merge shape; only the sign of the deltas and
//! the moment the fulls are pinned differ (the `StagedSharded` token).
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
use crate::relation::eval::join_covering_paths;
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
/// be staged while a detached join pass still reads earlier deltas.
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

/// The spanning half of a staged run: the spanning queries with at least
/// one staged path delta, those deltas — rows the paths gained (insertion)
/// or lost (retraction) — and the full relations of the queries' paths the
/// token owns, as [`Relation::snapshot_owned`] pins. A retraction run pins
/// every full **pre-removal** at stage time, before its commit compacts
/// the live state; an insertion run pins nothing until it is detached, and
/// the inline join reads the live fulls instead.
struct SpanningJoin {
    queries: Vec<(QueryId, Arc<Vec<SpanningPathInfo>>)>,
    /// (shard, path-state index) → staged delta.
    deltas: FxHashMap<(usize, usize), Relation>,
    /// (shard, path-state index) → pinned full relation.
    fulls: FxHashMap<(usize, usize), Relation>,
}

/// Downcast target of every deferred token the sharded wrapper issues
/// (`num_shards > 1`; single-shard deployments delegate and re-issue the
/// inner engine's own tokens instead): one same-sign run's inner staged
/// tokens plus its spanning join inputs. The inner engines' and the
/// spanning state's commits already ran at stage time, per the staging
/// contract.
#[derive(Default)]
struct StagedSharded {
    /// The run's sign: true when the deltas hold removed rows.
    retract: bool,
    /// `(shard index, inner staged token)` for every shard the run routed to.
    inners: Vec<(usize, StagedBatch)>,
    spanning: Option<SpanningJoin>,
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
    /// Spanning edge-view rows a retraction run removes here: collected
    /// read-only by [`Shard::absorb`], committed by the wrapper once the
    /// pre-removal fulls are pinned.
    staged_removed: FxHashMap<GenericEdge, Relation>,
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
            staged_removed: FxHashMap::default(),
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
    /// it from `by_key`; the pid slot itself is never reused, so path
    /// descriptors held elsewhere stay aligned.
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

    /// Absorbs this shard's slice of the current same-sign run: the inner
    /// engine **stages** its local queries (routing + propagation + commit,
    /// answer deferred into `staged_inner`), and every spanning path state
    /// owned here computes its delta into `staged_deltas` —
    /// [`delta_path_relation`] seeded with the run's per-edge deltas, which
    /// is `full_after − full_before` over the post-insert views and
    /// `full_before − full_after` over the pre-removal ones. An insertion
    /// appends the deltas right away; a retraction only reads, leaving the
    /// removed view rows in `staged_removed` for the wrapper to commit.
    /// Runs on a worker thread when several shards are active.
    fn absorb(&mut self, retract: bool) {
        self.staged_deltas.clear();
        self.staged_inner = None;
        if self.slice.is_empty() {
            return;
        }
        self.staged_inner = Some(self.engine.stage_batch(&self.slice));
        if self.spanning.paths.is_empty() {
            return;
        }
        let edge_deltas = if retract {
            self.spanning.views.remove_deltas(&self.slice)
        } else {
            self.spanning.views.apply_batch(&self.slice)
        };
        for pid in 0..self.spanning.paths.len() {
            let edges = &self.spanning.paths[pid].edges;
            if !edges.iter().any(|e| edge_deltas.contains_key(e)) {
                continue;
            }
            let delta = delta_path_relation(
                &self.spanning.views,
                edges,
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
            if !retract && ps.edges.len() > 1 {
                ps.full.extend_from(&delta);
            }
            self.staged_deltas.push((pid, delta));
        }
        if retract {
            self.staged_removed = edge_deltas;
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

/// The one merge behind [`ContinuousEngine::answer_staged`] and
/// [`ContinuousEngine::detach_staged`] on the sharded wrapper: folds the
/// shards' inner reports into wrapper ids (reading the run's sign), runs the
/// spanning covering-path join — each affected path's delta against the
/// other paths' full relations, exactly the final answering step the
/// engines run locally (Fig. 8, lines 8–13), lifted across shards — and
/// builds the run's report. Every query is reported by at most one shard
/// or by the spanning join, so one sort-and-fold merges them all. Fulls
/// the token owns are read from it; `live_full` resolves the rest (the
/// shards' live relations inline, nothing in a detached task).
fn merge_run<'a>(
    retract: bool,
    inners: &'a [(MatchReport, Arc<Vec<QueryId>>)],
    spanning: Option<&'a SpanningJoin>,
    live_full: impl Fn(usize, usize) -> Option<&'a Relation>,
) -> MatchReport {
    let mut counts: Vec<(QueryId, u64)> = Vec::new();
    for (report, local_to_global) in inners {
        counts.extend(report.matches.iter().map(|m| {
            let count = if retract {
                m.retracted_embeddings
            } else {
                m.new_embeddings
            };
            (local_to_global[m.query.index()], count)
        }));
    }
    if let Some(join) = spanning {
        counts.extend(join_covering_paths(
            join.queries.iter().map(|(q, paths)| (*q, paths.as_slice())),
            |(_, _, vertices)| vertices.as_slice(),
            |(shard, pid, _)| join.deltas.get(&(*shard, *pid)),
            |(shard, pid, _)| {
                join.fulls
                    .get(&(*shard, *pid))
                    .or_else(|| live_full(*shard, *pid))
            },
        ));
    }
    if retract {
        MatchReport::from_retraction_counts(counts)
    } else {
        MatchReport::from_counts(counts)
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

    /// The staging core for `num_shards > 1`, one same-sign run at a time:
    ///
    /// 1. The wrapper-level history store absorbs the run (mid-stream
    ///    spanning registration must never backfill removed rows).
    /// 2. The run is routed into per-shard slices and the slices are
    ///    absorbed ([`Shard::absorb`]), in parallel when at least two
    ///    shards are active and the run is a real batch: inner engines
    ///    stage (and commit) their local queries, spanning path deltas are
    ///    computed.
    /// 3. The token collects the inner tokens and the spanning join inputs
    ///    of the spanning queries with a staged path delta.
    /// 4. A retraction run then pins those queries' fulls pre-removal
    ///    ([`Relation::snapshot_owned`] — generation-pinned, so the
    ///    compaction cannot move them under a deferred join) and commits
    ///    the spanning views and materialized fulls
    ///    ([`Relation::retract_rows`]). Insertions were appended in step 2.
    fn stage_run(&mut self, run: &[Update]) -> StagedSharded {
        let Some(first) = run.first() else {
            return StagedSharded::default();
        };
        let retract = first.is_retraction();
        self.stats.updates_processed += run.len() as u64;

        // Only mid-stream registration reads the history store, so the
        // per-edge insertion deltas are dropped.
        if retract {
            let removed = self.history.remove_deltas(run);
            self.history.retract_deltas(&removed);
        } else {
            self.history.apply_batch(run);
        }

        self.route_into_slices(run);

        // Absorb. Worker threads only pay off when several shards have real
        // work; single-update calls and single-active-shard batches take the
        // in-place sequential path. The parallel path scatters the shards
        // over the persistent worker pool — each shard (engine, spanning
        // state and routed slice) *moves* into its absorb job and comes back
        // with the gathered results, so the long-lived workers need no
        // scoped borrows. The pool is spawned once, on the first batch that
        // needs it, and reused for the engine's whole life.
        let active = self.shards.iter().filter(|s| !s.slice.is_empty()).count();
        if active >= 2 && run.len() > 1 {
            let threads = self.shards.len().min(WorkerPool::default_threads());
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(threads));
            let jobs: Vec<_> = std::mem::take(&mut self.shards)
                .into_iter()
                .map(|mut shard| {
                    move || {
                        shard.absorb(retract);
                        shard
                    }
                })
                .collect();
            self.shards = pool.scatter(jobs);
        } else {
            for shard in self.shards.iter_mut() {
                shard.absorb(retract);
            }
        }

        // Collect the token. When *no* spanning path changed anywhere — the
        // common case for sparse per-update staging — no spanning query can
        // report and the spanning half stays empty.
        let mut inners: Vec<(usize, StagedBatch)> = Vec::new();
        let mut deltas: FxHashMap<(usize, usize), Relation> = FxHashMap::default();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            inners.extend(shard.staged_inner.take().map(|token| (s, token)));
            deltas.extend(shard.staged_deltas.drain(..).map(|(pid, d)| ((s, pid), d)));
        }
        let mut spanning = (!deltas.is_empty()).then(|| SpanningJoin {
            queries: self
                .spanning_queries
                .iter()
                .filter(|sq| {
                    sq.paths
                        .iter()
                        .any(|(s, pid, _)| deltas.contains_key(&(*s, *pid)))
                })
                .map(|sq| (sq.query, Arc::clone(&sq.paths)))
                .collect(),
            deltas,
            fulls: FxHashMap::default(),
        });

        if retract {
            if let Some(join) = &mut spanning {
                self.pin_fulls(join);
                for ((s, pid), d) in &join.deltas {
                    let ps = &mut self.shards[*s].spanning.paths[*pid];
                    if ps.edges.len() > 1 {
                        ps.full.retract_rows(d);
                    }
                }
            }
            // Covers the single-edge path fulls, which are the views.
            for shard in &mut self.shards {
                let removed = std::mem::take(&mut shard.staged_removed);
                shard.spanning.views.retract_deltas(&removed);
            }
        }

        StagedSharded {
            retract,
            inners,
            spanning,
        }
    }

    /// Pins every full relation `join`'s queries read and the token does
    /// not own yet, at its current length.
    fn pin_fulls(&self, join: &mut SpanningJoin) {
        for (_, paths) in &join.queries {
            for (s, pid, _) in paths.iter() {
                join.fulls.entry((*s, *pid)).or_insert_with(|| {
                    let full = self.shards[*s].spanning_full(*pid);
                    full.snapshot_owned(full.len())
                });
            }
        }
    }

    /// Answers a staged run in place — inner engines answer their tokens,
    /// [`merge_run`] folds them with the spanning join over the live fulls
    /// — leaving the wrapper's counters to whoever consumes the report.
    fn answer_token(&mut self, token: StagedSharded) -> MatchReport {
        let inners: Vec<(MatchReport, Arc<Vec<QueryId>>)> = token
            .inners
            .into_iter()
            .map(|(s, inner)| {
                let shard = &mut self.shards[s];
                (
                    shard.engine.answer_staged(inner),
                    Arc::clone(&shard.local_to_global),
                )
            })
            .collect();
        merge_run(token.retract, &inners, token.spanning.as_ref(), |s, pid| {
            Some(self.shards[s].spanning_full(pid))
        })
    }

    /// Stages and answers every same-sign run of `updates` in place,
    /// uncounted (see [`answer_token`](Self::answer_token)).
    fn answer_runs(&mut self, updates: &[Update]) -> MatchReport {
        sign_runs(updates)
            .map(|run| {
                let token = self.stage_run(run);
                self.answer_token(token)
            })
            .reduce(|merged, report| merged.merge(&report))
            .unwrap_or_default()
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
        self.apply_batch(&[update])
    }

    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        if self.shards.len() == 1 {
            return self.shards[0].engine.apply_batch(updates);
        }
        let report = self.answer_runs(updates);
        self.absorb_answered(&report);
        report
    }

    /// Routing + per-shard absorption + commit of a same-sign run
    /// (`stage_run`) with the merge and spanning join pass deferred into
    /// the token. Mixed-sign batches are answered here, run by run, and
    /// travel as an immediate token whose report is counted when it is
    /// consumed; callers wanting deferral split with [`sign_runs`] first.
    /// See the staging contract on [`ContinuousEngine::stage_batch`].
    fn stage_batch(&mut self, updates: &[Update]) -> StagedBatch {
        let staged = if self.shards.len() == 1 {
            self.shards[0].engine.stage_batch(updates)
        } else {
            let retractions = updates.iter().filter(|u| u.is_retraction()).count();
            if retractions == 0 || retractions == updates.len() {
                StagedBatch::deferred(self.stage_run(updates))
            } else {
                StagedBatch::immediate(self.answer_runs(updates))
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
        let report = match staged.into_deferred::<StagedSharded>() {
            Ok(token) => self.answer_token(token),
            Err(report) => report,
        };
        self.absorb_answered(&report);
        report
    }

    /// Detaches the deferred merge + spanning join pass into a
    /// self-contained task (see the detachment contract on
    /// [`ContinuousEngine::detach_staged`]): inner tokens detach through
    /// their shard's inner engine, the spanning join pins the fulls it does
    /// not own yet ([`Relation::snapshot_owned`] at their current length —
    /// a retraction run pinned its own at stage time), and the task runs
    /// the same `merge_run` as the inline answer.
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        self.outstanding = self.outstanding.saturating_sub(1);
        if self.shards.len() == 1 {
            return self.shards[0].engine.detach_staged(staged);
        }
        let StagedSharded {
            retract,
            inners,
            mut spanning,
        } = match staged.into_deferred::<StagedSharded>() {
            Ok(token) => token,
            Err(report) => return DetachedAnswer::ready(report),
        };
        let inners: Vec<(DetachedAnswer, Arc<Vec<QueryId>>)> = inners
            .into_iter()
            .map(|(s, inner)| {
                let shard = &mut self.shards[s];
                (
                    shard.engine.detach_staged(inner),
                    Arc::clone(&shard.local_to_global),
                )
            })
            .collect();
        if let Some(join) = &mut spanning {
            self.pin_fulls(join);
        }
        DetachedAnswer::task(move || {
            let inners: Vec<(MatchReport, Arc<Vec<QueryId>>)> = inners
                .into_iter()
                .map(|(inner, local_to_global)| (inner.run(), local_to_global))
                .collect();
            merge_run(retract, &inners, spanning.as_ref(), |_, _| None)
        })
    }

    fn absorb_answered(&mut self, report: &MatchReport) {
        if self.shards.len() == 1 {
            return self.shards[0].engine.absorb_answered(report);
        }
        // Inner engines count their own (shard-local) reports; in sharded
        // deployments the wrapper's counters are the authoritative ones
        // (see `stats`).
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
