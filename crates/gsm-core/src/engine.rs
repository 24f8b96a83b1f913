//! The engine abstraction shared by TRIC, TRIC+, the inverted-index
//! baselines and the graph-database baseline.

use crate::error::{Error, Result};
use crate::memory::HeapSize;
use crate::model::update::Update;
use crate::query::pattern::QueryPattern;

/// Identifier assigned to a registered continuous query by an engine.
///
/// Engines assign identifiers sequentially in registration order, so
/// registering the same query set in the same order against two engines
/// yields directly comparable identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u32);

impl QueryId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl HeapSize for QueryId {
    fn heap_size(&self) -> usize {
        0
    }
}

/// A query affected by an update, together with how many embeddings the
/// update created — and, for retraction updates, how many previously
/// reported embeddings disappeared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMatch {
    /// The affected query.
    pub query: QueryId,
    /// Number of distinct new embeddings created by the update.
    pub new_embeddings: u64,
    /// Number of distinct previously existing embeddings destroyed by the
    /// update (always 0 for pure addition batches).
    pub retracted_embeddings: u64,
}

impl QueryMatch {
    /// A pure-addition match entry.
    pub fn new(query: QueryId, new_embeddings: u64) -> Self {
        QueryMatch {
            query,
            new_embeddings,
            retracted_embeddings: 0,
        }
    }

    /// A pure-retraction match entry.
    pub fn retracted(query: QueryId, retracted_embeddings: u64) -> Self {
        QueryMatch {
            query,
            new_embeddings: 0,
            retracted_embeddings,
        }
    }
}

/// The result of applying one update: which continuous queries gained at
/// least one new embedding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MatchReport {
    /// Matches, sorted by query id, at most one entry per query.
    pub matches: Vec<QueryMatch>,
}

impl MatchReport {
    /// An empty report.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a report from (query, count) pairs, merging duplicates and
    /// sorting by query id.
    ///
    /// Implemented as sort-then-fold **by key**: every pair — zero counts
    /// included — folds into its query's accumulated count, and zero-total
    /// queries are dropped in one pass at the end. Folding by key keeps the
    /// merge manifestly independent of where zero-count pairs land in the
    /// sort order, instead of relying on the interplay between an early
    /// zero-skip and `last_mut()` adjacency.
    pub fn from_counts(mut pairs: Vec<(QueryId, u64)>) -> Self {
        pairs.sort_by_key(|(q, _)| *q);
        let mut matches: Vec<QueryMatch> = Vec::new();
        for (query, count) in pairs {
            match matches.last_mut() {
                Some(last) if last.query == query => last.new_embeddings += count,
                _ => matches.push(QueryMatch::new(query, count)),
            }
        }
        matches.retain(|m| m.new_embeddings > 0);
        MatchReport { matches }
    }

    /// Builds a report from pure-**retraction** (query, destroyed count)
    /// pairs — [`from_counts`](MatchReport::from_counts) with the counts
    /// landing on `retracted_embeddings`.
    pub fn from_retraction_counts(mut pairs: Vec<(QueryId, u64)>) -> Self {
        pairs.sort_by_key(|(q, _)| *q);
        let mut matches: Vec<QueryMatch> = Vec::new();
        for (query, count) in pairs {
            match matches.last_mut() {
                Some(last) if last.query == query => last.retracted_embeddings += count,
                _ => matches.push(QueryMatch::retracted(query, count)),
            }
        }
        matches.retain(|m| m.retracted_embeddings > 0);
        MatchReport { matches }
    }

    /// Merges two reports: per-query embedding counts add, and the result is
    /// again sorted with at most one entry per query.
    ///
    /// # Merge contract
    ///
    /// This is the operation the sharded wrapper
    /// ([`crate::shard::ShardedEngine`]) uses to combine per-shard reports,
    /// so it must be — and is, by construction over sorted unique entries
    /// with additive counts — **associative and commutative**, with
    /// [`MatchReport::empty`] as the identity. Shards may therefore be
    /// merged in any order, or any grouping, without changing the result;
    /// the property tests in `tests/property_engines.rs` pin this down.
    pub fn merge(&self, other: &MatchReport) -> MatchReport {
        let mut matches = Vec::with_capacity(self.matches.len() + other.matches.len());
        let (mut i, mut j) = (0, 0);
        while i < self.matches.len() && j < other.matches.len() {
            let (a, b) = (self.matches[i], other.matches[j]);
            match a.query.cmp(&b.query) {
                std::cmp::Ordering::Less => {
                    matches.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    matches.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    matches.push(QueryMatch {
                        query: a.query,
                        new_embeddings: a.new_embeddings + b.new_embeddings,
                        retracted_embeddings: a.retracted_embeddings + b.retracted_embeddings,
                    });
                    i += 1;
                    j += 1;
                }
            }
        }
        matches.extend_from_slice(&self.matches[i..]);
        matches.extend_from_slice(&other.matches[j..]);
        MatchReport { matches }
    }

    /// Queries reported as satisfied, sorted.
    pub fn satisfied_queries(&self) -> Vec<QueryId> {
        self.matches.iter().map(|m| m.query).collect()
    }

    /// True if no query was satisfied.
    pub fn is_empty(&self) -> bool {
        self.matches.is_empty()
    }

    /// Number of satisfied queries.
    pub fn len(&self) -> usize {
        self.matches.len()
    }

    /// Total number of new embeddings across all satisfied queries.
    pub fn total_embeddings(&self) -> u64 {
        self.matches.iter().map(|m| m.new_embeddings).sum()
    }

    /// Total number of retracted embeddings across all affected queries.
    pub fn total_retracted(&self) -> u64 {
        self.matches.iter().map(|m| m.retracted_embeddings).sum()
    }
}

/// The token handed from [`ContinuousEngine::stage_batch`] to
/// [`ContinuousEngine::answer_staged`] (or
/// [`ContinuousEngine::detach_staged`]): a batch whose routing/propagation
/// phase has run but whose final covering-path join (answering) phase may
/// still be pending.
///
/// Engines that do not split their phases produce **immediate** tokens (the
/// report was already computed at stage time) — TRIC/TRIC+, which answer
/// every run right after propagating it, and the baselines. The one in-tree
/// engine that splits — the sharded wrapper — produces **deferred** tokens
/// carrying what its answer phase needs (its inner engines' tokens, merged
/// at answer time). The token is deliberately type-erased (`Box<dyn Any>`)
/// so the trait stays object-safe; an engine only ever downcasts tokens it
/// produced itself.
#[derive(Debug)]
pub struct StagedBatch(StagedRepr);

enum StagedRepr {
    /// Answering already happened at stage time; the report is final.
    Immediate(MatchReport),
    /// Engine-specific deferred-answer state.
    Deferred(Box<dyn std::any::Any + Send>),
}

impl std::fmt::Debug for StagedRepr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StagedRepr::Immediate(r) => f.debug_tuple("Immediate").field(r).finish(),
            StagedRepr::Deferred(_) => f.debug_tuple("Deferred").finish(),
        }
    }
}

impl StagedBatch {
    /// Wraps a report computed eagerly at stage time (the default
    /// implementation's token).
    pub fn immediate(report: MatchReport) -> Self {
        StagedBatch(StagedRepr::Immediate(report))
    }

    /// Wraps engine-specific deferred-answer state. An engine returning
    /// deferred tokens from [`ContinuousEngine::stage_batch`] **must**
    /// override [`ContinuousEngine::answer_staged`] to consume them.
    pub fn deferred<T: std::any::Any + Send>(token: T) -> Self {
        StagedBatch(StagedRepr::Deferred(Box::new(token)))
    }

    /// True if the report was already computed at stage time.
    pub fn is_immediate(&self) -> bool {
        matches!(self.0, StagedRepr::Immediate(_))
    }

    /// Consumes an immediate token. Panics on a deferred token: the engine
    /// that produced it failed to override `answer_staged`.
    pub fn into_immediate(self) -> MatchReport {
        match self.0 {
            StagedRepr::Immediate(report) => report,
            StagedRepr::Deferred(_) => panic!(
                "deferred StagedBatch reached the default answer_staged; \
                 an engine overriding stage_batch must override answer_staged"
            ),
        }
    }

    /// Consumes a deferred token of concrete type `T`, or returns the
    /// immediate report (`Err`) so overriding engines can pass through
    /// tokens produced by the default stage path. Panics if the deferred
    /// token has a different concrete type — tokens must be answered by the
    /// engine that staged them.
    pub fn into_deferred<T: std::any::Any>(self) -> std::result::Result<T, MatchReport> {
        match self.0 {
            StagedRepr::Immediate(report) => Err(report),
            StagedRepr::Deferred(any) => Ok(*any
                .downcast::<T>()
                .expect("StagedBatch answered by an engine that did not stage it")),
        }
    }
}

/// A staged batch's answer pass, detached from its engine: a self-contained
/// task that can run on **any thread** — see
/// [`ContinuousEngine::detach_staged`].
///
/// Detached answers come in two flavours. A *ready* answer carries a report
/// that was already computed (eager engines, empty batches); a *task* answer
/// carries a `Send` closure that owns everything its answer pass needs — for
/// the sharded wrapper, the inner engines' detached answers and the
/// `Arc`-shared id maps the merge reads — so running it never touches the
/// engine. This is what lets the pipelined executor's answer workers finish
/// batch *N* while the engine, on the caller thread, is already staging
/// batch *N + 1*.
pub struct DetachedAnswer(DetachedRepr);

enum DetachedRepr {
    Ready(MatchReport),
    Task(Box<dyn FnOnce() -> MatchReport + Send>),
}

impl std::fmt::Debug for DetachedAnswer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            DetachedRepr::Ready(r) => f.debug_tuple("Ready").field(r).finish(),
            DetachedRepr::Task(_) => f.debug_tuple("Task").finish(),
        }
    }
}

impl DetachedAnswer {
    /// Wraps an already-computed report (nothing left to run).
    pub fn ready(report: MatchReport) -> Self {
        DetachedAnswer(DetachedRepr::Ready(report))
    }

    /// Wraps a self-contained answer task. The closure must own (or share
    /// via `Arc`) every piece of state it reads; it runs at most once, on an
    /// arbitrary thread.
    pub fn task(f: impl FnOnce() -> MatchReport + Send + 'static) -> Self {
        DetachedAnswer(DetachedRepr::Task(Box::new(f)))
    }

    /// True if the report was already computed when the answer was detached.
    pub fn is_ready(&self) -> bool {
        matches!(self.0, DetachedRepr::Ready(_))
    }

    /// Runs the answer pass (a no-op for ready answers) and returns the
    /// batch's report.
    pub fn run(self) -> MatchReport {
        match self.0 {
            DetachedRepr::Ready(report) => report,
            DetachedRepr::Task(f) => f(),
        }
    }
}

/// Cumulative counters every engine keeps; used by the harness for sanity
/// checks and by EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Updates processed so far.
    pub updates_processed: u64,
    /// Total (query, update) notifications emitted.
    pub notifications: u64,
    /// Total new embeddings reported.
    pub embeddings: u64,
    /// Total retracted embeddings reported.
    pub retracted: u64,
}

/// A continuous multi-query engine over graph streams.
///
/// The lifecycle is: register the query database (the paper supports
/// continuous additions, so registration may be interleaved with updates),
/// then feed the update stream one edge addition at a time; each call reports
/// the queries for which the update created new embeddings.
///
/// # Sharding
///
/// Any engine can be partitioned across workers with
/// [`crate::shard::ShardedEngine`]. The contract is:
///
/// * **Ownership is by a query's first root.** Every covering path of a
///   query roots at some generic edge; [`crate::shard::shard_of`]
///   deterministically assigns the root of the query's *first* covering
///   path to exactly one shard, and the whole query — trie nodes, edge
///   views, covering-path joins — lives on that shard's inner engine,
///   which receives every update matching one of the query's generic
///   edges. The wrapper routes, translates query ids and merges reports;
///   it joins nothing itself.
/// * **Reports merge associatively.** Per-shard reports combine with
///   [`MatchReport::merge`]: per-query counts add, and the merge is
///   associative, commutative and order-insensitive, so the final report
///   is independent of shard scheduling.
/// * **Observational equivalence.** The sharded engine's reports are
///   identical to the unsharded engine's at every shard count, in both
///   per-update and batched replay (pinned by the shard-count differential
///   matrix in the test suites). That includes queries registered
///   mid-stream: edges new to the query's home shard replay the history
///   the unsharded engine's shared views would hold, whichever shard it
///   streamed to (the "Late registration" note in [`crate::shard`] names
///   the one same-label corner the replay cannot reach).
pub trait ContinuousEngine {
    /// Short, stable engine name (`"TRIC"`, `"INV+"`, …) used in reports.
    fn name(&self) -> &'static str;

    /// Registers a continuous query and returns its identifier.
    fn register_query(&mut self, query: &QueryPattern) -> Result<QueryId>;

    /// Unregisters a previously registered query: its routing entries are
    /// removed, its index/trie structures are pruned, and it never reports
    /// again. Returns [`Error::UnknownQuery`](crate::error::Error) for ids
    /// never issued or already unregistered.
    ///
    /// # Identifier stability (tombstones)
    ///
    /// [`QueryId`]s are **never reused**: unregistration tombstones the id's
    /// slot, later registrations keep drawing fresh ids
    /// ([`next_query_id`](Self::next_query_id)), and a report row can
    /// therefore always be attributed to exactly one registration for the
    /// engine's whole lifetime — the property the multi-tenant server layer
    /// and the persistence WAL replay rely on.
    /// [`num_queries`](Self::num_queries) counts **live** queries only and
    /// no longer tracks the id space once a query has been unregistered.
    ///
    /// Like [`register_query`](Self::register_query), this must not be
    /// called while staged tokens are outstanding (see the staging contract
    /// on [`stage_batch`](Self::stage_batch)); the pipelined executor drains
    /// its window first, and its epoch queue
    /// ([`crate::pipeline::PipelinedEngine::queue_unregister`]) defers the
    /// call to the next drain boundary automatically.
    ///
    /// The default returns
    /// [`Error::UnsupportedUnregister`](crate::error::Error): toy and
    /// special-purpose engines may opt out; every engine and wrapper in this
    /// workspace overrides it.
    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        let _ = query;
        Err(Error::UnsupportedUnregister(self.name()))
    }

    /// The identifier the **next** successful
    /// [`register_query`](Self::register_query) will return.
    ///
    /// Equal to `QueryId(num_queries())` until the first unregistration;
    /// tombstoning engines override it to return the slot count (live +
    /// tombstoned), since ids are never reused. Wrappers (the pipelined
    /// epoch queue, the server layer) use it to promise ids for queued
    /// registrations before the boundary applies them.
    fn next_query_id(&self) -> QueryId {
        QueryId(self.num_queries() as u32)
    }

    /// True when `query` names a currently registered (live, not
    /// tombstoned) query. The default is exact for engines without
    /// unregistration support, where ids are dense; tombstoning engines
    /// override it.
    fn is_registered(&self, query: QueryId) -> bool {
        query.index() < self.num_queries()
    }

    /// Applies one signed edge update and reports the affected queries: an
    /// addition reports queries that gained embeddings
    /// (`new_embeddings`), a retraction ([`Update::is_retraction`]) reports
    /// queries whose previously reported embeddings disappeared
    /// (`retracted_embeddings`). Retracting an absent edge is a no-op;
    /// every engine must accept both signs here.
    fn apply_update(&mut self, update: Update) -> MatchReport;

    /// Applies a batch of signed edge updates and reports the queries whose
    /// embedding sets changed anywhere in the batch.
    ///
    /// # Batch semantics
    ///
    /// The report is **observationally equivalent** to applying the batch
    /// sequentially with [`apply_update`](Self::apply_update) and merging the
    /// per-update reports with [`MatchReport::from_counts`]: one entry per
    /// satisfied query, whose `new_embeddings` is the number of distinct new
    /// embeddings the whole batch created for that query and whose
    /// `retracted_embeddings` is the number it destroyed. Duplicate updates
    /// inside a batch behave exactly as they would sequentially (the second
    /// occurrence adds nothing), and an insert-then-retract of the same edge
    /// within one batch reports **both** the created and the destroyed
    /// embeddings — they do not cancel. Engines are free to reorder *work*
    /// inside a batch (routing, delta propagation, joins) but not its
    /// outcome.
    ///
    /// Stats granularity: `updates_processed` advances by `updates.len()`,
    /// `embeddings` by the report's total (both identical to sequential
    /// execution), while `notifications` counts one event per *reported
    /// query per `apply_*` call* at the granularity the engine actually
    /// processed — a batched engine notifies a query once per batch, so its
    /// `notifications` may be lower than under sequential execution (the
    /// fold-based default keeps per-update granularity). Differential
    /// harnesses should therefore compare reports, `updates_processed` and
    /// `embeddings`, never `notifications`.
    ///
    /// The default implementation folds [`apply_update`](Self::apply_update);
    /// engines with a cheaper amortized path (TRIC/TRIC+, INV/INC) override
    /// it.
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        let mut report = MatchReport::empty();
        for &u in updates {
            report = report.merge(&self.apply_update(u));
        }
        report
    }

    /// Phase 1 of split batch answering: routing, delta propagation and the
    /// view commit for `updates`, with the final covering-path join (the
    /// answer phase) deferred into the returned token.
    ///
    /// # Staging contract
    ///
    /// Together with [`answer_staged`](Self::answer_staged) and
    /// [`detach_staged`](Self::detach_staged) this is the substrate of the
    /// pipelined executor ([`crate::pipeline`]):
    ///
    /// * `stage_batch(N)` followed by `answer_staged(N)` must report exactly
    ///   what `apply_batch(N)` would have.
    /// * **A token is answered or detached before the next `stage_batch`.**
    ///   The inline answer therefore reads the engine's live views as they
    ///   stand; only a *detached* answer outlives later stages, and it owns
    ///   its inputs (see the detachment contract). Tokens are consumed in
    ///   stage (FIFO) order, each exactly once, by the engine that staged
    ///   them.
    /// * [`register_query`](Self::register_query) and
    ///   [`unregister_query`](Self::unregister_query) must not be called
    ///   while a staged token is outstanding (either may restructure the
    ///   very tries and views the answer joins against); the
    ///   pipelined/sharded wrappers **enforce** the contract by returning
    ///   [`crate::error::Error::RegistrationWhileStaged`] when it is
    ///   violated. Lifecycle calls arriving mid-stream go through the
    ///   pipelined executor's **epoch queue** instead
    ///   ([`crate::pipeline::PipelinedEngine::queue_register`]), which
    ///   applies them at the next drain boundary.
    /// * **Both signs commit at stage time.** An insertion run appends its
    ///   rows to the views. An all-retraction run collects the removed delta
    ///   relations read-only
    ///   ([`crate::views::EdgeViewStore::remove_deltas`]), joins them
    ///   against the pre-removal views, and then performs the destructive
    ///   commit before returning: the removed rows are swap-removed from the
    ///   views (`retract_rows` / `retract_deltas`, O(|Δ|) per view, one
    ///   generation bump each, after which a view's row order is no longer
    ///   insertion order — reports are counts, so nothing observable depends
    ///   on it). The commit *cannot* wait for answer time: the next staged
    ///   insert of a just-retracted edge must route against post-removal
    ///   views, or it would be dedup-dropped and the stream would diverge
    ///   from sequential execution. Every in-tree engine that joins
    ///   therefore answers at stage time; the one that defers, the sharded
    ///   wrapper, defers only the merge of its inner engines' reports.
    /// * `stage_batch` of a **mixed-sign** batch falls back to an immediate
    ///   token (the batch is answered at stage time). Callers wanting
    ///   deferral split first with [`crate::model::update::sign_runs`], as
    ///   the pipelined executor does.
    /// * Stats granularity: `updates_processed` advances at stage time,
    ///   `notifications`/`embeddings`/`retracted` **exactly once per
    ///   token**: a splitting engine counts when the token is consumed — in
    ///   `answer_staged`, or in [`absorb_answered`](Self::absorb_answered)
    ///   after a detachment, its immediate (mixed-sign) tokens included —
    ///   while the eager default counted inside `apply_batch` and pairs
    ///   with a no-op `absorb_answered`.
    ///
    /// The default implementation runs the whole `apply_batch` eagerly and
    /// stores the report in an immediate token, which trivially satisfies
    /// the contract — TRIC/TRIC+, the INV/INC and graph-database baselines
    /// ride it; the one engine with a genuine phase split, the sharded
    /// wrapper, overrides both methods.
    fn stage_batch(&mut self, updates: &[Update]) -> StagedBatch {
        StagedBatch::immediate(self.apply_batch(updates))
    }

    /// Phase 2 of split batch answering: consumes a token produced by
    /// [`stage_batch`](Self::stage_batch) and returns the batch's report.
    /// See the staging contract on `stage_batch`.
    fn answer_staged(&mut self, staged: StagedBatch) -> MatchReport {
        staged.into_immediate()
    }

    /// Converts a staged token into a **self-contained** answer task that
    /// may run on another thread — the cross-thread form of
    /// [`answer_staged`](Self::answer_staged).
    ///
    /// # Detachment contract (`Send`/`Sync` requirements)
    ///
    /// * `detach_staged` itself runs on the engine's thread, before the next
    ///   `stage_batch`; only the returned [`DetachedAnswer`] crosses
    ///   threads, and it is `Send` by construction. An overriding engine
    ///   must capture every input of its answer pass as owned or
    ///   `Send + Sync` shared data — inner reports or detached answers,
    ///   `Arc`-shared read-mostly metadata (id maps, routing maps) — and the
    ///   task must not rely on `&self` or read any live view. Read-mostly
    ///   state should be published copy-on-write rather than deep-copied per
    ///   batch: the engine thread mutates via `Arc::make_mut` (safe because
    ///   registration barriers the pipeline first), so detaching is an `Arc`
    ///   bump.
    /// * Running the tasks of several detached batches **concurrently or in
    ///   any order**, while the engine stages later batches, must produce
    ///   the same per-batch reports as FIFO `answer_staged` calls. Because
    ///   every join ran at stage time, against the views as they stood
    ///   then, no later append or retraction can reach a task.
    /// * Tokens must still each be detached (in stage order, by the engine
    ///   that staged them) exactly once, and every task's report must be
    ///   folded back with [`absorb_answered`](Self::absorb_answered) exactly
    ///   once, from the engine's thread.
    /// * Stats granularity: `updates_processed` advanced at stage time;
    ///   `notifications`/`embeddings`/`retracted` advance in
    ///   `absorb_answered` for detached answers (the task itself cannot
    ///   touch the engine), exactly once per token.
    ///
    /// The default implementation answers **inline** (on this thread, right
    /// now) and returns a ready answer — correct for every engine, with no
    /// cross-thread overlap; the sharded wrapper, the one engine with a
    /// real phase split, overrides it together with `absorb_answered`.
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        DetachedAnswer::ready(self.answer_staged(staged))
    }

    /// Folds the report of a detached answer task back into the engine's
    /// cumulative counters. Must be called exactly once per
    /// [`detach_staged`](Self::detach_staged) token, in stage (FIFO) order,
    /// from the engine's thread.
    ///
    /// The default is a no-op, pairing with the default `detach_staged`
    /// (which answered inline through `answer_staged` and therefore already
    /// counted); engines overriding `detach_staged` with genuinely deferred
    /// tasks override this to advance
    /// `notifications`/`embeddings`/`retracted`.
    fn absorb_answered(&mut self, report: &MatchReport) {
        let _ = report;
    }

    /// Number of registered queries.
    fn num_queries(&self) -> usize;

    /// Estimated heap footprint of all engine state, in bytes.
    fn heap_bytes(&self) -> usize;

    /// Cumulative counters.
    fn stats(&self) -> EngineStats;
}

/// Forwarding implementation so boxed engines (including trait objects such
/// as `Box<dyn ContinuousEngine + Send>`) can be wrapped and sharded like
/// concrete ones. Every method — including the overridable batch entry
/// points — delegates to the boxed engine.
impl<T: ContinuousEngine + ?Sized> ContinuousEngine for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn register_query(&mut self, query: &QueryPattern) -> Result<QueryId> {
        (**self).register_query(query)
    }
    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        (**self).unregister_query(query)
    }
    fn next_query_id(&self) -> QueryId {
        (**self).next_query_id()
    }
    fn is_registered(&self, query: QueryId) -> bool {
        (**self).is_registered(query)
    }
    fn apply_update(&mut self, update: Update) -> MatchReport {
        (**self).apply_update(update)
    }
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        (**self).apply_batch(updates)
    }
    fn stage_batch(&mut self, updates: &[Update]) -> StagedBatch {
        (**self).stage_batch(updates)
    }
    fn answer_staged(&mut self, staged: StagedBatch) -> MatchReport {
        (**self).answer_staged(staged)
    }
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        (**self).detach_staged(staged)
    }
    fn absorb_answered(&mut self, report: &MatchReport) {
        (**self).absorb_answered(report)
    }
    fn num_queries(&self) -> usize {
        (**self).num_queries()
    }
    fn heap_bytes(&self) -> usize {
        (**self).heap_bytes()
    }
    fn stats(&self) -> EngineStats {
        (**self).stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_from_counts_merges_and_sorts() {
        let report = MatchReport::from_counts(vec![
            (QueryId(3), 2),
            (QueryId(1), 1),
            (QueryId(3), 5),
            (QueryId(2), 0),
        ]);
        assert_eq!(report.len(), 2);
        assert_eq!(report.satisfied_queries(), vec![QueryId(1), QueryId(3)]);
        assert_eq!(report.matches[1].new_embeddings, 7);
        assert_eq!(report.total_embeddings(), 8);
    }

    #[test]
    fn empty_report() {
        let r = MatchReport::empty();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.total_embeddings(), 0);
    }

    #[test]
    fn zero_count_pairs_are_dropped() {
        let r = MatchReport::from_counts(vec![(QueryId(0), 0)]);
        assert!(r.is_empty());
    }

    /// A deterministic toy engine: query 0 is "satisfied" by every update
    /// whose label has an even raw symbol, with one embedding per update.
    /// Exists purely to exercise the trait's default batch plumbing.
    struct ToyEngine {
        stats: EngineStats,
    }

    impl ContinuousEngine for ToyEngine {
        fn name(&self) -> &'static str {
            "TOY"
        }
        fn register_query(
            &mut self,
            _query: &crate::query::pattern::QueryPattern,
        ) -> crate::error::Result<QueryId> {
            Ok(QueryId(0))
        }
        fn apply_update(&mut self, update: crate::model::update::Update) -> MatchReport {
            self.stats.updates_processed += 1;
            let report = if update.label.0.is_multiple_of(2) {
                MatchReport::from_counts(vec![(QueryId(0), 1)])
            } else {
                MatchReport::empty()
            };
            self.stats.notifications += report.len() as u64;
            self.stats.embeddings += report.total_embeddings();
            report
        }
        fn num_queries(&self) -> usize {
            1
        }
        fn heap_bytes(&self) -> usize {
            0
        }
        fn stats(&self) -> EngineStats {
            self.stats
        }
    }

    fn toy_updates() -> Vec<crate::model::update::Update> {
        use crate::interner::Sym;
        (0..10u32)
            .map(|i| crate::model::update::Update::new(Sym(i % 3), Sym(i), Sym(i + 1)))
            .collect()
    }

    #[test]
    fn default_apply_batch_merges_sequential_reports() {
        let updates = toy_updates();
        let mut batched = ToyEngine {
            stats: EngineStats::default(),
        };
        let report = batched.apply_batch(&updates);
        // Labels cycle 0,1,2: the even labels 0 and 2 hit on 7 of 10 updates.
        assert_eq!(report.len(), 1);
        assert_eq!(report.matches[0].query, QueryId(0));
        assert_eq!(report.matches[0].new_embeddings, 7);
        assert_eq!(batched.stats().updates_processed, 10);

        let mut empty = ToyEngine {
            stats: EngineStats::default(),
        };
        assert!(empty.apply_batch(&[]).is_empty());
        assert_eq!(empty.stats().updates_processed, 0);
    }

    #[test]
    fn default_stage_then_answer_equals_apply_batch() {
        let updates = toy_updates();
        let mut split = ToyEngine {
            stats: EngineStats::default(),
        };
        let staged = split.stage_batch(&updates);
        assert!(staged.is_immediate());
        let report = split.answer_staged(staged);

        let mut whole = ToyEngine {
            stats: EngineStats::default(),
        };
        assert_eq!(report, whole.apply_batch(&updates));
        assert_eq!(split.stats(), whole.stats());
    }

    #[test]
    fn staged_batch_token_roundtrips() {
        let report = MatchReport::from_counts(vec![(QueryId(1), 2)]);
        assert_eq!(
            StagedBatch::immediate(report.clone()).into_immediate(),
            report
        );
        // An overriding engine passes immediate tokens through as Err.
        assert_eq!(
            StagedBatch::immediate(report.clone()).into_deferred::<u32>(),
            Err(report)
        );
        let token = StagedBatch::deferred(41u32);
        assert!(!token.is_immediate());
        assert_eq!(token.into_deferred::<u32>(), Ok(41));
    }

    #[test]
    #[should_panic(expected = "must override answer_staged")]
    fn deferred_token_in_default_answer_panics() {
        StagedBatch::deferred(()).into_immediate();
    }

    #[test]
    fn default_detach_answers_inline_and_absorb_is_a_noop() {
        let updates = toy_updates();
        let mut split = ToyEngine {
            stats: EngineStats::default(),
        };
        let staged = split.stage_batch(&updates);
        let detached = split.detach_staged(staged);
        assert!(detached.is_ready(), "default detach answers eagerly");
        // Stats were already counted by the inline answer; the report can
        // run on another thread and absorb must not double count.
        let stats_before = split.stats();
        let report = std::thread::spawn(move || detached.run())
            .join()
            .expect("detached answers are Send");
        split.absorb_answered(&report);
        assert_eq!(split.stats(), stats_before);

        let mut whole = ToyEngine {
            stats: EngineStats::default(),
        };
        assert_eq!(report, whole.apply_batch(&updates));
    }

    #[test]
    fn detached_task_runs_once_on_demand() {
        let task = DetachedAnswer::task(|| MatchReport::from_counts(vec![(QueryId(2), 3)]));
        assert!(!task.is_ready());
        assert_eq!(task.run().total_embeddings(), 3);
        let ready = DetachedAnswer::ready(MatchReport::empty());
        assert!(ready.is_ready());
        assert!(ready.run().is_empty());
    }

    #[test]
    fn retraction_counts_merge_without_cancelling() {
        let gained = MatchReport::from_counts(vec![(QueryId(1), 3), (QueryId(2), 1)]);
        let lost = MatchReport::from_retraction_counts(vec![(QueryId(1), 3), (QueryId(3), 2)]);
        assert_eq!(lost.total_embeddings(), 0);
        assert_eq!(lost.total_retracted(), 5);
        assert_eq!(lost.satisfied_queries(), vec![QueryId(1), QueryId(3)]);

        // +3/−3 on query 1 must surface as both counts, not cancel to zero.
        let merged = gained.merge(&lost);
        assert_eq!(merged.len(), 3);
        assert_eq!(
            merged.matches[0],
            QueryMatch {
                query: QueryId(1),
                new_embeddings: 3,
                retracted_embeddings: 3,
            }
        );
        assert_eq!(merged.total_embeddings(), 4);
        assert_eq!(merged.total_retracted(), 5);

        // Zero-count retraction pairs are dropped like their insert twins.
        assert!(MatchReport::from_retraction_counts(vec![(QueryId(0), 0)]).is_empty());
    }

    #[test]
    fn zero_count_pairs_never_split_merges() {
        // Pins the order-robustness of the fold-by-key implementation: one
        // merged entry per query regardless of where zero-count pairs land
        // in the input or the sort order, with zero-total queries dropped.
        let r = MatchReport::from_counts(vec![(QueryId(5), 2), (QueryId(5), 0), (QueryId(5), 3)]);
        assert_eq!(r.len(), 1);
        assert_eq!(r.matches[0].query, QueryId(5));
        assert_eq!(r.matches[0].new_embeddings, 5);

        // Zero pairs of *other* queries interleaved in the input must not
        // split merges either, and must themselves be dropped.
        let r = MatchReport::from_counts(vec![
            (QueryId(2), 1),
            (QueryId(1), 0),
            (QueryId(2), 4),
            (QueryId(3), 0),
            (QueryId(2), 0),
        ]);
        assert_eq!(r.satisfied_queries(), vec![QueryId(2)]);
        assert_eq!(r.matches[0].new_embeddings, 5);
        assert_eq!(r.total_embeddings(), 5);
    }
}
