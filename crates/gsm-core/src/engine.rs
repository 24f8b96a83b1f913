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

/// The query table every engine and wrapper keeps (the paper's `queryInd`):
/// one slot per [`QueryId`] ever issued, holding what the engine needs to
/// answer and unregister that query.
///
/// This is the one tombstone policy of the workspace. Ids are issued
/// sequentially and **never reused**: [`remove`](QueryTable::remove)
/// empties the slot and keeps it, so the slot count is the next id and a
/// report row names one registration for the table's whole life (see
/// [`ContinuousEngine::unregister_query`]).
#[derive(Debug)]
pub struct QueryTable<T> {
    slots: Vec<Option<T>>,
    live: usize,
}

impl<T> Default for QueryTable<T> {
    fn default() -> Self {
        QueryTable {
            slots: Vec::new(),
            live: 0,
        }
    }
}

impl<T> QueryTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` in a fresh slot and returns its id.
    pub fn insert(&mut self, value: T) -> QueryId {
        let id = self.next_id();
        self.slots.push(Some(value));
        self.live += 1;
        id
    }

    /// Tombstones `id`'s slot and returns what it held, or
    /// [`Error::UnknownQuery`] for an id never issued or already removed.
    pub fn remove(&mut self, id: QueryId) -> Result<T> {
        let value = self
            .slots
            .get_mut(id.index())
            .and_then(Option::take)
            .ok_or(Error::UnknownQuery(id.0))?;
        self.live -= 1;
        Ok(value)
    }

    /// The value of a live id.
    pub fn get(&self, id: QueryId) -> Option<&T> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// The id the next [`insert`](QueryTable::insert) returns: the number
    /// of slots, live and tombstoned.
    pub fn next_id(&self) -> QueryId {
        QueryId(self.slots.len() as u32)
    }

    /// True when `id` was issued and not removed.
    pub fn is_live(&self, id: QueryId) -> bool {
        self.get(id).is_some()
    }

    /// Number of live (not tombstoned) slots.
    pub fn num_live(&self) -> usize {
        self.live
    }
}

impl<T: HeapSize> HeapSize for QueryTable<T> {
    fn heap_size(&self) -> usize {
        self.slots.heap_size()
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
    /// the property tests in `tests/differential/properties.rs` pin this
    /// down.
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
/// [`ContinuousEngine::detach_staged`]): the staged batch's finished
/// report. Every engine answers a batch where it stages it, so the token
/// cannot hold anything else.
#[derive(Debug)]
pub struct StagedBatch(MatchReport);

impl StagedBatch {
    /// Wraps the report computed at stage time.
    pub fn immediate(report: MatchReport) -> Self {
        StagedBatch(report)
    }

    /// The batch's report.
    pub fn into_immediate(self) -> MatchReport {
        self.0
    }
}

/// A staged batch's report, detached from its engine so that it can be
/// handed back on **any thread** — see [`ContinuousEngine::detach_staged`].
///
/// A *ready* answer carries the report; a *task* answer carries a `Send`
/// closure returning it. The engines all detach ready answers: the closure
/// form exists for wrappers that trace, delay or fail the hand-back, and a
/// task only ever forwards a report its engine already computed.
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

    /// Wraps a self-contained answer task. The closure owns what it reads;
    /// it runs at most once, on an arbitrary thread.
    pub fn task(f: impl FnOnce() -> MatchReport + Send + 'static) -> Self {
        DetachedAnswer(DetachedRepr::Task(Box::new(f)))
    }

    /// True if the report was already computed when the answer was detached.
    pub fn is_ready(&self) -> bool {
        matches!(self.0, DetachedRepr::Ready(_))
    }

    /// Runs the task (a no-op for ready answers) and returns the batch's
    /// report.
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
///   identical to the unsharded engine's at every shard count, one shard
///   included, in both per-update and batched replay (pinned by the sharded
///   families of the differential harness, `tests/differential`: 1, 2, 3,
///   4 and 8 shards, and 1, 2, 3 and 8 under the pipeline). That includes
///   queries registered mid-stream: edges new to the query's home shard
///   replay the live edges they admit, whichever shard they streamed to.
pub trait ContinuousEngine {
    /// Short, stable engine name (`"TRIC"`, `"INV+"`, …) used in reports.
    fn name(&self) -> &'static str;

    /// Registers a continuous query and returns its identifier.
    ///
    /// A query registered at time *t* matches against the live graph at
    /// *t*: every edge inserted and not retracted before the call, whether
    /// or not another query used its label. The embeddings the query
    /// already has at *t* are never reported; the next update reports
    /// exactly the embeddings it creates or destroys, as if the query had
    /// been registered before the stream began. Every engine and wrapper in
    /// this workspace keeps this contract, bare or composed.
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
    /// Every engine and the sharded wrapper keep their slots in a
    /// [`QueryTable`], which is where this policy is written: the
    /// `UnknownQuery` check, `next_query_id`, `is_registered` and
    /// `num_queries` are calls into it. `gsm-persist`'s durable log is the
    /// one other record of slots: it keeps a dead slot's pattern, so that
    /// recovery can re-register every slot in order and tombstone the dead
    /// ones again.
    ///
    /// Like [`register_query`](Self::register_query), this may be called
    /// between a [`stage_batch`](Self::stage_batch) and its answer: the
    /// token is the report, so nothing in flight can observe the change. A
    /// live stream that wants the change at a defined cut uses the
    /// pipelined executor's epoch queue
    /// ([`crate::pipeline::PipelinedEngine::queue_unregister`]).
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
    ///
    /// This is the one-update batch: engines implement
    /// [`apply_batch`](Self::apply_batch), and a single update goes through
    /// it like any other batch.
    fn apply_update(&mut self, update: Update) -> MatchReport {
        self.apply_batch(std::slice::from_ref(&update))
    }

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
    /// `notifications` may be lower than under sequential execution.
    /// Differential harnesses should therefore compare reports,
    /// `updates_processed` and `embeddings`, never `notifications`.
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport;

    /// Stages `updates` for the pipelined executor ([`crate::pipeline`]):
    /// applies them and returns the token [`answer_staged`](Self::answer_staged)
    /// or [`detach_staged`](Self::detach_staged) hands back.
    ///
    /// # Staging contract
    ///
    /// **The token is the report.** Every engine answers a batch where it
    /// stages it: routing, propagation, the covering-path join and the view
    /// commit all run before `stage_batch` returns, counters included, so
    /// `stage_batch(N)` then `answer_staged(N)` reports and counts exactly
    /// what `apply_batch(N)` does, and no engine state outlives the call.
    /// Registration, unregistration and checkpoints may therefore run
    /// between a stage and its answer without touching the token.
    ///
    /// A retraction run needs this most: it joins its removed rows against
    /// the pre-removal views, then swap-removes them before returning, so
    /// that the next staged insert of the same edge routes against the
    /// post-removal views instead of being dedup-dropped.
    fn stage_batch(&mut self, updates: &[Update]) -> StagedBatch {
        StagedBatch::immediate(self.apply_batch(updates))
    }

    /// Returns a staged batch's report, on the engine's thread. See the
    /// staging contract on [`stage_batch`](Self::stage_batch).
    fn answer_staged(&mut self, staged: StagedBatch) -> MatchReport {
        staged.into_immediate()
    }

    /// Moves a staged batch's report into a [`DetachedAnswer`] the
    /// pipelined executor's answer workers hand back in stage order — the
    /// cross-thread form of [`answer_staged`](Self::answer_staged).
    ///
    /// # Detachment contract
    ///
    /// A detached task only forwards the report the stage computed: it owns
    /// nothing else and reads no engine state, so tasks may run on any
    /// thread, concurrently and in any order, while the engine stages later
    /// batches. Each task's report is passed back once, in stage order, to
    /// [`absorb_answered`](Self::absorb_answered).
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        DetachedAnswer::ready(self.answer_staged(staged))
    }

    /// Receives a detached task's report back on the engine's thread. The
    /// default is a no-op: the report was counted when it was staged.
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
    fn query_table_tombstones_and_never_reuses_ids() {
        let mut table: QueryTable<&str> = QueryTable::new();
        assert_eq!(table.next_id(), QueryId(0));
        let a = table.insert("a");
        let b = table.insert("b");
        assert_eq!((a, b), (QueryId(0), QueryId(1)));
        assert_eq!(table.num_live(), 2);

        assert_eq!(table.remove(a), Ok("a"));
        assert_eq!(table.num_live(), 1);
        assert!(!table.is_live(a));
        assert!(table.is_live(b));
        assert_eq!(table.get(a), None);
        assert_eq!(table.get(b), Some(&"b"));
        assert_eq!(table.next_id(), QueryId(2), "the slot stays");

        // A dead id and an id never issued are both unknown.
        assert_eq!(table.remove(a), Err(Error::UnknownQuery(0)));
        assert_eq!(table.remove(QueryId(7)), Err(Error::UnknownQuery(7)));
        assert!(!table.is_live(QueryId(7)));
        assert_eq!(table.num_live(), 1);

        assert_eq!(table.insert("c"), QueryId(2), "a fresh id, not slot 0");
        assert_eq!(table.num_live(), 2);
    }

    #[test]
    fn query_table_heap_counts_every_slot() {
        let mut table: QueryTable<Vec<u64>> = QueryTable::new();
        let empty = table.heap_size();
        let id = table.insert(vec![1; 16]);
        let one = table.heap_size();
        assert!(one >= empty + 16 * 8);
        table.remove(id).unwrap();
        assert!(table.heap_size() < one, "a tombstone drops its value");
        assert!(table.heap_size() > 0, "but keeps its slot");
    }

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
    /// Exists purely to exercise the trait's default plumbing.
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
        fn apply_batch(&mut self, updates: &[crate::model::update::Update]) -> MatchReport {
            self.stats.updates_processed += updates.len() as u64;
            let hits = updates
                .iter()
                .filter(|u| u.label.0.is_multiple_of(2))
                .count() as u64;
            let report = MatchReport::from_counts(vec![(QueryId(0), hits)]);
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
    fn default_apply_update_is_a_one_update_batch() {
        let updates = toy_updates();
        let mut single = ToyEngine {
            stats: EngineStats::default(),
        };
        let merged = updates.iter().fold(MatchReport::empty(), |acc, &u| {
            acc.merge(&single.apply_update(u))
        });
        // Labels cycle 0,1,2: the even labels 0 and 2 hit on 7 of 10 updates.
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.matches[0].query, QueryId(0));
        assert_eq!(merged.matches[0].new_embeddings, 7);
        assert_eq!(single.stats().updates_processed, 10);

        let mut batched = ToyEngine {
            stats: EngineStats::default(),
        };
        assert_eq!(merged, batched.apply_batch(&updates));
        assert_eq!(single.stats().embeddings, batched.stats().embeddings);
    }

    #[test]
    fn default_stage_then_answer_equals_apply_batch() {
        let updates = toy_updates();
        let mut split = ToyEngine {
            stats: EngineStats::default(),
        };
        let staged = split.stage_batch(&updates);
        let report = split.answer_staged(staged);

        let mut whole = ToyEngine {
            stats: EngineStats::default(),
        };
        assert_eq!(report, whole.apply_batch(&updates));
        assert_eq!(split.stats(), whole.stats());
    }

    #[test]
    fn staged_batch_token_roundtrips() {
        // The token is the report: wrapping and unwrapping, or detaching
        // through the default path, hands back the same report.
        let report = MatchReport::from_counts(vec![(QueryId(1), 2)]);
        assert_eq!(
            StagedBatch::immediate(report.clone()).into_immediate(),
            report
        );
        let empty = StagedBatch::immediate(MatchReport::empty()).into_immediate();
        assert!(empty.is_empty());
        let mut toy = ToyEngine {
            stats: EngineStats::default(),
        };
        let detached = toy.detach_staged(StagedBatch::immediate(report.clone()));
        assert!(detached.is_ready());
        assert_eq!(detached.run(), report);
        assert_eq!(toy.stats(), EngineStats::default(), "no engine work");
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
        // Stats were already counted at stage time; the report can be
        // handed back on another thread and absorb must not double count.
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
