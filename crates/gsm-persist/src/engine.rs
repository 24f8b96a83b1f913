//! [`PersistentEngine`]: the durability wrapper around any
//! [`ContinuousEngine`].
//!
//! Every externally visible operation is written ahead to the WAL before
//! the in-memory engine sees it: symbol interning ([`PersistentEngine::
//! note_symbols`], one record per call), query registration, and signed
//! update batches ([`PersistentEngine::try_apply_batch`], which the
//! pipelined [`ContinuousEngine::stage_batch`] path goes through too, so a
//! pipelined flush is one record, mixed signs included, and is durable
//! once staged). Durability is group-commit, counted in updates: a stripe
//! fsyncs once [`PersistConfig::group_commit`] updates are unsynced, so
//! with `group_commit > 1` the tail of *acked but unsynced* batches may be
//! lost by a crash — recovery reports the durable resume position
//! ([`RecoveryReport::resume_updates`]) and the caller re-feeds the stream
//! from there.
//!
//! Alongside the inner engine the wrapper maintains the durable shadow
//! state the checkpoint captures: the interner table, registered queries,
//! per-query totals, cumulative stats, and the survivor edge store (the
//! live graph, an [`EdgeViewStore`]). [`PersistentEngine::
//! checkpoint`] encodes all of it, straight from the live state, to a
//! sequence-stamped file and lets recovery skip the WAL prefix. A staged
//! batch is already its report, so a checkpoint may run at any point
//! between calls, automatically ([`PersistConfig::checkpoint_every`]) or
//! by hand.
//!
//! Recovery ([`PersistentEngine::open`]) = highest valid checkpoint + WAL
//! suffix replay. With `wal_stripes > 1` record `seq` lives on stripe
//! `seq % stripes`; replay merges stripes by `seq` and stops at the first
//! gap (a stripe that lost its tail), truncating every stripe back to the
//! last replayed record so the log is consistent again. The rebuilt engine
//! is *report-equivalent* to an uninterrupted run: identical per-query
//! totals, identical future reports.
//!
//! # Error contract
//!
//! Every fallible `try_*` method surfaces storage failures as typed
//! [`Error::Persistence`](gsm_core::error::Error::Persistence) values
//! carrying the storage path and byte offset. After such an error the
//! engine's in-memory state may be ahead of (or behind) the log — the
//! instance must be discarded and re-opened. The infallible
//! [`ContinuousEngine`] methods delegate to the `try_*` forms and **panic**
//! on storage failure (documented on the impl); fallibility-aware callers
//! use the `try_*` API directly.

use std::collections::BTreeSet;

use gsm_core::engine::{ContinuousEngine, EngineStats, MatchReport, QueryId};
use gsm_core::error::Result;
use gsm_core::interner::{Sym, SymbolTable};
use gsm_core::memory::HeapSize;
use gsm_core::model::update::Update;
use gsm_core::query::pattern::QueryPattern;
use gsm_core::views::EdgeViewStore;

use crate::checkpoint::{self, CheckpointData, QueryTotals};
use crate::storage::StorageFactory;
use crate::wal::{self, Wal, WalOp};

/// Tuning knobs for the persistence layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistConfig {
    /// Unsynced **updates** per stripe that trigger an fsync (`1` = sync
    /// every record; larger values trade the unsynced tail for
    /// throughput). A batch record counts its updates, any other record
    /// one, so after every call each stripe holds fewer than this many
    /// unsynced updates.
    pub group_commit: usize,
    /// Automatically checkpoint every this many applied batches
    /// (`0` = manual checkpoints only). Batches staged by a pipelined
    /// executor count too: it stages one batch per flush.
    pub checkpoint_every: u64,
    /// Number of WAL stripes; record `seq` lands on stripe `seq % stripes`.
    /// Pair this with the sharded/pipelined wrappers to keep one log per
    /// worker. Recovery infers the stripe count from the files on disk.
    pub wal_stripes: usize,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            group_commit: 1,
            checkpoint_every: 0,
            wal_stripes: 1,
        }
    }
}

impl PersistConfig {
    /// Sets the group-commit bound, in updates.
    pub fn with_group_commit(mut self, updates: usize) -> Self {
        self.group_commit = updates.max(1);
        self
    }

    /// Sets the auto-checkpoint batch interval (`0` disables).
    pub fn with_checkpoint_every(mut self, batches: u64) -> Self {
        self.checkpoint_every = batches;
        self
    }

    /// Sets the WAL stripe count.
    pub fn with_wal_stripes(mut self, stripes: usize) -> Self {
        self.wal_stripes = stripes.max(1);
        self
    }
}

/// What [`PersistentEngine::open`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence the loaded checkpoint covered through, if one was valid.
    pub checkpoint_seq: Option<u64>,
    /// WAL records replayed after the checkpoint.
    pub replayed_records: usize,
    /// Stream updates re-applied from replayed batch records.
    pub replayed_updates: u64,
    /// Valid-CRC records discarded because a sequence gap (a stripe that
    /// lost its tail) made them unreachable.
    pub discarded_records: usize,
    /// Stripes that were truncated (torn tails and post-gap suffixes).
    pub truncated_stripes: usize,
    /// Durable stream position: total updates the recovered engine has
    /// processed. Callers resume feeding the stream from this offset.
    pub resume_updates: u64,
}

fn wal_name(stripe: usize) -> String {
    format!("wal-{stripe:02}.log")
}

fn parse_wal_name(name: &str) -> Option<usize> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// A [`ContinuousEngine`] wrapper adding write-ahead logging, checkpoints
/// and crash recovery. See the module docs for the full
/// durability and error contract.
pub struct PersistentEngine<E> {
    inner: E,
    factory: Box<dyn StorageFactory>,
    wals: Vec<Wal>,
    config: PersistConfig,
    next_seq: u64,
    symbols: SymbolTable,
    /// One slot per id ever issued, including tombstoned (unregistered)
    /// slots — recovery re-registers every slot in order so later ids keep
    /// their meaning, then unregisters the dead ones.
    queries: Vec<QueryPattern>,
    /// Ids of tombstoned `queries` slots.
    dead: BTreeSet<u32>,
    totals: Vec<QueryTotals>,
    /// The live graph: every edge inserted and not retracted, per label.
    shadow: EdgeViewStore,
    stats: EngineStats,
    batches_since_checkpoint: u64,
    last_checkpoint_seq: Option<u64>,
}

impl<E: ContinuousEngine> PersistentEngine<E> {
    /// Opens (or freshly creates) a persistent engine over `factory`.
    ///
    /// On an empty namespace this is a fresh engine wrapping
    /// `make_engine()`. Otherwise it recovers: loads the highest valid
    /// checkpoint, rebuilds a fresh inner engine (feeding it the survivor
    /// edge store, then re-registering the checkpointed queries in order,
    /// which seed from it), then replays the WAL suffix — merged
    /// across stripes by sequence number, cut at the first gap — and
    /// truncates away torn tails and unreachable post-gap records.
    pub fn open(
        mut factory: Box<dyn StorageFactory>,
        config: PersistConfig,
        make_engine: impl FnOnce() -> E,
    ) -> Result<(Self, RecoveryReport)> {
        let names = factory.list()?;

        // Highest valid checkpoint wins; invalid ones (torn writes) are
        // skipped, not fatal.
        let mut ckpt_seqs: Vec<u64> = names
            .iter()
            .filter_map(|n| checkpoint::parse_file_name(n))
            .collect();
        ckpt_seqs.sort_unstable();
        let mut loaded: Option<CheckpointData> = None;
        for &seq in ckpt_seqs.iter().rev() {
            let mut storage = factory.open(&checkpoint::file_name(seq))?;
            if let Some(data) = checkpoint::read(storage.as_mut())? {
                loaded = Some(data);
                break;
            }
        }

        // Stripe count comes from disk when WAL files exist (the layout is
        // durable); the config only decides the fresh case.
        let disk_stripes = names
            .iter()
            .filter_map(|n| parse_wal_name(n))
            .max()
            .map(|max| max + 1);
        let stripes = disk_stripes.unwrap_or(config.wal_stripes.max(1));

        let mut report = RecoveryReport::default();
        let start_seq = loaded.as_ref().map(|c| c.covered_seq).unwrap_or(0);
        report.checkpoint_seq = loaded.as_ref().map(|c| c.covered_seq);

        // Read every stripe's valid prefix, merge by seq, cut at the first
        // gap, and truncate stripes to exactly the kept records.
        let mut stripe_storages = Vec::with_capacity(stripes);
        let mut stripe_reads = Vec::with_capacity(stripes);
        for i in 0..stripes {
            let mut storage = factory.open(&wal_name(i))?;
            stripe_reads.push(wal::read_records(storage.as_mut())?);
            stripe_storages.push(storage);
        }
        let total_candidates: usize = stripe_reads
            .iter()
            .map(|(records, _)| records.iter().filter(|r| r.seq >= start_seq).count())
            .sum();
        let (merged, cuts) = wal::merge_stripes(stripe_reads, start_seq);
        report.replayed_records = merged.len();
        report.discarded_records = total_candidates - merged.len();
        for (storage, &cut) in stripe_storages.iter_mut().zip(&cuts) {
            if storage.len()? > cut {
                storage.truncate(cut)?;
                report.truncated_stripes += 1;
            }
        }

        // Rebuild the engine: checkpoint state, survivor feed, WAL replay.
        let mut inner = make_engine();
        let (symbols, queries, dead, totals, shadow, stats) = match loaded {
            Some(data) => (
                data.symbols,
                data.queries,
                data.dead_queries,
                data.totals,
                data.shadow,
                data.stats,
            ),
            None => (
                SymbolTable::new(),
                Vec::new(),
                BTreeSet::new(),
                Vec::new(),
                EdgeViewStore::new(),
                EngineStats::default(),
            ),
        };
        // The survivors go in first, to an engine with no query, so the
        // feed answers nothing. Then every slot registers in id order (ids
        // are positional) and matches against that live graph, as it did
        // when it was first registered; the tombstoned ones unregister.
        let survivors: Vec<Update> = shadow
            .labels()
            .into_iter()
            .flat_map(|(label, rel)| {
                rel.iter()
                    .map(move |row| Update::new(label, row[0], row[1]))
            })
            .collect();
        inner.apply_batch(&survivors);
        for query in &queries {
            inner.register_query(query)?;
        }
        for &qid in &dead {
            inner.unregister_query(QueryId(qid))?;
        }

        let mut engine = PersistentEngine {
            inner,
            factory,
            wals: stripe_storages
                .into_iter()
                .map(|s| Wal::new(s, config.group_commit))
                .collect(),
            config,
            next_seq: start_seq + merged.len() as u64,
            symbols,
            queries,
            dead,
            totals,
            shadow,
            stats,
            batches_since_checkpoint: 0,
            last_checkpoint_seq: report.checkpoint_seq,
        };
        for record in merged {
            match record.op {
                WalOp::Intern { name } => {
                    engine.symbols.intern(&name);
                }
                WalOp::InternBatch { names } => {
                    for name in &names {
                        engine.symbols.intern(name);
                    }
                }
                WalOp::Register { pattern } => {
                    engine.inner.register_query(&pattern)?;
                    engine.queries.push(pattern);
                    engine.totals.push(QueryTotals::default());
                }
                WalOp::Batch { updates } => {
                    report.replayed_updates += updates.len() as u64;
                    let batch_report = engine.inner.apply_batch(&updates);
                    engine.absorb_report(&batch_report);
                    engine.stats.updates_processed += updates.len() as u64;
                    engine.shadow.apply(&updates);
                }
                WalOp::Checkpoint { ckpt_seq } => {
                    // Marker only: the checkpoint file itself was already
                    // chosen above. Remember the newest coordinate.
                    if engine.last_checkpoint_seq < Some(ckpt_seq) {
                        engine.last_checkpoint_seq = Some(ckpt_seq);
                    }
                }
                WalOp::Unregister { query } => {
                    engine.inner.unregister_query(query)?;
                    engine.dead.insert(query.0);
                }
            }
        }
        report.resume_updates = engine.stats.updates_processed;
        Ok((engine, report))
    }

    fn wal_append(&mut self, op: WalOp) -> Result<()> {
        let seq = self.next_seq;
        let stripe = (seq % self.wals.len() as u64) as usize;
        self.wals[stripe].append(seq, &op)?;
        self.next_seq += 1;
        Ok(())
    }

    fn sync_wals(&mut self) -> Result<()> {
        for wal in &mut self.wals {
            wal.sync()?;
        }
        Ok(())
    }

    fn absorb_report(&mut self, report: &MatchReport) {
        self.stats.notifications += report.len() as u64;
        self.stats.embeddings += report.total_embeddings();
        self.stats.retracted += report.total_retracted();
        for m in &report.matches {
            if let Some(t) = self.totals.get_mut(m.query.index()) {
                t.embeddings += m.new_embeddings;
                t.retracted += m.retracted_embeddings;
                t.notifications += 1;
            }
        }
    }

    /// Logs (and adopts) every symbol of `table` beyond the durable prefix,
    /// in dense `Sym` order and as one record, so persisted `Sym` ids keep
    /// their meaning across recovery. Call after interning workload symbols
    /// and before persisting operations that reference them.
    pub fn note_symbols(&mut self, table: &SymbolTable) -> Result<()> {
        let new = self.symbols.len()..table.len();
        if !new.is_empty() {
            let names = new
                .clone()
                .map(|i| table.resolve(Sym(i as u32)).to_string());
            self.wal_append(WalOp::InternBatch {
                names: names.collect(),
            })?;
            for i in new {
                self.symbols.intern(table.resolve(Sym(i as u32)));
            }
        }
        Ok(())
    }

    /// Fallible query registration: registers with the inner engine first
    /// (validation), then logs the registration.
    pub fn try_register_query(&mut self, query: &QueryPattern) -> Result<QueryId> {
        let id = self.inner.register_query(query)?;
        debug_assert_eq!(id.index(), self.queries.len());
        self.wal_append(WalOp::Register {
            pattern: query.clone(),
        })?;
        self.queries.push(query.clone());
        self.totals.push(QueryTotals::default());
        Ok(id)
    }

    /// Fallible query unregistration: unregisters with the inner engine
    /// first (validation — unknown or already dead ids fail typed), then
    /// logs the tombstone. The slot's pattern and totals are retained; the
    /// id is never reused.
    pub fn try_unregister_query(&mut self, query: QueryId) -> Result<()> {
        self.inner.unregister_query(query)?;
        self.wal_append(WalOp::Unregister { query })?;
        self.dead.insert(query.0);
        Ok(())
    }

    /// Fallible batch application: the batch is WAL-logged (and group-commit
    /// synced) **before** the inner engine applies it, and an
    /// auto-checkpoint follows when one is due.
    pub fn try_apply_batch(&mut self, updates: &[Update]) -> Result<MatchReport> {
        self.wal_append(WalOp::Batch {
            updates: updates.to_vec(),
        })?;
        let report = self.inner.apply_batch(updates);
        self.stats.updates_processed += updates.len() as u64;
        self.absorb_report(&report);
        self.shadow.apply(updates);
        self.batches_since_checkpoint += 1;
        self.maybe_auto_checkpoint()?;
        Ok(report)
    }

    /// Forces all group-commit debt to durable media. Call at stream end
    /// (or any ack boundary stronger than the group-commit interval).
    pub fn try_sync(&mut self) -> Result<()> {
        self.sync_wals()
    }

    /// Writes a checkpoint covering everything applied so far and returns
    /// the sequence it covers through. The file is encoded straight from
    /// the live state, nothing copied. Keeps the current and previous
    /// checkpoint files, removing older ones.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.sync_wals()?;
        let covered_seq = self.next_seq;
        let bytes = checkpoint::encode(
            covered_seq,
            &self.stats,
            &self.symbols,
            &self.queries,
            &self.dead,
            &self.totals,
            &self.shadow,
        );
        let mut storage = self.factory.open(&checkpoint::file_name(covered_seq))?;
        checkpoint::write(storage.as_mut(), &bytes)?;
        // Coordinated marker: one record, merged into every stripe's replay
        // order by seq, tells readers the snapshot boundary.
        self.wal_append(WalOp::Checkpoint {
            ckpt_seq: covered_seq,
        })?;
        self.sync_wals()?;
        // Retain current + previous; drop older checkpoint files.
        let mut seqs: Vec<u64> = self
            .factory
            .list()?
            .iter()
            .filter_map(|n| checkpoint::parse_file_name(n))
            .collect();
        seqs.sort_unstable();
        if seqs.len() > 2 {
            for &old in &seqs[..seqs.len() - 2] {
                self.factory.remove(&checkpoint::file_name(old))?;
            }
        }
        self.last_checkpoint_seq = Some(covered_seq);
        self.batches_since_checkpoint = 0;
        Ok(covered_seq)
    }

    fn maybe_auto_checkpoint(&mut self) -> Result<()> {
        if self.config.checkpoint_every > 0
            && self.batches_since_checkpoint >= self.config.checkpoint_every
        {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// The durable per-query totals, indexed by [`QueryId`].
    pub fn totals(&self) -> &[QueryTotals] {
        &self.totals
    }

    /// The durable interner table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Sequence number of the next WAL record.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Sequence the newest checkpoint covers through, if any.
    pub fn last_checkpoint_seq(&self) -> Option<u64> {
        self.last_checkpoint_seq
    }

    /// The live configuration.
    pub fn config(&self) -> &PersistConfig {
        &self.config
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps the inner engine, abandoning the persistence handles.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

/// The infallible engine surface. Storage failures in `apply_batch` — and
/// so in `apply_update` and `stage_batch`, which go through it — **panic**
/// (the typed error is in the message); use the `try_*` methods where
/// failures must be handled. `register_query` is fallible by signature and
/// passes persistence errors through. `stats` reports the **durable**
/// counters (what recovery would reproduce), which equal the uninterrupted
/// engine's counters except for `notifications` granularity (counted per
/// batch report here).
impl<E: ContinuousEngine> ContinuousEngine for PersistentEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register_query(&mut self, query: &QueryPattern) -> Result<QueryId> {
        self.try_register_query(query)
    }

    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        self.try_unregister_query(query)
    }

    fn next_query_id(&self) -> QueryId {
        QueryId(self.queries.len() as u32)
    }

    fn is_registered(&self, query: QueryId) -> bool {
        query.index() < self.queries.len() && !self.dead.contains(&query.0)
    }

    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        self.try_apply_batch(updates)
            .expect("persistent WAL append failed; discard and recover the engine")
    }

    fn num_queries(&self) -> usize {
        self.queries.len() - self.dead.len()
    }

    /// The inner engine plus the durable shadow state the wrapper keeps
    /// beside it: the live-edge store, the query slots and their dead set,
    /// the per-query totals and the interner table.
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
            + self.shadow.heap_size()
            + self.queries.heap_size()
            + self.dead.heap_size()
            + self.totals.capacity() * std::mem::size_of::<QueryTotals>()
            + self.symbols.heap_size()
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{FaultPlan, MemFactory};
    use gsm_core::engine::QueryTable;
    use gsm_core::pipeline::{PipelineConfig, PipelinedEngine};
    use std::collections::HashSet;

    /// Deterministic toy engine whose reports are a pure function of the
    /// live edge set: inserting a new edge reports every live query with
    /// `new_embeddings` = live edges sharing the label (after insert);
    /// retracting a live edge reports `retracted_embeddings` = live edges
    /// sharing the label (before removal). Unregistered ids are tombstoned
    /// (never reused) and stop reporting.
    #[derive(Default)]
    struct CountEngine {
        edges: HashSet<(u32, u32, u32)>,
        queries: QueryTable<()>,
        stats: EngineStats,
    }

    impl CountEngine {
        fn live_ids(&self) -> Vec<QueryId> {
            (0..self.queries.next_id().0)
                .map(QueryId)
                .filter(|&q| self.queries.is_live(q))
                .collect()
        }

        fn apply_one(&mut self, update: Update) -> MatchReport {
            let key = (update.label.0, update.src.0, update.tgt.0);
            let label_count = |edges: &HashSet<(u32, u32, u32)>| {
                edges.iter().filter(|e| e.0 == update.label.0).count() as u64
            };
            if update.retract {
                if self.edges.remove(&key) {
                    let n = label_count(&self.edges) + 1;
                    MatchReport::from_retraction_counts(
                        self.live_ids().into_iter().map(|q| (q, n)).collect(),
                    )
                } else {
                    MatchReport::empty()
                }
            } else if self.edges.insert(key) {
                let n = label_count(&self.edges);
                MatchReport::from_counts(self.live_ids().into_iter().map(|q| (q, n)).collect())
            } else {
                MatchReport::empty()
            }
        }
    }

    impl ContinuousEngine for CountEngine {
        fn name(&self) -> &'static str {
            "COUNT"
        }
        fn register_query(&mut self, _query: &QueryPattern) -> Result<QueryId> {
            Ok(self.queries.insert(()))
        }
        fn unregister_query(&mut self, query: QueryId) -> Result<()> {
            self.queries.remove(query)
        }
        fn next_query_id(&self) -> QueryId {
            self.queries.next_id()
        }
        fn is_registered(&self, query: QueryId) -> bool {
            self.queries.is_live(query)
        }
        fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
            self.stats.updates_processed += updates.len() as u64;
            let report = updates.iter().fold(MatchReport::empty(), |acc, &u| {
                acc.merge(&self.apply_one(u))
            });
            self.stats.notifications += report.len() as u64;
            self.stats.embeddings += report.total_embeddings();
            self.stats.retracted += report.total_retracted();
            report
        }
        fn num_queries(&self) -> usize {
            self.queries.num_live()
        }
        fn heap_bytes(&self) -> usize {
            0
        }
        fn stats(&self) -> EngineStats {
            self.stats
        }
    }

    fn two_queries(symbols: &mut SymbolTable) -> Vec<QueryPattern> {
        vec![
            QueryPattern::parse("?x -knows-> ?y", symbols).unwrap(),
            QueryPattern::parse("?x -knows-> ?y; ?y -likes-> ?z", symbols).unwrap(),
        ]
    }

    fn mixed_stream(symbols: &mut SymbolTable) -> Vec<Update> {
        let knows = symbols.intern("knows");
        let likes = symbols.intern("likes");
        let mut stream = Vec::new();
        for i in 0..12u32 {
            let label = if i % 3 == 0 { likes } else { knows };
            stream.push(Update::new(label, Sym(100 + i), Sym(101 + i)));
        }
        // Retract some survivors and one absent edge; reinsert one.
        stream.push(Update::retraction(knows, Sym(101), Sym(102)));
        stream.push(Update::retraction(knows, Sym(999), Sym(998)));
        stream.push(Update::retraction(likes, Sym(100), Sym(101)));
        stream.push(Update::new(knows, Sym(101), Sym(102)));
        stream
    }

    fn open_mem(
        factory: &MemFactory,
        config: PersistConfig,
    ) -> (PersistentEngine<CountEngine>, RecoveryReport) {
        PersistentEngine::open(Box::new(factory.handle()), config, CountEngine::default).unwrap()
    }

    #[test]
    fn crash_and_recover_matches_uninterrupted_run() {
        let mut symbols = SymbolTable::new();
        let queries = two_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols);

        // Uninterrupted oracle.
        let mut oracle = PersistentEngine::open(
            Box::new(MemFactory::new()),
            PersistConfig::default(),
            CountEngine::default,
        )
        .unwrap()
        .0;
        oracle.note_symbols(&symbols).unwrap();
        for q in &queries {
            oracle.try_register_query(q).unwrap();
        }
        for batch in stream.chunks(3) {
            oracle.try_apply_batch(batch).unwrap();
        }

        // Crashing run: apply a prefix, drop the engine ("crash"), recover
        // over the same namespace, finish the stream.
        let disk = MemFactory::new();
        {
            let (mut engine, fresh) = open_mem(&disk, PersistConfig::default());
            assert_eq!(fresh, RecoveryReport::default());
            engine.note_symbols(&symbols).unwrap();
            for q in &queries {
                engine.try_register_query(q).unwrap();
            }
            for batch in stream.chunks(3).take(3) {
                engine.try_apply_batch(batch).unwrap();
            }
            // Dropped here without sync beyond group commit: the crash.
        }
        let (mut recovered, report) = open_mem(&disk, PersistConfig::default());
        assert_eq!(report.resume_updates, 9);
        assert_eq!(report.replayed_updates, 9);
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(recovered.symbols().len(), symbols.len());
        for batch in stream[report.resume_updates as usize..].chunks(3) {
            recovered.try_apply_batch(batch).unwrap();
        }

        assert_eq!(recovered.stats(), oracle.stats());
        assert_eq!(recovered.totals(), oracle.totals());
    }

    #[test]
    fn checkpoint_skips_replay_prefix_and_preserves_totals() {
        let mut symbols = SymbolTable::new();
        let queries = two_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols);

        let disk = MemFactory::new();
        let totals_at_crash;
        {
            let (mut engine, _) = open_mem(&disk, PersistConfig::default());
            engine.note_symbols(&symbols).unwrap();
            for q in &queries {
                engine.try_register_query(q).unwrap();
            }
            for batch in stream.chunks(4).take(2) {
                engine.try_apply_batch(batch).unwrap();
            }
            let seq = engine.checkpoint().unwrap();
            assert_eq!(engine.last_checkpoint_seq(), Some(seq));
            for batch in stream.chunks(4).skip(2) {
                engine.try_apply_batch(batch).unwrap();
            }
            totals_at_crash = engine.totals().to_vec();
        }
        let (recovered, report) = open_mem(&disk, PersistConfig::default());
        assert!(report.checkpoint_seq.is_some());
        assert_eq!(
            report.replayed_updates,
            stream.len() as u64 - 8,
            "only the post-checkpoint suffix replays"
        );
        assert_eq!(report.resume_updates, stream.len() as u64);
        assert_eq!(recovered.totals(), &totals_at_crash[..]);
    }

    #[test]
    fn unregister_replays_from_the_wal_after_a_crash() {
        let mut symbols = SymbolTable::new();
        let queries = two_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols);

        // Both runs use identical batch boundaries (notifications are
        // counted per batch report).
        let run = |engine: &mut PersistentEngine<CountEngine>| {
            engine.note_symbols(&symbols).unwrap();
            for q in &queries {
                engine.try_register_query(q).unwrap();
            }
            engine.try_apply_batch(&stream[..4]).unwrap();
            engine.try_unregister_query(QueryId(0)).unwrap();
            engine.try_apply_batch(&stream[4..8]).unwrap();
        };

        // Uninterrupted oracle over the whole stream.
        let mut oracle = PersistentEngine::open(
            Box::new(MemFactory::new()),
            PersistConfig::default(),
            CountEngine::default,
        )
        .unwrap()
        .0;
        run(&mut oracle);
        oracle.try_apply_batch(&stream[8..]).unwrap();

        // Crash right after the unregister-containing prefix; recover and
        // finish the stream.
        let disk = MemFactory::new();
        {
            let (mut engine, _) = open_mem(&disk, PersistConfig::default());
            run(&mut engine);
        }
        let (mut recovered, report) = open_mem(&disk, PersistConfig::default());
        assert_eq!(report.checkpoint_seq, None);
        assert_eq!(recovered.num_queries(), 1);
        assert!(!recovered.is_registered(QueryId(0)));
        assert!(recovered.is_registered(QueryId(1)));
        recovered.try_apply_batch(&stream[8..]).unwrap();

        assert_eq!(recovered.stats(), oracle.stats());
        assert_eq!(recovered.totals(), oracle.totals());
        // The dead slot's id is never reused: a fresh registration advances
        // past it.
        assert_eq!(recovered.next_query_id(), QueryId(2));
        assert_eq!(
            recovered.try_register_query(&queries[0]).unwrap(),
            QueryId(2)
        );
    }

    #[test]
    fn unregister_survives_a_checkpoint_round_trip() {
        let mut symbols = SymbolTable::new();
        let queries = two_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols);

        let disk = MemFactory::new();
        let totals_at_crash;
        {
            let (mut engine, _) = open_mem(&disk, PersistConfig::default());
            engine.note_symbols(&symbols).unwrap();
            for q in &queries {
                engine.try_register_query(q).unwrap();
            }
            engine.try_apply_batch(&stream[..4]).unwrap();
            engine.try_unregister_query(QueryId(1)).unwrap();
            // The checkpoint captures the tombstone; replay starts after it,
            // so recovery must get the dead set from the checkpoint alone.
            engine.checkpoint().unwrap();
            engine.try_apply_batch(&stream[4..]).unwrap();
            totals_at_crash = engine.totals().to_vec();
        }
        let (recovered, report) = open_mem(&disk, PersistConfig::default());
        assert!(report.checkpoint_seq.is_some());
        assert_eq!(recovered.num_queries(), 1);
        assert!(recovered.is_registered(QueryId(0)));
        assert!(!recovered.is_registered(QueryId(1)));
        assert_eq!(recovered.totals(), &totals_at_crash[..]);
        assert_eq!(recovered.inner().num_queries(), 1);
        // Double-unregister fails typed, before anything hits the WAL.
        let mut recovered = recovered;
        let err = recovered.try_unregister_query(QueryId(1)).unwrap_err();
        assert_eq!(err, gsm_core::error::Error::UnknownQuery(1));
    }

    #[test]
    fn auto_checkpoint_fires_on_batch_interval() {
        let disk = MemFactory::new();
        let mut symbols = SymbolTable::new();
        let stream = mixed_stream(&mut symbols);
        let (mut engine, _) = open_mem(&disk, PersistConfig::default().with_checkpoint_every(2));
        engine.note_symbols(&symbols).unwrap();
        assert_eq!(engine.last_checkpoint_seq(), None);
        for batch in stream.chunks(2).take(4) {
            engine.try_apply_batch(batch).unwrap();
        }
        assert!(engine.last_checkpoint_seq().is_some());
        // Old checkpoints are pruned to current + previous.
        let ckpts = disk
            .handle()
            .list()
            .unwrap()
            .iter()
            .filter(|n| checkpoint::parse_file_name(n).is_some())
            .count();
        assert!(ckpts <= 2, "kept {ckpts} checkpoint files");
    }

    #[test]
    fn staging_fires_the_auto_checkpoint() {
        // The staging entry points a `PipelinedEngine` drives count towards
        // `checkpoint_every` exactly like `try_apply_batch`.
        let mut symbols = SymbolTable::new();
        let queries = two_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols);
        let disk = MemFactory::new();
        let totals_at_crash;
        {
            let (mut engine, _) =
                open_mem(&disk, PersistConfig::default().with_checkpoint_every(2));
            engine.note_symbols(&symbols).unwrap();
            for q in &queries {
                engine.try_register_query(q).unwrap();
            }
            let mut batches = stream.chunks(4);
            let staged = engine.stage_batch(batches.next().unwrap());
            engine.answer_staged(staged);
            assert_eq!(engine.last_checkpoint_seq(), None);
            let staged = engine.stage_batch(batches.next().unwrap());
            let report = engine.detach_staged(staged).run();
            engine.absorb_answered(&report);
            assert!(engine.last_checkpoint_seq().is_some());
            for batch in batches {
                let staged = engine.stage_batch(batch);
                engine.answer_staged(staged);
            }
            totals_at_crash = engine.totals().to_vec();
        }
        let (recovered, report) = open_mem(&disk, PersistConfig::default());
        assert!(report.checkpoint_seq.is_some());
        assert_eq!(report.replayed_updates, 0, "the last checkpoint covers all");
        assert_eq!(report.resume_updates, stream.len() as u64);
        assert_eq!(recovered.totals(), &totals_at_crash[..]);
    }

    #[test]
    fn torn_wal_tail_is_truncated_and_stream_resumes() {
        let mut symbols = SymbolTable::new();
        let stream = mixed_stream(&mut symbols);
        let disk = MemFactory::new();
        {
            let (mut engine, _) = open_mem(&disk, PersistConfig::default());
            engine.note_symbols(&symbols).unwrap();
            for batch in stream.chunks(3) {
                engine.try_apply_batch(batch).unwrap();
            }
        }
        // Tear the last 5 bytes off the WAL: the final batch record dies.
        let raw = disk.raw("wal-00.log").unwrap();
        let torn_len = {
            let mut bytes = raw.lock().unwrap();
            let keep = bytes.len() - 5;
            bytes.truncate(keep);
            keep as u64
        };
        let (recovered, report) = open_mem(&disk, PersistConfig::default());
        assert_eq!(report.truncated_stripes, 1);
        assert_eq!(report.resume_updates, 15, "last 1-update batch was torn");
        assert!(raw.lock().unwrap().len() as u64 <= torn_len);
        // The engine keeps appending cleanly after the cut.
        drop(recovered);
        let (mut recovered, _) = open_mem(&disk, PersistConfig::default());
        recovered.try_apply_batch(&stream[15..]).unwrap();
        assert_eq!(recovered.stats().updates_processed, 16);
    }

    #[test]
    fn striped_wal_gap_discards_unreachable_suffix() {
        let mut symbols = SymbolTable::new();
        let stream = mixed_stream(&mut symbols);
        let disk = MemFactory::new();
        {
            let (mut engine, _) = open_mem(&disk, PersistConfig::default().with_wal_stripes(2));
            engine.note_symbols(&symbols).unwrap();
            for batch in stream.chunks(2) {
                engine.try_apply_batch(batch).unwrap();
            }
        }
        // Tear the tail of stripe 1's last record: the seq gap makes the
        // later record in stripe 0 unreachable too.
        let raw1 = disk.raw("wal-01.log").unwrap();
        {
            let mut bytes = raw1.lock().unwrap();
            let keep = bytes.len() - 5;
            bytes.truncate(keep);
        }
        let (recovered, report) = open_mem(&disk, PersistConfig::default().with_wal_stripes(2));
        assert!(report.discarded_records > 0, "{report:?}");
        assert_eq!(report.truncated_stripes, 2);
        let resume = report.resume_updates as usize;
        assert!(resume < stream.len());
        // Finishing the stream from the resume point matches the oracle.
        let mut oracle = PersistentEngine::open(
            Box::new(MemFactory::new()),
            PersistConfig::default(),
            CountEngine::default,
        )
        .unwrap()
        .0;
        oracle.note_symbols(&symbols).unwrap();
        let mut recovered = recovered;
        for batch in stream[resume..].chunks(2) {
            recovered.try_apply_batch(batch).unwrap();
        }
        for batch in stream.chunks(2) {
            oracle.try_apply_batch(batch).unwrap();
        }
        assert_eq!(recovered.stats(), oracle.stats());
    }

    #[test]
    fn every_public_api_surfaces_typed_persistence_errors() {
        let mut symbols = SymbolTable::new();
        let queries = two_queries(&mut symbols);
        let knows = symbols.get("knows").unwrap();

        let assert_persistence = |err: gsm_core::error::Error, part: &str| match err {
            gsm_core::error::Error::Persistence { path, detail, .. } => {
                assert!(
                    detail.contains(part) || path.contains(part),
                    "path `{path}` detail `{detail}` missing `{part}`"
                );
            }
            other => panic!("expected Error::Persistence, got {other:?}"),
        };

        // Dead WAL: every logging API fails typed.
        let mut disk = MemFactory::new();
        disk.set_fault("wal-00.log", FaultPlan::FailAppendsAfter { at: 0 });
        let (mut engine, _) = open_mem(&disk, PersistConfig::default());
        assert_persistence(engine.note_symbols(&symbols).unwrap_err(), "injected");
        assert_persistence(
            engine.try_register_query(&queries[0]).unwrap_err(),
            "injected",
        );
        let batch = [Update::new(knows, Sym(1), Sym(2))];
        assert_persistence(engine.try_apply_batch(&batch).unwrap_err(), "injected");

        // Failing fsync: group-commit boundary surfaces it.
        let mut disk = MemFactory::new();
        disk.set_fault("wal-00.log", FaultPlan::FailSync);
        let (mut engine, _) = open_mem(&disk, PersistConfig::default());
        assert_persistence(engine.try_apply_batch(&batch).unwrap_err(), "fsync");

        // Checkpoint file write failure: after recovery replays the one
        // batch record and one more batch is applied, the checkpoint will
        // cover through `next_seq + 1` — fault exactly that file.
        let disk = MemFactory::new();
        let (mut engine, _) = open_mem(&disk, PersistConfig::default());
        engine.try_apply_batch(&batch).unwrap();
        let expected_ckpt_seq = engine.next_seq() + 1;
        drop(engine);
        let mut faulty = disk.handle();
        faulty.set_fault(
            &checkpoint::file_name(expected_ckpt_seq),
            FaultPlan::FailAppendsAfter { at: 0 },
        );
        let (mut engine2, _) = open_mem(&faulty, PersistConfig::default());
        engine2.try_apply_batch(&batch).unwrap();
        assert_eq!(engine2.next_seq(), expected_ckpt_seq);
        assert_persistence(engine2.checkpoint().unwrap_err(), "injected");
    }

    #[test]
    fn heap_bytes_counts_the_shadow_state() {
        let mut symbols = SymbolTable::new();
        let queries = two_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols);
        let (mut engine, _) = open_mem(&MemFactory::new(), PersistConfig::default());
        engine.note_symbols(&symbols).unwrap();
        for q in &queries {
            engine.try_register_query(q).unwrap();
        }
        // CountEngine reports no heap of its own, so all of this is the
        // wrapper's: it grows with the live edges it shadows.
        let before = engine.heap_bytes();
        engine.try_apply_batch(&stream[..12]).unwrap();
        assert!(engine.heap_bytes() > before, "{before} did not grow");
        assert!(engine.shadow.heap_size() > 0);
        assert!(engine.heap_bytes() >= engine.shadow.heap_size());

        // Unregistering leaves the slot's pattern in place and adds its id
        // to the dead set, which never shrinks: the footprint grows.
        let before = engine.heap_bytes();
        engine.try_unregister_query(QueryId(0)).unwrap();
        assert!(engine.heap_bytes() > before, "{before} did not grow");
    }

    #[test]
    fn staged_batches_are_durable_at_stage_time() {
        let mut symbols = SymbolTable::new();
        let knows = symbols.intern("knows");
        let disk = MemFactory::new();
        {
            let (mut engine, _) = open_mem(&disk, PersistConfig::default());
            engine.note_symbols(&symbols).unwrap();
            let _staged = engine.stage_batch(&[Update::new(knows, Sym(1), Sym(2))]);
            // The token is already its report, so a checkpoint may capture
            // the batch before it is answered.
            engine.checkpoint().unwrap();
            // Crash with the token still unanswered: recovery restores it.
        }
        let (recovered, report) = open_mem(&disk, PersistConfig::default());
        assert!(report.checkpoint_seq.is_some());
        assert_eq!(report.resume_updates, 1);
        assert_eq!(recovered.stats().updates_processed, 1);
    }

    #[test]
    fn interner_restores_identically_with_permuted_registration_order() {
        // Satellite (c): symbols are checkpointed explicitly, so recovery
        // does not depend on registration order re-interning the same ids.
        // Intern names in one order, register queries in the *reverse*
        // order, checkpoint, recover: every Sym resolves unchanged.
        let mut symbols = SymbolTable::new();
        let names = ["alpha", "beta", "gamma", "delta"];
        for n in &names {
            symbols.intern(n);
        }
        let q_beta = QueryPattern::parse("?x -beta-> ?y", &mut symbols).unwrap();
        let q_alpha = QueryPattern::parse("?x -alpha-> ?y", &mut symbols).unwrap();

        let disk = MemFactory::new();
        {
            let (mut engine, _) = open_mem(&disk, PersistConfig::default());
            engine.note_symbols(&symbols).unwrap();
            // Registration order (beta first) permutes the first-use order
            // of the interned names (alpha first).
            engine.try_register_query(&q_beta).unwrap();
            engine.try_register_query(&q_alpha).unwrap();
            engine.checkpoint().unwrap();
        }
        let (recovered, report) = open_mem(&disk, PersistConfig::default());
        assert!(report.checkpoint_seq.is_some());
        let restored = recovered.symbols();
        assert_eq!(restored.len(), symbols.len());
        for i in 0..symbols.len() {
            let sym = Sym(i as u32);
            assert_eq!(restored.resolve(sym), symbols.resolve(sym), "Sym({i})");
        }
    }

    #[test]
    fn checkpoint_decodes_to_the_engine_state() {
        let mut symbols = SymbolTable::new();
        let queries = two_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols);
        let disk = MemFactory::new();
        let (mut engine, _) = open_mem(&disk, PersistConfig::default());
        engine.note_symbols(&symbols).unwrap();
        for q in &queries {
            engine.try_register_query(q).unwrap();
        }
        engine.try_apply_batch(&stream[..9]).unwrap();
        engine.try_unregister_query(QueryId(0)).unwrap();
        engine.try_apply_batch(&stream[9..]).unwrap();
        let seq = engine.checkpoint().unwrap();

        let mut storage = disk.handle().open(&checkpoint::file_name(seq)).unwrap();
        let data = checkpoint::read(storage.as_mut()).unwrap().expect("valid");
        assert_eq!(data.covered_seq, seq);
        assert_eq!(data.stats, engine.stats());
        assert_eq!(data.symbols.len(), symbols.len());
        for i in 0..symbols.len() {
            let sym = Sym(i as u32);
            assert_eq!(data.symbols.resolve(sym), symbols.resolve(sym), "Sym({i})");
        }
        assert_eq!(data.queries, queries);
        assert_eq!(data.dead_queries, BTreeSet::from([0]));
        assert_eq!(data.totals, engine.totals());
        assert!(!data.shadow.labels().is_empty());
        assert_eq!(data.shadow.labels().len(), engine.shadow.labels().len());
        for ((la, ra), (lb, rb)) in data.shadow.labels().into_iter().zip(engine.shadow.labels()) {
            assert_eq!(la, lb);
            assert_eq!(ra.generation(), rb.generation());
            assert_eq!(ra.to_vec(), rb.to_vec(), "label {la:?}");
        }
    }

    #[test]
    fn recovery_replays_both_intern_record_forms() {
        // A log written before one-record interning holds one kind-1
        // record per name; later `note_symbols` calls append kind-6
        // records. Recovery adopts both, in seq order.
        let mut symbols = SymbolTable::new();
        let queries = two_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols);
        let disk = MemFactory::new();
        {
            let storage = disk.handle().open(&wal_name(0)).unwrap();
            let mut wal = Wal::new(storage, 1);
            for i in 0..symbols.len() {
                let name = symbols.resolve(Sym(i as u32)).to_string();
                wal.append(i as u64, &WalOp::Intern { name }).unwrap();
            }
        }
        let late = symbols.intern("late");
        let later = symbols.intern("later");
        {
            let (mut engine, report) = open_mem(&disk, PersistConfig::default());
            assert_eq!(report.replayed_records, symbols.len() - 2);
            let before = engine.next_seq();
            engine.note_symbols(&symbols).unwrap();
            assert_eq!(engine.next_seq(), before + 1, "two names, one record");
            for q in &queries {
                engine.try_register_query(q).unwrap();
            }
            engine.try_apply_batch(&stream).unwrap();
        }
        let (recovered, report) = open_mem(&disk, PersistConfig::default());
        assert_eq!(report.resume_updates, stream.len() as u64);
        let restored = recovered.symbols();
        assert_eq!(restored.len(), symbols.len());
        for i in 0..symbols.len() {
            let sym = Sym(i as u32);
            assert_eq!(restored.resolve(sym), symbols.resolve(sym), "Sym({i})");
        }
        assert_eq!(restored.resolve(late), "late");
        assert_eq!(restored.resolve(later), "later");
    }

    #[test]
    fn pipelined_mixed_flush_is_one_record() {
        // Behind a pipeline, a flush of eight updates mixing both signs is
        // one WAL record, and recovery reproduces both counts per query.
        let mut symbols = SymbolTable::new();
        let queries = two_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols);
        let flush = &stream[8..];
        assert_eq!(flush.len(), 8);
        assert!(flush.iter().any(Update::is_retraction));
        assert!(flush.iter().any(|u| !u.is_retraction()));

        let disk = MemFactory::new();
        let totals = {
            let (mut engine, _) = open_mem(&disk, PersistConfig::default());
            engine.note_symbols(&symbols).unwrap();
            for q in &queries {
                engine.try_register_query(q).unwrap();
            }
            engine.try_apply_batch(&stream[..8]).unwrap();
            let config = PipelineConfig::new(8, std::time::Duration::from_secs(60));
            let mut pipe = PipelinedEngine::new(engine, config);
            let before = pipe.engine().next_seq();
            let now = std::time::Instant::now();
            let mut done = Vec::new();
            for &u in flush {
                done.extend(pipe.push_at(u, now));
            }
            assert_eq!(done.len(), 1, "one completed batch per flush");
            assert_eq!(done[0].updates, 8);
            assert!(done[0].report.total_embeddings() > 0);
            assert!(done[0].report.total_retracted() > 0);
            assert_eq!(pipe.engine().next_seq(), before + 1, "one record");
            pipe.engine().totals().to_vec()
        };
        assert!(totals.iter().any(|t| t.retracted > 0));
        let (recovered, report) = open_mem(&disk, PersistConfig::default());
        assert_eq!(report.resume_updates, stream.len() as u64);
        assert_eq!(recovered.totals(), &totals[..]);
    }
}
