//! The pipelined streaming executor: a latency-budgeted batcher in front of
//! any [`ContinuousEngine`], optionally handing each batch's report back
//! through worker threads.
//!
//! # One execution path
//!
//! Every flushed batch is staged whole ([`ContinuousEngine::stage_batch`],
//! which answers it) and its report handed back. A flush may mix
//! insertions and retractions; splitting it into same-sign runs is the
//! engines' business, inside `apply_batch`, so one flush is one staged
//! batch and one [`CompletedBatch`]:
//!
//! ```text
//!   push(u) ─▶ DeadlineBatcher ──flush (size │ deadline)──▶ stage_batch
//!                                               inline │        │ threaded
//!                                                      ▼        ▼
//!                                          answer_staged      detach_staged ─▶ answer workers
//!                                                      │        │
//!                                                      ▼        ▼
//!                                  CompletedBatch reports, arrival order
//! ```
//!
//! **Inline** (the default) is the zero-in-flight case: a batch is staged and
//! answered in the same call, so the `push` that fills a batch returns that
//! batch's [`CompletedBatch`]. Reports complete in arrival order, so
//! concatenating (or merging) them reproduces sequential execution exactly;
//! the differential suites in `tests/engine_equivalence.rs` and
//! `tests/concurrent_pipeline.rs` pin this for every engine, workload,
//! flush size and deadline.
//!
//! # Cross-thread hand-back
//!
//! With [`PipelineConfig::answer_thread`] the reports travel through worker
//! threads:
//!
//! ```text
//!   caller thread:   stage(N) ─ stage(N+1) ─ stage(N+2) ─ …
//!                        │detach      │detach      │detach
//!                        ▼            ▼            ▼
//!   answer workers:  report(N)    report(N+1)  report(N+2)   (any order,
//!                        │            │            │          any worker)
//!                        ▼            ▼            ▼
//!   reorder buffer:  CompletedBatch(N), (N+1), (N+2)          (FIFO)
//! ```
//!
//! Each batch is staged on the calling thread, then **detached**
//! ([`ContinuousEngine::detach_staged`]) before the next batch is staged, and
//! the answer stage (a [`WorkerPool`] of [`PipelineConfig::answer_workers`]
//! threads) runs the detached task. Every engine answers a batch where it
//! stages it, so the task only forwards a finished report (see the staging
//! contract on [`ContinuousEngine::stage_batch`]); wrappers may wrap it to
//! trace, delay or fail the hand-back. With more than one worker, tasks run
//! concurrently and may *finish* in any order; every result is tagged with
//! its submission sequence number and a [`ReorderBuffer`] releases reports
//! strictly in arrival order, so the FIFO [`CompletedBatch`] contract holds
//! for any worker count. When more than `answer_workers` batches are in flight
//! the caller blocks on the oldest one, which bounds the window.
//!
//! # The latency budget
//!
//! [`DeadlineBatcher`] flushes a batch when it reaches `max_batch` updates
//! **or** when the oldest buffered update has waited `max_delay`: throughput
//! keeps rising with batch size, so a streaming caller batches as much as
//! its latency budget allows and no more. The executor is deterministic:
//! deadlines are only observed at [`PipelinedEngine::push_at`] /
//! [`PipelinedEngine::poll_at`] calls (there is no timer thread), and every
//! entry point takes an explicit `Instant` so tests can drive a synthetic
//! clock — in threaded mode only *where* a report is handed back changes,
//! never which batches exist or what they report. The batcher forwards
//! the updates it is given and synthesizes none: a windowed stream carries
//! its own expiry retractions.
//!
//! [`WorkerPool`]: crate::pool::WorkerPool

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use crate::engine::{ContinuousEngine, DetachedAnswer, EngineStats, MatchReport, QueryId};
use crate::error::{Error, Result};
use crate::model::update::Update;
use crate::pool::WorkerPool;
use crate::query::pattern::QueryPattern;

/// Configuration of the pipelined executor: the batcher's flush policy plus
/// the answer-stage placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Flush when the buffer reaches this many updates (clamped to ≥ 1).
    pub max_batch: usize,
    /// Flush when the oldest buffered update has waited this long. A delay
    /// `Instant` cannot represent (`Duration::MAX`) means no time-based
    /// flush: only size and [`PipelinedEngine::drain`] flush.
    pub max_delay: Duration,
    /// Hand reports back through dedicated worker threads: each flushed
    /// batch is staged on the calling thread, detached
    /// ([`ContinuousEngine::detach_staged`]) and handed to the answer
    /// stage, whose task forwards the batch's finished report. At most
    /// `answer_workers` batches are in flight (the caller blocks on the
    /// oldest when the window is full — bounded-channel backpressure). False
    /// (the default) completes each batch on the calling thread, in the same
    /// call that staged it.
    pub answer_thread: bool,
    /// Number of answer workers — and the in-flight window — in threaded
    /// mode (clamped to ≥ 1; ignored inline). With several workers,
    /// detached tasks execute concurrently and complete out of
    /// order; a sequence-numbered [`ReorderBuffer`] restores arrival order
    /// before any [`CompletedBatch`] is released, so reports are
    /// byte-identical to the single-worker (and sequential) execution.
    /// Defaults to `GSM_ANSWER_THREADS` (see
    /// [`default_answer_workers`](PipelineConfig::default_answer_workers)).
    pub answer_workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(5),
            answer_thread: false,
            answer_workers: Self::default_answer_workers(),
        }
    }
}

impl PipelineConfig {
    /// A config with the given flush size and deadline, answering inline.
    pub fn new(max_batch: usize, max_delay: Duration) -> Self {
        PipelineConfig {
            max_batch,
            max_delay,
            ..Default::default()
        }
    }

    /// Hands reports back through dedicated worker threads (see
    /// [`PipelineConfig::answer_thread`]).
    pub fn threaded(mut self) -> Self {
        self.answer_thread = true;
        self
    }

    /// Sets the answer-worker count for threaded mode (see
    /// [`PipelineConfig::answer_workers`]); clamped to ≥ 1.
    pub fn with_answer_workers(mut self, workers: usize) -> Self {
        self.answer_workers = workers.max(1);
        self
    }

    /// The default answer-worker count: `GSM_ANSWER_THREADS` when set to a
    /// positive integer, 1 otherwise (CI sets it to run the test suites
    /// with several answer workers). One worker reproduces the pre-existing
    /// dedicated answer-thread behaviour exactly.
    pub fn default_answer_workers() -> usize {
        std::env::var("GSM_ANSWER_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|n| n.max(1))
            .unwrap_or(1)
    }
}

/// The latency-budgeted batcher: accumulates updates and emits a batch when
/// it reaches the size bound **or** the oldest buffered update exceeds the
/// delay bound, whichever comes first. Time is always passed in explicitly,
/// so the flush behaviour is deterministic and testable. A delay too long
/// for `Instant` to represent (`Duration::MAX`, say) disables the time
/// bound: such a batcher flushes on size and on
/// [`flush`](DeadlineBatcher::flush) only.
#[derive(Debug)]
pub struct DeadlineBatcher {
    max_batch: usize,
    max_delay: Duration,
    buffer: Vec<Update>,
    /// Deadline of the oldest buffered update (`None` when empty, or when
    /// that deadline lies beyond `Instant`'s range).
    deadline: Option<Instant>,
}

impl DeadlineBatcher {
    /// Creates an empty batcher; `max_batch` is clamped to at least 1.
    pub fn new(max_batch: usize, max_delay: Duration) -> Self {
        DeadlineBatcher {
            max_batch: max_batch.max(1),
            max_delay,
            buffer: Vec::new(),
            deadline: None,
        }
    }

    /// Number of buffered updates.
    pub fn len(&self) -> usize {
        self.buffer.len()
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buffer.is_empty()
    }

    /// Buffers one update at time `now`, returning the buffer as a batch
    /// when this push filled it or the oldest update's deadline has passed.
    /// No returned batch ever exceeds `max_batch` updates.
    pub fn push(&mut self, update: Update, now: Instant) -> Option<Vec<Update>> {
        if self.buffer.is_empty() {
            self.deadline = now.checked_add(self.max_delay);
        }
        self.buffer.push(update);
        self.poll(now)
    }

    /// Deadline check without a new update: flushes the buffer if it is
    /// full or the oldest buffered update has waited past its deadline.
    pub fn poll(&mut self, now: Instant) -> Option<Vec<Update>> {
        if self.buffer.len() >= self.max_batch || self.deadline.is_some_and(|d| now >= d) {
            self.flush()
        } else {
            None
        }
    }

    /// Unconditionally flushes whatever is buffered.
    pub fn flush(&mut self) -> Option<Vec<Update>> {
        self.deadline = None;
        if self.buffer.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.buffer))
        }
    }
}

/// A sequence-numbered reorder buffer: completions tagged `0, 1, 2, …` are
/// accepted in **any** order and released strictly in sequence order.
///
/// This is what lets the threaded answer stage run [`PipelineConfig::
/// answer_workers`] concurrent answer tasks while preserving the FIFO
/// [`CompletedBatch`] contract: each detached task is tagged with its
/// submission sequence number, finished results park here, and
/// [`pop_next`](ReorderBuffer::pop_next) only ever yields the oldest
/// outstanding sequence number. The type is deliberately public (and
/// generic) so its ordering contract can be property-tested in isolation.
#[derive(Debug, Default)]
pub struct ReorderBuffer<T> {
    /// The next sequence number to release.
    next: u64,
    /// Completed-but-not-yet-oldest values, keyed by sequence number.
    parked: std::collections::BTreeMap<u64, T>,
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer expecting sequence number 0 first.
    pub fn new() -> Self {
        ReorderBuffer {
            next: 0,
            parked: std::collections::BTreeMap::new(),
        }
    }

    /// Parks one completion. `seq` must not have been released or parked
    /// before (every sequence number completes exactly once).
    pub fn insert(&mut self, seq: u64, value: T) {
        debug_assert!(seq >= self.next, "sequence {seq} already released");
        let prev = self.parked.insert(seq, value);
        debug_assert!(prev.is_none(), "sequence {seq} completed twice");
    }

    /// Releases the value with the oldest outstanding sequence number, or
    /// `None` if that sequence number has not completed yet (younger parked
    /// values keep waiting — out-of-order release never happens).
    pub fn pop_next(&mut self) -> Option<T> {
        let value = self.parked.remove(&self.next)?;
        self.next += 1;
        Some(value)
    }

    /// The sequence number the next [`pop_next`](ReorderBuffer::pop_next)
    /// will release.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Number of parked (completed but unreleased) values.
    pub fn len(&self) -> usize {
        self.parked.len()
    }

    /// True if nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.parked.is_empty()
    }
}

/// A batch whose report completed: the number of updates it covered (in
/// stream order) and its [`MatchReport`]. Batches complete strictly in
/// arrival order, so concatenating `CompletedBatch`es reconstructs the
/// stream segmentation the executor chose: the batcher's flush points, one
/// batch per flush, whatever signs the flush mixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedBatch {
    /// Number of stream updates this batch covered.
    pub updates: usize,
    /// The batch's report — identical to `apply_batch` over those updates.
    pub report: MatchReport,
}

/// A queued dynamic-lifecycle operation, held until the next epoch
/// boundary (see [`PipelinedEngine::queue_register`]).
#[derive(Debug)]
enum LifecycleOp {
    /// Register this pattern; it was promised the attached id at queue time.
    Register(QueryPattern, QueryId),
    /// Unregister this id.
    Unregister(QueryId),
}

/// The pipelined streaming executor: a [`DeadlineBatcher`] feeding an
/// engine's [`stage_batch`](ContinuousEngine::stage_batch), whose reports
/// come back inline or — detached — through the answer workers (see the
/// [module docs](self)).
///
/// The wrapper is itself a [`ContinuousEngine`]: the trait entry points
/// barrier first (flush the batcher, collect every in-flight answer) and
/// then behave exactly like the inner engine, so the executor can be
/// dropped into any harness. Reports produced by the barrier are retained
/// and returned by the next
/// [`take_completed`](PipelinedEngine::take_completed) /
/// [`push`](PipelinedEngine::push) / [`drain`](PipelinedEngine::drain) call
/// — nothing is ever silently discarded.
///
/// # Dynamic query lifecycle (epochs)
///
/// A live stream cannot barrier for every subscription change, so the
/// executor also offers a **queued** lifecycle:
/// [`queue_register`](PipelinedEngine::queue_register) /
/// [`queue_unregister`](PipelinedEngine::queue_unregister) validate and
/// enqueue the operation immediately (no barrier) and apply it at the next
/// **epoch boundary** — the point where the pipeline drains anyway
/// ([`drain`](PipelinedEngine::drain) or any trait entry point's barrier).
/// Every boundary increments [`epoch`](PipelinedEngine::epoch); a query
/// queued in epoch *e* observes exactly the updates streamed after the
/// boundary that opened epoch *e + 1* — never a partial batch.
#[derive(Debug)]
pub struct PipelinedEngine<E> {
    engine: E,
    batcher: DeadlineBatcher,
    /// Queued lifecycle operations, applied in queue order at the next
    /// epoch boundary.
    pending_ops: Vec<LifecycleOp>,
    /// Number of [`LifecycleOp::Register`] entries in `pending_ops`: the
    /// offset of the next promised id past the inner engine's next slot.
    queued_registrations: u32,
    /// Number of epoch boundaries passed (monotone; one per barrier).
    epoch: u64,
    /// The answer workers and their in-flight window (`Some` iff
    /// [`PipelineConfig::answer_thread`]).
    answer: Option<AnswerStage>,
    /// Answered batches not yet handed to the caller, arrival order.
    completed: Vec<CompletedBatch>,
}

/// The cross-thread answer stage: a persistent [`WorkerPool`] of
/// [`PipelineConfig::answer_workers`] threads executing detached answer
/// tasks, plus the FIFO bookkeeping that keeps [`CompletedBatch`]es in
/// arrival order. Tasks are dequeued in submission order but, with several
/// workers, may *finish* in any order; every result returns over `results` tagged with its
/// submission sequence number and parks in the [`ReorderBuffer`] until it
/// is the oldest outstanding one. The caller thread submits
/// `(detach → execute)` per staged batch; blocking on the oldest report
/// when more than `workers` batches are pending is what bounds the
/// in-flight tokens.
#[derive(Debug)]
struct AnswerStage {
    results_tx: Sender<(u64, std::thread::Result<MatchReport>)>,
    results_rx: Receiver<(u64, std::thread::Result<MatchReport>)>,
    /// Update counts of submitted, not-yet-collected batches (FIFO).
    pending: VecDeque<usize>,
    /// Sequence number of the next submission.
    next_seq: u64,
    /// Out-of-order completions awaiting their FIFO turn. A caught panic
    /// parks here like any result and is re-raised only at its own FIFO
    /// position, so reports of earlier batches are never lost to a later
    /// batch's failure.
    reorder: ReorderBuffer<std::thread::Result<MatchReport>>,
    /// The answer workers. Declared last: dropped after the result channel,
    /// once every queued task has drained.
    pool: WorkerPool,
}

impl AnswerStage {
    fn new(workers: usize) -> Self {
        let (results_tx, results_rx) = channel();
        AnswerStage {
            results_tx,
            results_rx,
            pending: VecDeque::new(),
            next_seq: 0,
            reorder: ReorderBuffer::new(),
            pool: WorkerPool::new(workers.max(1)),
        }
    }

    /// Number of answer workers.
    fn workers(&self) -> usize {
        self.pool.threads()
    }

    /// Submits one detached answer task for execution on the answer workers.
    /// Panics inside the task are caught and shipped back as the result, so
    /// the worker survives and the caller re-raises the panic on its own
    /// thread when it collects the answer — a buggy join pass fails the
    /// test/run instead of deadlocking the executor against a dead worker.
    fn submit(&mut self, updates: usize, task: DetachedAnswer) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let tx = self.results_tx.clone();
        self.pool.execute(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.run()));
            // The receiver only hangs up when the executor is being torn
            // down; the result is then intentionally discarded.
            let _ = tx.send((seq, result));
        });
        self.pending.push_back(updates);
    }

    /// Parks every result already sitting in the channel, then releases the
    /// oldest outstanding one if it has completed (non-blocking).
    fn try_collect(&mut self) -> Option<std::thread::Result<MatchReport>> {
        while let Ok((seq, result)) = self.results_rx.try_recv() {
            self.reorder.insert(seq, result);
        }
        self.reorder.pop_next()
    }

    /// Blocks until the oldest outstanding result has completed and releases
    /// it. Must only be called with at least one pending submission.
    fn collect_blocking(&mut self) -> std::thread::Result<MatchReport> {
        loop {
            if let Some(result) = self.reorder.pop_next() {
                return result;
            }
            let (seq, result) = self
                .results_rx
                .recv()
                .expect("answer workers outlive the executor");
            self.reorder.insert(seq, result);
        }
    }
}

/// Drain-on-drop: dropping the executor mid-stream with detached answer
/// tasks outstanding blocks for each of them and **re-raises the first
/// worker panic** on the dropping thread — an in-flight join-pass failure
/// is never silently lost to teardown. Successful reports are discarded
/// (the wrapper they would complete through is going away); call
/// [`PipelinedEngine::drain`] before dropping if they matter. When the
/// thread is already unwinding, pending panics are swallowed instead of
/// aborting the process with a double panic.
impl Drop for AnswerStage {
    fn drop(&mut self) {
        while !self.pending.is_empty() {
            let result = self.collect_blocking();
            self.pending.pop_front();
            if let Err(payload) = result {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

impl<E: ContinuousEngine> PipelinedEngine<E> {
    /// Wraps `engine` behind a pipelined front end.
    pub fn new(engine: E, config: PipelineConfig) -> Self {
        PipelinedEngine {
            engine,
            batcher: DeadlineBatcher::new(config.max_batch, config.max_delay),
            pending_ops: Vec::new(),
            queued_registrations: 0,
            epoch: 0,
            answer: config
                .answer_thread
                .then(|| AnswerStage::new(config.answer_workers)),
            completed: Vec::new(),
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Unwraps the engine. Buffered updates and in-flight answers are
    /// completed first so no staged state is abandoned; any resulting
    /// reports are dropped with the wrapper, so call [`drain`](Self::drain)
    /// first if they matter.
    pub fn into_inner(mut self) -> E {
        self.barrier();
        self.engine
    }

    /// Number of staged batches whose answer has not been collected yet
    /// (always 0 inline: a batch is answered in the call that staged it).
    pub fn in_flight(&self) -> usize {
        self.answer.as_ref().map_or(0, |a| a.pending.len())
    }

    /// True if reports are handed back through the answer workers.
    pub fn is_threaded(&self) -> bool {
        self.answer.is_some()
    }

    /// Number of updates buffered by the batcher (not yet staged).
    pub fn buffered(&self) -> usize {
        self.batcher.len()
    }

    /// Number of epoch boundaries passed so far. Every pipeline barrier —
    /// [`drain`](PipelinedEngine::drain), or any trait entry point — closes
    /// the current epoch (applying queued lifecycle operations) and opens
    /// the next.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of queued lifecycle operations awaiting the next epoch
    /// boundary.
    pub fn pending_lifecycle(&self) -> usize {
        self.pending_ops.len()
    }

    /// Queues a query registration for the next epoch boundary and returns
    /// the id the query **will** get when it applies. Unlike the trait's
    /// [`register_query`](ContinuousEngine::register_query) this does not
    /// barrier: the operation waits for the next boundary. The id is
    /// authoritative — queued registrations apply in queue order before
    /// any other registration path can run (every such path barriers
    /// first, which applies the queue) — but the query matches nothing
    /// until the boundary: updates
    /// pushed before the boundary are answered under the old epoch's query
    /// set.
    pub fn queue_register(&mut self, query: &QueryPattern) -> QueryId {
        let promised = QueryId(self.engine.next_query_id().0 + self.queued_registrations);
        self.queued_registrations += 1;
        self.pending_ops
            .push(LifecycleOp::Register(query.clone(), promised));
        promised
    }

    /// Queues an unregistration for the next epoch boundary. The id is
    /// validated now — it must name a query that is currently registered
    /// (or queued to register) and not already queued to unregister —
    /// and the query keeps reporting until the boundary applies the
    /// operation.
    pub fn queue_unregister(&mut self, query: QueryId) -> Result<()> {
        let mut live_at_boundary = self.engine.is_registered(query);
        for op in &self.pending_ops {
            match op {
                LifecycleOp::Register(_, promised) if *promised == query => {
                    live_at_boundary = true;
                }
                LifecycleOp::Unregister(q) if *q == query => {
                    live_at_boundary = false;
                }
                _ => {}
            }
        }
        if !live_at_boundary {
            return Err(Error::UnknownQuery(query.0));
        }
        self.pending_ops.push(LifecycleOp::Unregister(query));
        Ok(())
    }

    /// Applies every queued lifecycle operation, in queue order. Called at
    /// the epoch boundary, after the window has drained; ids were validated
    /// at queue time, so any remaining failure (e.g. a persistence-layer
    /// storage error) panics like the infallible trait surface does.
    fn apply_pending_ops(&mut self) {
        self.queued_registrations = 0;
        for op in std::mem::take(&mut self.pending_ops) {
            match op {
                LifecycleOp::Register(pattern, promised) => {
                    let id = self
                        .engine
                        .register_query(&pattern)
                        .expect("queued registration failed at the epoch boundary");
                    debug_assert_eq!(id, promised, "promised id diverged");
                }
                LifecycleOp::Unregister(query) => {
                    self.engine
                        .unregister_query(query)
                        .expect("queued unregistration failed at the epoch boundary");
                }
            }
        }
    }

    /// Streams one update at the current wall-clock time. Returns the
    /// batches that completed as a result (often none — inline, a batch
    /// completes in the push that flushes it; threaded, when its answer
    /// has been collected).
    pub fn push(&mut self, update: Update) -> Vec<CompletedBatch> {
        self.push_at(update, Instant::now())
    }

    /// Streams one update at an explicit time `now` (deterministic variant
    /// of [`push`](Self::push) for tests and replay harnesses).
    pub fn push_at(&mut self, update: Update, now: Instant) -> Vec<CompletedBatch> {
        if let Some(batch) = self.batcher.push(update, now) {
            self.stage(batch);
        }
        self.advance();
        self.take_completed()
    }

    /// Observes the clock without a new update: flushes the buffered batch
    /// if its deadline has passed and returns any batches that completed.
    /// Call this from idle loops — the executor has no timer thread.
    pub fn poll_at(&mut self, now: Instant) -> Vec<CompletedBatch> {
        if let Some(batch) = self.batcher.poll(now) {
            self.stage(batch);
        }
        self.advance();
        self.take_completed()
    }

    /// Flushes the buffer and collects every in-flight answer: the pipeline
    /// barrier. Returns all completed batches, in arrival order.
    pub fn drain(&mut self) -> Vec<CompletedBatch> {
        self.barrier();
        self.take_completed()
    }

    /// Completed batches accumulated since the last call, arrival order.
    pub fn take_completed(&mut self) -> Vec<CompletedBatch> {
        std::mem::take(&mut self.completed)
    }

    /// Streams a whole slice through the pipeline under the real clock,
    /// drains it, and returns the merge of every report — equal to merging
    /// the sequential per-update reports of the stream (both the appearing
    /// and the disappearing embeddings). Convenience for benches and tests.
    pub fn run_stream(&mut self, updates: &[Update]) -> MatchReport {
        let mut report = MatchReport::empty();
        for &u in updates {
            let done = self.push_at(u, Instant::now());
            Self::fold_reports(&mut report, done);
        }
        let done = self.drain();
        Self::fold_reports(&mut report, done);
        report
    }

    fn fold_reports(acc: &mut MatchReport, batches: Vec<CompletedBatch>) {
        for b in batches {
            *acc = acc.merge(&b.report);
        }
    }

    /// Stages one flushed batch whole — mixed signs included, the engine
    /// splits them — and hands its report back: inline, right here;
    /// threaded, by detaching the token and shipping the task to the answer
    /// stage while this thread returns to stage the next batch.
    fn stage(&mut self, batch: Vec<Update>) {
        let updates = batch.len();
        let token = self.engine.stage_batch(&batch);
        match self.answer.as_mut() {
            Some(stage) => stage.submit(updates, self.engine.detach_staged(token)),
            None => {
                let report = self.engine.answer_staged(token);
                self.completed.push(CompletedBatch { updates, report });
            }
        }
    }

    /// Collects answer-worker reports (oldest first) until the in-flight
    /// window is back under its bound of `answer_workers` — every worker
    /// can hold a task. Already-finished reports are drained without
    /// blocking first; only an over-full window blocks on the oldest
    /// outstanding answer (the pipeline's backpressure). A no-op inline.
    fn advance(&mut self) {
        while let Some(result) = self.answer.as_mut().and_then(AnswerStage::try_collect) {
            self.complete(result);
        }
        while self
            .answer
            .as_ref()
            .is_some_and(|stage| stage.pending.len() > stage.workers())
        {
            self.complete_one_blocking();
        }
    }

    /// Blocks for the oldest outstanding answer-worker report and completes
    /// it.
    fn complete_one_blocking(&mut self) {
        if let Some(stage) = self.answer.as_mut() {
            let result = stage.collect_blocking();
            self.complete(result);
        }
    }

    /// Completes the oldest pending submission with its collected `result`.
    /// A panic caught inside the answer task resumes here, on the caller
    /// thread.
    fn complete(&mut self, result: std::thread::Result<MatchReport>) {
        let stage = self.answer.as_mut().expect("threaded mode");
        let updates = stage.pending.pop_front().expect("pending answer");
        let report = match result {
            Ok(report) => report,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        self.engine.absorb_answered(&report);
        self.completed.push(CompletedBatch { updates, report });
    }

    /// Flushes the batcher and collects every in-flight answer, then closes
    /// the epoch: queued lifecycle operations apply here — after every
    /// pre-boundary update has been answered, before anything
    /// post-boundary runs — and the epoch counter advances.
    fn barrier(&mut self) {
        if let Some(batch) = self.batcher.flush() {
            self.stage(batch);
        }
        while self.in_flight() > 0 {
            self.complete_one_blocking();
        }
        self.apply_pending_ops();
        self.epoch += 1;
    }
}

impl<E: ContinuousEngine> ContinuousEngine for PipelinedEngine<E> {
    fn name(&self) -> &'static str {
        self.engine.name()
    }

    /// Barrier, then the inner engine's `register_query`: buffered and
    /// in-flight batches complete under the old query set and their reports
    /// are retained, not lost; the next batch sees the new query. For a
    /// live stream that should not barrier, use
    /// [`queue_register`](PipelinedEngine::queue_register).
    fn register_query(&mut self, query: &QueryPattern) -> Result<QueryId> {
        self.barrier();
        self.engine.register_query(query)
    }

    /// Barrier, then the inner engine's `unregister_query`, like
    /// [`register_query`](PipelinedEngine::register_query); the queued
    /// form is [`queue_unregister`](PipelinedEngine::queue_unregister).
    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        self.barrier();
        self.engine.unregister_query(query)
    }

    fn next_query_id(&self) -> QueryId {
        self.engine.next_query_id()
    }

    fn is_registered(&self, query: QueryId) -> bool {
        self.engine.is_registered(query)
    }

    /// Barrier, then the inner engine's `apply_batch`: the report covers
    /// exactly this batch, like any engine's.
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        self.barrier();
        self.engine.apply_batch(updates)
    }

    fn num_queries(&self) -> usize {
        self.engine.num_queries()
    }

    fn heap_bytes(&self) -> usize {
        self.engine.heap_bytes()
    }

    /// The inner engine's counters, which advance when a batch is staged:
    /// after a [`drain`](PipelinedEngine::drain) they are exactly those of
    /// sequential batched execution.
    fn stats(&self) -> EngineStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StagedBatch;
    use crate::interner::Sym;

    fn u(label: u32, src: u32, tgt: u32) -> Update {
        Update::new(Sym(label), Sym(src), Sym(tgt))
    }

    fn t0() -> Instant {
        Instant::now()
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn batcher_flushes_on_size() {
        let mut b = DeadlineBatcher::new(3, Duration::from_secs(60));
        let now = t0();
        assert!(b.push(u(0, 1, 2), now).is_none());
        assert!(b.push(u(0, 2, 3), now).is_none());
        assert_eq!(b.len(), 2);
        let batch = b.push(u(0, 3, 4), now).expect("size flush");
        assert_eq!(batch.len(), 3);
        assert!(b.is_empty());
        assert!(b.deadline.is_none());
    }

    #[test]
    fn batcher_flushes_on_deadline() {
        let mut b = DeadlineBatcher::new(1000, 5 * MS);
        let now = t0();
        assert!(b.push(u(0, 1, 2), now).is_none());
        assert_eq!(b.deadline, Some(now + 5 * MS), "armed");
        // Deadline is measured from the *oldest* buffered update.
        assert!(b.push(u(0, 2, 3), now + 3 * MS).is_none());
        assert!(b.poll(now + 4 * MS).is_none(), "before the deadline");
        let batch = b.poll(now + 5 * MS).expect("deadline flush");
        assert_eq!(batch.len(), 2);
        // A push at/after the deadline flushes too (no poll needed).
        assert!(b.push(u(0, 3, 4), now + 10 * MS).is_none());
        let batch = b.push(u(0, 4, 5), now + 16 * MS).expect("late push");
        assert_eq!(batch.len(), 2);
        // Empty batcher never deadline-flushes.
        assert!(b.poll(now + 100 * MS).is_none());
    }

    #[test]
    fn batcher_clamps_degenerate_size() {
        let mut b = DeadlineBatcher::new(0, Duration::from_secs(1));
        assert_eq!(b.push(u(0, 1, 2), t0()).map(|b| b.len()), Some(1));
    }

    #[test]
    fn batcher_flush_of_an_empty_buffer_is_none() {
        let mut b = DeadlineBatcher::new(4, MS);
        assert!(b.flush().is_none());
        let now = t0();
        assert!(b.poll(now + 10 * MS).is_none());
        assert!(b.push(u(0, 1, 2), now).is_none());
        assert_eq!(b.flush().map(|batch| batch.len()), Some(1));
        // Flushing disarms the deadline along with emptying the buffer.
        assert!(b.deadline.is_none());
        assert!(b.flush().is_none());
    }

    #[test]
    fn batcher_rearms_the_deadline_from_the_first_push_after_a_flush() {
        let mut b = DeadlineBatcher::new(2, 5 * MS);
        let now = t0();
        assert!(b.push(u(0, 1, 2), now).is_none());
        assert_eq!(b.push(u(0, 2, 3), now + MS).map(|v| v.len()), Some(2));
        // The next batch's clock starts at its own first update, not at
        // the flushed batch's.
        assert!(b.push(u(0, 3, 4), now + 4 * MS).is_none());
        assert_eq!(b.deadline, Some(now + 9 * MS));
        assert!(b.poll(now + 8 * MS).is_none(), "old deadline is gone");
        assert_eq!(b.poll(now + 9 * MS).map(|v| v.len()), Some(1));
    }

    #[test]
    fn batcher_with_an_unrepresentable_delay_arms_no_deadline() {
        let mut b = DeadlineBatcher::new(3, Duration::MAX);
        let now = t0();
        assert!(b.push(u(0, 1, 2), now).is_none());
        assert!(b.deadline.is_none(), "now + Duration::MAX does not exist");
        let later = now + Duration::from_secs(100 * 365 * 24 * 3600);
        assert!(b.poll(later).is_none());
        assert!(b.push(u(0, 2, 3), later).is_none());
        assert_eq!(b.push(u(0, 3, 4), later).map(|v| v.len()), Some(3));
        assert!(b.is_empty());
    }

    #[test]
    fn unrepresentable_delay_flushes_on_size_and_drain_only() {
        // `now + Duration::MAX` overflows `Instant`: the delay bound is
        // off, so 9 pushes at max_batch 4 flush twice on size, no poll
        // ever flushes the ninth update, and `drain` hands it back.
        let config = PipelineConfig::new(4, Duration::MAX);
        let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
        let now = t0();
        let mut done = Vec::new();
        for i in 0..9u32 {
            done.extend(pipe.push_at(u(0, i, i + 1), now + i * MS));
        }
        let sizes: Vec<usize> = done.iter().map(|b| b.updates).collect();
        assert_eq!(sizes, vec![4, 4], "two size flushes");
        assert_eq!(pipe.buffered(), 1);
        let later = now + Duration::from_secs(365 * 24 * 3600);
        assert!(pipe.poll_at(later).is_empty(), "no time-based flush");
        let rest = pipe.drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].updates, 1, "the ninth update");
        assert_eq!(pipe.stats().updates_processed, 9);
    }

    /// A deterministic engine that records the interleaving of its stage
    /// and answer calls: every update with an even label satisfies query 0
    /// and every later live query. Stage computes the report and numbers
    /// the batch; answer numbers the hand-back, so the log shows FIFO order.
    #[derive(Default)]
    struct SplitToy {
        stats: EngineStats,
        staged_seq: u64,
        answered_seq: u64,
        /// Registration slots ever issued (the reports always name query 0,
        /// whose existence the tests assume).
        queries: u32,
        /// Tombstoned slots.
        dead: std::collections::HashSet<u32>,
        /// Event log: (phase, batch sequence number).
        log: Vec<(&'static str, u64)>,
        /// When set, the first detached answer waits on this gate before it
        /// completes, holding the threaded window open (completion is FIFO,
        /// so everything staged behind it stays in flight too). If the gate
        /// has not opened after 2 s the report carries the sentinel count
        /// 999, so an executor that wrongly waits on the held answer fails
        /// the test instead of hanging it.
        gate: Option<Receiver<()>>,
    }

    impl ContinuousEngine for SplitToy {
        fn name(&self) -> &'static str {
            "SPLIT-TOY"
        }
        fn register_query(&mut self, _q: &QueryPattern) -> Result<QueryId> {
            let id = QueryId(self.queries);
            self.queries += 1;
            Ok(id)
        }
        fn unregister_query(&mut self, query: QueryId) -> Result<()> {
            if query.0 >= self.queries || !self.dead.insert(query.0) {
                return Err(Error::UnknownQuery(query.0));
            }
            Ok(())
        }
        fn next_query_id(&self) -> QueryId {
            QueryId(self.queries)
        }
        fn is_registered(&self, query: QueryId) -> bool {
            query.0 < self.queries && !self.dead.contains(&query.0)
        }
        fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
            let staged = self.stage_batch(updates);
            self.answer_staged(staged)
        }
        fn stage_batch(&mut self, updates: &[Update]) -> StagedBatch {
            self.stats.updates_processed += updates.len() as u64;
            self.log.push(("stage", self.staged_seq));
            self.staged_seq += 1;
            let hits = updates
                .iter()
                .filter(|u| u.label.0.is_multiple_of(2))
                .count() as u64;
            let later = (1..self.queries).filter(|q| !self.dead.contains(q));
            let counts = std::iter::once(0).chain(later).map(|q| (QueryId(q), hits));
            let report = MatchReport::from_counts(counts.collect());
            self.stats.notifications += report.len() as u64;
            self.stats.embeddings += report.total_embeddings();
            StagedBatch::immediate(report)
        }
        fn answer_staged(&mut self, staged: StagedBatch) -> MatchReport {
            self.log.push(("answer", self.answered_seq));
            self.answered_seq += 1;
            staged.into_immediate()
        }
        fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
            let report = self.answer_staged(staged);
            match self.gate.take() {
                None => DetachedAnswer::ready(report),
                Some(gate) => {
                    DetachedAnswer::task(move || match gate.recv_timeout(Duration::from_secs(2)) {
                        Ok(()) => report,
                        Err(_) => MatchReport::from_counts(vec![(QueryId(0), 999)]),
                    })
                }
            }
        }
        fn num_queries(&self) -> usize {
            self.queries as usize - self.dead.len()
        }
        fn heap_bytes(&self) -> usize {
            0
        }
        fn stats(&self) -> EngineStats {
            self.stats
        }
    }

    #[test]
    fn inline_push_that_fills_a_batch_returns_its_report() {
        let config = PipelineConfig::new(2, Duration::from_secs(60));
        let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
        let now = t0();
        let mut completed = Vec::new();
        for i in 0..8u32 {
            let done = pipe.push_at(u(i % 3, i, i + 1), now);
            // Every second push fills the batch and gets its report back
            // from the same call: nothing is held for a later push.
            assert_eq!(done.len(), (i % 2) as usize, "push #{i}");
            assert_eq!(pipe.in_flight(), 0);
            completed.extend(done);
        }
        assert!(pipe.drain().is_empty(), "nothing was left in flight");

        // 8 updates in batches of 2 → 4 batches, each staged and answered
        // before the next is staged.
        assert_eq!(completed.len(), 4);
        assert!(completed.iter().all(|b| b.updates == 2));
        let expected_log: Vec<(&str, u64)> = (0..4)
            .flat_map(|seq| [("stage", seq), ("answer", seq)])
            .collect();
        assert_eq!(pipe.engine().log, expected_log);

        // Labels cycle 0,1,2 → even labels 0 and 2 hit on updates
        // 0,2,3,5,6 → 5 embeddings overall.
        let total: u64 = completed.iter().map(|b| b.report.total_embeddings()).sum();
        assert_eq!(total, 5);
        assert_eq!(pipe.stats().updates_processed, 8);
        assert_eq!(pipe.stats().embeddings, 5);
    }

    #[test]
    fn pipelined_stream_report_equals_sequential() {
        // Any flush size must reproduce the sequential merged report (batch
        // semantics are chunk-invariant under merge).
        let stream: Vec<Update> = (0..50u32).map(|i| u(i % 4, i % 7, (i + 1) % 7)).collect();
        let mut reference = SplitToy::default();
        let mut counts = Vec::new();
        for &up in &stream {
            let r = reference.apply_update(up);
            counts.extend(r.matches.iter().map(|m| (m.query, m.new_embeddings)));
        }
        let expected = MatchReport::from_counts(counts);

        for max_batch in [1usize, 3, 7, 64] {
            let config = PipelineConfig::new(max_batch, Duration::from_secs(60));
            let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
            let got = pipe.run_stream(&stream);
            assert_eq!(got, expected, "max_batch {max_batch}");
            assert_eq!(pipe.in_flight(), 0);
            assert_eq!(pipe.buffered(), 0);
            assert_eq!(pipe.stats().updates_processed, 50);
            assert_eq!(pipe.stats().embeddings, expected.total_embeddings());
        }
    }

    #[test]
    fn deadline_flush_completes_underfull_batches() {
        let config = PipelineConfig::new(1000, 5 * MS);
        let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
        let now = t0();
        assert!(pipe.push_at(u(0, 1, 2), now).is_empty());
        assert_eq!(pipe.buffered(), 1);
        // The deadline passes with no new updates: poll completes the batch.
        let done = pipe.poll_at(now + 6 * MS);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].updates, 1);
        assert_eq!(done[0].report.total_embeddings(), 1);
        assert_eq!(pipe.buffered(), 0);
    }

    #[test]
    fn poll_before_the_deadline_keeps_the_batch_buffered() {
        let config = PipelineConfig::new(1000, 5 * MS);
        let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
        let now = t0();
        assert!(pipe.push_at(u(0, 1, 2), now).is_empty());
        assert!(pipe.poll_at(now + 4 * MS).is_empty());
        assert_eq!(pipe.buffered(), 1);
        assert!(pipe.engine().log.is_empty(), "nothing was staged");
        assert_eq!(pipe.stats().updates_processed, 0);
    }

    #[test]
    fn drain_of_an_idle_pipeline_completes_nothing_and_closes_the_epoch() {
        for config in [
            PipelineConfig::new(4, MS),
            PipelineConfig::new(4, MS).threaded(),
        ] {
            let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
            assert_eq!(pipe.epoch(), 0);
            assert!(pipe.drain().is_empty());
            assert!(pipe.drain().is_empty());
            assert_eq!(pipe.epoch(), 2, "every drain is a barrier");
            assert!(pipe.engine().log.is_empty(), "no empty batch staged");
        }
    }

    #[test]
    fn threaded_run_stream_with_an_unrepresentable_delay_equals_sequential() {
        // `run_stream` pushes under the real clock: with `Duration::MAX` no
        // deadline is ever armed, and the closing drain hands back the tail.
        let stream: Vec<Update> = (0..23u32).map(|i| u(i % 4, i % 5, (i + 1) % 5)).collect();
        let expected = SplitToy::default().apply_batch(&stream);
        for workers in [1usize, 2] {
            let config = PipelineConfig::new(4, Duration::MAX)
                .threaded()
                .with_answer_workers(workers);
            let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
            assert_eq!(pipe.run_stream(&stream), expected, "workers {workers}");
            assert_eq!(pipe.in_flight(), 0);
            assert_eq!(pipe.buffered(), 0);
            // 23 updates at max_batch 4: five size flushes and the drained tail.
            assert_eq!(pipe.engine().log.len(), 2 * 6);
        }
    }

    #[test]
    fn threaded_stream_report_equals_sequential() {
        // The threaded answer stage must reproduce the inline pipeline (and
        // therefore sequential execution) bit for bit, across flush sizes
        // and window sizes. SplitToy detaches ready reports, so this
        // exercises the executor's window bookkeeping, channel plumbing and
        // FIFO collection.
        let stream: Vec<Update> = (0..50u32).map(|i| u(i % 4, i % 7, (i + 1) % 7)).collect();
        let mut reference = SplitToy::default();
        let mut counts = Vec::new();
        for &up in &stream {
            let r = reference.apply_update(up);
            counts.extend(r.matches.iter().map(|m| (m.query, m.new_embeddings)));
        }
        let expected = MatchReport::from_counts(counts);

        for max_batch in [1usize, 7, 64] {
            for workers in [1usize, 3] {
                let config = PipelineConfig::new(max_batch, Duration::from_secs(60))
                    .threaded()
                    .with_answer_workers(workers);
                let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
                assert!(pipe.is_threaded());
                let got = pipe.run_stream(&stream);
                assert_eq!(got, expected, "max_batch {max_batch} workers {workers}");
                assert_eq!(pipe.in_flight(), 0);
                assert_eq!(pipe.stats().updates_processed, 50);
                assert_eq!(pipe.stats().embeddings, expected.total_embeddings());
            }
        }
    }

    /// An engine whose detached tasks genuinely run on the answer workers,
    /// with a deliberately slow first batch so FIFO completion is exercised
    /// under maximal reordering temptation. Each batch's report names its
    /// own sequence number.
    #[derive(Default)]
    struct SlowDetachToy {
        stats: EngineStats,
        seq: u32,
    }

    impl ContinuousEngine for SlowDetachToy {
        fn name(&self) -> &'static str {
            "SLOW-DETACH-TOY"
        }
        fn register_query(&mut self, _q: &QueryPattern) -> Result<QueryId> {
            Ok(QueryId(0))
        }
        fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
            self.stats.updates_processed += updates.len() as u64;
            let report = MatchReport::from_counts(vec![(QueryId(self.seq), updates.len() as u64)]);
            self.seq += 1;
            self.stats.notifications += report.len() as u64;
            self.stats.embeddings += report.total_embeddings();
            report
        }
        fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
            let report = staged.into_immediate();
            DetachedAnswer::task(move || {
                // The first batch is the slowest: any out-of-order
                // completion would surface as reordered reports.
                if report.satisfied_queries() == [QueryId(0)] {
                    std::thread::sleep(Duration::from_millis(25));
                }
                report
            })
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

    #[test]
    fn threaded_answers_complete_in_arrival_order_despite_slow_answer() {
        let config = PipelineConfig::new(2, Duration::from_secs(60))
            .threaded()
            .with_answer_workers(1);
        let mut pipe = PipelinedEngine::new(SlowDetachToy::default(), config);
        let now = t0();
        let mut completed = Vec::new();
        for i in 0..12u32 {
            completed.extend(pipe.push_at(u(0, i, i + 1), now));
        }
        completed.extend(pipe.drain());

        // 12 updates in batches of 2 → 6 batches; each batch's report names
        // its own sequence number, so arrival order is directly observable.
        assert_eq!(completed.len(), 6);
        for (i, batch) in completed.iter().enumerate() {
            assert_eq!(batch.updates, 2);
            assert_eq!(
                batch.report.satisfied_queries(),
                vec![QueryId(i as u32)],
                "batch #{i} out of order"
            );
        }
        assert_eq!(pipe.stats().updates_processed, 12);
        assert_eq!(pipe.stats().embeddings, 12);
        assert_eq!(pipe.stats().notifications, 6);
    }

    /// A [`SplitToy`] whose first detached answer waits for the returned
    /// sender.
    fn gated_toy() -> (SplitToy, Sender<()>) {
        let (tx, rx) = channel();
        let toy = SplitToy {
            gate: Some(rx),
            ..SplitToy::default()
        };
        (toy, tx)
    }

    #[test]
    fn threaded_retraction_runs_stage_while_earlier_answers_are_in_flight() {
        // Batch 0 (an insert) is detached and its answer blocks on the
        // gate. The retraction flush must stage + detach *without* waiting
        // for it. Only after the retraction run is submitted does the test
        // open the gate; an executor that barriered there would block the
        // second push until the gate's 2 s timeout fired, and the sentinel
        // count 999 would surface in the first report.
        let (toy, gate) = gated_toy();
        let config = PipelineConfig::new(1, Duration::from_secs(60))
            .threaded()
            .with_answer_workers(2);
        let mut pipe = PipelinedEngine::new(toy, config);
        let now = t0();
        assert!(pipe.push_at(u(0, 1, 2), now).is_empty());
        assert_eq!(pipe.in_flight(), 1);
        assert!(pipe.push_at(u(0, 1, 2).inverted(), now).is_empty());
        assert_eq!(pipe.in_flight(), 2, "retraction staged alongside");
        gate.send(()).expect("worker is waiting on the gate");
        let done = pipe.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(
            done[0].report.total_embeddings(),
            1,
            "gate opened before the worker timed out — no barrier"
        );
        assert_eq!(
            pipe.engine().log,
            vec![("stage", 0), ("answer", 0), ("stage", 1), ("answer", 1)]
        );
    }

    /// An engine whose detached tasks always panic — the failure mode a
    /// buggy hand-back would exhibit on the answer thread.
    #[derive(Default)]
    struct PanickingDetachToy {
        stats: EngineStats,
    }

    impl ContinuousEngine for PanickingDetachToy {
        fn name(&self) -> &'static str {
            "PANIC-TOY"
        }
        fn register_query(&mut self, _q: &QueryPattern) -> Result<QueryId> {
            Ok(QueryId(0))
        }
        fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
            self.stats.updates_processed += updates.len() as u64;
            MatchReport::empty()
        }
        fn detach_staged(&mut self, _staged: StagedBatch) -> DetachedAnswer {
            DetachedAnswer::task(|| panic!("join pass exploded"))
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

    #[test]
    #[should_panic(expected = "join pass exploded")]
    fn answer_task_panic_propagates_to_the_caller_instead_of_hanging() {
        // The worker catches the panic and ships it back; collecting the
        // answer re-raises it on this thread. Without that, the drain below
        // would block forever on a channel whose sender died — a CI
        // timeout instead of a test failure.
        let config = PipelineConfig::new(2, Duration::from_secs(60)).threaded();
        let mut pipe = PipelinedEngine::new(PanickingDetachToy::default(), config);
        let now = t0();
        for i in 0..4u32 {
            pipe.push_at(u(0, i, i + 1), now);
        }
        pipe.drain();
    }

    #[test]
    fn trait_entry_points_barrier_first() {
        let config = PipelineConfig::new(1000, Duration::from_secs(60));
        let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
        let now = t0();
        assert!(pipe.push_at(u(0, 1, 2), now).is_empty());
        assert_eq!(pipe.buffered(), 1);

        // apply_update drains the pipeline, then reports exactly its own
        // update; the flushed batch's report is retained, not lost.
        let own = pipe.apply_update(u(2, 5, 6));
        assert_eq!(own.total_embeddings(), 1);
        let earlier = pipe.take_completed();
        assert_eq!(earlier.len(), 1);
        assert_eq!(earlier[0].updates, 1);

        // register_query also barriers, retaining the flushed batch's report.
        assert!(pipe.push_at(u(0, 9, 9), now).is_empty());
        let mut symbols = crate::interner::SymbolTable::new();
        let q = QueryPattern::parse("?a -x-> ?b", &mut symbols).unwrap();
        pipe.register_query(&q).unwrap();
        assert_eq!(pipe.in_flight(), 0);
        assert_eq!(pipe.take_completed().len(), 1);

        // into_inner barriers too.
        let inner = pipe.into_inner();
        assert_eq!(inner.staged_seq, inner.answered_seq);
    }

    #[test]
    fn queued_lifecycle_ops_apply_only_at_the_epoch_boundary() {
        let config = PipelineConfig::new(2, Duration::from_secs(60));
        let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
        let mut symbols = crate::interner::SymbolTable::new();
        let q = QueryPattern::parse("?a -x-> ?b", &mut symbols).unwrap();

        // Promised ids are assigned in queue order, before anything applies.
        let id0 = pipe.queue_register(&q);
        let id1 = pipe.queue_register(&q);
        assert_eq!((id0, id1), (QueryId(0), QueryId(1)));
        assert_eq!(pipe.num_queries(), 0, "nothing applied yet");
        assert!(!pipe.is_registered(id0));

        // Unregistering a queued-but-unapplied id is fine; unknown ids and
        // double unregisters are rejected at queue time.
        pipe.queue_unregister(id1).unwrap();
        assert_eq!(pipe.queue_unregister(id1), Err(Error::UnknownQuery(1)));
        assert_eq!(
            pipe.queue_unregister(QueryId(7)),
            Err(Error::UnknownQuery(7))
        );
        assert_eq!(pipe.pending_lifecycle(), 3);

        // Streaming keeps the ops pending: no boundary, no application.
        let now = t0();
        for i in 0..6u32 {
            pipe.push_at(u(0, i, i + 1), now);
        }
        assert_eq!(pipe.num_queries(), 0);
        assert_eq!(pipe.epoch(), 0);

        // The drain boundary applies everything in queue order and opens
        // the next epoch.
        pipe.drain();
        assert_eq!(pipe.epoch(), 1);
        assert_eq!(pipe.pending_lifecycle(), 0);
        assert_eq!(pipe.num_queries(), 1);
        assert!(pipe.is_registered(id0));
        assert!(!pipe.is_registered(id1));
        assert_eq!(pipe.next_query_id(), QueryId(2), "dead ids never reused");

        // A long queue still promises dense ids, past the tombstone and
        // across interleaved unregistrations of earlier promises.
        let promised: Vec<QueryId> = (0..3000u32)
            .map(|i| {
                let id = pipe.queue_register(&q);
                assert_eq!(id, QueryId(2 + i), "registration #{i}");
                if i % 3 == 2 {
                    pipe.queue_unregister(QueryId(id.0 - 1)).unwrap();
                }
                id
            })
            .collect();
        pipe.drain();
        assert_eq!(pipe.next_query_id(), QueryId(3002));
        assert_eq!(pipe.num_queries(), 1 + 2000);
        assert!(pipe.is_registered(promised[0]));
        assert!(!pipe.is_registered(promised[1]));
        // The running count starts over with the new epoch.
        assert_eq!(pipe.queue_register(&q), QueryId(3002));
    }

    #[test]
    fn lifecycle_calls_mid_window_succeed_and_keep_in_flight_reports() {
        // Two batches are in flight behind a held answer. The direct
        // registration barriers and succeeds: the held batches complete with
        // the reports they were staged with, and the next batch reports the
        // new query. A direct unregistration barriers the same way.
        let (toy, gate) = gated_toy();
        let config = PipelineConfig::new(2, Duration::from_secs(60))
            .threaded()
            .with_answer_workers(2);
        let mut pipe = PipelinedEngine::new(toy, config);
        let mut symbols = crate::interner::SymbolTable::new();
        let q = QueryPattern::parse("?a -x-> ?b", &mut symbols).unwrap();
        let id0 = pipe.register_query(&q).unwrap();

        let now = t0();
        for i in 0..4u32 {
            assert!(pipe.push_at(u(0, i, i + 1), now).is_empty());
        }
        assert_eq!(pipe.in_flight(), 2);
        // Opened before the call, so the barrier collects the held answer.
        gate.send(()).expect("worker is waiting on the gate");
        let id1 = pipe.register_query(&q).unwrap();
        assert_eq!(pipe.in_flight(), 0);
        let held = pipe.take_completed();
        assert_eq!(held.len(), 2);
        for batch in &held {
            assert_eq!(batch.report, MatchReport::from_counts(vec![(id0, 2)]));
        }
        let mut next = pipe.push_at(u(0, 7, 8), now);
        next.extend(pipe.push_at(u(0, 8, 9), now));
        pipe.unregister_query(id1).unwrap();
        next.extend(pipe.take_completed());
        assert_eq!(next.len(), 1);
        assert_eq!(
            next[0].report,
            MatchReport::from_counts(vec![(id0, 2), (id1, 2)])
        );
        assert!(!pipe.is_registered(id1));
        assert_eq!(pipe.num_queries(), 1);
    }

    #[test]
    fn reorder_buffer_releases_in_sequence_order() {
        let mut buf = ReorderBuffer::new();
        assert!(buf.is_empty());
        assert_eq!(buf.next_seq(), 0);
        // Out-of-order arrivals park until their predecessors complete.
        buf.insert(2, "c");
        buf.insert(1, "b");
        assert_eq!(buf.pop_next(), None);
        assert_eq!(buf.len(), 2);
        buf.insert(0, "a");
        assert_eq!(buf.pop_next(), Some("a"));
        assert_eq!(buf.pop_next(), Some("b"));
        assert_eq!(buf.pop_next(), Some("c"));
        assert_eq!(buf.pop_next(), None);
        assert!(buf.is_empty());
        assert_eq!(buf.next_seq(), 3);
        // The sequence keeps advancing across later arrivals.
        buf.insert(4, "e");
        assert_eq!(buf.pop_next(), None);
        buf.insert(3, "d");
        assert_eq!(buf.pop_next(), Some("d"));
        assert_eq!(buf.pop_next(), Some("e"));
    }

    #[test]
    fn multi_worker_answers_complete_in_arrival_order() {
        // With 4 answer workers the slow batch 0 finishes long after
        // batches 1..4 — the reorder buffer must still deliver FIFO.
        let config = PipelineConfig::new(2, Duration::from_secs(60))
            .threaded()
            .with_answer_workers(4);
        let mut pipe = PipelinedEngine::new(SlowDetachToy::default(), config);
        let now = t0();
        let mut completed = Vec::new();
        for i in 0..12u32 {
            completed.extend(pipe.push_at(u(0, i, i + 1), now));
        }
        completed.extend(pipe.drain());

        assert_eq!(completed.len(), 6);
        for (i, batch) in completed.iter().enumerate() {
            assert_eq!(batch.updates, 2);
            assert_eq!(
                batch.report.satisfied_queries(),
                vec![QueryId(i as u32)],
                "batch #{i} out of order"
            );
        }
        assert_eq!(pipe.stats().updates_processed, 12);
        assert_eq!(pipe.stats().embeddings, 12);
        assert_eq!(pipe.stats().notifications, 6);
    }

    #[test]
    #[should_panic(expected = "join pass exploded")]
    fn multi_worker_answer_panic_propagates_to_the_caller() {
        let config = PipelineConfig::new(2, Duration::from_secs(60))
            .threaded()
            .with_answer_workers(2);
        let mut pipe = PipelinedEngine::new(PanickingDetachToy::default(), config);
        let now = t0();
        for i in 0..4u32 {
            pipe.push_at(u(0, i, i + 1), now);
        }
        pipe.drain();
    }

    #[test]
    fn answer_worker_count_is_clamped_positive() {
        assert!(PipelineConfig::default_answer_workers() >= 1);
        let config = PipelineConfig::new(2, Duration::from_secs(60)).with_answer_workers(0);
        assert_eq!(config.answer_workers, 1);
    }

    #[test]
    fn mixed_sign_flushes_stage_whole() {
        // Two flushes of [+, +, −, +] each stage as one batch: one
        // completion per flush, covering all of it, whose report is what
        // `apply_batch` of that flush reports. Splitting the signs is the
        // engine's business.
        let config = PipelineConfig::new(4, Duration::from_secs(60));
        let mut pipe = PipelinedEngine::new(SplitToy::default(), config);
        let flush = [u(0, 1, 2), u(2, 2, 3), u(0, 1, 2).inverted(), u(4, 3, 4)];
        let now = t0();
        let mut done = Vec::new();
        for _ in 0..2 {
            for (i, &update) in flush.iter().enumerate() {
                let completed = pipe.push_at(update, now);
                assert_eq!(completed.is_empty(), i < 3, "flush point");
                done.extend(completed);
            }
        }
        let expected = SplitToy::default().apply_batch(&flush);
        assert_eq!(done.len(), 2, "one completion per flush");
        for batch in &done {
            assert_eq!(batch.updates, flush.len(), "the batch tiles its flush");
            assert_eq!(batch.report, expected);
        }
        assert_eq!(
            pipe.engine().log,
            vec![("stage", 0), ("answer", 0), ("stage", 1), ("answer", 1)]
        );
    }

    /// Like [`PanickingDetachToy`], but the detached task sleeps first so
    /// the panic is still in flight when the executor is dropped.
    #[derive(Default)]
    struct SleepyPanicToy {
        stats: EngineStats,
    }

    impl ContinuousEngine for SleepyPanicToy {
        fn name(&self) -> &'static str {
            "SLEEPY-PANIC-TOY"
        }
        fn register_query(&mut self, _q: &QueryPattern) -> Result<QueryId> {
            Ok(QueryId(0))
        }
        fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
            self.stats.updates_processed += updates.len() as u64;
            MatchReport::empty()
        }
        fn detach_staged(&mut self, _staged: StagedBatch) -> DetachedAnswer {
            DetachedAnswer::task(|| {
                std::thread::sleep(Duration::from_millis(20));
                panic!("slow join pass exploded")
            })
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

    #[test]
    #[should_panic(expected = "slow join pass exploded")]
    fn dropping_mid_stream_reraises_outstanding_worker_panics() {
        let config = PipelineConfig::new(1, Duration::from_secs(60)).threaded();
        let mut pipe = PipelinedEngine::new(SleepyPanicToy::default(), config);
        // Stage + detach one batch; the worker is still asleep when the
        // executor drops, so the panic must surface via drain-on-drop
        // instead of vanishing with the worker pool.
        pipe.push_at(u(0, 1, 2), t0());
        assert_eq!(pipe.in_flight(), 1);
        drop(pipe);
    }
}
