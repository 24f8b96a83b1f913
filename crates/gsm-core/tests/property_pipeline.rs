//! Property-based tests for the pipelined executor's ordering machinery:
//! the [`ReorderBuffer`] in isolation, the multi-worker answer stage end to
//! end, panic propagation from detached answer tasks, and whole-flush
//! staging of mixed insert+retraction flushes.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use gsm_core::engine::{
    ContinuousEngine, DetachedAnswer, EngineStats, MatchReport, QueryId, StagedBatch,
};
use gsm_core::error::Result;
use gsm_core::interner::Sym;
use gsm_core::model::update::Update;
use gsm_core::pipeline::{PipelineConfig, PipelinedEngine, ReorderBuffer};
use gsm_core::query::pattern::QueryPattern;

fn u(label: u32, src: u32, tgt: u32) -> Update {
    Update::new(Sym(label), Sym(src), Sym(tgt))
}

/// Strategy: a permutation of `0..n` (a random completion order), built by
/// repeatedly removing a strategy-chosen index from the remaining pool.
fn permutation(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u32>(), 1..=max_len).prop_map(|picks| {
        let mut pool: Vec<u64> = (0..picks.len() as u64).collect();
        let mut out = Vec::with_capacity(pool.len());
        for p in picks {
            out.push(pool.remove(p as usize % pool.len()));
        }
        out
    })
}

/// An engine whose detached tasks genuinely run on the answer workers, each
/// sleeping a per-batch delay picked by the strategy — so any completion
/// interleaving the scheduler allows is actually exercised. Every batch's
/// report names its own stage sequence number, making completion order
/// directly observable in the [`gsm_core::pipeline::CompletedBatch`]
/// stream.
struct DelayedDetachToy {
    stats: EngineStats,
    seq: u64,
    /// Per-batch answer-task sleep, microseconds (`seq % len` indexes it).
    delays_us: Vec<u64>,
    /// Batch sequence number whose answer task panics, if any.
    panic_at: Option<u64>,
}

impl DelayedDetachToy {
    fn new(delays_us: Vec<u64>, panic_at: Option<u64>) -> Self {
        DelayedDetachToy {
            stats: EngineStats::default(),
            seq: 0,
            delays_us,
            panic_at,
        }
    }
}

impl ContinuousEngine for DelayedDetachToy {
    fn name(&self) -> &'static str {
        "DELAYED-DETACH-TOY"
    }
    fn register_query(&mut self, _q: &QueryPattern) -> Result<QueryId> {
        Ok(QueryId(0))
    }
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        self.stats.updates_processed += updates.len() as u64;
        let report =
            MatchReport::from_counts(vec![(QueryId(self.seq as u32), updates.len() as u64)]);
        self.seq += 1;
        self.stats.notifications += report.len() as u64;
        self.stats.embeddings += report.total_embeddings();
        report
    }
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        let report = staged.into_immediate();
        // Batches are numbered from 0; `self.seq` is already the next one.
        let seq = self.seq - 1;
        let delay = self.delays_us[seq as usize % self.delays_us.len()];
        let panics = self.panic_at == Some(seq);
        DetachedAnswer::task(move || {
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
            }
            if panics {
                panic!("injected answer panic #{seq}");
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever order sequence numbers complete in — and however the drain
    /// interleaves with the arrivals — the reorder buffer releases exactly
    /// `0, 1, 2, …`, never early, never duplicated.
    #[test]
    fn reorder_buffer_always_releases_in_sequence_order(
        order in permutation(48),
        drain_every in 1usize..5,
    ) {
        let n = order.len() as u64;
        let mut buf: ReorderBuffer<u64> = ReorderBuffer::new();
        let mut released = Vec::new();
        for (i, &seq) in order.iter().enumerate() {
            buf.insert(seq, seq);
            // Interleave partial drains with the arrivals.
            if i % drain_every == 0 {
                while let Some(v) = buf.pop_next() {
                    released.push(v);
                }
            }
            // Nothing younger than a missing predecessor ever escapes.
            prop_assert_eq!(buf.next_seq(), released.len() as u64);
        }
        while let Some(v) = buf.pop_next() {
            released.push(v);
        }
        prop_assert_eq!(released, (0..n).collect::<Vec<_>>());
        prop_assert!(buf.is_empty());
        prop_assert_eq!(buf.next_seq(), n);
    }
}

/// A toy z-set engine with the staging shape the real engines use: state
/// is a multiset of edges; a batch — mixed signs included — commits its
/// transitions in stream order and computes its report at stage time: 0→1
/// transitions are new embeddings, 1→0 retracted, stamped with the batch's
/// sequence number, making FIFO completion directly observable; the
/// detached task sleeps a strategy-picked delay before handing it back.
struct ZSetToy {
    state: HashMap<(Sym, Sym, Sym), i64>,
    stats: EngineStats,
    delays_us: Vec<u64>,
    seq: u64,
    /// When set, the first detached answer waits for a message on this gate
    /// before completing (completion is FIFO, so everything staged behind
    /// it stays in flight too).
    gate: Option<Receiver<()>>,
}

impl ZSetToy {
    fn new(delays_us: Vec<u64>) -> Self {
        ZSetToy {
            state: HashMap::new(),
            stats: EngineStats::default(),
            delays_us,
            seq: 0,
            gate: None,
        }
    }

    /// Commits a batch into the z-set, returning the `(0→1, 1→0)` transition
    /// counts. Retractions of absent edges are no-ops, like the real views.
    fn commit(&mut self, updates: &[Update]) -> (u64, u64) {
        let (mut new, mut gone) = (0u64, 0u64);
        for u in updates {
            let e = u.edge();
            let entry = self.state.entry((e.label, e.src, e.tgt)).or_insert(0);
            if u.is_retraction() {
                if *entry > 0 {
                    *entry -= 1;
                    if *entry == 0 {
                        gone += 1;
                    }
                }
            } else {
                *entry += 1;
                if *entry == 1 {
                    new += 1;
                }
            }
        }
        (new, gone)
    }
}

impl ContinuousEngine for ZSetToy {
    fn name(&self) -> &'static str {
        "ZSET-TOY"
    }
    fn register_query(&mut self, _q: &QueryPattern) -> Result<QueryId> {
        Ok(QueryId(0))
    }
    /// Reports both counts of the batch under its sequence number; staging
    /// rides the trait's default.
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        self.stats.updates_processed += updates.len() as u64;
        let (new, gone) = self.commit(updates);
        let qid = QueryId(self.seq as u32);
        self.seq += 1;
        let report = MatchReport::from_counts(vec![(qid, new)])
            .merge(&MatchReport::from_retraction_counts(vec![(qid, gone)]));
        self.stats.notifications += report.len() as u64;
        self.stats.embeddings += report.total_embeddings();
        self.stats.retracted += report.total_retracted();
        report
    }
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        let report = staged.into_immediate();
        // Batches are numbered from 0; `self.seq` is already the next one.
        let delay = self.delays_us[(self.seq - 1) as usize % self.delays_us.len()];
        let gate = self.gate.take();
        DetachedAnswer::task(move || {
            if let Some(gate) = gate {
                gate.recv().expect("the test opens the gate");
            }
            if delay > 0 {
                std::thread::sleep(Duration::from_micros(delay));
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

proptest! {
    // Each case spins up a worker pool and sleeps real (micro)durations, so
    // keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any worker count (the in-flight window), flush size and per-batch
    /// answer delays, the threaded pipeline completes batches strictly in
    /// arrival order and reproduces the stream's update count exactly.
    #[test]
    fn threaded_pipeline_completes_in_arrival_order(
        workers in 1usize..5,
        max_batch in 1usize..5,
        num_updates in 1usize..25,
        delays_us in proptest::collection::vec(0u64..400, 1..8),
    ) {
        let config = PipelineConfig::new(max_batch, Duration::from_secs(60))
            .threaded()
            .with_answer_workers(workers);
        let mut pipe = PipelinedEngine::new(DelayedDetachToy::new(delays_us, None), config);
        let now = Instant::now();
        let mut completed = Vec::new();
        for i in 0..num_updates as u32 {
            completed.extend(pipe.push_at(u(0, i, i + 1), now));
        }
        completed.extend(pipe.drain());

        // Every batch's report names its stage sequence number: arrival
        // order is exactly 0, 1, 2, … whatever order the workers finished.
        for (i, batch) in completed.iter().enumerate() {
            prop_assert_eq!(
                batch.report.satisfied_queries(),
                vec![QueryId(i as u32)],
                "batch #{} out of order", i
            );
        }
        let total_updates: usize = completed.iter().map(|b| b.updates).sum();
        prop_assert_eq!(total_updates, num_updates);
        prop_assert_eq!(pipe.in_flight(), 0);
        prop_assert_eq!(pipe.stats().updates_processed, num_updates as u64);
        // One notification per batch, `updates` embeddings per batch.
        prop_assert_eq!(pipe.stats().notifications, completed.len() as u64);
        prop_assert_eq!(pipe.stats().embeddings, num_updates as u64);
    }

    /// A panic injected into any batch's answer task — under any worker
    /// count and delay pattern — resurfaces on the caller thread with its
    /// original payload instead of hanging or being swallowed.
    #[test]
    fn injected_answer_panic_propagates_with_its_payload(
        workers in 1usize..5,
        num_updates in 1usize..17,
        panic_batch in 0u64..8,
        delays_us in proptest::collection::vec(0u64..300, 1..6),
    ) {
        // Flush size 2 → ceil(num_updates / 2) batches; aim the panic at a
        // batch that actually exists.
        let num_batches = num_updates.div_ceil(2) as u64;
        let panic_at = panic_batch % num_batches;
        let config = PipelineConfig::new(2, Duration::from_secs(60))
            .threaded()
            .with_answer_workers(workers);
        let mut pipe =
            PipelinedEngine::new(DelayedDetachToy::new(delays_us, Some(panic_at)), config);

        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let now = Instant::now();
            for i in 0..num_updates as u32 {
                pipe.push_at(u(0, i, i + 1), now);
            }
            pipe.drain();
        }));
        let payload = outcome.expect_err("injected panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        prop_assert_eq!(
            message,
            format!("injected answer panic #{panic_at}"),
            "panic payload must survive the trip across the worker"
        );
    }

    /// Mixed-sign flushes through the threaded pipeline stage whole: one
    /// completed batch per flush, in FIFO stage order, tiling the stream
    /// at flush granularity, each reporting exactly what `apply_batch` of
    /// the same flush reports — both counts of a flush that gains and
    /// loses embeddings.
    #[test]
    fn mixed_sign_flushes_stage_whole_in_fifo_order(
        ops in proptest::collection::vec((any::<bool>(), 0u32..5), 1..40),
        max_batch in 1usize..6,
        workers in 1usize..5,
        delays_us in proptest::collection::vec(0u64..300, 1..6),
    ) {
        // A tiny edge universe, so retractions genuinely hit live edges.
        let stream: Vec<Update> = ops
            .iter()
            .map(|&(retract, e)| {
                let base = u(0, e, e + 1);
                if retract { base.inverted() } else { base }
            })
            .collect();

        // Flush boundaries are deterministic at a fixed clock (the deadline
        // never fires): chunks of `max_batch`, whatever their signs.
        let flushes: Vec<&[Update]> = stream.chunks(max_batch).collect();

        // Sequential reference: `apply_batch` of each flush in order, which
        // numbers the flushes exactly as the pipeline's stage phase will.
        let mut reference = ZSetToy::new(vec![0]);
        let expected: Vec<MatchReport> =
            flushes.iter().map(|flush| reference.apply_batch(flush)).collect();

        let config = PipelineConfig::new(max_batch, Duration::from_secs(60))
            .threaded()
            .with_answer_workers(workers);
        let mut pipe = PipelinedEngine::new(ZSetToy::new(delays_us), config);
        let now = Instant::now();
        let mut completed = Vec::new();
        for &update in &stream {
            completed.extend(pipe.push_at(update, now));
        }
        completed.extend(pipe.drain());

        prop_assert_eq!(completed.len(), flushes.len());
        for (i, batch) in completed.iter().enumerate() {
            prop_assert_eq!(batch.updates, flushes[i].len(), "tile #{}", i);
            // Reports are stamped with the stage sequence number, so this
            // equality is simultaneously the FIFO-order check.
            prop_assert_eq!(
                &batch.report, &expected[i],
                "batch #{} out of FIFO order or wrong", i
            );
        }
        prop_assert_eq!(pipe.stats().updates_processed, stream.len() as u64);
    }
}

/// Pins [`PipelinedEngine::in_flight`]: staging increments it, collecting a
/// completed batch decrements it, updates merely *buffered* by the batcher
/// are not in flight (they are not yet staged, hence not yet WAL-logged
/// behind a persistent engine — a crash loses them and the stream driver
/// re-feeds), and `drain()` always leaves `in_flight() == 0` with the
/// engine reachable through `engine()`.
#[test]
fn in_flight_counts_staged_runs_until_collected() {
    // Three answer workers, a frozen clock and a gate holding the first
    // answer: pushes buffer until max_batch is hit, then stage and detach,
    // and nothing completes until the gate opens (completion is FIFO), so
    // in_flight is directly observable.
    let (gate, rx) = channel();
    let mut toy = ZSetToy::new(vec![0]);
    toy.gate = Some(rx);
    let config = PipelineConfig::new(2, Duration::from_secs(60))
        .threaded()
        .with_answer_workers(3);
    let mut pipe = PipelinedEngine::new(toy, config);
    let now = Instant::now();

    assert_eq!(pipe.in_flight(), 0);
    pipe.push_at(u(0, 1, 2), now);
    assert_eq!(pipe.in_flight(), 0, "buffered updates are not staged");
    assert_eq!(pipe.buffered(), 1);

    // Second push flushes a full batch: staged, answer in flight.
    pipe.push_at(u(0, 2, 3), now);
    assert_eq!(pipe.in_flight(), 1, "a flushed batch stages one token");
    assert_eq!(pipe.buffered(), 0);

    pipe.push_at(u(0, 3, 4), now);
    pipe.push_at(u(0, 4, 5), now);
    assert_eq!(pipe.in_flight(), 2, "the window holds both tokens");

    // The barrier: after drain, nothing is staged or buffered.
    gate.send(())
        .expect("the first answer is waiting on the gate");
    let completed = pipe.drain();
    assert_eq!(pipe.in_flight(), 0, "drain leaves no tokens outstanding");
    assert_eq!(pipe.buffered(), 0);
    assert_eq!(completed.len(), 2);
    assert_eq!(pipe.engine().stats().updates_processed, 4);
}
