//! The concurrency differential suite: the **threaded** pipelined executor
//! (stage on the caller thread, reports handed back through a pool of
//! answer workers — `PipelineConfig::answer_thread` / `answer_workers`) must
//! produce byte-identical reports to sequential per-update execution, for
//! every engine, on every workload generator, at every answer-worker count,
//! including composed with the sharded wrapper.
//!
//! This is the proof obligation of the cross-thread executor: detached
//! tasks, the worker pool and the sequence-numbered reorder buffer may
//! change *where*, *when* and *in what order* reports are handed back, but
//! never what they report. Every engine answers at stage time and detaches
//! a ready report. Deletion-heavy and sliding-window workloads ride the
//! same harness: retraction runs stage like insert runs (joined against the
//! pre-removal views, then committed, at stage time), so mixed streams
//! exercise whole-flush staging, the engines' sign-run split and the
//! staged retraction tokens across every worker count. The
//! suite also pins the executor's FIFO completion order under a
//! deliberately slow answer stage (where multiple workers genuinely finish
//! out of order), and (behind `slow-tests`) soaks the worker pool with a
//! long randomized stream and injected thread yields.

use std::time::{Duration, Instant};

use graph_stream_matching::core::prelude::*;
use graph_stream_matching::core::{DetachedAnswer, EngineStats, StagedBatch};
use graph_stream_matching::datagen::{Dataset, Workload, WorkloadConfig};
use graph_stream_matching::{all_engines, all_engines_sharded};

/// The threaded-pipeline configurations the suite drives, as
/// `(max_batch, max_delay_ticks, tick_advance_ms)` with a synthetic clock —
/// one size-driven sweep (the deadline never fires) and one deadline-driven
/// sweep (the buffer never fills; batches are cut by the clock). Threading
/// changes where answers run, not how batches are segmented, so both
/// segmentation regimes must hold.
const THREADED_CONFIGS: [(usize, u64, u64); 2] = [(7, 1_000, 0), (1_000, 5, 1)];

/// Differential threaded-pipeline-vs-sequential harness: replays `workload`
/// sequentially once per engine (recording every per-update report), then
/// streams it through a **threaded** [`PipelinedEngine`] on fresh engines of
/// the same kinds. Every completed batch must equal the merge of the
/// per-update reports of exactly the updates it covered, the batches must
/// tile the stream in arrival order, and the post-drain stats must match
/// sequential execution.
fn assert_threaded_equals_sequential_for(
    workload: &Workload,
    engines: impl Fn() -> Vec<Box<dyn ContinuousEngine>>,
) {
    let mut seq_engines = engines();
    for engine in seq_engines.iter_mut() {
        for q in &workload.queries {
            engine.register_query(q).expect("register");
        }
    }
    let per_update: Vec<Vec<MatchReport>> = seq_engines
        .iter_mut()
        .map(|engine| {
            workload
                .stream
                .iter()
                .map(|u| engine.apply_update(*u))
                .collect()
        })
        .collect();

    for (max_batch, delay_ticks, tick_ms) in THREADED_CONFIGS {
        for workers in answer_worker_counts() {
            let config = PipelineConfig::new(max_batch, Duration::from_millis(delay_ticks))
                .threaded()
                .with_answer_workers(workers);
            let mut pipe_engines: Vec<_> = engines()
                .into_iter()
                .map(|e| PipelinedEngine::new(e, config))
                .collect();
            for pipe in pipe_engines.iter_mut() {
                for q in &workload.queries {
                    pipe.register_query(q).expect("register");
                }
            }
            let t0 = Instant::now();
            for (engine_idx, pipe) in pipe_engines.iter_mut().enumerate() {
                assert!(pipe.is_threaded());
                let mut completed: Vec<CompletedBatch> = Vec::new();
                for (i, u) in workload.stream.iter().enumerate() {
                    let now = t0 + Duration::from_millis(i as u64 * tick_ms);
                    completed.extend(pipe.push_at(*u, now));
                }
                completed.extend(pipe.drain());

                let mut offset = 0usize;
                for (batch_idx, batch) in completed.iter().enumerate() {
                    assert!(batch.updates > 0, "empty completed batch");
                    // Full-report merge: a completed batch covers a whole
                    // flush, so merging the per-update reports sums its new
                    // AND retracted embeddings per query.
                    let expected = per_update[engine_idx][offset..offset + batch.updates]
                        .iter()
                        .fold(MatchReport::empty(), |acc, r| acc.merge(r));
                    assert_eq!(
                        batch.report,
                        expected,
                        "{} threaded batch #{batch_idx} (updates {offset}..{}) under \
                     (max_batch {max_batch}, delay {delay_ticks} ticks, \
                     {workers} answer workers) of {} diverged from sequential",
                        pipe.name(),
                        offset + batch.updates,
                        workload.name
                    );
                    offset += batch.updates;
                }
                assert_eq!(
                    offset,
                    workload.stream.len(),
                    "{} threaded pipeline dropped or duplicated updates",
                    pipe.name()
                );

                let seq_stats = seq_engines[engine_idx].stats();
                let stats = pipe.stats();
                assert_eq!(stats.updates_processed, seq_stats.updates_processed);
                assert_eq!(stats.embeddings, seq_stats.embeddings, "{}", pipe.name());
                assert_eq!(stats.retracted, seq_stats.retracted, "{}", pipe.name());
            }
        }
    }
}

fn assert_threaded_equals_sequential(workload: &Workload) {
    assert_threaded_equals_sequential_for(workload, all_engines);
}

/// Answer-worker counts for the threaded matrix. `GSM_ANSWER_THREADS=<n>`
/// (the CI jobs) pins one count; the default sweeps one, two and four
/// workers so out-of-order completion and the reorder buffer are exercised
/// alongside the single-worker FIFO baseline.
fn answer_worker_counts() -> Vec<usize> {
    match std::env::var("GSM_ANSWER_THREADS") {
        Ok(v) => vec![v
            .parse()
            .unwrap_or_else(|_| panic!("invalid GSM_ANSWER_THREADS value {v:?}"))],
        Err(_) => vec![1, 2, 4],
    }
}

/// Shard counts for the threaded × sharded composition. `GSM_SHARDS=<n>`
/// (the CI jobs) pins one count; the default exercises the genuinely
/// partitioned two-shard deployment the CI job uses.
fn shard_counts() -> Vec<usize> {
    match std::env::var("GSM_SHARDS") {
        Ok(v) => vec![v
            .parse()
            .unwrap_or_else(|_| panic!("invalid GSM_SHARDS value {v:?}"))],
        Err(_) => vec![2],
    }
}

#[test]
fn threaded_pipeline_equals_sequential_on_snb_workload() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Snb, 350, 18).with_selectivity(0.4));
    assert_threaded_equals_sequential(&workload);
}

#[test]
fn threaded_pipeline_equals_sequential_on_taxi_workload() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Taxi, 350, 18).with_query_size(3));
    assert_threaded_equals_sequential(&workload);
}

#[test]
fn threaded_pipeline_equals_sequential_on_biogrid_workload() {
    // The explosive single-label generator stays small: the harness replays
    // the stream once sequentially plus once per threaded config.
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::BioGrid, 180, 14).with_query_size(3));
    assert_threaded_equals_sequential(&workload);
}

#[test]
fn threaded_pipeline_equals_sequential_with_high_overlap_and_long_queries() {
    // High overlap plus long queries maximises multi-path queries, whose
    // covering-path joins produce the largest reports crossing threads.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 220, 12)
            .with_query_size(7)
            .with_overlap(0.8),
    );
    assert_threaded_equals_sequential(&workload);
}

#[test]
fn threaded_pipeline_equals_sequential_on_deletion_heavy_workload() {
    // Deletion-heavy streams: a flush straddling a sign boundary stages
    // whole, and the engine answers and commits its sign runs in turn.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 350, 16)
            .with_selectivity(0.4)
            .with_delete_ratio(0.35),
    );
    assert_threaded_equals_sequential(&workload);
}

#[test]
fn threaded_pipeline_equals_sequential_on_sliding_window_workload() {
    // Count-based window: nearly every late flush carries an expiry
    // retraction — exactly the stream shape that degenerated to sequential
    // under the eager retraction barrier.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Taxi, 400, 16)
            .with_query_size(3)
            .with_sliding_window(60),
    );
    assert_threaded_equals_sequential(&workload);
}

#[test]
fn threaded_pipeline_over_sharded_engine_equals_sequential_on_deletions() {
    // Staged sharded retractions composed with the threaded answer stage:
    // the merged reports of the routed flushes cross threads.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 280, 15)
            .with_selectivity(0.4)
            .with_delete_ratio(0.3),
    );
    for shards in shard_counts() {
        assert_threaded_equals_sequential_for(&workload, || all_engines_sharded(shards));
    }
}

#[test]
fn threaded_pipeline_over_sharded_engine_equals_sequential() {
    // The full composition: DeadlineBatcher → stage on the caller thread,
    // where each flush is routed once and every shard applies its slice,
    // merged → reports handed back through the answer workers. Two thread
    // domains, one report stream.
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Snb, 280, 15).with_selectivity(0.4));
    for shards in shard_counts() {
        assert_threaded_equals_sequential_for(&workload, || all_engines_sharded(shards));
    }
}

/// A wrapper that makes the *first* staged batch's detached answer
/// deliberately slow (and stamps every batch with its stage sequence), so
/// any executor bug that completed batches out of arrival order would
/// surface immediately.
struct SlowFirstAnswer<E> {
    inner: E,
    staged: u64,
}

impl<E: ContinuousEngine> SlowFirstAnswer<E> {
    fn new(inner: E) -> Self {
        SlowFirstAnswer { inner, staged: 0 }
    }
}

impl<E: ContinuousEngine> ContinuousEngine for SlowFirstAnswer<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn register_query(
        &mut self,
        query: &QueryPattern,
    ) -> graph_stream_matching::core::Result<QueryId> {
        self.inner.register_query(query)
    }
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        self.inner.apply_batch(updates)
    }
    fn stage_batch(&mut self, updates: &[Update]) -> StagedBatch {
        self.staged += 1;
        self.inner.stage_batch(updates)
    }
    fn answer_staged(&mut self, staged: StagedBatch) -> MatchReport {
        self.inner.answer_staged(staged)
    }
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        let task = self.inner.detach_staged(staged);
        let delay = if self.staged == 1 {
            Duration::from_millis(40)
        } else {
            Duration::from_millis(1)
        };
        DetachedAnswer::task(move || {
            std::thread::sleep(delay);
            task.run()
        })
    }
    fn absorb_answered(&mut self, report: &MatchReport) {
        self.inner.absorb_answered(report)
    }
    fn num_queries(&self) -> usize {
        self.inner.num_queries()
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
}

#[test]
fn completed_batches_stay_fifo_under_a_slow_answer_stage() {
    // Batch #0's answer sleeps 40 ms while batches #1.. are staged (and
    // their answers queued) behind it, as far as the window of
    // `answer_workers` allows. With one worker the queue drains FIFO by
    // construction; with two or four workers the later batches genuinely
    // *finish* 40 ms before batch #0 and park in the reorder buffer. Either way completion must
    // be arrival-ordered and the reports must tile the stream exactly like
    // an untimed run.
    let mut symbols = SymbolTable::new();
    let q = QueryPattern::parse("?a -e-> ?b; ?b -e-> ?c", &mut symbols).unwrap();
    let e = symbols.intern("e");
    let stream: Vec<Update> = (0..24u32)
        .map(|i| {
            Update::new(
                e,
                symbols.intern(&format!("v{}", i % 5)),
                symbols.intern(&format!("v{}", (i + 1) % 6)),
            )
        })
        .collect();

    // Reference: per-update reports from a plain engine.
    let mut reference = graph_stream_matching::tric::TricEngine::tric_plus();
    reference.register_query(&q).unwrap();
    let per_update: Vec<MatchReport> = stream.iter().map(|u| reference.apply_update(*u)).collect();

    for workers in [1usize, 2, 4] {
        let config = PipelineConfig::new(3, Duration::from_secs(60))
            .threaded()
            .with_answer_workers(workers);
        let mut pipe = PipelinedEngine::new(
            SlowFirstAnswer::new(graph_stream_matching::tric::TricEngine::tric_plus()),
            config,
        );
        pipe.register_query(&q).unwrap();
        let now = Instant::now();
        let mut completed = Vec::new();
        for &u in &stream {
            completed.extend(pipe.push_at(u, now));
        }
        completed.extend(pipe.drain());

        // 24 updates in flush-3 batches → 8 batches, in arrival order:
        // batch k covers updates 3k..3k+3 with exactly their merged report.
        assert_eq!(completed.len(), 8);
        let mut offset = 0;
        for (k, batch) in completed.iter().enumerate() {
            assert_eq!(
                batch.updates, 3,
                "batch #{k} has the wrong tile ({workers} workers)"
            );
            let expected = MatchReport::from_counts(
                per_update[offset..offset + 3]
                    .iter()
                    .flat_map(|r| r.matches.iter().map(|m| (m.query, m.new_embeddings)))
                    .collect(),
            );
            assert_eq!(
                batch.report, expected,
                "batch #{k} out of order or wrong ({workers} workers)"
            );
            offset += 3;
        }
        assert_eq!(pipe.stats().embeddings, reference.stats().embeddings);
    }
}

/// A wrapper injecting `thread::yield_now` at seeded-random points of the
/// stage phase and of every detached answer task, shaking out scheduling
/// assumptions between the batcher thread and the answer workers.
struct YieldInjector<E> {
    inner: E,
    state: u64,
}

impl<E> YieldInjector<E> {
    fn new(inner: E, seed: u64) -> Self {
        YieldInjector {
            inner,
            state: seed.max(1),
        }
    }
    fn chance(&mut self, one_in: u64) -> bool {
        // xorshift64* — deterministic per seed, no rand dependency needed.
        self.state ^= self.state >> 12;
        self.state ^= self.state << 25;
        self.state ^= self.state >> 27;
        self.state
            .wrapping_mul(0x2545F4914F6CDD1D)
            .is_multiple_of(one_in)
    }
}

impl<E: ContinuousEngine> ContinuousEngine for YieldInjector<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn register_query(
        &mut self,
        query: &QueryPattern,
    ) -> graph_stream_matching::core::Result<QueryId> {
        self.inner.register_query(query)
    }
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        self.inner.apply_batch(updates)
    }
    fn stage_batch(&mut self, updates: &[Update]) -> StagedBatch {
        if self.chance(3) {
            std::thread::yield_now();
        }
        self.inner.stage_batch(updates)
    }
    fn answer_staged(&mut self, staged: StagedBatch) -> MatchReport {
        self.inner.answer_staged(staged)
    }
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        let task = self.inner.detach_staged(staged);
        let yield_before = self.chance(2);
        let yield_after = self.chance(2);
        DetachedAnswer::task(move || {
            if yield_before {
                std::thread::yield_now();
            }
            let report = task.run();
            if yield_after {
                std::thread::yield_now();
            }
            report
        })
    }
    fn absorb_answered(&mut self, report: &MatchReport) {
        self.inner.absorb_answered(report)
    }
    fn num_queries(&self) -> usize {
        self.inner.num_queries()
    }
    fn heap_bytes(&self) -> usize {
        self.inner.heap_bytes()
    }
    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }
}

/// Seeded stress/soak for the persistent worker pool and the threaded
/// answer stage: long random streams, random flush sizes and deadlines,
/// random mid-stream polls and randomized thread-yield injection, composed
/// over the sharded engine (GSM_SHARDS, default 2). Iteration count scales
/// with `GSM_SOAK_ITERS`; gated behind `slow-tests` so the 1-core tier-1
/// debug suite keeps its budget.
#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "worker-pool soak; run with --features slow-tests (GSM_SOAK_ITERS scales it)"
)]
fn worker_pool_soak_randomized_streams_stay_equivalent() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let iterations: u64 = std::env::var("GSM_SOAK_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let shards = shard_counts()[0];

    for iteration in 0..iterations {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE + iteration);
        let updates = rng.gen_range(400..900);
        let queries = rng.gen_range(12..28);
        let workload = Workload::generate(
            WorkloadConfig::new(Dataset::Snb, updates, queries)
                .with_selectivity(0.3 + 0.4 * rng.gen::<f64>()),
        );

        // Sequential reference.
        let mut reference = graph_stream_matching::tric::TricEngine::tric_plus();
        for q in &workload.queries {
            reference.register_query(q).unwrap();
        }
        let per_update: Vec<MatchReport> = workload
            .stream
            .iter()
            .map(|u| reference.apply_update(*u))
            .collect();

        // Threaded pipeline over yield-injected sharded TRIC+.
        let flush = rng.gen_range(1..64);
        let delay_ticks = rng.gen_range(1..8u64);
        let tick_ms = rng.gen_range(0..3u64);
        let workers = rng.gen_range(1..5);
        let config = PipelineConfig::new(flush, Duration::from_millis(delay_ticks))
            .threaded()
            .with_answer_workers(workers);
        let engine = YieldInjector::new(
            graph_stream_matching::tric::TricEngine::tric_plus_sharded(shards),
            0xBAD5EED + iteration,
        );
        let mut pipe = PipelinedEngine::new(engine, config);
        for q in &workload.queries {
            pipe.register_query(q).unwrap();
        }

        let t0 = Instant::now();
        let mut completed = Vec::new();
        for (i, u) in workload.stream.iter().enumerate() {
            let now = t0 + Duration::from_millis(i as u64 * tick_ms);
            completed.extend(pipe.push_at(*u, now));
            // Random flush-deadline polls between pushes.
            if rng.gen_bool(0.05) {
                completed.extend(pipe.poll_at(now + Duration::from_millis(rng.gen_range(0..10))));
            }
        }
        completed.extend(pipe.drain());

        let mut offset = 0usize;
        for batch in &completed {
            let expected = MatchReport::from_counts(
                per_update[offset..offset + batch.updates]
                    .iter()
                    .flat_map(|r| r.matches.iter().map(|m| (m.query, m.new_embeddings)))
                    .collect(),
            );
            assert_eq!(
                batch.report, expected,
                "soak iteration {iteration} (flush {flush}, delay {delay_ticks}, {shards} shards, \
                 {workers} answer workers) diverged at updates {offset}.."
            );
            offset += batch.updates;
        }
        assert_eq!(offset, workload.stream.len(), "soak dropped updates");
        assert_eq!(
            pipe.stats().embeddings,
            reference.stats().embeddings,
            "soak iteration {iteration} embeddings diverged"
        );
    }
}
