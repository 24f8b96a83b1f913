//! Engine construction and the single-run driver.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gsm_baselines::BaselineEngine;
use gsm_core::engine::ContinuousEngine;
use gsm_core::pipeline::{PipelineConfig, PipelinedEngine};
use gsm_core::shard::ShardedEngine;
use gsm_core::stats::LatencyRecorder;
use gsm_datagen::Workload;
use gsm_graphdb::GraphDbEngine;
use gsm_persist::{DirFactory, PersistConfig, PersistentEngine};
use gsm_tric::TricEngine;

/// The seven engines evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// TRIC (trie-based clustering).
    Tric,
    /// TRIC+ (TRIC with join-structure caching).
    TricPlus,
    /// INV (inverted index, full path joins).
    Inv,
    /// INV+ (INV with join-structure caching).
    InvPlus,
    /// INC (inverted index, update-seeded path joins).
    Inc,
    /// INC+ (INC with join-structure caching).
    IncPlus,
    /// The graph-database baseline (Neo4j substitute).
    GraphDb,
}

impl EngineKind {
    /// All engines, in the order the paper lists them.
    pub fn all() -> Vec<EngineKind> {
        vec![
            EngineKind::Tric,
            EngineKind::TricPlus,
            EngineKind::Inv,
            EngineKind::InvPlus,
            EngineKind::Inc,
            EngineKind::IncPlus,
            EngineKind::GraphDb,
        ]
    }

    /// The subset used for the paper's large-graph experiments
    /// (Fig. 13(a), Fig. 14(c)): TRIC, TRIC+ and the graph database.
    pub fn large_graph_subset() -> Vec<EngineKind> {
        vec![EngineKind::Tric, EngineKind::TricPlus, EngineKind::GraphDb]
    }

    /// Stable display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Tric => "TRIC",
            EngineKind::TricPlus => "TRIC+",
            EngineKind::Inv => "INV",
            EngineKind::InvPlus => "INV+",
            EngineKind::Inc => "INC",
            EngineKind::IncPlus => "INC+",
            EngineKind::GraphDb => "GraphDB",
        }
    }

    /// Builds a fresh engine instance.
    pub fn build(&self) -> Box<dyn ContinuousEngine + Send> {
        match self {
            EngineKind::Tric => Box::new(TricEngine::tric()),
            EngineKind::TricPlus => Box::new(TricEngine::tric_plus()),
            EngineKind::Inv => Box::new(BaselineEngine::inv()),
            EngineKind::InvPlus => Box::new(BaselineEngine::inv_plus()),
            EngineKind::Inc => Box::new(BaselineEngine::inc()),
            EngineKind::IncPlus => Box::new(BaselineEngine::inc_plus()),
            EngineKind::GraphDb => Box::new(GraphDbEngine::new()),
        }
    }

    /// Builds a fresh engine partitioned across `shards` worker shards by
    /// root generic edge ([`gsm_core::shard::ShardedEngine`]). `shards <= 1`
    /// returns the plain engine — no wrapper, no routing, no overhead — so
    /// the default harness configuration measures exactly what it always
    /// measured.
    pub fn build_sharded(&self, shards: usize) -> Box<dyn ContinuousEngine + Send> {
        if shards <= 1 {
            return self.build();
        }
        let kind = *self;
        Box::new(ShardedEngine::new(shards, move || kind.build()))
    }

    /// Parses an engine name (case-insensitive, `+` accepted).
    pub fn parse(name: &str) -> Option<EngineKind> {
        let n = name.trim().to_ascii_uppercase();
        Some(match n.as_str() {
            "TRIC" => EngineKind::Tric,
            "TRIC+" => EngineKind::TricPlus,
            "INV" => EngineKind::Inv,
            "INV+" => EngineKind::InvPlus,
            "INC" => EngineKind::Inc,
            "INC+" => EngineKind::IncPlus,
            "GRAPHDB" | "NEO4J" => EngineKind::GraphDb,
            _ => return None,
        })
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Execution parameters of a single engine run: the stand-in for the paper's
/// 24-hour execution-time threshold, plus the answering batch size.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Maximum wall-clock time spent answering the stream before the run is
    /// declared timed out.
    pub time_budget: Duration,
    /// Number of updates handed to [`ContinuousEngine::apply_batch`] per
    /// call. `1` reproduces the paper's one-update-at-a-time answering; `0`
    /// means a single batch spanning the whole stream. The time budget is
    /// checked **between** batch calls (a batch is all-or-nothing, since a
    /// partial batch has no well-defined report), so large batch sizes
    /// coarsen timeout enforcement — with `0` the budget is effectively
    /// advisory.
    pub batch_size: usize,
    /// Number of worker shards the engine is partitioned into by root
    /// generic edge. `1` (the default) runs the plain unsharded engine.
    pub shards: usize,
    /// When set, the stream is driven through the pipelined streaming
    /// executor ([`gsm_core::pipeline::PipelinedEngine`]) instead of plain
    /// `apply_batch` chunking: `batch_size` becomes the batcher's flush
    /// size and this duration its flush deadline. `None` (the default)
    /// reproduces the historical chunked replay exactly.
    pub pipeline: Option<Duration>,
    /// Number of threads the pipelined executor may use: `>= 2` hands
    /// each batch's report back through the answer workers
    /// ([`gsm_core::pipeline::PipelineConfig::answer_thread`]); every
    /// engine answers a batch where it stages it, so only the hand-back
    /// moves. `1` (the default) completes each batch inline on the
    /// calling thread. Ignored without `pipeline`.
    pub threads: usize,
    /// Number of answer workers of the threaded pipelined executor
    /// ([`gsm_core::pipeline::PipelineConfig::answer_workers`]): with more
    /// than one, detached answer tasks run concurrently and the reorder
    /// buffer restores arrival order. Ignored unless `pipeline` is set and
    /// `threads >= 2`. Mirrors `--answer-threads` / `GSM_ANSWER_THREADS`.
    pub answer_threads: usize,
    /// When set, the engine is wrapped in a
    /// [`gsm_persist::PersistentEngine`] over a [`DirFactory`] namespace, so
    /// the run pays the write-ahead-log and checkpoint costs the persistence
    /// layer adds. Mirrors `--persist-dir` / `--checkpoint-every`. The
    /// wrapper sits **outside** the (possibly sharded) engine and **inside**
    /// the pipelined front end, the crash-suite composition.
    pub persist: Option<PersistRun>,
}

/// Persistence settings of a run (see [`RunLimits::persist`]). The directory
/// is a `&'static str` so [`RunLimits`] stays `Copy`; the CLI leaks its one
/// path argument to obtain it.
#[derive(Debug, Clone, Copy)]
pub struct PersistRun {
    /// Directory holding the WAL stripes and checkpoint files.
    pub dir: &'static str,
    /// Auto-checkpoint cadence in batches (0 = never, WAL only).
    pub checkpoint_every: u64,
    /// Logged updates per group-commit fsync (1 = every record; a batch
    /// record counts its updates).
    pub group_commit: usize,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            time_budget: Duration::from_secs(20),
            batch_size: 1,
            shards: 1,
            pipeline: None,
            threads: 1,
            answer_threads: 1,
            persist: None,
        }
    }
}

impl RunLimits {
    /// A limits object with the given time budget in seconds and per-update
    /// (batch size 1) answering.
    pub fn seconds(secs: u64) -> Self {
        RunLimits {
            time_budget: Duration::from_secs(secs),
            ..Default::default()
        }
    }

    /// Sets the answering batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the number of worker shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Routes the stream through the pipelined streaming executor with the
    /// given flush deadline (`batch_size` is the flush size).
    pub fn with_pipeline(mut self, flush: Duration) -> Self {
        self.pipeline = Some(flush);
        self
    }

    /// Sets the pipelined executor's thread count (`>= 2` moves the answer
    /// phase onto the answer workers).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the threaded pipelined executor's answer-worker count.
    pub fn with_answer_threads(mut self, answer_threads: usize) -> Self {
        self.answer_threads = answer_threads.max(1);
        self
    }

    /// Wraps the run's engine in the durable persistence layer: WAL stripes
    /// (one per shard) and checkpoint files under `dir`, auto-checkpointing
    /// every `checkpoint_every` batches (0 = never), fsyncing once
    /// `group_commit` updates are unsynced.
    pub fn with_persistence(
        mut self,
        dir: &'static str,
        checkpoint_every: u64,
        group_commit: usize,
    ) -> Self {
        self.persist = Some(PersistRun {
            dir,
            checkpoint_every,
            group_commit: group_commit.max(1),
        });
        self
    }
}

/// The outcome of one (engine, workload) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Engine name.
    pub engine: &'static str,
    /// Workload name.
    pub workload: String,
    /// Answering batch size used for the run (1 = per-update answering).
    pub batch_size: usize,
    /// Number of worker shards used for the run (1 = unsharded).
    pub shards: usize,
    /// True if the stream was driven through the pipelined executor.
    pub pipelined: bool,
    /// Threads used by the pipelined executor (1 = inline answering).
    pub threads: usize,
    /// Answer workers used by the threaded pipelined executor (1 unless
    /// pipelined with `threads >= 2`).
    pub answer_threads: usize,
    /// Time spent registering the query set, total.
    pub indexing_total: Duration,
    /// Average query-insertion time in milliseconds.
    pub indexing_ms_per_query: f64,
    /// Average answering time per update in milliseconds (total answering
    /// time divided by updates, whatever the batch size).
    pub answer_ms_per_update: f64,
    /// 95th-percentile answering time per `apply_batch` call in
    /// milliseconds (per update when the batch size is 1).
    pub answer_p95_ms: f64,
    /// Total answering wall-clock time.
    pub answering_total: Duration,
    /// Updates processed before the budget expired.
    pub updates_processed: usize,
    /// Number of (query, update) notifications produced.
    pub notifications: u64,
    /// Total new embeddings reported.
    pub embeddings: u64,
    /// Engine heap footprint after the run, in bytes.
    pub heap_bytes: usize,
    /// True if the run hit the time budget before consuming the stream.
    pub timed_out: bool,
}

impl RunResult {
    /// The value the paper plots: mean answering time per update (ms), or
    /// `None` if the engine timed out (plotted as an asterisk in the paper).
    pub fn plotted_value(&self) -> Option<f64> {
        if self.timed_out {
            None
        } else {
            Some(self.answer_ms_per_update)
        }
    }
}

/// Builds the run's engine: the (possibly sharded) engine for `kind`,
/// wrapped in the durable persistence layer when `limits.persist` is set.
///
/// Every run gets its own fresh namespace under the configured directory —
/// re-opening an existing one would *recover* the previous run's state
/// instead of starting empty, which is the crash suite's job to exercise,
/// not the benchmark's.
fn build_run_engine(kind: EngineKind, limits: RunLimits) -> Box<dyn ContinuousEngine + Send> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

    let Some(persist) = limits.persist else {
        return kind.build_sharded(limits.shards);
    };
    let run_dir = PathBuf::from(persist.dir).join(format!(
        "{}-run{:04}",
        kind.name(),
        RUN_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let factory = DirFactory::new(run_dir).expect("create persistence directory");
    let config = PersistConfig::default()
        .with_group_commit(persist.group_commit)
        .with_checkpoint_every(persist.checkpoint_every)
        .with_wal_stripes(limits.shards.max(1));
    let shards = limits.shards;
    let (engine, _report) = PersistentEngine::open(Box::new(factory), config, move || {
        kind.build_sharded(shards)
    })
    .expect("open persistent engine");
    Box::new(engine)
}

/// Registers the workload's queries and replays its stream against a fresh
/// engine of the given kind, honouring the time budget. The stream is fed
/// through [`ContinuousEngine::apply_batch`] in chunks of
/// `limits.batch_size` updates — size 1 reproduces the paper's per-update
/// answering exactly (engines fall back to `apply_update` for singleton
/// batches).
pub fn run_engine(kind: EngineKind, workload: &Workload, limits: RunLimits) -> RunResult {
    if let Some(flush) = limits.pipeline {
        return run_engine_pipelined(kind, workload, limits, flush);
    }
    let mut engine = build_run_engine(kind, limits);

    // Query indexing phase.
    let index_start = Instant::now();
    for query in &workload.queries {
        engine
            .register_query(query)
            .expect("generated queries are valid");
    }
    let indexing_total = index_start.elapsed();

    // Query answering phase, one timed apply_batch call per chunk.
    let chunk = if limits.batch_size == 0 {
        workload.stream.len().max(1)
    } else {
        limits.batch_size
    };
    let mut latencies = LatencyRecorder::with_capacity(workload.stream.len() / chunk + 1);
    let mut notifications = 0u64;
    let mut embeddings = 0u64;
    let mut processed = 0usize;
    let mut timed_out = false;
    let answering_start = Instant::now();
    for batch in workload.stream.as_slice().chunks(chunk) {
        let t = Instant::now();
        let report = engine.apply_batch(batch);
        latencies.record(t.elapsed());
        notifications += report.len() as u64;
        embeddings += report.total_embeddings();
        processed += batch.len();
        if answering_start.elapsed() > limits.time_budget {
            timed_out = processed < workload.stream.len();
            break;
        }
    }
    let answering_total = answering_start.elapsed();

    RunResult {
        engine: kind.name(),
        workload: workload.name.clone(),
        batch_size: chunk,
        shards: limits.shards.max(1),
        pipelined: false,
        threads: 1,
        answer_threads: 1,
        indexing_total,
        indexing_ms_per_query: if workload.queries.is_empty() {
            0.0
        } else {
            indexing_total.as_secs_f64() * 1e3 / workload.queries.len() as f64
        },
        answer_ms_per_update: if processed == 0 {
            0.0
        } else {
            latencies.total().as_secs_f64() * 1e3 / processed as f64
        },
        answer_p95_ms: latencies.p95_ms(),
        answering_total,
        updates_processed: processed,
        notifications,
        embeddings,
        heap_bytes: engine.heap_bytes(),
        timed_out,
    }
}

/// The pipelined variant of [`run_engine`]: the stream is pushed update by
/// update into a [`PipelinedEngine`] whose batcher flushes at
/// `limits.batch_size` updates or after `flush`, whichever comes first; with
/// `limits.threads >= 2` reports come back through the answer workers.
/// Latencies are recorded per `push` call (the streaming caller's view:
/// most pushes just buffer, the flushing push pays the stage, which
/// answers), and the final drain is timed too.
fn run_engine_pipelined(
    kind: EngineKind,
    workload: &Workload,
    limits: RunLimits,
    flush: Duration,
) -> RunResult {
    let engine = build_run_engine(kind, limits);
    let chunk = if limits.batch_size == 0 {
        workload.stream.len().max(1)
    } else {
        limits.batch_size
    };
    let mut config = PipelineConfig::new(chunk, flush);
    if limits.threads >= 2 {
        config = config.threaded().with_answer_workers(limits.answer_threads);
    }
    let mut pipe = PipelinedEngine::new(engine, config);

    // Query indexing phase.
    let index_start = Instant::now();
    for query in &workload.queries {
        pipe.register_query(query)
            .expect("generated queries are valid");
    }
    let indexing_total = index_start.elapsed();

    // Streaming answering phase.
    let mut latencies = LatencyRecorder::with_capacity(workload.stream.len() + 1);
    let mut notifications = 0u64;
    let mut embeddings = 0u64;
    let mut processed = 0usize;
    let mut timed_out = false;
    let answering_start = Instant::now();
    for u in workload.stream.iter() {
        let t = Instant::now();
        let done = pipe.push(*u);
        latencies.record(t.elapsed());
        for b in &done {
            notifications += b.report.len() as u64;
            embeddings += b.report.total_embeddings();
        }
        processed += 1;
        if answering_start.elapsed() > limits.time_budget {
            timed_out = processed < workload.stream.len();
            break;
        }
    }
    // Drain the window so every pushed update is answered.
    let t = Instant::now();
    let done = pipe.drain();
    latencies.record(t.elapsed());
    for b in &done {
        notifications += b.report.len() as u64;
        embeddings += b.report.total_embeddings();
    }
    let answering_total = answering_start.elapsed();

    RunResult {
        engine: kind.name(),
        workload: workload.name.clone(),
        batch_size: chunk,
        shards: limits.shards.max(1),
        pipelined: true,
        threads: limits.threads.max(1),
        answer_threads: if limits.threads >= 2 {
            limits.answer_threads.max(1)
        } else {
            1
        },
        indexing_total,
        indexing_ms_per_query: if workload.queries.is_empty() {
            0.0
        } else {
            indexing_total.as_secs_f64() * 1e3 / workload.queries.len() as f64
        },
        answer_ms_per_update: if processed == 0 {
            0.0
        } else {
            latencies.total().as_secs_f64() * 1e3 / processed as f64
        },
        answer_p95_ms: latencies.p95_ms(),
        answering_total,
        updates_processed: processed,
        notifications,
        embeddings,
        heap_bytes: pipe.heap_bytes(),
        timed_out,
    }
}

/// Convenience: runs several engines on the same workload.
pub fn run_engines(kinds: &[EngineKind], workload: &Workload, limits: RunLimits) -> Vec<RunResult> {
    kinds
        .iter()
        .map(|&k| run_engine(k, workload, limits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsm_datagen::{Dataset, WorkloadConfig};

    fn tiny_workload() -> Workload {
        Workload::generate(WorkloadConfig::new(Dataset::Snb, 500, 15).with_query_size(3))
    }

    #[test]
    fn engine_kinds_roundtrip_names() {
        for kind in EngineKind::all() {
            assert_eq!(EngineKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(EngineKind::parse("neo4j"), Some(EngineKind::GraphDb));
        assert_eq!(EngineKind::parse("bogus"), None);
    }

    #[test]
    fn run_engine_processes_the_whole_stream_within_budget() {
        let w = tiny_workload();
        let result = run_engine(EngineKind::TricPlus, &w, RunLimits::seconds(30));
        assert_eq!(result.updates_processed, w.num_updates());
        assert!(!result.timed_out);
        assert!(result.heap_bytes > 0);
        assert!(result.answer_ms_per_update >= 0.0);
        assert!(result.plotted_value().is_some());
    }

    #[test]
    fn all_engines_report_identical_notification_totals() {
        let w = tiny_workload();
        let results = run_engines(&EngineKind::all(), &w, RunLimits::seconds(60));
        let reference = results[0].notifications;
        for r in &results {
            assert!(!r.timed_out, "{} timed out on a tiny workload", r.engine);
            assert_eq!(
                r.notifications, reference,
                "{} disagrees on notification count",
                r.engine
            );
            assert_eq!(r.embeddings, results[0].embeddings, "{}", r.engine);
        }
    }

    #[test]
    fn batched_runs_process_the_same_stream() {
        let w = tiny_workload();
        let reference = run_engine(EngineKind::TricPlus, &w, RunLimits::seconds(30));
        for batch_size in [16usize, 0] {
            let r = run_engine(
                EngineKind::TricPlus,
                &w,
                RunLimits::seconds(30).with_batch_size(batch_size),
            );
            assert!(!r.timed_out);
            assert_eq!(r.updates_processed, w.num_updates());
            // Batch answering must report exactly the same embeddings; the
            // notification count is batch-granular and therefore ≤ per-update.
            assert_eq!(r.embeddings, reference.embeddings, "batch {batch_size}");
            assert!(r.notifications <= reference.notifications);
            assert_eq!(
                r.batch_size,
                if batch_size == 0 {
                    w.num_updates()
                } else {
                    batch_size
                }
            );
        }
    }

    #[test]
    fn sharded_runs_report_the_same_embeddings() {
        let w = tiny_workload();
        let reference = run_engine(EngineKind::TricPlus, &w, RunLimits::seconds(30));
        assert_eq!(reference.shards, 1);
        for shards in [2usize, 4] {
            let r = run_engine(
                EngineKind::TricPlus,
                &w,
                RunLimits::seconds(30).with_shards(shards),
            );
            assert!(!r.timed_out);
            assert_eq!(r.shards, shards);
            assert_eq!(r.updates_processed, w.num_updates());
            assert_eq!(r.embeddings, reference.embeddings, "shards {shards}");
            assert_eq!(r.notifications, reference.notifications, "shards {shards}");
        }
    }

    #[test]
    fn pipelined_runs_report_the_same_embeddings() {
        let w = tiny_workload();
        let reference = run_engine(EngineKind::TricPlus, &w, RunLimits::seconds(30));
        assert!(!reference.pipelined);
        for batch_size in [1usize, 16] {
            let r = run_engine(
                EngineKind::TricPlus,
                &w,
                RunLimits::seconds(30)
                    .with_batch_size(batch_size)
                    .with_pipeline(Duration::from_millis(5)),
            );
            assert!(r.pipelined);
            assert!(!r.timed_out);
            assert_eq!(r.updates_processed, w.num_updates());
            // The pipeline answers every update exactly once, so the
            // embedding total matches sequential execution; notification
            // granularity is per completed batch and therefore ≤ per-update.
            assert_eq!(r.embeddings, reference.embeddings, "batch {batch_size}");
            assert!(r.notifications <= reference.notifications);
        }
        // Pipeline × sharding composition through the harness entry point.
        let r = run_engine(
            EngineKind::TricPlus,
            &w,
            RunLimits::seconds(30)
                .with_batch_size(16)
                .with_shards(2)
                .with_pipeline(Duration::from_millis(5)),
        );
        assert!(r.pipelined && !r.timed_out);
        assert_eq!(r.embeddings, reference.embeddings);

        // Threaded answer stage (with and without sharding): same
        // embeddings, `threads` recorded in the result.
        for shards in [1usize, 2] {
            let r = run_engine(
                EngineKind::TricPlus,
                &w,
                RunLimits::seconds(30)
                    .with_batch_size(16)
                    .with_shards(shards)
                    .with_pipeline(Duration::from_millis(5))
                    .with_threads(2),
            );
            assert!(r.pipelined && !r.timed_out);
            assert_eq!(r.threads, 2);
            assert_eq!(r.embeddings, reference.embeddings, "shards {shards}");
        }

        // Multi-worker answer stage: same embeddings, worker count recorded
        // (and clamped to 1 when the pipeline is inline).
        let r = run_engine(
            EngineKind::TricPlus,
            &w,
            RunLimits::seconds(30)
                .with_batch_size(16)
                .with_pipeline(Duration::from_millis(5))
                .with_threads(2)
                .with_answer_threads(4),
        );
        assert!(r.pipelined && !r.timed_out);
        assert_eq!(r.answer_threads, 4);
        assert_eq!(r.embeddings, reference.embeddings);
        let r = run_engine(
            EngineKind::TricPlus,
            &w,
            RunLimits::seconds(30)
                .with_batch_size(16)
                .with_pipeline(Duration::from_millis(5))
                .with_answer_threads(4),
        );
        assert_eq!(r.answer_threads, 1, "inline pipeline has no answer pool");
        assert_eq!(r.embeddings, reference.embeddings);
    }

    #[test]
    fn zero_budget_times_out() {
        let w = tiny_workload();
        let result = run_engine(
            EngineKind::Inv,
            &w,
            RunLimits {
                time_budget: Duration::ZERO,
                batch_size: 1,
                shards: 1,
                pipeline: None,
                threads: 1,
                answer_threads: 1,
                persist: None,
            },
        );
        assert!(result.timed_out);
        assert!(result.updates_processed < w.num_updates());
        assert!(result.plotted_value().is_none());
    }
}
