//! Engine construction and the single-run driver.

use std::time::{Duration, Instant};

use gsm_baselines::BaselineEngine;
use gsm_core::engine::ContinuousEngine;
use gsm_datagen::Workload;
use gsm_graphdb::GraphDbEngine;
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
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Engine heap above which a run is cut and reported as not finished, like
/// a run over its time budget: the paper's 24-hour threshold also means "did
/// not finish", and one BioGRID run must not take several GB of the machine.
pub const MEMORY_BUDGET_BYTES: usize = 1 << 30;

/// Updates between two reads of the engine's heap footprint. A read walks
/// the engine's structures (tens of ms on a 1 GB TRIC engine), so it is
/// taken outside the per-update timer and the time budget.
pub const HEAP_READ_EVERY: usize = 64;

/// Per-update answering latencies of one run.
#[derive(Debug, Default)]
struct LatencyRecorder {
    samples: Vec<Duration>,
    total: Duration,
}

impl LatencyRecorder {
    fn with_capacity(n: usize) -> Self {
        Self {
            samples: Vec::with_capacity(n),
            total: Duration::ZERO,
        }
    }

    fn record(&mut self, d: Duration) {
        self.samples.push(d);
        self.total += d;
    }

    fn total(&self) -> Duration {
        self.total
    }

    /// The 95th-percentile latency in milliseconds (0.0 when empty).
    fn p95_ms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 - 1.0) * 0.95).round() as usize;
        sorted[rank].as_secs_f64() * 1e3
    }
}

/// The outcome of one (engine, workload) run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Engine name.
    pub engine: &'static str,
    /// Time spent registering the query set, total.
    pub indexing_total: Duration,
    /// Average query-insertion time in milliseconds.
    pub indexing_ms_per_query: f64,
    /// Average answering time per update in milliseconds.
    pub answer_ms_per_update: f64,
    /// 95th-percentile answering time per update in milliseconds.
    pub answer_p95_ms: f64,
    /// Updates processed before a budget cut the run.
    pub updates_processed: usize,
    /// Number of (query, update) notifications produced.
    pub notifications: u64,
    /// Total new embeddings reported.
    pub embeddings: u64,
    /// Engine heap footprint after the run, in bytes.
    pub heap_bytes: usize,
    /// True if the run hit the time budget before consuming the stream.
    pub timed_out: bool,
    /// True if the engine's heap passed [`MEMORY_BUDGET_BYTES`] before the
    /// run consumed the stream.
    pub over_memory: bool,
}

impl RunResult {
    /// The value the paper plots: mean answering time per update (ms), or
    /// `None` if a budget cut the run (plotted as an asterisk in the paper).
    pub fn plotted_value(&self) -> Option<f64> {
        if self.timed_out || self.over_memory {
            None
        } else {
            Some(self.answer_ms_per_update)
        }
    }
}

/// Registers the workload's queries and replays its stream against a fresh
/// engine of the given kind, one update at a time as in the paper: each
/// update is one timed [`ContinuousEngine::apply_batch`] call on a
/// one-update slice. The run stops once the timed calls add up to more than
/// `time_budget` (the stand-in for the paper's 24-hour threshold), or once
/// the engine's heap, read every [`HEAP_READ_EVERY`] updates, passes
/// [`MEMORY_BUDGET_BYTES`]; either cut reports the run as not finished.
pub fn run_engine(kind: EngineKind, workload: &Workload, time_budget: Duration) -> RunResult {
    run_within(kind, workload, time_budget, MEMORY_BUDGET_BYTES)
}

fn run_within(
    kind: EngineKind,
    workload: &Workload,
    time_budget: Duration,
    memory_budget: usize,
) -> RunResult {
    let mut engine = kind.build();

    // Query indexing phase.
    let index_start = Instant::now();
    for query in &workload.queries {
        engine
            .register_query(query)
            .expect("generated queries are valid");
    }
    let indexing_total = index_start.elapsed();

    // Query answering phase, one timed apply_batch call per update.
    let mut latencies = LatencyRecorder::with_capacity(workload.stream.len());
    let mut notifications = 0u64;
    let mut embeddings = 0u64;
    let mut processed = 0usize;
    let mut timed_out = false;
    let mut over_memory = false;
    for update in workload.stream.as_slice() {
        let t = Instant::now();
        let report = engine.apply_batch(std::slice::from_ref(update));
        latencies.record(t.elapsed());
        notifications += report.len() as u64;
        embeddings += report.total_embeddings();
        processed += 1;
        let unfinished = processed < workload.stream.len();
        if latencies.total() > time_budget {
            timed_out = unfinished;
            break;
        }
        if processed.is_multiple_of(HEAP_READ_EVERY) && engine.heap_bytes() > memory_budget {
            over_memory = unfinished;
            break;
        }
    }

    RunResult {
        engine: kind.name(),
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
        updates_processed: processed,
        notifications,
        embeddings,
        heap_bytes: engine.heap_bytes(),
        timed_out,
        over_memory,
    }
}

/// Convenience: runs several engines on the same workload.
pub fn run_engines(
    kinds: &[EngineKind],
    workload: &Workload,
    time_budget: Duration,
) -> Vec<RunResult> {
    kinds
        .iter()
        .map(|&k| run_engine(k, workload, time_budget))
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
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn run_engine_processes_the_whole_stream_within_budget() {
        let w = tiny_workload();
        let result = run_engine(EngineKind::TricPlus, &w, Duration::from_secs(30));
        assert_eq!(result.updates_processed, w.num_updates());
        assert!(!result.timed_out);
        assert!(!result.over_memory);
        assert!(result.heap_bytes > 0);
        assert!(result.answer_ms_per_update >= 0.0);
        assert!(result.plotted_value().is_some());
    }

    #[test]
    fn all_engines_report_identical_notification_totals() {
        let w = tiny_workload();
        let results = run_engines(&EngineKind::all(), &w, Duration::from_secs(60));
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
    fn zero_budget_times_out() {
        let w = tiny_workload();
        let result = run_engine(EngineKind::Inv, &w, Duration::ZERO);
        assert!(result.timed_out);
        assert!(!result.over_memory);
        assert!(result.updates_processed < w.num_updates());
        assert!(result.plotted_value().is_none());
    }

    #[test]
    fn one_byte_memory_budget_cuts_at_the_first_heap_read() {
        let w = tiny_workload();
        for kind in EngineKind::all() {
            let result = run_within(kind, &w, Duration::from_secs(60), 1);
            assert!(result.over_memory, "{kind}");
            assert!(!result.timed_out, "{kind}");
            assert_eq!(result.updates_processed, HEAP_READ_EVERY, "{kind}");
            assert!(result.heap_bytes > 1, "{kind}");
            assert!(result.plotted_value().is_none(), "{kind}");
        }
    }

    #[test]
    fn a_stream_that_ends_by_the_first_heap_read_finishes_within_a_one_byte_budget() {
        for len in [HEAP_READ_EVERY - 1, HEAP_READ_EVERY] {
            let mut w = tiny_workload();
            w.stream.truncate(len);
            let result = run_within(EngineKind::TricPlus, &w, Duration::from_secs(60), 1);
            assert_eq!(result.updates_processed, len);
            assert!(!result.over_memory, "{len} updates");
            assert!(!result.timed_out, "{len} updates");
            assert!(result.plotted_value().is_some(), "{len} updates");
        }
    }

    #[test]
    fn latency_recorder_sums_and_ranks_its_samples() {
        assert_eq!(LatencyRecorder::default().p95_ms(), 0.0);
        let mut r = LatencyRecorder::with_capacity(100);
        for v in (1..=100).rev() {
            r.record(Duration::from_millis(v));
        }
        assert_eq!(r.total(), Duration::from_millis(5050));
        assert!((r.p95_ms() - 95.0).abs() < 1e-9);
    }
}
