//! Engine construction and the single-run driver.

use std::time::{Duration, Instant};

use gsm_baselines::BaselineEngine;
use gsm_core::engine::ContinuousEngine;
use gsm_core::shard::ShardedEngine;
use gsm_core::stats::LatencyRecorder;
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

    /// Builds a fresh engine partitioned across `shards` worker shards by
    /// root generic edge ([`gsm_core::shard::ShardedEngine`]). `shards <= 1`
    /// returns the plain engine — no wrapper, no routing, no overhead. The
    /// figure runs never shard; the `hotpath_shards` bench does.
    pub fn build_sharded(&self, shards: usize) -> Box<dyn ContinuousEngine + Send> {
        if shards <= 1 {
            return self.build();
        }
        let kind = *self;
        Box::new(ShardedEngine::new(shards, move || kind.build()))
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
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

/// Registers the workload's queries and replays its stream against a fresh
/// engine of the given kind, one update at a time as in the paper: each
/// update is one timed [`ContinuousEngine::apply_batch`] call on a
/// one-update slice. The run stops once answering has taken longer than
/// `time_budget` (the stand-in for the paper's 24-hour threshold) and is
/// then reported as timed out.
pub fn run_engine(kind: EngineKind, workload: &Workload, time_budget: Duration) -> RunResult {
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
    let answering_start = Instant::now();
    for update in workload.stream.as_slice() {
        let t = Instant::now();
        let report = engine.apply_batch(std::slice::from_ref(update));
        latencies.record(t.elapsed());
        notifications += report.len() as u64;
        embeddings += report.total_embeddings();
        processed += 1;
        if answering_start.elapsed() > time_budget {
            timed_out = processed < workload.stream.len();
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
        assert!(result.updates_processed < w.num_updates());
        assert!(result.plotted_value().is_none());
    }
}
