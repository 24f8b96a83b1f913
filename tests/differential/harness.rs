//! The harness: one per-update reference per case, one fixed composition
//! matrix, one tile check.
//!
//! The reference is the graph-database baseline: it keeps the graph on std
//! collections and answers each update by backtracking over it, sharing no
//! routing, propagation, relation or join code with the six engines under
//! test. [`Case::replay`] feeds the stream to all seven once, one update at
//! a time; every other engine must report exactly what GraphDB reports,
//! stats included, and GraphDB's per-update reports become the reference.
//! A composition then drives a fresh engine of each kind over the same
//! stream and yields *tiles* — `(updates covered, report)` pairs in stream
//! order. Every tile must equal the [`MatchReport::merge`] of the reference
//! reports of exactly the updates it covers (new and retracted counts
//! alike), and the tiles must cover the stream once. The reference's net
//! per-query totals must also equal a from-scratch count of each query's
//! embeddings in the surviving edges.

use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use graph_stream_matching::core::prelude::*;
use graph_stream_matching::core::{EngineStats, ShardedEngine};
use graph_stream_matching::datagen::workload::StreamVariant;
use graph_stream_matching::datagen::{Workload, WorkloadConfig};
use graph_stream_matching::graphdb::matcher::count_embeddings;
use graph_stream_matching::graphdb::GraphStore;
use graph_stream_matching::{all_engine_factories, all_engines};

/// `apply_batch` chunk sizes: single updates, two odd sizes that never
/// divide a stream evenly (so mixed chunks straddle sign boundaries and the
/// last chunk is short), and the whole stream as one batch.
const CHUNKS: [usize; 4] = [1, 3, 17, usize::MAX];

/// Shard counts of the sharded family: the one-shard wrapper (routing and
/// id translation with nothing to partition) and four partitioned ones.
const SHARDS: [usize; 5] = [1, 2, 3, 4, 8];

/// Shard counts the pipeline runs over in the pipelined-over-sharded
/// family: every flush policy inline at each, and threaded at
/// [`THREADED_PIPELINE_SHARDS`].
const PIPELINE_SHARDS: [usize; 4] = [1, 2, 3, 8];

/// The shard count at which the pipelined-over-sharded family also runs
/// every answer-worker count.
const THREADED_PIPELINE_SHARDS: usize = 2;

/// A pipeline flush policy under a synthetic clock that advances `tick_ms`
/// milliseconds per pushed update.
#[derive(Debug, Clone, Copy)]
struct Flush {
    /// Flush when this many updates are buffered.
    max_batch: usize,
    /// Flush when the oldest buffered update has waited this many ticks.
    delay_ticks: u64,
    /// Clock advance per pushed update, in milliseconds.
    tick_ms: u64,
}

const fn flush(max_batch: usize, delay_ticks: u64, tick_ms: u64) -> Flush {
    Flush {
        max_batch,
        delay_ticks,
        tick_ms,
    }
}

/// Pipeline flush policies: singleton flushes, size-driven flushes (the
/// deadline never fires), deadline-driven flushes (the buffer never fills)
/// and both bounds firing.
const FLUSHES: [Flush; 4] = [
    flush(1, 1_000, 0),
    flush(7, 1_000, 0),
    flush(1_000, 5, 1),
    flush(10, 3, 1),
];

/// Where the pipelines answer: inline (0), or through the single-worker
/// FIFO or two worker counts where workers finish out of order and the
/// reorder buffer restores arrival order. Threading changes where a report
/// is handed back, not how the stream is segmented.
const ANSWER_WORKERS: [usize; 4] = [0, 1, 2, 4];

/// How a composition feeds the stream to its engine.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `apply_batch` over consecutive chunks of this many updates.
    Chunks(usize),
    /// A [`PipelinedEngine`] under this flush policy, answering inline
    /// (`workers == 0`) or through that many answer workers.
    Pipeline { flush: Flush, workers: usize },
}

/// One row of the matrix: an engine, optionally behind a
/// [`ShardedEngine`], fed by one [`Drive`].
#[derive(Debug, Clone, Copy)]
pub struct Composition {
    shards: Option<usize>,
    drive: Drive,
}

/// The compositions of one family, run on every case.
pub type Family = fn() -> Vec<Composition>;

/// The reference replay and its checks alone.
pub fn agree() -> Vec<Composition> {
    Vec::new()
}

/// The bare engine at every chunk size.
pub fn batched() -> Vec<Composition> {
    CHUNKS
        .into_iter()
        .map(|chunk| Composition {
            shards: None,
            drive: Drive::Chunks(chunk),
        })
        .collect()
}

/// The sharded wrapper at every shard count and chunk size.
pub fn sharded() -> Vec<Composition> {
    SHARDS
        .into_iter()
        .flat_map(|shards| {
            CHUNKS.into_iter().map(move |chunk| Composition {
                shards: Some(shards),
                drive: Drive::Chunks(chunk),
            })
        })
        .collect()
}

/// The pipeline over the bare engine, inline and threaded.
pub fn pipelined() -> Vec<Composition> {
    pipelines(None, &ANSWER_WORKERS)
}

/// The pipeline over the sharded wrapper, inline at every pipeline shard
/// count and threaded at one.
pub fn pipelined_sharded() -> Vec<Composition> {
    PIPELINE_SHARDS
        .into_iter()
        .flat_map(|shards| {
            let workers: &[usize] = if shards == THREADED_PIPELINE_SHARDS {
                &ANSWER_WORKERS
            } else {
                &[0]
            };
            pipelines(Some(shards), workers)
        })
        .collect()
}

/// Every flush policy at every one of `workers`.
fn pipelines(shards: Option<usize>, workers: &[usize]) -> Vec<Composition> {
    FLUSHES
        .into_iter()
        .flat_map(|flush| {
            workers.iter().map(move |&workers| Composition {
                shards,
                drive: Drive::Pipeline { flush, workers },
            })
        })
        .collect()
}

/// A query set, a stream and the per-update reference all seven engines
/// agreed on.
pub struct Case {
    name: String,
    queries: Vec<QueryPattern>,
    stream: Vec<Update>,
    /// GraphDB's report for each update, one `apply_update` at a time.
    per_update: Vec<MatchReport>,
    /// GraphDB's stats after the replay.
    stats: EngineStats,
}

impl Case {
    /// The reference replay of a generated workload. A workload generated
    /// with deletions or a sliding window must carry retractions.
    pub fn generate(config: WorkloadConfig) -> Case {
        let workload = Workload::generate(config);
        assert!(
            config.variant == StreamVariant::InsertOnly
                || workload.stream.iter().any(Update::is_retraction),
            "{} exercises no retractions — the workload variant is miswired",
            workload.name
        );
        Case::replay(
            workload.name,
            workload.queries,
            workload.stream.as_slice().to_vec(),
        )
    }

    /// Replays `stream` against every engine, one update at a time,
    /// asserting that each reports what GraphDB reports and ends with
    /// GraphDB's stats, then runs the net check.
    pub fn replay(
        name: impl Into<String>,
        queries: Vec<QueryPattern>,
        stream: Vec<Update>,
    ) -> Case {
        let name = name.into();
        let mut engines = all_engines();
        let at = engines
            .iter()
            .position(|e| e.name() == "GraphDB")
            .expect("GraphDB is one of the engines");
        let mut reference = engines.remove(at);
        register(&mut reference, &queries);
        for engine in engines.iter_mut() {
            register(engine, &queries);
        }
        let per_update: Vec<MatchReport> = stream
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                let expected = reference.apply_update(u);
                for engine in engines.iter_mut() {
                    assert_eq!(
                        engine.apply_update(u),
                        expected,
                        "{} disagrees with GraphDB on update #{i} ({u:?}) of {name}",
                        engine.name()
                    );
                }
                expected
            })
            .collect();
        let stats = reference.stats();
        for engine in &engines {
            assert_eq!(
                engine.stats(),
                stats,
                "{} stats differ from GraphDB's on {name}",
                engine.name()
            );
        }
        let case = Case {
            name,
            queries,
            stream,
            per_update,
            stats,
        };
        case.check_net();
        case
    }

    /// The queries, in registration order.
    pub fn queries(&self) -> &[QueryPattern] {
        &self.queries
    }

    /// The stream.
    pub fn stream(&self) -> &[Update] {
        &self.stream
    }

    /// Drives every composition of `family` with a fresh engine of each
    /// kind and checks what it reports.
    pub fn check(&self, family: Family) {
        for composition in family() {
            for factory in all_engine_factories() {
                let engine: Box<dyn ContinuousEngine + Send> = match composition.shards {
                    None => factory(),
                    Some(n) => Box::new(ShardedEngine::new(n, factory)),
                };
                let label = format!("{} under {composition:?}", engine.name());
                match composition.drive {
                    Drive::Chunks(chunk) => self.check_batches(&label, engine, &[chunk]),
                    Drive::Pipeline { flush, workers } => {
                        let mut config = PipelineConfig::new(
                            flush.max_batch,
                            Duration::from_millis(flush.delay_ticks),
                        );
                        if workers > 0 {
                            config = config.threaded().with_answer_workers(workers);
                        }
                        self.check_pipeline(&label, engine, config, |i| i as u64 * flush.tick_ms);
                    }
                }
            }
        }
    }

    /// Registers the queries on `engine`, feeds it the stream in consecutive
    /// batches whose lengths cycle through `lens` (the last one cut short),
    /// and checks the reports.
    pub fn check_batches(&self, label: &str, mut engine: impl ContinuousEngine, lens: &[usize]) {
        register(&mut engine, &self.queries);
        let mut tiles = Vec::new();
        let mut rest = self.stream.as_slice();
        for &len in lens.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(len.clamp(1, rest.len()));
            tiles.push((batch.len(), engine.apply_batch(batch)));
            rest = tail;
        }
        self.check_tiles(label, &tiles, engine.stats());
    }

    /// Registers the queries on a [`PipelinedEngine`] over `engine`, pushes
    /// update `i` at `arrival_ms(i)` milliseconds of a synthetic clock,
    /// drains, and checks the completed batches.
    pub fn check_pipeline(
        &self,
        label: &str,
        engine: impl ContinuousEngine,
        config: PipelineConfig,
        arrival_ms: impl Fn(usize) -> u64,
    ) {
        let mut pipe = PipelinedEngine::new(engine, config);
        register(&mut pipe, &self.queries);
        let t0 = Instant::now();
        let mut completed = Vec::new();
        for (i, &u) in self.stream.iter().enumerate() {
            completed.extend(pipe.push_at(u, t0 + Duration::from_millis(arrival_ms(i))));
        }
        completed.extend(pipe.drain());
        self.check_tiles(label, &tiles(completed), pipe.stats());
    }

    /// Checks tiles a composition produced: each equals the merged
    /// reference reports of the updates it covers, together they cover the
    /// stream once, and the engine's stats match the reference's —
    /// notifications only when every tile is a single update, since a
    /// batch notifies once per query.
    pub fn check_tiles(&self, label: &str, tiles: &[(usize, MatchReport)], stats: EngineStats) {
        let mut offset = 0;
        for (i, (updates, report)) in tiles.iter().enumerate() {
            assert!(*updates > 0, "{label}: tile #{i} of {} is empty", self.name);
            let end = offset + updates;
            assert!(
                end <= self.stream.len(),
                "{label}: tiles of {} overrun the stream",
                self.name
            );
            let expected = self.expected(offset..end);
            assert_eq!(
                *report, expected,
                "{label}: tile #{i} (updates {offset}..{end}) of {} diverged from GraphDB's reports",
                self.name
            );
            offset = end;
        }
        assert_eq!(
            offset,
            self.stream.len(),
            "{label}: tiles of {} do not cover the stream",
            self.name
        );
        assert_eq!(
            stats.updates_processed, self.stats.updates_processed,
            "{label}"
        );
        assert_eq!(stats.embeddings, self.stats.embeddings, "{label}");
        assert_eq!(stats.retracted, self.stats.retracted, "{label}");
        if tiles.iter().all(|(updates, _)| *updates == 1) {
            assert_eq!(stats.notifications, self.stats.notifications, "{label}");
        }
    }

    /// What a batch of the updates in `range` must report: the merge of
    /// their reference reports.
    pub fn expected(&self, range: Range<usize>) -> MatchReport {
        self.per_update[range]
            .iter()
            .fold(MatchReport::empty(), |acc, r| acc.merge(r))
    }

    /// The net check: the reference's per-query totals, insertions minus
    /// retractions, equal a from-scratch count of the surviving edges.
    fn check_net(&self) {
        let mut net = HashMap::new();
        for report in &self.per_update {
            accumulate_net(&mut net, report);
        }
        assert_eq!(
            net,
            oracle_net(&self.queries, &self.stream),
            "net totals of {} diverged from a from-scratch count",
            self.name
        );
    }
}

/// The tiles of a pipeline's completed batches.
pub fn tiles(completed: Vec<CompletedBatch>) -> Vec<(usize, MatchReport)> {
    completed
        .into_iter()
        .map(|batch| (batch.updates, batch.report))
        .collect()
}

fn register(engine: &mut impl ContinuousEngine, queries: &[QueryPattern]) {
    for q in queries {
        engine.register_query(q).expect("register");
    }
}

/// Folds a report into signed per-query totals: `+new - retracted`.
fn accumulate_net(net: &mut HashMap<usize, i64>, report: &MatchReport) {
    for m in &report.matches {
        let entry = net.entry(m.query.index()).or_insert(0);
        *entry += m.new_embeddings as i64;
        *entry -= m.retracted_embeddings as i64;
        // Net-zero notifications are legal (a batch may create and destroy
        // embeddings of the same query); drop settled entries so the map
        // compares equal to an oracle that never saw the query.
        if *entry == 0 {
            net.remove(&m.query.index());
        }
    }
}

/// From-scratch oracle: folds `stream` into a [`GraphStore`] of the
/// surviving edges and counts each query's embeddings there, omitting the
/// queries with none.
fn oracle_net(queries: &[QueryPattern], stream: &[Update]) -> HashMap<usize, i64> {
    let mut store = GraphStore::new();
    for &u in stream {
        if u.is_retraction() {
            store.remove_edge(u);
        } else {
            store.insert_edge(u);
        }
    }
    queries
        .iter()
        .enumerate()
        .map(|(q, query)| (q, count_embeddings(query, &store) as i64))
        .filter(|&(_, n)| n > 0)
        .collect()
}
