//! Retraction differential suite: every engine must agree on mixed
//! insert+delete streams, and the *net* per-query embedding totals
//! (insertions minus retractions) must equal a from-scratch re-evaluation of
//! the surviving edge set — the signed z-set invariant of the PR that
//! generalized deltas beyond additions.
//!
//! Two stream shapes are exercised, both produced by the datagen variants:
//! random deletions of live edges (`with_delete_ratio`) and count-based
//! sliding windows (`with_sliding_window`). The wrappers ride along: the sharded matrix replays the mixed
//! streams across genuinely partitioned deployments, and the pipelined
//! matrix covers **staged** retraction runs — answered against the
//! pre-removal views and committed at stage time, the sharded wrapper's
//! merge included — across shard and answer-worker counts.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use graph_stream_matching::core::prelude::*;
use graph_stream_matching::datagen::{Dataset, Workload, WorkloadConfig};
use graph_stream_matching::{all_engines, all_engines_sharded};

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

/// From-scratch oracle: replays the *surviving* edge set of `stream` (the
/// sign-aware [`AttributeGraph`] fold) into a fresh TRIC+ engine and returns
/// its per-query totals. Edge order within the surviving set is irrelevant —
/// insert-only totals are order-independent.
fn oracle_net(queries: &[QueryPattern], stream: &[Update]) -> HashMap<usize, i64> {
    let graph = AttributeGraph::from_updates(stream.iter());
    let mut engine = graph_stream_matching::tric::TricEngine::tric_plus();
    for q in queries {
        engine.register_query(q).expect("register");
    }
    let mut net = HashMap::new();
    for u in graph.edges() {
        accumulate_net(&mut net, &engine.apply_update(*u));
    }
    net
}

/// Replays a mixed workload per-update against every engine, asserting
/// identical reports, identical cumulative stats (including the retraction
/// counters), and — the invariant insertions alone can never check — that
/// the net totals equal the from-scratch oracle over the surviving edges.
fn assert_mixed_stream_equivalence(workload: &Workload) {
    let retractions = workload.stream.iter().filter(|u| u.is_retraction()).count();
    assert!(
        retractions > 0,
        "{} exercises no retractions — the workload variant is miswired",
        workload.name
    );

    let mut engines = all_engines();
    for engine in engines.iter_mut() {
        for q in &workload.queries {
            engine.register_query(q).expect("register");
        }
    }
    let mut net = HashMap::new();
    for (i, update) in workload.stream.iter().enumerate() {
        let reference = engines[0].apply_update(*update);
        accumulate_net(&mut net, &reference);
        for engine in engines.iter_mut().skip(1) {
            let got = engine.apply_update(*update);
            assert_eq!(
                got,
                reference,
                "engine {} disagrees with TRIC on update #{i} ({update:?}) of {}",
                engine.name(),
                workload.name
            );
        }
    }
    let reference = engines[0].stats();
    for engine in &engines {
        let s = engine.stats();
        assert_eq!(s.updates_processed, reference.updates_processed);
        assert_eq!(
            s.notifications,
            reference.notifications,
            "{}",
            engine.name()
        );
        assert_eq!(s.embeddings, reference.embeddings, "{}", engine.name());
        assert_eq!(s.retracted, reference.retracted, "{}", engine.name());
    }
    assert!(reference.retracted > 0 || net.is_empty() || retractions == 0);

    let oracle = oracle_net(&workload.queries, workload.stream.as_slice());
    assert_eq!(
        net, oracle,
        "net totals of {} diverged from from-scratch re-evaluation",
        workload.name
    );
}

/// Batch chunk sizes for the mixed-stream batched replay. Odd sizes force
/// chunks that straddle sign boundaries, exercising the sign-run splitter.
const BATCH_CHUNK_SIZES: [usize; 3] = [3, 17, usize::MAX];

/// Replays a mixed workload through `apply_batch` at several chunk sizes,
/// asserting cross-engine agreement per batch and oracle-equal net totals.
fn assert_mixed_batches_agree(workload: &Workload) {
    let oracle = oracle_net(&workload.queries, workload.stream.as_slice());
    for chunk_size in BATCH_CHUNK_SIZES {
        let chunk = chunk_size.min(workload.stream.len().max(1));
        let mut engines = all_engines();
        for engine in engines.iter_mut() {
            for q in &workload.queries {
                engine.register_query(q).expect("register");
            }
        }
        let mut net = HashMap::new();
        for (batch_idx, batch) in workload.stream.as_slice().chunks(chunk).enumerate() {
            let reference = engines[0].apply_batch(batch);
            accumulate_net(&mut net, &reference);
            for engine in engines.iter_mut().skip(1) {
                let got = engine.apply_batch(batch);
                assert_eq!(
                    got,
                    reference,
                    "{} diverged at batch #{batch_idx} (chunk {chunk}) of {}",
                    engine.name(),
                    workload.name
                );
            }
        }
        assert_eq!(
            net, oracle,
            "batched (chunk {chunk}) net totals of {} diverged from oracle",
            workload.name
        );
    }
}

/// The wrapper matrix: sharded and pipelined deployments of every engine
/// must match the plain per-update reference on mixed streams. Shard
/// routing must split and re-merge retraction runs; the pipeline stages
/// them like insert runs (answered against the pre-removal views).
fn assert_wrappers_agree_on_mixed_stream(workload: &Workload, shards: usize) {
    let mut reference_engines = all_engines();
    for engine in reference_engines.iter_mut() {
        for q in &workload.queries {
            engine.register_query(q).expect("register");
        }
    }
    let per_update: Vec<Vec<MatchReport>> = reference_engines
        .iter_mut()
        .map(|engine| {
            workload
                .stream
                .iter()
                .map(|u| engine.apply_update(*u))
                .collect()
        })
        .collect();

    // Sharded wrapper, per-update entry point.
    let mut sharded = all_engines_sharded(shards);
    for engine in sharded.iter_mut() {
        for q in &workload.queries {
            engine.register_query(q).expect("register");
        }
    }
    for (engine_idx, engine) in sharded.iter_mut().enumerate() {
        for (i, u) in workload.stream.iter().enumerate() {
            let got = engine.apply_update(*u);
            assert_eq!(
                got,
                per_update[engine_idx][i],
                "{} × {shards} shards diverged at update #{i} ({u:?}) of {}",
                engine.name(),
                workload.name
            );
        }
    }

    // Pipelined wrapper over each engine: singleton flushes so every
    // completed batch corresponds to one update (retraction and insertion
    // runs alike take the staged path).
    // `GSM_THREADS>=2` (the CI threads job) re-runs the pipelined leg with
    // reports handed back through the answer workers.
    let mut config = PipelineConfig::new(1, Duration::from_secs(3600));
    if std::env::var("GSM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .is_some_and(|n| n >= 2)
    {
        config = config.threaded();
    }
    let mut pipes: Vec<_> = all_engines()
        .into_iter()
        .map(|e| PipelinedEngine::new(e, config))
        .collect();
    for pipe in pipes.iter_mut() {
        for q in &workload.queries {
            pipe.register_query(q).expect("register");
        }
    }
    let t0 = Instant::now();
    for (engine_idx, pipe) in pipes.iter_mut().enumerate() {
        let mut completed = Vec::new();
        for u in workload.stream.iter() {
            completed.extend(pipe.push_at(*u, t0));
        }
        completed.extend(pipe.drain());
        assert_eq!(
            completed.len(),
            workload.stream.len(),
            "{} pipeline dropped or merged singleton batches",
            pipe.name()
        );
        for (i, batch) in completed.iter().enumerate() {
            assert_eq!(
                batch.report,
                per_update[engine_idx][i],
                "{} pipelined diverged at update #{i} of {}",
                pipe.name(),
                workload.name
            );
        }
    }
}

#[test]
fn engines_agree_on_random_deletion_snb_workload() {
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 700, 30)
            .with_selectivity(0.4)
            .with_delete_ratio(0.35),
    );
    assert_mixed_stream_equivalence(&workload);
}

#[test]
fn engines_agree_on_random_deletion_taxi_workload() {
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Taxi, 700, 30)
            .with_query_size(3)
            .with_delete_ratio(0.35),
    );
    assert_mixed_stream_equivalence(&workload);
}

#[test]
fn engines_agree_on_random_deletion_biogrid_workload() {
    // The single-label generator explodes quickly; deletions keep the live
    // graph smaller, but the pre-deletion joins still dominate.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::BioGrid, 220, 16)
            .with_query_size(3)
            .with_delete_ratio(0.3),
    );
    assert_mixed_stream_equivalence(&workload);
}

#[test]
fn engines_agree_on_sliding_window_workload() {
    // The count-based window keeps at most 80 edges live, so long streams
    // stay cheap while every insert eventually produces an expiry.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 900, 30)
            .with_selectivity(0.4)
            .with_sliding_window(80),
    );
    assert_mixed_stream_equivalence(&workload);
}

#[test]
fn engines_agree_on_high_overlap_deletion_workload() {
    // High overlap plus long queries maximises shared trie prefixes, so
    // retractions must unwind deeply shared materialized state.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 350, 16)
            .with_query_size(6)
            .with_overlap(0.8)
            .with_delete_ratio(0.3),
    );
    assert_mixed_stream_equivalence(&workload);
}

#[test]
fn batched_mixed_streams_agree_across_engines() {
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 500, 20)
            .with_selectivity(0.4)
            .with_delete_ratio(0.35),
    );
    assert_mixed_batches_agree(&workload);
}

#[test]
fn batched_sliding_window_streams_agree_across_engines() {
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Taxi, 600, 20)
            .with_query_size(3)
            .with_sliding_window(64),
    );
    assert_mixed_batches_agree(&workload);
}

#[test]
fn sharded_and_pipelined_wrappers_agree_on_deletion_workload() {
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 350, 16)
            .with_selectivity(0.4)
            .with_delete_ratio(0.35),
    );
    let shards = match std::env::var("GSM_SHARDS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("invalid GSM_SHARDS value {v:?}")),
        Err(_) => 3,
    };
    assert_wrappers_agree_on_mixed_stream(&workload, shards);
}

#[test]
fn sharded_and_pipelined_wrappers_agree_on_window_workload() {
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Taxi, 400, 16)
            .with_query_size(3)
            .with_sliding_window(60),
    );
    assert_wrappers_agree_on_mixed_stream(&workload, 2);
}

/// The staged-retraction acceptance matrix: deletion-heavy and count-window
/// mixed streams pushed through the pipeline with flush size > 1 — so
/// mixed flushes genuinely stage whole and the engines split them — across
/// sharded × inline/threaded × answer-worker configurations.
/// Completed batches must tile the stream exactly and the net per-query
/// totals must equal the from-scratch oracle over the surviving edges.
#[test]
fn staged_retractions_match_oracle_across_worker_matrix() {
    let workloads = [
        Workload::generate(
            WorkloadConfig::new(Dataset::Snb, 320, 16)
                .with_selectivity(0.4)
                .with_delete_ratio(0.35),
        ),
        Workload::generate(
            WorkloadConfig::new(Dataset::Taxi, 320, 14)
                .with_query_size(3)
                .with_sliding_window(60),
        ),
    ];
    for workload in &workloads {
        let oracle = oracle_net(&workload.queries, workload.stream.as_slice());
        for shards in [1usize, 3] {
            for workers in [0usize, 1, 2, 4] {
                let mut config = PipelineConfig::new(8, Duration::from_secs(3600));
                if workers > 0 {
                    config = config.threaded().with_answer_workers(workers);
                }
                let inner: Box<dyn ContinuousEngine> = Box::new(ShardedEngine::new(shards, || {
                    Box::new(graph_stream_matching::tric::TricEngine::tric_plus())
                }));
                let mut pipe = PipelinedEngine::new(inner, config);
                for q in &workload.queries {
                    pipe.register_query(q).expect("register");
                }
                let t0 = Instant::now();
                let mut net = HashMap::new();
                let mut applied = 0usize;
                for u in workload.stream.iter() {
                    for batch in pipe.push_at(*u, t0) {
                        applied += batch.updates;
                        accumulate_net(&mut net, &batch.report);
                    }
                }
                for batch in pipe.drain() {
                    applied += batch.updates;
                    accumulate_net(&mut net, &batch.report);
                }
                assert_eq!(
                    applied,
                    workload.stream.len(),
                    "completed batches do not tile {} ({shards} shards, \
                     {workers} workers)",
                    workload.name
                );
                assert_eq!(
                    net, oracle,
                    "{} diverged from oracle ({shards} shards, {workers} workers)",
                    workload.name
                );
            }
        }
    }
}

/// A pipeline whose delay `Instant` cannot represent flushes on size and
/// at the drain only, under the real clock too: every completed batch but
/// the drained tail is exactly `max_batch` updates, and the net totals of
/// a count-window stream still equal the from-scratch oracle.
#[test]
fn unbounded_delay_pipeline_matches_oracle_on_window_stream() {
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Taxi, 300, 12)
            .with_query_size(3)
            .with_sliding_window(50),
    );
    let oracle = oracle_net(&workload.queries, workload.stream.as_slice());
    for threaded in [false, true] {
        let mut config = PipelineConfig::new(16, Duration::MAX);
        if threaded {
            config = config.threaded().with_answer_workers(2);
        }
        let mut pipe =
            PipelinedEngine::new(graph_stream_matching::tric::TricEngine::tric_plus(), config);
        for q in &workload.queries {
            pipe.register_query(q).expect("register");
        }
        let mut net = HashMap::new();
        let mut sizes = Vec::new();
        for u in workload.stream.iter() {
            for batch in pipe.push(*u) {
                sizes.push(batch.updates);
                accumulate_net(&mut net, &batch.report);
            }
        }
        for batch in pipe.drain() {
            sizes.push(batch.updates);
            accumulate_net(&mut net, &batch.report);
        }
        let len = workload.stream.len();
        let mut expected = vec![16; len / 16];
        if !len.is_multiple_of(16) {
            expected.push(len % 16);
        }
        assert_eq!(sizes, expected, "threaded {threaded}: flush points");
        assert_eq!(net, oracle, "threaded {threaded}: diverged from oracle");
    }
}
