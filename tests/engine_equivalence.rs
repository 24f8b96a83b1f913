//! Cross-engine equivalence: every engine must report exactly the same
//! (query, new-embedding-count) notifications on every update, for every
//! dataset generator and a wide range of query shapes.
//!
//! This is the strongest correctness statement the workspace makes: TRIC and
//! TRIC+ (the paper's contribution), the four inverted-index baselines and
//! the graph-database baseline are independent implementations that share
//! only the covering-path decomposition and the relational kernel, so
//! agreement across all seven is strong evidence each one is right.

use std::time::{Duration, Instant};

use graph_stream_matching::baselines::IncEngine;
use graph_stream_matching::core::prelude::*;
use graph_stream_matching::datagen::{Dataset, Workload, WorkloadConfig};
use graph_stream_matching::tric::TricEngine;
use graph_stream_matching::{all_engines, all_engines_sharded};

/// Replays a workload against every engine, asserting identical reports.
fn assert_engines_agree(workload: &Workload) {
    let mut engines = all_engines();
    for engine in engines.iter_mut() {
        for q in &workload.queries {
            engine.register_query(q).expect("register");
        }
    }
    for (i, update) in workload.stream.iter().enumerate() {
        let reference = engines[0].apply_update(*update);
        for engine in engines.iter_mut().skip(1) {
            let got = engine.apply_update(*update);
            assert_eq!(
                got,
                reference,
                "engine {} disagrees with {} on update #{i} ({update:?}) of {}",
                engine.name(),
                "TRIC",
                workload.name
            );
        }
    }
    // All engines saw the same stream; their cumulative stats must agree too.
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
    }
}

/// Chunk sizes the batch differential harness replays every workload with:
/// singleton batches (the engines' fast path), two odd sizes that never
/// divide the stream evenly (so the final short batch is exercised), and the
/// whole stream as one batch.
const BATCH_CHUNK_SIZES: [usize; 4] = [1, 3, 17, usize::MAX];

/// Differential batch-vs-sequential harness: replays `workload` sequentially
/// once per engine (recording every per-update report), then replays it with
/// `apply_batch` at each chunk size on fresh engines of the same kinds,
/// asserting that every batch report equals the merge of the per-update
/// reports of exactly that chunk — per engine.
fn assert_batch_equals_sequential(workload: &Workload) {
    // Sequential reference: per-engine, per-update reports.
    let mut seq_engines = all_engines();
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

    for chunk_size in BATCH_CHUNK_SIZES {
        let chunk = chunk_size.min(workload.stream.len().max(1));
        let mut batch_engines = all_engines();
        for engine in batch_engines.iter_mut() {
            for q in &workload.queries {
                engine.register_query(q).expect("register");
            }
        }
        for (engine_idx, engine) in batch_engines.iter_mut().enumerate() {
            for (batch_idx, batch) in workload.stream.as_slice().chunks(chunk).enumerate() {
                let expected = MatchReport::from_counts(
                    per_update[engine_idx][batch_idx * chunk..]
                        .iter()
                        .take(batch.len())
                        .flat_map(|r| r.matches.iter().map(|m| (m.query, m.new_embeddings)))
                        .collect(),
                );
                let got = engine.apply_batch(batch);
                assert_eq!(
                    got,
                    expected,
                    "{} batch #{batch_idx} (chunk size {chunk}) of {} diverged from sequential",
                    engine.name(),
                    workload.name
                );
            }
            // Batch answering consumed the same stream and produced the same
            // embeddings; only notification granularity may differ.
            let seq_stats = seq_engines[engine_idx].stats();
            let stats = engine.stats();
            assert_eq!(stats.updates_processed, seq_stats.updates_processed);
            assert_eq!(stats.embeddings, seq_stats.embeddings, "{}", engine.name());
        }
    }
}

/// Shard counts the sharded differential matrix replays every workload
/// with. `GSM_SHARDS=<n>` (the CI shard job) narrows the matrix to a single
/// count; the default covers the degenerate single-shard delegation plus
/// three genuinely partitioned deployments.
fn shard_counts() -> Vec<usize> {
    match std::env::var("GSM_SHARDS") {
        Ok(v) => vec![v
            .parse()
            .unwrap_or_else(|_| panic!("invalid GSM_SHARDS value {v:?}"))],
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// The shard-count differential matrix: for every engine and every shard
/// count, a sharded replay of `workload` must produce exactly the reports of
/// the unsharded engine — per update (chunk size 1, via `apply_update`) and
/// batched at the PR 2 chunk sizes, where the expected batch report is the
/// merge of the unsharded per-update reports of that chunk.
fn assert_sharded_equals_unsharded(workload: &Workload) {
    // Unsharded reference: per-engine, per-update reports.
    let mut ref_engines = all_engines();
    for engine in ref_engines.iter_mut() {
        for q in &workload.queries {
            engine.register_query(q).expect("register");
        }
    }
    let per_update: Vec<Vec<MatchReport>> = ref_engines
        .iter_mut()
        .map(|engine| {
            workload
                .stream
                .iter()
                .map(|u| engine.apply_update(*u))
                .collect()
        })
        .collect();

    for shards in shard_counts() {
        for chunk_size in BATCH_CHUNK_SIZES {
            let chunk = chunk_size.min(workload.stream.len().max(1));
            let mut engines = all_engines_sharded(shards);
            for engine in engines.iter_mut() {
                for q in &workload.queries {
                    engine.register_query(q).expect("register");
                }
            }
            for (engine_idx, engine) in engines.iter_mut().enumerate() {
                if chunk == 1 {
                    // Per-update replay through the single-update entry point.
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
                } else {
                    for (batch_idx, batch) in workload.stream.as_slice().chunks(chunk).enumerate() {
                        let expected = MatchReport::from_counts(
                            per_update[engine_idx][batch_idx * chunk..]
                                .iter()
                                .take(batch.len())
                                .flat_map(|r| r.matches.iter().map(|m| (m.query, m.new_embeddings)))
                                .collect(),
                        );
                        let got = engine.apply_batch(batch);
                        assert_eq!(
                            got,
                            expected,
                            "{} × {shards} shards, batch #{batch_idx} (chunk {chunk}) of {} \
                             diverged from unsharded",
                            engine.name(),
                            workload.name
                        );
                    }
                }
                // Same stream, same embeddings; notification granularity is
                // per apply call and therefore comparable only at chunk 1.
                let ref_stats = ref_engines[engine_idx].stats();
                let stats = engine.stats();
                assert_eq!(stats.updates_processed, ref_stats.updates_processed);
                assert_eq!(stats.embeddings, ref_stats.embeddings, "{}", engine.name());
                if chunk == 1 {
                    assert_eq!(
                        stats.notifications,
                        ref_stats.notifications,
                        "{}",
                        engine.name()
                    );
                }
            }
        }
    }
}

/// The pipeline configurations the pipelined differential matrix drives,
/// as `(max_batch, max_delay_ticks, tick_advance)` with a synthetic clock
/// that advances `tick_advance` milliseconds per pushed update: a
/// size-driven sweep (deadline never fires), a deadline-driven sweep (the
/// buffer never fills, batches cut every `max_delay` ticks), and a mixed
/// config where both bounds fire. Singleton batches exercise the engines'
/// fast path through the staged window.
const PIPELINE_CONFIGS: [(usize, u64, u64); 4] =
    [(1, 1_000, 0), (7, 1_000, 0), (1_000, 5, 1), (10, 3, 1)];

/// Differential pipelined-vs-sequential harness: replays `workload`
/// sequentially once per engine (recording every per-update report), then
/// streams it through [`PipelinedEngine`] under each flush configuration on
/// fresh engines of the same kinds. Every completed batch must equal the
/// merge of the per-update reports of exactly the updates it covered —
/// whatever segmentation the size/deadline bounds chose — and the batches
/// must arrive in order and cover the stream exactly. `engines` lets the
/// sharded matrix reuse the harness.
fn assert_pipelined_equals_sequential_for(
    workload: &Workload,
    engines: impl Fn() -> Vec<Box<dyn ContinuousEngine>>,
) {
    // Sequential reference: per-engine, per-update reports.
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

    // `GSM_THREADS>=2` (the CI threads job) re-runs the whole matrix with
    // reports handed back through the answer workers — same batches, same
    // reports, different thread.
    let threaded = std::env::var("GSM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .is_some_and(|n| n >= 2);
    for (max_batch, delay_ticks, tick_ms) in PIPELINE_CONFIGS {
        let mut config = PipelineConfig::new(max_batch, Duration::from_millis(delay_ticks));
        if threaded {
            config = config.threaded();
        }
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
            let mut completed: Vec<CompletedBatch> = Vec::new();
            for (i, u) in workload.stream.iter().enumerate() {
                let now = t0 + Duration::from_millis(i as u64 * tick_ms);
                completed.extend(pipe.push_at(*u, now));
            }
            completed.extend(pipe.drain());

            // The completed batches tile the stream in arrival order; each
            // report must equal the merged sequential reports of its tile.
            let mut offset = 0usize;
            for (batch_idx, batch) in completed.iter().enumerate() {
                assert!(batch.updates > 0, "empty completed batch");
                let expected = MatchReport::from_counts(
                    per_update[engine_idx][offset..offset + batch.updates]
                        .iter()
                        .flat_map(|r| r.matches.iter().map(|m| (m.query, m.new_embeddings)))
                        .collect(),
                );
                assert_eq!(
                    batch.report,
                    expected,
                    "{} pipelined batch #{batch_idx} (updates {offset}..{}) under \
                     (max_batch {max_batch}, delay {delay_ticks} ticks) of {} \
                     diverged from sequential",
                    pipe.name(),
                    offset + batch.updates,
                    workload.name
                );
                offset += batch.updates;
            }
            assert_eq!(
                offset,
                workload.stream.len(),
                "{} pipeline dropped or duplicated updates",
                pipe.name()
            );

            // Same stream, same embeddings; notification granularity is per
            // answered batch and therefore not compared.
            let seq_stats = seq_engines[engine_idx].stats();
            let stats = pipe.stats();
            assert_eq!(stats.updates_processed, seq_stats.updates_processed);
            assert_eq!(stats.embeddings, seq_stats.embeddings, "{}", pipe.name());
        }
    }
}

fn assert_pipelined_equals_sequential(workload: &Workload) {
    assert_pipelined_equals_sequential_for(workload, all_engines);
}

#[test]
fn engines_agree_on_snb_workload() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Snb, 900, 40).with_selectivity(0.4));
    assert_engines_agree(&workload);
}

#[test]
fn engines_agree_on_taxi_workload() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Taxi, 900, 40).with_query_size(3));
    assert_engines_agree(&workload);
}

#[test]
fn tric_matches_inc_plus_on_dense_taxi_batches() {
    // The insert-only taxi benchmark's shape — 300 queries of three edges,
    // 64-update batches — at 2 500 edges per seed. The stream gets dense
    // enough that many batches change two or more covering paths of one
    // query, which TRIC and TRIC+ count by ordered delta terms and INC+
    // through a union, and it is replayed to its (dearest) end.
    for seed in 1..=4 {
        let workload = Workload::generate(
            WorkloadConfig::new(Dataset::Taxi, 2_500, 300)
                .with_query_size(3)
                .with_seed(seed),
        );
        let mut engines: Vec<Box<dyn ContinuousEngine>> = vec![
            Box::new(IncEngine::inc_plus()),
            Box::new(TricEngine::tric()),
            Box::new(TricEngine::tric_plus()),
        ];
        for engine in engines.iter_mut() {
            for q in &workload.queries {
                engine.register_query(q).expect("register");
            }
        }
        for (i, batch) in workload.stream.as_slice().chunks(64).enumerate() {
            let reference = engines[0].apply_batch(batch);
            for engine in engines.iter_mut().skip(1) {
                assert_eq!(
                    engine.apply_batch(batch),
                    reference,
                    "{} disagrees with INC+ on batch #{i} of taxi seed {seed}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn engines_agree_on_biogrid_workload() {
    // Scaled-down seed of the single-label BioGrid stress test (it explodes
    // quickly); the full-size scenario runs under `--features slow-tests`.
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::BioGrid, 250, 20).with_query_size(3));
    assert_engines_agree(&workload);
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "large BioGrid scenario; run with --features slow-tests"
)]
fn engines_agree_on_biogrid_workload_large() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::BioGrid, 400, 25).with_query_size(3));
    assert_engines_agree(&workload);
}

#[test]
fn engines_agree_with_high_overlap_and_long_queries() {
    // Scaled-down seed; the full-size scenario runs under
    // `--features slow-tests`.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 400, 20)
            .with_query_size(7)
            .with_overlap(0.8),
    );
    assert_engines_agree(&workload);
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "large overlap scenario; run with --features slow-tests"
)]
fn engines_agree_with_high_overlap_and_long_queries_large() {
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 700, 30)
            .with_query_size(7)
            .with_overlap(0.8),
    );
    assert_engines_agree(&workload);
}

#[test]
fn batch_equals_sequential_on_snb_workload() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Snb, 900, 40).with_selectivity(0.4));
    assert_batch_equals_sequential(&workload);
}

#[test]
fn batch_equals_sequential_on_taxi_workload() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Taxi, 900, 40).with_query_size(3));
    assert_batch_equals_sequential(&workload);
}

#[test]
fn batch_equals_sequential_on_biogrid_workload() {
    // Same single-label stress generator as `engines_agree_on_biogrid`, at a
    // reduced size: the differential harness replays the stream five times
    // (once sequentially, once per chunk size) across seven engines, and the
    // BioGrid joins grow superlinearly with the stream.
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::BioGrid, 250, 20).with_query_size(3));
    assert_batch_equals_sequential(&workload);
}

#[test]
fn batch_equals_sequential_with_high_overlap_and_long_queries() {
    // Same shape as `engines_agree_with_high_overlap_and_long_queries`,
    // reduced for the five-fold replay of the differential harness.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 400, 20)
            .with_query_size(7)
            .with_overlap(0.8),
    );
    assert_batch_equals_sequential(&workload);
}

#[test]
fn sharded_equals_unsharded_on_snb_workload() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Snb, 400, 20).with_selectivity(0.4));
    assert_sharded_equals_unsharded(&workload);
}

#[test]
fn sharded_equals_unsharded_on_taxi_workload() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Taxi, 400, 20).with_query_size(3));
    assert_sharded_equals_unsharded(&workload);
}

#[test]
fn sharded_equals_unsharded_on_biogrid_workload() {
    // The matrix replays the stream (chunk sizes × shard counts) per engine,
    // so the explosive single-label generator stays small here.
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::BioGrid, 150, 12).with_query_size(3));
    assert_sharded_equals_unsharded(&workload);
}

#[test]
fn sharded_equals_unsharded_with_high_overlap_and_long_queries() {
    // High overlap plus long queries maximises shared trie prefixes and
    // multi-path (spanning-prone) query shapes.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 250, 14)
            .with_query_size(7)
            .with_overlap(0.8),
    );
    assert_sharded_equals_unsharded(&workload);
}

#[test]
fn pipelined_equals_sequential_on_snb_workload() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Snb, 400, 20).with_selectivity(0.4));
    assert_pipelined_equals_sequential(&workload);
}

#[test]
fn pipelined_equals_sequential_on_taxi_workload() {
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Taxi, 400, 20).with_query_size(3));
    assert_pipelined_equals_sequential(&workload);
}

#[test]
fn pipelined_equals_sequential_on_biogrid_workload() {
    // The explosive single-label generator stays small: the harness replays
    // the stream once sequentially plus once per pipeline config.
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::BioGrid, 200, 16).with_query_size(3));
    assert_pipelined_equals_sequential(&workload);
}

#[test]
fn pipelined_equals_sequential_with_high_overlap_and_long_queries() {
    // High overlap plus long queries maximises multi-path queries, whose
    // covering-path joins each staged run answers.
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 250, 14)
            .with_query_size(7)
            .with_overlap(0.8),
    );
    assert_pipelined_equals_sequential(&workload);
}

#[test]
fn pipelined_sharded_equals_sequential_on_snb_workload() {
    // Pipeline × sharding composition: the pipelined executor in front of
    // the sharded wrapper, whose shards answer each staged flush before the
    // wrapper merges. `GSM_SHARDS=<n>` (the CI shard
    // job) pins the shard count like the other sharded suites.
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Snb, 300, 16).with_selectivity(0.4));
    for shards in shard_counts() {
        assert_pipelined_equals_sequential_for(&workload, || all_engines_sharded(shards));
    }
}

#[test]
fn engines_agree_on_handwritten_corner_cases() {
    let mut symbols = SymbolTable::new();
    let queries = vec![
        // Self loop.
        QueryPattern::parse("?a -e0-> ?a", &mut symbols).unwrap(),
        // Cycle of length three.
        QueryPattern::parse("?a -e0-> ?b; ?b -e1-> ?c; ?c -e2-> ?a", &mut symbols).unwrap(),
        // Star with mixed directions.
        QueryPattern::parse("?c -e0-> ?x; ?y -e1-> ?c; ?c -e2-> ?z", &mut symbols).unwrap(),
        // Constants on both endpoints.
        QueryPattern::parse("v1 -e0-> v2", &mut symbols).unwrap(),
        // Repeated edge label along a chain.
        QueryPattern::parse("?a -e0-> ?b; ?b -e0-> ?c; ?c -e0-> ?d", &mut symbols).unwrap(),
        // Diamond.
        QueryPattern::parse(
            "?a -e0-> ?b; ?a -e1-> ?c; ?b -e2-> ?d; ?c -e3-> ?d",
            &mut symbols,
        )
        .unwrap(),
    ];

    let mut engines = all_engines();
    for engine in engines.iter_mut() {
        for q in &queries {
            engine.register_query(q).expect("register");
        }
    }

    // A small deterministic pseudo-random stream over few vertices and the
    // labels used above, exercising duplicates and self loops heavily.
    let labels: Vec<Sym> = (0..4).map(|i| symbols.intern(&format!("e{i}"))).collect();
    let vertices: Vec<Sym> = (0..6).map(|i| symbols.intern(&format!("v{i}"))).collect();
    let mut state = 0x12345678u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    for i in 0..500 {
        let u = Update::new(
            labels[next() % labels.len()],
            vertices[next() % vertices.len()],
            vertices[next() % vertices.len()],
        );
        let reference = engines[0].apply_update(u);
        for engine in engines.iter_mut().skip(1) {
            assert_eq!(
                engine.apply_update(u),
                reference,
                "{} diverged at step {i} on {u:?}",
                engine.name()
            );
        }
    }
}

#[test]
fn late_registration_is_consistent_across_engines() {
    // Queries registered mid-stream only see edges arriving afterwards (none
    // of the engines replays history into its materialized views except the
    // graph database, which therefore is excluded here; its behaviour is
    // covered by its own crate tests).
    let mut symbols = SymbolTable::new();
    let q1 = QueryPattern::parse("?a -knows-> ?b; ?b -knows-> ?c", &mut symbols).unwrap();
    let knows = symbols.intern("knows");
    let v: Vec<Sym> = (0..5).map(|i| symbols.intern(&format!("p{i}"))).collect();

    let mut engines = all_engines();
    engines.retain(|e| e.name() != "GraphDB");
    for engine in engines.iter_mut() {
        engine.register_query(&q1).unwrap();
    }
    let updates = vec![
        Update::new(knows, v[0], v[1]),
        Update::new(knows, v[1], v[2]),
        Update::new(knows, v[2], v[3]),
        Update::new(knows, v[3], v[4]),
    ];
    for u in updates {
        let reference = engines[0].apply_update(u);
        for e in engines.iter_mut().skip(1) {
            assert_eq!(e.apply_update(u), reference, "{}", e.name());
        }
    }
}
