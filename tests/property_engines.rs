//! Property-based cross-engine testing: on randomly generated query sets and
//! update streams over a small label/vertex universe, all seven engines must
//! produce identical match reports on every update, and none may panic.

use proptest::prelude::*;

use graph_stream_matching::baselines::BaselineEngine;
use graph_stream_matching::core::prelude::*;
use graph_stream_matching::tric::TricEngine;
use graph_stream_matching::{all_engines, all_engines_sharded};

/// The engines with a real (non-default) batched implementation: TRIC, TRIC+
/// and the four inverted-index baselines. The graph database keeps the
/// fold-based trait default and is exercised by `engine_equivalence`.
fn batched_engines() -> Vec<Box<dyn ContinuousEngine>> {
    vec![
        Box::new(TricEngine::tric()),
        Box::new(TricEngine::tric_plus()),
        Box::new(BaselineEngine::inv()),
        Box::new(BaselineEngine::inv_plus()),
        Box::new(BaselineEngine::inc()),
        Box::new(BaselineEngine::inc_plus()),
    ]
}

/// A compact description of a random pattern edge: (label, src, tgt, src-kind,
/// tgt-kind) over small universes.
type EdgeSpec = (u8, u8, u8, bool, bool);

fn build_query(specs: &[EdgeSpec], symbols: &mut SymbolTable) -> Option<QueryPattern> {
    let mut edges = Vec::new();
    // Connectivity: every edge touches a variable vertex already in use;
    // constants (drawn from the same universe the stream uses) are leaves.
    let mut used: Vec<u8> = vec![0];
    for &(label, a, b, other_const, flip) in specs {
        let anchor = used[(a as usize) % used.len()];
        let anchor_term = Term::Var(anchor as u32);
        let other_term = if other_const {
            Term::Const(symbols.intern(&format!("v{}", b % 5)))
        } else {
            if !used.contains(&b) {
                used.push(b);
            }
            Term::Var(b as u32)
        };
        let (src, tgt) = if flip {
            (other_term, anchor_term)
        } else {
            (anchor_term, other_term)
        };
        edges.push(PatternEdge::new(
            symbols.intern(&format!("e{}", label % 3)),
            src,
            tgt,
        ));
    }
    QueryPattern::from_edges(edges).ok()
}

proptest! {
    // Each case replays a stream against seven engines; keep the case count
    // moderate so the whole file stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn all_engines_agree_on_random_workloads(
        query_specs in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..5, 0u8..5, any::<bool>(), any::<bool>()), 1..4),
            1..6,
        ),
        stream_specs in proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 1..120),
    ) {
        let mut symbols = SymbolTable::new();
        let queries: Vec<QueryPattern> = query_specs
            .iter()
            .filter_map(|specs| build_query(specs, &mut symbols))
            .collect();
        prop_assume!(!queries.is_empty());

        let mut engines = all_engines();
        for engine in engines.iter_mut() {
            for q in &queries {
                engine.register_query(q).expect("valid query");
            }
        }

        for (i, &(label, src, tgt)) in stream_specs.iter().enumerate() {
            let update = Update::new(
                symbols.intern(&format!("e{label}")),
                symbols.intern(&format!("v{src}")),
                symbols.intern(&format!("v{tgt}")),
            );
            let reference = engines[0].apply_update(update);
            for engine in engines.iter_mut().skip(1) {
                let got = engine.apply_update(update);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "{} disagrees with TRIC at update #{} ({:?})",
                    engine.name(),
                    i,
                    update
                );
            }
        }
    }

    /// Batched answering is differentially equivalent to sequential
    /// answering on random workloads under *random batch partitions*: for
    /// every engine with a real batched implementation (TRIC, TRIC+ and the
    /// four inverted-index baselines), chunking the stream arbitrarily and
    /// merging the sequential per-update reports chunk by chunk must
    /// reproduce the `apply_batch` reports exactly.
    #[test]
    fn batch_partitions_equal_sequential(
        query_specs in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..5, 0u8..5, any::<bool>(), any::<bool>()), 1..4),
            1..5,
        ),
        stream_specs in proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 1..90),
        // Random partition: chunk lengths are drawn and applied cyclically.
        chunk_lens in proptest::collection::vec(1usize..16, 1..12),
    ) {
        let mut symbols = SymbolTable::new();
        let queries: Vec<QueryPattern> = query_specs
            .iter()
            .filter_map(|specs| build_query(specs, &mut symbols))
            .collect();
        prop_assume!(!queries.is_empty());

        let mut seq_engines = batched_engines();
        let mut bat_engines = batched_engines();
        for engine in seq_engines.iter_mut().chain(bat_engines.iter_mut()) {
            for q in &queries {
                engine.register_query(q).expect("valid query");
            }
        }
        let stream: Vec<Update> = stream_specs
            .iter()
            .map(|&(label, src, tgt)| {
                Update::new(
                    symbols.intern(&format!("e{label}")),
                    symbols.intern(&format!("v{src}")),
                    symbols.intern(&format!("v{tgt}")),
                )
            })
            .collect();

        let mut offset = 0usize;
        let mut chunk_idx = 0usize;
        while offset < stream.len() {
            let len = chunk_lens[chunk_idx % chunk_lens.len()].min(stream.len() - offset);
            let batch = &stream[offset..offset + len];
            for (seq, bat) in seq_engines.iter_mut().zip(bat_engines.iter_mut()) {
                let expected = MatchReport::from_counts(
                    batch
                        .iter()
                        .flat_map(|&u| seq.apply_update(u).matches)
                        .map(|m| (m.query, m.new_embeddings))
                        .collect(),
                );
                let got = bat.apply_batch(batch);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "{} diverged on batch at offset {} (len {})",
                    bat.name(),
                    offset,
                    len
                );
            }
            offset += len;
            chunk_idx += 1;
        }
    }

    /// The report merge the shard wrapper relies on is **associative and
    /// commutative** with the empty report as identity: shards may be merged
    /// in any order or grouping without changing the result.
    #[test]
    fn match_report_merge_is_associative_and_commutative(
        a_pairs in proptest::collection::vec((0u32..16, 0u64..50), 0..10),
        b_pairs in proptest::collection::vec((0u32..16, 0u64..50), 0..10),
        c_pairs in proptest::collection::vec((0u32..16, 0u64..50), 0..10),
    ) {
        let report = |pairs: &Vec<(u32, u64)>| {
            MatchReport::from_counts(pairs.iter().map(|&(q, n)| (QueryId(q), n)).collect())
        };
        let (a, b, c) = (report(&a_pairs), report(&b_pairs), report(&c_pairs));
        // Associativity.
        prop_assert_eq!(a.merge(&b.merge(&c)), a.merge(&b).merge(&c));
        // Commutativity, pairwise and under a full permutation of the fold.
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        prop_assert_eq!(a.merge(&b).merge(&c), c.merge(&b).merge(&a));
        prop_assert_eq!(b.merge(&c).merge(&a), a.merge(&b.merge(&c)));
        // Identity.
        let empty = MatchReport::empty();
        prop_assert_eq!(a.merge(&empty), a.clone());
        prop_assert_eq!(empty.merge(&a), a);
    }

    /// Sharded engines are observationally equivalent to their unsharded
    /// counterparts on random workloads at random shard counts, per update.
    #[test]
    fn sharded_engines_agree_on_random_workloads(
        query_specs in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..5, 0u8..5, any::<bool>(), any::<bool>()), 1..4),
            1..5,
        ),
        stream_specs in proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 1..90),
        num_shards in 1usize..9,
    ) {
        let mut symbols = SymbolTable::new();
        let queries: Vec<QueryPattern> = query_specs
            .iter()
            .filter_map(|specs| build_query(specs, &mut symbols))
            .collect();
        prop_assume!(!queries.is_empty());

        let mut plain = all_engines();
        let mut sharded = all_engines_sharded(num_shards);
        for engine in plain.iter_mut().chain(sharded.iter_mut()) {
            for q in &queries {
                engine.register_query(q).expect("valid query");
            }
        }
        for (i, &(label, src, tgt)) in stream_specs.iter().enumerate() {
            let update = Update::new(
                symbols.intern(&format!("e{label}")),
                symbols.intern(&format!("v{src}")),
                symbols.intern(&format!("v{tgt}")),
            );
            for (p, s) in plain.iter_mut().zip(sharded.iter_mut()) {
                let expected = p.apply_update(update);
                let got = s.apply_update(update);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "{} × {} shards diverged at update #{} ({:?})",
                    p.name(),
                    num_shards,
                    i,
                    update
                );
            }
        }
    }

    /// Sharded batched replay under random batch partitions matches the
    /// merged sequential reports of the unsharded engine — the combination
    /// of the two wrapper entry points with real multi-update batches, which
    /// is also what drives the worker-thread absorption path.
    #[test]
    fn sharded_batch_partitions_equal_sequential(
        query_specs in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..5, 0u8..5, any::<bool>(), any::<bool>()), 1..4),
            1..4,
        ),
        stream_specs in proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 1..80),
        chunk_lens in proptest::collection::vec(1usize..16, 1..10),
        num_shards in 2usize..9,
    ) {
        let mut symbols = SymbolTable::new();
        let queries: Vec<QueryPattern> = query_specs
            .iter()
            .filter_map(|specs| build_query(specs, &mut symbols))
            .collect();
        prop_assume!(!queries.is_empty());

        // Unsharded sequential reference vs sharded batched replay, for the
        // two engines at the ends of the spectrum (TRIC+ and the fold-free
        // batched GraphDB would be redundant with the full matrix in
        // engine_equivalence; keep the property test lean).
        let mut references: Vec<Box<dyn ContinuousEngine>> = vec![
            Box::new(TricEngine::tric_plus()),
            Box::new(BaselineEngine::inc()),
        ];
        let mut sharded: Vec<Box<dyn ContinuousEngine>> = vec![
            Box::new(TricEngine::tric_plus_sharded(num_shards)),
            Box::new(BaselineEngine::sharded(
                graph_stream_matching::baselines::BaselineMode::Inc,
                false,
                num_shards,
            )),
        ];
        for engine in references.iter_mut().chain(sharded.iter_mut()) {
            for q in &queries {
                engine.register_query(q).expect("valid query");
            }
        }
        let stream: Vec<Update> = stream_specs
            .iter()
            .map(|&(label, src, tgt)| {
                Update::new(
                    symbols.intern(&format!("e{label}")),
                    symbols.intern(&format!("v{src}")),
                    symbols.intern(&format!("v{tgt}")),
                )
            })
            .collect();

        let mut offset = 0usize;
        let mut chunk_idx = 0usize;
        while offset < stream.len() {
            let len = chunk_lens[chunk_idx % chunk_lens.len()].min(stream.len() - offset);
            let batch = &stream[offset..offset + len];
            for (seq, bat) in references.iter_mut().zip(sharded.iter_mut()) {
                let expected = MatchReport::from_counts(
                    batch
                        .iter()
                        .flat_map(|&u| seq.apply_update(u).matches)
                        .map(|m| (m.query, m.new_embeddings))
                        .collect(),
                );
                let got = bat.apply_batch(batch);
                prop_assert_eq!(
                    &got,
                    &expected,
                    "{} × {} shards diverged on batch at offset {} (len {})",
                    bat.name(),
                    num_shards,
                    offset,
                    len
                );
            }
            offset += len;
            chunk_idx += 1;
        }
    }

    /// The pipelined executor is differentially equivalent to sequential
    /// answering under *random* flush sizes, flush deadlines and inter-update
    /// arrival gaps (driven through a synthetic clock): whatever stream
    /// segmentation the latency-budgeted batcher picks, every completed
    /// batch's report must equal the merged sequential reports of exactly
    /// the updates it covered, and the batches must tile the stream in
    /// order. Exercised on the two ends of the engine spectrum (TRIC+ with
    /// its cached join builds, INC without), plus TRIC+ behind the sharded
    /// wrapper.
    #[test]
    fn pipelined_random_flush_bounds_equal_sequential(
        query_specs in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..5, 0u8..5, any::<bool>(), any::<bool>()), 1..4),
            1..5,
        ),
        stream_specs in proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 1..90),
        max_batch in 1usize..20,
        delay_ticks in 1u64..8,
        gaps in proptest::collection::vec(0u64..4, 1..12),
        num_shards in 1usize..5,
    ) {
        use std::time::{Duration, Instant};

        let mut symbols = SymbolTable::new();
        let queries: Vec<QueryPattern> = query_specs
            .iter()
            .filter_map(|specs| build_query(specs, &mut symbols))
            .collect();
        prop_assume!(!queries.is_empty());

        let mut references: Vec<Box<dyn ContinuousEngine>> = vec![
            Box::new(TricEngine::tric_plus()),
            Box::new(BaselineEngine::inc()),
            Box::new(TricEngine::tric_plus()),
        ];
        let config = PipelineConfig::new(max_batch, Duration::from_millis(delay_ticks));
        let mut pipelines: Vec<PipelinedEngine<Box<dyn ContinuousEngine>>> = vec![
            PipelinedEngine::new(Box::new(TricEngine::tric_plus()), config),
            PipelinedEngine::new(Box::new(BaselineEngine::inc()), config),
            PipelinedEngine::new(
                Box::new(TricEngine::tric_plus_sharded(num_shards)),
                config,
            ),
        ];
        for engine in references.iter_mut() {
            for q in &queries {
                engine.register_query(q).expect("valid query");
            }
        }
        for pipe in pipelines.iter_mut() {
            for q in &queries {
                pipe.register_query(q).expect("valid query");
            }
        }

        let stream: Vec<Update> = stream_specs
            .iter()
            .map(|&(label, src, tgt)| {
                Update::new(
                    symbols.intern(&format!("e{label}")),
                    symbols.intern(&format!("v{src}")),
                    symbols.intern(&format!("v{tgt}")),
                )
            })
            .collect();

        // Sequential reference reports, per engine per update.
        let per_update: Vec<Vec<MatchReport>> = references
            .iter_mut()
            .map(|engine| stream.iter().map(|u| engine.apply_update(*u)).collect())
            .collect();

        let t0 = Instant::now();
        for (engine_idx, pipe) in pipelines.iter_mut().enumerate() {
            let mut completed: Vec<CompletedBatch> = Vec::new();
            let mut clock_ms = 0u64;
            for (i, u) in stream.iter().enumerate() {
                clock_ms += gaps[i % gaps.len()];
                completed.extend(pipe.push_at(*u, t0 + Duration::from_millis(clock_ms)));
            }
            completed.extend(pipe.drain());

            let mut offset = 0usize;
            for batch in &completed {
                let expected = MatchReport::from_counts(
                    per_update[engine_idx][offset..offset + batch.updates]
                        .iter()
                        .flat_map(|r| r.matches.iter().map(|m| (m.query, m.new_embeddings)))
                        .collect(),
                );
                prop_assert_eq!(
                    &batch.report,
                    &expected,
                    "{} diverged on batch at offset {} (len {}, max_batch {}, delay {})",
                    pipe.name(),
                    offset,
                    batch.updates,
                    max_batch,
                    delay_ticks
                );
                offset += batch.updates;
            }
            prop_assert_eq!(offset, stream.len(), "pipeline must tile the stream");
        }
    }

    /// Engines never panic on arbitrary streams even with no queries, or with
    /// queries whose labels never appear in the stream.
    #[test]
    fn engines_are_total_on_arbitrary_streams(
        stream_specs in proptest::collection::vec((0u8..4, 0u8..6, 0u8..6), 0..80),
    ) {
        let mut symbols = SymbolTable::new();
        let unrelated = QueryPattern::parse("?a -neverSeen-> ?b; ?b -alsoNever-> ?c", &mut symbols)
            .expect("valid");
        let mut engines = all_engines();
        for engine in engines.iter_mut() {
            engine.register_query(&unrelated).unwrap();
        }
        for &(label, src, tgt) in &stream_specs {
            let update = Update::new(
                symbols.intern(&format!("e{label}")),
                symbols.intern(&format!("v{src}")),
                symbols.intern(&format!("v{tgt}")),
            );
            for engine in engines.iter_mut() {
                prop_assert!(engine.apply_update(update).is_empty());
            }
        }
    }
}
