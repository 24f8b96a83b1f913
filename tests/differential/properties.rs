//! Property-based tests: on random query sets (and one fixed set) over
//! random update streams in a small label/vertex universe — insert-only,
//! and mixed on the fixed set — all seven engines agree one update at a
//! time, and random batch partitions, shard counts and pipeline flush
//! bounds reproduce that reference; the report
//! merge is a commutative monoid, and no engine panics on an arbitrary
//! stream.

use proptest::prelude::*;

use graph_stream_matching::baselines::{BaselineEngine, BaselineMode};
use graph_stream_matching::core::prelude::*;
use graph_stream_matching::core::ShardedEngine;
use graph_stream_matching::tric::TricEngine;
use graph_stream_matching::{all_engine_factories, all_engines};

use crate::harness::Case;

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

/// Seven queries with cycles, self loops, constants, stars and repeated
/// labels over the labels `e0`–`e2`.
fn fixed_queries(symbols: &mut SymbolTable) -> Vec<QueryPattern> {
    [
        "?a -e0-> ?b; ?b -e1-> ?c",
        "?a -e1-> ?b; ?b -e2-> ?c; ?c -e0-> ?a",
        "?h -e0-> ?x; ?h -e2-> ?y",
        "?a -e0-> v3",
        "?a -e2-> ?a",
        "?a -e0-> ?b; ?b -e0-> ?c; ?c -e1-> ?d",
        "?x -e1-> ?y; ?z -e1-> ?y",
    ]
    .map(|q| QueryPattern::parse(q, symbols).unwrap())
    .into()
}

/// The insertion of the edge `v{src} -e{label}-> v{tgt}`.
fn edge(symbols: &mut SymbolTable, (label, src, tgt): (u8, u8, u8)) -> Update {
    Update::new(
        symbols.intern(&format!("e{label}")),
        symbols.intern(&format!("v{src}")),
        symbols.intern(&format!("v{tgt}")),
    )
}

/// A stream of insertions and retractions: each spec inserts its edge or,
/// when its selector is below 2 and an edge is live, retracts the live edge
/// its pick indexes, so about two updates in five are retractions.
fn mixed_stream(symbols: &mut SymbolTable, specs: &[(u8, u8, u8, u8, usize)]) -> Vec<Update> {
    let mut live: Vec<Update> = Vec::new();
    specs
        .iter()
        .map(|&(label, src, tgt, selector, pick)| {
            if selector < 2 && !live.is_empty() {
                return live.swap_remove(pick % live.len()).inverted();
            }
            let u = edge(symbols, (label, src, tgt));
            if !live.contains(&u) {
                live.push(u);
            }
            u
        })
        .collect()
}

/// The reference replay of a random query set and stream, or `None` when
/// no query survived [`build_query`].
fn random_case(query_specs: &[Vec<EdgeSpec>], stream_specs: &[(u8, u8, u8)]) -> Option<Case> {
    let mut symbols = SymbolTable::new();
    let queries: Vec<QueryPattern> = query_specs
        .iter()
        .filter_map(|specs| build_query(specs, &mut symbols))
        .collect();
    if queries.is_empty() {
        return None;
    }
    let stream = stream_specs
        .iter()
        .map(|&spec| edge(&mut symbols, spec))
        .collect();
    Some(Case::replay("a random workload", queries, stream))
}

proptest! {
    // Each case replays a stream against seven engines; keep the case count
    // moderate so the whole file stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The reference replay alone: every engine reports what TRIC reports,
    /// update by update, stats included.
    #[test]
    fn all_engines_agree_on_random_workloads(
        query_specs in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..5, 0u8..5, any::<bool>(), any::<bool>()), 1..4),
            1..6,
        ),
        stream_specs in proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 1..120),
    ) {
        let case = random_case(&query_specs, &stream_specs);
        prop_assume!(case.is_some());
    }

    /// Every engine, chunking the stream arbitrarily, reports per batch the
    /// merged reference reports of that chunk.
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
        let case = random_case(&query_specs, &stream_specs);
        prop_assume!(case.is_some());
        let case = case.unwrap();
        for factory in all_engine_factories() {
            let engine = factory();
            let label = format!("{} over chunks {chunk_lens:?}", engine.name());
            case.check_batches(&label, engine, &chunk_lens);
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

    /// Every engine behind the sharded wrapper, at a random shard count,
    /// reports what the reference reports, update by update.
    #[test]
    fn sharded_engines_agree_on_random_workloads(
        query_specs in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..5, 0u8..5, any::<bool>(), any::<bool>()), 1..4),
            1..5,
        ),
        stream_specs in proptest::collection::vec((0u8..3, 0u8..5, 0u8..5), 1..90),
        num_shards in 1usize..9,
    ) {
        let case = random_case(&query_specs, &stream_specs);
        prop_assume!(case.is_some());
        let case = case.unwrap();
        for factory in all_engine_factories() {
            let engine = ShardedEngine::new(num_shards, factory);
            let label = format!("{} × {num_shards} shards", engine.name());
            case.check_batches(&label, engine, &[1]);
        }
    }

    /// Sharded batched replay under random batch partitions, for the two
    /// engines at the ends of the spectrum (TRIC+ with its cached join
    /// builds, INC without).
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
        let case = random_case(&query_specs, &stream_specs);
        prop_assume!(case.is_some());
        let case = case.unwrap();
        let label = format!("× {num_shards} shards over chunks {chunk_lens:?}");
        case.check_batches(
            &format!("TRIC+ {label}"),
            TricEngine::tric_plus_sharded(num_shards),
            &chunk_lens,
        );
        case.check_batches(
            &format!("INC {label}"),
            BaselineEngine::sharded(BaselineMode::Inc, false, num_shards),
            &chunk_lens,
        );
    }

    /// The pipelined executor under *random* flush sizes, flush deadlines
    /// and inter-update arrival gaps (driven through a synthetic clock):
    /// whatever segmentation the batcher picks, every completed batch
    /// reports the merged reference reports of exactly the updates it
    /// covered. Exercised on TRIC+, INC and TRIC+ behind the sharded
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
        use std::time::Duration;

        let case = random_case(&query_specs, &stream_specs);
        prop_assume!(case.is_some());
        let case = case.unwrap();
        let arrivals: Vec<u64> = (0..stream_specs.len())
            .scan(0, |clock, i| {
                *clock += gaps[i % gaps.len()];
                Some(*clock)
            })
            .collect();
        let config = PipelineConfig::new(max_batch, Duration::from_millis(delay_ticks));
        let engines: [Box<dyn ContinuousEngine>; 3] = [
            Box::new(TricEngine::tric_plus()),
            Box::new(BaselineEngine::inc()),
            Box::new(TricEngine::tric_plus_sharded(num_shards)),
        ];
        for engine in engines {
            let label = format!(
                "{} pipelined (max_batch {max_batch}, delay {delay_ticks}, {num_shards} shards)",
                engine.name()
            );
            case.check_pipeline(&label, engine, config, |i| arrivals[i]);
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
            let update = edge(&mut symbols, (label, src, tgt));
            for engine in engines.iter_mut() {
                prop_assert!(engine.apply_update(update).is_empty());
            }
        }
    }
}

proptest! {
    // The fixed query set is cheap to register; keep more cases and longer
    // streams here.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every engine, chunking the stream arbitrarily, on a fixed query set
    /// rich in cycles and self loops over a denser vertex universe.
    #[test]
    fn fixed_queries_batch_partitions_equal_sequential(
        stream_specs in proptest::collection::vec((0u8..3, 0u8..6, 0u8..6), 1..150),
        chunk_lens in proptest::collection::vec(1usize..12, 1..10),
    ) {
        let mut symbols = SymbolTable::new();
        let queries = fixed_queries(&mut symbols);
        let stream = stream_specs
            .iter()
            .map(|&spec| edge(&mut symbols, spec))
            .collect();
        let case = Case::replay("the fixed query set", queries, stream);
        for factory in all_engine_factories() {
            let engine = factory();
            let label = format!("{} over chunks {chunk_lens:?}", engine.name());
            case.check_batches(&label, engine, &chunk_lens);
        }
    }

    /// The same on streams of insertions and retractions, plain and behind
    /// the sharded wrapper at a random shard count: mixed chunks straddle
    /// sign boundaries, and retractions unwind cycles, self loops and
    /// multi-root queries on their home shards.
    #[test]
    fn fixed_queries_mixed_streams_equal_sequential(
        stream_specs in proptest::collection::vec(
            (0u8..3, 0u8..8, 0u8..8, 0u8..5, any::<usize>()),
            1..150,
        ),
        chunk_lens in proptest::collection::vec(1usize..12, 1..10),
        num_shards in 1usize..9,
    ) {
        let mut symbols = SymbolTable::new();
        let queries = fixed_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols, &stream_specs);
        let case = Case::replay("the fixed query set, mixed", queries, stream);
        for factory in all_engine_factories() {
            let engine = factory();
            let label = format!("{} over chunks {chunk_lens:?}", engine.name());
            case.check_batches(&label, engine, &chunk_lens);
            let engine = ShardedEngine::new(num_shards, factory);
            let label = format!("{label} × {num_shards} shards");
            case.check_batches(&label, engine, &chunk_lens);
        }
    }
}
