//! Property-based tests: on random query sets (and one fixed set) over
//! random update streams in a small label/vertex universe — insert-only,
//! and mixed on the fixed set — all seven engines agree one update at a
//! time, and random batch partitions, shard counts, pipeline flush
//! bounds, registration points and lifecycle churn reproduce that
//! reference; the report merge is a commutative monoid, and no engine
//! panics on an arbitrary stream.

use std::ops::Range;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use graph_stream_matching::baselines::{BaselineEngine, BaselineMode};
use graph_stream_matching::core::prelude::*;
use graph_stream_matching::core::ShardedEngine;
use graph_stream_matching::graphdb::GraphDbEngine;
use graph_stream_matching::tric::TricEngine;
use graph_stream_matching::{all_engine_factories, all_engines};

use crate::harness::{tiles, Case};

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

/// One step of a lifecycle-churn schedule.
#[derive(Debug)]
enum Step {
    /// One batch over these stream positions.
    Batch(Range<usize>),
    /// Register the fixed query at this index.
    Register(usize),
    /// Unregister this id: a live one, a dead one or one never issued.
    Unregister(QueryId),
}

/// What a step returned.
#[derive(Debug, PartialEq)]
enum Outcome {
    Report(MatchReport),
    Registered(Result<QueryId>),
    Unregistered(Result<()>),
}

/// A step's outcome and the lifecycle surface right after it.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Outcome,
    next_id: QueryId,
    num_queries: usize,
    /// `is_registered` of every id below `next_id + 3`, so that the three
    /// ids past the last issued one are asked too.
    registered: Vec<bool>,
}

/// Runs one step on `engine`, answering a batch with `batch`.
fn run_step<E: ContinuousEngine>(
    engine: &mut E,
    step: &Step,
    queries: &[QueryPattern],
    stream: &[Update],
    batch: &mut impl FnMut(&mut E, &[Update]) -> MatchReport,
) -> Observed {
    let outcome = match step {
        Step::Batch(range) => Outcome::Report(batch(engine, &stream[range.clone()])),
        Step::Register(q) => Outcome::Registered(engine.register_query(&queries[*q])),
        Step::Unregister(id) => Outcome::Unregistered(engine.unregister_query(*id)),
    };
    let next_id = engine.next_query_id();
    Observed {
        outcome,
        next_id,
        num_queries: engine.num_queries(),
        registered: (0..next_id.0 + 3)
            .map(|q| engine.is_registered(QueryId(q)))
            .collect(),
    }
}

/// Bare GraphDB under a churn schedule: the steps run so far and what
/// GraphDB returned at each.
struct ChurnReference<'a> {
    queries: &'a [QueryPattern],
    stream: &'a [Update],
    engine: GraphDbEngine,
    steps: Vec<Step>,
    observed: Vec<Observed>,
}

impl ChurnReference<'_> {
    /// Runs `step` and checks GraphDB against the trait's id contract:
    /// registrations draw sequential, never reused ids, unknown ids fail
    /// typed, and `num_queries` counts exactly the registered ids.
    fn record(&mut self, step: Step) {
        let seen = run_step(
            &mut self.engine,
            &step,
            self.queries,
            self.stream,
            &mut |e, b| e.apply_batch(b),
        );
        let mut issued = self
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Register(_)))
            .count() as u32;
        match (&step, &seen.outcome) {
            (Step::Register(_), outcome) => {
                assert_eq!(*outcome, Outcome::Registered(Ok(QueryId(issued))));
                issued += 1;
            }
            (Step::Unregister(id), Outcome::Unregistered(Err(e))) => {
                assert_eq!(*e, Error::UnknownQuery(id.0));
            }
            _ => {}
        }
        assert_eq!(seen.next_id, QueryId(issued), "ids are never reused");
        let live = seen.registered.iter().filter(|&&r| r).count();
        assert_eq!(seen.num_queries, live, "num_queries counts the live ids");
        assert!(!seen.registered[issued as usize..].contains(&true));
        self.steps.push(step);
        self.observed.push(seen);
    }
}

/// The churn reference: registers every fixed query, then streams in
/// batches whose lengths cycle through `chunk_lens`, and at each `ops`
/// point `(position, kind, pick)` registers a fixed query (kind 0),
/// unregisters a live id (1) or a dead id (2), or unregisters an id never
/// issued (3). Picks resolve against bare GraphDB as it runs. Returns the
/// resolved schedule and what GraphDB returned at each step.
fn churn_reference(
    queries: &[QueryPattern],
    stream: &[Update],
    ops: &[(usize, u8, usize)],
    chunk_lens: &[usize],
) -> (Vec<Step>, Vec<Observed>) {
    let mut ops: Vec<(usize, u8, usize)> = ops
        .iter()
        .map(|&(at, kind, pick)| (at % (stream.len() + 1), kind, pick))
        .collect();
    ops.sort_by_key(|op| op.0);
    let mut reference = ChurnReference {
        queries,
        stream,
        engine: GraphDbEngine::new(),
        steps: Vec::new(),
        observed: Vec::new(),
    };
    for q in 0..queries.len() {
        reference.record(Step::Register(q));
    }
    let mut chunks = chunk_lens.iter().cycle();
    let mut pos = 0;
    // A last op of no kind streams the rest.
    let end = (stream.len(), u8::MAX, 0);
    for &(at, kind, pick) in ops.iter().chain([&end]) {
        while pos < at {
            let len = (*chunks.next().expect("chunk lengths")).min(at - pos);
            reference.record(Step::Batch(pos..pos + len));
            pos += len;
        }
        let next = reference.engine.next_query_id().0;
        let pool: Vec<QueryId> = (0..next)
            .map(QueryId)
            .filter(|&q| reference.engine.is_registered(q) == (kind == 1))
            .collect();
        let step = match kind {
            0 => Step::Register(pick % queries.len()),
            1 | 2 if pool.is_empty() => continue,
            1 | 2 => Step::Unregister(pool[pick % pool.len()]),
            3 => Step::Unregister(QueryId(next + (pick % 3) as u32)),
            _ => break,
        };
        reference.record(step);
    }
    (reference.steps, reference.observed)
}

proptest! {
    // Each case replays a stream against seven engines; keep the case count
    // moderate so the whole file stays fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The reference replay alone: every engine reports what GraphDB
    /// reports, update by update, stats included.
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

    /// The late-registration contract on random mixed streams: each fixed
    /// query registers at its own random point of the stream, and from
    /// there on every engine, bare and behind the sharded wrapper at a
    /// random shard count, reports for it, one update at a time, exactly
    /// what the reference — which registered it before the stream —
    /// reports.
    #[test]
    fn late_registrations_report_what_early_ones_do(
        stream_specs in proptest::collection::vec(
            (0u8..3, 0u8..8, 0u8..8, 0u8..5, any::<usize>()),
            1..150,
        ),
        register_at in proptest::collection::vec(any::<usize>(), 7),
        num_shards in 1usize..9,
    ) {
        let mut symbols = SymbolTable::new();
        let queries = fixed_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols, &stream_specs);
        let case = Case::replay("the fixed query set, mixed", queries, stream);
        let len = case.stream().len();
        let at: Vec<usize> = register_at.iter().map(|r| r % (len + 1)).collect();
        for factory in all_engine_factories() {
            for shards in [None, Some(num_shards)] {
                let mut engine: Box<dyn ContinuousEngine> = match shards {
                    None => factory(),
                    Some(n) => Box::new(ShardedEngine::new(n, factory)),
                };
                // The engine's id of each registered query → its reference id.
                let mut reference_id: Vec<usize> = Vec::new();
                for (i, &u) in case.stream().iter().enumerate() {
                    for (q, query) in case.queries().iter().enumerate() {
                        if at[q] == i {
                            let id = engine.register_query(query).expect("register");
                            prop_assert_eq!(id.index(), reference_id.len());
                            reference_id.push(q);
                        }
                    }
                    let mut got: Vec<(usize, u64, u64)> = engine
                        .apply_update(u)
                        .matches
                        .iter()
                        .map(|m| (reference_id[m.query.index()], m.new_embeddings, m.retracted_embeddings))
                        .collect();
                    got.sort_unstable();
                    let expected: Vec<(usize, u64, u64)> = case
                        .expected(i..i + 1)
                        .matches
                        .iter()
                        .filter(|m| at[m.query.index()] <= i)
                        .map(|m| (m.query.index(), m.new_embeddings, m.retracted_embeddings))
                        .collect();
                    prop_assert_eq!(
                        got,
                        expected,
                        "{} at {:?} shards, update #{} ({:?}), registrations at {:?}",
                        engine.name(),
                        shards,
                        i,
                        u,
                        &at
                    );
                }
            }
        }
    }

    /// Lifecycle churn: at random points of a random mixed stream, a fixed
    /// query registers, or a live id, a dead id or an id never issued is
    /// unregistered. Every engine — bare, behind the sharded wrapper at a
    /// random shard count and behind an inline pipeline — must return what
    /// bare GraphDB returns at every step (ids, `UnknownQuery` errors and
    /// batch reports) and agree with it on `next_query_id`,
    /// `is_registered` and `num_queries` after every step.
    #[test]
    fn lifecycle_churn_matches_the_reference(
        stream_specs in proptest::collection::vec(
            (0u8..3, 0u8..8, 0u8..8, 0u8..5, any::<usize>()),
            1..150,
        ),
        ops in proptest::collection::vec((any::<usize>(), 0u8..4, any::<usize>()), 0..24),
        chunk_lens in proptest::collection::vec(1usize..12, 1..10),
        num_shards in 1usize..9,
        max_batch in 1usize..12,
    ) {
        let mut symbols = SymbolTable::new();
        let queries = fixed_queries(&mut symbols);
        let stream = mixed_stream(&mut symbols, &stream_specs);
        let (steps, expected) = churn_reference(&queries, &stream, &ops, &chunk_lens);
        let apply = &mut |e: &mut Box<dyn ContinuousEngine + Send>, b: &[Update]| e.apply_batch(b);
        for factory in all_engine_factories() {
            let mut bare = factory();
            let mut sharded: Box<dyn ContinuousEngine + Send> =
                Box::new(ShardedEngine::new(num_shards, factory));
            let mut pipelined = PipelinedEngine::new(
                factory(),
                PipelineConfig::new(max_batch, Duration::MAX),
            );
            let t0 = Instant::now();
            let pipe = &mut |p: &mut PipelinedEngine<Box<dyn ContinuousEngine + Send>>,
                             b: &[Update]| {
                let mut done: Vec<CompletedBatch> =
                    b.iter().flat_map(|&u| p.push_at(u, t0)).collect();
                done.extend(p.drain());
                tiles(done)
                    .iter()
                    .fold(MatchReport::empty(), |acc, (_, report)| acc.merge(report))
            };
            let name = bare.name();
            for (i, (step, want)) in steps.iter().zip(&expected).enumerate() {
                let compositions = [
                    ("bare", run_step(&mut bare, step, &queries, &stream, apply)),
                    ("sharded", run_step(&mut sharded, step, &queries, &stream, apply)),
                    ("pipelined", run_step(&mut pipelined, step, &queries, &stream, pipe)),
                ];
                for (composition, got) in compositions {
                    prop_assert_eq!(
                        &got,
                        want,
                        "{} {} ({} shards) disagrees with GraphDB at step #{} {:?}",
                        name,
                        composition,
                        num_shards,
                        i,
                        step
                    );
                }
            }
        }
    }
}
