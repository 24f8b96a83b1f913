//! Cases the workload matrix cannot express: a hand-written query set,
//! hand-built batches with a known embedding count, the dense insert-only
//! taxi shape the benchmark runs, the full-size stress workloads, the reuse
//! of TRIC's run scratch across runs, flushes and query lifecycle, and
//! pipelines under a slowed, yield-injected or real-clock answer stage —
//! each checked against the same per-update reference.

use std::time::{Duration, Instant};

use graph_stream_matching::baselines::IncEngine;
use graph_stream_matching::core::prelude::*;
use graph_stream_matching::core::{DetachedAnswer, EngineStats, StagedBatch};
use graph_stream_matching::datagen::{Dataset, Workload, WorkloadConfig};
use graph_stream_matching::graphdb::GraphDbEngine;
use graph_stream_matching::persist::{MemFactory, PersistConfig};
use graph_stream_matching::tric::TricEngine;
use graph_stream_matching::{all_engine_factories, open_persistent_engine};

use crate::harness::{tiles, Case};

/// Hand-written corner cases — a self loop, a triangle, a star with mixed
/// directions, constants on both ends, a repeated label along a chain and
/// a diamond — under a deterministic pseudo-random stream over few
/// vertices, so duplicates and self loops are frequent.
pub fn corner_cases() -> Case {
    let mut symbols = SymbolTable::new();
    let queries = [
        "?a -e0-> ?a",
        "?a -e0-> ?b; ?b -e1-> ?c; ?c -e2-> ?a",
        "?c -e0-> ?x; ?y -e1-> ?c; ?c -e2-> ?z",
        "v1 -e0-> v2",
        "?a -e0-> ?b; ?b -e0-> ?c; ?c -e0-> ?d",
        "?a -e0-> ?b; ?a -e1-> ?c; ?b -e2-> ?d; ?c -e3-> ?d",
    ]
    .map(|q| QueryPattern::parse(q, &mut symbols).unwrap());
    let labels: Vec<Sym> = (0..4).map(|i| symbols.intern(&format!("e{i}"))).collect();
    let vertices: Vec<Sym> = (0..6).map(|i| symbols.intern(&format!("v{i}"))).collect();
    let mut state = 0x12345678u64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let stream = (0..500)
        .map(|_| {
            Update::new(
                labels[next() % labels.len()],
                vertices[next() % vertices.len()],
                vertices[next() % vertices.len()],
            )
        })
        .collect();
    Case::replay("hand-written corner cases", queries.to_vec(), stream)
}

/// Replays `history` one update at a time and then `batch` as one batch on
/// every engine, checks both against the reference, and pins the number of
/// new embeddings the batch reports.
fn assert_batch_edge_case(
    queries: &[&str],
    history: &[(&str, &str, &str)],
    batch: &[(&str, &str, &str)],
    expected_embeddings: u64,
) {
    let mut symbols = SymbolTable::new();
    let queries: Vec<QueryPattern> = queries
        .iter()
        .map(|q| QueryPattern::parse(q, &mut symbols).unwrap())
        .collect();
    let stream: Vec<Update> = history
        .iter()
        .chain(batch)
        .map(|(l, s, t)| Update::new(symbols.intern(l), symbols.intern(s), symbols.intern(t)))
        .collect();
    let case = Case::replay("a batch edge case", queries, stream);
    let mut lens = vec![1; history.len()];
    lens.push(batch.len());
    for factory in all_engine_factories() {
        let engine = factory();
        let label = format!("{}, history then one batch", engine.name());
        case.check_batches(&label, engine, &lens);
    }
    let batch_range = history.len()..case.stream().len();
    assert_eq!(
        case.expected(batch_range).total_embeddings(),
        expected_embeddings
    );
}

#[test]
fn duplicate_edges_inside_one_batch_count_once() {
    // The same edge three times in one batch, plus a duplicate of history:
    // exactly one new embedding (from the one genuinely new edge).
    assert_batch_edge_case(
        &["?a -e0-> ?b"],
        &[("e0", "x", "y")],
        &[
            ("e0", "x", "y"), // duplicate of history
            ("e0", "u", "v"), // new
            ("e0", "u", "v"), // duplicate inside the batch
            ("e0", "u", "v"),
        ],
        1,
    );
}

#[test]
fn self_loops_inside_a_batch() {
    // A self-loop query plus a chain through the loop vertex; the batch
    // mixes loop and non-loop edges on the same label.
    assert_batch_edge_case(
        &["?a -e0-> ?a", "?a -e0-> ?b; ?b -e1-> ?c"],
        &[],
        &[
            ("e0", "x", "x"), // satisfies the loop, starts the chain (a=x, b=x)
            ("e0", "x", "y"), // starts the chain only
            ("e1", "x", "z"), // completes chain x -e0-> x -e1-> z
            ("e0", "w", "v"), // unrelated chain prefix, no e1 edge from v
        ],
        // Loop: 1 embedding. Chain: x->x->z completes once the e1 edge lands.
        2,
    );
}

#[test]
fn batch_that_completes_and_extends_the_same_query() {
    // History holds one chain prefix; the batch both completes that chain
    // (via the y edge) and adds a second prefix that the same y edge extends
    // — the same query gains embeddings from two different updates of one
    // batch, which the batched path must merge into a single report entry.
    assert_batch_edge_case(
        &["?a -x-> ?b; ?b -y-> ?c"],
        &[("x", "a1", "b")],
        &[
            ("y", "b", "c"),  // completes a1 -x-> b -y-> c
            ("x", "a2", "b"), // extends: a2 -x-> b -y-> c
        ],
        2,
    );
}

#[test]
fn batch_completing_and_extending_multiple_covering_paths() {
    // A star query with two covering paths: the batch completes the query
    // (first b edge) and simultaneously extends both paths with more leaves.
    assert_batch_edge_case(
        &["?c -a-> ?x; ?c -b-> ?y"],
        &[("a", "hub", "x1")],
        &[
            ("b", "hub", "y1"), // completes (x1, y1)
            ("a", "hub", "x2"), // extends path a: (x2, y1)
            ("b", "hub", "y2"), // extends path b: (x1, y2) and (x2, y2)
        ],
        4,
    );
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
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "large BioGrid scenario; run with --features slow-tests"
)]
fn engines_agree_on_biogrid_workload_large() {
    Case::generate(WorkloadConfig::new(Dataset::BioGrid, 400, 25).with_query_size(3));
}

#[test]
#[cfg_attr(
    not(feature = "slow-tests"),
    ignore = "large overlap scenario; run with --features slow-tests"
)]
fn engines_agree_with_high_overlap_and_long_queries_large() {
    Case::generate(
        WorkloadConfig::new(Dataset::Snb, 700, 30)
            .with_query_size(7)
            .with_overlap(0.8),
    );
}

/// Per-query `(new, retracted)` embedding totals of `reports`, indexed by
/// query id over `num_queries` queries.
fn query_totals(
    reports: impl IntoIterator<Item = MatchReport>,
    num_queries: usize,
) -> Vec<(u64, u64)> {
    let mut totals = vec![(0, 0); num_queries];
    for report in reports {
        for m in &report.matches {
            totals[m.query.index()].0 += m.new_embeddings;
            totals[m.query.index()].1 += m.retracted_embeddings;
        }
    }
    totals
}

/// Per-query `(new, retracted)` totals of the history and of the updates
/// after the late registrations.
type PhaseTotals = [Vec<(u64, u64)>; 2];

/// The late-registration scenario: one query before the stream, a history,
/// three queries registered mid-stream, and the updates after them.
struct LateRegistration {
    symbols: SymbolTable,
    early: QueryPattern,
    history: Vec<Update>,
    late: Vec<QueryPattern>,
    after: Vec<Update>,
}

impl LateRegistration {
    fn new() -> Self {
        let mut symbols = SymbolTable::new();
        let mut parse = |q: &str| QueryPattern::parse(q, &mut symbols).unwrap();
        let early = parse("?a -e-> ?b");
        let late = vec![
            // A label with history but no earlier query.
            parse("?a -h-> ?x; ?x -k-> ?y"),
            // A constant-endpoint shape next to the earlier `?a -e-> ?b`.
            parse("c -e-> ?x; ?x -k-> ?y"),
            // A self-loop shape of the same label.
            parse("?x -e-> ?x; ?x -k-> ?y"),
        ];
        let mut edge = |sign: char, l: &str, s: &str, t: &str| {
            let (l, s, t) = (symbols.intern(l), symbols.intern(s), symbols.intern(t));
            match sign {
                '+' => Update::new(l, s, t),
                _ => Update::retraction(l, s, t),
            }
        };
        let history = vec![
            edge('+', "h", "a1", "x1"),
            edge('+', "h", "a2", "x1"),
            edge('+', "e", "c", "v1"),
            edge('+', "e", "c", "v2"),
            edge('+', "e", "d", "v1"),
            edge('+', "e", "c", "c"),
            edge('+', "e", "v2", "v2"),
            // Retracted before the registration: the late queries never
            // see it.
            edge('+', "h", "a3", "x2"),
            edge('-', "h", "a3", "x2"),
        ];
        let after = vec![
            edge('+', "k", "x1", "y1"), // a1 and a2 -h-> x1
            edge('+', "k", "x2", "y9"), // a3 -h-> x2 is gone
            edge('+', "k", "v1", "y2"), // c -e-> v1
            edge('+', "k", "c", "y3"),  // c -e-> c, and the loop at c
            edge('+', "k", "v2", "y4"), // c -e-> v2, and the loop at v2
            edge('-', "e", "c", "v1"),  // a pre-registration edge goes
            edge('-', "h", "a1", "x1"), // and another
            edge('+', "e", "c", "v3"),
        ];
        LateRegistration {
            symbols,
            early,
            history,
            late,
            after,
        }
    }

    fn num_queries(&self) -> usize {
        1 + self.late.len()
    }

    /// Registers the early query, applies the history as one batch,
    /// registers the late queries and applies the rest one update at a
    /// time; returns the per-query totals of the history and of the rest.
    fn drive(&self, engine: &mut dyn ContinuousEngine) -> PhaseTotals {
        engine.register_query(&self.early).expect("register");
        let history = engine.apply_batch(&self.history);
        for q in &self.late {
            engine.register_query(q).expect("register");
        }
        let after: Vec<MatchReport> = self.after.iter().map(|&u| engine.apply_update(u)).collect();
        [
            query_totals([history], self.num_queries()),
            query_totals(after, self.num_queries()),
        ]
    }

    /// [`drive`](Self::drive) through a pipeline flushing every three
    /// updates; the late queries register at a barrier.
    fn drive_pipelined(
        &self,
        engine: Box<dyn ContinuousEngine + Send>,
        config: PipelineConfig,
    ) -> PhaseTotals {
        let mut pipe = PipelinedEngine::new(engine, config);
        pipe.register_query(&self.early).expect("register");
        let mut history: Vec<CompletedBatch> = Vec::new();
        for &u in &self.history {
            history.extend(pipe.push(u));
        }
        history.extend(pipe.drain());
        for q in &self.late {
            pipe.register_query(q).expect("register");
        }
        let mut after: Vec<CompletedBatch> = Vec::new();
        for &u in &self.after {
            after.extend(pipe.push(u));
        }
        after.extend(pipe.drain());
        [
            query_totals(history.into_iter().map(|b| b.report), self.num_queries()),
            query_totals(after.into_iter().map(|b| b.report), self.num_queries()),
        ]
    }

    /// [`drive`](Self::drive) through engine `index` behind the durable
    /// wrapper, with a checkpoint right after the late registrations and,
    /// when `recover`, a crash and a recovery right after the checkpoint.
    fn drive_durable(&self, index: usize, recover: bool) -> PhaseTotals {
        let disk = MemFactory::new();
        let open = || {
            open_persistent_engine(index, 1, Box::new(disk.handle()), PersistConfig::default())
                .expect("open")
                .0
        };
        let mut engine = open();
        engine.note_symbols(&self.symbols).unwrap();
        engine.try_register_query(&self.early).unwrap();
        let history = engine.try_apply_batch(&self.history).unwrap();
        for q in &self.late {
            engine.try_register_query(q).unwrap();
        }
        engine.checkpoint().unwrap();
        if recover {
            drop(engine);
            engine = open();
        }
        let after: Vec<MatchReport> = self
            .after
            .iter()
            .map(|&u| engine.try_apply_batch(&[u]).unwrap())
            .collect();
        [
            query_totals([history], self.num_queries()),
            query_totals(after, self.num_queries()),
        ]
    }
}

/// A query registered at *t* matches against the live graph at *t* on every
/// engine and every composition: three queries register mid-stream — over
/// a label with history that no earlier query used, as a constant-endpoint
/// shape next to an earlier variable–variable shape of the same label, and
/// as a self-loop shape — and then the stream completes embeddings through
/// pre-registration edges and retracts two of them. Every run reports the
/// same hand-pinned totals: all seven engines bare, behind the sharded
/// wrapper at 2, 4 and 8 shards, behind the pipeline inline and threaded,
/// and behind the durable wrapper with a checkpoint after the registration,
/// uninterrupted and recovered.
#[test]
fn late_registration_matches_the_live_graph() {
    let scenario = LateRegistration::new();
    // `?a -e-> ?b` gains the five pre-registration `e` edges; the history
    // reports nothing else.
    let history = vec![(5, 0), (0, 0), (0, 0), (0, 0)];
    let after = vec![
        // `?a -e-> ?b`: c -e-> v3 new, c -e-> v1 retracted.
        (1, 1),
        // `?a -h-> ?x; ?x -k-> ?y`: a1 and a2 through x1 to y1; a1 retracted.
        (2, 1),
        // `c -e-> ?x; ?x -k-> ?y`: through v1, c and v2; v1 retracted.
        (3, 1),
        // `?x -e-> ?x; ?x -k-> ?y`: the loops at c and v2.
        (2, 0),
    ];
    let expected = [history, after];

    for (index, factory) in all_engine_factories().into_iter().enumerate() {
        let name = factory().name();
        let mut runs: Vec<(String, PhaseTotals)> = Vec::new();
        runs.push(("bare".into(), scenario.drive(factory().as_mut())));
        for shards in [2, 4, 8] {
            let mut engine = ShardedEngine::new(shards, factory);
            runs.push((format!("{shards} shards"), scenario.drive(&mut engine)));
        }
        for workers in [0, 2] {
            let mut config = PipelineConfig::new(3, Duration::MAX);
            if workers > 0 {
                config = config.threaded().with_answer_workers(workers);
            }
            let totals = scenario.drive_pipelined(factory(), config);
            runs.push((format!("pipelined, {workers} answer workers"), totals));
        }
        for recover in [false, true] {
            let totals = scenario.drive_durable(index, recover);
            runs.push((format!("durable, recovered: {recover}"), totals));
        }
        for (composition, totals) in runs {
            assert_eq!(totals, expected, "{name}, {composition}");
        }
    }
}

/// One step of a lifecycle script: a registration, an unregistration, or a
/// flush of updates answered as one batch.
enum Step {
    Register(QueryPattern),
    Unregister(QueryId),
    Flush(Vec<Update>),
}

/// The hazards of TRIC's engine-owned run scratch, in one script. Label `e`
/// has an open view (`?a -e-> ?b`) and a constant-endpoint view
/// (`c -e-> ?x`). One flush inserts, retracts and re-inserts `c -e-> v2`,
/// re-inserts the already live `d -e-> v1`, and retracts and re-inserts the
/// live `c -e-> v1`: five sign runs that reuse the same edge-delta and
/// trie-node slots. Between flushes, unregistering query 2 prunes its
/// private `e → g` node, whose slot the flush before had filled, and query
/// 3 registers a deeper chain, whose new node lies past the slots the
/// scratch was sized for. The next flush slides through both.
fn scratch_reuse_script() -> (SymbolTable, Vec<Step>) {
    let mut symbols = SymbolTable::new();
    let mut parse = |q: &str| QueryPattern::parse(q, &mut symbols).unwrap();
    let queries = [
        parse("?a -e-> ?b; ?b -f-> ?c"),
        parse("c -e-> ?x; ?x -f-> ?y"),
        parse("?a -e-> ?b; ?b -g-> ?c"),
    ];
    let late = parse("c -e-> ?x; ?x -f-> ?y; ?y -g-> ?z");
    let mut flush = |edges: &[(char, &str, &str, &str)]| {
        let updates = edges
            .iter()
            .map(|&(sign, l, s, t)| {
                let (l, s, t) = (symbols.intern(l), symbols.intern(s), symbols.intern(t));
                match sign {
                    '+' => Update::new(l, s, t),
                    _ => Update::retraction(l, s, t),
                }
            })
            .collect();
        Step::Flush(updates)
    };
    let history = flush(&[
        ('+', "e", "c", "v1"),
        ('+', "e", "d", "v1"),
        ('+', "f", "v1", "w1"),
        ('+', "g", "v1", "z1"),
        ('+', "g", "w1", "z2"),
    ]);
    let churn = flush(&[
        ('+', "e", "c", "v2"),
        ('+', "e", "d", "v1"), // already live: absorbed
        ('+', "f", "v2", "w2"),
        ('-', "e", "c", "v2"),
        ('+', "e", "c", "v2"),
        ('-', "e", "c", "v1"),
        ('+', "e", "c", "v1"),
        ('+', "f", "v1", "w3"),
    ]);
    let slide = flush(&[
        ('+', "g", "w2", "z3"),
        ('-', "e", "c", "v1"),
        ('+', "e", "c", "v1"),
        ('-', "g", "w2", "z3"),
        ('-', "f", "v2", "w2"),
        ('+', "g", "w1", "z4"),
    ]);
    let mut steps: Vec<Step> = queries.into_iter().map(Step::Register).collect();
    steps.extend([
        history,
        churn,
        Step::Unregister(QueryId(2)),
        Step::Register(late),
        slide,
    ]);
    (symbols, steps)
}

/// Runs `steps` on `engine`; one report per flush.
fn drive_steps(engine: &mut dyn ContinuousEngine, steps: &[Step]) -> Vec<MatchReport> {
    let mut reports = Vec::new();
    for step in steps {
        match step {
            Step::Register(q) => {
                engine.register_query(q).expect("register");
            }
            Step::Unregister(id) => engine.unregister_query(*id).expect("unregister"),
            Step::Flush(updates) => reports.push(engine.apply_batch(updates)),
        }
    }
    reports
}

/// [`drive_steps`] through a pipeline that flushes at the drain only, so
/// that each flush of the script is one staged batch.
fn drive_steps_pipelined(
    engine: Box<dyn ContinuousEngine + Send>,
    config: PipelineConfig,
    steps: &[Step],
) -> Vec<MatchReport> {
    let mut pipe = PipelinedEngine::new(engine, config);
    let mut reports = Vec::new();
    for step in steps {
        match step {
            Step::Register(q) => {
                pipe.register_query(q).expect("register");
            }
            Step::Unregister(id) => pipe.unregister_query(*id).expect("unregister"),
            Step::Flush(updates) => {
                let mut completed = Vec::new();
                for &u in updates {
                    completed.extend(pipe.push(u));
                }
                completed.extend(pipe.drain());
                assert_eq!(completed.len(), 1, "a flush is one batch");
                reports.push(completed.remove(0).report);
            }
        }
    }
    reports
}

/// [`drive_steps`] through engine `index` behind the durable wrapper.
fn drive_steps_durable(index: usize, symbols: &SymbolTable, steps: &[Step]) -> Vec<MatchReport> {
    let disk = MemFactory::new();
    let (mut engine, _) =
        open_persistent_engine(index, 1, Box::new(disk.handle()), PersistConfig::default())
            .expect("open");
    engine.note_symbols(symbols).unwrap();
    let mut reports = Vec::new();
    for step in steps {
        match step {
            Step::Register(q) => {
                engine.try_register_query(q).unwrap();
            }
            Step::Unregister(id) => engine.try_unregister_query(*id).unwrap(),
            Step::Flush(updates) => reports.push(engine.try_apply_batch(updates).unwrap()),
        }
    }
    reports
}

/// TRIC and TRIC+ keep every buffer of a run — edge deltas, one delta slot
/// per trie node, the depth queue, the flush's counts — from run to run.
/// [`scratch_reuse_script`] replays the ways a reused slot could leak one
/// run's rows into the next, or miss a node created or pruned between
/// flushes, and each flush must report what GraphDB reports: bare,
/// pipelined inline and threaded, and durable. GraphDB's own reports are
/// pinned by hand.
#[test]
fn tric_run_scratch_is_reused_safely_across_runs_flushes_and_lifecycle() {
    let (symbols, steps) = scratch_reuse_script();
    let reference = drive_steps(&mut GraphDbEngine::new(), &steps);
    let report = |counts: &[(u32, u64, u64)]| MatchReport {
        matches: counts
            .iter()
            .map(|&(q, new_embeddings, retracted_embeddings)| QueryMatch {
                query: QueryId(q),
                new_embeddings,
                retracted_embeddings,
            })
            .collect(),
    };
    assert_eq!(
        reference,
        vec![
            // `e` into `f` from c and d, `c -e->` into `f`, `e` into `g`.
            report(&[(0, 2, 0), (1, 1, 0), (2, 2, 0)]),
            // Per sign run: +1 +1 0 (v2 and w2); -1 -1 0; +1 +1 0; -1 -1 -1
            // (c, v1); +3 +2 +1 (c -e-> v1 back, and w3).
            report(&[(0, 5, 2), (1, 4, 2), (2, 1, 1)]),
            // 0 0 +1 (z3); -2 -2 -1; +2 +2 +1; -1 -1 -1 (w2 and z3); 0 0 +1.
            report(&[(0, 2, 3), (1, 2, 3), (3, 3, 2)]),
        ],
        "GraphDB's reference reports"
    );
    // TRIC and TRIC+ lead the factory list.
    for (index, factory) in all_engine_factories().into_iter().enumerate().take(2) {
        let name = factory().name();
        assert!(name.starts_with("TRIC"), "{name}");
        let mut runs = vec![("bare", drive_steps(factory().as_mut(), &steps))];
        for (composition, workers) in [("pipelined inline", 0), ("pipelined, 2 workers", 2)] {
            let mut config = PipelineConfig::new(1_024, Duration::MAX);
            if workers > 0 {
                config = config.threaded().with_answer_workers(workers);
            }
            runs.push((
                composition,
                drive_steps_pipelined(factory(), config, &steps),
            ));
        }
        runs.push(("durable", drive_steps_durable(index, &symbols, &steps)));
        for (composition, reports) in runs {
            assert_eq!(reports, reference, "{name}, {composition}");
        }
    }
}

/// A pipeline whose delay `Instant` cannot represent flushes on size and
/// at the drain only, under the real clock too: every completed batch but
/// the drained tail is exactly `max_batch` updates, and each matches the
/// reference.
#[test]
fn unbounded_delay_pipeline_flushes_on_size_alone() {
    let case = crate::taxi_window();
    for workers in [0, 2] {
        let mut config = PipelineConfig::new(16, Duration::MAX);
        if workers > 0 {
            config = config.threaded().with_answer_workers(workers);
        }
        let mut pipe = PipelinedEngine::new(TricEngine::tric_plus(), config);
        for q in case.queries() {
            pipe.register_query(q).expect("register");
        }
        let mut completed = Vec::new();
        for &u in case.stream() {
            completed.extend(pipe.push(u));
        }
        completed.extend(pipe.drain());
        let sizes: Vec<usize> = completed.iter().map(|b| b.updates).collect();
        let len = case.stream().len();
        let mut expected = vec![16; len / 16];
        if !len.is_multiple_of(16) {
            expected.push(len % 16);
        }
        assert_eq!(sizes, expected, "{workers} workers: flush points");
        let stats = pipe.stats();
        case.check_tiles(
            &format!("unbounded delay, {workers} workers"),
            &tiles(completed),
            stats,
        );
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
    // *finish* 40 ms before batch #0 and park in the reorder buffer. Either
    // way completion must be arrival-ordered and the reports must tile the
    // stream exactly like an untimed run.
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
    let case = Case::replay("a two-hop chain", vec![q], stream);

    for workers in [1usize, 2, 4] {
        let config = PipelineConfig::new(3, Duration::from_secs(60))
            .threaded()
            .with_answer_workers(workers);
        let slow = SlowFirstAnswer {
            inner: TricEngine::tric_plus(),
            staged: 0,
        };
        let mut pipe = PipelinedEngine::new(slow, config);
        for q in case.queries() {
            pipe.register_query(q).unwrap();
        }
        let now = Instant::now();
        let mut completed = Vec::new();
        for &u in case.stream() {
            completed.extend(pipe.push_at(u, now));
        }
        completed.extend(pipe.drain());

        // 24 updates in flush-3 batches → 8 batches of 3, in arrival order.
        assert!(
            completed.iter().all(|b| b.updates == 3),
            "wrong tiles ({workers} workers)"
        );
        let stats = pipe.stats();
        case.check_tiles(
            &format!("slow first answer, {workers} workers"),
            &tiles(completed),
            stats,
        );
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
/// over TRIC+ on two shards. Iteration count scales with `GSM_SOAK_ITERS`;
/// gated behind `slow-tests` so the tier-1 debug suite keeps its budget.
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

    for iteration in 0..iterations {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE + iteration);
        let updates = rng.gen_range(400..900);
        let queries = rng.gen_range(12..28);
        let case = Case::generate(
            WorkloadConfig::new(Dataset::Snb, updates, queries)
                .with_selectivity(0.3 + 0.4 * rng.gen::<f64>()),
        );

        // Threaded pipeline over yield-injected sharded TRIC+.
        let flush = rng.gen_range(1..64);
        let delay_ticks = rng.gen_range(1..8u64);
        let tick_ms = rng.gen_range(0..3u64);
        let workers = rng.gen_range(1..5);
        let config = PipelineConfig::new(flush, Duration::from_millis(delay_ticks))
            .threaded()
            .with_answer_workers(workers);
        let engine = YieldInjector {
            inner: TricEngine::tric_plus_sharded(2),
            state: 0xBAD5EED + iteration,
        };
        let mut pipe = PipelinedEngine::new(engine, config);
        for q in case.queries() {
            pipe.register_query(q).unwrap();
        }

        let t0 = Instant::now();
        let mut completed = Vec::new();
        for (i, &u) in case.stream().iter().enumerate() {
            let now = t0 + Duration::from_millis(i as u64 * tick_ms);
            completed.extend(pipe.push_at(u, now));
            // Random flush-deadline polls between pushes.
            if rng.gen_bool(0.05) {
                completed.extend(pipe.poll_at(now + Duration::from_millis(rng.gen_range(0..10))));
            }
        }
        completed.extend(pipe.drain());
        let stats = pipe.stats();
        case.check_tiles(
            &format!(
                "soak iteration {iteration} (flush {flush}, delay {delay_ticks}, \
                 {workers} answer workers)"
            ),
            &tiles(completed),
            stats,
        );
    }
}
