//! Targeted tests for the nasty sharding cases: queries whose covering
//! paths root on different shards, batches that route entirely to one
//! shard, self-loop root edges shared by queries on different shards, and
//! mid-stream registration over history that streamed to another shard.
//!
//! The generic guarantee (sharded ≡ unsharded on every workload) is pinned
//! by the sharded families of the workload matrix; the tests here
//! construct the specific topologies by probing [`shard_of`] so the
//! interesting placement is *guaranteed*, not left to workload chance, and
//! they additionally assert the wrapper-internal facts (spanning
//! classification, query placement, routing counts) that the black-box
//! matrix cannot see.

use graph_stream_matching::core::model::generic::{GenTerm, GenericEdge};
use graph_stream_matching::core::prelude::*;
use graph_stream_matching::persist::{MemFactory, PersistConfig, PersistentEngine, QueryTotals};
use graph_stream_matching::tric::TricEngine;
use graph_stream_matching::{all_engine_factories, all_engines, all_engines_sharded};

use crate::harness::Case;

/// Finds a label (from an open-ended candidate pool) whose variable-variable
/// generic edge lands on `target_shard` out of `num_shards`, interning it in
/// `symbols`. Panics only if FxHash degenerates completely.
fn label_on_shard(
    symbols: &mut SymbolTable,
    prefix: &str,
    target_shard: usize,
    num_shards: usize,
    same_var: bool,
) -> String {
    for i in 0..10_000 {
        let name = format!("{prefix}{i}");
        let label = symbols.intern(&name);
        let ge = GenericEdge {
            label,
            src: GenTerm::Any,
            tgt: GenTerm::Any,
            same_var,
        };
        if shard_of(&ge, num_shards) == target_shard {
            return name;
        }
    }
    panic!("no label found on shard {target_shard}/{num_shards}");
}

fn update(symbols: &mut SymbolTable, label: &str, src: &str, tgt: &str) -> Update {
    Update::new(
        symbols.intern(label),
        symbols.intern(src),
        symbols.intern(tgt),
    )
}

/// The per-update reference of `stream`, then every engine behind a
/// `num_shards`-shard wrapper checked against it one update at a time.
fn assert_all_engines_agree_sharded(
    queries: &[QueryPattern],
    stream: &[Update],
    num_shards: usize,
) {
    let case = Case::replay("a hand-built topology", queries.to_vec(), stream.to_vec());
    for factory in all_engine_factories() {
        let engine = ShardedEngine::new(num_shards, factory);
        let label = format!("{} × {num_shards} shards", engine.name());
        case.check_batches(&label, engine, &[1]);
    }
}

/// A star query whose two covering paths root at generic edges owned by
/// *different* shards: the whole query lives on its first root's shard,
/// which receives both labels' updates and joins the paths itself.
#[test]
fn covering_paths_spanning_two_shards() {
    let num_shards = 2;
    let mut symbols = SymbolTable::new();
    let la = label_on_shard(&mut symbols, "a", 0, num_shards, false);
    let lb = label_on_shard(&mut symbols, "b", 1, num_shards, false);
    let q = QueryPattern::parse(&format!("?c -{la}-> ?x; ?c -{lb}-> ?y"), &mut symbols).unwrap();

    // The wrapper must classify the query as spanning…
    let mut probe = TricEngine::tric_plus_sharded(num_shards);
    probe.register_query(&q).unwrap();
    assert_eq!(probe.num_spanning_queries(), 1);
    // …and exactly one inner engine holds it, both tries included.
    let held: Vec<(usize, usize)> = probe
        .shard_engines()
        .map(|e| (e.num_queries(), e.num_tries()))
        .collect();
    assert!(
        held == [(1, 2), (0, 0)] || held == [(0, 0), (1, 2)],
        "query split across shards: {held:?}"
    );

    let mut stream = Vec::new();
    // Build up multiple embeddings around two hubs, with duplicates and
    // updates completing matches from either side of the shard split.
    for (hub, xs, ys) in [
        ("h1", ["x1", "x2"], ["y1", "y2"]),
        ("h2", ["x3", "x1"], ["y3", "y1"]),
    ] {
        for x in xs {
            stream.push(update(&mut symbols, &la, hub, x));
        }
        for y in ys {
            stream.push(update(&mut symbols, &lb, hub, y));
        }
    }
    stream.push(update(&mut symbols, &la, "h1", "x1")); // duplicate
    stream.push(update(&mut symbols, &la, "h1", "x9")); // completes 2 more
    stream.push(update(&mut symbols, &lb, "h2", "y9"));

    assert_all_engines_agree_sharded(std::slice::from_ref(&q), &stream, num_shards);

    // Sanity on the scenario itself: the sharded replay above must
    // actually have produced matches (the test would otherwise pass
    // vacuously on an all-empty stream).
    let mut plain = TricEngine::tric();
    let mut sharded = TricEngine::tric_sharded(num_shards);
    plain.register_query(&q).unwrap();
    sharded.register_query(&q).unwrap();
    let mut total = 0;
    for &u in &stream {
        let a = plain.apply_update(u);
        assert_eq!(a, sharded.apply_update(u));
        total += a.total_embeddings();
    }
    assert!(total > 0, "spanning scenario produced no embeddings");
}

/// A batch whose edges all carry labels owned by one shard: the router must
/// hand the whole slice to that shard and nothing to the others, and the
/// result must still equal the unsharded batch report.
#[test]
fn batch_routed_entirely_to_one_shard() {
    let num_shards = 4;
    let mut symbols = SymbolTable::new();
    let lx = label_on_shard(&mut symbols, "x", 2, num_shards, false);
    // Probing may intern labels that hash elsewhere; the stream below only
    // uses `lx`, whose updates match only shapes of that label.
    let q = QueryPattern::parse(&format!("?a -{lx}-> ?b; ?b -{lx}-> ?c"), &mut symbols).unwrap();

    let mut plain = TricEngine::tric();
    let mut sharded = TricEngine::tric_sharded(num_shards);
    plain.register_query(&q).unwrap();
    sharded.register_query(&q).unwrap();

    let batch: Vec<Update> = (0..12)
        .map(|i| {
            update(
                &mut symbols,
                &lx,
                &format!("v{}", i % 5),
                &format!("v{}", (i + 1) % 5),
            )
        })
        .collect();
    let expected = plain.apply_batch(&batch);
    let got = sharded.apply_batch(&batch);
    assert_eq!(got, expected);

    let routed = sharded.routed_per_shard();
    assert_eq!(routed[2], batch.len() as u64, "owner shard got the slice");
    for (s, &count) in routed.iter().enumerate() {
        if s != 2 {
            assert_eq!(count, 0, "shard {s} received updates it does not own");
        }
    }
}

/// A variable self-loop generic edge that is simultaneously the root of a
/// shard-local query and a covering-path root of a *spanning* query whose
/// other path roots on a different shard. Self-loop updates must reach both
/// queries wherever they live; non-loop updates with the same label must
/// reach neither self-loop view.
#[test]
fn self_loop_root_shared_by_queries_on_different_shards() {
    let num_shards = 2;
    let mut symbols = SymbolTable::new();
    // The *self-loop* shape of `ll` owns shard 0; the open shape of `lm`
    // owns shard 1, so q2 spans both shards while q1 is local to shard 0.
    let ll = label_on_shard(&mut symbols, "l", 0, num_shards, true);
    let lm = label_on_shard(&mut symbols, "m", 1, num_shards, false);
    let q1 = QueryPattern::parse(&format!("?a -{ll}-> ?a"), &mut symbols).unwrap();
    let q2 = QueryPattern::parse(&format!("?a -{ll}-> ?a; ?a -{lm}-> ?y"), &mut symbols).unwrap();

    let mut probe = TricEngine::tric_sharded(num_shards);
    probe.register_query(&q1).unwrap();
    probe.register_query(&q2).unwrap();
    assert_eq!(
        probe.num_spanning_queries(),
        1,
        "q2 must span, q1 must stay local"
    );
    // Each query lives on exactly one inner engine.
    assert_eq!(
        probe
            .shard_engines()
            .map(|e| e.num_queries())
            .sum::<usize>(),
        2
    );

    let stream = vec![
        update(&mut symbols, &ll, "n1", "n2"), // not a loop: no match
        update(&mut symbols, &ll, "n1", "n1"), // q1 matches
        update(&mut symbols, &lm, "n1", "t1"), // completes q2
        update(&mut symbols, &lm, "n2", "t2"), // no loop on n2 yet
        update(&mut symbols, &ll, "n2", "n2"), // completes q2 via loop
        update(&mut symbols, &ll, "n2", "n2"), // duplicate loop
        update(&mut symbols, &lm, "n1", "t3"), // second embedding of q2
        update(&mut symbols, &ll, "n3", "n3"), // q1 only
    ];

    assert_all_engines_agree_sharded(&[q1, q2], &stream, num_shards);
}

/// Pins the late-registration contract of `gsm_core::shard` for a
/// *spanning* query: registered after updates have streamed in, it catches
/// up with the full cross-query history, exactly like an unsharded engine's
/// shared view store would.
///
/// Topology: `q1` (label `la` on shard 0) streams history first; `q2`
/// (roots `la` on shard 0 + `lb` on shard 1) registers mid-stream. The
/// unsharded engine shares one view store, so `q2`'s paths catch up with
/// `q1`'s `la` history and a single `lb` edge completes two embeddings. The
/// sharded engine must report the **same** two embeddings — the reports
/// must be equal, not merely the post-registration tail.
#[test]
fn mid_stream_spanning_registration_catches_up_with_cross_shard_history() {
    let num_shards = 2;
    let mut symbols = SymbolTable::new();
    let la = label_on_shard(&mut symbols, "a", 0, num_shards, false);
    let lb = label_on_shard(&mut symbols, "b", 1, num_shards, false);
    let q1 = QueryPattern::parse(&format!("?a -{la}-> ?x"), &mut symbols).unwrap();
    let q2 = QueryPattern::parse(&format!("?c -{la}-> ?x; ?c -{lb}-> ?y"), &mut symbols).unwrap();

    for make in [TricEngine::tric, TricEngine::tric_plus] {
        let mut plain = make();
        let mut sharded = ShardedEngine::new(num_shards, make);
        plain.register_query(&q1).unwrap();
        sharded.register_query(&q1).unwrap();

        // Pre-registration history on la, routed to shard 0 for q1.
        for x in ["x1", "x2"] {
            let u = update(&mut symbols, &la, "hub", x);
            assert_eq!(plain.apply_update(u), sharded.apply_update(u));
        }

        plain.register_query(&q2).unwrap();
        sharded.register_query(&q2).unwrap();
        assert_eq!(sharded.num_spanning_queries(), 1, "q2 must span");

        // The lb edge that completes q2 against the pre-registration la
        // history: the unsharded engine catches up through the shared edge
        // view, the sharded engine through q2's home shard. Both must
        // report the same two embeddings.
        let completing = update(&mut symbols, &lb, "hub", "y1");
        let plain_report = plain.apply_update(completing);
        let sharded_report = sharded.apply_update(completing);
        assert_eq!(
            plain_report.total_embeddings(),
            2,
            "unsharded q2 must catch up with q1's la history"
        );
        assert_eq!(
            sharded_report, plain_report,
            "sharded q2 must catch up with cross-query history (Late \
             registration contract in gsm_core::shard)"
        );

        // Embeddings built from post-registration edges keep agreeing.
        let u = update(&mut symbols, &la, "hub2", "x9");
        assert_eq!(plain.apply_update(u), sharded.apply_update(u));
        let u = update(&mut symbols, &lb, "hub2", "y9");
        let p = plain.apply_update(u);
        let s = sharded.apply_update(u);
        assert_eq!(p, s, "post-registration embeddings must agree");
        assert_eq!(p.total_embeddings(), 1);
    }
}

/// A **shard-local** query registered mid-stream over history that streamed
/// to *another* shard: `q1` (`la`, shard 0) runs first, then the
/// single-path `q2` registers with its root `lb` — and so its home — on
/// shard 1, which has never seen an `la` edge. The home shard replays the
/// wrapper's `la` history at registration, so the completing `lb` edge and
/// a later retraction of a pre-registration `la` edge report exactly what
/// the unsharded engine reports.
/// GraphDB is excluded, as in `spanning_query_registered_mid_stream`.
#[test]
fn shard_local_mid_stream_registration_replays_cross_shard_history() {
    for num_shards in [2usize, 4, 8] {
        let mut symbols = SymbolTable::new();
        let la = label_on_shard(&mut symbols, "a", 0, num_shards, false);
        let lb = label_on_shard(&mut symbols, "b", 1, num_shards, false);
        let q1 = QueryPattern::parse(&format!("?a -{la}-> ?x"), &mut symbols).unwrap();
        let q2 =
            QueryPattern::parse(&format!("?c -{lb}-> ?x; ?x -{la}-> ?y"), &mut symbols).unwrap();

        let mut probe = TricEngine::tric_sharded(num_shards);
        probe.register_query(&q1).unwrap();
        probe.register_query(&q2).unwrap();
        assert_eq!(probe.num_spanning_queries(), 0, "q2 must be shard-local");
        let placed: Vec<usize> = probe.shard_engines().map(|e| e.num_queries()).collect();
        assert_eq!(placed[..2], [1, 1], "q1 on shard 0, q2 on shard 1");

        let mut plain: Vec<Box<dyn ContinuousEngine>> = all_engines();
        let mut sharded: Vec<Box<dyn ContinuousEngine>> = all_engines_sharded(num_shards);
        plain.retain(|e| e.name() != "GraphDB");
        sharded.retain(|e| e.name() != "GraphDB");
        assert_eq!(plain.len(), 6, "TRIC, TRIC+, INV, INV+, INC, INC+");

        for (p, s) in plain.iter_mut().zip(sharded.iter_mut()) {
            let ctx = format!("{} × {num_shards} shards", p.name());
            p.register_query(&q1).unwrap();
            s.register_query(&q1).unwrap();
            let history = [
                update(&mut symbols, &la, "hub", "y1"),
                update(&mut symbols, &la, "hub", "y2"),
                update(&mut symbols, &la, "other", "y3"),
            ];
            for u in history {
                assert_eq!(s.apply_update(u), p.apply_update(u), "{ctx}: history");
            }

            p.register_query(&q2).unwrap();
            s.register_query(&q2).unwrap();

            let completing = update(&mut symbols, &lb, "c1", "hub");
            let expected = p.apply_update(completing);
            assert_eq!(expected.total_embeddings(), 2, "{ctx}: unsharded catch-up");
            assert_eq!(
                s.apply_update(completing),
                expected,
                "{ctx}: completing edge"
            );

            let retraction = history[0].inverted();
            let expected = p.apply_update(retraction);
            assert_eq!(
                expected.total_retracted(),
                2,
                "{ctx}: q1 and q2 lose one each"
            );
            assert_eq!(s.apply_update(retraction), expected, "{ctx}: retraction");
        }
    }
}

/// A recovered sharded engine must not diverge from its own uninterrupted
/// run: recovery re-registers every query *before* it re-feeds the
/// surviving edges, so a query registered mid-stream sees all of them —
/// which is only what the live run showed it if late registration on the
/// sharded engine is exact (same topology as
/// `shard_local_mid_stream_registration_replays_cross_shard_history`).
#[test]
fn recovered_sharded_engine_matches_its_uninterrupted_run() {
    let num_shards = 2;
    let mut symbols = SymbolTable::new();
    let la = label_on_shard(&mut symbols, "a", 0, num_shards, false);
    let lb = label_on_shard(&mut symbols, "b", 1, num_shards, false);
    let q1 = QueryPattern::parse(&format!("?a -{la}-> ?x"), &mut symbols).unwrap();
    let q2 = QueryPattern::parse(&format!("?c -{lb}-> ?x; ?x -{la}-> ?y"), &mut symbols).unwrap();
    let history = [
        update(&mut symbols, &la, "hub", "y1"),
        update(&mut symbols, &la, "hub", "y2"),
    ];
    let after_checkpoint = [
        update(&mut symbols, &lb, "c1", "hub"),
        update(&mut symbols, &la, "hub", "y3"),
    ];
    let next = [
        update(&mut symbols, &lb, "c2", "hub"),
        history[0].inverted(),
    ];

    let run = |crash: bool| -> (Vec<QueryTotals>, MatchReport) {
        let disk = MemFactory::new();
        let open = || {
            PersistentEngine::open(Box::new(disk.handle()), PersistConfig::default(), || {
                TricEngine::tric_sharded(num_shards)
            })
            .expect("open")
            .0
        };
        let mut engine = open();
        engine.note_symbols(&symbols).unwrap();
        engine.try_register_query(&q1).unwrap();
        engine.try_apply_batch(&history).unwrap();
        engine.try_register_query(&q2).unwrap();
        engine.checkpoint().unwrap();
        engine.try_apply_batch(&after_checkpoint).unwrap();
        if crash {
            drop(engine);
            engine = open();
        }
        let report = engine.try_apply_batch(&next).unwrap();
        (engine.totals().to_vec(), report)
    };

    let (totals, report) = run(false);
    // q2 caught up with q1's two pre-registration la edges on both lb edges.
    assert_eq!(totals[1].embeddings, 6, "uninterrupted q2 totals");
    assert_eq!(run(true), (totals, report));
}

/// A spanning query registered mid-stream, over labels the stream has not
/// used yet (fresh edges carry no history, so nothing is replayed — see the
/// catch-up note in `gsm_core::shard`). Registration must grow the
/// routing sets and query-id mapping without disturbing the already-running
/// query.
/// GraphDB is excluded: it replays history from its store and has its own
/// late-registration semantics, covered in its crate.
#[test]
fn spanning_query_registered_mid_stream() {
    for num_shards in [2usize, 4, 8] {
        let mut symbols = SymbolTable::new();
        let q1 = QueryPattern::parse("?c -p-> ?x; ?c -q-> ?y", &mut symbols).unwrap();
        // Probe fresh labels on different shards so q2 is guaranteed to span.
        let ls = label_on_shard(&mut symbols, "s", 0, num_shards, false);
        let lt = label_on_shard(&mut symbols, "t", num_shards - 1, num_shards, false);
        let q2 =
            QueryPattern::parse(&format!("?c -{ls}-> ?x; ?c -{lt}-> ?y"), &mut symbols).unwrap();

        let mut plain: Vec<Box<dyn ContinuousEngine>> = all_engines();
        let mut sharded: Vec<Box<dyn ContinuousEngine>> = all_engines_sharded(num_shards);
        plain.retain(|e| e.name() != "GraphDB");
        sharded.retain(|e| e.name() != "GraphDB");
        for engine in plain.iter_mut().chain(sharded.iter_mut()) {
            engine.register_query(&q1).unwrap();
        }
        let phase1: Vec<Update> = (0..12)
            .map(|i| {
                update(
                    &mut symbols,
                    ["p", "q"][i % 2],
                    &format!("c{}", i % 3),
                    &format!("t{i}"),
                )
            })
            .collect();
        for (i, &u) in phase1.iter().enumerate() {
            for (p, s) in plain.iter_mut().zip(sharded.iter_mut()) {
                assert_eq!(p.apply_update(u), s.apply_update(u), "{} #{i}", p.name());
            }
        }
        // Register the spanning star mid-stream, then drive matches for both
        // queries (including hubs shared between old and new labels).
        for engine in plain.iter_mut().chain(sharded.iter_mut()) {
            engine.register_query(&q2).unwrap();
        }
        let phase2: Vec<Update> = (0..18)
            .map(|i| {
                let label = match i % 4 {
                    0 => "p",
                    1 => "q",
                    2 => ls.as_str(),
                    _ => lt.as_str(),
                };
                update(
                    &mut symbols,
                    label,
                    &format!("c{}", i % 3),
                    &format!("w{}", i % 5),
                )
            })
            .collect();
        let mut total = 0;
        for (i, &u) in phase2.iter().enumerate() {
            for (p, s) in plain.iter_mut().zip(sharded.iter_mut()) {
                let expected = p.apply_update(u);
                assert_eq!(
                    s.apply_update(u),
                    expected,
                    "{} × {num_shards} shards (late registration) #{i}",
                    p.name()
                );
                total += expected.total_embeddings();
            }
        }
        assert!(total > 0, "phase 2 produced no embeddings");
    }
}

/// One mixed-sign batch, routed once: a spanning query that gains and
/// loses embeddings inside it reports both counts, and so do the
/// shard-local queries beside it, exactly as the unsharded engine reports
/// them — at 2, 4 and 8 shards, for every engine.
#[test]
fn mixed_sign_batch_reports_both_counts_like_the_unsharded_engine() {
    for num_shards in [2usize, 4, 8] {
        let mut symbols = SymbolTable::new();
        let la = label_on_shard(&mut symbols, "a", 0, num_shards, false);
        let lb = label_on_shard(&mut symbols, "b", 1, num_shards, false);
        let queries = [
            format!("?c -{la}-> ?x; ?c -{lb}-> ?y"),
            format!("?a -{la}-> ?x"),
            format!("?a -{lb}-> ?x"),
        ]
        .map(|q| QueryPattern::parse(&q, &mut symbols).unwrap());
        let history = [
            update(&mut symbols, &la, "h", "x1"),
            update(&mut symbols, &lb, "h", "y1"),
        ];
        // The star gains (x2, y1), loses (x1, y1) and (x2, y1), gains
        // (x1, y2) and (x2, y2), then loses (x1, y2).
        let batch = [
            update(&mut symbols, &la, "h", "x2"),
            update(&mut symbols, &lb, "h", "y1").inverted(),
            update(&mut symbols, &lb, "h", "y2"),
            update(&mut symbols, &la, "h", "x1").inverted(),
        ];

        let mut plain = all_engines();
        let mut sharded = all_engines_sharded(num_shards);
        for (p, s) in plain.iter_mut().zip(sharded.iter_mut()) {
            let ctx = format!("{} × {num_shards} shards", p.name());
            for q in &queries {
                assert_eq!(s.register_query(q).unwrap(), p.register_query(q).unwrap());
            }
            assert_eq!(s.apply_batch(&history), p.apply_batch(&history), "{ctx}");
            let expected = p.apply_batch(&batch);
            assert_eq!(
                expected.matches[0],
                QueryMatch {
                    query: QueryId(0),
                    new_embeddings: 3,
                    retracted_embeddings: 3,
                },
                "{ctx}: the star gains and loses"
            );
            assert_eq!(expected.len(), 3, "{ctx}: every query changed");
            assert_eq!(s.apply_batch(&batch), expected, "{ctx}");
            assert_eq!(s.stats().retracted, p.stats().retracted, "{ctx}");
        }
    }
}
