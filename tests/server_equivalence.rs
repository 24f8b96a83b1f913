//! Server-mode vs library-mode differential testing.
//!
//! The same churn schedule — edge batches interleaved with mid-stream
//! query registration and unregistration, with explicit epoch boundaries
//! — runs once through a [`gsm_server::Server`] over real sockets and
//! once directly against a [`PipelinedEngine`], for every engine, with
//! and without sharding, inline and with threaded answer workers. The
//! per-query `(new, retracted)` embedding totals must be identical.
//!
//! Totals (not per-batch reports) are compared because the server's
//! deadline batcher may legally segment a span into different batches
//! than the library run; embedding totals between two epoch boundaries
//! are segmentation-invariant, while lifecycle placement is pinned by
//! the explicit boundaries in the schedule.
//!
//! A fan-out test gives each of 16 subscriber connections one query of a
//! generated windowed SNB workload while a separate pusher streams it: each
//! subscriber must receive exactly its query's library-mode totals, on its
//! own connection, without being dropped as a slow consumer.
//!
//! A proptest at the end checks the epoch contract directly on the
//! pipeline: a registration queued mid-stream observes exactly the edge
//! history pushed after the boundary that activated it, never a prefix
//! that predates it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use graph_stream_matching::all_engine_factories;
use graph_stream_matching::core::prelude::*;
use graph_stream_matching::core::ShardedEngine;
use graph_stream_matching::datagen::{Dataset, Workload, WorkloadConfig};
use gsm_server::{Client, Server, ServerConfig};

/// One step of the shared schedule. Lifecycle steps are always followed
/// by a `Boundary` before the next push, which pins where they take
/// effect in both runs (the server may drain on its own idle clock, but
/// with no lifecycle op pending between pinned boundaries an extra drain
/// cannot move totals).
#[derive(Debug, Clone)]
enum Step {
    /// Register this pattern; the i-th `Register` gets local index i.
    Register(&'static str),
    /// Unregister the query with local index i.
    Unregister(usize),
    /// Push signed edges: `(retract?, label, src, tgt)`.
    Push(&'static [(bool, &'static str, &'static str, &'static str)]),
    /// An explicit epoch boundary (library: `drain`, server: `flush`).
    Boundary,
}

use Step::{Boundary, Push, Register, Unregister};

/// A churn schedule over a small social-graph universe: queries come and
/// go mid-stream, edges (including retractions) keep flowing throughout.
fn churn_schedule() -> Vec<Step> {
    vec![
        Register("?u -likes-> ?p"),
        Boundary,
        Push(&[
            (false, "likes", "u1", "p1"),
            (false, "by", "p1", "a1"),
            (false, "likes", "u2", "p1"),
            (false, "likes", "u1", "p2"),
        ]),
        // Mid-stream registration: this query must not see the batch
        // above, only what comes after the boundary.
        Register("?u -likes-> ?p; ?p -by-> ?a"),
        Boundary,
        Push(&[
            (false, "by", "p2", "a1"),
            (false, "likes", "u3", "p2"),
            (false, "follows", "u1", "u3"),
            (false, "likes", "u3", "p1"),
        ]),
        Register("?a -follows-> ?b; ?b -likes-> ?p"),
        Boundary,
        Push(&[
            (false, "follows", "u2", "u1"),
            (true, "likes", "u1", "p1"),
            (false, "likes", "u4", "p2"),
        ]),
        // Mid-stream unregistration of the first query.
        Unregister(0),
        Boundary,
        Push(&[
            (false, "likes", "u1", "p3"),
            (false, "by", "p3", "a2"),
            (true, "likes", "u3", "p2"),
            (false, "follows", "u4", "u2"),
        ]),
        Unregister(1),
        Register("?u -likes-> ?p"),
        Boundary,
        Push(&[
            (false, "likes", "u5", "p3"),
            (true, "follows", "u1", "u3"),
            (false, "likes", "u2", "p3"),
        ]),
        Boundary,
    ]
}

type Totals = BTreeMap<u32, (u64, u64)>;

/// Library-mode run: the schedule against a bare [`PipelinedEngine`].
fn run_library(
    engine: Box<dyn ContinuousEngine + Send>,
    config: PipelineConfig,
    schedule: &[Step],
) -> Totals {
    let mut symbols = SymbolTable::new();
    let mut pipe = PipelinedEngine::new(engine, config);
    let mut ids: Vec<QueryId> = Vec::new();
    let mut totals: Totals = BTreeMap::new();
    let absorb = |totals: &mut Totals, done: Vec<CompletedBatch>| {
        for batch in done {
            for m in batch.report.matches {
                let entry = totals.entry(m.query.0).or_default();
                entry.0 += m.new_embeddings;
                entry.1 += m.retracted_embeddings;
            }
        }
    };
    for step in schedule {
        match step {
            Register(text) => {
                let pattern = QueryPattern::parse(text, &mut symbols).unwrap();
                ids.push(pipe.queue_register(&pattern));
            }
            Unregister(i) => pipe.queue_unregister(ids[*i]).unwrap(),
            Push(edges) => {
                let now = Instant::now();
                for &(retract, label, src, tgt) in *edges {
                    let (l, s, t) = (
                        symbols.intern(label),
                        symbols.intern(src),
                        symbols.intern(tgt),
                    );
                    let update = if retract {
                        Update::retraction(l, s, t)
                    } else {
                        Update::new(l, s, t)
                    };
                    let done = pipe.push_at(update, now);
                    absorb(&mut totals, done);
                }
            }
            Boundary => {
                let done = pipe.drain();
                absorb(&mut totals, done);
            }
        }
    }
    let done = pipe.drain();
    absorb(&mut totals, done);
    totals
}

/// Server-mode run: the same schedule through a TCP client. Query ids
/// are remapped to local registration indices on both sides, so the two
/// runs compare positionally.
fn run_server(
    engine: Box<dyn ContinuousEngine + Send>,
    config: PipelineConfig,
    schedule: &[Step],
) -> Totals {
    let server_config = ServerConfig {
        pipeline: config,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", engine, server_config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut ids: Vec<u32> = Vec::new();
    for step in schedule {
        match step {
            Register(text) => ids.push(client.register(text).unwrap().0),
            Unregister(i) => {
                client.unregister(ids[*i]).unwrap();
            }
            Push(edges) => {
                client.push(edges).unwrap();
            }
            Boundary => {
                client.flush().unwrap();
            }
        }
    }
    client.flush().unwrap();
    client.notification_totals()
}

/// Both runs hand out ids in registration order starting at 0, so the
/// totals keys already align; this asserts that assumption too.
fn assert_equivalent(name: &str, config_desc: &str, schedule: &[Step]) {
    let factories = all_engine_factories();
    for (idx, factory) in factories.iter().enumerate() {
        for shards in [1usize, 2] {
            let build = move || -> Box<dyn ContinuousEngine + Send> {
                if shards == 1 {
                    factory()
                } else {
                    Box::new(ShardedEngine::new(shards, factory))
                }
            };
            let config = config_for(name);
            let lib = run_library(build(), config, schedule);
            let srv = run_server(build(), config, schedule);
            assert_eq!(
                lib, srv,
                "engine #{idx} ({shards} shard(s), {config_desc}) diverged between \
                 library mode and server mode"
            );
        }
    }
}

fn config_for(name: &str) -> PipelineConfig {
    let mut config = PipelineConfig::new(3, Duration::from_millis(1));
    if name == "threaded" {
        config.answer_thread = true;
        config.answer_workers = 2;
    }
    config
}

#[test]
fn server_matches_library_inline_answers() {
    assert_equivalent("inline", "inline answers", &churn_schedule());
}

#[test]
fn server_matches_library_threaded_answers() {
    assert_equivalent("threaded", "2 answer workers", &churn_schedule());
}

fn render_term(term: &Term, symbols: &SymbolTable) -> String {
    match term {
        Term::Var(v) => format!("?x{v}"),
        Term::Const(s) => symbols.resolve(*s).to_string(),
    }
}

/// The pattern in the syntax `QueryPattern::parse` reads.
fn render_query(query: &QueryPattern, symbols: &SymbolTable) -> String {
    query
        .edges()
        .iter()
        .map(|e| {
            format!(
                "{} -{}-> {}",
                render_term(&e.src, symbols),
                symbols.resolve(e.label),
                render_term(&e.tgt, symbols)
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

#[test]
fn every_subscriber_receives_exactly_its_query_totals() {
    const SUBSCRIBERS: usize = 16;
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 1_500, SUBSCRIBERS)
            .with_selectivity(1.0)
            .with_sliding_window(300),
    );
    assert_eq!(workload.queries.len(), SUBSCRIBERS);
    let symbols = &workload.symbols;
    let config = ServerConfig::default();
    assert!(
        SUBSCRIBERS < config.max_conns,
        "the pusher needs a connection too"
    );

    // Library mode: register everything, one boundary, stream, drain.
    let mut pipe = PipelinedEngine::new(gsm_tric::TricEngine::tric_plus(), config.pipeline);
    for query in &workload.queries {
        pipe.queue_register(query);
    }
    let mut done = pipe.drain();
    let now = Instant::now();
    for update in workload.stream.as_slice() {
        done.extend(pipe.push_at(*update, now));
    }
    done.extend(pipe.drain());
    let mut expected: Totals = BTreeMap::new();
    for batch in done {
        for m in batch.report.matches {
            let entry = expected.entry(m.query.0).or_default();
            entry.0 += m.new_embeddings;
            entry.1 += m.retracted_embeddings;
        }
    }
    assert!(expected.len() >= SUBSCRIBERS / 2, "too few queries match");
    assert!(
        expected.values().any(|t| t.1 > 0),
        "no match was ever retracted"
    );

    // Server mode: one connection per query, registered in order, then one
    // pusher that pins the activation boundary and streams the workload.
    let server = Server::bind(
        "127.0.0.1:0",
        Box::new(gsm_tric::TricEngine::tric_plus()),
        config,
    )
    .unwrap();
    let mut subscribers = Vec::with_capacity(SUBSCRIBERS);
    for query in &workload.queries {
        let mut client = Client::connect(server.local_addr()).unwrap();
        let (id, _) = client.register(&render_query(query, symbols)).unwrap();
        subscribers.push((id, client));
    }
    let mut pusher = Client::connect(server.local_addr()).unwrap();
    pusher.flush().unwrap();

    let streamed = Arc::new(AtomicBool::new(false));
    let drains: Vec<_> = subscribers
        .into_iter()
        .map(|(id, mut client)| {
            let streamed = Arc::clone(&streamed);
            std::thread::spawn(move || {
                let mut received = Vec::new();
                loop {
                    match client.recv_notification(Duration::from_millis(20)).unwrap() {
                        Some(n) => received.push(n),
                        None if streamed.load(Ordering::Acquire) => break,
                        None => {}
                    }
                }
                // Every notification for this connection was queued before
                // the pusher's final flush replied, and the queue is FIFO,
                // so all of them arrive before this reply. A subscriber
                // dropped as a slow consumer fails here.
                client.ping().unwrap();
                received.extend(client.take_notifications());
                let mut totals = (0, 0);
                for n in received {
                    assert_eq!(n.id, id, "a notification reached the wrong subscriber");
                    totals.0 += n.new;
                    totals.1 += n.retracted;
                }
                (id, totals)
            })
        })
        .collect();

    let edges: Vec<(bool, String, String, String)> = workload
        .stream
        .as_slice()
        .iter()
        .map(|u| {
            (
                u.is_retraction(),
                symbols.resolve(u.label).to_string(),
                symbols.resolve(u.src).to_string(),
                symbols.resolve(u.tgt).to_string(),
            )
        })
        .collect();
    for chunk in edges.chunks(64) {
        let frame: Vec<(bool, &str, &str, &str)> = chunk
            .iter()
            .map(|(r, l, s, t)| (*r, l.as_str(), s.as_str(), t.as_str()))
            .collect();
        pusher.push(&frame).unwrap();
    }
    pusher.flush().unwrap();
    streamed.store(true, Ordering::Release);

    let mut served: Totals = BTreeMap::new();
    for drain in drains {
        let (id, totals) = drain.join().unwrap();
        served.insert(id, totals);
    }
    assert_eq!(served.len(), SUBSCRIBERS);
    for (id, totals) in &served {
        assert_eq!(
            *totals,
            expected.get(id).copied().unwrap_or_default(),
            "subscriber of query {id}"
        );
    }
    assert!(pusher.take_notifications().is_empty());
}

/// The epoch contract, on the pipeline directly: a registration queued
/// mid-stream and activated at edge position `b` reports exactly the
/// totals of a fresh engine that registers up front and sees only
/// `stream[b..]`.
fn epoch_totals(query: QueryId, done: Vec<CompletedBatch>) -> (u64, u64) {
    let mut totals = (0, 0);
    for batch in done {
        for m in batch.report.matches {
            if m.query == query {
                totals.0 += m.new_embeddings;
                totals.1 += m.retracted_embeddings;
            }
        }
    }
    totals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn queued_registration_sees_exactly_the_post_boundary_history(
        stream_specs in proptest::collection::vec(
            // (label, src, tgt, sign): sign 0 of 0..5 → a retraction.
            (0u8..3, 0u8..6, 0u8..6, 0u8..5),
            4..60,
        ),
        queue_pos in 0usize..=100,
        boundary_pos in 0usize..=100,
    ) {
        let mut symbols = SymbolTable::new();
        let pattern =
            QueryPattern::parse("?x -e0-> ?y; ?y -e1-> ?z", &mut symbols).unwrap();
        let stream: Vec<Update> = stream_specs
            .iter()
            .map(|&(l, s, t, sign)| {
                let (l, s, t) = (
                    symbols.intern(&format!("e{l}")),
                    symbols.intern(&format!("v{s}")),
                    symbols.intern(&format!("v{t}")),
                );
                if sign == 0 {
                    Update::retraction(l, s, t)
                } else {
                    Update::new(l, s, t)
                }
            })
            .collect();
        // Queue the registration at position k; force the boundary at
        // position b ≥ k.
        let k = queue_pos * stream.len() / 100;
        let b = k + boundary_pos * (stream.len() - k) / 100;

        let mut pipe = PipelinedEngine::new(
            gsm_tric::TricEngine::tric_plus(),
            PipelineConfig::new(3, Duration::from_millis(1)),
        );
        let mut done = Vec::new();
        let now = Instant::now();
        for update in &stream[..k] {
            done.extend(pipe.push_at(*update, now));
        }
        let id = pipe.queue_register(&pattern);
        for update in &stream[k..b] {
            done.extend(pipe.push_at(*update, now));
        }
        done.extend(pipe.drain()); // the boundary: registration is live
        for update in &stream[b..] {
            done.extend(pipe.push_at(*update, now));
        }
        done.extend(pipe.drain());
        let pipelined = epoch_totals(id, done);

        // Oracle: registration happens at exactly position `b` — the
        // prefix builds graph state silently (registration backfills
        // from the live graph), and only post-boundary reports count.
        let mut oracle = gsm_tric::TricEngine::tric_plus();
        if b > 0 {
            oracle.apply_batch(&stream[..b]);
        }
        let oracle_id = oracle.register_query(&pattern).unwrap();
        let mut oracle_totals = (0, 0);
        for update in &stream[b..] {
            let report = oracle.apply_batch(std::slice::from_ref(update));
            for m in report.matches {
                if m.query == oracle_id {
                    oracle_totals.0 += m.new_embeddings;
                    oracle_totals.1 += m.retracted_embeddings;
                }
            }
        }
        prop_assert_eq!(
            pipelined, oracle_totals,
            "queued registration must observe exactly stream[{}..] (queued at {})",
            b, k
        );
    }
}
