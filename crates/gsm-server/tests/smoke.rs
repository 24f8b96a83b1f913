//! End-to-end smoke tests: real sockets against an ephemeral-port
//! server, covering the subscription lifecycle, multi-client routing,
//! error replies, the connection cap, slow-consumer/disconnect
//! cancellation, and the line framing in both directions (a request split
//! across writes, notifications coalesced into few writes).

use std::time::Duration;

use gsm_core::{ContinuousEngine, PipelineConfig, ShardedEngine};
use gsm_server::{Client, ClientError, Server, ServerConfig};
use gsm_tric::TricEngine;

fn quick_config() -> ServerConfig {
    ServerConfig {
        pipeline: PipelineConfig::new(4, Duration::from_millis(1)),
        max_conns: 4,
        outbound_queue: 64,
        idle_poll: Duration::from_millis(1),
    }
}

fn start(config: ServerConfig) -> Server {
    let engine: Box<dyn ContinuousEngine + Send> = Box::new(TricEngine::tric_plus());
    Server::bind("127.0.0.1:0", engine, config).expect("bind ephemeral port")
}

#[test]
fn register_push_notify_unregister_round_trip() {
    let server = start(quick_config());
    let mut client = Client::connect(server.local_addr()).unwrap();

    client.ping().unwrap();
    let (id, live_epoch) = client.register("?u -likes-> ?p").unwrap();
    assert_eq!(id, 0);
    assert!(live_epoch >= 1);
    // Pin the boundary: the registration is live from here on.
    client.flush().unwrap();

    // Two matching edges, one boundary: the totals arrive before the
    // flush reply.
    client
        .push(&[(false, "likes", "u1", "p1"), (false, "likes", "u2", "p1")])
        .unwrap();
    client.flush().unwrap();
    let totals = client.notification_totals();
    assert_eq!(totals.get(&id), Some(&(2, 0)));

    // Retraction notifies too.
    client.push(&[(true, "likes", "u1", "p1")]).unwrap();
    client.flush().unwrap();
    assert_eq!(client.notification_totals().get(&id), Some(&(0, 1)));

    // Unregister mid-stream: the reply succeeds, and edges pushed after
    // the boundary no longer notify.
    client.unregister(id).unwrap();
    client.flush().unwrap();
    client.take_notifications();
    client.push(&[(false, "likes", "u9", "p9")]).unwrap();
    client.flush().unwrap();
    assert!(client.take_notifications().is_empty());

    // The id is gone: a second unregister is an error reply, not a hang.
    match client.unregister(id) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("not owned"), "got {msg}"),
        other => panic!("expected server error, got {other:?}"),
    }
}

#[test]
fn notifications_route_to_the_owning_connection_only() {
    let server = start(quick_config());
    let mut alice = Client::connect(server.local_addr()).unwrap();
    let mut bob = Client::connect(server.local_addr()).unwrap();

    let (alice_q, _) = alice.register("?a -follows-> ?b").unwrap();
    let (bob_q, _) = bob.register("?x -blocks-> ?y").unwrap();
    assert_ne!(alice_q, bob_q);
    // Pin the boundary so both registrations are live before the push.
    bob.flush().unwrap();

    // Bob pushes edges matching both queries; each owner gets exactly
    // its own notification.
    bob.push(&[
        (false, "follows", "n1", "n2"),
        (false, "blocks", "n1", "n2"),
    ])
    .unwrap();
    bob.flush().unwrap();
    assert_eq!(bob.notification_totals().get(&bob_q), Some(&(1, 0)));

    let n = alice
        .recv_notification(Duration::from_secs(5))
        .unwrap()
        .expect("alice's notification");
    assert_eq!((n.id, n.new, n.retracted), (alice_q, 1, 0));
    assert!(alice
        .recv_notification(Duration::from_millis(50))
        .unwrap()
        .is_none());

    // Alice cannot unregister Bob's query.
    assert!(matches!(
        alice.unregister(bob_q),
        Err(ClientError::Server(_))
    ));
}

#[test]
fn malformed_lines_get_error_replies_not_disconnects() {
    let server = start(quick_config());
    let mut client = Client::connect(server.local_addr()).unwrap();

    for bad in [
        "this is not json",
        r#"{"op":"warp"}"#,
        r#"{"op":"push","edges":[["*","l","a","b"]]}"#,
    ] {
        client.send_raw(bad).unwrap();
        let (op, ok, body) = client.read_reply().unwrap();
        assert_eq!(op, "error");
        assert!(!ok);
        assert!(body.get("error").is_some(), "error reply for {bad}");
    }
    // A bad pattern is an op-level error.
    match client.register("no arrow here") {
        Err(ClientError::Server(_)) => {}
        other => panic!("expected server error, got {other:?}"),
    }
    // The connection survived all of it.
    client.ping().unwrap();
}

#[test]
fn connection_cap_rejects_with_a_full_hello() {
    let mut config = quick_config();
    config.max_conns = 2;
    let server = start(config);

    let _a = Client::connect(server.local_addr()).unwrap();
    let _b = Client::connect(server.local_addr()).unwrap();
    match Client::connect(server.local_addr()) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("connection limit"), "got {msg}"),
        Err(other) => panic!("expected a full-server hello, got {other:?}"),
        Ok(_) => panic!("expected a full-server hello, got an admitted connection"),
    }

    // Dropping one admitted client frees a slot (the reader job exit
    // releases the counter; poll briefly for it).
    drop(_a);
    let mut admitted = None;
    for _ in 0..100 {
        match Client::connect(server.local_addr()) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    admitted
        .expect("slot freed after disconnect")
        .ping()
        .unwrap();
}

#[test]
fn disconnect_cancels_the_subscriptions() {
    let server = start(quick_config());
    let mut alice = Client::connect(server.local_addr()).unwrap();
    let mut bob = Client::connect(server.local_addr()).unwrap();

    let (bob_q, _) = bob.register("?x -pings-> ?y").unwrap();
    drop(bob);

    // Bob's query is unregistered at the next boundary; the engine's
    // live count drops back to Alice's none. Poll: the disconnect
    // command races with our next request.
    let mut live = usize::MAX;
    for _ in 0..200 {
        let stats = alice.stats().unwrap();
        live = stats.get("queries").unwrap().as_u64().unwrap() as usize;
        if live == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        live, 0,
        "query {bob_q} should be unregistered on disconnect"
    );

    // New registrations never reuse Bob's id.
    let (alice_q, _) = alice.register("?x -pings-> ?y").unwrap();
    assert!(alice_q > bob_q);
}

#[test]
fn sharded_engine_behind_the_server_matches_too() {
    let engine: Box<dyn ContinuousEngine + Send> =
        Box::new(ShardedEngine::new(2, TricEngine::tric_plus));
    let server = Server::bind("127.0.0.1:0", engine, quick_config()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let (id, _) = client.register("?u -likes-> ?p; ?p -by-> ?a").unwrap();
    client.flush().unwrap();
    client
        .push(&[(false, "likes", "u1", "p1"), (false, "by", "p1", "a1")])
        .unwrap();
    client.flush().unwrap();
    assert_eq!(client.notification_totals().get(&id), Some(&(1, 0)));
}

#[test]
fn a_push_that_fills_the_batch_is_notified_before_its_reply() {
    // Deadline and idle tick far away: only the push itself can complete
    // the batch, and its notification must precede the push reply.
    let config = ServerConfig {
        pipeline: PipelineConfig::new(2, Duration::from_secs(60)),
        idle_poll: Duration::from_secs(60),
        ..quick_config()
    };
    let server = start(config);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (id, _) = client.register("?u -likes-> ?p").unwrap();
    client.flush().unwrap();

    client
        .push(&[(false, "likes", "u1", "p1"), (false, "likes", "u2", "p1")])
        .unwrap();
    // No flush, no later push: whatever was buffered while waiting for the
    // push reply is all there is.
    let got: Vec<_> = client
        .take_notifications()
        .iter()
        .map(|n| (n.id, n.new, n.retracted))
        .collect();
    assert_eq!(got, vec![(id, 2, 0)]);
}

#[test]
fn an_over_long_request_line_gets_one_error_frame_and_a_disconnect() {
    use std::io::{BufRead, BufReader, Write};

    let server = start(quick_config());
    let mut hostile = std::net::TcpStream::connect(server.local_addr()).unwrap();
    // A server that never answers fails the test instead of hanging it.
    hostile
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    hostile
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = BufReader::new(hostile.try_clone().unwrap());
    let mut hello = String::new();
    frames.read_line(&mut hello).unwrap();
    assert!(hello.contains("hello"), "got {hello}");

    // Twice the cap (1 MiB) without a newline. The server stops reading at
    // the cap and closes, so the tail of the write may fail.
    let _ = hostile.write_all(&vec![b'a'; 2 << 20]);

    let mut frame = String::new();
    frames.read_line(&mut frame).unwrap();
    assert!(
        frame.contains(r#""reply":"error""#) && frame.contains("exceeds"),
        "got {frame}"
    );
    frame.clear();
    assert!(
        matches!(frames.read_line(&mut frame), Ok(0) | Err(_)),
        "connection must be closed, got {frame}"
    );

    // Everyone else is still served.
    Client::connect(server.local_addr())
        .unwrap()
        .ping()
        .unwrap();
}

/// A raw connection with read/write timeouts (a silent server fails the
/// test instead of hanging it), past its hello frame.
fn raw_connection(
    server: &Server,
) -> (std::net::TcpStream, std::io::BufReader<std::net::TcpStream>) {
    use std::io::BufRead;

    let stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frames = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut hello = String::new();
    frames.read_line(&mut hello).unwrap();
    assert!(hello.contains("hello"), "got {hello}");
    (stream, frames)
}

fn next_line(frames: &mut impl std::io::BufRead) -> String {
    let mut line = String::new();
    frames.read_line(&mut line).unwrap();
    line
}

#[test]
fn a_push_line_split_across_three_writes_gets_one_reply() {
    use std::io::Write;

    let server = start(quick_config());
    let (mut stream, mut frames) = raw_connection(&server);
    let line = b"{\"op\":\"push\",\"edges\":[[\"+\",\"likes\",\"u1\",\"p1\"]]}\n";
    for piece in [&line[..9], &line[9..30], &line[30..]] {
        stream.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    stream.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    assert_eq!(
        next_line(&mut frames),
        "{\"reply\":\"push\",\"ok\":true,\"accepted\":1}\n"
    );
    // Nothing between the push reply and the ping reply: the pieces were
    // one request, not three malformed ones.
    assert_eq!(next_line(&mut frames), "{\"reply\":\"ping\",\"ok\":true}\n");
}

#[test]
fn notifications_queued_before_the_subscriber_reads_arrive_in_order() {
    use std::io::Write;

    // One edge per batch, so every edge is one notification frame; a queue
    // deep enough that the engine never waits on the writer job.
    let config = ServerConfig {
        pipeline: PipelineConfig::new(1, Duration::from_millis(1)),
        outbound_queue: 1024,
        ..quick_config()
    };
    let server = start(config);
    let (mut subscriber, mut frames) = raw_connection(&server);
    subscriber
        .write_all(b"{\"op\":\"register\",\"query\":\"?u -likes-> ?p\"}\n")
        .unwrap();
    assert!(next_line(&mut frames).starts_with("{\"reply\":\"register\",\"ok\":true,\"id\":0,"));

    // Insert then retract the same edge, 100 times: the notifications
    // alternate between one new and one retracted embedding.
    let mut pusher = Client::connect(server.local_addr()).unwrap();
    pusher.flush().unwrap();
    let users: Vec<String> = (0..100).map(|i| format!("u{i}")).collect();
    let edges: Vec<(bool, &str, &str, &str)> = users
        .iter()
        .flat_map(|u| {
            [
                (false, "likes", u.as_str(), "p"),
                (true, "likes", u.as_str(), "p"),
            ]
        })
        .collect();
    assert_eq!(pusher.push(&edges).unwrap(), 200);
    // The flush reply means every notification is already queued.
    pusher.flush().unwrap();

    subscriber.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    for i in 0..200 {
        let want = if i % 2 == 0 {
            "{\"notify\":true,\"id\":0,\"new\":1,\"retracted\":0}\n"
        } else {
            "{\"notify\":true,\"id\":0,\"new\":0,\"retracted\":1}\n"
        };
        assert_eq!(next_line(&mut frames), want, "frame {i}");
    }
    assert_eq!(next_line(&mut frames), "{\"reply\":\"ping\",\"ok\":true}\n");
}
