//! The blocking TCP server: accept loop, per-connection reader/writer
//! jobs on a [`WorkerPool`], and a single engine thread that owns the
//! [`PipelinedEngine`] and the subscription routing table.
//!
//! # Threading model
//!
//! No async runtime is available offline, so the server is built from
//! blocking sockets on the existing worker-pool substrate:
//!
//! - an **accept thread** enforces the connection cap and hands each
//!   admitted socket a reader job and a writer job on the shared pool
//!   (sized `2 × max_conns + 2`, so every live connection always has
//!   both of its jobs running);
//! - **reader jobs** block on the socket, decode one request per line
//!   (at most `MAX_LINE_BYTES` long, in one pass — see
//!   [`crate::protocol`]) and forward it to the engine thread over an mpsc
//!   channel;
//! - **writer jobs** drain a *bounded* per-connection outbound queue to
//!   the socket — the engine thread enqueues with `try_send`, and a full
//!   queue marks the consumer as too slow (see below). Each wake-up takes
//!   every frame already queued and sends them, newlines included, with
//!   one `write`;
//! - the **engine thread** owns the pipeline, the symbol table and the
//!   `query id → connection` routing table. It is the only thread that
//!   touches the engine, so no engine state is ever locked.
//!
//! # Backpressure and slow consumers
//!
//! Every frame to a client — replies and notifications alike — goes
//! through that client's bounded queue. When `try_send` finds the queue
//! full (or the writer already gone), the server drops the connection
//! rather than stall the pipeline for everyone else: the connection's
//! queue is closed (which ends the writer and, via socket shutdown, the
//! reader) and all queries it owns are queued for unregistration at the
//! next epoch boundary. A disconnect — deliberate or not — therefore
//! cancels the client's subscriptions without barriering the pipeline.
//!
//! # Epoch boundaries
//!
//! `register`/`unregister` are *queued* on the pipeline
//! ([`PipelinedEngine::queue_register`]) and take effect at the next
//! drain boundary: an explicit `flush`, or the idle tick (no request for
//! `idle_poll`) when work is pending. Mid-stream lifecycle requests
//! therefore never fail with a staged-window error, and a freshly
//! registered query observes exactly the edges pushed after the boundary
//! that activated it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gsm_core::{
    ContinuousEngine, PipelineConfig, PipelinedEngine, QueryId, QueryPattern, SymbolTable, Update,
    WorkerPool,
};

use crate::json::{num, Json};
use crate::protocol::{notify, reply_err, reply_ok, EdgeOp, Request};

/// Longest request line the server accepts, newline excluded. A client that
/// sends more without a newline gets one `error` frame and is disconnected,
/// so a newline-free stream cannot grow the reader's buffer without bound.
/// (A 64-edge push is a few KiB; the benches' largest frames are ~50 KiB.)
const MAX_LINE_BYTES: usize = 1 << 20;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pipeline configuration for the wrapped engine.
    pub pipeline: PipelineConfig,
    /// Maximum concurrently connected clients; extra connections are
    /// greeted with an `ok:false` hello and closed.
    pub max_conns: usize,
    /// Per-connection outbound queue depth (frames). A client that lets
    /// this fill up is disconnected as a slow consumer.
    pub outbound_queue: usize,
    /// How long the engine thread waits for a request before it runs an
    /// idle tick (drain pending batches, apply queued lifecycle ops).
    pub idle_poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            pipeline: PipelineConfig::default(),
            max_conns: 32,
            outbound_queue: 1024,
            idle_poll: Duration::from_millis(2),
        }
    }
}

/// Commands flowing from the accept/reader threads to the engine thread.
enum Command {
    /// A new connection was admitted; `tx` feeds its writer job.
    Connect { conn: u64, tx: SyncSender<String> },
    /// One decoded request (or a decode error to report back).
    Request {
        conn: u64,
        req: Result<Request, String>,
    },
    /// The connection's reader saw EOF or an error.
    Disconnect { conn: u64 },
    /// Stop the engine thread and close every connection.
    Shutdown,
}

/// A running server; dropping it shuts the server down.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    cmd_tx: Sender<Command>,
    accept_thread: Option<JoinHandle<()>>,
    engine_thread: Option<JoinHandle<()>>,
    // Dropped last: joining the pool requires every reader/writer job to
    // have exited, which the shutdown sequence guarantees.
    _pool: Arc<WorkerPool>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `engine` behind a pipeline built from `config`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        engine: Box<dyn ContinuousEngine + Send>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool = Arc::new(WorkerPool::new(2 * config.max_conns + 2));
        let (cmd_tx, cmd_rx) = mpsc::channel();

        let engine_thread = {
            let config = config.clone();
            std::thread::Builder::new()
                .name("gsm-engine".into())
                .spawn(move || EngineThread::new(engine, config).run(cmd_rx))?
        };

        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let cmd_tx = cmd_tx.clone();
            let pool_handle = Arc::clone(&pool);
            let config = config.clone();
            std::thread::Builder::new()
                .name("gsm-accept".into())
                .spawn(move || accept_loop(listener, shutdown, cmd_tx, pool_handle, config))?
        };

        Ok(Server {
            local_addr,
            shutdown,
            cmd_tx,
            accept_thread: Some(accept_thread),
            engine_thread: Some(engine_thread),
            _pool: pool,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, closes every connection and joins all threads.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Closing every connection first lets the reader/writer jobs
        // exit; the engine thread stops once it sees Shutdown.
        let _ = self.cmd_tx.send(Command::Shutdown);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    cmd_tx: Sender<Command>,
    pool: Arc<WorkerPool>,
    config: ServerConfig,
) {
    let active = Arc::new(AtomicUsize::new(0));
    let mut next_conn: u64 = 0;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Frames are small and latency-sensitive; never Nagle-delay them.
        let _ = stream.set_nodelay(true);
        // Connection cap: greet-and-close when full. The counter is
        // released by the reader job on its way out.
        if active.load(Ordering::SeqCst) >= config.max_conns {
            let mut stream = stream;
            let mut hello = reply_err("hello", "connection limit reached");
            hello.push('\n');
            let _ = stream.write_all(hello.as_bytes());
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let conn = next_conn;
        next_conn += 1;

        let (out_tx, out_rx) = mpsc::sync_channel::<String>(config.outbound_queue);
        // The hello goes through the outbound queue *before* the engine
        // learns about the connection, so it is always the first frame.
        let _ = out_tx.try_send(reply_ok("hello", vec![("conn", num(conn))]));
        if cmd_tx.send(Command::Connect { conn, tx: out_tx }).is_err() {
            // Engine already gone (shutdown race); drop the socket.
            active.fetch_sub(1, Ordering::SeqCst);
            continue;
        }

        let reader = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                let _ = cmd_tx.send(Command::Disconnect { conn });
                active.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
        };
        let writer = stream;

        pool.execute({
            let cmd_tx = cmd_tx.clone();
            let active = Arc::clone(&active);
            move || {
                reader_job(reader, conn, &cmd_tx);
                active.fetch_sub(1, Ordering::SeqCst);
            }
        });
        pool.execute(move || writer_job(writer, out_rx));
    }
}

/// Reads `\n`-framed requests until EOF/error, forwarding each to the
/// engine thread. A line longer than [`MAX_LINE_BYTES`] is answered with
/// one `error` frame and ends the connection. Always announces the
/// disconnect on the way out.
fn reader_job(stream: TcpStream, conn: u64, cmd_tx: &Sender<Command>) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from one that ends
        // exactly at it.
        let mut bounded = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1);
        match bounded.read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let over_long = line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n');
        let req = if over_long {
            Err(format!("request line exceeds {MAX_LINE_BYTES} bytes"))
        } else {
            let Ok(text) = std::str::from_utf8(&line) else {
                break;
            };
            let trimmed = text.trim();
            if trimmed.is_empty() {
                continue;
            }
            Request::decode(trimmed)
        };
        if cmd_tx.send(Command::Request { conn, req }).is_err() || over_long {
            break;
        }
    }
    let _ = cmd_tx.send(Command::Disconnect { conn });
}

/// Drains the bounded outbound queue to the socket: blocks for one frame,
/// takes every frame already queued behind it, and writes them all, in
/// order and newline-terminated, with one `write_all`.
/// Exits when the engine drops the queue (disconnect) or the socket dies,
/// and shuts the socket down so the blocked reader job exits too.
fn writer_job(mut stream: TcpStream, out_rx: Receiver<String>) {
    let mut buf = Vec::new();
    while let Ok(frame) = out_rx.recv() {
        buf.clear();
        buf.extend_from_slice(frame.as_bytes());
        buf.push(b'\n');
        while let Ok(frame) = out_rx.try_recv() {
            buf.extend_from_slice(frame.as_bytes());
            buf.push(b'\n');
        }
        if stream.write_all(&buf).is_err() {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Per-connection state owned by the engine thread.
struct ConnState {
    tx: SyncSender<String>,
    /// Query ids this connection registered and still owns.
    queries: Vec<u32>,
}

/// The engine thread: single owner of the pipeline and routing table.
struct EngineThread {
    pipe: PipelinedEngine<Box<dyn ContinuousEngine + Send>>,
    symbols: SymbolTable,
    conns: HashMap<u64, ConnState>,
    /// Routes notifications: query id → owning connection.
    owners: HashMap<u32, u64>,
    /// Queries whose unregistration is queued; their `owners` entries are
    /// pruned after the boundary that applies it (they may still emit
    /// notifications for pre-boundary batches until then).
    retiring: Vec<u32>,
    idle_poll: Duration,
}

impl EngineThread {
    fn new(engine: Box<dyn ContinuousEngine + Send>, config: ServerConfig) -> EngineThread {
        EngineThread {
            pipe: PipelinedEngine::new(engine, config.pipeline),
            symbols: SymbolTable::new(),
            conns: HashMap::new(),
            owners: HashMap::new(),
            retiring: Vec::new(),
            idle_poll: config.idle_poll,
        }
    }

    fn run(mut self, cmd_rx: Receiver<Command>) {
        loop {
            match cmd_rx.recv_timeout(self.idle_poll) {
                Ok(Command::Connect { conn, tx }) => {
                    self.conns.insert(
                        conn,
                        ConnState {
                            tx,
                            queries: Vec::new(),
                        },
                    );
                }
                Ok(Command::Request { conn, req }) => match req {
                    Ok(req) => self.handle_request(conn, req),
                    Err(error) => self.send(conn, reply_err("error", &error)),
                },
                Ok(Command::Disconnect { conn }) => self.drop_conn(conn),
                Ok(Command::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => self.idle_tick(),
            }
        }
        // Dropping the outbound queues ends every writer job, which
        // shuts each socket down and thereby ends its reader job.
        self.conns.clear();
    }

    /// Idle for a poll interval: drain so deadline-expired batches are
    /// answered, queued lifecycle ops apply, and notifications go out
    /// even when no client is actively pushing.
    fn idle_tick(&mut self) {
        if self.pipe.buffered() > 0
            || self.pipe.in_flight() > 0
            || self.pipe.pending_lifecycle() > 0
        {
            self.boundary();
        }
    }

    /// Runs a full drain (an epoch boundary), dispatches everything it
    /// completed, and prunes routing entries for unregistered queries.
    fn boundary(&mut self) {
        let done = self.pipe.drain();
        self.dispatch(done);
        for qid in std::mem::take(&mut self.retiring) {
            debug_assert!(!self.pipe.is_registered(QueryId(qid)));
            if let Some(conn) = self.owners.remove(&qid) {
                if let Some(state) = self.conns.get_mut(&conn) {
                    state.queries.retain(|&q| q != qid);
                }
            }
        }
    }

    fn handle_request(&mut self, conn: u64, req: Request) {
        let op = req.op_name();
        match req {
            Request::Register { query } => match QueryPattern::parse(&query, &mut self.symbols) {
                Ok(pattern) => {
                    let id = self.pipe.queue_register(&pattern);
                    let live_epoch = self.pipe.epoch() + 1;
                    self.owners.insert(id.0, conn);
                    if let Some(state) = self.conns.get_mut(&conn) {
                        state.queries.push(id.0);
                    }
                    self.send(
                        conn,
                        reply_ok(
                            op,
                            vec![("id", num(id.0 as u64)), ("epoch", num(live_epoch))],
                        ),
                    );
                }
                Err(e) => self.send(conn, reply_err(op, &e.to_string())),
            },
            Request::Unregister { id } => {
                if self.owners.get(&id) != Some(&conn) {
                    self.send(
                        conn,
                        reply_err(op, &format!("query {id} not owned by this connection")),
                    );
                    return;
                }
                match self.pipe.queue_unregister(QueryId(id)) {
                    Ok(()) => {
                        let gone_epoch = self.pipe.epoch() + 1;
                        self.retiring.push(id);
                        self.send(
                            conn,
                            reply_ok(op, vec![("id", num(id as u64)), ("epoch", num(gone_epoch))]),
                        );
                    }
                    Err(e) => self.send(conn, reply_err(op, &e.to_string())),
                }
            }
            Request::Push { edges } => {
                let accepted = edges.len() as u64;
                let now = Instant::now();
                let mut done = Vec::new();
                for edge in edges {
                    let update = self.decode_update(&edge);
                    done.extend(self.pipe.push_at(update, now));
                }
                // Notifications for batches this push completed precede
                // the push reply on each connection's queue.
                self.dispatch(done);
                self.send(conn, reply_ok(op, vec![("accepted", num(accepted))]));
            }
            Request::Flush => {
                self.boundary();
                self.send(conn, reply_ok(op, vec![("epoch", num(self.pipe.epoch()))]));
            }
            Request::Stats => {
                let stats = self.pipe.stats();
                self.send(
                    conn,
                    reply_ok(
                        op,
                        vec![
                            ("engine", Json::Str(self.pipe.name().into())),
                            ("queries", num(self.pipe.num_queries() as u64)),
                            ("epoch", num(self.pipe.epoch())),
                            ("updates", num(stats.updates_processed)),
                            ("notifications", num(stats.notifications)),
                            ("embeddings", num(stats.embeddings)),
                            ("retracted", num(stats.retracted)),
                        ],
                    ),
                );
            }
            Request::Ping => self.send(conn, reply_ok(op, vec![])),
        }
    }

    fn decode_update(&mut self, edge: &EdgeOp) -> Update {
        let label = self.symbols.intern(&edge.label);
        let src = self.symbols.intern(&edge.src);
        let tgt = self.symbols.intern(&edge.tgt);
        if edge.retract {
            Update::retraction(label, src, tgt)
        } else {
            Update::new(label, src, tgt)
        }
    }

    /// Routes each completed batch's per-query reports to the owning
    /// connections.
    fn dispatch(&mut self, done: Vec<gsm_core::CompletedBatch>) {
        for batch in done {
            for m in batch.report.matches {
                if let Some(&conn) = self.owners.get(&m.query.0) {
                    self.send(
                        conn,
                        notify(m.query.0, m.new_embeddings, m.retracted_embeddings),
                    );
                }
            }
        }
    }

    /// Enqueues one frame; a full or closed queue drops the connection
    /// (slow-consumer policy).
    fn send(&mut self, conn: u64, frame: String) {
        let Some(state) = self.conns.get(&conn) else {
            return;
        };
        match state.tx.try_send(frame) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.drop_conn(conn);
            }
        }
    }

    /// Closes a connection: its outbound queue is dropped (ending the
    /// writer, then the reader via socket shutdown) and every query it
    /// still owns is queued for unregistration at the next boundary.
    fn drop_conn(&mut self, conn: u64) {
        let Some(state) = self.conns.remove(&conn) else {
            return;
        };
        for qid in state.queries {
            if self.owners.get(&qid) == Some(&conn)
                && self.pipe.queue_unregister(QueryId(qid)).is_ok()
            {
                self.retiring.push(qid);
            }
            self.owners.remove(&qid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slow-consumer policy, exercised without kernel socket buffers
    /// in the way: a connection whose bounded queue is full (nothing
    /// draining it) is dropped on the next frame, and the queries it
    /// owns are cancelled at the following epoch boundary.
    #[test]
    fn overflowing_outbound_queue_drops_the_connection_and_cancels_its_queries() {
        let engine: Box<dyn ContinuousEngine + Send> = Box::new(gsm_tric::TricEngine::tric_plus());
        let config = ServerConfig {
            pipeline: PipelineConfig::new(1, Duration::ZERO),
            ..ServerConfig::default()
        };
        let mut et = EngineThread::new(engine, config);

        let (tx, rx) = mpsc::sync_channel(1);
        et.conns.insert(
            7,
            ConnState {
                tx,
                queries: Vec::new(),
            },
        );

        // The register reply fills the queue (capacity 1, no writer).
        et.handle_request(
            7,
            Request::Register {
                query: "?a -l-> ?b".into(),
            },
        );
        assert!(et.conns.contains_key(&7));
        assert_eq!(et.owners.get(&0), Some(&7));

        // The next frame overflows: slow-consumer disconnect.
        et.handle_request(7, Request::Ping);
        assert!(!et.conns.contains_key(&7), "slow consumer must be dropped");
        drop(rx);

        // Its queued registration is cancelled at the boundary; the
        // engine ends up with no live queries and no routing entries.
        et.boundary();
        assert_eq!(et.pipe.num_queries(), 0);
        assert!(et.owners.is_empty());
        assert!(et.retiring.is_empty());
    }
}
