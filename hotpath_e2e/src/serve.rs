//! The served workload: `gsm-server` on loopback, driven by a load
//! generator of two threads and two connections — a pusher sending 64-edge
//! `push` frames and a subscriber that owns every query and reads
//! notifications continuously.
//!
//! Each sub-run's timed region has two phases. Phase A is a **closed
//! loop** (push → reply → next push, one client): it gives `updates_per_s`
//! and the push latencies. Phase B is an **open loop** at the fixed rate
//! [`OPEN_LOOP_UPDATES_PER_S`]: frame *i* is due at `start + i · interval`
//! whatever the server does, and push-to-notify latency is measured from
//! that due time through the probe edge every frame carries.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gsm_core::{ContinuousEngine, SymbolTable};
use gsm_server::protocol::{self, EdgeOp, Request};
use gsm_server::{Client, ClientError, Notification, Server, ServerConfig};
use gsm_tric::TricEngine;

use crate::inproc::{traced_block, SubRun, Tenant, DIGEST_FRAMES, WARM_CAP_SLOTS};
use crate::input::{self, borrow_frame, render_query, render_update, WireEdge, FRAME};
use crate::layers::Layers;
use crate::oracle::{sum, Totals, Verifier};
use crate::trace::{self, Intervals, Layer, Op, Span, Wrap};

/// Phase B's fixed rate in signed updates per second: about 40 % of what
/// phase A sustains on the recorded machine, so the server has headroom and
/// latency is not queueing delay. Hard-coded; see README, "Calibration".
pub const OPEN_LOOP_UPDATES_PER_S: f64 = 24_000.0;

/// Frames per tracing on/off block in phase A (see `inproc::TRACE_BLOCK`;
/// a served phase A has fewer frames, so blocks are shorter).
const TRACE_BLOCK: usize = 16;

/// Share of a sub-run's slot spent in the closed loop.
const CLOSED_SHARE: f64 = 0.4;

/// Push-to-notify latency per probe. `due_ns[k]` is when the frame of
/// probe `first_probe + k` was due; `received` lists, in arrival order, the
/// probe query's notifications as `(receipt time, new embeddings)`. Probe
/// `n` (counted from 0 over the whole connection) is covered by the first
/// notification that brings the cumulative `new` to `n + 1`; one
/// notification may cover several probes, which then share its receipt
/// time. Returns the latencies in nanoseconds and how many probes were
/// never covered.
pub fn probe_latencies(
    due_ns: &[u64],
    first_probe: u64,
    received: &[(u64, u64)],
) -> (Vec<u64>, u64) {
    let mut latencies = Vec::with_capacity(due_ns.len());
    let mut cumulative = 0u64;
    let mut next = received.iter();
    let mut receipt = None;
    for (k, &due) in due_ns.iter().enumerate() {
        let needed = first_probe + k as u64 + 1;
        while cumulative < needed {
            match next.next() {
                Some(&(at, new)) => {
                    cumulative += new;
                    receipt = Some(at);
                }
                None => return (latencies, (due_ns.len() - k) as u64),
            }
        }
        // Covered by a notification that arrived before this phase began
        // cannot happen: its probe had not been sent. `receipt` is set.
        let at = receipt.expect("a covering notification was read");
        latencies.push(at.saturating_sub(due));
    }
    (latencies, 0)
}

fn ctx(what: &'static str) -> impl Fn(ClientError) -> String {
    move |e| format!("{what}: {e}")
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Sleeps, then spins, until `due`; returns the time it actually woke.
fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

type Log = Vec<(Instant, Notification)>;

/// The subscriber thread: reads notifications until told to stop, then
/// fences with a `ping` so everything the server sent has been read.
fn subscribe(mut client: Client, stop: Arc<AtomicBool>) -> (Log, Result<(), String>) {
    let mut log = Log::new();
    // SeqCst: the flag orders the pusher's final flush before the fence.
    while !stop.load(Ordering::SeqCst) {
        match client.recv_notification(Duration::from_millis(20)) {
            Ok(Some(n)) => log.push((Instant::now(), n)),
            Ok(None) => {}
            Err(e) => return (log, Err(format!("subscriber: {e}"))),
        }
    }
    let fenced = client.ping().map_err(|e| format!("subscriber fence: {e}"));
    let now = Instant::now();
    log.extend(client.take_notifications().into_iter().map(|n| (now, n)));
    (log, fenced)
}

struct Phases {
    /// Frames sent before the timed region (warm-up).
    warm: usize,
    closed: (Instant, Instant),
    /// Hand-over time of each phase A frame.
    closed_due: Vec<Instant>,
    /// Due time of each phase B frame.
    open_due: Vec<Instant>,
    late_us: Vec<f64>,
    /// Phase A wall and updates while tracing was on / off.
    blocks: [(u64, u64); 2],
}

pub fn sub_run<W: Wrap>(tenant: Tenant, layers: &mut Layers, verifier: &mut Verifier) -> SubRun {
    let Tenant {
        spec,
        seed,
        index,
        slot,
    } = tenant;
    let mut out = SubRun::default();
    trace::set_enabled(false);
    let setup_start = Instant::now();
    let input = input::generate(spec, seed, index);
    out.input_hash = input.hash;
    let frames: Vec<Vec<WireEdge>> = input
        .updates
        .chunks(FRAME)
        .map(|f| f.iter().map(|u| render_update(u, &input.symbols)).collect())
        .collect();
    let texts: Vec<String> = input
        .queries
        .iter()
        .map(|q| render_query(q, &input.symbols))
        .collect();
    let probe = input.probe_query.expect("served inputs carry a probe");
    let mut totals: Totals = vec![(0, 0); texts.len()];
    let mut warm_sum = (0, 0);
    let mut log = Log::new();

    let result = (|| -> Result<Phases, String> {
        let engine: Box<dyn ContinuousEngine + Send> =
            Box::new(W::wrap(Layer::Tric, TricEngine::tric_plus()));
        let server = Server::bind("127.0.0.1:0", engine, ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let mut subscriber = Client::connect(server.local_addr()).map_err(ctx("connect"))?;
        let mut pusher = Client::connect(server.local_addr()).map_err(ctx("connect"))?;
        for (i, text) in texts.iter().enumerate() {
            let (id, _) = subscriber.register(text).map_err(ctx("register"))?;
            if id as usize != i {
                return Err(format!("query {i} was given id {id}"));
            }
        }
        pusher.flush().map_err(ctx("boundary"))?;
        let mut warm = spec.warm_frames.min(frames.len());
        let warm_deadline = Instant::now() + WARM_CAP_SLOTS * slot;
        let mut fence = |pusher: &mut Client, totals: &mut Totals| -> Result<(), String> {
            pusher.flush().map_err(ctx("warm flush"))?;
            subscriber.ping().map_err(ctx("warm fence"))?;
            let notifications = subscriber.take_notifications();
            layers.notify_frames += notifications.len() as u64;
            fold(totals, notifications);
            Ok(())
        };
        for (i, frame) in frames[..warm].iter().enumerate() {
            if i >= DIGEST_FRAMES && Instant::now() >= warm_deadline {
                warm = i;
                break;
            }
            pusher
                .push(&borrow_frame(frame))
                .map_err(ctx("warm push"))?;
            if i + 1 == DIGEST_FRAMES.min(warm) {
                fence(&mut pusher, &mut totals)?;
                out.digest_totals = totals.clone();
            }
        }
        fence(&mut pusher, &mut totals)?;
        warm_sum = sum(&totals);
        out.setup_s = setup_start.elapsed().as_secs_f64();

        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || subscribe(subscriber, stop))
        };
        let pushed = (|| -> Result<Phases, String> {
            // Phase A: closed loop.
            let mut next = warm;
            let mut closed_due = Vec::new();
            let mut blocks = [(0u64, 0u64); 2];
            let start = Instant::now();
            let deadline = start + slot.mul_f64(CLOSED_SHARE);
            let (mut block_start, mut block_updates, mut on) = (start, 0u64, false);
            while next < frames.len() {
                let t0 = Instant::now();
                if t0 >= deadline {
                    break;
                }
                let timed_frame = next - warm;
                if W::TRACED && timed_frame.is_multiple_of(TRACE_BLOCK) {
                    blocks[on as usize].0 += (t0 - block_start).as_nanos() as u64;
                    blocks[on as usize].1 += block_updates;
                    (block_start, block_updates) = (t0, 0);
                    on = traced_block(index, timed_frame, TRACE_BLOCK);
                    trace::set_enabled(on);
                }
                trace::set_seq(timed_frame as u32);
                out.attempted += 1;
                pusher
                    .push(&borrow_frame(&frames[next]))
                    .map_err(ctx("push"))?;
                let t1 = Instant::now();
                trace::record(Layer::Frame, Op::Frame, false, FRAME, t0, t1);
                out.push_us.push((t1 - t0).as_secs_f64() * 1e6);
                closed_due.push(t0);
                out.updates += FRAME as u64;
                block_updates += FRAME as u64;
                next += 1;
            }
            let end = Instant::now();
            out.elapsed_s = (end - start).as_secs_f64();
            blocks[on as usize].0 += (end - block_start).as_nanos() as u64;
            blocks[on as usize].1 += block_updates;
            pusher.flush().map_err(ctx("flush"))?;

            // Phase B: open loop at a fixed rate, traced throughout.
            trace::set_enabled(W::TRACED);
            let interval = Duration::from_secs_f64(FRAME as f64 / OPEN_LOOP_UPDATES_PER_S);
            let planned =
                (slot.mul_f64(1.0 - CLOSED_SHARE).as_secs_f64() / interval.as_secs_f64()) as usize;
            let mut open_due = Vec::with_capacity(planned);
            let mut late_us = Vec::with_capacity(planned);
            let open_start = Instant::now();
            for i in 0..planned.min(frames.len() - next) {
                let due = open_start + interval * i as u32;
                let sent = wait_until(due);
                late_us.push((sent - due).as_secs_f64() * 1e6);
                trace::set_seq((next - warm) as u32);
                out.attempted += 1;
                pusher
                    .push(&borrow_frame(&frames[next]))
                    .map_err(ctx("push"))?;
                trace::record(Layer::Frame, Op::Frame, false, FRAME, sent, Instant::now());
                open_due.push(due);
                next += 1;
            }
            pusher.flush().map_err(ctx("final flush"))?;
            Ok(Phases {
                warm,
                closed: (start, end),
                closed_due,
                open_due,
                late_us,
                blocks,
            })
        })();
        trace::set_enabled(false);
        stop.store(true, Ordering::SeqCst);
        let (read, fenced) = reader
            .join()
            .map_err(|_| "subscriber thread panicked".to_string())?;
        log = read;
        drop(pusher);
        drop(server);
        fenced?;
        pushed
    })();
    trace::set_enabled(false);
    let spans = trace::take_spans();

    let phases = match result {
        Ok(phases) => phases,
        Err(e) => {
            out.failed += 1;
            out.error = Some(e);
            return out;
        }
    };
    fold(&mut totals, log.iter().map(|(_, n)| *n));
    let sent = phases.warm + phases.closed_due.len() + phases.open_due.len();

    // Probe accounting: every frame carried one probe.
    let received: Vec<(u64, u64)> = log
        .iter()
        .filter(|(_, n)| n.id as usize == probe)
        .map(|(at, n)| (trace::ns_of(*at), n.new))
        .collect();
    let ns = |due: &[Instant]| due.iter().map(|t| trace::ns_of(*t)).collect::<Vec<u64>>();
    // The log starts after the warm-up fence, so its first probe
    // notification covers the first timed frame.
    let (closed_due, open_due) = (ns(&phases.closed_due), ns(&phases.open_due));
    let (closed_lat, _) = probe_latencies(&closed_due, 0, &received);
    let (open_lat, unanswered) = probe_latencies(&open_due, closed_due.len() as u64, &received);
    out.notify_us = open_lat.iter().map(|&l| us(l)).collect();
    if unanswered > 0 {
        out.failed += unanswered;
        out.error = Some(format!("{unanswered} probes were never notified"));
    }

    let processed = &input.updates[..sent * FRAME];
    if out.error.is_none() {
        out.error = verifier
            .verify(&input.queries, processed, FRAME, &totals)
            .err();
    }

    if W::TRACED {
        account_traced(&spans, &phases, (&open_due, &open_lat), &closed_lat, layers);
        replay_front_end(&frames[..sent], &log, layers);
    }
    // Seen from the client: one batch per frame, one notification frame per
    // (batch, matched query).
    let all = sum(&totals);
    layers.embeddings += all.0 - warm_sum.0;
    layers.retracted += all.1 - warm_sum.1;
    layers.notifications += log.len() as u64;
    layers.batches += (sent - phases.warm) as u64;
    layers.timed_updates += ((sent - phases.warm) * FRAME) as u64;
    layers.served_updates += (sent * FRAME) as u64;
    layers.notify_frames += log.len() as u64;
    out
}

/// Folds a traced sub-run's spans into the per-layer counters. Only the
/// closed loop (phase A) enters the wall accounting; phase B contributes
/// the probe waits.
fn account_traced(
    spans: &[Span],
    phases: &Phases,
    (open_due, open_lat): (&[u64], &[u64]),
    closed_lat: &[u64],
    layers: &mut Layers,
) {
    let (closed_start, closed_end) = (trace::ns_of(phases.closed.0), trace::ns_of(phases.closed.1));
    let window = Intervals::union_of(vec![(closed_start, closed_end)]);
    let engine = Intervals::of_spans(spans.iter().filter(|s| s.layer == Layer::Tric));
    let pushes = Intervals::of_spans(spans.iter().filter(|s| s.layer == Layer::Frame));
    let closed_pushes = pushes.intersect(&window);
    let engine_in_pushes = engine.intersect(&closed_pushes);
    let [(off_ns, off_updates), (on_ns, on_updates)] = phases.blocks;
    layers.on_ns += on_ns;
    layers.on_updates += on_updates;
    layers.off_ns += off_ns;
    layers.off_updates += off_updates;
    layers.closed_ns += on_ns;
    layers.closed_updates += on_updates;
    layers.engine_busy_ns += engine.intersect(&window).total();
    // Seen from the client, a frame's self time is everything between
    // the push and the engine boundary: sockets, JSON, channels and the
    // pipeline inside the server.
    layers.frames_ns += closed_pushes.total();
    layers.pipeline_self_ns += closed_pushes.subtract(&engine).total();
    layers.tric_critical_ns += engine_in_pushes.total();
    layers.frames += spans.iter().filter(|s| s.layer == Layer::Frame).count() as u64;
    layers.top_stage_calls += spans
        .iter()
        .filter(|s| s.layer == Layer::Tric && s.op == Op::Stage)
        .count() as u64;
    layers.absorb_tric(spans);
    // What a probe waited for besides the engine: batcher deadline,
    // idle poll, channels and sockets.
    for (&due, &lat) in open_due.iter().zip(open_lat) {
        let busy = engine
            .intersect(&Intervals::union_of(vec![(due, due + lat)]))
            .total();
        layers.idle_wait_us.push(us(lat.saturating_sub(busy)));
    }
    layers
        .closed_notify_us
        .extend(closed_lat.iter().map(|&l| us(l)));
    layers.late_us.extend(&phases.late_us);
}

fn fold(totals: &mut Totals, notifications: impl IntoIterator<Item = Notification>) {
    for n in notifications {
        let i = n.id as usize;
        if i >= totals.len() {
            totals.resize(i + 1, (0, 0));
        }
        totals[i].0 += n.new;
        totals[i].1 += n.retracted;
    }
}

/// Replays the server's pure front-end functions over the identical wire
/// lines, outside the timed region: what decode, interning and
/// notification encoding cost per unit, and what the load generator's own
/// request encoding costs.
fn replay_front_end(frames: &[Vec<WireEdge>], log: &Log, layers: &mut Layers) {
    let start = Instant::now();
    let lines: Vec<String> = frames
        .iter()
        .map(|frame| {
            Request::Push {
                edges: frame
                    .iter()
                    .map(|(retract, label, src, tgt)| EdgeOp {
                        retract: *retract,
                        label: label.clone(),
                        src: src.clone(),
                        tgt: tgt.clone(),
                    })
                    .collect(),
            }
            .encode()
        })
        .collect();
    layers.encode_ns += start.elapsed().as_nanos() as u64;

    let start = Instant::now();
    let decoded: Vec<Request> = lines
        .iter()
        .map(|line| Request::decode(line).expect("own encoding decodes"))
        .collect();
    layers.decode_ns += start.elapsed().as_nanos() as u64;

    let mut symbols = SymbolTable::new();
    let start = Instant::now();
    for request in &decoded {
        if let Request::Push { edges } = request {
            for e in edges {
                std::hint::black_box((
                    symbols.intern(&e.label),
                    symbols.intern(&e.src),
                    symbols.intern(&e.tgt),
                ));
            }
        }
    }
    layers.intern_ns += start.elapsed().as_nanos() as u64;
    layers.replayed_updates += (frames.len() * FRAME) as u64;

    let start = Instant::now();
    for (_, n) in log {
        std::hint::black_box(protocol::notify(n.id, n.new, n.retracted));
    }
    layers.notify_encode_ns += start.elapsed().as_nanos() as u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_is_measured_from_the_due_time() {
        // Frames due every 5 ms from t = 1 s. The server stalls: frame 1 is
        // sent 7 ms late and answered 1 ms after that. Measured from the
        // send it would read 1 ms; from the due time it reads 8 ms.
        let start = 1_000_000_000;
        let interval = 5_000_000;
        let due: Vec<u64> = (0..3).map(|i| start + interval * i).collect();
        assert_eq!(due, vec![1_000_000_000, 1_005_000_000, 1_010_000_000]);
        let sent_frame1 = due[1] + 7_000_000;
        let received = [
            (due[0] + 400_000, 1),
            (sent_frame1 + 1_000_000, 1),
            (due[2] + 6_000_000, 1),
        ];
        let (lat, missing) = probe_latencies(&due, 0, &received);
        assert_eq!(missing, 0);
        assert_eq!(lat, vec![400_000, 8_000_000, 6_000_000]);
    }

    #[test]
    fn two_probes_sharing_one_notification_share_its_receipt_time() {
        let due = [100, 200, 300];
        // Ten probes preceded this phase (warm-up + closed loop) and were
        // already notified; then one notification covers probes 10 and 11,
        // and probe 12 is never covered.
        let received = [(50, 4), (60, 6), (250, 2)];
        let (lat, missing) = probe_latencies(&due, 10, &received);
        assert_eq!(lat, vec![150, 50]);
        assert_eq!(missing, 1);
        // A notification that arrives before the due time (clock skew
        // between threads) saturates to zero instead of wrapping.
        let (lat, _) = probe_latencies(&[500], 0, &[(400, 1)]);
        assert_eq!(lat, vec![0]);
    }
}
