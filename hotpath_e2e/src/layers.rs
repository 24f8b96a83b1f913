//! Per-layer accounting of the traced run: additive counters every sub-run
//! folds its spans and counts into, and the one place that turns them into
//! the named per-layer metrics.

use crate::stats::summarize;
use crate::trace::{Intervals, Layer, Op, Span};

/// `(name, unit, better)` of every per-layer metric, in output order.
/// `BENCHMARK.json` lists the same names (a unit test compares them).
pub const PER_LAYER: [(&str, &str, &str); 48] = [
    ("server.decode_us_per_update", "us", "lower"),
    ("server.intern_ns_per_symbol", "ns", "lower"),
    ("server.notify_encode_ns", "ns", "lower"),
    ("server.notify_frames_per_update", "count", "lower"),
    ("server.engine_busy_share", "share", "higher"),
    ("server.other_us_per_update", "us", "lower"),
    ("server.idle_wait_p50_us", "us", "lower"),
    ("server.closed_notify_p50_us", "us", "lower"),
    ("loadgen.encode_us_per_update", "us", "lower"),
    ("loadgen.late_p99_us", "us", "lower"),
    ("pipeline.self_us_per_batch", "us", "lower"),
    ("pipeline.batches", "count", "lower"),
    ("pipeline.mean_batch_len", "count", "higher"),
    ("pipeline.stage_calls_per_flush", "count", "lower"),
    ("pipeline.answer_wait_us_per_batch", "us", "lower"),
    ("pipeline.overlap_share", "share", "higher"),
    ("tric.stage_us_per_insert", "us", "lower"),
    ("tric.answer_us_per_insert", "us", "lower"),
    ("tric.stage_us_per_retract", "us", "lower"),
    ("tric.answer_us_per_retract", "us", "lower"),
    ("tric.stage_p99_us", "us", "lower"),
    ("tric.answer_p99_us", "us", "lower"),
    ("tric.embeddings_per_update", "count", "lower"),
    ("tric.retracted_per_update", "count", "lower"),
    ("tric.notifications_per_batch", "count", "lower"),
    ("tric.register_first5k_us", "us", "lower"),
    ("tric.register_last5k_us", "us", "lower"),
    ("tric.heap_bytes_per_live_edge", "bytes", "lower"),
    ("query.parse_us_per_query", "us", "lower"),
    ("shard.self_us_per_batch", "us", "lower"),
    ("shard.inner_busy_us_per_batch", "us", "lower"),
    ("shard.skew", "share", "lower"),
    ("shard.spanning_queries", "count", "lower"),
    ("persist.self_us_per_batch", "us", "lower"),
    ("persist.checkpoints", "count", "lower"),
    ("persist.checkpoint_ms", "ms", "lower"),
    ("persist.checkpoint_bytes", "bytes", "lower"),
    ("persist.wal_bytes_per_update", "bytes", "lower"),
    ("persist.recovery_replayed_batches", "count", "lower"),
    ("recovery_s", "s", "lower"),
    ("register_per_s", "1/s", "higher"),
    ("trace.updates_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.engine_side_share", "share", "lower"),
    ("trace.unattributed_share", "share", "lower"),
    ("push_p99_us", "us", "lower"),
    ("notify_p99_us", "us", "lower"),
    ("rss_peak_mb", "MB", "lower"),
];

/// Spans kept for the trace file; the totals cover all of them.
const SAMPLE_SPANS: usize = 20_000;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Additive per-layer counters. Times are nanoseconds; `[0]` is the insert
/// sign and `[1]` the retraction sign.
#[derive(Debug, Default)]
pub struct Layers {
    /// Sub-runs folded in (set by the run).
    pub sub_runs: u64,
    // Timed wall, split by whether tracing was on.
    pub on_ns: u64,
    pub on_updates: u64,
    pub off_ns: u64,
    pub off_updates: u64,
    // Load-generator frames recorded while tracing was on.
    pub frames_ns: u64,
    pub frames: u64,
    // gsm-core::pipeline.
    pub pipeline_self_ns: u64,
    pub top_stage_calls: u64,
    pub answer_wait_ns: u64,
    pub worker_answer_ns: u64,
    pub overlap_ns: u64,
    pub batches: u64,
    pub timed_updates: u64,
    pub notifications: u64,
    pub embeddings: u64,
    pub retracted: u64,
    // gsm-tric seen through the ContinuousEngine boundary.
    pub stage_ns: [u64; 2],
    pub stage_updates: [u64; 2],
    pub answer_ns: [u64; 2],
    pub answer_updates: [u64; 2],
    pub stage_samples_us: Vec<f64>,
    pub answer_samples_us: Vec<f64>,
    pub tric_critical_ns: u64,
    pub heap_bytes: u64,
    pub live_edges: u64,
    pub register_first5k_us: f64,
    pub register_last5k_us: f64,
    pub register_per_s: f64,
    pub parse_ns: u64,
    pub parsed_queries: u64,
    // gsm-core::shard.
    pub shard_self_ns: u64,
    pub shard_inner_busy_ns: u64,
    pub shard_calls: u64,
    pub routed: Vec<u64>,
    pub spanning_queries: u64,
    // gsm-persist.
    pub persist_self_ns: u64,
    pub persist_calls: u64,
    pub checkpoints: u64,
    pub checkpoint_ns: u64,
    pub checkpoint_bytes: u64,
    pub wal_bytes: u64,
    pub wal_updates: u64,
    pub recovery_replayed: u64,
    pub recovery_s: Vec<f64>,
    // gsm-server and the load generator.
    pub decode_ns: u64,
    pub intern_ns: u64,
    pub replayed_updates: u64,
    pub notify_encode_ns: u64,
    pub notify_frames: u64,
    pub served_updates: u64,
    pub engine_busy_ns: u64,
    pub closed_ns: u64,
    pub closed_updates: u64,
    pub idle_wait_us: Vec<f64>,
    pub closed_notify_us: Vec<f64>,
    pub encode_ns: u64,
    pub late_us: Vec<f64>,
    /// The first sub-run's first spans, kept for the trace file.
    pub sample_spans: Vec<Span>,
}

impl Layers {
    /// Folds one sub-run's spans in. `caller` is the load generator's
    /// thread; `top` is the outermost wrapped layer of the composition.
    pub fn absorb_spans(&mut self, spans: &[Span], caller: u32, top: Layer) {
        let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);
        let frames = Intervals::of_spans(of(Layer::Frame));
        let caller_top = Intervals::of_spans(of(top).filter(|s| s.thread == caller));
        let frame_self = frames.subtract(&caller_top);
        self.frames_ns += frames.total();
        self.frames += of(Layer::Frame).count() as u64;
        self.pipeline_self_ns += frame_self.total();
        self.top_stage_calls += of(top)
            .filter(|s| matches!(s.op, Op::Stage | Op::Apply))
            .count() as u64;

        // Threaded pipelines: answer tasks run on a worker, beside the
        // caller. Time the caller spends outside any engine call while a
        // worker answers is time blocked on the answer stage.
        let worker_answers =
            Intervals::of_spans(of(top).filter(|s| s.thread != caller && s.op == Op::Answer));
        self.worker_answer_ns += worker_answers.total();
        self.answer_wait_ns += frame_self.intersect(&worker_answers).total();
        self.overlap_ns += worker_answers.intersect(&caller_top).total();

        let persist = Intervals::of_spans(of(Layer::Persist));
        let shard = Intervals::of_spans(of(Layer::Shard));
        let tric = Intervals::of_spans(of(Layer::Tric));
        self.persist_self_ns += persist.subtract(&shard).total();
        self.persist_calls += of(Layer::Persist)
            .filter(|s| matches!(s.op, Op::Stage | Op::Apply))
            .count() as u64;
        self.shard_self_ns += shard.subtract(&tric).total();
        self.shard_calls += of(Layer::Shard)
            .filter(|s| matches!(s.op, Op::Stage | Op::Apply))
            .count() as u64;
        if top != Layer::Tric {
            self.shard_inner_busy_ns += of(Layer::Tric).map(Span::dur_ns).sum::<u64>();
        }
        // What of the TRIC spans lies on the caller's blocking path: inside
        // the frames, under whatever wraps it.
        let under = if top == Layer::Tric {
            &caller_top
        } else {
            &shard
        };
        self.tric_critical_ns += tric.intersect(under).intersect(&frames).total();

        self.absorb_tric(spans);
    }

    /// Folds the TRIC boundary's leaf spans in: time per staged and per
    /// answered update by sign, and the per-call samples behind the p99s.
    pub fn absorb_tric(&mut self, spans: &[Span]) {
        if self.sample_spans.is_empty() {
            self.sample_spans = spans[..spans.len().min(SAMPLE_SPANS)].to_vec();
        }
        for s in spans.iter().filter(|s| s.layer == Layer::Tric) {
            let sign = s.retract as usize;
            match s.op {
                Op::Stage | Op::Apply => {
                    self.stage_ns[sign] += s.dur_ns();
                    self.stage_updates[sign] += s.updates as u64;
                    self.stage_samples_us.push(s.dur_ns() as f64 / 1e3);
                }
                Op::Answer => {
                    self.answer_ns[sign] += s.dur_ns();
                    self.answer_updates[sign] += s.updates as u64;
                    self.answer_samples_us.push(s.dur_ns() as f64 / 1e3);
                }
                _ => {}
            }
        }
    }

    /// Self times the caller's frames decompose into, in nanoseconds:
    /// pipeline, persist, shard, TRIC on the blocking path.
    pub fn self_times(&self) -> [u64; 4] {
        [
            self.pipeline_self_ns,
            self.persist_self_ns,
            self.shard_self_ns,
            self.tric_critical_ns,
        ]
    }

    /// Wall the traced half of the run spent outside every frame: the load
    /// generator's own bookkeeping, reported rather than hidden.
    pub fn unattributed_ns(&self) -> u64 {
        self.on_ns.saturating_sub(self.frames_ns)
    }

    /// Every per-layer metric this accounting yields, in [`PER_LAYER`] order;
    /// the last three entries of that list come from the run as a whole.
    pub fn metrics(&mut self) -> Vec<f64> {
        let us = |ns: u64, n: u64| ratio(ns as f64 / 1e3, n as f64);
        let tail = |samples: &mut Vec<f64>| summarize(samples).1;
        let p50 = |samples: &mut Vec<f64>| summarize(samples).0;
        let traced_rate = ratio(self.on_updates as f64, self.on_ns as f64 / 1e9);
        let untraced_rate = ratio(self.off_updates as f64, self.off_ns as f64 / 1e9);
        let decode_us = us(self.decode_ns, self.replayed_updates);
        let intern_ns = ratio(self.intern_ns as f64, 3.0 * self.replayed_updates as f64);
        let notify_encode_ns = ratio(self.notify_encode_ns as f64, self.notify_frames as f64);
        let frames_per_update = ratio(self.notify_frames as f64, self.served_updates as f64);
        let closed_us = us(self.closed_ns, self.closed_updates);
        let engine_us = us(self.engine_busy_ns, self.closed_updates);
        let other_us = if self.closed_updates == 0 {
            0.0
        } else {
            closed_us
                - engine_us
                - decode_us
                - 3.0 * intern_ns / 1e3
                - frames_per_update * notify_encode_ns / 1e3
        };
        let routed_max = self.routed.iter().copied().max().unwrap_or(0) as f64;
        let routed_mean = ratio(
            self.routed.iter().sum::<u64>() as f64,
            self.routed.len() as f64,
        );
        let engine_side: u64 = self.self_times()[1..].iter().sum();
        vec![
            decode_us,
            intern_ns,
            notify_encode_ns,
            frames_per_update,
            ratio(self.engine_busy_ns as f64, self.closed_ns as f64),
            other_us,
            p50(&mut self.idle_wait_us),
            p50(&mut self.closed_notify_us),
            us(self.encode_ns, self.replayed_updates),
            tail(&mut self.late_us),
            us(self.pipeline_self_ns, self.top_stage_calls),
            self.batches as f64,
            ratio(self.timed_updates as f64, self.batches as f64),
            ratio(self.top_stage_calls as f64, self.frames as f64),
            us(self.answer_wait_ns, self.top_stage_calls),
            ratio(self.overlap_ns as f64, self.worker_answer_ns as f64),
            us(self.stage_ns[0], self.stage_updates[0]),
            us(self.answer_ns[0], self.answer_updates[0]),
            us(self.stage_ns[1], self.stage_updates[1]),
            us(self.answer_ns[1], self.answer_updates[1]),
            tail(&mut self.stage_samples_us),
            tail(&mut self.answer_samples_us),
            ratio(self.embeddings as f64, self.timed_updates as f64),
            ratio(self.retracted as f64, self.timed_updates as f64),
            ratio(self.notifications as f64, self.batches as f64),
            self.register_first5k_us,
            self.register_last5k_us,
            ratio(self.heap_bytes as f64, self.live_edges as f64),
            us(self.parse_ns, self.parsed_queries),
            us(self.shard_self_ns, self.shard_calls),
            us(self.shard_inner_busy_ns, self.shard_calls),
            ratio(routed_max, routed_mean),
            ratio(self.spanning_queries as f64, self.sub_runs as f64),
            us(self.persist_self_ns, self.persist_calls),
            self.checkpoints as f64,
            ratio(self.checkpoint_ns as f64 / 1e6, self.checkpoints as f64),
            ratio(self.checkpoint_bytes as f64, self.checkpoints as f64),
            ratio(self.wal_bytes as f64, self.wal_updates as f64),
            self.recovery_replayed as f64,
            crate::stats::median(&self.recovery_s),
            self.register_per_s,
            traced_rate,
            100.0 * (1.0 - ratio(traced_rate, untraced_rate)),
            ratio(engine_side as f64, self.on_ns as f64),
            ratio(self.unattributed_ns() as f64, self.on_ns as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, op: Op, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            op,
            retract: false,
            updates: 64,
            thread,
            seq: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_times_telescope_to_the_frame_total() {
        // One frame of 1000 ns on thread 0 holding a persist call, which
        // holds a shard call, which fans out to two parallel TRIC calls on
        // pool threads (the longer one sets the shard's child time).
        let spans = [
            span(Layer::Frame, Op::Frame, 0, 0, 1000),
            span(Layer::Persist, Op::Stage, 0, 100, 900),
            span(Layer::Shard, Op::Stage, 0, 300, 800),
            span(Layer::Tric, Op::Stage, 1, 350, 450),
            span(Layer::Tric, Op::Stage, 2, 350, 700),
        ];
        let mut l = Layers {
            on_ns: 1100,
            ..Layers::default()
        };
        l.absorb_spans(&spans, 0, Layer::Persist);
        assert_eq!(l.self_times(), [200, 300, 150, 350]);
        assert_eq!(l.self_times().iter().sum::<u64>(), l.frames_ns);
        assert_eq!(l.shard_inner_busy_ns, 100 + 350);
        assert_eq!(l.unattributed_ns(), 100);
    }

    #[test]
    fn worker_answers_split_into_wait_and_overlap() {
        // The caller stages during [0, 400) of a 1000 ns frame; a worker
        // answers during [200, 700): 200 ns hidden behind staging, 300 ns
        // the caller sits outside any engine call while the worker runs.
        let spans = [
            span(Layer::Frame, Op::Frame, 0, 0, 1000),
            span(Layer::Tric, Op::Stage, 0, 0, 400),
            span(Layer::Tric, Op::Answer, 1, 200, 700),
        ];
        let mut l = Layers::default();
        l.absorb_spans(&spans, 0, Layer::Tric);
        assert_eq!(l.pipeline_self_ns, 600);
        assert_eq!(l.answer_wait_ns, 300);
        assert_eq!(l.overlap_ns, 200);
        assert_eq!(l.worker_answer_ns, 500);
        // Only the caller's own TRIC time is on the blocking path.
        assert_eq!(l.tric_critical_ns, 400);
    }
}
