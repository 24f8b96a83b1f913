//! The three in-process workloads: a closed loop handing 64-update frames
//! to a `PipelinedEngine` through `push_at`, over the composition each
//! workload names.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gsm_core::{
    CompletedBatch, ContinuousEngine, PipelineConfig, PipelinedEngine, ShardedEngine, Update,
};
use gsm_persist::{DirFactory, PersistConfig, PersistentEngine};
use gsm_tric::TricEngine;

use crate::input::{self, Input, Spec, FRAME};
use crate::layers::Layers;
use crate::oracle::{self, sum, Totals, Verifier};
use crate::trace::{self, Layer, Op, Wrap};

/// Frames per tracing on/off block of the traced run: tracing alternates
/// so one run yields traced and untraced throughput over the same streams.
/// A block is much longer than the pipeline's in-flight window, because a
/// threaded pipeline pays for a frame's answer while handing over the next
/// frames: with blocks of a few frames that lag moves cost across the
/// on/off boundary and the overhead reads several percent negative.
pub const TRACE_BLOCK: usize = 32;

/// Whether tracing is on for timed frame `frame` of sub-run `sub_run`.
/// Consecutive sub-runs start on opposite phases, so "on" blocks are on
/// average neither earlier nor later in a growing stream than "off" ones.
pub fn traced_block(sub_run: usize, frame: usize, block: usize) -> bool {
    (frame / block + sub_run).is_multiple_of(2)
}

/// Shards and WAL stripes of the durable composition.
const SHARDS: usize = 2;

/// WAL records per fsync of the durable composition. Not 1: a steady
/// sliding window makes every update its own WAL record, so at 1 the whole
/// workload is one fsync per update, and fsync latency on the recorded
/// machine's disk drifts between 85 and 155 µs within an hour — more than
/// any bound a metric may carry.
const GROUP_COMMIT: usize = 32;

/// Frames between explicit checkpoints of the durable composition. The
/// pipelined path never auto-checkpoints, so the load generator does what
/// the crash suite does: drain, unwrap, `checkpoint()`, rewrap.
const CHECKPOINT_EVERY_FRAMES: usize = 32;

/// Frames of the warm-up whose totals enter the digest.
pub const DIGEST_FRAMES: usize = 8;

/// The warm-up is a fixed number of frames, but on an input dear enough to
/// take this many slots it stops early rather than stall the run.
pub const WARM_CAP_SLOTS: u32 = 4;

/// Which sub-run to run: the workload shape, the run's seed, the sub-run's
/// index (its sub-seed) and its share of the timed region.
#[derive(Clone, Copy)]
pub struct Tenant<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub index: usize,
    pub slot: Duration,
}

/// What one sub-run measured.
#[derive(Debug, Default)]
pub struct SubRun {
    pub setup_s: f64,
    /// Signed updates handed over inside the timed region.
    pub updates: u64,
    pub elapsed_s: f64,
    /// Producer-visible time to hand over one frame, per frame.
    pub push_us: Vec<f64>,
    /// Frame handed over → report (or notification) covering it received.
    pub notify_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Per-query totals after the first [`DIGEST_FRAMES`] frames: fixed work,
    /// so a function of the input alone.
    pub digest_totals: Totals,
    pub input_hash: u64,
    /// First failure, if any: a refused operation or a wrong answer.
    pub error: Option<String>,
}

/// Consumes completed batches: folds the per-query totals and matches
/// reports back to the frames they cover.
#[derive(Default)]
pub struct Sink {
    pub totals: Totals,
    pub batches: u64,
    pub notifications: u64,
    completed_updates: u64,
    /// `(cumulative updates through the frame, hand-over time)`.
    in_flight: VecDeque<(u64, Instant)>,
    pub notify_us: Vec<f64>,
}

impl Sink {
    fn frame_handed_over(&mut self, cumulative_updates: u64, at: Instant) {
        self.in_flight.push_back((cumulative_updates, at));
    }

    pub fn absorb(&mut self, done: impl IntoIterator<Item = CompletedBatch>, now: Instant) {
        for batch in done {
            self.batches += 1;
            self.notifications += batch.report.len() as u64;
            self.completed_updates += batch.updates as u64;
            oracle::fold(&mut self.totals, &batch.report);
        }
        while let Some(&(through, at)) = self.in_flight.front() {
            if through > self.completed_updates {
                break;
            }
            self.in_flight.pop_front();
            self.notify_us
                .push(now.duration_since(at).as_secs_f64() * 1e6);
        }
    }
}

/// One in-process composition: how to build it, and what to do between
/// frames and after the stream.
pub trait Composition<W: Wrap> {
    type Engine: ContinuousEngine;
    const TOP: Layer;
    fn pipeline(&self) -> PipelineConfig;
    fn build(&mut self, input: &Input) -> Result<Self::Engine, String>;
    /// Runs between frames, inside the frame's timed hand-over.
    fn between_frames(
        &mut self,
        pipe: PipelinedEngine<Self::Engine>,
        _sink: &mut Sink,
        _layers: &mut Layers,
    ) -> Result<PipelinedEngine<Self::Engine>, String> {
        Ok(pipe)
    }
    /// Runs after the timed region, untimed.
    fn finish(
        &mut self,
        engine: Self::Engine,
        _sink: &Sink,
        _layers: &mut Layers,
    ) -> Result<(), String> {
        drop(engine);
        Ok(())
    }
}

/// `PipelinedEngine<TRIC+>`, inline or with one answer worker.
pub struct BareTric {
    pub threaded: bool,
}

impl<W: Wrap> Composition<W> for BareTric {
    type Engine = W::Out<TricEngine>;
    const TOP: Layer = Layer::Tric;
    fn pipeline(&self) -> PipelineConfig {
        let config = PipelineConfig::new(FRAME, Duration::from_millis(5));
        if self.threaded {
            config.threaded().with_answer_workers(1)
        } else {
            config
        }
    }
    fn build(&mut self, _input: &Input) -> Result<Self::Engine, String> {
        Ok(W::wrap(Layer::Tric, TricEngine::tric_plus()))
    }
}

type ShardedInner<W> = ShardedEngine<<W as Wrap>::Out<TricEngine>>;
type Sharded<W> = <W as Wrap>::Out<ShardedInner<W>>;
type PersistentInner<W> = PersistentEngine<Sharded<W>>;
type Durable<W> = <W as Wrap>::Out<PersistentInner<W>>;

/// The crash-suite composition:
/// `PipelinedEngine<PersistentEngine<ShardedEngine<TRIC+>>>` over real
/// files in a fresh directory.
pub struct DurableSharded {
    dir: PathBuf,
    frames_since_checkpoint: usize,
}

impl DurableSharded {
    pub fn new(dir: PathBuf) -> Self {
        DurableSharded {
            dir,
            frames_since_checkpoint: 0,
        }
    }

    fn config() -> PersistConfig {
        PersistConfig::default()
            .with_group_commit(GROUP_COMMIT)
            .with_wal_stripes(SHARDS)
    }

    fn open<W: Wrap>(&self) -> Result<(Durable<W>, gsm_persist::RecoveryReport), String> {
        let factory = DirFactory::new(self.dir.clone()).map_err(|e| e.to_string())?;
        let (engine, report) = PersistentEngine::open(Box::new(factory), Self::config(), || {
            W::wrap(
                Layer::Shard,
                ShardedEngine::new(SHARDS, || W::wrap(Layer::Tric, TricEngine::tric_plus())),
            )
        })
        .map_err(|e| e.to_string())?;
        Ok((W::wrap(Layer::Persist, engine), report))
    }

    /// `(name, size)` of the files in the directory whose name starts with
    /// `prefix` (`wal-`, `checkpoint-`).
    fn files(&self, prefix: &str) -> Vec<(String, u64)> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        entries
            .flatten()
            .filter_map(|e| Some((e.file_name().into_string().ok()?, e.metadata().ok()?.len())))
            .filter(|(name, _)| name.starts_with(prefix))
            .collect()
    }
}

impl<W: Wrap> Composition<W> for DurableSharded {
    type Engine = Durable<W>;
    const TOP: Layer = Layer::Persist;
    fn pipeline(&self) -> PipelineConfig {
        PipelineConfig::new(FRAME, Duration::from_millis(5))
    }
    fn build(&mut self, input: &Input) -> Result<Self::Engine, String> {
        let _ = std::fs::remove_dir_all(&self.dir);
        self.frames_since_checkpoint = 0;
        let (mut engine, _) = self.open::<W>()?;
        W::peel_mut::<PersistentInner<W>>(&mut engine)
            .note_symbols(&input.symbols)
            .map_err(|e| e.to_string())?;
        Ok(engine)
    }
    fn between_frames(
        &mut self,
        mut pipe: PipelinedEngine<Self::Engine>,
        sink: &mut Sink,
        layers: &mut Layers,
    ) -> Result<PipelinedEngine<Self::Engine>, String> {
        self.frames_since_checkpoint += 1;
        if self.frames_since_checkpoint < CHECKPOINT_EVERY_FRAMES {
            return Ok(pipe);
        }
        self.frames_since_checkpoint = 0;
        sink.absorb(pipe.drain(), Instant::now());
        let mut engine = pipe.into_inner();
        let start = Instant::now();
        W::peel_mut::<PersistentInner<W>>(&mut engine)
            .checkpoint()
            .map_err(|e| e.to_string())?;
        let end = Instant::now();
        trace::record(Layer::Persist, Op::Checkpoint, false, 0, start, end);
        layers.checkpoints += 1;
        layers.checkpoint_ns += (end - start).as_nanos() as u64;
        // Checkpoint names carry a zero-padded sequence: the newest sorts last.
        layers.checkpoint_bytes += self
            .files("checkpoint-")
            .into_iter()
            .max()
            .map_or(0, |f| f.1);
        Ok(PipelinedEngine::new(
            engine,
            <Self as Composition<W>>::pipeline(self),
        ))
    }
    fn finish(
        &mut self,
        mut engine: Self::Engine,
        sink: &Sink,
        layers: &mut Layers,
    ) -> Result<(), String> {
        {
            let persistent = W::peel_mut::<PersistentInner<W>>(&mut engine);
            persistent.try_sync().map_err(|e| e.to_string())?;
            let sharded = W::peel::<ShardedInner<W>>(persistent.inner());
            let routed = sharded.routed_per_shard();
            layers.routed.resize(routed.len(), 0);
            for (sum, r) in layers.routed.iter_mut().zip(routed) {
                *sum += r;
            }
            layers.spanning_queries += sharded.num_spanning_queries() as u64;
        }
        layers.wal_bytes += self.files("wal-").iter().map(|f| f.1).sum::<u64>();
        drop(engine);

        // Recovery: open the same directory again and time it; the
        // recovered per-query totals must be the ones the run reported.
        let start = Instant::now();
        let (recovered, report) = self.open::<W>()?;
        layers.recovery_s.push(start.elapsed().as_secs_f64());
        layers.recovery_replayed += report.replayed_records as u64;
        let durable: Totals = W::peel::<PersistentInner<W>>(&recovered)
            .totals()
            .iter()
            .map(|t| (t.embeddings, t.retracted))
            .collect();
        drop(recovered);
        let _ = std::fs::remove_dir_all(&self.dir);
        oracle::check_gross(&durable, &sink.totals)
            .map_err(|e| format!("recovered totals differ from the reported ones: {e}"))
    }
}

fn push_frame<E: ContinuousEngine>(
    pipe: &mut PipelinedEngine<E>,
    frame: &[Update],
    now: Instant,
    done: &mut Vec<CompletedBatch>,
) {
    for &u in frame {
        done.extend(pipe.push_at(u, now));
    }
}

/// One sub-run: set up a fresh composition on a freshly generated input,
/// warm it, stream frames for `slot`, then verify what it reported.
pub fn sub_run<W: Wrap, C: Composition<W>>(
    tenant: Tenant,
    comp: &mut C,
    layers: &mut Layers,
    verifier: &mut Verifier,
) -> SubRun {
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
    let frames: Vec<&[Update]> = input.updates.chunks(FRAME).collect();
    let mut warm = spec.warm_frames.min(frames.len());
    let mut sink = Sink::default();
    let mut done = Vec::new();

    let result = (|| -> Result<usize, String> {
        let mut pipe = PipelinedEngine::new(comp.build(&input)?, comp.pipeline());
        for q in &input.queries {
            pipe.queue_register(q);
        }
        sink.absorb(pipe.drain(), Instant::now());
        let warm_deadline = Instant::now() + WARM_CAP_SLOTS * slot;
        for (i, frame) in frames[..warm].iter().enumerate() {
            let now = Instant::now();
            if i >= DIGEST_FRAMES && now >= warm_deadline {
                warm = i; // a dear input: start measuring from a shorter warm-up
                break;
            }
            push_frame(&mut pipe, frame, now, &mut done);
            sink.absorb(done.drain(..), now);
            pipe = comp.between_frames(pipe, &mut sink, layers)?;
            if i + 1 == DIGEST_FRAMES.min(warm) {
                sink.absorb(pipe.drain(), Instant::now());
                out.digest_totals = sink.totals.clone();
            }
        }
        sink.absorb(pipe.drain(), Instant::now());
        sink.notify_us.clear();
        let (warm_batches, warm_notifications) = (sink.batches, sink.notifications);
        let warm_sum = sum(&sink.totals);
        out.setup_s = setup_start.elapsed().as_secs_f64();

        // The timed region: a closed loop, one frame at a time.
        let caller = trace::thread_id();
        let mut cumulative = sink.completed_updates;
        let mut next = warm;
        let start = Instant::now();
        let deadline = start + slot;
        let mut block_start = start;
        let mut block_updates = 0u64;
        while next < frames.len() {
            let t0 = Instant::now();
            if t0 >= deadline {
                break;
            }
            let timed_frame = next - warm;
            if W::TRACED && timed_frame.is_multiple_of(TRACE_BLOCK) {
                // Close the previous block, flip tracing for the next.
                let on = traced_block(index, timed_frame, TRACE_BLOCK);
                account_block(layers, !on, block_start, t0, block_updates);
                (block_start, block_updates) = (t0, 0);
                trace::set_enabled(on);
            }
            trace::set_seq(timed_frame as u32);
            let frame = frames[next];
            out.attempted += 1;
            push_frame(&mut pipe, frame, t0, &mut done);
            cumulative += frame.len() as u64;
            sink.frame_handed_over(cumulative, t0);
            pipe = comp.between_frames(pipe, &mut sink, layers)?;
            let t1 = Instant::now();
            trace::record(Layer::Frame, Op::Frame, false, frame.len(), t0, t1);
            out.push_us.push((t1 - t0).as_secs_f64() * 1e6);
            sink.absorb(done.drain(..), t1);
            out.updates += frame.len() as u64;
            block_updates += frame.len() as u64;
            next += 1;
        }
        let drained = pipe.drain();
        let end = Instant::now();
        sink.absorb(drained, end);
        out.elapsed_s = (end - start).as_secs_f64();
        if W::TRACED {
            let on = traced_block(index, (next - warm).saturating_sub(1), TRACE_BLOCK);
            account_block(layers, on, block_start, end, block_updates);
            trace::set_enabled(false);
            layers.absorb_spans(&trace::take_spans(), caller, C::TOP);
        }
        layers.batches += sink.batches - warm_batches;
        layers.notifications += sink.notifications - warm_notifications;
        layers.timed_updates += out.updates;
        let total = sum(&sink.totals);
        layers.embeddings += total.0 - warm_sum.0;
        layers.retracted += total.1 - warm_sum.1;
        layers.wal_updates += cumulative;

        let engine = pipe.into_inner();
        layers.heap_bytes += engine.heap_bytes() as u64;
        comp.finish(engine, &sink, layers)?;
        Ok(next)
    })();
    trace::set_enabled(false);

    let consumed = match result {
        Ok(next) => next,
        Err(e) => {
            out.failed += 1;
            out.error = Some(e);
            return out;
        }
    };
    out.notify_us = std::mem::take(&mut sink.notify_us);
    let processed = &input.updates[..(consumed * FRAME).min(input.updates.len())];
    layers.live_edges += oracle::survivors(processed).len() as u64;
    out.error = verifier
        .verify(&input.queries, processed, FRAME, &sink.totals)
        .err();
    out
}

fn account_block(layers: &mut Layers, on: bool, start: Instant, end: Instant, updates: u64) {
    let ns = (end - start).as_nanos() as u64;
    if on {
        layers.on_ns += ns;
        layers.on_updates += updates;
    } else {
        layers.off_ns += ns;
        layers.off_updates += updates;
    }
}
