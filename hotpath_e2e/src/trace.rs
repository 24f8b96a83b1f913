//! Tracing from outside the program: a delegating [`Traced`] wrapper the
//! benchmark puts between every layer of a composition, a process-wide
//! in-memory span store, and the interval arithmetic that turns spans into
//! self times.
//!
//! The untraced run uses [`Plain`], which wraps nothing — the measured
//! program is then exactly the shipped composition. The traced run uses
//! [`Tracing`], so every `ContinuousEngine` call that crosses a layer
//! boundary leaves a span. Spans inside the layers are a later change.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use gsm_core::{
    ContinuousEngine, DetachedAnswer, EngineStats, MatchReport, QueryId, QueryPattern, Result,
    StagedBatch, Update,
};

/// Which boundary a span was recorded at, outermost first. A span's parent
/// is the enclosing span of the layer above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The load generator handing one 64-edge frame to the composition.
    Frame,
    /// `PersistentEngine`.
    Persist,
    /// `ShardedEngine`.
    Shard,
    /// `TricEngine` (views, relations and tries seen through its boundary).
    Tric,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Frame => "frame",
            Layer::Persist => "persist",
            Layer::Shard => "shard",
            Layer::Tric => "tric",
        }
    }
}

/// Which call the span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The load generator's frame.
    Frame,
    /// `stage_batch`.
    Stage,
    /// `answer_staged`, or a detached answer task running on a worker.
    Answer,
    /// `detach_staged` / `absorb_answered` (caller-side halves of a
    /// threaded answer).
    Handoff,
    /// `apply_batch` / `apply_update`.
    Apply,
    /// `register_query` / `unregister_query`.
    Lifecycle,
    /// `PersistentEngine::checkpoint`, recorded by the load generator
    /// around its explicit call.
    Checkpoint,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Frame => "frame",
            Op::Stage => "stage",
            Op::Answer => "answer",
            Op::Handoff => "handoff",
            Op::Apply => "apply",
            Op::Lifecycle => "lifecycle",
            Op::Checkpoint => "checkpoint",
        }
    }
}

/// One recorded span. Times are nanoseconds since the process trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub op: Op,
    /// Sign of the batch the call carried.
    pub retract: bool,
    /// Updates the call carried.
    pub updates: u32,
    /// Recording thread (small dense ids, see [`thread_id`]).
    pub thread: u32,
    /// Frame sequence number current when the span was recorded.
    pub seq: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU32 = AtomicU32::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD_ID: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Dense id of the calling thread.
pub fn thread_id() -> u32 {
    THREAD_ID.with(|id| *id)
}

/// Nanoseconds from the trace epoch to `t`.
pub fn ns_of(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Turns span recording on or off. A statistic-only flag: it publishes no
/// other data, so `Relaxed` is enough.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the frame sequence number later spans are stamped with.
pub fn set_seq(seq: u32) {
    SEQ.store(seq, Ordering::Relaxed);
}

/// Records one span from explicit instants (the load generator's frames).
pub fn record(layer: Layer, op: Op, retract: bool, updates: usize, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let span = Span {
        layer,
        op,
        retract,
        updates: updates as u32,
        thread: thread_id(),
        seq: SEQ.load(Ordering::Relaxed),
        start_ns: ns_of(start),
        end_ns: ns_of(end),
    };
    SPANS.lock().expect("a tracing thread panicked").push(span);
}

/// Empties the span store.
pub fn take_spans() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("a tracing thread panicked"))
}

fn timed<T>(layer: Layer, op: Op, retract: bool, updates: usize, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record(layer, op, retract, updates, start, Instant::now());
    out
}

/// The delegating wrapper: every `ContinuousEngine` call is forwarded to
/// the wrapped engine and, while tracing is on, leaves a span tagged with
/// this wrapper's layer.
pub struct Traced<E> {
    inner: E,
    layer: Layer,
    /// `(sign, len)` of staged batches not yet answered or detached; the
    /// staging contract answers tokens FIFO, so a queue recovers what the
    /// opaque token carried.
    staged: VecDeque<(bool, usize)>,
}

impl<E> Traced<E> {
    pub fn new(layer: Layer, inner: E) -> Self {
        Traced {
            inner,
            layer,
            staged: VecDeque::new(),
        }
    }
}

fn sign_of(updates: &[Update]) -> bool {
    updates.first().is_some_and(Update::is_retraction)
}

impl<E: ContinuousEngine> ContinuousEngine for Traced<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn register_query(&mut self, query: &QueryPattern) -> Result<QueryId> {
        let inner = &mut self.inner;
        timed(self.layer, Op::Lifecycle, false, 0, || {
            inner.register_query(query)
        })
    }
    fn unregister_query(&mut self, query: QueryId) -> Result<()> {
        let inner = &mut self.inner;
        timed(self.layer, Op::Lifecycle, false, 0, || {
            inner.unregister_query(query)
        })
    }
    fn next_query_id(&self) -> QueryId {
        self.inner.next_query_id()
    }
    fn is_registered(&self, query: QueryId) -> bool {
        self.inner.is_registered(query)
    }
    fn apply_update(&mut self, update: Update) -> MatchReport {
        let inner = &mut self.inner;
        timed(self.layer, Op::Apply, update.is_retraction(), 1, || {
            inner.apply_update(update)
        })
    }
    fn apply_batch(&mut self, updates: &[Update]) -> MatchReport {
        let inner = &mut self.inner;
        timed(
            self.layer,
            Op::Apply,
            sign_of(updates),
            updates.len(),
            || inner.apply_batch(updates),
        )
    }
    fn stage_batch(&mut self, updates: &[Update]) -> StagedBatch {
        let (retract, len) = (sign_of(updates), updates.len());
        self.staged.push_back((retract, len));
        let inner = &mut self.inner;
        timed(self.layer, Op::Stage, retract, len, || {
            inner.stage_batch(updates)
        })
    }
    fn answer_staged(&mut self, staged: StagedBatch) -> MatchReport {
        let (retract, len) = self.staged.pop_front().unwrap_or((false, 0));
        let inner = &mut self.inner;
        timed(self.layer, Op::Answer, retract, len, || {
            inner.answer_staged(staged)
        })
    }
    fn detach_staged(&mut self, staged: StagedBatch) -> DetachedAnswer {
        let (retract, len) = self.staged.pop_front().unwrap_or((false, 0));
        let (layer, inner) = (self.layer, &mut self.inner);
        let task = timed(layer, Op::Handoff, retract, len, || {
            inner.detach_staged(staged)
        });
        if task.is_ready() {
            return task;
        }
        // The answer pass proper runs wherever the pipeline runs the task.
        DetachedAnswer::task(move || timed(layer, Op::Answer, retract, len, || task.run()))
    }
    fn absorb_answered(&mut self, report: &MatchReport) {
        let inner = &mut self.inner;
        timed(self.layer, Op::Handoff, false, 0, || {
            inner.absorb_answered(report)
        })
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

/// How a run wraps each layer: not at all ([`Plain`]) or in [`Traced`]
/// ([`Tracing`]). The workloads are written once, generic over this.
pub trait Wrap: 'static {
    /// True for the traced run.
    const TRACED: bool;
    type Out<E: ContinuousEngine + Send + 'static>: ContinuousEngine + Send + 'static;
    fn wrap<E: ContinuousEngine + Send + 'static>(layer: Layer, engine: E) -> Self::Out<E>;
    fn peel<E: ContinuousEngine + Send + 'static>(wrapped: &Self::Out<E>) -> &E;
    fn peel_mut<E: ContinuousEngine + Send + 'static>(wrapped: &mut Self::Out<E>) -> &mut E;
}

/// The untraced run: layers are composed directly.
pub struct Plain;

impl Wrap for Plain {
    const TRACED: bool = false;
    type Out<E: ContinuousEngine + Send + 'static> = E;
    fn wrap<E: ContinuousEngine + Send + 'static>(_: Layer, engine: E) -> E {
        engine
    }
    fn peel<E: ContinuousEngine + Send + 'static>(wrapped: &E) -> &E {
        wrapped
    }
    fn peel_mut<E: ContinuousEngine + Send + 'static>(wrapped: &mut E) -> &mut E {
        wrapped
    }
}

/// The traced run: a [`Traced`] wrapper at every layer boundary.
pub struct Tracing;

impl Wrap for Tracing {
    const TRACED: bool = true;
    type Out<E: ContinuousEngine + Send + 'static> = Traced<E>;
    fn wrap<E: ContinuousEngine + Send + 'static>(layer: Layer, engine: E) -> Traced<E> {
        Traced::new(layer, engine)
    }
    fn peel<E: ContinuousEngine + Send + 'static>(wrapped: &Traced<E>) -> &E {
        &wrapped.inner
    }
    fn peel_mut<E: ContinuousEngine + Send + 'static>(wrapped: &mut Traced<E>) -> &mut E {
        &mut wrapped.inner
    }
}

/// A set of disjoint, sorted `[start, end)` nanosecond intervals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Intervals(Vec<(u64, u64)>);

impl Intervals {
    /// Sorts and merges arbitrary (possibly overlapping) intervals.
    pub fn union_of(mut raw: Vec<(u64, u64)>) -> Intervals {
        raw.retain(|(s, e)| e > s);
        raw.sort_unstable();
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(raw.len());
        for (s, e) in raw {
            match out.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => out.push((s, e)),
            }
        }
        Intervals(out)
    }

    pub fn of_spans<'a>(spans: impl Iterator<Item = &'a Span>) -> Intervals {
        Intervals::union_of(spans.map(|s| (s.start_ns, s.end_ns)).collect())
    }

    /// Total covered length.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|(s, e)| e - s).sum()
    }

    /// The part of `self` that `other` also covers.
    pub fn intersect(&self, other: &Intervals) -> Intervals {
        let (a, b) = (&self.0, &other.0);
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < a.len() && j < b.len() {
            let start = a[i].0.max(b[j].0);
            let end = a[i].1.min(b[j].1);
            if end > start {
                out.push((start, end));
            }
            if a[i].1 <= b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        Intervals(out)
    }

    /// The part of `self` that `other` does not cover: a layer's self time
    /// is its spans minus what its child spans cover.
    pub fn subtract(&self, other: &Intervals) -> Intervals {
        let mut out = Vec::new();
        let mut j = 0;
        for &(s, e) in &self.0 {
            let mut cursor = s;
            while j < other.0.len() && other.0[j].1 <= cursor {
                j += 1;
            }
            let mut k = j;
            while k < other.0.len() && other.0[k].0 < e {
                if other.0[k].0 > cursor {
                    out.push((cursor, other.0[k].0));
                }
                cursor = cursor.max(other.0[k].1);
                k += 1;
            }
            if cursor < e {
                out.push((cursor, e));
            }
        }
        Intervals(out)
    }
}

/// Writes `spans` plus the per-layer totals as one JSON file.
pub fn dump(path: &std::path::Path, spans: &[Span], summary: &str) {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(spans.len() * 160 + summary.len() + 64);
    let _ = write!(out, "{{\"summary\":{summary},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // The parent of a span is the enclosing span one layer up; with
        // `seq` and `layer` a reader recovers it, so it is named, not
        // indexed.
        let parent = match s.layer {
            Layer::Frame => "none",
            Layer::Persist => "frame",
            Layer::Shard => "persist",
            Layer::Tric => "shard|persist|frame",
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}.{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":\"{}\",\"seq\":{},\"thread\":{},\"updates\":{},\"retract\":{}}}",
            s.layer.name(),
            s.op.name(),
            s.start_ns,
            s.end_ns,
            parent,
            s.seq,
            s.thread,
            s.updates,
            s.retract
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("hotpath_e2e: could not write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(raw: &[(u64, u64)]) -> Intervals {
        Intervals::union_of(raw.to_vec())
    }

    #[test]
    fn union_merges_overlaps_and_drops_empty() {
        let u = iv(&[(5, 9), (0, 3), (2, 4), (9, 9), (8, 12)]);
        assert_eq!(u, Intervals(vec![(0, 4), (5, 12)]));
        assert_eq!(u.total(), 11);
    }

    #[test]
    fn self_time_is_span_minus_what_children_cover() {
        // A 100 ns parent with two children, one of them overlapping the
        // parent's end and a parallel one overlapping the first child.
        let parent = iv(&[(100, 200)]);
        let children = iv(&[(110, 130), (120, 150), (190, 260)]);
        let own = parent.subtract(&children);
        assert_eq!(own, Intervals(vec![(100, 110), (150, 190)]));
        assert_eq!(own.total(), 50);
        // Self + covered = span.
        assert_eq!(
            own.total() + parent.intersect(&children).total(),
            parent.total()
        );
        // No children: all of it is self time.
        assert_eq!(parent.subtract(&Intervals::default()).total(), 100);
    }

    #[test]
    fn subtract_handles_several_parents_sharing_a_child_list() {
        let parents = iv(&[(0, 10), (20, 30), (40, 50)]);
        let children = iv(&[(5, 25), (45, 46)]);
        assert_eq!(
            parents.subtract(&children),
            Intervals(vec![(0, 5), (25, 30), (40, 45), (46, 50)])
        );
        assert_eq!(
            parents.intersect(&children),
            Intervals(vec![(5, 10), (20, 25), (45, 46)])
        );
    }
}
