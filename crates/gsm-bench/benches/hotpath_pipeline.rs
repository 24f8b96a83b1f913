//! Pipelined streaming throughput: TRIC and TRIC+ updates/sec through the
//! latency-budgeted [`PipelinedEngine`] front end.
//!
//! Same measurement discipline as `hotpath_batch`: one SNB-like workload is
//! generated once, and every timed iteration replays the same 400-update
//! measured suffix on a freshly built engine warmed with the 3600-update
//! prefix (`iter_batched`, setup untimed) — but the suffix is *streamed*
//! update by update through `PipelinedEngine::push` with a real-clock flush
//! deadline, so the timed region covers the batcher, the stage → answer
//! split of every flushed run and the final drain. A flush size of 64 makes the run directly comparable
//! with the `hotpath_batch` batch-64 numbers in BENCH_PR2.json: the
//! acceptance bar is that the pipeline sustains at least that throughput
//! while bounding how long any update can sit buffered (the 5 ms deadline).
//! Results land in BENCH_PR4.json.
//!
//! The `<engine>-threaded-w{N}` series run the same sweep with the answer
//! phase on the answer-stage worker pool (`PipelineConfig::threaded` +
//! `with_answer_workers`), N swept over {1, 2, 4}: each batch is staged on
//! the bench thread, detached — publishing Arc-shared read-mostly state
//! into the task — and answered on a pool worker while the next batch is
//! routed, with the reorder buffer re-sequencing completions. On a 1-core
//! box this records the **overhead floor** of the cross-thread handoff
//! (publication, channel hops, reordering, absorb), the same role
//! BENCH_PR3.json played for sharding; multi-core hosts read it as the
//! speedup baseline. Results land in BENCH_PR6.json (w1 is directly
//! comparable to BENCH_PR5.json's single-worker `-threaded` series).
//!
//! The `hotpath_pipeline_deletions` group streams a deletion-heavy SNB
//! variant (35% retractions of live edges) through the same front end,
//! inline and threaded. The `-staged` series names match BENCH_PR8.json,
//! which paired them against the since-deleted eager-barrier path.

mod common;

use criterion::measurement::WallTime;
use criterion::{
    black_box, criterion_group, criterion_main, BatchSize, BenchmarkGroup, BenchmarkId, Criterion,
    Throughput,
};
use gsm_bench::harness::EngineKind;
use gsm_core::engine::ContinuousEngine;
use gsm_core::pipeline::{PipelineConfig, PipelinedEngine};
use gsm_datagen::{Dataset, Workload, WorkloadConfig};
use std::time::Duration;

/// Updates the engine is warmed with before the timed replay.
const WARM_UPDATES: usize = 3_600;

/// Updates replayed inside the timed region.
const MEASURED_UPDATES: usize = 400;

/// Swept batcher flush sizes (64 matches the `hotpath_batch` sweep point).
const FLUSH_SIZES: [usize; 3] = [8, 64, 512];

/// The batcher's flush deadline: no update waits longer than this buffered.
const FLUSH_DEADLINE: Duration = Duration::from_millis(5);

fn warmed_engine(kind: EngineKind, workload: &Workload) -> Box<dyn ContinuousEngine + Send> {
    let mut engine = kind.build();
    for q in &workload.queries {
        engine.register_query(q).expect("valid query");
    }
    for u in &workload.stream.as_slice()[..WARM_UPDATES] {
        engine.apply_update(*u);
    }
    engine
}

/// One series point: the measured suffix of `workload` streamed through a
/// freshly warmed pipelined `kind` — inline when `answer_workers` is 0,
/// otherwise threaded with that many answer workers.
fn bench_series(
    group: &mut BenchmarkGroup<'_, WallTime>,
    series: String,
    kind: EngineKind,
    workload: &Workload,
    flush_size: usize,
    answer_workers: usize,
) {
    group.bench_with_input(
        BenchmarkId::new(series, flush_size),
        &flush_size,
        |b, &flush_size| {
            b.iter_batched(
                || {
                    let mut config = PipelineConfig::new(flush_size, FLUSH_DEADLINE);
                    if answer_workers > 0 {
                        config = config.threaded().with_answer_workers(answer_workers);
                    }
                    PipelinedEngine::new(warmed_engine(kind, workload), config)
                },
                |mut pipe| {
                    let suffix = &workload.stream.as_slice()[WARM_UPDATES..];
                    for &u in suffix {
                        black_box(pipe.push(u));
                    }
                    black_box(pipe.drain());
                    pipe
                },
                BatchSize::LargeInput,
            );
        },
    );
}

fn bench(c: &mut Criterion) {
    let total = WARM_UPDATES + MEASURED_UPDATES;
    let workload = Workload::generate(WorkloadConfig::new(Dataset::Snb, total, 60));

    let mut group = c.benchmark_group("hotpath_pipeline");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(400));
    group.throughput(Throughput::Elements(MEASURED_UPDATES as u64));

    for kind in [EngineKind::Tric, EngineKind::TricPlus] {
        // 0 = inline (no answer pool); N >= 1 = threaded with N answer workers.
        for answer_workers in [0usize, 1, 2, 4] {
            for flush_size in FLUSH_SIZES {
                let series = if answer_workers > 0 {
                    format!("{}-threaded-w{answer_workers}", kind.name())
                } else {
                    kind.name().to_string()
                };
                bench_series(
                    &mut group,
                    series,
                    kind,
                    &workload,
                    flush_size,
                    answer_workers,
                );
            }
        }
    }
    group.finish();
}

/// Deletion-heavy sweep: staged retraction tokens on a mixed stream, inline
/// and threaded. Flush 64 keeps the series comparable with the insert-only
/// sweep's middle point.
fn bench_deletions(c: &mut Criterion) {
    let total = WARM_UPDATES + MEASURED_UPDATES;
    let workload =
        Workload::generate(WorkloadConfig::new(Dataset::Snb, total, 60).with_delete_ratio(0.35));
    const FLUSH_SIZE: usize = 64;

    let mut group = c.benchmark_group("hotpath_pipeline_deletions");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(400));
    group.throughput(Throughput::Elements(MEASURED_UPDATES as u64));

    for kind in [EngineKind::Tric, EngineKind::TricPlus] {
        // 0 = inline (no answer pool); N >= 1 = threaded with N answer workers.
        for answer_workers in [0usize, 2, 4] {
            let series = if answer_workers > 0 {
                format!("{}-del-staged-w{answer_workers}", kind.name())
            } else {
                format!("{}-del-staged", kind.name())
            };
            bench_series(
                &mut group,
                series,
                kind,
                &workload,
                FLUSH_SIZE,
                answer_workers,
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench, bench_deletions);
criterion_main!(benches);
