//! Sharded answering throughput: TRIC and TRIC+ updates/sec as a function
//! of the worker shard count.
//!
//! Same measurement discipline as `hotpath_batch`: one SNB-like workload is
//! generated once, and every timed iteration replays the same 400-update
//! measured suffix on a freshly built engine warmed with the 3600-update
//! prefix (`iter_batched`, setup untimed), driving `apply_batch` in chunks
//! of 64 (the PR 2 sweet spot, where routed batches are real work slices).
//! Shard count 1 prices the wrapper itself — routing, id translation and
//! the history store with nothing to partition — against the
//! `hotpath_batch` numbers of the bare engine; the larger counts measure
//! what root-generic-edge partitioning costs (or buys) on this machine —
//! on the 1-core CI box the parallel absorption is pure overhead, so these
//! numbers are the *floor* of the design, recorded in BENCH_PR3.json.

mod common;

use criterion::{
    black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput,
};
use gsm_bench::harness::EngineKind;
use gsm_core::engine::ContinuousEngine;
use gsm_datagen::{Dataset, Workload, WorkloadConfig};
use std::time::Duration;

/// Updates the engine is warmed with before the timed replay.
const WARM_UPDATES: usize = 3_600;

/// Updates replayed inside the timed region.
const MEASURED_UPDATES: usize = 400;

/// Answering batch size for the sharded replay.
const BATCH_SIZE: usize = 64;

/// Swept worker shard counts.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn warmed_engine(
    kind: EngineKind,
    shards: usize,
    workload: &Workload,
) -> Box<dyn ContinuousEngine + Send> {
    let mut engine = kind.build_sharded(shards);
    for q in &workload.queries {
        engine.register_query(q).expect("valid query");
    }
    for batch in workload.stream.as_slice()[..WARM_UPDATES].chunks(BATCH_SIZE) {
        engine.apply_batch(batch);
    }
    engine
}

fn bench(c: &mut Criterion) {
    let total = WARM_UPDATES + MEASURED_UPDATES;
    let workload = Workload::generate(WorkloadConfig::new(Dataset::Snb, total, 60));

    let mut group = c.benchmark_group("hotpath_shards");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(400));
    group.throughput(Throughput::Elements(MEASURED_UPDATES as u64));

    for kind in [EngineKind::Tric, EngineKind::TricPlus] {
        for shards in SHARD_COUNTS {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), shards),
                &shards,
                |b, &shards| {
                    b.iter_batched(
                        || warmed_engine(kind, shards, &workload),
                        |mut engine| {
                            let suffix = &workload.stream.as_slice()[WARM_UPDATES..];
                            for batch in suffix.chunks(BATCH_SIZE) {
                                black_box(engine.apply_batch(batch));
                            }
                            engine
                        },
                        BatchSize::LargeInput,
                    );
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
