//! Persistence overhead: WAL-on vs WAL-off batch throughput.
//!
//! Same measurement discipline as `hotpath_batch`: one SNB-like workload is
//! generated once, and every timed iteration replays the same 400-update
//! measured suffix in `apply_batch` chunks of 64 on a freshly built engine
//! warmed with the 3600-update prefix (`iter_batched`, setup untimed). The
//! series differ only in the persistence wrapper around the engine:
//!
//! * `<engine>-off` — the bare engine, no persistence. This is the
//!   configuration the `hotpath_update` regression gate keeps guarding; the
//!   other series price the durability tax against it.
//! * `<engine>-wal-mem` — [`PersistentEngine`] over a [`MemFactory`]: every
//!   batch is encoded, CRC-stamped and framed into an in-memory WAL, but no
//!   file I/O happens. Isolates the codec + framing overhead.
//! * `<engine>-wal-gc1` — [`PersistentEngine`] over a [`DirFactory`] in a
//!   fresh temp directory, `group_commit = 1`: every batch record is
//!   appended to the WAL file **and fsynced** before `apply_batch` returns.
//!   The full durability guarantee, dominated by fsync latency.
//! * `<engine>-wal-gc8` — same, `group_commit = 8`: fsync once 8 updates
//!   are unsynced. Group commit counts updates, so a 64-update batch
//!   record reaches the bound alone and this series syncs every batch,
//!   like `gc1`; a smaller batch would leave an acked-but-unsynced tail
//!   that a crash can lose (recovery reports the resume point).
//!
//! Results land in BENCH_PR9.json. No checkpoints fire inside the timed
//! region (`checkpoint_every = 0`): checkpoint cost is a background/cadence
//! concern, while this group isolates the per-batch hot-path tax.

mod common;

use criterion::{
    black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput,
};
use gsm_bench::harness::EngineKind;
use gsm_core::engine::ContinuousEngine;
use gsm_datagen::{Dataset, Workload, WorkloadConfig};
use gsm_persist::{DirFactory, MemFactory, PersistConfig, PersistentEngine, StorageFactory};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Updates the engine is warmed with before the timed replay.
const WARM_UPDATES: usize = 3_600;

/// Updates replayed inside the timed region.
const MEASURED_UPDATES: usize = 400;

/// Updates per `apply_batch` call (matches the `hotpath_batch` sweep point).
const BATCH: usize = 64;

/// The persistence mode of one benchmark series.
#[derive(Clone, Copy)]
enum Mode {
    Off,
    WalMem,
    WalDir { group_commit: usize },
}

impl Mode {
    fn series(&self, kind: EngineKind) -> String {
        match self {
            Mode::Off => format!("{}-off", kind.name()),
            Mode::WalMem => format!("{}-wal-mem", kind.name()),
            Mode::WalDir { group_commit } => format!("{}-wal-gc{group_commit}", kind.name()),
        }
    }
}

fn bench_base() -> PathBuf {
    std::env::temp_dir().join(format!("gsm-hotpath-persist-{}", std::process::id()))
}

/// Builds a fresh (optionally persistent) engine and warms it with the
/// query set and the stream prefix. Untimed.
fn warmed_engine(
    kind: EngineKind,
    mode: Mode,
    workload: &Workload,
) -> Box<dyn ContinuousEngine + Send> {
    static NAMESPACE: AtomicU64 = AtomicU64::new(0);
    let mut engine: Box<dyn ContinuousEngine + Send> = match mode {
        Mode::Off => kind.build(),
        Mode::WalMem | Mode::WalDir { .. } => {
            let (factory, group_commit): (Box<dyn StorageFactory>, usize) = match mode {
                Mode::WalMem => (Box::new(MemFactory::new()), 1),
                Mode::WalDir { group_commit } => {
                    let dir = bench_base().join(format!(
                        "ns{:05}",
                        NAMESPACE.fetch_add(1, Ordering::Relaxed)
                    ));
                    (
                        Box::new(DirFactory::new(dir).expect("create bench WAL dir")),
                        group_commit,
                    )
                }
                Mode::Off => unreachable!(),
            };
            let config = PersistConfig::default().with_group_commit(group_commit);
            let (engine, _report) = PersistentEngine::open(factory, config, || kind.build())
                .expect("open persistent engine");
            Box::new(engine)
        }
    };
    for q in &workload.queries {
        engine.register_query(q).expect("valid query");
    }
    for batch in workload.stream.as_slice()[..WARM_UPDATES].chunks(BATCH) {
        engine.apply_batch(batch);
    }
    engine
}

fn bench(c: &mut Criterion) {
    let total = WARM_UPDATES + MEASURED_UPDATES;
    let workload = Workload::generate(WorkloadConfig::new(Dataset::Snb, total, 60));

    let mut group = c.benchmark_group("hotpath_persist");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(400));
    group.throughput(Throughput::Elements(MEASURED_UPDATES as u64));

    let modes = [
        Mode::Off,
        Mode::WalMem,
        Mode::WalDir { group_commit: 1 },
        Mode::WalDir { group_commit: 8 },
    ];
    for kind in [EngineKind::Tric, EngineKind::TricPlus] {
        for mode in modes {
            group.bench_with_input(
                BenchmarkId::new(mode.series(kind), BATCH),
                &mode,
                |b, &mode| {
                    b.iter_batched(
                        || warmed_engine(kind, mode, &workload),
                        |mut engine| {
                            let suffix = &workload.stream.as_slice()[WARM_UPDATES..];
                            for batch in suffix.chunks(BATCH) {
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
    let _ = std::fs::remove_dir_all(bench_base());
}

criterion_group!(benches, bench);
criterion_main!(benches);
