//! Crash-injection differential recovery suite — the headline contract of
//! the persistence layer: **a crashed-and-recovered engine finishes the
//! stream with per-query totals identical to the oracle's**: one bare,
//! uninterrupted graph-database baseline run over the same workload (the
//! independent reference of the differential suites).
//!
//! Two fault surfaces are exercised, swept across every engine × {1, 2}
//! shards × {inline, 2 threaded answer workers}:
//!
//! * **Subprocess SIGKILL** — the test re-executes its own binary as a
//!   worker (the env-gated [`crash_worker_entry`] test) that feeds the
//!   workload through a persistent (optionally sharded, optionally
//!   pipelined) engine over a real on-disk [`DirFactory`] namespace and
//!   `kill -9`s itself at a randomized update boundary, optionally tearing
//!   bytes off a WAL stripe first (the mid-write crash). The parent
//!   respawns the worker over the same directory until a run finishes
//!   cleanly, then compares its totals to the oracle.
//! * **In-process corruption** — crash-survivable [`MemFactory`]
//!   namespaces: the engine is dropped mid-stream ("crash"), the raw WAL
//!   bytes are torn or bit-flipped (or the writes went through a
//!   [`FaultPlan::TornAfter`] storage that lied about a tail), recovery
//!   reopens the namespace, the stream resumes from
//!   [`RecoveryReport::resume_updates`], and the totals must again match.
//!
//! Per engine this sweeps 8 SIGKILL recoveries (2 per scenario shape) plus
//! 16 randomized in-process corruption runs — 24 recovery runs each, every
//! one compared against the oracle.
//!
//! Comparison is on per-query `embeddings`/`retracted` totals: those are
//! batch-segmentation invariant (`apply_batch` ≡ merged sequential
//! reports), while `notifications` counts per-batch events and legitimately
//! depends on where the crash split the stream.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use graph_stream_matching::core::prelude::*;
use graph_stream_matching::datagen::{Dataset, Workload, WorkloadConfig};
use graph_stream_matching::graphdb::GraphDbEngine;
use graph_stream_matching::persist::{
    DirFactory, FaultPlan, MemFactory, PersistConfig, PersistentEngine, QueryTotals,
};
use graph_stream_matching::{all_engine_factories, open_persistent_engine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Updates fed per ack boundary (and per pipeline flush batch).
const BATCH: usize = 16;
/// Workload shape: small enough for debug-profile CI, mixed-sign stream.
const EDGES: usize = 240;
const QUERIES: usize = 10;
const DELETE_RATIO: f64 = 0.25;

type AnyPersistent = PersistentEngine<Box<dyn ContinuousEngine + Send>>;

fn workload(seed: u64) -> Workload {
    Workload::generate(
        WorkloadConfig::new(Dataset::Snb, EDGES, QUERIES)
            .with_seed(seed)
            .with_delete_ratio(DELETE_RATIO),
    )
}

/// The oracle: per-query `embeddings`/`retracted` totals of one bare
/// GraphDB run over the whole workload, in chunks of [`BATCH`]. They do not
/// depend on the engine, the shard count or the batch cuts (pinned by the
/// differential suites), so one run serves every composition of the
/// workload; `notifications`, which do depend on the cuts, stay 0 and are
/// never compared.
fn oracle_totals(wl: &Workload) -> Vec<QueryTotals> {
    let mut engine = GraphDbEngine::new();
    for q in &wl.queries {
        engine.register_query(q).expect("oracle register");
    }
    let mut totals = vec![QueryTotals::default(); wl.queries.len()];
    for batch in wl.stream.as_slice().chunks(BATCH) {
        for m in engine.apply_batch(batch).matches {
            let t = &mut totals[m.query.index()];
            t.embeddings += m.new_embeddings;
            t.retracted += m.retracted_embeddings;
        }
    }
    totals
}

fn assert_totals_match(got: &[QueryTotals], oracle: &[QueryTotals], context: &str) {
    assert_eq!(got.len(), oracle.len(), "{context}: query count");
    for (i, (g, o)) in got.iter().zip(oracle).enumerate() {
        assert_eq!(
            (g.embeddings, g.retracted),
            (o.embeddings, o.retracted),
            "{context}: query {i} totals diverged from the oracle"
        );
    }
}

/// Registers whatever the recovered engine is missing (registration records
/// live strictly before batch records in the WAL, so a lost registration
/// implies a zero resume position — re-registering is never "late").
fn try_finish_setup(engine: &mut AnyPersistent, wl: &Workload) -> Result<()> {
    engine.note_symbols(&wl.symbols)?;
    let have = engine.num_queries();
    for q in &wl.queries[have..] {
        engine.try_register_query(q)?;
    }
    Ok(())
}

fn finish_setup(engine: &mut AnyPersistent, wl: &Workload) {
    try_finish_setup(engine, wl).expect("setup on a healthy namespace");
}

// ---------------------------------------------------------------------------
// Subprocess SIGKILL sweep
// ---------------------------------------------------------------------------

mod worker {
    //! The re-executed worker process: env-configured, self-SIGKILLing.
    use super::*;
    use std::env;
    use std::process::Command;

    fn env_num(name: &str) -> Option<u64> {
        env::var(name).ok()?.parse().ok()
    }

    fn self_sigkill() -> ! {
        let _ = Command::new("kill")
            .args(["-9", &std::process::id().to_string()])
            .status();
        // SIGKILL delivery is asynchronous; never continue past this point.
        loop {
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Chops `bytes` off the tail of WAL stripe 0 — the torn mid-write tail
    /// the crash leaves behind.
    fn tear_wal_tail(dir: &str, bytes: u64) {
        let path = PathBuf::from(dir).join("wal-00.log");
        if let Ok(meta) = fs::metadata(&path) {
            let file = fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.set_len(meta.len().saturating_sub(bytes)).unwrap();
            file.sync_data().unwrap();
        }
    }

    pub fn run() {
        let dir = env::var("GSM_CRASH_DIR").expect("GSM_CRASH_DIR");
        let engine_idx = env_num("GSM_CRASH_ENGINE").unwrap() as usize;
        let shards = env_num("GSM_CRASH_SHARDS").unwrap() as usize;
        let answer_workers = env_num("GSM_CRASH_ANSWER").unwrap() as usize;
        let seed = env_num("GSM_CRASH_SEED").unwrap();
        let kill_after = env_num("GSM_CRASH_KILL_AFTER").unwrap() as usize;
        let tear = env_num("GSM_CRASH_TEAR").unwrap_or(0);
        let group_commit = env_num("GSM_CRASH_GROUP_COMMIT").unwrap_or(1) as usize;
        let ckpt_every = env_num("GSM_CRASH_CKPT_EVERY").unwrap_or(0);
        let out = env::var("GSM_CRASH_OUT").expect("GSM_CRASH_OUT");

        let wl = workload(seed);
        let config = PersistConfig::default()
            .with_group_commit(group_commit)
            .with_wal_stripes(shards)
            .with_checkpoint_every(ckpt_every);
        let (mut engine, report) = open_persistent_engine(
            engine_idx,
            shards,
            Box::new(DirFactory::new(PathBuf::from(&dir)).expect("dir factory")),
            config,
        )
        .expect("worker open");
        finish_setup(&mut engine, &wl);
        let resume = report.resume_updates as usize;
        let stream = &wl.stream.as_slice()[resume..];

        let mut fed = 0usize;
        // `kill_after` is an absolute stream position; if recovery already
        // resumed past it, die at the first boundary instead (never later
        // than asked). An empty remainder is the one case with nothing left
        // to kill — the worker then finishes legitimately.
        let mut die_at: Option<usize> =
            (kill_after < wl.stream.len()).then(|| kill_after.saturating_sub(resume).max(1));
        if answer_workers == 0 {
            for batch in stream.chunks(BATCH) {
                engine.try_apply_batch(batch).expect("apply");
                fed += batch.len();
                if die_at.is_some_and(|k| fed >= k) {
                    tear_wal_tail(&dir, tear);
                    self_sigkill();
                }
            }
        } else {
            let cfg = PipelineConfig::new(BATCH, Duration::from_secs(60))
                .threaded()
                .with_answer_workers(answer_workers);
            let mut pipe = PipelinedEngine::new(engine, cfg);
            for batch in stream.chunks(BATCH) {
                for &u in batch {
                    pipe.push(u);
                }
                fed += batch.len();
                if die_at.take_if(|k| fed >= *k).is_some() {
                    tear_wal_tail(&dir, tear);
                    self_sigkill();
                }
            }
            pipe.drain();
            engine = pipe.into_inner();
        }

        engine.try_sync().expect("final sync");
        engine.checkpoint().expect("final checkpoint");
        let mut lines = vec![format!("updates {}", engine.stats().updates_processed)];
        for (i, t) in engine.totals().iter().enumerate() {
            lines.push(format!("{i} {} {}", t.embeddings, t.retracted));
        }
        fs::write(&out, lines.join("\n")).expect("write totals");
    }
}

/// Env-gated worker entry point; a no-op under a normal test run.
#[test]
fn crash_worker_entry() {
    if std::env::var("GSM_CRASH_ROLE").as_deref() == Ok("worker") {
        worker::run();
    }
}

struct Scenario {
    shards: usize,
    answer_workers: usize,
    group_commit: usize,
    ckpt_every: u64,
}

/// The per-engine scenario shapes: engines × {1,2} shards × {inline, 2
/// answer workers}, varying group commit and checkpoint cadence alongside.
const SCENARIOS: [Scenario; 4] = [
    Scenario {
        shards: 1,
        answer_workers: 0,
        group_commit: 1,
        ckpt_every: 0,
    },
    Scenario {
        shards: 2,
        answer_workers: 0,
        group_commit: 4,
        ckpt_every: 5,
    },
    Scenario {
        shards: 1,
        answer_workers: 2,
        group_commit: 2,
        ckpt_every: 4,
    },
    Scenario {
        shards: 2,
        answer_workers: 2,
        group_commit: 1,
        ckpt_every: 0,
    },
];

fn spawn_worker(
    dir: &std::path::Path,
    out: &std::path::Path,
    engine_idx: usize,
    s: &Scenario,
    seed: u64,
    kill_after: usize,
    tear: u64,
) -> std::process::ExitStatus {
    let exe = std::env::current_exe().expect("current_exe");
    std::process::Command::new(exe)
        .args([
            "--exact",
            "crash_worker_entry",
            "--test-threads=1",
            "--nocapture",
        ])
        .env("GSM_CRASH_ROLE", "worker")
        .env("GSM_CRASH_DIR", dir.as_os_str())
        .env("GSM_CRASH_OUT", out.as_os_str())
        .env("GSM_CRASH_ENGINE", engine_idx.to_string())
        .env("GSM_CRASH_SHARDS", s.shards.to_string())
        .env("GSM_CRASH_ANSWER", s.answer_workers.to_string())
        .env("GSM_CRASH_SEED", seed.to_string())
        .env("GSM_CRASH_KILL_AFTER", kill_after.to_string())
        .env("GSM_CRASH_TEAR", tear.to_string())
        .env("GSM_CRASH_GROUP_COMMIT", s.group_commit.to_string())
        .env("GSM_CRASH_CKPT_EVERY", s.ckpt_every.to_string())
        .status()
        .expect("spawn worker")
}

fn read_totals(out: &std::path::Path, expected_updates: u64) -> Vec<QueryTotals> {
    let text = fs::read_to_string(out).expect("worker totals file");
    let mut totals = Vec::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["updates", n] => assert_eq!(
                n.parse::<u64>().unwrap(),
                expected_updates,
                "worker finished at the wrong stream position"
            ),
            [i, emb, ret] => {
                assert_eq!(i.parse::<usize>().unwrap(), totals.len());
                totals.push(QueryTotals {
                    embeddings: emb.parse().unwrap(),
                    retracted: ret.parse().unwrap(),
                    notifications: 0,
                });
            }
            other => panic!("malformed totals line {other:?}"),
        }
    }
    totals
}

/// SIGKILLs the worker at `kills.len()` randomized boundaries (respawning
/// over the same directory each time), lets the final respawn finish, and
/// compares its totals to the oracle.
fn sigkill_sweep(engine_idx: usize) {
    let engine_name = all_engine_factories()[engine_idx]().name();
    let base = std::env::temp_dir().join(format!(
        "gsm-crash-{}-{engine_idx}-{}",
        std::process::id(),
        engine_name
    ));
    let mut rng = StdRng::seed_from_u64(0xC4A5 + engine_idx as u64);
    let seed = 900 + engine_idx as u64;
    let wl = workload(seed);
    let total = wl.stream.len();
    let oracle = oracle_totals(&wl);
    for (scenario_idx, scenario) in SCENARIOS.iter().enumerate() {
        let dir = base.join(format!("s{scenario_idx}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let out = dir.join("totals.txt");

        // Two randomized SIGKILLs, the second possibly mid-write (torn
        // tail), then a clean finishing run.
        for kill_round in 0..2 {
            let kill_after = rng.gen_range(1..total.max(2));
            let tear = if kill_round == 1 {
                rng.gen_range(1..48)
            } else {
                0
            };
            let status = spawn_worker(&dir, &out, engine_idx, scenario, seed, kill_after, tear);
            if status.success() {
                // The previous crash landed inside the final batch, so the
                // whole stream was already durable and the respawn had
                // nothing left to kill itself over — it finished instead.
                break;
            }
        }
        let status = spawn_worker(&dir, &out, engine_idx, scenario, seed, usize::MAX, 0);
        assert!(
            status.success(),
            "{engine_name} s{scenario_idx}: finishing run failed"
        );
        let totals = read_totals(&out, total as u64);
        assert_totals_match(
            &totals,
            &oracle,
            &format!("{engine_name} s{scenario_idx} (SIGKILL)"),
        );
        let _ = fs::remove_dir_all(&dir);
    }
    let _ = fs::remove_dir_all(&base);
}

// ---------------------------------------------------------------------------
// In-process corruption sweep
// ---------------------------------------------------------------------------

/// One crash+corrupt+recover+finish cycle over an in-memory namespace.
/// Returns the recovered engine's totals after finishing the stream.
fn corruption_run(engine_idx: usize, wl: &Workload, rng: &mut StdRng) -> Vec<QueryTotals> {
    let shards = if rng.gen_bool(0.5) { 1 } else { 2 };
    let group_commit = rng.gen_range(1..4);
    let config = PersistConfig::default()
        .with_group_commit(group_commit)
        .with_wal_stripes(shards);
    let stream = wl.stream.as_slice();
    let crash_at = rng.gen_range(1..stream.len());
    let mode = rng.gen_range(0..3);

    let mut disk = MemFactory::new();
    // Mode 2: the writes themselves go through a lying torn storage — the
    // stripe silently loses everything past a byte offset while reporting
    // success, until a group-commit fsync notices.
    if mode == 2 {
        let stripe = format!("wal-{:02}", rng.gen_range(0..shards));
        disk.set_fault(
            &format!("{stripe}.log"),
            FaultPlan::TornAfter {
                at: rng.gen_range(1_000..20_000),
            },
        );
    }
    if let Ok((mut engine, _)) =
        open_persistent_engine(engine_idx, shards, Box::new(disk.handle()), config)
    {
        // Under the torn-storage fault ANY logged operation — symbol
        // interning, registration, a batch — may surface the typed sync
        // error; wherever it lands IS the crash, so errors just stop the
        // run.
        let _ = (|| -> Result<()> {
            try_finish_setup(&mut engine, wl)?;
            let mut fed = 0;
            let mut do_checkpoint = rng.gen_bool(0.4);
            for batch in stream.chunks(BATCH) {
                engine.try_apply_batch(batch)?;
                fed += batch.len();
                if do_checkpoint && fed >= crash_at / 2 {
                    do_checkpoint = false;
                    let _ = engine.checkpoint();
                }
                if fed >= crash_at {
                    break;
                }
            }
            Ok(())
        })();
        // Engine dropped here: the crash.
    }
    disk.clear_faults();
    match mode {
        0 => {
            // Torn tail: chop up to ~1.5 records off a random stripe.
            let stripe = format!("wal-{:02}.log", rng.gen_range(0..shards));
            if let Some(raw) = disk.raw(&stripe) {
                let mut bytes = raw.lock().unwrap();
                let cut = rng.gen_range(1usize..64).min(bytes.len());
                let keep = bytes.len() - cut;
                bytes.truncate(keep);
            }
        }
        1 => {
            // Bit flip at a random byte of a random stripe: CRC must stop
            // the reader at that record.
            let stripe = format!("wal-{:02}.log", rng.gen_range(0..shards));
            if let Some(raw) = disk.raw(&stripe) {
                let mut bytes = raw.lock().unwrap();
                if !bytes.is_empty() {
                    let pos = rng.gen_range(0..bytes.len());
                    bytes[pos] ^= 1u8 << rng.gen_range(0u32..8);
                }
            }
        }
        _ => {} // mode 2 already corrupted through the fault plan
    }

    let (mut engine, report) =
        open_persistent_engine(engine_idx, shards, Box::new(disk.handle()), config)
            .expect("recovery open");
    finish_setup(&mut engine, wl);
    let resume = report.resume_updates as usize;
    assert!(
        resume <= stream.len(),
        "recovered past the end of the stream"
    );
    for batch in stream[resume..].chunks(BATCH) {
        engine.try_apply_batch(batch).expect("post-recovery batch");
    }
    assert_eq!(engine.stats().updates_processed, stream.len() as u64);
    engine.totals().to_vec()
}

fn corruption_sweep(engine_idx: usize) {
    let engine_name = all_engine_factories()[engine_idx]().name();
    let seed = 7_000 + engine_idx as u64;
    let wl = workload(seed);
    let oracle = oracle_totals(&wl);
    let mut rng = StdRng::seed_from_u64(seed);
    // 16 randomized corruption recoveries here + 8 respawn recoveries in the
    // SIGKILL sweep = 24 recovery runs per engine.
    for run in 0..16 {
        let totals = corruption_run(engine_idx, &wl, &mut rng);
        assert_totals_match(
            &totals,
            &oracle,
            &format!("{engine_name} corruption run {run}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Auto-checkpoints behind the pipelined executor
// ---------------------------------------------------------------------------

/// `PipelinedEngine<PersistentEngine<ShardedEngine<TRIC+>>>`, inline and
/// threaded: batches staged through the pipeline count towards
/// `checkpoint_every` like applied ones, and a reopen from the resulting
/// checkpoint reproduces the uninterrupted totals.
#[test]
fn pipelined_durable_sharded_engine_auto_checkpoints() {
    const TRIC_PLUS: usize = 1;
    const SHARDS: usize = 2;
    let wl = workload(31);
    let prefix = &wl.stream.as_slice()[..10 * BATCH];
    let (mut oracle, _) = open_persistent_engine(
        TRIC_PLUS,
        SHARDS,
        Box::new(MemFactory::new()),
        PersistConfig::default(),
    )
    .expect("oracle open");
    finish_setup(&mut oracle, &wl);
    for batch in prefix.chunks(BATCH) {
        oracle.try_apply_batch(batch).expect("oracle batch");
    }

    let inline = PipelineConfig::new(BATCH, Duration::from_secs(60));
    for cfg in [inline, inline.threaded().with_answer_workers(2)] {
        let disk = MemFactory::new();
        let config = PersistConfig::default()
            .with_wal_stripes(SHARDS)
            .with_checkpoint_every(2);
        let (mut engine, _) =
            open_persistent_engine(TRIC_PLUS, SHARDS, Box::new(disk.handle()), config)
                .expect("open");
        finish_setup(&mut engine, &wl);
        let mut pipe = PipelinedEngine::new(engine, cfg);
        for &u in prefix {
            pipe.push(u);
        }
        pipe.drain();
        let engine = pipe.into_inner();
        let context = format!("threaded {}", cfg.answer_thread);
        assert!(
            engine.last_checkpoint_seq().is_some(),
            "{context}: no checkpoint"
        );
        assert_totals_match(engine.totals(), oracle.totals(), &context);
        drop(engine);

        let (recovered, report) =
            open_persistent_engine(TRIC_PLUS, SHARDS, Box::new(disk.handle()), config)
                .expect("reopen");
        assert!(report.checkpoint_seq.is_some(), "{context}: {report:?}");
        assert_totals_match(recovered.totals(), oracle.totals(), &context);
    }
}

// ---------------------------------------------------------------------------
// Per-engine entry points (split so the suite parallelizes across the test
// harness' threads and failures name the engine directly).
// ---------------------------------------------------------------------------

macro_rules! crash_tests {
    ($($name:ident / $torn:ident => $idx:expr),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                sigkill_sweep($idx);
            }

            #[test]
            fn $torn() {
                corruption_sweep($idx);
            }
        )+
    };
}

crash_tests! {
    sigkill_recovery_tric / torn_write_recovery_tric => 0,
    sigkill_recovery_tric_plus / torn_write_recovery_tric_plus => 1,
    sigkill_recovery_inv / torn_write_recovery_inv => 2,
    sigkill_recovery_inv_plus / torn_write_recovery_inv_plus => 3,
    sigkill_recovery_inc / torn_write_recovery_inc => 4,
    sigkill_recovery_inc_plus / torn_write_recovery_inc_plus => 5,
    sigkill_recovery_graphdb / torn_write_recovery_graphdb => 6,
}
