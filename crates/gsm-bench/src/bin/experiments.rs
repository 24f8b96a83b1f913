//! Regenerates the paper's figures and tables as markdown + CSV.
//!
//! ```text
//! cargo run -p gsm-bench --release --bin experiments -- [--figure <id>|all]
//!     [--scale <factor>] [--budget <seconds>] [--batch <n>] [--shards <n>]
//!     [--pipeline] [--flush-ms <ms>] [--threads <n>] [--out <dir>]
//! ```
//!
//! * `--figure` — one of fig12a…fig14c / tab13c, or `all` (default).
//! * `--scale`  — multiplier on the default laptop-scale sizes (default 1.0).
//! * `--budget` — per-run time budget in seconds (default 15).
//! * `--batch`  — answering batch size: updates per `apply_batch` call
//!   (default 1 = the paper's per-update answering, 0 = whole stream at once).
//! * `--shards` — worker shards the engines are partitioned into by root
//!   generic edge (default 1 = unsharded).
//! * `--pipeline` — drive the stream through the pipelined streaming
//!   executor: `--batch` becomes the latency-budgeted batcher's flush size
//!   and each flushed batch goes through the engine's stage/answer split
//!   (overlapped across threads with `--threads 2`).
//! * `--flush-ms` — the pipelined batcher's flush deadline in milliseconds
//!   (default 5; implies `--pipeline`).
//! * `--threads` — threads for the pipelined executor (default 1; `>= 2`
//!   runs each batch's covering-path join on a dedicated answer thread
//!   while the next batch is routed; implies `--pipeline`).
//! * `--answer-threads` — answer-stage workers for the threaded pipeline
//!   (default: `GSM_ANSWER_THREADS` or 1). Ignored unless `--threads >= 2`.
//! * `--persist-dir` — wrap every run's engine in the durable persistence
//!   layer (`gsm-persist`): WAL stripes (one per shard) and checkpoint
//!   files under the given directory, fsynced per group commit.
//! * `--checkpoint-every` — auto-checkpoint cadence in batches for the
//!   persistence layer (default 0 = WAL only; implies nothing without
//!   `--persist-dir`).
//! * `--group-commit` — logged updates per fsync for the persistence
//!   layer (default 1 = every record; a batch record counts its updates).
//! * `--out`    — output directory for `<id>.md` / `<id>.csv` (default `results`).

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gsm_bench::figures::{all_figure_ids, run_figure, ExperimentScale};
use gsm_bench::harness::RunLimits;

struct Args {
    figures: Vec<String>,
    scale: f64,
    budget_secs: u64,
    batch_size: usize,
    shards: usize,
    pipeline: bool,
    flush_ms: u64,
    threads: usize,
    answer_threads: usize,
    persist_dir: Option<String>,
    checkpoint_every: u64,
    group_commit: usize,
    out_dir: PathBuf,
}

/// The default answer-worker count: `GSM_ANSWER_THREADS` when set and
/// parseable, 1 otherwise (mirroring the `--answer-threads` flag).
fn default_answer_threads() -> usize {
    std::env::var("GSM_ANSWER_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or(1)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        figures: vec!["all".to_string()],
        scale: 1.0,
        budget_secs: 15,
        batch_size: 1,
        shards: 1,
        pipeline: false,
        flush_ms: 5,
        threads: 1,
        answer_threads: default_answer_threads(),
        persist_dir: None,
        checkpoint_every: 0,
        group_commit: 1,
        out_dir: PathBuf::from("results"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let value = argv.get(i + 1).cloned();
        match flag {
            "--figure" | "-f" => {
                let v = value.ok_or("--figure needs a value")?;
                args.figures = v.split(',').map(|s| s.trim().to_string()).collect();
                i += 2;
            }
            "--scale" | "-s" => {
                args.scale = value
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --scale: {e}"))?;
                i += 2;
            }
            "--budget" | "-b" => {
                args.budget_secs = value
                    .ok_or("--budget needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --budget: {e}"))?;
                i += 2;
            }
            "--batch" => {
                args.batch_size = value
                    .ok_or("--batch needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --batch: {e}"))?;
                i += 2;
            }
            "--shards" => {
                args.shards = value
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --shards: {e}"))?;
                i += 2;
            }
            "--pipeline" => {
                args.pipeline = true;
                i += 1;
            }
            "--flush-ms" => {
                args.flush_ms = value
                    .ok_or("--flush-ms needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --flush-ms: {e}"))?;
                args.pipeline = true;
                i += 2;
            }
            "--threads" => {
                args.threads = value
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --threads: {e}"))?;
                if args.threads >= 2 {
                    args.pipeline = true;
                }
                i += 2;
            }
            "--answer-threads" => {
                args.answer_threads = value
                    .ok_or("--answer-threads needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --answer-threads: {e}"))?;
                i += 2;
            }
            "--persist-dir" => {
                args.persist_dir = Some(value.ok_or("--persist-dir needs a value")?);
                i += 2;
            }
            "--checkpoint-every" => {
                args.checkpoint_every = value
                    .ok_or("--checkpoint-every needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --checkpoint-every: {e}"))?;
                i += 2;
            }
            "--group-commit" => {
                args.group_commit = value
                    .ok_or("--group-commit needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --group-commit: {e}"))?;
                i += 2;
            }
            "--out" | "-o" => {
                args.out_dir = PathBuf::from(value.ok_or("--out needs a value")?);
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--figure <id,...>|all] [--scale <f>] [--budget <secs>] [--batch <n>] [--shards <n>] [--pipeline] [--flush-ms <ms>] [--threads <n>] [--answer-threads <n>] [--persist-dir <dir>] [--checkpoint-every <n>] [--group-commit <updates>] [--out <dir>]\n\nknown figures: {}",
                    all_figure_ids().join(", ")
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let mut scale = ExperimentScale::scaled(args.scale);
    scale.limits = RunLimits::seconds(args.budget_secs)
        .with_batch_size(args.batch_size)
        .with_shards(args.shards)
        .with_threads(args.threads)
        .with_answer_threads(args.answer_threads);
    if args.pipeline {
        scale.limits = scale
            .limits
            .with_pipeline(Duration::from_millis(args.flush_ms));
    }
    if let Some(dir) = &args.persist_dir {
        // RunLimits is Copy, so the one CLI path is leaked into a 'static
        // string (once per process).
        let dir: &'static str = Box::leak(dir.clone().into_boxed_str());
        scale.limits = scale
            .limits
            .with_persistence(dir, args.checkpoint_every, args.group_commit);
    }

    let requested: Vec<String> = if args.figures.iter().any(|f| f == "all") {
        all_figure_ids().iter().map(|s| s.to_string()).collect()
    } else {
        args.figures.clone()
    };

    fs::create_dir_all(&args.out_dir).expect("create output directory");
    let mut summary = String::new();
    summary.push_str(&format!(
        "# Reproduced evaluation (scale {:.2}, budget {}s per run, batch size {}, {} shard(s){})\n\n",
        args.scale,
        args.budget_secs,
        args.batch_size,
        args.shards,
        if args.pipeline {
            format!(
                ", pipelined with a {} ms flush deadline on {} thread(s), {} answer worker(s)",
                args.flush_ms,
                args.threads.max(1),
                if args.threads >= 2 {
                    args.answer_threads.max(1)
                } else {
                    1
                }
            )
        } else {
            String::new()
        }
    ));

    for id in &requested {
        let start = Instant::now();
        eprintln!("running {id} …");
        let Some(result) = run_figure(id, &scale) else {
            eprintln!("  unknown figure id {id}, skipping");
            continue;
        };
        let elapsed = start.elapsed();
        eprintln!("  {id} finished in {:.1}s", elapsed.as_secs_f64());

        let md = result.to_markdown();
        let csv = result.to_csv();
        fs::write(args.out_dir.join(format!("{id}.md")), &md).expect("write markdown");
        fs::write(args.out_dir.join(format!("{id}.csv")), &csv).expect("write csv");
        summary.push_str(&md);
        println!("{md}");
    }

    fs::write(args.out_dir.join("summary.md"), &summary).expect("write summary");
    eprintln!("wrote results to {}", args.out_dir.display());
}
