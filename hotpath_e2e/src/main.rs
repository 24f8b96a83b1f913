//! `hotpath_e2e`: one end-to-end + per-layer benchmark for the served TRIC
//! stack. See README.md beside this package for the metric and workload
//! definitions; `BENCHMARK.json` at the repository root names the same
//! metrics and workloads.
//!
//! One invocation measures one workload in this process (so `rss_peak_mb`
//! is per workload):
//!
//! ```text
//! hotpath_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--workload all` and `--repeat N` re-invoke this executable once per
//! workload and collect the results.

mod extras;
mod inproc;
mod input;
mod layers;
mod machine;
mod oracle;
mod parent;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use inproc::{sub_run, BareTric, DurableSharded, Tenant};
use input::{Kind, Spec};
use layers::{Layers, PER_LAYER};
use trace::{Plain, Tracing, Wrap};

/// `(name, unit, better)` of every end-to-end metric, in output order.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("updates_per_s", "1/s", "higher"),
    ("push_p50_us", "us", "lower"),
    ("notify_p50_us", "us", "lower"),
    ("setup_s", "s", "lower"),
];

/// Default length of the timed region, in seconds (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;

/// Share of the timed region's length the reference checks may take: the
/// first sub-run is always checked in full, later ones while this budget
/// lasts (a from-scratch evaluation of a dear input costs as much as
/// streaming it).
const VERIFY_BUDGET_SHARE: f64 = 0.25;

/// Wall the set-ups, warm-ups and reference checks of one run add to its
/// timed region on the recorded machine; the watchdog allows three times
/// the sum.
const CALIBRATED_OVERHEAD_S: f64 = 12.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
    pub print_digest: bool,
    pub verbose: bool,
}

fn usage() -> String {
    let names: Vec<&str> = input::SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: hotpath_e2e --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1] [--repeat N] [--print-digest] [--verbose]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: oracle::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        print_digest: false,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = value("a name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--repeat" => {
                args.repeat = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--print-digest" => args.print_digest = true,
            "--verbose" => args.verbose = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if args.workload.is_empty() {
        return Err(usage());
    }
    Ok(args)
}

/// Where the benchmark keeps what it writes: WAL directories of the
/// durable workload and trace files. Inside the build directory, so inside
/// the checkout.
pub fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("hotpath_e2e")
}

/// What one workload's run produced.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Values in [`END_TO_END`] or [`PER_LAYER`] order.
    pub values: Vec<f64>,
    pub digest: oracle::Digest,
    /// `(metric, samples, tail percentile)` behind each latency metric.
    pub samples: Vec<(&'static str, usize, u32)>,
    pub errors: Vec<String>,
    /// Sub-runs whose totals were checked against the reference.
    pub verified: usize,
    pub layers: Layers,
}

fn run_workload<W: Wrap>(spec: &'static Spec, args: &Args) -> RunOutput {
    let mut verifier =
        oracle::Verifier::new(Duration::from_secs_f64(VERIFY_BUDGET_SHARE * args.seconds));
    let scratch = scratch_dir();
    let mut layers = Layers {
        sub_runs: spec.sub_runs as u64,
        ..Layers::default()
    };
    let mut subs = Vec::with_capacity(spec.sub_runs);
    for index in 0..spec.sub_runs {
        let started = std::time::Instant::now();
        let tenant = Tenant {
            spec,
            seed: args.seed,
            index,
            slot: Duration::from_secs_f64(args.seconds / spec.sub_runs as f64),
        };
        let (layers, verifier) = (&mut layers, &mut verifier);
        let sub = match spec.kind {
            Kind::Serve => serve::sub_run::<W>(tenant, layers, verifier),
            Kind::Threaded => {
                sub_run::<W, _>(tenant, &mut BareTric { threaded: true }, layers, verifier)
            }
            Kind::Inline => {
                sub_run::<W, _>(tenant, &mut BareTric { threaded: false }, layers, verifier)
            }
            Kind::Durable => {
                let dir = scratch.join(format!("wal-{}-{index}", std::process::id()));
                sub_run::<W, _>(tenant, &mut DurableSharded::new(dir), layers, verifier)
            }
        };
        if args.verbose {
            eprintln!(
                "sub-run {index:3}: set-up {:.3} s, {} updates in {:.3} s, whole {:.3} s, rss peak {:.0} MB{}",
                sub.setup_s,
                sub.updates,
                sub.elapsed_s,
                started.elapsed().as_secs_f64(),
                machine::rss_peak_mb(),
                sub.error.as_ref().map_or(String::new(), |e| format!(", ERROR {e}"))
            );
        }
        subs.push(sub);
    }
    if W::TRACED {
        extras::replay_parse(spec, args.seed, &mut layers);
        if spec.kind == Kind::Threaded {
            extras::registration_scaling(args.seed, &mut layers);
        }
    }

    let mut digest = oracle::DigestBuilder::new();
    let mut errors = Vec::new();
    for (i, sub) in subs.iter().enumerate() {
        digest.absorb(sub.input_hash, &sub.digest_totals);
        if let Some(e) = &sub.error {
            errors.push(format!("sub-run {i}: {e}"));
        }
    }
    let digest = digest.finish();
    if args.seed == oracle::DEFAULT_SEED && !args.print_digest {
        let recorded = oracle::RECORDED
            .iter()
            .find(|(name, _)| *name == spec.name)
            .map(|(_, d)| d)
            .expect("every workload has a recorded digest");
        if let Err(e) = oracle::compare_digest(&digest, recorded) {
            errors.push(e);
        }
    }

    let per_sub = |f: &dyn Fn(&inproc::SubRun) -> f64| -> Vec<f64> {
        subs.iter().filter(|s| s.error.is_none()).map(f).collect()
    };
    let p50_of = |samples: &[f64]| stats::summarize(&mut samples.to_vec()).0;
    let mut push_all: Vec<f64> = subs
        .iter()
        .flat_map(|s| s.push_us.iter().copied())
        .collect();
    let mut notify_all: Vec<f64> = subs
        .iter()
        .flat_map(|s| s.notify_us.iter().copied())
        .collect();
    let (_, push_tail, push_p, push_n) = stats::summarize(&mut push_all);
    let (_, notify_tail, notify_p, notify_n) = stats::summarize(&mut notify_all);
    let values = if W::TRACED {
        // The tails and the memory peak are diagnostics: across seeds they
        // follow the dearest sub-run, not the stack (README, "Demoted").
        let mut values = layers.metrics();
        values.extend([push_tail, notify_tail, machine::rss_peak_mb()]);
        values
    } else {
        vec![
            stats::midmean(&per_sub(&|s| s.updates as f64 / s.elapsed_s)),
            stats::midmean(&per_sub(&|s| p50_of(&s.push_us))),
            stats::midmean(&per_sub(&|s| p50_of(&s.notify_us))),
            stats::midmean(&per_sub(&|s| s.setup_s)),
        ]
    };
    RunOutput {
        correct: errors.is_empty(),
        attempted: subs.iter().map(|s| s.attempted).sum::<u64>().max(1),
        failed: subs.iter().map(|s| s.failed).sum(),
        values,
        digest,
        samples: vec![
            ("push_p99_us", push_n, push_p),
            ("notify_p99_us", notify_n, notify_p),
        ],
        errors,
        verified: verifier.verified,
        layers,
    }
}

fn json_string(s: &str) -> String {
    gsm_server::json::Json::Str(s.to_string()).to_string()
}

fn print_run(spec: &Spec, args: &Args, out: &RunOutput) {
    let names: &[(&str, &str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let fingerprint = machine::fingerprint();
    println!(
        "hotpath_e2e  workload {}  seed {}  seconds {}  trace {}  sub-runs {}",
        spec.name, args.seed, args.seconds, args.trace as u8, spec.sub_runs
    );
    println!("  why          {}", spec.why);
    for (key, value) in &fingerprint {
        println!("  {key:<12} {value}");
    }
    println!(
        "  sizes        {:?} base edges {} queries {} query size {} window {} warm frames {}",
        spec.dataset, spec.base_edges, spec.queries, spec.query_size, spec.window, spec.warm_frames
    );
    if machine::nproc() < 2 {
        println!("  WARNING      nproc < 2: threaded, sharded and served numbers measure the scheduler, not the stack");
    }
    for ((name, unit, _), value) in names.iter().zip(&out.values) {
        println!("  {name:<38} {value:>16.4} {unit}");
    }
    for (metric, n, p) in &out.samples {
        println!("  {metric:<38} tail = p{p} over {n} samples");
    }
    if args.trace {
        let l = &out.layers;
        let [pipeline, persist, shard, tric] = l.self_times().map(|ns| ns as f64 / 1e6);
        let (wall, unattributed) = (l.on_ns as f64 / 1e6, l.unattributed_ns() as f64 / 1e6);
        println!(
            "  traced wall  on {:.1} ms / {} updates, off {:.1} ms / {} updates",
            l.on_ns as f64 / 1e6,
            l.on_updates,
            l.off_ns as f64 / 1e6,
            l.off_updates
        );
        println!(
            "  self times   frame/pipeline {pipeline:.1} ms + persist {persist:.1} ms + shard {shard:.1} ms + tric {tric:.1} ms + unattributed {unattributed:.1} ms = {:.1} ms of {wall:.1} ms traced wall",
            pipeline + persist + shard + tric + unattributed
        );
    }
    println!(
        "  reference    {} of {} sub-runs checked against the from-scratch reference",
        out.verified, spec.sub_runs
    );
    println!(
        "  digest       embeddings_total {} retracted_total {} hash {:#018x}",
        out.digest.embeddings_total, out.digest.retracted_total, out.digest.hash
    );
    for e in &out.errors {
        println!("  ERROR        {e}");
    }
    if args.trace {
        let summary: Vec<String> = names
            .iter()
            .zip(&out.values)
            .map(|((name, _, _), value)| format!("{}:{value}", json_string(name)))
            .collect();
        let path = scratch_dir().join(format!("trace-{}.json", spec.name));
        trace::dump(
            &path,
            &out.layers.sample_spans,
            &format!("{{{}}}", summary.join(",")),
        );
        println!(
            "  trace file   {} ({} spans of the first sub-run)",
            path.display(),
            out.layers.sample_spans.len()
        );
    }

    // Second-to-last line: everything a collecting parent wants besides
    // the contract's result object.
    let fp: Vec<String> = fingerprint
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    let embeddings_per_update =
        out.layers.embeddings as f64 / out.layers.timed_updates.max(1) as f64;
    println!(
        "{{\"info\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},{},\"embeddings_per_update\":{},\"digest_hash\":{}}}}}",
        json_string(spec.name),
        args.seed,
        args.seconds,
        args.trace,
        fp.join(","),
        embeddings_per_update,
        json_string(&format!("{:#018x}", out.digest.hash)),
    );
    let metrics: Vec<String> = names
        .iter()
        .zip(&out.values)
        .map(|((name, unit, _), value)| {
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" || args.repeat.is_some() {
        return parent::run(&args);
    }
    let Some(spec) = input::spec(&args.workload) else {
        eprintln!("unknown workload {}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let wall_limit = Duration::from_secs_f64(3.0 * (args.seconds + CALIBRATED_OVERHEAD_S));
    let guard = machine::Guard::spawn(spec.name, wall_limit);
    let out = if args.trace {
        run_workload::<Tracing>(spec, &args)
    } else {
        run_workload::<Plain>(spec, &args)
    };
    drop(guard);
    if args.print_digest {
        println!(
            "(\"{}\", Digest {{ embeddings_total: {}, retracted_total: {}, hash: {:#018x} }}),",
            spec.name, out.digest.embeddings_total, out.digest.retracted_total, out.digest.hash
        );
    }
    print_run(spec, &args, &out);
    if out.correct && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsm_server::json::{self, Json};

    fn names(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    /// `BENCHMARK.json` and the code name the same workloads and metrics.
    #[test]
    fn benchmark_json_names_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let own = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap();
                (field("name"), field("why"))
            })
            .collect();
        let specs: Vec<(&str, &str)> = input::SPECS.iter().map(|s| (s.name, s.why)).collect();
        assert_eq!(workloads, specs);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_u64),
            Some(DEFAULT_SECONDS as u64)
        );
    }
}
