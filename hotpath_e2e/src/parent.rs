//! The collecting modes: `--workload all` (every workload once, untraced
//! then traced) and `--repeat N` (N untraced runs per workload on N seeds,
//! with the spread of every end-to-end metric checked against its bound).
//! Both re-invoke this executable once per run, so every measurement still
//! happens in a process of its own.

use std::process::{Command, ExitCode};

use gsm_server::json::{self, Json};

use crate::input::SPECS;
use crate::{stats, Args, END_TO_END};

/// How far apart the seeds of a repeat set may land on
/// `embeddings_per_update` before the workload counts as degenerate: a
/// later claim has to survive a held-out seed, so every seed must be usable.
const WORK_RATIO_LIMIT: f64 = 4.0;

struct Child {
    ok: bool,
    result: Json,
    info: Json,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| {
        line.ok_or("child printed no result".to_string())
            .and_then(json::parse)
    };
    let result = parse(lines.next()).map_err(|e| {
        format!(
            "{workload} seed {seed}: {e}\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let info = parse(lines.next())?;
    if !output.status.success() {
        eprint!("{stdout}");
    }
    Ok(Child {
        ok: output.status.success(),
        result,
        info,
    })
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    match result.get("metrics")?.get(name)?.get("value")? {
        Json::Num(n) => Some(*n),
        _ => None,
    }
}

fn metric_names(result: &Json) -> Vec<(String, String)> {
    match result.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                (name.clone(), unit.to_string())
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// `bound` of every end-to-end metric in `BENCHMARK.json`, read from the
/// working directory (the repository root).
fn bounds() -> Vec<(String, f64)> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        eprintln!("hotpath_e2e: no BENCHMARK.json in the working directory; spreads are printed, not gated");
        return Vec::new();
    };
    let doc = json::parse(&text).unwrap_or(Json::Null);
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let bound = match m.get("bound")? {
                Json::Num(n) => *n,
                _ => return None,
            };
            Some((m.get("name")?.as_str()?.to_string(), bound))
        })
        .collect()
}

fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for spec in &SPECS {
        for trace in [false, true] {
            let child = match run_child(spec.name, args.seed, args.seconds, trace) {
                Ok(child) => child,
                Err(e) => {
                    eprintln!("hotpath_e2e: {e}");
                    return ExitCode::from(1);
                }
            };
            ok &= child.ok;
            if !trace {
                println!("machine {}", child.info);
            }
            println!(
                "== {} ({}) ==",
                spec.name,
                if trace {
                    "traced: per layer"
                } else {
                    "untraced: end to end"
                }
            );
            for (name, unit) in metric_names(&child.result) {
                let value = metric(&child.result, &name).unwrap_or(f64::NAN);
                println!("  {name:<38} {value:>16.4} {unit}");
                if !trace {
                    rows.push(format!(
                        "{{\"workload\":\"{}\",\"metric\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\"}}",
                        spec.name
                    ));
                }
            }
        }
    }
    // This benchmark is the baseline later claims are measured with; it
    // claims no gain itself.
    println!(
        "{{\"benchmark\":\"hotpath_e2e\",\"seed\":{},\"seconds\":{},\"correct\":{ok},\"end_to_end\":[{}],\"claim\":null}}",
        args.seed,
        args.seconds,
        rows.join(",")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn repeat(args: &Args, runs: usize) -> ExitCode {
    let bounds = bounds();
    let workloads: Vec<&str> = if args.workload == "all" {
        SPECS.iter().map(|s| s.name).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    println!(
        "{:<20} {:<14} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    for workload in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut work = Vec::new();
        for i in 0..runs {
            let child = match run_child(workload, args.seed + i as u64, args.seconds, false) {
                Ok(child) => child,
                Err(e) => {
                    eprintln!("hotpath_e2e: {e}");
                    return ExitCode::from(1);
                }
            };
            ok &= child.ok;
            for (slot, (name, _, _)) in values.iter_mut().zip(&END_TO_END) {
                slot.extend(metric(&child.result, name));
            }
            if let Some(Json::Num(n)) = child.info.get("embeddings_per_update") {
                work.push(*n);
            }
        }
        for (samples, (name, _, _)) in values.iter().zip(&END_TO_END) {
            let (q1, q3) = stats::quartiles(samples);
            let spread = stats::relative_spread(samples);
            let bound = bounds.iter().find(|(n, _)| n == name).map(|(_, b)| *b);
            // Set-up time is gated on its median only, not on its spread.
            let over = *name != "setup_s" && bound.is_some_and(|b| spread > b);
            ok &= !over;
            println!(
                "{workload:<20} {name:<14} {:>12.4} {q1:>12.4} {q3:>12.4} {:>7.1}% {:>5}{}",
                stats::median(samples),
                100.0 * spread,
                bound.map_or("-".into(), |b| format!("{:.0}%", 100.0 * b)),
                if over { "  SPREAD OVER BOUND" } else { "" }
            );
        }
        let (low, high) = work
            .iter()
            .fold((f64::INFINITY, 0f64), |(lo, hi), &w| (lo.min(w), hi.max(w)));
        if !work.is_empty() && high > WORK_RATIO_LIMIT * low {
            ok = false;
            println!(
                "{workload:<20} embeddings_per_update ranges {low:.3}..{high:.3} across seeds: more than {WORK_RATIO_LIMIT}x apart, degenerate"
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

pub fn run(args: &Args) -> ExitCode {
    match args.repeat {
        Some(runs) if runs >= 2 => repeat(args, runs),
        Some(_) => {
            eprintln!("--repeat needs at least 2 runs");
            ExitCode::from(2)
        }
        None => all(args),
    }
}
