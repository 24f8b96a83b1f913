//! Regenerates the paper's figures and tables as markdown + CSV.
//!
//! ```text
//! cargo run -p gsm-bench --release --bin experiments -- [--figure <id,...>|all]
//!     [--scale <factor>] [--budget <seconds>] [--out <dir>]
//! ```
//!
//! * `--figure` — comma-separated ids from fig12a…fig14c / tab13c, or `all`
//!   (default). An unknown id is an error (exit 2).
//! * `--scale`  — multiplier on the default laptop-scale sizes (default 1.0;
//!   must be finite and > 0).
//! * `--budget` — per-run answering time budget in seconds (default 15).
//! * `--out`    — output directory for `<id>.md` / `<id>.csv` (default `results`).
//!
//! Every run follows the paper's protocol: register the query set, then
//! answer the stream one update at a time until the budget runs out or the
//! engine's heap passes the fixed memory budget
//! (`gsm_bench::harness::MEMORY_BUDGET_BYTES`).

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gsm_bench::figures::{all_figure_ids, run_figure, ExperimentScale};

#[derive(Debug)]
struct Args {
    figures: Vec<String>,
    scale: f64,
    budget_secs: u64,
    out_dir: PathBuf,
}

fn usage() -> String {
    format!(
        "usage: experiments [--figure <id,...>|all] [--scale <f>] [--budget <secs>] [--out <dir>]\n\nknown figures: all, {}",
        all_figure_ids().join(", ")
    )
}

/// Parses the command line (without the program name). Unknown figure ids
/// and a scale that is not finite and positive are rejected here, before
/// any run starts.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        figures: vec!["all".to_string()],
        scale: 1.0,
        budget_secs: 15,
        out_dir: PathBuf::from("results"),
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--figure" | "-f" => {
                args.figures = value()?.split(',').map(|s| s.trim().to_string()).collect();
            }
            "--scale" | "-s" => {
                args.scale = value()?
                    .parse()
                    .map_err(|e| format!("invalid --scale: {e}"))?;
            }
            "--budget" | "-b" => {
                args.budget_secs = value()?
                    .parse()
                    .map_err(|e| format!("invalid --budget: {e}"))?;
            }
            "--out" | "-o" => args.out_dir = PathBuf::from(value()?),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let known = all_figure_ids();
    if let Some(bad) = args
        .figures
        .iter()
        .find(|f| *f != "all" && !known.contains(&f.as_str()))
    {
        return Err(format!("unknown figure id `{bad}`"));
    }
    if !(args.scale.is_finite() && args.scale > 0.0) {
        return Err(format!(
            "invalid --scale: {} (must be finite and > 0)",
            args.scale
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            std::process::exit(2);
        }
    };

    let scale = ExperimentScale {
        time_budget: Duration::from_secs(args.budget_secs),
        ..ExperimentScale::scaled(args.scale)
    };

    let requested: Vec<&str> = if args.figures.iter().any(|f| f == "all") {
        all_figure_ids()
    } else {
        args.figures.iter().map(String::as_str).collect()
    };

    fs::create_dir_all(&args.out_dir).expect("create output directory");
    let mut summary = format!(
        "# Reproduced evaluation (scale {:.2}, budget {}s per run)\n\n",
        args.scale, args.budget_secs
    );

    for id in &requested {
        let start = Instant::now();
        eprintln!("running {id} …");
        let result = run_figure(id, &scale).expect("figure ids are validated by parse_args");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_run_every_figure_at_unit_scale() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.figures, ["all"]);
        assert_eq!(args.scale, 1.0);
        assert_eq!(args.budget_secs, 15);
        assert_eq!(args.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn the_four_flags_parse() {
        let args = parse(&[
            "--figure",
            "fig12a, tab13c",
            "--scale",
            "0.05",
            "--budget",
            "2",
            "--out",
            "target/x",
        ])
        .unwrap();
        assert_eq!(args.figures, ["fig12a", "tab13c"]);
        assert_eq!(args.scale, 0.05);
        assert_eq!(args.budget_secs, 2);
        assert_eq!(args.out_dir, PathBuf::from("target/x"));
    }

    #[test]
    fn unknown_figure_ids_are_rejected() {
        for figures in ["fig12z", "fig12a,bogus", "fig12a,", ""] {
            let err = parse(&["--figure", figures]).unwrap_err();
            assert!(err.contains("unknown figure id"), "{figures:?}: {err}");
        }
        assert!(parse(&["--figure", "all"]).is_ok());
        assert!(parse(&["--figure", &all_figure_ids().join(",")]).is_ok());
    }

    #[test]
    fn scale_must_be_finite_and_positive() {
        for scale in ["inf", "-inf", "nan", "-3", "0"] {
            let err = parse(&["--scale", scale]).unwrap_err();
            assert!(err.contains("--scale"), "{scale}: {err}");
        }
    }

    #[test]
    fn removed_and_incomplete_flags_are_errors() {
        for flag in ["--batch", "--shards", "--pipeline", "--threads"] {
            assert!(parse(&[flag, "2"]).unwrap_err().contains("unknown flag"));
        }
        assert!(parse(&["--budget"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--budget", "-1"]).is_err());
    }
}
