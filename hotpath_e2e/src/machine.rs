//! The machine a result was measured on, the process's own memory, and the
//! watchdog that stops a degenerate workload.

use std::process::Command;
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resident-set ceiling: one seed can turn a 1 s stream into a multi-GB one.
const RSS_LIMIT_KB: u64 = 4 * 1024 * 1024;

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(key, value)` pairs identifying where and on what a result was measured.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("rustc", command_line("rustc", &["-V"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
    ]
}

/// A watchdog thread: aborts the process, with a clear message and a
/// non-zero code, when the run outlives `wall_limit` or its resident set
/// passes 4 GB. Dropping the guard stops and joins the thread.
pub struct Guard {
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Guard {
    pub fn spawn(workload: &'static str, wall_limit: Duration) -> Guard {
        let (stop, stopped) = channel::<()>();
        let started = Instant::now();
        let thread = std::thread::spawn(move || loop {
            match stopped.recv_timeout(Duration::from_millis(100)) {
                Err(RecvTimeoutError::Timeout) => {}
                _ => return,
            }
            let rss_kb = proc_status_kb("VmRSS:").unwrap_or(0);
            let reason = if started.elapsed() > wall_limit {
                format!(
                    "ran past {:.0} s, three times its calibrated time",
                    wall_limit.as_secs_f64()
                )
            } else if rss_kb > RSS_LIMIT_KB {
                format!("resident set reached {} MB (limit 4096 MB)", rss_kb / 1024)
            } else {
                continue;
            };
            eprintln!("hotpath_e2e: workload {workload} aborted as degenerate: {reason}");
            std::process::exit(3);
        });
        Guard {
            stop: Some(stop),
            thread: Some(thread),
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
