//! A persistent pool of worker threads.
//!
//! Long-lived, channel-fed workers created once and reused for the owner's
//! whole life, so no batch pays thread spawn/teardown:
//!
//! * [`PipelinedEngine`](crate::pipeline::PipelinedEngine) runs its answer
//!   stage on a pool of `answer_workers` threads, feeding it the engine's
//!   detached reports ([`crate::engine::DetachedAnswer`]); completed
//!   reports are re-sequenced by the pipeline's reorder buffer
//!   ([`crate::pipeline::ReorderBuffer`]), so the pool itself needs no
//!   ordering guarantee beyond FIFO dequeue.
//! * `gsm-server` runs each connection's reader and writer as pool jobs.
//!
//! Jobs are plain `FnOnce() + Send` closures pulled from one shared injector
//! channel; jobs are *dequeued* in submission order, and a single-worker
//! pool therefore also *completes* them strictly in submission order. With
//! several workers, completion order is unconstrained — callers needing
//! order re-sequence results themselves ([`WorkerPool::scatter`] gathers by
//! index; the pipeline reorders by sequence number).
//!
//! Workers exit when the pool is dropped (the injector closes). Workers
//! **survive panicking jobs**: each job runs under `catch_unwind`, so a
//! panic inside one job neither kills the worker thread nor poisons the
//! shared injector lock for every later batch.
//! [`scatter`](WorkerPool::scatter) ships each job's `std::thread::Result`
//! back to the gather side and re-raises the *original* panic payload once,
//! after all sibling jobs have completed — a panicking job fails its own
//! scatter without wedging sibling jobs or subsequent scatters.
//!
//! # Core pinning (`GSM_PIN_CORES`)
//!
//! Setting `GSM_PIN_CORES=1` (or `true`/`on`/`yes`) makes every worker pin
//! itself to one CPU core (`worker index % available_parallelism`) at
//! startup — **best effort**: on Linux the pin is applied by shelling out
//! to `taskset(1)` against the worker's kernel tid (this crate forbids
//! `unsafe`, so no direct `sched_setaffinity` call); anywhere that fails —
//! other platforms, missing `taskset`, restricted environments — the
//! worker silently runs unpinned. The flag trades scheduler freedom for
//! cache locality on dedicated benchmark boxes; leave it off elsewhere.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of persistent worker threads fed from one shared
/// injector queue. See the [module docs](self).
#[derive(Debug)]
pub struct WorkerPool {
    injector: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool of `threads` persistent workers (clamped to ≥ 1),
    /// honouring the `GSM_PIN_CORES` best-effort pinning flag (see the
    /// [module docs](self)).
    pub fn new(threads: usize) -> Self {
        Self::with_pinning(threads, pin_cores_enabled())
    }

    /// Spawns a pool with pinning explicitly on or off — the testable core
    /// of [`new`](Self::new).
    fn with_pinning(threads: usize, pin: bool) -> Self {
        let threads = threads.max(1);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (injector, jobs) = channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        let workers = (0..threads)
            .map(|i| {
                let jobs = Arc::clone(&jobs);
                std::thread::Builder::new()
                    .name(format!("gsm-worker-{i}"))
                    .spawn(move || {
                        if pin {
                            pin_current_thread(i % cores);
                        }
                        loop {
                            // Hold the lock only while dequeuing, never while
                            // running a job, so workers drain the queue in
                            // parallel. A poisoned lock is recovered rather
                            // than propagated: the guarded value is a plain
                            // `Receiver` with no invariant a mid-panic
                            // unwinder could have broken, and bailing out
                            // here would cascade one job's failure into
                            // every later batch on unrelated shards.
                            let job = {
                                jobs.lock()
                                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                                    .recv()
                            };
                            match job {
                                // Contain the panic to the job: the worker
                                // stays alive for later batches. Jobs that
                                // must surface their payload (scatter) ship
                                // it through their result channel instead.
                                Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
                                Err(_) => break, // pool dropped, injector closed
                            }
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            injector: Some(injector),
            workers,
        }
    }

    /// The default worker count: the machine's available parallelism
    /// (`GSM_THREADS` overrides it, mirroring the harness `--threads` flag;
    /// 1 when neither is available).
    pub fn default_threads() -> usize {
        if let Ok(v) = std::env::var("GSM_THREADS") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one fire-and-forget job. Jobs are dequeued in submission
    /// order; with a single worker they also *complete* in submission order.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.injector
            .as_ref()
            .expect("pool alive")
            .send(Box::new(job))
            .expect("workers alive while pool is alive");
    }

    /// Runs every job on the pool and blocks until all complete, returning
    /// the results **in job order** (scatter/gather). Jobs may finish in any
    /// order on any worker; the gather re-indexes them.
    ///
    /// A panicking job does not wedge the pool: its payload is caught on the
    /// worker, shipped back with the gather, and re-raised here **once** —
    /// with the original payload, after every sibling job has completed —
    /// so the pool is immediately reusable for the next scatter.
    pub fn scatter<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let (tx, rx) = channel::<(usize, std::thread::Result<T>)>();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            self.execute(move || {
                // The gather side hangs up early only if it panicked; a
                // failed send is then irrelevant.
                let _ = tx.send((i, catch_unwind(AssertUnwindSafe(job))));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (i, value) = rx.recv().expect("worker delivered its result");
            slots[i] = Some(value);
        }
        // Gather everything first, then re-raise the first failure (in job
        // order, for determinism): sibling jobs of a panicking job run to
        // completion and their results are simply dropped.
        let mut results = Vec::with_capacity(n);
        let mut panicked = None;
        for slot in slots {
            match slot.expect("every job reported") {
                Ok(value) => results.push(value),
                Err(payload) => {
                    if panicked.is_none() {
                        panicked = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = panicked {
            resume_unwind(payload);
        }
        results
    }
}

/// Parses a `GSM_PIN_CORES` value: `1`, `true`, `on` and `yes` (any case,
/// surrounding whitespace ignored) enable pinning; anything else — including
/// an unset variable — leaves it off.
fn parse_pin_flag(value: Option<&str>) -> bool {
    matches!(
        value.map(|v| v.trim().to_ascii_lowercase()).as_deref(),
        Some("1" | "true" | "on" | "yes")
    )
}

/// True when the `GSM_PIN_CORES` environment variable requests best-effort
/// worker core pinning.
pub fn pin_cores_enabled() -> bool {
    parse_pin_flag(std::env::var("GSM_PIN_CORES").ok().as_deref())
}

/// Best-effort pin of the calling thread to `core`. Linux only: resolves
/// the thread's kernel tid from `/proc/thread-self/stat` (first field) and
/// applies the affinity mask via `taskset(1)` — the crate forbids `unsafe`,
/// so `sched_setaffinity` cannot be called directly. Every failure mode
/// (unreadable procfs, missing `taskset`, denied affinity change) is
/// silently ignored; the thread then simply runs unpinned.
#[cfg(target_os = "linux")]
fn pin_current_thread(core: usize) {
    let Ok(stat) = std::fs::read_to_string("/proc/thread-self/stat") else {
        return;
    };
    let Some(tid) = stat.split_whitespace().next() else {
        return;
    };
    let _ = std::process::Command::new("taskset")
        .args(["-pc", &core.to_string(), tid])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status();
}

/// No-op outside Linux: pinning is strictly best effort.
#[cfg(not(target_os = "linux"))]
fn pin_current_thread(_core: usize) {}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the injector wakes every worker out of `recv`.
        self.injector.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_returns_results_in_job_order() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let jobs: Vec<_> = (0..32u64)
            .map(|i| {
                move || {
                    // Stagger finish times so out-of-order completion is
                    // actually exercised.
                    if i % 3 == 0 {
                        std::thread::yield_now();
                    }
                    i * i
                }
            })
            .collect();
        let results = pool.scatter(jobs);
        assert_eq!(results, (0..32u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_executes_fifo() {
        let pool = WorkerPool::new(1);
        let counter = Arc::new(AtomicUsize::new(0));
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..16 {
            let counter = Arc::clone(&counter);
            let order = Arc::clone(&order);
            pool.execute(move || {
                order.lock().unwrap().push(i);
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Jobs owned by the single worker run strictly in submission order.
        let results: Vec<usize> = pool.scatter(vec![|| 7usize]);
        assert_eq!(results, vec![7]);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_can_move_state_through_and_back() {
        // The ownership ping-pong the sharded absorb phase relies on: move a
        // value into the job, mutate it there, get it back from scatter.
        let pool = WorkerPool::new(2);
        let shards: Vec<Vec<u32>> = vec![vec![1], vec![2, 2], vec![3, 3, 3]];
        let jobs: Vec<_> = shards
            .into_iter()
            .map(|mut shard| {
                move || {
                    shard.push(99);
                    shard
                }
            })
            .collect();
        let back = pool.scatter(jobs);
        assert_eq!(back[0], vec![1, 99]);
        assert_eq!(back[2], vec![3, 3, 3, 99]);
    }

    #[test]
    fn clamps_to_one_thread_and_drops_cleanly() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.scatter(vec![|| 1, || 2]), vec![1, 2]);
        drop(pool); // join must not hang
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(WorkerPool::default_threads() >= 1);
    }

    #[test]
    fn pin_flag_parses_truthy_values_only() {
        for on in ["1", "true", "on", "yes", " TRUE ", "Yes"] {
            assert!(parse_pin_flag(Some(on)), "{on:?} must enable pinning");
        }
        for off in ["0", "false", "off", "no", "", "2", "enabled"] {
            assert!(!parse_pin_flag(Some(off)), "{off:?} must not enable");
        }
        assert!(!parse_pin_flag(None), "unset must not enable");
    }

    #[test]
    fn scatter_survives_a_panicking_job_and_scatters_again() {
        // Regression: a panicking job used to kill its worker thread, so a
        // later scatter on the same pool would hang on a gather that never
        // completes (or die on a poisoned-injector expect) instead of the
        // original payload propagating once.
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("shard 1 exploded")),
            Box::new(|| 3),
        ];
        let payload = catch_unwind(AssertUnwindSafe(|| pool.scatter(jobs)))
            .expect_err("the job's panic must propagate to the scatter caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("original payload preserved");
        assert_eq!(message, "shard 1 exploded");

        // The same pool must still have live workers for unrelated batches.
        let results = pool.scatter((0..8u32).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(results, (0..8u32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn first_panic_in_job_order_wins_when_several_jobs_panic() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..4)
            .map(|i| Box::new(move || panic!("boom {i}")) as Box<dyn FnOnce() + Send>)
            .collect();
        let payload = catch_unwind(AssertUnwindSafe(|| pool.scatter(jobs)))
            .expect_err("panics must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("formatted payload preserved");
        assert_eq!(message, "boom 0", "job-order first panic is re-raised");
        assert_eq!(pool.scatter(vec![|| 41, || 42]), vec![41, 42]);
    }

    #[test]
    fn fire_and_forget_panic_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        pool.execute(|| panic!("detached job panic"));
        // The single worker must survive to run (and complete) this scatter.
        assert_eq!(pool.scatter(vec![|| 5usize]), vec![5]);
    }

    #[test]
    fn pinned_pool_still_scatters_in_order() {
        // Pinning is best effort — the observable contract (scatter results
        // in job order, clean drop) must hold whether or not any pin call
        // actually succeeded on this machine.
        let pool = WorkerPool::with_pinning(4, true);
        assert_eq!(pool.threads(), 4);
        let jobs: Vec<_> = (0..16u64).map(|i| move || i + 1).collect();
        assert_eq!(
            pool.scatter(jobs),
            (1..=16u64).collect::<Vec<_>>(),
            "pinned pool must preserve the scatter contract"
        );
    }
}
