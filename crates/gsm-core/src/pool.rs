//! A persistent pool of worker threads.
//!
//! Long-lived, channel-fed workers created once and reused for the owner's
//! whole life, so no job pays thread spawn/teardown:
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
//! order re-sequence results themselves, as the pipeline does by sequence
//! number. A job that produces a result sends it back over a channel of
//! its own.
//!
//! Workers exit when the pool is dropped (the injector closes), and the
//! drop joins them. Workers **survive panicking jobs**: each job runs under
//! `catch_unwind`, so a panic inside one job neither kills the worker
//! thread nor poisons the shared injector lock for every later job. A job
//! whose caller must see the panic catches it itself and ships the payload
//! back, as the pipeline's answer stage does.

use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Spawns a pool of `threads` persistent workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        let (injector, jobs) = channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        let workers = (0..threads.max(1))
            .map(|i| {
                let jobs = Arc::clone(&jobs);
                std::thread::Builder::new()
                    .name(format!("gsm-worker-{i}"))
                    .spawn(move || loop {
                        // Hold the lock only while dequeuing, never while
                        // running a job, so workers drain the queue in
                        // parallel. A poisoned lock is recovered rather than
                        // propagated: the guarded value is a plain `Receiver`
                        // with no invariant a mid-panic unwinder could have
                        // broken, and bailing out here would cascade one
                        // job's failure into every later job.
                        let job = {
                            jobs.lock()
                                .unwrap_or_else(|poisoned| poisoned.into_inner())
                                .recv()
                        };
                        match job {
                            // Contain the panic to the job: the worker stays
                            // alive for later jobs.
                            Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
                            Err(_) => break, // pool dropped, injector closed
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
}

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
    use std::sync::mpsc::Receiver;

    /// Receives `n` values, failing instead of hanging if a worker died.
    fn recv_n<T>(rx: &Receiver<T>, n: usize) -> Vec<T> {
        (0..n)
            .map(|_| {
                rx.recv_timeout(std::time::Duration::from_secs(10))
                    .expect("a live worker ran the job")
            })
            .collect()
    }

    #[test]
    fn every_job_runs_on_a_multi_worker_pool() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.threads(), 4);
        let (tx, rx) = channel();
        for i in 0..32u64 {
            let tx = tx.clone();
            pool.execute(move || {
                // Stagger finish times so out-of-order completion is
                // actually exercised.
                if i % 3 == 0 {
                    std::thread::yield_now();
                }
                tx.send((i, i * i)).unwrap();
            });
        }
        let mut results = recv_n(&rx, 32);
        results.sort_unstable();
        assert_eq!(results, (0..32u64).map(|i| (i, i * i)).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_executes_fifo() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        for i in 0..16 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i).unwrap());
        }
        // Jobs owned by the single worker run strictly in submission order.
        assert_eq!(recv_n(&rx, 16), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_can_move_state_through_and_back() {
        // The ownership ping-pong a connection job relies on: move a value
        // into the job, mutate it there, get it back over a channel.
        let pool = WorkerPool::new(2);
        let (tx, rx) = channel();
        for (i, mut shard) in [vec![1], vec![2, 2], vec![3, 3, 3]].into_iter().enumerate() {
            let tx = tx.clone();
            pool.execute(move || {
                shard.push(99);
                tx.send((i, shard)).unwrap();
            });
        }
        let mut back = recv_n(&rx, 3);
        back.sort_unstable();
        assert_eq!(back[0].1, vec![1, 99]);
        assert_eq!(back[2].1, vec![3, 3, 3, 99]);
    }

    #[test]
    fn clamps_to_one_thread_and_drops_cleanly() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = channel();
        for i in 1..=2 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i).unwrap());
        }
        assert_eq!(recv_n(&rx, 2), vec![1, 2]);
        drop(pool); // join must not hang
    }

    #[test]
    fn drop_joins_after_running_queued_jobs() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = channel();
        for i in 0..8 {
            let tx = tx.clone();
            pool.execute(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                tx.send(i).unwrap();
            });
        }
        drop(tx);
        drop(pool);
        // Every job queued before the drop ran before the workers exited.
        let mut ran: Vec<i32> = rx.iter().collect();
        ran.sort_unstable();
        assert_eq!(ran, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_jobs_leave_every_worker_alive() {
        // Regression: a panicking job used to kill its worker thread, so a
        // later job on the same pool would never run.
        let pool = WorkerPool::new(2);
        for i in 0..4 {
            pool.execute(move || panic!("job {i} exploded"));
        }
        let (tx, rx) = channel();
        for i in 0..8u32 {
            let tx = tx.clone();
            pool.execute(move || tx.send(i * 2).unwrap());
        }
        let mut results = recv_n(&rx, 8);
        results.sort_unstable();
        assert_eq!(results, (0..8u32).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_keeps_fifo_order_across_panicking_jobs() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        for i in 0..12u32 {
            if i % 3 == 1 {
                pool.execute(move || panic!("job {i} exploded"));
            } else {
                let tx = tx.clone();
                pool.execute(move || tx.send(i).unwrap());
            }
        }
        let expected: Vec<u32> = (0..12).filter(|i| i % 3 != 1).collect();
        assert_eq!(recv_n(&rx, expected.len()), expected);
    }

    #[test]
    fn workers_run_jobs_concurrently() {
        // Two jobs that each wait for the other: only a pool whose two
        // workers run at the same time lets both finish.
        let pool = WorkerPool::new(2);
        let (to_b, from_a) = channel();
        let (to_a, from_b) = channel();
        let (done, rx) = channel();
        let done_b = done.clone();
        pool.execute(move || {
            to_b.send(()).unwrap();
            let met = from_b.recv_timeout(std::time::Duration::from_secs(10));
            done.send(("a", met.is_ok())).unwrap();
        });
        pool.execute(move || {
            to_a.send(()).unwrap();
            let met = from_a.recv_timeout(std::time::Duration::from_secs(10));
            done_b.send(("b", met.is_ok())).unwrap();
        });
        let mut finished = recv_n(&rx, 2);
        finished.sort_unstable();
        assert_eq!(finished, vec![("a", true), ("b", true)]);
    }

    #[test]
    fn jobs_run_on_named_pool_threads() {
        let pool = WorkerPool::new(3);
        let (tx, rx) = channel();
        for _ in 0..6 {
            let tx = tx.clone();
            pool.execute(move || {
                let name = std::thread::current().name().map(str::to_owned);
                tx.send(name).unwrap();
            });
        }
        for name in recv_n(&rx, 6) {
            let name = name.expect("worker threads are named");
            let index: usize = name
                .strip_prefix("gsm-worker-")
                .and_then(|i| i.parse().ok())
                .unwrap_or_else(|| panic!("unexpected worker name {name:?}"));
            assert!(index < pool.threads());
        }
    }

    #[test]
    fn several_threads_can_submit_to_one_pool() {
        let pool = WorkerPool::new(2);
        let (tx, rx) = channel();
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (pool, tx) = (&pool, tx.clone());
                scope.spawn(move || {
                    for i in 0..8u32 {
                        let tx = tx.clone();
                        pool.execute(move || tx.send(t * 8 + i).unwrap());
                    }
                });
            }
        });
        let mut results = recv_n(&rx, 32);
        results.sort_unstable();
        assert_eq!(results, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn fire_and_forget_panic_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        pool.execute(|| panic!("detached job panic"));
        // The single worker must survive to run (and complete) this job.
        let (tx, rx) = channel();
        pool.execute(move || tx.send(5usize).unwrap());
        assert_eq!(recv_n(&rx, 1), vec![5]);
    }
}
