//! # gsm-bench
//!
//! The benchmark harness that regenerates the paper's evaluation
//! (Section 6). It has four parts:
//!
//! * [`harness`] — engine construction and the single-run driver: it
//!   registers a workload's query set, then answers its update stream one
//!   update at a time (one [`apply_batch`] call per update, as in the
//!   paper), recording per-update latency, until a per-run time budget
//!   runs out or the engine's heap passes a fixed memory budget (together
//!   the stand-in for the paper's 24-hour "did not finish" threshold);
//! * [`figures`] — one experiment definition per figure/table of the paper
//!   (Fig. 12(a)–(f), Fig. 13(a)–(c), Fig. 14(a)–(c)), each producing a
//!   [`report::FigureResult`] with one series per engine;
//! * [`report`] — markdown/CSV rendering of figure results;
//! * [`regression`] — the hot-path throughput gate CI runs with the
//!   `hotpath_update` bench against the committed `BENCH_PR1.json`.
//!
//! The `experiments` binary (`cargo run -p gsm-bench --release --bin
//! experiments`) runs any subset of the figures at a chosen scale and time
//! budget and writes the rendered results; the Criterion benches under
//! `benches/` time the same experiments at a reduced, fixed scale so that
//! `cargo bench` completes quickly. Besides the figures, `benches/` holds
//! only `relation_retract` (what one retraction costs a relation) and the
//! gate. The sharded, pipelined, durable and served compositions are timed
//! end to end by the separate `hotpath_e2e` package, not here.
//!
//! [`apply_batch`]: gsm_core::engine::ContinuousEngine::apply_batch

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod regression;
pub mod report;

pub use harness::{EngineKind, RunResult};
pub use report::{FigureResult, Series};
