//! Durable log-structured persistence for the continuous subgraph-matching
//! engines.
//!
//! The crate adds three layers on top of `gsm-core`, bottom to top:
//!
//! * [`storage`] — the pluggable byte-store abstraction ([`Storage`] /
//!   [`StorageFactory`]): real files ([`DirFactory`]), crash-survivable
//!   in-memory stores ([`MemFactory`]) and deterministic fault injection
//!   ([`FaultStorage`], [`FaultPlan`]) for the differential crash suites.
//!   [`codec`] holds the shared byte vocabulary (bounds-checked cursor,
//!   CRC-32, and the encodings of updates, patterns, symbol tables and
//!   relations).
//! * [`wal`] — the write-ahead update log: checksummed, length-prefixed
//!   records, group-commit fsync, prefix-tolerant reading that stops
//!   cleanly at torn or corrupt tails, and multi-stripe merge with
//!   gap-cutting for one-log-per-shard layouts.
//! * [`checkpoint`] + [`engine`] — sequence-stamped logical snapshots
//!   (interner, queries, per-query totals, survivor edge relations with
//!   their generations) and [`PersistentEngine`], the
//!   [`gsm_core::engine::ContinuousEngine`] wrapper that logs every batch
//!   ahead of application, spills checkpoints, and recovers any engine to
//!   report-equivalence with an uninterrupted run.
//!
//! Storage failures are always typed
//! ([`gsm_core::error::Error::Persistence`], carrying path + offset); the
//! crash-recovery contract and formats are documented in the repository's
//! `ARCHITECTURE.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod engine;
pub mod storage;
pub mod wal;

pub use checkpoint::{CheckpointData, QueryTotals};
pub use engine::{PersistConfig, PersistentEngine, RecoveryReport};
pub use storage::{
    DirFactory, FaultPlan, FaultStorage, FileStorage, MemFactory, MemStorage, Storage,
    StorageFactory,
};
pub use wal::{Wal, WalOp, WalRecord};
