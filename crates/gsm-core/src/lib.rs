//! # gsm-core
//!
//! Core substrate for **continuous multi-query processing over graph streams**,
//! a reproduction of the TRIC system (Zervakis et al., EDBT 2020).
//!
//! This crate provides everything that the concrete engines (TRIC/TRIC+, the
//! inverted-index baselines INV/INC and the graph-database baseline) build on:
//!
//! * [`interner`] — a compact string interner mapping labels to [`Sym`] ids.
//! * [`model`] — the attribute-graph data model: [`Update`]s, [`GraphStream`]s,
//!   [`AttributeGraph`], pattern terms and edges, and the *generic edge*
//!   normalisation used by every index structure.
//! * [`query`] — query graph patterns ([`QueryPattern`]), a small textual
//!   pattern parser, query-class detection and the covering-path
//!   decomposition of Section 4.1 of the paper.
//! * [`relation`] — binding tables (materialized views), hash joins, delta
//!   joins, and the join-build cache that powers the `+` engine variants.
//! * [`views`] — the live graph (one edge relation per label) and the
//!   per-edge materialized views over it.
//! * [`engine`] — the [`ContinuousEngine`] trait implemented by every engine,
//!   plus match reports.
//! * [`shard`] — [`ShardedEngine`], the root-generic-edge partitioning of
//!   any engine across worker shards with a deterministic report merge.
//! * [`pipeline`] — [`PipelinedEngine`], the latency-budgeted batcher and
//!   pipelined streaming executor built on two-phase (stage → answer)
//!   engines, with an optional cross-thread answer stage.
//! * [`pool`] — [`WorkerPool`], the persistent worker threads behind the
//!   pipelined answer stage and the server's connection jobs.
//! * [`memory`] — heap accounting behind every engine's `heap_bytes`.
//!
//! ## Quick example
//!
//! ```
//! use gsm_core::prelude::*;
//!
//! let mut symbols = SymbolTable::new();
//! let query = QueryPattern::parse("?x -knows-> ?y; ?y -checksIn-> rio", &mut symbols).unwrap();
//! assert_eq!(query.num_edges(), 2);
//! let paths = covering_paths(&query);
//! assert_eq!(paths.len(), 1); // a single chain covers the whole pattern
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod interner;
pub mod memory;
pub mod model;
pub mod pipeline;
pub mod pool;
pub mod query;
pub mod relation;
pub mod shard;
pub mod views;

pub use engine::{
    ContinuousEngine, DetachedAnswer, EngineStats, FlushCounts, MatchReport, QueryId, QueryMatch,
    QueryTable, StagedBatch,
};
pub use error::{Error, Result};
pub use interner::{Sym, SymbolTable};
pub use model::generic::{GenTerm, GenericEdge};
pub use model::graph::AttributeGraph;
pub use model::term::{PatternEdge, Term, VarId};
pub use model::update::{GraphStream, Update};
pub use pipeline::{CompletedBatch, DeadlineBatcher, PipelineConfig, PipelinedEngine};
pub use pool::WorkerPool;
pub use query::classes::QueryClass;
pub use query::paths::{covering_paths, CoveringPath};
pub use query::pattern::{QVertexId, QueryPattern};
pub use relation::cache::JoinCache;
pub use relation::eval::{join_paths, PathBinding};
pub use relation::Relation;
pub use shard::{shard_of, ShardedEngine};
pub use views::{EdgeDeltas, EdgeViewStore};

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::engine::{ContinuousEngine, MatchReport, QueryId, QueryMatch};
    pub use crate::error::{Error, Result};
    pub use crate::interner::{Sym, SymbolTable};
    pub use crate::model::generic::{GenTerm, GenericEdge};
    pub use crate::model::graph::AttributeGraph;
    pub use crate::model::term::{PatternEdge, Term, VarId};
    pub use crate::model::update::{GraphStream, Update};
    pub use crate::pipeline::{CompletedBatch, PipelineConfig, PipelinedEngine};
    pub use crate::query::classes::QueryClass;
    pub use crate::query::paths::{covering_paths, CoveringPath};
    pub use crate::query::pattern::{QVertexId, QueryPattern};
    pub use crate::relation::Relation;
    pub use crate::shard::{shard_of, ShardedEngine};
    pub use crate::views::EdgeViewStore;
}
