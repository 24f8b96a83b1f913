//! # gsm-graphdb
//!
//! The graph-database baseline of Section 5.3 of the paper.
//!
//! The paper uses an embedded Neo4j instance: the full evolving graph is
//! stored in the database, an inverted index maps incoming updates to the
//! affected continuous queries, and each affected query is executed against
//! the database (as a Cypher statement with a cached execution plan). Since a
//! pure-Rust offline reproduction cannot embed Neo4j, this crate implements
//! the pieces of an embedded property-graph database the baseline actually
//! relies on:
//!
//! * [`store`] — an in-memory graph store with per-label indexes and
//!   adjacency lists in both directions;
//! * [`plan`] — a per-query execution plan (pattern-edge ordering chosen by a
//!   selectivity heuristic) with a plan cache, mirroring Neo4j's parameterised
//!   query-plan caching;
//! * [`matcher`] — a backtracking homomorphism matcher that executes a plan
//!   against the store, optionally anchored at a newly inserted edge;
//! * [`engine`] — the continuous adapter implementing
//!   [`gsm_core::ContinuousEngine`], equivalent to the paper's "apply update,
//!   look up affected queries in `edgeInd`, re-run them" loop.
//!
//! The role of the baseline is preserved exactly: the whole graph is stored,
//! and every affected query is re-evaluated from scratch against the store on
//! every update, which is why it loses to TRIC by a growing margin as the
//! graph grows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod matcher;
pub mod plan;
pub mod store;

pub use engine::GraphDbEngine;
pub use matcher::MatchCollector;
pub use plan::{PlanCache, QueryPlan};
pub use store::GraphStore;
