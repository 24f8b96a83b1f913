//! # gsm-baselines
//!
//! The advanced baselines of Section 5 of the paper: **INV**, **INC** and
//! their join-structure-caching variants **INV+** and **INC+**.
//!
//! All four index the query database at edge granularity — `edgeInd` maps a
//! generic edge to the queries using it, and `queryInd` (a
//! [`gsm_core::engine::QueryTable`]) maps a query id to its covering paths —
//! and keep a materialized view per distinct generic query edge. Unlike
//! TRIC, they do **not** cluster queries by their common sub-paths and do
//! **not** materialize path prefixes. Consequently every affected query
//! re-joins its covering paths from the edge-level views on every update:
//!
//! * **INV** joins the *full* materialized views of every covering path of
//!   every affected query (the classic "join and explore" approach), and then
//!   derives the newly created embeddings.
//! * **INC** seeds the affected covering path(s) with the incoming update
//!   only, so it examines far fewer tuples on the affected path, but still
//!   recomputes the remaining paths of each affected query from the edge
//!   views.
//! * The `+` variants cache the build side of every hash join across updates
//!   and maintain it incrementally, exactly like TRIC+.
//!
//! All four report exactly the same matches as TRIC/TRIC+ — the integration
//! tests enforce bit-exact agreement — they just spend increasingly more work
//! per update, which is what the paper's evaluation measures.
//!
//! The paper's `sourceInd` and `targetInd` (vertex position → generic edges)
//! are not kept: the path kernel extends a covering path by looking up the
//! next generic edge's view directly, since the query record lists the
//! path's edges in walk order, so nothing would read them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
mod paths;

pub use engine::{BaselineEngine, BaselineMode};

/// INV / INV+ engine type (alias of [`BaselineEngine`]).
pub type InvEngine = BaselineEngine;
/// INC / INC+ engine type (alias of [`BaselineEngine`]).
pub type IncEngine = BaselineEngine;
