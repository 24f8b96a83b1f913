//! # graph-stream-matching
//!
//! Facade crate for the reproduction of *"Efficient Continuous Multi-Query
//! Processing over Graph Streams"* (Zervakis et al., EDBT 2020).
//!
//! It re-exports the workspace crates under stable module names so that the
//! runnable examples and the cross-crate integration tests can use a single
//! dependency:
//!
//! * [`core`] — data/query model, covering paths, relations, engine trait.
//! * [`tric`] — TRIC and TRIC+ (the paper's contribution).
//! * [`baselines`] — the INV / INV+ / INC / INC+ inverted-index baselines.
//! * [`graphdb`] — the embedded property-graph-database baseline
//!   (Neo4j substitute).
//! * [`datagen`] — SNB-like, NYC-taxi-like and BioGRID-like workload
//!   generators plus the query-set generator.
//! * [`persist`] — durable log-structured persistence: write-ahead update
//!   log, checkpoints, crash recovery for any engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use gsm_baselines as baselines;
pub use gsm_core as core;
pub use gsm_datagen as datagen;
pub use gsm_graphdb as graphdb;
pub use gsm_persist as persist;
pub use gsm_tric as tric;

/// Returns every engine implementation known to the workspace, boxed behind
/// the [`gsm_core::ContinuousEngine`] trait, in the order the paper lists
/// them: TRIC, TRIC+, INV, INV+, INC, INC+, GraphDB.
pub fn all_engines() -> Vec<Box<dyn gsm_core::ContinuousEngine>> {
    vec![
        Box::new(gsm_tric::TricEngine::tric()),
        Box::new(gsm_tric::TricEngine::tric_plus()),
        Box::new(gsm_baselines::InvEngine::inv()),
        Box::new(gsm_baselines::InvEngine::inv_plus()),
        Box::new(gsm_baselines::IncEngine::inc()),
        Box::new(gsm_baselines::IncEngine::inc_plus()),
        Box::new(gsm_graphdb::GraphDbEngine::new()),
    ]
}

/// Factories for every engine implementation, in the same order as
/// [`all_engines`], boxed `Send` so the engines can be distributed across
/// the worker shards of [`gsm_core::ShardedEngine`].
pub fn all_engine_factories() -> Vec<fn() -> Box<dyn gsm_core::ContinuousEngine + Send>> {
    vec![
        || Box::new(gsm_tric::TricEngine::tric()),
        || Box::new(gsm_tric::TricEngine::tric_plus()),
        || Box::new(gsm_baselines::InvEngine::inv()),
        || Box::new(gsm_baselines::InvEngine::inv_plus()),
        || Box::new(gsm_baselines::IncEngine::inc()),
        || Box::new(gsm_baselines::IncEngine::inc_plus()),
        || Box::new(gsm_graphdb::GraphDbEngine::new()),
    ]
}

/// Returns every engine wrapped in a [`gsm_core::ShardedEngine`] with
/// `num_shards` shards, in the same order as [`all_engines`]. With
/// `num_shards <= 1` the wrapper delegates to the single inner engine, so
/// the result is observationally identical to [`all_engines`] either way —
/// the shard-count differential tests replay both and assert exactly that.
pub fn all_engines_sharded(num_shards: usize) -> Vec<Box<dyn gsm_core::ContinuousEngine>> {
    all_engine_factories()
        .into_iter()
        .map(|factory| {
            Box::new(gsm_core::ShardedEngine::new(num_shards, factory))
                as Box<dyn gsm_core::ContinuousEngine>
        })
        .collect()
}

/// Opens (or recovers) a [`gsm_persist::PersistentEngine`] wrapping engine
/// `engine_index` (the [`all_engine_factories`] order), sharded across
/// `num_shards` workers when `num_shards > 1`, over the given storage
/// namespace. This is the composition the crash-recovery suite and the
/// bench harness use: persistence sits **outside** the (possibly sharded)
/// engine and **inside** any pipelined front end, so staged batches are
/// WAL-logged at stage time.
pub fn open_persistent_engine(
    engine_index: usize,
    num_shards: usize,
    storage: Box<dyn gsm_persist::StorageFactory>,
    config: gsm_persist::PersistConfig,
) -> gsm_core::error::Result<(
    gsm_persist::PersistentEngine<Box<dyn gsm_core::ContinuousEngine + Send>>,
    gsm_persist::RecoveryReport,
)> {
    let factory = all_engine_factories()[engine_index];
    gsm_persist::PersistentEngine::open(storage, config, move || {
        if num_shards <= 1 {
            factory()
        } else {
            Box::new(gsm_core::ShardedEngine::new(num_shards, factory))
                as Box<dyn gsm_core::ContinuousEngine + Send>
        }
    })
}
