//! Traced-run measurements that replay one pure function or one lifecycle
//! path outside the timed region: pattern parsing and query registration.

use std::time::Instant;

use gsm_core::{PipelineConfig, PipelinedEngine, QueryPattern, SymbolTable};
use gsm_datagen::{Dataset, Workload, WorkloadConfig};
use gsm_tric::TricEngine;

use crate::input::{self, render_query, Spec};
use crate::layers::Layers;

/// Queries in the scratch registration database, and the chunk whose
/// per-query cost is reported first and last. Every registration is queued
/// before the one drain that applies them, as a client registering a
/// database in one epoch does: `queue_register` walks the pending queue, so
/// the cost per query grows with the queue (the superlinear registration
/// lead in the README) and the first and the last chunk show by how much.
const REGISTER_QUERIES: usize = 20_000;
const REGISTER_CHUNK: usize = 5_000;

/// `QueryPattern::parse` replayed over the first sub-run's rendered query
/// set: the part of `setup_s` a served registration pays per query.
pub fn replay_parse(spec: &Spec, seed: u64, layers: &mut Layers) {
    let input = input::generate(spec, seed, 0);
    let texts: Vec<String> = input
        .queries
        .iter()
        .map(|q| render_query(q, &input.symbols))
        .collect();
    let mut symbols = SymbolTable::new();
    let start = Instant::now();
    for text in &texts {
        std::hint::black_box(
            QueryPattern::parse(text, &mut symbols).expect("rendered query parses"),
        );
    }
    layers.parse_ns += start.elapsed().as_nanos() as u64;
    layers.parsed_queries += texts.len() as u64;
}

/// Registers a scratch SNB query database into a fresh TRIC+ through the
/// pipeline's epoch queue (`queue_register` for all of it, then one
/// `drain`) and drops it: `register_per_s` and the first/last-chunk cost
/// per query.
pub fn registration_scaling(seed: u64, layers: &mut Layers) {
    let workload = Workload::generate(
        WorkloadConfig::new(Dataset::Snb, 50_000, REGISTER_QUERIES)
            .with_seed(input::sub_seed(seed, 0)),
    );
    let mut pipe = PipelinedEngine::new(TricEngine::tric_plus(), PipelineConfig::default());
    let mut chunk_us = Vec::new();
    let start = Instant::now();
    for chunk in workload.queries.chunks(REGISTER_CHUNK) {
        let chunk_start = Instant::now();
        for q in chunk {
            pipe.queue_register(q);
        }
        chunk_us.push(chunk_start.elapsed().as_secs_f64() * 1e6 / chunk.len() as f64);
    }
    let drain_start = Instant::now();
    std::hint::black_box(pipe.drain());
    // The drain's share of a query's cost is the same for every chunk.
    let drain_us = drain_start.elapsed().as_secs_f64() * 1e6 / workload.queries.len() as f64;
    layers.register_per_s = workload.queries.len() as f64 / start.elapsed().as_secs_f64();
    layers.register_first5k_us = chunk_us.first().map_or(0.0, |us| us + drain_us);
    layers.register_last5k_us = chunk_us.last().map_or(0.0, |us| us + drain_us);
}
