//! Workload bundles: dataset stream + query set + symbol table.
//!
//! A [`Workload`] is everything a benchmark run needs, generated
//! deterministically from a [`WorkloadConfig`] that mirrors the paper's
//! experimental knobs (dataset, graph size `|GE|`, query-database size
//! `|QDB|`, average query size `l`, selectivity `σ`, overlap `o`).

use std::collections::{HashMap, HashSet, VecDeque};

use gsm_core::interner::SymbolTable;
use gsm_core::model::graph::AttributeGraph;
use gsm_core::model::update::{GraphStream, Update};
use gsm_core::query::pattern::QueryPattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::biogrid::{self, BioGridConfig};
use crate::querygen::{self, QueryGenConfig, QuerySetStats};
use crate::snb::{self, SnbConfig};
use crate::taxi::{self, TaxiConfig};

/// The three datasets of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// LDBC Social Network Benchmark-like activity stream.
    Snb,
    /// NYC-taxi-like trip stream.
    Taxi,
    /// BioGRID-like protein-interaction stream (single label stress test).
    BioGrid,
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Dataset::Snb => "SNB",
            Dataset::Taxi => "TAXI",
            Dataset::BioGrid => "BioGRID",
        };
        write!(f, "{s}")
    }
}

/// How the insert-only dataset stream is post-processed into the final
/// update stream — the windowed scenario variants of the evaluation
/// (taxi trips age out, social edges are retracted, interactions get
/// corrected).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StreamVariant {
    /// The paper's insert-only streams (the default).
    InsertOnly,
    /// Count-based sliding window: each edge is retracted `window` inserts
    /// after its latest insertion, so the live graph stays bounded by the
    /// window size.
    SlidingWindow {
        /// Window width in stream positions (clamped to ≥ 1).
        window: usize,
    },
    /// Random churn: before each insert, with probability `delete_ratio`, a
    /// uniformly chosen live edge is retracted first.
    RandomDeletions {
        /// Per-insert probability of a preceding retraction (clamped to
        /// `[0, 1]`).
        delete_ratio: f64,
    },
}

/// Workload generation parameters (the paper's baseline values are the
/// defaults: `l = 5`, `σ = 25%`, `o = 35%`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Which dataset to generate.
    pub dataset: Dataset,
    /// Number of stream updates (the final graph size `|GE|`).
    pub graph_edges: usize,
    /// Number of continuous queries (`|QDB|`).
    pub num_queries: usize,
    /// Average query size in edges (`l`).
    pub avg_query_size: usize,
    /// Fraction of queries eventually satisfied (`σ`).
    pub selectivity: f64,
    /// Query overlap factor (`o`).
    pub overlap: f64,
    /// RNG seed.
    pub seed: u64,
    /// Post-processing of the insert stream into the final update stream.
    pub variant: StreamVariant,
}

impl WorkloadConfig {
    /// The paper's baseline configuration for a dataset, scaled to the given
    /// stream and query-set sizes.
    pub fn new(dataset: Dataset, graph_edges: usize, num_queries: usize) -> Self {
        WorkloadConfig {
            dataset,
            graph_edges,
            num_queries,
            avg_query_size: 5,
            selectivity: 0.25,
            overlap: 0.35,
            seed: 0xC0FFEE,
            variant: StreamVariant::InsertOnly,
        }
    }

    /// Returns a copy with a different average query size.
    pub fn with_query_size(mut self, l: usize) -> Self {
        self.avg_query_size = l;
        self
    }

    /// Returns a copy with a different selectivity.
    pub fn with_selectivity(mut self, sigma: f64) -> Self {
        self.selectivity = sigma;
        self
    }

    /// Returns a copy with a different overlap factor.
    pub fn with_overlap(mut self, o: f64) -> Self {
        self.overlap = o;
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy whose stream retracts each edge `window` inserts
    /// after its latest insertion (see [`StreamVariant::SlidingWindow`]).
    pub fn with_sliding_window(mut self, window: usize) -> Self {
        self.variant = StreamVariant::SlidingWindow { window };
        self
    }

    /// Returns a copy whose stream randomly retracts live edges at the
    /// given per-insert probability (see
    /// [`StreamVariant::RandomDeletions`]).
    pub fn with_delete_ratio(mut self, delete_ratio: f64) -> Self {
        self.variant = StreamVariant::RandomDeletions { delete_ratio };
        self
    }
}

/// Interleaves count-based sliding-window retractions into an insert
/// stream: each edge is retracted `window` positions after its latest
/// insertion (re-insertion refreshes the deadline). Trailing edges still
/// inside the window when the stream ends stay live — a sustained stream
/// never fully drains.
pub fn windowed_stream(inserts: &[Update], window: usize) -> GraphStream {
    let window = window.max(1);
    let mut out: Vec<Update> = Vec::with_capacity(inserts.len() * 2);
    let mut live: HashMap<Update, usize> = HashMap::new();
    let mut expiry: VecDeque<(usize, Update)> = VecDeque::new();
    for (i, &u) in inserts.iter().enumerate() {
        while let Some(&(at, e)) = expiry.front() {
            if at + window > i {
                break;
            }
            expiry.pop_front();
            if live.get(&e) == Some(&at) {
                live.remove(&e);
                out.push(e.inverted());
            }
        }
        let e = u.edge();
        live.insert(e, i);
        expiry.push_back((i, e));
        out.push(u);
    }
    GraphStream::from_updates(out)
}

/// Interleaves random retractions into an insert stream: before each
/// insert, with probability `delete_ratio`, a uniformly chosen live edge is
/// retracted. Deterministic in `seed`.
pub fn deletion_stream(inserts: &[Update], delete_ratio: f64, seed: u64) -> GraphStream {
    let p = delete_ratio.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<Update> = Vec::with_capacity(inserts.len() * 2);
    let mut live: Vec<Update> = Vec::new();
    let mut live_set: HashSet<Update> = HashSet::new();
    for &u in inserts {
        if !live.is_empty() && rng.gen_bool(p) {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            live_set.remove(&victim);
            out.push(victim.inverted());
        }
        let e = u.edge();
        if live_set.insert(e) {
            live.push(e);
        }
        out.push(u);
    }
    GraphStream::from_updates(out)
}

/// A fully generated workload.
#[derive(Debug)]
pub struct Workload {
    /// Human-readable name (dataset + key parameters).
    pub name: String,
    /// The symbol table all updates and queries are interned in.
    pub symbols: SymbolTable,
    /// The update stream.
    pub stream: GraphStream,
    /// The continuous query set.
    pub queries: Vec<QueryPattern>,
    /// Statistics of the generated query set.
    pub query_stats: QuerySetStats,
    /// The configuration the workload was generated from.
    pub config: WorkloadConfig,
}

impl Workload {
    /// Generates a workload deterministically from its configuration.
    pub fn generate(config: WorkloadConfig) -> Self {
        let mut symbols = SymbolTable::new();
        let stream = match config.dataset {
            Dataset::Snb => snb::generate(
                &SnbConfig {
                    target_edges: config.graph_edges,
                    seed: config.seed,
                    ..Default::default()
                },
                &mut symbols,
            ),
            Dataset::Taxi => taxi::generate(
                &TaxiConfig {
                    target_edges: config.graph_edges,
                    seed: config.seed,
                    ..Default::default()
                },
                &mut symbols,
            ),
            Dataset::BioGrid => biogrid::generate(
                &BioGridConfig {
                    target_edges: config.graph_edges,
                    seed: config.seed,
                    ..Default::default()
                },
                &mut symbols,
            ),
        };
        // Queries are generated against the union graph of the insert-only
        // base stream: a query is "eventually satisfied" when its pattern
        // appears at some point of the stream, whether or not the windowed
        // variant later retracts the witnessing edges.
        let graph = AttributeGraph::from_updates(stream.iter());
        let (queries, query_stats) = querygen::generate(
            &QueryGenConfig {
                count: config.num_queries,
                avg_size: config.avg_query_size,
                selectivity: config.selectivity,
                overlap: config.overlap,
                seed: config.seed ^ 0x9E37_79B9_7F4A_7C15,
                ..Default::default()
            },
            &graph,
            &mut symbols,
        );
        let stream = match config.variant {
            StreamVariant::InsertOnly => stream,
            StreamVariant::SlidingWindow { window } => windowed_stream(stream.as_slice(), window),
            StreamVariant::RandomDeletions { delete_ratio } => deletion_stream(
                stream.as_slice(),
                delete_ratio,
                config.seed ^ 0xD1CE_D1CE_D1CE_D1CE,
            ),
        };
        let suffix = match config.variant {
            StreamVariant::InsertOnly => String::new(),
            StreamVariant::SlidingWindow { window } => format!("-win{window}"),
            StreamVariant::RandomDeletions { delete_ratio } => {
                format!("-del{:.0}%", delete_ratio * 100.0)
            }
        };
        let name = format!(
            "{}-E{}-Q{}-l{}-s{:.0}%-o{:.0}%{}",
            config.dataset,
            config.graph_edges,
            config.num_queries,
            config.avg_query_size,
            config.selectivity * 100.0,
            config.overlap * 100.0,
            suffix,
        );
        Workload {
            name,
            symbols,
            stream,
            queries,
            query_stats,
            config,
        }
    }

    /// Number of updates in the stream.
    pub fn num_updates(&self) -> usize {
        self.stream.len()
    }

    /// Number of queries in the set.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_end_to_end() {
        for dataset in [Dataset::Snb, Dataset::Taxi, Dataset::BioGrid] {
            let w = Workload::generate(WorkloadConfig::new(dataset, 3_000, 50));
            assert_eq!(w.num_updates(), 3_000, "{dataset}");
            assert_eq!(w.num_queries(), 50, "{dataset}");
            assert!(!w.name.is_empty());
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let a = Workload::generate(WorkloadConfig::new(Dataset::Snb, 2_000, 30));
        let b = Workload::generate(WorkloadConfig::new(Dataset::Snb, 2_000, 30));
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.queries, b.queries);
    }

    #[test]
    fn builder_style_overrides() {
        let cfg = WorkloadConfig::new(Dataset::Taxi, 1_000, 10)
            .with_query_size(3)
            .with_selectivity(0.5)
            .with_overlap(0.6)
            .with_seed(7);
        assert_eq!(cfg.avg_query_size, 3);
        assert!((cfg.selectivity - 0.5).abs() < f64::EPSILON);
        assert!((cfg.overlap - 0.6).abs() < f64::EPSILON);
        assert_eq!(cfg.seed, 7);
        let w = Workload::generate(cfg);
        assert_eq!(w.config.avg_query_size, 3);
    }

    #[test]
    fn display_names() {
        assert_eq!(Dataset::Snb.to_string(), "SNB");
        assert_eq!(Dataset::Taxi.to_string(), "TAXI");
        assert_eq!(Dataset::BioGrid.to_string(), "BioGRID");
    }

    #[test]
    fn sliding_window_variant_bounds_the_live_graph() {
        let w = Workload::generate(
            WorkloadConfig::new(Dataset::Taxi, 2_000, 10).with_sliding_window(64),
        );
        assert!(w.name.ends_with("-win64"));
        assert!(w.num_updates() > 2_000, "retractions interleaved");
        // Replay: the live edge count never exceeds the window, every
        // retraction targets a live edge, and the surviving set equals the
        // trailing window.
        let mut g = AttributeGraph::new();
        for &u in w.stream.iter() {
            if u.is_retraction() {
                assert!(g.remove(u), "retraction of a dead edge: {u:?}");
            } else {
                g.apply(u);
            }
            assert!(g.num_edges() <= 64, "window overflow: {}", g.num_edges());
        }
        assert!(g.num_edges() > 0, "trailing window stays live");
        assert_eq!(
            w.stream.iter().filter(|u| !u.is_retraction()).count(),
            2_000,
            "all base inserts survive the transformation"
        );
    }

    #[test]
    fn random_deletion_variant_only_retracts_live_edges() {
        let cfg = WorkloadConfig::new(Dataset::Snb, 1_500, 10).with_delete_ratio(0.3);
        let a = Workload::generate(cfg);
        let b = Workload::generate(cfg);
        assert_eq!(a.stream, b.stream, "variant must be deterministic");
        assert!(a.name.ends_with("-del30%"));
        let retractions = a.stream.iter().filter(|u| u.is_retraction()).count();
        assert!(retractions > 100, "churn actually happens: {retractions}");
        let mut g = AttributeGraph::new();
        for &u in a.stream.iter() {
            if u.is_retraction() {
                assert!(g.remove(u), "retraction of a dead edge: {u:?}");
            } else {
                g.apply(u);
            }
        }
    }
}
