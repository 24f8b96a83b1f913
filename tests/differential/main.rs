//! The differential suite: every engine and every composition we ship must
//! report exactly what the graph-database baseline reports one update at a
//! time.
//!
//! The reference, GraphDB, stores the graph on std collections and
//! backtracks over it for each update, so it shares no routing,
//! propagation, relation or join code with TRIC and TRIC+ (the paper's
//! contribution) or the four inverted-index baselines; those six share the
//! covering-path decomposition and the relational kernel with each other,
//! but not with it. Its own net totals are checked against a from-scratch
//! count of each query's embeddings. The sharded, pipelined and threaded
//! wrappers must then change nothing but how the stream is cut. See
//! [`harness`] for the reference and the check, and the `workloads!`
//! invocation below for the cases. Each case is replayed once per run of
//! this binary and shared by its tests; there is one `#[test]` per
//! (family, case), named `<family>::<case>`. The other modules drive the
//! same check from hand-built scenarios, sharding topologies and random
//! workloads.

mod harness;
mod properties;
mod scenarios;
mod sharding;

use std::sync::OnceLock;

use graph_stream_matching::datagen::{Dataset, WorkloadConfig};
use harness::Case;

/// Declares each case once — a function returning it, replayed on first
/// use — and one `#[test]` per (family, case). The `agree and batched only`
/// cases are too large to drive through every wrapper in a debug build.
macro_rules! workloads {
    (
        every family { $($case:ident => $build:expr;)+ }
        agree and batched only { $($large:ident => $large_build:expr;)+ }
    ) => {
        $(case!($case => $build);)+
        $(case!($large => $large_build);)+
        families!(agree, batched; ($($case),+, $($large),+));
        families!(sharded, pipelined, pipelined_sharded; ($($case),+));
    };
}

macro_rules! case {
    ($case:ident => $build:expr) => {
        fn $case() -> &'static Case {
            static CASE: OnceLock<Case> = OnceLock::new();
            CASE.get_or_init(|| $build)
        }
    };
}

macro_rules! families {
    ($($family:ident),+; $cases:tt) => {
        $(family!($family; $cases);)+
    };
}

macro_rules! family {
    ($family:ident; ($($case:ident),+)) => {
        mod $family {
            $(#[test]
            fn $case() {
                super::$case().check(crate::harness::$family);
            })+
        }
    };
}

workloads! {
    every family {
        snb => Case::generate(
            WorkloadConfig::new(Dataset::Snb, 400, 20).with_selectivity(0.4)
        );
        taxi => Case::generate(
            WorkloadConfig::new(Dataset::Taxi, 900, 40).with_query_size(3)
        );
        // The single-label stress generator explodes quickly; the full-size
        // scenario runs under `--features slow-tests`.
        biogrid => Case::generate(
            WorkloadConfig::new(Dataset::BioGrid, 250, 20).with_query_size(3)
        );
        // High overlap plus long queries maximises shared trie prefixes and
        // multi-path queries, whose covering-path joins produce the largest
        // reports; the full-size scenario runs under `--features slow-tests`.
        overlap => Case::generate(
            WorkloadConfig::new(Dataset::Snb, 400, 20)
                .with_query_size(7)
                .with_overlap(0.8)
        );
        snb_deletion => Case::generate(
            WorkloadConfig::new(Dataset::Snb, 700, 30)
                .with_selectivity(0.4)
                .with_delete_ratio(0.35)
        );
        taxi_deletion => Case::generate(
            WorkloadConfig::new(Dataset::Taxi, 700, 30)
                .with_query_size(3)
                .with_delete_ratio(0.35)
        );
        // Deletions keep the live graph smaller, but the pre-deletion joins
        // still dominate.
        biogrid_deletion => Case::generate(
            WorkloadConfig::new(Dataset::BioGrid, 250, 20)
                .with_query_size(3)
                .with_delete_ratio(0.3)
        );
        // Retractions must unwind deeply shared materialized state.
        overlap_deletion => Case::generate(
            WorkloadConfig::new(Dataset::Snb, 350, 16)
                .with_query_size(6)
                .with_overlap(0.8)
                .with_delete_ratio(0.3)
        );
        // A count-based window keeps at most 80 edges live, so every insert
        // eventually produces an expiry.
        snb_window => Case::generate(
            WorkloadConfig::new(Dataset::Snb, 900, 30)
                .with_selectivity(0.4)
                .with_sliding_window(80)
        );
        taxi_window => Case::generate(
            WorkloadConfig::new(Dataset::Taxi, 600, 20)
                .with_query_size(3)
                .with_sliding_window(64)
        );
        corner_cases => scenarios::corner_cases();
    }
    agree and batched only {
        // The larger SNB query set, replayed per update and batched; the
        // wrapper families run SNB at `snb`'s size.
        snb_large => Case::generate(
            WorkloadConfig::new(Dataset::Snb, 900, 40).with_selectivity(0.4)
        );
    }
}
