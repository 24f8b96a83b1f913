//! One experiment definition per figure/table of the paper's evaluation.
//!
//! Every function takes an [`ExperimentScale`] so the same experiment can run
//! at laptop scale (the defaults, used by the `experiments` binary and the
//! Criterion benches) or closer to the paper's sizes when more time is
//! available. The *shape* of each experiment — which parameter is swept,
//! which engines participate, what is measured — follows the paper exactly.

use std::time::Duration;

use crate::harness::{run_engines, EngineKind, RunResult};
use crate::report::{figure_from_runs, FigureResult};
use gsm_datagen::{Dataset, Workload, WorkloadConfig};

/// Scale knobs shared by every experiment.
///
/// The paper's baseline configuration is `|GE| = 100K` edges and
/// `|QDB| = 5K` queries on a 24-hour budget; the defaults here shrink both by
/// roughly 25× so the whole suite completes in minutes on a laptop while
/// preserving the relative behaviour of the engines.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// The stand-in for the paper's 100K-edge graph.
    pub base_graph_edges: usize,
    /// The stand-in for the paper's 5K-query database.
    pub base_queries: usize,
    /// Per-run answering time budget (the paper's 24-hour threshold).
    pub time_budget: Duration,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            base_graph_edges: 4_000,
            base_queries: 200,
            time_budget: Duration::from_secs(15),
        }
    }
}

impl ExperimentScale {
    /// A very small scale used by unit tests and the Criterion benches.
    pub fn tiny() -> Self {
        ExperimentScale {
            base_graph_edges: 600,
            base_queries: 30,
            time_budget: Duration::from_secs(5),
        }
    }

    /// Scales every size by a factor.
    pub fn scaled(factor: f64) -> Self {
        let d = ExperimentScale::default();
        ExperimentScale {
            base_graph_edges: ((d.base_graph_edges as f64 * factor) as usize).max(200),
            base_queries: ((d.base_queries as f64 * factor) as usize).max(10),
            ..d
        }
    }
}

/// All experiment identifiers, in paper order.
pub fn all_figure_ids() -> Vec<&'static str> {
    vec![
        "fig12a", "fig12b", "fig12c", "fig12d", "fig12e", "fig12f", "fig13a", "fig13b", "tab13c",
        "fig14a", "fig14b", "fig14c",
    ]
}

/// Runs an experiment by identifier.
pub fn run_figure(id: &str, scale: &ExperimentScale) -> Option<FigureResult> {
    Some(match id {
        "fig12a" => fig12a(scale),
        "fig12b" => fig12b(scale),
        "fig12c" => fig12c(scale),
        "fig12d" => fig12d(scale),
        "fig12e" => fig12e(scale),
        "fig12f" => fig12f(scale),
        "fig13a" => fig13a(scale),
        "fig13b" => fig13b(scale),
        "tab13c" => tab13c(scale),
        "fig14a" => fig14a(scale),
        "fig14b" => fig14b(scale),
        "fig14c" => fig14c(scale),
        _ => return None,
    })
}

fn sweep<F>(
    engines: &[EngineKind],
    xs: &[f64],
    time_budget: Duration,
    mut workload_for: F,
) -> (Vec<f64>, Vec<Vec<RunResult>>)
where
    F: FnMut(f64) -> Workload,
{
    let mut runs = Vec::with_capacity(xs.len());
    for &x in xs {
        let workload = workload_for(x);
        runs.push(run_engines(engines, &workload, time_budget));
    }
    (xs.to_vec(), runs)
}

/// Fig. 12(a): answering time vs graph size, SNB, all engines.
pub fn fig12a(scale: &ExperimentScale) -> FigureResult {
    let xs: Vec<f64> = (1..=5)
        .map(|i| (scale.base_graph_edges as f64 * i as f64 / 5.0).round())
        .collect();
    let (x_values, runs) = sweep(&EngineKind::all(), &xs, scale.time_budget, |edges| {
        Workload::generate(WorkloadConfig::new(
            Dataset::Snb,
            edges as usize,
            scale.base_queries,
        ))
    });
    figure_from_runs(
        "fig12a",
        "SNB: query answering time vs. graph size".into(),
        "graph size (edges)",
        "answering time (ms/update)",
        x_values,
        runs,
    )
}

/// Fig. 12(b): answering time vs selectivity σ, SNB, all engines.
pub fn fig12b(scale: &ExperimentScale) -> FigureResult {
    let xs = vec![0.10, 0.15, 0.20, 0.25, 0.30];
    let (x_values, runs) = sweep(&EngineKind::all(), &xs, scale.time_budget, |sigma| {
        Workload::generate(
            WorkloadConfig::new(Dataset::Snb, scale.base_graph_edges, scale.base_queries)
                .with_selectivity(sigma),
        )
    });
    figure_from_runs(
        "fig12b",
        "SNB: query answering time vs. selectivity σ".into(),
        "selectivity σ",
        "answering time (ms/update)",
        x_values,
        runs,
    )
}

/// Fig. 12(c): answering time vs query-database size |QDB|, SNB, all engines.
pub fn fig12c(scale: &ExperimentScale) -> FigureResult {
    let xs: Vec<f64> = [0.2, 0.6, 1.0]
        .iter()
        .map(|f| (scale.base_queries as f64 * f).round())
        .collect();
    let (x_values, runs) = sweep(&EngineKind::all(), &xs, scale.time_budget, |qdb| {
        Workload::generate(WorkloadConfig::new(
            Dataset::Snb,
            scale.base_graph_edges,
            qdb as usize,
        ))
    });
    figure_from_runs(
        "fig12c",
        "SNB: query answering time vs. |QDB|".into(),
        "query database size |QDB|",
        "answering time (ms/update)",
        x_values,
        runs,
    )
}

/// Fig. 12(d): answering time vs average query size l, SNB, all engines.
pub fn fig12d(scale: &ExperimentScale) -> FigureResult {
    let xs = vec![3.0, 5.0, 7.0, 9.0];
    let (x_values, runs) = sweep(&EngineKind::all(), &xs, scale.time_budget, |l| {
        Workload::generate(
            WorkloadConfig::new(Dataset::Snb, scale.base_graph_edges, scale.base_queries)
                .with_query_size(l as usize),
        )
    });
    figure_from_runs(
        "fig12d",
        "SNB: query answering time vs. average query size l".into(),
        "average query size l (edges)",
        "answering time (ms/update)",
        x_values,
        runs,
    )
}

/// Fig. 12(e): answering time vs query overlap o, SNB, all engines.
pub fn fig12e(scale: &ExperimentScale) -> FigureResult {
    let xs = vec![0.25, 0.35, 0.45, 0.55, 0.65];
    let (x_values, runs) = sweep(&EngineKind::all(), &xs, scale.time_budget, |o| {
        Workload::generate(
            WorkloadConfig::new(Dataset::Snb, scale.base_graph_edges, scale.base_queries)
                .with_overlap(o),
        )
    });
    figure_from_runs(
        "fig12e",
        "SNB: query answering time vs. query overlap o".into(),
        "query overlap o",
        "answering time (ms/update)",
        x_values,
        runs,
    )
}

/// Fig. 12(f): answering time on a 10× larger SNB graph — the experiment
/// where the inverted-index baselines hit the time threshold first.
pub fn fig12f(scale: &ExperimentScale) -> FigureResult {
    let xs: Vec<f64> = (1..=5)
        .map(|i| (scale.base_graph_edges as f64 * 2.0 * i as f64).round())
        .collect();
    let (x_values, runs) = sweep(&EngineKind::all(), &xs, scale.time_budget, |edges| {
        Workload::generate(WorkloadConfig::new(
            Dataset::Snb,
            edges as usize,
            scale.base_queries,
        ))
    });
    figure_from_runs(
        "fig12f",
        "SNB: query answering time on large graphs (baseline timeouts)".into(),
        "graph size (edges)",
        "answering time (ms/update)",
        x_values,
        runs,
    )
}

/// Fig. 13(a): very large SNB graph, TRIC / TRIC+ / graph database only.
pub fn fig13a(scale: &ExperimentScale) -> FigureResult {
    let xs: Vec<f64> = (1..=4)
        .map(|i| (scale.base_graph_edges as f64 * 5.0 * i as f64).round())
        .collect();
    let (x_values, runs) = sweep(
        &EngineKind::large_graph_subset(),
        &xs,
        scale.time_budget,
        |edges| {
            Workload::generate(WorkloadConfig::new(
                Dataset::Snb,
                edges as usize,
                scale.base_queries,
            ))
        },
    );
    figure_from_runs(
        "fig13a",
        "SNB: query answering time on very large graphs (TRIC/TRIC+/GraphDB)".into(),
        "graph size (edges)",
        "answering time (ms/update)",
        x_values,
        runs,
    )
}

/// Fig. 13(b): query insertion (indexing) time vs |QDB|, all engines.
pub fn fig13b(scale: &ExperimentScale) -> FigureResult {
    let steps: Vec<f64> = (1..=5)
        .map(|i| (scale.base_queries as f64 * i as f64 / 5.0).round())
        .collect();
    let engines = EngineKind::all();
    let mut runs_by_x = Vec::new();
    for &qdb in &steps {
        let workload = Workload::generate(WorkloadConfig::new(
            Dataset::Snb,
            scale.base_graph_edges / 2,
            qdb as usize,
        ));
        // Indexing time only: replay zero updates by truncating the stream.
        let mut indexing_workload = workload;
        indexing_workload.stream.truncate(0);
        let mut runs = run_engines(&engines, &indexing_workload, scale.time_budget);
        // Re-purpose the plotted value: indexing ms per query.
        for r in &mut runs {
            r.answer_ms_per_update = r.indexing_ms_per_query;
        }
        runs_by_x.push(runs);
    }
    figure_from_runs(
        "fig13b",
        "SNB: query insertion time vs. |QDB|".into(),
        "query database size |QDB|",
        "indexing time (ms/query)",
        steps,
        runs_by_x,
    )
}

/// Fig. 13(c): memory requirements per engine on SNB / TAXI / BioGRID.
pub fn tab13c(scale: &ExperimentScale) -> FigureResult {
    let datasets = [Dataset::Snb, Dataset::Taxi, Dataset::BioGrid];
    let engines = EngineKind::all();
    let mut runs_by_x = Vec::new();
    for dataset in datasets {
        let mut config = WorkloadConfig::new(dataset, scale.base_graph_edges, scale.base_queries);
        if dataset == Dataset::BioGrid {
            config = config.with_query_size(3);
        }
        let workload = Workload::generate(config);
        let mut runs = run_engines(&engines, &workload, scale.time_budget);
        // Plotted value: heap megabytes after the run; a run the budget cut
        // short keeps its timed-out marker, since it measured a partial
        // stream.
        for r in &mut runs {
            r.answer_ms_per_update = r.heap_bytes as f64 / (1024.0 * 1024.0);
        }
        runs_by_x.push(runs);
    }
    figure_from_runs(
        "tab13c",
        "Memory requirements (MB) per engine — x: 1=SNB, 2=TAXI, 3=BioGRID".into(),
        "dataset (1=SNB, 2=TAXI, 3=BioGRID)",
        "engine state (MB)",
        vec![1.0, 2.0, 3.0],
        runs_by_x,
    )
}

/// Fig. 14(a): answering time vs graph size on the taxi dataset, all engines.
pub fn fig14a(scale: &ExperimentScale) -> FigureResult {
    let xs: Vec<f64> = (1..=5)
        .map(|i| (scale.base_graph_edges as f64 * i as f64 / 5.0 * 2.0).round())
        .collect();
    let (x_values, runs) = sweep(&EngineKind::all(), &xs, scale.time_budget, |edges| {
        Workload::generate(WorkloadConfig::new(
            Dataset::Taxi,
            edges as usize,
            scale.base_queries,
        ))
    });
    figure_from_runs(
        "fig14a",
        "TAXI: query answering time vs. graph size".into(),
        "graph size (edges)",
        "answering time (ms/update)",
        x_values,
        runs,
    )
}

/// Fig. 14(b): BioGRID stress test on small graphs, all engines.
pub fn fig14b(scale: &ExperimentScale) -> FigureResult {
    let xs: Vec<f64> = (1..=5)
        .map(|i| (scale.base_graph_edges as f64 * i as f64 / 10.0).round())
        .collect();
    let (x_values, runs) = sweep(&EngineKind::all(), &xs, scale.time_budget, |edges| {
        Workload::generate(
            WorkloadConfig::new(Dataset::BioGrid, edges as usize, scale.base_queries)
                .with_query_size(3),
        )
    });
    figure_from_runs(
        "fig14b",
        "BioGRID: query answering time vs. graph size (stress test)".into(),
        "graph size (edges)",
        "answering time (ms/update)",
        x_values,
        runs,
    )
}

/// Fig. 14(c): BioGRID on larger graphs, TRIC / TRIC+ / graph database only.
pub fn fig14c(scale: &ExperimentScale) -> FigureResult {
    let xs: Vec<f64> = (1..=4)
        .map(|i| (scale.base_graph_edges as f64 * i as f64 / 2.0).round())
        .collect();
    let (x_values, runs) = sweep(
        &EngineKind::large_graph_subset(),
        &xs,
        scale.time_budget,
        |edges| {
            Workload::generate(
                WorkloadConfig::new(Dataset::BioGrid, edges as usize, scale.base_queries)
                    .with_query_size(3),
            )
        },
    );
    figure_from_runs(
        "fig14c",
        "BioGRID: query answering time on larger graphs (TRIC/TRIC+/GraphDB)".into(),
        "graph size (edges)",
        "answering time (ms/update)",
        x_values,
        runs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_resolve() {
        let scale = ExperimentScale::tiny();
        for id in all_figure_ids() {
            assert!(run_figure(id, &scale).is_some(), "figure {id} must resolve");
        }
        assert!(run_figure("nonexistent", &scale).is_none());
    }

    #[test]
    fn fig12a_runs_at_tiny_scale_and_tric_wins() {
        let mut scale = ExperimentScale::tiny();
        scale.base_graph_edges = 250;
        scale.base_queries = 12;
        let fig = fig12a(&scale);
        assert_eq!(fig.series.len(), 7);
        assert_eq!(fig.x_values.len(), 5);
        let tric = fig.series_for("TRIC+").unwrap();
        let inv = fig.series_for("INV").unwrap();
        // At the largest size TRIC+ must not be slower than INV (it should be
        // much faster; allow equality for degenerate tiny runs).
        if let (Some(t), Some(i)) = (
            tric.values.last().copied().flatten(),
            inv.values.last().copied().flatten(),
        ) {
            assert!(
                t <= i * 1.5,
                "TRIC+ ({t}) unexpectedly slower than INV ({i})"
            );
        }
    }

    #[test]
    fn tab13c_reports_memory_for_every_engine_and_dataset() {
        let mut scale = ExperimentScale::tiny();
        scale.base_graph_edges = 200;
        scale.base_queries = 10;
        let fig = tab13c(&scale);
        assert_eq!(fig.x_values.len(), 3);
        // A run the budget cut short plots as `*` but still reports the
        // memory of the stream prefix it consumed.
        assert_eq!(fig.runs.len(), 3 * EngineKind::all().len());
        for run in &fig.runs {
            assert!(run.heap_bytes > 0, "{} reported zero memory", run.engine);
        }
    }

    #[test]
    fn tab13c_marks_every_run_the_budget_cuts_short() {
        let scale = ExperimentScale {
            time_budget: Duration::ZERO,
            ..ExperimentScale::tiny()
        };
        let csv = tab13c(&scale).to_csv();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let column = header.iter().position(|&c| c == "timed_out").unwrap();
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 3 * EngineKind::all().len());
        for row in rows {
            assert_eq!(row.split(',').nth(column), Some("true"), "{row}");
        }
    }

    #[test]
    fn fig13b_reports_indexing_time() {
        let mut scale = ExperimentScale::tiny();
        scale.base_graph_edges = 200;
        scale.base_queries = 20;
        let fig = fig13b(&scale);
        assert_eq!(fig.series.len(), 7);
        for series in &fig.series {
            assert!(series.values.iter().all(|v| v.is_some()));
        }
    }
}
