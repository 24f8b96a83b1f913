//! Rendering of experiment results as markdown tables and CSV.

use crate::harness::RunResult;

/// One engine's series across the x-axis of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Engine name.
    pub engine: &'static str,
    /// One y-value per x-value; `None` marks a run the time or memory budget
    /// cut (the asterisks in the paper's plots).
    pub values: Vec<Option<f64>>,
}

/// The reproduced data behind one figure or table of the paper.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Experiment identifier (e.g. `fig12a`).
    pub id: &'static str,
    /// Human-readable title.
    pub title: String,
    /// Label of the x-axis.
    pub x_label: &'static str,
    /// Label of the y-axis / cell values.
    pub y_label: &'static str,
    /// The x-axis values.
    pub x_values: Vec<f64>,
    /// One series per engine.
    pub series: Vec<Series>,
    /// Full per-run details (flattened), for CSV output and EXPERIMENTS.md.
    pub runs: Vec<RunResult>,
}

impl FigureResult {
    /// Renders the figure as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        out.push_str(&format!(
            "{} vs. {} (runs cut by the time or memory budget shown as `*`).\n\n",
            self.y_label, self.x_label
        ));
        out.push_str(&format!("| {} |", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {} |", s.engine));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        for (i, x) in self.x_values.iter().enumerate() {
            out.push_str(&format!("| {} |", format_number(*x)));
            for s in &self.series {
                match s.values.get(i).copied().flatten() {
                    Some(v) => out.push_str(&format!(" {v:.3} |")),
                    None => out.push_str(" * |"),
                }
            }
            out.push('\n');
        }
        out.push('\n');
        out
    }

    /// Renders the underlying runs as CSV (one row per engine × x-value).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "figure,x,engine,answer_ms_per_update,p95_ms,indexing_ms_per_query,updates_processed,notifications,embeddings,heap_bytes,timed_out,over_memory\n",
        );
        let per_x = self.series.len();
        for (i, run) in self.runs.iter().enumerate() {
            let x = self
                .x_values
                .get(i.checked_div(per_x).unwrap_or(0))
                .copied()
                .unwrap_or(f64::NAN);
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6},{:.6},{},{},{},{},{},{}\n",
                self.id,
                x,
                run.engine,
                run.answer_ms_per_update,
                run.answer_p95_ms,
                run.indexing_ms_per_query,
                run.updates_processed,
                run.notifications,
                run.embeddings,
                run.heap_bytes,
                run.timed_out,
                run.over_memory
            ));
        }
        out
    }

    /// The series of a given engine, if present.
    pub fn series_for(&self, engine: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.engine == engine)
    }
}

/// Formats an x value without trailing `.0` noise.
pub fn format_number(x: f64) -> String {
    if (x.fract()).abs() < 1e-9 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

/// Builds a [`FigureResult`] from per-x-value runs: `runs_by_x[i]` holds the
/// results of every engine at `x_values[i]`, in the same engine order.
pub fn figure_from_runs(
    id: &'static str,
    title: String,
    x_label: &'static str,
    y_label: &'static str,
    x_values: Vec<f64>,
    runs_by_x: Vec<Vec<RunResult>>,
) -> FigureResult {
    let engines: Vec<&'static str> = runs_by_x
        .first()
        .map(|rs| rs.iter().map(|r| r.engine).collect())
        .unwrap_or_default();
    let mut series: Vec<Series> = engines
        .iter()
        .map(|&engine| Series {
            engine,
            values: Vec::with_capacity(x_values.len()),
        })
        .collect();
    for runs in &runs_by_x {
        for (slot, run) in series.iter_mut().zip(runs.iter()) {
            debug_assert_eq!(slot.engine, run.engine);
            slot.values.push(run.plotted_value());
        }
    }
    FigureResult {
        id,
        title,
        x_label,
        y_label,
        x_values,
        series,
        runs: runs_by_x.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fake_run(engine: &'static str, ms: f64, timed_out: bool) -> RunResult {
        RunResult {
            engine,
            indexing_total: Duration::from_millis(5),
            indexing_ms_per_query: 0.05,
            answer_ms_per_update: ms,
            answer_p95_ms: ms * 2.0,
            updates_processed: 100,
            notifications: 10,
            embeddings: 20,
            heap_bytes: 1024,
            timed_out,
            over_memory: false,
        }
    }

    fn fake_figure() -> FigureResult {
        figure_from_runs(
            "figX",
            "test figure".into(),
            "graph size",
            "ms/update",
            vec![1000.0, 2000.0],
            vec![
                vec![fake_run("TRIC", 0.1, false), fake_run("INV", 1.5, false)],
                vec![fake_run("TRIC", 0.2, false), fake_run("INV", 0.0, true)],
            ],
        )
    }

    #[test]
    fn markdown_contains_all_series_and_timeouts() {
        let md = fake_figure().to_markdown();
        assert!(md.contains("| graph size | TRIC | INV |"));
        assert!(md.contains("| 1000 | 0.100 | 1.500 |"));
        assert!(md.contains("| 2000 | 0.200 | * |"));
    }

    #[test]
    fn csv_has_one_row_per_run() {
        let csv = fake_figure().to_csv();
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.lines().last().unwrap().contains("true"));
    }

    #[test]
    fn a_memory_cut_plots_as_a_star_and_has_its_own_csv_column() {
        let mut cut = fake_run("TRIC+", 0.3, false);
        cut.over_memory = true;
        let fig = figure_from_runs(
            "figY",
            "memory cut".into(),
            "graph size",
            "ms/update",
            vec![1000.0],
            vec![vec![fake_run("TRIC", 0.1, false), cut]],
        );
        assert_eq!(fig.series_for("TRIC+").unwrap().values, vec![None]);
        assert!(fig.to_markdown().contains("| 1000 | 0.100 | * |"));
        let csv = fig.to_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().ends_with(",timed_out,over_memory"));
        assert!(lines.next().unwrap().ends_with(",false,false"));
        assert!(lines.next().unwrap().ends_with(",false,true"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn series_lookup() {
        let fig = fake_figure();
        assert!(fig.series_for("TRIC").is_some());
        assert!(fig.series_for("TRIC+").is_none());
        assert_eq!(fig.series_for("INV").unwrap().values[1], None);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(5.0), "5");
        assert_eq!(format_number(0.25), "0.25");
    }
}
