//! Result tables and metric rows for the experiment harness.
//!
//! The benchmark binaries (`table1` … `table5`, `figure2`, `figure3`) and
//! the command-line tool all print tabular results; this module centralizes
//! the row extraction from a [`FlowResult`] and the rendering, so every
//! harness prints the same columns the paper reports:
//!
//! * per-stage CLR/skew rows (Table III),
//! * per-benchmark CLR / capacitance-% / runtime rows (Table IV),
//! * scalability rows with sink count, CLR, skew, latency, capacitance and
//!   evaluator-run counts (Table V).

use contango_core::flow::{FlowResult, StageSnapshot};
use contango_core::instance::ClockNetInstance;
use serde::Serialize;
use std::fmt::Write as _;

/// A plain table: a header row plus data rows, renderable as aligned text,
/// Markdown or CSV.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row should have as many cells as there are headers.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row's cell count differs from the header count.
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as space-aligned plain text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{cell:>width$}  ", width = widths[i]);
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }

    /// Renders the table as GitHub-flavoured Markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.headers
                .iter()
                .map(|_| " --- ")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// Renders the table as CSV (no quoting; cells must not contain commas).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// One summary row for a completed flow run (Table IV style).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunSummary {
    /// Benchmark name.
    pub benchmark: String,
    /// Flow/tool label (e.g. `"contango"` or a baseline label).
    pub tool: String,
    /// Clock Latency Range, ps.
    pub clr: f64,
    /// Nominal skew, ps.
    pub skew: f64,
    /// Maximum sink latency, ps.
    pub max_latency: f64,
    /// Capacitance used, as a percentage of the benchmark's budget.
    pub cap_pct: f64,
    /// Total wirelength, µm.
    pub wirelength: f64,
    /// Number of buffers in the final tree.
    pub buffers: usize,
    /// Evaluator invocations ("SPICE runs").
    pub spice_runs: usize,
    /// Flow runtime in seconds.
    pub runtime_s: f64,
}

impl RunSummary {
    /// Extracts a summary row from a flow result.
    pub fn from_result(
        benchmark: &str,
        tool: &str,
        instance: &ClockNetInstance,
        result: &FlowResult,
    ) -> Self {
        Self {
            benchmark: benchmark.to_string(),
            tool: tool.to_string(),
            clr: result.clr(),
            skew: result.skew(),
            max_latency: result.report.max_latency(),
            cap_pct: 100.0 * result.cap_fraction(instance),
            wirelength: result.tree.wirelength(),
            buffers: result.tree.buffer_count(),
            spice_runs: result.spice_runs,
            runtime_s: result.runtime_s,
        }
    }
}

/// Builds a Table-IV-style comparison table from run summaries.
pub fn comparison_table(rows: &[RunSummary]) -> Table {
    let mut table = Table::new([
        "benchmark",
        "tool",
        "CLR (ps)",
        "skew (ps)",
        "cap (%)",
        "runtime (s)",
    ]);
    for r in rows {
        table.push_row([
            r.benchmark.clone(),
            r.tool.clone(),
            format_ps(r.clr),
            format_ps(r.skew),
            format!("{:.2}", r.cap_pct),
            format!("{:.2}", r.runtime_s),
        ]);
    }
    table
}

/// Builds a Table-III-style stage-progress table from a flow result.
pub fn stage_table(benchmark: &str, result: &FlowResult) -> Table {
    let mut table = Table::new(["benchmark", "stage", "CLR (ps)", "skew (ps)", "cap (fF)"]);
    for snapshot in &result.snapshots {
        table.push_row([
            benchmark.to_string(),
            snapshot.stage.clone(),
            format_ps(snapshot.clr),
            format_ps(snapshot.skew),
            format!("{:.1}", snapshot.total_cap),
        ]);
    }
    table
}

/// Per-stage CLR/skew means of one tool across a benchmark suite (an
/// aggregated Table-III row).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageAggregate {
    /// Flow/tool label.
    pub tool: String,
    /// Stage acronym.
    pub stage: String,
    /// Number of benchmark runs contributing to the means.
    pub benchmarks: usize,
    /// Mean CLR after this stage, ps.
    pub mean_clr: f64,
    /// Mean nominal skew after this stage, ps.
    pub mean_skew: f64,
}

/// Aggregates per-run stage snapshots into per-(tool, stage) means.
///
/// Runs are reduced in canonical `(tool, benchmark)` order regardless of
/// the order given — ties on that key (two runs sharing a tool *and*
/// benchmark label) are broken by the snapshot content itself, bitwise —
/// so the floating-point sums, and therefore the aggregate, are
/// bit-identical however the runs were produced, scheduled or permuted.
/// Stages appear in the order the first run of each tool reports them
/// (methodology order for the standard pipeline).
pub fn aggregate_stages<'a, I>(runs: I) -> Vec<StageAggregate>
where
    I: IntoIterator<Item = (&'a str, &'a str, &'a [StageSnapshot])>,
{
    // Decorate-sort: the content tie-break key is computed once per run,
    // not on every comparison.
    type DecoratedRun<'a> = (
        &'a str,
        &'a str,
        &'a [StageSnapshot],
        Vec<(&'a str, u64, u64)>,
    );
    let mut sorted: Vec<DecoratedRun<'_>> = runs
        .into_iter()
        .map(|(tool, benchmark, snapshots)| {
            let key: Vec<(&str, u64, u64)> = snapshots
                .iter()
                .map(|s| (s.stage.as_str(), s.clr.to_bits(), s.skew.to_bits()))
                .collect();
            (tool, benchmark, snapshots, key)
        })
        .collect();
    sorted.sort_by(|a, b| (a.0, a.1, &a.3).cmp(&(b.0, b.1, &b.3)));
    // (tool, stage) -> (count, clr sum, skew sum), in first-seen order of
    // the canonical walk.
    let mut acc: Vec<(String, String, usize, f64, f64)> = Vec::new();
    for (tool, _benchmark, snapshots, _key) in sorted {
        for snapshot in snapshots {
            match acc
                .iter_mut()
                .find(|(t, s, ..)| t == tool && *s == snapshot.stage)
            {
                Some((_, _, count, clr, skew)) => {
                    *count += 1;
                    *clr += snapshot.clr;
                    *skew += snapshot.skew;
                }
                None => acc.push((
                    tool.to_string(),
                    snapshot.stage.clone(),
                    1,
                    snapshot.clr,
                    snapshot.skew,
                )),
            }
        }
    }
    acc.into_iter()
        .map(|(tool, stage, count, clr, skew)| StageAggregate {
            tool,
            stage,
            benchmarks: count,
            mean_clr: clr / count as f64,
            mean_skew: skew / count as f64,
        })
        .collect()
}

/// Renders stage aggregates as a table (aggregated Table III).
pub fn stage_aggregate_table(aggregates: &[StageAggregate]) -> Table {
    let mut table = Table::new([
        "tool",
        "stage",
        "benchmarks",
        "mean CLR (ps)",
        "mean skew (ps)",
    ]);
    for a in aggregates {
        table.push_row([
            a.tool.clone(),
            a.stage.clone(),
            a.benchmarks.to_string(),
            format_ps(a.mean_clr),
            format_ps(a.mean_skew),
        ]);
    }
    table
}

/// Builds a Table-V-style evaluator-run-count table, canonically sorted by
/// (benchmark, tool).
pub fn run_count_table(rows: &[RunSummary]) -> Table {
    let mut sorted: Vec<&RunSummary> = rows.iter().collect();
    sorted.sort_by(|a, b| (&a.benchmark, &a.tool).cmp(&(&b.benchmark, &b.tool)));
    let mut table = Table::new(["benchmark", "tool", "SPICE runs"]);
    for r in sorted {
        table.push_row([
            r.benchmark.clone(),
            r.tool.clone(),
            r.spice_runs.to_string(),
        ]);
    }
    table
}

/// Formats a picosecond quantity with the precision the paper uses
/// (two decimals below 100 ps, one above).
pub fn format_ps(value: f64) -> String {
    if value.abs() < 100.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ispd09_suite, make_instance};
    use contango_core::flow::{ContangoFlow, FlowConfig};
    use contango_tech::Technology;

    fn small_run() -> (ClockNetInstance, FlowResult) {
        let mut spec = ispd09_suite()[6].clone();
        spec.sinks = 12;
        spec.obstacles = 0;
        let instance = make_instance(&spec);
        let result = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast())
            .run(&instance)
            .expect("flow runs");
        (instance, result)
    }

    #[test]
    fn table_rendering_round_trips_all_cells() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["1", "2"]);
        t.push_row(["333", "4"]);
        assert_eq!(t.len(), 2);
        let text = t.to_text();
        assert!(text.contains("333"));
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |"));
        assert_eq!(md.lines().count(), 4);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("333,4"));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_rows_are_rejected() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn run_summary_extracts_the_paper_metrics() {
        let (instance, result) = small_run();
        let summary = RunSummary::from_result("fnb1-small", "contango", &instance, &result);
        assert!(summary.clr >= summary.skew || summary.clr >= 0.0);
        assert!(summary.cap_pct > 0.0 && summary.cap_pct <= 100.0);
        assert!(summary.buffers > 0);
        assert!(summary.spice_runs > 0);
        let table = comparison_table(std::slice::from_ref(&summary));
        assert_eq!(table.len(), 1);
        assert!(table.to_text().contains("contango"));
        let stages = stage_table("fnb1-small", &result);
        assert_eq!(stages.len(), result.snapshots.len());
    }

    #[test]
    fn run_count_table_sorts_canonically_and_drops_wallclock() {
        let (instance, result) = small_run();
        let mut a = RunSummary::from_result("bbb", "contango", &instance, &result);
        a.runtime_s = 1.23;
        let mut b = a.clone();
        b.benchmark = "aaa".to_string();
        b.tool = "dme-no-tuning".to_string();
        let rows = vec![a, b];
        let runs = run_count_table(&rows);
        assert!(!runs.to_text().contains("runtime"));
        assert_eq!(runs.rows[0][1], "dme-no-tuning");
        assert_eq!(runs.rows[1][2], rows[0].spice_runs.to_string());
    }

    #[test]
    fn stage_aggregates_are_order_independent_means() {
        let (_, result) = small_run();
        let snaps: &[_] = &result.snapshots;
        let forward = aggregate_stages(vec![
            ("contango", "b1", snaps),
            ("contango", "b2", snaps),
            ("dme", "b1", &snaps[..1]),
        ]);
        let shuffled = aggregate_stages(vec![
            ("dme", "b1", &snaps[..1]),
            ("contango", "b2", snaps),
            ("contango", "b1", snaps),
        ]);
        assert_eq!(forward, shuffled);
        let first = &forward[0];
        assert_eq!(first.tool, "contango");
        assert_eq!(first.stage, "INITIAL");
        assert_eq!(first.benchmarks, 2);
        assert_eq!(first.mean_clr.to_bits(), result.snapshots[0].clr.to_bits());
        let table = stage_aggregate_table(&forward);
        assert_eq!(table.len(), forward.len());
        assert!(table.to_text().contains("INITIAL"));
    }

    #[test]
    fn duplicate_tool_benchmark_keys_still_reduce_in_a_canonical_order() {
        // Two runs sharing the same (tool, benchmark) label but with
        // different metrics: the bitwise content tie-break must make the
        // reduction order — and therefore the FP sums — permutation-proof.
        let (_, result) = small_run();
        let snaps = result.snapshots.clone();
        let mut other = snaps.clone();
        for s in &mut other {
            s.clr *= 1.5;
            s.skew *= 0.5;
        }
        let forward = aggregate_stages(vec![
            ("contango", "b1", &snaps[..]),
            ("contango", "b1", &other[..]),
        ]);
        let reversed = aggregate_stages(vec![
            ("contango", "b1", &other[..]),
            ("contango", "b1", &snaps[..]),
        ]);
        assert_eq!(forward, reversed);
        assert_eq!(forward[0].benchmarks, 2);
    }

    #[test]
    fn ps_formatting_matches_paper_precision() {
        assert_eq!(format_ps(2.124), "2.12");
        assert_eq!(format_ps(13.47), "13.47");
        assert_eq!(format_ps(506.8), "506.8");
    }
}
