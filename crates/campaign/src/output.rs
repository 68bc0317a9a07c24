//! Campaign result rendering shared by every front-end.
//!
//! The CLI `suite` command and the `contango serve` daemon both render a
//! [`CampaignResult`] through [`suite_output`]; because it is literally the
//! same function, a serve response body is bit-identical to the offline
//! output for the same manifest — there is no second formatter to drift.

use crate::pareto::Frontier;
use crate::runner::CampaignResult;
use contango_benchmarks::report::Table;

/// Which report a campaign renders to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportKind {
    /// Aggregate tables: per-run summary, per-stage means, SPICE-run
    /// counts, and (when present) a failure table.
    #[default]
    Table,
    /// JSON Lines, one record per job in submission order.
    Jsonl,
    /// The Pareto frontier over (worst-case skew, cap %, wirelength) as a
    /// table in canonical (benchmark, tool) order.
    Pareto,
    /// The Pareto frontier as JSON Lines, one non-dominated point per line
    /// plus a trailing reduction summary.
    FrontierJsonl,
}

impl ReportKind {
    /// The wire/CLI name of the report kind.
    pub fn label(&self) -> &'static str {
        match self {
            ReportKind::Table => "table",
            ReportKind::Jsonl => "jsonl",
            ReportKind::Pareto => "pareto",
            ReportKind::FrontierJsonl => "frontier-jsonl",
        }
    }

    /// Parses a wire/CLI report name.
    pub fn from_label(label: &str) -> Option<ReportKind> {
        match label {
            "table" => Some(ReportKind::Table),
            "jsonl" => Some(ReportKind::Jsonl),
            "pareto" => Some(ReportKind::Pareto),
            "frontier-jsonl" => Some(ReportKind::FrontierJsonl),
            _ => None,
        }
    }
}

/// How tables are laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TableFormat {
    /// Right-aligned plain text.
    #[default]
    Text,
    /// GitHub-flavored Markdown.
    Markdown,
    /// RFC-4180-style CSV.
    Csv,
}

impl TableFormat {
    /// The wire/CLI name of the format.
    pub fn label(&self) -> &'static str {
        match self {
            TableFormat::Text => "text",
            TableFormat::Markdown => "markdown",
            TableFormat::Csv => "csv",
        }
    }

    /// Parses a wire/CLI format name (`md` is short for `markdown`).
    pub fn from_label(label: &str) -> Option<TableFormat> {
        match label {
            "text" => Some(TableFormat::Text),
            "markdown" | "md" => Some(TableFormat::Markdown),
            "csv" => Some(TableFormat::Csv),
            _ => None,
        }
    }
}

/// Renders one table in the requested format.
pub fn render_table(table: &Table, format: TableFormat) -> String {
    match format {
        TableFormat::Text => table.to_text(),
        TableFormat::Markdown => table.to_markdown(),
        TableFormat::Csv => table.to_csv(),
    }
}

/// Renders a campaign result the way the CLI `suite` command reports it:
/// either JSON Lines, or the summary / stage-aggregate / run-count tables
/// (plus a failure table when any job failed) separated by blank lines.
pub fn suite_output(result: &CampaignResult, report: ReportKind, format: TableFormat) -> String {
    match report {
        ReportKind::Jsonl => result.to_jsonl(),
        ReportKind::Pareto => {
            let mut out = render_table(&Frontier::of_result(result).table(), format);
            let failures = result.failures();
            if !failures.is_empty() {
                let mut table = Table::new(["benchmark", "tool", "error"]);
                for (record, error) in failures {
                    table.push_row([
                        record.benchmark.clone(),
                        record.tool.clone(),
                        error.to_string(),
                    ]);
                }
                out.push('\n');
                out.push_str(&render_table(&table, format));
            }
            out
        }
        ReportKind::FrontierJsonl => Frontier::of_result(result).to_jsonl(),
        ReportKind::Table => {
            let mut out = String::new();
            out.push_str(&render_table(&result.suite_table(), format));
            out.push('\n');
            out.push_str(&render_table(&result.stage_aggregate_table(), format));
            out.push('\n');
            out.push_str(&render_table(&result.run_count_table(), format));
            // Failures go out as one more table so csv/markdown output
            // stays parseable (they are also reported per job and in the
            // exit status / response fields).
            let failures = result.failures();
            if !failures.is_empty() {
                let mut table = Table::new(["benchmark", "tool", "error"]);
                for (record, error) in failures {
                    table.push_row([
                        record.benchmark.clone(),
                        record.tool.clone(),
                        error.to_string(),
                    ]);
                }
                out.push('\n');
                out.push_str(&render_table(&table, format));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for kind in [
            ReportKind::Table,
            ReportKind::Jsonl,
            ReportKind::Pareto,
            ReportKind::FrontierJsonl,
        ] {
            assert_eq!(ReportKind::from_label(kind.label()), Some(kind));
        }
        for format in [TableFormat::Text, TableFormat::Markdown, TableFormat::Csv] {
            assert_eq!(TableFormat::from_label(format.label()), Some(format));
        }
        assert_eq!(TableFormat::from_label("md"), Some(TableFormat::Markdown));
        assert_eq!(ReportKind::from_label("yaml"), None);
        assert_eq!(TableFormat::from_label("latex"), None);
    }
}
