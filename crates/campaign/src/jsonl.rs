//! JSON Lines rendering of campaign records.
//!
//! One line per job. Only deterministic fields are emitted — wall-clock
//! runtime is deliberately absent — so the JSONL stream from the same job
//! matrix is bit-identical for any worker count, and two streams differ
//! only in line order (sort lines for a canonical comparison). The same
//! encoder writes the dist protocol's wire record ([`crate::protocol`]),
//! which adds the fields reports leave out.
//!
//! The workspace's vendored `serde` is a no-op stand-in, so the encoder is
//! hand-rolled; floats use Rust's shortest round-trip `Display`, which is
//! deterministic across runs and platforms.

use crate::runner::{CornerMetrics, JobRecord, VariationMetrics};
use contango_sim::VariationModel;
use std::fmt::Write as _;

/// Escapes a string for a JSON string literal (quotes, backslashes and
/// control characters). The matching decoder lives in [`crate::json`].
pub(crate) fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, "\"{key}\":\"");
    escape_into(out, value);
    out.push('"');
}

/// Encodes a [`VariationModel`] as a JSON object. The vendored serde is a
/// no-op stub, so this hand-rolled encoder (with the matching decoder in
/// [`crate::protocol`]) is the model's real wire codec. Floats use
/// shortest-round-trip `Display` like every other campaign float.
pub(crate) fn variation_model_into(out: &mut String, model: &VariationModel) {
    let _ = write!(
        out,
        "{{\"wire_res_sigma\":{},\"wire_cap_sigma\":{},\"buffer_res_sigma\":{},\
         \"vdd_sigma\":{},\"spatial_correlation\":{}}}",
        model.wire_res_sigma,
        model.wire_cap_sigma,
        model.buffer_res_sigma,
        model.vdd_sigma,
        model.spatial_correlation
    );
}

/// Encodes the per-corner metrics array (omitted entirely when empty, so
/// corner-less records stay byte-identical to older streams).
fn corners_into(out: &mut String, corners: &[CornerMetrics]) {
    if corners.is_empty() {
        return;
    }
    out.push_str(",\"corners\":[");
    for (i, c) in corners.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_str_field(out, "corner", &c.corner);
        let _ = write!(
            out,
            ",\"clr\":{},\"skew\":{},\"max_latency\":{}}}",
            c.clr, c.skew, c.max_latency
        );
    }
    out.push(']');
}

/// Encodes the Monte-Carlo variation block (omitted when the job carried no
/// variation axis).
fn variation_into(out: &mut String, variation: &VariationMetrics) {
    out.push_str(",\"variation\":{\"model\":");
    variation_model_into(out, &variation.model);
    let _ = write!(
        out,
        ",\"samples\":{},\"seed\":{},\"skews\":[",
        variation.samples, variation.seed
    );
    for (i, skew) in variation.skews.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{skew}");
    }
    let _ = write!(
        out,
        "],\"worst_skew\":{},\"mean_skew\":{}}}",
        variation.worst_skew, variation.mean_skew
    );
}

/// Renders one job record as its report line: a single JSON object (no
/// trailing newline) of deterministic fields only.
pub fn record_line(record: &JobRecord) -> String {
    let mut out = String::new();
    record_into(&mut out, record, false);
    out
}

/// Encodes a job record as one JSON object. The report form is
/// [`record_line`]; the `wire` form (the dist protocol's `job-done`
/// record) adds the fields reports leave out — wall-clock `runtime_s`
/// after `spice_runs`, and per stage `max_latency_ps`, `total_cap`,
/// `wirelength_um` and `slew_violation` — so the record survives the wire
/// bit for bit.
pub(crate) fn record_into(out: &mut String, record: &JobRecord, wire: bool) {
    out.push('{');
    push_str_field(out, "benchmark", &record.benchmark);
    out.push(',');
    push_str_field(out, "tool", &record.tool);
    let _ = write!(out, ",\"sinks\":{}", record.sinks);
    match &record.outcome {
        Ok(metrics) => {
            let s = &metrics.summary;
            let _ = write!(
                out,
                ",\"status\":\"ok\",\"clr_ps\":{},\"skew_ps\":{},\"max_latency_ps\":{},\
                 \"cap_pct\":{},\"wirelength_um\":{},\"buffers\":{},\"spice_runs\":{}",
                s.clr, s.skew, s.max_latency, s.cap_pct, s.wirelength, s.buffers, s.spice_runs
            );
            if wire {
                let _ = write!(out, ",\"runtime_s\":{}", s.runtime_s);
            }
            out.push_str(",\"stages\":[");
            for (i, snapshot) in metrics.snapshots.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('{');
                push_str_field(out, "stage", &snapshot.stage);
                let _ = write!(
                    out,
                    ",\"clr_ps\":{},\"skew_ps\":{}",
                    snapshot.clr, snapshot.skew
                );
                if wire {
                    let _ = write!(
                        out,
                        ",\"max_latency_ps\":{},\"total_cap\":{},\"wirelength_um\":{},\
                         \"slew_violation\":{}",
                        snapshot.max_latency,
                        snapshot.total_cap,
                        snapshot.wirelength,
                        snapshot.slew_violation
                    );
                }
                out.push('}');
            }
            out.push(']');
            corners_into(out, &metrics.corners);
            if let Some(variation) = &metrics.variation {
                variation_into(out, variation);
            }
        }
        Err(error) => {
            out.push_str(",\"status\":\"error\",");
            push_str_field(out, "error", &error.to_string());
        }
    }
    if let Some(cache) = &record.cache {
        let _ = write!(
            out,
            ",\"cache\":{{\"mem_hits\":{},\"disk_hits\":{},\"misses\":{},\"evictions\":{}}}",
            cache.mem_hits, cache.disk_hits, cache.misses, cache.evictions
        );
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::JobMetrics;
    use contango_benchmarks::report::RunSummary;
    use contango_core::error::CoreError;
    use contango_core::flow::StageSnapshot;

    fn summary() -> RunSummary {
        RunSummary {
            benchmark: "b\"1\"".to_string(),
            tool: "contango".to_string(),
            clr: 12.5,
            skew: 0.125,
            max_latency: 300.0,
            cap_pct: 42.42,
            wirelength: 12345.5,
            buffers: 7,
            spice_runs: 41,
            runtime_s: 9.87,
        }
    }

    #[test]
    fn ok_lines_carry_metrics_and_stages_but_no_wallclock() {
        let record = JobRecord {
            benchmark: "b\"1\"".to_string(),
            tool: "contango".to_string(),
            sinks: 10,
            outcome: Ok(JobMetrics {
                summary: summary(),
                snapshots: vec![StageSnapshot {
                    stage: "INITIAL".to_string(),
                    clr: 20.0,
                    skew: 5.5,
                    max_latency: 300.0,
                    total_cap: 1.0,
                    wirelength: 2.0,
                    slew_violation: false,
                }],
                corners: Vec::new(),
                variation: None,
            }),
            cache: None,
        };
        let line = record_line(&record);
        assert!(line.starts_with("{\"benchmark\":\"b\\\"1\\\"\""));
        assert!(!line.contains("cache"));
        assert!(line.contains("\"status\":\"ok\""));
        assert!(line.contains("\"clr_ps\":12.5"));
        assert!(line.contains("\"stages\":[{\"stage\":\"INITIAL\",\"clr_ps\":20,\"skew_ps\":5.5}]"));
        assert!(!line.contains("runtime"));
        assert!(!line.contains("corners"));
        assert!(!line.contains("variation"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn corner_and_variation_axes_extend_the_line_after_stages() {
        let record = JobRecord {
            benchmark: "b".to_string(),
            tool: "contango".to_string(),
            sinks: 10,
            outcome: Ok(JobMetrics {
                summary: summary(),
                snapshots: Vec::new(),
                corners: vec![CornerMetrics {
                    corner: "slow".to_string(),
                    clr: 14.25,
                    skew: 0.5,
                    max_latency: 320.0,
                }],
                variation: Some(VariationMetrics {
                    samples: 2,
                    seed: 7,
                    model: VariationModel::typical_45nm(),
                    skews: vec![0.25, 0.75],
                    worst_skew: 0.75,
                    mean_skew: 0.5,
                }),
            }),
            cache: None,
        };
        let line = record_line(&record);
        assert!(line.contains(
            "\"stages\":[],\"corners\":[{\"corner\":\"slow\",\"clr\":14.25,\"skew\":0.5,\
             \"max_latency\":320}]"
        ));
        assert!(line.contains(
            "\"variation\":{\"model\":{\"wire_res_sigma\":0.05,\"wire_cap_sigma\":0.05,\
             \"buffer_res_sigma\":0.08,\"vdd_sigma\":0.02,\"spatial_correlation\":0.5},\
             \"samples\":2,\"seed\":7,\"skews\":[0.25,0.75],\"worst_skew\":0.75,\"mean_skew\":0.5}"
        ));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn error_lines_carry_the_per_job_failure() {
        let record = JobRecord {
            benchmark: "b".to_string(),
            tool: "contango".to_string(),
            sinks: 3,
            outcome: Err(CoreError::EmptyPipeline),
            cache: Some(contango_sim::CacheCounters {
                mem_hits: 3,
                disk_hits: 2,
                misses: 1,
                evictions: 0,
            }),
        };
        let line = record_line(&record);
        assert!(line.contains("\"status\":\"error\""));
        assert!(line.contains("pipeline contains no passes"));
        assert!(line.ends_with(
            ",\"cache\":{\"mem_hits\":3,\"disk_hits\":2,\"misses\":1,\"evictions\":0}}"
        ));
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut out = String::new();
        escape_into(&mut out, "a\tb\u{1}c\\d");
        assert_eq!(out, "a\\tb\\u0001c\\\\d");
    }
}
