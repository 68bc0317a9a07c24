//! One benchmark for the Contango flow: the paper's five-stage flow on the
//! ISPD'09-style suite, and the warm serve path.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload ispd09-flow --seed 0 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end set ([`END_TO_END`]); with `--trace 1` a
//! separate, instrumented run reports the per-layer set ([`PER_LAYER`]).
//! All timing is taken here, around calls into the library's public API;
//! the library itself is not instrumented. See `perfbench/README.md` for
//! every metric's definition.

mod flow;
mod layers;
mod serve;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_rps", "req/s"),
    ("skew_ps", "ps"),
    ("clr_ps", "ps"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("pass.INITIAL.s", "s"),
    ("pass.INITIAL.evals", "count"),
    ("pass.INITIAL.solves", "count"),
    ("pass.INITIAL.rounds", "count"),
    ("pass.TBSZ.s", "s"),
    ("pass.TBSZ.evals", "count"),
    ("pass.TBSZ.solves", "count"),
    ("pass.TBSZ.rounds", "count"),
    ("pass.TWSZ.s", "s"),
    ("pass.TWSZ.evals", "count"),
    ("pass.TWSZ.solves", "count"),
    ("pass.TWSZ.rounds", "count"),
    ("pass.TWSN.s", "s"),
    ("pass.TWSN.evals", "count"),
    ("pass.TWSN.solves", "count"),
    ("pass.TWSN.rounds", "count"),
    ("pass.BWSN.s", "s"),
    ("pass.BWSN.evals", "count"),
    ("pass.BWSN.solves", "count"),
    ("pass.BWSN.rounds", "count"),
    ("pipeline.snapshot_s", "s"),
    ("flow.finish_s", "s"),
    ("construct.topology_s", "s"),
    ("construct.repair_s", "s"),
    ("construct.split_s", "s"),
    ("construct.buffering_s", "s"),
    ("construct.polarity_s", "s"),
    ("construct.nodes", "count"),
    ("construct.arena_mb", "MiB"),
    ("slack.s", "s"),
    ("lower.to_netlist_s", "s"),
    ("eval.runs", "count"),
    ("eval.stage_lowerings", "count"),
    ("eval.stage_hit_ratio", "ratio"),
    ("eval.solve_hit_ratio", "ratio"),
    ("eval.evictions", "count"),
    ("transient.solves", "count"),
    ("transient.steps_per_solve", "steps"),
    ("transient.node_steps_per_s", "1/s"),
    ("store.mem_hits", "count"),
    ("store.disk_hits", "count"),
    ("store.misses", "count"),
    ("manifest.compile_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("output.render_us", "us"),
    ("serve.accepted", "count"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("slew_violations", "count"),
    ("latency.samples", "count"),
    ("latency.tail_pct", "%"),
    ("latency.p99_ms", "ms"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.opt_passes_pct", "%"),
    ("trace.slack_pct", "%"),
];

/// The workload a run measures.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// `ispd09-flow`.
    Ispd09Flow,
    /// `serve-warm`.
    ServeWarm,
}

/// Checked command-line options.
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed; 0 reproduces the ROADMAP baseline instances.
    pub seed: u64,
    /// How long the measured loop runs, in seconds.
    pub seconds: f64,
    /// Instrumented per-layer run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("invalid value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "ispd09-flow" => Workload::Ispd09Flow,
                    "serve-warm" => Workload::ServeWarm,
                    _ => return Err(format!("unknown workload `{value}`")),
                })
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("`--workload` is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Metric values by name; every name must appear in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted: jobs, requests and construction replays.
    pub attempted: u64,
    /// Operations that failed an output check.
    pub failed: u64,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Sets a metric; non-finite values (an empty ratio) read 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation (0 for none).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail quantile the end-to-end `latency_p95_ms` reports. p95, not
/// p99: a serve run's p99 rested on its slowest ~17 of ~1,700 requests and
/// moved by 12% between the two halves of one run, where p95 moved by 7%
/// and the median by 6% (see `perfbench/README.md`).
pub const TAIL: f64 = 0.95;

/// The quantile reported for `target`: `target` itself when at least ten
/// samples lie beyond it, else the highest quantile that leaves ten beyond
/// it, else (fewer than 20 samples) the median.
pub fn tail_quantile(target: f64, samples: usize) -> f64 {
    let n = samples as f64;
    if n * (1.0 - target) >= 10.0 {
        target
    } else if samples >= 20 {
        1.0 - 10.0 / n
    } else {
        0.5
    }
}

/// Geometric mean of positive values (0 for none) — the suite aggregate
/// for skew and CLR, which span three orders of magnitude per instance.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let logs: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (logs / values.len() as f64).exp()
}

/// Process peak resident set in MiB.
pub fn peak_rss_mb() -> f64 {
    contango_core::mem::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}

/// SplitMix64-style mix of a workload seed, a replica index and a
/// baseline instance seed: every instance seed changes with the workload
/// seed, and seed 0 keeps replica 0 on the baseline.
pub fn derive_seed(seed: u64, replica: u64, base: u64) -> u64 {
    if seed == 0 && replica == 0 {
        return base;
    }
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(replica.wrapping_mul(0xD1B5_4A32_D192_ED03))
        ^ base;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn print_result(outcome: &Outcome, trace: bool) {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::from("{");
    json.push_str(&format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    ));
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("{name:<28} {value:>16.6} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let outcome = match options.workload {
        Workload::Ispd09Flow => flow::run(&options),
        Workload::ServeWarm => serve::run(&options),
    };
    match outcome {
        Ok(outcome) => {
            print_result(&outcome, options.trace);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
