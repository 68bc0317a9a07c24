//! Shared helpers for the table and figure reproduction binaries.
//!
//! Every table and figure of the paper's evaluation section has a dedicated
//! binary in `src/bin/`, named after its exhibit (`table1`–`table5`,
//! `figure1`–`figure3`), plus the `ablation` and `variation` studies. The
//! binaries print the same rows the paper reports; performance is measured
//! by the separate `perfbench` package instead. Because the full-size
//! ISPD'09-style instances take minutes under the transient evaluator, the
//! binaries honour two environment variables:
//!
//! * `CONTANGO_MAX_SINKS` — truncate every benchmark to at most this many
//!   sinks (default 32; set to a large value for full-size runs);
//! * `CONTANGO_FULL=1` — shorthand for no truncation.

use contango_benchmarks::{make_instance, BenchmarkSpec};
use contango_core::instance::ClockNetInstance;

/// Reads the sink-count cap from the environment (see crate docs).
pub fn sink_cap() -> usize {
    if std::env::var("CONTANGO_FULL").is_ok_and(|v| v == "1") {
        return usize::MAX;
    }
    std::env::var("CONTANGO_MAX_SINKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

/// Generates the instance for `spec`, truncated to at most `max_sinks`
/// sinks (keeping the die, obstacles and capacitance budget).
pub fn instance_for(spec: &BenchmarkSpec, max_sinks: usize) -> ClockNetInstance {
    let full = make_instance(spec);
    if full.sink_count() <= max_sinks {
        return full;
    }
    let mut builder = ClockNetInstance::builder(&full.name)
        .die(full.die.lo.x, full.die.lo.y, full.die.hi.x, full.die.hi.y)
        .source(full.source)
        .cap_limit(full.cap_limit);
    for s in full.sinks.iter().take(max_sinks) {
        builder = builder.sink(s.location, s.cap);
    }
    for o in full.obstacles.iter() {
        builder = builder.obstacle(o.rect);
    }
    builder.build().expect("truncated instances stay valid")
}

/// Prints a horizontal rule sized for the table binaries.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}
