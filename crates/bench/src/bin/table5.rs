//! Table V — scalability on TI-style benchmarks: CLR, skew, maximum
//! latency, capacitance and evaluator-run counts as the sink count grows.
//!
//! The paper sweeps 200…50 000 sinks; by default this binary runs the
//! smaller prefix so it finishes quickly. Pass sink counts as arguments or
//! set `CONTANGO_FULL=1` for the complete sweep. Each run's wall-clock
//! runtime goes to stderr, so stdout repeats exactly.

use contango_benchmarks::ti_instance;
use contango_core::flow::{ContangoFlow, FlowConfig};
use contango_tech::Technology;

fn main() {
    let args: Vec<usize> = std::env::args()
        .skip(1)
        .filter_map(|a| a.parse().ok())
        .collect();
    let sizes: Vec<usize> = if !args.is_empty() {
        args
    } else if std::env::var("CONTANGO_FULL").is_ok_and(|v| v == "1") {
        vec![200, 500, 1000, 2000, 5000, 10_000, 20_000, 50_000]
    } else {
        vec![200, 500, 1000]
    };

    println!("Table V — scalability on TI-style benchmarks");
    println!(
        "{:<9} {:>9} {:>9} {:>12} {:>10} {:>8}",
        "# sinks", "CLR ps", "Skew ps", "Latency ps", "Cap pF", "runs"
    );
    contango_bench::rule(72);
    for &n in &sizes {
        let instance = ti_instance(n, 0x5EED);
        let flow = ContangoFlow::new(Technology::ti45(), FlowConfig::scalability());
        match flow.run(&instance) {
            Ok(r) => {
                println!(
                    "{:<9} {:>9.2} {:>9.3} {:>12.1} {:>10.1} {:>8}",
                    n,
                    r.clr(),
                    r.skew(),
                    r.report.max_latency(),
                    r.report.total_cap / 1000.0,
                    r.spice_runs
                );
                eprintln!("{n} sinks: runtime {:.1} s", r.runtime_s);
            }
            Err(e) => println!("{n}: failed: {e}"),
        }
    }
    println!();
    println!("paper shape: capacitance scales linearly with sinks, skew stays in single-digit ps,");
    println!("CLR grows slowly, and the number of evaluator runs grows very slowly.");
}
