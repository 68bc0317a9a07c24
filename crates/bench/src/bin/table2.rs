//! Table II — inverted sinks after buffer insertion vs. polarity-correcting
//! inverters added, per ISPD'09-style benchmark.

use contango_bench::{instance_for, sink_cap};
use contango_benchmarks::ispd09_suite;
use contango_core::construct::{construct_initial, ConstructArena};
use contango_core::flow::FlowConfig;
use contango_core::pipeline::InitialConstruction;
use contango_core::polarity::count_inverted_sinks;
use contango_tech::Technology;

fn main() {
    let tech = Technology::ispd09();
    let cap = sink_cap();
    // The flow's own INITIAL construction, polarity correction included.
    let config = InitialConstruction::from_config(&FlowConfig::default()).config;
    let mut arena = ConstructArena::new();
    println!("Table II — inverted sinks vs. polarity-correcting inverters");
    println!(
        "{:<14} {:>8} {:>16} {:>16}",
        "benchmark", "sinks", "inverted sinks", "added inverters"
    );
    contango_bench::rule(58);
    for spec in ispd09_suite() {
        let instance = instance_for(&spec, cap);
        let (tree, reports) =
            construct_initial(&instance, &tech, &config, &mut arena).expect("buffering fits");
        assert_eq!(count_inverted_sinks(&tree), 0);
        let report = reports.polarity;
        println!(
            "{:<14} {:>8} {:>16} {:>16}",
            spec.name,
            instance.sink_count(),
            report.inverted_sinks,
            report.added_inverters
        );
    }
    println!();
    println!("paper reference: inverted sinks 46–153, added inverters 2–16 (far fewer than sinks)");
}
