//! Table IV — Contango vs. baseline flows on the ISPD'09-style suite:
//! CLR, skew and capacitance (% of limit), with relative averages. Each
//! flow's wall-clock runtime goes to stderr, so stdout repeats exactly.

use contango_baselines::{run_baseline, BaselineKind};
use contango_bench::{instance_for, sink_cap};
use contango_benchmarks::ispd09_suite;
use contango_core::flow::{ContangoFlow, FlowConfig};
use contango_tech::Technology;

fn main() {
    let tech = Technology::ispd09();
    let cap = sink_cap();
    println!("Table IV — results on the ISPD'09-style benchmark suite");
    println!(
        "{:<14} {:<18} {:>10} {:>10} {:>10}",
        "benchmark", "flow", "CLR ps", "Skew ps", "Cap %"
    );
    contango_bench::rule(78);

    let mut totals: std::collections::BTreeMap<String, (f64, usize)> = Default::default();
    for spec in ispd09_suite() {
        let instance = instance_for(&spec, cap);
        let mut rows: Vec<(String, f64, f64, f64, f64)> = Vec::new();
        match ContangoFlow::new(tech.clone(), FlowConfig::default()).run(&instance) {
            Ok(r) => rows.push((
                "contango".into(),
                r.clr(),
                r.skew(),
                100.0 * r.cap_fraction(&instance),
                r.runtime_s,
            )),
            Err(e) => println!("{:<14} contango failed: {e}", instance.name),
        }
        for kind in BaselineKind::all() {
            match run_baseline(kind, &tech, &instance) {
                Ok(r) => rows.push((
                    kind.label().into(),
                    r.clr(),
                    r.skew(),
                    100.0 * r.cap_fraction(&instance),
                    r.runtime_s,
                )),
                Err(e) => println!("{:<14} {} failed: {e}", instance.name, kind.label()),
            }
        }
        for (flow, clr, skew, capp, runtime) in &rows {
            println!(
                "{:<14} {:<18} {:>10.2} {:>10.3} {:>10.1}",
                instance.name, flow, clr, skew, capp
            );
            eprintln!(
                "{:<14} {:<18} runtime {:.2} s",
                instance.name, flow, runtime
            );
            let entry = totals.entry(flow.clone()).or_insert((0.0, 0));
            entry.0 += clr;
            entry.1 += 1;
        }
        contango_bench::rule(78);
    }

    if let Some((contango_clr, n)) = totals.get("contango").copied() {
        let contango_avg = contango_clr / n.max(1) as f64;
        println!("\nAverage CLR and ratio vs. Contango (paper: 2.15x / 3.99x / 2.35x):");
        for (flow, (sum, count)) in &totals {
            let avg = sum / (*count).max(1) as f64;
            println!(
                "  {:<18} avg CLR {:>8.2} ps   relative {:>5.2}x",
                flow,
                avg,
                avg / contango_avg
            );
        }
    }
}
