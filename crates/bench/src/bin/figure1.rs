//! Figure 1 — the Contango methodology: stage order and the
//! Improvement- & Violation-Checking (IVC) loop.
//!
//! The figure in the paper is a flow chart; this binary demonstrates it
//! operationally. It runs the flow on one benchmark and prints, for every
//! stage in methodology order, what the stage is responsible for (skew, CLR
//! or both) and how the Clock-Network-Evaluation metrics moved — i.e. the
//! decisions the IVC step would take.

use contango_bench::{instance_for, rule, sink_cap};
use contango_benchmarks::ispd09_suite;
use contango_core::flow::{ContangoFlow, FlowConfig, FlowStage};
use contango_tech::Technology;

fn objective(acronym: &str) -> &'static str {
    match FlowStage::from_acronym(acronym) {
        Some(FlowStage::Initial) => "construction (ZST/DME, obstacles, buffering, polarity)",
        Some(FlowStage::BufferSizing) => "CLR (sliding, interleaving, trunk/branch sizing)",
        Some(FlowStage::WireSizing) => "skew (top-down wiresizing, Algorithm 1)",
        Some(FlowStage::WireSnaking) => "skew (top-down wiresnaking)",
        Some(FlowStage::BottomLevel) => "skew + CLR (bottom-level fine-tuning)",
        None => "custom pass",
    }
}

fn main() {
    let tech = Technology::ispd09();
    let spec = &ispd09_suite()[0];
    let instance = instance_for(spec, sink_cap());
    println!(
        "Figure 1 — Contango methodology on {} ({} sinks)",
        instance.name,
        instance.sink_count()
    );
    println!(
        "{:<10} {:<55} {:>9} {:>9} {:>6}",
        "stage", "objective", "CLR ps", "skew ps", "IVC"
    );
    rule(95);
    match ContangoFlow::new(tech, FlowConfig::default()).run(&instance) {
        Ok(result) => {
            let mut prev: Option<(f64, f64)> = None;
            for snap in &result.snapshots {
                let verdict = match prev {
                    None => "start",
                    Some((clr, skew)) => {
                        if snap.slew_violation {
                            "fail"
                        } else if snap.clr < clr - 1e-9 || snap.skew < skew - 1e-9 {
                            "pass"
                        } else {
                            "next"
                        }
                    }
                };
                println!(
                    "{:<10} {:<55} {:>9.2} {:>9.3} {:>6}",
                    snap.stage,
                    objective(&snap.stage),
                    snap.clr,
                    snap.skew,
                    verdict
                );
                prev = Some((snap.clr, snap.skew));
            }
            rule(95);
            println!(
                "final: CLR {:.2} ps, skew {:.3} ps, {} evaluator runs",
                result.clr(),
                result.skew(),
                result.spice_runs
            );
            eprintln!("flow runtime {:.1} s", result.runtime_s);
        }
        Err(e) => println!("flow failed: {e}"),
    }
    println!("paper shape: construction and buffer sizing may raise skew; the wire stages then");
    println!("drive it down monotonically, and every stage is gated by an IVC check");
}
