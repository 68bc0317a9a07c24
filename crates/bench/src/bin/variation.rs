//! Variation robustness study (extension of Sections IV-H/IV-I).
//!
//! The paper motivates buffer sliding, interleaving and sizing by their
//! effect on robustness to variations; CLR captures supply variation only.
//! This binary quantifies full process+voltage variation with the Monte
//! Carlo engine: it synthesizes one benchmark with and without the
//! CLR-oriented stages and reports the skew/CLR distributions of both trees
//! under a 45 nm-class variation model.

use contango_bench::{instance_for, rule, sink_cap};
use contango_benchmarks::ispd09_suite;
use contango_core::flow::{ContangoFlow, FlowConfig};
use contango_core::lower::to_netlist;
use contango_core::pipeline::NoopObserver;
use contango_sim::variation::{monte_carlo, VariationModel};
use contango_sim::{DelayModel, Evaluator};
use contango_tech::Technology;

fn main() {
    let tech = Technology::ispd09();
    let spec = &ispd09_suite()[3];
    let instance = instance_for(spec, sink_cap());
    let samples = 64;
    let model = VariationModel::typical_45nm();

    println!("Monte-Carlo variation robustness ({samples} samples, typical 45 nm sigmas)");
    println!(
        "{:<26} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "flow", "skew µ ps", "skew σ ps", "eff. skew ps", "CLR µ ps", "yield"
    );
    rule(86);

    let flow = ContangoFlow::new(tech.clone(), FlowConfig::fast());
    let pipelines = [
        ("full contango", flow.pipeline()),
        ("no CLR stages", flow.pipeline().without("TBSZ")),
    ];
    for (label, pipeline) in pipelines {
        match flow.run_pipeline(&pipeline, &instance, &mut NoopObserver) {
            Ok(result) => {
                let netlist = to_netlist(&result.tree, &tech, &instance.source_spec, 150.0)
                    .expect("flow trees lower cleanly");
                let evaluator = Evaluator::with_model(tech.clone(), DelayModel::Elmore);
                let report = monte_carlo(&evaluator, &netlist, &model, samples, 20.0, 2010);
                println!(
                    "{label:<26} {:>10.3} {:>10.3} {:>12.3} {:>12.2} {:>9.0}%",
                    report.skew.mean,
                    report.skew.std_dev,
                    report.effective_skew(),
                    report.clr.mean,
                    100.0 * report.skew_yield
                );
            }
            Err(e) => println!("{label:<26} failed: {e}"),
        }
    }
    rule(86);
    println!("paper shape: the CLR-oriented stages tighten the latency distribution, so the");
    println!("effective (mean + 3σ) skew and the sub-20 ps yield both improve");
}
