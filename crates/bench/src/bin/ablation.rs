//! Ablation study of the design choices DESIGN.md calls out:
//!
//! * initial topology (DME vs greedy matching vs H-tree vs fishbone),
//! * buffer sliding/interleaving on vs off,
//! * power reserve γ (0%, 10%, 25%),
//! * delay model driving the optimization loops.
//!
//! Each row reports the final CLR, skew and capacitance on a truncated
//! ISPD'09-style benchmark so the relative effect of each choice is visible
//! quickly; run with `CONTANGO_FULL=1` for full-size instances. Every row's
//! numbers come from one transient sign-off evaluation of its final
//! netlist, whichever model drove its loops, so the rows compare under one
//! model.

use contango_bench::{instance_for, rule, sink_cap};
use contango_benchmarks::ispd09_suite;
use contango_core::flow::{ContangoFlow, FlowConfig};
use contango_core::pipeline::{BufferSizingPass, NoopObserver, Pipeline};
use contango_core::topology::TopologyKind;
use contango_sim::{DelayModel, Evaluator};
use contango_tech::Technology;

fn report(label: &str, config: FlowConfig) {
    report_pipeline(label, config, Pipeline::contango(&config));
}

fn report_pipeline(label: &str, config: FlowConfig, pipeline: Pipeline) {
    let tech = Technology::ispd09();
    let spec = &ispd09_suite()[0];
    let instance = instance_for(spec, sink_cap());
    let flow = ContangoFlow::new(tech.clone(), config);
    match flow.run_pipeline(&pipeline, &instance, &mut NoopObserver) {
        Ok(result) => {
            let signoff = Evaluator::new(tech).evaluate(&result.netlist);
            println!(
                "{label:<34} {:>10.2} {:>10.3} {:>12.0} {:>8}",
                signoff.clr(),
                signoff.skew(),
                signoff.total_cap,
                result.spice_runs
            )
        }
        Err(e) => println!("{label:<34} failed: {e}"),
    }
}

fn main() {
    println!("Ablation — effect of individual design choices (benchmark: ispd09f11-style)");
    println!(
        "{:<34} {:>10} {:>10} {:>12} {:>8}",
        "configuration", "CLR ps", "Skew ps", "cap fF", "evals"
    );
    rule(80);

    // Initial topology.
    for kind in TopologyKind::all() {
        report(
            &format!("topology = {}", kind.label()),
            FlowConfig {
                topology: kind,
                ..FlowConfig::fast()
            },
        );
    }
    rule(80);

    // Buffer sliding / interleaving.
    let fast = FlowConfig::fast();
    report("buffer sliding = on", fast);
    let no_sliding = BufferSizingPass {
        enable_sliding: false,
        ..BufferSizingPass::from_config(&fast)
    };
    report_pipeline(
        "buffer sliding = off",
        fast,
        Pipeline::contango(&fast).replace("TBSZ", no_sliding),
    );
    rule(80);

    // Power reserve γ (Section IV-C keeps 10% of the budget for later steps).
    for reserve in [0.0, 0.10, 0.25] {
        report(
            &format!("power reserve γ = {:.0}%", reserve * 100.0),
            FlowConfig {
                power_reserve: reserve,
                ..FlowConfig::fast()
            },
        );
    }
    rule(80);

    // Delay model driving the optimization loops.
    for model in [
        DelayModel::Elmore,
        DelayModel::TwoPole,
        DelayModel::Transient,
    ] {
        report(
            &format!("delay model = {model:?}"),
            FlowConfig {
                model,
                ..FlowConfig::fast()
            },
        );
    }
    rule(80);
    println!(
        "paper shape: DME topology, 10% reserve and the accurate evaluator give the lowest CLR;"
    );
    println!("sliding mainly helps CLR; Elmore-driven loops leave several ps of skew on the table");
}
