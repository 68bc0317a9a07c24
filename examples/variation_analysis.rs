//! Variation robustness analysis of a synthesized clock tree.
//!
//! Synthesizes a small SoC block, then runs the Monte-Carlo variation engine
//! on the result to estimate how process and supply variation widen the
//! skew — the effect the paper's CLR objective and buffer-sizing stages are
//! designed to contain.
//!
//! Run with `cargo run --example variation_analysis`.

use contango::core::instance::ClockNetInstance;
use contango::core::lower::to_netlist;
use contango::geom::Point;
use contango::sim::variation::{monte_carlo, VariationModel};
use contango::sim::{DelayModel, Evaluator};
use contango::{ContangoFlow, FlowConfig, Technology};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut builder = ClockNetInstance::builder("variation-demo")
        .die(0.0, 0.0, 3000.0, 3000.0)
        .source(Point::new(0.0, 1500.0))
        .cap_limit(400_000.0);
    for j in 0..4 {
        for i in 0..4 {
            builder = builder.sink(
                Point::new(350.0 + 700.0 * i as f64, 350.0 + 700.0 * j as f64),
                8.0 + 4.0 * ((i + 2 * j) % 3) as f64,
            );
        }
    }
    let instance = builder.build()?;
    let tech = Technology::ispd09();

    let result = ContangoFlow::new(tech.clone(), FlowConfig::fast()).run(&instance)?;
    println!("nominal skew        : {:.3} ps", result.skew());
    println!("nominal CLR         : {:.3} ps", result.clr());

    let netlist = to_netlist(&result.tree, &tech, &instance.source_spec, 150.0)?;
    let evaluator = Evaluator::with_model(tech, DelayModel::Elmore);
    let report = monte_carlo(
        &evaluator,
        &netlist,
        &VariationModel::typical_45nm(),
        128,
        20.0,
        7,
    );

    println!(
        "-- Monte-Carlo ({} samples, typical 45 nm sigmas) --",
        report.samples
    );
    println!(
        "skew  mean / sigma  : {:.3} / {:.3} ps",
        report.skew.mean, report.skew.std_dev
    );
    println!(
        "skew  p95 / max     : {:.3} / {:.3} ps",
        report.skew.p95, report.skew.max
    );
    println!(
        "effective skew      : {:.3} ps (mean + 3 sigma)",
        report.effective_skew()
    );
    println!(
        "CLR   mean / sigma  : {:.3} / {:.3} ps",
        report.clr.mean, report.clr.std_dev
    );
    println!("skew < 20 ps yield  : {:.1} %", 100.0 * report.skew_yield);
    println!("slew-clean yield    : {:.1} %", 100.0 * report.slew_yield);
    Ok(())
}
