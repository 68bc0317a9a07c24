//! Cross-crate integration tests for the variation engine and the
//! cross-link/mesh analyses on flow-produced trees.

use contango::core::crosslink::{propose_cross_links, MeshOverlay};
use contango::core::instance::ClockNetInstance;
use contango::core::lower::to_netlist;
use contango::geom::Point;
use contango::sim::variation::{
    monte_carlo, monte_carlo_samples, perturb_netlist, truncated_normal, VariationModel, XorShift,
};
use contango::sim::{DelayModel, Evaluator};
use contango::{ContangoFlow, FlowConfig, FlowResult, Technology};

fn synthesized() -> (ClockNetInstance, FlowResult, Technology) {
    let mut builder = ClockNetInstance::builder("integration-extensions")
        .die(0.0, 0.0, 2200.0, 2200.0)
        .source(Point::new(0.0, 1100.0))
        .cap_limit(350_000.0);
    for j in 0..3 {
        for i in 0..3 {
            builder = builder.sink(
                Point::new(350.0 + 700.0 * i as f64, 350.0 + 700.0 * j as f64),
                9.0 + 5.0 * ((2 * i + j) % 3) as f64,
            );
        }
    }
    let instance = builder.build().expect("valid instance");
    let tech = Technology::ispd09();
    let result = ContangoFlow::new(tech.clone(), FlowConfig::fast())
        .run(&instance)
        .expect("flow runs");
    (instance, result, tech)
}

#[test]
fn monte_carlo_brackets_the_nominal_metrics() {
    let (instance, result, tech) = synthesized();
    let netlist = to_netlist(&result.tree, &tech, &instance.source_spec, 150.0).expect("lowers");
    let evaluator = Evaluator::with_model(tech.clone(), DelayModel::Elmore);
    let nominal = evaluator.evaluate(&netlist);

    let zero = monte_carlo(&evaluator, &netlist, &VariationModel::none(), 8, 20.0, 11);
    assert!((zero.skew.mean - nominal.skew()).abs() < 1e-6);
    assert!(zero.skew.std_dev < 1e-9);

    let varied = monte_carlo(
        &evaluator,
        &netlist,
        &VariationModel::typical_45nm(),
        48,
        20.0,
        11,
    );
    assert!(varied.skew.std_dev > 0.0);
    assert!(varied.skew.min <= varied.skew.mean && varied.skew.mean <= varied.skew.max);
    assert!(varied.effective_skew() >= varied.skew.mean);
    assert!(varied.max_latency.mean > 0.0);
}

/// The sampler is a pinned statistical artifact: for a fixed seed the
/// generator and the truncated-normal transform produce these exact
/// values, bit for bit. If this test moves, every recorded variation
/// result in every report changes meaning — bump the manifest `seed`
/// semantics deliberately, not by accident.
#[test]
fn fixed_seeds_pin_the_exact_sample_stream() {
    let mut rng = XorShift::new(0);
    assert_eq!(rng.next_u64(), 5180492295206395165);
    assert_eq!(rng.next_u64(), 12380297144915551517);
    // A zero seed maps to a nonzero state rather than a stuck generator.
    assert_ne!(XorShift::new(0).next_u64(), 0);

    let mut rng = XorShift::new(42);
    let draws: Vec<u64> = (0..4)
        .map(|_| truncated_normal(&mut rng).to_bits())
        .collect();
    assert_eq!(
        draws,
        [
            1.739162324520042_f64.to_bits(),
            (-0.6599771236282209_f64).to_bits(),
            0.6580113173926937_f64.to_bits(),
            (-0.6467476064624249_f64).to_bits(),
        ]
    );

    // The end-to-end sampler inherits the pin: the same seed reproduces
    // identical metrics bit for bit, and the draw stream is sequential,
    // so a shorter run is an exact prefix of a longer one.
    let (instance, result, tech) = synthesized();
    let netlist = to_netlist(&result.tree, &tech, &instance.source_spec, 150.0).expect("lowers");
    let evaluator = Evaluator::with_model(tech.clone(), DelayModel::Elmore);
    let model = VariationModel::typical_45nm();
    let a = monte_carlo_samples(&evaluator, &netlist, &model, 4, 0xC0FFEE);
    let b = monte_carlo_samples(&evaluator, &netlist, &model, 4, 0xC0FFEE);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.skew.to_bits(), y.skew.to_bits());
        assert_eq!(x.clr.to_bits(), y.clr.to_bits());
        assert_eq!(x.max_latency.to_bits(), y.max_latency.to_bits());
    }
    let prefix = monte_carlo_samples(&evaluator, &netlist, &model, 2, 0xC0FFEE);
    for (x, y) in prefix.iter().zip(&a) {
        assert_eq!(x.skew.to_bits(), y.skew.to_bits());
    }
    // A different seed draws a genuinely different stream.
    let other = monte_carlo_samples(&evaluator, &netlist, &model, 4, 0xC0FFEE + 1);
    assert!(a.iter().zip(&other).any(|(x, y)| x.skew != y.skew));
}

/// The ±3σ truncation keeps every perturbed element physical: even at
/// absurd sigmas no resistance or capacitance goes negative (the
/// multiplicative factor clamps at a small positive floor), every draw
/// stays within ±3, and the evaluation of an extreme sample still returns
/// finite metrics.
#[test]
fn extreme_sigmas_never_produce_negative_elements() {
    let mut rng = XorShift::new(7);
    for _ in 0..10_000 {
        let z = truncated_normal(&mut rng);
        assert!(z.abs() <= 3.0, "draw {z} escaped the truncation");
    }

    let (instance, result, tech) = synthesized();
    let netlist = to_netlist(&result.tree, &tech, &instance.source_spec, 150.0).expect("lowers");
    let extreme = VariationModel {
        wire_res_sigma: 10.0,
        wire_cap_sigma: 10.0,
        buffer_res_sigma: 10.0,
        vdd_sigma: 0.5,
        spatial_correlation: 0.5,
    };
    let mut rng = XorShift::new(99);
    for _ in 0..16 {
        let perturbed = perturb_netlist(&netlist, &extreme, &mut rng);
        for stage in &perturbed.stages {
            for (idx, (_, res, cap)) in stage.tree.iter().enumerate() {
                assert!(cap > 0.0, "non-positive cap {cap}");
                assert!(idx == 0 || res > 0.0, "non-positive res {res}");
            }
        }
    }
    let evaluator = Evaluator::with_model(tech.clone(), DelayModel::Elmore);
    let samples = monte_carlo_samples(&evaluator, &netlist, &extreme, 8, 3);
    for sample in &samples {
        assert!(sample.skew.is_finite() && sample.skew >= 0.0);
        assert!(sample.max_latency.is_finite() && sample.max_latency > 0.0);
    }
}

/// The spatial-correlation endpoints behave as documented: at ρ=1 every
/// stage of a sample shares the chip-wide systematic factors exactly, at
/// ρ=0 the stages draw independent local factors.
#[test]
fn spatial_correlation_endpoints_share_or_split_the_factors() {
    let (instance, result, tech) = synthesized();
    let netlist = to_netlist(&result.tree, &tech, &instance.source_spec, 150.0).expect("lowers");
    assert!(netlist.stages.len() >= 2, "need stages to compare");
    // The per-stage scale factor recovered from the first wire of each
    // stage (node 0 is the root and carries no resistance).
    let stage_factors = |perturbed: &contango::sim::Netlist| -> Vec<f64> {
        netlist
            .stages
            .iter()
            .zip(&perturbed.stages)
            .map(|(base, varied)| {
                let (_, base_res, _) = base.tree.iter().nth(1).expect("a wire");
                let (_, varied_res, _) = varied.tree.iter().nth(1).expect("a wire");
                varied_res / base_res
            })
            .collect()
    };

    let correlated = VariationModel {
        spatial_correlation: 1.0,
        ..VariationModel::typical_45nm()
    };
    let factors = stage_factors(&perturb_netlist(
        &netlist,
        &correlated,
        &mut XorShift::new(5),
    ));
    for factor in &factors {
        assert!(
            (factor - factors[0]).abs() < 1e-12,
            "rho=1 split the factors: {factors:?}"
        );
    }

    let independent = VariationModel {
        spatial_correlation: 0.0,
        ..VariationModel::typical_45nm()
    };
    let factors = stage_factors(&perturb_netlist(
        &netlist,
        &independent,
        &mut XorShift::new(5),
    ));
    assert!(
        factors.iter().any(|f| (f - factors[0]).abs() > 1e-9),
        "rho=0 produced chip-wide factors: {factors:?}"
    );
}

#[test]
fn cross_links_offer_little_on_a_tuned_tree() {
    let (_, result, tech) = synthesized();
    let analysis = propose_cross_links(&result.tree, &result.report, &tech, 4, 2000.0);
    // The flow already brought skew to a few ps, so an ideal-averager link
    // can close at most that much; relative improvement is bounded by 1 and
    // the absolute estimated gain stays below the tuned skew itself.
    assert!(analysis.estimated_skew_after <= analysis.skew_before + 1e-9);
    assert!(analysis.skew_before - analysis.estimated_skew_after <= result.skew() + 1e-9);
    assert!(analysis.relative_improvement() <= 1.0);
}

#[test]
fn mesh_overlays_scale_with_pitch_and_report_their_cost() {
    let (instance, result, tech) = synthesized();
    let fine = MeshOverlay::design(&instance, &tech, 100.0);
    let coarse = MeshOverlay::design(&instance, &tech, 800.0);
    // Refining the pitch adds wires, capacitance and drivers.
    assert!(fine.rows > coarse.rows && fine.cols > coarse.cols);
    assert!(fine.total_cap_ff > coarse.total_cap_ff);
    assert!(fine.drivers_needed >= coarse.drivers_needed);
    assert!(coarse.drivers_needed >= 1);
    // The overhead is reported against the same budget the tree used, so
    // the two are directly comparable; a dense leaf mesh costs a
    // substantial fraction of what the entire tuned tree consumes.
    assert!(coarse.cap_overhead > 0.0);
    assert!(fine.total_cap_ff > 0.5 * result.report.total_cap);
    assert!(fine.switching_power_uw(&tech) > coarse.switching_power_uw(&tech));
}
