//! Equivalence of incremental and full evaluation.
//!
//! The incremental evaluator promises reports that match a full
//! re-evaluation of the same tree within 1e-9 on every metric. These tests
//! enforce that promise across every optimization pass of the flow and
//! across randomized mutation sequences, rather than trusting the cache
//! keys. One ignored test holds the engine's speed floor over full
//! evaluation.

use contango::core::bottomlevel::{bottom_level_tuning, BottomLevelConfig};
use contango::core::buffering::{choose_and_insert_buffers, default_candidates, split_long_edges};
use contango::core::buffersizing::{iterative_buffer_sizing, BufferSizingConfig};
use contango::core::dme::{build_zero_skew_tree, DmeOptions};
use contango::core::instance::ClockNetInstance;
use contango::core::opt::OptContext;
use contango::core::polarity::correct_polarity;
use contango::core::sliding::slide_and_interleave;
use contango::core::tree::ClockTree;
use contango::core::wiresizing::{iterative_wiresizing, WireSizingConfig};
use contango::core::wiresnaking::{iterative_wiresnaking, WireSnakingConfig};
use contango::geom::Point;
use contango::sim::{EvalReport, IncrementalEvaluator, SourceSpec};
use contango::tech::{Technology, WireWidth};
use proptest::prelude::*;
use std::io::Write;
use std::time::Instant;

const TOL: f64 = 1e-9;

/// Asserts that two evaluation reports agree within `TOL` on every metric:
/// the derived figures (skew, CLR, max latency, worst slew, total cap) and
/// the underlying per-sink, per-transition, per-corner timing.
fn assert_reports_match(incremental: &EvalReport, full: &EvalReport, context: &str) {
    assert!(
        (incremental.skew() - full.skew()).abs() <= TOL,
        "{context}: skew {} vs {}",
        incremental.skew(),
        full.skew()
    );
    assert!(
        (incremental.clr() - full.clr()).abs() <= TOL,
        "{context}: CLR {} vs {}",
        incremental.clr(),
        full.clr()
    );
    assert!(
        (incremental.max_latency() - full.max_latency()).abs() <= TOL,
        "{context}: max latency"
    );
    assert!(
        (incremental.worst_slew() - full.worst_slew()).abs() <= TOL,
        "{context}: worst slew"
    );
    assert!(
        (incremental.total_cap - full.total_cap).abs() <= TOL,
        "{context}: total cap {} vs {}",
        incremental.total_cap,
        full.total_cap
    );
    assert_eq!(
        incremental.buffer_count, full.buffer_count,
        "{context}: buffer count"
    );
    assert_eq!(
        incremental.has_slew_violation(),
        full.has_slew_violation(),
        "{context}: slew violation flag"
    );
    for (a, b) in [
        (&incremental.nominal, &full.nominal),
        (&incremental.low, &full.low),
    ] {
        assert!((a.vdd - b.vdd).abs() <= TOL, "{context}: corner vdd");
        assert!(
            (a.max_slew - b.max_slew).abs() <= TOL,
            "{context}: corner max slew"
        );
        assert_eq!(a.sinks.len(), b.sinks.len(), "{context}: sink count");
        for (sa, sb) in a.sinks.iter().zip(b.sinks.iter()) {
            assert_eq!(sa.sink_id, sb.sink_id, "{context}: sink ids");
            for (ta, tb) in [(sa.rise, sb.rise), (sa.fall, sb.fall)] {
                assert!(
                    (ta.latency - tb.latency).abs() <= TOL,
                    "{context}: sink {} latency {} vs {}",
                    sa.sink_id,
                    ta.latency,
                    tb.latency
                );
                assert!(
                    (ta.slew - tb.slew).abs() <= TOL,
                    "{context}: sink {} slew",
                    sa.sink_id
                );
            }
        }
    }
}

/// Builds a buffered, polarity-corrected tree from explicit sink specs.
fn buffered_tree(
    tech: &Technology,
    sinks: &[(f64, f64, f64)],
    cap_limit: f64,
) -> (ClockNetInstance, ClockTree) {
    let mut b = ClockNetInstance::builder("incremental-equiv")
        .die(0.0, 0.0, 2600.0, 2600.0)
        .source(Point::new(0.0, 1300.0))
        .cap_limit(cap_limit);
    for &(x, y, c) in sinks {
        b = b.sink(Point::new(x, y), c);
    }
    let inst = b.build().expect("valid instance");
    let tree = initial_tree(tech, &inst);
    (inst, tree)
}

/// The INITIAL construction of `inst`: zero-skew tree, long edges split,
/// buffers inserted, sink polarity corrected.
fn initial_tree(tech: &Technology, inst: &ClockNetInstance) -> ClockTree {
    let mut tree = build_zero_skew_tree(inst, tech, DmeOptions::default());
    split_long_edges(&mut tree, 250.0);
    choose_and_insert_buffers(
        &mut tree,
        tech,
        &default_candidates(tech, false),
        inst.cap_limit,
        0.1,
        &inst.obstacles,
    )
    .expect("buffers fit");
    correct_polarity(&mut tree, tech.composite(tech.small_inverter(), 32));
    tree
}

fn fixed_sinks() -> Vec<(f64, f64, f64)> {
    vec![
        (300.0, 300.0, 12.0),
        (2300.0, 350.0, 30.0),
        (400.0, 2200.0, 10.0),
        (2200.0, 2300.0, 45.0),
        (1400.0, 1200.0, 22.0),
        (700.0, 1800.0, 15.0),
        (1900.0, 800.0, 18.0),
    ]
}

/// Every optimization pass, run under the incremental evaluator, must leave
/// the tree in a state where the incremental report and a full
/// re-evaluation agree within 1e-9 — and the run counter must count both
/// paths identically (one call, one run).
#[test]
fn every_pass_preserves_incremental_full_equivalence() {
    let tech = Technology::ispd09();
    let (inst, mut tree) = buffered_tree(&tech, &fixed_sinks(), 450_000.0);
    let evaluator = IncrementalEvaluator::new(tech.clone());
    let ctx = OptContext {
        tech: &tech,
        source: SourceSpec::ispd09(),
        evaluator: &evaluator,
        segment_um: 100.0,
        cap_limit: inst.cap_limit,
    };

    let check = |tree: &ClockTree, stage: &str| {
        let runs_before = evaluator.runs();
        let fast = ctx.evaluate(tree);
        let full = ctx.evaluate_full(tree);
        assert_eq!(
            evaluator.runs(),
            runs_before + 2,
            "{stage}: each evaluation is one SPICE run"
        );
        assert_reports_match(&fast, &full, stage);
    };

    check(&tree, "INITIAL");
    slide_and_interleave(&mut tree, &ctx);
    iterative_buffer_sizing(&mut tree, &ctx, BufferSizingConfig::default());
    check(&tree, "TBSZ");
    iterative_wiresizing(&mut tree, &ctx, WireSizingConfig::default());
    check(&tree, "TWSZ");
    iterative_wiresnaking(&mut tree, &ctx, WireSnakingConfig::default());
    check(&tree, "TWSN");
    bottom_level_tuning(&mut tree, &ctx, BottomLevelConfig::default());
    check(&tree, "BWSN");

    // The caches must actually have been doing work (otherwise this test
    // proves nothing about the incremental path).
    let stats = evaluator.stats();
    assert!(stats.stage_hits > 0, "no stage reuse happened: {stats:?}");
    assert!(stats.solve_hits > 0, "no solve reuse happened: {stats:?}");
}

/// Applies one structured mutation to the tree, mimicking what the
/// optimization passes do: wire-width toggles, snaking, buffer resizing.
fn apply_mutation(tree: &mut ClockTree, kind: usize, which: usize, amount: f64) {
    let non_root: Vec<usize> = (0..tree.len())
        .filter(|&id| tree.node(id).parent.is_some())
        .collect();
    if non_root.is_empty() {
        return;
    }
    let id = non_root[which % non_root.len()];
    match kind {
        0 => {
            let w = tree.node(id).wire.width;
            tree.node_mut(id).wire.width = match w {
                WireWidth::Wide => WireWidth::Narrow,
                WireWidth::Narrow => WireWidth::Wide,
            };
        }
        1 => {
            tree.node_mut(id).wire.extra_length += amount;
        }
        _ => {
            let buffered: Vec<usize> = (0..tree.len())
                .filter(|&id| tree.node(id).buffer.is_some())
                .collect();
            if buffered.is_empty() {
                return;
            }
            let b = buffered[which % buffered.len()];
            let buf = tree.node(b).buffer.expect("buffered");
            let parallel = if which.is_multiple_of(2) {
                buf.parallel() + 1
            } else {
                (buf.parallel() / 2).max(1)
            };
            tree.node_mut(b).buffer =
                Some(contango::tech::CompositeBuffer::new(*buf.base(), parallel));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized mutation sequences (wire width, snaking, buffer sizes) on
    /// randomized instances never make the incremental report diverge from
    /// full re-evaluation.
    #[test]
    fn incremental_matches_full_across_random_mutations(
        sinks in prop::collection::vec(
            (200.0..2400.0_f64, 200.0..2400.0_f64, 5.0..45.0_f64), 3..8),
        mutations in prop::collection::vec(
            (0..3usize, 0usize..65536, 1.0..35.0_f64), 1..7),
    ) {
        let tech = Technology::ispd09();
        let (inst, mut tree) = buffered_tree(&tech, &sinks, 1e9);
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let ctx = OptContext {
            tech: &tech,
            source: SourceSpec::ispd09(),
            evaluator: &evaluator,
            segment_um: 100.0,
            cap_limit: inst.cap_limit,
        };
        for (step, &(kind, which, amount)) in mutations.iter().enumerate() {
            apply_mutation(&mut tree, kind, which, amount);
            prop_assert!(tree.validate().is_ok());
            let fast = ctx.evaluate(&tree);
            let full = ctx.evaluate_full(&tree);
            let label = format!("mutation {step} (kind {kind})");
            assert_reports_match(&fast, &full, &label);
        }
        // Sanity: sinks survived the mutations.
        prop_assert_eq!(tree.sink_count(), sinks.len());
    }
}

/// Times `iters` calls of `f` and returns the mean per call in µs.
fn mean_us(iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// After a single-edge mutation of an 80-sink tree, incremental
/// evaluation is at least 5x faster than re-lowering and re-simulating
/// the whole tree.
#[test]
#[ignore = "timing floor; run in release with --ignored"]
fn incremental_evaluation_is_at_least_5x_faster_than_full() {
    let tech = Technology::ispd09();
    let inst = contango::benchmarks::ti_instance(80, 9);
    let tree = initial_tree(&tech, &inst);
    let evaluator = IncrementalEvaluator::new(tech.clone());
    let ctx = OptContext {
        tech: &tech,
        source: SourceSpec::ispd09(),
        evaluator: &evaluator,
        segment_um: 100.0,
        cap_limit: inst.cap_limit,
    };
    // Growing one sink edge never revisits a cached signature, so every
    // evaluation re-lowers and re-solves the mutated stage's cone.
    let mutate = |tree: &mut ClockTree| {
        let sink = tree.sink_node(0);
        tree.node_mut(sink).wire.extra_length += 0.01;
    };

    let mut full_tree = tree.clone();
    let full_us = mean_us(3, || {
        mutate(&mut full_tree);
        ctx.evaluate_full(&full_tree);
    });
    let mut inc_tree = tree;
    ctx.evaluate(&inc_tree);
    let inc_us = mean_us(30, || {
        mutate(&mut inc_tree);
        ctx.evaluate(&inc_tree);
    });
    assert_reports_match(
        &ctx.evaluate(&inc_tree),
        &ctx.evaluate_full(&inc_tree),
        "timed tree",
    );

    let speedup = full_us / inc_us;
    // Written past the test harness's capture so the ratio shows in CI logs.
    let _ = writeln!(
        std::io::stderr(),
        "incremental evaluation at 80 sinks: full {full_us:.0} us, \
         incremental {inc_us:.0} us, {speedup:.1}x (floor 5x)"
    );
    assert!(
        speedup >= 5.0,
        "incremental evaluation speedup regressed below the 5x floor: {speedup:.2}"
    );
}
