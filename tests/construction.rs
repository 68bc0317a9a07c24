//! Integration tests for the parallel, allocation-lean construction engine.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Reference equivalence** — the engine reproduces the recursive
//!    pre-engine implementations, kept as test oracles in
//!    `tests/support/reference.rs` (`reference_zero_skew_tree` with its own
//!    merge mathematics, `reference_greedy_matching_tree`,
//!    `choose_and_insert_buffers`), bit for bit: same node ids, same
//!    locations, same snaking, same buffer placements.
//! 2. **Thread-count invariance** — `threads = 1` and `threads = 4`
//!    construction are bit-identical on randomized instances (proptest)
//!    and on obstacle-dense instances, and whole flows (ti60/ti300-style)
//!    agree on snapshots, reports and evaluator run counts.
//! 3. **Pairing determinism** — greedy matching at 1k sinks is
//!    deterministic run-over-run and identical to the reference pairing
//!    (the regression test for the O(n²) fallback replacement).
//!
//! One ignored test holds the engine's speed floors over the references.

#[path = "support/reference.rs"]
mod reference;

use contango::prelude::*;
use contango::tech::WireWidth;
use contango_core::buffering::{default_candidates, split_long_edges};
use contango_core::construct::{
    choose_buffers_with, construct_initial, greedy_matching_with, zero_skew_tree_with,
    ConstructConfig,
};
use contango_core::obstacles::repair_obstacle_violations;
use contango_core::polarity::correct_polarity;
use proptest::prelude::*;
use reference::{
    choose_and_insert_buffers, reference_greedy_matching_tree, reference_zero_skew_tree,
};
use std::hint::black_box;
use std::io::Write;
use std::time::Instant;

fn ti_style(sinks: usize, seed: u64) -> ClockNetInstance {
    contango::benchmarks::generator::ti_instance(sinks, seed)
}

/// A 1k-sink instance whose die is dominated by macros, so construction
/// must legalize nodes, reroute crossing edges and keep buffers off the
/// blockages.
fn obstacle_dense(sinks: usize) -> ClockNetInstance {
    let mut b = ClockNetInstance::builder("obstacle-dense")
        .die(0.0, 0.0, 8000.0, 6000.0)
        .source(Point::new(0.0, 3000.0))
        .cap_limit(4.0e8);
    // A 4x3 grid of macros covering a large fraction of the die.
    for j in 0..3 {
        for i in 0..4 {
            b = b.obstacle(Rect::new(
                500.0 + 1900.0 * i as f64,
                400.0 + 1900.0 * j as f64,
                1700.0 + 1900.0 * i as f64,
                1500.0 + 1900.0 * j as f64,
            ));
        }
    }
    for k in 0..sinks {
        // Deterministic pseudo-random scatter (SplitMix64 step).
        let mut z = (k as u64).wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        let x = 50.0 + (z % 7900) as f64;
        let y = 50.0 + ((z >> 13) % 5900) as f64;
        b = b.sink(Point::new(x, y), 4.0 + (k % 9) as f64);
    }
    b.build().expect("valid obstacle-dense instance")
}

fn config(threads: usize) -> ConstructConfig {
    ConstructConfig {
        topology: TopologyKind::Dme,
        use_large_inverters: false,
        max_edge_len: 250.0,
        power_reserve: 0.1,
        parallel: ParallelConfig::with_threads(threads),
    }
}

#[test]
fn engine_zst_matches_reference_bit_for_bit() {
    let tech = Technology::ispd09();
    let mut arena = ConstructArena::new();
    for (sinks, seed) in [(3usize, 1u64), (17, 2), (64, 3), (257, 4), (1000, 7)] {
        let instance = ti_style(sinks, seed);
        let reference = reference_zero_skew_tree(&instance, &tech, WireWidth::Wide);
        let engine = zero_skew_tree_with(&instance, &tech, ParallelConfig::serial(), &mut arena);
        assert_eq!(reference, engine, "ZST diverged at {sinks} sinks");
        for threads in [2usize, 4, 7] {
            let parallel = ParallelConfig::with_threads(threads);
            let fanned = zero_skew_tree_with(&instance, &tech, parallel, &mut arena);
            assert_eq!(
                reference, fanned,
                "ZST diverged at {sinks} sinks with {threads} threads"
            );
        }
    }
}

#[test]
fn greedy_pairing_is_deterministic_and_matches_reference_at_1k() {
    let instance = ti_style(1000, 11);
    let mut arena = ConstructArena::new();
    let reference = reference_greedy_matching_tree(&instance);
    let engine_a = greedy_matching_with(&instance, &mut arena);
    // A warm arena must not leak state between builds.
    let engine_b = greedy_matching_with(&instance, &mut arena);
    assert_eq!(
        reference, engine_a,
        "engine pairing diverged from reference"
    );
    assert_eq!(engine_a, engine_b, "pairing is not deterministic");
    assert_eq!(engine_a.sink_count(), instance.sink_count());
    assert!(engine_a.validate().is_ok());
}

#[test]
fn engine_buffer_planning_matches_reference() {
    let tech = Technology::ispd09();
    let mut arena = ConstructArena::new();
    for instance in [ti_style(300, 5), obstacle_dense(300)] {
        let mut tree = reference_zero_skew_tree(&instance, &tech, WireWidth::Wide);
        split_long_edges(&mut tree, 250.0);
        let candidates = default_candidates(&tech, false);
        let mut t_ref = tree.clone();
        let mut t_eng = tree.clone();
        let r_ref = choose_and_insert_buffers(
            &mut t_ref,
            &tech,
            &candidates,
            instance.cap_limit,
            0.1,
            &instance.obstacles,
        )
        .expect("fits");
        for threads in [1usize, 4] {
            let r_eng = choose_buffers_with(
                &mut t_eng,
                &tech,
                &candidates,
                instance.cap_limit,
                0.1,
                &instance.obstacles,
                ParallelConfig::with_threads(threads),
                &mut arena,
            )
            .expect("fits");
            assert_eq!(r_ref, r_eng, "buffer report diverged ({threads} threads)");
            assert_eq!(t_ref, t_eng, "buffered tree diverged ({threads} threads)");
        }
    }
}

/// The pre-engine INITIAL construction, step for step: reference ZST,
/// obstacle repair, long-edge splitting, reference buffer planning and
/// polarity correction.
fn reference_initial(instance: &ClockNetInstance, tech: &Technology) -> ClockTree {
    let mut tree = reference_zero_skew_tree(instance, tech, WireWidth::Wide);
    let candidates = default_candidates(tech, false);
    let strongest = candidates
        .iter()
        .map(|c| c.output_res())
        .fold(f64::INFINITY, f64::min);
    repair_obstacle_violations(&mut tree, instance, tech, strongest);
    split_long_edges(&mut tree, 250.0);
    let report = choose_and_insert_buffers(
        &mut tree,
        tech,
        &candidates,
        instance.cap_limit,
        0.1,
        &instance.obstacles,
    )
    .expect("buffering fits");
    correct_polarity(&mut tree, report.composite);
    tree
}

#[test]
fn engine_initial_matches_the_reference_sequence() {
    let tech = Technology::ispd09();
    let mut arena = ConstructArena::new();
    for instance in [ti_style(1000, 7), obstacle_dense(300)] {
        let reference = reference_initial(&instance, &tech);
        for threads in [1usize, 4] {
            let (engine, _) = construct_initial(&instance, &tech, &config(threads), &mut arena)
                .expect("constructs");
            assert_eq!(
                reference, engine,
                "INITIAL diverged from the reference sequence on `{}` ({threads} threads)",
                instance.name
            );
        }
    }
}

/// A die-filling `nx`×`ny` grid of sinks with varied pin capacitance.
fn grid_instance(nx: usize, ny: usize) -> ClockNetInstance {
    let die_w = 600.0 + 420.0 * nx as f64;
    let die_h = 700.0 + 430.0 * ny as f64;
    let mut b = ClockNetInstance::builder("construct-test")
        .die(0.0, 0.0, die_w, die_h)
        .source(Point::new(0.0, die_h / 2.0))
        .cap_limit(1.0e8);
    for j in 0..ny {
        for i in 0..nx {
            b = b.sink(
                Point::new(300.0 + 420.0 * i as f64, 350.0 + 430.0 * j as f64),
                8.0 + ((i * 3 + j) % 5) as f64,
            );
        }
    }
    b.build().expect("valid instance")
}

#[test]
fn engine_handles_tiny_instances_like_the_reference() {
    let tech = Technology::ispd09();
    let mut arena = ConstructArena::new();
    for (nx, ny) in [(1usize, 1usize), (2, 1), (1, 3)] {
        let instance = grid_instance(nx, ny);
        assert_eq!(
            reference_zero_skew_tree(&instance, &tech, WireWidth::Wide),
            zero_skew_tree_with(&instance, &tech, ParallelConfig::serial(), &mut arena),
            "{nx}x{ny} grid"
        );
        assert_eq!(
            reference_greedy_matching_tree(&instance),
            greedy_matching_with(&instance, &mut arena),
            "{nx}x{ny} grid greedy"
        );
    }
}

#[test]
fn obstacle_dense_construction_is_thread_invariant_and_legal() {
    let tech = Technology::ispd09();
    let instance = obstacle_dense(1000);
    let mut arena = ConstructArena::new();
    let (serial, reports) =
        construct_initial(&instance, &tech, &config(1), &mut arena).expect("constructs");
    let (fanned, reports4) =
        construct_initial(&instance, &tech, &config(4), &mut arena).expect("constructs");
    assert_eq!(serial, fanned, "obstacle-dense construction diverged");
    assert_eq!(reports.buffering, reports4.buffering);
    assert_eq!(reports.polarity, reports4.polarity);
    assert!(serial.validate().is_ok());
    assert_eq!(serial.sink_count(), instance.sink_count());
    // Cap-driven insertion never places a buffer strictly inside a macro;
    // only polarity correction may splice a corrective inverter at an
    // illegal site (it follows the subtree parity, not the floorplan — a
    // known limitation shared with the reference implementation).
    let illegal = (0..serial.len())
        .filter(|&id| {
            serial.node(id).buffer.is_some()
                && instance
                    .obstacles
                    .contains_point_strict(serial.node(id).location)
        })
        .count();
    assert!(
        illegal <= reports.polarity.added_inverters,
        "{illegal} buffers inside macros exceed the {} polarity correctors",
        reports.polarity.added_inverters
    );
}

/// Snapshots, final report and evaluator run counts of two flow results
/// must agree bit for bit (runtime is wall-clock and excluded).
fn assert_flows_identical(a: &FlowResult, b: &FlowResult) {
    assert_eq!(a.snapshots, b.snapshots);
    assert_eq!(a.spice_runs, b.spice_runs);
    assert_eq!(a.polarity, b.polarity);
    assert_eq!(a.report, b.report);
    assert_eq!(a.tree, b.tree);
    assert_eq!(a.outcomes, b.outcomes);
}

#[test]
fn full_flow_is_bit_identical_across_thread_counts() {
    let tech = Technology::ispd09();
    // ti60/ti300-style instances through the whole pipeline.
    for (sinks, seed) in [(60usize, 45u64), (300, 45)] {
        let instance = ti_style(sinks, seed);
        let serial_flow = ContangoFlow::new(
            tech.clone(),
            FlowConfig {
                parallel: ParallelConfig::serial(),
                ..FlowConfig::fast()
            },
        );
        let fanned_flow = ContangoFlow::new(
            tech.clone(),
            FlowConfig {
                parallel: ParallelConfig::with_threads(4),
                ..FlowConfig::fast()
            },
        );
        let serial = serial_flow.run(&instance).expect("serial flow runs");
        let fanned = fanned_flow.run(&instance).expect("fanned flow runs");
        assert_flows_identical(&serial, &fanned);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized instances construct bit-identically with 1 and 4 threads:
    /// tree shape, snaking and buffer placements all agree.
    #[test]
    fn construction_is_thread_invariant(
        sinks in prop::collection::vec(
            (100.0..7800.0_f64, 100.0..5800.0_f64, 3.0..40.0_f64), 2..220),
        use_obstacle in 0..2usize,
    ) {
        let tech = Technology::ispd09();
        let mut b = ClockNetInstance::builder("prop-construct")
            .die(0.0, 0.0, 8000.0, 6000.0)
            .source(Point::new(0.0, 3000.0))
            .cap_limit(4.0e8);
        if use_obstacle == 1 {
            b = b.obstacle(Rect::new(2000.0, 1500.0, 5000.0, 4000.0));
        }
        for &(x, y, cap) in &sinks {
            b = b.sink(Point::new(x, y), cap);
        }
        let instance = b.build().expect("valid instance");
        let mut arena = ConstructArena::new();
        let (serial, _) = construct_initial(&instance, &tech, &config(1), &mut arena)
            .expect("serial constructs");
        let (fanned, _) = construct_initial(&instance, &tech, &config(4), &mut arena)
            .expect("fanned constructs");
        prop_assert_eq!(&serial, &fanned);
        // Snaking and buffer placements, spelled out (already covered by
        // tree equality; kept explicit for diagnosis).
        for id in 0..serial.len() {
            prop_assert_eq!(
                serial.node(id).wire.extra_length.to_bits(),
                fanned.node(id).wire.extra_length.to_bits()
            );
            prop_assert_eq!(serial.node(id).buffer, fanned.node(id).buffer);
        }
    }

    /// The hierarchical partitioned builder, which carves one region per
    /// worker, reproduces the flat serial engine bit for bit on randomized
    /// instances for every worker count — including counts that are not
    /// powers of two and counts exceeding the regions an instance holds.
    #[test]
    fn construction_is_partition_invariant(
        sinks in prop::collection::vec(
            (100.0..7800.0_f64, 100.0..5800.0_f64, 3.0..40.0_f64), 2..220),
        threads in 1..17usize,
    ) {
        let tech = Technology::ispd09();
        let mut b = ClockNetInstance::builder("prop-partition")
            .die(0.0, 0.0, 8000.0, 6000.0)
            .source(Point::new(0.0, 3000.0))
            .cap_limit(4.0e8);
        for &(x, y, cap) in &sinks {
            b = b.sink(Point::new(x, y), cap);
        }
        let instance = b.build().expect("valid instance");
        let mut arena = ConstructArena::new();
        let (serial, _) = construct_initial(&instance, &tech, &config(1), &mut arena)
            .expect("serial constructs");
        let (partitioned, _) = construct_initial(&instance, &tech, &config(threads), &mut arena)
            .expect("partitioned constructs");
        prop_assert_eq!(&serial, &partitioned);
    }
}

/// Register-bank row layout: drain stress for the pairing rounds (the
/// reference index re-scans its dead points, the engine does not).
fn row_instance(sinks: usize) -> ClockNetInstance {
    let mut b = ClockNetInstance::builder("bank-rows")
        .die(0.0, 0.0, 42000.0, 30000.0)
        .source(Point::new(0.0, 15000.0))
        .cap_limit(4.0e8);
    for i in 0..sinks {
        b = b.sink(
            Point::new(100.0 + 40.0 * i as f64, 15000.0),
            5.0 + (i % 7) as f64,
        );
    }
    b.build().expect("valid row instance")
}

/// Times `iters` calls of `f` one by one after one untimed warm-up call
/// and returns the median call in µs, so that one preempted call does not
/// move the result.
fn median_us<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut calls: Vec<f64> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    calls.sort_by(f64::total_cmp);
    let mid = iters / 2;
    if iters.is_multiple_of(2) {
        (calls[mid - 1] + calls[mid]) / 2.0
    } else {
        calls[mid]
    }
}

/// Asserts that the engine is at least `floor` times faster than the
/// reference on kernel `name`.
fn assert_floor(name: &str, reference_us: f64, engine_us: f64, floor: f64) {
    let ratio = reference_us / engine_us;
    // Written past the test harness's capture so the ratio shows in CI logs.
    let _ = writeln!(
        std::io::stderr(),
        "construction `{name}` at 1k sinks: reference {reference_us:.0} us, \
         engine {engine_us:.0} us, {ratio:.2}x (floor {floor}x)"
    );
    assert!(
        ratio >= floor,
        "construction speedup `{name}` regressed below its {floor}x floor: {ratio:.2}"
    );
}

/// Serial engine speed over the references at 1k sinks, each kernel
/// checked bit-identical first. The engine computes the references' merge
/// mathematics, so its headroom is the allocation and traversal overhead
/// it removes; the floors sit well below the measured ratios.
#[test]
#[ignore = "timing floors; run in release with --ignored"]
fn engine_construction_floors_over_the_references_at_1k() {
    let tech = Technology::ispd09();
    let instance = ti_style(1000, 7);
    let mut arena = ConstructArena::new();
    let iters = 8;

    let zst_ref = || reference_zero_skew_tree(&instance, &tech, WireWidth::Wide);
    let zst_eng = |arena: &mut ConstructArena| {
        zero_skew_tree_with(&instance, &tech, ParallelConfig::serial(), arena)
    };
    assert_eq!(zst_ref(), zst_eng(&mut arena));
    let reference_us = median_us(iters, zst_ref);
    let engine_us = median_us(iters, || zst_eng(&mut arena));
    assert_floor("zst", reference_us, engine_us, 1.15);

    for (name, layout, floor) in [
        ("greedy", &instance, 1.2),
        ("greedy_drain", &row_instance(1000), 1.5),
    ] {
        let reference = || reference_greedy_matching_tree(layout);
        assert_eq!(reference(), greedy_matching_with(layout, &mut arena));
        let reference_us = median_us(iters, reference);
        let engine_us = median_us(iters, || greedy_matching_with(layout, &mut arena));
        assert_floor(name, reference_us, engine_us, floor);
    }

    // Every timed call plans buffers into the tree its side's previous
    // call left, so the two trees must still agree after the loops.
    let candidates = default_candidates(&tech, false);
    let mut split = zst_ref();
    split_long_edges(&mut split, 250.0);
    let (mut ref_tree, mut eng_tree) = (split.clone(), split);
    let (cap, obstacles) = (instance.cap_limit, &instance.obstacles);
    let reference_us = median_us(iters, || {
        choose_and_insert_buffers(&mut ref_tree, &tech, &candidates, cap, 0.1, obstacles)
            .expect("fits")
    });
    let engine_us = median_us(iters, || {
        choose_buffers_with(
            &mut eng_tree,
            &tech,
            &candidates,
            cap,
            0.1,
            obstacles,
            ParallelConfig::serial(),
            &mut arena,
        )
        .expect("fits")
    });
    assert_eq!(ref_tree, eng_tree, "buffer planning diverged");
    assert_floor("buffering", reference_us, engine_us, 1.4);

    let reference = || reference_initial(&instance, &tech);
    let engine = |arena: &mut ConstructArena| {
        construct_initial(&instance, &tech, &config(1), arena).expect("constructs")
    };
    assert_eq!(reference(), engine(&mut arena).0);
    let reference_us = median_us(iters, reference);
    let engine_us = median_us(iters, || engine(&mut arena));
    assert_floor("initial", reference_us, engine_us, 1.25);
}
