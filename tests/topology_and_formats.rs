//! Cross-crate integration tests: alternative topologies through the full
//! flow, solution-file round trips and SPICE deck export.

use contango::benchmarks::generator::{ispd09_suite, make_instance};
use contango::benchmarks::solution::{parse_solution, write_solution};
use contango::core::construct::{build_topology_with, ConstructArena, ParallelConfig};
use contango::core::instance::ClockNetInstance;
use contango::core::lower::to_netlist;
use contango::core::topology::TopologyKind;
use contango::geom::{Point, Rect};
use contango::sim::spice::{write_deck, DeckOptions};
use contango::sim::Evaluator;
use contango::{ContangoFlow, FlowConfig, Technology};

fn small_instance() -> ClockNetInstance {
    let mut builder = ClockNetInstance::builder("integration-topologies")
        .die(0.0, 0.0, 2500.0, 2500.0)
        .source(Point::new(0.0, 1250.0))
        .cap_limit(400_000.0);
    for j in 0..3 {
        for i in 0..4 {
            builder = builder.sink(
                Point::new(300.0 + 600.0 * i as f64, 400.0 + 800.0 * j as f64),
                10.0 + 4.0 * ((i + j) % 3) as f64,
            );
        }
    }
    builder.build().expect("valid instance")
}

#[test]
fn every_topology_reaches_negligible_skew_through_the_flow() {
    let instance = small_instance();
    let tech = Technology::ispd09();
    let mut final_skews = Vec::new();
    for kind in TopologyKind::all() {
        let config = FlowConfig {
            topology: kind,
            ..FlowConfig::fast()
        };
        let result = ContangoFlow::new(tech.clone(), config)
            .run(&instance)
            .unwrap_or_else(|e| panic!("{} flow failed: {e}", kind.label()));
        assert!(result.tree.validate().is_ok(), "{}", kind.label());
        assert_eq!(result.report.sink_count(), instance.sink_count());
        assert!(!result.report.has_slew_violation(), "{}", kind.label());
        assert!(result.report.total_cap <= instance.cap_limit);
        // The tuning loops must not leave the tree worse than its initial
        // evaluation, whatever the front-end topology was.
        let initial = &result.snapshots[0];
        assert!(
            result.skew() <= initial.skew + 1e-9,
            "{}: final skew {} vs initial {}",
            kind.label(),
            result.skew(),
            initial.skew
        );
        // The paper's own front-end must reach industrially negligible skew;
        // the alternative topologies start far more unbalanced (a fishbone
        // spine is the worst case) and are only required to improve.
        if kind == TopologyKind::Dme {
            assert!(
                result.skew() < 20.0,
                "dme: skew {} ps should be industrially negligible",
                result.skew()
            );
        }
        final_skews.push((kind, result.skew()));
    }
    // The DME front-end should beat every alternative after identical tuning
    // effort — which is why the paper builds on it.
    let dme_skew = final_skews
        .iter()
        .find(|(k, _)| *k == TopologyKind::Dme)
        .expect("dme ran")
        .1;
    for (kind, skew) in &final_skews {
        assert!(
            dme_skew <= skew + 1e-9,
            "dme ({dme_skew} ps) should not lose to {} ({skew} ps)",
            kind.label()
        );
    }
}

/// Weight of the rectilinear minimum spanning tree over `points` (Prim's
/// algorithm). The weight is the same for every minimum spanning tree.
fn rectilinear_mst_weight(points: &[Point]) -> f64 {
    let mut dist: Vec<f64> = points.iter().map(|p| p.manhattan(points[0])).collect();
    let mut in_tree = vec![false; points.len()];
    in_tree[0] = true;
    let mut weight = 0.0;
    for _ in 1..points.len() {
        let next = (0..points.len())
            .filter(|&i| !in_tree[i])
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))
            .expect("a point is still outside the tree");
        in_tree[next] = true;
        weight += dist[next];
        for (d, p) in dist.iter_mut().zip(points) {
            *d = d.min(p.manhattan(points[next]));
        }
    }
    weight
}

#[test]
fn topology_wirelengths_stay_within_sane_geometric_bounds() {
    let instance = small_instance();
    let tech = Technology::ispd09();
    // Lower bound: half-perimeter of the net (source plus sinks). Upper
    // bound: a loose multiple of the rectilinear MST — zero-skew balancing,
    // spines and H geometry all add wire, but bounded amounts of it.
    let mut points = vec![instance.source];
    points.extend(instance.sinks.iter().map(|s| s.location));
    let bbox = instance
        .sink_bounding_box()
        .expect("the instance has sinks")
        .union(&Rect::from_points(instance.source, instance.source));
    let hpwl = bbox.width() + bbox.height();
    let mst = rectilinear_mst_weight(&points);
    let mut arena = ConstructArena::new();
    for kind in TopologyKind::all() {
        let tree =
            build_topology_with(kind, &instance, &tech, ParallelConfig::serial(), &mut arena);
        let wl = tree.wirelength();
        assert!(
            wl + 1e-9 >= hpwl,
            "{}: wirelength {wl} below the HPWL lower bound {hpwl}",
            kind.label()
        );
        assert!(
            wl <= 6.0 * mst,
            "{}: wirelength {wl} is implausibly large vs MST {mst}",
            kind.label()
        );
    }
}

#[test]
fn solution_files_round_trip_through_the_facade() {
    let mut spec = ispd09_suite()[6].clone();
    spec.sinks = 14;
    spec.obstacles = 0;
    let instance = make_instance(&spec);
    let tech = Technology::ispd09();
    let result = ContangoFlow::new(tech.clone(), FlowConfig::fast())
        .run(&instance)
        .expect("flow runs");

    let text = write_solution(&result.tree);
    let reparsed = parse_solution(&text, &tech).expect("solution parses");
    let netlist_a = to_netlist(&result.tree, &tech, &instance.source_spec, 150.0).expect("lowers");
    let netlist_b = to_netlist(&reparsed, &tech, &instance.source_spec, 150.0).expect("lowers");
    let evaluator = Evaluator::new(tech.clone());
    let a = evaluator.evaluate(&netlist_a);
    let b = evaluator.evaluate(&netlist_b);
    assert!((a.skew() - b.skew()).abs() < 1e-6);
    assert!((a.clr() - b.clr()).abs() < 1e-6);
}

#[test]
fn spice_decks_cover_every_sink_at_both_corners() {
    let instance = small_instance();
    let tech = Technology::ispd09();
    let result = ContangoFlow::new(tech.clone(), FlowConfig::fast())
        .run(&instance)
        .expect("flow runs");
    let netlist = to_netlist(&result.tree, &tech, &instance.source_spec, 150.0).expect("lowers");
    for options in [DeckOptions::nominal(&tech), DeckOptions::low(&tech)] {
        let deck = write_deck(&netlist, &tech, &options);
        assert!(deck.contains(".tran"));
        assert!(deck.trim_end().ends_with(".end"));
        for sink in 0..instance.sink_count() {
            assert!(
                deck.contains(&format!("lat_r_{sink} ")),
                "deck misses sink {sink} at {} V",
                options.vdd
            );
        }
        // Every buffer becomes a Thevenin stage in the deck.
        assert_eq!(
            deck.matches("Ebuf").count(),
            result.tree.buffer_count(),
            "one dependent source per buffer stage"
        );
    }
}
