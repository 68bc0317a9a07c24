//! Property-based tests for the supporting substrates: the spatial index,
//! the SPICE measurement parser and the solution file format.

use contango::benchmarks::solution::{parse_solution, write_solution};
use contango::core::instance::ClockNetInstance;
use contango::core::topology::greedy_matching_tree;
use contango::geom::{Point, SpatialIndex};
use contango::sim::spice::{parse_measurements, rise_latency_name};
use contango::tech::Technology;
use proptest::prelude::*;

fn arbitrary_points(min: usize, max: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((5.0..2995.0_f64, 5.0..2995.0_f64), min..max)
}

fn dedup_points(raw: &[(f64, f64)]) -> Vec<Point> {
    let mut points: Vec<Point> = Vec::new();
    for &(x, y) in raw {
        let p = Point::new(x, y);
        if !points.iter().any(|q| q.approx_eq(p)) {
            points.push(p);
        }
    }
    points
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The grid-bucket index returns exactly the brute-force nearest
    /// neighbour distance for arbitrary point sets and queries.
    #[test]
    fn spatial_index_matches_brute_force(raw in arbitrary_points(1, 40),
                                         qx in 0.0..3000.0_f64, qy in 0.0..3000.0_f64) {
        let points = dedup_points(&raw);
        prop_assume!(!points.is_empty());
        let index = SpatialIndex::new(&points);
        let query = Point::new(qx, qy);
        let got = index.nearest(query, None).expect("non-empty index");
        let best = points
            .iter()
            .map(|p| p.manhattan(query))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((points[got].manhattan(query) - best).abs() < 1e-9);
    }

    /// SPICE measurement values survive formatting and parsing for the full
    /// range of magnitudes a transient run produces.
    #[test]
    fn spice_measurements_round_trip(values in prop::collection::vec(1.0..5000.0_f64, 1..20)) {
        let mut text = String::new();
        for (i, v) in values.iter().enumerate() {
            text.push_str(&format!("{} = {:.6e}\n", rise_latency_name(i), v * 1e-12));
        }
        let parsed = parse_measurements(&text).expect("parses");
        prop_assert_eq!(parsed.len(), values.len());
        for (i, v) in values.iter().enumerate() {
            let got = parsed[&rise_latency_name(i)];
            prop_assert!((got - v).abs() < 1e-6 * v);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Solution files round-trip arbitrary greedy-matching trees: the
    /// reparsed tree preserves wirelength, sink bindings and capacitance.
    #[test]
    fn solution_format_round_trips_topology_trees(raw in arbitrary_points(2, 16)) {
        let points = dedup_points(&raw);
        prop_assume!(points.len() >= 2);
        let mut builder = ClockNetInstance::builder("prop-solution")
            .die(0.0, 0.0, 3000.0, 3000.0)
            .source(Point::new(0.0, 1500.0))
            .cap_limit(1.0e9);
        for (i, p) in points.iter().enumerate() {
            builder = builder.sink(*p, 4.0 + (i % 7) as f64);
        }
        let instance = builder.build().expect("valid instance");
        let tech = Technology::ispd09();
        let mut tree = greedy_matching_tree(&instance);
        // Decorate a node with a buffer so the buffer path is exercised too.
        if tree.len() > 1 {
            tree.node_mut(1).buffer = Some(tech.composite(tech.small_inverter(), 8));
        }
        let text = write_solution(&tree);
        let back = parse_solution(&text, &tech).expect("parses");
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(back.sink_count(), tree.sink_count());
        prop_assert_eq!(back.buffer_count(), tree.buffer_count());
        prop_assert!((back.wirelength() - tree.wirelength()).abs() < 1e-6);
        prop_assert!((back.total_cap(&tech) - tree.total_cap(&tech)).abs() < 1e-6);
    }
}
