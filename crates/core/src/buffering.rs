//! Initial inverter insertion with sizing (paper, Section IV-C).
//!
//! The goal of initial buffering is to make every sink as fast as possible
//! while respecting slew constraints and the capacitance (power) budget;
//! skew is repaired afterwards by wire sizing and snaking, which can only
//! slow sinks down. Contango therefore:
//!
//! 1. splits long edges so buffers can be spaced closely enough to satisfy
//!    the slew limit ([`split_long_edges`]);
//! 2. inserts composite inverters bottom-up whenever the accumulated
//!    downstream capacitance approaches the driver's slew-free capacitance,
//!    never placing a buffer strictly inside an obstacle;
//! 3. sweeps composite-buffer configurations ([`default_candidates`]) from
//!    strongest to weakest and keeps the strongest one that fits within 90%
//!    of the capacitance budget, reserving γ = 10% for downstream
//!    optimizations.
//!
//! Steps 2 and 3 are the buffer planner of the construction engine,
//! [`crate::construct::choose_buffers_with`]; this module holds edge
//! splitting, the candidate set and the [`BufferingReport`] the planner
//! returns.

use crate::tree::{ClockTree, NodeId};
use contango_geom::{LShape, Point};
use contango_tech::{CompositeBuffer, Technology};
use serde::Serialize;

/// Result of a buffering pass.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BufferingReport {
    /// The composite configuration that was inserted.
    pub composite: CompositeBuffer,
    /// Number of buffer sites inserted.
    pub buffers: usize,
    /// Total network capacitance after insertion, in fF.
    pub total_cap: f64,
}

/// Splits every tree edge longer than `max_len` micrometres into segments of
/// roughly equal length by inserting internal nodes along the edge's
/// horizontal-first L-shaped embedding. Returns the number of nodes added.
///
/// Splitting creates legal buffer sites along long wires (most importantly
/// the trunk from the source to the die centre, paper Section IV-H).
pub fn split_long_edges(tree: &mut ClockTree, max_len: f64) -> usize {
    assert!(max_len > 0.0, "maximum segment length must be positive");
    let mut added = 0;
    // Iterate over a snapshot of ids; newly inserted nodes never need
    // further splitting because they are created below `max_len`.
    for id in tree.preorder() {
        if tree.node(id).parent.is_none() {
            continue;
        }
        loop {
            let parent = tree.node(id).parent.expect("non-root");
            let from = tree.node(parent).location;
            let to = tree.node(id).location;
            let route = tree.node(id).wire.route.clone();
            if route.is_empty() {
                let direct = from.manhattan(to);
                if direct <= max_len + 1e-9 {
                    break;
                }
                // Insert a node at distance `max_len` from the parent along
                // the horizontal-first L-shape.
                let split_loc = point_along_lshape(from, to, max_len);
                tree.split_edge(id, split_loc);
                added += 1;
            } else {
                // Detoured edge: split at distance `max_len` along the
                // routed polyline, distributing the bend points between the
                // two halves.
                let mut polyline = Vec::with_capacity(route.len() + 2);
                polyline.push(from);
                polyline.extend(route.iter().copied());
                polyline.push(to);
                let total: f64 = polyline.windows(2).map(|w| w[0].manhattan(w[1])).sum();
                if total <= max_len + 1e-9 {
                    break;
                }
                let (split_loc, before, after) = split_polyline(&polyline, max_len);
                let new_node = tree.split_edge(id, split_loc);
                tree.node_mut(new_node).wire.route = before;
                tree.node_mut(id).wire.route = after;
                added += 1;
            }
        }
    }
    added
}

/// Splits a polyline at distance `dist` from its first point; returns the
/// split location, the bend points before it (excluding endpoints) and the
/// bend points after it.
fn split_polyline(polyline: &[Point], dist: f64) -> (Point, Vec<Point>, Vec<Point>) {
    let mut walked = 0.0;
    for i in 0..polyline.len() - 1 {
        let a = polyline[i];
        let b = polyline[i + 1];
        let seg = a.manhattan(b);
        if walked + seg >= dist || i == polyline.len() - 2 {
            let t = if seg > 0.0 {
                ((dist - walked) / seg).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let split = a.lerp(b, t);
            let before = polyline[1..=i].to_vec();
            let after = polyline[i + 1..polyline.len() - 1].to_vec();
            return (split, before, after);
        }
        walked += seg;
    }
    (
        *polyline.last().expect("non-empty polyline"),
        Vec::new(),
        Vec::new(),
    )
}

/// The point at distance `dist` from `from` along the horizontal-first
/// L-shaped embedding of the connection to `to`.
fn point_along_lshape(from: Point, to: Point, dist: f64) -> Point {
    let l = LShape::new(from, to, contango_geom::LOrientation::HorizontalFirst);
    let [first, second] = l.legs();
    if dist <= first.length() {
        let t = if first.length() > 0.0 {
            dist / first.length()
        } else {
            0.0
        };
        first.point_at(t)
    } else {
        let rem = (dist - first.length()).min(second.length());
        let t = if second.length() > 0.0 {
            rem / second.length()
        } else {
            0.0
        };
        second.point_at(t)
    }
}

/// Default composite-buffer candidates for a technology: groups of parallel
/// small inverters in powers of two (8×, 16×, 24×, 32×) as used by Contango
/// on the ISPD'09 benchmarks, plus the single large inverter and groups of
/// large inverters used for the scalability study.
pub fn default_candidates(tech: &Technology, use_large: bool) -> Vec<CompositeBuffer> {
    if use_large {
        [1u32, 2, 3, 4]
            .iter()
            .map(|&n| tech.composite(tech.large_inverter(), n))
            .collect()
    } else {
        [8u32, 16, 24, 32]
            .iter()
            .map(|&n| tech.composite(tech.small_inverter(), n))
            .collect()
    }
}

/// Identifiers of nodes carrying buffers, in preorder.
pub fn buffered_nodes(tree: &ClockTree) -> Vec<NodeId> {
    tree.preorder()
        .into_iter()
        .filter(|&id| tree.node(id).buffer.is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{choose_buffers_with, ConstructArena, ParallelConfig};
    use crate::dme::build_zero_skew_tree;
    use crate::error::CoreError;
    use crate::instance::ClockNetInstance;
    use contango_geom::{ObstacleSet, Rect};

    fn instance() -> ClockNetInstance {
        let mut b = ClockNetInstance::builder("buf")
            .die(0.0, 0.0, 4000.0, 4000.0)
            .source(Point::new(0.0, 2000.0))
            .cap_limit(200_000.0);
        for j in 0..4 {
            for i in 0..4 {
                b = b.sink(
                    Point::new(500.0 + 800.0 * i as f64, 500.0 + 800.0 * j as f64),
                    20.0,
                );
            }
        }
        b.build().expect("valid")
    }

    fn base_tree() -> (ClockNetInstance, ClockTree) {
        let inst = instance();
        let tree = build_zero_skew_tree(&inst, &Technology::ispd09());
        (inst, tree)
    }

    /// The engine's planner, serial, keeping γ = 10%. One candidate under an
    /// unbounded budget plans it with its slew-free capacitance as limit.
    fn plan(
        tree: &mut ClockTree,
        tech: &Technology,
        candidates: &[CompositeBuffer],
        cap_limit: f64,
        obstacles: &ObstacleSet,
    ) -> Result<BufferingReport, CoreError> {
        choose_buffers_with(
            tree,
            tech,
            candidates,
            cap_limit,
            0.1,
            obstacles,
            ParallelConfig::serial(),
            &mut ConstructArena::new(),
        )
    }

    #[test]
    fn splitting_preserves_wirelength_and_validity() {
        let (_inst, mut tree) = base_tree();
        let before = tree.wirelength();
        let added = split_long_edges(&mut tree, 200.0);
        assert!(added > 0);
        assert!(tree.validate().is_ok());
        assert!((tree.wirelength() - before).abs() < 1e-6);
        for id in 0..tree.len() {
            if let Some(p) = tree.node(id).parent {
                let direct = tree.node(p).location.manhattan(tree.node(id).location);
                assert!(direct <= 200.0 + 1e-6, "edge {id} still {direct} long");
            }
        }
    }

    #[test]
    fn cap_driven_insertion_bounds_stage_load() {
        let tech = Technology::ispd09();
        let (_inst, mut tree) = base_tree();
        split_long_edges(&mut tree, 200.0);
        let composite = tech.composite(tech.small_inverter(), 8);
        let obstacles = ObstacleSet::new();
        let n = plan(&mut tree, &tech, &[composite], f64::INFINITY, &obstacles)
            .expect("an unbounded budget fits")
            .buffers;
        assert!(n > 0);
        assert!(tree.validate().is_ok());
        // Every buffered stage, lowered and evaluated, must satisfy slews.
        let netlist =
            crate::lower::to_netlist(&tree, &tech, &contango_sim::SourceSpec::ispd09(), 100.0)
                .expect("lowers");
        let eval = contango_sim::Evaluator::new(tech);
        let report = eval.evaluate(&netlist);
        assert!(
            !report.has_slew_violation(),
            "worst slew {} ps",
            report.worst_slew()
        );
    }

    #[test]
    fn buffers_avoid_obstacle_interiors() {
        let tech = Technology::ispd09();
        let inst = instance();
        let mut tree = build_zero_skew_tree(&inst, &tech);
        split_long_edges(&mut tree, 150.0);
        let blockage: ObstacleSet = vec![Rect::new(1000.0, 1000.0, 3000.0, 3000.0)]
            .into_iter()
            .collect();
        let composite = tech.composite(tech.small_inverter(), 8);
        plan(&mut tree, &tech, &[composite], f64::INFINITY, &blockage)
            .expect("an unbounded budget fits");
        for id in buffered_nodes(&tree) {
            assert!(
                !blockage.contains_point_strict(tree.node(id).location),
                "buffer at {} sits inside the macro",
                tree.node(id).location
            );
        }
    }

    #[test]
    fn sweep_prefers_strongest_fitting_composite() {
        let tech = Technology::ispd09();
        let (inst, mut tree) = base_tree();
        split_long_edges(&mut tree, 200.0);
        let candidates = default_candidates(&tech, false);
        let report = plan(
            &mut tree,
            &tech,
            &candidates,
            inst.cap_limit,
            &inst.obstacles,
        )
        .expect("a configuration fits");
        assert!(report.buffers > 0);
        assert!(report.total_cap <= 0.9 * inst.cap_limit);
        // With a generous budget the strongest candidate (32x small) wins.
        assert_eq!(report.composite.parallel(), 32);
    }

    #[test]
    fn sweep_falls_back_when_budget_is_tight() {
        let tech = Technology::ispd09();
        let (inst, mut tree) = base_tree();
        split_long_edges(&mut tree, 200.0);
        let candidates = default_candidates(&tech, false);
        // A tight budget forces a weaker configuration (or an error).
        let tight = inst.total_sink_cap() + 6000.0;
        let result = plan(&mut tree, &tech, &candidates, tight, &inst.obstacles);
        if let Ok(report) = result {
            assert!(report.composite.parallel() < 32);
            assert!(report.total_cap <= 0.9 * tight);
        }
    }

    #[test]
    fn default_candidate_sets_differ_by_inverter_type() {
        let tech = Technology::ispd09();
        let small = default_candidates(&tech, false);
        let large = default_candidates(&tech, true);
        assert!(small.iter().all(|c| c.base().name == "INV_SMALL"));
        assert!(large.iter().all(|c| c.base().name == "INV_LARGE"));
    }
}
