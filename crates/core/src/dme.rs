//! Zero-skew tree construction by Deferred Merge Embedding (DME).
//!
//! Contango builds its initial tree with a ZST/DME algorithm (paper,
//! Section IV and reference \[3\]): a balanced connection topology is chosen
//! over the sinks, merging segments are computed bottom-up so that the
//! Elmore delays of the two merged subtrees are equal (snaking one side when
//! necessary), and exact embedding locations are chosen top-down, pulling
//! every merging segment as close to the clock source as possible.
//!
//! This module holds the crate's merge mathematics (`edge_elmore`,
//! `balance_merge`, `solve_extension`) and [`build_zero_skew_tree`], the
//! arena-less entry point of the construction engine in
//! [`crate::construct`], which runs the merges. The pre-engine recursive
//! formulation lives on as a test oracle in `tests/support/reference.rs`,
//! with its own copy of the merge mathematics; `tests/construction.rs`
//! pins the engine to it bit for bit.

use crate::construct::{zero_skew_tree_with, ConstructArena, ParallelConfig};
use crate::instance::ClockNetInstance;
use crate::tree::ClockTree;
use contango_geom::TiltedRect;
use contango_tech::Technology;

/// Per-topology-node merging data computed bottom-up.
#[derive(Debug, Clone)]
pub(crate) struct MergeData {
    pub(crate) region: TiltedRect,
    /// Downstream capacitance in fF (wire + sink pins).
    pub(crate) cap: f64,
    /// Elmore delay from this merge point to every downstream sink, ps.
    pub(crate) delay: f64,
    /// Wirelength assigned to the edges toward the left/right children, µm.
    pub(crate) edge_left: f64,
    pub(crate) edge_right: f64,
}

/// Builds the initial zero-skew (under Elmore delay) clock tree for an
/// instance: the tree root sits at the clock source and a trunk wire leads
/// to the DME merging point of all sinks.
///
/// This drives the construction engine in [`crate::construct`] serially;
/// callers that build many trees can amortize the engine's scratch memory,
/// or fan the merges out over threads, with [`zero_skew_tree_with`].
pub fn build_zero_skew_tree(instance: &ClockNetInstance, tech: &Technology) -> ClockTree {
    zero_skew_tree_with(
        instance,
        tech,
        ParallelConfig::serial(),
        &mut ConstructArena::new(),
    )
}

/// Elmore delay (ps) of a wire of length `len` (µm) driving `load` (fF).
pub(crate) fn edge_elmore(unit_res: f64, unit_cap: f64, len: f64, load: f64) -> f64 {
    unit_res * len * (0.5 * unit_cap * len + load) * contango_tech::units::RC_TO_PS
}

/// Chooses the edge lengths `(la, lb)` toward two subtrees so that the
/// Elmore delays seen at the merge point are equal, snaking the faster side
/// when the balance point would fall outside the connecting wire. Also
/// returns the merging region of the parent.
pub(crate) fn balance_merge(
    a: &MergeData,
    b: &MergeData,
    unit_res: f64,
    unit_cap: f64,
) -> (f64, f64, TiltedRect) {
    let d = a.region.distance(&b.region);
    let r = unit_res;
    let c = unit_cap;
    // Solve r·x(c·x/2 + Ca) + Ta = r·(d−x)(c·(d−x)/2 + Cb) + Tb for x = la.
    let denom = r * (c * d + a.cap + b.cap) * contango_tech::units::RC_TO_PS;
    let numer = (b.delay - a.delay)
        + (r * b.cap * d + 0.5 * r * c * d * d) * contango_tech::units::RC_TO_PS;
    let x = if denom.abs() < 1e-15 {
        0.5 * d
    } else {
        numer / denom
    };

    if x < 0.0 {
        // Subtree a is already slower than b even with la = 0: snake the b
        // side so that its delay catches up.
        let lb = solve_extension(r, c, b.cap, a.delay - b.delay).max(d);
        let region = a.region.intersect(&b.region.expand(lb)).unwrap_or(a.region);
        (0.0, lb, region)
    } else if x > d {
        let la = solve_extension(r, c, a.cap, b.delay - a.delay).max(d);
        let region = b.region.intersect(&a.region.expand(la)).unwrap_or(b.region);
        (la, 0.0, region)
    } else {
        let la = x;
        let lb = d - x;
        let region = a
            .region
            .expand(la)
            .intersect(&b.region.expand(lb))
            .unwrap_or_else(|| {
                TiltedRect::from_point(a.region.closest_point_to(b.region.center()))
            });
        (la, lb, region)
    }
}

/// Solves `r·l(c·l/2 + cap)·RC_TO_PS = delay_gap` for `l ≥ 0` (the snaked
/// length needed to add `delay_gap` picoseconds in front of a subtree).
pub(crate) fn solve_extension(r: f64, c: f64, cap: f64, delay_gap: f64) -> f64 {
    if delay_gap <= 0.0 {
        return 0.0;
    }
    let gap = delay_gap / contango_tech::units::RC_TO_PS;
    // (r c / 2) l² + r·cap·l − gap = 0
    let qa = 0.5 * r * c;
    let qb = r * cap;
    if qa.abs() < 1e-15 {
        return gap / qb.max(1e-12);
    }
    (-qb + (qb * qb + 4.0 * qa * gap).sqrt()) / (2.0 * qa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::to_netlist;
    use contango_geom::Point;
    use contango_sim::{DelayModel, Evaluator, SourceSpec};

    fn grid_instance(nx: usize, ny: usize, pitch: f64) -> ClockNetInstance {
        let mut b = ClockNetInstance::builder("grid")
            .die(
                0.0,
                0.0,
                pitch * (nx as f64 + 1.0),
                pitch * (ny as f64 + 1.0),
            )
            .source(Point::new(0.0, pitch * (ny as f64 + 1.0) / 2.0))
            .cap_limit(1e9);
        for j in 0..ny {
            for i in 0..nx {
                b = b.sink(
                    Point::new(pitch * (i as f64 + 0.5), pitch * (j as f64 + 0.5)),
                    10.0,
                );
            }
        }
        b.build().expect("valid instance")
    }

    #[test]
    fn zero_skew_tree_contains_every_sink_exactly_once() {
        let inst = grid_instance(4, 4, 200.0);
        let tree = build_zero_skew_tree(&inst, &Technology::ispd09());
        assert_eq!(tree.sink_count(), 16);
        assert!(tree.validate().is_ok());
    }

    #[test]
    fn unbuffered_tree_is_zero_skew_under_elmore() {
        let tech = Technology::ispd09();
        let inst = grid_instance(3, 3, 150.0);
        let tree = build_zero_skew_tree(&inst, &tech);
        let netlist =
            to_netlist(&tree, &tech, &SourceSpec::ispd09(), 25.0).expect("lowers cleanly");
        let eval = Evaluator::with_model(tech, DelayModel::Elmore);
        let report = eval.evaluate(&netlist);
        assert!(
            report.skew() < 0.75,
            "Elmore skew of the initial ZST should be near zero, got {} ps",
            report.skew()
        );
    }

    #[test]
    fn irregular_sinks_still_balance() {
        let tech = Technology::ispd09();
        let inst = ClockNetInstance::builder("irregular")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .source(Point::new(0.0, 1000.0))
            .sink(Point::new(100.0, 100.0), 5.0)
            .sink(Point::new(1900.0, 150.0), 25.0)
            .sink(Point::new(300.0, 1800.0), 10.0)
            .sink(Point::new(1700.0, 1700.0), 40.0)
            .sink(Point::new(1000.0, 1000.0), 15.0)
            .cap_limit(1e9)
            .build()
            .expect("valid");
        let tree = build_zero_skew_tree(&inst, &tech);
        let netlist = to_netlist(&tree, &tech, &SourceSpec::ispd09(), 25.0).expect("lowers");
        let eval = Evaluator::with_model(tech, DelayModel::Elmore);
        let report = eval.evaluate(&netlist);
        assert!(
            report.skew() < 1.5,
            "Elmore skew should be small even for irregular sinks, got {} ps",
            report.skew()
        );
    }

    #[test]
    fn snaking_is_recorded_when_children_are_unbalanced() {
        // Two sinks with wildly different pin capacitance force the balance
        // point off the direct connection, so one edge must be snaked.
        let tech = Technology::ispd09();
        let inst = ClockNetInstance::builder("unbalanced")
            .die(0.0, 0.0, 1000.0, 200.0)
            .source(Point::new(0.0, 100.0))
            .sink(Point::new(480.0, 100.0), 1.0)
            .sink(Point::new(520.0, 100.0), 400.0)
            .cap_limit(1e9)
            .build()
            .expect("valid");
        let tree = build_zero_skew_tree(&inst, &tech);
        let total_snake: f64 = (0..tree.len())
            .map(|i| tree.node(i).wire.extra_length)
            .sum();
        assert!(total_snake > 0.0, "expected snaking, got none");
    }

    #[test]
    fn single_sink_instance_connects_directly() {
        let tech = Technology::ispd09();
        let inst = ClockNetInstance::builder("one")
            .die(0.0, 0.0, 100.0, 100.0)
            .sink(Point::new(50.0, 50.0), 5.0)
            .cap_limit(1e9)
            .build()
            .expect("valid");
        let tree = build_zero_skew_tree(&inst, &tech);
        assert_eq!(tree.sink_count(), 1);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn wirelength_is_not_absurdly_larger_than_a_star() {
        // Sanity bound: a DME tree should use far less wire than a star from
        // the source to every sink.
        let inst = grid_instance(5, 5, 300.0);
        let tree = build_zero_skew_tree(&inst, &Technology::ispd09());
        let star: f64 = inst
            .sinks
            .iter()
            .map(|s| s.location.manhattan(inst.source))
            .sum();
        assert!(tree.wirelength() < star);
    }

    #[test]
    fn topology_is_balanced_for_power_of_two_sinks() {
        let inst = grid_instance(4, 2, 100.0);
        let tree = build_zero_skew_tree(&inst, &Technology::ispd09());
        // Depth of every sink should be equal for 8 sinks under balanced
        // bisection (root + trunk + 3 merge levels).
        let depths: Vec<usize> = (0..8).map(|s| tree.depth(tree.sink_node(s))).collect();
        let first = depths[0];
        assert!(depths.iter().all(|&d| d == first), "depths {depths:?}");
    }
}
