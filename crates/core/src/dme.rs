//! Zero-skew tree construction by Deferred Merge Embedding (DME).
//!
//! Contango builds its initial tree with a ZST/DME algorithm (paper,
//! Section IV and reference \[3\]): a balanced connection topology is chosen
//! over the sinks, merging segments are computed bottom-up so that the
//! Elmore delays of the two merged subtrees are equal (snaking one side when
//! necessary), and exact embedding locations are chosen top-down, pulling
//! every merging segment as close to the clock source as possible.
//!
//! Two implementations share the merge mathematics:
//!
//! * [`build_zero_skew_tree`] drives the allocation-lean, optionally
//!   parallel construction engine in [`crate::construct`] — the production
//!   path;
//! * [`reference_zero_skew_tree`] is the direct recursive formulation,
//!   kept as the readable specification of the algorithm. Equivalence
//!   tests pin the engine bit-for-bit to this reference, and an ignored
//!   timing test in `tests/construction.rs` asserts the engine's speedup
//!   over it.

use crate::construct::{zero_skew_tree_with, ConstructArena, ParallelConfig};
use crate::instance::ClockNetInstance;
use crate::tree::{ClockTree, NodeId, WireSegment};
use contango_geom::{Point, TiltedRect};
use contango_tech::{Technology, WireWidth};
use serde::Serialize;

/// Options controlling initial tree construction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DmeOptions {
    /// Wire width used for the initial tree (wide by default, leaving the
    /// narrow width available as a slow-down knob for wire sizing).
    pub wire_width: WireWidth,
    /// Thread fan-out for independent subtree merges; results are
    /// bit-identical for every thread count.
    pub parallel: ParallelConfig,
}

impl Default for DmeOptions {
    fn default() -> Self {
        Self {
            wire_width: WireWidth::Wide,
            parallel: ParallelConfig::serial(),
        }
    }
}

/// Connection topology over the sinks: a strictly binary tree whose leaves
/// are sink indices.
#[derive(Debug, Clone, PartialEq)]
enum Topology {
    Leaf(usize),
    Merge(Box<Topology>, Box<Topology>),
}

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
/// This drives the construction engine in [`crate::construct`]; callers
/// that build many trees can amortize the engine's scratch memory with
/// [`zero_skew_tree_with`]. The result is bit-identical to
/// [`reference_zero_skew_tree`] for every [`ParallelConfig`].
pub fn build_zero_skew_tree(
    instance: &ClockNetInstance,
    tech: &Technology,
    options: DmeOptions,
) -> ClockTree {
    let mut arena = ConstructArena::new();
    zero_skew_tree_with(instance, tech, options, &mut arena)
}

/// The direct recursive DME formulation: the pre-engine reference
/// implementation.
///
/// Kept as the executable specification that equivalence tests pin
/// [`build_zero_skew_tree`] against, and as the baseline the `construction`
/// benchmark group measures the engine's speedup over. Ignores
/// [`DmeOptions::parallel`].
pub fn reference_zero_skew_tree(
    instance: &ClockNetInstance,
    tech: &Technology,
    options: DmeOptions,
) -> ClockTree {
    let mut tree = ClockTree::new(instance.source);
    if instance.sinks.is_empty() {
        return tree;
    }
    if instance.sinks.len() == 1 {
        let s = instance.sinks[0];
        tree.add_sink(
            tree.root(),
            s.location,
            WireSegment::direct(options.wire_width),
            s.id,
            s.cap,
        );
        return tree;
    }

    let code = *tech.wire(options.wire_width);
    let indices: Vec<usize> = (0..instance.sinks.len()).collect();
    let topo = build_topology(instance, indices);

    let mut merge_data: Vec<MergeData> = Vec::new();
    let root_idx = merge_bottom_up(
        &topo,
        instance,
        code.unit_res,
        code.unit_cap,
        &mut merge_data,
    );

    // Top-down embedding, starting from the point of the root merging region
    // closest to the clock source.
    let root_location = merge_data[root_idx]
        .region
        .closest_point_to(instance.source);
    let dme_root = tree.add_internal(
        tree.root(),
        root_location,
        WireSegment::direct(options.wire_width),
    );
    embed_top_down(
        &topo,
        root_idx,
        &merge_data,
        instance,
        options.wire_width,
        &mut tree,
        dme_root,
        root_location,
    );
    tree
}

/// Recursive balanced-bisection topology: sinks are split at the median of
/// the wider spread dimension, producing a balanced binary tree whose
/// leaves are geometrically clustered.
fn build_topology(instance: &ClockNetInstance, mut indices: Vec<usize>) -> Topology {
    if indices.len() == 1 {
        return Topology::Leaf(indices[0]);
    }
    let xs: Vec<f64> = indices
        .iter()
        .map(|&i| instance.sinks[i].location.x)
        .collect();
    let ys: Vec<f64> = indices
        .iter()
        .map(|&i| instance.sinks[i].location.y)
        .collect();
    let spread = |v: &[f64]| {
        v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - v.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    let split_by_x = spread(&xs) >= spread(&ys);
    indices.sort_by(|&a, &b| {
        let (pa, pb) = (instance.sinks[a].location, instance.sinks[b].location);
        let (ka, kb) = if split_by_x {
            (pa.x, pb.x)
        } else {
            (pa.y, pb.y)
        };
        ka.partial_cmp(&kb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mid = indices.len() / 2;
    let right = indices.split_off(mid);
    Topology::Merge(
        Box::new(build_topology(instance, indices)),
        Box::new(build_topology(instance, right)),
    )
}

/// Bottom-up merging-segment computation. Returns the index of the
/// topology node's [`MergeData`] in `out`.
fn merge_bottom_up(
    topo: &Topology,
    instance: &ClockNetInstance,
    unit_res: f64,
    unit_cap: f64,
    out: &mut Vec<MergeData>,
) -> usize {
    match topo {
        Topology::Leaf(sink_idx) => {
            let s = &instance.sinks[*sink_idx];
            out.push(MergeData {
                region: TiltedRect::from_point(s.location),
                cap: s.cap,
                delay: 0.0,
                edge_left: 0.0,
                edge_right: 0.0,
            });
            out.len() - 1
        }
        Topology::Merge(left, right) => {
            let li = merge_bottom_up(left, instance, unit_res, unit_cap, out);
            let ri = merge_bottom_up(right, instance, unit_res, unit_cap, out);
            let (la, lb, region) = balance_merge(&out[li], &out[ri], unit_res, unit_cap);
            let delay = out[li].delay + edge_elmore(unit_res, unit_cap, la, out[li].cap);
            let cap = out[li].cap + out[ri].cap + unit_cap * (la + lb);
            out.push(MergeData {
                region,
                cap,
                delay,
                edge_left: la,
                edge_right: lb,
            });
            out.len() - 1
        }
    }
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

/// Top-down embedding: place each merge point at the feasible location
/// closest to its parent and emit tree nodes.
#[allow(clippy::too_many_arguments)]
fn embed_top_down(
    topo: &Topology,
    data_idx: usize,
    data: &[MergeData],
    instance: &ClockNetInstance,
    width: WireWidth,
    tree: &mut ClockTree,
    tree_node: NodeId,
    location: Point,
) {
    let Topology::Merge(left, right) = topo else {
        return;
    };
    // Children were pushed onto `data` in left-then-right order just before
    // their parent; recover their indices by walking the topology again.
    let (li, ri) = child_indices(topo, data_idx, data);
    for (child_topo, child_idx, assigned_len) in [
        (left.as_ref(), li, data[data_idx].edge_left),
        (right.as_ref(), ri, data[data_idx].edge_right),
    ] {
        let child_region = data[child_idx].region;
        let child_loc = child_region.closest_point_to(location);
        let geometric = location.manhattan(child_loc);
        let extra = (assigned_len - geometric).max(0.0);
        let wire = WireSegment {
            width,
            route: Vec::new(),
            extra_length: extra,
        };
        let child_node = match child_topo {
            Topology::Leaf(sink_idx) => {
                let s = &instance.sinks[*sink_idx];
                tree.add_sink(tree_node, s.location, wire, s.id, s.cap)
            }
            Topology::Merge(_, _) => tree.add_internal(tree_node, child_loc, wire),
        };
        embed_top_down(
            child_topo, child_idx, data, instance, width, tree, child_node, child_loc,
        );
    }
}

/// Recovers the `MergeData` indices of the two children of the topology
/// node stored at `parent_idx`. Data is laid out in postorder (left subtree,
/// right subtree, parent), so the right child is at `parent_idx − 1` and the
/// left child precedes the whole right subtree.
fn child_indices(topo: &Topology, parent_idx: usize, _data: &[MergeData]) -> (usize, usize) {
    let Topology::Merge(_, right) = topo else {
        unreachable!("child_indices is only called for merge nodes");
    };
    let right_size = topo_size(right);
    let right_idx = parent_idx - 1;
    let left_idx = parent_idx - 1 - right_size;
    let _ = right_size;
    (left_idx, right_idx)
}

fn topo_size(topo: &Topology) -> usize {
    match topo {
        Topology::Leaf(_) => 1,
        Topology::Merge(l, r) => 1 + topo_size(l) + topo_size(r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::to_netlist;
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
        let tree = build_zero_skew_tree(&inst, &Technology::ispd09(), DmeOptions::default());
        assert_eq!(tree.sink_count(), 16);
        assert!(tree.validate().is_ok());
    }

    #[test]
    fn unbuffered_tree_is_zero_skew_under_elmore() {
        let tech = Technology::ispd09();
        let inst = grid_instance(3, 3, 150.0);
        let tree = build_zero_skew_tree(&inst, &tech, DmeOptions::default());
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
        let tree = build_zero_skew_tree(&inst, &tech, DmeOptions::default());
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
        let tree = build_zero_skew_tree(&inst, &tech, DmeOptions::default());
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
        let tree = build_zero_skew_tree(&inst, &tech, DmeOptions::default());
        assert_eq!(tree.sink_count(), 1);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn wirelength_is_not_absurdly_larger_than_a_star() {
        // Sanity bound: a DME tree should use far less wire than a star from
        // the source to every sink.
        let inst = grid_instance(5, 5, 300.0);
        let tree = build_zero_skew_tree(&inst, &Technology::ispd09(), DmeOptions::default());
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
        let tree = build_zero_skew_tree(&inst, &Technology::ispd09(), DmeOptions::default());
        // Depth of every sink should be equal for 8 sinks under balanced
        // bisection (root + trunk + 3 merge levels).
        let depths: Vec<usize> = (0..8).map(|s| tree.depth(tree.sink_node(s))).collect();
        let first = depths[0];
        assert!(depths.iter().all(|&d| d == first), "depths {depths:?}");
    }
}
