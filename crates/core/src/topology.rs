//! Alternative initial clock-tree topologies.
//!
//! Contango builds its initial tree with ZST/DME ([`crate::dme`]), but the
//! surrounding literature (Section II of the paper) compares against older
//! topology families — H-trees and fishbones — and DME itself descends from
//! clustering/greedy-matching constructions (Edahiro). This module provides
//! those alternatives, selected by one [`TopologyKind`] switch in
//! [`crate::construct::build_topology_with`], so the flow, the baselines
//! and the ablation benches can swap the front-end while keeping every
//! downstream optimization identical:
//!
//! * [`TopologyKind::Dme`] — the paper's ZST/DME construction.
//! * [`TopologyKind::GreedyMatching`] — recursive nearest-neighbour pairing
//!   (Edahiro-style clustering) with merge points at balance points.
//! * [`TopologyKind::HTree`] — a recursive H fractal over the sink bounding
//!   box, with sinks attached to their quadrant's subtree.
//! * [`TopologyKind::Fishbone`] — a central spine with one rib per sink.

use crate::construct::{greedy_matching_with, ConstructArena};
use crate::instance::ClockNetInstance;
use crate::tree::{ClockTree, NodeId, WireSegment};
use contango_geom::{Point, Rect};
use serde::Serialize;

/// Selects how the initial (pre-optimization) clock tree is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum TopologyKind {
    /// ZST/DME construction (the paper's choice).
    #[default]
    Dme,
    /// Recursive nearest-neighbour pairing with balance-point merge nodes.
    GreedyMatching,
    /// Recursive H fractal over the sink bounding box.
    HTree,
    /// Central spine with one horizontal rib per sink.
    Fishbone,
}

impl TopologyKind {
    /// All topology kinds, DME first.
    pub fn all() -> [TopologyKind; 4] {
        [
            TopologyKind::Dme,
            TopologyKind::GreedyMatching,
            TopologyKind::HTree,
            TopologyKind::Fishbone,
        ]
    }

    /// Short label used in reports and benches.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Dme => "dme",
            TopologyKind::GreedyMatching => "greedy-matching",
            TopologyKind::HTree => "h-tree",
            TopologyKind::Fishbone => "fishbone",
        }
    }
}

/// Builds a clock tree by iterated nearest-neighbour pairing.
///
/// Each round pairs every cluster with its nearest unpaired neighbour and
/// replaces the pair by a merge node at the capacitance-weighted balance
/// point (Edahiro's clustering heuristic under a geometric cost). Rounds
/// repeat until a single cluster remains, which is then connected to the
/// clock source.
///
/// This drives the O(n log n) engine in [`crate::construct`]
/// ([`greedy_matching_with`]) on a fresh arena. `tests/construction.rs`
/// pins its pairing bit for bit to the pre-engine formulation kept in
/// `tests/support/reference.rs`, which rebuilds its index every round and
/// removes points by mask.
pub fn greedy_matching_tree(instance: &ClockNetInstance) -> ClockTree {
    let mut arena = ConstructArena::new();
    greedy_matching_with(instance, &mut arena)
}

/// Builds a recursive H-tree over the sink bounding box.
///
/// The recursion splits the current region into four quadrants connected by
/// an "H" of internal nodes until a quadrant holds at most `LEAF_SINKS`
/// sinks, which are then attached to the quadrant's centre node directly.
pub fn h_tree(instance: &ClockNetInstance) -> ClockTree {
    const LEAF_SINKS: usize = 4;
    const MAX_DEPTH: usize = 12;

    let mut tree = ClockTree::new(instance.source);
    if instance.sinks.is_empty() {
        return tree;
    }
    let bbox = instance
        .sink_bounding_box()
        .expect("non-empty instances have a sink bounding box");
    let sinks: Vec<(usize, Point, f64)> = instance
        .sinks
        .iter()
        .map(|s| (s.id, s.location, s.cap))
        .collect();

    // Trunk from the source to the centre of the sink bounding box.
    let root = tree.root();
    let center = bbox.center();
    let trunk = tree.add_internal(root, center, WireSegment::default());
    build_h_level(&mut tree, trunk, bbox, &sinks, LEAF_SINKS, MAX_DEPTH);
    tree
}

fn build_h_level(
    tree: &mut ClockTree,
    parent: NodeId,
    region: Rect,
    sinks: &[(usize, Point, f64)],
    leaf_sinks: usize,
    depth_left: usize,
) {
    if sinks.is_empty() {
        return;
    }
    if sinks.len() <= leaf_sinks || depth_left == 0 {
        for &(id, p, cap) in sinks {
            tree.add_sink(parent, p, WireSegment::default(), id, cap);
        }
        return;
    }
    let center = region.center();
    let quarter_w = region.width() / 4.0;
    let quarter_h = region.height() / 4.0;
    // The H: two horizontal arms from the centre, each sprouting two
    // vertical arms into the quadrant centres.
    let arms = [
        Point::new(center.x - quarter_w, center.y),
        Point::new(center.x + quarter_w, center.y),
    ];
    for (arm_idx, &arm) in arms.iter().enumerate() {
        let arm_node = tree.add_internal(parent, arm, WireSegment::default());
        for vertical in [-1.0, 1.0] {
            let quadrant_center = Point::new(arm.x, center.y + vertical * quarter_h);
            let quadrant = Rect::new(
                if arm_idx == 0 { region.lo.x } else { center.x },
                if vertical < 0.0 {
                    region.lo.y
                } else {
                    center.y
                },
                if arm_idx == 0 { center.x } else { region.hi.x },
                if vertical < 0.0 {
                    center.y
                } else {
                    region.hi.y
                },
            );
            let quadrant_sinks: Vec<(usize, Point, f64)> = sinks
                .iter()
                .copied()
                .filter(|&(_, p, _)| quadrant.contains(p) && half_open(&quadrant, &region, p))
                .collect();
            if quadrant_sinks.is_empty() {
                continue;
            }
            let quad_node = tree.add_internal(arm_node, quadrant_center, WireSegment::default());
            build_h_level(
                tree,
                quad_node,
                quadrant,
                &quadrant_sinks,
                leaf_sinks,
                depth_left - 1,
            );
        }
    }
}

/// Treats shared quadrant boundaries as belonging to the lower/left quadrant
/// so a sink on the split line is assigned to exactly one quadrant.
fn half_open(quadrant: &Rect, region: &Rect, p: Point) -> bool {
    let on_right_boundary =
        (p.x - quadrant.hi.x).abs() < contango_geom::GEOM_EPS && quadrant.hi.x < region.hi.x;
    let on_top_boundary =
        (p.y - quadrant.hi.y).abs() < contango_geom::GEOM_EPS && quadrant.hi.y < region.hi.y;
    !(on_right_boundary || on_top_boundary)
}

/// Builds a fishbone topology: a vertical spine at the sinks' median x
/// spanning their y-range, with one horizontal rib per sink.
pub fn fishbone_tree(instance: &ClockNetInstance) -> ClockTree {
    let mut tree = ClockTree::new(instance.source);
    if instance.sinks.is_empty() {
        return tree;
    }
    let mut xs: Vec<f64> = instance.sinks.iter().map(|s| s.location.x).collect();
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite coordinates"));
    let spine_x = xs[xs.len() / 2];

    // Sinks sorted by y define the spine's segments top-to-bottom from the
    // point nearest the source.
    let mut by_y: Vec<&crate::instance::SinkSpec> = instance.sinks.iter().collect();
    by_y.sort_by(|a, b| {
        a.location
            .y
            .partial_cmp(&b.location.y)
            .expect("finite coordinates")
            .then(a.id.cmp(&b.id))
    });

    // Enter the spine at the y closest to the source to keep the trunk short.
    let entry_y = instance
        .source
        .y
        .clamp(by_y[0].location.y, by_y[by_y.len() - 1].location.y);
    let root = tree.root();
    let entry = tree.add_internal(root, Point::new(spine_x, entry_y), WireSegment::default());

    // Build the spine upwards and downwards from the entry point.
    let (below, above): (Vec<_>, Vec<_>) = by_y.iter().partition(|s| s.location.y < entry_y);
    let mut attach_run = |run: Vec<&&crate::instance::SinkSpec>| {
        let mut prev = entry;
        let mut prev_y = entry_y;
        for sink in run {
            let spine_point = Point::new(spine_x, sink.location.y);
            let node = if (sink.location.y - prev_y).abs() < contango_geom::GEOM_EPS {
                prev
            } else {
                let n = tree.add_internal(prev, spine_point, WireSegment::default());
                prev_y = sink.location.y;
                n
            };
            tree.add_sink(
                node,
                sink.location,
                WireSegment::default(),
                sink.id,
                sink.cap,
            );
            prev = node;
        }
    };
    attach_run(above.iter().collect());
    let mut below_sorted: Vec<&&crate::instance::SinkSpec> = below.iter().collect();
    below_sorted.reverse();
    attach_run(below_sorted);
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{build_topology_with, ParallelConfig};
    use contango_tech::Technology;

    fn grid_instance(nx: usize, ny: usize) -> ClockNetInstance {
        let mut b = ClockNetInstance::builder("topology-test")
            .die(0.0, 0.0, 4000.0, 4000.0)
            .source(Point::new(0.0, 2000.0))
            .cap_limit(1.0e6);
        for j in 0..ny {
            for i in 0..nx {
                b = b.sink(
                    Point::new(400.0 + 450.0 * i as f64, 400.0 + 450.0 * j as f64),
                    10.0 + ((i + j) % 3) as f64,
                );
            }
        }
        b.build().expect("valid instance")
    }

    fn check_spans_all_sinks(tree: &ClockTree, instance: &ClockNetInstance) {
        assert!(tree.validate().is_ok(), "{:?}", tree.validate());
        assert_eq!(tree.sink_count(), instance.sink_count());
        for sink in &instance.sinks {
            let node = tree.sink_node(sink.id);
            assert!(tree.node(node).location.approx_eq(sink.location));
            assert!((tree.sink_cap(sink.id) - sink.cap).abs() < 1e-12);
        }
        assert!(tree.wirelength() > 0.0);
    }

    /// The flow's dispatch over every kind, serially on a fresh arena.
    fn build(kind: TopologyKind, instance: &ClockNetInstance) -> ClockTree {
        build_topology_with(
            kind,
            instance,
            &Technology::ispd09(),
            ParallelConfig::serial(),
            &mut ConstructArena::new(),
        )
    }

    #[test]
    fn every_topology_spans_every_sink() {
        let instance = grid_instance(5, 4);
        for kind in TopologyKind::all() {
            let tree = build(kind, &instance);
            check_spans_all_sinks(&tree, &instance);
        }
    }

    #[test]
    fn greedy_matching_creates_binary_merges() {
        let instance = grid_instance(4, 4);
        let tree = greedy_matching_tree(&instance);
        check_spans_all_sinks(&tree, &instance);
        // With 16 sinks the matching hierarchy has 15 merge nodes plus the
        // root, so the tree has at most 2n internal nodes.
        assert!(tree.len() <= 2 * instance.sink_count() + 2);
        // Internal nodes other than the root have exactly 2 children in a
        // perfect matching hierarchy of a power-of-two sink count.
        let binary_internal = (0..tree.len())
            .filter(|&id| {
                id != tree.root()
                    && tree.node(id).children.len() == 2
                    && matches!(tree.node(id).kind, crate::tree::NodeKind::Internal)
            })
            .count();
        assert_eq!(binary_internal, instance.sink_count() - 1);
    }

    #[test]
    fn greedy_matching_is_deterministic() {
        let instance = grid_instance(5, 3);
        let a = greedy_matching_tree(&instance);
        let b = greedy_matching_tree(&instance);
        assert_eq!(a, b);
    }

    #[test]
    fn h_tree_balances_symmetric_sinks() {
        // Four sinks at the corners of a square centred on the die centre:
        // the H-tree must give all four the same path length.
        let mut b = ClockNetInstance::builder("h-sym")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .source(Point::new(0.0, 1000.0))
            .cap_limit(1.0e6);
        for (x, y) in [
            (500.0, 500.0),
            (1500.0, 500.0),
            (500.0, 1500.0),
            (1500.0, 1500.0),
        ] {
            b = b.sink(Point::new(x, y), 10.0);
        }
        let instance = b.build().expect("valid");
        let tree = h_tree(&instance);
        check_spans_all_sinks(&tree, &instance);
        let path_len = |sid: usize| -> f64 {
            tree.path_to_root(tree.sink_node(sid))
                .iter()
                .map(|&n| tree.edge_length(n))
                .sum()
        };
        let reference = path_len(0);
        for sid in 1..4 {
            assert!(
                (path_len(sid) - reference).abs() < 1e-6,
                "sink {sid} path {} vs {}",
                path_len(sid),
                reference
            );
        }
    }

    #[test]
    fn h_tree_handles_uneven_sink_counts() {
        let instance = grid_instance(5, 3);
        let tree = h_tree(&instance);
        check_spans_all_sinks(&tree, &instance);
    }

    #[test]
    fn fishbone_routes_every_sink_through_the_spine() {
        let instance = grid_instance(4, 5);
        let tree = fishbone_tree(&instance);
        check_spans_all_sinks(&tree, &instance);
        // Every sink's parent lies on the spine (same x for all of them).
        let mut spine_xs: Vec<f64> = instance
            .sinks
            .iter()
            .map(|s| {
                tree.node(tree.node(tree.sink_node(s.id)).parent.expect("parent"))
                    .location
                    .x
            })
            .collect();
        spine_xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        assert_eq!(spine_xs.len(), 1, "all ribs start on one spine");
    }

    #[test]
    fn topology_labels_are_unique() {
        let labels: Vec<&str> = TopologyKind::all().iter().map(|k| k.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(TopologyKind::default(), TopologyKind::Dme);
    }

    #[test]
    fn empty_instances_produce_root_only_trees() {
        let instance = ClockNetInstance::builder("empty")
            .die(0.0, 0.0, 100.0, 100.0)
            .source(Point::new(0.0, 50.0))
            .cap_limit(1000.0)
            .build();
        // Builders may reject empty instances; when they do, nothing to test.
        if let Ok(instance) = instance {
            for kind in [
                TopologyKind::GreedyMatching,
                TopologyKind::HTree,
                TopologyKind::Fishbone,
            ] {
                let tree = build(kind, &instance);
                assert!(tree.is_empty());
            }
        }
    }
}
