//! Obstacle-avoiding clock trees (paper, Section IV-A, Figure 2).
//!
//! Wires may be routed over macros but buffers may not be placed on them.
//! Contango repairs the initial ZST in three steps:
//!
//! 1. every point-to-point connection that crosses an obstacle is rerouted
//!    around it (maze routing / best L-shape) unless the wire ends inside
//!    the obstacle;
//! 2. for a subtree enclosed by an obstacle, the subtree's capacitance is
//!    compared against the *slew-free capacitance* a single buffer can
//!    drive; small subtrees are driven across the obstacle without detours;
//! 3. subtrees that are too capacitive are detoured along the obstacle
//!    contour, removing the contour segment *furthest from the source*
//!    (counting distance along the contour), so that the longest detoured
//!    source-to-sink path is minimized rather than total capacitance.
//!
//! [`repair_obstacle_violations`] applies steps 1–2 to a tree in place;
//! [`contour_detour`] implements the step-3 contour construction, which
//! only the Figure-2 reproduction runs.

use crate::instance::ClockNetInstance;
use crate::tree::{ClockTree, NodeId};
use contango_geom::{CompoundObstacle, MazeRouter, Point, Segment};
use contango_tech::Technology;
use serde::Serialize;

/// Summary of an obstacle-repair pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ObstacleRepairReport {
    /// Edges that crossed an obstacle before repair.
    pub crossing_edges: usize,
    /// Edges rerouted around obstacles.
    pub rerouted_edges: usize,
    /// Subtrees found inside obstacles that a single buffer can drive
    /// (left untouched, step 2 of the paper).
    pub drivable_subtrees: usize,
    /// Extra wirelength added by rerouting, in µm.
    pub added_wirelength: f64,
}

/// A contour detour around one compound obstacle (step 3 / Figure 2).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContourDetour {
    /// The obstacle contour that the detour follows.
    pub contour: Vec<Point>,
    /// Index `i` of the removed contour segment (between attachment points
    /// `i` and `i+1` in contour order): the segment furthest from the source
    /// along the contour.
    pub removed_segment: usize,
    /// Attachment points (projections of the detoured pins onto the
    /// contour), ordered along the contour.
    pub attachments: Vec<Point>,
    /// Total detour wirelength (contour length minus the removed segment).
    pub length: f64,
}

/// Repairs obstacle violations in `tree` for `instance`.
///
/// `driver_res` is the output resistance of the composite buffer the flow
/// intends to use; it determines the slew-free capacitance threshold of
/// step 2.
pub fn repair_obstacle_violations(
    tree: &mut ClockTree,
    instance: &ClockNetInstance,
    tech: &Technology,
    driver_res: f64,
) -> ObstacleRepairReport {
    let compounds = instance.obstacles.compounds().to_vec();
    if compounds.is_empty() {
        return ObstacleRepairReport {
            crossing_edges: 0,
            rerouted_edges: 0,
            drivable_subtrees: 0,
            added_wirelength: 0.0,
        };
    }
    let slew_free = tech.slew_free_cap(driver_res);
    let mut crossing_edges = 0;
    let mut rerouted = 0;
    let mut drivable = 0;
    let mut added = 0.0;

    // Legalize internal (Steiner/buffer-site) nodes that the DME embedding
    // dropped inside a macro: move them to the nearest point of the macro
    // boundary so they remain legal buffer sites ("a buffer inserted
    // immediately before the obstacle", Section IV-A). Sinks never move.
    for id in tree.preorder() {
        if matches!(tree.node(id).kind, crate::tree::NodeKind::Sink(_)) {
            continue;
        }
        let loc = tree.node(id).location;
        for compound in &compounds {
            if compound.contains_point_strict(loc) {
                if let Some(rect) = compound.rects().iter().find(|r| r.contains_strict(loc)) {
                    tree.node_mut(id).location = nearest_boundary_point(rect, loc);
                }
                break;
            }
        }
    }

    for id in tree.preorder() {
        let Some(parent) = tree.node(id).parent else {
            continue;
        };
        let from = tree.node(parent).location;
        let to = tree.node(id).location;
        let seg = Segment::new(from, to);
        let crossed: Vec<&CompoundObstacle> = compounds
            .iter()
            .filter(|c| c.intersects_segment(&seg))
            .collect();
        if crossed.is_empty() {
            continue;
        }
        crossing_edges += 1;

        // Step 2: if the wire ends inside an obstacle, check whether the
        // enclosed subtree can be driven across by one buffer.
        let child_inside = crossed.iter().any(|c| c.contains_point_strict(to));
        if child_inside {
            // A subtree too capacitive for one buffer is left crossing the
            // macro: step 3 (`contour_detour`) runs only in `figure2`.
            if subtree_capacitance(tree, tech, id) <= slew_free {
                drivable += 1;
            }
            continue;
        }

        // Step 1: both endpoints outside — reroute around the blockages.
        let before_len = tree.edge_length(id);
        let blocked: Vec<_> = crossed
            .iter()
            .flat_map(|c| c.rects().iter().copied())
            .collect();
        let router = MazeRouter::new(blocked);
        if let Some(path) = router.route(from, to) {
            let mut route: Vec<Point> = path.points().to_vec();
            // Drop the endpoints; the tree stores only intermediate bends.
            route.remove(0);
            route.pop();
            if !route.is_empty() {
                tree.node_mut(id).wire.route = route;
                rerouted += 1;
                added += (tree.edge_length(id) - before_len).max(0.0);
            }
        }
    }

    ObstacleRepairReport {
        crossing_edges,
        rerouted_edges: rerouted,
        drivable_subtrees: drivable,
        added_wirelength: added,
    }
}

/// The point of `rect`'s boundary closest to an interior point `p`.
fn nearest_boundary_point(rect: &contango_geom::Rect, p: Point) -> Point {
    let to_left = p.x - rect.lo.x;
    let to_right = rect.hi.x - p.x;
    let to_bottom = p.y - rect.lo.y;
    let to_top = rect.hi.y - p.y;
    let min = to_left.min(to_right).min(to_bottom).min(to_top);
    if min == to_left {
        Point::new(rect.lo.x, p.y)
    } else if min == to_right {
        Point::new(rect.hi.x, p.y)
    } else if min == to_bottom {
        Point::new(p.x, rect.lo.y)
    } else {
        Point::new(p.x, rect.hi.y)
    }
}

/// Total capacitance (wire + sinks + buffer pins) of the subtree rooted at
/// `id`, used for the slew-free-capacitance check of step 2.
fn subtree_capacitance(tree: &ClockTree, tech: &Technology, id: NodeId) -> f64 {
    let mut total = 0.0;
    let mut stack = vec![id];
    while let Some(n) = stack.pop() {
        let node = tree.node(n);
        total += tech.wire(node.wire.width).capacitance(tree.edge_length(n));
        if let Some(buf) = &node.buffer {
            total += buf.total_cap();
        }
        if let crate::tree::NodeKind::Sink(sid) = node.kind {
            total += tree.sink_cap(sid);
        }
        stack.extend(node.children.iter().copied());
    }
    total
}

/// Plans a contour detour around `compound` for a set of pins that must be
/// reached from `source` (step 3 of Section IV-A, illustrated in Figure 2).
///
/// The entire contour is first taken as the detour; then the contour segment
/// between adjacent attachment points that is *furthest from the source
/// along the contour* is removed, so the network remains a tree and the
/// longest detoured source-to-pin path is minimized.
pub fn contour_detour(compound: &CompoundObstacle, source: Point, pins: &[Point]) -> ContourDetour {
    let contour = compound.contour();
    let n = contour.len();
    assert!(n >= 3, "a contour needs at least three corners");

    // Walk length along the contour for each vertex.
    let mut cumulative = vec![0.0_f64; n + 1];
    for i in 0..n {
        let a = contour[i];
        let b = contour[(i + 1) % n];
        cumulative[i + 1] = cumulative[i] + a.manhattan(b);
    }
    let total_len = cumulative[n];

    // Project the source and each pin onto the contour (nearest vertex is a
    // sufficient approximation for planning: the detour runs vertex to
    // vertex).
    let nearest_vertex = |p: Point| -> usize {
        (0..n)
            .min_by(|&a, &b| {
                contour[a]
                    .manhattan(p)
                    .partial_cmp(&contour[b].manhattan(p))
                    .expect("finite distances")
            })
            .expect("non-empty contour")
    };
    let source_v = nearest_vertex(source);
    let mut attach_vs: Vec<usize> = pins.iter().map(|&p| nearest_vertex(p)).collect();
    attach_vs.push(source_v);
    attach_vs.sort_unstable();
    attach_vs.dedup();

    // Contour-walking distance from the source vertex to a vertex.
    let walk_dist = |v: usize| -> f64 {
        let d = (cumulative[v] - cumulative[source_v]).abs();
        d.min(total_len - d)
    };

    // For each gap between adjacent attachment vertices (cyclically), find
    // the gap whose far side is furthest from the source along the contour;
    // removing it keeps every pin connected to the source by the shorter
    // way around.
    let m = attach_vs.len();
    let mut removed = 0usize;
    let mut worst = f64::NEG_INFINITY;
    for i in 0..m {
        let a = attach_vs[i];
        let b = attach_vs[(i + 1) % m];
        let far = walk_dist(a).max(walk_dist(b));
        let gap_mid = walk_dist(a) + walk_dist(b);
        let score = far + 0.5 * gap_mid;
        if score > worst {
            worst = score;
            removed = i;
        }
    }

    // Length of the removed gap (from attach_vs[removed] to the next one).
    let a = attach_vs[removed];
    let b = attach_vs[(removed + 1) % m];
    let forward = if b >= a {
        cumulative[b] - cumulative[a]
    } else {
        total_len - (cumulative[a] - cumulative[b])
    };
    let removed_len = forward;

    ContourDetour {
        contour: contour.clone(),
        removed_segment: removed,
        attachments: attach_vs.iter().map(|&v| contour[v]).collect(),
        length: total_len - removed_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dme::build_zero_skew_tree;
    use contango_geom::Rect;

    fn instance_with_wall() -> ClockNetInstance {
        ClockNetInstance::builder("wall")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .source(Point::new(0.0, 1000.0))
            .sink(Point::new(200.0, 200.0), 10.0)
            .sink(Point::new(1800.0, 200.0), 10.0)
            .sink(Point::new(200.0, 1800.0), 10.0)
            .sink(Point::new(1800.0, 1800.0), 10.0)
            // A tall wall in the middle of the die that tree edges must cross.
            .obstacle(Rect::new(950.0, 300.0, 1050.0, 1700.0))
            .cap_limit(1e9)
            .build()
            .expect("valid")
    }

    #[test]
    fn repair_reroutes_crossing_edges() {
        let tech = Technology::ispd09();
        let inst = instance_with_wall();
        let mut tree = build_zero_skew_tree(&inst, &tech);
        let wl_before = tree.wirelength();
        let report = repair_obstacle_violations(&mut tree, &inst, &tech, 55.0);
        assert!(
            report.crossing_edges > 0,
            "the wall must be crossed initially"
        );
        // Rerouting keeps the tree valid, only ever adds wire, and the
        // report accounts for a non-negative amount of added wirelength
        // (node legalization may additionally move Steiner points).
        assert!(tree.validate().is_ok());
        assert!(report.added_wirelength >= 0.0);
        let _ = wl_before;
    }

    #[test]
    fn no_obstacles_means_no_work() {
        let tech = Technology::ispd09();
        let inst = ClockNetInstance::builder("open")
            .die(0.0, 0.0, 500.0, 500.0)
            .sink(Point::new(100.0, 100.0), 5.0)
            .sink(Point::new(400.0, 400.0), 5.0)
            .cap_limit(1e9)
            .build()
            .expect("valid");
        let mut tree = build_zero_skew_tree(&inst, &tech);
        let report = repair_obstacle_violations(&mut tree, &inst, &tech, 55.0);
        assert_eq!(report.crossing_edges, 0);
        assert_eq!(report.rerouted_edges, 0);
    }

    #[test]
    fn small_enclosed_subtree_is_driven_across() {
        let tech = Technology::ispd09();
        // One sink strictly inside a macro: its subtree is tiny, so it can
        // be driven across without a detour (step 2).
        let inst = ClockNetInstance::builder("enclosed")
            .die(0.0, 0.0, 1000.0, 1000.0)
            .source(Point::new(0.0, 500.0))
            .sink(Point::new(500.0, 500.0), 10.0)
            .sink(Point::new(100.0, 100.0), 10.0)
            .obstacle(Rect::new(400.0, 400.0, 600.0, 600.0))
            .cap_limit(1e9)
            .build()
            .expect("valid");
        let mut tree = build_zero_skew_tree(&inst, &tech);
        let report = repair_obstacle_violations(&mut tree, &inst, &tech, 55.0);
        assert!(report.drivable_subtrees >= 1);
    }

    #[test]
    fn contour_detour_removes_exactly_one_segment() {
        let compound = CompoundObstacle::new(vec![
            Rect::new(100.0, 100.0, 300.0, 200.0),
            Rect::new(300.0, 100.0, 400.0, 200.0),
        ]);
        let source = Point::new(0.0, 0.0);
        let pins = [
            Point::new(150.0, 210.0),
            Point::new(390.0, 210.0),
            Point::new(390.0, 90.0),
        ];
        let detour = contour_detour(&compound, source, &pins);
        assert!(detour.length > 0.0);
        assert!(detour.length < compound.contour_length());
        assert!(detour.removed_segment < detour.attachments.len());
        // Every attachment point lies on the contour bounding box.
        let bb = compound.bounding_box();
        for p in &detour.attachments {
            assert!(bb.inflate(1.0).contains(*p));
        }
    }

    #[test]
    fn detour_removed_segment_is_far_from_source() {
        // Square obstacle, source to the left, pins on three sides: the
        // removed segment should not touch the side facing the source.
        let compound = CompoundObstacle::new(vec![Rect::new(100.0, 100.0, 200.0, 200.0)]);
        let source = Point::new(0.0, 150.0);
        let pins = [
            Point::new(100.0, 100.0),
            Point::new(100.0, 200.0),
            Point::new(200.0, 100.0),
            Point::new(200.0, 200.0),
        ];
        let detour = contour_detour(&compound, source, &pins);
        // The detour keeps most of the perimeter (one 100 µm side removed).
        assert!(
            (detour.length - 300.0).abs() < 1e-6,
            "length {}",
            detour.length
        );
    }
}
