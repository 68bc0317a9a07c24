//! SVG visualization of clock trees (Figure 3 of the paper).
//!
//! Wires are colored with a red-green gradient reflecting their slow-down
//! slack (red = no slack, green = large slack), sinks are drawn as crosses,
//! buffers as blue rectangles and obstacles as gray boxes, mirroring the
//! presentation of Figure 3.

use crate::instance::ClockNetInstance;
use crate::slack::SlackAnalysis;
use crate::tree::{ClockTree, NodeKind};
use std::fmt::Write as _;

/// Renders `tree` (and the obstacles of `instance`) as an SVG document.
///
/// When `slacks` is provided, edges are colored by normalized slow-down
/// slack; otherwise all edges are drawn in a neutral color.
pub fn tree_to_svg(
    tree: &ClockTree,
    instance: &ClockNetInstance,
    slacks: Option<&SlackAnalysis>,
) -> String {
    let die = instance.die;
    let width = 900.0;
    let scale = width / die.width().max(1.0);
    let height = (die.height() * scale).max(1.0);
    let sx = |x: f64| (x - die.lo.x) * scale;
    let sy = |y: f64| height - (y - die.lo.y) * scale;

    let mut svg = String::new();
    let _ = writeln!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0}" height="{height:.0}" viewBox="0 0 {width:.0} {height:.0}">"#
    );
    let _ = writeln!(
        svg,
        r#"<rect x="0" y="0" width="{width:.0}" height="{height:.0}" fill="white" stroke="black"/>"#
    );

    // Obstacles.
    for o in instance.obstacles.iter() {
        let r = o.rect;
        let _ = writeln!(
            svg,
            r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#d9d9d9" stroke="#999"/>"##,
            sx(r.lo.x),
            sy(r.hi.y),
            r.width() * scale,
            r.height() * scale
        );
    }

    // Edges, as straight connections from parent to node through any route
    // bends ("diagonal wires" reduce clutter, as in the paper's figure).
    for id in tree.preorder() {
        let Some(parent) = tree.node(id).parent else {
            continue;
        };
        let color = match slacks {
            Some(s) => slack_color(s.normalized_edge_slow(id)),
            None => "#4060c0".to_string(),
        };
        let mut pts = vec![tree.node(parent).location];
        pts.extend(tree.node(id).wire.route.iter().copied());
        pts.push(tree.node(id).location);
        for pair in pts.windows(2) {
            let _ = writeln!(
                svg,
                r#"<line x1="{:.1}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="{color}" stroke-width="1.2"/>"#,
                sx(pair[0].x),
                sy(pair[0].y),
                sx(pair[1].x),
                sy(pair[1].y)
            );
        }
    }

    // Buffers and sinks.
    for id in tree.preorder() {
        let node = tree.node(id);
        let (x, y) = (sx(node.location.x), sy(node.location.y));
        if node.buffer.is_some() {
            let _ = writeln!(
                svg,
                r##"<rect x="{:.1}" y="{:.1}" width="6" height="6" fill="#2040ff"/>"##,
                x - 3.0,
                y - 3.0
            );
        }
        if matches!(node.kind, NodeKind::Sink(_)) {
            let _ = writeln!(
                svg,
                r#"<path d="M {x0:.1} {y0:.1} L {x1:.1} {y1:.1} M {x0:.1} {y1:.1} L {x1:.1} {y0:.1}" stroke="black" stroke-width="1"/>"#,
                x0 = x - 3.0,
                y0 = y - 3.0,
                x1 = x + 3.0,
                y1 = y + 3.0
            );
        }
    }

    svg.push_str("</svg>\n");
    svg
}

/// Red-green gradient: 0 → red (no slack), 1 → green (maximum slack).
fn slack_color(t: f64) -> String {
    let t = t.clamp(0.0, 1.0);
    let r = (220.0 * (1.0 - t)) as u8;
    let g = (180.0 * t + 40.0) as u8;
    format!("#{r:02x}{g:02x}30")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dme::build_zero_skew_tree;
    use contango_geom::{Point, Rect};
    use contango_tech::Technology;

    fn setup() -> (ClockNetInstance, ClockTree) {
        let inst = ClockNetInstance::builder("viz")
            .die(0.0, 0.0, 1000.0, 800.0)
            .source(Point::new(0.0, 400.0))
            .sink(Point::new(200.0, 200.0), 10.0)
            .sink(Point::new(800.0, 600.0), 10.0)
            .obstacle(Rect::new(400.0, 300.0, 600.0, 500.0))
            .cap_limit(1e9)
            .build()
            .expect("valid");
        let tree = build_zero_skew_tree(&inst, &Technology::ispd09());
        (inst, tree)
    }

    #[test]
    fn svg_contains_all_element_kinds() {
        let (inst, tree) = setup();
        let svg = tree_to_svg(&tree, &inst, None);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("<line"), "edges must be drawn");
        assert!(svg.contains("<path"), "sinks must be drawn as crosses");
        assert!(svg.contains("#d9d9d9"), "obstacles must be drawn");
    }

    #[test]
    fn slack_colors_span_red_to_green() {
        assert_eq!(slack_color(0.0), format!("#{:02x}{:02x}30", 220, 40));
        let green = slack_color(1.0);
        let red = slack_color(0.0);
        assert_ne!(green, red);
    }
}
