//! Buffer sliding and interleaving (paper, Section IV-H).
//!
//! Upsizing an inverter increases its input pin capacitance and can create a
//! slew violation on the wire driving it. Before the iterative buffer-sizing
//! stage, Contango therefore *slides* top-level inverters up their incoming
//! edge (shedding upstream wire capacitance) and *interleaves* additional
//! inverters where sliding has left two consecutive buffers too far apart.
//! Both moves target the tree trunk, where they affect all sinks equally and
//! so barely disturb skew. Each slide/interleave round is one IVC round on
//! CLR (see [`crate::opt`]).
//!
//! Interleaving inserts inverters in *pairs* so sink polarity is preserved
//! without re-running polarity correction.

use crate::buffersizing::{slide_buffer_up, trunk_buffers};
use crate::opt::{Objective, OptContext, PassOutcome, RoundDriver};
use crate::tree::{ClockTree, NodeId};

/// Fraction of its incoming edge a trunk buffer slides per round.
const SLIDE_FRACTION: f64 = 0.25;

/// Longest unbuffered wire tolerated between a trunk buffer and its parent
/// before a repeater pair is interleaved, µm.
const MAX_GAP: f64 = 600.0;

/// Slide/interleave round budget.
const MAX_ROUNDS: usize = 3;

/// Slides trunk buffers up and interleaves repeater pairs into over-long
/// trunk gaps, one round at a time.
///
/// The pass is a no-op for trees without buffers.
pub fn slide_and_interleave(tree: &mut ClockTree, ctx: &OptContext<'_>) -> PassOutcome {
    let mut pass = RoundDriver::open(ctx, tree, Objective::Clr);
    pass.repeat(tree, MAX_ROUNDS, |tree, _| {
        let trunk = trunk_buffers(tree);
        let mut changed = false;
        // Slide every trunk buffer except the one closest to the root (its
        // upstream wire is the source connection, which must keep its
        // boundary location).
        for &node in trunk.iter().skip(1) {
            let before = tree.node(node).location;
            slide_buffer_up(tree, node, SLIDE_FRACTION);
            changed |= !tree.node(node).location.approx_eq(before);
        }
        // Interleave repeater pairs where a trunk buffer's incoming edge has
        // grown longer than the gap.
        for &node in &trunk {
            if tree.edge_length(node) > MAX_GAP && interleave_pair(tree, node) {
                changed = true;
            }
        }
        changed
    });
    pass.finish()
}

/// Inserts a pair of inverters (copies of the composite at `node`) at one
/// third and two thirds of `node`'s incoming edge. Returns `false` when the
/// node has no parent, carries no buffer, or its edge is detoured.
fn interleave_pair(tree: &mut ClockTree, node: NodeId) -> bool {
    let Some(parent) = tree.node(node).parent else {
        return false;
    };
    if !tree.node(node).wire.route.is_empty() {
        return false;
    }
    let Some(buffer) = tree.node(node).buffer else {
        return false;
    };
    let from = tree.node(parent).location;
    let to = tree.node(node).location;
    // Splitting the edge twice: the first split creates the point closer to
    // the child, the second split (on the new upper edge) the point closer
    // to the parent, so both new nodes land on the original edge.
    let lower = tree.split_edge(node, from.lerp(to, 2.0 / 3.0));
    let upper = tree.split_edge(lower, from.lerp(to, 1.0 / 3.0));
    tree.node_mut(lower).buffer = Some(buffer);
    tree.node_mut(upper).buffer = Some(buffer);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffering::{default_candidates, split_long_edges};
    use crate::construct::{choose_buffers_with, ConstructArena, ParallelConfig};
    use crate::dme::build_zero_skew_tree;
    use crate::instance::ClockNetInstance;
    use crate::polarity::correct_polarity;
    use contango_geom::Point;
    use contango_sim::{IncrementalEvaluator, SourceSpec};
    use contango_tech::Technology;

    fn buffered_instance_tree(tech: &Technology) -> (ClockNetInstance, ClockTree) {
        let mut b = ClockNetInstance::builder("sliding-test")
            .die(0.0, 0.0, 4000.0, 4000.0)
            .source(Point::new(0.0, 2000.0))
            .cap_limit(800_000.0);
        for j in 0..3 {
            for i in 0..3 {
                b = b.sink(
                    Point::new(800.0 + 1000.0 * i as f64, 800.0 + 1000.0 * j as f64),
                    12.0,
                );
            }
        }
        let instance = b.build().expect("valid");
        let mut tree = build_zero_skew_tree(&instance, tech);
        split_long_edges(&mut tree, 300.0);
        let candidates = default_candidates(tech, false);
        let buffering = choose_buffers_with(
            &mut tree,
            tech,
            &candidates,
            instance.cap_limit,
            0.10,
            &instance.obstacles,
            ParallelConfig::serial(),
            &mut ConstructArena::new(),
        )
        .expect("buffering succeeds");
        correct_polarity(&mut tree, buffering.composite);
        (instance, tree)
    }

    #[test]
    fn sliding_never_worsens_clr_and_keeps_the_tree_valid() {
        let tech = Technology::ispd09();
        let (instance, mut tree) = buffered_instance_tree(&tech);
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let ctx = OptContext {
            tech: &tech,
            source: SourceSpec::ispd09(),
            evaluator: &evaluator,
            segment_um: 150.0,
            cap_limit: instance.cap_limit,
        };
        let before = ctx.evaluate(&tree);
        let outcome = slide_and_interleave(&mut tree, &ctx);
        assert!(tree.validate().is_ok());
        assert_eq!(tree.sink_count(), instance.sink_count());
        assert!(outcome.clr_after <= before.clr() + 1e-9);
        assert!((outcome.clr_before - before.clr()).abs() < 1e-9);
    }

    #[test]
    fn pass_is_a_no_op_on_unbuffered_trees() {
        let tech = Technology::ispd09();
        let instance = ClockNetInstance::builder("no-buffers")
            .die(0.0, 0.0, 500.0, 500.0)
            .source(Point::new(0.0, 250.0))
            .sink(Point::new(200.0, 200.0), 10.0)
            .sink(Point::new(400.0, 300.0), 10.0)
            .cap_limit(1e9)
            .build()
            .expect("valid");
        let mut tree = build_zero_skew_tree(&instance, &tech);
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let ctx = OptContext {
            tech: &tech,
            source: SourceSpec::ispd09(),
            evaluator: &evaluator,
            segment_um: 100.0,
            cap_limit: instance.cap_limit,
        };
        let before = tree.clone();
        let outcome = slide_and_interleave(&mut tree, &ctx);
        assert_eq!(outcome.rounds, 0);
        assert_eq!(tree, before);
    }

    #[test]
    fn interleaving_adds_a_polarity_preserving_pair() {
        let tech = Technology::ispd09();
        let mut tree = ClockTree::new(Point::new(0.0, 0.0));
        let mid = tree.add_internal(
            tree.root(),
            Point::new(900.0, 0.0),
            crate::tree::WireSegment::default(),
        );
        tree.add_sink(
            mid,
            Point::new(1000.0, 0.0),
            crate::tree::WireSegment::default(),
            0,
            10.0,
        );
        tree.node_mut(mid).buffer = Some(tech.composite(tech.small_inverter(), 8));
        let buffers_before = tree.buffer_count();
        assert!(interleave_pair(&mut tree, mid));
        assert!(tree.validate().is_ok());
        assert_eq!(tree.buffer_count(), buffers_before + 2);
        // Both new buffers sit on the original edge between the root and mid.
        let new_nodes: Vec<NodeId> = (0..tree.len())
            .filter(|&id| id != mid && tree.node(id).buffer.is_some())
            .collect();
        for id in new_nodes {
            let p = tree.node(id).location;
            assert!(p.y.abs() < 1e-9 && p.x > 0.0 && p.x < 900.0);
        }
    }

    #[test]
    fn interleaving_refuses_unbuffered_or_detoured_edges() {
        let tech = Technology::ispd09();
        let mut tree = ClockTree::new(Point::new(0.0, 0.0));
        let mid = tree.add_internal(
            tree.root(),
            Point::new(500.0, 0.0),
            crate::tree::WireSegment::default(),
        );
        // No buffer at `mid`: refuse.
        assert!(!interleave_pair(&mut tree, mid));
        // Detoured edge: refuse even with a buffer.
        tree.node_mut(mid).buffer = Some(tech.composite(tech.small_inverter(), 8));
        tree.node_mut(mid).wire.route = vec![Point::new(250.0, 100.0)];
        assert!(!interleave_pair(&mut tree, mid));
        // The root has no parent: refuse.
        let root = tree.root();
        assert!(!interleave_pair(&mut tree, root));
    }
}
