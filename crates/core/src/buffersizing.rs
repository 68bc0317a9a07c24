//! Buffer sliding, interleaving and iterative buffer sizing
//! (paper, Sections IV-H and IV-I).
//!
//! Robustness to supply variation (the CLR objective) is best improved by
//! decreasing insertion delay and using the strongest possible buffers.
//! Contango sizes up the buffers of the *tree trunk* — the chain of buffers
//! whose subtree still contains every sink — because upsizing them affects
//! all sinks equally and therefore barely disturbs skew, while the trunk
//! accounts for a third to a half of the insertion delay. Sizing proceeds
//! iteratively, by at most `100/(i+3)` percent in iteration `i`, one IVC
//! round (see [`crate::opt`]) per iteration. Buffers immediately below
//! the trunk can also be upsized with *capacitance borrowing*:
//! bottom-level buffers are downsized to pay for the extra capacitance.
//! When upsizing a buffer would overload its upstream wire, the buffer
//! *slides* toward its parent to shed upstream wire capacitance.

use crate::buffering::buffered_nodes;
use crate::opt::{Objective, OptContext, PassOutcome, RoundDriver};
use crate::tree::{ClockTree, NodeId, NodeKind};
use contango_sim::EvalReport;
use contango_tech::CompositeBuffer;

/// Number of buffer levels below the trunk eligible for
/// capacitance-borrowing upsizing.
const BRANCH_LEVELS: usize = 4;

/// Fraction of its edge an upsized trunk buffer slides toward its parent
/// when the upsizing left a slew violation.
const RESCUE_SLIDE: f64 = 0.3;

/// The trunk of a buffered tree: buffered nodes whose subtree contains every
/// sink, ordered from the root downward.
pub fn trunk_buffers(tree: &ClockTree) -> Vec<NodeId> {
    let total = tree.sink_count();
    buffered_nodes(tree)
        .into_iter()
        .filter(|&id| tree.subtree_sinks(id).len() == total)
        .collect()
}

/// Bottom-level buffers: buffered nodes whose subtree contains no further
/// buffers.
pub fn bottom_level_buffers(tree: &ClockTree) -> Vec<NodeId> {
    buffered_nodes(tree)
        .into_iter()
        .filter(|&id| {
            let mut stack: Vec<NodeId> = tree.node(id).children.clone();
            let mut has_downstream_buffer = false;
            while let Some(n) = stack.pop() {
                if tree.node(n).buffer.is_some() {
                    has_downstream_buffer = true;
                    break;
                }
                stack.extend(tree.node(n).children.iter().copied());
            }
            !has_downstream_buffer
        })
        .collect()
}

/// Buffered nodes within `levels` buffer-levels below the last trunk buffer.
pub fn branch_buffers(tree: &ClockTree, levels: usize) -> Vec<NodeId> {
    let trunk = trunk_buffers(tree);
    let trunk_set: std::collections::BTreeSet<NodeId> = trunk.iter().copied().collect();
    let mut result = Vec::new();
    for id in buffered_nodes(tree) {
        if trunk_set.contains(&id) {
            continue;
        }
        // Count buffered ancestors that are not trunk buffers, walking the
        // root path without materializing it.
        let mut buffer_level = 0;
        let mut cur = id;
        while let Some(a) = tree.node(cur).parent {
            if tree.node(a).buffer.is_some() && !trunk_set.contains(&a) {
                buffer_level += 1;
            }
            cur = a;
        }
        if buffer_level < levels {
            result.push(id);
        }
    }
    result
}

/// Slides the buffer at `node` toward its parent by `fraction` of the edge
/// length (paper, Section IV-H), reducing the capacitance its upstream
/// driver must charge. Only direct (un-detoured) edges are slid.
pub fn slide_buffer_up(tree: &mut ClockTree, node: NodeId, fraction: f64) {
    let Some(parent) = tree.node(node).parent else {
        return;
    };
    if !tree.node(node).wire.route.is_empty() {
        return;
    }
    let from = tree.node(parent).location;
    let to = tree.node(node).location;
    let new_loc = from.lerp(to, (1.0 - fraction).clamp(0.0, 1.0));
    // Sinks must not move; sliding only applies to internal buffer sites.
    if matches!(tree.node(node).kind, NodeKind::Sink(_)) {
        return;
    }
    tree.node_mut(node).location = new_loc;
}

/// Runs up to `max_iterations` iterations of trunk buffer sizing followed
/// by branch sizing with capacitance borrowing. The primary objective is CLR; skew regressions are tolerated
/// (they are repaired by the subsequent wire-sizing/snaking passes, exactly
/// as in Table III of the paper where TBSZ temporarily increases skew).
pub fn iterative_buffer_sizing(
    tree: &mut ClockTree,
    ctx: &OptContext<'_>,
    max_iterations: usize,
) -> PassOutcome {
    let mut pass = RoundDriver::open(ctx, tree, Objective::Clr);

    // Phase 1: trunk upsizing. A round that leaves a slew violation first
    // slides the upsized trunk buffers toward their parents and is
    // evaluated once more.
    for i in 1..=max_iterations {
        let trunk = trunk_buffers(tree);
        let growth = 1.0 + 1.0 / (i as f64 + 3.0);
        let upsize = |tree: &mut ClockTree, _: &EvalReport| {
            for &id in &trunk {
                let buf = tree.node(id).buffer.expect("trunk nodes are buffered");
                let new_parallel =
                    ((buf.parallel() as f64 * growth).ceil() as u32).max(buf.parallel() + 1);
                tree.node_mut(id).buffer = Some(CompositeBuffer::new(*buf.base(), new_parallel));
            }
            !trunk.is_empty()
        };
        let slide = |tree: &mut ClockTree| {
            for &id in &trunk {
                slide_buffer_up(tree, id, RESCUE_SLIDE);
            }
        };
        if !pass.round(tree, upsize, Some(&slide)) {
            break;
        }
    }

    // Phase 2: branch upsizing with capacitance borrowing from bottom-level
    // buffers.
    pass.round(
        tree,
        |tree, _| {
            let branches = branch_buffers(tree, BRANCH_LEVELS);
            if branches.is_empty() {
                return false;
            }
            let bottoms = bottom_level_buffers(tree);
            for id in branches {
                let buf = tree.node(id).buffer.expect("branch nodes are buffered");
                tree.node_mut(id).buffer = Some(buf.scaled(2));
            }
            // A buffer can be both; it is doubled first, then halved.
            for id in bottoms {
                let buf = tree.node(id).buffer.expect("bottom nodes are buffered");
                let halved = (buf.parallel() / 2).max(1);
                tree.node_mut(id).buffer = Some(CompositeBuffer::new(*buf.base(), halved));
            }
            true
        },
        None,
    );
    pass.finish()
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

    fn buffered_instance() -> (ClockNetInstance, ClockTree) {
        let tech = Technology::ispd09();
        let mut b = ClockNetInstance::builder("tbsz")
            .die(0.0, 0.0, 3000.0, 3000.0)
            .source(Point::new(0.0, 1500.0))
            .cap_limit(600_000.0);
        for j in 0..3 {
            for i in 0..3 {
                b = b.sink(
                    Point::new(600.0 + 900.0 * i as f64, 600.0 + 900.0 * j as f64),
                    20.0,
                );
            }
        }
        let inst = b.build().expect("valid");
        let mut tree = build_zero_skew_tree(&inst, &tech);
        split_long_edges(&mut tree, 250.0);
        choose_buffers_with(
            &mut tree,
            &tech,
            &default_candidates(&tech, false),
            inst.cap_limit,
            0.1,
            &inst.obstacles,
            ParallelConfig::serial(),
            &mut ConstructArena::new(),
        )
        .expect("buffers fit");
        correct_polarity(&mut tree, tech.composite(tech.small_inverter(), 32));
        (inst, tree)
    }

    #[test]
    fn trunk_is_nonempty_and_contains_all_sinks() {
        let (_inst, tree) = buffered_instance();
        let trunk = trunk_buffers(&tree);
        assert!(!trunk.is_empty());
        for id in trunk {
            assert_eq!(tree.subtree_sinks(id).len(), tree.sink_count());
        }
    }

    #[test]
    fn bottom_level_buffers_have_no_downstream_buffers() {
        let (_inst, tree) = buffered_instance();
        for id in bottom_level_buffers(&tree) {
            let below = tree.subtree_sinks(id).len();
            assert!(below > 0);
            let mut stack = tree.node(id).children.clone();
            while let Some(n) = stack.pop() {
                assert!(tree.node(n).buffer.is_none());
                stack.extend(tree.node(n).children.iter().copied());
            }
        }
    }

    #[test]
    fn sizing_does_not_violate_constraints() {
        let tech = Technology::ispd09();
        let (inst, mut tree) = buffered_instance();
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let ctx = OptContext {
            tech: &tech,
            source: SourceSpec::ispd09(),
            evaluator: &evaluator,
            segment_um: 100.0,
            cap_limit: inst.cap_limit,
        };
        let outcome = iterative_buffer_sizing(&mut tree, &ctx, 5);
        assert!(outcome.clr_after <= outcome.clr_before + 1e-9);
        let report = ctx.evaluate(&tree);
        assert!(!report.has_slew_violation());
        assert!(tree.total_cap(&tech) <= inst.cap_limit);
        assert!(tree.validate().is_ok());
    }

    #[test]
    fn sliding_moves_buffer_toward_parent() {
        let (_inst, mut tree) = buffered_instance();
        let trunk = trunk_buffers(&tree);
        let id = *trunk.last().expect("trunk exists");
        let parent = tree.node(id).parent.expect("not root");
        let before = tree.node(id).location.manhattan(tree.node(parent).location);
        slide_buffer_up(&mut tree, id, 0.5);
        let after = tree.node(id).location.manhattan(tree.node(parent).location);
        assert!(after <= before + 1e-9);
    }
}
