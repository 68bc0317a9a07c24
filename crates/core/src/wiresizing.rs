//! Iterative top-down wiresizing (paper, Section IV-E, Algorithm 1).
//!
//! After the initial SPICE run, Contango computes slow-down slacks at every
//! edge and an ad-hoc linear model `Tws` — the worst-case latency increase
//! caused by downsizing one micrometre of wire — obtained from a single
//! calibration evaluation. Each round is a top-down traversal that
//! downsizes (wide → narrow) every edge whose remaining slack exceeds the
//! predicted impact, passing the consumed budget (`RSlack`) down to its
//! children, and is checked by the IVC round driver of [`crate::opt`].

use crate::opt::{rslack_sweep, Objective, OptContext, PassOutcome, RoundDriver, Scope};
use crate::tree::{ClockTree, NodeId};
use contango_sim::EvalReport;
use contango_tech::WireWidth;

/// Estimates `Tws`: the worst-case sink-latency increase per micrometre of
/// downsized wire, measured by downsizing a handful of independent mid-tree
/// wide edges and re-evaluating once (one extra "SPICE run").
pub fn estimate_tws(tree: &ClockTree, ctx: &OptContext<'_>, baseline: &EvalReport) -> f64 {
    let candidates = sample_mid_tree_edges(tree, 4);
    let mut probe = tree.clone();
    let mut probed_len = 0.0;
    for &id in &candidates {
        if probe.node(id).wire.width == WireWidth::Wide {
            probe.node_mut(id).wire.width = WireWidth::Narrow;
            probed_len += probe.edge_length(id);
        }
    }
    if probed_len <= 0.0 {
        return 1e-3;
    }
    let probed = ctx.evaluate(&probe);
    let delta = (probed.max_latency() - baseline.max_latency()).max(0.0);
    (delta / probed_len).max(1e-5)
}

/// Picks up to `count` independent (non-ancestor) wide edges near the middle
/// of the tree for `Tws` calibration.
fn sample_mid_tree_edges(tree: &ClockTree, count: usize) -> Vec<NodeId> {
    let depths = tree.depths();
    let max_depth = depths.iter().copied().max().unwrap_or(0).max(1);
    let target = max_depth / 2;
    let mut picked: Vec<NodeId> = Vec::new();
    for id in tree.preorder() {
        if picked.len() >= count {
            break;
        }
        if tree.node(id).parent.is_none() {
            continue;
        }
        if depths[id] != target || tree.node(id).wire.width != WireWidth::Wide {
            continue;
        }
        if tree.edge_length(id) < 1.0 {
            continue;
        }
        let independent = picked
            .iter()
            .all(|&p| !tree.is_on_root_path(id, p) && !tree.is_on_root_path(p, id));
        if independent {
            picked.push(id);
        }
    }
    if picked.is_empty() {
        // Fall back to any wide edge.
        picked = tree
            .preorder()
            .into_iter()
            .filter(|&id| {
                tree.node(id).parent.is_some()
                    && tree.node(id).wire.width == WireWidth::Wide
                    && tree.edge_length(id) > 1.0
            })
            .take(count)
            .collect();
    }
    picked
}

/// Runs iterative wiresizing on `tree`: one `Tws` calibration, then up to
/// `max_rounds` rounds of one slack-computing evaluation each, downsizing
/// the edges `scope` allows.
pub fn iterative_wiresizing(
    tree: &mut ClockTree,
    ctx: &OptContext<'_>,
    max_rounds: usize,
    scope: Scope,
) -> PassOutcome {
    // Fraction of the available slack a round may consume: a safety margin
    // against the error of the linear model.
    let usage = match scope {
        Scope::TopDown => 0.8,
        Scope::BottomLevel => 0.9,
    };
    let mut pass = RoundDriver::open(ctx, tree, Objective::Skew);
    let tws = estimate_tws(tree, ctx, pass.current());
    pass.repeat(tree, max_rounds, |tree, current| {
        let downsize = |tree: &mut ClockTree, id: NodeId, available: f64| {
            let est = tws * tree.edge_length(id);
            let wide = tree.node(id).wire.width == WireWidth::Wide;
            (wide && est > 1e-12 && available > est).then(|| {
                tree.node_mut(id).wire.width = WireWidth::Narrow;
                est
            })
        };
        rslack_sweep(tree, current, scope, usage, downsize)
    });
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
        let mut b = ClockNetInstance::builder("wsz")
            .die(0.0, 0.0, 3000.0, 3000.0)
            .source(Point::new(0.0, 1500.0))
            .cap_limit(500_000.0);
        for j in 0..3 {
            for i in 0..3 {
                b = b.sink(
                    Point::new(400.0 + 1000.0 * i as f64, 400.0 + 1000.0 * j as f64),
                    15.0 + 10.0 * ((i + j) % 3) as f64,
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
    fn tws_estimate_is_positive_and_small() {
        let tech = Technology::ispd09();
        let (inst, tree) = buffered_instance();
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let ctx = OptContext {
            tech: &tech,
            source: SourceSpec::ispd09(),
            evaluator: &evaluator,
            segment_um: 100.0,
            cap_limit: inst.cap_limit,
        };
        let baseline = ctx.evaluate(&tree);
        let tws = estimate_tws(&tree, &ctx, &baseline);
        assert!(tws > 0.0);
        assert!(
            tws < 1.0,
            "Tws per µm should be a small fraction of a ps, got {tws}"
        );
    }

    #[test]
    fn wiresizing_never_worsens_skew_and_respects_limits() {
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
        let outcome = iterative_wiresizing(&mut tree, &ctx, 6, Scope::TopDown);
        assert!(outcome.skew_after <= outcome.skew_before + 1e-9);
        let final_report = ctx.evaluate(&tree);
        assert!(!final_report.has_slew_violation());
        assert!(tree.total_cap(&tech) <= inst.cap_limit);
        assert!(tree.validate().is_ok());
    }

    #[test]
    fn downsizing_reduces_total_capacitance() {
        let tech = Technology::ispd09();
        let (inst, mut tree) = buffered_instance();
        let cap_before = tree.total_cap(&tech);
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let ctx = OptContext {
            tech: &tech,
            source: SourceSpec::ispd09(),
            evaluator: &evaluator,
            segment_um: 100.0,
            cap_limit: inst.cap_limit,
        };
        let outcome = iterative_wiresizing(&mut tree, &ctx, 6, Scope::TopDown);
        if outcome.rounds > 0 {
            assert!(tree.total_cap(&tech) < cap_before);
        }
    }

    #[test]
    fn bottom_level_mode_only_touches_sink_edges() {
        let tech = Technology::ispd09();
        let (inst, mut tree) = buffered_instance();
        let widths_before: Vec<_> = (0..tree.len()).map(|i| tree.node(i).wire.width).collect();
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let ctx = OptContext {
            tech: &tech,
            source: SourceSpec::ispd09(),
            evaluator: &evaluator,
            segment_um: 100.0,
            cap_limit: inst.cap_limit,
        };
        let _ = iterative_wiresizing(&mut tree, &ctx, 6, Scope::BottomLevel);
        for (id, &width_before) in widths_before.iter().enumerate() {
            if tree.node(id).wire.width != width_before {
                assert!(
                    matches!(tree.node(id).kind, crate::tree::NodeKind::Sink(_)),
                    "non-sink edge {id} was resized in bottom-level mode"
                );
            }
        }
    }
}
