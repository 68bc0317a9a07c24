//! Iterative top-down wiresnaking (paper, Section IV-F).
//!
//! Wiresnaking adds small detour loops ("snakes") to edges with remaining
//! slow-down slack. One calibration evaluation measures `Twn`, the
//! worst-case delay added by a snake of unit length `lwn`; each round then
//! adds as many snake units as the edge's remaining slack allows, top-down,
//! carrying consumed slack (`RSlack`) to the children. Smaller `lwn` gives
//! finer control at the cost of more evaluation rounds.

use crate::opt::{rslack_sweep, Objective, OptContext, PassOutcome, RoundDriver, Scope};
use crate::tree::{ClockTree, NodeId};
use contango_sim::EvalReport;

/// How one snaking round spends slack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SnakeStep {
    /// Snake unit length `lwn`, µm.
    pub unit: f64,
    /// Most snake units one edge gets per round.
    pub max_units: usize,
    /// Fraction of the available slack a round consumes.
    pub usage: f64,
}

impl Scope {
    /// The snaking step of this scope: coarse for top-down snaking, fine
    /// for bottom-level tuning.
    pub(crate) const fn snake_step(self) -> SnakeStep {
        match self {
            Scope::TopDown => SnakeStep {
                unit: 20.0,
                max_units: 25,
                usage: 0.85,
            },
            Scope::BottomLevel => SnakeStep {
                unit: 5.0,
                max_units: 10,
                usage: 0.9,
            },
        }
    }
}

/// Estimates `Twn`: the worst-case sink-latency increase caused by one snake
/// unit of length `lwn`, measured with a single calibration evaluation.
pub fn estimate_twn(
    tree: &ClockTree,
    ctx: &OptContext<'_>,
    baseline: &EvalReport,
    unit_length: f64,
) -> f64 {
    // Snake a few independent sink edges by one unit and measure.
    let mut probe = tree.clone();
    let mut snaked = 0usize;
    for &sid in tree.sink_ids().iter().take(4) {
        let node = tree.sink_node(sid);
        probe.node_mut(node).wire.extra_length += unit_length;
        snaked += 1;
    }
    if snaked == 0 {
        return 1e-3;
    }
    let probed = ctx.evaluate(&probe);
    let delta = (probed.max_latency() - baseline.max_latency()).max(0.0);
    (delta).max(1e-5)
}

/// Runs up to `max_rounds` rounds of iterative wiresnaking on `tree`.
/// `scope` picks the edges that may be snaked, and also the snake unit,
/// the most units per edge and round, and the share of slack a round
/// spends.
pub fn iterative_wiresnaking(
    tree: &mut ClockTree,
    ctx: &OptContext<'_>,
    max_rounds: usize,
    scope: Scope,
) -> PassOutcome {
    snake(tree, ctx, max_rounds, scope, scope.snake_step())
}

/// Wiresnaking with an explicit step: one `Twn` calibration at the step's
/// unit, then up to `max_rounds` rounds over the edges `scope` allows.
pub(crate) fn snake(
    tree: &mut ClockTree,
    ctx: &OptContext<'_>,
    max_rounds: usize,
    scope: Scope,
    step: SnakeStep,
) -> PassOutcome {
    let mut pass = RoundDriver::open(ctx, tree, Objective::Skew);
    // Never below 1e-5, so the unit count below stays finite.
    let twn = estimate_twn(tree, ctx, pass.current(), step.unit);
    pass.repeat(tree, max_rounds, |tree, current| {
        let add_units = |tree: &mut ClockTree, id: NodeId, available: f64| {
            let units =
                ((available / twn).floor() as isize).clamp(0, step.max_units as isize) as usize;
            (units > 0).then(|| {
                tree.node_mut(id).wire.extra_length += units as f64 * step.unit;
                units as f64 * twn
            })
        };
        rslack_sweep(tree, current, scope, step.usage, add_units)
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
    use crate::tree::NodeKind;
    use crate::wiresizing::iterative_wiresizing;
    use contango_geom::Point;
    use contango_sim::{IncrementalEvaluator, SourceSpec};
    use contango_tech::Technology;

    fn buffered_instance() -> (ClockNetInstance, ClockTree) {
        let tech = Technology::ispd09();
        let mut b = ClockNetInstance::builder("wsn")
            .die(0.0, 0.0, 2500.0, 2500.0)
            .source(Point::new(0.0, 1250.0))
            .cap_limit(400_000.0);
        let coords = [
            (300.0, 300.0, 10.0),
            (2200.0, 350.0, 30.0),
            (400.0, 2100.0, 10.0),
            (2100.0, 2200.0, 50.0),
            (1300.0, 1200.0, 20.0),
            (700.0, 1700.0, 10.0),
        ];
        for (x, y, c) in coords {
            b = b.sink(Point::new(x, y), c);
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

    fn ctx<'a>(
        tech: &'a Technology,
        evaluator: &'a IncrementalEvaluator,
        cap_limit: f64,
    ) -> OptContext<'a> {
        OptContext {
            tech,
            source: SourceSpec::ispd09(),
            evaluator,
            segment_um: 100.0,
            cap_limit,
        }
    }

    #[test]
    fn twn_estimate_is_positive() {
        let tech = Technology::ispd09();
        let (inst, tree) = buffered_instance();
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let c = ctx(&tech, &evaluator, inst.cap_limit);
        let baseline = c.evaluate(&tree);
        let twn = estimate_twn(&tree, &c, &baseline, 20.0);
        assert!(twn > 0.0);
    }

    #[test]
    fn snaking_reduces_skew_after_wiresizing() {
        let tech = Technology::ispd09();
        let (inst, mut tree) = buffered_instance();
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let c = ctx(&tech, &evaluator, inst.cap_limit);
        let _ = iterative_wiresizing(&mut tree, &c, 6, Scope::TopDown);
        let outcome = iterative_wiresnaking(&mut tree, &c, 8, Scope::TopDown);
        assert!(outcome.skew_after <= outcome.skew_before + 1e-9);
        let report = c.evaluate(&tree);
        assert!(!report.has_slew_violation());
        assert!(tree.validate().is_ok());
    }

    #[test]
    fn snaking_only_adds_wire() {
        let tech = Technology::ispd09();
        let (inst, mut tree) = buffered_instance();
        let wl_before = tree.wirelength();
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let c = ctx(&tech, &evaluator, inst.cap_limit);
        let _ = iterative_wiresnaking(&mut tree, &c, 8, Scope::TopDown);
        assert!(tree.wirelength() + 1e-9 >= wl_before);
    }

    #[test]
    fn bottom_level_config_limits_edges() {
        let tech = Technology::ispd09();
        let (inst, mut tree) = buffered_instance();
        let snapshot: Vec<f64> = (0..tree.len())
            .map(|i| tree.node(i).wire.extra_length)
            .collect();
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let c = ctx(&tech, &evaluator, inst.cap_limit);
        let _ = iterative_wiresnaking(&mut tree, &c, 8, Scope::BottomLevel);
        for (id, &before) in snapshot.iter().enumerate() {
            if (tree.node(id).wire.extra_length - before).abs() > 1e-9 {
                assert!(matches!(tree.node(id).kind, NodeKind::Sink(_)));
            }
        }
    }
}
