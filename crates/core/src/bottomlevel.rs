//! Bottom-level fine-tuning (paper, Section IV-G).
//!
//! After the two top-down skew-reduction phases, skew is small enough that
//! only the wires directly connected to sinks are touched: bottom-level
//! wiresizing and wiresnaking run until the result stops improving. The
//! expected gain is small (a couple of picoseconds) but it is a large
//! fraction of the remaining skew. When skew drops below a few picoseconds,
//! rise/fall divergence limits further improvement.

use crate::opt::{OptContext, PassOutcome, Scope, IMPROVEMENT_MARGIN};
use crate::tree::ClockTree;
use crate::wiresizing::iterative_wiresizing;
use crate::wiresnaking::{iterative_wiresnaking, snake, SnakeStep};

/// The final per-sink micro-snake: bottom-level units, at most 8 per sink,
/// spending 80% of each sink's own slack.
const MICRO_SNAKE: SnakeStep = SnakeStep {
    max_units: 8,
    usage: 0.8,
    ..Scope::BottomLevel.snake_step()
};

/// Runs up to `max_rounds` sweeps of bottom-level wiresizing and
/// wiresnaking until the skew stops improving, then one micro-snaking
/// round.
pub fn bottom_level_tuning(
    tree: &mut ClockTree,
    ctx: &OptContext<'_>,
    max_rounds: usize,
) -> PassOutcome {
    let initial = ctx.evaluate(tree);
    let mut best_skew = initial.skew();
    let mut rounds = 0;

    for _ in 0..max_rounds {
        let a = iterative_wiresizing(tree, ctx, 2, Scope::BottomLevel);
        let b = iterative_wiresnaking(tree, ctx, 2, Scope::BottomLevel);
        let new_skew = b.skew_after.min(a.skew_after);
        if new_skew + IMPROVEMENT_MARGIN >= best_skew {
            break;
        }
        best_skew = new_skew;
        rounds += 1;
    }

    // Slow down each fast sink individually by the amount its own slack
    // allows, in one careful round.
    let micro = snake(tree, ctx, 1, Scope::BottomLevel, MICRO_SNAKE);
    PassOutcome {
        rounds: rounds + micro.rounds,
        skew_before: initial.skew(),
        skew_after: micro.skew_after.min(best_skew),
        clr_before: initial.clr(),
        clr_after: micro.clr_after,
    }
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

    #[test]
    fn bottom_level_tuning_never_worsens_skew() {
        let tech = Technology::ispd09();
        let mut b = ClockNetInstance::builder("bwsn")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .source(Point::new(0.0, 1000.0))
            .cap_limit(300_000.0);
        for (x, y, c) in [
            (250.0, 250.0, 12.0),
            (1750.0, 300.0, 28.0),
            (350.0, 1700.0, 9.0),
            (1650.0, 1750.0, 35.0),
            (1000.0, 900.0, 18.0),
        ] {
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

        let evaluator = IncrementalEvaluator::new(tech.clone());
        let ctx = OptContext {
            tech: &tech,
            source: SourceSpec::ispd09(),
            evaluator: &evaluator,
            segment_um: 100.0,
            cap_limit: inst.cap_limit,
        };
        let outcome = bottom_level_tuning(&mut tree, &ctx, 4);
        assert!(outcome.skew_after <= outcome.skew_before + 1e-9);
        let report = ctx.evaluate(&tree);
        assert!(!report.has_slew_violation());
        assert!(tree.validate().is_ok());
        assert!(tree.total_cap(&tech) <= inst.cap_limit);
    }
}
