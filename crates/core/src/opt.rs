//! Shared machinery for the SPICE-driven optimization passes.
//!
//! [`OptContext`] bundles what every pass reads — the technology, the
//! clock-source electricals, the shared incremental evaluator (see
//! [`contango_sim::incremental`]), the lowering granularity and the
//! capacitance budget — and [`PassOutcome`] is the per-pass summary the
//! [`crate::pipeline`] driver collects alongside each
//! [`StageSnapshot`](crate::flow::StageSnapshot).
//!
//! Every iterative pass hands its rounds to one crate-private round driver
//! (`RoundDriver`), which applies the paper's Improvement- and
//! Violation-Check (IVC, Figure 1). A round is kept only if it improves the
//! pass's objective (skew or CLR) by more than `IMPROVEMENT_MARGIN` and
//! breaks neither the slew limit nor the capacitance budget. Otherwise the
//! tree is restored from the copy taken before the round, and the loop
//! stops. The edge edits of TWSZ, TWSN and BWSN share one top-down slack
//! sweep (`rslack_sweep`) that hands the slack each edit consumed
//! (`RSlack`) down to the edge's children.

use crate::lower::{evaluate_incremental, to_netlist};
use crate::slack::SlackAnalysis;
use crate::tree::{ClockTree, NodeId, NodeKind};
use contango_sim::{EvalReport, IncrementalEvaluator, SourceSpec};
use contango_tech::Technology;
use serde::Serialize;
use std::collections::VecDeque;

/// Everything an optimization pass needs to evaluate candidate trees:
/// the technology, the clock source, the evaluator (which counts
/// "SPICE runs"), the wire-segmentation granularity and the capacitance
/// budget.
#[derive(Debug)]
pub struct OptContext<'a> {
    /// Technology description.
    pub tech: &'a Technology,
    /// Clock source electricals.
    pub source: SourceSpec,
    /// The incremental evaluator shared by the whole flow; its stage caches
    /// persist across passes so each evaluation costs roughly the size of
    /// the change since the previous one.
    pub evaluator: &'a IncrementalEvaluator,
    /// Maximum wire segment length used during lowering, in µm.
    pub segment_um: f64,
    /// Total capacitance budget, in fF.
    pub cap_limit: f64,
}

impl<'a> OptContext<'a> {
    /// Evaluates a tree incrementally (one "SPICE run"): only stages whose
    /// nodes changed since the last evaluation are re-lowered and re-solved,
    /// plus the downstream cone their slew changes reach. The report is
    /// bit-identical to [`Self::evaluate_full`].
    pub fn evaluate(&self, tree: &ClockTree) -> EvalReport {
        evaluate_incremental(
            tree,
            self.tech,
            &self.source,
            self.segment_um,
            self.evaluator,
        )
    }

    /// Lowers the whole tree to a fresh netlist and evaluates every stage
    /// from scratch (one "SPICE run", on the same counter as
    /// [`Self::evaluate`]).
    ///
    /// The escape hatch for construction-time callers that want netlist
    /// validation, and for tests asserting incremental/full equivalence.
    pub fn evaluate_full(&self, tree: &ClockTree) -> EvalReport {
        let netlist = to_netlist(tree, self.tech, &self.source, self.segment_um)
            .expect("optimization passes only produce structurally valid trees");
        self.evaluator.evaluator().evaluate(&netlist)
    }

    /// Returns `true` when `report` violates the slew limit or the tree
    /// exceeds the capacitance budget.
    pub fn violates(&self, tree: &ClockTree, report: &EvalReport) -> bool {
        report.has_slew_violation() || tree.total_cap(self.tech) > self.cap_limit
    }
}

/// Outcome of one iterative optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PassOutcome {
    /// Number of accepted improvement rounds.
    pub rounds: usize,
    /// Nominal skew before the pass, ps.
    pub skew_before: f64,
    /// Nominal skew after the pass, ps.
    pub skew_after: f64,
    /// Clock Latency Range before the pass, ps.
    pub clr_before: f64,
    /// Clock Latency Range after the pass, ps.
    pub clr_after: f64,
}

impl PassOutcome {
    /// The outcome of a pass with no before/after metrics of its own, such
    /// as a construction pass or a user-defined pass that delegates metric
    /// reporting to the pipeline's end-of-pass snapshot.
    pub const fn zero() -> Self {
        Self {
            rounds: 0,
            skew_before: 0.0,
            skew_after: 0.0,
            clr_before: 0.0,
            clr_after: 0.0,
        }
    }
}

/// How much a round must lower its pass's objective to be kept, ps.
pub(crate) const IMPROVEMENT_MARGIN: f64 = 1e-9;

/// The metric an iterative pass lowers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Objective {
    /// Nominal skew: TWSZ, TWSN and BWSN.
    Skew,
    /// Clock Latency Range: sliding and TBSZ.
    Clr,
}

impl Objective {
    fn of(self, report: &EvalReport) -> f64 {
        match self {
            Objective::Skew => report.skew(),
            Objective::Clr => report.clr(),
        }
    }
}

/// The IVC round driver: one pass's opening evaluation, its rounds and
/// its [`PassOutcome`].
pub(crate) struct RoundDriver<'a> {
    ctx: &'a OptContext<'a>,
    objective: Objective,
    skew_before: f64,
    clr_before: f64,
    /// The evaluation of the last kept tree.
    current: EvalReport,
    rounds: usize,
}

impl<'a> RoundDriver<'a> {
    /// Opens a pass on `tree` with one evaluation of it.
    pub(crate) fn open(ctx: &'a OptContext<'a>, tree: &ClockTree, objective: Objective) -> Self {
        let current = ctx.evaluate(tree);
        Self {
            ctx,
            objective,
            skew_before: current.skew(),
            clr_before: current.clr(),
            current,
            rounds: 0,
        }
    }

    /// The evaluation of the last kept tree.
    pub(crate) fn current(&self) -> &EvalReport {
        &self.current
    }

    /// Runs one round and returns whether it was kept.
    ///
    /// `edit` changes the tree, given the evaluation of the last kept tree,
    /// and returns whether it changed anything. If it did not, the round
    /// ends with no evaluation and no restore. Otherwise the tree is
    /// evaluated once; when that shows a slew violation and a `rescue` is
    /// given, the rescue edits the tree and it is evaluated once more. The
    /// IVC then keeps the round or restores the tree.
    pub(crate) fn round(
        &mut self,
        tree: &mut ClockTree,
        edit: impl FnOnce(&mut ClockTree, &EvalReport) -> bool,
        rescue: Option<&dyn Fn(&mut ClockTree)>,
    ) -> bool {
        let saved = tree.clone();
        if !edit(tree, &self.current) {
            return false;
        }
        let mut next = self.ctx.evaluate(tree);
        if let Some(rescue) = rescue {
            if next.has_slew_violation() {
                rescue(tree);
                next = self.ctx.evaluate(tree);
            }
        }
        let improved =
            self.objective.of(&next) < self.objective.of(&self.current) - IMPROVEMENT_MARGIN;
        if !improved || self.ctx.violates(tree, &next) {
            *tree = saved;
            return false;
        }
        self.current = next;
        self.rounds += 1;
        true
    }

    /// Runs up to `max_rounds` rounds of `edit`, stopping at the first one
    /// that changes nothing or is rolled back.
    pub(crate) fn repeat(
        &mut self,
        tree: &mut ClockTree,
        max_rounds: usize,
        mut edit: impl FnMut(&mut ClockTree, &EvalReport) -> bool,
    ) {
        for _ in 0..max_rounds {
            if !self.round(tree, &mut edit, None) {
                break;
            }
        }
    }

    /// Closes the pass: the opening and last kept metrics and the number of
    /// kept rounds.
    pub(crate) fn finish(self) -> PassOutcome {
        PassOutcome {
            rounds: self.rounds,
            skew_before: self.skew_before,
            skew_after: self.current.skew(),
            clr_before: self.clr_before,
            clr_after: self.current.clr(),
        }
    }
}

/// Which edges a wiresizing or wiresnaking pass may edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scope {
    /// Every edge of the tree (TWSZ and TWSN).
    TopDown,
    /// Only the edges that drive sinks (BWSN, Section IV-G).
    BottomLevel,
}

/// One top-down sweep over the edges in `scope`, breadth-first from the
/// root, against the slow-down slacks of `report`. Each edge is offered
/// its slack minus what its ancestors' edits consumed (`RSlack`), times
/// `usage`; `edit` returns the slack it consumed, or `None` when it left
/// the edge alone. Returns whether any edge was edited.
pub(crate) fn rslack_sweep(
    tree: &mut ClockTree,
    report: &EvalReport,
    scope: Scope,
    usage: f64,
    mut edit: impl FnMut(&mut ClockTree, NodeId, f64) -> Option<f64>,
) -> bool {
    let slacks = SlackAnalysis::compute(tree, report);
    let mut changed = false;
    let mut queue = VecDeque::from([(tree.root(), 0.0)]);
    while let Some((id, rslack)) = queue.pop_front() {
        let mut consumed = rslack;
        let node = tree.node(id);
        let in_scope = node.parent.is_some()
            && (scope == Scope::TopDown || matches!(node.kind, NodeKind::Sink(_)));
        if in_scope {
            let available = (slacks.edge_slow[id] - rslack) * usage;
            if let Some(used) = edit(tree, id, available) {
                consumed += used;
                changed = true;
            }
        }
        queue.extend(tree.node(id).children.iter().map(|&c| (c, consumed)));
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dme::build_zero_skew_tree;
    use crate::instance::ClockNetInstance;
    use contango_geom::Point;
    use contango_sim::DelayModel;

    #[test]
    fn context_counts_evaluations() {
        let tech = Technology::ispd09();
        let inst = ClockNetInstance::builder("ctx")
            .die(0.0, 0.0, 500.0, 500.0)
            .sink(Point::new(100.0, 100.0), 10.0)
            .sink(Point::new(400.0, 400.0), 10.0)
            .cap_limit(1e9)
            .build()
            .expect("valid");
        let tree = build_zero_skew_tree(&inst, &tech);
        let evaluator = IncrementalEvaluator::new(tech.clone());
        let ctx = OptContext {
            tech: &tech,
            source: SourceSpec::ispd09(),
            evaluator: &evaluator,
            segment_um: 100.0,
            cap_limit: inst.cap_limit,
        };
        let r1 = ctx.evaluate(&tree);
        let _r2 = ctx.evaluate(&tree);
        assert_eq!(evaluator.runs(), 2);
        assert!(!ctx.violates(&tree, &r1));
        // The escape hatch counts on the same run counter and agrees bit
        // for bit with the incremental path.
        let full = ctx.evaluate_full(&tree);
        assert_eq!(evaluator.runs(), 3);
        assert_eq!(full, r1);
    }

    /// An unbuffered pair of sinks whose first sink is made late by a
    /// 400 µm snake.
    fn skewed_pair(tech: &Technology) -> ClockTree {
        let inst = ClockNetInstance::builder("ivc")
            .die(0.0, 0.0, 1000.0, 1000.0)
            .source(Point::new(0.0, 500.0))
            .sink(Point::new(300.0, 300.0), 10.0)
            .sink(Point::new(300.0, 700.0), 10.0)
            .cap_limit(1e9)
            .build()
            .expect("valid");
        let mut tree = build_zero_skew_tree(&inst, tech);
        let late = tree.sink_node(0);
        tree.node_mut(late).wire.extra_length += 400.0;
        tree
    }

    fn elmore_ctx<'a>(
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

    /// Snakes the early sink as much as the late one: skew falls, wire
    /// capacitance grows.
    fn balance(tree: &mut ClockTree, _: &EvalReport) -> bool {
        let early = tree.sink_node(1);
        tree.node_mut(early).wire.extra_length += 400.0;
        true
    }

    #[test]
    fn a_violating_edit_is_restored_bit_for_bit_after_one_evaluation() {
        let tech = Technology::ispd09();
        let mut tree = skewed_pair(&tech);
        let before = tree.clone();

        // With room in the budget the edit improves skew and is kept.
        let evaluator = IncrementalEvaluator::with_model(tech.clone(), DelayModel::Elmore);
        let ample = elmore_ctx(&tech, &evaluator, 1e9);
        let mut pass = RoundDriver::open(&ample, &tree, Objective::Skew);
        assert!(pass.round(&mut tree, balance, None));
        let kept = pass.finish();
        assert_eq!(kept.rounds, 1);
        assert!(kept.skew_after < kept.skew_before);

        // One fF of headroom: the same edit breaks the budget.
        let mut tree = before.clone();
        let evaluator = IncrementalEvaluator::with_model(tech.clone(), DelayModel::Elmore);
        let tight = elmore_ctx(&tech, &evaluator, tree.total_cap(&tech) + 1.0);
        let mut pass = RoundDriver::open(&tight, &tree, Objective::Skew);
        assert!(!pass.round(&mut tree, balance, None));
        assert_eq!(tree, before);
        assert_eq!(
            evaluator.runs(),
            2,
            "the opening evaluation and one for the round"
        );
        let rejected = pass.finish();
        assert_eq!(rejected.rounds, 0);
        assert_eq!(rejected.skew_after, rejected.skew_before);
    }

    #[test]
    fn a_non_improving_edit_is_restored() {
        let tech = Technology::ispd09();
        let mut tree = skewed_pair(&tech);
        let before = tree.clone();
        let evaluator = IncrementalEvaluator::with_model(tech.clone(), DelayModel::Elmore);
        let ctx = elmore_ctx(&tech, &evaluator, 1e9);
        let mut pass = RoundDriver::open(&ctx, &tree, Objective::Skew);
        // Snaking the late sink further raises skew.
        let worsen = |tree: &mut ClockTree, _: &EvalReport| {
            let late = tree.sink_node(0);
            tree.node_mut(late).wire.extra_length += 100.0;
            true
        };
        assert!(!pass.round(&mut tree, worsen, None));
        assert_eq!(tree, before);
        // An edit that claims a change but leaves the objective equal is
        // no improvement either.
        assert!(!pass.round(&mut tree, |_, _| true, None));
        assert_eq!(tree, before);
        assert_eq!(evaluator.runs(), 3);
        assert_eq!(pass.finish().rounds, 0);
    }

    #[test]
    fn an_unchanged_edit_costs_no_evaluation() {
        let tech = Technology::ispd09();
        let mut tree = skewed_pair(&tech);
        let evaluator = IncrementalEvaluator::with_model(tech.clone(), DelayModel::Elmore);
        let ctx = elmore_ctx(&tech, &evaluator, 1e9);
        let mut pass = RoundDriver::open(&ctx, &tree, Objective::Clr);
        assert!(!pass.round(&mut tree, |_, _| false, None));
        pass.repeat(&mut tree, 5, |_, _| false);
        assert_eq!(evaluator.runs(), 1, "only the opening evaluation");
        assert_eq!(pass.finish().rounds, 0);
    }
}
