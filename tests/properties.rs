//! Property-based tests on the core data structures and invariants.

use contango::core::dme::{build_zero_skew_tree, DmeOptions};
use contango::core::error::CoreError;
use contango::core::flow::{ContangoFlow, FlowConfig, FlowStage, StageSnapshot};
use contango::core::instance::ClockNetInstance;
use contango::core::lower::to_netlist;
use contango::core::opt::PassOutcome;
use contango::core::pipeline::{FlowObserver, NoopObserver, Pass, PassCtx};
use contango::core::slack::SlackAnalysis;
use contango::core::tree::ClockTree;
use contango::geom::{Point, Rect, TiltedRect};
use contango::sim::{DelayModel, Evaluator, RcTree, SourceSpec};
use contango::tech::Technology;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

fn arbitrary_points(max: usize) -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((10.0..1990.0_f64, 10.0..1990.0_f64, 2.0..40.0_f64), 2..max)
}

/// Records every end-of-pass snapshot.
#[derive(Default)]
struct Snapshots(Vec<StageSnapshot>);

impl FlowObserver for Snapshots {
    fn on_pass_end(&mut self, _pass: &dyn Pass, snapshot: &StageSnapshot, _outcome: &PassOutcome) {
        self.0.push(snapshot.clone());
    }
}

/// A pass that leaves the tree alone and checks the previous stage's
/// end-of-pass report, the one its snapshot came from, against a fresh full
/// evaluation of the same tree. It logs the stage and whether the two
/// match bit for bit: `Debug` prints every float in its shortest
/// round-trip form, so equal renderings mean equal bits.
struct FullEvaluationCheck {
    stage: &'static str,
    acronym: String,
    verdicts: Rc<RefCell<Vec<(&'static str, bool)>>>,
}

impl Pass for FullEvaluationCheck {
    fn name(&self) -> &str {
        "full-evaluation check"
    }
    fn acronym(&self) -> &str {
        &self.acronym
    }
    fn run(&self, tree: &mut ClockTree, ctx: &mut PassCtx<'_>) -> Result<PassOutcome, CoreError> {
        let snapshot_report = ctx.last_report.as_ref().expect("the stage was evaluated");
        let full = ctx.opt.evaluate_full(tree);
        let same = format!("{snapshot_report:?}") == format!("{full:?}");
        self.verdicts.borrow_mut().push((self.stage, same));
        Ok(PassOutcome::zero())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Manhattan distance in layout space equals the Chebyshev distance of
    /// degenerate tilted rectangles (the foundation of the DME geometry).
    #[test]
    fn trr_distance_matches_manhattan(ax in -1e4..1e4_f64, ay in -1e4..1e4_f64,
                                      bx in -1e4..1e4_f64, by in -1e4..1e4_f64) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let d1 = a.manhattan(b);
        let d2 = TiltedRect::from_point(a).distance(&TiltedRect::from_point(b));
        prop_assert!((d1 - d2).abs() < 1e-6);
    }

    /// Expanding two point-TRRs by radii that sum to their distance always
    /// produces a non-empty merging segment whose points are equidistant.
    #[test]
    fn merging_segment_is_equidistant(ax in 0.0..1e3_f64, ay in 0.0..1e3_f64,
                                      bx in 0.0..1e3_f64, by in 0.0..1e3_f64,
                                      frac in 0.0..1.0_f64) {
        let a = TiltedRect::from_point(Point::new(ax, ay));
        let b = TiltedRect::from_point(Point::new(bx, by));
        let d = a.distance(&b);
        let ea = frac * d;
        let eb = d - ea;
        let ms = a.expand(ea).intersect(&b.expand(eb));
        prop_assert!(ms.is_some());
        let ms = ms.expect("non-empty");
        prop_assert!(ms.distance(&a) <= ea + 1e-6);
        prop_assert!(ms.distance(&b) <= eb + 1e-6);
    }

    /// Elmore delays are monotonically non-decreasing along every chain.
    #[test]
    fn elmore_monotone_along_chains(res in prop::collection::vec(1.0..500.0_f64, 1..20),
                                    caps in prop::collection::vec(1.0..200.0_f64, 20)) {
        let mut tree = RcTree::new();
        let mut prev = tree.add_root(caps[0]);
        for (i, r) in res.iter().enumerate() {
            prev = tree.add_node(prev, *r, caps[(i + 1) % caps.len()]);
        }
        let m1 = tree.elmore_from(50.0);
        for i in 1..tree.len() {
            prop_assert!(m1[i] + 1e-12 >= m1[i - 1]);
        }
    }

    /// The DME tree always contains every sink exactly once, is structurally
    /// valid, and its Elmore skew is tiny regardless of the sink set.
    #[test]
    fn dme_is_zero_skew_for_arbitrary_sinks(points in arbitrary_points(14)) {
        let mut builder = ClockNetInstance::builder("prop")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .source(Point::new(0.0, 1000.0))
            .cap_limit(1e9);
        for &(x, y, c) in &points {
            builder = builder.sink(Point::new(x, y), c);
        }
        let instance = builder.build().expect("valid");
        let tech = Technology::ispd09();
        let tree = build_zero_skew_tree(&instance, &tech, DmeOptions::default());
        prop_assert_eq!(tree.sink_count(), points.len());
        prop_assert!(tree.validate().is_ok());
        let netlist = to_netlist(&tree, &tech, &SourceSpec::ispd09(), 50.0).expect("lowers");
        let report = Evaluator::with_model(tech, DelayModel::Elmore).evaluate(&netlist);
        prop_assert!(report.skew() < 2.0, "Elmore skew {} ps", report.skew());
    }

    /// Slack invariants (Lemmas 1 and 2) hold for arbitrary latency
    /// perturbations of a DME tree.
    #[test]
    fn slack_lemmas_hold(points in arbitrary_points(10), extra in 0.0..800.0_f64) {
        let mut builder = ClockNetInstance::builder("slackprop")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .source(Point::new(0.0, 1000.0))
            .cap_limit(1e9);
        for &(x, y, c) in &points {
            builder = builder.sink(Point::new(x, y), c);
        }
        let instance = builder.build().expect("valid");
        let tech = Technology::ispd09();
        let mut tree = build_zero_skew_tree(&instance, &tech, DmeOptions::default());
        let victim = tree.sink_node(0);
        tree.node_mut(victim).wire.extra_length += extra;
        let netlist = to_netlist(&tree, &tech, &SourceSpec::ispd09(), 50.0).expect("lowers");
        let report = Evaluator::with_model(tech, DelayModel::TwoPole).evaluate(&netlist);
        let slacks = SlackAnalysis::compute(&tree, &report);
        for id in 0..tree.len() {
            if let Some(p) = tree.node(id).parent {
                prop_assert!(slacks.edge_slow[id] + 1e-9 >= slacks.edge_slow[p]);
                prop_assert!(slacks.edge_fast[id] + 1e-9 >= slacks.edge_fast[p]);
            }
            prop_assert!(slacks.edge_slow[id] >= 0.0);
        }
    }

    /// The contracts of the passes' improvement- and violation-check, on
    /// arbitrary small instances under budgets from tight to loose (Elmore,
    /// fast profile): TWSZ, TWSN and BWSN never raise skew, TBSZ never
    /// raises CLR, and a pass whose snapshot differs from the previous one
    /// ends with no slew violation and its total cap within the budget.
    #[test]
    fn passes_keep_the_ivc_contracts(points in arbitrary_points(12),
                                     cap_per_sink in 300.0..1500.0_f64) {
        let cap_limit = 1000.0 + cap_per_sink * points.len() as f64;
        let mut builder = ClockNetInstance::builder("ivc")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .source(Point::new(0.0, 1000.0))
            .cap_limit(cap_limit);
        for &(x, y, c) in &points {
            builder = builder.sink(Point::new(x, y), c);
        }
        let instance = builder.build().expect("valid");
        let config = FlowConfig { model: DelayModel::Elmore, ..FlowConfig::fast() };
        let flow = ContangoFlow::new(Technology::ispd09(), config);
        let mut snapshots = Snapshots::default();
        // A budget too tight for INITIAL's buffering leaves no pass to check.
        if flow.run_pipeline(&flow.pipeline(), &instance, &mut snapshots).is_err() {
            return Ok(());
        }
        for pair in snapshots.0.windows(2) {
            let (before, after) = (&pair[0], &pair[1]);
            if after.stage == "TBSZ" {
                prop_assert!(after.clr <= before.clr, "TBSZ raised CLR: {before:?} -> {after:?}");
            } else {
                prop_assert!(after.skew <= before.skew, "{} raised skew: {before:?} -> {after:?}",
                             after.stage);
            }
            let unchanged = StageSnapshot { stage: before.stage.clone(), ..after.clone() } == *before;
            if !unchanged {
                prop_assert!(!after.slew_violation, "{} ends with a slew violation", after.stage);
                prop_assert!(after.total_cap <= cap_limit, "{} ends at {} fF over the {} fF budget",
                             after.stage, after.total_cap, cap_limit);
            }
        }
    }

    /// Every stage snapshot of the session's pipeline driver comes from a
    /// report equal, bit for bit, to a fresh full evaluation of the tree
    /// (Elmore, fast profile, arbitrary small instances): a
    /// [`FullEvaluationCheck`] after each of the five stages runs, and
    /// none finds a difference.
    #[test]
    fn stage_snapshots_equal_a_fresh_full_evaluation(points in arbitrary_points(12),
                                                     cap_per_sink in 800.0..1500.0_f64) {
        let mut builder = ClockNetInstance::builder("snapshots")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .source(Point::new(0.0, 1000.0))
            .cap_limit(1000.0 + cap_per_sink * points.len() as f64);
        for &(x, y, c) in &points {
            builder = builder.sink(Point::new(x, y), c);
        }
        let instance = builder.build().expect("valid");
        let config = FlowConfig { model: DelayModel::Elmore, ..FlowConfig::fast() };
        let flow = ContangoFlow::new(Technology::ispd09(), config);
        let verdicts = Rc::new(RefCell::new(Vec::new()));
        let mut pipeline = flow.pipeline();
        for stage in FlowStage::all().map(|s| s.acronym()) {
            pipeline = pipeline.insert_after(stage, FullEvaluationCheck {
                stage,
                acronym: format!("{stage}-CHECK"),
                verdicts: Rc::clone(&verdicts),
            });
        }
        flow.run_pipeline(&pipeline, &instance, &mut NoopObserver).expect("flow runs");
        let verdicts = verdicts.borrow();
        let checked: Vec<&str> = verdicts.iter().map(|&(stage, _)| stage).collect();
        prop_assert_eq!(checked, ["INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN"]);
        for &(stage, same) in verdicts.iter() {
            prop_assert!(same, "{stage}'s snapshot report differs from a full evaluation");
        }
    }

    /// The benchmark text format round-trips arbitrary instances.
    #[test]
    fn format_round_trip(points in arbitrary_points(12), cap_limit in 1e4..1e8_f64) {
        let mut builder = ClockNetInstance::builder("roundtrip")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .cap_limit(cap_limit)
            .obstacle(Rect::new(500.0, 500.0, 800.0, 900.0));
        for &(x, y, c) in &points {
            builder = builder.sink(Point::new(x, y), c);
        }
        let instance = builder.build().expect("valid");
        let text = contango::benchmarks::format::write_instance(&instance);
        let parsed = contango::benchmarks::format::parse_instance(&text).expect("parses");
        prop_assert_eq!(parsed.sink_count(), instance.sink_count());
        prop_assert!((parsed.cap_limit - instance.cap_limit).abs() < 1e-3);
    }
}
