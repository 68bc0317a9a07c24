//! Integration tests for the composable pass-pipeline API.
//!
//! The pipeline alone picks which passes run: the API must accept
//! user-defined passes and reordered pipelines without touching
//! `contango_core`, report every pass to observers in order, and name the
//! failing pass in its errors.

use contango::prelude::*;

fn instance() -> ClockNetInstance {
    let mut b = ClockNetInstance::builder("pipeline-test")
        .die(0.0, 0.0, 3000.0, 3000.0)
        .source(Point::new(0.0, 1500.0))
        .obstacle(Rect::new(1300.0, 1200.0, 1900.0, 1800.0))
        .cap_limit(500_000.0);
    for j in 0..4 {
        for i in 0..4 {
            b = b.sink(
                Point::new(320.0 + 700.0 * i as f64, 380.0 + 680.0 * j as f64),
                9.0 + 4.0 * ((i + j) % 3) as f64,
            );
        }
    }
    b.build().expect("valid instance")
}

/// A user-defined pass that only counts how often it ran: the tree is
/// untouched, so the surrounding stages must behave exactly as without it.
struct NoopPass;

impl Pass for NoopPass {
    fn name(&self) -> &str {
        "no-op"
    }
    fn acronym(&self) -> &str {
        "NOOP"
    }
    fn run(&self, _tree: &mut ClockTree, _ctx: &mut PassCtx<'_>) -> Result<PassOutcome, CoreError> {
        Ok(PassOutcome::zero())
    }
}

#[test]
fn user_defined_noop_pass_is_transparent() {
    let inst = instance();
    let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
    let plain = flow.run(&inst).expect("runs");

    let pipeline = flow.pipeline().insert_after("TBSZ", NoopPass);
    let with_noop = flow
        .run_pipeline(&pipeline, &inst, &mut NoopObserver)
        .expect("runs");

    // The no-op contributes one snapshot (and its evaluation is cached, so
    // one extra "SPICE run") but changes nothing else.
    assert_eq!(
        with_noop.snapshots.len(),
        plain.snapshots.len() + 1,
        "no-op pass adds exactly one snapshot"
    );
    assert_eq!(with_noop.snapshots[2].stage, "NOOP");
    assert_eq!(with_noop.spice_runs, plain.spice_runs + 1);
    assert_eq!(with_noop.report, plain.report);
    // The NOOP snapshot equals the TBSZ snapshot in everything but name.
    let tbsz = &with_noop.snapshots[1];
    let noop = &with_noop.snapshots[2];
    assert_eq!(tbsz.clr.to_bits(), noop.clr.to_bits());
    assert_eq!(tbsz.skew.to_bits(), noop.skew.to_bits());
    assert_eq!(tbsz.total_cap.to_bits(), noop.total_cap.to_bits());
}

#[test]
fn reordered_pipeline_runs_and_produces_a_valid_tree() {
    let inst = instance();
    let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());

    // Swap the wire optimizations: snaking before sizing. Not the paper's
    // order, but a legal pipeline — it must run and keep the tree valid.
    let reordered = flow.pipeline().without("TWSN").insert_before(
        "TWSZ",
        contango::core::pipeline::WireSnakingPass { rounds: 4 },
    );
    assert_eq!(
        reordered.acronyms(),
        ["INITIAL", "TBSZ", "TWSN", "TWSZ", "BWSN"]
    );
    let result = flow
        .run_pipeline(&reordered, &inst, &mut NoopObserver)
        .expect("reordered pipeline runs");
    assert!(result.tree.validate().is_ok());
    assert_eq!(result.report.sink_count(), inst.sink_count());
    let stages: Vec<&str> = result.snapshots.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(stages, ["INITIAL", "TBSZ", "TWSN", "TWSZ", "BWSN"]);
    // The optimizations must still help, whatever the order.
    let initial = &result.snapshots[0];
    let last = result.snapshots.last().expect("snapshots");
    assert!(last.skew <= initial.skew + 1e-9);
}

/// An observer that records the hook sequence.
#[derive(Default)]
struct Recorder {
    events: Vec<String>,
}

impl FlowObserver for Recorder {
    fn on_pass_start(&mut self, pass: &dyn Pass, index: usize, total: usize) {
        self.events
            .push(format!("start {}/{} {}", index + 1, total, pass.acronym()));
    }
    fn on_pass_end(&mut self, pass: &dyn Pass, snapshot: &StageSnapshot, _outcome: &PassOutcome) {
        assert_eq!(snapshot.stage, pass.acronym());
        self.events.push(format!("end {}", pass.acronym()));
    }
}

#[test]
fn observer_sees_every_pass_in_order() {
    let inst = instance();
    let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
    let mut recorder = Recorder::default();
    flow.run_pipeline(&flow.pipeline(), &inst, &mut recorder)
        .expect("runs");
    assert_eq!(
        recorder.events,
        [
            "start 1/5 INITIAL",
            "end INITIAL",
            "start 2/5 TBSZ",
            "end TBSZ",
            "start 3/5 TWSZ",
            "end TWSZ",
            "start 4/5 TWSN",
            "end TWSN",
            "start 5/5 BWSN",
            "end BWSN",
        ]
    );
}

#[test]
fn pass_errors_carry_the_pass_acronym() {
    // A budget so small that no buffering configuration fits: INITIAL fails
    // and the error must say so, wrapping the typed budget error.
    let mut b = ClockNetInstance::builder("tiny-budget")
        .die(0.0, 0.0, 3000.0, 3000.0)
        .cap_limit(10.0);
    for i in 0..4 {
        b = b.sink(Point::new(500.0 + 500.0 * i as f64, 1500.0), 10.0);
    }
    let inst = b.build().expect("valid instance");
    let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
    let err = flow.run(&inst).expect_err("budget is infeasible");
    match &err {
        CoreError::Pass { pass, source } => {
            assert_eq!(pass, "INITIAL");
            assert!(matches!(**source, CoreError::BufferBudget { .. }));
        }
        other => panic!("expected a pass error, got {other:?}"),
    }
    assert!(err.to_string().contains("pass INITIAL"));
}
