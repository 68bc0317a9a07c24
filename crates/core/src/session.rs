//! Engine sessions: the reusable per-worker half of a flow execution.
//!
//! One flow run used to own everything it touched — the incremental
//! evaluator with its content-addressed stage caches, the construction
//! arena, the technology handle — so running many flows (a benchmark suite,
//! a baseline comparison, an ablation sweep) re-warmed every cache and
//! re-grew every arena from scratch, run after run. This module splits that
//! state along its natural seam:
//!
//! * [`EngineSession`] is the **per-worker engine state**: the technology,
//!   the [`IncrementalEvaluator`] (whose stage and solve caches are
//!   content-addressed, so entries from one instance can never corrupt the
//!   evaluation of another), and the [`ConstructArena`] scratch memory. A
//!   session is created once per worker and reused across arbitrarily many
//!   runs; reuse affects wall-clock only, never results. A persistent
//!   store, when attached, holds the evaluator's transient solves; each job
//!   a batch driver profiles starts on empty evaluator caches (see
//!   [`EngineSession::begin_job_profile`]), and the construction arena
//!   stays warm.
//! * `FlowRun` (private to the driver) is the **per-run state**: the tree
//!   under synthesis, the per-stage snapshots and outcomes, the run timer
//!   and the evaluator-run baseline. It is created fresh by
//!   [`EngineSession::run`] and consumed into the returned [`FlowResult`].
//!
//! [`ContangoFlow`](crate::flow::ContangoFlow) keeps its one-shot API by
//! creating a transient session per call; batch drivers (the
//! `contango_campaign` executor, sweeps, benchmarks) hold one session per
//! worker and run whole job streams through it:
//!
//! ```
//! use contango_core::flow::{ContangoFlow, FlowConfig};
//! use contango_core::instance::ClockNetInstance;
//! use contango_core::pipeline::NoopObserver;
//! use contango_geom::Point;
//! use contango_tech::Technology;
//!
//! let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
//! let mut session = flow.session();
//! for die in [900.0, 1100.0] {
//!     let instance = ClockNetInstance::builder("sweep")
//!         .die(0.0, 0.0, die, die)
//!         .sink(Point::new(250.0, 250.0), 10.0)
//!         .sink(Point::new(die - 250.0, die - 250.0), 10.0)
//!         .cap_limit(100_000.0)
//!         .build()?;
//!     // Same results as `flow.run(&instance)`, without re-warming caches.
//!     let result = flow.run_in(&mut session, &flow.pipeline(), &instance, &mut NoopObserver)?;
//!     assert_eq!(result.report.sink_count(), instance.sink_count());
//! }
//! # Ok::<(), contango_core::error::CoreError>(())
//! ```

use crate::construct::ConstructArena;
use crate::error::CoreError;
use crate::flow::{FlowConfig, FlowResult, StageSnapshot};
use crate::instance::ClockNetInstance;
use crate::lower::to_netlist;
use crate::opt::{OptContext, PassOutcome};
use crate::pipeline::{FlowObserver, PassCtx, Pipeline};
use crate::slack::SlackAnalysis;
use crate::tree::ClockTree;
use contango_sim::{CacheCounters, CacheStore, DelayModel, IncrementalEvaluator};
use contango_tech::Technology;
use std::sync::Arc;
use std::time::Instant;

/// Reusable per-worker engine state: technology, evaluator caches and
/// construction scratch memory. See the [module docs](self) for the
/// engine-state/run-state split.
#[derive(Debug)]
pub struct EngineSession {
    tech: Technology,
    model: DelayModel,
    evaluator: IncrementalEvaluator,
    arena: ConstructArena,
}

impl EngineSession {
    /// Creates a cold session for a technology and delay model.
    pub fn new(tech: Technology, model: DelayModel) -> Self {
        let evaluator = IncrementalEvaluator::with_model(tech.clone(), model);
        Self {
            tech,
            model,
            evaluator,
            arena: ConstructArena::new(),
        }
    }

    /// The session's technology.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The session's delay model.
    pub fn model(&self) -> DelayModel {
        self.model
    }

    /// The session's incremental evaluator (shared "SPICE run" counter and
    /// content-addressed stage caches).
    pub fn evaluator(&self) -> &IncrementalEvaluator {
        &self.evaluator
    }

    /// The construction arena's retained-scratch watermark (see
    /// [`ConstructArena::watermark`]). Batch drivers reduce this across
    /// workers into their memory profile; the value depends on the job
    /// history a worker happened to serve, so it never enters
    /// deterministic result comparisons.
    pub fn arena_watermark(&self) -> crate::construct::ArenaWatermark {
        self.arena.watermark()
    }

    /// Attaches a persistent [`CacheStore`] to the session's evaluator: its
    /// transient solves read through and write back to the store. Survives
    /// [`EngineSession::retarget`] (the rebuilt evaluator is re-attached,
    /// and the store's context fingerprint keeps entries from different
    /// models or technologies apart).
    pub fn attach_cache(&mut self, store: Arc<CacheStore>) {
        self.evaluator.attach_store(store);
    }

    /// Detaches the persistent store from the evaluator.
    pub fn detach_cache(&mut self) {
        self.evaluator.detach_store();
    }

    /// The attached persistent store, if any.
    pub fn cache(&self) -> Option<Arc<CacheStore>> {
        self.evaluator.store()
    }

    /// Starts a deterministic per-job cache profile (see
    /// [`IncrementalEvaluator::begin_job_profile`]). With a store attached,
    /// the evaluator drops its cached stages and solves, so the job starts
    /// on empty evaluator caches and the store serves the solves earlier
    /// jobs computed; the construction arena's scratch memory stays warm. A
    /// no-op without an attached store.
    pub fn begin_job_profile(&mut self) {
        self.evaluator.begin_job_profile();
    }

    /// Finishes the job profile and returns its counters of solve lookups
    /// (zeros when no profile was running).
    pub fn take_job_profile(&mut self) -> CacheCounters {
        self.evaluator.take_job_profile()
    }

    /// Points the session at a (possibly) different technology or delay
    /// model. A no-op when both already match; otherwise the evaluator is
    /// rebuilt, because cached transition solves are keyed by supply,
    /// direction and input slew *within* one technology and must not leak
    /// across technologies. The construction arena is content-agnostic
    /// scratch and stays warm either way. An attached persistent store is
    /// carried over to the rebuilt evaluator.
    pub fn retarget(&mut self, tech: &Technology, model: DelayModel) {
        if self.tech != *tech || self.model != model {
            let store = self.evaluator.store();
            self.tech = tech.clone();
            self.model = model;
            self.evaluator = IncrementalEvaluator::with_model(tech.clone(), model);
            if let Some(store) = store {
                self.evaluator.attach_store(store);
            }
        }
    }

    /// Runs `pipeline` on `instance` under `config`, evaluating the tree
    /// and taking a [`StageSnapshot`] after every pass and reporting
    /// progress to `observer`.
    ///
    /// The result is bit-identical to a run through a cold session (or
    /// through [`ContangoFlow::run_pipeline`](crate::flow::ContangoFlow::run_pipeline)):
    /// warm caches change wall-clock, never reports, and
    /// [`FlowResult::spice_runs`] counts only this run's evaluations.
    ///
    /// When `config.model` differs from the session's model the session
    /// retargets itself first (the technology stays as constructed; use
    /// [`EngineSession::retarget`] to switch technologies).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Instance`] for an invalid instance,
    /// [`CoreError::EmptyPipeline`] for a pipeline with no passes,
    /// [`CoreError::MissingSinks`] when the pipeline finishes without a
    /// tree driving every sink (a pipeline lacking a construction pass),
    /// and [`CoreError::Pass`] wrapping the underlying failure when a pass
    /// errors.
    pub fn run(
        &mut self,
        config: &FlowConfig,
        pipeline: &Pipeline,
        instance: &ClockNetInstance,
        observer: &mut dyn FlowObserver,
    ) -> Result<FlowResult, CoreError> {
        instance.validate()?;
        if pipeline.is_empty() {
            return Err(CoreError::EmptyPipeline);
        }
        if self.model != config.model {
            let tech = self.tech.clone();
            self.retarget(&tech, config.model);
        }
        // Split the session borrows: passes read the technology and
        // evaluator while mutating the arena.
        let tech = &self.tech;
        let evaluator = &self.evaluator;
        let mut run = FlowRun::begin(instance, evaluator.runs());
        let mut ctx = PassCtx {
            instance,
            opt: OptContext {
                tech,
                source: instance.source_spec,
                evaluator,
                segment_um: config.segment_um,
                cap_limit: instance.cap_limit,
            },
            arena: &mut self.arena,
            polarity: None,
            buffering: None,
            last_report: None,
        };

        for (index, pass) in pipeline.passes().iter().enumerate() {
            observer.on_pass_start(pass.as_ref(), index, pipeline.len());
            let outcome = pass
                .run(&mut run.tree, &mut ctx)
                .map_err(|source| CoreError::Pass {
                    pass: pass.acronym().to_string(),
                    source: Box::new(source),
                })?;
            let report = ctx.opt.evaluate(&run.tree);
            let snapshot = snapshot_after(tech, pass.acronym(), &run.tree, &report);
            observer.on_pass_end(pass.as_ref(), &snapshot, &outcome);
            run.snapshots.push(snapshot);
            run.outcomes.push(outcome);
            ctx.last_report = Some(report);
        }
        run.finish(ctx, tech, config, evaluator)
    }
}

/// Takes the end-of-pass metrics snapshot (one row of Table III).
fn snapshot_after(
    tech: &Technology,
    stage: &str,
    tree: &ClockTree,
    report: &contango_sim::EvalReport,
) -> StageSnapshot {
    StageSnapshot {
        stage: stage.to_string(),
        clr: report.clr(),
        skew: report.skew(),
        max_latency: report.max_latency(),
        total_cap: tree.total_cap(tech),
        wirelength: tree.wirelength(),
        slew_violation: report.has_slew_violation(),
    }
}

/// The per-run half of the engine-state/run-state split: everything one
/// flow execution accumulates, created fresh by [`EngineSession::run`] and
/// consumed into the [`FlowResult`] (which is the run's public face —
/// `FlowRun` itself never escapes the driver).
#[derive(Debug)]
struct FlowRun<'a> {
    instance: &'a ClockNetInstance,
    tree: ClockTree,
    snapshots: Vec<StageSnapshot>,
    outcomes: Vec<PassOutcome>,
    started: Instant,
    runs_before: usize,
}

impl<'a> FlowRun<'a> {
    /// Starts a run: fresh tree rooted at the instance source, empty
    /// snapshot/outcome logs, the wall clock started and the evaluator's
    /// run counter baselined (so [`FlowResult::spice_runs`] counts only
    /// this run, however warm the session is).
    fn begin(instance: &'a ClockNetInstance, runs_before: usize) -> Self {
        Self {
            instance,
            tree: ClockTree::new(instance.source),
            snapshots: Vec::new(),
            outcomes: Vec::new(),
            started: Instant::now(),
            runs_before,
        }
    }

    /// Validates the finished tree and assembles the [`FlowResult`].
    fn finish(
        self,
        ctx: PassCtx<'_>,
        tech: &Technology,
        config: &FlowConfig,
        evaluator: &IncrementalEvaluator,
    ) -> Result<FlowResult, CoreError> {
        if self.tree.sink_count() != self.instance.sink_count() {
            return Err(CoreError::MissingSinks {
                driven: self.tree.sink_count(),
                expected: self.instance.sink_count(),
            });
        }
        let report = ctx.last_report.expect("non-empty pipeline was evaluated");
        let netlist = to_netlist(
            &self.tree,
            tech,
            &self.instance.source_spec,
            config.segment_um,
        )?;
        let slacks = SlackAnalysis::compute(&self.tree, &report);
        Ok(FlowResult {
            tree: self.tree,
            netlist,
            report,
            slacks,
            snapshots: self.snapshots,
            outcomes: self.outcomes,
            polarity: ctx.polarity.unwrap_or_default(),
            spice_runs: evaluator.runs() - self.runs_before,
            runtime_s: self.started.elapsed().as_secs_f64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::ContangoFlow;
    use crate::pipeline::NoopObserver;
    use contango_geom::Point;

    fn instance(name: &str, pitch: f64) -> ClockNetInstance {
        let mut b = ClockNetInstance::builder(name)
            .die(0.0, 0.0, 4.0 * pitch, 4.0 * pitch)
            .source(Point::new(0.0, 2.0 * pitch))
            .cap_limit(400_000.0);
        for j in 0..3 {
            for i in 0..3 {
                b = b.sink(
                    Point::new(pitch * (i as f64 + 0.5), pitch * (j as f64 + 0.6)),
                    10.0 + ((i + j) % 3) as f64,
                );
            }
        }
        b.build().expect("valid")
    }

    fn assert_identical(a: &FlowResult, b: &FlowResult) {
        assert_eq!(a.snapshots, b.snapshots);
        assert_eq!(a.report, b.report);
        assert_eq!(a.spice_runs, b.spice_runs);
        assert_eq!(a.polarity, b.polarity);
        assert_eq!(a.tree.wirelength().to_bits(), b.tree.wirelength().to_bits());
    }

    #[test]
    fn warm_session_reproduces_cold_runs_bit_identically() {
        let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
        let mut session = flow.session();
        // Two different instances through one warm session...
        for (name, pitch) in [("a", 600.0), ("b", 750.0), ("a", 600.0)] {
            let inst = instance(name, pitch);
            let warm = flow
                .run_in(&mut session, &flow.pipeline(), &inst, &mut NoopObserver)
                .expect("runs");
            // ...each bit-identical to a cold one-shot run.
            let cold = flow.run(&inst).expect("runs");
            assert_identical(&warm, &cold);
        }
    }

    #[test]
    fn spice_runs_count_only_the_current_run() {
        let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
        let mut session = flow.session();
        let inst = instance("runs", 700.0);
        let first = flow
            .run_in(&mut session, &flow.pipeline(), &inst, &mut NoopObserver)
            .expect("runs");
        let second = flow
            .run_in(&mut session, &flow.pipeline(), &inst, &mut NoopObserver)
            .expect("runs");
        assert_eq!(first.spice_runs, second.spice_runs);
        assert!(session.evaluator().runs() >= 2 * first.spice_runs);
    }

    #[test]
    fn retarget_is_a_noop_for_the_same_target() {
        let tech = Technology::ispd09();
        let mut session = EngineSession::new(tech.clone(), DelayModel::Transient);
        let inst = instance("warm", 650.0);
        let flow = ContangoFlow::new(tech.clone(), FlowConfig::fast());
        let _ = flow
            .run_in(&mut session, &flow.pipeline(), &inst, &mut NoopObserver)
            .expect("runs");
        let cached = session.evaluator().cached_stages();
        assert!(cached > 0);
        session.retarget(&tech, DelayModel::Transient);
        assert_eq!(session.evaluator().cached_stages(), cached);
        // Switching the delay model rebuilds the evaluator (cold caches);
        // a genuinely different technology would do the same.
        session.retarget(&tech, DelayModel::Elmore);
        assert_eq!(session.evaluator().cached_stages(), 0);
        assert_eq!(session.model(), DelayModel::Elmore);
    }
}
