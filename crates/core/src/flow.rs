//! The Contango methodology: the end-to-end flow of Figure 1.
//!
//! The flow chains the construction and optimization steps in the order the
//! paper prescribes, taking a metrics snapshot after each stage (these
//! snapshots reproduce Table III):
//!
//! 1. **INITIAL** — ZST/DME construction, obstacle-avoidance repair, edge
//!    splitting, composite-buffer insertion within 90% of the capacitance
//!    budget, and sink-polarity correction, followed by the first
//!    evaluation.
//! 2. **TBSZ** — top-level/trunk buffer sizing (with sliding) and branch
//!    sizing with capacitance borrowing; reduces CLR, may increase skew.
//! 3. **TWSZ** — iterative top-down wiresizing; the big skew reduction.
//! 4. **TWSN** — iterative top-down wiresnaking; refines skew further.
//! 5. **BWSN** — bottom-level wiresizing/wiresnaking fine-tuning.
//!
//! Each optimization is followed by an Improvement- & Violation-Check (the
//! passes themselves roll back non-improving or violating rounds), matching
//! the IVC/CNE loop of the paper.
//!
//! The stage sequence itself lives in [`crate::pipeline`]: every stage is a
//! [`Pass`](crate::pipeline::Pass) object and [`ContangoFlow::run`] simply
//! drives the five-pass [`Pipeline`] whose budgets the [`FlowConfig`]
//! sets. The pipeline alone picks which passes run: to reorder stages, drop
//! stages, swap in replacements or add user-defined passes, derive a
//! pipeline from [`ContangoFlow::pipeline`] (or [`Pipeline::contango`]) with
//! its combinators and run it with [`ContangoFlow::run_pipeline`], attaching
//! a [`crate::pipeline::FlowObserver`] for per-stage progress.

use crate::error::CoreError;
use crate::instance::ClockNetInstance;
use crate::opt::PassOutcome;
use crate::pipeline::{FlowObserver, NoopObserver, Pipeline};
use crate::polarity::PolarityReport;
use crate::session::EngineSession;
use crate::slack::SlackAnalysis;
use crate::topology::TopologyKind;
use crate::tree::ClockTree;
use contango_sim::{DelayModel, EvalReport, Netlist};
use contango_tech::Technology;
use serde::Serialize;

/// Configuration of the Contango flow: the delay model, the construction
/// settings and the passes' budgets. Which passes run is the
/// [`Pipeline`]'s business, not the configuration's.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FlowConfig {
    /// Delay model used for the SPICE-style evaluations.
    pub model: DelayModel,
    /// How the initial (pre-optimization) tree topology is built.
    pub topology: TopologyKind,
    /// Drive the tree with groups of large inverters instead of groups of
    /// small inverters (used for the TI scalability study, Section V).
    pub use_large_inverters: bool,
    /// Maximum edge length before splitting, µm.
    pub max_edge_len: f64,
    /// Wire segmentation granularity for lowering, µm.
    pub segment_um: f64,
    /// Fraction of the capacitance budget reserved for downstream
    /// optimizations (γ in Section IV-C).
    pub power_reserve: f64,
    /// Round budgets for the iterative stages.
    pub wiresizing_rounds: usize,
    /// Round budget for top-down wiresnaking.
    pub wiresnaking_rounds: usize,
    /// Round budget for bottom-level fine-tuning.
    pub bottom_rounds: usize,
    /// Iteration budget for trunk buffer sizing.
    pub buffer_sizing_iterations: usize,
    /// Thread fan-out for the construction engine (subtree merges and
    /// per-branch buffer planning). Results are bit-identical for every
    /// thread count; see [`crate::construct::ParallelConfig`].
    pub parallel: crate::construct::ParallelConfig,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            model: DelayModel::Transient,
            topology: TopologyKind::Dme,
            use_large_inverters: false,
            max_edge_len: 250.0,
            segment_um: 100.0,
            power_reserve: 0.10,
            wiresizing_rounds: 6,
            wiresnaking_rounds: 8,
            bottom_rounds: 3,
            buffer_sizing_iterations: 5,
            parallel: crate::construct::ParallelConfig::serial(),
        }
    }
}

impl FlowConfig {
    /// A reduced-effort configuration for tests and quick experiments:
    /// fewer optimization rounds and coarser segmentation.
    pub fn fast() -> Self {
        Self {
            wiresizing_rounds: 3,
            wiresnaking_rounds: 4,
            bottom_rounds: 1,
            buffer_sizing_iterations: 2,
            segment_um: 150.0,
            ..Self::default()
        }
    }

    /// The configuration used for the TI-style scalability study: large
    /// inverters (eightfold faster buffering at slightly worse CLR/skew,
    /// Section V) and reduced round budgets.
    pub fn scalability() -> Self {
        Self {
            use_large_inverters: true,
            wiresizing_rounds: 3,
            wiresnaking_rounds: 4,
            bottom_rounds: 1,
            buffer_sizing_iterations: 2,
            max_edge_len: 400.0,
            segment_um: 200.0,
            ..Self::default()
        }
    }
}

/// Identifier of one of the paper's five flow stages, matching the acronyms
/// of Table III.
///
/// Pipelines identify passes by their acronym strings (custom passes bring
/// their own); this enum names the canonical five for code that works with
/// the default flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FlowStage {
    /// Initial tree + buffering + polarity correction.
    Initial,
    /// Top-level buffer sizing.
    BufferSizing,
    /// Top-down wiresizing.
    WireSizing,
    /// Top-down wiresnaking.
    WireSnaking,
    /// Bottom-level fine-tuning.
    BottomLevel,
}

impl FlowStage {
    /// The five stages in methodology order.
    pub fn all() -> [FlowStage; 5] {
        [
            FlowStage::Initial,
            FlowStage::BufferSizing,
            FlowStage::WireSizing,
            FlowStage::WireSnaking,
            FlowStage::BottomLevel,
        ]
    }

    /// The acronym used in Table III of the paper.
    pub fn acronym(&self) -> &'static str {
        match self {
            FlowStage::Initial => "INITIAL",
            FlowStage::BufferSizing => "TBSZ",
            FlowStage::WireSizing => "TWSZ",
            FlowStage::WireSnaking => "TWSN",
            FlowStage::BottomLevel => "BWSN",
        }
    }

    /// The stage carrying the given Table-III acronym, if it is one of the
    /// canonical five.
    pub fn from_acronym(acronym: &str) -> Option<FlowStage> {
        FlowStage::all()
            .into_iter()
            .find(|s| s.acronym() == acronym)
    }
}

/// Metrics snapshot taken after one flow stage (one row of Table III).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageSnapshot {
    /// Acronym of the pass this snapshot follows (e.g. `"TBSZ"`; custom
    /// passes report their own acronym).
    pub stage: String,
    /// Clock Latency Range, ps.
    pub clr: f64,
    /// Nominal skew, ps.
    pub skew: f64,
    /// Maximum nominal sink latency (insertion delay), ps.
    pub max_latency: f64,
    /// Total network capacitance, fF.
    pub total_cap: f64,
    /// Total wirelength, µm.
    pub wirelength: f64,
    /// Whether any slew violation is present.
    pub slew_violation: bool,
}

/// The result of running the Contango flow on one instance.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// The synthesized clock tree.
    pub tree: ClockTree,
    /// The final electrical netlist.
    pub netlist: Netlist,
    /// The final multi-corner evaluation.
    pub report: EvalReport,
    /// Final slack analysis (used for visualization).
    pub slacks: SlackAnalysis,
    /// Per-stage snapshots (Table III).
    pub snapshots: Vec<StageSnapshot>,
    /// Per-pass improvement/rollback outcomes, parallel to `snapshots`.
    pub outcomes: Vec<PassOutcome>,
    /// Polarity-correction statistics (Table II), as recorded in
    /// [`PassCtx::polarity`](crate::pipeline::PassCtx) by the construction
    /// pass. All-zero when no pass reported them — a custom construction
    /// pass that corrects polarity should set `ctx.polarity` so its
    /// statistics are not mistaken for "nothing to correct".
    pub polarity: PolarityReport,
    /// Number of evaluator invocations ("SPICE runs").
    pub spice_runs: usize,
    /// Wall-clock runtime of the flow in seconds.
    pub runtime_s: f64,
}

impl FlowResult {
    /// Convenience accessor: final CLR in ps.
    pub fn clr(&self) -> f64 {
        self.report.clr()
    }

    /// Convenience accessor: final nominal skew in ps.
    pub fn skew(&self) -> f64 {
        self.report.skew()
    }

    /// Capacitance utilization as a fraction of the instance budget.
    pub fn cap_fraction(&self, instance: &ClockNetInstance) -> f64 {
        self.report.total_cap / instance.cap_limit
    }
}

/// The Contango clock-network synthesis flow.
#[derive(Debug, Clone)]
pub struct ContangoFlow {
    tech: Technology,
    config: FlowConfig,
}

impl ContangoFlow {
    /// Creates a flow for a technology and configuration.
    pub fn new(tech: Technology, config: FlowConfig) -> Self {
        Self { tech, config }
    }

    /// The flow's configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The paper's five-pass pipeline under the flow's configuration; the
    /// starting point for custom pipelines.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::contango(&self.config)
    }

    /// Runs the paper's five-pass pipeline ([`ContangoFlow::pipeline`]) on
    /// `instance`.
    ///
    /// # Errors
    ///
    /// Returns an error if the instance is invalid or a pass fails (for
    /// example when no buffer configuration fits within the capacitance
    /// budget).
    pub fn run(&self, instance: &ClockNetInstance) -> Result<FlowResult, CoreError> {
        self.run_pipeline(&self.pipeline(), instance, &mut NoopObserver)
    }

    /// Runs an arbitrary [`Pipeline`] on `instance`, evaluating the tree and
    /// taking a [`StageSnapshot`] after every pass and reporting progress to
    /// `observer`.
    ///
    /// Each call drives a transient [`EngineSession`]; callers running many
    /// flows should create one session per worker with
    /// [`ContangoFlow::session`] and reuse it through
    /// [`ContangoFlow::run_in`] — same results, warm caches.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Instance`] for an invalid instance,
    /// [`CoreError::EmptyPipeline`] for a pipeline with no passes,
    /// [`CoreError::MissingSinks`] when the pipeline finishes without a
    /// tree driving every sink (a pipeline lacking a construction pass),
    /// and [`CoreError::Pass`] wrapping the underlying failure when a pass
    /// errors.
    ///
    /// The result's [`FlowResult::polarity`] is whatever the construction
    /// pass recorded in
    /// [`PassCtx::polarity`](crate::pipeline::PassCtx::polarity); it stays
    /// all-zero when no pass reports polarity statistics.
    pub fn run_pipeline(
        &self,
        pipeline: &Pipeline,
        instance: &ClockNetInstance,
        observer: &mut dyn FlowObserver,
    ) -> Result<FlowResult, CoreError> {
        self.session()
            .run(&self.config, pipeline, instance, observer)
    }

    /// Creates a reusable [`EngineSession`] for this flow's technology and
    /// delay model. One session per worker; run flows through it with
    /// [`ContangoFlow::run_in`].
    pub fn session(&self) -> EngineSession {
        EngineSession::new(self.tech.clone(), self.config.model)
    }

    /// Runs `pipeline` on `instance` inside an existing session, retargeting
    /// the session to this flow's technology and model first. Results are
    /// bit-identical to [`ContangoFlow::run_pipeline`]; only wall-clock
    /// changes with cache warmth.
    ///
    /// # Errors
    ///
    /// See [`ContangoFlow::run_pipeline`].
    pub fn run_in(
        &self,
        session: &mut EngineSession,
        pipeline: &Pipeline,
        instance: &ClockNetInstance,
        observer: &mut dyn FlowObserver,
    ) -> Result<FlowResult, CoreError> {
        session.retarget(&self.tech, self.config.model);
        session.run(&self.config, pipeline, instance, observer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contango_geom::{Point, Rect};

    fn small_instance() -> ClockNetInstance {
        let mut b = ClockNetInstance::builder("flow-test")
            .die(0.0, 0.0, 3000.0, 3000.0)
            .source(Point::new(0.0, 1500.0))
            .obstacle(Rect::new(1200.0, 1200.0, 1800.0, 1900.0))
            .cap_limit(500_000.0);
        for j in 0..3 {
            for i in 0..4 {
                b = b.sink(
                    Point::new(350.0 + 750.0 * i as f64, 450.0 + 950.0 * j as f64),
                    10.0 + 5.0 * ((i * j) % 4) as f64,
                );
            }
        }
        b.build().expect("valid")
    }

    #[test]
    fn full_flow_produces_small_skew_and_valid_tree() {
        let inst = small_instance();
        let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
        let result = flow.run(&inst).expect("flow runs");
        assert!(result.tree.validate().is_ok());
        assert_eq!(result.report.sink_count(), inst.sink_count());
        assert!(!result.report.has_slew_violation());
        assert!(result.report.total_cap <= inst.cap_limit);
        assert!(
            result.skew() < 20.0,
            "industrially negligible skew expected, got {} ps",
            result.skew()
        );
        assert!(result.spice_runs > 3);
        assert_eq!(result.outcomes.len(), result.snapshots.len());
    }

    #[test]
    fn snapshots_follow_the_methodology_order() {
        let inst = small_instance();
        let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
        let result = flow.run(&inst).expect("flow runs");
        let order: Vec<&str> = result.snapshots.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(order, vec!["INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN"]);
        // The flow's skew after the wire optimizations must not exceed the
        // initial skew.
        let initial = &result.snapshots[0];
        let last = result.snapshots.last().expect("snapshots exist");
        assert!(last.skew <= initial.skew + 1e-9);
        assert!(last.clr <= initial.clr + 1e-9);
    }

    #[test]
    fn stages_can_be_disabled() {
        let inst = small_instance();
        let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
        let pipeline = flow
            .pipeline()
            .without("TBSZ")
            .without("TWSN")
            .without("BWSN");
        let result = flow
            .run_pipeline(&pipeline, &inst, &mut NoopObserver)
            .expect("flow runs");
        let order: Vec<&str> = result.snapshots.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(order, vec!["INITIAL", "TWSZ"]);
    }

    #[test]
    fn polarity_statistics_are_reported() {
        let inst = small_instance();
        let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
        let result = flow.run(&inst).expect("flow runs");
        // With inverting buffers some sinks are initially inverted, and the
        // correction never adds more inverters than inverted sinks.
        assert!(result.polarity.added_inverters <= result.polarity.inverted_sinks.max(1));
    }

    #[test]
    fn flow_stage_round_trips_through_acronyms() {
        for stage in FlowStage::all() {
            assert_eq!(FlowStage::from_acronym(stage.acronym()), Some(stage));
        }
        assert_eq!(FlowStage::from_acronym("NOPE"), None);
    }

    #[test]
    fn empty_pipeline_is_rejected() {
        let inst = small_instance();
        let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
        let err = flow
            .run_pipeline(&Pipeline::new(), &inst, &mut NoopObserver)
            .unwrap_err();
        assert_eq!(err, CoreError::EmptyPipeline);
    }

    #[test]
    fn pipeline_without_construction_is_rejected() {
        use crate::pipeline::WireSizingPass;
        let inst = small_instance();
        let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
        let pipeline = Pipeline::new().with_pass(WireSizingPass { rounds: 2 });
        let err = flow
            .run_pipeline(&pipeline, &inst, &mut NoopObserver)
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::MissingSinks {
                driven: 0,
                expected: inst.sink_count()
            }
        );
    }
}
