//! The composable pass pipeline behind the Contango flow.
//!
//! The paper's methodology is a *sequence of passes with an improvement- and
//! violation-check after each* (Figure 1). This module makes that sequence a
//! first-class value: each stage is a [`Pass`] object, a [`Pipeline`] is an
//! ordered list of passes, and [`ContangoFlow::run_pipeline`](crate::flow::ContangoFlow::run_pipeline) drives any
//! pipeline — the default one, a trimmed one, or one extended with
//! user-defined passes — taking a [`StageSnapshot`] after every pass and
//! reporting progress through a [`FlowObserver`].
//!
//! [`ContangoFlow::run`](crate::flow::ContangoFlow::run) is a thin wrapper over
//! [`Pipeline::contango`], which always builds the paper's five passes;
//! every narrower flow (an ablation, a baseline, a `stages`/`skip`
//! selection) is derived from it with the combinators.
//!
//! # Composing pipelines
//!
//! ```
//! use contango_core::flow::FlowConfig;
//! use contango_core::pipeline::Pipeline;
//!
//! // The default flow of the paper: INITIAL, TBSZ, TWSZ, TWSN, BWSN.
//! let full = Pipeline::contango(&FlowConfig::fast());
//! assert_eq!(full.acronyms(), ["INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN"]);
//!
//! // An ablation: drop wiresnaking, keep everything else.
//! let no_snaking = Pipeline::contango(&FlowConfig::fast()).without("TWSN");
//! assert_eq!(no_snaking.acronyms(), ["INITIAL", "TBSZ", "TWSZ", "BWSN"]);
//! ```
//!
//! # Writing a pass
//!
//! A pass mutates the tree through `&mut ClockTree` and reads everything
//! else (technology, evaluator, instance, the previous report) from the
//! [`PassCtx`]. The flow evaluates the tree after the pass returns, so a
//! pass does not need a final evaluation of its own:
//!
//! ```
//! use contango_core::error::CoreError;
//! use contango_core::flow::{ContangoFlow, FlowConfig};
//! use contango_core::instance::ClockNetInstance;
//! use contango_core::opt::PassOutcome;
//! use contango_core::pipeline::{NoopObserver, Pass, PassCtx, Pipeline};
//! use contango_core::tree::ClockTree;
//! use contango_geom::Point;
//! use contango_tech::Technology;
//!
//! /// Widens the root's outgoing wires; a (naive) user-defined pass.
//! struct WidenTrunk;
//!
//! impl Pass for WidenTrunk {
//!     fn name(&self) -> &str {
//!         "widen trunk wires"
//!     }
//!     fn acronym(&self) -> &str {
//!         "WIDEN"
//!     }
//!     fn run(
//!         &self,
//!         tree: &mut ClockTree,
//!         _ctx: &mut PassCtx<'_>,
//!     ) -> Result<PassOutcome, CoreError> {
//!         use contango_tech::WireWidth;
//!         for child in tree.node(tree.root()).children.clone() {
//!             tree.node_mut(child).wire.width = WireWidth::Wide;
//!         }
//!         Ok(PassOutcome::zero())
//!     }
//! }
//!
//! let instance = ClockNetInstance::builder("custom-pass")
//!     .die(0.0, 0.0, 1000.0, 1000.0)
//!     .sink(Point::new(250.0, 250.0), 10.0)
//!     .sink(Point::new(750.0, 750.0), 10.0)
//!     .cap_limit(100_000.0)
//!     .build()?;
//! let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
//! let pipeline = flow.pipeline().insert_after("INITIAL", WidenTrunk);
//! let result = flow.run_pipeline(&pipeline, &instance, &mut NoopObserver)?;
//! assert_eq!(result.snapshots[1].stage, "WIDEN");
//! # Ok::<(), contango_core::error::CoreError>(())
//! ```

use crate::bottomlevel::{bottom_level_tuning, BottomLevelConfig};
use crate::buffering::BufferingReport;
use crate::buffersizing::{iterative_buffer_sizing, BufferSizingConfig};
use crate::construct::{construct_initial, ConstructArena, ConstructConfig};
use crate::error::CoreError;
use crate::flow::{FlowConfig, StageSnapshot};
use crate::instance::ClockNetInstance;
use crate::opt::{OptContext, PassOutcome, Scope};
use crate::polarity::PolarityReport;
use crate::sliding::slide_and_interleave;
use crate::tree::ClockTree;
use crate::wiresizing::{iterative_wiresizing, WireSizingConfig};
use crate::wiresnaking::{iterative_wiresnaking, WireSnakingConfig};
use contango_sim::EvalReport;
use std::fmt;

/// Everything a [`Pass`] can see besides the tree it mutates: the instance,
/// the shared optimization context and the state accumulated by earlier
/// passes.
#[derive(Debug)]
pub struct PassCtx<'a> {
    /// The instance being synthesized.
    pub instance: &'a ClockNetInstance,
    /// The shared optimization context (technology, evaluator, budgets).
    pub opt: OptContext<'a>,
    /// The session's construction arena: reusable scratch memory for
    /// construction passes, owned by the
    /// [`EngineSession`](crate::session::EngineSession) so warm workers
    /// build trees without re-growing buffers run after run.
    pub arena: &'a mut ConstructArena,
    /// Polarity-correction statistics, recorded by the construction pass.
    pub polarity: Option<PolarityReport>,
    /// Buffering decision, recorded by the construction pass.
    pub buffering: Option<BufferingReport>,
    /// The end-of-pass evaluation of the previous pass, if any.
    pub last_report: Option<EvalReport>,
}

/// One stage of the synthesis flow.
///
/// Implementations mutate the tree and report a [`PassOutcome`]; the
/// pipeline driver evaluates the tree after every pass and takes the
/// [`StageSnapshot`], so passes never need a trailing evaluation of their
/// own. See the [module docs](self) for a worked user-defined pass.
pub trait Pass {
    /// Human-readable pass name, e.g. `"top-down wiresizing"`.
    fn name(&self) -> &str;

    /// Short stage acronym used in snapshots and reports, e.g. `"TWSZ"`.
    ///
    /// Acronyms identify passes in [`Pipeline::without`],
    /// [`Pipeline::replace`] and [`Pipeline::insert_after`], so they should
    /// be unique within a pipeline.
    fn acronym(&self) -> &str;

    /// Runs the pass on `tree`.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] when the pass cannot complete (for example
    /// when no buffering configuration fits the capacitance budget). The
    /// pipeline driver wraps the error with the pass acronym.
    fn run(&self, tree: &mut ClockTree, ctx: &mut PassCtx<'_>) -> Result<PassOutcome, CoreError>;
}

/// Hooks called by the pipeline driver around every pass.
///
/// The CLI attaches an observer for live progress; batch or parallel
/// drivers can attach their own to stream per-stage metrics without waiting
/// for the flow to finish. All methods have empty default bodies, so an
/// observer only implements the hooks it cares about.
pub trait FlowObserver {
    /// Called before pass `index` (0-based) of `total` starts.
    fn on_pass_start(&mut self, _pass: &dyn Pass, _index: usize, _total: usize) {}

    /// Called after a pass finished and its end-of-pass snapshot was taken.
    fn on_pass_end(&mut self, _pass: &dyn Pass, _snapshot: &StageSnapshot, _outcome: &PassOutcome) {
    }
}

/// An observer that ignores every hook; used by [`crate::flow::ContangoFlow::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl FlowObserver for NoopObserver {}

/// An ordered, composable list of [`Pass`] objects.
///
/// Built either from a [`FlowConfig`] (via [`Pipeline::contango`], the
/// paper's five passes) or pass by pass with [`Pipeline::with_pass`], then
/// refined with [`Pipeline::without`], [`Pipeline::select`],
/// [`Pipeline::replace`], [`Pipeline::insert_after`] and
/// [`Pipeline::insert_before`]. Run it with
/// [`ContangoFlow::run_pipeline`](crate::flow::ContangoFlow::run_pipeline).
#[derive(Default)]
pub struct Pipeline {
    passes: Vec<Box<dyn Pass>>,
}

impl fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("passes", &self.acronyms())
            .finish()
    }
}

impl Pipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The paper's pipeline for `config`: INITIAL, TBSZ, TWSZ, TWSN and
    /// BWSN in the order of Figure 1, each built by its pass's
    /// `from_config`. Narrower flows drop or replace passes with the
    /// combinators.
    pub fn contango(config: &FlowConfig) -> Self {
        Pipeline::new()
            .with_pass(InitialConstruction::from_config(config))
            .with_pass(BufferSizingPass::from_config(config))
            .with_pass(WireSizingPass::from_config(config))
            .with_pass(WireSnakingPass::from_config(config))
            .with_pass(BottomLevelPass::from_config(config))
    }

    /// Appends a pass.
    #[must_use]
    pub fn with_pass(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Removes the pass with the given acronym; a no-op when absent.
    #[must_use]
    pub fn without(mut self, acronym: &str) -> Self {
        self.passes.retain(|p| p.acronym() != acronym);
        self
    }

    /// Keeps only the passes whose acronym appears in `acronyms`, in the
    /// order *given*, not pipeline order. Acronyms that match no pass are
    /// ignored; duplicates take the pass once, at its first mention.
    #[must_use]
    pub fn select(mut self, acronyms: &[&str]) -> Self {
        let mut selected = Vec::with_capacity(acronyms.len());
        for &acronym in acronyms {
            if let Some(at) = self.passes.iter().position(|p| p.acronym() == acronym) {
                selected.push(self.passes.remove(at));
            }
        }
        self.passes = selected;
        self
    }

    /// Applies the `--stages`/`--skip`-style stage selection shared by the
    /// CLI and the campaign runner: when `stages` is given, keep only
    /// those passes in the order listed (the INITIAL construction always
    /// runs first, whether listed or not); then drop every `skip` stage.
    #[must_use]
    pub fn with_stage_selection(mut self, stages: Option<&[String]>, skip: &[String]) -> Self {
        if let Some(stages) = stages {
            let mut keep: Vec<&str> = vec!["INITIAL"];
            keep.extend(
                stages
                    .iter()
                    .map(String::as_str)
                    .filter(|&s| s != "INITIAL"),
            );
            self = self.select(&keep);
        }
        for stage in skip {
            self = self.without(stage);
        }
        self
    }

    /// Replaces the pass with the given acronym in place.
    ///
    /// # Panics
    ///
    /// Panics when no pass carries `acronym`; use [`Pipeline::with_pass`]
    /// to append.
    #[must_use]
    pub fn replace(mut self, acronym: &str, pass: impl Pass + 'static) -> Self {
        let at = self.find(acronym);
        self.passes[at] = Box::new(pass);
        self
    }

    /// Inserts a pass directly after the pass with the given acronym.
    ///
    /// # Panics
    ///
    /// Panics when no pass carries `acronym`.
    #[must_use]
    pub fn insert_after(mut self, acronym: &str, pass: impl Pass + 'static) -> Self {
        let at = self.find(acronym);
        self.passes.insert(at + 1, Box::new(pass));
        self
    }

    /// Inserts a pass directly before the pass with the given acronym.
    ///
    /// # Panics
    ///
    /// Panics when no pass carries `acronym`.
    #[must_use]
    pub fn insert_before(mut self, acronym: &str, pass: impl Pass + 'static) -> Self {
        let at = self.find(acronym);
        self.passes.insert(at, Box::new(pass));
        self
    }

    /// Position of the pass with the given acronym, if present.
    pub fn position(&self, acronym: &str) -> Option<usize> {
        self.passes.iter().position(|p| p.acronym() == acronym)
    }

    /// Position of the pass with the given acronym; panics when absent.
    fn find(&self, acronym: &str) -> usize {
        self.position(acronym).unwrap_or_else(|| {
            panic!(
                "no pass with acronym `{acronym}` in pipeline {:?}",
                self.acronyms()
            )
        })
    }

    /// The acronyms of the passes, in execution order.
    pub fn acronyms(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.acronym()).collect()
    }

    /// The passes, in execution order.
    pub fn passes(&self) -> &[Box<dyn Pass>] {
        &self.passes
    }

    /// Number of passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline has no passes.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }
}

// ---------------------------------------------------------------------------
// The five default passes of the paper's flow (Figure 1).
// ---------------------------------------------------------------------------

/// INITIAL: topology construction, obstacle repair, edge splitting,
/// composite-buffer insertion and sink-polarity correction.
///
/// The pass body is the construction engine
/// ([`crate::construct::construct_initial`]): arena-driven topology and
/// merging, overlay-planned buffering, and a deterministic thread fan-out
/// controlled by the [`ConstructConfig::parallel`] setting. Observers see
/// the engine's runtime like any other stage, through the usual
/// [`FlowObserver::on_pass_start`]/[`FlowObserver::on_pass_end`] pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InitialConstruction {
    /// The construction settings handed to the engine.
    pub config: ConstructConfig,
}

impl InitialConstruction {
    /// The construction settings implied by a [`FlowConfig`].
    pub fn from_config(config: &FlowConfig) -> Self {
        Self {
            config: ConstructConfig {
                topology: config.topology,
                use_large_inverters: config.use_large_inverters,
                max_edge_len: config.max_edge_len,
                power_reserve: config.power_reserve,
                parallel: config.parallel,
            },
        }
    }
}

impl Pass for InitialConstruction {
    fn name(&self) -> &str {
        "initial construction"
    }

    fn acronym(&self) -> &str {
        "INITIAL"
    }

    fn run(&self, tree: &mut ClockTree, ctx: &mut PassCtx<'_>) -> Result<PassOutcome, CoreError> {
        let (built, reports) =
            construct_initial(ctx.instance, ctx.opt.tech, &self.config, ctx.arena)?;
        *tree = built;
        ctx.polarity = Some(reports.polarity);
        ctx.buffering = Some(reports.buffering);
        Ok(PassOutcome::zero())
    }
}

/// TBSZ: buffer sliding/interleaving followed by trunk and branch buffer
/// sizing; the CLR-reduction stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferSizingPass {
    /// Run buffer sliding and interleaving before sizing (Section IV-H).
    /// [`BufferSizingPass::from_config`] turns it on; an ablation turns it
    /// off by replacing the pipeline's TBSZ pass.
    pub enable_sliding: bool,
    /// Iteration budget for trunk buffer sizing.
    pub iterations: usize,
}

impl BufferSizingPass {
    /// The sizing settings implied by a [`FlowConfig`], sliding included.
    pub fn from_config(config: &FlowConfig) -> Self {
        Self {
            enable_sliding: true,
            iterations: config.buffer_sizing_iterations,
        }
    }
}

impl Pass for BufferSizingPass {
    fn name(&self) -> &str {
        "buffer sliding and sizing"
    }

    fn acronym(&self) -> &str {
        "TBSZ"
    }

    fn run(&self, tree: &mut ClockTree, ctx: &mut PassCtx<'_>) -> Result<PassOutcome, CoreError> {
        let sliding = self
            .enable_sliding
            .then(|| slide_and_interleave(tree, &ctx.opt));
        let cfg = BufferSizingConfig {
            max_iterations: self.iterations,
        };
        let sizing = iterative_buffer_sizing(tree, &ctx.opt, cfg);
        // Fold the sliding rounds into the stage outcome so the combined
        // stage reports its full trajectory (sliding's "before" is the
        // stage's "before").
        Ok(match sliding {
            Some(sliding) => PassOutcome {
                rounds: sliding.rounds + sizing.rounds,
                skew_before: sliding.skew_before,
                clr_before: sliding.clr_before,
                ..sizing
            },
            None => sizing,
        })
    }
}

/// TWSZ: iterative top-down wiresizing; the big skew reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSizingPass {
    /// Round budget.
    pub rounds: usize,
}

impl WireSizingPass {
    /// The wiresizing settings implied by a [`FlowConfig`].
    pub fn from_config(config: &FlowConfig) -> Self {
        Self {
            rounds: config.wiresizing_rounds,
        }
    }
}

impl Pass for WireSizingPass {
    fn name(&self) -> &str {
        "top-down wiresizing"
    }

    fn acronym(&self) -> &str {
        "TWSZ"
    }

    fn run(&self, tree: &mut ClockTree, ctx: &mut PassCtx<'_>) -> Result<PassOutcome, CoreError> {
        let cfg = WireSizingConfig {
            max_rounds: self.rounds,
            scope: Scope::TopDown,
        };
        Ok(iterative_wiresizing(tree, &ctx.opt, cfg))
    }
}

/// TWSN: iterative top-down wiresnaking; refines skew further.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireSnakingPass {
    /// Round budget.
    pub rounds: usize,
}

impl WireSnakingPass {
    /// The wiresnaking settings implied by a [`FlowConfig`].
    pub fn from_config(config: &FlowConfig) -> Self {
        Self {
            rounds: config.wiresnaking_rounds,
        }
    }
}

impl Pass for WireSnakingPass {
    fn name(&self) -> &str {
        "top-down wiresnaking"
    }

    fn acronym(&self) -> &str {
        "TWSN"
    }

    fn run(&self, tree: &mut ClockTree, ctx: &mut PassCtx<'_>) -> Result<PassOutcome, CoreError> {
        let cfg = WireSnakingConfig {
            max_rounds: self.rounds,
            scope: Scope::TopDown,
        };
        Ok(iterative_wiresnaking(tree, &ctx.opt, cfg))
    }
}

/// BWSN: bottom-level wiresizing/wiresnaking fine-tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BottomLevelPass {
    /// Round budget.
    pub rounds: usize,
}

impl BottomLevelPass {
    /// The bottom-level settings implied by a [`FlowConfig`].
    pub fn from_config(config: &FlowConfig) -> Self {
        Self {
            rounds: config.bottom_rounds,
        }
    }
}

impl Pass for BottomLevelPass {
    fn name(&self) -> &str {
        "bottom-level fine-tuning"
    }

    fn acronym(&self) -> &str {
        "BWSN"
    }

    fn run(&self, tree: &mut ClockTree, ctx: &mut PassCtx<'_>) -> Result<PassOutcome, CoreError> {
        let cfg = BottomLevelConfig {
            max_rounds: self.rounds,
        };
        Ok(bottom_level_tuning(tree, &ctx.opt, cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy(&'static str);

    impl Pass for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
        fn acronym(&self) -> &str {
            self.0
        }
        fn run(
            &self,
            _tree: &mut ClockTree,
            _ctx: &mut PassCtx<'_>,
        ) -> Result<PassOutcome, CoreError> {
            Ok(PassOutcome::zero())
        }
    }

    #[test]
    fn default_pipeline_follows_the_methodology_order() {
        let full = Pipeline::contango(&FlowConfig::default());
        assert_eq!(full.acronyms(), ["INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN"]);
    }

    #[test]
    fn combinators_edit_the_pass_list() {
        let p = Pipeline::contango(&FlowConfig::default())
            .without("TWSN")
            .insert_after("INITIAL", Dummy("A"))
            .insert_before("BWSN", Dummy("B"))
            .replace("TWSZ", Dummy("C"));
        assert_eq!(p.acronyms(), ["INITIAL", "A", "TBSZ", "C", "B", "BWSN"]);
        assert_eq!(p.position("C"), Some(3));
        assert_eq!(p.position("TWSZ"), None);
        let p = p.select(&["INITIAL", "A", "BWSN"]);
        assert_eq!(p.acronyms(), ["INITIAL", "A", "BWSN"]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
    }

    #[test]
    fn without_missing_acronym_is_a_noop() {
        let p = Pipeline::contango(&FlowConfig::default()).without("NOPE");
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn select_reorders_to_the_given_order() {
        let p = Pipeline::contango(&FlowConfig::default())
            .select(&["INITIAL", "TWSN", "TWSZ", "TWSN", "NOPE"]);
        assert_eq!(p.acronyms(), ["INITIAL", "TWSN", "TWSZ"]);
    }

    #[test]
    #[should_panic(expected = "no pass with acronym")]
    fn insert_after_missing_acronym_panics() {
        let _ = Pipeline::new().insert_after("NOPE", Dummy("A"));
    }
}
