//! Campaign jobs: one whole flow run, described declaratively.
//!
//! A [`Job`] carries everything a worker needs to run one flow — instance,
//! technology, configuration and stage selection — as plain data, so jobs
//! can be built on one thread and executed on another; the worker builds
//! the [`Pipeline`] locally from the description.

use contango_baselines::BaselineKind;
use contango_core::flow::FlowConfig;
use contango_core::instance::ClockNetInstance;
use contango_core::pipeline::Pipeline;
use contango_sim::VariationModel;
use contango_tech::Technology;

/// A discrete process/voltage corner a finished tree is re-evaluated at.
///
/// Each corner is a fixed, deterministic transform of the synthesized
/// network: wire and device resistances and capacitances scale by the
/// process factor, the supply corners by the voltage factor (through
/// `contango_sim`'s `scaled_netlist`/`scaled_technology`). Corners are
/// analysis axes — the synthesis itself always runs at nominal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CornerKind {
    /// The nominal corner: the unscaled network (factors all 1.0).
    Nominal,
    /// Slow process, low voltage: R and C +8%, Vdd −5%.
    Slow,
    /// Fast process, high voltage: R and C −8%, Vdd +5%.
    Fast,
    /// Nominal process at an aggressively lowered supply: Vdd −15%.
    LowVdd,
}

impl CornerKind {
    /// Every corner, in canonical order.
    pub fn all() -> [CornerKind; 4] {
        [
            CornerKind::Nominal,
            CornerKind::Slow,
            CornerKind::Fast,
            CornerKind::LowVdd,
        ]
    }

    /// The stable label used in manifests, CLI flags, tables and JSONL.
    pub fn label(self) -> &'static str {
        match self {
            CornerKind::Nominal => "nominal",
            CornerKind::Slow => "slow",
            CornerKind::Fast => "fast",
            CornerKind::LowVdd => "low-vdd",
        }
    }

    /// Parses a [`Self::label`] back into a corner.
    pub fn from_label(label: &str) -> Option<CornerKind> {
        CornerKind::all().into_iter().find(|c| c.label() == label)
    }

    /// The `(resistance, capacitance, vdd)` scale factors of the corner.
    pub fn factors(self) -> (f64, f64, f64) {
        match self {
            CornerKind::Nominal => (1.0, 1.0, 1.0),
            CornerKind::Slow => (1.08, 1.08, 0.95),
            CornerKind::Fast => (0.92, 0.92, 1.05),
            CornerKind::LowVdd => (1.0, 1.0, 0.85),
        }
    }
}

/// The Monte-Carlo variation axis of a job: which [`VariationModel`] to
/// sample, how many samples, and the seed — everything the worker needs to
/// reproduce the exact sample population anywhere.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationSpec {
    /// The 1-sigma variation magnitudes to sample.
    pub model: VariationModel,
    /// Number of Monte-Carlo samples per job (must be nonzero).
    pub samples: usize,
    /// Seed of the deterministic sampler.
    pub seed: u64,
}

/// One whole-flow run of a campaign.
#[derive(Debug, Clone)]
pub struct Job {
    /// Benchmark name reported for this job (defaults to the instance
    /// name).
    pub benchmark: String,
    /// Flow/tool label reported for this job (`"contango"`, a baseline
    /// label, or an ablation label).
    pub tool: String,
    /// Technology the flow runs under.
    pub tech: Technology,
    /// Flow configuration (rounds, model, topology, …).
    pub config: FlowConfig,
    /// The instance to synthesize.
    pub instance: ClockNetInstance,
    /// Run only these optimization stages (INITIAL always runs first), in
    /// the order listed; `None` keeps all five of the paper's passes.
    pub stages: Option<Vec<String>>,
    /// Stages to drop from the pipeline.
    pub skip: Vec<String>,
    /// Process/voltage corners the finished tree is re-evaluated at, in
    /// the order listed. Empty = nominal-only (no corner columns appear in
    /// any report, keeping corner-less outputs byte-identical to older
    /// runs).
    pub corners: Vec<CornerKind>,
    /// Monte-Carlo variation sampling of the finished tree, if any.
    pub variation: Option<VariationSpec>,
}

impl Job {
    /// A full Contango run of `instance` under `config`.
    pub fn contango(tech: &Technology, config: FlowConfig, instance: &ClockNetInstance) -> Self {
        Self {
            benchmark: instance.name.clone(),
            tool: "contango".to_string(),
            tech: tech.clone(),
            config,
            instance: instance.clone(),
            stages: None,
            skip: Vec::new(),
            corners: Vec::new(),
            variation: None,
        }
    }

    /// A baseline stand-in run of `instance`, labeled with
    /// [`BaselineKind::label`]: the baseline's configuration, with
    /// [`Job::stages`] set to [`BaselineKind::stages`]. Its pipeline is
    /// [`BaselineKind::pipeline`], the one
    /// [`contango_baselines::run_baseline`] runs.
    pub fn baseline(kind: BaselineKind, tech: &Technology, instance: &ClockNetInstance) -> Self {
        Self::contango(tech, kind.config(), instance)
            .with_tool(kind.label())
            .with_stages(Some(kind.stages()))
    }

    /// Overrides the reported tool label (e.g. for ablation variants).
    #[must_use]
    pub fn with_tool(mut self, tool: impl Into<String>) -> Self {
        self.tool = tool.into();
        self
    }

    /// Overrides the reported benchmark name.
    #[must_use]
    pub fn with_benchmark(mut self, benchmark: impl Into<String>) -> Self {
        self.benchmark = benchmark.into();
        self
    }

    /// Restricts the run to the listed optimization stages (INITIAL always
    /// runs first); `None` keeps all five of the paper's passes.
    #[must_use]
    pub fn with_stages(mut self, stages: Option<Vec<String>>) -> Self {
        self.stages = stages;
        self
    }

    /// Drops the listed stages from the pipeline — an ablation job.
    #[must_use]
    pub fn with_skip(mut self, skip: Vec<String>) -> Self {
        self.skip = skip;
        self
    }

    /// Re-evaluates the finished tree at the listed corners (in order).
    #[must_use]
    pub fn with_corners(mut self, corners: Vec<CornerKind>) -> Self {
        self.corners = corners;
        self
    }

    /// Adds Monte-Carlo variation sampling of the finished tree.
    #[must_use]
    pub fn with_variation(mut self, variation: Option<VariationSpec>) -> Self {
        self.variation = variation;
        self
    }

    /// The pipeline this job runs: [`Pipeline::contango`] under the job's
    /// configuration, restricted to [`Job::stages`] in the order listed
    /// (INITIAL always first) and with every [`Job::skip`] stage removed —
    /// the same semantics as the CLI's `--stages`/`--skip` flags, shared
    /// through [`Pipeline::with_stage_selection`].
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::contango(&self.config).with_stage_selection(self.stages.as_deref(), &self.skip)
    }

    /// Scheduling cost estimate: sinks × passes (plus one for
    /// construction-dominated single-pass jobs), scaled up by the number of
    /// post-flow evaluations (corners and Monte-Carlo samples). Only the
    /// relative order matters — the executor dispatches the costliest jobs
    /// first so a long job never lands last on an otherwise drained queue.
    pub fn cost(&self) -> u64 {
        let flow = (self.instance.sink_count() as u64 + 1) * (self.pipeline().len() as u64 + 1);
        let extra_evals =
            self.corners.len() as u64 + self.variation.map_or(0, |v| v.samples as u64);
        flow + flow * extra_evals / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contango_geom::Point;

    fn instance(sinks: usize) -> ClockNetInstance {
        let mut b = ClockNetInstance::builder("job-test")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .cap_limit(300_000.0);
        for i in 0..sinks {
            b = b.sink(
                Point::new(200.0 + 150.0 * i as f64, 300.0 + 90.0 * i as f64),
                10.0,
            );
        }
        b.build().expect("valid")
    }

    #[test]
    fn stage_selection_mirrors_the_cli_semantics() {
        let tech = Technology::ispd09();
        let job = Job::contango(&tech, FlowConfig::fast(), &instance(4));
        assert_eq!(
            job.pipeline().acronyms(),
            ["INITIAL", "TBSZ", "TWSZ", "TWSN", "BWSN"]
        );
        let job = job
            .with_stages(Some(vec!["TWSN".to_string(), "TWSZ".to_string()]))
            .with_skip(vec!["TWSZ".to_string()]);
        assert_eq!(job.pipeline().acronyms(), ["INITIAL", "TWSN"]);
    }

    #[test]
    fn baseline_jobs_match_the_baseline_pipelines() {
        let tech = Technology::ispd09();
        let inst = instance(4);
        for kind in BaselineKind::all() {
            let job = Job::baseline(kind, &tech, &inst);
            assert_eq!(job.tool, kind.label());
            assert_eq!(job.pipeline().acronyms(), kind.pipeline().acronyms());
        }
    }

    #[test]
    fn cost_orders_bigger_work_first() {
        let tech = Technology::ispd09();
        let small = Job::baseline(BaselineKind::DmeNoTuning, &tech, &instance(4));
        let large = Job::contango(&tech, FlowConfig::fast(), &instance(9));
        assert!(large.cost() > small.cost());
    }

    #[test]
    fn corner_labels_round_trip() {
        for corner in CornerKind::all() {
            assert_eq!(CornerKind::from_label(corner.label()), Some(corner));
        }
        assert_eq!(CornerKind::from_label("typical"), None);
        let (r, c, v) = CornerKind::Nominal.factors();
        assert_eq!((r, c, v), (1.0, 1.0, 1.0));
    }

    #[test]
    fn corners_and_samples_raise_the_scheduling_cost() {
        let tech = Technology::ispd09();
        let base = Job::contango(&tech, FlowConfig::fast(), &instance(6));
        let cornered = base.clone().with_corners(CornerKind::all().to_vec());
        let sampled = base.clone().with_variation(Some(VariationSpec {
            model: VariationModel::typical_45nm(),
            samples: 64,
            seed: 7,
        }));
        assert!(cornered.cost() > base.cost());
        assert!(sampled.cost() > cornered.cost());
    }
}
