//! Baseline clock-tree synthesis flows used for Table-IV-style comparisons.
//!
//! The ISPD'09 contest entries the paper compares against (NTU, NCTU and the
//! University of Michigan's earlier tool) are not available, so this crate
//! provides three stand-in flows of decreasing sophistication. They share
//! Contango's substrates (DME construction, buffering, evaluation) but omit
//! the SPICE-driven optimization loops that are the paper's contribution, so
//! the comparison isolates exactly what the paper claims: the integrated
//! optimization methodology, not the front-end.
//!
//! Every baseline is expressed as a [`Pipeline`]: the full Contango pipeline
//! narrowed to the optimization stages the stand-in tool has
//! ([`BaselineKind::stages`]). `compare` therefore exercises exactly the same
//! machinery as the real flow — a baseline is just a shorter pass list, and
//! a campaign's baseline job selects the same list through its `stages`.
//!
//! | Baseline | Stands in for | Pipeline |
//! |---|---|---|
//! | [`BaselineKind::DmeNoTuning`] | U. of Michigan entry | INITIAL only |
//! | [`BaselineKind::WiresizingOnly`] | NTU entry | INITIAL + TWSZ |
//! | [`BaselineKind::WeakBuffering`] | NCTU entry | INITIAL only, single large inverters |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use contango_core::error::CoreError;
use contango_core::flow::{ContangoFlow, FlowConfig, FlowResult};
use contango_core::instance::ClockNetInstance;
use contango_core::pipeline::{NoopObserver, Pipeline};
use contango_tech::Technology;
use serde::Serialize;

/// The available baseline flows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BaselineKind {
    /// Initial tree + buffering + polarity correction only.
    DmeNoTuning,
    /// Initial flow plus the wiresizing loop, but no buffer sizing, snaking
    /// or bottom-level tuning.
    WiresizingOnly,
    /// Untuned flow that drives the tree with single large inverters
    /// (the dominated configuration of Table I).
    WeakBuffering,
}

impl BaselineKind {
    /// All baselines, in the order Table IV lists the contest entries.
    pub fn all() -> [BaselineKind; 3] {
        [
            BaselineKind::WiresizingOnly,
            BaselineKind::WeakBuffering,
            BaselineKind::DmeNoTuning,
        ]
    }

    /// Display label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            BaselineKind::DmeNoTuning => "dme-no-tuning",
            BaselineKind::WiresizingOnly => "wiresizing-only",
            BaselineKind::WeakBuffering => "weak-buffering",
        }
    }

    /// The flow configuration of this baseline: Contango's fast profile,
    /// with large single inverters for the weak-buffering stand-in.
    pub fn config(&self) -> FlowConfig {
        FlowConfig {
            use_large_inverters: matches!(self, BaselineKind::WeakBuffering),
            ..FlowConfig::fast()
        }
    }

    /// The optimization stages this baseline runs after INITIAL, in order:
    /// the one definition of which passes a baseline has. Both
    /// [`BaselineKind::pipeline`] and a campaign's baseline job (as its
    /// `stages` selection) read it.
    pub fn stages(&self) -> Vec<String> {
        match self {
            BaselineKind::DmeNoTuning | BaselineKind::WeakBuffering => Vec::new(),
            BaselineKind::WiresizingOnly => vec!["TWSZ".to_string()],
        }
    }

    /// This baseline's pipeline: the full Contango pipeline under
    /// [`BaselineKind::config`], narrowed to [`BaselineKind::stages`] with
    /// [`Pipeline::with_stage_selection`], the selection a `stages`
    /// manifest key makes.
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::contango(&self.config()).with_stage_selection(Some(&self.stages()), &[])
    }
}

/// Runs a baseline flow on an instance.
///
/// # Errors
///
/// Propagates the underlying flow error (invalid instance or no buffering
/// configuration within budget).
pub fn run_baseline(
    kind: BaselineKind,
    tech: &Technology,
    instance: &ClockNetInstance,
) -> Result<FlowResult, CoreError> {
    ContangoFlow::new(tech.clone(), kind.config()).run_pipeline(
        &kind.pipeline(),
        instance,
        &mut NoopObserver,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use contango_geom::Point;

    fn instance() -> ClockNetInstance {
        let mut b = ClockNetInstance::builder("baseline-test")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .source(Point::new(0.0, 1000.0))
            .cap_limit(300_000.0);
        for j in 0..3 {
            for i in 0..3 {
                b = b.sink(
                    Point::new(300.0 + 700.0 * i as f64, 300.0 + 700.0 * j as f64),
                    10.0 + 7.0 * ((i + 2 * j) % 3) as f64,
                );
            }
        }
        b.build().expect("valid")
    }

    #[test]
    fn baselines_run_and_skip_tuning_stages() {
        let tech = Technology::ispd09();
        let inst = instance();
        let result = run_baseline(BaselineKind::DmeNoTuning, &tech, &inst).expect("runs");
        assert_eq!(result.snapshots.len(), 1);
        let result = run_baseline(BaselineKind::WiresizingOnly, &tech, &inst).expect("runs");
        assert_eq!(result.snapshots.len(), 2);
    }

    #[test]
    fn baseline_pipelines_are_trimmed_contango_pipelines() {
        assert_eq!(BaselineKind::DmeNoTuning.pipeline().acronyms(), ["INITIAL"]);
        assert_eq!(
            BaselineKind::WiresizingOnly.pipeline().acronyms(),
            ["INITIAL", "TWSZ"]
        );
        assert_eq!(
            BaselineKind::WeakBuffering.pipeline().acronyms(),
            ["INITIAL"]
        );
    }

    #[test]
    fn contango_beats_every_baseline_on_skew() {
        let tech = Technology::ispd09();
        let inst = instance();
        let contango = ContangoFlow::new(tech.clone(), FlowConfig::fast())
            .run(&inst)
            .expect("runs");
        for kind in BaselineKind::all() {
            let baseline = run_baseline(kind, &tech, &inst).expect("runs");
            assert!(
                contango.skew() <= baseline.skew() + 1e-9,
                "{}: contango {} vs baseline {}",
                kind.label(),
                contango.skew(),
                baseline.skew()
            );
        }
    }

    #[test]
    fn untuned_baseline_has_larger_clr_than_contango() {
        let tech = Technology::ispd09();
        let inst = instance();
        let contango = ContangoFlow::new(tech.clone(), FlowConfig::fast())
            .run(&inst)
            .expect("runs");
        let baseline = run_baseline(BaselineKind::WeakBuffering, &tech, &inst).expect("runs");
        assert!(contango.clr() <= baseline.clr() + 1e-9);
    }
}
