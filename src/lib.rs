//! Contango: integrated optimization of SoC clock networks — facade crate.
//!
//! This crate re-exports the workspace members so applications can depend on
//! a single crate:
//!
//! * [`geom`] — Manhattan geometry, obstacles, maze routing.
//! * [`tech`] — technology data, composite-buffer analysis.
//! * [`sim`] — the delay-evaluation substrate (Elmore and transient).
//! * [`core`] — the Contango clock-tree synthesis flow and its composable
//!   pass [`pipeline`](contango_core::pipeline).
//! * [`benchmarks`] — ISPD'09-style benchmark generators and file format.
//! * [`baselines`] — baseline flows for comparisons.
//! * [`campaign`] — the sharded multi-instance campaign runner (suites,
//!   baseline comparisons and ablation sweeps over a deterministic worker
//!   pool), plus the service layer: declarative
//!   [`Manifest`](prelude::Manifest)s, the NDJSON wire
//!   [`protocol`](contango_campaign::protocol), the
//!   [`serve`](contango_campaign::serve) daemon with its blocking
//!   [`Client`](prelude::Client), and the distributed campaign runner
//!   ([`dist`](contango_campaign::dist) coordinator /
//!   [`worker`](contango_campaign::worker) processes) with failure
//!   detection and byte-identical aggregation. Campaigns are
//!   variation-aware: jobs carry process/voltage corners and seeded
//!   Monte-Carlo variation sampling, and the
//!   [`pareto`](contango_campaign::pareto) module reduces any campaign to
//!   a deterministic Pareto frontier over worst-case skew, capacitance
//!   and wirelength.
//!
//! For everyday use, `use contango::prelude::*;` pulls in the flow, the
//! pipeline API and the common data types in one line.
//!
//! See the repository's `README.md` for a quick start and the `examples/`
//! directory for runnable end-to-end scenarios.

#![forbid(unsafe_code)]

// Compile the README's Rust examples as doctests so the documented
// pipeline API can never drift from the code.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
mod readme_doctests {}

pub use contango_baselines as baselines;
pub use contango_benchmarks as benchmarks;
pub use contango_campaign as campaign;
pub use contango_core as core;
pub use contango_geom as geom;
pub use contango_sim as sim;
pub use contango_tech as tech;

pub use contango_core::flow::{ContangoFlow, FlowConfig, FlowResult};
pub use contango_core::instance::ClockNetInstance;
pub use contango_tech::Technology;

/// The commonly used types in one import: the flow and its configuration,
/// the pipeline API ([`Pass`](prelude::Pass), [`Pipeline`](prelude::Pipeline),
/// [`FlowObserver`](prelude::FlowObserver)), the typed errors, and the core
/// data model (instances, trees, technology, geometry).
///
/// ```
/// use contango::prelude::*;
///
/// let instance = ClockNetInstance::builder("prelude")
///     .die(0.0, 0.0, 1000.0, 1000.0)
///     .sink(Point::new(300.0, 300.0), 10.0)
///     .sink(Point::new(700.0, 700.0), 10.0)
///     .cap_limit(100_000.0)
///     .build()?;
/// let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
/// let pipeline = flow.pipeline().without("BWSN");
/// let result = flow.run_pipeline(&pipeline, &instance, &mut NoopObserver)?;
/// assert_eq!(result.snapshots.last().unwrap().stage, "TWSN");
/// # Ok::<(), CoreError>(())
/// ```
pub mod prelude {
    pub use contango_campaign::{
        sweep_jobs, Campaign, CampaignResult, ChaosConfig, Client, ClientError, ClientStats,
        CoordFrame, CornerKind, CornerMetrics, DispatchMode, DistConfig, DistError, DistSummary,
        Frontier, InstanceSource, Job, JobRecord, Manifest, ManifestError, MemoryProfile,
        ParetoPoint, ReportKind, Request, RequestBody, RequestId, Response, ServeConfig,
        ServeSummary, Server, ServerError, SweepAxes, TableFormat, VariationMetrics, VariationSpec,
        WorkerConfig, WorkerConnection, WorkerError, WorkerFrame, WorkerSummary,
    };
    pub use contango_core::construct::{ConstructArena, ParallelConfig};
    pub use contango_core::error::{CoreError, InstanceError, TreeError};
    pub use contango_core::flow::{ContangoFlow, FlowConfig, FlowResult, FlowStage, StageSnapshot};
    pub use contango_core::instance::ClockNetInstance;
    pub use contango_core::opt::{OptContext, PassOutcome};
    pub use contango_core::pipeline::{FlowObserver, NoopObserver, Pass, PassCtx, Pipeline};
    pub use contango_core::session::EngineSession;
    pub use contango_core::topology::TopologyKind;
    pub use contango_core::tree::{ClockTree, NodeId, NodeKind, WireSegment};
    pub use contango_geom::{Point, Rect};
    pub use contango_sim::{DelayModel, EvalReport, VariationModel};
    pub use contango_tech::Technology;
}
