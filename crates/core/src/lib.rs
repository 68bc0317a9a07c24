//! Contango: integrated optimization of SoC clock networks.
//!
//! This crate implements the clock-tree synthesis methodology of
//! *Contango: Integrated Optimization of SoC Clock Networks* (Lee & Markov,
//! DATE 2010): an end-to-end flow that builds a zero-skew tree, repairs
//! obstacle violations, inserts and sizes composite inverters, corrects sink
//! polarity and then iteratively reduces skew and Clock Latency Range (CLR)
//! with SPICE-driven wire sizing, wire snaking, bottom-level fine-tuning and
//! buffer sizing.
//!
//! The crate is organized around three layers:
//!
//! * the [`ClockTree`] data model ([`tree`]) and the lowering of a tree to a
//!   stage-level electrical netlist ([`lower`]);
//! * the construction algorithms — DME/ZST topology and embedding
//!   ([`dme`]), obstacle avoidance ([`obstacles`]), buffer insertion
//!   ([`buffering`]) and sink-polarity correction ([`polarity`]) — driven
//!   by the parallel, allocation-lean engine in [`construct`];
//! * the slack framework ([`slack`]) and the SPICE-driven optimizations
//!   ([`wiresizing`], [`wiresnaking`], [`bottomlevel`], [`buffersizing`]),
//!   orchestrated by [`flow::ContangoFlow`] as a composable [`pipeline`] of
//!   [`pipeline::Pass`] objects.
//!
//! # Quick start
//!
//! ```
//! use contango_core::instance::ClockNetInstance;
//! use contango_core::flow::{ContangoFlow, FlowConfig};
//! use contango_geom::Point;
//! use contango_tech::Technology;
//!
//! // A toy instance: four sinks in a 1 mm x 1 mm die.
//! let instance = ClockNetInstance::builder("toy")
//!     .die(0.0, 0.0, 1000.0, 1000.0)
//!     .source(Point::new(0.0, 500.0))
//!     .sink(Point::new(200.0, 200.0), 10.0)
//!     .sink(Point::new(800.0, 200.0), 10.0)
//!     .sink(Point::new(200.0, 800.0), 10.0)
//!     .sink(Point::new(800.0, 800.0), 10.0)
//!     .cap_limit(100_000.0)
//!     .build()
//!     .expect("valid instance");
//!
//! let flow = ContangoFlow::new(Technology::ispd09(), FlowConfig::fast());
//! let result = flow.run(&instance).expect("flow succeeds");
//! assert!(result.report.skew() < 20.0, "skew {} ps", result.report.skew());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bottomlevel;
pub mod buffering;
pub mod buffersizing;
pub mod construct;
pub mod crosslink;
pub mod dme;
pub mod error;
pub mod flow;
pub mod instance;
pub mod lower;
pub mod mem;
pub mod obstacles;
pub mod opt;
pub mod pipeline;
pub mod polarity;
pub mod session;
pub mod slack;
pub mod sliding;
pub mod topology;
pub mod tree;
pub mod visualize;
pub mod wiresizing;
pub mod wiresnaking;

pub use construct::{ConstructArena, ParallelConfig};
pub use error::{CoreError, InstanceError, TreeError};
pub use flow::{ContangoFlow, FlowConfig, FlowResult, FlowStage, StageSnapshot};
pub use instance::{ClockNetInstance, ClockNetInstanceBuilder, SinkSpec};
pub use opt::{OptContext, PassOutcome};
pub use pipeline::{FlowObserver, NoopObserver, Pass, PassCtx, Pipeline};
pub use session::EngineSession;
pub use slack::SlackAnalysis;
pub use topology::TopologyKind;
pub use tree::{ClockTree, Node, NodeId, NodeKind, WireSegment};
