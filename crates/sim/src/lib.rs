//! Delay-evaluation substrate for clock-network synthesis.
//!
//! The Contango paper drives its optimizations with SPICE (ngSPICE for the
//! ISPD'09 contest, HSPICE for the scalability study) and explicitly notes
//! that "any accurate delay evaluator can be used, including FastSpice,
//! Arnoldi approximations, etc." This crate is that evaluator: it provides
//! three delay models of increasing accuracy over the same
//! [`RcTree`]/[`Netlist`] representation and a multi-corner
//! [`Evaluator`] that produces the metrics the optimizations consume —
//! per-sink latency and slew for rising and falling transitions at both
//! supply corners, nominal skew, Clock Latency Range (CLR), slew violations
//! and total capacitance.
//!
//! | Model | Description | Used for |
//! |---|---|---|
//! | [`DelayModel::Elmore`] | first-moment delay, `ln 2 · m₁` | initial tree construction, fast buffering |
//! | [`DelayModel::TwoPole`] | D2M two-moment metric with moment-matched slew | quick what-if analysis |
//! | [`DelayModel::Transient`] | backward-Euler transient solve of each buffered stage with a ramped Thevenin driver | "SPICE-accurate" optimization loops |
//!
//! The transient solver exploits the tree structure of every buffered stage
//! to solve each timestep in `O(n)`, and steps a stage's four transitions
//! (rise and fall at both supply corners) as the lanes of one kernel call,
//! so full-network evaluations remain fast enough to sit inside
//! Contango's iterative optimization loops even for 50 000-sink networks.
//!
//! # Example
//!
//! ```
//! use contango_sim::{RcTree, DelayModel};
//!
//! // A 1 mm wire driven through 100 Ω: node 0 is the driving point.
//! let mut tree = RcTree::new();
//! let n0 = tree.add_root(10.0);
//! let n1 = tree.add_node(n0, 40.0, 50.0);
//! let n2 = tree.add_node(n1, 40.0, 70.0);
//! let elmore = tree.elmore_from(100.0);
//! assert!(elmore[n2] > elmore[n1]);
//! assert!(DelayModel::Elmore.is_analytic());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arnoldi;
mod driver;
mod error;
mod evaluator;
pub mod incremental;
mod models;
mod netlist;
mod rctree;
mod report;
pub mod spice;
pub mod store;
mod transient;
pub mod variation;

pub use arnoldi::{higher_moments, reduced_order_models, Moments, ReducedOrderModel};
pub use driver::{DriverSpec, SourceSpec, RISE_FALL_ASYMMETRY, SLEW_DELAY_SENSITIVITY};
pub use error::{NetlistError, SpiceError};
pub use evaluator::{EvalOptions, Evaluator};
pub use incremental::{
    CacheStats, IncrementalEvaluator, LocalTap, LocalTapKind, LoweredStage, SigBuilder, StageSig,
    StageSlot,
};
pub use models::DelayModel;
pub use netlist::{Netlist, Stage, StageDriver, Tap, TapKind};
pub use rctree::RcTree;
pub use report::{CornerReport, EvalReport, SinkTiming, TransitionTiming};
pub use spice::{parse_measurements, report_from_measurements, write_deck, DeckOptions};
pub use store::{CacheCounters, CacheStore, HitTier, StoreError, StoreKey, NS_SOLVE};
pub use transient::{TransientResult, TransientSolver};
pub use variation::{
    monte_carlo, monte_carlo_samples, perturb_netlist, scaled_netlist, scaled_technology,
    shifted_technology, truncated_normal, MetricDistribution, SampleMetrics, VariationModel,
    VariationReport, XorShift,
};
