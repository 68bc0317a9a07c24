//! ISPD'09-style benchmarks for clock-network synthesis.
//!
//! The ISPD'09 CNS contest archive is not redistributable, so this crate
//! ships a deterministic synthetic generator that reproduces each
//! benchmark's published scale and structure (sink counts, die sizes,
//! blockage-heavy floorplans, electrical limits), plus a TI-style generator
//! for the scalability study of Section V of the paper, and a simple text
//! format so instances can be saved and reloaded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod generator;

pub use error::ParseError;
pub use generator::{
    ispd09_suite, make_instance, stress_instance, ti_instance, BenchmarkSpec, StressLayout,
};
pub mod report;
pub mod solution;

pub use report::{comparison_table, stage_table, RunSummary, Table};
pub use solution::{parse_solution, write_solution};
