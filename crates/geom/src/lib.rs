//! Manhattan geometry primitives for SoC clock-network synthesis.
//!
//! This crate provides the geometric substrate used by the Contango
//! clock-tree synthesis flow:
//!
//! * [`Point`] / [`Rect`] — planar points and axis-aligned rectangles with
//!   Manhattan (rectilinear) metrics, expressed in micrometres.
//! * [`Segment`] and [`LShape`] — rectilinear wire geometry between two
//!   points, including the two possible L-shaped embeddings of a diagonal
//!   connection.
//! * [`TiltedRect`] — tilted rectangular regions and Manhattan arcs
//!   ("merging segments") used by deferred-merge embedding (DME) algorithms.
//! * [`Obstacle`], [`ObstacleSet`] and [`CompoundObstacle`] — placement
//!   blockages. Abutting or overlapping rectangles are merged into compound
//!   obstacles because no buffer can be placed between two abutting macros.
//! * [`MazeRouter`] — shortest rectilinear obstacle-avoiding point-to-point
//!   routing on an escape (Hanan-like) graph.
//!
//! # Example
//!
//! ```
//! use contango_geom::{Point, Rect, ObstacleSet, Obstacle};
//!
//! let a = Point::new(0.0, 0.0);
//! let b = Point::new(30.0, 40.0);
//! assert_eq!(a.manhattan(b), 70.0);
//!
//! let mut obstacles = ObstacleSet::new();
//! obstacles.push(Obstacle::new(Rect::new(10.0, 10.0, 20.0, 20.0)));
//! assert!(obstacles.contains_point(Point::new(15.0, 15.0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lshape;
mod maze;
mod obstacle;
mod point;
mod rect;
mod segment;
mod spatial;
mod trr;

pub use lshape::{LOrientation, LShape};
pub use maze::{MazeRouter, RoutePath};
pub use obstacle::{CompoundObstacle, Obstacle, ObstacleSet};
pub use point::Point;
pub use rect::Rect;
pub use segment::Segment;
pub use spatial::SpatialIndex;
pub use trr::TiltedRect;

/// Tolerance used for floating-point geometric comparisons, in micrometres.
///
/// Coordinates in this crate are micrometres; one thousandth of a micrometre
/// (a nanometre) is far below any manufacturable feature size, so it is a
/// safe equality tolerance.
pub const GEOM_EPS: f64 = 1e-3;

/// Returns `true` if two lengths/coordinates are equal within [`GEOM_EPS`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= GEOM_EPS
}
