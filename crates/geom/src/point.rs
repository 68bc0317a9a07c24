//! Planar points with Manhattan metrics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point in the layout plane, in micrometres.
///
/// Clock-network geometry in this crate is rectilinear, so the natural
/// distance between points is the Manhattan (L1) distance returned by
/// [`Point::manhattan`].
///
/// ```
/// use contango_geom::Point;
/// let p = Point::new(1.0, 2.0);
/// let q = Point::new(4.0, 6.0);
/// assert_eq!(p.manhattan(q), 7.0);
/// assert_eq!(p.midpoint(q), Point::new(2.5, 4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate in micrometres.
    pub x: f64,
    /// Vertical coordinate in micrometres.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates (micrometres).
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    #[inline]
    pub fn origin() -> Self {
        Self { x: 0.0, y: 0.0 }
    }

    /// Manhattan (L1) distance to `other`, in micrometres.
    #[inline]
    pub fn manhattan(self, other: Point) -> f64 {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }

    /// Midpoint of the segment between `self` and `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Returns `true` when both coordinates match within [`crate::GEOM_EPS`].
    #[inline]
    pub fn approx_eq(self, other: Point) -> bool {
        crate::approx_eq(self.x, other.x) && crate::approx_eq(self.y, other.y)
    }

    /// Rotated coordinate `u = x + y` used for Manhattan-arc computations.
    #[inline]
    pub fn u(self) -> f64 {
        self.x + self.y
    }

    /// Rotated coordinate `v = x - y` used for Manhattan-arc computations.
    #[inline]
    pub fn v(self) -> f64 {
        self.x - self.y
    }

    /// Reconstructs a point from rotated coordinates `(u, v)`.
    #[inline]
    pub fn from_uv(u: f64, v: f64) -> Point {
        Point::new((u + v) * 0.5, (u - v) * 0.5)
    }

    /// Linear interpolation: returns `self + t * (other - self)`.
    ///
    /// `t = 0` yields `self`, `t = 1` yields `other`; values outside `[0, 1]`
    /// extrapolate.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance_is_symmetric() {
        let p = Point::new(3.0, -2.0);
        let q = Point::new(-1.0, 5.0);
        assert_eq!(p.manhattan(q), q.manhattan(p));
        assert_eq!(p.manhattan(q), 11.0);
    }

    #[test]
    fn manhattan_distance_to_self_is_zero() {
        let p = Point::new(12.5, 7.25);
        assert_eq!(p.manhattan(p), 0.0);
    }

    #[test]
    fn midpoint_is_halfway() {
        let p = Point::new(0.0, 0.0);
        let q = Point::new(10.0, 4.0);
        let m = p.midpoint(q);
        assert!(crate::approx_eq(m.manhattan(p), m.manhattan(q)));
    }

    #[test]
    fn rotated_coordinates_round_trip() {
        let p = Point::new(3.25, -8.5);
        let back = Point::from_uv(p.u(), p.v());
        assert!(p.approx_eq(back));
    }

    #[test]
    fn lerp_endpoints() {
        let p = Point::new(1.0, 1.0);
        let q = Point::new(5.0, 9.0);
        assert!(p.lerp(q, 0.0).approx_eq(p));
        assert!(p.lerp(q, 1.0).approx_eq(q));
        assert!(p.lerp(q, 0.5).approx_eq(p.midpoint(q)));
    }

    #[test]
    fn display_formats_coordinates() {
        let p = Point::new(1.0, 2.0);
        assert_eq!(format!("{p}"), "(1.000, 2.000)");
    }

    #[test]
    fn from_tuple() {
        let p: Point = (2.0, 3.0).into();
        assert_eq!(p, Point::new(2.0, 3.0));
    }
}
