//! Axis-aligned rectangles.

use crate::Point;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An axis-aligned rectangle in the layout plane, in micrometres.
///
/// Rectangles are stored as the lower-left and upper-right corners and are
/// always normalized so that `lo.x <= hi.x` and `lo.y <= hi.y`.
///
/// ```
/// use contango_geom::{Point, Rect};
/// let r = Rect::new(0.0, 0.0, 10.0, 5.0);
/// assert_eq!(r.width(), 10.0);
/// assert_eq!(r.height(), 5.0);
/// assert!(r.contains(Point::new(3.0, 3.0)));
/// assert!(!r.contains_strict(Point::new(0.0, 3.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Rect {
    /// Lower-left corner.
    pub lo: Point,
    /// Upper-right corner.
    pub hi: Point,
}

impl Rect {
    /// Creates a rectangle from corner coordinates, normalizing the corners.
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Self {
            lo: Point::new(x1.min(x2), y1.min(y2)),
            hi: Point::new(x1.max(x2), y1.max(y2)),
        }
    }

    /// Creates a rectangle from two corner points, normalizing the corners.
    pub fn from_points(a: Point, b: Point) -> Self {
        Self::new(a.x, a.y, b.x, b.y)
    }

    /// Horizontal extent in micrometres.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi.x - self.lo.x
    }

    /// Vertical extent in micrometres.
    #[inline]
    pub fn height(&self) -> f64 {
        self.hi.y - self.lo.y
    }

    /// Area in square micrometres.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Perimeter length in micrometres.
    #[inline]
    pub fn perimeter(&self) -> f64 {
        2.0 * (self.width() + self.height())
    }

    /// Geometric center of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        self.lo.midpoint(self.hi)
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// Returns `true` if `p` lies strictly inside (boundary excluded by
    /// [`crate::GEOM_EPS`]).
    #[inline]
    pub fn contains_strict(&self, p: Point) -> bool {
        p.x > self.lo.x + crate::GEOM_EPS
            && p.x < self.hi.x - crate::GEOM_EPS
            && p.y > self.lo.y + crate::GEOM_EPS
            && p.y < self.hi.y - crate::GEOM_EPS
    }

    /// Returns `true` if the two rectangles share any area or boundary.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// Returns `true` if the rectangles overlap with positive area or abut
    /// (share a boundary segment). Two macros that abut must be treated as a
    /// single compound obstacle because no buffer fits between them.
    #[inline]
    pub fn touches(&self, other: &Rect) -> bool {
        self.lo.x <= other.hi.x + crate::GEOM_EPS
            && other.lo.x <= self.hi.x + crate::GEOM_EPS
            && self.lo.y <= other.hi.y + crate::GEOM_EPS
            && other.lo.y <= self.hi.y + crate::GEOM_EPS
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Intersection of `self` and `other`, or `None` when they do not meet.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            lo: Point::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            hi: Point::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        })
    }

    /// Rectangle grown by `margin` on every side (shrunk for negative
    /// margins; collapses to a degenerate rectangle rather than inverting).
    pub fn inflate(&self, margin: f64) -> Rect {
        let lo = Point::new(self.lo.x - margin, self.lo.y - margin);
        let hi = Point::new(self.hi.x + margin, self.hi.y + margin);
        Rect {
            lo: Point::new(lo.x.min(hi.x), lo.y.min(hi.y)),
            hi: Point::new(lo.x.max(hi.x), lo.y.max(hi.y)),
        }
    }

    /// The four corner points in counter-clockwise order starting at the
    /// lower-left corner.
    pub fn corners(&self) -> [Point; 4] {
        [
            self.lo,
            Point::new(self.hi.x, self.lo.y),
            self.hi,
            Point::new(self.lo.x, self.hi.y),
        ]
    }

    /// Manhattan distance from `p` to the closest point of the rectangle
    /// (zero when `p` is inside).
    pub fn manhattan_distance_to(&self, p: Point) -> f64 {
        let dx = if p.x < self.lo.x {
            self.lo.x - p.x
        } else if p.x > self.hi.x {
            p.x - self.hi.x
        } else {
            0.0
        };
        let dy = if p.y < self.lo.y {
            self.lo.y - p.y
        } else if p.y > self.hi.y {
            p.y - self.hi.y
        } else {
            0.0
        };
        dx + dy
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} – {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(10.0, 8.0, 2.0, 1.0);
        assert_eq!(r.lo, Point::new(2.0, 1.0));
        assert_eq!(r.hi, Point::new(10.0, 8.0));
    }

    #[test]
    fn contains_boundary_and_interior() {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(4.0, 4.0)));
        assert!(r.contains(Point::new(2.0, 2.0)));
        assert!(!r.contains(Point::new(4.1, 2.0)));
        assert!(!r.contains_strict(Point::new(0.0, 2.0)));
        assert!(r.contains_strict(Point::new(2.0, 2.0)));
    }

    #[test]
    fn intersection_and_union() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(2.0, 2.0, 6.0, 6.0);
        let i = a.intersection(&b).expect("rectangles overlap");
        assert_eq!(i, Rect::new(2.0, 2.0, 4.0, 4.0));
        assert_eq!(a.union(&b), Rect::new(0.0, 0.0, 6.0, 6.0));

        let c = Rect::new(10.0, 10.0, 12.0, 12.0);
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn touching_rectangles_abut_but_do_not_overlap_area() {
        let a = Rect::new(0.0, 0.0, 4.0, 4.0);
        let b = Rect::new(4.0, 0.0, 8.0, 4.0);
        assert!(a.touches(&b));
        assert!(a.intersects(&b));
        let i = a.intersection(&b).expect("boundary intersection");
        assert_eq!(i.area(), 0.0);
    }

    #[test]
    fn manhattan_distance_to_point() {
        let r = Rect::new(0.0, 0.0, 4.0, 4.0);
        assert_eq!(r.manhattan_distance_to(Point::new(2.0, 2.0)), 0.0);
        assert_eq!(r.manhattan_distance_to(Point::new(6.0, 2.0)), 2.0);
        assert_eq!(r.manhattan_distance_to(Point::new(6.0, 7.0)), 5.0);
    }

    #[test]
    fn corners_are_counter_clockwise() {
        let r = Rect::new(0.0, 0.0, 2.0, 1.0);
        let c = r.corners();
        assert_eq!(c[0], Point::new(0.0, 0.0));
        assert_eq!(c[1], Point::new(2.0, 0.0));
        assert_eq!(c[2], Point::new(2.0, 1.0));
        assert_eq!(c[3], Point::new(0.0, 1.0));
    }

    #[test]
    fn inflate_grows_every_side() {
        let r = Rect::new(1.0, 1.0, 3.0, 3.0).inflate(0.5);
        assert_eq!(r, Rect::new(0.5, 0.5, 3.5, 3.5));
    }

    #[test]
    fn perimeter_and_area() {
        let r = Rect::new(0.0, 0.0, 3.0, 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.perimeter(), 14.0);
    }
}
