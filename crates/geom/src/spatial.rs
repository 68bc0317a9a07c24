//! Grid-bucket spatial index for nearest-neighbour queries.
//!
//! Clustering-based topology generation (Edahiro-style greedy matching) and
//! the benchmark generators repeatedly ask "which sink is closest to this
//! point?". A uniform grid of buckets answers that in near-constant time for
//! the clustered, roughly uniform point sets that occur in clock-network
//! synthesis, without pulling in a full k-d tree implementation.
//!
//! Two properties matter to the construction engine that drives every
//! greedy-matching pairing round through this index:
//!
//! * [`SpatialIndex::remove`] *physically* deletes the point from its grid
//!   bucket (a swap-remove via a stored per-point bucket position), so
//!   queries late in a pairing round — when almost every point has been
//!   matched — never scan dead entries. With a pure "removed" mask the ring
//!   search degenerates towards a full scan per query and the matching round
//!   towards O(n²).
//! * [`SpatialIndex::rebuild`] re-buckets the index in bulk for a new point
//!   set while reusing every existing allocation, so per-round index
//!   construction costs no heap traffic in steady state.

use crate::{Point, Rect};

/// Marker for "point not bucketed" in the per-point bucket bookkeeping.
const NO_BUCKET: u32 = u32::MAX;

/// A uniform-grid spatial index over a fixed set of points.
///
/// Points are addressed by their index in the slice passed to
/// [`SpatialIndex::new`] (or the latest [`SpatialIndex::rebuild`]). Queries
/// see only points that have not been [`SpatialIndex::remove`]d; removal is
/// physical, so query cost tracks the number of *alive* points.
#[derive(Debug, Clone, Default)]
pub struct SpatialIndex {
    points: Vec<Point>,
    bounds: Rect,
    cells_x: usize,
    cells_y: usize,
    cell_w: f64,
    cell_h: f64,
    buckets: Vec<Vec<usize>>,
    /// Bucket index of every point (`NO_BUCKET` once removed).
    point_bucket: Vec<u32>,
    /// Position of every point inside its bucket (kept in sync by
    /// swap-removal).
    point_pos: Vec<u32>,
    /// Compact list of alive point indices (swap-removed in step with the
    /// buckets), so drained index states can be scanned directly instead of
    /// ring-walking a nearly empty grid.
    alive_list: Vec<usize>,
    /// Position of every alive point in `alive_list`.
    list_pos: Vec<u32>,
    alive: Vec<bool>,
    alive_count: usize,
}

/// Below this many alive points, `nearest` scans the alive list directly:
/// cheaper than expanding rings across a sparse grid, with identical
/// results.
const BRUTE_FORCE_THRESHOLD: usize = 48;

impl SpatialIndex {
    /// Builds an index over `points`.
    ///
    /// The grid resolution is chosen so each bucket holds a handful of
    /// points on average.
    pub fn new(points: &[Point]) -> Self {
        let mut index = Self::default();
        index.rebuild(points);
        index
    }

    /// Re-buckets the index over a new point set in bulk, reusing the
    /// existing bucket allocations.
    ///
    /// Equivalent to `*self = SpatialIndex::new(points)` but without
    /// discarding the grid's heap storage; the greedy-matching engine calls
    /// this once per pairing round.
    pub fn rebuild(&mut self, points: &[Point]) {
        let n = points.len();
        let bounds = bounding_box(points);
        // Aim for ~2 points per bucket with *square* cells: proportioning
        // the grid to the bounding-box aspect ratio keeps nearest-neighbour
        // ring searches cheap on elongated point sets (register-bank rows),
        // where a square cell *count* would produce needle-shaped cells and
        // force queries through the whole grid.
        let target_cells = (n.max(1) as f64 / 2.0).max(1.0);
        // Clamping the aspect keeps degenerate (near-1-D) point sets from
        // exploding the cell count along the long axis.
        let aspect = (bounds.width() / bounds.height()).clamp(1.0 / 32.0, 32.0);
        let cells_x = ((target_cells * aspect).sqrt().ceil() as usize).max(1);
        let cells_y = ((target_cells / cells_x as f64).ceil() as usize).max(1);

        self.points.clear();
        self.points.extend_from_slice(points);
        self.bounds = bounds;
        self.cells_x = cells_x;
        self.cells_y = cells_y;
        self.cell_w = (bounds.width() / cells_x as f64).max(1e-9);
        self.cell_h = (bounds.height() / cells_y as f64).max(1e-9);

        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.buckets.resize(cells_x * cells_y, Vec::new());
        self.point_bucket.clear();
        self.point_bucket.resize(n, NO_BUCKET);
        self.point_pos.clear();
        self.point_pos.resize(n, 0);
        self.alive_list.clear();
        self.alive_list.extend(0..n);
        self.list_pos.clear();
        self.list_pos.extend(0..n as u32);
        self.alive.clear();
        self.alive.resize(n, true);
        self.alive_count = n;

        for (i, &p) in points.iter().enumerate() {
            let b = self.bucket_of(p);
            self.point_bucket[i] = b as u32;
            self.point_pos[i] = self.buckets[b].len() as u32;
            self.buckets[b].push(i);
        }
    }

    /// Number of points still alive (not removed).
    pub fn len(&self) -> usize {
        self.alive_count
    }

    /// Returns `true` if every point has been removed (or none was added).
    pub fn is_empty(&self) -> bool {
        self.alive_count == 0
    }

    /// The coordinates of point `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn point(&self, index: usize) -> Point {
        self.points[index]
    }

    /// Returns `true` if point `index` has not been removed.
    pub fn is_alive(&self, index: usize) -> bool {
        self.alive.get(index).copied().unwrap_or(false)
    }

    /// Removes a point from future queries.
    ///
    /// The point is physically deleted from its grid bucket (an O(1)
    /// swap-remove), so subsequent queries never revisit it. Removing an
    /// already-removed point is a no-op.
    pub fn remove(&mut self, index: usize) {
        if index < self.alive.len() && self.alive[index] {
            self.alive[index] = false;
            self.alive_count -= 1;
            let b = self.point_bucket[index] as usize;
            let pos = self.point_pos[index] as usize;
            let bucket = &mut self.buckets[b];
            bucket.swap_remove(pos);
            if let Some(&moved) = bucket.get(pos) {
                self.point_pos[moved] = pos as u32;
            }
            self.point_bucket[index] = NO_BUCKET;
            let lp = self.list_pos[index] as usize;
            self.alive_list.swap_remove(lp);
            if let Some(&moved) = self.alive_list.get(lp) {
                self.list_pos[moved] = lp as u32;
            }
        }
    }

    /// The nearest alive point to `query` (by Manhattan distance), excluding
    /// `exclude`, or `None` when no such point exists.
    pub fn nearest(&self, query: Point, exclude: Option<usize>) -> Option<usize> {
        if self.alive_count == 0 {
            return None;
        }
        // Drained index: scan the compact alive list directly. Selection is
        // by (distance, index), so the result is identical to the grid walk.
        if self.alive_count <= BRUTE_FORCE_THRESHOLD {
            let mut best: Option<(f64, usize)> = None;
            for &i in &self.alive_list {
                if Some(i) == exclude {
                    continue;
                }
                let d = self.points[i].manhattan(query);
                if best.is_none_or(|(bd, bi)| d < bd || (d == bd && i < bi)) {
                    best = Some((d, i));
                }
            }
            return best.map(|(_, i)| i);
        }
        let (qx, qy) = self.cell_coords(query);
        // Rings beyond the furthest grid edge contain no cells at all.
        let max_ring = (qx.max(self.cells_x - 1 - qx)).max(qy.max(self.cells_y - 1 - qy));
        let mut best: Option<(f64, usize)> = None;
        for ring in 0..=max_ring {
            // Once a candidate is known, stop after the first ring whose
            // closest possible distance exceeds the candidate.
            if let Some((dist, _)) = best {
                let ring_min = (ring.saturating_sub(1)) as f64 * self.cell_w.min(self.cell_h);
                if ring_min > dist {
                    break;
                }
            }
            let r = ring as isize;
            let (qx, qy) = (qx as isize, qy as isize);
            if r == 0 {
                self.scan_bucket(qx as usize, qy as usize, query, exclude, &mut best);
                continue;
            }
            // Top and bottom rows of the ring, clipped to the grid …
            let x0 = (qx - r).max(0) as usize;
            let x1 = (qx + r).min(self.cells_x as isize - 1) as usize;
            if qy - r >= 0 {
                let cy = (qy - r) as usize;
                for cx in x0..=x1 {
                    self.scan_bucket(cx, cy, query, exclude, &mut best);
                }
            }
            if qy + r < self.cells_y as isize {
                let cy = (qy + r) as usize;
                for cx in x0..=x1 {
                    self.scan_bucket(cx, cy, query, exclude, &mut best);
                }
            }
            // … and the two side columns, excluding the corners already
            // visited.
            let y0 = (qy - r + 1).max(0) as usize;
            let y1 = (qy + r - 1).min(self.cells_y as isize - 1) as usize;
            if qx - r >= 0 {
                let cx = (qx - r) as usize;
                for cy in y0..=y1 {
                    self.scan_bucket(cx, cy, query, exclude, &mut best);
                }
            }
            if qx + r < self.cells_x as isize {
                let cx = (qx + r) as usize;
                for cy in y0..=y1 {
                    self.scan_bucket(cx, cy, query, exclude, &mut best);
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// Scans one grid bucket for the nearest-candidate update.
    #[inline]
    fn scan_bucket(
        &self,
        cx: usize,
        cy: usize,
        query: Point,
        exclude: Option<usize>,
        best: &mut Option<(f64, usize)>,
    ) {
        for &i in &self.buckets[cy * self.cells_x + cx] {
            if Some(i) == exclude {
                continue;
            }
            let d = self.points[i].manhattan(query);
            if best.is_none_or(|(bd, bi)| d < bd || (d == bd && i < bi)) {
                *best = Some((d, i));
            }
        }
    }

    fn bucket_of(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.cells_x + cx
    }

    fn cell_coords(&self, p: Point) -> (usize, usize) {
        let cx = ((p.x - self.bounds.lo.x) / self.cell_w).floor() as isize;
        let cy = ((p.y - self.bounds.lo.y) / self.cell_h).floor() as isize;
        (
            cx.clamp(0, self.cells_x as isize - 1) as usize,
            cy.clamp(0, self.cells_y as isize - 1) as usize,
        )
    }
}

/// Bounding box of a point set (a unit square at the origin when empty, so
/// the grid always has positive extent).
fn bounding_box(points: &[Point]) -> Rect {
    if points.is_empty() {
        return Rect::new(0.0, 0.0, 1.0, 1.0);
    }
    let mut r = Rect::new(points[0].x, points[0].y, points[0].x, points[0].y);
    for p in points {
        r = r.union(&Rect::new(p.x, p.y, p.x, p.y));
    }
    // Avoid degenerate zero-width grids for collinear point sets.
    Rect::new(
        r.lo.x,
        r.lo.y,
        r.hi.x.max(r.lo.x + 1.0),
        r.hi.y.max(r.lo.y + 1.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize, pitch: f64) -> Vec<Point> {
        let side = (n as f64).sqrt().ceil() as usize;
        (0..n)
            .map(|i| Point::new((i % side) as f64 * pitch, (i / side) as f64 * pitch))
            .collect()
    }

    #[test]
    fn nearest_matches_brute_force() {
        let points = grid_points(60, 13.0);
        let index = SpatialIndex::new(&points);
        let queries = [
            Point::new(0.0, 0.0),
            Point::new(37.0, 52.0),
            Point::new(91.0, 10.0),
            Point::new(200.0, 200.0),
        ];
        for q in queries {
            let brute = points
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    a.manhattan(q).partial_cmp(&b.manhattan(q)).expect("finite")
                })
                .map(|(i, _)| points[i].manhattan(q))
                .expect("non-empty");
            let got = index.nearest(q, None).expect("found");
            assert!(
                (points[got].manhattan(q) - brute).abs() < 1e-9,
                "query {q:?}: got distance {} expected {}",
                points[got].manhattan(q),
                brute
            );
        }
    }

    #[test]
    fn exclusion_and_removal_are_honoured() {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(10.0, 0.0),
        ];
        let mut index = SpatialIndex::new(&points);
        assert_eq!(index.nearest(Point::new(0.1, 0.0), Some(0)), Some(1));
        index.remove(1);
        assert_eq!(index.nearest(Point::new(0.1, 0.0), Some(0)), Some(2));
        index.remove(1);
        assert_eq!(index.len(), 2);
        index.remove(0);
        index.remove(2);
        assert!(index.is_empty());
        assert_eq!(index.nearest(Point::new(0.0, 0.0), None), None);
    }

    #[test]
    fn rebuild_reuses_the_index_like_a_fresh_one() {
        let a = grid_points(70, 9.0);
        let mut b = grid_points(31, 17.0);
        b.push(Point::new(-40.0, 333.0));
        let mut reused = SpatialIndex::new(&a);
        reused.remove(3);
        reused.remove(40);
        reused.rebuild(&b);
        let fresh = SpatialIndex::new(&b);
        assert_eq!(reused.len(), fresh.len());
        for q in [
            Point::new(0.0, 0.0),
            Point::new(100.0, 40.0),
            Point::new(-39.0, 330.0),
        ] {
            assert_eq!(reused.nearest(q, None), fresh.nearest(q, None));
        }
        // Removed state from before the rebuild must not leak through.
        assert!(reused.is_alive(3));
    }

    #[test]
    fn drained_index_stays_exact() {
        // Physical removal + the brute-force fallback: queries against a
        // nearly drained index must still return the exact nearest point.
        let points = grid_points(120, 11.0);
        let mut index = SpatialIndex::new(&points);
        let mut alive: Vec<usize> = (0..points.len()).collect();
        // Drain in an interleaved order, checking after every removal.
        for step in 0..points.len() - 1 {
            let victim = alive.remove((step * 7) % alive.len());
            index.remove(victim);
            let q = Point::new(37.0 + step as f64, 59.0);
            let brute = alive
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    points[a]
                        .manhattan(q)
                        .partial_cmp(&points[b].manhattan(q))
                        .expect("finite")
                        .then(a.cmp(&b))
                })
                .expect("non-empty");
            let got = index.nearest(q, None).expect("found");
            assert_eq!(
                points[got].manhattan(q),
                points[brute].manhattan(q),
                "step {step}"
            );
        }
    }

    #[test]
    fn elongated_point_sets_keep_square_cells() {
        // A single row of points: the clamped-aspect grid must still answer
        // nearest queries exactly at both ends.
        let points: Vec<Point> = (0..400).map(|i| Point::new(25.0 * i as f64, 5.0)).collect();
        let mut index = SpatialIndex::new(&points);
        assert_eq!(index.nearest(Point::new(-10.0, 5.0), None), Some(0));
        assert_eq!(index.nearest(Point::new(9990.0, 5.0), None), Some(399));
        index.remove(0);
        assert_eq!(index.nearest(Point::new(-10.0, 5.0), None), Some(1));
    }

    #[test]
    fn single_point_and_empty_sets() {
        let index = SpatialIndex::new(&[Point::new(5.0, 5.0)]);
        assert_eq!(index.nearest(Point::new(0.0, 0.0), None), Some(0));
        assert_eq!(index.nearest(Point::new(0.0, 0.0), Some(0)), None);
        let empty = SpatialIndex::new(&[]);
        assert!(empty.is_empty());
        assert_eq!(empty.nearest(Point::new(0.0, 0.0), None), None);
    }

    #[test]
    fn clustered_points_still_resolve() {
        let mut points = Vec::new();
        for i in 0..50 {
            points.push(Point::new(1000.0 + (i % 5) as f64, 2000.0 + (i / 5) as f64));
        }
        points.push(Point::new(0.0, 0.0));
        let index = SpatialIndex::new(&points);
        assert_eq!(index.nearest(Point::new(1.0, 1.0), None), Some(50));
        let far = index
            .nearest(Point::new(1002.0, 2003.0), None)
            .expect("hit");
        assert!(points[far].manhattan(Point::new(1002.0, 2003.0)) <= 1.0);
    }
}
