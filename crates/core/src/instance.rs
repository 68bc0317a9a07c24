//! Clock-network synthesis problem instances.
//!
//! An instance corresponds to one ISPD'09-style benchmark: a die outline,
//! the clock source location and drive, the clock sinks with their pin
//! capacitances, the placement obstacles (macros) and the total capacitance
//! budget.

use crate::error::InstanceError;
use contango_geom::{ObstacleSet, Point, Rect};
use contango_sim::SourceSpec;
use serde::{Deserialize, Serialize};

/// One clock sink: a flip-flop clock pin to be driven by the network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SinkSpec {
    /// Sink identifier, contiguous from zero within an instance.
    pub id: usize,
    /// Pin location in micrometres.
    pub location: Point,
    /// Pin capacitance in fF.
    pub cap: f64,
}

/// A clock-network synthesis instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClockNetInstance {
    /// Instance name (benchmark name).
    pub name: String,
    /// Die outline in micrometres.
    pub die: Rect,
    /// Clock source (root driver) location, typically on the die boundary.
    pub source: Point,
    /// Electrical description of the clock source.
    pub source_spec: SourceSpec,
    /// The clock sinks.
    pub sinks: Vec<SinkSpec>,
    /// Placement obstacles (macros): routing over them is allowed, buffer
    /// placement on them is not.
    pub obstacles: ObstacleSet,
    /// Total capacitance budget for the synthesized network, in fF.
    pub cap_limit: f64,
}

impl ClockNetInstance {
    /// Starts building an instance with the given name.
    pub fn builder(name: &str) -> ClockNetInstanceBuilder {
        ClockNetInstanceBuilder::new(name)
    }

    /// Number of sinks.
    pub fn sink_count(&self) -> usize {
        self.sinks.len()
    }

    /// Sum of all sink pin capacitances, in fF.
    pub fn total_sink_cap(&self) -> f64 {
        self.sinks.iter().map(|s| s.cap).sum()
    }

    /// Bounding box of the sink locations.
    pub fn sink_bounding_box(&self) -> Option<Rect> {
        let mut iter = self.sinks.iter();
        let first = iter.next()?;
        let mut bb = Rect::from_points(first.location, first.location);
        for s in iter {
            bb = bb.union(&Rect::from_points(s.location, s.location));
        }
        Some(bb)
    }

    /// Validates the instance.
    ///
    /// # Errors
    ///
    /// Returns the first problem found: no sinks, a capacitance limit that
    /// is not a positive finite number, a non-finite source location,
    /// non-contiguous sink ids, sink capacitances that are not positive
    /// finite numbers or sinks outside the die.
    pub fn validate(&self) -> Result<(), InstanceError> {
        if self.sinks.is_empty() {
            return Err(InstanceError::NoSinks);
        }
        if !(self.cap_limit.is_finite() && self.cap_limit > 0.0) {
            return Err(InstanceError::NonPositiveCapLimit);
        }
        if !(self.source.x.is_finite() && self.source.y.is_finite()) {
            return Err(InstanceError::NonFiniteSource);
        }
        for (i, sink) in self.sinks.iter().enumerate() {
            if sink.id != i {
                return Err(InstanceError::NonContiguousSinkIds {
                    found: sink.id,
                    index: i,
                });
            }
            if !(sink.cap.is_finite() && sink.cap > 0.0) {
                return Err(InstanceError::NonPositiveSinkCap { sink: i });
            }
            if !self.die.contains(sink.location) {
                return Err(InstanceError::SinkOutsideDie { sink: i });
            }
        }
        Ok(())
    }
}

/// Builder for [`ClockNetInstance`].
#[derive(Debug, Clone)]
pub struct ClockNetInstanceBuilder {
    name: String,
    die: Rect,
    source: Option<Point>,
    source_spec: SourceSpec,
    sinks: Vec<SinkSpec>,
    obstacles: Vec<Rect>,
    cap_limit: f64,
}

impl ClockNetInstanceBuilder {
    /// Creates a builder for an instance with the given name.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            die: Rect::new(0.0, 0.0, 1000.0, 1000.0),
            source: None,
            source_spec: SourceSpec::ispd09(),
            sinks: Vec::new(),
            obstacles: Vec::new(),
            cap_limit: 1.0e9,
        }
    }

    /// Sets the die outline.
    pub fn die(mut self, x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        self.die = Rect::new(x1, y1, x2, y2);
        self
    }

    /// Sets the clock source location.
    pub fn source(mut self, location: Point) -> Self {
        self.source = Some(location);
        self
    }

    /// Sets the electrical description of the clock source.
    pub fn source_spec(mut self, spec: SourceSpec) -> Self {
        self.source_spec = spec;
        self
    }

    /// Adds a sink at `location` with pin capacitance `cap` (fF).
    pub fn sink(mut self, location: Point, cap: f64) -> Self {
        let id = self.sinks.len();
        self.sinks.push(SinkSpec { id, location, cap });
        self
    }

    /// Adds a rectangular obstacle.
    pub fn obstacle(mut self, rect: Rect) -> Self {
        self.obstacles.push(rect);
        self
    }

    /// Sets the total capacitance budget in fF.
    pub fn cap_limit(mut self, cap_limit: f64) -> Self {
        self.cap_limit = cap_limit;
        self
    }

    /// Builds and validates the instance.
    ///
    /// # Errors
    ///
    /// Propagates [`ClockNetInstance::validate`] errors; the source defaults
    /// to the middle of the die's left edge when not set.
    pub fn build(self) -> Result<ClockNetInstance, InstanceError> {
        let source = self
            .source
            .unwrap_or_else(|| Point::new(self.die.lo.x, 0.5 * (self.die.lo.y + self.die.hi.y)));
        let obstacles: ObstacleSet = self.obstacles.into_iter().collect();
        let instance = ClockNetInstance {
            name: self.name,
            die: self.die,
            source,
            source_spec: self.source_spec,
            sinks: self.sinks,
            obstacles,
            cap_limit: self.cap_limit,
        };
        instance.validate()?;
        Ok(instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> ClockNetInstanceBuilder {
        ClockNetInstance::builder("test")
            .die(0.0, 0.0, 100.0, 100.0)
            .sink(Point::new(10.0, 10.0), 5.0)
            .sink(Point::new(90.0, 90.0), 5.0)
            .cap_limit(1000.0)
    }

    #[test]
    fn builder_produces_valid_instance() {
        let inst = builder().build().expect("valid");
        assert_eq!(inst.sink_count(), 2);
        assert_eq!(inst.total_sink_cap(), 10.0);
        assert_eq!(inst.source, Point::new(0.0, 50.0));
        let bb = inst.sink_bounding_box().expect("sinks exist");
        assert_eq!(bb, Rect::new(10.0, 10.0, 90.0, 90.0));
    }

    #[test]
    fn empty_instance_rejected() {
        let err = ClockNetInstance::builder("empty")
            .cap_limit(10.0)
            .build()
            .unwrap_err();
        assert_eq!(err, InstanceError::NoSinks);
    }

    #[test]
    fn sink_outside_die_rejected() {
        let err = builder()
            .sink(Point::new(500.0, 500.0), 5.0)
            .build()
            .unwrap_err();
        assert_eq!(err, InstanceError::SinkOutsideDie { sink: 2 });
    }

    #[test]
    fn non_positive_cap_limit_rejected() {
        let err = builder().cap_limit(0.0).build().unwrap_err();
        assert_eq!(err, InstanceError::NonPositiveCapLimit);
    }

    #[test]
    fn non_finite_numbers_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for source in [Point::new(bad, 50.0), Point::new(0.0, bad)] {
                let err = builder().source(source).build().unwrap_err();
                assert_eq!(err, InstanceError::NonFiniteSource, "{source:?}");
            }
            let err = builder()
                .sink(Point::new(50.0, 50.0), bad)
                .build()
                .unwrap_err();
            assert_eq!(err, InstanceError::NonPositiveSinkCap { sink: 2 }, "{bad}");
            let err = builder().cap_limit(bad).build().unwrap_err();
            assert_eq!(err, InstanceError::NonPositiveCapLimit, "{bad}");
        }
    }

    #[test]
    fn obstacles_are_grouped() {
        let inst = builder()
            .obstacle(Rect::new(20.0, 20.0, 40.0, 40.0))
            .obstacle(Rect::new(40.0, 20.0, 60.0, 40.0))
            .build()
            .expect("valid");
        assert_eq!(inst.obstacles.len(), 2);
        assert_eq!(inst.obstacles.compounds().len(), 1);
    }
}
