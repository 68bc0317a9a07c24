//! Delay-model selection and closed-form (Elmore) stage timing.

use crate::driver::{SLEW_DELAY_SENSITIVITY, SLEW_PROPAGATION};
use crate::evaluator::RelTiming;
use contango_tech::units;
use serde::{Deserialize, Serialize};

/// The delay model used when evaluating a clock network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DelayModel {
    /// First-moment (Elmore) delay with single-pole slew. Fast and
    /// pessimistic; used during initial tree construction and buffering.
    Elmore,
    /// Backward-Euler transient simulation of every stage ("SPICE-accurate"
    /// in this reproduction). The default for optimization loops.
    #[default]
    Transient,
}

/// Computes the Elmore timing of one tap of a stage: the delay from the
/// driver's input switching to the tap crossing 50%, and the 10%–90%
/// output slew at the tap.
///
/// * `m1` — Elmore delay (first moment) at the tap for the stage's RC tree
///   driven through the corner-derated driver resistance.
/// * `gate_intrinsic` — corner-derated intrinsic delay of the driver.
/// * `input_slew` — 10–90% slew of the transition at the driver input.
pub(crate) fn elmore_tap_timing(m1: f64, gate_intrinsic: f64, input_slew: f64) -> RelTiming {
    let network_delay = units::DELAY_LN2 * m1;
    let step_slew = units::SLEW_LN9 * m1;
    let gate_delay = gate_intrinsic + SLEW_DELAY_SENSITIVITY * input_slew;
    let slew = (step_slew * step_slew + (SLEW_PROPAGATION * input_slew).powi(2)).sqrt();
    RelTiming {
        delay: gate_delay + network_delay,
        slew,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_transient() {
        assert_eq!(DelayModel::default(), DelayModel::Transient);
    }

    #[test]
    fn elmore_timing_scales_with_first_moment() {
        let a = elmore_tap_timing(10.0, 5.0, 20.0);
        let b = elmore_tap_timing(20.0, 5.0, 20.0);
        assert!(b.delay > a.delay);
        assert!(b.slew > a.slew);
    }

    #[test]
    fn input_slew_increases_delay_and_output_slew() {
        let clean = elmore_tap_timing(10.0, 5.0, 0.0);
        let slow = elmore_tap_timing(10.0, 5.0, 80.0);
        assert!(slow.delay > clean.delay);
        assert!(slow.slew > clean.slew);
    }

    #[test]
    fn step_input_matches_ln_constants() {
        let m1 = 10.0;
        let t = elmore_tap_timing(m1, 0.0, 0.0);
        assert!((t.delay - units::DELAY_LN2 * m1).abs() < 1e-9);
        assert!((t.slew - units::SLEW_LN9 * m1).abs() < 1e-9);
    }
}
