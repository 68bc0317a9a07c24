//! Monte-Carlo process/voltage variation analysis.
//!
//! Section IV-H of the paper motivates buffer sliding, interleaving and
//! sizing by their effect on *robustness to variations*: the CLR metric
//! captures supply-voltage variation, but device and interconnect variation
//! also widen the effective skew. This module quantifies that widening by
//! Monte-Carlo sampling a [`Netlist`]: wire resistance/capacitance, buffer
//! drive resistance and the supply voltage are perturbed around their
//! nominal values and the network is re-evaluated for every sample.
//!
//! The sampler is deterministic (seeded, self-contained xorshift generator)
//! so experiment tables are reproducible without adding a `rand` dependency
//! to the simulation crate.

use crate::evaluator::Evaluator;
use crate::netlist::{Netlist, Stage, StageDriver};
use crate::RcTree;
use contango_tech::Technology;
use serde::{Deserialize, Serialize};

/// Relative (1-sigma) variation magnitudes applied to a netlist.
///
/// All fields are fractional sigmas: `0.05` means a 5% standard deviation of
/// the parameter around its nominal value. Samples are drawn from a normal
/// distribution truncated at ±3σ so a pathological tail cannot produce
/// negative resistances or capacitances.
///
/// The wire form of this type is NOT serde (the workspace vendors a no-op
/// serde stub): manifests carry it through
/// `contango_campaign::manifest` (`variation KEY` text codec) and JSONL /
/// protocol frames through the campaign JSON encoder, both hand-rolled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    /// Sigma of wire resistance per stage.
    pub wire_res_sigma: f64,
    /// Sigma of wire (and pin) capacitance per stage.
    pub wire_cap_sigma: f64,
    /// Sigma of buffer output resistance (device strength) per stage.
    pub buffer_res_sigma: f64,
    /// Sigma of the supply voltage, applied chip-wide per sample, in volts.
    pub vdd_sigma: f64,
    /// Correlation of per-stage samples with a chip-wide (systematic)
    /// component, between 0 (fully independent) and 1 (fully correlated).
    pub spatial_correlation: f64,
}

impl Default for VariationModel {
    fn default() -> Self {
        Self::typical_45nm()
    }
}

impl VariationModel {
    /// A variation model representative of a 45 nm process: 5% interconnect,
    /// 8% device strength, 20 mV supply sigma and 50% systematic component.
    pub fn typical_45nm() -> Self {
        Self {
            wire_res_sigma: 0.05,
            wire_cap_sigma: 0.05,
            buffer_res_sigma: 0.08,
            vdd_sigma: 0.02,
            spatial_correlation: 0.5,
        }
    }

    /// A model with every sigma set to zero (samples reproduce the nominal
    /// network exactly); useful for calibration and tests.
    pub fn none() -> Self {
        Self {
            wire_res_sigma: 0.0,
            wire_cap_sigma: 0.0,
            buffer_res_sigma: 0.0,
            vdd_sigma: 0.0,
            spatial_correlation: 0.0,
        }
    }
}

/// Summary statistics of one metric across Monte-Carlo samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricDistribution {
    /// Mean of the metric.
    pub mean: f64,
    /// Standard deviation of the metric.
    pub std_dev: f64,
    /// Minimum observed value.
    pub min: f64,
    /// Maximum observed value.
    pub max: f64,
    /// 95th-percentile value.
    pub p95: f64,
}

impl MetricDistribution {
    fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "at least one sample is required");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite metrics"));
        let p95_idx = ((0.95 * (sorted.len() as f64 - 1.0)).round() as usize).min(sorted.len() - 1);
        Self {
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: *sorted.last().expect("non-empty"),
            p95: sorted[p95_idx],
        }
    }
}

/// The outcome of a Monte-Carlo variation analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationReport {
    /// Number of Monte-Carlo samples evaluated.
    pub samples: usize,
    /// Distribution of nominal-corner skew across samples, ps.
    pub skew: MetricDistribution,
    /// Distribution of the Clock Latency Range across samples, ps.
    pub clr: MetricDistribution,
    /// Distribution of the maximum sink latency across samples, ps.
    pub max_latency: MetricDistribution,
    /// Fraction of samples whose skew stays below the target passed to
    /// [`monte_carlo`].
    pub skew_yield: f64,
    /// Fraction of samples without slew violations.
    pub slew_yield: f64,
}

impl VariationReport {
    /// The "effective skew": mean plus three standard deviations, the
    /// quantity a designer would sign off against.
    pub fn effective_skew(&self) -> f64 {
        self.skew.mean + 3.0 * self.skew.std_dev
    }
}

/// The metrics of one Monte-Carlo sample: the perturbed network evaluated
/// at both supply corners, reported individually so campaign-level
/// reductions (worst case across samples and corners, Pareto frontiers)
/// can consume the raw per-sample values instead of only the summary
/// statistics of [`VariationReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleMetrics {
    /// Nominal-corner skew of the sample, ps.
    pub skew: f64,
    /// Clock Latency Range of the sample, ps.
    pub clr: f64,
    /// Maximum sink latency of the sample, ps.
    pub max_latency: f64,
    /// Whether any sink slew exceeded the technology limit.
    pub slew_violation: bool,
}

/// Draws `samples` Monte-Carlo networks from `model` and returns the raw
/// per-sample metrics, in draw order.
///
/// This is the sampling loop [`monte_carlo`] summarizes: identical seeds
/// produce identical draws (per sample, the netlist perturbation is drawn
/// first, then the chip-wide supply shift), so the two functions see the
/// very same sample population.
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn monte_carlo_samples(
    evaluator: &Evaluator,
    netlist: &Netlist,
    model: &VariationModel,
    samples: usize,
    seed: u64,
) -> Vec<SampleMetrics> {
    assert!(samples > 0, "at least one Monte-Carlo sample is required");
    let mut rng = XorShift::new(seed);
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let perturbed = perturb_netlist(netlist, model, &mut rng);
        let vdd_shift = truncated_normal(&mut rng) * model.vdd_sigma;
        let tech = shifted_technology(evaluator.technology(), vdd_shift);
        let corner_eval = Evaluator::with_model(tech, evaluator.model());
        let report = corner_eval.evaluate(&perturbed);
        out.push(SampleMetrics {
            skew: report.skew(),
            clr: report.clr(),
            max_latency: report.max_latency(),
            slew_violation: report.has_slew_violation(),
        });
    }
    out
}

/// Runs a Monte-Carlo variation analysis of `netlist`.
///
/// `samples` networks are drawn from `model`, each is evaluated with
/// `evaluator`'s delay model at both supply corners, and the distributions
/// of skew, CLR and insertion delay are summarized. `skew_target_ps` defines
/// the pass/fail threshold for [`VariationReport::skew_yield`].
///
/// # Panics
///
/// Panics if `samples` is zero.
pub fn monte_carlo(
    evaluator: &Evaluator,
    netlist: &Netlist,
    model: &VariationModel,
    samples: usize,
    skew_target_ps: f64,
    seed: u64,
) -> VariationReport {
    let drawn = monte_carlo_samples(evaluator, netlist, model, samples, seed);
    let skews: Vec<f64> = drawn.iter().map(|s| s.skew).collect();
    let clrs: Vec<f64> = drawn.iter().map(|s| s.clr).collect();
    let latencies: Vec<f64> = drawn.iter().map(|s| s.max_latency).collect();
    let skew_pass = drawn.iter().filter(|s| s.skew <= skew_target_ps).count();
    let slew_pass = drawn.iter().filter(|s| !s.slew_violation).count();

    VariationReport {
        samples,
        skew: MetricDistribution::from_samples(&skews),
        clr: MetricDistribution::from_samples(&clrs),
        max_latency: MetricDistribution::from_samples(&latencies),
        skew_yield: skew_pass as f64 / samples as f64,
        slew_yield: slew_pass as f64 / samples as f64,
    }
}

/// Produces one perturbed copy of `netlist`: per stage, wire resistance,
/// wire/pin capacitance and buffer drive resistance are each scaled by a
/// truncated-normal factor mixing the sample's chip-wide systematic
/// component with a per-stage local draw (weighted by
/// [`VariationModel::spatial_correlation`]).
pub fn perturb_netlist(netlist: &Netlist, model: &VariationModel, rng: &mut XorShift) -> Netlist {
    // Chip-wide systematic components shared by every stage of this sample.
    let sys_res = truncated_normal(rng);
    let sys_cap = truncated_normal(rng);
    let sys_buf = truncated_normal(rng);
    let rho = model.spatial_correlation.clamp(0.0, 1.0);
    let mix = |systematic: f64, local: f64| rho * systematic + (1.0 - rho) * local;

    let stages = netlist
        .stages
        .iter()
        .map(|stage| {
            let res_factor = factor(mix(sys_res, truncated_normal(rng)), model.wire_res_sigma);
            let cap_factor = factor(mix(sys_cap, truncated_normal(rng)), model.wire_cap_sigma);
            let buf_factor = factor(mix(sys_buf, truncated_normal(rng)), model.buffer_res_sigma);

            let mut tree = RcTree::new();
            for (idx, (parent, res, cap)) in stage.tree.iter().enumerate() {
                if idx == 0 {
                    tree.add_root(cap * cap_factor);
                } else {
                    tree.add_node(parent, res * res_factor, cap * cap_factor);
                }
            }
            let driver = match stage.driver {
                StageDriver::Source(s) => StageDriver::Source(s),
                StageDriver::Buffer(mut d) => {
                    d.output_res *= buf_factor;
                    StageDriver::Buffer(d)
                }
            };
            Stage {
                driver,
                tree,
                taps: stage.taps.clone(),
            }
        })
        .collect();
    Netlist::new(stages, netlist.root).expect("perturbation preserves netlist structure")
}

/// Converts a standard-normal sample into a multiplicative factor with the
/// given sigma, guaranteed positive.
fn factor(standard_normal: f64, sigma: f64) -> f64 {
    (1.0 + standard_normal * sigma).max(0.05)
}

/// Clones a technology with both supply corners shifted by `delta_v` volts.
pub fn shifted_technology(tech: &Technology, delta_v: f64) -> Technology {
    let mut shifted = tech.clone();
    shifted.nominal_corner.vdd = (shifted.nominal_corner.vdd + delta_v).max(0.4);
    shifted.low_corner.vdd = (shifted.low_corner.vdd + delta_v)
        .max(0.3)
        .min(shifted.nominal_corner.vdd);
    shifted
}

/// Clones a technology with both supply corners scaled by `vdd_factor` —
/// the deterministic (non-sampled) voltage half of a discrete process
/// corner, complementing the sampled shift of [`shifted_technology`].
pub fn scaled_technology(tech: &Technology, vdd_factor: f64) -> Technology {
    let mut scaled = tech.clone();
    scaled.nominal_corner.vdd = (scaled.nominal_corner.vdd * vdd_factor).max(0.4);
    scaled.low_corner.vdd = (scaled.low_corner.vdd * vdd_factor)
        .max(0.3)
        .min(scaled.nominal_corner.vdd);
    scaled
}

/// Clones `netlist` with every wire resistance and buffer drive resistance
/// scaled by `res_factor` and every node capacitance by `cap_factor` — the
/// deterministic interconnect/device half of a discrete process corner
/// (a slow corner scales both up, a fast corner scales both down).
pub fn scaled_netlist(netlist: &Netlist, res_factor: f64, cap_factor: f64) -> Netlist {
    let stages = netlist
        .stages
        .iter()
        .map(|stage| {
            let mut tree = RcTree::new();
            for (idx, (parent, res, cap)) in stage.tree.iter().enumerate() {
                if idx == 0 {
                    tree.add_root(cap * cap_factor);
                } else {
                    tree.add_node(parent, res * res_factor, cap * cap_factor);
                }
            }
            let driver = match stage.driver {
                StageDriver::Source(s) => StageDriver::Source(s),
                StageDriver::Buffer(mut d) => {
                    d.output_res *= res_factor;
                    StageDriver::Buffer(d)
                }
            };
            Stage {
                driver,
                tree,
                taps: stage.taps.clone(),
            }
        })
        .collect();
    Netlist::new(stages, netlist.root).expect("corner scaling preserves netlist structure")
}

/// A sample from the standard normal distribution truncated at ±3σ.
pub fn truncated_normal(rng: &mut XorShift) -> f64 {
    // Box–Muller transform on two uniform samples.
    loop {
        let u1 = rng.next_unit().max(1e-12);
        let u2 = rng.next_unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        if z.abs() <= 3.0 {
            return z;
        }
    }
}

/// A small xorshift64* generator: deterministic, dependency-free and more
/// than adequate for Monte-Carlo perturbation sampling.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// Seeds the generator (a zero seed is mapped to a nonzero state).
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{DriverSpec, SourceSpec};
    use crate::netlist::{Tap, TapKind};
    use crate::DelayModel;

    /// Source stage fanning out to two buffered stages, each with one sink.
    fn test_netlist() -> Netlist {
        let mut root_tree = RcTree::new();
        let r0 = root_tree.add_root(5.0);
        let r1 = root_tree.add_node(r0, 30.0, 10.0);
        let r2 = root_tree.add_node(r0, 35.0, 12.0);
        let root = Stage {
            driver: StageDriver::Source(SourceSpec::ispd09()),
            tree: root_tree,
            taps: vec![
                Tap {
                    node: r1,
                    kind: TapKind::Stage(1),
                },
                Tap {
                    node: r2,
                    kind: TapKind::Stage(2),
                },
            ],
        };
        let leaf = |sink: usize, res: f64| {
            let mut tree = RcTree::new();
            let n0 = tree.add_root(4.0);
            let n1 = tree.add_node(n0, res, 15.0);
            Stage {
                driver: StageDriver::Buffer(DriverSpec {
                    output_res: 55.0,
                    output_cap: 48.8,
                    input_cap: 33.6,
                    intrinsic_delay: 8.0,
                    inverting: true,
                }),
                tree,
                taps: vec![Tap {
                    node: n1,
                    kind: TapKind::Sink(sink),
                }],
            }
        };
        Netlist::new(vec![root, leaf(0, 40.0), leaf(1, 44.0)], 0).expect("valid")
    }

    fn evaluator() -> Evaluator {
        Evaluator::with_model(Technology::ispd09(), DelayModel::TwoPole)
    }

    #[test]
    fn zero_variation_reproduces_the_nominal_metrics() {
        let netlist = test_netlist();
        let eval = evaluator();
        let nominal = eval.evaluate(&netlist);
        let report = monte_carlo(&eval, &netlist, &VariationModel::none(), 8, 100.0, 1);
        assert_eq!(report.samples, 8);
        assert!((report.skew.std_dev).abs() < 1e-9);
        assert!((report.skew.mean - nominal.skew()).abs() < 1e-6);
        assert!((report.clr.mean - nominal.clr()).abs() < 1e-6);
        assert_eq!(report.skew_yield, 1.0);
    }

    #[test]
    fn variation_widens_the_skew_distribution() {
        let netlist = test_netlist();
        let eval = evaluator();
        let tight = monte_carlo(&eval, &netlist, &VariationModel::none(), 16, 1e9, 7);
        let wide = monte_carlo(&eval, &netlist, &VariationModel::typical_45nm(), 64, 1e9, 7);
        assert!(wide.skew.std_dev > tight.skew.std_dev);
        assert!(wide.skew.max >= wide.skew.min);
        assert!(wide.effective_skew() >= wide.skew.mean);
    }

    #[test]
    fn monte_carlo_is_deterministic_in_the_seed() {
        let netlist = test_netlist();
        let eval = evaluator();
        let model = VariationModel::typical_45nm();
        let a = monte_carlo(&eval, &netlist, &model, 32, 50.0, 42);
        let b = monte_carlo(&eval, &netlist, &model, 32, 50.0, 42);
        assert_eq!(a, b);
        let c = monte_carlo(&eval, &netlist, &model, 32, 50.0, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn yields_are_fractions() {
        let netlist = test_netlist();
        let eval = evaluator();
        let report = monte_carlo(&eval, &netlist, &VariationModel::typical_45nm(), 40, 0.0, 3);
        assert!(report.skew_yield >= 0.0 && report.skew_yield <= 1.0);
        assert!(report.slew_yield >= 0.0 && report.slew_yield <= 1.0);
        // A zero-ps skew target is unachievable for a physical network.
        assert_eq!(report.skew_yield, 0.0);
    }

    #[test]
    fn distribution_summary_is_consistent() {
        let d = MetricDistribution::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((d.mean - 3.0).abs() < 1e-12);
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 5.0);
        assert!(d.p95 >= d.mean && d.p95 <= d.max);
        assert!(d.std_dev > 1.0 && d.std_dev < 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one Monte-Carlo sample")]
    fn zero_samples_are_rejected() {
        let netlist = test_netlist();
        let eval = evaluator();
        let _ = monte_carlo(&eval, &netlist, &VariationModel::none(), 0, 10.0, 1);
    }

    #[test]
    fn perturbation_preserves_structure() {
        let netlist = test_netlist();
        let mut rng = XorShift::new(9);
        let perturbed = perturb_netlist(&netlist, &VariationModel::typical_45nm(), &mut rng);
        assert_eq!(perturbed.len(), netlist.len());
        assert_eq!(perturbed.sink_count(), netlist.sink_count());
        for (a, b) in perturbed.stages.iter().zip(&netlist.stages) {
            assert_eq!(a.taps, b.taps);
            assert_eq!(a.tree.len(), b.tree.len());
        }
    }
}
