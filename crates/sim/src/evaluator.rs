//! Multi-corner clock-network evaluation.
//!
//! The evaluator plays the role of the SPICE runs in the paper's flow
//! (Figure 1, "Clock-Network Evaluation"): it propagates rising and falling
//! transitions from the clock source through every buffered stage and
//! reports per-sink latencies and slews at both supply corners, from which
//! skew, Clock Latency Range and slew violations are derived.

use crate::driver::DriverSpec;
use crate::models::{elmore_tap_timing, DelayModel};
use crate::netlist::{Netlist, StageDriver, TapKind};
use crate::report::{CornerReport, EvalReport, SinkTiming, TransitionTiming};
use crate::transient::{solve_lanes, Lane};
use contango_tech::Technology;
use std::cell::Cell;

/// State of one transition edge arriving at a stage's driver input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EdgeState {
    /// Arrival time relative to the corresponding source edge, in ps.
    pub(crate) arrival: f64,
    /// 10%–90% slew of the transition, in ps.
    pub(crate) slew: f64,
}

/// Rising and falling edge state at one point of the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NodeState {
    pub(crate) rise: EdgeState,
    pub(crate) fall: EdgeState,
}

/// Timing of one output transition at one tap, relative to the arrival of
/// the causing input edge. Adding the input arrival yields the absolute
/// arrival, so these are the cacheable per-stage quantities: they depend on
/// the stage content, the supply corner, the transition direction and the
/// input slew — but not on when the input edge arrives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RelTiming {
    /// Stage delay (gate delay plus network delay), in ps.
    pub(crate) delay: f64,
    /// 10%–90% output slew at the tap, in ps.
    pub(crate) slew: f64,
}

/// One transition solve a stage visit asks for: supply corner, output
/// direction and input slew. Floats are held by bit pattern, so the request
/// doubles as the key of the incremental evaluator's solve cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct SolveKey {
    pub(crate) vdd: u64,
    pub(crate) rising: bool,
    pub(crate) input_slew: u64,
}

impl SolveKey {
    fn new(vdd: f64, rising: bool, input_slew: f64) -> Self {
        Self {
            vdd: vdd.to_bits(),
            rising,
            input_slew: input_slew.to_bits(),
        }
    }
}

/// The four transition solves of one stage visit, in the order nominal
/// rise, nominal fall, low rise, low fall: for each, the input edge that
/// causes it and its solve key. `vdds` and `input` are indexed by corner,
/// nominal first.
pub(crate) fn stage_requests(
    vdds: [f64; 2],
    input: &[NodeState; 2],
    inverting: bool,
) -> [(EdgeState, SolveKey); 4] {
    std::array::from_fn(|k| {
        let (corner, rising) = (k / 2, k % 2 == 0);
        // Output rising edge is caused by the input falling edge for an
        // inverter, by the input rising edge otherwise; and vice versa.
        let state = input[corner];
        let cause = if rising != inverting {
            state.rise
        } else {
            state.fall
        };
        (cause, SolveKey::new(vdds[corner], rising, cause.slew))
    })
}

/// The edge states at tap `tap` for both corners, from the causing edges
/// and the relative timings of a stage's four solves (in
/// [`stage_requests`] order).
pub(crate) fn tap_states<R: AsRef<[RelTiming]>>(
    requests: &[(EdgeState, SolveKey); 4],
    rel: &[R],
    tap: usize,
) -> [NodeState; 2] {
    let edge = |k: usize| {
        let t = rel[k].as_ref()[tap];
        EdgeState {
            arrival: requests[k].0.arrival + t.delay,
            slew: t.slew,
        }
    };
    [0, 1].map(|corner| NodeState {
        rise: edge(2 * corner),
        fall: edge(2 * corner + 1),
    })
}

/// Folds one tap's edge states into both corner reports: the worst slew,
/// and the sink's timing when the tap is sink `sink`.
pub(crate) fn record_tap(
    corners: &mut [CornerReport; 2],
    states: &[NodeState; 2],
    sink: Option<usize>,
) {
    for (corner, state) in corners.iter_mut().zip(states) {
        corner.max_slew = corner.max_slew.max(state.rise.slew).max(state.fall.slew);
        if let Some(id) = sink {
            corner.sinks.push(SinkTiming {
                sink_id: id,
                rise: TransitionTiming {
                    latency: state.rise.arrival,
                    slew: state.rise.slew,
                },
                fall: TransitionTiming {
                    latency: state.fall.arrival,
                    slew: state.fall.slew,
                },
            });
        }
    }
}

/// The clock-network evaluator ("circuit simulation tool" of the paper).
///
/// The evaluator counts how many times [`Evaluator::evaluate`] has been
/// called; the flow reports this as the number of SPICE runs (Table V of the
/// paper counts the same quantity).
#[derive(Debug, Clone)]
pub struct Evaluator {
    tech: Technology,
    model: DelayModel,
    runs: Cell<usize>,
}

impl Evaluator {
    /// Creates an evaluator with the default (transient) delay model.
    pub fn new(tech: Technology) -> Self {
        Self::with_model(tech, DelayModel::Transient)
    }

    /// Creates an evaluator using a specific delay model.
    pub fn with_model(tech: Technology, model: DelayModel) -> Self {
        Self {
            tech,
            model,
            runs: Cell::new(0),
        }
    }

    /// The technology this evaluator uses.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The delay model in use.
    pub fn model(&self) -> DelayModel {
        self.model
    }

    /// Number of evaluations performed so far (the "SPICE run" count).
    pub fn runs(&self) -> usize {
        self.runs.get()
    }

    /// Resets the evaluation counter.
    pub fn reset_runs(&self) {
        self.runs.set(0);
    }

    /// Counts one "SPICE run" (used by the incremental evaluator, whose
    /// evaluations must share this counter).
    pub(crate) fn count_run(&self) {
        self.runs.set(self.runs.get() + 1);
    }

    /// Evaluates the netlist at both supply corners, in one walk of the
    /// stages.
    pub fn evaluate(&self, netlist: &Netlist) -> EvalReport {
        self.count_run();
        let vdds = [self.tech.nominal_corner.vdd, self.tech.low_corner.vdd];
        let source = EdgeState {
            arrival: 0.0,
            slew: source_slew(netlist),
        };
        let mut inputs: Vec<Option<[NodeState; 2]>> = vec![None; netlist.len()];
        inputs[netlist.root] = Some(
            [NodeState {
                rise: source,
                fall: source,
            }; 2],
        );
        let mut corners = vdds.map(|vdd| CornerReport {
            vdd,
            sinks: Vec::new(),
            max_slew: 0.0,
        });

        for si in netlist.topological_order() {
            let stage = &netlist.stages[si];
            let input = inputs[si].expect("topological order guarantees inputs are known");
            let requests = stage_requests(vdds, &input, stage.driver.inverting());
            let taps: Vec<usize> = stage.taps.iter().map(|t| t.node).collect();
            let rel = self.stage_rel_outputs(
                &stage.tree,
                &taps,
                &stage.driver.spec(),
                stage.driver.is_source(),
                &requests.map(|r| r.1),
            );
            for (tap_idx, tap) in stage.taps.iter().enumerate() {
                let states = tap_states(&requests, &rel, tap_idx);
                match tap.kind {
                    TapKind::Sink(id) => record_tap(&mut corners, &states, Some(id)),
                    TapKind::Stage(child) => {
                        record_tap(&mut corners, &states, None);
                        inputs[child] = Some(states);
                    }
                }
            }
        }

        for corner in &mut corners {
            corner.sinks.sort_by_key(|s| s.sink_id);
        }
        let [nominal, low] = corners;
        EvalReport {
            nominal,
            low,
            total_cap: netlist.total_cap(),
            slew_limit: self.tech.slew_limit,
            buffer_count: netlist.buffer_count(),
        }
    }

    /// Computes, for the given tap nodes of a stage's RC tree, the delay and
    /// slew of each requested output transition relative to the causing
    /// input edge's arrival: one vector of tap timings per key.
    ///
    /// This is the single stage-solving primitive shared by the full
    /// evaluation above and by [`crate::incremental::IncrementalEvaluator`]'s
    /// cached path, which guarantees the two produce bit-identical timing
    /// for identical inputs. Under the transient model the requests are
    /// lanes of one kernel call; requests that resolve to the same driver,
    /// supply and ramp are solved once.
    pub(crate) fn stage_rel_outputs(
        &self,
        tree: &crate::RcTree,
        taps: &[usize],
        driver: &DriverSpec,
        is_source: bool,
        keys: &[SolveKey],
    ) -> Vec<Vec<RelTiming>> {
        // The clock source sits off-chip: it does not derate with the
        // on-chip supply and has no rise/fall asymmetry.
        let drives: Vec<Drive> = keys
            .iter()
            .map(|key| {
                let vdd = f64::from_bits(key.vdd);
                let (res, intrinsic) = if is_source {
                    (driver.output_res, 0.0)
                } else {
                    (
                        driver.corner_res(&self.tech, vdd, key.rising),
                        driver.corner_intrinsic(&self.tech, vdd),
                    )
                };
                Drive {
                    vdd,
                    input_slew: f64::from_bits(key.input_slew),
                    res,
                    intrinsic,
                }
            })
            .collect();

        match self.model {
            DelayModel::Elmore => drives
                .iter()
                .map(|d| {
                    let m1 = tree.elmore_from(d.res);
                    taps.iter()
                        .map(|&node| elmore_tap_timing(m1[node], d.intrinsic, d.input_slew))
                        .collect()
                })
                .collect(),
            DelayModel::Transient => transient_rel_outputs(tree, taps, driver.output_cap, &drives),
        }
    }
}

/// One solve request resolved against its stage's driver.
struct Drive {
    /// Supply voltage of the corner, V.
    vdd: f64,
    /// 10%–90% slew of the causing input edge, ps.
    input_slew: f64,
    /// Corner-derated driver output resistance for the transition, Ω.
    res: f64,
    /// Corner-derated intrinsic gate delay, ps.
    intrinsic: f64,
}

/// The transient half of [`Evaluator::stage_rel_outputs`]: every request is
/// a lane of one kernel call. Requests that resolve to the same driver,
/// supply and ramp (the source stage's rise and fall, for one) share a
/// lane.
fn transient_rel_outputs(
    tree: &crate::RcTree,
    taps: &[usize],
    output_cap: f64,
    drives: &[Drive],
) -> Vec<Vec<RelTiming>> {
    let bits = |lane: &Lane| [lane.driver_res, lane.vdd, lane.ramp_ps].map(f64::to_bits);
    let mut lanes: Vec<Lane> = Vec::with_capacity(drives.len());
    let lane_of: Vec<usize> = drives
        .iter()
        .map(|d| {
            // The gate output ramp steepens with a stronger driver and
            // degrades with a slow input edge.
            let intrinsic_ramp = 2.0 * contango_tech::units::rc_ps(d.res, output_cap.max(1.0));
            let lane = Lane {
                driver_res: d.res,
                vdd: d.vdd,
                ramp_ps: (intrinsic_ramp + 0.4 * d.input_slew).max(2.0),
            };
            lanes
                .iter()
                .position(|other| bits(other) == bits(&lane))
                .unwrap_or_else(|| {
                    lanes.push(lane);
                    lanes.len() - 1
                })
        })
        .collect();
    let results = solve_lanes(tree, &lanes, taps);
    drives
        .iter()
        .zip(lane_of)
        .map(|(d, lane)| {
            let gate_delay = d.intrinsic + crate::driver::SLEW_DELAY_SENSITIVITY * d.input_slew;
            let result = &results[lane];
            result
                .delay50
                .iter()
                .zip(&result.slew)
                .map(|(&delay50, &slew)| RelTiming {
                    delay: gate_delay + delay50,
                    slew,
                })
                .collect()
        })
        .collect()
}

/// Slew of the clock source waveform.
fn source_slew(netlist: &Netlist) -> f64 {
    match netlist.stages[netlist.root].driver {
        StageDriver::Source(s) => s.slew,
        StageDriver::Buffer(_) => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SourceSpec;
    use crate::netlist::{Stage, Tap};
    use crate::RcTree;

    /// Source → trunk wire → inverter → two symmetric sink branches, with an
    /// optional extra wire on sink 1 to create skew.
    fn two_sink_netlist(extra_len_res: f64, extra_cap: f64) -> Netlist {
        let tech = Technology::ispd09();
        let buf = tech.composite(tech.small_inverter(), 8);
        let d = DriverSpec::from_composite(&buf);

        let mut t0 = RcTree::new();
        let r0 = t0.add_root(1.0);
        let trunk = t0.add_node(r0, 120.0, 60.0 + d.input_cap);
        let stage0 = Stage {
            driver: StageDriver::Source(SourceSpec::ispd09()),
            tree: t0,
            taps: vec![Tap {
                node: trunk,
                kind: TapKind::Stage(1),
            }],
        };

        let mut t1 = RcTree::new();
        let r1 = t1.add_root(d.output_cap);
        let a = t1.add_node(r1, 60.0, 35.0);
        let b = t1.add_node(r1, 60.0 + extra_len_res, 35.0 + extra_cap);
        let stage1 = Stage {
            driver: StageDriver::Buffer(d),
            tree: t1,
            taps: vec![
                Tap {
                    node: a,
                    kind: TapKind::Sink(0),
                },
                Tap {
                    node: b,
                    kind: TapKind::Sink(1),
                },
            ],
        };
        Netlist::new(vec![stage0, stage1], 0).expect("valid netlist")
    }

    #[test]
    fn symmetric_netlist_has_negligible_skew() {
        let netlist = two_sink_netlist(0.0, 0.0);
        for model in [DelayModel::Elmore, DelayModel::Transient] {
            let eval = Evaluator::with_model(Technology::ispd09(), model);
            let report = eval.evaluate(&netlist);
            assert!(
                report.skew() < 1e-6,
                "model {model:?} skew {}",
                report.skew()
            );
            assert!(report.clr() > 0.0, "CLR must be positive");
        }
    }

    #[test]
    fn asymmetric_load_creates_skew_in_every_model() {
        let netlist = two_sink_netlist(300.0, 40.0);
        for model in [DelayModel::Elmore, DelayModel::Transient] {
            let eval = Evaluator::with_model(Technology::ispd09(), model);
            let report = eval.evaluate(&netlist);
            assert!(
                report.skew() > 1.0,
                "model {model:?} skew {}",
                report.skew()
            );
            // Sink 1 carries the extra wire, so it must be the slow one.
            let nominal = &report.nominal;
            let s0 = nominal.sink(0).expect("sink 0");
            let s1 = nominal.sink(1).expect("sink 1");
            assert!(s1.rise.latency > s0.rise.latency);
        }
    }

    #[test]
    fn low_corner_latencies_exceed_nominal() {
        let netlist = two_sink_netlist(0.0, 0.0);
        let eval = Evaluator::new(Technology::ispd09());
        let report = eval.evaluate(&netlist);
        assert!(report.low.max_latency() > report.nominal.max_latency());
    }

    #[test]
    fn run_counter_increments() {
        let netlist = two_sink_netlist(0.0, 0.0);
        let eval = Evaluator::new(Technology::ispd09());
        assert_eq!(eval.runs(), 0);
        let _ = eval.evaluate(&netlist);
        let _ = eval.evaluate(&netlist);
        assert_eq!(eval.runs(), 2);
        eval.reset_runs();
        assert_eq!(eval.runs(), 0);
    }

    #[test]
    fn transient_and_elmore_agree_on_ordering() {
        let netlist = two_sink_netlist(500.0, 80.0);
        let spice =
            Evaluator::with_model(Technology::ispd09(), DelayModel::Transient).evaluate(&netlist);
        let elmore =
            Evaluator::with_model(Technology::ispd09(), DelayModel::Elmore).evaluate(&netlist);
        let slow_spice = spice.nominal.sink(1).expect("sink").rise.latency
            > spice.nominal.sink(0).expect("sink").rise.latency;
        let slow_elmore = elmore.nominal.sink(1).expect("sink").rise.latency
            > elmore.nominal.sink(0).expect("sink").rise.latency;
        assert_eq!(slow_spice, slow_elmore);
    }

    #[test]
    fn inverter_stage_swaps_rise_and_fall_paths() {
        // With an odd number of inversions, the rise latency at the sink is
        // driven by the pull-up of the last inverter; asymmetry makes rise
        // and fall latencies differ slightly.
        let netlist = two_sink_netlist(0.0, 0.0);
        let eval = Evaluator::new(Technology::ispd09());
        let report = eval.evaluate(&netlist);
        let s0 = report.nominal.sink(0).expect("sink 0");
        assert!((s0.rise.latency - s0.fall.latency).abs() > 1e-6);
    }

    #[test]
    fn slew_is_reported_and_bounded_for_reasonable_stages() {
        let netlist = two_sink_netlist(0.0, 0.0);
        let eval = Evaluator::new(Technology::ispd09());
        let report = eval.evaluate(&netlist);
        assert!(report.worst_slew() > 0.0);
        assert!(!report.has_slew_violation(), "slew {}", report.worst_slew());
    }
}
