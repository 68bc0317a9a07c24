//! Backward-Euler transient simulation of one buffered stage.
//!
//! Every buffered stage of a clock network is an RC tree driven by a
//! Thevenin source (the stage driver's output resistance in series with a
//! saturated-ramp voltage source). Because the conductance matrix of a tree
//! is, after a leaf-first elimination order, triangular with exactly one
//! off-diagonal entry per node, each backward-Euler step is solved exactly
//! in `O(n)` without any general sparse-matrix machinery.
//!
//! One kernel steps one to four *lanes* over a stage's tree in lockstep. A
//! lane is one transition (rise or fall) at one supply corner. The lanes
//! share the topology, the node capacitances and the wire conductances;
//! each has its own driver conductance, supply, ramp, time step, step
//! budget and end of run. The elimination coefficients depend only on a
//! lane's time step, so they are factored once per call, and the divisions
//! stay there: each pivot is replaced by its reciprocal and each node's
//! multiplier `g/d` is formed once, so a time step's sweeps over the tree
//! are chains of multiplies and adds. Every lane performs the float
//! operations of a one-lane solve in the same order, so batching changes
//! no bit of any result: it only lets the lanes' independent chains
//! overlap. Threshold crossings are recorded only at the requested nodes,
//! and a lane stops once its last requested node has crossed 90% and its
//! ramp is over.
//!
//! A product with a reciprocal rounds differently from a quotient, so this
//! kernel's results differ from those of the dividing solver it replaced
//! (kept as a test reference) in the last bits: by at most 3e-11 ps in
//! delay and 5e-10 ps in slew over the unit tests' arbitrary trees, with
//! every step count equal.

use crate::RcTree;
use serde::{Deserialize, Serialize};

/// Most lanes one kernel call steps together, so a stage visit's four
/// transitions (rise and fall at two supply corners) take one call. Most
/// of a stage's nodes hang off the node before them, so one lane's step is
/// a serial chain of multiplies and adds, and only more lanes per call give
/// the CPU independent work: on a 2-core 2.1 GHz Xeon VM, one four-lane
/// call ran 4.8–5.6x as fast as four solves of the dividing scalar solver
/// the kernel replaced, and two two-lane calls 3.5–4.9x.
const MAX_LANES: usize = 4;

/// Waveform measurements of a transient run: for every node of the stage's
/// RC tree, the 50% crossing time relative to the 50% crossing of the source
/// ramp, and the 10%–90% transition time.
///
/// A lane of the crate's batched solve fills the two vectors for its
/// requested nodes, in request order, instead of for every node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientResult {
    /// Per-node network delay (50% source crossing to 50% node crossing), ps.
    pub delay50: Vec<f64>,
    /// Per-node 10%–90% output transition time, ps.
    pub slew: Vec<f64>,
    /// Number of time steps the solver used.
    pub steps: usize,
}

/// One lane of [`solve_lanes`]: the driver and source of one transition at
/// one supply corner.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    /// Output resistance of the driver for this transition, Ω.
    pub(crate) driver_res: f64,
    /// Supply voltage of this corner, V.
    pub(crate) vdd: f64,
    /// 0%–100% ramp time of the source, ps.
    pub(crate) ramp_ps: f64,
}

/// The lane-independent half of a stage: its topology, clamped node
/// capacitances and wire conductances.
#[derive(Debug, Clone)]
struct StageMatrix {
    /// Parent indices (node 0 has no stored parent).
    parents: Vec<usize>,
    /// Node capacitances in fF.
    caps: Vec<f64>,
    /// Conductance from each node to its parent, S. Node 0's entry is
    /// unused: each lane's driver conductance takes its place.
    g_wire: Vec<f64>,
}

impl StageMatrix {
    fn new(tree: &RcTree) -> Self {
        assert!(!tree.is_empty(), "cannot simulate an empty stage");
        let n = tree.len();
        let mut parents = vec![usize::MAX; n];
        let mut caps = vec![0.0; n];
        let mut g_wire = vec![0.0; n];
        for (i, (parent, res, cap)) in tree.iter().enumerate() {
            caps[i] = cap.max(1e-6); // avoid singular steps on zero-cap nodes
            if i > 0 {
                // Zero-length wires still need a finite conductance.
                g_wire[i] = 1.0 / res.max(1e-3);
                parents[i] = parent;
            }
        }
        Self {
            parents,
            caps,
            g_wire,
        }
    }
}

/// A lane resolved against its stage.
#[derive(Debug, Clone, Copy)]
struct LaneSource {
    /// Conductance from node 0 to the source, S.
    g_driver: f64,
    /// Supply voltage, V.
    vdd: f64,
    /// 0%–100% ramp time, ps.
    ramp: f64,
    /// Largest Elmore delay of the stage through this lane's driver, used
    /// to size steps and the horizon.
    tau_max: f64,
}

impl LaneSource {
    fn new(tree: &RcTree, lane: Lane) -> Self {
        assert!(lane.driver_res > 0.0, "driver resistance must be positive");
        let tau_max = tree
            .elmore_from(lane.driver_res)
            .into_iter()
            .fold(0.0_f64, f64::max)
            .max(1.0);
        Self {
            g_driver: 1.0 / lane.driver_res,
            vdd: lane.vdd,
            ramp: lane.ramp_ps.max(1.0),
            tau_max,
        }
    }

    /// Saturated-ramp source voltage at time `t`.
    fn voltage(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else if t >= self.ramp {
            self.vdd
        } else {
            self.vdd * t / self.ramp
        }
    }
}

/// Backward-Euler solver for a single stage.
#[derive(Debug, Clone)]
pub struct TransientSolver {
    stage: StageMatrix,
    source: LaneSource,
}

impl TransientSolver {
    /// Prepares a solver for `tree` driven through `driver_res` ohms by a
    /// source ramping from 0 to `vdd` volts over `ramp_ps` picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if the tree is empty or the driver resistance is not positive.
    pub fn new(tree: &RcTree, driver_res: f64, vdd: f64, ramp_ps: f64) -> Self {
        let stage = StageMatrix::new(tree);
        let source = LaneSource::new(
            tree,
            Lane {
                driver_res,
                vdd,
                ramp_ps,
            },
        );
        Self { stage, source }
    }

    /// Runs the simulation and extracts delays and slews for every node:
    /// the kernel's one-lane call with every node requested.
    pub fn solve(&self) -> TransientResult {
        let nodes: Vec<usize> = (0..self.stage.caps.len()).collect();
        let [result] = step_lanes(&self.stage, &[self.source], &nodes);
        result
    }
}

/// Solves every lane over `tree`, recording crossings only at `nodes`.
/// Result `l` belongs to `lanes[l]`, and its `delay50[k]` and `slew[k]` to
/// `nodes[k]`. Lanes are stepped up to [`MAX_LANES`] at a time.
///
/// # Panics
///
/// Panics if the tree is empty, a driver resistance is not positive or a
/// requested node is out of range.
pub(crate) fn solve_lanes(tree: &RcTree, lanes: &[Lane], nodes: &[usize]) -> Vec<TransientResult> {
    let stage = StageMatrix::new(tree);
    let sources: Vec<LaneSource> = lanes
        .iter()
        .map(|&lane| LaneSource::new(tree, lane))
        .collect();
    let mut results = Vec::with_capacity(lanes.len());
    for chunk in sources.chunks(MAX_LANES) {
        match *chunk {
            [a] => results.extend(step_lanes(&stage, &[a], nodes)),
            [a, b] => results.extend(step_lanes(&stage, &[a, b], nodes)),
            [a, b, c] => results.extend(step_lanes(&stage, &[a, b, c], nodes)),
            [a, b, c, d] => results.extend(step_lanes(&stage, &[a, b, c, d], nodes)),
            _ => unreachable!("chunks hold one to MAX_LANES lanes"),
        }
    }
    results
}

/// The kernel: steps `L` lanes over `stage` in lockstep and measures the
/// requested `nodes` of each.
///
/// Per-node state is stored lane-minor (`[f64; L]` per node), so each node
/// update runs `L` independent float chains side by side. The pivots are
/// inverted once per call, so a step eliminates with `rhs + (g/d)*rhs_child`
/// and back-substitutes with `rhs*(1/d) + (g/d)*v_parent` without division;
/// its one division per lane is the source ramp's `(vdd*t)/ramp`. Every
/// lane evaluates these and `((c*inv_dt)*1e-3)*v` exactly as a one-lane
/// solve does. A lane that has stopped keeps being stepped with the others
/// but records nothing more.
fn step_lanes<const L: usize>(
    stage: &StageMatrix,
    sources: &[LaneSource; L],
    nodes: &[usize],
) -> [TransientResult; L] {
    let StageMatrix {
        parents,
        caps,
        g_wire,
    } = stage;
    let n = caps.len();
    // Step size: resolve the ramp and the dominant time constant.
    let dt: [f64; L] = std::array::from_fn(|l| {
        (sources[l].tau_max / 60.0)
            .min(sources[l].ramp / 20.0)
            .clamp(0.02, 5.0)
    });
    let max_steps: [usize; L] = std::array::from_fn(|l| {
        let horizon = sources[l].ramp + 12.0 * sources[l].tau_max + 50.0;
        ((horizon / dt[l]).ceil() as usize).max(16)
    });

    // Pre-factor each lane's (C/dt + G) tree matrix with leaf-first
    // elimination. diag[i] = C_i/dt + Σ adjacent conductances. Conductances
    // are in siemens; C/dt in fF/ps equals 10⁻³ S, hence the 1e-3 factor.
    // The C/dt column is kept: every step's right-hand side reuses it.
    let inv_dt: [f64; L] = std::array::from_fn(|l| 1.0 / dt[l]);
    let c_dt: Vec<[f64; L]> = caps
        .iter()
        .map(|&c| std::array::from_fn(|l| c * inv_dt[l] * 1e-3))
        .collect();
    let mut diag: Vec<[f64; L]> = (0..n)
        .map(|i| {
            std::array::from_fn(|l| {
                let g = if i == 0 {
                    sources[l].g_driver
                } else {
                    g_wire[i]
                };
                c_dt[i][l] + g
            })
        })
        .collect();
    for i in 1..n {
        let p = parents[i];
        for d in &mut diag[p] {
            *d += g_wire[i];
        }
    }
    // Leaf-first elimination of the off-diagonal entries (children have
    // larger indices than parents, so reverse order is leaf-first).
    for i in (1..n).rev() {
        let (p, g, d) = (parents[i], g_wire[i], diag[i]);
        for l in 0..L {
            diag[p][l] -= g * g / d[l];
        }
    }
    // Each pivot becomes its reciprocal and each node's multiplier g/d is
    // formed once, so the steps below eliminate and back-substitute with
    // multiplies and adds alone (node 0's multiplier is unused).
    for d in diag.iter_mut().flatten() {
        *d = 1.0 / *d;
    }
    let inv_diag = diag;
    let g_over_d: Vec<[f64; L]> = inv_diag
        .iter()
        .zip(g_wire)
        .map(|(inv_d, &g)| inv_d.map(|x| g * x))
        .collect();

    // Each requested node is measured once, however often it is requested.
    let mut slot_of_node = vec![usize::MAX; n];
    let mut tracked: Vec<usize> = Vec::new();
    let slots: Vec<usize> = nodes
        .iter()
        .map(|&node| {
            if slot_of_node[node] == usize::MAX {
                slot_of_node[node] = tracked.len();
                tracked.push(node);
            }
            slot_of_node[node]
        })
        .collect();
    let m = tracked.len();

    let vdd: [f64; L] = std::array::from_fn(|l| sources[l].vdd);
    let mut v = vec![[0.0_f64; L]; n];
    // Each step's right-hand side starts as C/dt · v; the back-substitution
    // below seeds it for the next step as soon as a node's voltage is known.
    let mut rhs: Vec<[f64; L]> = c_dt
        .iter()
        .zip(&v)
        .map(|(c, vi)| std::array::from_fn(|l| c[l] * vi[l]))
        .collect();
    let mut prev_v = vec![[0.0_f64; L]; m];
    let mut crossings = vec![[Crossings::OPEN; L]; m];
    // Requested nodes still waiting for their 90% crossing, per lane.
    let mut pending = [m; L];
    let mut steps = [0usize; L];
    let mut running = [true; L];

    let mut step = 0usize;
    while running.contains(&true) {
        step += 1;
        let t: [f64; L] = std::array::from_fn(|l| step as f64 * dt[l]);
        for l in 0..L {
            rhs[0][l] += sources[l].g_driver * sources[l].voltage(t[l]);
        }
        // Eliminate leaf-first.
        for (i, (&p, gd)) in parents.iter().zip(&g_over_d).enumerate().skip(1).rev() {
            let (r, rp) = (rhs[i], rhs[p]);
            rhs[p] = std::array::from_fn(|l| rp[l] + gd[l] * r[l]);
        }
        // Back-substitute root-first; each new voltage also seeds its node's
        // right-hand side for the next step.
        for (i, (((&p, inv_d), gd), c)) in parents
            .iter()
            .zip(&inv_diag)
            .zip(&g_over_d)
            .zip(&c_dt)
            .enumerate()
        {
            let r = rhs[i];
            let vi: [f64; L] = if i == 0 {
                std::array::from_fn(|l| r[l] * inv_d[l])
            } else {
                let vp = v[p];
                std::array::from_fn(|l| r[l] * inv_d[l] + gd[l] * vp[l])
            };
            v[i] = vi;
            rhs[i] = std::array::from_fn(|l| c[l] * vi[l]);
        }
        // Record threshold crossings with linear interpolation.
        for ((cross, prev), &node) in crossings.iter_mut().zip(&mut prev_v).zip(&tracked) {
            let now = v[node];
            for l in 0..L {
                if running[l] && cross[l].record(prev[l], now[l], vdd[l], t[l], dt[l]) {
                    pending[l] -= 1;
                }
            }
            *prev = now;
        }
        for l in 0..L {
            if running[l] {
                steps[l] = step;
                let settled = pending[l] == 0 && t[l] > sources[l].ramp;
                running[l] = !settled && step < max_steps[l];
            }
        }
    }

    std::array::from_fn(|l| {
        // The source crosses 50% at ramp/2.
        let source_t50 = 0.5 * sources[l].ramp;
        let delay50 = slots
            .iter()
            .map(|&k| {
                let x = crossings[k][l].t50;
                if x.is_nan() {
                    f64::INFINITY
                } else {
                    x - source_t50
                }
            })
            .collect();
        let slew = slots
            .iter()
            .map(|&k| {
                let (a, b) = (crossings[k][l].t10, crossings[k][l].t90);
                if a.is_nan() || b.is_nan() {
                    f64::INFINITY
                } else {
                    b - a
                }
            })
            .collect();
        TransientResult {
            delay50,
            slew,
            steps: steps[l],
        }
    })
}

/// The 10%, 50% and 90% crossing times of one node in one lane; NaN until
/// crossed.
#[derive(Debug, Clone, Copy)]
struct Crossings {
    t10: f64,
    t50: f64,
    t90: f64,
}

impl Crossings {
    const OPEN: Self = Self {
        t10: f64::NAN,
        t50: f64::NAN,
        t90: f64::NAN,
    };

    /// Records this step's crossings; `true` when the 90% crossing is the
    /// one that just got recorded.
    fn record(&mut self, v_prev: f64, v_new: f64, vdd: f64, t: f64, dt: f64) -> bool {
        record_crossing(&mut self.t10, v_prev, v_new, 0.1 * vdd, t, dt);
        record_crossing(&mut self.t50, v_prev, v_new, 0.5 * vdd, t, dt);
        let open = self.t90.is_nan();
        record_crossing(&mut self.t90, v_prev, v_new, 0.9 * vdd, t, dt);
        open && !self.t90.is_nan()
    }
}

/// Records the interpolated time of an upward threshold crossing.
fn record_crossing(slot: &mut f64, v_prev: f64, v_new: f64, threshold: f64, t: f64, dt: f64) {
    if slot.is_nan() && v_prev < threshold && v_new >= threshold {
        let frac = if (v_new - v_prev).abs() > 1e-15 {
            (threshold - v_prev) / (v_new - v_prev)
        } else {
            1.0
        };
        *slot = t - dt + frac * dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::XorShift;
    use contango_tech::units;
    use std::io::Write;
    use std::time::Instant;

    /// The scalar one-transition solver the lane kernel replaced, kept
    /// verbatim, divisions and all, as the reference the kernel must stay
    /// within [`REFERENCE_TOLERANCE_PS`] of.
    struct ReferenceSolver {
        g_parent: Vec<f64>,
        parents: Vec<usize>,
        caps: Vec<f64>,
        vdd: f64,
        ramp: f64,
        tau_max: f64,
    }

    impl ReferenceSolver {
        fn new(tree: &RcTree, driver_res: f64, vdd: f64, ramp_ps: f64) -> Self {
            assert!(!tree.is_empty(), "cannot simulate an empty stage");
            assert!(driver_res > 0.0, "driver resistance must be positive");
            let n = tree.len();
            let mut g_parent = vec![0.0; n];
            let mut parents = vec![0usize; n];
            let mut caps = vec![0.0; n];
            for (i, (parent, res, cap)) in tree.iter().enumerate() {
                caps[i] = cap.max(1e-6);
                if i == 0 {
                    g_parent[i] = 1.0 / driver_res;
                    parents[i] = usize::MAX;
                } else {
                    let r = res.max(1e-3);
                    g_parent[i] = 1.0 / r;
                    parents[i] = parent;
                }
            }
            let tau_max = tree
                .elmore_from(driver_res)
                .into_iter()
                .fold(0.0_f64, f64::max)
                .max(1.0);
            Self {
                g_parent,
                parents,
                caps,
                vdd,
                ramp: ramp_ps.max(1.0),
                tau_max,
            }
        }

        fn solve(&self) -> TransientResult {
            let n = self.caps.len();
            let dt = (self.tau_max / 60.0).min(self.ramp / 20.0).clamp(0.02, 5.0);
            let horizon = self.ramp + 12.0 * self.tau_max + 50.0;
            let max_steps = ((horizon / dt).ceil() as usize).max(16);
            let inv_dt = 1.0 / dt;
            let mut diag: Vec<f64> = (0..n)
                .map(|i| self.caps[i] * inv_dt * 1e-3 + self.g_parent[i])
                .collect();
            for i in 1..n {
                let p = self.parents[i];
                diag[p] += self.g_parent[i];
            }
            let mut diag_elim = diag.clone();
            for i in (1..n).rev() {
                let p = self.parents[i];
                diag_elim[p] -= self.g_parent[i] * self.g_parent[i] / diag_elim[i];
            }
            let mut v = vec![0.0_f64; n];
            let mut rhs = vec![0.0_f64; n];
            let v10 = 0.1 * self.vdd;
            let v50 = 0.5 * self.vdd;
            let v90 = 0.9 * self.vdd;
            let mut t10 = vec![f64::NAN; n];
            let mut t50 = vec![f64::NAN; n];
            let mut t90 = vec![f64::NAN; n];
            let mut prev_v = v.clone();
            let mut steps = 0usize;
            for step in 1..=max_steps {
                let t = step as f64 * dt;
                let vs = self.source_voltage(t);
                for i in 0..n {
                    rhs[i] = self.caps[i] * inv_dt * 1e-3 * v[i];
                }
                rhs[0] += self.g_parent[0] * vs;
                for i in (1..n).rev() {
                    let p = self.parents[i];
                    rhs[p] += self.g_parent[i] * rhs[i] / diag_elim[i];
                }
                prev_v.copy_from_slice(&v);
                v[0] = rhs[0] / diag_elim[0];
                for i in 1..n {
                    let p = self.parents[i];
                    v[i] = (rhs[i] + self.g_parent[i] * v[p]) / diag_elim[i];
                }
                for i in 0..n {
                    record_crossing(&mut t10[i], prev_v[i], v[i], v10, t, dt);
                    record_crossing(&mut t50[i], prev_v[i], v[i], v50, t, dt);
                    record_crossing(&mut t90[i], prev_v[i], v[i], v90, t, dt);
                }
                steps = step;
                if t90.iter().all(|x| !x.is_nan()) && t > self.ramp {
                    break;
                }
            }
            let source_t50 = 0.5 * self.ramp;
            let delay50 = t50
                .iter()
                .map(|&x| {
                    if x.is_nan() {
                        f64::INFINITY
                    } else {
                        x - source_t50
                    }
                })
                .collect();
            let slew = t10
                .iter()
                .zip(t90.iter())
                .map(|(&a, &b)| {
                    if a.is_nan() || b.is_nan() {
                        f64::INFINITY
                    } else {
                        b - a
                    }
                })
                .collect();
            TransientResult {
                delay50,
                slew,
                steps,
            }
        }

        fn source_voltage(&self, t: f64) -> f64 {
            if t <= 0.0 {
                0.0
            } else if t >= self.ramp {
                self.vdd
            } else {
                self.vdd * t / self.ramp
            }
        }
    }

    /// Uniform draw in `[lo, hi)`.
    fn uniform(rng: &mut XorShift, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * rng.next_unit()
    }

    /// Uniform index in `0..n`.
    fn index(rng: &mut XorShift, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    /// An arbitrary stage tree of 1–30 nodes: a chain or a random branching
    /// tree, with some wire resistances under the 1e-3 Ω clamp and some
    /// capacitances under the 1e-6 fF clamp.
    fn arbitrary_tree(rng: &mut XorShift) -> RcTree {
        let n = 1 + index(rng, 30);
        let chain = rng.next_unit() < 0.3;
        let mut tree = RcTree::new();
        tree.add_root(uniform(rng, 1.0, 60.0));
        for i in 1..n {
            let parent = if chain { i - 1 } else { index(rng, i) };
            let res = match index(rng, 8) {
                0 => 0.0,
                1 => uniform(rng, 0.0, 1e-3),
                _ => uniform(rng, 0.5, 120.0),
            };
            let cap = match index(rng, 8) {
                0 => 0.0,
                1 => uniform(rng, 0.0, 1e-6),
                _ => uniform(rng, 0.5, 40.0),
            };
            tree.add_node(parent, res, cap);
        }
        tree
    }

    /// One to six lanes with their own driver resistance, supply and
    /// ramp, so that time steps and step budgets differ between lanes and
    /// a batch past [`MAX_LANES`] is split across calls; a lane is
    /// sometimes repeated.
    fn arbitrary_lanes(rng: &mut XorShift) -> Vec<Lane> {
        let count = 1 + index(rng, 6);
        let mut lanes: Vec<Lane> = Vec::with_capacity(count);
        for _ in 0..count {
            let lane = if !lanes.is_empty() && rng.next_unit() < 0.15 {
                lanes[index(rng, lanes.len())]
            } else {
                Lane {
                    driver_res: uniform(rng, 25.0, 600.0),
                    vdd: uniform(rng, 0.8, 1.3),
                    ramp_ps: uniform(rng, 0.5, 120.0),
                }
            };
            lanes.push(lane);
        }
        lanes
    }

    /// One to six requested nodes drawn with repetition, the root and
    /// internal nodes included.
    fn arbitrary_nodes(rng: &mut XorShift, n: usize) -> Vec<usize> {
        let mut nodes: Vec<usize> = (0..1 + index(rng, 6)).map(|_| index(rng, n)).collect();
        if rng.next_unit() < 0.3 {
            nodes.push(0);
        }
        if rng.next_unit() < 0.3 {
            nodes.push(nodes[0]);
        }
        nodes
    }

    /// An arbitrary stage tree with its lanes and requested nodes.
    fn arbitrary_case(rng: &mut XorShift) -> (RcTree, Vec<Lane>, Vec<usize>) {
        let tree = arbitrary_tree(rng);
        let lanes = arbitrary_lanes(rng);
        let nodes = arbitrary_nodes(rng, tree.len());
        (tree, lanes, nodes)
    }

    /// Largest |Δdelay| and |Δslew| at any node, in ps, between the kernel
    /// and [`ReferenceSolver`]. The kernel multiplies by reciprocal pivots
    /// where the reference divides by the pivots, so the two round
    /// differently; 1e-6 ps is far below any reported digit.
    const REFERENCE_TOLERANCE_PS: f64 = 1e-6;

    /// Asserts that `got`, a kernel result measured at `nodes`, is within
    /// [`REFERENCE_TOLERANCE_PS`] of `reference`, a result for every node.
    fn assert_near_reference(
        got: &TransientResult,
        reference: &TransientResult,
        nodes: &[usize],
        what: &str,
    ) {
        for (k, &node) in nodes.iter().enumerate() {
            for (name, a, b) in [
                ("delay", got.delay50[k], reference.delay50[node]),
                ("slew", got.slew[k], reference.slew[node]),
            ] {
                // Equal values pass, infinities (a node never crossed) too.
                assert!(
                    a == b || (a - b).abs() <= REFERENCE_TOLERANCE_PS,
                    "{what}, node {node}: {name} {a} against the reference's {b}"
                );
            }
        }
    }

    /// A result's delays, slews and step count by bit pattern.
    fn result_bits(result: &TransientResult) -> (Vec<u64>, Vec<u64>, usize) {
        let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect();
        (bits(&result.delay50), bits(&result.slew), result.steps)
    }

    #[test]
    fn batched_lanes_match_lanes_solved_alone_bit_for_bit() {
        let mut rng = XorShift::new(0x5EED_1A4E);
        for case in 0..400 {
            let (tree, lanes, nodes) = arbitrary_case(&mut rng);
            let batched = solve_lanes(&tree, &lanes, &nodes);
            assert_eq!(batched.len(), lanes.len());
            for (l, (lane, got)) in lanes.iter().zip(&batched).enumerate() {
                let alone = solve_lanes(&tree, &[*lane], &nodes);
                assert_eq!(
                    result_bits(got),
                    result_bits(&alone[0]),
                    "case {case}, lane {l}: batched against alone"
                );
                // The one-lane call over every node measures each node as
                // a call that requests only a few of them does.
                let whole =
                    TransientSolver::new(&tree, lane.driver_res, lane.vdd, lane.ramp_ps).solve();
                for (k, &node) in nodes.iter().enumerate() {
                    assert_eq!(
                        got.delay50[k].to_bits(),
                        whole.delay50[node].to_bits(),
                        "case {case}, lane {l}, node {node}: delay against solve()"
                    );
                    assert_eq!(
                        got.slew[k].to_bits(),
                        whole.slew[node].to_bits(),
                        "case {case}, lane {l}, node {node}: slew against solve()"
                    );
                }
            }
        }
    }

    #[test]
    fn solve_stays_within_a_micro_picosecond_of_the_division_reference() {
        let mut rng = XorShift::new(0x5EED_1A4E);
        for case in 0..400 {
            let (tree, lanes, _) = arbitrary_case(&mut rng);
            let every_node: Vec<usize> = (0..tree.len()).collect();
            for (l, lane) in lanes.iter().enumerate() {
                let got =
                    TransientSolver::new(&tree, lane.driver_res, lane.vdd, lane.ramp_ps).solve();
                let reference =
                    ReferenceSolver::new(&tree, lane.driver_res, lane.vdd, lane.ramp_ps).solve();
                assert_eq!(got.steps, reference.steps, "case {case}, lane {l}: steps");
                assert_near_reference(
                    &got,
                    &reference,
                    &every_node,
                    &format!("case {case}, lane {l}"),
                );
            }
        }
    }

    /// A stage visit shaped like the ISPD'09 flow's: about seven nodes, a
    /// driver of tens to hundreds of ohms, wire segments of a few to a few
    /// tens of ohms and femtofarads, one or two taps, and the four lanes of
    /// rise and fall at a nominal and a low supply, with derated drivers and
    /// slew-dependent ramps.
    struct FlowStage {
        tree: RcTree,
        taps: Vec<usize>,
        lanes: [Lane; 4],
    }

    fn flow_like_stage(rng: &mut XorShift) -> FlowStage {
        let n = 5 + index(rng, 5);
        let mut tree = RcTree::new();
        tree.add_root(uniform(rng, 10.0, 40.0));
        for i in 1..n {
            let parent = if rng.next_unit() < 0.7 {
                i - 1
            } else {
                index(rng, i)
            };
            tree.add_node(parent, uniform(rng, 5.0, 60.0), uniform(rng, 5.0, 45.0));
        }
        let mut taps = vec![n - 1];
        if rng.next_unit() < 0.3 {
            taps.push(1 + index(rng, n - 1));
        }
        let res = uniform(rng, 40.0, 250.0);
        let ramp = uniform(rng, 8.0, 60.0);
        let lanes = std::array::from_fn(|k| {
            let low = k >= 2;
            let rising = k % 2 == 0;
            Lane {
                driver_res: res * if low { 1.35 } else { 1.0 } * if rising { 1.1 } else { 1.0 },
                vdd: if low { 1.0 } else { 1.2 },
                ramp_ps: ramp * if low { 1.2 } else { 1.0 },
            }
        });
        FlowStage { tree, taps, lanes }
    }

    #[test]
    #[ignore = "timing floor; run in release with --ignored"]
    fn four_lane_kernel_calls_are_at_least_4_5x_faster_than_four_scalar_solves() {
        let mut rng = XorShift::new(0x715D_0009);
        let stages: Vec<FlowStage> = (0..400).map(|_| flow_like_stage(&mut rng)).collect();
        // Agreement with the reference first.
        for (s, FlowStage { tree, taps, lanes }) in stages.iter().enumerate() {
            let batched = solve_lanes(tree, lanes, taps);
            for (l, (lane, got)) in lanes.iter().zip(&batched).enumerate() {
                let reference =
                    ReferenceSolver::new(tree, lane.driver_res, lane.vdd, lane.ramp_ps).solve();
                assert_near_reference(got, &reference, taps, &format!("stage {s}, lane {l}"));
            }
        }
        let time = |f: &dyn Fn() -> f64| {
            let mut best = f64::INFINITY;
            let mut sink = 0.0;
            for _ in 0..5 {
                let started = Instant::now();
                sink += f();
                best = best.min(started.elapsed().as_secs_f64());
            }
            assert!(sink.is_finite());
            best
        };
        let kernel = time(&|| {
            let mut sum = 0.0;
            for FlowStage { tree, taps, lanes } in &stages {
                for result in solve_lanes(tree, lanes, taps) {
                    sum += result.delay50[0];
                }
            }
            sum
        });
        let scalar = time(&|| {
            let mut sum = 0.0;
            for FlowStage { tree, taps, lanes } in &stages {
                for lane in lanes {
                    let result =
                        ReferenceSolver::new(tree, lane.driver_res, lane.vdd, lane.ramp_ps).solve();
                    sum += result.delay50[taps[0]];
                }
            }
            sum
        });
        let ratio = scalar / kernel;
        // Written past the test harness's capture so the ratio shows in CI logs.
        let _ = writeln!(
            std::io::stderr(),
            "transient lanes on flow-like stages: four scalar solves {:.2} ms, \
             one four-lane kernel call {:.2} ms, {ratio:.2}x (floor 4.5x)",
            scalar * 1e3,
            kernel * 1e3
        );
        assert!(
            ratio >= 4.5,
            "four-lane kernel calls only {ratio:.2}x faster than four scalar solves (floor 4.5x)"
        );
    }

    /// Lumped RC: 100 Ω driver into a single 500 fF capacitor.
    fn lumped() -> RcTree {
        let mut t = RcTree::new();
        t.add_root(500.0);
        t
    }

    #[test]
    fn single_pole_delay_matches_theory_within_tolerance() {
        let tree = lumped();
        let solver = TransientSolver::new(&tree, 100.0, 1.2, 2.0);
        let res = solver.solve();
        // Theory: tau = 50 ps, t50 = ln2 * tau = 34.66 ps, slew = ln9*tau = 109.9 ps.
        let tau = units::rc_ps(100.0, 500.0);
        let expect_delay = units::DELAY_LN2 * tau;
        let expect_slew = units::SLEW_LN9 * tau;
        assert!(
            (res.delay50[0] - expect_delay).abs() < 0.1 * expect_delay,
            "delay {} vs {}",
            res.delay50[0],
            expect_delay
        );
        assert!(
            (res.slew[0] - expect_slew).abs() < 0.1 * expect_slew,
            "slew {} vs {}",
            res.slew[0],
            expect_slew
        );
    }

    #[test]
    fn downstream_nodes_are_later_and_slower() {
        let mut tree = RcTree::new();
        let r = tree.add_root(10.0);
        let a = tree.add_node(r, 200.0, 100.0);
        let b = tree.add_node(a, 200.0, 100.0);
        let c = tree.add_node(b, 200.0, 100.0);
        let solver = TransientSolver::new(&tree, 50.0, 1.2, 10.0);
        let res = solver.solve();
        assert!(res.delay50[a] < res.delay50[b]);
        assert!(res.delay50[b] < res.delay50[c]);
        assert!(res.slew[c] > res.slew[a]);
    }

    #[test]
    fn stronger_driver_is_faster() {
        let tree = lumped();
        let strong = TransientSolver::new(&tree, 55.0, 1.2, 2.0).solve();
        let weak = TransientSolver::new(&tree, 440.0, 1.2, 2.0).solve();
        assert!(strong.delay50[0] < weak.delay50[0]);
        assert!(strong.slew[0] < weak.slew[0]);
    }

    #[test]
    fn lower_vdd_changes_thresholds_not_network_delay_much() {
        // With a pure ramp source and linear RC network, delays measured at
        // proportional thresholds are supply-independent; the supply
        // dependence of stage delay enters through the derated driver
        // resistance, which the evaluator applies. Here we just confirm the
        // solver is well-behaved at both corners.
        let tree = lumped();
        let hi = TransientSolver::new(&tree, 100.0, 1.2, 2.0).solve();
        let lo = TransientSolver::new(&tree, 100.0, 1.0, 2.0).solve();
        assert!((hi.delay50[0] - lo.delay50[0]).abs() < 1.0);
    }

    #[test]
    fn branchy_tree_balances_equal_legs() {
        let mut tree = RcTree::new();
        let r = tree.add_root(5.0);
        let m = tree.add_node(r, 100.0, 50.0);
        let a = tree.add_node(m, 80.0, 60.0);
        let b = tree.add_node(m, 80.0, 60.0);
        let res = TransientSolver::new(&tree, 60.0, 1.2, 5.0).solve();
        assert!((res.delay50[a] - res.delay50[b]).abs() < 1e-6);
        assert!((res.slew[a] - res.slew[b]).abs() < 1e-6);
    }

    #[test]
    fn all_nodes_eventually_cross_ninety_percent() {
        let mut tree = RcTree::new();
        let r = tree.add_root(20.0);
        let mut prev = r;
        for _ in 0..20 {
            prev = tree.add_node(prev, 150.0, 30.0);
        }
        let res = TransientSolver::new(&tree, 80.0, 1.0, 40.0).solve();
        assert!(res.delay50.iter().all(|d| d.is_finite()));
        assert!(res.slew.iter().all(|s| s.is_finite()));
    }

    #[test]
    #[should_panic(expected = "cannot simulate an empty stage")]
    fn empty_stage_rejected() {
        let tree = RcTree::new();
        let _ = TransientSolver::new(&tree, 100.0, 1.2, 2.0);
    }
}
