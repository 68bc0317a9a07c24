//! Slow-down and speed-up slacks for clock trees (paper, Section III).
//!
//! For a sink `s` with latency `T_s`, the *slow-down slack* is
//! `Tmax − T_s` (how much `s` may be delayed without increasing skew) and
//! the *speed-up slack* is `T_s − Tmin`. Slacks propagate to tree edges as
//! the minimum over downstream sinks (Lemma 1) and are monotonically
//! non-decreasing from the root towards the leaves (Lemma 2). The per-edge
//! increments `Δslow` (Proposition 1) tell a top-down optimization how much
//! each edge may be slowed before its parent's budget is consumed.
//!
//! Rising and falling transitions and both supply corners are handled
//! separately; an edge may only be tuned by the most conservative slack
//! across all of them (Section III-B).

use crate::tree::{ClockTree, NodeId, NodeKind};
use contango_sim::EvalReport;
use serde::Serialize;

/// Slack analysis of a clock tree against one evaluation report.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SlackAnalysis {
    /// Conservative slow-down slack of each sink (indexed by sink id), ps.
    pub sink_slow: Vec<f64>,
    /// Conservative speed-up slack of each sink (indexed by sink id), ps.
    pub sink_fast: Vec<f64>,
    /// Slow-down slack of the edge ending at each node (indexed by node id;
    /// the root entry is 0), ps.
    pub edge_slow: Vec<f64>,
    /// Speed-up slack of the edge ending at each node, ps.
    pub edge_fast: Vec<f64>,
    /// `Δslow` of each edge: its slow-down slack minus its parent edge's.
    pub delta_slow: Vec<f64>,
    /// `Δfast` of each edge.
    pub delta_fast: Vec<f64>,
}

impl SlackAnalysis {
    /// Computes slacks for `tree` from a multi-corner evaluation report.
    ///
    /// Sinks absent from the report (never the case for reports produced by
    /// evaluating the same tree) receive zero slack.
    pub fn compute(tree: &ClockTree, report: &EvalReport) -> Self {
        let sink_ids = tree.sink_ids();
        let max_sink = sink_ids.iter().copied().max().map_or(0, |m| m + 1);
        let mut sink_slow = vec![0.0; max_sink];
        let mut sink_fast = vec![0.0; max_sink];
        for &sid in &sink_ids {
            sink_slow[sid] = f64::INFINITY;
            sink_fast[sid] = f64::INFINITY;
        }

        // Four latency populations: {nominal, low} × {rise, fall}.
        for corner in [&report.nominal, &report.low] {
            for rise in [true, false] {
                let latency = |sid: usize| -> Option<f64> {
                    corner
                        .sink(sid)
                        .map(|s| if rise { s.rise.latency } else { s.fall.latency })
                };
                let mut t_min = f64::INFINITY;
                let mut t_max = f64::NEG_INFINITY;
                for &sid in &sink_ids {
                    if let Some(t) = latency(sid) {
                        t_min = t_min.min(t);
                        t_max = t_max.max(t);
                    }
                }
                if !t_min.is_finite() {
                    continue;
                }
                for &sid in &sink_ids {
                    if let Some(t) = latency(sid) {
                        sink_slow[sid] = sink_slow[sid].min(t_max - t);
                        sink_fast[sid] = sink_fast[sid].min(t - t_min);
                    }
                }
            }
        }
        for &sid in &sink_ids {
            if !sink_slow[sid].is_finite() {
                sink_slow[sid] = 0.0;
            }
            if !sink_fast[sid].is_finite() {
                sink_fast[sid] = 0.0;
            }
        }

        // Edge slacks: minimum over downstream sinks (Lemma 1), computed in
        // one postorder pass (O(n)).
        let n = tree.len();
        let mut edge_slow = vec![f64::INFINITY; n];
        let mut edge_fast = vec![f64::INFINITY; n];
        for id in tree.postorder() {
            let node = tree.node(id);
            if let NodeKind::Sink(sid) = node.kind {
                edge_slow[id] = edge_slow[id].min(sink_slow[sid]);
                edge_fast[id] = edge_fast[id].min(sink_fast[sid]);
            }
            for &c in &node.children {
                edge_slow[id] = edge_slow[id].min(edge_slow[c]);
                edge_fast[id] = edge_fast[id].min(edge_fast[c]);
            }
        }
        for v in edge_slow.iter_mut().chain(edge_fast.iter_mut()) {
            if !v.is_finite() {
                *v = 0.0;
            }
        }
        edge_slow[tree.root()] = 0.0;
        edge_fast[tree.root()] = 0.0;

        // Δslow / Δfast (Proposition 1).
        let mut delta_slow = vec![0.0; n];
        let mut delta_fast = vec![0.0; n];
        for id in 0..n {
            if let Some(p) = tree.node(id).parent {
                delta_slow[id] = (edge_slow[id] - edge_slow[p]).max(0.0);
                delta_fast[id] = (edge_fast[id] - edge_fast[p]).max(0.0);
            }
        }

        Self {
            sink_slow,
            sink_fast,
            edge_slow,
            edge_fast,
            delta_slow,
            delta_fast,
        }
    }

    /// Normalized slow-down slack of an edge in `[0, 1]`, for red-green
    /// gradient visualization (0 = no slack / red, 1 = the largest slack in
    /// the tree / green).
    pub fn normalized_edge_slow(&self, node: NodeId) -> f64 {
        let max = self
            .edge_slow
            .iter()
            .copied()
            .fold(0.0_f64, f64::max)
            .max(1e-12);
        (self.edge_slow[node] / max).clamp(0.0, 1.0)
    }

    /// The largest slow-down slack over all sinks, an upper bound on how
    /// much the skew can still be reduced by slow-down alone.
    pub fn max_sink_slow(&self) -> f64 {
        self.sink_slow.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dme::build_zero_skew_tree;
    use crate::instance::ClockNetInstance;
    use crate::lower::to_netlist;
    use contango_geom::Point;
    use contango_sim::{Evaluator, SourceSpec};
    use contango_tech::Technology;

    fn setup() -> (ClockTree, EvalReport) {
        let tech = Technology::ispd09();
        let inst = ClockNetInstance::builder("slack")
            .die(0.0, 0.0, 2000.0, 2000.0)
            .source(Point::new(0.0, 1000.0))
            .sink(Point::new(200.0, 200.0), 10.0)
            .sink(Point::new(1800.0, 300.0), 10.0)
            .sink(Point::new(400.0, 1700.0), 30.0)
            .sink(Point::new(1600.0, 1600.0), 10.0)
            .sink(Point::new(1000.0, 1000.0), 20.0)
            .cap_limit(1e9)
            .build()
            .expect("valid");
        let mut tree = build_zero_skew_tree(&inst, &tech);
        // Perturb one sink edge so the tree has real skew and hence slack.
        let victim = tree.sink_node(0);
        tree.node_mut(victim).wire.extra_length += 400.0;
        let netlist = to_netlist(&tree, &tech, &SourceSpec::ispd09(), 50.0).expect("lowers");
        let report = Evaluator::new(tech).evaluate(&netlist);
        (tree, report)
    }

    #[test]
    fn sink_slacks_are_nonnegative_and_one_is_zero() {
        let (tree, report) = setup();
        let slacks = SlackAnalysis::compute(&tree, &report);
        for &sid in &tree.sink_ids() {
            assert!(slacks.sink_slow[sid] >= 0.0);
            assert!(slacks.sink_fast[sid] >= 0.0);
        }
        // The slowest sink has (near) zero slow-down slack, the fastest has
        // (near) zero speed-up slack.
        let min_slow = slacks
            .sink_slow
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let min_fast = slacks
            .sink_fast
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!(min_slow < 1e-9);
        assert!(min_fast < 1e-9);
    }

    #[test]
    fn slowest_sink_is_the_perturbed_one() {
        let (tree, report) = setup();
        let slacks = SlackAnalysis::compute(&tree, &report);
        // Sink 0 got 400 µm of snaking, so it is the slowest: zero slow-down
        // slack, maximal speed-up slack.
        assert!(slacks.sink_slow[0] < 1e-9);
        assert!(slacks.sink_fast[0] > 0.0);
    }

    #[test]
    fn edge_slack_is_min_over_downstream_sinks() {
        let (tree, report) = setup();
        let slacks = SlackAnalysis::compute(&tree, &report);
        for id in 0..tree.len() {
            let sinks = tree.subtree_sinks(id);
            if sinks.is_empty() || id == tree.root() {
                continue;
            }
            let expect = sinks
                .iter()
                .map(|&s| slacks.sink_slow[s])
                .fold(f64::INFINITY, f64::min);
            assert!(
                (slacks.edge_slow[id] - expect).abs() < 1e-9,
                "edge {id}: {} vs {}",
                slacks.edge_slow[id],
                expect
            );
        }
    }

    #[test]
    fn lemma2_edge_slack_monotone_from_root() {
        let (tree, report) = setup();
        let slacks = SlackAnalysis::compute(&tree, &report);
        for id in 0..tree.len() {
            if let Some(p) = tree.node(id).parent {
                assert!(
                    slacks.edge_slow[id] + 1e-9 >= slacks.edge_slow[p],
                    "edge {id} slack below its parent's"
                );
                assert!(slacks.edge_fast[id] + 1e-9 >= slacks.edge_fast[p]);
            }
        }
    }

    #[test]
    fn deltas_sum_to_edge_slack_along_paths() {
        let (tree, report) = setup();
        let slacks = SlackAnalysis::compute(&tree, &report);
        for &sid in &tree.sink_ids() {
            let node = tree.sink_node(sid);
            let sum: f64 = tree
                .path_to_root(node)
                .iter()
                .map(|&n| slacks.delta_slow[n])
                .sum();
            assert!(
                (sum - slacks.edge_slow[node]).abs() < 1e-6,
                "sink {sid}: Δ sum {} vs slack {}",
                sum,
                slacks.edge_slow[node]
            );
        }
    }

    #[test]
    fn normalized_slack_is_in_unit_range() {
        let (tree, report) = setup();
        let slacks = SlackAnalysis::compute(&tree, &report);
        for id in 0..tree.len() {
            let v = slacks.normalized_edge_slow(id);
            assert!((0.0..=1.0).contains(&v));
        }
        assert!(slacks.max_sink_slow() > 0.0);
    }
}
