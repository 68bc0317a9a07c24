//! Cross-link and mesh-overlay analysis (extension of the paper's
//! conclusions).
//!
//! The paper argues that strong tree optimization "can make it difficult to
//! justify the insertion of cross-links", while noting that trees can still
//! be "integrated with meshes, as is common in modern CPU design" — better
//! trees allow smaller meshes. This module quantifies both statements for a
//! synthesized tree:
//!
//! * [`propose_cross_links`] finds sink pairs where a non-tree link would
//!   average a fast and a slow sink, and estimates the skew that would
//!   remain if the top proposals were inserted. After Contango's tuning the
//!   estimated benefit is typically negligible — the paper's claim.
//! * [`MeshOverlay::design`] sizes a uniform leaf mesh over the sink area
//!   and reports its wirelength, capacitance and driver demand, so the
//!   tree-versus-mesh power trade-off can be tabulated.
//!
//! Both are *analyses*: they do not modify the tree, because non-tree edges
//! cannot be represented in the tree netlist the rest of the flow operates
//! on.

use crate::instance::ClockNetInstance;
use crate::tree::ClockTree;
use contango_sim::EvalReport;
use contango_tech::{Technology, WireWidth};
use serde::Serialize;

/// One proposed cross-link between two sinks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CrossLinkProposal {
    /// The slower sink of the pair.
    pub slow_sink: usize,
    /// The faster sink of the pair.
    pub fast_sink: usize,
    /// Manhattan distance between the two sinks, in µm.
    pub distance_um: f64,
    /// Nominal latency difference between the two sinks, in ps.
    pub latency_gap_ps: f64,
    /// Additional wire capacitance of the link, in fF.
    pub link_cap_ff: f64,
}

impl CrossLinkProposal {
    /// The latency both sinks would settle at if the link fully averaged
    /// them (the idealized first-order model of a cross-link).
    pub fn averaged_latency(&self, slow_latency: f64) -> f64 {
        slow_latency - self.latency_gap_ps / 2.0
    }
}

/// Result of a cross-link analysis.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CrossLinkAnalysis {
    /// Nominal skew of the tree as evaluated, ps.
    pub skew_before: f64,
    /// Estimated skew if every proposed link were inserted and behaved as an
    /// ideal averager, ps.
    pub estimated_skew_after: f64,
    /// The proposals, strongest first.
    pub proposals: Vec<CrossLinkProposal>,
}

impl CrossLinkAnalysis {
    /// Estimated relative skew improvement of the proposals (0 when no link
    /// helps).
    pub fn relative_improvement(&self) -> f64 {
        if self.skew_before <= 0.0 {
            return 0.0;
        }
        ((self.skew_before - self.estimated_skew_after) / self.skew_before).max(0.0)
    }
}

/// Proposes up to `max_links` cross-links between geometrically close
/// fast/slow sink pairs and estimates the skew remaining after insertion.
///
/// A pair qualifies when the two sinks are within `max_distance_um` of each
/// other and their nominal latencies straddle the latency midpoint. The
/// estimate assumes an ideal link that averages the two latencies — an upper
/// bound on what a real link achieves, which is exactly what is needed to
/// support (or refute) "links are not worth it" for a given tree.
pub fn propose_cross_links(
    tree: &ClockTree,
    report: &EvalReport,
    tech: &Technology,
    max_links: usize,
    max_distance_um: f64,
) -> CrossLinkAnalysis {
    let corner = &report.nominal;
    let skew_before = report.skew();
    let mut latencies: Vec<(usize, f64)> = corner
        .sinks
        .iter()
        .map(|s| (s.sink_id, s.max_latency()))
        .collect();
    if latencies.len() < 2 || max_links == 0 {
        return CrossLinkAnalysis {
            skew_before,
            estimated_skew_after: skew_before,
            proposals: Vec::new(),
        };
    }
    latencies.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite latencies"));
    let min_latency = latencies.first().expect("non-empty").1;
    let max_latency = latencies.last().expect("non-empty").1;
    let midpoint = 0.5 * (min_latency + max_latency);

    // Candidate pairs: a sink from the slow half and one from the fast half,
    // close enough to connect cheaply.
    let mut proposals = Vec::new();
    for &(slow_id, slow_lat) in latencies.iter().rev().take(latencies.len() / 2) {
        if slow_lat <= midpoint {
            continue;
        }
        for &(fast_id, fast_lat) in latencies.iter().take(latencies.len() / 2) {
            if fast_lat > midpoint {
                continue;
            }
            let a = tree.node(tree.sink_node(slow_id)).location;
            let b = tree.node(tree.sink_node(fast_id)).location;
            let distance = a.manhattan(b);
            if distance > max_distance_um {
                continue;
            }
            let gap = slow_lat - fast_lat;
            proposals.push(CrossLinkProposal {
                slow_sink: slow_id,
                fast_sink: fast_id,
                distance_um: distance,
                latency_gap_ps: gap,
                link_cap_ff: tech.wire(WireWidth::Wide).capacitance(distance),
            });
        }
    }
    // Strongest proposals first: largest latency gap closed per µm of link.
    proposals.sort_by(|a, b| {
        let score_a = a.latency_gap_ps / a.distance_um.max(1.0);
        let score_b = b.latency_gap_ps / b.distance_um.max(1.0);
        score_b
            .partial_cmp(&score_a)
            .expect("finite scores")
            .then(a.slow_sink.cmp(&b.slow_sink))
            .then(a.fast_sink.cmp(&b.fast_sink))
    });
    // At most one link per sink, up to the requested count.
    let mut used: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    let mut selected = Vec::new();
    for p in proposals {
        if selected.len() >= max_links {
            break;
        }
        if used.contains(&p.slow_sink) || used.contains(&p.fast_sink) {
            continue;
        }
        used.insert(p.slow_sink);
        used.insert(p.fast_sink);
        selected.push(p);
    }

    // Estimate the post-insertion skew: linked sinks move to their pair
    // average, unlinked sinks keep their latency.
    let mut adjusted: Vec<f64> = Vec::with_capacity(latencies.len());
    for &(sid, lat) in &latencies {
        let adjusted_lat = selected
            .iter()
            .find(|p| p.slow_sink == sid || p.fast_sink == sid)
            .map(|p| {
                let partner = if p.slow_sink == sid {
                    p.fast_sink
                } else {
                    p.slow_sink
                };
                let partner_lat = latencies
                    .iter()
                    .find(|&&(id, _)| id == partner)
                    .map(|&(_, l)| l)
                    .unwrap_or(lat);
                0.5 * (lat + partner_lat)
            })
            .unwrap_or(lat);
        adjusted.push(adjusted_lat);
    }
    let estimated_skew_after = adjusted.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
        - adjusted.iter().fold(f64::INFINITY, |m, &v| m.min(v));

    CrossLinkAnalysis {
        skew_before,
        estimated_skew_after: estimated_skew_after.max(0.0).min(skew_before),
        proposals: selected,
    }
}

/// A uniform clock-mesh overlay sized for an instance's sink region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct MeshOverlay {
    /// Mesh pitch in µm.
    pub pitch_um: f64,
    /// Number of horizontal mesh wires.
    pub rows: usize,
    /// Number of vertical mesh wires.
    pub cols: usize,
    /// Total mesh wirelength in µm.
    pub wirelength_um: f64,
    /// Total mesh wire capacitance in fF.
    pub total_cap_ff: f64,
    /// Number of mesh drivers needed to satisfy the slew-free capacitance
    /// limit of the strongest composite buffer.
    pub drivers_needed: usize,
    /// Mesh capacitance as a fraction of the instance's capacitance budget.
    pub cap_overhead: f64,
}

impl MeshOverlay {
    /// Sizes a uniform mesh of the given `pitch_um` over the sink bounding
    /// box of `instance`.
    ///
    /// # Panics
    ///
    /// Panics if `pitch_um` is not positive or the instance has no sinks.
    pub fn design(instance: &ClockNetInstance, tech: &Technology, pitch_um: f64) -> Self {
        assert!(pitch_um > 0.0, "mesh pitch must be positive");
        let bbox = instance
            .sink_bounding_box()
            .expect("mesh design requires at least one sink");
        let rows = (bbox.height() / pitch_um).floor() as usize + 1;
        let cols = (bbox.width() / pitch_um).floor() as usize + 1;
        let wirelength = rows as f64 * bbox.width() + cols as f64 * bbox.height();
        let wire = tech.wire(WireWidth::Wide);
        let total_cap = wire.capacitance(wirelength);
        let strongest = tech.composite(tech.small_inverter(), 8);
        let slew_free = tech.slew_free_cap(strongest.output_res()).max(1.0);
        let drivers = (total_cap / slew_free).ceil().max(1.0) as usize;
        Self {
            pitch_um,
            rows,
            cols,
            wirelength_um: wirelength,
            total_cap_ff: total_cap,
            drivers_needed: drivers,
            cap_overhead: total_cap / instance.cap_limit,
        }
    }

    /// Switching power of the mesh wires alone, in µW, at the technology's
    /// reporting frequency.
    pub fn switching_power_uw(&self, tech: &Technology) -> f64 {
        tech.switching_power_uw(self.total_cap_ff)
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

    fn instance() -> ClockNetInstance {
        let mut b = ClockNetInstance::builder("crosslink-test")
            .die(0.0, 0.0, 3000.0, 3000.0)
            .source(Point::new(0.0, 1500.0))
            .cap_limit(500_000.0);
        for j in 0..4 {
            for i in 0..4 {
                b = b.sink(
                    Point::new(300.0 + 700.0 * i as f64, 300.0 + 700.0 * j as f64),
                    8.0 + 6.0 * ((i * 3 + j) % 4) as f64,
                );
            }
        }
        b.build().expect("valid")
    }

    fn evaluated_tree() -> (ClockTree, EvalReport, Technology) {
        let tech = Technology::ispd09();
        let inst = instance();
        let tree = build_zero_skew_tree(&inst, &tech);
        let netlist = to_netlist(&tree, &tech, &SourceSpec::ispd09(), 150.0).expect("lowers");
        let report = Evaluator::new(tech.clone()).evaluate(&netlist);
        (tree, report, tech)
    }

    #[test]
    fn proposals_respect_distance_and_count_limits() {
        let (tree, report, tech) = evaluated_tree();
        let analysis = propose_cross_links(&tree, &report, &tech, 3, 2500.0);
        assert!(analysis.proposals.len() <= 3);
        for p in &analysis.proposals {
            assert!(p.distance_um <= 2500.0);
            assert!(p.latency_gap_ps >= 0.0);
            assert!(p.link_cap_ff > 0.0);
            assert_ne!(p.slow_sink, p.fast_sink);
        }
    }

    #[test]
    fn estimated_skew_never_increases() {
        let (tree, report, tech) = evaluated_tree();
        for max_links in [0, 1, 2, 5] {
            let analysis = propose_cross_links(&tree, &report, &tech, max_links, 3000.0);
            assert!(analysis.estimated_skew_after <= analysis.skew_before + 1e-9);
            assert!(analysis.relative_improvement() >= 0.0);
            assert!(analysis.relative_improvement() <= 1.0);
        }
    }

    #[test]
    fn each_sink_is_used_in_at_most_one_link() {
        let (tree, report, tech) = evaluated_tree();
        let analysis = propose_cross_links(&tree, &report, &tech, 8, 5000.0);
        let mut seen = std::collections::BTreeSet::new();
        for p in &analysis.proposals {
            assert!(seen.insert(p.slow_sink), "sink reused");
            assert!(seen.insert(p.fast_sink), "sink reused");
        }
    }

    #[test]
    fn zero_links_requested_changes_nothing() {
        let (tree, report, tech) = evaluated_tree();
        let analysis = propose_cross_links(&tree, &report, &tech, 0, 5000.0);
        assert!(analysis.proposals.is_empty());
        assert_eq!(analysis.estimated_skew_after, analysis.skew_before);
    }

    #[test]
    fn averaged_latency_sits_between_the_pair() {
        let p = CrossLinkProposal {
            slow_sink: 1,
            fast_sink: 2,
            distance_um: 100.0,
            latency_gap_ps: 20.0,
            link_cap_ff: 16.0,
        };
        let averaged = p.averaged_latency(510.0);
        assert!((averaged - 500.0).abs() < 1e-12);
    }

    #[test]
    fn mesh_design_scales_with_pitch() {
        let inst = instance();
        let tech = Technology::ispd09();
        let coarse = MeshOverlay::design(&inst, &tech, 800.0);
        let fine = MeshOverlay::design(&inst, &tech, 200.0);
        assert!(fine.rows > coarse.rows);
        assert!(fine.cols > coarse.cols);
        assert!(fine.wirelength_um > coarse.wirelength_um);
        assert!(fine.total_cap_ff > coarse.total_cap_ff);
        assert!(fine.drivers_needed >= coarse.drivers_needed);
        assert!(coarse.drivers_needed >= 1);
        assert!(coarse.cap_overhead > 0.0);
        assert!(coarse.switching_power_uw(&tech) > 0.0);
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_is_rejected() {
        let inst = instance();
        let _ = MeshOverlay::design(&inst, &Technology::ispd09(), 0.0);
    }
}
