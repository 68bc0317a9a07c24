//! Lowering a [`ClockTree`] to the stage-level electrical netlist consumed
//! by the evaluator.
//!
//! Every buffered node starts a new stage; the wires between a stage's
//! driver and the next buffers/sinks are discretized into π-segments so that
//! distributed wire delay is captured accurately regardless of segment
//! count.
//!
//! Lowering is organized per stage so the incremental evaluation path can
//! re-lower only stages whose nodes changed: [`plan_stages`] assigns nodes
//! to stages, a single deterministic walk ([`walk_stage`]) then produces a
//! stage's content signature and — on demand — its isolated lowering.
//! [`to_netlist`] builds a full [`Netlist`] from those per-stage lowerings;
//! [`evaluate_incremental`] skips both the netlist and every unchanged
//! stage, handing cached-or-fresh stage slots to an
//! [`IncrementalEvaluator`].

use crate::error::CoreError;
use crate::tree::{ClockTree, NodeId, NodeKind};
use contango_sim::{
    DriverSpec, EvalReport, IncrementalEvaluator, LocalTap, LocalTapKind, LoweredStage, Netlist,
    RcTree, SigBuilder, SourceSpec, Stage, StageDriver, StageSig, StageSlot, Tap, TapKind,
};
use contango_tech::Technology;

/// The partition of a [`ClockTree`] into evaluation stages: stage 0 is the
/// source stage rooted at the tree root; every buffered node starts its own
/// stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    /// Stage index of every node that roots a stage (`None` otherwise).
    pub stage_of_node: Vec<Option<usize>>,
    /// Tree node rooting each stage, indexed by stage.
    pub roots: Vec<NodeId>,
}

impl StagePlan {
    /// Number of stages.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// Returns `true` when the plan contains no stages (never the case for
    /// plans produced by [`plan_stages`]).
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

/// Assigns stage indices to the buffered nodes of `tree`.
pub fn plan_stages(tree: &ClockTree) -> StagePlan {
    let mut stage_of_node: Vec<Option<usize>> = vec![None; tree.len()];
    let mut roots: Vec<NodeId> = vec![tree.root()];
    stage_of_node[tree.root()] = Some(0);
    for id in tree.preorder() {
        if id != tree.root() && tree.node(id).buffer.is_some() {
            stage_of_node[id] = Some(roots.len());
            roots.push(id);
        }
    }
    StagePlan {
        stage_of_node,
        roots,
    }
}

/// Output of one stage walk: the stage's content signature, the stage
/// indices of its downstream stages in tap order, and (when requested) its
/// isolated lowering.
#[derive(Debug, Clone)]
pub struct StageWalk {
    /// Content signature over everything that affects the lowered stage.
    pub sig: StageSig,
    /// Global stage indices of the downstream stages, by tap ordinal.
    pub children: Vec<usize>,
    /// The lowered stage, when the walk was asked to lower.
    pub lowered: Option<LoweredStage>,
}

/// Walks stage `si` of `plan` once, hashing its content and optionally
/// lowering it.
///
/// The walk order (depth-first, children pushed in order and popped LIFO) is
/// the single source of truth shared by hashing and lowering, so equal
/// signatures imply equal lowered stages, including tap order.
pub fn walk_stage(
    tree: &ClockTree,
    tech: &Technology,
    source: &SourceSpec,
    max_segment_um: f64,
    plan: &StagePlan,
    si: usize,
    lower: bool,
) -> StageWalk {
    let seg = max_segment_um.max(1.0);
    let start = plan.roots[si];

    let mut sig = SigBuilder::new();
    sig.write_f64(seg);

    let driver = if si == 0 {
        sig.write_tag(1);
        sig.write_f64(source.output_res);
        sig.write_f64(source.slew);
        StageDriver::Source(*source)
    } else {
        let buf = tree
            .node(start)
            .buffer
            .as_ref()
            .expect("stage roots other than the source stage carry a buffer");
        let d = DriverSpec::from_composite(buf);
        sig.write_tag(2);
        sig.write_f64(d.output_res);
        sig.write_f64(d.output_cap);
        sig.write_f64(d.input_cap);
        sig.write_f64(d.intrinsic_delay);
        sig.write_bool(d.inverting);
        StageDriver::Buffer(d)
    };

    let mut rc = lower.then(RcTree::new);
    let rc_root = match &mut rc {
        Some(rc) => {
            let root_cap = match driver {
                StageDriver::Buffer(d) => d.output_cap,
                StageDriver::Source(_) => 0.0,
            };
            rc.add_root(root_cap)
        }
        None => 0,
    };
    let mut taps: Vec<LocalTap> = Vec::new();
    let mut children: Vec<usize> = Vec::new();

    // The stage's start node may itself be a sink (an inverter placed
    // directly at a sink by polarity correction).
    visit_load(
        tree,
        start,
        rc_root,
        &mut sig,
        rc.as_mut(),
        &mut taps,
        &mut children,
        plan,
        si,
    );

    // Depth-first walk below `start`, stopping at buffered nodes (which
    // become stage taps). Stack entries carry the parent's RC node (for
    // lowering) and the parent's visit index (hashed, so the signature pins
    // the in-stage tree shape, not just the multiset of edges).
    let mut visit = 0usize;
    let mut stack: Vec<(NodeId, usize, usize)> = tree
        .node(start)
        .children
        .iter()
        .map(|&c| (c, rc_root, 0))
        .collect();
    while let Some((node_id, rc_parent, parent_visit)) = stack.pop() {
        visit += 1;
        sig.write_tag(3);
        sig.write_usize(parent_visit);
        sig.write_f64(tree.edge_length(node_id));
        // Hash the technology's per-width parasitics (the values
        // `add_wire_segments` actually consumes), not just the width class,
        // so an evaluator cache never aliases lowerings produced under
        // different technologies.
        let code = tech.wire(tree.node(node_id).wire.width);
        sig.write_f64(code.unit_res);
        sig.write_f64(code.unit_cap);
        let rc_node = match &mut rc {
            Some(rc) => add_wire_segments(tree, tech, node_id, rc_parent, seg, rc),
            None => 0,
        };
        let is_stage_boundary = plan.stage_of_node[node_id].is_some() && node_id != start;
        visit_load(
            tree,
            node_id,
            rc_node,
            &mut sig,
            rc.as_mut(),
            &mut taps,
            &mut children,
            plan,
            si,
        );
        if !is_stage_boundary {
            for &c in &tree.node(node_id).children {
                stack.push((c, rc_node, visit));
            }
        }
    }

    StageWalk {
        sig: sig.finish(),
        children,
        lowered: rc.map(|tree| LoweredStage { driver, tree, taps }),
    }
}

/// Lowers `tree` to a [`Netlist`] driven by `source`.
///
/// Wire parasitics come from the tree's per-edge wire width and `tech`'s
/// wire library; each edge is split into π-segments no longer than
/// `max_segment_um`. Buffer input/output capacitance and sink pin
/// capacitance are attached to the appropriate nodes.
///
/// # Errors
///
/// Returns an error if the resulting netlist fails structural validation
/// (which indicates a malformed tree, e.g. unreachable stages).
pub fn to_netlist(
    tree: &ClockTree,
    tech: &Technology,
    source: &SourceSpec,
    max_segment_um: f64,
) -> Result<Netlist, CoreError> {
    let plan = plan_stages(tree);
    let mut stages: Vec<Stage> = Vec::with_capacity(plan.len());
    for si in 0..plan.len() {
        let walk = walk_stage(tree, tech, source, max_segment_um, &plan, si, true);
        let lowered = walk.lowered.expect("walk was asked to lower");
        let taps = lowered
            .taps
            .iter()
            .map(|t| Tap {
                node: t.node,
                kind: match t.kind {
                    LocalTapKind::Sink(id) => TapKind::Sink(id),
                    LocalTapKind::Child(k) => TapKind::Stage(walk.children[k]),
                },
            })
            .collect();
        stages.push(Stage {
            driver: lowered.driver,
            tree: lowered.tree,
            taps,
        });
    }
    Ok(Netlist::new(stages, 0)?)
}

/// Evaluates `tree` incrementally: plans the stage partition, re-lowers only
/// stages whose content signature is not already cached by `evaluator`, and
/// lets the evaluator reuse cached per-stage solves everywhere the change's
/// downstream cone does not reach.
///
/// Counts as exactly one "SPICE run", like a full evaluation, and produces a
/// report bit-identical to `evaluator.evaluator().evaluate(&to_netlist(..))`.
pub fn evaluate_incremental(
    tree: &ClockTree,
    tech: &Technology,
    source: &SourceSpec,
    max_segment_um: f64,
    evaluator: &IncrementalEvaluator,
) -> EvalReport {
    let plan = plan_stages(tree);
    let mut slots: Vec<StageSlot> = Vec::with_capacity(plan.len());
    for si in 0..plan.len() {
        let probe = walk_stage(tree, tech, source, max_segment_um, &plan, si, false);
        let fresh = if evaluator.is_cached(probe.sig) {
            None
        } else {
            let full = walk_stage(tree, tech, source, max_segment_um, &plan, si, true);
            debug_assert_eq!(full.sig, probe.sig, "hash walk and lowering walk diverged");
            Some(full.lowered.expect("walk was asked to lower"))
        };
        slots.push(StageSlot {
            sig: probe.sig,
            children: probe.children,
            fresh,
        });
    }
    evaluator.evaluate_slots(slots)
}

/// Adds the π-segment ladder for the edge ending at `node_id` and returns
/// the RC node corresponding to the tree node.
fn add_wire_segments(
    tree: &ClockTree,
    tech: &Technology,
    node_id: NodeId,
    rc_parent: usize,
    seg: f64,
    rc: &mut RcTree,
) -> usize {
    let length = tree.edge_length(node_id);
    let code = tech.wire(tree.node(node_id).wire.width);
    if length <= 1e-9 {
        // Zero-length connection: a tiny series resistance keeps the solver
        // well conditioned.
        return rc.add_node(rc_parent, 1e-3, 0.0);
    }
    let nseg = (length / seg).ceil().max(1.0) as usize;
    let seg_len = length / nseg as f64;
    let seg_res = code.resistance(seg_len);
    let seg_cap = code.capacitance(seg_len);
    let mut cur = rc_parent;
    for _ in 0..nseg {
        // π-model: half the segment capacitance at each end.
        rc.add_cap(cur, 0.5 * seg_cap);
        cur = rc.add_node(cur, seg_res, 0.5 * seg_cap);
    }
    cur
}

/// Hashes (and, when lowering, attaches) the load of one tree node: sink
/// capacitance, downstream-buffer input capacitance and the corresponding
/// taps.
#[allow(clippy::too_many_arguments)]
fn visit_load(
    tree: &ClockTree,
    node_id: NodeId,
    rc_node: usize,
    sig: &mut SigBuilder,
    rc: Option<&mut RcTree>,
    taps: &mut Vec<LocalTap>,
    children: &mut Vec<usize>,
    plan: &StagePlan,
    current_stage: usize,
) {
    let mut rc = rc;
    if let NodeKind::Sink(sid) = tree.node(node_id).kind {
        // A sink that also carries a buffer belongs to the buffer's own
        // stage (the buffer drives the pin); the parent stage only sees the
        // buffer input below.
        let buffered_here = plan.stage_of_node[node_id].is_some() && node_id != tree.root();
        if !buffered_here || plan.stage_of_node[node_id] == Some(current_stage) {
            sig.write_tag(4);
            sig.write_usize(sid);
            sig.write_f64(tree.sink_cap(sid));
            if let Some(rc) = rc.as_deref_mut() {
                rc.add_cap(rc_node, tree.sink_cap(sid));
                taps.push(LocalTap {
                    node: rc_node,
                    kind: LocalTapKind::Sink(sid),
                });
            }
        }
    }
    // If the node starts a different (downstream) stage, it is a tap of the
    // current stage and presents its driver's input capacitance.
    if let Some(child_stage) = plan.stage_of_node[node_id] {
        if child_stage != current_stage {
            let buf = tree
                .node(node_id)
                .buffer
                .as_ref()
                .expect("stage boundaries carry buffers");
            sig.write_tag(5);
            sig.write_f64(buf.input_cap());
            let ordinal = children.len();
            children.push(child_stage);
            if let Some(rc) = rc {
                rc.add_cap(rc_node, buf.input_cap());
                taps.push(LocalTap {
                    node: rc_node,
                    kind: LocalTapKind::Child(ordinal),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::WireSegment;
    use contango_geom::Point;
    use contango_sim::{DelayModel, Evaluator};
    use contango_tech::Technology;

    fn tech() -> Technology {
        Technology::ispd09()
    }

    /// Root -> 400 µm trunk -> buffer -> two 200 µm branches to sinks.
    fn buffered_tree() -> ClockTree {
        let t = tech();
        let mut tree = ClockTree::new(Point::new(0.0, 0.0));
        let trunk = tree.add_internal(tree.root(), Point::new(400.0, 0.0), WireSegment::default());
        tree.node_mut(trunk).buffer = Some(t.composite(t.small_inverter(), 8));
        tree.add_sink(
            trunk,
            Point::new(600.0, 100.0),
            WireSegment::default(),
            0,
            20.0,
        );
        tree.add_sink(
            trunk,
            Point::new(600.0, -100.0),
            WireSegment::default(),
            1,
            20.0,
        );
        tree
    }

    #[test]
    fn lowering_creates_one_stage_per_buffer_plus_source() {
        let tree = buffered_tree();
        let netlist = to_netlist(&tree, &tech(), &SourceSpec::ispd09(), 100.0).expect("lowers");
        assert_eq!(netlist.len(), 2);
        assert_eq!(netlist.sink_count(), 2);
        assert_eq!(netlist.buffer_count(), 1);
    }

    #[test]
    fn wire_capacitance_is_preserved_by_segmentation() {
        let tree = buffered_tree();
        let t = tech();
        let netlist = to_netlist(&tree, &t, &SourceSpec::ispd09(), 37.0).expect("lowers");
        // Total cap = wires + sinks + buffer input & output caps.
        let expected = tree.total_cap(&t);
        assert!(
            (netlist.total_cap() - expected).abs() < 1e-6,
            "netlist {} vs tree {}",
            netlist.total_cap(),
            expected
        );
    }

    #[test]
    fn segment_length_does_not_change_elmore_delay() {
        let tree = buffered_tree();
        let t = tech();
        let coarse = to_netlist(&tree, &t, &SourceSpec::ispd09(), 1000.0).expect("lowers");
        let fine = to_netlist(&tree, &t, &SourceSpec::ispd09(), 10.0).expect("lowers");
        let eval = Evaluator::with_model(t, DelayModel::Elmore);
        let rc = eval.evaluate(&coarse);
        let rf = eval.evaluate(&fine);
        let lc = rc.nominal.sink(0).expect("sink").rise.latency;
        let lf = rf.nominal.sink(0).expect("sink").rise.latency;
        assert!(
            (lc - lf).abs() < 0.5,
            "π-segmentation should be insensitive to segment size: {lc} vs {lf}"
        );
    }

    #[test]
    fn symmetric_branches_have_equal_latency() {
        let tree = buffered_tree();
        let t = tech();
        let netlist = to_netlist(&tree, &t, &SourceSpec::ispd09(), 100.0).expect("lowers");
        let eval = Evaluator::with_model(t, DelayModel::Transient);
        let report = eval.evaluate(&netlist);
        assert!(report.skew() < 1e-6, "skew {}", report.skew());
    }

    #[test]
    fn unbuffered_tree_is_a_single_stage() {
        let mut tree = ClockTree::new(Point::new(0.0, 0.0));
        tree.add_sink(
            tree.root(),
            Point::new(100.0, 0.0),
            WireSegment::default(),
            0,
            5.0,
        );
        let netlist = to_netlist(&tree, &tech(), &SourceSpec::ispd09(), 50.0).expect("lowers");
        assert_eq!(netlist.len(), 1);
        assert_eq!(netlist.sink_count(), 1);
    }

    #[test]
    fn buffer_at_sink_node_forms_its_own_stage() {
        let t = tech();
        let mut tree = ClockTree::new(Point::new(0.0, 0.0));
        let sink = tree.add_sink(
            tree.root(),
            Point::new(100.0, 0.0),
            WireSegment::default(),
            0,
            5.0,
        );
        tree.node_mut(sink).buffer = Some(t.composite(t.small_inverter(), 1));
        let netlist = to_netlist(&tree, &t, &SourceSpec::ispd09(), 50.0).expect("lowers");
        assert_eq!(netlist.len(), 2);
        // The sink pin must be driven by the inverter stage, not the source.
        let root_has_sink_tap = netlist.stages[0]
            .taps
            .iter()
            .any(|tap| matches!(tap.kind, TapKind::Sink(_)));
        assert!(!root_has_sink_tap);
        assert_eq!(netlist.sink_count(), 1);
    }

    #[test]
    fn narrow_wires_have_less_capacitance_than_wide() {
        let t = tech();
        let mut tree = buffered_tree();
        let wide = to_netlist(&tree, &t, &SourceSpec::ispd09(), 100.0)
            .expect("lowers")
            .total_cap();
        for id in 0..tree.len() {
            tree.node_mut(id).wire.width = contango_tech::WireWidth::Narrow;
        }
        let narrow = to_netlist(&tree, &t, &SourceSpec::ispd09(), 100.0)
            .expect("lowers")
            .total_cap();
        assert!(narrow < wide);
    }

    #[test]
    fn signatures_track_content_not_identity() {
        let t = tech();
        let source = SourceSpec::ispd09();
        let tree = buffered_tree();
        let plan = plan_stages(&tree);
        let a = walk_stage(&tree, &t, &source, 100.0, &plan, 1, false);
        // An identical clone hashes identically.
        let clone = tree.clone();
        let b = walk_stage(&clone, &t, &source, 100.0, &plan_stages(&clone), 1, false);
        assert_eq!(a.sig, b.sig);
        // Touching an edge inside the stage changes the signature …
        let mut snaked = tree.clone();
        let sink0 = snaked.sink_node(0);
        snaked.node_mut(sink0).wire.extra_length += 7.0;
        let c = walk_stage(&snaked, &t, &source, 100.0, &plan_stages(&snaked), 1, false);
        assert_ne!(a.sig, c.sig);
        // … but not the signature of the upstream stage, whose content is
        // untouched.
        let root_before = walk_stage(&tree, &t, &source, 100.0, &plan, 0, false);
        let root_after = walk_stage(&snaked, &t, &source, 100.0, &plan_stages(&snaked), 0, false);
        assert_eq!(root_before.sig, root_after.sig);
    }

    #[test]
    fn signatures_distinguish_wire_parasitics_across_technologies() {
        // Same tree, two technologies that differ only in wire parasitics:
        // the signatures must differ, otherwise a shared evaluator cache
        // would alias their lowerings.
        let a = tech();
        let b = {
            let wires = contango_tech::WireLibrary::new(
                contango_tech::WireCode::new(contango_tech::WireWidth::Narrow, 0.32, 0.34),
                contango_tech::WireCode::new(contango_tech::WireWidth::Wide, 0.16, 0.42),
            );
            let inverters =
                contango_tech::InverterLibrary::new(vec![*a.small_inverter(), *a.large_inverter()]);
            Technology::new(wires, inverters, 100.0, a.nominal_corner, a.low_corner)
        };
        let source = SourceSpec::ispd09();
        let tree = buffered_tree();
        let plan = plan_stages(&tree);
        for si in 0..plan.len() {
            let sig_a = walk_stage(&tree, &a, &source, 100.0, &plan, si, false).sig;
            let sig_b = walk_stage(&tree, &b, &source, 100.0, &plan, si, false).sig;
            assert_ne!(sig_a, sig_b, "stage {si} aliases across technologies");
        }
    }

    #[test]
    fn hash_walk_and_lowering_walk_agree() {
        let t = tech();
        let source = SourceSpec::ispd09();
        let tree = buffered_tree();
        let plan = plan_stages(&tree);
        for si in 0..plan.len() {
            let probe = walk_stage(&tree, &t, &source, 100.0, &plan, si, false);
            let full = walk_stage(&tree, &t, &source, 100.0, &plan, si, true);
            assert_eq!(probe.sig, full.sig);
            assert_eq!(probe.children, full.children);
            assert!(full.lowered.is_some());
        }
    }

    #[test]
    fn incremental_evaluation_matches_full_bit_for_bit() {
        let t = tech();
        let source = SourceSpec::ispd09();
        let mut tree = buffered_tree();
        let inc = IncrementalEvaluator::new(t.clone());
        for round in 0..4 {
            let full = inc
                .evaluator()
                .evaluate(&to_netlist(&tree, &t, &source, 100.0).expect("lowers"));
            let fast = evaluate_incremental(&tree, &t, &source, 100.0, &inc);
            assert_eq!(fast, full, "divergence at round {round}");
            // Mutate one sink edge for the next round.
            let sink = tree.sink_node(round % 2);
            tree.node_mut(sink).wire.extra_length += 11.0;
        }
        // After the warm-up evaluation, the unchanged source stage is never
        // re-lowered.
        let stats = inc.stats();
        assert!(stats.stage_hits > 0, "stats {stats:?}");
    }
}
