//! Test oracles for the one construction engine the library ships
//! (`contango_core::construct`): the pre-engine code of the paper's INITIAL
//! step (§IV, §IV-C), verbatim but for the ZST's wire-width argument. The
//! recursive ZST carries its own copy of the merge mathematics, so the
//! equivalence tests in `tests/construction.rs` pin the engine's too; the
//! greedy matcher keeps its frozen grid index, and the buffer sweep clones
//! the tree per candidate. A change to what the engine builds changes these
//! oracles in the same commit, or deletes them with their tests.

use contango_core::buffering::BufferingReport;
use contango_core::error::CoreError;
use contango_core::instance::ClockNetInstance;
use contango_core::tree::{ClockTree, NodeId, NodeKind, WireSegment};
use contango_geom::{ObstacleSet, Point, TiltedRect};
use contango_tech::{CompositeBuffer, Technology, WireWidth};

/// Connection topology over the sinks: a strictly binary tree whose leaves
/// are sink indices.
#[derive(Debug, Clone, PartialEq)]
enum Topology {
    Leaf(usize),
    Merge(Box<Topology>, Box<Topology>),
}

/// Per-topology-node merging data computed bottom-up.
#[derive(Debug, Clone)]
struct MergeData {
    region: TiltedRect,
    /// Downstream capacitance in fF (wire + sink pins).
    cap: f64,
    /// Elmore delay from this merge point to every downstream sink, ps.
    delay: f64,
    /// Wirelength assigned to the edges toward the left/right children, µm.
    edge_left: f64,
    edge_right: f64,
}

/// The direct recursive DME formulation: the pre-engine reference
/// implementation.
///
/// Builds the initial zero-skew (under Elmore delay) clock tree for an
/// instance, every wire `wire_width` wide: the tree root sits at the clock
/// source and a trunk wire leads to the DME merging point of all sinks.
pub fn reference_zero_skew_tree(
    instance: &ClockNetInstance,
    tech: &Technology,
    wire_width: WireWidth,
) -> ClockTree {
    let mut tree = ClockTree::new(instance.source);
    if instance.sinks.is_empty() {
        return tree;
    }
    if instance.sinks.len() == 1 {
        let s = instance.sinks[0];
        tree.add_sink(
            tree.root(),
            s.location,
            WireSegment::direct(wire_width),
            s.id,
            s.cap,
        );
        return tree;
    }

    let code = *tech.wire(wire_width);
    let indices: Vec<usize> = (0..instance.sinks.len()).collect();
    let topo = build_topology(instance, indices);

    let mut merge_data: Vec<MergeData> = Vec::new();
    let root_idx = merge_bottom_up(
        &topo,
        instance,
        code.unit_res,
        code.unit_cap,
        &mut merge_data,
    );

    // Top-down embedding, starting from the point of the root merging region
    // closest to the clock source.
    let root_location = merge_data[root_idx]
        .region
        .closest_point_to(instance.source);
    let dme_root = tree.add_internal(tree.root(), root_location, WireSegment::direct(wire_width));
    embed_top_down(
        &topo,
        root_idx,
        &merge_data,
        instance,
        wire_width,
        &mut tree,
        dme_root,
        root_location,
    );
    tree
}

/// Recursive balanced-bisection topology: sinks are split at the median of
/// the wider spread dimension, producing a balanced binary tree whose
/// leaves are geometrically clustered.
fn build_topology(instance: &ClockNetInstance, mut indices: Vec<usize>) -> Topology {
    if indices.len() == 1 {
        return Topology::Leaf(indices[0]);
    }
    let xs: Vec<f64> = indices
        .iter()
        .map(|&i| instance.sinks[i].location.x)
        .collect();
    let ys: Vec<f64> = indices
        .iter()
        .map(|&i| instance.sinks[i].location.y)
        .collect();
    let spread = |v: &[f64]| {
        v.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - v.iter().cloned().fold(f64::INFINITY, f64::min)
    };
    let split_by_x = spread(&xs) >= spread(&ys);
    indices.sort_by(|&a, &b| {
        let (pa, pb) = (instance.sinks[a].location, instance.sinks[b].location);
        let (ka, kb) = if split_by_x {
            (pa.x, pb.x)
        } else {
            (pa.y, pb.y)
        };
        ka.partial_cmp(&kb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mid = indices.len() / 2;
    let right = indices.split_off(mid);
    Topology::Merge(
        Box::new(build_topology(instance, indices)),
        Box::new(build_topology(instance, right)),
    )
}

/// Bottom-up merging-segment computation. Returns the index of the
/// topology node's [`MergeData`] in `out`.
fn merge_bottom_up(
    topo: &Topology,
    instance: &ClockNetInstance,
    unit_res: f64,
    unit_cap: f64,
    out: &mut Vec<MergeData>,
) -> usize {
    match topo {
        Topology::Leaf(sink_idx) => {
            let s = &instance.sinks[*sink_idx];
            out.push(MergeData {
                region: TiltedRect::from_point(s.location),
                cap: s.cap,
                delay: 0.0,
                edge_left: 0.0,
                edge_right: 0.0,
            });
            out.len() - 1
        }
        Topology::Merge(left, right) => {
            let li = merge_bottom_up(left, instance, unit_res, unit_cap, out);
            let ri = merge_bottom_up(right, instance, unit_res, unit_cap, out);
            let (la, lb, region) = balance_merge(&out[li], &out[ri], unit_res, unit_cap);
            let delay = out[li].delay + edge_elmore(unit_res, unit_cap, la, out[li].cap);
            let cap = out[li].cap + out[ri].cap + unit_cap * (la + lb);
            out.push(MergeData {
                region,
                cap,
                delay,
                edge_left: la,
                edge_right: lb,
            });
            out.len() - 1
        }
    }
}

/// Elmore delay (ps) of a wire of length `len` (µm) driving `load` (fF).
fn edge_elmore(unit_res: f64, unit_cap: f64, len: f64, load: f64) -> f64 {
    unit_res * len * (0.5 * unit_cap * len + load) * contango_tech::units::RC_TO_PS
}

/// Chooses the edge lengths `(la, lb)` toward two subtrees so that the
/// Elmore delays seen at the merge point are equal, snaking the faster side
/// when the balance point would fall outside the connecting wire. Also
/// returns the merging region of the parent.
fn balance_merge(
    a: &MergeData,
    b: &MergeData,
    unit_res: f64,
    unit_cap: f64,
) -> (f64, f64, TiltedRect) {
    let d = a.region.distance(&b.region);
    let r = unit_res;
    let c = unit_cap;
    // Solve r·x(c·x/2 + Ca) + Ta = r·(d−x)(c·(d−x)/2 + Cb) + Tb for x = la.
    let denom = r * (c * d + a.cap + b.cap) * contango_tech::units::RC_TO_PS;
    let numer = (b.delay - a.delay)
        + (r * b.cap * d + 0.5 * r * c * d * d) * contango_tech::units::RC_TO_PS;
    let x = if denom.abs() < 1e-15 {
        0.5 * d
    } else {
        numer / denom
    };

    if x < 0.0 {
        // Subtree a is already slower than b even with la = 0: snake the b
        // side so that its delay catches up.
        let lb = solve_extension(r, c, b.cap, a.delay - b.delay).max(d);
        let region = a.region.intersect(&b.region.expand(lb)).unwrap_or(a.region);
        (0.0, lb, region)
    } else if x > d {
        let la = solve_extension(r, c, a.cap, b.delay - a.delay).max(d);
        let region = b.region.intersect(&a.region.expand(la)).unwrap_or(b.region);
        (la, 0.0, region)
    } else {
        let la = x;
        let lb = d - x;
        let region = a
            .region
            .expand(la)
            .intersect(&b.region.expand(lb))
            .unwrap_or_else(|| {
                TiltedRect::from_point(a.region.closest_point_to(b.region.center()))
            });
        (la, lb, region)
    }
}

/// Solves `r·l(c·l/2 + cap)·RC_TO_PS = delay_gap` for `l ≥ 0` (the snaked
/// length needed to add `delay_gap` picoseconds in front of a subtree).
fn solve_extension(r: f64, c: f64, cap: f64, delay_gap: f64) -> f64 {
    if delay_gap <= 0.0 {
        return 0.0;
    }
    let gap = delay_gap / contango_tech::units::RC_TO_PS;
    // (r c / 2) l² + r·cap·l − gap = 0
    let qa = 0.5 * r * c;
    let qb = r * cap;
    if qa.abs() < 1e-15 {
        return gap / qb.max(1e-12);
    }
    (-qb + (qb * qb + 4.0 * qa * gap).sqrt()) / (2.0 * qa)
}

/// Top-down embedding: place each merge point at the feasible location
/// closest to its parent and emit tree nodes.
#[allow(clippy::too_many_arguments)]
fn embed_top_down(
    topo: &Topology,
    data_idx: usize,
    data: &[MergeData],
    instance: &ClockNetInstance,
    width: WireWidth,
    tree: &mut ClockTree,
    tree_node: NodeId,
    location: Point,
) {
    let Topology::Merge(left, right) = topo else {
        return;
    };
    // Children were pushed onto `data` in left-then-right order just before
    // their parent; recover their indices by walking the topology again.
    let (li, ri) = child_indices(topo, data_idx, data);
    for (child_topo, child_idx, assigned_len) in [
        (left.as_ref(), li, data[data_idx].edge_left),
        (right.as_ref(), ri, data[data_idx].edge_right),
    ] {
        let child_region = data[child_idx].region;
        let child_loc = child_region.closest_point_to(location);
        let geometric = location.manhattan(child_loc);
        let extra = (assigned_len - geometric).max(0.0);
        let wire = WireSegment {
            width,
            route: Vec::new(),
            extra_length: extra,
        };
        let child_node = match child_topo {
            Topology::Leaf(sink_idx) => {
                let s = &instance.sinks[*sink_idx];
                tree.add_sink(tree_node, s.location, wire, s.id, s.cap)
            }
            Topology::Merge(_, _) => tree.add_internal(tree_node, child_loc, wire),
        };
        embed_top_down(
            child_topo, child_idx, data, instance, width, tree, child_node, child_loc,
        );
    }
}

/// Recovers the `MergeData` indices of the two children of the topology
/// node stored at `parent_idx`. Data is laid out in postorder (left subtree,
/// right subtree, parent), so the right child is at `parent_idx − 1` and the
/// left child precedes the whole right subtree.
fn child_indices(topo: &Topology, parent_idx: usize, _data: &[MergeData]) -> (usize, usize) {
    let Topology::Merge(_, right) = topo else {
        unreachable!("child_indices is only called for merge nodes");
    };
    let right_size = topo_size(right);
    let right_idx = parent_idx - 1;
    let left_idx = parent_idx - 1 - right_size;
    let _ = right_size;
    (left_idx, right_idx)
}

fn topo_size(topo: &Topology) -> usize {
    match topo {
        Topology::Leaf(_) => 1,
        Topology::Merge(l, r) => 1 + topo_size(l) + topo_size(r),
    }
}

/// A verbatim copy of the pre-engine grid index, pinning the baseline cost
/// profile of [`reference_greedy_matching_tree`]: removal is a mask (dead
/// points stay in the buckets and are re-scanned by every later query),
/// cell *counts* are square regardless of the die aspect ratio, and every
/// pairing round pays a fresh allocation. Query results are identical to
/// `contango_geom::SpatialIndex`; only the cost differs.
mod frozen_index {
    use contango_geom::{Point, Rect};

    pub(super) struct FrozenSpatialIndex {
        points: Vec<Point>,
        bounds: Rect,
        cells_x: usize,
        cells_y: usize,
        cell_w: f64,
        cell_h: f64,
        buckets: Vec<Vec<usize>>,
        alive: Vec<bool>,
        alive_count: usize,
    }

    impl FrozenSpatialIndex {
        pub(super) fn new(points: &[Point]) -> Self {
            let n = points.len();
            let bounds = bounding_box(points);
            let target_cells = (n.max(1) as f64 / 2.0).sqrt().ceil() as usize;
            let cells_x = target_cells.max(1);
            let cells_y = target_cells.max(1);
            let cell_w = (bounds.width() / cells_x as f64).max(1e-9);
            let cell_h = (bounds.height() / cells_y as f64).max(1e-9);
            let mut index = Self {
                points: points.to_vec(),
                bounds,
                cells_x,
                cells_y,
                cell_w,
                cell_h,
                buckets: vec![Vec::new(); cells_x * cells_y],
                alive: vec![true; n],
                alive_count: n,
            };
            for (i, &p) in points.iter().enumerate() {
                let b = index.bucket_of(p);
                index.buckets[b].push(i);
            }
            index
        }

        pub(super) fn remove(&mut self, index: usize) {
            if index < self.alive.len() && self.alive[index] {
                self.alive[index] = false;
                self.alive_count -= 1;
            }
        }

        pub(super) fn nearest(&self, query: Point, exclude: Option<usize>) -> Option<usize> {
            if self.alive_count == 0 {
                return None;
            }
            let (qx, qy) = self.cell_coords(query);
            let max_ring = self.cells_x.max(self.cells_y);
            let mut best: Option<(f64, usize)> = None;
            for ring in 0..=max_ring {
                if let Some((dist, _)) = best {
                    let ring_min = (ring.saturating_sub(1)) as f64 * self.cell_w.min(self.cell_h);
                    if ring_min > dist {
                        break;
                    }
                }
                self.for_each_ring_cell(qx, qy, ring, |cx, cy| {
                    for &i in &self.buckets[cy * self.cells_x + cx] {
                        if !self.alive[i] || Some(i) == exclude {
                            continue;
                        }
                        let d = self.points[i].manhattan(query);
                        if best.is_none_or(|(bd, bi)| d < bd || (d == bd && i < bi)) {
                            best = Some((d, i));
                        }
                    }
                });
            }
            best.map(|(_, i)| i)
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

        fn for_each_ring_cell(
            &self,
            qx: usize,
            qy: usize,
            ring: usize,
            mut f: impl FnMut(usize, usize),
        ) {
            let r = ring as isize;
            let (qx, qy) = (qx as isize, qy as isize);
            let visit = |cx: isize, cy: isize, f: &mut dyn FnMut(usize, usize)| {
                if cx >= 0
                    && cy >= 0
                    && (cx as usize) < self.cells_x
                    && (cy as usize) < self.cells_y
                {
                    f(cx as usize, cy as usize);
                }
            };
            if r == 0 {
                visit(qx, qy, &mut f);
                return;
            }
            for dx in -r..=r {
                visit(qx + dx, qy - r, &mut f);
                visit(qx + dx, qy + r, &mut f);
            }
            for dy in (-r + 1)..=(r - 1) {
                visit(qx - r, qy + dy, &mut f);
                visit(qx + r, qy + dy, &mut f);
            }
        }
    }

    fn bounding_box(points: &[Point]) -> Rect {
        if points.is_empty() {
            return Rect::new(0.0, 0.0, 1.0, 1.0);
        }
        let mut r = Rect::new(points[0].x, points[0].y, points[0].x, points[0].y);
        for p in points {
            r = r.union(&Rect::new(p.x, p.y, p.x, p.y));
        }
        Rect::new(
            r.lo.x,
            r.lo.y,
            r.hi.x.max(r.lo.x + 1.0),
            r.hi.y.max(r.lo.y + 1.0),
        )
    }
}

/// The pre-engine greedy-matching formulation: the pinned reference the
/// engine is tested against and benchmarked over.
///
/// Runs verbatim pre-engine code, including its own frozen copy of the
/// grid index: per-round index construction allocates from scratch,
/// removal is mask-only (dead points stay in the buckets), and the grid's
/// cell count is square regardless of the die aspect ratio — so
/// late-round nearest-neighbour queries degenerate towards full scans
/// (the O(n²) tail the engine removes).
pub fn reference_greedy_matching_tree(instance: &ClockNetInstance) -> ClockTree {
    let mut tree = ClockTree::new(instance.source);

    /// One cluster of the matching hierarchy.
    struct Cluster {
        /// Balance point of the cluster.
        location: Point,
        /// Total sink capacitance below the cluster (weights the merge).
        cap: f64,
        /// Node in the output tree representing this cluster, created
        /// lazily when the cluster is attached to its parent.
        build: ClusterBuild,
    }

    enum ClusterBuild {
        Sink { sink_id: usize, cap: f64 },
        Merge(Box<Cluster>, Box<Cluster>),
    }

    if instance.sinks.is_empty() {
        return tree;
    }

    let mut clusters: Vec<Cluster> = instance
        .sinks
        .iter()
        .map(|s| Cluster {
            location: s.location,
            cap: s.cap,
            build: ClusterBuild::Sink {
                sink_id: s.id,
                cap: s.cap,
            },
        })
        .collect();

    while clusters.len() > 1 {
        let points: Vec<Point> = clusters.iter().map(|c| c.location).collect();
        let mut index = frozen_index::FrozenSpatialIndex::new(&points);
        let mut order: Vec<usize> = (0..clusters.len()).collect();
        // Pair clusters in a deterministic order: densest neighbourhoods
        // first is not required for correctness, plain index order keeps the
        // construction reproducible.
        order.sort_unstable();
        let mut taken = vec![false; clusters.len()];
        let mut next_round: Vec<Cluster> = Vec::with_capacity(clusters.len() / 2 + 1);
        // Drain clusters into the vector below so they can be moved out.
        let mut slots: Vec<Option<Cluster>> = clusters.drain(..).map(Some).collect();

        for i in order {
            if taken[i] {
                continue;
            }
            index.remove(i);
            let partner = index.nearest(slots[i].as_ref().expect("present").location, None);
            match partner {
                Some(j) if !taken[j] => {
                    index.remove(j);
                    taken[i] = true;
                    taken[j] = true;
                    let a = slots[i].take().expect("cluster i present");
                    let b = slots[j].take().expect("cluster j present");
                    let total = a.cap + b.cap;
                    let w = if total > 0.0 { a.cap / total } else { 0.5 };
                    let location = Point::new(
                        a.location.x * w + b.location.x * (1.0 - w),
                        a.location.y * w + b.location.y * (1.0 - w),
                    );
                    next_round.push(Cluster {
                        location,
                        cap: total,
                        build: ClusterBuild::Merge(Box::new(a), Box::new(b)),
                    });
                }
                _ => {
                    // Odd cluster out: promote it to the next round as-is.
                    taken[i] = true;
                    next_round.push(slots[i].take().expect("cluster i present"));
                }
            }
        }
        clusters = next_round;
    }

    // Materialize the hierarchy into the clock tree.
    fn attach(tree: &mut ClockTree, parent: NodeId, cluster: Cluster) {
        match cluster.build {
            ClusterBuild::Sink { sink_id, cap } => {
                tree.add_sink(
                    parent,
                    cluster.location,
                    WireSegment::default(),
                    sink_id,
                    cap,
                );
            }
            ClusterBuild::Merge(a, b) => {
                let node = tree.add_internal(parent, cluster.location, WireSegment::default());
                attach(tree, node, *a);
                attach(tree, node, *b);
            }
        }
    }
    let top = clusters.pop().expect("at least one cluster remains");
    let root = tree.root();
    attach(&mut tree, root, top);
    tree
}

/// Inserts `composite` inverters bottom-up wherever the accumulated
/// downstream capacitance would otherwise exceed `max_cap` femtofarads.
/// Buffers are never placed strictly inside an obstacle. Returns the number
/// of buffers inserted.
///
/// A buffer is also always placed at the top of the tree (the first node
/// below the root) so that the clock source never drives the tree directly.
pub fn insert_buffers_by_cap(
    tree: &mut ClockTree,
    tech: &Technology,
    composite: CompositeBuffer,
    max_cap: f64,
    obstacles: &ObstacleSet,
) -> usize {
    let mut inserted = 0;
    let mut load = vec![0.0_f64; tree.len()];
    // Longest unbuffered wire path below each node, used to bound the
    // wire-resistance contribution to the stage's output slew (resistive
    // shielding makes far-away taps slower than a lumped estimate).
    let mut unbuffered_len = vec![0.0_f64; tree.len()];
    // The 1.4 factor covers rise/fall asymmetry and the slew degradation a
    // finite input ramp adds on top of the single-pole estimate.
    let worst_res = composite.output_res() * tech.derate(tech.low_corner.vdd) * 1.4;
    let slew_target = 0.6 * tech.slew_limit;
    // Single-pole slew estimate of a stage with `cap` fF of load and a
    // `longest` µm unbuffered wire path, driven by the chosen composite.
    let est_slew = |cap: f64, longest: f64, wire_res_per_um: f64| -> f64 {
        contango_tech::units::SLEW_LN9
            * contango_tech::units::rc_ps(
                worst_res + wire_res_per_um * longest,
                cap + composite.output_cap(),
            )
    };

    for id in tree.postorder() {
        let kind = tree.node(id).kind;
        let children: Vec<NodeId> = tree.node(id).children.clone();
        let own = match kind {
            NodeKind::Sink(sid) => tree.sink_cap(sid),
            NodeKind::Internal => 0.0,
        };
        // Gather the children's contributions, largest first, buffering
        // children *before* the accumulated stage would violate the slew
        // estimate (a buffer placed higher would be too late: its own stage
        // would already carry the excessive load).
        let mut contributions: Vec<(NodeId, f64, f64, f64)> = children
            .into_iter()
            .map(|c| {
                let code = tech.wire(tree.node(c).wire.width);
                let len = tree.edge_length(c);
                (
                    c,
                    code.capacitance(len) + load[c],
                    len + unbuffered_len[c],
                    len,
                )
            })
            .collect();
        contributions.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite caps"));

        let wire_res_per_um = tech.wire(tree.node(id).wire.width).unit_res;
        let mut acc = own;
        let mut longest = 0.0_f64;
        for (c, contrib, path, edge_len) in contributions {
            let cand_acc = acc + contrib;
            let cand_longest = longest.max(path);
            let child_legal = !obstacles.contains_point_strict(tree.node(c).location);
            let child_buffered = tree.node(c).buffer.is_some();
            let too_slow = est_slew(cand_acc, cand_longest, wire_res_per_um) > slew_target
                || cand_acc > max_cap;
            if too_slow && child_legal && !child_buffered {
                tree.node_mut(c).buffer = Some(composite);
                inserted += 1;
                let code = tech.wire(tree.node(c).wire.width);
                acc += code.capacitance(edge_len) + composite.input_cap();
                longest = longest.max(edge_len);
            } else {
                acc = cand_acc;
                longest = cand_longest;
            }
        }

        let is_root = tree.node(id).parent.is_none();
        let legal_site = !obstacles.contains_point_strict(tree.node(id).location);
        let top_of_tree = tree
            .node(id)
            .parent
            .map(|p| p == tree.root())
            .unwrap_or(false);
        if !is_root && legal_site && tree.node(id).buffer.is_none() && top_of_tree {
            tree.node_mut(id).buffer = Some(composite);
            inserted += 1;
        }
        if tree.node(id).buffer.is_some() {
            load[id] = composite.input_cap();
            unbuffered_len[id] = 0.0;
        } else {
            load[id] = acc;
            unbuffered_len[id] = longest;
        }
    }
    inserted
}

/// Removes every buffer from the tree (used when re-running the buffering
/// sweep with a different composite).
pub fn strip_buffers(tree: &mut ClockTree) {
    for id in 0..tree.len() {
        tree.node_mut(id).buffer = None;
    }
}

/// Sweeps composite-buffer configurations from strongest to weakest and
/// inserts the strongest one whose resulting network capacitance stays
/// within `(1 − power_reserve) × cap_limit`, as in Section IV-C of the paper
/// (γ = `power_reserve` of the budget is kept for later optimizations).
///
/// `candidates` must be ordered from weakest to strongest or in any order;
/// the function sorts them by drive strength internally.
///
/// # Errors
///
/// Returns an error if even the weakest candidate exceeds the budget.
pub fn choose_and_insert_buffers(
    tree: &mut ClockTree,
    tech: &Technology,
    candidates: &[CompositeBuffer],
    cap_limit: f64,
    power_reserve: f64,
    obstacles: &ObstacleSet,
) -> Result<BufferingReport, CoreError> {
    assert!(
        !candidates.is_empty(),
        "need at least one composite candidate"
    );
    let budget = cap_limit * (1.0 - power_reserve.clamp(0.0, 0.9));
    let mut sorted: Vec<CompositeBuffer> = candidates.to_vec();
    // Strongest (lowest output resistance) first.
    sorted.sort_by(|a, b| {
        a.output_res()
            .partial_cmp(&b.output_res())
            .expect("finite resistances")
    });

    for composite in sorted {
        let mut attempt = tree.clone();
        strip_buffers(&mut attempt);
        let max_cap = tech.slew_free_cap(composite.output_res());
        let buffers = insert_buffers_by_cap(&mut attempt, tech, composite, max_cap, obstacles);
        let total_cap = attempt.total_cap(tech);
        if total_cap <= budget {
            *tree = attempt;
            return Ok(BufferingReport {
                composite,
                buffers,
                total_cap,
            });
        }
    }
    Err(CoreError::BufferBudget {
        budget_ff: budget,
        budget_pct: 100.0 * (1.0 - power_reserve),
    })
}

#[test]
fn strip_buffers_removes_everything() {
    let mut b = ClockNetInstance::builder("buf")
        .die(0.0, 0.0, 4000.0, 4000.0)
        .source(Point::new(0.0, 2000.0))
        .cap_limit(200_000.0);
    for j in 0..4 {
        for i in 0..4 {
            b = b.sink(
                Point::new(500.0 + 800.0 * i as f64, 500.0 + 800.0 * j as f64),
                20.0,
            );
        }
    }
    let inst = b.build().expect("valid");
    let tech = Technology::ispd09();
    let mut tree = contango_core::dme::build_zero_skew_tree(&inst, &tech);
    contango_core::buffering::split_long_edges(&mut tree, 300.0);
    let composite = tech.composite(tech.small_inverter(), 8);
    insert_buffers_by_cap(
        &mut tree,
        &tech,
        composite,
        tech.slew_free_cap(composite.output_res()),
        &ObstacleSet::new(),
    );
    assert!(tree.buffer_count() > 0);
    strip_buffers(&mut tree);
    assert_eq!(tree.buffer_count(), 0);
}
