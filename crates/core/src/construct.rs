//! The parallel, allocation-lean construction engine.
//!
//! Tree *construction* — topology generation, bottom-up DME merging,
//! top-down embedding and composite-buffer insertion — dominates flow
//! runtime now that optimization-loop evaluation is incremental
//! ([`contango_sim::incremental`]). This module rebuilds the construction
//! path around three ideas:
//!
//! 1. **Flat arenas instead of recursion.** The connection topology is a
//!    postorder array of topology nodes; merging is one forward loop over
//!    that array and embedding one backward loop, with no `Box` chains, no
//!    recursion and no per-node `Vec` churn. All scratch memory lives in a
//!    reusable [`ConstructArena`], so repeated construction (sweeps,
//!    benches, candidate search) costs no steady-state heap traffic.
//! 2. **Spatial-index pairing rounds.** Greedy matching drives every
//!    pairing round through [`SpatialIndex`], bulk re-bucketing the index
//!    per round ([`SpatialIndex::rebuild`]) and physically removing matched
//!    points, which replaces the O(n²) dead-point scan tail with an
//!    O(n log n) construction.
//! 3. **Deterministic thread fan-out.** [`ParallelConfig`] fans independent
//!    subtree merges and per-branch buffer planning out over
//!    [`std::thread::scope`]. Every thread writes disjoint arena slices and
//!    results are reduced in a fixed order, so single-thread and
//!    multi-thread construction are *bit-identical* — same tree shape, same
//!    snaking, same buffer placements.
//!
//! The recursive formulations are kept as executable specifications
//! ([`crate::dme::reference_zero_skew_tree`],
//! [`crate::topology::reference_greedy_matching_tree`],
//! [`crate::buffering::choose_and_insert_buffers`]); equivalence tests pin
//! the engine to them bit-for-bit, and an ignored timing test in
//! `tests/construction.rs` asserts the engine's speedup over them.
//!
//! The engine is what the `INITIAL` construction pass of the
//! [`crate::pipeline`] runs (see [`construct_initial`]), so observers see
//! construction like any other stage.

use crate::buffering::{default_candidates, split_long_edges, BufferingReport};
use crate::dme::{balance_merge, edge_elmore, DmeOptions, MergeData};
use crate::error::CoreError;
use crate::instance::ClockNetInstance;
use crate::obstacles::{repair_obstacle_violations, ObstacleRepairReport};
use crate::polarity::{correct_polarity, PolarityReport};
use crate::topology::{fishbone_tree, h_tree, TopologyKind};
use crate::tree::{ClockTree, NodeId, NodeKind, WireSegment};
use contango_geom::{ObstacleSet, Point, SpatialIndex, TiltedRect};
use contango_tech::{CompositeBuffer, Technology};
use serde::Serialize;

/// Sentinel for "no node" in the flat topology arena.
const NONE: usize = usize::MAX;

/// Minimum number of sinks per parallel construction chunk; below this the
/// fan-out overhead outweighs the work.
const MIN_CHUNK: usize = 64;

/// Thread fan-out knob for the construction engine.
///
/// `threads == 1` (the default) runs everything on the calling thread;
/// `threads == 0` resolves to [`std::thread::available_parallelism`]; any
/// other value is used as given. The hierarchical builder carves the
/// instance into one balanced sink region per resolved worker before
/// fanning the region subtrees out over the workers. Construction results
/// are bit-identical for every thread count: the region splits are exactly
/// the top splits the serial build would perform, and region results are
/// reduced in a fixed order along the serial spine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ParallelConfig {
    /// Worker threads to fan construction out over (0 = auto-detect).
    pub threads: usize,
}

impl ParallelConfig {
    /// Single-threaded construction (the default).
    pub const fn serial() -> Self {
        Self { threads: 1 }
    }

    /// As many threads as the host advertises.
    pub const fn auto() -> Self {
        Self { threads: 0 }
    }

    /// Construction with exactly `threads` workers.
    pub const fn with_threads(threads: usize) -> Self {
        Self { threads }
    }

    /// The effective worker count: `threads`, or the host's available
    /// parallelism when `threads == 0`.
    pub fn resolved(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

/// Sentinel for "no node" in the structure-of-arrays topology columns.
/// `u32` indices bound the engine at 2³¹ sinks (2·n−1 arena entries must
/// fit), far beyond the 1M-sink extreme-scale target, and halve the
/// topology footprint against `usize`.
const NONE32: u32 = u32::MAX;

/// Mutable structure-of-arrays view of one contiguous topology block:
/// postorder left/right child columns plus the leaf sink column
/// ([`NONE32`] where absent). Splitting the view hands disjoint column
/// windows to parallel chunk builders.
struct TopoSlices<'a> {
    left: &'a mut [u32],
    right: &'a mut [u32],
    sink: &'a mut [u32],
}

impl<'a> TopoSlices<'a> {
    fn split_at_mut(self, at: usize) -> (TopoSlices<'a>, TopoSlices<'a>) {
        let (ll, lr) = self.left.split_at_mut(at);
        let (rl, rr) = self.right.split_at_mut(at);
        let (sl, sr) = self.sink.split_at_mut(at);
        (
            TopoSlices {
                left: ll,
                right: rl,
                sink: sl,
            },
            TopoSlices {
                left: lr,
                right: rr,
                sink: sr,
            },
        )
    }

    fn set_leaf(&mut self, i: usize, sink: usize) {
        self.left[i] = NONE32;
        self.right[i] = NONE32;
        self.sink[i] = sink as u32;
    }

    fn set_merge(&mut self, i: usize, left: usize, right: usize) {
        self.left[i] = left as u32;
        self.right[i] = right as u32;
        self.sink[i] = NONE32;
    }
}

/// Mutable structure-of-arrays view of one contiguous merge block: the
/// eight per-node scalars the DME inner loops touch (the merging segment's
/// `u`/`v` bounds in rotated coordinates, subtree capacitance and delay,
/// and the two assigned edge lengths) as contiguous `f64` columns. A
/// [`MergeData`] is reconstructed only at the [`balance_merge`] boundary,
/// so the tilted-rectangle math stays in one place while the loops scan
/// flat memory.
struct MergeSlices<'a> {
    u_lo: &'a mut [f64],
    u_hi: &'a mut [f64],
    v_lo: &'a mut [f64],
    v_hi: &'a mut [f64],
    cap: &'a mut [f64],
    delay: &'a mut [f64],
    edge_left: &'a mut [f64],
    edge_right: &'a mut [f64],
}

impl<'a> MergeSlices<'a> {
    fn split_at_mut(self, at: usize) -> (MergeSlices<'a>, MergeSlices<'a>) {
        let (ul_l, ul_r) = self.u_lo.split_at_mut(at);
        let (uh_l, uh_r) = self.u_hi.split_at_mut(at);
        let (vl_l, vl_r) = self.v_lo.split_at_mut(at);
        let (vh_l, vh_r) = self.v_hi.split_at_mut(at);
        let (c_l, c_r) = self.cap.split_at_mut(at);
        let (d_l, d_r) = self.delay.split_at_mut(at);
        let (el_l, el_r) = self.edge_left.split_at_mut(at);
        let (er_l, er_r) = self.edge_right.split_at_mut(at);
        (
            MergeSlices {
                u_lo: ul_l,
                u_hi: uh_l,
                v_lo: vl_l,
                v_hi: vh_l,
                cap: c_l,
                delay: d_l,
                edge_left: el_l,
                edge_right: er_l,
            },
            MergeSlices {
                u_lo: ul_r,
                u_hi: uh_r,
                v_lo: vl_r,
                v_hi: vh_r,
                cap: c_r,
                delay: d_r,
                edge_left: el_r,
                edge_right: er_r,
            },
        )
    }

    fn get(&self, i: usize) -> MergeData {
        MergeData {
            region: TiltedRect::from_uv(self.u_lo[i], self.u_hi[i], self.v_lo[i], self.v_hi[i]),
            cap: self.cap[i],
            delay: self.delay[i],
            edge_left: self.edge_left[i],
            edge_right: self.edge_right[i],
        }
    }

    fn set(&mut self, i: usize, d: &MergeData) {
        let (u_lo, u_hi, v_lo, v_hi) = d.region.uv_bounds();
        self.u_lo[i] = u_lo;
        self.u_hi[i] = u_hi;
        self.v_lo[i] = v_lo;
        self.v_hi[i] = v_hi;
        self.cap[i] = d.cap;
        self.delay[i] = d.delay;
        self.edge_left[i] = d.edge_left;
        self.edge_right[i] = d.edge_right;
    }
}

/// Reusable scratch memory for the construction engine.
///
/// Every buffer is grown on demand and retained across builds, so a warm
/// arena constructs trees without heap allocation (beyond the returned
/// [`ClockTree`] itself). One arena serves all engine entry points; it is
/// not thread-safe — parallel fan-out happens *inside* the engine, which
/// hands each worker disjoint slices of these buffers.
#[derive(Debug, Default)]
pub struct ConstructArena {
    // --- DME/ZST construction (structure-of-arrays columns) ---
    topo_left: Vec<u32>,
    topo_right: Vec<u32>,
    topo_sink: Vec<u32>,
    m_u_lo: Vec<f64>,
    m_u_hi: Vec<f64>,
    m_v_lo: Vec<f64>,
    m_v_hi: Vec<f64>,
    m_cap: Vec<f64>,
    m_delay: Vec<f64>,
    m_edge_left: Vec<f64>,
    m_edge_right: Vec<f64>,
    loc_x: Vec<f64>,
    loc_y: Vec<f64>,
    extra: Vec<f64>,
    order_x: Vec<usize>,
    order_y: Vec<usize>,
    scratch: Vec<usize>,
    keys: Vec<(f64, usize)>,
    frames: Vec<Frame>,
    results: Vec<usize>,
    attach: Vec<(usize, NodeId)>,
    // --- greedy matching ---
    g_nodes: Vec<GreedyNode>,
    g_cur: Vec<usize>,
    g_next: Vec<usize>,
    g_points: Vec<Point>,
    g_taken: Vec<bool>,
    index: SpatialIndex,
    // --- buffer planning ---
    overlay: Vec<Option<CompositeBuffer>>,
    load: Vec<f64>,
    unbuffered: Vec<f64>,
    contribs: Vec<(NodeId, f64, f64, f64)>,
    post: Vec<NodeId>,
}

impl ConstructArena {
    /// Creates an empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The arena's current memory watermark: bytes of scratch capacity
    /// retained across builds, grouped by engine stage. Capacities only
    /// grow, so this is the high-water mark of every build the arena has
    /// served; the spatial index's internal buckets are excluded.
    pub fn watermark(&self) -> ArenaWatermark {
        fn bytes<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        ArenaWatermark {
            zst_bytes: bytes(&self.topo_left)
                + bytes(&self.topo_right)
                + bytes(&self.topo_sink)
                + bytes(&self.m_u_lo)
                + bytes(&self.m_u_hi)
                + bytes(&self.m_v_lo)
                + bytes(&self.m_v_hi)
                + bytes(&self.m_cap)
                + bytes(&self.m_delay)
                + bytes(&self.m_edge_left)
                + bytes(&self.m_edge_right)
                + bytes(&self.loc_x)
                + bytes(&self.loc_y)
                + bytes(&self.extra)
                + bytes(&self.order_x)
                + bytes(&self.order_y)
                + bytes(&self.scratch)
                + bytes(&self.keys)
                + bytes(&self.frames)
                + bytes(&self.results)
                + bytes(&self.attach),
            greedy_bytes: bytes(&self.g_nodes)
                + bytes(&self.g_cur)
                + bytes(&self.g_next)
                + bytes(&self.g_points)
                + bytes(&self.g_taken),
            buffering_bytes: bytes(&self.overlay)
                + bytes(&self.load)
                + bytes(&self.unbuffered)
                + bytes(&self.contribs)
                + bytes(&self.post),
        }
    }

    /// Reads one merge entry back out of the structure-of-arrays columns.
    fn merge_get(&self, i: usize) -> MergeData {
        MergeData {
            region: self.region_at(i),
            cap: self.m_cap[i],
            delay: self.m_delay[i],
            edge_left: self.m_edge_left[i],
            edge_right: self.m_edge_right[i],
        }
    }

    /// Writes one merge entry into the structure-of-arrays columns.
    fn merge_set(&mut self, i: usize, d: &MergeData) {
        let (u_lo, u_hi, v_lo, v_hi) = d.region.uv_bounds();
        self.m_u_lo[i] = u_lo;
        self.m_u_hi[i] = u_hi;
        self.m_v_lo[i] = v_lo;
        self.m_v_hi[i] = v_hi;
        self.m_cap[i] = d.cap;
        self.m_delay[i] = d.delay;
        self.m_edge_left[i] = d.edge_left;
        self.m_edge_right[i] = d.edge_right;
    }

    /// Reconstructs node `i`'s merging segment from its stored `u`/`v`
    /// bounds. The bounds are already ordered, so the round-trip through
    /// [`TiltedRect::from_uv`] is exact.
    fn region_at(&self, i: usize) -> TiltedRect {
        TiltedRect::from_uv(
            self.m_u_lo[i],
            self.m_u_hi[i],
            self.m_v_lo[i],
            self.m_v_hi[i],
        )
    }
}

/// A [`ConstructArena`]'s retained scratch capacity in bytes, grouped by
/// engine stage. Watermarks depend on the build history (Vec growth is
/// geometric), so they are reported alongside results but never compared
/// for equality between runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ArenaWatermark {
    /// DME/ZST construction columns: topology, merge scalars, embedding.
    pub zst_bytes: u64,
    /// Greedy-matching cluster arrays.
    pub greedy_bytes: u64,
    /// Buffer-planning overlay and postorder scratch.
    pub buffering_bytes: u64,
}

impl ArenaWatermark {
    /// Total retained bytes across all stages.
    pub fn total_bytes(&self) -> u64 {
        self.zst_bytes + self.greedy_bytes + self.buffering_bytes
    }
}

/// One work item of the iterative postorder topology builder: a half-open
/// range of the order arrays, and whether its children are already built
/// (`emit`).
#[derive(Debug, Clone, Copy)]
struct Frame {
    lo: usize,
    hi: usize,
    emit: bool,
}

// ---------------------------------------------------------------------------
// ZST/DME construction
// ---------------------------------------------------------------------------

/// Engine entry point for [`crate::dme::build_zero_skew_tree`]: identical
/// output, but all scratch memory comes from (and stays in) `arena`, and
/// independent subtree merges fan out over `options.parallel` threads.
pub fn zero_skew_tree_with(
    instance: &ClockNetInstance,
    tech: &Technology,
    options: DmeOptions,
    arena: &mut ConstructArena,
) -> ClockTree {
    let mut tree = ClockTree::new(instance.source);
    let n = instance.sinks.len();
    if n == 0 {
        return tree;
    }
    if n == 1 {
        let s = instance.sinks[0];
        tree.add_sink(
            tree.root(),
            s.location,
            WireSegment::direct(options.wire_width),
            s.id,
            s.cap,
        );
        return tree;
    }

    let code = *tech.wire(options.wire_width);
    let m = 2 * n - 1;

    // Presort the sink indices once per axis; every later split is a
    // linear-time stable partition of these orders. Sorting (key, index)
    // pairs keeps the comparator free of indirect sink lookups.
    let sinks = &instance.sinks;
    arena.scratch.clear();
    arena.scratch.resize(n, 0);
    let pair_cmp = |a: &(f64, usize), b: &(f64, usize)| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    };
    arena.keys.clear();
    arena
        .keys
        .extend(sinks.iter().enumerate().map(|(i, s)| (s.location.x, i)));
    arena.keys.sort_unstable_by(pair_cmp);
    arena.order_x.clear();
    arena.order_x.extend(arena.keys.iter().map(|&(_, i)| i));
    arena.keys.clear();
    arena
        .keys
        .extend(sinks.iter().enumerate().map(|(i, s)| (s.location.y, i)));
    arena.keys.sort_unstable_by(pair_cmp);
    arena.order_y.clear();
    arena.order_y.extend(arena.keys.iter().map(|&(_, i)| i));

    assert!(
        n <= (u32::MAX / 2) as usize,
        "instance exceeds the engine's 2^31-sink topology index space"
    );
    for col in [
        &mut arena.topo_left,
        &mut arena.topo_right,
        &mut arena.topo_sink,
    ] {
        col.clear();
        col.resize(m, NONE32);
    }
    for col in [
        &mut arena.m_u_lo,
        &mut arena.m_u_hi,
        &mut arena.m_v_lo,
        &mut arena.m_v_hi,
        &mut arena.m_cap,
        &mut arena.m_delay,
        &mut arena.m_edge_left,
        &mut arena.m_edge_right,
    ] {
        col.clear();
        col.resize(m, 0.0);
    }

    let threads = options.parallel.resolved();
    if threads > 1 && n >= 2 * MIN_CHUNK {
        build_topology_parallel(instance, code.unit_res, code.unit_cap, threads, arena);
    } else {
        let emitted = {
            let builder = TopoBuilder {
                instance,
                unit_res: code.unit_res,
                unit_cap: code.unit_cap,
                base: 0,
            };
            let mut topo = TopoSlices {
                left: &mut arena.topo_left[..],
                right: &mut arena.topo_right[..],
                sink: &mut arena.topo_sink[..],
            };
            let mut merge = MergeSlices {
                u_lo: &mut arena.m_u_lo[..],
                u_hi: &mut arena.m_u_hi[..],
                v_lo: &mut arena.m_v_lo[..],
                v_hi: &mut arena.m_v_hi[..],
                cap: &mut arena.m_cap[..],
                delay: &mut arena.m_delay[..],
                edge_left: &mut arena.m_edge_left[..],
                edge_right: &mut arena.m_edge_right[..],
            };
            builder.run(
                &mut arena.order_x[..],
                &mut arena.order_y[..],
                &mut arena.scratch[..],
                &mut topo,
                &mut merge,
                &mut arena.frames,
                &mut arena.results,
            )
        };
        debug_assert_eq!(emitted, m);
    }

    embed_and_materialize(instance, options, arena, &mut tree);
    tree
}

/// Top-down embedding over the filled arenas, then preorder tree
/// materialization. Serial by construction so node ids are deterministic.
fn embed_and_materialize(
    instance: &ClockNetInstance,
    options: DmeOptions,
    arena: &mut ConstructArena,
    tree: &mut ClockTree,
) {
    let m = arena.topo_sink.len();
    let root = m - 1;
    for col in [&mut arena.loc_x, &mut arena.loc_y, &mut arena.extra] {
        col.clear();
        col.resize(m, 0.0);
    }

    let root_loc = arena.region_at(root).closest_point_to(instance.source);
    arena.loc_x[root] = root_loc.x;
    arena.loc_y[root] = root_loc.y;
    // Postorder puts children at lower indices than their parent, so one
    // reverse sweep visits every parent before its children.
    for i in (0..m).rev() {
        if arena.topo_sink[i] != NONE32 {
            continue;
        }
        let parent_loc = Point::new(arena.loc_x[i], arena.loc_y[i]);
        for (child, assigned_len) in [
            (arena.topo_left[i] as usize, arena.m_edge_left[i]),
            (arena.topo_right[i] as usize, arena.m_edge_right[i]),
        ] {
            let child_loc = arena.region_at(child).closest_point_to(parent_loc);
            let geometric = parent_loc.manhattan(child_loc);
            arena.loc_x[child] = child_loc.x;
            arena.loc_y[child] = child_loc.y;
            arena.extra[child] = (assigned_len - geometric).max(0.0);
        }
    }

    let dme_root = tree.add_internal(
        tree.root(),
        root_loc,
        WireSegment::direct(options.wire_width),
    );
    // Iterative preorder: identical node-id assignment to the recursive
    // reference (parent, left subtree, right subtree).
    arena.attach.clear();
    arena
        .attach
        .push((arena.topo_right[root] as usize, dme_root));
    arena
        .attach
        .push((arena.topo_left[root] as usize, dme_root));
    while let Some((id, parent)) = arena.attach.pop() {
        let wire = WireSegment {
            width: options.wire_width,
            route: Vec::new(),
            extra_length: arena.extra[id],
        };
        if arena.topo_sink[id] != NONE32 {
            let s = &instance.sinks[arena.topo_sink[id] as usize];
            tree.add_sink(parent, s.location, wire, s.id, s.cap);
        } else {
            let me = tree.add_internal(parent, Point::new(arena.loc_x[id], arena.loc_y[id]), wire);
            arena.attach.push((arena.topo_right[id] as usize, me));
            arena.attach.push((arena.topo_left[id] as usize, me));
        }
    }
}

/// Computes a parent's [`MergeData`] from its two children: the single
/// merge formulation shared by the chunk builder and the spine reduction,
/// so serial and parallel construction cannot drift apart.
fn merge_node(l: &MergeData, r: &MergeData, unit_res: f64, unit_cap: f64) -> MergeData {
    let (la, lb, region) = balance_merge(l, r, unit_res, unit_cap);
    let delay = l.delay + edge_elmore(unit_res, unit_cap, la, l.cap);
    let cap = l.cap + r.cap + unit_cap * (la + lb);
    MergeData {
        region,
        cap,
        delay,
        edge_left: la,
        edge_right: lb,
    }
}

/// The iterative postorder topology + merge builder for one contiguous
/// block of the arena. `base` is the block's absolute offset; order/scratch
/// slices are local to the block and hold global sink indices.
struct TopoBuilder<'a> {
    instance: &'a ClockNetInstance,
    unit_res: f64,
    unit_cap: f64,
    base: usize,
}

impl TopoBuilder<'_> {
    /// Builds the block; returns the number of arena entries written.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &self,
        order_x: &mut [usize],
        order_y: &mut [usize],
        scratch: &mut [usize],
        topo: &mut TopoSlices<'_>,
        merge: &mut MergeSlices<'_>,
        frames: &mut Vec<Frame>,
        results: &mut Vec<usize>,
    ) -> usize {
        let sinks = &self.instance.sinks;
        let mut pos = 0usize;
        frames.clear();
        results.clear();
        frames.push(Frame {
            lo: 0,
            hi: order_x.len(),
            emit: false,
        });
        while let Some(Frame { lo, hi, emit }) = frames.pop() {
            if emit {
                let right = results.pop().expect("right subtree built");
                let left = results.pop().expect("left subtree built");
                let l = merge.get(left - self.base);
                let r = merge.get(right - self.base);
                merge.set(pos, &merge_node(&l, &r, self.unit_res, self.unit_cap));
                topo.set_merge(pos, left, right);
                results.push(self.base + pos);
                pos += 1;
                continue;
            }
            if hi - lo == 1 {
                let sink = order_x[lo];
                let s = &sinks[sink];
                merge.set(
                    pos,
                    &MergeData {
                        region: TiltedRect::from_point(s.location),
                        cap: s.cap,
                        delay: 0.0,
                        edge_left: 0.0,
                        edge_right: 0.0,
                    },
                );
                topo.set_leaf(pos, sink);
                results.push(self.base + pos);
                pos += 1;
                continue;
            }
            let mid = split_range(self.instance, order_x, order_y, scratch, lo, hi);
            frames.push(Frame { lo, hi, emit: true });
            frames.push(Frame {
                lo: mid,
                hi,
                emit: false,
            });
            frames.push(Frame {
                lo,
                hi: mid,
                emit: false,
            });
        }
        pos
    }
}

/// Splits `[lo, hi)` at the median of the wider-spread dimension, keeping
/// both order arrays sorted within each half (a linear stable partition
/// instead of the reference's per-level sort). Returns the split position.
fn split_range(
    instance: &ClockNetInstance,
    order_x: &mut [usize],
    order_y: &mut [usize],
    scratch: &mut [usize],
    lo: usize,
    hi: usize,
) -> usize {
    let sinks = &instance.sinks;
    // The order arrays are sorted by (coordinate, index) within the range,
    // so the subset's spread is last-minus-first.
    let spread_x = sinks[order_x[hi - 1]].location.x - sinks[order_x[lo]].location.x;
    let spread_y = sinks[order_y[hi - 1]].location.y - sinks[order_y[lo]].location.y;
    let split_by_x = spread_x >= spread_y;
    let mid = lo + (hi - lo) / 2;

    // The left half is the first `mid - lo` entries of the split axis'
    // order; membership elsewhere is decided against the pivot (the largest
    // left element) under the same (coordinate, index) total order.
    let (split_axis, other_axis): (&mut [usize], &mut [usize]) = if split_by_x {
        (order_x, order_y)
    } else {
        (order_y, order_x)
    };
    let pivot = split_axis[mid - 1];
    let key = |s: usize| {
        let p = sinks[s].location;
        if split_by_x {
            p.x
        } else {
            p.y
        }
    };
    let pivot_key = key(pivot);
    let in_left = |s: usize| match key(s).partial_cmp(&pivot_key) {
        Some(std::cmp::Ordering::Less) => true,
        Some(std::cmp::Ordering::Greater) => false,
        _ => s <= pivot,
    };

    let (mut a, mut b) = (lo, mid);
    for &s in &other_axis[lo..hi] {
        if in_left(s) {
            scratch[a] = s;
            a += 1;
        } else {
            scratch[b] = s;
            b += 1;
        }
    }
    debug_assert_eq!(a, mid);
    debug_assert_eq!(b, hi);
    other_axis[lo..hi].copy_from_slice(&scratch[lo..hi]);
    mid
}

/// A parallel construction chunk: a sink range and its arena offset.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    lo: usize,
    hi: usize,
    base: usize,
}

/// A merge of two chunk (or spine) roots, evaluated serially after the
/// chunk fan-out joins.
#[derive(Debug, Clone, Copy)]
struct SpineMerge {
    left: usize,
    right: usize,
    pos: usize,
}

/// Hierarchical partitioned construction: carves the sink set into
/// balanced regions by evaluating the top topology levels serially (the
/// exact splits the serial build would perform), fans the independent
/// region subtree builds out over [`std::thread::scope`], then emits the
/// connecting spine merges in order. The arena content is bit-identical to
/// the serial build for every thread count, because the region boundaries
/// *are* the serial build's top splits and the spine reduction replays its
/// merges in postorder.
fn build_topology_parallel(
    instance: &ClockNetInstance,
    unit_res: f64,
    unit_cap: f64,
    threads: usize,
    arena: &mut ConstructArena,
) {
    let n = arena.order_x.len();
    let mut chunks: Vec<Chunk> = Vec::new();
    let mut spine: Vec<SpineMerge> = Vec::new();
    let depth = threads.next_power_of_two().trailing_zeros() as usize
        + usize::from(!threads.is_power_of_two());
    let (root, next_base) = plan_chunks(
        instance,
        &mut arena.order_x[..],
        &mut arena.order_y[..],
        &mut arena.scratch[..],
        0,
        n,
        depth,
        0,
        &mut chunks,
        &mut spine,
    );
    debug_assert_eq!(root, 2 * n - 2);
    debug_assert_eq!(next_base, 2 * n - 1);

    // Hand each region its disjoint windows of the shared column arenas,
    // then batch the regions over at most `threads` workers (plan_chunks
    // can produce up to the next power of two regions, so
    // one-thread-per-region would oversubscribe the requested count).
    type ChunkWork<'w> = (
        TopoBuilder<'w>,
        &'w mut [usize],
        &'w mut [usize],
        &'w mut [usize],
        TopoSlices<'w>,
        MergeSlices<'w>,
        usize,
    );
    std::thread::scope(|scope| {
        let mut order_x = &mut arena.order_x[..];
        let mut order_y = &mut arena.order_y[..];
        let mut scratch = &mut arena.scratch[..];
        let mut topo = TopoSlices {
            left: &mut arena.topo_left[..],
            right: &mut arena.topo_right[..],
            sink: &mut arena.topo_sink[..],
        };
        let mut merge = MergeSlices {
            u_lo: &mut arena.m_u_lo[..],
            u_hi: &mut arena.m_u_hi[..],
            v_lo: &mut arena.m_v_lo[..],
            v_hi: &mut arena.m_v_hi[..],
            cap: &mut arena.m_cap[..],
            delay: &mut arena.m_delay[..],
            edge_left: &mut arena.m_edge_left[..],
            edge_right: &mut arena.m_edge_right[..],
        };
        let mut sink_cursor = 0usize;
        let mut arena_cursor = 0usize;
        let mut works: Vec<ChunkWork<'_>> = Vec::with_capacity(chunks.len());
        for &chunk in &chunks {
            let k = chunk.hi - chunk.lo;
            let (ox_skip, ox_rest) = order_x.split_at_mut(chunk.lo - sink_cursor);
            let (ox, ox_tail) = ox_rest.split_at_mut(k);
            let (oy_skip, oy_rest) = order_y.split_at_mut(chunk.lo - sink_cursor);
            let (oy, oy_tail) = oy_rest.split_at_mut(k);
            let (sc_skip, sc_rest) = scratch.split_at_mut(chunk.lo - sink_cursor);
            let (sc, sc_tail) = sc_rest.split_at_mut(k);
            let (tp_skip, tp_rest) = topo.split_at_mut(chunk.base - arena_cursor);
            let (tp, tp_tail) = tp_rest.split_at_mut(2 * k - 1);
            let (mg_skip, mg_rest) = merge.split_at_mut(chunk.base - arena_cursor);
            let (mg, mg_tail) = mg_rest.split_at_mut(2 * k - 1);
            let _ = (ox_skip, oy_skip, sc_skip, tp_skip, mg_skip);
            order_x = ox_tail;
            order_y = oy_tail;
            scratch = sc_tail;
            topo = tp_tail;
            merge = mg_tail;
            sink_cursor = chunk.hi;
            arena_cursor = chunk.base + 2 * k - 1;
            let builder = TopoBuilder {
                instance,
                unit_res,
                unit_cap,
                base: chunk.base,
            };
            works.push((builder, ox, oy, sc, tp, mg, k));
        }
        let workers = threads.min(works.len()).max(1);
        let per = works.len().div_ceil(workers);
        let mut remaining = works;
        while !remaining.is_empty() {
            let rest = remaining.split_off(per.min(remaining.len()));
            let batch = remaining;
            remaining = rest;
            scope.spawn(move || {
                let mut frames = Vec::new();
                let mut results = Vec::new();
                for (builder, ox, oy, sc, mut tp, mut mg, k) in batch {
                    let emitted =
                        builder.run(ox, oy, sc, &mut tp, &mut mg, &mut frames, &mut results);
                    debug_assert_eq!(emitted, 2 * k - 1);
                    let _ = k;
                }
            });
        }
    });

    // The spine merges combine region roots bottom-up; `plan_chunks`
    // pushed them in postorder, so children are always ready.
    for s in &spine {
        let l = arena.merge_get(s.left);
        let r = arena.merge_get(s.right);
        let parent = merge_node(&l, &r, unit_res, unit_cap);
        arena.merge_set(s.pos, &parent);
        arena.topo_left[s.pos] = s.left as u32;
        arena.topo_right[s.pos] = s.right as u32;
        arena.topo_sink[s.pos] = NONE32;
    }
}

/// Evaluates the top `depth` topology splits serially (the exact splits the
/// serial build would perform), collecting leaf ranges as chunks and the
/// connecting merges as spine nodes. Returns the subtree's arena root and
/// the next free arena offset.
#[allow(clippy::too_many_arguments)]
fn plan_chunks(
    instance: &ClockNetInstance,
    order_x: &mut [usize],
    order_y: &mut [usize],
    scratch: &mut [usize],
    lo: usize,
    hi: usize,
    depth: usize,
    base: usize,
    chunks: &mut Vec<Chunk>,
    spine: &mut Vec<SpineMerge>,
) -> (usize, usize) {
    let k = hi - lo;
    if depth == 0 || k < 2 * MIN_CHUNK || k < 2 {
        chunks.push(Chunk { lo, hi, base });
        return (base + 2 * k - 2, base + 2 * k - 1);
    }
    let mid = split_range(instance, order_x, order_y, scratch, lo, hi);
    let (left_root, after_left) = plan_chunks(
        instance,
        order_x,
        order_y,
        scratch,
        lo,
        mid,
        depth - 1,
        base,
        chunks,
        spine,
    );
    let (right_root, after_right) = plan_chunks(
        instance,
        order_x,
        order_y,
        scratch,
        mid,
        hi,
        depth - 1,
        after_left,
        chunks,
        spine,
    );
    spine.push(SpineMerge {
        left: left_root,
        right: right_root,
        pos: after_right,
    });
    (after_right, after_right + 1)
}

// ---------------------------------------------------------------------------
// Greedy matching
// ---------------------------------------------------------------------------

/// One cluster of the greedy-matching hierarchy, stored flat.
#[derive(Debug, Clone, Copy)]
struct GreedyNode {
    location: Point,
    cap: f64,
    /// Sink index for leaves, [`NONE`] for merges.
    sink: usize,
    a: usize,
    b: usize,
}

/// Engine entry point for [`crate::topology::greedy_matching_tree`]:
/// identical pairing and identical tree, but every round re-buckets one
/// reused [`SpatialIndex`] in bulk and matched clusters are physically
/// removed, keeping each round O(k log k) instead of degenerating to O(k²)
/// as the round drains.
pub fn greedy_matching_with(instance: &ClockNetInstance, arena: &mut ConstructArena) -> ClockTree {
    let mut tree = ClockTree::new(instance.source);
    if instance.sinks.is_empty() {
        return tree;
    }

    arena.g_nodes.clear();
    arena.g_cur.clear();
    for s in &instance.sinks {
        arena.g_cur.push(arena.g_nodes.len());
        arena.g_nodes.push(GreedyNode {
            location: s.location,
            cap: s.cap,
            sink: s.id,
            a: NONE,
            b: NONE,
        });
    }

    while arena.g_cur.len() > 1 {
        let k = arena.g_cur.len();
        arena.g_points.clear();
        arena
            .g_points
            .extend(arena.g_cur.iter().map(|&c| arena.g_nodes[c].location));
        arena.index.rebuild(&arena.g_points);
        arena.g_taken.clear();
        arena.g_taken.resize(k, false);
        arena.g_next.clear();

        for i in 0..k {
            if arena.g_taken[i] {
                continue;
            }
            arena.index.remove(i);
            let partner = arena
                .index
                .nearest(arena.g_nodes[arena.g_cur[i]].location, None);
            match partner {
                Some(j) if !arena.g_taken[j] => {
                    arena.index.remove(j);
                    arena.g_taken[i] = true;
                    arena.g_taken[j] = true;
                    let a = arena.g_nodes[arena.g_cur[i]];
                    let b = arena.g_nodes[arena.g_cur[j]];
                    let total = a.cap + b.cap;
                    let w = if total > 0.0 { a.cap / total } else { 0.5 };
                    let location = Point::new(
                        a.location.x * w + b.location.x * (1.0 - w),
                        a.location.y * w + b.location.y * (1.0 - w),
                    );
                    arena.g_next.push(arena.g_nodes.len());
                    arena.g_nodes.push(GreedyNode {
                        location,
                        cap: total,
                        sink: NONE,
                        a: arena.g_cur[i],
                        b: arena.g_cur[j],
                    });
                }
                _ => {
                    // Odd cluster out: promote it to the next round as-is.
                    arena.g_taken[i] = true;
                    arena.g_next.push(arena.g_cur[i]);
                }
            }
        }
        std::mem::swap(&mut arena.g_cur, &mut arena.g_next);
    }

    // Materialize the hierarchy, visiting (node, left, right) exactly like
    // the recursive reference so node ids match.
    let top = arena.g_cur[0];
    arena.attach.clear();
    arena.attach.push((top, tree.root()));
    while let Some((id, parent)) = arena.attach.pop() {
        let node = arena.g_nodes[id];
        if node.sink != NONE {
            tree.add_sink(
                parent,
                node.location,
                WireSegment::default(),
                node.sink,
                node.cap,
            );
        } else {
            let me = tree.add_internal(parent, node.location, WireSegment::default());
            arena.attach.push((node.b, me));
            arena.attach.push((node.a, me));
        }
    }
    tree
}

// ---------------------------------------------------------------------------
// Buffer planning
// ---------------------------------------------------------------------------

/// Shared parameters of one buffer-planning sweep candidate.
struct BufferPlanner<'a> {
    tree: &'a ClockTree,
    tech: &'a Technology,
    composite: CompositeBuffer,
    max_cap: f64,
    obstacles: &'a ObstacleSet,
    worst_res: f64,
    slew_target: f64,
}

impl BufferPlanner<'_> {
    fn new<'a>(
        tree: &'a ClockTree,
        tech: &'a Technology,
        composite: CompositeBuffer,
        max_cap: f64,
        obstacles: &'a ObstacleSet,
    ) -> BufferPlanner<'a> {
        // Constants mirror `buffering::insert_buffers_by_cap` exactly.
        let worst_res = composite.output_res() * tech.derate(tech.low_corner.vdd) * 1.4;
        let slew_target = 0.6 * tech.slew_limit;
        BufferPlanner {
            tree,
            tech,
            composite,
            max_cap,
            obstacles,
            worst_res,
            slew_target,
        }
    }

    /// Single-pole slew estimate of a stage; mirrors the reference.
    fn est_slew(&self, cap: f64, longest: f64, wire_res_per_um: f64) -> f64 {
        contango_tech::units::SLEW_LN9
            * contango_tech::units::rc_ps(
                self.worst_res + wire_res_per_um * longest,
                cap + self.composite.output_cap(),
            )
    }

    /// Plans the buffer decision for one node given its children's already
    /// planned state. Decision-for-decision identical to the mutation-based
    /// reference; returns the number of buffers added at this node.
    fn plan_node(
        &self,
        id: NodeId,
        overlay: &mut [Option<CompositeBuffer>],
        load: &mut [f64],
        unbuffered: &mut [f64],
        contribs: &mut Vec<(NodeId, f64, f64, f64)>,
    ) -> usize {
        let tree = self.tree;
        let node = tree.node(id);
        let own = match node.kind {
            NodeKind::Sink(sid) => tree.sink_cap(sid),
            NodeKind::Internal => 0.0,
        };
        contribs.clear();
        for &c in &node.children {
            let code = self.tech.wire(tree.node(c).wire.width);
            let len = tree.edge_length(c);
            contribs.push((c, code.capacitance(len) + load[c], len + unbuffered[c], len));
        }
        contribs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite caps"));

        let mut inserted = 0;
        let wire_res_per_um = self.tech.wire(node.wire.width).unit_res;
        let mut acc = own;
        let mut longest = 0.0_f64;
        for &(c, contrib, path, edge_len) in contribs.iter() {
            let cand_acc = acc + contrib;
            let cand_longest = longest.max(path);
            let child_legal = !self.obstacles.contains_point_strict(tree.node(c).location);
            let child_buffered = overlay[c].is_some();
            let too_slow = self.est_slew(cand_acc, cand_longest, wire_res_per_um)
                > self.slew_target
                || cand_acc > self.max_cap;
            if too_slow && child_legal && !child_buffered {
                overlay[c] = Some(self.composite);
                inserted += 1;
                let code = self.tech.wire(tree.node(c).wire.width);
                acc += code.capacitance(edge_len) + self.composite.input_cap();
                longest = longest.max(edge_len);
            } else {
                acc = cand_acc;
                longest = cand_longest;
            }
        }

        let is_root = node.parent.is_none();
        let legal_site = !self.obstacles.contains_point_strict(node.location);
        let top_of_tree = node.parent.map(|p| p == tree.root()).unwrap_or(false);
        if !is_root && legal_site && overlay[id].is_none() && top_of_tree {
            overlay[id] = Some(self.composite);
            inserted += 1;
        }
        if overlay[id].is_some() {
            load[id] = self.composite.input_cap();
            unbuffered[id] = 0.0;
        } else {
            load[id] = acc;
            unbuffered[id] = longest;
        }
        inserted
    }
}

/// Plans cap-driven buffer insertion into `overlay` without touching the
/// tree: the overlay-of-`None` equivalent of
/// [`crate::buffering::insert_buffers_by_cap`] on a stripped tree. Returns
/// the number of planned buffers.
#[allow(clippy::too_many_arguments)]
fn plan_buffers(
    tree: &ClockTree,
    tech: &Technology,
    composite: CompositeBuffer,
    max_cap: f64,
    obstacles: &ObstacleSet,
    threads: usize,
    arena: &mut ConstructArena,
) -> usize {
    let len = tree.len();
    arena.overlay.clear();
    arena.overlay.resize(len, None);
    arena.load.clear();
    arena.load.resize(len, 0.0);
    arena.unbuffered.clear();
    arena.unbuffered.resize(len, 0.0);
    arena.post.clear();
    postorder_into(tree, &mut arena.post);

    let planner = BufferPlanner::new(tree, tech, composite, max_cap, obstacles);
    if threads > 1 && len >= 2 * MIN_CHUNK {
        plan_buffers_parallel(&planner, threads, arena)
    } else {
        let mut inserted = 0;
        for i in 0..arena.post.len() {
            let id = arena.post[i];
            inserted += planner.plan_node(
                id,
                &mut arena.overlay,
                &mut arena.load,
                &mut arena.unbuffered,
                &mut arena.contribs,
            );
        }
        inserted
    }
}

/// Fans per-branch buffer planning out over threads: disjoint subtrees are
/// planned independently (each with its own scratch), then merged in branch
/// order, then the remaining top nodes are planned serially. Decisions are
/// bit-identical to the serial plan because no decision crosses a subtree
/// boundary except through the branch root's (load, unbuffered) summary.
fn plan_buffers_parallel(
    planner: &BufferPlanner<'_>,
    threads: usize,
    arena: &mut ConstructArena,
) -> usize {
    let tree = planner.tree;
    let len = tree.len();

    // Deterministic branch roots: widen a frontier from the root until it
    // offers enough independent subtrees (or four levels, whichever first).
    let mut frontier: Vec<NodeId> = vec![tree.root()];
    for _ in 0..4 {
        if frontier.len() >= threads {
            break;
        }
        let mut next = Vec::with_capacity(frontier.len() * 2);
        let mut expanded = false;
        for &id in &frontier {
            let children = &tree.node(id).children;
            if children.is_empty() {
                next.push(id);
            } else {
                next.extend(children.iter().copied());
                expanded = true;
            }
        }
        frontier = next;
        if !expanded {
            break;
        }
    }

    // Plan the branches over at most `threads` workers (contiguous batches
    // keep the merge order equal to the frontier order). Worker scratch is
    // allocated per batch, not taken from the arena — full-tree-length
    // vectors per worker, a deliberate trade against sharing mutable arena
    // state across threads; the serial path stays allocation-free.
    type BranchPlan = (
        Vec<NodeId>,
        Vec<Option<CompositeBuffer>>,
        Vec<f64>,
        Vec<f64>,
        usize,
    );
    let mut branch_plans: Vec<BranchPlan> = Vec::with_capacity(frontier.len());
    let workers = threads.min(frontier.len()).max(1);
    let per = frontier.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = frontier
            .chunks(per)
            .map(|batch| {
                scope.spawn(move || {
                    let mut plans = Vec::with_capacity(batch.len());
                    let mut overlay = vec![None; len];
                    let mut load = vec![0.0; len];
                    let mut unbuffered = vec![0.0; len];
                    let mut contribs = Vec::new();
                    for &root in batch {
                        let mut post = Vec::new();
                        subtree_postorder_into(tree, root, &mut post);
                        let mut inserted = 0;
                        for &id in &post {
                            inserted += planner.plan_node(
                                id,
                                &mut overlay,
                                &mut load,
                                &mut unbuffered,
                                &mut contribs,
                            );
                        }
                        // Hand back only this branch's slots so the shared
                        // scratch can be reused by the batch's next branch.
                        let branch_overlay: Vec<Option<CompositeBuffer>> =
                            post.iter().map(|&id| overlay[id]).collect();
                        let branch_load: Vec<f64> = post.iter().map(|&id| load[id]).collect();
                        let branch_unbuffered: Vec<f64> =
                            post.iter().map(|&id| unbuffered[id]).collect();
                        plans.push((
                            post,
                            branch_overlay,
                            branch_load,
                            branch_unbuffered,
                            inserted,
                        ));
                    }
                    plans
                })
            })
            .collect();
        for handle in handles {
            branch_plans.extend(handle.join().expect("branch planner panicked"));
        }
    });

    // Merge in branch order, marking covered nodes. Plans are compact:
    // entry `pos` belongs to node `post[pos]`.
    let mut in_branch = vec![false; len];
    let mut inserted = 0;
    for (post, overlay, load, unbuffered, count) in &branch_plans {
        inserted += count;
        for (pos, &id) in post.iter().enumerate() {
            in_branch[id] = true;
            arena.overlay[id] = overlay[pos];
            arena.load[id] = load[pos];
            arena.unbuffered[id] = unbuffered[pos];
        }
    }

    // The spine above the branches, in global postorder.
    for i in 0..arena.post.len() {
        let id = arena.post[i];
        if in_branch[id] {
            continue;
        }
        inserted += planner.plan_node(
            id,
            &mut arena.overlay,
            &mut arena.load,
            &mut arena.unbuffered,
            &mut arena.contribs,
        );
    }
    inserted
}

/// Total network capacitance the tree would have with `overlay`'s buffers:
/// term-for-term identical to [`ClockTree::total_cap`] on the buffered
/// tree, so the budget comparison matches the reference bit-for-bit.
fn overlay_total_cap(
    tree: &ClockTree,
    tech: &Technology,
    overlay: &[Option<CompositeBuffer>],
) -> f64 {
    let mut total = 0.0;
    for (id, planned) in overlay.iter().enumerate().take(tree.len()) {
        let node = tree.node(id);
        total += tech.wire(node.wire.width).capacitance(tree.edge_length(id));
        if let Some(buf) = planned {
            total += buf.total_cap();
        }
        if let NodeKind::Sink(sid) = node.kind {
            total += tree.sink_cap(sid);
        }
    }
    total
}

/// Engine equivalent of [`crate::buffering::choose_and_insert_buffers`]:
/// sweeps composites strongest-to-weakest and commits the strongest fitting
/// plan — but candidate attempts are planned on an overlay instead of a
/// cloned tree, and per-branch planning fans out over `parallel`.
///
/// # Errors
///
/// Returns [`CoreError::BufferBudget`] when even the weakest candidate
/// exceeds the budget, exactly like the reference.
#[allow(clippy::too_many_arguments)]
pub fn choose_buffers_with(
    tree: &mut ClockTree,
    tech: &Technology,
    candidates: &[CompositeBuffer],
    cap_limit: f64,
    power_reserve: f64,
    obstacles: &ObstacleSet,
    parallel: ParallelConfig,
    arena: &mut ConstructArena,
) -> Result<BufferingReport, CoreError> {
    assert!(
        !candidates.is_empty(),
        "need at least one composite candidate"
    );
    let budget = cap_limit * (1.0 - power_reserve.clamp(0.0, 0.9));
    let mut sorted: Vec<CompositeBuffer> = candidates.to_vec();
    sorted.sort_by(|a, b| {
        a.output_res()
            .partial_cmp(&b.output_res())
            .expect("finite resistances")
    });
    let threads = parallel.resolved();

    for composite in sorted {
        let max_cap = tech.slew_free_cap(composite.output_res());
        let buffers = plan_buffers(tree, tech, composite, max_cap, obstacles, threads, arena);
        let total_cap = overlay_total_cap(tree, tech, &arena.overlay);
        if total_cap <= budget {
            for id in 0..tree.len() {
                tree.node_mut(id).buffer = arena.overlay[id];
            }
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

/// Fills `out` with the tree's postorder, reusing `out`'s allocation:
/// visit-for-visit identical to [`ClockTree::postorder`].
fn postorder_into(tree: &ClockTree, out: &mut Vec<NodeId>) {
    subtree_postorder_into(tree, tree.root(), out);
}

/// Postorder of the subtree rooted at `root` (same visit order as the
/// global postorder restricted to the subtree).
fn subtree_postorder_into(tree: &ClockTree, root: NodeId, out: &mut Vec<NodeId>) {
    out.clear();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        out.push(id);
        for &c in tree.node(id).children.iter().rev() {
            stack.push(c);
        }
    }
    out.reverse();
}

// ---------------------------------------------------------------------------
// Full initial construction
// ---------------------------------------------------------------------------

/// Configuration of one full initial construction, as run by the `INITIAL`
/// pipeline pass ([`crate::pipeline::InitialConstruction`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstructConfig {
    /// How the initial topology is built.
    pub topology: TopologyKind,
    /// Drive the tree with groups of large inverters.
    pub use_large_inverters: bool,
    /// Maximum edge length before splitting, µm.
    pub max_edge_len: f64,
    /// Fraction of the capacitance budget reserved for later optimizations.
    pub power_reserve: f64,
    /// Thread fan-out for subtree merges and per-branch buffer planning.
    pub parallel: ParallelConfig,
}

/// Everything the initial construction produces besides the tree itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstructReports {
    /// Obstacle-repair statistics.
    pub repair: ObstacleRepairReport,
    /// The committed buffering decision.
    pub buffering: BufferingReport,
    /// Polarity-correction statistics.
    pub polarity: PolarityReport,
}

/// Builds the initial topology with the engine (DME and greedy matching are
/// arena-driven; H-tree and fishbone are cheap and stay recursive).
pub fn build_topology_with(
    kind: TopologyKind,
    instance: &ClockNetInstance,
    tech: &Technology,
    parallel: ParallelConfig,
    arena: &mut ConstructArena,
) -> ClockTree {
    match kind {
        TopologyKind::Dme => zero_skew_tree_with(
            instance,
            tech,
            DmeOptions {
                parallel,
                ..DmeOptions::default()
            },
            arena,
        ),
        TopologyKind::GreedyMatching => greedy_matching_with(instance, arena),
        TopologyKind::HTree => h_tree(instance),
        TopologyKind::Fishbone => fishbone_tree(instance),
    }
}

/// Runs the full initial construction: topology, obstacle repair, edge
/// splitting, buffer-candidate sweep and polarity correction — the engine
/// equivalent of the `INITIAL` pass body, bit-identical to the reference
/// sequence for every thread count.
///
/// # Errors
///
/// Returns [`CoreError::BufferBudget`] when no buffering candidate fits the
/// capacitance budget.
pub fn construct_initial(
    instance: &ClockNetInstance,
    tech: &Technology,
    config: &ConstructConfig,
    arena: &mut ConstructArena,
) -> Result<(ClockTree, ConstructReports), CoreError> {
    let mut tree = build_topology_with(config.topology, instance, tech, config.parallel, arena);
    let candidates = default_candidates(tech, config.use_large_inverters);
    let strongest_res = candidates
        .iter()
        .map(|c| c.output_res())
        .fold(f64::INFINITY, f64::min);
    let repair = repair_obstacle_violations(&mut tree, instance, tech, strongest_res);
    split_long_edges(&mut tree, config.max_edge_len);
    let buffering = choose_buffers_with(
        &mut tree,
        tech,
        &candidates,
        instance.cap_limit,
        config.power_reserve,
        &instance.obstacles,
        config.parallel,
        arena,
    )?;
    // Corrective inverters must be able to drive the subtree they are
    // spliced in front of, so they reuse the composite chosen for the main
    // buffering.
    let polarity = correct_polarity(&mut tree, buffering.composite);
    Ok((
        tree,
        ConstructReports {
            repair,
            buffering,
            polarity,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dme::reference_zero_skew_tree;
    use crate::topology::reference_greedy_matching_tree;

    fn grid_instance(nx: usize, ny: usize) -> ClockNetInstance {
        let die_w = 600.0 + 420.0 * nx as f64;
        let die_h = 700.0 + 430.0 * ny as f64;
        let mut b = ClockNetInstance::builder("construct-test")
            .die(0.0, 0.0, die_w, die_h)
            .source(Point::new(0.0, die_h / 2.0))
            .cap_limit(1.0e8);
        for j in 0..ny {
            for i in 0..nx {
                b = b.sink(
                    Point::new(300.0 + 420.0 * i as f64, 350.0 + 430.0 * j as f64),
                    8.0 + ((i * 3 + j) % 5) as f64,
                );
            }
        }
        b.build().expect("valid instance")
    }

    #[test]
    fn parallel_config_resolution() {
        assert_eq!(ParallelConfig::serial().resolved(), 1);
        assert_eq!(ParallelConfig::with_threads(6).resolved(), 6);
        assert!(ParallelConfig::auto().resolved() >= 1);
        assert_eq!(ParallelConfig::default(), ParallelConfig::serial());
    }

    #[test]
    fn partition_fanouts_stay_bit_identical() {
        let tech = Technology::ispd09();
        let instance = grid_instance(13, 10);
        let mut arena = ConstructArena::new();
        let serial = zero_skew_tree_with(&instance, &tech, DmeOptions::default(), &mut arena);
        // One region per worker: powers of two and not, and more regions
        // than the instance has chunks to carve.
        for threads in [2usize, 3, 4, 7, 16] {
            let opts = DmeOptions {
                parallel: ParallelConfig::with_threads(threads),
                ..DmeOptions::default()
            };
            let fanned = zero_skew_tree_with(&instance, &tech, opts, &mut arena);
            assert_eq!(serial, fanned, "threads={threads}");
        }
    }

    #[test]
    fn arena_watermark_tracks_retained_capacity() {
        let mut arena = ConstructArena::new();
        assert_eq!(arena.watermark().total_bytes(), 0);
        let tech = Technology::ispd09();
        let instance = grid_instance(9, 8);
        let _ = zero_skew_tree_with(&instance, &tech, DmeOptions::default(), &mut arena);
        let after = arena.watermark();
        assert!(after.zst_bytes > 0);
        assert_eq!(after.greedy_bytes, 0);
        // Watermarks never shrink: a smaller build retains the capacity.
        let small = grid_instance(2, 2);
        let _ = zero_skew_tree_with(&small, &tech, DmeOptions::default(), &mut arena);
        let _ = greedy_matching_with(&small, &mut arena);
        let again = arena.watermark();
        assert!(again.zst_bytes >= after.zst_bytes);
        assert!(again.greedy_bytes > 0);
        assert!(again.total_bytes() >= after.total_bytes());
    }

    #[test]
    fn warm_arena_reproduces_cold_results() {
        let tech = Technology::ispd09();
        let instance = grid_instance(7, 6);
        let mut arena = ConstructArena::new();
        let first = zero_skew_tree_with(&instance, &tech, DmeOptions::default(), &mut arena);
        // Re-running on the warm arena (and after unrelated greedy use)
        // must not leak state between builds.
        let _ = greedy_matching_with(&instance, &mut arena);
        let second = zero_skew_tree_with(&instance, &tech, DmeOptions::default(), &mut arena);
        assert_eq!(first, second);
    }

    #[test]
    fn engine_handles_tiny_instances_like_the_reference() {
        let tech = Technology::ispd09();
        let mut arena = ConstructArena::new();
        for (nx, ny) in [(1usize, 1usize), (2, 1), (1, 3)] {
            let instance = grid_instance(nx, ny);
            assert_eq!(
                reference_zero_skew_tree(&instance, &tech, DmeOptions::default()),
                zero_skew_tree_with(&instance, &tech, DmeOptions::default(), &mut arena),
                "{nx}x{ny} grid"
            );
            assert_eq!(
                reference_greedy_matching_tree(&instance),
                greedy_matching_with(&instance, &mut arena),
                "{nx}x{ny} grid greedy"
            );
        }
    }

    #[test]
    fn oversubscribed_thread_counts_stay_bit_identical() {
        let tech = Technology::ispd09();
        let instance = grid_instance(12, 11);
        let mut arena = ConstructArena::new();
        let serial = zero_skew_tree_with(&instance, &tech, DmeOptions::default(), &mut arena);
        // More threads than sinks/chunks, odd counts, and auto.
        for threads in [2usize, 3, 5, 64, 0] {
            let opts = DmeOptions {
                parallel: ParallelConfig::with_threads(threads),
                ..DmeOptions::default()
            };
            let fanned = zero_skew_tree_with(&instance, &tech, opts, &mut arena);
            assert_eq!(serial, fanned, "threads={threads}");
        }
    }

    #[test]
    fn build_topology_with_covers_every_kind() {
        let tech = Technology::ispd09();
        let instance = grid_instance(4, 4);
        let mut arena = ConstructArena::new();
        for kind in TopologyKind::all() {
            let tree =
                build_topology_with(kind, &instance, &tech, ParallelConfig::serial(), &mut arena);
            assert_eq!(tree.sink_count(), instance.sink_count(), "{kind:?}");
            assert!(tree.validate().is_ok(), "{kind:?}");
            // The engine path agrees with the legacy entry point.
            assert_eq!(
                tree,
                crate::topology::build_topology(kind, &instance, &tech)
            );
        }
    }

    #[test]
    fn construct_initial_reports_are_consistent() {
        let tech = Technology::ispd09();
        let instance = grid_instance(6, 5);
        let mut arena = ConstructArena::new();
        let config = ConstructConfig {
            topology: TopologyKind::Dme,
            use_large_inverters: false,
            max_edge_len: 250.0,
            power_reserve: 0.1,
            parallel: ParallelConfig::serial(),
        };
        let (tree, reports) =
            construct_initial(&instance, &tech, &config, &mut arena).expect("constructs");
        assert!(tree.validate().is_ok());
        assert!(reports.buffering.buffers > 0);
        assert!(tree.buffer_count() >= reports.buffering.buffers);
        assert!(reports.buffering.total_cap <= 0.9 * instance.cap_limit);
    }
}
