//! The buffered clock-tree data model.
//!
//! A [`ClockTree`] is an arena of nodes. Every node other than the root has
//! a parent and an incoming *wire segment* (the edge from the parent); any
//! node may carry a composite inverter that drives its whole subtree. Sinks
//! are leaves tagged with the sink id of the instance being synthesized.
//!
//! All optimization passes of the flow operate on this structure and the
//! electrical netlist derived from it by [`crate::lower`].

use crate::error::TreeError;
use contango_geom::Point;
use contango_tech::{CompositeBuffer, Technology, WireWidth};
use serde::Serialize;

/// Index of a node within a [`ClockTree`].
pub type NodeId = usize;

/// The wire connecting a node to its parent.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WireSegment {
    /// Wire width class (sizing toggles this).
    pub width: WireWidth,
    /// Intermediate bend points between the parent location and the node
    /// location; empty for a direct (L-shaped or straight) connection.
    pub route: Vec<Point>,
    /// Additional snaked wirelength in micrometres (always ≥ 0).
    pub extra_length: f64,
}

impl WireSegment {
    /// A direct wide wire with no snaking.
    pub fn direct(width: WireWidth) -> Self {
        Self {
            width,
            route: Vec::new(),
            extra_length: 0.0,
        }
    }
}

impl Default for WireSegment {
    fn default() -> Self {
        Self::direct(WireWidth::Wide)
    }
}

/// What a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NodeKind {
    /// A Steiner/branch point or buffer site.
    Internal,
    /// A clock sink with the given instance sink id.
    Sink(usize),
}

/// One node of the clock tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Node {
    /// Parent node, `None` for the root.
    pub parent: Option<NodeId>,
    /// Child nodes.
    pub children: Vec<NodeId>,
    /// Layout location in micrometres.
    pub location: Point,
    /// Node kind.
    pub kind: NodeKind,
    /// Wire from the parent to this node (ignored for the root).
    pub wire: WireSegment,
    /// Composite inverter placed at this node, driving the subtree below.
    pub buffer: Option<CompositeBuffer>,
}

/// A buffered clock tree.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClockTree {
    nodes: Vec<Node>,
    root: NodeId,
    /// Node id of each sink, indexed by sink id.
    sink_nodes: Vec<NodeId>,
    /// Pin capacitance of each sink, indexed by sink id (fF).
    sink_caps: Vec<f64>,
}

impl ClockTree {
    /// Creates a tree containing only a root node at `root_location`
    /// (normally the clock source location).
    pub fn new(root_location: Point) -> Self {
        Self {
            nodes: vec![Node {
                parent: None,
                children: Vec::new(),
                location: root_location,
                kind: NodeKind::Internal,
                wire: WireSegment::default(),
                buffer: None,
            }],
            root: 0,
            sink_nodes: Vec::new(),
            sink_caps: Vec::new(),
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the tree contains only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Adds an internal node under `parent`.
    pub fn add_internal(&mut self, parent: NodeId, location: Point, wire: WireSegment) -> NodeId {
        self.add_node(parent, location, NodeKind::Internal, wire)
    }

    /// Adds a sink node under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if the sink id was already added.
    pub fn add_sink(
        &mut self,
        parent: NodeId,
        location: Point,
        wire: WireSegment,
        sink_id: usize,
        cap: f64,
    ) -> NodeId {
        if sink_id < self.sink_nodes.len() {
            assert_eq!(
                self.sink_nodes[sink_id],
                usize::MAX,
                "sink {sink_id} already present in the tree"
            );
        }
        let id = self.add_node(parent, location, NodeKind::Sink(sink_id), wire);
        if sink_id >= self.sink_nodes.len() {
            self.sink_nodes.resize(sink_id + 1, usize::MAX);
            self.sink_caps.resize(sink_id + 1, 0.0);
        }
        self.sink_nodes[sink_id] = id;
        self.sink_caps[sink_id] = cap;
        id
    }

    fn add_node(
        &mut self,
        parent: NodeId,
        location: Point,
        kind: NodeKind,
        wire: WireSegment,
    ) -> NodeId {
        assert!(parent < self.nodes.len(), "parent node does not exist");
        let id = self.nodes.len();
        self.nodes.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            location,
            kind,
            wire,
            buffer: None,
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Number of sinks registered in the tree.
    pub fn sink_count(&self) -> usize {
        self.sink_nodes.iter().filter(|&&n| n != usize::MAX).count()
    }

    /// The node id carrying sink `sink_id`.
    ///
    /// # Panics
    ///
    /// Panics if the sink is not present.
    pub fn sink_node(&self, sink_id: usize) -> NodeId {
        let n = self.sink_nodes[sink_id];
        assert_ne!(n, usize::MAX, "sink {sink_id} not present");
        n
    }

    /// Pin capacitance of sink `sink_id`, in fF.
    pub fn sink_cap(&self, sink_id: usize) -> f64 {
        self.sink_caps[sink_id]
    }

    /// Sink ids present in the tree, ascending.
    pub fn sink_ids(&self) -> Vec<usize> {
        (0..self.sink_nodes.len())
            .filter(|&i| self.sink_nodes[i] != usize::MAX)
            .collect()
    }

    /// Geometric length of the wire from `id`'s parent to `id`, including
    /// detour routing and snaking, in micrometres. Zero for the root.
    pub fn edge_length(&self, id: NodeId) -> f64 {
        let node = &self.nodes[id];
        let Some(parent) = node.parent else {
            return 0.0;
        };
        let mut length = 0.0;
        let mut prev = self.nodes[parent].location;
        for &p in &node.wire.route {
            length += prev.manhattan(p);
            prev = p;
        }
        length += prev.manhattan(node.location);
        length + node.wire.extra_length
    }

    /// Total wirelength of the tree in micrometres.
    pub fn wirelength(&self) -> f64 {
        (0..self.nodes.len()).map(|i| self.edge_length(i)).sum()
    }

    /// Number of buffers (composite inverter instances count as one site).
    pub fn buffer_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.buffer.is_some()).count()
    }

    /// Total network capacitance in fF: wire capacitance (per width), sink
    /// pin capacitance and buffer input+output capacitance.
    pub fn total_cap(&self, tech: &Technology) -> f64 {
        let mut total = 0.0;
        for id in 0..self.nodes.len() {
            let node = &self.nodes[id];
            total += tech.wire(node.wire.width).capacitance(self.edge_length(id));
            if let Some(buf) = &node.buffer {
                total += buf.total_cap();
            }
            if let NodeKind::Sink(sid) = node.kind {
                total += self.sink_caps[sid];
            }
        }
        total
    }

    /// Node ids in preorder (parents before children).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            order.push(id);
            for &c in self.nodes[id].children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Node ids in postorder (children before parents).
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut order = self.preorder();
        order.reverse();
        order
    }

    /// Sink ids in the subtree rooted at `id`.
    pub fn subtree_sinks(&self, id: NodeId) -> Vec<usize> {
        let mut sinks = Vec::new();
        let mut stack = vec![id];
        while let Some(n) = stack.pop() {
            if let NodeKind::Sink(sid) = self.nodes[n].kind {
                sinks.push(sid);
            }
            stack.extend(self.nodes[n].children.iter().copied());
        }
        sinks.sort_unstable();
        sinks
    }

    /// Node ids on the path from `id` up to (and including) the root.
    pub fn path_to_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut path = vec![id];
        let mut cur = id;
        while let Some(p) = self.nodes[cur].parent {
            path.push(p);
            cur = p;
        }
        path
    }

    /// Number of edges between `id` and the root (an allocation-free
    /// O(depth) walk).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut depth = 0;
        let mut cur = id;
        while let Some(p) = self.nodes[cur].parent {
            depth += 1;
            cur = p;
        }
        depth
    }

    /// Depth of every node (edges from the root), computed in one O(n)
    /// preorder pass.
    pub fn depths(&self) -> Vec<usize> {
        let mut depths = vec![0usize; self.nodes.len()];
        for id in self.preorder() {
            if let Some(p) = self.nodes[id].parent {
                depths[id] = depths[p] + 1;
            }
        }
        depths
    }

    /// Returns `true` when `ancestor` lies on the path from `id` to the
    /// root, inclusive of `id == ancestor` (an allocation-free O(depth)
    /// walk).
    pub fn is_on_root_path(&self, id: NodeId, ancestor: NodeId) -> bool {
        let mut cur = id;
        loop {
            if cur == ancestor {
                return true;
            }
            match self.nodes[cur].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Splits the edge from `child`'s parent to `child` by inserting a new
    /// internal node at `location`, and returns the new node's id.
    ///
    /// The new node inherits the edge's wire width; any detour route and
    /// snaking stay on the lower half (between the new node and `child`).
    ///
    /// # Panics
    ///
    /// Panics if `child` is the root.
    pub fn split_edge(&mut self, child: NodeId, location: Point) -> NodeId {
        let parent = self.nodes[child]
            .parent
            .expect("cannot split above the root");
        let width = self.nodes[child].wire.width;
        let new_id = self.nodes.len();
        self.nodes.push(Node {
            parent: Some(parent),
            children: vec![child],
            location,
            kind: NodeKind::Internal,
            wire: WireSegment::direct(width),
            buffer: None,
        });
        // Rewire: parent loses `child`, gains `new_id`; child hangs under new node.
        let slot = self.nodes[parent]
            .children
            .iter()
            .position(|&c| c == child)
            .expect("child listed under parent");
        self.nodes[parent].children[slot] = new_id;
        self.nodes[child].parent = Some(new_id);
        new_id
    }

    /// Checks structural invariants: parent/child cross-references, a single
    /// root, sinks are leaves and every registered sink maps to a sink node.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`TreeError`].
    pub fn validate(&self) -> Result<(), TreeError> {
        for (id, node) in self.nodes.iter().enumerate() {
            match node.parent {
                None => {
                    if id != self.root {
                        return Err(TreeError::OrphanNode { node: id });
                    }
                }
                Some(p) => {
                    if !self.nodes[p].children.contains(&id) {
                        return Err(TreeError::MissingChildLink { node: id });
                    }
                }
            }
            for &c in &node.children {
                if self.nodes[c].parent != Some(id) {
                    return Err(TreeError::ParentMismatch { node: id, child: c });
                }
            }
            if let NodeKind::Sink(sid) = node.kind {
                if !node.children.is_empty() {
                    return Err(TreeError::SinkNotLeaf { node: id });
                }
                if self.sink_nodes.get(sid).copied() != Some(id) {
                    return Err(TreeError::SinkNotRegistered {
                        sink: sid,
                        node: id,
                    });
                }
            }
        }
        // Reachability: every node must be reachable from the root.
        if self.preorder().len() != self.nodes.len() {
            return Err(TreeError::UnreachableNodes);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contango_tech::Technology;

    /// Root at origin, trunk to (100,0), branch to two sinks.
    fn small_tree() -> ClockTree {
        let mut t = ClockTree::new(Point::new(0.0, 0.0));
        let trunk = t.add_internal(t.root(), Point::new(100.0, 0.0), WireSegment::default());
        t.add_sink(
            trunk,
            Point::new(150.0, 50.0),
            WireSegment::default(),
            0,
            10.0,
        );
        t.add_sink(
            trunk,
            Point::new(150.0, -50.0),
            WireSegment::default(),
            1,
            12.0,
        );
        t
    }

    #[test]
    fn construction_and_accessors() {
        let t = small_tree();
        assert_eq!(t.len(), 4);
        assert_eq!(t.sink_count(), 2);
        assert_eq!(t.sink_cap(1), 12.0);
        assert_eq!(t.sink_ids(), vec![0, 1]);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn edge_length_and_wirelength() {
        let t = small_tree();
        let s0 = t.sink_node(0);
        assert_eq!(t.edge_length(t.root()), 0.0);
        assert_eq!(t.edge_length(s0), 100.0);
        assert_eq!(t.wirelength(), 100.0 + 100.0 + 100.0);
    }

    #[test]
    fn snaking_and_routes_extend_edges() {
        let mut t = small_tree();
        let s0 = t.sink_node(0);
        t.node_mut(s0).wire.extra_length = 25.0;
        assert_eq!(t.edge_length(s0), 125.0);
        let s1 = t.sink_node(1);
        t.node_mut(s1).wire.route = vec![Point::new(100.0, -100.0)];
        // 100 -> (100,-100): 100, then to (150,-50): 50 + 50 = 100.
        assert_eq!(t.edge_length(s1), 200.0);
    }

    #[test]
    fn preorder_visits_parents_first() {
        let t = small_tree();
        let order = t.preorder();
        assert_eq!(order[0], t.root());
        let pos = |id: NodeId| order.iter().position(|&x| x == id).expect("present");
        for id in 0..t.len() {
            if let Some(p) = t.node(id).parent {
                assert!(pos(p) < pos(id));
            }
        }
        let post = t.postorder();
        assert_eq!(*post.last().expect("non-empty"), t.root());
    }

    #[test]
    fn subtree_sinks_and_paths() {
        let t = small_tree();
        assert_eq!(t.subtree_sinks(t.root()), vec![0, 1]);
        let trunk = t.node(t.sink_node(0)).parent.expect("has parent");
        assert_eq!(t.subtree_sinks(trunk), vec![0, 1]);
        assert_eq!(t.subtree_sinks(t.sink_node(1)), vec![1]);
        assert_eq!(t.depth(t.sink_node(0)), 2);
        assert_eq!(t.path_to_root(t.sink_node(0)).len(), 3);
    }

    #[test]
    fn depths_and_ancestry_match_path_walks() {
        let t = small_tree();
        for (id, &depth) in t.depths().iter().enumerate() {
            assert_eq!(t.depth(id), depth);
            assert_eq!(t.depth(id), t.path_to_root(id).len() - 1);
            for other in 0..t.len() {
                assert_eq!(
                    t.is_on_root_path(id, other),
                    t.path_to_root(id).contains(&other)
                );
            }
        }
    }

    #[test]
    fn split_edge_preserves_structure() {
        let mut t = small_tree();
        let s0 = t.sink_node(0);
        let before_len = t.wirelength();
        let mid = t.split_edge(s0, Point::new(125.0, 25.0));
        assert!(t.validate().is_ok());
        assert_eq!(t.node(s0).parent, Some(mid));
        assert!(t.node(mid).children.contains(&s0));
        // Splitting on the Manhattan-shortest path keeps total length.
        assert!((t.wirelength() - before_len).abs() < 1e-9);
    }

    #[test]
    fn buffers_contribute_to_total_cap() {
        let tech = Technology::ispd09();
        let mut t = small_tree();
        let base = t.total_cap(&tech);
        let trunk = t.node(t.sink_node(0)).parent.expect("trunk");
        t.node_mut(trunk).buffer = Some(tech.composite(tech.small_inverter(), 8));
        let with_buf = t.total_cap(&tech);
        assert!((with_buf - base - (33.6 + 48.8)).abs() < 1e-9);
        assert_eq!(t.buffer_count(), 1);
    }

    #[test]
    fn validate_detects_non_leaf_sink() {
        let mut t = small_tree();
        let s0 = t.sink_node(0);
        // Manually attach a child to a sink to break the invariant.
        let bad = t.add_internal(s0, Point::new(200.0, 50.0), WireSegment::default());
        assert!(bad > 0);
        assert!(t.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_sink_rejected() {
        let mut t = small_tree();
        t.add_sink(
            t.root(),
            Point::new(1.0, 1.0),
            WireSegment::default(),
            0,
            1.0,
        );
    }
}
