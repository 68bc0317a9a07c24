//! RC-tree representation and Elmore delays.

use serde::{Deserialize, Serialize};

/// One node of an [`RcTree`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct RcNode {
    /// Parent node index; `usize::MAX` for the root.
    parent: usize,
    /// Resistance of the wire from the parent to this node, in Ω.
    res: f64,
    /// Capacitance to ground at this node, in fF.
    cap: f64,
}

/// A grounded-capacitor RC tree, the electrical model of one buffered stage
/// of a clock network.
///
/// Node `0` is the *driving point* (the output of the stage's driver); every
/// other node is connected to its parent through a resistor and carries a
/// grounded capacitance (wire capacitance, sink capacitance and/or the input
/// capacitance of downstream buffers).
///
/// Nodes are created in topological order: a node's parent always has a
/// smaller index. All traversals exploit this to run in a single pass.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RcTree {
    nodes: Vec<RcNode>,
}

impl RcTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the root (driving-point) node with the given grounded
    /// capacitance and returns its index (always `0`).
    ///
    /// # Panics
    ///
    /// Panics if the tree already has a root.
    pub fn add_root(&mut self, cap: f64) -> usize {
        assert!(self.nodes.is_empty(), "RcTree already has a root");
        self.nodes.push(RcNode {
            parent: usize::MAX,
            res: 0.0,
            cap,
        });
        0
    }

    /// Adds a node connected to `parent` through `res` ohms, carrying `cap`
    /// femtofarads, and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not an existing node index.
    pub fn add_node(&mut self, parent: usize, res: f64, cap: f64) -> usize {
        assert!(parent < self.nodes.len(), "parent node does not exist");
        self.nodes.push(RcNode { parent, res, cap });
        self.nodes.len() - 1
    }

    /// Adds `extra` femtofarads of grounded capacitance to node `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn add_cap(&mut self, idx: usize, extra: f64) {
        self.nodes[idx].cap += extra;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Parent of node `idx`, or `None` for the root.
    pub fn parent(&self, idx: usize) -> Option<usize> {
        let p = self.nodes[idx].parent;
        (p != usize::MAX).then_some(p)
    }

    /// Resistance from the parent to node `idx`, in Ω (zero for the root).
    pub fn resistance(&self, idx: usize) -> f64 {
        self.nodes[idx].res
    }

    /// Grounded capacitance at node `idx`, in fF.
    pub fn capacitance(&self, idx: usize) -> f64 {
        self.nodes[idx].cap
    }

    /// Total grounded capacitance of the tree, in fF.
    pub fn total_cap(&self) -> f64 {
        self.nodes.iter().map(|n| n.cap).sum()
    }

    /// Capacitance of the subtree rooted at each node (the node's own cap
    /// plus all descendants), in fF.
    pub fn downstream_caps(&self) -> Vec<f64> {
        let mut down: Vec<f64> = self.nodes.iter().map(|n| n.cap).collect();
        for i in (1..self.nodes.len()).rev() {
            let p = self.nodes[i].parent;
            down[p] += down[i];
        }
        down
    }

    /// First delay moments (Elmore delays) of every node for a step applied
    /// through `driver_res` ohms at the driving point, in ps.
    ///
    /// `m1[i] = Σ_k R(path ∩ path_k) · C_k`, the classic Elmore expression,
    /// including the driver resistance which is common to all paths.
    pub fn elmore_from(&self, driver_res: f64) -> Vec<f64> {
        let down = self.downstream_caps();
        let mut m1 = vec![0.0; self.nodes.len()];
        if self.nodes.is_empty() {
            return m1;
        }
        m1[0] = driver_res * down[0] * contango_tech::units::RC_TO_PS;
        for i in 1..self.nodes.len() {
            let p = self.nodes[i].parent;
            m1[i] = m1[p] + self.nodes[i].res * down[i] * contango_tech::units::RC_TO_PS;
        }
        m1
    }

    /// Iterator over `(parent, res, cap)` triples in node order; the root
    /// reports `parent == usize::MAX`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        self.nodes.iter().map(|n| (n.parent, n.res, n.cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Driver -> 100 Ω/50 fF wire -> branch into two 50 Ω/20 fF legs.
    fn branchy() -> RcTree {
        let mut t = RcTree::new();
        let root = t.add_root(5.0);
        let mid = t.add_node(root, 100.0, 50.0);
        let a = t.add_node(mid, 50.0, 20.0);
        let b = t.add_node(mid, 50.0, 30.0);
        assert_eq!((root, mid, a, b), (0, 1, 2, 3));
        t
    }

    #[test]
    fn downstream_caps_accumulate() {
        let t = branchy();
        let d = t.downstream_caps();
        assert_eq!(d[0], 105.0);
        assert_eq!(d[1], 100.0);
        assert_eq!(d[2], 20.0);
        assert_eq!(d[3], 30.0);
        assert_eq!(t.total_cap(), 105.0);
    }

    #[test]
    fn elmore_is_monotonic_along_paths() {
        let t = branchy();
        let m1 = t.elmore_from(200.0);
        assert!(m1[1] > m1[0]);
        assert!(m1[2] > m1[1]);
        assert!(m1[3] > m1[1]);
    }

    #[test]
    fn elmore_matches_hand_computation() {
        // Single chain: Rd=100 into 10 fF, then 50 Ω into 40 fF.
        let mut t = RcTree::new();
        let r = t.add_root(10.0);
        let n = t.add_node(r, 50.0, 40.0);
        let m1 = t.elmore_from(100.0);
        // m1[root] = 100 * (10+40) fF = 5000 Ω·fF = 5 ps
        assert!((m1[r] - 5.0).abs() < 1e-12);
        // m1[n] = 5 ps + 50 * 40 fF = 5 + 2 = 7 ps
        assert!((m1[n] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn single_node_tree_has_driver_dominated_delay() {
        let mut t = RcTree::new();
        let r = t.add_root(100.0);
        let m1 = t.elmore_from(55.0);
        assert!((m1[r] - 5.5).abs() < 1e-12);
    }

    #[test]
    fn add_cap_increases_total() {
        let mut t = branchy();
        let before = t.total_cap();
        t.add_cap(2, 15.0);
        assert_eq!(t.total_cap(), before + 15.0);
        assert_eq!(t.capacitance(2), 35.0);
    }

    #[test]
    #[should_panic(expected = "parent node does not exist")]
    fn invalid_parent_rejected() {
        let mut t = RcTree::new();
        t.add_root(1.0);
        t.add_node(7, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "already has a root")]
    fn double_root_rejected() {
        let mut t = RcTree::new();
        t.add_root(1.0);
        t.add_root(1.0);
    }

    #[test]
    fn parent_accessor() {
        let t = branchy();
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(2), Some(1));
        assert_eq!(t.resistance(2), 50.0);
    }
}
