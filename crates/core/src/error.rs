//! Typed errors of the synthesis flow.
//!
//! Every fallible public API in this crate reports one of the enums below
//! instead of a bare `String`, so callers can match on the failure class
//! (invalid input, broken tree invariant, infeasible buffering, lowering
//! failure) and error-reporting stacks can walk [`std::error::Error::source`]
//! chains. Conversions between layers are provided as hand-written `From`
//! impls: a pass or flow wrapper can use `?` on instance validation, tree
//! validation and netlist construction alike.

use contango_sim::NetlistError;
use std::fmt;

/// A problem with a [`ClockNetInstance`](crate::instance::ClockNetInstance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstanceError {
    /// The instance has no sinks.
    NoSinks,
    /// The total capacitance budget is not a positive finite number.
    NonPositiveCapLimit,
    /// The clock source has a non-finite coordinate.
    NonFiniteSource,
    /// Sink ids are not contiguous from zero.
    NonContiguousSinkIds {
        /// The id found at the offending position.
        found: usize,
        /// The position (and therefore the expected id).
        index: usize,
    },
    /// A sink's pin capacitance is not a positive finite number.
    NonPositiveSinkCap {
        /// Index of the offending sink.
        sink: usize,
    },
    /// A sink lies outside the die outline.
    SinkOutsideDie {
        /// Index of the offending sink.
        sink: usize,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::NoSinks => write!(f, "instance has no sinks"),
            InstanceError::NonPositiveCapLimit => {
                write!(f, "capacitance limit must be a positive finite number")
            }
            InstanceError::NonFiniteSource => write!(f, "source location must be finite"),
            InstanceError::NonContiguousSinkIds { found, index } => {
                write!(f, "sink ids must be contiguous; found {found} at {index}")
            }
            InstanceError::NonPositiveSinkCap { sink } => {
                write!(
                    f,
                    "sink {sink} capacitance must be a positive finite number"
                )
            }
            InstanceError::SinkOutsideDie { sink } => {
                write!(f, "sink {sink} lies outside the die")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// A violated structural invariant of a [`ClockTree`](crate::tree::ClockTree).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TreeError {
    /// A non-root node has no parent.
    OrphanNode {
        /// The parentless node.
        node: usize,
    },
    /// A node is missing from its parent's child list.
    MissingChildLink {
        /// The node whose parent does not list it.
        node: usize,
    },
    /// A child's parent pointer disagrees with the child list it appears in.
    ParentMismatch {
        /// The node listing the child.
        node: usize,
        /// The child with the inconsistent parent pointer.
        child: usize,
    },
    /// A sink node has children.
    SinkNotLeaf {
        /// The non-leaf sink node.
        node: usize,
    },
    /// A sink id is not registered to the node that carries it.
    SinkNotRegistered {
        /// The sink id.
        sink: usize,
        /// The node carrying the sink.
        node: usize,
    },
    /// Some nodes are unreachable from the root.
    UnreachableNodes,
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::OrphanNode { node } => {
                write!(f, "node {node} has no parent but is not the root")
            }
            TreeError::MissingChildLink { node } => {
                write!(f, "node {node} missing from its parent's child list")
            }
            TreeError::ParentMismatch { node, child } => {
                write!(f, "child {child} of node {node} has a different parent")
            }
            TreeError::SinkNotLeaf { node } => write!(f, "sink node {node} is not a leaf"),
            TreeError::SinkNotRegistered { sink, node } => {
                write!(f, "sink {sink} not registered to node {node}")
            }
            TreeError::UnreachableNodes => write!(f, "tree contains unreachable nodes"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Any failure of the synthesis flow or of an individual pass.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The problem instance is invalid.
    Instance(InstanceError),
    /// A clock tree violated a structural invariant.
    Tree(TreeError),
    /// Lowering produced a structurally invalid netlist.
    Netlist(NetlistError),
    /// No composite-buffer configuration fits the capacitance budget.
    BufferBudget {
        /// The usable budget after the power reserve, in fF.
        budget_ff: f64,
        /// The usable fraction of the capacitance limit, in percent.
        budget_pct: f64,
    },
    /// A pipeline pass failed; wraps the underlying error with the pass
    /// acronym for context.
    Pass {
        /// Acronym of the failing pass.
        pass: String,
        /// The underlying failure.
        source: Box<CoreError>,
    },
    /// A pipeline with no passes was run.
    EmptyPipeline,
    /// A pipeline finished without a tree that drives every sink —
    /// typically a custom pipeline missing the construction pass.
    MissingSinks {
        /// Sinks driven by the synthesized tree.
        driven: usize,
        /// Sinks in the instance.
        expected: usize,
    },
    /// A failure that happened in another process and crossed a process
    /// boundary as its rendered message. The structured variant is lost in
    /// transit, but the message is carried verbatim so failure tables and
    /// JSONL reports stay byte-identical to an in-process run.
    Remote {
        /// The remote error's `Display` output, verbatim.
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Instance(e) => e.fmt(f),
            CoreError::Tree(e) => e.fmt(f),
            CoreError::Netlist(e) => e.fmt(f),
            CoreError::BufferBudget {
                budget_ff,
                budget_pct,
            } => write!(
                f,
                "no composite configuration fits within {budget_ff:.1} fF \
                 ({budget_pct:.0}% of the capacitance limit)"
            ),
            CoreError::Pass { pass, source } => write!(f, "pass {pass}: {source}"),
            CoreError::EmptyPipeline => write!(f, "pipeline contains no passes"),
            CoreError::MissingSinks { driven, expected } => write!(
                f,
                "pipeline produced a tree driving {driven} of {expected} sinks \
                 (is the construction pass missing?)"
            ),
            CoreError::Remote { message } => f.write_str(message),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Instance(e) => Some(e),
            CoreError::Tree(e) => Some(e),
            CoreError::Netlist(e) => Some(e),
            CoreError::Pass { source, .. } => Some(source.as_ref()),
            CoreError::BufferBudget { .. }
            | CoreError::EmptyPipeline
            | CoreError::MissingSinks { .. }
            | CoreError::Remote { .. } => None,
        }
    }
}

impl From<InstanceError> for CoreError {
    fn from(e: InstanceError) -> Self {
        CoreError::Instance(e)
    }
}

impl From<TreeError> for CoreError {
    fn from(e: TreeError) -> Self {
        CoreError::Tree(e)
    }
}

impl From<NetlistError> for CoreError {
    fn from(e: NetlistError) -> Self {
        CoreError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_name_the_failure() {
        assert_eq!(InstanceError::NoSinks.to_string(), "instance has no sinks");
        assert_eq!(
            TreeError::UnreachableNodes.to_string(),
            "tree contains unreachable nodes"
        );
        let err = CoreError::BufferBudget {
            budget_ff: 900.0,
            budget_pct: 90.0,
        };
        assert!(err.to_string().contains("900.0 fF"));
        assert!(err.to_string().contains("90%"));
    }

    #[test]
    fn pass_errors_wrap_their_source() {
        use std::error::Error as _;
        let err = CoreError::Pass {
            pass: "INITIAL".to_string(),
            source: Box::new(CoreError::Instance(InstanceError::NoSinks)),
        };
        assert_eq!(err.to_string(), "pass INITIAL: instance has no sinks");
        assert!(err.source().is_some());
    }

    #[test]
    fn remote_errors_print_their_message_verbatim() {
        use std::error::Error as _;
        let original = CoreError::Pass {
            pass: "INITIAL".to_string(),
            source: Box::new(CoreError::Instance(InstanceError::NoSinks)),
        };
        let remote = CoreError::Remote {
            message: original.to_string(),
        };
        assert_eq!(remote.to_string(), original.to_string());
        assert!(remote.source().is_none());
    }

    #[test]
    fn conversions_lift_layer_errors() {
        let e: CoreError = InstanceError::NoSinks.into();
        assert_eq!(e, CoreError::Instance(InstanceError::NoSinks));
        let e: CoreError = TreeError::UnreachableNodes.into();
        assert_eq!(e, CoreError::Tree(TreeError::UnreachableNodes));
    }
}
