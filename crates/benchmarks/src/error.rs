//! Typed errors for instance and solution file parsing.

use contango_core::error::{InstanceError, TreeError};
use std::fmt;

/// A problem found while parsing an instance or solution file.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A malformed record; `line` is 1-based.
    Syntax {
        /// The offending line number (1-based).
        line: usize,
        /// What is wrong with the record.
        message: String,
    },
    /// Sink ids do not form a contiguous range from zero.
    NonContiguousSinkIds {
        /// The first missing id.
        missing: usize,
    },
    /// A solution file contains no nodes.
    EmptySolution,
    /// A solution's node count disagrees with its header.
    NodeCountMismatch {
        /// The count declared by the header.
        declared: usize,
        /// The count of node records in the file.
        seen: usize,
    },
    /// The parsed instance failed validation.
    Instance(InstanceError),
    /// The parsed tree violated a structural invariant.
    Tree(TreeError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            ParseError::NonContiguousSinkIds { missing } => {
                write!(f, "sink ids must be contiguous; missing id {missing}")
            }
            ParseError::EmptySolution => write!(f, "solution contains no nodes"),
            ParseError::NodeCountMismatch { declared, seen } => write!(
                f,
                "node count mismatch: header declares {declared}, file contains {seen}"
            ),
            ParseError::Instance(e) => e.fmt(f),
            ParseError::Tree(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Instance(e) => Some(e),
            ParseError::Tree(e) => Some(e),
            _ => None,
        }
    }
}

impl From<InstanceError> for ParseError {
    fn from(e: InstanceError) -> Self {
        ParseError::Instance(e)
    }
}

impl From<TreeError> for ParseError {
    fn from(e: TreeError) -> Self {
        ParseError::Tree(e)
    }
}

impl ParseError {
    /// Builds a [`ParseError::Syntax`] for a 1-based line number.
    pub fn syntax(line: usize, message: impl Into<String>) -> Self {
        ParseError::Syntax {
            line,
            message: message.into(),
        }
    }
}
