//! Typed executor errors.
//!
//! Every operator evaluation, materialization, and merge in this crate
//! returns `Result<_, ExecError>` instead of unwinding: schema drift, a
//! plan referencing state that was never prepared, a storage-level failure,
//! or an injected fault all surface as values the warehouse can catch,
//! abort the epoch on, and retry.

use mvmqo_core::dag::EqId;
use mvmqo_storage::error::StorageError;
use mvmqo_storage::faults::FaultError;
use std::fmt;

/// An operator-level execution failure. The epoch that hit it is aborted
/// by the warehouse, which rolls its writes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A storage lookup failed (e.g. a scanned base table was never loaded).
    Storage(StorageError),
    /// An injected fault fired (chaos testing).
    Fault(FaultError),
    /// A plan referenced an attribute its input schema does not carry
    /// (schema drift between planner and executor).
    MissingAttr { attr: String, context: &'static str },
    /// A materialization step had no physical plan for its target node.
    MissingPlan(EqId),
    /// A plan read a materialized node that was never prepared.
    MissingMat(EqId),
    /// A plan read a delta that was never stored.
    MissingDelta { node: EqId, update: String },
    /// An index-nested-loop probe found no index on the inner relation.
    MissingIndex { target: String },
    /// A maintained-state invariant did not hold at merge time.
    Invariant(String),
}

impl ExecError {
    pub fn missing_attr(attr: impl fmt::Display, context: &'static str) -> ExecError {
        ExecError::MissingAttr {
            attr: attr.to_string(),
            context,
        }
    }

    pub fn invariant(msg: impl Into<String>) -> ExecError {
        ExecError::Invariant(msg.into())
    }

    /// Short site label for abort reporting (`EpochAborted { site, .. }`).
    pub fn site(&self) -> String {
        match self {
            ExecError::Storage(_) => "exec:storage".to_string(),
            ExecError::Fault(f) => f.site.clone(),
            ExecError::MissingAttr { context, .. } => format!("exec:{context}"),
            ExecError::MissingPlan(_) => "exec:plan".to_string(),
            ExecError::MissingMat(_) => "exec:read-mat".to_string(),
            ExecError::MissingDelta { .. } => "exec:read-delta".to_string(),
            ExecError::MissingIndex { .. } => "exec:index-nl-join".to_string(),
            ExecError::Invariant(_) => "exec:merge".to_string(),
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Storage(e) => write!(f, "storage: {e}"),
            ExecError::Fault(e) => write!(f, "{e}"),
            ExecError::MissingAttr { attr, context } => {
                write!(f, "attribute {attr} missing from input schema in {context}")
            }
            ExecError::MissingPlan(e) => write!(f, "no physical plan for materialized node {e}"),
            ExecError::MissingMat(e) => write!(f, "materialized node {e} not prepared"),
            ExecError::MissingDelta { node, update } => {
                write!(f, "delta ({node},{update}) not stored")
            }
            ExecError::MissingIndex { target } => {
                write!(f, "no index on inner relation {target} of index join")
            }
            ExecError::Invariant(msg) => write!(f, "executor invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<StorageError> for ExecError {
    fn from(e: StorageError) -> ExecError {
        ExecError::Storage(e)
    }
}

impl From<FaultError> for ExecError {
    fn from(e: FaultError) -> ExecError {
        ExecError::Fault(e)
    }
}

/// Render a `catch_unwind` payload as a message (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
