//! Typed warehouse errors.
//!
//! A long-lived engine must never abort on bad input: registering a
//! malformed view, ingesting a batch for an unknown table, or querying a
//! view that was never registered all surface as [`WarehouseError`] and
//! leave the engine fully usable.

use mvmqo_exec::ExecError;
use mvmqo_storage::error::{RecoveryError, StorageError};
use std::fmt;

/// Errors raised by the [`crate::Warehouse`] API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarehouseError {
    /// No registered view with this name.
    UnknownView(String),
    /// A view with this name is already registered.
    DuplicateView(String),
    /// The view expression failed validation against the catalog.
    InvalidView { name: String, reason: String },
    /// A storage-layer failure (unknown table, malformed batch, ...).
    Storage(StorageError),
    /// Recomputing a view for a read failed in the executor (an engine
    /// invariant broke; the engine itself is unchanged).
    Exec(ExecError),
    /// Loading durable state failed (missing manifest, corrupt snapshot,
    /// unreadable files). A torn WAL tail is *not* an error — prefix
    /// recovery absorbs it.
    Recovery(RecoveryError),
    /// Writing durable state (WAL append or snapshot) failed.
    Durability(String),
    /// A durability operation was requested but `wal on` was never issued.
    DurabilityDisabled,
    /// An epoch transaction failed before its commit point and was rolled
    /// back: the staged state was dropped, the engine still serves exact
    /// pre-epoch answers, and the pending delta queue is intact. Retryable
    /// — call `run_epoch` again (after fixing/clearing the cause).
    EpochAborted {
        /// The epoch the transaction was trying to commit.
        epoch: u64,
        /// Fault-site label of the failure (e.g. `"exec:hash-join"`).
        site: String,
        /// Human-readable cause (error or panic message).
        cause: String,
    },
}

impl fmt::Display for WarehouseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarehouseError::UnknownView(name) => write!(f, "unknown view {name:?}"),
            WarehouseError::DuplicateView(name) => {
                write!(f, "view {name:?} is already registered")
            }
            WarehouseError::InvalidView { name, reason } => {
                write!(f, "invalid view {name:?}: {reason}")
            }
            WarehouseError::Storage(e) => write!(f, "{e}"),
            WarehouseError::Exec(e) => write!(f, "{e}"),
            WarehouseError::Recovery(e) => write!(f, "{e}"),
            WarehouseError::Durability(why) => write!(f, "durability failure: {why}"),
            WarehouseError::DurabilityDisabled => {
                f.write_str("durability is not enabled (run `wal on <dir>` first)")
            }
            WarehouseError::EpochAborted { epoch, site, cause } => {
                write!(
                    f,
                    "epoch {epoch} aborted at {site}: {cause} (pre-epoch state retained; retry)"
                )
            }
        }
    }
}

impl std::error::Error for WarehouseError {}

impl From<StorageError> for WarehouseError {
    fn from(e: StorageError) -> Self {
        WarehouseError::Storage(e)
    }
}

impl From<ExecError> for WarehouseError {
    fn from(e: ExecError) -> Self {
        WarehouseError::Exec(e)
    }
}

impl From<RecoveryError> for WarehouseError {
    fn from(e: RecoveryError) -> Self {
        WarehouseError::Recovery(e)
    }
}
