//! Typed storage errors.
//!
//! The storage layer used to panic on bad lookups, which was fine for the
//! one-shot batch pipeline but unacceptable for a long-lived warehouse
//! engine: ingesting a malformed batch must surface an error, not abort the
//! process. All fallible [`crate::database::Database`] entry points return
//! [`StorageError`].

use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::types::DataType;
use std::fmt;

/// Errors raised by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A base table referenced by id has no stored contents.
    TableNotLoaded(TableId),
    /// A delta tuple's arity does not match the table schema.
    ArityMismatch {
        table: TableId,
        expected: usize,
        got: usize,
    },
    /// A delta value is not of its column's type (NULL fits every type;
    /// an `Int` does not fit a `Float` column).
    TypeMismatch {
        table: TableId,
        column: String,
        expected: DataType,
        got: DataType,
    },
    /// A delete batch removes a tuple more times than it will occur
    /// (stored occurrences plus queued inserts). Applying it would
    /// saturate on the base multiset while incremental maintenance
    /// subtracts unconditionally — so it must be rejected up front.
    PhantomDelete { table: TableId },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TableNotLoaded(t) => write!(f, "base table {t} not loaded"),
            StorageError::ArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "delta tuple for table {table} has {got} values, schema expects {expected}"
            ),
            StorageError::TypeMismatch {
                table,
                column,
                expected,
                got,
            } => write!(
                f,
                "delta value for table {table} column {column} is {got}, schema expects {expected}"
            ),
            StorageError::PhantomDelete { table } => write!(
                f,
                "delete batch for table {table} removes a tuple more times than it occurs"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

/// Errors raised while loading durable state. A torn WAL tail is *not* an
/// error (prefix recovery handles it, see [`crate::wal::scan_wal`]); these
/// are the failures recovery cannot proceed past — a missing manifest, an
/// unreadable file, a snapshot whose framing or contents fail
/// verification, or a CRC-valid WAL record that does not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryError {
    /// Filesystem failure while reading durable state.
    Io(String),
    /// A durable file failed its CRC, magic, or structural checks.
    Corrupt { file: String, why: String },
    /// The durability directory has no manifest — nothing to recover.
    MissingManifest(String),
    /// Snapshot contents are internally inconsistent (e.g. a table
    /// references a catalog entry that does not exist).
    Inconsistent(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(why) => write!(f, "recovery I/O error: {why}"),
            RecoveryError::Corrupt { file, why } => {
                write!(f, "durable file {file} is corrupt: {why}")
            }
            RecoveryError::MissingManifest(dir) => {
                write!(f, "no manifest in durability directory {dir}")
            }
            RecoveryError::Inconsistent(why) => {
                write!(f, "snapshot is inconsistent: {why}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}
