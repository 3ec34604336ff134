//! # mvmqo-storage
//!
//! In-memory storage substrate for the `mvmqo` reproduction of *Materialized
//! View Selection and Maintenance Using Multi-Query Optimization* (SIGMOD
//! 2001):
//!
//! * [`blocks`] — block/buffer accounting shared by the cost model and the
//!   executor's simulated I/O meter (4 KB blocks, 8000-block buffer as in
//!   §7.1 of the paper),
//! * [`table`] — stored multiset relations with secondary indices,
//! * [`delta`] — δ⁺/δ⁻ delta relations (§3): the engine's columnar pending
//!   queue, and the row-shaped batches callers hand in,
//! * [`index`] — hash and B-tree secondary indices (§4.3 physical
//!   properties),
//! * [`database`] — the runtime database: base tables + materialized
//!   results + delta application,
//! * [`journal`] — undo journals: transactional epochs write tables in
//!   place and roll the writes back on abort,
//! * [`error`] — typed errors for bad lookups and malformed batches, so
//!   long-lived engines never abort on bad input,
//! * [`crc`], [`wal`], [`snapshot`] — the durability layer: CRC-framed
//!   write-ahead logging of delta batches and atomic columnar snapshots
//!   with a recovery manifest,
//! * [`faults`] — live fault injection: an ordinal-addressed registry of
//!   named sites threaded through the executor and the warehouse, firing
//!   armed faults as typed errors or panics for the chaos tests.

// Panic-free discipline: untrusted bytes (WAL, snapshot) are decoded here
// and every engine crate stands on these types, so `unwrap`/`expect` needs
// a per-site invariant justification or a typed error.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod blocks;
pub mod crc;
pub mod database;
pub mod delta;
pub mod error;
pub mod faults;
pub mod index;
pub mod journal;
pub mod snapshot;
pub mod table;
pub mod wal;

pub use blocks::BlockConfig;
pub use database::Database;
pub use delta::{DeltaBatch, DeltaKind, DeltaQueue, DeltaSet, QueuedDelta};
pub use error::{RecoveryError, StorageError};
pub use faults::{FaultError, FaultMode, FaultPlan, FaultRegistry, FaultTrigger, FiredFault};
pub use index::{Index, IndexKind};
pub use journal::{DbJournal, TableJournal};
pub use snapshot::Manifest;
pub use table::StoredTable;
pub use wal::{scan_wal, scan_wal_bytes, WalRecord, WalScan, WalStop, WalWriter};
