//! # mvmqo-warehouse
//!
//! A stateful warehouse engine on top of the `mvmqo` reproduction of
//! *Materialized View Selection and Maintenance Using Multi-Query
//! Optimization* (SIGMOD 2001).
//!
//! The paper optimizes the maintenance of a fixed view set once, offline.
//! This crate runs the same machinery *continuously*:
//!
//! * [`Warehouse`] — owns the database, catalog, view set, and the current
//!   optimizer plan; `register_view`/`drop_view` re-run the §6 selection
//!   over the whole set, `ingest` queues arbitrary δ⁺/δ⁻ batches (§5.2's
//!   2n update numbering), `run_epoch` executes the shared maintenance
//!   program while persisting permanent materializations and indices
//!   across epochs, `answer` serves a view as a columnar batch with a
//!   staleness flag, and `verify` checks a maintained view against a
//!   batch-executor recompute;
//! * [`policy`] — adaptive re-optimization: re-plan on view-set changes,
//!   cumulative delta drift, update-shape changes, or realized-vs-estimated
//!   cost divergence;
//! * [`script`] — a tiny script/REPL language over the TPC-D substrate so
//!   new warehouse scenarios can be driven without writing Rust (the
//!   `warehouse` binary);
//! * [`durability`] — the engine's snapshot image: what `save` persists
//!   (atomic columnar snapshot + manifest) and `recover` reloads before
//!   replaying the WAL tail through the ordinary ingest/epoch path.

// Panic-free discipline: the engine is long-lived, so `unwrap`/`expect` in
// production code needs a per-site invariant justification or a typed
// error. (Tests are exempt — see clippy.toml.)
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod durability;
pub mod engine;
pub mod error;
pub mod policy;
pub mod script;

pub use durability::{SnapshotData, ViewMatImage};
pub use engine::{
    AbortInfo, Answer, EpochReport, QueryResult, RecoveryInfo, ReplanRecord, Warehouse,
};
pub use error::WarehouseError;
pub use mvmqo_core::session::PlanMode;
pub use mvmqo_storage::faults::{FaultMode, FaultPlan, FaultRegistry, FaultTrigger};
pub use policy::{ReoptPolicy, ReoptTrigger};
pub use script::Session;
