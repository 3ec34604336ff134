//! # mvmqo-relalg
//!
//! Multiset relational algebra substrate for the `mvmqo` reproduction of
//! *Materialized View Selection and Maintenance Using Multi-Query
//! Optimization* (Mistry, Roy, Ramamritham, Sudarshan — SIGMOD 2001).
//!
//! This crate provides everything the optimizer and executor need to talk
//! about data *logically*:
//!
//! * [`types`] — scalar values with a total order (multiset keys),
//! * [`mod@tuple`] — rows and bag (multiset) helpers,
//! * [`batch`] — columnar batches (struct-of-arrays + selection vectors)
//!   for the vectorized executor,
//! * [`schema`] — globally-unique attribute identities and schemas,
//! * [`expr`] — scalar expressions and canonical conjunctive predicates,
//! * [`agg`] — aggregate functions and incremental accumulators,
//! * [`logical`] — the logical operator tree views are written in,
//! * [`catalog`] — table definitions, keys, and base statistics,
//! * [`stats`] — cardinality estimation used by the cost model,
//! * [`codec`] — the self-describing binary encoding the durability layer
//!   uses for WAL records and snapshots.
//!
//! Nothing in this crate knows about DAGs, deltas, or plans; those live in
//! `mvmqo-core`.

// Panic-free discipline: untrusted bytes (WAL, snapshot) are decoded here
// and every engine crate stands on these types, so `unwrap`/`expect` needs
// a per-site invariant justification or a typed error.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod agg;
pub mod batch;
pub mod catalog;
pub mod codec;
pub mod expr;
pub mod hash;
pub mod logical;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod types;

pub use agg::{AggFunc, AggSpec};
pub use batch::{Batch, Column, ColumnData, CompiledPredicate};
pub use catalog::{Catalog, ColumnSpec, ForeignKey, TableDef, TableId};
pub use codec::{CodecError, Dec, Enc};
pub use expr::{ArithOp, CmpOp, Predicate, ScalarExpr};
pub use logical::{LogicalExpr, ViewDef};
pub use schema::{AttrAllocator, AttrId, Attribute, Schema};
pub use stats::{ColStats, RelStats};
pub use tuple::Tuple;
pub use types::{DataType, Value};
