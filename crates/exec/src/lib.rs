//! # mvmqo-exec
//!
//! Multiset execution engine for `mvmqo` maintenance programs. The paper
//! evaluated with estimated costs only ("since we do not currently have a
//! query execution engine ... we are unable to get actual numbers", §7.1);
//! this crate closes that gap:
//!
//! * [`runtime`] — *vectorized* plan evaluation over columnar
//!   [`mvmqo_relalg::batch::Batch`]es (hash / merge / nested-loop / index
//!   nested-loop joins, aggregation, multiset union/difference; filters
//!   and projections are selection-vector/column updates, joins build
//!   borrowed-key hash tables and gather row-id pairs once), stored
//!   materializations with on-demand recomputation, aggregate/distinct
//!   merge with hidden support state;
//! * [`run`] — drives a [`mvmqo_core::plan::Program`] through one refresh
//!   cycle with the one-relation-one-kind-at-a-time semantics of §3.2.2,
//!   on one thread, in program order;
//! * [`journal`] — the epoch's undo journal: an epoch writes database and
//!   state in place, and an abort replays the journal to put them back;
//! * [`mod@error`] — typed executor errors ([`ExecError`]): operator
//!   failures, schema drift and injected faults all surface as values, so
//!   a long-lived engine can abort the epoch that hit them and retry
//!   instead of crashing;
//! * [`meter`] — simulated I/O/CPU accounting in the same units as the
//!   optimizer's cost model, so executed and estimated costs are
//!   comparable.

// Panic-free discipline: unwinding in an operator would tear down a
// long-lived warehouse engine, so reaching for `unwrap`/`expect` here needs
// an explicit per-site justification (a true invariant) or a typed error.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod error;
pub mod journal;
pub mod meter;
pub mod run;
pub mod runtime;

pub use error::{panic_message, ExecError};
pub use journal::Journal;
pub use meter::Meter;
pub use run::{
    execute_epoch_faults, execute_epoch_opts, index_plan_from_report, view_root, ExecOptions,
    ExecReport, IndexPlan,
};
pub use runtime::{AggState, DistinctState, Runtime, RuntimeState};
