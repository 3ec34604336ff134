//! # mvmqo-core
//!
//! The primary contribution of *Materialized View Selection and Maintenance
//! Using Multi-Query Optimization* (Mistry, Roy, Ramamritham, Sudarshan —
//! SIGMOD 2001), reimplemented as a library:
//!
//! * [`dag`] — the AND-OR DAG of §4: equivalence/operation nodes, expansion
//!   to all join orders, eager unification, subsumption derivations;
//! * [`update`] — the 2n update numbering of §5.2;
//! * [`cost`] — the seek/transfer/CPU cost model of §7.1, buffer-sensitive;
//! * [`diff`] — differential logical properties: per-node delta statistics
//!   and the state sequence "after updates 1..i−1";
//! * [`opt`] — the optimizer: Volcano-style best plans with a materialized
//!   set (§5.1), `diffCost` for differentials (§5.3), and the greedy
//!   selection of additional views/indices with the incremental cost update
//!   and monotonicity optimizations (§6);
//! * [`plan`] — the physical plan IR and the maintenance program handed to
//!   an executor;
//! * [`session`] — the re-entrant [`session::Optimizer`], the one way
//!   into the optimizer: register views (and §6.2's read-only queries),
//!   plan, and replan after view churn or statistics drift at incremental
//!   cost instead of a full rebuild;
//! * [`api`] — the optimizer's report types ([`api::OptimizerReport`]).

// Panic-free discipline, as in `exec` and `warehouse`: an `unwrap` or
// `expect` outside tests needs a per-site justification.
#![warn(clippy::unwrap_used, clippy::expect_used)]

pub mod api;
pub mod cost;
pub mod dag;
pub mod diff;
pub mod opt;
pub mod plan;
pub mod session;
pub mod update;

pub use api::OptimizerReport;
pub use dag::{Dag, EqId, OpId};
pub use session::{Optimizer, PlanMode, PlanOutcome};
pub use update::{UpdateId, UpdateModel, UpdateStep};
