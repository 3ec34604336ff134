//! The optimizer: Volcano-style best-plan search with materialized results
//! (§5.1), differential plan costing (§5.3), and greedy selection of extra
//! materializations and indices with the incremental-cost-update and
//! monotonicity optimizations (§6).

pub mod costing;
pub mod greedy;

pub use costing::{
    Alg, CostEngine, EngineStats, EqSet, IndexSet, MatSet, SavedMemo, Slot, StoredRef, Trial,
};
pub use greedy::{
    candidate_blocks, classify_refresh, describe_candidate, enumerate_candidates, run_greedy_warm,
    Candidate, GreedyOptions, GreedyResult, Mode, RefreshStrategy, WarmStart,
};
