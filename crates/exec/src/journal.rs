//! The epoch journal: how an aborted epoch is rolled back.
//!
//! An epoch runs against the live [`Database`] and [`RuntimeState`] and
//! records, for every write, how to take it back: base-table and stored-
//! result writes as storage [`TableJournal`]s, and every change to the
//! state's bookkeeping (a result installed or dropped, a freshness mark
//! set or cleared, a support state replaced or folded into). A displaced stored result or support state is *moved*
//! into the journal, never shared, so recording copies nothing — except
//! that the first fold into an aggregate or distinct support state in an
//! epoch saves its handle, so the fold copies the O(groups) state once.
//!
//! Only a result's *pre-epoch* table and support states matter to
//! rollback. Once one is saved, later versions need no record: a result
//! rebuilt twice in an epoch drops the middle version at once, and the
//! records of writes to a table the epoch itself built are dropped.
//!
//! Commit drops the journal. [`Journal::rollback`] replays it newest
//! first and leaves database and state exactly as they were before the
//! epoch. It runs after a failure was caught, where a panic could no
//! longer be contained, so this module is lint-gated panic-free.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::runtime::{AggState, DistinctState, RuntimeState};
use mvmqo_core::dag::EqId;
use mvmqo_relalg::catalog::TableId;
use mvmqo_storage::database::Database;
use mvmqo_storage::journal::{DbJournal, TableJournal};
use mvmqo_storage::table::StoredTable;
use std::collections::HashSet;
use std::sync::Arc;

/// The inverse of one change to a [`RuntimeState`].
#[derive(Debug)]
enum Undo {
    /// Writes to the stored result `e` in place.
    Table(EqId, TableJournal),
    /// `e`'s stored result was installed or dropped: what it displaced.
    Stored(EqId, Option<StoredTable>),
    /// `e`'s freshness mark flipped; it was set before iff `true`.
    Fresh(EqId, bool),
    /// `e`'s aggregate support state before its first change this epoch.
    Agg(EqId, Option<Arc<AggState>>),
    /// `e`'s distinct support state before its first change this epoch.
    Distinct(EqId, Option<Arc<DistinctState>>),
}

/// The undo journal of one epoch (module docs).
#[derive(Debug, Default)]
pub struct Journal {
    db: DbJournal,
    state: Vec<Undo>,
    /// Results whose pre-epoch stored table / aggregate / distinct support
    /// state is already saved: rollback restores that value, so later
    /// changes need no record of their own.
    saved_mat: HashSet<EqId>,
    saved_agg: HashSet<EqId>,
    saved_distinct: HashSet<EqId>,
}

impl Journal {
    pub fn new() -> Self {
        Journal::default()
    }

    /// Undo every recorded write, newest first: `db` and `state` end as
    /// they were when the journal was created. They must be the database
    /// and state the journal recorded, in the state the epoch left them.
    pub fn rollback(self, db: &mut Database, state: &mut RuntimeState) {
        for undo in self.state.into_iter().rev() {
            match undo {
                Undo::Table(e, journal) => {
                    if let Some(table) = state.mats.get_mut(&e) {
                        journal.rollback(table);
                    }
                }
                Undo::Stored(e, Some(table)) => {
                    state.mats.insert(e, table);
                }
                Undo::Stored(e, None) => {
                    state.mats.remove(&e);
                }
                Undo::Fresh(e, was) => flip_back(&mut state.fresh, e, was),
                Undo::Agg(e, Some(old)) => {
                    state.agg_states.insert(e, old);
                }
                Undo::Agg(e, None) => {
                    state.agg_states.remove(&e);
                }
                Undo::Distinct(e, Some(old)) => {
                    state.distinct_states.insert(e, old);
                }
                Undo::Distinct(e, None) => {
                    state.distinct_states.remove(&e);
                }
            }
        }
        self.db.rollback(db);
    }

    /// Keep the records of writes to base table `t`.
    pub(crate) fn base(&mut self, t: TableId, journal: TableJournal) {
        self.db.record(t, journal);
    }

    /// Keep the records of in-place writes to the stored result `e` —
    /// unless its pre-epoch table is already saved, so the written one is
    /// the epoch's own.
    pub(crate) fn table(&mut self, e: EqId, journal: TableJournal) {
        if !journal.is_empty() && !self.saved_mat.contains(&e) {
            self.state.push(Undo::Table(e, journal));
        }
    }

    /// `e`'s stored result was replaced or removed; `old` is what was
    /// there (kept only on the first change this epoch, dropped after).
    pub(crate) fn stored(&mut self, e: EqId, old: Option<StoredTable>) {
        if self.saved_mat.insert(e) {
            self.state.push(Undo::Stored(e, old));
        }
    }

    /// `e`'s freshness mark flipped from `was`.
    pub(crate) fn fresh(&mut self, e: EqId, was: bool) {
        self.state.push(Undo::Fresh(e, was));
    }

    /// `e`'s aggregate support state is about to change; `old` is its
    /// current value (kept only on the first change this epoch).
    pub(crate) fn agg(&mut self, e: EqId, old: Option<Arc<AggState>>) {
        if self.saved_agg.insert(e) {
            self.state.push(Undo::Agg(e, old));
        }
    }

    /// As [`Journal::agg`], for a distinct support state.
    pub(crate) fn distinct(&mut self, e: EqId, old: Option<Arc<DistinctState>>) {
        if self.saved_distinct.insert(e) {
            self.state.push(Undo::Distinct(e, old));
        }
    }
}

fn flip_back(set: &mut HashSet<EqId>, e: EqId, was: bool) {
    if was {
        set.insert(e);
    } else {
        set.remove(&e);
    }
}
