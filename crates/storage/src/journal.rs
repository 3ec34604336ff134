//! Undo journals: how a transaction rolls in-place table writes back.
//!
//! A transactional epoch does not stage its writes on a copy. It mutates
//! the live tables in place, and every mutating step records its inverse:
//! a [`TableJournal`] per table written, collected per database in a
//! [`DbJournal`]. Commit drops the journal; abort replays it newest first,
//! which leaves every table exactly as it was — columns, dictionaries,
//! row count, and the positions under every index key in their old order.
//! The records are O(|δ| × width) (see `StoredTable`'s module docs for
//! what each step keeps).
//!
//! Rollback runs after a failure has already been caught, so a panic here
//! could no longer be contained: this module is lint-gated panic-free.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use crate::database::Database;
use crate::index::Index;
use crate::table::StoredTable;
use mvmqo_relalg::batch::{AppendMark, Column, CutRows};
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::schema::AttrId;
use std::sync::{Arc, OnceLock};

/// The inverse of one in-place step on a stored table.
#[derive(Debug)]
pub(crate) enum TableUndo {
    /// Rows were appended after the mark: truncate back, and remove the
    /// postings of the appended positions.
    Append(AppendMark),
    /// Rows were swap-removed: `moves` and the `cut` tail restore the
    /// columns, and each index re-posts its victims at their old slots.
    Delete {
        moves: Vec<(u32, u32)>,
        cut: CutRows,
        /// Per index: `(victim position, slot)` in removal order.
        unposted: Vec<(AttrId, Vec<(u32, usize)>)>,
    },
    /// An index was built on the attribute: the one it displaced, if any.
    Index(AttrId, Option<Arc<Index>>),
    /// The dictionary rule rebuilt the column at this position: the old
    /// handle.
    Column(usize, Arc<Column>),
}

/// The undo records of one stored table, oldest first.
#[derive(Debug, Default)]
pub struct TableJournal {
    undo: Vec<TableUndo>,
}

impl TableJournal {
    pub fn new() -> Self {
        TableJournal::default()
    }

    /// True when nothing was recorded (the table was not written).
    pub fn is_empty(&self) -> bool {
        self.undo.is_empty()
    }

    pub(crate) fn push(&mut self, undo: TableUndo) {
        self.undo.push(undo);
    }

    /// Undo every recorded step on `table`, newest first. `table` must be
    /// the table the steps were recorded on, in the state they left it.
    pub fn rollback(self, table: &mut StoredTable) {
        for undo in self.undo.into_iter().rev() {
            table.undo(undo);
        }
        table.rows = Arc::new(OnceLock::new());
    }
}

/// The undo records of a database's base tables, oldest first.
#[derive(Debug, Default)]
pub struct DbJournal {
    tables: Vec<(TableId, TableJournal)>,
}

impl DbJournal {
    pub fn new() -> Self {
        DbJournal::default()
    }

    /// Keep the records of writes to base table `id`.
    pub fn record(&mut self, id: TableId, journal: TableJournal) {
        if !journal.is_empty() {
            self.tables.push((id, journal));
        }
    }

    /// Undo every recorded write to `db`, newest first.
    pub fn rollback(self, db: &mut Database) {
        for (id, journal) in self.tables.into_iter().rev() {
            if let Ok(table) = db.base_mut(id) {
                journal.rollback(table);
            }
        }
    }
}

impl StoredTable {
    /// Apply one inverse step.
    fn undo(&mut self, undo: TableUndo) {
        match undo {
            TableUndo::Append(mark) => {
                // Each appended position is the newest posting under its
                // key, so removing them newest first restores every key.
                let (start, end) = (mark.rows(), self.batch.num_rows());
                for idx in self.indices.values_mut() {
                    let Some(pos) = self.schema.position_of(idx.attr) else {
                        continue;
                    };
                    let idx = Arc::make_mut(idx);
                    let col = self.batch.column(pos);
                    for p in (start..end).rev() {
                        idx.remove(&col.value(p), p as u32);
                    }
                }
                self.batch.undo_append(mark);
            }
            TableUndo::Delete {
                moves,
                cut,
                unposted,
            } => {
                // Moved rows' postings point back at their old positions
                // (keys read where the rows sit now)…
                for idx in self.indices.values_mut() {
                    let Some(pos) = self.schema.position_of(idx.attr) else {
                        continue;
                    };
                    let idx = Arc::make_mut(idx);
                    let col = self.batch.column(pos);
                    for &(from, to) in moves.iter().rev() {
                        idx.repoint(&col.value(to as usize), to, from);
                    }
                }
                // …the rows go back where they were…
                self.batch.undo_swap_remove(&moves, cut);
                // …and the victims are posted again, at their old slots.
                for (attr, slots) in unposted.into_iter().rev() {
                    let (Some(idx), Some(pos)) =
                        (self.indices.get_mut(&attr), self.schema.position_of(attr))
                    else {
                        continue;
                    };
                    let idx = Arc::make_mut(idx);
                    let col = self.batch.column(pos);
                    for (v, slot) in slots.into_iter().rev() {
                        idx.unremove(&col.value(v as usize), v, slot);
                    }
                }
            }
            TableUndo::Index(attr, Some(old)) => {
                self.indices.insert(attr, old);
            }
            TableUndo::Index(attr, None) => {
                self.indices.remove(&attr);
            }
            TableUndo::Column(pos, old) => self.batch.restore_column(pos, old),
        }
    }
}
