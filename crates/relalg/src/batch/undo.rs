//! Undo records for in-place mutation of a dense batch.
//!
//! A stored table mutates its columns in place under a journal. An append
//! is undone by truncating back to the [`AppendMark`] taken before it
//! (the columns, the null masks and the dictionary tails), and a batched
//! swap-remove by putting back the [`CutRows`] it split off the tail and
//! reversing its moves. Both records are O(|δ| × width) and hold no
//! column or dictionary handle, so keeping one forces no copy-on-write.
//!
//! The undo half runs while an aborted transaction rolls back, the one
//! place a panic can no longer be contained, so this module is
//! lint-gated panic-free.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use super::{Batch, Column, ColumnData, Dictionary};
use std::sync::Arc;

/// How to take one column back to where it stood before an append: an
/// append never changes a column's representation, so truncating to the
/// mark's row count and dropping a null mask the append created and the
/// dictionary entries it interned restores it.
#[derive(Debug)]
struct ColumnMark {
    had_nulls: bool,
    dict_len: Option<usize>,
}

/// A dense batch's state before one append ([`Batch::append_mark`]).
#[derive(Debug)]
pub struct AppendMark {
    rows: usize,
    cols: Vec<ColumnMark>,
}

impl AppendMark {
    /// Row count before the append: the appended rows start here.
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// The removed cells of one column, in tail order.
#[derive(Debug)]
pub(super) enum Cells {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<Arc<str>>),
    Date(Vec<i32>),
    Bool(Vec<bool>),
    /// Dictionary codes: the dictionary stays on the column.
    Codes(Vec<u32>),
}

#[derive(Debug)]
pub(super) struct CutColumn {
    pub(super) cells: Cells,
    pub(super) nulls: Option<Vec<bool>>,
}

/// The tail a swap-remove split off a dense batch
/// ([`Batch::swap_remove_rows`]): every removed row, in the order the
/// moves left them.
#[derive(Debug)]
pub struct CutRows {
    pub(super) rows: usize,
    pub(super) cols: Vec<CutColumn>,
}

impl Dictionary {
    /// Forget every entry from code `len` on (the strings an undone append
    /// interned): entries, hashes and their lookup buckets.
    fn truncate(&mut self, len: usize) {
        for code in len..self.values.len() {
            let Some(h) = self.hashes.get(code) else {
                continue;
            };
            if let Some(bucket) = self.index.get_mut(h) {
                bucket.retain(|&c| (c as usize) < len);
                if bucket.is_empty() {
                    self.index.remove(h);
                }
            }
        }
        self.values.truncate(len);
        self.hashes.truncate(len);
    }
}

impl ColumnData {
    /// Append the cells of a cut. They share this representation by
    /// construction: rollback restores a column's representation (a
    /// dictionary rebuild) before it puts the column's cut back.
    fn extend_cells(&mut self, cells: Cells) {
        use ColumnData as D;
        match (self, cells) {
            (D::Int(v), Cells::Int(c)) => v.extend(c),
            (D::Float(v), Cells::Float(c)) => v.extend(c),
            (D::Str(v), Cells::Str(c)) => v.extend(c),
            (D::Date(v), Cells::Date(c)) => v.extend(c),
            (D::Bool(v), Cells::Bool(c)) => v.extend(c),
            (D::Dict { codes, .. }, Cells::Codes(c)) => codes.extend(c),
            _ => {}
        }
    }

    fn swap_back(&mut self, moves: &[(u32, u32)]) {
        use ColumnData as D;
        match self {
            D::Int(v) => swap_back(v, moves),
            D::Float(v) => swap_back(v, moves),
            D::Str(v) => swap_back(v, moves),
            D::Date(v) => swap_back(v, moves),
            D::Bool(v) => swap_back(v, moves),
            D::Dict { codes, .. } => swap_back(codes, moves),
        }
    }

    fn truncate(&mut self, len: usize) {
        use ColumnData as D;
        match self {
            D::Int(v) => v.truncate(len),
            D::Float(v) => v.truncate(len),
            D::Str(v) => v.truncate(len),
            D::Date(v) => v.truncate(len),
            D::Bool(v) => v.truncate(len),
            D::Dict { codes, .. } => codes.truncate(len),
        }
    }
}

/// Undo `(from, to)` swaps; pairs out of range are skipped.
fn swap_back<T>(v: &mut [T], moves: &[(u32, u32)]) {
    for &(from, to) in moves.iter().rev() {
        let (from, to) = (from as usize, to as usize);
        if from < v.len() && to < v.len() {
            v.swap(from, to);
        }
    }
}

impl Column {
    fn undo_append(&mut self, len: usize, had_nulls: bool, dict_len: Option<usize>) {
        self.data.truncate(len);
        if let (ColumnData::Dict { dict, .. }, Some(keep)) = (&mut self.data, dict_len) {
            if dict.len() > keep {
                Arc::make_mut(dict).truncate(keep);
            }
        }
        match (&mut self.nulls, had_nulls) {
            (Some(n), true) => n.truncate(len),
            (nulls, _) => *nulls = None,
        }
    }

    /// Undo a swap-remove: the cut (cells and, when the column has one,
    /// its mask bits) goes back on the tail, and the moves are reversed.
    fn uncut(&mut self, moves: &[(u32, u32)], cut: CutColumn) {
        self.data.extend_cells(cut.cells);
        self.data.swap_back(moves);
        if let (Some(n), Some(c)) = (self.nulls.as_mut(), cut.nulls) {
            n.extend(c);
            swap_back(n, moves);
        }
    }
}

impl Batch {
    /// Mark this dense batch's state before an append, for
    /// [`Batch::undo_append`]. O(width).
    pub fn append_mark(&self) -> AppendMark {
        let cols = self
            .columns
            .iter()
            .map(|col| ColumnMark {
                had_nulls: col.nulls.is_some(),
                dict_len: col.dict().map(|(_, d)| d.len()),
            })
            .collect();
        AppendMark {
            rows: self.rows,
            cols,
        }
    }

    /// Undo the append that followed `mark`: columns, null masks and
    /// dictionaries go back to their state at the mark.
    pub fn undo_append(&mut self, mark: AppendMark) {
        for (col, m) in self.columns.iter_mut().zip(mark.cols) {
            Arc::make_mut(col).undo_append(mark.rows, m.had_nulls, m.dict_len);
        }
        self.rows = mark.rows;
    }

    /// Undo a [`Batch::swap_remove_rows`]: re-append the cut tail and
    /// reverse the moves, restoring every row at its old position.
    pub fn undo_swap_remove(&mut self, moves: &[(u32, u32)], cut: CutRows) {
        for (col, c) in self.columns.iter_mut().zip(cut.cols) {
            Arc::make_mut(col).uncut(moves, c);
        }
        self.rows += cut.rows;
    }

    /// Put back a column handle that [`Batch::rebuild_sparse_dicts`]
    /// replaced (out-of-range positions are ignored).
    pub fn restore_column(&mut self, pos: usize, col: Arc<Column>) {
        if let Some(slot) = self.columns.get_mut(pos) {
            *slot = col;
        }
    }
}
