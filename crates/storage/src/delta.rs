//! Delta relations: the δ⁺/δ⁻ inputs to view maintenance.
//!
//! §3 of the paper: "for each relation r, there are two relations δ⁺r and
//! δ⁻r denoting, respectively, the (multiset of) tuples inserted into and
//! deleted from the relation r".
//!
//! Two shapes carry that pair:
//!
//! - [`DeltaQueue`] is the engine's pending queue: per relation one
//!   [`QueuedDelta`], two columnar [`Batch`]es in the stored table's
//!   layout. The warehouse encodes each ingested side once, at the door;
//!   from then on the delete check, the WAL record, the snapshot, every
//!   δ scan of the maintenance plans and the base-delta merge share those
//!   batches' columns, and nothing converts them again.
//! - [`DeltaBatch`] and [`DeltaSet`] are the row-shaped pair and cycle:
//!   what a caller hands `ingest`, what the TPC-D update generator
//!   produces, and what the one-shot `execute_epoch_opts` converts once
//!   at entry.

use mvmqo_relalg::batch::Batch;
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::tuple::Tuple;
use std::collections::BTreeMap;
use std::fmt;

/// Which side of the delta pair a plan reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeltaKind {
    /// δ⁺ — inserted tuples.
    Insert,
    /// δ⁻ — deleted tuples.
    Delete,
}

impl fmt::Display for DeltaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaKind::Insert => f.write_str("δ+"),
            DeltaKind::Delete => f.write_str("δ-"),
        }
    }
}

/// The pending inserts and deletes for one relation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaBatch {
    pub inserts: Vec<Tuple>,
    pub deletes: Vec<Tuple>,
}

impl DeltaBatch {
    pub fn new(inserts: Vec<Tuple>, deletes: Vec<Tuple>) -> Self {
        DeltaBatch { inserts, deletes }
    }

    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// All deltas of one refresh cycle, keyed by relation.
///
/// Uses a `BTreeMap` so iteration order (and therefore update numbering,
/// §5.2) is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaSet {
    batches: BTreeMap<TableId, DeltaBatch>,
}

impl DeltaSet {
    pub fn new() -> Self {
        DeltaSet::default()
    }

    pub fn insert(&mut self, table: TableId, batch: DeltaBatch) {
        if !batch.is_empty() {
            self.batches.insert(table, batch);
        }
    }

    /// Append `batch` onto whatever is already queued for `table`, in
    /// place (an empty batch queues nothing).
    pub fn extend(&mut self, table: TableId, batch: DeltaBatch) {
        if batch.is_empty() {
            return;
        }
        let queued = self.batches.entry(table).or_default();
        queued.inserts.extend(batch.inserts);
        queued.deletes.extend(batch.deletes);
    }

    pub fn get(&self, table: TableId) -> Option<&DeltaBatch> {
        self.batches.get(&table)
    }

    /// Relations with pending updates, in deterministic order.
    pub fn tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.batches.keys().copied()
    }

    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Total tuples across all batches (both sides).
    pub fn total_tuples(&self) -> usize {
        self.batches
            .values()
            .map(|b| b.inserts.len() + b.deletes.len())
            .sum()
    }
}

/// One relation's queued δ⁺/δ⁻ pair, columnar, in the stored table's
/// layout (both batches carry the table's schema).
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedDelta {
    pub inserts: Batch,
    pub deletes: Batch,
}

impl QueuedDelta {
    /// The batch of one side.
    pub fn side(&self, kind: DeltaKind) -> &Batch {
        match kind {
            DeltaKind::Insert => &self.inserts,
            DeltaKind::Delete => &self.deletes,
        }
    }

    /// Rows on both sides.
    pub fn num_rows(&self) -> usize {
        self.inserts.num_rows() + self.deletes.num_rows()
    }
}

/// The engine's pending queue: every relation's queued [`QueuedDelta`].
///
/// A `BTreeMap` keeps iteration (and so §5.2's update numbering) in
/// table order, as [`DeltaSet`] does.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaQueue {
    batches: BTreeMap<TableId, QueuedDelta>,
}

impl DeltaQueue {
    pub fn new() -> Self {
        DeltaQueue::default()
    }

    /// Queue a pair for `table` (an empty pair queues nothing). The first
    /// pair is kept as-is, its columns still shared with whoever else holds
    /// them; a later one is appended column by column ([`Batch::append`]).
    /// Both must carry the table's schema.
    pub fn extend(&mut self, table: TableId, inserts: Batch, deletes: Batch) {
        if inserts.num_rows() + deletes.num_rows() == 0 {
            return;
        }
        match self.batches.get_mut(&table) {
            None => {
                self.batches.insert(table, QueuedDelta { inserts, deletes });
            }
            Some(queued) => {
                for (mine, theirs) in [
                    (&mut queued.inserts, inserts),
                    (&mut queued.deletes, deletes),
                ] {
                    if theirs.num_rows() > 0 {
                        mine.append(&theirs);
                    }
                }
            }
        }
    }

    pub fn get(&self, table: TableId) -> Option<&QueuedDelta> {
        self.batches.get(&table)
    }

    /// The queued batch of one (relation, side) pair, if the relation has
    /// one.
    pub fn side(&self, table: TableId, kind: DeltaKind) -> Option<&Batch> {
        self.batches.get(&table).map(|q| q.side(kind))
    }

    /// Every queued pair, in table order.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &QueuedDelta)> {
        self.batches.iter().map(|(t, q)| (*t, q))
    }

    /// Relations with pending updates, in deterministic order.
    pub fn tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.batches.keys().copied()
    }

    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total rows across all batches (both sides).
    pub fn total_tuples(&self) -> usize {
        self.batches.values().map(QueuedDelta::num_rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::schema::{AttrId, Attribute, Schema};
    use mvmqo_relalg::types::{DataType, Value};

    fn t(v: i64) -> Tuple {
        vec![Value::Int(v)]
    }

    #[test]
    fn empty_batches_are_dropped() {
        let mut ds = DeltaSet::new();
        ds.insert(TableId(0), DeltaBatch::default());
        assert!(ds.is_empty());
        ds.insert(TableId(1), DeltaBatch::new(vec![t(1)], vec![]));
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn extend_appends_to_the_queued_batch() {
        let mut ds = DeltaSet::new();
        ds.extend(TableId(0), DeltaBatch::default());
        assert!(ds.is_empty());
        ds.extend(TableId(0), DeltaBatch::new(vec![t(1)], vec![]));
        ds.extend(TableId(0), DeltaBatch::new(vec![t(2)], vec![t(1)]));
        assert_eq!(
            ds.get(TableId(0)),
            Some(&DeltaBatch::new(vec![t(1), t(2)], vec![t(1)]))
        );
    }

    fn schema() -> Schema {
        Schema::new(vec![Attribute {
            id: AttrId(0),
            name: "t.k".into(),
            data_type: DataType::Int,
        }])
    }

    fn b(vs: &[i64]) -> Batch {
        Batch::from_tuples(schema(), vs.iter().map(|&v| t(v)).collect())
    }

    #[test]
    fn side_returns_empty_for_missing_table() {
        let q = DeltaQueue::new();
        assert!(q.side(TableId(7), DeltaKind::Insert).is_none());
        assert!(q.get(TableId(7)).is_none());
    }

    #[test]
    fn queue_extend_appends_column_by_column() {
        let mut q = DeltaQueue::new();
        q.extend(TableId(0), b(&[]), b(&[]));
        assert!(q.is_empty());
        let first = b(&[1]);
        q.extend(TableId(0), first.clone(), b(&[]));
        // The first pair is queued as-is: its columns are the caller's.
        let queued = q.side(TableId(0), DeltaKind::Insert).unwrap();
        assert!(std::ptr::eq(queued.column(0), first.column(0)));
        drop(first);
        q.extend(TableId(0), b(&[2]), b(&[1]));
        q.extend(TableId(3), b(&[]), b(&[5, 6]));
        assert_eq!(
            q.get(TableId(0)),
            Some(&QueuedDelta {
                inserts: b(&[1, 2]),
                deletes: b(&[1]),
            })
        );
        assert_eq!(q.tables().collect::<Vec<_>>(), vec![TableId(0), TableId(3)]);
        assert_eq!(q.total_tuples(), 5);
    }

    #[test]
    fn tables_iterate_in_id_order() {
        let mut ds = DeltaSet::new();
        ds.insert(TableId(3), DeltaBatch::new(vec![t(1)], vec![]));
        ds.insert(TableId(1), DeltaBatch::new(vec![t(2)], vec![]));
        let order: Vec<TableId> = ds.tables().collect();
        assert_eq!(order, vec![TableId(1), TableId(3)]);
    }

    #[test]
    fn total_tuples_counts_both_sides() {
        let mut ds = DeltaSet::new();
        ds.insert(TableId(0), DeltaBatch::new(vec![t(1), t(2)], vec![t(3)]));
        assert_eq!(ds.total_tuples(), 3);
    }

    #[test]
    fn batch_side_selection() {
        let q = QueuedDelta {
            inserts: b(&[1]),
            deletes: b(&[2, 3]),
        };
        assert_eq!(q.side(DeltaKind::Insert).num_rows(), 1);
        assert_eq!(q.side(DeltaKind::Delete).num_rows(), 2);
        assert_eq!(q.num_rows(), 3);
    }
}
