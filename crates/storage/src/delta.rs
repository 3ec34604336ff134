//! Delta relations: the δ⁺/δ⁻ inputs to view maintenance.
//!
//! §3 of the paper: "for each relation r, there are two relations δ⁺r and
//! δ⁻r denoting, respectively, the (multiset of) tuples inserted into and
//! deleted from the relation r". A [`DeltaBatch`] is that pair for one
//! relation; a [`DeltaSet`] collects the batches of one refresh cycle.

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

    /// The tuples of one side.
    pub fn side(&self, kind: DeltaKind) -> &[Tuple] {
        match kind {
            DeltaKind::Insert => &self.inserts,
            DeltaKind::Delete => &self.deletes,
        }
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

    /// The delta tuples of one (relation, side) pair; empty if none.
    pub fn side(&self, table: TableId, kind: DeltaKind) -> &[Tuple] {
        self.batches
            .get(&table)
            .map(|b| b.side(kind))
            .unwrap_or(&[])
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

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::types::Value;

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

    #[test]
    fn side_returns_empty_for_missing_table() {
        let ds = DeltaSet::new();
        assert!(ds.side(TableId(7), DeltaKind::Insert).is_empty());
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
        let b = DeltaBatch::new(vec![t(1)], vec![t(2), t(3)]);
        assert_eq!(b.side(DeltaKind::Insert).len(), 1);
        assert_eq!(b.side(DeltaKind::Delete).len(), 2);
    }
}
