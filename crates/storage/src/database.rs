//! The database: base tables and delta application.
//!
//! [`Database`] holds the base relations (by [`TableId`]) a refresh cycle
//! operates on, plus helpers to apply update batches. The optimizer reads
//! only statistics; the executor reads and mutates the stored rows. User
//! views, permanently materialized extras and temporaries are not stored
//! here: the executor's `RuntimeState` owns every materialization.

use crate::delta::{DeltaBatch, DeltaSet};
use crate::error::StorageError;
use crate::index::IndexKind;
use crate::table::StoredTable;
use mvmqo_relalg::batch::Batch;
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::schema::AttrId;
use mvmqo_relalg::stats::RelStats;
use std::collections::HashMap;

/// In-memory database instance.
///
/// Transactional epochs write the live tables in place, per table through
/// [`Database::base_mut`], under a [`crate::journal::DbJournal`] and roll
/// it back on abort; nothing is copied.
///
/// Cloning is cheap too: every [`StoredTable`] clones as a handle copy
/// (columns, dictionaries, row caches, and indices are `Arc`-shared), so
/// a full-database clone is O(tables × width) and copies no data until
/// one copy writes a table the other still holds.
#[derive(Debug, Clone, Default)]
pub struct Database {
    base: HashMap<TableId, StoredTable>,
}

impl Database {
    pub fn new() -> Self {
        Database::default()
    }

    /// Register (or replace) a base table's contents.
    pub fn put_base(&mut self, id: TableId, table: StoredTable) {
        self.base.insert(id, table);
    }

    /// Contents of a base table. Returns a typed error (instead of
    /// panicking) when the table was never loaded, so long-lived engines can
    /// reject bad requests without aborting.
    pub fn base(&self, id: TableId) -> Result<&StoredTable, StorageError> {
        self.base.get(&id).ok_or(StorageError::TableNotLoaded(id))
    }

    pub fn base_mut(&mut self, id: TableId) -> Result<&mut StoredTable, StorageError> {
        self.base
            .get_mut(&id)
            .ok_or(StorageError::TableNotLoaded(id))
    }

    pub fn has_base(&self, id: TableId) -> bool {
        self.base.contains_key(&id)
    }

    /// Check that every tuple in `delta` matches the stored table's arity
    /// and every value its column's type (NULL fits any type). A bad batch
    /// must be rejected before any of it is applied.
    pub fn validate_delta(&self, id: TableId, delta: &DeltaBatch) -> Result<(), StorageError> {
        let attrs = self.base(id)?.schema().attrs();
        for row in delta.inserts.iter().chain(&delta.deletes) {
            if row.len() != attrs.len() {
                return Err(StorageError::ArityMismatch {
                    table: id,
                    expected: attrs.len(),
                    got: row.len(),
                });
            }
            for (v, a) in row.iter().zip(attrs) {
                if let Some(got) = v.data_type().filter(|&t| t != a.data_type) {
                    return Err(StorageError::TypeMismatch {
                        table: id,
                        column: a.name.clone(),
                        expected: a.data_type,
                        got,
                    });
                }
            }
        }
        Ok(())
    }

    /// The columnar door for a batch that arrives already encoded (a
    /// recovered snapshot's queue, a replayed WAL record): it must have
    /// one column per stored attribute, each of that attribute's type (a
    /// decoded column holds its declared type, so checking the schema
    /// checks the cells). The batch comes back relabelled with the stored
    /// table's schema, an O(width) handle copy that touches no cell.
    pub fn conform_batch(&self, id: TableId, batch: Batch) -> Result<Batch, StorageError> {
        let schema = self.base(id)?.schema();
        let got = batch.schema().attrs();
        if got.len() != schema.len() {
            return Err(StorageError::ArityMismatch {
                table: id,
                expected: schema.len(),
                got: got.len(),
            });
        }
        for (g, a) in got.iter().zip(schema.attrs()) {
            if g.data_type != a.data_type {
                return Err(StorageError::TypeMismatch {
                    table: id,
                    column: a.name.clone(),
                    expected: a.data_type,
                    got: g.data_type,
                });
            }
        }
        let positions: Vec<usize> = (0..schema.len()).collect();
        Ok(batch.project(schema.clone(), &positions))
    }

    /// Apply one relation's delta batch to the base table.
    pub fn apply_base_delta(
        &mut self,
        id: TableId,
        delta: &DeltaBatch,
    ) -> Result<(), StorageError> {
        self.base_mut(id)?.apply_delta(delta);
        Ok(())
    }

    /// Apply every batch in a [`DeltaSet`] (used by tests that want the
    /// post-update ground truth in one step; the maintenance executor
    /// applies them one at a time instead, per §3.2.2).
    pub fn apply_all(&mut self, deltas: &DeltaSet) -> Result<(), StorageError> {
        let tables: Vec<TableId> = deltas.tables().collect();
        for t in tables {
            if let Some(batch) = deltas.get(t) {
                self.apply_base_delta(t, batch)?;
            }
        }
        Ok(())
    }

    /// Create an index on a base table.
    pub fn create_base_index(
        &mut self,
        id: TableId,
        attr: AttrId,
        kind: IndexKind,
    ) -> Result<(), StorageError> {
        self.base_mut(id)?.create_index(attr, kind);
        Ok(())
    }

    /// Live statistics for a base table: catalog column statistics rescaled
    /// to the actual stored row count.
    pub fn live_stats(&self, catalog: &Catalog, id: TableId) -> RelStats {
        let def = catalog.table(id);
        let actual = self.base.get(&id).map_or(0, StoredTable::len) as f64;
        let mut stats = def.stats.clone();
        if def.stats.rows > 0.0 && actual != def.stats.rows {
            stats = stats.scaled(actual / def.stats.rows);
            stats.rows = actual;
        } else {
            stats.rows = actual;
        }
        stats
    }

    /// Total stored base tuples — used by space accounting and tests.
    pub fn total_tuples(&self) -> usize {
        self.base.values().map(StoredTable::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::catalog::ColumnSpec;
    use mvmqo_relalg::types::{DataType, Value};

    fn setup() -> (Catalog, TableId, Database) {
        let mut c = Catalog::new();
        let t = c.add_table("t", vec![ColumnSpec::key("k", DataType::Int)], 4.0, &["k"]);
        let mut db = Database::new();
        let schema = c.table(t).schema.clone();
        db.put_base(
            t,
            StoredTable::with_rows(schema, (0..4).map(|i| vec![Value::Int(i)]).collect()),
        );
        (c, t, db)
    }

    #[test]
    fn apply_base_delta_mutates_rows() {
        let (_, t, mut db) = setup();
        db.apply_base_delta(
            t,
            &DeltaBatch::new(vec![vec![Value::Int(10)]], vec![vec![Value::Int(0)]]),
        )
        .unwrap();
        let base = db.base(t).unwrap();
        assert_eq!(base.len(), 4);
        assert!(base.rows().iter().any(|r| r[0] == Value::Int(10)));
        assert!(!base.rows().iter().any(|r| r[0] == Value::Int(0)));
    }

    #[test]
    fn live_stats_track_actual_rowcount() {
        let (c, t, mut db) = setup();
        db.apply_base_delta(t, &DeltaBatch::new(vec![vec![Value::Int(99)]], vec![]))
            .unwrap();
        let s = db.live_stats(&c, t);
        assert_eq!(s.rows, 5.0);
    }

    #[test]
    fn apply_all_applies_every_batch() {
        let (_, t, mut db) = setup();
        let mut ds = DeltaSet::new();
        ds.insert(
            t,
            DeltaBatch::new(vec![vec![Value::Int(7)], vec![Value::Int(8)]], vec![]),
        );
        db.apply_all(&ds).unwrap();
        assert_eq!(db.base(t).unwrap().len(), 6);
    }

    #[test]
    fn missing_base_is_a_typed_error() {
        let db = Database::new();
        assert_eq!(
            db.base(TableId(3)).unwrap_err(),
            crate::error::StorageError::TableNotLoaded(TableId(3))
        );
        let mut db = Database::new();
        assert!(db
            .apply_base_delta(TableId(3), &DeltaBatch::default())
            .is_err());
    }

    /// An encoded batch of the table's shape is relabelled with the
    /// table's schema and keeps its columns; one of another width or with
    /// a column of another type is a typed error.
    #[test]
    fn conform_batch_checks_the_schema_and_relabels() {
        use mvmqo_relalg::schema::{AttrId, Attribute, Schema};
        let (c, t, db) = setup();
        let foreign = |types: &[DataType]| {
            Schema::new(
                types
                    .iter()
                    .enumerate()
                    .map(|(i, &data_type)| Attribute {
                        id: AttrId(100 + i as u32),
                        name: format!("x{i}"),
                        data_type,
                    })
                    .collect(),
            )
        };
        let batch = Batch::from_rows(foreign(&[DataType::Int]), &[vec![Value::Int(3)]]);
        let conformed = db.conform_batch(t, batch.clone()).unwrap();
        assert_eq!(conformed.schema(), &c.table(t).schema);
        assert!(std::ptr::eq(conformed.column(0), batch.column(0)));
        let wide = Batch::empty(foreign(&[DataType::Int, DataType::Int]));
        assert!(matches!(
            db.conform_batch(t, wide),
            Err(crate::error::StorageError::ArityMismatch {
                expected: 1,
                got: 2,
                ..
            })
        ));
        let mistyped = Batch::empty(foreign(&[DataType::Str]));
        let err = db.conform_batch(t, mistyped).unwrap_err();
        assert!(err.to_string().contains("schema expects"), "{err}");
    }

    #[test]
    fn validate_delta_rejects_arity_mismatch() {
        let (_, t, db) = setup();
        let bad = DeltaBatch::new(vec![vec![Value::Int(1), Value::Int(2)]], vec![]);
        assert!(matches!(
            db.validate_delta(t, &bad),
            Err(crate::error::StorageError::ArityMismatch {
                expected: 1,
                got: 2,
                ..
            })
        ));
        let good = DeltaBatch::new(vec![vec![Value::Int(1)]], vec![]);
        assert!(db.validate_delta(t, &good).is_ok());
    }

    #[test]
    fn validate_delta_rejects_a_value_of_another_type() {
        let (_, t, db) = setup();
        // An Int column takes neither a Float nor a string, on either side;
        // NULL fits.
        for bad in [Value::Float(1.0), Value::str("1")] {
            for batch in [
                DeltaBatch::new(vec![vec![Value::Int(1)], vec![bad.clone()]], vec![]),
                DeltaBatch::new(vec![], vec![vec![bad.clone()]]),
            ] {
                assert!(matches!(
                    db.validate_delta(t, &batch),
                    Err(crate::error::StorageError::TypeMismatch {
                        expected: DataType::Int,
                        ..
                    })
                ));
            }
        }
        let nulls = DeltaBatch::new(vec![vec![Value::Null]], vec![vec![Value::Null]]);
        assert!(db.validate_delta(t, &nulls).is_ok());
    }
}
