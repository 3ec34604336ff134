//! Catalog: table definitions, keys, and base statistics.
//!
//! The catalog is the optimizer's source of truth for schemas and statistics
//! (§7.1: the cost model works from estimated statistics). It owns the global
//! [`AttrAllocator`] so every column in the database has a unique [`AttrId`].

use crate::schema::{AttrAllocator, AttrId, Attribute, Schema};
use crate::stats::{ColMap, ColStats, RelStats};
use crate::types::DataType;
use std::collections::HashMap;
use std::fmt;

/// Identifies a base table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A declared foreign key: `child_attrs` (in this table) reference
/// `parent_attrs` (the parent's primary key). Used by the optimizer's
/// foreign-key pruning of empty differential joins (§5.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub child_attrs: Vec<AttrId>,
    pub parent_table: TableId,
    pub parent_attrs: Vec<AttrId>,
}

/// Definition of a base table.
#[derive(Debug, Clone)]
pub struct TableDef {
    pub id: TableId,
    pub name: String,
    pub schema: Schema,
    /// Primary-key attributes (may be empty for pure multisets).
    pub primary_key: Vec<AttrId>,
    pub foreign_keys: Vec<ForeignKey>,
    /// Base statistics as loaded; the live row count may drift as updates
    /// are applied and is tracked by the storage layer.
    pub stats: RelStats,
}

impl TableDef {
    /// Attribute id of a column by (unqualified) name.
    pub fn attr(&self, column: &str) -> AttrId {
        let qualified = format!("{}.{}", self.name, column);
        self.schema
            .attr_by_name(&qualified)
            .unwrap_or_else(|| panic!("no column {qualified}"))
            .id
    }
}

/// Column description used when registering a table.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    pub name: &'static str,
    pub data_type: DataType,
    /// Estimated number of distinct values; defaults to the row count when
    /// `None` (key-like columns).
    pub distinct: Option<f64>,
    /// Numeric value range for range-selectivity estimation.
    pub range: Option<(f64, f64)>,
}

impl ColumnSpec {
    pub fn key(name: &'static str, data_type: DataType) -> Self {
        ColumnSpec {
            name,
            data_type,
            distinct: None,
            range: None,
        }
    }

    pub fn with_distinct(name: &'static str, data_type: DataType, distinct: f64) -> Self {
        ColumnSpec {
            name,
            data_type,
            distinct: Some(distinct),
            range: None,
        }
    }

    pub fn with_range(
        name: &'static str,
        data_type: DataType,
        distinct: f64,
        range: (f64, f64),
    ) -> Self {
        ColumnSpec {
            name,
            data_type,
            distinct: Some(distinct),
            range: Some(range),
        }
    }
}

/// The database catalog.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: Vec<TableDef>,
    by_name: HashMap<String, TableId>,
    attr_alloc: AttrAllocator,
    /// Reverse map: attribute id → owning base table (base attributes only).
    attr_owner: HashMap<AttrId, TableId>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table with `row_count` estimated rows; returns its id.
    pub fn add_table(
        &mut self,
        name: &str,
        columns: Vec<ColumnSpec>,
        row_count: f64,
        primary_key: &[&str],
    ) -> TableId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate table name {name}"
        );
        let id = TableId(self.tables.len() as u32);
        let mut attrs = Vec::with_capacity(columns.len());
        let mut col_stats = ColMap::with_capacity_and_hasher(columns.len(), Default::default());
        for spec in &columns {
            let attr_id = self.attr_alloc.fresh();
            attrs.push(Attribute {
                id: attr_id,
                name: format!("{}.{}", name, spec.name),
                data_type: spec.data_type,
            });
            let distinct = spec.distinct.unwrap_or(row_count).max(1.0);
            col_stats.insert(
                attr_id,
                ColStats {
                    distinct,
                    range: spec.range,
                },
            );
            self.attr_owner.insert(attr_id, id);
        }
        let schema = Schema::new(attrs);
        let pk = primary_key
            .iter()
            .map(|c| {
                let qualified = format!("{name}.{c}");
                schema
                    .attr_by_name(&qualified)
                    .unwrap_or_else(|| panic!("pk column {qualified} missing"))
                    .id
            })
            .collect();
        let def = TableDef {
            id,
            name: name.to_string(),
            schema,
            primary_key: pk,
            foreign_keys: Vec::new(),
            stats: RelStats {
                rows: row_count,
                cols: col_stats,
            },
        };
        self.by_name.insert(name.to_string(), id);
        self.tables.push(def);
        id
    }

    /// Declare a foreign key `child.child_cols → parent (pk)`.
    pub fn add_foreign_key(&mut self, child: TableId, child_cols: &[&str], parent: TableId) {
        let child_attrs: Vec<AttrId> = {
            let cd = self.table(child);
            child_cols.iter().map(|c| cd.attr(c)).collect()
        };
        let parent_attrs = self.table(parent).primary_key.clone();
        assert_eq!(
            child_attrs.len(),
            parent_attrs.len(),
            "foreign key arity mismatch"
        );
        self.tables[child.0 as usize].foreign_keys.push(ForeignKey {
            child_attrs,
            parent_table: parent,
            parent_attrs,
        });
    }

    pub fn table(&self, id: TableId) -> &TableDef {
        &self.tables[id.0 as usize]
    }

    pub fn table_by_name(&self, name: &str) -> Option<&TableDef> {
        self.by_name.get(name).map(|id| self.table(*id))
    }

    pub fn tables(&self) -> &[TableDef] {
        &self.tables
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The base table owning a (base) attribute.
    pub fn owner_of(&self, attr: AttrId) -> Option<TableId> {
        self.attr_owner.get(&attr).copied()
    }

    /// Allocate a fresh derived attribute (aggregate outputs etc.).
    pub fn fresh_attr(&mut self) -> AttrId {
        self.attr_alloc.fresh()
    }

    /// Move the attribute allocator past `id`, so no later
    /// [`Catalog::fresh_attr`] hands it out (a no-op for an id it already
    /// handed out).
    pub fn reserve_attr(&mut self, id: AttrId) {
        self.attr_alloc.reserve(id);
    }

    /// True if `parent_attr = child_attr` is a declared FK edge with
    /// `parent_attr` on the referenced (PK) side. Used for the §5.3
    /// foreign-key emptiness pruning.
    pub fn is_fk_edge(&self, child_attr: AttrId, parent_attr: AttrId) -> bool {
        let Some(child_table) = self.owner_of(child_attr) else {
            return false;
        };
        self.table(child_table).foreign_keys.iter().any(|fk| {
            fk.child_attrs
                .iter()
                .zip(&fk.parent_attrs)
                .any(|(c, p)| *c == child_attr && *p == parent_attr)
        })
    }

    /// Number of attribute ids the allocator has handed out so far (the
    /// durability layer persists this alongside the table definitions).
    pub fn allocated_attrs(&self) -> u32 {
        self.attr_alloc.allocated()
    }

    /// Rebuild a catalog from persisted table definitions and the saved
    /// allocator position. The name and attribute-ownership indexes are
    /// derived from the definitions; `next_attr` must cover every base
    /// attribute id so post-recovery `fresh_attr` calls never collide.
    pub fn from_parts(tables: Vec<TableDef>, next_attr: u32) -> Result<Catalog, String> {
        let mut by_name = HashMap::with_capacity(tables.len());
        let mut attr_owner = HashMap::new();
        for (i, t) in tables.iter().enumerate() {
            if t.id.0 as usize != i {
                return Err(format!("table {} out of position", t.name));
            }
            if by_name.insert(t.name.clone(), t.id).is_some() {
                return Err(format!("duplicate table name {}", t.name));
            }
            for a in t.schema.attrs() {
                if a.id.0 >= next_attr {
                    return Err(format!(
                        "attribute {} of {} is beyond the allocator position {next_attr}",
                        a.id, t.name
                    ));
                }
                if attr_owner.insert(a.id, t.id).is_some() {
                    return Err(format!("attribute {} owned by two tables", a.id));
                }
            }
        }
        Ok(Catalog {
            tables,
            by_name,
            attr_alloc: AttrAllocator::starting_at(next_attr),
            attr_owner,
        })
    }

    /// Update the catalog's row-count estimate for a table (after refresh).
    pub fn set_row_count(&mut self, id: TableId, rows: f64) {
        let t = &mut self.tables[id.0 as usize];
        // Key-like columns scale with the table; simple proportional model.
        let ratio = if t.stats.rows > 0.0 {
            rows / t.stats.rows
        } else {
            1.0
        };
        for cs in t.stats.cols.values_mut() {
            if (cs.distinct - t.stats.rows).abs() < 1e-9 {
                cs.distinct = (cs.distinct * ratio).max(1.0);
            }
        }
        t.stats.rows = rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_catalog() -> (Catalog, TableId, TableId) {
        let mut c = Catalog::new();
        let parent = c.add_table(
            "dept",
            vec![
                ColumnSpec::key("dno", DataType::Int),
                ColumnSpec::with_distinct("city", DataType::Str, 10.0),
            ],
            100.0,
            &["dno"],
        );
        let child = c.add_table(
            "emp",
            vec![
                ColumnSpec::key("eno", DataType::Int),
                ColumnSpec::with_distinct("dno", DataType::Int, 100.0),
                ColumnSpec::with_range("sal", DataType::Float, 500.0, (0.0, 10_000.0)),
            ],
            1000.0,
            &["eno"],
        );
        c.add_foreign_key(child, &["dno"], parent);
        (c, parent, child)
    }

    #[test]
    fn attr_ids_are_globally_unique() {
        let (c, parent, child) = small_catalog();
        let mut all: Vec<AttrId> = c.table(parent).schema.ids();
        all.extend(c.table(child).schema.ids());
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn attr_lookup_by_column_name() {
        let (c, _, child) = small_catalog();
        let emp = c.table(child);
        let sal = emp.attr("sal");
        assert_eq!(emp.schema.attr(sal).unwrap().name, "emp.sal");
    }

    #[test]
    fn owner_of_maps_attr_to_table() {
        let (c, parent, child) = small_catalog();
        let dno = c.table(parent).attr("dno");
        assert_eq!(c.owner_of(dno), Some(parent));
        let eno = c.table(child).attr("eno");
        assert_eq!(c.owner_of(eno), Some(child));
    }

    #[test]
    fn fk_edge_detection_is_directional() {
        let (c, parent, child) = small_catalog();
        let emp_dno = c.table(child).attr("dno");
        let dept_dno = c.table(parent).attr("dno");
        assert!(c.is_fk_edge(emp_dno, dept_dno));
        assert!(!c.is_fk_edge(dept_dno, emp_dno));
    }

    #[test]
    fn key_columns_default_distinct_to_rowcount() {
        let (c, _, child) = small_catalog();
        let emp = c.table(child);
        let eno = emp.attr("eno");
        assert_eq!(emp.stats.cols[&eno].distinct, 1000.0);
    }

    #[test]
    fn set_row_count_scales_key_distincts() {
        let (mut c, _, child) = small_catalog();
        c.set_row_count(child, 2000.0);
        let emp = c.table(child);
        let eno = emp.attr("eno");
        assert_eq!(emp.stats.rows, 2000.0);
        assert_eq!(emp.stats.cols[&eno].distinct, 2000.0);
        // Non-key distinct unchanged.
        let dno = emp.attr("dno");
        assert_eq!(emp.stats.cols[&dno].distinct, 100.0);
    }

    #[test]
    fn fresh_attr_does_not_collide_with_base_attrs() {
        let (mut c, _, child) = small_catalog();
        let fresh = c.fresh_attr();
        assert!(c.table(child).schema.position_of(fresh).is_none());
        assert!(c.owner_of(fresh).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate table name")]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        c.add_table("t", vec![ColumnSpec::key("a", DataType::Int)], 1.0, &["a"]);
        c.add_table("t", vec![ColumnSpec::key("a", DataType::Int)], 1.0, &["a"]);
    }
}
