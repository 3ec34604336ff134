//! Logical relational-algebra expressions.
//!
//! A [`LogicalExpr`] is the tree form in which views and queries enter the
//! optimizer (Figure 1(a) of the paper); the AND-OR DAG is built from it.
//! All operators use multiset semantics.

use crate::agg::{AggFunc, AggSpec};
use crate::catalog::{Catalog, TableId};
use crate::expr::Predicate;
use crate::schema::{AttrId, Attribute, Schema};
use crate::stats;
use crate::stats::RelStats;
use std::fmt;
use std::sync::Arc;

/// A logical expression tree. `Arc` children keep clones cheap when the DAG
/// builder walks shared structures.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalExpr {
    /// Scan of a base table.
    Scan { table: TableId },
    /// Multiset selection σ_pred.
    Select {
        input: Arc<LogicalExpr>,
        predicate: Predicate,
    },
    /// Multiset projection (no duplicate elimination) onto attribute ids.
    Project {
        input: Arc<LogicalExpr>,
        attrs: Vec<AttrId>,
    },
    /// Inner join with predicate (conjunction of equi-join keys and residual
    /// filters).
    Join {
        left: Arc<LogicalExpr>,
        right: Arc<LogicalExpr>,
        predicate: Predicate,
    },
    /// Group-by aggregation.
    Aggregate {
        input: Arc<LogicalExpr>,
        group_by: Vec<AttrId>,
        aggs: Vec<AggSpec>,
    },
    /// Additive multiset union.
    UnionAll {
        left: Arc<LogicalExpr>,
        right: Arc<LogicalExpr>,
    },
    /// Multiset difference (monus).
    Minus {
        left: Arc<LogicalExpr>,
        right: Arc<LogicalExpr>,
    },
    /// Duplicate elimination.
    Distinct { input: Arc<LogicalExpr> },
}

impl LogicalExpr {
    pub fn scan(table: TableId) -> Arc<Self> {
        Arc::new(LogicalExpr::Scan { table })
    }

    pub fn select(input: Arc<Self>, predicate: Predicate) -> Arc<Self> {
        Arc::new(LogicalExpr::Select { input, predicate })
    }

    pub fn project(input: Arc<Self>, attrs: Vec<AttrId>) -> Arc<Self> {
        Arc::new(LogicalExpr::Project { input, attrs })
    }

    pub fn join(left: Arc<Self>, right: Arc<Self>, predicate: Predicate) -> Arc<Self> {
        Arc::new(LogicalExpr::Join {
            left,
            right,
            predicate,
        })
    }

    pub fn aggregate(input: Arc<Self>, group_by: Vec<AttrId>, aggs: Vec<AggSpec>) -> Arc<Self> {
        Arc::new(LogicalExpr::Aggregate {
            input,
            group_by,
            aggs,
        })
    }

    pub fn union_all(left: Arc<Self>, right: Arc<Self>) -> Arc<Self> {
        Arc::new(LogicalExpr::UnionAll { left, right })
    }

    pub fn minus(left: Arc<Self>, right: Arc<Self>) -> Arc<Self> {
        Arc::new(LogicalExpr::Minus { left, right })
    }

    pub fn distinct(input: Arc<Self>) -> Arc<Self> {
        Arc::new(LogicalExpr::Distinct { input })
    }

    /// Output schema, derived bottom-up from the catalog.
    pub fn schema(&self, catalog: &Catalog) -> Schema {
        match self {
            LogicalExpr::Scan { table } => catalog.table(*table).schema.clone(),
            LogicalExpr::Select { input, .. } | LogicalExpr::Distinct { input } => {
                input.schema(catalog)
            }
            LogicalExpr::Project { input, attrs } => input.schema(catalog).select_ids(attrs),
            LogicalExpr::Join { left, right, .. } => {
                left.schema(catalog).concat(&right.schema(catalog))
            }
            LogicalExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let in_schema = input.schema(catalog);
                let mut attrs: Vec<Attribute> = group_by
                    .iter()
                    .map(|g| {
                        in_schema
                            .attr(*g)
                            .unwrap_or_else(|| panic!("group attr {g} missing"))
                            .clone()
                    })
                    .collect();
                for a in aggs {
                    let in_ty = a
                        .input
                        .result_type(&in_schema)
                        .unwrap_or(crate::types::DataType::Int);
                    attrs.push(Attribute {
                        id: a.out,
                        name: format!("{}_{}", a.func, a.out),
                        data_type: a.func.result_type(in_ty),
                    });
                }
                Schema::new(attrs)
            }
            LogicalExpr::UnionAll { left, .. } | LogicalExpr::Minus { left, .. } => {
                left.schema(catalog)
            }
        }
    }

    /// Estimated statistics, derived bottom-up. `base` supplies statistics
    /// for base tables (so callers can present either catalog-time or
    /// post-update states).
    #[allow(clippy::only_used_in_recursion)] // keeps signature symmetric with schema()
    pub fn derive_stats(&self, catalog: &Catalog, base: &dyn Fn(TableId) -> RelStats) -> RelStats {
        match self {
            LogicalExpr::Scan { table } => base(*table),
            LogicalExpr::Select { input, predicate } => {
                stats::derive_select(&input.derive_stats(catalog, base), predicate)
            }
            LogicalExpr::Project { input, attrs } => {
                stats::derive_project(&input.derive_stats(catalog, base), attrs)
            }
            LogicalExpr::Join {
                left,
                right,
                predicate,
            } => stats::derive_join(
                &left.derive_stats(catalog, base),
                &right.derive_stats(catalog, base),
                predicate,
            ),
            LogicalExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let outs: Vec<AttrId> = aggs.iter().map(|a| a.out).collect();
                stats::derive_aggregate(&input.derive_stats(catalog, base), group_by, &outs)
            }
            LogicalExpr::UnionAll { left, right } => stats::derive_union(
                &left.derive_stats(catalog, base),
                &right.derive_stats(catalog, base),
            ),
            LogicalExpr::Minus { left, right } => stats::derive_minus(
                &left.derive_stats(catalog, base),
                &right.derive_stats(catalog, base),
            ),
            LogicalExpr::Distinct { input } => {
                stats::derive_distinct(&input.derive_stats(catalog, base))
            }
        }
    }

    /// All base tables referenced (sorted, deduplicated).
    pub fn base_tables(&self) -> Vec<TableId> {
        let mut out = Vec::new();
        self.collect_tables(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The output attributes the expression's aggregates define.
    pub fn aggregate_outputs(&self) -> Vec<AttrId> {
        let mut out = Vec::new();
        self.collect_aggregate_outputs(&mut out);
        out
    }

    fn collect_aggregate_outputs(&self, out: &mut Vec<AttrId>) {
        match self {
            LogicalExpr::Scan { .. } => {}
            LogicalExpr::Aggregate { input, aggs, .. } => {
                out.extend(aggs.iter().map(|a| a.out));
                input.collect_aggregate_outputs(out);
            }
            LogicalExpr::Select { input, .. }
            | LogicalExpr::Project { input, .. }
            | LogicalExpr::Distinct { input } => input.collect_aggregate_outputs(out),
            LogicalExpr::Join { left, right, .. }
            | LogicalExpr::UnionAll { left, right }
            | LogicalExpr::Minus { left, right } => {
                left.collect_aggregate_outputs(out);
                right.collect_aggregate_outputs(out);
            }
        }
    }

    fn collect_tables(&self, out: &mut Vec<TableId>) {
        match self {
            LogicalExpr::Scan { table } => out.push(*table),
            LogicalExpr::Select { input, .. }
            | LogicalExpr::Project { input, .. }
            | LogicalExpr::Distinct { input }
            | LogicalExpr::Aggregate { input, .. } => input.collect_tables(out),
            LogicalExpr::Join { left, right, .. }
            | LogicalExpr::UnionAll { left, right }
            | LogicalExpr::Minus { left, right } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
        }
    }

    /// Validate attribute references bottom-up; returns a description of the
    /// first violation found.
    pub fn validate(&self, catalog: &Catalog) -> Result<(), String> {
        match self {
            LogicalExpr::Scan { .. } => Ok(()),
            LogicalExpr::Select { input, predicate } => {
                input.validate(catalog)?;
                let schema = input.schema(catalog);
                let refs = predicate.referenced_attrs();
                if !schema.contains_all(&refs) {
                    return Err(format!(
                        "selection predicate {predicate} references attributes outside {schema}"
                    ));
                }
                Ok(())
            }
            LogicalExpr::Project { input, attrs } => {
                input.validate(catalog)?;
                let schema = input.schema(catalog);
                if !schema.contains_all(attrs) {
                    return Err("projection references attributes outside input".into());
                }
                Ok(())
            }
            LogicalExpr::Join {
                left,
                right,
                predicate,
            } => {
                left.validate(catalog)?;
                right.validate(catalog)?;
                let schema = left.schema(catalog).concat(&right.schema(catalog));
                if !schema.contains_all(&predicate.referenced_attrs()) {
                    return Err(format!(
                        "join predicate {predicate} references attributes outside inputs"
                    ));
                }
                Ok(())
            }
            LogicalExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                input.validate(catalog)?;
                let schema = input.schema(catalog);
                if !schema.contains_all(group_by) {
                    return Err("group-by attributes missing from input".into());
                }
                for a in aggs {
                    match a.input.result_type(&schema) {
                        None => return Err(format!("aggregate {a} has an ill-typed input")),
                        Some(t)
                            if matches!(a.func, AggFunc::Sum | AggFunc::Avg) && !t.is_numeric() =>
                        {
                            return Err(format!("aggregate {a} over a {t} input"))
                        }
                        Some(_) => {}
                    }
                }
                Ok(())
            }
            LogicalExpr::UnionAll { left, right } | LogicalExpr::Minus { left, right } => {
                left.validate(catalog)?;
                right.validate(catalog)?;
                let ls = left.schema(catalog);
                let rs = right.schema(catalog);
                if ls.ids() != rs.ids() {
                    return Err("union/minus inputs have different schemas".into());
                }
                Ok(())
            }
            LogicalExpr::Distinct { input } => input.validate(catalog),
        }
    }

    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match self {
            LogicalExpr::Scan { table } => writeln!(f, "{pad}Scan {table}"),
            LogicalExpr::Select { input, predicate } => {
                writeln!(f, "{pad}Select [{predicate}]")?;
                input.fmt_indented(f, indent + 1)
            }
            LogicalExpr::Project { input, attrs } => {
                write!(f, "{pad}Project [")?;
                for (i, a) in attrs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f, "]")?;
                input.fmt_indented(f, indent + 1)
            }
            LogicalExpr::Join {
                left,
                right,
                predicate,
            } => {
                writeln!(f, "{pad}Join [{predicate}]")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            LogicalExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                write!(f, "{pad}Aggregate [")?;
                for (i, g) in group_by.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, " | ")?;
                for (i, a) in aggs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                writeln!(f, "]")?;
                input.fmt_indented(f, indent + 1)
            }
            LogicalExpr::UnionAll { left, right } => {
                writeln!(f, "{pad}UnionAll")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            LogicalExpr::Minus { left, right } => {
                writeln!(f, "{pad}Minus")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            LogicalExpr::Distinct { input } => {
                writeln!(f, "{pad}Distinct")?;
                input.fmt_indented(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for LogicalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// A named view definition: the unit the maintenance optimizer works on.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    pub name: String,
    pub expr: Arc<LogicalExpr>,
}

impl ViewDef {
    pub fn new(name: impl Into<String>, expr: Arc<LogicalExpr>) -> Self {
        ViewDef {
            name: name.into(),
            expr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggFunc, AggSpec};
    use crate::catalog::{Catalog, ColumnSpec};
    use crate::expr::{CmpOp, ScalarExpr};
    use crate::types::DataType;

    fn setup() -> (Catalog, TableId, TableId) {
        let mut c = Catalog::new();
        let dept = c.add_table(
            "dept",
            vec![
                ColumnSpec::key("dno", DataType::Int),
                ColumnSpec::with_distinct("city", DataType::Str, 10.0),
            ],
            100.0,
            &["dno"],
        );
        let emp = c.add_table(
            "emp",
            vec![
                ColumnSpec::key("eno", DataType::Int),
                ColumnSpec::with_distinct("dno", DataType::Int, 100.0),
                ColumnSpec::with_range("sal", DataType::Float, 500.0, (0.0, 10_000.0)),
            ],
            1000.0,
            &["eno"],
        );
        c.add_foreign_key(emp, &["dno"], dept);
        (c, dept, emp)
    }

    fn emp_dept_join(c: &Catalog, dept: TableId, emp: TableId) -> Arc<LogicalExpr> {
        let e_dno = c.table(emp).attr("dno");
        let d_dno = c.table(dept).attr("dno");
        LogicalExpr::join(
            LogicalExpr::scan(emp),
            LogicalExpr::scan(dept),
            Predicate::from_expr(ScalarExpr::col_eq_col(e_dno, d_dno)),
        )
    }

    #[test]
    fn schema_of_join_concatenates() {
        let (c, dept, emp) = setup();
        let j = emp_dept_join(&c, dept, emp);
        let s = j.schema(&c);
        assert_eq!(s.len(), 5);
        assert!(s.attr_by_name("emp.sal").is_some());
        assert!(s.attr_by_name("dept.city").is_some());
    }

    #[test]
    fn stats_of_fk_join_match_child_cardinality() {
        let (c, dept, emp) = setup();
        let j = emp_dept_join(&c, dept, emp);
        let stats = j.derive_stats(&c, &|t| c.table(t).stats.clone());
        assert!((stats.rows - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn aggregate_schema_includes_group_and_outputs() {
        let (mut c, dept, emp) = setup();
        let sal = c.table(emp).attr("sal");
        let dno = c.table(emp).attr("dno");
        let out = c.fresh_attr();
        let j = emp_dept_join(&c, dept, emp);
        let agg = LogicalExpr::aggregate(
            j,
            vec![dno],
            vec![AggSpec::new(AggFunc::Sum, ScalarExpr::Col(sal), out)],
        );
        let s = agg.schema(&c);
        assert_eq!(s.len(), 2);
        assert_eq!(s.attrs()[1].id, out);
        assert_eq!(s.attrs()[1].data_type, DataType::Float);
    }

    #[test]
    fn base_tables_deduplicated_and_sorted() {
        let (c, dept, emp) = setup();
        let j = emp_dept_join(&c, dept, emp);
        let self_union = LogicalExpr::union_all(j.clone(), j);
        assert_eq!(self_union.base_tables(), vec![dept, emp]);
    }

    #[test]
    fn validate_catches_bad_predicate() {
        let (mut c, dept, emp) = setup();
        let stray = c.fresh_attr();
        let bad = LogicalExpr::select(
            LogicalExpr::scan(dept),
            Predicate::from_expr(ScalarExpr::col_cmp_lit(stray, CmpOp::Eq, 1i64)),
        );
        assert!(bad.validate(&c).is_err());
        let ok = emp_dept_join(&c, dept, emp);
        assert!(ok.validate(&c).is_ok());
    }

    #[test]
    fn validate_catches_union_schema_mismatch() {
        let (c, dept, emp) = setup();
        let bad = LogicalExpr::union_all(LogicalExpr::scan(dept), LogicalExpr::scan(emp));
        assert!(bad.validate(&c).is_err());
    }

    #[test]
    fn select_stats_shrink_rows() {
        let (c, _, emp) = setup();
        let sal = c.table(emp).attr("sal");
        let sel = LogicalExpr::select(
            LogicalExpr::scan(emp),
            Predicate::from_expr(ScalarExpr::col_cmp_lit(sal, CmpOp::Lt, 1000.0)),
        );
        let stats = sel.derive_stats(&c, &|t| c.table(t).stats.clone());
        assert!(stats.rows < 200.0 && stats.rows > 50.0);
    }

    #[test]
    fn display_renders_tree() {
        let (c, dept, emp) = setup();
        let j = emp_dept_join(&c, dept, emp);
        let rendered = j.to_string();
        assert!(rendered.contains("Join"));
        assert!(rendered.contains("Scan"));
    }
}
