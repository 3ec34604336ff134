//! Reference evaluator: direct, naive evaluation of a [`LogicalExpr`]
//! against the current database state, one row at a time, with
//! row-at-a-time hash joins on the equi-join conjuncts (nested loops when
//! there are none).
//!
//! This is the test suites' ground truth, independent of the batch
//! executor it checks: suites compute views incrementally through
//! optimizer-chosen plans (or through single vectorized kernels) and
//! compare, as multisets, against this evaluator run on the post-update
//! database — the correctness check the paper's authors could not perform
//! (§7.1). It shares no code with the executor's operators and is slow
//! (rows are `Vec<Value>`s, cross products stay quadratic), so it only
//! runs on small fixtures; the engine's own recompute (`Warehouse::verify`)
//! is the batch executor.

use mvmqo_relalg::agg::Accumulator;
use mvmqo_relalg::catalog::Catalog;
use mvmqo_relalg::logical::LogicalExpr;
use mvmqo_relalg::schema::{AttrId, Schema};
use mvmqo_relalg::tuple::{bag_minus, bag_union, concat_tuples, Tuple};
use mvmqo_relalg::types::Value;
use mvmqo_storage::database::Database;
use std::collections::HashMap;

/// Evaluate a logical expression directly over `db`. Panics when a
/// referenced table is not loaded or an attribute is missing from its
/// input schema: ground truth must fail loudly, never drift silently.
pub fn eval_logical(expr: &LogicalExpr, catalog: &Catalog, db: &Database) -> Vec<Tuple> {
    match expr {
        LogicalExpr::Scan { table } => db.base(*table).expect("base table loaded").rows().to_vec(),
        LogicalExpr::Select { input, predicate } => {
            let schema = input.schema(catalog);
            eval_logical(input, catalog, db)
                .into_iter()
                .filter(|r| predicate.matches(r, &schema))
                .collect()
        }
        LogicalExpr::Project { input, attrs } => {
            let schema = input.schema(catalog);
            let positions: Vec<usize> = attrs
                .iter()
                .map(|a| schema.position_of(*a).expect("project attr"))
                .collect();
            eval_logical(input, catalog, db)
                .into_iter()
                .map(|r| positions.iter().map(|&i| r[i].clone()).collect())
                .collect()
        }
        LogicalExpr::Join {
            left,
            right,
            predicate,
        } => {
            let ls = left.schema(catalog);
            let rs = right.schema(catalog);
            let combined = ls.concat(&rs);
            let lrows = eval_logical(left, catalog, db);
            let rrows = eval_logical(right, catalog, db);
            // A row-at-a-time hash join on the equi-join conjuncts that
            // span the two sides: right rows are bucketed by their key
            // values, each left row meets only its bucket (every right row
            // when there is no such conjunct), and each candidate pair must
            // still pass the whole predicate — a bucket can only hold more
            // pairs than `=` accepts (NULL keys), never fewer.
            let keys: Vec<(usize, usize)> = predicate
                .equijoin_pairs()
                .filter_map(|(a, b)| {
                    let across = |l, r| Some((ls.position_of(l)?, rs.position_of(r)?));
                    across(a, b).or_else(|| across(b, a))
                })
                .collect();
            let key_of = |row: &Tuple, side: fn(&(usize, usize)) -> usize| -> Vec<Value> {
                keys.iter().map(|k| row[side(k)].clone()).collect()
            };
            let mut buckets: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
            for r in &rrows {
                buckets.entry(key_of(r, |k| k.1)).or_default().push(r);
            }
            let mut out = Vec::new();
            for l in &lrows {
                for r in buckets.get(&key_of(l, |k| k.0)).into_iter().flatten() {
                    let joined = concat_tuples(l, r);
                    if predicate.is_true() || predicate.matches(&joined, &combined) {
                        out.push(joined);
                    }
                }
            }
            out
        }
        LogicalExpr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let schema = input.schema(catalog);
            let rows = eval_logical(input, catalog, db);
            aggregate_reference(&rows, &schema, group_by, aggs)
        }
        LogicalExpr::UnionAll { left, right } => bag_union(
            &eval_logical(left, catalog, db),
            &eval_logical(right, catalog, db),
        ),
        LogicalExpr::Minus { left, right } => bag_minus(
            &eval_logical(left, catalog, db),
            &eval_logical(right, catalog, db),
        ),
        LogicalExpr::Distinct { input } => {
            let mut seen: HashMap<Tuple, ()> = HashMap::new();
            let mut out = Vec::new();
            for r in eval_logical(input, catalog, db) {
                if seen.insert(r.clone(), ()).is_none() {
                    out.push(r);
                }
            }
            out
        }
    }
}

fn aggregate_reference(
    rows: &[Tuple],
    schema: &Schema,
    group_by: &[AttrId],
    aggs: &[mvmqo_relalg::agg::AggSpec],
) -> Vec<Tuple> {
    let key_pos: Vec<usize> = group_by
        .iter()
        .map(|g| schema.position_of(*g).expect("group attr"))
        .collect();
    let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
    for row in rows {
        let key: Vec<Value> = key_pos.iter().map(|&i| row[i].clone()).collect();
        let entry = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|s| Accumulator::new(s.func)).collect());
        for (acc, spec) in entry.iter_mut().zip(aggs) {
            acc.add(&spec.input.eval(row, schema));
        }
    }
    let mut out: Vec<Tuple> = groups
        .into_iter()
        .map(|(key, accs)| {
            let mut row = key;
            row.extend(accs.iter().map(Accumulator::finish));
            row
        })
        .collect();
    out.sort();
    out
}

/// Reorder rows from one schema layout to another (same attribute set, or
/// a subset of it). Panics when `to` names an attribute `from` lacks.
pub fn align_rows(rows: Vec<Tuple>, from: &Schema, to: &Schema) -> Vec<Tuple> {
    if from.ids() == to.ids() {
        return rows;
    }
    let positions: Vec<usize> = to
        .ids()
        .iter()
        .map(|a| {
            from.position_of(*a)
                .unwrap_or_else(|| panic!("attribute {a} missing during alignment"))
        })
        .collect();
    rows.into_iter()
        .map(|r| positions.iter().map(|&i| r[i].clone()).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::agg::{AggFunc, AggSpec};
    use mvmqo_relalg::catalog::ColumnSpec;
    use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
    use mvmqo_relalg::schema::Attribute;
    use mvmqo_relalg::types::DataType;
    use mvmqo_storage::table::StoredTable;

    fn setup() -> (Catalog, Database, mvmqo_relalg::catalog::TableId) {
        let mut c = Catalog::new();
        let t = c.add_table(
            "t",
            vec![
                ColumnSpec::key("k", DataType::Int),
                ColumnSpec::with_distinct("g", DataType::Int, 2.0),
            ],
            4.0,
            &["k"],
        );
        let mut db = Database::new();
        db.put_base(
            t,
            StoredTable::with_rows(
                c.table(t).schema.clone(),
                vec![
                    vec![Value::Int(1), Value::Int(0)],
                    vec![Value::Int(2), Value::Int(1)],
                    vec![Value::Int(3), Value::Int(0)],
                    vec![Value::Int(4), Value::Int(1)],
                ],
            ),
        );
        (c, db, t)
    }

    #[test]
    fn select_filters() {
        let (c, db, t) = setup();
        let g = c.table(t).attr("g");
        let e = LogicalExpr::select(
            LogicalExpr::scan(t),
            Predicate::from_expr(ScalarExpr::col_cmp_lit(g, CmpOp::Eq, 0i64)),
        );
        assert_eq!(eval_logical(&e, &c, &db).len(), 2);
    }

    #[test]
    fn aggregate_counts_groups() {
        let (mut c, db, t) = setup();
        let g = c.table(t).attr("g");
        let k = c.table(t).attr("k");
        let out = c.fresh_attr();
        let e = LogicalExpr::aggregate(
            LogicalExpr::scan(t),
            vec![g],
            vec![AggSpec::new(AggFunc::Sum, ScalarExpr::Col(k), out)],
        );
        let rows = eval_logical(&e, &c, &db);
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&vec![Value::Int(0), Value::Int(4)]));
        assert!(rows.contains(&vec![Value::Int(1), Value::Int(6)]));
    }

    #[test]
    fn join_is_cartesian_with_filter() {
        let (mut c, mut db, t) = setup();
        let u = c.add_table(
            "u",
            vec![ColumnSpec::key("g2", DataType::Int)],
            2.0,
            &["g2"],
        );
        db.put_base(
            u,
            StoredTable::with_rows(
                c.table(u).schema.clone(),
                vec![vec![Value::Int(0)], vec![Value::Int(1)]],
            ),
        );
        let g = c.table(t).attr("g");
        let g2 = c.table(u).attr("g2");
        let cross = LogicalExpr::Join {
            left: LogicalExpr::scan(t),
            right: LogicalExpr::scan(u),
            predicate: Predicate::true_(),
        };
        assert_eq!(eval_logical(&cross, &c, &db).len(), 8);
        let filtered = LogicalExpr::Join {
            left: LogicalExpr::scan(t),
            right: LogicalExpr::scan(u),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(g, g2)),
        };
        assert_eq!(eval_logical(&filtered, &c, &db).len(), 4);
    }

    /// NULL keys share a hash bucket but never satisfy `=`; an `Int` key
    /// meets an equal `Float` key.
    #[test]
    fn equijoin_keeps_sql_equality() {
        let (mut c, mut db, t) = setup();
        let u = c.add_table(
            "u",
            vec![ColumnSpec::key("g2", DataType::Float)],
            2.0,
            &["g2"],
        );
        db.put_base(
            u,
            StoredTable::with_rows(
                c.table(u).schema.clone(),
                vec![vec![Value::Float(1.0)], vec![Value::Null]],
            ),
        );
        let mut rows = db.base(t).unwrap().rows().to_vec();
        rows.push(vec![Value::Int(5), Value::Null]);
        db.put_base(t, StoredTable::with_rows(c.table(t).schema.clone(), rows));
        let g = c.table(t).attr("g");
        let g2 = c.table(u).attr("g2");
        let join = LogicalExpr::Join {
            left: LogicalExpr::scan(t),
            right: LogicalExpr::scan(u),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(g2, g)),
        };
        let out = eval_logical(&join, &c, &db);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|r| r[1] == Value::Int(1)));
    }

    #[test]
    fn distinct_dedups() {
        let (c, mut db, t) = setup();
        let rows = db.base(t).unwrap().rows().to_vec();
        let doubled: Vec<Tuple> = rows.iter().chain(rows.iter()).cloned().collect();
        db.put_base(
            t,
            StoredTable::with_rows(c.table(t).schema.clone(), doubled),
        );
        let e = LogicalExpr::distinct(LogicalExpr::scan(t));
        assert_eq!(eval_logical(&e, &c, &db).len(), 4);
    }

    fn schema(ids: &[u32]) -> Schema {
        Schema::new(
            ids.iter()
                .map(|&i| Attribute {
                    id: AttrId(i),
                    name: format!("a{i}"),
                    data_type: DataType::Int,
                })
                .collect(),
        )
    }

    #[test]
    fn align_rows_reorders_columns() {
        let from = schema(&[1, 2]);
        let to = schema(&[2, 1]);
        let rows = vec![vec![Value::Int(10), Value::Int(20)]];
        let out = align_rows(rows, &from, &to);
        assert_eq!(out[0], vec![Value::Int(20), Value::Int(10)]);
    }

    #[test]
    fn align_rows_identical_schema_is_identity() {
        let from = schema(&[3, 4, 5]);
        let to = schema(&[3, 4, 5]);
        let rows = vec![vec![Value::Int(1), Value::Int(2), Value::Int(3)]];
        assert_eq!(align_rows(rows.clone(), &from, &to), rows);
    }

    #[test]
    fn align_rows_fully_permuted_schema() {
        let from = schema(&[1, 2, 3, 4]);
        let to = schema(&[4, 2, 1, 3]);
        let rows = vec![
            vec![
                Value::Int(10),
                Value::Int(20),
                Value::Int(30),
                Value::Int(40),
            ],
            vec![
                Value::Int(11),
                Value::Int(21),
                Value::Int(31),
                Value::Int(41),
            ],
        ];
        let out = align_rows(rows, &from, &to);
        assert_eq!(
            out[0],
            vec![
                Value::Int(40),
                Value::Int(20),
                Value::Int(10),
                Value::Int(30)
            ]
        );
        assert_eq!(
            out[1],
            vec![
                Value::Int(41),
                Value::Int(21),
                Value::Int(11),
                Value::Int(31)
            ]
        );
    }

    #[test]
    fn align_rows_projects_to_narrower_schema() {
        // A target schema that keeps a subset of the source attributes
        // (UnionAll arms project shared attributes this way).
        let from = schema(&[1, 2, 3]);
        let to = schema(&[3, 1]);
        let rows = vec![vec![Value::Int(10), Value::Int(20), Value::Int(30)]];
        let out = align_rows(rows, &from, &to);
        assert_eq!(out[0], vec![Value::Int(30), Value::Int(10)]);
    }

    #[test]
    fn align_rows_empty_input_stays_empty() {
        let from = schema(&[1, 2]);
        let to = schema(&[2, 1]);
        assert!(align_rows(Vec::new(), &from, &to).is_empty());
    }

    #[test]
    #[should_panic(expected = "missing during alignment")]
    fn align_rows_missing_attribute_panics() {
        // The target wants an attribute the source never produced — a
        // planner bug, which must fail loudly rather than mis-align.
        let from = schema(&[1, 2]);
        let to = schema(&[1, 7]);
        align_rows(vec![vec![Value::Int(1), Value::Int(2)]], &from, &to);
    }
}
