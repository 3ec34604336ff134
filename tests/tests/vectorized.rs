//! Vectorized-executor property tests.
//!
//! Every batch operator is checked, on random multisets with NULLs and
//! duplicates, against the row-at-a-time reference evaluator
//! (`mvmqo_exec::reference`) — the oracle the batch engine must agree with
//! bag-for-bag.

use mvmqo_core::cost::CostModel;
use mvmqo_core::dag::Dag;
use mvmqo_core::opt::StoredRef;
use mvmqo_core::plan::{PhysPlan, PlanNode};
use mvmqo_exec::{Journal, Runtime, RuntimeState};
use mvmqo_integration_tests::eval_logical;
use mvmqo_relalg::agg::{AggFunc, AggSpec};
use mvmqo_relalg::catalog::{Catalog, ColumnSpec, TableId};
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::LogicalExpr;
use mvmqo_relalg::schema::{Attribute, Schema};
use mvmqo_relalg::tuple::{bag_eq, Tuple};
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::DeltaQueue;
use mvmqo_storage::index::IndexKind;
use mvmqo_storage::table::StoredTable;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// Random cell: small ints (lots of duplicates) with ~1-in-6 NULLs.
fn cell() -> impl Strategy<Value = Value> {
    (0i64..12).prop_map(|v| {
        if v >= 10 {
            Value::Null
        } else {
            Value::Int(v % 5)
        }
    })
}

/// Random three-column multiset, up to 24 rows.
fn rows3() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(proptest::collection::vec(cell(), 3), 0..24)
}

/// Two three-column tables `t(t0,t1,t2)` / `u(u0,u1,u2)` loaded with the
/// given multisets.
fn two_tables(t_rows: &[Tuple], u_rows: &[Tuple]) -> (Catalog, Database, TableId, TableId) {
    let mut c = Catalog::new();
    let t = c.add_table(
        "t",
        vec![
            ColumnSpec::with_distinct("t0", DataType::Int, 5.0),
            ColumnSpec::with_distinct("t1", DataType::Int, 5.0),
            ColumnSpec::with_distinct("t2", DataType::Int, 5.0),
        ],
        t_rows.len().max(1) as f64,
        &["t0"],
    );
    let u = c.add_table(
        "u",
        vec![
            ColumnSpec::with_distinct("u0", DataType::Int, 5.0),
            ColumnSpec::with_distinct("u1", DataType::Int, 5.0),
            ColumnSpec::with_distinct("u2", DataType::Int, 5.0),
        ],
        u_rows.len().max(1) as f64,
        &["u0"],
    );
    let mut db = Database::new();
    db.put_base(
        t,
        StoredTable::with_rows(c.table(t).schema.clone(), t_rows.to_vec()),
    );
    db.put_base(
        u,
        StoredTable::with_rows(c.table(u).schema.clone(), u_rows.to_vec()),
    );
    (c, db, t, u)
}

/// Evaluate a physical plan through the vectorized runtime.
fn eval_phys(catalog: &Catalog, db: &mut Database, plan: &PhysPlan) -> Vec<Tuple> {
    let deltas = DeltaQueue::new();
    let dag = Dag::new();
    let (mut state, mut journal) = (RuntimeState::new(), Journal::new());
    let mut rt = Runtime::with_state(
        &dag,
        catalog,
        CostModel::default(),
        db,
        &deltas,
        BTreeMap::new(),
        HashMap::new(),
        &mut state,
        &mut journal,
    );
    rt.eval_batch(plan).expect("plan evaluation").into_rows()
}

fn scan(catalog: &Catalog, t: TableId) -> PhysPlan {
    PhysPlan {
        schema: catalog.table(t).schema.clone(),
        node: PlanNode::ScanBase(t),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fused scan→filter→project ≡ reference Select+Project.
    #[test]
    fn filter_project_matches_reference(t_rows in rows3(), lit in 0i64..5) {
        let (c, mut db, t, _) = two_tables(&t_rows, &[]);
        let t0 = c.table(t).attr("t0");
        let t1 = c.table(t).attr("t1");
        let t2 = c.table(t).attr("t2");
        let pred = Predicate::from_conjuncts(vec![
            ScalarExpr::col_cmp_lit(t0, CmpOp::Le, lit),
            ScalarExpr::col_eq_col(t1, t1),
        ]);
        let phys = PhysPlan {
            schema: c.table(t).schema.select_ids(&[t2, t0]),
            node: PlanNode::Project {
                input: Box::new(PhysPlan {
                    schema: c.table(t).schema.clone(),
                    node: PlanNode::Filter {
                        input: Box::new(scan(&c, t)),
                        pred: pred.clone(),
                    },
                }),
                attrs: vec![t2, t0],
            },
        };
        let got = eval_phys(&c, &mut db, &phys);
        let oracle = LogicalExpr::project(
            LogicalExpr::select(LogicalExpr::scan(t), pred),
            vec![t2, t0],
        );
        let expected = eval_logical(&oracle, &c, &db);
        prop_assert!(bag_eq(&got, &expected), "got {got:?} expected {expected:?}");
    }

    /// Borrowed-key hash join (with residual) ≡ reference join.
    #[test]
    fn hash_join_matches_reference(t_rows in rows3(), u_rows in rows3(), build_left in proptest::bool::ANY) {
        let (c, mut db, t, u) = two_tables(&t_rows, &u_rows);
        let t0 = c.table(t).attr("t0");
        let t1 = c.table(t).attr("t1");
        let u0 = c.table(u).attr("u0");
        let u1 = c.table(u).attr("u1");
        let combined = c.table(t).schema.concat(&c.table(u).schema);
        let residual = Predicate::from_expr(ScalarExpr::cmp(
            CmpOp::Le,
            ScalarExpr::col(t1),
            ScalarExpr::col(u1),
        ));
        let node = if build_left {
            PlanNode::HashJoin {
                build: Box::new(scan(&c, t)),
                probe: Box::new(scan(&c, u)),
                keys: vec![(t0, u0)],
                residual: residual.clone(),
            }
        } else {
            PlanNode::HashJoin {
                build: Box::new(scan(&c, u)),
                probe: Box::new(scan(&c, t)),
                keys: vec![(u0, t0)],
                residual: residual.clone(),
            }
        };
        let phys = PhysPlan { schema: combined, node };
        let got = eval_phys(&c, &mut db, &phys);
        let oracle = LogicalExpr::Join {
            left: LogicalExpr::scan(t),
            right: LogicalExpr::scan(u),
            predicate: Predicate::from_conjuncts(vec![
                ScalarExpr::col_eq_col(t0, u0),
                ScalarExpr::cmp(CmpOp::Le, ScalarExpr::col(t1), ScalarExpr::col(u1)),
            ]),
        };
        let expected = eval_logical(&oracle, &c, &db);
        prop_assert!(bag_eq(&got, &expected), "got {} rows, expected {}", got.len(), expected.len());
    }

    /// Position-sorted merge join ≡ reference join.
    #[test]
    fn merge_join_matches_reference(t_rows in rows3(), u_rows in rows3()) {
        let (c, mut db, t, u) = two_tables(&t_rows, &u_rows);
        let t0 = c.table(t).attr("t0");
        let u0 = c.table(u).attr("u0");
        let phys = PhysPlan {
            schema: c.table(t).schema.concat(&c.table(u).schema),
            node: PlanNode::MergeJoin {
                left: Box::new(scan(&c, t)),
                right: Box::new(scan(&c, u)),
                keys: vec![(t0, u0)],
                residual: Predicate::true_(),
            },
        };
        let got = eval_phys(&c, &mut db, &phys);
        let oracle = LogicalExpr::Join {
            left: LogicalExpr::scan(t),
            right: LogicalExpr::scan(u),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(t0, u0)),
        };
        let expected = eval_logical(&oracle, &c, &db);
        prop_assert!(bag_eq(&got, &expected));
    }

    /// Nested-loop join with an arbitrary predicate ≡ reference join.
    #[test]
    fn nl_join_matches_reference(t_rows in rows3(), u_rows in rows3()) {
        let (c, mut db, t, u) = two_tables(&t_rows, &u_rows);
        let t1 = c.table(t).attr("t1");
        let u1 = c.table(u).attr("u1");
        let pred = Predicate::from_expr(ScalarExpr::cmp(
            CmpOp::Lt,
            ScalarExpr::col(t1),
            ScalarExpr::col(u1),
        ));
        let phys = PhysPlan {
            schema: c.table(t).schema.concat(&c.table(u).schema),
            node: PlanNode::NlJoin {
                left: Box::new(scan(&c, t)),
                right: Box::new(scan(&c, u)),
                pred: pred.clone(),
            },
        };
        let got = eval_phys(&c, &mut db, &phys);
        let oracle = LogicalExpr::Join {
            left: LogicalExpr::scan(t),
            right: LogicalExpr::scan(u),
            predicate: pred,
        };
        let expected = eval_logical(&oracle, &c, &db);
        prop_assert!(bag_eq(&got, &expected));
    }

    /// Index nested-loop join probing the stored inner *in place*
    /// ≡ reference join (the index is created on demand by `prepare`).
    #[test]
    fn index_nl_join_matches_reference(t_rows in rows3(), u_rows in rows3()) {
        let (c, mut db, t, u) = two_tables(&t_rows, &u_rows);
        let t0 = c.table(t).attr("t0");
        let u0 = c.table(u).attr("u0");
        let phys = PhysPlan {
            schema: c.table(t).schema.concat(&c.table(u).schema),
            node: PlanNode::IndexNlJoin {
                outer: Box::new(scan(&c, t)),
                inner: StoredRef::Base(u),
                keys: (t0, u0),
                inner_filter: Predicate::true_(),
                residual: Predicate::true_(),
            },
        };
        let got = eval_phys(&c, &mut db, &phys);
        // `prepare` must have built the probe index on the stored inner.
        assert!(db.base(u).unwrap().index_on(u0).is_some());
        let oracle = LogicalExpr::Join {
            left: LogicalExpr::scan(t),
            right: LogicalExpr::scan(u),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(t0, u0)),
        };
        let expected = eval_logical(&oracle, &c, &db);
        prop_assert!(bag_eq(&got, &expected));
    }

    /// Index scan (equality probe + residual filter) ≡ reference select.
    #[test]
    fn index_scan_matches_reference(t_rows in rows3(), key in 0i64..5, lit in 0i64..5, with_index in proptest::bool::ANY) {
        let (c, mut db, t, _) = two_tables(&t_rows, &[]);
        let t0 = c.table(t).attr("t0");
        let t1 = c.table(t).attr("t1");
        if with_index {
            db.create_base_index(t, t0, IndexKind::Hash).unwrap();
        }
        let pred = Predicate::from_conjuncts(vec![
            ScalarExpr::col_cmp_lit(t0, CmpOp::Eq, key),
            ScalarExpr::col_cmp_lit(t1, CmpOp::Le, lit),
        ]);
        let phys = PhysPlan {
            schema: c.table(t).schema.clone(),
            node: PlanNode::IndexScan {
                target: StoredRef::Base(t),
                attr: t0,
                pred: pred.clone(),
            },
        };
        let got = eval_phys(&c, &mut db, &phys);
        let expected = eval_logical(&LogicalExpr::select(LogicalExpr::scan(t), pred), &c, &db);
        prop_assert!(bag_eq(&got, &expected));
    }

    /// Columnar grouped aggregation (borrowed-key group table)
    /// ≡ reference aggregation, including NULL group keys.
    #[test]
    fn aggregate_matches_reference(t_rows in rows3()) {
        let (mut c, mut db, t, _) = two_tables(&t_rows, &[]);
        let t0 = c.table(t).attr("t0");
        let t1 = c.table(t).attr("t1");
        let sum_out = c.fresh_attr();
        let cnt_out = c.fresh_attr();
        let min_out = c.fresh_attr();
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, ScalarExpr::Col(t1), sum_out),
            AggSpec::new(AggFunc::Count, ScalarExpr::Col(t1), cnt_out),
            AggSpec::new(AggFunc::Min, ScalarExpr::Col(t1), min_out),
        ];
        let schema = Schema::new(vec![
            c.table(t).schema.attr(t0).unwrap().clone(),
            Attribute { id: sum_out, name: "s".into(), data_type: DataType::Int },
            Attribute { id: cnt_out, name: "n".into(), data_type: DataType::Int },
            Attribute { id: min_out, name: "m".into(), data_type: DataType::Int },
        ]);
        let phys = PhysPlan {
            schema,
            node: PlanNode::HashAggregate {
                input: Box::new(scan(&c, t)),
                group_by: vec![t0],
                aggs: aggs.clone(),
            },
        };
        let got = eval_phys(&c, &mut db, &phys);
        let oracle = LogicalExpr::aggregate(LogicalExpr::scan(t), vec![t0], aggs);
        let expected = eval_logical(&oracle, &c, &db);
        prop_assert!(bag_eq(&got, &expected), "got {got:?} expected {expected:?}");
    }

    /// Distinct / UnionAll / Minus ≡ their reference counterparts.
    #[test]
    fn distinct_union_minus_match_reference(t_rows in rows3(), lit in 0i64..5) {
        let (c, mut db, t, _) = two_tables(&t_rows, &[]);
        let t0 = c.table(t).attr("t0");
        let schema = c.table(t).schema.clone();
        let pred = Predicate::from_expr(ScalarExpr::col_cmp_lit(t0, CmpOp::Le, lit));

        let distinct = PhysPlan {
            schema: schema.clone(),
            node: PlanNode::Distinct { input: Box::new(scan(&c, t)) },
        };
        let got = eval_phys(&c, &mut db, &distinct);
        let expected = eval_logical(&LogicalExpr::distinct(LogicalExpr::scan(t)), &c, &db);
        prop_assert!(bag_eq(&got, &expected));

        let union = PhysPlan {
            schema: schema.clone(),
            node: PlanNode::UnionAll(vec![
                scan(&c, t),
                PhysPlan {
                    schema: schema.clone(),
                    node: PlanNode::Filter { input: Box::new(scan(&c, t)), pred: pred.clone() },
                },
            ]),
        };
        let got = eval_phys(&c, &mut db, &union);
        let expected = eval_logical(
            &LogicalExpr::UnionAll {
                left: LogicalExpr::scan(t),
                right: LogicalExpr::select(LogicalExpr::scan(t), pred.clone()),
            },
            &c,
            &db,
        );
        prop_assert!(bag_eq(&got, &expected));

        let minus = PhysPlan {
            schema: schema.clone(),
            node: PlanNode::Minus {
                left: Box::new(scan(&c, t)),
                right: Box::new(PhysPlan {
                    schema: schema.clone(),
                    node: PlanNode::Filter { input: Box::new(scan(&c, t)), pred: pred.clone() },
                }),
            },
        };
        let got = eval_phys(&c, &mut db, &minus);
        let expected = eval_logical(
            &LogicalExpr::Minus {
                left: LogicalExpr::scan(t),
                right: LogicalExpr::select(LogicalExpr::scan(t), pred),
            },
            &c,
            &db,
        );
        prop_assert!(bag_eq(&got, &expected));
    }
}
