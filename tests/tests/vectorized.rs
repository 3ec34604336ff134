//! Vectorized-executor property tests.
//!
//! Every batch operator is checked, on random multisets with NULLs and
//! duplicates, against the row-at-a-time reference evaluator
//! (`mvmqo_exec::reference`) — the oracle the batch engine must agree with
//! bag-for-bag. A second block checks the morsel-parallel operators, and a
//! third that whole maintenance epochs at 2 and 4 workers produce exactly
//! the serial view contents, on a world whose plans fan out over several
//! merge-delta plans in one update step and scan tables past one morsel.

use mvmqo_core::api::pk_indices_for;
use mvmqo_core::cost::CostModel;
use mvmqo_core::dag::Dag;
use mvmqo_core::opt::{GreedyOptions, StoredRef};
use mvmqo_core::plan::{PhysPlan, PlanNode};
use mvmqo_core::session::Optimizer;
use mvmqo_exec::{
    eval_logical, execute_epoch_opts, index_plan_from_report, ExecOptions, Journal, Runtime,
    RuntimeState,
};
use mvmqo_integration_tests::{generate_deltas, parallel_coverage, small_world, update_model_for};
use mvmqo_relalg::agg::{AggFunc, AggSpec};
use mvmqo_relalg::catalog::{Catalog, ColumnSpec, TableId};
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
use mvmqo_relalg::schema::{Attribute, Schema};
use mvmqo_relalg::tuple::{bag_eq, Tuple};
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::DeltaSet;
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
    let deltas = DeltaSet::new();
    eval_phys_threads(catalog, db, &deltas, plan, 1)
}

/// Evaluate a physical plan with an explicit morsel-parallel worker budget
/// (`1` = the serial reference path the parallel paths must match exactly).
fn eval_phys_threads(
    catalog: &Catalog,
    db: &mut Database,
    deltas: &DeltaSet,
    plan: &PhysPlan,
    threads: usize,
) -> Vec<Tuple> {
    let dag = Dag::new();
    let (mut state, mut journal) = (RuntimeState::new(), Journal::new());
    let mut rt = Runtime::with_state(
        &dag,
        catalog,
        CostModel::default(),
        db,
        deltas,
        BTreeMap::new(),
        HashMap::new(),
        &mut state,
        &mut journal,
    );
    rt.set_threads(threads);
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

// ======================================================================
// Morsel-driven intra-operator parallelism
// ======================================================================

/// Deterministic multiset big enough to cross the morsel threshold (1024
/// rows per morsel), with NULLs, heavy duplicates, and a string column
/// that storage dictionary-encodes: `(k Int, s Str, w Int)`.
fn morsel_rows(mut seed: u64, n: usize) -> Vec<Tuple> {
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed >> 33
    };
    (0..n)
        .map(|_| {
            let (k, s, w) = (next(), next(), next());
            vec![
                if k % 8 == 0 {
                    Value::Null
                } else {
                    Value::Int((k % 64) as i64)
                },
                if s % 9 == 0 {
                    Value::Null
                } else {
                    Value::str(format!("s{}", s % 37))
                },
                if w % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int((w % 23) as i64)
                },
            ]
        })
        .collect()
}

/// One `(k Int, s Str, w Int)` table loaded with `rows`.
fn morsel_table(name: &str, rows: &[Tuple]) -> (Catalog, Database, TableId) {
    let mut c = Catalog::new();
    let t = c.add_table(
        name,
        vec![
            ColumnSpec::with_distinct("k", DataType::Int, 64.0),
            ColumnSpec::with_distinct("s", DataType::Str, 37.0),
            ColumnSpec::with_distinct("w", DataType::Int, 23.0),
        ],
        rows.len().max(1) as f64,
        &["k"],
    );
    let mut db = Database::new();
    db.put_base(
        t,
        StoredTable::with_rows(c.table(t).schema.clone(), rows.to_vec()),
    );
    (c, db, t)
}

proptest! {
    // Inputs must cross the 1024-row morsel threshold, so each case is
    // thousands of rows — keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Morsel-parallel filter (including the dictionary code-space
    /// equality fast path) returns *exactly* the serial result — same
    /// rows, same order — at 2 and 4 workers, and is deterministic across
    /// repeated runs.
    #[test]
    fn morsel_filter_identical_to_serial(seed in 1u64..1_000_000, n in 1100usize..2600, lit in 0i64..64) {
        let rows = morsel_rows(seed, n);
        let (c, mut db, t) = morsel_table("t", &rows);
        let k = c.table(t).attr("k");
        let s = c.table(t).attr("s");
        let phys = PhysPlan {
            schema: c.table(t).schema.clone(),
            node: PlanNode::Filter {
                input: Box::new(scan(&c, t)),
                pred: Predicate::from_conjuncts(vec![
                    ScalarExpr::col_cmp_lit(k, CmpOp::Le, lit),
                    ScalarExpr::col_cmp_lit(s, CmpOp::Eq, "s7"),
                ]),
            },
        };
        let none = DeltaSet::new();
        let serial = eval_phys_threads(&c, &mut db, &none, &phys, 1);
        for threads in [2usize, 4] {
            let parallel = eval_phys_threads(&c, &mut db, &none, &phys, threads);
            prop_assert_eq!(&serial, &parallel);
        }
        let again = eval_phys_threads(&c, &mut db, &none, &phys, 4);
        prop_assert_eq!(&serial, &again);
    }

    /// Hash-partitioned parallel join build + probe on a *string* key
    /// (dictionary-hashed) with a residual predicate produces exactly the
    /// serial pair order.
    #[test]
    fn morsel_hash_join_identical_to_serial(seed in 1u64..1_000_000, n in 1100usize..2200) {
        let build_rows = morsel_rows(seed, n);
        let probe_rows = morsel_rows(seed.wrapping_add(99), n + 311);
        let (mut c, mut db, t) = morsel_table("t", &build_rows);
        let u = c.add_table(
            "u",
            vec![
                ColumnSpec::with_distinct("uk", DataType::Int, 64.0),
                ColumnSpec::with_distinct("us", DataType::Str, 37.0),
                ColumnSpec::with_distinct("uw", DataType::Int, 23.0),
            ],
            probe_rows.len() as f64,
            &["uk"],
        );
        db.put_base(
            u,
            StoredTable::with_rows(c.table(u).schema.clone(), probe_rows.to_vec()),
        );
        let (ts, tw) = (c.table(t).attr("s"), c.table(t).attr("w"));
        let (us, uw) = (c.table(u).attr("us"), c.table(u).attr("uw"));
        let phys = PhysPlan {
            schema: c.table(t).schema.concat(&c.table(u).schema),
            node: PlanNode::HashJoin {
                build: Box::new(scan(&c, t)),
                probe: Box::new(scan(&c, u)),
                keys: vec![(ts, us)],
                residual: Predicate::from_expr(ScalarExpr::cmp(
                    CmpOp::Le,
                    ScalarExpr::col(tw),
                    ScalarExpr::col(uw),
                )),
            },
        };
        let none = DeltaSet::new();
        let serial = eval_phys_threads(&c, &mut db, &none, &phys, 1);
        for threads in [2usize, 4] {
            let parallel = eval_phys_threads(&c, &mut db, &none, &phys, threads);
            prop_assert_eq!(&serial, &parallel);
        }
    }

    /// Partition-parallel grouped aggregation — both the single-dict-key
    /// code-space grouping and the generic multi-key path — returns
    /// exactly the serial groups in the serial key order.
    #[test]
    fn morsel_aggregate_identical_to_serial(seed in 1u64..1_000_000, n in 1100usize..2600) {
        let rows = morsel_rows(seed, n);
        let (mut c, mut db, t) = morsel_table("t", &rows);
        let k = c.table(t).attr("k");
        let s = c.table(t).attr("s");
        let w = c.table(t).attr("w");
        let (sum_out, cnt_out, min_out, max_out) =
            (c.fresh_attr(), c.fresh_attr(), c.fresh_attr(), c.fresh_attr());
        // Single string group key: the dictionary code-space grouping.
        let by_s = PhysPlan {
            schema: Schema::new(vec![
                c.table(t).schema.attr(s).unwrap().clone(),
                Attribute { id: sum_out, name: "sum".into(), data_type: DataType::Int },
                Attribute { id: cnt_out, name: "cnt".into(), data_type: DataType::Int },
                Attribute { id: min_out, name: "min".into(), data_type: DataType::Int },
            ]),
            node: PlanNode::HashAggregate {
                input: Box::new(scan(&c, t)),
                group_by: vec![s],
                aggs: vec![
                    AggSpec::new(AggFunc::Sum, ScalarExpr::Col(w), sum_out),
                    AggSpec::new(AggFunc::Count, ScalarExpr::Col(w), cnt_out),
                    AggSpec::new(AggFunc::Min, ScalarExpr::Col(w), min_out),
                ],
            },
        };
        // Multi-key grouping with a string MIN/MAX over the dict column.
        let by_ks = PhysPlan {
            schema: Schema::new(vec![
                c.table(t).schema.attr(k).unwrap().clone(),
                c.table(t).schema.attr(s).unwrap().clone(),
                Attribute { id: max_out, name: "max_s".into(), data_type: DataType::Str },
            ]),
            node: PlanNode::HashAggregate {
                input: Box::new(scan(&c, t)),
                group_by: vec![k, s],
                aggs: vec![AggSpec::new(AggFunc::Max, ScalarExpr::Col(s), max_out)],
            },
        };
        let none = DeltaSet::new();
        for phys in [&by_s, &by_ks] {
            let serial = eval_phys_threads(&c, &mut db, &none, phys, 1);
            for threads in [2usize, 4] {
                let parallel = eval_phys_threads(&c, &mut db, &none, phys, threads);
                prop_assert_eq!(&serial, &parallel);
            }
        }
    }

    /// Morsel-parallel delta scans preserve the serial row order for both
    /// update kinds.
    #[test]
    fn morsel_scan_delta_identical_to_serial(seed in 1u64..1_000_000, n in 1100usize..2600) {
        let (c, mut db, t) = morsel_table("t", &morsel_rows(seed, 8));
        let mut deltas = DeltaSet::new();
        deltas.insert(
            t,
            mvmqo_storage::delta::DeltaBatch::new(
                morsel_rows(seed.wrapping_add(1), n),
                morsel_rows(seed.wrapping_add(2), n / 2 + 1100),
            ),
        );
        for kind in [mvmqo_storage::delta::DeltaKind::Insert, mvmqo_storage::delta::DeltaKind::Delete] {
            let phys = PhysPlan {
                schema: c.table(t).schema.clone(),
                node: PlanNode::ScanDelta { table: t, kind },
            };
            let serial = eval_phys_threads(&c, &mut db, &deltas, &phys, 1);
            for threads in [2usize, 4] {
                let parallel = eval_phys_threads(&c, &mut db, &deltas, &phys, threads);
                prop_assert_eq!(&serial, &parallel);
            }
        }
    }
}

/// Scale of the parallel-epoch fixture: large enough that at a 1–2 %
/// update rate its plans merge two or more views in one step (at scales
/// 300 and 500 no step merges more than one).
const PAR_SCALE: usize = 1000;

/// One full optimize→execute epoch over the small world; returns the final
/// view contents and the program's [`parallel_coverage`]. `threads` is the
/// worker budget when `parallel` (0 = auto-detect).
fn run_epoch_with(
    parallel: bool,
    threads: usize,
    percent: f64,
    seed: u64,
) -> (BTreeMap<String, Vec<Tuple>>, (usize, usize)) {
    let mut world = small_world(PAR_SCALE);
    let c = &world.catalog;
    let a_id = c.table(world.a).attr("id");
    let b_aid = c.table(world.b).attr("a_id");
    let b_id = c.table(world.b).attr("id");
    let c_bid = c.table(world.c).attr("b_id");
    let a_x = c.table(world.a).attr("x");
    let c_v = c.table(world.c).attr("v");
    let join = LogicalExpr::Join {
        left: LogicalExpr::join(
            LogicalExpr::scan(world.a),
            LogicalExpr::scan(world.b),
            Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
        ),
        right: LogicalExpr::scan(world.c),
        predicate: Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid)),
    };
    let agg_out = world.catalog.fresh_attr();
    let views = vec![
        ViewDef::new("vjoin", std::sync::Arc::new(join.clone())),
        ViewDef::new(
            "vsel",
            LogicalExpr::select(
                join.clone().into(),
                Predicate::from_expr(ScalarExpr::col_cmp_lit(a_x, CmpOp::Lt, 9i64)),
            ),
        ),
        ViewDef::new(
            "vagg",
            LogicalExpr::aggregate(
                join.into(),
                vec![a_x],
                vec![AggSpec::new(AggFunc::Sum, ScalarExpr::Col(c_v), agg_out)],
            ),
        ),
    ];
    let deltas = generate_deltas(&world, percent, seed);
    let updates = update_model_for(&deltas);
    let initial_indices = pk_indices_for(&world.catalog, &views);
    let mut session = Optimizer::new(CostModel::default(), GreedyOptions::default());
    session.set_initial_indices(initial_indices.clone());
    session.set_update_model(updates);
    for v in &views {
        session.add_view(&mut world.catalog, v);
    }
    let report = session.plan(&mut world.catalog).report;
    let index_plan = index_plan_from_report(&initial_indices, &report);
    let coverage = parallel_coverage(&report.program, &world.db);
    let mut state = RuntimeState::new();
    let exec = execute_epoch_opts(
        session.dag(),
        &world.catalog,
        CostModel::default(),
        &mut world.db,
        &deltas,
        &report.program,
        &index_plan,
        &mut state,
        ExecOptions {
            parallel,
            threads,
            // The property must exercise the merge fan-out and the morsel
            // paths even on 1-core CI hosts (where the auto-disable would
            // otherwise make this serial-vs-serial).
            force_parallel: true,
            ..ExecOptions::default()
        },
    )
    .expect("epoch execution");
    (exec.view_rows, coverage)
}

proptest! {
    // Full epochs are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Epoch results under the parallel scheduler are bag-equal to serial
    /// execution at every worker budget — the determinism contract of the
    /// merge fan-out and the morsel-parallel operators inside it.
    #[test]
    fn parallel_epoch_equals_serial(seed in 1u64..10_000, percent in 1u32..3) {
        let (serial, (max_merges, largest_scan)) =
            run_epoch_with(false, 0, percent as f64, seed);
        // Non-vacuous by construction: some step fans out over two or more
        // merge-delta plans, and some operator input spans several morsels.
        prop_assert!(max_merges >= 2, "no step plans two merges");
        prop_assert!(largest_scan > 1024, "no scan spans two morsels");
        for threads in [2usize, 4] {
            let (parallel, _) = run_epoch_with(true, threads, percent as f64, seed);
            prop_assert_eq!(serial.len(), parallel.len());
            for (name, srows) in &serial {
                let prows = parallel.get(name).expect("same view set");
                prop_assert!(
                    bag_eq(srows, prows),
                    "view {} diverged at {} workers: serial {} rows, parallel {}",
                    name, threads, srows.len(), prows.len()
                );
            }
        }
    }
}
