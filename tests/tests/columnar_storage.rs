//! Columnar storage / delta-pipeline property tests.
//!
//! Batch-native storage means every merge path runs a columnar kernel
//! where the row-at-a-time code used to run. These proptests pin each
//! kernel to its row reference on random multisets with NULLs and
//! duplicates, for **every** `DataType`:
//!
//! * `StoredTable::apply_delta` / `apply_batch_delta` (the `merge_plain`
//!   kernel) ≡ append + `bag_minus`, with index consistency through the
//!   position-remap delete path;
//! * `AggState::fold_batch` / `output_batch` (the `merge_aggregate`
//!   kernel) ≡ the row `fold`, for removable and non-removable aggregates
//!   on insert and delete sides;
//! * `DistinctState::fold_batch` (the `merge_distinct` kernel) ≡ the row
//!   `fold`;
//! * `Batch::minus` / `Batch::counts` ≡ `tuple::bag_minus` /
//!   `tuple::bag_counts`;
//! * the typed aggregation kernels of the vectorized executor ≡ the
//!   reference evaluator, per input type, and over expressions, with
//!   every output column of its plan type.

use mvmqo_core::cost::CostModel;
use mvmqo_core::dag::Dag;
use mvmqo_core::plan::{PhysPlan, PlanNode};
use mvmqo_exec::{AggState, DistinctState, Journal, Runtime, RuntimeState};
use mvmqo_integration_tests::eval_logical;
use mvmqo_relalg::agg::{AggFunc, AggSpec};
use mvmqo_relalg::batch::Batch;
use mvmqo_relalg::catalog::{Catalog, ColumnSpec};
use mvmqo_relalg::expr::{ArithOp, ScalarExpr};
use mvmqo_relalg::logical::LogicalExpr;
use mvmqo_relalg::schema::{AttrId, Attribute, Schema};
use mvmqo_relalg::tuple::{bag_counts, bag_eq, bag_minus, bag_union, Tuple};
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::{DeltaBatch, DeltaKind, DeltaQueue};
use mvmqo_storage::index::IndexKind;
use mvmqo_storage::table::StoredTable;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::collections::HashMap;

/// The physical layouts under test: one per declared `DataType`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    Int,
    Float,
    Str,
    Date,
    Bool,
}

const LAYOUTS: [Layout; 5] = [
    Layout::Int,
    Layout::Float,
    Layout::Str,
    Layout::Date,
    Layout::Bool,
];

impl Layout {
    fn declared(self) -> DataType {
        match self {
            Layout::Int => DataType::Int,
            Layout::Float => DataType::Float,
            Layout::Str => DataType::Str,
            Layout::Date => DataType::Date,
            Layout::Bool => DataType::Bool,
        }
    }

    /// A small value domain (lots of duplicates) with ~1-in-5 NULLs.
    fn cell(self, pick: u8) -> Value {
        let pick = pick % 10;
        if pick >= 8 {
            return Value::Null;
        }
        let v = (pick % 4) as i64;
        match self {
            Layout::Int => Value::Int(v),
            Layout::Float => Value::Float(v as f64 + 0.5),
            Layout::Str => Value::str(format!("s{v}")),
            Layout::Date => Value::Date(v as i32),
            Layout::Bool => Value::Bool(v % 2 == 0),
        }
    }

    /// The aggregates a view over this layout may take: SUM and AVG need
    /// a numeric input.
    fn funcs(self) -> Vec<AggFunc> {
        let mut funcs = vec![AggFunc::Count, AggFunc::Min, AggFunc::Max];
        if self.declared().is_numeric() {
            funcs.extend([AggFunc::Sum, AggFunc::Avg]);
        }
        funcs
    }
}

fn schema_for(layout: Layout) -> Schema {
    Schema::new(vec![
        Attribute {
            id: AttrId(0),
            name: "t.k".into(),
            data_type: DataType::Int,
        },
        Attribute {
            id: AttrId(1),
            name: "t.v".into(),
            data_type: layout.declared(),
        },
    ])
}

/// Rows of (Int key, layout-typed value) from raw byte picks.
fn rows_for(layout: Layout, picks: &[(u8, u8)]) -> Vec<Tuple> {
    picks
        .iter()
        .map(|&(k, v)| {
            let key = if k % 7 == 6 {
                Value::Null
            } else {
                Value::Int((k % 4) as i64)
            };
            vec![key, layout.cell(v)]
        })
        .collect()
}

fn picks(max: usize) -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec(
        (0u32..65536).prop_map(|x| ((x >> 8) as u8, (x & 0xff) as u8)),
        0..max,
    )
}

/// Deletes are sampled from the stored multiset (by index) plus a few
/// arbitrary rows, so both matching and phantom deletes are exercised.
fn delete_rows(layout: Layout, base: &[Tuple], idx: &[usize], extra: &[(u8, u8)]) -> Vec<Tuple> {
    let mut out: Vec<Tuple> = if base.is_empty() {
        Vec::new()
    } else {
        idx.iter().map(|i| base[i % base.len()].clone()).collect()
    };
    out.extend(rows_for(layout, extra));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Columnar `apply_delta` ≡ append + `bag_minus`, per layout, with
    /// the index following the position-remapped compaction.
    #[test]
    fn apply_delta_matches_row_reference(
        base in picks(24),
        ins in picks(8),
        del_idx in proptest::collection::vec(0usize..64, 0..8),
        del_extra in picks(3),
        layout_pick in 0usize..LAYOUTS.len(),
    ) {
        let layout = LAYOUTS[layout_pick];
        let schema = schema_for(layout);
        let base_rows = rows_for(layout, &base);
        let ins_rows = rows_for(layout, &ins);
        let del_rows = delete_rows(layout, &base_rows, &del_idx, &del_extra);

        let mut table = StoredTable::with_rows(schema.clone(), base_rows.clone());
        table.create_index(AttrId(0), IndexKind::Hash);
        table.apply_delta(&DeltaBatch::new(ins_rows.clone(), del_rows.clone()));

        let expected = bag_minus(&bag_union(&base_rows, &ins_rows), &del_rows);
        prop_assert!(
            bag_eq(table.rows(), &expected),
            "layout {layout:?}: got {:?} expected {expected:?}",
            table.rows()
        );
        // Index consistency: every entry dereferences to its key, and the
        // entry count matches the row count.
        let idx = table.index_on(AttrId(0)).unwrap();
        prop_assert_eq!(idx.entries(), table.len());
        for key in [Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3), Value::Null] {
            for &p in idx.lookup_eq(&key) {
                prop_assert_eq!(&table.tuple_at(p)[0], &key);
            }
        }
    }

    /// Columnar `apply_batch_delta` (the merge_plain kernel) agrees with
    /// the row-level delta application.
    #[test]
    fn apply_batch_delta_matches_apply_delta(
        base in picks(24),
        ins in picks(8),
        del_idx in proptest::collection::vec(0usize..64, 0..8),
        layout_pick in 0usize..LAYOUTS.len(),
    ) {
        let layout = LAYOUTS[layout_pick];
        let schema = schema_for(layout);
        let base_rows = rows_for(layout, &base);
        let ins_rows = rows_for(layout, &ins);
        let del_rows = delete_rows(layout, &base_rows, &del_idx, &[]);

        let mut row_side = StoredTable::with_rows(schema.clone(), base_rows.clone());
        row_side.apply_delta(&DeltaBatch::new(ins_rows.clone(), del_rows.clone()));

        let mut batch_side = StoredTable::with_rows(schema.clone(), base_rows);
        let ins_b = Batch::from_rows(schema.clone(), &ins_rows);
        let del_b = Batch::from_rows(schema, &del_rows);
        batch_side.apply_batch_delta(Some(&ins_b), Some(&del_b));

        prop_assert!(bag_eq(row_side.rows(), batch_side.rows()));
    }

    /// `Batch::minus` ≡ `bag_minus`, `Batch::counts` ≡ `bag_counts`.
    #[test]
    fn batch_bag_ops_match_row_bag_ops(
        a in picks(24),
        b in picks(12),
        layout_pick in 0usize..LAYOUTS.len(),
    ) {
        let layout = LAYOUTS[layout_pick];
        let schema = schema_for(layout);
        let a_rows = rows_for(layout, &a);
        let b_rows = rows_for(layout, &b);
        let a_b = Batch::from_rows(schema.clone(), &a_rows);
        let b_b = Batch::from_rows(schema, &b_rows);

        let got = a_b.minus(&b_b).to_rows();
        let expected = bag_minus(&a_rows, &b_rows);
        prop_assert!(bag_eq(&got, &expected), "layout {layout:?}");

        let got_counts: HashMap<Tuple, i64> = a_b
            .counts()
            .into_iter()
            .map(|(p, c)| (a_b.tuple_at_physical(p), c))
            .collect();
        let expected_counts = bag_counts(&a_rows);
        prop_assert_eq!(got_counts.len(), expected_counts.len());
        for (row, c) in &got_counts {
            prop_assert_eq!(expected_counts.get(row.as_slice()), Some(c));
        }
    }

    /// `AggState::fold_batch` ≡ the row `fold` (the merge_aggregate
    /// kernel), on both delta sides, including the MIN/MAX
    /// needs-recompute signal; `output_batch` ≡ the sorted row emission.
    #[test]
    fn agg_fold_batch_matches_row_fold(
        ins in picks(24),
        del_idx in proptest::collection::vec(0usize..64, 0..8),
        layout_pick in 0usize..LAYOUTS.len(),
        removable_only in proptest::bool::ANY,
    ) {
        let layout = LAYOUTS[layout_pick];
        let schema = schema_for(layout);
        let specs: Vec<AggSpec> = layout
            .funcs()
            .into_iter()
            .filter(|f| f.removable() || !removable_only)
            .zip(10..)
            .map(|(f, out)| AggSpec::new(f, ScalarExpr::Col(AttrId(1)), AttrId(out)))
            .collect();
        let out_schema = Schema::new(
            std::iter::once(Attribute {
                id: AttrId(0),
                name: "t.k".into(),
                data_type: DataType::Int,
            })
            .chain(specs.iter().map(|s| Attribute {
                id: s.out,
                name: format!("agg{}", s.out),
                data_type: s.func.result_type(layout.declared()),
            }))
            .collect(),
        );
        let ins_rows = rows_for(layout, &ins);
        let del_rows = delete_rows(layout, &ins_rows, &del_idx, &[]);

        let mut row_state = AggState::new(vec![AttrId(0)], specs.clone(), schema.clone());
        let r1 = row_state.fold(&ins_rows, DeltaKind::Insert);
        let r2 = row_state.fold(&del_rows, DeltaKind::Delete);

        let mut batch_state = AggState::new(vec![AttrId(0)], specs, schema.clone());
        let b1 = batch_state.fold_batch(&Batch::from_rows(schema.clone(), &ins_rows), DeltaKind::Insert);
        let b2 = batch_state.fold_batch(&Batch::from_rows(schema, &del_rows), DeltaKind::Delete);

        prop_assert_eq!(r1, b1);
        prop_assert_eq!(r2, b2);
        prop_assert_eq!(row_state.rows(), batch_state.rows());
        // The columnar emission agrees with the sorted row emission.
        prop_assert_eq!(
            batch_state.output_batch(&out_schema).to_rows(),
            row_state.rows()
        );
    }

    /// `DistinctState::fold_batch` ≡ the row `fold` (the merge_distinct
    /// kernel).
    #[test]
    fn distinct_fold_batch_matches_row_fold(
        ins in picks(24),
        del_idx in proptest::collection::vec(0usize..64, 0..8),
        layout_pick in 0usize..LAYOUTS.len(),
    ) {
        let layout = LAYOUTS[layout_pick];
        let schema = schema_for(layout);
        let ins_rows = rows_for(layout, &ins);
        let del_rows = delete_rows(layout, &ins_rows, &del_idx, &[]);

        let mut row_state = DistinctState::default();
        row_state.fold(&ins_rows, DeltaKind::Insert);
        row_state.fold(&del_rows, DeltaKind::Delete);

        let mut batch_state = DistinctState::default();
        batch_state.fold_batch(&Batch::from_rows(schema.clone(), &ins_rows), &schema, DeltaKind::Insert);
        batch_state.fold_batch(&Batch::from_rows(schema.clone(), &del_rows), &schema, DeltaKind::Delete);

        prop_assert_eq!(row_state.rows(), batch_state.rows());
        prop_assert_eq!(
            batch_state.output_batch(&schema).to_rows(),
            row_state.rows()
        );
    }

    /// The typed aggregation kernels (per input column type) agree with
    /// the reference evaluator through the physical plan path.
    #[test]
    fn typed_agg_kernels_match_reference(
        rows in picks(24),
        layout_pick in 0usize..LAYOUTS.len(),
    ) {
        let layout = LAYOUTS[layout_pick];
        let mut catalog = Catalog::new();
        let t = catalog.add_table(
            "t",
            vec![
                ColumnSpec::with_distinct("k", DataType::Int, 4.0),
                ColumnSpec::with_distinct("v", layout.declared(), 4.0),
            ],
            rows.len().max(1) as f64,
            &["k"],
        );
        let k = catalog.table(t).attr("k");
        let v = catalog.table(t).attr("v");
        let data = rows_for(layout, &rows);
        let mut db = Database::new();
        db.put_base(t, StoredTable::with_rows(catalog.table(t).schema.clone(), data));

        let specs: Vec<AggSpec> = layout
            .funcs()
            .into_iter()
            .map(|f| AggSpec::new(f, ScalarExpr::Col(v), catalog.fresh_attr()))
            .collect();
        let view = LogicalExpr::aggregate(LogicalExpr::scan(t), vec![k], specs);
        let got = eval_aggregate(&catalog, &mut db, &view);
        let expected = eval_logical(&view, &catalog, &db);
        prop_assert!(
            bag_eq(&got, &expected),
            "layout {layout:?}: got {got:?} expected {expected:?}"
        );
    }
}

/// Evaluate an aggregate view's `HashAggregate` over a base scan through
/// the batch executor, with the plan schema the view derives. Every output
/// column must hold its plan type.
fn eval_aggregate(catalog: &Catalog, db: &mut Database, view: &LogicalExpr) -> Vec<Tuple> {
    let LogicalExpr::Aggregate {
        input,
        group_by,
        aggs,
    } = view
    else {
        panic!("not an aggregate: {view}");
    };
    let phys = PhysPlan {
        schema: view.schema(catalog),
        node: PlanNode::HashAggregate {
            input: Box::new(PhysPlan {
                schema: input.schema(catalog),
                node: PlanNode::ScanBase(input.base_tables()[0]),
            }),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
    };
    let dag = Dag::new();
    let deltas = DeltaQueue::new();
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
    let got = rt.eval_batch(&phys).expect("plan evaluation");
    for (i, a) in phys.schema.attrs().iter().enumerate() {
        assert_eq!(
            got.column(i).data().data_type(),
            a.data_type,
            "column {}",
            a.name
        );
    }
    got.into_rows()
}

/// Aggregates over an `Int` and over a `Float` expression: each output
/// column holds the type the plan gives it (`Int` for COUNT and for SUM,
/// MIN and MAX of an `Int` expression), and the values are the
/// reference's.
#[test]
fn expression_aggregates_are_typed_by_the_plan() {
    let mut catalog = Catalog::new();
    let t = catalog.add_table(
        "t",
        vec![
            ColumnSpec::with_distinct("k", DataType::Int, 3.0),
            ColumnSpec::with_distinct("a", DataType::Int, 5.0),
            ColumnSpec::with_distinct("f", DataType::Float, 5.0),
        ],
        12.0,
        &["k"],
    );
    let attr = |n: &str| catalog.table(t).attr(n);
    let (k, a, f) = (attr("k"), attr("a"), attr("f"));
    let rows: Vec<Tuple> = (0..12i64)
        .map(|i| {
            let a = if i % 5 == 4 {
                Value::Null
            } else {
                Value::Int(i - 4)
            };
            vec![Value::Int(i % 3), a, Value::Float(i as f64 / 4.0)]
        })
        .collect();
    let mut db = Database::new();
    db.put_base(
        t,
        StoredTable::with_rows(catalog.table(t).schema.clone(), rows),
    );
    let int_expr = ScalarExpr::arith(ArithOp::Mul, ScalarExpr::col(a), ScalarExpr::lit(3i64));
    let float_expr = ScalarExpr::arith(ArithOp::Add, ScalarExpr::col(a), ScalarExpr::col(f));
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let mut specs = Vec::new();
    for input in [int_expr, float_expr] {
        for func in funcs {
            specs.push(AggSpec::new(func, input.clone(), catalog.fresh_attr()));
        }
    }
    let view = LogicalExpr::aggregate(LogicalExpr::scan(t), vec![k], specs);
    view.validate(&catalog).unwrap();
    let types: Vec<DataType> = view.schema(&catalog).attrs()[1..]
        .iter()
        .map(|a| a.data_type)
        .collect();
    use DataType::{Float as F, Int as I};
    assert_eq!(types, [I, I, I, I, F, I, F, F, F, F]);
    let got = eval_aggregate(&catalog, &mut db, &view);
    let expected = eval_logical(&view, &catalog, &db);
    assert!(bag_eq(&got, &expected), "got {got:?} expected {expected:?}");
}
