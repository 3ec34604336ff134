//! Shared helpers for the cross-crate integration tests: a small synthetic
//! star-ish schema with real data, delta generation, and an end-to-end
//! "optimize → execute → verify against recomputation" harness.

use mvmqo_core::api::{pk_indices_for, OptimizerReport};
use mvmqo_core::cost::CostModel;
use mvmqo_core::plan::{PhysPlan, PlanNode, Program};
use mvmqo_core::session::Optimizer;
use mvmqo_core::update::UpdateModel;
use mvmqo_exec::{
    execute_epoch_opts, index_plan_from_report, ExecOptions, ExecReport, RuntimeState,
};
use mvmqo_relalg::catalog::{Catalog, ColumnSpec, TableId};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::tuple::{bag_eq_approx, Tuple};
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::{DeltaBatch, DeltaSet};
use mvmqo_storage::table::StoredTable;

pub mod reference;
pub use reference::{align_rows, eval_logical};

/// A small three-level schema: `a ←FK— b ←FK— c` (a: dimension, c: facts).
pub struct SmallWorld {
    pub catalog: Catalog,
    pub db: Database,
    pub a: TableId,
    pub b: TableId,
    pub c: TableId,
}

/// Deterministic pseudo-random stream (xorshift) so fixtures are stable.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Build the world with `scale` rows in `a` (b = 4×, c = 12×), fully
/// populated with referentially consistent data.
pub fn small_world(scale: usize) -> SmallWorld {
    let mut catalog = Catalog::new();
    let a_rows = scale;
    let b_rows = scale * 4;
    let c_rows = scale * 12;
    let a = catalog.add_table(
        "a",
        vec![
            ColumnSpec::key("id", DataType::Int),
            ColumnSpec::with_range("x", DataType::Int, 20.0, (0.0, 20.0)),
        ],
        a_rows as f64,
        &["id"],
    );
    let b = catalog.add_table(
        "b",
        vec![
            ColumnSpec::key("id", DataType::Int),
            ColumnSpec::with_distinct("a_id", DataType::Int, a_rows as f64),
            ColumnSpec::with_range("w", DataType::Int, 10.0, (0.0, 10.0)),
        ],
        b_rows as f64,
        &["id"],
    );
    let c = catalog.add_table(
        "c",
        vec![
            ColumnSpec::key("id", DataType::Int),
            ColumnSpec::with_distinct("b_id", DataType::Int, b_rows as f64),
            ColumnSpec::with_range("v", DataType::Int, 100.0, (0.0, 100.0)),
        ],
        c_rows as f64,
        &["id"],
    );
    catalog.add_foreign_key(b, &["a_id"], a);
    catalog.add_foreign_key(c, &["b_id"], b);

    let mut rng = Rng::new(42);
    let mut db = Database::new();
    db.put_base(
        a,
        StoredTable::with_rows(
            catalog.table(a).schema.clone(),
            (0..a_rows)
                .map(|i| vec![Value::Int(i as i64), Value::Int(rng.below(20) as i64)])
                .collect(),
        ),
    );
    db.put_base(
        b,
        StoredTable::with_rows(
            catalog.table(b).schema.clone(),
            (0..b_rows)
                .map(|i| {
                    vec![
                        Value::Int(i as i64),
                        Value::Int(rng.below(a_rows as u64) as i64),
                        Value::Int(rng.below(10) as i64),
                    ]
                })
                .collect(),
        ),
    );
    db.put_base(
        c,
        StoredTable::with_rows(
            catalog.table(c).schema.clone(),
            (0..c_rows)
                .map(|i| {
                    vec![
                        Value::Int(i as i64),
                        Value::Int(rng.below(b_rows as u64) as i64),
                        Value::Int(rng.below(100) as i64),
                    ]
                })
                .collect(),
        ),
    );
    SmallWorld {
        catalog,
        db,
        a,
        b,
        c,
    }
}

/// Generate the paper's update pattern against the live database: insert
/// `percent`% fresh rows (new keys; FKs reference *existing* rows, so the
/// §5.3 pruning precondition holds) and delete `percent/2`% existing rows.
pub fn generate_deltas(world: &SmallWorld, percent: f64, seed: u64) -> DeltaSet {
    let mut rng = Rng::new(seed);
    let mut ds = DeltaSet::new();
    for (t, fk_parent_rows) in [
        (world.a, None),
        (world.b, Some(world.db.base(world.a).unwrap().len())),
        (world.c, Some(world.db.base(world.b).unwrap().len())),
    ] {
        let table = world.db.base(t).unwrap();
        let rows = table.len();
        let ins_n = ((rows as f64) * percent / 100.0).round() as usize;
        let del_n = ((rows as f64) * percent / 200.0).round() as usize;
        let key_col = table.batch().column(0);
        let max_key = (0..key_col.len())
            .map(|i| key_col.value(i).as_i64().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let mut inserts: Vec<Tuple> = Vec::with_capacity(ins_n);
        for i in 0..ins_n {
            let key = max_key + 1 + i as i64;
            let row: Tuple = match fk_parent_rows {
                None => vec![Value::Int(key), Value::Int(rng.below(20) as i64)],
                Some(parents) => vec![
                    Value::Int(key),
                    Value::Int(rng.below(parents as u64) as i64),
                    Value::Int(rng.below(100) as i64),
                ],
            };
            inserts.push(row);
        }
        // Deletes sample existing rows; RI is not required for deletes (no
        // pruning is applied to them).
        let mut deletes: Vec<Tuple> = Vec::with_capacity(del_n);
        for _ in 0..del_n {
            let pos = rng.below(table.len() as u64) as u32;
            deletes.push(table.tuple_at(pos));
        }
        deletes.sort();
        deletes.dedup();
        ds.insert(t, DeltaBatch::new(inserts, deletes));
    }
    ds
}

/// Build an [`UpdateModel`] matching a generated [`DeltaSet`] exactly.
pub fn update_model_for(deltas: &DeltaSet) -> UpdateModel {
    UpdateModel::new(deltas.tables().map(|t| {
        let b = deltas.get(t).unwrap();
        (t, b.inserts.len() as f64, b.deletes.len() as f64)
    }))
}

/// What a program gives a parallel≡serial check to bite on: the most merges
/// one update step evaluates (the merge fan-out needs two), and the most
/// rows of any base table a plan scans in full (an operator fed by it runs
/// on morsels past 1024 rows). Both are 0 for an empty program.
pub fn parallel_coverage(program: &Program, db: &Database) -> (usize, usize) {
    let max_merges = program.steps.iter().map(|s| s.merges.len()).max();
    let plans = program
        .full_plans
        .values()
        .chain(program.steps.iter().flat_map(|s| {
            s.temp_deltas
                .iter()
                .map(|(_, p)| p)
                .chain(s.merges.iter().map(|m| &m.delta_plan))
        }));
    let mut largest_scan = 0;
    let mut stack: Vec<&PhysPlan> = plans.collect();
    while let Some(plan) = stack.pop() {
        match &plan.node {
            PlanNode::ScanBase(t) => {
                largest_scan = largest_scan.max(db.base(*t).map_or(0, |b| b.len()));
            }
            PlanNode::ScanDelta { .. }
            | PlanNode::ReadMat(_)
            | PlanNode::ReadDelta(..)
            | PlanNode::IndexScan { .. } => {}
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::HashAggregate { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::IndexNlJoin { outer: input, .. } => stack.push(input),
            PlanNode::HashJoin {
                build: l, probe: r, ..
            }
            | PlanNode::MergeJoin {
                left: l, right: r, ..
            }
            | PlanNode::NlJoin {
                left: l, right: r, ..
            }
            | PlanNode::Minus { left: l, right: r } => {
                stack.push(l);
                stack.push(r);
            }
            PlanNode::UnionAll(inputs) => stack.extend(inputs),
        }
    }
    (max_merges.unwrap_or(0), largest_scan)
}

/// Run the full pipeline and verify every view, **as a multiset**, against
/// the reference evaluator on the post-update database. Panics on mismatch.
pub fn optimize_execute_verify(
    world: &mut SmallWorld,
    views: Vec<ViewDef>,
    deltas: &DeltaSet,
    options: mvmqo_core::opt::GreedyOptions,
) -> (OptimizerReport, ExecReport) {
    let initial_indices = pk_indices_for(&world.catalog, &views);
    let mut session = Optimizer::new(CostModel::default(), options);
    session.set_initial_indices(initial_indices.clone());
    session.set_update_model(update_model_for(deltas));
    for v in &views {
        session.add_view(&mut world.catalog, v);
    }
    let report = session.plan(&mut world.catalog).report;
    let dag = session.dag();
    let index_plan = index_plan_from_report(&initial_indices, &report);
    let exec = execute_epoch_opts(
        dag,
        &world.catalog,
        CostModel::default(),
        &mut world.db,
        deltas,
        &report.program,
        &index_plan,
        &mut RuntimeState::new(),
        ExecOptions::default(),
    )
    .expect("epoch execution");
    // Ground truth: evaluate each view directly on the post-update state.
    for v in &views {
        let mut expected = eval_logical(&v.expr, &world.catalog, &world.db);
        // Canonical order: the view schema may reorder columns relative to
        // the reference join order; align by attribute ids.
        let root = mvmqo_exec::view_root(&report.program, &v.name).expect("view root");
        let expected_schema = v.expr.schema(&world.catalog);
        let view_schema = dag.eq(root).schema.clone();
        expected = align_rows(expected, &expected_schema, &view_schema);
        let got = exec.view_rows.get(&v.name).cloned().unwrap_or_default();
        assert!(
            bag_eq_approx(&got, &expected, 1e-9),
            "view {} mismatch: incremental {} rows vs recomputed {} rows",
            v.name,
            got.len(),
            expected.len()
        );
    }
    (report, exec)
}
