//! TPC-D end-to-end tests: the benchmark workloads executed on real
//! (small-scale) data, verifying that every optimizer-chosen maintenance
//! program yields exactly the recomputed view contents, for all five
//! workloads and both optimizers, including the no-initial-indices setting
//! of Figure 5(b).

use mvmqo_core::api::pk_indices_for;
use mvmqo_core::cost::CostModel;
use mvmqo_core::opt::{GreedyOptions, Mode};
use mvmqo_core::session::Optimizer;
use mvmqo_core::update::UpdateModel;
use mvmqo_exec::{
    eval_logical, execute_epoch_opts, index_plan_from_report, ExecOptions, RuntimeState,
};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::tuple::bag_eq_approx;
use mvmqo_tpcd::schema::Tpcd;
use mvmqo_tpcd::{generate_database, generate_updates, tpcd_catalog};

const SF: f64 = 0.001;

fn run_and_verify(
    tpcd: &mut Tpcd,
    views: Vec<ViewDef>,
    percent: f64,
    seed: u64,
    options: GreedyOptions,
    pk_indices: bool,
) {
    let mut db = generate_database(tpcd, seed);
    let deltas = generate_updates(tpcd, &db, percent, seed + 1).unwrap();
    let updates = UpdateModel::new(deltas.tables().map(|t| {
        let b = deltas.get(t).unwrap();
        (t, b.inserts.len() as f64, b.deletes.len() as f64)
    }));
    let initial_indices = if pk_indices {
        pk_indices_for(&tpcd.catalog, &views)
    } else {
        Vec::new()
    };
    let mut session = Optimizer::new(CostModel::default(), options);
    session.set_initial_indices(initial_indices.clone());
    session.set_update_model(updates);
    for v in &views {
        session.add_view(&mut tpcd.catalog, v);
    }
    let report = session.plan(&mut tpcd.catalog).report;
    let dag = session.dag();
    let index_plan = index_plan_from_report(&initial_indices, &report);
    let exec = execute_epoch_opts(
        dag,
        &tpcd.catalog,
        CostModel::default(),
        &mut db,
        &deltas,
        &report.program,
        &index_plan,
        &mut RuntimeState::new(),
        ExecOptions::default(),
    )
    .expect("epoch execution");
    for v in &views {
        let expected = eval_logical(&v.expr, &tpcd.catalog, &db);
        let root = mvmqo_exec::view_root(&report.program, &v.name).unwrap();
        let expected = mvmqo_exec::align_rows(
            expected,
            &v.expr.schema(&tpcd.catalog),
            &dag.eq(root).schema,
        );
        let got = exec.view_rows.get(&v.name).cloned().unwrap_or_default();
        assert!(
            bag_eq_approx(&got, &expected, 1e-9),
            "view {} mismatch: {} vs {} rows",
            v.name,
            got.len(),
            expected.len()
        );
        assert!(
            !expected.is_empty(),
            "view {} is empty — workload predicates select nothing",
            v.name
        );
    }
}

#[test]
fn fig3a_workload_maintains_correctly() {
    let mut t = tpcd_catalog(SF);
    let views = mvmqo_tpcd::single_join_view(&t);
    run_and_verify(&mut t, views, 10.0, 101, GreedyOptions::default(), true);
}

#[test]
fn fig3b_workload_maintains_correctly() {
    let mut t = tpcd_catalog(SF);
    let views = mvmqo_tpcd::single_agg_view(&mut t);
    run_and_verify(&mut t, views, 10.0, 102, GreedyOptions::default(), true);
}

#[test]
fn fig4a_workload_maintains_correctly() {
    let mut t = tpcd_catalog(SF);
    let views = mvmqo_tpcd::five_join_views(&t);
    run_and_verify(&mut t, views, 5.0, 103, GreedyOptions::default(), true);
}

#[test]
fn fig4b_workload_maintains_correctly() {
    let mut t = tpcd_catalog(SF);
    let views = mvmqo_tpcd::five_agg_views(&mut t);
    run_and_verify(&mut t, views, 5.0, 104, GreedyOptions::default(), true);
}

#[test]
fn fig5_workload_maintains_correctly() {
    let mut t = tpcd_catalog(SF);
    let views = mvmqo_tpcd::ten_views(&t);
    run_and_verify(&mut t, views, 5.0, 105, GreedyOptions::default(), true);
}

#[test]
fn fig5b_no_initial_indices_maintains_correctly() {
    let mut t = tpcd_catalog(SF);
    let views = mvmqo_tpcd::ten_views(&t);
    run_and_verify(&mut t, views, 5.0, 106, GreedyOptions::default(), false);
}

#[test]
fn nogreedy_baseline_maintains_correctly() {
    let mut t = tpcd_catalog(SF);
    let views = mvmqo_tpcd::five_join_views(&t);
    run_and_verify(
        &mut t,
        views,
        10.0,
        107,
        GreedyOptions {
            mode: Mode::NoGreedy,
            ..Default::default()
        },
        true,
    );
}

#[test]
fn diff_candidates_execute_correctly_on_tpcd() {
    let mut t = tpcd_catalog(SF);
    let views = mvmqo_tpcd::five_join_views(&t);
    run_and_verify(
        &mut t,
        views,
        10.0,
        108,
        GreedyOptions {
            diff_candidates: true,
            ..Default::default()
        },
        true,
    );
}

#[test]
fn high_update_rate_tpcd_maintains_correctly() {
    let mut t = tpcd_catalog(SF);
    let views = mvmqo_tpcd::single_join_view(&t);
    run_and_verify(&mut t, views, 60.0, 109, GreedyOptions::default(), true);
}

#[test]
fn fk_pruning_is_exact_on_tpcd_data() {
    // Parent-relation insert deltas that the optimizer prunes (§5.3) must be
    // *actually* empty when executed: verified implicitly by the equality
    // checks above, but this test pins the property directly.
    let mut t = tpcd_catalog(SF);
    let views = mvmqo_tpcd::single_join_view(&t);
    let db = generate_database(&t, 200);
    let deltas = generate_updates(&t, &db, 10.0, 201).unwrap();
    let updates = UpdateModel::new(deltas.tables().map(|tb| {
        let b = deltas.get(tb).unwrap();
        (tb, b.inserts.len() as f64, b.deletes.len() as f64)
    }));
    let mut session = Optimizer::new(CostModel::default(), GreedyOptions::default());
    let root = session.add_view(&mut t.catalog, &views[0]);
    let props = mvmqo_core::diff::DiffProps::compute(session.dag(), &t.catalog, &updates);
    let mut pruned = 0;
    for step in updates.steps() {
        if step.kind == mvmqo_storage::delta::DeltaKind::Insert
            && step.table != t.t.lineitem
            && props.delta_is_empty(root, step.id)
        {
            pruned += 1;
        }
    }
    // customer, orders, supplier inserts are all FK-prunable for this view.
    assert!(
        pruned >= 2,
        "expected ≥2 pruned parent-insert deltas, got {pruned}"
    );
}
