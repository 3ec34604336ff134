//! Quickstart: define two views over a small TPC-D instance, let the
//! optimizer pick extra materializations and indices, execute one refresh
//! cycle, and check the result against recomputation.
//!
//! ```text
//! cargo run -p mvmqo-examples --bin quickstart
//! ```

use mvmqo_core::api::pk_indices_for;
use mvmqo_core::cost::CostModel;
use mvmqo_core::opt::GreedyOptions;
use mvmqo_core::session::Optimizer;
use mvmqo_core::update::UpdateModel;
use mvmqo_exec::{
    eval_logical, execute_epoch_opts, index_plan_from_report, ExecOptions, RuntimeState,
};
use mvmqo_relalg::tuple::bag_eq;
use mvmqo_tpcd::{generate_database, generate_updates, tpcd_catalog};

fn main() {
    // 1. A small TPC-D instance (~1 MB) with real data.
    let mut tpcd = tpcd_catalog(0.002);
    let mut db = generate_database(&tpcd, 42);

    // 2. Two views that share lineitem ⋈ orders ⋈ customer.
    let views = mvmqo_tpcd::five_join_views(&tpcd)
        .into_iter()
        .take(2)
        .collect::<Vec<_>>();
    for v in &views {
        println!("view {}:\n{}", v.name, v.expr);
    }

    // 3. A 10% update cycle (10% inserts + 5% deletes per relation, §7.1).
    let deltas = generate_updates(&tpcd, &db, 10.0, 7).expect("tpcd tables loaded");
    let updates = UpdateModel::new(deltas.tables().map(|t| {
        let b = deltas.get(t).unwrap();
        (t, b.inserts.len() as f64, b.deletes.len() as f64)
    }));

    // 4. Optimize: greedy selection of extra views/indices + plans.
    let initial_indices = pk_indices_for(&tpcd.catalog, &views);
    let mut session = Optimizer::new(CostModel::default(), GreedyOptions::default());
    session.set_initial_indices(initial_indices.clone());
    session.set_update_model(updates);
    for v in &views {
        session.add_view(&mut tpcd.catalog, v);
    }
    let report = session.plan(&mut tpcd.catalog).report;
    let dag = session.dag();
    println!(
        "estimated maintenance cost: {:.2}s (NoGreedy baseline {:.2}s)",
        report.total_cost, report.nogreedy_cost
    );
    for m in &report.chosen_mats {
        println!("  chose: {} [{:?}]", m.description, m.strategy);
    }
    for i in &report.chosen_indices {
        println!("  chose: index on {:?}({})", i.target, i.attr);
    }
    for (name, strategy, cost) in &report.view_strategies {
        println!("  view {name}: {strategy:?}, {cost:.2}s");
    }

    // 5. Execute the maintenance program.
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
    println!(
        "executed: setup {:.2}s, maintenance {:.2}s (simulated I/O model)",
        exec.setup_seconds, exec.maintenance_seconds
    );

    // 6. Verify against recomputation on the post-update database.
    for v in &views {
        let expected = eval_logical(&v.expr, &tpcd.catalog, &db);
        let root = mvmqo_exec::view_root(&report.program, &v.name).unwrap();
        let expected = mvmqo_exec::align_rows(
            expected,
            &v.expr.schema(&tpcd.catalog),
            &dag.eq(root).schema,
        );
        let got = exec.view_rows.get(&v.name).unwrap();
        assert!(bag_eq(got, &expected), "view {} diverged!", v.name);
        println!(
            "  view {}: {} rows, matches recomputation ✓",
            v.name,
            got.len()
        );
    }
}
