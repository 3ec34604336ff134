//! Re-entrant optimizer session: cross-crate correctness and performance.
//!
//! * Property: `add_view` then `remove_view` leaves a session whose greedy
//!   selection (and plan cost) equals never having added the view.
//! * Engine-level: a `DeltaDrift` replan of a 50-view warehouse is at
//!   least 5× faster than a cold rebuild of the same planning problem,
//!   with the plan's estimated cost no worse than the cold plan's.
//! * Warm add-view: one view added to a planned `many_views` session and
//!   replanned incrementally costs at most 1% more than cold-planning the
//!   grown view set.

use mvmqo_core::cost::CostModel;
use mvmqo_core::opt::GreedyOptions;
use mvmqo_core::session::{Optimizer, PlanMode};
use mvmqo_core::update::UpdateModel;
use mvmqo_integration_tests::small_world;
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
use mvmqo_tpcd::{generate_database, generate_table_update, many_views, tpcd_catalog};
use mvmqo_warehouse::{PlanMode as WhPlanMode, ReoptPolicy, ReoptTrigger, Warehouse};
use proptest::prelude::*;
use std::sync::Arc;

/// The pool of candidate views over the small a←b←c world: join chains
/// with optional range selections (indices into this pool drive the
/// property test).
fn view_pool(catalog: &Catalog, a: TableId, b: TableId, c: TableId) -> Vec<ViewDef> {
    let a_id = catalog.table(a).attr("id");
    let a_x = catalog.table(a).attr("x");
    let b_aid = catalog.table(b).attr("a_id");
    let b_id = catalog.table(b).attr("id");
    let b_w = catalog.table(b).attr("w");
    let c_bid = catalog.table(c).attr("b_id");
    let ab = |extra: Option<ScalarExpr>| -> Arc<LogicalExpr> {
        let mut conjuncts = vec![ScalarExpr::col_eq_col(a_id, b_aid)];
        conjuncts.extend(extra);
        LogicalExpr::join(
            LogicalExpr::scan(a),
            LogicalExpr::scan(b),
            Predicate::from_conjuncts(conjuncts),
        )
    };
    let abc = |extra: Option<ScalarExpr>| -> Arc<LogicalExpr> {
        LogicalExpr::join(
            ab(extra),
            LogicalExpr::scan(c),
            Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid)),
        )
    };
    let bc = LogicalExpr::join(
        LogicalExpr::scan(b),
        LogicalExpr::scan(c),
        Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid)),
    );
    vec![
        ViewDef::new("p_ab", ab(None)),
        ViewDef::new("p_abc", abc(None)),
        ViewDef::new(
            "p_abc_x5",
            abc(Some(ScalarExpr::col_cmp_lit(a_x, CmpOp::Lt, 5i64))),
        ),
        ViewDef::new(
            "p_abc_x12",
            abc(Some(ScalarExpr::col_cmp_lit(a_x, CmpOp::Lt, 12i64))),
        ),
        ViewDef::new(
            "p_ab_w",
            ab(Some(ScalarExpr::col_cmp_lit(b_w, CmpOp::Lt, 4i64))),
        ),
        ViewDef::new("p_bc", bc),
    ]
}

fn plan_cost(
    catalog: &mut Catalog,
    views: &[ViewDef],
    updates: &UpdateModel,
    pk: &[(TableId, mvmqo_relalg::schema::AttrId)],
) -> (f64, Vec<String>) {
    let mut s = Optimizer::new(CostModel::default(), GreedyOptions::default());
    s.set_initial_indices(pk.to_vec());
    s.set_update_model(updates.clone());
    for v in views {
        s.add_view(catalog, v);
    }
    let out = s.plan(catalog);
    (out.report.total_cost, chosen_of(&out.report))
}

fn chosen_of(report: &mvmqo_core::OptimizerReport) -> Vec<String> {
    let mut out: Vec<String> = report
        .chosen_mats
        .iter()
        .map(|m| m.description.clone())
        .chain(
            report
                .chosen_indices
                .iter()
                .map(|i| format!("idx {:?} {}", i.target, i.attr)),
        )
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// add_view + remove_view returns the session to a state whose greedy
    /// selection matches a session that never saw the extra view.
    #[test]
    fn add_then_remove_equals_never_added(
        base_mask in 1u32..63,
        extra_idx in 0usize..6,
        percent in 1u32..30,
    ) {
        let world = small_world(40);
        let (a, b, c) = (world.a, world.b, world.c);
        let pool = view_pool(&world.catalog, a, b, c);
        let mut base: Vec<ViewDef> = pool
            .iter()
            .enumerate()
            .filter(|(i, _)| base_mask & (1 << i) != 0 && *i != extra_idx)
            .map(|(_, v)| v.clone())
            .collect();
        if base.is_empty() {
            base.push(pool[(extra_idx + 1) % pool.len()].clone());
        }
        let extra = pool[extra_idx].clone();
        let updates = UpdateModel::percentage([a, b, c], percent as f64, |t| {
            world.catalog.table(t).stats.rows
        });
        let pk: Vec<_> = [a, b, c]
            .iter()
            .map(|t| (*t, world.catalog.table(*t).primary_key[0]))
            .collect();

        // Reference: never added.
        let mut cat1 = world.catalog.clone();
        let (ref_cost, ref_chosen) = plan_cost(&mut cat1, &base, &updates, &pk);

        // Session: base → plan → add extra → plan → remove → plan.
        let mut cat2 = world.catalog.clone();
        let mut s = Optimizer::new(CostModel::default(), GreedyOptions::default());
        s.set_initial_indices(pk.clone());
        s.set_update_model(updates.clone());
        for v in &base {
            s.add_view(&mut cat2, v);
        }
        let _ = s.plan(&mut cat2);
        s.add_view(&mut cat2, &extra);
        let _ = s.plan(&mut cat2);
        prop_assert!(s.remove_view(&extra.name));
        let back = s.plan(&mut cat2);
        prop_assert_eq!(back.mode, PlanMode::Incremental);

        prop_assert!(
            (back.report.total_cost - ref_cost).abs() <= 1e-6 * ref_cost.max(1.0),
            "cost after add+remove {} vs never-added {}",
            back.report.total_cost,
            ref_cost
        );
        prop_assert_eq!(
            chosen_of(&back.report),
            ref_chosen,
            "selection after add+remove differs from never-added"
        );
    }
}

/// A 50-view warehouse whose `DeltaDrift` replan must be ≥5× cheaper than
/// a cold rebuild of the *same* planning problem (identical views, catalog
/// statistics, and update model), with comparable plan quality.
///
/// The speed-up is asserted on the optimizer's deterministic work count —
/// cost-slot recomputes, full and differential — not on two single
/// wall-clock timings of a few milliseconds, which the host's load can
/// push either way. The timings are printed as a diagnostic.
#[test]
fn delta_drift_replan_on_50_views_is_5x_faster_than_cold() {
    let tpcd = tpcd_catalog(0.001);
    let db = generate_database(&tpcd, 1234);
    let views = many_views(&tpcd, 50);
    let gen = tpcd_catalog(0.001);
    let mut wh = Warehouse::new(tpcd.catalog, db).with_policy(ReoptPolicy {
        // Low threshold so a localized burst on part/partsupp trips the
        // drift trigger.
        delta_fraction: 0.02,
        cost_ratio: 1e12,
    });
    for v in &views {
        wh.register_view(v.clone()).unwrap();
    }
    assert_eq!(wh.views().len(), 50);

    // Epoch 1: a broad 5% batch seeds the observed per-table rates.
    let mut epoch1_sizes: Vec<(TableId, f64, f64)> = Vec::new();
    for t in gen.t.all() {
        let batch = generate_table_update(&gen, wh.database(), t, 5.0, 7).unwrap();
        if batch.inserts.is_empty() && batch.deletes.is_empty() {
            continue;
        }
        epoch1_sizes.push((t, batch.inserts.len() as f64, batch.deletes.len() as f64));
        wh.ingest(t, batch).unwrap();
    }
    wh.run_epoch().unwrap();

    // Epoch 2: a burst on the part/partsupp dimension (the DeltaDrift
    // shape — ingested batches name specific relations).
    let mut burst_sizes: Vec<(TableId, f64, f64)> = Vec::new();
    for t in [gen.t.part, gen.t.partsupp] {
        let batch = generate_table_update(&gen, wh.database(), t, 40.0, 77).unwrap();
        burst_sizes.push((t, batch.inserts.len() as f64, batch.deletes.len() as f64));
        wh.ingest(t, batch).unwrap();
    }
    let report = wh.run_epoch().unwrap();
    assert!(
        matches!(report.replanned, Some(ReoptTrigger::DeltaDrift { .. })),
        "expected a delta-drift replan, got {:?}",
        report.replanned
    );
    let drift = *wh.replans().last().unwrap();
    assert_eq!(drift.mode, WhPlanMode::Incremental);

    // Cold baseline: the same planning problem from scratch — the views,
    // the post-epoch-1 catalog statistics, and the update model the drift
    // replan used (observed epoch-1 rates, with the burst overriding
    // part/partsupp — exactly `Warehouse::update_model`'s construction).
    let mut cold_catalog = wh.catalog().clone();
    let model: Vec<(TableId, f64, f64)> = epoch1_sizes
        .iter()
        .map(|&(t, i, d)| {
            burst_sizes
                .iter()
                .find(|(bt, _, _)| *bt == t)
                .copied()
                .unwrap_or((t, i, d))
        })
        .collect();
    let t0 = std::time::Instant::now();
    let mut cold = Optimizer::new(CostModel::default(), GreedyOptions::default());
    cold.set_initial_indices(mvmqo_core::api::pk_indices_for(&cold_catalog, &views));
    cold.set_update_model(UpdateModel::new(model));
    for v in &views {
        cold.add_view(&mut cold_catalog, v);
    }
    let cold = cold.plan(&mut cold_catalog);
    let cold_elapsed = t0.elapsed();

    let current = wh.current_report().unwrap();
    let work =
        |r: &mvmqo_core::api::OptimizerReport| r.full_slot_recomputes + r.diff_slot_recomputes;
    let (drift_work, cold_work) = (work(current), work(&cold.report));
    println!(
        "drift replan {:?}, {drift_work} slot recomputes; cold rebuild {cold_elapsed:?}, \
         {cold_work} slot recomputes",
        drift.elapsed
    );
    assert!(
        drift_work * 5 <= cold_work,
        "drift replan's {drift_work} slot recomputes not ≥5× fewer than cold rebuild's {cold_work}"
    );
    // The incremental plan must not be worse than the cold plan of the
    // problem it solved (warm starts regularly do slightly better).
    assert!(
        current.total_cost <= cold.report.total_cost * 1.01 + 1e-9,
        "drift plan cost {} vs cold {}",
        current.total_cost,
        cold.report.total_cost
    );
}

/// 5% updates on every base table `views` reference, at catalog statistics.
fn five_percent(catalog: &Catalog, views: &[ViewDef]) -> UpdateModel {
    let mut tables: Vec<TableId> = views.iter().flat_map(|v| v.expr.base_tables()).collect();
    tables.sort_unstable();
    tables.dedup();
    UpdateModel::percentage(tables, 5.0, |t| catalog.table(t).stats.rows)
}

/// A session over `views` at TPC-D sf 0.1 statistics, cold-planned.
fn cold_session(views: &[ViewDef]) -> (Optimizer, Catalog, f64) {
    let mut catalog = tpcd_catalog(0.1).catalog;
    let mut s = Optimizer::new(CostModel::default(), GreedyOptions::default());
    s.set_initial_indices(mvmqo_core::api::pk_indices_for(&catalog, views));
    s.set_update_model(five_percent(&catalog, views));
    for v in views {
        s.add_view(&mut catalog, v);
    }
    let out = s.plan(&mut catalog);
    assert_eq!(out.mode, PlanMode::Cold);
    (s, catalog, out.report.total_cost)
}

/// Adding a fifth view to a planned four-view `many_views` session and
/// replanning warm must not cost more than 1% over the cold plan of the
/// five views (warm starts may land in a better local optimum).
#[test]
fn add_view_replan_on_many_views_is_within_1pct_of_cold() {
    let views = many_views(&tpcd_catalog(0.1), 5);
    let (mut session, mut catalog, _) = cold_session(&views[..4]);
    session.add_view(&mut catalog, &views[4]);
    session.set_initial_indices(mvmqo_core::api::pk_indices_for(&catalog, &views));
    session.set_update_model(five_percent(&catalog, &views));
    let warm = session.plan(&mut catalog);
    assert_eq!(warm.mode, PlanMode::Incremental);

    let (_, _, cold_cost) = cold_session(&views);
    assert!(
        warm.report.total_cost <= cold_cost * 1.01,
        "warm add-view plan cost {} vs cold {cold_cost}",
        warm.report.total_cost
    );
}
