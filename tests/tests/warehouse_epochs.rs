//! Multi-epoch warehouse integration tests: the continuous-maintenance
//! engine run over TPC-D data for several epochs, verifying after *every*
//! epoch that every view is tuple-identical to recomputation, that
//! permanent materializations and indices survive across epochs without
//! being rebuilt, and that drift-triggered re-optimization actually changes
//! the selected materialization set.

use mvmqo_integration_tests::null_group_engine;
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::types::Value;
use mvmqo_storage::delta::DeltaBatch;
use mvmqo_storage::error::StorageError;
use mvmqo_tpcd::schema::Tpcd;
use mvmqo_tpcd::{
    epoch_updates, five_agg_views, five_join_views, generate_database, tpcd_catalog, DriverProfile,
};
use mvmqo_warehouse::{ReoptPolicy, ReoptTrigger, Warehouse, WarehouseError};

const SF: f64 = 0.001;

/// Generator-side TPC-D handles plus a warehouse whose catalog is the
/// *same* construction (deterministic ids).
fn setup(seed: u64) -> (Tpcd, Warehouse) {
    let tpcd = tpcd_catalog(SF);
    let db = generate_database(&tpcd, seed);
    let wh = Warehouse::new(tpcd_catalog(SF).catalog, db);
    (tpcd, wh)
}

fn ingest_epoch(tpcd: &Tpcd, wh: &mut Warehouse, percent: f64, epoch: u64, seed: u64) -> usize {
    let deltas = epoch_updates(
        tpcd,
        wh.database(),
        DriverProfile::Steady { percent },
        epoch,
        seed,
    )
    .unwrap();
    let tables: Vec<TableId> = deltas.tables().collect();
    let mut total = 0;
    for t in tables {
        total += wh.ingest(t, deltas.get(t).unwrap().clone()).unwrap();
    }
    total
}

fn verify_all(wh: &Warehouse) {
    for v in wh.views().to_vec() {
        assert!(
            wh.verify(&v.name).unwrap(),
            "view {} diverged from recomputation at epoch {}",
            v.name,
            wh.epoch()
        );
    }
}

/// The acceptance scenario: ≥3 views, ≥4 distinct update batches with an
/// epoch after each, checking (a) correctness after every epoch, (b)
/// persistence of materializations across epochs, (c) a drift-triggered
/// re-optimization that changes the materialization set.
#[test]
fn multi_epoch_maintenance_with_adaptive_reoptimization() {
    let (tpcd, mut wh) = setup(301);
    let mut wh = {
        wh = wh.with_policy(ReoptPolicy {
            delta_fraction: 0.10,
            // Effectively disable cost-drift so the test exercises delta
            // drift deterministically.
            cost_ratio: 1e12,
        });
        wh
    };

    // Register five shared-subexpression views (including the subsumption
    // pair); each registration re-runs the selection over the whole set.
    let views = five_join_views(&tpcd);
    for v in views {
        wh.register_view(v).unwrap();
    }
    assert_eq!(wh.views().len(), 5);
    assert_eq!(
        wh.replans().len(),
        5,
        "one re-optimization per registration"
    );
    // No updates observed yet, so the initial plan has nothing to maintain
    // and selects no extra materializations or indices.
    let initial_mats = wh.mat_set();

    // Epoch 1: a large batch (12% inserts + 6% deletes ≈ 18% of base rows)
    // exceeds the 10% drift threshold → drift-triggered re-optimization.
    ingest_epoch(&tpcd, &mut wh, 12.0, 0, 77);
    let r1 = wh.run_epoch().unwrap();
    assert!(
        matches!(r1.replanned, Some(ReoptTrigger::DeltaDrift { .. })),
        "expected delta-drift re-optimization, got {:?}",
        r1.replanned
    );
    let drifted_mats = wh.mat_set();
    assert_ne!(
        initial_mats, drifted_mats,
        "drift-triggered re-optimization must change the selected set"
    );
    assert!(
        !drifted_mats.is_empty(),
        "a ~12% update workload over shared views should justify extra \
         materializations/indices"
    );
    assert!(
        r1.total_builds > 0,
        "first epoch under a plan builds results"
    );
    verify_all(&wh);

    // Epochs 2–4: small distinct batches below the drift threshold. The
    // plan (and its permanent materializations, indices, and hidden
    // aggregate state) must survive with no setup rebuilds.
    let mats_before = wh.current_report().unwrap().chosen_mats.len();
    for (i, pct) in [2.0, 1.5, 1.5].into_iter().enumerate() {
        let ingested = ingest_epoch(&tpcd, &mut wh, pct, (i + 1) as u64, 77);
        assert!(ingested > 0, "epoch batch {i} must be non-empty");
        let r = wh.run_epoch().unwrap();
        assert!(
            r.replanned.is_none(),
            "no re-optimization expected at epoch {}, got {:?}",
            r.epoch,
            r.replanned
        );
        assert_eq!(
            r.setup_builds, 0,
            "epoch {} rebuilt persisted materializations",
            r.epoch
        );
        assert!(
            (r.setup_seconds - 0.0).abs() < 1e-12,
            "epoch {} paid setup cost {:.4}s despite persisted state",
            r.epoch,
            r.setup_seconds
        );
        verify_all(&wh);
    }
    assert_eq!(
        wh.current_report().unwrap().chosen_mats.len(),
        mats_before,
        "plan must be unchanged across non-drifting epochs"
    );
    assert_eq!(wh.epoch(), 4);
    assert_eq!(wh.history().len(), 4);
}

/// N consecutive epochs over aggregate views: the hidden per-group
/// accumulator state must survive across epochs and keep every view
/// tuple-identical to recomputation.
#[test]
fn aggregate_views_stay_exact_across_epochs() {
    let mut tpcd = tpcd_catalog(SF);
    // Aggregate views allocate output attributes from this catalog, which
    // is then donated to the engine so ids stay consistent.
    let views = five_agg_views(&mut tpcd);
    let db = generate_database(&tpcd, 404);
    let t = tpcd.t;
    let sf = tpcd.sf;
    let mut wh = Warehouse::new(tpcd.catalog, db);
    let gen_tpcd = Tpcd {
        catalog: tpcd_catalog(SF).catalog,
        t,
        sf,
    };
    for v in views {
        wh.register_view(v).unwrap();
    }
    for epoch in 0..4u64 {
        ingest_epoch(&gen_tpcd, &mut wh, 4.0, epoch, 19);
        wh.run_epoch().unwrap();
        verify_all(&wh);
    }
}

/// Registering and dropping views mid-stream re-optimizes the remaining
/// set and keeps serving correct answers.
#[test]
fn view_churn_reoptimizes_and_stays_correct() {
    let (tpcd, wh) = setup(512);
    let mut wh = wh.with_policy(ReoptPolicy {
        delta_fraction: 0.25,
        cost_ratio: 1e12,
    });
    let views = five_join_views(&tpcd);
    let names: Vec<String> = views.iter().map(|v| v.name.clone()).collect();
    for v in views {
        wh.register_view(v).unwrap();
    }
    ingest_epoch(&tpcd, &mut wh, 5.0, 0, 3);
    wh.run_epoch().unwrap();
    verify_all(&wh);

    wh.drop_view(&names[0]).unwrap();
    assert_eq!(wh.views().len(), 4);
    assert!(matches!(
        wh.replans().last().map(|r| r.trigger),
        Some(ReoptTrigger::ViewSetChanged)
    ));
    // A view-set change on a warmed-up session replans incrementally.
    assert_eq!(
        wh.replans().last().unwrap().mode,
        mvmqo_warehouse::PlanMode::Incremental
    );
    ingest_epoch(&tpcd, &mut wh, 5.0, 1, 3);
    let r = wh.run_epoch().unwrap();
    // The post-drop plan was made while deltas from epoch 0 were already
    // applied; the next epoch runs under it without further replanning
    // (batch below drift threshold).
    assert!(r.replanned.is_none());
    verify_all(&wh);

    assert!(matches!(
        wh.query(&names[0]),
        Err(WarehouseError::UnknownView(_))
    ));
    let q = wh.query(&names[1]).unwrap();
    assert!(q.from_materialization);
    assert!(!q.stale);
}

/// Bad input must surface typed errors and leave the engine fully usable —
/// the satellite requirement that replaced the storage/tpcd panics.
#[test]
fn bad_batches_do_not_abort_the_engine() {
    let (tpcd, mut wh) = setup(99);
    for v in five_join_views(&tpcd).into_iter().take(3) {
        wh.register_view(v).unwrap();
    }

    // Unknown table: typed error.
    let bogus = TableId(77);
    assert!(matches!(
        wh.ingest(bogus, DeltaBatch::new(vec![vec![]], vec![])),
        Err(WarehouseError::Storage(StorageError::TableNotLoaded(t))) if t == bogus
    ));

    // Arity mismatch: rejected whole, nothing queued.
    let bad = DeltaBatch::new(vec![vec![mvmqo_relalg::types::Value::Int(1)]], vec![]);
    assert!(matches!(
        wh.ingest(tpcd.t.lineitem, bad),
        Err(WarehouseError::Storage(StorageError::ArityMismatch { .. }))
    ));
    assert_eq!(wh.pending_tuples(), 0);

    // Duplicate and invalid view registrations: typed errors.
    let dup = five_join_views(&tpcd).remove(0);
    assert!(matches!(
        wh.register_view(dup),
        Err(WarehouseError::DuplicateView(_))
    ));
    assert!(matches!(
        wh.drop_view("no_such_view"),
        Err(WarehouseError::UnknownView(_))
    ));

    // The engine still ingests and refreshes normally afterwards.
    ingest_epoch(&tpcd, &mut wh, 8.0, 0, 5);
    wh.run_epoch().unwrap();
    verify_all(&wh);
}

/// An aggregate's input must be well-typed, and SUM and AVG need a
/// numeric one: a view summing a string column, or aggregating arithmetic
/// on one, fails registration with a typed error and leaves the view set
/// as it was.
#[test]
fn sum_over_a_string_column_fails_registration() {
    use mvmqo_relalg::agg::{AggFunc, AggSpec};
    use mvmqo_relalg::expr::{ArithOp, ScalarExpr};
    use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
    let (tpcd, mut wh) = setup(5);
    wh.register_view(five_join_views(&tpcd).remove(0)).unwrap();
    let names =
        |wh: &Warehouse| -> Vec<String> { wh.views().iter().map(|v| v.name.clone()).collect() };
    let before = names(&wh);
    let nation = wh.catalog().table(tpcd.t.nation);
    let (key, name) = (nation.attr("n_regionkey"), nation.attr("n_name"));
    let doubled = ScalarExpr::arith(ArithOp::Mul, ScalarExpr::col(name), ScalarExpr::lit(2i64));
    for (func, input) in [
        (AggFunc::Sum, ScalarExpr::col(name)),
        (AggFunc::Avg, ScalarExpr::col(name)),
        (AggFunc::Min, doubled),
    ] {
        let out = wh.fresh_attr();
        let view = ViewDef::new(
            format!("bad_{func}"),
            LogicalExpr::aggregate(
                LogicalExpr::scan(tpcd.t.nation),
                vec![key],
                vec![AggSpec::new(func, input, out)],
            ),
        );
        let err = wh.register_view(view).unwrap_err();
        assert!(matches!(err, WarehouseError::InvalidView { .. }), "{err}");
        assert_eq!(names(&wh), before);
    }
    // MIN over the string column itself is fine.
    let out = wh.fresh_attr();
    let min = AggSpec::new(AggFunc::Min, ScalarExpr::col(name), out);
    let view = LogicalExpr::aggregate(LogicalExpr::scan(tpcd.t.nation), vec![key], vec![min]);
    wh.register_view(ViewDef::new("min_name", view)).unwrap();
    assert!(wh.verify("min_name").unwrap());
}

/// Deletes beyond the available multiplicity (phantom deletes, or the
/// same row deleted by two queued batches) must be rejected at ingest:
/// base application would saturate while incremental aggregate state
/// subtracts unconditionally, silently corrupting maintained views.
#[test]
fn phantom_and_duplicate_deletes_are_rejected_at_ingest() {
    let (tpcd, mut wh) = setup(777);
    for v in five_join_views(&tpcd).into_iter().take(3) {
        wh.register_view(v).unwrap();
    }
    let li = tpcd.t.lineitem;
    let existing = wh.database().base(li).unwrap().rows()[0].clone();

    // A row that was never stored.
    let mut phantom = existing.clone();
    phantom[0] = mvmqo_relalg::types::Value::Int(-1);
    assert!(matches!(
        wh.ingest(li, DeltaBatch::new(vec![], vec![phantom])),
        Err(WarehouseError::Storage(StorageError::PhantomDelete { table })) if table == li
    ));

    // The same stored row deleted by two separate batches.
    wh.ingest(li, DeltaBatch::new(vec![], vec![existing.clone()]))
        .unwrap();
    let before = wh.pending_tuples();
    assert!(matches!(
        wh.ingest(li, DeltaBatch::new(vec![], vec![existing.clone()])),
        Err(WarehouseError::Storage(StorageError::PhantomDelete { .. }))
    ));
    assert_eq!(wh.pending_tuples(), before, "rejected batch must not queue");

    // Deleting a row that a *queued insert* provides is legitimate
    // (inserts land before deletes within the epoch).
    let mut fresh = existing.clone();
    fresh[0] = mvmqo_relalg::types::Value::Int(10_000_000);
    wh.ingest(li, DeltaBatch::new(vec![fresh.clone()], vec![]))
        .unwrap();
    wh.ingest(li, DeltaBatch::new(vec![], vec![fresh])).unwrap();

    wh.run_epoch().unwrap();
    verify_all(&wh);
}

/// `query` must serve the same column order whether it recomputes or
/// reads the maintained materialization.
#[test]
fn query_column_order_is_stable_across_provenance() {
    let (tpcd, mut wh) = setup(888);
    let v = five_join_views(&tpcd).remove(0);
    let name = v.name.clone();
    wh.register_view(v).unwrap();

    let recomputed = wh.query(&name).unwrap();
    assert!(!recomputed.from_materialization);

    wh.run_epoch().unwrap();
    let materialized = wh.query(&name).unwrap();
    assert!(materialized.from_materialization);

    // No deltas were applied, so contents are identical — including order
    // of columns within every tuple.
    let mut a = recomputed.rows;
    let mut b = materialized.rows;
    a.sort();
    b.sort();
    assert_eq!(a, b, "column order/contents differ between provenances");
}

/// Observed update rates must decay for tables that stop receiving
/// updates, so re-planning doesn't forever cost maintenance steps for
/// updates that no longer arrive.
#[test]
fn observed_rates_decay_for_idle_tables() {
    let (tpcd, mut wh) = setup(55);
    wh.register_view(five_join_views(&tpcd).remove(0)).unwrap();

    // One epoch touching every table, then fact-only epochs.
    ingest_epoch(&tpcd, &mut wh, 10.0, 0, 77);
    wh.run_epoch().unwrap();
    let cust = tpcd.t.customer;
    let initial = wh.observed_rates().get(&cust).copied().unwrap();
    assert!(initial.0 > 0.0);

    for epoch in 1..=3u64 {
        let deltas = epoch_updates(
            &tpcd,
            wh.database(),
            DriverProfile::FactOnly { percent: 4.0 },
            epoch,
            77,
        )
        .unwrap();
        let tables: Vec<TableId> = deltas.tables().collect();
        for t in tables {
            wh.ingest(t, deltas.get(t).unwrap().clone()).unwrap();
        }
        wh.run_epoch().unwrap();
    }
    match wh.observed_rates().get(&cust) {
        None => {} // fully decayed out
        Some(rate) => assert!(
            rate.0 < initial.0 / 4.0,
            "idle table's observed rate must decay: {initial:?} → {rate:?}"
        ),
    }
}

/// Queries flag staleness between ingest and epoch, and clear it after.
#[test]
fn staleness_is_tracked_across_ingest_and_epoch() {
    let (tpcd, mut wh) = setup(640);
    let v = five_join_views(&tpcd).remove(2);
    let name = v.name.clone();
    wh.register_view(v).unwrap();

    // Before any epoch: served by recomputation, not stale.
    let q = wh.query(&name).unwrap();
    assert!(!q.from_materialization);
    assert!(!q.stale);

    ingest_epoch(&tpcd, &mut wh, 6.0, 0, 11);
    let q = wh.query(&name).unwrap();
    assert!(q.stale, "pending deltas must flag the answer stale");

    wh.run_epoch().unwrap();
    let q = wh.query(&name).unwrap();
    assert!(q.from_materialization);
    assert!(!q.stale);
    assert!(!q.rows.is_empty());
}

/// A committed epoch writes `lineitem` in place: its column payloads and
/// its indices are the same allocations before and after, so no column or
/// index was copied on write and none was replaced at commit. The
/// addresses are captured as integers, so the test itself holds no handle
/// that could force a copy.
#[test]
fn committed_epoch_writes_tables_in_place() {
    let (tpcd, mut wh) = setup(77);
    for v in five_join_views(&tpcd) {
        wh.register_view(v).unwrap();
    }
    ingest_epoch(&tpcd, &mut wh, 2.0, 0, 5);
    wh.run_epoch().unwrap();

    let li = tpcd.t.lineitem;
    let addresses = |wh: &Warehouse| -> (Vec<usize>, Vec<usize>) {
        let table = wh.database().base(li).unwrap();
        let batch = table.batch();
        let columns = (0..batch.schema().len())
            .map(|c| std::ptr::from_ref(batch.column(c)) as usize)
            .collect();
        let mut attrs: Vec<_> = table.indexed_attrs().collect();
        attrs.sort();
        let indices = attrs
            .into_iter()
            .map(|a| std::ptr::from_ref(table.index_on(a).unwrap()) as usize)
            .collect();
        (columns, indices)
    };
    let (columns, indices) = addresses(&wh);
    assert!(!indices.is_empty(), "lineitem has its primary-key index");

    ingest_epoch(&tpcd, &mut wh, 2.0, 1, 5);
    let batch = wh.pending_for(li).expect("lineitem has pending deltas");
    assert!(batch.inserts.num_rows() > 0 && batch.deletes.num_rows() > 0);
    wh.run_epoch().unwrap();
    verify_all(&wh);
    let (columns_after, indices_after) = addresses(&wh);
    assert_eq!(columns_after, columns, "a lineitem column was copied");
    assert_eq!(indices_after, indices, "a lineitem index was copied");
}

/// A maintained aggregate keeps a group whose aggregated inputs are all
/// NULL for as long as the group has input rows (the tuple count of the
/// paper's footnote 1), as recomputation does.
#[test]
fn a_group_with_only_null_inputs_survives_maintenance() {
    let (mut wh, t) = null_group_engine();
    let rows = |wh: &Warehouse| {
        let mut rows = wh.query("per_k").unwrap().rows;
        rows.sort();
        rows
    };
    let null_group = vec![Value::Int(1), Value::Null];
    assert_eq!(
        rows(&wh),
        [null_group.clone(), vec![Value::Int(2), Value::Int(12)]]
    );
    let five = vec![Value::Int(5), Value::Int(2), Value::Int(1)];
    wh.ingest(t, DeltaBatch::new(vec![five], vec![])).unwrap();
    wh.run_epoch().unwrap();
    assert_eq!(rows(&wh), [null_group, vec![Value::Int(2), Value::Int(13)]]);
    assert!(wh.verify("per_k").unwrap());
    // The group goes with its last input row.
    let gone = [1, 2].map(|id| vec![Value::Int(id), Value::Int(1), Value::Null]);
    wh.ingest(t, DeltaBatch::new(vec![], gone.to_vec()))
        .unwrap();
    wh.run_epoch().unwrap();
    assert_eq!(rows(&wh), [vec![Value::Int(2), Value::Int(13)]]);
    assert!(wh.verify("per_k").unwrap());
}

/// A pending side that the current plan was made without forces a replan
/// before it runs: the planner drops the merges of a step it planned with
/// zero rows, so deletes after an insert-only epoch (or inserts after a
/// delete-only one) would reach the base table but not the view. Drift
/// replans are off here, so nothing else covers for the stale plan.
#[test]
fn a_side_planned_as_empty_replans_before_it_runs() {
    use mvmqo_relalg::catalog::{Catalog, ColumnSpec};
    use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
    use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
    use mvmqo_relalg::types::DataType;
    use mvmqo_storage::{Database, StoredTable};
    let mut catalog = Catalog::new();
    let t = catalog.add_table(
        "t",
        vec![
            ColumnSpec::key("id", DataType::Int),
            ColumnSpec::with_distinct("k", DataType::Int, 13.0),
            ColumnSpec::with_distinct("x", DataType::Int, 2.0),
        ],
        5000.0,
        &["id"],
    );
    let row = |id: i64| vec![Value::Int(id), Value::Int(id % 13), Value::Int(id % 2)];
    let mut db = Database::new();
    let schema = catalog.table(t).schema.clone();
    db.put_base(
        t,
        StoredTable::with_rows(schema, (0..5000).map(row).collect()),
    );
    let (id, x) = (catalog.table(t).attr("id"), catalog.table(t).attr("x"));
    let mut wh = Warehouse::new(catalog, db).with_policy(ReoptPolicy {
        delta_fraction: f64::INFINITY,
        cost_ratio: f64::INFINITY,
    });
    let odd = LogicalExpr::project(
        LogicalExpr::select(
            LogicalExpr::scan(t),
            Predicate::from_expr(ScalarExpr::col_cmp_lit(x, CmpOp::Eq, 1i64)),
        ),
        vec![id],
    );
    wh.register_view(ViewDef::new("odd", odd)).unwrap();
    let mut epoch = |batch: DeltaBatch| {
        wh.ingest(t, batch).unwrap();
        let report = wh.run_epoch().unwrap();
        assert!(wh.verify("odd").unwrap(), "epoch {}", report.epoch);
        report.replanned
    };
    let shape = Some(ReoptTrigger::UpdateShapeChanged);
    assert_eq!(epoch(DeltaBatch::new(vec![row(5001)], vec![])), shape);
    assert_eq!(epoch(DeltaBatch::new(vec![], vec![row(3)])), shape);
    assert_eq!(epoch(DeltaBatch::new(vec![row(5003)], vec![])), shape);
    // The same shape again runs under the plan it already has.
    assert_eq!(epoch(DeltaBatch::new(vec![row(5005)], vec![])), None);
}
