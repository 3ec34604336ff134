//! Property-based tests (proptest) on the core invariants:
//!
//! * incremental maintenance ≡ recomputation for random databases, views,
//!   and update batches (the fundamental correctness claim);
//! * bag-algebra laws the delta rules rely on;
//! * DAG invariants: unification (no two live nodes share a semantic key),
//!   expansion size, topological order;
//! * greedy sanity: chosen benefits positive, final ≤ initial cost.

use mvmqo_core::opt::GreedyOptions;
use mvmqo_integration_tests::{
    generate_deltas, optimize_execute_verify, small_world, update_model_for,
};
use mvmqo_relalg::agg::{AggFunc, AggSpec};
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
use mvmqo_relalg::tuple::{bag_counts, bag_minus, bag_union, Tuple};
use mvmqo_relalg::types::Value;
use proptest::prelude::*;

fn small_tuples() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec(
        proptest::collection::vec((0i64..6).prop_map(Value::Int), 2),
        0..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bag_minus_then_union_restores_counts(a in small_tuples(), b in small_tuples()) {
        // (A ∸ B) ⊎ (A ∩ B) = A  (multiset identity used by delete merges)
        let diff = bag_minus(&a, &b);
        let removed = bag_minus(&a, &diff);
        let restored = bag_union(&diff, &removed);
        prop_assert_eq!(bag_counts(&restored), bag_counts(&a));
    }

    #[test]
    fn bag_union_counts_add(a in small_tuples(), b in small_tuples()) {
        let u = bag_union(&a, &b);
        let ca = bag_counts(&a);
        let cb = bag_counts(&b);
        let cu = bag_counts(&u);
        for (k, v) in &cu {
            let expect = ca.get(k).copied().unwrap_or(0) + cb.get(k).copied().unwrap_or(0);
            prop_assert_eq!(*v, expect);
        }
    }

    #[test]
    fn bag_minus_never_negative(a in small_tuples(), b in small_tuples()) {
        let d = bag_minus(&a, &b);
        let ca = bag_counts(&a);
        for (k, v) in bag_counts(&d) {
            prop_assert!(v <= ca.get(k).copied().unwrap_or(0));
            prop_assert!(v >= 0);
        }
    }
}

proptest! {
    // End-to-end pipeline properties are expensive; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The central theorem: for random data, random update batches, random
    /// view shape (join with optional selection/aggregation), the
    /// incrementally maintained view equals recomputation.
    #[test]
    fn maintenance_equals_recomputation(
        seed in 1u64..10_000,
        percent in 1u32..40,
        cutoff in 1i64..20,
        with_agg in proptest::bool::ANY,
        with_select in proptest::bool::ANY,
    ) {
        let mut world = small_world(30);
        let c = &world.catalog;
        let a_id = c.table(world.a).attr("id");
        let b_aid = c.table(world.b).attr("a_id");
        let b_id = c.table(world.b).attr("id");
        let c_bid = c.table(world.c).attr("b_id");
        let a_x = c.table(world.a).attr("x");
        let c_v = c.table(world.c).attr("v");
        let mut expr = LogicalExpr::Join {
            left: LogicalExpr::join(
                LogicalExpr::scan(world.a),
                LogicalExpr::scan(world.b),
                Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
            ),
            right: LogicalExpr::scan(world.c),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid)),
        }.into();
        if with_select {
            expr = LogicalExpr::select(
                expr,
                Predicate::from_expr(ScalarExpr::col_cmp_lit(a_x, CmpOp::Lt, cutoff)),
            );
        }
        if with_agg {
            let out = world.catalog.fresh_attr();
            expr = LogicalExpr::aggregate(
                expr,
                vec![a_x],
                vec![AggSpec::new(AggFunc::Sum, ScalarExpr::Col(c_v), out)],
            );
        }
        let views = vec![ViewDef::new("prop_view", expr)];
        let deltas = generate_deltas(&world, percent as f64, seed);
        // optimize_execute_verify panics (→ test failure) on any multiset
        // mismatch between maintained and recomputed contents.
        optimize_execute_verify(&mut world, views, &deltas, GreedyOptions::default());
    }

    #[test]
    fn greedy_chosen_benefits_positive_and_cost_monotone(
        seed in 1u64..10_000,
        percent in 1u32..60,
    ) {
        let mut world = small_world(30);
        let c = &world.catalog;
        let a_id = c.table(world.a).attr("id");
        let b_aid = c.table(world.b).attr("a_id");
        let b_id = c.table(world.b).attr("id");
        let c_bid = c.table(world.c).attr("b_id");
        let join = LogicalExpr::Join {
            left: LogicalExpr::join(
                LogicalExpr::scan(world.a),
                LogicalExpr::scan(world.b),
                Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
            ),
            right: LogicalExpr::scan(world.c),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid)),
        };
        let views = vec![
            ViewDef::new("v1", std::sync::Arc::new(join.clone())),
            ViewDef::new("v2", LogicalExpr::select(
                join.into(),
                Predicate::from_expr(ScalarExpr::col_cmp_lit(
                    c.table(world.a).attr("x"), CmpOp::Lt, 7i64)),
            )),
        ];
        let deltas = generate_deltas(&world, percent as f64, seed);
        // audit_incremental: every greedy pick cross-checks the §6.2
        // incremental cost update against a full memo recompute (panics —
        // test failure — on divergence).
        let options = GreedyOptions {
            audit_incremental: true,
            ..Default::default()
        };
        let (report, _) = optimize_execute_verify(
            &mut world, views, &deltas, options);
        prop_assert!(report.total_cost <= report.nogreedy_cost + 1e-6);
        for m in &report.chosen_mats {
            prop_assert!(m.benefit > 0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DAG invariants over random join-chain views: the expanded DAG has
    /// exactly 2^k − 1 SPJ equivalence nodes for a k-relation chain query
    /// with one applied predicate set, a valid topological order, and no
    /// key duplicates (eager unification).
    #[test]
    fn dag_expansion_invariants(k in 2usize..5, dup in proptest::bool::ANY) {
        let mut world = small_world(10);
        let c = &world.catalog;
        let a_id = c.table(world.a).attr("id");
        let b_aid = c.table(world.b).attr("a_id");
        let b_id = c.table(world.b).attr("id");
        let c_bid = c.table(world.c).attr("b_id");
        let tables = [world.a, world.b, world.c];
        let preds = [
            ScalarExpr::col_eq_col(a_id, b_aid),
            ScalarExpr::col_eq_col(b_id, c_bid),
        ];
        let mut expr = LogicalExpr::scan(tables[0]);
        for i in 1..k.min(3) {
            expr = LogicalExpr::join(
                expr,
                LogicalExpr::scan(tables[i]),
                Predicate::from_expr(preds[i - 1].clone()),
            );
        }
        let mut views = vec![ViewDef::new("v", expr.clone())];
        if dup {
            views.push(ViewDef::new("v_dup", expr));
        }
        let mut session = mvmqo_core::Optimizer::new(Default::default(), Default::default());
        for v in &views {
            session.add_view(&mut world.catalog, v);
        }
        let dag = session.dag();
        let k_eff = k.min(3);
        prop_assert_eq!(dag.eq_count(), (1 << k_eff) - 1);
        // Duplicate view shares every node.
        let order = dag.topo_order();
        prop_assert_eq!(order.len(), dag.eq_count());
        // Children precede parents.
        let pos = |e: mvmqo_core::EqId| order.iter().position(|x| *x == e).unwrap();
        for op_id in dag.op_ids() {
            let op = dag.op(op_id);
            for ch in &op.children {
                prop_assert!(pos(*ch) < pos(op.parent));
            }
        }
        if dup {
            prop_assert_eq!(dag.roots()[0].eq, dag.roots()[1].eq);
        }
    }

    /// Update-model invariant: rows_at is piecewise consistent with the
    /// insert/delete batches and never negative.
    #[test]
    fn update_model_state_sequence(percent in 0u32..100, seed in 1u64..1000) {
        let world = small_world(20);
        let deltas = generate_deltas(&world, percent as f64, seed);
        let m = update_model_for(&deltas);
        for t in [world.a, world.b, world.c] {
            let base = world.db.base(t).unwrap().len() as f64;
            let mut expect = base;
            for step in m.steps() {
                // rows_at reports the state *before* this step is applied.
                let at = m.rows_at(t, base, step.id);
                prop_assert!((at - expect).abs() < 1e-9, "at={at} expect={expect}");
                prop_assert!(at >= 0.0);
                if step.table == t {
                    match step.kind {
                        mvmqo_storage::delta::DeltaKind::Insert => expect += step.rows,
                        mvmqo_storage::delta::DeltaKind::Delete => expect -= step.rows,
                    }
                }
            }
            prop_assert!((m.rows_after_all(t, base) - expect.max(0.0)).abs() < 1e-9);
        }
    }
}
