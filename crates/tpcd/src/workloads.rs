//! Benchmark view workloads — one constructor per experiment (§7.2).
//!
//! The paper identifies its workloads by shape: a stand-alone join of four
//! relations (Figure 3), five-view sets with and without aggregation sharing
//! subexpressions (Figure 4), and ten views of three to four relations each
//! (Figure 5). These constructors realize those shapes over the TPC-D
//! schema, with explicit sharing (common join subexpressions), range
//! predicates that exercise subsumption derivations, and aggregate pairs
//! over a common input that exercise the union-grouping roll-up.

use crate::schema::Tpcd;
use mvmqo_relalg::agg::{AggFunc, AggSpec};
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
use std::sync::Arc;

fn eq(a: mvmqo_relalg::schema::AttrId, b: mvmqo_relalg::schema::AttrId) -> ScalarExpr {
    ScalarExpr::col_eq_col(a, b)
}

fn join(l: Arc<LogicalExpr>, r: Arc<LogicalExpr>, conjuncts: Vec<ScalarExpr>) -> Arc<LogicalExpr> {
    LogicalExpr::join(l, r, Predicate::from_conjuncts(conjuncts))
}

fn select(input: Arc<LogicalExpr>, conjuncts: Vec<ScalarExpr>) -> Arc<LogicalExpr> {
    LogicalExpr::select(input, Predicate::from_conjuncts(conjuncts))
}

/// `lineitem ⋈ orders` with the FK conjunct.
fn l_o(t: &Tpcd) -> Arc<LogicalExpr> {
    join(
        LogicalExpr::scan(t.t.lineitem),
        LogicalExpr::scan(t.t.orders),
        vec![eq(
            t.attr(t.t.lineitem, "l_orderkey"),
            t.attr(t.t.orders, "o_orderkey"),
        )],
    )
}

fn l_o_c(t: &Tpcd) -> Arc<LogicalExpr> {
    join(
        l_o(t),
        LogicalExpr::scan(t.t.customer),
        vec![eq(
            t.attr(t.t.orders, "o_custkey"),
            t.attr(t.t.customer, "c_custkey"),
        )],
    )
}

fn l_o_c_s(t: &Tpcd) -> Arc<LogicalExpr> {
    join(
        l_o_c(t),
        LogicalExpr::scan(t.t.supplier),
        vec![eq(
            t.attr(t.t.lineitem, "l_suppkey"),
            t.attr(t.t.supplier, "s_suppkey"),
        )],
    )
}

fn date_pred(t: &Tpcd, cutoff: i32) -> ScalarExpr {
    ScalarExpr::col_cmp_lit(
        t.attr(t.t.orders, "o_orderdate"),
        CmpOp::Lt,
        mvmqo_relalg::types::Value::Date(cutoff),
    )
}

/// Figure 3(a): a stand-alone view, join of four relations, no aggregation.
/// `V = σ_{o_orderdate < 1200}(lineitem ⋈ orders ⋈ customer ⋈ supplier)`.
pub fn single_join_view(t: &Tpcd) -> Vec<ViewDef> {
    vec![ViewDef::new(
        "fig3_join4",
        select(l_o_c_s(t), vec![date_pred(t, 400)]),
    )]
}

/// Figure 3(b): aggregation on the same join — revenue per customer nation.
pub fn single_agg_view(t: &mut Tpcd) -> Vec<ViewDef> {
    let input = select(l_o_c_s(t), vec![date_pred(t, 400)]);
    let nation = t.attr(t.t.customer, "c_nationkey");
    let price = t.attr(t.t.lineitem, "l_extendedprice");
    let sum_out = t.catalog.fresh_attr();
    let cnt_out = t.catalog.fresh_attr();
    vec![ViewDef::new(
        "fig3_agg4",
        LogicalExpr::aggregate(
            input,
            vec![nation],
            vec![
                AggSpec::new(AggFunc::Sum, ScalarExpr::Col(price), sum_out),
                AggSpec::new(AggFunc::Count, ScalarExpr::Col(price), cnt_out),
            ],
        ),
    )]
}

/// Figure 4(a): five views of the same class, without aggregation, with
/// heavy sharing (`lineitem ⋈ orders [⋈ customer]` recurs) and a range pair
/// (`o_orderdate < 600` ⊑ `< 1200`) that exercises subsumption.
pub fn five_join_views(t: &Tpcd) -> Vec<ViewDef> {
    let v1 = ViewDef::new("fig4_loc", select(l_o_c(t), vec![date_pred(t, 400)]));
    let v2 = ViewDef::new(
        "fig4_locn",
        select(
            join(
                l_o_c(t),
                LogicalExpr::scan(t.t.nation),
                vec![eq(
                    t.attr(t.t.customer, "c_nationkey"),
                    t.attr(t.t.nation, "n_nationkey"),
                )],
            ),
            vec![date_pred(t, 400)],
        ),
    );
    let v3 = ViewDef::new("fig4_loc_narrow", select(l_o_c(t), vec![date_pred(t, 200)]));
    let v4 = ViewDef::new(
        "fig4_pps",
        select(
            join(
                join(
                    LogicalExpr::scan(t.t.part),
                    LogicalExpr::scan(t.t.partsupp),
                    vec![eq(
                        t.attr(t.t.part, "p_partkey"),
                        t.attr(t.t.partsupp, "ps_partkey"),
                    )],
                ),
                LogicalExpr::scan(t.t.supplier),
                vec![eq(
                    t.attr(t.t.partsupp, "ps_suppkey"),
                    t.attr(t.t.supplier, "s_suppkey"),
                )],
            ),
            vec![ScalarExpr::col_cmp_lit(
                t.attr(t.t.part, "p_size"),
                CmpOp::Lt,
                10i64,
            )],
        ),
    );
    let v5 = ViewDef::new(
        "fig4_lo_pri",
        select(
            l_o(t),
            vec![
                date_pred(t, 400),
                ScalarExpr::col_cmp_lit(t.attr(t.t.orders, "o_orderpriority"), CmpOp::Eq, 1i64),
            ],
        ),
    );
    vec![v1, v2, v3, v4, v5]
}

/// Figure 4(b): five views with aggregation. The first two group the *same*
/// input by different attributes, exercising the introduced union-grouping
/// node of §4.2.
pub fn five_agg_views(t: &mut Tpcd) -> Vec<ViewDef> {
    let price = t.attr(t.t.lineitem, "l_extendedprice");
    let qty = t.attr(t.t.lineitem, "l_quantity");
    let nation = t.attr(t.t.customer, "c_nationkey");
    let priority = t.attr(t.t.orders, "o_orderpriority");
    let segment = t.attr(t.t.customer, "c_mktsegment");
    let brand = t.attr(t.t.part, "p_brand");
    let supplycost = t.attr(t.t.partsupp, "ps_supplycost");
    let status = t.attr(t.t.orders, "o_orderstatus");
    let shared_input = select(l_o_c(t), vec![date_pred(t, 400)]);

    let mk = |catalog: &mut mvmqo_relalg::catalog::Catalog,
              name: &str,
              input: Arc<LogicalExpr>,
              group: Vec<mvmqo_relalg::schema::AttrId>,
              func: AggFunc,
              arg: mvmqo_relalg::schema::AttrId| {
        let out = catalog.fresh_attr();
        ViewDef::new(
            name,
            LogicalExpr::aggregate(
                input,
                group,
                vec![AggSpec::new(func, ScalarExpr::Col(arg), out)],
            ),
        )
    };

    let v1 = mk(
        &mut t.catalog,
        "fig4b_by_nation",
        shared_input.clone(),
        vec![nation],
        AggFunc::Sum,
        price,
    );
    let v2 = mk(
        &mut t.catalog,
        "fig4b_by_priority",
        shared_input.clone(),
        vec![priority],
        AggFunc::Sum,
        price,
    );
    let v3 = mk(
        &mut t.catalog,
        "fig4b_by_segment",
        shared_input,
        vec![segment],
        AggFunc::Count,
        qty,
    );
    let lo_input = l_o(t);
    let v4 = mk(
        &mut t.catalog,
        "fig4b_lo_status",
        lo_input,
        vec![status],
        AggFunc::Sum,
        price,
    );
    let pps = join(
        LogicalExpr::scan(t.t.part),
        LogicalExpr::scan(t.t.partsupp),
        vec![eq(
            t.attr(t.t.part, "p_partkey"),
            t.attr(t.t.partsupp, "ps_partkey"),
        )],
    );
    let v5 = mk(
        &mut t.catalog,
        "fig4b_pps_brand",
        pps,
        vec![brand],
        AggFunc::Sum,
        supplycost,
    );
    vec![v1, v2, v3, v4, v5]
}

/// Figure 5: ten views, each a join of three to four TPC-D relations, with
/// selections; several share `lineitem ⋈ orders`, `part ⋈ partsupp`, and a
/// subsumable date range.
pub fn ten_views(t: &Tpcd) -> Vec<ViewDef> {
    let li = t.t.lineitem;
    let or = t.t.orders;
    let cu = t.t.customer;
    let su = t.t.supplier;
    let pa = t.t.part;
    let ps = t.t.partsupp;
    let na = t.t.nation;
    let re = t.t.region;

    let p_ps = || {
        join(
            LogicalExpr::scan(pa),
            LogicalExpr::scan(ps),
            vec![eq(t.attr(pa, "p_partkey"), t.attr(ps, "ps_partkey"))],
        )
    };

    let mut views = vec![ViewDef::new(
        "t10_loc",
        select(l_o_c(t), vec![date_pred(t, 400)]),
    )];
    // 2. σ_{date<1500}(l ⋈ o ⋈ c ⋈ n)
    views.push(ViewDef::new(
        "t10_locn",
        select(
            join(
                l_o_c(t),
                LogicalExpr::scan(na),
                vec![eq(t.attr(cu, "c_nationkey"), t.attr(na, "n_nationkey"))],
            ),
            vec![date_pred(t, 400)],
        ),
    ));
    // 3. σ_{l_shipdate<1000}(l ⋈ o ⋈ s)
    views.push(ViewDef::new(
        "t10_los",
        select(
            join(
                l_o(t),
                LogicalExpr::scan(su),
                vec![eq(t.attr(li, "l_suppkey"), t.attr(su, "s_suppkey"))],
            ),
            vec![ScalarExpr::col_cmp_lit(
                t.attr(li, "l_shipdate"),
                CmpOp::Lt,
                mvmqo_relalg::types::Value::Date(300),
            )],
        ),
    ));
    // 4. σ_{p_size<25}(l ⋈ p ⋈ s)
    views.push(ViewDef::new(
        "t10_lps",
        select(
            join(
                join(
                    LogicalExpr::scan(li),
                    LogicalExpr::scan(pa),
                    vec![eq(t.attr(li, "l_partkey"), t.attr(pa, "p_partkey"))],
                ),
                LogicalExpr::scan(su),
                vec![eq(t.attr(li, "l_suppkey"), t.attr(su, "s_suppkey"))],
            ),
            vec![ScalarExpr::col_cmp_lit(
                t.attr(pa, "p_size"),
                CmpOp::Lt,
                10i64,
            )],
        ),
    ));
    // 5. σ_{p_size<25}(p ⋈ ps ⋈ s)
    views.push(ViewDef::new(
        "t10_pps",
        select(
            join(
                p_ps(),
                LogicalExpr::scan(su),
                vec![eq(t.attr(ps, "ps_suppkey"), t.attr(su, "s_suppkey"))],
            ),
            vec![ScalarExpr::col_cmp_lit(
                t.attr(pa, "p_size"),
                CmpOp::Lt,
                10i64,
            )],
        ),
    ));
    // 6. ps ⋈ s ⋈ n
    views.push(ViewDef::new(
        "t10_pssn",
        join(
            join(
                LogicalExpr::scan(ps),
                LogicalExpr::scan(su),
                vec![eq(t.attr(ps, "ps_suppkey"), t.attr(su, "s_suppkey"))],
            ),
            LogicalExpr::scan(na),
            vec![eq(t.attr(su, "s_nationkey"), t.attr(na, "n_nationkey"))],
        ),
    ));
    // 7. σ_{c_mktsegment=2}(o ⋈ c ⋈ n)
    views.push(ViewDef::new(
        "t10_ocn",
        select(
            join(
                join(
                    LogicalExpr::scan(or),
                    LogicalExpr::scan(cu),
                    vec![eq(t.attr(or, "o_custkey"), t.attr(cu, "c_custkey"))],
                ),
                LogicalExpr::scan(na),
                vec![eq(t.attr(cu, "c_nationkey"), t.attr(na, "n_nationkey"))],
            ),
            vec![ScalarExpr::col_cmp_lit(
                t.attr(cu, "c_mktsegment"),
                CmpOp::Eq,
                2i64,
            )],
        ),
    ));
    // 8. σ_{date<750}(l ⋈ o ⋈ c) — range-subsumed by view 1.
    views.push(ViewDef::new(
        "t10_loc_narrow",
        select(l_o_c(t), vec![date_pred(t, 200)]),
    ));
    // 9. σ_{p_size<10}(l ⋈ p ⋈ ps) — lineitem and partsupp both reference
    // part.
    views.push(ViewDef::new(
        "t10_lpps",
        select(
            join(
                join(
                    LogicalExpr::scan(li),
                    LogicalExpr::scan(pa),
                    vec![eq(t.attr(li, "l_partkey"), t.attr(pa, "p_partkey"))],
                ),
                LogicalExpr::scan(ps),
                vec![eq(t.attr(pa, "p_partkey"), t.attr(ps, "ps_partkey"))],
            ),
            vec![ScalarExpr::col_cmp_lit(
                t.attr(pa, "p_size"),
                CmpOp::Lt,
                10i64,
            )],
        ),
    ));
    // 10. s ⋈ n ⋈ r
    views.push(ViewDef::new(
        "t10_snr",
        join(
            join(
                LogicalExpr::scan(su),
                LogicalExpr::scan(na),
                vec![eq(t.attr(su, "s_nationkey"), t.attr(na, "n_nationkey"))],
            ),
            LogicalExpr::scan(re),
            vec![eq(t.attr(na, "n_regionkey"), t.attr(re, "r_regionkey"))],
        ),
    ));
    views
}

/// Scaling workload for the optimization-time benchmark: `n` distinct views
/// drawn from parameterized families over the TPC-D schema (the §7.5
/// axis — optimization time as the view set grows).
///
/// Each family shares a join core across its members (`lineitem ⋈ orders
/// [⋈ …]`, `part ⋈ partsupp ⋈ supplier`, …) while varying a selection
/// constant per member, so a growing set exercises exactly what the
/// re-entrant optimizer must be fast at: heavy node sharing, long
/// subsumption chains of range predicates, and a candidate space that
/// grows with every added view. Views are deterministic in `n`: the first
/// `k` views of `many_views(t, n)` equal `many_views(t, k)`, which lets
/// the benchmark add "one more view" to a prefix.
pub fn many_views(t: &Tpcd, n: usize) -> Vec<ViewDef> {
    let li = t.t.lineitem;
    let or = t.t.orders;
    let cu = t.t.customer;
    let su = t.t.supplier;
    let pa = t.t.part;
    let ps = t.t.partsupp;
    let na = t.t.nation;

    let mut views = Vec::with_capacity(n);
    for i in 0..n {
        let round = (i / 5) as i64;
        let v = match i % 5 {
            // Family 0: σ_{o_orderdate < c}(l ⋈ o ⋈ c) — range chain over
            // the shared 3-way core (subsumption derivations between
            // every pair of cutoffs).
            0 => ViewDef::new(
                format!("mv{i}_loc"),
                select(l_o_c(t), vec![date_pred(t, 100 + 60 * round as i32)]),
            ),
            // Family 1: σ_{l_shipdate < c}(l ⋈ o ⋈ c ⋈ s) — four relations
            // (the Figure-5 shape), sharing the l⋈o⋈c core with family 0.
            1 => ViewDef::new(
                format!("mv{i}_locs"),
                select(
                    join(
                        l_o_c(t),
                        LogicalExpr::scan(su),
                        vec![eq(t.attr(li, "l_suppkey"), t.attr(su, "s_suppkey"))],
                    ),
                    vec![ScalarExpr::col_cmp_lit(
                        t.attr(li, "l_shipdate"),
                        CmpOp::Lt,
                        mvmqo_relalg::types::Value::Date(120 + 60 * round as i32),
                    )],
                ),
            ),
            // Family 2: σ_{p_size < c}(p ⋈ ps ⋈ s).
            2 => ViewDef::new(
                format!("mv{i}_pps"),
                select(
                    join(
                        join(
                            LogicalExpr::scan(pa),
                            LogicalExpr::scan(ps),
                            vec![eq(t.attr(pa, "p_partkey"), t.attr(ps, "ps_partkey"))],
                        ),
                        LogicalExpr::scan(su),
                        vec![eq(t.attr(ps, "ps_suppkey"), t.attr(su, "s_suppkey"))],
                    ),
                    vec![ScalarExpr::col_cmp_lit(
                        t.attr(pa, "p_size"),
                        CmpOp::Lt,
                        5 + 3 * round,
                    )],
                ),
            ),
            // Family 3: σ_{c_mktsegment = k}(o ⋈ c ⋈ n ⋈ r) — four
            // relations with point predicates (no subsumption chain,
            // distinct nodes per member).
            3 => ViewDef::new(
                format!("mv{i}_ocnr"),
                select(
                    join(
                        join(
                            join(
                                LogicalExpr::scan(or),
                                LogicalExpr::scan(cu),
                                vec![eq(t.attr(or, "o_custkey"), t.attr(cu, "c_custkey"))],
                            ),
                            LogicalExpr::scan(na),
                            vec![eq(t.attr(cu, "c_nationkey"), t.attr(na, "n_nationkey"))],
                        ),
                        LogicalExpr::scan(t.t.region),
                        vec![eq(
                            t.attr(na, "n_regionkey"),
                            t.attr(t.t.region, "r_regionkey"),
                        )],
                    ),
                    vec![ScalarExpr::col_cmp_lit(
                        t.attr(cu, "c_mktsegment"),
                        CmpOp::Eq,
                        round % 5,
                    )],
                ),
            ),
            // Family 4: σ_{o_orderpriority = k, o_orderdate < c}(l ⋈ o) —
            // two-conjunct selections over the most-shared core.
            _ => ViewDef::new(
                format!("mv{i}_lo"),
                select(
                    l_o(t),
                    vec![
                        date_pred(t, 150 + 60 * round as i32),
                        ScalarExpr::col_cmp_lit(
                            t.attr(or, "o_orderpriority"),
                            CmpOp::Eq,
                            round % 5,
                        ),
                    ],
                ),
            ),
        };
        views.push(v);
    }
    views
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::tpcd_catalog;
    use mvmqo_core::dag::{Dag, SubsumptionReport};
    use mvmqo_core::opt::{GreedyOptions, Mode};
    use mvmqo_core::Optimizer;
    use mvmqo_relalg::catalog::Catalog;

    /// An optimizer session's DAG over `views`, and the subsumption
    /// derivations it holds (read off a plan that selects nothing).
    fn dag_of(catalog: &mut Catalog, views: &[ViewDef]) -> (Dag, SubsumptionReport) {
        let options = GreedyOptions {
            mode: Mode::NoGreedy,
            ..Default::default()
        };
        let mut session = Optimizer::new(Default::default(), options);
        for v in views {
            session.add_view(catalog, v);
        }
        let subsumption = session.plan(catalog).report.subsumption;
        (session.dag().clone(), subsumption)
    }

    #[test]
    fn all_workload_views_validate() {
        let mut t = tpcd_catalog(0.01);
        for v in single_join_view(&t) {
            v.expr.validate(&t.catalog).unwrap();
        }
        for v in single_agg_view(&mut t) {
            v.expr.validate(&t.catalog).unwrap();
        }
        for v in five_join_views(&t) {
            v.expr.validate(&t.catalog).unwrap();
        }
        for v in five_agg_views(&mut t) {
            v.expr.validate(&t.catalog).unwrap();
        }
        for v in ten_views(&t) {
            v.expr.validate(&t.catalog).unwrap();
        }
    }

    #[test]
    fn workload_shapes_match_the_paper() {
        let mut t = tpcd_catalog(0.01);
        assert_eq!(single_join_view(&t).len(), 1);
        assert_eq!(single_agg_view(&mut t).len(), 1);
        assert_eq!(five_join_views(&t).len(), 5);
        assert_eq!(five_agg_views(&mut t).len(), 5);
        assert_eq!(ten_views(&t).len(), 10);
        // Fig 3: join of exactly four relations.
        let v = &single_join_view(&t)[0];
        assert_eq!(v.expr.base_tables().len(), 4);
        // Fig 5: each view joins three or four relations.
        for v in ten_views(&t) {
            let n = v.expr.base_tables().len();
            assert!((3..=4).contains(&n), "{} joins {n}", v.name);
        }
    }

    #[test]
    fn shared_subexpressions_unify_across_ten_views() {
        let mut t = tpcd_catalog(0.01);
        let views = ten_views(&t);
        let (dag, report) = dag_of(&mut t.catalog, &views);
        // l⋈o is shared; the DAG must be far smaller than 10 disjoint
        // expansions.
        assert!(dag.eq_count() < 10 * 15);
        // The narrow/wide date pair produces at least one subsumption
        // derivation.
        assert!(report.select_derivations + report.range_derivations >= 1);
    }

    #[test]
    fn many_views_scales_and_prefixes_are_stable() {
        let t = tpcd_catalog(0.01);
        for n in [1, 10, 25] {
            let views = many_views(&t, n);
            assert_eq!(views.len(), n);
            for v in &views {
                v.expr.validate(&t.catalog).unwrap();
            }
            // Distinct names.
            let mut names: Vec<&str> = views.iter().map(|v| v.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n);
        }
        // Prefix property: many_views(n)[..k] ≡ many_views(k).
        let big = many_views(&t, 25);
        let small = many_views(&t, 10);
        for (a, b) in big.iter().zip(&small) {
            assert_eq!(a.name, b.name);
        }
        // Sharing: the DAG over 25 views is far smaller than 25 disjoint
        // expansions.
        let mut t2 = tpcd_catalog(0.01);
        let (dag, report) = dag_of(&mut t2.catalog, &big);
        assert!(dag.eq_count() < 25 * 15);
        assert!(report.select_derivations + report.range_derivations >= 10);
    }

    #[test]
    fn agg_pair_produces_rollup() {
        let mut t = tpcd_catalog(0.01);
        let views = five_agg_views(&mut t);
        let (_, report) = dag_of(&mut t.catalog, &views);
        assert!(report.introduced_group_nodes >= 1);
        assert!(report.aggregate_rollups >= 2);
    }
}
