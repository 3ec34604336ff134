//! Subsumption derivations (§4.2).
//!
//! After each view insertion, the DAG is augmented with *derivation*
//! operations that compute one node from a more general one:
//!
//! * **Selections.** σ_{A<5}(E) can be computed from σ_{A<10}(E). We add a
//!   derivation for every pair of SPJ nodes over the same table set whose
//!   applied conjunct sets are related by (a) set inclusion (the subsumed
//!   node re-applies the missing conjuncts) or (b) single-conjunct range
//!   implication on the same attribute.
//! * **Aggregates.** Given ᵈⁿᵒG_{sum(sal)}(E) and ᵃᵍᵉG_{sum(sal)}(E), a new
//!   node ᵈⁿᵒ'ᵃᵍᵉG_{sum(sal)}(E) is introduced and both originals gain
//!   derivations that re-aggregate it (SUM of partial SUMs, SUM of partial
//!   COUNTs, MIN of MINs, MAX of MAXs). AVG is not distributive on its own
//!   and is left underived.

use crate::dag::build::Dag;
use crate::dag::node::{DerivedSig, EqId, OpKind, SemKey};
use mvmqo_relalg::agg::{AggFunc, AggSpec};
use mvmqo_relalg::catalog::Catalog;
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::hash::{FxHashMap, FxHashSet};
use mvmqo_relalg::schema::AttrId;
use mvmqo_relalg::types::Value;

/// Statistics of what subsumption added (surfaced in optimizer reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubsumptionReport {
    pub select_derivations: usize,
    pub range_derivations: usize,
    pub aggregate_rollups: usize,
    pub introduced_group_nodes: usize,
}

impl SubsumptionReport {
    /// Fold another pass's additions into a cumulative report (the
    /// re-entrant session accumulates one report across view insertions).
    pub fn absorb(&mut self, other: SubsumptionReport) {
        self.select_derivations += other.select_derivations;
        self.range_derivations += other.range_derivations;
        self.aggregate_rollups += other.aggregate_rollups;
        self.introduced_group_nodes += other.introduced_group_nodes;
    }
}

/// Persistent subsumption bookkeeping for an incrementally grown DAG.
///
/// Select/range derivations are naturally idempotent (re-deriving an
/// existing op hits the op memo), but aggregate roll-ups mint fresh output
/// attributes for the introduced union-grouping node — re-considering a
/// pair would create a *different* node each pass. The state remembers
/// which aggregate pairs have been examined.
///
/// The passes walk Fx-hashed groupings: the order they visit groups in
/// decides the ids of the ops and attributes they create, and with them
/// enumeration order and tie-breaks downstream, so it must be a function
/// of the DAG alone.
#[derive(Debug, Clone, Default)]
pub struct SubsumeState {
    rollup_pairs: FxHashSet<(EqId, EqId)>,
    /// Union-grouping nodes this machinery introduced. They never pair
    /// with later aggregates (matching a pass over the whole DAG, which
    /// collects candidates before creating any union node) — without this, every
    /// incremental pass would stack roll-ups of roll-ups.
    introduced: FxHashSet<EqId>,
}

impl SubsumeState {
    /// Drop bookkeeping for pairs involving garbage-collected nodes, so a
    /// re-added aggregate view gets its roll-ups re-derived.
    pub fn prune_dead(&mut self, dag: &Dag) {
        self.rollup_pairs
            .retain(|(a, b)| dag.eq_is_live(*a) && dag.eq_is_live(*b));
        self.introduced.retain(|e| dag.eq_is_live(*e));
    }

    fn pair_key(a: EqId, b: EqId) -> (EqId, EqId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

/// Derive the subsumptions a grown DAG is missing. Safe to call after
/// every view insertion: only pairs involving a node with id ≥ `first_new`
/// are considered (older pairs were examined by an earlier pass), existing
/// derivations hit the op memo, and `state` prevents aggregate pairs from
/// being rolled up twice. Returns only this pass's additions.
pub fn add_subsumption_derivations_incremental(
    dag: &mut Dag,
    catalog: &mut Catalog,
    state: &mut SubsumeState,
    first_new: EqId,
) -> SubsumptionReport {
    let mut report = SubsumptionReport::default();
    add_select_derivations(dag, first_new, &mut report);
    add_aggregate_rollups(dag, catalog, state, first_new, &mut report);
    report
}

fn add_select_derivations(dag: &mut Dag, first_new: EqId, report: &mut SubsumptionReport) {
    // Group SPJ nodes by table set.
    let mut groups: FxHashMap<Vec<mvmqo_relalg::catalog::TableId>, Vec<(EqId, Predicate)>> =
        FxHashMap::default();
    for id in dag.eq_ids() {
        if let SemKey::Spj { tables, preds } = &dag.eq(id).key {
            groups
                .entry(tables.clone())
                .or_default()
                .push((id, preds.clone()));
        }
    }
    // (target, source, reapply predicate, is_range)
    let mut to_add: Vec<(EqId, EqId, Predicate, bool)> = Vec::new();
    for members in groups.values() {
        if members.len() < 2 {
            continue;
        }
        if members.iter().all(|(id, _)| *id < first_new) {
            continue; // every pair here was examined by an earlier pass
        }
        for (target, tp) in members {
            for (source, sp) in members {
                if target == source || (*target < first_new && *source < first_new) {
                    continue;
                }
                // (a) Set inclusion: source's conjuncts ⊂ target's.
                if is_strict_subset(sp, tp) {
                    let missing = difference(tp, sp);
                    to_add.push((*target, *source, missing, false));
                    continue;
                }
                // (b) Range implication on a single differing conjunct.
                if let Some((c_target, c_source)) = single_conjunct_difference(tp, sp) {
                    if implies(&c_target, &c_source) && !implies(&c_source, &c_target) {
                        to_add.push((
                            *target,
                            *source,
                            Predicate::from_conjuncts(vec![c_target]),
                            true,
                        ));
                    }
                }
            }
        }
    }
    for (target, source, pred, is_range) in to_add {
        // Derivations found on earlier incremental passes hit the op memo;
        // count only what this pass adds.
        let (_, new) = dag.add_op_tracked(OpKind::Select { pred }, vec![source], target);
        if new {
            if is_range {
                report.range_derivations += 1;
            } else {
                report.select_derivations += 1;
            }
        }
    }
}

/// True if every conjunct of `a` appears in `b` and `b` has strictly more.
fn is_strict_subset(a: &Predicate, b: &Predicate) -> bool {
    a.conjuncts().len() < b.conjuncts().len()
        && a.conjuncts().iter().all(|c| b.conjuncts().contains(c))
}

/// Conjuncts of `a` not present in `b`.
fn difference(a: &Predicate, b: &Predicate) -> Predicate {
    Predicate::from_conjuncts(
        a.conjuncts()
            .iter()
            .filter(|c| !b.conjuncts().contains(c))
            .cloned()
            .collect(),
    )
}

/// If `a` and `b` share all conjuncts except exactly one each, return that
/// differing pair `(a_only, b_only)`.
fn single_conjunct_difference(a: &Predicate, b: &Predicate) -> Option<(ScalarExpr, ScalarExpr)> {
    let a_only: Vec<&ScalarExpr> = a
        .conjuncts()
        .iter()
        .filter(|c| !b.conjuncts().contains(c))
        .collect();
    let b_only: Vec<&ScalarExpr> = b
        .conjuncts()
        .iter()
        .filter(|c| !a.conjuncts().contains(c))
        .collect();
    match (a_only.as_slice(), b_only.as_slice()) {
        ([a_only], [b_only]) => Some(((*a_only).clone(), (*b_only).clone())),
        _ => None,
    }
}

/// Does range conjunct `p` logically imply `q`? Both must be single-attr
/// comparisons against literals on the same attribute.
pub fn implies(p: &ScalarExpr, q: &ScalarExpr) -> bool {
    let parse = |e: &ScalarExpr| -> Option<(AttrId, CmpOp, Value)> {
        Predicate::from_conjuncts(vec![e.clone()]).as_single_attr_range()
    };
    let (Some((pa, pop, pv)), Some((qa, qop, qv))) = (parse(p), parse(q)) else {
        return false;
    };
    if pa != qa {
        return false;
    }
    use CmpOp::*;
    match (pop, qop) {
        // Upper bounds: x < v / x <= v.
        (Lt, Lt) | (Le, Le) => pv <= qv,
        (Lt, Le) => pv <= qv,
        (Le, Lt) => pv < qv,
        // Lower bounds.
        (Gt, Gt) | (Ge, Ge) => pv >= qv,
        (Gt, Ge) => pv >= qv,
        (Ge, Gt) => pv > qv,
        // Point implies ranges containing it.
        (Eq, Lt) => pv < qv,
        (Eq, Le) => pv <= qv,
        (Eq, Gt) => pv > qv,
        (Eq, Ge) => pv >= qv,
        (Eq, Eq) => pv == qv,
        (Eq, Ne) => pv != qv,
        _ => false,
    }
}

/// (aggregate node, group-by attrs, agg specs) collected per shared input.
type AggNodesByChild = FxHashMap<EqId, Vec<(EqId, Vec<AttrId>, Vec<AggSpec>)>>;

fn add_aggregate_rollups(
    dag: &mut Dag,
    catalog: &mut Catalog,
    state: &mut SubsumeState,
    first_new: EqId,
    report: &mut SubsumptionReport,
) {
    // Collect aggregate nodes grouped by input child (introduced
    // union-grouping nodes excluded — see `SubsumeState::introduced`).
    let mut by_child = AggNodesByChild::default();
    for id in dag.eq_ids() {
        if state.introduced.contains(&id) {
            continue;
        }
        if let SemKey::Derived {
            sig: DerivedSig::Aggregate { group_by, aggs },
            children,
        } = &dag.eq(id).key
        {
            by_child
                .entry(children[0])
                .or_default()
                .push((id, group_by.clone(), aggs.clone()));
        }
    }
    for (child, nodes) in by_child {
        if nodes.len() < 2 {
            continue;
        }
        // Pairwise roll-ups; distributive aggregates only.
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let (e1, g1, a1) = &nodes[i];
                let (e2, g2, a2) = &nodes[j];
                if *e1 < first_new && *e2 < first_new {
                    continue; // both pre-date this pass
                }
                if !state.rollup_pairs.insert(SubsumeState::pair_key(*e1, *e2)) {
                    continue; // pair already examined on an earlier pass
                }
                if g1 == g2 {
                    continue; // same grouping with different specs — no roll-up needed
                }
                if !a1.iter().chain(a2.iter()).all(|s| is_distributive(s.func)) {
                    continue;
                }
                // Union group set.
                let mut gu: Vec<AttrId> = g1.iter().chain(g2.iter()).copied().collect();
                gu.sort_unstable();
                gu.dedup();
                if gu == *g1 || gu == *g2 {
                    // One grouping refines the other: derive the coarser
                    // directly from the finer — no new node needed.
                    let (coarse, fine, coarse_specs, fine_specs) = if gu == *g1 {
                        (e2, e1, a2, a1)
                    } else {
                        (e1, e2, a1, a2)
                    };
                    if let Some(specs) = rollup_specs(coarse_specs, fine_specs, dag, *fine) {
                        let group_by = if gu == *g1 { g2.clone() } else { g1.clone() };
                        dag.add_op(
                            OpKind::Aggregate {
                                group_by,
                                aggs: specs,
                            },
                            vec![*fine],
                            *coarse,
                        );
                        report.aggregate_rollups += 1;
                    }
                    continue;
                }
                // Introduce the union-grouping node with fresh outputs, one
                // per distinct (func, input) pair across both originals.
                let mut union_specs: Vec<AggSpec> = Vec::new();
                let mut spec_of: FxHashMap<(AggFunc, ScalarExpr), AttrId> = FxHashMap::default();
                for s in a1.iter().chain(a2.iter()) {
                    let k = (base_func(s.func), s.input.clone());
                    if !spec_of.contains_key(&k) {
                        let out = catalog.fresh_attr();
                        spec_of.insert(k.clone(), out);
                        union_specs.push(AggSpec::new(k.0, k.1.clone(), out));
                    }
                }
                let (schema, stats) = dag.aggregate_props(catalog, child, &gu, &union_specs);
                let union_node = dag.ensure_derived(
                    DerivedSig::Aggregate {
                        group_by: gu.clone(),
                        aggs: union_specs.clone(),
                    },
                    vec![child],
                    OpKind::Aggregate {
                        group_by: gu.clone(),
                        aggs: union_specs.clone(),
                    },
                    schema,
                    stats,
                );
                state.introduced.insert(union_node);
                report.introduced_group_nodes += 1;
                for (e, g, specs) in [(e1, g1, a1), (e2, g2, a2)] {
                    let derived: Vec<AggSpec> = specs
                        .iter()
                        .map(|s| {
                            let src = spec_of[&(base_func(s.func), s.input.clone())];
                            AggSpec::new(reagg_func(s.func), ScalarExpr::Col(src), s.out)
                        })
                        .collect();
                    dag.add_op(
                        OpKind::Aggregate {
                            group_by: g.clone(),
                            aggs: derived,
                        },
                        vec![union_node],
                        *e,
                    );
                    report.aggregate_rollups += 1;
                }
            }
        }
    }
}

/// Roll-up specs for deriving a coarser aggregation directly from a finer
/// one over the same input. Returns `None` if any output of the finer node
/// needed by the coarser is missing.
fn rollup_specs(
    coarse_specs: &[AggSpec],
    fine_specs: &[AggSpec],
    _dag: &Dag,
    _fine: EqId,
) -> Option<Vec<AggSpec>> {
    coarse_specs
        .iter()
        .map(|c| {
            fine_specs
                .iter()
                .find(|f| base_func(f.func) == base_func(c.func) && f.input == c.input)
                .map(|f| AggSpec::new(reagg_func(c.func), ScalarExpr::Col(f.out), c.out))
        })
        .collect()
}

/// Distributive aggregates that support roll-up.
fn is_distributive(f: AggFunc) -> bool {
    matches!(
        f,
        AggFunc::Sum | AggFunc::Count | AggFunc::Min | AggFunc::Max
    )
}

/// The partial-aggregate function stored at the finer level.
fn base_func(f: AggFunc) -> AggFunc {
    f
}

/// The function that combines partials at the coarser level:
/// COUNT of partials becomes SUM of partial counts.
fn reagg_func(f: AggFunc) -> AggFunc {
    match f {
        AggFunc::Count => AggFunc::Sum,
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::catalog::ColumnSpec;
    use mvmqo_relalg::logical::LogicalExpr;
    use mvmqo_relalg::types::DataType;

    fn setup() -> (Catalog, mvmqo_relalg::catalog::TableId) {
        let mut c = Catalog::new();
        let t = c.add_table(
            "t",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_range("x", DataType::Int, 100.0, (0.0, 100.0)),
                ColumnSpec::with_distinct("g", DataType::Int, 10.0),
                ColumnSpec::with_distinct("h", DataType::Int, 20.0),
            ],
            10_000.0,
            &["id"],
        );
        (c, t)
    }

    #[test]
    fn range_implication_table() {
        let a = AttrId(0);
        let lt5 = ScalarExpr::col_cmp_lit(a, CmpOp::Lt, 5i64);
        let lt10 = ScalarExpr::col_cmp_lit(a, CmpOp::Lt, 10i64);
        let le5 = ScalarExpr::col_cmp_lit(a, CmpOp::Le, 5i64);
        let gt3 = ScalarExpr::col_cmp_lit(a, CmpOp::Gt, 3i64);
        let eq4 = ScalarExpr::col_cmp_lit(a, CmpOp::Eq, 4i64);
        assert!(implies(&lt5, &lt10));
        assert!(!implies(&lt10, &lt5));
        assert!(implies(&lt5, &le5));
        assert!(!implies(&le5, &lt5));
        assert!(implies(&eq4, &lt5));
        assert!(implies(&eq4, &gt3));
        assert!(!implies(&eq4, &ScalarExpr::col_cmp_lit(a, CmpOp::Gt, 4i64)));
        // Different attributes never imply.
        let other = ScalarExpr::col_cmp_lit(AttrId(1), CmpOp::Lt, 10i64);
        assert!(!implies(&lt5, &other));
    }

    #[test]
    fn select_subsumption_adds_derivation() {
        let (mut c, t) = setup();
        let x = c.table(t).attr("x");
        let v5 = LogicalExpr::select(
            LogicalExpr::scan(t),
            Predicate::from_expr(ScalarExpr::col_cmp_lit(x, CmpOp::Lt, 5i64)),
        );
        let v10 = LogicalExpr::select(
            LogicalExpr::scan(t),
            Predicate::from_expr(ScalarExpr::col_cmp_lit(x, CmpOp::Lt, 10i64)),
        );
        let mut dag = Dag::new();
        let e5 = dag.insert_view(&c, "v5", &v5);
        let e10 = dag.insert_view(&c, "v10", &v10);
        let before = dag.op_count();
        let report = add_subsumption_derivations_incremental(
            &mut dag,
            &mut c,
            &mut SubsumeState::default(),
            EqId(0),
        );
        assert_eq!(report.range_derivations, 1);
        assert_eq!(dag.op_count(), before + 1);
        // The new op computes e5 from e10.
        let new_op = dag
            .eq(e5)
            .children
            .iter()
            .map(|o| dag.op(*o))
            .find(|o| o.children.contains(&e10));
        assert!(new_op.is_some());
    }

    #[test]
    fn subset_subsumption_reapplies_missing_conjuncts() {
        let (mut c, t) = setup();
        let x = c.table(t).attr("x");
        let g = c.table(t).attr("g");
        let narrow = LogicalExpr::select(
            LogicalExpr::scan(t),
            Predicate::from_conjuncts(vec![
                ScalarExpr::col_cmp_lit(x, CmpOp::Lt, 5i64),
                ScalarExpr::col_cmp_lit(g, CmpOp::Eq, 1i64),
            ]),
        );
        let wide = LogicalExpr::select(
            LogicalExpr::scan(t),
            Predicate::from_expr(ScalarExpr::col_cmp_lit(x, CmpOp::Lt, 5i64)),
        );
        let mut dag = Dag::new();
        dag.insert_view(&c, "narrow", &narrow);
        dag.insert_view(&c, "wide", &wide);
        let report = add_subsumption_derivations_incremental(
            &mut dag,
            &mut c,
            &mut SubsumeState::default(),
            EqId(0),
        );
        assert!(report.select_derivations >= 1);
    }

    #[test]
    fn aggregate_rollup_introduces_union_grouping_node() {
        let (mut c, t) = setup();
        let g = c.table(t).attr("g");
        let h = c.table(t).attr("h");
        let x = c.table(t).attr("x");
        let o1 = c.fresh_attr();
        let o2 = c.fresh_attr();
        let by_g = LogicalExpr::aggregate(
            LogicalExpr::scan(t),
            vec![g],
            vec![AggSpec::new(AggFunc::Sum, ScalarExpr::Col(x), o1)],
        );
        let by_h = LogicalExpr::aggregate(
            LogicalExpr::scan(t),
            vec![h],
            vec![AggSpec::new(AggFunc::Sum, ScalarExpr::Col(x), o2)],
        );
        let mut dag = Dag::new();
        let e1 = dag.insert_view(&c, "by_g", &by_g);
        let e2 = dag.insert_view(&c, "by_h", &by_h);
        let eq_before = dag.eq_count();
        let report = add_subsumption_derivations_incremental(
            &mut dag,
            &mut c,
            &mut SubsumeState::default(),
            EqId(0),
        );
        assert_eq!(report.introduced_group_nodes, 1);
        assert_eq!(report.aggregate_rollups, 2);
        assert_eq!(dag.eq_count(), eq_before + 1);
        // Both originals now have a second alternative op.
        assert_eq!(dag.eq(e1).children.len(), 2);
        assert_eq!(dag.eq(e2).children.len(), 2);
    }

    #[test]
    fn refinement_rollup_derives_coarse_from_fine() {
        let (mut c, t) = setup();
        let g = c.table(t).attr("g");
        let h = c.table(t).attr("h");
        let x = c.table(t).attr("x");
        let o1 = c.fresh_attr();
        let o2 = c.fresh_attr();
        let fine = LogicalExpr::aggregate(
            LogicalExpr::scan(t),
            vec![g, h],
            vec![AggSpec::new(AggFunc::Count, ScalarExpr::Col(x), o1)],
        );
        let coarse = LogicalExpr::aggregate(
            LogicalExpr::scan(t),
            vec![g],
            vec![AggSpec::new(AggFunc::Count, ScalarExpr::Col(x), o2)],
        );
        let mut dag = Dag::new();
        let e_fine = dag.insert_view(&c, "fine", &fine);
        let e_coarse = dag.insert_view(&c, "coarse", &coarse);
        let report = add_subsumption_derivations_incremental(
            &mut dag,
            &mut c,
            &mut SubsumeState::default(),
            EqId(0),
        );
        assert_eq!(report.introduced_group_nodes, 0);
        assert_eq!(report.aggregate_rollups, 1);
        // COUNT rolls up as SUM of partial counts.
        let rollup = dag
            .eq(e_coarse)
            .children
            .iter()
            .map(|o| dag.op(*o))
            .find(|o| o.children.contains(&e_fine))
            .expect("rollup derivation present");
        if let OpKind::Aggregate { aggs, .. } = &rollup.kind {
            assert_eq!(aggs[0].func, AggFunc::Sum);
        } else {
            panic!("expected aggregate rollup op");
        }
    }

    #[test]
    fn avg_blocks_rollup() {
        let (mut c, t) = setup();
        let g = c.table(t).attr("g");
        let h = c.table(t).attr("h");
        let x = c.table(t).attr("x");
        let o1 = c.fresh_attr();
        let o2 = c.fresh_attr();
        let v1 = LogicalExpr::aggregate(
            LogicalExpr::scan(t),
            vec![g],
            vec![AggSpec::new(AggFunc::Avg, ScalarExpr::Col(x), o1)],
        );
        let v2 = LogicalExpr::aggregate(
            LogicalExpr::scan(t),
            vec![h],
            vec![AggSpec::new(AggFunc::Avg, ScalarExpr::Col(x), o2)],
        );
        let mut dag = Dag::new();
        dag.insert_view(&c, "v1", &v1);
        dag.insert_view(&c, "v2", &v2);
        let report = add_subsumption_derivations_incremental(
            &mut dag,
            &mut c,
            &mut SubsumeState::default(),
            EqId(0),
        );
        assert_eq!(report.introduced_group_nodes, 0);
        assert_eq!(report.aggregate_rollups, 0);
    }
}
