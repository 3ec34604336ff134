//! Physical plan IR and maintenance-program extraction.
//!
//! After the greedy selection fixes the materialized set `M`, the best plans
//! cached in the cost engine (§5: "during the traversal we also cache the
//! best plan computed for each differential, just as we cache the best plans
//! for each full result") are extracted into executable [`PhysPlan`] trees
//! and assembled into a [`Program`]: for each update step, which temporary
//! differentials to store, which maintained results to merge and with what
//! delta plan; and which results to refresh by recomputation at the end.

use crate::dag::{EqId, OpKind, SemKey};
use crate::opt::costing::{Alg, CostEngine, StoredRef};
use crate::update::{UpdateId, UpdateStep};
use mvmqo_relalg::agg::AggSpec;
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::schema::{AttrId, Schema};
use mvmqo_storage::delta::DeltaKind;
use std::collections::BTreeMap;
use std::fmt;

/// A physical plan node with its output schema.
#[derive(Debug, Clone)]
pub struct PhysPlan {
    pub schema: Schema,
    pub node: PlanNode,
}

/// Physical operators the executor understands.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Sequential scan of a base table (current state).
    ScanBase(TableId),
    /// Scan one side of a base table's delta log.
    ScanDelta {
        table: TableId,
        kind: DeltaKind,
    },
    /// Read a stored materialized full result (computed on demand by the
    /// runtime if stale/absent).
    ReadMat(EqId),
    /// Read a temporarily materialized differential.
    ReadDelta(EqId, UpdateId),
    /// Probe an index on a stored relation with the sargable part of
    /// `pred`, then apply `pred` in full.
    IndexScan {
        target: StoredRef,
        attr: AttrId,
        pred: Predicate,
    },
    Filter {
        input: Box<PhysPlan>,
        pred: Predicate,
    },
    Project {
        input: Box<PhysPlan>,
        attrs: Vec<AttrId>,
    },
    /// Hash join; `keys` pairs are (build attr, probe attr).
    HashJoin {
        build: Box<PhysPlan>,
        probe: Box<PhysPlan>,
        keys: Vec<(AttrId, AttrId)>,
        residual: Predicate,
    },
    /// Sort-merge join; `keys` pairs are (left attr, right attr).
    MergeJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        keys: Vec<(AttrId, AttrId)>,
        residual: Predicate,
    },
    /// Nested-loop join with arbitrary predicate.
    NlJoin {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
        pred: Predicate,
    },
    /// Stream the outer, probe an index on a stored inner per tuple.
    IndexNlJoin {
        outer: Box<PhysPlan>,
        inner: StoredRef,
        /// (outer attr, inner attr).
        keys: (AttrId, AttrId),
        /// Predicate of the inner equivalence node (applied after probing
        /// when the stored relation is the unfiltered base).
        inner_filter: Predicate,
        residual: Predicate,
    },
    HashAggregate {
        input: Box<PhysPlan>,
        group_by: Vec<AttrId>,
        aggs: Vec<AggSpec>,
    },
    UnionAll(Vec<PhysPlan>),
    Minus {
        left: Box<PhysPlan>,
        right: Box<PhysPlan>,
    },
    Distinct {
        input: Box<PhysPlan>,
    },
}

impl PhysPlan {
    fn fmt_indented(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match &self.node {
            PlanNode::ScanBase(t) => writeln!(f, "{pad}ScanBase {t}"),
            PlanNode::ScanDelta { table, kind } => writeln!(f, "{pad}ScanDelta {kind}{table}"),
            PlanNode::ReadMat(e) => writeln!(f, "{pad}ReadMat {e}"),
            PlanNode::ReadDelta(e, u) => writeln!(f, "{pad}ReadDelta δ({e},{u})"),
            PlanNode::IndexScan { target, attr, pred } => {
                writeln!(f, "{pad}IndexScan {target:?}.{attr} [{pred}]")
            }
            PlanNode::Filter { input, pred } => {
                writeln!(f, "{pad}Filter [{pred}]")?;
                input.fmt_indented(f, indent + 1)
            }
            PlanNode::Project { input, .. } => {
                writeln!(f, "{pad}Project")?;
                input.fmt_indented(f, indent + 1)
            }
            PlanNode::HashJoin {
                build, probe, keys, ..
            } => {
                writeln!(f, "{pad}HashJoin {keys:?}")?;
                build.fmt_indented(f, indent + 1)?;
                probe.fmt_indented(f, indent + 1)
            }
            PlanNode::MergeJoin {
                left, right, keys, ..
            } => {
                writeln!(f, "{pad}MergeJoin {keys:?}")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            PlanNode::NlJoin { left, right, pred } => {
                writeln!(f, "{pad}NlJoin [{pred}]")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            PlanNode::IndexNlJoin {
                outer, inner, keys, ..
            } => {
                writeln!(f, "{pad}IndexNlJoin probe {inner:?} on {:?}", keys)?;
                outer.fmt_indented(f, indent + 1)
            }
            PlanNode::HashAggregate {
                input, group_by, ..
            } => {
                writeln!(f, "{pad}HashAggregate {group_by:?}")?;
                input.fmt_indented(f, indent + 1)
            }
            PlanNode::UnionAll(inputs) => {
                writeln!(f, "{pad}UnionAll")?;
                for i in inputs {
                    i.fmt_indented(f, indent + 1)?;
                }
                Ok(())
            }
            PlanNode::Minus { left, right } => {
                writeln!(f, "{pad}Minus")?;
                left.fmt_indented(f, indent + 1)?;
                right.fmt_indented(f, indent + 1)
            }
            PlanNode::Distinct { input } => {
                writeln!(f, "{pad}Distinct")?;
                input.fmt_indented(f, indent + 1)
            }
        }
    }
}

impl fmt::Display for PhysPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_indented(f, 0)
    }
}

/// How a maintained (grouped or plain) result absorbs its delta.
#[derive(Debug, Clone)]
pub enum MergeKind {
    /// Multiset union (inserts) / difference (deletes) of delta rows.
    Plain,
    /// Aggregate view: the delta plan produces *input* delta rows, which the
    /// executor folds into the stored groups.
    Aggregate {
        group_by: Vec<AttrId>,
        aggs: Vec<AggSpec>,
    },
    /// Distinct view: input delta rows adjust hidden support counts.
    Distinct,
}

/// One maintained result's work at one update step.
#[derive(Debug, Clone)]
pub struct MergeAction {
    pub target: EqId,
    pub kind: MergeKind,
    pub delta_plan: PhysPlan,
}

/// Everything to do when propagating one update step (§3.2.2 order).
#[derive(Debug, Clone)]
pub struct StepProgram {
    pub update: UpdateStep,
    /// Differentials chosen for temporary materialization at this step
    /// (computed before merges so later plans can `ReadDelta` them),
    /// in dependency order.
    pub temp_deltas: Vec<(EqId, PhysPlan)>,
    /// Merges into incrementally-maintained results affected by this step.
    pub merges: Vec<MergeAction>,
}

/// The complete maintenance program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Plans to (re)compute each materialized full result from stored
    /// inputs — used for initial population, on-demand temporaries, and
    /// final recomputation.
    pub full_plans: BTreeMap<EqId, PhysPlan>,
    /// Update steps in propagation order.
    pub steps: Vec<StepProgram>,
    /// Results refreshed by recomputation after all updates are applied
    /// (user views whose recompute plan won).
    pub final_recomputes: Vec<EqId>,
    /// Extra results kept permanently (incremental strategy).
    pub permanent_mats: Vec<EqId>,
    /// Extra results materialized temporarily and discarded afterwards.
    pub temporary_mats: Vec<EqId>,
    /// The user views (name, node).
    pub views: Vec<(String, EqId)>,
}

/// Extract the full maintenance program from a converged cost engine.
/// `views` names the user views' roots; every other materialized result —
/// a query root included — is an extra, permanent or temporary.
pub fn extract_program(engine: &CostEngine<'_>, views: Vec<(String, EqId)>) -> Program {
    let mut program = Program {
        views,
        ..Default::default()
    };
    let view_set: crate::opt::EqSet = program.views.iter().map(|(_, e)| *e).collect();

    // Full plans + temp/perm classification for every materialized result.
    for &e in &engine.mats.full {
        program.full_plans.insert(e, extract_full(engine, e));
        let (_, incremental) = engine.cost_full_result(e);
        if view_set.contains(&e) {
            if !incremental {
                program.final_recomputes.push(e);
            }
        } else if incremental {
            program.permanent_mats.push(e);
        } else {
            program.temporary_mats.push(e);
        }
    }
    program.final_recomputes.sort_unstable();
    program.permanent_mats.sort_unstable();
    program.temporary_mats.sort_unstable();

    // Which results are maintained incrementally (views + permanent mats).
    let mut maintained: Vec<EqId> = engine
        .mats
        .full
        .iter()
        .copied()
        .filter(|e| engine.cost_full_result(*e).1)
        .collect();
    maintained.sort_unstable();

    for step in engine.updates.steps() {
        let mut sp = StepProgram {
            update: step.clone(),
            temp_deltas: Vec::new(),
            merges: Vec::new(),
        };
        // Temporary differential materializations for this update, ordered
        // bottom-up so consumers find producers already stored.
        let mut diff_mats: Vec<EqId> = engine
            .mats
            .diffs
            .iter()
            .filter(|(_, u)| *u == step.id)
            .map(|(e, _)| *e)
            .collect();
        diff_mats.sort_by_key(|e| engine.topo_rank(*e));
        for e in diff_mats {
            if engine.props.delta_is_empty(e, step.id) {
                continue;
            }
            sp.temp_deltas
                .push((e, extract_diff(engine, e, step.id, true)));
        }
        // Merges for every maintained result affected by this update.
        for &e in &maintained {
            if engine.props.delta_is_empty(e, step.id) {
                continue;
            }
            sp.merges.push(merge_action(engine, e, step.id));
        }
        program.steps.push(sp);
    }
    program
}

/// The merge action for a maintained result at one update.
fn merge_action(engine: &CostEngine<'_>, e: EqId, u: UpdateId) -> MergeAction {
    let dag = engine.dag;
    // Grouped results merge from their *input* delta.
    if let Some((op, _)) = engine.best_diff(e, u) {
        let op = dag.op(op);
        match &op.kind {
            OpKind::Aggregate { group_by, aggs } => {
                return MergeAction {
                    target: e,
                    kind: MergeKind::Aggregate {
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    },
                    delta_plan: extract_diff(engine, op.children[0], u, false),
                };
            }
            OpKind::Distinct => {
                return MergeAction {
                    target: e,
                    kind: MergeKind::Distinct,
                    delta_plan: extract_diff(engine, op.children[0], u, false),
                };
            }
            _ => {}
        }
    }
    MergeAction {
        target: e,
        kind: MergeKind::Plain,
        delta_plan: extract_diff(engine, e, u, false),
    }
}

/// Extract the best plan for the full result of `e` (never reading `e`
/// itself).
pub fn extract_full(engine: &CostEngine<'_>, e: EqId) -> PhysPlan {
    let dag = engine.dag;
    let node = dag.eq(e);
    let schema = node.schema.clone();
    let Some((op_id, alg)) = engine.best_full(e) else {
        // Leaf base relation.
        if let Some(t) = node.as_base_table() {
            return PhysPlan {
                schema,
                node: PlanNode::ScanBase(t),
            };
        }
        panic!("no full plan for {e}");
    };
    let op = dag.op(op_id);
    match (&op.kind, alg) {
        (OpKind::Scan(t), _) => PhysPlan {
            schema,
            node: PlanNode::ScanBase(*t),
        },
        (OpKind::Select { pred }, Alg::IndexSelect { target, attr }) => PhysPlan {
            schema,
            node: PlanNode::IndexScan {
                target,
                attr,
                pred: pred.clone(),
            },
        },
        (OpKind::Select { pred }, _) => PhysPlan {
            schema,
            node: PlanNode::Filter {
                input: Box::new(input_full(engine, op.children[0])),
                pred: pred.clone(),
            },
        },
        (OpKind::Project { attrs }, _) => PhysPlan {
            schema,
            node: PlanNode::Project {
                input: Box::new(input_full(engine, op.children[0])),
                attrs: attrs.clone(),
            },
        },
        (OpKind::Join { pred }, alg) => {
            let l = input_full(engine, op.children[0]);
            let r = input_full(engine, op.children[1]);
            join_plan(
                engine,
                schema,
                l,
                r,
                op.children[0],
                op.children[1],
                pred,
                alg,
            )
        }
        (OpKind::Aggregate { group_by, aggs }, _) => PhysPlan {
            schema,
            node: PlanNode::HashAggregate {
                input: Box::new(input_full(engine, op.children[0])),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
        },
        (OpKind::UnionAll, _) => PhysPlan {
            schema,
            node: PlanNode::UnionAll(op.children.iter().map(|c| input_full(engine, *c)).collect()),
        },
        (OpKind::Minus, _) => PhysPlan {
            schema,
            node: PlanNode::Minus {
                left: Box::new(input_full(engine, op.children[0])),
                right: Box::new(input_full(engine, op.children[1])),
            },
        },
        (OpKind::Distinct, _) => PhysPlan {
            schema,
            node: PlanNode::Distinct {
                input: Box::new(input_full(engine, op.children[0])),
            },
        },
    }
}

/// How a consumer reads the full result of `c`: reuse a materialization if
/// that is the cheaper option, else inline its best plan.
fn input_full(engine: &CostEngine<'_>, c: EqId) -> PhysPlan {
    let node = engine.dag.eq(c);
    if let Some(t) = node.as_base_table() {
        return PhysPlan {
            schema: node.schema.clone(),
            node: PlanNode::ScanBase(t),
        };
    }
    if engine.mats.full.contains(&c) && engine.reuse_full(c) <= engine.compcost(c) {
        return PhysPlan {
            schema: node.schema.clone(),
            node: PlanNode::ReadMat(c),
        };
    }
    extract_full(engine, c)
}

/// Extract the best plan for δ(e, u). `for_storage` marks extraction of a
/// temp-delta producer (which must not read itself).
pub fn extract_diff(engine: &CostEngine<'_>, e: EqId, u: UpdateId, for_storage: bool) -> PhysPlan {
    let dag = engine.dag;
    let node = dag.eq(e);
    let schema = node.schema.clone();
    let step = engine.updates.step(u);
    if !for_storage
        && engine.mats.diffs.contains(&(e, u))
        && engine.reuse_delta(e, u) <= engine.diffcost(e, u)
    {
        return PhysPlan {
            schema,
            node: PlanNode::ReadDelta(e, u),
        };
    }
    if let Some(t) = node.as_base_table() {
        return PhysPlan {
            schema,
            node: PlanNode::ScanDelta {
                table: t,
                kind: step.kind,
            },
        };
    }
    let Some((op_id, alg)) = engine.best_diff(e, u) else {
        panic!("no differential plan for δ({e},{u})");
    };
    let op = dag.op(op_id);
    match (&op.kind, alg) {
        (OpKind::Scan(t), _) => PhysPlan {
            schema,
            node: PlanNode::ScanDelta {
                table: *t,
                kind: step.kind,
            },
        },
        (OpKind::Select { pred }, _) => PhysPlan {
            schema,
            node: PlanNode::Filter {
                input: Box::new(input_diff(engine, op.children[0], u)),
                pred: pred.clone(),
            },
        },
        (OpKind::Project { attrs }, _) => PhysPlan {
            schema,
            node: PlanNode::Project {
                input: Box::new(input_diff(engine, op.children[0], u)),
                attrs: attrs.clone(),
            },
        },
        (OpKind::Join { pred }, alg) => {
            let l = op.children[0];
            let r = op.children[1];
            let l_dep = dag.eq(l).depends_on(step.table);
            let r_dep = dag.eq(r).depends_on(step.table);
            match (l_dep, r_dep) {
                (true, false) => {
                    let dl = input_diff(engine, l, u);
                    let fr = input_full(engine, r);
                    join_plan(engine, schema, dl, fr, l, r, pred, alg)
                }
                (false, true) => {
                    let dr = input_diff(engine, r, u);
                    let fl = input_full(engine, l);
                    join_plan(engine, schema, fl, dr, l, r, pred, alg)
                }
                (true, true) => both_sides_delta_plan(engine, schema, op_id, u, pred, step.kind),
                (false, false) => unreachable!("delta through independent join"),
            }
        }
        (OpKind::Aggregate { group_by, aggs }, _) => {
            // Delta of an aggregate = aggregation of the input delta (the
            // executor folds these into stored groups at merge time; when
            // this plan is evaluated stand-alone it produces the delta
            // groups' fresh values).
            PhysPlan {
                schema,
                node: PlanNode::HashAggregate {
                    input: Box::new(input_diff(engine, op.children[0], u)),
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                },
            }
        }
        (OpKind::UnionAll, _) => PhysPlan {
            schema,
            node: PlanNode::UnionAll(
                op.children
                    .iter()
                    .filter(|c| dag.eq(**c).depends_on(step.table))
                    .map(|c| input_diff(engine, *c, u))
                    .collect(),
            ),
        },
        (OpKind::Minus, _) | (OpKind::Distinct, _) => {
            panic!("differential extraction for unsupported op {:?}", op.kind)
        }
    }
}

fn input_diff(engine: &CostEngine<'_>, c: EqId, u: UpdateId) -> PhysPlan {
    extract_diff(engine, c, u, false)
}

/// δ(E₁⋈E₂) when both inputs change: (δE₁ ⋈ E₂) ∪ ((E₁ ∘ δE₁) ⋈ δE₂), with
/// ∘ = ⊎ for inserts and ∸ for deletes (§5.3).
fn both_sides_delta_plan(
    engine: &CostEngine<'_>,
    schema: Schema,
    op_id: crate::dag::OpId,
    u: UpdateId,
    pred: &Predicate,
    kind: DeltaKind,
) -> PhysPlan {
    let op = engine.dag.op(op_id);
    let l = op.children[0];
    let r = op.children[1];
    let dl = input_diff(engine, l, u);
    let dr = input_diff(engine, r, u);
    let fl = input_full(engine, l);
    let fr = input_full(engine, r);
    let l_schema = engine.dag.eq(l).schema.clone();
    let l_adjusted = PhysPlan {
        schema: l_schema.clone(),
        node: match kind {
            DeltaKind::Insert => PlanNode::UnionAll(vec![fl, dl.clone()]),
            DeltaKind::Delete => PlanNode::Minus {
                left: Box::new(fl),
                right: Box::new(dl.clone()),
            },
        },
    };
    let keys = split_keys(pred, &engine.dag.eq(l).schema, &engine.dag.eq(r).schema);
    let residual = residual_pred(pred);
    let j1 = PhysPlan {
        schema: schema.clone(),
        node: PlanNode::HashJoin {
            build: Box::new(dl),
            probe: Box::new(fr),
            keys: keys.clone(),
            residual: residual.clone(),
        },
    };
    let j2 = PhysPlan {
        schema: schema.clone(),
        node: PlanNode::HashJoin {
            build: Box::new(dr),
            probe: Box::new(l_adjusted),
            keys: keys.iter().map(|(a, b)| (*b, *a)).collect(),
            residual,
        },
    };
    PhysPlan {
        schema,
        node: PlanNode::UnionAll(vec![j1, j2]),
    }
}

/// Build the physical join node for the chosen algorithm. `l_plan`/`r_plan`
/// are in the op's canonical child order.
#[allow(clippy::too_many_arguments)]
fn join_plan(
    engine: &CostEngine<'_>,
    schema: Schema,
    l_plan: PhysPlan,
    r_plan: PhysPlan,
    l: EqId,
    r: EqId,
    pred: &Predicate,
    alg: Alg,
) -> PhysPlan {
    let dag = engine.dag;
    let l_schema = &dag.eq(l).schema;
    let r_schema = &dag.eq(r).schema;
    let keys = split_keys(pred, l_schema, r_schema); // (left attr, right attr)
    let residual = residual_pred(pred);
    let node = match alg {
        Alg::HashJoin { build_left } => {
            if build_left {
                PlanNode::HashJoin {
                    build: Box::new(l_plan),
                    probe: Box::new(r_plan),
                    keys: keys.clone(),
                    residual,
                }
            } else {
                PlanNode::HashJoin {
                    build: Box::new(r_plan),
                    probe: Box::new(l_plan),
                    keys: keys.iter().map(|(a, b)| (*b, *a)).collect(),
                    residual,
                }
            }
        }
        Alg::MergeJoin => PlanNode::MergeJoin {
            left: Box::new(l_plan),
            right: Box::new(r_plan),
            keys,
            residual,
        },
        Alg::BlockNl => PlanNode::NlJoin {
            left: Box::new(l_plan),
            right: Box::new(r_plan),
            pred: pred.clone(),
        },
        Alg::IndexNl {
            outer_left,
            inner,
            outer_key,
            inner_key,
        } => {
            let (outer_plan, inner_eq) = if outer_left { (l_plan, r) } else { (r_plan, l) };
            let inner_filter = match &dag.eq(inner_eq).key {
                SemKey::Spj { preds, .. } if matches!(inner, StoredRef::Base(_)) => preds.clone(),
                _ => Predicate::true_(),
            };
            // The probed key conjunct is re-checked by the executor; drop it
            // from the residual.
            let used = ScalarExpr::col_eq_col(outer_key, inner_key);
            let residual = Predicate::from_conjuncts(
                pred.conjuncts()
                    .iter()
                    .filter(|c| **c != used)
                    .cloned()
                    .collect(),
            );
            PlanNode::IndexNlJoin {
                outer: Box::new(outer_plan),
                inner,
                keys: (outer_key, inner_key),
                inner_filter,
                residual,
            }
        }
        // Fallback (costing never selects these for joins).
        _ => PlanNode::HashJoin {
            build: Box::new(l_plan),
            probe: Box::new(r_plan),
            keys: keys.clone(),
            residual,
        },
    };
    PhysPlan { schema, node }
}

/// Partition equi-join keys as (left attr, right attr).
fn split_keys(pred: &Predicate, l_schema: &Schema, r_schema: &Schema) -> Vec<(AttrId, AttrId)> {
    pred.equijoin_keys()
        .into_iter()
        .filter_map(|(a, b)| {
            if l_schema.position_of(a).is_some() && r_schema.position_of(b).is_some() {
                Some((a, b))
            } else if l_schema.position_of(b).is_some() && r_schema.position_of(a).is_some() {
                Some((b, a))
            } else {
                None
            }
        })
        .collect()
}

/// Non-equi-join conjuncts of a join predicate.
fn residual_pred(pred: &Predicate) -> Predicate {
    Predicate::from_conjuncts(
        pred.conjuncts()
            .iter()
            .filter(|c| {
                !matches!(
                    c,
                    ScalarExpr::Cmp { op: CmpOp::Eq, lhs, rhs }
                        if matches!(
                            (lhs.as_ref(), rhs.as_ref()),
                            (ScalarExpr::Col(_), ScalarExpr::Col(_))
                        )
                )
            })
            .cloned()
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::dag::Dag;
    use crate::opt::costing::MatSet;
    use crate::update::UpdateModel;
    use mvmqo_relalg::catalog::{Catalog, ColumnSpec};
    use mvmqo_relalg::logical::LogicalExpr;
    use mvmqo_relalg::types::DataType;

    fn fixture() -> (Catalog, Dag, EqId, Vec<TableId>) {
        let mut catalog = Catalog::new();
        let a = catalog.add_table(
            "a",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("x", DataType::Int, 50.0),
            ],
            10_000.0,
            &["id"],
        );
        let b = catalog.add_table(
            "b",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("a_id", DataType::Int, 10_000.0),
            ],
            50_000.0,
            &["id"],
        );
        let a_id = catalog.table(a).attr("id");
        let b_aid = catalog.table(b).attr("a_id");
        let expr = LogicalExpr::Join {
            left: LogicalExpr::scan(a),
            right: LogicalExpr::scan(b),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
        };
        let mut dag = Dag::new();
        let root = dag.insert_view(&catalog, "v", &expr);
        (catalog, dag, root, vec![a, b])
    }

    #[test]
    fn program_contains_view_and_steps() {
        let (catalog, dag, root, tables) = fixture();
        let updates =
            UpdateModel::percentage(tables.clone(), 10.0, |t| catalog.table(t).stats.rows);
        let mut mats = MatSet::default();
        mats.full.insert(root);
        for t in &tables {
            mats.indices
                .insert((StoredRef::Base(*t), catalog.table(*t).primary_key[0]));
        }
        let engine = CostEngine::new(&dag, &catalog, &updates, CostModel::default(), mats);
        let program = extract_program(&engine, vec![("v".into(), root)]);
        assert_eq!(program.views.len(), 1);
        assert_eq!(program.steps.len(), updates.len());
        assert!(program.full_plans.contains_key(&root));
        // Each step affecting the view must carry a merge or the view must
        // be a final recompute.
        if program.final_recomputes.is_empty() {
            assert!(program.steps.iter().any(|s| !s.merges.is_empty()));
        }
    }

    #[test]
    fn full_plan_of_view_is_a_join_tree() {
        let (catalog, dag, root, tables) = fixture();
        let updates = UpdateModel::percentage(tables, 10.0, |t| catalog.table(t).stats.rows);
        let engine = CostEngine::new(
            &dag,
            &catalog,
            &updates,
            CostModel::default(),
            MatSet {
                full: [root].into_iter().collect(),
                ..Default::default()
            },
        );
        let plan = extract_full(&engine, root);
        let rendered = plan.to_string();
        assert!(
            rendered.contains("HashJoin")
                || rendered.contains("MergeJoin")
                || rendered.contains("IndexNlJoin"),
            "plan: {rendered}"
        );
        assert_eq!(plan.schema.len(), dag.eq(root).schema.len());
    }

    #[test]
    fn diff_plan_reads_delta_log() {
        let (catalog, dag, root, tables) = fixture();
        let updates = UpdateModel::percentage(tables.clone(), 5.0, |t| catalog.table(t).stats.rows);
        let mut mats = MatSet {
            full: [root].into_iter().collect(),
            ..Default::default()
        };
        for t in &tables {
            mats.indices
                .insert((StoredRef::Base(*t), catalog.table(*t).primary_key[0]));
        }
        let engine = CostEngine::new(&dag, &catalog, &updates, CostModel::default(), mats);
        let plan = extract_diff(&engine, root, UpdateId(0), false);
        let rendered = plan.to_string();
        assert!(rendered.contains("ScanDelta"), "plan: {rendered}");
    }

    #[test]
    fn residual_and_keys_partition_predicate() {
        let (catalog, _, _, tables) = fixture();
        let a_id = catalog.table(tables[0]).attr("id");
        let a_x = catalog.table(tables[0]).attr("x");
        let b_aid = catalog.table(tables[1]).attr("a_id");
        let pred = Predicate::from_conjuncts(vec![
            ScalarExpr::col_eq_col(a_id, b_aid),
            ScalarExpr::col_cmp_lit(a_x, CmpOp::Gt, 1i64),
        ]);
        let l_schema = catalog.table(tables[0]).schema.clone();
        let r_schema = catalog.table(tables[1]).schema.clone();
        let keys = split_keys(&pred, &l_schema, &r_schema);
        assert_eq!(keys, vec![(a_id, b_aid)]);
        let residual = residual_pred(&pred);
        assert_eq!(residual.conjuncts().len(), 1);
    }
}
