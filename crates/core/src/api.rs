//! The optimizer's report types: what a [`crate::session::Optimizer`]
//! plan returns — the chosen materializations and indices, the estimated
//! costs, the executable program and where the planning time went.

use crate::dag::{Dag, EqId, SubsumptionReport};
use crate::opt::{Candidate, CostEngine, RefreshStrategy, StoredRef};
use crate::plan::Program;
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::schema::AttrId;
use std::time::{Duration, Instant};

/// Primary-key indices over every table the views reference — the paper's
/// §7.1 default physical design. Shared by the warehouse engine, the
/// benchmarks and the tests so the convention lives in one place.
pub fn pk_indices_for(catalog: &Catalog, views: &[ViewDef]) -> Vec<(TableId, AttrId)> {
    let mut tables: Vec<TableId> = views.iter().flat_map(|v| v.expr.base_tables()).collect();
    tables.sort_unstable();
    tables.dedup();
    let mut out = Vec::new();
    for t in tables {
        for pk in &catalog.table(t).primary_key {
            out.push((t, *pk));
        }
    }
    out
}

/// One chosen extra materialization.
#[derive(Debug, Clone)]
pub struct MatChoice {
    pub node: EqId,
    pub description: String,
    pub strategy: RefreshStrategy,
    /// Permanent (maintained across refreshes) or temporary (discarded after
    /// this refresh).
    pub permanent: bool,
    pub benefit: f64,
}

/// One chosen index.
#[derive(Debug, Clone)]
pub struct IndexChoice {
    pub target: StoredRef,
    pub attr: AttrId,
    pub permanent: bool,
    pub benefit: f64,
}

/// Wall-clock time of one plan's phases, in the order they run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanPhases {
    /// Differential properties (§5.2): a full pass when cold, the dirty-bit
    /// refresh when incremental.
    pub stat_refresh: Duration,
    /// Memo slots: the bottom-up recompute when cold, dirty propagation
    /// from the saved memo when incremental.
    pub memo: Duration,
    /// Greedy selection (§6), revalidation of an inherited selection
    /// included.
    pub greedy: Duration,
    /// Maintenance-program extraction.
    pub extract: Duration,
}

impl PlanPhases {
    /// The phases under their span names.
    pub fn spans(&self) -> [(&'static str, Duration); 4] {
        [
            ("core.stat_refresh", self.stat_refresh),
            ("core.memo_resume", self.memo),
            ("core.greedy", self.greedy),
            ("core.extract", self.extract),
        ]
    }
}

/// Everything the optimizer reports back.
#[derive(Debug, Clone)]
pub struct OptimizerReport {
    /// Estimated total maintenance cost of the final configuration
    /// (the paper's "Plan Cost (sec)"), plus `query_cost`.
    pub total_cost: f64,
    /// Estimated cost with no extra materializations (the NoGreedy
    /// baseline for the same problem).
    pub nogreedy_cost: f64,
    /// The frequency-weighted cost of the session's queries under the
    /// final configuration (§6.2); 0 without queries.
    pub query_cost: f64,
    pub chosen_mats: Vec<MatChoice>,
    pub chosen_diffs: Vec<(EqId, crate::update::UpdateId)>,
    pub chosen_indices: Vec<IndexChoice>,
    /// Per-view refresh strategy and estimated cost (views only, not
    /// queries).
    pub view_strategies: Vec<(String, RefreshStrategy, f64)>,
    pub subsumption: SubsumptionReport,
    pub dag_eq_nodes: usize,
    pub dag_op_nodes: usize,
    pub benefit_evaluations: usize,
    pub full_slot_recomputes: u64,
    pub diff_slot_recomputes: u64,
    pub optimization_time: Duration,
    /// The executable maintenance program.
    pub program: Program,
    /// Where `optimization_time` went.
    pub phases: PlanPhases,
}

/// Assemble the report of one [`crate::session::Optimizer::plan`].
pub(crate) fn summarize(
    dag: &Dag,
    engine: &CostEngine<'_>,
    greedy: &crate::opt::GreedyResult,
    subsumption: SubsumptionReport,
    program: Program,
    start: Instant,
    phases: PlanPhases,
) -> OptimizerReport {
    let mut chosen_mats = Vec::new();
    let mut chosen_diffs = Vec::new();
    let mut chosen_indices = Vec::new();
    for (cand, benefit) in &greedy.chosen {
        match *cand {
            Candidate::Full(e) => {
                let (_, incremental) = engine.cost_full_result(e);
                let strategy = if incremental {
                    RefreshStrategy::Incremental
                } else {
                    RefreshStrategy::Recompute
                };
                chosen_mats.push(MatChoice {
                    node: e,
                    description: crate::opt::describe_candidate(dag, *cand),
                    strategy,
                    permanent: incremental,
                    benefit: *benefit,
                });
            }
            Candidate::Diff(e, u) => chosen_diffs.push((e, u)),
            Candidate::Index(target, attr) => {
                let (_, maintained) = engine.cost_index(target);
                chosen_indices.push(IndexChoice {
                    target,
                    attr,
                    permanent: maintained,
                    benefit: *benefit,
                });
            }
        }
    }
    let view_strategies: Vec<(String, RefreshStrategy, f64)> = program
        .views
        .iter()
        .map(|(name, e)| {
            let (cost, incremental) = engine.cost_full_result(*e);
            let strategy = if incremental {
                RefreshStrategy::Incremental
            } else {
                RefreshStrategy::Recompute
            };
            (name.clone(), strategy, cost)
        })
        .collect();
    let query_cost = engine
        .query_workload
        .iter()
        .map(|&(root, weight)| weight * engine.c_full(root))
        .sum();
    OptimizerReport {
        total_cost: greedy.final_cost,
        nogreedy_cost: greedy.initial_cost,
        query_cost,
        chosen_mats,
        chosen_diffs,
        chosen_indices,
        view_strategies,
        subsumption,
        dag_eq_nodes: dag.eq_count(),
        dag_op_nodes: dag.op_count(),
        benefit_evaluations: greedy.benefit_evaluations,
        full_slot_recomputes: engine.stats.full_slot_recomputes,
        diff_slot_recomputes: engine.stats.diff_slot_recomputes,
        optimization_time: start.elapsed(),
        program,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::Mode;
    use crate::session::Optimizer;
    use crate::update::UpdateModel;
    use mvmqo_relalg::catalog::ColumnSpec;
    use mvmqo_relalg::expr::{Predicate, ScalarExpr};
    use mvmqo_relalg::logical::LogicalExpr;
    use mvmqo_relalg::types::DataType;

    fn setup() -> (Catalog, Vec<ViewDef>, Vec<TableId>) {
        let mut c = Catalog::new();
        let a = c.add_table(
            "a",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("x", DataType::Int, 50.0),
            ],
            20_000.0,
            &["id"],
        );
        let b = c.add_table(
            "b",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("a_id", DataType::Int, 20_000.0),
            ],
            100_000.0,
            &["id"],
        );
        let d = c.add_table(
            "d",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("b_id", DataType::Int, 100_000.0),
            ],
            400_000.0,
            &["id"],
        );
        c.add_foreign_key(b, &["a_id"], a);
        c.add_foreign_key(d, &["b_id"], b);
        let a_id = c.table(a).attr("id");
        let b_aid = c.table(b).attr("a_id");
        let b_id = c.table(b).attr("id");
        let d_bid = c.table(d).attr("b_id");
        let bd = LogicalExpr::join(
            LogicalExpr::scan(b),
            LogicalExpr::scan(d),
            Predicate::from_expr(ScalarExpr::col_eq_col(b_id, d_bid)),
        );
        let v1 = ViewDef::new(
            "v1",
            LogicalExpr::Join {
                left: LogicalExpr::scan(a),
                right: bd.clone(),
                predicate: Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
            }
            .into(),
        );
        let v2 = ViewDef::new("v2", bd);
        (c, vec![v1, v2], vec![a, b, d])
    }

    /// One cold plan of `views`, plus `queries` at 50× each, with PK
    /// indices and 5 % updates on every table.
    fn plan(
        c: &mut Catalog,
        views: &[ViewDef],
        queries: &[ViewDef],
        tables: Vec<TableId>,
        mode: Mode,
    ) -> OptimizerReport {
        let options = crate::opt::GreedyOptions {
            mode,
            ..Default::default()
        };
        let mut session = Optimizer::new(crate::cost::CostModel::default(), options);
        let mut all = views.to_vec();
        all.extend_from_slice(queries);
        session.set_initial_indices(pk_indices_for(c, &all));
        session.set_update_model(UpdateModel::percentage(tables, 5.0, |t| {
            c.table(t).stats.rows
        }));
        for v in views {
            session.add_view(c, v);
        }
        for q in queries {
            session.add_query(c, q, 50.0);
        }
        session.plan(c).report
    }

    #[test]
    fn end_to_end_optimize_beats_nogreedy() {
        let (mut c, views, tables) = setup();
        let greedy = plan(&mut c, &views, &[], tables.clone(), Mode::Greedy);
        let nogreedy = plan(&mut c, &views, &[], tables, Mode::NoGreedy);
        assert!(greedy.total_cost <= nogreedy.total_cost + 1e-6);
        assert!(greedy.total_cost.is_finite() && greedy.total_cost > 0.0);
        assert_eq!(greedy.view_strategies.len(), 2);
        assert_eq!(greedy.program.views.len(), 2);
        assert_eq!(greedy.query_cost, 0.0);
    }

    #[test]
    fn report_counts_dag_sizes() {
        let (mut c, views, tables) = setup();
        let report = plan(&mut c, &views, &[], tables, Mode::Greedy);
        assert!(report.dag_eq_nodes >= 7);
        assert!(report.dag_op_nodes > report.dag_eq_nodes);
        assert!(report.benefit_evaluations > 0);
    }

    #[test]
    fn query_workload_extension_materializes_query_results() {
        let (mut c, views, tables) = setup();
        // Frequent read-only query over the shared subexpression.
        let report = plan(&mut c, &views[..1], &views[1..], tables, Mode::Greedy);
        // The query's root (or a subexpression of it) should be worth
        // materializing at this frequency, driving query cost below the
        // from-scratch evaluation cost.
        assert!(report.query_cost.is_finite() && report.query_cost > 0.0);
        assert!(report.total_cost <= report.nogreedy_cost + 1e-6);
        assert!(
            !report.chosen_mats.is_empty() || !report.chosen_indices.is_empty(),
            "a 50×-per-cycle query should justify some materialization"
        );
        assert_eq!(report.program.views.len(), 1);
        assert_eq!(report.view_strategies.len(), 1);
    }

    #[test]
    fn pk_indices_are_attached() {
        let (c, views, _) = setup();
        assert_eq!(pk_indices_for(&c, &views).len(), 3);
    }
}
