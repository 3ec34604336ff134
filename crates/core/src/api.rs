//! One-call facade: describe the maintenance problem, get back the chosen
//! materializations, indices, estimated costs, and an executable program.

use crate::cost::CostModel;
use crate::dag::{add_subsumption_derivations, Dag, EqId, SubsumptionReport};
use crate::diff::DiffProps;
use crate::opt::{
    run_greedy, Candidate, CostEngine, GreedyOptions, MatSet, RefreshStrategy, StoredRef,
};
use crate::plan::{extract_program, Program};
use crate::update::UpdateModel;
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::schema::AttrId;
use std::time::{Duration, Instant};

/// The input to the optimizer.
#[derive(Debug, Clone)]
pub struct MaintenanceProblem {
    pub views: Vec<ViewDef>,
    pub updates: UpdateModel,
    /// Indices assumed to exist before optimization (the paper's default:
    /// one per primary key, §7.1).
    pub initial_indices: Vec<(TableId, AttrId)>,
    pub cost_model: CostModel,
    pub options: GreedyOptions,
}

impl MaintenanceProblem {
    pub fn new(views: Vec<ViewDef>, updates: UpdateModel) -> Self {
        MaintenanceProblem {
            views,
            updates,
            initial_indices: Vec::new(),
            cost_model: CostModel::default(),
            options: GreedyOptions::default(),
        }
    }

    /// Assume primary-key indices on all tables referenced by the views.
    pub fn with_pk_indices(mut self, catalog: &Catalog) -> Self {
        self.initial_indices
            .extend(pk_indices_for(catalog, &self.views));
        self
    }
}

/// Primary-key indices over every table the views reference — the paper's
/// §7.1 default physical design. Shared by the one-shot problem builder,
/// the warehouse engine, and the benchmarks so the convention lives in one
/// place.
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
    /// (the paper's "Plan Cost (sec)").
    pub total_cost: f64,
    /// Estimated cost with no extra materializations (the NoGreedy
    /// baseline for the same problem).
    pub nogreedy_cost: f64,
    pub chosen_mats: Vec<MatChoice>,
    pub chosen_diffs: Vec<(EqId, crate::update::UpdateId)>,
    pub chosen_indices: Vec<IndexChoice>,
    /// Per-view refresh strategy and estimated cost.
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

/// Build the DAG for a set of views (exposed for tests and tools).
pub fn build_dag(catalog: &mut Catalog, views: &[ViewDef]) -> (Dag, SubsumptionReport) {
    let mut dag = Dag::new();
    for v in views {
        v.expr
            .validate(catalog)
            .unwrap_or_else(|err| panic!("invalid view {}: {err}", v.name));
        dag.insert_view(catalog, v.name.clone(), &v.expr);
    }
    let report = add_subsumption_derivations(&mut dag, catalog);
    (dag, report)
}

/// A planned maintenance configuration: the optimizer report *plus* the DAG
/// it was planned against.
///
/// The executable [`Program`] refers to DAG node ids, so a caller that wants
/// to execute (rather than just inspect) the plan needs the matching DAG.
/// The one-shot pipeline used to rebuild it with [`build_dag`] and rely on
/// deterministic node numbering; a long-lived engine that re-optimizes as
/// views register/drop and statistics drift keeps the pair together.
#[derive(Debug)]
pub struct PlannedMaintenance {
    pub dag: Dag,
    pub report: OptimizerReport,
}

/// Run the full pipeline and keep the DAG: DAG construction → subsumption →
/// differential costing → greedy selection → program extraction.
///
/// One-shot façade over the re-entrant [`crate::session::Optimizer`]: each
/// call opens a fresh session, cold-plans, and returns the DAG. A caller
/// that re-plans repeatedly (view churn, statistics drift) should hold the
/// session itself and pay incremental cost instead.
pub fn plan_maintenance(catalog: &mut Catalog, problem: &MaintenanceProblem) -> PlannedMaintenance {
    let mut session = crate::session::Optimizer::new(problem.cost_model, problem.options);
    session.set_initial_indices(problem.initial_indices.clone());
    session.set_update_model(problem.updates.clone());
    for v in &problem.views {
        session.add_view(catalog, v);
    }
    let outcome = session.plan(catalog);
    PlannedMaintenance {
        dag: session.into_dag(),
        report: outcome.report,
    }
}

/// Run the full pipeline: DAG construction → subsumption → differential
/// costing → greedy selection → program extraction.
pub fn optimize(catalog: &mut Catalog, problem: &MaintenanceProblem) -> OptimizerReport {
    plan_maintenance(catalog, problem).report
}

/// A read-only query in a mixed workload: executed `frequency` times per
/// refresh cycle.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    pub query: ViewDef,
    pub frequency: f64,
}

/// §6.2's extension: optimize a workload of **queries plus periodic
/// updates**. Queries are inserted into the same DAG as the views; their
/// (frequency-weighted) evaluation cost joins the objective, so the greedy
/// phase selects extra views/indices that speed queries up *and* remain
/// cheap to maintain under the update workload. Returns the report plus the
/// estimated per-cycle query cost under the chosen configuration.
pub fn optimize_workload(
    catalog: &mut Catalog,
    problem: &MaintenanceProblem,
    queries: &[WorkloadQuery],
) -> (OptimizerReport, f64) {
    let start = Instant::now();
    let mut all_views = problem.views.clone();
    let n_views = all_views.len();
    all_views.extend(queries.iter().map(|q| q.query.clone()));
    let (dag, subsumption) = build_dag(catalog, &all_views);
    let mut phases = PlanPhases::default();
    let mut initial = MatSet::default();
    // Only the first n_views roots are materialized views; the rest are
    // query roots that contribute weighted evaluation cost.
    for root in dag.roots().iter().take(n_views) {
        initial.full.insert(root.eq);
    }
    for (t, a) in &problem.initial_indices {
        initial.indices.insert((StoredRef::Base(*t), *a));
    }
    if !problem.initial_indices.is_empty() {
        for root in dag.roots().iter().take(n_views) {
            if let Some(first) = dag.eq(root.eq).schema.ids().first() {
                initial.indices.insert((StoredRef::Mat(root.eq), *first));
            }
        }
    }
    let t = Instant::now();
    let props = DiffProps::compute(&dag, catalog, &problem.updates);
    phases.stat_refresh = t.elapsed();
    let t = Instant::now();
    let mut engine = CostEngine::from_props(
        &dag,
        catalog,
        &problem.updates,
        problem.cost_model,
        initial,
        props,
    );
    phases.memo = t.elapsed();
    engine.query_workload = dag
        .roots()
        .iter()
        .skip(n_views)
        .zip(queries)
        .map(|(r, q)| (r.eq, q.frequency))
        .collect();
    let t = Instant::now();
    let greedy = run_greedy(&mut engine, &problem.options);
    phases.greedy = t.elapsed();
    let query_cost: f64 = engine
        .query_workload
        .clone()
        .iter()
        .map(|(root, w)| w * engine.c_full(*root))
        .sum();
    let t = Instant::now();
    let program = extract_program(&engine);
    phases.extract = t.elapsed();
    let mut report = summarize(&dag, &engine, &greedy, subsumption, program, start, phases);
    // view_strategies of query roots are meaningless; keep only real views.
    report.view_strategies.truncate(n_views);
    (report, query_cost)
}

/// Shared report assembly for [`optimize`]-style entry points and the
/// re-entrant session.
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
    let view_strategies: Vec<(String, RefreshStrategy, f64)> = dag
        .roots()
        .iter()
        .map(|r| {
            let (cost, incremental) = engine.cost_full_result(r.eq);
            let strategy = if incremental {
                RefreshStrategy::Incremental
            } else {
                RefreshStrategy::Recompute
            };
            (r.name.clone(), strategy, cost)
        })
        .collect();
    OptimizerReport {
        total_cost: greedy.final_cost,
        nogreedy_cost: greedy.initial_cost,
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

    #[test]
    fn end_to_end_optimize_beats_nogreedy() {
        let (mut c, views, tables) = setup();
        let updates = UpdateModel::percentage(tables, 5.0, |t| c.table(t).stats.rows);
        let problem = MaintenanceProblem::new(views, updates).with_pk_indices(&c);
        let greedy = optimize(&mut c, &problem);
        let mut nogreedy_problem = problem.clone();
        nogreedy_problem.options.mode = Mode::NoGreedy;
        let nogreedy = optimize(&mut c, &nogreedy_problem);
        assert!(greedy.total_cost <= nogreedy.total_cost + 1e-6);
        assert!(greedy.total_cost.is_finite() && greedy.total_cost > 0.0);
        assert_eq!(greedy.view_strategies.len(), 2);
        assert_eq!(greedy.program.views.len(), 2);
    }

    #[test]
    fn report_counts_dag_sizes() {
        let (mut c, views, tables) = setup();
        let updates = UpdateModel::percentage(tables, 5.0, |t| c.table(t).stats.rows);
        let problem = MaintenanceProblem::new(views, updates).with_pk_indices(&c);
        let report = optimize(&mut c, &problem);
        assert!(report.dag_eq_nodes >= 7);
        assert!(report.dag_op_nodes > report.dag_eq_nodes);
        assert!(report.benefit_evaluations > 0);
    }

    #[test]
    fn query_workload_extension_materializes_query_results() {
        let (mut c, views, tables) = setup();
        // Frequent read-only query over the shared subexpression.
        let queries = vec![WorkloadQuery {
            query: views[1].clone(),
            frequency: 50.0,
        }];
        let updates = UpdateModel::percentage(tables, 5.0, |t| c.table(t).stats.rows);
        let problem = MaintenanceProblem::new(vec![views[0].clone()], updates).with_pk_indices(&c);
        let (report, query_cost) = optimize_workload(&mut c, &problem, &queries);
        // The query's root (or a subexpression of it) should be worth
        // materializing at this frequency, driving query cost below the
        // from-scratch evaluation cost.
        assert!(query_cost.is_finite());
        assert!(report.total_cost <= report.nogreedy_cost + 1e-6);
        assert!(
            !report.chosen_mats.is_empty() || !report.chosen_indices.is_empty(),
            "a 50×-per-cycle query should justify some materialization"
        );
    }

    #[test]
    fn plan_maintenance_is_reentrant_over_evolving_view_set() {
        // A long-lived engine re-plans as views register and drop; repeated
        // calls against the same catalog must work, and the returned DAG
        // must match the program's node ids.
        let (mut c, views, tables) = setup();
        let updates = UpdateModel::percentage(tables, 5.0, |t| c.table(t).stats.rows);
        let p1 =
            MaintenanceProblem::new(vec![views[0].clone()], updates.clone()).with_pk_indices(&c);
        let first = plan_maintenance(&mut c, &p1);
        assert_eq!(first.report.program.views.len(), 1);

        let p2 = MaintenanceProblem::new(views.clone(), updates).with_pk_indices(&c);
        let second = plan_maintenance(&mut c, &p2);
        assert_eq!(second.report.program.views.len(), 2);
        for (name, e) in &second.report.program.views {
            assert!(
                second
                    .dag
                    .roots()
                    .iter()
                    .any(|r| &r.name == name && r.eq == *e),
                "program node {e} for {name} missing from returned DAG"
            );
        }
        assert!(second.report.total_cost.is_finite());
    }

    #[test]
    fn pk_indices_are_attached() {
        let (c, views, _) = setup();
        let problem = MaintenanceProblem::new(views, UpdateModel::default());
        let with = problem.with_pk_indices(&c);
        assert_eq!(with.initial_indices.len(), 3);
    }
}
