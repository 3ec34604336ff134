//! The re-entrant optimizer session.
//!
//! The paper runs its §4–§6 machinery once, offline: build the AND-OR DAG,
//! compute differential properties, greedily select extra materializations.
//! A continuously running warehouse re-plans every time the view set or the
//! statistics drift — and paying the full pipeline on every trigger makes
//! optimization time itself the bottleneck as view sets grow (§7.5).
//!
//! [`Optimizer`] keeps the whole pipeline state alive between plans:
//!
//! * the **DAG** is an incrementally extensible arena — [`Optimizer::add_view`]
//!   unifies a new view's expressions into the existing DAG (reusing every
//!   eq/op node and subsumption derivation the memo already holds),
//!   [`Optimizer::add_query`] does the same for a read-only query of §6.2's
//!   workload extension, and [`Optimizer::remove_view`] detaches a root and
//!   garbage-collects what is no longer reachable;
//! * the **differential properties** and the cost engine's **memo slots**
//!   survive across plans — statistics drift recomputes only the properties
//!   of nodes depending on the drifted tables, and dirty-bit propagation up
//!   the DAG re-costs only the slots those changes invalidate;
//! * the **greedy selection is warm-started** from the previous plan: the
//!   prior selection is revalidated in place (demoting picks the changed
//!   problem no longer justifies), and the benefit heap is seeded with
//!   cached benefits so unchanged candidates are not re-costed — the lazy
//!   (monotonicity) loop re-evaluates a candidate before committing it, so
//!   a stale seed costs at most one extra evaluation.
//!
//! The first [`Optimizer::plan`] is a cold build; subsequent plans after
//! `add_view` / `add_query` / `remove_view` /
//! [`Optimizer::set_update_model`] pay incremental cost. One deliberate
//! approximation: pure statistics drift (same update numbering, different
//! batch-size estimates) re-seeds the heap with the cached benefits rather
//! than re-evaluating every candidate — a candidate whose benefit was
//! negative before the drift and would have turned positive can be missed. Drift is bounded by the re-plan
//! policy (a quarter of the base rows by default), and the integration
//! suite (`tests/tests/reoptimizer.rs`) checks warm add-view and drift
//! replans against the cold plan of the same problem.

use crate::api::{summarize, OptimizerReport, PlanPhases};
use crate::cost::CostModel;
use crate::dag::{
    add_subsumption_derivations_incremental, Dag, DagRoot, EqId, SubsumeState, SubsumptionReport,
};
use crate::diff::DiffProps;
use crate::opt::{
    run_greedy_warm, Candidate, CostEngine, EqSet, GreedyOptions, MatSet, SavedMemo, StoredRef,
    WarmStart,
};
use crate::plan::extract_program;
use crate::update::UpdateModel;
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::hash::{FxHashMap, FxHashSet};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::schema::AttrId;
use std::time::Instant;

/// How a [`Optimizer::plan`] call obtained its result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// Full pipeline: DAG-wide property computation, memo recompute, every
    /// candidate's benefit evaluated.
    Cold,
    /// Persisted state reused; only dirtied properties, slots, and benefits
    /// re-derived.
    Incremental,
}

impl std::fmt::Display for PlanMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanMode::Cold => f.write_str("cold"),
            PlanMode::Incremental => f.write_str("incremental"),
        }
    }
}

/// What one [`Optimizer::plan`] call produced.
#[derive(Debug)]
pub struct PlanOutcome {
    pub report: OptimizerReport,
    pub mode: PlanMode,
}

/// A persistent optimizer session (see the module docs). `Clone` forks
/// the whole session state — useful for what-if planning against the
/// same warmed-up memo.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    dag: Dag,
    subsume_state: SubsumeState,
    /// Cumulative over the DAG's whole life (derivations of since-removed
    /// views included).
    subsumption: SubsumptionReport,
    updates: UpdateModel,
    cost_model: CostModel,
    options: GreedyOptions,
    initial_indices: Vec<(TableId, AttrId)>,
    /// Read-only queries by root name, with their executions per refresh
    /// cycle (§6.2). Every other root is a user view.
    queries: FxHashMap<String, f64>,
    mats: MatSet,
    props: Option<DiffProps>,
    memo: Option<SavedMemo>,
    warm: WarmStart,
    /// Nodes whose memo slots must be recomputed at the next plan (new
    /// nodes, nodes that gained alternatives, nodes whose physical-design
    /// inputs — materializations, indices — changed under them).
    dirty: EqSet,
    /// Surviving nodes whose cached *benefits* (not slots) went stale —
    /// e.g. descendants of a removed view root that lost sharing.
    benefit_stale: EqSet,
    /// Structural seeds for benefit staleness: genuinely new nodes and
    /// nodes whose physical-design membership changed. Narrower than
    /// `dirty` — a node that merely gained an alternative whose slot value
    /// did not move leaves benefits below it intact (materialization only
    /// ever lowers other paths' costs, so an alternative that loses at
    /// rest keeps losing under any trial outside its own cone).
    seed_dirty: EqSet,
    /// Tables whose update-model row estimates changed since the last plan.
    drift_tables: Vec<TableId>,
    /// Catalog base-table row counts the persisted properties were computed
    /// against — a caller that refreshes catalog statistics between plans
    /// (the warehouse folds live row counts in before every replan) gets
    /// the affected tables picked up as drift automatically.
    last_base_rows: FxHashMap<TableId, f64>,
    /// True when some base table's catalog row count moved by more than
    /// ~10% since the last plan. The trust-the-cached-benefits drift
    /// approximation is justified only for bounded drift; a severe shift
    /// falls back to fresh evaluation over the changed cone.
    severe_drift: bool,
}

impl Optimizer {
    pub fn new(cost_model: CostModel, options: GreedyOptions) -> Self {
        Optimizer {
            cost_model,
            options,
            ..Default::default()
        }
    }

    /// The session's DAG — the executable program's node ids resolve here.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// The current greedy knobs.
    pub fn options(&self) -> &GreedyOptions {
        &self.options
    }

    // ==================================================================
    // View set
    // ==================================================================

    /// Unify a view's maintenance expressions into the existing DAG and
    /// extend the subsumption derivations incrementally. Panics on an
    /// invalid expression; validate against the catalog first when the
    /// view comes from user input.
    pub fn add_view(&mut self, catalog: &mut Catalog, view: &ViewDef) -> EqId {
        let root = self.insert_root(catalog, view);
        // The root becomes a user view: materialized, with a locator index
        // for delete-merges when the physical design has initial indices
        // (§7.1). If it (or an index on it) was a *chosen* extra before, it
        // is one no longer — the locator in particular is now *forced*, so
        // it must not sit in the revalidation set where a warm replan could
        // demote it.
        self.mark_with_consumers(root);
        self.mats.full.insert(root);
        let owned_by_root = |c: &Candidate| {
            matches!(c, Candidate::Full(e) if *e == root)
                || matches!(c, Candidate::Index(StoredRef::Mat(e), _) if *e == root)
        };
        self.warm.prior_chosen.retain(|c| !owned_by_root(c));
        self.warm.benefits.retain(|c, _| !owned_by_root(c));
        if !self.initial_indices.is_empty() {
            if let Some(first) = self.dag.eq(root).schema.ids().first() {
                self.mats.indices.insert((StoredRef::Mat(root), *first));
            }
        } else {
            // No initial indices (the Figure 5(b) setting): views start
            // bare, so a previously *chosen* index on this node is dropped
            // — the greedy phase can re-earn it as a fresh candidate.
            self.mats
                .indices
                .retain(|(t, _)| *t != StoredRef::Mat(root));
        }
        root
    }

    /// Add a read-only query that runs `frequency` times per refresh cycle
    /// (§6.2's workload extension). It joins the DAG like a view, but is
    /// not materialized: its frequency-weighted evaluation cost joins the
    /// objective, so greedy selection picks extra results and indices that
    /// speed it up and stay cheap to maintain. Panics on an invalid
    /// expression, like [`Optimizer::add_view`].
    pub fn add_query(&mut self, catalog: &mut Catalog, query: &ViewDef, frequency: f64) -> EqId {
        let root = self.insert_root(catalog, query);
        self.queries.insert(query.name.clone(), frequency);
        // Every benefit under the root now counts the query's cost too.
        self.benefit_stale.insert(root);
        root
    }

    /// The DAG insertion `add_view` and `add_query` share.
    fn insert_root(&mut self, catalog: &mut Catalog, view: &ViewDef) -> EqId {
        view.expr
            .validate(catalog)
            .unwrap_or_else(|err| panic!("invalid view {}: {err}", view.name));
        let eqs_before = self.dag.eq_arena_size();
        let ops_before = self.dag.op_arena_size();
        let root = self.dag.insert_view(catalog, view.name.clone(), &view.expr);
        let pass = add_subsumption_derivations_incremental(
            &mut self.dag,
            catalog,
            &mut self.subsume_state,
            EqId(eqs_before as u32),
        );
        self.subsumption.absorb(pass);
        // Every new node needs slots; every parent of a new op gained an
        // alternative and must be re-costed.
        for id in eqs_before..self.dag.eq_arena_size() {
            self.dirty.insert(EqId(id as u32));
            self.seed_dirty.insert(EqId(id as u32));
        }
        for id in ops_before..self.dag.op_arena_size() {
            self.dirty
                .insert(self.dag.op(crate::dag::OpId(id as u32)).parent);
        }
        root
    }

    /// The roots of user views (every root that is not a query's).
    fn view_roots(&self) -> impl Iterator<Item = &DagRoot> {
        self.dag
            .roots()
            .iter()
            .filter(|r| !self.queries.contains_key(&r.name))
    }

    /// Detach a view or query and garbage-collect. Returns false if none
    /// carries `name`. Surviving nodes that lost sharing get their cached
    /// benefits invalidated; persisted state referencing collected nodes is
    /// pruned.
    pub fn remove_view(&mut self, name: &str) -> bool {
        let Some(root) = self
            .dag
            .roots()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.eq)
        else {
            return false;
        };
        // Whatever sat under this root loses sharing — collect before GC,
        // keep the survivors afterwards.
        let cone = WarmStart::stale_closure(&self.dag, [root]);
        if self.dag.remove_view(name).is_none() {
            return false;
        }
        let was_query = self.queries.remove(name).is_some();
        self.benefit_stale
            .extend(cone.into_iter().filter(|e| self.dag.eq_is_live(*e)));
        // A view's root was forced into the materialized set; a query's
        // never was, and a chosen materialization of it stays to be
        // revalidated like any other pick.
        if !was_query && !self.view_roots().any(|r| r.eq == root) {
            self.mats.full.remove(&root);
            self.mats
                .indices
                .retain(|(t, _)| *t != StoredRef::Mat(root));
            self.warm.benefits.remove(&Candidate::Full(root));
            if self.dag.eq_is_live(root) {
                // Shared interior node: consumers lose the forced
                // materialization and must be re-costed.
                self.mark_with_consumers(root);
            }
        }
        self.prune_dead();
        true
    }

    /// Drop persisted state that references garbage-collected nodes.
    fn prune_dead(&mut self) {
        let dag = &self.dag;
        self.mats.full.retain(|e| dag.eq_is_live(*e));
        self.mats.diffs.retain(|(e, _)| dag.eq_is_live(*e));
        self.mats.indices.retain(|(t, _)| match t {
            StoredRef::Mat(e) => dag.eq_is_live(*e),
            StoredRef::Base(t) => dag.base_eq(*t).is_some(),
        });
        let live_cand = |c: &Candidate| match c {
            Candidate::Full(e) | Candidate::Diff(e, _) => dag.eq_is_live(*e),
            Candidate::Index(StoredRef::Mat(e), _) => dag.eq_is_live(*e),
            Candidate::Index(StoredRef::Base(t), _) => dag.base_eq(*t).is_some(),
        };
        self.warm.prior_chosen.retain(live_cand);
        self.warm.benefits.retain(|c, _| live_cand(c));
        self.dirty.retain(|e| dag.eq_is_live(*e));
        self.benefit_stale.retain(|e| dag.eq_is_live(*e));
        self.seed_dirty.retain(|e| dag.eq_is_live(*e));
        self.subsume_state.prune_dead(dag);
    }

    // ==================================================================
    // Problem parameters
    // ==================================================================

    /// Install a new update model. If only the per-table row estimates
    /// moved (same 2n numbering), the next plan refreshes properties for
    /// the dependent nodes only; a changed numbering invalidates the
    /// per-update arrays wholesale (the memo is rebuilt, the DAG is not).
    pub fn set_update_model(&mut self, updates: UpdateModel) {
        let same_numbering = self.updates.len() == updates.len()
            && self
                .updates
                .steps()
                .iter()
                .zip(updates.steps())
                .all(|(a, b)| a.table == b.table && a.kind == b.kind);
        if same_numbering {
            for (a, b) in self.updates.steps().iter().zip(updates.steps()) {
                if (a.rows - b.rows).abs() > 1e-9 * a.rows.abs().max(1.0)
                    && !self.drift_tables.contains(&a.table)
                {
                    self.drift_tables.push(a.table);
                }
            }
        } else {
            // The numbering changed: every per-update array (differential
            // properties, memo diff slots) is keyed by it and meaningless
            // now — even when the step *count* happens to match (e.g.
            // successive batches naming different table pairs). Drop the
            // persisted properties and memo so the next plan recomputes
            // them against the new numbering (the DAG itself is kept).
            self.props = None;
            self.memo = None;
            self.mats.diffs.clear();
            self.warm
                .prior_chosen
                .retain(|c| !matches!(c, Candidate::Diff(_, _)));
            self.warm
                .benefits
                .retain(|c, _| !matches!(c, Candidate::Diff(_, _)));
        }
        self.updates = updates;
    }

    /// Install the pre-existing (PK) index set. Differences against the
    /// previous set adjust the materialized-set state and dirty the
    /// affected relations' consumers. Following §7.1, user views carry a
    /// locator index exactly when any initial index exists.
    pub fn set_initial_indices(&mut self, indices: Vec<(TableId, AttrId)>) {
        let old: FxHashSet<(TableId, AttrId)> = self.initial_indices.iter().copied().collect();
        let new: FxHashSet<(TableId, AttrId)> = indices.iter().copied().collect();
        for &(t, a) in old.difference(&new) {
            self.mats.indices.remove(&(StoredRef::Base(t), a));
            if let Some(e) = self.dag.base_eq(t) {
                self.mark_with_consumers(e);
            }
        }
        for &(t, a) in new.difference(&old) {
            self.mats.indices.insert((StoredRef::Base(t), a));
            if let Some(e) = self.dag.base_eq(t) {
                self.mark_with_consumers(e);
            }
        }
        let had = !self.initial_indices.is_empty();
        let has = !indices.is_empty();
        if had != has {
            let roots: Vec<EqId> = self.view_roots().map(|r| r.eq).collect();
            for root in roots {
                let Some(&first) = self.dag.eq(root).schema.ids().first() else {
                    continue;
                };
                if has {
                    self.mats.indices.insert((StoredRef::Mat(root), first));
                } else {
                    self.mats.indices.remove(&(StoredRef::Mat(root), first));
                }
                self.mark_with_consumers(root);
            }
        }
        self.initial_indices = indices;
    }

    pub fn set_options(&mut self, options: GreedyOptions) {
        self.options = options;
    }

    pub fn set_cost_model(&mut self, cost_model: CostModel) {
        self.cost_model = cost_model;
    }

    /// Mark a node and its direct consumers for memo recomputation (used
    /// when physical-design state changed outside the engine's own
    /// toggles).
    fn mark_with_consumers(&mut self, e: EqId) {
        self.dirty.insert(e);
        self.seed_dirty.insert(e);
        let parents: Vec<EqId> = self
            .dag
            .eq(e)
            .parents
            .iter()
            .map(|&op| self.dag.op(op).parent)
            .collect();
        self.dirty.extend(parents);
    }

    // ==================================================================
    // Planning
    // ==================================================================

    /// Produce a maintenance plan for the current view set. The first call
    /// is a cold build; later calls reuse the persisted DAG, properties,
    /// memo, and benefit cache, paying only for what changed.
    pub fn plan(&mut self, catalog: &mut Catalog) -> PlanOutcome {
        let start = Instant::now();
        // Catalog statistics drift: base tables whose row counts moved
        // since the persisted properties were computed count as drifted
        // even when the update model itself is unchanged.
        for &t in self.dag.base_tables() {
            let rows = catalog.table(t).stats.rows;
            let Some(prev) = self.last_base_rows.get(&t).copied() else {
                continue;
            };
            let delta = (prev - rows).abs();
            if delta > 1e-9 * prev.abs().max(1.0) && !self.drift_tables.contains(&t) {
                self.drift_tables.push(t);
            }
            if delta > 0.1 * prev.abs().max(1.0) {
                self.severe_drift = true;
            }
        }
        let structural_dirty: EqSet = self
            .dirty
            .iter()
            .copied()
            .filter(|e| self.dag.eq_is_live(*e))
            .collect();
        let mut phases = PlanPhases::default();
        let (mut engine, mode, slot_changed) = match (self.props.take(), self.memo.take()) {
            (Some(mut props), Some(memo)) => {
                let stat_changed = props.refresh(
                    &self.dag,
                    catalog,
                    &self.updates,
                    &self.drift_tables,
                    &structural_dirty,
                );
                phases.stat_refresh = start.elapsed();
                let mut memo_dirty = structural_dirty.clone();
                memo_dirty.extend(stat_changed);
                let (engine, slot_changed) = CostEngine::resume(
                    &self.dag,
                    catalog,
                    &self.updates,
                    self.cost_model,
                    self.mats.clone(),
                    props,
                    memo,
                    &memo_dirty,
                );
                (engine, PlanMode::Incremental, slot_changed)
            }
            _ => {
                let props = DiffProps::compute(&self.dag, catalog, &self.updates);
                phases.stat_refresh = start.elapsed();
                let engine = CostEngine::from_props(
                    &self.dag,
                    catalog,
                    &self.updates,
                    self.cost_model,
                    self.mats.clone(),
                    props,
                );
                (engine, PlanMode::Cold, Vec::new())
            }
        };
        engine.query_workload = self
            .dag
            .roots()
            .iter()
            .filter_map(|r| self.queries.get(&r.name).map(|&freq| (r.eq, freq)))
            .collect();
        phases.memo = start.elapsed() - phases.stat_refresh;

        let mut warm = std::mem::take(&mut self.warm);
        warm.stale = match mode {
            PlanMode::Cold => None,
            PlanMode::Incremental => {
                let mut seeds: EqSet = self
                    .seed_dirty
                    .drain()
                    .filter(|e| self.dag.eq_is_live(*e))
                    .collect();
                seeds.extend(self.benefit_stale.drain());
                if self.drift_tables.is_empty() || self.severe_drift {
                    // No drift (every remaining benefit shift shows up as
                    // a slot-value change somewhere above the candidate) —
                    // or drift too large for the cached-benefit
                    // approximation to stay honest: re-cost the changed
                    // cone.
                    seeds.extend(slot_changed);
                }
                // With bounded drift, slot changes blanket the dependent
                // subgraph; feeding them in would re-evaluate every
                // candidate. The cached benefits stand in as heap seeds
                // instead — the lazy loop re-evaluates a candidate before
                // committing it, and the prior selection is revalidated
                // with fresh trials (see the module docs for the accepted
                // approximation).
                Some(WarmStart::stale_closure(&self.dag, seeds))
            }
        };

        let t_greedy = Instant::now();
        let greedy = run_greedy_warm(&mut engine, &self.options, &mut warm);
        phases.greedy = t_greedy.elapsed();
        let t_extract = Instant::now();
        let views = self.view_roots().map(|r| (r.name.clone(), r.eq)).collect();
        let program = extract_program(&engine, views);
        phases.extract = t_extract.elapsed();
        let report = summarize(
            &self.dag,
            &engine,
            &greedy,
            self.subsumption,
            program,
            start,
            phases,
        );
        let (mats, props, memo) = engine.into_memo();
        self.mats = mats;
        self.props = Some(props);
        self.memo = Some(memo);
        self.warm = warm;
        self.dirty.clear();
        self.benefit_stale.clear();
        self.seed_dirty.clear();
        self.drift_tables.clear();
        self.severe_drift = false;
        self.last_base_rows = self
            .dag
            .base_tables()
            .iter()
            .map(|&t| (t, catalog.table(t).stats.rows))
            .collect();
        PlanOutcome { report, mode }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::catalog::ColumnSpec;
    use mvmqo_relalg::expr::{Predicate, ScalarExpr};
    use mvmqo_relalg::logical::LogicalExpr;
    use mvmqo_relalg::types::DataType;

    struct Fixture {
        catalog: Catalog,
        views: Vec<ViewDef>,
        tables: Vec<TableId>,
    }

    /// Three views over a/b/c/d with the shared B⋈C subexpression.
    fn fixture() -> Fixture {
        let mut c = Catalog::new();
        let a = c.add_table(
            "a",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("x", DataType::Int, 50.0),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            100_000.0,
            &["id"],
        );
        let b = c.add_table(
            "b",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("a_id", DataType::Int, 100_000.0),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            500_000.0,
            &["id"],
        );
        let cc = c.add_table(
            "c",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("b_id", DataType::Int, 500_000.0),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            2_000_000.0,
            &["id"],
        );
        let d = c.add_table(
            "d",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("b_id", DataType::Int, 500_000.0),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            750_000.0,
            &["id"],
        );
        let a_id = c.table(a).attr("id");
        let b_aid = c.table(b).attr("a_id");
        let b_id = c.table(b).attr("id");
        let c_bid = c.table(cc).attr("b_id");
        let d_bid = c.table(d).attr("b_id");
        let bc = LogicalExpr::join(
            LogicalExpr::scan(b),
            LogicalExpr::scan(cc),
            Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid)),
        );
        let v1 = ViewDef::new(
            "v1",
            LogicalExpr::Join {
                left: LogicalExpr::scan(a),
                right: bc.clone(),
                predicate: Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
            }
            .into(),
        );
        let v2 = ViewDef::new(
            "v2",
            LogicalExpr::Join {
                left: bc.clone(),
                right: LogicalExpr::scan(d),
                predicate: Predicate::from_expr(ScalarExpr::col_eq_col(b_id, d_bid)),
            }
            .into(),
        );
        let v3 = ViewDef::new("v3", bc);
        Fixture {
            catalog: c,
            views: vec![v1, v2, v3],
            tables: vec![a, b, cc, d],
        }
    }

    fn pk_indices(f: &Fixture) -> Vec<(TableId, AttrId)> {
        f.tables
            .iter()
            .map(|t| (*t, f.catalog.table(*t).primary_key[0]))
            .collect()
    }

    /// `percent`% updates on the listed tables, at the fixture's row counts.
    fn model(f: &Fixture, tables: Vec<TableId>, percent: f64) -> UpdateModel {
        UpdateModel::percentage(tables, percent, |t| f.catalog.table(t).stats.rows)
    }

    /// The total cost of a fresh session's cold plan.
    fn cold_cost(
        f: &Fixture,
        mut catalog: Catalog,
        views: &[ViewDef],
        updates: UpdateModel,
    ) -> f64 {
        let mut s = Optimizer::new(CostModel::default(), GreedyOptions::default());
        s.set_initial_indices(pk_indices(f));
        s.set_update_model(updates);
        for v in views {
            s.add_view(&mut catalog, v);
        }
        s.plan(&mut catalog).report.total_cost
    }

    fn session_with(
        f: &Fixture,
        catalog: &mut Catalog,
        views: &[ViewDef],
        percent: f64,
    ) -> Optimizer {
        let mut s = Optimizer::new(CostModel::default(), GreedyOptions::default());
        s.set_initial_indices(pk_indices(f));
        s.set_update_model(UpdateModel::percentage(f.tables.clone(), percent, |t| {
            catalog.table(t).stats.rows
        }));
        for v in views {
            s.add_view(catalog, v);
        }
        s
    }

    #[test]
    fn first_plan_is_cold_then_incremental() {
        let f = fixture();
        let mut catalog = f.catalog.clone();
        let mut s = session_with(&f, &mut catalog, &f.views[..1], 5.0);
        assert_eq!(s.plan(&mut catalog).mode, PlanMode::Cold);
        s.add_view(&mut catalog, &f.views[1]);
        assert_eq!(s.plan(&mut catalog).mode, PlanMode::Incremental);
    }

    #[test]
    fn incremental_add_view_matches_cold_plan() {
        let f = fixture();
        let mut catalog = f.catalog.clone();
        let mut s = session_with(&f, &mut catalog, &f.views[..2], 5.0);
        let _ = s.plan(&mut catalog);
        s.add_view(&mut catalog, &f.views[2]);
        let warm = s.plan(&mut catalog);
        assert_eq!(warm.mode, PlanMode::Incremental);
        let cold = cold_cost(
            &f,
            f.catalog.clone(),
            &f.views,
            model(&f, f.tables.clone(), 5.0),
        );
        assert!(
            (warm.report.total_cost - cold).abs() <= 0.01 * cold,
            "incremental {} vs cold {}",
            warm.report.total_cost,
            cold
        );
        assert_eq!(warm.report.program.views.len(), 3);
    }

    #[test]
    fn add_then_remove_view_matches_never_added() {
        let f = fixture();
        let mut catalog = f.catalog.clone();
        let mut s = session_with(&f, &mut catalog, &f.views[..2], 5.0);
        let base = s.plan(&mut catalog);
        s.add_view(&mut catalog, &f.views[2]);
        let _ = s.plan(&mut catalog);
        assert!(s.remove_view("v3"));
        assert!(!s.remove_view("v3"));
        let back = s.plan(&mut catalog);
        assert_eq!(back.mode, PlanMode::Incremental);
        assert!(
            (back.report.total_cost - base.report.total_cost).abs()
                <= 0.01 * base.report.total_cost,
            "after add+remove {} vs never-added {}",
            back.report.total_cost,
            base.report.total_cost
        );
        assert_eq!(back.report.program.views.len(), 2);
    }

    #[test]
    fn drift_replan_matches_cold_plan() {
        let f = fixture();
        let mut catalog = f.catalog.clone();
        let mut s = session_with(&f, &mut catalog, &f.views[..2], 5.0);
        let _ = s.plan(&mut catalog);
        // Same numbering, shifted row estimates: incremental restat.
        s.set_update_model(UpdateModel::percentage(f.tables.clone(), 8.0, |t| {
            catalog.table(t).stats.rows
        }));
        let warm = s.plan(&mut catalog);
        assert_eq!(warm.mode, PlanMode::Incremental);
        let cold = cold_cost(
            &f,
            f.catalog.clone(),
            &f.views[..2],
            model(&f, f.tables.clone(), 8.0),
        );
        assert!(
            (warm.report.total_cost - cold).abs() <= 0.01 * cold,
            "drift incremental {} vs cold {}",
            warm.report.total_cost,
            cold
        );
    }

    #[test]
    fn update_numbering_change_still_plans_correctly() {
        let f = fixture();
        let mut catalog = f.catalog.clone();
        let mut s = session_with(&f, &mut catalog, &f.views[..2], 5.0);
        let _ = s.plan(&mut catalog);
        // Drop table d from the workload: different 2n numbering.
        let tables = vec![f.tables[0], f.tables[1], f.tables[2]];
        s.set_update_model(UpdateModel::percentage(tables.clone(), 5.0, |t| {
            catalog.table(t).stats.rows
        }));
        let warm = s.plan(&mut catalog);
        let cold = cold_cost(&f, f.catalog.clone(), &f.views[..2], model(&f, tables, 5.0));
        assert!(
            (warm.report.total_cost - cold).abs() <= 0.01 * cold,
            "structural incremental {} vs cold {}",
            warm.report.total_cost,
            cold
        );
    }

    #[test]
    fn same_length_numbering_change_rebuilds_per_update_state() {
        // Regression: a new update model naming *different tables* with the
        // same step count must not be treated as pure drift — every
        // per-update array is keyed by the numbering.
        let f = fixture();
        let mut catalog = f.catalog.clone();
        let mut s = session_with(&f, &mut catalog, &f.views[..2], 5.0);
        // Base model: updates on a and b only (4 steps).
        s.set_update_model(UpdateModel::percentage(
            vec![f.tables[0], f.tables[1]],
            5.0,
            |t| catalog.table(t).stats.rows,
        ));
        let _ = s.plan(&mut catalog);
        // Same step count, different tables: c and d.
        let new_tables = vec![f.tables[2], f.tables[3]];
        s.set_update_model(UpdateModel::percentage(new_tables.clone(), 5.0, |t| {
            catalog.table(t).stats.rows
        }));
        let warm = s.plan(&mut catalog);
        let cold = cold_cost(
            &f,
            f.catalog.clone(),
            &f.views[..2],
            model(&f, new_tables, 5.0),
        );
        assert!(
            (warm.report.total_cost - cold).abs() <= 0.01 * cold,
            "numbering change: incremental {} vs cold {}",
            warm.report.total_cost,
            cold
        );
    }

    #[test]
    fn catalog_stats_drift_is_picked_up_without_update_model_change() {
        // Regression: growing base-table row counts between plans (what the
        // warehouse's stats fold does) must refresh the persisted
        // properties even when the update model is bit-identical.
        let f = fixture();
        let mut catalog = f.catalog.clone();
        let mut s = session_with(&f, &mut catalog, &f.views[..2], 5.0);
        let updates =
            UpdateModel::percentage(f.tables.clone(), 5.0, |t| catalog.table(t).stats.rows);
        let _ = s.plan(&mut catalog);
        // Table b doubles; the update model stays the same.
        catalog.set_row_count(f.tables[1], 1_000_000.0);
        let warm = s.plan(&mut catalog);
        assert_eq!(warm.mode, PlanMode::Incremental);
        let mut catalog2 = f.catalog.clone();
        catalog2.set_row_count(f.tables[1], 1_000_000.0);
        let cold = cold_cost(&f, catalog2, &f.views[..2], updates);
        assert!(
            (warm.report.total_cost - cold).abs() <= 0.01 * cold,
            "catalog drift: incremental {} vs cold {}",
            warm.report.total_cost,
            cold
        );
    }

    #[test]
    fn audit_mode_validates_incremental_updates() {
        let f = fixture();
        let mut catalog = f.catalog.clone();
        let mut s = Optimizer::new(
            CostModel::default(),
            GreedyOptions {
                audit_incremental: true,
                ..Default::default()
            },
        );
        s.set_initial_indices(pk_indices(&f));
        s.set_update_model(UpdateModel::percentage(f.tables.clone(), 5.0, |t| {
            catalog.table(t).stats.rows
        }));
        for v in &f.views[..2] {
            s.add_view(&mut catalog, v);
        }
        let out = s.plan(&mut catalog);
        assert!(out.report.total_cost.is_finite());
    }

    /// §6.2 on the five aggregate queries at 40× each, with no views, PK
    /// indices and 5 % updates: a chosen query root is an extra like any
    /// other, never a view.
    #[test]
    fn chosen_query_roots_are_classified_as_extras() {
        let mut tpcd = mvmqo_tpcd::tpcd_catalog(0.1);
        let queries = mvmqo_tpcd::five_agg_views(&mut tpcd);
        let mut tables: Vec<TableId> = queries.iter().flat_map(|q| q.expr.base_tables()).collect();
        tables.sort_unstable();
        tables.dedup();
        let mut s = Optimizer::new(CostModel::default(), GreedyOptions::default());
        s.set_initial_indices(tpcd.pk_indices());
        s.set_update_model(UpdateModel::percentage(tables, 5.0, |t| {
            tpcd.catalog.table(t).stats.rows
        }));
        for q in &queries {
            s.add_query(&mut tpcd.catalog, q, 40.0);
        }
        let report = s.plan(&mut tpcd.catalog).report;
        let program = &report.program;
        assert!(program.views.is_empty());
        assert!(report.view_strategies.is_empty());
        for m in &report.chosen_mats {
            let permanent = program.permanent_mats.contains(&m.node);
            let temporary = program.temporary_mats.contains(&m.node);
            assert!(
                permanent != temporary,
                "{}: permanent {permanent}, temporary {temporary}",
                m.node
            );
        }
        let is_query_root = |e: EqId| s.dag().roots().iter().any(|r| r.eq == e);
        assert!(report.chosen_mats.iter().any(|m| is_query_root(m.node)));
        assert!(report.query_cost.is_finite());
        assert!(report.query_cost < report.nogreedy_cost);
    }
}
