//! Differential logical properties (§5.2).
//!
//! For every equivalence node the optimizer needs, per update u ∈ 1..2n:
//!
//! * the statistics of the node's **differential** δ(e, u), and
//! * the statistics of the node's **full result in the state** where
//!   updates 1..u−1 have already been propagated (the paper stores these in
//!   the per-node array of 2n records).
//!
//! Both are computed here in one bottom-up pass. Because updates are
//! propagated one relation and one kind at a time (§3.2.2), the delta of an
//! SPJ node w.r.t. update u on relation t is simply δt joined with the other
//! base tables *in their state at u*, filtered by the node's predicate —
//! the expensive combinatorial delta expressions of §3.2.1 never need to be
//! built.

use crate::dag::{join_stats, Dag, DerivedSig, EqId, OpId, SemKey};
use crate::update::{UpdateId, UpdateModel};
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::hash::FxHashSet;
use mvmqo_relalg::stats::{self, ColStats, RelStats};
use std::sync::Arc;

/// Differential and state-sequence statistics for every equivalence node.
#[derive(Debug, Clone)]
pub struct DiffProps {
    n_updates: usize,
    /// `state[e][k]` = stats of eq node `e` after updates with id `< k`
    /// have been applied; `k` ranges over `0 ..= n_updates`. Index
    /// `n_updates` is the post-all-updates ("new") state used by
    /// recomputation costing.
    state: Vec<Vec<Arc<RelStats>>>,
    /// `delta[e][u]` = stats of δ(e, u); `rows == 0` when the node does not
    /// depend on the updated relation (the null-plan case of §5.2).
    delta: Vec<Vec<Arc<RelStats>>>,
}

impl DiffProps {
    /// Compute all differential properties for `dag` under `updates`.
    pub fn compute(dag: &Dag, catalog: &Catalog, updates: &UpdateModel) -> DiffProps {
        let n = updates.len();
        let mut props = DiffProps {
            n_updates: n,
            state: vec![Vec::new(); dag.eq_arena_size()],
            delta: vec![Vec::new(); dag.eq_arena_size()],
        };
        let base = BaseStats::new(dag, catalog, updates);
        for e in dag.topo_order() {
            props.compute_node(dag, catalog, updates, &base, e);
        }
        props
    }

    /// Grow the id-indexed side tables to the DAG's current arena extent
    /// (new slots are empty and must be refreshed before use).
    pub fn ensure_capacity(&mut self, dag: &Dag) {
        self.state.resize(dag.eq_arena_size(), Vec::new());
        self.delta.resize(dag.eq_arena_size(), Vec::new());
    }

    /// Dirty-bit statistics refresh: recompute properties only where they
    /// can have moved — nodes depending on a table in `changed_tables`,
    /// nodes in `force` (newly inserted or never computed), and derived
    /// nodes whose inputs moved — propagating change flags bottom-up.
    /// Returns the eq nodes whose properties actually changed. If the
    /// update *numbering* changed (`updates.len()` differs from the last
    /// pass), every live node is recomputed — the per-node arrays are keyed
    /// by the 2n numbering and cannot be patched.
    pub fn refresh(
        &mut self,
        dag: &Dag,
        catalog: &Catalog,
        updates: &UpdateModel,
        changed_tables: &[TableId],
        force: &FxHashSet<EqId>,
    ) -> Vec<EqId> {
        self.ensure_capacity(dag);
        let structural = updates.len() != self.n_updates;
        self.n_updates = updates.len();
        let base = BaseStats::new(dag, catalog, updates);
        let mut changed: Vec<EqId> = Vec::new();
        let mut changed_flag = vec![false; dag.eq_arena_size()];
        for e in dag.topo_order() {
            let node = dag.eq(e);
            let idx = e.0 as usize;
            let fresh = self.state[idx].is_empty();
            let needs = structural
                || fresh
                || force.contains(&e)
                || changed_tables.iter().any(|t| node.depends_on(*t))
                || matches!(
                    &node.key,
                    SemKey::Derived { children, .. }
                        if children.iter().any(|c| changed_flag[c.0 as usize])
                );
            if !needs {
                continue;
            }
            let old_state = std::mem::take(&mut self.state[idx]);
            let old_delta = std::mem::take(&mut self.delta[idx]);
            self.compute_node(dag, catalog, updates, &base, e);
            let same = !fresh
                && stats_seq_eq(&old_state, &self.state[idx])
                && stats_seq_eq(&old_delta, &self.delta[idx]);
            if !same {
                changed.push(e);
                changed_flag[idx] = true;
            }
        }
        changed
    }

    /// Stats of the full result of `e` after updates `< k` applied.
    pub fn state_at(&self, e: EqId, k: usize) -> &RelStats {
        &self.state[e.0 as usize][k]
    }

    /// Stats of the full result before any update.
    pub fn old(&self, e: EqId) -> &RelStats {
        self.state_at(e, 0)
    }

    /// Stats of the full result after all updates (what recomputation
    /// produces and what a permanently materialized result holds at the end
    /// of the refresh cycle).
    pub fn new_state(&self, e: EqId) -> &RelStats {
        self.state_at(e, self.n_updates)
    }

    /// Stats of δ(e, u).
    pub fn delta(&self, e: EqId, u: UpdateId) -> &RelStats {
        &self.delta[e.0 as usize][u.0 as usize]
    }

    /// True if δ(e, u) is empty because `e` does not depend on the updated
    /// relation (or the batch is empty).
    pub fn delta_is_empty(&self, e: EqId, u: UpdateId) -> bool {
        self.delta(e, u).rows <= 0.0
    }

    /// Total delta rows across all updates (used for index-maintenance
    /// costing on materialized results).
    pub fn total_delta_rows(&self, e: EqId) -> f64 {
        self.delta[e.0 as usize].iter().map(|d| d.rows).sum()
    }

    pub fn n_updates(&self) -> usize {
        self.n_updates
    }

    fn compute_node(
        &mut self,
        dag: &Dag,
        catalog: &Catalog,
        updates: &UpdateModel,
        base: &BaseStats,
        e: EqId,
    ) {
        let node = dag.eq(e);
        let n = self.n_updates;
        let mut states: Vec<Arc<RelStats>> = Vec::with_capacity(n + 1);
        let mut deltas: Vec<Arc<RelStats>> = Vec::with_capacity(n);
        for k in 0..=n {
            // state[k] differs from state[k−1] only if update k−1 touches
            // one of this node's tables — for a node over a few tables most
            // of the 2n+1 states are verbatim repeats (of its inputs' states
            // too, for a derived node), so reuse instead of re-deriving.
            if k > 0 {
                let step = updates.step(UpdateId((k - 1) as u16));
                if step.rows <= 0.0 || !node.depends_on(step.table) {
                    let prev = states[k - 1].clone();
                    states.push(prev);
                    continue;
                }
            }
            let st = match (&node.key, node.stats_join) {
                (SemKey::Spj { tables, preds }, None) => {
                    debug_assert_eq!(tables.len(), 1, "SPJ join without a statistics join");
                    stats::derive_select(base.state(tables[0], k), preds)
                }
                (SemKey::Spj { .. }, Some(op)) => {
                    let [l, r] = join_inputs(dag, op);
                    join_stats(self.state_at(l, k), self.state_at(r, k), op, dag)
                }
                (SemKey::Derived { sig, children }, _) => self.derive_state(sig, children, k),
            };
            states.push(Arc::new(st));
        }
        for u in 0..n {
            let step = updates.step(UpdateId(u as u16));
            if !node.depends_on(step.table) || step.rows <= 0.0 {
                deltas.push(Arc::new(RelStats::empty()));
                continue;
            }
            let d = match (&node.key, node.stats_join) {
                (SemKey::Spj { tables, preds }, _)
                    if fk_prunes_delta(catalog, updates, tables, preds, step) =>
                {
                    // §5.3: joins of a parent relation's insert delta with
                    // child relations that cannot yet reference the new keys
                    // are provably empty.
                    RelStats::empty()
                }
                (SemKey::Spj { preds, .. }, None) => stats::derive_select(&base.delta[u], preds),
                (SemKey::Spj { .. }, Some(op)) => {
                    // δ(L ⋈ R) = δL ⋈ R (or L ⋈ δR) for the input holding the
                    // updated table. That input's delta is not FK-pruned: the
                    // conjunct pruning it would have pruned this node's above.
                    let side = |c: EqId| {
                        if dag.eq(c).depends_on(step.table) {
                            self.delta(c, UpdateId(u as u16))
                        } else {
                            self.state_at(c, u)
                        }
                    };
                    let [l, r] = join_inputs(dag, op);
                    join_stats(side(l), side(r), op, dag)
                }
                (SemKey::Derived { sig, children }, _) => {
                    self.derive_delta(sig, children, UpdateId(u as u16))
                }
            };
            deltas.push(Arc::new(d));
        }
        self.state[e.0 as usize] = states;
        self.delta[e.0 as usize] = deltas;
    }

    fn derive_state(&self, sig: &DerivedSig, children: &[EqId], k: usize) -> RelStats {
        let c0 = self.state_at(children[0], k);
        match sig {
            DerivedSig::Select(p) => stats::derive_select(c0, p),
            DerivedSig::Project(attrs) => stats::derive_project(c0, attrs),
            DerivedSig::Aggregate { group_by, aggs } => {
                let outs: Vec<_> = aggs.iter().map(|a| a.out).collect();
                stats::derive_aggregate(c0, group_by, &outs)
            }
            DerivedSig::UnionAll => stats::derive_union(c0, self.state_at(children[1], k)),
            DerivedSig::Minus => stats::derive_minus(c0, self.state_at(children[1], k)),
            DerivedSig::Distinct => stats::derive_distinct(c0),
        }
    }

    fn derive_delta(&self, sig: &DerivedSig, children: &[EqId], u: UpdateId) -> RelStats {
        let d0 = self.delta(children[0], u);
        match sig {
            DerivedSig::Select(p) => stats::derive_select(d0, p),
            DerivedSig::Project(attrs) => stats::derive_project(d0, attrs),
            DerivedSig::Aggregate { group_by, aggs } => {
                // The delta of an aggregate is one merge record per affected
                // group: aggregate the input delta.
                let outs: Vec<_> = aggs.iter().map(|a| a.out).collect();
                stats::derive_aggregate(d0, group_by, &outs)
            }
            DerivedSig::UnionAll => {
                let d1 = self.delta(children[1], u);
                if d0.rows <= 0.0 {
                    d1.clone()
                } else if d1.rows <= 0.0 {
                    d0.clone()
                } else {
                    stats::derive_union(d0, d1)
                }
            }
            DerivedSig::Minus => {
                // Conservative: delta bounded by the left delta (the costing
                // layer forces recomputation for dependent Minus nodes, see
                // opt::costing).
                d0.clone()
            }
            DerivedSig::Distinct => stats::derive_distinct(d0),
        }
    }
}

/// The two inputs of an SPJ node's statistics join.
fn join_inputs(dag: &Dag, op: OpId) -> [EqId; 2] {
    let children = &dag.op(op).children;
    [children[0], children[1]]
}

/// Base-table statistics of one property pass, derived once and shared by
/// the single-table nodes (every other SPJ node derives from its inputs)
/// instead of being re-derived per node, per state.
struct BaseStats {
    /// `state[t][k]`: table `t` (by id) after updates `< k`, for the DAG's
    /// base tables (empty elsewhere). States no update of `t` separates
    /// share one `Arc`.
    state: Vec<Vec<Arc<RelStats>>>,
    /// `delta[u]`: the batch of update `u`.
    delta: Vec<RelStats>,
}

impl BaseStats {
    fn new(dag: &Dag, catalog: &Catalog, updates: &UpdateModel) -> BaseStats {
        let n = updates.len();
        let slots = dag.base_tables().last().map_or(0, |t| t.0 as usize + 1);
        let mut state = vec![Vec::new(); slots];
        for &t in dag.base_tables() {
            let seq: &mut Vec<Arc<RelStats>> = &mut state[t.0 as usize];
            for k in 0..=n {
                if k > 0 && updates.step(UpdateId((k - 1) as u16)).table != t {
                    let prev = seq[k - 1].clone();
                    seq.push(prev);
                } else {
                    let st = base_stats_at(catalog, updates, t, UpdateId(k as u16));
                    seq.push(Arc::new(st));
                }
            }
        }
        let delta = updates
            .steps()
            .iter()
            .map(|s| base_delta_stats(catalog, s.table, s.rows))
            .collect();
        BaseStats { state, delta }
    }

    fn state(&self, t: TableId, k: usize) -> &RelStats {
        &self.state[t.0 as usize][k]
    }
}

/// Element-wise approximate equality of two property sequences. Shared
/// (`Arc`-identical) entries compare by pointer.
fn stats_seq_eq(a: &[Arc<RelStats>], b: &[Arc<RelStats>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| Arc::ptr_eq(x, y) || x.approx_eq(y, 1e-9))
}

/// Foreign-key emptiness pruning (§5.3): when update `step` inserts into a
/// relation `t` whose primary key is referenced by an FK conjunct inside
/// this SPJ node, and every child relation on the FK's other side is
/// updated strictly *after* `t` in the propagation order (or not at all),
/// the child's current state cannot reference the freshly inserted keys, so
/// the node's differential is exactly empty.
///
/// This is exact under the one-at-a-time propagation of §3.2.2: updates are
/// numbered by table id, so a child with a larger table id is still in its
/// pre-update state when `t`'s inserts propagate, and referential integrity
/// of the pre-update database guarantees no dangling references to new
/// keys. Deletes are never pruned (children may legitimately reference
/// deleted parents mid-sequence).
fn fk_prunes_delta(
    catalog: &Catalog,
    updates: &UpdateModel,
    tables: &[TableId],
    preds: &mvmqo_relalg::expr::Predicate,
    step: &crate::update::UpdateStep,
) -> bool {
    if step.kind != mvmqo_storage::delta::DeltaKind::Insert {
        return false;
    }
    let parent_def = catalog.table(step.table);
    for (a, b) in preds.equijoin_pairs() {
        for (child_attr, parent_attr) in [(a, b), (b, a)] {
            if !parent_def.primary_key.contains(&parent_attr) {
                continue;
            }
            if !catalog.is_fk_edge(child_attr, parent_attr) {
                continue;
            }
            let Some(child_table) = catalog.owner_of(child_attr) else {
                continue;
            };
            if !tables.contains(&child_table) {
                continue;
            }
            let child_updated_before =
                updates.tables().any(|t| t == child_table) && child_table < step.table;
            if !child_updated_before {
                return true;
            }
        }
    }
    false
}

/// Base-table statistics at update state `k` (updates `< k` applied):
/// catalog statistics rescaled to the row count the update model predicts.
pub fn base_stats_at(
    catalog: &Catalog,
    updates: &UpdateModel,
    t: TableId,
    k: UpdateId,
) -> RelStats {
    let def = catalog.table(t);
    let rows = updates.rows_at(t, def.stats.rows, k);
    scale_base_stats(&def.stats, rows)
}

/// Statistics of one delta batch of `rows` tuples of table `t`: column
/// profiles inherited from the base table, capped by the batch size.
pub fn base_delta_stats(catalog: &Catalog, t: TableId, rows: f64) -> RelStats {
    let def = catalog.table(t);
    let mut out = RelStats {
        rows,
        cols: def.stats.cols.clone(),
    };
    for c in out.cols.values_mut() {
        // Key-like columns have one distinct value per delta tuple; others
        // keep their base distinct count capped at the batch size.
        if (c.distinct - def.stats.rows).abs() < 1e-9 {
            c.distinct = rows.max(1.0);
        } else {
            c.distinct = c.distinct.min(rows.max(1.0));
        }
    }
    out
}

/// Rescale a base table's statistics to a new row count, growing or
/// shrinking key-like distinct counts proportionally.
pub fn scale_base_stats(base: &RelStats, new_rows: f64) -> RelStats {
    let mut out = RelStats {
        rows: new_rows,
        cols: base.cols.clone(),
    };
    let ratio = if base.rows > 0.0 {
        new_rows / base.rows
    } else {
        1.0
    };
    for c in out.cols.values_mut() {
        let scaled = if (c.distinct - base.rows).abs() < 1e-9 {
            c.distinct * ratio
        } else {
            c.distinct
        };
        *c = ColStats {
            distinct: scaled.clamp(1.0, new_rows.max(1.0)),
            range: c.range,
        };
    }
    out
}

/// Which children of an op supply differentials vs full results for update
/// `u` — diffChildren(o, i) and fullChildren(o, i) of §5.3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffChildSplit {
    /// Children whose differential feeds the op's differential.
    pub diff_children: Vec<EqId>,
    /// Children whose full result (at the state of update `u`) is needed.
    pub full_children: Vec<EqId>,
}

/// Classify an op's children for update `u`. A child belongs to
/// `diff_children` iff it depends on the updated relation.
pub fn split_children(dag: &Dag, op: crate::dag::OpId, table: TableId) -> DiffChildSplit {
    let op = dag.op(op);
    let mut diff_children = Vec::new();
    let mut full_children = Vec::new();
    match &op.kind {
        crate::dag::OpKind::Join { .. } => {
            for &c in &op.children {
                if dag.eq(c).depends_on(table) {
                    diff_children.push(c);
                } else {
                    full_children.push(c);
                }
            }
            // When both inputs change, both full results are also needed:
            // δ(E₁⋈E₂) = (δE₁ ⋈ E₂) ∪ ((E₁ ⊎ δE₁) ⋈ δE₂).
            if diff_children.len() == 2 {
                full_children = op.children.clone();
            }
        }
        _ => {
            for &c in &op.children {
                if dag.eq(c).depends_on(table) {
                    diff_children.push(c);
                }
            }
        }
    }
    DiffChildSplit {
        diff_children,
        full_children,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::catalog::ColumnSpec;
    use mvmqo_relalg::expr::{Predicate, ScalarExpr};
    use mvmqo_relalg::logical::LogicalExpr;
    use mvmqo_relalg::types::DataType;

    fn setup() -> (Catalog, TableId, TableId, Dag, EqId) {
        let mut c = Catalog::new();
        let a = c.add_table(
            "a",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("x", DataType::Int, 50.0),
            ],
            1000.0,
            &["id"],
        );
        let b = c.add_table(
            "b",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("a_id", DataType::Int, 1000.0),
            ],
            5000.0,
            &["id"],
        );
        let a_id = c.table(a).attr("id");
        let b_aid = c.table(b).attr("a_id");
        let expr = LogicalExpr::Join {
            left: LogicalExpr::scan(a),
            right: LogicalExpr::scan(b),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
        };
        let mut dag = Dag::new();
        let root = dag.insert_view(&c, "v", &expr);
        (c, a, b, dag, root)
    }

    #[test]
    fn state_sequence_tracks_base_growth() {
        let (c, a, b, dag, root) = setup();
        // 10% inserts / 5% deletes on both tables.
        let m = UpdateModel::percentage(vec![a, b], 10.0, |t| c.table(t).stats.rows);
        let props = DiffProps::compute(&dag, &c, &m);
        let base_a = dag.base_eq(a).unwrap();
        assert_eq!(props.old(base_a).rows, 1000.0);
        // After a's inserts: 1100; after a's deletes: 1050.
        assert_eq!(props.state_at(base_a, 1).rows, 1100.0);
        assert_eq!(props.state_at(base_a, 2).rows, 1050.0);
        assert_eq!(props.new_state(base_a).rows, 1050.0);
        // Join grows accordingly: |A⋈B| at old = 5000.
        assert!((props.old(root).rows - 5000.0).abs() < 1.0);
        assert!(props.new_state(root).rows > 5000.0);
    }

    #[test]
    fn delta_of_independent_node_is_empty() {
        let (c, a, b, dag, _) = setup();
        let m = UpdateModel::percentage(vec![a], 10.0, |t| c.table(t).stats.rows);
        let props = DiffProps::compute(&dag, &c, &m);
        let base_b = dag.base_eq(b).unwrap();
        for u in 0..m.len() {
            assert!(props.delta_is_empty(base_b, UpdateId(u as u16)));
        }
    }

    #[test]
    fn join_delta_scales_with_batch() {
        let (c, a, b, dag, root) = setup();
        let m = UpdateModel::percentage(vec![a, b], 10.0, |t| c.table(t).stats.rows);
        let props = DiffProps::compute(&dag, &c, &m);
        // δ⁺A = 100 rows; join with B (5 per A row) ≈ 500.
        let d = props.delta(root, UpdateId(0));
        assert!(d.rows > 100.0 && d.rows < 1500.0, "delta rows = {}", d.rows);
        // Delete delta (50 rows of A) is smaller.
        let d_del = props.delta(root, UpdateId(1));
        assert!(d_del.rows < d.rows);
    }

    #[test]
    fn split_children_classifies_join_sides() {
        let (c, a, b, dag, root) = setup();
        let _ = c;
        let join_op = dag.eq(root).children[0];
        let split = split_children(&dag, join_op, a);
        assert_eq!(split.diff_children.len(), 1);
        assert_eq!(split.full_children.len(), 1);
        let base_a = dag.base_eq(a).unwrap();
        let base_b = dag.base_eq(b).unwrap();
        assert_eq!(split.diff_children[0], base_a);
        assert_eq!(split.full_children[0], base_b);
    }

    #[test]
    fn delta_stats_of_base_cap_distincts() {
        let (c, a, _, _, _) = setup();
        let d = base_delta_stats(&c, a, 100.0);
        assert_eq!(d.rows, 100.0);
        let id_attr = c.table(a).attr("id");
        let x_attr = c.table(a).attr("x");
        assert_eq!(d.cols[&id_attr].distinct, 100.0); // key column
        assert_eq!(d.cols[&x_attr].distinct, 50.0); // non-key keeps profile
    }

    #[test]
    fn scale_base_stats_grows_keys_only() {
        let (c, a, _, _, _) = setup();
        let grown = scale_base_stats(&c.table(a).stats, 2000.0);
        let id_attr = c.table(a).attr("id");
        let x_attr = c.table(a).attr("x");
        assert_eq!(grown.cols[&id_attr].distinct, 2000.0);
        assert_eq!(grown.cols[&x_attr].distinct, 50.0);
    }

    #[test]
    fn zero_percent_update_has_no_steps() {
        let (c, a, _, _, _) = setup();
        let m = UpdateModel::percentage(vec![a], 0.0, |t| c.table(t).stats.rows);
        assert!(m.is_empty());
    }
}
