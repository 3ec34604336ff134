//! DAG construction and expansion.
//!
//! Queries are inserted one at a time (§4.2). For the select-project-join
//! fragment the builder computes the canonical semantic key *(table set,
//! applied conjuncts)* and materializes **every** associativity /
//! commutativity / selection-pushdown variant by enumerating all binary
//! splits of the table set — this is the *expanded DAG* of Figure 1(c),
//! produced constructively rather than by destructive rewriting. Because
//! every creation path first consults the key memo, logically equivalent
//! subexpressions are **unified eagerly**: the situation of §4.2 where two
//! syntactically different but equivalent nodes would coexist until a
//! transformation exposes them cannot arise — they hit the same memo slot
//! at insertion. Hashing-based duplicate detection of repeated operations
//! (Volcano's scheme) is the op memo.

use crate::dag::node::{DerivedSig, EqId, EqNode, OpFacts, OpId, OpKind, OpNode, SemKey};
use mvmqo_relalg::agg::AggSpec;
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::expr::{CmpOp, Predicate};
use mvmqo_relalg::hash::FxHashMap;
use mvmqo_relalg::logical::LogicalExpr;
use mvmqo_relalg::schema::{AttrId, Attribute, Schema};
use mvmqo_relalg::stats;
use mvmqo_relalg::stats::RelStats;

/// A named root of the DAG (one per view).
#[derive(Debug, Clone)]
pub struct DagRoot {
    pub name: String,
    pub eq: EqId,
}

/// The AND-OR DAG over all views being maintained.
///
/// The arena is **incrementally extensible**: views are inserted one at a
/// time (reusing every eq/op node the memo already holds) and can be
/// removed again — [`Dag::remove_view`] detaches the root and
/// garbage-collects nodes no longer reachable from any remaining root.
/// Dead slots become tombstones (ids are never reused, so memo slots held
/// by a long-lived optimizer session stay valid); all iteration and count
/// accessors see live nodes only, while `*_arena_size` report the physical
/// extent for id-indexed side tables.
#[derive(Debug, Clone, Default)]
pub struct Dag {
    eqs: Vec<EqNode>,
    ops: Vec<OpNode>,
    eq_memo: FxHashMap<SemKey, EqId>,
    op_memo: FxHashMap<(OpKind, Vec<EqId>), OpId>,
    /// Base-relation node per table id (`None` when absent or collected).
    base_eqs: Vec<Option<EqId>>,
    roots: Vec<DagRoot>,
    /// Base tables mentioned anywhere in the live DAG, sorted.
    base_tables: Vec<TableId>,
    /// Tombstone flags, indexed by id. Empty-prefix semantics: nodes whose
    /// id is past the end of the vector are live (saves reallocation churn
    /// during construction).
    dead_eqs: Vec<bool>,
    dead_ops: Vec<bool>,
    dead_eq_count: usize,
    dead_op_count: usize,
}

impl Dag {
    pub fn new() -> Self {
        Dag::default()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    pub fn eq(&self, id: EqId) -> &EqNode {
        &self.eqs[id.0 as usize]
    }

    pub fn op(&self, id: OpId) -> &OpNode {
        &self.ops[id.0 as usize]
    }

    /// Live equivalence nodes.
    pub fn eq_count(&self) -> usize {
        self.eqs.len() - self.dead_eq_count
    }

    /// Live operation nodes.
    pub fn op_count(&self) -> usize {
        self.ops.len() - self.dead_op_count
    }

    /// Physical arena extent for eq-id-indexed side tables (includes
    /// tombstones).
    pub fn eq_arena_size(&self) -> usize {
        self.eqs.len()
    }

    /// Physical arena extent for op-id-indexed side tables.
    pub fn op_arena_size(&self) -> usize {
        self.ops.len()
    }

    pub fn eq_is_live(&self, id: EqId) -> bool {
        !self.dead_eqs.get(id.0 as usize).copied().unwrap_or(false)
    }

    pub fn op_is_live(&self, id: OpId) -> bool {
        !self.dead_ops.get(id.0 as usize).copied().unwrap_or(false)
    }

    /// Live equivalence nodes, in id order.
    pub fn eq_ids(&self) -> impl Iterator<Item = EqId> + '_ {
        (0..self.eqs.len() as u32)
            .map(EqId)
            .filter(|e| self.eq_is_live(*e))
    }

    /// Live operation nodes, in id order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len() as u32)
            .map(OpId)
            .filter(|o| self.op_is_live(*o))
    }

    pub fn roots(&self) -> &[DagRoot] {
        &self.roots
    }

    /// All base tables mentioned in the DAG, sorted — these define the
    /// update numbering (n relations → 2n updates, §5.2).
    pub fn base_tables(&self) -> &[TableId] {
        &self.base_tables
    }

    /// The equivalence node of a base relation, if present.
    pub fn base_eq(&self, table: TableId) -> Option<EqId> {
        self.base_eqs.get(table.0 as usize).copied().flatten()
    }

    /// Look up an equivalence node by semantic key.
    pub fn lookup(&self, key: &SemKey) -> Option<EqId> {
        self.eq_memo.get(key).copied()
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Insert a view; returns its root equivalence node. The same
    /// expression inserted twice lands on the same node (unification).
    pub fn insert_view(
        &mut self,
        catalog: &Catalog,
        name: impl Into<String>,
        expr: &LogicalExpr,
    ) -> EqId {
        let eq = self.insert_expr(catalog, expr);
        self.roots.push(DagRoot {
            name: name.into(),
            eq,
        });
        eq
    }

    /// Detach a view's root and garbage-collect every node no longer
    /// reachable from a remaining root. Returns the detached root's eq
    /// node, or `None` if no root carries `name`. Dead nodes are removed
    /// from both memos (re-adding an equivalent view later creates fresh
    /// nodes) and tombstoned in place — surviving ids keep their meaning,
    /// which is what lets a re-entrant optimizer session keep its memo
    /// slots across view-set changes.
    pub fn remove_view(&mut self, name: &str) -> Option<EqId> {
        let pos = self.roots.iter().position(|r| r.name == name)?;
        let root = self.roots.remove(pos).eq;
        self.collect_garbage();
        Some(root)
    }

    /// Mark-and-sweep from the current root set.
    fn collect_garbage(&mut self) {
        let mut eq_live = vec![false; self.eqs.len()];
        let mut op_live = vec![false; self.ops.len()];
        let mut stack: Vec<EqId> = self.roots.iter().map(|r| r.eq).collect();
        while let Some(e) = stack.pop() {
            if eq_live[e.0 as usize] {
                continue;
            }
            eq_live[e.0 as usize] = true;
            for &op in &self.eqs[e.0 as usize].children {
                if !op_live[op.0 as usize] {
                    op_live[op.0 as usize] = true;
                    stack.extend(self.ops[op.0 as usize].children.iter().copied());
                }
            }
        }
        self.dead_eqs = eq_live.iter().map(|l| !l).collect();
        self.dead_ops = op_live.iter().map(|l| !l).collect();
        self.dead_eq_count = self.dead_eqs.iter().filter(|d| **d).count();
        self.dead_op_count = self.dead_ops.iter().filter(|d| **d).count();
        // Sweep the memos so future insertions of equivalent expressions
        // do not resolve to tombstones.
        self.eq_memo.retain(|_, id| eq_live[id.0 as usize]);
        self.op_memo.retain(|_, id| op_live[id.0 as usize]);
        for slot in &mut self.base_eqs {
            if slot.is_some_and(|e| !eq_live[e.0 as usize]) {
                *slot = None;
            }
        }
        // Live nodes may still list dead consumers; prune so upward walks
        // (incremental cost propagation) never enter dead territory. A live
        // eq's own alternative ops are live by construction.
        for (i, eq) in self.eqs.iter_mut().enumerate() {
            if eq_live[i] {
                eq.parents.retain(|op| op_live[op.0 as usize]);
            }
        }
        // Base-table set of the surviving DAG.
        let mut base: Vec<TableId> = Vec::new();
        for (i, eq) in self.eqs.iter().enumerate() {
            if eq_live[i] {
                for t in &eq.base_tables {
                    if let Err(pos) = base.binary_search(t) {
                        base.insert(pos, *t);
                    }
                }
            }
        }
        self.base_tables = base;
    }

    /// Insert an expression without registering a root.
    pub fn insert_expr(&mut self, catalog: &Catalog, expr: &LogicalExpr) -> EqId {
        match self.try_spj(expr) {
            Some((tables, preds)) => self.ensure_spj(catalog, tables, preds),
            None => self.insert_derived(catalog, expr),
        }
    }

    /// Try to read `expr` as a pure SPJ fragment, returning its canonical
    /// (table set, conjunct set).
    fn try_spj(&self, expr: &LogicalExpr) -> Option<(Vec<TableId>, Predicate)> {
        match expr {
            LogicalExpr::Scan { table } => Some((vec![*table], Predicate::true_())),
            LogicalExpr::Select { input, predicate } => {
                let (tables, preds) = self.try_spj(input)?;
                Some((tables, preds.and(predicate)))
            }
            LogicalExpr::Join {
                left,
                right,
                predicate,
            } => {
                let (lt, lp) = self.try_spj(left)?;
                let (rt, rp) = self.try_spj(right)?;
                let mut tables = lt;
                for t in &rt {
                    assert!(
                        !tables.contains(t),
                        "self-joins are not supported: table {t} occurs on both join sides"
                    );
                }
                tables.extend(rt);
                tables.sort_unstable();
                Some((tables, lp.and(&rp).and(predicate)))
            }
            _ => None,
        }
    }

    /// Get-or-create the equivalence node of an SPJ fragment, expanding all
    /// its alternative operations (all binary splits). This is where join
    /// associativity, commutativity (implicitly), and selection pushdown
    /// closure happen.
    pub fn ensure_spj(
        &mut self,
        catalog: &Catalog,
        tables: Vec<TableId>,
        preds: Predicate,
    ) -> EqId {
        debug_assert!(tables.windows(2).all(|w| w[0] < w[1]), "tables sorted");
        let key = SemKey::Spj {
            tables: tables.clone(),
            preds: preds.clone(),
        };
        if let Some(id) = self.eq_memo.get(&key) {
            return *id;
        }
        let schema = spj_schema(catalog, &tables);
        // Statistics are those of the tables folded in id order; a
        // multi-table node's are set below, once its inputs exist.
        let stats_old = if tables.len() == 1 {
            stats::derive_select(&catalog.table(tables[0]).stats, &preds)
        } else {
            RelStats::empty()
        };
        let id = self.new_eq(key, schema, tables.clone(), stats_old);

        if tables.len() == 1 {
            let t = tables[0];
            if preds.is_true() {
                self.add_op(OpKind::Scan(t), vec![], id);
            } else {
                let base = self.ensure_spj(catalog, vec![t], Predicate::true_());
                self.add_op(OpKind::Select { pred: preds }, vec![base], id);
            }
        } else {
            // Enumerate all binary splits; the lowest table id is pinned to
            // the left side so each unordered partition is generated once
            // (commutative variants are handled at physical costing).
            let rest = &tables[1..];
            let n = rest.len();
            let all_attrs: Vec<AttrId> = self.eq(id).schema.ids();
            for mask in 0..(1u32 << n) {
                let mut left = vec![tables[0]];
                let mut right = Vec::new();
                for (i, t) in rest.iter().enumerate() {
                    if mask & (1 << i) == 0 {
                        left.push(*t);
                    } else {
                        right.push(*t);
                    }
                }
                if right.is_empty() {
                    continue;
                }
                let left_attrs = side_attrs(catalog, &left);
                let right_attrs = side_attrs(catalog, &right);
                let (left_preds, rest_preds) = preds.split_covered(&left_attrs);
                let (right_preds, join_pred) = rest_preds.split_covered(&right_attrs);
                debug_assert!(
                    join_pred
                        .referenced_attrs()
                        .iter()
                        .all(|a| all_attrs.contains(a)),
                    "join conjuncts must be covered by the union of sides"
                );
                let last_only = right.len() == 1 && right[0] == tables[tables.len() - 1];
                let l = self.ensure_spj(catalog, left, left_preds);
                let r = self.ensure_spj(catalog, right, right_preds);
                let op = self.add_op(OpKind::Join { pred: join_pred }, vec![l, r], id);
                if last_only {
                    // The fold's prefix joined with its last table.
                    let stats = join_stats(&self.eq(l).stats_old, &self.eq(r).stats_old, op, self);
                    let node = &mut self.eqs[id.0 as usize];
                    node.stats_old = stats;
                    node.stats_join = Some(op);
                }
            }
        }
        id
    }

    /// Insert a non-SPJ operator node.
    fn insert_derived(&mut self, catalog: &Catalog, expr: &LogicalExpr) -> EqId {
        match expr {
            LogicalExpr::Scan { .. } | LogicalExpr::Join { .. } => unreachable!("handled as SPJ"),
            LogicalExpr::Select { input, predicate } => {
                // Non-SPJ child (e.g. selection over an aggregate).
                let child = self.insert_expr(catalog, input);
                let sig = DerivedSig::Select(predicate.clone());
                self.ensure_derived(
                    sig,
                    vec![child],
                    OpKind::Select {
                        pred: predicate.clone(),
                    },
                    self.eq(child).schema.clone(),
                    stats::derive_select(&self.eq(child).stats_old, predicate),
                )
            }
            LogicalExpr::Project { input, attrs } => {
                let child = self.insert_expr(catalog, input);
                let schema = self.eq(child).schema.select_ids(attrs);
                let st = stats::derive_project(&self.eq(child).stats_old, attrs);
                self.ensure_derived(
                    DerivedSig::Project(attrs.clone()),
                    vec![child],
                    OpKind::Project {
                        attrs: attrs.clone(),
                    },
                    schema,
                    st,
                )
            }
            LogicalExpr::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let child = self.insert_expr(catalog, input);
                let (schema, st) = self.aggregate_props(catalog, child, group_by, aggs);
                self.ensure_derived(
                    DerivedSig::Aggregate {
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    },
                    vec![child],
                    OpKind::Aggregate {
                        group_by: group_by.clone(),
                        aggs: aggs.clone(),
                    },
                    schema,
                    st,
                )
            }
            LogicalExpr::UnionAll { left, right } => {
                let l = self.insert_expr(catalog, left);
                let r = self.insert_expr(catalog, right);
                let schema = self.eq(l).schema.clone();
                let st = stats::derive_union(&self.eq(l).stats_old, &self.eq(r).stats_old);
                self.ensure_derived(
                    DerivedSig::UnionAll,
                    vec![l, r],
                    OpKind::UnionAll,
                    schema,
                    st,
                )
            }
            LogicalExpr::Minus { left, right } => {
                let l = self.insert_expr(catalog, left);
                let r = self.insert_expr(catalog, right);
                let schema = self.eq(l).schema.clone();
                let st = stats::derive_minus(&self.eq(l).stats_old, &self.eq(r).stats_old);
                self.ensure_derived(DerivedSig::Minus, vec![l, r], OpKind::Minus, schema, st)
            }
            LogicalExpr::Distinct { input } => {
                let child = self.insert_expr(catalog, input);
                let schema = self.eq(child).schema.clone();
                let st = stats::derive_distinct(&self.eq(child).stats_old);
                self.ensure_derived(
                    DerivedSig::Distinct,
                    vec![child],
                    OpKind::Distinct,
                    schema,
                    st,
                )
            }
        }
    }

    /// Schema and stats of an aggregate node.
    pub(crate) fn aggregate_props(
        &self,
        _catalog: &Catalog,
        child: EqId,
        group_by: &[AttrId],
        aggs: &[AggSpec],
    ) -> (Schema, RelStats) {
        let in_schema = &self.eq(child).schema;
        let mut attrs: Vec<Attribute> = group_by
            .iter()
            .map(|g| {
                in_schema
                    .attr(*g)
                    .unwrap_or_else(|| panic!("group attr {g} missing from input"))
                    .clone()
            })
            .collect();
        for a in aggs {
            let in_ty = a
                .input
                .result_type(in_schema)
                .unwrap_or(mvmqo_relalg::types::DataType::Int);
            attrs.push(Attribute {
                id: a.out,
                name: format!("{}_{}", a.func, a.out),
                data_type: a.func.result_type(in_ty),
            });
        }
        let outs: Vec<AttrId> = aggs.iter().map(|a| a.out).collect();
        let st = stats::derive_aggregate(&self.eq(child).stats_old, group_by, &outs);
        (Schema::new(attrs), st)
    }

    /// Get-or-create a derived equivalence node and its defining op.
    pub(crate) fn ensure_derived(
        &mut self,
        sig: DerivedSig,
        children: Vec<EqId>,
        kind: OpKind,
        schema: Schema,
        stats_old: RelStats,
    ) -> EqId {
        let key = SemKey::Derived {
            sig,
            children: children.clone(),
        };
        if let Some(id) = self.eq_memo.get(&key) {
            return *id;
        }
        let mut base: Vec<TableId> = Vec::new();
        for c in &children {
            base.extend(self.eq(*c).base_tables.iter().copied());
        }
        base.sort_unstable();
        base.dedup();
        let id = self.new_eq(key, schema, base, stats_old);
        self.add_op(kind, children, id);
        id
    }

    fn new_eq(
        &mut self,
        key: SemKey,
        schema: Schema,
        base_tables: Vec<TableId>,
        stats_old: RelStats,
    ) -> EqId {
        let id = EqId(self.eqs.len() as u32);
        for t in &base_tables {
            if let Err(pos) = self.base_tables.binary_search(t) {
                self.base_tables.insert(pos, *t);
            }
        }
        let relation = match &key {
            SemKey::Spj { tables, preds } if tables.len() == 1 && preds.is_true() => {
                Some(tables[0])
            }
            _ => None,
        };
        if let Some(t) = relation {
            let slot = t.0 as usize;
            if self.base_eqs.len() <= slot {
                self.base_eqs.resize(slot + 1, None);
            }
            self.base_eqs[slot] = Some(id);
        }
        self.eq_memo.insert(key.clone(), id);
        self.eqs.push(EqNode {
            id,
            key,
            children: Vec::new(),
            parents: Vec::new(),
            width: schema.row_width(),
            schema,
            base_tables,
            stats_old,
            relation,
            grouped: false,
            stats_join: None,
        });
        id
    }

    /// Add an operation under `parent` unless the identical operation
    /// already exists (hashing-based duplicate detection).
    pub(crate) fn add_op(&mut self, kind: OpKind, children: Vec<EqId>, parent: EqId) -> OpId {
        self.add_op_tracked(kind, children, parent).0
    }

    /// [`Dag::add_op`] that also reports whether the op was newly created —
    /// incremental subsumption re-derives over the whole live DAG and must
    /// count only what this pass actually added.
    pub(crate) fn add_op_tracked(
        &mut self,
        kind: OpKind,
        children: Vec<EqId>,
        parent: EqId,
    ) -> (OpId, bool) {
        let memo_key = (kind.clone(), children.clone());
        if let Some(existing) = self.op_memo.get(&memo_key) {
            debug_assert_eq!(
                self.op(*existing).parent,
                parent,
                "identical op under two different equivalence nodes — unification bug"
            );
            return (*existing, false);
        }
        let id = OpId(self.ops.len() as u32);
        let facts = self.op_facts(&kind, &children);
        if matches!(kind, OpKind::Aggregate { .. } | OpKind::Distinct) {
            self.eqs[parent.0 as usize].grouped = true;
        }
        self.ops.push(OpNode {
            id,
            kind,
            children: children.clone(),
            parent,
            facts,
        });
        self.op_memo.insert(memo_key, id);
        self.eqs[parent.0 as usize].children.push(id);
        for c in children {
            self.eqs[c.0 as usize].parents.push(id);
        }
        (id, true)
    }

    /// The static costing facts of a new op (see [`OpFacts`]).
    fn op_facts(&self, kind: &OpKind, children: &[EqId]) -> OpFacts {
        match kind {
            OpKind::Join { pred } => {
                let l = &self.eq(children[0]).schema;
                let r = &self.eq(children[1]).schema;
                OpFacts {
                    join_keys: [oriented_keys(pred, l, r), oriented_keys(pred, r, l)],
                    ..Default::default()
                }
            }
            OpKind::Select { pred } => OpFacts {
                eq_probes: pred
                    .conjuncts()
                    .iter()
                    .filter_map(|c| {
                        let single = Predicate::from_conjuncts(vec![c.clone()]);
                        match single.as_single_attr_range()? {
                            (attr, CmpOp::Eq, _) => Some((attr, single)),
                            _ => None,
                        }
                    })
                    .collect(),
                ..Default::default()
            },
            _ => OpFacts::default(),
        }
    }

    /// Live equivalence nodes in a bottom-up (children before parents)
    /// order, via Kahn's algorithm. Each entry in an eq node's `parents`
    /// list corresponds to exactly one child slot of the consuming op, so
    /// the parent eq node becomes ready precisely when every child slot of
    /// every one of its alternative ops has been emitted.
    pub fn topo_order(&self) -> Vec<EqId> {
        let n = self.eqs.len();
        let mut indegree = vec![0usize; n];
        for op_id in self.op_ids() {
            let op = self.op(op_id);
            indegree[op.parent.0 as usize] += op.children.len();
        }
        let mut ready: Vec<EqId> = self
            .eq_ids()
            .filter(|e| indegree[e.0 as usize] == 0)
            .collect();
        let mut out = Vec::with_capacity(self.eq_count());
        while let Some(e) = ready.pop() {
            out.push(e);
            for &op_id in &self.eq(e).parents {
                let parent = self.op(op_id).parent;
                indegree[parent.0 as usize] -= 1;
                if indegree[parent.0 as usize] == 0 {
                    ready.push(parent);
                }
            }
        }
        debug_assert_eq!(out.len(), self.eq_count(), "DAG contains a cycle");
        out
    }
}

/// Canonical schema of an SPJ node: concatenation of base-table schemas in
/// table-id order.
pub fn spj_schema(catalog: &Catalog, tables: &[TableId]) -> Schema {
    let mut attrs = Vec::new();
    for t in tables {
        attrs.extend(catalog.table(*t).schema.attrs().iter().cloned());
    }
    Schema::new(attrs)
}

/// Equi-join key pairs of `pred` oriented as (attr of `first`, attr of
/// `second`); pairs not split across the two schemas are dropped.
fn oriented_keys(pred: &Predicate, first: &Schema, second: &Schema) -> Vec<(AttrId, AttrId)> {
    let has = |s: &Schema, a: AttrId| s.position_of(a).is_some();
    pred.equijoin_pairs()
        .filter_map(|(a, b)| {
            if has(first, a) && has(second, b) {
                Some((a, b))
            } else if has(first, b) && has(second, a) {
                Some((b, a))
            } else {
                None
            }
        })
        .collect()
}

/// All attribute ids provided by a set of base tables.
fn side_attrs(catalog: &Catalog, tables: &[TableId]) -> Vec<AttrId> {
    let mut out = Vec::new();
    for t in tables {
        out.extend(catalog.table(*t).schema.ids());
    }
    out
}

/// Statistics of the join op `op` (an SPJ node's `stats_join`) over its
/// inputs' statistics `left` and `right`.
pub(crate) fn join_stats(left: &RelStats, right: &RelStats, op: OpId, dag: &Dag) -> RelStats {
    match &dag.op(op).kind {
        OpKind::Join { pred } => stats::derive_join(left, right, pred),
        other => unreachable!("statistics join through a {} op", other.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::catalog::ColumnSpec;
    use mvmqo_relalg::expr::ScalarExpr;
    use mvmqo_relalg::types::DataType;

    fn abc_catalog() -> (Catalog, TableId, TableId, TableId) {
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
        let d = c.add_table(
            "c",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("b_id", DataType::Int, 5000.0),
            ],
            20000.0,
            &["id"],
        );
        (c, a, b, d)
    }

    fn three_way_join(c: &Catalog, a: TableId, b: TableId, d: TableId) -> LogicalExpr {
        let a_id = c.table(a).attr("id");
        let b_aid = c.table(b).attr("a_id");
        let b_id = c.table(b).attr("id");
        let c_bid = c.table(d).attr("b_id");
        let ab = LogicalExpr::join(
            LogicalExpr::scan(a),
            LogicalExpr::scan(b),
            Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
        );
        LogicalExpr::Join {
            left: ab,
            right: LogicalExpr::scan(d),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid)),
        }
    }

    #[test]
    fn three_way_join_expands_to_all_subsets() {
        let (c, a, b, d) = abc_catalog();
        let mut dag = Dag::new();
        let expr = three_way_join(&c, a, b, d);
        dag.insert_view(&c, "v", &expr);
        // Expanded DAG of Fig 1(c): one eq node per nonempty subset of
        // {A,B,C} = 7 (single-table nodes have no extra select variants
        // here because all conjuncts span two tables).
        assert_eq!(dag.eq_count(), 7);
        // Ops: 3 scans + per 2-subset 1 join + per 3-subset 3 joins = 3+3+3.
        assert_eq!(dag.op_count(), 9);
    }

    #[test]
    fn equivalent_trees_unify_to_one_node() {
        let (c, a, b, d) = abc_catalog();
        let a_id = c.table(a).attr("id");
        let b_aid = c.table(b).attr("a_id");
        let b_id = c.table(b).attr("id");
        let c_bid = c.table(d).attr("b_id");
        // (A ⋈ B) ⋈ C and A ⋈ (B ⋈ C): same canonical key.
        let left_assoc = three_way_join(&c, a, b, d);
        let bc = LogicalExpr::join(
            LogicalExpr::scan(b),
            LogicalExpr::scan(d),
            Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid)),
        );
        let right_assoc = LogicalExpr::Join {
            left: LogicalExpr::scan(a),
            right: bc,
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
        };
        let mut dag = Dag::new();
        let e1 = dag.insert_view(&c, "v1", &left_assoc);
        let e2 = dag.insert_view(&c, "v2", &right_assoc);
        assert_eq!(e1, e2);
    }

    #[test]
    fn shared_subexpressions_across_views_share_nodes() {
        let (c, a, b, d) = abc_catalog();
        let a_id = c.table(a).attr("id");
        let b_aid = c.table(b).attr("a_id");
        let ab = LogicalExpr::join(
            LogicalExpr::scan(a),
            LogicalExpr::scan(b),
            Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
        );
        let mut dag = Dag::new();
        let e_ab = dag.insert_view(&c, "v_ab", &ab);
        let full = three_way_join(&c, a, b, d);
        dag.insert_view(&c, "v_abc", &full);
        // The AB node is shared: it must appear as a child of some join op
        // under the ABC root.
        let parents = &dag.eq(e_ab).parents;
        assert!(!parents.is_empty());
    }

    #[test]
    fn selections_are_pushed_into_subset_keys() {
        let (c, a, b, _) = abc_catalog();
        let a_id = c.table(a).attr("id");
        let a_x = c.table(a).attr("x");
        let b_aid = c.table(b).attr("a_id");
        let pred = Predicate::from_conjuncts(vec![
            ScalarExpr::col_eq_col(a_id, b_aid),
            ScalarExpr::col_cmp_lit(a_x, mvmqo_relalg::expr::CmpOp::Eq, 3i64),
        ]);
        let expr = LogicalExpr::Join {
            left: LogicalExpr::scan(a),
            right: LogicalExpr::scan(b),
            predicate: pred,
        };
        let mut dag = Dag::new();
        dag.insert_view(&c, "v", &expr);
        // σ_{x=3}(A) must exist as its own equivalence node.
        let sigma_key = SemKey::Spj {
            tables: vec![a],
            preds: Predicate::from_expr(ScalarExpr::col_cmp_lit(
                a_x,
                mvmqo_relalg::expr::CmpOp::Eq,
                3i64,
            )),
        };
        assert!(dag.lookup(&sigma_key).is_some());
    }

    #[test]
    fn base_tables_and_dependence() {
        let (c, a, b, d) = abc_catalog();
        let mut dag = Dag::new();
        let expr = three_way_join(&c, a, b, d);
        let root = dag.insert_view(&c, "v", &expr);
        assert_eq!(dag.base_tables(), &[a, b, d]);
        assert!(dag.eq(root).depends_on(a));
        let base_a = dag.base_eq(a).unwrap();
        assert!(dag.eq(base_a).is_base_relation());
        assert!(!dag.eq(base_a).depends_on(b));
    }

    #[test]
    fn aggregate_nodes_are_derived_and_unified() {
        let (mut c, a, b, d) = abc_catalog();
        let sum_out = c.fresh_attr();
        let a_x = c.table(a).attr("x");
        let expr = three_way_join(&c, a, b, d);
        let agg = LogicalExpr::Aggregate {
            input: std::sync::Arc::new(expr.clone()),
            group_by: vec![a_x],
            aggs: vec![AggSpec::new(
                mvmqo_relalg::agg::AggFunc::Count,
                ScalarExpr::Col(a_x),
                sum_out,
            )],
        };
        let mut dag = Dag::new();
        let e1 = dag.insert_view(&c, "v1", &agg);
        let e2 = dag.insert_view(&c, "v2", &agg);
        assert_eq!(e1, e2);
        assert_eq!(dag.eq(e1).schema.len(), 2);
    }

    #[test]
    fn topo_order_puts_children_first() {
        let (c, a, b, d) = abc_catalog();
        let mut dag = Dag::new();
        let expr = three_way_join(&c, a, b, d);
        let root = dag.insert_view(&c, "v", &expr);
        let order = dag.topo_order();
        assert_eq!(order.len(), dag.eq_count());
        let pos = |e: EqId| order.iter().position(|x| *x == e).unwrap();
        for op in dag.op_ids().map(|o| dag.op(o)) {
            for child in &op.children {
                assert!(pos(*child) < pos(op.parent));
            }
        }
        assert_eq!(pos(root), order.len() - 1);
    }

    #[test]
    #[should_panic(expected = "self-joins")]
    fn self_join_is_rejected() {
        let (c, a, _, _) = abc_catalog();
        let expr = LogicalExpr::Join {
            left: LogicalExpr::scan(a),
            right: LogicalExpr::scan(a),
            predicate: Predicate::true_(),
        };
        let mut dag = Dag::new();
        dag.insert_view(&c, "v", &expr);
    }

    #[test]
    fn remove_view_garbage_collects_unshared_nodes() {
        let (c, a, b, d) = abc_catalog();
        let mut dag = Dag::new();
        let a_id = c.table(a).attr("id");
        let b_aid = c.table(b).attr("a_id");
        let ab = LogicalExpr::join(
            LogicalExpr::scan(a),
            LogicalExpr::scan(b),
            Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
        );
        dag.insert_view(&c, "v_ab", &ab);
        let (eqs_before, ops_before) = (dag.eq_count(), dag.op_count());
        dag.insert_view(&c, "v_abc", &three_way_join(&c, a, b, d));
        assert!(dag.eq_count() > eqs_before);
        let root = dag.remove_view("v_abc").expect("root exists");
        assert!(!dag.eq_is_live(root));
        // Counts restored; v_ab's nodes survive and stay in the memo.
        assert_eq!(dag.eq_count(), eqs_before);
        assert_eq!(dag.op_count(), ops_before);
        assert_eq!(dag.roots().len(), 1);
        assert_eq!(dag.base_tables(), &[a, b]);
        // Tombstones stay in the arena but out of iteration.
        assert!(dag.eq_arena_size() > dag.eq_count());
        assert_eq!(dag.eq_ids().count(), dag.eq_count());
        assert_eq!(dag.topo_order().len(), dag.eq_count());
        // Live survivors no longer list dead consumers.
        for e in dag.eq_ids() {
            for op in &dag.eq(e).parents {
                assert!(dag.op_is_live(*op));
            }
        }
        // The C-subset key was swept: re-adding creates fresh live nodes.
        let again = dag.insert_view(&c, "v_abc2", &three_way_join(&c, a, b, d));
        assert!(dag.eq_is_live(again));
        assert_ne!(again, root);
    }

    #[test]
    fn remove_view_keeps_nodes_shared_with_surviving_roots() {
        let (c, a, b, d) = abc_catalog();
        let mut dag = Dag::new();
        let full = three_way_join(&c, a, b, d);
        let e1 = dag.insert_view(&c, "v1", &full);
        let e2 = dag.insert_view(&c, "v2", &full);
        assert_eq!(e1, e2);
        dag.remove_view("v1").unwrap();
        // Shared root survives entirely.
        assert!(dag.eq_is_live(e2));
        assert_eq!(dag.eq_count(), 7);
        assert_eq!(dag.roots().len(), 1);
    }

    #[test]
    fn remove_unknown_view_is_none() {
        let (c, a, b, d) = abc_catalog();
        let mut dag = Dag::new();
        dag.insert_view(&c, "v", &three_way_join(&c, a, b, d));
        assert!(dag.remove_view("ghost").is_none());
        assert_eq!(dag.roots().len(), 1);
    }

    #[test]
    fn spj_stats_apply_local_and_join_conjuncts() {
        let (c, a, b, _) = abc_catalog();
        let a_id = c.table(a).attr("id");
        let a_x = c.table(a).attr("x");
        let b_aid = c.table(b).attr("a_id");
        let preds = Predicate::from_conjuncts(vec![
            ScalarExpr::col_eq_col(a_id, b_aid),
            ScalarExpr::col_cmp_lit(a_x, mvmqo_relalg::expr::CmpOp::Eq, 1i64),
        ]);
        let mut dag = Dag::new();
        let root = dag.insert_expr(
            &c,
            &LogicalExpr::select(
                LogicalExpr::join(
                    LogicalExpr::scan(a),
                    LogicalExpr::scan(b),
                    Predicate::true_(),
                ),
                preds,
            ),
        );
        // |A|/50 rows of A survive the filter; FK-like join with B gives
        // 5000/50 = 100.
        assert!((dag.eq(root).stats_old.rows - 100.0).abs() < 1.0);
    }
}
