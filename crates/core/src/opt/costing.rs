//! The cost engine: best plans for full results and differentials given a
//! set of materialized results, with incremental cost update.
//!
//! Implements the recurrences of §5.1 and §5.3:
//!
//! ```text
//! compcost(o, M)   = local cost of o + Σ C(child, M)
//! C(e, M)          = e ∈ M ? min(reusecost(e), compcost(e, M)) : compcost(e, M)
//! diffCost(o,M,i)  = localDiffCost(o,i) + Σ_{diffChildren} Cdiff(c,M,i)
//!                                        + Σ_{fullChildren} C(c, M)
//! Cdiff(e,M,i)     = δ(e,i) ∈ M ? min(reusecost(δ), diffCost(e,M,i)) : diffCost(e,M,i)
//! ```
//!
//! and the maintenance costs of §6.1:
//!
//! ```text
//! maintcost(n,M) = Σᵢ Cdiff(n,M,i) + mergeCost(n)
//! cost(full n,M) = min(compcost(n,M) + matcost(n), maintcost(n,M))
//! cost(δ(n,i),M) = diffCost(n,M,i) + matcost(δ(n,i))
//! ```
//!
//! Physical algorithm selection (hash/merge/nested-loop/index-nested-loop
//! joins, index selections) happens inside the per-op costing, with index
//! availability read from the current materialized set — this is how index
//! selection rides along with view selection (§4.3, §7).
//!
//! The engine supports **incremental cost update** (§6.2, optimization 1):
//! toggling the materialization of a result recomputes best plans only for
//! ancestors of that result, stopping as soon as costs stop changing;
//! full-result changes invalidate ancestors' full and differential slots,
//! differential changes only the matching differential slot. Every change
//! is recorded in an undo log so a candidate can be *trialed* and rolled
//! back in O(changed nodes).
//!
//! A slot recompute is the optimizer's innermost loop (a greedy benefit
//! evaluation recomputes hundreds of them), so it is pure arithmetic: the
//! alternatives of every op fold into a running minimum, and everything
//! that depends only on the DAG — row widths, join keys, sargable
//! conjuncts, groupedness — is read off the nodes, where it was derived
//! once at insertion (the ops' `OpFacts`). Propagation bookkeeping is
//! dense per-eq flags reused across trials.

use crate::cost::CostModel;
use crate::dag::{Dag, EqId, OpId, OpKind, SemKey};
use crate::diff::DiffProps;
use crate::update::{UpdateId, UpdateModel};
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::hash::{FxHashMap, FxHashSet};
use mvmqo_relalg::schema::AttrId;
use mvmqo_relalg::stats;
use mvmqo_storage::delta::DeltaKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A stored relation a plan can probe or scan directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StoredRef {
    /// A base table.
    Base(TableId),
    /// A materialized equivalence node.
    Mat(EqId),
}

/// Physical algorithm chosen for one operation (the AND-node's
/// implementation). Join children roles: `build_left`/`outer` describe the
/// op's canonical child order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alg {
    /// Sequential scan of a base table (Scan op) or of a delta log
    /// (differential of a base relation).
    Scan,
    /// Pipelined filter.
    Filter,
    /// Probe an index on a stored relation for a sargable conjunct, then
    /// apply the residual predicate.
    IndexSelect {
        target: StoredRef,
        attr: AttrId,
    },
    /// Pipelined projection.
    Project,
    /// Hash join; `build_left` says which canonical child is the build side.
    HashJoin {
        build_left: bool,
    },
    /// Sort both inputs, then merge.
    MergeJoin,
    /// Block nested loops (inner materialized).
    BlockNl,
    /// Index nested-loop join: outer side streams, inner side is a stored
    /// relation probed via an index on `inner_key`.
    IndexNl {
        /// True if the op's *left* child is the outer (streaming) side.
        outer_left: bool,
        inner: StoredRef,
        outer_key: AttrId,
        inner_key: AttrId,
    },
    /// Hash aggregation.
    HashAgg,
    /// Multiset union / difference / duplicate elimination.
    Union,
    MinusAlg,
    DistinctAlg,
}

/// A set of eq nodes (the greedy loop's per-trial affected set, the
/// session's dirty sets). Fx-hashed, so iteration order — which reaches
/// cost sums — is a function of the insert sequence alone.
pub type EqSet = FxHashSet<EqId>;

/// The set of materialized results and available indices — the `M` of the
/// paper's formulas, plus index state. Fx-hashed throughout: the total
/// cost sums over these sets, so their iteration order must not depend on
/// a per-set random seed.
#[derive(Debug, Clone, Default)]
pub struct MatSet {
    pub full: EqSet,
    pub diffs: FxHashSet<(EqId, UpdateId)>,
    pub indices: IndexSet,
}

impl MatSet {
    pub fn has_index(&self, target: StoredRef, attr: AttrId) -> bool {
        self.indices.contains(&(target, attr))
    }

    /// Number of secondary indices on a stored relation.
    pub fn index_count(&self, target: StoredRef) -> usize {
        self.indices.count(target)
    }
}

/// The available indices, with a per-relation count kept alongside so
/// `mergeCost`'s index-upkeep term does not scan the set.
#[derive(Debug, Clone, Default)]
pub struct IndexSet {
    set: FxHashSet<(StoredRef, AttrId)>,
    per_target: FxHashMap<StoredRef, usize>,
}

impl IndexSet {
    /// Add an index; false if it was already present.
    pub fn insert(&mut self, index: (StoredRef, AttrId)) -> bool {
        let new = self.set.insert(index);
        if new {
            *self.per_target.entry(index.0).or_default() += 1;
        }
        new
    }

    /// Drop an index; false if it was absent.
    pub fn remove(&mut self, index: &(StoredRef, AttrId)) -> bool {
        let present = self.set.remove(index);
        if present {
            uncount(&mut self.per_target, index.0);
        }
        present
    }

    pub fn contains(&self, index: &(StoredRef, AttrId)) -> bool {
        self.set.contains(index)
    }

    /// Keep only the indices `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&(StoredRef, AttrId)) -> bool) {
        let per_target = &mut self.per_target;
        self.set.retain(|index| {
            let kept = keep(index);
            if !kept {
                uncount(per_target, index.0);
            }
            kept
        });
    }

    /// Indices on `target`.
    pub fn count(&self, target: StoredRef) -> usize {
        self.per_target.get(&target).copied().unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(StoredRef, AttrId)> + '_ {
        self.set.iter()
    }
}

fn uncount(per_target: &mut FxHashMap<StoredRef, usize>, target: StoredRef) {
    if let Some(n) = per_target.get_mut(&target) {
        *n -= 1;
        if *n == 0 {
            per_target.remove(&target);
        }
    }
}

impl FromIterator<(StoredRef, AttrId)> for IndexSet {
    fn from_iter<I: IntoIterator<Item = (StoredRef, AttrId)>>(iter: I) -> Self {
        let mut set = IndexSet::default();
        for index in iter {
            set.insert(index);
        }
        set
    }
}

/// Which memo slot changed (undo-log granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Full,
    Diff(UpdateId),
}

#[derive(Debug, Clone)]
struct SlotState {
    cost: f64,
    best: Option<(OpId, Alg)>,
}

const BLANK: SlotState = SlotState {
    cost: f64::INFINITY,
    best: None,
};

/// One undo-log entry.
#[derive(Debug, Clone)]
struct Change {
    eq: EqId,
    slot: Slot,
    prev: SlotState,
}

/// An applied-but-revocable materialization toggle.
#[derive(Debug)]
pub struct Trial {
    changes: Vec<Change>,
    mat_undo: MatUndo,
}

impl Trial {
    /// Eq nodes whose memo slots this trial changed — the only places the
    /// configuration's total cost can have moved (benefit evaluation
    /// differences the cost over this set instead of sweeping every
    /// materialization).
    pub fn changed_eqs(&self) -> impl Iterator<Item = EqId> + '_ {
        self.changes.iter().map(|c| c.eq)
    }
}

#[derive(Debug)]
enum MatUndo {
    Full(EqId, bool),
    Diff(EqId, UpdateId, bool),
    Index(StoredRef, AttrId, bool),
}

/// Instrumentation counters (exposed in optimizer reports; the ablation
/// bench compares them across configurations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub full_slot_recomputes: u64,
    pub diff_slot_recomputes: u64,
}

/// The persistable part of a cost engine's memo: best-plan slots for every
/// full result and differential, indexed by eq id. A re-entrant optimizer
/// session extracts this after each plan ([`CostEngine::into_memo`]) and
/// resumes from it on the next one ([`CostEngine::resume`]), so a replan
/// pays only for the slots its changes actually dirtied instead of a full
/// `recompute_all`. Tombstoned ids carry stale values that are never read.
#[derive(Debug, Clone, Default)]
pub struct SavedMemo {
    full: Vec<SlotState>,
    diff: Vec<Vec<SlotState>>,
    n_updates: usize,
}

/// The cost engine over one DAG.
pub struct CostEngine<'a> {
    pub dag: &'a Dag,
    pub catalog: &'a Catalog,
    pub updates: &'a UpdateModel,
    pub props: DiffProps,
    pub model: CostModel,
    pub mats: MatSet,
    /// If false, incremental cost update is disabled and every trial
    /// recomputes the whole memo (the ablation baseline).
    pub incremental: bool,
    /// Read-only query workload: (root node, executions per refresh cycle).
    /// Each query contributes `weight × C(root, M)` to the total cost, so
    /// the greedy phase balances query speed-up against maintenance cost —
    /// the workload extension of §6.2.
    pub query_workload: Vec<(EqId, f64)>,
    full: Vec<SlotState>,
    diff: Vec<Vec<SlotState>>,
    topo: Vec<EqId>,
    rank: Vec<usize>,
    dirty: DirtySet,
    /// The undo-log buffer of the last rolled-back trial, reused.
    spare_changes: Vec<Change>,
    pub stats: EngineStats,
}

const EPS: f64 = 1e-9;

impl<'a> CostEngine<'a> {
    pub fn new(
        dag: &'a Dag,
        catalog: &'a Catalog,
        updates: &'a UpdateModel,
        model: CostModel,
        initial_mats: MatSet,
    ) -> Self {
        let props = DiffProps::compute(dag, catalog, updates);
        Self::from_props(dag, catalog, updates, model, initial_mats, props)
    }

    /// [`CostEngine::new`] over already-computed differential properties:
    /// the whole memo is computed bottom-up.
    pub fn from_props(
        dag: &'a Dag,
        catalog: &'a Catalog,
        updates: &'a UpdateModel,
        model: CostModel,
        initial_mats: MatSet,
        props: DiffProps,
    ) -> Self {
        let mut engine = Self::assemble(dag, catalog, updates, model, initial_mats, props, None);
        engine.recompute_all();
        engine
    }

    /// Rebuild an engine from a previous session's memo, recomputing only
    /// the slots of `dirty` nodes and whatever their changes invalidate
    /// upward. Falls back to a full `recompute_all` when the update
    /// numbering changed (the per-node diff arrays are keyed by it).
    /// Returns the engine plus every eq node whose slot values differ from
    /// the saved memo — the set the warm-started greedy must re-cost.
    #[allow(clippy::too_many_arguments)]
    pub fn resume(
        dag: &'a Dag,
        catalog: &'a Catalog,
        updates: &'a UpdateModel,
        model: CostModel,
        mats: MatSet,
        props: DiffProps,
        saved: SavedMemo,
        dirty: &EqSet,
    ) -> (Self, Vec<EqId>) {
        let structural = saved.n_updates != updates.len();
        // A dirty set covering most of the DAG (statistics drift touches
        // every dependent node) is recomputed faster by the linear
        // bottom-up sweep than by per-slot queue bookkeeping.
        let blanket = dirty.len() * 3 >= dag.eq_count() * 2;
        let saved = if structural { None } else { Some(saved) };
        let mut engine = Self::assemble(dag, catalog, updates, model, mats, props, saved);
        if structural || blanket {
            engine.recompute_all();
            let all: Vec<EqId> = engine.dag.eq_ids().collect();
            return (engine, all);
        }
        for &e in dirty {
            if !dag.eq_is_live(e) {
                continue;
            }
            engine.dirty.mark_full(e, engine.rank[e.0 as usize]);
            engine.dirty.mark_all_diffs(e, engine.rank[e.0 as usize]);
        }
        let changes = engine.propagate();
        let mut changed: Vec<EqId> = changes.iter().map(|c| c.eq).collect();
        changed.sort_unstable();
        changed.dedup();
        (engine, changed)
    }

    fn assemble(
        dag: &'a Dag,
        catalog: &'a Catalog,
        updates: &'a UpdateModel,
        model: CostModel,
        mats: MatSet,
        props: DiffProps,
        saved: Option<SavedMemo>,
    ) -> Self {
        let topo = dag.topo_order();
        let mut rank = vec![0usize; dag.eq_arena_size()];
        for (i, e) in topo.iter().enumerate() {
            rank[e.0 as usize] = i;
        }
        let n = updates.len();
        let (mut full, mut diff) = match saved {
            Some(s) => (s.full, s.diff),
            None => (Vec::new(), Vec::new()),
        };
        full.resize(dag.eq_arena_size(), BLANK);
        diff.resize(dag.eq_arena_size(), vec![BLANK; n]);
        for d in &mut diff {
            d.resize(n, BLANK);
        }
        CostEngine {
            dag,
            catalog,
            updates,
            props,
            model,
            mats,
            incremental: true,
            query_workload: Vec::new(),
            full,
            diff,
            topo,
            rank,
            dirty: DirtySet::new(dag.eq_arena_size(), n),
            spare_changes: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Tear the engine down into the state a re-entrant session persists:
    /// the materialized set, the differential properties, and the memo.
    pub fn into_memo(self) -> (MatSet, DiffProps, SavedMemo) {
        let n = self.updates.len();
        (
            self.mats,
            self.props,
            SavedMemo {
                full: self.full,
                diff: self.diff,
                n_updates: n,
            },
        )
    }

    /// Debug cross-check for the incremental cost update: recompute the
    /// whole memo from scratch and panic if any live slot diverges from
    /// what incremental propagation maintained. Enabled per greedy pick by
    /// `GreedyOptions::audit_incremental`.
    pub fn assert_consistent_with_recompute(&mut self) {
        let before_full: Vec<(EqId, f64)> =
            self.dag.eq_ids().map(|e| (e, self.compcost(e))).collect();
        let before_diff: Vec<(EqId, UpdateId, f64)> = self
            .dag
            .eq_ids()
            .flat_map(|e| (0..self.updates.len()).map(move |u| (e, UpdateId(u as u16))))
            .map(|(e, u)| (e, u, self.diffcost(e, u)))
            .collect();
        self.recompute_all();
        for (e, cost) in before_full {
            let truth = self.compcost(e);
            assert!(
                (cost - truth).abs() <= 1e-6 * truth.abs().max(1.0),
                "incremental cost update diverged on full slot {e}: \
                 incremental {cost}, recomputed {truth}"
            );
        }
        for (e, u, cost) in before_diff {
            let truth = self.diffcost(e, u);
            assert!(
                (cost - truth).abs() <= 1e-6 * truth.abs().max(1.0),
                "incremental cost update diverged on diff slot ({e},{u}): \
                 incremental {cost}, recomputed {truth}"
            );
        }
    }

    /// Recompute the entire memo bottom-up (initial pass; also the
    /// non-incremental ablation path).
    pub fn recompute_all(&mut self) {
        for i in 0..self.topo.len() {
            let e = self.topo[i];
            let full = self.compute_full_slot(e);
            self.full[e.0 as usize] = full;
            for u in 0..self.updates.len() {
                let d = self.compute_diff_slot(e, UpdateId(u as u16));
                self.diff[e.0 as usize][u] = d;
            }
        }
    }

    /// Position of `e` in the engine's bottom-up order (children first).
    pub fn topo_rank(&self, e: EqId) -> usize {
        self.rank[e.0 as usize]
    }

    // ==================================================================
    // Public cost accessors (the paper's C / compcost / diffCost)
    // ==================================================================

    /// compcost(e, M): cheapest way to (re)compute the full result.
    pub fn compcost(&self, e: EqId) -> f64 {
        self.full[e.0 as usize].cost
    }

    /// Best (op, algorithm) for the full result.
    pub fn best_full(&self, e: EqId) -> Option<(OpId, Alg)> {
        self.full[e.0 as usize].best
    }

    /// C(e, M): cost a consumer pays for the full result.
    pub fn c_full(&self, e: EqId) -> f64 {
        let comp = self.compcost(e);
        if self.mats.full.contains(&e) {
            comp.min(self.reuse_full(e))
        } else {
            comp
        }
    }

    /// diffCost(e, M, u): cheapest way to compute δ(e, u).
    pub fn diffcost(&self, e: EqId, u: UpdateId) -> f64 {
        self.diff[e.0 as usize][u.0 as usize].cost
    }

    /// Best (op, algorithm) for δ(e, u).
    pub fn best_diff(&self, e: EqId, u: UpdateId) -> Option<(OpId, Alg)> {
        self.diff[e.0 as usize][u.0 as usize].best
    }

    /// Cdiff(e, M, u): cost a consumer pays for δ(e, u).
    pub fn c_diff(&self, e: EqId, u: UpdateId) -> f64 {
        let d = self.diffcost(e, u);
        if self.mats.diffs.contains(&(e, u)) {
            d.min(self.reuse_delta(e, u))
        } else {
            d
        }
    }

    /// reusecost(e): sequential read of the stored full result.
    pub fn reuse_full(&self, e: EqId) -> f64 {
        let st = self.props.new_state(e);
        self.model.reuse(st.rows, self.width(e))
    }

    /// reusecost(δ(e,u)).
    pub fn reuse_delta(&self, e: EqId, u: UpdateId) -> f64 {
        let d = self.props.delta(e, u);
        self.model.reuse(d.rows, self.width(e))
    }

    /// matcost(e): writing out the full result.
    pub fn matcost_full(&self, e: EqId) -> f64 {
        let st = self.props.new_state(e);
        self.model.materialize(st.rows, self.width(e))
    }

    /// matcost(δ(e,u)).
    pub fn matcost_delta(&self, e: EqId, u: UpdateId) -> f64 {
        let d = self.props.delta(e, u);
        self.model.materialize(d.rows, self.width(e))
    }

    /// mergeCost(e): applying all 2n differentials to the stored result.
    ///
    /// Deletions need a way to *locate* victim rows: grouped results probe
    /// their group table, and indexed results probe an index; a plain result
    /// with no index must be scanned once per delete batch. This is the
    /// mechanism behind §7's index observations (without pre-existing
    /// indices, "all required indices got chosen for permanent
    /// materialization").
    pub fn merge_cost(&self, e: EqId) -> f64 {
        let grouped = self.is_grouped(e);
        let idx_count = self.mats.index_count(StoredRef::Mat(e));
        let has_locator = grouped || idx_count > 0;
        let result_rows = self.props.new_state(e).rows;
        let width = self.width(e);
        let mut total = 0.0;
        for step in self.updates.steps() {
            let d = self.props.delta(e, step.id);
            if d.rows <= 0.0 {
                continue;
            }
            let (ins, del) = match step.kind {
                DeltaKind::Insert => (d.rows, 0.0),
                DeltaKind::Delete => (0.0, d.rows),
            };
            total += self.model.merge_into(ins, del, width, idx_count, grouped);
            if del > 0.0 && !has_locator {
                total += self.model.scan(result_rows, width);
            }
        }
        total
    }

    /// maintcost(e, M) = Σ Cdiff + mergeCost.
    pub fn maintcost(&self, e: EqId) -> f64 {
        let mut total = self.merge_cost(e);
        for step in self.updates.steps() {
            total += self.c_diff(e, step.id);
        }
        total
    }

    /// cost of a materialized full result: min(recompute + write, maintain).
    /// Returns (cost, incremental_chosen).
    pub fn cost_full_result(&self, e: EqId) -> (f64, bool) {
        let recompute = self.compcost(e) + self.matcost_full(e);
        let maintain = self.maintcost(e);
        if maintain <= recompute {
            (maintain, true)
        } else {
            (recompute, false)
        }
    }

    /// cost of a materialized differential result.
    pub fn cost_diff_result(&self, e: EqId, u: UpdateId) -> f64 {
        self.diffcost(e, u) + self.matcost_delta(e, u)
    }

    /// cost of an index: min(rebuild per refresh, incremental maintenance).
    /// Returns (cost, maintained_incrementally).
    pub fn cost_index(&self, target: StoredRef) -> (f64, bool) {
        let (rows, delta_rows) = match target {
            StoredRef::Base(t) => {
                let def = self.catalog.table(t);
                let (ins, del) = self.updates.table_delta(t);
                (self.updates.rows_after_all(t, def.stats.rows), ins + del)
            }
            StoredRef::Mat(e) => (self.props.new_state(e).rows, self.props.total_delta_rows(e)),
        };
        let width = match target {
            StoredRef::Base(t) => self.catalog.table(t).schema.row_width(),
            StoredRef::Mat(e) => self.width(e),
        };
        let rebuild = self.model.index_build(rows, width);
        let maintain = self.model.index_maintain(delta_rows);
        if maintain <= rebuild {
            (maintain, true)
        } else {
            (rebuild, false)
        }
    }

    /// Total cost of the configuration — cost(M, M) of §6.1 (maintenance of
    /// everything materialized plus index upkeep), plus the weighted cost of
    /// the read-only query workload when one is attached (§6.2's extension
    /// to workloads containing queries).
    pub fn total_cost(&self) -> f64 {
        let mut total = 0.0;
        for &e in &self.mats.full {
            total += self.cost_full_result(e).0;
        }
        for &(e, u) in &self.mats.diffs {
            total += self.cost_diff_result(e, u);
        }
        for &(target, _) in self.mats.indices.iter() {
            total += self.cost_index(target).0;
        }
        for &(root, weight) in &self.query_workload {
            total += weight * self.c_full(root);
        }
        total
    }

    /// Total-cost contribution of the members whose cost can depend on the
    /// listed nodes: materialized full results and differentials anchored
    /// in `affected`, weighted query roots in `affected`, and (when
    /// currently present) the one index named by `index`. Every other
    /// member's contribution is identical on both sides of a trial whose
    /// slot changes lie inside `affected`, so
    /// `partial_cost(before) − partial_cost(after)` equals the full
    /// `total_cost` difference at a fraction of the sweep.
    pub fn partial_cost(&self, affected: &EqSet, index: Option<(StoredRef, AttrId)>) -> f64 {
        let mut total = 0.0;
        for &e in affected {
            if self.mats.full.contains(&e) {
                total += self.cost_full_result(e).0;
            }
        }
        for &(e, u) in &self.mats.diffs {
            if affected.contains(&e) {
                total += self.cost_diff_result(e, u);
            }
        }
        if let Some((target, attr)) = index {
            if self.mats.has_index(target, attr) {
                total += self.cost_index(target).0;
            }
        }
        for &(root, weight) in &self.query_workload {
            if affected.contains(&root) {
                total += weight * self.c_full(root);
            }
        }
        total
    }

    // ==================================================================
    // Materialization toggles with incremental propagation + undo
    // ==================================================================

    /// Materialize / dematerialize a full result, updating affected memo
    /// slots. Returns a [`Trial`] that can be rolled back.
    pub fn set_full_mat(&mut self, e: EqId, on: bool) -> Trial {
        let was = if on {
            !self.mats.full.insert(e)
        } else {
            !self.mats.full.remove(&e)
        };
        debug_assert!(!was, "redundant full-mat toggle on {e}");
        // Ancestors see a changed C(e): full and all differential slots.
        self.mark_parents(e, true, None);
        // Aggregate/Distinct nodes' own differential cost depends on their
        // own materialization (§3.1.2: deltas of materialized aggregates are
        // cheap; otherwise affected groups must be recomputed).
        if self.is_grouped(e) {
            self.dirty.mark_all_diffs(e, self.rank[e.0 as usize]);
        }
        Trial {
            changes: self.propagate(),
            mat_undo: MatUndo::Full(e, on),
        }
    }

    /// Materialize / dematerialize a differential result.
    pub fn set_diff_mat(&mut self, e: EqId, u: UpdateId, on: bool) -> Trial {
        if on {
            self.mats.diffs.insert((e, u));
        } else {
            self.mats.diffs.remove(&(e, u));
        }
        self.mark_parents(e, false, Some(u));
        Trial {
            changes: self.propagate(),
            mat_undo: MatUndo::Diff(e, u, on),
        }
    }

    /// Add / remove an index, updating plans that could use it.
    pub fn set_index(&mut self, target: StoredRef, attr: AttrId, on: bool) -> Trial {
        if on {
            self.mats.indices.insert((target, attr));
        } else {
            self.mats.indices.remove(&(target, attr));
        }
        let eq = match target {
            StoredRef::Base(t) => self.dag.base_eq(t),
            StoredRef::Mat(e) => Some(e),
        };
        if let Some(e) = eq {
            self.mark_parents(e, true, None);
        }
        Trial {
            changes: self.propagate(),
            mat_undo: MatUndo::Index(target, attr, on),
        }
    }

    /// Roll back a trial (restores both the materialized set and all memo
    /// slots).
    pub fn rollback(&mut self, trial: Trial) {
        let mut changes = trial.changes;
        for ch in changes.drain(..).rev() {
            match ch.slot {
                Slot::Full => self.full[ch.eq.0 as usize] = ch.prev,
                Slot::Diff(u) => self.diff[ch.eq.0 as usize][u.0 as usize] = ch.prev,
            }
        }
        self.spare_changes = changes;
        match trial.mat_undo {
            MatUndo::Full(e, on) => {
                if on {
                    self.mats.full.remove(&e);
                } else {
                    self.mats.full.insert(e);
                }
            }
            MatUndo::Diff(e, u, on) => {
                if on {
                    self.mats.diffs.remove(&(e, u));
                } else {
                    self.mats.diffs.insert((e, u));
                }
            }
            MatUndo::Index(t, a, on) => {
                if on {
                    self.mats.indices.remove(&(t, a));
                } else {
                    self.mats.indices.insert((t, a));
                }
            }
        }
    }

    /// Dirty the consumers of `e`: every slot when its full result
    /// changed, else the one differential slot `u`.
    fn mark_parents(&mut self, e: EqId, full_changed: bool, u: Option<UpdateId>) {
        let dag = self.dag;
        for &op in &dag.eq(e).parents {
            let p = dag.op(op).parent;
            let rank = self.rank[p.0 as usize];
            if full_changed {
                self.dirty.mark_full(p, rank);
                self.dirty.mark_all_diffs(p, rank);
            } else if let Some(u) = u {
                self.dirty.mark_diff(p, u, rank);
            }
        }
    }

    /// Recompute one slot and record it in the undo log if it moved.
    fn settle(&mut self, e: EqId, slot: Slot, changes: &mut Vec<Change>) -> bool {
        let (new, cur) = match slot {
            Slot::Full => (self.compute_full_slot(e), &mut self.full[e.0 as usize]),
            Slot::Diff(u) => (
                self.compute_diff_slot(e, u),
                &mut self.diff[e.0 as usize][u.0 as usize],
            ),
        };
        if slot_eq(&new, cur) {
            return false;
        }
        changes.push(Change {
            eq: e,
            slot,
            prev: std::mem::replace(cur, new),
        });
        true
    }

    /// Propagate the dirty slots upward in topological order, recomputing
    /// and recording changes; stops climbing where costs are unchanged
    /// (the §6.2 incremental cost update).
    fn propagate(&mut self) -> Vec<Change> {
        let mut changes = std::mem::take(&mut self.spare_changes);
        let n = self.updates.len();
        if !self.incremental {
            // Ablation path: recompute everything, record every change.
            self.dirty.clear();
            for i in 0..self.topo.len() {
                let e = self.topo[i];
                self.settle(e, Slot::Full, &mut changes);
                for u in 0..n {
                    self.settle(e, Slot::Diff(UpdateId(u as u16)), &mut changes);
                }
            }
            return changes;
        }

        let dag = self.dag;
        let mut diff_changed = std::mem::take(&mut self.dirty.diff_changed);
        while let Some(Reverse((_, id))) = self.dirty.queue.pop() {
            let e = EqId(id);
            let full = self.dirty.take_full(e);
            let full_changed = full && self.settle(e, Slot::Full, &mut changes);
            diff_changed.clear();
            for u in 0..n {
                let u = UpdateId(u as u16);
                if self.dirty.take_diff(e, u) && self.settle(e, Slot::Diff(u), &mut changes) {
                    diff_changed.push(u);
                }
            }
            if full_changed || !diff_changed.is_empty() {
                for &op in &dag.eq(e).parents {
                    let p = dag.op(op).parent;
                    let rank = self.rank[p.0 as usize];
                    if full_changed {
                        self.dirty.mark_full(p, rank);
                        self.dirty.mark_all_diffs(p, rank);
                    }
                    for &u in &diff_changed {
                        self.dirty.mark_diff(p, u, rank);
                    }
                }
            }
        }
        self.dirty.diff_changed = diff_changed;
        changes
    }

    // ==================================================================
    // Slot computation: physical alternatives for full results
    // ==================================================================

    fn compute_full_slot(&mut self, e: EqId) -> SlotState {
        self.stats.full_slot_recomputes += 1;
        let node = self.dag.eq(e);
        if node.children.is_empty() {
            // No alternatives: treat as stored (defensive; base relations
            // always have a Scan op so this should not trigger).
            return SlotState {
                cost: self.reuse_full(e),
                best: None,
            };
        }
        let mut best = Best::new();
        for &op in &node.children {
            best.op = op;
            self.full_op_alternatives(op, &mut best);
        }
        best.slot
    }

    /// Offer every (cost, algorithm) alternative for computing the full
    /// result of one op, using post-update statistics (recomputation
    /// happens after updates are applied).
    fn full_op_alternatives(&self, op_id: OpId, best: &mut Best) {
        let op = self.dag.op(op_id);
        let parent = op.parent;
        let out_rows = self.props.new_state(parent).rows;
        let m = &self.model;
        match &op.kind {
            OpKind::Scan(_) => {
                best.offer(m.scan(out_rows, self.width(parent)), Alg::Scan);
            }
            OpKind::Select { .. } => {
                let child = op.children[0];
                let in_rows = self.props.new_state(child).rows;
                best.offer(self.c_full(child) + m.filter(in_rows), Alg::Filter);
                // Index selection directly against a stored relation.
                if let Some((target, attr, matching)) = self.index_select_path(child, op_id) {
                    best.offer(
                        m.index_select(matching, self.width(child), in_rows) + m.filter(matching),
                        Alg::IndexSelect { target, attr },
                    );
                }
            }
            OpKind::Project { .. } => {
                let child = op.children[0];
                let in_rows = self.props.new_state(child).rows;
                best.offer(self.c_full(child) + m.filter(in_rows), Alg::Project);
            }
            OpKind::Join { .. } => {
                let l = op.children[0];
                let r = op.children[1];
                self.join_alternatives(
                    best,
                    JoinSide {
                        eq: l,
                        rows: self.props.new_state(l).rows,
                        width: self.width(l),
                        cost: self.c_full(l),
                    },
                    JoinSide {
                        eq: r,
                        rows: self.props.new_state(r).rows,
                        width: self.width(r),
                        cost: self.c_full(r),
                    },
                    &op.facts.join_keys,
                    out_rows,
                );
            }
            OpKind::Aggregate { .. } => {
                let child = op.children[0];
                let in_rows = self.props.new_state(child).rows;
                best.offer(
                    self.c_full(child) + m.hash_aggregate(in_rows, out_rows, self.width(parent)),
                    Alg::HashAgg,
                );
            }
            OpKind::UnionAll => {
                let total: f64 = op.children.iter().map(|c| self.c_full(*c)).sum();
                let rows: f64 = op
                    .children
                    .iter()
                    .map(|c| self.props.new_state(*c).rows)
                    .sum();
                best.offer(total + m.union_all(rows), Alg::Union);
            }
            OpKind::Minus => {
                let l = op.children[0];
                let r = op.children[1];
                best.offer(
                    self.c_full(l)
                        + self.c_full(r)
                        + m.minus(
                            self.props.new_state(l).rows,
                            self.props.new_state(r).rows,
                            self.width(r),
                        ),
                    Alg::MinusAlg,
                );
            }
            OpKind::Distinct => {
                let child = op.children[0];
                let in_rows = self.props.new_state(child).rows;
                best.offer(
                    self.c_full(child) + m.distinct(in_rows, out_rows, self.width(parent)),
                    Alg::DistinctAlg,
                );
            }
        }
    }

    /// Offer the join algorithms for given side descriptions. `keys` are
    /// the op's equi-join keys in both orientations (see
    /// `OpFacts::join_keys`).
    fn join_alternatives(
        &self,
        best: &mut Best,
        left: JoinSide,
        right: JoinSide,
        keys: &[Vec<(AttrId, AttrId)>; 2],
        out_rows: f64,
    ) {
        let m = &self.model;
        // Hash join, both build sides.
        best.offer(
            left.cost
                + right.cost
                + m.hash_join(left.rows, left.width, right.rows, right.width, out_rows),
            Alg::HashJoin { build_left: true },
        );
        best.offer(
            left.cost
                + right.cost
                + m.hash_join(right.rows, right.width, left.rows, left.width, out_rows),
            Alg::HashJoin { build_left: false },
        );
        // Merge join (sorts charged).
        best.offer(
            left.cost
                + right.cost
                + m.sort(left.rows, left.width)
                + m.sort(right.rows, right.width)
                + m.merge_join(left.rows, right.rows, out_rows),
            Alg::MergeJoin,
        );
        // Block nested loops.
        best.offer(
            left.cost
                + right.cost
                + m.block_nl_join(left.rows, left.width, right.rows, right.width),
            Alg::BlockNl,
        );
        // Index nested loops, each side as the probed inner.
        for (outer, inner, outer_left, keys) in [
            (&left, &right, true, &keys[0]),
            (&right, &left, false, &keys[1]),
        ] {
            for &(okey, ikey) in keys {
                if let Some((target, probe_rows)) = self.probe_path(inner.eq, ikey, outer.rows) {
                    let cost = outer.cost
                        + m.index_nl_join(outer.rows, probe_rows, inner.rows, inner.width)
                        + m.filter(probe_rows)
                        + out_rows * m.cpu_tuple;
                    best.offer(
                        cost,
                        Alg::IndexNl {
                            outer_left,
                            inner: target,
                            outer_key: okey,
                            inner_key: ikey,
                        },
                    );
                }
            }
        }
    }

    /// Can `inner` be probed via an index on `key`? Returns the stored
    /// relation to probe and the estimated matching rows fetched across
    /// `outer_rows` probes (before residual filtering).
    ///
    /// Three cases: the inner is a base relation with an index; the inner is
    /// a materialized node with an index; or the inner is a single-table
    /// selection whose *base table* has an index (probe the base, then apply
    /// the selection as a residual).
    fn probe_path(&self, inner: EqId, key: AttrId, outer_rows: f64) -> Option<(StoredRef, f64)> {
        let node = self.dag.eq(inner);
        // Direct: materialized or base.
        let direct: Option<StoredRef> = if let Some(t) = node.as_base_table() {
            Some(StoredRef::Base(t))
        } else if self.mats.full.contains(&inner) {
            Some(StoredRef::Mat(inner))
        } else {
            None
        };
        if let Some(target) = direct {
            if self.mats.has_index(target, key) {
                let st = self.props.new_state(inner);
                let matches = outer_rows * st.rows / st.distinct(key).max(1.0);
                return Some((target, matches));
            }
        }
        // Single-table selection over an indexed base.
        if let SemKey::Spj { tables, preds } = &node.key {
            if tables.len() == 1 && !preds.is_true() {
                let t = tables[0];
                let target = StoredRef::Base(t);
                if self.mats.has_index(target, key) {
                    let base = self.catalog.table(t);
                    let rows = self.updates.rows_after_all(t, base.stats.rows);
                    let distinct = base.stats.distinct(key).max(1.0);
                    let matches = outer_rows * rows / distinct;
                    return Some((target, matches));
                }
            }
        }
        None
    }

    /// Index path for the Select op `select` over `child`: the first
    /// equality conjunct on an indexed attribute, with the rows it matches
    /// (the runtime probes an index for `=` only).
    fn index_select_path(&self, child: EqId, select: OpId) -> Option<(StoredRef, AttrId, f64)> {
        let node = self.dag.eq(child);
        let target = if let Some(t) = node.as_base_table() {
            StoredRef::Base(t)
        } else if self.mats.full.contains(&child) {
            StoredRef::Mat(child)
        } else {
            return None;
        };
        let (attr, single) = self
            .dag
            .op(select)
            .facts
            .eq_probes
            .iter()
            .find(|(attr, _)| self.mats.has_index(target, *attr))?;
        let matching = stats::select_rows(self.props.new_state(child), single);
        Some((target, *attr, matching))
    }

    // ==================================================================
    // Slot computation: differentials (§5.3)
    // ==================================================================

    fn compute_diff_slot(&mut self, e: EqId, u: UpdateId) -> SlotState {
        self.stats.diff_slot_recomputes += 1;
        if self.props.delta_is_empty(e, u) {
            return SlotState {
                cost: 0.0,
                best: None,
            };
        }
        let node = self.dag.eq(e);
        if node.is_base_relation() {
            // Differential of a base relation: read the delta log.
            let d = self.props.delta(e, u);
            return SlotState {
                cost: self.model.scan(d.rows, node.width),
                best: Some((node.children[0], Alg::Scan)),
            };
        }
        let mut best = Best::new();
        for &op in &node.children {
            best.op = op;
            self.diff_op_alternatives(op, u, &mut best);
        }
        best.slot
    }

    /// Offer the alternatives for computing δ(parent, u) through one op.
    fn diff_op_alternatives(&self, op_id: OpId, u: UpdateId, best: &mut Best) {
        let op = self.dag.op(op_id);
        let parent = op.parent;
        let table = self.updates.step(u).table;
        let m = &self.model;
        let out_delta_rows = self.props.delta(parent, u).rows;
        match &op.kind {
            OpKind::Scan(_) => { /* handled in compute_diff_slot */ }
            OpKind::Select { .. } | OpKind::Project { .. } => {
                let child = op.children[0];
                if !self.dag.eq(child).depends_on(table) {
                    return; // this path contributes no delta
                }
                let d_rows = self.props.delta(child, u).rows;
                let alg = if matches!(op.kind, OpKind::Select { .. }) {
                    Alg::Filter
                } else {
                    Alg::Project
                };
                best.offer(self.c_diff(child, u) + m.filter(d_rows), alg);
            }
            OpKind::Join { .. } => {
                let l = op.children[0];
                let r = op.children[1];
                let l_dep = self.dag.eq(l).depends_on(table);
                let r_dep = self.dag.eq(r).depends_on(table);
                let keys = &op.facts.join_keys;
                match (l_dep, r_dep) {
                    (true, false) => {
                        self.delta_join_alternatives(best, u, l, r, true, &keys[0], out_delta_rows);
                    }
                    (false, true) => {
                        self.delta_join_alternatives(
                            best,
                            u,
                            r,
                            l,
                            false,
                            &keys[1],
                            out_delta_rows,
                        );
                    }
                    (true, true) => {
                        // Both inputs change (only possible through non-SPJ
                        // structure): δ = (δL ⋈ R) ∪ ((L∘δL) ⋈ δR).
                        // Cost both sub-joins with hash joins.
                        let dl = self.props.delta(l, u).rows;
                        let dr = self.props.delta(r, u).rows;
                        let r_rows = self.props.state_at(r, u.0 as usize).rows;
                        let l_rows = self.props.state_at(l, u.0 as usize).rows;
                        let cost = self.c_diff(l, u)
                            + self.c_diff(r, u)
                            + self.c_full(l)
                            + self.c_full(r)
                            + m.hash_join(dl, self.width(l), r_rows, self.width(r), out_delta_rows)
                            + m.hash_join(
                                dr,
                                self.width(r),
                                l_rows + dl,
                                self.width(l),
                                out_delta_rows,
                            )
                            + m.union_all(out_delta_rows);
                        best.offer(cost, Alg::HashJoin { build_left: true });
                    }
                    (false, false) => {}
                }
            }
            OpKind::Aggregate { .. } => {
                let child = op.children[0];
                if !self.dag.eq(child).depends_on(table) {
                    return;
                }
                if self.is_grouped(child) {
                    // Roll-up derivation (subsumption): its delta would be a
                    // re-aggregation of partial-aggregate records; the
                    // executor maintains aggregates from raw input deltas
                    // instead, so only the direct op offers a delta plan.
                    return;
                }
                let d_in = self.props.delta(child, u).rows;
                if self.mats.full.contains(&parent) {
                    // Materialized aggregate: aggregate the input delta into
                    // merge records (§3.1.2).
                    best.offer(
                        self.c_diff(child, u)
                            + m.hash_aggregate(d_in, out_delta_rows, self.width(parent)),
                        Alg::HashAgg,
                    );
                } else {
                    // Unmaterialized: recompute the affected groups, which
                    // requires the full input (§3.1.2 "significant extra
                    // work").
                    let full_in = self.props.state_at(child, u.0 as usize).rows;
                    best.offer(
                        self.c_diff(child, u)
                            + self.c_full(child)
                            + m.hash_aggregate(full_in, out_delta_rows, self.width(parent)),
                        Alg::HashAgg,
                    );
                }
            }
            OpKind::UnionAll => {
                let mut cost = m.union_all(out_delta_rows);
                for &c in &op.children {
                    if self.dag.eq(c).depends_on(table) {
                        cost += self.c_diff(c, u);
                    }
                }
                best.offer(cost, Alg::Union);
            }
            OpKind::Minus => {
                // Incremental maintenance of multiset difference is not
                // supported (§3.1.2 covers only restricted cases);
                // recomputation is forced by an infinite differential cost.
                best.offer(f64::INFINITY, Alg::MinusAlg);
            }
            OpKind::Distinct => {
                let child = op.children[0];
                if !self.dag.eq(child).depends_on(table) {
                    return;
                }
                let d_in = self.props.delta(child, u).rows;
                if self.mats.full.contains(&parent) {
                    best.offer(
                        self.c_diff(child, u)
                            + m.distinct(d_in, out_delta_rows, self.width(parent)),
                        Alg::DistinctAlg,
                    );
                } else {
                    let full_in = self.props.state_at(child, u.0 as usize).rows;
                    best.offer(
                        self.c_diff(child, u)
                            + self.c_full(child)
                            + m.distinct(full_in, out_delta_rows, self.width(parent)),
                        Alg::DistinctAlg,
                    );
                }
            }
        }
    }

    /// Alternatives for a one-sided delta join: δ(diff side) ⋈ full side.
    /// `diff_is_left` records which canonical child streams the delta;
    /// `keys` are the equi-join keys oriented (diff attr, full attr).
    #[allow(clippy::too_many_arguments)]
    fn delta_join_alternatives(
        &self,
        best: &mut Best,
        u: UpdateId,
        d_child: EqId,
        f_child: EqId,
        diff_is_left: bool,
        keys: &[(AttrId, AttrId)],
        out_rows: f64,
    ) {
        let m = &self.model;
        let d_rows = self.props.delta(d_child, u).rows;
        let f_rows = self.props.state_at(f_child, u.0 as usize).rows;
        let d_cost = self.c_diff(d_child, u);
        let f_cost = self.c_full(f_child);
        let f_width = self.width(f_child);
        // Hash join: build the (usually tiny) delta side.
        best.offer(
            d_cost + f_cost + m.hash_join(d_rows, self.width(d_child), f_rows, f_width, out_rows),
            Alg::HashJoin {
                build_left: diff_is_left,
            },
        );
        // Index nested loops: stream the delta, probe the stored full side.
        // This is the plan §3.2.3 motivates: (δA ⋈ B) via B's index instead
        // of computing B ⋈ C.
        for &(okey, ikey) in keys {
            if let Some((target, probe_rows)) = self.probe_path(f_child, ikey, d_rows) {
                best.offer(
                    d_cost
                        + m.index_nl_join(d_rows, probe_rows, f_rows, f_width)
                        + m.filter(probe_rows)
                        + out_rows * m.cpu_tuple,
                    Alg::IndexNl {
                        outer_left: diff_is_left,
                        inner: target,
                        outer_key: okey,
                        inner_key: ikey,
                    },
                );
            }
        }
    }

    // ==================================================================
    // Misc helpers
    // ==================================================================

    /// Row width of an eq node's result.
    pub fn width(&self, e: EqId) -> usize {
        self.dag.eq(e).width
    }

    /// True for nodes whose stored form is keyed by groups (aggregate /
    /// distinct), which changes merge behaviour and cost.
    pub fn is_grouped(&self, e: EqId) -> bool {
        self.dag.eq(e).grouped
    }
}

/// The running minimum of one slot recompute. Alternatives are offered in
/// enumeration order, and one replaces the incumbent only when it is
/// cheaper by more than `EPS` — so among near-ties the first offered wins.
struct Best {
    slot: SlotState,
    /// The op whose alternatives are being offered.
    op: OpId,
}

impl Best {
    fn new() -> Best {
        Best {
            slot: BLANK,
            op: OpId(0),
        }
    }

    #[inline]
    fn offer(&mut self, cost: f64, alg: Alg) {
        if cost < self.slot.cost - EPS {
            self.slot = SlotState {
                cost,
                best: Some((self.op, alg)),
            };
        }
    }
}

/// One side of a join being costed.
struct JoinSide {
    eq: EqId,
    rows: f64,
    width: usize,
    cost: f64,
}

fn slot_eq(a: &SlotState, b: &SlotState) -> bool {
    (a.cost - b.cost).abs() <= EPS && a.best == b.best
}

/// Dirty-slot bookkeeping for incremental propagation: dense per-eq flags
/// and a rank-ordered queue of the eqs that have any, reused by every
/// trial of one engine. An eq is queued at most once at a time; popping it
/// (lowest topological rank first) takes its flags.
#[derive(Debug, Default)]
struct DirtySet {
    n_updates: usize,
    /// Full-slot flag per eq id.
    full: Vec<bool>,
    /// Differential-slot flags, `n_updates` per eq id.
    diffs: Vec<bool>,
    /// Whether an eq id is in `queue`.
    queued: Vec<bool>,
    /// Min-queue of (topological rank, eq id).
    queue: BinaryHeap<Reverse<(usize, u32)>>,
    /// Scratch: the differential slots of the eq being settled that moved.
    diff_changed: Vec<UpdateId>,
}

impl DirtySet {
    fn new(arena: usize, n_updates: usize) -> Self {
        DirtySet {
            n_updates,
            full: vec![false; arena],
            diffs: vec![false; arena * n_updates],
            queued: vec![false; arena],
            queue: BinaryHeap::new(),
            diff_changed: Vec::new(),
        }
    }

    fn enqueue(&mut self, e: EqId, rank: usize) {
        let queued = &mut self.queued[e.0 as usize];
        if !*queued {
            *queued = true;
            self.queue.push(Reverse((rank, e.0)));
        }
    }

    fn mark_full(&mut self, e: EqId, rank: usize) {
        self.full[e.0 as usize] = true;
        self.enqueue(e, rank);
    }

    fn mark_diff(&mut self, e: EqId, u: UpdateId, rank: usize) {
        self.diffs[e.0 as usize * self.n_updates + u.0 as usize] = true;
        self.enqueue(e, rank);
    }

    fn mark_all_diffs(&mut self, e: EqId, rank: usize) {
        let at = e.0 as usize * self.n_updates;
        self.diffs[at..at + self.n_updates].fill(true);
        self.enqueue(e, rank);
    }

    /// Take the full-slot flag of a popped eq (also un-queues it).
    fn take_full(&mut self, e: EqId) -> bool {
        self.queued[e.0 as usize] = false;
        std::mem::take(&mut self.full[e.0 as usize])
    }

    fn take_diff(&mut self, e: EqId, u: UpdateId) -> bool {
        std::mem::take(&mut self.diffs[e.0 as usize * self.n_updates + u.0 as usize])
    }

    /// Drop every pending flag (the ablation path recomputes everything).
    fn clear(&mut self) {
        while let Some(Reverse((_, id))) = self.queue.pop() {
            let e = EqId(id);
            self.take_full(e);
            for u in 0..self.n_updates {
                self.take_diff(e, UpdateId(u as u16));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::catalog::ColumnSpec;
    use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
    use mvmqo_relalg::logical::LogicalExpr;
    use mvmqo_relalg::types::DataType;

    struct Fixture {
        catalog: Catalog,
        dag: Dag,
        root: EqId,
        a: TableId,
        b: TableId,
        c: TableId,
    }

    fn fixture() -> Fixture {
        let mut catalog = Catalog::new();
        let a = catalog.add_table(
            "a",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("x", DataType::Int, 50.0),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            100_000.0,
            &["id"],
        );
        let b = catalog.add_table(
            "b",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("a_id", DataType::Int, 100_000.0),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            500_000.0,
            &["id"],
        );
        let c = catalog.add_table(
            "c",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("b_id", DataType::Int, 500_000.0),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            2_000_000.0,
            &["id"],
        );
        let a_id = catalog.table(a).attr("id");
        let b_aid = catalog.table(b).attr("a_id");
        let b_id = catalog.table(b).attr("id");
        let c_bid = catalog.table(c).attr("b_id");
        let expr = LogicalExpr::Join {
            left: LogicalExpr::join(
                LogicalExpr::scan(a),
                LogicalExpr::scan(b),
                Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
            ),
            right: LogicalExpr::scan(c),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid)),
        };
        let mut dag = Dag::new();
        let root = dag.insert_view(&catalog, "v", &expr);
        Fixture {
            catalog,
            dag,
            root,
            a,
            b,
            c,
        }
    }

    fn pk_indices(f: &Fixture) -> IndexSet {
        [f.a, f.b, f.c]
            .iter()
            .map(|t| (StoredRef::Base(*t), f.catalog.table(*t).primary_key[0]))
            .collect()
    }

    fn engine<'x>(f: &'x Fixture, updates: &'x UpdateModel, mats: MatSet) -> CostEngine<'x> {
        CostEngine::new(&f.dag, &f.catalog, updates, CostModel::default(), mats)
    }

    #[test]
    fn full_costs_are_finite_and_monotone_in_size() {
        let f = fixture();
        let updates =
            UpdateModel::percentage([f.a, f.b, f.c], 10.0, |t| f.catalog.table(t).stats.rows);
        let eng = engine(
            &f,
            &updates,
            MatSet {
                full: [f.root].into_iter().collect(),
                ..Default::default()
            },
        );
        let base_a = f.dag.base_eq(f.a).unwrap();
        assert!(eng.compcost(base_a).is_finite());
        assert!(eng.compcost(f.root).is_finite());
        assert!(eng.compcost(f.root) > eng.compcost(base_a));
    }

    #[test]
    fn diffcost_much_cheaper_than_recompute_at_small_updates() {
        let f = fixture();
        let updates =
            UpdateModel::percentage([f.a, f.b, f.c], 0.5, |t| f.catalog.table(t).stats.rows);
        let mut mats = MatSet {
            full: [f.root].into_iter().collect(),
            ..Default::default()
        };
        mats.indices = pk_indices(&f);
        // Join-key indices (the kind Figure 5(b) shows the greedy phase
        // selecting on its own) plus the view's locator index for
        // delete-merges (the session installs one when PK indices exist).
        mats.indices
            .insert((StoredRef::Base(f.b), f.catalog.table(f.b).attr("a_id")));
        mats.indices
            .insert((StoredRef::Base(f.c), f.catalog.table(f.c).attr("b_id")));
        let root_first = f.dag.eq(f.root).schema.ids()[0];
        mats.indices.insert((StoredRef::Mat(f.root), root_first));
        let eng = engine(&f, &updates, mats);
        let (cost, incremental) = eng.cost_full_result(f.root);
        assert!(incremental, "0.5% updates should favour maintenance");
        assert!(cost < eng.compcost(f.root) + eng.matcost_full(f.root));
    }

    #[test]
    fn recompute_wins_at_huge_updates() {
        let f = fixture();
        let updates =
            UpdateModel::percentage([f.a, f.b, f.c], 90.0, |t| f.catalog.table(t).stats.rows);
        let eng = engine(
            &f,
            &updates,
            MatSet {
                full: [f.root].into_iter().collect(),
                ..Default::default()
            },
        );
        let recompute = eng.compcost(f.root) + eng.matcost_full(f.root);
        let maintain = eng.maintcost(f.root);
        assert!(
            recompute < maintain,
            "recompute={recompute} maintain={maintain}"
        );
    }

    #[test]
    fn materializing_a_shared_node_lowers_total() {
        let f = fixture();
        let updates =
            UpdateModel::percentage([f.a, f.b, f.c], 5.0, |t| f.catalog.table(t).stats.rows);
        let mut mats = MatSet {
            full: [f.root].into_iter().collect(),
            ..Default::default()
        };
        mats.indices = pk_indices(&f);
        let mut eng = engine(&f, &updates, mats);
        let before = eng.total_cost();
        // Materialize B⋈C (the subexpression every δA plan needs as a full
        // input).
        let bc = f
            .dag
            .lookup(&SemKey::Spj {
                tables: vec![f.b, f.c],
                preds: {
                    let b_id = f.catalog.table(f.b).attr("id");
                    let c_bid = f.catalog.table(f.c).attr("b_id");
                    Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid))
                },
            })
            .expect("B⋈C node exists");
        let trial = eng.set_full_mat(bc, true);
        let after_ancestors = eng.total_cost() + eng.cost_full_result(bc).0;
        // The ancestors' costs must not increase; rollback must restore.
        assert!(after_ancestors.is_finite());
        eng.rollback(trial);
        let restored = eng.total_cost();
        assert!((restored - before).abs() < 1e-6);
    }

    #[test]
    fn incremental_and_full_recompute_agree() {
        let f = fixture();
        let updates =
            UpdateModel::percentage([f.a, f.b, f.c], 10.0, |t| f.catalog.table(t).stats.rows);
        let mut mats = MatSet {
            full: [f.root].into_iter().collect(),
            ..Default::default()
        };
        mats.indices = pk_indices(&f);
        let mut eng = engine(&f, &updates, mats);
        // Toggle a materialization incrementally ...
        let ab_key = {
            let a_id = f.catalog.table(f.a).attr("id");
            let b_aid = f.catalog.table(f.b).attr("a_id");
            SemKey::Spj {
                tables: vec![f.a, f.b],
                preds: Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
            }
        };
        let ab = f.dag.lookup(&ab_key).unwrap();
        let _trial = eng.set_full_mat(ab, true);
        let incremental_costs: Vec<f64> = f.dag.eq_ids().map(|e| eng.compcost(e)).collect();
        let incremental_diffs: Vec<f64> = f
            .dag
            .eq_ids()
            .flat_map(|e| {
                updates
                    .steps()
                    .iter()
                    .map(move |s| (e, s.id))
                    .collect::<Vec<_>>()
            })
            .map(|(e, u)| eng.diffcost(e, u))
            .collect();
        // ... then force a ground-truth full recompute and compare.
        eng.recompute_all();
        let ground_costs: Vec<f64> = f.dag.eq_ids().map(|e| eng.compcost(e)).collect();
        let ground_diffs: Vec<f64> = f
            .dag
            .eq_ids()
            .flat_map(|e| {
                updates
                    .steps()
                    .iter()
                    .map(move |s| (e, s.id))
                    .collect::<Vec<_>>()
            })
            .map(|(e, u)| eng.diffcost(e, u))
            .collect();
        for (a, b) in incremental_costs.iter().zip(&ground_costs) {
            assert!((a - b).abs() < 1e-6, "full slot mismatch: {a} vs {b}");
        }
        for (a, b) in incremental_diffs.iter().zip(&ground_diffs) {
            assert!((a - b).abs() < 1e-6, "diff slot mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn index_enables_cheap_delta_plans() {
        let f = fixture();
        let updates = UpdateModel::percentage([f.a], 0.1, |t| f.catalog.table(t).stats.rows);
        // Without any index: delta of root w.r.t. δ⁺A must compute B⋈C or
        // hash the full side.
        let no_idx = engine(
            &f,
            &updates,
            MatSet {
                full: [f.root].into_iter().collect(),
                ..Default::default()
            },
        );
        let d_no = no_idx.diffcost(f.root, UpdateId(0));
        // With an index on b.a_id: δA can probe B directly.
        let mut mats = MatSet {
            full: [f.root].into_iter().collect(),
            ..Default::default()
        };
        let b_aid = f.catalog.table(f.b).attr("a_id");
        let c_bid = f.catalog.table(f.c).attr("b_id");
        mats.indices.insert((StoredRef::Base(f.b), b_aid));
        mats.indices.insert((StoredRef::Base(f.c), c_bid));
        let with_idx = engine(&f, &updates, mats);
        let d_with = with_idx.diffcost(f.root, UpdateId(0));
        assert!(
            d_with < d_no * 0.5,
            "index should cut delta cost: {d_with} vs {d_no}"
        );
    }

    #[test]
    fn empty_delta_has_zero_cost() {
        let f = fixture();
        let updates = UpdateModel::percentage([f.a], 10.0, |t| f.catalog.table(t).stats.rows);
        let eng = engine(
            &f,
            &updates,
            MatSet {
                full: [f.root].into_iter().collect(),
                ..Default::default()
            },
        );
        let base_b = f.dag.base_eq(f.b).unwrap();
        for s in updates.steps() {
            assert_eq!(eng.diffcost(base_b, s.id), 0.0);
        }
    }

    /// The runtime probes an index only for an `=` conjunct (every index is
    /// a hash index), so a range selection over an indexed attribute is
    /// costed as the filtered scan it runs as; an equality gets the probe.
    #[test]
    fn index_select_is_offered_for_equality_only() {
        let mut catalog = Catalog::new();
        let t = catalog.add_table(
            "t",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_range("a", DataType::Int, 1000.0, (0.0, 1000.0)),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            100_000.0,
            &["id"],
        );
        let a = catalog.table(t).attr("a");
        let updates = UpdateModel::percentage([t], 1.0, |x| catalog.table(x).stats.rows);
        for (op, probed) in [(CmpOp::Lt, false), (CmpOp::Ge, false), (CmpOp::Eq, true)] {
            let view = LogicalExpr::select(
                LogicalExpr::scan(t),
                Predicate::from_expr(ScalarExpr::col_cmp_lit(a, op, 3i64)),
            );
            let mut dag = Dag::new();
            let root = dag.insert_view(&catalog, "v", &view);
            let mut mats = MatSet {
                full: [root].into_iter().collect(),
                ..Default::default()
            };
            mats.indices.insert((StoredRef::Base(t), a));
            let eng = CostEngine::new(&dag, &catalog, &updates, CostModel::default(), mats);
            let alg = eng.best_full(root).map(|(_, alg)| alg);
            assert_eq!(
                matches!(alg, Some(Alg::IndexSelect { .. })),
                probed,
                "{op:?}: {alg:?}"
            );
        }
    }

    #[test]
    fn materialized_aggregate_gets_cheap_delta() {
        let mut catalog = Catalog::new();
        let t = catalog.add_table(
            "t",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("g", DataType::Int, 100.0),
                ColumnSpec::with_range("v", DataType::Float, 1000.0, (0.0, 100.0)),
            ],
            100_000.0,
            &["id"],
        );
        let g = catalog.table(t).attr("g");
        let v = catalog.table(t).attr("v");
        let out = catalog.fresh_attr();
        let agg = LogicalExpr::aggregate(
            LogicalExpr::scan(t),
            vec![g],
            vec![mvmqo_relalg::agg::AggSpec::new(
                mvmqo_relalg::agg::AggFunc::Sum,
                ScalarExpr::Col(v),
                out,
            )],
        );
        let mut dag = Dag::new();
        let root = dag.insert_view(&catalog, "v_agg", &agg);
        let updates = UpdateModel::percentage([t], 1.0, |x| catalog.table(x).stats.rows);
        // Materialized (it is a view) → cheap diff.
        let eng_mat = CostEngine::new(
            &dag,
            &catalog,
            &updates,
            CostModel::default(),
            MatSet {
                full: [root].into_iter().collect(),
                ..Default::default()
            },
        );
        let cheap = eng_mat.diffcost(root, UpdateId(0));
        // Unmaterialized → affected-group recompute.
        let eng_unmat = CostEngine::new(
            &dag,
            &catalog,
            &updates,
            CostModel::default(),
            MatSet::default(),
        );
        let expensive = eng_unmat.diffcost(root, UpdateId(0));
        assert!(
            cheap < expensive * 0.5,
            "materialized agg delta {cheap} should beat unmaterialized {expensive}"
        );
    }

    #[test]
    fn total_cost_includes_diff_and_index_members() {
        let f = fixture();
        let updates =
            UpdateModel::percentage([f.a, f.b, f.c], 10.0, |t| f.catalog.table(t).stats.rows);
        let mut eng = engine(
            &f,
            &updates,
            MatSet {
                full: [f.root].into_iter().collect(),
                ..Default::default()
            },
        );
        let base_total = eng.total_cost();
        let _t1 = eng.set_diff_mat(f.root, UpdateId(0), true);
        let with_diff = eng.total_cost();
        assert!(with_diff > 0.0);
        // Adding the diff result adds its computation+storage cost.
        assert!(with_diff >= base_total - 1e-9);
    }
}
