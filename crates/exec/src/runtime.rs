//! Execution runtime: stored materializations, vectorized plan evaluation,
//! and delta merging.
//!
//! The runtime owns the materialized results (user views, permanent extras,
//! and on-demand temporaries), evaluates [`PhysPlan`]s against the *current*
//! database state, and applies computed differentials. Temporarily
//! materialized results are recomputed on demand and invalidated whenever a
//! base relation they depend on is updated, which keeps every full input a
//! delta plan reads in exactly the state updates `1..u−1` applied — the
//! semantics §5.2's per-node state entries describe.
//!
//! Evaluation is split in two:
//!
//! 1. `Runtime::prepare` — the only *mutable* pass: materializes every
//!    stored result the plan reads and creates any index it probes;
//! 2. `EvalCtx::eval` — a read-only vectorized evaluator over columnar
//!    [`Batch`]es. Because it only holds shared references, one update
//!    step's merge-delta plans can run on separate threads against one
//!    prepared state, and operators can split their input into morsels.

use crate::error::{panic_message, ExecError};
use crate::journal::Journal;
use crate::meter::Meter;
use mvmqo_core::cost::CostModel;
use mvmqo_core::dag::{Dag, EqId};
use mvmqo_core::opt::StoredRef;
use mvmqo_core::plan::{PhysPlan, PlanNode};
use mvmqo_core::update::UpdateId;
use mvmqo_relalg::agg::{Accumulator, AggSpec};
use mvmqo_relalg::batch::{Batch, Column, ColumnData, CompiledPredicate};
use mvmqo_relalg::catalog::Catalog;
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::hash::{u64_map_with_capacity, U64Map};
use mvmqo_relalg::schema::{AttrId, Schema};
use mvmqo_relalg::tuple::Tuple;
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::{DeltaKind, DeltaSet};
use mvmqo_storage::faults::FaultRegistry;
use mvmqo_storage::index::IndexKind;
use mvmqo_storage::journal::TableJournal;
use mvmqo_storage::table::StoredTable;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrder};
use std::sync::Arc;

/// Hidden per-group accumulator state for a maintained aggregate view
/// (footnote 1 of the paper: counts must be kept to apply deletions).
#[derive(Debug, Clone)]
pub struct AggState {
    pub group_by: Vec<AttrId>,
    pub specs: Vec<AggSpec>,
    pub input_schema: Schema,
    groups: HashMap<Vec<Value>, Vec<Accumulator>>,
}

impl AggState {
    pub fn new(group_by: Vec<AttrId>, specs: Vec<AggSpec>, input_schema: Schema) -> Self {
        AggState {
            group_by,
            specs,
            input_schema,
            groups: HashMap::new(),
        }
    }

    // Invariant, not input validation: `group_by` is derived from
    // `input_schema` when the state is built, so every group attribute is
    // present by construction.
    #[allow(clippy::expect_used)]
    fn key_positions(&self) -> Vec<usize> {
        self.group_by
            .iter()
            .map(|g| self.input_schema.position_of(*g).expect("group attr"))
            .collect()
    }

    /// Iterate the hidden per-group accumulators (the durability layer
    /// persists them so aggregate views stay incrementally maintainable
    /// after recovery).
    pub fn group_entries(&self) -> impl Iterator<Item = (&Vec<Value>, &Vec<Accumulator>)> {
        self.groups.iter()
    }

    /// Reassemble from persisted parts (inverse of
    /// [`AggState::group_entries`] plus the public fields).
    pub fn from_parts(
        group_by: Vec<AttrId>,
        specs: Vec<AggSpec>,
        input_schema: Schema,
        groups: Vec<(Vec<Value>, Vec<Accumulator>)>,
    ) -> Self {
        AggState {
            group_by,
            specs,
            input_schema,
            groups: groups.into_iter().collect(),
        }
    }

    /// Fold raw input rows in (inserts) or out (deletes). Returns `true` if
    /// a non-removable aggregate (MIN/MAX) saw a deletion and the state can
    /// no longer answer exactly — the caller must recompute.
    pub fn fold(&mut self, rows: &[Tuple], kind: DeltaKind) -> bool {
        let key_pos = self.key_positions();
        let mut needs_recompute = false;
        for row in rows {
            let key: Vec<Value> = key_pos.iter().map(|&i| row[i].clone()).collect();
            let specs = &self.specs;
            let entry = self
                .groups
                .entry(key)
                .or_insert_with(|| specs.iter().map(|s| Accumulator::new(s.func)).collect());
            for (acc, spec) in entry.iter_mut().zip(specs) {
                let v = spec.input.eval(row, &self.input_schema);
                match kind {
                    DeltaKind::Insert => acc.add(&v),
                    DeltaKind::Delete => {
                        if spec.func.removable() {
                            acc.remove(&v);
                        } else {
                            needs_recompute = true;
                        }
                    }
                }
            }
        }
        // Drop extinct groups.
        self.groups.retain(|_, accs| !accs[0].is_empty());
        needs_recompute
    }

    /// Columnar [`AggState::fold`]: the merge path's input differential
    /// arrives as a [`Batch`] and is folded by column access — group keys
    /// and plain-column aggregate arguments read straight from the column
    /// vectors; only general expressions fall back to a scratch row. The
    /// batch is aligned to the state's input layout first, so column-order
    /// drift cannot mis-bind arguments.
    pub fn fold_batch(&mut self, batch: &Batch, kind: DeltaKind) -> bool {
        let batch = batch.clone().align(&self.input_schema);
        let key_pos = self.key_positions();
        let arg_cols: Vec<Option<usize>> = self
            .specs
            .iter()
            .map(|s| match &s.input {
                ScalarExpr::Col(id) => self.input_schema.position_of(*id),
                _ => None,
            })
            .collect();
        let mut needs_recompute = false;
        let mut scratch: Vec<Value> = Vec::new();
        for i in 0..batch.num_rows() {
            let phys = batch.physical(i) as usize;
            let key: Vec<Value> = key_pos
                .iter()
                .map(|&c| batch.column(c).value(phys))
                .collect();
            let specs = &self.specs;
            let entry = self
                .groups
                .entry(key)
                .or_insert_with(|| specs.iter().map(|s| Accumulator::new(s.func)).collect());
            let mut scratch_filled = false;
            for ((acc, spec), arg) in entry.iter_mut().zip(specs).zip(&arg_cols) {
                let v = match arg {
                    Some(c) => batch.column(*c).value(phys),
                    None => {
                        if !scratch_filled {
                            batch.write_row(phys as u32, &mut scratch);
                            scratch_filled = true;
                        }
                        spec.input.eval(&scratch, &self.input_schema)
                    }
                };
                match kind {
                    DeltaKind::Insert => acc.add(&v),
                    DeltaKind::Delete => {
                        if spec.func.removable() {
                            acc.remove(&v);
                        } else {
                            needs_recompute = true;
                        }
                    }
                }
            }
        }
        self.groups.retain(|_, accs| !accs[0].is_empty());
        needs_recompute
    }

    /// Current view rows: group key columns followed by aggregate values.
    pub fn rows(&self) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self
            .groups
            .iter()
            .map(|(key, accs)| {
                let mut row = key.clone();
                row.extend(accs.iter().map(Accumulator::finish));
                row
            })
            .collect();
        out.sort();
        out
    }

    /// Current view contents as a columnar batch in `schema` layout (group
    /// keys then aggregate outputs), sorted by key for the deterministic
    /// order the row path produced. This is what the deferred merge rebuild
    /// installs — no row materialization.
    pub fn output_batch(&self, schema: &Schema) -> Batch {
        let mut entries: Vec<(&Vec<Value>, &Vec<Accumulator>)> = self.groups.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut columns: Vec<Column> = schema
            .attrs()
            .iter()
            .map(|a| Column::with_capacity(a.data_type, entries.len()))
            .collect();
        let nkeys = self.group_by.len();
        debug_assert_eq!(schema.len(), nkeys + self.specs.len());
        for (key, accs) in entries {
            for (c, v) in key.iter().enumerate() {
                columns[c].push(v);
            }
            for (k, acc) in accs.iter().enumerate() {
                columns[nkeys + k].push(&acc.finish());
            }
        }
        Batch::from_columns(schema.clone(), columns)
    }
}

/// Hidden support counts for a maintained DISTINCT view.
#[derive(Debug, Clone, Default)]
pub struct DistinctState {
    counts: HashMap<Tuple, i64>,
}

impl DistinctState {
    pub fn fold(&mut self, rows: &[Tuple], kind: DeltaKind) {
        for row in rows {
            let c = self.counts.entry(row.clone()).or_insert(0);
            match kind {
                DeltaKind::Insert => *c += 1,
                DeltaKind::Delete => *c -= 1,
            }
        }
        self.counts.retain(|_, c| *c > 0);
    }

    /// Columnar [`DistinctState::fold`]: support counts updated from a
    /// differential batch (aligned to `schema`, the stored layout) using
    /// the batch's own multiset counts, so each distinct delta row is
    /// materialized once instead of once per occurrence.
    pub fn fold_batch(&mut self, batch: &Batch, schema: &Schema, kind: DeltaKind) {
        let batch = batch.clone().align(schema);
        for (rep, n) in batch.counts() {
            let row = batch.tuple_at_physical(rep);
            let c = self.counts.entry(row).or_insert(0);
            match kind {
                DeltaKind::Insert => *c += n,
                DeltaKind::Delete => *c -= n,
            }
        }
        self.counts.retain(|_, c| *c > 0);
    }

    pub fn rows(&self) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self.counts.keys().cloned().collect();
        out.sort();
        out
    }

    /// Iterate the hidden support counts (persisted by the durability
    /// layer so DISTINCT views survive recovery incrementally).
    pub fn count_entries(&self) -> impl Iterator<Item = (&Tuple, i64)> {
        self.counts.iter().map(|(t, c)| (t, *c))
    }

    /// Reassemble from persisted support counts.
    pub fn from_parts(counts: Vec<(Tuple, i64)>) -> Self {
        DistinctState {
            counts: counts.into_iter().collect(),
        }
    }

    /// Current view contents as a sorted columnar batch (deferred merge
    /// rebuild install path).
    pub fn output_batch(&self, schema: &Schema) -> Batch {
        let mut keys: Vec<&Tuple> = self.counts.keys().collect();
        keys.sort();
        let mut columns: Vec<Column> = schema
            .attrs()
            .iter()
            .map(|a| Column::with_capacity(a.data_type, keys.len()))
            .collect();
        for row in keys {
            debug_assert_eq!(row.len(), columns.len());
            for (c, v) in row.iter().enumerate() {
                columns[c].push(v);
            }
        }
        Batch::from_columns(schema.clone(), columns)
    }
}

/// The materialized state a refresh cycle leaves behind: stored results,
/// their freshness marks, and the hidden aggregate/distinct support state.
///
/// A one-shot refresh passes a fresh state to
/// [`crate::run::execute_epoch_opts`] and drops it; a long-lived warehouse
/// engine instead keeps it across epochs so permanent materializations and
/// their indices are *reused*, not rebuilt. Node ids
/// are only meaningful for the DAG/program the state was built under — drop
/// the state whenever the engine re-optimizes.
///
/// A transactional epoch writes the state in place under a
/// [`Journal`], which records every change (a stored result installed or
/// dropped, a mark flipped, a table merged into, a support state folded)
/// and on abort puts the state back exactly.
///
/// Cloning is O(#stored results): every [`StoredTable`] is a handle copy
/// and the support states are shared. Writes to either copy then copy what
/// they touch — a merged table's columns and indices, and the group/count
/// map of each support state a merge folds into — and nothing else.
#[derive(Debug, Clone, Default)]
pub struct RuntimeState {
    pub(crate) mats: HashMap<EqId, StoredTable>,
    pub(crate) fresh: HashSet<EqId>,
    /// Behind `Arc` so a clone shares them, and so the epoch journal can
    /// keep a folded state's pre-epoch version by handle; a merge
    /// `Arc::make_mut`s only the state it folds into.
    pub(crate) agg_states: HashMap<EqId, Arc<AggState>>,
    pub(crate) distinct_states: HashMap<EqId, Arc<DistinctState>>,
    /// Maintained aggregate/distinct results whose hidden support state has
    /// absorbed merges the stored image has not: the stored table is
    /// rebuilt from the state *once*, at the first read (or at epoch end),
    /// instead of after every one of the step-by-step merges that touch it.
    pub(crate) deferred: HashSet<EqId>,
}

impl RuntimeState {
    pub fn new() -> Self {
        RuntimeState::default()
    }

    /// The stored result `e`, if present and current (warehouse `answer`
    /// and `verify` read the maintained materializations through this).
    /// `None` while `e` has a deferred rebuild pending: its support state
    /// has absorbed merges the stored image has not, and serving that
    /// image would answer with stale contents. An epoch realizes every
    /// deferred rebuild before it returns, so the state it leaves behind
    /// never holds one.
    pub fn mat(&self, e: EqId) -> Option<&StoredTable> {
        if self.deferred.contains(&e) {
            return None;
        }
        self.mats.get(&e)
    }

    /// Number of stored results.
    pub fn mat_count(&self) -> usize {
        self.mats.len()
    }

    /// Total tuples held by stored results.
    pub fn total_tuples(&self) -> usize {
        self.mats.values().map(StoredTable::len).sum()
    }

    /// True if `e` is stored and fresh.
    pub fn is_fresh(&self, e: EqId) -> bool {
        self.fresh.contains(&e)
    }

    /// Iterate every stored result (the durability layer walks this when
    /// snapshotting permanent materializations).
    pub fn mats(&self) -> impl Iterator<Item = (EqId, &StoredTable)> {
        self.mats.iter().map(|(e, t)| (*e, t))
    }

    /// Hidden aggregate support state of a stored result, if any.
    pub fn agg_state(&self, e: EqId) -> Option<&AggState> {
        self.agg_states.get(&e).map(Arc::as_ref)
    }

    /// Hidden DISTINCT support state of a stored result, if any.
    pub fn distinct_state(&self, e: EqId) -> Option<&DistinctState> {
        self.distinct_states.get(&e).map(Arc::as_ref)
    }

    /// True while some stored image lags its hidden support state (a
    /// deferred rebuild is pending).
    pub fn has_deferred(&self) -> bool {
        !self.deferred.is_empty()
    }

    /// Realize every pending deferred rebuild in place: each lagging
    /// stored table is rebuilt from its aggregate/distinct support state,
    /// keeping the indices it already had. An epoch does this before it
    /// returns; the durability layer calls it again defensively before
    /// serializing, so a snapshot can never capture a stale stored-table
    /// image.
    // Invariant, not input validation: an id only enters `deferred` when its
    // stored table and support state were installed in the same merge, so
    // both lookups succeed by construction.
    #[allow(clippy::expect_used)]
    pub fn realize_deferred(&mut self) {
        let pending: Vec<EqId> = self.deferred.drain().collect();
        for e in pending {
            let old = self.mats.get(&e).expect("deferred result stored");
            let schema = old.schema().clone();
            let specs: Vec<_> = old
                .indexed_attrs()
                .map(|a| (a, old.index_on(a).expect("indexed attr").kind))
                .collect();
            let batch = if let Some(st) = self.agg_states.get(&e) {
                st.output_batch(&schema)
            } else if let Some(st) = self.distinct_states.get(&e) {
                st.output_batch(&schema)
            } else {
                unreachable!("deferred {e} has neither aggregate nor distinct state")
            };
            let mut table = StoredTable::from_batch(batch);
            for (attr, kind) in specs {
                table.create_index(attr, kind);
            }
            self.mats.insert(e, table);
        }
    }

    /// Install a recovered stored result (and its freshness mark) under a
    /// node id of the *current* plan. Recovery resolves view names to the
    /// re-planned DAG's root ids before calling this — raw ids from an old
    /// session are meaningless here.
    pub fn install_mat(&mut self, e: EqId, table: StoredTable, fresh: bool) {
        self.mats.insert(e, table);
        if fresh {
            self.fresh.insert(e);
        } else {
            self.fresh.remove(&e);
        }
    }

    /// Install recovered aggregate support state for a stored result.
    pub fn install_agg_state(&mut self, e: EqId, state: AggState) {
        self.agg_states.insert(e, Arc::new(state));
    }

    /// Install recovered DISTINCT support state for a stored result.
    pub fn install_distinct_state(&mut self, e: EqId, state: DistinctState) {
        self.distinct_states.insert(e, Arc::new(state));
    }

    /// Keep only the listed stored results (and their hidden
    /// aggregate/distinct support state), dropping everything else.
    ///
    /// Used across re-optimizations: the re-entrant optimizer's DAG keeps
    /// node ids stable, so a result that stayed fresh under the old plan
    /// and is maintained by the new one carries over instead of being
    /// rebuilt at the next epoch's setup.
    pub fn retain_mats(&mut self, keep: &HashSet<EqId>) {
        debug_assert!(
            self.deferred.is_empty(),
            "deferred rebuilds must be realized before state is carried over"
        );
        self.mats.retain(|e, _| keep.contains(e));
        self.fresh.retain(|e| keep.contains(e));
        self.agg_states.retain(|e, _| keep.contains(e));
        self.distinct_states.retain(|e, _| keep.contains(e));
    }
}

/// The execution runtime for one maintenance cycle.
pub struct Runtime<'a> {
    pub dag: &'a Dag,
    pub catalog: &'a Catalog,
    pub model: CostModel,
    pub db: &'a mut Database,
    pub deltas: &'a DeltaSet,
    full_plans: BTreeMap<EqId, PhysPlan>,
    /// Indices to maintain on materialized nodes (chosen by the optimizer).
    mat_indices: HashMap<EqId, Vec<AttrId>>,
    /// Borrowed from the caller, so it outlives an error or a panic and
    /// can be rolled back in place.
    state: &'a mut RuntimeState,
    /// Where every write to `db` and `state` records its inverse.
    journal: &'a mut Journal,
    delta_store: HashMap<(EqId, UpdateId), Batch>,
    /// Worker-thread budget for plan evaluation: one update step's
    /// merge-delta plans split it, and the rest flows into morsels inside
    /// operators. `1` — the default — is the serial reference path.
    threads: usize,
    /// Full results actually (re)computed this cycle — stays at zero for
    /// results served from a persisted [`RuntimeState`].
    pub full_builds: usize,
    pub meter: Meter,
    /// Fault-injection registry checked at every operator evaluation and
    /// merge. Defaults to the inert shared registry (one relaxed atomic
    /// load per check); the chaos tests arm a live one via
    /// [`Runtime::set_faults`].
    faults: &'a FaultRegistry,
}

impl<'a> Runtime<'a> {
    /// A runtime over a persisted [`RuntimeState`]: stored results that
    /// are still fresh are served as-is instead of being rebuilt. `state`
    /// and `db` are written in place, and every write records its inverse
    /// in `journal`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_state(
        dag: &'a Dag,
        catalog: &'a Catalog,
        model: CostModel,
        db: &'a mut Database,
        deltas: &'a DeltaSet,
        full_plans: BTreeMap<EqId, PhysPlan>,
        mat_indices: HashMap<EqId, Vec<AttrId>>,
        state: &'a mut RuntimeState,
        journal: &'a mut Journal,
    ) -> Self {
        Runtime {
            dag,
            catalog,
            model,
            db,
            deltas,
            full_plans,
            mat_indices,
            state,
            journal,
            delta_store: HashMap::new(),
            threads: 1,
            full_builds: 0,
            meter: Meter::new(),
            faults: FaultRegistry::none(),
        }
    }

    /// Install a fault-injection registry; operator evaluations and merges
    /// check it and surface armed faults as [`ExecError::Fault`].
    pub fn set_faults(&mut self, faults: &'a FaultRegistry) {
        self.faults = faults;
    }

    /// Set the worker-thread budget for plan evaluation. `1` (the default)
    /// runs every operator on its serial reference path; larger budgets
    /// enable morsel-level parallelism inside scans, filters, hash joins,
    /// and grouped aggregation, plus one worker per merge-delta plan of an
    /// update step (see `Runtime::eval_merge_deltas`).
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Realize every deferred aggregate/distinct rebuild (the end of an
    /// epoch), so the state left behind serves current stored images.
    pub(crate) fn realize_all_deferred(&mut self) {
        let deferred: Vec<EqId> = self.state.deferred.iter().copied().collect();
        for e in deferred {
            self.realize_deferred(e);
        }
    }

    // ------------------------------------------------------------------
    // State writes: each one records its inverse.
    // ------------------------------------------------------------------

    /// Install `table` as `e`'s stored result.
    fn put_mat(&mut self, e: EqId, table: StoredTable) {
        let old = self.state.mats.insert(e, table);
        self.journal.stored(e, old);
    }

    /// Drop `e`'s stored result, if any.
    fn remove_mat(&mut self, e: EqId) {
        if let Some(old) = self.state.mats.remove(&e) {
            self.journal.stored(e, Some(old));
        }
    }

    /// Set or clear `e`'s freshness mark.
    fn set_fresh(&mut self, e: EqId, on: bool) {
        let flipped = if on {
            self.state.fresh.insert(e)
        } else {
            self.state.fresh.remove(&e)
        };
        if flipped {
            self.journal.fresh(e, !on);
        }
    }

    /// Set or clear `e`'s deferred-rebuild mark; returns whether it flipped.
    fn set_deferred(&mut self, e: EqId, on: bool) -> bool {
        let flipped = if on {
            self.state.deferred.insert(e)
        } else {
            self.state.deferred.remove(&e)
        };
        if flipped {
            self.journal.deferred(e, !on);
        }
        flipped
    }

    /// Keep the undo records of an in-place write to a stored relation.
    fn record(&mut self, target: StoredRef, undo: TableJournal) {
        match target {
            StoredRef::Base(t) => self.journal.base(t, undo),
            StoredRef::Mat(e) => self.journal.table(e, undo),
        }
    }

    /// Replace (`Some`) or drop (`None`) `e`'s aggregate support state.
    fn put_agg(&mut self, e: EqId, state: Option<AggState>) {
        let old = match state {
            Some(st) => self.state.agg_states.insert(e, Arc::new(st)),
            None => self.state.agg_states.remove(&e),
        };
        self.journal.agg(e, old);
    }

    /// Replace (`Some`) or drop (`None`) `e`'s distinct support state.
    fn put_distinct(&mut self, e: EqId, state: Option<DistinctState>) {
        let old = match state {
            Some(st) => self.state.distinct_states.insert(e, Arc::new(st)),
            None => self.state.distinct_states.remove(&e),
        };
        self.journal.distinct(e, old);
    }

    /// Rebuild a maintained aggregate/distinct result's stored table from
    /// its hidden support state (the deferred half of a merge). Columnar:
    /// the output batch is built straight from the accumulators.
    // Invariant, not input validation: ids enter `deferred` only alongside
    // their stored table and support state (see `RuntimeState`).
    #[allow(clippy::expect_used)]
    fn realize_deferred(&mut self, e: EqId) {
        if !self.set_deferred(e, false) {
            return;
        }
        let schema = self
            .state
            .mats
            .get(&e)
            .expect("deferred result stored")
            .schema()
            .clone();
        let batch = if let Some(st) = self.state.agg_states.get(&e) {
            st.output_batch(&schema)
        } else if let Some(st) = self.state.distinct_states.get(&e) {
            st.output_batch(&schema)
        } else {
            unreachable!("deferred {e} has neither aggregate nor distinct state")
        };
        // No extra meter charge: the merges that made the state current
        // were charged when they folded, exactly as the eager path was.
        let mut table = StoredTable::from_batch(batch);
        for attr in self.mat_indices.get(&e).cloned().unwrap_or_default() {
            table.create_index(attr, IndexKind::Hash);
        }
        self.put_mat(e, table);
    }

    /// Ensure a materialized result exists, is fresh, and its stored image
    /// is current; returns the stored table.
    pub fn materialize(&mut self, e: EqId) -> Result<&StoredTable, ExecError> {
        if !self.state.fresh.contains(&e) {
            // A pending deferred rebuild is moot: the full rebuild below
            // replaces the stored image (and its support state) anyway.
            self.set_deferred(e, false);
            let plan = self
                .full_plans
                .get(&e)
                .ok_or(ExecError::MissingPlan(e))?
                .clone();
            self.full_builds += 1;
            let schema = plan.schema.clone();
            // Grouped and distinct roots keep hidden support state
            // (footnote 1 of the paper): evaluate their *input*, fold it,
            // and re-emit the stored image from the state. Plain roots adopt
            // the evaluated batch. Columnar end-to-end either way.
            let batch = match plan.node {
                PlanNode::HashAggregate {
                    input,
                    group_by,
                    aggs,
                } => {
                    let folded = self.eval_batch(&input)?;
                    let mut state = AggState::new(group_by, aggs, input.schema.clone());
                    state.fold_batch(&folded, DeltaKind::Insert);
                    let batch = state.output_batch(&schema);
                    self.put_agg(e, Some(state));
                    batch
                }
                PlanNode::Distinct { input } => {
                    let folded = self.eval_batch(&input)?;
                    let mut state = DistinctState::default();
                    state.fold_batch(&folded, &schema, DeltaKind::Insert);
                    let batch = state.output_batch(&schema);
                    self.put_distinct(e, Some(state));
                    batch
                }
                _ => self.eval_batch(&plan)?.align(&schema),
            };
            self.meter
                .charge_seq(&self.model, batch.num_rows(), schema.row_width());
            let mut table = StoredTable::from_batch(batch);
            for attr in self.mat_indices.get(&e).cloned().unwrap_or_default() {
                table.create_index(attr, IndexKind::Hash);
            }
            self.put_mat(e, table);
            self.set_fresh(e, true);
        } else {
            self.realize_deferred(e);
        }
        self.state
            .mats
            .get(&e)
            .ok_or_else(|| ExecError::invariant(format!("{e} absent after materialize")))
    }

    /// Drop a temporary materialization.
    pub fn drop_mat(&mut self, e: EqId) {
        self.remove_mat(e);
        self.set_fresh(e, false);
        self.put_agg(e, None);
        self.put_distinct(e, None);
        self.set_deferred(e, false);
    }

    /// Mark every materialization depending on `table` stale, except the
    /// maintained ones listed in `keep` (they were just merged).
    pub fn invalidate_depending(
        &mut self,
        table: mvmqo_relalg::catalog::TableId,
        keep: &HashSet<EqId>,
    ) {
        let stale: Vec<EqId> = self
            .state
            .fresh
            .iter()
            .copied()
            .filter(|e| self.dag.eq(*e).depends_on(table) && !keep.contains(e))
            .collect();
        for e in stale {
            self.set_fresh(e, false);
        }
    }

    /// Store a temporarily materialized differential, columnar: the batch
    /// that fell out of evaluation is kept as-is (columns `Arc`-shared), so
    /// downstream `ReadDelta`s serve it without a row round-trip.
    pub fn store_delta(&mut self, e: EqId, u: UpdateId, batch: Batch) {
        self.meter.charge_seq(
            &self.model,
            batch.num_rows(),
            self.dag.eq(e).schema.row_width(),
        );
        self.delta_store.insert((e, u), batch);
    }

    /// Clear stored differentials of one update step.
    pub fn clear_deltas(&mut self, u: UpdateId) {
        self.delta_store.retain(|(_, du), _| *du != u);
    }

    // ==================================================================
    // Merging (§6.1: how maintained results absorb differentials)
    // ==================================================================

    /// Merge a plain differential batch into a maintained result. Fully
    /// columnar: the delta batch is aligned to the stored layout and
    /// applied as a column append (inserts) or a keep-mask compaction with
    /// index position remap (deletes).
    pub fn merge_plain(&mut self, e: EqId, delta: Batch, kind: DeltaKind) -> Result<(), ExecError> {
        self.faults.hit("exec:merge")?;
        let width = self.dag.eq(e).schema.row_width();
        self.meter.charge_seq(&self.model, delta.num_rows(), width);
        let table = self
            .state
            .mats
            .get_mut(&e)
            .ok_or_else(|| ExecError::invariant(format!("maintained result {e} not stored")))?;
        let delta = delta.align(table.schema());
        let (ins, del) = match kind {
            DeltaKind::Insert => (Some(&delta), None),
            DeltaKind::Delete => (None, Some(&delta)),
        };
        let mut undo = TableJournal::new();
        table.apply_batch_delta_journaled(ins, del, &mut undo);
        self.record(StoredRef::Mat(e), undo);
        self.set_fresh(e, true);
        Ok(())
    }

    /// Apply one side of a base relation's delta in place (§3.2.2's
    /// per-update step).
    pub(crate) fn apply_base_side(
        &mut self,
        t: mvmqo_relalg::catalog::TableId,
        kind: DeltaKind,
        rows: &[Tuple],
    ) -> Result<(), ExecError> {
        let mut undo = TableJournal::new();
        self.db
            .base_mut(t)?
            .apply_side_journaled(kind, rows, &mut undo);
        self.record(StoredRef::Base(t), undo);
        Ok(())
    }

    /// Merge a raw input differential batch into a maintained aggregate.
    /// The fold is immediate; the stored table rebuild is *deferred* until
    /// the result is next read (or the epoch ends), so a view whose input
    /// is touched by several update steps re-emits its groups once, not
    /// once per step. Returns `true` if the view had to fall back to
    /// recomputation (MIN/MAX deletion).
    pub fn merge_aggregate(
        &mut self,
        e: EqId,
        input: Batch,
        kind: DeltaKind,
    ) -> Result<bool, ExecError> {
        self.faults.hit("exec:merge")?;
        self.meter.charge_cpu(&self.model, input.num_rows());
        let state =
            self.state.agg_states.get_mut(&e).ok_or_else(|| {
                ExecError::invariant(format!("aggregate state for {e} not stored"))
            })?;
        self.journal.agg(e, Some(Arc::clone(state)));
        let needs_recompute = Arc::make_mut(state).fold_batch(&input, kind);
        if needs_recompute {
            // Affected-group recompute, realized as a full refresh (§3.1.2's
            // "significant extra work"; the cost model charges the same).
            self.set_deferred(e, false);
            self.set_fresh(e, false);
            self.materialize(e)?;
            return Ok(true);
        }
        self.set_deferred(e, true);
        self.set_fresh(e, true);
        Ok(false)
    }

    /// Merge a raw input differential batch into a maintained DISTINCT
    /// view (support-count fold now, stored rebuild deferred).
    pub fn merge_distinct(
        &mut self,
        e: EqId,
        input: Batch,
        kind: DeltaKind,
    ) -> Result<(), ExecError> {
        self.faults.hit("exec:merge")?;
        self.meter.charge_cpu(&self.model, input.num_rows());
        let schema = self
            .state
            .mats
            .get(&e)
            .ok_or_else(|| ExecError::invariant(format!("maintained result {e} not stored")))?
            .schema()
            .clone();
        let state =
            self.state.distinct_states.get_mut(&e).ok_or_else(|| {
                ExecError::invariant(format!("distinct state for {e} not stored"))
            })?;
        self.journal.distinct(e, Some(Arc::clone(state)));
        Arc::make_mut(state).fold_batch(&input, &schema, kind);
        self.set_deferred(e, true);
        self.set_fresh(e, true);
        Ok(())
    }

    // ==================================================================
    // Plan evaluation (vectorized)
    // ==================================================================

    /// Evaluate a physical plan against the current state, as a columnar
    /// [`Batch`]. Runs the mutable `prepare` pass first, then the
    /// read-only vectorized evaluator.
    pub fn eval_batch(&mut self, plan: &PhysPlan) -> Result<Batch, ExecError> {
        self.prepare(plan)?;
        let mut meter = Meter::new();
        let batch = self.eval_ctx().eval(plan, &mut meter)?;
        self.meter.absorb(&meter);
        Ok(batch)
    }

    /// Evaluate one update step's merge-delta plans. They all read the
    /// state with updates `< u`, so they are independent by construction:
    /// root workers take the plans and the rest of the thread budget flows
    /// into their operators as morsels. Batches and meter charges come back
    /// in plan order, and so does the error: the first `Err` by plan, not
    /// by which worker finished first.
    pub(crate) fn eval_merge_deltas(
        &mut self,
        plans: &[&PhysPlan],
    ) -> Result<Vec<Batch>, ExecError> {
        for plan in plans {
            self.prepare(plan)?;
        }
        let workers = plans.len().clamp(1, self.threads);
        let ctx = EvalCtx {
            threads: self.threads / workers,
            ..self.eval_ctx()
        };
        let results = run_indexed(plans.len(), workers, |i| {
            let mut meter = Meter::new();
            ctx.eval(plans[i], &mut meter).map(|batch| (batch, meter))
        })?;
        let mut batches = Vec::with_capacity(plans.len());
        for result in results {
            let (batch, meter) = result?;
            self.meter.absorb(&meter);
            batches.push(batch);
        }
        Ok(batches)
    }

    /// Read-only evaluation context over the runtime's current state.
    /// `Copy`, so the merge fan-out can hand one to each worker thread.
    pub(crate) fn eval_ctx(&self) -> EvalCtx<'_> {
        EvalCtx {
            model: &self.model,
            db: &*self.db,
            deltas: self.deltas,
            mats: &self.state.mats,
            delta_store: &self.delta_store,
            threads: self.threads,
            faults: self.faults,
        }
    }

    /// Mutable pre-pass: materialize every stored result the plan reads
    /// and create any index it probes, so that evaluation itself is
    /// read-only (and therefore shareable across worker threads). This
    /// is also what lets the index nested-loop join probe the stored inner
    /// relation in place instead of cloning it.
    pub(crate) fn prepare(&mut self, plan: &PhysPlan) -> Result<(), ExecError> {
        match &plan.node {
            PlanNode::ScanBase(_) | PlanNode::ScanDelta { .. } | PlanNode::ReadDelta(..) => {}
            PlanNode::ReadMat(e) => {
                self.materialize(*e)?;
            }
            PlanNode::IndexScan { target, .. } => {
                if let StoredRef::Mat(e) = target {
                    self.materialize(*e)?;
                }
            }
            PlanNode::IndexNlJoin {
                outer, inner, keys, ..
            } => {
                self.prepare(outer)?;
                self.ensure_index(*inner, keys.1)?;
            }
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::HashAggregate { input, .. }
            | PlanNode::Distinct { input } => self.prepare(input)?,
            PlanNode::HashJoin { build, probe, .. } => {
                self.prepare(build)?;
                self.prepare(probe)?;
            }
            PlanNode::MergeJoin { left, right, .. }
            | PlanNode::NlJoin { left, right, .. }
            | PlanNode::Minus { left, right } => {
                self.prepare(left)?;
                self.prepare(right)?;
            }
            PlanNode::UnionAll(inputs) => {
                for i in inputs {
                    self.prepare(i)?;
                }
            }
        }
        Ok(())
    }

    /// Create the hash index on `attr` of a stored relation unless it has
    /// one (on-demand index creation during [`Runtime::prepare`]).
    fn ensure_index(&mut self, target: StoredRef, attr: AttrId) -> Result<(), ExecError> {
        let table = match target {
            StoredRef::Base(t) => self.db.base_mut(t)?,
            StoredRef::Mat(e) => {
                self.materialize(e)?;
                self.state
                    .mats
                    .get_mut(&e)
                    .ok_or_else(|| ExecError::invariant(format!("{e} absent after materialize")))?
            }
        };
        if table.index_on(attr).is_none() {
            let mut undo = TableJournal::new();
            table.create_index_journaled(attr, IndexKind::Hash, &mut undo);
            self.record(target, undo);
        }
        Ok(())
    }
}

/// The read-only vectorized evaluator: shared references to everything a
/// plan can touch after [`Runtime::prepare`] ran. All operators fold over
/// [`Batch`]es — filters/projections are selection/column updates, joins
/// build borrowed-key hash tables over column positions and emit row-id
/// pairs that are gathered into output columns once, at the end. One
/// context serves one plan at a time; the merge fan-out hands a copy to
/// each of its workers.
#[derive(Clone, Copy)]
pub(crate) struct EvalCtx<'r> {
    pub model: &'r CostModel,
    pub db: &'r Database,
    pub deltas: &'r DeltaSet,
    pub mats: &'r HashMap<EqId, StoredTable>,
    pub delta_store: &'r HashMap<(EqId, UpdateId), Batch>,
    /// Worker-thread budget for morsel-level parallelism inside operators:
    /// the runtime's whole budget, or a merge worker's share of it.
    /// `1` is the serial reference path; parallel paths only engage past
    /// [`MORSEL_ROWS`] input rows, and always produce results identical to
    /// serial evaluation (morsel-order concatenation, hash-disjoint
    /// partitions, key-sorted group output).
    pub threads: usize,
    /// Fault-injection registry, checked once per operator evaluation.
    pub faults: &'r FaultRegistry,
}

/// Rows per morsel: the unit of intra-operator work distribution. Inputs at
/// or below one morsel always run serially — below this size the scoped
/// thread spawn costs more than the scan.
pub(crate) const MORSEL_ROWS: usize = 1024;

/// Split `0..n` into contiguous morsel ranges of at most [`MORSEL_ROWS`].
fn morsel_ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    (0..n.div_ceil(MORSEL_ROWS))
        .map(|m| m * MORSEL_ROWS..((m + 1) * MORSEL_ROWS).min(n))
        .collect()
}

/// Run `task` over `count` independent work items on up to `workers` scoped
/// threads — the executor's one thread fan-out. Results come back in item
/// order, so callers concatenating them get output independent of thread
/// scheduling.
///
/// A panicking task does not tear the process down: the worker catches it,
/// flags cancellation so the remaining items are skipped, and the first
/// panic (in join order) comes back as [`ExecError::WorkerPanic`]. The
/// serial path runs uncaught — a panic there unwinds to the epoch boundary,
/// where the warehouse catches it and aborts the epoch.
fn run_indexed<T: Send>(
    count: usize,
    workers: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Result<Vec<T>, ExecError> {
    let workers = workers.min(count).max(1);
    if workers <= 1 {
        return Ok((0..count).map(task).collect());
    }
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let task = &task;
    let cancel = &AtomicBool::new(false);
    let mut first_panic: Option<String> = None;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || -> Result<Vec<(usize, T)>, String> {
                    let mut out = Vec::new();
                    let mut i = w;
                    while i < count {
                        if cancel.load(AtomicOrder::Relaxed) {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| task(i))) {
                            Ok(v) => out.push((i, v)),
                            Err(payload) => {
                                cancel.store(true, AtomicOrder::Relaxed);
                                return Err(panic_message(payload.as_ref()));
                            }
                        }
                        i += workers;
                    }
                    Ok(out)
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Ok(chunk)) => {
                    for (i, v) in chunk {
                        slots[i] = Some(v);
                    }
                }
                Ok(Err(msg)) => {
                    first_panic.get_or_insert(msg);
                }
                // Defensive: the worker catches its own panics, but drop
                // glue could still unwind.
                Err(payload) => {
                    first_panic.get_or_insert(panic_message(payload.as_ref()));
                }
            }
        }
    });
    if let Some(message) = first_panic {
        return Err(ExecError::WorkerPanic { message });
    }
    // Without a panic nothing is cancelled, so every slot is filled.
    slots
        .into_iter()
        .collect::<Option<Vec<T>>>()
        .ok_or_else(|| ExecError::invariant("a fan-out item was not evaluated"))
}

/// Fault-injection site label for one operator evaluation — every operator
/// entry in [`EvalCtx::eval`] is an addressable site.
fn op_site(node: &PlanNode) -> &'static str {
    match node {
        PlanNode::ScanBase(_) => "exec:scan-base",
        PlanNode::ScanDelta { .. } => "exec:scan-delta",
        PlanNode::ReadMat(_) => "exec:read-mat",
        PlanNode::ReadDelta(..) => "exec:read-delta",
        PlanNode::IndexScan { .. } => "exec:index-scan",
        PlanNode::Filter { .. } => "exec:filter",
        PlanNode::Project { .. } => "exec:project",
        PlanNode::HashJoin { .. } => "exec:hash-join",
        PlanNode::MergeJoin { .. } => "exec:merge-join",
        PlanNode::NlJoin { .. } => "exec:nl-join",
        PlanNode::IndexNlJoin { .. } => "exec:index-nl-join",
        PlanNode::HashAggregate { .. } => "exec:hash-aggregate",
        PlanNode::UnionAll(_) => "exec:union-all",
        PlanNode::Minus { .. } => "exec:minus",
        PlanNode::Distinct { .. } => "exec:distinct",
    }
}

impl EvalCtx<'_> {
    /// Evaluate a plan, charging `meter` the same primitives the
    /// row-at-a-time executor charged (so executed-vs-estimated cost
    /// comparisons are unchanged by vectorization).
    pub(crate) fn eval(&self, plan: &PhysPlan, meter: &mut Meter) -> Result<Batch, ExecError> {
        self.faults.hit(op_site(&plan.node))?;
        match &plan.node {
            PlanNode::ScanBase(t) => {
                let table = self.db.base(*t)?;
                // O(width): the stored image is primary and its columns are
                // Arc-shared with the clone.
                let batch = table.batch().clone().align(&plan.schema);
                meter.charge_seq(self.model, batch.num_rows(), plan.schema.row_width());
                Ok(batch)
            }
            PlanNode::ScanDelta { table, kind } => {
                let rows = self.deltas.side(*table, *kind);
                meter.charge_seq(self.model, rows.len(), plan.schema.row_width());
                if self.threads > 1 && rows.len() > MORSEL_ROWS {
                    // Morsel-parallel row→column conversion; morsel-order
                    // concatenation reproduces the serial batch exactly.
                    let ranges = morsel_ranges(rows.len());
                    let chunks = run_indexed(ranges.len(), self.threads, |m| {
                        Batch::from_rows(plan.schema.clone(), &rows[ranges[m].clone()])
                    })?;
                    let mut out = Batch::empty(plan.schema.clone());
                    for chunk in chunks {
                        out.append(&chunk);
                    }
                    Ok(out)
                } else {
                    Ok(Batch::from_rows(plan.schema.clone(), rows))
                }
            }
            PlanNode::ReadMat(e) => {
                let table = self.mats.get(e).ok_or(ExecError::MissingMat(*e))?;
                let batch = table.batch().clone().align(&plan.schema);
                meter.charge_seq(self.model, batch.num_rows(), plan.schema.row_width());
                Ok(batch)
            }
            PlanNode::ReadDelta(e, u) => {
                // Stored differentials are columnar: serving one is a
                // column-handle clone plus alignment, never a row rebuild.
                let batch = self
                    .delta_store
                    .get(&(*e, *u))
                    .ok_or_else(|| ExecError::MissingDelta {
                        node: *e,
                        update: u.to_string(),
                    })?
                    .clone()
                    .align(&plan.schema);
                meter.charge_seq(self.model, batch.num_rows(), plan.schema.row_width());
                Ok(batch)
            }
            PlanNode::IndexScan { target, attr, pred } => {
                self.eval_index_scan(plan, *target, *attr, pred, meter)
            }
            PlanNode::Filter { input, pred } => {
                let mut batch = self.eval(input, meter)?;
                meter.charge_cpu(self.model, batch.num_rows());
                let compiled = CompiledPredicate::compile(pred, batch.schema());
                let n = batch.num_rows();
                if self.threads > 1 && n > MORSEL_ROWS {
                    // Each morsel evaluates the predicate over its logical
                    // row range; concatenating the kept physical positions
                    // in morsel order rebuilds the exact serial selection.
                    let ranges = morsel_ranges(n);
                    let kept = run_indexed(ranges.len(), self.threads, |m| {
                        let mut scratch = Vec::new();
                        let mut keep = Vec::new();
                        for i in ranges[m].clone() {
                            let phys = batch.physical(i);
                            if compiled.matches_at(&batch, phys, &mut scratch) {
                                keep.push(phys);
                            }
                        }
                        keep
                    })?;
                    let sel: Vec<u32> = kept.into_iter().flatten().collect();
                    batch.set_selection(sel);
                } else {
                    let mut scratch = Vec::new();
                    batch.filter(&compiled, &mut scratch);
                }
                Ok(batch)
            }
            PlanNode::Project { input, attrs } => {
                let batch = self.eval(input, meter)?;
                meter.charge_cpu(self.model, batch.num_rows());
                let positions: Vec<usize> = attrs
                    .iter()
                    .map(|a| {
                        input
                            .schema
                            .position_of(*a)
                            .ok_or_else(|| ExecError::missing_attr(*a, "project"))
                    })
                    .collect::<Result<_, _>>()?;
                Ok(batch.project(plan.schema.clone(), &positions))
            }
            PlanNode::HashJoin {
                build,
                probe,
                keys,
                residual,
            } => self.eval_hash_join(plan, build, probe, keys, residual, meter),
            PlanNode::MergeJoin {
                left,
                right,
                keys,
                residual,
            } => self.eval_merge_join(plan, left, right, keys, residual, meter),
            PlanNode::NlJoin { left, right, pred } => {
                self.eval_nl_join(plan, left, right, pred, meter)
            }
            PlanNode::IndexNlJoin {
                outer,
                inner,
                keys,
                inner_filter,
                residual,
            } => self.eval_index_nl_join(plan, outer, *inner, *keys, inner_filter, residual, meter),
            PlanNode::HashAggregate {
                input,
                group_by,
                aggs,
            } => self.eval_hash_aggregate(plan, input, group_by, aggs, meter),
            PlanNode::UnionAll(inputs) => {
                let mut out: Option<Batch> = None;
                for i in inputs {
                    let b = self.eval(i, meter)?.align(&plan.schema);
                    match &mut out {
                        None => out = Some(b),
                        Some(acc) => acc.append(&b),
                    }
                }
                let out = out.unwrap_or_else(|| Batch::empty(plan.schema.clone()));
                meter.charge_cpu(self.model, out.num_rows());
                Ok(out)
            }
            PlanNode::Minus { left, right } => {
                // Columnar set difference: both sides stay batches; keys
                // are hashed and compared by column position.
                let l = self.eval(left, meter)?;
                let r = self.eval(right, meter)?.align(&left.schema);
                meter.charge_cpu(self.model, l.num_rows() + r.num_rows());
                debug_assert_eq!(plan.schema.ids(), left.schema.ids());
                Ok(l.minus(&r).align(&plan.schema))
            }
            PlanNode::Distinct { input } => self.eval_distinct(plan, input, meter),
        }
    }

    fn stored(&self, target: StoredRef) -> Result<&StoredTable, ExecError> {
        match target {
            StoredRef::Base(t) => Ok(self.db.base(t)?),
            StoredRef::Mat(e) => self.mats.get(&e).ok_or(ExecError::MissingMat(e)),
        }
    }

    fn eval_index_scan(
        &self,
        plan: &PhysPlan,
        target: StoredRef,
        attr: AttrId,
        pred: &Predicate,
        meter: &mut Meter,
    ) -> Result<Batch, ExecError> {
        // Equality probe when possible, else a filtered scan.
        let eq_value = pred.conjuncts().iter().find_map(|c| {
            if let ScalarExpr::Cmp {
                op: CmpOp::Eq,
                lhs,
                rhs,
            } = c
            {
                match (lhs.as_ref(), rhs.as_ref()) {
                    (ScalarExpr::Col(a), ScalarExpr::Lit(v)) if *a == attr => Some(v.clone()),
                    (ScalarExpr::Lit(v), ScalarExpr::Col(a)) if *a == attr => Some(v.clone()),
                    _ => None,
                }
            } else {
                None
            }
        });
        let table = self.stored(target)?;
        let schema = table.schema();
        let total = table.len();
        let mut batch = match eq_value.as_ref().and_then(|v| table.probe(attr, v)) {
            Some(positions) => {
                // Probe returned row positions; select only the hits.
                let mut b = table.batch().clone();
                b.set_selection(positions.to_vec());
                b
            }
            None => table.batch().clone(),
        };
        let compiled = CompiledPredicate::compile(pred, schema);
        let mut scratch = Vec::new();
        batch.filter(&compiled, &mut scratch);
        meter.charge_probes(
            self.model,
            1,
            batch.num_rows().max(1),
            total,
            schema.row_width(),
        );
        Ok(batch.align(&plan.schema))
    }

    fn eval_hash_join(
        &self,
        plan: &PhysPlan,
        build: &PhysPlan,
        probe: &PhysPlan,
        keys: &[(AttrId, AttrId)],
        residual: &Predicate,
        meter: &mut Meter,
    ) -> Result<Batch, ExecError> {
        let build_b = self.eval(build, meter)?;
        let probe_b = self.eval(probe, meter)?;
        let bcols: Vec<usize> = keys
            .iter()
            .map(|(b, _)| {
                build
                    .schema
                    .position_of(*b)
                    .ok_or_else(|| ExecError::missing_attr(*b, "hash-join"))
            })
            .collect::<Result<_, _>>()?;
        let pcols: Vec<usize> = keys
            .iter()
            .map(|(_, p)| {
                probe
                    .schema
                    .position_of(*p)
                    .ok_or_else(|| ExecError::missing_attr(*p, "hash-join"))
            })
            .collect::<Result<_, _>>()?;
        let combined = build.schema.concat(&probe.schema);
        let out_positions = positions_for(&combined, &plan.schema);
        let pairs = if self.threads > 1 && build_b.num_rows() + probe_b.num_rows() > MORSEL_ROWS {
            hash_join_pairs_parallel(
                &build_b,
                &bcols,
                &probe_b,
                &pcols,
                residual,
                &combined,
                self.threads,
            )?
        } else {
            hash_join_pairs(&build_b, &bcols, &probe_b, &pcols, residual, &combined)
        };
        meter.charge_cpu(
            self.model,
            build_b.num_rows() + probe_b.num_rows() + pairs.len(),
        );
        Ok(Batch::gather_pairs(
            &build_b,
            &probe_b,
            &pairs,
            plan.schema.clone(),
            &out_positions,
        ))
    }

    fn eval_merge_join(
        &self,
        plan: &PhysPlan,
        left: &PhysPlan,
        right: &PhysPlan,
        keys: &[(AttrId, AttrId)],
        residual: &Predicate,
        meter: &mut Meter,
    ) -> Result<Batch, ExecError> {
        let l_b = self.eval(left, meter)?;
        let r_b = self.eval(right, meter)?;
        let lcols: Vec<usize> = keys
            .iter()
            .map(|(l, _)| {
                left.schema
                    .position_of(*l)
                    .ok_or_else(|| ExecError::missing_attr(*l, "merge-join"))
            })
            .collect::<Result<_, _>>()?;
        let rcols: Vec<usize> = keys
            .iter()
            .map(|(_, r)| {
                right
                    .schema
                    .position_of(*r)
                    .ok_or_else(|| ExecError::missing_attr(*r, "merge-join"))
            })
            .collect::<Result<_, _>>()?;
        // Sort *positions* by key (values never move).
        let mut lidx = l_b.positions();
        lidx.sort_by(|&a, &b| l_b.cmp_keys(a, &lcols, &l_b, b, &lcols));
        let mut ridx = r_b.positions();
        ridx.sort_by(|&a, &b| r_b.cmp_keys(a, &rcols, &r_b, b, &rcols));
        // Charge the sorts.
        meter.charge_cpu(self.model, lidx.len() + ridx.len());
        let combined = left.schema.concat(&right.schema);
        let out_positions = positions_for(&combined, &plan.schema);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut joined = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < lidx.len() && j < ridx.len() {
            match l_b.cmp_keys(lidx[i], &lcols, &r_b, ridx[j], &rcols) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    // Cross product of the equal-key runs.
                    let mut i_end = i + 1;
                    while i_end < lidx.len()
                        && l_b.cmp_keys(lidx[i_end], &lcols, &l_b, lidx[i], &lcols)
                            == std::cmp::Ordering::Equal
                    {
                        i_end += 1;
                    }
                    let mut j_end = j + 1;
                    while j_end < ridx.len()
                        && r_b.cmp_keys(ridx[j_end], &rcols, &r_b, ridx[j], &rcols)
                            == std::cmp::Ordering::Equal
                    {
                        j_end += 1;
                    }
                    // NULL sorts equal to NULL but a NULL key matches
                    // nothing in SQL semantics (the hash join and the
                    // reference evaluator agree); skip the run.
                    if l_b.any_null(lidx[i], &lcols) {
                        i = i_end;
                        j = j_end;
                        continue;
                    }
                    for &lp in &lidx[i..i_end] {
                        for &rp in &ridx[j..j_end] {
                            if !residual.is_true() {
                                concat_row(&l_b, lp, &r_b, rp, &mut joined);
                                if !residual.matches(&joined, &combined) {
                                    continue;
                                }
                            }
                            pairs.push((lp, rp));
                        }
                    }
                    i = i_end;
                    j = j_end;
                }
            }
        }
        meter.charge_cpu(self.model, pairs.len());
        Ok(Batch::gather_pairs(
            &l_b,
            &r_b,
            &pairs,
            plan.schema.clone(),
            &out_positions,
        ))
    }

    fn eval_nl_join(
        &self,
        plan: &PhysPlan,
        left: &PhysPlan,
        right: &PhysPlan,
        pred: &Predicate,
        meter: &mut Meter,
    ) -> Result<Batch, ExecError> {
        let l_b = self.eval(left, meter)?;
        let r_b = self.eval(right, meter)?;
        let combined = left.schema.concat(&right.schema);
        let out_positions = positions_for(&combined, &plan.schema);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut joined = Vec::new();
        for i in 0..l_b.num_rows() {
            let lp = l_b.physical(i);
            for j in 0..r_b.num_rows() {
                let rp = r_b.physical(j);
                if !pred.is_true() {
                    concat_row(&l_b, lp, &r_b, rp, &mut joined);
                    if !pred.matches(&joined, &combined) {
                        continue;
                    }
                }
                pairs.push((lp, rp));
            }
        }
        meter.charge_cpu(
            self.model,
            l_b.num_rows() * r_b.num_rows().max(1) / 10 + pairs.len(),
        );
        Ok(Batch::gather_pairs(
            &l_b,
            &r_b,
            &pairs,
            plan.schema.clone(),
            &out_positions,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_index_nl_join(
        &self,
        plan: &PhysPlan,
        outer: &PhysPlan,
        inner: StoredRef,
        keys: (AttrId, AttrId),
        inner_filter: &Predicate,
        residual: &Predicate,
        meter: &mut Meter,
    ) -> Result<Batch, ExecError> {
        let outer_b = self.eval(outer, meter)?;
        let okey_col = outer
            .schema
            .position_of(keys.0)
            .ok_or_else(|| ExecError::missing_attr(keys.0, "index-nl-join"))?;
        // The inner is probed *in place* through its index, against its
        // columnar image — no snapshot and no row materialization.
        // `Runtime::prepare` already created the index the optimizer
        // assumed.
        let inner_table = self.stored(inner)?;
        let inner_schema = inner_table.schema();
        let inner_b = inner_table.batch();
        let idx = inner_table
            .index_on(keys.1)
            .ok_or_else(|| ExecError::MissingIndex {
                target: format!("{inner:?}"),
            })?;
        let inner_compiled = (!inner_filter.is_true())
            .then(|| CompiledPredicate::compile(inner_filter, inner_schema));
        let combined = outer.schema.concat(inner_schema);
        let out_positions = positions_for(&combined, &plan.schema);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut pages = 0usize;
        let mut joined = Vec::new();
        let mut scratch = Vec::new();
        let key_column = outer_b.column(okey_col);
        for i in 0..outer_b.num_rows() {
            let op = outer_b.physical(i) as usize;
            if key_column.is_null(op) {
                continue;
            }
            let key = key_column.value(op);
            for &pos in idx.lookup_eq(&key) {
                if let Some(compiled) = &inner_compiled {
                    if !compiled.matches_at(inner_b, pos, &mut scratch) {
                        continue;
                    }
                }
                pages += 1;
                if !residual.is_true() {
                    outer_b.write_row(op as u32, &mut joined);
                    for c in 0..inner_schema.len() {
                        joined.push(inner_b.column(c).value(pos as usize));
                    }
                    if !residual.matches(&joined, &combined) {
                        continue;
                    }
                }
                pairs.push((op as u32, pos));
            }
        }
        meter.charge_probes(
            self.model,
            outer_b.num_rows(),
            pages,
            inner_table.len(),
            inner_schema.row_width(),
        );
        // Output: outer and inner columns both gather by pair positions.
        let outer_width = outer.schema.len();
        let mut outer_idx: Option<Vec<u32>> = None;
        let mut inner_idx: Option<Vec<u32>> = None;
        let columns: Vec<Column> = out_positions
            .iter()
            .map(|&p| {
                if p < outer_width {
                    let idx =
                        outer_idx.get_or_insert_with(|| pairs.iter().map(|&(o, _)| o).collect());
                    outer_b.column(p).gather(idx)
                } else {
                    let idx =
                        inner_idx.get_or_insert_with(|| pairs.iter().map(|&(_, i)| i).collect());
                    inner_b.column(p - outer_width).gather(idx)
                }
            })
            .collect();
        Ok(Batch::from_columns(plan.schema.clone(), columns))
    }

    /// Columnar grouped aggregation. Two column-at-a-time passes replace
    /// the per-row `Accumulator` loop:
    ///
    /// 1. *group-id assignment* — key columns are hashed by position into a
    ///    `hash → group` table (collisions resolved by column comparison),
    ///    producing one `u32` group id per input row;
    /// 2. *per-aggregate kernels* — each aggregate walks its input column
    ///    once, updating a typed state vector (`f64` sums, `i64` counts,
    ///    typed min/max) indexed by group id. Only `Mixed` columns and
    ///    general expressions fall back to per-group [`Accumulator`]s.
    ///
    /// Output columns are emitted directly from the kernel states, in key
    /// order — semantics (NULL handling, Int/Float promotion, empty-group
    /// results) replicate [`Accumulator`] exactly.
    fn eval_hash_aggregate(
        &self,
        plan: &PhysPlan,
        input: &PhysPlan,
        group_by: &[AttrId],
        aggs: &[AggSpec],
        meter: &mut Meter,
    ) -> Result<Batch, ExecError> {
        let in_b = self.eval(input, meter)?;
        meter.charge_cpu(self.model, in_b.num_rows());
        let key_cols: Vec<usize> = group_by
            .iter()
            .map(|g| {
                input
                    .schema
                    .position_of(*g)
                    .ok_or_else(|| ExecError::missing_attr(*g, "hash-aggregate"))
            })
            .collect::<Result<_, _>>()?;
        let n = in_b.num_rows();
        if self.threads > 1 && n > MORSEL_ROWS {
            return hash_aggregate_parallel(
                plan,
                &input.schema,
                &in_b,
                &key_cols,
                aggs,
                self.threads,
            );
        }
        let rows: Vec<u32> = (0..n).map(|i| in_b.physical(i)).collect();
        // Pass 1: group ids, assigned in first-occurrence order.
        let (reps, gids) = group_ids(&in_b, &key_cols, &rows);
        let ngroups = reps.len();
        // Pass 2: one typed kernel per aggregate.
        let agg_columns: Vec<Column> = aggs
            .iter()
            .map(|spec| agg_kernel(&in_b, &input.schema, spec, &rows, &gids, ngroups))
            .collect();
        // Deterministic output order: groups sorted by key (keys are unique
        // per group, so this matches the old full-row sort).
        let mut order: Vec<u32> = (0..ngroups as u32).collect();
        order.sort_by(|&a, &b| {
            in_b.cmp_keys(
                reps[a as usize],
                &key_cols,
                &in_b,
                reps[b as usize],
                &key_cols,
            )
        });
        let rep_order: Vec<u32> = order.iter().map(|&g| reps[g as usize]).collect();
        let nkeys = key_cols.len();
        debug_assert_eq!(plan.schema.len(), nkeys + aggs.len());
        let columns: Vec<Column> = key_cols
            .iter()
            .map(|&c| in_b.column(c).gather(&rep_order))
            .chain(agg_columns.iter().map(|c| c.gather(&order)))
            .collect();
        Ok(Batch::from_columns(plan.schema.clone(), columns))
    }

    fn eval_distinct(
        &self,
        plan: &PhysPlan,
        input: &PhysPlan,
        meter: &mut Meter,
    ) -> Result<Batch, ExecError> {
        let in_b = self.eval(input, meter)?;
        meter.charge_cpu(self.model, in_b.num_rows());
        let all_cols: Vec<usize> = (0..in_b.schema().len()).collect();
        let mut buckets: U64Map<Vec<u32>> = u64_map_with_capacity(in_b.num_rows().min(1 << 16));
        let mut reps: Vec<u32> = Vec::new();
        for i in 0..in_b.num_rows() {
            let phys = in_b.physical(i);
            let h = in_b.hash_keys(phys, &all_cols);
            let ids = buckets.entry(h).or_default();
            if !ids
                .iter()
                .any(|&r| in_b.keys_eq(r, &all_cols, &in_b, phys, &all_cols))
            {
                ids.push(phys);
                reps.push(phys);
            }
        }
        // Sorted output, as the support-counting distinct produced —
        // realized as a position sort + column gather, not a row sort.
        reps.sort_by(|&a, &b| in_b.cmp_keys(a, &all_cols, &in_b, b, &all_cols));
        let columns: Vec<Column> = (0..in_b.schema().len())
            .map(|c| in_b.column(c).gather(&reps))
            .collect();
        Ok(Batch::from_columns(plan.schema.clone(), columns))
    }
}

/// Serial hash-join pair computation: hash table over the build side keyed
/// by the *hash* of the key columns at each position — hash once per row,
/// no per-row key vector is ever allocated; candidate collisions are
/// resolved by comparing key columns position-to-position.
fn hash_join_pairs(
    build_b: &Batch,
    bcols: &[usize],
    probe_b: &Batch,
    pcols: &[usize],
    residual: &Predicate,
    combined: &Schema,
) -> Vec<(u32, u32)> {
    let mut table: U64Map<Vec<u32>> = u64_map_with_capacity(build_b.num_rows());
    for i in 0..build_b.num_rows() {
        let phys = build_b.physical(i);
        if build_b.any_null(phys, bcols) {
            continue; // NULL keys can never match a probe
        }
        table
            .entry(build_b.hash_keys(phys, bcols))
            .or_default()
            .push(phys);
    }
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for i in 0..probe_b.num_rows() {
        let pphys = probe_b.physical(i);
        if probe_b.any_null(pphys, pcols) {
            continue;
        }
        if let Some(cands) = table.get(&probe_b.hash_keys(pphys, pcols)) {
            for &bphys in cands {
                if build_b.keys_eq(bphys, bcols, probe_b, pphys, pcols) {
                    pairs.push((bphys, pphys));
                }
            }
        }
    }
    if !residual.is_true() {
        let mut joined = Vec::with_capacity(combined.len());
        pairs.retain(|&(b, p)| {
            concat_row(build_b, b, probe_b, p, &mut joined);
            residual.matches(&joined, combined)
        });
    }
    pairs
}

/// Morsel-parallel hash-join pair computation, identical output to
/// [`hash_join_pairs`]:
///
/// 1. build-side key hashes are computed in parallel by morsel;
/// 2. the build table is hash-partitioned — one worker per partition
///    inserts its rows in global scan order, so per-bucket candidate order
///    matches the serial build (equal keys share a hash, hence a partition);
/// 3. probe morsels run in parallel, each probing the partition its row's
///    hash selects; concatenating emitted pairs in morsel order reproduces
///    the serial probe order exactly.
fn hash_join_pairs_parallel(
    build_b: &Batch,
    bcols: &[usize],
    probe_b: &Batch,
    pcols: &[usize],
    residual: &Predicate,
    combined: &Schema,
    threads: usize,
) -> Result<Vec<(u32, u32)>, ExecError> {
    let nb = build_b.num_rows();
    // Phase 1: per-row build hashes (NULL keys flagged; they match nothing).
    let branges = morsel_ranges(nb);
    let bh_chunks = run_indexed(branges.len(), threads, |m| {
        branges[m]
            .clone()
            .map(|i| {
                let phys = build_b.physical(i);
                if build_b.any_null(phys, bcols) {
                    (phys, 0u64, true)
                } else {
                    (phys, build_b.hash_keys(phys, bcols), false)
                }
            })
            .collect::<Vec<_>>()
    })?;
    let bh: Vec<(u32, u64, bool)> = bh_chunks.into_iter().flatten().collect();
    // Phase 2: hash-partitioned build, one worker per partition. Each
    // partition walks the precomputed hashes in scan order, so within any
    // bucket the candidate order equals the serial build's.
    let nparts = threads.max(1);
    let tables: Vec<U64Map<Vec<u32>>> = run_indexed(nparts, threads, |p| {
        let mut t: U64Map<Vec<u32>> = u64_map_with_capacity(nb / nparts + 1);
        for &(phys, h, null) in &bh {
            if !null && (h % nparts as u64) as usize == p {
                t.entry(h).or_default().push(phys);
            }
        }
        t
    })?;
    // Phase 3: parallel probe by morsel; morsel-order concatenation.
    let pranges = morsel_ranges(probe_b.num_rows());
    let residual_live = !residual.is_true();
    let chunks = run_indexed(pranges.len(), threads, |m| {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut joined = Vec::with_capacity(combined.len());
        for i in pranges[m].clone() {
            let pphys = probe_b.physical(i);
            if probe_b.any_null(pphys, pcols) {
                continue;
            }
            let h = probe_b.hash_keys(pphys, pcols);
            if let Some(cands) = tables[(h % nparts as u64) as usize].get(&h) {
                for &bphys in cands {
                    if build_b.keys_eq(bphys, bcols, probe_b, pphys, pcols) {
                        if residual_live {
                            concat_row(build_b, bphys, probe_b, pphys, &mut joined);
                            if !residual.matches(&joined, combined) {
                                continue;
                            }
                        }
                        pairs.push((bphys, pphys));
                    }
                }
            }
        }
        pairs
    })?;
    Ok(chunks.into_iter().flatten().collect())
}

/// Group-id assignment over an explicit physical row list: one id per row,
/// ids issued in first-occurrence order; returns `(reps, gids)` with one
/// representative physical position per group.
///
/// A single dict-encoded key column short-circuits the hash table entirely:
/// dictionary entries are unique, so code equality *is* key equality and a
/// flat `code → gid` array replaces hashing and collision probing (NULLs —
/// masked rows — form their own group, exactly as `keys_eq` groups them).
fn group_ids(in_b: &Batch, key_cols: &[usize], rows: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut reps: Vec<u32> = Vec::new();
    let mut gids: Vec<u32> = Vec::with_capacity(rows.len());
    if let [kc] = key_cols {
        let col = in_b.column(*kc);
        if let Some((codes, dict)) = col.dict() {
            let mut code_gid: Vec<u32> = vec![u32::MAX; dict.len()];
            let mut null_gid = u32::MAX;
            for &phys in rows {
                let p = phys as usize;
                let slot = if col.is_null(p) {
                    &mut null_gid
                } else {
                    &mut code_gid[codes[p] as usize]
                };
                if *slot == u32::MAX {
                    *slot = reps.len() as u32;
                    reps.push(phys);
                }
                gids.push(*slot);
            }
            return (reps, gids);
        }
    }
    let mut buckets: U64Map<Vec<u32>> = u64_map_with_capacity(rows.len().min(1 << 16));
    for &phys in rows {
        let h = in_b.hash_keys(phys, key_cols);
        let ids = buckets.entry(h).or_default();
        let gid = match ids
            .iter()
            .copied()
            .find(|&g| in_b.keys_eq(reps[g as usize], key_cols, in_b, phys, key_cols))
        {
            Some(g) => g,
            None => {
                let g = reps.len() as u32;
                reps.push(phys);
                ids.push(g);
                g
            }
        };
        gids.push(gid);
    }
    (reps, gids)
}

/// Partition-parallel grouped aggregation, output identical to the serial
/// path: rows are hash-partitioned by group key (equal keys land in one
/// partition, so groups never straddle workers), each partition groups and
/// runs the typed kernels over its rows in global scan order, and the final
/// merge sorts all groups by key — the same unique-key sort the serial path
/// emits.
fn hash_aggregate_parallel(
    plan: &PhysPlan,
    input_schema: &Schema,
    in_b: &Batch,
    key_cols: &[usize],
    aggs: &[AggSpec],
    threads: usize,
) -> Result<Batch, ExecError> {
    let n = in_b.num_rows();
    // Phase 1: per-row key hashes, parallel by morsel.
    let ranges = morsel_ranges(n);
    let hashed = run_indexed(ranges.len(), threads, |m| {
        ranges[m]
            .clone()
            .map(|i| {
                let phys = in_b.physical(i);
                (phys, in_b.hash_keys(phys, key_cols))
            })
            .collect::<Vec<_>>()
    })?;
    let hashed: Vec<(u32, u64)> = hashed.into_iter().flatten().collect();
    // Phase 2: one worker per hash partition — group assignment plus every
    // aggregate kernel over that partition's rows (in global scan order, so
    // per-group accumulation order matches serial exactly).
    let nparts = threads.max(1);
    let parts: Vec<(Vec<u32>, Vec<Column>)> = run_indexed(nparts, threads, |p| {
        let rows: Vec<u32> = hashed
            .iter()
            .filter(|&&(_, h)| (h % nparts as u64) as usize == p)
            .map(|&(phys, _)| phys)
            .collect();
        let (reps, gids) = group_ids(in_b, key_cols, &rows);
        let ngroups = reps.len();
        let cols: Vec<Column> = aggs
            .iter()
            .map(|spec| agg_kernel(in_b, input_schema, spec, &rows, &gids, ngroups))
            .collect();
        (reps, cols)
    })?;
    // Merge: groups are disjoint across partitions; sort them all by key.
    let mut order: Vec<(usize, u32)> = parts
        .iter()
        .enumerate()
        .flat_map(|(p, (reps, _))| (0..reps.len() as u32).map(move |g| (p, g)))
        .collect();
    order.sort_by(|&(pa, ga), &(pb, gb)| {
        in_b.cmp_keys(
            parts[pa].0[ga as usize],
            key_cols,
            in_b,
            parts[pb].0[gb as usize],
            key_cols,
        )
    });
    let rep_order: Vec<u32> = order.iter().map(|&(p, g)| parts[p].0[g as usize]).collect();
    let nkeys = key_cols.len();
    debug_assert_eq!(plan.schema.len(), nkeys + aggs.len());
    let mut columns: Vec<Column> = key_cols
        .iter()
        .map(|&c| in_b.column(c).gather(&rep_order))
        .collect();
    for (k, attr) in plan.schema.attrs().iter().enumerate().skip(nkeys) {
        let mut out = Column::with_capacity(attr.data_type, order.len());
        for &(p, g) in &order {
            out.push(&parts[p].1[k - nkeys].value(g as usize));
        }
        columns.push(out);
    }
    Ok(Batch::from_columns(plan.schema.clone(), columns))
}

/// One aggregate's columnar update kernel: walk the input column once,
/// updating typed per-group state vectors, and emit the result column.
/// Falls back to per-group [`Accumulator`]s for `Mixed` columns, general
/// expressions, and type/function combinations with value-level semantics
/// (e.g. SUM over strings), so results are bit-identical to the row path.
fn agg_kernel(
    in_b: &Batch,
    schema: &Schema,
    spec: &AggSpec,
    rows: &[u32],
    gids: &[u32],
    ngroups: usize,
) -> Column {
    use mvmqo_relalg::agg::AggFunc;
    debug_assert_eq!(rows.len(), gids.len());
    let col_pos = match &spec.input {
        ScalarExpr::Col(id) => schema.position_of(*id),
        _ => None,
    };
    let Some(pos) = col_pos else {
        return agg_fallback(in_b, schema, spec, rows, gids, ngroups);
    };
    let col = in_b.column(pos);
    match (spec.func, col.data()) {
        (AggFunc::Count, _) => {
            // COUNT is nullness-only: typed for every physical layout.
            let mut counts = vec![0i64; ngroups];
            for (i, &g) in gids.iter().enumerate() {
                let phys = rows[i] as usize;
                if !col.is_null(phys) {
                    counts[g as usize] += 1;
                }
            }
            let mut out = Column::with_capacity(DataType::Int, ngroups);
            for c in counts {
                out.push(&Value::Int(c));
            }
            out
        }
        (
            AggFunc::Sum | AggFunc::Avg,
            ColumnData::Int(_) | ColumnData::Float(_) | ColumnData::Date(_),
        ) => {
            // Accumulate in f64 exactly as `Accumulator` does (so Int sums
            // agree bit-for-bit, including the > 2^53 regime).
            let mut sums = vec![0f64; ngroups];
            let mut counts = vec![0i64; ngroups];
            match col.data() {
                ColumnData::Int(v) => {
                    for (i, &g) in gids.iter().enumerate() {
                        let phys = rows[i] as usize;
                        if !col.is_null(phys) {
                            sums[g as usize] += v[phys] as f64;
                            counts[g as usize] += 1;
                        }
                    }
                }
                ColumnData::Float(v) => {
                    for (i, &g) in gids.iter().enumerate() {
                        let phys = rows[i] as usize;
                        if !col.is_null(phys) {
                            sums[g as usize] += v[phys];
                            counts[g as usize] += 1;
                        }
                    }
                }
                ColumnData::Date(v) => {
                    for (i, &g) in gids.iter().enumerate() {
                        let phys = rows[i] as usize;
                        if !col.is_null(phys) {
                            sums[g as usize] += v[phys] as f64;
                            counts[g as usize] += 1;
                        }
                    }
                }
                _ => unreachable!("guarded by the match arm"),
            }
            let avg = spec.func == AggFunc::Avg;
            let int_sum = !avg && matches!(col.data(), ColumnData::Int(_));
            let dt = if int_sum {
                DataType::Int
            } else {
                DataType::Float
            };
            let mut out = Column::with_capacity(dt, ngroups);
            for g in 0..ngroups {
                let v = if counts[g] == 0 {
                    Value::Null
                } else if avg {
                    Value::Float(sums[g] / counts[g] as f64)
                } else if int_sum {
                    Value::Int(sums[g] as i64)
                } else {
                    Value::Float(sums[g])
                };
                out.push(&v);
            }
            out
        }
        (AggFunc::Min | AggFunc::Max, ColumnData::Int(_)) => min_max_prim::<i64>(
            col,
            rows,
            gids,
            ngroups,
            spec.func == AggFunc::Min,
            |d, p| match d {
                ColumnData::Int(v) => v[p],
                _ => unreachable!(),
            },
            |a, b| a < b,
            DataType::Int,
            Value::Int,
        ),
        (AggFunc::Min | AggFunc::Max, ColumnData::Date(_)) => min_max_prim::<i32>(
            col,
            rows,
            gids,
            ngroups,
            spec.func == AggFunc::Min,
            |d, p| match d {
                ColumnData::Date(v) => v[p],
                _ => unreachable!(),
            },
            |a, b| a < b,
            DataType::Date,
            Value::Date,
        ),
        (AggFunc::Min | AggFunc::Max, ColumnData::Bool(_)) => min_max_prim::<bool>(
            col,
            rows,
            gids,
            ngroups,
            spec.func == AggFunc::Min,
            |d, p| match d {
                ColumnData::Bool(v) => v[p],
                _ => unreachable!(),
            },
            |a, b| !a & b,
            DataType::Bool,
            Value::Bool,
        ),
        (AggFunc::Min | AggFunc::Max, ColumnData::Float(_)) => min_max_prim::<f64>(
            col,
            rows,
            gids,
            ngroups,
            spec.func == AggFunc::Min,
            |d, p| match d {
                ColumnData::Float(v) => v[p],
                _ => unreachable!(),
            },
            |a, b| a.total_cmp(&b) == std::cmp::Ordering::Less,
            DataType::Float,
            Value::Float,
        ),
        (AggFunc::Min | AggFunc::Max, ColumnData::Str(_) | ColumnData::Dict { .. }) => {
            let is_min = spec.func == AggFunc::Min;
            let mut best: Vec<Option<std::sync::Arc<str>>> = vec![None; ngroups];
            let at = |p: usize| -> &std::sync::Arc<str> {
                match col.data() {
                    ColumnData::Str(v) => &v[p],
                    ColumnData::Dict { codes, dict } => dict.value(codes[p]),
                    _ => unreachable!(),
                }
            };
            for (i, &g) in gids.iter().enumerate() {
                let phys = rows[i] as usize;
                if col.is_null(phys) {
                    continue;
                }
                let v = at(phys);
                let slot = &mut best[g as usize];
                let better = match slot {
                    None => true,
                    Some(b) => {
                        if is_min {
                            *v < *b
                        } else {
                            *v > *b
                        }
                    }
                };
                if better {
                    *slot = Some(v.clone());
                }
            }
            let mut out = Column::with_capacity(DataType::Str, ngroups);
            for b in best {
                out.push(&b.map_or(Value::Null, Value::Str));
            }
            out
        }
        _ => agg_fallback(in_b, schema, spec, rows, gids, ngroups),
    }
}

/// Shared typed MIN/MAX loop over a primitive payload.
#[allow(clippy::too_many_arguments)]
fn min_max_prim<T: Copy + Default>(
    col: &Column,
    rows: &[u32],
    gids: &[u32],
    ngroups: usize,
    is_min: bool,
    get: impl Fn(&ColumnData, usize) -> T,
    less: impl Fn(T, T) -> bool,
    dt: DataType,
    wrap: impl Fn(T) -> Value,
) -> Column {
    let mut best = vec![T::default(); ngroups];
    let mut has = vec![false; ngroups];
    for (i, &g) in gids.iter().enumerate() {
        let phys = rows[i] as usize;
        if col.is_null(phys) {
            continue;
        }
        let g = g as usize;
        let x = get(col.data(), phys);
        // Strict improvement only, as `Accumulator` replaces on `v < m`.
        let better = !has[g]
            || if is_min {
                less(x, best[g])
            } else {
                less(best[g], x)
            };
        if better {
            best[g] = x;
            has[g] = true;
        }
    }
    let mut out = Column::with_capacity(dt, ngroups);
    for g in 0..ngroups {
        out.push(&if has[g] { wrap(best[g]) } else { Value::Null });
    }
    out
}

/// Per-group [`Accumulator`] fallback for aggregate inputs outside the
/// typed kernels (general expressions, `Mixed` columns, value-level
/// type-promotion cases).
fn agg_fallback(
    in_b: &Batch,
    schema: &Schema,
    spec: &AggSpec,
    rows: &[u32],
    gids: &[u32],
    ngroups: usize,
) -> Column {
    let col_pos = match &spec.input {
        ScalarExpr::Col(id) => schema.position_of(*id),
        _ => None,
    };
    let mut accs: Vec<Accumulator> = (0..ngroups).map(|_| Accumulator::new(spec.func)).collect();
    let mut scratch = Vec::new();
    for (i, &g) in gids.iter().enumerate() {
        let phys = rows[i];
        let v = match col_pos {
            Some(c) => in_b.column(c).value(phys as usize),
            None => {
                in_b.write_row(phys, &mut scratch);
                spec.input.eval(&scratch, schema)
            }
        };
        accs[g as usize].add(&v);
    }
    let dt = col_pos
        .map(|c| spec.func.result_type(schema.attrs()[c].data_type))
        .unwrap_or(DataType::Float);
    let mut out = Column::with_capacity(dt, ngroups);
    for acc in &accs {
        out.push(&acc.finish());
    }
    out
}

/// Fill `buf` with the concatenation of one physical row from each batch
/// (residual-predicate evaluation during joins).
fn concat_row(left: &Batch, l: u32, right: &Batch, r: u32, buf: &mut Vec<Value>) {
    buf.clear();
    for c in 0..left.schema().len() {
        buf.push(left.column(c).value(l as usize));
    }
    for c in 0..right.schema().len() {
        buf.push(right.column(c).value(r as usize));
    }
}

fn positions_for(from: &Schema, to: &Schema) -> Vec<usize> {
    to.ids()
        .iter()
        .map(|a| {
            from.position_of(*a)
                .unwrap_or_else(|| panic!("attribute {a} missing during alignment"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::schema::Attribute;
    use mvmqo_relalg::types::DataType;

    fn schema(ids: &[u32]) -> Schema {
        Schema::new(
            ids.iter()
                .map(|&i| Attribute {
                    id: AttrId(i),
                    name: format!("a{i}"),
                    data_type: DataType::Int,
                })
                .collect(),
        )
    }

    #[test]
    fn run_indexed_returns_items_in_item_order() {
        for workers in [1, 2, 3, 8] {
            // Each worker's first item waits until every worker has one,
            // so the items really run on `min(workers, 7)` threads at once.
            let barrier = std::sync::Barrier::new(workers.min(7));
            let out = run_indexed(7, workers, |i| {
                if i < workers {
                    barrier.wait();
                }
                i * 10
            })
            .unwrap();
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60], "{workers} workers");
        }
    }

    #[test]
    fn run_indexed_turns_a_worker_panic_into_an_error() {
        for workers in [2, 3, 8] {
            let out = catch_unwind(|| {
                run_indexed(7, workers, |i| {
                    assert!(i != 4, "task {i} failed");
                    i
                })
            });
            let err = out.expect("the panic unwound out of run_indexed");
            assert_eq!(
                err,
                Err(ExecError::WorkerPanic {
                    message: "task 4 failed".to_string()
                }),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn runtime_state_reports_contents() {
        let mut state = RuntimeState::new();
        assert_eq!(state.mat_count(), 0);
        assert_eq!(state.total_tuples(), 0);
        let e = EqId(0);
        assert!(!state.is_fresh(e));
        assert!(state.mat(e).is_none());
        state.mats.insert(
            e,
            StoredTable::with_rows(schema(&[1]), vec![vec![Value::Int(5)]]),
        );
        state.fresh.insert(e);
        assert_eq!(state.mat_count(), 1);
        assert_eq!(state.total_tuples(), 1);
        assert!(state.is_fresh(e));
        assert_eq!(state.mat(e).unwrap().len(), 1);
    }

    /// An aggregate merge folds into the support state and defers the
    /// stored rebuild; until that rebuild runs, `mat` must not serve the
    /// stale stored image.
    #[test]
    fn mat_withholds_an_image_with_a_deferred_rebuild() {
        let input = schema(&[0, 1]);
        let out = schema(&[0, 5]);
        let spec = AggSpec::new(
            mvmqo_relalg::agg::AggFunc::Sum,
            ScalarExpr::Col(AttrId(1)),
            AttrId(5),
        );
        let mut agg = AggState::new(vec![AttrId(0)], vec![spec], input.clone());
        agg.fold(&[vec![Value::Int(1), Value::Int(10)]], DeltaKind::Insert);
        let e = EqId(0);
        let mut state = RuntimeState::new();
        state
            .mats
            .insert(e, StoredTable::from_batch(agg.output_batch(&out)));
        state.fresh.insert(e);
        state.install_agg_state(e, agg);

        let (dag, catalog, deltas) = (Dag::default(), Catalog::default(), DeltaSet::new());
        let mut db = Database::new();
        let mut journal = crate::Journal::new();
        let mut rt = Runtime::with_state(
            &dag,
            &catalog,
            CostModel::default(),
            &mut db,
            &deltas,
            BTreeMap::new(),
            HashMap::new(),
            &mut state,
            &mut journal,
        );
        let delta = Batch::from_rows(input, &[vec![Value::Int(1), Value::Int(5)]]);
        assert!(!rt.merge_aggregate(e, delta, DeltaKind::Insert).unwrap());
        // Leave the state *without* the epoch-end realization.
        drop(rt);
        assert!(state.has_deferred());
        assert!(state.mat(e).is_none(), "stale image served");
        state.realize_deferred();
        let current = state.mat(e).expect("realized image");
        assert_eq!(
            current.batch().to_rows(),
            vec![vec![Value::Int(1), Value::Float(15.0)]]
        );
    }

    /// Everything rollback must restore, in comparable form: each stored
    /// result's rows in physical order with the postings of every indexed
    /// row, the marks, and the aggregate groups.
    #[allow(clippy::type_complexity)]
    fn summary(state: &RuntimeState) -> Vec<String> {
        let mut out: Vec<String> = state
            .mats()
            .map(|(e, t)| {
                let mut attrs: Vec<AttrId> = t.indexed_attrs().collect();
                attrs.sort();
                let postings: Vec<Vec<u32>> = attrs
                    .iter()
                    .flat_map(|&a| {
                        let pos = t.schema().position_of(a).unwrap();
                        t.rows()
                            .iter()
                            .map(move |r| t.index_on(a).unwrap().lookup_eq(&r[pos]).to_vec())
                    })
                    .collect();
                format!("{e}: {:?} {postings:?}", t.rows())
            })
            .collect();
        let mut marks: Vec<String> = state
            .fresh
            .iter()
            .map(|e| format!("fresh {e}"))
            .chain(state.deferred.iter().map(|e| format!("deferred {e}")))
            .collect();
        for (e, st) in &state.agg_states {
            let mut groups: Vec<String> = st
                .group_entries()
                .map(|(k, accs)| format!("{k:?} {accs:?}"))
                .collect();
            groups.sort();
            marks.push(format!("agg {e}: {groups:?}"));
        }
        out.append(&mut marks);
        out.sort();
        out
    }

    /// A journaled fold, index builds, a drop and the epoch-end
    /// realization, rolled back, leave the state exactly as before: tables
    /// (rows in physical order, postings), marks, and support state.
    /// (In-place table merges are the storage journal's, property-tested
    /// there.)
    #[test]
    fn rollback_restores_the_runtime_state() {
        let input = schema(&[0, 1]);
        let out = schema(&[0, 5]);
        let spec = AggSpec::new(
            mvmqo_relalg::agg::AggFunc::Sum,
            ScalarExpr::Col(AttrId(1)),
            AttrId(5),
        );
        let mut agg = AggState::new(vec![AttrId(0)], vec![spec], input.clone());
        agg.fold(&[vec![Value::Int(1), Value::Int(10)]], DeltaKind::Insert);
        let (ea, ep, et) = (EqId(0), EqId(1), EqId(2));
        let mut state = RuntimeState::new();
        state
            .mats
            .insert(ea, StoredTable::from_batch(agg.output_batch(&out)));
        state.fresh.insert(ea);
        state.install_agg_state(ea, agg);
        let plain = schema(&[7]);
        let ints = |vs: &[i64]| -> Vec<Tuple> { vs.iter().map(|&v| vec![Value::Int(v)]).collect() };
        state.mats.insert(
            ep,
            StoredTable::with_rows(plain.clone(), ints(&[1, 2, 2, 3])),
        );
        state.fresh.insert(ep);
        state
            .mats
            .insert(et, StoredTable::with_rows(plain, ints(&[9])));
        state.fresh.insert(et);
        let before = summary(&state);

        let (dag, catalog, deltas) = (Dag::default(), Catalog::default(), DeltaSet::new());
        let mut db = Database::new();
        let mut journal = crate::Journal::new();
        let mut rt = Runtime::with_state(
            &dag,
            &catalog,
            CostModel::default(),
            &mut db,
            &deltas,
            BTreeMap::new(),
            HashMap::new(),
            &mut state,
            &mut journal,
        );
        let delta = Batch::from_rows(input, &[vec![Value::Int(2), Value::Int(5)]]);
        assert!(!rt.merge_aggregate(ea, delta, DeltaKind::Insert).unwrap());
        rt.ensure_index(StoredRef::Mat(ep), AttrId(7)).unwrap();
        rt.ensure_index(StoredRef::Mat(et), AttrId(7)).unwrap();
        rt.drop_mat(et);
        rt.realize_all_deferred();
        drop(rt);
        assert_ne!(summary(&state), before);

        journal.rollback(&mut db, &mut state);
        assert_eq!(summary(&state), before);
    }

    #[test]
    fn agg_state_fold_and_unfold() {
        let s = schema(&[0, 1]);
        let mut state = AggState::new(
            vec![AttrId(0)],
            vec![AggSpec::new(
                mvmqo_relalg::agg::AggFunc::Sum,
                ScalarExpr::Col(AttrId(1)),
                AttrId(5),
            )],
            s,
        );
        let rows = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(1), Value::Int(5)],
            vec![Value::Int(2), Value::Int(7)],
        ];
        assert!(!state.fold(&rows, DeltaKind::Insert));
        assert_eq!(state.rows().len(), 2);
        // Delete one row of group 1.
        assert!(!state.fold(&[vec![Value::Int(1), Value::Int(10)]], DeltaKind::Delete));
        let out = state.rows();
        assert!(out.contains(&vec![Value::Int(1), Value::Int(5)]));
        // Delete the rest of group 1 → group disappears.
        state.fold(&[vec![Value::Int(1), Value::Int(5)]], DeltaKind::Delete);
        assert_eq!(state.rows().len(), 1);
    }

    #[test]
    fn min_delete_requests_recompute() {
        let s = schema(&[0, 1]);
        let mut state = AggState::new(
            vec![AttrId(0)],
            vec![AggSpec::new(
                mvmqo_relalg::agg::AggFunc::Min,
                ScalarExpr::Col(AttrId(1)),
                AttrId(5),
            )],
            s,
        );
        state.fold(&[vec![Value::Int(1), Value::Int(10)]], DeltaKind::Insert);
        assert!(state.fold(&[vec![Value::Int(1), Value::Int(10)]], DeltaKind::Delete));
    }

    #[test]
    fn distinct_state_counts_support() {
        let mut d = DistinctState::default();
        d.fold(
            &[
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
            DeltaKind::Insert,
        );
        assert_eq!(d.rows().len(), 2);
        d.fold(&[vec![Value::Int(1)]], DeltaKind::Delete);
        assert_eq!(d.rows().len(), 2); // support 1 left
        d.fold(&[vec![Value::Int(1)]], DeltaKind::Delete);
        assert_eq!(d.rows().len(), 1);
    }
}
