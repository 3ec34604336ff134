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
//!    step's merge-delta plans all evaluate against one prepared state.

use crate::error::ExecError;
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
use mvmqo_storage::delta::{DeltaKind, DeltaQueue};
use mvmqo_storage::faults::FaultRegistry;
use mvmqo_storage::index::IndexKind;
use mvmqo_storage::journal::TableJournal;
use mvmqo_storage::table::StoredTable;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Hidden per-group accumulator state for a maintained aggregate view
/// (footnote 1 of the paper: counts must be kept to apply deletions).
#[derive(Debug, Clone)]
pub struct AggState {
    pub group_by: Vec<AttrId>,
    pub specs: Vec<AggSpec>,
    pub input_schema: Schema,
    /// Per group: the input rows folded in, and one accumulator per spec.
    /// A group lives exactly while its row count is positive — however
    /// many of its aggregate arguments are NULL.
    groups: HashMap<Vec<Value>, (i64, Vec<Accumulator>)>,
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

    /// Iterate the hidden per-group state — key, input-row count and
    /// accumulators (the durability layer persists them so aggregate views
    /// stay incrementally maintainable after recovery).
    pub fn group_entries(&self) -> impl Iterator<Item = (&Vec<Value>, i64, &[Accumulator])> {
        self.groups
            .iter()
            .map(|(key, (rows, accs))| (key, *rows, accs.as_slice()))
    }

    /// Reassemble from persisted parts (inverse of
    /// [`AggState::group_entries`] plus the public fields).
    pub fn from_parts(
        group_by: Vec<AttrId>,
        specs: Vec<AggSpec>,
        input_schema: Schema,
        groups: Vec<(Vec<Value>, i64, Vec<Accumulator>)>,
    ) -> Self {
        AggState {
            group_by,
            specs,
            input_schema,
            groups: groups
                .into_iter()
                .map(|(key, rows, accs)| (key, (rows, accs)))
                .collect(),
        }
    }

    /// Fold raw input rows in (inserts) or out (deletes). Returns `true` if
    /// a non-removable aggregate (MIN/MAX) saw a deletion and the state can
    /// no longer answer exactly — the caller must recompute.
    pub fn fold(&mut self, rows: &[Tuple], kind: DeltaKind) -> bool {
        let key_pos = self.key_positions();
        let step = row_step(kind);
        let mut needs_recompute = false;
        for row in rows {
            let key: Vec<Value> = key_pos.iter().map(|&i| row[i].clone()).collect();
            let (count, accs) = group(&mut self.groups, &self.specs, key);
            *count += step;
            for (acc, spec) in accs.iter_mut().zip(&self.specs) {
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
        self.groups.retain(|_, (count, _)| *count > 0);
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
        let step = row_step(kind);
        let mut needs_recompute = false;
        let mut scratch: Vec<Value> = Vec::new();
        for i in 0..batch.num_rows() {
            let phys = batch.physical(i) as usize;
            let key: Vec<Value> = key_pos
                .iter()
                .map(|&c| batch.column(c).value(phys))
                .collect();
            let (count, accs) = group(&mut self.groups, &self.specs, key);
            *count += step;
            let mut scratch_filled = false;
            for ((acc, spec), arg) in accs.iter_mut().zip(&self.specs).zip(&arg_cols) {
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
        self.groups.retain(|_, (count, _)| *count > 0);
        needs_recompute
    }

    /// Current view rows: group key columns followed by aggregate values.
    pub fn rows(&self) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self
            .groups
            .iter()
            .map(|(key, (_, accs))| {
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
        let mut entries: Vec<_> = self.groups.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut columns: Vec<Column> = schema
            .attrs()
            .iter()
            .map(|a| Column::with_capacity(a.data_type, entries.len()))
            .collect();
        let nkeys = self.group_by.len();
        debug_assert_eq!(schema.len(), nkeys + self.specs.len());
        for (key, (_, accs)) in entries {
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

/// The state of the group `key`, created empty on first use.
fn group<'g>(
    groups: &'g mut HashMap<Vec<Value>, (i64, Vec<Accumulator>)>,
    specs: &[AggSpec],
    key: Vec<Value>,
) -> &'g mut (i64, Vec<Accumulator>) {
    groups
        .entry(key)
        .or_insert_with(|| (0, specs.iter().map(|s| Accumulator::new(s.func)).collect()))
}

/// How one folded row moves its group's row count.
fn row_step(kind: DeltaKind) -> i64 {
    match kind {
        DeltaKind::Insert => 1,
        DeltaKind::Delete => -1,
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
}

impl RuntimeState {
    pub fn new() -> Self {
        RuntimeState::default()
    }

    /// The stored result `e`, if present (warehouse `answer` and `verify`
    /// read the maintained materializations through this).
    pub fn mat(&self, e: EqId) -> Option<&StoredTable> {
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

    /// Does nothing: an epoch realizes its deferred rebuilds before it
    /// returns, so a state never holds one between epochs.
    pub fn realize_deferred(&mut self) {}

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
    pub deltas: &'a DeltaQueue,
    full_plans: BTreeMap<EqId, PhysPlan>,
    /// Indices to maintain on materialized nodes (chosen by the optimizer).
    mat_indices: HashMap<EqId, Vec<AttrId>>,
    /// Borrowed from the caller, so it outlives an error or a panic and
    /// can be rolled back in place.
    state: &'a mut RuntimeState,
    /// Where every write to `db` and `state` records its inverse.
    journal: &'a mut Journal,
    /// Maintained aggregate/distinct results whose hidden support state has
    /// absorbed merges the stored image has not: the stored table is
    /// rebuilt from the state *once*, at the first read (or at epoch end),
    /// instead of after every one of the step-by-step merges that touch it.
    /// Epoch-local: an epoch realizes every mark before it returns `Ok`,
    /// and a rolled-back epoch leaves nothing behind to realize.
    deferred: HashSet<EqId>,
    delta_store: HashMap<(EqId, UpdateId), Batch>,
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
        deltas: &'a DeltaQueue,
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
            deferred: HashSet::new(),
            delta_store: HashMap::new(),
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

    /// Realize every deferred aggregate/distinct rebuild (the end of an
    /// epoch), so the state left behind serves current stored images.
    pub(crate) fn realize_all_deferred(&mut self) {
        let deferred: Vec<EqId> = self.deferred.iter().copied().collect();
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
    // their stored table and support state (see `merge_aggregate`).
    #[allow(clippy::expect_used)]
    fn realize_deferred(&mut self, e: EqId) {
        if !self.deferred.remove(&e) {
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
            self.deferred.remove(&e);
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
        self.deferred.remove(&e);
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

    /// Apply one side of a base relation's queued delta in place
    /// (§3.2.2's per-update step). The queued batch goes to storage as it
    /// is, and comes back to the caller: it is the batch that was applied
    /// (`None` when the relation has nothing queued on that side).
    pub(crate) fn apply_base_side(
        &mut self,
        t: mvmqo_relalg::catalog::TableId,
        kind: DeltaKind,
    ) -> Result<Option<&'a Batch>, ExecError> {
        let Some(delta) = self.deltas.side(t, kind) else {
            return Ok(None);
        };
        let (ins, del) = match kind {
            DeltaKind::Insert => (Some(delta), None),
            DeltaKind::Delete => (None, Some(delta)),
        };
        let mut undo = TableJournal::new();
        self.db
            .base_mut(t)?
            .apply_batch_delta_journaled(ins, del, &mut undo);
        self.record(StoredRef::Base(t), undo);
        Ok(Some(delta))
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
            self.deferred.remove(&e);
            self.set_fresh(e, false);
            self.materialize(e)?;
            return Ok(true);
        }
        self.deferred.insert(e);
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
        self.deferred.insert(e);
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
    /// state with updates `< u`, so every plan is prepared first and then
    /// evaluated, in plan order, against that one state. Batches and meter
    /// charges come back in plan order, and so does the error: the first
    /// `Err` by plan.
    pub(crate) fn eval_merge_deltas(
        &mut self,
        plans: &[&PhysPlan],
    ) -> Result<Vec<Batch>, ExecError> {
        for plan in plans {
            self.prepare(plan)?;
        }
        let ctx = self.eval_ctx();
        let results: Vec<_> = plans
            .iter()
            .map(|plan| {
                let mut meter = Meter::new();
                ctx.eval(plan, &mut meter).map(|batch| (batch, meter))
            })
            .collect();
        let mut batches = Vec::with_capacity(plans.len());
        for result in results {
            let (batch, meter) = result?;
            self.meter.absorb(&meter);
            batches.push(batch);
        }
        Ok(batches)
    }

    /// Read-only evaluation context over the runtime's current state.
    pub(crate) fn eval_ctx(&self) -> EvalCtx<'_> {
        EvalCtx {
            model: &self.model,
            db: &*self.db,
            deltas: self.deltas,
            mats: &self.state.mats,
            delta_store: &self.delta_store,
            faults: self.faults,
        }
    }

    /// Mutable pre-pass: materialize every stored result the plan reads
    /// and create any index it probes, so that evaluation itself is
    /// read-only. This is also what lets the index nested-loop join probe
    /// the stored inner relation in place instead of cloning it.
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
/// pairs that are gathered into output columns once, at the end.
pub(crate) struct EvalCtx<'r> {
    pub model: &'r CostModel,
    pub db: &'r Database,
    pub deltas: &'r DeltaQueue,
    pub mats: &'r HashMap<EqId, StoredTable>,
    pub delta_store: &'r HashMap<(EqId, UpdateId), Batch>,
    /// Fault-injection registry, checked once per operator evaluation.
    pub faults: &'r FaultRegistry,
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
                // O(width): the queued side is columnar already, in the
                // stored table's layout, and its columns are Arc-shared
                // with the clone.
                let batch = match self.deltas.side(*table, *kind) {
                    Some(queued) => queued.clone().align(&plan.schema),
                    None => Batch::empty(plan.schema.clone()),
                };
                meter.charge_seq(self.model, batch.num_rows(), plan.schema.row_width());
                Ok(batch)
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
                let mut scratch = Vec::new();
                batch.filter(&compiled, &mut scratch);
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
        let pairs = hash_join_pairs(&build_b, &bcols, &probe_b, &pcols, residual, &combined);
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
    ///    typed min/max) indexed by group id. Only general expressions
    ///    fall back to per-group [`Accumulator`]s.
    ///
    /// Output columns are emitted directly from the kernel states, in key
    /// order and of the plan schema's types — semantics (NULL handling,
    /// empty-group results) replicate [`Accumulator`] exactly.
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
        // Pass 1: group ids, assigned in first-occurrence order.
        let (reps, gids) = group_ids(&in_b, &key_cols);
        let ngroups = reps.len();
        // Pass 2: one typed kernel per aggregate, typed by the plan.
        let out_types = &plan.schema.attrs()[key_cols.len()..];
        let agg_columns: Vec<Column> = aggs
            .iter()
            .zip(out_types)
            .map(|(spec, a)| agg_kernel(&in_b, &input.schema, spec, &gids, ngroups, a.data_type))
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

/// Hash-join pair computation: hash table over the build side keyed
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

/// The physical positions of `b`'s logical rows, in order: its selection
/// walked in place, or the dense range — no position list is built.
fn physical_rows(b: &Batch) -> impl Iterator<Item = u32> + '_ {
    (0..b.num_rows()).map(|i| b.physical(i))
}

/// Group-id assignment over the batch's logical rows: one id per row, ids
/// issued in first-occurrence order; returns `(reps, gids)` with one
/// representative physical position per group.
///
/// A single dict-encoded key column short-circuits the hash table entirely:
/// dictionary entries are unique, so code equality *is* key equality and a
/// flat `code → gid` array replaces hashing and collision probing (NULLs —
/// masked rows — form their own group, exactly as `keys_eq` groups them).
fn group_ids(in_b: &Batch, key_cols: &[usize]) -> (Vec<u32>, Vec<u32>) {
    let n = in_b.num_rows();
    let mut reps: Vec<u32> = Vec::new();
    let mut gids: Vec<u32> = Vec::with_capacity(n);
    if let [kc] = key_cols {
        let col = in_b.column(*kc);
        if let Some((codes, dict)) = col.dict() {
            let mut code_gid: Vec<u32> = vec![u32::MAX; dict.len()];
            let mut null_gid = u32::MAX;
            for phys in physical_rows(in_b) {
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
    let mut buckets: U64Map<Vec<u32>> = u64_map_with_capacity(n.min(1 << 16));
    for phys in physical_rows(in_b) {
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

/// One aggregate's columnar update kernel: walk the input column once,
/// updating typed per-group state vectors, and emit the result column of
/// the plan's output type `out`. A plain column input always has a typed
/// kernel (view validation admits SUM and AVG over numeric inputs only);
/// a general expression falls back to per-group [`Accumulator`]s. Results
/// are bit-identical to the row path.
fn agg_kernel(
    in_b: &Batch,
    schema: &Schema,
    spec: &AggSpec,
    gids: &[u32],
    ngroups: usize,
    out: DataType,
) -> Column {
    use mvmqo_relalg::agg::AggFunc;
    debug_assert_eq!(in_b.num_rows(), gids.len());
    let col_pos = match &spec.input {
        ScalarExpr::Col(id) => schema.position_of(*id),
        _ => None,
    };
    let Some(pos) = col_pos else {
        return agg_fallback(in_b, schema, spec, gids, ngroups, out);
    };
    let col = in_b.column(pos);
    let is_min = spec.func == AggFunc::Min;
    let groups = (in_b, gids, ngroups);
    match (spec.func, col.data()) {
        (AggFunc::Count, _) => {
            // COUNT is nullness-only: typed for every physical layout.
            let mut counts = vec![0i64; ngroups];
            for (phys, &g) in physical_rows(in_b).zip(gids) {
                if !col.is_null(phys as usize) {
                    counts[g as usize] += 1;
                }
            }
            let mut column = Column::with_capacity(out, ngroups);
            for c in counts {
                column.push(&Value::Int(c));
            }
            column
        }
        (AggFunc::Sum | AggFunc::Avg, ColumnData::Int(v)) => {
            sum_avg(col, groups, spec.func, out, |p| v[p] as f64)
        }
        (AggFunc::Sum | AggFunc::Avg, ColumnData::Float(v)) => {
            sum_avg(col, groups, spec.func, out, |p| v[p])
        }
        (AggFunc::Min | AggFunc::Max, ColumnData::Int(v)) => {
            min_max_prim(col, groups, is_min, out, |p| v[p], |a, b| a < b, Value::Int)
        }
        (AggFunc::Min | AggFunc::Max, ColumnData::Date(v)) => min_max_prim(
            col,
            groups,
            is_min,
            out,
            |p| v[p],
            |a, b| a < b,
            Value::Date,
        ),
        (AggFunc::Min | AggFunc::Max, ColumnData::Bool(v)) => min_max_prim(
            col,
            groups,
            is_min,
            out,
            |p| v[p],
            |a, b| !a & b,
            Value::Bool,
        ),
        (AggFunc::Min | AggFunc::Max, ColumnData::Float(v)) => {
            let less = |a: f64, b: f64| a.total_cmp(&b).is_lt();
            min_max_prim(col, groups, is_min, out, |p| v[p], less, Value::Float)
        }
        (AggFunc::Min | AggFunc::Max, ColumnData::Str(_) | ColumnData::Dict { .. }) => {
            let mut best: Vec<Option<std::sync::Arc<str>>> = vec![None; ngroups];
            let at = |p: usize| -> &std::sync::Arc<str> {
                match col.data() {
                    ColumnData::Dict { codes, dict } => dict.value(codes[p]),
                    ColumnData::Str(v) => &v[p],
                    _ => unreachable!("guarded by the match arm"),
                }
            };
            for (phys, &g) in physical_rows(in_b).zip(gids) {
                let phys = phys as usize;
                if col.is_null(phys) {
                    continue;
                }
                let v = at(phys);
                let slot = &mut best[g as usize];
                let better = match slot {
                    None => true,
                    Some(b) if is_min => *v < *b,
                    Some(b) => *v > *b,
                };
                if better {
                    *slot = Some(v.clone());
                }
            }
            let mut column = Column::with_capacity(out, ngroups);
            for b in best {
                column.push(&b.map_or(Value::Null, Value::Str));
            }
            column
        }
        (func, data) => unreachable!(
            "{func} over a {} column: view validation rejects it",
            data.data_type()
        ),
    }
}

/// Typed SUM/AVG over a numeric payload (arguments as for
/// [`min_max_prim`]), accumulated in f64 exactly as `Accumulator` does, so
/// Int sums agree bit-for-bit, including the > 2^53 regime.
fn sum_avg(
    col: &Column,
    (in_b, gids, ngroups): (&Batch, &[u32], usize),
    func: mvmqo_relalg::agg::AggFunc,
    out: DataType,
    get: impl Fn(usize) -> f64,
) -> Column {
    let mut sums = vec![0f64; ngroups];
    let mut counts = vec![0i64; ngroups];
    for (phys, &g) in physical_rows(in_b).zip(gids) {
        let p = phys as usize;
        if !col.is_null(p) {
            sums[g as usize] += get(p);
            counts[g as usize] += 1;
        }
    }
    let avg = func == mvmqo_relalg::agg::AggFunc::Avg;
    let mut column = Column::with_capacity(out, ngroups);
    for (sum, n) in sums.into_iter().zip(counts) {
        column.push(&match n {
            0 => Value::Null,
            _ if avg => Value::Float(sum / n as f64),
            _ if out == DataType::Int => Value::Int(sum as i64),
            _ => Value::Float(sum),
        });
    }
    column
}

/// Shared typed MIN/MAX loop over a primitive payload: `groups` is the
/// `(batch, gids, ngroups)` assignment (one group id per logical row of
/// the batch), `get` reads the cell at a physical position.
fn min_max_prim<T: Copy + Default>(
    col: &Column,
    (in_b, gids, ngroups): (&Batch, &[u32], usize),
    is_min: bool,
    out: DataType,
    get: impl Fn(usize) -> T,
    less: impl Fn(T, T) -> bool,
    wrap: impl Fn(T) -> Value,
) -> Column {
    let mut best = vec![T::default(); ngroups];
    let mut has = vec![false; ngroups];
    for (phys, &g) in physical_rows(in_b).zip(gids) {
        let phys = phys as usize;
        if col.is_null(phys) {
            continue;
        }
        let g = g as usize;
        let x = get(phys);
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
    let mut column = Column::with_capacity(out, ngroups);
    for g in 0..ngroups {
        column.push(&if has[g] { wrap(best[g]) } else { Value::Null });
    }
    column
}

/// Per-group [`Accumulator`] fallback for an aggregate over a general
/// expression, evaluated on a scratch row.
fn agg_fallback(
    in_b: &Batch,
    schema: &Schema,
    spec: &AggSpec,
    gids: &[u32],
    ngroups: usize,
    out: DataType,
) -> Column {
    let mut accs: Vec<Accumulator> = (0..ngroups).map(|_| Accumulator::new(spec.func)).collect();
    let mut scratch = Vec::new();
    for (phys, &g) in physical_rows(in_b).zip(gids) {
        in_b.write_row(phys, &mut scratch);
        accs[g as usize].add(&spec.input.eval(&scratch, schema));
    }
    let mut column = Column::with_capacity(out, ngroups);
    for acc in &accs {
        column.push(&acc.finish());
    }
    column
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

    /// The queued delta is read in place: a δ scan serves the queued
    /// columns themselves (a handle copy, aligned to the plan's layout),
    /// and the base-delta step hands storage the queued batch itself. The
    /// pointer checks fail if either path re-encodes the delta.
    #[test]
    fn delta_scans_and_the_base_step_read_the_queued_columns() {
        use mvmqo_relalg::catalog::ColumnSpec;
        let mut catalog = Catalog::new();
        let t = catalog.add_table(
            "t",
            vec![
                ColumnSpec::key("k", DataType::Int),
                ColumnSpec::with_distinct("s", DataType::Str, 2.0),
            ],
            2.0,
            &["k"],
        );
        let schema = catalog.table(t).schema.clone();
        let row = |k: i64| vec![Value::Int(k), Value::str(format!("s{}", k % 2))];
        let mut db = Database::new();
        db.put_base(
            t,
            StoredTable::with_rows(schema.clone(), vec![row(1), row(2)]),
        );
        let mut deltas = DeltaQueue::new();
        let inserts = Batch::from_tuples(schema.clone(), vec![row(3), row(4)]);
        deltas.extend(t, inserts, Batch::empty(schema.clone()));
        let queued = deltas.side(t, DeltaKind::Insert).unwrap();

        let (dag, mut state, mut journal) =
            (Dag::default(), RuntimeState::new(), crate::Journal::new());
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
        // The plan reads the columns in the other order.
        let reversed = Schema::new(schema.attrs().iter().rev().cloned().collect());
        let scan = PhysPlan {
            schema: reversed,
            node: PlanNode::ScanDelta {
                table: t,
                kind: DeltaKind::Insert,
            },
        };
        let served = rt.eval_batch(&scan).unwrap();
        assert_eq!(served.num_rows(), 2);
        for (c, q) in [(0, 1), (1, 0)] {
            assert!(
                std::ptr::eq(served.column(c), queued.column(q)),
                "scan column {c}"
            );
        }
        let applied = rt.apply_base_side(t, DeltaKind::Insert).unwrap().unwrap();
        for c in 0..2 {
            assert!(
                std::ptr::eq(applied.column(c), queued.column(c)),
                "base column {c}"
            );
        }
        assert!(
            rt.apply_base_side(t, DeltaKind::Delete)
                .unwrap()
                .unwrap()
                .num_rows()
                == 0
        );
        drop(rt);
        let mut stored = db.base(t).unwrap().batch().to_rows();
        stored.sort();
        assert_eq!(stored, vec![row(1), row(2), row(3), row(4)]);
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
        let mut marks: Vec<String> = state.fresh.iter().map(|e| format!("fresh {e}")).collect();
        for (e, st) in &state.agg_states {
            let mut groups: Vec<String> = st
                .group_entries()
                .map(|(k, n, accs)| format!("{k:?} {n} {accs:?}"))
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

        let (dag, catalog, deltas) = (Dag::default(), Catalog::default(), DeltaQueue::new());
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
