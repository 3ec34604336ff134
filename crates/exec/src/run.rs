//! Maintenance-program execution (§3.2.2 semantics).
//!
//! [`execute_epoch_faults`] drives one refresh cycle: populate the
//! materialized results on the pre-update state, then propagate updates one
//! relation and one kind at a time — computing temporary differentials,
//! evaluating every merge's delta plan *before* any merge is applied (all
//! plans must see the state with updates `< u`), merging, applying the base
//! delta, and invalidating stale temporaries — and finally refreshing
//! recompute-strategy views.
//!
//! Everything runs in program order on the caller's thread.
//!
//! The deltas arrive as a columnar [`DeltaQueue`], one `(inserts,
//! deletes)` pair of batches per relation in its stored layout, and are
//! read in place: a `ScanDelta` serves a handle copy of the queued side,
//! and the base-delta step hands storage the queued batch itself. No delta
//! changes representation during an epoch.
//!
//! The caller owns a [`RuntimeState`] that carries the materialized results
//! (and their hidden aggregate/distinct support state and indices) from one
//! epoch to the next, so permanent materializations are maintained in place
//! rather than rebuilt every cycle; a fresh state makes the call a one-shot
//! refresh. The epoch writes database and state in place under a
//! [`Journal`], so a failed epoch is undone rather than staged.
//! [`execute_epoch_opts`] is the same call with faults disarmed, rolling
//! itself back on error; it takes a row-shaped [`DeltaSet`] and encodes
//! it into a queue once, at entry.

use crate::error::ExecError;
use crate::journal::Journal;
use crate::meter::Meter;
use crate::runtime::{Runtime, RuntimeState};
use mvmqo_core::cost::CostModel;
use mvmqo_core::dag::{Dag, EqId};
use mvmqo_core::opt::StoredRef;
use mvmqo_core::plan::{MergeKind, PhysPlan, Program};
use mvmqo_relalg::batch::Batch;
use mvmqo_relalg::catalog::Catalog;
use mvmqo_relalg::schema::AttrId;
use mvmqo_relalg::tuple::Tuple;
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::{DeltaQueue, DeltaSet};
use mvmqo_storage::faults::FaultRegistry;
use mvmqo_storage::index::IndexKind;
use mvmqo_storage::journal::TableJournal;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Outcome of one executed refresh cycle.
#[derive(Debug)]
pub struct ExecReport {
    /// Modeled cost of initial population of views/permanent results
    /// (one-time; not part of maintenance cost, §6.1).
    pub setup_seconds: f64,
    /// Modeled cost of the maintenance run itself — the executed
    /// counterpart of the paper's estimated "Plan Cost".
    pub maintenance_seconds: f64,
    /// Detailed maintenance meter.
    pub maintenance_meter: Meter,
    /// Final contents per view (the refreshed multisets; tests compare them
    /// against recomputation). Empty when the epoch ran with
    /// [`ExecOptions::collect_view_rows`] off — the maintained state stays
    /// columnar and rows are materialized on demand instead.
    pub view_rows: BTreeMap<String, Vec<Tuple>>,
    /// Views that fell back to recomputation mid-run (MIN/MAX deletions).
    pub forced_recomputes: usize,
    /// Full results (re)computed during the setup phase. Zero when every
    /// maintained result was served from a persisted [`RuntimeState`] —
    /// the signal that nothing was rebuilt across epochs.
    pub setup_builds: usize,
    /// Full results (re)computed over the whole cycle (setup + on-demand
    /// temporaries + final recomputes).
    pub total_builds: usize,
}

/// Executor options.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Does nothing: every epoch runs serially. Kept so the benchmark
    /// harness (`wbench`) builds unchanged until ROADMAP item 3.
    pub parallel: bool,
    /// Materialize every view's rows into [`ExecReport::view_rows`] at the
    /// end of the epoch. Long-lived engines that serve reads on demand
    /// (the warehouse `answer` path) turn this off — view state then stays
    /// columnar across epochs and rows are only built when a user asks.
    pub collect_view_rows: bool,
    /// Does nothing; kept for `wbench` until ROADMAP item 3.
    pub force_parallel: bool,
    /// Does nothing; kept for `wbench` until ROADMAP item 3.
    pub threads: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallel: false,
            collect_view_rows: true,
            force_parallel: false,
            threads: 0,
        }
    }
}

impl ExecOptions {
    /// Does nothing but return 1, the one worker every epoch runs on;
    /// kept for `wbench` until ROADMAP item 3.
    pub fn resolved_threads(&self) -> usize {
        1
    }
}

/// Indices the executor must realize before running.
#[derive(Debug, Clone, Default)]
pub struct IndexPlan {
    /// Indices on base tables (initial + chosen).
    pub base: Vec<(mvmqo_relalg::catalog::TableId, AttrId)>,
    /// Indices on materialized nodes (chosen).
    pub mats: Vec<(EqId, AttrId)>,
}

/// Execute one maintenance epoch against `db`, applying `deltas`, resuming
/// from (and persisting back into) `state`, with no faults armed.
///
/// `deltas` is row-shaped (a [`DeltaSet`], as the TPC-D generator makes
/// it); each side is encoded once here, at entry, in its base table's
/// layout, and the epoch runs on that columnar queue.
///
/// On `Ok`, `db` holds the post-update base tables and every view has
/// been refreshed (incrementally or by recomputation, per the program).
/// On `Err`, the epoch's writes are rolled back: `db` and `state` are
/// exactly as they were. Pass the same `state` across consecutive epochs
/// of the same program so permanent materializations and view contents
/// survive; drop it whenever the program is re-optimized (node ids
/// change). A fresh [`RuntimeState`] makes the call a one-shot refresh.
#[allow(clippy::too_many_arguments)]
pub fn execute_epoch_opts(
    dag: &Dag,
    catalog: &Catalog,
    model: CostModel,
    db: &mut Database,
    deltas: &DeltaSet,
    program: &Program,
    indices: &IndexPlan,
    state: &mut RuntimeState,
    options: ExecOptions,
) -> Result<ExecReport, ExecError> {
    let mut queue = DeltaQueue::new();
    for (t, batch) in deltas.tables().filter_map(|t| Some((t, deltas.get(t)?))) {
        let schema = db.base(t)?.schema();
        let encode = |rows| Batch::from_rows(schema.clone(), rows);
        queue.extend(t, encode(&batch.inserts), encode(&batch.deletes));
    }
    let mut journal = Journal::new();
    let report = execute_epoch_faults(
        dag,
        catalog,
        model,
        db,
        &queue,
        program,
        indices,
        state,
        options,
        FaultRegistry::none(),
        &mut journal,
    );
    if report.is_err() {
        journal.rollback(db, state);
    }
    report
}

/// [`execute_epoch_opts`] over a columnar [`DeltaQueue`], with a live
/// fault-injection registry — every operator evaluation, merge, and
/// base-delta application checks it, so the chaos tests can fail the epoch
/// at any site — and a caller-owned undo journal.
///
/// The queue's batches are read in place: every δ scan serves a handle
/// copy of the queued side, and each base-delta step hands storage the
/// queued batch itself, so no delta is converted during the epoch.
///
/// The epoch writes `db` and `state` in place and records the inverse of
/// every write in `journal`. On `Err` — or when a panic unwinds out of
/// this call — `db` and `state` hold partial work, and
/// [`Journal::rollback`] puts them back exactly; on `Ok`, dropping the
/// journal commits. The warehouse's transactional epoch does exactly that
/// around its WAL commit: no copy of the state is ever staged.
#[allow(clippy::too_many_arguments)]
pub fn execute_epoch_faults(
    dag: &Dag,
    catalog: &Catalog,
    model: CostModel,
    db: &mut Database,
    deltas: &DeltaQueue,
    program: &Program,
    indices: &IndexPlan,
    state: &mut RuntimeState,
    options: ExecOptions,
    faults: &FaultRegistry,
    journal: &mut Journal,
) -> Result<ExecReport, ExecError> {
    // Realize base indices. Skip ones that already exist: the storage
    // layer keeps indices in sync as deltas apply, so across epochs they
    // persist rather than being rebuilt.
    for (t, attr) in &indices.base {
        let table = db.base_mut(*t)?;
        if table.index_on(*attr).is_none() {
            let mut undo = TableJournal::new();
            table.create_index_journaled(*attr, IndexKind::Hash, &mut undo);
            journal.base(*t, undo);
        }
    }
    let mut mat_indices: HashMap<EqId, Vec<AttrId>> = HashMap::new();
    for (e, attr) in &indices.mats {
        mat_indices.entry(*e).or_default().push(*attr);
    }
    let mut rt = Runtime::with_state(
        dag,
        catalog,
        model,
        db,
        deltas,
        program.full_plans.clone(),
        mat_indices,
        state,
        journal,
    );
    rt.set_faults(faults);

    // ------------------------------------------------------------------
    // Setup: populate views and permanent extras on the OLD state.
    // ------------------------------------------------------------------
    for (_, e) in &program.views {
        rt.materialize(*e)?;
    }
    for e in &program.permanent_mats {
        rt.materialize(*e)?;
    }
    let setup_meter = rt.meter.clone();
    let setup_seconds = setup_meter.seconds;
    let setup_builds = rt.full_builds;

    // Incrementally maintained results: they are merged when affected and
    // exactly unchanged when their differential is empty (independence or
    // §5.3 FK pruning), so they always survive invalidation.
    let mut maintained: HashSet<EqId> = program.permanent_mats.iter().copied().collect();
    for (_, e) in &program.views {
        if !program.final_recomputes.contains(e) {
            maintained.insert(*e);
        }
    }

    // ------------------------------------------------------------------
    // Propagation: one relation, one update kind at a time.
    // ------------------------------------------------------------------
    let mut forced_recomputes = 0usize;
    for step in &program.steps {
        let u = step.update.id;
        let kind = step.update.kind;
        let table = step.update.table;

        // 1. Temporarily materialized differentials, in program order
        // (bottom-up: a later one may read an earlier one's `ReadDelta`).
        for (e, plan) in &step.temp_deltas {
            let batch = rt.eval_batch(plan)?;
            rt.store_delta(*e, u, batch);
        }

        // 2. Evaluate all merge deltas against the pre-step state (all of
        // them before any merge applies, so every plan sees updates < u;
        // that same independence is what lets them run concurrently)...
        let plans: Vec<&PhysPlan> = step.merges.iter().map(|m| &m.delta_plan).collect();
        let batches = rt.eval_merge_deltas(&plans)?;
        // ...then apply them in program order, columnar end-to-end.
        for (merge, batch) in step.merges.iter().zip(batches) {
            match &merge.kind {
                MergeKind::Plain => rt.merge_plain(merge.target, batch, kind)?,
                MergeKind::Aggregate { .. } => {
                    if rt.merge_aggregate(merge.target, batch, kind)? {
                        forced_recomputes += 1;
                    }
                }
                MergeKind::Distinct => rt.merge_distinct(merge.target, batch, kind)?,
            }
        }

        // 3. Apply the base delta for this (relation, kind): the queued
        // batch itself, merged column by column.
        let width = catalog.table(table).schema.row_width();
        faults.hit("exec:apply-base-delta")?;
        let applied = rt.apply_base_side(table, kind)?;
        rt.meter
            .charge_seq(&model, applied.map_or(0, Batch::num_rows), width);

        // 4. Invalidate stale temporaries; maintained results stay fresh.
        rt.invalidate_depending(table, &maintained);
        rt.clear_deltas(u);
    }

    // ------------------------------------------------------------------
    // Finalize: recompute-strategy views, drop temporaries.
    // ------------------------------------------------------------------
    for e in &program.final_recomputes {
        rt.drop_mat(*e);
    }
    for e in &program.final_recomputes {
        rt.materialize(*e)?;
    }
    for e in &program.temporary_mats {
        rt.drop_mat(*e);
    }

    let mut view_rows: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    for (name, e) in &program.views {
        // Views must be materialized at the end of the cycle; rows are
        // only built when the caller asked for them — the one
        // user-facing row conversion of the epoch.
        let table = rt.materialize(*e)?;
        let rows = if options.collect_view_rows {
            table.batch().to_rows()
        } else {
            Vec::new()
        };
        view_rows.insert(name.clone(), rows);
    }

    let total = rt.meter.clone();
    let maintenance_meter = Meter {
        seconds: total.seconds - setup_meter.seconds,
        tuples_processed: total.tuples_processed - setup_meter.tuples_processed,
        blocks_io: total.blocks_io - setup_meter.blocks_io,
        random_pages: total.random_pages - setup_meter.random_pages,
    };
    let total_builds = rt.full_builds;
    rt.realize_all_deferred();
    Ok(ExecReport {
        setup_seconds,
        maintenance_seconds: maintenance_meter.seconds,
        maintenance_meter,
        view_rows,
        forced_recomputes,
        setup_builds,
        total_builds,
    })
}

/// Collect the executor-facing index plan from an optimizer report.
pub fn index_plan_from_report(
    initial: &[(mvmqo_relalg::catalog::TableId, AttrId)],
    report: &mvmqo_core::api::OptimizerReport,
) -> IndexPlan {
    let mut plan = IndexPlan {
        base: initial.to_vec(),
        mats: Vec::new(),
    };
    for choice in &report.chosen_indices {
        match choice.target {
            StoredRef::Base(t) => plan.base.push((t, choice.attr)),
            StoredRef::Mat(e) => plan.mats.push((e, choice.attr)),
        }
    }
    plan
}

/// Fetch the final rows of a view by name after execution; helper for tests
/// and examples that re-run the runtime read-only.
pub fn view_root(program: &Program, name: &str) -> Option<EqId> {
    program
        .views
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, e)| *e)
}
