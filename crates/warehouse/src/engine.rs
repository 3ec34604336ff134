//! The warehouse engine: a long-lived owner of database, catalog, view set,
//! and the current maintenance plan.
//!
//! Where the paper's pipeline runs once (one optimization + a single
//! refresh), [`Warehouse`] runs *continuously*: views register
//! and drop over time (each re-running the §6 selection over the whole
//! set), arbitrary insert/delete batches stream in through [`Warehouse::ingest`]
//! (mapped onto the §5.2 2n δ⁺/δ⁻ update numbering at epoch boundaries),
//! and [`Warehouse::run_epoch`] executes the chosen shared maintenance
//! program while persisting permanent materializations and indices across
//! epochs. An adaptive policy re-runs the optimizer when the view set, the
//! ingested-delta volume, or the realized-vs-estimated cost drifts past
//! thresholds.

use crate::durability::{check_agg_state, check_distinct_state, SnapshotData, ViewMatImage};
use crate::error::WarehouseError;
use crate::policy::{ReoptPolicy, ReoptTrigger};
use mvmqo_core::api::OptimizerReport;
use mvmqo_core::cost::CostModel;
use mvmqo_core::plan::{Program, StepProgram};
use mvmqo_core::session::{Optimizer, PlanMode};
use mvmqo_core::update::UpdateModel;
use mvmqo_core::EqId;
use mvmqo_exec::{
    execute_epoch_faults, index_plan_from_report, panic_message, view_root, ExecError, ExecOptions,
    IndexPlan, Journal, Runtime, RuntimeState,
};
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::hash::{u64_map_with_capacity, U64Map};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::schema::AttrId;
use mvmqo_relalg::tuple::{bag_eq_approx, Tuple};
use mvmqo_relalg::types::DataType;
use mvmqo_relalg::Batch;
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::{DeltaBatch, DeltaKind, DeltaQueue, QueuedDelta};
use mvmqo_storage::error::{RecoveryError, StorageError};
use mvmqo_storage::faults::FaultRegistry;
use mvmqo_storage::snapshot::{self, Manifest};
use mvmqo_storage::wal::{scan_wal, WalRecord, WalStop, WalWriter};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One re-optimization: when, why, how (cold vs incremental), how long.
/// The replan log is how scripts and tests distinguish cheap incremental
/// replans from cold rebuilds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplanRecord {
    /// Engine epoch at which the replan ran.
    pub epoch: u64,
    pub trigger: ReoptTrigger,
    pub mode: PlanMode,
    pub elapsed: Duration,
}

/// Everything tied to the currently selected plan. The DAG itself lives in
/// the re-entrant [`Optimizer`] session (node ids are stable across
/// replans), so runtime state for results that stay maintained survives
/// re-optimization; the rest is dropped here.
struct PlanState {
    report: OptimizerReport,
    index_plan: IndexPlan,
    /// Persistent materializations, indices, and hidden aggregate/distinct
    /// support state, carried from epoch to epoch.
    state: RuntimeState,
    /// Epochs executed under this plan.
    epochs_run: u64,
}

/// What one `run_epoch` did.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Engine-wide epoch number (1-based after the first epoch).
    pub epoch: u64,
    /// Present when this epoch began by re-running the optimizer.
    pub replanned: Option<ReoptTrigger>,
    /// Optimizer estimate for one maintenance cycle under the current plan.
    pub estimated_cost: f64,
    /// Executed (simulated-I/O) maintenance cost of this epoch.
    pub executed_seconds: f64,
    /// Executed setup cost (initial population; zero once state persists).
    pub setup_seconds: f64,
    /// Full results built during setup — zero when every maintained result
    /// survived from the previous epoch.
    pub setup_builds: usize,
    /// Full results built over the whole epoch.
    pub total_builds: usize,
    /// Tuples ingested into this epoch's batch.
    pub ingested_tuples: usize,
    /// Aggregate views that fell back to recomputation (MIN/MAX deletes).
    pub forced_recomputes: usize,
}

/// The live durability attachment: where durable state lives and the open
/// WAL segment every accepted ingest and committed epoch is appended to.
struct Durability {
    dir: PathBuf,
    wal: WalWriter,
    /// Sequence number of the current snapshot/WAL segment pair.
    wal_seq: u64,
    /// Epoch captured by the current snapshot (the WAL truncation point).
    snapshot_epoch: u64,
    /// The last snapshot body, kept so the next checkpoint encodes into
    /// memory that is already mapped. An epoch frees little, so a fresh
    /// buffer of snapshot size would be faulted in page by page each time.
    snapshot_buf: Vec<u8>,
}

/// How this engine instance came back from durable state (present only on
/// warehouses built by [`Warehouse::recover`]).
#[derive(Debug, Clone)]
pub struct RecoveryInfo {
    /// Epoch restored from the snapshot (before WAL replay).
    pub snapshot_epoch: u64,
    /// Epoch after replaying the WAL tail.
    pub recovered_epoch: u64,
    /// WAL records replayed through the ordinary ingest/epoch path.
    pub replayed_records: usize,
    /// True when the WAL ended cleanly at EOF; false when prefix recovery
    /// stopped at a torn or corrupt tail (the surviving prefix was kept).
    pub clean_wal: bool,
    /// Why the WAL scan stopped (human-readable, for `explain`).
    pub wal_stop: String,
    /// True when the warm re-plan landed on the same materialization +
    /// index selection the old session had chosen.
    pub selection_match: bool,
}

/// Why the most recent epoch abort happened: which fault site failed, the
/// rendered cause, and the epoch that was being attempted. Kept until the
/// next abort overwrites it and surfaced by `explain` — an aborted epoch
/// leaves no other trace in the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbortInfo {
    /// The epoch the aborted transaction was trying to commit
    /// (pre-epoch + 1; the engine is still at pre-epoch).
    pub epoch: u64,
    /// Fault-site label (e.g. `"exec:hash-join"`, `"wal:commit"`).
    pub site: String,
    /// Human-readable cause (the underlying error or panic message).
    pub cause: String,
}

/// A served view: its contents as one columnar batch, plus provenance and
/// staleness.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The view's contents in its declared column order. A materialized
    /// view's batch shares the stored columns (a handle copy); nothing is
    /// converted to rows unless the caller asks (`batch.to_rows()`).
    pub batch: Batch,
    /// True when deltas have been ingested but not yet applied by an epoch —
    /// the answer reflects the last refresh, not the latest ingest.
    pub stale: bool,
    /// True when served from the maintained materialization; false when the
    /// engine recomputed the view from the current base tables through the
    /// batch executor, because no materialization of it is stored (before
    /// the first epoch, or after a replan added the view).
    pub from_materialization: bool,
}

/// A served query: [`Answer`] converted to rows.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The view's contents in its declared column order. The engine keeps
    /// no row-shaped copy of stored data: these rows are built per call,
    /// straight from the answer's columns, and belong to the caller.
    pub rows: Vec<Tuple>,
    /// See [`Answer::stale`].
    pub stale: bool,
    /// See [`Answer::from_materialization`]: true when served from the
    /// maintained materialization, false when recomputed by the batch
    /// executor.
    pub from_materialization: bool,
}

/// The long-lived warehouse engine.
pub struct Warehouse {
    catalog: Catalog,
    db: Database,
    views: Vec<ViewDef>,
    policy: ReoptPolicy,
    /// The re-entrant optimizer session: owns the persistent AND-OR DAG,
    /// cost memo, and warm-start state. `ViewSetChanged`/`DeltaDrift`
    /// replans pay incremental cost; only the first plan is cold.
    optimizer: Optimizer,
    plan: Option<PlanState>,
    pending: DeltaQueue,
    /// Tuples ingested since the last re-optimization (drift measure).
    ingested_since_plan: usize,
    view_set_dirty: bool,
    epoch: u64,
    history: Vec<EpochReport>,
    /// Exponentially-weighted per-table (inserts, deletes) observed per
    /// epoch; the update model for re-planning when no batch is pending.
    observed: BTreeMap<TableId, (f64, f64)>,
    replans: Vec<ReplanRecord>,
    /// Present once `enable_wal` ran (or after `recover`): ingests are
    /// logged write-ahead and epochs append commit records.
    durability: Option<Durability>,
    /// Present only on engines built by [`Warehouse::recover`].
    recovered: Option<RecoveryInfo>,
    /// Engine-wide fault-injection registry: threaded through the executor
    /// and crossed at every durability boundary. Inert unless a chaos test
    /// or the `chaos` script command arms it.
    faults: FaultRegistry,
    /// The most recent epoch abort, if any.
    last_abort: Option<AbortInfo>,
    /// Epochs aborted (and left retryable) over the engine's lifetime.
    epochs_aborted: u64,
}

impl Warehouse {
    /// Create an engine over a loaded database. Views are registered
    /// afterwards via [`Warehouse::register_view`].
    pub fn new(catalog: Catalog, db: Database) -> Self {
        Warehouse {
            catalog,
            db,
            views: Vec::new(),
            policy: ReoptPolicy::default(),
            optimizer: Optimizer::default(),
            plan: None,
            pending: DeltaQueue::new(),
            ingested_since_plan: 0,
            view_set_dirty: false,
            epoch: 0,
            history: Vec::new(),
            observed: BTreeMap::new(),
            replans: Vec::new(),
            durability: None,
            recovered: None,
            faults: FaultRegistry::new(),
            last_abort: None,
            epochs_aborted: 0,
        }
    }

    pub fn with_policy(mut self, policy: ReoptPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Does nothing: every epoch runs serially. Kept for `wbench` until
    /// ROADMAP item 3.
    pub fn set_parallel(&mut self, _parallel: bool) {}

    /// Does nothing; kept for `wbench` until ROADMAP item 3.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Does nothing; kept for `wbench` until ROADMAP item 3.
    pub fn set_force_parallel(&mut self, _force: bool) {}

    // ==================================================================
    // View registry
    // ==================================================================

    /// Register a view. Triggers MQO re-optimization over the whole view
    /// set (§6: the selection is a property of the *set*, not the view).
    /// The view is validated first, then logged write-ahead: a rejected
    /// view or a failed append leaves the engine unchanged.
    // Invariant, not input handling: `replan` just ran over a non-empty
    // view set, which always installs a plan.
    #[allow(clippy::expect_used)]
    pub fn register_view(&mut self, view: ViewDef) -> Result<&OptimizerReport, WarehouseError> {
        if self.views.iter().any(|v| v.name == view.name) {
            return Err(WarehouseError::DuplicateView(view.name));
        }
        view.expr
            .validate(&self.catalog)
            .map_err(|reason| WarehouseError::InvalidView {
                name: view.name.clone(),
                reason,
            })?;
        for t in view.expr.base_tables() {
            self.db.base(t)?;
        }
        self.wal_append(&WalRecord::RegisterView { view: view.clone() })?;
        // Aggregate outputs are ids from this catalog's allocator; a view
        // replayed from the log may carry ids allocated after the snapshot
        // the catalog came from.
        for attr in view.expr.aggregate_outputs() {
            self.catalog.reserve_attr(attr);
        }
        // Unify the view into the session's persistent DAG; the replan
        // below then pays incremental cost (warm-started greedy) instead
        // of rebuilding the DAG and memo from scratch.
        self.optimizer.add_view(&mut self.catalog, &view);
        self.views.push(view);
        self.view_set_dirty = true;
        let trigger = if self.plan.is_none() && self.replans.is_empty() {
            ReoptTrigger::Initial
        } else {
            ReoptTrigger::ViewSetChanged
        };
        self.replan(trigger);
        Ok(&self.plan.as_ref().expect("just planned").report)
    }

    /// Drop a view by name; re-optimizes the remaining set (incremental:
    /// the session garbage-collects the detached subgraph and re-validates
    /// the surviving selection). Logged write-ahead, as `register_view`.
    pub fn drop_view(&mut self, name: &str) -> Result<(), WarehouseError> {
        let pos = self
            .views
            .iter()
            .position(|v| v.name == name)
            .ok_or_else(|| WarehouseError::UnknownView(name.to_string()))?;
        self.wal_append(&WalRecord::DropView {
            name: name.to_string(),
        })?;
        self.views.remove(pos);
        self.optimizer.remove_view(name);
        self.view_set_dirty = true;
        if self.views.is_empty() {
            self.plan = None;
            self.view_set_dirty = false;
        } else {
            self.replan(ReoptTrigger::ViewSetChanged);
        }
        Ok(())
    }

    // ==================================================================
    // Ingest
    // ==================================================================

    /// Accept an arbitrary insert/delete batch for one relation. The batch
    /// is validated up front, encoded and queued; epoch execution maps all
    /// queued batches onto the paper's 2n δ⁺/δ⁻ update numbering (§5.2). A
    /// bad batch — wrong arity, a value not of its column's type, or
    /// deletes exceeding the multiplicity that will exist once queued
    /// inserts land — is rejected whole; the engine state is untouched.
    ///
    /// This is the one place a delta changes representation: each side is
    /// encoded once, in the stored table's layout, consuming the rows
    /// (values move into the columns, and each row is freed as it is
    /// taken). The delete check, the WAL record, the snapshot, every δ
    /// scan of the epoch and the base-delta merge all share those columns.
    pub fn ingest(&mut self, table: TableId, batch: DeltaBatch) -> Result<usize, WarehouseError> {
        self.db.validate_delta(table, &batch)?;
        let schema = self.db.base(table)?.schema().clone();
        let DeltaBatch { inserts, deletes } = batch;
        let inserts = Batch::from_tuples(schema.clone(), inserts);
        let deletes = Batch::from_tuples(schema, deletes);
        self.queue_ingest(table, inserts, deletes)
    }

    /// The columnar half of [`Warehouse::ingest`], shared with recovery's
    /// replay: check the deletes, log the pair write-ahead, queue it. Both
    /// batches are in the stored table's layout.
    fn queue_ingest(
        &mut self,
        table: TableId,
        inserts: Batch,
        deletes: Batch,
    ) -> Result<usize, WarehouseError> {
        let n = inserts.num_rows() + deletes.num_rows();
        if n == 0 {
            return Ok(0);
        }
        self.check_deletes(table, &inserts, &deletes)?;
        // Write-ahead: the batch must be durable before the engine commits
        // it to any in-memory state. An append failure rejects the ingest
        // whole, leaving both the log and the engine unchanged. The record
        // holds handle copies of the two batches.
        if self.durability.is_some() {
            let rec = WalRecord::Ingest {
                epoch: self.epoch + 1,
                table,
                inserts: inserts.clone(),
                deletes: deletes.clone(),
            };
            self.wal_append(&rec)?;
        }
        self.pending.extend(table, inserts, deletes);
        self.ingested_since_plan += n;
        Ok(n)
    }

    /// Every delete must have a matching occurrence among stored rows plus
    /// queued inserts (minus queued deletes), with this batch's inserts
    /// landing before its deletes (§5.2). Base application saturates (it
    /// drops only what exists) while incremental aggregate/distinct
    /// maintenance subtracts unconditionally, so a phantom delete would
    /// silently corrupt maintained views. The batch is not yet committed,
    /// so rejection leaves no trace.
    ///
    /// Each distinct deleted row is first netted against this batch's
    /// inserts and the table's queued pair, all columnar: rows are bucketed
    /// by [`Batch::hash_rows`] and matched by [`Batch::keys_eq`] (NULL
    /// equals NULL, as in `Tuple` equality) — O(|batch| + |queued|). What
    /// is still owed must be found in the stored table, counted in one
    /// call by the delete kernel's own locator (`StoredTable::present`),
    /// so the check and the epoch's delete agree by construction.
    fn check_deletes(
        &self,
        table: TableId,
        inserts: &Batch,
        deletes: &Batch,
    ) -> Result<(), WarehouseError> {
        if deletes.num_rows() == 0 {
            return Ok(());
        }
        let cols: Vec<usize> = (0..deletes.schema().len()).collect();
        // Bucket on the non-string columns when there are any (string
        // hashing dominates wide rows); matches compare every column.
        let hash_cols: Vec<usize> = {
            let attrs = deletes.schema().attrs();
            let cheap: Vec<usize> = cols
                .iter()
                .copied()
                .filter(|&c| attrs[c].data_type != DataType::Str)
                .collect();
            if cheap.is_empty() {
                cols.clone()
            } else {
                cheap
            }
        };
        // Distinct deleted row → (a position holding it, occurrences owed
        // to the stored table), bucketed by hash.
        let mut owed: Vec<(u32, i64)> = Vec::new();
        let mut buckets: U64Map<Vec<usize>> = u64_map_with_capacity(deletes.num_rows());
        for (i, h) in deletes.hash_rows(&hash_cols).into_iter().enumerate() {
            let phys = deletes.physical(i);
            let ids = buckets.entry(h).or_default();
            match ids
                .iter()
                .find(|&&g| deletes.keys_eq(owed[g].0, &cols, deletes, phys, &cols))
            {
                Some(&g) => owed[g].1 += 1,
                None => {
                    ids.push(owed.len());
                    owed.push((phys, 1));
                }
            }
        }
        let mut settle = |side: &Batch, by: i64| {
            for (i, h) in side.hash_rows(&hash_cols).into_iter().enumerate() {
                let Some(ids) = buckets.get(&h) else {
                    continue;
                };
                let phys = side.physical(i);
                if let Some(&g) = ids
                    .iter()
                    .find(|&&g| deletes.keys_eq(owed[g].0, &cols, side, phys, &cols))
                {
                    owed[g].1 -= by;
                }
            }
        };
        settle(inserts, 1);
        if let Some(queued) = self.pending.get(table) {
            settle(&queued.inserts, 1);
            settle(&queued.deletes, -1);
        }
        // One selected position per owed occurrence (a row owed k times
        // repeats its position k times).
        let needed: Vec<u32> = owed
            .into_iter()
            .flat_map(|(pos, n)| std::iter::repeat_n(pos, n.max(0) as usize))
            .collect();
        if needed.is_empty() {
            return Ok(());
        }
        let mut check = deletes.clone();
        check.set_selection(needed);
        if self.db.base(table)?.present(&check) < check.num_rows() {
            return Err(StorageError::PhantomDelete { table }.into());
        }
        Ok(())
    }

    // ==================================================================
    // Epochs
    // ==================================================================

    /// Run one maintenance epoch as a transaction: decide whether drift
    /// justifies re-optimization, execute the (possibly new) shared
    /// maintenance program in place under an undo journal, write the WAL
    /// commit record, and only then drop the journal. The order is the
    /// contract:
    ///
    /// 1. **Journal** — the executor writes the live database and the
    ///    plan's runtime state in place, recording the inverse of every
    ///    write in an undo journal of O(|δ| × width). Executor errors *and
    ///    panics* are caught here.
    /// 2. **Commit** — the `EpochCommit` record is appended (and flushed)
    ///    to the WAL. A crash after this point recovers *into* the epoch;
    ///    a crash before it recovers to the pre-epoch state with the
    ///    epoch's ingests still queued.
    /// 3. **Discard** — the journal is dropped; the remaining bookkeeping
    ///    is infallible.
    ///
    /// Any failure in steps 1–2 — and a panic at the `epoch:post-commit`
    /// crash point between 2 and 3 — **rolls back**: the journal is
    /// replayed newest first, which leaves the engine exactly on its
    /// pre-epoch state. A failure then returns
    /// [`WarehouseError::EpochAborted`]: the engine serves exact pre-epoch
    /// answers, the pending delta queue is intact, and calling `run_epoch`
    /// again retries the same transaction.
    ///
    /// An engine with no views runs the same transaction over a base-only
    /// program — one step per update, each only applying its base delta —
    /// and a throwaway runtime state; it never plans.
    pub fn run_epoch(&mut self) -> Result<EpochReport, WarehouseError> {
        let ingested = self.pending.total_tuples();
        // Replanning happens outside the transaction: it only mutates the
        // optimizer session and catalog statistics, never the data an
        // abort must preserve, and redoing it on retry would be wasted
        // work (the trigger condition would have cleared). With no views
        // there is nothing to plan.
        let replanned = if self.views.is_empty() {
            None
        } else {
            self.replan_trigger()
        };
        if let Some(trigger) = replanned {
            self.replan(trigger);
        }

        // Journal: run the whole epoch in place. The journal and the
        // borrowed state outlive an unwinding panic, so both can roll back.
        // `replan` over a non-empty view set always installs a plan, so
        // only a view-less engine has none.
        let mut journal = Journal::new();
        let mut view_less = None;
        let (program, index_plan, state) = match self.plan.as_mut() {
            Some(plan) => (&plan.report.program, &plan.index_plan, &mut plan.state),
            None => {
                let (program, index_plan, state) = view_less.insert((
                    base_only_program(&self.pending),
                    IndexPlan::default(),
                    RuntimeState::new(),
                ));
                (&*program, &*index_plan, state)
            }
        };
        let (dag, db) = (self.optimizer.dag(), &mut self.db);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            execute_epoch_faults(
                dag,
                &self.catalog,
                CostModel::default(),
                db,
                &self.pending,
                program,
                index_plan,
                state,
                // The engine serves reads from the maintained columnar
                // state, so epochs skip the end-of-cycle row collection.
                ExecOptions {
                    collect_view_rows: false,
                    ..ExecOptions::default()
                },
                &self.faults,
                &mut journal,
            )
        }));
        let exec = match caught {
            Ok(Ok(exec)) => exec,
            Ok(Err(e)) => {
                self.roll_back(journal);
                return Err(self.abort_epoch(e.site(), e.to_string()));
            }
            Err(payload) => {
                // A panicking operator (injected or real) unwinds only to
                // here; the journal takes back whatever it half-did.
                let cause = panic_message(payload.as_ref());
                let site = self
                    .faults
                    .fired()
                    .map(|f| f.site)
                    .unwrap_or_else(|| "exec:panic".to_string());
                self.roll_back(journal);
                return Err(self.abort_epoch(site, cause));
            }
        };

        // Commit: the durable record decides the epoch.
        if let Err(e) = self.commit_epoch_wal() {
            self.roll_back(journal);
            return Err(self.abort_epoch("wal:commit", e.to_string()));
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.post_commit_crash_point())) {
            self.roll_back(journal);
            resume_unwind(payload);
        }

        // Discard: the writes stand; from here on, nothing can fail.
        drop(journal);
        let estimated_cost = match self.plan.as_mut() {
            Some(plan) => {
                plan.epochs_run += 1;
                plan.report.total_cost
            }
            None => 0.0,
        };
        let report = EpochReport {
            epoch: self.epoch + 1,
            replanned,
            estimated_cost,
            executed_seconds: exec.maintenance_seconds,
            setup_seconds: exec.setup_seconds,
            setup_builds: exec.setup_builds,
            total_builds: exec.total_builds,
            ingested_tuples: ingested,
            forced_recomputes: exec.forced_recomputes,
        };
        self.finish_epoch(report.clone());
        Ok(report)
    }

    /// Replay an aborted epoch's journal: the database and the plan's
    /// runtime state return exactly to their pre-epoch contents. A
    /// view-less epoch's state was a throwaway, so only the database
    /// needs its writes back.
    fn roll_back(&mut self, journal: Journal) {
        let mut scratch = RuntimeState::new();
        let state = match self.plan.as_mut() {
            Some(plan) => &mut plan.state,
            None => &mut scratch,
        };
        journal.rollback(&mut self.db, state);
    }

    /// Record a pre-commit abort and build the typed error. The caller has
    /// already rolled the epoch's writes back; live state and the pending
    /// queue are as before, so the same epoch can simply be retried.
    fn abort_epoch(&mut self, site: impl Into<String>, cause: String) -> WarehouseError {
        let (epoch, site) = (self.epoch + 1, site.into());
        self.epochs_aborted += 1;
        self.last_abort = Some(AbortInfo {
            epoch,
            site: site.clone(),
            cause: cause.clone(),
        });
        WarehouseError::EpochAborted { epoch, site, cause }
    }

    /// Crossed between the durable WAL commit and discarding the journal.
    /// Past the commit point there is no clean abort left — an injected
    /// fault here models process death, so it always escalates to a panic
    /// (after the caller rolls the in-memory state back to the pre-epoch
    /// state, as a dead process would have lost it), and recovery must
    /// land *on* the committed epoch.
    fn post_commit_crash_point(&self) {
        if let Err(f) = self.faults.hit("epoch:post-commit") {
            panic!("injected crash after WAL commit: {f}");
        }
    }

    /// Bookkeeping common to every epoch: observed-rate EMA (tables absent
    /// from this epoch decay toward zero rather than pinning their last
    /// rate forever), clearing the queue, history.
    fn finish_epoch(&mut self, report: EpochReport) {
        let present: BTreeSet<TableId> = self.pending.tables().collect();
        for (t, entry) in self.observed.iter_mut() {
            if !present.contains(t) {
                entry.0 *= 0.5;
                entry.1 *= 0.5;
            }
        }
        for (t, queued) in self.pending.iter() {
            let ins = queued.inserts.num_rows() as f64;
            let del = queued.deletes.num_rows() as f64;
            let entry = self.observed.entry(t).or_insert((ins, del));
            entry.0 = 0.5 * entry.0 + 0.5 * ins;
            entry.1 = 0.5 * entry.1 + 0.5 * del;
        }
        self.observed.retain(|_, (i, d)| *i >= 0.25 || *d >= 0.25);
        self.pending = DeltaQueue::new();
        self.epoch += 1;
        self.history.push(report);
    }

    /// Does current drift justify re-optimization?
    fn replan_trigger(&self) -> Option<ReoptTrigger> {
        if self.plan.is_none() {
            return Some(ReoptTrigger::Initial);
        }
        if self.view_set_dirty {
            return Some(ReoptTrigger::ViewSetChanged);
        }
        if let Some(t) = self
            .policy
            .delta_drift(self.ingested_since_plan as f64, self.base_rows())
        {
            return Some(t);
        }
        // The plan must propagate every pending delta; otherwise executing
        // it would drop deltas on the floor (see `plan_covers_pending`).
        if !self.plan_covers_pending() {
            return Some(ReoptTrigger::UpdateShapeChanged);
        }
        if let (Some(plan), Some(last)) = (self.plan.as_ref(), self.history.last()) {
            if plan.epochs_run > 0 {
                if let Some(t) = self
                    .policy
                    .cost_drift(last.executed_seconds, last.estimated_cost)
                {
                    return Some(t);
                }
            }
        }
        None
    }

    /// Does the current program propagate every pending delta? It needs a
    /// step for every pending relation, or the base delta is never
    /// applied. And a pending side that a view reads must have been
    /// planned as non-empty: the planner drops the merges of a step whose
    /// estimated differentials are empty, so a side planned with zero rows
    /// would reach the base table but none of the views over it.
    fn plan_covers_pending(&self) -> bool {
        let Some(plan) = self.plan.as_ref() else {
            return false;
        };
        let steps = &plan.report.program.steps;
        let read = |t: TableId| self.views.iter().any(|v| v.expr.base_tables().contains(&t));
        self.pending.iter().all(|(t, queued)| {
            let planned = |kind: DeltaKind| {
                let step = steps
                    .iter()
                    .find(|s| s.update.table == t && s.update.kind == kind);
                step.map(|s| s.update.rows > 0.0)
            };
            [DeltaKind::Insert, DeltaKind::Delete]
                .into_iter()
                .all(|kind| match planned(kind) {
                    None => false,
                    Some(non_empty) => non_empty || queued.side(kind).num_rows() == 0 || !read(t),
                })
        })
    }

    /// Re-run the MQO selection over the whole current view set, with
    /// catalog statistics refreshed from the live database and an update
    /// model estimated from the pending batch (or the observed per-epoch
    /// rates when the queue is empty).
    ///
    /// Runs against the persistent optimizer session: only the first plan
    /// is a cold build; view churn and statistics drift pay incremental
    /// cost (dirty-bit property refresh + warm-started greedy). Runtime
    /// state of results that remain maintained under the new plan is
    /// carried over — node ids are stable — so a replan does not force
    /// every materialization to be rebuilt at the next epoch.
    fn replan(&mut self, trigger: ReoptTrigger) {
        let start = Instant::now();
        // Statistics drift: fold live row counts back into the catalog.
        let live: Vec<(TableId, f64)> = self
            .catalog
            .tables()
            .iter()
            .map(|t| t.id)
            .filter(|id| self.db.has_base(*id))
            .map(|id| (id, self.db.live_stats(&self.catalog, id).rows))
            .collect();
        for (id, rows) in live {
            self.catalog.set_row_count(id, rows);
        }

        let initial_indices = self.pk_indices();
        self.optimizer.set_update_model(self.update_model());
        self.optimizer.set_initial_indices(initial_indices.clone());
        let outcome = self.optimizer.plan(&mut self.catalog);
        let index_plan = index_plan_from_report(&initial_indices, &outcome.report);

        // Materializations that stayed fresh under the old plan and are
        // still maintained by the new one survive the replan.
        let mut state = self.plan.take().map(|p| p.state).unwrap_or_default();
        let keep: HashSet<EqId> = outcome
            .report
            .program
            .permanent_mats
            .iter()
            .chain(outcome.report.program.views.iter().map(|(_, e)| e))
            .copied()
            .filter(|e| state.is_fresh(*e))
            .collect();
        state.retain_mats(&keep);

        self.plan = Some(PlanState {
            report: outcome.report,
            index_plan,
            state,
            epochs_run: 0,
        });
        self.ingested_since_plan = 0;
        self.view_set_dirty = false;
        self.replans.push(ReplanRecord {
            epoch: self.epoch,
            trigger,
            mode: outcome.mode,
            elapsed: start.elapsed(),
        });
    }

    /// Primary-key indices over every table the current views reference —
    /// the paper's §7.1 default physical design.
    fn pk_indices(&self) -> Vec<(TableId, AttrId)> {
        mvmqo_core::api::pk_indices_for(&self.catalog, &self.views)
    }

    /// Per-table (inserts, deletes) estimate for the next cycles: pending
    /// batch sizes where available, otherwise the observed EMA.
    fn update_model(&self) -> UpdateModel {
        let mut per_table: BTreeMap<TableId, (f64, f64)> = self.observed.clone();
        for (t, q) in self.pending.iter() {
            let sizes = (q.inserts.num_rows() as f64, q.deletes.num_rows() as f64);
            per_table.insert(t, sizes);
        }
        UpdateModel::new(per_table.into_iter().map(|(t, (i, d))| (t, i, d)))
    }

    fn base_rows(&self) -> f64 {
        self.catalog
            .tables()
            .iter()
            .filter(|t| self.db.has_base(t.id))
            .map(|t| self.db.base(t.id).map_or(0, |s| s.len()) as f64)
            .sum()
    }

    // ==================================================================
    // Durability
    // ==================================================================

    /// Turn durability on: take an initial snapshot of the whole engine in
    /// `dir` and open a fresh WAL segment; from here every accepted ingest
    /// is logged write-ahead and every epoch appends a commit record. If
    /// the directory already holds durable state, a new segment pair is
    /// started after it (the manifest flip is the commit point). Returns
    /// the snapshot path.
    pub fn enable_wal(&mut self, dir: impl AsRef<Path>) -> Result<PathBuf, WarehouseError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| WarehouseError::Durability(format!("creating {}: {e}", dir.display())))?;
        let seq = match Manifest::load(&dir) {
            Ok(m) => m.wal_seq + 1,
            Err(RecoveryError::MissingManifest(_)) => 0,
            Err(e) => return Err(e.into()),
        };
        self.checkpoint(dir, seq)
    }

    /// Take a new snapshot and truncate the WAL: writes a fresh
    /// snapshot/WAL segment pair and flips the manifest to it, making the
    /// old segment pair dead (it is pruned). Requires [`Warehouse::enable_wal`]
    /// first. Returns the snapshot path.
    pub fn save(&mut self) -> Result<PathBuf, WarehouseError> {
        let d = self
            .durability
            .as_ref()
            .ok_or(WarehouseError::DurabilityDisabled)?;
        let (dir, seq) = (d.dir.clone(), d.wal_seq + 1);
        self.checkpoint(dir, seq)
    }

    /// Write snapshot `seq`, open WAL segment `seq`, flip the manifest,
    /// prune superseded segments, and attach the new segment as the live
    /// durability state.
    fn checkpoint(&mut self, dir: PathBuf, seq: u64) -> Result<PathBuf, WarehouseError> {
        // Crossed before anything is captured or written: an injected
        // snapshot failure leaves both the engine and the directory's
        // previous segment pair untouched.
        self.faults
            .hit("snapshot:write")
            .map_err(|f| WarehouseError::Durability(f.to_string()))?;
        let data = self.snapshot_data();
        let snap_name = format!("snapshot-{seq}.img");
        let wal_name = format!("wal-{seq}.log");
        let snap_path = dir.join(&snap_name);
        let buf = self
            .durability
            .as_mut()
            .map(|d| std::mem::take(&mut d.snapshot_buf))
            .unwrap_or_default();
        let body = data.encode(buf);
        drop(data);
        snapshot::write_framed_atomic(&snap_path, snapshot::SNAPSHOT_MAGIC, &body)
            .map_err(|e| WarehouseError::Durability(format!("writing snapshot: {e}")))?;
        let wal = WalWriter::create(&dir.join(&wal_name))
            .map_err(|e| WarehouseError::Durability(format!("creating WAL segment: {e}")))?;
        // The manifest flip is the commit point: a crash before this line
        // recovers from the previous segment pair, a crash after it from
        // the new one. Either is a consistent engine.
        Manifest {
            snapshot_epoch: self.epoch,
            snapshot_file: snap_name,
            wal_file: wal_name,
            wal_seq: seq,
        }
        .store(&dir)
        .map_err(|e| WarehouseError::Durability(format!("writing manifest: {e}")))?;
        prune_segments(&dir, seq);
        self.durability = Some(Durability {
            dir,
            wal,
            wal_seq: seq,
            snapshot_epoch: self.epoch,
            snapshot_buf: body,
        });
        Ok(snap_path)
    }

    /// Capture the full engine image at the current epoch.
    fn snapshot_data(&self) -> SnapshotData {
        let base_tables: Vec<_> = self
            .catalog
            .tables()
            .iter()
            .map(|t| t.id)
            .filter_map(|id| self.db.base(id).ok().map(|t| (id, t.clone())))
            .collect();
        let observed = self
            .observed
            .iter()
            .map(|(t, (ins, del))| (*t, *ins, *del))
            .collect();
        // The queue is columnar already: the image takes handle copies.
        let pending = self
            .pending
            .iter()
            .map(|(t, q)| (t, q.inserts.clone(), q.deletes.clone()))
            .collect();
        let mut view_mats = Vec::new();
        if let Some(plan) = self.plan.as_ref() {
            for (name, root) in &plan.report.program.views {
                let Some((_, table)) = plan.state.mats().find(|(e, _)| e == root) else {
                    continue;
                };
                view_mats.push(ViewMatImage {
                    name: name.clone(),
                    fresh: plan.state.is_fresh(*root),
                    table: table.clone(),
                    agg: plan.state.agg_state(*root).cloned(),
                    distinct: plan.state.distinct_state(*root).cloned(),
                });
            }
        }
        SnapshotData {
            epoch: self.epoch,
            ingested_since_plan: self.ingested_since_plan as u64,
            policy: self.policy,
            catalog: self.catalog.clone(),
            views: self.views.clone(),
            base_tables,
            observed,
            pending,
            view_mats,
            selection: self.mat_set(),
        }
    }

    fn wal_append(&mut self, rec: &WalRecord) -> Result<(), WarehouseError> {
        if self.durability.is_some() {
            self.faults
                .hit("wal:append")
                .map_err(|f| WarehouseError::Durability(f.to_string()))?;
        }
        if let Some(d) = self.durability.as_mut() {
            d.wal
                .append(rec)
                .map_err(|e| WarehouseError::Durability(format!("WAL append: {e}")))?;
        }
        Ok(())
    }

    /// Append the epoch-commit record that makes the epoch's ingests
    /// replayable as one atomic refresh. Called *before* the staged state
    /// is installed — the durable record is the transaction's commit
    /// point — so it logs the epoch the engine is about to enter.
    fn commit_epoch_wal(&mut self) -> Result<(), WarehouseError> {
        self.faults
            .hit("wal:commit")
            .map_err(|f| WarehouseError::Durability(f.to_string()))?;
        let epoch = self.epoch + 1;
        self.wal_append(&WalRecord::EpochCommit { epoch })
    }

    /// Rebuild a warehouse from the durable state in `dir`: load the
    /// manifest's snapshot, re-register the persisted views in order
    /// against the rebuilt optimizer session (warm memo — post-recovery
    /// replans run incrementally), re-install each view's root
    /// materialization with its hidden aggregate/distinct support state,
    /// then replay the WAL tail through the ordinary ingest, epoch and
    /// view-DDL calls, in log order.
    /// A torn or corrupt WAL tail is absorbed by prefix recovery; the
    /// engine resumes logging at the end of the surviving prefix. A record
    /// whose CRC matches but whose payload does not decode (a column that
    /// does not hold its attribute's type, say) is no torn tail, and is
    /// a [`RecoveryError::Corrupt`] rather than a silent truncation.
    pub fn recover(dir: impl AsRef<Path>) -> Result<Warehouse, WarehouseError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = Manifest::load(&dir)?;
        let snap_path = dir.join(&manifest.snapshot_file);
        let body = snapshot::read_framed(&snap_path, snapshot::SNAPSHOT_MAGIC)?;
        let corrupt = |why: String| RecoveryError::Corrupt {
            file: snap_path.display().to_string(),
            why,
        };
        let data = SnapshotData::decode(&body).map_err(|e| corrupt(e.to_string()))?;
        if data.epoch != manifest.snapshot_epoch {
            return Err(RecoveryError::Inconsistent(format!(
                "snapshot is at epoch {} but manifest says {}",
                data.epoch, manifest.snapshot_epoch
            ))
            .into());
        }

        let mut db = Database::new();
        for (t, table) in data.base_tables {
            db.put_base(t, table);
        }
        // The policy comes back before anything replans, so the WAL tail
        // replays the drift replans the live engine ran.
        let mut wh = Warehouse::new(data.catalog, db).with_policy(data.policy);
        wh.epoch = data.epoch;
        // Re-register views in their original order: the DAG unifies the
        // same way it did in the old session, and the memo is warm for
        // every plan after the first.
        for view in &data.views {
            wh.register_view(view.clone())?;
        }
        let selection_match = wh.mat_set() == data.selection;

        // Re-install persisted root materializations. Keyed by view name —
        // node ids are not stable across sessions — and guarded by a
        // schema check: a root whose derived schema came out differently
        // is skipped and rebuilds at the next epoch's setup. A support
        // state holding a value its view's columns cannot take is corrupt.
        {
            let Warehouse {
                plan, optimizer, ..
            } = &mut wh;
            if let Some(plan) = plan.as_mut() {
                for m in data.view_mats {
                    let Some(root) = mvmqo_exec::view_root(&plan.report.program, &m.name) else {
                        continue;
                    };
                    if &optimizer.dag().eq(root).schema != m.table.schema() {
                        continue;
                    }
                    if let Some(st) = &m.agg {
                        check_agg_state(st, m.table.schema()).map_err(corrupt)?;
                    }
                    if let Some(st) = &m.distinct {
                        check_distinct_state(st, m.table.schema()).map_err(corrupt)?;
                    }
                    plan.state.install_mat(root, m.table, m.fresh);
                    if let Some(st) = m.agg {
                        plan.state.install_agg_state(root, st);
                    }
                    if let Some(st) = m.distinct {
                        plan.state.install_distinct_state(root, st);
                    }
                }
            }
        }

        wh.observed = data
            .observed
            .into_iter()
            .map(|(t, ins, del)| (t, (ins, del)))
            .collect();
        // Restore the queued-but-unapplied deltas: they are in the WAL of
        // the segment *before* the snapshot's truncation point — the
        // snapshot carries them so nothing is lost. They are columnar
        // already, and take the ingest door's columnar path (schema check,
        // delete check, queue), since a CRC-valid snapshot can still carry
        // a batch its table cannot hold.
        for (t, inserts, deletes) in data.pending {
            wh.replay_ingest(t, inserts, deletes)
                .map_err(|e| corrupt(e.to_string()))?;
        }
        wh.ingested_since_plan = data.ingested_since_plan as usize;

        // Replay the WAL tail through the ordinary ingest/epoch path.
        // Durability is still detached, so replay does not re-log itself.
        let wal_path = dir.join(&manifest.wal_file);
        let scan = scan_wal(&wal_path)?;
        if let WalStop::BadRecord { .. } = scan.stop {
            return Err(RecoveryError::Corrupt {
                file: wal_path.display().to_string(),
                why: scan.stop.to_string(),
            }
            .into());
        }
        let replayed = scan.records.len();
        for rec in scan.records {
            match rec {
                WalRecord::Ingest {
                    epoch,
                    table,
                    inserts,
                    deletes,
                } => {
                    if epoch != wh.epoch + 1 {
                        return Err(RecoveryError::Inconsistent(format!(
                            "WAL ingest for epoch {epoch} arrived at engine epoch {}",
                            wh.epoch
                        ))
                        .into());
                    }
                    wh.replay_ingest(table, inserts, deletes)?;
                }
                WalRecord::EpochCommit { epoch } => {
                    let report = wh.run_epoch()?;
                    if report.epoch != epoch {
                        return Err(RecoveryError::Inconsistent(format!(
                            "replay reached epoch {} but the log committed epoch {epoch}",
                            report.epoch
                        ))
                        .into());
                    }
                }
                WalRecord::RegisterView { view } => {
                    wh.register_view(view)?;
                }
                WalRecord::DropView { name } => wh.drop_view(&name)?,
            }
        }

        // Resume logging at the end of the surviving prefix (drops any
        // torn tail bytes past it).
        let wal = WalWriter::open_append(&wal_path, scan.valid_bytes)
            .map_err(|e| WarehouseError::Durability(format!("reopening WAL: {e}")))?;
        wh.recovered = Some(RecoveryInfo {
            snapshot_epoch: manifest.snapshot_epoch,
            recovered_epoch: wh.epoch,
            replayed_records: replayed,
            clean_wal: scan.stop.is_clean(),
            wal_stop: scan.stop.to_string(),
            selection_match,
        });
        wh.durability = Some(Durability {
            dir,
            wal,
            wal_seq: manifest.wal_seq,
            snapshot_epoch: manifest.snapshot_epoch,
            snapshot_buf: body,
        });
        Ok(wh)
    }

    /// Queue a recovered pair of decoded batches through the ingest
    /// door's columnar path: each must fit its table's schema
    /// ([`Database::conform_batch`]), then it is checked and queued like
    /// any ingest, with no row round trip.
    fn replay_ingest(
        &mut self,
        table: TableId,
        inserts: Batch,
        deletes: Batch,
    ) -> Result<usize, WarehouseError> {
        let inserts = self.db.conform_batch(table, inserts)?;
        let deletes = self.db.conform_batch(table, deletes)?;
        self.queue_ingest(table, inserts, deletes)
    }

    /// True once `enable_wal` ran (or the engine was built by `recover`).
    pub fn durability_enabled(&self) -> bool {
        self.durability.is_some()
    }

    /// How this engine came back from durable state, if it did.
    pub fn recovery_info(&self) -> Option<&RecoveryInfo> {
        self.recovered.as_ref()
    }

    /// One-line durability status (also part of `explain`).
    pub fn durability_status(&self) -> String {
        match self.durability.as_ref() {
            None => "durability: off".to_string(),
            Some(d) => format!(
                "durability: {} segment {} (snapshot at epoch {}, {} WAL records / {} bytes since)",
                d.dir.display(),
                d.wal_seq,
                d.snapshot_epoch,
                d.wal.records_appended(),
                d.wal.bytes_written(),
            ),
        }
    }

    // ==================================================================
    // Queries
    // ==================================================================

    /// Serve a view's current contents as a columnar batch in its declared
    /// column order. Reads come from the maintained materialization when
    /// one exists (and are flagged stale if deltas have been ingested since
    /// the last epoch); otherwise — before the first epoch, or for a view a
    /// replan just added — the batch executor recomputes the view from the
    /// current base tables.
    pub fn answer(&self, name: &str) -> Result<Answer, WarehouseError> {
        let view = self.view(name)?;
        let stale = !self.pending.is_empty();
        let declared = view.expr.schema(&self.catalog);
        if let Some(stored) = self.stored_image(view) {
            return Ok(Answer {
                batch: stored.align(&declared),
                stale,
                from_materialization: true,
            });
        }
        Ok(Answer {
            batch: self.recompute(view)?.align(&declared),
            stale,
            from_materialization: false,
        })
    }

    /// [`Warehouse::answer`] as rows.
    pub fn query(&self, name: &str) -> Result<QueryResult, WarehouseError> {
        let answer = self.answer(name)?;
        Ok(QueryResult {
            rows: answer.batch.to_rows(),
            stale: answer.stale,
            from_materialization: answer.from_materialization,
        })
    }

    /// Consistency check: the maintained materialization must equal
    /// recomputation from the current base tables, as multisets (float
    /// cells within a relative 1e-9). Trivially true when nothing is
    /// materialized yet. With ingested-but-unapplied deltas the check is
    /// skipped (the materialization legitimately lags).
    pub fn verify(&self, name: &str) -> Result<bool, WarehouseError> {
        let view = self.view(name)?;
        if !self.pending.is_empty() {
            return Ok(true);
        }
        let Some(stored) = self.stored_image(view) else {
            return Ok(true);
        };
        let expected = self.recompute(view)?.align(stored.schema());
        // Exactly equal bags (the usual outcome) are confirmed columnar,
        // by the executor's own bag-difference kernel; anything else —
        // float sums that differ in their last bits included — is
        // compared as rows with the tolerance.
        if stored.num_rows() == expected.num_rows() && expected.minus_positions(&stored).is_empty()
        {
            return Ok(true);
        }
        Ok(bag_eq_approx(&stored.to_rows(), &expected.to_rows(), 1e-9))
    }

    fn view(&self, name: &str) -> Result<&ViewDef, WarehouseError> {
        self.views
            .iter()
            .find(|v| v.name == name)
            .ok_or_else(|| WarehouseError::UnknownView(name.to_string()))
    }

    /// A view's maintained materialization, in the view root's canonical
    /// column order (a handle clone of the stored columns). `None` when the
    /// view has no current materialization.
    fn stored_image(&self, view: &ViewDef) -> Option<Batch> {
        let plan = self.plan.as_ref()?;
        let root = view_root(&plan.report.program, &view.name)?;
        Some(plan.state.mat(root)?.batch().clone())
    }

    /// Recompute a view from the current base tables with the batch
    /// executor: the installed program's full plan for the view's root,
    /// in the root's canonical column order, with every stored result it
    /// reads materialized from its own full plan first. It runs on an
    /// empty runtime state and a copy-on-write clone of the database, with
    /// the inert fault registry and a throwaway journal, so a read leaves
    /// the engine exactly as it found it: no index is built on a live
    /// table, no fault fires, and nothing reaches the epoch history or the
    /// drift trigger.
    fn recompute(&self, view: &ViewDef) -> Result<Batch, WarehouseError> {
        let missing = || ExecError::invariant(format!("view {} has no planned root", view.name));
        let plan = self.plan.as_ref().ok_or_else(missing)?;
        let program = &plan.report.program;
        let root = view_root(program, &view.name).ok_or_else(missing)?;
        let full = program.full_plans.get(&root).ok_or_else(missing)?;
        let (mut db, mut state, mut journal) =
            (self.db.clone(), RuntimeState::new(), Journal::new());
        let no_deltas = DeltaQueue::new();
        let mut rt = Runtime::with_state(
            self.optimizer.dag(),
            &self.catalog,
            CostModel::default(),
            &mut db,
            &no_deltas,
            program.full_plans.clone(),
            HashMap::new(),
            &mut state,
            &mut journal,
        );
        Ok(rt.eval_batch(full)?)
    }

    /// Human-readable description of the current plan and policy state.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "epoch {}  views {}  pending tuples {}  replans {}\n",
            self.epoch,
            self.views.len(),
            self.pending.total_tuples(),
            self.replans.len()
        ));
        match self.plan.as_ref() {
            None => out.push_str("no plan (no views registered)\n"),
            Some(plan) => {
                let r = &plan.report;
                out.push_str(&format!(
                    "estimated cycle cost {:.2}s (NoGreedy baseline {:.2}s), planned in {:?}\n",
                    r.total_cost, r.nogreedy_cost, r.optimization_time
                ));
                let phases: Vec<String> = r
                    .phases
                    .spans()
                    .iter()
                    .map(|(name, d)| format!("{name} {d:?}"))
                    .collect();
                out.push_str(&format!("plan phases: {}\n", phases.join(", ")));
                out.push_str(&format!(
                    "epochs under this plan: {}, persisted results: {} ({} tuples)\n",
                    plan.epochs_run,
                    plan.state.mat_count(),
                    plan.state.total_tuples()
                ));
                for m in &r.chosen_mats {
                    out.push_str(&format!(
                        "  mat [{}] {} ({:?}, benefit {:.2})\n",
                        if m.permanent { "perm" } else { "temp" },
                        m.description,
                        m.strategy,
                        m.benefit
                    ));
                }
                for i in &r.chosen_indices {
                    out.push_str(&format!(
                        "  idx [{}] {:?} on {} (benefit {:.2})\n",
                        if i.permanent { "perm" } else { "temp" },
                        i.target,
                        i.attr,
                        i.benefit
                    ));
                }
                for (name, strategy, cost) in &r.view_strategies {
                    out.push_str(&format!("  view {name}: {strategy:?} ({cost:.2}s)\n"));
                }
            }
        }
        if let Some(rec) = self.replans.last() {
            out.push_str(&format!(
                "last re-optimization at epoch {}: {} ({} plan, {:?})\n",
                rec.epoch, rec.trigger, rec.mode, rec.elapsed
            ));
        }
        // Cold-vs-incremental replan time: the measurable payoff of the
        // re-entrant optimizer session.
        let last_cold = self.replans.iter().rev().find(|r| r.mode == PlanMode::Cold);
        let last_incr = self
            .replans
            .iter()
            .rev()
            .find(|r| r.mode == PlanMode::Incremental);
        if let (Some(c), Some(i)) = (last_cold, last_incr) {
            let speedup = if i.elapsed.as_secs_f64() > 0.0 {
                c.elapsed.as_secs_f64() / i.elapsed.as_secs_f64()
            } else {
                f64::INFINITY
            };
            out.push_str(&format!(
                "replan time: cold {:?}, incremental {:?} ({speedup:.1}x)\n",
                c.elapsed, i.elapsed
            ));
        }
        out.push_str(&self.durability_status());
        out.push('\n');
        if self.epochs_aborted > 0 {
            out.push_str(&format!("epochs aborted: {}\n", self.epochs_aborted));
        }
        if let Some(a) = &self.last_abort {
            out.push_str(&format!(
                "last abort: epoch {} at {} ({}); pre-epoch state retained, retry with `epoch`\n",
                a.epoch, a.site, a.cause
            ));
        }
        if let Some(info) = &self.recovered {
            out.push_str(&format!(
                "recovered: snapshot epoch {} -> epoch {} ({} WAL records replayed, {}; selection {})\n",
                info.snapshot_epoch,
                info.recovered_epoch,
                info.replayed_records,
                info.wal_stop,
                if info.selection_match {
                    "matches the saved session"
                } else {
                    "re-chosen"
                },
            ));
        }
        out
    }

    // ==================================================================
    // Introspection (tests, CLI, benchmarks)
    // ==================================================================

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn views(&self) -> &[ViewDef] {
        &self.views
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Allocate a derived attribute from the engine's catalog (aggregate
    /// outputs of views built by external frontends, e.g. the CLI). Views
    /// must use attribute ids from *this* allocator so they never collide
    /// with ids the optimizer derives internally.
    pub fn fresh_attr(&mut self) -> mvmqo_relalg::schema::AttrId {
        self.catalog.fresh_attr()
    }

    pub fn database(&self) -> &Database {
        &self.db
    }

    pub fn pending_tuples(&self) -> usize {
        self.pending.total_tuples()
    }

    /// The queued (not yet applied) columnar pair for one relation, if
    /// any. Frontends that *generate* batches use this to avoid sampling
    /// deletes or reissuing keys that are already queued.
    pub fn pending_for(&self, table: TableId) -> Option<&QueuedDelta> {
        self.pending.get(table)
    }

    /// Observed per-epoch (inserts, deletes) rates — the EMA feeding the
    /// update model at re-plan time. Rates of idle tables decay each epoch.
    pub fn observed_rates(&self) -> &BTreeMap<TableId, (f64, f64)> {
        &self.observed
    }

    pub fn history(&self) -> &[EpochReport] {
        &self.history
    }

    /// The engine-wide fault-injection registry (chaos tests and the
    /// `chaos` script command arm it; it is inert otherwise).
    pub fn faults(&self) -> &FaultRegistry {
        &self.faults
    }

    /// The most recent epoch abort, if any ever happened.
    pub fn last_abort(&self) -> Option<&AbortInfo> {
        self.last_abort.as_ref()
    }

    /// Epochs aborted (each left the engine on its pre-epoch state with
    /// the pending queue intact) over this engine's lifetime.
    pub fn epochs_aborted(&self) -> u64 {
        self.epochs_aborted
    }

    /// Every re-optimization so far: epoch, trigger, cold-vs-incremental
    /// mode, and elapsed planning time.
    pub fn replans(&self) -> &[ReplanRecord] {
        &self.replans
    }

    /// The current optimizer report, if any view is registered.
    pub fn current_report(&self) -> Option<&OptimizerReport> {
        self.plan.as_ref().map(|p| &p.report)
    }

    /// The persistent optimizer session's DAG (program node ids resolve
    /// here).
    pub fn dag(&self) -> &mvmqo_core::Dag {
        self.optimizer.dag()
    }

    /// Sorted descriptions of the currently selected set `X` — the extra
    /// materializations and indices the greedy phase chose (§6 keeps both
    /// kinds of candidate in one set). This is the quantity adaptive
    /// re-optimization changes.
    pub fn mat_set(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(r) = self.current_report() {
            out.extend(r.chosen_mats.iter().map(|m| m.description.clone()));
            out.extend(
                r.chosen_indices
                    .iter()
                    .map(|i| format!("index on {:?}.{}", i.target, i.attr)),
            );
        }
        out.sort();
        out
    }
}

/// The program of an epoch with no views (§3.2.2 with nothing to
/// maintain): one step per update of the pending batch sizes, in the
/// paper's numbering order, each only applying its base delta.
fn base_only_program(pending: &DeltaQueue) -> Program {
    let sizes = pending.iter().map(|(t, q)| {
        let (ins, del) = (q.inserts.num_rows(), q.deletes.num_rows());
        (t, ins as f64, del as f64)
    });
    Program {
        steps: UpdateModel::new(sizes)
            .steps()
            .iter()
            .map(|update| StepProgram {
                update: update.clone(),
                temp_deltas: Vec::new(),
                merges: Vec::new(),
            })
            .collect(),
        ..Program::default()
    }
}

/// Remove snapshot/WAL segments older than `keep_seq` — everything before
/// the manifest's truncation point is unreachable by recovery. Best-effort:
/// a prune failure never fails the checkpoint that made the files dead.
fn prune_segments(dir: &Path, keep_seq: u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let seq = name
            .strip_prefix("snapshot-")
            .and_then(|r| r.strip_suffix(".img"))
            .or_else(|| {
                name.strip_prefix("wal-")
                    .and_then(|r| r.strip_suffix(".log"))
            })
            .and_then(|n| n.parse::<u64>().ok());
        if let Some(seq) = seq {
            if seq < keep_seq {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_storage::faults::{FaultMode, FaultPlan};
    use mvmqo_storage::table::StoredTable;
    use mvmqo_tpcd::{five_join_views, generate_database, generate_updates, tpcd_catalog, Tpcd};

    const SF: f64 = 0.001;

    /// An engine over a small TPC-D instance with three of the join views
    /// registered (planned, no epoch run yet), plus the generator handles.
    fn engine() -> (Warehouse, Tpcd) {
        let tpcd = tpcd_catalog(SF);
        let mut wh = Warehouse::new(tpcd_catalog(SF).catalog, generate_database(&tpcd, 1));
        for v in five_join_views(&tpcd).into_iter().take(3) {
            wh.register_view(v).unwrap();
        }
        (wh, tpcd)
    }

    fn ingest_updates(wh: &mut Warehouse, tpcd: &Tpcd, seed: u64) {
        let deltas = generate_updates(tpcd, wh.database(), 5.0, seed).unwrap();
        for t in deltas.tables().collect::<Vec<_>>() {
            wh.ingest(t, deltas.get(t).unwrap().clone()).unwrap();
        }
    }

    fn names(wh: &Warehouse) -> Vec<String> {
        wh.views().iter().map(|v| v.name.clone()).collect()
    }

    /// The indexed attributes of every base table.
    fn base_indices(wh: &Warehouse) -> Vec<(TableId, Vec<AttrId>)> {
        let mut out: Vec<(TableId, Vec<AttrId>)> = wh
            .catalog()
            .tables()
            .iter()
            .map(|t| {
                let table = wh.database().base(t.id).unwrap();
                let mut attrs: Vec<AttrId> = table.indexed_attrs().collect();
                attrs.sort();
                (t.id, attrs)
            })
            .collect();
        out.sort();
        out
    }

    /// Every base table's rows in physical order, with its indexed attributes.
    fn base_images(wh: &Warehouse) -> Vec<(TableId, Vec<Tuple>, Vec<AttrId>)> {
        let mut out: Vec<_> = wh
            .catalog()
            .tables()
            .iter()
            .map(|t| {
                let table = wh.database().base(t.id).unwrap();
                let mut attrs: Vec<AttrId> = table.indexed_attrs().collect();
                attrs.sort();
                (t.id, table.batch().to_rows(), attrs)
            })
            .collect();
        out.sort();
        out
    }

    /// A view-less epoch runs the executor's transaction: a fault after
    /// some (or all) of its base deltas were written rolls them back, and
    /// the queue survives for the retry, which applies it without a replan.
    #[test]
    fn an_aborted_view_less_epoch_leaves_base_tables_and_queue_as_they_were() {
        let tpcd = tpcd_catalog(SF);
        let mut wh = Warehouse::new(tpcd_catalog(SF).catalog, generate_database(&tpcd, 1));
        ingest_updates(&mut wh, &tpcd, 3);
        let queued = |wh: &Warehouse| -> Vec<(TableId, QueuedDelta)> {
            wh.catalog()
                .tables()
                .iter()
                .filter_map(|t| Some((t.id, wh.pending_for(t.id)?.clone())))
                .collect()
        };
        let (tables, queue) = (base_images(&wh), queued(&wh));
        assert!(queue.len() > 1, "the updates touch several tables");
        for fault in [
            FaultPlan::site("exec:apply-base-delta", 3, FaultMode::Error),
            FaultPlan::site("exec:apply-base-delta", 2, FaultMode::Panic),
            FaultPlan::site("wal:commit", 0, FaultMode::Error),
        ] {
            wh.faults().arm(fault.clone());
            let err = wh.run_epoch().unwrap_err();
            assert!(
                matches!(err, WarehouseError::EpochAborted { .. }),
                "{fault:?}: {err}"
            );
            wh.faults().clear();
            assert!(base_images(&wh) == tables, "{fault:?}: base tables");
            assert!(queued(&wh) == queue, "{fault:?}: queue");
            assert_eq!((wh.epoch(), wh.history().len()), (0, 0), "{fault:?}");
        }
        let report = wh.run_epoch().unwrap();
        let queued_tuples: usize = queue.iter().map(|(_, q)| q.num_rows()).sum();
        assert_eq!(report.ingested_tuples, queued_tuples);
        assert_eq!(wh.pending_tuples(), 0);
        assert!(base_images(&wh) != tables, "the retry applied the queue");
        assert!(wh.replans().is_empty(), "a view-less epoch plans nothing");
    }

    /// The snapshot carries the reoptimization policy: an engine built
    /// `with_policy` and recovered replays its WAL tail under the same
    /// thresholds, so the drift replan the live engine ran fires again on
    /// the same ingest.
    #[test]
    fn recover_restores_the_reoptimization_policy() {
        let dir = std::env::temp_dir().join(format!("mvmqo-policy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (wh, tpcd) = engine();
        let policy = ReoptPolicy {
            delta_fraction: 0.05,
            ..ReoptPolicy::default()
        };
        let mut wh = wh.with_policy(policy);
        ingest_updates(&mut wh, &tpcd, 1);
        wh.run_epoch().unwrap();
        wh.enable_wal(&dir).unwrap();
        // About 7.5 % of the base rows: past 0.05, short of the default.
        ingest_updates(&mut wh, &tpcd, 2);
        let report = wh.run_epoch().unwrap();
        assert!(
            matches!(report.replanned, Some(ReoptTrigger::DeltaDrift { .. })),
            "{:?}",
            report.replanned
        );
        let live = *wh.replans().last().unwrap();
        drop(wh);

        let recovered = Warehouse::recover(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(recovered.epoch(), 2);
        let replayed = *recovered.replans().last().unwrap();
        assert_eq!(
            (replayed.epoch, replayed.trigger),
            (live.epoch, live.trigger)
        );
        assert_eq!(recovered.policy.delta_fraction, policy.delta_fraction);
    }

    #[test]
    fn verify_catches_a_stored_image_missing_one_row() {
        let (mut wh, tpcd) = engine();
        ingest_updates(&mut wh, &tpcd, 7);
        wh.run_epoch().unwrap();
        let victim = names(&wh)[0].clone();
        for name in names(&wh) {
            assert!(wh.verify(&name).unwrap(), "{name} before corruption");
        }
        let plan = wh.plan.as_mut().unwrap();
        let root = view_root(&plan.report.program, &victim).unwrap();
        let stored = plan.state.mat(root).unwrap();
        let mut rows = stored.batch().to_rows();
        assert!(!rows.is_empty(), "{victim} must have rows to drop one");
        rows.pop();
        let corrupt = StoredTable::with_rows(stored.schema().clone(), rows);
        plan.state.install_mat(root, corrupt, true);
        assert!(
            !wh.verify(&victim).unwrap(),
            "{victim} missing a row verified"
        );
        for name in names(&wh).into_iter().filter(|n| *n != victim) {
            assert!(
                wh.verify(&name).unwrap(),
                "{name} after corrupting {victim}"
            );
        }
    }

    #[test]
    fn reads_leave_the_engine_unchanged_before_and_after_the_first_epoch() {
        let (mut wh, tpcd) = engine();
        for epoch_run in [false, true] {
            // Everything a read must leave alone.
            let footprint = |wh: &Warehouse| (base_indices(wh), wh.mat_set(), wh.history().len());
            let before = footprint(&wh);
            // Ordinal 0: the first fault site anything crosses fires.
            wh.faults().arm(FaultPlan::ordinal(0, FaultMode::Error));
            for name in names(&wh) {
                let answer = wh.answer(&name).unwrap();
                assert_eq!(answer.from_materialization, epoch_run, "{name}");
                assert!(!answer.stale, "{name}");
                assert_eq!(wh.query(&name).unwrap().rows.len(), answer.batch.num_rows());
                assert!(wh.verify(&name).unwrap(), "{name}");
            }
            assert_eq!(footprint(&wh), before, "epoch run: {epoch_run}");
            assert!(wh.faults().armed(), "a read crossed a fault site");
            assert_eq!(wh.faults().fired(), None);
            // The armed fault is still there for the next epoch.
            ingest_updates(&mut wh, &tpcd, 11);
            let err = wh.run_epoch().unwrap_err();
            assert!(matches!(err, WarehouseError::EpochAborted { .. }), "{err}");
            assert!(wh.faults().fired().is_some());
            wh.faults().clear();
            wh.run_epoch().unwrap();
            assert_eq!(wh.history().len(), before.2 + 1);
        }
    }
}
