//! The shadow pipeline of the traced run: the same seeded inputs replayed
//! through each layer's own public functions, one timed span per call, so a
//! layer's cost is measured at its boundary rather than guessed from the
//! engine's total. It mirrors what `Warehouse` does per cycle — validate,
//! bridge rows to columns, WAL-append, (re)plan, clone-stage, execute, merge
//! base deltas, bridge columns to rows — on its own optimizer session,
//! database, runtime state and WAL file.

use crate::lifecycle::Fatal;
use crate::spec::{Inputs, Spec};
use crate::trace::{Tracer, NO_CYCLE};
use mvmqo_core::api::{pk_indices_for, OptimizerReport};
use mvmqo_core::cost::CostModel;
use mvmqo_core::opt::GreedyOptions;
use mvmqo_core::session::{Optimizer, PlanMode};
use mvmqo_core::{EqId, UpdateModel};
use mvmqo_exec::{
    execute_epoch_opts, index_plan_from_report, ExecOptions, IndexPlan, Meter, RuntimeState,
};
use mvmqo_relalg::catalog::{Catalog, TableId};
use mvmqo_relalg::codec::{decode_batch, encode_batch, Dec, Enc};
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::Batch;
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::DeltaSet;
use mvmqo_storage::index::IndexKind;
use mvmqo_storage::snapshot::{read_framed, write_framed_atomic, SNAPSHOT_MAGIC};
use mvmqo_storage::table::StoredTable;
use mvmqo_storage::wal::{scan_wal, WalRecord, WalWriter};
use std::collections::HashSet;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// Work done, as counts, summed over the epochs of the measured window.
#[derive(Debug, Default)]
pub struct WindowCounts {
    pub meter: Meter,
    pub delta_tuples: u64,
    pub total_builds: u64,
    pub forced_recomputes: u64,
    pub bridge_rows: u64,
}

pub struct Shadow {
    catalog: Catalog,
    optimizer: Optimizer,
    db: Database,
    state: RuntimeState,
    views: Vec<ViewDef>,
    plan: Option<(OptimizerReport, IndexPlan)>,
    wal: WalWriter,
    wal_path: PathBuf,
    epoch: u64,
    /// The workload's scheduling.
    options: ExecOptions,
    /// Per-table (inserts, deletes) of the last batch: the update model
    /// when a replan runs with nothing pending.
    last_model: Vec<(TableId, f64, f64)>,
    /// Counts start accumulating once the window opens.
    pub counting: bool,
    pub window: WindowCounts,
    pub exec_errors: u64,
    pub benefit_evaluations: u64,
    pub full_slot_recomputes: u64,
    pub diff_slot_recomputes: u64,
}

/// What [`Shadow::finish`] measured once, after the window.
pub struct StorageProbe {
    pub codec_bytes: u64,
    pub snapshot_bytes: u64,
    pub wal_records: u64,
    pub wal_bytes: u64,
}

fn scheduling(workers: usize) -> ExecOptions {
    ExecOptions {
        parallel: workers > 1,
        collect_view_rows: false,
        force_parallel: workers > 1,
        threads: workers,
    }
}

impl Shadow {
    pub fn new(spec: &Spec, inputs: &Inputs, dir: &Path) -> Result<Shadow, Fatal> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Fatal(format!("creating {}: {e}", dir.display())))?;
        let wal_path = dir.join("shadow-wal.log");
        let wal = WalWriter::create(&wal_path)
            .map_err(|e| Fatal(format!("creating {}: {e}", wal_path.display())))?;
        Ok(Shadow {
            catalog: inputs.tpcd.catalog.clone(),
            optimizer: Optimizer::default(),
            db: inputs.db.clone(),
            state: RuntimeState::new(),
            views: Vec::new(),
            plan: None,
            wal,
            wal_path,
            epoch: 0,
            options: scheduling(spec.workers),
            last_model: Vec::new(),
            counting: false,
            window: WindowCounts::default(),
            exec_errors: 0,
            benefit_evaluations: 0,
            full_slot_recomputes: 0,
            diff_slot_recomputes: 0,
        })
    }

    pub fn workers(&self) -> usize {
        self.options.resolved_threads()
    }

    pub fn add_view(&mut self, tr: &mut Tracer, cycle: i64, view: ViewDef) {
        tr.time("core.add_view", cycle, || {
            self.optimizer.add_view(&mut self.catalog, &view)
        });
        self.views.push(view);
        self.replan(tr, cycle, None, false);
    }

    pub fn remove_view(&mut self, tr: &mut Tracer, cycle: i64, name: &str) {
        tr.time("core.remove_view", cycle, || {
            self.optimizer.remove_view(name)
        });
        self.views.retain(|v| v.name != name);
        if self.views.is_empty() {
            self.plan = None;
        } else {
            self.replan(tr, cycle, None, false);
        }
    }

    /// The optimizer calls `Warehouse::replan` makes, in its order: fold live
    /// row counts into the catalog, install the update model and PK indices,
    /// plan, keep the materializations the new plan still maintains.
    /// `restat` marks a statistics-drift replan (no view-set change).
    pub fn replan(
        &mut self,
        tr: &mut Tracer,
        cycle: i64,
        pending: Option<&DeltaSet>,
        restat: bool,
    ) {
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
        if let Some(deltas) = pending {
            self.last_model = deltas
                .tables()
                .filter_map(|t| {
                    deltas
                        .get(t)
                        .map(|b| (t, b.inserts.len() as f64, b.deletes.len() as f64))
                })
                .collect();
        }
        let initial = pk_indices_for(&self.catalog, &self.views);
        self.optimizer.set_cost_model(CostModel::default());
        self.optimizer.set_options(GreedyOptions::default());
        self.optimizer
            .set_update_model(UpdateModel::new(self.last_model.iter().copied()));
        self.optimizer.set_initial_indices(initial.clone());
        let (outcome, _) = tr.time_classified(cycle, || {
            let outcome = self.optimizer.plan(&mut self.catalog);
            let name = match (outcome.mode, restat) {
                (PlanMode::Cold, _) => "core.plan_cold",
                (PlanMode::Incremental, true) => "core.plan_restat",
                (PlanMode::Incremental, false) => "core.plan_incremental",
            };
            (outcome, name)
        });
        let report = outcome.report;
        self.benefit_evaluations += report.benefit_evaluations as u64;
        self.full_slot_recomputes += report.full_slot_recomputes;
        self.diff_slot_recomputes += report.diff_slot_recomputes;
        let index_plan = index_plan_from_report(&initial, &report);
        let keep: HashSet<EqId> = report
            .program
            .permanent_mats
            .iter()
            .chain(report.program.views.iter().map(|(_, e)| e))
            .copied()
            .filter(|e| self.state.is_fresh(*e))
            .collect();
        self.state.retain_mats(&keep);
        self.plan = Some((report, index_plan));
    }

    /// What `ingest` does below the engine: validate, bridge rows to
    /// columns, append the WAL record. The shadow always logs, also on a
    /// workload whose engine has the WAL off in the window: the line reports
    /// the layer's cost on these inputs, the interaction table says where
    /// the engine pays it.
    pub fn ingest(&mut self, tr: &mut Tracer, cycle: i64, deltas: &DeltaSet) -> Result<(), Fatal> {
        for table in deltas.tables() {
            let Some(batch) = deltas.get(table) else {
                continue;
            };
            tr.time("storage.validate_delta", cycle, || {
                self.db.validate_delta(table, batch)
            })
            .0
            .map_err(|e| Fatal(format!("shadow validate_delta: {e}")))?;
            let schema = self.catalog.table(table).schema.clone();
            let ((inserts, deletes), _) = tr.time("relalg.from_rows", cycle, || {
                (
                    Batch::from_rows(schema.clone(), &batch.inserts),
                    Batch::from_rows(schema.clone(), &batch.deletes),
                )
            });
            if self.counting {
                self.window.bridge_rows += (inserts.num_rows() + deletes.num_rows()) as u64;
            }
            let rec = WalRecord::Ingest {
                epoch: self.epoch + 1,
                table,
                inserts,
                deletes,
            };
            tr.time("storage.wal_append", cycle, || self.wal.append(&rec))
                .0
                .map_err(|e| Fatal(format!("shadow WAL append: {e}")))?;
        }
        Ok(())
    }

    /// What `run_epoch` does below the engine. `replanned`: the engine
    /// re-optimized at the start of this epoch, so the shadow does too.
    pub fn epoch(
        &mut self,
        tr: &mut Tracer,
        cycle: i64,
        deltas: &DeltaSet,
        replanned: bool,
    ) -> Result<(), Fatal> {
        if replanned || self.plan.is_none() {
            self.replan(tr, cycle, Some(deltas), true);
        }
        let Some((report, index_plan)) = self.plan.as_ref() else {
            return Err(Fatal("shadow epoch without a plan".into()));
        };
        let first = self.epoch == 0;

        // Stage, as the engine does: copy-on-write clones.
        let ((mut db, mut state), _) = tr.time("storage.db_clone", cycle, || {
            (self.db.clone(), self.state.clone())
        });
        let span = if first {
            "exec.setup_epoch"
        } else {
            "exec.execute_epoch"
        };
        // One staged epoch under the given scheduling.
        let (dag, catalog) = (self.optimizer.dag(), &self.catalog);
        let execute = |db: &mut Database, state: &mut RuntimeState, options: ExecOptions| {
            execute_epoch_opts(
                dag,
                catalog,
                CostModel::default(),
                db,
                deltas,
                &report.program,
                index_plan,
                state,
                options,
            )
        };
        let options = self.options;
        let (result, _) = tr.time(span, cycle, || execute(&mut db, &mut state, options));
        let exec = match result {
            Ok(exec) => exec,
            Err(e) => {
                // Keep the pre-epoch state, as the engine's abort does.
                self.exec_errors += 1;
                eprintln!("shadow execute_epoch failed (cycle {cycle}): {e}");
                return Ok(());
            }
        };
        // The same epoch serial and on 2 workers, each on throwaway clones.
        // Whichever runs second is slower (it faults in fresh memory while
        // the first one's result is still held), so the order alternates and
        // the ratio is a geometric mean over an even number of cycles.
        if !first {
            let serial_first = self.epoch.is_multiple_of(2);
            for serial in [serial_first, !serial_first] {
                let (mut db, mut state) = (self.db.clone(), self.state.clone());
                let (span, options) = if serial {
                    ("exec.ratio_serial", scheduling(1))
                } else {
                    ("exec.ratio_parallel", scheduling(2))
                };
                let (run, _) = tr.time(span, cycle, || execute(&mut db, &mut state, options));
                if let Err(e) = run {
                    self.exec_errors += 1;
                    eprintln!("shadow {span} failed (cycle {cycle}): {e}");
                }
            }
        }

        // Base-table delta merges alone, on a clone of the pre-epoch tables.
        let mut merge_db = self.db.clone();
        tr.time("storage.apply_delta", cycle, || merge_db.apply_all(deltas))
            .0
            .map_err(|e| Fatal(format!("shadow apply_all: {e}")))?;
        drop(merge_db);

        let rec = WalRecord::EpochCommit {
            epoch: self.epoch + 1,
        };
        tr.time("storage.wal_commit", cycle, || self.wal.append(&rec))
            .0
            .map_err(|e| Fatal(format!("shadow WAL commit: {e}")))?;

        // Columns to rows, as `query` does for every view.
        let roots: Vec<EqId> = report.program.views.iter().map(|(_, e)| *e).collect();
        state.realize_deferred();
        let (rows, _) = tr.time("relalg.to_rows", cycle, || {
            let mut rows = 0;
            for (e, table) in state.mats() {
                if roots.contains(&e) {
                    rows += black_box(table.batch().to_rows()).len();
                }
            }
            rows
        });

        if self.counting {
            self.window.meter.absorb(&exec.maintenance_meter);
            self.window.delta_tuples += deltas.total_tuples() as u64;
            self.window.total_builds += exec.total_builds as u64;
            self.window.forced_recomputes += exec.forced_recomputes as u64;
            self.window.bridge_rows += rows as u64;
        }
        self.db = db;
        self.state = state;
        self.epoch += 1;
        Ok(())
    }

    /// One-off storage and codec measurements on the post-window database:
    /// encode every base table, write and read the framed image, decode it,
    /// build a PK index from scratch, scan the WAL.
    pub fn finish(
        &mut self,
        tr: &mut Tracer,
        inputs: &Inputs,
        dir: &Path,
    ) -> Result<StorageProbe, Fatal> {
        let tables: Vec<&StoredTable> = inputs
            .tpcd
            .t
            .all()
            .iter()
            .filter_map(|t| self.db.base(*t).ok())
            .collect();
        let (bytes, _) = tr.time("relalg.codec_encode", NO_CYCLE, || {
            let mut enc = Enc::new();
            for t in &tables {
                encode_batch(&mut enc, t.batch());
            }
            enc.into_bytes()
        });
        let path = dir.join("shadow-snapshot.img");
        tr.time("storage.snapshot_write", NO_CYCLE, || {
            write_framed_atomic(&path, SNAPSHOT_MAGIC, &bytes)
        })
        .0
        .map_err(|e| Fatal(format!("shadow snapshot write: {e}")))?;
        let snapshot_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let body = tr
            .time("storage.snapshot_read", NO_CYCLE, || {
                read_framed(&path, SNAPSHOT_MAGIC)
            })
            .0
            .map_err(|e| Fatal(format!("shadow snapshot read: {e}")))?;
        let n = tables.len();
        tr.time("relalg.codec_decode", NO_CYCLE, || {
            let mut dec = Dec::new(&body);
            (0..n)
                .map(|_| decode_batch(&mut dec).map(|b| b.num_rows()))
                .sum::<Result<usize, _>>()
        })
        .0
        .map_err(|e| Fatal(format!("shadow snapshot decode: {e}")))?;

        // The largest relation, re-indexed on its primary key from scratch.
        let li = inputs.tpcd.t.lineitem;
        let pk = self.catalog.table(li).primary_key.first().copied();
        if let (Ok(table), Some(pk)) = (self.db.base(li), pk) {
            let mut scratch = Database::new();
            scratch.put_base(li, StoredTable::from_batch(table.batch().clone()));
            tr.time("storage.index_build", NO_CYCLE, || {
                scratch.create_base_index(li, pk, IndexKind::Hash)
            })
            .0
            .map_err(|e| Fatal(format!("shadow index build: {e}")))?;
        }

        let scan = tr
            .time("storage.wal_scan", NO_CYCLE, || scan_wal(&self.wal_path))
            .0
            .map_err(|e| Fatal(format!("shadow WAL scan: {e}")))?;
        if scan.records.len() as u64 != self.wal.records_appended() {
            return Err(Fatal(format!(
                "shadow WAL scan found {} of {} records",
                scan.records.len(),
                self.wal.records_appended()
            )));
        }
        Ok(StorageProbe {
            codec_bytes: bytes.len() as u64,
            snapshot_bytes,
            wal_records: self.wal.records_appended(),
            wal_bytes: self.wal.bytes_written(),
        })
    }
}
