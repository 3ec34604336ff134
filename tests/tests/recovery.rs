//! Crash-recovery integration tests: the durability subsystem end to end.
//!
//! The headline property is **kill-anywhere recovery**: for a workload whose
//! every ingest and epoch is WAL-logged, crashing at *any* byte offset of
//! the log — record boundaries and torn mid-record writes alike — must
//! recover an engine that is tuple-identical, for every base table and
//! every view, to replaying the surviving record prefix from the snapshot
//! state. A torn write is what a crash leaves behind: a clean prefix of the
//! log, then nothing — so each crash is the WAL truncated at that byte.
//!
//! Alongside it: corruption tests (bit flips, zero-filled pages, truncated
//! or corrupt snapshots) that must end in clean prefix recovery or a typed
//! error — never a panic — and the warm-replan property: an engine built by
//! `recover` re-plans incrementally against its rebuilt memo, not from a
//! cold start.

use mvmqo_exec::AggState;
use mvmqo_integration_tests::{generate_deltas, null_group_engine, small_world, SmallWorld};
use mvmqo_relalg::agg::{AggFunc, AggSpec};
use mvmqo_relalg::batch::Batch;
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::codec::{self, Enc};
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
use mvmqo_relalg::schema::{AttrId, Schema};
use mvmqo_relalg::tuple::{bag_eq_approx, Tuple};
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::crc::crc32;
use mvmqo_storage::delta::DeltaBatch;
use mvmqo_storage::error::{RecoveryError, StorageError};
use mvmqo_storage::snapshot::{self, Manifest};
use mvmqo_storage::wal::{scan_wal_bytes, WalRecord, WalStop};
use mvmqo_warehouse::{PlanMode, ReoptTrigger, SnapshotData, Warehouse, WarehouseError};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// ======================================================================
// Scratch directories (the workspace vendors no tempfile crate)
// ======================================================================

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// Self-cleaning scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "mvmqo-recovery-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Atomic snapshot/manifest writes must leave no `.tmp` behind, ever.
fn assert_no_tmp_files(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let name = entry.file_name();
        assert!(
            !name.to_string_lossy().ends_with(".tmp"),
            "leaked temp file {name:?} in {}",
            dir.display()
        );
    }
}

// ======================================================================
// The deterministic workload
// ======================================================================

fn attr(world: &SmallWorld, t: TableId, suffix: &str) -> AttrId {
    world
        .catalog
        .table(t)
        .schema
        .attrs()
        .iter()
        .find(|a| a.name.ends_with(suffix))
        .unwrap_or_else(|| panic!("no attr {suffix}"))
        .id
}

/// A fresh engine over the deterministic small world with three views
/// sharing subexpressions: a filtered two-way join, the full three-way
/// join, and an aggregate (whose hidden per-group state must survive
/// snapshots). Identical on every call — this *is* the snapshot state the
/// kill-anywhere fixture starts from.
fn engine_with_views() -> (SmallWorld, Warehouse) {
    let w = small_world(8);
    let mirror = small_world(8);
    let mut wh = Warehouse::new(w.catalog, w.db);

    let (a, b, c) = (mirror.a, mirror.b, mirror.c);
    let join_ba = |world: &SmallWorld| {
        LogicalExpr::join(
            LogicalExpr::scan(b),
            LogicalExpr::scan(a),
            Predicate::from_conjuncts(vec![ScalarExpr::col_eq_col(
                attr(world, b, ".a_id"),
                attr(world, a, ".id"),
            )]),
        )
    };
    wh.register_view(ViewDef::new(
        "filtered",
        LogicalExpr::select(
            join_ba(&mirror),
            Predicate::from_expr(ScalarExpr::col_cmp_lit(
                attr(&mirror, a, ".x"),
                CmpOp::Lt,
                Value::Int(12),
            )),
        ),
    ))
    .unwrap();
    wh.register_view(ViewDef::new(
        "threeway",
        LogicalExpr::join(
            LogicalExpr::scan(c),
            join_ba(&mirror),
            Predicate::from_conjuncts(vec![ScalarExpr::col_eq_col(
                attr(&mirror, c, ".b_id"),
                attr(&mirror, b, ".id"),
            )]),
        ),
    ))
    .unwrap();
    let sum_out = wh.fresh_attr();
    let cnt_out = wh.fresh_attr();
    wh.register_view(ViewDef::new(
        "totals",
        LogicalExpr::aggregate(
            LogicalExpr::join(
                LogicalExpr::scan(c),
                LogicalExpr::scan(b),
                Predicate::from_conjuncts(vec![ScalarExpr::col_eq_col(
                    attr(&mirror, c, ".b_id"),
                    attr(&mirror, b, ".id"),
                )]),
            ),
            vec![attr(&mirror, b, ".a_id")],
            vec![
                AggSpec::new(
                    AggFunc::Sum,
                    ScalarExpr::Col(attr(&mirror, c, ".v")),
                    sum_out,
                ),
                AggSpec::new(
                    AggFunc::Count,
                    ScalarExpr::Col(attr(&mirror, c, ".v")),
                    cnt_out,
                ),
            ],
        ),
    ))
    .unwrap();
    (mirror, wh)
}

/// An aggregate view over `c` grouped by `b_id`, with output ids fresh
/// from `wh`'s allocator.
fn per_b_view(mirror: &SmallWorld, wh: &mut Warehouse, name: &str) -> ViewDef {
    let (sum_out, cnt_out) = (wh.fresh_attr(), wh.fresh_attr());
    let v = attr(mirror, mirror.c, ".v");
    ViewDef::new(
        name,
        LogicalExpr::aggregate(
            LogicalExpr::scan(mirror.c),
            vec![attr(mirror, mirror.c, ".b_id")],
            vec![
                AggSpec::new(AggFunc::Sum, ScalarExpr::Col(v), sum_out),
                AggSpec::new(AggFunc::Count, ScalarExpr::Col(v), cnt_out),
            ],
        ),
    )
}

/// Three rounds of referentially consistent deltas, each followed by an
/// epoch, with view DDL between them: after the first epoch an aggregate
/// view is registered (its output ids allocated after the snapshot), and
/// between the second round's ingests and its epoch a view is dropped.
/// The mirror database tracks the engine so each round's deletes sample
/// rows that actually exist.
fn run_workload(mirror: &mut SmallWorld, wh: &mut Warehouse) {
    for (round, pct) in [6.0, 4.0, 3.0].into_iter().enumerate() {
        let ds = generate_deltas(mirror, pct, 1000 + round as u64);
        for t in ds.tables().collect::<Vec<_>>() {
            wh.ingest(t, ds.get(t).unwrap().clone()).unwrap();
        }
        if round == 1 {
            wh.drop_view("filtered").unwrap();
        }
        wh.run_epoch().unwrap();
        mirror.db.apply_all(&ds).unwrap();
        if round == 0 {
            let late = per_b_view(mirror, wh, "late");
            wh.register_view(late).unwrap();
        }
    }
}

// ======================================================================
// The kill-anywhere fixture: one durable run, captured as bytes
// ======================================================================

/// File images of a durability directory captured after the workload, plus
/// the WAL record boundaries. Built once; every kill position replays
/// against copies of these bytes.
struct Fixture {
    /// Non-WAL files (MANIFEST, snapshot image) by name.
    files: Vec<(String, Vec<u8>)>,
    wal_name: String,
    wal_bytes: Vec<u8>,
    /// Byte offsets of every record boundary, 0 and EOF included.
    boundaries: Vec<u64>,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let tmp = TempDir::new("fixture");
        let (mut mirror, mut wh) = engine_with_views();
        wh.enable_wal(tmp.path()).unwrap();
        run_workload(&mut mirror, &mut wh);
        assert_no_tmp_files(tmp.path());

        let mut files = Vec::new();
        let mut wal_name = String::new();
        let mut wal_bytes = Vec::new();
        for entry in std::fs::read_dir(tmp.path()).unwrap().flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(entry.path()).unwrap();
            if name.starts_with("wal-") {
                wal_name = name;
                wal_bytes = bytes;
            } else {
                files.push((name, bytes));
            }
        }
        assert!(!wal_name.is_empty(), "workload produced no WAL");

        let scan = scan_wal_bytes(&wal_bytes);
        assert!(scan.stop.is_clean());
        // One commit per round plus the non-empty ingests (batches the
        // engine accepted as 0 tuples are never logged).
        let commits = scan
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::EpochCommit { .. }))
            .count();
        assert_eq!(commits, 3, "one commit per workload round");
        let ddl = scan
            .records
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    WalRecord::RegisterView { .. } | WalRecord::DropView { .. }
                )
            })
            .count();
        assert_eq!(ddl, 2, "the workload logs one registration and one drop");
        assert!(
            scan.records.len() >= 8,
            "workload too small to exercise torn writes: {} records",
            scan.records.len()
        );
        let mut boundaries = vec![0u64];
        let mut pos = 0u64;
        for rec in &scan.records {
            pos += 8 + rec.encode().len() as u64;
            boundaries.push(pos);
        }
        assert_eq!(pos, wal_bytes.len() as u64);
        Fixture {
            files,
            wal_name,
            wal_bytes,
            boundaries,
        }
    })
}

/// Materialize the fixture as a durability directory whose WAL holds only
/// the bytes before `kill_at` — the on-disk state an actual crash at that
/// byte would leave.
fn crashed_dir(fx: &Fixture, kill_at: u64, tag: &str) -> TempDir {
    let tmp = TempDir::new(tag);
    for (name, bytes) in &fx.files {
        std::fs::write(tmp.path().join(name), bytes).unwrap();
    }
    let torn = &fx.wal_bytes[..(kill_at as usize).min(fx.wal_bytes.len())];
    let wal = tmp.path().join(&fx.wal_name);
    std::fs::write(&wal, torn).unwrap();
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        kill_at.min(fx.wal_bytes.len() as u64)
    );
    tmp
}

/// Ground truth for a crash at `kill_at`: a fresh engine in the snapshot
/// state, fed the surviving record prefix through the ordinary
/// ingest/epoch path.
fn replay_prefix(fx: &Fixture, kill_at: u64) -> Warehouse {
    let (_, mut wh) = engine_with_views();
    let prefix = &fx.wal_bytes[..(kill_at as usize).min(fx.wal_bytes.len())];
    for rec in scan_wal_bytes(prefix).records {
        match rec {
            WalRecord::Ingest {
                table,
                inserts,
                deletes,
                ..
            } => {
                wh.ingest(
                    table,
                    DeltaBatch {
                        inserts: inserts.to_rows(),
                        deletes: deletes.to_rows(),
                    },
                )
                .unwrap();
            }
            WalRecord::EpochCommit { .. } => {
                wh.run_epoch().unwrap();
            }
            WalRecord::RegisterView { view } => {
                wh.register_view(view).unwrap();
            }
            WalRecord::DropView { name } => wh.drop_view(&name).unwrap(),
        }
    }
    wh
}

/// Tuple-identical equivalence: every base table and every view, as
/// multisets, plus per-view consistency against recomputation.
fn assert_engines_equivalent(got: &Warehouse, want: &Warehouse, context: &str) {
    assert_eq!(got.epoch(), want.epoch(), "epoch mismatch ({context})");
    assert_eq!(
        got.pending_tuples(),
        want.pending_tuples(),
        "pending mismatch ({context})"
    );
    for def in want.catalog().tables() {
        let rows =
            |wh: &Warehouse| -> Vec<Tuple> { wh.database().base(def.id).unwrap().rows().to_vec() };
        assert!(
            bag_eq_approx(&rows(got), &rows(want), 1e-9),
            "base table {} diverged ({context})",
            def.name
        );
    }
    for v in want.views() {
        let g = got.query(&v.name).unwrap().rows;
        let w = want.query(&v.name).unwrap().rows;
        assert!(
            bag_eq_approx(&g, &w, 1e-9),
            "view {} diverged: {} vs {} rows ({context})",
            v.name,
            g.len(),
            w.len()
        );
        assert!(
            got.verify(&v.name).unwrap(),
            "view {} inconsistent with recomputation ({context})",
            v.name
        );
    }
}

fn check_kill_at(kill_at: u64) {
    let fx = fixture();
    let tmp = crashed_dir(fx, kill_at, "kill");
    let recovered = Warehouse::recover(tmp.path())
        .unwrap_or_else(|e| panic!("recovery failed for kill at byte {kill_at}: {e}"));
    let expected = replay_prefix(fx, kill_at);
    assert_engines_equivalent(&recovered, &expected, &format!("kill at byte {kill_at}"));

    let info = recovered.recovery_info().unwrap();
    let on_boundary = fx
        .boundaries
        .contains(&kill_at.min(fx.wal_bytes.len() as u64));
    assert_eq!(
        info.clean_wal, on_boundary,
        "kill at byte {kill_at}: clean={} but boundary={}",
        info.clean_wal, on_boundary
    );
    assert_no_tmp_files(tmp.path());
}

// ======================================================================
// Headline: kill-anywhere recovery
// ======================================================================

/// Every record boundary, exhaustively — including byte 0 (crash before
/// the first append) and EOF (no crash at all).
#[test]
fn every_record_boundary_recovers_exactly() {
    let fx = fixture();
    for &cut in &fx.boundaries {
        check_kill_at(cut);
    }
}

fn recovery_cases() -> u32 {
    std::env::var("RECOVERY_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(recovery_cases()))]

    /// Random kill offsets, most of them torn mid-record writes. Case
    /// count is bounded by `RECOVERY_CASES` for the CI smoke job.
    #[test]
    fn kill_anywhere_matches_prefix_replay(frac in 0.0f64..1.0) {
        let total = fixture().wal_bytes.len() as u64;
        check_kill_at((frac * total as f64) as u64);
    }
}

// ======================================================================
// Corruption: clean prefix recovery or a typed error, never a panic
// ======================================================================

#[test]
fn bit_flip_mid_wal_recovers_the_valid_prefix() {
    let fx = fixture();
    // Flip one payload bit inside the fifth record (second round's first
    // ingest): everything before it must recover, everything after is lost.
    let target = fx.boundaries[4] + 12;
    let tmp = TempDir::new("bitflip");
    for (name, bytes) in &fx.files {
        std::fs::write(tmp.path().join(name), bytes).unwrap();
    }
    let mut bad = fx.wal_bytes.clone();
    bad[target as usize] ^= 0x20;
    std::fs::write(tmp.path().join(&fx.wal_name), &bad).unwrap();

    let recovered = Warehouse::recover(tmp.path()).unwrap();
    let info = recovered.recovery_info().unwrap();
    assert!(!info.clean_wal);
    assert_eq!(info.replayed_records, 4, "prefix must stop at the flip");
    let expected = replay_prefix(fx, fx.boundaries[4]);
    assert_engines_equivalent(&recovered, &expected, "bit flip");
}

#[test]
fn zero_filled_page_after_the_log_recovers_everything() {
    let fx = fixture();
    let tmp = TempDir::new("zeropage");
    for (name, bytes) in &fx.files {
        std::fs::write(tmp.path().join(name), bytes).unwrap();
    }
    // Pre-allocated or zeroed space past the last record — common after a
    // crash on filesystems that extend files before data lands.
    let mut padded = fx.wal_bytes.clone();
    padded.extend_from_slice(&[0u8; 4096]);
    std::fs::write(tmp.path().join(&fx.wal_name), &padded).unwrap();

    let recovered = Warehouse::recover(tmp.path()).unwrap();
    let info = recovered.recovery_info().unwrap();
    assert_eq!(
        info.replayed_records,
        fx.boundaries.len() - 1,
        "all real records must survive"
    );
    assert!(!info.clean_wal);
    assert!(info.wal_stop.contains("zero"), "{}", info.wal_stop);
    let expected = replay_prefix(fx, fx.wal_bytes.len() as u64);
    assert_engines_equivalent(&recovered, &expected, "zero page");
}

#[test]
fn corrupt_or_truncated_snapshot_is_a_typed_error() {
    let fx = fixture();
    let (snap_name, snap_bytes) = fx
        .files
        .iter()
        .find(|(n, _)| n.starts_with("snapshot-"))
        .unwrap();

    // Bit flip inside the snapshot body.
    let tmp = TempDir::new("badsnap");
    for (name, bytes) in &fx.files {
        std::fs::write(tmp.path().join(name), bytes).unwrap();
    }
    std::fs::write(tmp.path().join(&fx.wal_name), &fx.wal_bytes).unwrap();
    let mut bad = snap_bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    std::fs::write(tmp.path().join(snap_name), &bad).unwrap();
    let Err(err) = Warehouse::recover(tmp.path()) else {
        panic!("recovery must fail");
    };
    assert!(
        matches!(
            &err,
            WarehouseError::Recovery(RecoveryError::Corrupt { .. })
        ),
        "bit-flipped snapshot: {err}"
    );

    // Truncated snapshot (torn during the pre-rename write — the manifest
    // should never point at one, but recovery must still not panic).
    std::fs::write(
        tmp.path().join(snap_name),
        &snap_bytes[..snap_bytes.len() / 2],
    )
    .unwrap();
    let Err(err) = Warehouse::recover(tmp.path()) else {
        panic!("recovery must fail");
    };
    assert!(
        matches!(
            &err,
            WarehouseError::Recovery(RecoveryError::Corrupt { .. })
        ),
        "truncated snapshot: {err}"
    );
}

#[test]
fn missing_or_corrupt_manifest_is_a_typed_error() {
    let empty = TempDir::new("nomanifest");
    let Err(err) = Warehouse::recover(empty.path()) else {
        panic!("recovery must fail");
    };
    assert!(
        matches!(
            &err,
            WarehouseError::Recovery(RecoveryError::MissingManifest(_))
        ),
        "empty dir: {err}"
    );

    let fx = fixture();
    let tmp = TempDir::new("badmanifest");
    for (name, bytes) in &fx.files {
        let bytes = if name == "MANIFEST" {
            let mut b = bytes.clone();
            let last = b.len() - 1;
            b[last] ^= 0xFF;
            b
        } else {
            bytes.clone()
        };
        std::fs::write(tmp.path().join(name), bytes).unwrap();
    }
    std::fs::write(tmp.path().join(&fx.wal_name), &fx.wal_bytes).unwrap();
    let Err(err) = Warehouse::recover(tmp.path()) else {
        panic!("recovery must fail");
    };
    assert!(
        matches!(
            &err,
            WarehouseError::Recovery(RecoveryError::Corrupt { .. })
        ),
        "corrupt manifest: {err}"
    );
}

// ======================================================================
// Warm resume: recovery re-plans incrementally, never from cold
// ======================================================================

#[test]
fn recovery_after_save_resumes_warm_and_keeps_logging() {
    let tmp = TempDir::new("warm");
    let (mut mirror, mut wh) = engine_with_views();
    wh.enable_wal(tmp.path()).unwrap();
    run_workload(&mut mirror, &mut wh);
    wh.save().unwrap();
    // Old segment pair is dead after the checkpoint and must be pruned.
    assert!(!tmp.path().join("wal-0.log").exists());
    assert!(!tmp.path().join("snapshot-0.img").exists());

    // A short WAL tail after the snapshot: one more round.
    let ds = generate_deltas(&mirror, 3.0, 2000);
    for t in ds.tables().collect::<Vec<_>>() {
        wh.ingest(t, ds.get(t).unwrap().clone()).unwrap();
    }
    wh.run_epoch().unwrap();
    mirror.db.apply_all(&ds).unwrap();
    let epoch_before = wh.epoch();
    drop(wh);

    let mut recovered = Warehouse::recover(tmp.path()).unwrap();
    let info = recovered.recovery_info().unwrap().clone();
    assert_eq!(info.snapshot_epoch, 3);
    assert_eq!(info.recovered_epoch, epoch_before);
    assert!(
        info.replayed_records >= 2,
        "the tail holds at least one ingest + its commit: {info:?}"
    );
    assert!(info.clean_wal);
    for v in recovered.views().to_vec() {
        assert!(recovered.verify(&v.name).unwrap());
    }

    // The memo is warm: every view re-registration after the recovered
    // session's first runs incrementally, and nothing falls back to the
    // cold `Initial` path. (A replayed epoch may still rebuild the memo
    // when the 2n update numbering changes — exactly as the live session
    // would have.)
    let replans = recovered.replans().to_vec();
    assert!(replans.len() >= 3, "{replans:?}");
    assert!(
        replans
            .iter()
            .skip(1)
            .filter(|r| matches!(r.trigger, ReoptTrigger::ViewSetChanged))
            .all(|r| r.mode == PlanMode::Incremental),
        "view re-registration must re-plan warm: {replans:?}"
    );
    assert!(
        replans
            .iter()
            .skip(1)
            .all(|r| !matches!(r.trigger, ReoptTrigger::Initial)),
        "recovery must never re-enter the Initial cold path: {replans:?}"
    );
    let sum_out = recovered.fresh_attr();
    let cnt_out = recovered.fresh_attr();
    recovered
        .register_view(ViewDef::new(
            "totals2",
            LogicalExpr::aggregate(
                LogicalExpr::scan(mirror.c),
                vec![attr(&mirror, mirror.c, ".b_id")],
                vec![
                    AggSpec::new(
                        AggFunc::Sum,
                        ScalarExpr::Col(attr(&mirror, mirror.c, ".v")),
                        sum_out,
                    ),
                    AggSpec::new(
                        AggFunc::Count,
                        ScalarExpr::Col(attr(&mirror, mirror.c, ".v")),
                        cnt_out,
                    ),
                ],
            ),
        ))
        .unwrap();
    let last = *recovered.replans().last().unwrap();
    assert_eq!(last.trigger, ReoptTrigger::ViewSetChanged);
    assert_eq!(
        last.mode,
        PlanMode::Incremental,
        "post-recovery replan must be warm, not a cold rebuild"
    );

    // The recovered engine keeps logging into the same segment: another
    // round survives a second recovery.
    let ds = generate_deltas(&mirror, 2.0, 3000);
    for t in ds.tables().collect::<Vec<_>>() {
        recovered.ingest(t, ds.get(t).unwrap().clone()).unwrap();
    }
    recovered.run_epoch().unwrap();
    let epoch_after = recovered.epoch();
    let explain = recovered.explain();
    assert!(explain.contains("durability:"), "{explain}");
    assert!(explain.contains("recovered:"), "{explain}");
    drop(recovered);

    let again = Warehouse::recover(tmp.path()).unwrap();
    assert_eq!(again.epoch(), epoch_after);
    for v in again.views().to_vec() {
        assert!(again.verify(&v.name).unwrap());
    }
    assert_no_tmp_files(tmp.path());
}

// ======================================================================
// View DDL after the last checkpoint is durable
// ======================================================================

/// Each view's answer, by name.
fn answers(wh: &Warehouse) -> Vec<(String, Vec<Tuple>)> {
    wh.views()
        .iter()
        .map(|v| (v.name.clone(), wh.query(&v.name).unwrap().rows))
        .collect()
}

/// A view registered after `save` is in the WAL tail: recovery registers
/// it again, in log order between the epochs around it, with the
/// allocator moved past its aggregate output ids.
#[test]
fn a_view_registered_after_save_survives_recovery() {
    let tmp = TempDir::new("ddl-register");
    let (mut mirror, mut wh) = engine_with_views();
    wh.enable_wal(tmp.path()).unwrap();
    wh.save().unwrap();
    let view = per_b_view(&mirror, &mut wh, "after_save");
    let outs = view.expr.aggregate_outputs();
    wh.register_view(view).unwrap();
    run_workload(&mut mirror, &mut wh);
    let (want, epoch) = (answers(&wh), wh.epoch());
    assert!(want.iter().any(|(name, _)| name == "after_save"));
    drop(wh);

    let mut recovered = Warehouse::recover(tmp.path()).unwrap();
    assert_eq!(recovered.epoch(), epoch);
    let got = answers(&recovered);
    assert_eq!(
        got.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        want.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    for ((name, g), (_, w)) in got.iter().zip(&want) {
        assert!(bag_eq_approx(g, w, 1e-9), "view {name} diverged");
        assert!(recovered.verify(name).unwrap(), "{name}");
    }
    let next = recovered.fresh_attr();
    assert!(
        outs.iter().all(|a| *a < next),
        "allocator at {next} hands out a replayed view's ids {outs:?}"
    );
}

/// A view dropped after `save` stays dropped through recovery.
#[test]
fn a_view_dropped_after_save_stays_dropped() {
    let tmp = TempDir::new("ddl-drop");
    let (mut mirror, mut wh) = engine_with_views();
    wh.enable_wal(tmp.path()).unwrap();
    run_workload(&mut mirror, &mut wh);
    wh.save().unwrap();
    wh.drop_view("threeway").unwrap();
    let want = answers(&wh);
    drop(wh);

    let recovered = Warehouse::recover(tmp.path()).unwrap();
    assert!(matches!(
        recovered.query("threeway"),
        Err(WarehouseError::UnknownView(_))
    ));
    let got = answers(&recovered);
    assert_eq!(got.len(), want.len());
    for ((name, g), (name_w, w)) in got.iter().zip(&want) {
        assert_eq!(name, name_w);
        assert!(bag_eq_approx(g, w, 1e-9), "view {name} diverged");
    }
}

/// The per-group input-row count survives save and recovery: a group
/// whose aggregated inputs are all NULL comes back, and later epochs
/// keep maintaining it.
#[test]
fn an_all_null_group_survives_save_and_recovery() {
    let tmp = TempDir::new("null-group");
    let (mut wh, t) = null_group_engine();
    wh.run_epoch().unwrap();
    wh.enable_wal(tmp.path()).unwrap();
    let want = wh.query("per_k").unwrap().rows;
    assert!(want.contains(&vec![Value::Int(1), Value::Null]), "{want:?}");
    drop(wh);

    let mut recovered = Warehouse::recover(tmp.path()).unwrap();
    let got = recovered.query("per_k").unwrap();
    assert!(got.from_materialization);
    assert!(bag_eq_approx(&got.rows, &want, 0.0), "{:?}", got.rows);
    let row = vec![Value::Int(5), Value::Int(2), Value::Int(1)];
    recovered
        .ingest(t, DeltaBatch::new(vec![row], vec![]))
        .unwrap();
    recovered.run_epoch().unwrap();
    let rows = recovered.query("per_k").unwrap().rows;
    assert!(rows.contains(&vec![Value::Int(1), Value::Null]), "{rows:?}");
    assert!(recovered.verify("per_k").unwrap());
}

// ======================================================================
// Mixed string encodings through snapshot + WAL replay
// ======================================================================

/// A base table holding both string encodings — a repetitive column
/// (dictionary) and a near-unique one of ≥ 256 rows (plain strings) —
/// survives checkpoint, a WAL tail that appends and deletes through both,
/// and `recover`: same rows, same encodings, views still exact.
#[test]
fn mixed_string_encodings_survive_snapshot_and_recovery() {
    use mvmqo_relalg::batch::ColumnData;
    use mvmqo_relalg::catalog::{Catalog, ColumnSpec};
    use mvmqo_relalg::tuple::bag_eq;
    use mvmqo_relalg::types::DataType;
    use mvmqo_storage::database::Database;
    use mvmqo_storage::table::StoredTable;

    let mut catalog = Catalog::new();
    let docs = catalog.add_table(
        "docs",
        vec![
            ColumnSpec::key("id", DataType::Int),
            ColumnSpec::with_distinct("tag", DataType::Str, 4.0),
            ColumnSpec::with_distinct("body", DataType::Str, 400.0),
        ],
        400.0,
        &["id"],
    );
    let doc = |i: i64| -> Tuple {
        vec![
            Value::Int(i),
            Value::str(format!("tag{}", i % 4)),
            Value::str(format!("body of document {i}")),
        ]
    };
    let schema = catalog.table(docs).schema.clone();
    let tag = schema.attrs()[1].id;
    let mut db = Database::new();
    db.put_base(
        docs,
        StoredTable::with_rows(schema, (0..400).map(doc).collect()),
    );
    let mut wh = Warehouse::new(catalog, db);
    wh.register_view(ViewDef::new(
        "tag1",
        LogicalExpr::select(
            LogicalExpr::scan(docs),
            Predicate::from_expr(ScalarExpr::col_cmp_lit(tag, CmpOp::Eq, "tag1")),
        ),
    ))
    .unwrap();

    let encodings = |wh: &Warehouse| -> (bool, bool) {
        let batch = wh.database().base(docs).unwrap().batch();
        (
            matches!(batch.column(1).data(), ColumnData::Dict { .. }),
            matches!(batch.column(2).data(), ColumnData::Str(_)),
        )
    };
    assert_eq!(encodings(&wh), (true, true));

    let tmp = TempDir::new("mixed-strings");
    wh.enable_wal(tmp.path()).unwrap();
    let round = |wh: &mut Warehouse, ins: std::ops::Range<i64>, del: std::ops::Range<i64>| {
        wh.ingest(
            docs,
            DeltaBatch::new(ins.map(doc).collect(), del.map(doc).collect()),
        )
        .unwrap();
        wh.run_epoch().unwrap();
    };
    round(&mut wh, 400..450, 0..30);
    wh.save().unwrap();
    round(&mut wh, 450..470, 100..140); // the WAL tail recovery must replay
    let want: Vec<Tuple> = (30..100).chain(140..470).map(doc).collect();
    assert!(bag_eq(wh.database().base(docs).unwrap().rows(), &want));
    let view_before = wh.query("tag1").unwrap().rows;
    drop(wh);

    let recovered = Warehouse::recover(tmp.path()).unwrap();
    assert!(bag_eq(
        recovered.database().base(docs).unwrap().rows(),
        &want
    ));
    assert_eq!(encodings(&recovered), (true, true));
    assert!(bag_eq(&recovered.query("tag1").unwrap().rows, &view_before));
    assert!(recovered.verify("tag1").unwrap());
}

// ======================================================================
// Types at the door: ingest and WAL replay
// ======================================================================

/// Types are checked at the door: a batch holding one value not of its
/// column's type is rejected whole, on either side, and the queue, the
/// stored table and the WAL stay as they were.
#[test]
fn a_mistyped_ingest_is_rejected_whole() {
    let tmp = TempDir::new("mistyped-ingest");
    let (mut wh, t) = null_group_engine();
    wh.enable_wal(tmp.path()).unwrap();
    let good = vec![Value::Int(5), Value::Int(2), Value::Int(1)];
    wh.ingest(t, DeltaBatch::new(vec![good.clone()], vec![]))
        .unwrap();
    let wal = tmp
        .path()
        .join(Manifest::load(tmp.path()).unwrap().wal_file);
    let state = |wh: &Warehouse| {
        let rows = wh.database().base(t).unwrap().rows().to_vec();
        (wh.pending_tuples(), rows, std::fs::read(&wal).unwrap())
    };
    let before = state(&wh);
    // An Int column takes no Float.
    let bad = vec![Value::Int(6), Value::Float(2.0), Value::Int(1)];
    for batch in [
        DeltaBatch::new(vec![good.clone(), bad.clone()], vec![]),
        DeltaBatch::new(vec![], vec![bad.clone()]),
    ] {
        let err = wh.ingest(t, batch).unwrap_err();
        assert!(
            matches!(
                err,
                WarehouseError::Storage(StorageError::TypeMismatch {
                    expected: DataType::Int,
                    got: DataType::Float,
                    ..
                })
            ),
            "{err}"
        );
        assert!(state(&wh) == before, "a rejected ingest left a trace");
    }
    // The engine goes on: the queued row lands and the view is exact.
    wh.run_epoch().unwrap();
    assert!(wh.verify("per_k").unwrap());
}

/// A CRC-valid `Ingest` record whose column does not hold its attribute's
/// type is no torn tail: recovery stops with a typed error, without a
/// panic, and leaves the log as it found it.
#[test]
fn a_wal_record_whose_column_does_not_fit_is_a_recovery_error() {
    let tmp = TempDir::new("mistyped-wal");
    let (mut wh, t) = null_group_engine();
    wh.enable_wal(tmp.path()).unwrap();
    let schema = wh.database().base(t).unwrap().schema().clone();
    drop(wh);
    let row = vec![Value::Int(5), Value::Int(2), Value::Int(1)];
    let mut payload = WalRecord::Ingest {
        epoch: 1,
        table: t,
        inserts: Batch::from_rows(schema.clone(), &[row]),
        deletes: Batch::empty(schema.clone()),
    }
    .encode();
    // Kind byte, epoch, table id, schema and column count precede the
    // first column's tag: make that Int column a Float one of the same
    // width.
    let mut e = Enc::new();
    codec::encode_schema(&mut e, &schema);
    let tag = 1 + 8 + 4 + e.len() + 4;
    assert_eq!(payload[tag], 0, "an Int column tag");
    payload[tag] = 1;
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend(crc32(&payload).to_le_bytes());
    frame.extend(&payload);
    let wal = tmp
        .path()
        .join(Manifest::load(tmp.path()).unwrap().wal_file);
    let mut log = std::fs::read(&wal).unwrap();
    log.extend(&frame);
    std::fs::write(&wal, &log).unwrap();
    assert!(matches!(
        scan_wal_bytes(&log).stop,
        WalStop::BadRecord { .. }
    ));

    match Warehouse::recover(tmp.path()) {
        Err(WarehouseError::Recovery(RecoveryError::Corrupt { why, .. })) => {
            assert!(why.contains("declared"), "{why}")
        }
        Err(e) => panic!("unexpected error {e}"),
        Ok(_) => panic!("a mistyped record recovered"),
    }
    assert_eq!(
        std::fs::read(&wal).unwrap(),
        log,
        "recovery truncated the log"
    );
}

// ======================================================================
// Types at the door: snapshot restore
// ======================================================================

/// Rewrite the snapshot at `path` through the public [`SnapshotData`]
/// codec, keeping its framing (magic and CRC) valid.
fn rewrite_snapshot(path: &Path, edit: impl FnOnce(&mut SnapshotData)) {
    let body = snapshot::read_framed(path, snapshot::SNAPSHOT_MAGIC).unwrap();
    let mut data = SnapshotData::decode(&body).unwrap();
    edit(&mut data);
    snapshot::write_framed_atomic(path, snapshot::SNAPSHOT_MAGIC, &data.encode(Vec::new()))
        .unwrap();
}

/// `recover` of `dir` must stop with a typed `Corrupt` error whose reason
/// contains `reason`.
fn assert_corrupt_snapshot(dir: &Path, reason: &str) {
    match Warehouse::recover(dir) {
        Err(WarehouseError::Recovery(RecoveryError::Corrupt { why, .. })) => {
            assert!(why.contains(reason), "{why}")
        }
        Err(e) => panic!("unexpected error {e}"),
        Ok(_) => panic!("a snapshot with a mistyped value recovered"),
    }
}

/// A CRC-valid snapshot whose aggregate support state holds a group key
/// not of its column's type fails `recover` cleanly, instead of reaching
/// `Column::push` at the next epoch.
#[test]
fn a_snapshot_group_key_that_does_not_fit_is_a_recovery_error() {
    let tmp = TempDir::new("mistyped-group");
    let (mut wh, t) = null_group_engine();
    wh.enable_wal(tmp.path()).unwrap();
    let row = vec![Value::Int(5), Value::Int(2), Value::Int(1)];
    wh.ingest(t, DeltaBatch::new(vec![row], vec![])).unwrap();
    wh.run_epoch().unwrap();
    let snap = wh.save().unwrap();
    drop(wh);
    rewrite_snapshot(&snap, |data| {
        let m = &mut data.view_mats[0];
        let st = m.agg.take().expect("per_k keeps aggregate support state");
        // `k` is an Int column: give one group a string key.
        let mut groups: Vec<_> = st
            .group_entries()
            .map(|(key, rows, accs)| (key.clone(), rows, accs.to_vec()))
            .collect();
        groups[0].0[0] = Value::str("two");
        m.agg = Some(AggState::from_parts(
            st.group_by.clone(),
            st.specs.clone(),
            st.input_schema.clone(),
            groups,
        ));
    });
    assert_corrupt_snapshot(tmp.path(), "group key");
}

/// A CRC-valid snapshot whose pending queue holds a row its table cannot
/// hold fails `recover` cleanly: restored batches pass the ingest door's
/// type check.
#[test]
fn a_snapshot_pending_row_that_does_not_fit_is_a_recovery_error() {
    let tmp = TempDir::new("mistyped-pending");
    let (mut wh, t) = null_group_engine();
    wh.enable_wal(tmp.path()).unwrap();
    let row = vec![Value::Int(5), Value::Int(2), Value::Int(1)];
    wh.ingest(t, DeltaBatch::new(vec![row], vec![])).unwrap();
    let schema = wh.database().base(t).unwrap().schema().clone();
    let snap = wh.save().unwrap();
    drop(wh);
    rewrite_snapshot(&snap, |data| {
        // A batch that is well-formed on its own, with `k` declared Str.
        let mut attrs = schema.attrs().to_vec();
        attrs[1].data_type = DataType::Str;
        let row = vec![Value::Int(5), Value::str("two"), Value::Int(1)];
        let inserts = Batch::from_rows(Schema::new(attrs), &[row]);
        assert_eq!(data.pending.len(), 1);
        data.pending[0].1 = inserts;
    });
    assert_corrupt_snapshot(tmp.path(), "schema expects");
}

// ======================================================================
// Column codec: round trips pinned on logical Batch equality
// ======================================================================

mod codec_roundtrip {
    use super::*;
    use mvmqo_relalg::codec::Dec;
    use mvmqo_relalg::schema::{Attribute, Schema};

    fn schema(types: &[DataType]) -> Schema {
        Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, dt)| Attribute {
                    id: AttrId(i as u32),
                    name: format!("t.c{i}"),
                    data_type: *dt,
                })
                .collect(),
        )
    }

    fn roundtrip(batch: &Batch) -> Batch {
        let mut e = Enc::new();
        codec::encode_batch(&mut e, batch);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let back = codec::decode_batch(&mut d).unwrap();
        assert!(d.is_empty(), "trailing bytes after batch");
        back
    }

    /// Every `DataType`, NULLs in every column, and both string
    /// encodings (plain and dictionary) side by side, pinned on logical
    /// `Batch` equality.
    #[test]
    fn every_datatype_with_nulls_and_mixed_round_trips() {
        let s = schema(&[
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Date,
            DataType::Bool,
            DataType::Str, // dictionary-encoded below
        ]);
        let rows: Vec<Tuple> = vec![
            vec![
                Value::Int(-7),
                Value::Float(3.5),
                Value::str("alpha"),
                Value::Date(730),
                Value::Bool(true),
                Value::str("beta"),
            ],
            vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
            vec![
                Value::Int(i64::MAX),
                Value::Float(-0.0),
                Value::str(""),
                Value::Date(-1),
                Value::Bool(false),
                Value::str("beta"),
            ],
        ];
        let plain = Batch::from_rows(s.clone(), &rows);
        let mut columns: Vec<_> = (0..6).map(|c| plain.column(c).clone()).collect();
        columns[5] = columns[5].dict_encode();
        let batch = Batch::from_columns(s, columns);
        assert_eq!(roundtrip(&batch), batch);
        assert!(roundtrip(&batch).column(5).dict().is_some());
        // And the decoded image yields the original tuples.
        assert_eq!(roundtrip(&batch).to_rows(), rows);
    }

    #[test]
    fn empty_batch_round_trips() {
        let batch = Batch::empty(schema(&[DataType::Int, DataType::Str]));
        assert_eq!(roundtrip(&batch), batch);
    }

    /// Dictionary-encoded string columns survive the codec: logical
    /// equality holds, the decoded image is still dict-encoded, and the
    /// re-interned dictionary keeps the entries-unique invariant (code
    /// equality ⇔ string equality) that the code-space kernels rely on.
    #[test]
    fn dict_encoded_batch_round_trips() {
        let s = schema(&[DataType::Str, DataType::Int]);
        let rows: Vec<Tuple> = (0..300)
            .map(|i| {
                vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("w{}", i % 13))
                    },
                    Value::Int(i),
                ]
            })
            .collect();
        let batch = Batch::from_rows(s, &rows).dict_encoded();
        let back = roundtrip(&batch);
        assert_eq!(&back, &batch);
        assert_eq!(back.to_rows(), rows);
        let (codes, dict) = back.column(0).dict().expect("decoded image stays dict");
        assert_eq!(codes.len(), 300);
        let mut seen = std::collections::HashSet::new();
        assert!(
            dict.values().iter().all(|v| seen.insert(v.clone())),
            "dictionary entries must stay unique after re-interning"
        );
    }

    const TYPES: [DataType; 5] = [
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Date,
        DataType::Bool,
    ];

    /// A cell of column type `dt` from a raw pick, one in five NULL.
    fn cell(dt: DataType, n: i64) -> Value {
        let v = n / 5 - 100;
        match (n % 5, dt) {
            (0, _) => Value::Null,
            (_, DataType::Int) => Value::Int(v),
            (_, DataType::Float) => Value::Float(v as f64 / 4.0),
            (_, DataType::Str) => Value::str(format!("s{v}")),
            (_, DataType::Date) => Value::Date(v as i32),
            (_, DataType::Bool) => Value::Bool(v % 2 == 0),
        }
    }

    /// Cases for the hostile-bytes property (`CODEC_CASES`, default 48).
    fn codec_cases() -> u32 {
        std::env::var("CODEC_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(48)
    }

    /// Tiny deterministic generator for the hostile-bytes property.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n.max(1) as u64) as usize
        }
    }

    /// Column bytes for one attribute of type `dt`: half the time a tag
    /// that fits it, else any tag byte 0..=7 (5 and 7 are not tags, and
    /// most kinds do not fit). Payloads are well-formed for their tag
    /// apart from invalid bool bytes and out-of-range dictionary codes,
    /// and the null-mask flag is 0, 1 or the invalid 2.
    fn hostile_column(e: &mut Enc, dt: DataType, rows: usize, rng: &mut Rng) {
        let tag = match (rng.below(2), dt) {
            (0, DataType::Int) => 0,
            (0, DataType::Float) => 1,
            (0, DataType::Str) => [2, 6][rng.below(2)],
            (0, DataType::Date) => 3,
            (0, DataType::Bool) => 4,
            _ => rng.below(8) as u8,
        };
        e.u8(tag);
        e.u32(rows as u32);
        for _ in 0..rows {
            // Now and then one past the valid bools or dictionary codes.
            let past = if rng.below(8) == 0 { 3 } else { 2 };
            match tag {
                0 => e.i64(rng.below(100) as i64 - 50),
                1 => e.f64(rng.below(100) as f64 / 8.0),
                2 => e.str("s"),
                3 => e.i32(rng.below(100) as i32),
                4 => e.u8(rng.below(past) as u8),
                5 => codec::encode_value(e, &cell(TYPES[rng.below(5)], rng.below(1000) as i64)),
                6 => e.u32(rng.below(past) as u32),
                _ => e.u8(rng.below(256) as u8),
            }
        }
        if tag == 6 {
            e.u32(2);
            e.str("a");
            e.str("b");
        }
        let flag = [0, 0, 1, 1, 2][rng.below(5)];
        e.u8(flag);
        if flag == 1 {
            (0..rows).for_each(|_| e.bool(rng.below(2) == 0));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random typed cells, NULLs included, survive the codec logically
        /// intact.
        #[test]
        fn random_batches_round_trip(cells in proptest::collection::vec(
            proptest::collection::vec(0i64..1000, 3),
            0..20,
        )) {
            let types = [DataType::Int, DataType::Float, DataType::Str];
            let s = schema(&types);
            let rows: Vec<Tuple> = cells
                .iter()
                .map(|r| r.iter().zip(types).map(|(&n, dt)| cell(dt, n)).collect())
                .collect();
            let batch = Batch::from_rows(s, &rows);
            let back = roundtrip(&batch);
            prop_assert_eq!(&back, &batch);
            prop_assert_eq!(back.to_rows(), rows);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(codec_cases()))]

        /// Hostile bytes never panic the decoder: a random schema over
        /// random column tags, payloads and null-mask flags, now and then
        /// with a flipped bit or a cut tail, decodes either to a batch in
        /// which every column holds its attribute's type or to a
        /// `CodecError`.
        #[test]
        fn hostile_column_bytes_decode_typed_or_error(seed in 1u64..u64::MAX) {
            let mut rng = Rng(seed);
            let types: Vec<DataType> = (0..1 + rng.below(4)).map(|_| TYPES[rng.below(5)]).collect();
            let rows = rng.below(4);
            let mut e = Enc::new();
            codec::encode_schema(&mut e, &schema(&types));
            e.u32(types.len() as u32);
            for &dt in &types {
                hostile_column(&mut e, dt, rows, &mut rng);
            }
            let mut bytes = e.into_bytes();
            if rng.below(4) == 0 {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
            if rng.below(4) == 0 {
                bytes.truncate(rng.below(bytes.len() + 1));
            }
            if let Ok(batch) = codec::decode_batch(&mut Dec::new(&bytes)) {
                for (i, a) in batch.schema().attrs().iter().enumerate() {
                    prop_assert_eq!(batch.column(i).data().data_type(), a.data_type);
                }
            }
        }
    }
}
