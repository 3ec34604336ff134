//! Engine-wide fault-injection (chaos) tests: transactional epochs under
//! injected failure at every fault site.
//!
//! The headline property is the **abort/retry contract**: arm a one-shot
//! fault at the `k`-th fault-site crossing of a deterministic 3-round
//! workload, for every `k` that names a distinct site (plus evenly spaced
//! extras, capped by `CHAOS_CASES`), and assert that
//!
//! 1. the epoch that hits the fault aborts *cleanly* — the engine still
//!    answers `query`/`verify` with exact pre-epoch results and the
//!    pending delta queue is intact;
//! 2. retrying after the (spent) fault converges to a state bag-identical,
//!    for every base table and every view, to the fault-free run;
//! 3. the WAL and manifest stay recoverable: `Warehouse::recover` on the
//!    directory the faulty run left behind rebuilds the same engine.
//!
//! Alongside it: the kill-between test (a crash injected *between* the WAL
//! commit record and the in-memory install must recover INTO the committed
//! epoch — the commit record precedes every in-memory mutation), and a
//! property test that `ingest → fault-aborted epoch → retry` is
//! view-identical to the fault-free run serially and at 2 and 4 forced
//! workers, for error- and panic-mode faults alike. That property runs on
//! its own, larger world, where one update step merges several views and
//! tables span several morsels, so its parallel runs reach the merge
//! fan-out; a deterministic test there checks that a panic in a merge
//! worker is reported at the site of the fault that fired.

use mvmqo_integration_tests::{generate_deltas, parallel_coverage, small_world, SmallWorld};
use mvmqo_relalg::agg::{AggFunc, AggSpec};
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
use mvmqo_relalg::schema::AttrId;
use mvmqo_relalg::tuple::{bag_eq_approx, Tuple};
use mvmqo_relalg::types::Value;
use mvmqo_storage::delta::DeltaSet;
use mvmqo_warehouse::{FaultMode, FaultPlan, Warehouse, WarehouseError};
use proptest::prelude::*;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
            "mvmqo-chaos-{tag}-{}-{}",
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

/// Aborted epochs and atomic snapshot writes must leave no `.tmp` behind.
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
// The deterministic workload (same shape as the recovery fixture)
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

/// A fresh engine over the deterministic small world at `scale` with three
/// views sharing subexpressions: a filtered two-way join, the full
/// three-way join, and an aggregate (whose hidden per-group state must
/// survive aborts). Identical on every call.
fn engine_with_views(scale: usize) -> (SmallWorld, Warehouse) {
    let w = small_world(scale);
    let mirror = small_world(scale);
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

/// Scale of the sweep's and the kill-between test's world: small, so every
/// fault site is cheap to hit.
const SWEEP_SCALE: usize = 8;

const ROUNDS: [f64; 3] = [6.0, 4.0, 3.0];

fn round_deltas(mirror: &SmallWorld, round: usize) -> DeltaSet {
    generate_deltas(mirror, ROUNDS[round], 1000 + round as u64)
}

/// Run the 3-round workload with no faults armed.
fn run_workload(mirror: &mut SmallWorld, wh: &mut Warehouse) {
    for round in 0..ROUNDS.len() {
        let ds = round_deltas(mirror, round);
        for t in ds.tables().collect::<Vec<_>>() {
            wh.ingest(t, ds.get(t).unwrap().clone()).unwrap();
        }
        wh.run_epoch().unwrap();
        mirror.db.apply_all(&ds).unwrap();
    }
}

/// Current per-view answers (for exact pre-epoch assertions).
fn view_answers(wh: &Warehouse) -> Vec<(String, Vec<Tuple>)> {
    wh.views()
        .iter()
        .map(|v| (v.name.clone(), wh.query(&v.name).unwrap().rows))
        .collect()
}

/// Run the workload while a one-shot fault is armed. Any operation the
/// fault rejects is asserted to have left the engine on its pre-operation
/// state, then retried (the fault fires at most once, so the retry must
/// succeed). Returns how many operations were aborted.
fn run_workload_tolerant(mirror: &mut SmallWorld, wh: &mut Warehouse) -> usize {
    let mut aborted = 0;
    for round in 0..ROUNDS.len() {
        let ds = round_deltas(mirror, round);
        for t in ds.tables().collect::<Vec<_>>() {
            let batch = ds.get(t).unwrap().clone();
            if let Err(e) = wh.ingest(t, batch.clone()) {
                // A rejected ingest (injected WAL-append failure) must
                // leave both the log and the queue unchanged; re-issuing
                // the same batch succeeds.
                aborted += 1;
                wh.ingest(t, batch)
                    .unwrap_or_else(|e2| panic!("ingest retry failed: {e2} (after {e})"));
            }
        }
        let pre_epoch = wh.epoch();
        let pre_pending = wh.pending_tuples();
        let pre_views = view_answers(wh);
        if let Err(e) = wh.run_epoch() {
            aborted += 1;
            // Contract 1: typed, retryable abort; exact pre-epoch answers.
            assert!(
                matches!(e, WarehouseError::EpochAborted { .. }),
                "unexpected epoch error: {e}"
            );
            assert_eq!(wh.epoch(), pre_epoch, "abort advanced the epoch");
            assert_eq!(
                wh.pending_tuples(),
                pre_pending,
                "abort lost pending deltas"
            );
            assert!(wh.last_abort().is_some(), "abort left no trace");
            for (name, want) in &pre_views {
                let got = wh.query(name).unwrap().rows;
                assert!(
                    bag_eq_approx(&got, want, 1e-9),
                    "view {name} drifted across an abort ({e})"
                );
                assert!(wh.verify(name).unwrap(), "verify({name}) after abort");
            }
            // Contract 2 (first half): the fault is spent; retry commits.
            wh.run_epoch()
                .unwrap_or_else(|e2| panic!("epoch retry failed: {e2} (after {e})"));
        }
        mirror.db.apply_all(&ds).unwrap();
    }
    aborted
}

/// Tuple-identical equivalence: every base table and every view, as
/// multisets, plus per-view consistency against recomputation.
fn assert_engines_equivalent(got: &Warehouse, want: &Warehouse, context: &str) {
    assert_eq!(got.epoch(), want.epoch(), "epoch mismatch ({context})");
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
            "verify({}) ({context})",
            v.name
        );
    }
}

// ======================================================================
// The sweep: one case per distinct fault site (+ extras)
// ======================================================================

/// Record run: enumerate every fault-site crossing of the durable 3-round
/// workload. Serial execution is deterministic, so ordinal `k` names the
/// same crossing in every later run.
fn recorded_sites() -> Vec<&'static str> {
    let tmp = TempDir::new("record");
    let (mut mirror, mut wh) = engine_with_views(SWEEP_SCALE);
    wh.faults().record();
    wh.enable_wal(tmp.path()).unwrap();
    run_workload(&mut mirror, &mut wh);
    wh.faults().take_recorded()
}

/// Ordinals to test: the first crossing of every distinct site, plus
/// evenly spaced extra crossings up to the `CHAOS_CASES` cap (so CI can
/// bound the sweep without losing per-site coverage). `epoch:post-commit`
/// is excluded — past the commit point a fault is a crash, not an abort;
/// the kill-between test covers it.
fn chaos_ordinals(recorded: &[&'static str]) -> Vec<u64> {
    let mut chosen: Vec<u64> = Vec::new();
    let mut seen = HashSet::new();
    for (i, site) in recorded.iter().enumerate() {
        if *site != "epoch:post-commit" && seen.insert(*site) {
            chosen.push(i as u64);
        }
    }
    let cap: usize = std::env::var("CHAOS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
        .max(chosen.len());
    let extras = cap - chosen.len();
    for j in 0..extras {
        let k = (recorded.len() * (j + 1) / (extras + 1)) as u64;
        if recorded[k as usize] != "epoch:post-commit" && !chosen.contains(&k) {
            chosen.push(k);
        }
    }
    chosen.sort_unstable();
    chosen
}

#[test]
fn chaos_sweep_every_fault_site_aborts_cleanly_and_converges() {
    let recorded = recorded_sites();
    assert!(
        recorded.len() >= 20,
        "workload crosses too few fault sites: {recorded:?}"
    );
    let distinct: HashSet<_> = recorded.iter().copied().collect();
    for site in [
        "wal:append",
        "wal:commit",
        "epoch:post-commit",
        "snapshot:write",
    ] {
        assert!(
            distinct.contains(site),
            "durability site {site} never crossed"
        );
    }
    assert!(
        distinct.iter().filter(|s| s.starts_with("exec:")).count() >= 4,
        "too few executor sites crossed: {distinct:?}"
    );

    // Fault-free ground truth.
    let (mut mirror, mut want) = engine_with_views(SWEEP_SCALE);
    run_workload(&mut mirror, &mut want);

    let ordinals = chaos_ordinals(&recorded);
    for &k in &ordinals {
        let site = recorded[k as usize];
        let context = format!("fault at ordinal {k} ({site})");
        let tmp = TempDir::new("sweep");
        let (mut mirror, mut wh) = engine_with_views(SWEEP_SCALE);
        wh.faults().arm(FaultPlan::ordinal(k, FaultMode::Error));
        // `enable_wal` itself crosses snapshot:write; tolerate and retry.
        if wh.enable_wal(tmp.path()).is_err() {
            wh.enable_wal(tmp.path()).unwrap();
        }
        let aborted = run_workload_tolerant(&mut mirror, &mut wh);
        assert!(
            aborted <= 1,
            "one-shot fault aborted {aborted} operations ({context})"
        );
        let fired = wh.faults().fired();
        assert!(
            fired.is_some(),
            "armed fault never fired — ordinal drifted ({context})"
        );
        assert_eq!(fired.unwrap().site, site, "site drifted ({context})");

        // Contract 2: bag-identical to the fault-free run.
        assert_engines_equivalent(&wh, &want, &context);

        // Contract 3: the directory the faulty run left behind recovers
        // to the same engine, and no temp files leaked.
        assert_no_tmp_files(tmp.path());
        drop(wh);
        let rec = Warehouse::recover(tmp.path())
            .unwrap_or_else(|e| panic!("recovery failed ({context}): {e}"));
        assert_engines_equivalent(&rec, &want, &format!("{context}, recovered"));
    }
}

// ======================================================================
// Kill between WAL commit and install
// ======================================================================

/// A crash injected after the `EpochCommit` record is durable but before
/// the staged state is installed must recover INTO the committed epoch:
/// the WAL record precedes every in-memory mutation, so recovery replays
/// the epoch the dying process never got to install.
#[test]
fn crash_between_wal_commit_and_install_recovers_into_the_epoch() {
    let tmp = TempDir::new("killbetween");
    let (mut mirror, mut wh) = engine_with_views(SWEEP_SCALE);
    wh.enable_wal(tmp.path()).unwrap();
    wh.faults()
        .arm(FaultPlan::site("epoch:post-commit", 0, FaultMode::Panic));
    let ds = round_deltas(&mirror, 0);
    for t in ds.tables().collect::<Vec<_>>() {
        wh.ingest(t, ds.get(t).unwrap().clone()).unwrap();
    }
    let pre_epoch = wh.epoch();
    let died = catch_unwind(AssertUnwindSafe(|| wh.run_epoch()));
    assert!(died.is_err(), "post-commit crash point did not fire");
    // The process "died" mid-transaction: in-memory state never advanced.
    assert_eq!(wh.epoch(), pre_epoch);
    drop(wh);

    // Ground truth: the same workload prefix, committed without faults.
    let (_, mut want) = engine_with_views(SWEEP_SCALE);
    for t in ds.tables().collect::<Vec<_>>() {
        want.ingest(t, ds.get(t).unwrap().clone()).unwrap();
    }
    want.run_epoch().unwrap();
    mirror.db.apply_all(&ds).unwrap();

    let rec = Warehouse::recover(tmp.path()).unwrap();
    assert_eq!(
        rec.epoch(),
        pre_epoch + 1,
        "recovery must land ON the committed epoch"
    );
    assert_engines_equivalent(&rec, &want, "kill between commit and install");
    assert_no_tmp_files(tmp.path());
}

// ======================================================================
// Abort → retry under the merge fan-out: serial, 2 and 4 workers
// ======================================================================

/// Scale of the abort-retry world: large enough that its plans merge two
/// or more views in one update step and scan tables past one morsel (1024
/// rows), so the 2- and 4-worker runs exercise the merge fan-out and the
/// morsel paths instead of repeating the serial run.
const PAR_SCALE: usize = 1000;

/// Update rate (percent) of both abort-retry rounds.
const PAR_PERCENT: f64 = 1.0;

/// What one abort-retry run saw.
struct AbortRetry {
    /// Per-view answers after convergence.
    views: Vec<(String, Vec<Tuple>)>,
    /// The site `EpochAborted` named, if the faulted epoch aborted.
    abort_site: Option<String>,
    /// `parallel_coverage` of the program the faulted round ran.
    coverage: (usize, usize),
}

/// One `ingest → (faulted) epoch → retry` cycle on the abort-retry world,
/// at `workers` forced workers (0 = serial). Round 1 establishes the
/// materializations fault-free; round 2 runs with `fault` armed, and an
/// abort must leave the exact pre-epoch answers served before the retry.
fn abort_retry(fault: Option<FaultPlan>, workers: usize) -> AbortRetry {
    let (mut mirror, mut wh) = engine_with_views(PAR_SCALE);
    if workers > 0 {
        wh.set_parallel(true);
        wh.set_threads(workers);
        // Exercise the real parallel paths even on 1-core CI hosts.
        wh.set_force_parallel(true);
    }
    let ds = generate_deltas(&mirror, PAR_PERCENT, 2000);
    for t in ds.tables().collect::<Vec<_>>() {
        wh.ingest(t, ds.get(t).unwrap().clone()).unwrap();
    }
    wh.run_epoch().unwrap();
    mirror.db.apply_all(&ds).unwrap();

    // Panics unwind to us (no WAL is attached, so even a post-commit
    // "crash" leaves a retryable engine).
    let ds = generate_deltas(&mirror, PAR_PERCENT, 2001);
    for t in ds.tables().collect::<Vec<_>>() {
        wh.ingest(t, ds.get(t).unwrap().clone()).unwrap();
    }
    let (pre_epoch, pre_views) = (wh.epoch(), view_answers(&wh));
    if let Some(fault) = fault {
        wh.faults().arm(fault);
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| wh.run_epoch()));
    let abort_site = match outcome {
        Ok(Ok(_)) => None, // ordinal past the workload's crossings: no fire
        Ok(Err(_)) | Err(_) => {
            assert_eq!(wh.epoch(), pre_epoch, "failed epoch advanced state");
            for (name, want) in &pre_views {
                let got = wh.query(name).unwrap().rows;
                assert!(
                    bag_eq_approx(&got, want, 1e-9),
                    "view {name} drifted across an abort at {workers} workers"
                );
            }
            wh.faults().clear();
            wh.run_epoch().expect("retry after abort");
            match outcome {
                Ok(Err(WarehouseError::EpochAborted { site, .. })) => Some(site),
                _ => None,
            }
        }
    };
    let coverage = parallel_coverage(&wh.current_report().unwrap().program, wh.database());
    AbortRetry {
        views: view_answers(&wh),
        abort_site,
        coverage,
    }
}

/// The fault-free serial run, computed once for every case below.
fn fault_free() -> &'static AbortRetry {
    static RUN: OnceLock<AbortRetry> = OnceLock::new();
    RUN.get_or_init(|| abort_retry(None, 0))
}

fn assert_converged(got: &AbortRetry, context: &str) {
    let want = fault_free();
    assert_eq!(got.views.len(), want.views.len());
    for ((name, g), (_, w)) in got.views.iter().zip(&want.views) {
        assert!(
            bag_eq_approx(g, w, 1e-9),
            "view {name} diverged ({context})"
        );
    }
}

/// A panic-mode fault in a merge-delta plan names its own site in the
/// abort whether the plan ran on the caller's thread or on a merge worker,
/// and the retry converges. `exec:scan-delta` is crossed only by
/// differential plans, and this world has no temporary differentials, so
/// its first crossing falls in the first step's merge-delta evaluation.
#[test]
fn panic_in_a_merge_worker_names_the_fault_site() {
    for workers in [0usize, 2, 4] {
        let site = "exec:scan-delta";
        let got = abort_retry(Some(FaultPlan::site(site, 0, FaultMode::Panic)), workers);
        assert_eq!(
            got.abort_site.as_deref(),
            Some(site),
            "abort site at {workers} workers"
        );
        assert_converged(&got, &format!("{workers} workers"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `ingest → fault-aborted epoch → retry` converges to the exact
    /// fault-free result for every view, serially and at 2 and 4 forced
    /// workers, whether the fault fires as a typed error or as a panic.
    #[test]
    fn abort_then_retry_is_identical_to_fault_free(
        ordinal in 0u64..60,
        err_mode in proptest::bool::ANY,
    ) {
        let mode = if err_mode { FaultMode::Error } else { FaultMode::Panic };
        for workers in [0usize, 2, 4] {
            let got = abort_retry(Some(FaultPlan::ordinal(ordinal, mode)), workers);
            // Non-vacuous by construction: some step fans out over two or
            // more merge-delta plans, and some scan spans several morsels.
            let (max_merges, largest_scan) = got.coverage;
            prop_assert!(max_merges >= 2, "no step plans two merges");
            prop_assert!(largest_scan > 1024, "no scan spans two morsels");
            assert_converged(&got, &format!("{mode:?}/{workers} workers at ordinal {ordinal}"));
        }
    }
}
