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
//! The sweep's workload registers one view and drops another after
//! `enable_wal`, so faults also land on the WAL appends of view-DDL
//! records; a DDL call that fails must leave the view set and the WAL
//! unchanged.
//!
//! Alongside it: the kill-between test (a crash injected *between* the WAL
//! commit record and the in-memory install must recover INTO the committed
//! epoch — the commit record precedes every in-memory mutation), and a
//! property test that `ingest → fault-aborted epoch → retry` is
//! view-identical to the fault-free run, for error- and panic-mode faults
//! alike. That property runs on its own, larger world, where one update
//! step merges several views; a deterministic test there checks that a
//! panic in a merge-delta plan is reported at the site of the fault that
//! fired.

use mvmqo_integration_tests::{generate_deltas, small_world, SmallWorld};
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
use std::collections::{BTreeMap, HashSet};
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
    let (mirror, mut wh, totals) = engine_with_two_views(scale);
    wh.register_view(totals).unwrap();
    (mirror, wh)
}

/// [`engine_with_views`] before its last step: the two join views are
/// registered, and the aggregate `totals` comes back unregistered.
fn engine_with_two_views(scale: usize) -> (SmallWorld, Warehouse, ViewDef) {
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
    let totals = ViewDef::new(
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
    );
    (mirror, wh, totals)
}

/// Scale of the sweep's and the kill-between test's world: small, so every
/// fault site is cheap to hit.
const SWEEP_SCALE: usize = 8;

const ROUNDS: [f64; 3] = [6.0, 4.0, 3.0];

fn round_deltas(mirror: &SmallWorld, round: usize) -> DeltaSet {
    generate_deltas(mirror, ROUNDS[round], 1000 + round as u64)
}

/// View DDL the sweep's workload runs after `enable_wal`, so faults land
/// on `RegisterView`/`DropView` records.
#[derive(Clone, Copy)]
enum Ddl {
    /// Register the aggregate `totals`.
    RegisterTotals,
    /// Drop `filtered`.
    DropFiltered,
}

/// The DDL call the sweep's workload makes before `round`, if any.
fn ddl_before(round: usize) -> Option<Ddl> {
    match round {
        0 => Some(Ddl::RegisterTotals),
        2 => Some(Ddl::DropFiltered),
        _ => None,
    }
}

/// The sweep's engine and the mirror its deltas are generated from. It
/// starts with the two join views; its workload registers `totals` and
/// drops `filtered`.
struct Sweep {
    mirror: SmallWorld,
    wh: Warehouse,
    totals: ViewDef,
}

impl Sweep {
    fn new() -> Sweep {
        let (mirror, wh, totals) = engine_with_two_views(SWEEP_SCALE);
        Sweep { mirror, wh, totals }
    }

    fn ddl(&mut self, ddl: Ddl) -> Result<(), WarehouseError> {
        match ddl {
            Ddl::RegisterTotals => self.wh.register_view(self.totals.clone()).map(|_| ()),
            Ddl::DropFiltered => self.wh.drop_view("filtered"),
        }
    }

    /// Ingest one round's deltas and run its epoch, with no faults armed.
    fn run_round(&mut self, round: usize) {
        let ds = round_deltas(&self.mirror, round);
        for t in ds.tables().collect::<Vec<_>>() {
            self.wh.ingest(t, ds.get(t).unwrap().clone()).unwrap();
        }
        self.wh.run_epoch().unwrap();
        self.mirror.db.apply_all(&ds).unwrap();
    }

    /// Run the workload (DDL and 3 rounds) with no faults armed.
    fn run_workload(&mut self) {
        for round in 0..ROUNDS.len() {
            if let Some(ddl) = ddl_before(round) {
                self.ddl(ddl).unwrap();
            }
            self.run_round(round);
        }
    }
}

/// Every file in `dir` with its bytes: a failed DDL call must leave the
/// durable state exactly as it found it.
fn dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

fn view_names(wh: &Warehouse) -> Vec<String> {
    wh.views().iter().map(|v| v.name.clone()).collect()
}

/// Current per-view answers (for exact pre-epoch assertions).
fn view_answers(wh: &Warehouse) -> Vec<(String, Vec<Tuple>)> {
    wh.views()
        .iter()
        .map(|v| (v.name.clone(), wh.query(&v.name).unwrap().rows))
        .collect()
}

/// Run the sweep's workload while a one-shot fault is armed. Any
/// operation the fault rejects is asserted to have left the engine on its
/// pre-operation state, then retried (the fault fires at most once, so the
/// retry must succeed). `dir` is the engine's durable directory. Returns
/// how many operations were aborted.
fn run_workload_tolerant(sweep: &mut Sweep, dir: &Path) -> usize {
    let mut aborted = 0;
    for round in 0..ROUNDS.len() {
        if let Some(ddl) = ddl_before(round) {
            let (pre_views, pre_files) = (view_names(&sweep.wh), dir_bytes(dir));
            if let Err(e) = sweep.ddl(ddl) {
                // A rejected DDL call (injected WAL-append failure) leaves
                // the view set and the log unchanged; re-issuing succeeds.
                aborted += 1;
                assert_eq!(
                    view_names(&sweep.wh),
                    pre_views,
                    "DDL abort changed views ({e})"
                );
                assert!(
                    dir_bytes(dir) == pre_files,
                    "DDL abort wrote to {} ({e})",
                    dir.display()
                );
                sweep
                    .ddl(ddl)
                    .unwrap_or_else(|e2| panic!("DDL retry failed: {e2} (after {e})"));
            }
        }
        let (mirror, wh) = (&mut sweep.mirror, &mut sweep.wh);
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

/// Record run: enumerate every fault-site crossing of the sweep's durable
/// workload, and the ordinals its DDL calls crossed. Serial execution is
/// deterministic, so ordinal `k` names the same crossing in every later
/// run. Recording restarts around each DDL call; the registry counts
/// ordinals from zero on `arm`, so the segments concatenate to them.
fn recorded_sites() -> (Vec<&'static str>, Vec<u64>) {
    let tmp = TempDir::new("record");
    let mut sweep = Sweep::new();
    let (mut sites, mut ddl_ordinals) = (Vec::new(), Vec::new());
    sweep.wh.faults().record();
    sweep.wh.enable_wal(tmp.path()).unwrap();
    for round in 0..ROUNDS.len() {
        if let Some(ddl) = ddl_before(round) {
            sites.extend(sweep.wh.faults().take_recorded());
            sweep.wh.faults().record();
            sweep.ddl(ddl).unwrap();
            let crossed = sweep.wh.faults().take_recorded();
            ddl_ordinals.extend((sites.len()..sites.len() + crossed.len()).map(|k| k as u64));
            sites.extend(crossed);
            sweep.wh.faults().record();
        }
        sweep.run_round(round);
    }
    sites.extend(sweep.wh.faults().take_recorded());
    (sites, ddl_ordinals)
}

/// Ordinals to test: the first crossing of every distinct site and every
/// crossing a DDL call made, plus evenly spaced extra crossings up to the
/// `CHAOS_CASES` cap (so CI can bound the sweep without losing per-site
/// coverage). `epoch:post-commit` is excluded — past the commit point a
/// fault is a crash, not an abort; the kill-between test covers it.
fn chaos_ordinals(recorded: &[&'static str], ddl_ordinals: &[u64]) -> Vec<u64> {
    let mut chosen: Vec<u64> = ddl_ordinals.to_vec();
    let mut seen = HashSet::new();
    for (i, site) in recorded.iter().enumerate() {
        if *site != "epoch:post-commit" && seen.insert(*site) && !chosen.contains(&(i as u64)) {
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
    let (recorded, ddl_ordinals) = recorded_sites();
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
    // Both DDL records are appended through the faultable WAL path.
    let ddl_appends = ddl_ordinals
        .iter()
        .filter(|&&k| recorded[k as usize] == "wal:append")
        .count();
    assert_eq!(ddl_appends, 2, "DDL crossings: {ddl_ordinals:?}");

    // Fault-free ground truth.
    let mut want = Sweep::new();
    want.run_workload();
    let want = want.wh;

    let ordinals = chaos_ordinals(&recorded, &ddl_ordinals);
    for &k in &ordinals {
        let site = recorded[k as usize];
        let context = format!("fault at ordinal {k} ({site})");
        let tmp = TempDir::new("sweep");
        let mut sweep = Sweep::new();
        sweep
            .wh
            .faults()
            .arm(FaultPlan::ordinal(k, FaultMode::Error));
        // `enable_wal` itself crosses snapshot:write; tolerate and retry.
        if sweep.wh.enable_wal(tmp.path()).is_err() {
            sweep.wh.enable_wal(tmp.path()).unwrap();
        }
        let aborted = run_workload_tolerant(&mut sweep, tmp.path());
        assert!(
            aborted <= 1,
            "one-shot fault aborted {aborted} operations ({context})"
        );
        let wh = sweep.wh;
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
// Abort → retry across one step's merge-delta plans
// ======================================================================

/// Scale of the abort-retry world: large enough that its plans merge two
/// or more views in one update step.
const RETRY_SCALE: usize = 1000;

/// Update rate (percent) of both abort-retry rounds.
const RETRY_PERCENT: f64 = 1.0;

/// What one abort-retry run saw.
struct AbortRetry {
    /// Per-view answers after convergence.
    views: Vec<(String, Vec<Tuple>)>,
    /// The site `EpochAborted` named, if the faulted epoch aborted.
    abort_site: Option<String>,
    /// The most merge-delta plans one update step of the faulted round's
    /// program evaluates.
    max_merges: usize,
}

/// One `ingest → (faulted) epoch → retry` cycle on the abort-retry world.
/// Round 1 establishes the materializations fault-free; round 2 runs with
/// `fault` armed, and an abort must leave the exact pre-epoch answers
/// served before the retry.
fn abort_retry(fault: Option<FaultPlan>) -> AbortRetry {
    let (mut mirror, mut wh) = engine_with_views(RETRY_SCALE);
    let ds = generate_deltas(&mirror, RETRY_PERCENT, 2000);
    for t in ds.tables().collect::<Vec<_>>() {
        wh.ingest(t, ds.get(t).unwrap().clone()).unwrap();
    }
    wh.run_epoch().unwrap();
    mirror.db.apply_all(&ds).unwrap();

    // Panics unwind to us (no WAL is attached, so even a post-commit
    // "crash" leaves a retryable engine).
    let ds = generate_deltas(&mirror, RETRY_PERCENT, 2001);
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
                    "view {name} drifted across an abort"
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
    let steps = &wh.current_report().unwrap().program.steps;
    let max_merges = steps.iter().map(|s| s.merges.len()).max().unwrap_or(0);
    AbortRetry {
        views: view_answers(&wh),
        abort_site,
        max_merges,
    }
}

/// The fault-free run, computed once for every case below.
fn fault_free() -> &'static AbortRetry {
    static RUN: OnceLock<AbortRetry> = OnceLock::new();
    RUN.get_or_init(|| abort_retry(None))
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
/// abort, and the retry converges. `exec:scan-delta` is crossed only by
/// differential plans, and this world has no temporary differentials, so
/// its first crossing falls in the first step's merge-delta evaluation.
#[test]
fn panic_in_a_merge_delta_plan_names_the_fault_site() {
    let site = "exec:scan-delta";
    let got = abort_retry(Some(FaultPlan::site(site, 0, FaultMode::Panic)));
    assert_eq!(got.abort_site.as_deref(), Some(site));
    assert_converged(&got, site);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `ingest → fault-aborted epoch → retry` converges to the exact
    /// fault-free result for every view, whether the fault fires as a
    /// typed error or as a panic.
    #[test]
    fn abort_then_retry_is_identical_to_fault_free(
        ordinal in 0u64..60,
        err_mode in proptest::bool::ANY,
    ) {
        let mode = if err_mode { FaultMode::Error } else { FaultMode::Panic };
        let got = abort_retry(Some(FaultPlan::ordinal(ordinal, mode)));
        // Non-vacuous by construction: some step evaluates two or more
        // merge-delta plans against one prepared state.
        prop_assert!(got.max_merges >= 2, "no step plans two merges");
        assert_converged(&got, &format!("{mode:?} at ordinal {ordinal}"));
    }
}
