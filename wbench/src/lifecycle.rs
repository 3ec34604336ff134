//! The warehouse life-cycle every workload runs, through `Warehouse`'s
//! public functions only:
//!
//! A setup → B measured window → C view-set change probe → D answer check
//! → E durability. One closed-loop client: the next call is issued when the
//! previous one returns. Generator time is never inside a timed region; the
//! durations returned here are sums of the engine calls alone.

use crate::spec::{
    Inputs, Spec, CHECKPOINTS_BEFORE_TAIL, CHECKPOINTS_PER_RECOVERY, TAIL_CYCLES, WARMUP_CYCLES,
};
use crate::trace::{Phase, Tracer, NO_CYCLE};
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::logical::ViewDef;
use mvmqo_relalg::tuple::{bag_eq_approx, Tuple};
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::{DeltaBatch, DeltaSet};
use mvmqo_tpcd::{epoch_updates, Tpcd};
use mvmqo_warehouse::{EpochReport, ReoptPolicy, Warehouse};
use std::collections::hash_map::DefaultHasher;
use std::fmt::Display;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Relative tolerance of the answer check on floats: incremental SUM/AVG
/// maintenance reassociates additions.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// The run cannot continue (an engine call returned `Err`, or the harness
/// itself failed). Already counted in [`Ops::failed`] where it was an
/// engine operation.
#[derive(Debug)]
pub struct Fatal(pub String);

impl Display for Fatal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Operations attempted against the engine (calls and answer checks) and
/// how many of them failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// What the life-cycle threads through every call: the span recorder (off in
/// the end-to-end run) and the operation counts.
pub struct Ctx {
    pub tracer: Tracer,
    pub ops: Ops,
}

impl Ctx {
    pub fn new(traced: bool) -> Ctx {
        Ctx {
            tracer: Tracer::new(traced),
            ops: Ops::default(),
        }
    }

    /// Time one fallible engine call and count it as an operation.
    pub fn call<T, E: Display>(
        &mut self,
        name: &'static str,
        cycle: i64,
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, Duration), Fatal> {
        self.ops.attempted += 1;
        match self.tracer.time(name, cycle, f) {
            (Ok(v), d) => Ok((v, d)),
            (Err(e), _) => {
                self.ops.failed += 1;
                Err(Fatal(format!("{name} failed (cycle {cycle}): {e}")))
            }
        }
    }

    /// Count one answer check; a mismatch is a failed operation but not
    /// fatal, so every check still runs and is reported.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.ops.attempted += 1;
        if !ok {
            self.ops.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }
}

/// One engine under test and its position in the input streams.
pub struct Engine {
    pub wh: Warehouse,
    /// Views currently out of the engine (churn workloads): each cycle
    /// registers these and parks the ones it dropped, so the view set
    /// rotates through a fixed pool and the window stays a steady state.
    parked: Vec<ViewDef>,
    /// Next cycle of the delta stream.
    pub next_cycle: u64,
    /// Fingerprint of the database and of every delta set generated for
    /// this engine so far.
    pub fp: Fingerprint,
}

/// Timings of one cycle; `total` is what the user waits for.
pub struct CycleSample {
    pub churn: Duration,
    pub ingest: Duration,
    pub epoch: Duration,
    pub tuples: usize,
    pub report: EpochReport,
}

impl CycleSample {
    pub fn total(&self) -> Duration {
        self.churn + self.ingest + self.epoch
    }
}

/// Order-independent fingerprint of everything the generator produced: row
/// counts plus a wrapping sum of per-row hashes (SipHash with the fixed
/// default key, so it repeats across processes). The update generator picks
/// delete victims out of a `HashSet`, so only the multiset is reproducible.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub rows: u64,
    pub hash: u64,
}

impl Fingerprint {
    fn add_row(&mut self, tag: u64, row: &Tuple) {
        let mut h = DefaultHasher::new();
        tag.hash(&mut h);
        row.hash(&mut h);
        self.rows += 1;
        self.hash = self.hash.wrapping_add(h.finish());
    }

    pub fn of_database(tpcd: &Tpcd, db: &Database) -> Fingerprint {
        let mut fp = Fingerprint::default();
        for t in tpcd.t.all() {
            if let Ok(table) = db.base(t) {
                for row in table.rows() {
                    fp.add_row(t.0 as u64, row);
                }
            }
        }
        fp
    }

    fn add_deltas(&mut self, cycle: u64, deltas: &DeltaSet) {
        for t in deltas.tables() {
            let Some(batch) = deltas.get(t) else { continue };
            let tag = (cycle + 1) << 16 | (t.0 as u64) << 1;
            for row in &batch.inserts {
                self.add_row(tag, row);
            }
            for row in &batch.deletes {
                self.add_row(tag | 1, row);
            }
        }
    }

    /// The low 48 bits of hash + rows: exact in an `f64`, so it can travel
    /// as a metric value.
    pub fn as_metric(&self) -> f64 {
        (self.hash.wrapping_add(self.rows) & ((1 << 48) - 1)) as f64
    }
}

/// Generate the next cycle's deltas against the engine's current base
/// tables. Untimed: callers keep it outside every timed region.
///
/// The generator's batches insert twice as many rows as they delete (the
/// paper's growing database). A measured window over a growing database is
/// not a steady state — every cycle costs more than the one before, and a
/// median over such a series is the value of its middle cycle — so each
/// batch's inserts are cut to the number of its deletes: table sizes, and
/// with them the cost of a cycle, stay level over the run.
pub fn next_deltas(
    ctx: &mut Ctx,
    spec: &Spec,
    inputs: &Inputs,
    eng: &mut Engine,
) -> Result<DeltaSet, Fatal> {
    let c = eng.next_cycle;
    let (deltas, _) = ctx.tracer.time("tpcd.generate_deltas", c as i64, || {
        epoch_updates(
            &inputs.tpcd,
            eng.wh.database(),
            spec.profile,
            c,
            inputs.seed,
        )
    });
    let generated = deltas.map_err(|e| Fatal(format!("generating deltas for cycle {c}: {e}")))?;
    let mut deltas = DeltaSet::new();
    for table in generated.tables() {
        if let Some(batch) = generated.get(table) {
            let mut batch = batch.clone();
            batch.inserts.truncate(batch.deletes.len());
            deltas.insert(table, batch);
        }
    }
    eng.fp.add_deltas(c, &deltas);
    Ok(deltas)
}

/// Phase A, first half: construct the engine, register the views, turn the
/// WAL on. Returns the engine and the time the engine calls took.
pub fn build(
    ctx: &mut Ctx,
    spec: &Spec,
    inputs: &Inputs,
    wal_dir: &Path,
) -> Result<(Engine, Duration), Fatal> {
    ctx.tracer.set_phase(Phase::Setup);
    let token = ctx.tracer.enter("build", NO_CYCLE);
    let (catalog, db) = (inputs.tpcd.catalog.clone(), inputs.db.clone());
    let (mut wh, mut timed) = ctx.tracer.time("warehouse.new", NO_CYCLE, || {
        let mut wh = Warehouse::new(catalog, db);
        if let Some(delta_fraction) = spec.drift_fraction {
            wh = wh.with_policy(ReoptPolicy {
                delta_fraction,
                ..ReoptPolicy::default()
            });
        }
        if spec.workers > 1 {
            // Forced: the scheduler under test must run even where the
            // engine would auto-disable it.
            wh.set_parallel(true);
            wh.set_threads(spec.workers);
            wh.set_force_parallel(true);
        }
        wh
    });
    for view in inputs.views[..spec.base_views].iter().cloned() {
        timed += ctx
            .call("warehouse.register_view", NO_CYCLE, || {
                wh.register_view(view).map(|_| ())
            })?
            .1;
    }
    if spec.wal_in_window {
        let _ = std::fs::remove_dir_all(wal_dir);
        timed += ctx
            .call("warehouse.enable_wal", NO_CYCLE, || wh.enable_wal(wal_dir))?
            .1;
    }
    ctx.tracer.exit(token);
    let eng = Engine {
        wh,
        parked: inputs.views[spec.base_views..].to_vec(),
        next_cycle: 0,
        fp: inputs.fingerprint,
    };
    Ok((eng, timed))
}

/// Phase A: build an engine and run the warm-up cycles that bring it to
/// steady state. Returns the engine and the time the engine calls took.
pub fn setup(
    ctx: &mut Ctx,
    spec: &Spec,
    inputs: &Inputs,
    wal_dir: &Path,
) -> Result<(Engine, Duration), Fatal> {
    let (mut eng, mut timed) = build(ctx, spec, inputs, wal_dir)?;
    for _ in 0..WARMUP_CYCLES {
        let deltas = next_deltas(ctx, spec, inputs, &mut eng)?;
        timed += cycle(ctx, spec, &mut eng, &deltas, true)?.total();
    }
    Ok((eng, timed))
}

/// One cycle: the workload's view swaps (drop the oldest views, register the
/// parked ones; skipped unless `churn`), `ingest` per table, `run_epoch`.
pub fn cycle(
    ctx: &mut Ctx,
    spec: &Spec,
    eng: &mut Engine,
    deltas: &DeltaSet,
    churn: bool,
) -> Result<CycleSample, Fatal> {
    let c = eng.next_cycle as i64;
    // Everything the calls consume is prepared before the cycle span opens.
    let batches: Vec<(TableId, DeltaBatch)> = deltas
        .tables()
        .filter_map(|t| deltas.get(t).map(|b| (t, b.clone())))
        .collect();
    let swaps = if churn { spec.swaps_per_cycle } else { 0 };
    let dropped: Vec<ViewDef> = eng.wh.views().iter().take(swaps).cloned().collect();
    let added = if swaps > 0 {
        std::mem::take(&mut eng.parked)
    } else {
        Vec::new()
    };
    if dropped.len() != swaps || added.len() != swaps {
        return Err(Fatal(format!(
            "cycle {c}: {swaps} swaps but {} parked views",
            added.len()
        )));
    }

    let token = ctx.tracer.enter("cycle", c);
    let mut churn_time = Duration::ZERO;
    for (oldest, next) in dropped.iter().zip(added) {
        churn_time += ctx
            .call("warehouse.drop_view", c, || eng.wh.drop_view(&oldest.name))?
            .1;
        churn_time += ctx
            .call("warehouse.register_view", c, || {
                eng.wh.register_view(next).map(|_| ())
            })?
            .1;
    }
    if swaps > 0 {
        eng.parked = dropped;
    }
    let mut ingest = Duration::ZERO;
    let mut tuples = 0;
    for (table, batch) in batches {
        let (n, d) = ctx.call("warehouse.ingest", c, || eng.wh.ingest(table, batch))?;
        tuples += n;
        ingest += d;
    }
    let (report, epoch) = ctx.call("warehouse.run_epoch", c, || eng.wh.run_epoch())?;
    ctx.tracer.exit(token);
    eng.next_cycle += 1;
    Ok(CycleSample {
        churn: churn_time,
        ingest,
        epoch,
        tuples,
        report,
    })
}

/// Let the allocator finish what the epoch left it. `run_epoch` frees its
/// staged clones and the ingested rows — hundreds of thousands of small
/// chunks — and glibc defers merging them until the next large request, so
/// whoever allocates next pays milliseconds for it, by an amount that
/// depends on the heap's state. Billed to a 60 µs read of a 63-row view it
/// would make `query_first_ms_p50` measure the allocator, not the "cold row
/// derivation" it is defined as. A few large requests, untimed, trigger the
/// merge here. (The epoch's own frees stay inside `epoch_ms`.)
pub fn settle_allocator() {
    const BLOCK: usize = 1 << 20;
    let mut fast = 0;
    for _ in 0..64 {
        let start = std::time::Instant::now();
        let block = black_box(Vec::<u8>::with_capacity(BLOCK));
        drop(block);
        fast = if start.elapsed() < Duration::from_micros(20) {
            fast + 1
        } else {
            0
        };
        if fast == 3 {
            break;
        }
    }
}

/// Read every registered view once. Returns the summed `query` time and
/// the rows served.
pub fn query_round(
    ctx: &mut Ctx,
    eng: &Engine,
    span: &'static str,
) -> Result<(Duration, usize), Fatal> {
    let c = eng.next_cycle as i64 - 1;
    let names: Vec<String> = eng.wh.views().iter().map(|v| v.name.clone()).collect();
    let token = ctx.tracer.enter(span, c);
    let (mut total, mut rows) = (Duration::ZERO, 0);
    for name in &names {
        let (res, d) = ctx.call("warehouse.query", c, || eng.wh.query(name))?;
        rows += black_box(res.rows.len());
        total += d;
    }
    ctx.tracer.exit(token);
    Ok((total, rows))
}

/// Phase C, one burst: `rounds` × (register the extra view, drop it again).
/// Returns, per round, the time of the two replans it caused.
pub fn probe_burst(
    ctx: &mut Ctx,
    inputs: &Inputs,
    wh: &mut Warehouse,
    rounds: usize,
) -> Result<Vec<Duration>, Fatal> {
    ctx.tracer.set_phase(Phase::Probe);
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let before = wh.replans().len();
        let extra = inputs.extra.clone();
        let name = extra.name.clone();
        ctx.call("warehouse.register_view", NO_CYCLE, || {
            wh.register_view(extra).map(|_| ())
        })?;
        ctx.call("warehouse.drop_view", NO_CYCLE, || wh.drop_view(&name))?;
        samples.push(wh.replans()[before..].iter().map(|r| r.elapsed).sum());
    }
    Ok(samples)
}

/// Every view's current answer, in registration order.
pub fn answers(ctx: &mut Ctx, wh: &Warehouse) -> Result<Vec<(String, Vec<Tuple>)>, Fatal> {
    let names: Vec<String> = wh.views().iter().map(|v| v.name.clone()).collect();
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        let (res, _) = ctx.call("warehouse.query", NO_CYCLE, || wh.query(&name))?;
        out.push((name, res.rows));
    }
    Ok(out)
}

/// Compare two answer sets view by view, as multisets.
pub fn check_answers(
    ctx: &mut Ctx,
    what: &str,
    got: &[(String, Vec<Tuple>)],
    want: &[(String, Vec<Tuple>)],
) {
    ctx.check(&format!("{what}: same views"), got.len() == want.len());
    for ((name, a), (name_b, b)) in got.iter().zip(want) {
        let ok = name == name_b && bag_eq_approx(a, b, FLOAT_TOLERANCE);
        ctx.check(
            &format!("{what}: view {name} ({} vs {} rows)", a.len(), b.len()),
            ok,
        );
    }
}

/// Phase D: recompute every view through a second, fresh engine on a clone
/// of the final base tables (one delta-free epoch builds them) and compare.
/// `Warehouse::verify` is not used: its row reference executor does not
/// finish at these sizes.
pub fn answer_check(ctx: &mut Ctx, eng: &Engine) -> Result<(), Fatal> {
    ctx.tracer.set_phase(Phase::Check);
    let token = ctx.tracer.enter("check", NO_CYCLE);
    let mut fresh = Warehouse::new(eng.wh.catalog().clone(), eng.wh.database().clone());
    for view in eng.wh.views().to_vec() {
        ctx.call("warehouse.register_view", NO_CYCLE, || {
            fresh.register_view(view).map(|_| ())
        })?;
    }
    ctx.call("warehouse.run_epoch", NO_CYCLE, || fresh.run_epoch())?;
    let want = answers(ctx, &fresh)?;
    let got = answers(ctx, &eng.wh)?;
    check_answers(ctx, "maintained vs recomputed", &got, &want);
    ctx.tracer.exit(token);
    Ok(())
}

/// What phase E measured.
pub struct Durability {
    pub save: Vec<Duration>,
    pub recover: Vec<Duration>,
    /// Probe rounds run on the recovered engines.
    pub replan: Vec<Duration>,
    pub snapshot_bytes: u64,
    pub user_bytes: u64,
    pub wal_bytes: u64,
    pub tail_tuples: usize,
    pub replayed_records: usize,
    /// Fingerprint of the whole input stream the engine consumed.
    pub fingerprint: Fingerprint,
}

/// Phase E: checkpoints, a durable WAL tail, shutdown, recovery on a copy of
/// the directory; recovered answers and epoch must equal the pre-shutdown
/// ones. Consumes the engine (dropping it is the shutdown).
///
/// Each recovered engine also takes checkpoints of its own and runs
/// `probe_rounds` probe rounds: this host slows down by 20–50% for seconds at
/// a time, and a metric whose samples all fall inside one second is either
/// wholly inside such an episode or wholly outside it. Spreading the
/// checkpoints and probe bursts over the run's timeline lets their medians
/// ride out an episode the way the window's per-cycle medians do.
pub fn durability(
    ctx: &mut Ctx,
    spec: &Spec,
    inputs: &Inputs,
    mut eng: Engine,
    wal_dir: &Path,
    recoveries: usize,
    probe_rounds: usize,
) -> Result<Durability, Fatal> {
    ctx.tracer.set_phase(Phase::Durability);
    let token = ctx.tracer.enter("durability", NO_CYCLE);
    if !eng.wh.durability_enabled() {
        let _ = std::fs::remove_dir_all(wal_dir);
        ctx.call("warehouse.enable_wal", NO_CYCLE, || {
            eng.wh.enable_wal(wal_dir)
        })?;
    }
    let mut save = Vec::new();
    let mut snapshot = PathBuf::new();
    for _ in 0..CHECKPOINTS_BEFORE_TAIL {
        let (path, d) = ctx.call("warehouse.save", NO_CYCLE, || eng.wh.save())?;
        snapshot = path;
        save.push(d);
    }
    let snapshot_bytes = file_len(&snapshot)?;
    let user_bytes = inputs
        .tpcd
        .t
        .all()
        .iter()
        .filter_map(|t| eng.wh.database().base(*t).ok())
        .map(|t| t.bytes() as u64)
        .sum();

    let mut tail_tuples = 0;
    for _ in 0..TAIL_CYCLES {
        let deltas = next_deltas(ctx, spec, inputs, &mut eng)?;
        // The view set is frozen here: the engine logs deltas and epoch
        // commits, not view registrations, so a view-set change is durable
        // only from the next checkpoint on.
        tail_tuples += cycle(ctx, spec, &mut eng, &deltas, false)?.tuples;
    }
    let want = answers(ctx, &eng.wh)?;
    let want_epoch = eng.wh.epoch();
    let fingerprint = eng.fp;
    drop(eng);
    // After the last checkpoint exactly one WAL segment is live.
    let wal_bytes = dir_files(wal_dir)?
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .map(|p| file_len(p))
        .sum::<Result<u64, Fatal>>()?;

    let mut recover = Vec::with_capacity(recoveries);
    let mut replan = Vec::new();
    let mut replayed_records = 0;
    for i in 0..recoveries {
        let copy = wal_dir.with_extension(format!("copy{i}"));
        copy_dir(wal_dir, &copy)?;
        let (mut recovered, d) =
            ctx.call("warehouse.recover", NO_CYCLE, || Warehouse::recover(&copy))?;
        recover.push(d);
        replayed_records = recovered.recovery_info().map_or(0, |r| r.replayed_records);
        ctx.check(
            &format!("recovered epoch {} = {want_epoch}", recovered.epoch()),
            recovered.epoch() == want_epoch,
        );
        let got = answers(ctx, &recovered)?;
        check_answers(ctx, "recovered vs pre-shutdown", &got, &want);
        drop(got);
        replan.extend(probe_burst(ctx, inputs, &mut recovered, probe_rounds)?);
        ctx.tracer.set_phase(Phase::Durability);
        for _ in 0..CHECKPOINTS_PER_RECOVERY {
            save.push(ctx.call("warehouse.save", NO_CYCLE, || recovered.save())?.1);
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&copy);
    }
    ctx.tracer.exit(token);
    Ok(Durability {
        save,
        recover,
        replan,
        snapshot_bytes,
        user_bytes,
        wal_bytes,
        tail_tuples,
        replayed_records,
        fingerprint,
    })
}

fn file_len(path: &Path) -> Result<u64, Fatal> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| Fatal(format!("stat {}: {e}", path.display())))
}

fn dir_files(dir: &Path) -> Result<Vec<PathBuf>, Fatal> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| Fatal(format!("reading {}: {e}", dir.display())))?;
    Ok(entries.flatten().map(|e| e.path()).collect())
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), Fatal> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| Fatal(format!("creating {}: {e}", to.display())))?;
    for path in dir_files(from)? {
        let Some(name) = path.file_name() else {
            continue;
        };
        std::fs::copy(&path, to.join(name))
            .map_err(|e| Fatal(format!("copying {}: {e}", path.display())))?;
    }
    Ok(())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
