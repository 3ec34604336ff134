//! The four life-cycle workloads and the inputs they generate.
//!
//! `--seed` feeds `generate_database` and `epoch_updates` and nothing else;
//! the view sets are fixed functions of the workload. Everything the engine
//! sees is derived from `(workload, seed, scale, cycle count)`.

use crate::lifecycle::Fingerprint;
use mvmqo_relalg::logical::ViewDef;
use mvmqo_storage::database::Database;
use mvmqo_tpcd::{
    five_agg_views, five_join_views, generate_database, many_views, tpcd_catalog, DriverProfile,
    Tpcd,
};
use std::time::{Duration, Instant};

/// Warm-up cycles inside setup: the first `ingest` builds the delete
/// availability cache and epoch 0 builds every materialization, so the
/// engine only reaches steady state after them.
pub const WARMUP_CYCLES: u64 = 2;
/// Durable cycles run after the checkpoints, so recovery has a WAL tail.
pub const TAIL_CYCLES: u64 = 2;
/// Setups and recoveries are each repeated this often and reported as a
/// median.
pub const REPEATS: usize = 3;
/// Checkpoints taken on the engine under test before the durable tail, and
/// on each recovered engine.
pub const CHECKPOINTS_BEFORE_TAIL: usize = 3;
pub const CHECKPOINTS_PER_RECOVERY: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewSet {
    FiveJoin,
    FiveAgg,
    /// A rotation through a fixed pool of `many_views`: each cycle drops the
    /// oldest views and registers the ones the previous cycle dropped.
    Churn,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is calibrated for.
    Full,
    /// sf 0.001 and 3 cycles: the in-binary tests.
    Smoke,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub sf: f64,
    pub view_set: ViewSet,
    /// Views registered at setup.
    pub base_views: usize,
    pub profile: DriverProfile,
    /// WAL on during the measured window (it is always on for phase E).
    pub wal_in_window: bool,
    /// Engine workers: 1 = serial scheduler, 2 = forced parallel scheduler.
    pub workers: usize,
    /// Measured cycles per second of `--seconds`, calibrated on the 2-core
    /// reference host so the window lasts about `--seconds`. The cycle
    /// count, not the clock, ends the window: the same `(seed, seconds)`
    /// gives the same work on every commit, so exact metrics repeat.
    pub cycles_per_second: f64,
    /// Rounds per burst of the view-set change probe (phase C). The
    /// end-to-end run makes six bursts, spread over its timeline.
    pub probe_rounds: usize,
    /// Views replaced per cycle (drop the oldest, register a parked one).
    /// `many_views` cycles through five families whose registration costs
    /// differ severalfold; replacing one view of each family per cycle makes
    /// every cycle the same mix, so the median is over like samples.
    pub swaps_per_cycle: usize,
    /// `ReoptPolicy::delta_fraction` override; `None` = the default policy.
    pub drift_fraction: Option<f64>,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "join_refresh",
        why: "five join views, 5% updates on all relations, serial, WAL on: exec joins and storage merges do the work, core is idle, 5 large view reads",
        sf: 0.03,
        view_set: ViewSet::FiveJoin,
        base_views: 5,
        profile: DriverProfile::Steady { percent: 5.0 },
        wal_in_window: true,
        workers: 1,
        cycles_per_second: 2.0,
        probe_rounds: 17,
        swaps_per_cycle: 0,
        drift_fraction: None,
    },
    Spec {
        name: "join_refresh_par2",
        why: "byte-identical inputs to join_refresh through the forced 2-worker root scheduler and morsel path: the ratio of the two epoch_ms_p50 is the scheduler overhead",
        sf: 0.03,
        view_set: ViewSet::FiveJoin,
        base_views: 5,
        profile: DriverProfile::Steady { percent: 5.0 },
        wal_in_window: true,
        workers: 2,
        cycles_per_second: 2.0,
        probe_rounds: 17,
        swaps_per_cycle: 0,
        drift_fraction: None,
    },
    Spec {
        name: "agg_factonly",
        why: "five aggregate views, 5% updates on fact tables only, WAL off in the window: support-state folds and base delta merges dominate; 63-row views bypass the read path and the WAL",
        sf: 0.04,
        view_set: ViewSet::FiveAgg,
        base_views: 5,
        profile: DriverProfile::FactOnly { percent: 5.0 },
        wal_in_window: false,
        workers: 1,
        cycles_per_second: 2.5,
        probe_rounds: 17,
        swaps_per_cycle: 0,
        drift_fraction: None,
    },
    Spec {
        name: "view_churn",
        why: "100 views at sf 0.001, five dropped and five registered per cycle, a drift replan every third epoch: core planning and warehouse per-epoch overhead dominate, exec does little",
        sf: 0.001,
        view_set: ViewSet::Churn,
        base_views: 100,
        // Small batches and a drift threshold to match (5% of the base rows
        // instead of the default 25%): every third epoch still fires a
        // `DeltaDrift` replan, but the views are not emptied by the deletes —
        // at the generator's 20% spike the join views lost 95% of their rows
        // within the window (new `lineitem` rows reference the original
        // dense `orders` keys, which the deletes remove), and the read
        // metrics decayed 25-fold with them.
        profile: DriverProfile::Bursty {
            base: 2.0,
            spike: 6.0,
            period: 3,
        },
        wal_in_window: true,
        workers: 1,
        cycles_per_second: 3.0,
        probe_rounds: 3,
        swaps_per_cycle: 5,
        drift_fraction: Some(0.05),
    },
];

pub fn workload(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// Never fewer than 10 measured cycles: a median of fewer is not one.
    pub fn cycles(&self, seconds: u64, scale: Scale) -> u64 {
        match scale {
            Scale::Full => ((seconds as f64 * self.cycles_per_second).round() as u64).max(10),
            Scale::Smoke => 3,
        }
    }

    pub fn scaled(mut self, scale: Scale) -> Spec {
        if scale == Scale::Smoke {
            self.sf = 0.001;
            self.base_views = self.base_views.min(15);
            self.probe_rounds = 2;
        }
        self
    }
}

/// Generated inputs of one run. The engine receives `catalog`, `db`, the
/// views and the per-cycle delta sets; it never sees the seed.
pub struct Inputs {
    pub tpcd: Tpcd,
    pub db: Database,
    /// `base_views` initial views followed, for `Churn`, by the
    /// `swaps_per_cycle` views that start outside the engine.
    pub views: Vec<ViewDef>,
    /// The view phase C registers and drops again.
    pub extra: ViewDef,
    pub seed: u64,
    pub generate_db: Duration,
    /// Fingerprint of `db` (the delta stream is folded in as it is drawn).
    pub fingerprint: Fingerprint,
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let mut tpcd = tpcd_catalog(spec.sf);
        let (views, extra) = match spec.view_set {
            ViewSet::FiveJoin => (five_join_views(&tpcd), probe_view(&tpcd)),
            // Mutates the catalog (aggregate outputs get fresh attribute
            // ids), so the engine is built from `tpcd.catalog` afterwards.
            ViewSet::FiveAgg => (five_agg_views(&mut tpcd), probe_view(&tpcd)),
            ViewSet::Churn => {
                let mut all = many_views(&tpcd, spec.base_views + spec.swaps_per_cycle + 1);
                let extra = all.pop().expect("many_views returned n+1 >= 1 views");
                (all, extra)
            }
        };
        let start = Instant::now();
        let db = generate_database(&tpcd, seed);
        let generate_db = start.elapsed();
        let fingerprint = Fingerprint::of_database(&tpcd, &db);
        Inputs {
            tpcd,
            db,
            views,
            extra,
            seed,
            generate_db,
            fingerprint,
        }
    }
}

/// `σ_{o_orderdate < 100}(lineitem ⋈ orders ⋈ customer)`: shares its join
/// core with the five-view sets, so registering it is an incremental replan
/// with real unification work.
fn probe_view(tpcd: &Tpcd) -> ViewDef {
    many_views(tpcd, 1).remove(0)
}
