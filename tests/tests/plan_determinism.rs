//! Plans are a function of the input sequence alone.
//!
//! Two warehouses in one process, driven through the identical
//! register / drop / ingest / epoch sequence, must make bit-identical
//! plans after every replan: the same estimated costs to the last bit and
//! the same chosen materializations and indices. Each optimizer session
//! owns its own hash containers, so any container whose iteration order
//! depended on a per-container random seed (and fed a float sum or a
//! tie-break) would make the two sessions disagree.

use mvmqo_core::OptimizerReport;
use mvmqo_relalg::logical::ViewDef;
use mvmqo_tpcd::{generate_database, generate_table_update, many_views, tpcd_catalog};
use mvmqo_warehouse::{ReoptPolicy, Warehouse};

const BASE_VIEWS: usize = 35;
const SWAPS_PER_CYCLE: usize = 5;
const CYCLES: u64 = 12;

/// Everything a plan decided, floats by bit pattern.
fn fingerprint(report: &OptimizerReport) -> String {
    let mats: Vec<String> = report
        .chosen_mats
        .iter()
        .map(|m| {
            format!(
                "{} {} {} {:x}",
                m.node,
                m.description,
                m.permanent,
                m.benefit.to_bits()
            )
        })
        .collect();
    let indices: Vec<String> = report
        .chosen_indices
        .iter()
        .map(|i| {
            format!(
                "{:?} {} {} {:x}",
                i.target,
                i.attr,
                i.permanent,
                i.benefit.to_bits()
            )
        })
        .collect();
    format!(
        "total {:x} nogreedy {:x} mats {mats:?} indices {indices:?}",
        report.total_cost.to_bits(),
        report.nogreedy_cost.to_bits()
    )
}

struct Twins {
    a: Warehouse,
    b: Warehouse,
    replans: usize,
}

impl Twins {
    /// After a call that may have replanned, both engines must hold the
    /// same plan.
    fn check(&mut self, what: &str) {
        let (ra, rb) = (self.a.replans().len(), self.b.replans().len());
        assert_eq!(ra, rb, "{what}: replan counts diverged");
        if ra == self.replans {
            return;
        }
        self.replans = ra;
        let pa = fingerprint(self.a.current_report().expect("views are registered"));
        let pb = fingerprint(self.b.current_report().expect("views are registered"));
        assert_eq!(pa, pb, "{what}: twin engines planned differently");
    }

    fn register(&mut self, view: &ViewDef) {
        self.a.register_view(view.clone()).unwrap();
        self.b.register_view(view.clone()).unwrap();
        self.check(&format!("register {}", view.name));
    }

    fn drop_view(&mut self, name: &str) {
        self.a.drop_view(name).unwrap();
        self.b.drop_view(name).unwrap();
        self.check(&format!("drop {name}"));
    }
}

#[test]
fn twin_warehouses_make_bit_identical_plans() {
    let tpcd = tpcd_catalog(0.001);
    let db = generate_database(&tpcd, 11);
    let pool = many_views(&tpcd, BASE_VIEWS + SWAPS_PER_CYCLE);
    let policy = ReoptPolicy {
        // A drift replan every few epochs, as under view churn.
        delta_fraction: 0.03,
        cost_ratio: 1e12,
    };
    let engine = || Warehouse::new(tpcd.catalog.clone(), db.clone()).with_policy(policy);
    let mut twins = Twins {
        a: engine(),
        b: engine(),
        replans: 0,
    };
    for v in &pool[..BASE_VIEWS] {
        twins.register(v);
    }
    let mut parked: Vec<ViewDef> = pool[BASE_VIEWS..].to_vec();
    let tables = [tpcd.t.orders, tpcd.t.lineitem, tpcd.t.part, tpcd.t.partsupp];
    for cycle in 0..CYCLES {
        let dropped: Vec<ViewDef> = twins.a.views()[..SWAPS_PER_CYCLE].to_vec();
        for (old, new) in dropped.iter().zip(&parked) {
            twins.drop_view(&old.name);
            twins.register(new);
        }
        parked = dropped;
        // Every third cycle bursts, like wbench's view_churn workload.
        let percent = if cycle % 3 == 2 { 6.0 } else { 2.0 };
        for (i, &t) in tables.iter().enumerate() {
            let seed = cycle * 31 + i as u64;
            let batch = generate_table_update(&tpcd, twins.a.database(), t, percent, seed).unwrap();
            twins.a.ingest(t, batch.clone()).unwrap();
            twins.b.ingest(t, batch).unwrap();
        }
        twins.a.run_epoch().unwrap();
        twins.b.run_epoch().unwrap();
        twins.check(&format!("epoch {}", cycle + 1));
    }
    // Every view swap replanned (and the bursts forced drift replans).
    assert!(
        twins.replans > BASE_VIEWS + 2 * SWAPS_PER_CYCLE * CYCLES as usize,
        "only {} replans",
        twins.replans
    );
}
