//! §7.2 "Cost of Optimization": wall time of Greedy optimization for the
//! ten-view set (the paper reports 31 s on an UltraSparc 10 and argues the
//! one-time cost is small against per-refresh savings). This bench measures
//! the same quantity on modern hardware, end to end (DAG build +
//! differential properties + greedy + plan extraction) — plus the
//! re-entrant session's incremental replans (add one view / delta-drift
//! restat) against the cold rebuild on the `many_views` scaling workload.

use criterion::{criterion_group, criterion_main, Criterion};
use mvmqo_bench::{referenced_tables, ExperimentConfig, Workload};
use mvmqo_core::cost::CostModel;
use mvmqo_core::opt::GreedyOptions;
use mvmqo_core::session::Optimizer;
use mvmqo_core::update::UpdateModel;
use mvmqo_relalg::catalog::Catalog;
use mvmqo_relalg::logical::ViewDef;
use mvmqo_tpcd::many_views;
use mvmqo_tpcd::schema::tpcd_catalog;
use std::hint::black_box;

fn bench_opt_time(c: &mut Criterion) {
    let cfg = ExperimentConfig::default();
    let mut g = c.benchmark_group("opt_time");
    g.sample_size(20);
    for pct in [1.0, 10.0, 80.0] {
        g.bench_function(format!("greedy_ten_views_{pct}pct"), |b| {
            b.iter(|| {
                let mut t = tpcd_catalog(cfg.sf);
                let views = Workload::Ten.build(&mut t);
                black_box(warm_session(t.catalog, &views, pct))
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("opt_time_session");
    g.sample_size(10);
    let t = tpcd_catalog(cfg.sf);
    let views = many_views(&t, 26);
    g.bench_function("cold_rebuild_25_views", |b| {
        b.iter(|| black_box(warm_session(t.catalog.clone(), &views[..25], 5.0)))
    });
    // Forking the warmed session per iteration (Optimizer is Clone) keeps
    // the measured work to the incremental replan itself plus a cheap
    // state copy.
    let (warm, warm_catalog) = warm_session(t.catalog.clone(), &views[..25], 5.0);
    g.bench_function("incremental_add_view_to_25", |b| {
        b.iter(|| {
            let (mut s, mut catalog) = (warm.clone(), warm_catalog.clone());
            s.add_view(&mut catalog, &views[25]);
            black_box(s.plan(&mut catalog))
        })
    });
    g.bench_function("incremental_drift_restat_25", |b| {
        b.iter(|| {
            let (mut s, mut catalog) = (warm.clone(), warm_catalog.clone());
            s.set_update_model(model_for(&catalog, &views[..25], 8.0));
            black_box(s.plan(&mut catalog))
        })
    });
    g.finish();
}

fn model_for(catalog: &Catalog, views: &[ViewDef], pct: f64) -> UpdateModel {
    UpdateModel::percentage(referenced_tables(views), pct, |id| {
        catalog.table(id).stats.rows
    })
}

/// A cold-planned session over `views` (with PK indices and `pct`%
/// updates), plus its catalog.
fn warm_session(mut catalog: Catalog, views: &[ViewDef], pct: f64) -> (Optimizer, Catalog) {
    let mut s = Optimizer::new(CostModel::default(), GreedyOptions::default());
    s.set_initial_indices(mvmqo_core::api::pk_indices_for(&catalog, views));
    s.set_update_model(model_for(&catalog, views, pct));
    for v in views {
        s.add_view(&mut catalog, v);
    }
    let _ = s.plan(&mut catalog);
    (s, catalog)
}

criterion_group!(benches, bench_opt_time);
criterion_main!(benches);
