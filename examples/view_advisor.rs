//! View advisor: use the greedy machinery as a what-to-materialize advisor.
//!
//! §6.2 of the paper notes the greedy procedure extends to workloads of
//! queries with periodic updates, with optional storage budgets ("results
//! can then be materialized in the order of benefit per unit space"). This
//! example sweeps storage budgets and shows how the recommended set and the
//! achievable maintenance cost change.
//!
//! ```text
//! cargo run -p mvmqo-examples --bin view_advisor
//! ```

use mvmqo_core::api::pk_indices_for;
use mvmqo_core::cost::CostModel;
use mvmqo_core::opt::GreedyOptions;
use mvmqo_core::session::Optimizer;
use mvmqo_core::update::UpdateModel;
use mvmqo_tpcd::{five_agg_views, tpcd_catalog};

fn main() {
    println!("view/index advisor over the five-aggregate-view workload (SF 0.1)\n");
    let budgets: [(&str, Option<f64>); 4] = [
        ("unlimited", None),
        ("20000 blocks (~80 MB)", Some(20_000.0)),
        ("4000 blocks (~16 MB)", Some(4_000.0)),
        ("500 blocks (~2 MB)", Some(500.0)),
    ];
    for (label, budget) in budgets {
        let mut tpcd = tpcd_catalog(0.1);
        let views = five_agg_views(&mut tpcd);
        let tables: Vec<_> = {
            let mut t: Vec<_> = views.iter().flat_map(|v| v.expr.base_tables()).collect();
            t.sort_unstable();
            t.dedup();
            t
        };
        let options = GreedyOptions {
            space_budget_blocks: budget,
            ..Default::default()
        };
        let mut session = Optimizer::new(CostModel::default(), options);
        session.set_initial_indices(pk_indices_for(&tpcd.catalog, &views));
        session.set_update_model(UpdateModel::percentage(tables, 5.0, |id| {
            tpcd.catalog.table(id).stats.rows
        }));
        for v in &views {
            session.add_view(&mut tpcd.catalog, v);
        }
        let report = session.plan(&mut tpcd.catalog).report;
        println!("== budget: {label}");
        println!(
            "  maintenance cost {:.1}s (baseline {:.1}s, {:.2}x)",
            report.total_cost,
            report.nogreedy_cost,
            report.nogreedy_cost / report.total_cost.max(1e-9)
        );
        for m in &report.chosen_mats {
            println!("    + {} [{:?}]", m.description, m.strategy);
        }
        for i in &report.chosen_indices {
            println!("    + index on {:?}({})", i.target, i.attr);
        }
        println!();
    }

    // §6.2's workload extension: no pre-declared views at all — a pure
    // query workload (each aggregate runs 40× per refresh cycle) plus the
    // update stream. The advisor decides what to materialize from scratch.
    println!("== pure query workload (no pre-declared views, 40× each per cycle)");
    let mut tpcd = tpcd_catalog(0.1);
    let queries = five_agg_views(&mut tpcd);
    let tables: Vec<_> = {
        let mut t: Vec<_> = queries.iter().flat_map(|q| q.expr.base_tables()).collect();
        t.sort_unstable();
        t.dedup();
        t
    };
    let mut session = Optimizer::new(CostModel::default(), GreedyOptions::default());
    // No views exist yet, so attach the PK indices directly.
    session.set_initial_indices(tpcd.pk_indices());
    session.set_update_model(UpdateModel::percentage(tables, 5.0, |id| {
        tpcd.catalog.table(id).stats.rows
    }));
    for q in &queries {
        session.add_query(&mut tpcd.catalog, q, 40.0);
    }
    let report = session.plan(&mut tpcd.catalog).report;
    println!(
        "  query cost per cycle {:.1}s + maintenance {:.1}s (unoptimized workload: {:.1}s)",
        report.query_cost,
        report.total_cost - report.query_cost,
        report.nogreedy_cost
    );
    for m in &report.chosen_mats {
        println!("    + {} [{:?}]", m.description, m.strategy);
    }
    for i in &report.chosen_indices {
        println!("    + index on {:?}({})", i.target, i.attr);
    }
}
