//! Delta explorer: inspect the differential plans the optimizer picks for
//! each of the 2n updates of a view (§5.2–5.3).
//!
//! Shows, per update (δ⁺/δ⁻ of each relation): the estimated delta
//! cardinality, whether the delta is provably empty (independence or the
//! §5.3 foreign-key pruning), the diffCost, and the chosen physical plan —
//! including the recompute-vs-incremental verdict for the whole view.
//!
//! ```text
//! cargo run -p mvmqo-examples --bin delta_explorer
//! ```

use mvmqo_core::cost::CostModel;
use mvmqo_core::opt::{CostEngine, GreedyOptions, MatSet, StoredRef};
use mvmqo_core::plan::extract_diff;
use mvmqo_core::session::Optimizer;
use mvmqo_core::update::UpdateModel;
use mvmqo_tpcd::{single_join_view, tpcd_catalog};

fn main() {
    let mut tpcd = tpcd_catalog(0.1);
    let views = single_join_view(&tpcd);
    let view = &views[0];
    println!("view {}:\n{}", view.name, view.expr);

    let mut session = Optimizer::new(CostModel::default(), GreedyOptions::default());
    let root = session.add_view(&mut tpcd.catalog, view);
    let dag = session.dag();
    let tables = view.expr.base_tables();
    let updates = UpdateModel::percentage(tables, 10.0, |id| tpcd.catalog.table(id).stats.rows);
    let mut mats = MatSet::default();
    mats.full.insert(root);
    for (t, a) in tpcd.pk_indices() {
        mats.indices.insert((StoredRef::Base(t), a));
    }
    mats.indices
        .insert((StoredRef::Mat(root), dag.eq(root).schema.ids()[0]));
    let engine = CostEngine::new(dag, &tpcd.catalog, &updates, CostModel::default(), mats);

    println!("\nper-update differentials of the view (10% update cycle):");
    for step in updates.steps() {
        let name = &tpcd.catalog.table(step.table).name;
        let delta = engine.props.delta(root, step.id);
        print!(
            "  {} {:<9} batch {:>7.0} rows → view delta {:>9.0} rows, diffCost {:>8.2}s",
            match step.kind {
                mvmqo_storage::delta::DeltaKind::Insert => "δ+",
                mvmqo_storage::delta::DeltaKind::Delete => "δ-",
            },
            name,
            step.rows,
            delta.rows,
            engine.diffcost(root, step.id)
        );
        if engine.props.delta_is_empty(root, step.id) {
            println!("   [empty — FK pruning or independence]");
            continue;
        }
        println!();
        let plan = extract_diff(&engine, root, step.id, false);
        for line in plan.to_string().lines() {
            println!("      {line}");
        }
    }

    let recompute = engine.compcost(root) + engine.matcost_full(root);
    let maintain = engine.maintcost(root);
    println!(
        "\nrecompute: {recompute:.2}s vs incremental maintenance: {maintain:.2}s → {}",
        if maintain <= recompute {
            "maintain incrementally"
        } else {
            "recompute (§3.2.3: recomputation is always an alternative)"
        }
    );
}
