//! The cost engine's trial kernel under random candidate toggles.
//!
//! Greedy benefit evaluation applies a candidate, reads the changed costs
//! and rolls the trial back; a pick commits it. Over random sequences of
//! full-result, differential and index toggles (on and off), mixing
//! rolled-back trials with commits on a 20-view TPC-D DAG, with and
//! without primary-key indices and at small to large update sizes:
//!
//! * after every rollback, every memo slot — cost to the bit, and chosen
//!   (op, algorithm) — and the materialized set equal their pre-trial
//!   values;
//! * after every commit, the incrementally maintained memo agrees with a
//!   from-scratch recompute.
//!
//! One known gap is left out of the random toggles and pinned by the
//! ignored test at the bottom: an index on a base table `t` also makes the
//! single-table selections σ(t) probeable (`probe_path`'s third case), but
//! toggling it dirties only the direct consumers of `t`, so consumers of
//! σ(t) keep stale slots. Closing it re-costs more slots and changes
//! chosen plans, so it is a change of its own.

use mvmqo_core::api::pk_indices_for;
use mvmqo_core::cost::CostModel;
use mvmqo_core::dag::SemKey;
use mvmqo_core::opt::{
    enumerate_candidates, Alg, Candidate, CostEngine, GreedyOptions, MatSet, StoredRef, Trial,
};
use mvmqo_core::{EqId, OpId, Optimizer, UpdateId, UpdateModel};
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::schema::AttrId;
use mvmqo_tpcd::{many_views, tpcd_catalog};
use proptest::prelude::*;

type SlotImage = (u64, Option<(OpId, Alg)>);

/// Every memo slot: full results, then each differential.
fn memo_image(engine: &CostEngine<'_>) -> Vec<SlotImage> {
    let n = engine.updates.len();
    let mut out = Vec::new();
    for e in engine.dag.eq_ids() {
        out.push((engine.compcost(e).to_bits(), engine.best_full(e)));
        for u in (0..n).map(|u| UpdateId(u as u16)) {
            out.push((engine.diffcost(e, u).to_bits(), engine.best_diff(e, u)));
        }
    }
    out
}

/// The materialized set, in a canonical order.
fn mats_image(mats: &MatSet) -> (Vec<EqId>, Vec<(StoredRef, AttrId)>) {
    let mut full: Vec<EqId> = mats.full.iter().copied().collect();
    full.sort_unstable();
    let mut indices: Vec<(StoredRef, AttrId)> = mats.indices.iter().copied().collect();
    indices.sort_unstable();
    (full, indices)
}

/// A 20-view TPC-D problem: the DAG, its catalog and a `percent`% update
/// model.
struct Problem {
    tpcd: mvmqo_tpcd::Tpcd,
    views: Vec<mvmqo_relalg::logical::ViewDef>,
    dag: mvmqo_core::Dag,
    updates: UpdateModel,
}

fn problem(percent: f64) -> Problem {
    let mut tpcd = tpcd_catalog(0.001);
    let views = many_views(&tpcd, 20);
    let mut session = Optimizer::new(CostModel::default(), GreedyOptions::default());
    for v in &views {
        session.add_view(&mut tpcd.catalog, v);
    }
    let dag = session.dag().clone();
    let catalog = &tpcd.catalog;
    let updates = UpdateModel::percentage(tpcd.t.all(), percent, |t| catalog.table(t).stats.rows);
    Problem {
        tpcd,
        views,
        dag,
        updates,
    }
}

/// The engine at rest: user views materialized with their locator
/// indices and, with `pk`, primary-key indices on the base tables.
fn engine(p: &Problem, pk: bool) -> CostEngine<'_> {
    let catalog = &p.tpcd.catalog;
    let mut mats = MatSet::default();
    for root in p.dag.roots() {
        mats.full.insert(root.eq);
        let first = p.dag.eq(root.eq).schema.attrs()[0].id;
        mats.indices.insert((StoredRef::Mat(root.eq), first));
    }
    if pk {
        for (t, a) in pk_indices_for(catalog, &p.views) {
            mats.indices.insert((StoredRef::Base(t), a));
        }
    }
    CostEngine::new(&p.dag, catalog, &p.updates, CostModel::default(), mats)
}

/// Does the DAG hold a single-table selection over `t`?
fn has_selection_over(dag: &mvmqo_core::Dag, t: TableId) -> bool {
    dag.eq_ids().any(|e| {
        matches!(&dag.eq(e).key, SemKey::Spj { tables, preds } if tables == &[t] && !preds.is_true())
    })
}

fn is_on(engine: &CostEngine<'_>, cand: Candidate) -> bool {
    match cand {
        Candidate::Full(e) => engine.mats.full.contains(&e),
        Candidate::Diff(e, u) => engine.mats.diffs.contains(&(e, u)),
        Candidate::Index(t, a) => engine.mats.has_index(t, a),
    }
}

/// Flip a candidate: on if it is off, off if it is on.
fn toggle(engine: &mut CostEngine<'_>, cand: Candidate) -> Trial {
    let on = !is_on(engine, cand);
    match cand {
        Candidate::Full(e) => engine.set_full_mat(e, on),
        Candidate::Diff(e, u) => engine.set_diff_mat(e, u, on),
        Candidate::Index(t, a) => engine.set_index(t, a, on),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `op % 4 == 0` commits, anything else is a rolled-back trial; the
    /// candidate is `op / 4` modulo the candidate count.
    #[test]
    fn trials_roll_back_bit_exactly_and_commits_match_recompute(
        ops in proptest::collection::vec(0usize..1_000_000, 8usize..24),
        percent in 1u32..80,
        pk in proptest::bool::ANY,
    ) {
        let p = problem(percent as f64);
        let mut engine = engine(&p, pk);
        let all = GreedyOptions {
            diff_candidates: true,
            ..Default::default()
        };
        let candidates: Vec<Candidate> = enumerate_candidates(&engine, &all)
            .into_iter()
            .filter(|c| match c {
                Candidate::Index(StoredRef::Base(t), _) => !has_selection_over(&p.dag, *t),
                _ => true,
            })
            .collect();
        prop_assert!(candidates.iter().any(|c| matches!(c, Candidate::Full(_))));
        prop_assert!(candidates.iter().any(|c| matches!(c, Candidate::Index(..))));

        for op in ops {
            let cand = candidates[(op / 4) % candidates.len()];
            if op % 4 == 0 {
                let _ = toggle(&mut engine, cand);
                engine.assert_consistent_with_recompute();
            } else {
                let memo = memo_image(&engine);
                let mats = mats_image(&engine.mats);
                let trial = toggle(&mut engine, cand);
                engine.rollback(trial);
                prop_assert!(
                    memo_image(&engine) == memo,
                    "rollback of {cand:?} left a slot changed"
                );
                prop_assert_eq!(mats_image(&engine.mats), mats);
            }
        }
    }
}

/// The gap the random toggles leave out (see the module docs): committing
/// an index on a base table that has a selection node leaves the
/// selection's consumers costed as if the index did not exist.
#[test]
#[ignore = "known gap: a base-table index does not re-cost consumers of selections over that table"]
fn base_index_toggle_recosts_selection_consumers() {
    let p = problem(5.0);
    let mut engine = engine(&p, true);
    let candidates = enumerate_candidates(&engine, &GreedyOptions::default());
    for cand in candidates {
        if matches!(cand, Candidate::Index(StoredRef::Base(t), _) if has_selection_over(&p.dag, t))
        {
            let _ = toggle(&mut engine, cand);
            engine.assert_consistent_with_recompute();
        }
    }
}
