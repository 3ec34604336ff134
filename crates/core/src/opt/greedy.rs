//! The greedy algorithm for selecting materialized views and indices (§6).
//!
//! Implements Figure 2 of the paper: starting from `X = V` (the user views),
//! repeatedly pick the candidate `x` with the highest
//! `benefit(x, X) = cost(X, X) − cost(X ∪ {x}, X ∪ {x})` and materialize it,
//! stopping when no candidate has positive benefit. Candidates are full
//! results, differential results, and indices (on base tables and on
//! materialized results).
//!
//! Two optimizations from \[RSSB00\], §6.2:
//!
//! 1. **Incremental cost update** — benefit evaluation *trials* the
//!    candidate in the cost engine, which recomputes only ancestors' memo
//!    slots and records an undo log; rejection rolls back in O(changes).
//! 2. **Monotonicity** — benefits are kept in a lazy max-heap; a popped
//!    candidate's benefit is re-evaluated, and accepted immediately if it
//!    still beats the best *stale* benefit below it, avoiding the quadratic
//!    re-evaluation of every candidate each round.

use crate::dag::{Dag, EqId, OpKind, SemKey};
use crate::opt::costing::{CostEngine, EqSet, StoredRef};
use crate::update::UpdateId;
use mvmqo_relalg::hash::{FxHashMap, FxHashSet};
use mvmqo_relalg::schema::AttrId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What the greedy loop may materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Candidate {
    /// Full result of an equivalence node.
    Full(EqId),
    /// Differential result δ(e, u) (temporary by definition — differentials
    /// of base updates cannot be materialized permanently, §1).
    Diff(EqId, UpdateId),
    /// Index on a stored relation.
    Index(StoredRef, AttrId),
}

/// Optimizer operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// The paper's algorithm: greedy selection of extra materializations.
    #[default]
    Greedy,
    /// Baseline: plain Volcano extended to choose between recomputation and
    /// incremental maintenance per view (the class containing Vista
    /// \[Vis98\]) — no extra materializations, no extra indices.
    NoGreedy,
}

/// Knobs for the greedy loop (defaults reproduce the paper's configuration).
#[derive(Debug, Clone, Copy)]
pub struct GreedyOptions {
    pub mode: Mode,
    /// Consider differential results as candidates. The paper's
    /// implementation considered only full results (§7: "our current
    /// implementation has a restriction..."); enabling this is the
    /// completed version the paper describes as forthcoming.
    pub diff_candidates: bool,
    /// Consider index candidates (§4.3 / Figure 5(b)).
    pub index_candidates: bool,
    /// The monotonicity optimization (§6.2, optimization 2).
    pub monotonicity: bool,
    /// The incremental cost update (§6.2, optimization 1); disabled =
    /// recompute the whole memo per benefit evaluation (ablation).
    pub incremental_cost_update: bool,
    /// Optional storage budget in blocks; when set, candidates are ranked
    /// by benefit per block and skipped once the budget is exhausted
    /// (§6.2's final remark).
    pub space_budget_blocks: Option<f64>,
    /// Hard cap on greedy iterations (defensive).
    pub max_selections: usize,
    /// Debug mode: after every committed pick, cross-check the incremental
    /// cost update against a full memo recompute and panic on divergence.
    /// Expensive — meant for tests (the property suite enables it).
    pub audit_incremental: bool,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            mode: Mode::Greedy,
            diff_candidates: false,
            index_candidates: true,
            monotonicity: true,
            incremental_cost_update: true,
            space_budget_blocks: None,
            max_selections: 10_000,
            audit_incremental: false,
        }
    }
}

/// Result of the greedy selection.
#[derive(Debug, Clone)]
pub struct GreedyResult {
    /// Candidates chosen, in selection order, with the benefit observed at
    /// selection time.
    pub chosen: Vec<(Candidate, f64)>,
    /// cost(V, V): total maintenance cost before any extra materialization.
    pub initial_cost: f64,
    /// cost(X, X) after selection.
    pub final_cost: f64,
    /// Number of benefit evaluations performed (the quantity the
    /// monotonicity optimization reduces).
    pub benefit_evaluations: usize,
    /// Blocks of storage consumed by chosen materializations.
    pub space_used_blocks: f64,
}

/// Warm-start context for a re-entrant optimizer session (\[AS26\]-style
/// local search seeded from the previous solution).
///
/// At entry to [`run_greedy_warm`] the engine's `MatSet` still contains the
/// previous plan's extra materializations (`prior_chosen`). The run first
/// *revalidates* that selection — each prior pick whose removal now lowers
/// total cost is demoted back into the candidate pool — then runs the lazy
/// greedy loop, seeding the benefit heap with `benefits` cached from the
/// previous run for every candidate outside `stale`. Because the lazy loop
/// re-evaluates a candidate before committing it, a stale seed costs at
/// most one extra evaluation; what it saves is the full initial
/// benefit-evaluation sweep, the dominant term of optimization time on
/// large view sets. Its maps are Fx-hashed (see [`mvmqo_relalg::hash`]):
/// nothing here may depend on a per-map random seed.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Extra materializations chosen by the previous plan, still present in
    /// the engine's `MatSet`.
    pub prior_chosen: Vec<Candidate>,
    /// Last fresh benefit observed per candidate (updated in place).
    pub benefits: FxHashMap<Candidate, f64>,
    /// Eq nodes whose cost context changed since `benefits` was cached —
    /// the *downward closure* of every changed node (a candidate's benefit
    /// flows through its ancestors, so it is stale exactly when a changed
    /// node sits above it). `None` means no warm information: every
    /// candidate is evaluated fresh (the cold path).
    pub stale: Option<EqSet>,
}

impl WarmStart {
    /// The set of anchors whose cached benefit cannot be trusted: the
    /// changed nodes plus everything below them.
    pub fn stale_closure(dag: &Dag, changed: impl IntoIterator<Item = EqId>) -> EqSet {
        let mut out = EqSet::default();
        let mut stack: Vec<EqId> = changed.into_iter().collect();
        while let Some(e) = stack.pop() {
            if !out.insert(e) {
                continue;
            }
            for &op in &dag.eq(e).children {
                for &c in &dag.op(op).children {
                    if !out.contains(&c) {
                        stack.push(c);
                    }
                }
            }
        }
        out
    }

    /// The eq node a candidate's benefit is anchored at.
    fn anchor(engine: &CostEngine<'_>, cand: Candidate) -> Option<EqId> {
        match cand {
            Candidate::Full(e) | Candidate::Diff(e, _) | Candidate::Index(StoredRef::Mat(e), _) => {
                Some(e)
            }
            Candidate::Index(StoredRef::Base(t), _) => engine.dag.base_eq(t),
        }
    }

    /// Must this candidate be fresh-evaluated at heap build?
    fn is_stale(&self, engine: &CostEngine<'_>, cand: Candidate) -> bool {
        if !self.benefits.contains_key(&cand) {
            return true;
        }
        match &self.stale {
            None => true,
            Some(set) => Self::anchor(engine, cand).is_none_or(|e| set.contains(&e)),
        }
    }
}

/// Run the greedy selection over an initialized cost engine whose `mats`
/// already contain the user views (and pre-existing indices), warm-started
/// from `warm`; the cold path passes `WarmStart::default()`.
pub fn run_greedy_warm(
    engine: &mut CostEngine<'_>,
    options: &GreedyOptions,
    warm: &mut WarmStart,
) -> GreedyResult {
    engine.incremental = options.incremental_cost_update;
    let prior: Vec<Candidate> = std::mem::take(&mut warm.prior_chosen)
        .into_iter()
        .filter(|c| candidate_live(engine, *c))
        .collect();

    let entry_total = engine.total_cost();
    let mut result = GreedyResult {
        chosen: Vec::new(),
        initial_cost: entry_total,
        final_cost: entry_total,
        benefit_evaluations: 0,
        space_used_blocks: 0.0,
    };
    // The set a benefit evaluation differences over, reused by every trial.
    let mut affected = EqSet::default();
    if options.mode == Mode::NoGreedy {
        // Baseline never materializes extras; demote anything inherited.
        for &cand in prior.iter().rev() {
            let _ = apply(engine, cand, false);
        }
        let bare = engine.total_cost();
        result.initial_cost = bare;
        result.final_cost = bare;
        return result;
    }

    // Revalidate the inherited selection: a prior pick is kept exactly when
    // removing it would not lower total cost; its current benefit is the
    // cost increase its removal would cause (differenced locally, like
    // every other benefit evaluation). A pick whose whole cost context is
    // clean keeps its cached keep-benefit without paying a trial.
    //
    // `initial_cost` (the NoGreedy baseline, cost(V, V)) is reported as the
    // additive estimate `entry_total ± the measured per-pick deltas`; with
    // a prior selection in place the joint-removal measurement would cost
    // one propagation per pick for a purely informational figure. Cold runs
    // (no prior) report it exactly.
    let mut baseline = entry_total;
    for cand in prior {
        let keep_benefit = if warm.is_stale(engine, cand) {
            -evaluate_benefit_toggle(engine, cand, false, &mut affected, &mut result)
        } else {
            warm.benefits[&cand]
        };
        if keep_benefit < -1e-9 {
            // The changed problem no longer justifies it: demote (it
            // re-enters the candidate pool below).
            let _ = apply(engine, cand, false);
            baseline += keep_benefit; // demotion lowered the running total
            warm.benefits.remove(&cand);
        } else {
            baseline += keep_benefit; // what removing it would have added
            warm.benefits.insert(cand, keep_benefit);
            result.space_used_blocks += candidate_blocks(engine, cand);
            result.chosen.push((cand, keep_benefit));
        }
    }
    result.initial_cost = baseline;

    let mut candidates = enumerate_candidates(engine, options);

    if options.monotonicity {
        // Lazy greedy: heap of (stale benefit, candidate index). Warm runs
        // seed clean candidates from the cached benefits without paying an
        // evaluation; the pop-time re-evaluation keeps the loop honest.
        let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::new();
        for (i, &cand) in candidates.iter().enumerate() {
            let b = if warm.is_stale(engine, cand) {
                match warm.benefits.get(&cand) {
                    // A stale-but-positive cache entry is a fine lazy seed:
                    // the loop fresh-evaluates every entry before either
                    // committing it or letting it gate termination, so only
                    // its heap *position* is approximate.
                    Some(&cached) if cached > 1e-9 => cached,
                    _ => {
                        let fresh = evaluate_benefit(engine, cand, &mut affected, &mut result);
                        warm.benefits.insert(cand, fresh);
                        fresh
                    }
                }
            } else {
                warm.benefits[&cand]
            };
            if b.is_finite() {
                heap.push(HeapEntry { benefit: b, idx: i });
            }
        }
        let mut selected = vec![false; candidates.len()];
        while let Some(top) = heap.pop() {
            if result.chosen.len() >= options.max_selections {
                break;
            }
            if selected[top.idx] {
                continue;
            }
            let cand = candidates[top.idx];
            let fresh = evaluate_benefit(engine, cand, &mut affected, &mut result);
            warm.benefits.insert(cand, fresh);
            let next_stale = heap.peek().map(|e| e.benefit).unwrap_or(f64::NEG_INFINITY);
            if fresh >= next_stale - 1e-9 {
                // Monotonicity: no stale entry can beat this fresh value.
                if fresh <= 1e-9 {
                    break; // Figure 2: stop when max benefit is non-positive
                }
                if !fits_budget(engine, cand, options, &mut result) {
                    selected[top.idx] = true; // skipped for good: over budget
                    continue;
                }
                commit(engine, cand, options);
                selected[top.idx] = true;
                result.chosen.push((cand, fresh));
            } else {
                heap.push(HeapEntry {
                    benefit: fresh,
                    idx: top.idx,
                });
            }
        }
    } else {
        // Plain greedy: re-evaluate every remaining candidate each round.
        loop {
            if result.chosen.len() >= options.max_selections {
                break;
            }
            let mut best: Option<(usize, f64)> = None;
            for (i, &cand) in candidates.iter().enumerate() {
                let b = evaluate_benefit(engine, cand, &mut affected, &mut result);
                warm.benefits.insert(cand, b);
                if b.is_finite() && best.map(|(_, bb)| b > bb).unwrap_or(true) {
                    best = Some((i, b));
                }
            }
            match best {
                Some((i, b)) if b > 1e-9 => {
                    let cand = candidates.remove(i);
                    if !fits_budget(engine, cand, options, &mut result) {
                        continue;
                    }
                    commit(engine, cand, options);
                    result.chosen.push((cand, b));
                }
                _ => break,
            }
        }
    }
    result.final_cost = engine.total_cost();
    warm.prior_chosen = result.chosen.iter().map(|(c, _)| *c).collect();
    result
}

/// Is this candidate still meaningful on the current (live) DAG?
fn candidate_live(engine: &CostEngine<'_>, cand: Candidate) -> bool {
    WarmStart::anchor(engine, cand).is_some_and(|e| engine.dag.eq_is_live(e))
}

/// Evaluate `benefit(x, M)` by trialing the materialization and rolling it
/// back: `cost(M, M) − cost(M ∪ {x}, M ∪ {x})`.
///
/// The totals are differenced only over the nodes the trial's incremental
/// propagation actually touched (plus the candidate's own anchor) — every
/// other member's contribution is identical on both sides and cancels, so
/// one evaluation costs O(changed slots), not O(all materializations).
/// `affected` is scratch space, reused across evaluations.
fn evaluate_benefit(
    engine: &mut CostEngine<'_>,
    cand: Candidate,
    affected: &mut EqSet,
    result: &mut GreedyResult,
) -> f64 {
    evaluate_benefit_toggle(engine, cand, true, affected, result)
}

/// Benefit of toggling `cand` to `on` (rolled back): cost before the
/// toggle minus cost after it, differenced over the affected set only.
fn evaluate_benefit_toggle(
    engine: &mut CostEngine<'_>,
    cand: Candidate,
    on: bool,
    affected: &mut EqSet,
    result: &mut GreedyResult,
) -> f64 {
    result.benefit_evaluations += 1;
    let trial = apply(engine, cand, on);
    affected.clear();
    affected.extend(trial.changed_eqs());
    if let Some(a) = WarmStart::anchor(engine, cand) {
        affected.insert(a);
    }
    let index = match cand {
        Candidate::Index(t, a) => Some((t, a)),
        _ => None,
    };
    let after = engine.partial_cost(affected, index);
    engine.rollback(trial);
    let before = engine.partial_cost(affected, index);
    before - after
}

fn apply(engine: &mut CostEngine<'_>, cand: Candidate, on: bool) -> crate::opt::costing::Trial {
    match cand {
        Candidate::Full(e) => engine.set_full_mat(e, on),
        Candidate::Diff(e, u) => engine.set_diff_mat(e, u, on),
        Candidate::Index(t, a) => engine.set_index(t, a, on),
    }
}

fn commit(engine: &mut CostEngine<'_>, cand: Candidate, options: &GreedyOptions) {
    let _ = apply(engine, cand, true);
    if options.audit_incremental {
        engine.assert_consistent_with_recompute();
    }
}

/// Storage accounting against the optional space budget.
fn fits_budget(
    engine: &CostEngine<'_>,
    cand: Candidate,
    options: &GreedyOptions,
    result: &mut GreedyResult,
) -> bool {
    let blocks = candidate_blocks(engine, cand);
    match options.space_budget_blocks {
        Some(budget) if result.space_used_blocks + blocks > budget => false,
        _ => {
            result.space_used_blocks += blocks;
            true
        }
    }
}

/// Estimated blocks a chosen candidate occupies.
pub fn candidate_blocks(engine: &CostEngine<'_>, cand: Candidate) -> f64 {
    match cand {
        Candidate::Full(e) => {
            let st = engine.props.new_state(e);
            engine.model.blocks(st.rows, engine.width(e))
        }
        Candidate::Diff(e, u) => {
            let d = engine.props.delta(e, u);
            engine.model.blocks(d.rows, engine.width(e))
        }
        Candidate::Index(target, _) => {
            let rows = match target {
                StoredRef::Base(t) => engine.catalog.table(t).stats.rows,
                StoredRef::Mat(e) => engine.props.new_state(e).rows,
            };
            engine.model.blocks(rows, 16)
        }
    }
}

/// Enumerate the candidate set handed to Figure 2's procedure.
pub fn enumerate_candidates(engine: &CostEngine<'_>, options: &GreedyOptions) -> Vec<Candidate> {
    let dag = engine.dag;
    let mut out = Vec::new();
    // Cap pathological full candidates (pure cross products blow up the
    // benefit evaluation for no possible gain; the paper notes candidate
    // pruning as the lever for optimization time).
    let base_blocks: f64 = dag
        .base_tables()
        .iter()
        .map(|t| {
            let def = engine.catalog.table(*t);
            engine.model.blocks(def.stats.rows, def.schema.row_width())
        })
        .sum();
    let block_cap = (base_blocks * 4.0).max(1024.0);

    let is_root = |e: EqId| dag.roots().iter().any(|r| r.eq == e);
    for e in dag.eq_ids() {
        let node = dag.eq(e);
        if node.is_base_relation() {
            continue;
        }
        let st = engine.props.new_state(e);
        if engine.model.blocks(st.rows, engine.width(e)) > block_cap {
            continue;
        }
        let materialized = engine.mats.full.contains(&e);
        if !materialized {
            out.push(Candidate::Full(e));
            if options.index_candidates && !engine.is_grouped(e) {
                // Locator index for delete-merges, should this node be
                // chosen and maintained.
                if let Some(first) = node.schema.attrs().first() {
                    out.push(Candidate::Index(StoredRef::Mat(e), first.id));
                }
            }
        }
        // Differential candidates are meaningful whether or not the full
        // result is currently materialized — a warm replan inherits the
        // prior selection into `mats.full` before enumeration, and kept
        // extras must keep the same candidate space a cold run would give
        // them. User-view roots never enumerate diffs (matching the cold
        // path, where they are in `mats.full` from the start).
        if options.diff_candidates && !engine.is_grouped(e) && !(materialized && is_root(e)) {
            // Grouped (aggregate/distinct) deltas are merge records, not
            // relations; they are applied directly, never stored.
            for step in engine.updates.steps() {
                if !engine.props.delta_is_empty(e, step.id)
                    && !engine.mats.diffs.contains(&(e, step.id))
                {
                    out.push(Candidate::Diff(e, step.id));
                }
            }
        }
    }
    if options.index_candidates {
        // Locator indices for the user views themselves.
        for &e in &engine.mats.full {
            if !engine.is_grouped(e) {
                if let Some(first) = dag.eq(e).schema.attrs().first() {
                    if !engine.mats.has_index(StoredRef::Mat(e), first.id) {
                        out.push(Candidate::Index(StoredRef::Mat(e), first.id));
                    }
                }
            }
        }
        out.extend(enumerate_index_candidates(engine));
    }
    out.sort_by_key(|c| match c {
        Candidate::Full(e) => (0u8, e.0, 0u16, 0u32),
        Candidate::Diff(e, u) => (1, e.0, u.0, 0),
        Candidate::Index(StoredRef::Base(t), a) => (2, t.0, 0, a.0),
        Candidate::Index(StoredRef::Mat(e), a) => (3, e.0, 0, a.0),
    });
    out.dedup();
    out
}

/// Index candidates: for every join op, an index on each side's join key
/// when that side is (or could become) a stored relation; plus sargable
/// selection attributes on base tables.
fn enumerate_index_candidates(engine: &CostEngine<'_>) -> Vec<Candidate> {
    let dag = engine.dag;
    let mut seen: FxHashSet<(StoredRef, AttrId)> = FxHashSet::default();
    let mut out = Vec::new();
    let mut push = |target: StoredRef, attr: AttrId, engine: &CostEngine<'_>| {
        if engine.mats.has_index(target, attr) {
            return; // already present (e.g. pre-existing PK index)
        }
        if seen.insert((target, attr)) {
            out.push(Candidate::Index(target, attr));
        }
    };
    for op_id in dag.op_ids() {
        let op = dag.op(op_id);
        match &op.kind {
            OpKind::Join { .. } => {
                for &(l_attr, r_attr) in &op.facts.join_keys[0] {
                    for (side, attr) in [(op.children[0], l_attr), (op.children[1], r_attr)] {
                        let node = dag.eq(side);
                        if let Some(t) = node.as_base_table() {
                            push(StoredRef::Base(t), attr, engine);
                        } else if let SemKey::Spj { tables, .. } = &node.key {
                            if tables.len() == 1 {
                                // Selection over a base: probe the base.
                                push(StoredRef::Base(tables[0]), attr, engine);
                            } else {
                                push(StoredRef::Mat(side), attr, engine);
                            }
                        } else {
                            push(StoredRef::Mat(side), attr, engine);
                        }
                    }
                }
            }
            OpKind::Select { .. } => {
                let child = op.children[0];
                if let Some(t) = dag.eq(child).as_base_table() {
                    for (attr, _) in &op.facts.eq_probes {
                        push(StoredRef::Base(t), *attr, engine);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Post-selection classification: how each materialized full result is
/// refreshed (the temporary-vs-permanent decision of §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshStrategy {
    /// Maintenance cost won: keep permanently, apply differentials.
    Incremental,
    /// Recomputation won: for user views, refresh by recomputation; for
    /// extra results, materialize temporarily during maintenance and
    /// discard afterwards.
    Recompute,
}

/// Classify every materialized full result under the final `M`.
pub fn classify_refresh(engine: &CostEngine<'_>) -> Vec<(EqId, RefreshStrategy, f64)> {
    let mut out: Vec<(EqId, RefreshStrategy, f64)> = engine
        .mats
        .full
        .iter()
        .map(|&e| {
            let (cost, incremental) = engine.cost_full_result(e);
            let strat = if incremental {
                RefreshStrategy::Incremental
            } else {
                RefreshStrategy::Recompute
            };
            (e, strat, cost)
        })
        .collect();
    out.sort_by_key(|(e, _, _)| *e);
    out
}

/// Convenience: how a chosen plan element reads for humans.
pub fn describe_candidate(dag: &Dag, cand: Candidate) -> String {
    match cand {
        Candidate::Full(e) => format!("materialize full result of {e} ({})", key_desc(dag, e)),
        Candidate::Diff(e, u) => format!("materialize differential δ({e}, {u})"),
        Candidate::Index(StoredRef::Base(t), a) => format!("index on base {t}({a})"),
        Candidate::Index(StoredRef::Mat(e), a) => format!("index on materialized {e}({a})"),
    }
}

fn key_desc(dag: &Dag, e: EqId) -> String {
    match &dag.eq(e).key {
        SemKey::Spj { tables, preds } => {
            let ts: Vec<String> = tables.iter().map(|t| t.to_string()).collect();
            if preds.is_true() {
                format!("⋈{{{}}}", ts.join(","))
            } else {
                format!("σ[{preds}]⋈{{{}}}", ts.join(","))
            }
        }
        SemKey::Derived { sig, .. } => format!("{sig:?}").chars().take(40).collect(),
    }
}

/// Required by BinaryHeap: max-heap by stale benefit.
struct HeapEntry {
    benefit: f64,
    idx: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.benefit == other.benefit && self.idx == other.idx
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.benefit
            .total_cmp(&other.benefit)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::opt::costing::MatSet;
    use crate::update::UpdateModel;
    use mvmqo_relalg::catalog::{Catalog, ColumnSpec, TableId};
    use mvmqo_relalg::expr::{Predicate, ScalarExpr};
    use mvmqo_relalg::logical::LogicalExpr;
    use mvmqo_relalg::types::DataType;

    struct Fixture {
        catalog: Catalog,
        dag: Dag,
        roots: Vec<EqId>,
        tables: Vec<TableId>,
    }

    /// Two views sharing B⋈C — the paper's Example 3.1 shape.
    fn shared_fixture() -> Fixture {
        let mut catalog = Catalog::new();
        let a = catalog.add_table(
            "a",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("x", DataType::Int, 50.0),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            100_000.0,
            &["id"],
        );
        let b = catalog.add_table(
            "b",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("a_id", DataType::Int, 100_000.0),
                ColumnSpec::with_range("x", DataType::Int, 100.0, (0.0, 100.0)),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            500_000.0,
            &["id"],
        );
        let c = catalog.add_table(
            "c",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("b_id", DataType::Int, 500_000.0),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            2_000_000.0,
            &["id"],
        );
        let d = catalog.add_table(
            "d",
            vec![
                ColumnSpec::key("id", DataType::Int),
                ColumnSpec::with_distinct("b_id", DataType::Int, 500_000.0),
                ColumnSpec::with_distinct("pad", DataType::Str, 1000.0),
            ],
            750_000.0,
            &["id"],
        );
        catalog.add_foreign_key(b, &["a_id"], a);
        catalog.add_foreign_key(c, &["b_id"], b);
        catalog.add_foreign_key(d, &["b_id"], b);
        let a_id = catalog.table(a).attr("id");
        let b_aid = catalog.table(b).attr("a_id");
        let b_id = catalog.table(b).attr("id");
        let b_x = catalog.table(b).attr("x");
        let c_bid = catalog.table(c).attr("b_id");
        let d_bid = catalog.table(d).attr("b_id");
        // Shared, *selective* subexpression σ_{x<5}(B) ⋈ C — the Example 3.1
        // shape that makes temporary/permanent materialization worthwhile.
        let bc = LogicalExpr::join(
            LogicalExpr::select(
                LogicalExpr::scan(b),
                Predicate::from_expr(ScalarExpr::col_cmp_lit(
                    b_x,
                    mvmqo_relalg::expr::CmpOp::Lt,
                    5i64,
                )),
            ),
            LogicalExpr::scan(c),
            Predicate::from_expr(ScalarExpr::col_eq_col(b_id, c_bid)),
        );
        let v1 = LogicalExpr::Join {
            left: LogicalExpr::scan(a),
            right: bc.clone(),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(a_id, b_aid)),
        };
        let v2 = LogicalExpr::Join {
            left: bc,
            right: LogicalExpr::scan(d),
            predicate: Predicate::from_expr(ScalarExpr::col_eq_col(b_id, d_bid)),
        };
        let mut dag = Dag::new();
        let r1 = dag.insert_view(&catalog, "v1", &v1);
        let r2 = dag.insert_view(&catalog, "v2", &v2);
        Fixture {
            catalog,
            dag,
            roots: vec![r1, r2],
            tables: vec![a, b, c, d],
        }
    }

    fn make_engine<'x>(f: &'x Fixture, updates: &'x UpdateModel) -> CostEngine<'x> {
        let mut mats = MatSet::default();
        mats.full.extend(f.roots.iter().copied());
        for t in &f.tables {
            mats.indices
                .insert((StoredRef::Base(*t), f.catalog.table(*t).primary_key[0]));
        }
        CostEngine::new(&f.dag, &f.catalog, updates, CostModel::default(), mats)
    }

    #[test]
    fn greedy_never_increases_cost() {
        let f = shared_fixture();
        let updates =
            UpdateModel::percentage(f.tables.clone(), 10.0, |t| f.catalog.table(t).stats.rows);
        let mut engine = make_engine(&f, &updates);
        let res = run_greedy_warm(
            &mut engine,
            &GreedyOptions::default(),
            &mut WarmStart::default(),
        );
        assert!(res.final_cost <= res.initial_cost + 1e-6);
        for (_, b) in &res.chosen {
            assert!(*b > 0.0);
        }
    }

    #[test]
    fn greedy_beats_nogreedy_at_low_update_rate() {
        let f = shared_fixture();
        let updates =
            UpdateModel::percentage(f.tables.clone(), 1.0, |t| f.catalog.table(t).stats.rows);
        let mut engine = make_engine(&f, &updates);
        let greedy = run_greedy_warm(
            &mut engine,
            &GreedyOptions::default(),
            &mut WarmStart::default(),
        );
        // NoGreedy = the initial cost (no extra materializations).
        assert!(
            greedy.final_cost < greedy.initial_cost * 0.95,
            "greedy {} vs nogreedy {}",
            greedy.final_cost,
            greedy.initial_cost
        );
        assert!(!greedy.chosen.is_empty());
    }

    #[test]
    fn monotonicity_reduces_benefit_evaluations_and_agrees() {
        let f = shared_fixture();
        let updates =
            UpdateModel::percentage(f.tables.clone(), 5.0, |t| f.catalog.table(t).stats.rows);
        let mut e1 = make_engine(&f, &updates);
        let lazy = run_greedy_warm(
            &mut e1,
            &GreedyOptions::default(),
            &mut WarmStart::default(),
        );
        let mut e2 = make_engine(&f, &updates);
        let eager = run_greedy_warm(
            &mut e2,
            &GreedyOptions {
                monotonicity: false,
                ..Default::default()
            },
            &mut WarmStart::default(),
        );
        // Same final cost (up to ties); the evaluation saving appears once
        // the loop runs multiple rounds (eager re-evaluates every candidate
        // per round, lazy only re-checks heap tops).
        assert!((lazy.final_cost - eager.final_cost).abs() < eager.final_cost * 0.05 + 1e-6);
        if eager.chosen.len() >= 2 {
            assert!(
                lazy.benefit_evaluations < eager.benefit_evaluations,
                "lazy {} vs eager {} over {} selections",
                lazy.benefit_evaluations,
                eager.benefit_evaluations,
                eager.chosen.len()
            );
        }
    }

    #[test]
    fn nogreedy_mode_selects_nothing() {
        let f = shared_fixture();
        let updates =
            UpdateModel::percentage(f.tables.clone(), 5.0, |t| f.catalog.table(t).stats.rows);
        let mut engine = make_engine(&f, &updates);
        let res = run_greedy_warm(
            &mut engine,
            &GreedyOptions {
                mode: Mode::NoGreedy,
                ..Default::default()
            },
            &mut WarmStart::default(),
        );
        assert!(res.chosen.is_empty());
        assert_eq!(res.initial_cost, res.final_cost);
    }

    #[test]
    fn space_budget_limits_selection() {
        let f = shared_fixture();
        let updates =
            UpdateModel::percentage(f.tables.clone(), 1.0, |t| f.catalog.table(t).stats.rows);
        let mut engine = make_engine(&f, &updates);
        let unlimited = run_greedy_warm(
            &mut engine,
            &GreedyOptions::default(),
            &mut WarmStart::default(),
        );
        let mut engine2 = make_engine(&f, &updates);
        let tiny = run_greedy_warm(
            &mut engine2,
            &GreedyOptions {
                space_budget_blocks: Some(1.0),
                ..Default::default()
            },
            &mut WarmStart::default(),
        );
        assert!(tiny.space_used_blocks <= 1.0 + 1e-9);
        assert!(tiny.chosen.len() <= unlimited.chosen.len());
    }

    #[test]
    fn diff_candidates_can_be_enabled() {
        let f = shared_fixture();
        let updates =
            UpdateModel::percentage(f.tables.clone(), 5.0, |t| f.catalog.table(t).stats.rows);
        let engine = make_engine(&f, &updates);
        let base = enumerate_candidates(&engine, &GreedyOptions::default());
        let with_diffs = enumerate_candidates(
            &engine,
            &GreedyOptions {
                diff_candidates: true,
                ..Default::default()
            },
        );
        assert!(with_diffs.len() > base.len());
        assert!(with_diffs
            .iter()
            .any(|c| matches!(c, Candidate::Diff(_, _))));
    }

    #[test]
    fn classification_separates_temp_and_perm() {
        let f = shared_fixture();
        let updates =
            UpdateModel::percentage(f.tables.clone(), 5.0, |t| f.catalog.table(t).stats.rows);
        let mut engine = make_engine(&f, &updates);
        let _ = run_greedy_warm(
            &mut engine,
            &GreedyOptions::default(),
            &mut WarmStart::default(),
        );
        let classified = classify_refresh(&engine);
        assert_eq!(classified.len(), engine.mats.full.len());
        for (_, _, cost) in &classified {
            assert!(cost.is_finite());
        }
    }

    #[test]
    fn index_candidates_enumerated_for_join_keys() {
        let f = shared_fixture();
        let updates =
            UpdateModel::percentage(f.tables.clone(), 5.0, |t| f.catalog.table(t).stats.rows);
        let engine = make_engine(&f, &updates);
        let cands = enumerate_candidates(&engine, &GreedyOptions::default());
        // b.a_id is a join key without a pre-existing index → must be a
        // candidate.
        let b_aid = f.catalog.table(f.tables[1]).attr("a_id");
        assert!(cands
            .iter()
            .any(|c| matches!(c, Candidate::Index(StoredRef::Base(t), a)
                if *t == f.tables[1] && *a == b_aid)));
    }

    #[test]
    fn describe_candidate_is_humane() {
        let f = shared_fixture();
        let desc = describe_candidate(&f.dag, Candidate::Full(f.roots[0]));
        assert!(desc.contains("materialize"));
    }
}
