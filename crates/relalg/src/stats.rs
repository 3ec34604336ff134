//! Statistics and cardinality estimation.
//!
//! [`RelStats`] describes a (sub)expression result: estimated row count and
//! per-attribute column statistics. The derivation functions propagate
//! statistics through every logical operator; the optimizer calls them both
//! for full results and for differential results (the same rules apply — a
//! delta relation is just a smaller multiset with the same schema, §3).
//!
//! The estimation rules are the classical System-R style ones the paper's
//! cost model presumes: `1/V(A)` for equality, range fractions from min/max,
//! `1/max(V(A),V(B))` per equi-join key, and `min(Π V(gᵢ), |R|)` groups for
//! aggregation. They are deliberately simple — the experiments compare two
//! optimizers under the *same* model, so relative behaviour, not absolute
//! accuracy, is what matters.

use crate::expr::{CmpOp, Predicate, ScalarExpr};
use crate::hash::FxHashMap;
use crate::schema::AttrId;

/// Default selectivity for predicates we cannot analyze.
pub const DEFAULT_SELECTIVITY: f64 = 1.0 / 3.0;
/// Default equality selectivity without distinct-count information.
pub const DEFAULT_EQ_SELECTIVITY: f64 = 0.01;

/// Per-attribute statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct ColStats {
    /// Estimated distinct values.
    pub distinct: f64,
    /// Numeric value range, when known.
    pub range: Option<(f64, f64)>,
}

/// Per-attribute statistics of one result. Fx-hashed: the optimizer
/// derives these maps for every DAG node at every update state, and their
/// iteration order reaches float products ([`derive_distinct`]), so it must
/// not depend on a per-map random seed.
pub type ColMap = FxHashMap<AttrId, ColStats>;

/// Statistics of one relation-valued result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelStats {
    pub rows: f64,
    pub cols: ColMap,
}

impl RelStats {
    pub fn empty() -> Self {
        RelStats::default()
    }

    /// Distinct count for an attribute, bounded by the row count; falls back
    /// to `rows * DEFAULT_EQ_SELECTIVITY⁻¹`-style heuristics via the default.
    pub fn distinct(&self, attr: AttrId) -> f64 {
        let d = self
            .cols
            .get(&attr)
            .map(|c| c.distinct)
            .unwrap_or(self.rows * DEFAULT_EQ_SELECTIVITY);
        d.clamp(1.0, self.rows.max(1.0))
    }

    /// Clamp all distinct counts to the current row count. Call after any
    /// derivation that reduced `rows`.
    fn renormalize(&mut self) {
        let cap = self.rows.max(1.0);
        for c in self.cols.values_mut() {
            if c.distinct > cap {
                c.distinct = cap;
            }
        }
    }

    /// Scale row count by `factor`, applying the standard assumption that
    /// distinct counts shrink no faster than row counts.
    pub fn scaled(&self, factor: f64) -> RelStats {
        let mut out = self.clone();
        out.rows = (self.rows * factor).max(0.0);
        out.renormalize();
        out
    }

    /// Approximate equality on row count and per-column distincts/ranges,
    /// with `eps` relative tolerance. An incremental statistics refresh
    /// uses this to decide whether a recomputed property actually moved
    /// (and so whether dependents must be re-costed).
    pub fn approx_eq(&self, other: &RelStats, eps: f64) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= eps * a.abs().max(b.abs()).max(1.0);
        if !close(self.rows, other.rows) || self.cols.len() != other.cols.len() {
            return false;
        }
        self.cols.iter().all(|(a, c)| {
            other.cols.get(a).is_some_and(|o| {
                close(c.distinct, o.distinct)
                    && match (c.range, o.range) {
                        (None, None) => true,
                        (Some((l1, h1)), Some((l2, h2))) => close(l1, l2) && close(h1, h2),
                        _ => false,
                    }
            })
        })
    }
}

/// Selectivity of a single conjunct against `stats`.
fn conjunct_selectivity(stats: &RelStats, c: &ScalarExpr) -> f64 {
    if let ScalarExpr::Cmp { op, lhs, rhs } = c {
        match (lhs.as_ref(), rhs.as_ref()) {
            (ScalarExpr::Col(a), ScalarExpr::Lit(v)) => {
                return attr_lit_selectivity(stats, *a, *op, v.as_f64());
            }
            (ScalarExpr::Lit(v), ScalarExpr::Col(a)) => {
                return attr_lit_selectivity(stats, *a, op.flipped(), v.as_f64());
            }
            (ScalarExpr::Col(a), ScalarExpr::Col(b)) if *op == CmpOp::Eq => {
                // Same-relation column equality.
                return 1.0 / stats.distinct(*a).max(stats.distinct(*b));
            }
            _ => {}
        }
    }
    if let ScalarExpr::Or(es) = c {
        // Independence-based union bound.
        let mut keep = 1.0;
        for e in es {
            keep *= 1.0 - conjunct_selectivity(stats, e);
        }
        return (1.0 - keep).clamp(0.0, 1.0);
    }
    if let ScalarExpr::Not(e) = c {
        return (1.0 - conjunct_selectivity(stats, e)).clamp(0.0, 1.0);
    }
    DEFAULT_SELECTIVITY
}

fn attr_lit_selectivity(stats: &RelStats, a: AttrId, op: CmpOp, lit: Option<f64>) -> f64 {
    let d = stats.distinct(a);
    match op {
        CmpOp::Eq => 1.0 / d,
        CmpOp::Ne => 1.0 - 1.0 / d,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            let range = stats.cols.get(&a).and_then(|c| c.range);
            match (range, lit) {
                (Some((lo, hi)), Some(v)) if hi > lo => {
                    let frac = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
                    match op {
                        CmpOp::Lt | CmpOp::Le => frac.max(1.0 / d),
                        _ => (1.0 - frac).max(1.0 / d),
                    }
                }
                _ => DEFAULT_SELECTIVITY,
            }
        }
    }
}

/// Combined selectivity of a predicate (independence across conjuncts).
pub fn predicate_selectivity(stats: &RelStats, pred: &Predicate) -> f64 {
    let mut sel = 1.0;
    for c in pred.conjuncts() {
        sel *= conjunct_selectivity(stats, c);
    }
    sel.clamp(0.0, 1.0)
}

/// Row count after a selection: the `rows` of [`derive_select`], without
/// deriving (and allocating) the column statistics.
pub fn select_rows(input: &RelStats, pred: &Predicate) -> f64 {
    (input.rows * predicate_selectivity(input, pred)).max(0.0)
}

/// Statistics after a selection.
pub fn derive_select(input: &RelStats, pred: &Predicate) -> RelStats {
    let sel = predicate_selectivity(input, pred);
    let mut out = input.scaled(sel);
    // Tighten ranges / distincts for single-attribute conjuncts.
    for c in pred.conjuncts() {
        if let ScalarExpr::Cmp { op, lhs, rhs } = c {
            if let (ScalarExpr::Col(a), ScalarExpr::Lit(v)) = (lhs.as_ref(), rhs.as_ref()) {
                if let Some(cs) = out.cols.get_mut(a) {
                    match op {
                        CmpOp::Eq => {
                            cs.distinct = 1.0;
                            if let Some(x) = v.as_f64() {
                                cs.range = Some((x, x));
                            }
                        }
                        CmpOp::Lt | CmpOp::Le => {
                            if let (Some((lo, hi)), Some(x)) = (cs.range, v.as_f64()) {
                                cs.range = Some((lo, x.min(hi)));
                            }
                        }
                        CmpOp::Gt | CmpOp::Ge => {
                            if let (Some((lo, hi)), Some(x)) = (cs.range, v.as_f64()) {
                                cs.range = Some((x.max(lo), hi));
                            }
                        }
                        CmpOp::Ne => {}
                    }
                }
            }
        }
    }
    out.renormalize();
    out
}

/// Statistics after projecting onto `attrs` (multiset projection: row count
/// unchanged).
pub fn derive_project(input: &RelStats, attrs: &[AttrId]) -> RelStats {
    let mut cols = ColMap::with_capacity_and_hasher(attrs.len(), Default::default());
    for a in attrs {
        if let Some(c) = input.cols.get(a) {
            cols.insert(*a, c.clone());
        }
    }
    let mut out = RelStats {
        rows: input.rows,
        cols,
    };
    out.renormalize();
    out
}

/// Statistics after an inner join with predicate `pred` (conjuncts may mix
/// equi-join keys and residual filters).
pub fn derive_join(left: &RelStats, right: &RelStats, pred: &Predicate) -> RelStats {
    let mut cols = left.cols.clone();
    for (a, c) in &right.cols {
        cols.insert(*a, c.clone());
    }
    let cross = left.rows * right.rows;
    let mut sel = 1.0;
    let mut handled = 0usize;
    for (a, b) in pred.equijoin_pairs() {
        let da = if left.cols.contains_key(&a) {
            left.distinct(a)
        } else {
            right.distinct(a)
        };
        let db = if right.cols.contains_key(&b) {
            right.distinct(b)
        } else {
            left.distinct(b)
        };
        sel *= 1.0 / da.max(db).max(1.0);
        handled += 1;
    }
    // Residual (non-equi-join) conjuncts use single-relation rules against
    // the combined stats.
    let combined = RelStats { rows: cross, cols };
    let residual = pred.conjuncts().len() - handled;
    let mut out_rows = cross * sel;
    if residual > 0 {
        for c in pred.conjuncts() {
            let is_key = matches!(
                c,
                ScalarExpr::Cmp { op: CmpOp::Eq, lhs, rhs }
                    if matches!((lhs.as_ref(), rhs.as_ref()), (ScalarExpr::Col(_), ScalarExpr::Col(_)))
            );
            if !is_key {
                out_rows *= conjunct_selectivity(&combined, c);
            }
        }
    }
    let mut out = RelStats {
        rows: out_rows.max(0.0),
        cols: combined.cols,
    };
    out.renormalize();
    out
}

/// Statistics after group-by aggregation: one row per group.
pub fn derive_aggregate(input: &RelStats, group_by: &[AttrId], agg_outs: &[AttrId]) -> RelStats {
    let groups = if input.rows <= 0.0 {
        0.0
    } else {
        let mut g_est = 1.0;
        for g in group_by {
            g_est *= input.distinct(*g);
        }
        g_est.min(input.rows).max(1.0)
    };
    let mut cols = ColMap::default();
    for g in group_by {
        if let Some(c) = input.cols.get(g) {
            let mut c = c.clone();
            c.distinct = c.distinct.min(groups);
            cols.insert(*g, c);
        }
    }
    for out_attr in agg_outs {
        cols.insert(
            *out_attr,
            ColStats {
                distinct: groups.max(1.0),
                range: None,
            },
        );
    }
    RelStats { rows: groups, cols }
}

/// Statistics after multiset union (additive).
pub fn derive_union(left: &RelStats, right: &RelStats) -> RelStats {
    let mut cols = ColMap::default();
    for (a, lc) in &left.cols {
        let distinct = match right.cols.get(a) {
            Some(rc) => (lc.distinct + rc.distinct) * 0.75, // overlap discount
            None => lc.distinct,
        };
        let range = match (lc.range, right.cols.get(a).and_then(|c| c.range)) {
            (Some((l1, h1)), Some((l2, h2))) => Some((l1.min(l2), h1.max(h2))),
            (r, None) => r,
            (None, r) => r,
        };
        cols.insert(*a, ColStats { distinct, range });
    }
    let mut out = RelStats {
        rows: left.rows + right.rows,
        cols,
    };
    out.renormalize();
    out
}

/// Statistics after multiset difference `left ∸ right`.
pub fn derive_minus(left: &RelStats, right: &RelStats) -> RelStats {
    let mut out = left.clone();
    out.rows = (left.rows - right.rows).max(0.0);
    out.renormalize();
    out
}

/// Statistics after duplicate elimination.
pub fn derive_distinct(input: &RelStats) -> RelStats {
    let mut d = 1.0;
    for c in input.cols.values() {
        d *= c.distinct.max(1.0);
        if d > input.rows {
            d = input.rows;
            break;
        }
    }
    let mut out = input.clone();
    out.rows = d
        .min(input.rows)
        .max(if input.rows > 0.0 { 1.0 } else { 0.0 });
    out.renormalize();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr;

    #[allow(clippy::type_complexity)]
    fn stats(rows: f64, entries: &[(u32, f64, Option<(f64, f64)>)]) -> RelStats {
        let mut cols = ColMap::default();
        for (id, d, r) in entries {
            cols.insert(
                AttrId(*id),
                ColStats {
                    distinct: *d,
                    range: *r,
                },
            );
        }
        RelStats { rows, cols }
    }

    #[test]
    fn equality_selectivity_is_one_over_distinct() {
        let s = stats(1000.0, &[(0, 50.0, None)]);
        let p = Predicate::from_expr(ScalarExpr::col_cmp_lit(AttrId(0), CmpOp::Eq, 7i64));
        let out = derive_select(&s, &p);
        assert!((out.rows - 20.0).abs() < 1e-6);
        assert_eq!(out.cols[&AttrId(0)].distinct, 1.0);
    }

    #[test]
    fn range_selectivity_uses_min_max() {
        let s = stats(1000.0, &[(0, 100.0, Some((0.0, 100.0)))]);
        let p = Predicate::from_expr(ScalarExpr::col_cmp_lit(AttrId(0), CmpOp::Lt, 25.0));
        let out = derive_select(&s, &p);
        assert!((out.rows - 250.0).abs() < 1.0);
        assert_eq!(out.cols[&AttrId(0)].range, Some((0.0, 25.0)));
    }

    #[test]
    fn conjunct_selectivities_multiply() {
        let s = stats(1000.0, &[(0, 10.0, None), (1, 20.0, None)]);
        let p = Predicate::from_conjuncts(vec![
            ScalarExpr::col_cmp_lit(AttrId(0), CmpOp::Eq, 1i64),
            ScalarExpr::col_cmp_lit(AttrId(1), CmpOp::Eq, 2i64),
        ]);
        let out = derive_select(&s, &p);
        assert!((out.rows - 5.0).abs() < 1e-6);
    }

    #[test]
    fn join_uses_max_distinct_rule() {
        let l = stats(1000.0, &[(0, 100.0, None)]);
        let r = stats(100.0, &[(1, 100.0, None)]);
        let p = Predicate::from_expr(ScalarExpr::col_eq_col(AttrId(0), AttrId(1)));
        let out = derive_join(&l, &r, &p);
        // 1000 * 100 / 100 = 1000 (FK-like join).
        assert!((out.rows - 1000.0).abs() < 1e-6);
        assert!(out.cols.contains_key(&AttrId(0)));
        assert!(out.cols.contains_key(&AttrId(1)));
    }

    #[test]
    fn join_residual_filter_applies() {
        let l = stats(1000.0, &[(0, 100.0, None)]);
        let r = stats(100.0, &[(1, 100.0, None), (2, 10.0, None)]);
        let p = Predicate::from_conjuncts(vec![
            ScalarExpr::col_eq_col(AttrId(0), AttrId(1)),
            ScalarExpr::col_cmp_lit(AttrId(2), CmpOp::Eq, 3i64),
        ]);
        let out = derive_join(&l, &r, &p);
        assert!((out.rows - 100.0).abs() < 1e-6);
    }

    #[test]
    fn aggregate_group_count_capped_by_rows() {
        let s = stats(100.0, &[(0, 1000.0, None)]);
        let out = derive_aggregate(&s, &[AttrId(0)], &[AttrId(9)]);
        assert!(out.rows <= 100.0);
        assert!(out.cols.contains_key(&AttrId(9)));
    }

    #[test]
    fn aggregate_of_empty_input_is_empty() {
        let s = stats(0.0, &[(0, 1.0, None)]);
        let out = derive_aggregate(&s, &[AttrId(0)], &[]);
        assert_eq!(out.rows, 0.0);
    }

    #[test]
    fn union_adds_rows_and_widens_ranges() {
        let l = stats(10.0, &[(0, 5.0, Some((0.0, 5.0)))]);
        let r = stats(20.0, &[(0, 10.0, Some((3.0, 9.0)))]);
        let out = derive_union(&l, &r);
        assert_eq!(out.rows, 30.0);
        assert_eq!(out.cols[&AttrId(0)].range, Some((0.0, 9.0)));
    }

    #[test]
    fn minus_saturates_at_zero() {
        let l = stats(10.0, &[]);
        let r = stats(25.0, &[]);
        assert_eq!(derive_minus(&l, &r).rows, 0.0);
    }

    #[test]
    fn project_drops_unlisted_columns() {
        let s = stats(50.0, &[(0, 5.0, None), (1, 6.0, None)]);
        let out = derive_project(&s, &[AttrId(1)]);
        assert_eq!(out.rows, 50.0);
        assert!(!out.cols.contains_key(&AttrId(0)));
        assert!(out.cols.contains_key(&AttrId(1)));
    }

    #[test]
    fn distinct_bounded_by_rows() {
        let s = stats(100.0, &[(0, 8.0, None), (1, 4.0, None)]);
        let out = derive_distinct(&s);
        assert!((out.rows - 32.0).abs() < 1e-6);
        let s2 = stats(10.0, &[(0, 8.0, None), (1, 4.0, None)]);
        assert_eq!(derive_distinct(&s2).rows, 10.0);
    }

    #[test]
    fn scaled_preserves_distinct_caps() {
        let s = stats(1000.0, &[(0, 900.0, None)]);
        let out = s.scaled(0.01);
        assert_eq!(out.rows, 10.0);
        assert!(out.cols[&AttrId(0)].distinct <= 10.0);
    }

    #[test]
    fn or_selectivity_union_bound() {
        let s = stats(1000.0, &[(0, 10.0, None)]);
        let or = ScalarExpr::Or(vec![
            ScalarExpr::col_cmp_lit(AttrId(0), CmpOp::Eq, 1i64),
            ScalarExpr::col_cmp_lit(AttrId(0), CmpOp::Eq, 2i64),
        ]);
        let p = Predicate::from_expr(or);
        let sel = predicate_selectivity(&s, &p);
        assert!((sel - 0.19).abs() < 1e-6);
    }
}
