//! Tuples (rows) and multiset helpers.
//!
//! A relation with duplicates is a *multiset* of tuples (§3 of the paper uses
//! multiset relational algebra throughout). Tuples are plain value vectors
//! positioned against a schema; the helpers here implement bag equality and
//! bag difference, used both by the execution engine and by tests that check
//! incremental maintenance against recomputation.

use crate::types::Value;
use std::collections::HashMap;

/// A single row: values positionally aligned with a schema.
pub type Tuple = Vec<Value>;

/// Counts each distinct tuple in a multiset.
pub fn bag_counts(rows: &[Tuple]) -> HashMap<&[Value], i64> {
    let mut m: HashMap<&[Value], i64> = HashMap::with_capacity(rows.len());
    for r in rows {
        *m.entry(r.as_slice()).or_insert(0) += 1;
    }
    m
}

/// True if two multisets of tuples are equal (order-insensitive, duplicate
/// counts respected).
pub fn bag_eq(a: &[Tuple], b: &[Tuple]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    bag_counts(a) == bag_counts(b)
}

/// Multiset difference `a ∸ b` (monus): removes one occurrence from `a` per
/// occurrence in `b`; occurrences of `b` not present in `a` are ignored.
///
/// Single-allocation: the removal counts borrow `b`'s tuples directly (no
/// per-distinct-key `to_vec`), so the only new storage is the output.
pub fn bag_minus(a: &[Tuple], b: &[Tuple]) -> Vec<Tuple> {
    if b.is_empty() {
        return a.to_vec();
    }
    let mut remove = bag_counts(b);
    let mut out = Vec::with_capacity(a.len().saturating_sub(b.len()));
    for r in a {
        match remove.get_mut(r.as_slice()) {
            Some(c) if *c > 0 => *c -= 1,
            _ => out.push(r.clone()),
        }
    }
    out
}

/// Multiset union `a ⊎ b` (additive).
pub fn bag_union(a: &[Tuple], b: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

/// Approximate multiset equality: rows are matched in sorted order and
/// float values compared with relative tolerance `rel_tol`.
///
/// Incremental maintenance of floating-point aggregates (SUM/AVG) is exact
/// in the multiset algebra but reassociates additions, so maintained and
/// recomputed results may differ in the last few ulps; correctness checks
/// use this comparison for such views.
pub fn bag_eq_approx(a: &[Tuple], b: &[Tuple], rel_tol: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut sa: Vec<&Tuple> = a.iter().collect();
    let mut sb: Vec<&Tuple> = b.iter().collect();
    sa.sort();
    sb.sort();
    sa.iter().zip(&sb).all(|(ra, rb)| {
        ra.len() == rb.len()
            && ra.iter().zip(rb.iter()).all(|(x, y)| match (x, y) {
                (Value::Float(fx), Value::Float(fy)) => {
                    let scale = fx.abs().max(fy.abs()).max(1.0);
                    (fx - fy).abs() <= rel_tol * scale
                }
                _ => x == y,
            })
    })
}

/// Concatenate two tuples (join output construction).
pub fn concat_tuples(a: &[Value], b: &[Value]) -> Tuple {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;

    fn t(vals: &[i64]) -> Tuple {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn bag_eq_respects_duplicates() {
        let a = vec![t(&[1]), t(&[1]), t(&[2])];
        let b = vec![t(&[1]), t(&[2]), t(&[1])];
        let c = vec![t(&[1]), t(&[2]), t(&[2])];
        assert!(bag_eq(&a, &b));
        assert!(!bag_eq(&a, &c));
    }

    #[test]
    fn bag_minus_removes_one_occurrence_per_match() {
        let a = vec![t(&[1]), t(&[1]), t(&[2])];
        let b = vec![t(&[1]), t(&[3])];
        let d = bag_minus(&a, &b);
        assert!(bag_eq(&d, &[t(&[1]), t(&[2])]));
    }

    #[test]
    fn bag_minus_of_self_is_empty() {
        let a = vec![t(&[1]), t(&[1]), t(&[2])];
        assert!(bag_minus(&a, &a).is_empty());
    }

    #[test]
    fn bag_union_is_additive() {
        let a = vec![t(&[1])];
        let b = vec![t(&[1]), t(&[2])];
        let u = bag_union(&a, &b);
        assert_eq!(u.len(), 3);
        let counts = bag_counts(&u);
        assert_eq!(counts[t(&[1]).as_slice()], 2);
    }

    #[test]
    fn approx_eq_tolerates_float_reassociation() {
        let a = vec![vec![Value::Int(1), Value::Float(0.1 + 0.2)]];
        let b = vec![vec![Value::Int(1), Value::Float(0.3)]];
        assert!(bag_eq_approx(&a, &b, 1e-9));
        let c = vec![vec![Value::Int(1), Value::Float(0.4)]];
        assert!(!bag_eq_approx(&a, &c, 1e-9));
        // Non-float columns stay exact.
        let d = vec![vec![Value::Int(2), Value::Float(0.3)]];
        assert!(!bag_eq_approx(&a, &d, 1e-9));
    }

    #[test]
    fn concat_appends_in_order() {
        assert_eq!(concat_tuples(&t(&[1]), &t(&[2, 3])), t(&[1, 2, 3]));
    }
}
