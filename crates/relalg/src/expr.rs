//! Scalar expressions and predicates.
//!
//! Expressions reference attributes by [`AttrId`], so the same predicate
//! object is valid against any equivalent subexpression regardless of join
//! order. Predicates are kept in conjunctive form wherever the optimizer
//! manipulates them: [`Predicate::conjuncts`] / [`Predicate::from_conjuncts`]
//! are the canonical split/merge, and conjunct sets are sorted so that
//! logically identical predicates hash identically (DAG unification depends
//! on this).

use crate::schema::{AttrId, Schema};
use crate::types::{DataType, Value};
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison on two values using the total value order.
    pub fn eval(self, l: &Value, r: &Value) -> bool {
        self.holds(l.cmp(r))
    }

    /// Whether an already-computed ordering satisfies this comparison —
    /// the single truth table shared by row evaluation and the columnar
    /// compiled-predicate path.
    pub fn holds(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// The operator with operand sides swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators over numeric values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScalarExpr {
    /// Attribute reference.
    Col(AttrId),
    /// Literal constant.
    Lit(Value),
    /// Comparison producing a boolean.
    Cmp {
        op: CmpOp,
        lhs: Box<ScalarExpr>,
        rhs: Box<ScalarExpr>,
    },
    /// Arithmetic over numerics.
    Arith {
        op: ArithOp,
        lhs: Box<ScalarExpr>,
        rhs: Box<ScalarExpr>,
    },
    /// N-ary conjunction.
    And(Vec<ScalarExpr>),
    /// N-ary disjunction.
    Or(Vec<ScalarExpr>),
    /// Negation.
    Not(Box<ScalarExpr>),
}

impl ScalarExpr {
    pub fn col(id: AttrId) -> Self {
        ScalarExpr::Col(id)
    }

    pub fn lit(v: impl Into<Value>) -> Self {
        ScalarExpr::Lit(v.into())
    }

    pub fn cmp(op: CmpOp, lhs: ScalarExpr, rhs: ScalarExpr) -> Self {
        ScalarExpr::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `col = col` equality — the canonical join conjunct.
    pub fn col_eq_col(a: AttrId, b: AttrId) -> Self {
        // Canonical operand order so the same join predicate hashes
        // identically however it was written.
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        ScalarExpr::cmp(CmpOp::Eq, ScalarExpr::Col(lo), ScalarExpr::Col(hi))
    }

    /// `col <op> literal` — the canonical selection conjunct.
    pub fn col_cmp_lit(a: AttrId, op: CmpOp, v: impl Into<Value>) -> Self {
        ScalarExpr::cmp(op, ScalarExpr::Col(a), ScalarExpr::lit(v))
    }

    pub fn arith(op: ArithOp, lhs: ScalarExpr, rhs: ScalarExpr) -> Self {
        ScalarExpr::Arith {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// All attribute ids referenced anywhere in the expression.
    pub fn referenced_attrs(&self) -> Vec<AttrId> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_attrs(&self, out: &mut Vec<AttrId>) {
        match self {
            ScalarExpr::Col(id) => out.push(*id),
            ScalarExpr::Lit(_) => {}
            ScalarExpr::Cmp { lhs, rhs, .. } | ScalarExpr::Arith { lhs, rhs, .. } => {
                lhs.collect_attrs(out);
                rhs.collect_attrs(out);
            }
            ScalarExpr::And(es) | ScalarExpr::Or(es) => {
                for e in es {
                    e.collect_attrs(out);
                }
            }
            ScalarExpr::Not(e) => e.collect_attrs(out),
        }
    }

    /// Static result type; `None` if the expression is ill-typed against the
    /// schema (e.g. arithmetic on strings).
    pub fn result_type(&self, schema: &Schema) -> Option<DataType> {
        match self {
            ScalarExpr::Col(id) => schema.attr(*id).map(|a| a.data_type),
            ScalarExpr::Lit(v) => v.data_type(),
            ScalarExpr::Cmp { .. } => Some(DataType::Bool),
            ScalarExpr::Arith { lhs, rhs, .. } => {
                let l = lhs.result_type(schema)?;
                let r = rhs.result_type(schema)?;
                if !l.is_numeric() || !r.is_numeric() {
                    return None;
                }
                if l == DataType::Float || r == DataType::Float {
                    Some(DataType::Float)
                } else {
                    Some(DataType::Int)
                }
            }
            ScalarExpr::And(_) | ScalarExpr::Or(_) | ScalarExpr::Not(_) => Some(DataType::Bool),
        }
    }

    /// Evaluate against a tuple laid out by `schema`.
    ///
    /// Panics on references to attributes absent from the schema — that is a
    /// planner bug, not a data error.
    pub fn eval(&self, tuple: &[Value], schema: &Schema) -> Value {
        match self {
            ScalarExpr::Col(id) => {
                let pos = schema
                    .position_of(*id)
                    .unwrap_or_else(|| panic!("attribute {id} not in schema {schema}"));
                tuple[pos].clone()
            }
            ScalarExpr::Lit(v) => v.clone(),
            ScalarExpr::Cmp { op, lhs, rhs } => {
                let l = lhs.eval(tuple, schema);
                let r = rhs.eval(tuple, schema);
                if l.is_null() || r.is_null() {
                    // SQL three-valued logic collapsed to false for filters.
                    Value::Bool(false)
                } else {
                    Value::Bool(op.eval(&l, &r))
                }
            }
            ScalarExpr::Arith { op, lhs, rhs } => {
                let l = lhs.eval(tuple, schema);
                let r = rhs.eval(tuple, schema);
                eval_arith(*op, &l, &r)
            }
            ScalarExpr::And(es) => Value::Bool(
                es.iter()
                    .all(|e| e.eval(tuple, schema) == Value::Bool(true)),
            ),
            ScalarExpr::Or(es) => Value::Bool(
                es.iter()
                    .any(|e| e.eval(tuple, schema) == Value::Bool(true)),
            ),
            ScalarExpr::Not(e) => match e.eval(tuple, schema) {
                Value::Bool(b) => Value::Bool(!b),
                _ => Value::Bool(false),
            },
        }
    }
}

fn eval_arith(op: ArithOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    // Integer arithmetic stays integral; anything involving a float goes
    // through f64.
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => match op {
            ArithOp::Add => Value::Float(a + b),
            ArithOp::Sub => Value::Float(a - b),
            ArithOp::Mul => Value::Float(a * b),
            ArithOp::Div => {
                if b == 0.0 {
                    Value::Null
                } else {
                    Value::Float(a / b)
                }
            }
        },
        _ => Value::Null,
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Col(id) => write!(f, "{id}"),
            ScalarExpr::Lit(v) => write!(f, "{v}"),
            ScalarExpr::Cmp { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            ScalarExpr::Arith { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            ScalarExpr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            ScalarExpr::Not(e) => write!(f, "NOT {e}"),
        }
    }
}

/// A boolean predicate maintained as a **sorted set of conjuncts**, the form
/// in which the optimizer pushes, splits, and re-combines selections.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Predicate {
    conjuncts: Vec<ScalarExpr>,
}

impl Predicate {
    /// The always-true predicate (empty conjunction).
    pub fn true_() -> Self {
        Predicate::default()
    }

    /// Build from one expression, flattening nested `And`s and sorting the
    /// conjuncts into canonical order.
    pub fn from_expr(e: ScalarExpr) -> Self {
        let mut cs = Vec::new();
        flatten_and(e, &mut cs);
        Predicate::from_conjuncts(cs)
    }

    /// Build from a conjunct list (flattens, sorts, dedups).
    pub fn from_conjuncts(cs: Vec<ScalarExpr>) -> Self {
        let mut flat = Vec::with_capacity(cs.len());
        for c in cs {
            flatten_and(c, &mut flat);
        }
        flat.sort();
        flat.dedup();
        Predicate { conjuncts: flat }
    }

    pub fn conjuncts(&self) -> &[ScalarExpr] {
        &self.conjuncts
    }

    pub fn is_true(&self) -> bool {
        self.conjuncts.is_empty()
    }

    /// All attributes referenced by any conjunct.
    pub fn referenced_attrs(&self) -> Vec<AttrId> {
        let mut out = Vec::new();
        for c in &self.conjuncts {
            c.collect_attrs(&mut out);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Conjunction of two predicates.
    pub fn and(&self, other: &Predicate) -> Predicate {
        let mut cs = self.conjuncts.clone();
        cs.extend(other.conjuncts.iter().cloned());
        Predicate::from_conjuncts(cs)
    }

    /// Split conjuncts into (those fully covered by `attrs`, the rest).
    pub fn split_covered(&self, attrs: &[AttrId]) -> (Predicate, Predicate) {
        let mut covered = Vec::new();
        let mut rest = Vec::new();
        for c in &self.conjuncts {
            if c.referenced_attrs().iter().all(|a| attrs.contains(a)) {
                covered.push(c.clone());
            } else {
                rest.push(c.clone());
            }
        }
        (
            Predicate::from_conjuncts(covered),
            Predicate::from_conjuncts(rest),
        )
    }

    /// Equi-join key pairs `(a, b)` from conjuncts of the form `col = col`.
    pub fn equijoin_keys(&self) -> Vec<(AttrId, AttrId)> {
        self.equijoin_pairs().collect()
    }

    /// [`Predicate::equijoin_keys`] without collecting, in conjunct order.
    pub fn equijoin_pairs(&self) -> impl Iterator<Item = (AttrId, AttrId)> + '_ {
        self.conjuncts.iter().filter_map(|c| match c {
            ScalarExpr::Cmp {
                op: CmpOp::Eq,
                lhs,
                rhs,
            } => match (lhs.as_ref(), rhs.as_ref()) {
                (ScalarExpr::Col(a), ScalarExpr::Col(b)) => Some((*a, *b)),
                _ => None,
            },
            _ => None,
        })
    }

    /// If the whole predicate is a single `col <op> literal` conjunct,
    /// return it — the pattern subsumption derivations look for.
    pub fn as_single_attr_range(&self) -> Option<(AttrId, CmpOp, Value)> {
        if self.conjuncts.len() != 1 {
            return None;
        }
        match &self.conjuncts[0] {
            ScalarExpr::Cmp { op, lhs, rhs } => match (lhs.as_ref(), rhs.as_ref()) {
                (ScalarExpr::Col(a), ScalarExpr::Lit(v)) => Some((*a, *op, v.clone())),
                (ScalarExpr::Lit(v), ScalarExpr::Col(a)) => Some((*a, op.flipped(), v.clone())),
                _ => None,
            },
            _ => None,
        }
    }

    /// Evaluate as a filter.
    pub fn matches(&self, tuple: &[Value], schema: &Schema) -> bool {
        self.conjuncts
            .iter()
            .all(|c| c.eval(tuple, schema) == Value::Bool(true))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_true() {
            return f.write_str("TRUE");
        }
        for (i, c) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                write!(f, " AND ")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

fn flatten_and(e: ScalarExpr, out: &mut Vec<ScalarExpr>) {
    match e {
        ScalarExpr::And(es) => {
            for sub in es {
                flatten_and(sub, out);
            }
        }
        ScalarExpr::Lit(Value::Bool(true)) => {}
        other => out.push(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrAllocator, Attribute};

    fn schema2() -> (Schema, AttrId, AttrId) {
        let mut alloc = AttrAllocator::new();
        let a = alloc.fresh();
        let b = alloc.fresh();
        let s = Schema::new(vec![
            Attribute {
                id: a,
                name: "t.a".into(),
                data_type: DataType::Int,
            },
            Attribute {
                id: b,
                name: "t.b".into(),
                data_type: DataType::Float,
            },
        ]);
        (s, a, b)
    }

    #[test]
    fn eval_comparison_and_arith() {
        let (s, a, b) = schema2();
        let row = vec![Value::Int(3), Value::Float(1.5)];
        let e = ScalarExpr::col_cmp_lit(a, CmpOp::Gt, 2i64);
        assert_eq!(e.eval(&row, &s), Value::Bool(true));
        let sum = ScalarExpr::arith(ArithOp::Add, ScalarExpr::Col(a), ScalarExpr::Col(b));
        assert_eq!(sum.eval(&row, &s), Value::Float(4.5));
    }

    #[test]
    fn division_by_zero_is_null() {
        let (s, a, _) = schema2();
        let row = vec![Value::Int(3), Value::Float(0.0)];
        let e = ScalarExpr::arith(ArithOp::Div, ScalarExpr::Col(a), ScalarExpr::lit(0i64));
        assert_eq!(e.eval(&row, &s), Value::Null);
    }

    #[test]
    fn null_comparison_filters_out() {
        let (s, a, _) = schema2();
        let row = vec![Value::Null, Value::Float(1.0)];
        let e = ScalarExpr::col_cmp_lit(a, CmpOp::Eq, 1i64);
        assert_eq!(e.eval(&row, &s), Value::Bool(false));
    }

    #[test]
    fn predicate_canonicalizes_conjunct_order() {
        let (_, a, b) = schema2();
        let c1 = ScalarExpr::col_cmp_lit(a, CmpOp::Lt, 5i64);
        let c2 = ScalarExpr::col_cmp_lit(b, CmpOp::Gt, 1i64);
        let p1 = Predicate::from_conjuncts(vec![c1.clone(), c2.clone()]);
        let p2 = Predicate::from_conjuncts(vec![c2, c1]);
        assert_eq!(p1, p2);
    }

    #[test]
    fn nested_ands_flatten_and_dedup() {
        let (_, a, b) = schema2();
        let c1 = ScalarExpr::col_cmp_lit(a, CmpOp::Lt, 5i64);
        let c2 = ScalarExpr::col_cmp_lit(b, CmpOp::Gt, 1i64);
        let nested = ScalarExpr::And(vec![
            c1.clone(),
            ScalarExpr::And(vec![c2.clone(), c1.clone()]),
        ]);
        let p = Predicate::from_expr(nested);
        assert_eq!(p.conjuncts().len(), 2);
    }

    #[test]
    fn col_eq_col_is_canonical() {
        let (_, a, b) = schema2();
        assert_eq!(ScalarExpr::col_eq_col(a, b), ScalarExpr::col_eq_col(b, a));
    }

    #[test]
    fn split_covered_partitions_conjuncts() {
        let (_, a, b) = schema2();
        let p = Predicate::from_conjuncts(vec![
            ScalarExpr::col_cmp_lit(a, CmpOp::Lt, 5i64),
            ScalarExpr::col_eq_col(a, b),
        ]);
        let (covered, rest) = p.split_covered(&[a]);
        assert_eq!(covered.conjuncts().len(), 1);
        assert_eq!(rest.conjuncts().len(), 1);
    }

    #[test]
    fn equijoin_keys_extracted() {
        let (_, a, b) = schema2();
        let p = Predicate::from_expr(ScalarExpr::col_eq_col(a, b));
        assert_eq!(p.equijoin_keys(), vec![(a, b)]);
    }

    #[test]
    fn single_attr_range_detection_flips_sides() {
        let (_, a, _) = schema2();
        let p = Predicate::from_expr(ScalarExpr::cmp(
            CmpOp::Gt,
            ScalarExpr::lit(10i64),
            ScalarExpr::Col(a),
        ));
        let (attr, op, v) = p.as_single_attr_range().unwrap();
        assert_eq!(attr, a);
        assert_eq!(op, CmpOp::Lt);
        assert_eq!(v, Value::Int(10));
    }

    #[test]
    fn matches_applies_all_conjuncts() {
        let (s, a, b) = schema2();
        let p = Predicate::from_conjuncts(vec![
            ScalarExpr::col_cmp_lit(a, CmpOp::Ge, 0i64),
            ScalarExpr::col_cmp_lit(b, CmpOp::Lt, 2.0),
        ]);
        assert!(p.matches(&[Value::Int(1), Value::Float(1.0)], &s));
        assert!(!p.matches(&[Value::Int(1), Value::Float(3.0)], &s));
    }

    #[test]
    fn result_type_rules() {
        let (s, a, b) = schema2();
        assert_eq!(ScalarExpr::Col(a).result_type(&s), Some(DataType::Int));
        assert_eq!(
            ScalarExpr::arith(ArithOp::Mul, ScalarExpr::Col(a), ScalarExpr::Col(b)).result_type(&s),
            Some(DataType::Float)
        );
        assert_eq!(
            ScalarExpr::col_cmp_lit(a, CmpOp::Eq, 1i64).result_type(&s),
            Some(DataType::Bool)
        );
        assert_eq!(
            ScalarExpr::arith(ArithOp::Add, ScalarExpr::lit("x"), ScalarExpr::Col(a))
                .result_type(&s),
            None
        );
    }
}
