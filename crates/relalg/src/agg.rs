//! Aggregate functions and incremental accumulators.
//!
//! The paper (§3.1.2, footnote 1) distinguishes *distributive* aggregates,
//! whose materialized results can be maintained from input deltas alone
//! (COUNT, SUM — with a tuple count to handle deletions — and AVG via
//! SUM/COUNT), from aggregates like MIN/MAX whose value under deletions may
//! require re-examining the group. [`AggFunc::removable`] captures that
//! distinction; the maintenance planner charges an affected-group recompute
//! when a non-removable aggregate sees deletions.

use crate::expr::ScalarExpr;
use crate::schema::AttrId;
use crate::types::{DataType, Value};
use std::fmt;

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// True if deletions can be applied to a materialized result of this
    /// aggregate without consulting the base data (given a per-group count).
    pub fn removable(self) -> bool {
        matches!(self, AggFunc::Count | AggFunc::Sum | AggFunc::Avg)
    }

    /// Output type given the input expression type.
    pub fn result_type(self, input: DataType) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum => input,
            AggFunc::Min | AggFunc::Max => input,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        f.write_str(s)
    }
}

/// One aggregate output column: `out_attr = func(input_expr)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Argument expression; ignored (may be any) for COUNT(*).
    pub input: ScalarExpr,
    /// Fresh attribute id naming the aggregate output.
    pub out: AttrId,
}

impl AggSpec {
    pub fn new(func: AggFunc, input: ScalarExpr, out: AttrId) -> Self {
        AggSpec { func, input, out }
    }
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}) AS {}", self.func, self.input, self.out)
    }
}

/// Running state for one aggregate within one group.
///
/// All functions track `count`, the non-NULL inputs folded in, so that SUM
/// and AVG can yield NULL when there are none. Whether the *group* still
/// exists is a separate count of its input rows, kept by the caller: a
/// group whose inputs are all NULL has rows but a zero `count`.
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    func: AggFunc,
    count: i64,
    sum: f64,
    /// Whether any input so far was integral (so SUM can stay integral).
    all_int: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    pub fn new(func: AggFunc) -> Self {
        Accumulator {
            func,
            count: 0,
            sum: 0.0,
            all_int: true,
            min: None,
            max: None,
        }
    }

    /// Fold one input value in (an inserted tuple's argument).
    pub fn add(&mut self, v: &Value) {
        if v.is_null() {
            return;
        }
        self.count += 1;
        if let Some(x) = v.as_f64() {
            self.sum += x;
        }
        if !matches!(v, Value::Int(_)) {
            self.all_int = false;
        }
        match (&self.min, v) {
            (None, _) => self.min = Some(v.clone()),
            (Some(m), v) if v < m => self.min = Some(v.clone()),
            _ => {}
        }
        match (&self.max, v) {
            (None, _) => self.max = Some(v.clone()),
            (Some(m), v) if v > m => self.max = Some(v.clone()),
            _ => {}
        }
    }

    /// Remove one input value (a deleted tuple's argument). Only valid for
    /// removable aggregates — MIN/MAX removal must recompute the group.
    pub fn remove(&mut self, v: &Value) {
        debug_assert!(
            self.func.removable(),
            "remove() on non-removable aggregate {}",
            self.func
        );
        if v.is_null() {
            return;
        }
        self.count -= 1;
        if let Some(x) = v.as_f64() {
            self.sum -= x;
        }
    }

    /// Number of non-null inputs currently folded in.
    pub fn count(&self) -> i64 {
        self.count
    }

    /// Current aggregate value.
    pub fn finish(&self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.all_int {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }

    /// Decompose into raw state for persistence:
    /// `(func, count, sum, all_int, min, max)`.
    #[allow(clippy::type_complexity)]
    pub fn to_parts(&self) -> (AggFunc, i64, f64, bool, Option<Value>, Option<Value>) {
        (
            self.func,
            self.count,
            self.sum,
            self.all_int,
            self.min.clone(),
            self.max.clone(),
        )
    }

    /// Reassemble from persisted state (inverse of [`Accumulator::to_parts`]).
    pub fn from_parts(
        func: AggFunc,
        count: i64,
        sum: f64,
        all_int: bool,
        min: Option<Value>,
        max: Option<Value>,
    ) -> Self {
        Accumulator {
            func,
            count,
            sum,
            all_int,
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sum_avg_roundtrip() {
        let mut c = Accumulator::new(AggFunc::Count);
        let mut s = Accumulator::new(AggFunc::Sum);
        let mut a = Accumulator::new(AggFunc::Avg);
        for v in [1i64, 2, 3] {
            c.add(&Value::Int(v));
            s.add(&Value::Int(v));
            a.add(&Value::Int(v));
        }
        assert_eq!(c.finish(), Value::Int(3));
        assert_eq!(s.finish(), Value::Int(6));
        assert_eq!(a.finish(), Value::Float(2.0));
    }

    #[test]
    fn removal_inverts_insertion() {
        let mut s = Accumulator::new(AggFunc::Sum);
        s.add(&Value::Int(5));
        s.add(&Value::Int(7));
        s.remove(&Value::Int(5));
        assert_eq!(s.finish(), Value::Int(7));
        s.remove(&Value::Int(7));
        assert_eq!(s.count(), 0);
        assert_eq!(s.finish(), Value::Null);
    }

    #[test]
    fn nulls_do_not_contribute() {
        let mut c = Accumulator::new(AggFunc::Count);
        c.add(&Value::Null);
        c.add(&Value::Int(1));
        assert_eq!(c.finish(), Value::Int(1));
    }

    #[test]
    fn min_max_track_extremes() {
        let mut mn = Accumulator::new(AggFunc::Min);
        let mut mx = Accumulator::new(AggFunc::Max);
        for v in [3i64, 1, 2] {
            mn.add(&Value::Int(v));
            mx.add(&Value::Int(v));
        }
        assert_eq!(mn.finish(), Value::Int(1));
        assert_eq!(mx.finish(), Value::Int(3));
    }

    #[test]
    fn sum_promotes_to_float_on_float_input() {
        let mut s = Accumulator::new(AggFunc::Sum);
        s.add(&Value::Int(1));
        s.add(&Value::Float(0.5));
        assert_eq!(s.finish(), Value::Float(1.5));
    }

    #[test]
    fn removable_classification() {
        assert!(AggFunc::Count.removable());
        assert!(AggFunc::Sum.removable());
        assert!(AggFunc::Avg.removable());
        assert!(!AggFunc::Min.removable());
        assert!(!AggFunc::Max.removable());
    }

    #[test]
    fn empty_group_values() {
        assert_eq!(Accumulator::new(AggFunc::Count).finish(), Value::Int(0));
        assert_eq!(Accumulator::new(AggFunc::Sum).finish(), Value::Null);
        assert_eq!(Accumulator::new(AggFunc::Min).finish(), Value::Null);
    }

    #[test]
    fn result_types() {
        assert_eq!(AggFunc::Count.result_type(DataType::Str), DataType::Int);
        assert_eq!(AggFunc::Sum.result_type(DataType::Int), DataType::Int);
        assert_eq!(AggFunc::Avg.result_type(DataType::Int), DataType::Float);
        assert_eq!(AggFunc::Min.result_type(DataType::Date), DataType::Date);
    }
}
