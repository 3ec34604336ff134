//! Self-describing binary codec for the durability layer.
//!
//! Snapshots and WAL records persist relational state — values, schemas,
//! columnar [`Batch`]es, logical view expressions, and the catalog — as
//! compact little-endian byte streams. The encoding is deliberately
//! hand-rolled (no serde dependency): every composite is length- or
//! count-prefixed and every enum carries a one-byte tag, so a decoder can
//! always detect truncation and never reads past its input.
//!
//! The columnar encoding mirrors the SoA [`Batch`] layout from the
//! vectorized executor: a typed column serializes as its physical vector
//! plus an optional null mask, so writing a delta batch to the WAL is a
//! near-memcpy of the structures the engine already holds.

use crate::agg::{AggFunc, AggSpec};
use crate::batch::{Batch, Column, ColumnData, Dictionary};
use crate::catalog::{Catalog, ForeignKey, TableDef, TableId};
use crate::expr::{ArithOp, CmpOp, Predicate, ScalarExpr};
use crate::logical::{LogicalExpr, ViewDef};
use crate::schema::{AttrId, Attribute, Schema};
use crate::stats::{ColMap, ColStats, RelStats};
use crate::types::{DataType, Value};
use std::fmt;
use std::sync::Arc;

/// Decoding failure: the input is shorter than the structure it claims to
/// hold, or a tag/payload is not a valid encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended inside a structure.
    Truncated,
    /// A tag or payload violates the format.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("encoded input truncated"),
            CodecError::Invalid(why) => write!(f, "invalid encoding: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

fn invalid(why: impl Into<String>) -> CodecError {
    CodecError::Invalid(why.into())
}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An encoder writing into `buf`, cleared first: a caller that encodes
    /// repeatedly hands back the previous output, so its capacity is
    /// reused instead of allocated (and faulted in) again.
    pub fn with_buffer(mut buf: Vec<u8>) -> Enc {
        buf.clear();
        Enc { buf }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats persist as raw IEEE bits, so every value (including -0.0 and
    /// NaN payloads) round-trips exactly.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Length-prefixed UTF-8.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Cursor-based decoder over a byte slice. Every read is bounds-checked and
/// returns [`CodecError::Truncated`] rather than panicking on short input.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The next `N` raw bytes (fixed-size fields and file headers).
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        self.take(N)?.try_into().map_err(|_| CodecError::Truncated)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(invalid(format!("bool byte {b}"))),
        }
    }

    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| invalid("non-UTF-8 string"))
    }

    /// Count prefix, sanity-bounded by the bytes actually remaining so a
    /// corrupt length cannot trigger a huge allocation. `min_elem_bytes` is
    /// the smallest encoding one counted element can have; every decoder
    /// of untrusted input reads its counts through here.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_elem_bytes.max(1) + 1 {
            return Err(invalid(format!("count {n} exceeds remaining input")));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------------

pub fn encode_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Int(x) => {
            e.u8(1);
            e.i64(*x);
        }
        Value::Float(x) => {
            e.u8(2);
            e.f64(*x);
        }
        Value::Str(s) => {
            e.u8(3);
            e.str(s);
        }
        Value::Date(d) => {
            e.u8(4);
            e.i32(*d);
        }
        Value::Bool(b) => {
            e.u8(5);
            e.bool(*b);
        }
    }
}

pub fn decode_value(d: &mut Dec) -> Result<Value, CodecError> {
    Ok(match d.u8()? {
        0 => Value::Null,
        1 => Value::Int(d.i64()?),
        2 => Value::Float(d.f64()?),
        3 => Value::Str(Arc::from(d.str()?)),
        4 => Value::Date(d.i32()?),
        5 => Value::Bool(d.bool()?),
        t => return Err(invalid(format!("value tag {t}"))),
    })
}

pub fn encode_data_type(e: &mut Enc, dt: DataType) {
    e.u8(match dt {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Date => 3,
        DataType::Bool => 4,
    });
}

pub fn decode_data_type(d: &mut Dec) -> Result<DataType, CodecError> {
    Ok(match d.u8()? {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Date,
        4 => DataType::Bool,
        t => return Err(invalid(format!("data type tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Schemas
// ---------------------------------------------------------------------------

pub fn encode_schema(e: &mut Enc, s: &Schema) {
    e.u32(s.len() as u32);
    for a in s.attrs() {
        e.u32(a.id.0);
        e.str(&a.name);
        encode_data_type(e, a.data_type);
    }
}

pub fn decode_schema(d: &mut Dec) -> Result<Schema, CodecError> {
    let n = d.count(9)?;
    let mut attrs = Vec::with_capacity(n);
    let mut ids: Vec<u32> = Vec::with_capacity(n);
    for _ in 0..n {
        let id = AttrId(d.u32()?);
        if ids.contains(&id.0) {
            return Err(invalid(format!("duplicate attribute id {id}")));
        }
        ids.push(id.0);
        attrs.push(Attribute {
            id,
            name: d.str()?,
            data_type: decode_data_type(d)?,
        });
    }
    Ok(Schema::new(attrs))
}

// ---------------------------------------------------------------------------
// Columns and batches
// ---------------------------------------------------------------------------

/// Tag bytes for [`ColumnData`] variants (6 = dictionary-encoded strings;
/// 5 is not a valid tag).
fn column_tag(data: &ColumnData) -> u8 {
    match data {
        ColumnData::Int(_) => 0,
        ColumnData::Float(_) => 1,
        ColumnData::Str(_) => 2,
        ColumnData::Date(_) => 3,
        ColumnData::Bool(_) => 4,
        ColumnData::Dict { .. } => 6,
    }
}

pub fn encode_column(e: &mut Enc, c: &Column) {
    e.u8(column_tag(c.data()));
    e.u32(c.len() as u32);
    match c.data() {
        ColumnData::Int(v) => v.iter().for_each(|x| e.i64(*x)),
        ColumnData::Float(v) => v.iter().for_each(|x| e.f64(*x)),
        ColumnData::Str(v) => v.iter().for_each(|s| e.str(s)),
        ColumnData::Date(v) => v.iter().for_each(|x| e.i32(*x)),
        ColumnData::Bool(v) => v.iter().for_each(|x| e.bool(*x)),
        ColumnData::Dict { codes, dict } => {
            // Codes first (length `n` from the header), then the dictionary
            // entries. Hashes and the intern index are derived state and
            // are rebuilt on decode.
            codes.iter().for_each(|x| e.u32(*x));
            e.u32(dict.len() as u32);
            dict.values().iter().for_each(|s| e.str(s));
        }
    }
    match c.null_mask() {
        Some(mask) => {
            e.u8(1);
            mask.iter().for_each(|b| e.bool(*b));
        }
        None => e.u8(0),
    }
}

fn decode_column(d: &mut Dec) -> Result<Column, CodecError> {
    let tag = d.u8()?;
    let n = d.count(1)?;
    let data = match tag {
        0 => ColumnData::Int((0..n).map(|_| d.i64()).collect::<Result<_, _>>()?),
        1 => ColumnData::Float((0..n).map(|_| d.f64()).collect::<Result<_, _>>()?),
        2 => ColumnData::Str(
            (0..n)
                .map(|_| d.str().map(Arc::from))
                .collect::<Result<_, _>>()?,
        ),
        3 => ColumnData::Date((0..n).map(|_| d.i32()).collect::<Result<_, _>>()?),
        4 => ColumnData::Bool((0..n).map(|_| d.bool()).collect::<Result<_, _>>()?),
        6 => {
            let raw_codes: Vec<u32> = (0..n).map(|_| d.u32()).collect::<Result<_, _>>()?;
            let entries = d.count(1)?;
            // Re-intern the entries: this rebuilds the derived hash/index
            // state and re-establishes the uniqueness invariant (a crafted
            // or corrupt file may carry duplicate entries), remapping codes
            // accordingly.
            let mut dict = Dictionary::default();
            let remap: Vec<u32> = (0..entries)
                .map(|_| d.str().map(|s| dict.intern(&s)))
                .collect::<Result<_, _>>()?;
            let codes = raw_codes
                .into_iter()
                .map(|c| {
                    remap
                        .get(c as usize)
                        .copied()
                        .ok_or_else(|| invalid(format!("dict code {c} out of range")))
                })
                .collect::<Result<_, _>>()?;
            ColumnData::Dict {
                codes,
                dict: Arc::new(dict),
            }
        }
        t => return Err(invalid(format!("column tag {t}"))),
    };
    let nulls = match d.u8()? {
        0 => None,
        1 => Some((0..n).map(|_| d.bool()).collect::<Result<Vec<_>, _>>()?),
        t => return Err(invalid(format!("null-mask flag {t}"))),
    };
    Ok(Column::from_parts(data, nulls))
}

/// Encode a batch in logical row order. A batch carrying a selection vector
/// is compacted first so the on-disk image is always dense — the decoder
/// never has to reconstruct selection state.
pub fn encode_batch(e: &mut Enc, b: &Batch) {
    let dense = b.clone().compact();
    encode_schema(e, dense.schema());
    e.u32(dense.schema().len() as u32);
    for i in 0..dense.schema().len() {
        encode_column(e, dense.column(i));
    }
}

/// Decode a batch; a column whose payload does not hold its attribute's
/// type is an error, so every decoded column is typed.
pub fn decode_batch(d: &mut Dec) -> Result<Batch, CodecError> {
    let schema = decode_schema(d)?;
    let ncols = d.count(2)?;
    if ncols != schema.len() {
        return Err(invalid(format!(
            "batch has {ncols} columns but schema expects {}",
            schema.len()
        )));
    }
    let mut columns = Vec::with_capacity(ncols);
    for a in schema.attrs() {
        let column = decode_column(d)?;
        let got = column.data().data_type();
        if got != a.data_type {
            return Err(invalid(format!(
                "column {} holds {got} values but is declared {}",
                a.name, a.data_type
            )));
        }
        columns.push(column);
    }
    let rows = columns.first().map_or(0, Column::len);
    if columns.iter().any(|c| c.len() != rows) {
        return Err(invalid("batch columns have unequal lengths"));
    }
    Ok(Batch::from_columns(schema, columns))
}

// ---------------------------------------------------------------------------
// Expressions and predicates
// ---------------------------------------------------------------------------

fn cmp_op_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn decode_cmp_op(d: &mut Dec) -> Result<CmpOp, CodecError> {
    Ok(match d.u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(invalid(format!("cmp op tag {t}"))),
    })
}

fn arith_op_tag(op: ArithOp) -> u8 {
    match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
        ArithOp::Div => 3,
    }
}

fn decode_arith_op(d: &mut Dec) -> Result<ArithOp, CodecError> {
    Ok(match d.u8()? {
        0 => ArithOp::Add,
        1 => ArithOp::Sub,
        2 => ArithOp::Mul,
        3 => ArithOp::Div,
        t => return Err(invalid(format!("arith op tag {t}"))),
    })
}

pub fn encode_scalar_expr(e: &mut Enc, x: &ScalarExpr) {
    match x {
        ScalarExpr::Col(a) => {
            e.u8(0);
            e.u32(a.0);
        }
        ScalarExpr::Lit(v) => {
            e.u8(1);
            encode_value(e, v);
        }
        ScalarExpr::Cmp { op, lhs, rhs } => {
            e.u8(2);
            e.u8(cmp_op_tag(*op));
            encode_scalar_expr(e, lhs);
            encode_scalar_expr(e, rhs);
        }
        ScalarExpr::Arith { op, lhs, rhs } => {
            e.u8(3);
            e.u8(arith_op_tag(*op));
            encode_scalar_expr(e, lhs);
            encode_scalar_expr(e, rhs);
        }
        ScalarExpr::And(es) => {
            e.u8(4);
            e.u32(es.len() as u32);
            es.iter().for_each(|x| encode_scalar_expr(e, x));
        }
        ScalarExpr::Or(es) => {
            e.u8(5);
            e.u32(es.len() as u32);
            es.iter().for_each(|x| encode_scalar_expr(e, x));
        }
        ScalarExpr::Not(inner) => {
            e.u8(6);
            encode_scalar_expr(e, inner);
        }
    }
}

pub fn decode_scalar_expr(d: &mut Dec) -> Result<ScalarExpr, CodecError> {
    Ok(match d.u8()? {
        0 => ScalarExpr::Col(AttrId(d.u32()?)),
        1 => ScalarExpr::Lit(decode_value(d)?),
        2 => {
            let op = decode_cmp_op(d)?;
            let lhs = Box::new(decode_scalar_expr(d)?);
            let rhs = Box::new(decode_scalar_expr(d)?);
            ScalarExpr::Cmp { op, lhs, rhs }
        }
        3 => {
            let op = decode_arith_op(d)?;
            let lhs = Box::new(decode_scalar_expr(d)?);
            let rhs = Box::new(decode_scalar_expr(d)?);
            ScalarExpr::Arith { op, lhs, rhs }
        }
        4 => {
            let n = d.count(2)?;
            ScalarExpr::And(
                (0..n)
                    .map(|_| decode_scalar_expr(d))
                    .collect::<Result<_, _>>()?,
            )
        }
        5 => {
            let n = d.count(2)?;
            ScalarExpr::Or(
                (0..n)
                    .map(|_| decode_scalar_expr(d))
                    .collect::<Result<_, _>>()?,
            )
        }
        6 => ScalarExpr::Not(Box::new(decode_scalar_expr(d)?)),
        t => return Err(invalid(format!("scalar expr tag {t}"))),
    })
}

pub fn encode_predicate(e: &mut Enc, p: &Predicate) {
    e.u32(p.conjuncts().len() as u32);
    p.conjuncts().iter().for_each(|c| encode_scalar_expr(e, c));
}

pub fn decode_predicate(d: &mut Dec) -> Result<Predicate, CodecError> {
    let n = d.count(2)?;
    let cs = (0..n)
        .map(|_| decode_scalar_expr(d))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Predicate::from_conjuncts(cs))
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

fn agg_func_tag(f: AggFunc) -> u8 {
    match f {
        AggFunc::Count => 0,
        AggFunc::Sum => 1,
        AggFunc::Avg => 2,
        AggFunc::Min => 3,
        AggFunc::Max => 4,
    }
}

pub fn decode_agg_func(d: &mut Dec) -> Result<AggFunc, CodecError> {
    Ok(match d.u8()? {
        0 => AggFunc::Count,
        1 => AggFunc::Sum,
        2 => AggFunc::Avg,
        3 => AggFunc::Min,
        4 => AggFunc::Max,
        t => return Err(invalid(format!("agg func tag {t}"))),
    })
}

pub fn encode_agg_func(e: &mut Enc, f: AggFunc) {
    e.u8(agg_func_tag(f));
}

pub fn encode_agg_spec(e: &mut Enc, s: &AggSpec) {
    encode_agg_func(e, s.func);
    encode_scalar_expr(e, &s.input);
    e.u32(s.out.0);
}

pub fn decode_agg_spec(d: &mut Dec) -> Result<AggSpec, CodecError> {
    Ok(AggSpec {
        func: decode_agg_func(d)?,
        input: decode_scalar_expr(d)?,
        out: AttrId(d.u32()?),
    })
}

// ---------------------------------------------------------------------------
// Logical expressions and views
// ---------------------------------------------------------------------------

pub fn encode_logical_expr(e: &mut Enc, x: &LogicalExpr) {
    match x {
        LogicalExpr::Scan { table } => {
            e.u8(0);
            e.u32(table.0);
        }
        LogicalExpr::Select { input, predicate } => {
            e.u8(1);
            encode_logical_expr(e, input);
            encode_predicate(e, predicate);
        }
        LogicalExpr::Project { input, attrs } => {
            e.u8(2);
            encode_logical_expr(e, input);
            e.u32(attrs.len() as u32);
            attrs.iter().for_each(|a| e.u32(a.0));
        }
        LogicalExpr::Join {
            left,
            right,
            predicate,
        } => {
            e.u8(3);
            encode_logical_expr(e, left);
            encode_logical_expr(e, right);
            encode_predicate(e, predicate);
        }
        LogicalExpr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            e.u8(4);
            encode_logical_expr(e, input);
            e.u32(group_by.len() as u32);
            group_by.iter().for_each(|a| e.u32(a.0));
            e.u32(aggs.len() as u32);
            aggs.iter().for_each(|s| encode_agg_spec(e, s));
        }
        LogicalExpr::UnionAll { left, right } => {
            e.u8(5);
            encode_logical_expr(e, left);
            encode_logical_expr(e, right);
        }
        LogicalExpr::Minus { left, right } => {
            e.u8(6);
            encode_logical_expr(e, left);
            encode_logical_expr(e, right);
        }
        LogicalExpr::Distinct { input } => {
            e.u8(7);
            encode_logical_expr(e, input);
        }
    }
}

pub fn decode_logical_expr(d: &mut Dec) -> Result<Arc<LogicalExpr>, CodecError> {
    Ok(match d.u8()? {
        0 => LogicalExpr::scan(TableId(d.u32()?)),
        1 => {
            let input = decode_logical_expr(d)?;
            LogicalExpr::select(input, decode_predicate(d)?)
        }
        2 => {
            let input = decode_logical_expr(d)?;
            let n = d.count(4)?;
            let attrs = (0..n)
                .map(|_| d.u32().map(AttrId))
                .collect::<Result<Vec<_>, _>>()?;
            LogicalExpr::project(input, attrs)
        }
        3 => {
            let left = decode_logical_expr(d)?;
            let right = decode_logical_expr(d)?;
            LogicalExpr::join(left, right, decode_predicate(d)?)
        }
        4 => {
            let input = decode_logical_expr(d)?;
            let ng = d.count(4)?;
            let group_by = (0..ng)
                .map(|_| d.u32().map(AttrId))
                .collect::<Result<Vec<_>, _>>()?;
            let na = d.count(6)?;
            let aggs = (0..na)
                .map(|_| decode_agg_spec(d))
                .collect::<Result<Vec<_>, _>>()?;
            LogicalExpr::aggregate(input, group_by, aggs)
        }
        5 => {
            let left = decode_logical_expr(d)?;
            LogicalExpr::union_all(left, decode_logical_expr(d)?)
        }
        6 => {
            let left = decode_logical_expr(d)?;
            LogicalExpr::minus(left, decode_logical_expr(d)?)
        }
        7 => LogicalExpr::distinct(decode_logical_expr(d)?),
        t => return Err(invalid(format!("logical expr tag {t}"))),
    })
}

pub fn encode_view_def(e: &mut Enc, v: &ViewDef) {
    e.str(&v.name);
    encode_logical_expr(e, &v.expr);
}

pub fn decode_view_def(d: &mut Dec) -> Result<ViewDef, CodecError> {
    Ok(ViewDef {
        name: d.str()?,
        expr: decode_logical_expr(d)?,
    })
}

// ---------------------------------------------------------------------------
// Statistics and the catalog
// ---------------------------------------------------------------------------

fn encode_col_stats(e: &mut Enc, c: &ColStats) {
    e.f64(c.distinct);
    match c.range {
        Some((lo, hi)) => {
            e.u8(1);
            e.f64(lo);
            e.f64(hi);
        }
        None => e.u8(0),
    }
}

fn decode_col_stats(d: &mut Dec) -> Result<ColStats, CodecError> {
    let distinct = d.f64()?;
    let range = match d.u8()? {
        0 => None,
        1 => Some((d.f64()?, d.f64()?)),
        t => return Err(invalid(format!("range flag {t}"))),
    };
    Ok(ColStats { distinct, range })
}

pub fn encode_rel_stats(e: &mut Enc, s: &RelStats) {
    e.f64(s.rows);
    // Sort by attribute id so equal stats always serialize identically.
    let mut cols: Vec<_> = s.cols.iter().collect();
    cols.sort_by_key(|(a, _)| **a);
    e.u32(cols.len() as u32);
    for (a, c) in cols {
        e.u32(a.0);
        encode_col_stats(e, c);
    }
}

pub fn decode_rel_stats(d: &mut Dec) -> Result<RelStats, CodecError> {
    let rows = d.f64()?;
    let n = d.count(13)?;
    let mut cols = ColMap::with_capacity_and_hasher(n, Default::default());
    for _ in 0..n {
        let a = AttrId(d.u32()?);
        cols.insert(a, decode_col_stats(d)?);
    }
    Ok(RelStats { rows, cols })
}

fn encode_foreign_key(e: &mut Enc, fk: &ForeignKey) {
    e.u32(fk.child_attrs.len() as u32);
    fk.child_attrs.iter().for_each(|a| e.u32(a.0));
    e.u32(fk.parent_table.0);
    e.u32(fk.parent_attrs.len() as u32);
    fk.parent_attrs.iter().for_each(|a| e.u32(a.0));
}

fn decode_foreign_key(d: &mut Dec) -> Result<ForeignKey, CodecError> {
    let nc = d.count(4)?;
    let child_attrs = (0..nc)
        .map(|_| d.u32().map(AttrId))
        .collect::<Result<Vec<_>, _>>()?;
    let parent_table = TableId(d.u32()?);
    let np = d.count(4)?;
    let parent_attrs = (0..np)
        .map(|_| d.u32().map(AttrId))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ForeignKey {
        child_attrs,
        parent_table,
        parent_attrs,
    })
}

pub fn encode_table_def(e: &mut Enc, t: &TableDef) {
    e.u32(t.id.0);
    e.str(&t.name);
    encode_schema(e, &t.schema);
    e.u32(t.primary_key.len() as u32);
    t.primary_key.iter().for_each(|a| e.u32(a.0));
    e.u32(t.foreign_keys.len() as u32);
    t.foreign_keys
        .iter()
        .for_each(|fk| encode_foreign_key(e, fk));
    encode_rel_stats(e, &t.stats);
}

pub fn decode_table_def(d: &mut Dec) -> Result<TableDef, CodecError> {
    let id = TableId(d.u32()?);
    let name = d.str()?;
    let schema = decode_schema(d)?;
    let npk = d.count(4)?;
    let primary_key = (0..npk)
        .map(|_| d.u32().map(AttrId))
        .collect::<Result<Vec<_>, _>>()?;
    let nfk = d.count(12)?;
    let foreign_keys = (0..nfk)
        .map(|_| decode_foreign_key(d))
        .collect::<Result<Vec<_>, _>>()?;
    let stats = decode_rel_stats(d)?;
    Ok(TableDef {
        id,
        name,
        schema,
        primary_key,
        foreign_keys,
        stats,
    })
}

/// Encode the full catalog, including the attribute allocator's counter so
/// fresh ids allocated after recovery never collide with persisted ones.
pub fn encode_catalog(e: &mut Enc, c: &Catalog) {
    e.u32(c.tables().len() as u32);
    c.tables().iter().for_each(|t| encode_table_def(e, t));
    e.u32(c.allocated_attrs());
}

pub fn decode_catalog(d: &mut Dec) -> Result<Catalog, CodecError> {
    let n = d.count(20)?;
    let tables = (0..n)
        .map(|_| decode_table_def(d))
        .collect::<Result<Vec<_>, _>>()?;
    for (i, t) in tables.iter().enumerate() {
        if t.id.0 as usize != i {
            return Err(invalid(format!(
                "table {} has id {} but sits at position {i}",
                t.name, t.id
            )));
        }
    }
    let next_attr = d.u32()?;
    Catalog::from_parts(tables, next_attr).map_err(invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColumnSpec;
    use crate::tuple::Tuple;

    fn roundtrip_value(v: Value) {
        let mut e = Enc::new();
        encode_value(&mut e, &v);
        let bytes = e.into_bytes();
        let got = decode_value(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(got, v);
    }

    #[test]
    fn values_roundtrip() {
        roundtrip_value(Value::Null);
        roundtrip_value(Value::Int(-42));
        roundtrip_value(Value::Float(-0.0));
        roundtrip_value(Value::str("héllo"));
        roundtrip_value(Value::Date(-7));
        roundtrip_value(Value::Bool(true));
    }

    fn attrs(types: &[DataType]) -> Schema {
        Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, &data_type)| Attribute {
                    id: AttrId(i as u32),
                    name: format!("t.c{i}"),
                    data_type,
                })
                .collect(),
        )
    }

    fn encoded(b: &Batch) -> Vec<u8> {
        let mut e = Enc::new();
        encode_batch(&mut e, b);
        e.into_bytes()
    }

    /// NULL masks and both string encodings, plain and dictionary, side by
    /// side in one batch.
    #[test]
    fn batch_roundtrips_with_nulls_and_mixed() {
        let schema = attrs(&[DataType::Int, DataType::Str, DataType::Float, DataType::Str]);
        let rows: Vec<Tuple> = vec![
            vec![
                Value::Int(1),
                Value::str("a"),
                Value::Float(1.5),
                Value::str("x"),
            ],
            vec![Value::Null, Value::str("b"), Value::Float(7.0), Value::Null],
            vec![Value::Int(3), Value::Null, Value::Null, Value::str("x")],
        ];
        let plain = Batch::from_rows(schema.clone(), &rows);
        let mut columns: Vec<Column> = (0..4).map(|c| plain.column(c).clone()).collect();
        columns[3] = columns[3].dict_encode();
        let b = Batch::from_columns(schema, columns);
        let got = decode_batch(&mut Dec::new(&encoded(&b))).unwrap();
        assert_eq!(got, b);
        assert_eq!(got.to_rows(), rows);
        assert!(matches!(got.column(1).data(), ColumnData::Str(_)));
        assert!(got.column(3).dict().is_some());
    }

    /// A column whose payload does not hold its attribute's type is a
    /// decode error, and so is tag byte 5.
    #[test]
    fn decode_rejects_a_column_that_does_not_fit_its_attribute() {
        let rows = vec![vec![Value::Int(7)], vec![Value::Null]];
        let mut bytes = encoded(&Batch::from_rows(attrs(&[DataType::Int]), &rows));
        // The column tag follows the schema and the column count.
        let mut e = Enc::new();
        encode_schema(&mut e, &attrs(&[DataType::Int]));
        let tag = e.len() + 4;
        assert_eq!(bytes[tag], 0, "an Int column");
        for bad in [1u8, 3, 5] {
            bytes[tag] = bad;
            let r = decode_batch(&mut Dec::new(&bytes));
            assert!(matches!(r, Err(CodecError::Invalid(_))), "tag {bad}: {r:?}");
        }
        // The same Float payload decodes under a Float attribute.
        let floats = vec![vec![Value::Float(1.0)]];
        let ok = encoded(&Batch::from_rows(attrs(&[DataType::Float]), &floats));
        assert!(decode_batch(&mut Dec::new(&ok)).is_ok());
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        encode_value(&mut e, &Value::str("some string payload"));
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let r = decode_value(&mut Dec::new(&bytes[..cut]));
            assert!(r.is_err(), "cut at {cut} decoded as {r:?}");
        }
    }

    #[test]
    fn catalog_roundtrips_with_allocator_position() {
        let mut c = Catalog::new();
        let parent = c.add_table(
            "dept",
            vec![
                ColumnSpec::key("dno", DataType::Int),
                ColumnSpec::with_distinct("city", DataType::Str, 10.0),
            ],
            100.0,
            &["dno"],
        );
        let child = c.add_table(
            "emp",
            vec![
                ColumnSpec::key("eno", DataType::Int),
                ColumnSpec::with_range("sal", DataType::Float, 500.0, (0.0, 1e4)),
            ],
            1000.0,
            &["eno"],
        );
        c.add_foreign_key(child, &["eno"], parent);
        let derived = c.fresh_attr();

        let mut e = Enc::new();
        encode_catalog(&mut e, &c);
        let bytes = e.into_bytes();
        let got = decode_catalog(&mut Dec::new(&bytes)).unwrap();

        assert_eq!(got.tables().len(), 2);
        assert_eq!(got.table(child).name, "emp");
        assert_eq!(got.table(child).foreign_keys, c.table(child).foreign_keys);
        assert_eq!(got.table(parent).stats, c.table(parent).stats);
        assert_eq!(got.allocated_attrs(), c.allocated_attrs());
        // Fresh ids continue past everything persisted.
        let mut got = got;
        assert!(got.fresh_attr() > derived);
    }

    #[test]
    fn view_def_roundtrips() {
        let scan = LogicalExpr::scan(TableId(0));
        let sel = LogicalExpr::select(
            scan.clone(),
            Predicate::from_expr(ScalarExpr::col_cmp_lit(AttrId(1), CmpOp::Lt, 10i64)),
        );
        let join = LogicalExpr::join(
            sel,
            LogicalExpr::scan(TableId(1)),
            Predicate::from_expr(ScalarExpr::col_eq_col(AttrId(0), AttrId(3))),
        );
        let agg = LogicalExpr::aggregate(
            join,
            vec![AttrId(3)],
            vec![AggSpec {
                func: AggFunc::Sum,
                input: ScalarExpr::Col(AttrId(1)),
                out: AttrId(99),
            }],
        );
        let v = ViewDef {
            name: "revenue".into(),
            expr: LogicalExpr::distinct(LogicalExpr::project(agg, vec![AttrId(3), AttrId(99)])),
        };
        let mut e = Enc::new();
        encode_view_def(&mut e, &v);
        let bytes = e.into_bytes();
        let got = decode_view_def(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(got.name, v.name);
        assert_eq!(got.expr, v.expr);
    }
}
