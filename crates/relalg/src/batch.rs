//! Columnar batches: the vectorized executor's data representation.
//!
//! A [`Batch`] is a struct-of-arrays multiset: one typed [`Column`] per
//! schema attribute plus an optional *selection vector* mapping logical row
//! order onto physical positions. Filters and projections update the
//! selection or reorder columns without touching values; only operators
//! that genuinely create new rows (join output, union, aggregation) gather
//! cells. `from_rows`/`to_rows` bridge to the storage layer's row
//! representation at plan boundaries.
//!
//! Hashing and comparison at a position replicate [`Value`] semantics
//! exactly (numeric `Int`/`Float` cross-equality, NULL greatest and equal
//! only to itself) so a borrowed-key hash table built over columns agrees
//! with the row-at-a-time reference executor.

use crate::expr::{CmpOp, Predicate, ScalarExpr};
use crate::hash::{str_hash, u64_map_with_capacity, U64Map};
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::types::{DataType, Value};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

mod undo;
pub use undo::{AppendMark, CutRows};

/// Interned string dictionary backing [`ColumnData::Dict`] columns.
///
/// Entries are unique (interning dedups), each carries its precomputed
/// [`str_hash`] image, and an internal hash index makes `intern`/`code_of`
/// O(1) amortized. The dictionary sits behind an `Arc` on the column, so
/// gathers and clones share it; appends look a string up through the
/// shared handle first ([`Dictionary::intern_shared`]) and copy the
/// dictionary only when a string is genuinely new *and* the handle is
/// shared.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    values: Vec<Arc<str>>,
    hashes: Vec<u64>,
    /// `str_hash` → codes with that hash (collision bucket).
    index: U64Map<Vec<u32>>,
}

impl Dictionary {
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The string behind `code`.
    pub fn value(&self, code: u32) -> &Arc<str> {
        &self.values[code as usize]
    }

    /// Precomputed [`str_hash`] of the string behind `code`.
    pub fn hash(&self, code: u32) -> u64 {
        self.hashes[code as usize]
    }

    /// All entries, in code order.
    pub fn values(&self) -> &[Arc<str>] {
        &self.values
    }

    fn find(&self, h: u64, s: &str) -> Option<u32> {
        self.index
            .get(&h)?
            .iter()
            .copied()
            .find(|&c| &*self.values[c as usize] == s)
    }

    // Invariant: entries are unique strings of one column, whose row
    // positions are `u32` throughout the batch layer, so a column never
    // holds more entries than `u32` codes.
    #[allow(clippy::expect_used)]
    fn push_new(&mut self, h: u64, s: &str) -> u32 {
        let c = u32::try_from(self.values.len()).expect("dictionary overflow");
        self.index.entry(h).or_default().push(c);
        self.values.push(Arc::from(s));
        self.hashes.push(h);
        c
    }

    /// The code of `s`, if interned. Because entries are unique, equal
    /// codes ⇔ equal strings for codes of the same dictionary.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.find(str_hash(s), s)
    }

    /// Intern `s`, returning its (possibly new) code.
    pub fn intern(&mut self, s: &str) -> u32 {
        let h = str_hash(s);
        match self.find(h, s) {
            Some(c) => c,
            None => self.push_new(h, s),
        }
    }

    /// Intern through a possibly shared handle: the lookup runs on the
    /// shared, read-only dictionary, and only a miss pays
    /// [`Arc::make_mut`] (a deep copy when another column — a join output
    /// gathered from this one, say — still holds the handle). Appending
    /// already-known strings therefore never copies a dictionary.
    pub fn intern_shared(this: &mut Arc<Dictionary>, s: &str) -> u32 {
        let h = str_hash(s);
        match this.find(h, s) {
            Some(c) => c,
            None => Arc::make_mut(this).push_new(h, s),
        }
    }
}

/// Stored string columns shorter than this are always dictionary-encoded.
pub const DICT_MIN_ROWS: usize = 256;

/// The storage encoding rule for string columns: a dictionary pays for
/// itself unless the column is long (≥ [`DICT_MIN_ROWS`] rows) *and*
/// near-unique (more than half as many dictionary entries as rows) — such
/// a column gains nothing from code space, and every new string appended
/// while another column shares the dictionary would deep-copy an O(rows)
/// dictionary.
pub fn dict_pays(rows: usize, entries: usize) -> bool {
    rows < DICT_MIN_ROWS || entries * 2 <= rows
}

/// Dictionary-encode `strs` unless [`dict_pays`] says not to (bails out as
/// soon as the growing dictionary crosses the threshold).
fn try_dict(strs: &[Arc<str>]) -> Option<ColumnData> {
    let mut dict = Dictionary::default();
    let mut codes = Vec::with_capacity(strs.len());
    for s in strs {
        codes.push(dict.intern(s));
        if !dict_pays(strs.len(), dict.len()) {
            return None;
        }
    }
    Some(ColumnData::Dict {
        codes,
        dict: Arc::new(dict),
    })
}

/// Physical storage of one column's values.
///
/// Typed vectors are the fast path; [`ColumnData::Dict`] stores strings as
/// `u32` codes into a shared interned [`Dictionary`] so string-keyed
/// hashing, equality, and grouping run as integer loops;
/// [`ColumnData::Mixed`] is the safety net for columns whose runtime
/// values stray from the declared type (e.g. integral SUM outputs flowing
/// through a FLOAT schema slot) and keeps semantics identical to row
/// execution.
#[derive(Debug, Clone)]
pub enum ColumnData {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<Arc<str>>),
    Date(Vec<i32>),
    Bool(Vec<bool>),
    Dict {
        codes: Vec<u32>,
        dict: Arc<Dictionary>,
    },
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn new(dt: DataType) -> ColumnData {
        match dt {
            DataType::Int => ColumnData::Int(Vec::new()),
            DataType::Float => ColumnData::Float(Vec::new()),
            DataType::Str => ColumnData::Str(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
        }
    }

    fn with_capacity(dt: DataType, n: usize) -> ColumnData {
        match dt {
            DataType::Int => ColumnData::Int(Vec::with_capacity(n)),
            DataType::Float => ColumnData::Float(Vec::with_capacity(n)),
            DataType::Str => ColumnData::Str(Vec::with_capacity(n)),
            DataType::Date => ColumnData::Date(Vec::with_capacity(n)),
            DataType::Bool => ColumnData::Bool(Vec::with_capacity(n)),
        }
    }

    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Dict { codes, .. } => codes.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }

    /// Borrow the string at `i` when this is a string-bearing payload
    /// (`Str` or `Dict`), regardless of representation.
    fn str_ref(&self, i: usize) -> Option<&str> {
        match self {
            ColumnData::Str(v) => Some(&v[i]),
            ColumnData::Dict { codes, dict } => Some(dict.value(codes[i])),
            _ => None,
        }
    }

    /// Consume the payload into owned [`Value`]s. Only the `Str` and
    /// `Mixed` arms gain anything from consuming (their `Arc<str>`s /
    /// values move out instead of cloning); the primitive payloads are
    /// `Copy`, so they share [`ColumnData::to_mixed`]'s conversion.
    fn into_values(self, nulls: Option<Vec<bool>>) -> Vec<Value> {
        match self {
            ColumnData::Str(v) => {
                let null_at = |i: usize| nulls.as_ref().is_some_and(|n| n[i]);
                v.into_iter()
                    .enumerate()
                    .map(|(i, x)| {
                        if null_at(i) {
                            Value::Null
                        } else {
                            Value::Str(x)
                        }
                    })
                    .collect()
            }
            ColumnData::Dict { codes, dict } => {
                let null_at = |i: usize| nulls.as_ref().is_some_and(|n| n[i]);
                codes
                    .into_iter()
                    .enumerate()
                    .map(|(i, c)| {
                        if null_at(i) {
                            Value::Null
                        } else {
                            Value::Str(Arc::clone(dict.value(c)))
                        }
                    })
                    .collect()
            }
            ColumnData::Mixed(v) => v,
            other => other.to_mixed(nulls.as_deref()),
        }
    }

    /// Convert the typed payload to the `Mixed` fallback (type drift).
    fn to_mixed(&self, nulls: Option<&[bool]>) -> Vec<Value> {
        let null_at = |i: usize| nulls.is_some_and(|n| n[i]);
        let get = |i: usize| -> Value {
            if null_at(i) {
                Value::Null
            } else {
                match self {
                    ColumnData::Int(v) => Value::Int(v[i]),
                    ColumnData::Float(v) => Value::Float(v[i]),
                    ColumnData::Str(v) => Value::Str(v[i].clone()),
                    ColumnData::Date(v) => Value::Date(v[i]),
                    ColumnData::Bool(v) => Value::Bool(v[i]),
                    ColumnData::Dict { codes, dict } => {
                        Value::Str(Arc::clone(dict.value(codes[i])))
                    }
                    ColumnData::Mixed(v) => v[i].clone(),
                }
            }
        };
        (0..self.len()).map(get).collect()
    }
}

/// One column: typed values plus an optional null mask (`true` = NULL).
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: Option<Vec<bool>>,
}

impl Column {
    /// An empty column of declared type `dt`.
    pub fn new(dt: DataType) -> Column {
        Column {
            data: ColumnData::new(dt),
            nulls: None,
        }
    }

    pub fn with_capacity(dt: DataType, n: usize) -> Column {
        Column {
            data: ColumnData::with_capacity(dt, n),
            nulls: None,
        }
    }

    /// Reassemble a column from its physical parts (the durability codec's
    /// decode path). The mask, when present, must cover every position;
    /// `Mixed` columns carry NULLs inline and never take a mask.
    pub fn from_parts(data: ColumnData, nulls: Option<Vec<bool>>) -> Column {
        if let Some(mask) = &nulls {
            assert_eq!(mask.len(), data.len(), "null mask length mismatch");
            assert!(
                !matches!(data, ColumnData::Mixed(_)),
                "Mixed columns carry NULLs inline"
            );
        }
        Column { data, nulls }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The physical payload (typed vectors), for columnar kernels that want
    /// direct vector access instead of per-position [`Column::value`] calls.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null mask, if any position is NULL (`true` = NULL). `Mixed`
    /// columns carry NULLs inline and report `None` here.
    pub fn null_mask(&self) -> Option<&[bool]> {
        self.nulls.as_deref()
    }

    /// Consume the column into owned values (moves `Arc<str>`s out rather
    /// than cloning them).
    pub fn into_values(self) -> Vec<Value> {
        self.data.into_values(self.nulls)
    }

    pub fn is_null(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Mixed(v) => v[i].is_null(),
            _ => self.nulls.as_ref().is_some_and(|n| n[i]),
        }
    }

    fn set_null_tail(&mut self) {
        let len = self.data.len();
        let nulls = self.nulls.get_or_insert_with(|| vec![false; len - 1]);
        // Pad for values appended while the mask did not exist yet.
        nulls.resize(len, false);
        nulls[len - 1] = true;
    }

    /// Append one value, demoting the column to `Mixed` if the value does
    /// not fit the physical type.
    pub fn push(&mut self, v: &Value) {
        match (&mut self.data, v) {
            (ColumnData::Int(c), Value::Int(x)) => c.push(*x),
            (ColumnData::Float(c), Value::Float(x)) => c.push(*x),
            (ColumnData::Str(c), Value::Str(x)) => c.push(x.clone()),
            (ColumnData::Date(c), Value::Date(x)) => c.push(*x),
            (ColumnData::Bool(c), Value::Bool(x)) => c.push(*x),
            (ColumnData::Dict { codes, dict }, Value::Str(x)) => {
                codes.push(Dictionary::intern_shared(dict, x));
            }
            (ColumnData::Mixed(c), v) => c.push(v.clone()),
            (data, Value::Null) if !matches!(data, ColumnData::Mixed(_)) => {
                // NULL in a typed column: default payload + mask bit.
                match data {
                    ColumnData::Int(c) => c.push(0),
                    ColumnData::Float(c) => c.push(0.0),
                    ColumnData::Str(c) => c.push(Arc::from("")),
                    ColumnData::Date(c) => c.push(0),
                    ColumnData::Bool(c) => c.push(false),
                    ColumnData::Dict { codes, dict } => {
                        codes.push(Dictionary::intern_shared(dict, ""));
                    }
                    ColumnData::Mixed(_) => unreachable!(),
                }
                self.set_null_tail();
                return;
            }
            (data, v) => {
                // Type drift: demote to Mixed and retry.
                let mixed = data.to_mixed(self.nulls.as_deref());
                *data = ColumnData::Mixed(mixed);
                self.nulls = None;
                if let ColumnData::Mixed(c) = data {
                    c.push(v.clone());
                }
                return;
            }
        }
        if let Some(n) = self.nulls.as_mut() {
            n.push(false);
        }
    }

    /// Materialize the value at physical position `i`.
    pub fn value(&self, i: usize) -> Value {
        if self.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Str(v) => Value::Str(v[i].clone()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Dict { codes, dict } => Value::Str(Arc::clone(dict.value(codes[i]))),
            ColumnData::Mixed(v) => v[i].clone(),
        }
    }

    /// Append this column's cell at each position of `sel` (every position
    /// in order when `None`) to the matching row of `rows` — one typed loop
    /// per representation, the column-major half of [`Batch::to_rows`].
    fn push_cells(&self, rows: &mut [Tuple], sel: Option<&[u32]>) {
        fn cells<T>(
            rows: &mut [Tuple],
            sel: Option<&[u32]>,
            nulls: Option<&[bool]>,
            vals: &[T],
            cell: impl Fn(&T) -> Value,
        ) {
            let at = |p: usize| match nulls {
                Some(n) if n[p] => Value::Null,
                _ => cell(&vals[p]),
            };
            match sel {
                None => rows
                    .iter_mut()
                    .enumerate()
                    .for_each(|(p, row)| row.push(at(p))),
                Some(sel) => rows
                    .iter_mut()
                    .zip(sel)
                    .for_each(|(row, &p)| row.push(at(p as usize))),
            }
        }
        let nulls = self.nulls.as_deref();
        match &self.data {
            ColumnData::Int(v) => cells(rows, sel, nulls, v, |&x| Value::Int(x)),
            ColumnData::Float(v) => cells(rows, sel, nulls, v, |&x| Value::Float(x)),
            ColumnData::Str(v) => cells(rows, sel, nulls, v, |s| Value::Str(Arc::clone(s))),
            ColumnData::Date(v) => cells(rows, sel, nulls, v, |&x| Value::Date(x)),
            ColumnData::Bool(v) => cells(rows, sel, nulls, v, |&x| Value::Bool(x)),
            ColumnData::Dict { codes, dict } => cells(rows, sel, nulls, codes, |&c| {
                Value::Str(Arc::clone(dict.value(c)))
            }),
            // NULLs are inline values here; a Mixed column has no mask.
            ColumnData::Mixed(v) => cells(rows, sel, None, v, Value::clone),
        }
    }

    /// Hash the value at `i` exactly as [`Value::hash`] would (so `Int(2)`
    /// and `Float(2.0)` collide, NULL has its own tag) — the contract the
    /// borrowed-key hash join relies on. Strings hash through their
    /// canonical [`str_hash`] image, which `Dict` columns replay from the
    /// precomputed per-entry hash without touching string bytes.
    pub fn hash_value<H: Hasher>(&self, i: usize, state: &mut H) {
        if self.is_null(i) {
            state.write_u8(4);
            return;
        }
        match &self.data {
            ColumnData::Int(v) => {
                state.write_u8(1);
                state.write_u64((v[i] as f64).to_bits());
            }
            ColumnData::Float(v) => {
                state.write_u8(1);
                state.write_u64(v[i].to_bits());
            }
            ColumnData::Str(v) => {
                state.write_u8(3);
                state.write_u64(str_hash(&v[i]));
            }
            ColumnData::Dict { codes, dict } => {
                state.write_u8(3);
                state.write_u64(dict.hash(codes[i]));
            }
            ColumnData::Date(v) => {
                state.write_u8(2);
                state.write_i32(v[i]);
            }
            ColumnData::Bool(v) => {
                state.write_u8(0);
                state.write_u8(v[i] as u8);
            }
            ColumnData::Mixed(v) => v[i].hash(state),
        }
    }

    /// Compare positions across columns with [`Value`] total-order
    /// semantics, without materializing values on the typed fast paths.
    pub fn cmp_at(&self, i: usize, other: &Column, j: usize) -> Ordering {
        match (self.is_null(i), other.is_null(j)) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            (false, false) => {}
        }
        if let (Some(a), Some(b)) = (self.data.str_ref(i), other.data.str_ref(j)) {
            // Covers every Str/Dict combination in one arm.
            return a.cmp(b);
        }
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i].cmp(&b[j]),
            (ColumnData::Float(a), ColumnData::Float(b)) => a[i].total_cmp(&b[j]),
            (ColumnData::Int(a), ColumnData::Float(b)) => (a[i] as f64).total_cmp(&b[j]),
            (ColumnData::Float(a), ColumnData::Int(b)) => a[i].total_cmp(&(b[j] as f64)),
            (ColumnData::Date(a), ColumnData::Date(b)) => a[i].cmp(&b[j]),
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[i].cmp(&b[j]),
            _ => self.value(i).cmp(&other.value(j)),
        }
    }

    /// Equality with [`Value`] semantics (`Int`/`Float` numeric equality,
    /// NULL equal only to NULL — the grouping behaviour). Same-typed
    /// primitive cells compare directly; two columns sharing one dictionary
    /// compare by integer code alone, and two plain strings that are one
    /// shared allocation are equal without reading their bytes.
    pub fn eq_at(&self, i: usize, other: &Column, j: usize) -> bool {
        let same = match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => a[i] == b[j],
            (ColumnData::Date(a), ColumnData::Date(b)) => a[i] == b[j],
            (ColumnData::Float(a), ColumnData::Float(b)) => a[i].total_cmp(&b[j]).is_eq(),
            // Interned entries are unique, so code equality ⇔ string
            // equality.
            (ColumnData::Dict { codes: a, dict: da }, ColumnData::Dict { codes: b, dict: db })
                if Arc::ptr_eq(da, db) =>
            {
                a[i] == b[j]
            }
            (ColumnData::Str(a), ColumnData::Str(b)) if Arc::ptr_eq(&a[i], &b[j]) => true,
            _ => return self.cmp_at(i, other, j) == Ordering::Equal,
        };
        // Only the NULL masks still matter.
        let (ni, nj) = (self.is_null(i), other.is_null(j));
        if ni || nj {
            ni && nj
        } else {
            same
        }
    }

    /// Compare a position against a constant.
    pub fn cmp_value(&self, i: usize, v: &Value) -> Ordering {
        match (&self.data, v) {
            _ if self.is_null(i) || v.is_null() => {
                if self.is_null(i) && v.is_null() {
                    Ordering::Equal
                } else if self.is_null(i) {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (ColumnData::Int(a), Value::Int(b)) => a[i].cmp(b),
            (ColumnData::Float(a), Value::Float(b)) => a[i].total_cmp(b),
            (ColumnData::Int(a), Value::Float(b)) => (a[i] as f64).total_cmp(b),
            (ColumnData::Float(a), Value::Int(b)) => a[i].total_cmp(&(*b as f64)),
            (ColumnData::Str(a), Value::Str(b)) => a[i].as_ref().cmp(b.as_ref()),
            (ColumnData::Dict { codes, dict }, Value::Str(b)) => {
                dict.value(codes[i]).as_ref().cmp(b.as_ref())
            }
            (ColumnData::Date(a), Value::Date(b)) => a[i].cmp(b),
            (ColumnData::Bool(a), Value::Bool(b)) => a[i].cmp(b),
            _ => self.value(i).cmp(v),
        }
    }

    /// New column holding the values at `idx`, in order.
    pub fn gather(&self, idx: &[u32]) -> Column {
        let mut out = Column {
            data: match &self.data {
                ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&i| v[i as usize]).collect()),
                ColumnData::Float(v) => {
                    ColumnData::Float(idx.iter().map(|&i| v[i as usize]).collect())
                }
                ColumnData::Str(v) => {
                    ColumnData::Str(idx.iter().map(|&i| v[i as usize].clone()).collect())
                }
                ColumnData::Date(v) => {
                    ColumnData::Date(idx.iter().map(|&i| v[i as usize]).collect())
                }
                ColumnData::Bool(v) => {
                    ColumnData::Bool(idx.iter().map(|&i| v[i as usize]).collect())
                }
                ColumnData::Dict { codes, dict } => ColumnData::Dict {
                    codes: idx.iter().map(|&i| codes[i as usize]).collect(),
                    dict: Arc::clone(dict),
                },
                ColumnData::Mixed(v) => {
                    ColumnData::Mixed(idx.iter().map(|&i| v[i as usize].clone()).collect())
                }
            },
            nulls: None,
        };
        if let Some(n) = &self.nulls {
            if idx.iter().any(|&i| n[i as usize]) {
                out.nulls = Some(idx.iter().map(|&i| n[i as usize]).collect());
            }
        }
        out
    }

    /// Append `other`'s values at `idx` onto this column (union building).
    pub fn append_gather(&mut self, other: &Column, idx: &[u32]) {
        // Same physical representation and no incoming nulls: bulk extend.
        let no_nulls = other.nulls.is_none() && self.nulls.is_none();
        match (&mut self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) if no_nulls => {
                a.extend(idx.iter().map(|&i| b[i as usize]))
            }
            (ColumnData::Float(a), ColumnData::Float(b)) if no_nulls => {
                a.extend(idx.iter().map(|&i| b[i as usize]))
            }
            (ColumnData::Str(a), ColumnData::Str(b)) if no_nulls => {
                a.extend(idx.iter().map(|&i| b[i as usize].clone()))
            }
            (ColumnData::Date(a), ColumnData::Date(b)) if no_nulls => {
                a.extend(idx.iter().map(|&i| b[i as usize]))
            }
            (ColumnData::Bool(a), ColumnData::Bool(b)) if no_nulls => {
                a.extend(idx.iter().map(|&i| b[i as usize]))
            }
            (
                ColumnData::Dict { codes, dict },
                ColumnData::Dict {
                    codes: bc,
                    dict: bd,
                },
            ) if no_nulls => {
                if Arc::ptr_eq(dict, bd) {
                    codes.extend(idx.iter().map(|&i| bc[i as usize]));
                } else {
                    codes.extend(
                        idx.iter()
                            .map(|&i| Dictionary::intern_shared(dict, bd.value(bc[i as usize]))),
                    );
                }
            }
            (ColumnData::Dict { codes, dict }, ColumnData::Str(b)) if no_nulls => {
                codes.extend(
                    idx.iter()
                        .map(|&i| Dictionary::intern_shared(dict, &b[i as usize])),
                );
            }
            (
                ColumnData::Str(a),
                ColumnData::Dict {
                    codes: bc,
                    dict: bd,
                },
            ) if no_nulls => a.extend(idx.iter().map(|&i| Arc::clone(bd.value(bc[i as usize])))),
            _ => {
                for &i in idx {
                    self.push(&other.value(i as usize));
                }
            }
        }
    }

    /// Batched swap-remove: swap position `to` with `from` for every
    /// `(from, to)` move, then split the tail off from `new_len` on. Every
    /// `from` lies at or beyond `new_len` and every `to` below it (see
    /// [`Batch::swap_remove_rows`]), so no move reads a slot another move
    /// wrote, and the tail it returns holds exactly the removed cells.
    fn swap_remove_moves(&mut self, moves: &[(u32, u32)], new_len: usize) -> undo::CutColumn {
        fn apply<T>(v: &mut Vec<T>, moves: &[(u32, u32)], new_len: usize) -> Vec<T> {
            for &(from, to) in moves {
                v.swap(from as usize, to as usize);
            }
            v.split_off(new_len)
        }
        use undo::Cells;
        let cells = match &mut self.data {
            ColumnData::Int(v) => Cells::Int(apply(v, moves, new_len)),
            ColumnData::Float(v) => Cells::Float(apply(v, moves, new_len)),
            ColumnData::Str(v) => Cells::Str(apply(v, moves, new_len)),
            ColumnData::Date(v) => Cells::Date(apply(v, moves, new_len)),
            ColumnData::Bool(v) => Cells::Bool(apply(v, moves, new_len)),
            ColumnData::Dict { codes, .. } => Cells::Codes(apply(codes, moves, new_len)),
            ColumnData::Mixed(v) => Cells::Mixed(apply(v, moves, new_len)),
        };
        let nulls = self.nulls.as_mut().map(|n| apply(n, moves, new_len));
        undo::CutColumn { cells, nulls }
    }

    /// The code vector and dictionary, when this column is dict-encoded —
    /// the hook for code-space kernels (equality filters, group-by,
    /// MIN/MAX) in higher layers.
    pub fn dict(&self) -> Option<(&[u32], &Arc<Dictionary>)> {
        match &self.data {
            ColumnData::Dict { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Dictionary-encode a plain `Str` column; any other representation
    /// (including already-encoded) is returned as a clone. NULL positions
    /// intern the empty string and keep their mask bit.
    pub fn dict_encode(&self) -> Column {
        let ColumnData::Str(v) = &self.data else {
            return self.clone();
        };
        let mut dict = Dictionary::default();
        let codes = v.iter().map(|s| dict.intern(s)).collect();
        Column {
            data: ColumnData::Dict {
                codes,
                dict: Arc::new(dict),
            },
            nulls: self.nulls.clone(),
        }
    }

    /// The representation a *stored* image keeps this column in, by the
    /// [`dict_pays`] rule: a plain `Str` column is dictionary-encoded
    /// unless it is long and near-unique, and a `Dict` column is checked
    /// by [`Column::sparse_dict_rebuilt`]. `None` means the column already
    /// has its stored representation (non-strings always do).
    pub fn stored_encoding(&self) -> Option<Column> {
        match &self.data {
            ColumnData::Str(v) => try_dict(v).map(|data| Column {
                data,
                nulls: self.nulls.clone(),
            }),
            _ => self.sparse_dict_rebuilt(),
        }
    }

    /// A `Dict` column whose dictionary no longer pays ([`dict_pays`] on
    /// its entry count — an O(1) check) rebuilt from its strings: plain
    /// `Str` when the column really is near-unique, a compact dictionary
    /// of its own when it only shared an oversized one (a join output
    /// gathered from a much longer base column). `None` for every column
    /// that stays as it is.
    pub fn sparse_dict_rebuilt(&self) -> Option<Column> {
        let ColumnData::Dict { codes, dict } = &self.data else {
            return None;
        };
        if dict_pays(codes.len(), dict.len()) {
            return None;
        }
        let strs: Vec<Arc<str>> = codes.iter().map(|&c| Arc::clone(dict.value(c))).collect();
        Some(Column {
            data: try_dict(&strs).unwrap_or(ColumnData::Str(strs)),
            nulls: self.nulls.clone(),
        })
    }

    /// Decode a dict column back to plain `Str` values (identity clone for
    /// every other representation) — the transparent fallback for code that
    /// wants direct `Arc<str>` vectors.
    pub fn decode_dict(&self) -> Column {
        let ColumnData::Dict { codes, dict } = &self.data else {
            return self.clone();
        };
        Column {
            data: ColumnData::Str(codes.iter().map(|&c| Arc::clone(dict.value(c))).collect()),
            nulls: self.nulls.clone(),
        }
    }
}

/// A columnar multiset with an optional selection vector.
///
/// Columns are reference-counted, so cloning a batch (e.g. serving a
/// cached scan) and projecting are O(width), never O(cells).
/// Logical equality: same length and the same [`Value`] at every position,
/// regardless of physical representation (a `Mixed` column equals a typed
/// one holding the same values). This is what the durability round-trip
/// tests pin the codec against.
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        self.len() == other.len() && (0..self.len()).all(|i| self.value(i) == other.value(i))
    }
}

#[derive(Debug, Clone)]
pub struct Batch {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    /// Physical row count of the columns.
    rows: usize,
    /// Logical order as physical positions; `None` = identity over all rows.
    sel: Option<Vec<u32>>,
}

impl Batch {
    /// An empty batch of `schema`.
    pub fn empty(schema: Schema) -> Batch {
        let columns = schema
            .attrs()
            .iter()
            .map(|a| Arc::new(Column::new(a.data_type)))
            .collect();
        Batch {
            schema,
            columns,
            rows: 0,
            sel: None,
        }
    }

    /// Build from row-major tuples (the storage-boundary bridge).
    pub fn from_rows(schema: Schema, rows: &[Tuple]) -> Batch {
        let mut columns: Vec<Column> = schema
            .attrs()
            .iter()
            .map(|a| Column::with_capacity(a.data_type, rows.len()))
            .collect();
        for row in rows {
            debug_assert_eq!(row.len(), schema.len());
            for (c, v) in columns.iter_mut().zip(row) {
                c.push(v);
            }
        }
        Batch {
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            rows: rows.len(),
            sel: None,
        }
    }

    /// Build from already-columnar data (all columns the same length).
    pub fn from_columns(schema: Schema, columns: Vec<Column>) -> Batch {
        let rows = columns.first().map_or(0, Column::len);
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        debug_assert_eq!(columns.len(), schema.len());
        Batch {
            schema,
            columns: columns.into_iter().map(Arc::new).collect(),
            rows,
            sel: None,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn column(&self, i: usize) -> &Column {
        self.columns[i].as_ref()
    }

    /// Logical (selected) row count.
    pub fn num_rows(&self) -> usize {
        self.sel.as_ref().map_or(self.rows, Vec::len)
    }

    /// Physical position of logical row `i`.
    pub fn physical(&self, i: usize) -> u32 {
        self.sel.as_ref().map_or(i as u32, |s| s[i])
    }

    /// Physical positions in logical order.
    pub fn positions(&self) -> Vec<u32> {
        match &self.sel {
            Some(s) => s.clone(),
            None => (0..self.rows as u32).collect(),
        }
    }

    /// Replace the selection vector (positions must be < physical rows).
    pub fn set_selection(&mut self, sel: Vec<u32>) {
        debug_assert!(sel.iter().all(|&i| (i as usize) < self.rows));
        self.sel = Some(sel);
    }

    /// Keep only logical rows whose *physical* position satisfies `keep` —
    /// a zero-copy filter.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let sel = match self.sel.take() {
            Some(s) => s.into_iter().filter(|&p| keep(p)).collect(),
            None => (0..self.rows as u32).filter(|&p| keep(p)).collect(),
        };
        self.sel = Some(sel);
    }

    /// Zero-copy filter by a compiled predicate: the selection vector is
    /// rebuilt, values are never moved. `scratch` is a reusable row buffer
    /// for non-columnar conjuncts.
    ///
    /// Equality conjuncts against dict-encoded string columns run in code
    /// space: the literal is resolved to a code once, then the scan is a
    /// `u32` compare per row with no string bytes touched.
    pub fn filter(&mut self, pred: &CompiledPredicate, scratch: &mut Vec<Value>) {
        let rows = self.rows;
        let mut sel = self.sel.take();
        let mut slow: Vec<&Conjunct> = Vec::new();
        for c in &pred.conjuncts {
            if let Conjunct::ColLit {
                col,
                op: CmpOp::Eq,
                lit: Value::Str(s),
            } = c
            {
                if let Some((codes, dict)) = self.columns[*col].dict() {
                    let target = dict.code_of(s);
                    let nulls = self.columns[*col].null_mask();
                    let keep = |p: u32| {
                        let i = p as usize;
                        target == Some(codes[i]) && !nulls.is_some_and(|n| n[i])
                    };
                    sel = Some(match sel.take() {
                        Some(s) => s.into_iter().filter(|&p| keep(p)).collect(),
                        None => (0..rows as u32).filter(|&p| keep(p)).collect(),
                    });
                    continue;
                }
            }
            slow.push(c);
        }
        if !slow.is_empty() || sel.is_none() {
            let columns = &self.columns;
            let schema = &self.schema;
            let mut test = |p: u32| {
                let mut filled = false;
                slow.iter()
                    .all(|c| c.holds_at(columns, schema, p, scratch, &mut filled))
            };
            sel = Some(match sel.take() {
                Some(s) => s.into_iter().filter(|&p| test(p)).collect(),
                None => (0..rows as u32).filter(|&p| test(p)).collect(),
            });
        }
        self.sel = sel;
    }

    /// Fill `scratch` with the physical row `phys` (reusable row buffer for
    /// general predicate/aggregate expressions).
    pub fn write_row(&self, phys: u32, scratch: &mut Vec<Value>) {
        scratch.clear();
        scratch.extend(self.columns.iter().map(|c| c.value(phys as usize)));
    }

    /// Materialize all logical rows as tuples — the one row-producing
    /// kernel. Column-major: every row `Vec` is allocated once at full
    /// width, then one typed loop per column appends its cells over the
    /// selected positions. To emit another column order or a subset of
    /// the columns, [`Batch::align`] or [`Batch::project`] first (O(width),
    /// no cell is touched).
    pub fn to_rows(&self) -> Vec<Tuple> {
        let width = self.columns.len();
        let mut rows: Vec<Tuple> = (0..self.num_rows())
            .map(|_| Vec::with_capacity(width))
            .collect();
        for col in &self.columns {
            col.push_cells(&mut rows, self.sel.as_deref());
        }
        rows
    }

    /// Materialize one logical row as a tuple (columnar point read; avoids
    /// building the full row view to sample a handful of rows).
    pub fn tuple_at(&self, i: usize) -> Tuple {
        self.tuple_at_physical(self.physical(i))
    }

    /// Materialize the row at a *physical* position (point read by a
    /// position returned from e.g. [`Batch::counts`] or an index probe).
    pub fn tuple_at_physical(&self, phys: u32) -> Tuple {
        let p = phys as usize;
        self.columns.iter().map(|c| c.value(p)).collect()
    }

    /// Materialize, consuming the batch. Unlike [`Batch::to_rows`], dense
    /// uniquely-owned columns are *drained*: values (including `Arc<str>`s
    /// and `Mixed` payloads) move out instead of being cloned per cell.
    /// Shared or selection-bearing batches fall back to the copying path.
    pub fn into_rows(self) -> Vec<Tuple> {
        if self.sel.is_some() {
            return self.to_rows();
        }
        let width = self.columns.len();
        let mut rows: Vec<Tuple> = (0..self.rows).map(|_| Vec::with_capacity(width)).collect();
        for col in self.columns {
            let col = Arc::try_unwrap(col).unwrap_or_else(|shared| (*shared).clone());
            for (row, v) in rows.iter_mut().zip(col.into_values()) {
                row.push(v);
            }
        }
        rows
    }

    /// Reorder/subset columns to `positions` (zero-copy: column handles
    /// move or are reference-shared). `schema` is the target schema;
    /// `positions[k]` is the source column for target column `k`.
    pub fn project(self, schema: Schema, positions: &[usize]) -> Batch {
        debug_assert_eq!(schema.len(), positions.len());
        let columns: Vec<Arc<Column>> = positions
            .iter()
            .map(|&p| Arc::clone(&self.columns[p]))
            .collect();
        Batch {
            schema,
            columns,
            rows: self.rows,
            sel: self.sel,
        }
    }

    /// Reorder columns so the batch is laid out by `to` (same attribute
    /// multiset assumed for shared ids; extra source columns are dropped).
    pub fn align(self, to: &Schema) -> Batch {
        if self.schema.ids() == to.ids() {
            return self;
        }
        let positions: Vec<usize> = to
            .ids()
            .iter()
            .map(|a| {
                self.schema
                    .position_of(*a)
                    .unwrap_or_else(|| panic!("attribute {a} missing during alignment"))
            })
            .collect();
        self.project(to.clone(), &positions)
    }

    /// Compact the selection away, gathering into dense columns.
    pub fn compact(mut self) -> Batch {
        match self.sel.take() {
            None => self,
            Some(sel) => self.gather_physical(&sel),
        }
    }

    /// Append another batch of the same schema (multiset union).
    pub fn append(&mut self, other: &Batch) {
        debug_assert_eq!(self.schema.ids(), other.schema.ids());
        // Our own selection must be materialized before appending.
        if self.sel.is_some() {
            let compacted = std::mem::replace(self, Batch::empty(Schema::default())).compact();
            *self = compacted;
        }
        let idx = other.positions();
        for (mine, theirs) in self.columns.iter_mut().zip(&other.columns) {
            Arc::make_mut(mine).append_gather(theirs, &idx);
        }
        self.rows += idx.len();
    }

    /// Logical positions of `self` surviving the multiset difference
    /// `self ∸ other` (one occurrence removed per matching `other` row).
    /// Keys are hashed and compared *by column position* — neither side is
    /// materialized as rows. `other` must share this batch's attribute ids.
    pub fn minus_positions(&self, other: &Batch) -> Vec<u32> {
        debug_assert_eq!(self.schema.ids(), other.schema.ids());
        let cols: Vec<usize> = (0..self.schema.len()).collect();
        if other.num_rows() == 0 {
            return self.positions();
        }
        // Bucket on the cheap-to-hash columns only (string hashing
        // dominates wide rows); this hash is internal to the operation, so
        // any consistent choice is correct — candidates are confirmed by
        // comparing *all* columns. Fall back to every column when the
        // schema is all-strings.
        let hash_cols: Vec<usize> = {
            let non_str: Vec<usize> = self
                .schema
                .attrs()
                .iter()
                .enumerate()
                .filter(|(_, a)| a.data_type != crate::types::DataType::Str)
                .map(|(i, _)| i)
                .collect();
            if non_str.is_empty() {
                cols.clone()
            } else {
                non_str
            }
        };
        // Remaining-removal counts per distinct `other` row, keyed by hash
        // with collision buckets of (representative position, count).
        let mut remove: U64Map<Vec<(u32, i64)>> = u64_map_with_capacity(other.num_rows());
        for i in 0..other.num_rows() {
            let phys = other.physical(i);
            let h = other.hash_keys(phys, &hash_cols);
            let bucket = remove.entry(h).or_default();
            match bucket
                .iter_mut()
                .find(|(rep, _)| other.keys_eq(*rep, &cols, other, phys, &cols))
            {
                Some((_, c)) => *c += 1,
                None => bucket.push((phys, 1)),
            }
        }
        let mut keep = Vec::with_capacity(self.num_rows().saturating_sub(other.num_rows()));
        for i in 0..self.num_rows() {
            let phys = self.physical(i);
            let h = self.hash_keys(phys, &hash_cols);
            let removed = remove.get_mut(&h).is_some_and(|bucket| {
                bucket
                    .iter_mut()
                    .find(|(rep, c)| *c > 0 && other.keys_eq(*rep, &cols, self, phys, &cols))
                    .map(|(_, c)| *c -= 1)
                    .is_some()
            });
            if !removed {
                keep.push(phys);
            }
        }
        keep
    }

    /// Columnar multiset difference `self ∸ other` (monus): the surviving
    /// rows, gathered into a dense batch. The columnar counterpart of
    /// [`crate::tuple::bag_minus`].
    pub fn minus(&self, other: &Batch) -> Batch {
        let keep = self.minus_positions(other);
        self.gather_physical(&keep)
    }

    /// Dense batch holding the rows at the given *physical* positions, in
    /// order (one typed gather per column).
    pub fn gather_physical(&self, positions: &[u32]) -> Batch {
        let columns = self
            .columns
            .iter()
            .map(|c| Arc::new(c.gather(positions)))
            .collect();
        Batch {
            schema: self.schema.clone(),
            columns,
            rows: positions.len(),
            sel: None,
        }
    }

    /// Distinct rows with multiplicities, as (representative physical
    /// position, count) pairs — the columnar counterpart of
    /// [`crate::tuple::bag_counts`], hashing borrowed column keys.
    pub fn counts(&self) -> Vec<(u32, i64)> {
        let cols: Vec<usize> = (0..self.schema.len()).collect();
        let mut buckets: U64Map<Vec<usize>> = u64_map_with_capacity(self.num_rows());
        let mut out: Vec<(u32, i64)> = Vec::new();
        for i in 0..self.num_rows() {
            let phys = self.physical(i);
            let h = self.hash_keys(phys, &cols);
            let ids = buckets.entry(h).or_default();
            match ids
                .iter()
                .copied()
                .find(|&g| self.keys_eq(out[g].0, &cols, self, phys, &cols))
            {
                Some(g) => out[g].1 += 1,
                None => {
                    ids.push(out.len());
                    out.push((phys, 1));
                }
            }
        }
        out
    }

    /// Join-output constructor: for each `(l, r)` *physical* pair, the
    /// concatenated row `left[l] ++ right[r]`, projected onto `out_schema`
    /// via `positions` (indices into the concatenated layout).
    pub fn gather_pairs(
        left: &Batch,
        right: &Batch,
        pairs: &[(u32, u32)],
        out_schema: Schema,
        positions: &[usize],
    ) -> Batch {
        let lw = left.schema.len();
        let mut columns = Vec::with_capacity(positions.len());
        let mut idx_l: Option<Vec<u32>> = None;
        let mut idx_r: Option<Vec<u32>> = None;
        for &p in positions {
            if p < lw {
                let idx = idx_l.get_or_insert_with(|| pairs.iter().map(|&(l, _)| l).collect());
                columns.push(Arc::new(left.columns[p].gather(idx)));
            } else {
                let idx = idx_r.get_or_insert_with(|| pairs.iter().map(|&(_, r)| r).collect());
                columns.push(Arc::new(right.columns[p - lw].gather(idx)));
            }
        }
        if columns.is_empty() {
            // Degenerate zero-column schema: row count still matters.
            return Batch {
                schema: out_schema,
                columns,
                rows: pairs.len(),
                sel: None,
            };
        }
        Batch {
            schema: out_schema,
            rows: pairs.len(),
            columns,
            sel: None,
        }
    }

    /// Dictionary-encode every plain `Str` column, unconditionally.
    /// Non-string, already-encoded, and `Mixed` columns are
    /// reference-shared untouched. Stored images use
    /// [`Batch::stored_encoding`], which applies the encoding rule.
    pub fn dict_encoded(&self) -> Batch {
        self.map_columns(|c| matches!(c.data(), ColumnData::Str(_)).then(|| c.dict_encode()))
    }

    /// The storage-image representation: every string column encoded as
    /// [`Column::stored_encoding`] decides; columns already in their
    /// stored representation are reference-shared untouched.
    pub fn stored_encoding(&self) -> Batch {
        self.map_columns(Column::stored_encoding)
    }

    /// Re-check dictionary columns after an append grew them
    /// ([`Column::sparse_dict_rebuilt`]; O(width) unless one trips).
    /// Returns each replaced column's position and old handle, moved out
    /// (a journal keeps them to put back; everyone else drops them).
    pub fn rebuild_sparse_dicts(&mut self) -> Vec<(usize, Arc<Column>)> {
        let mut replaced = Vec::new();
        for (pos, col) in self.columns.iter_mut().enumerate() {
            if let Some(rebuilt) = col.sparse_dict_rebuilt() {
                replaced.push((pos, std::mem::replace(col, Arc::new(rebuilt))));
            }
        }
        replaced
    }

    /// New batch with each column replaced by `f`'s result, or shared
    /// as-is where `f` returns `None`.
    fn map_columns(&self, f: impl Fn(&Column) -> Option<Column>) -> Batch {
        let columns = self
            .columns
            .iter()
            .map(|c| f(c).map_or_else(|| Arc::clone(c), Arc::new))
            .collect();
        Batch {
            schema: self.schema.clone(),
            columns,
            rows: self.rows,
            sel: self.sel.clone(),
        }
    }

    /// Remove the rows at the given physical positions from a dense batch
    /// by batched swap-remove: every victim below the new length is
    /// overwritten by a surviving row from the tail, then the tail is
    /// split off — O(|victims| × width), independent of the row count.
    /// `victims` must be distinct; it is sorted in place. Returns the
    /// `(from, to)` moves performed, so position-holding structures
    /// (indices) can follow, and the removed rows: together they undo the
    /// removal ([`Batch::undo_swap_remove`]). Row order afterwards is
    /// unspecified.
    pub fn swap_remove_rows(&mut self, victims: &mut [u32]) -> (Vec<(u32, u32)>, CutRows) {
        assert!(self.sel.is_none(), "swap_remove_rows needs a dense batch");
        victims.sort_unstable();
        debug_assert!(victims.windows(2).all(|w| w[0] < w[1]));
        let new_len = self.rows - victims.len();
        // Victims already in the doomed tail need no filler; the others
        // are holes, filled from the tail's survivors.
        let split = victims.partition_point(|&v| (v as usize) < new_len);
        let (holes, tail_victims) = victims.split_at(split);
        let mut doomed = tail_victims.iter().copied().peekable();
        let survivors = (new_len as u32..self.rows as u32).filter(|p| {
            let dead = doomed.peek() == Some(p);
            if dead {
                doomed.next();
            }
            !dead
        });
        let moves: Vec<(u32, u32)> = survivors.zip(holes.iter().copied()).collect();
        debug_assert_eq!(moves.len(), holes.len());
        let cols = self
            .columns
            .iter_mut()
            .map(|col| Arc::make_mut(col).swap_remove_moves(&moves, new_len))
            .collect();
        let cut = CutRows {
            rows: self.rows - new_len,
            cols,
        };
        self.rows = new_len;
        (moves, cut)
    }

    /// Hash the key columns of physical row `phys` ([`Value::hash`]
    /// semantics, so cross-typed equal keys collide as required). Folded
    /// with the internal fast hasher — every consumer pairs this with a
    /// column-wise equality check, so only within-operation consistency is
    /// required (see [`crate::hash`]).
    pub fn hash_keys(&self, phys: u32, cols: &[usize]) -> u64 {
        let mut h = crate::hash::FxHasher::default();
        for &c in cols {
            self.columns[c].hash_value(phys as usize, &mut h);
        }
        h.finish()
    }

    /// True if any key column is NULL at physical row `phys`.
    pub fn any_null(&self, phys: u32, cols: &[usize]) -> bool {
        cols.iter().any(|&c| self.columns[c].is_null(phys as usize))
    }

    /// Key equality between physical rows of two batches, column-wise.
    pub fn keys_eq(
        &self,
        phys: u32,
        cols: &[usize],
        other: &Batch,
        ophys: u32,
        ocols: &[usize],
    ) -> bool {
        debug_assert_eq!(cols.len(), ocols.len());
        cols.iter()
            .zip(ocols)
            .all(|(&a, &b)| self.columns[a].eq_at(phys as usize, &other.columns[b], ophys as usize))
    }

    /// Total-order comparison of two physical rows on key columns (merge
    /// join ordering; matches sorting rows by their key tuples).
    pub fn cmp_keys(
        &self,
        phys: u32,
        cols: &[usize],
        other: &Batch,
        ophys: u32,
        ocols: &[usize],
    ) -> Ordering {
        for (&a, &b) in cols.iter().zip(ocols) {
            let ord = self.columns[a].cmp_at(phys as usize, &other.columns[b], ophys as usize);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

/// Logical equality: same schema and the same tuples in logical (selection)
/// order, independent of physical layout, column sharing, or selection
/// vectors.
impl PartialEq for Batch {
    fn eq(&self, other: &Batch) -> bool {
        self.schema == other.schema
            && self.num_rows() == other.num_rows()
            && (0..self.num_rows()).all(|i| self.tuple_at(i) == other.tuple_at(i))
    }
}

/// One conjunct of a [`CompiledPredicate`].
enum Conjunct {
    /// `col <op> literal` — columnar fast path.
    ColLit { col: usize, op: CmpOp, lit: Value },
    /// `col <op> col` — columnar fast path.
    ColCol { l: usize, op: CmpOp, r: usize },
    /// Anything else: evaluated on a scratch row.
    General(ScalarExpr),
    /// A conjunct that can never hold (NULL literal operand).
    Never,
}

/// A predicate compiled against a batch schema: sargable conjuncts run
/// column-at-a-position, the rest fall back to a reusable scratch row.
/// Matches [`Predicate::matches`] exactly (NULL comparisons are false).
pub struct CompiledPredicate {
    conjuncts: Vec<Conjunct>,
}

impl CompiledPredicate {
    pub fn compile(pred: &Predicate, schema: &Schema) -> CompiledPredicate {
        let conjuncts = pred
            .conjuncts()
            .iter()
            .map(|c| Self::compile_conjunct(c, schema))
            .collect();
        CompiledPredicate { conjuncts }
    }

    fn compile_conjunct(c: &ScalarExpr, schema: &Schema) -> Conjunct {
        if let ScalarExpr::Cmp { op, lhs, rhs } = c {
            match (lhs.as_ref(), rhs.as_ref()) {
                (ScalarExpr::Col(a), ScalarExpr::Lit(v)) => {
                    if let Some(col) = schema.position_of(*a) {
                        if v.is_null() {
                            return Conjunct::Never;
                        }
                        return Conjunct::ColLit {
                            col,
                            op: *op,
                            lit: v.clone(),
                        };
                    }
                }
                (ScalarExpr::Lit(v), ScalarExpr::Col(a)) => {
                    if let Some(col) = schema.position_of(*a) {
                        if v.is_null() {
                            return Conjunct::Never;
                        }
                        return Conjunct::ColLit {
                            col,
                            op: op.flipped(),
                            lit: v.clone(),
                        };
                    }
                }
                (ScalarExpr::Col(a), ScalarExpr::Col(b)) => {
                    if let (Some(l), Some(r)) = (schema.position_of(*a), schema.position_of(*b)) {
                        return Conjunct::ColCol { l, op: *op, r };
                    }
                }
                _ => {}
            }
        }
        Conjunct::General(c.clone())
    }

    /// Evaluate at a physical position. `scratch` is the caller's reusable
    /// row buffer, filled only if a general conjunct needs it.
    pub fn matches_at(&self, batch: &Batch, phys: u32, scratch: &mut Vec<Value>) -> bool {
        self.matches_cols(&batch.columns, &batch.schema, phys, scratch)
    }

    /// Column-slice form of [`CompiledPredicate::matches_at`] (lets the
    /// batch filter split its borrows).
    pub fn matches_cols(
        &self,
        columns: &[Arc<Column>],
        schema: &Schema,
        phys: u32,
        scratch: &mut Vec<Value>,
    ) -> bool {
        let mut scratch_filled = false;
        self.conjuncts
            .iter()
            .all(|c| c.holds_at(columns, schema, phys, scratch, &mut scratch_filled))
    }
}

impl Conjunct {
    /// Evaluate one conjunct at a physical position. `scratch_filled`
    /// tracks whether `scratch` already holds this row (shared across the
    /// conjuncts of one row).
    fn holds_at(
        &self,
        columns: &[Arc<Column>],
        schema: &Schema,
        phys: u32,
        scratch: &mut Vec<Value>,
        scratch_filled: &mut bool,
    ) -> bool {
        match self {
            Conjunct::Never => false,
            Conjunct::ColLit { col, op, lit } => {
                let column = &columns[*col];
                !column.is_null(phys as usize) && op.holds(column.cmp_value(phys as usize, lit))
            }
            Conjunct::ColCol { l, op, r } => {
                let (cl, cr) = (&columns[*l], &columns[*r]);
                !cl.is_null(phys as usize)
                    && !cr.is_null(phys as usize)
                    && op.holds(cl.cmp_at(phys as usize, cr, phys as usize))
            }
            Conjunct::General(e) => {
                if !*scratch_filled {
                    scratch.clear();
                    scratch.extend(columns.iter().map(|c| c.value(phys as usize)));
                    *scratch_filled = true;
                }
                e.eval(scratch, schema) == Value::Bool(true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrId, Attribute};

    fn schema(specs: &[(u32, DataType)]) -> Schema {
        Schema::new(
            specs
                .iter()
                .map(|&(i, dt)| Attribute {
                    id: AttrId(i),
                    name: format!("a{i}"),
                    data_type: dt,
                })
                .collect(),
        )
    }

    fn int_rows(vals: &[&[i64]]) -> Vec<Tuple> {
        vals.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    #[test]
    fn round_trip_preserves_rows() {
        let s = schema(&[(0, DataType::Int), (1, DataType::Str)]);
        let rows = vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Null, Value::str("b")],
            vec![Value::Int(3), Value::Null],
        ];
        let b = Batch::from_rows(s, &rows);
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.to_rows(), rows);
        assert!(b.column(0).is_null(1));
        assert!(b.column(1).is_null(2));
    }

    #[test]
    fn type_drift_demotes_to_mixed() {
        let s = schema(&[(0, DataType::Int)]);
        // Declared INT, but a FLOAT value flows through.
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Float(2.5)],
            vec![Value::Null],
        ];
        let b = Batch::from_rows(s, &rows);
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn selection_filters_without_copying() {
        let s = schema(&[(0, DataType::Int)]);
        let mut b = Batch::from_rows(s, &int_rows(&[&[1], &[2], &[3], &[4]]));
        b.retain(|p| p % 2 == 0);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.to_rows(), int_rows(&[&[1], &[3]]));
        // Selections compose.
        b.retain(|p| p == 2);
        assert_eq!(b.to_rows(), int_rows(&[&[3]]));
    }

    #[test]
    fn project_is_column_reorder() {
        let s = schema(&[(0, DataType::Int), (1, DataType::Int)]);
        let to = schema(&[(1, DataType::Int), (0, DataType::Int)]);
        let b = Batch::from_rows(s, &int_rows(&[&[1, 10], &[2, 20]]));
        let p = b.align(&to);
        assert_eq!(p.to_rows(), int_rows(&[&[10, 1], &[20, 2]]));
    }

    #[test]
    fn append_unions_and_compacts_selections() {
        let s = schema(&[(0, DataType::Int)]);
        let mut a = Batch::from_rows(s.clone(), &int_rows(&[&[1], &[2], &[3]]));
        a.retain(|p| p != 1);
        let b = Batch::from_rows(s, &int_rows(&[&[9]]));
        a.append(&b);
        assert_eq!(a.to_rows(), int_rows(&[&[1], &[3], &[9]]));
    }

    #[test]
    fn gather_pairs_builds_join_output() {
        let ls = schema(&[(0, DataType::Int)]);
        let rs = schema(&[(1, DataType::Str)]);
        let out = schema(&[(1, DataType::Str), (0, DataType::Int)]);
        let l = Batch::from_rows(ls, &int_rows(&[&[1], &[2]]));
        let r = Batch::from_rows(rs, &[vec![Value::str("x")], vec![Value::str("y")]]);
        let j = Batch::gather_pairs(&l, &r, &[(0, 1), (1, 0)], out, &[1, 0]);
        assert_eq!(
            j.to_rows(),
            vec![
                vec![Value::str("y"), Value::Int(1)],
                vec![Value::str("x"), Value::Int(2)],
            ]
        );
    }

    #[test]
    fn hash_and_eq_follow_value_semantics() {
        let s = schema(&[(0, DataType::Int)]);
        let f = schema(&[(1, DataType::Float)]);
        let a = Batch::from_rows(s, &int_rows(&[&[2]]));
        let b = Batch::from_rows(f, &[vec![Value::Float(2.0)]]);
        assert_eq!(a.hash_keys(0, &[0]), b.hash_keys(0, &[0]));
        assert!(a.keys_eq(0, &[0], &b, 0, &[0]));
        // NULL keys are detectable.
        let n = Batch::from_rows(schema(&[(2, DataType::Int)]), &[vec![Value::Null]]);
        assert!(n.any_null(0, &[0]));
        // NULL == NULL for grouping.
        assert!(n.keys_eq(0, &[0], &n, 0, &[0]));
    }

    #[test]
    fn compiled_predicate_matches_row_semantics() {
        let s = schema(&[(0, DataType::Int), (1, DataType::Int)]);
        let rows = vec![
            vec![Value::Int(1), Value::Int(5)],
            vec![Value::Int(7), Value::Int(5)],
            vec![Value::Null, Value::Int(5)],
            vec![Value::Int(5), Value::Int(5)],
        ];
        let b = Batch::from_rows(s.clone(), &rows);
        for pred in [
            Predicate::from_expr(ScalarExpr::col_cmp_lit(AttrId(0), CmpOp::Gt, 2i64)),
            Predicate::from_expr(ScalarExpr::col_eq_col(AttrId(0), AttrId(1))),
            Predicate::from_conjuncts(vec![
                ScalarExpr::col_cmp_lit(AttrId(1), CmpOp::Eq, 5i64),
                ScalarExpr::col_cmp_lit(AttrId(0), CmpOp::Le, 5i64),
            ]),
            // Arithmetic forces the scratch-row fallback.
            Predicate::from_expr(ScalarExpr::cmp(
                CmpOp::Lt,
                ScalarExpr::arith(
                    crate::expr::ArithOp::Add,
                    ScalarExpr::col(AttrId(0)),
                    ScalarExpr::lit(1i64),
                ),
                ScalarExpr::col(AttrId(1)),
            )),
        ] {
            let compiled = CompiledPredicate::compile(&pred, &s);
            let mut scratch = Vec::new();
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(
                    compiled.matches_at(&b, i as u32, &mut scratch),
                    pred.matches(row, &s),
                    "pred {pred} row {row:?}"
                );
            }
        }
    }

    #[test]
    fn null_literal_conjunct_never_matches() {
        let s = schema(&[(0, DataType::Int)]);
        let b = Batch::from_rows(s.clone(), &int_rows(&[&[1]]));
        let pred = Predicate::from_expr(ScalarExpr::cmp(
            CmpOp::Eq,
            ScalarExpr::col(AttrId(0)),
            ScalarExpr::Lit(Value::Null),
        ));
        let compiled = CompiledPredicate::compile(&pred, &s);
        let mut scratch = Vec::new();
        assert!(!compiled.matches_at(&b, 0, &mut scratch));
        assert!(!pred.matches(&[Value::Int(1)], &s));
    }

    #[test]
    fn into_rows_moves_dense_columns() {
        let s = schema(&[(0, DataType::Str), (1, DataType::Int)]);
        let rows = vec![
            vec![Value::str("a"), Value::Int(1)],
            vec![Value::Null, Value::Null],
            vec![Value::str("c"), Value::Int(3)],
        ];
        let b = Batch::from_rows(s.clone(), &rows);
        assert_eq!(b.into_rows(), rows);
        // A selection falls back to the gathering path.
        let mut b = Batch::from_rows(s, &rows);
        b.retain(|p| p != 1);
        assert_eq!(b.into_rows(), vec![rows[0].clone(), rows[2].clone()]);
    }

    #[test]
    fn minus_matches_row_bag_minus() {
        let s = schema(&[(0, DataType::Int), (1, DataType::Int)]);
        let a_rows = vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(3), Value::Null],
        ];
        let b_rows = vec![
            vec![Value::Int(1), Value::Int(1)],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(9), Value::Int(9)],
        ];
        let a = Batch::from_rows(s.clone(), &a_rows);
        let b = Batch::from_rows(s, &b_rows);
        let got = a.minus(&b).to_rows();
        let expected = crate::tuple::bag_minus(&a_rows, &b_rows);
        assert!(
            crate::tuple::bag_eq(&got, &expected),
            "{got:?} vs {expected:?}"
        );
    }

    #[test]
    fn counts_match_row_bag_counts() {
        let s = schema(&[(0, DataType::Int)]);
        let rows = vec![
            vec![Value::Int(1)],
            vec![Value::Int(1)],
            vec![Value::Null],
            vec![Value::Int(2)],
            vec![Value::Null],
        ];
        let b = Batch::from_rows(s, &rows);
        let got: Vec<(Tuple, i64)> = b
            .counts()
            .into_iter()
            .map(|(p, c)| {
                (
                    (0..b.schema().len())
                        .map(|k| b.column(k).value(p as usize))
                        .collect(),
                    c,
                )
            })
            .collect();
        let expected = crate::tuple::bag_counts(&rows);
        assert_eq!(got.len(), expected.len());
        for (row, c) in &got {
            assert_eq!(expected.get(row.as_slice()), Some(c), "row {row:?}");
        }
    }

    #[test]
    fn tuple_at_respects_selection() {
        let s = schema(&[(0, DataType::Int)]);
        let mut b = Batch::from_rows(s, &int_rows(&[&[10], &[20], &[30]]));
        assert_eq!(b.tuple_at(2), vec![Value::Int(30)]);
        b.retain(|p| p != 0);
        assert_eq!(b.tuple_at(0), vec![Value::Int(20)]);
    }

    #[test]
    fn cmp_value_orders_like_value_cmp() {
        let s = schema(&[(0, DataType::Float)]);
        let b = Batch::from_rows(s, &[vec![Value::Float(1.5)], vec![Value::Null]]);
        assert_eq!(b.column(0).cmp_value(0, &Value::Int(2)), Ordering::Less);
        assert_eq!(b.column(0).cmp_value(0, &Value::Int(1)), Ordering::Greater);
        assert_eq!(b.column(0).cmp_value(1, &Value::Null), Ordering::Equal);
        assert_eq!(b.column(0).cmp_value(1, &Value::Int(5)), Ordering::Greater);
    }

    /// A string column with NULLs and duplicates: `(plain Str rows)`
    /// alongside its dict-encoded image.
    fn str_pair() -> (Batch, Batch, Vec<Tuple>) {
        let s = schema(&[(0, DataType::Str), (1, DataType::Int)]);
        let rows: Vec<Tuple> = (0i64..40)
            .map(|i| {
                vec![
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("v{}", i % 5))
                    },
                    Value::Int(i),
                ]
            })
            .collect();
        let plain = Batch::from_rows(s, &rows);
        let dict = plain.dict_encoded();
        (plain, dict, rows)
    }

    #[test]
    fn dict_encode_decode_round_trips_with_unique_entries() {
        let (plain, dict, rows) = str_pair();
        // Logical equality is representation-independent.
        assert_eq!(&dict, &plain);
        assert_eq!(dict.to_rows(), rows);
        let (codes, d) = dict.column(0).dict().expect("encoded");
        assert_eq!(codes.len(), 40);
        // Entries unique: code equality ⇔ string equality.
        let mut seen = std::collections::HashSet::new();
        assert!(d.values().iter().all(|v| seen.insert(v.clone())));
        // Decoding restores a plain Str column with identical values.
        let decoded = dict.column(0).decode_dict();
        assert!(matches!(decoded.data(), ColumnData::Str(_)));
        assert_eq!(&decoded, plain.column(0));
    }

    #[test]
    fn dict_hashes_match_plain_string_hashes() {
        let (plain, dict, _) = str_pair();
        for i in 0..plain.num_rows() {
            let mut hp = crate::hash::FxHasher::default();
            let mut hd = crate::hash::FxHasher::default();
            plain.column(0).hash_value(i, &mut hp);
            dict.column(0).hash_value(i, &mut hd);
            assert_eq!(hp.finish(), hd.finish(), "row {i}");
        }
    }

    #[test]
    fn dict_filter_fast_path_matches_plain_filter() {
        let (plain, dict, _) = str_pair();
        let pred = CompiledPredicate::compile(
            &Predicate::from_expr(ScalarExpr::col_cmp_lit(AttrId(0), CmpOp::Eq, "v3")),
            plain.schema(),
        );
        let mut scratch = Vec::new();
        let mut fp = plain.clone();
        fp.filter(&pred, &mut scratch);
        let mut fd = dict.clone();
        fd.filter(&pred, &mut scratch);
        assert!(fp.num_rows() > 0, "fixture must select something");
        assert_eq!(&fd, &fp);
        // NULL rows never match an equality conjunct, dict or plain.
        assert!((0..fp.num_rows()).all(|i| !fp.column(0).is_null(fp.physical(i) as usize)));
    }
}
