//! Rows exist only at the user boundary: the two engine paths that used to
//! run through row-shaped copies of columnar data, pinned to row models.
//!
//! * **Delete check.** `Warehouse::ingest` nets each deleted row against
//!   its own batch and the queued batch, then counts what is still owed in
//!   the stored table with the delete kernel's locator. Accept/reject must
//!   match a `HashMap<Tuple, i64>` availability model (stored + queued
//!   inserts − queued deletes + this batch's inserts − its deletes ≥ 0 for
//!   every deleted row) over random base tables — duplicates, NULLs, a
//!   dictionary-encoded and a plain string column — with no index or a
//!   hash index on one of two columns, and with or without a registered
//!   view, under random ingest sequences interleaved with epochs. A
//!   rejected ingest must leave the queue and the WAL byte for byte as
//!   they were, and after each epoch the base table must hold the model's
//!   stored + queued rows — with or without views to maintain. The check
//!   nets columnar batches by row hash, so this is its row-model oracle;
//!   `DELETE_CHECK_CASES` sets the case count (default 24).
//! * **Query kernel.** What `query` serves — the stored batch's column
//!   handles reordered into the declared schema (`Batch::align`), then
//!   `Batch::to_rows` — must equal the old path (row-major conversion, then
//!   `align_rows`) exactly: same rows, same order, same value variants.

use mvmqo_integration_tests::{align_rows, eval_logical};
use mvmqo_relalg::batch::{Batch, Column};
use mvmqo_relalg::catalog::{Catalog, ColumnSpec, TableId};
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
use mvmqo_relalg::schema::{AttrId, Attribute, Schema};
use mvmqo_relalg::tuple::Tuple;
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::database::Database;
use mvmqo_storage::delta::DeltaBatch;
use mvmqo_storage::error::StorageError;
use mvmqo_storage::index::IndexKind;
use mvmqo_storage::table::StoredTable;
use mvmqo_warehouse::{Warehouse, WarehouseError};
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "mvmqo-boundary-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Xorshift(u64);

impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn sample(&mut self, from: &[Tuple], max: usize) -> Vec<Tuple> {
        if from.is_empty() {
            return Vec::new();
        }
        (0..self.below(max + 1))
            .map(|_| from[self.below(from.len())].clone())
            .collect()
    }
}

// ======================================================================
// (i) Delete check vs a row model
// ======================================================================

/// Initial rows are drawn from this many picks; picks at or beyond it make
/// rows no table starts with.
const PICKS: u32 = 600;

/// The row behind one pick: `k` repeats (13 values, NULL one time in
/// seven), `g` is a low-cardinality string (dictionary-encoded; NULL one
/// time in eleven), `u` is distinct per pick (near-unique, so a table of a
/// few hundred rows stores it as plain strings), `v` is 0 or 1.
fn row_of(pick: u32) -> Tuple {
    vec![
        if pick % 7 == 6 {
            Value::Null
        } else {
            Value::Int((pick % 13) as i64)
        },
        if pick % 11 == 10 {
            Value::Null
        } else {
            Value::str(format!("g{}", pick % 3))
        },
        Value::str(format!("u{pick}")),
        Value::Int((pick % 2) as i64),
    ]
}

fn catalog() -> (Catalog, TableId) {
    let mut catalog = Catalog::new();
    let t = catalog.add_table(
        "t",
        vec![
            ColumnSpec::with_distinct("k", DataType::Int, 13.0),
            ColumnSpec::with_distinct("g", DataType::Str, 3.0),
            ColumnSpec::with_distinct("u", DataType::Str, PICKS as f64),
            ColumnSpec::with_distinct("v", DataType::Int, 2.0),
        ],
        300.0,
        &["k"],
    );
    (catalog, t)
}

/// The availability model: per-row stored counts plus the queued net.
#[derive(Default)]
struct Model {
    stored: HashMap<Tuple, i64>,
    queued: HashMap<Tuple, i64>,
    queued_inserts: Vec<Tuple>,
    queued_deletes: Vec<Tuple>,
}

impl Model {
    fn resync(&mut self, rows: &[Tuple]) {
        *self = Model::default();
        for row in rows {
            *self.stored.entry(row.clone()).or_insert(0) += 1;
        }
    }

    fn stored_rows(&self) -> Vec<Tuple> {
        let mut rows: Vec<Tuple> = self
            .stored
            .iter()
            .flat_map(|(r, &n)| std::iter::repeat_n(r.clone(), n as usize))
            .collect();
        rows.sort();
        rows
    }

    fn accepts(&self, batch: &DeltaBatch) -> bool {
        let mut net: HashMap<&Tuple, i64> = HashMap::new();
        for row in &batch.inserts {
            *net.entry(row).or_insert(0) += 1;
        }
        for row in &batch.deletes {
            *net.entry(row).or_insert(0) -= 1;
        }
        batch.deletes.iter().all(|row| {
            self.stored.get(row).copied().unwrap_or(0)
                + self.queued.get(row).copied().unwrap_or(0)
                + net[row]
                >= 0
        })
    }

    fn queue(&mut self, batch: &DeltaBatch) {
        for row in &batch.inserts {
            *self.queued.entry(row.clone()).or_insert(0) += 1;
        }
        for row in &batch.deletes {
            *self.queued.entry(row.clone()).or_insert(0) -= 1;
        }
        self.queued_inserts.extend(batch.inserts.iter().cloned());
        self.queued_deletes.extend(batch.deletes.iter().cloned());
    }

    /// Stored rows after the queue lands, inserts before deletes (§5.2).
    fn after_epoch(&self) -> Vec<Tuple> {
        let mut counts = self.stored.clone();
        for (row, n) in &self.queued {
            *counts.entry(row.clone()).or_insert(0) += n;
        }
        let mut rows: Vec<Tuple> = counts
            .into_iter()
            .flat_map(|(r, n)| std::iter::repeat_n(r, n.max(0) as usize))
            .collect();
        rows.sort();
        rows
    }
}

/// One ingest, expanded from a seed against the model — each arm one of
/// the cases the check must decide.
fn batch_for(seed: u64, model: &Model, fresh: &mut u32) -> DeltaBatch {
    let mut rng = Xorshift(seed | 1);
    let mut new_row = || {
        *fresh += 1;
        row_of(PICKS + *fresh)
    };
    let stored = model.stored_rows();
    match rng.below(6) {
        // Deletes of stored rows (sometimes the same one twice), inserts.
        0 => {
            let inserts = (0..rng.below(4)).map(|_| new_row()).collect();
            DeltaBatch::new(inserts, rng.sample(&stored, 8))
        }
        // A delete that only this batch's own insert makes valid.
        1 => {
            let row = new_row();
            DeltaBatch::new(vec![row.clone(), new_row()], vec![row])
        }
        // A delete of a queued insert.
        2 => DeltaBatch::new(vec![], rng.sample(&model.queued_inserts, 3)),
        // A delete of an already-queued delete.
        3 => DeltaBatch::new(vec![], rng.sample(&model.queued_deletes, 3)),
        // Over-deletes: each sampled stored row listed three times more.
        4 => {
            let sample = rng.sample(&stored, 3);
            DeltaBatch::new(vec![], [sample.clone(), sample.clone(), sample].concat())
        }
        // Absent rows: picks the table may or may not hold, and rows no
        // table ever held.
        _ => {
            let mut deletes: Vec<Tuple> = (0..rng.below(3))
                .map(|_| row_of(rng.below(PICKS as usize) as u32))
                .collect();
            deletes.push(new_row());
            DeltaBatch::new(vec![], deletes)
        }
    }
}

fn sorted_debug(rows: &[Tuple]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// Cases for the delete-check oracle (`DELETE_CHECK_CASES`, default 24).
fn delete_check_cases() -> u32 {
    std::env::var("DELETE_CHECK_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(delete_check_cases()))]

    #[test]
    fn delete_check_matches_the_row_model(
        initial in proptest::collection::vec(0u32..PICKS, 0..400),
        index in 0u8..3,
        with_view in proptest::bool::ANY,
        seeds in proptest::collection::vec(1u64..u64::MAX, 1..24),
    ) {
        let (catalog, t) = catalog();
        let schema = catalog.table(t).schema.clone();
        let rows: Vec<Tuple> = initial.iter().map(|&p| row_of(p)).collect();
        let mut table = StoredTable::with_rows(schema, rows.clone());
        match index {
            1 => table.create_index(catalog.table(t).attr("k"), IndexKind::Hash),
            2 => table.create_index(catalog.table(t).attr("u"), IndexKind::Hash),
            _ => {}
        }
        let mut db = Database::new();
        db.put_base(t, table);
        let (k, g, u, v) = {
            let tab = catalog.table(t);
            (tab.attr("k"), tab.attr("g"), tab.attr("u"), tab.attr("v"))
        };
        let mut wh = Warehouse::new(catalog, db);
        if with_view {
            // Permuted and narrower than the base table; it gives epochs
            // a view to maintain and `query`/`verify` a materialization to
            // serve.
            let expr = LogicalExpr::project(
                LogicalExpr::select(
                    LogicalExpr::scan(t),
                    Predicate::from_expr(ScalarExpr::col_cmp_lit(v, CmpOp::Eq, 1i64)),
                ),
                vec![u, k, g],
            );
            wh.register_view(ViewDef::new("vw", expr)).unwrap();
        }
        let dir = TempDir::new("delete-check");
        wh.enable_wal(&dir.0).unwrap();
        let wal = dir.0.join("wal-0.log");
        let wal_len = || std::fs::metadata(&wal).unwrap().len();

        let mut model = Model::default();
        model.resync(&rows);
        let mut fresh = 0u32;
        for (step, &seed) in seeds.iter().enumerate() {
            let batch = batch_for(seed, &model, &mut fresh);
            let (pending, logged) = (wh.pending_tuples(), wal_len());
            let context = format!("step {step} seed {seed}: {batch:?}");
            match wh.ingest(t, batch.clone()) {
                Ok(n) => {
                    prop_assert!(model.accepts(&batch), "accepted a phantom delete, {}", context);
                    prop_assert_eq!(n, batch.inserts.len() + batch.deletes.len());
                    model.queue(&batch);
                }
                Err(e) => {
                    prop_assert!(
                        matches!(e, WarehouseError::Storage(StorageError::PhantomDelete { .. })),
                        "{}: {}", context, e
                    );
                    prop_assert!(!model.accepts(&batch), "rejected a valid batch, {}", context);
                    prop_assert_eq!(wh.pending_tuples(), pending, "queue moved, {}", context);
                    prop_assert_eq!(wal_len(), logged, "WAL moved, {}", context);
                }
            }

            if (seed >> 20) % 4 == 0 || step + 1 == seeds.len() {
                let expected = model.after_epoch();
                wh.run_epoch().unwrap();
                let stored = wh.database().base(t).unwrap().rows().to_vec();
                // With or without a view, an epoch applies a table's
                // inserts before its deletes, as the check assumes: every
                // accepted delete removed exactly one occurrence.
                prop_assert_eq!(sorted_debug(&stored), sorted_debug(&expected), "{}", context);
                if with_view {
                    prop_assert!(wh.verify("vw").unwrap());
                    let served = wh.query("vw").unwrap();
                    prop_assert!(served.from_materialization);
                    let view = wh.views()[0].expr.clone();
                    let recomputed = eval_logical(&view, wh.catalog(), wh.database());
                    prop_assert_eq!(sorted_debug(&served.rows), sorted_debug(&recomputed));
                }
                model.resync(&stored);
            }
        }
    }
}

// ======================================================================
// (ii) Query kernel vs the old path
// ======================================================================

/// Physical column representations under test.
const LAYOUTS: [&str; 6] = ["int", "float", "str", "dict", "date", "bool"];

/// A column of `n` cells (one in five NULL) in the given representation.
fn column(layout: &str, n: usize, rng: &mut Xorshift) -> (DataType, Column) {
    let dt = match layout {
        "float" => DataType::Float,
        "str" | "dict" => DataType::Str,
        "date" => DataType::Date,
        "bool" => DataType::Bool,
        _ => DataType::Int,
    };
    let mut col = Column::with_capacity(dt, n);
    for _ in 0..n {
        let pick = rng.below(10) as i64;
        let v = if pick >= 8 {
            Value::Null
        } else {
            match dt {
                DataType::Int => Value::Int(pick),
                DataType::Float => Value::Float(pick as f64 + 0.5),
                DataType::Str => Value::str(format!("s{}", pick % 4)),
                DataType::Date => Value::Date(pick as i32),
                DataType::Bool => Value::Bool(pick % 2 == 0),
            }
        };
        col.push(&v);
    }
    if layout == "dict" {
        col = col.dict_encode();
    }
    (dt, col)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn query_kernel_matches_align_rows_of_row_major_rows(
        layouts in proptest::collection::vec(0usize..LAYOUTS.len(), 1..7),
        n in 0usize..40,
        seed in 1u64..u64::MAX,
    ) {
        let mut rng = Xorshift(seed);
        let (attrs, columns): (Vec<Attribute>, Vec<Column>) = layouts
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let (data_type, col) = column(LAYOUTS[l], n, &mut rng);
                let attr = Attribute { id: AttrId(i as u32), name: format!("c{i}"), data_type };
                (attr, col)
            })
            .unzip();
        let mut batch = Batch::from_columns(Schema::new(attrs.clone()), columns);
        // A selection vector: a subset in order, or positions repeated and
        // out of order.
        match rng.below(3) {
            1 => batch.retain(|p| p % 3 != 1),
            2 if n > 0 => batch.set_selection((0..n).map(|_| rng.below(n) as u32).collect()),
            _ => {}
        }
        // The declared schema: a non-empty subset of the stored columns in
        // a random order.
        let mut declared = attrs;
        for i in (1..declared.len()).rev() {
            declared.swap(i, rng.below(i + 1));
        }
        declared.truncate(1 + rng.below(declared.len()));
        let declared = Schema::new(declared);

        // Compared as Debug strings: `Value`'s equality treats Int(2) and
        // Float(2.0) as equal, and the kernel must not change a variant.
        let row_major: Vec<Tuple> = (0..batch.num_rows()).map(|i| batch.tuple_at(i)).collect();
        prop_assert_eq!(format!("{:?}", batch.to_rows()), format!("{row_major:?}"));
        let served = batch.clone().align(&declared).to_rows();
        let old = align_rows(row_major, batch.schema(), &declared);
        prop_assert_eq!(format!("{served:?}"), format!("{old:?}"));
    }
}
