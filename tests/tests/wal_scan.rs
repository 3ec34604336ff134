//! Hostile bytes for the WAL scanner.
//!
//! `scan_wal_bytes` reads whatever a crash, bit rot or a forged file left
//! on disk. Over random bytes, and over valid logs of every record kind
//! with bit flips (CRC left stale or recomputed over the damaged payload),
//! cuts, and forged frame lengths, CRCs and inner count fields, it must
//! return the records of a valid prefix and a [`WalStop`] — never panic —
//! and must never allocate more than `MAX_RECORD_BYTES` along the way: a
//! forged length is checked before it is trusted. The prefix it reports
//! must re-scan to the same records with a clean stop.
//!
//! A counting global allocator measures, on the scanning thread only, the
//! largest single request and the high-water mark of live bytes during
//! each scan. `WAL_CASES` sets the case count (default 48).

use mvmqo_relalg::agg::{AggFunc, AggSpec};
use mvmqo_relalg::batch::Batch;
use mvmqo_relalg::catalog::TableId;
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::{LogicalExpr, ViewDef};
use mvmqo_relalg::schema::{AttrId, Attribute, Schema};
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::crc::crc32;
use mvmqo_storage::wal::{scan_wal_bytes, WalRecord, WalStop, MAX_RECORD_BYTES};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The system allocator, counting requests made on a thread while that
/// thread's `TRACKING` flag is set.
struct Counting;

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    /// Bytes allocated minus bytes freed since tracking began.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK_LIVE: Cell<i64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            LARGEST.with(|l| l.set(l.get().max(size)));
            LIVE.with(|live| {
                live.set(live.get() + size as i64);
                PEAK_LIVE.with(|p| p.set(p.get().max(live.get())));
            });
        }
    });
}

fn note_free(size: usize) {
    let _ = TRACKING.try_with(|t| {
        if t.get() {
            LIVE.with(|live| live.set(live.get() - size as i64));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract is passed on as it came. The counting
// beside it touches only const-initialized thread-locals without
// destructors, which never allocate, so it cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: the caller's `layout` contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one scan allocated on its thread.
struct Footprint {
    largest: usize,
    peak_live: i64,
}

/// Run `f` with this thread's allocations counted.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Footprint) {
    LIVE.with(|c| c.set(0));
    PEAK_LIVE.with(|c| c.set(0));
    LARGEST.with(|c| c.set(0));
    TRACKING.with(|t| t.set(true));
    let out = f();
    TRACKING.with(|t| t.set(false));
    let footprint = Footprint {
        largest: LARGEST.with(Cell::get),
        peak_live: PEAK_LIVE.with(Cell::get),
    };
    (out, footprint)
}

/// Tiny deterministic generator (xorshift).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }

    fn u32(&mut self) -> u32 {
        self.below(u32::MAX as usize + 1) as u32
    }
}

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Date,
    DataType::Bool,
];

/// A cell of type `dt`, one in five NULL.
fn cell(dt: DataType, rng: &mut Rng) -> Value {
    let v = rng.below(40) as i64 - 20;
    match (rng.below(5), dt) {
        (0, _) => Value::Null,
        (_, DataType::Int) => Value::Int(v),
        (_, DataType::Float) => Value::Float(v as f64 / 4.0),
        (_, DataType::Str) => Value::str(format!("s{v}")),
        (_, DataType::Date) => Value::Date(v as i32),
        (_, DataType::Bool) => Value::Bool(v % 2 == 0),
    }
}

/// A random batch: one to four columns of random types, up to five rows,
/// its string columns dictionary-encoded half the time.
fn batch(schema: &Schema, rng: &mut Rng) -> Batch {
    let rows: Vec<Vec<Value>> = (0..rng.below(6))
        .map(|_| {
            schema
                .attrs()
                .iter()
                .map(|a| cell(a.data_type, rng))
                .collect()
        })
        .collect();
    let batch = Batch::from_rows(schema.clone(), &rows);
    if rng.below(2) == 0 {
        batch.dict_encoded()
    } else {
        batch
    }
}

fn view(rng: &mut Rng) -> ViewDef {
    let (t, a) = (TableId(rng.below(4) as u32), AttrId(rng.below(8) as u32));
    let pred = Predicate::from_expr(ScalarExpr::col_cmp_lit(a, CmpOp::Lt, rng.below(9) as i64));
    let selected = LogicalExpr::select(LogicalExpr::scan(t), pred);
    let expr = match rng.below(3) {
        0 => selected,
        1 => LogicalExpr::project(selected, vec![a]),
        _ => LogicalExpr::aggregate(
            selected,
            vec![a],
            vec![AggSpec::new(AggFunc::Sum, ScalarExpr::Col(a), AttrId(99))],
        ),
    };
    ViewDef::new(format!("v{}", rng.below(10)), expr)
}

/// A valid record of a random kind.
fn record(rng: &mut Rng) -> WalRecord {
    match rng.below(4) {
        0 | 1 => {
            let schema = Schema::new(
                (0..1 + rng.below(4))
                    .map(|i| Attribute {
                        id: AttrId(i as u32),
                        name: format!("t.c{i}"),
                        data_type: TYPES[rng.below(5)],
                    })
                    .collect(),
            );
            WalRecord::Ingest {
                epoch: rng.below(5) as u64,
                table: TableId(rng.below(4) as u32),
                inserts: batch(&schema, rng),
                deletes: batch(&schema, rng),
            }
        }
        2 => WalRecord::EpochCommit {
            epoch: rng.below(5) as u64,
        },
        _ if rng.below(2) == 0 => WalRecord::RegisterView { view: view(rng) },
        _ => WalRecord::DropView {
            name: format!("v{}", rng.below(10)),
        },
    }
}

/// A framed log of `records`, with each frame's byte range.
fn frames(records: &[WalRecord]) -> (Vec<u8>, Vec<(usize, usize)>) {
    let (mut log, mut spans) = (Vec::new(), Vec::new());
    for rec in records {
        let payload = rec.encode();
        let start = log.len();
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&crc32(&payload).to_le_bytes());
        log.extend_from_slice(&payload);
        spans.push((start, log.len()));
    }
    (log, spans)
}

/// Recompute the CRC of the frame at `span` over its (damaged) payload, so
/// the damage reaches the record decoder.
fn reseal(log: &mut [u8], (start, end): (usize, usize)) {
    let crc = crc32(&log[start + 8..end]);
    log[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Apply one random kind of damage to a valid log.
fn damage(log: &mut Vec<u8>, spans: &[(usize, usize)], rng: &mut Rng) {
    // An earlier cut may have taken frames off the end.
    let whole: Vec<(usize, usize)> = spans.iter().copied().filter(|s| s.1 <= log.len()).collect();
    if whole.is_empty() {
        return;
    }
    let span = whole[rng.below(whole.len())];
    let (start, end) = span;
    match rng.below(6) {
        // A bit flip anywhere, the CRC left as it was.
        0 => {
            let i = rng.below(log.len());
            log[i] ^= 1 << rng.below(8);
        }
        // A bit flip inside one payload, the CRC recomputed.
        1 => {
            let i = start + 8 + rng.below(end - start - 8);
            log[i] ^= 1 << rng.below(8);
            reseal(log, span);
        }
        // A forged inner field: four payload bytes overwritten with a huge
        // or random count, the CRC recomputed.
        2 if end - start >= 12 => {
            let i = start + 8 + rng.below(end - start - 11);
            let forged = [u32::MAX, u32::MAX / 2, MAX_RECORD_BYTES, rng.u32()][rng.below(4)];
            log[i..i + 4].copy_from_slice(&forged.to_le_bytes());
            reseal(log, span);
        }
        // A forged frame length: past the limit, just under it, past the
        // end of the log, or random.
        3 => {
            let rest = (log.len() - start) as u32;
            let forged = [
                u32::MAX,
                MAX_RECORD_BYTES + 1,
                MAX_RECORD_BYTES,
                rest,
                rest.saturating_sub(9),
                rng.u32(),
            ][rng.below(6)];
            log[start..start + 4].copy_from_slice(&forged.to_le_bytes());
        }
        // A forged CRC.
        4 => {
            let forged = rng.u32();
            log[start + 4..start + 8].copy_from_slice(&forged.to_le_bytes());
        }
        // A cut.
        _ => log.truncate(rng.below(log.len() + 1)),
    }
}

/// Cases for the hostile-bytes property (`WAL_CASES`, default 48).
fn wal_cases() -> u32 {
    std::env::var("WAL_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(wal_cases()))]

    /// Random bytes, or a valid log of every record kind under one to
    /// three kinds of damage: the scanner returns records and a stop,
    /// never panics, allocates at most `MAX_RECORD_BYTES`, and its valid
    /// prefix re-scans cleanly to the same records.
    #[test]
    fn hostile_wal_bytes_scan_to_a_prefix_or_stop(seed in 1u64..u64::MAX) {
        let mut rng = Rng(seed);
        let log = if rng.below(5) == 0 {
            (0..rng.below(512)).map(|_| rng.below(256) as u8).collect()
        } else {
            let records: Vec<WalRecord> = (0..1 + rng.below(6)).map(|_| record(&mut rng)).collect();
            let (mut log, spans) = frames(&records);
            for _ in 0..1 + rng.below(3) {
                damage(&mut log, &spans, &mut rng);
            }
            log
        };
        let (scan, footprint) = counted(|| catch_unwind(AssertUnwindSafe(|| scan_wal_bytes(&log))));
        let Ok(scan) = scan else {
            panic!("seed {seed}: the scan panicked on {log:?}");
        };
        let limit = MAX_RECORD_BYTES as usize;
        prop_assert!(
            footprint.largest <= limit,
            "one allocation of {} bytes (limit {limit})", footprint.largest
        );
        prop_assert!(
            footprint.peak_live <= limit as i64,
            "{} bytes live at once (limit {limit})", footprint.peak_live
        );
        prop_assert!(scan.valid_bytes as usize <= log.len());
        let prefix = scan_wal_bytes(&log[..scan.valid_bytes as usize]);
        prop_assert_eq!(prefix.stop, WalStop::Eof);
        prop_assert_eq!(prefix.records, scan.records);
    }
}
