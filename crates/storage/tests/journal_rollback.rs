//! Property test for journaled table writes and their rollback.
//!
//! Random tables — duplicate rows, NULLs, a low-cardinality string column
//! whose inserts bring both known and new strings, a near-unique string
//! column that can cross from dictionary to plain encoding mid-sequence —
//! under no index (the scan locator), one non-unique index, and two
//! indices, take a random sequence of journaled insert/delete batches
//! (deletes of absent rows included). Then:
//!
//! * without rollback, each table is bag-equal to the same sequence
//!   applied unjournaled, with exact indices;
//! * after rollback, each table is identical to never applying: column
//!   representations and cells, null masks, dictionary entries and
//!   lookups, row count, and the positions under every index key, in
//!   order.
//!
//! `JOURNAL_CASES` sets the case count (default 32).

use mvmqo_relalg::batch::{Batch, ColumnData};
use mvmqo_relalg::schema::{AttrId, Attribute, Schema};
use mvmqo_relalg::tuple::{bag_eq, Tuple};
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::index::IndexKind;
use mvmqo_storage::journal::TableJournal;
use mvmqo_storage::table::StoredTable;
use proptest::prelude::*;

const K: AttrId = AttrId(0);
const U: AttrId = AttrId(2);

fn schema() -> Schema {
    let attr = |id: u32, name: &str, data_type| Attribute {
        id: AttrId(id),
        name: name.into(),
        data_type,
    };
    Schema::new(vec![
        attr(0, "t.k", DataType::Int),
        attr(1, "t.g", DataType::Str),
        attr(2, "t.u", DataType::Str),
        attr(3, "t.v", DataType::Int),
    ])
}

/// Picks below this build the initial tables; inserts draw from twice the
/// range, so they bring strings the dictionaries have not seen.
const INITIAL_PICKS: u32 = 300;

/// The row behind one pick (drawing a pick twice makes a duplicate). `k`
/// repeats and is NULL one time in seven; `g` has three values among the
/// initial picks and seven among later ones, NULL one time in eleven; `u`
/// is distinct per pick.
fn row_of(pick: u32) -> Tuple {
    let groups = if pick < INITIAL_PICKS { 3 } else { 7 };
    vec![
        if pick % 7 == 6 {
            Value::Null
        } else {
            Value::Int((pick % 13) as i64)
        },
        if pick % 11 == 10 {
            Value::Null
        } else {
            Value::str(format!("g{}", pick % groups))
        },
        Value::str(format!("u{pick}")),
        Value::Int((pick % 2) as i64),
    ]
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

    fn rows(&mut self, max: usize) -> Vec<Tuple> {
        (0..self.below(max + 1))
            .map(|_| row_of(self.below(2 * INITIAL_PICKS as usize) as u32))
            .collect()
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

/// One step's (inserts, deletes): stored rows, possibly listed more often
/// than stored, rows never stored, and fresh inserts.
fn delta_for(seed: u64, stored: &[Tuple]) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut rng = Xorshift(seed | 1);
    match rng.below(4) {
        0 => (rng.rows(60), Vec::new()),
        1 => {
            let sample = rng.sample(stored, 10);
            (Vec::new(), [sample.clone(), sample].concat())
        }
        2 => (Vec::new(), stored.to_vec()),
        _ => {
            let mut deletes = rng.sample(stored, 40);
            deletes.extend(rng.rows(5));
            (rng.rows(40), deletes)
        }
    }
}

/// Representation-level equality of two stored tables: the same columns
/// in the same encoding with the same cells and masks, the same
/// dictionaries (entries and lookups), and the same positions, in the same
/// order, under every key of every index.
fn assert_identical(got: &StoredTable, want: &StoredTable, probes: &[Tuple], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: row count");
    let (g, w) = (got.batch(), want.batch());
    assert_eq!(g.num_rows(), w.num_rows(), "{context}: batch rows");
    for c in 0..w.schema().len() {
        let (gc, wc) = (g.column(c), w.column(c));
        assert_eq!(gc.null_mask(), wc.null_mask(), "{context}: nulls of {c}");
        match (gc.data(), wc.data()) {
            (ColumnData::Int(a), ColumnData::Int(b)) => assert_eq!(a, b, "{context}: col {c}"),
            (ColumnData::Str(a), ColumnData::Str(b)) => assert_eq!(a, b, "{context}: col {c}"),
            (ColumnData::Dict { codes: a, dict: da }, ColumnData::Dict { codes: b, dict: db }) => {
                assert_eq!(a, b, "{context}: codes of {c}");
                assert_eq!(da.values(), db.values(), "{context}: dictionary of {c}");
                for s in probes.iter().filter_map(|r| match &r[c] {
                    Value::Str(s) => Some(s),
                    _ => None,
                }) {
                    assert_eq!(da.code_of(s), db.code_of(s), "{context}: lookup {s}");
                }
            }
            (a, b) => panic!("{context}: column {c} is {a:?}, want {b:?}"),
        }
    }
    let mut attrs: Vec<AttrId> = want.indexed_attrs().collect();
    attrs.sort();
    let mut got_attrs: Vec<AttrId> = got.indexed_attrs().collect();
    got_attrs.sort();
    assert_eq!(got_attrs, attrs, "{context}: indexed attributes");
    for attr in attrs {
        let (gi, wi) = (got.index_on(attr).unwrap(), want.index_on(attr).unwrap());
        let pos = want.schema().position_of(attr).unwrap();
        assert_eq!(gi.kind, wi.kind);
        assert_eq!(gi.distinct_keys(), wi.distinct_keys(), "{context}: keys");
        assert_eq!(gi.entries(), wi.entries(), "{context}: entries");
        for row in probes {
            let key = &row[pos];
            assert_eq!(
                gi.lookup_eq(key),
                wi.lookup_eq(key),
                "{context}: postings of {key:?} in {attr}"
            );
        }
    }
}

/// Every row's position is posted under its own key, and nothing else.
fn assert_indices_exact(table: &StoredTable, context: &str) {
    for attr in table.indexed_attrs() {
        let idx = table.index_on(attr).unwrap();
        let pos = table.schema().position_of(attr).unwrap();
        assert_eq!(idx.entries(), table.len(), "{context}: entries of {attr}");
        for p in 0..table.len() as u32 {
            let key = &table.tuple_at(p)[pos];
            assert!(idx.lookup_eq(key).contains(&p), "{context}: row {p}");
        }
    }
}

fn cases() -> u32 {
    std::env::var("JOURNAL_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn rollback_restores_exactly_and_commit_matches_unjournaled(
        initial in proptest::collection::vec(0u32..INITIAL_PICKS, 0..300),
        seeds in proptest::collection::vec(1u64..u64::MAX, 1..8),
    ) {
        let rows: Vec<Tuple> = initial.iter().map(|&p| row_of(p)).collect();
        let mut tables = vec![StoredTable::with_rows(schema(), rows.clone()); 3];
        tables[1].create_index(K, IndexKind::Hash);
        tables[2].create_index(K, IndexKind::Hash);
        tables[2].create_index(U, IndexKind::Hash);

        for (t, before) in tables.iter().enumerate() {
            let mut live = before.clone();
            let mut plain = before.clone();
            let mut journal = TableJournal::new();
            let mut probes = rows.clone();
            let mut stored = rows.clone();
            for &seed in &seeds {
                let (ins, del) = delta_for(seed, &stored);
                let (ins_b, del_b) = (
                    Batch::from_rows(schema(), &ins),
                    Batch::from_rows(schema(), &del),
                );
                live.apply_batch_delta_journaled(Some(&ins_b), Some(&del_b), &mut journal);
                plain.apply_batch_delta(Some(&ins_b), Some(&del_b));
                stored = live.rows().to_vec();
                probes.extend(ins);
                probes.extend(del);
            }
            let context = format!("table {t} ({} steps)", seeds.len());
            prop_assert!(bag_eq(live.rows(), plain.rows()), "{}: commit", context);
            assert_indices_exact(&live, &context);

            journal.rollback(&mut live);
            assert_identical(&live, before, &probes, &context);
            prop_assert!(bag_eq(live.rows(), &rows), "{}: rolled back", context);
        }
    }
}
