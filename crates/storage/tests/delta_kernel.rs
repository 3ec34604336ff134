//! Property test for the stored-table delta kernel.
//!
//! Random tables — duplicates, NULLs, a low-cardinality and a
//! high-cardinality string column, so both string encodings occur and a
//! column can cross from one to the other — under 0, 1 and 2 hash
//! indices, driven through random interleaved `apply_delta` /
//! `apply_batch_delta` sequences. After every step each table must be
//! bag-equal to the row model `(S + I) − D` (concat, then `bag_minus`:
//! inserts land before deletes), every index must
//! hold exactly one posting per row under that row's key, and the two
//! victim locators (index probe / hash scan) must agree — including when
//! only counting through `present`, the ingest-side delete check.
//!
//! `DELTA_CASES` sets the case count (default 48).

use mvmqo_relalg::batch::Batch;
use mvmqo_relalg::schema::{AttrId, Attribute, Schema};
use mvmqo_relalg::tuple::{bag_eq, bag_minus, Tuple};
use mvmqo_relalg::types::{DataType, Value};
use mvmqo_storage::delta::DeltaBatch;
use mvmqo_storage::index::IndexKind;
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

/// The row behind one pick: drawing the same pick twice makes a duplicate
/// row. `k` repeats (13 values, NULL one time in seven), `g` is a
/// low-cardinality string (NULL one time in eleven), `u` is distinct per
/// pick — so a few hundred rows from the 600-pick domain are near-unique.
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

const PICKS: u32 = 600;

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
            .map(|_| row_of(self.below(PICKS as usize) as u32))
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

/// One step's delta, expanded from a seed against the current contents.
fn delta_for(seed: u64, model: &[Tuple], last_row: Option<Tuple>) -> DeltaBatch {
    let mut rng = Xorshift(seed | 1);
    match rng.below(6) {
        // Stored rows (possibly the same one several times), rows that were
        // never stored, and fresh inserts.
        0 | 1 => {
            let mut deletes = rng.sample(model, 40);
            deletes.extend(rng.rows(5));
            DeltaBatch::new(rng.rows(40), deletes)
        }
        // Delete everything, sometimes refilling in the same step.
        2 => DeltaBatch::new(
            rng.rows(if seed & 2 == 0 { 0 } else { 300 }),
            model.to_vec(),
        ),
        // More deletes than occurrences: each sampled row listed twice more
        // than however often the sample drew it.
        3 => {
            let sample = rng.sample(model, 10);
            let deletes = [sample.clone(), sample.clone(), sample].concat();
            DeltaBatch::new(vec![], deletes)
        }
        // The victim is the last stored row (nothing moves into its slot).
        4 => DeltaBatch::new(rng.rows(3), last_row.into_iter().collect()),
        // Reinsert and delete the same rows: a no-op on the bag.
        _ => {
            let sample = rng.sample(model, 30);
            DeltaBatch::new(sample.clone(), sample)
        }
    }
}

/// `idx.entries() == len`, and every row's position is posted under the
/// row's own key — together: the postings are exactly the rows.
fn assert_indices_exact(table: &StoredTable, context: &str) {
    for attr in table.indexed_attrs() {
        let idx = table.index_on(attr).unwrap();
        let pos = table.schema().position_of(attr).unwrap();
        assert_eq!(idx.entries(), table.len(), "{context}: entries of {attr}");
        for p in 0..table.len() as u32 {
            let key = &table.tuple_at(p)[pos];
            assert!(
                idx.lookup_eq(key).contains(&p),
                "{context}: row {p} not posted under {key:?} in index {attr}"
            );
        }
        for &p in idx.lookup_eq(&Value::Null) {
            assert!(table.tuple_at(p)[pos].is_null(), "{context}: NULL posting");
        }
    }
}

fn cases() -> u32 {
    std::env::var("DELTA_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn deltas_match_the_row_model_under_every_index_set(
        initial in proptest::collection::vec(0u32..PICKS, 0..400),
        seeds in proptest::collection::vec(1u64..u64::MAX, 1..10),
    ) {
        let mut model: Vec<Tuple> = initial.iter().map(|&p| row_of(p)).collect();
        // Unindexed (scan locator), one index, two indices (the string one
        // is the more selective, so it becomes the probe).
        let mut tables = vec![StoredTable::with_rows(schema(), model.clone()); 3];
        tables[1].create_index(K, IndexKind::Hash);
        tables[2].create_index(K, IndexKind::Hash);
        tables[2].create_index(U, IndexKind::Hash);

        for (step, &seed) in seeds.iter().enumerate() {
            let last_row = (!tables[2].is_empty())
                .then(|| tables[2].tuple_at(tables[2].len() as u32 - 1));
            let delta = delta_for(seed, &model, last_row);
            // `present` counts what the delete would remove — also through
            // a selection that lists every deleted row twice.
            let del = Batch::from_rows(schema(), &delta.deletes);
            let mut twice = del.clone();
            twice.set_selection((0..del.num_rows() as u32).flat_map(|p| [p, p]).collect());
            let present = model.len() - bag_minus(&model, &delta.deletes).len();
            let doubled = [delta.deletes.clone(), delta.deletes.clone()].concat();
            let present_twice = model.len() - bag_minus(&model, &doubled).len();
            model.extend(delta.inserts.iter().cloned());
            model = bag_minus(&model, &delta.deletes);

            for (t, table) in tables.iter_mut().enumerate() {
                let context = format!("step {step} (seed {seed}) table {t}");
                prop_assert_eq!(table.present(&del), present, "{}: present", context);
                prop_assert_eq!(table.present(&twice), present_twice, "{}: present ×2", context);
                // Alternate the row and the columnar entry point.
                if (seed >> 8) & 1 == 0 {
                    table.apply_delta(&delta);
                } else {
                    let ins = Batch::from_rows(schema(), &delta.inserts);
                    table.apply_batch_delta(Some(&ins), Some(&del));
                }
                prop_assert_eq!(table.len(), model.len(), "{}", context);
                prop_assert!(bag_eq(table.rows(), &model), "{}: contents", context);
                prop_assert_eq!(table.batch().num_rows(), model.len());
                assert_indices_exact(table, &context);
            }
        }
    }
}
