//! Stored multiset relations.
//!
//! A [`StoredTable`] is an in-memory multiset relation plus any secondary
//! indices built over it. Base relations, permanently materialized views,
//! and temporarily materialized intermediate results are all stored this
//! way — the paper's framework deliberately treats them uniformly (a
//! materialized result is just another relation the optimizer may scan or
//! probe).
//!
//! Storage is **batch-native**: the primary representation is the columnar
//! [`Batch`] the vectorized executor consumes, and deltas mutate the
//! columns *in place*, at a cost proportional to the delta. No engine path
//! round-trips through `Vec<Tuple>`: the warehouse serves queries by
//! converting the columnar image straight into the caller's answer, and
//! checks ingested deletes with the delete kernel's own locator
//! ([`StoredTable::present`]). [`StoredTable::rows`] is a reference/test
//! accessor — the row-at-a-time reference evaluator of the integration
//! tests, test oracles and benchmark fingerprints read it — and nothing in
//! the engine fills its lazy cell: reads and `verify` recompute through
//! the batch executor, which scans the columnar image.
//!
//! **Appends** extend the typed vectors and insert the new positions into
//! every index. A string that a dictionary column already knows is looked
//! up through the shared dictionary handle; only a genuinely new string
//! copies a dictionary that another column still shares.
//!
//! **Deletes** run one kernel ([`StoredTable::apply_batch_delta`] and
//! [`StoredTable::apply_delta`] both end in it). Victims are *located*
//! set at a time through the table's most selective index — every deleted
//! row probed first, the candidates then verified a column at a time, one
//! distinct stored position claimed per listed occurrence — or, for a
//! table with no index, by the [`Batch::minus_positions`] hash scan. They
//! are then *removed* by batched swap-remove: each victim slot is
//! overwritten by a surviving row from the tail and the columns are
//! truncated, the victim's posting is dropped from every index and the
//! moved row's posting repointed. With an index the whole delete is
//! O(|δ| × (width + #indices)).
//!
//! **Row order is unspecified.** Swap-remove moves rows; nothing in the
//! engine depends on stored order (every consumer is a bag operator, and
//! every suite compares as bags).
//!
//! **Journaled mutation.** Every write records its inverse in a
//! [`TableJournal`] at O(|δ| × width) — the `*_journaled` entry points
//! take the caller's journal, the others a throwaway one, so a
//! transactional epoch mutates live tables in place: an append records an
//! append mark (undone by truncating the columns, dictionary tails and
//! postings), a delete records the swap-remove's moves, the cut-off victim
//! rows and the slots of the removed postings, and a new index or a
//! column the dictionary rule rebuilt records the handle it displaced
//! (moved out, never shared, so recording forces no copy).
//! [`TableJournal::rollback`] replays them newest first and leaves the
//! table exactly as it was: columns, dictionaries, row count and every
//! key's postings.
//!
//! **String encoding.** A stored string column is dictionary-encoded
//! unless it is long and near-unique — the one rule is
//! [`dict_pays`](mvmqo_relalg::batch::dict_pays): at least
//! [`DICT_MIN_ROWS`](mvmqo_relalg::batch::DICT_MIN_ROWS) rows *and* more
//! than half as many dictionary entries as rows means plain `Str`. It is
//! applied wherever a stored image is built (`with_rows`, `from_batch`)
//! and re-checked after each append, so a column grown from
//! empty crosses over once it is both long and near-unique.

use crate::blocks::BlockConfig;
use crate::delta::DeltaBatch;
use crate::index::{Index, IndexKind};
use crate::journal::{TableJournal, TableUndo};
use mvmqo_relalg::batch::{Batch, Column, ColumnData};
use mvmqo_relalg::hash::{FxHashMap, FxHashSet};
use mvmqo_relalg::schema::{AttrId, Schema};
use mvmqo_relalg::tuple::Tuple;
use std::sync::{Arc, OnceLock};

/// An in-memory multiset relation with optional secondary indices.
///
/// Mutation is in place: a delta writes the table's own columns and
/// indices at a cost proportional to the delta, and a transactional epoch
/// makes it undoable by passing a [`TableJournal`] (module docs) instead
/// of staging a copy.
///
/// Cloning is a handle copy, not a data copy: columns, the dictionaries
/// behind string columns, the derived row cache and the indices are all
/// `Arc`-shared. A later write to either copy then copies what it touches,
/// once: each column it writes, each index, and a dictionary only when a
/// string new to it is appended. A table nobody else holds is never
/// copied.
#[derive(Debug, Clone)]
pub struct StoredTable {
    pub(crate) schema: Schema,
    /// Primary columnar image (always dense: no selection vector). String
    /// columns are dictionary-encoded unless long and near-unique (module
    /// docs), so scans, joins, and aggregations over repetitive strings
    /// run in `u32` code space; delta appends intern into the existing
    /// dictionaries. Columns are `Arc`-shared with scans, so handing the
    /// image to the executor is O(width); a write copies a column only
    /// while such a handle is still held.
    pub(crate) batch: Batch,
    /// Lazily derived row-major view for the tests' reference evaluator
    /// and oracles (no engine path fills it); invalidated (replaced with a
    /// fresh shared cell, so clones keep theirs) by every mutation.
    pub(crate) rows: Arc<OnceLock<Vec<Tuple>>>,
    pub(crate) indices: FxHashMap<AttrId, Arc<Index>>,
}

impl Default for StoredTable {
    fn default() -> Self {
        StoredTable::new(Schema::default())
    }
}

impl StoredTable {
    pub fn new(schema: Schema) -> Self {
        StoredTable {
            // Short columns are always dict-encoded, the empty image
            // included, so the first appended rows intern.
            batch: Batch::empty(schema.clone()).stored_encoding(),
            schema,
            rows: Arc::new(OnceLock::new()),
            indices: FxHashMap::default(),
        }
    }

    pub fn with_rows(schema: Schema, rows: Vec<Tuple>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        let batch = Batch::from_rows(schema.clone(), &rows).stored_encoding();
        let cache = OnceLock::new();
        let _ = cache.set(rows);
        StoredTable {
            batch,
            schema,
            rows: Arc::new(cache),
            indices: FxHashMap::default(),
        }
    }

    /// Adopt an already-columnar result (the executor's install path — no
    /// row materialization). Any selection is compacted away so the stored
    /// image is dense, and string columns take their stored encoding.
    pub fn from_batch(batch: Batch) -> Self {
        let batch = batch.compact().stored_encoding();
        StoredTable {
            schema: batch.schema().clone(),
            batch,
            rows: Arc::new(OnceLock::new()),
            indices: FxHashMap::default(),
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Row-major view, derived from the columnar image on first use and
    /// cached until the next mutation. A *reference/test* accessor: engine
    /// paths stay on [`StoredTable::batch`].
    pub fn rows(&self) -> &[Tuple] {
        self.rows.get_or_init(|| self.batch.to_rows())
    }

    pub fn len(&self) -> usize {
        self.batch.num_rows()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Apply a row-shaped delta batch: append the inserts, then remove one
    /// occurrence per delete (multiset semantics; a delete with no stored
    /// occurrence left is a no-op), keeping indices in sync — §5.2's δ⁺
    /// before δ⁻, the executor's step order, so a delete of a row the same
    /// batch inserts finds it. Each side is encoded once in this table's
    /// layout and goes through [`StoredTable::apply_batch_delta`].
    pub fn apply_delta(&mut self, delta: &DeltaBatch) {
        let inserts = Batch::from_rows(self.schema.clone(), &delta.inserts);
        let deletes = Batch::from_rows(self.schema.clone(), &delta.deletes);
        self.apply_batch_delta(Some(&inserts), Some(&deletes));
    }

    /// Columnar-side delta application: the maintained-result merge path.
    /// `inserts`/`deletes` stay columnar end-to-end (no tuple bridges);
    /// both must already be aligned to the table's schema layout. Inserts
    /// land before deletes, as in [`StoredTable::apply_delta`].
    pub fn apply_batch_delta(&mut self, inserts: Option<&Batch>, deletes: Option<&Batch>) {
        self.apply_batch_delta_journaled(inserts, deletes, &mut TableJournal::new());
    }

    /// [`StoredTable::apply_batch_delta`] under an undo journal: the one
    /// in-place kernel, recording the inverse of each step it takes in
    /// `journal` for [`TableJournal::rollback`] (O(|δ| × width)).
    pub fn apply_batch_delta_journaled(
        &mut self,
        inserts: Option<&Batch>,
        deletes: Option<&Batch>,
        journal: &mut TableJournal,
    ) {
        if let Some(inserts) = inserts.filter(|i| i.num_rows() > 0) {
            debug_assert_eq!(inserts.schema().ids(), self.schema.ids());
            let start = self.batch.num_rows();
            journal.push(TableUndo::Append(self.batch.append_mark()));
            self.batch.append(inserts);
            for idx in self.indices.values_mut() {
                let idx = Arc::make_mut(idx);
                let pos = key_position(&self.schema, idx);
                for i in 0..inserts.num_rows() {
                    let phys = inserts.physical(i) as usize;
                    idx.insert(&inserts.column(pos).value(phys), (start + i) as u32);
                }
            }
            for (pos, old) in self.batch.rebuild_sparse_dicts() {
                journal.push(TableUndo::Column(pos, old));
            }
            self.rows = Arc::new(OnceLock::new());
        }
        if let Some(deletes) = deletes.filter(|d| d.num_rows() > 0) {
            if self.delete_batch(deletes, journal) {
                self.rows = Arc::new(OnceLock::new());
            }
        }
    }

    /// The delete kernel: locate one stored position per deleted
    /// occurrence, then swap-remove them from every column and follow in
    /// every index. Returns whether anything was removed.
    fn delete_batch(&mut self, deletes: &Batch, journal: &mut TableJournal) -> bool {
        let mut victims = self.locate(deletes);
        if victims.is_empty() {
            return false;
        }
        // Victims' postings go first, keyed from the still-intact columns
        // (noting the slot each one held)…
        let mut unposted = Vec::with_capacity(self.indices.len());
        for idx in self.indices.values_mut() {
            let idx = Arc::make_mut(idx);
            let col = self.batch.column(key_position(&self.schema, idx));
            let slots = victims
                .iter()
                .filter_map(|&v| Some((v, idx.remove(&col.value(v as usize), v)?)))
                .collect();
            unposted.push((idx.attr, slots));
        }
        // …then the columns compact, and each moved row's posting follows
        // it (its key now reads at the destination).
        let (moves, cut) = self.batch.swap_remove_rows(&mut victims);
        for idx in self.indices.values_mut() {
            let idx = Arc::make_mut(idx);
            let col = self.batch.column(key_position(&self.schema, idx));
            for &(from, to) in &moves {
                idx.repoint(&col.value(to as usize), from, to);
            }
        }
        journal.push(TableUndo::Delete {
            moves,
            cut,
            unposted,
        });
        true
    }

    /// How many rows of `rows` (a multiset in this table's layout; a
    /// selection vector may repeat a position) find a distinct stored
    /// occurrence — exactly the number [`StoredTable::apply_batch_delta`]
    /// would remove for them, found by the same locator: a set-at-a-time
    /// index probe, or one hash scan of the table when it has no index.
    pub fn present(&self, rows: &Batch) -> usize {
        self.locate(rows).len()
    }

    /// The victim locator shared by the delete kernel and
    /// [`StoredTable::present`]: one distinct stored position per listed
    /// occurrence that has one.
    fn locate(&self, deletes: &Batch) -> Vec<u32> {
        debug_assert_eq!(deletes.schema().ids(), self.schema.ids());
        // The most selective index (most distinct keys; ties by attribute
        // id so the choice is deterministic) yields the fewest candidates
        // per probe.
        let probe = self
            .indices
            .values()
            .max_by_key(|idx| (idx.distinct_keys(), std::cmp::Reverse(idx.attr)));
        match probe {
            Some(idx) => self.locate_by_index(idx, deletes),
            None => self.locate_by_scan(deletes),
        }
    }

    /// Victim locator for indexed tables, set at a time: three passes over
    /// each chunk of the deletes. *Probe* `idx` with every deleted row's
    /// key, collecting (deleted row, candidate) pairs in delete order and,
    /// per row, posting order; *verify* the pairs one column at a time,
    /// each column one typed loop that narrows the survivors to candidates
    /// whose full row equals the deleted row; *claim*, in delete order,
    /// each deleted row's first survivor not yet claimed — so `k` listed
    /// occurrences claim at most `k` distinct positions, and a row with no
    /// stored occurrence left claims none. Victims come back in claim
    /// order. The stored cells a row-at-a-time probe would compare one
    /// dependent miss after another are independent loads here.
    fn locate_by_index(&self, idx: &Index, deletes: &Batch) -> Vec<u32> {
        /// Pairs held between the passes: a chunk's worth keeps them in
        /// cache across the column sweeps and bounds the memory a key with
        /// many postings can take.
        const CHUNK: usize = 4096;
        let key_pos = key_position(&self.schema, idx);
        let key_col = deletes.column(key_pos);
        let mut claimed =
            FxHashSet::with_capacity_and_hasher(deletes.num_rows(), Default::default());
        let mut victims = Vec::new();
        let mut pairs = Candidates::default();
        let mut next = 0;
        while next < deletes.num_rows() {
            pairs.clear();
            // A deleted row's pairs never straddle two chunks.
            while next < deletes.num_rows() && pairs.cand.len() < CHUNK {
                let phys = deletes.physical(next);
                for &cand in idx.lookup_eq(&key_col.value(phys as usize)) {
                    pairs.push(next as u32, phys, cand);
                }
                next += 1;
            }
            // The probe already matched the key column exactly.
            for c in (0..self.schema.len()).filter(|&c| c != key_pos) {
                pairs.retain_equal(self.batch.column(c), deletes.column(c));
            }
            let mut done = None;
            for (&row, &cand) in pairs.row.iter().zip(&pairs.cand) {
                if done != Some(row) && claimed.insert(cand) {
                    victims.push(cand);
                    done = Some(row);
                }
            }
        }
        victims
    }

    /// Victim locator for tables with no index: one hash scan of the
    /// stored rows against the delete multiset; the victims are the
    /// positions it does not keep.
    fn locate_by_scan(&self, deletes: &Batch) -> Vec<u32> {
        let keep = self.batch.minus_positions(deletes);
        let mut kept = keep.iter().copied().peekable();
        (0..self.batch.num_rows() as u32)
            .filter(|p| kept.next_if_eq(p).is_none())
            .collect()
    }

    /// The columnar image of the relation — the primary representation,
    /// served by shared reference (cloning the returned batch is O(width):
    /// columns are `Arc`-shared, never copied).
    pub fn batch(&self) -> &Batch {
        &self.batch
    }

    /// Row positions matching `key` through the index on `attr`, if one
    /// exists — the position-returning probe the executor's index scan
    /// selects through (never clones the table). Per-row probe loops
    /// (index nested-loop join) resolve the index once via
    /// [`StoredTable::index_on`] instead of paying this lookup per tuple.
    pub fn probe(&self, attr: AttrId, key: &mvmqo_relalg::types::Value) -> Option<&[u32]> {
        self.indices.get(&attr).map(|idx| idx.lookup_eq(key))
    }

    /// Create (or replace) an index on `attr`, built from the column image.
    ///
    /// Panics if `attr` is not part of the schema — that is a planner bug.
    pub fn create_index(&mut self, attr: AttrId, kind: IndexKind) {
        self.build_index(attr, kind);
    }

    /// [`StoredTable::create_index`] under an undo journal, which keeps
    /// the index it displaced (if any) to put back.
    pub fn create_index_journaled(
        &mut self,
        attr: AttrId,
        kind: IndexKind,
        journal: &mut TableJournal,
    ) {
        let old = self.build_index(attr, kind);
        journal.push(TableUndo::Index(attr, old));
    }

    fn build_index(&mut self, attr: AttrId, kind: IndexKind) -> Option<Arc<Index>> {
        let pos = self
            .schema
            .position_of(attr)
            .unwrap_or_else(|| panic!("cannot index {attr}: not in schema"));
        let idx = Index::build_from_column(attr, kind, self.batch.column(pos));
        self.indices.insert(attr, Arc::new(idx))
    }

    pub fn index_on(&self, attr: AttrId) -> Option<&Index> {
        self.indices.get(&attr).map(|idx| idx.as_ref())
    }

    pub fn indexed_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.indices.keys().copied()
    }

    /// Materialize the tuple at one position (index lookups return
    /// positions). A columnar point read — sampling a handful of rows does
    /// not force the full row-major view into existence.
    pub fn tuple_at(&self, pos: u32) -> Tuple {
        self.batch.tuple_at(pos as usize)
    }

    /// Estimated bytes per stored tuple (the schema's catalog-level width;
    /// the cost model works from widths, not actual payloads — §7.1).
    pub fn row_width(&self) -> usize {
        self.schema.row_width()
    }

    /// Estimated total bytes occupied by the relation.
    pub fn bytes(&self) -> usize {
        self.len() * self.row_width()
    }

    /// Blocks this relation occupies under `config` (§7.1 accounting: 4 KB
    /// blocks by default). This is the stored-side counterpart of the cost
    /// model's estimate, so the executor's simulated I/O meter and the
    /// optimizer charge the same quantity for a full scan.
    pub fn blocks(&self, config: &BlockConfig) -> usize {
        config.blocks_for_exact(self.len(), self.row_width())
    }

    /// Whether the whole relation fits in `config`'s buffer — the switch
    /// point at which hash operators over this table go out-of-core.
    /// Delegates to [`BlockConfig::fits_in_buffer`] so the stored-side
    /// check and the optimizer's estimate share one definition.
    pub fn fits_in_buffer(&self, config: &BlockConfig) -> bool {
        config.fits_in_buffer(self.len() as f64, self.row_width())
    }
}

/// The (deleted row, stored candidate) pairs [`StoredTable::locate_by_index`]
/// narrows, as parallel vectors: the deleted row's logical index and
/// physical position in the delete batch, and the candidate's stored
/// position.
#[derive(Default)]
struct Candidates {
    row: Vec<u32>,
    del: Vec<u32>,
    cand: Vec<u32>,
}

impl Candidates {
    fn clear(&mut self) {
        self.row.clear();
        self.del.clear();
        self.cand.clear();
    }

    fn push(&mut self, row: u32, del: u32, cand: u32) {
        self.row.push(row);
        self.del.push(del);
        self.cand.push(cand);
    }

    /// Keep, in order, the pairs whose cells are equal in one column —
    /// `stored` of the table, `deleted` of the delete batch — under
    /// [`Column::eq_at`]'s semantics (`Value` equality; NULL equals only
    /// NULL). One typed loop per representation pair; cross-typed cells
    /// take `eq_at` itself.
    fn retain_equal(&mut self, stored: &Column, deleted: &Column) {
        use ColumnData::*;
        let (sn, dn) = (stored.null_mask(), deleted.null_mask());
        match (stored.data(), deleted.data()) {
            (Int(a), Int(b)) => self.retain_cells(sn, dn, |s, d| a[s] == b[d]),
            (Date(a), Date(b)) => self.retain_cells(sn, dn, |s, d| a[s] == b[d]),
            (Bool(a), Bool(b)) => self.retain_cells(sn, dn, |s, d| a[s] == b[d]),
            (Float(a), Float(b)) => self.retain_cells(sn, dn, |s, d| a[s].total_cmp(&b[d]).is_eq()),
            // Interned entries are unique: one dictionary compares codes.
            (Dict { codes: a, dict: da }, Dict { codes: b, dict: db }) if Arc::ptr_eq(da, db) => {
                self.retain_cells(sn, dn, |s, d| a[s] == b[d])
            }
            (Dict { codes: a, dict: da }, Dict { codes: b, dict: db }) => {
                self.retain_cells(sn, dn, |s, d| {
                    da.hash(a[s]) == db.hash(b[d]) && da.value(a[s]) == db.value(b[d])
                })
            }
            (Dict { codes: a, dict: da }, Str(b)) => {
                self.retain_cells(sn, dn, |s, d| **da.value(a[s]) == *b[d])
            }
            (Str(a), Dict { codes: b, dict: db }) => {
                self.retain_cells(sn, dn, |s, d| *a[s] == **db.value(b[d]))
            }
            (Str(a), Str(b)) => self.retain_cells(sn, dn, |s, d| a[s] == b[d]),
            _ => self.retain(|s, d| stored.eq_at(s, deleted, d)),
        }
    }

    /// [`Candidates::retain`] on typed payloads: `eq` compares the
    /// payloads and the null masks decide wherever either cell is NULL.
    fn retain_cells(
        &mut self,
        stored_nulls: Option<&[bool]>,
        deleted_nulls: Option<&[bool]>,
        eq: impl Fn(usize, usize) -> bool,
    ) {
        if stored_nulls.is_none() && deleted_nulls.is_none() {
            return self.retain(eq);
        }
        self.retain(|s, d| {
            let sn = stored_nulls.is_some_and(|n| n[s]);
            let dn = deleted_nulls.is_some_and(|n| n[d]);
            if sn || dn {
                sn && dn
            } else {
                eq(s, d)
            }
        })
    }

    /// Keep, in order, the pairs for which `eq(stored, deleted)` holds.
    fn retain(&mut self, eq: impl Fn(usize, usize) -> bool) {
        let mut kept = 0;
        for k in 0..self.cand.len() {
            if eq(self.cand[k] as usize, self.del[k] as usize) {
                self.row[kept] = self.row[k];
                self.del[kept] = self.del[k];
                self.cand[kept] = self.cand[k];
                kept += 1;
            }
        }
        self.row.truncate(kept);
        self.del.truncate(kept);
        self.cand.truncate(kept);
    }
}

/// Column position of an index's key attribute in its table's schema.
// Invariant: an index is only ever built on an attribute of its table's
// schema (`build_index` checks), and a table's schema never changes.
#[allow(clippy::expect_used)]
fn key_position(schema: &Schema, idx: &Index) -> usize {
    schema.position_of(idx.attr).expect("index attr in schema")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::schema::Attribute;
    use mvmqo_relalg::tuple::{bag_counts, bag_eq};
    use mvmqo_relalg::types::{DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute {
                id: AttrId(0),
                name: "t.k".into(),
                data_type: DataType::Int,
            },
            Attribute {
                id: AttrId(1),
                name: "t.v".into(),
                data_type: DataType::Int,
            },
        ])
    }

    fn t(k: i64, v: i64) -> Tuple {
        vec![Value::Int(k), Value::Int(v)]
    }

    #[test]
    fn apply_delta_respects_multiset_semantics() {
        let mut tab = StoredTable::with_rows(schema(), vec![t(1, 1), t(1, 1), t(2, 2)]);
        tab.apply_delta(&DeltaBatch::new(vec![t(3, 3)], vec![t(1, 1)]));
        assert!(bag_eq(tab.rows(), &[t(1, 1), t(2, 2), t(3, 3)]));
        // (S + I) − D: a delete that only the batch's own insert makes
        // valid removes that insert; the excess occurrence is a no-op.
        tab.apply_delta(&DeltaBatch::new(vec![t(4, 4)], vec![t(4, 4), t(4, 4)]));
        assert!(bag_eq(tab.rows(), &[t(1, 1), t(2, 2), t(3, 3)]));
    }

    #[test]
    fn delete_of_absent_tuple_is_noop() {
        let mut tab = StoredTable::with_rows(schema(), vec![t(1, 1)]);
        tab.apply_delta(&DeltaBatch::new(vec![], vec![t(9, 9)]));
        assert_eq!(tab.len(), 1);
    }

    #[test]
    fn indices_follow_mutations() {
        let mut tab = StoredTable::with_rows(schema(), vec![t(1, 10), t(2, 20)]);
        tab.create_index(AttrId(0), IndexKind::Hash);
        assert_eq!(
            tab.index_on(AttrId(0))
                .unwrap()
                .lookup_eq(&Value::Int(2))
                .len(),
            1
        );
        tab.apply_delta(&DeltaBatch::new(vec![t(2, 21)], vec![]));
        let hits = tab.index_on(AttrId(0)).unwrap().lookup_eq(&Value::Int(2));
        assert_eq!(hits.len(), 2);
        // Positions must dereference to the right tuples.
        for &p in hits {
            assert_eq!(tab.tuple_at(p)[0], Value::Int(2));
        }
    }

    #[test]
    fn replace_rows_rebuilds_index() {
        // A full rebuild replaces a stored image with a fresh table built
        // from the new result and indexed on the old image's attributes:
        // the index must cover the new rows only.
        let mut old = StoredTable::with_rows(schema(), vec![t(1, 10)]);
        old.create_index(AttrId(0), IndexKind::Hash);
        let mut tab = StoredTable::from_batch(Batch::from_rows(schema(), &[t(5, 50), t(6, 60)]));
        for attr in old.indexed_attrs().collect::<Vec<_>>() {
            tab.create_index(attr, IndexKind::Hash);
        }
        let idx = tab.index_on(AttrId(0)).unwrap();
        assert_eq!(idx.lookup_eq(&Value::Int(5)).len(), 1);
        assert!(idx.lookup_eq(&Value::Int(1)).is_empty());
        assert_eq!(idx.entries(), tab.len());
    }

    #[test]
    #[should_panic(expected = "not in schema")]
    fn indexing_unknown_attr_panics() {
        let mut tab = StoredTable::new(schema());
        tab.create_index(AttrId(42), IndexKind::Hash);
    }

    #[test]
    fn insert_only_delta_appends_duplicates() {
        let mut tab = StoredTable::with_rows(schema(), vec![t(1, 1)]);
        tab.apply_delta(&DeltaBatch::new(vec![t(1, 1), t(1, 1)], vec![]));
        assert_eq!(tab.len(), 3);
        assert_eq!(bag_counts(tab.rows()).get(t(1, 1).as_slice()), Some(&3));
    }

    #[test]
    fn delete_removes_one_occurrence_per_listed_tuple() {
        let mut tab = StoredTable::with_rows(schema(), vec![t(1, 1), t(1, 1), t(1, 1)]);
        tab.apply_delta(&DeltaBatch::new(vec![], vec![t(1, 1)]));
        assert_eq!(tab.len(), 2);
    }

    #[test]
    fn index_stays_consistent_across_delta_and_replace() {
        let mut tab = StoredTable::with_rows(schema(), vec![t(1, 10), t(2, 20), t(2, 21)]);
        tab.create_index(AttrId(0), IndexKind::Hash);
        tab.apply_delta(&DeltaBatch::new(vec![t(3, 30)], vec![t(2, 20)]));
        // Every key's positions must dereference to tuples with that key,
        // and the entry count must equal the row count.
        let idx = tab.index_on(AttrId(0)).unwrap();
        assert_eq!(idx.entries(), tab.len());
        for k in [1i64, 2, 3] {
            for &p in idx.lookup_eq(&Value::Int(k)) {
                assert_eq!(tab.tuple_at(p)[0], Value::Int(k));
            }
        }
        assert_eq!(idx.lookup_eq(&Value::Int(2)).len(), 1);
    }

    #[test]
    fn batch_is_primary_and_follows_mutation() {
        let mut tab = StoredTable::with_rows(schema(), vec![t(1, 10), t(2, 20)]);
        assert_eq!(tab.batch().to_rows(), tab.rows());
        tab.apply_delta(&DeltaBatch::new(vec![t(3, 30)], vec![]));
        assert_eq!(tab.batch().num_rows(), 3);
        assert_eq!(tab.rows().len(), 3);
        tab.apply_delta(&DeltaBatch::new(vec![], vec![t(1, 10)]));
        assert_eq!(tab.batch().num_rows(), 2);
        assert!(bag_eq(tab.rows(), &[t(2, 20), t(3, 30)]));
    }

    #[test]
    fn from_batch_adopts_columnar_result() {
        let b = mvmqo_relalg::batch::Batch::from_rows(schema(), &[t(1, 10), t(2, 20)]);
        let mut tab = StoredTable::from_batch(b);
        assert_eq!(tab.len(), 2);
        assert_eq!(tab.schema().len(), 2);
        tab.create_index(AttrId(0), IndexKind::Hash);
        assert_eq!(tab.probe(AttrId(0), &Value::Int(2)).unwrap(), &[1]);
        assert!(tab.probe(AttrId(0), &Value::Int(5)).unwrap().is_empty());
        assert_eq!(tab.rows(), &[t(1, 10), t(2, 20)]);
    }

    #[test]
    fn apply_batch_delta_matches_row_delta() {
        let rows = vec![t(1, 1), t(1, 1), t(2, 2), t(3, 3)];
        let ins = vec![t(4, 4), t(4, 4), t(1, 1)];
        // (S + I) − D on both paths: one t(4, 4) exists only as an insert.
        let del = vec![t(1, 1), t(3, 3), t(4, 4), t(9, 9)];
        let mut row_side = StoredTable::with_rows(schema(), rows.clone());
        row_side.apply_delta(&DeltaBatch::new(ins.clone(), del.clone()));
        let mut batch_side = StoredTable::with_rows(schema(), rows);
        batch_side.create_index(AttrId(0), IndexKind::Hash);
        let ins_b = mvmqo_relalg::batch::Batch::from_rows(schema(), &ins);
        let del_b = mvmqo_relalg::batch::Batch::from_rows(schema(), &del);
        batch_side.apply_batch_delta(Some(&ins_b), Some(&del_b));
        let expected = [t(1, 1), t(1, 1), t(2, 2), t(4, 4)];
        assert!(bag_eq(row_side.rows(), &expected));
        assert!(bag_eq(batch_side.rows(), &expected));
        // Index stayed consistent through swap-remove + append.
        let idx = batch_side.index_on(AttrId(0)).unwrap();
        assert_eq!(idx.entries(), batch_side.len());
        for k in [1i64, 2, 3, 4] {
            for &p in idx.lookup_eq(&Value::Int(k)) {
                assert_eq!(batch_side.tuple_at(p)[0], Value::Int(k));
            }
        }
    }

    #[test]
    fn probe_returns_positions_without_cloning() {
        let mut tab = StoredTable::with_rows(schema(), vec![t(1, 10), t(2, 20), t(2, 21)]);
        assert!(
            tab.probe(AttrId(0), &Value::Int(2)).is_none(),
            "no index yet"
        );
        tab.create_index(AttrId(0), IndexKind::Hash);
        let hits = tab.probe(AttrId(0), &Value::Int(2)).unwrap();
        assert_eq!(hits, &[1, 2]);
        assert!(tab.probe(AttrId(0), &Value::Int(7)).unwrap().is_empty());
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut tab = StoredTable::with_rows(schema(), vec![t(1, 1), t(2, 2)]);
        tab.create_index(AttrId(0), IndexKind::Hash);
        let snapshot = tab.clone();
        tab.apply_delta(&DeltaBatch::new(vec![t(3, 3)], vec![t(1, 1)]));
        // Mutating the original must not leak into the clone…
        assert!(bag_eq(snapshot.rows(), &[t(1, 1), t(2, 2)]));
        let idx = snapshot.index_on(AttrId(0)).unwrap();
        assert_eq!(idx.entries(), 2);
        assert_eq!(idx.lookup_eq(&Value::Int(1)).len(), 1);
        // …while the original sees its own mutation.
        assert!(bag_eq(tab.rows(), &[t(2, 2), t(3, 3)]));
        assert_eq!(tab.index_on(AttrId(0)).unwrap().entries(), 2);
        assert!(tab
            .index_on(AttrId(0))
            .unwrap()
            .lookup_eq(&Value::Int(1))
            .is_empty());
    }

    fn str_schema() -> Schema {
        Schema::new(vec![
            Attribute {
                id: AttrId(0),
                name: "t.k".into(),
                data_type: DataType::Int,
            },
            Attribute {
                id: AttrId(1),
                name: "t.s".into(),
                data_type: DataType::Str,
            },
        ])
    }

    fn ts(k: i64, s: &str) -> Tuple {
        vec![Value::Int(k), Value::str(s)]
    }

    fn dict_of(tab: &StoredTable) -> &Arc<mvmqo_relalg::batch::Dictionary> {
        tab.batch().column(1).dict().expect("dict-encoded").1
    }

    #[test]
    fn clone_is_copy_on_write_for_string_columns() {
        let original = {
            let mut tab = StoredTable::with_rows(str_schema(), vec![ts(1, "a"), ts(2, "b")]);
            tab.create_index(AttrId(1), IndexKind::Hash);
            tab
        };
        let shared = Arc::clone(dict_of(&original));

        // An already-interned string appended through a clone finds its
        // code in the shared dictionary: no dictionary copy.
        let mut staged = original.clone();
        staged.apply_delta(&DeltaBatch::new(vec![ts(3, "a")], vec![]));
        assert!(Arc::ptr_eq(dict_of(&staged), &shared));
        assert!(Arc::ptr_eq(dict_of(&original), &shared));
        assert_eq!(staged.probe(AttrId(1), &Value::str("a")).unwrap().len(), 2);
        assert_eq!(
            original.probe(AttrId(1), &Value::str("a")).unwrap().len(),
            1
        );

        // A new string copies the dictionary on write: the original's
        // dictionary and index never see it.
        let mut staged = original.clone();
        staged.apply_batch_delta(Some(&Batch::from_rows(str_schema(), &[ts(4, "z")])), None);
        assert!(!Arc::ptr_eq(dict_of(&staged), &shared));
        assert_eq!(dict_of(&staged).code_of("z"), Some(2));
        assert!(Arc::ptr_eq(dict_of(&original), &shared));
        assert_eq!(shared.code_of("z"), None);
        assert_eq!(shared.len(), 2);
        assert!(original
            .probe(AttrId(1), &Value::str("z"))
            .unwrap()
            .is_empty());
        assert_eq!(staged.probe(AttrId(1), &Value::str("z")).unwrap(), &[2]);
        assert!(bag_eq(original.rows(), &[ts(1, "a"), ts(2, "b")]));

        // Deleting through a clone leaves the original's rows and postings.
        let mut staged = original.clone();
        staged.apply_delta(&DeltaBatch::new(vec![], vec![ts(1, "a")]));
        assert!(bag_eq(staged.rows(), &[ts(2, "b")]));
        assert_eq!(staged.probe(AttrId(1), &Value::str("b")).unwrap(), &[0]);
        assert_eq!(original.probe(AttrId(1), &Value::str("a")).unwrap(), &[0]);
        assert_eq!(original.probe(AttrId(1), &Value::str("b")).unwrap(), &[1]);
    }

    /// Rows whose string column holds `distinct` different values.
    fn str_rows(n: usize, distinct: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| ts(i as i64, &format!("s{}", i % distinct)))
            .collect()
    }

    fn is_dict(tab: &StoredTable) -> bool {
        tab.batch().column(1).dict().is_some()
    }

    #[test]
    fn string_encoding_rule_on_both_sides_of_its_threshold() {
        use mvmqo_relalg::batch::{dict_pays, DICT_MIN_ROWS};
        assert_eq!(DICT_MIN_ROWS, 256);
        assert!(dict_pays(255, 255), "short columns always encode");
        assert!(dict_pays(256, 128), "exactly half distinct still encodes");
        assert!(!dict_pays(256, 129));

        // Every way a stored image is built applies the rule.
        assert!(is_dict(&StoredTable::with_rows(
            str_schema(),
            str_rows(255, 255)
        )));
        assert!(is_dict(&StoredTable::with_rows(
            str_schema(),
            str_rows(256, 128)
        )));
        assert!(!is_dict(&StoredTable::with_rows(
            str_schema(),
            str_rows(256, 129)
        )));
        let unique = Batch::from_rows(str_schema(), &str_rows(300, 300));
        assert!(!is_dict(&StoredTable::from_batch(unique.clone())));
        assert!(!is_dict(&StoredTable::from_batch(unique.dict_encoded())));
        let from_rows = |distinct| {
            StoredTable::from_batch(Batch::from_rows(str_schema(), &str_rows(300, distinct)))
        };
        assert!(is_dict(&from_rows(10)));
        assert!(!is_dict(&from_rows(151)));

        // A column sharing an oversized dictionary (a join output gathered
        // from a longer base column) gets a compact one of its own.
        let wide = Batch::from_rows(str_schema(), &str_rows(2000, 1000)).dict_encoded();
        let narrow = StoredTable::from_batch(wide.gather_physical(&(0..300).collect::<Vec<_>>()));
        assert!(!is_dict(&narrow), "300 distinct in 300 rows");
        let mut picks: Vec<u32> = (0..100).collect();
        picks.extend(0..100);
        picks.extend(0..100);
        let narrow = StoredTable::from_batch(wide.gather_physical(&picks));
        assert_eq!(dict_of(&narrow).len(), 100);

        // A table grown from empty by appends stays dict-encoded while
        // short, and crosses to plain strings with the append that makes
        // it both long and near-unique — contents and index unaffected.
        let mut grown = StoredTable::new(str_schema());
        grown.create_index(AttrId(1), IndexKind::Hash);
        let rows = str_rows(300, 300);
        grown.apply_delta(&DeltaBatch::new(rows[..255].to_vec(), vec![]));
        assert!(is_dict(&grown));
        grown.apply_delta(&DeltaBatch::new(rows[255..256].to_vec(), vec![]));
        assert!(!is_dict(&grown));
        grown.apply_delta(&DeltaBatch::new(rows[256..].to_vec(), vec![]));
        assert!(!is_dict(&grown));
        assert!(bag_eq(grown.rows(), &rows));
        assert_eq!(grown.probe(AttrId(1), &Value::str("s299")).unwrap(), &[299]);
        // Repetitive appends keep a grown column encoded.
        let mut grown = StoredTable::new(str_schema());
        for chunk in str_rows(600, 20).chunks(100) {
            grown.apply_delta(&DeltaBatch::new(chunk.to_vec(), vec![]));
        }
        assert!(is_dict(&grown));
        assert_eq!(dict_of(&grown).len(), 20);
    }

    /// The row-at-a-time victim locator the set-at-a-time one replaced,
    /// kept as its reference: per deleted row, in delete order, the first
    /// candidate under the probe index not yet claimed whose full row
    /// equals it. With no index, the first stored occurrences of each
    /// deleted row, in stored order (the scan locator's bag difference).
    fn row_loop_locate(tab: &StoredTable, deletes: &Batch) -> Vec<u32> {
        let probe = tab
            .indices
            .values()
            .max_by_key(|idx| (idx.distinct_keys(), std::cmp::Reverse(idx.attr)));
        let Some(idx) = probe else {
            let mut owed = deletes.to_rows();
            return (0..tab.len() as u32)
                .filter(|&p| {
                    let row = tab.tuple_at(p);
                    let hit = owed.iter().position(|d| *d == row);
                    hit.map(|k| owed.swap_remove(k)).is_some()
                })
                .collect();
        };
        let key_pos = key_position(&tab.schema, idx);
        let cols: Vec<usize> = (0..tab.schema.len()).collect();
        let mut claimed: Vec<u32> = Vec::new();
        for i in 0..deletes.num_rows() {
            let phys = deletes.physical(i);
            let key = deletes.column(key_pos).value(phys as usize);
            let hit = idx.lookup_eq(&key).iter().copied().find(|&cand| {
                !claimed.contains(&cand) && tab.batch.keys_eq(cand, &cols, deletes, phys, &cols)
            });
            claimed.extend(hit);
        }
        claimed
    }

    fn wide_schema() -> Schema {
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

    /// A row with NULLs in every column but `u`: keys `k` (13 values) and
    /// `g` (3) carry many postings each, `u` and `v` tell rows apart.
    fn wide_row(pick: u64) -> Tuple {
        let null_or = |null: bool, v: Value| if null { Value::Null } else { v };
        vec![
            null_or(pick % 7 == 6, Value::Int((pick % 13) as i64)),
            null_or(pick % 11 == 10, Value::str(format!("g{}", pick % 3))),
            Value::str(format!("u{pick}")),
            null_or(pick % 5 == 4, Value::Int(pick as i64)),
        ]
    }

    /// The set-at-a-time locator picks exactly the row loop's victims, in
    /// its claim order: under 0, 1 and 2 indices (probing a key with many
    /// postings, with NULL keys, or a near-unique one), for repeated and
    /// absent deletes, and for delete batches holding plain strings, their
    /// own dictionaries, the table's dictionaries, or a selection vector.
    /// Each step then applies the delete, so later probes walk postings
    /// that swap-removes have reordered.
    #[test]
    fn set_at_a_time_locator_matches_the_row_loop() {
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut below = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n.max(1)
        };
        let index_sets: [&[u32]; 5] = [&[], &[0], &[1], &[0, 1], &[0, 2]];
        let (mut plain_u, mut dict_u, mut skipped) = (false, false, false);
        for case in 0..60u64 {
            // Half the rows from a small pool (whole-row duplicates), half
            // unique, so `u` is plain once the table is long.
            let n = below(400);
            let rows: Vec<Tuple> = (0..n)
                .map(|i| wide_row(if below(2) == 0 { below(40) } else { 1000 + i }))
                .collect();
            for attrs in index_sets {
                let mut tab = StoredTable::with_rows(wide_schema(), rows.clone());
                for &a in attrs {
                    tab.create_index(AttrId(a), IndexKind::Hash);
                }
                for step in 0..4 {
                    match tab.batch().column(2).data() {
                        ColumnData::Str(_) => plain_u = true,
                        _ => dict_u = true,
                    }
                    // Stored rows, some listed several times, and rows never
                    // stored.
                    let mut picks: Vec<u32> = (0..below(60))
                        .filter(|_| !tab.is_empty())
                        .map(|_| below(tab.len() as u64) as u32)
                        .collect();
                    picks.extend(picks.clone().iter().take(below(8) as usize));
                    let mut dels: Vec<Tuple> = picks.iter().map(|&p| tab.tuple_at(p)).collect();
                    dels.extend((0..below(6)).map(|_| wide_row(100_000 + below(50))));
                    let del = match (case + step) % 4 {
                        0 => Batch::from_rows(wide_schema(), &dels),
                        1 => Batch::from_rows(wide_schema(), &dels).dict_encoded(),
                        // Gathered from the image: the table's own dictionaries.
                        2 => tab.batch().gather_physical(&picks),
                        _ => {
                            let mut b = Batch::from_rows(wide_schema(), &dels);
                            let sel: Vec<u32> = (0..b.num_rows() as u32)
                                .flat_map(|p| std::iter::repeat_n(p, (p % 3) as usize))
                                .collect();
                            skipped |= sel.len() < b.num_rows() * 2;
                            b.set_selection(sel);
                            b
                        }
                    };
                    let context = format!("case {case}, indices {attrs:?}, step {step}");
                    let want = row_loop_locate(&tab, &del);
                    assert_eq!(tab.locate(&del), want, "{context}");
                    assert_eq!(tab.present(&del), want.len(), "{context}");
                    let ins: Vec<Tuple> = (0..below(30)).map(|_| wide_row(below(40))).collect();
                    tab.apply_batch_delta(Some(&Batch::from_rows(wide_schema(), &ins)), Some(&del));
                }
            }
        }
        assert!(
            plain_u && dict_u && skipped,
            "both encodings of `u` and a selection"
        );
    }

    #[test]
    fn block_accounting_matches_block_config() {
        // Two Int columns → 16-byte rows → 256 tuples per 4 KB block.
        let cfg = BlockConfig::default();
        let tab = StoredTable::new(schema());
        assert_eq!(tab.row_width(), 16);
        assert_eq!(tab.blocks(&cfg), 0);
        assert_eq!(tab.bytes(), 0);

        let rows: Vec<Tuple> = (0..257).map(|i| t(i, i)).collect();
        let tab = StoredTable::with_rows(schema(), rows);
        assert_eq!(tab.bytes(), 257 * 16);
        assert_eq!(tab.blocks(&cfg), 2); // 256 fill one block, 1 spills
        assert_eq!(
            tab.blocks(&cfg),
            cfg.blocks_for_exact(tab.len(), tab.row_width())
        );
    }

    #[test]
    fn block_accounting_tracks_deltas() {
        let cfg = BlockConfig {
            block_bytes: 64, // 4 tuples per 16-byte-row block
            buffer_blocks: 2,
        };
        let mut tab = StoredTable::with_rows(schema(), (0..8).map(|i| t(i, i)).collect());
        assert_eq!(tab.blocks(&cfg), 2);
        assert!(tab.fits_in_buffer(&cfg));
        tab.apply_delta(&DeltaBatch::new(vec![t(8, 8)], vec![]));
        assert_eq!(tab.blocks(&cfg), 3);
        assert!(!tab.fits_in_buffer(&cfg));
        tab.apply_delta(&DeltaBatch::new(vec![], vec![t(8, 8)]));
        assert_eq!(tab.blocks(&cfg), 2);
    }
}
