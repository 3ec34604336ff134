//! Secondary indices over stored relations.
//!
//! The paper treats the presence of an index as a physical property chosen
//! by the optimizer alongside materialized views (§4.3, §7: "the new code
//! implements index selection along with selection of results to
//! materialize"). This module provides the runtime structure: a hash index
//! for equality lookups, mapping a single key attribute to row positions in
//! the owning table. Equality is the only lookup the executor performs, and
//! the only one the optimizer prices.
//!
//! **Posting layout.** A key's positions are a `Postings` value: the
//! single-position case is stored inline (`One(u32)`), and only keys with
//! two or more rows own a heap `Vec`. A unique-key index (every primary
//! key) is therefore one flat map, and a clone or drop of it allocates or
//! frees nothing per key. Keys hash with the engine's unseeded
//! [`FxHasher`](mvmqo_relalg::hash::FxHasher): every delete probes the
//! map once per deleted row.
//!
//! **Maintenance.** Indices follow the owning table's deltas posting by
//! posting, in place: an append inserts the new positions, a delete drops
//! each victim's posting and repoints the posting of every row the table's
//! swap-remove moved (`Index::remove` / `Index::repoint`) — O(|δ|),
//! never a pass over the entries. The order of positions under one key is
//! unspecified, but each step is exactly reversible, which is how a
//! journaled epoch rolls an index back: an append's postings are removed
//! again newest first (each is the last under its key), a repoint is
//! repointed back, and a removed posting is re-inserted at the slot
//! `Index::remove` reported (`Index::unremove`).

use mvmqo_relalg::batch::Column;
use mvmqo_relalg::hash::FxHashMap;
use mvmqo_relalg::schema::AttrId;
use mvmqo_relalg::types::Value;
use std::fmt;

/// The physical flavour of an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Equality-only hash index.
    Hash,
}

impl fmt::Display for IndexKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexKind::Hash => f.write_str("hash"),
        }
    }
}

/// The row positions under one key: inline while there is exactly one,
/// a heap vector (of at least two) otherwise.
#[derive(Debug, Clone)]
enum Postings {
    One(u32),
    Many(Vec<u32>),
}

impl Postings {
    fn as_slice(&self) -> &[u32] {
        match self {
            Postings::One(p) => std::slice::from_ref(p),
            Postings::Many(ps) => ps,
        }
    }

    fn push(&mut self, pos: u32) {
        match self {
            Postings::One(p) => *self = Postings::Many(vec![*p, pos]),
            Postings::Many(ps) => ps.push(pos),
        }
    }

    /// Drop `pos`, if present: returns the slot it held (`swap_remove`
    /// order) and whether nothing is left under the key.
    fn remove(&mut self, pos: u32) -> Option<(usize, bool)> {
        match self {
            Postings::One(p) => (*p == pos).then_some((0, true)),
            Postings::Many(ps) => {
                let i = ps.iter().position(|&p| p == pos)?;
                ps.swap_remove(i);
                if let [last] = ps[..] {
                    *self = Postings::One(last);
                }
                Some((i, false))
            }
        }
    }

    /// Undo [`Postings::remove`] of `pos` from `slot`: the position that
    /// `swap_remove` moved into the slot goes back to the end.
    fn unremove(&mut self, pos: u32, slot: usize) {
        let mut ps = match self {
            Postings::One(p) => vec![*p],
            Postings::Many(ps) => std::mem::take(ps),
        };
        match ps.get_mut(slot) {
            Some(at) => {
                let moved = std::mem::replace(at, pos);
                ps.push(moved);
            }
            None => ps.push(pos),
        }
        *self = Postings::Many(ps);
    }

    fn repoint(&mut self, from: u32, to: u32) {
        let slots = match self {
            Postings::One(p) => std::slice::from_mut(p),
            Postings::Many(ps) => ps.as_mut_slice(),
        };
        if let Some(p) = slots.iter_mut().find(|p| **p == from) {
            *p = to;
        }
    }
}

/// An index over one attribute of a stored relation, mapping key values to
/// row positions.
#[derive(Debug, Clone)]
pub struct Index {
    pub attr: AttrId,
    pub kind: IndexKind,
    hash: FxHashMap<Value, Postings>,
}

impl Index {
    /// Build an index over one column of a columnar table image.
    pub fn build_from_column(attr: AttrId, kind: IndexKind, col: &Column) -> Self {
        let mut idx = Index {
            attr,
            kind,
            hash: FxHashMap::default(),
        };
        for i in 0..col.len() {
            idx.insert(&col.value(i), i as u32);
        }
        idx
    }

    pub(crate) fn insert(&mut self, key: &Value, pos: u32) {
        match self.hash.get_mut(key) {
            Some(ps) => ps.push(pos),
            None => {
                self.hash.insert(key.clone(), Postings::One(pos));
            }
        }
    }

    /// Drop the posting `pos` under `key` (a deleted row); the key goes
    /// with its last posting. Returns the slot the posting held, for
    /// [`Index::unremove`]; `None` when it was not there.
    pub(crate) fn remove(&mut self, key: &Value, pos: u32) -> Option<usize> {
        let (slot, emptied) = self.hash.get_mut(key)?.remove(pos)?;
        if emptied {
            self.hash.remove(key);
        }
        Some(slot)
    }

    /// Undo [`Index::remove`]: post `pos` under `key` again, at the slot
    /// it was removed from, so the key's positions are as before.
    pub(crate) fn unremove(&mut self, key: &Value, pos: u32, slot: usize) {
        match self.hash.get_mut(key) {
            Some(ps) => ps.unremove(pos, slot),
            None => self.insert(key, pos),
        }
    }

    /// Follow a row the table moved from position `from` to `to`.
    pub(crate) fn repoint(&mut self, key: &Value, from: u32, to: u32) {
        if let Some(ps) = self.hash.get_mut(key) {
            ps.repoint(from, to);
        }
    }

    /// Row positions with key equal to `key`.
    pub fn lookup_eq(&self, key: &Value) -> &[u32] {
        self.hash.get(key).map(Postings::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.hash.len()
    }

    /// Total indexed entries.
    pub fn entries(&self) -> usize {
        self.hash.values().map(|ps| ps.as_slice().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_relalg::types::DataType;

    /// Keys `1, 2, 1, 3` (key 1 at positions 0 and 2) or their strings
    /// `"a" .. "d"`, one per row.
    fn column(strings: bool) -> Column {
        let (data_type, values) = if strings {
            (DataType::Str, ["a", "b", "c", "d"].map(Value::str).to_vec())
        } else {
            (DataType::Int, [1, 2, 1, 3].map(Value::Int).to_vec())
        };
        let mut col = Column::with_capacity(data_type, values.len());
        for v in &values {
            col.push(v);
        }
        col
    }

    fn index() -> Index {
        Index::build_from_column(AttrId(0), IndexKind::Hash, &column(false))
    }

    #[test]
    fn hash_index_equality_lookup() {
        let idx = index();
        assert_eq!(idx.lookup_eq(&Value::Int(1)), &[0, 2]);
        assert!(idx.lookup_eq(&Value::Int(9)).is_empty());
        assert_eq!(idx.distinct_keys(), 3);
        assert_eq!(idx.entries(), 4);
    }

    #[test]
    fn postings_follow_remove_and_repoint() {
        let mut idx = index();
        // Key 1 holds two positions, keys 2 and 3 one (inline) each.
        idx.remove(&Value::Int(1), 0);
        assert_eq!(idx.lookup_eq(&Value::Int(1)), &[2]);
        idx.repoint(&Value::Int(1), 2, 0);
        assert_eq!(idx.lookup_eq(&Value::Int(1)), &[0]);
        idx.insert(&Value::Int(1), 7);
        assert_eq!(idx.lookup_eq(&Value::Int(1)), &[0, 7]);
        // A key leaves with its last posting; a posting that is not
        // there leaves the key alone.
        idx.remove(&Value::Int(2), 9);
        assert_eq!(idx.lookup_eq(&Value::Int(2)), &[1]);
        idx.remove(&Value::Int(2), 1);
        assert!(idx.lookup_eq(&Value::Int(2)).is_empty());
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.entries(), 3);
    }

    /// `unremove` puts a posting back at the slot `remove` reported, so a
    /// key's positions come back in their old order — through the inline
    /// single-position form and the removal of the key itself.
    #[test]
    fn unremove_restores_the_old_order() {
        let mut idx = index();
        for p in [5, 6, 7] {
            idx.insert(&Value::Int(1), p);
        }
        let key = Value::Int(1);
        let before = idx.lookup_eq(&key).to_vec();
        assert_eq!(before, [0, 2, 5, 6, 7]);
        let mut removed = Vec::new();
        for p in [2, 7, 0, 6, 5] {
            removed.push((p, idx.remove(&key, p).unwrap()));
        }
        assert!(idx.lookup_eq(&key).is_empty());
        assert_eq!(idx.remove(&key, 2), None, "absent posting");
        for (p, slot) in removed.into_iter().rev() {
            idx.unremove(&key, p, slot);
        }
        assert_eq!(idx.lookup_eq(&key), before.as_slice());
        assert_eq!(idx.entries(), 7);
    }

    #[test]
    fn string_keys_work() {
        let idx = Index::build_from_column(AttrId(1), IndexKind::Hash, &column(true));
        assert_eq!(idx.lookup_eq(&Value::str("c")), &[2]);
    }
}
