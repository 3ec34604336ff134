//! Fast non-cryptographic hashing for the engine's internal hash tables.
//!
//! Every columnar hash table in the engine (join build sides, group-by
//! buckets, distinct/bag-difference candidate maps) pairs a *bucket hash*
//! with a full column-wise equality check, so the hash only has to be
//! consistent within one operation — never collision-resistant against
//! adversaries. That frees these paths from SipHash (std's DoS-resistant
//! default), whose per-row cost dominates hashing-heavy operators on wide
//! tables.
//!
//! [`FxHasher`] is the rustc-style multiply-xor fold (the idiom used by
//! `rustc-hash`, reimplemented here because the build is offline).
//! [`U64Map`] additionally avoids re-hashing already-hashed `u64` bucket
//! keys through SipHash by finishing them with a single Fibonacci multiply.
//!
//! [`FxHashMap`] / [`FxHashSet`] serve the optimizer's id-keyed state
//! (materialized sets, statistics column maps, benefit caches) and the
//! maintenance path's `Value`-keyed maps (index postings, the delete
//! locator's claimed set, ingest's delete netting). Besides
//! being cheaper than SipHash on small keys, the hasher has no per-map
//! random seed: two maps built by the same sequence of inserts and removes
//! iterate in the same order, so float sums and tie-breaks over them — and
//! with them the chosen plans — are reproducible.
//!
//! Neither hasher is used for anything user-visible or persisted; the
//! `Value`-semantics contract (`Int(2)` and `Float(2.0)` hash equal, NULL
//! has its own tag) lives in the *byte stream* the caller feeds in (see
//! `Column::hash_value`), not in the hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor folding hasher (rustc-hash idiom): one rotate, one xor,
/// one multiply per word.
#[derive(Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: the multiply-xor fold preserves trailing
        // zeros (an odd-constant multiply keeps the 2-adic valuation, and
        // e.g. small integers hashed via `f64::to_bits` end in zero bits),
        // while std's swiss table indexes by the *low* bits — without an
        // avalanche step those keys all land in a handful of buckets.
        let mut x = self.state;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            // Invariant: `chunks_exact(8)` yields 8-byte chunks only.
            #[allow(clippy::expect_used)]
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.fold(u64::from_le_bytes(buf) ^ rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.fold(v as u32 as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

/// `BuildHasher` of [`FxHasher`] (stateless: every map hashes alike).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hash map on [`FxHasher`] (see the module docs for where it is used).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Hash set on [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Standalone string hash: the canonical 64-bit image of a string's bytes
/// used by `Value::hash` and `Column::hash_value`. Dictionary-encoded
/// columns precompute this per dictionary entry, so a dict-coded string
/// hashes in O(1) to exactly the same byte stream a plain `Str` column
/// feeds the hasher — equal strings collide across representations.
#[inline]
pub fn str_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.write_u8(0xff); // length delimiter, as in `Hash for str`
    h.finish()
}

/// Finishing hasher for keys that are already hashes: one Fibonacci
/// multiply spreads the entropy into the high bits std's `HashMap` uses.
#[derive(Default)]
pub struct U64IdentityHasher {
    state: u64,
}

impl Hasher for U64IdentityHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    fn write(&mut self, _bytes: &[u8]) {
        unimplemented!("U64IdentityHasher only hashes u64 keys");
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = v;
    }
}

/// Hash map keyed by precomputed `u64` hashes (bucket tables).
pub type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64IdentityHasher>>;

/// An empty [`U64Map`] with room for `n` entries.
pub fn u64_map_with_capacity<V>(n: usize) -> U64Map<V> {
    U64Map::with_capacity_and_hasher(n, BuildHasherDefault::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;
    use std::hash::Hash;

    fn fx_of(v: &Value) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn value_semantics_survive_the_hasher() {
        // The cross-type equal-hash contract is carried by Value::hash's
        // byte stream, independent of the hasher underneath.
        assert_eq!(fx_of(&Value::Int(7)), fx_of(&Value::Float(7.0)));
        assert_ne!(fx_of(&Value::Int(7)), fx_of(&Value::Int(8)));
        assert_eq!(fx_of(&Value::str("abc")), fx_of(&Value::str("abc")));
        assert_ne!(fx_of(&Value::str("abc")), fx_of(&Value::str("abd")));
    }

    #[test]
    fn fx_write_handles_unaligned_tails() {
        let mut a = FxHasher::default();
        a.write(b"hello world"); // 11 bytes: one chunk + 3-byte tail
        let mut b = FxHasher::default();
        b.write(b"hello worlt");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn u64_map_round_trips() {
        let mut m: U64Map<i32> = u64_map_with_capacity(4);
        m.insert(42, 1);
        m.insert(u64::MAX, 2);
        assert_eq!(m.get(&42), Some(&1));
        assert_eq!(m.get(&u64::MAX), Some(&2));
        assert_eq!(m.get(&7), None);
    }
}
