//! CRC32 (IEEE 802.3 polynomial) for WAL and snapshot framing.
//!
//! Hand-rolled slicing-by-8 — the durability layer depends on no external
//! crates. Eight lookup tables are built at compile time; the main loop
//! folds eight input bytes per step with eight independent lookups, and
//! the tail (fewer than eight bytes) runs bytewise on the first table.
//! The result is bit-identical to the classic bytewise table CRC, so
//! framed files written by either implementation verify under the other.

/// Reflected IEEE polynomial (the one used by zip, PNG, Ethernet).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, which is what lets one step fold a
/// byte sitting `k` positions before the end of an 8-byte chunk.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 of `bytes` (initial value all-ones, final XOR all-ones).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise definition the sliced loop must reproduce exactly.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sliced_matches_bytewise_at_every_alignment() {
        // xorshift64: deterministic pseudo-random bytes and lengths.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let buf: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        // Every short length (each chunk count and remainder near the
        // boundaries), then random lengths up to 4096.
        let lengths: Vec<usize> = (0..=72)
            .chain((0..200).map(|_| (next() % 4097) as usize))
            .chain([4095, 4096])
            .collect();
        for len in lengths {
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"the quick brown fox");
        let mut corrupted = b"the quick brown fox".to_vec();
        for i in 0..corrupted.len() {
            corrupted[i] ^= 0x01;
            assert_ne!(crc32(&corrupted), base, "flip at byte {i} undetected");
            corrupted[i] ^= 0x01;
        }
    }
}
