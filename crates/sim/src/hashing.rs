//! Fast deterministic hashing for the simulator's hot-path maps.
//!
//! The uncore transaction table, MSHR files and pending-miss maps are all
//! keyed by `u64` ids or block addresses and are hit several times per
//! simulated cycle. `std`'s default SipHash is DoS-resistant but costs
//! tens of nanoseconds per lookup; these tables never hash untrusted
//! input, so a two-instruction multiply-xor hash is both safe and much
//! faster. The hasher is fully deterministic (no per-process random
//! state), which also keeps any incidental iteration order stable across
//! runs — though no simulator code may depend on map iteration order.

// This module *is* the sanctioned wrapper rule R1 points everyone at:
// FastMap/FastSet are std's tables with the deterministic hasher swapped
// in, so the std names may appear here and nowhere else in sim crates.
#![expect(
    clippy::disallowed_types,
    reason = "R1: defines FastMap/FastSet over std's HashMap/HashSet with a deterministic hasher"
)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher for integer keys (Fibonacci multiplier plus an
/// xor-shift so block-aligned addresses — low bits constant — still
/// spread over the low bucket bits).
#[derive(Default, Clone, Copy)]
pub struct FastHasher(u64);

const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(K);
        self.0 = h ^ (h >> 29);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

pub type FastBuildHasher = BuildHasherDefault<FastHasher>;
/// Drop-in `HashMap` with the fast deterministic hasher.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;
/// Drop-in `HashSet` with the fast deterministic hasher.
pub type FastSet<K> = HashSet<K, FastBuildHasher>;

/// Stable 64-bit content hash (FNV-1a) for persisted keys: job-spec
/// hashes, result-cache file names. Unlike [`FastHasher`] — whose mixing
/// is an internal detail free to change — this function is a *format*:
/// cache entries written by one build must stay addressable by the next,
/// so the algorithm is fixed and byte-position-sensitive.
pub fn stable_hash64(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn deterministic_across_instances() {
        let b = FastBuildHasher::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
        assert_ne!(b.hash_one(42u64), b.hash_one(43u64));
    }

    #[test]
    fn block_aligned_keys_spread_low_bits(// cache lines: low 6 bits zero
    ) {
        let b = FastBuildHasher::default();
        let mut low_bits = HashSet::new();
        for i in 0..64u64 {
            low_bits.insert(b.hash_one(i << 6) & 0x3F);
        }
        assert!(
            low_bits.len() > 32,
            "low bucket bits collapse: {low_bits:?}"
        );
    }

    #[test]
    fn stable_hash_is_a_fixed_format() {
        // Pinned values: changing the algorithm invalidates every
        // content-addressed cache entry ever written, so a change here
        // must be deliberate (and bump the serve cache schema).
        assert_eq!(stable_hash64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stable_hash64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(stable_hash64(b"ab"), stable_hash64(b"ba"));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        m.insert(7, 1);
        m.insert(7 << 6, 2);
        assert_eq!(m.get(&7), Some(&1));
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }
}
