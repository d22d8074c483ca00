//! A fast, deterministic hasher for hot-path lookup tables.
//!
//! `std::collections::HashMap` defaults to SipHash-1-3, which is
//! DoS-resistant but costs tens of cycles per small key — measurable when
//! the simulator does several map probes per packet per hop. This module
//! provides the Firefox/rustc "Fx" multiply-and-rotate hash: a couple of
//! cycles per word, more than enough mixing for the simulator's small
//! integer and tuple keys, and — unlike the std default — free of
//! per-process random state, so iteration-independent uses cannot even
//! accidentally observe randomized bucket order across runs.
//!
//! Users: the switch L2, ECMP and fast-failover tables and the
//! topology's per-pair link groups (`presto-netsim`), and the per-flow
//! sender, receiver and vSwitch tables of the simulation loop
//! (`presto-testbed`).
//!
//! Fx takes a table's bucket index from the low bits of `word · K`, so
//! those low bits must vary across keys: key a table by small integers,
//! not by words whose distinguishing bits sit high.
//!
//! # Determinism rule
//!
//! Swapping a map's hasher changes its *iteration order*. Only maps that
//! are never iterated (or whose iteration folds into order-insensitive
//! aggregates) may use these aliases; anything feeding `Report::digest`
//! through an ordered collection must keep `BTreeMap` or index-ordered
//! vectors (see DESIGN.md §5).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the Fx hash (64-bit golden-ratio mix).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher: one wrapping multiply and a rotate per 8-byte word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized, no random state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx hash. See the module-level determinism
/// rule before using.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx hash. See the module-level determinism
/// rule before using.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_distinct_hashes() {
        // Not a collision-resistance proof, just a smoke check that the
        // mix isn't degenerate on the simulator's typical key shapes.
        let mut seen = std::collections::HashSet::new();
        for a in 0u32..64 {
            for b in 0u32..64 {
                let mut h = FxHasher::default();
                h.write_u32(a);
                h.write_u32(b);
                assert!(seen.insert(h.finish()), "collision at ({a}, {b})");
            }
        }
    }

    #[test]
    fn hash_is_stable_across_instances() {
        let hash = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b"presto"), hash(b"presto"));
        assert_ne!(hash(b"presto"), hash(b"prestp"));
    }

    #[test]
    fn map_behaves_like_std() {
        let mut m: FxHashMap<(u32, u16), u64> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, (i % 7) as u16), i as u64 * 3);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, (i % 7) as u16)), Some(&(i as u64 * 3)));
        }
    }
}
