//! A small deterministic hasher for the workspace's in-memory caches.

use std::hash::Hasher;

/// Multiplier of the Fx scheme (rustc's `FxHasher`): odd, with its bits
/// spread over the whole word.
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A Fx-style multiply-rotate hasher: each word is rotated into the state,
/// xored and multiplied by a constant, and [`Hasher::finish`] rotates the
/// well-mixed high bits down to where hash tables take their bucket index.
///
/// It is for maps whose keys the program builds itself (node sets, estimate
/// keys): it is several times cheaper than the standard library's SipHash
/// but offers no protection against keys crafted to collide, so keep the
/// default hasher for keys read from outside the program. It has no random
/// seed, so equal keys hash equally in every run; nothing may depend on a
/// map's iteration order all the same, as it still depends on insertion
/// order. Use it as `HashMap<K, V, BuildHasherDefault<FxHasher>>`.
/// [`NodeSet`](crate::NodeSet) keys carry a precomputed hash and write one
/// word.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(
                word.try_into().expect("chunks_exact yields 8 bytes"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    #[test]
    fn hashes_are_fixed_across_runs_and_separate_near_keys() {
        let build = BuildHasherDefault::<FxHasher>::default();
        // No random seed: the value is a constant of the scheme.
        assert_eq!(build.hash_one(1u64), FX_SEED.rotate_left(26));
        assert_eq!(build.hash_one((7u64, 9u32)), build.hash_one((7u64, 9u32)));
        assert_ne!(build.hash_one((7u64, 9u32)), build.hash_one((9u64, 7u32)));
        // Byte slices: a short tail is padded, so a trailing zero byte
        // differs only through the length prefix `Vec` writes first.
        assert_ne!(
            build.hash_one(vec![1u8, 2]),
            build.hash_one(vec![1u8, 2, 0])
        );
        assert_ne!(build.hash_one(vec![1u32, 2]), build.hash_one(vec![2u32, 1]));
        // A table takes its bucket index from the low bits, which a product
        // leaves all zero for keys that differ only in high bits; the final
        // rotation brings the product's well-mixed high bits down there.
        let buckets: std::collections::HashSet<u64> =
            (0..64u64).map(|k| build.hash_one(k << 32) & 63).collect();
        assert!(buckets.len() > 48, "{} of 64 buckets used", buckets.len());
    }
}
