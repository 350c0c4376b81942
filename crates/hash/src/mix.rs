//! Stable, stateless 64-bit mixing functions.
//!
//! All placement decisions in this workspace are pure functions of
//! `(ball address, bin name, domain seed)`. The paper's adaptivity results
//! (Lemma 3.2 and Corollary 3.3) rely on the random value used at bin `i`
//! being unaffected by the insertion or removal of *other* bins, so the hash
//! must never incorporate positional information such as the bin's index in
//! the sorted order or the current system size.
//!
//! The mixer is the finalizer of `splitmix64` (Stafford's Mix13 variant),
//! which has full avalanche behaviour and is commonly used to seed PRNGs.
//! Multi-argument hashes chain the mixer so every input bit affects every
//! output bit.
//!
//! [`SplitMixState`] reuses the mixer as a keyed `HashMap` hasher for the
//! storage layer's integer-keyed lookup tables.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

/// Number of distinct copies supported by the domain-separation constants.
///
/// This is an implementation constant, not a protocol limit; it only bounds
/// how many *statistically independent* hash streams [`stable_hash3`] can
/// derive from one `(ball, bin)` pair before streams repeat.
pub const DOMAIN_SPACE: u64 = u64::MAX;

/// The 64-bit finalizer of the `splitmix64` generator.
///
/// This is a bijection on `u64` with full avalanche: flipping any input bit
/// flips each output bit with probability close to 1/2. It is the primitive
/// from which all other hashes in this crate are built.
///
/// # Example
///
/// ```
/// use rshare_hash::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// // Stable across runs and platforms:
/// assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
/// ```
#[inline]
#[must_use]
pub const fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a pair of 64-bit values into a single well-mixed 64-bit value.
///
/// The function is asymmetric (`stable_hash2(a, b) != stable_hash2(b, a)` in
/// general), deterministic, and stable across processes.
///
/// # Example
///
/// ```
/// use rshare_hash::stable_hash2;
/// assert_ne!(stable_hash2(1, 2), stable_hash2(2, 1));
/// ```
#[inline]
#[must_use]
pub const fn stable_hash2(a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(a) ^ b.rotate_left(31) ^ 0xA076_1D64_78BD_642F)
}

/// Hashes a triple of 64-bit values (typically `(ball, bin, domain)`).
///
/// The third argument acts as a *domain separator*: placement layers that
/// must make statistically independent decisions about the same `(ball,
/// bin)` pair (e.g. the primary-selection scan versus the `placeOneCopy`
/// subroutine) pass different domain constants.
///
/// # Example
///
/// ```
/// use rshare_hash::stable_hash3;
/// let ball = 42;
/// let bin = 7;
/// assert_ne!(stable_hash3(ball, bin, 0), stable_hash3(ball, bin, 1));
/// ```
#[inline]
#[must_use]
pub const fn stable_hash3(a: u64, b: u64, domain: u64) -> u64 {
    splitmix64(stable_hash2(a, b) ^ splitmix64(domain))
}

/// Converts a hash value into a float uniformly distributed in `[0, 1)`.
///
/// Uses the top 53 bits so the result is exactly representable and the
/// distribution is uniform over the `2^53` representable grid points.
///
/// # Example
///
/// ```
/// use rshare_hash::{splitmix64, unit_f64};
/// let u = unit_f64(splitmix64(123));
/// assert!((0.0..1.0).contains(&u));
/// ```
#[inline]
#[must_use]
pub fn unit_f64(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Converts a hash value into a float uniformly distributed in `(0, 1]`.
///
/// Useful when the value feeds a logarithm (as in weighted rendezvous
/// hashing), where an exact zero would produce `-inf`.
///
/// # Example
///
/// ```
/// use rshare_hash::unit_open_f64;
/// assert!(unit_open_f64(0) > 0.0);
/// assert!(unit_open_f64(u64::MAX) <= 1.0);
/// ```
#[inline]
#[must_use]
pub fn unit_open_f64(hash: u64) -> f64 {
    ((hash >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A keyed [`BuildHasher`] for maps with integer keys: each key word costs
/// one [`splitmix64`] round instead of a SipHash pass.
///
/// Unlike the stable hashes above, this one is *not* reproducible across
/// maps: every default-built state draws its seed from std's
/// [`RandomState`], so bucket positions cannot be predicted from the keys
/// alone. It is not a pseudo-random function like SipHash, though: an
/// adversary who can time many probes may still learn enough to build
/// colliding keys. Use it for in-memory lookup tables, never for
/// placement.
///
/// # Example
///
/// ```
/// use std::collections::HashMap;
/// use rshare_hash::SplitMixState;
///
/// let mut shards: HashMap<(u64, usize), u8, SplitMixState> = HashMap::default();
/// shards.insert((7, 1), 42);
/// assert_eq!(shards[&(7, 1)], 42);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SplitMixState {
    seed: u64,
}

impl Default for SplitMixState {
    fn default() -> Self {
        Self {
            seed: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for SplitMixState {
    type Hasher = SplitMixHasher;

    #[inline]
    fn build_hasher(&self) -> SplitMixHasher {
        SplitMixHasher { state: self.seed }
    }
}

/// The [`Hasher`] built by [`SplitMixState`]: folds each written word into
/// its state with one [`splitmix64`] round.
#[derive(Debug, Clone, Copy)]
pub struct SplitMixHasher {
    state: u64,
}

impl Hasher for SplitMixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.state = splitmix64(self.state ^ n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_stable() {
        // Reference values from the public splitmix64 test vectors
        // (seed 1234567): first three outputs of the sequence equal
        // splitmix64 of successive internal states; here we only pin our
        // finalizer-of-seed convention.
        assert_eq!(splitmix64(0), 0xe220a8397b1dcdaf);
        assert_eq!(splitmix64(1), 0x910a2dec89025cc1);
    }

    #[test]
    fn splitmix_is_bijective_on_sample() {
        use std::collections::HashSet;
        let outputs: HashSet<u64> = (0..10_000).map(splitmix64).collect();
        assert_eq!(outputs.len(), 10_000);
    }

    #[test]
    fn unit_is_in_range() {
        for i in 0..1000u64 {
            let u = unit_f64(splitmix64(i));
            assert!((0.0..1.0).contains(&u), "u = {u}");
            let v = unit_open_f64(splitmix64(i));
            assert!(v > 0.0 && v <= 1.0, "v = {v}");
        }
        assert_eq!(unit_f64(0), 0.0);
        assert!(unit_f64(u64::MAX) < 1.0);
    }

    #[test]
    fn unit_mean_is_half() {
        let n = 100_000u64;
        let sum: f64 = (0..n).map(|i| unit_f64(splitmix64(i))).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn hash2_is_asymmetric_and_sensitive() {
        assert_ne!(stable_hash2(1, 2), stable_hash2(2, 1));
        assert_ne!(stable_hash2(1, 2), stable_hash2(1, 3));
        assert_ne!(stable_hash2(1, 2), stable_hash2(0, 2));
    }

    #[test]
    fn hash3_domain_separates() {
        let a = stable_hash3(5, 9, 0);
        let b = stable_hash3(5, 9, 1);
        let c = stable_hash3(5, 9, 2);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn avalanche_rough_check() {
        // Flipping one input bit should flip roughly half the output bits.
        let mut total = 0u64;
        let trials = 2_000u64;
        for i in 0..trials {
            let h1 = splitmix64(i);
            let h2 = splitmix64(i ^ 1);
            total += u64::from((h1 ^ h2).count_ones());
        }
        let avg = total as f64 / trials as f64;
        assert!((avg - 32.0).abs() < 2.0, "avalanche avg = {avg}");
    }

    #[test]
    fn splitmix_state_is_keyed() {
        let (a, b) = (SplitMixState::default(), SplitMixState::default());
        assert_ne!(a.hash_one((7u64, 1usize)), b.hash_one((7u64, 1usize)));
    }

    #[test]
    fn splitmix_state_is_deterministic() {
        let s = SplitMixState::default();
        for lba in 0..100u64 {
            assert_eq!(s.hash_one((lba, 2usize)), s.hash_one((lba, 2usize)));
        }
        assert_ne!(s.hash_one((1u64, 0usize)), s.hash_one((0u64, 1usize)));
    }

    #[test]
    fn splitmix_state_spreads_sequential_shard_keys() {
        // The per-device shard maps are keyed by `(lba, copy)` with dense
        // LBAs: they must not pile up in a few of the low-bit buckets.
        const BUCKETS: usize = 1_024;
        let s = SplitMixState::default();
        let mut counts = vec![0u32; BUCKETS];
        let mut keys = 0u32;
        for lba in 0..32_768u64 {
            for copy in 0..2usize {
                counts[s.hash_one((lba, copy)) as usize % BUCKETS] += 1;
                keys += 1;
            }
        }
        assert_eq!(keys, 65_536);
        let mean = keys / BUCKETS as u32;
        let max = *counts.iter().max().unwrap();
        assert!(max <= 2 * mean, "fullest bucket {max}, mean {mean}");
    }
}
