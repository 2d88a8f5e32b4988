//! Shared infrastructure for learned policies: per-way state tables,
//! feature hashing and a small deterministic RNG.

use cachemind_sim::addr::SetId;
pub use cachemind_sim::hash::{mix64, Mix64Build, Mix64Hasher};

/// Lazily-grown per-(set, way) state storage.
///
/// Policies do not know the cache geometry at construction time; this table
/// grows on demand, keyed by `set * ways + way`.
#[derive(Debug, Clone)]
pub struct PerWayTable<T> {
    ways: usize,
    slots: Vec<T>,
    default: T,
}

impl<T: Clone> PerWayTable<T> {
    /// Creates an empty table whose slots default to `default`.
    pub fn new(default: T) -> Self {
        PerWayTable { ways: 0, slots: Vec::new(), default }
    }

    fn ensure(&mut self, set: SetId, ways: usize) {
        if ways > self.ways {
            // Re-shape: geometry is constant in practice, so this happens
            // only on first touch.
            self.ways = ways;
            self.slots.clear();
        }
        let needed = (set.index() + 1) * self.ways;
        if self.slots.len() < needed {
            self.slots.resize(needed, self.default.clone());
        }
    }

    /// Mutable access to the slot for `(set, way)` in a set of `ways` ways.
    pub fn slot_mut(&mut self, set: SetId, way: usize, ways: usize) -> &mut T {
        self.ensure(set, ways);
        &mut self.slots[set.index() * self.ways + way]
    }

    /// Read access; returns the default for untouched slots.
    pub fn slot(&self, set: SetId, way: usize) -> T {
        if self.ways == 0 {
            return self.default.clone();
        }
        self.slots
            .get(set.index() * self.ways + way)
            .cloned()
            .unwrap_or_else(|| self.default.clone())
    }
}

/// Hashes a feature id and value into a table of `1 << bits` buckets.
pub fn feature_bucket(feature_id: u64, value: u64, bits: u32) -> usize {
    (mix64(feature_id.wrapping_mul(0x100_0000_01B3) ^ value) & ((1 << bits) - 1)) as usize
}

/// A tiny deterministic PRNG (SplitMix64) for policies that need randomness
/// (BRRIP's occasional near-insertions, random replacement).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates the generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }

    /// Bernoulli draw with probability `1 / denom`.
    pub fn one_in(&mut self, denom: u64) -> bool {
        self.below(denom) == 0
    }
}

/// Clamps a reuse distance into a log2 bucket in `[0, max_bucket]`, used as
/// a compact learning target.
pub fn log2_bucket(distance: u64, max_bucket: u8) -> u8 {
    if distance == 0 {
        return 0;
    }
    let b = 64 - distance.leading_zeros();
    (b as u8).min(max_bucket)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_way_table_grows_on_demand() {
        let mut t: PerWayTable<u8> = PerWayTable::new(7);
        assert_eq!(t.slot(SetId::new(3), 1), 7);
        *t.slot_mut(SetId::new(3), 1, 4) = 9;
        assert_eq!(t.slot(SetId::new(3), 1), 9);
        assert_eq!(t.slot(SetId::new(3), 0), 7);
        assert_eq!(t.slot(SetId::new(100), 3), 7);
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn feature_bucket_in_range() {
        for v in 0..1000u64 {
            assert!(feature_bucket(3, v, 10) < 1024);
        }
    }

    #[test]
    fn splitmix_below_is_bounded() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn log2_bucket_monotone() {
        assert_eq!(log2_bucket(0, 20), 0);
        assert_eq!(log2_bucket(1, 20), 1);
        assert!(log2_bucket(100, 20) <= log2_bucket(100_000, 20));
        assert_eq!(log2_bucket(u64::MAX - 1, 20), 20);
    }
}
