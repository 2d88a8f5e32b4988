//! Generic access-pattern kernels and the [`StreamBuilder`] shared by all
//! workload generators.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use cachemind_sim::access::{AccessKind, MemoryAccess};
use cachemind_sim::addr::{Address, Pc};

/// Cache-line size assumed by the generators (64 B).
pub const LINE: u64 = 64;

/// Incrementally builds an access stream with a running instruction counter.
#[derive(Debug)]
pub struct StreamBuilder {
    accesses: Vec<MemoryAccess>,
    instr: u64,
    rng: StdRng,
}

impl StreamBuilder {
    /// Creates a builder with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        StreamBuilder { accesses: Vec::new(), instr: 0, rng: StdRng::seed_from_u64(seed) }
    }

    /// The builder's RNG (for generator-specific randomness).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Advances the instruction counter by a plausible amount of non-memory
    /// work (3–9 instructions).
    pub fn work(&mut self) {
        self.instr += self.rng.gen_range(3..10);
    }

    /// Emits a load at `pc` for byte address `addr`.
    pub fn load(&mut self, pc: Pc, addr: u64) {
        self.work();
        self.accesses.push(MemoryAccess::load(pc, Address::new(addr), self.instr));
    }

    /// Emits a store at `pc` for byte address `addr`.
    pub fn store(&mut self, pc: Pc, addr: u64) {
        self.work();
        self.accesses.push(MemoryAccess::store(pc, Address::new(addr), self.instr));
    }

    /// Emits a software prefetch at `pc` for byte address `addr` (does not
    /// advance the instruction counter by a full work quantum: prefetches
    /// are single instructions).
    pub fn prefetch(&mut self, pc: Pc, addr: u64) {
        self.instr += 1;
        self.accesses.push(MemoryAccess {
            pc,
            address: Address::new(addr),
            kind: AccessKind::Prefetch,
            instr_index: self.instr,
        });
    }

    /// Finishes the stream, returning `(accesses, instr_count)`.
    pub fn finish(self) -> (Vec<MemoryAccess>, u64) {
        (self.accesses, self.instr)
    }

    /// Current instruction count.
    pub fn instr_count(&self) -> u64 {
        self.instr
    }
}

/// Samples an approximately Zipf-distributed index in `[0, n)`.
///
/// Uses inverse-power sampling: heavier skew for larger `s`.
pub fn zipf(rng: &mut StdRng, n: u64, s: f64) -> u64 {
    debug_assert!(n > 0);
    let u: f64 = rng.gen_range(1e-9..1.0f64);
    let idx = (n as f64 * u.powf(s)) as u64;
    idx.min(n - 1)
}

/// A sequential scan over `lines` cache lines starting at `base`, emitted
/// through `pc`.
pub fn sequential_scan(b: &mut StreamBuilder, pc: Pc, base: u64, lines: u64) {
    for i in 0..lines {
        b.load(pc, base + i * LINE);
    }
}

/// Builds a shuffled ring permutation of `n` nodes (a derangement-style
/// cycle covering all nodes), used by pointer-chasing generators.
pub fn shuffled_ring(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher-Yates.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    // next[order[i]] = order[i+1]: one big cycle.
    let mut next = vec![0; n];
    for i in 0..n {
        next[order[i]] = order[(i + 1) % n];
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_counts_instructions() {
        let mut b = StreamBuilder::new(1);
        b.load(Pc::new(1), 0);
        b.store(Pc::new(1), 64);
        let (accesses, instr) = b.finish();
        assert_eq!(accesses.len(), 2);
        assert!(instr >= 6);
    }

    #[test]
    fn zipf_is_skewed_toward_low_indices() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 1000u64;
        let samples: Vec<u64> = (0..10_000).map(|_| zipf(&mut rng, n, 3.0)).collect();
        // With s = 3, P(idx < n/10) = P(u < 0.1^(1/3)) ≈ 46%; a uniform
        // distribution would put only 10% there.
        let low = samples.iter().filter(|&&x| x < n / 10).count();
        assert!(low > samples.len() * 4 / 10, "low-decile share {low}");
        assert!(samples.iter().all(|&x| x < n));
    }

    #[test]
    fn shuffled_ring_is_one_cycle() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 257;
        let next = shuffled_ring(&mut rng, n);
        let mut seen = vec![false; n];
        let mut cur = 0;
        for _ in 0..n {
            assert!(!seen[cur], "revisited before covering the ring");
            seen[cur] = true;
            cur = next[cur];
        }
        assert_eq!(cur, 0, "must return to start after n steps");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn scan_touches_distinct_lines() {
        let mut b = StreamBuilder::new(3);
        sequential_scan(&mut b, Pc::new(9), 0x1000, 16);
        let (accesses, _) = b.finish();
        let lines: std::collections::HashSet<u64> =
            accesses.iter().map(|a| a.address.value() / LINE).collect();
        assert_eq!(lines.len(), 16);
    }
}
