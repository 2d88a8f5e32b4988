//! Hardware prefetcher models: stream-transform a demand access sequence by
//! inserting prefetch accesses.
//!
//! The paper's related-work section stresses prefetcher–replacement
//! interactions (PACIPV, ISCA'25); this module provides the substrate to
//! study them in the replay pipeline: a next-line prefetcher and a
//! PC-indexed stride prefetcher, both operating on the access stream before
//! it reaches the LLC replay (prefetches are [`AccessKind::Prefetch`], so
//! they fill lines without counting as demand traffic).

use serde::{Deserialize, Serialize};

use crate::access::{AccessKind, MemoryAccess};
use crate::addr::{Address, Pc};
use crate::hash::mix64;

/// Which hardware prefetcher to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrefetcherKind {
    /// No prefetching: the stream passes through untouched (the baseline
    /// point on the scenario grid's prefetcher axis).
    None,
    /// Fetch line N+1 on every demand access to line N.
    NextLine,
    /// Per-PC stride detection: after two accesses with the same delta,
    /// fetch `degree` lines ahead along the stride.
    Stride {
        /// How many strides ahead to fetch.
        degree: u8,
    },
}

impl PrefetcherKind {
    /// The degree used when `"stride"` is requested without a number.
    pub const DEFAULT_STRIDE_DEGREE: u8 = 4;

    /// Parses a stable prefetcher name: `none`, `nextline` (or
    /// `next-line`), `stride` (degree 4) or `stride<N>` (e.g. `stride2`).
    pub fn parse(name: &str) -> Option<PrefetcherKind> {
        match name {
            "none" => Some(PrefetcherKind::None),
            "nextline" | "next-line" => Some(PrefetcherKind::NextLine),
            "stride" => Some(PrefetcherKind::Stride { degree: Self::DEFAULT_STRIDE_DEGREE }),
            other => {
                let degree: u8 = other.strip_prefix("stride")?.parse().ok()?;
                if degree == 0 {
                    return None;
                }
                Some(PrefetcherKind::Stride { degree })
            }
        }
    }

    /// The canonical label, round-tripping through [`PrefetcherKind::parse`]:
    /// `none`, `nextline`, `stride<degree>`.
    pub fn label(&self) -> String {
        match self {
            PrefetcherKind::None => "none".to_owned(),
            PrefetcherKind::NextLine => "nextline".to_owned(),
            PrefetcherKind::Stride { degree } => format!("stride{degree}"),
        }
    }
}

/// Per-PC stride-detection state.
#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    last_line: u64,
    stride: i64,
    confident: bool,
}

const EMPTY_PC: u64 = u64::MAX;

/// A linear-probing PC → [`StrideEntry`] table. The stride transform does
/// one lookup per demand access, and the std `HashMap`'s SipHash dominated
/// it; open addressing with a multiplicative mix is several times faster
/// and just as deterministic — each PC's stride state is independent of
/// table layout.
#[derive(Debug, Clone)]
struct StrideTable {
    slots: Vec<(u64, StrideEntry)>,
    mask: usize,
    len: usize,
}

impl StrideTable {
    fn new() -> Self {
        let cap = 256;
        StrideTable { slots: vec![(EMPTY_PC, StrideEntry::default()); cap], mask: cap - 1, len: 0 }
    }

    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![(EMPTY_PC, StrideEntry::default()); cap]);
        self.mask = cap - 1;
        for slot in old {
            if slot.0 != EMPTY_PC {
                let mut h = mix64(slot.0) as usize & self.mask;
                while self.slots[h].0 != EMPTY_PC {
                    h = (h + 1) & self.mask;
                }
                self.slots[h] = slot;
            }
        }
    }

    /// The entry for `pc`, default-initialised on first sight (the
    /// open-addressing analogue of `HashMap::entry(..).or_default()`).
    fn entry(&mut self, pc: Pc) -> &mut StrideEntry {
        debug_assert_ne!(pc.value(), EMPTY_PC, "PC collides with the stride-table sentinel");
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let key = pc.value();
        let mut h = mix64(key) as usize & self.mask;
        loop {
            let k = self.slots[h].0;
            if k == key {
                return &mut self.slots[h].1;
            }
            if k == EMPTY_PC {
                self.slots[h].0 = key;
                self.len += 1;
                return &mut self.slots[h].1;
            }
            h = (h + 1) & self.mask;
        }
    }
}

/// A stream-rewriting hardware prefetcher.
///
/// ```rust
/// use cachemind_sim::prefetch::{Prefetcher, PrefetcherKind};
/// use cachemind_sim::access::{AccessKind, MemoryAccess};
/// use cachemind_sim::addr::{Address, Pc};
///
/// let accesses = vec![MemoryAccess::load(Pc::new(1), Address::new(0), 0)];
/// let out = Prefetcher::new(PrefetcherKind::NextLine).transform(&accesses);
/// assert_eq!(out.len(), 2);
/// assert_eq!(out[1].kind, AccessKind::Prefetch);
/// ```
#[derive(Debug, Clone)]
pub struct Prefetcher {
    kind: PrefetcherKind,
    table: StrideTable,
}

impl Prefetcher {
    /// Creates a prefetcher of the given kind.
    pub fn new(kind: PrefetcherKind) -> Self {
        Prefetcher { kind, table: StrideTable::new() }
    }

    /// The modelled kind.
    pub fn kind(&self) -> PrefetcherKind {
        self.kind
    }

    /// Rewrites a demand stream, inserting prefetches after the accesses
    /// that trigger them. Only demand loads/stores train the prefetcher.
    pub fn transform(&mut self, accesses: &[MemoryAccess]) -> Vec<MemoryAccess> {
        if self.kind == PrefetcherKind::None {
            return accesses.to_vec();
        }
        let mut out = Vec::with_capacity(accesses.len() * 2);
        for access in accesses {
            out.push(*access);
            if !matches!(access.kind, AccessKind::Load | AccessKind::Store) {
                continue;
            }
            let line = access.address.value() >> 6;
            match self.kind {
                PrefetcherKind::None => unreachable!("handled by the early return"),
                PrefetcherKind::NextLine => {
                    out.push(MemoryAccess::prefetch(
                        access.pc,
                        Address::new((line + 1) << 6),
                        access.instr_index,
                    ));
                }
                PrefetcherKind::Stride { degree } => {
                    let entry = self.table.entry(access.pc);
                    let delta = line as i64 - entry.last_line as i64;
                    if entry.last_line != 0 && delta == entry.stride && delta != 0 {
                        entry.confident = true;
                    } else if entry.last_line != 0 {
                        entry.stride = delta;
                        entry.confident = false;
                    }
                    if entry.confident {
                        for d in 1..=degree as i64 {
                            let target = line as i64 + entry.stride * d;
                            if target > 0 {
                                out.push(MemoryAccess::prefetch(
                                    access.pc,
                                    Address::new((target as u64) << 6),
                                    access.instr_index,
                                ));
                            }
                        }
                    }
                    entry.last_line = line;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::replacement::RecencyPolicy;
    use crate::replay::LlcReplay;

    fn sequential(n: u64, pc: u64) -> Vec<MemoryAccess> {
        (0..n).map(|i| MemoryAccess::load(Pc::new(pc), Address::new(i * 64), i)).collect()
    }

    #[test]
    fn next_line_prefetch_converts_demand_misses() {
        let demand = sequential(512, 0x400000);
        let transformed = Prefetcher::new(PrefetcherKind::NextLine).transform(&demand);
        let cfg = CacheConfig::new("LLC", 4, 4, 6);
        let base = LlcReplay::new(cfg.clone(), &demand).run(RecencyPolicy::lru());
        let with_pf = LlcReplay::new(cfg, &transformed).run(RecencyPolicy::lru());
        assert!(
            with_pf.stats.demand_misses < base.stats.demand_misses / 2,
            "prefetch {} vs base {} demand misses",
            with_pf.stats.demand_misses,
            base.stats.demand_misses
        );
    }

    #[test]
    fn stride_prefetcher_learns_strides() {
        // Stride-4 walk: the stride prefetcher should cover it, next-line
        // should not.
        let demand: Vec<MemoryAccess> = (0..512u64)
            .map(|i| MemoryAccess::load(Pc::new(7), Address::new(i * 4 * 64), i))
            .collect();
        let strided = Prefetcher::new(PrefetcherKind::Stride { degree: 2 }).transform(&demand);
        let nextline = Prefetcher::new(PrefetcherKind::NextLine).transform(&demand);
        let cfg = CacheConfig::new("LLC", 4, 4, 6);
        let s = LlcReplay::new(cfg.clone(), &strided).run(RecencyPolicy::lru());
        let n = LlcReplay::new(cfg, &nextline).run(RecencyPolicy::lru());
        assert!(
            s.stats.demand_misses < n.stats.demand_misses,
            "stride {} vs next-line {}",
            s.stats.demand_misses,
            n.stats.demand_misses
        );
    }

    #[test]
    fn none_is_the_identity_transform() {
        let demand = sequential(32, 0x400000);
        let out = Prefetcher::new(PrefetcherKind::None).transform(&demand);
        assert_eq!(out, demand);
    }

    #[test]
    fn names_round_trip_through_parse_and_label() {
        for name in ["none", "nextline", "stride4", "stride2"] {
            let kind = PrefetcherKind::parse(name).unwrap_or_else(|| panic!("parses {name}"));
            assert_eq!(kind.label(), name);
        }
        assert_eq!(
            PrefetcherKind::parse("stride"),
            Some(PrefetcherKind::Stride { degree: PrefetcherKind::DEFAULT_STRIDE_DEGREE })
        );
        assert_eq!(PrefetcherKind::parse("next-line"), Some(PrefetcherKind::NextLine));
        assert_eq!(PrefetcherKind::parse("stride0"), None);
        assert_eq!(PrefetcherKind::parse("markov"), None);
    }

    #[test]
    fn prefetches_do_not_train_the_prefetcher() {
        let mut p = Prefetcher::new(PrefetcherKind::NextLine);
        let pf = MemoryAccess::prefetch(Pc::new(1), Address::new(0), 0);
        assert_eq!(p.transform(&[pf]).len(), 1, "prefetch must not cascade");
    }

    #[test]
    fn random_traffic_gains_little_from_next_line() {
        // Pointer-chase-like traffic: next-line prefetching mostly pollutes.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let demand: Vec<MemoryAccess> = (0..512u64)
            .map(|i| {
                MemoryAccess::load(Pc::new(9), Address::new(rng.gen_range(0..4096u64) * 64), i)
            })
            .collect();
        let transformed = Prefetcher::new(PrefetcherKind::NextLine).transform(&demand);
        let cfg = CacheConfig::new("LLC", 3, 2, 6);
        let base = LlcReplay::new(cfg.clone(), &demand).run(RecencyPolicy::lru());
        let with_pf = LlcReplay::new(cfg, &transformed).run(RecencyPolicy::lru());
        // Few demand misses saved relative to the stream case.
        let saved = base.stats.demand_misses.saturating_sub(with_pf.stats.demand_misses);
        assert!(
            (saved as f64) < 0.2 * base.stats.demand_misses as f64,
            "random traffic saved {saved} of {}",
            base.stats.demand_misses
        );
    }
}
