//! The multi-level hierarchy: filters a workload's access stream down to the
//! LLC stream that replacement-policy studies replay.
//!
//! Mirrors the paper's methodology (§5): the full hierarchy is simulated once
//! (L1/L2 under LRU, per Table 2), the LLC access stream is captured, and
//! each studied replacement policy then *replays* that identical stream so
//! policies are compared on the same inputs.

use serde::{Deserialize, Serialize};

use crate::access::{AccessKind, MemoryAccess};
use crate::addr::{Address, LineAddr};
use crate::config::{CacheConfig, HierarchyConfig};
use crate::hash::Mix64Build;
use crate::stats::CacheStats;

/// Result of running a workload through the hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HierarchyReport {
    /// Accesses that reached the LLC, in order.
    pub llc_stream: Vec<MemoryAccess>,
    /// L1 instruction cache counters.
    pub l1i: CacheStats,
    /// L1 data cache counters.
    pub l1d: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// LLC counters under the baseline (LRU) policy.
    pub llc: CacheStats,
    /// Prefetch accesses that filled a line anywhere in the hierarchy
    /// (prefetches that missed L1D).
    pub prefetch_fills: u64,
    /// Demand accesses served from a line a prefetch brought in — at
    /// whatever level the demand found it (L1 hit on a freshly-prefetched
    /// line, or an L2/LLC hit after the L1 copy was evicted).
    pub useful_prefetches: u64,
    /// Total dynamic instructions in the workload.
    pub instr_count: u64,
}

/// What one filter-cache access produced: a hit flag plus the evicted line,
/// the only outcome data the hierarchy filter consumes.
struct FilterOutcome {
    hit: bool,
    evicted: Option<LineAddr>,
}

/// A stripped-down LRU cache level for the hierarchy filter.
///
/// The filter replays every workload access through L1/L2 (and the LLC for
/// the baseline counters) under plain LRU, and only ever reads the
/// hit/miss counters and the evicted line address — never recency or
/// insertion stamps or way numbers. This lean twin of
/// [`crate::cache::SetAssociativeCache`] therefore keeps just each set's
/// valid tags, in recency order, most recent first:
///
/// * hit  = the matched tag rotates to the front;
/// * fill = on a set that is not full, the new tag goes in at the front;
/// * evict = on a full set, the last tag (the least recent line) leaves
///   and the new tag goes in at the front.
///
/// Within a set every line's last touch is distinct, so the last tag is
/// exactly the line `RecencyPolicy::lru` evicts (the valid way with the
/// smallest last touch): the hit/miss and eviction decisions are identical,
/// with no per-way last-touch column and no victim scan. Hot lines sit at
/// the front, so a probe for a recently used line stops early.
#[derive(Debug)]
struct FilterCache {
    line_size_log2: u32,
    sets_log2: u32,
    ways: usize,
    /// `ways` slots per set; the first `filled[set]` hold the set's valid
    /// tags, most recent first.
    tags: Vec<LineAddr>,
    /// Valid-tag count per set.
    filled: Vec<u16>,
    stats: CacheStats,
}

impl FilterCache {
    fn new(config: &CacheConfig) -> Self {
        FilterCache {
            line_size_log2: config.line_size_log2,
            sets_log2: config.sets_log2,
            ways: config.ways,
            tags: vec![LineAddr::new(0); config.capacity_lines()],
            filled: vec![0; 1 << config.sets_log2],
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn access(&mut self, address: Address, kind: AccessKind) -> FilterOutcome {
        // Tags are full line addresses (matching the policy-facing cache,
        // which stores `AccessContext::line`); the set index masks the low
        // line-address bits.
        let line = address.line(self.line_size_log2);
        let set = line.set(self.sets_log2).index();
        let base = set * self.ways;
        let filled = self.filled[set] as usize;
        let set_tags = &mut self.tags[base..base + self.ways];

        let hit = set_tags[..filled].iter().position(|&tag| tag == line);
        // `end` is the slot the more recent tags shift down into: the hit
        // tag's own slot, the free slot, or the evicted last slot. A hit on
        // the front tag, the common case, moves nothing.
        let (end, evicted) = match hit {
            Some(pos) => {
                self.stats.record_hit(kind);
                (pos, None)
            }
            None if filled < self.ways => {
                self.stats.record_miss(kind);
                self.filled[set] += 1;
                (filled, None)
            }
            None => {
                self.stats.record_miss(kind);
                self.stats.evictions += 1;
                (filled - 1, Some(set_tags[filled - 1]))
            }
        };
        if end > 0 {
            set_tags.copy_within(..end, 1);
        }
        set_tags[0] = line;
        FilterOutcome { hit: hit.is_some(), evicted }
    }
}

/// The three-level cache hierarchy of Table 2.
///
/// # Example
///
/// ```rust
/// use cachemind_sim::prelude::*;
///
/// let mut hierarchy = CacheHierarchy::new(HierarchyConfig::small());
/// let accesses = vec![
///     MemoryAccess::load(Pc::new(0x400100), Address::new(0x10000), 0),
///     MemoryAccess::load(Pc::new(0x400100), Address::new(0x10000), 1),
/// ];
/// let report = hierarchy.run(&accesses, 2);
/// assert_eq!(report.llc_stream.len(), 1); // second access hit in L1D
/// ```
#[derive(Debug)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1i: FilterCache,
    l1d: FilterCache,
    l2: FilterCache,
    llc: FilterCache,
}

impl CacheHierarchy {
    /// Creates an empty hierarchy with LRU at every level.
    pub fn new(config: HierarchyConfig) -> Self {
        CacheHierarchy {
            l1i: FilterCache::new(&config.l1i),
            l1d: FilterCache::new(&config.l1d),
            l2: FilterCache::new(&config.l2),
            llc: FilterCache::new(&config.llc),
            config,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Runs the access stream through the hierarchy and captures the LLC
    /// stream. `instr_count` is the total dynamic instruction count of the
    /// workload (used by the IPC model).
    pub fn run(&mut self, accesses: &[MemoryAccess], instr_count: u64) -> HierarchyReport {
        // Worst case every access reaches the LLC; reserving up front
        // avoids the log2(n) reallocation-and-copy ladder on workloads
        // (like mcf) where most of the stream really does get there.
        let mut llc_stream = Vec::with_capacity(accesses.len());
        // Prefetch-usefulness bookkeeping: lines a prefetch brought into
        // the hierarchy that no demand access has touched yet. A line
        // leaves the set when a demand access is served from it (useful)
        // or when the LLC copy — the last one standing — is evicted.
        // Keyed in the LLC's line space so eviction keys (LLC `LineAddr`
        // values) and access keys always agree, whatever the L1 line size.
        let line_bits = self.config.llc.line_size_log2;
        let mut prefetched: std::collections::HashSet<u64, Mix64Build> = Default::default();
        let mut prefetch_fills = 0u64;
        let mut useful_prefetches = 0u64;
        for access in accesses {
            let line = access.address.value() >> line_bits;
            let is_prefetch = access.kind == AccessKind::Prefetch;
            // A pending line only becomes *useful* if this demand access is
            // actually served from it (a hit at some level); a demand miss
            // on a stale pending line is a wasted prefetch either way. The
            // emptiness guard keeps prefetcher-free streams from paying a
            // hash probe on every access.
            let was_pending = !is_prefetch && !prefetched.is_empty() && prefetched.remove(&line);
            let l1 = match access.kind {
                AccessKind::Fetch => &mut self.l1i,
                _ => &mut self.l1d,
            };
            let l1_out = l1.access(access.address, access.kind);
            if l1_out.hit {
                if was_pending {
                    useful_prefetches += 1;
                }
                continue;
            }
            if is_prefetch {
                prefetch_fills += 1;
                prefetched.insert(line);
            }
            let l2_out = self.l2.access(access.address, access.kind);
            if l2_out.hit {
                if was_pending {
                    useful_prefetches += 1;
                }
                continue;
            }
            // The access reaches the LLC; this is the stream that policy
            // replays consume.
            llc_stream.push(*access);
            let llc_out = self.llc.access(access.address, access.kind);
            if llc_out.hit && was_pending {
                useful_prefetches += 1;
            }
            if let Some(evicted) = llc_out.evicted {
                if !prefetched.is_empty() {
                    prefetched.remove(&evicted.value());
                }
            }
        }
        HierarchyReport {
            llc_stream,
            l1i: self.l1i.stats,
            l1d: self.l1d.stats,
            l2: self.l2.stats,
            llc: self.llc.stats,
            prefetch_fills,
            useful_prefetches,
            instr_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, Pc};

    fn loads(addrs: &[u64]) -> Vec<MemoryAccess> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| MemoryAccess::load(Pc::new(0x400000), Address::new(a), i as u64))
            .collect()
    }

    #[test]
    fn l1_filters_hot_lines() {
        let mut h = CacheHierarchy::new(HierarchyConfig::small());
        let report = h.run(&loads(&[0x1000, 0x1000, 0x1000, 0x1000]), 4);
        assert_eq!(report.l1d.accesses, 4);
        assert_eq!(report.l1d.misses, 1);
        assert_eq!(report.llc_stream.len(), 1);
    }

    #[test]
    fn fetches_go_through_l1i() {
        let mut h = CacheHierarchy::new(HierarchyConfig::small());
        let a = MemoryAccess::fetch(Pc::new(0x400000), Address::new(0x400000), 0);
        let report = h.run(&[a, a], 2);
        assert_eq!(report.l1i.accesses, 2);
        assert_eq!(report.l1d.accesses, 0);
    }

    #[test]
    fn prefetches_flow_through_the_data_path() {
        let mut h = CacheHierarchy::new(HierarchyConfig::small());
        let pf = MemoryAccess::prefetch(Pc::new(0x400000), Address::new(0x9000), 0);
        let ld = MemoryAccess::load(Pc::new(0x400000), Address::new(0x9000), 1);
        let report = h.run(&[pf, ld], 2);
        // The prefetch warms L1D, so the demand load hits and never reaches
        // the LLC.
        assert_eq!(report.l1d.accesses, 2);
        assert_eq!(report.l1d.hits, 1);
        assert_eq!(report.llc_stream.len(), 1);
    }

    #[test]
    fn prefetch_usefulness_counts_served_demands_only() {
        let mut h = CacheHierarchy::new(HierarchyConfig::small());
        let pf_used = MemoryAccess::prefetch(Pc::new(0x400000), Address::new(0x9000), 0);
        let ld_hit = MemoryAccess::load(Pc::new(0x400000), Address::new(0x9000), 1);
        let pf_wasted = MemoryAccess::prefetch(Pc::new(0x400000), Address::new(0xA000), 2);
        let ld_cold = MemoryAccess::load(Pc::new(0x400000), Address::new(0xB000), 3);
        let report = h.run(&[pf_used, ld_hit, pf_wasted, ld_cold], 4);
        assert_eq!(report.prefetch_fills, 2);
        // Only the load served from the prefetched 0x9000 line is useful:
        // 0xA000 was never demanded and 0xB000 was a plain cold miss.
        assert_eq!(report.useful_prefetches, 1);
    }

    #[test]
    fn streaming_reaches_llc() {
        let mut h = CacheHierarchy::new(HierarchyConfig::small());
        // 4096 distinct lines: far beyond the small L1/L2, every access
        // reaches the LLC.
        let addrs: Vec<u64> = (0..4096u64).map(|i| i * 64).collect();
        let report = h.run(&loads(&addrs), 4096);
        assert_eq!(report.llc_stream.len(), 4096);
        assert!(report.llc.misses > 0);
    }
}
