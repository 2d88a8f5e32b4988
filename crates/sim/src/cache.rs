//! A single set-associative cache level.
//!
//! Storage is structure-of-arrays with three columns: one contiguous tag
//! array (`Vec<LineAddr>`, invalid ways marked by a sentinel) is probed on
//! every access, and the two per-way stamps the policies read — `last_touch`
//! (recency) and `inserted_at` (FIFO order) — live in parallel arrays that
//! are only touched after a tag match or on a fill. The hot probe loop
//! therefore walks `ways` consecutive `u64`s, and an access writes only what
//! some policy reads (see `docs/PERFORMANCE.md`).
//!
//! Replacement policies observe a set through the borrowed [`SetView`]
//! adapter rather than a `&[Option<LineMeta>]` slice; tests and policies
//! that need to fabricate a set directly use the owned [`SetViewBuf`].

use serde::{Deserialize, Serialize};

use crate::addr::{Address, LineAddr, SetId};
use crate::config::CacheConfig;
use crate::replacement::{AccessContext, Decision, ReplacementPolicy};
use crate::stats::CacheStats;

/// Sentinel tag marking an invalid way. Unreachable as a real tag: a line
/// address is a byte address shifted right by `line_size_log2 >= 1`, so its
/// top bit is always clear.
const INVALID_TAG: LineAddr = LineAddr::new(u64::MAX);

/// Metadata for one resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LineMeta {
    /// The resident line address.
    pub line: LineAddr,
    /// Stream index of the inserting access.
    pub inserted_at: u64,
    /// Stream index of the most recent touch.
    pub last_touch: u64,
}

/// A borrowed view of one cache set in the structure-of-arrays layout —
/// what replacement policies inspect in place of the former
/// `&[Option<LineMeta>]` slice.
///
/// Way `w` is valid iff [`SetView::is_valid`] returns true; the per-way
/// accessors return raw column values and must only be read for valid ways
/// (invalid ways carry the tag sentinel and zeroed metadata).
#[derive(Debug, Clone, Copy)]
pub struct SetView<'a> {
    tags: &'a [LineAddr],
    inserted_at: &'a [u64],
    last_touch: &'a [u64],
}

impl<'a> SetView<'a> {
    /// Number of ways in the set.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the set has zero ways (never true for a real geometry).
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Whether way `way` holds a valid line.
    pub fn is_valid(&self, way: usize) -> bool {
        self.tags[way] != INVALID_TAG
    }

    /// The resident line address of way `way`, if valid.
    pub fn line(&self, way: usize) -> Option<LineAddr> {
        (self.tags[way] != INVALID_TAG).then(|| self.tags[way])
    }

    /// Stream index of the inserting access of way `way` (valid ways only).
    pub fn inserted_at(&self, way: usize) -> u64 {
        self.inserted_at[way]
    }

    /// Stream index of the most recent touch of way `way` (valid ways only).
    pub fn last_touch(&self, way: usize) -> u64 {
        self.last_touch[way]
    }

    /// Iterates `(way, line)` over the valid ways.
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, LineAddr)> + 'a {
        self.tags.iter().copied().enumerate().filter(|&(_, tag)| tag != INVALID_TAG)
    }

    /// Materialises the [`LineMeta`] of way `way`, if valid — the bridge
    /// back to the AoS representation for record emission and tests.
    pub fn meta(&self, way: usize) -> Option<LineMeta> {
        (self.tags[way] != INVALID_TAG).then(|| LineMeta {
            line: self.tags[way],
            inserted_at: self.inserted_at[way],
            last_touch: self.last_touch[way],
        })
    }
}

/// An owned one-set buffer in the structure-of-arrays layout, for policy
/// unit tests (and reference implementations) that fabricate a set without
/// a whole cache. [`SetViewBuf::view`] lends it as a [`SetView`].
#[derive(Debug, Clone)]
pub struct SetViewBuf {
    tags: Vec<LineAddr>,
    inserted_at: Vec<u64>,
    last_touch: Vec<u64>,
}

impl SetViewBuf {
    /// An all-invalid set with `ways` ways.
    pub fn new(ways: usize) -> Self {
        SetViewBuf {
            tags: vec![INVALID_TAG; ways],
            inserted_at: vec![0; ways],
            last_touch: vec![0; ways],
        }
    }

    /// Builds the buffer from the former AoS shape (one slot per way).
    pub fn from_metas(slots: &[Option<LineMeta>]) -> Self {
        let mut buf = SetViewBuf::new(slots.len());
        for (way, slot) in slots.iter().enumerate() {
            if let Some(meta) = slot {
                buf.set(way, *meta);
            }
        }
        buf
    }

    /// Makes way `way` valid with the given metadata.
    pub fn set(&mut self, way: usize, meta: LineMeta) {
        self.tags[way] = meta.line;
        self.inserted_at[way] = meta.inserted_at;
        self.last_touch[way] = meta.last_touch;
    }

    /// Invalidates way `way`.
    pub fn clear(&mut self, way: usize) {
        self.tags[way] = INVALID_TAG;
    }

    /// Lends the buffer as a [`SetView`].
    pub fn view(&self) -> SetView<'_> {
        SetView { tags: &self.tags, inserted_at: &self.inserted_at, last_touch: &self.last_touch }
    }
}

/// The outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// The way that was hit or filled (`None` when the fill was bypassed).
    pub way: Option<usize>,
    /// Line evicted to make room, if any.
    pub evicted: Option<LineAddr>,
    /// Whether the policy chose to bypass the fill.
    pub bypassed: bool,
}

/// A set-associative cache parameterised over its replacement policy.
///
/// # Example
///
/// ```rust
/// use cachemind_sim::prelude::*;
///
/// let mut cache = SetAssociativeCache::new(CacheConfig::small_llc(), RecencyPolicy::lru());
/// let a = MemoryAccess::load(Pc::new(0x400100), Address::new(0x8000), 0);
/// let set = cache.set_of(a.address);
/// let out = cache.access(&AccessContext::demand(0, &a, set));
/// assert!(!out.hit);
/// assert_eq!(cache.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssociativeCache<P> {
    config: CacheConfig,
    ways: usize,
    tags: Vec<LineAddr>,
    inserted_at: Vec<u64>,
    last_touch: Vec<u64>,
    policy: P,
    stats: CacheStats,
}

/// Builds a [`SetView`] over the cache's columns for `range` — a free
/// function (rather than a `&self` method) so `access` can hold the view
/// while calling `&mut self.policy`: the borrow checker sees the disjoint
/// field borrows.
fn view_columns<'a>(
    tags: &'a [LineAddr],
    inserted_at: &'a [u64],
    last_touch: &'a [u64],
    range: std::ops::Range<usize>,
) -> SetView<'a> {
    SetView {
        tags: &tags[range.clone()],
        inserted_at: &inserted_at[range.clone()],
        last_touch: &last_touch[range],
    }
}

impl<P: ReplacementPolicy> SetAssociativeCache<P> {
    /// Creates an empty cache with the given geometry and policy.
    pub fn new(config: CacheConfig, policy: P) -> Self {
        let capacity = config.capacity_lines();
        let ways = config.ways;
        SetAssociativeCache {
            config,
            ways,
            tags: vec![INVALID_TAG; capacity],
            inserted_at: vec![0; capacity],
            last_touch: vec![0; capacity],
            policy,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Aggregate hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The replacement policy (shared access).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The set an address maps to.
    pub fn set_of(&self, address: Address) -> SetId {
        self.config.set_of(address)
    }

    /// The set a line address maps to.
    pub fn set_of_line(&self, line: LineAddr) -> SetId {
        line.set(self.config.sets_log2)
    }

    /// A borrowed view of the ways of `set`.
    pub fn set_view(&self, set: SetId) -> SetView<'_> {
        view_columns(&self.tags, &self.inserted_at, &self.last_touch, self.set_range(set))
    }

    /// The policy's current per-way eviction scores for `set`.
    pub fn line_scores(&self, set: SetId, now: u64) -> Vec<u64> {
        self.policy.line_scores(set, self.set_view(set), now)
    }

    /// Allocation-free variant of [`SetAssociativeCache::line_scores`]:
    /// clears `out` and appends one score per way. The replay hot loop
    /// reuses one buffer across every access instead of allocating a fresh
    /// `Vec` per record.
    pub fn line_scores_into(&self, set: SetId, now: u64, out: &mut Vec<u64>) {
        self.policy.line_scores_into(set, self.set_view(set), now, out);
    }

    /// Whether `line` is currently resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        let set = self.set_of_line(line);
        let range = self.set_range(set);
        self.tags[range].contains(&line)
    }

    fn set_range(&self, set: SetId) -> std::ops::Range<usize> {
        let base = set.index() * self.ways;
        base..base + self.ways
    }

    fn meta_at(&self, slot: usize) -> LineMeta {
        LineMeta {
            line: self.tags[slot],
            inserted_at: self.inserted_at[slot],
            last_touch: self.last_touch[slot],
        }
    }

    /// Fills `slot` with the accessed line, stamped with the access index.
    fn fill(&mut self, slot: usize, ctx: &AccessContext) {
        self.tags[slot] = ctx.line;
        self.inserted_at[slot] = ctx.index;
        self.last_touch[slot] = ctx.index;
    }

    /// Performs one access, consulting the replacement policy on misses.
    ///
    /// The caller provides the [`AccessContext`] (so a replay driver can
    /// attach oracle information); `ctx.set` must equal
    /// `self.set_of_line(ctx.line)`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `ctx.set` is inconsistent with `ctx.line`.
    pub fn access(&mut self, ctx: &AccessContext) -> AccessOutcome {
        debug_assert_eq!(
            ctx.set,
            self.set_of_line(ctx.line),
            "AccessContext.set disagrees with the cache geometry"
        );
        debug_assert_ne!(ctx.line, INVALID_TAG, "accessed line collides with the invalid sentinel");
        let range = self.set_range(ctx.set);
        let ways = self.ways;

        // Hit path: probe the contiguous tag array only; the recency stamp
        // is touched after the match.
        let set_tags = &self.tags[range.clone()];
        if let Some(way) = set_tags.iter().position(|&tag| tag == ctx.line) {
            self.last_touch[range.start + way] = ctx.index;
            let view = view_columns(&self.tags, &self.inserted_at, &self.last_touch, range);
            self.policy.on_hit(way, view, ctx);
            self.stats.record_hit(ctx.kind);
            return AccessOutcome { hit: true, way: Some(way), evicted: None, bypassed: false };
        }

        // Miss path: fill an invalid way if one exists.
        self.stats.record_miss(ctx.kind);
        if let Some(way) = self.tags[range.clone()].iter().position(|&tag| tag == INVALID_TAG) {
            self.fill(range.start + way, ctx);
            let view = view_columns(&self.tags, &self.inserted_at, &self.last_touch, range);
            self.policy.on_fill(way, view, ctx);
            return AccessOutcome { hit: false, way: Some(way), evicted: None, bypassed: false };
        }

        // Full set: ask the policy.
        let view = view_columns(&self.tags, &self.inserted_at, &self.last_touch, range.clone());
        match self.policy.choose_victim(view, ctx) {
            Decision::Bypass => {
                self.stats.bypasses += 1;
                AccessOutcome { hit: false, way: None, evicted: None, bypassed: true }
            }
            Decision::Evict(way) => {
                assert!(way < ways, "policy returned out-of-range way {way}");
                let slot = range.start + way;
                let evicted = self.tags[slot];
                self.fill(slot, ctx);
                self.stats.evictions += 1;
                let view = view_columns(&self.tags, &self.inserted_at, &self.last_touch, range);
                self.policy.on_fill(way, view, ctx);
                AccessOutcome {
                    hit: false,
                    way: Some(way),
                    evicted: Some(evicted),
                    bypassed: false,
                }
            }
        }
    }

    /// Invalidates `line` if resident, returning its metadata.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineMeta> {
        let set = self.set_of_line(line);
        let range = self.set_range(set);
        if let Some(way) = self.tags[range.clone()].iter().position(|&tag| tag == line) {
            let slot = range.start + way;
            let meta = self.meta_at(slot);
            self.tags[slot] = INVALID_TAG;
            return Some(meta);
        }
        None
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&tag| tag != INVALID_TAG).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemoryAccess;
    use crate::addr::Pc;
    use crate::replacement::RecencyPolicy;

    fn lru_cache(sets_log2: u32, ways: usize) -> SetAssociativeCache<RecencyPolicy> {
        SetAssociativeCache::new(CacheConfig::new("t", sets_log2, ways, 6), RecencyPolicy::lru())
    }

    fn go(cache: &mut SetAssociativeCache<RecencyPolicy>, addr: u64, idx: u64) -> AccessOutcome {
        let a = MemoryAccess::load(Pc::new(0x400000 + idx), Address::new(addr), idx);
        let set = cache.set_of(a.address);
        cache.access(&AccessContext::demand(idx, &a, set))
    }

    #[test]
    fn repeated_access_hits() {
        let mut cache = lru_cache(2, 2);
        assert!(!go(&mut cache, 0x40, 0).hit);
        assert!(go(&mut cache, 0x40, 1).hit);
        assert!(go(&mut cache, 0x7f, 2).hit, "same line, different offset");
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn eviction_reports_victim() {
        let mut cache = lru_cache(0, 1);
        assert!(!go(&mut cache, 0x000, 0).hit);
        let out = go(&mut cache, 0x040, 1);
        assert!(!out.hit);
        assert_eq!(out.evicted, Some(Address::new(0x000).line(6)), "direct-mapped eviction");
    }

    #[test]
    fn occupancy_tracks_fills_and_invalidations() {
        let mut cache = lru_cache(1, 2);
        go(&mut cache, 0x000, 0);
        go(&mut cache, 0x040, 1);
        assert_eq!(cache.occupancy(), 2);
        assert!(cache.invalidate(Address::new(0x000).line(6)).is_some());
        assert_eq!(cache.occupancy(), 1);
        assert!(cache.invalidate(Address::new(0x000).line(6)).is_none());
    }

    #[test]
    fn contains_reflects_residency() {
        let mut cache = lru_cache(2, 2);
        let line = Address::new(0x1000).line(6);
        assert!(!cache.contains(line));
        go(&mut cache, 0x1000, 0);
        assert!(cache.contains(line));
    }

    #[test]
    fn set_view_buf_round_trips_metas() {
        let meta = LineMeta { line: LineAddr::new(7), inserted_at: 5, last_touch: 9 };
        let buf = SetViewBuf::from_metas(&[None, Some(meta)]);
        let view = buf.view();
        assert!(!view.is_valid(0));
        assert_eq!(view.meta(0), None);
        assert_eq!(view.meta(1), Some(meta));
        assert_eq!(view.iter_valid().collect::<Vec<_>>(), vec![(1, LineAddr::new(7))]);
    }

    /// Failure injection: a buggy policy returning an out-of-range way must
    /// be caught by the cache, not corrupt adjacent sets.
    #[test]
    #[should_panic(expected = "out-of-range way")]
    fn malicious_policy_is_rejected() {
        #[derive(Debug)]
        struct Evil;
        impl crate::replacement::ReplacementPolicy for Evil {
            fn name(&self) -> &'static str {
                "evil"
            }
            fn on_hit(&mut self, _: usize, _: SetView<'_>, _: &AccessContext) {}
            fn choose_victim(
                &mut self,
                lines: SetView<'_>,
                _: &AccessContext,
            ) -> crate::replacement::Decision {
                crate::replacement::Decision::Evict(lines.len() + 7)
            }
            fn on_fill(&mut self, _: usize, _: SetView<'_>, _: &AccessContext) {}
        }
        let mut cache = SetAssociativeCache::new(CacheConfig::new("t", 0, 1, 6), Evil);
        for (i, addr) in [0u64, 64].iter().enumerate() {
            let a = MemoryAccess::load(Pc::new(1), Address::new(*addr), i as u64);
            let set = cache.set_of(a.address);
            let _ = cache.access(&AccessContext::demand(i as u64, &a, set));
        }
    }
}
