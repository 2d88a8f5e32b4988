//! Mockingjay (Shah, Jain & Lin, HPCA 2022) — continuous reuse-distance
//! prediction with estimated-time-remaining (ETR) eviction.
//!
//! A PC-indexed reuse-distance predictor (RDP) estimates how far in the
//! future each accessed line will be reused; every resident line carries an
//! ETR that ticks down as its set is accessed, and the victim is the line
//! with the largest |ETR| (farthest predicted reuse, or most overdue).
//! Training samples come from sampled sets; the paper's §6.3 use case —
//! training the RDP only on *stable* PCs identified by CacheMind — is
//! exposed through [`MockingjayPolicy::with_training_filter`].

use std::collections::{HashMap, HashSet, VecDeque};

use cachemind_sim::addr::{Pc, SetId};
use cachemind_sim::cache::SetView;
use cachemind_sim::replacement::{AccessContext, Decision, ReplacementPolicy};

use crate::features::{feature_bucket, Mix64Build, PerWayTable};

const RDP_BITS: u32 = 12;
const SAMPLE_MODULUS: usize = 4;
/// ETR granularity: one ETR unit per this many set accesses.
const GRANULARITY: u64 = 8;
/// Reuse distance assigned to lines that die unsampled ("infinite").
const INF_RD: f32 = 1e6;
/// EWMA learning rate for RDP updates.
const ALPHA: f32 = 0.3;

/// Per-line ETR state, deliberately 8 bytes: the table is indexed by
/// `(set, way)` in near-random order on every fill, so halving the entry
/// size halves the cache-miss footprint of the hottest policy write.
/// `u32`/`i32` lose nothing: values derive from the per-set access clock
/// (bounded by the stream length) and from RDP predictions (bounded by
/// `INF_RD / GRANULARITY`), both far inside 32 bits.
#[derive(Debug, Clone, Copy, Default)]
struct MjLine {
    /// Predicted reuse distance (set accesses / GRANULARITY) at stamp time.
    etr_base: i32,
    /// Set clock when the ETR was stamped.
    stamped_at: u32,
}

/// Reuse history for one sampled set.
///
/// Eviction victims are the entries with the smallest stamp. Stamps are
/// unique and strictly increasing within a set (one clock tick per set
/// access), so the insertion-ordered `queue` yields the same victim a full
/// `min_by_key` scan over `entries` would — in amortised O(1) instead of
/// O(entries) per overflow. Queue entries superseded by a re-insertion are
/// stale (their stamp no longer matches the map) and are skipped, and
/// dropped once they outnumber the live entries: the queue holds at most
/// twice as many entries as the map.
#[derive(Debug, Clone, Default)]
struct SamplerSet {
    /// line -> (clock stamp, pc sig, pc).
    entries: HashMap<u64, (u64, u32, Pc), Mix64Build>,
    /// (line, clock stamp) in insertion order.
    queue: VecDeque<(u64, u64)>,
}

/// The Mockingjay replacement policy.
#[derive(Debug, Clone)]
pub struct MockingjayPolicy {
    rdp: Vec<f32>,
    line: PerWayTable<MjLine>,
    /// Per-set access clocks, indexed by set and grown on demand.
    clocks: Vec<u64>,
    /// Sampled-set reuse history, indexed by `set / SAMPLE_MODULUS` (only
    /// every `SAMPLE_MODULUS`-th set is sampled) and grown on demand.
    sampler: Vec<SamplerSet>,
    /// When set, only these PCs update the RDP (stable-PC training).
    training_filter: Option<HashSet<Pc>>,
}

impl Default for MockingjayPolicy {
    fn default() -> Self {
        MockingjayPolicy::new()
    }
}

impl MockingjayPolicy {
    /// Creates the policy with an optimistic (short-reuse) prior.
    pub fn new() -> Self {
        MockingjayPolicy {
            rdp: vec![64.0; 1 << RDP_BITS],
            line: PerWayTable::new(MjLine::default()),
            clocks: Vec::new(),
            sampler: Vec::new(),
            training_filter: None,
        }
    }

    /// Restricts RDP training to the given PCs — the CacheMind "stable PC"
    /// use case (§6.3). Lines from other PCs are still predicted and
    /// evicted, but their reuse samples no longer pollute the predictor.
    pub fn with_training_filter(mut self, pcs: impl IntoIterator<Item = Pc>) -> Self {
        self.training_filter = Some(pcs.into_iter().collect());
        self
    }

    /// Whether a training filter is installed.
    pub fn has_training_filter(&self) -> bool {
        self.training_filter.is_some()
    }

    fn sig(pc: Pc) -> u32 {
        feature_bucket(0x0CC1_0EAF, pc.value(), RDP_BITS) as u32
    }

    /// Predicted reuse distance (in set accesses) for a PC.
    pub fn predicted_reuse(&self, pc: Pc) -> f32 {
        self.rdp[Self::sig(pc) as usize]
    }

    fn clock(&mut self, set: SetId) -> u64 {
        self.clocks.get(set.index()).copied().unwrap_or(0)
    }

    fn tick(&mut self, set: SetId) -> u64 {
        if self.clocks.len() <= set.index() {
            self.clocks.resize(set.index() + 1, 0);
        }
        let c = &mut self.clocks[set.index()];
        let now = *c;
        *c += 1;
        now
    }

    fn train(&mut self, sig: u32, pc: Pc, sample: f32) {
        if let Some(filter) = &self.training_filter {
            if !filter.contains(&pc) {
                return;
            }
        }
        let entry = &mut self.rdp[sig as usize];
        *entry += ALPHA * (sample - *entry);
    }

    fn observe_sample(&mut self, ctx: &AccessContext, sig: u32, now: u64, ways: usize) {
        if !ctx.set.index().is_multiple_of(SAMPLE_MODULUS) {
            return;
        }
        let slot = ctx.set.index() / SAMPLE_MODULUS;
        if self.sampler.len() <= slot {
            self.sampler.resize_with(slot + 1, SamplerSet::default);
        }
        // At most two training samples per observation (a reuse and an
        // expiry), collected in a fixed pair so the hot path never
        // allocates.
        let mut pending: [Option<(u32, Pc, f32)>; 2] = [None, None];
        {
            let sampler = &mut self.sampler[slot];
            if let Some((prev, prev_sig, prev_pc)) =
                sampler.entries.insert(ctx.line.value(), (now, sig, ctx.pc))
            {
                pending[0] = Some((prev_sig, prev_pc, (now - prev) as f32));
            }
            sampler.queue.push_back((ctx.line.value(), now));
            // Bound the sampler; expiring entries train toward "infinite"
            // reuse. The queue front is the oldest live entry — the victim
            // a min-stamp scan would select (stamps are unique, so the
            // minimum is unambiguous).
            if sampler.entries.len() > 8 * ways {
                while let Some((line, stamp)) = sampler.queue.pop_front() {
                    match sampler.entries.get(&line) {
                        Some(&(cur, v_sig, v_pc)) if cur == stamp => {
                            sampler.entries.remove(&line);
                            pending[1] = Some((v_sig, v_pc, INF_RD));
                            break;
                        }
                        _ => {} // stale: superseded by a later re-insertion
                    }
                }
            }
            // Drop the stale entries once they outnumber the live ones, so
            // a set whose lines stay within the bound cannot grow the queue
            // by one entry per access. `retain` keeps the order, and the
            // pop loop skips stale entries anyway, so victims are unchanged.
            if sampler.queue.len() > 2 * sampler.entries.len() {
                let entries = &sampler.entries;
                sampler
                    .queue
                    .retain(|(line, stamp)| entries.get(line).is_some_and(|e| e.0 == *stamp));
            }
        }
        for (sig, pc, sample) in pending.into_iter().flatten() {
            self.train(sig, pc, sample);
        }
    }

    fn stamp(&mut self, way: usize, ways: usize, ctx: &AccessContext, sig: u32, now: u64) {
        let predicted = self.rdp[sig as usize];
        let etr_base = (predicted / GRANULARITY as f32).round() as i32;
        *self.line.slot_mut(ctx.set, way, ways) = MjLine { etr_base, stamped_at: now as u32 };
    }

    fn current_etr(&self, set: SetId, way: usize, now: u64) -> i64 {
        let state = self.line.slot(set, way);
        let elapsed = (now.saturating_sub(state.stamped_at as u64) / GRANULARITY) as i64;
        state.etr_base as i64 - elapsed
    }
}

impl ReplacementPolicy for MockingjayPolicy {
    fn name(&self) -> &'static str {
        "mockingjay"
    }

    fn on_hit(&mut self, way: usize, lines: SetView<'_>, ctx: &AccessContext) {
        let ways = lines.len();
        let now = self.tick(ctx.set);
        let sig = Self::sig(ctx.pc);
        self.observe_sample(ctx, sig, now, ways);
        self.stamp(way, ways, ctx, sig, now);
    }

    fn choose_victim(&mut self, lines: SetView<'_>, ctx: &AccessContext) -> Decision {
        let now = self.clock(ctx.set);
        let victim = (0..lines.len())
            .filter(|&w| lines.is_valid(w))
            .max_by_key(|&w| self.current_etr(ctx.set, w, now).unsigned_abs())
            .expect("set cannot be empty in choose_victim");
        Decision::Evict(victim)
    }

    fn on_fill(&mut self, way: usize, lines: SetView<'_>, ctx: &AccessContext) {
        let ways = lines.len();
        let now = self.tick(ctx.set);
        let sig = Self::sig(ctx.pc);
        self.observe_sample(ctx, sig, now, ways);
        self.stamp(way, ways, ctx, sig, now);
    }

    fn line_scores_into(&self, set: SetId, lines: SetView<'_>, _now: u64, out: &mut Vec<u64>) {
        let now = self.clocks.get(set.index()).copied().unwrap_or(0);
        out.clear();
        out.extend((0..lines.len()).map(|way| {
            if lines.is_valid(way) {
                self.current_etr(set, way, now).unsigned_abs()
            } else {
                u64::MAX
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_sim::access::MemoryAccess;
    use cachemind_sim::addr::Address;
    use cachemind_sim::config::CacheConfig;
    use cachemind_sim::replacement::RecencyPolicy;
    use cachemind_sim::replay::LlcReplay;

    /// Tight reuse from one PC (spread over all four sets), long-distance
    /// scans from another; set 0 is a sampled set (index % 4 == 0).
    fn workload(reps: u64) -> Vec<MemoryAccess> {
        let mut out = Vec::new();
        let mut idx = 0;
        let mut cold = 1u64 << 21;
        for _ in 0..reps {
            for _ in 0..2 {
                for h in 0..8u64 {
                    out.push(MemoryAccess::load(Pc::new(0x11_0000), Address::new(h * 64), idx));
                    idx += 1;
                }
            }
            for _ in 0..16u64 {
                out.push(MemoryAccess::load(Pc::new(0x22_0000), Address::new(cold * 64), idx));
                cold += 1;
                idx += 1;
            }
        }
        out
    }

    #[test]
    fn rdp_learns_short_reuse_for_hot_pc() {
        let cfg = CacheConfig::new("t", 2, 4, 6);
        let s = workload(64);
        let replay = LlcReplay::new(cfg.clone(), &s);
        use cachemind_sim::cache::SetAssociativeCache;
        let mut cache = SetAssociativeCache::new(cfg, MockingjayPolicy::new());
        for (i, a) in replay.stream().iter().enumerate() {
            let set = cache.set_of(a.address);
            let mut ctx = cachemind_sim::replacement::AccessContext::demand(i as u64, a, set);
            ctx.next_use = Some(u64::MAX);
            let _ = cache.access(&ctx);
        }
        let hot = cache.policy().predicted_reuse(Pc::new(0x11_0000));
        let cold = cache.policy().predicted_reuse(Pc::new(0x22_0000));
        assert!(hot < cold, "hot RDP {hot} should be below cold RDP {cold}");
    }

    #[test]
    fn mockingjay_beats_lru_on_scans() {
        let cfg = CacheConfig::new("t", 2, 4, 6);
        let s = workload(48);
        let replay = LlcReplay::new(cfg, &s);
        let mj = replay.run(MockingjayPolicy::new());
        let lru = replay.run(RecencyPolicy::lru());
        assert!(
            mj.stats.hits > lru.stats.hits,
            "mockingjay {} vs lru {}",
            mj.stats.hits,
            lru.stats.hits
        );
    }

    /// A sampled set whose few lines keep hitting re-inserts the same map
    /// keys forever; the queue must stay within twice the live entries
    /// instead of growing by one entry per access.
    #[test]
    fn sampler_queue_stays_bounded_on_a_small_working_set() {
        use cachemind_sim::cache::SetAssociativeCache;
        let mut cache =
            SetAssociativeCache::new(CacheConfig::new("t", 0, 4, 6), MockingjayPolicy::new());
        for i in 0..20_000u64 {
            let a = MemoryAccess::load(Pc::new(0x42), Address::new(i % 3 * 64), i);
            let set = cache.set_of(a.address);
            let _ = cache.access(&AccessContext::with_oracle(
                i,
                a.pc,
                a.address.line(6),
                set,
                a.kind,
                u64::MAX,
            ));
        }
        let sampler = &cache.policy().sampler[0];
        assert_eq!(sampler.entries.len(), 3);
        assert!(sampler.queue.len() <= 2 * 3, "queue holds {} entries", sampler.queue.len());
    }

    #[test]
    fn training_filter_is_respected() {
        let mut p = MockingjayPolicy::new().with_training_filter([Pc::new(0x1)]);
        assert!(p.has_training_filter());
        let before = p.rdp[MockingjayPolicy::sig(Pc::new(0x999)) as usize];
        p.train(MockingjayPolicy::sig(Pc::new(0x999)), Pc::new(0x999), 1000.0);
        let after = p.rdp[MockingjayPolicy::sig(Pc::new(0x999)) as usize];
        assert_eq!(before, after, "filtered PC must not train");
        let sig1 = MockingjayPolicy::sig(Pc::new(0x1));
        let before = p.rdp[sig1 as usize];
        p.train(sig1, Pc::new(0x1), 1000.0);
        assert!(p.rdp[sig1 as usize] > before, "allowed PC must train");
    }

    #[test]
    fn etr_ticks_down_with_set_accesses() {
        let mut p = MockingjayPolicy::new();
        let set = SetId::new(0);
        let ctx = AccessContext::with_oracle(
            0,
            Pc::new(0x42),
            Address::new(0).line(6),
            set,
            cachemind_sim::access::AccessKind::Load,
            u64::MAX,
        );
        let lines = cachemind_sim::cache::SetViewBuf::new(4);
        p.on_fill(0, lines.view(), &ctx);
        let now0 = p.clock(set);
        let etr0 = p.current_etr(set, 0, now0);
        // Advance the set clock a lot.
        for _ in 0..(GRANULARITY * 10) {
            p.tick(set);
        }
        let now1 = p.clock(set);
        let etr1 = p.current_etr(set, 0, now1);
        assert!(etr1 < etr0);
    }
}
