//! Re-reference interval prediction: SRRIP, BRRIP and set-dueling DRRIP
//! (Jaleel et al., ISCA 2010).

use cachemind_sim::addr::SetId;
use cachemind_sim::cache::SetView;
use cachemind_sim::replacement::{AccessContext, Decision, ReplacementPolicy};

use crate::features::{PerWayTable, SplitMix64};

const RRPV_MAX: u8 = 3; // 2-bit RRPVs
const RRPV_LONG: u8 = RRPV_MAX - 1;
const PSEL_MAX: i32 = 1023;
const DUEL_MODULUS: usize = 32;

/// Insertion flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RripFlavor {
    /// Static: always insert with a long re-reference interval.
    Srrip,
    /// Bimodal: insert distant, occasionally long.
    Brrip,
    /// Dynamic: set dueling between SRRIP and BRRIP.
    Drrip,
}

/// The RRIP policy family.
///
/// ```rust
/// use cachemind_policies::RripPolicy;
/// use cachemind_sim::replacement::ReplacementPolicy;
/// assert_eq!(RripPolicy::drrip().name(), "drrip");
/// ```
#[derive(Debug, Clone)]
pub struct RripPolicy {
    flavor: RripFlavor,
    rrpv: PerWayTable<u8>,
    rng: SplitMix64,
    /// Policy-selection counter for DRRIP dueling; positive favors BRRIP.
    psel: i32,
}

impl RripPolicy {
    fn with_flavor(flavor: RripFlavor) -> Self {
        RripPolicy {
            flavor,
            rrpv: PerWayTable::new(RRPV_MAX),
            rng: SplitMix64::new(0x5EED_0001),
            psel: 0,
        }
    }

    /// Static RRIP.
    pub fn srrip() -> Self {
        RripPolicy::with_flavor(RripFlavor::Srrip)
    }

    /// Bimodal RRIP.
    pub fn brrip() -> Self {
        RripPolicy::with_flavor(RripFlavor::Brrip)
    }

    /// Dynamic RRIP with set dueling.
    pub fn drrip() -> Self {
        RripPolicy::with_flavor(RripFlavor::Drrip)
    }

    /// Leader-set role for DRRIP dueling.
    fn duel_role(set: SetId) -> DuelRole {
        match set.index() % DUEL_MODULUS {
            0 => DuelRole::SrripLeader,
            1 => DuelRole::BrripLeader,
            _ => DuelRole::Follower,
        }
    }

    fn insertion_rrpv(&mut self, set: SetId) -> u8 {
        let brrip_insert = |rng: &mut SplitMix64| {
            // BRRIP: distant (RRPV_MAX) most of the time, long 1/32 of the time.
            if rng.one_in(32) {
                RRPV_LONG
            } else {
                RRPV_MAX
            }
        };
        match self.flavor {
            RripFlavor::Srrip => RRPV_LONG,
            RripFlavor::Brrip => brrip_insert(&mut self.rng),
            RripFlavor::Drrip => match Self::duel_role(set) {
                DuelRole::SrripLeader => RRPV_LONG,
                DuelRole::BrripLeader => brrip_insert(&mut self.rng),
                DuelRole::Follower => {
                    if self.psel > 0 {
                        brrip_insert(&mut self.rng)
                    } else {
                        RRPV_LONG
                    }
                }
            },
        }
    }

    fn train_duel(&mut self, set: SetId) {
        if self.flavor != RripFlavor::Drrip {
            return;
        }
        // A miss in a leader set is a vote against that leader's flavor.
        match Self::duel_role(set) {
            DuelRole::SrripLeader => self.psel = (self.psel + 1).min(PSEL_MAX),
            DuelRole::BrripLeader => self.psel = (self.psel - 1).max(-PSEL_MAX),
            DuelRole::Follower => {}
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DuelRole {
    SrripLeader,
    BrripLeader,
    Follower,
}

impl ReplacementPolicy for RripPolicy {
    fn name(&self) -> &'static str {
        match self.flavor {
            RripFlavor::Srrip => "srrip",
            RripFlavor::Brrip => "brrip",
            RripFlavor::Drrip => "drrip",
        }
    }

    fn on_hit(&mut self, way: usize, lines: SetView<'_>, ctx: &AccessContext) {
        // Hit promotion: RRPV := 0.
        *self.rrpv.slot_mut(ctx.set, way, lines.len()) = 0;
    }

    fn choose_victim(&mut self, lines: SetView<'_>, ctx: &AccessContext) -> Decision {
        self.train_duel(ctx.set);
        let ways = lines.len();
        // Age until some way reaches RRPV_MAX, then evict the lowest such way.
        loop {
            for way in 0..ways {
                if self.rrpv.slot(ctx.set, way) >= RRPV_MAX {
                    return Decision::Evict(way);
                }
            }
            for way in 0..ways {
                let v = self.rrpv.slot_mut(ctx.set, way, ways);
                *v = v.saturating_add(1).min(RRPV_MAX);
            }
        }
    }

    fn on_fill(&mut self, way: usize, lines: SetView<'_>, ctx: &AccessContext) {
        let insert = self.insertion_rrpv(ctx.set);
        *self.rrpv.slot_mut(ctx.set, way, lines.len()) = insert;
    }

    fn line_scores_into(&self, set: SetId, lines: SetView<'_>, _now: u64, out: &mut Vec<u64>) {
        out.clear();
        out.extend((0..lines.len()).map(|way| {
            if lines.is_valid(way) {
                self.rrpv.slot(set, way) as u64
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
    use cachemind_sim::addr::{Address, Pc};
    use cachemind_sim::config::CacheConfig;
    use cachemind_sim::replacement::RecencyPolicy;
    use cachemind_sim::replay::LlcReplay;

    /// A scanning workload interleaved with a small hot set (touched twice
    /// per repetition so it is promotable): RRIP should protect the hot
    /// lines better than LRU.
    fn scan_with_reuse(hot: u64, scan: u64, reps: u64) -> Vec<MemoryAccess> {
        let mut out = Vec::new();
        let mut idx = 0u64;
        let mut scan_base = 1_000_000u64;
        for _ in 0..reps {
            for _ in 0..2 {
                for h in 0..hot {
                    out.push(MemoryAccess::load(Pc::new(0x400000), Address::new(h * 64), idx));
                    idx += 1;
                }
            }
            for s in 0..scan {
                out.push(MemoryAccess::load(
                    Pc::new(0x400100),
                    Address::new((scan_base + s) * 64),
                    idx,
                ));
                idx += 1;
            }
            scan_base += scan;
        }
        out
    }

    #[test]
    fn srrip_resists_scans_better_than_lru() {
        let cfg = CacheConfig::new("t", 4, 4, 6); // 16 sets x 4 ways
        let s = scan_with_reuse(32, 64, 24);
        let replay = LlcReplay::new(cfg, &s);
        let srrip = replay.run(RripPolicy::srrip());
        let lru = replay.run(RecencyPolicy::lru());
        assert!(
            srrip.stats.hits > lru.stats.hits,
            "srrip {} vs lru {}",
            srrip.stats.hits,
            lru.stats.hits
        );
    }

    #[test]
    fn hit_promotion_protects_reused_lines() {
        let cfg = CacheConfig::new("t", 0, 2, 6);
        // A touched twice, then scan B, C: A should survive the first scan
        // line because its RRPV is 0 while inserts age out first.
        let s: Vec<MemoryAccess> = [1u64, 1, 2, 1]
            .iter()
            .enumerate()
            .map(|(i, &l)| MemoryAccess::load(Pc::new(1), Address::new(l * 64), i as u64))
            .collect();
        let replay = LlcReplay::new(cfg, &s);
        let report = replay.run(RripPolicy::srrip());
        assert!(!report.records[3].is_miss, "A must still be resident");
    }

    #[test]
    fn drrip_psel_moves_on_leader_misses() {
        use cachemind_sim::cache::{LineMeta, SetViewBuf};
        let mut p = RripPolicy::drrip();
        // Misses in the SRRIP leader set (set 0) push PSEL toward BRRIP.
        let lines = SetViewBuf::from_metas(
            &[Some(LineMeta { line: Address::new(0).line(6), inserted_at: 0, last_touch: 0 }); 2],
        );
        let ctx = AccessContext::with_oracle(
            5,
            Pc::new(0x1),
            Address::new(0).line(6),
            SetId::new(0),
            cachemind_sim::access::AccessKind::Load,
            u64::MAX,
        );
        let before = p.psel;
        let _ = p.choose_victim(lines.view(), &ctx);
        assert_eq!(p.psel, before + 1);
    }

    #[test]
    fn aging_always_terminates() {
        let cfg = CacheConfig::new("t", 2, 8, 6);
        let s = scan_with_reuse(8, 32, 4);
        let replay = LlcReplay::new(cfg, &s);
        // Just ensure no hang / panic across flavors.
        for policy in [RripPolicy::srrip(), RripPolicy::brrip(), RripPolicy::drrip()] {
            let _ = replay.run(policy);
        }
    }
}
