//! LLC replay with full eviction annotation — the producer of the paper's
//! per-access trace schema (§4.3).
//!
//! [`LlcReplay`] replays a captured LLC access stream against one
//! replacement policy and emits an [`EvictionRecord`] per access carrying:
//! hit/miss outcome, miss taxonomy (compulsory/capacity/conflict, via a
//! fully-associative LRU shadow cache), the evicted line and its reuse
//! distance, and the accessed line's reuse distance and recency. A record
//! owns no heap memory.
//!
//! The paper's set-snapshot columns (resident lines, recent access history,
//! per-line eviction scores) are not recorded: the replay is deterministic,
//! so the state of set S before access i is exactly what replaying the
//! stream prefix `..i` through [`SetAssociativeCache::set_view`] and
//! [`ReplacementPolicy::line_scores_into`] shows.
//!
//! The replay loop is allocation-free in steady state: line addresses are
//! pre-split into `(LineAddr, SetId)` at construction, and the shadow cache
//! and the resident-next-use table are flat arrays indexed by the oracle's
//! dense line ids (no per-access hashing). [`LlcReplay::run_summary`]
//! additionally skips record emission entirely for consumers (like the
//! sweep engine) that only need the aggregate counters — see
//! `docs/PERFORMANCE.md`.

use serde::{Deserialize, Serialize};

use crate::access::{AccessKind, MemoryAccess};
use crate::addr::{Address, Pc, SetId};
use crate::cache::SetAssociativeCache;
use crate::config::CacheConfig;
use crate::replacement::{AccessContext, ReplacementPolicy};
use crate::reuse::{ReuseOracle, NEVER};
use crate::stats::CacheStats;

/// Miss taxonomy, as the paper's `miss_type` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MissType {
    /// First touch of the line anywhere in the stream.
    Compulsory,
    /// Would also miss in a fully-associative cache of the same capacity.
    Capacity,
    /// Hits in the fully-associative shadow but missed here: a set-mapping
    /// artefact.
    Conflict,
}

impl MissType {
    /// The label used in trace text ("Capacity", "Conflict", "Compulsory").
    pub const fn label(self) -> &'static str {
        match self {
            MissType::Compulsory => "Compulsory",
            MissType::Capacity => "Capacity",
            MissType::Conflict => "Conflict",
        }
    }
}

/// One fully-annotated LLC access — the row type of the external trace
/// database, stored there as the replay emits it. Field docs name the
/// paper's dataframe column each one fills. A record owns no heap memory.
///
/// The text columns that derive from the PC (`function_name`,
/// `function_code`, `assembly_code`) are not stored per record: the trace
/// database joins them from the workload's program image on demand. Nor
/// are the set-snapshot columns, which the deterministic replay reproduces
/// (see the module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvictionRecord {
    /// Position within the LLC stream.
    pub index: u64,
    /// `program_counter`: the PC issuing the access.
    pub pc: Pc,
    /// `memory_address`: the full byte address accessed.
    pub address: Address,
    /// Access kind (load/store/fetch/prefetch) — the "access types"
    /// dimension the paper's gem5 extension adds.
    pub kind: crate::access::AccessKind,
    /// `cache_set_id`: the cache set the access mapped to.
    pub set: SetId,
    /// `is_miss` (and the textual `evict` column, [`Self::evict_label`]).
    pub is_miss: bool,
    /// `miss_type`: the miss taxonomy (misses only).
    pub miss_type: Option<MissType>,
    /// `evicted_address`: the line evicted by this access, if any
    /// (reconstructed byte address).
    pub evicted_address: Option<Address>,
    /// `accessed_address_reuse_distance_numeric`: forward reuse distance of
    /// the accessed line (accesses until needed again; `None` = never
    /// needed again).
    pub accessed_reuse_distance: Option<u64>,
    /// `evicted_address_reuse_distance_numeric`: forward reuse distance of
    /// the evicted line at eviction time.
    pub evicted_reuse_distance: Option<u64>,
    /// `accessed_address_recency_numeric`: accesses since the accessed line
    /// was last touched (`None` = first touch).
    pub recency: Option<u64>,
    /// Whether the policy bypassed the fill.
    pub bypassed: bool,
}

impl EvictionRecord {
    /// The textual `evict` column value ("Cache Hit"/"Cache Miss").
    pub fn evict_label(&self) -> &'static str {
        if self.is_miss {
            "Cache Miss"
        } else {
            "Cache Hit"
        }
    }

    /// Qualitative recency label, matching the paper's textual
    /// `accessed_address_recency` column ("first access", "very recent",
    /// "recent", "distant", "very distant").
    pub fn recency_label(&self) -> &'static str {
        match self.recency {
            None => "first access",
            Some(d) if d <= 64 => "very recent",
            Some(d) if d <= 1024 => "recent",
            Some(d) if d <= 16384 => "distant",
            Some(_) => "very distant",
        }
    }

    /// The textual `miss_type` column value (empty for a hit).
    pub fn miss_type_label(&self) -> &'static str {
        self.miss_type.map_or("", MissType::label)
    }
}

/// Aggregate results of one policy replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Stable policy name (`"lru"`, `"belady"`, ...).
    pub policy: String,
    /// Per-access records (empty from [`LlcReplay::run_summary`]).
    pub records: Vec<EvictionRecord>,
    /// Aggregate counters.
    pub stats: CacheStats,
    /// Evictions where the evicted line was needed *sooner* than the
    /// inserted line (the paper's "wrong evictions").
    pub wrong_evictions: u64,
    /// Capacity-miss count.
    pub capacity_misses: u64,
    /// Conflict-miss count.
    pub conflict_misses: u64,
    /// Compulsory-miss count.
    pub compulsory_misses: u64,
    /// Prefetch accesses that filled a line (prefetch misses, not
    /// bypassed).
    pub prefetch_fills: u64,
    /// Demand hits served from a still-pending prefetched line: a prefetch
    /// fill marks its line pending, and an eviction or any other demand
    /// access to the line clears it.
    pub useful_prefetches: u64,
}

impl ReplayReport {
    /// Miss rate over the replayed stream.
    pub fn miss_rate(&self) -> f64 {
        self.stats.miss_rate()
    }

    /// Hit rate over the replayed stream.
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// Fraction of evictions that were "wrong" in the paper's sense.
    pub fn wrong_eviction_rate(&self) -> f64 {
        if self.stats.evictions == 0 {
            0.0
        } else {
            self.wrong_evictions as f64 / self.stats.evictions as f64
        }
    }

    /// Pearson correlation between accessed-address recency and miss
    /// outcome, as reported in the paper's metadata string. Records without
    /// a recency value (first touches) are excluded.
    pub fn recency_miss_correlation(&self) -> f64 {
        let pairs: Vec<(f64, f64)> = self
            .records
            .iter()
            .filter_map(|r| r.recency.map(|rec| (rec as f64, r.is_miss as u8 as f64)))
            .collect();
        pearson(&pairs)
    }
}

fn pearson(pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let (sx, sy): (f64, f64) = pairs.iter().fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (mx, my) = (sx / n, sy / n);
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for &(x, y) in pairs {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        0.0
    } else {
        cov / (vx.sqrt() * vy.sqrt())
    }
}

const NIL: u32 = u32::MAX;

/// A fully-associative LRU shadow cache used to split capacity from conflict
/// misses. An intrusive doubly-linked list over the oracle's dense line ids
/// (LRU at `head`, MRU at `tail`): O(1) per access, no hashing, no
/// allocation after construction. Semantically identical to the former
/// `HashMap`+`BTreeMap` implementation — each touch moves the line to the
/// MRU end and the LRU end is evicted past capacity.
#[derive(Debug)]
struct ShadowFaLru {
    capacity: usize,
    prev: Vec<u32>,
    next: Vec<u32>,
    resident: Vec<bool>,
    head: u32,
    tail: u32,
    len: usize,
}

impl ShadowFaLru {
    fn new(capacity: usize, num_lines: u32) -> Self {
        let n = num_lines as usize;
        ShadowFaLru {
            capacity,
            prev: vec![NIL; n],
            next: vec![NIL; n],
            resident: vec![false; n],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    fn unlink(&mut self, id: u32) {
        let (p, n) = (self.prev[id as usize], self.next[id as usize]);
        if p != NIL {
            self.next[p as usize] = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.prev[n as usize] = p;
        } else {
            self.tail = p;
        }
    }

    fn push_tail(&mut self, id: u32) {
        self.prev[id as usize] = self.tail;
        self.next[id as usize] = NIL;
        if self.tail != NIL {
            self.next[self.tail as usize] = id;
        } else {
            self.head = id;
        }
        self.tail = id;
    }

    /// Touches line `id`; returns whether it was present.
    fn touch(&mut self, id: u32) -> bool {
        let present = self.resident[id as usize];
        if present {
            self.unlink(id);
            self.push_tail(id);
        } else {
            self.resident[id as usize] = true;
            self.push_tail(id);
            self.len += 1;
            if self.len > self.capacity {
                let victim = self.head;
                self.unlink(victim);
                self.resident[victim as usize] = false;
                self.len -= 1;
            }
        }
        present
    }
}

/// Replays an LLC access stream against a replacement policy, producing the
/// fully-annotated trace.
///
/// # Example
///
/// ```rust
/// use cachemind_sim::prelude::*;
///
/// let stream = vec![
///     MemoryAccess::load(Pc::new(0x401000), Address::new(0x0000), 0),
///     MemoryAccess::load(Pc::new(0x401000), Address::new(0x0000), 1),
/// ];
/// let replay = LlcReplay::new(CacheConfig::small_llc(), &stream);
/// let report = replay.run(RecencyPolicy::lru());
/// assert_eq!(report.records.len(), 2);
/// assert!(report.records[1].is_miss == false);
/// ```
#[derive(Debug)]
pub struct LlcReplay {
    config: CacheConfig,
    stream: Vec<MemoryAccess>,
    oracle: ReuseOracle,
    /// Pre-split set index of every access under `config` — computed once
    /// at construction and shared by every policy replay.
    sets: Vec<SetId>,
    /// Per-access shadow FA-LRU residency (`true` = the line was present in
    /// a fully-associative LRU cache of the same capacity when accessed).
    /// The shadow's evolution depends only on the stream and the geometry —
    /// never on the replayed policy — so it is computed once here and
    /// shared by every policy replay instead of being re-simulated per
    /// cell.
    in_shadow: Vec<bool>,
}

impl LlcReplay {
    /// Prepares a replay of `stream` under the given LLC geometry, building
    /// the reuse oracle (and the per-access `(LineAddr, SetId)` split)
    /// internally.
    pub fn new(config: CacheConfig, stream: &[MemoryAccess]) -> Self {
        Self::from_stream(config, stream.to_vec())
    }

    /// Like [`LlcReplay::new`], but takes ownership of the stream — callers
    /// that already hold an owned LLC stream (the hierarchy filter) avoid a
    /// full copy.
    pub fn from_stream(config: CacheConfig, stream: Vec<MemoryAccess>) -> Self {
        let oracle = ReuseOracle::from_accesses(&stream, config.line_size_log2);
        let sets = (0..oracle.len()).map(|i| oracle.line(i).set(config.sets_log2)).collect();
        let mut shadow = ShadowFaLru::new(config.capacity_lines(), oracle.num_lines());
        let in_shadow = (0..oracle.len()).map(|i| shadow.touch(oracle.line_id(i))).collect();
        LlcReplay { config, stream, oracle, sets, in_shadow }
    }

    /// The reuse oracle for the prepared stream.
    pub fn oracle(&self) -> &ReuseOracle {
        &self.oracle
    }

    /// The prepared LLC stream.
    pub fn stream(&self) -> &[MemoryAccess] {
        &self.stream
    }

    /// Runs the replay with `policy`, consuming nothing so multiple policies
    /// can replay the identical stream.
    pub fn run<P: ReplacementPolicy>(&self, policy: P) -> ReplayReport {
        self.run_core::<P, true>(policy)
    }

    /// Runs the replay without materialising per-access records — the
    /// fast path for consumers that only reduce to aggregates (the sweep
    /// engine). Every counter is identical to [`LlcReplay::run`]'s; only
    /// `records` is left empty.
    pub fn run_summary<P: ReplacementPolicy>(&self, policy: P) -> ReplayReport {
        self.run_core::<P, false>(policy)
    }

    /// The shared replay core. `EMIT` selects full record emission (the
    /// trace-producing path) or the record-free summary path; both drive
    /// the cache and the wrong-eviction accounting identically (and read
    /// the same precomputed shadow residency), so every counter agrees
    /// between the two.
    fn run_core<P: ReplacementPolicy, const EMIT: bool>(&self, policy: P) -> ReplayReport {
        let policy_name = policy.name().to_owned();
        let mut cache = SetAssociativeCache::new(self.config.clone(), policy);
        let n = self.stream.len();
        let num_lines = self.oracle.num_lines();
        let ways = self.config.ways;
        let line_bits = self.config.line_size_log2;

        // Next-use index of every currently-resident line (by dense line
        // id), refreshed on access; NEVER doubles as "not resident".
        let mut resident_next_use: Vec<u64> = vec![NEVER; num_lines as usize];
        // Dense line id currently occupying each (set, way) slot, maintained
        // on fills — turns an eviction outcome into a line id without a
        // reverse map. Slots are only read after an eviction, which implies
        // an earlier fill wrote them.
        let mut way_line_id: Vec<u32> = vec![NIL; self.config.capacity_lines()];
        // Streaming prefetch-usefulness state: whether each line holds a
        // prefetch no demand access has consumed yet.
        let mut pending: Vec<bool> = vec![false; num_lines as usize];

        let mut records = Vec::with_capacity(if EMIT { n } else { 0 });
        let mut wrong_evictions = 0;
        let mut capacity_misses = 0;
        let mut conflict_misses = 0;
        let mut compulsory_misses = 0;
        let mut prefetch_fills = 0;
        let mut useful_prefetches = 0;

        for (i, access) in self.stream.iter().enumerate() {
            let idx = i as u64;
            let line = self.oracle.line(i);
            let lid = self.oracle.line_id(i) as usize;
            let set = self.sets[i];
            let next_use = self.oracle.next_use(i);

            // Miss classification uses the precomputed shadow residency
            // (the shadow state before this access touched it).
            let first_touch = self.oracle.is_first_touch(i);
            let in_shadow = self.in_shadow[i];

            let ctx = AccessContext::with_oracle(idx, access.pc, line, set, access.kind, next_use);
            let outcome = cache.access(&ctx);

            let miss_type = if outcome.hit {
                None
            } else if first_touch {
                compulsory_misses += 1;
                Some(MissType::Compulsory)
            } else if in_shadow {
                conflict_misses += 1;
                Some(MissType::Conflict)
            } else {
                capacity_misses += 1;
                Some(MissType::Capacity)
            };

            // Eviction bookkeeping against the oracle.
            let mut evicted_address = None;
            let mut evicted_reuse_distance = None;
            let mut evicted_id = NIL;
            if let Some(evicted) = &outcome.evicted {
                let way = outcome.way.expect("an eviction implies a fill way");
                evicted_id = way_line_id[set.index() * ways + way];
                if EMIT {
                    evicted_address = Some(evicted.line.base_address(line_bits));
                }
                let ev_next = resident_next_use[evicted_id as usize];
                resident_next_use[evicted_id as usize] = NEVER;
                if ev_next != NEVER {
                    let dist = ev_next - idx;
                    evicted_reuse_distance = Some(dist);
                    // "Wrong" eviction: the victim was needed sooner than
                    // the line we inserted.
                    if ev_next < next_use {
                        wrong_evictions += 1;
                    }
                }
            }
            if !outcome.bypassed {
                if let Some(way) = outcome.way {
                    way_line_id[set.index() * ways + way] = lid as u32;
                }
                resident_next_use[lid] = next_use;
            }

            if EMIT {
                records.push(EvictionRecord {
                    index: idx,
                    pc: access.pc,
                    address: access.address,
                    kind: access.kind,
                    set,
                    is_miss: !outcome.hit,
                    miss_type,
                    evicted_address,
                    accessed_reuse_distance: self.oracle.forward_reuse_distance(i),
                    evicted_reuse_distance,
                    recency: self.oracle.recency(i),
                    bypassed: outcome.bypassed,
                });
            }

            // Prefetch usefulness: the eviction clears its pending line,
            // then the access either fills (prefetch miss), consumes
            // (demand hit on pending) or clears (other demand) its line.
            if evicted_id != NIL {
                pending[evicted_id as usize] = false;
            }
            if access.kind == AccessKind::Prefetch {
                if !outcome.hit && !outcome.bypassed {
                    prefetch_fills += 1;
                    pending[lid] = true;
                }
            } else if outcome.hit && pending[lid] {
                useful_prefetches += 1;
                pending[lid] = false;
            } else {
                pending[lid] = false;
            }
        }

        ReplayReport {
            policy: policy_name,
            records,
            stats: *cache.stats(),
            wrong_evictions,
            capacity_misses,
            conflict_misses,
            compulsory_misses,
            prefetch_fills,
            useful_prefetches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::RecencyPolicy;

    fn stream(addrs: &[u64]) -> Vec<MemoryAccess> {
        addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                MemoryAccess::load(Pc::new(0x400000 + i as u64), Address::new(a), i as u64)
            })
            .collect()
    }

    #[test]
    fn records_match_stream_length() {
        let s = stream(&[0x0, 0x40, 0x0, 0x80]);
        let replay = LlcReplay::new(CacheConfig::small_llc(), &s);
        let report = replay.run(RecencyPolicy::lru());
        assert_eq!(report.records.len(), 4);
        assert_eq!(report.policy, "lru");
    }

    #[test]
    fn first_touches_are_compulsory() {
        let s = stream(&[0x0, 0x40, 0x0]);
        let replay = LlcReplay::new(CacheConfig::small_llc(), &s);
        let report = replay.run(RecencyPolicy::lru());
        assert_eq!(report.records[0].miss_type, Some(MissType::Compulsory));
        assert_eq!(report.records[1].miss_type, Some(MissType::Compulsory));
        assert_eq!(report.records[2].miss_type, None); // hit
        assert_eq!(report.compulsory_misses, 2);
    }

    #[test]
    fn conflict_vs_capacity_classification() {
        // Direct-mapped single-set cache (1 set x 1 way): two alternating
        // lines conflict; the FA shadow of capacity 1 also evicts, so the
        // taxonomy depends on shadow residency.
        let cfg = CacheConfig::new("tiny", 0, 1, 6);
        let s = stream(&[0x0, 0x40, 0x0, 0x40]);
        let replay = LlcReplay::new(cfg, &s);
        let report = replay.run(RecencyPolicy::lru());
        // With equal capacities every non-compulsory miss is capacity.
        assert_eq!(report.conflict_misses, 0);
        assert_eq!(report.capacity_misses, 2);

        // Two-set direct-mapped cache where both lines land in set 0 while a
        // FA cache of capacity 2 would hold both: conflict misses.
        let cfg = CacheConfig::new("dm2", 1, 1, 6);
        let s = stream(&[0x000, 0x080, 0x000, 0x080]); // lines 0 and 2, both set 0
        let replay = LlcReplay::new(cfg, &s);
        let report = replay.run(RecencyPolicy::lru());
        assert_eq!(report.conflict_misses, 2);
        assert_eq!(report.capacity_misses, 0);
    }

    #[test]
    fn taxonomy_hand_built_trace_has_known_classification() {
        // Capacity side: 2 sets x 1 way, 64 B lines => capacity 2 lines; the
        // FA LRU shadow also holds 2 lines and is touched on hits too.
        // Lines: A=0x000 (set 0), B=0x040 (set 1), C=0x080 (set 0).
        //
        //   idx access  sa-cache          fa-shadow (cap 2)   expected
        //   0   A       miss (cold)       {A}                 Compulsory
        //   1   B       miss (cold)       {A,B}               Compulsory
        //   2   C       miss, evicts A    {B,C} (A out)       Compulsory
        //   3   A       miss (set 0 = C)  {C,A} (B out)       Capacity
        //   4   B       hit  (set 1)      {A,B} (C out)       -
        //   5   C       miss (set 0 = A)  {B,C} (A out)       Capacity
        let cfg = CacheConfig::new("t", 1, 1, 6);
        let s = stream(&[0x000, 0x040, 0x080, 0x000, 0x040, 0x080]);
        let report = LlcReplay::new(cfg, &s).run(RecencyPolicy::lru());
        let expected = [
            Some(MissType::Compulsory),
            Some(MissType::Compulsory),
            Some(MissType::Compulsory),
            Some(MissType::Capacity),
            None,
            Some(MissType::Capacity),
        ];
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(report.records[i].miss_type, *want, "access {i}");
        }
        assert_eq!(report.compulsory_misses, 3);
        assert_eq!(report.capacity_misses, 2);
        assert_eq!(report.conflict_misses, 0);
        assert_eq!(report.stats.hits, 1);

        // Conflict side: 2 sets x 2 ways => capacity 4 lines, but the three
        // even lines A=0x000, B=0x080, C=0x100 all map to set 0 and thrash
        // its 2 ways, while the FA shadow (cap 4) retains all three: every
        // post-cold miss is a set-mapping artefact.
        let cfg = CacheConfig::new("t", 1, 2, 6);
        let s = stream(&[0x000, 0x080, 0x100, 0x000, 0x080, 0x100]);
        let report = LlcReplay::new(cfg, &s).run(RecencyPolicy::lru());
        for i in 0..3 {
            assert_eq!(report.records[i].miss_type, Some(MissType::Compulsory), "access {i}");
        }
        for i in 3..6 {
            assert_eq!(report.records[i].miss_type, Some(MissType::Conflict), "access {i}");
        }
        assert_eq!(report.compulsory_misses, 3);
        assert_eq!(report.conflict_misses, 3);
        assert_eq!(report.capacity_misses, 0);
        assert_eq!(report.stats.hits, 0);
    }

    #[test]
    fn taxonomy_counters_equal_record_census() {
        // Counters must agree with a recount over the per-access records on
        // a mixed stream (reuse + streaming + conflicts).
        let addrs: Vec<u64> =
            (0..200u64).map(|i| if i % 3 == 0 { (i % 8) * 64 } else { i * 128 }).collect();
        let report = LlcReplay::new(CacheConfig::new("t", 2, 2, 6), &stream(&addrs))
            .run(RecencyPolicy::lru());
        let census =
            |t: MissType| report.records.iter().filter(|r| r.miss_type == Some(t)).count() as u64;
        assert_eq!(report.compulsory_misses, census(MissType::Compulsory));
        assert_eq!(report.capacity_misses, census(MissType::Capacity));
        assert_eq!(report.conflict_misses, census(MissType::Conflict));
        assert_eq!(
            report.stats.misses,
            report.compulsory_misses + report.capacity_misses + report.conflict_misses
        );
    }

    #[test]
    fn eviction_annotation_reports_victim_and_distances() {
        let cfg = CacheConfig::new("tiny", 0, 1, 6);
        // A, B (evicts A; A needed again at index 2 => evicted_reuse 2-1=1,
        // wrong because B is never reused), A.
        let s = stream(&[0x0, 0x40, 0x0]);
        let replay = LlcReplay::new(cfg, &s);
        let report = replay.run(RecencyPolicy::lru());
        let rec = &report.records[1];
        assert_eq!(rec.evicted_address, Some(Address::new(0x0)));
        assert_eq!(rec.evicted_reuse_distance, Some(1));
        assert_eq!(report.wrong_evictions, 1);
    }

    #[test]
    fn records_own_no_heap_memory() {
        assert!(!std::mem::needs_drop::<EvictionRecord>());
    }

    #[test]
    fn labels_match_paper_vocabulary() {
        let report = LlcReplay::new(CacheConfig::small_llc(), &stream(&[0x0, 0x0]))
            .run(RecencyPolicy::lru());
        let (miss, hit) = (report.records[0].clone(), report.records[1].clone());
        assert_eq!((miss.evict_label(), hit.evict_label()), ("Cache Miss", "Cache Hit"));
        assert_eq!((miss.miss_type_label(), hit.miss_type_label()), ("Compulsory", ""));
        let capacity = EvictionRecord { miss_type: Some(MissType::Capacity), ..miss.clone() };
        assert_eq!(capacity.miss_type_label(), "Capacity");
    }

    #[test]
    fn recency_labels_are_ordered() {
        let report = LlcReplay::new(CacheConfig::small_llc(), &stream(&[0x0, 0x0]))
            .run(RecencyPolicy::lru());
        let (first, again) = (&report.records[0], &report.records[1]);
        assert_eq!((first.recency_label(), again.recency_label()), ("first access", "very recent"));
        // Each recency bucket at its inclusive upper bound, then one past it.
        for (recency, label) in [
            (None, "first access"),
            (Some(64), "very recent"),
            (Some(65), "recent"),
            (Some(1024), "recent"),
            (Some(1025), "distant"),
            (Some(16384), "distant"),
            (Some(16385), "very distant"),
        ] {
            assert_eq!(EvictionRecord { recency, ..again.clone() }.recency_label(), label);
        }
    }

    #[test]
    fn correlation_is_bounded() {
        let s = stream(&(0..256u64).map(|i| (i % 32) * 64).collect::<Vec<_>>());
        let replay = LlcReplay::new(CacheConfig::new("t", 1, 2, 6), &s);
        let report = replay.run(RecencyPolicy::lru());
        let c = report.recency_miss_correlation();
        assert!((-1.0..=1.0).contains(&c));
    }

    /// The prefetch-usefulness oracle: walks a replay's records, returning
    /// `(fills, useful)`. A prefetch *fill* (prefetch miss) marks its line
    /// pending; a demand hit on a pending line is a *useful* prefetch;
    /// eviction or any other demand access clears the line.
    fn prefetch_usefulness(records: &[EvictionRecord], line_bits: u32) -> (u64, u64) {
        let mut pending = std::collections::HashSet::new();
        let mut fills = 0u64;
        let mut useful = 0u64;
        for r in records {
            if let Some(evicted) = r.evicted_address {
                pending.remove(&(evicted.value() >> line_bits));
            }
            let line = r.address.value() >> line_bits;
            if r.kind == AccessKind::Prefetch {
                if r.is_miss && !r.bypassed {
                    fills += 1;
                    pending.insert(line);
                }
            } else if !r.is_miss && pending.remove(&line) {
                useful += 1;
            } else {
                pending.remove(&line);
            }
        }
        (fills, useful)
    }

    /// The record-free path must reproduce every counter of the full path,
    /// and both paths' streaming prefetch usefulness must equal the record
    /// walk: on a hand-mixed demand/prefetch stream with evictions and
    /// churn, and on a demand stream rewritten by the stride and next-line
    /// prefetchers.
    #[test]
    fn summary_matches_full_run() {
        use crate::prefetch::{Prefetcher, PrefetcherKind};

        let mut mixed = Vec::new();
        for i in 0..400u64 {
            let pc = Pc::new(0x400000 + (i % 5));
            // Prefetch a fresh line, consume it with a demand load on the
            // next access (useful prefetch), and otherwise churn a working
            // set (16 lines) larger than capacity (8 lines) so evictions
            // clear pending prefetches and exercise the miss taxonomy.
            mixed.push(match i % 5 {
                0 => MemoryAccess::prefetch(pc, Address::new((1000 + i) * 64), i),
                1 => MemoryAccess::load(pc, Address::new((1000 + i - 1) * 64), i),
                _ => MemoryAccess::load(pc, Address::new((i % 16) * 64), i),
            });
        }
        // Two strided walks (two lines and one line per step, one PC each)
        // interleaved with a small hot set.
        let demand: Vec<MemoryAccess> = (0..600u64)
            .map(|i| {
                let k = i / 3;
                match i % 3 {
                    0 => MemoryAccess::load(Pc::new(0x401000), Address::new(k * 128), i),
                    1 => MemoryAccess::load(Pc::new(0x401100), Address::new(0x10_0000 + k * 64), i),
                    _ => MemoryAccess::load(Pc::new(0x401200), Address::new((k % 6) * 64), i),
                }
            })
            .collect();
        // The transformed streams replay on 16 lines, enough for a
        // prefetched line to survive until its demand access.
        let streams = [
            (mixed, CacheConfig::new("t", 2, 2, 6)),
            (
                Prefetcher::new(PrefetcherKind::Stride { degree: 4 }).transform(&demand),
                CacheConfig::new("t", 2, 4, 6),
            ),
            (
                Prefetcher::new(PrefetcherKind::NextLine).transform(&demand),
                CacheConfig::new("t", 2, 4, 6),
            ),
        ];
        for (n, (s, config)) in streams.into_iter().enumerate() {
            let replay = LlcReplay::new(config, &s);
            let full = replay.run(RecencyPolicy::lru());
            let summary = replay.run_summary(RecencyPolicy::lru());
            assert!(summary.records.is_empty(), "stream {n}");
            assert_eq!(summary.policy, full.policy, "stream {n}");
            assert_eq!(summary.stats, full.stats, "stream {n}");
            assert_eq!(summary.wrong_evictions, full.wrong_evictions, "stream {n}");
            assert_eq!(summary.capacity_misses, full.capacity_misses, "stream {n}");
            assert_eq!(summary.conflict_misses, full.conflict_misses, "stream {n}");
            assert_eq!(summary.compulsory_misses, full.compulsory_misses, "stream {n}");
            let (fills, useful) = prefetch_usefulness(&full.records, 6);
            assert!(fills > 0 && useful > 0, "stream {n} must exercise the walk");
            assert_eq!(
                (full.prefetch_fills, full.useful_prefetches),
                (fills, useful),
                "stream {n}"
            );
            assert_eq!(
                (summary.prefetch_fills, summary.useful_prefetches),
                (fills, useful),
                "stream {n}"
            );
        }
    }
}
