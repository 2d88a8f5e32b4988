//! Property-based tests over the core invariants (proptest).

use proptest::prelude::*;

use cachemind_suite::policies::BeladyPolicy;
use cachemind_suite::prelude::*;
use cachemind_suite::sim::reuse::NEVER;

fn trace_from_lines(lines: &[u8]) -> Vec<MemoryAccess> {
    lines
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            MemoryAccess::load(
                Pc::new(0x400000 + (l as u64 % 5) * 4),
                Address::new(l as u64 * 64),
                i as u64,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Belady's MIN is optimal: no online policy beats it in total hits on
    /// any trace.
    #[test]
    fn belady_is_optimal(lines in proptest::collection::vec(0u8..24, 1..300)) {
        let trace = trace_from_lines(&lines);
        let cfg = CacheConfig::new("t", 1, 2, 6); // 2 sets x 2 ways
        let replay = LlcReplay::new(cfg, &trace);
        let opt = replay.run(BeladyPolicy::new());
        for name in ["lru", "fifo", "random", "srrip", "ship"] {
            let other = replay.run(cachemind_suite::policies::by_name(name).unwrap());
            prop_assert!(
                opt.stats.hits >= other.stats.hits,
                "{} beat Belady: {} vs {}", name, other.stats.hits, opt.stats.hits
            );
        }
    }

    /// LRU has the stack (inclusion) property: increasing associativity can
    /// only convert misses to hits, never the reverse.
    #[test]
    fn lru_inclusion_property(lines in proptest::collection::vec(0u8..32, 1..300)) {
        let trace = trace_from_lines(&lines);
        let small = LlcReplay::new(CacheConfig::new("s", 1, 2, 6), &trace)
            .run(RecencyPolicy::lru());
        let large = LlcReplay::new(CacheConfig::new("l", 1, 4, 6), &trace)
            .run(RecencyPolicy::lru());
        for (a, b) in small.records.iter().zip(&large.records) {
            prop_assert!(
                a.is_miss || !b.is_miss,
                "hit in 2-way but miss in 4-way at index {}", a.index
            );
        }
    }

    /// The reuse oracle's next/prev indices are mutually consistent and its
    /// distances match a naive recomputation.
    #[test]
    fn reuse_oracle_invariants(lines in proptest::collection::vec(0u8..16, 1..200)) {
        let trace = trace_from_lines(&lines);
        let oracle = ReuseOracle::from_accesses(&trace, 6);
        for i in 0..oracle.len() {
            let next = oracle.next_use(i);
            if next != NEVER {
                let j = next as usize;
                prop_assert_eq!(oracle.prev_use(j), i as u64);
                prop_assert_eq!(oracle.line(i), oracle.line(j));
                // No intervening access to the same line.
                for k in (i + 1)..j {
                    prop_assert_ne!(oracle.line(k), oracle.line(i));
                }
            }
            prop_assert_eq!(oracle.is_first_touch(i), oracle.prev_use(i) == NEVER);
        }
    }

    /// A frame's PC and address reads are sound and complete: `rows_for`
    /// returns exactly the rows a scan keeps, in stream order, and a PC's
    /// misses among them are its summary's miss count.
    #[test]
    fn filter_soundness(
        lines in proptest::collection::vec(0u8..16, 1..150),
        pc_pick in 0u8..5,
        line_pick in 0u8..16,
    ) {
        let trace = trace_from_lines(&lines);
        let replay = LlcReplay::new(CacheConfig::new("t", 1, 2, 6), &trace);
        let report = replay.run(RecencyPolicy::lru());
        let frame = TraceFrame::new(report.records, std::sync::Arc::new(ProgramImage::new()));
        let pc = Pc::new(0x400000 + (pc_pick as u64 % 5) * 4);
        let address = Address::new(line_pick as u64 * 64);
        for (p, a) in [(Some(pc), None), (Some(pc), Some(address)), (None, Some(address))] {
            let read: Vec<u64> = frame.rows_for(p, a).map(|r| r.index).collect();
            let scan: Vec<u64> = frame
                .rows()
                .iter()
                .filter(|r| p.is_none_or(|p| r.pc == p) && a.is_none_or(|a| r.address == a))
                .map(|r| r.index)
                .collect();
            prop_assert_eq!(read, scan);
        }
        let misses = frame.rows_for(Some(pc), None).filter(|r| r.is_miss).count() as u64;
        prop_assert_eq!(misses, frame.pc_summary(pc).map_or(0, |s| s.stats.misses));
    }

    /// The tokenizer is total and deterministic on arbitrary input, and hex
    /// literals round-trip.
    #[test]
    fn tokenizer_total_and_hex_round_trip(s in ".{0,120}", v in 0u64..u64::MAX / 2) {
        let a = cachemind_suite::lang::token::tokenize(&s);
        let b = cachemind_suite::lang::token::tokenize(&s);
        prop_assert_eq!(a, b);
        let text = format!("PC 0x{v:x} accessed");
        prop_assert_eq!(cachemind_suite::lang::token::hex_literals(&text), vec![v]);
    }

    /// Embeddings are unit-norm (or zero) for arbitrary text.
    #[test]
    fn embeddings_unit_norm(s in ".{0,200}") {
        let e = HashedEmbedder::new(32);
        let v = e.embed(&s);
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-4, "norm {}", norm);
    }

    /// Miss classification is exhaustive: every miss gets exactly one type
    /// and hits get none.
    #[test]
    fn miss_taxonomy_is_total(lines in proptest::collection::vec(0u8..48, 1..300)) {
        let trace = trace_from_lines(&lines);
        let replay = LlcReplay::new(CacheConfig::new("t", 2, 2, 6), &trace);
        let report = replay.run(RecencyPolicy::lru());
        let mut classified = 0u64;
        for r in &report.records {
            prop_assert_eq!(r.miss_type.is_some(), r.is_miss);
            if r.miss_type.is_some() { classified += 1; }
        }
        prop_assert_eq!(classified, report.stats.misses);
        prop_assert_eq!(
            report.capacity_misses + report.conflict_misses + report.compulsory_misses,
            report.stats.misses
        );
    }

    /// LRU thrashes on a cyclic trace longer than the cache: when N distinct
    /// lines, all mapping into one set of associativity < N, are accessed
    /// round-robin, LRU always evicts exactly the line that is needed
    /// furthest in the past — and the next access is always to the line
    /// evicted N-ways accesses ago. After the compulsory pass, every access
    /// misses: zero hits, the classic thrash invariant (and the worst case
    /// Belady avoids).
    #[test]
    fn lru_thrashes_on_long_cyclic_traces(
        extra_lines in 1u64..8,
        laps in 2u64..6,
    ) {
        let cfg = CacheConfig::new("t", 0, 4, 6); // 1 set x 4 ways
        let ways = cfg.ways as u64;
        let cycle = ways + extra_lines; // strictly longer than associativity
        let trace: Vec<MemoryAccess> = (0..cycle * laps)
            .map(|i| {
                MemoryAccess::load(Pc::new(0x400000), Address::new((i % cycle) * 64), i)
            })
            .collect();
        let report = LlcReplay::new(cfg, &trace).run(RecencyPolicy::lru());
        prop_assert_eq!(
            report.stats.hits, 0,
            "LRU must thrash: {} lines cycling through {} ways", cycle, ways
        );
        prop_assert_eq!(report.stats.misses, cycle * laps);
        // First lap is compulsory, the rest is pure capacity thrash.
        prop_assert_eq!(report.compulsory_misses, cycle);
        prop_assert_eq!(report.capacity_misses + report.conflict_misses, cycle * (laps - 1));
    }

    /// The analytic IPC model is monotone in LLC demand misses: with
    /// everything else fixed, fewer demand misses never decrease IPC — the
    /// invariant the scenario grid's per-cell IPC column relies on — and
    /// IPC never exceeds the core's issue width.
    #[test]
    fn ipc_model_is_monotone_in_demand_misses(
        instr in 1u64..5_000_000,
        l1_misses in 0u64..100_000,
        l2_misses in 0u64..100_000,
        misses_a in 0u64..200_000,
        misses_b in 0u64..200_000,
        dram_latency in 80u64..800,
    ) {
        let mut config = HierarchyConfig::table2();
        config.dram.latency_cycles = dram_latency;
        let model = IpcModel::from_config(&config);
        let report = HierarchyReport {
            llc_stream: Vec::new(),
            l1i: CacheStats::default(),
            l1d: CacheStats { misses: l1_misses, ..Default::default() },
            l2: CacheStats { misses: l2_misses, ..Default::default() },
            llc: CacheStats::default(),
            prefetch_fills: 0,
            useful_prefetches: 0,
            instr_count: instr,
        };
        let (fewer, more) = (misses_a.min(misses_b), misses_a.max(misses_b));
        let ipc_fewer = model.ipc(&report, fewer);
        let ipc_more = model.ipc(&report, more);
        prop_assert!(
            ipc_fewer >= ipc_more,
            "fewer misses lowered IPC: {} misses -> {}, {} misses -> {}",
            fewer, ipc_fewer, more, ipc_more
        );
        prop_assert!(ipc_fewer <= config.processor.width as f64 + 1e-9);
        prop_assert!(ipc_more >= 0.0);
    }

    /// `ScenarioSelector::parse ∘ to_string` is the identity on valid
    /// selectors: any combination of a workload word, a canonical machine
    /// label (which itself contains `@` and `+`), a canonical prefetcher
    /// label and a policy word survives the round trip field-for-field.
    #[test]
    fn scenario_selector_parse_tostring_identity(
        workload_raw in proptest::collection::vec(97u8..123, 0..8),
        machine_name in proptest::collection::vec(97u8..123, 1..7),
        sets in 1u64..5000,
        ways in 1u64..33,
        dram in 1u64..1000,
        has_machine in 0u8..2,
        prefetcher_pick in 0u8..5,
        policy_raw in proptest::collection::vec(97u8..123, 0..8),
    ) {
        let word = |bytes: Vec<u8>| String::from_utf8(bytes).expect("ascii letters");
        let workload = if workload_raw.is_empty() { None } else { Some(word(workload_raw)) };
        let machine = (has_machine == 1)
            .then(|| format!("{}@llc{sets}x{ways}+dram{dram}", word(machine_name)));
        let prefetcher = match prefetcher_pick {
            0 => None,
            1 => Some("none"),
            2 => Some("nextline"),
            3 => Some("stride4"),
            _ => Some("stride2"),
        }
        .map(str::to_owned);
        let policy = if policy_raw.is_empty() { None } else { Some(word(policy_raw)) };
        let selector = ScenarioSelector { workload, machine, prefetcher, policy };

        let text = selector.to_string();
        let parsed = ScenarioSelector::parse(&text);
        prop_assert!(parsed.is_ok(), "canonical form {:?} failed to parse", text);
        prop_assert_eq!(parsed.unwrap(), selector);
    }

    /// `TraceId::parse ∘ key` is the identity on qualified trace ids: any
    /// combination of machine qualification (a canonical label, itself
    /// containing `@` and `+`) and prefetcher qualification (a canonical
    /// prefetcher label) survives the round trip field-for-field — the
    /// storage-key grammar mirror of the selector identity above.
    #[test]
    fn trace_id_parse_key_identity(
        workload_raw in proptest::collection::vec(97u8..123, 1..8),
        policy_raw in proptest::collection::vec(97u8..123, 1..8),
        machine_name in proptest::collection::vec(97u8..123, 1..7),
        sets in 1u64..5000,
        ways in 1u64..33,
        dram in 1u64..1000,
        has_machine in 0u8..2,
        prefetcher_pick in 0u8..4,
    ) {
        let word = |bytes: Vec<u8>| String::from_utf8(bytes).expect("ascii letters");
        let machine = (has_machine == 1)
            .then(|| format!("{}@llc{sets}x{ways}+dram{dram}", word(machine_name)));
        let prefetcher = match prefetcher_pick {
            0 => None,
            1 => Some("nextline"),
            2 => Some("stride4"),
            _ => Some("stride2"),
        };
        let id = TraceId::qualified(
            &word(workload_raw),
            &word(policy_raw),
            machine.as_deref(),
            prefetcher,
        );
        let parsed = TraceId::parse(&id.key());
        prop_assert_eq!(parsed, Some(id));
    }

    /// Cache occupancy never exceeds capacity, and hits never change
    /// occupancy.
    #[test]
    fn occupancy_bounded(lines in proptest::collection::vec(0u8..64, 1..200)) {
        let trace = trace_from_lines(&lines);
        let cfg = CacheConfig::new("t", 1, 2, 6);
        let capacity = cfg.capacity_lines();
        let mut cache = SetAssociativeCache::new(cfg, RecencyPolicy::lru());
        for (i, a) in trace.iter().enumerate() {
            let set = cache.set_of(a.address);
            let before = cache.occupancy();
            let out = cache.access(&AccessContext::demand(i as u64, a, set));
            let after = cache.occupancy();
            prop_assert!(after <= capacity);
            if out.hit {
                prop_assert_eq!(before, after);
            }
        }
    }
}

/// A deliberately naive `Vec<Option<LineMeta>>` set-associative cache — the
/// pre-optimization storage layout, retained as an executable oracle for
/// the structure-of-arrays fast path. Decision order mirrors
/// `SetAssociativeCache::access`: probe for a tag match, fill the first
/// empty way, otherwise ask the policy; the policy observes the set through
/// an owned [`SetViewBuf`] snapshot.
struct ReferenceCache {
    sets: Vec<Vec<Option<LineMeta>>>,
    policy: Box<dyn ReplacementPolicy>,
}

impl ReferenceCache {
    fn new(config: &CacheConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        ReferenceCache { sets: vec![vec![None; config.ways]; config.sets()], policy }
    }

    /// One access; returns `(hit, way, evicted, bypassed)` — the fields the
    /// SoA cache's [`AccessOutcome`] carries.
    fn access(&mut self, ctx: &AccessContext) -> (bool, Option<usize>, Option<LineMeta>, bool) {
        let si = ctx.set.index();
        let is_store = matches!(ctx.kind, AccessKind::Store);
        if let Some(way) =
            self.sets[si].iter().position(|m| m.as_ref().is_some_and(|m| m.line == ctx.line))
        {
            let meta = self.sets[si][way].as_mut().expect("matched way is occupied");
            meta.last_touch = ctx.index;
            meta.last_pc = ctx.pc;
            meta.dirty |= is_store;
            let buf = SetViewBuf::from_metas(&self.sets[si]);
            self.policy.on_hit(way, buf.view(), ctx);
            return (true, Some(way), None, false);
        }
        let fill = LineMeta {
            line: ctx.line,
            last_pc: ctx.pc,
            insert_pc: ctx.pc,
            inserted_at: ctx.index,
            last_touch: ctx.index,
            dirty: is_store,
        };
        if let Some(way) = self.sets[si].iter().position(|m| m.is_none()) {
            self.sets[si][way] = Some(fill);
            let buf = SetViewBuf::from_metas(&self.sets[si]);
            self.policy.on_fill(way, buf.view(), ctx);
            return (false, Some(way), None, false);
        }
        let buf = SetViewBuf::from_metas(&self.sets[si]);
        match self.policy.choose_victim(buf.view(), ctx) {
            Decision::Bypass => (false, None, None, true),
            Decision::Evict(way) => {
                let evicted = self.sets[si][way].take().expect("full set has no empty way");
                self.sets[si][way] = Some(fill);
                let buf = SetViewBuf::from_metas(&self.sets[si]);
                self.policy.on_fill(way, buf.view(), ctx);
                (false, Some(way), Some(evicted), false)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SoA cache agrees with the retained `Vec<Option<LineMeta>>`
    /// reference access-for-access — hit/way/evicted/bypassed — under every
    /// stock policy, on mixed load/store traffic. Two instances of the same
    /// policy see identical contexts and set views, so any divergence is a
    /// storage-layout bug, not policy nondeterminism.
    #[test]
    fn soa_cache_matches_line_meta_reference(
        codes in proptest::collection::vec(0u8..96, 1..400)
    ) {
        // Low bit selects load vs store; the rest picks one of 48 lines.
        let trace: Vec<MemoryAccess> = codes
            .iter()
            .enumerate()
            .map(|(i, &code)| {
                let l = (code >> 1) as u64;
                let pc = Pc::new(0x400000 + (l % 7) * 4);
                let addr = Address::new(l * 64);
                if code & 1 == 1 {
                    MemoryAccess::store(pc, addr, i as u64)
                } else {
                    MemoryAccess::load(pc, addr, i as u64)
                }
            })
            .collect();
        for name in ["lru", "fifo", "srrip", "ship", "mockingjay"] {
            let cfg = CacheConfig::new("t", 2, 2, 6); // 4 sets x 2 ways
            let mut soa = SetAssociativeCache::new(
                cfg.clone(),
                cachemind_suite::policies::by_name(name).unwrap(),
            );
            let mut reference =
                ReferenceCache::new(&cfg, cachemind_suite::policies::by_name(name).unwrap());
            for (i, a) in trace.iter().enumerate() {
                let set = soa.set_of(a.address);
                let ctx = AccessContext::demand(i as u64, a, set);
                let out = soa.access(&ctx);
                let (hit, way, evicted, bypassed) = reference.access(&ctx);
                prop_assert_eq!(out.hit, hit, "{} hit diverged at {}", name, i);
                prop_assert_eq!(out.way, way, "{} way diverged at {}", name, i);
                prop_assert_eq!(out.evicted, evicted, "{} eviction diverged at {}", name, i);
                prop_assert_eq!(out.bypassed, bypassed, "{} bypass diverged at {}", name, i);
            }
        }
    }
}

/// One level of the reference hierarchy: the policy-facing cache under
/// plain LRU, indexed by the access's line address under its own geometry.
fn reference_level(
    cache: &mut SetAssociativeCache<RecencyPolicy>,
    index: u64,
    access: &MemoryAccess,
) -> AccessOutcome {
    let line = access.address.line(cache.config().line_size_log2);
    let set = cache.set_of_line(line);
    cache.access(&AccessContext::with_oracle(index, access.pc, line, set, access.kind, NEVER))
}

/// `CacheHierarchy::run` restated on `SetAssociativeCache<RecencyPolicy>`
/// levels under LRU (L1I/L1D, L2, LLC), with pending prefetched lines in a
/// plain `HashSet`. Returns the LLC stream, the
/// L1I/L1D/L2/LLC counters, prefetch fills and useful prefetches.
fn reference_hierarchy(
    config: &HierarchyConfig,
    accesses: &[MemoryAccess],
) -> (Vec<MemoryAccess>, [CacheStats; 4], u64, u64) {
    let level = |c: &CacheConfig| SetAssociativeCache::new(c.clone(), RecencyPolicy::lru());
    let (mut l1i, mut l1d) = (level(&config.l1i), level(&config.l1d));
    let (mut l2, mut llc) = (level(&config.l2), level(&config.llc));
    let mut pending = std::collections::HashSet::new();
    let (mut stream, mut fills, mut useful) = (Vec::new(), 0u64, 0u64);
    for (i, access) in accesses.iter().enumerate() {
        let index = i as u64;
        // Pending lines live in the LLC's line space.
        let line = access.address.value() >> config.llc.line_size_log2;
        let is_prefetch = access.kind == AccessKind::Prefetch;
        let was_pending = !is_prefetch && pending.remove(&line);
        let l1 = if access.kind == AccessKind::Fetch { &mut l1i } else { &mut l1d };
        if reference_level(l1, index, access).hit {
            useful += u64::from(was_pending);
            continue;
        }
        if is_prefetch {
            fills += 1;
            pending.insert(line);
        }
        if reference_level(&mut l2, index, access).hit {
            useful += u64::from(was_pending);
            continue;
        }
        stream.push(*access);
        let out = reference_level(&mut llc, index, access);
        useful += u64::from(out.hit && was_pending);
        if let Some(evicted) = out.evicted {
            pending.remove(&evicted.line.value());
        }
    }
    let stats = [*l1i.stats(), *l1d.stats(), *l2.stats(), *llc.stats()];
    (stream, stats, fills, useful)
}

/// A small cache geometry decoded from one byte: 1–4 sets, 1–4 ways and
/// 32-, 64- or 128-byte lines.
fn small_geometry(name: &str, code: u8) -> CacheConfig {
    let code = code as u32;
    CacheConfig::new(name, code % 3, (code / 3 % 4) as usize + 1, 5 + code / 12 % 3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The hierarchy filter agrees with a reference built from the
    /// policy-facing cache: same LLC stream, same per-level counters and
    /// the same prefetch fills and useful prefetches, on random small
    /// geometries (every level, the LLC included, evicts often) and mixed
    /// load/store/fetch/prefetch streams.
    #[test]
    fn hierarchy_filter_matches_set_associative_reference(
        l1i in 0u8..36,
        l1d in 0u8..36,
        l2 in 0u8..36,
        llc in 0u8..36,
        codes in proptest::collection::vec(0u16..512, 1..400)
    ) {
        let config = HierarchyConfig {
            l1i: small_geometry("L1I", l1i),
            l1d: small_geometry("L1D", l1d),
            l2: small_geometry("L2", l2),
            llc: small_geometry("LLC", llc),
            ..HierarchyConfig::small()
        };
        // The low two bits pick the kind; the rest one of 128 32-byte
        // chunks (4 KiB), far more than any generated level holds.
        let accesses: Vec<MemoryAccess> = codes
            .iter()
            .enumerate()
            .map(|(i, &code)| {
                let chunk = (code >> 2) as u64;
                let pc = Pc::new(0x400000 + (chunk % 7) * 4);
                let addr = Address::new(0x10000 + chunk * 32);
                match code & 3 {
                    0 => MemoryAccess::load(pc, addr, i as u64),
                    1 => MemoryAccess::store(pc, addr, i as u64),
                    2 => MemoryAccess::fetch(pc, addr, i as u64),
                    _ => MemoryAccess::prefetch(pc, addr, i as u64),
                }
            })
            .collect();
        let report = CacheHierarchy::new(config.clone()).run(&accesses, accesses.len() as u64);
        let (stream, [ri, rd, r2, rl], fills, useful) = reference_hierarchy(&config, &accesses);
        prop_assert_eq!(&report.llc_stream, &stream);
        prop_assert_eq!(report.l1i, ri);
        prop_assert_eq!(report.l1d, rd);
        prop_assert_eq!(report.l2, r2);
        prop_assert_eq!(report.llc, rl);
        prop_assert_eq!(report.prefetch_fills, fills);
        prop_assert_eq!(report.useful_prefetches, useful);
    }
}
