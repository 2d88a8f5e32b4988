//! Property tests for the trace-database snapshot format.
//!
//! Three families:
//!
//! * **round-trip** — randomly-shaped databases survive save → load → save
//!   with every field bit-identical, the second save byte-identical to the
//!   first, and the loaded store answering `select` / `get_scoped_resolved`
//!   exactly like the original;
//! * **lazy equals eager** — the store [`VerifiedSnapshot::into_database`]
//!   opens over the same bytes, its frames touched in random order from
//!   two threads, yields the entries and rows the eager reader does,
//!   decoding each frame once;
//! * **corruption** — truncating the byte stream at *every* prefix length
//!   (which covers every section boundary) and flipping a bit at every
//!   byte position must yield a typed [`SnapshotError`] — never a panic,
//!   never a partial database. Payloads behind forged checksums (a row
//!   payload length off by one, malformed rows) are typed errors for the
//!   eager reader and never panic the lazy store; a forged entry header is
//!   a typed error for both.

use std::sync::Arc;

use cachemind_obs::{names, MetricsRegistry};
use cachemind_sim::access::AccessKind;
use cachemind_sim::addr::{Address, Pc, SetId};
use cachemind_sim::config::CacheConfig;
use cachemind_sim::hash::fnv64;
use cachemind_sim::replay::MissType;
use cachemind_tracedb::prelude::*;
use cachemind_tracedb::snapshot::{fnv64_wide, read_snapshot, write_snapshot, VerifiedSnapshot};
use cachemind_tracedb::SnapshotError;
use cachemind_workloads::program::{ProgramBuilder, ProgramImage};
use proptest::prelude::*;

/// A tiny deterministic PRNG (splitmix64) so each proptest case derives a
/// whole database shape from one generated seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

fn synth_program(name: &str) -> Arc<ProgramImage> {
    let mut b = ProgramBuilder::new(0x40_0000);
    b.function(
        &format!("{name}_kernel"),
        "for (i = 0; i < n; i++) sum += a[i];",
        &["mov (%rdi),%rax", "add %rax,%rsi", "jne 400000"],
    );
    b.function(&format!("{name}_init"), "memset(a, 0, n);", &["xor %eax,%eax"]);
    Arc::new(b.build())
}

fn synth_row(rng: &mut Mix, index: u64) -> EvictionRecord {
    let is_miss = rng.chance(2);
    EvictionRecord {
        index,
        pc: Pc::new(0x40_0000 + rng.below(64) * 4),
        address: Address::new(rng.next() & 0xffff_ffff_ffc0),
        kind: match rng.below(4) {
            0 => AccessKind::Load,
            1 => AccessKind::Store,
            2 => AccessKind::Fetch,
            _ => AccessKind::Prefetch,
        },
        set: SetId::new(rng.below(64) as usize),
        is_miss,
        miss_type: if is_miss {
            match rng.below(4) {
                0 => None,
                1 => Some(MissType::Compulsory),
                2 => Some(MissType::Capacity),
                _ => Some(MissType::Conflict),
            }
        } else {
            None
        },
        evicted_address: rng.chance(3).then(|| Address::new(rng.next() & 0xffff_ffc0)),
        accessed_reuse_distance: rng.chance(2).then(|| rng.below(1 << 20)),
        evicted_reuse_distance: rng.chance(3).then(|| rng.below(1 << 20)),
        recency: rng.chance(2).then(|| rng.below(1 << 16)),
        bypassed: rng.chance(8),
    }
}

/// Builds a randomly-shaped database: random workload/policy label
/// sets, optional machine/prefetcher qualifications, random row payloads,
/// and adversarial float values (NaN, −0.0, subnormals) to pin the
/// bit-exact f64 round-trip.
fn synth_db(seed: u64, shards: usize) -> TraceDatabase {
    let mut rng = Mix(seed);
    let workload_names = ["wa", "wb", "wλ"];
    let policy_names = ["lru", "belady", "pX"];
    let machines = [None, Some("m1@llc64x4+dram160")];
    let prefetchers = [None, Some("stride4")];
    let programs: Vec<Arc<ProgramImage>> =
        workload_names.iter().map(|w| synth_program(w)).collect();

    let mut entries = Vec::new();
    let n_workloads = 1 + rng.below(workload_names.len() as u64) as usize;
    let n_policies = 1 + rng.below(policy_names.len() as u64) as usize;
    for (w, workload) in workload_names.iter().take(n_workloads).enumerate() {
        for policy in policy_names.iter().take(n_policies) {
            for machine in &machines {
                for prefetcher in &prefetchers {
                    if machine.is_some() && rng.chance(2) {
                        continue; // ragged grids must round-trip too
                    }
                    let rows =
                        (0..rng.below(24)).map(|i| synth_row(&mut rng, i)).collect::<Vec<_>>();
                    let weird = [0.0f64, -0.0, f64::NAN, f64::MIN_POSITIVE / 2.0, 1.5e-300];
                    entries.push(TraceEntry {
                        id: TraceId::qualified(workload, policy, *machine, *prefetcher),
                        frame: TraceFrame::new(rows, Arc::clone(&programs[w])),
                        metadata: format!("summary {} — miss rate {:.3}", workload, 0.25),
                        description: format!("Workload: {workload}. Policy: {policy}."),
                        machine: machine.unwrap_or("primary@64x4").to_owned(),
                        prefetcher: prefetcher.unwrap_or("none").to_owned(),
                        prefetch_fills: rng.below(1 << 20),
                        useful_prefetches: rng.below(1 << 20),
                        prefetch_accuracy: weird[rng.below(5) as usize],
                        prefetch_coverage: f64::from_bits(rng.next()),
                        ipc: 0.5 + (rng.below(1000) as f64) / 500.0,
                    });
                }
            }
        }
    }
    let llc =
        rng.chance(4).then(|| CacheConfig::new("LLC", 6, 4, 6).with_latency(26).with_mshr(16));
    TraceDatabase::from_entries(entries, shards, llc)
}

fn assert_same_entry(a: &TraceEntry, b: &TraceEntry) {
    assert_eq!(a.id, b.id);
    assert_eq!(a.metadata, b.metadata);
    assert_eq!(a.description, b.description);
    assert_eq!(a.machine, b.machine);
    assert_eq!(a.prefetcher, b.prefetcher);
    assert_eq!(a.prefetch_fills, b.prefetch_fills);
    assert_eq!(a.useful_prefetches, b.useful_prefetches);
    assert_eq!(a.prefetch_accuracy.to_bits(), b.prefetch_accuracy.to_bits(), "{}", a.id);
    assert_eq!(a.prefetch_coverage.to_bits(), b.prefetch_coverage.to_bits(), "{}", a.id);
    assert_eq!(a.ipc.to_bits(), b.ipc.to_bits(), "{}", a.id);
    assert_eq!(a.frame.rows(), b.frame.rows(), "{} rows diverge", a.id);
    assert_eq!(a.frame.program(), b.frame.program(), "{} program diverges", a.id);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn save_load_save_round_trips(seed in any::<u64>(), shards in 1usize..9) {
        let db = synth_db(seed, shards);
        let first = write_snapshot(&db);
        let loaded = read_snapshot(&first).expect("snapshot loads");

        prop_assert_eq!(loaded.shard_count(), db.shard_count());
        prop_assert_eq!(loaded.trace_keys(), db.trace_keys());
        prop_assert_eq!(loaded.llc_config(), db.llc_config());
        for (a, b) in loaded.entries().zip(db.entries()) {
            assert_same_entry(a, b);
        }

        // Byte stability: a second save reproduces the first byte stream.
        let second = write_snapshot(&loaded);
        prop_assert!(first == second, "save -> load -> save changed the bytes");
    }

    #[test]
    fn loaded_store_answers_queries_identically(seed in any::<u64>()) {
        let db = synth_db(seed, 4);
        let loaded = read_snapshot(&write_snapshot(&db)).expect("snapshot loads");

        let selectors = [
            ScenarioSelector::all(),
            ScenarioSelector::all().with_machine("m1"),
            ScenarioSelector::parse("+stride4").expect("selector"),
            ScenarioSelector::parse("@m1@llc64x4+dram160+stride4").expect("selector"),
        ];
        for selector in &selectors {
            let a: Vec<String> = db.select(selector).map(|e| e.id.key()).collect();
            let b: Vec<String> = loaded.select(selector).map(|e| e.id.key()).collect();
            prop_assert_eq!(a, b, "select diverged under {}", selector);

            for key in db.trace_keys() {
                let id = TraceId::parse(&key).expect("stored keys parse");
                let base = TraceId::new(&id.workload, &id.policy);
                let a = db.get_scoped_resolved(&base, selector).map(|e| e.id.key());
                let b = loaded.get_scoped_resolved(&base, selector).map(|e| e.id.key());
                prop_assert_eq!(a, b, "get_scoped_resolved diverged for {} under {}", key, selector);
            }
        }
    }

    #[test]
    fn lazy_store_matches_the_eager_reader(seed in any::<u64>(), shards in 1usize..6) {
        let bytes = write_snapshot(&synth_db(seed, shards));
        let eager = read_snapshot(&bytes).expect("snapshot loads");
        let metrics = MetricsRegistry::new();
        let lazy = VerifiedSnapshot::verify(bytes)
            .expect("verifies")
            .into_database(&metrics)
            .expect("entry headers decode");

        prop_assert_eq!(lazy.len(), eager.len());
        prop_assert_eq!(lazy.shard_count(), eager.shard_count());
        prop_assert_eq!(lazy.trace_keys(), eager.trace_keys());
        prop_assert_eq!(lazy.llc_config(), eager.llc_config());
        // Keys, metadata and row counts decode no rows.
        for (a, b) in lazy.entries().zip(eager.entries()) {
            prop_assert_eq!(a.frame.len(), b.frame.len());
        }
        let decoded = || metrics.snapshot().counter(names::TRACEDB_LAZY_DECODE_TRACES);
        prop_assert_eq!(decoded(), 0);

        // Two threads touch every frame, each in its own random order.
        let keys = eager.trace_keys();
        std::thread::scope(|scope| {
            for t in 0..2u64 {
                let (lazy, eager, keys) = (&lazy, &eager, &keys);
                scope.spawn(move || {
                    let mut order: Vec<&String> = keys.iter().collect();
                    let mut rng = Mix(seed ^ t.wrapping_mul(0x5851_F42D_4C95_7F2D));
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    for key in order {
                        let a = lazy.get(key).expect("lazy entry");
                        let b = eager.get(key).expect("eager entry");
                        assert_eq!(a.frame.pcs(), b.frame.pcs(), "{key}");
                        assert_eq!(a.frame.rows(), b.frame.rows(), "{key}");
                    }
                });
            }
        });
        for (a, b) in lazy.entries().zip(eager.entries()) {
            assert_same_entry(a, b);
        }
        prop_assert_eq!(decoded(), eager.len() as u64, "every frame decodes exactly once");
    }

    #[test]
    fn corrupted_snapshots_never_panic(seed in any::<u64>()) {
        let db = synth_db(seed, 2);
        let mut bytes = write_snapshot(&db);
        // A random single-bit flip somewhere in the stream.
        let mut rng = Mix(seed ^ 0xdead_beef);
        let pos = rng.below(bytes.len() as u64) as usize;
        bytes[pos] ^= 1 << rng.below(8);
        prop_assert!(read_snapshot(&bytes).is_err(), "bit flip at {} went undetected", pos);
    }
}

/// A small fixed database for the exhaustive corruption sweeps (every
/// prefix length, every byte) — kept tiny so the O(bytes²) truncation scan
/// stays fast.
fn tiny_db() -> TraceDatabase {
    synth_db(7, 3)
}

#[test]
fn truncation_at_every_prefix_is_a_typed_error() {
    let bytes = write_snapshot(&tiny_db());
    for len in 0..bytes.len() {
        let err = read_snapshot(&bytes[..len])
            .expect_err(&format!("prefix of {len}/{} bytes must not load", bytes.len()));
        // Every prefix is one of the reader's typed failures; which one
        // depends on where the cut lands.
        match err {
            SnapshotError::Truncated { .. }
            | SnapshotError::ChecksumMismatch { .. }
            | SnapshotError::Corrupt { .. } => {}
            other => panic!("unexpected error for prefix {len}: {other:?}"),
        }
    }
}

#[test]
fn bit_flip_at_every_byte_is_detected() {
    let bytes = write_snapshot(&tiny_db());
    for pos in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 1 << (pos % 8);
        assert!(
            read_snapshot(&corrupted).is_err(),
            "flip at byte {pos}/{} went undetected",
            bytes.len()
        );
    }
}

#[test]
fn corruption_errors_are_specifically_typed() {
    let bytes = write_snapshot(&tiny_db());

    // Magic: not a snapshot at all.
    let mut b = bytes.clone();
    b[3] ^= 0x20;
    assert_eq!(read_snapshot(&b).unwrap_err(), SnapshotError::BadMagic);

    // Version: typed mismatch carrying the found version.
    let mut b = bytes.clone();
    b[8] = 42;
    assert_eq!(read_snapshot(&b).unwrap_err(), SnapshotError::VersionMismatch { found: 42 });

    // Header body: flip a byte inside a machine label's text (the first
    // occurrence of the label lives in the header's label table). The
    // structural scan is unaffected — the checksum catches it.
    let needle = b"primary@64x4";
    let pos = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .expect("machine label interned in the header");
    let mut b = bytes.clone();
    b[pos] ^= 0x01;
    assert_eq!(
        read_snapshot(&b).unwrap_err(),
        SnapshotError::ChecksumMismatch { section: "header".into() }
    );

    // Segment payload: the last byte belongs to the last shard segment.
    let mut b = bytes.clone();
    let last = b.len() - 1;
    b[last] ^= 0x80;
    match read_snapshot(&b).unwrap_err() {
        SnapshotError::ChecksumMismatch { section } => {
            assert!(section.starts_with("shard segment"), "{section}");
        }
        other => panic!("expected a segment checksum failure, got {other:?}"),
    }

    // Truncation inside the magic is named as such.
    assert_eq!(
        read_snapshot(&bytes[..4]).unwrap_err(),
        SnapshotError::Truncated { section: "magic".into() }
    );

    // Trailing garbage after the last segment is corruption, not silence.
    let mut b = bytes.clone();
    b.push(0xAA);
    assert!(matches!(read_snapshot(&b).unwrap_err(), SnapshotError::Corrupt { .. }));
}

#[test]
fn missing_file_surfaces_as_io_error() {
    let err = VerifiedSnapshot::open("/nonexistent/path/db.snap").unwrap_err();
    assert!(matches!(err, SnapshotError::Io { .. }), "{err:?}");
}

fn u32_at(bytes: &[u8], pos: usize) -> u32 {
    u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], pos: usize) -> u64 {
    u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"))
}

/// The start of the only segment of a one-shard snapshot: the position
/// `p` where the directory's byte length, the segment checksum and the
/// header checksum just before it all agree with the bytes.
fn segment_start(bytes: &[u8]) -> usize {
    (28..bytes.len())
        .find(|&p| {
            u64_at(bytes, p - 24) == (bytes.len() - p) as u64
                && u64_at(bytes, p - 16) == fnv64_wide(&bytes[p..])
                && u64_at(bytes, p - 8) == fnv64(&bytes[..p - 8])
        })
        .expect("a one-shard snapshot has one segment")
}

/// Re-forges the segment and header checksums of a one-shard snapshot
/// after its segment bytes were edited in place.
fn forge_checksums(bytes: &mut [u8], start: usize) {
    let segment = fnv64_wide(&bytes[start..]);
    bytes[start - 16..start - 8].copy_from_slice(&segment.to_le_bytes());
    let header = fnv64(&bytes[..start - 8]);
    bytes[start - 8..start].copy_from_slice(&header.to_le_bytes());
}

/// The position of the first entry's `row count` field, parsed from the v3
/// entry layout: label ids, two optional qualifiers, grounded labels,
/// metadata and description strings, program id, then five 8-byte
/// counters and floats.
fn first_row_count_at(bytes: &[u8], start: usize) -> usize {
    let mut p = start + 8;
    for _ in 0..2 {
        p += if bytes[p] == 1 { 5 } else { 1 };
    }
    p += 8;
    for _ in 0..2 {
        p += 4 + u32_at(bytes, p) as usize;
    }
    p + 4 + 5 * 8
}

/// A one-shard database of two entries, both with rows.
fn two_entry_bytes() -> Vec<u8> {
    let mut rng = Mix(11);
    let program = synth_program("wa");
    let entries = ["lru", "mru"]
        .into_iter()
        .map(|policy| TraceEntry {
            id: TraceId::new("wa", policy),
            frame: TraceFrame::new(
                (0..6).map(|i| synth_row(&mut rng, i)).collect(),
                Arc::clone(&program),
            ),
            metadata: format!("summary wa {policy}"),
            description: "Workload: wa.".to_owned(),
            machine: "primary@64x4".to_owned(),
            prefetcher: "none".to_owned(),
            prefetch_fills: 0,
            useful_prefetches: 0,
            prefetch_accuracy: 0.0,
            prefetch_coverage: 0.0,
            ipc: 1.0,
        })
        .collect();
    write_snapshot(&TraceDatabase::from_entries(entries, 1, None))
}

#[test]
fn payload_length_off_by_one_or_padded_is_corrupt() {
    let bytes = two_entry_bytes();
    let start = segment_start(&bytes);
    let len_at = first_row_count_at(&bytes, start) + 4;
    let declared = u64_at(&bytes, len_at);
    for forged in [declared - 1, declared + 1] {
        let mut b = bytes.clone();
        b[len_at..len_at + 8].copy_from_slice(&forged.to_le_bytes());
        forge_checksums(&mut b, start);
        match read_snapshot(&b) {
            Err(SnapshotError::Corrupt { .. }) => {}
            other => panic!("payload length {forged} (declared {declared}): {other:?}"),
        }
    }

    // One padding byte after the rows, with the payload and segment
    // lengths forged to match, keeps every later entry aligned: only the
    // exact-length check can catch it.
    let mut b = bytes.clone();
    let rows_end = len_at + 8 + declared as usize;
    b.insert(rows_end, 0);
    b[len_at..len_at + 8].copy_from_slice(&(declared + 1).to_le_bytes());
    let segment_len = u64_at(&b, start - 24) + 1;
    b[start - 24..start - 16].copy_from_slice(&segment_len.to_le_bytes());
    forge_checksums(&mut b, start);
    assert!(VerifiedSnapshot::verify(b.clone()).is_ok(), "the forged file verifies");
    match read_snapshot(&b) {
        Err(SnapshotError::Corrupt { .. }) => {}
        other => panic!("padded payload: {other:?}"),
    }
}

#[test]
fn malformed_rows_behind_forged_checksums_empty_only_their_frame() {
    let bytes = two_entry_bytes();
    let start = segment_start(&bytes);
    let payload_at = first_row_count_at(&bytes, start) + 4 + 8;
    let mut b = bytes.clone();
    b[payload_at] |= 0b1000_0000; // a reserved flag bit of the first row
    forge_checksums(&mut b, start);
    assert!(matches!(read_snapshot(&b), Err(SnapshotError::Corrupt { .. })));

    let eager = read_snapshot(&bytes).expect("untouched bytes load");
    let lazy = VerifiedSnapshot::verify(b)
        .expect("checksums forged")
        .into_database(&MetricsRegistry::new())
        .expect("entry headers still decode");
    assert_eq!(lazy.trace_keys(), eager.trace_keys());
    let broken = lazy.get("wa_evictions_lru").expect("entry headers still decode");
    assert_eq!(broken.frame.len(), 6, "the declared count, before the decode");
    assert!(broken.frame.rows().is_empty());
    assert!(broken.frame.is_empty());
    assert!(broken.frame.pcs().is_empty());
    assert_eq!(broken.frame.count(&Predicate::IsMiss(true)), 0);
    assert_eq!(broken.frame.to_csv().lines().count(), 1, "header only");
    let intact = lazy.get("wa_evictions_mru").expect("entry");
    assert_same_entry(intact, eager.get("wa_evictions_mru").expect("entry"));
}

#[test]
fn forged_entry_header_is_a_typed_error_at_open() {
    let bytes = two_entry_bytes();
    let start = segment_start(&bytes);
    let mut b = bytes.clone();
    // The first entry's workload label index, far past the one label.
    b[start..start + 4].copy_from_slice(&99u32.to_le_bytes());
    forge_checksums(&mut b, start);
    let snapshot = VerifiedSnapshot::verify(b.clone()).expect("the forged file verifies");
    match snapshot.into_database(&MetricsRegistry::new()) {
        Err(SnapshotError::Corrupt { detail }) => {
            assert!(detail.contains("workload label index 99"), "{detail}");
        }
        other => panic!("a forged entry header must not open: {other:?}"),
    }
    assert!(matches!(read_snapshot(&b), Err(SnapshotError::Corrupt { .. })));
}
