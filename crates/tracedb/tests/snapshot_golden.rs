//! Golden-bytes test for the snapshot format.
//!
//! `tests/fixtures/golden_v3.snap` is a committed snapshot of a small
//! hand-constructed database (no simulation output — the fixture must not
//! move when simulator behaviour changes). Two invariants are pinned:
//!
//! * today's **writer** reproduces the fixture byte-for-byte, and
//! * today's **reader** loads the fixture into the expected entries.
//!
//! `golden_v1.snap` and `golden_v2.snap`, the fixtures of the previous
//! format versions, stay committed unchanged as negative fixtures: every
//! reader must reject them with a typed version mismatch.
//!
//! If either fails, the format changed: bump
//! [`cachemind_tracedb::SNAPSHOT_VERSION`], regenerate the fixture as
//! `golden_v<N>.snap` (run the `#[ignore]`d `regenerate_golden_fixture`
//! test), and document the change in `docs/SNAPSHOT.md`.

use std::path::PathBuf;
use std::sync::Arc;

use cachemind_sim::access::AccessKind;
use cachemind_sim::addr::{Address, Pc, SetId};
use cachemind_sim::config::CacheConfig;
use cachemind_sim::replay::MissType;
use cachemind_tracedb::prelude::*;
use cachemind_tracedb::snapshot::{read_snapshot, write_snapshot, VerifiedSnapshot};
use cachemind_tracedb::SnapshotError;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v3.snap")
}

/// The golden database: fully hand-specified, covering both qualified and
/// unqualified trace ids, shared program images, every `Option` arm, the
/// full miss taxonomy, and adversarial floats (−0.0 and a quiet NaN) so
/// bit-exact f64 handling stays pinned.
fn golden_db() -> TraceDatabase {
    let mut b = cachemind_workloads::program::ProgramBuilder::new(0x40_0000);
    b.function(
        "mainSimpleSort",
        "while (unLo <= unHi) { ... }",
        &["test %al,%al", "jne 4032d7", "mov -0x14(%rbp),%eax"],
    );
    b.function("refresh_potential", "node->potential = ...;", &["mov (%rdi),%rax"]);
    let program = Arc::new(b.build());

    let full_row = EvictionRecord {
        index: 0,
        pc: Pc::new(0x40_0000),
        address: Address::new(0x7f3a_1b40),
        kind: AccessKind::Load,
        set: SetId::new(13),
        is_miss: true,
        miss_type: Some(MissType::Conflict),
        evicted_address: Some(Address::new(0x7f3a_0a00)),
        accessed_reuse_distance: Some(512),
        evicted_reuse_distance: Some(4096),
        recency: Some(65),
        bypassed: false,
    };
    let sparse_row = EvictionRecord {
        index: 1,
        pc: Pc::new(0x40_0008),
        address: Address::new(0x7f3a_1b80),
        kind: AccessKind::Prefetch,
        set: SetId::new(14),
        is_miss: false,
        miss_type: None,
        evicted_address: None,
        accessed_reuse_distance: None,
        evicted_reuse_distance: None,
        recency: None,
        bypassed: true,
    };

    let entries = vec![
        TraceEntry {
            id: TraceId::new("mcf", "lru"),
            frame: TraceFrame::new(
                vec![full_row.clone(), sparse_row.clone()],
                Arc::clone(&program),
            ),
            metadata: "Cache Performance Summary — golden fixture entry".to_owned(),
            description: "Workload: mcf. Replacement Policy: LRU.".to_owned(),
            machine: "LLC@32x4".to_owned(),
            prefetcher: "none".to_owned(),
            prefetch_fills: 0,
            useful_prefetches: 0,
            prefetch_accuracy: 0.0,
            prefetch_coverage: -0.0,
            ipc: 1.25,
        },
        TraceEntry {
            id: TraceId::new("mcf", "belady"),
            frame: TraceFrame::new(vec![sparse_row.clone()], Arc::clone(&program)),
            metadata: "Cache Performance Summary — belady golden entry".to_owned(),
            description: "Workload: mcf. Replacement Policy: Belady.".to_owned(),
            machine: "LLC@32x4".to_owned(),
            prefetcher: "none".to_owned(),
            prefetch_fills: 0,
            useful_prefetches: 0,
            prefetch_accuracy: f64::from_bits(0x7ff8_0000_0000_0001), // quiet NaN, pinned bits
            prefetch_coverage: 0.0,
            ipc: 1.5,
        },
        TraceEntry {
            id: TraceId::qualified(
                "mcf",
                "lru",
                Some("table2@llc2048x16+dram160"),
                Some("stride4"),
            ),
            frame: TraceFrame::new(vec![full_row], Arc::clone(&program)),
            metadata: "Cache Performance Summary — qualified golden entry".to_owned(),
            description: "Workload: mcf. Replacement Policy: LRU. Prefetched.".to_owned(),
            machine: "table2@llc2048x16+dram160".to_owned(),
            prefetcher: "stride4".to_owned(),
            prefetch_fills: 128,
            useful_prefetches: 96,
            prefetch_accuracy: 0.75,
            prefetch_coverage: 0.6,
            ipc: 2.0,
        },
    ];
    let llc = CacheConfig::new("LLC", 5, 4, 6).with_latency(26).with_mshr(16);
    TraceDatabase::from_entries(entries, 2, Some(llc))
}

#[test]
fn writer_reproduces_golden_bytes() {
    let expected = std::fs::read(fixture_path()).expect(
        "missing tests/fixtures/golden_v3.snap — run \
         `cargo test -p cachemind-tracedb --test snapshot_golden -- --ignored` to generate it",
    );
    let actual = write_snapshot(&golden_db());
    assert_eq!(
        actual, expected,
        "snapshot writer output changed: this is a format change — bump SNAPSHOT_VERSION, \
         regenerate the fixture, and document the new layout in docs/SNAPSHOT.md"
    );
}

#[test]
fn reader_loads_golden_fixture() {
    let bytes = std::fs::read(fixture_path()).expect("golden fixture present");
    let db = read_snapshot(&bytes).expect("golden fixture loads");
    let reference = golden_db();

    assert_eq!(db.shard_count(), 2);
    assert_eq!(db.trace_keys(), reference.trace_keys());
    assert_eq!(db.llc_config(), reference.llc_config());

    let belady = db.get("mcf_evictions_belady").expect("golden entry");
    assert_eq!(belady.prefetch_accuracy.to_bits(), 0x7ff8_0000_0000_0001);
    let lru = db.get("mcf_evictions_lru").expect("golden entry");
    assert_eq!(lru.prefetch_coverage.to_bits(), (-0.0f64).to_bits());
    assert_eq!(lru.frame.rows().len(), 2);
    assert_eq!(lru.frame.rows()[0].miss_type, Some(MissType::Conflict));
    let qualified = db
        .get("mcf_evictions_lru@table2@llc2048x16+dram160+stride4")
        .expect("qualified golden entry");
    assert_eq!(qualified.prefetch_fills, 128);
    assert_eq!(qualified.machine, "table2@llc2048x16+dram160");

    // The three entries share one interned program image after load.
    assert!(std::ptr::eq(lru.frame.program(), belady.frame.program()));
}

#[test]
fn previous_version_fixture_is_rejected_with_a_typed_mismatch() {
    for found in [1, 2] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/golden_v{found}.snap"));
        let bytes = std::fs::read(path).expect("previous-version fixture present");
        let expected = SnapshotError::VersionMismatch { found };
        assert_eq!(read_snapshot(&bytes).unwrap_err(), expected);
        assert_eq!(VerifiedSnapshot::verify(bytes).unwrap_err(), expected);
    }
}

/// Regenerates the committed fixture. Run explicitly after an intentional
/// format change (with a version bump):
///
/// ```text
/// cargo test -p cachemind-tracedb --test snapshot_golden -- --ignored
/// ```
#[test]
#[ignore = "writes tests/fixtures/golden_v3.snap; run only to regenerate"]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
    std::fs::write(&path, write_snapshot(&golden_db())).expect("write fixture");
}
