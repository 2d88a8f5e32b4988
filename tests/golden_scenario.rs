//! Byte-identity pins for the optimized replay hot path, for LLC-only
//! sweeps and for the benchmark's own Small grid.
//!
//! `tests/fixtures/golden_scenario_v1.json` is the literal stdout of the
//! pre-optimization binary running
//!
//! ```text
//! CACHEMIND_SCALE=tiny sweep_grid \
//!     --machines table2,small --prefetchers none,nextline,stride4 \
//!     --policies lru,srrip,ship,belady --workloads mcf,astar,ptrchase --json
//! ```
//!
//! This test rebuilds the identical grid through the library API and
//! asserts that serialization matches the fixture byte for byte — any
//! hot-path "optimization" that changes a single counter, score or IPC
//! digit fails here before it can silently reshape the paper's results.

use cachemind_suite::prelude::*;
use cachemind_suite::sim::hash::fnv64;
use cachemind_suite::sim::sweep::{ScenarioGrid, SweepStream};
use cachemind_suite::workloads::{by_name, Scale};

fn golden_grid() -> ScenarioGrid {
    let mut streams = Vec::new();
    for name in ["mcf", "astar", "ptrchase"] {
        let w = by_name(name, Scale::Tiny).expect("known workload");
        streams.push(SweepStream::new(w.name.clone(), w.accesses).with_instr_count(w.instr_count));
    }
    ScenarioGrid {
        policies: ["lru", "srrip", "ship", "belady"].map(str::to_owned).to_vec(),
        streams,
        machines: ["table2", "small"]
            .map(|m| MachineConfig::preset(m).expect("known machine"))
            .to_vec(),
        prefetchers: ["none", "nextline", "stride4"]
            .map(|p| PrefetcherKind::parse(p).expect("known prefetcher"))
            .to_vec(),
        mlp_override: None,
    }
}

#[test]
fn scenario_report_matches_pre_optimization_golden_fixture() {
    let report = golden_grid().run(cachemind_suite::policies::by_name).expect("grid runs");
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    let expected = include_str!("fixtures/golden_scenario_v1.json");
    // `sweep_grid --json` prints the pretty report through `println!`.
    assert_eq!(
        format!("{rendered}\n"),
        expected,
        "ScenarioReport drifted from the pre-optimization golden fixture"
    );
}

/// The `sweep_grid` default (LLC geometry) grid at tiny scale: five
/// policies × four workloads × three bare LLC geometries, each an
/// LLC-only machine with the `none` prefetcher.
fn golden_llc_grid() -> ScenarioGrid {
    let mut streams = Vec::new();
    for name in ["astar", "lbm", "mcf", "ptrchase"] {
        let w = by_name(name, Scale::Tiny).expect("known workload");
        streams.push(SweepStream::new(w.name.clone(), w.accesses).with_instr_count(w.instr_count));
    }
    ScenarioGrid {
        policies: ["lru", "srrip", "ship", "mockingjay", "belady"].map(str::to_owned).to_vec(),
        streams,
        machines: [("LLC", 8, 16), ("LLC-half", 7, 16), ("LLC-8way", 8, 8)]
            .map(|(name, sets_log2, ways)| {
                MachineConfig::llc_only(
                    CacheConfig::new(name, sets_log2, ways, 6).with_latency(26).with_mshr(64),
                )
            })
            .to_vec(),
        prefetchers: vec![PrefetcherKind::None],
        mlp_override: None,
    }
}

/// `tests/fixtures/golden_llc_v1.json` is the literal stdout of
/// `CACHEMIND_SCALE=tiny RAYON_NUM_THREADS=1 sweep_grid --json` from when
/// that mode printed its own LLC-only report shape: cells keyed by
/// `(workload, config, policy)` plus per-policy totals. The same grid on
/// LLC-only machines must reproduce every counter of it.
#[test]
fn llc_only_grid_matches_the_legacy_llc_golden_fixture() {
    let golden: serde_json::Value =
        serde_json::from_str(include_str!("fixtures/golden_llc_v1.json")).expect("fixture parses");
    let report = golden_llc_grid().run(cachemind_suite::policies::by_name).expect("grid runs");
    let str_field = |v: &serde_json::Value, key: &str| -> String {
        v.get(key).and_then(|f| f.as_str()).unwrap_or_else(|| panic!("{key} missing")).to_owned()
    };
    let u64_field = |v: &serde_json::Value, key: &str| -> u64 {
        v.get(key).and_then(|f| f.as_u64()).unwrap_or_else(|| panic!("{key} missing"))
    };

    let cells = golden.get("cells").and_then(|c| c.as_array()).expect("cells array");
    assert_eq!(report.cells.len(), cells.len(), "one scenario cell per legacy cell");
    for (want, got) in cells.iter().zip(&report.cells) {
        let key = format!("{}/{}/{}", got.workload, got.machine, got.policy);
        assert_eq!(str_field(want, "workload"), got.workload, "{key}");
        assert_eq!(str_field(want, "config"), got.machine, "{key}");
        assert_eq!(str_field(want, "policy"), got.policy, "{key}");
        assert_eq!(got.prefetcher, "none", "{key}");
        assert_eq!(u64_field(want, "accesses"), got.accesses, "{key}");
        assert_eq!(u64_field(want, "hits"), got.hits, "{key}");
        assert_eq!(u64_field(want, "misses"), got.misses, "{key}");
        let miss_rate = want.get("miss_rate").and_then(|f| f.as_f64()).expect("miss_rate");
        assert_eq!(miss_rate.to_bits(), got.miss_rate.to_bits(), "{key} miss_rate");
        assert_eq!(u64_field(want, "compulsory_misses"), got.compulsory_misses, "{key}");
        assert_eq!(u64_field(want, "capacity_misses"), got.capacity_misses, "{key}");
        assert_eq!(u64_field(want, "conflict_misses"), got.conflict_misses, "{key}");
        assert_eq!(u64_field(want, "wrong_evictions"), got.wrong_evictions, "{key}");
        assert_eq!(u64_field(want, "evictions"), got.evictions, "{key}");
    }

    let totals = golden.get("policy_totals").and_then(|t| t.as_array()).expect("totals array");
    assert_eq!(report.policy_totals.len(), totals.len(), "one total per policy");
    for (want, got) in totals.iter().zip(&report.policy_totals) {
        assert_eq!(str_field(want, "policy"), got.key);
        assert_eq!(u64_field(want, "cells"), got.cells, "{}", got.key);
        assert_eq!(u64_field(want, "accesses"), got.accesses, "{}", got.key);
        assert_eq!(u64_field(want, "hits"), got.hits, "{}", got.key);
        assert_eq!(u64_field(want, "misses"), got.misses, "{}", got.key);
        assert_eq!(u64_field(want, "wrong_evictions"), got.wrong_evictions, "{}", got.key);
        let miss_rate = want.get("miss_rate").and_then(|f| f.as_f64()).expect("miss_rate");
        assert_eq!(miss_rate.to_bits(), got.miss_rate.to_bits(), "{} miss_rate", got.key);
    }
}

/// The FNV-1a digest of the Small grid's pretty report plus its newline:
/// the stdout of
///
/// ```text
/// CACHEMIND_SCALE=small sweep_grid \
///     --machines table2,small --prefetchers none,nextline,stride4 \
///     --policies lru,srrip,ship,mockingjay,belady \
///     --workloads astar,lbm,mcf,ptrchase --json --no-timing
/// ```
const SMALL_GRID_DIGEST: u64 = 0x1415_bf1e_0803_a562;

/// The `sweep` workload's grid of the benchmark (`perfbench/src/inputs.rs`)
/// at Small: {astar, lbm, mcf, ptrchase} × {table2, small} × {none,
/// nextline, stride4} × {lru, srrip, ship, mockingjay, belady}, 120 cells.
/// At Small, unlike Tiny, table2's LLC evicts.
#[test]
fn small_benchmark_grid_matches_its_digest() {
    let mut streams = Vec::new();
    for name in ["astar", "lbm", "mcf", "ptrchase"] {
        let w = by_name(name, Scale::Small).expect("known workload");
        streams.push(SweepStream::new(w.name.clone(), w.accesses).with_instr_count(w.instr_count));
    }
    let grid = ScenarioGrid {
        policies: ["lru", "srrip", "ship", "mockingjay", "belady"].map(str::to_owned).to_vec(),
        streams,
        machines: ["table2", "small"]
            .map(|m| MachineConfig::preset(m).expect("known machine"))
            .to_vec(),
        prefetchers: ["none", "nextline", "stride4"]
            .map(|p| PrefetcherKind::parse(p).expect("known prefetcher"))
            .to_vec(),
        mlp_override: None,
    };
    let report = grid.run(cachemind_suite::policies::by_name).expect("grid runs");
    assert_eq!(report.cells.len(), 120);
    let rendered = serde_json::to_string_pretty(&report).expect("report serializes");
    let digest = fnv64(format!("{rendered}\n").as_bytes());
    assert_eq!(digest, SMALL_GRID_DIGEST, "Small grid report drifted: {digest:#018x}");
}
