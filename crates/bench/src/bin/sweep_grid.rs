//! Parallel scenario sweep driver: workload × machine × prefetcher ×
//! policy.
//!
//! Replays every requested workload under every requested policy on the
//! parallel sweep engine, whose `RAYON_NUM_THREADS` workers claim grid
//! items one at a time, then prints the canonical report. The output is
//! byte-identical for any `RAYON_NUM_THREADS` setting —
//! determinism across thread counts is part of the sweep engine's contract.
//!
//! Both modes run [`cachemind_sim::sweep::ScenarioGrid`] and print its
//! `ScenarioReport`: the miss taxonomy plus prefetch accuracy/coverage and
//! model-estimated IPC, with per-axis roll-ups.
//!
//! * **LLC geometry mode** (default): sweeps three bare LLC geometries as
//!   [`MachineConfig::llc_only`] machines with the `none` prefetcher —
//!   `(workload × LLC geometry × policy)`.
//! * **Scenario mode** (any of `--machines`, `--prefetchers`,
//!   `--dram-latency` present): sweeps full
//!   `(workload × machine × prefetcher × policy)` cells over machine
//!   presets.
//!
//! Environment:
//!
//! - `CACHEMIND_SCALE` — workload scale (`tiny` | `small` | `full`,
//!   default `small`), as for every other bench binary.
//! - `RAYON_NUM_THREADS` — worker count (default: all cores).
//!
//! Usage:
//!
//! ```text
//! sweep_grid [--policies a,b,c] [--workloads x,y,z] [--json]
//!            [--machines table2,small] [--prefetchers none,nextline,stride4]
//!            [--dram-latency 200,400] [--bench-json PATH] [--no-timing]
//! ```
//!
//! The worked example from the README:
//!
//! ```text
//! sweep_grid --prefetchers stride --dram-latency 200,400
//! ```
//!
//! sweeps every default workload and policy over the Table-2 machine at two
//! DRAM latencies with a degree-4 stride prefetcher, and reports per-cell
//! IPC.

use cachemind_sim::config::{CacheConfig, MachineConfig};
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_sim::sweep::{worker_count, ScenarioGrid, SweepStream};
use cachemind_workloads::workload::Scale;

/// The default policy set: online baselines, modern RRIP-family policies,
/// and the offline optimum as the lower bound.
const DEFAULT_POLICIES: [&str; 5] = ["lru", "srrip", "ship", "mockingjay", "belady"];

/// The default workload set: the three database workloads plus the
/// pointer-chasing microbenchmark.
const DEFAULT_WORKLOADS: [&str; 4] = ["astar", "lbm", "mcf", "ptrchase"];

/// LLC geometries swept in LLC geometry mode: the paper's LLC plus
/// half-capacity and half-associativity variants (scaled down one notch at
/// tiny scale so the sweep still exercises capacity pressure).
fn default_configs(scale: Scale) -> Vec<CacheConfig> {
    let shrink = match scale {
        Scale::Tiny => 3,
        _ => 0,
    };
    vec![
        CacheConfig::new("LLC", 11 - shrink, 16, 6).with_latency(26).with_mshr(64),
        CacheConfig::new("LLC-half", 10 - shrink, 16, 6).with_latency(26).with_mshr(64),
        CacheConfig::new("LLC-8way", 11 - shrink, 8, 6).with_latency(26).with_mshr(64),
    ]
}

fn parse_list(arg: Option<String>, default: &[&str]) -> Vec<String> {
    match arg {
        Some(list) => {
            list.split(',').map(|s| s.trim().to_owned()).filter(|s| !s.is_empty()).collect()
        }
        None => default.iter().map(|s| (*s).to_owned()).collect(),
    }
}

fn fail(message: String) -> ! {
    eprintln!("sweep_grid: {message}");
    std::process::exit(2);
}

/// The machine-performance record written by `--bench-json` — the
/// `BENCH_sweep.json` schema. With `--no-timing` every machine-dependent
/// field (wall clock, throughput, worker count) is zeroed so the record is
/// byte-identical for any `RAYON_NUM_THREADS`.
fn bench_record(
    mode: &str,
    cells: usize,
    threads: usize,
    scale: Scale,
    wall: Option<std::time::Duration>,
) -> String {
    let (wall_ms, cells_per_sec) = match wall {
        Some(wall) => {
            let secs = wall.as_secs_f64();
            let rate = if secs > 0.0 { cells as f64 / secs } else { 0.0 };
            (secs * 1_000.0, rate)
        }
        None => (0.0, 0.0),
    };
    // Per-stage breakdown from the process-global metrics registry: the
    // sweep engine records `sweep.prepare` / `sweep.replay` spans on every
    // run. Zeroed with the rest of the wall-clock fields under --no-timing.
    let (prepare_ms, replay_ms) = match wall {
        Some(_) => {
            let snap = cachemind_obs::global().snapshot();
            (
                snap.histogram_sum(cachemind_obs::names::SWEEP_PREPARE) as f64 / 1_000.0,
                snap.histogram_sum(cachemind_obs::names::SWEEP_REPLAY) as f64 / 1_000.0,
            )
        }
        None => (0.0, 0.0),
    };
    format!(
        "{{\n  \"bench\": \"sweep\",\n  \"version\": 1,\n  \"mode\": \"{mode}\",\n  \
         \"scale\": \"{scale:?}\",\n  \"cells\": {cells},\n  \"threads\": {threads},\n  \
         \"wall_ms\": {wall_ms:.3},\n  \"prepare_ms\": {prepare_ms:.3},\n  \
         \"replay_ms\": {replay_ms:.3},\n  \"cells_per_sec\": {cells_per_sec:.1}\n}}"
    )
}

fn main() {
    let mut policies_arg = None;
    let mut workloads_arg = None;
    let mut machines_arg: Option<String> = None;
    let mut prefetchers_arg: Option<String> = None;
    let mut dram_arg: Option<String> = None;
    let mut bench_json: Option<String> = None;
    let mut no_timing = false;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    let require_value = |flag: &str, value: Option<String>| match value {
        Some(v) => Some(v),
        None => fail(format!("{flag} requires a value")),
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--policies" => policies_arg = require_value("--policies", args.next()),
            "--workloads" => workloads_arg = require_value("--workloads", args.next()),
            "--machines" => machines_arg = require_value("--machines", args.next()),
            "--prefetchers" => prefetchers_arg = require_value("--prefetchers", args.next()),
            "--dram-latency" => dram_arg = require_value("--dram-latency", args.next()),
            "--bench-json" => bench_json = require_value("--bench-json", args.next()),
            "--no-timing" => no_timing = true,
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: sweep_grid [--policies a,b,c] [--workloads x,y,z] [--json]\n\
                     \x20                 [--machines table2,small] [--prefetchers none,nextline,stride4]\n\
                     \x20                 [--dram-latency 200,400] [--bench-json PATH] [--no-timing]"
                );
                return;
            }
            other => fail(format!("unknown argument {other:?} (try --help)")),
        }
    }

    let scale = Scale::from_env().unwrap_or_else(|e| fail(e));
    let policies = parse_list(policies_arg, &DEFAULT_POLICIES);
    let workload_names = parse_list(workloads_arg, &DEFAULT_WORKLOADS);
    let scenario_mode = machines_arg.is_some() || prefetchers_arg.is_some() || dram_arg.is_some();

    let mut streams = Vec::new();
    for name in &workload_names {
        let workload = match cachemind_workloads::by_name(name, scale) {
            Some(w) => w,
            None => fail(format!("unknown workload {name:?}")),
        };
        streams.push(
            SweepStream::new(workload.name.clone(), workload.accesses)
                .with_instr_count(workload.instr_count),
        );
    }

    let threads = worker_count();
    let started = std::time::Instant::now();
    let (mode, machines, prefetchers) = if scenario_mode {
        // Machine axis: named presets × DRAM latency variants.
        let machine_names = parse_list(machines_arg, &["table2"]);
        let mut machines = Vec::new();
        for name in &machine_names {
            let base = match MachineConfig::preset(name) {
                Some(m) => m,
                None => fail(format!("unknown machine preset {name:?} (try table2, small)")),
            };
            match &dram_arg {
                None => machines.push(base),
                Some(list) => {
                    for token in list.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                        let cycles: u64 = match token.parse() {
                            Ok(c) => c,
                            Err(_) => fail(format!("bad --dram-latency value {token:?}")),
                        };
                        machines.push(base.clone().with_dram_latency(cycles));
                    }
                }
            }
        }
        let mut prefetchers = Vec::new();
        for name in parse_list(prefetchers_arg, &["none"]) {
            match PrefetcherKind::parse(&name) {
                Some(kind) => prefetchers.push(kind),
                None => fail(format!(
                    "unknown prefetcher {name:?} (try none, nextline, stride, stride<N>)"
                )),
            }
        }
        ("scenario", machines, prefetchers)
    } else {
        let machines = default_configs(scale).into_iter().map(MachineConfig::llc_only).collect();
        ("llc", machines, vec![PrefetcherKind::None])
    };

    let grid = ScenarioGrid { policies, streams, machines, prefetchers, mlp_override: None };
    eprintln!(
        "[sweep_grid] {} policies x {} workloads x {} machines x {} prefetchers = {} cells \
         at {:?} scale on {} worker(s)",
        grid.policies.len(),
        grid.streams.len(),
        grid.machines.len(),
        grid.prefetchers.len(),
        grid.cells(),
        scale,
        threads,
    );
    for machine in &grid.machines {
        eprintln!("[sweep_grid]   machine {}", machine.machine_label());
    }
    let report = match grid.run(cachemind_policies::by_name) {
        Ok(report) => report,
        Err(err) => fail(err.to_string()),
    };
    let cells = report.cells.len();
    let rendered = if json {
        serde_json::to_string_pretty(&report).expect("report serializes")
    } else {
        report.to_table()
    };
    let wall = started.elapsed();
    eprintln!("[sweep_grid] swept {cells} cells in {wall:?}");

    if json {
        println!("{rendered}");
    } else {
        print!("{rendered}");
    }

    if let Some(path) = bench_json {
        let timing = if no_timing { None } else { Some(wall) };
        let record = bench_record(mode, cells, if no_timing { 0 } else { threads }, scale, timing);
        if let Err(err) = std::fs::write(&path, format!("{record}\n")) {
            fail(format!("cannot write {path}: {err}"));
        }
        eprintln!("[sweep_grid] wrote bench record to {path}");
    }
}
