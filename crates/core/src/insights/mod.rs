//! The actionable-insight use cases of §6.3.
//!
//! Each module reproduces one end-to-end loop: *CacheMind-style analysis
//! identifies a property → the simulator is re-run with the corresponding
//! intervention → the IPC/hit-rate delta is measured*:
//!
//! * [`bypass`] — signature optimisation for bypass logic (mcf/LRU).
//! * [`mockingjay`] — stable-PC reuse-distance-predictor training (milc).
//! * [`prefetch`] — software prefetch insertion at the dominant miss PC
//!   (pointer-chase microbenchmark).
//! * [`set_hotness`] — hot/cold cache-set identification (astar).
//! * [`inversions`] — the Belady-vs-PARROT per-PC hit-rate inversions.
//! * [`ablation`] — runnable ablation sweeps for the retrieval design
//!   choices (Sieve slice cap, Ranger schema card, dense index stride) and
//!   the machine axes (DRAM latency, prefetcher kind).

pub mod ablation;
pub mod bypass;
pub mod inversions;
pub mod mockingjay;
pub mod prefetch;
pub mod set_hotness;

use cachemind_sim::config::{CacheConfig, HierarchyConfig, MachineConfig};
use cachemind_sim::timing::IpcModel;

/// The LLC geometry shared by the use-case experiments (matches the trace
/// database's experiment LLC).
pub fn experiment_llc() -> CacheConfig {
    cachemind_tracedb::database::TraceDatabaseBuilder::experiment_llc()
}

/// The IPC model used by the use-case experiments.
pub fn experiment_ipc_model() -> IpcModel {
    IpcModel::from_config(&HierarchyConfig::table2())
}

/// The machine the use-case experiments replay on: the experiment LLC
/// wrapped in Table-2 core/DRAM timing, in LLC-only mode (the trace
/// database replays LLC streams directly). Scenario cells built on this
/// machine reproduce [`experiment_ipc_model`] IPC numbers exactly, so the
/// §6.3 interventions can be measured as grid cells instead of hand-rolled
/// replay loops.
pub fn experiment_machine() -> MachineConfig {
    MachineConfig::llc_only(experiment_llc())
}
