//! Parallel scenario sweeps: workload × machine × prefetcher × policy.
//!
//! The figure-generation binaries and the paper's use cases (§6.3) share
//! the same shape of work: replay every workload under every replacement
//! policy for one or more machine configurations, then tabulate hit rates,
//! the miss taxonomy, prefetch usefulness and IPC. Done serially that is
//! `|workloads| × |machines| × |prefetchers| × |policies|` independent full
//! replays — exactly the embarrassingly-parallel rollout a sweep engine
//! should spread across cores.
//!
//! [`ScenarioGrid`] is the one sweep engine. Each cell transforms the
//! workload stream through a [`Prefetcher`], replays it on a
//! [`MachineConfig`] (the full hierarchy, or
//! [`MachineConfig::llc_only`] for bare LLC-geometry sweeps), and
//! [`GridCell::metrics`] derives its prefetch accuracy/coverage and
//! [`IpcModel`] IPC from the replay's counters.
//!
//! [`ScenarioGrid::run_cells`] parallelises in two stages, each through
//! [`sweep_cells`]: [`worker_count`] scoped threads (`RAYON_NUM_THREADS`,
//! else the available parallelism) claim the stage's items one at a time
//! from a shared queue, so a slow item never holds up items queued behind
//! it on the same worker:
//!
//! 1. one task per `(workload, machine, prefetcher)` triple transforms the
//!    stream, runs the hierarchy filter (full-machine mode) and builds the
//!    [`LlcReplay`] (stream copy + reuse oracle) exactly once; the
//!    [`PreparedScenario`] is held behind an [`Arc`] and shared by every
//!    policy replaying the triple;
//! 2. one task per `(triple, policy)` cell hands the caller's visitor the
//!    [`GridCell`] and a fresh policy.
//!
//! It has two clients. [`ScenarioGrid::run`] replays each cell on the
//! record-free [`LlcReplay::run_summary`] fast path and reduces it to a
//! [`ScenarioCell`]. The trace-database builder in `cachemind-tracedb`
//! replays each cell with the record-emitting [`LlcReplay::run`] and stores
//! the records as a trace. Both replay paths produce the same counters.
//!
//! **Determinism is a contract, not an accident.** Each cell's result
//! depends only on its own inputs, and the engine aggregates by collecting
//! keyed cells and sorting them by `(workload, machine, prefetcher,
//! policy)` before any reduction, so the report is byte-identical no matter
//! how many worker threads ran the grid or in what order cells finished.
//! The `sweep_determinism` integration test pins this down by diffing the
//! rendered reports across `RAYON_NUM_THREADS` settings.
//!
//! The engine lives in `cachemind-sim` and therefore cannot name concrete
//! policies from `cachemind-policies`; callers supply a policy *factory*
//! (for example `cachemind_policies::by_name`) which the driver binary in
//! `cachemind-bench` wires up.

use std::collections::HashSet;
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};
use std::thread;

use serde::{Deserialize, Serialize};

use crate::access::MemoryAccess;
use crate::config::MachineConfig;
use crate::hierarchy::CacheHierarchy;
use crate::prefetch::{Prefetcher, PrefetcherKind};
use crate::replacement::ReplacementPolicy;
use crate::replay::{LlcReplay, ReplayReport};
use crate::timing::IpcModel;

/// A named access stream to sweep over (typically one workload's demand
/// stream), with the dynamic instruction count the IPC model charges for.
#[derive(Debug, Clone)]
pub struct SweepStream {
    /// Stable workload name used as the aggregation key.
    pub name: String,
    /// The access stream.
    pub accesses: Vec<MemoryAccess>,
    /// Total dynamic instructions behind the stream (defaults to the
    /// stream length; real workloads override with their instruction
    /// count so per-cell IPC is meaningful).
    pub instr_count: u64,
}

impl SweepStream {
    /// Bundles a name and a stream; `instr_count` defaults to the stream
    /// length.
    pub fn new(name: impl Into<String>, accesses: Vec<MemoryAccess>) -> Self {
        let instr_count = accesses.len() as u64;
        SweepStream { name: name.into(), accesses, instr_count }
    }

    /// Sets the dynamic instruction count, returning `self` for chaining.
    pub fn with_instr_count(mut self, instr_count: u64) -> Self {
        self.instr_count = instr_count;
        self
    }
}

/// Number of worker threads a parallel sweep stage uses:
/// `RAYON_NUM_THREADS` when it holds a positive integer (`1` runs every
/// stage inline on the caller), otherwise the available parallelism. Read
/// per stage, so a driver can change it between runs.
pub fn worker_count() -> usize {
    match std::env::var("RAYON_NUM_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
    }
}

/// Order-preserving parallel map over independent sweep configurations —
/// the primitive behind both [`ScenarioGrid::run_cells`] stages, exposed so
/// the figure reports (`cachemind reproduce figure5_quality`,
/// `figure6_fewshot`, `ablation_sweeps`, ...) can spread their per-backend
/// and per-parameter replays across cores under the same determinism
/// contract: each output cell depends only on its own input, and results
/// come back in input order no matter how many worker threads ran them or
/// in what order they finished.
///
/// Runs on [`worker_count`] workers, capped at the item count; each worker
/// claims the next unclaimed item when it finishes its last, so uneven
/// item costs balance across workers instead of waiting on the slowest
/// fixed share.
pub fn sweep_cells<T, O, F>(items: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    sweep_cells_on(worker_count(), items, f)
}

/// [`sweep_cells`] on an explicit worker count.
fn sweep_cells_on<T, O, F>(workers: usize, items: Vec<T>, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    // The guard drops when `claim` returns, so `f` runs with the queue
    // unlocked.
    let claim = || queue.lock().expect("no worker panics holding the queue").next();
    let mut done: Vec<(usize, O)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    std::iter::from_fn(&claim).map(|(i, item)| (i, f(item))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, output)| output).collect()
}

/// The policy-independent half of one scenario cell — stage 1 of the
/// scenario pipeline: the prepared [`LlcReplay`] (stream copy + reuse
/// oracle) and, for full machines, the baseline hierarchy counters the
/// [`IpcModel`] reads.
#[derive(Debug)]
pub struct PreparedScenario {
    /// The LLC replay every policy in the cell reruns.
    pub replay: LlcReplay,
    /// Baseline hierarchy counters (full-machine mode only), with the
    /// captured LLC stream already drained into the replay.
    pub hierarchy: Option<crate::hierarchy::HierarchyReport>,
}

/// Stage 1a of the scenario pipeline: rewrites a demand stream through a
/// hardware prefetcher. Returns `None` for [`PrefetcherKind::None`] so
/// callers can borrow the original stream instead of cloning it — the
/// transform depends only on `(stream, prefetcher)`, so every machine
/// replaying the pair can share one rewritten copy.
pub fn transform_stream(
    kind: PrefetcherKind,
    accesses: &[MemoryAccess],
) -> Option<Vec<MemoryAccess>> {
    match kind {
        PrefetcherKind::None => None,
        kind => Some(Prefetcher::new(kind).transform(accesses)),
    }
}

/// Stage 1b of the scenario pipeline: prepares the policy-independent half
/// of a replay on one machine. LLC-only machines replay the (possibly
/// prefetcher-transformed) stream directly against their LLC geometry; full
/// machines filter it through L1/L2 first via [`CacheHierarchy`] and keep
/// the baseline counters the IPC model charges.
pub fn prepare_scenario(
    machine: &MachineConfig,
    accesses: &[MemoryAccess],
    instr_count: u64,
) -> PreparedScenario {
    if machine.llc_only {
        PreparedScenario {
            replay: LlcReplay::new(machine.hierarchy.llc.clone(), accesses),
            hierarchy: None,
        }
    } else {
        let mut hierarchy = CacheHierarchy::new(machine.hierarchy.clone());
        let mut report = hierarchy.run(accesses, instr_count);
        let llc_stream = std::mem::take(&mut report.llc_stream);
        PreparedScenario {
            replay: LlcReplay::from_stream(machine.hierarchy.llc.clone(), llc_stream),
            hierarchy: Some(report),
        }
    }
}

/// One prepared `(stream, machine, prefetcher)` triple — the output of
/// stage 1. The [`PreparedScenario`] sits behind an [`Arc`] so every
/// `(triple, policy)` cell of stage 2 shares the one prepared replay
/// (stream copy, reuse oracle, pre-split sets) instead of re-preparing it.
struct PreparedTriple {
    stream: usize,
    machine: usize,
    prefetcher: usize,
    scenario: Arc<PreparedScenario>,
}

/// One `(stream, machine, prefetcher, policy)` cell as
/// [`ScenarioGrid::run_cells`] hands it to its caller: the prepared
/// stage-1 scenario of the cell's triple plus the axis values.
#[derive(Debug, Clone, Copy)]
pub struct GridCell<'a> {
    /// The triple's prepared replay, shared by every policy of the triple.
    pub scenario: &'a PreparedScenario,
    /// The workload stream (before the prefetcher transform).
    pub stream: &'a SweepStream,
    /// The machine the cell replays on.
    pub machine: &'a MachineConfig,
    /// The prefetcher that rewrote the stream.
    pub prefetcher: PrefetcherKind,
    /// The policy name.
    pub policy: &'a str,
    /// Memory-level-parallelism override for the cell's IPC model.
    pub mlp_override: Option<f64>,
}

/// What a cell derives from its replay counters and its machine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellMetrics {
    /// Prefetch accesses that actually filled a line: prefetch misses in
    /// the LLC replay (LLC-only machines) or anywhere in the hierarchy
    /// (full machines).
    pub prefetch_fills: u64,
    /// Demand accesses served from a line a prefetch brought in, at the
    /// level the demand found it.
    pub useful_prefetches: u64,
    /// `useful_prefetches / prefetch_fills` (0 when nothing was fetched).
    pub prefetch_accuracy: f64,
    /// `useful_prefetches / (useful_prefetches + demand_misses)` — the
    /// fraction of would-be misses the prefetcher covered.
    pub prefetch_coverage: f64,
    /// Model-estimated IPC.
    pub ipc: f64,
}

impl GridCell<'_> {
    /// Reduces one replay of this cell — [`LlcReplay::run`] or
    /// [`LlcReplay::run_summary`], whose counters agree — to its derived
    /// metrics.
    pub fn metrics(&self, report: &ReplayReport) -> CellMetrics {
        let hierarchy = self.scenario.hierarchy.as_ref();
        // LLC-only cells take the replay's streaming usefulness counters;
        // full-machine cells take the hierarchy's, because a useful
        // prefetch is typically consumed by an L1 hit the LLC replay never
        // sees.
        let (prefetch_fills, useful_prefetches) = match hierarchy {
            Some(h) => (h.prefetch_fills, h.useful_prefetches),
            None => (report.prefetch_fills, report.useful_prefetches),
        };
        let mut model = IpcModel::from_config(&self.machine.hierarchy);
        if let Some(mlp) = self.mlp_override {
            model = model.with_mlp(mlp);
        }
        let demand_misses = report.stats.demand_misses;
        let ipc = match hierarchy {
            Some(h) => model.ipc(h, demand_misses),
            None => {
                // LLC-only mode: demand accesses pay the LLC hit latency,
                // demand misses pay DRAM; prefetches do not stall the core.
                let demand_accesses = report.stats.accesses - report.stats.prefetches;
                let demand_hits = demand_accesses.saturating_sub(demand_misses);
                model.ipc_from_llc(self.stream.instr_count, demand_hits, demand_misses)
            }
        };
        let prefetch_accuracy = if prefetch_fills == 0 {
            0.0
        } else {
            useful_prefetches as f64 / prefetch_fills as f64
        };
        let covered = useful_prefetches + demand_misses;
        let prefetch_coverage =
            if covered == 0 { 0.0 } else { useful_prefetches as f64 / covered as f64 };
        CellMetrics { prefetch_fills, useful_prefetches, prefetch_accuracy, prefetch_coverage, ipc }
    }
}

/// Errors surfaced by [`ScenarioGrid::run`] and [`ScenarioGrid::run_cells`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The policy factory returned `None` for a requested policy name.
    UnknownPolicy(String),
    /// The grid had an empty axis (no policies, streams, machines or
    /// prefetchers).
    EmptyGrid,
    /// A policy name, stream name, machine label or prefetcher label
    /// appears more than once; each axis must uniquely key its cells or
    /// cells would be silently duplicated and totals double-counted.
    DuplicateKey(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownPolicy(name) => write!(f, "unknown policy {name:?}"),
            SweepError::EmptyGrid => write!(f, "sweep grid has an empty axis"),
            SweepError::DuplicateKey(key) => write!(f, "duplicate grid key {key:?}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// One `(workload, machine, prefetcher, policy)` cell of the scenario
/// grid, reduced to its aggregate counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioCell {
    /// Workload (stream) name.
    pub workload: String,
    /// Machine label (see [`MachineConfig::machine_label`]).
    pub machine: String,
    /// Prefetcher label (see [`PrefetcherKind::label`]).
    pub prefetcher: String,
    /// Policy name.
    pub policy: String,
    /// LLC accesses replayed (demand + prefetch).
    pub accesses: u64,
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
    /// Miss rate over the replayed LLC stream.
    pub miss_rate: f64,
    /// Demand (load/store/fetch) misses only — what the IPC model charges
    /// DRAM latency for.
    pub demand_misses: u64,
    /// Compulsory misses.
    pub compulsory_misses: u64,
    /// Capacity misses.
    pub capacity_misses: u64,
    /// Conflict misses.
    pub conflict_misses: u64,
    /// Evictions whose victim was needed sooner than the inserted line.
    pub wrong_evictions: u64,
    /// Total evictions.
    pub evictions: u64,
    /// Prefetch accesses that reached the LLC replay.
    pub prefetches: u64,
    /// Prefetch accesses that actually filled a line: prefetch misses in
    /// the LLC replay (LLC-only machines) or anywhere in the hierarchy
    /// (full machines).
    pub prefetch_fills: u64,
    /// Demand accesses served from a line a prefetch brought in, at the
    /// level the demand found it.
    pub useful_prefetches: u64,
    /// `useful_prefetches / prefetch_fills` (0 when nothing was fetched).
    pub prefetch_accuracy: f64,
    /// `useful_prefetches / (useful_prefetches + demand_misses)` — the
    /// fraction of would-be misses the prefetcher covered.
    pub prefetch_coverage: f64,
    /// Dynamic instructions charged by the IPC model.
    pub instr_count: u64,
    /// Model-estimated IPC for this cell.
    pub ipc: f64,
}

impl ScenarioCell {
    /// Hit rate over the replayed LLC stream (zero when nothing replayed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Aggregate counters for one value of a scenario axis (policy,
/// prefetcher or machine) across the whole grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisTotal {
    /// The axis value (policy name, prefetcher label or machine label).
    pub key: String,
    /// Cells aggregated.
    pub cells: u64,
    /// Total accesses.
    pub accesses: u64,
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
    /// Miss rate over all aggregated accesses.
    pub miss_rate: f64,
    /// Total wrong evictions.
    pub wrong_evictions: u64,
    /// Unweighted mean of the per-cell IPC estimates.
    pub mean_ipc: f64,
}

/// A completed scenario sweep: cells in canonical `(workload, machine,
/// prefetcher, policy)` order plus per-axis roll-ups.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Every grid cell, canonically sorted.
    pub cells: Vec<ScenarioCell>,
    /// Per-policy roll-up, sorted by policy name.
    pub policy_totals: Vec<AxisTotal>,
    /// Per-prefetcher roll-up, sorted by prefetcher label.
    pub prefetcher_totals: Vec<AxisTotal>,
    /// Per-machine roll-up, sorted by machine label.
    pub machine_totals: Vec<AxisTotal>,
}

/// The scenario grid specification: every policy replays every stream
/// under every machine and prefetcher.
#[derive(Debug, Clone, Default)]
pub struct ScenarioGrid {
    /// Policy names, resolved through the caller's factory.
    pub policies: Vec<String>,
    /// Workload streams.
    pub streams: Vec<SweepStream>,
    /// Machine configurations.
    pub machines: Vec<MachineConfig>,
    /// Prefetcher kinds.
    pub prefetchers: Vec<PrefetcherKind>,
    /// Optional memory-level-parallelism override applied to every cell's
    /// IPC model (pointer-chasing studies use 1.0).
    pub mlp_override: Option<f64>,
}

fn axis_totals<'c, K>(cells: &'c [ScenarioCell], key: K) -> Vec<AxisTotal>
where
    K: Fn(&'c ScenarioCell) -> &'c str,
{
    let mut keys: Vec<&str> = cells.iter().map(&key).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let mut total = AxisTotal {
                key: k.to_owned(),
                cells: 0,
                accesses: 0,
                hits: 0,
                misses: 0,
                miss_rate: 0.0,
                wrong_evictions: 0,
                mean_ipc: 0.0,
            };
            let mut ipc_sum = 0.0;
            for cell in cells.iter().filter(|c| key(c) == k) {
                total.cells += 1;
                total.accesses += cell.accesses;
                total.hits += cell.hits;
                total.misses += cell.misses;
                total.wrong_evictions += cell.wrong_evictions;
                ipc_sum += cell.ipc;
            }
            if total.accesses > 0 {
                total.miss_rate = total.misses as f64 / total.accesses as f64;
            }
            if total.cells > 0 {
                total.mean_ipc = ipc_sum / total.cells as f64;
            }
            total
        })
        .collect()
}

impl ScenarioGrid {
    /// Builder-style: adds a policy name.
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.policies.push(name.into());
        self
    }

    /// Builder-style: adds a stream.
    pub fn stream(mut self, stream: SweepStream) -> Self {
        self.streams.push(stream);
        self
    }

    /// Builder-style: adds a machine.
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.machines.push(machine);
        self
    }

    /// Builder-style: adds a prefetcher kind.
    pub fn prefetcher(mut self, kind: PrefetcherKind) -> Self {
        self.prefetchers.push(kind);
        self
    }

    /// Overrides the IPC model's effective memory-level parallelism for
    /// every cell (pointer-chasing studies use 1.0).
    pub fn with_mlp(mut self, mlp: f64) -> Self {
        self.mlp_override = Some(mlp);
        self
    }

    /// Number of grid cells.
    pub fn cells(&self) -> usize {
        self.policies.len() * self.streams.len() * self.machines.len() * self.prefetchers.len()
    }

    fn validate<F>(&self, make_policy: &F) -> Result<(), SweepError>
    where
        F: Fn(&str) -> Option<Box<dyn ReplacementPolicy>> + Sync,
    {
        if self.cells() == 0 {
            return Err(SweepError::EmptyGrid);
        }
        // Fail fast (and deterministically) on unresolvable policy names
        // instead of panicking from a worker mid-sweep.
        for name in &self.policies {
            if make_policy(name).is_none() {
                return Err(SweepError::UnknownPolicy(name.clone()));
            }
        }
        // Every grid axis must be duplicate-free, or cells lose their
        // unique (workload, machine, prefetcher, policy) key and totals
        // double-count.
        let mut seen = HashSet::new();
        let axes = self
            .policies
            .iter()
            .cloned()
            .chain(self.streams.iter().map(|s| format!("stream:{}", s.name)))
            .chain(self.machines.iter().map(|m| format!("machine:{}", m.machine_label())))
            .chain(self.prefetchers.iter().map(|p| format!("prefetcher:{}", p.label())));
        for key in axes {
            if !seen.insert(key.clone()) {
                return Err(SweepError::DuplicateKey(key));
            }
        }
        Ok(())
    }

    /// Stage 1 of the scenario pipeline: transforms each `(stream,
    /// prefetcher)` pair once (1a) and prepares each `(stream, machine,
    /// prefetcher)` triple once (1b). Exactly
    /// `streams × machines × prefetchers` prepare tasks run, regardless of
    /// how many policies will replay each triple.
    fn prepare_stage(&self) -> Vec<PreparedTriple> {
        // Stage 1a ([`transform_stream`]): one task per (stream,
        // prefetcher) pair — the transform depends only on those two axes,
        // so every machine replaying the pair shares one transformed stream
        // instead of rebuilding its own copy. `None` borrows the original
        // stream rather than cloning it.
        let pairs: Vec<(usize, usize)> = (0..self.streams.len())
            .flat_map(|s| (0..self.prefetchers.len()).map(move |p| (s, p)))
            .collect();
        let transformed_streams: Vec<Option<Vec<MemoryAccess>>> = sweep_cells(pairs, |(s, p)| {
            transform_stream(self.prefetchers[p], &self.streams[s].accesses)
        });

        // Stage 1b ([`prepare_scenario`]): one task per (stream, machine,
        // prefetcher) triple — hierarchy filter (full-machine mode) and the
        // replay's reuse oracle are the expensive, policy-independent
        // parts, shared by every policy replaying the triple.
        let triples: Vec<(usize, usize, usize)> = (0..self.streams.len())
            .flat_map(|s| {
                (0..self.machines.len())
                    .flat_map(move |m| (0..self.prefetchers.len()).map(move |p| (s, m, p)))
            })
            .collect();
        sweep_cells(triples, |(s, m, p)| {
            let stream = &self.streams[s];
            let transformed: &[MemoryAccess] =
                match &transformed_streams[s * self.prefetchers.len() + p] {
                    Some(rewritten) => rewritten,
                    None => &stream.accesses,
                };
            let scenario = prepare_scenario(&self.machines[m], transformed, stream.instr_count);
            PreparedTriple { stream: s, machine: m, prefetcher: p, scenario: Arc::new(scenario) }
        })
    }

    /// Runs the grid's stages in parallel and hands every `(triple,
    /// policy)` cell to `visit`, returning its outputs in `(stream, machine,
    /// prefetcher, policy)` axis order.
    ///
    /// The grid is validated first. Stage 1 then prepares each `(stream,
    /// machine, prefetcher)` triple exactly once; stage 2 runs one task per
    /// cell, calling `visit` with the cell and a fresh policy from
    /// `make_policy`. Both run on the worker threads, so policies need not
    /// be `Send`/`Sync` themselves — only the factory and the visitor must
    /// be shareable.
    pub fn run_cells<F, V, O>(&self, make_policy: F, visit: V) -> Result<Vec<O>, SweepError>
    where
        F: Fn(&str) -> Option<Box<dyn ReplacementPolicy>> + Sync,
        V: Fn(GridCell<'_>, Box<dyn ReplacementPolicy>) -> O + Sync,
        O: Send,
    {
        self.validate(&make_policy)?;

        // Stage timings feed the process-global telemetry registry only —
        // wall-clock side channels the bench bins report; nothing below
        // reads them back.
        let prepare_span = cachemind_obs::global().span(cachemind_obs::names::SWEEP_PREPARE);
        let prepared = self.prepare_stage();
        prepare_span.finish();
        // Every cell beyond the first per triple reuses a prepared
        // scenario instead of re-preparing it; the count is a deterministic
        // function of the grid shape.
        cachemind_obs::global()
            .counter(cachemind_obs::names::SWEEP_PREPARE_REUSE)
            .add((self.cells() - prepared.len()) as u64);
        let replay_span = cachemind_obs::global().span(cachemind_obs::names::SWEEP_REPLAY);

        // Stage 2: one task per (triple, policy) cell.
        let cell_inputs: Vec<(usize, usize)> = (0..prepared.len())
            .flat_map(|t| (0..self.policies.len()).map(move |p| (t, p)))
            .collect();
        let outputs = sweep_cells(cell_inputs, |(t, p)| {
            let cell_span = cachemind_obs::global().span(cachemind_obs::names::SWEEP_CELL_REPLAY);
            let triple = &prepared[t];
            let policy = &self.policies[p];
            let cell = GridCell {
                scenario: &triple.scenario,
                stream: &self.streams[triple.stream],
                machine: &self.machines[triple.machine],
                prefetcher: self.prefetchers[triple.prefetcher],
                policy,
                mlp_override: self.mlp_override,
            };
            let output =
                visit(cell, make_policy(policy).expect("policy resolved during validation"));
            cell_span.finish();
            output
        });
        replay_span.finish();
        Ok(outputs)
    }

    /// Runs the full grid in parallel ([`ScenarioGrid::run_cells`]) on the
    /// record-free [`LlcReplay::run_summary`] path and reduces every cell
    /// to a [`ScenarioCell`].
    pub fn run<F>(&self, make_policy: F) -> Result<ScenarioReport, SweepError>
    where
        F: Fn(&str) -> Option<Box<dyn ReplacementPolicy>> + Sync,
    {
        let mut cells = self.run_cells(make_policy, |cell, policy| {
            let summary = cell.scenario.replay.run_summary(policy);
            let metrics = cell.metrics(&summary);
            ScenarioCell {
                workload: cell.stream.name.clone(),
                machine: cell.machine.machine_label(),
                prefetcher: cell.prefetcher.label(),
                policy: cell.policy.to_owned(),
                accesses: summary.stats.accesses,
                hits: summary.stats.hits,
                misses: summary.stats.misses,
                miss_rate: summary.miss_rate(),
                demand_misses: summary.stats.demand_misses,
                compulsory_misses: summary.compulsory_misses,
                capacity_misses: summary.capacity_misses,
                conflict_misses: summary.conflict_misses,
                wrong_evictions: summary.wrong_evictions,
                evictions: summary.stats.evictions,
                prefetches: summary.stats.prefetches,
                prefetch_fills: metrics.prefetch_fills,
                useful_prefetches: metrics.useful_prefetches,
                prefetch_accuracy: metrics.prefetch_accuracy,
                prefetch_coverage: metrics.prefetch_coverage,
                instr_count: cell.stream.instr_count,
                ipc: metrics.ipc,
            }
        })?;

        // Canonical order before any reduction: aggregation must not
        // observe scheduling order.
        cells.sort_by(|a, b| {
            (&a.workload, &a.machine, &a.prefetcher, &a.policy).cmp(&(
                &b.workload,
                &b.machine,
                &b.prefetcher,
                &b.policy,
            ))
        });

        let policy_totals = axis_totals(&cells, |c| c.policy.as_str());
        let prefetcher_totals = axis_totals(&cells, |c| c.prefetcher.as_str());
        let machine_totals = axis_totals(&cells, |c| c.machine.as_str());

        Ok(ScenarioReport { cells, policy_totals, prefetcher_totals, machine_totals })
    }
}

impl ScenarioReport {
    /// The cell for a `(workload, machine, prefetcher, policy)` key, if
    /// present.
    pub fn cell(
        &self,
        workload: &str,
        machine: &str,
        prefetcher: &str,
        policy: &str,
    ) -> Option<&ScenarioCell> {
        self.cells.iter().find(|c| {
            c.workload == workload
                && c.machine == machine
                && c.prefetcher == prefetcher
                && c.policy == policy
        })
    }

    /// Renders the report as a fixed-width text table (cells, then the
    /// three axis roll-ups). Stable across runs and thread counts.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:<26} {:<10} {:<11} {:>9} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8}\n",
            "workload",
            "machine",
            "prefetch",
            "policy",
            "accesses",
            "misses",
            "miss%",
            "pf-acc%",
            "pf-cov%",
            "wrong",
            "ipc",
        ));
        for c in &self.cells {
            out.push_str(&format!(
                "{:<10} {:<26} {:<10} {:<11} {:>9} {:>9} {:>6.2}% {:>6.2}% {:>6.2}% {:>7} {:>8.4}\n",
                c.workload,
                c.machine,
                c.prefetcher,
                c.policy,
                c.accesses,
                c.misses,
                c.miss_rate * 100.0,
                c.prefetch_accuracy * 100.0,
                c.prefetch_coverage * 100.0,
                c.wrong_evictions,
                c.ipc,
            ));
        }
        for (title, totals) in [
            ("policy", &self.policy_totals),
            ("prefetcher", &self.prefetcher_totals),
            ("machine", &self.machine_totals),
        ] {
            out.push('\n');
            out.push_str(&format!(
                "{:<26} {:>5} {:>10} {:>10} {:>7} {:>7} {:>8}\n",
                title, "cells", "accesses", "misses", "miss%", "wrong", "mean-ipc",
            ));
            for t in totals.iter() {
                out.push_str(&format!(
                    "{:<26} {:>5} {:>10} {:>10} {:>6.2}% {:>7} {:>8.4}\n",
                    t.key,
                    t.cells,
                    t.accesses,
                    t.misses,
                    t.miss_rate * 100.0,
                    t.wrong_evictions,
                    t.mean_ipc,
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Address, Pc};
    use crate::config::{CacheConfig, HierarchyConfig};
    use crate::replacement::RecencyPolicy;

    fn cyclic_stream(lines: u64, len: u64) -> Vec<MemoryAccess> {
        (0..len)
            .map(|i| MemoryAccess::load(Pc::new(0x400000), Address::new((i % lines) * 64), i))
            .collect()
    }

    fn sequential_stream(len: u64) -> Vec<MemoryAccess> {
        (0..len).map(|i| MemoryAccess::load(Pc::new(0x400100), Address::new(i * 64), i)).collect()
    }

    fn lru_only(name: &str) -> Option<Box<dyn ReplacementPolicy>> {
        match name {
            "lru" => Some(Box::new(RecencyPolicy::lru())),
            "fifo" => Some(Box::new(RecencyPolicy::fifo())),
            _ => None,
        }
    }

    /// A one-stream LLC-only grid: machine `t` (2 sets x 2 ways) with the
    /// `none` prefetcher — the shape of a bare LLC-geometry sweep.
    fn llc_grid(policies: &[&str]) -> ScenarioGrid {
        let mut grid = ScenarioGrid::default()
            .stream(SweepStream::new("w", cyclic_stream(4, 50)))
            .machine(MachineConfig::llc_only(CacheConfig::new("t", 1, 2, 6)))
            .prefetcher(PrefetcherKind::None);
        grid.policies = policies.iter().map(|s| (*s).to_owned()).collect();
        grid
    }

    #[test]
    fn sweep_cells_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = input.iter().map(|x| x * 2).collect();
        for workers in [1, 2, 3, 8] {
            assert_eq!(sweep_cells_on(workers, input.clone(), |x| x * 2), expected);
        }
    }

    #[test]
    fn sweep_cells_empty_input() {
        assert!(sweep_cells_on(4, Vec::<u64>::new(), |x| x).is_empty());
        assert!(sweep_cells(Vec::<u64>::new(), |x| x).is_empty());
    }

    #[test]
    fn sweep_cells_workers_claim_items_one_at_a_time() {
        // Item 0 blocks until the other seven are done. A worker that
        // claims the next item when it is free runs all seven while item 0
        // waits; a fixed split would queue items 1-3 behind item 0 on the
        // same worker and never finish them.
        use std::sync::Condvar;
        use std::time::Duration;
        let (finished, all_finished) = (Mutex::new(0), Condvar::new());
        let out = sweep_cells_on(2, (0..8).collect(), |i: usize| {
            let mut count = finished.lock().expect("counter");
            if i == 0 {
                let wait = Duration::from_secs(5);
                let (_count, waited) =
                    all_finished.wait_timeout_while(count, wait, |n| *n < 7).expect("counter");
                assert!(!waited.timed_out(), "items 1-7 never ran while item 0 waited");
            } else {
                *count += 1;
                all_finished.notify_all();
            }
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn grid_covers_every_cell_in_canonical_order() {
        let grid = ScenarioGrid::default()
            .policy("lru")
            .policy("fifo")
            .stream(SweepStream::new("cyc8", cyclic_stream(8, 200)))
            .stream(SweepStream::new("cyc2", cyclic_stream(2, 200)))
            .machine(MachineConfig::llc_only(CacheConfig::new("b", 2, 2, 6)))
            .machine(MachineConfig::llc_only(CacheConfig::new("a", 1, 2, 6)))
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        assert_eq!(report.cells.len(), 8);
        let keys: Vec<(String, String, String)> = report
            .cells
            .iter()
            .map(|c| (c.workload.clone(), c.machine.clone(), c.policy.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "cells must come out canonically sorted");
        assert_eq!(keys[0], ("cyc2".into(), "a@2x2".into(), "fifo".into()));
        assert_eq!(report.policy_totals.len(), 2);
    }

    #[test]
    fn cells_match_direct_replay() {
        let stream = cyclic_stream(16, 300);
        let cfg = CacheConfig::new("t", 1, 2, 6);
        let machine = MachineConfig::llc_only(cfg.clone());
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("w", stream.clone()))
            .machine(machine.clone())
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        let direct = LlcReplay::new(cfg, &stream).run(RecencyPolicy::lru());
        let cell = report.cell("w", &machine.machine_label(), "none", "lru").expect("cell exists");
        assert_eq!(cell.hits, direct.stats.hits);
        assert_eq!(cell.misses, direct.stats.misses);
        assert_eq!(cell.compulsory_misses, direct.compulsory_misses);
        assert_eq!(cell.wrong_evictions, direct.wrong_evictions);
    }

    #[test]
    fn unknown_policy_is_an_error_not_a_panic() {
        assert_eq!(
            llc_grid(&["nope"]).run(lru_only),
            Err(SweepError::UnknownPolicy("nope".into()))
        );
    }

    #[test]
    fn empty_grid_is_an_error() {
        assert_eq!(ScenarioGrid::default().run(lru_only), Err(SweepError::EmptyGrid));
        assert_eq!(llc_grid(&[]).run(lru_only), Err(SweepError::EmptyGrid));
    }

    #[test]
    fn duplicate_axis_entries_are_an_error() {
        assert_eq!(
            llc_grid(&["lru", "lru"]).run(lru_only),
            Err(SweepError::DuplicateKey("lru".into()))
        );
        let two_streams = llc_grid(&["lru"]).stream(SweepStream::new("w", cyclic_stream(2, 10)));
        assert_eq!(two_streams.run(lru_only), Err(SweepError::DuplicateKey("stream:w".into())));
        // Same machine label (name + geometry) twice, even via distinct values.
        let two_machines = llc_grid(&["lru"])
            .machine(MachineConfig::llc_only(CacheConfig::new("t", 1, 2, 6).with_latency(5)));
        assert_eq!(
            two_machines.run(lru_only),
            Err(SweepError::DuplicateKey("machine:t@2x2".into()))
        );
        let two_prefetchers = llc_grid(&["lru"]).prefetcher(PrefetcherKind::None);
        assert_eq!(
            two_prefetchers.run(lru_only),
            Err(SweepError::DuplicateKey("prefetcher:none".into()))
        );
    }

    #[test]
    fn totals_sum_their_cells() {
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("a", cyclic_stream(8, 128)))
            .stream(SweepStream::new("b", cyclic_stream(32, 128)))
            .machine(MachineConfig::llc_only(CacheConfig::new("t", 1, 2, 6)))
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        let total = &report.policy_totals[0];
        let hits: u64 = report.cells.iter().map(|c| c.hits).sum();
        let misses: u64 = report.cells.iter().map(|c| c.misses).sum();
        assert_eq!(total.hits, hits);
        assert_eq!(total.misses, misses);
        assert_eq!(total.cells, 2);
    }

    #[test]
    fn scenario_covers_full_cross_product() {
        let grid = ScenarioGrid::default()
            .policy("lru")
            .policy("fifo")
            .stream(SweepStream::new("seq", sequential_stream(600)))
            .stream(SweepStream::new("cyc", cyclic_stream(16, 600)))
            .machine(MachineConfig::new("table2", HierarchyConfig::table2()))
            .machine(MachineConfig::new("small", HierarchyConfig::small()))
            .prefetcher(PrefetcherKind::None)
            .prefetcher(PrefetcherKind::NextLine);
        assert_eq!(grid.cells(), 16);
        let report = grid.run(lru_only).expect("grid runs");
        assert_eq!(report.cells.len(), 16);
        let keys: Vec<_> = report
            .cells
            .iter()
            .map(|c| {
                (c.workload.clone(), c.machine.clone(), c.prefetcher.clone(), c.policy.clone())
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "cells must come out canonically sorted");
        assert_eq!(report.policy_totals.len(), 2);
        assert_eq!(report.prefetcher_totals.len(), 2);
        assert_eq!(report.machine_totals.len(), 2);
        for cell in &report.cells {
            assert!(cell.ipc > 0.0, "cell {cell:?} must report IPC");
        }
        // The rendered table mentions every axis section.
        let table = report.to_table();
        for needle in ["prefetcher", "machine", "mean-ipc", "table2@llc2048x16+dram160"] {
            assert!(table.contains(needle), "table missing {needle}:\n{table}");
        }
    }

    #[test]
    fn next_line_prefetching_covers_a_sequential_stream() {
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("seq", sequential_stream(2048)))
            .machine(MachineConfig::llc_only(CacheConfig::new("LLC", 4, 4, 6)))
            .prefetcher(PrefetcherKind::None)
            .prefetcher(PrefetcherKind::NextLine);
        let report = grid.run(lru_only).expect("grid runs");
        let base = report.cell("seq", "LLC@16x4", "none", "lru").expect("baseline cell");
        let pf = report.cell("seq", "LLC@16x4", "nextline", "lru").expect("prefetch cell");
        assert_eq!(base.prefetches, 0);
        assert_eq!(base.prefetch_accuracy, 0.0);
        assert!(pf.prefetch_fills > 0);
        assert!(
            pf.prefetch_accuracy > 0.9,
            "next-line on a sequential stream should be accurate: {}",
            pf.prefetch_accuracy
        );
        assert!(
            pf.prefetch_coverage > 0.9,
            "next-line should cover the stream: {}",
            pf.prefetch_coverage
        );
        assert!(pf.demand_misses < base.demand_misses);
        assert!(pf.ipc > base.ipc, "covered misses must raise IPC");
    }

    #[test]
    fn full_machine_prefetch_counters_come_from_the_hierarchy() {
        // On a full machine a useful next-line prefetch is consumed by an
        // L1 hit the LLC replay never observes — the cell must still
        // report high accuracy/coverage (from the hierarchy's counters).
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("seq", sequential_stream(2048)))
            .machine(MachineConfig::new("small", HierarchyConfig::small()))
            .prefetcher(PrefetcherKind::NextLine);
        let report = grid.run(lru_only).expect("grid runs");
        let cell = &report.cells[0];
        assert!(cell.prefetch_fills > 0);
        assert!(cell.prefetch_accuracy > 0.9, "accuracy {}", cell.prefetch_accuracy);
        assert!(cell.prefetch_coverage > 0.9, "coverage {}", cell.prefetch_coverage);
    }

    #[test]
    fn llc_only_ipc_matches_manual_model() {
        let cfg = CacheConfig::new("LLC", 3, 4, 6);
        let stream = cyclic_stream(64, 500);
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("w", stream.clone()).with_instr_count(5_000))
            .machine(MachineConfig::llc_only(cfg.clone()))
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        let cell = &report.cells[0];
        assert_eq!(cell.instr_count, 5_000);
        let direct = LlcReplay::new(cfg.clone(), &stream).run(RecencyPolicy::lru());
        let machine = MachineConfig::llc_only(cfg);
        let model = IpcModel::from_config(&machine.hierarchy);
        let expected = model.ipc_from_llc(
            5_000,
            direct.stats.accesses - direct.stats.demand_misses,
            direct.stats.demand_misses,
        );
        assert!((cell.ipc - expected).abs() < 1e-12, "{} vs {}", cell.ipc, expected);
    }

    #[test]
    fn full_machine_cells_filter_through_the_hierarchy() {
        // A hot 4-line loop: L1 absorbs nearly everything, so the
        // full-machine cell sees far fewer LLC accesses than the LLC-only
        // cell replaying the raw stream.
        let stream = cyclic_stream(4, 400);
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("hot", stream.clone()))
            .machine(MachineConfig::new("small", HierarchyConfig::small()))
            .machine(MachineConfig::llc_only(CacheConfig::small_llc()))
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        let full = report.cell("hot", "small@llc64x4+dram160", "none", "lru").unwrap();
        let raw = report.cell("hot", "LLC@64x4", "none", "lru").unwrap();
        assert!(full.accesses < raw.accesses / 10, "{} vs {}", full.accesses, raw.accesses);
        assert!(full.ipc > raw.ipc, "an L1-resident loop must run faster with caches modelled");
    }

    #[test]
    fn dram_latency_lowers_ipc() {
        let stream = sequential_stream(1500);
        let grid = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("seq", stream))
            .machine(MachineConfig::new("fast", HierarchyConfig::small()).with_dram_latency(100))
            .machine(MachineConfig::new("slow", HierarchyConfig::small()).with_dram_latency(800))
            .prefetcher(PrefetcherKind::None);
        let report = grid.run(lru_only).expect("grid runs");
        let fast = report.cell("seq", "fast@llc64x4+dram100", "none", "lru").unwrap();
        let slow = report.cell("seq", "slow@llc64x4+dram800", "none", "lru").unwrap();
        assert!(fast.ipc > slow.ipc, "fast {} vs slow {}", fast.ipc, slow.ipc);
    }

    #[test]
    fn mlp_override_serialises_misses() {
        let stream = sequential_stream(1000);
        let base = ScenarioGrid::default()
            .policy("lru")
            .stream(SweepStream::new("seq", stream.clone()))
            .machine(MachineConfig::llc_only(CacheConfig::new("LLC", 3, 4, 6).with_mshr(64)))
            .prefetcher(PrefetcherKind::None);
        let parallel = base.clone().run(lru_only).expect("runs");
        let serial = base.with_mlp(1.0).run(lru_only).expect("runs");
        assert!(
            serial.cells[0].ipc < parallel.cells[0].ipc,
            "MLP=1 must hurt a miss-heavy stream: {} vs {}",
            serial.cells[0].ipc,
            parallel.cells[0].ipc
        );
    }

    #[test]
    fn prepare_stage_runs_one_task_per_triple() {
        // 2 streams x 1 machine x 2 prefetchers x 2 policies = 8 cells,
        // but stage 1 must prepare only the 4 (stream, machine, prefetcher)
        // triples; each policy replay shares its triple's Arc.
        let grid = ScenarioGrid::default()
            .policy("lru")
            .policy("fifo")
            .stream(SweepStream::new("seq", sequential_stream(100)))
            .stream(SweepStream::new("cyc", cyclic_stream(8, 100)))
            .machine(MachineConfig::llc_only(CacheConfig::new("LLC", 2, 2, 6)))
            .prefetcher(PrefetcherKind::None)
            .prefetcher(PrefetcherKind::NextLine);
        assert_eq!(grid.cells(), 8);
        let prepared = grid.prepare_stage();
        assert_eq!(
            prepared.len(),
            grid.streams.len() * grid.machines.len() * grid.prefetchers.len()
        );
        for triple in &prepared {
            assert_eq!(std::sync::Arc::strong_count(&triple.scenario), 1);
        }
        // The full run produces one cell per (triple, policy).
        let report = grid.run(lru_only).expect("grid runs");
        assert_eq!(report.cells.len(), prepared.len() * grid.policies.len());
    }
}
