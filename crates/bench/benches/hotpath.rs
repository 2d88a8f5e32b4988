//! The workspace's criterion micro-benchmarks: the replay hot path, the
//! annotated replay behind the trace database, and retrieval.
//!
//! Replay layers first, innermost first, so a regression can be localised
//! at a glance (see `docs/PERFORMANCE.md` for how to read the trajectory):
//!
//! * `cache_access` — raw [`SetAssociativeCache`] probe/fill throughput
//!   under LRU, no oracle, no record bookkeeping: the floor every other
//!   number sits on.
//! * `cell_replay` — one full scenario cell on the record-free
//!   [`LlcReplay::run_summary`] fast path, per policy. The prepared replay
//!   (stream + reuse oracle) is built once outside the timing loop, exactly
//!   as `ScenarioGrid` stage 2 sees it.
//! * `scenario_prepare` — stage 1 for one `(workload, machine)` triple:
//!   hierarchy filter plus oracle construction, the policy-independent cost
//!   every cell amortises.
//! * `tracedb_build` — the end-to-end `quick_demo` trace-database build,
//!   the closest proxy for the serve path's cold start.
//! * `policy_replay` — the annotated [`LlcReplay::run`] per policy: the
//!   per-access record path every trace-database entry is built from.
//! * `retrieval_latency` — one hit/miss question per retriever (the
//!   Figure 9 latency column), plus `intent_parse`, the question parser
//!   every ask starts with.
//!
//! End-to-end numbers (sweep throughput, served asks, cold start) come
//! from perfbench, not from here.
//!
//! Run with `cargo bench -p cachemind-bench --bench hotpath`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cachemind_lang::intent::QueryIntent;
use cachemind_retrieval::dense::DenseIndexRetriever;
use cachemind_retrieval::ranger::RangerRetriever;
use cachemind_retrieval::retriever::Retriever;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_sim::cache::SetAssociativeCache;
use cachemind_sim::config::{CacheConfig, HierarchyConfig, MachineConfig};
use cachemind_sim::replacement::{AccessContext, RecencyPolicy};
use cachemind_sim::replay::LlcReplay;
use cachemind_sim::sweep::prepare_scenario;
use cachemind_tracedb::TraceDatabaseBuilder;
use cachemind_workloads::{by_name, Scale};

/// The LLC geometry the trace database replays against: 256 sets x 8 ways.
fn bench_llc() -> CacheConfig {
    CacheConfig::new("LLC", 8, 8, 6).with_latency(26).with_mshr(64)
}

fn mcf_stream() -> (Vec<cachemind_sim::access::MemoryAccess>, u64) {
    let w = by_name("mcf", Scale::Small).expect("mcf generator");
    (w.accesses, w.instr_count)
}

fn cache_access(c: &mut Criterion) {
    let (stream, _) = mcf_stream();
    let config = bench_llc();
    let mut group = c.benchmark_group("cache_access");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("lru_probe_fill", |b| {
        b.iter(|| {
            let mut cache = SetAssociativeCache::new(config.clone(), RecencyPolicy::lru());
            for (i, a) in stream.iter().enumerate() {
                let set = cache.set_of(a.address);
                black_box(cache.access(&AccessContext::demand(i as u64, a, set)));
            }
            cache.stats().hits
        });
    });
    group.finish();
}

fn cell_replay(c: &mut Criterion) {
    let (stream, _) = mcf_stream();
    let replay = LlcReplay::new(bench_llc(), &stream);
    let mut group = c.benchmark_group("cell_replay");
    group.throughput(Throughput::Elements(replay.stream().len() as u64));
    for policy in ["lru", "srrip", "ship", "belady", "mockingjay"] {
        group.bench_function(policy, |b| {
            b.iter(|| {
                let p = cachemind_policies::by_name(policy).expect("known policy");
                black_box(replay.run_summary(p).stats.hits)
            });
        });
    }
    group.finish();
}

fn scenario_prepare(c: &mut Criterion) {
    let (stream, instr_count) = mcf_stream();
    let machine = MachineConfig::new("table2", HierarchyConfig::table2());
    let mut group = c.benchmark_group("scenario_prepare");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("mcf_table2", |b| {
        b.iter(|| {
            let prepared = prepare_scenario(&machine, &stream, instr_count);
            black_box(prepared.replay.stream().len())
        });
    });
    group.finish();
}

fn prepare_split(c: &mut Criterion) {
    use cachemind_sim::hierarchy::CacheHierarchy;
    let (stream, instr_count) = mcf_stream();
    let machine = MachineConfig::new("table2", HierarchyConfig::table2());
    let mut group = c.benchmark_group("prepare_split");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("hierarchy_run", |b| {
        b.iter(|| {
            let mut h = CacheHierarchy::new(machine.hierarchy.clone());
            black_box(h.run(&stream, instr_count).llc_stream.len())
        });
    });
    let mut h = CacheHierarchy::new(machine.hierarchy.clone());
    let llc_stream = h.run(&stream, instr_count).llc_stream;
    group.bench_function("oracle_build", |b| {
        b.iter(|| {
            black_box(
                LlcReplay::from_stream(machine.hierarchy.llc.clone(), llc_stream.clone())
                    .oracle()
                    .num_lines(),
            )
        });
    });
    group.bench_function("hierarchy_alloc", |b| {
        b.iter(|| {
            black_box(CacheHierarchy::new(machine.hierarchy.clone()).config().dram.latency_cycles)
        });
    });
    group.finish();
}

fn tracedb_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tracedb_build");
    group.bench_function("quick_demo", |b| {
        b.iter(|| black_box(TraceDatabaseBuilder::quick_demo().build().len()));
    });
    group.finish();
}

fn policy_replay(c: &mut Criterion) {
    let workload = cachemind_workloads::mcf::generate(Scale::Tiny);
    let replay = LlcReplay::new(CacheConfig::new("LLC", 8, 8, 6), &workload.accesses);
    let mut group = c.benchmark_group("policy_replay");
    group.throughput(Throughput::Elements(workload.accesses.len() as u64));
    for name in ["lru", "belady", "srrip", "ship", "hawkeye", "mockingjay", "parrot", "mlp"] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| replay.run(cachemind_policies::by_name(name).expect("known policy")))
        });
    }
    group.finish();
}

fn retrieval_latency(c: &mut Criterion) {
    let db = TraceDatabaseBuilder::quick_demo().build();
    let row = db.get("mcf_evictions_lru").expect("trace").frame.rows()[10].clone();
    let question = format!(
        "Does the memory access with PC {} and address {} result in a cache hit or miss \
         for the mcf workload and LRU replacement policy?",
        row.pc, row.address
    );
    let workloads = db.workloads();
    let policies = db.policies();
    let intent = QueryIntent::parse(
        &question,
        &workloads.iter().map(String::as_str).collect::<Vec<_>>(),
        &policies.iter().map(String::as_str).collect::<Vec<_>>(),
    );

    let sieve = SieveRetriever::new();
    let ranger = RangerRetriever::new();
    let dense = DenseIndexRetriever::build(&db, 4);
    let mut group = c.benchmark_group("retrieval_latency");
    group.bench_function(BenchmarkId::new("sieve", "hitmiss"), |b| {
        b.iter(|| sieve.retrieve(&db, &intent))
    });
    group.bench_function(BenchmarkId::new("ranger", "hitmiss"), |b| {
        b.iter(|| ranger.retrieve(&db, &intent))
    });
    group.bench_function(BenchmarkId::new("dense", "hitmiss"), |b| {
        b.iter(|| dense.retrieve(&db, &intent))
    });
    group.finish();

    let q = "Which policy has the lowest miss rate for PC 0x409270 in astar?";
    c.bench_function("intent_parse", |b| {
        b.iter(|| {
            QueryIntent::parse(q, &["astar", "lbm", "mcf"], &["belady", "lru", "mlp", "parrot"])
        })
    });
}

criterion_group!(
    hotpath,
    cache_access,
    cell_replay,
    scenario_prepare,
    prepare_split,
    tracedb_build,
    policy_replay,
    retrieval_latency
);
criterion_main!(hotpath);
