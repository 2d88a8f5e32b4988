//! The CacheMind benchmark: three workloads, each in its own process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|ask-distinct|ask-hot-tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a traced run with
//! `--trace 1`. See `README.md` for the workloads and metrics.

mod ask;
mod inputs;
mod measure;
mod pipeline;
mod sweep;

use std::collections::BTreeMap;

#[global_allocator]
static ALLOC: measure::TallyingAlloc = measure::TallyingAlloc;

/// Worker threads, client threads and connections: the 2 vCPUs the
/// benchmark is sized for.
pub const WORKERS: usize = 2;

/// Set-up runs this many times per run; `setup_s` and `cold_start_ms`
/// report the median.
pub const SETUP_REPS: usize = 5;

/// Where a run writes its serve snapshot and span dump, inside the
/// checkout it runs from.
const SCRATCH_DIR: &str = ".perfbench";

/// End-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("cold_start_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("answer_accuracy", "share"),
];

/// Per-layer metrics of the traced run: name and unit.
const PER_LAYER: [(&str, &str); 62] = [
    ("workloads.generate_ms", "ms"),
    ("sim.transform_ms", "ms"),
    ("sim.hierarchy_ms", "ms"),
    ("sim.oracle_ms", "ms"),
    ("sim.replay_ms", "ms"),
    ("policies.lru.replay_ms", "ms"),
    ("policies.srrip.replay_ms", "ms"),
    ("policies.ship.replay_ms", "ms"),
    ("policies.mockingjay.replay_ms", "ms"),
    ("policies.belady.replay_ms", "ms"),
    ("sim.replay_ns_per_access", "ns"),
    ("sim.llc_accesses", "count"),
    ("sim.parallel_efficiency", "share"),
    ("tracedb.build_ms", "ms"),
    ("tracedb.snapshot_write_ms", "ms"),
    ("tracedb.snapshot_mb", "MB"),
    ("tracedb.snapshot_verify_ms", "ms"),
    ("tracedb.decode_ms", "ms"),
    ("tracedb.store_calls_per_ask", "count"),
    ("tracedb.store_us_per_ask", "us"),
    ("lang.intent_us", "us"),
    ("lang.prompt_us", "us"),
    ("lang.generate_us", "us"),
    ("lang.memory_log_us", "us"),
    ("lang.memory_bytes_per_turn", "B"),
    ("retrieval.compile_us", "us"),
    ("retrieval.optimize_us", "us"),
    ("retrieval.retrieve_us", "us"),
    ("retrieval.plan_run_us", "us"),
    ("retrieval.facts_per_ask", "count"),
    ("core.ask_us", "us"),
    ("core.ask.hitmiss_us", "us"),
    ("core.ask.missrate_us", "us"),
    ("core.ask.policycomparison_us", "us"),
    ("core.ask.count_us", "us"),
    ("core.ask.arithmetic_us", "us"),
    ("core.ask.trick_us", "us"),
    ("core.ask.concepts_us", "us"),
    ("core.ask.codegen_us", "us"),
    ("core.ask.policyanalysis_us", "us"),
    ("core.ask.workloadanalysis_us", "us"),
    ("core.ask.semanticanalysis_us", "us"),
    ("core.ask.exploration_us", "us"),
    ("core.cache_hit_share", "share"),
    ("core.cache_get_us", "us"),
    ("core.cache_insert_us", "us"),
    ("core.cache_entries", "count"),
    ("core.fingerprint_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.render_us", "us"),
    ("serve.session_open_us", "us"),
    ("serve.session_close_us", "us"),
    ("serve.line_us", "us"),
    ("serve.unattributed_share", "share"),
    ("net.transport_us", "us"),
    ("net.read_us_per_op", "us"),
    ("net.write_us_per_op", "us"),
    ("net.bytes_per_op", "B"),
    ("net.threads", "count"),
    ("net.ctx_switches_per_op", "count"),
    ("net.overloaded", "count"),
    ("host.cpu_ms_per_op", "ms"),
];

/// Reported by every traced run on top of [`PER_LAYER`].
const TRACE_OVERHEAD: (&str, &str) = ("trace.overhead_share", "share");

/// The workloads, in the order a traced run probes them.
const WORKLOADS: [&str; 3] = ["sweep", "ask-distinct", "ask-hot-tcp"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("bad {flag} value {value:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    checks_failed: u64,
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.end_to_end.insert(name, value);
    }

    /// Sets the timed phase's `ops_per_s`, `op_p50_ms` and `op_tail_ms`,
    /// and notes how the tail was taken. Returns the summary.
    pub fn set_phase(&mut self, latencies: &measure::Latencies) -> measure::Summary {
        let summary = latencies.summary();
        self.set("ops_per_s", summary.ops_per_s);
        self.set("op_p50_ms", summary.p50_ms);
        self.set("op_tail_ms", summary.tail_ms);
        self.note(format!("op_tail_ms is {}", summary.tail_label));
        summary
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.per_layer.insert(name.to_owned(), value);
    }

    /// Records one op and whether its output passed its check.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records a check that is not an op (protocol replies, set-up).
    pub fn check(&mut self, ok: bool) {
        self.checks_failed += u64::from(!ok);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Takes the per-layer metrics this outcome lacks from a probe run of
    /// workload `name`; the probe's failures count as failed checks here.
    fn fill_layers(&mut self, probe: Outcome, name: &str) {
        for (metric, value) in probe.per_layer {
            self.per_layer.entry(metric).or_insert(value);
        }
        self.checks_failed += probe.failed + probe.checks_failed;
        self.note(format!("layers this workload never enters measured by a 1 s traced {name} run"));
    }
}

/// Maps `f` over `items` on [`WORKERS`] threads, each taking the next
/// unclaimed item, and returns the results in input order.
pub fn par_map<T: Sync, O: Send>(items: &[T], f: impl Fn(&T) -> O + Sync) -> Vec<O> {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<(usize, O)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("worker thread")).collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, o)| o).collect()
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args, tracer: &measure::Tracer, dir: &std::path::Path) -> Outcome {
    match args.workload.as_str() {
        "sweep" => sweep::run(args, tracer),
        "ask-distinct" => ask::run_distinct(args, tracer, dir),
        _ => ask::run_hot_tcp(args, tracer, dir),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    // The sweep engine's worker pool reads its width from here.
    std::env::set_var("RAYON_NUM_THREADS", WORKERS.to_string());
    let tracer = measure::Tracer::new(args.trace);
    let dir = std::path::Path::new(SCRATCH_DIR);
    std::fs::create_dir_all(dir).expect("scratch directory in the checkout");

    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: unknown workload {:?} (sweep, ask-distinct, ask-hot-tcp)",
            args.workload
        );
        std::process::exit(2);
    }
    let mut outcome = run(&args, &tracer, dir);
    if args.trace {
        // Every layer is measured in every traced run: the other two
        // workloads run traced for one second each, and fill in only the
        // layers this workload never enters.
        for other in WORKLOADS.into_iter().filter(|w| *w != args.workload) {
            let probe_args = Args { workload: other.to_owned(), seconds: 1, ..args.clone() };
            let probe = run(&probe_args, &measure::Tracer::new(true), dir);
            outcome.fill_layers(probe, other);
        }
    }
    let ok_share = (outcome.attempted - outcome.failed) as f64 / outcome.attempted.max(1) as f64;
    outcome.set("ok_share", ok_share);
    let correct = outcome.attempted > 0 && outcome.failed == 0 && outcome.checks_failed == 0;

    for note in &outcome.notes {
        println!("# {note}");
    }
    let mut end_to_end = Vec::new();
    for (name, unit) in END_TO_END {
        let value = *outcome.end_to_end.get(name).unwrap_or_else(|| panic!("{name} not measured"));
        println!("{name:<32} {value:>14.4} {unit}");
        end_to_end.push((name.to_owned(), value, unit));
    }
    let metrics = if args.trace {
        let trace_file = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(err) = tracer.dump(&trace_file) {
            eprintln!("perfbench: cannot write {}: {err}", trace_file.display());
        }
        let mut layers = Vec::new();
        for (name, unit) in PER_LAYER.into_iter().chain([TRACE_OVERHEAD]) {
            let value = outcome.per_layer.get(name).copied().unwrap_or(0.0);
            println!("{name:<32} {value:>14.4} {unit}");
            layers.push((name.to_owned(), value, unit));
        }
        println!("# spans written to {}", trace_file.display());
        layers
    } else {
        end_to_end
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(&metrics)
    );
}
