//! The `sweep` workload: one op is one `ScenarioGrid::run` over the fixed
//! 120-cell grid at Small scale on two workers.

use std::time::Instant;

use cachemind_sim::access::MemoryAccess;
use cachemind_sim::hierarchy::CacheHierarchy;
use cachemind_sim::replay::LlcReplay;
use cachemind_sim::sweep::{transform_stream, ScenarioGrid, ScenarioReport, SweepStream};
use cachemind_workloads::workload::Scale;

use crate::inputs::{sweep_machines, SWEEP_POLICIES, SWEEP_PREFETCHERS, SWEEP_WORKLOADS};
use crate::measure::{self, median, Latencies, Tracer};
use crate::{par_map, Args, Outcome, SETUP_REPS, WORKERS};

/// Grid runs per second of `--seconds` (about 0.34 s per run on a 2-vCPU
/// box): the op count is fixed by the arguments, never by wall time.
const OPS_PER_SECOND: f64 = 3.0;

/// Span names of each policy's replays, in [`SWEEP_POLICIES`] order.
const POLICY_SPANS: [&str; 5] = [
    "policies.lru.replay",
    "policies.srrip.replay",
    "policies.ship.replay",
    "policies.mockingjay.replay",
    "policies.belady.replay",
];

fn run_grid(grid: &ScenarioGrid) -> ScenarioReport {
    grid.run(cachemind_policies::by_name).expect("the fixed grid is valid")
}

fn generate(tracer: &Tracer) -> Vec<SweepStream> {
    SWEEP_WORKLOADS
        .iter()
        .map(|name| {
            let w = tracer.time("workloads.generate", 0, None, || {
                cachemind_workloads::by_name(name, Scale::Small).expect("known workload")
            });
            SweepStream::new(w.name, w.accesses).with_instr_count(w.instr_count)
        })
        .collect()
}

/// One grid's worth of work through the sim stage functions, each task
/// inside a span: transform per (stream, prefetcher), hierarchy filter and
/// reuse oracle per (stream, machine, prefetcher), replay per cell.
/// Returns the LLC accesses replayed.
fn traced_stages(tracer: &Tracer, op: u64, grid: &ScenarioGrid) -> u64 {
    let pairs: Vec<(usize, usize)> = (0..grid.streams.len())
        .flat_map(|s| (0..grid.prefetchers.len()).map(move |p| (s, p)))
        .collect();
    let transformed: Vec<Option<Vec<MemoryAccess>>> = par_map(&pairs, |&(s, p)| {
        tracer.time("sim.transform", op, None, || {
            transform_stream(grid.prefetchers[p], &grid.streams[s].accesses)
        })
    });
    let triples: Vec<(usize, usize, usize)> = (0..grid.streams.len())
        .flat_map(|s| {
            (0..grid.machines.len())
                .flat_map(move |m| (0..grid.prefetchers.len()).map(move |p| (s, m, p)))
        })
        .collect();
    let replays: Vec<LlcReplay> = par_map(&triples, |&(s, m, p)| {
        let stream = &grid.streams[s];
        let accesses =
            transformed[s * grid.prefetchers.len() + p].as_deref().unwrap_or(&stream.accesses);
        let machine = &grid.machines[m];
        let llc = machine.hierarchy.llc.clone();
        if machine.llc_only {
            return tracer.time("sim.oracle", op, None, || LlcReplay::new(llc, accesses));
        }
        let mut report = tracer.time("sim.hierarchy", op, None, || {
            CacheHierarchy::new(machine.hierarchy.clone()).run(accesses, stream.instr_count)
        });
        let llc_stream = std::mem::take(&mut report.llc_stream);
        tracer.time("sim.oracle", op, None, || LlcReplay::from_stream(llc, llc_stream))
    });
    let cells: Vec<(usize, usize)> =
        (0..replays.len()).flat_map(|t| (0..SWEEP_POLICIES.len()).map(move |p| (t, p))).collect();
    par_map(&cells, |&(t, p)| {
        let policy = cachemind_policies::by_name(SWEEP_POLICIES[p]).expect("known policy");
        let open = tracer.open(POLICY_SPANS[p], op, None);
        let summary = tracer.time("sim.replay", op, open.id(), || replays[t].run_summary(policy));
        tracer.close(open);
        summary.stats.accesses
    })
    .into_iter()
    .sum()
}

pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let ops = ((args.seconds as f64 * OPS_PER_SECOND).round() as usize).max(2);
    let mut out = Outcome::default();

    // Set-up, several times: generate the streams, then run the first
    // (cold) grid. The last repetition's grid is the one the ops run.
    let (mut setup, mut cold) = (Vec::new(), Vec::new());
    let mut grid = ScenarioGrid::default();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        grid = ScenarioGrid {
            policies: SWEEP_POLICIES.iter().map(|p| (*p).to_owned()).collect(),
            streams: generate(tracer),
            machines: sweep_machines(),
            prefetchers: SWEEP_PREFETCHERS.to_vec(),
            mlp_override: None,
        };
        let first = Instant::now();
        std::hint::black_box(run_grid(&grid));
        cold.push(first.elapsed().as_secs_f64() * 1e3);
        setup.push(started.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setup));
    out.set("cold_start_ms", median(&cold));

    // The timed phase. A traced run times the first half of the ops
    // untraced and the second half through the traced stage functions.
    let untraced_ops = if tracer.enabled() { ops / 2 } else { ops };
    let mut latencies = Latencies::default();
    let mut reports = Vec::with_capacity(untraced_ops);
    let cpu_before = measure::cpu_ms();
    let started = Instant::now();
    for _ in 0..untraced_ops {
        let op = Instant::now();
        let report = run_grid(&grid);
        latencies.push(started, op.elapsed().as_nanos() as u64);
        reports.push(report);
    }
    let cpu = measure::cpu_ms() - cpu_before;
    let summary = out.set_phase(&latencies);
    out.layer("host.cpu_ms_per_op", cpu / untraced_ops as f64);

    let mut traced_accesses = Vec::new();
    if tracer.enabled() {
        let traced_ops = ops - untraced_ops;
        let started = Instant::now();
        let mut traced = Latencies::default();
        for op in 0..traced_ops {
            let open = tracer.open("sweep.op", op as u64, None);
            let at = Instant::now();
            traced_accesses.push(traced_stages(tracer, op as u64, &grid));
            traced.push(started, at.elapsed().as_nanos() as u64);
            tracer.close(open);
        }
        out.layer("trace.overhead_share", 1.0 - traced.summary().ops_per_s / summary.ops_per_s);
        let per_op = |name: &str| tracer.sum_ms(name) / traced_ops as f64;
        let stages = ["sim.transform", "sim.hierarchy", "sim.oracle", "sim.replay"];
        for name in stages {
            out.layer(&format!("{name}_ms"), per_op(name));
        }
        for span in POLICY_SPANS {
            out.layer(&format!("{span}_ms"), per_op(span));
        }
        let accesses = traced_accesses.iter().sum::<u64>() as f64 / traced_ops as f64;
        out.layer("sim.llc_accesses", accesses);
        out.layer("sim.replay_ns_per_access", per_op("sim.replay") * 1e6 / accesses);
        let serial: f64 = stages.iter().map(|s| per_op(s)).sum();
        out.layer("sim.parallel_efficiency", serial / (WORKERS as f64 * summary.p50_ms));
        out.layer("workloads.generate_ms", tracer.sum_ms("workloads.generate") / SETUP_REPS as f64);
    }
    out.set("peak_rss_mb", measure::peak_rss_mb());

    // Checks, untimed: every 2-worker report is byte-equal to a 1-worker
    // reference run, and each traced stage pass replayed exactly the LLC
    // accesses the reference grid did.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let reference = run_grid(&grid);
    std::env::set_var("RAYON_NUM_THREADS", WORKERS.to_string());
    let reference_json = serde_json::to_string(&reference).expect("report serializes");
    let reference_accesses: u64 = reference.cells.iter().map(|c| c.accesses).sum();
    for report in &reports {
        out.op(serde_json::to_string(report).expect("report serializes") == reference_json);
    }
    for accesses in traced_accesses {
        out.op(accesses == reference_accesses);
    }
    out.note(format!("sweep: {} cells per op, {} ops", reference.cells.len(), ops));
    crate::ask::Reference::build().report_accuracy(&mut out);
    out
}
