//! Ablation sweeps for the DESIGN.md §5 design choices: Sieve slice cap,
//! Ranger schema card, dense index stride — plus the machine-axis
//! ablations (DRAM latency, prefetcher kind) opened by the scenario grid.
//!
//! Every swept parameter point is an independent benchmark run; the
//! `insights::ablation` module spreads them across cores with the sweep
//! engine's `sweep_cells` primitive and `ScenarioGrid`, so the sweeps no
//! longer replay configurations serially (output stays byte-identical for
//! any `RAYON_NUM_THREADS`).

use std::sync::Arc;

use cachemind_benchsuite::catalog::Catalog;
use cachemind_core::insights::ablation;
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_tracedb::store::TraceStore;

fn main() {
    let db = Arc::new(cachemind_bench::load_db());
    let catalog = Catalog::generate(&db);
    let store: Arc<dyn TraceStore> = db.clone();

    println!("Ablation — Sieve slice cap vs Count-category accuracy");
    cachemind_bench::rule(60);
    for p in ablation::sieve_slice_cap(&store, &catalog, &[5, 50, 500, 1_000_000]) {
        println!("  cap {:>9} -> {}", p.parameter, cachemind_bench::pct(p.metric));
    }

    println!("\nAblation — Ranger schema card vs Arithmetic accuracy");
    cachemind_bench::rule(60);
    for p in ablation::ranger_schema(&store, &catalog) {
        println!(
            "  schema {} -> {}",
            if p.parameter == 1 { "on " } else { "off" },
            cachemind_bench::pct(p.metric)
        );
    }

    println!("\nAblation — dense index stride vs probe retrieval success");
    cachemind_bench::rule(60);
    for p in ablation::dense_stride(&db, &[1, 4, 16, 64]) {
        println!("  stride {:>3} -> {}", p.parameter, cachemind_bench::pct(p.metric));
    }

    let scale = cachemind_bench::scale_from_env();

    println!("\nAblation — DRAM latency vs IPC (scenario grid, mcf under LRU)");
    cachemind_bench::rule(60);
    for p in ablation::dram_latency(scale, &[100, 160, 400, 800]) {
        println!(
            "  {:<28} miss {} -> IPC {:.4}",
            p.label,
            cachemind_bench::pct(p.miss_rate * 100.0),
            p.ipc
        );
    }

    println!("\nAblation — prefetcher kind vs coverage and IPC (scenario grid, lbm under LRU)");
    cachemind_bench::rule(60);
    let kinds =
        [PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Stride { degree: 4 }];
    for p in ablation::prefetcher_kinds(scale, &kinds) {
        println!(
            "  {:<10} coverage {} -> IPC {:.4}",
            p.label,
            cachemind_bench::pct(p.prefetch_coverage * 100.0),
            p.ipc
        );
    }

    println!(
        "\nReading: the slice cap is the mechanism behind the paper's Count collapse; \
         hiding the schema card reproduces 'context can suppress latent knowledge'; \
         even stride-1 dense indexing stays far below Sieve/Ranger; the scenario-grid \
         rows show how strongly DRAM latency and prefetch coverage move IPC."
    );
}
