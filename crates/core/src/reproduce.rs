//! The paper's tables, figures, ablations and §6.3 use cases as printed
//! reports: the library behind `cachemind reproduce <name|all>`.
//!
//! Each name in [`NAMES`] prints one table, figure, ablation set or use
//! case. Reports that read traces share one trace database built at the
//! requested scale with `TraceDatabaseBuilder::new().scale(scale)`; `all`
//! prints every name in order over a single build. The byte outputs are
//! pinned at Tiny by `tests/reproduce_bytes.rs` (the library values) and
//! `tests/figure_bytes.rs` (the figure data); only Figure 9's latency
//! column is wall-clock.

use std::cell::OnceCell;
use std::io::{self, Write};
use std::sync::Arc;

use cachemind_benchsuite::catalog::{Catalog, CATEGORY_SIZES};
use cachemind_lang::context::RetrievedContext;
use cachemind_lang::intent::Tier;
use cachemind_lang::profiles::BackendKind;
use cachemind_lang::prompt::{Example, PromptBuilder};
use cachemind_retrieval::dense::DenseIndexRetriever;
use cachemind_retrieval::probes::{probe_queries, run_probes};
use cachemind_retrieval::ranger::RangerRetriever;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_sim::config::HierarchyConfig;
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_tracedb::database::{TraceDatabase, TraceDatabaseBuilder};
use cachemind_tracedb::store::TraceStore;
use cachemind_workloads::workload::Scale;

use crate::eval;
use crate::insights::{ablation, bypass, inversions, mockingjay, prefetch, set_hotness};

/// Every reproduction, in the order `all` prints them.
pub const NAMES: [&str; 14] = [
    "table1_catalog",
    "table2_config",
    "figure4_backends",
    "figure5_quality",
    "figure6_fewshot",
    "figure7_distribution",
    "figure8_retrievers",
    "figure9_retrievers",
    "ablation_sweeps",
    "usecase_bypass",
    "usecase_inversions",
    "usecase_mockingjay",
    "usecase_prefetch",
    "usecase_sets",
];

/// Prints the reproduction `name` at `scale` to `out`. `name` is one of
/// [`NAMES`], or `all` for every name in order over one trace database.
/// An unknown name is an [`io::ErrorKind::InvalidInput`] error.
pub fn run(name: &str, scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    let inputs = Inputs { scale, db: OnceCell::new(), catalog: OnceCell::new() };
    if name == "all" {
        NAMES.iter().try_for_each(|name| print(name, &inputs, out))
    } else {
        print(name, &inputs, out)
    }
}

/// The trace database and catalog, built on first use and shared by every
/// report of one [`run`].
struct Inputs {
    scale: Scale,
    db: OnceCell<Arc<TraceDatabase>>,
    catalog: OnceCell<Catalog>,
}

impl Inputs {
    fn db(&self) -> &Arc<TraceDatabase> {
        self.db.get_or_init(|| {
            eprintln!("[cachemind] building trace database at {:?} scale ...", self.scale);
            let db = TraceDatabaseBuilder::new().scale(self.scale).build();
            let total_rows: usize = db.entries().map(|e| e.frame.len()).sum();
            eprintln!("[cachemind] database ready: {} traces, {} rows total", db.len(), total_rows);
            Arc::new(db)
        })
    }

    fn catalog(&self) -> &Catalog {
        self.catalog.get_or_init(|| Catalog::generate(self.db()))
    }

    fn store(&self) -> Arc<dyn TraceStore> {
        self.db().clone()
    }
}

fn print(name: &str, inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    match name {
        "table1_catalog" => table1_catalog(inputs, out),
        "table2_config" => table2_config(out),
        "figure4_backends" => figure4_backends(inputs, out),
        "figure5_quality" => figure5_quality(inputs, out),
        "figure6_fewshot" => figure6_fewshot(inputs, out),
        "figure7_distribution" => figure7_distribution(inputs, out),
        "figure8_retrievers" => figure8_retrievers(inputs, out),
        "figure9_retrievers" => figure9_retrievers(inputs, out),
        "ablation_sweeps" => ablation_sweeps(inputs, out),
        "usecase_bypass" => usecase_bypass(inputs.scale, out),
        "usecase_inversions" => usecase_inversions(inputs.scale, out),
        "usecase_mockingjay" => usecase_mockingjay(inputs.scale, out),
        "usecase_prefetch" => usecase_prefetch(inputs.scale, out),
        "usecase_sets" => usecase_sets(inputs.scale, out),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown reproduction {other:?} (expected all or one of {})", NAMES.join(", ")),
        )),
    }
}

/// Writes a horizontal rule `width` dashes wide.
fn rule(out: &mut dyn Write, width: usize) -> io::Result<()> {
    writeln!(out, "{}", "-".repeat(width))
}

/// Formats a percentage cell.
fn pct(v: f64) -> String {
    format!("{v:6.2}%")
}

fn join_pcs(pcs: &[cachemind_sim::addr::Pc]) -> String {
    pcs.iter().map(|p| format!("{p}")).collect::<Vec<_>>().join(", ")
}

/// Table 1: CacheMindBench categories, counts and representative examples.
fn table1_catalog(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let catalog = inputs.catalog();
    writeln!(out, "Table 1 — CacheMindBench categories and representative queries")?;
    rule(out, 100)?;
    writeln!(out, "{:<28} {:>5}  {:<60}", "Category", "#", "Representative example")?;
    rule(out, 100)?;
    for (category, size) in CATEGORY_SIZES {
        let questions = catalog.by_category(category);
        assert_eq!(questions.len(), size);
        let example = questions.first().map(|q| q.text.as_str()).unwrap_or("");
        let truncated: String = example.chars().take(58).collect();
        writeln!(out, "{:<28} {:>5}  {:<60}", category.label(), size, truncated)?;
    }
    rule(out, 100)?;
    let tg = catalog.questions().iter().filter(|q| q.tier() == Tier::TraceGrounded).count();
    let ara = catalog.questions().len() - tg;
    writeln!(out, "Trace-Grounded questions: {tg}   Architectural Reasoning questions: {ara}")
}

/// Table 2: processor and memory configuration.
fn table2_config(out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "Table 2 — Processor and Memory Configuration")?;
    rule(out, 78)?;
    write!(out, "{}", HierarchyConfig::table2().describe())?;
    rule(out, 78)?;
    writeln!(
        out,
        "Database-experiment LLC (scaled; see docs/ARCHITECTURE.md): {:?}",
        TraceDatabaseBuilder::experiment_llc()
    )?;
    writeln!(out, "Replacement policies: Belady's optimal, LRU, PARROT (imitation), MLP")
}

/// Figure 4: accuracy of five LLM backends across the eleven
/// CacheMindBench categories (Sieve retrieval held fixed).
fn figure4_backends(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let fig = eval::figure4(&inputs.store(), inputs.catalog());
    writeln!(out, "Figure 4 — accuracy by category x backend (Sieve retrieval)")?;
    rule(out, 110)?;
    write!(out, "{:<28}", "Category")?;
    for b in &fig.backends {
        write!(out, " {b:>16}")?;
    }
    writeln!(out)?;
    rule(out, 110)?;
    for (label, values) in &fig.rows {
        write!(out, "{label:<28}")?;
        for v in values {
            write!(out, " {:>16}", pct(*v))?;
        }
        writeln!(out)?;
    }
    rule(out, 110)?;
    write!(out, "{:<28}", "Total (weighted)")?;
    for t in &fig.totals {
        write!(out, " {:>16}", pct(*t))?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "\nPaper reference: GPT-4o best overall (74.9%), then o3 (64.8%), finetuned 4o-mini \
         (62.7%), GPT-3.5 (60.0%); Count = 0% everywhere; trick robustness only for the \
         4o family."
    )
}

/// Figure 5: reasoning accuracy across retrieval-context quality
/// (Low/Medium/High) for each backend.
fn figure5_quality(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let fig = eval::figure5(&inputs.store(), inputs.catalog());
    writeln!(out, "Figure 5 — accuracy vs retrieval-context quality (controlled degradation)")?;
    rule(out, 72)?;
    writeln!(out, "{:<22} {:>12} {:>12} {:>12}", "Backend", "Low", "Medium", "High")?;
    rule(out, 72)?;
    let mut sums = [0.0f64; 3];
    for (backend, [low, mid, high]) in &fig.rows {
        writeln!(out, "{backend:<22} {:>12} {:>12} {:>12}", pct(*low), pct(*mid), pct(*high))?;
        sums[0] += low;
        sums[1] += mid;
        sums[2] += high;
    }
    rule(out, 72)?;
    let n = fig.rows.len() as f64;
    writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>12}",
        "Average",
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n)
    )?;
    writeln!(
        out,
        "\nPaper reference: accuracy rises monotonically with retrieval quality for every backend."
    )
}

/// Figure 6: the one-shot prompt, then the one-/few-shot ablation.
fn figure6_fewshot(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let (store, catalog) = (inputs.store(), inputs.catalog());
    writeln!(out, "Figure 6 — the one-shot prompt (Cache Hit/Miss category)")?;
    rule(out, 78)?;
    let prompt = PromptBuilder::new().example(Example::figure6()).render(
        "Does the memory access with PC 0x401dc9 and address 0x47ea85d37f result in a \
             cache hit or cache miss for the lbm workload and PARROT replacement policy?",
        &RetrievedContext::empty("sieve"),
    );
    for line in prompt.lines().take(12) {
        writeln!(out, "  {line}")?;
    }
    writeln!(out, "  ...\n")?;

    writeln!(out, "Few-shot ablation (per backend: shots -> total / trick accuracy)")?;
    rule(out, 78)?;
    for backend in [BackendKind::Gpt4o, BackendKind::O3, BackendKind::Gpt35Turbo] {
        let fig = eval::figure6(&store, catalog, backend);
        write!(out, "{:<20}", backend.label())?;
        for (shots, total, trick) in &fig.rows {
            write!(out, "  [{}-shot: {} total, {} trick]", shots, pct(*total), pct(*trick))?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\nPaper reference: totals barely move with shots; trick-question accuracy improves."
    )
}

/// Figure 7: distribution of rubric scores per backend.
fn figure7_distribution(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let fig = eval::figure7(&inputs.store(), inputs.catalog());
    writeln!(out, "Figure 7 — rubric-score histograms over the 25 reasoning questions")?;
    rule(out, 76)?;
    writeln!(
        out,
        "{:<22} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}",
        "Backend", "0", "1", "2", "3", "4", "5"
    )?;
    rule(out, 76)?;
    for (backend, hist) in &fig.rows {
        write!(out, "{backend:<22}")?;
        for count in hist {
            write!(out, " {count:>5}")?;
        }
        writeln!(out)?;
    }
    rule(out, 76)?;
    for (backend, hist) in &fig.rows {
        writeln!(out, "{backend:<22} {}", sparkline(hist))?;
    }
    writeln!(
        out,
        "\nPaper reference: o3 concentrates at the extremes (bimodal); GPT-4o clusters high."
    )
}

fn sparkline(hist: &[usize; 6]) -> String {
    let max = hist.iter().copied().max().unwrap_or(1).max(1);
    hist.iter()
        .map(|&c| {
            let level = (c * 7) / max;
            char::from_u32(0x2581 + level as u32).unwrap_or('_')
        })
        .collect()
}

/// Figure 8: Sieve vs Ranger across the trace-grounded categories.
fn figure8_retrievers(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let fig = eval::figure8(&inputs.store(), inputs.catalog());
    writeln!(out, "Figure 8 — Sieve vs Ranger by trace-grounded category (GPT-4o generator)")?;
    rule(out, 72)?;
    writeln!(out, "{:<28} {:>16} {:>16}", "Category", "Sieve", "Ranger")?;
    rule(out, 72)?;
    for (label, sieve, ranger) in &fig.rows {
        writeln!(out, "{label:<28} {:>16} {:>16}", pct(*sieve), pct(*ranger))?;
    }
    rule(out, 72)?;
    writeln!(
        out,
        "{:<28} {:>16} {:>16}",
        "Trace-grounded total",
        pct(fig.tg_total.0),
        pct(fig.tg_total.1)
    )?;
    writeln!(
        out,
        "{:<28} {:>16} {:>16}",
        "Reasoning (ARA) total",
        pct(fig.ara_total.0),
        pct(fig.ara_total.1)
    )?;
    writeln!(
        out,
        "\nPaper reference: Ranger 89.33% vs Sieve 66.67% on the trace-grounded tier \
         (Count: Sieve 0%); Sieve 84.80% vs Ranger 64.80% on the reasoning tier."
    )
}

/// Figure 9: retrieval success and latency of the dense baseline, Sieve
/// and Ranger over the probe queries, then Figure 3's Ranger schema card.
fn figure9_retrievers(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let db = inputs.db();
    let probes = probe_queries(db);
    eprintln!("[cachemind] building dense index ...");
    let dense = DenseIndexRetriever::build(db.as_ref(), 4);
    let reports = [
        run_probes(db, &dense, &probes),
        run_probes(db, &SieveRetriever::new(), &probes),
        run_probes(db, &RangerRetriever::new(), &probes),
    ];

    writeln!(out, "Figure 9 — retrieval comparison over {} probe queries", probes.len())?;
    rule(out, 72)?;
    writeln!(out, "{:<14} {:>22} {:>22}", "Retriever", "Correct context", "Mean latency")?;
    rule(out, 72)?;
    for r in &reports {
        writeln!(
            out,
            "{:<14} {:>18}/{} ({:>5.1}%) {:>17.1} us",
            r.retriever,
            r.correct,
            r.total,
            r.success_rate() * 100.0,
            r.mean_latency_us
        )?;
    }
    writeln!(
        out,
        "\nPaper reference: LlamaIndex 1/10 (10%), Sieve 6/10 (60%), Ranger 9/10 (90%); \
         the dense baseline is also the slowest by far (36.6 s vs 3.7/4.4 s)."
    )?;

    writeln!(out, "\nFigure 3 — the Ranger system prompt (schema card)")?;
    rule(out, 72)?;
    for line in RangerRetriever::system_prompt(db.as_ref()).lines().take(24) {
        writeln!(out, "  {line}")?;
    }
    writeln!(out, "  ...")
}

/// The ablation sweeps: Sieve slice cap, Ranger schema card and dense
/// index stride, plus the scenario grid's DRAM-latency and prefetcher axes.
fn ablation_sweeps(inputs: &Inputs, out: &mut dyn Write) -> io::Result<()> {
    let (db, store, catalog) = (inputs.db(), inputs.store(), inputs.catalog());

    writeln!(out, "Ablation — Sieve slice cap vs Count-category accuracy")?;
    rule(out, 60)?;
    for p in ablation::sieve_slice_cap(&store, catalog, &[5, 50, 500, 1_000_000]) {
        writeln!(out, "  cap {:>9} -> {}", p.parameter, pct(p.metric))?;
    }

    writeln!(out, "\nAblation — Ranger schema card vs Arithmetic accuracy")?;
    rule(out, 60)?;
    for p in ablation::ranger_schema(&store, catalog) {
        let state = if p.parameter == 1 { "on " } else { "off" };
        writeln!(out, "  schema {state} -> {}", pct(p.metric))?;
    }

    writeln!(out, "\nAblation — dense index stride vs probe retrieval success")?;
    rule(out, 60)?;
    for p in ablation::dense_stride(db, &[1, 4, 16, 64]) {
        writeln!(out, "  stride {:>3} -> {}", p.parameter, pct(p.metric))?;
    }

    writeln!(out, "\nAblation — DRAM latency vs IPC (scenario grid, mcf under LRU)")?;
    rule(out, 60)?;
    for p in ablation::dram_latency(inputs.scale, &[100, 160, 400, 800]) {
        writeln!(out, "  {:<28} miss {} -> IPC {:.4}", p.label, pct(p.miss_rate * 100.0), p.ipc)?;
    }

    writeln!(
        out,
        "\nAblation — prefetcher kind vs coverage and IPC (scenario grid, lbm under LRU)"
    )?;
    rule(out, 60)?;
    let kinds =
        [PrefetcherKind::None, PrefetcherKind::NextLine, PrefetcherKind::Stride { degree: 4 }];
    for p in ablation::prefetcher_kinds(inputs.scale, &kinds) {
        writeln!(
            out,
            "  {:<10} coverage {} -> IPC {:.4}",
            p.label,
            pct(p.prefetch_coverage * 100.0),
            p.ipc
        )?;
    }

    writeln!(
        out,
        "\nReading: the slice cap is the mechanism behind the paper's Count collapse; \
         hiding the schema card reproduces 'context can suppress latent knowledge'; \
         even stride-1 dense indexing stays far below Sieve/Ranger; the scenario-grid \
         rows show how strongly DRAM latency and prefetch coverage move IPC."
    )
}

/// §6.3: signature optimisation for bypass logic on mcf/LRU.
fn usecase_bypass(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    let report = bypass::run(scale, 10);
    writeln!(out, "Use case — bypass-signature optimisation ({} workload, LRU)", report.workload)?;
    rule(out, 72)?;
    writeln!(out, "{}", report.transcript)?;
    rule(out, 72)?;
    writeln!(
        out,
        "Bypassed PCs ({}): {}",
        report.bypassed_pcs.len(),
        join_pcs(&report.bypassed_pcs)
    )?;
    writeln!(
        out,
        "Hit rate: {:.2}% -> {:.2}%  ({:+.2}% relative)",
        report.base_hit_rate * 100.0,
        report.bypass_hit_rate * 100.0,
        report.relative_hit_gain_percent
    )?;
    writeln!(
        out,
        "IPC:      {:.5} -> {:.5}  ({:+.2}% speedup)",
        report.base_ipc, report.bypass_ipc, report.speedup_percent
    )?;
    writeln!(
        out,
        "\nPaper reference: hit rate 25.06% -> 26.98% (+7.66% relative), IPC 0.047905 -> \
         0.048809 (+2.04%)."
    )
}

/// §6.3: Belady vs PARROT per-PC hit-rate inversions.
fn usecase_inversions(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    let rows = inversions::run(scale);
    writeln!(out, "Belady vs PARROT — per-PC inversions")?;
    rule(out, 78)?;
    writeln!(
        out,
        "{:<10} {:>16} {:>16} {:>12}  inverted PCs",
        "Workload", "Belady hit", "PARROT hit", "#inversions"
    )?;
    rule(out, 78)?;
    for row in &rows {
        writeln!(
            out,
            "{:<10} {:>15.2}% {:>15.2}% {:>12}  {}",
            row.workload,
            row.belady_hit_rate * 100.0,
            row.parrot_hit_rate * 100.0,
            row.inverted_pcs.len(),
            join_pcs(&row.inverted_pcs)
        )?;
    }
    writeln!(
        out,
        "\nPaper reference: PARROT outperformed Belady for 2 (astar), 5 (lbm) and 3 (mcf) \
         PCs, even though OPT wins every aggregate — the global bound does not hold per PC."
    )
}

/// §6.3: Mockingjay stable-PC reuse-distance-predictor training on milc.
fn usecase_mockingjay(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    let report = mockingjay::run(scale);
    writeln!(out, "Use case — Mockingjay stable-PC reuse-distance-predictor training (milc)")?;
    rule(out, 72)?;
    writeln!(out, "{}", report.transcript)?;
    rule(out, 72)?;
    writeln!(
        out,
        "Stable PCs: {}   Noisy PCs: {}",
        report.stable_pcs.len(),
        report.noisy_pcs.len()
    )?;
    writeln!(
        out,
        "Hit rate: {:.2}% -> {:.2}%",
        report.base_hit_rate * 100.0,
        report.stable_hit_rate * 100.0
    )?;
    writeln!(
        out,
        "IPC on {}: {:.5} -> {:.5}  ({:+.2}% speedup)",
        report.machine, report.base_ipc, report.stable_ipc, report.speedup_percent
    )?;
    writeln!(out, "\nPaper reference: IPC 0.47698 -> 0.480307 (+0.7% speedup) on milc.")
}

/// §6.3: PC-directed software prefetching on the pointer-chase
/// microbenchmark.
fn usecase_prefetch(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    let report = prefetch::run(scale, 8);
    writeln!(out, "Use case — software prefetch insertion (pointer-chase microbenchmark)")?;
    rule(out, 72)?;
    writeln!(out, "{}", report.transcript)?;
    rule(out, 72)?;
    writeln!(
        out,
        "Dominant miss PC: {} ({:.1}% of all misses, {:.1}% miss rate)",
        report.dominant_pc,
        report.dominant_miss_share * 100.0,
        report.dominant_miss_rate * 100.0
    )?;
    writeln!(
        out,
        "IPC on {}: {:.6} -> {:.6}  ({:+.2}% speedup)",
        report.machine, report.base_ipc, report.prefetch_ipc, report.speedup_percent
    )?;
    writeln!(
        out,
        "Inserted prefetches: {:.1}% accurate, {:.1}% coverage",
        report.swpf_accuracy * 100.0,
        report.swpf_coverage * 100.0
    )?;
    writeln!(out, "\nPaper reference: IPC 0.131452 -> 0.231261 (+76% speedup).")
}

/// §6.3: hot/cold cache-set identification on astar (Figure 13).
fn usecase_sets(scale: Scale, out: &mut dyn Write) -> io::Result<()> {
    let report = set_hotness::run(scale);
    writeln!(out, "Use case — set-hotness analysis ({} workload)", report.workload)?;
    rule(out, 72)?;
    writeln!(out, "{}", report.transcript)?;
    rule(out, 72)?;
    for p in &report.profiles {
        writeln!(
            out,
            "{:<8} hot sets {:?} (hit rate {:.1}%)   cold sets {:?} (hit rate {:.1}%)",
            p.policy,
            p.hot_sets,
            p.hot_hit_rate * 100.0,
            p.cold_sets,
            p.cold_hit_rate * 100.0
        )?;
    }
    writeln!(out, "Hot-set overlap between LRU and Belady: {}/5", report.hot_overlap)?;
    for cell in &report.cells {
        writeln!(
            out,
            "{:<8} whole-trace hit rate {:.2}%, IPC {:.4} (machine {})",
            cell.policy,
            cell.hit_rate * 100.0,
            cell.ipc,
            report.machine
        )?;
    }
    writeln!(
        out,
        "\nPaper reference: hot-set identity overlaps across policies; Belady amplifies \
         hotness by avoiding premature evictions."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_fixed_width() {
        assert_eq!(pct(7.5), "  7.50%");
    }

    #[test]
    fn unknown_names_are_rejected_before_any_build() {
        let mut out = Vec::new();
        let err = run("figure10", Scale::Tiny, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("usecase_sets"), "{err}");
        assert!(out.is_empty());
    }

    #[test]
    fn table2_needs_no_trace_database() {
        let mut out = Vec::new();
        let inputs = Inputs { scale: Scale::Tiny, db: OnceCell::new(), catalog: OnceCell::new() };
        print("table2_config", &inputs, &mut out).expect("prints");
        assert!(String::from_utf8(out).unwrap().starts_with("Table 2 — "));
        assert!(inputs.db.get().is_none());
    }
}
