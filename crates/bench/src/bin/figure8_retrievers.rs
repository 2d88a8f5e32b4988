//! Figure 8: CacheMind-Sieve vs CacheMind-Ranger across the trace-grounded
//! categories (generator held fixed at GPT-4o).

use cachemind_core::eval;

fn main() {
    let (store, catalog) = cachemind_bench::load_suite();
    let fig = eval::figure8(&store, &catalog);

    println!("Figure 8 — Sieve vs Ranger by trace-grounded category (GPT-4o generator)");
    cachemind_bench::rule(72);
    println!("{:<28} {:>16} {:>16}", "Category", "Sieve", "Ranger");
    cachemind_bench::rule(72);
    for (label, sieve, ranger) in &fig.rows {
        println!(
            "{label:<28} {:>16} {:>16}",
            cachemind_bench::pct(*sieve),
            cachemind_bench::pct(*ranger)
        );
    }
    cachemind_bench::rule(72);
    println!(
        "{:<28} {:>16} {:>16}",
        "Trace-grounded total",
        cachemind_bench::pct(fig.tg_total.0),
        cachemind_bench::pct(fig.tg_total.1)
    );
    println!(
        "{:<28} {:>16} {:>16}",
        "Reasoning (ARA) total",
        cachemind_bench::pct(fig.ara_total.0),
        cachemind_bench::pct(fig.ara_total.1)
    );
    println!(
        "\nPaper reference: Ranger 89.33% vs Sieve 66.67% on the trace-grounded tier \
         (Count: Sieve 0%); Sieve 84.80% vs Ranger 64.80% on the reasoning tier."
    );
}
