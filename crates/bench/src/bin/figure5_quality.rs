//! Figure 5: reasoning accuracy across retrieval-context quality
//! (Low/Medium/High) for each backend. "Retrieval quality is the
//! precondition for cache replacement policy high level reasoning."
//!
//! The per-backend benchmark runs ride the sweep engine
//! (`cachemind_sim::sweep::sweep_cells` inside `eval::figure5`), so the
//! five backends evaluate in parallel instead of replaying serially; the
//! printed table is byte-identical for any `RAYON_NUM_THREADS`.

use cachemind_core::eval;

fn main() {
    let (store, catalog) = cachemind_bench::load_suite();
    let fig = eval::figure5(&store, &catalog);

    println!("Figure 5 — accuracy vs retrieval-context quality (controlled degradation)");
    cachemind_bench::rule(72);
    println!("{:<22} {:>12} {:>12} {:>12}", "Backend", "Low", "Medium", "High");
    cachemind_bench::rule(72);
    let mut sums = [0.0f64; 3];
    for (backend, [low, mid, high]) in &fig.rows {
        println!(
            "{backend:<22} {:>12} {:>12} {:>12}",
            cachemind_bench::pct(*low),
            cachemind_bench::pct(*mid),
            cachemind_bench::pct(*high)
        );
        sums[0] += low;
        sums[1] += mid;
        sums[2] += high;
    }
    cachemind_bench::rule(72);
    let n = fig.rows.len() as f64;
    println!(
        "{:<22} {:>12} {:>12} {:>12}",
        "Average",
        cachemind_bench::pct(sums[0] / n),
        cachemind_bench::pct(sums[1] / n),
        cachemind_bench::pct(sums[2] / n)
    );
    println!(
        "\nPaper reference: accuracy rises monotonically with retrieval quality for every backend."
    );
}
