//! Figure 4: accuracy of CacheMind with five LLM backends across the eleven
//! CacheMindBench categories (Sieve retrieval held fixed).

use cachemind_core::eval;

fn main() {
    let (store, catalog) = cachemind_bench::load_suite();
    let fig = eval::figure4(&store, &catalog);

    println!("Figure 4 — accuracy by category x backend (Sieve retrieval)");
    cachemind_bench::rule(110);
    print!("{:<28}", "Category");
    for b in &fig.backends {
        print!(" {b:>16}");
    }
    println!();
    cachemind_bench::rule(110);
    for (label, values) in &fig.rows {
        print!("{label:<28}");
        for v in values {
            print!(" {:>16}", cachemind_bench::pct(*v));
        }
        println!();
    }
    cachemind_bench::rule(110);
    print!("{:<28}", "Total (weighted)");
    for t in &fig.totals {
        print!(" {:>16}", cachemind_bench::pct(*t));
    }
    println!();
    println!(
        "\nPaper reference: GPT-4o best overall (74.9%), then o3 (64.8%), finetuned 4o-mini \
         (62.7%), GPT-3.5 (60.0%); Count = 0% everywhere; trick robustness only for the \
         4o family."
    );
}
