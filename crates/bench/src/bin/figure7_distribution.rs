//! Figure 7: distribution of reasoning (rubric) scores per backend —
//! o3 is bimodal, GPT-4o consistently competent.

use cachemind_core::eval;

fn main() {
    let (store, catalog) = cachemind_bench::load_suite();
    let fig = eval::figure7(&store, &catalog);

    println!("Figure 7 — rubric-score histograms over the 25 reasoning questions");
    cachemind_bench::rule(76);
    println!("{:<22} {:>5} {:>5} {:>5} {:>5} {:>5} {:>5}", "Backend", "0", "1", "2", "3", "4", "5");
    cachemind_bench::rule(76);
    for (backend, hist) in &fig.rows {
        print!("{backend:<22}");
        for count in hist {
            print!(" {count:>5}");
        }
        println!();
    }
    cachemind_bench::rule(76);
    for (backend, hist) in &fig.rows {
        println!("{backend:<22} {}", sparkline(hist));
    }
    println!("\nPaper reference: o3 concentrates at the extremes (bimodal); GPT-4o clusters high.");
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
