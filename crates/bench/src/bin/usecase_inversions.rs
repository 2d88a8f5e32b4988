//! §6.3 finding: Belady vs PARROT per-PC hit-rate inversions.
//! Paper: PARROT beats Belady on 2 / 5 / 3 PCs for astar / lbm / mcf while
//! Belady wins in aggregate on each workload.

use cachemind_core::insights::inversions;

fn main() {
    let scale = cachemind_bench::scale_from_env();
    let rows = inversions::run(scale);

    println!("Belady vs PARROT — per-PC inversions");
    cachemind_bench::rule(78);
    println!(
        "{:<10} {:>16} {:>16} {:>12}  inverted PCs",
        "Workload", "Belady hit", "PARROT hit", "#inversions"
    );
    cachemind_bench::rule(78);
    for row in &rows {
        println!(
            "{:<10} {:>15.2}% {:>15.2}% {:>12}  {}",
            row.workload,
            row.belady_hit_rate * 100.0,
            row.parrot_hit_rate * 100.0,
            row.inverted_pcs.len(),
            row.inverted_pcs.iter().map(|p| format!("{p}")).collect::<Vec<_>>().join(", ")
        );
    }
    println!(
        "\nPaper reference: PARROT outperformed Belady for 2 (astar), 5 (lbm) and 3 (mcf) \
         PCs, even though OPT wins every aggregate — the global bound does not hold per PC."
    );
}
