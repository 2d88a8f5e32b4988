//! Figure 6: one-/few-shot prompting ablation. The paper: "one or few-shot
//! prompting does not improve system performance significantly ... the
//! given examples help the generator identify and assess trick questions
//! better than zero-shot prompting."
//!
//! Each backend's three shot-count configurations run in parallel on the
//! sweep engine (`sweep_cells` inside `eval::figure6`) rather than
//! serially; output is byte-identical for any `RAYON_NUM_THREADS`.

use cachemind_core::eval;
use cachemind_lang::context::RetrievedContext;
use cachemind_lang::profiles::BackendKind;
use cachemind_lang::prompt::{Example, PromptBuilder};

fn main() {
    let (store, catalog) = cachemind_bench::load_suite();

    // Render the Figure 6 one-shot prompt itself.
    println!("Figure 6 — the one-shot prompt (Cache Hit/Miss category)");
    cachemind_bench::rule(78);
    let prompt = PromptBuilder::new().example(Example::figure6()).render(
        "Does the memory access with PC 0x401dc9 and address 0x47ea85d37f result in a \
             cache hit or cache miss for the lbm workload and PARROT replacement policy?",
        &RetrievedContext::empty("sieve"),
    );
    for line in prompt.lines().take(12) {
        println!("  {line}");
    }
    println!("  ...\n");

    println!("Few-shot ablation (per backend: shots -> total / trick accuracy)");
    cachemind_bench::rule(78);
    for backend in [BackendKind::Gpt4o, BackendKind::O3, BackendKind::Gpt35Turbo] {
        let fig = eval::figure6(&store, &catalog, backend);
        print!("{:<20}", backend.label());
        for (shots, total, trick) in &fig.rows {
            print!(
                "  [{}-shot: {} total, {} trick]",
                shots,
                cachemind_bench::pct(*total),
                cachemind_bench::pct(*trick)
            );
        }
        println!();
    }
    println!("\nPaper reference: totals barely move with shots; trick-question accuracy improves.");
}
