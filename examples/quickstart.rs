//! Quickstart: build a trace database, ask CacheMind trace-grounded
//! questions, and inspect the evidence behind each answer.
//!
//! Run with: `cargo run --example quickstart`

use cachemind_suite::prelude::*;

fn main() {
    // 1. Simulate: three SPEC-like workloads x four replacement policies,
    //    annotated per access (PC, address, set, hit/miss, reuse, ...).
    println!("Building the trace database (tiny demo scale) ...");
    let db = TraceDatabaseBuilder::quick_demo().build();
    println!("  {} traces: {}", db.len(), db.trace_keys().join(", "));

    // Pick a real record so questions have verifiable answers.
    let entry = db.get("mcf_evictions_lru").expect("built trace");
    let row = entry.frame.rows()[25].clone();

    // 2. Ask, with the Ranger retriever (plan generation + execution).
    let mind = CacheMind::new(db).with_retriever(RetrieverKind::Ranger);

    let q1 = format!(
        "Does the memory access with PC {} and address {} result in a cache hit or cache \
         miss for the mcf workload and LRU replacement policy?",
        row.pc, row.address
    );
    let a1 = mind.ask_query(&q1.as_str().into());
    println!("\nQ: {q1}");
    println!("A: {}", a1.text);
    println!("   evidence quality: {:?}, retriever: {}", a1.context.quality, a1.context.retriever);

    let q2 = format!("What is the miss rate for PC {} in the mcf workload with LRU?", row.pc);
    let a2 = mind.ask_query(&q2.as_str().into());
    println!("\nQ: {q2}");
    println!("A: {}", a2.text);

    let q3 =
        format!("Which policy has the lowest miss rate for PC {} in the mcf workload?", row.pc);
    let a3 = mind.ask_query(&q3.as_str().into());
    println!("\nQ: {q3}");
    println!("A: {}", a3.text);

    // 3. The microarchitectural microscope (Figure 2): the retrieved slice
    //    links the access to code.
    println!("\nFigure 2-style retrieved excerpt:");
    for fact in a1.context.facts.iter().take(3) {
        println!("  {}", fact.render().replace('\n', "\n  "));
    }
    let program_view =
        mind.database().get("mcf_evictions_lru").and_then(|e| e.frame.assembly_code(row.pc));
    if let Some(asm) = program_view {
        println!("  Assembly around {}:", row.pc);
        for line in asm.lines() {
            println!("    {line}");
        }
    }
}
