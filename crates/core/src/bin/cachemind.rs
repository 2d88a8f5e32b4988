//! `cachemind` — the command-line front door to the reproduction.
//!
//! ```text
//! cachemind ask "<question>" [--retriever sieve|ranger|dense] [--backend NAME]
//! cachemind chat                      # interactive session on stdin
//! cachemind bench [--retriever NAME]  # run CacheMindBench, print breakdown
//! cachemind probes                    # the Figure 9 retrieval comparison
//! cachemind insight <bypass|mockingjay|prefetch|sets|inversions>
//! cachemind export <trace_id> <file.csv>
//! ```
//!
//! The database is built at `Scale::Tiny` by default; set
//! `CACHEMIND_SCALE=small` for the paper-scale run.

use std::io::{BufRead, Write as _};

use cachemind_benchsuite::catalog::Catalog;
use cachemind_core::system::{CacheMind, Query, RetrieverKind};
use cachemind_core::ChatSession;
use cachemind_core::{eval, insights};
use cachemind_lang::intent::{QueryCategory, Tier};
use cachemind_lang::profiles::BackendKind;
use cachemind_retrieval::dense::DenseIndexRetriever;
use cachemind_retrieval::probes::{probe_queries, run_probes};
use cachemind_retrieval::ranger::RangerRetriever;
use cachemind_retrieval::sieve::SieveRetriever;
use cachemind_tracedb::database::{TraceDatabase, TraceDatabaseBuilder};
use cachemind_workloads::workload::Scale;

fn scale() -> Scale {
    match std::env::var("CACHEMIND_SCALE").as_deref() {
        Ok("small") => Scale::Small,
        Ok("full") => Scale::Full,
        _ => Scale::Tiny,
    }
}

fn trace_db() -> TraceDatabase {
    eprintln!("building trace database ({:?}) ...", scale());
    if scale() == Scale::Tiny {
        TraceDatabaseBuilder::quick_demo().build()
    } else {
        TraceDatabaseBuilder::new().scale(scale()).build()
    }
}

fn retriever_kind(args: &[String]) -> RetrieverKind {
    match flag(args, "--retriever").as_deref() {
        Some("sieve") => RetrieverKind::Sieve,
        Some("dense") => RetrieverKind::Dense,
        _ => RetrieverKind::Ranger,
    }
}

fn backend_kind(args: &[String]) -> BackendKind {
    match flag(args, "--backend").as_deref() {
        Some("gpt-3.5") | Some("gpt35") => BackendKind::Gpt35Turbo,
        Some("o3") => BackendKind::O3,
        Some("gpt-4o-mini") | Some("mini") => BackendKind::Gpt4oMini,
        Some("finetuned") | Some("ft") => BackendKind::FinetunedGpt4oMini,
        _ => BackendKind::Gpt4o,
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn usage() -> ! {
    eprintln!(
        "usage: cachemind <ask|chat|bench|probes|insight|export> [...]\n\
         see crates/core/src/bin/cachemind.rs for details"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("ask") => {
            let question = args.get(1).cloned().unwrap_or_else(|| usage());
            let mind = CacheMind::new(trace_db())
                .with_retriever(retriever_kind(&args))
                .with_backend(backend_kind(&args));
            let answer = mind.ask_query(&Query::new(question));
            println!("{}", answer.text);
            println!(
                "\n-- evidence ({:?}, {}) --",
                answer.context.quality, answer.context.retriever
            );
            for fact in answer.context.facts.iter().take(6) {
                println!("{}", fact.render());
            }
        }
        Some("chat") => {
            let mind = CacheMind::new(trace_db())
                .with_retriever(retriever_kind(&args))
                .with_backend(backend_kind(&args));
            let mut chat = ChatSession::new(mind);
            let stdin = std::io::stdin();
            print!("cachemind> ");
            std::io::stdout().flush().ok();
            for line in stdin.lock().lines() {
                let Ok(line) = line else { break };
                let line = line.trim();
                if line.is_empty() || line == "exit" || line == "quit" {
                    break;
                }
                let answer = chat.ask(line);
                println!("{}\n", answer.text);
                print!("cachemind> ");
                std::io::stdout().flush().ok();
            }
        }
        Some("bench") => {
            let db = trace_db();
            let catalog = Catalog::generate(&db);
            let mind = CacheMind::new(db)
                .with_retriever(retriever_kind(&args))
                .with_backend(backend_kind(&args));
            let report = eval::bench(&mind, &catalog);
            println!("CacheMindBench — {} + {}", report.retriever, report.backend);
            for category in QueryCategory::ALL {
                println!("{:<30} {:>7.2}%", category.label(), report.category_accuracy(category));
            }
            println!(
                "TG {:.2}%  ARA {:.2}%  total {:.2}%",
                report.tier_accuracy(Tier::TraceGrounded),
                report.tier_accuracy(Tier::Reasoning),
                report.total()
            );
        }
        Some("probes") => {
            let db = trace_db();
            let probes = probe_queries(&db);
            let dense = DenseIndexRetriever::build(&db, 4);
            for report in [
                run_probes(&db, &dense, &probes),
                run_probes(&db, &SieveRetriever::new(), &probes),
                run_probes(&db, &RangerRetriever::new(), &probes),
            ] {
                println!(
                    "{:<8} {}/{} correct, {:.1} us mean latency",
                    report.retriever, report.correct, report.total, report.mean_latency_us
                );
            }
        }
        Some("insight") => match args.get(1).map(String::as_str) {
            Some("bypass") => {
                let r = insights::bypass::run(scale(), 10);
                println!("{}", r.transcript);
                println!(
                    "hit rate {:.2}% -> {:.2}%, IPC {:+.2}%",
                    r.base_hit_rate * 100.0,
                    r.bypass_hit_rate * 100.0,
                    r.speedup_percent
                );
            }
            Some("mockingjay") => {
                let r = insights::mockingjay::run(scale());
                println!("{}", r.transcript);
                println!(
                    "IPC {:.5} -> {:.5} ({:+.2}%)",
                    r.base_ipc, r.stable_ipc, r.speedup_percent
                );
            }
            Some("prefetch") => {
                let r = insights::prefetch::run(scale(), 8);
                println!("{}", r.transcript);
                println!(
                    "IPC {:.5} -> {:.5} ({:+.2}%)",
                    r.base_ipc, r.prefetch_ipc, r.speedup_percent
                );
            }
            Some("sets") => {
                let r = insights::set_hotness::run(scale());
                println!("{}", r.transcript);
            }
            Some("inversions") => {
                for row in insights::inversions::run(scale()) {
                    println!(
                        "{}: {} inversions (belady {:.2}% vs parrot {:.2}%)",
                        row.workload,
                        row.inverted_pcs.len(),
                        row.belady_hit_rate * 100.0,
                        row.parrot_hit_rate * 100.0
                    );
                }
            }
            _ => usage(),
        },
        Some("export") => {
            let trace_id = args.get(1).cloned().unwrap_or_else(|| usage());
            let path = args.get(2).cloned().unwrap_or_else(|| usage());
            let db = trace_db();
            let entry = db.get(&trace_id).unwrap_or_else(|| {
                eprintln!(
                    "unknown trace {trace_id:?}; available: {}",
                    db.trace_ids().collect::<Vec<_>>().join(", ")
                );
                std::process::exit(1);
            });
            std::fs::write(&path, entry.frame.to_csv()).expect("write CSV");
            println!("wrote {} rows to {path}", entry.frame.len());
        }
        _ => usage(),
    }
}
