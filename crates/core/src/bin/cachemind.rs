//! `cachemind` — the command-line front door to the reproduction.
//!
//! ```text
//! cachemind ask "<question>" [--retriever sieve|ranger|dense] [--backend NAME]
//! cachemind chat                      # interactive session on stdin
//! cachemind bench [--retriever NAME]  # run CacheMindBench, print breakdown
//! cachemind reproduce <name|all>      # print a table, figure or use case
//! cachemind export <trace_id> <file.csv>
//! ```
//!
//! `CACHEMIND_SCALE` (`tiny` | `small` | `full`, default `small`) sets the
//! scale of every subcommand; any other value exits with status 2, as does
//! an unknown `--retriever` (default `ranger`) or `--backend` (`gpt-4o`,
//! the default, `gpt-3.5`, `o3`, `gpt-4o-mini` or `finetuned`).
//! `reproduce` builds its trace database with
//! `TraceDatabaseBuilder::new().scale(..)`; the other subcommands use the
//! `quick_demo` database at Tiny. `cachemind reproduce all` prints every
//! name of `cachemind_core::reproduce::NAMES` in order over one database.

use std::io::{BufRead, Write as _};

use cachemind_benchsuite::catalog::Catalog;
use cachemind_core::system::{CacheMind, Query, RetrieverKind};
use cachemind_core::ChatSession;
use cachemind_core::{eval, reproduce};
use cachemind_lang::intent::{QueryCategory, Tier};
use cachemind_lang::profiles::BackendKind;
use cachemind_tracedb::database::{TraceDatabase, TraceDatabaseBuilder};
use cachemind_tracedb::store::TraceStore;
use cachemind_workloads::workload::Scale;

fn trace_db(scale: Scale) -> TraceDatabase {
    eprintln!("building trace database ({scale:?}) ...");
    if scale == Scale::Tiny {
        TraceDatabaseBuilder::quick_demo().build()
    } else {
        TraceDatabaseBuilder::new().scale(scale).build()
    }
}

/// The CacheMind `ask` and `chat` run; the flags are checked before the
/// database is built.
fn mind(scale: Scale, args: &[String]) -> CacheMind {
    let (retriever, backend) = (retriever_kind(args), backend_kind(args));
    CacheMind::new(trace_db(scale)).with_retriever(retriever).with_backend(backend)
}

fn retriever_kind(args: &[String]) -> RetrieverKind {
    match flag(args, "--retriever").as_deref() {
        None | Some("ranger") => RetrieverKind::Ranger,
        Some("sieve") => RetrieverKind::Sieve,
        Some("dense") => RetrieverKind::Dense,
        Some(other) => bad_flag("retriever", other, "sieve, ranger or dense"),
    }
}

fn backend_kind(args: &[String]) -> BackendKind {
    match flag(args, "--backend").as_deref() {
        None | Some("gpt-4o") | Some("gpt4o") => BackendKind::Gpt4o,
        Some("gpt-3.5") | Some("gpt35") => BackendKind::Gpt35Turbo,
        Some("o3") => BackendKind::O3,
        Some("gpt-4o-mini") | Some("mini") => BackendKind::Gpt4oMini,
        Some("finetuned") | Some("ft") => BackendKind::FinetunedGpt4oMini,
        Some(other) => bad_flag(
            "backend",
            other,
            "gpt-4o, gpt4o, gpt-3.5, gpt35, o3, gpt-4o-mini, mini, finetuned or ft",
        ),
    }
}

/// Exits with status 2 on a flag value no arm accepts, naming the ones
/// it does.
fn bad_flag(name: &str, value: &str, accepted: &str) -> ! {
    eprintln!("error: unknown {name} {value:?} (expected {accepted})");
    std::process::exit(2)
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn usage() -> ! {
    eprintln!(
        "usage: cachemind <ask|chat|bench|reproduce|export> [...]\n\
         see crates/core/src/bin/cachemind.rs for details"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    match args.first().map(String::as_str) {
        Some("ask") => {
            let question = args.get(1).cloned().unwrap_or_else(|| usage());
            let mind = mind(scale, &args);
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
            let mut chat = ChatSession::new(mind(scale, &args));
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
            let (retriever, backend) = (retriever_kind(&args), backend_kind(&args));
            let db = trace_db(scale);
            let catalog = Catalog::generate(&db);
            let mind = CacheMind::new(db).with_retriever(retriever).with_backend(backend);
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
        Some("reproduce") => {
            let name = args.get(1).cloned().unwrap_or_else(|| usage());
            let mut out = std::io::BufWriter::new(std::io::stdout().lock());
            if let Err(e) = reproduce::run(&name, scale, &mut out).and_then(|()| out.flush()) {
                eprintln!("error: {e}");
                std::process::exit(if e.kind() == std::io::ErrorKind::InvalidInput {
                    2
                } else {
                    1
                });
            }
        }
        Some("export") => {
            let trace_id = args.get(1).cloned().unwrap_or_else(|| usage());
            let path = args.get(2).cloned().unwrap_or_else(|| usage());
            let db = trace_db(scale);
            let entry = db.get(&trace_id).unwrap_or_else(|| {
                eprintln!("unknown trace {trace_id:?}; available: {}", db.trace_keys().join(", "));
                std::process::exit(1);
            });
            std::fs::write(&path, entry.frame.to_csv()).expect("write CSV");
            println!("wrote {} rows to {path}", entry.frame.len());
        }
        _ => usage(),
    }
}
