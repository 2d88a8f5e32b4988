//! `scenario_queries` — the typed Query API demo/driver: build one
//! multi-machine trace database and ask the *same* IPC question once per
//! machine through [`CacheMind::ask_query`], printing the per-machine
//! answers side by side.
//!
//! ```text
//! scenario_queries [--machines table2,small] [--prefetchers stride4]
//!                  [--retriever sieve|ranger]
//! ```
//!
//! This is the bench-side proof of the scenario-scoped query surface: one
//! shared database, one question text, N `ScenarioSelector`s, N answers
//! each grounded in its own machine's (and, with `--prefetchers`, its own
//! prefetcher's) scenario sentence.

use cachemind_core::system::{CacheMind, Query, RetrieverKind};
use cachemind_sim::config::MachineConfig;
use cachemind_sim::prefetch::PrefetcherKind;
use cachemind_sim::scenario::ScenarioSelector;
use cachemind_tracedb::database::TraceDatabaseBuilder;
use cachemind_tracedb::store::TraceStore;
use cachemind_workloads::workload::Scale;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let machine_names: Vec<String> = flag(&args, "--machines")
        .unwrap_or_else(|| "table2,small".to_owned())
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    let retriever = match flag(&args, "--retriever").as_deref() {
        None | Some("ranger") => RetrieverKind::Ranger,
        Some("sieve") => RetrieverKind::Sieve,
        Some(other) => {
            eprintln!("error: unknown retriever {other:?} (expected sieve or ranger)");
            std::process::exit(2);
        }
    };
    let machines: Vec<MachineConfig> = machine_names
        .iter()
        .map(|name| {
            MachineConfig::preset(name).unwrap_or_else(|| {
                eprintln!("error: unknown machine preset {name:?}");
                std::process::exit(2);
            })
        })
        .collect();
    let prefetcher_names: Vec<String> = flag(&args, "--prefetchers")
        .unwrap_or_default()
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    let prefetchers: Vec<PrefetcherKind> = prefetcher_names
        .iter()
        .map(|name| {
            PrefetcherKind::parse(name).unwrap_or_else(|| {
                eprintln!("error: unknown prefetcher {name:?}");
                std::process::exit(2);
            })
        })
        .collect();

    eprintln!(
        "[scenario_queries] building trace database at {:?} scale for {} extra machine(s) and \
         {} extra prefetcher(s) ...",
        scale,
        machines.len(),
        prefetchers.len()
    );
    let db = TraceDatabaseBuilder::new()
        .scale(scale)
        .machines(machines)
        .prefetchers(prefetchers)
        .build();
    eprintln!(
        "[scenario_queries] database ready: {} traces across machines [{}]",
        db.len(),
        TraceStore::machines(&db).join(", ")
    );
    let workloads = TraceStore::workloads(&db);
    let policies = TraceStore::policies(&db);
    let mind = CacheMind::new(db).with_retriever(retriever);

    println!("Scenario-scoped IPC answers (one shared database, one question per machine)");
    println!("{:<10} {:<10} {:<34} answer", "workload", "policy", "scenario");
    println!("{}", "-".repeat(80));
    for workload in &workloads {
        for policy in &policies {
            let text = format!("What is the estimated IPC for {workload} under {policy}?");
            // Primary machine first (unscoped), then each preset by name —
            // and, per prefetcher, the prefetcher-qualified variant of each.
            let mut scopes = vec![(String::from("(primary)"), ScenarioSelector::all())];
            for pf in &prefetcher_names {
                let selector = ScenarioSelector::parse(&format!("+{pf}"))
                    .expect("validated prefetcher names form selectors");
                scopes.push((format!("+{pf}"), selector));
            }
            for name in &machine_names {
                scopes.push((format!("@{name}"), ScenarioSelector::all().with_machine(name)));
                for pf in &prefetcher_names {
                    let label = format!("@{name}+{pf}");
                    let selector = ScenarioSelector::parse(&label)
                        .expect("validated machine and prefetcher names form selectors");
                    scopes.push((label, selector));
                }
            }
            for (label, selector) in scopes {
                let answer = mind.ask_query(&Query::scoped(&text, selector));
                let evidence = answer
                    .context
                    .facts
                    .first()
                    .map(|f| f.render())
                    .unwrap_or_else(|| "(no evidence)".to_owned());
                println!("{workload:<10} {policy:<10} {label:<34} {evidence}");
            }
        }
    }
}
