//! Minimal serving-subsystem tour: build a sharded database, open two chat
//! sessions and ask three questions as protocol lines, and print the
//! transcripts.
//!
//! ```sh
//! cargo run --release --example serve_round
//! ```

use cachemind_suite::serve::engine::{ServeConfig, ServeEngine};
use cachemind_suite::serve::protocol::{AskRequest, AskResponse, Request};
use cachemind_suite::tracedb::{TraceDatabaseBuilder, TraceStore};

fn main() {
    let db = TraceDatabaseBuilder::quick_demo()
        .shards(3)
        .try_build_sharded()
        .expect("demo names are valid");
    println!("sharded database: {} traces across {} shards", db.len(), db.num_shards());

    let engine = ServeEngine::over(db, ServeConfig::default());
    // Every request is one protocol line, exactly as a stdin or TCP
    // client would send it.
    let serve = |request: Request| {
        let rendered = engine.serve_line(&request.to_json(), false, "stdin", None).rendered;
        AskResponse::from_json(&rendered).expect("an ask-shaped response")
    };
    let alice = serve(Request::Open { session: None, scenario: None }).session;
    let bob = serve(Request::Open { session: None, scenario: None }).session;

    for (session, question) in [
        (alice, "What is the overall miss rate of the mcf workload under LRU?"),
        (bob, "Which policy has the lowest miss rate in astar?"),
        (alice, "List all unique PCs in the mcf trace under LRU."),
    ] {
        let response = serve(Request::Ask(AskRequest::in_session(session, question)));
        println!("\nsession {} turn {}:", response.session, response.turn);
        println!("  {}", response.answer.as_deref().unwrap_or("<error>"));
    }

    println!("\n--- transcripts ---");
    for (name, id) in [("alice", alice), ("bob", bob)] {
        println!("{name} ({} turns):", engine.transcript(id).map(|t| t.len()).unwrap_or(0));
        for (q, _) in engine.transcript(id).unwrap_or_default() {
            println!("  Q: {q}");
        }
    }
}
