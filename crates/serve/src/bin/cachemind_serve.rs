//! `cachemind-serve` — the CacheMind serving front-end.
//!
//! ```text
//! # serve newline-delimited JSON requests from stdin
//! cachemind-serve [--retriever sieve|ranger] [--scale tiny|small|full]
//!                 [--threads N] [--max-idle-rounds R]
//!
//! # synthetic load driver: N sessions x M questions as protocol lines,
//! # in process, or against a running server with --tcp ADDR
//! cachemind-serve --load-driver [--sessions N] [--questions M] [...]
//!
//! # snapshot lifecycle: build once offline, serve instantly afterwards
//! cachemind-serve --build-db db.snap [--scale ...] [--machines ...]
//! cachemind-serve --db-path db.snap [...]
//! ```
//!
//! Every transport serves one protocol line at a time through
//! `ServeEngine::serve_line`. The TCP worker-pool width comes from
//! `--threads`, else `SERVE_NUM_THREADS`, else the machine. The load
//! driver prints only the deterministic report (no thread count, no
//! wall-clock fields) — the form CI diffs across transports and thread
//! counts. Timing is what the server measured: `--stats-json PATH` writes
//! the engine's metrics snapshot, startup spans included.
//!
//! `--build-db PATH` runs the simulation build and writes the
//! database to `PATH` as a versioned snapshot, without serving. `--db-path
//! PATH` starts the engine from such a snapshot instead of simulating —
//! answers are byte-identical to a fresh build, startup is near-instant.
//! The engine records its startup as a `tracedb.build` span (simulated)
//! or a `tracedb.snapshot_verify` span (snapshot), so the two startups
//! compare through their stats snapshots.

use std::io::Write as _;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Instant;

use cachemind_core::system::RetrieverKind;
use cachemind_serve::engine::{build_database, ServeConfig, ServeEngine, StdioEnd};
use cachemind_serve::load::{run_load_driver, LoadSpec, LoadTarget};
use cachemind_serve::net::{self, NetConfig, SessionScope, TcpServer};
use cachemind_tracedb::{ScenarioSelector, TraceStore};
use cachemind_workloads::workload::Scale;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn usize_flag(args: &[String], name: &str, default: usize) -> usize {
    match flag(args, name) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} expects a positive integer, got {v:?}");
            std::process::exit(2);
        }),
        None => default,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: cachemind-serve [--load-driver] [--sessions N] [--questions M]\n\
         \x20                      [--retriever sieve|ranger] [--scale tiny|small|full]\n\
         \x20                      [--threads N]\n\
         \x20                      [--machines table2,small] [--prefetchers nextline,stride4]\n\
         \x20                      [--scenarios @table2,@small] [--max-idle-rounds R]\n\
         \x20                      [--repeat-period N] [--no-answer-cache]\n\
         \x20                      [--build-db PATH | --db-path PATH]\n\
         \x20                      [--stats-json PATH]\n\
         \x20                      [--tcp ADDR [--port-file PATH] [--max-connections N]\n\
         \x20                       [--queue N] [--session-scope conn|global]]\n\
         \x20                      [--shutdown-server --tcp ADDR]\n\
         --machines adds machine-qualified traces (MachineConfig presets) to the build;\n\
         --prefetchers adds prefetcher-qualified (transformed-stream) traces;\n\
         --scenarios pins load-driver sessions round-robin to selectors\n\
         \x20   (canonical form workload@machine+prefetcher/policy, all parts optional);\n\
         --max-idle-rounds reaps sessions untouched for R consecutive rounds (asks\n\
         \x20   and opens both tick the clock);\n\
         --repeat-period makes load-driver turn t re-ask the question of turn\n\
         \x20   t mod N — the repeated-question mix that exercises the answer cache;\n\
         --no-answer-cache disables the whole-answer cache (on by default) for\n\
         \x20   cache-on/cache-off A/B runs;\n\
         --build-db simulates the configured database and writes it to PATH as a\n\
         \x20   versioned snapshot, then exits (no serving);\n\
         --db-path starts the engine from such a snapshot instead of simulating;\n\
         --stats-json writes the engine's metrics snapshot (the {{\"stats\": true}}\n\
         \x20   response shape) to PATH on shutdown;\n\
         --tcp serves the same newline-JSON protocol on ADDR (use port 0 for an\n\
         \x20   ephemeral port; --port-file writes the bound address for scripts;\n\
         \x20   --max-connections and --queue bound admission, refusals answer\n\
         \x20   in-band with error_kind \"overloaded\"; --session-scope conn reaps a\n\
         \x20   connection's sessions at disconnect, global matches stdin semantics);\n\
         --tcp with --load-driver drives a *running* server at ADDR over real\n\
         \x20   sockets instead of in process (the deterministic report is\n\
         \x20   byte-identical either way);\n\
         --shutdown-server asks the server at --tcp ADDR to shut down gracefully.\n\
         without --load-driver, serves newline-delimited JSON requests from stdin:\n\
         \x20   {{\"question\": \"...\", \"session\": 3}}   (omit session to open one)\n\
         \x20   {{\"question\": \"...\", \"scenario\": \"@table2+stride4\", \"protocol_version\": 2}}\n\
         \x20   {{\"open\": true, \"scenario\": \"@table2\"}}  (open/probe without asking)\n\
         \x20   {{\"close\": true, \"session\": 3}}        (close the session)\n\
         \x20   {{\"stats\": true}}                       (in-band metrics snapshot)\n\
         \x20   {{\"shutdown\": true}}                    (graceful shutdown)"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if has(&args, "--help") || has(&args, "-h") {
        usage();
    }

    let retriever = match flag(&args, "--retriever").as_deref() {
        None | Some("sieve") => RetrieverKind::Sieve,
        Some("ranger") => RetrieverKind::Ranger,
        Some(other) => {
            eprintln!("error: unknown retriever {other:?} (expected sieve or ranger)");
            std::process::exit(2);
        }
    };
    let scale = flag(&args, "--scale").map_or(Ok(Scale::Tiny), |v| v.parse()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let machines: Vec<String> = flag(&args, "--machines")
        .map(|v| v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_owned).collect())
        .unwrap_or_default();
    let prefetchers: Vec<String> = flag(&args, "--prefetchers")
        .map(|v| v.split(',').map(str::trim).filter(|s| !s.is_empty()).map(str::to_owned).collect())
        .unwrap_or_default();
    let scenarios: Vec<ScenarioSelector> = flag(&args, "--scenarios")
        .map(|v| {
            v.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    ScenarioSelector::parse(s).unwrap_or_else(|e| {
                        eprintln!("error: --scenarios: {e}");
                        std::process::exit(2);
                    })
                })
                .collect()
        })
        .unwrap_or_default();
    let config = ServeConfig {
        retriever,
        scale,
        threads: flag(&args, "--threads").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: --threads expects a positive integer, got {v:?}");
                std::process::exit(2);
            })
        }),
        machines,
        prefetchers,
        max_idle_rounds: flag(&args, "--max-idle-rounds").map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: --max-idle-rounds expects a positive integer, got {v:?}");
                std::process::exit(2);
            })
        }),
        answer_cache: !has(&args, "--no-answer-cache"),
        ..Default::default()
    };

    let tcp_addr = flag(&args, "--tcp");
    let net_config = NetConfig {
        max_connections: usize_flag(
            &args,
            "--max-connections",
            NetConfig::default().max_connections,
        ),
        queue_capacity: usize_flag(&args, "--queue", NetConfig::default().queue_capacity),
        session_scope: match flag(&args, "--session-scope") {
            None => NetConfig::default().session_scope,
            Some(v) => SessionScope::parse(&v).unwrap_or_else(|| {
                eprintln!("error: unknown session scope {v:?} (expected conn or global)");
                std::process::exit(2);
            }),
        },
    };

    // Remote control: ask a running TCP server to shut down gracefully,
    // print its acknowledgement, exit — no engine needed.
    if has(&args, "--shutdown-server") {
        let Some(addr) = tcp_addr else {
            eprintln!("error: --shutdown-server needs the server address via --tcp ADDR");
            std::process::exit(2);
        };
        match net::send_shutdown(addr.as_str()) {
            Ok(ack) => {
                println!("{ack}");
                return;
            }
            Err(e) => {
                eprintln!("error: cannot shut down server at {addr}: {e}");
                std::process::exit(1);
            }
        }
    }

    // Offline snapshot build: simulate, save, exit — the serving start
    // that follows (--db-path) then skips simulation entirely.
    if let Some(path) = flag(&args, "--build-db") {
        eprintln!("[cachemind-serve] building trace database ({:?}) ...", config.scale);
        let started = Instant::now();
        let db = match build_database(&config) {
            Ok(db) => db,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let build_micros = started.elapsed().as_micros() as u64;
        if let Err(e) = db.save(&path) {
            eprintln!("error: cannot write snapshot {path:?}: {e}");
            std::process::exit(1);
        }
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        eprintln!(
            "[cachemind-serve] wrote snapshot {path} ({bytes} bytes, {} traces, {} shards) — \
             build took {} ms",
            db.len(),
            db.shard_count(),
            build_micros / 1000
        );
        return;
    }

    let started = Instant::now();
    let (engine, source) = match flag(&args, "--db-path") {
        Some(path) => {
            eprintln!("[cachemind-serve] loading trace-database snapshot {path} ...");
            (ServeEngine::from_snapshot(&path, config).map_err(|e| e.to_string()), "snapshot")
        }
        None => {
            eprintln!("[cachemind-serve] building trace database ({:?}) ...", config.scale);
            (ServeEngine::build(config).map_err(|e| e.to_string()), "build")
        }
    };
    let engine = engine.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "[cachemind-serve] ready in {} ms ({source}): {} traces across {} shards, {} worker \
         threads",
        started.elapsed().as_millis(),
        engine.store().len(),
        engine.store().shard_count(),
        engine.num_threads()
    );

    if has(&args, "--load-driver") {
        let spec = LoadSpec {
            sessions: usize_flag(&args, "--sessions", LoadSpec::default().sessions),
            questions: usize_flag(&args, "--questions", LoadSpec::default().questions),
            scenarios,
            repeat_period: usize_flag(&args, "--repeat-period", 0),
        };
        // Socket mode drives a *running* server; the local engine then
        // only synthesizes questions and echoes configuration into the
        // report.
        let target = match &tcp_addr {
            Some(addr) => {
                eprintln!("[cachemind-serve] driving server at {addr} over tcp ...");
                match addr.to_socket_addrs().map(|mut resolved| resolved.next()) {
                    Ok(Some(resolved)) => LoadTarget::Tcp(resolved),
                    _ => {
                        eprintln!("error: cannot resolve server address {addr:?}");
                        std::process::exit(1);
                    }
                }
            }
            None => LoadTarget::InProcess,
        };
        let outcome = match run_load_driver(&engine, spec, target) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("error: load drive failed: {e}");
                std::process::exit(1);
            }
        };
        println!("{}", outcome.render(&engine));
        match &tcp_addr {
            // In socket mode the interesting stats live in the *server*:
            // fetch them in-band over the socket, exactly as any client
            // would.
            Some(addr) => write_remote_stats_json(&args, addr),
            None => write_stats_json(&args, &engine, "stdin"),
        }
        return;
    }

    // TCP server mode: serve the protocol on a socket while stdin stays
    // a control (and serving) channel. `exit`, `quit` or an in-band
    // shutdown line triggers the graceful drain; stdin EOF just parks.
    if let Some(addr) = tcp_addr {
        let engine = Arc::new(engine);
        let (max_conns, queue_cap, scope) =
            (net_config.max_connections, net_config.queue_capacity, net_config.session_scope);
        let server = match TcpServer::start(Arc::clone(&engine), addr.as_str(), net_config) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("error: cannot bind tcp listener on {addr}: {e}");
                std::process::exit(1);
            }
        };
        let local = server.local_addr();
        eprintln!(
            "[cachemind-serve] listening on {local} (tcp, {} workers, max {max_conns} \
             connections, queue {queue_cap}, session scope {scope})",
            engine.num_threads()
        );
        if let Some(path) = flag(&args, "--port-file") {
            if let Err(e) = std::fs::write(&path, format!("{local}\n")) {
                eprintln!("error: cannot write {path:?}: {e}");
                std::process::exit(1);
            }
        }
        let shutdown = server.shutdown_handle();
        let stdin_engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            // EOF without an exit request leaves the server running.
            if stdin_engine.serve_stdio(std::io::stdin().lock(), std::io::stdout())
                == StdioEnd::Stopped
            {
                shutdown.signal();
            }
        });
        server.wait();
        eprintln!("[cachemind-serve] tcp server drained and stopped");
        write_stats_json(&args, &engine, "tcp");
        return;
    }

    // Event loop: one JSON request per stdin line, one JSON response per
    // stdout line, until EOF, exit/quit or a shutdown line. Parse errors
    // come back in-band so every line answers.
    engine.serve_stdio(std::io::stdin().lock(), std::io::stdout());

    // On shutdown, optionally dump the engine's full stats object — the
    // same shape a {"stats": true} line returns in-band.
    write_stats_json(&args, &engine, "stdin");
}

/// Writes the engine's stats object (tagged with the serving transport,
/// the shape a `{"stats": true}` line answers with) to the
/// `--stats-json` path, when one was given.
fn write_stats_json(args: &[String], engine: &ServeEngine, transport: &str) {
    if let Some(path) = flag(args, "--stats-json") {
        if let Err(e) =
            std::fs::write(&path, engine.stats_value_tagged(transport).to_string() + "\n")
        {
            eprintln!("error: cannot write {path:?}: {e}");
            std::process::exit(1);
        }
        eprintln!("[cachemind-serve] wrote stats snapshot to {path}");
    }
}

/// Fetches a running server's stats in-band over the socket and writes
/// the response line to the `--stats-json` path, when one was given.
fn write_remote_stats_json(args: &[String], addr: &str) {
    let Some(path) = flag(args, "--stats-json") else { return };
    let fetch = || -> std::io::Result<String> {
        use std::io::Read as _;
        let mut stream = std::net::TcpStream::connect(addr)?;
        stream.write_all(b"{\"stats\": true}\n")?;
        stream.flush()?;
        stream.shutdown(std::net::Shutdown::Write)?;
        let mut response = String::new();
        std::io::BufReader::new(stream).read_to_string(&mut response)?;
        Ok(response.trim().to_string())
    };
    match fetch() {
        Ok(stats) => {
            if let Err(e) = std::fs::write(&path, stats + "\n") {
                eprintln!("error: cannot write {path:?}: {e}");
                std::process::exit(1);
            }
            eprintln!("[cachemind-serve] wrote server stats snapshot to {path}");
        }
        Err(e) => {
            eprintln!("error: cannot fetch stats from {addr}: {e}");
            std::process::exit(1);
        }
    }
}
