//! The TCP transport, pinned end to end — the in-process form of CI's
//! TCP smoke:
//!
//! * a snapshot-started server answers the socket-mode load driver
//!   byte-identically to the in-process stdin driver, for any worker
//!   count (`answers_fnv64` and the whole deterministic report agree);
//! * the full v1/v2 protocol (open / ask / stats / close) works over a
//!   raw socket, malformed lines answer in-band without tearing the
//!   connection down, and stats responses carry their transport and
//!   connection context;
//! * admission control answers `overloaded` in-band — a full connection
//!   table refuses new sockets with a protocol line, a full work queue
//!   refuses lines without dropping any, and both recover cleanly;
//! * graceful shutdown drains every in-flight line before the server
//!   exits — nothing is silently dropped;
//! * a long line framed across many socket reads and a short line behind
//!   it in the same write answer once each, in order;
//! * a line past the 1 MiB cap answers one `line_too_long` error, and the
//!   ask behind it and the server stay live;
//! * per-connection sessions are reaped on disconnect under
//!   `--session-scope conn` and survive it under `global`;
//! * after identical drives, the server's in-band stats equal the
//!   stdin engine's — one registry, whatever the transport.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cachemind_serve::engine::{ServeConfig, ServeEngine};
use cachemind_serve::load::{run_load_driver, LoadOutcome, LoadSpec, LoadTarget};
use cachemind_serve::net::{self, NetConfig, SessionScope, TcpServer};
use cachemind_tracedb::TraceDatabaseBuilder;
use serde_json::Value;

/// Drives `spec` in process through the engine's protocol-line path.
fn drive(engine: &ServeEngine, spec: LoadSpec) -> LoadOutcome {
    run_load_driver(engine, spec, LoadTarget::InProcess).expect("in-process drive")
}

const QUESTION: &str = "What is the overall miss rate of the mcf workload under LRU?";

fn engine(threads: usize) -> ServeEngine {
    let config = ServeConfig { threads: Some(threads), ..Default::default() };
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    ServeEngine::over(db, config)
}

fn start_server(threads: usize, config: NetConfig) -> TcpServer {
    TcpServer::start(Arc::new(engine(threads)), "127.0.0.1:0", config).expect("bind ephemeral")
}

/// A raw newline-JSON protocol client over one socket.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone read half"));
        Client { writer, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("write line");
        self.writer.flush().expect("flush line");
    }

    fn recv(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed while a response was expected");
        serde_json::from_str(line.trim()).expect("responses are valid JSON")
    }

    fn round_trip(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }

    fn ask(&mut self, session: u64) -> Value {
        self.round_trip(&format!("{{\"question\": \"{QUESTION}\", \"session\": {session}}}"))
    }
}

fn field<'a>(value: &'a Value, path: &[&str]) -> &'a Value {
    let mut current = value;
    for key in path {
        current = current.get(key).unwrap_or_else(|| panic!("missing {path:?} at {key}"));
    }
    current
}

fn count(value: &Value, path: &[&str]) -> u64 {
    field(value, path).as_u64().unwrap_or_else(|| panic!("{path:?} is not a u64"))
}

fn text<'a>(value: &'a Value, path: &[&str]) -> &'a str {
    field(value, path).as_str().unwrap_or_else(|| panic!("{path:?} is not a string"))
}

/// On the wire, success is the absence of the uniform error shape.
fn is_ok(value: &Value) -> bool {
    value.get("error_kind").is_none() && value.get("error").is_none()
}

fn temp_snapshot(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cachemind_{}_{}.snap", name, std::process::id()))
}

/// The aggregate answer digest a deterministic report pins.
fn answers_fnv64(report: &str) -> &str {
    let marker = "\"answers_fnv64\": \"";
    let start = report.find(marker).expect("report carries answers_fnv64") + marker.len();
    let end = report[start..].find('"').expect("digest is quoted");
    &report[start..start + end]
}

/// Polls a condition that a background teardown thread satisfies shortly
/// after a disconnect.
fn eventually(what: &str, mut check: impl FnMut() -> bool) {
    for _ in 0..200 {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

#[test]
fn tcp_driver_matches_stdin_byte_for_byte_across_worker_counts() {
    // Snapshot-started servers, exactly like CI's `--db-path` smoke.
    let path = temp_snapshot("tcp_identity");
    let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().expect("demo build");
    db.save(&path).expect("save snapshot");

    let spec = LoadSpec { sessions: 4, questions: 3, scenarios: vec![], repeat_period: 0 };
    let config = ServeConfig { threads: Some(1), ..Default::default() };
    let local = ServeEngine::from_snapshot(&path, config.clone()).expect("snapshot loads");
    let reference_outcome = drive(&local, spec.clone());
    assert_eq!(reference_outcome.errors(), 0);
    let reference = reference_outcome.render(&local);

    for threads in [1usize, 2, 8] {
        let served = ServeEngine::from_snapshot(
            &path,
            ServeConfig { threads: Some(threads), ..config.clone() },
        )
        .expect("snapshot loads");
        let server = TcpServer::start(Arc::new(served), "127.0.0.1:0", NetConfig::default())
            .expect("bind ephemeral");
        let outcome = run_load_driver(&local, spec.clone(), LoadTarget::Tcp(server.local_addr()))
            .expect("tcp drive");
        assert_eq!(outcome.errors(), 0, "{threads} workers");
        let report = outcome.render(&local);
        assert_eq!(
            answers_fnv64(&report),
            answers_fnv64(&reference),
            "answer digest diverged from the stdin drive at {threads} workers"
        );
        assert_eq!(
            report, reference,
            "tcp deterministic report diverged from stdin at {threads} workers"
        );
        // The report never says which transport carried it.
        assert!(!report.contains("transport"), "{report}");
        server.shutdown();
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn full_protocol_works_over_a_raw_socket() {
    let server = start_server(2, NetConfig::default());
    let mut client = Client::connect(server.local_addr());

    // v2 lifecycle: explicit open, ask in session, close.
    let opened = client.round_trip("{\"open\": true}");
    assert!(is_ok(&opened), "{opened:?}");
    let session = count(&opened, &["session"]);
    let answer = client.ask(session);
    assert!(is_ok(&answer), "{answer:?}");
    assert!(!text(&answer, &["answer"]).is_empty(), "{answer:?}");

    // A malformed line answers in-band and leaves the connection alive.
    let garbage = client.round_trip("this is not json");
    assert_eq!(text(&garbage, &["error_kind"]), "invalid_json", "{garbage:?}");
    let after = client.ask(session);
    assert!(is_ok(&after), "the connection survived the bad line: {after:?}");

    // Stats answer in-band, tagged with the transport and the asking
    // connection's identity.
    let stats = client.round_trip("{\"stats\": true}");
    assert_eq!(text(&stats, &["transport"]), "tcp", "{stats:?}");
    assert!(field(&stats, &["connection", "id"]).as_u64().is_some(), "{stats:?}");
    assert!(field(&stats, &["connection", "peer"]).as_str().is_some(), "{stats:?}");
    assert_eq!(count(&stats, &["errors", "by_kind", "invalid_json"]), 1, "{stats:?}");

    let closed = client.round_trip(&format!("{{\"close\": true, \"session\": {session}}}"));
    assert!(is_ok(&closed), "{closed:?}");
    server.shutdown();
}

#[test]
fn full_connection_table_refuses_in_band_and_recovers() {
    let server = start_server(1, NetConfig { max_connections: 1, ..NetConfig::default() });
    let addr = server.local_addr();

    let mut admitted = Client::connect(addr);
    let opened = admitted.round_trip("{\"open\": true}");
    assert!(is_ok(&opened), "{opened:?}");

    // The second socket is answered — not silently dropped — with the
    // uniform overloaded error, then closed.
    let mut refused = TcpStream::connect(addr).expect("connect over the limit");
    let mut rejection = String::new();
    refused.read_to_string(&mut rejection).expect("read rejection");
    let rejection: Value =
        serde_json::from_str(rejection.trim()).expect("rejections are protocol lines");
    assert!(!is_ok(&rejection), "{rejection:?}");
    assert_eq!(text(&rejection, &["error_kind"]), "overloaded", "{rejection:?}");

    // The admitted connection never noticed.
    let still = admitted.round_trip("{\"stats\": true}");
    assert_eq!(text(&still, &["transport"]), "tcp", "{still:?}");
    assert_eq!(count(&still, &["metrics", "counters", "serve.net.connections_rejected"]), 1);

    // Freeing the slot restores admission.
    drop(admitted);
    eventually("the connection slot to free", || server.connection_count() == 0);
    let mut next = Client::connect(addr);
    let welcome = next.round_trip("{\"open\": true}");
    assert!(is_ok(&welcome), "admission recovered: {welcome:?}");
    server.shutdown();
}

#[test]
fn overloaded_queue_answers_every_line_in_band() {
    // One worker and a two-slot queue under a 200-line burst: some lines
    // answer ok, some answer overloaded, every single one answers.
    let server = start_server(1, NetConfig { queue_capacity: 2, ..NetConfig::default() });
    let mut client = Client::connect(server.local_addr());

    const BURST: usize = 200;
    let mut burst = String::new();
    for _ in 0..BURST {
        burst.push_str("{\"stats\": true}\n");
    }
    client.writer.write_all(burst.as_bytes()).expect("write burst");
    client.writer.flush().expect("flush burst");

    let mut ok = 0usize;
    let mut overloaded = 0usize;
    for _ in 0..BURST {
        let response = client.recv();
        match response.get("error_kind").and_then(Value::as_str) {
            Some("overloaded") => overloaded += 1,
            Some(kind) => panic!("unexpected error kind {kind} in {response:?}"),
            None => {
                assert!(response.get("stats_version").is_some(), "{response:?}");
                ok += 1;
            }
        }
    }
    assert_eq!(ok + overloaded, BURST, "every line answered exactly once");

    // The connection recovers: the next line answers normally.
    let after = client.round_trip("{\"stats\": true}");
    assert!(after.get("stats_version").is_some(), "clean recovery after overload: {after:?}");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_in_flight_line() {
    let server = start_server(2, NetConfig::default());
    let mut client = Client::connect(server.local_addr());

    // A burst of asks with the shutdown request riding last: the server
    // must answer all of them, ack the shutdown, then close and exit.
    const ASKS: usize = 20;
    let mut burst = String::new();
    for _ in 0..ASKS {
        burst.push_str(&format!("{{\"question\": \"{QUESTION}\"}}\n"));
    }
    burst.push_str("{\"shutdown\": true}\n");
    client.writer.write_all(burst.as_bytes()).expect("write burst");
    client.writer.flush().expect("flush burst");

    let mut answers = 0usize;
    let mut acked = false;
    for _ in 0..ASKS + 1 {
        let response = client.recv();
        if response.get("shutdown").and_then(Value::as_bool) == Some(true) {
            acked = true;
        } else {
            assert!(is_ok(&response), "{response:?}");
            answers += 1;
        }
    }
    assert_eq!(answers, ASKS, "every in-flight ask drained before exit");
    assert!(acked, "the shutdown request was acknowledged in-band");

    // The socket now reads EOF and the server side has fully stopped.
    let mut rest = String::new();
    client.reader.read_to_string(&mut rest).expect("drain to EOF");
    assert!(rest.trim().is_empty(), "nothing after the drain: {rest:?}");
    server.wait();
}

#[test]
fn a_long_line_and_a_short_one_in_one_write_get_two_ordered_responses() {
    // One worker, so the stats line is served after the ask completes.
    let server = start_server(1, NetConfig::default());
    let mut client = Client::connect(server.local_addr());

    // A >64 KB ask line (JSON whitespace padding, so the ask itself stays
    // cheap) and a short stats line, in one write: the reader frames the
    // long line across many socket reads, then the short one.
    let padding = " ".repeat(70_000);
    let burst = format!("{{\"question\": \"{QUESTION}\"{padding}}}\n{{\"stats\": true}}\n");
    assert!(burst.len() > 64 * 1024);
    client.writer.write_all(burst.as_bytes()).expect("write burst");
    client.writer.flush().expect("flush burst");

    let answer = client.recv();
    assert!(is_ok(&answer), "{answer:?}");
    assert!(!text(&answer, &["answer"]).is_empty(), "the long line answered first: {answer:?}");
    let stats = client.recv();
    assert_eq!(count(&stats, &["requests", "ask"]), 1, "the short line answered second");
    assert_eq!(count(&stats, &["errors", "total"]), 0, "{stats:?}");

    // Exactly two responses: the connection then reads EOF.
    client.writer.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    client.reader.read_to_string(&mut rest).expect("drain to EOF");
    assert!(rest.is_empty(), "nothing after the two responses: {rest:?}");
    server.shutdown();
}

#[test]
fn an_over_long_line_is_one_error_and_the_connection_serves_on() {
    let server = start_server(1, NetConfig::default());
    let mut client = Client::connect(server.local_addr());

    // 2 MiB with no newline: the refusal arrives before the newline is
    // sent, so the reader did not wait for the end of the line (a reader
    // that did would trip the read timeout instead of hanging the test).
    let timeout = Some(Duration::from_secs(30));
    client.reader.get_ref().set_read_timeout(timeout).expect("read timeout");
    let chunk = vec![b'x'; 256 * 1024];
    for _ in 0..8 {
        client.writer.write_all(&chunk).expect("write long line");
    }
    client.writer.flush().expect("flush long line");
    let refused = client.recv();
    assert_eq!(text(&refused, &["error_kind"]), "line_too_long", "{refused:?}");

    // The newline ends the discarded line; the ask behind it is served.
    client.writer.write_all(b"\n").expect("end the long line");
    client.send(&format!("{{\"question\": \"{QUESTION}\"}}"));
    let answer = client.recv();
    assert!(is_ok(&answer), "{answer:?}");
    assert!(!text(&answer, &["answer"]).is_empty(), "{answer:?}");

    // The server is still live: the same connection and a fresh one both
    // answer, and the refusal was counted once.
    let stats = client.round_trip("{\"stats\": true}");
    assert_eq!(count(&stats, &["errors", "by_kind", "line_too_long"]), 1, "{stats:?}");
    assert_eq!(count(&stats, &["errors", "total"]), 1, "{stats:?}");
    let mut fresh = Client::connect(server.local_addr());
    let answer = fresh.round_trip(&format!("{{\"question\": \"{QUESTION}\"}}"));
    assert!(is_ok(&answer), "{answer:?}");

    // Exactly three responses on the first connection.
    client.writer.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut rest = String::new();
    client.reader.read_to_string(&mut rest).expect("drain to EOF");
    assert!(rest.is_empty(), "nothing after the three responses: {rest:?}");
    server.shutdown();
}

#[test]
fn send_shutdown_stops_a_server_remotely() {
    let server = start_server(1, NetConfig::default());
    let ack = net::send_shutdown(server.local_addr()).expect("shutdown round-trip");
    assert_eq!(ack, "{\"shutdown\":true}");
    server.wait();
}

#[test]
fn conn_scope_reaps_sessions_and_global_scope_keeps_them() {
    // conn scope: the sessions a connection opened die with it.
    let server =
        start_server(2, NetConfig { session_scope: SessionScope::Conn, ..NetConfig::default() });
    let mut client = Client::connect(server.local_addr());
    for _ in 0..3 {
        let opened = client.round_trip("{\"open\": true}");
        assert!(is_ok(&opened), "{opened:?}");
    }
    assert_eq!(server.engine().session_count(), 3);
    drop(client);
    eventually("conn-scoped sessions to be reaped", || server.engine().session_count() == 0);
    server.shutdown();

    // global scope: sessions outlive the connection and stay usable
    // from another one.
    let server =
        start_server(2, NetConfig { session_scope: SessionScope::Global, ..NetConfig::default() });
    let mut first = Client::connect(server.local_addr());
    let opened = first.round_trip("{\"open\": true}");
    let session = count(&opened, &["session"]);
    drop(first);
    eventually("the first connection to tear down", || server.connection_count() == 0);
    assert_eq!(server.engine().session_count(), 1, "global sessions survive disconnect");

    let mut second = Client::connect(server.local_addr());
    let answer = second.ask(session);
    assert!(is_ok(&answer), "the session answers from a new socket: {answer:?}");
    server.shutdown();
}

#[test]
fn tcp_and_stdin_drives_land_in_the_same_stats_registry() {
    // Identical drives, one per transport; global scope so no reaper
    // skews the session gauges. Both drivers send the same protocol
    // lines, so the request/error/session stats must agree exactly — it
    // is one engine registry either way.
    let spec = LoadSpec { sessions: 4, questions: 3, scenarios: vec![], repeat_period: 0 };

    let stdin_engine = engine(2);
    let stdin_outcome = drive(&stdin_engine, spec.clone());
    assert_eq!(stdin_outcome.errors(), 0);
    let stdin_stats = stdin_engine.stats_value();

    let server =
        start_server(2, NetConfig { session_scope: SessionScope::Global, ..NetConfig::default() });
    let driver = engine(2);
    let tcp_outcome =
        run_load_driver(&driver, spec, LoadTarget::Tcp(server.local_addr())).expect("tcp drive");
    assert_eq!(tcp_outcome.errors(), 0);

    // Read the server's stats the way any client would: in-band over the
    // socket. The response reflects the drive and never counts itself.
    let mut client = Client::connect(server.local_addr());
    let tcp_stats = client.round_trip("{\"stats\": true}");
    for section in ["requests", "errors", "sessions"] {
        assert_eq!(
            field(&tcp_stats, &[section]),
            field(&stdin_stats, &[section]),
            "the {section} stats diverged between transports"
        );
    }
    assert_eq!(text(&tcp_stats, &["transport"]), "tcp");
    server.shutdown();
}
