//! # cachemind-serve
//!
//! The CacheMind serving subsystem: a multi-session front-end over one
//! shared trace database, where every request is one protocol line.
//!
//! * [`engine::ServeEngine`] — the session manager. Many concurrent
//!   [`ChatSession`](cachemind_core::chat::ChatSession)s share a single
//!   `Arc`'d [`TraceDatabase`](cachemind_tracedb::TraceDatabase), built in
//!   process or opened from a snapshot;
//!   [`ServeEngine::serve_line`] parses, dispatches and renders one
//!   request line, the one path behind every transport, and
//!   [`ServeEngine::serve_stdio`] runs it over a line stream.
//! * [`protocol`] — the newline-delimited JSON wire format
//!   ([`AskRequest`] / [`AskResponse`], plus the session-lifecycle
//!   [`Request::Close`]) with in-band errors and
//!   per-request timing. The full v1/v2 specification lives in
//!   `docs/PROTOCOL.md`.
//! * [`load`] — the synthetic load driver behind
//!   `cachemind-serve --load-driver`: replays N sessions × M questions as
//!   protocol lines, in process or over a real TCP socket (`--tcp`), and
//!   prints a deterministic JSON report. Timing comes from the server's
//!   own metrics (`{"stats": true}`, `--stats-json`).
//! * [`net`] — the TCP transport behind `cachemind-serve --tcp`: an
//!   acceptor thread, a bounded connection table with per-connection
//!   reader/writer threads, a bounded work queue feeding the
//!   `SERVE_NUM_THREADS` worker pool, in-band `overloaded` admission
//!   control, per-connection session ownership, and graceful shutdown.
//!
//! Determinism is the backbone: answers, transcripts and the aggregate
//! report are byte-identical for any transport and worker count, which is
//! what the `serve determinism` integration tests and the CI smoke steps
//! diff.
//!
//! # Quickstart
//!
//! ```rust
//! use cachemind_serve::engine::{ServeConfig, ServeEngine};
//! use cachemind_tracedb::TraceDatabaseBuilder;
//!
//! let db = TraceDatabaseBuilder::quick_demo().shards(3).try_build().unwrap();
//! let engine = ServeEngine::over(db, ServeConfig::default());
//! let line = r#"{"question": "What is the overall miss rate of the mcf workload under LRU?"}"#;
//! let outcome = engine.serve_line(line, false, "stdin", None);
//! assert_eq!(outcome.opened_session, Some(1));
//! assert!(outcome.rendered.contains("\"answer\""));
//! ```

pub mod engine;
pub mod load;
pub mod net;
pub mod protocol;

pub use engine::{LineOutcome, ServeConfig, ServeEngine, StdioEnd};
pub use load::{run_load_driver, LoadOutcome, LoadSpec, LoadTarget};
pub use net::{NetConfig, SessionScope, TcpServer};
pub use protocol::{AskRequest, AskResponse, ProtocolError, Request};
