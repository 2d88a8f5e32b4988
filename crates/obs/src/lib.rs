//! Workspace-wide telemetry: metrics registry, latency histograms, and
//! per-stage span timers.
//!
//! Every layer of the CacheMind workspace records into a
//! [`MetricsRegistry`]: monotonic [`Counter`]s, [`Gauge`]s, and log-scale
//! latency [`Histogram`]s fed by [`SpanTimer`]s. The design rules, in
//! order:
//!
//! 1. **Observability never perturbs deterministic outputs.** Metrics are
//!    side channels — wall-clock content only. Nothing recorded here may
//!    flow into an answer, a report's deterministic half, or any byte the
//!    thread-count determinism tests compare.
//! 2. **The hot path is lock-free.** Handles ([`Counter`], [`Gauge`],
//!    [`HistogramHandle`]) are registered once (one short mutex
//!    acquisition) and then increment/record through atomics only.
//!    Histograms additionally stripe their buckets across shards keyed by
//!    thread, so concurrent recorders do not contend on one cache line.
//! 3. **Merges are order- and partition-independent.** Histogram state is
//!    pure bucket counts; merging is bucket-wise addition, so any
//!    partition of the same recordings over any number of histograms (or
//!    shards, or threads) merges to the same snapshot.
//!
//! Two registry scopes exist:
//!
//! * **Owned registries** — e.g. one per `ServeEngine` — so a server's
//!   `stats` snapshot counts exactly its own traffic (and tests can assert
//!   exact totals without cross-test contamination).
//! * **The process-global registry** ([`global`]) — the default sink for
//!   library stages without an owner (sweep prepare/replay, trace-database
//!   build, snapshot save/verify), which `sweep_grid` reads back for its
//!   bench record.
//!
//! The canonical metric names live in [`names`]; the bucket layout and
//! span taxonomy are documented in `docs/OBSERVABILITY.md`.

pub mod histogram;
pub mod registry;
pub mod span;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, HistogramHandle, MetricsRegistry, MetricsSnapshot};
pub use span::SpanTimer;

/// Version stamp carried by every exported metrics snapshot
/// ([`MetricsSnapshot::to_value`]), so downstream consumers can detect
/// schema changes.
pub const METRICS_SNAPSHOT_VERSION: u64 = 1;

/// The canonical metric names recorded across the workspace — one
/// definition shared by the instrumented crates, the docs, and the tests.
/// Span histograms record elapsed wall-clock **microseconds**.
pub mod names {
    /// Sweep stage 1 (stream transform + scenario prepare), per grid run.
    pub const SWEEP_PREPARE: &str = "sweep.prepare";
    /// Sweep stage 2 (per-cell policy replay), per grid run.
    pub const SWEEP_REPLAY: &str = "sweep.replay";
    /// Counter: scenario-grid cells that reused an already-prepared
    /// stage-1 scenario instead of re-preparing (cells − triples per run).
    pub const SWEEP_PREPARE_REUSE: &str = "sweep.prepare.reuse_hits";
    /// One policy replay of one scenario cell, per cell (the per-cell
    /// latency histogram behind the per-run [`SWEEP_REPLAY`] span).
    pub const SWEEP_CELL_REPLAY: &str = "sweep.cell_replay";
    /// Sharded trace-database build (simulation + tabulation), per build.
    pub const TRACEDB_BUILD: &str = "tracedb.build";
    /// Snapshot encode + write (the save path), per save.
    pub const TRACEDB_SNAPSHOT_SAVE: &str = "tracedb.snapshot_save";
    /// Snapshot read + full checksum verification (lazy open path), per
    /// open.
    pub const TRACEDB_SNAPSHOT_VERIFY: &str = "tracedb.snapshot_verify";
    /// One trace frame's row decode on first touch, per decoded frame of a
    /// lazy snapshot store.
    pub const TRACEDB_LAZY_DECODE: &str = "tracedb.lazy_decode";
    /// Counter: shard segments whose entry headers lazy stores read.
    pub const TRACEDB_LAZY_DECODE_SEGMENTS: &str = "tracedb.lazy_decode_segments";
    /// Counter: trace frames whose rows lazy stores decoded.
    pub const TRACEDB_LAZY_DECODE_TRACES: &str = "tracedb.lazy_decode_traces";
    /// Ranger plan compilation, per retrieval.
    pub const RETRIEVAL_PLAN_COMPILE: &str = "retrieval.plan_compile";
    /// Ranger plan execution, per retrieval.
    pub const RETRIEVAL_PLAN_RUN: &str = "retrieval.plan_run";
    /// Counter: whole-answer cache lookups that replayed a stored answer.
    pub const RETRIEVAL_CACHE_HITS: &str = "retrieval.cache.hits";
    /// Counter: whole-answer cache lookups that fell through to the full
    /// answering pipeline.
    pub const RETRIEVAL_CACHE_MISSES: &str = "retrieval.cache.misses";
    /// Counter: answers stored into the whole-answer cache after a miss.
    pub const RETRIEVAL_CACHE_INSERTS: &str = "retrieval.cache.inserts";
    /// Request-line JSON parse in the serve event loop, per line.
    pub const SERVE_PARSE: &str = "serve.parse";
    /// One question answered through the serving pipeline, per request.
    pub const SERVE_ASK: &str = "serve.ask";
    /// Response rendering in the serve event loop, per line.
    pub const SERVE_RESPOND: &str = "serve.respond";
    /// Counter: protocol `question` (ask) requests.
    pub const SERVE_REQUESTS_ASK: &str = "serve.requests.ask";
    /// Counter: protocol `open` requests.
    pub const SERVE_REQUESTS_OPEN: &str = "serve.requests.open";
    /// Counter: protocol `close` requests.
    pub const SERVE_REQUESTS_CLOSE: &str = "serve.requests.close";
    /// Counter: protocol `stats` requests (snapshotted *before* the
    /// increment, so a stats response never counts itself).
    pub const SERVE_REQUESTS_STATS: &str = "serve.requests.stats";
    /// Counter prefix: in-band errors by `error_kind` — e.g.
    /// `serve.errors.unknown_session`.
    pub const SERVE_ERRORS_PREFIX: &str = "serve.errors.";
    /// Counter: sessions opened (any path: protocol, rounds, library).
    pub const SERVE_SESSIONS_OPENED: &str = "serve.sessions_opened";
    /// Counter: sessions closed by a `close` request or call.
    pub const SERVE_SESSIONS_CLOSED: &str = "serve.sessions_closed";
    /// Counter: sessions reaped by the idle-round horizon.
    pub const SERVE_SESSIONS_REAPED: &str = "serve.sessions_reaped";
    /// Gauge: sessions currently open (set when a snapshot is taken).
    pub const SERVE_SESSIONS_OPEN: &str = "serve.sessions_open";
    /// One connection accepted (admission check + handoff to its reader
    /// and writer threads), per accept.
    pub const SERVE_NET_ACCEPT: &str = "serve.net.accept";
    /// One request line framed off a TCP socket, per line.
    pub const SERVE_NET_READ: &str = "serve.net.read";
    /// One response line written + flushed to a TCP socket, per line.
    pub const SERVE_NET_WRITE: &str = "serve.net.write";
    /// Gauge: TCP connections currently open.
    pub const SERVE_NET_CONNECTIONS_OPEN: &str = "serve.net.connections_open";
    /// Counter: TCP connections admitted into the connection table.
    pub const SERVE_NET_CONNECTIONS_ACCEPTED: &str = "serve.net.connections_accepted";
    /// Counter: TCP connections refused at the door (`--max-connections`);
    /// each refusal is answered in-band with `error_kind:"overloaded"`
    /// before the socket closes.
    pub const SERVE_NET_CONNECTIONS_REJECTED: &str = "serve.net.connections_rejected";
    /// Counter: request lines refused because the bounded pending-request
    /// queue was full; each is answered in-band with
    /// `error_kind:"overloaded"` on its own connection.
    pub const SERVE_NET_QUEUE_REJECTED: &str = "serve.net.queue_rejected";
    /// Counter: request bytes read off TCP sockets (framed lines incl.
    /// the newline).
    pub const SERVE_NET_BYTES_IN: &str = "serve.net.bytes_in";
    /// Counter: response bytes written to TCP sockets (incl. the
    /// newline).
    pub const SERVE_NET_BYTES_OUT: &str = "serve.net.bytes_out";
    /// Counter: sessions reaped because their owning connection
    /// disconnected (`--session-scope conn`).
    pub const SERVE_NET_SESSIONS_REAPED: &str = "serve.net.sessions_reaped";
}

/// The process-global registry: the default sink for library stages that
/// have no owning component (sweep stages, trace-database builds, snapshot
/// I/O) and the source single-workload binaries read their bench timings
/// from. Owned components (the serve engine) use their own registry so
/// their snapshots count exactly their own traffic.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: std::sync::OnceLock<MetricsRegistry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("obs.test.global").add(2);
        assert!(global().snapshot().counter("obs.test.global") >= 2);
    }

    #[test]
    fn names_are_unique() {
        let all = [
            names::SWEEP_PREPARE,
            names::SWEEP_REPLAY,
            names::SWEEP_PREPARE_REUSE,
            names::SWEEP_CELL_REPLAY,
            names::TRACEDB_BUILD,
            names::TRACEDB_SNAPSHOT_SAVE,
            names::TRACEDB_SNAPSHOT_VERIFY,
            names::TRACEDB_LAZY_DECODE,
            names::TRACEDB_LAZY_DECODE_SEGMENTS,
            names::TRACEDB_LAZY_DECODE_TRACES,
            names::RETRIEVAL_PLAN_COMPILE,
            names::RETRIEVAL_PLAN_RUN,
            names::RETRIEVAL_CACHE_HITS,
            names::RETRIEVAL_CACHE_MISSES,
            names::RETRIEVAL_CACHE_INSERTS,
            names::SERVE_PARSE,
            names::SERVE_ASK,
            names::SERVE_RESPOND,
            names::SERVE_REQUESTS_ASK,
            names::SERVE_REQUESTS_OPEN,
            names::SERVE_REQUESTS_CLOSE,
            names::SERVE_REQUESTS_STATS,
            names::SERVE_SESSIONS_OPENED,
            names::SERVE_SESSIONS_CLOSED,
            names::SERVE_SESSIONS_REAPED,
            names::SERVE_SESSIONS_OPEN,
            names::SERVE_NET_ACCEPT,
            names::SERVE_NET_READ,
            names::SERVE_NET_WRITE,
            names::SERVE_NET_CONNECTIONS_OPEN,
            names::SERVE_NET_CONNECTIONS_ACCEPTED,
            names::SERVE_NET_CONNECTIONS_REJECTED,
            names::SERVE_NET_QUEUE_REJECTED,
            names::SERVE_NET_BYTES_IN,
            names::SERVE_NET_BYTES_OUT,
            names::SERVE_NET_SESSIONS_REAPED,
        ];
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }
}
