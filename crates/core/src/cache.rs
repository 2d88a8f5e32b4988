//! The whole-answer cache: `(db fingerprint, canonical selector,
//! question text)` → a stored reply.
//!
//! Answering is a pure function of `(store, question, selector)`
//! — the property the serve layer's `answers_fnv64` checksums already
//! prove — so replaying a stored reply is indistinguishable from
//! recomputing it. The cache key ([`AnswerCache::key`]) captures every
//! input of that function:
//!
//! * **db fingerprint** — a wide-FNV digest over the store's trace keys,
//!   metadata, and row counts (the same [`fnv64_wide`] machinery the
//!   snapshot module uses for segment checksums). Stores are immutable
//!   once built, so the fingerprint identifies the database; a rebuilt or
//!   different database changes the fingerprint and thereby invalidates
//!   every stale entry *by key*, with no explicit flush.
//! * **canonical selector** — the query's
//!   [`ScenarioSelector`](cachemind_sim::scenario::ScenarioSelector) in its
//!   canonical text form (the serve layer canonicalizes preset machine
//!   names before asking, so aliases of one scope share entries).
//! * **question text** — verbatim.
//!
//! The stored value is generic: the serve engine, which owns the cache,
//! stores only the reply it renders (text, verdict and cited labels).
//! The `Answer` default type and [`AnswerCache::new`] exist only because
//! the benchmark's pipeline copy still caches whole [`Answer`]s; they go
//! when that copy is deleted.
//!
//! Lookups and inserts count into the owning [`MetricsRegistry`] under
//! the `retrieval.cache.*` names, which is how serve's `{"stats":true}`
//! response reports hit rates. The map is sharded eight ways by key hash
//! so concurrent serve workers do not contend on one lock.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use cachemind_obs::{names, Counter, MetricsRegistry};
use cachemind_sim::hash::fnv64;
use cachemind_tracedb::snapshot::fnv64_wide;
use cachemind_tracedb::store::TraceStore;

use crate::system::{Answer, Query};

/// Number of independently locked map shards.
const SHARDS: usize = 8;

/// A sharded, metrics-instrumented whole-answer cache of `V` values (see
/// the module docs for the key anatomy and the `Answer` default).
#[derive(Debug)]
pub struct AnswerCache<V = Answer> {
    shards: [Mutex<HashMap<String, V>>; SHARDS],
    fingerprint: OnceLock<u64>,
    hits: Counter,
    misses: Counter,
    inserts: Counter,
}

impl AnswerCache {
    /// An empty cache of whole [`Answer`]s, for the benchmark's pipeline
    /// copy only (see the module docs); every other caller names its
    /// value type and calls [`AnswerCache::in_registry`].
    pub fn new(metrics: &MetricsRegistry) -> Self {
        AnswerCache::in_registry(metrics)
    }
}

impl<V: Clone> AnswerCache<V> {
    /// An empty cache whose counters register into `metrics` under the
    /// `retrieval.cache.*` names.
    pub fn in_registry(metrics: &MetricsRegistry) -> Self {
        AnswerCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            fingerprint: OnceLock::new(),
            hits: metrics.counter(names::RETRIEVAL_CACHE_HITS),
            misses: metrics.counter(names::RETRIEVAL_CACHE_MISSES),
            inserts: metrics.counter(names::RETRIEVAL_CACHE_INSERTS),
        }
    }

    /// The store fingerprint, computed on first use and memoized: a
    /// [`fnv64_wide`] digest over every trace key, its metadata, and its
    /// row count, in ascending key order. One metadata-level pass — frames
    /// are not rehashed — so the first cached ask stays cheap even on
    /// large stores.
    pub fn fingerprint(&self, db: &dyn TraceStore) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut bytes = Vec::new();
            for entry in db.entries() {
                bytes.extend_from_slice(entry.id.key().as_bytes());
                bytes.push(0);
                bytes.extend_from_slice(entry.metadata.as_bytes());
                bytes.push(0);
                bytes.extend_from_slice(&(entry.frame.len() as u64).to_le_bytes());
            }
            fnv64_wide(&bytes)
        })
    }

    /// The key of `query` asked of `db`:
    /// `{fingerprint:016x}|{selector}|{question}`.
    pub fn key(&self, db: &dyn TraceStore, query: &Query) -> String {
        format!("{:016x}|{}|{}", self.fingerprint(db), query.selector, query.text)
    }

    fn shard(&self, key: &str) -> &Mutex<HashMap<String, V>> {
        &self.shards[(fnv64(key.as_bytes()) % SHARDS as u64) as usize]
    }

    /// Looks up a stored value, counting a hit or a miss.
    pub fn get(&self, key: &str) -> Option<V> {
        let found = self.shard(key).lock().expect("answer cache shard lock").get(key).cloned();
        match &found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        }
        found
    }

    /// Stores a value, counting the insert. Concurrent inserts under one
    /// key are benign: answering is deterministic, so both writers store
    /// byte-identical values.
    pub fn insert(&self, key: String, value: V) {
        self.shard(&key).lock().expect("answer cache shard lock").insert(key, value);
        self.inserts.inc();
    }

    /// Number of stored values across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("answer cache shard lock").len()).sum()
    }

    /// Whether the cache holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups that replayed a stored value.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Total lookups that fell through to the answering pipeline.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Total values stored after misses.
    pub fn inserts(&self) -> u64 {
        self.inserts.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_tracedb::TraceDatabaseBuilder;

    #[test]
    fn fingerprint_distinguishes_databases() {
        let registry = cachemind_obs::MetricsRegistry::new();
        let cache = AnswerCache::new(&registry);
        let a = TraceDatabaseBuilder::quick_demo().build();
        let fp_a = cache.fingerprint(&a);
        assert_eq!(cache.fingerprint(&a), fp_a, "memoized and stable");

        let other = AnswerCache::new(&registry);
        let b = TraceDatabaseBuilder::quick_demo().workloads(["mcf"]).build();
        assert_ne!(other.fingerprint(&b), fp_a, "different stores, different fingerprints");
    }
}
