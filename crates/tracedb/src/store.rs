//! [`TraceStore`] — the query surface of the
//! [`TraceDatabase`](crate::database::TraceDatabase).
//!
//! Every read of the store goes through this trait; retrievers and the
//! CacheMind system layer are written against it. The trait is
//! object-safe (`&dyn TraceStore`) because the system layer holds an
//! `Arc<dyn TraceStore>` shared by many concurrent chat sessions.

use cachemind_sim::config::CacheConfig;
use cachemind_sim::hash::fnv64;
use cachemind_sim::scenario::ScenarioSelector;

use crate::database::{TraceEntry, TraceId};

/// Read access to a collection of stored traces.
///
/// Iteration order is part of the contract: [`TraceStore::trace_keys`] and
/// [`TraceStore::entries`] yield traces in ascending key order regardless of
/// physical layout, so everything computed over a store is deterministic.
///
/// Keys follow the qualified grammar of [`TraceId`]
/// (`<workload>_evictions_<policy>[@machine][+prefetcher]`); the
/// selector-filtered surface — [`TraceStore::select`],
/// [`TraceStore::get_scoped_resolved`], [`TraceStore::machines`],
/// [`TraceStore::prefetchers`] — scopes reads by a
/// [`ScenarioSelector`] so one multi-scenario store can answer
/// per-machine, per-prefetcher questions without its unscoped behaviour
/// changing at all.
pub trait TraceStore: std::fmt::Debug + Send + Sync {
    /// Looks up a trace by its `<workload>_evictions_<policy>` key.
    fn get(&self, key: &str) -> Option<&TraceEntry>;

    /// Looks up a trace by parsed id.
    fn get_id(&self, id: &TraceId) -> Option<&TraceEntry> {
        self.get(&id.key())
    }

    /// All trace keys, in ascending order.
    fn trace_keys(&self) -> Vec<String>;

    /// All entries, in ascending key order.
    fn entries<'a>(&'a self) -> Box<dyn Iterator<Item = &'a TraceEntry> + 'a>;

    /// Distinct workload names present, sorted.
    fn workloads(&self) -> Vec<String>;

    /// Distinct policy names present, sorted.
    fn policies(&self) -> Vec<String>;

    /// The LLC geometry the traces were produced under (if known).
    fn llc_config(&self) -> Option<&CacheConfig>;

    /// Number of stored traces.
    fn len(&self) -> usize;

    /// Whether the store holds no traces.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments a snapshot of the store splits its entries
    /// into. Only the load report and the ready banner read it; it stays
    /// on the trait because the benchmark crate's counting store overrides
    /// it.
    fn shard_count(&self) -> usize {
        1
    }

    /// The snapshot segment a trace key is (or would be) written to:
    /// [`shard_index`] of the key and [`TraceStore::shard_count`]. Nothing
    /// in the workspace calls it; it stays on the trait because the
    /// benchmark crate's counting store overrides it.
    fn shard_of(&self, key: &str) -> usize {
        shard_index(key, self.shard_count())
    }

    /// Distinct canonical machine labels present, sorted — one per machine
    /// the builder produced traces for.
    fn machines(&self) -> Vec<String> {
        let set: std::collections::BTreeSet<String> =
            self.entries().map(|e| e.machine.clone()).collect();
        set.into_iter().collect()
    }

    /// Distinct canonical prefetcher labels present, sorted (`"none"` for
    /// baseline entries, plus one label per prefetcher the builder
    /// transformed streams through).
    fn prefetchers(&self) -> Vec<String> {
        let set: std::collections::BTreeSet<String> =
            self.entries().map(|e| e.prefetcher.clone()).collect();
        set.into_iter().collect()
    }

    /// The entries a [`ScenarioSelector`] scopes to, in ascending key
    /// order: every selector axis that is set must match (workload and
    /// policy exactly, prefetcher by canonical label, machine by name or
    /// label — see [`ScenarioSelector::matches_machine`]).
    fn select<'a>(
        &'a self,
        selector: &ScenarioSelector,
    ) -> Box<dyn Iterator<Item = &'a TraceEntry> + 'a> {
        let selector = selector.clone();
        Box::new(self.entries().filter(move |e| {
            selector.matches(&e.id.workload, &e.machine, &e.prefetcher, &e.id.policy)
        }))
    }

    /// Looks up the trace for `(workload, policy)` within a *machine
    /// scope*: machine + prefetcher, with workload and policy cleared (see
    /// [`ScenarioSelector::machine_scope`]; the id already names the pair).
    /// A scope whose workload/policy halves are still set would also
    /// filter the linear-scan fallback by them, so callers resolve first;
    /// a multi-step plan resolves once per run and passes the scope to
    /// every branch.
    ///
    /// The unqualified primary-machine baseline entry wins when it
    /// satisfies the scope (so unscoped queries behave exactly as before);
    /// otherwise keyed qualified lookups are tried — the scope's machine
    /// value as a full canonical label and/or its prefetcher label,
    /// assembled into the qualified key shapes of [`TraceId::qualified`] —
    /// and only a scope naming a machine by *preset name* falls back to
    /// the linear in-scope scan (first match in ascending key order).
    /// A scope prefetcher of `"none"` selects the unqualified baseline
    /// entries, which carry that label. `None` when no entry for the pair
    /// lies in scope.
    fn get_scoped_resolved(&self, id: &TraceId, scope: &ScenarioSelector) -> Option<&TraceEntry> {
        let in_scope = |entry: &TraceEntry| {
            scope.matches_machine(&entry.machine)
                && scope.prefetcher.as_deref().is_none_or(|p| p == entry.prefetcher)
        };
        if let Some(entry) = self.get_id(id) {
            if in_scope(entry) {
                return Some(entry);
            }
        }
        // Keyed fast paths: qualified keys assembled from the scope. The
        // builder writes no `+none` qualification, so a "none" scope
        // prefetcher maps to the unqualified baseline key shapes.
        let machine = scope.machine.as_deref();
        let prefetcher = scope.prefetcher.as_deref().filter(|p| *p != "none");
        let pairs = [(machine, prefetcher), (machine, None), (None, prefetcher)];
        for (i, &(m, p)) in pairs.iter().enumerate() {
            // Skip the unqualified shape (already tried above) and any
            // pair equal to an earlier one (a single-axis scope collapses
            // two of the three shapes into the same key).
            if (m.is_none() && p.is_none()) || pairs[..i].contains(&(m, p)) {
                continue;
            }
            let candidate = TraceId::qualified(&id.workload, &id.policy, m, p);
            if candidate == *id {
                continue;
            }
            if let Some(entry) = self.get_id(&candidate) {
                if in_scope(entry) {
                    return Some(entry);
                }
            }
        }
        self.select(scope).find(|e| e.id.workload == id.workload && e.id.policy == id.policy)
    }
}

impl<T: TraceStore + ?Sized> TraceStore for &T {
    fn get(&self, key: &str) -> Option<&TraceEntry> {
        (**self).get(key)
    }
    fn trace_keys(&self) -> Vec<String> {
        (**self).trace_keys()
    }
    fn entries<'a>(&'a self) -> Box<dyn Iterator<Item = &'a TraceEntry> + 'a> {
        (**self).entries()
    }
    fn workloads(&self) -> Vec<String> {
        (**self).workloads()
    }
    fn policies(&self) -> Vec<String> {
        (**self).policies()
    }
    fn llc_config(&self) -> Option<&CacheConfig> {
        (**self).llc_config()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn shard_count(&self) -> usize {
        (**self).shard_count()
    }
    fn shard_of(&self, key: &str) -> usize {
        (**self).shard_of(key)
    }
}

/// The deterministic snapshot segment assignment: [`fnv64`] over the trace
/// key, reduced modulo the segment count. A pure function of
/// `(key, shards)` — independent of build order, thread count, and
/// insertion history.
pub fn shard_index(key: &str, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    (fnv64(key.as_bytes()) % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for shards in [1usize, 2, 3, 8, 64] {
            for key in ["mcf_evictions_lru", "lbm_evictions_belady", ""] {
                let a = shard_index(key, shards);
                let b = shard_index(key, shards);
                assert_eq!(a, b, "assignment must be pure");
                assert!(a < shards);
            }
        }
    }

    #[test]
    fn shard_index_spreads_keys() {
        // With enough keys and several shards, more than one shard is used.
        let keys: Vec<String> = (0..32).map(|i| format!("w{i}_evictions_lru")).collect();
        let used: std::collections::BTreeSet<usize> =
            keys.iter().map(|k| shard_index(k, 4)).collect();
        assert!(used.len() > 1, "keys all collapsed onto one shard: {used:?}");
    }
}
