//! [`ShardedTraceDatabase`] — the trace store partitioned into
//! independently-built shards.
//!
//! The builder simulates every trace on the sweep engine and assigns each
//! entry to a shard with the deterministic [`shard_index`] function of its
//! key. Reads compose the shards back into a single ascending key space
//! behind the [`TraceStore`] surface, so retrieval, the system layer and
//! the serve layer cannot tell a sharded store from a monolithic one; the
//! shard count only shapes the snapshot's segments.

use std::collections::{BTreeMap, BTreeSet};

use cachemind_sim::config::CacheConfig;

use crate::database::{TraceDatabase, TraceEntry};
use crate::store::{shard_index, TraceStore};

/// A trace database physically split into shards.
///
/// Invariants maintained by construction:
///
/// * every trace key lives in exactly one shard, the one
///   `shard_index(key, shards.len())` names;
/// * `assignment` maps every stored key to its shard, in ascending key
///   order (it is the global index);
/// * all shards share the same LLC geometry.
#[derive(Debug, Clone, Default)]
pub struct ShardedTraceDatabase {
    shards: Vec<TraceDatabase>,
    assignment: BTreeMap<String, usize>,
    /// Distinct workload and policy names across all shards.
    workloads: BTreeSet<String>,
    policies: BTreeSet<String>,
}

impl ShardedTraceDatabase {
    /// Assembles a sharded database from prebuilt entries.
    ///
    /// Entries are routed to `shards.max(1)` shards by
    /// [`shard_index`]; later duplicates of a key replace earlier ones,
    /// matching [`TraceDatabase::insert`] semantics.
    pub fn from_entries(entries: Vec<TraceEntry>, shards: usize, llc: Option<CacheConfig>) -> Self {
        let n = shards.max(1);
        let mut parts: Vec<TraceDatabase> = (0..n)
            .map(|_| {
                let mut db = TraceDatabase::new();
                if let Some(cfg) = llc.clone() {
                    db.set_llc_config(cfg);
                }
                db
            })
            .collect();
        let mut assignment = BTreeMap::new();
        let (mut workloads, mut policies) = (BTreeSet::new(), BTreeSet::new());
        for entry in entries {
            workloads.insert(entry.id.workload.clone());
            policies.insert(entry.id.policy.clone());
            let key = entry.id.key();
            let shard = shard_index(&key, n);
            assignment.insert(key, shard);
            parts[shard].insert(entry);
        }
        ShardedTraceDatabase { shards: parts, assignment, workloads, policies }
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard, as a plain [`TraceDatabase`].
    pub fn shard(&self, index: usize) -> &TraceDatabase {
        &self.shards[index]
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[TraceDatabase] {
        &self.shards
    }

    /// The shard holding `key`, if the key is stored.
    pub fn shard_of_key(&self, key: &str) -> Option<usize> {
        self.assignment.get(key).copied()
    }

    /// Writes the database to `path` as a snapshot file.
    pub fn save(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        crate::snapshot::save_to_path(self, path.as_ref())
    }

    /// Merges all shards into a single monolithic [`TraceDatabase`],
    /// consuming the sharded store. The result is byte-for-byte the
    /// database the serial builder would have produced.
    pub fn into_unified(self) -> TraceDatabase {
        let mut out = TraceDatabase::new();
        let mut llc = None;
        for shard in self.shards {
            if llc.is_none() {
                llc = shard.llc_config().cloned();
            }
            for entry in shard.into_entries() {
                out.insert(entry);
            }
        }
        if let Some(cfg) = llc {
            out.set_llc_config(cfg);
        }
        out
    }
}

impl TraceStore for ShardedTraceDatabase {
    fn get(&self, key: &str) -> Option<&TraceEntry> {
        let shard = *self.assignment.get(key)?;
        self.shards[shard].get(key)
    }

    fn trace_keys(&self) -> Vec<String> {
        self.assignment.keys().cloned().collect()
    }

    fn entries<'a>(&'a self) -> Box<dyn Iterator<Item = &'a TraceEntry> + 'a> {
        Box::new(
            self.assignment.iter().filter_map(move |(key, shard)| self.shards[*shard].get(key)),
        )
    }

    fn workloads(&self) -> Vec<String> {
        self.workloads.iter().cloned().collect()
    }

    fn policies(&self) -> Vec<String> {
        self.policies.iter().cloned().collect()
    }

    fn llc_config(&self) -> Option<&CacheConfig> {
        self.shards.iter().find_map(|s| s.llc_config())
    }

    fn len(&self) -> usize {
        self.assignment.len()
    }

    fn shard_count(&self) -> usize {
        self.shards.len().max(1)
    }

    fn shard_of(&self, key: &str) -> usize {
        shard_index(key, self.shards.len().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TraceDatabaseBuilder;

    fn sharded(n: usize) -> ShardedTraceDatabase {
        TraceDatabaseBuilder::quick_demo().shards(n).try_build_sharded().expect("valid names")
    }

    #[test]
    fn reads_compose_shards_into_one_key_space() {
        let s = sharded(3);
        let flat = TraceDatabaseBuilder::quick_demo().build();
        assert_eq!(s.len(), flat.len());
        assert_eq!(s.trace_keys(), flat.trace_ids().map(str::to_owned).collect::<Vec<_>>());
        assert_eq!(TraceStore::workloads(&s), flat.workloads());
        assert_eq!(TraceStore::policies(&s), flat.policies());
        for key in s.trace_keys() {
            let a = TraceStore::get(&s, &key).expect("sharded get");
            let b = flat.get(&key).expect("flat get");
            assert_eq!(a.metadata, b.metadata, "{key}");
        }
        // entries() iterates in ascending key order.
        let keys: Vec<String> = TraceStore::entries(&s).map(|e| e.id.key()).collect();
        assert_eq!(keys, s.trace_keys());
    }

    #[test]
    fn name_sets_kept_on_insert_match_a_scan_of_the_entries() {
        let scan = |store: &dyn TraceStore, name: fn(&TraceEntry) -> &str| -> Vec<String> {
            let names: BTreeSet<String> = store.entries().map(|e| name(e).to_owned()).collect();
            names.into_iter().collect()
        };
        let s = sharded(3);
        let mut flat = s.clone().into_unified();
        // Re-inserting a stored key replaces the entry, not the names.
        let again = flat.entries().next().expect("demo entries").clone();
        flat.insert(again);
        for store in [&s as &dyn TraceStore, &flat] {
            assert_eq!(store.workloads(), scan(store, |e| &e.id.workload));
            assert_eq!(store.policies(), scan(store, |e| &e.id.policy));
        }
    }

    #[test]
    fn every_key_lives_in_its_assigned_shard() {
        let s = sharded(4);
        for key in s.trace_keys() {
            let shard = s.shard_of_key(&key).expect("assigned");
            assert_eq!(shard, s.shard_of(&key), "assignment must match the pure function");
            assert!(s.shard(shard).get(&key).is_some(), "{key} missing from shard {shard}");
            for (i, other) in s.shards().iter().enumerate() {
                if i != shard {
                    assert!(other.get(&key).is_none(), "{key} duplicated into shard {i}");
                }
            }
        }
    }

    #[test]
    fn unification_recovers_the_monolithic_database() {
        let unified = sharded(5).into_unified();
        let flat = TraceDatabaseBuilder::quick_demo().build();
        assert_eq!(unified.trace_ids().collect::<Vec<_>>(), flat.trace_ids().collect::<Vec<_>>());
        assert_eq!(unified.llc_config(), flat.llc_config());
    }

    #[test]
    fn single_shard_degenerates_to_flat_layout() {
        let s = sharded(1);
        assert_eq!(s.num_shards(), 1);
        assert_eq!(s.shard(0).len(), s.len());
    }
}
