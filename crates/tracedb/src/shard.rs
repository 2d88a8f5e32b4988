//! Shards: the segments a snapshot splits a store's entries into, and the
//! name the store had while it was split in memory too.
//!
//! [`TraceDatabase`] is the only store. It records a shard count (from
//! [`TraceDatabaseBuilder::shards`](crate::database::TraceDatabaseBuilder::shards)
//! or a snapshot header), and [`write_snapshot`](crate::snapshot::write_snapshot)
//! writes each entry to segment [`shard_index`](crate::store::shard_index)
//! of its key. The alias and [`TraceDatabase::into_unified`] are kept only
//! because the benchmark crate (`perfbench/`) still names them; both go
//! when the benchmark is rewired.

use crate::database::TraceDatabase;

/// The store, under its old name. Kept only for the benchmark crate.
pub type ShardedTraceDatabase = TraceDatabase;

impl TraceDatabase {
    /// Returns the database unchanged. Kept only for the benchmark crate,
    /// which still calls it on a built store.
    pub fn into_unified(self) -> TraceDatabase {
        self
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use crate::database::{TraceDatabase, TraceDatabaseBuilder, TraceEntry};
    use crate::snapshot::{read_snapshot, segment_keys, write_snapshot};
    use crate::store::{shard_index, TraceStore};

    fn sharded(n: usize) -> TraceDatabase {
        TraceDatabaseBuilder::quick_demo().shards(n).try_build().expect("valid names")
    }

    #[test]
    fn reads_compose_shards_into_one_key_space() {
        let s = read_snapshot(&write_snapshot(&sharded(3))).expect("snapshot loads");
        let flat = TraceDatabaseBuilder::quick_demo().shards(1).build();
        assert_eq!(s.shard_count(), 3);
        assert_eq!(s.len(), flat.len());
        assert_eq!(s.trace_keys(), flat.trace_keys());
        assert_eq!(s.workloads(), flat.workloads());
        assert_eq!(s.policies(), flat.policies());
        for key in s.trace_keys() {
            let a = s.get(&key).expect("segmented get");
            let b = flat.get(&key).expect("flat get");
            assert_eq!(a.metadata, b.metadata, "{key}");
        }
        // entries() iterates in ascending key order.
        let keys: Vec<String> = s.entries().map(|e| e.id.key()).collect();
        assert_eq!(keys, s.trace_keys());
    }

    #[test]
    fn name_sets_kept_on_insert_match_a_scan_of_the_entries() {
        let scan = |db: &TraceDatabase, name: fn(&TraceEntry) -> &str| -> Vec<String> {
            let names: BTreeSet<String> = db.entries().map(|e| name(e).to_owned()).collect();
            names.into_iter().collect()
        };
        let mut db = sharded(3);
        // Re-inserting a stored key replaces the entry, not the names.
        let again = db.entries().next().expect("demo entries").clone();
        db.insert(again);
        assert_eq!(db.workloads(), scan(&db, |e| &e.id.workload));
        assert_eq!(db.policies(), scan(&db, |e| &e.id.policy));
    }

    #[test]
    fn every_key_lives_in_its_assigned_shard() {
        let s = sharded(4);
        let segments = segment_keys(&write_snapshot(&s)).expect("snapshot verifies");
        assert_eq!(segments.len(), 4);
        let mut written = Vec::new();
        for (shard, keys) in segments.into_iter().enumerate() {
            for key in keys {
                assert_eq!(shard, shard_index(&key, 4), "{key} written to segment {shard}");
                assert_eq!(shard, s.shard_of(&key), "assignment must match the pure function");
                written.push(key);
            }
        }
        written.sort();
        assert_eq!(written, s.trace_keys(), "every key written to exactly one segment");
    }

    #[test]
    fn unification_recovers_the_monolithic_database() {
        let unified = sharded(5).into_unified();
        let flat = TraceDatabaseBuilder::quick_demo().build();
        assert_eq!(unified.trace_keys(), flat.trace_keys());
        assert_eq!(unified.llc_config(), flat.llc_config());
    }

    #[test]
    fn single_shard_degenerates_to_flat_layout() {
        let s = sharded(1);
        let segments = segment_keys(&write_snapshot(&s)).expect("snapshot verifies");
        assert_eq!(segments, vec![s.trace_keys()]);
    }
}
