//! Cross-layer check of the trace database against a fresh replay.
//!
//! `quick_demo` is built, written as a snapshot and opened lazily from the
//! bytes. For every stored trace the workload's Tiny stream is replayed
//! again under the trace's policy, and the opened store must hold exactly
//! the replay's records: one test over the builder, the row codec, the
//! lazy decode, the PC index and the per-PC summaries. The per-PC counts
//! it compares against are plain loops over the replay's records, so they
//! share no code with the summaries they check.

use std::collections::BTreeMap;

use cachemind_obs::MetricsRegistry;
use cachemind_policies::by_name as policy_by_name;
use cachemind_sim::addr::Pc;
use cachemind_sim::config::CacheConfig;
use cachemind_sim::replay::LlcReplay;
use cachemind_tracedb::prelude::*;
use cachemind_tracedb::snapshot::{write_snapshot, VerifiedSnapshot};
use cachemind_workloads::by_name as workload_by_name;
use cachemind_workloads::workload::Scale;

/// Accesses, hits, misses and evictions caused, per PC.
type Counts = (u64, u64, u64, u64);

#[test]
fn opened_snapshot_holds_a_fresh_replay_and_its_per_pc_counts() {
    // The LLC `quick_demo` configures; the opened store must report it too.
    let llc = CacheConfig::new("LLC", 5, 4, 6).with_latency(26).with_mshr(16);
    let bytes = write_snapshot(&TraceDatabaseBuilder::quick_demo().build());
    let db = VerifiedSnapshot::verify(bytes)
        .expect("a written snapshot verifies")
        .into_database(&MetricsRegistry::new())
        .expect("entry headers decode");
    assert_eq!(db.llc_config(), Some(&llc));
    assert!(!db.is_empty());

    for entry in db.entries() {
        let key = entry.id.key();
        assert_eq!((&entry.id.machine, &entry.id.prefetcher), (&None, &None), "{key}");
        let workload = workload_by_name(&entry.id.workload, Scale::Tiny).expect("known workload");
        let policy = policy_by_name(&entry.id.policy).expect("known policy");
        let report = LlcReplay::new(llc.clone(), &workload.accesses).run(policy);
        assert!(!report.records.is_empty(), "{key}");
        assert!(
            entry.frame.rows() == &report.records[..],
            "{key}: stored rows differ from the replay"
        );

        let mut counts: BTreeMap<Pc, Counts> = BTreeMap::new();
        for record in &report.records {
            let c = counts.entry(record.pc).or_default();
            c.0 += 1;
            if record.is_miss {
                c.2 += 1;
            } else {
                c.1 += 1;
            }
            if record.evicted_address.is_some() {
                c.3 += 1;
            }
        }
        assert_eq!(entry.frame.pcs(), counts.keys().copied().collect::<Vec<_>>(), "{key}");
        for (&pc, &expected) in &counts {
            let stats = &entry.frame.pc_summary(pc).expect("every replayed PC is indexed").stats;
            let got = (stats.accesses, stats.hits, stats.misses, stats.evictions_caused);
            assert_eq!(got, expected, "{key} PC {pc}: (accesses, hits, misses, evictions)");
        }
    }
}
