//! The retriever interface shared by Sieve, Ranger and the dense baseline.

use std::collections::BTreeSet;

use cachemind_lang::context::{Fact, RetrievedContext};
use cachemind_lang::intent::QueryIntent;
use cachemind_sim::addr::Pc;
use cachemind_tracedb::store::TraceStore;

/// A retrieval strategy: maps a parsed query to a context bundle over the
/// external trace database.
///
/// Retrievers are written against the [`TraceStore`] trait, the read
/// surface of the one store, [`TraceDatabase`] — whether it was built in
/// process or opened from a snapshot.
///
/// [`TraceDatabase`]: cachemind_tracedb::database::TraceDatabase
pub trait Retriever: std::fmt::Debug {
    /// Stable retriever name (`"sieve"`, `"ranger"`, `"dense"`).
    fn name(&self) -> &'static str;

    /// Retrieves a context bundle for the query.
    fn retrieve(&self, db: &dyn TraceStore, intent: &QueryIntent) -> RetrievedContext;
}

/// The premise violation for a PC the asked trace does not hold, naming
/// the workloads whose traces do. The scan ranges over every workload and
/// policy but stays inside the intent's machine/prefetcher scope: a PC that
/// only exists on another machine is still absent from this one. When
/// `asked` is one of those workloads, the reason says the PC exists there
/// but never with the queried address.
pub(crate) fn absent_pc(
    db: &dyn TraceStore,
    intent: &QueryIntent,
    pc: Pc,
    asked: Option<&str>,
) -> Fact {
    let homes: BTreeSet<&str> = db
        .select(&intent.selector.machine_scope())
        .filter(|e| e.frame.contains_pc(pc))
        .map(|e| e.id.workload.as_str())
        .collect();
    let reason = if homes.is_empty() {
        format!("PC {pc} does not appear in any trace")
    } else if let Some(w) = asked.filter(|w| homes.contains(w)) {
        format!("PC {pc} exists in {w} but never with the queried address")
    } else {
        format!("PC {pc} appears only in {}", homes.into_iter().collect::<Vec<_>>().join(", "))
    };
    Fact::PremiseViolation { reason }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RangerRetriever, SieveRetriever};
    use cachemind_sim::config::MachineConfig;
    use cachemind_sim::scenario::ScenarioSelector;
    use cachemind_tracedb::{TraceDatabase, TraceDatabaseBuilder};
    use cachemind_workloads::Scale;

    fn db() -> TraceDatabase {
        TraceDatabaseBuilder::new()
            .workloads(["mcf"])
            .policies(["lru"])
            .machine(MachineConfig::preset("table2").expect("preset"))
            .scale(Scale::Tiny)
            .build()
    }

    #[test]
    fn a_pin_the_parser_rejects_answers_as_if_unpinned() {
        // "mcfs" is not a store name, so the parser leaves the workload
        // open; retrieval reads the parsed slots and must not re-admit it
        // as "mcf".
        let db = db();
        let parse = |q: &str, scope: &str| {
            let scope = ScenarioSelector::parse(scope).expect("scope parses");
            QueryIntent::parse_scoped(q, &["mcf"], &["lru"], &scope)
        };
        let retrievers: [&dyn Retriever; 2] = [&SieveRetriever::new(), &RangerRetriever::new()];
        for q in ["What is the miss rate under lru?", "Does PC 0x400000 hit or miss?"] {
            let pinned = parse(q, "mcfs@table2");
            assert_eq!(pinned.workload, None, "{q}");
            let unpinned = parse(q, "@table2");
            for retriever in retrievers {
                assert_eq!(
                    retriever.retrieve(&db, &pinned).facts,
                    retriever.retrieve(&db, &unpinned).facts,
                    "{} on {q:?}",
                    retriever.name()
                );
            }
        }
        // A pin naming a store workload still binds it.
        let bound = parse("What is the miss rate under lru?", "mcf@table2");
        assert!(!SieveRetriever::new().retrieve(&db, &bound).facts.is_empty());
    }
}
