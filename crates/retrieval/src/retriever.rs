//! The retriever interface shared by Sieve, Ranger and the dense baseline.

use cachemind_lang::context::RetrievedContext;
use cachemind_lang::intent::QueryIntent;
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

/// Resolves the (workload, policy) pair an intent refers to, against the
/// database's vocabulary, with fuzzy ("semantic") matching for near-miss
/// names. Slots the question text leaves open fall back to the
/// intent's scenario selector (a session-pinned or inline `@` scope)
/// before resolution, so a scoped query binds like an explicit one.
/// Returns `None` for a slot neither the query nor its scope pins down.
pub fn resolve_trace_slots(
    db: &dyn TraceStore,
    intent: &QueryIntent,
) -> (Option<String>, Option<String>) {
    let workloads = db.workloads();
    let policies = db.policies();
    let resolve = |want: Option<String>, vocab: &[String]| -> Option<String> {
        let w = want?;
        if vocab.contains(&w) {
            return Some(w);
        }
        // Prefix / containment fallback for morphological variants
        // ("astar's", "belady-opt").
        vocab.iter().find(|v| w.starts_with(v.as_str()) || v.starts_with(&w)).cloned()
    };
    (
        resolve(intent.workload.clone().or_else(|| intent.selector.workload.clone()), &workloads),
        resolve(intent.policy.clone().or_else(|| intent.selector.policy.clone()), &policies),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_lang::intent::QueryIntent;
    use cachemind_tracedb::{TraceDatabase, TraceDatabaseBuilder};
    use cachemind_workloads::Scale;

    fn db() -> TraceDatabase {
        TraceDatabaseBuilder::new().workloads(["mcf"]).policies(["lru"]).scale(Scale::Tiny).build()
    }

    #[test]
    fn exact_slots_resolve() {
        let db = db();
        let i = QueryIntent::parse("miss rate for mcf under lru", &["mcf"], &["lru"]);
        let (w, p) = resolve_trace_slots(&db, &i);
        assert_eq!(w.as_deref(), Some("mcf"));
        assert_eq!(p.as_deref(), Some("lru"));
    }

    #[test]
    fn semantic_fallback_matches_prefixes() {
        let db = db();
        // "mcfs" is not in the vocabulary; semantic matching recovers it.
        let mut i = QueryIntent::parse("miss rate under lru", &["mcf"], &["lru"]);
        i.workload = Some("mcfs".to_owned());
        let (w, _) = resolve_trace_slots(&db, &i);
        assert_eq!(w.as_deref(), Some("mcf"));
    }
}
