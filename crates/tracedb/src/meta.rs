//! Trace-level metadata strings — the paper's "Cache Performance Summary".
//!
//! The paper stores whole-trace statistics as a *single free-form string*
//! that downstream retrievers parse with string matching. We generate the
//! same format and provide the matching extraction helpers.

use cachemind_sim::replay::ReplayReport;

use crate::database::TraceEntry;

/// Renders the paper-format metadata string for a replay.
///
/// Format (from §3.3/§4.3):
///
/// ```text
/// Cache Performance Summary: 140704 total accesses, 133542 total misses,
/// 94.91% miss rate, 100.00% capacity misses, 0.00% conflict misses,
/// 133478 total evictions, 87085 (65.24%) wrong evictions where evicted
/// line has lower reuse distance. The correlation between accessed address
/// recency and cache misses is 0.18.
/// ```
pub fn render(report: &ReplayReport) -> String {
    let stats = &report.stats;
    let classified = report.capacity_misses + report.conflict_misses;
    let (cap_pct, conf_pct) = if classified == 0 {
        (0.0, 0.0)
    } else {
        (
            report.capacity_misses as f64 * 100.0 / classified as f64,
            report.conflict_misses as f64 * 100.0 / classified as f64,
        )
    };
    let wrong_pct = if stats.evictions == 0 {
        0.0
    } else {
        report.wrong_evictions as f64 * 100.0 / stats.evictions as f64
    };
    format!(
        "Cache Performance Summary: {} total accesses, {} total misses, {:.2}% miss rate, \
         {:.2}% capacity misses, {:.2}% conflict misses, {} compulsory misses, \
         {} total evictions, {} ({:.2}%) wrong evictions where evicted line has lower \
         reuse distance. The correlation between accessed address recency and cache \
         misses is {:.2}.",
        stats.accesses,
        stats.misses,
        stats.miss_rate() * 100.0,
        cap_pct,
        conf_pct,
        report.compulsory_misses,
        stats.evictions,
        report.wrong_evictions,
        wrong_pct,
        report.recency_miss_correlation(),
    )
}

/// Renders the paper-format metadata string plus the scenario sentence:
/// which machine the trace was produced on and the model-estimated IPC of
/// the replay. Retrieval plans and serve answers cite the IPC through
/// [`extract_ipc`], and the machine through [`ipc_citation`].
pub fn render_scenario(report: &ReplayReport, machine_label: &str, ipc: f64) -> String {
    format!(
        "{} Simulated on machine {machine_label} with an estimated IPC of {ipc:.6}.",
        render(report)
    )
}

/// Renders the scenario metadata of a *prefetcher-qualified* trace: the
/// [`render_scenario`] string plus the prefetcher sentence — which hardware
/// prefetcher rewrote the stream before replay and how well it did
/// (accuracy = useful fills / fills, coverage = covered fraction of
/// would-be demand misses; both in `[0, 1]` here, rendered as percent).
///
/// Baseline (`none`-prefetcher) traces keep the [`render_scenario`] form
/// byte-for-byte, so a database without extra prefetchers is identical to
/// what earlier builders produced. The accuracy and coverage percentages
/// read back through [`extract_percent`] (`extract_percent(meta,
/// "accuracy")`, `extract_percent(meta, "coverage")`).
pub fn render_scenario_prefetched(
    report: &ReplayReport,
    machine_label: &str,
    prefetcher_label: &str,
    ipc: f64,
    accuracy: f64,
    coverage: f64,
) -> String {
    format!(
        "{} Hardware prefetcher {prefetcher_label} was active with {:.2}% accuracy and \
         {:.2}% coverage.",
        render_scenario(report, machine_label, ipc),
        accuracy * 100.0,
        coverage * 100.0,
    )
}

/// The citation phrase scoped single-trace IPC facts use: `estimated IPC
/// of <workload> under <policy> on machine <label>`, extended with
/// `with prefetcher <label>` when the entry is prefetcher-qualified (its
/// prefetcher is not `"none"`).
///
/// This is the **one** definition of the phrase: both retrievers (Sieve's
/// IPC arm, Ranger's `WorkloadIpc` plan) render it, and the serve layer
/// resolves the cited machine/prefetcher of a scoped answer by matching
/// the literal `prefetcher <label>` substring — a shared helper keeps the
/// three crates from drifting out of sync.
pub fn ipc_citation(workload: &str, policy: &str, entry: &TraceEntry) -> String {
    let machine = &entry.machine;
    match entry.prefetcher.as_str() {
        "none" => format!("estimated IPC of {workload} under {policy} on machine {machine}"),
        prefetcher => format!(
            "estimated IPC of {workload} under {policy} on machine {machine} with prefetcher \
             {prefetcher}"
        ),
    }
}

/// The scenario suffix comparison facts append to their metric when the
/// grounded entry is prefetcher-qualified: `" on machine <label> with
/// prefetcher <label>"`, or `""` for baseline entries — so cross-policy
/// and cross-workload rankings read from qualified traces cite the
/// scenario (and serve responses can report it) while baseline
/// comparisons keep their legacy metric strings byte-for-byte.
pub fn scenario_citation_suffix(entry: &TraceEntry) -> String {
    match entry.prefetcher.as_str() {
        "none" => String::new(),
        prefetcher => format!(" on machine {} with prefetcher {prefetcher}", entry.machine),
    }
}

/// Extracts the estimated IPC from the scenario sentence.
///
/// An absent sentence is `None` quietly, while a present-but-unparseable
/// IPC token trips a debug assertion: upstream only [`render_scenario`]
/// writes the marker, so a malformed form means a writer bug, not a
/// missing sentence. Release builds still return `None`.
pub fn extract_ipc(metadata: &str) -> Option<f64> {
    let marker = "estimated IPC of ";
    let pos = metadata.find(marker)? + marker.len();
    let rest = &metadata[pos..];
    let token: String =
        rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-').collect();
    // The sentence ends with a period, which the scan captures.
    let parsed = token.trim_end_matches('.').parse().ok();
    debug_assert!(
        parsed.is_some(),
        "malformed scenario sentence: {marker:?} not followed by a numeric IPC in {metadata:?}"
    );
    parsed
}

/// Extracts the first number appearing before `label` in `metadata`
/// (e.g. `extract_count(meta, "total misses")`).
pub fn extract_count(metadata: &str, label: &str) -> Option<u64> {
    let pos = metadata.find(label)?;
    let prefix = &metadata[..pos];
    let token = prefix.split_whitespace().last()?;
    token.replace(',', "").parse().ok()
}

/// Extracts the percentage appearing before `label`
/// (e.g. `extract_percent(meta, "miss rate")` -> `94.91`).
pub fn extract_percent(metadata: &str, label: &str) -> Option<f64> {
    let pos = metadata.find(label)?;
    let prefix = &metadata[..pos];
    let token = prefix.split_whitespace().last()?;
    token.trim_end_matches('%').parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_sim::stats::CacheStats;

    fn report() -> ReplayReport {
        let stats = CacheStats {
            accesses: 140_704,
            misses: 133_542,
            hits: 140_704 - 133_542,
            evictions: 133_478,
            ..Default::default()
        };
        ReplayReport {
            policy: "lru".to_owned(),
            records: Vec::new(),
            stats,
            wrong_evictions: 87_085,
            capacity_misses: 133_542,
            conflict_misses: 0,
            compulsory_misses: 0,
            prefetch_fills: 0,
            useful_prefetches: 0,
        }
    }

    #[test]
    fn renders_paper_shape() {
        let m = render(&report());
        assert!(m.starts_with("Cache Performance Summary:"));
        assert!(m.contains("140704 total accesses"));
        assert!(m.contains("133542 total misses"));
        assert!(m.contains("94.91% miss rate"));
        assert!(m.contains("100.00% capacity misses"));
        assert!(m.contains("0.00% conflict misses"));
        assert!(m.contains("87085 (65.24%) wrong evictions"));
    }

    #[test]
    fn extraction_round_trips() {
        let m = render(&report());
        assert_eq!(extract_count(&m, "total accesses"), Some(140_704));
        assert_eq!(extract_count(&m, "total misses"), Some(133_542));
        assert_eq!(extract_count(&m, "total evictions"), Some(133_478));
        assert_eq!(extract_percent(&m, "miss rate"), Some(94.91));
        assert_eq!(extract_percent(&m, "capacity misses"), Some(100.0));
    }

    #[test]
    fn extraction_handles_missing_labels() {
        assert_eq!(extract_count("no numbers here", "total misses"), None);
        assert_eq!(extract_percent("", "miss rate"), None);
        assert_eq!(extract_ipc("no scenario sentence"), None);
    }

    // A present-but-malformed scenario sentence is a writer bug: the IPC
    // extractor trips a debug assertion instead of quietly degrading into
    // "no scenario" behaviour. One test per malformed form.

    #[test]
    #[should_panic(expected = "malformed scenario sentence")]
    #[cfg(debug_assertions)]
    fn non_numeric_ipc_trips_debug_assertion() {
        // Marker present, but the IPC token is not a number.
        let _ = extract_ipc("... with an estimated IPC of fast.");
    }

    #[test]
    #[should_panic(expected = "malformed scenario sentence")]
    #[cfg(debug_assertions)]
    fn empty_ipc_token_trips_debug_assertion() {
        // Marker present, the sentence ends before any digits.
        let _ = extract_ipc("... with an estimated IPC of .");
    }

    #[test]
    fn absent_scenario_sentence_stays_quietly_none() {
        // No marker at all: not a writer bug, just a pre-scenario trace.
        assert_eq!(extract_ipc("Cache Performance Summary: 1 total accesses."), None);
    }

    #[test]
    fn prefetcher_sentence_round_trips() {
        let m = render_scenario_prefetched(
            &report(),
            "table2@llc2048x16+dram160",
            "stride4",
            0.813402,
            0.9371,
            0.8812,
        );
        assert!(m.contains("Simulated on machine table2@llc2048x16+dram160 "));
        assert!(m.contains("Hardware prefetcher stride4 was active"));
        assert_eq!(extract_ipc(&m), Some(0.813402));
        assert_eq!(extract_percent(&m, "accuracy"), Some(93.71));
        assert_eq!(extract_percent(&m, "coverage"), Some(88.12));
        // The prefetcher sentence must not confuse the legacy extractors.
        assert_eq!(extract_percent(&m, "miss rate"), Some(94.91));

        // Baseline sentences carry no prefetcher.
        let baseline = render_scenario(&report(), "LLC@256x8", 0.476981);
        assert!(!baseline.contains("Hardware prefetcher"));
    }

    /// An entry on `machine` under `prefetcher`, with no rows.
    fn entry(machine: &str, prefetcher: &str) -> TraceEntry {
        use std::sync::Arc;
        TraceEntry {
            id: crate::database::TraceId::new("mcf", "lru"),
            frame: crate::frame::TraceFrame::new(
                Vec::new(),
                Arc::new(cachemind_workloads::program::ProgramImage::new()),
            ),
            metadata: String::new(),
            description: String::new(),
            machine: machine.to_owned(),
            prefetcher: prefetcher.to_owned(),
            prefetch_fills: 0,
            useful_prefetches: 0,
            prefetch_accuracy: 0.0,
            prefetch_coverage: 0.0,
            ipc: 0.5,
        }
    }

    #[test]
    fn ipc_citation_has_one_shape_per_qualification() {
        let baseline = entry("LLC@256x8", "none");
        assert_eq!(
            ipc_citation("mcf", "lru", &baseline),
            "estimated IPC of mcf under lru on machine LLC@256x8"
        );
        assert_eq!(scenario_citation_suffix(&baseline), "");

        let prefetched = entry("table2@llc2048x16+dram160", "stride4");
        assert_eq!(
            ipc_citation("mcf", "lru", &prefetched),
            "estimated IPC of mcf under lru on machine table2@llc2048x16+dram160 with \
             prefetcher stride4"
        );
        assert_eq!(
            scenario_citation_suffix(&prefetched),
            " on machine table2@llc2048x16+dram160 with prefetcher stride4"
        );
    }

    #[test]
    fn scenario_sentence_round_trips() {
        let m = render_scenario(&report(), "LLC@256x8", 0.476981);
        assert!(m.starts_with("Cache Performance Summary:"));
        assert!(m.contains("Simulated on machine LLC@256x8 "));
        assert_eq!(extract_ipc(&m), Some(0.476981));
        // The scenario sentence must not confuse the legacy extractors.
        assert_eq!(extract_percent(&m, "miss rate"), Some(94.91));
    }
}
