//! [`TraceFrame`] — the database's per-trace "data_frame".

use std::sync::{Arc, OnceLock};

use cachemind_sim::addr::{Address, Pc};
use cachemind_sim::replay::EvictionRecord;
use cachemind_workloads::program::ProgramImage;

use crate::snapshot::RowPayload;
use crate::stats::{PcSummary, SetStats};

/// A frame of trace rows (the replay's [`EvictionRecord`]s) plus the
/// program image that maps PCs to code.
///
/// Equivalent to the paper's pandas `data_frame`, with text columns
/// (`function_name`, `function_code`, `assembly_code`) joined lazily from
/// the shared [`ProgramImage`].
///
/// The rows a question names are read through [`rows_for`]: given a PC,
/// in stream order from a per-PC index of the rows, built on first use
/// and kept for the frame's lifetime (the rows never change after
/// construction); given only an address, by a scan. Three more derived
/// structures, each also built on its first use, serve asks without
/// walking the rows again: a
/// [`PcSummary`] per distinct PC ([`pc_summary`], [`pc_summaries`]); each
/// PC's row ids re-sorted by `(address, row id)` (4 B per row), which
/// [`rows_for`] binary-searches when given both a PC and an address; and
/// a [`SetStats`] per set the rows map to ([`set_summaries`], 24 B per
/// set, counted without the PC index). All four are derived state:
/// snapshots do not store them, and `len`, `pcs` and `contains_pc` build
/// none of the last three.
///
/// [`rows_for`]: TraceFrame::rows_for
/// [`pc_summary`]: TraceFrame::pc_summary
/// [`pc_summaries`]: TraceFrame::pc_summaries
/// [`set_summaries`]: TraceFrame::set_summaries
///
/// A frame read lazily from a snapshot holds its encoded row payload and
/// decodes it on the first read of any row (`rows`, `rows_for`, the PC
/// index, the set summary, CSV export); `len` and `is_empty` answer from
/// the stored row count without decoding.
#[derive(Clone)]
pub struct TraceFrame {
    rows: OnceLock<Vec<EvictionRecord>>,
    /// The row count, known before the rows are decoded.
    len: usize,
    /// Where undecoded rows come from; `None` for frames built in memory.
    payload: Option<RowPayload>,
    program: Arc<ProgramImage>,
    pc_index: OnceLock<PcIndex>,
    /// One summary per entry of `pc_index.pcs`, in the same order.
    summaries: OnceLock<Vec<PcSummary>>,
    /// `pc_index.postings` with each PC's range sorted by `(address, id)`.
    by_address: OnceLock<Vec<u32>>,
    /// One entry per set the rows map to, ascending by set.
    sets: OnceLock<Vec<SetStats>>,
}

/// The distinct PCs of a frame, ascending, each with the ids of its rows
/// in stream order. About 4 B per row plus 12 B per distinct PC.
#[derive(Debug, Clone)]
struct PcIndex {
    pcs: Vec<Pc>,
    /// `postings[starts[i]..starts[i + 1]]` are the row ids of `pcs[i]`.
    starts: Vec<u32>,
    postings: Vec<u32>,
}

impl PcIndex {
    fn build(rows: &[EvictionRecord]) -> Self {
        let mut pairs: Vec<(Pc, u32)> = rows
            .iter()
            .enumerate()
            .map(|(id, r)| (r.pc, u32::try_from(id).expect("frame row ids fit in u32")))
            .collect();
        // Ids are unique, so the unstable sort is total and keeps each
        // PC's ids ascending, i.e. in stream order.
        pairs.sort_unstable();
        let mut index = PcIndex {
            pcs: Vec::new(),
            starts: Vec::new(),
            postings: Vec::with_capacity(rows.len()),
        };
        for (pc, id) in pairs {
            if index.pcs.last() != Some(&pc) {
                index.pcs.push(pc);
                index.starts.push(index.postings.len() as u32);
            }
            index.postings.push(id);
        }
        index.starts.push(index.postings.len() as u32);
        index
    }

    /// The `postings` range of `pcs[i]`.
    fn range(&self, i: usize) -> std::ops::Range<usize> {
        self.starts[i] as usize..self.starts[i + 1] as usize
    }

    fn postings(&self, pc: Pc) -> &[u32] {
        match self.pcs.binary_search(&pc) {
            Ok(i) => &self.postings[self.range(i)],
            Err(_) => &[],
        }
    }
}

impl std::fmt::Debug for TraceFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The index is left out, and the rows are decoded first: whether
        // either has been built yet must not change how a frame prints.
        f.debug_struct("TraceFrame")
            .field("rows", &self.rows())
            .field("program", &self.program)
            .finish_non_exhaustive()
    }
}

impl TraceFrame {
    /// Creates a frame over `rows` with `program` as the code-lookup source.
    pub fn new(rows: Vec<EvictionRecord>, program: Arc<ProgramImage>) -> Self {
        TraceFrame {
            len: rows.len(),
            rows: OnceLock::from(rows),
            payload: None,
            program,
            pc_index: OnceLock::new(),
            summaries: OnceLock::new(),
            by_address: OnceLock::new(),
            sets: OnceLock::new(),
        }
    }

    /// A frame of `len` rows that decodes `payload` on first read.
    pub(crate) fn lazy(payload: RowPayload, len: usize, program: Arc<ProgramImage>) -> Self {
        TraceFrame {
            rows: OnceLock::new(),
            len,
            payload: Some(payload),
            program,
            pc_index: OnceLock::new(),
            summaries: OnceLock::new(),
            by_address: OnceLock::new(),
            sets: OnceLock::new(),
        }
    }

    /// Number of rows. Does not decode a lazy frame; once decoded, a frame
    /// whose payload turned out malformed reports its actual (zero) rows.
    pub fn len(&self) -> usize {
        self.rows.get().map_or(self.len, Vec::len)
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All rows, in stream order.
    pub fn rows(&self) -> &[EvictionRecord] {
        self.rows
            .get_or_init(|| self.payload.as_ref().map_or_else(Vec::new, |p| p.decode(self.len)))
    }

    /// The program image behind the frame's PCs.
    pub fn program(&self) -> &ProgramImage {
        &self.program
    }

    fn pc_index(&self) -> &PcIndex {
        self.pc_index.get_or_init(|| PcIndex::build(self.rows()))
    }

    /// Distinct PCs, ascending.
    pub fn pcs(&self) -> &[Pc] {
        &self.pc_index().pcs
    }

    /// Whether any row was issued by `pc`.
    pub fn contains_pc(&self, pc: Pc) -> bool {
        self.pc_index().pcs.binary_search(&pc).is_ok()
    }

    /// The ids of `pc`'s rows at `address`, ascending.
    fn ids_at(&self, pc: Pc, address: Address) -> &[u32] {
        let index = self.pc_index();
        let Ok(i) = index.pcs.binary_search(&pc) else { return &[] };
        let rows = self.rows();
        let by_address = self.by_address.get_or_init(|| {
            let mut ids = index.postings.clone();
            for i in 0..index.pcs.len() {
                // Ids are unique, so the order is total; equal addresses
                // keep their ids ascending, i.e. in stream order.
                ids[index.range(i)].sort_unstable_by_key(|&id| (rows[id as usize].address, id));
            }
            ids
        });
        let ids = &by_address[index.range(i)];
        let lo = ids.partition_point(|&id| rows[id as usize].address < address);
        let hi = lo + ids[lo..].partition_point(|&id| rows[id as usize].address == address);
        &ids[lo..hi]
    }

    /// The summaries of every distinct PC, ascending by PC. Built on first
    /// use from each PC's rows in stream order.
    pub fn pc_summaries(&self) -> &[PcSummary] {
        self.summaries.get_or_init(|| {
            let index = self.pc_index();
            let rows = self.rows();
            index
                .pcs
                .iter()
                .enumerate()
                .map(|(i, &pc)| {
                    let ids = &index.postings[index.range(i)];
                    PcSummary::over(pc, ids.iter().map(|&id| &rows[id as usize]))
                })
                .collect()
        })
    }

    /// The summary of `pc`'s rows, if any row was issued by `pc`.
    pub fn pc_summary(&self, pc: Pc) -> Option<&PcSummary> {
        let i = self.pc_index().pcs.binary_search(&pc).ok()?;
        Some(&self.pc_summaries()[i])
    }

    /// The rows issued by `pc` to `address` (byte-exact), each narrowing
    /// only when given, in stream order. A PC reads its postings, a PC and
    /// an address binary-search the PC's address-ordered row ids, and an
    /// address alone scans every row.
    pub fn rows_for(
        &self,
        pc: Option<Pc>,
        address: Option<Address>,
    ) -> impl Iterator<Item = &EvictionRecord> + '_ {
        let rows = self.rows();
        let (scan, ids): (&[EvictionRecord], &[u32]) = match (pc, address) {
            (Some(pc), Some(address)) => (&[], self.ids_at(pc, address)),
            (Some(pc), None) => (&[], self.pc_index().postings(pc)),
            (None, _) => (rows, &[]),
        };
        scan.iter()
            .filter(move |r| address.is_none_or(|a| r.address == a))
            .chain(ids.iter().map(|&id| &rows[id as usize]))
    }

    /// The `function_name` column value for a PC.
    pub fn function_name(&self, pc: Pc) -> Option<&str> {
        self.program.function_of(pc).map(|f| f.name.as_str())
    }

    /// The `function_code` column value for a PC.
    pub fn function_code(&self, pc: Pc) -> Option<&str> {
        self.program.source_of(pc)
    }

    /// The `assembly_code` column value for a PC (a window of disassembly).
    pub fn assembly_code(&self, pc: Pc) -> Option<String> {
        self.program.assembly_window(pc, 2)
    }

    /// Distinct PCs in first-seen order.
    pub fn unique_pcs(&self) -> Vec<Pc> {
        let index = self.pc_index();
        let mut firsts: Vec<(u32, Pc)> = index
            .pcs
            .iter()
            .zip(&index.starts)
            .map(|(&pc, &start)| (index.postings[start as usize], pc))
            .collect();
        firsts.sort_unstable();
        firsts.into_iter().map(|(_, pc)| pc).collect()
    }

    /// Renders the frame as CSV, one row per access, with the paper's
    /// column names for the stored columns.
    /// Intended for exporting artifacts and interoperating with pandas.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "index,program_counter,memory_address,cache_set_id,evict,miss_type,\
             evicted_address,accessed_address_reuse_distance_numeric,\
             evicted_address_reuse_distance_numeric,accessed_address_recency_numeric,\
             accessed_address_recency,function_name,is_miss\n",
        );
        for r in self.rows() {
            let opt_u64 = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
            let opt_addr = |v: Option<cachemind_sim::addr::Address>| {
                v.map(|a| format!("{a}")).unwrap_or_default()
            };
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                r.index,
                r.pc,
                r.address,
                r.set.index(),
                r.evict_label(),
                r.miss_type_label(),
                opt_addr(r.evicted_address),
                opt_u64(r.accessed_reuse_distance),
                opt_u64(r.evicted_reuse_distance),
                opt_u64(r.recency),
                r.recency_label(),
                self.function_name(r.pc).unwrap_or(""),
                r.is_miss as u8,
            ));
        }
        out
    }

    /// The accesses and hits of every set the rows map to, ascending by
    /// set. Built on first use by one pass over the rows.
    pub fn set_summaries(&self) -> &[SetStats] {
        self.sets.get_or_init(|| SetStats::over(self.rows()))
    }

    /// Distinct set ids, ascending (read from the set summary).
    pub fn unique_sets(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.set_summaries().iter().map(|s| s.set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachemind_sim::addr::{Address, SetId};
    use proptest::prelude::*;

    fn frame() -> TraceFrame {
        let mut rows = Vec::new();
        for i in 0..10u64 {
            rows.push(EvictionRecord {
                index: i,
                pc: Pc::new(0x400000 + (i % 3) * 4),
                address: Address::new(0x1000 + i * 64),
                kind: cachemind_sim::access::AccessKind::Load,
                set: SetId::new((i % 4) as usize),
                is_miss: i % 2 == 0,
                miss_type: None,
                evicted_address: None,
                accessed_reuse_distance: Some(i),
                evicted_reuse_distance: None,
                recency: None,
                bypassed: false,
            });
        }
        TraceFrame::new(rows, Arc::new(ProgramImage::new()))
    }

    #[test]
    fn filter_and_count_agree() {
        let f = frame();
        assert_eq!(f.rows_for(None, None).filter(|r| r.is_miss).count(), 5);
        let pc = Pc::new(0x400000);
        let misses = f.rows_for(Some(pc), None).filter(|r| r.is_miss).count() as u64;
        assert_eq!(Some(misses), f.pc_summary(pc).map(|s| s.stats.misses));
        let at: Vec<u64> = f.rows_for(None, Some(Address::new(0x1040))).map(|r| r.index).collect();
        assert_eq!(at, vec![1]);
    }

    #[test]
    fn select_produces_subframe() {
        let f = frame();
        let pc = Pc::new(0x400000);
        let sub =
            TraceFrame::new(f.rows_for(Some(pc), None).cloned().collect(), Arc::clone(&f.program));
        assert_eq!(sub.len(), 4);
        assert!(sub.rows().iter().all(|r| r.pc == pc));
    }

    #[test]
    fn unique_pcs_and_sets() {
        let f = frame();
        assert_eq!(f.unique_pcs().len(), 3);
        assert_eq!(f.unique_sets().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn premise_and_row_count_reads_build_no_summary_or_address_order() {
        let f = frame();
        let pc = Pc::new(0x400000);
        assert_eq!(f.len(), 10);
        assert!(f.contains_pc(pc));
        assert_eq!(f.pcs().len(), 3);
        assert!(f.summaries.get().is_none() && f.by_address.get().is_none());
        assert!(f.sets.get().is_none());
        // A PC-only read uses the postings in stream order, not the summary.
        assert_eq!(f.rows_for(Some(pc), None).count(), 4);
        assert!(f.summaries.get().is_none() && f.by_address.get().is_none());
        assert_eq!(f.pc_summary(pc).map(|s| s.stats.accesses), Some(4));
        assert!(f.by_address.get().is_none());
        assert_eq!(f.rows_for(Some(pc), Some(Address::new(0x1000))).count(), 1);
        assert!(f.by_address.get().is_some());
    }

    /// A frame whose row `i` maps to set `(v >> 1) % spread` and misses
    /// when `v` is odd, for the `i`-th value `v`.
    fn set_frame(values: &[u64], spread: u64) -> TraceFrame {
        let template = frame().rows()[0].clone();
        let rows = values
            .iter()
            .enumerate()
            .map(|(i, v)| EvictionRecord {
                index: i as u64,
                set: SetId::new(((v >> 1) % spread) as usize),
                is_miss: v & 1 == 1,
                ..template.clone()
            })
            .collect();
        TraceFrame::new(rows, Arc::new(ProgramImage::new()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn set_summary_matches_an_independent_count(
            values in proptest::collection::vec(any::<u64>(), 0..300),
            spread in 1u64..5000,
        ) {
            let f = set_frame(&values, spread);
            let mut counts = std::collections::BTreeMap::<usize, (u64, u64)>::new();
            for row in f.rows() {
                let c = counts.entry(row.set.index()).or_default();
                c.0 += 1;
                c.1 += u64::from(!row.is_miss);
            }
            let expected: Vec<SetStats> = counts
                .into_iter()
                .map(|(set, (accesses, hits))| SetStats { set, accesses, hits })
                .collect();
            prop_assert_eq!(f.set_summaries(), expected.as_slice());
            prop_assert!(f.pc_index.get().is_none(), "the set summary built the PC index");
            prop_assert!(f.unique_sets().eq(expected.iter().map(|s| s.set)));

            let g = set_frame(&values, spread);
            let _ = (g.pcs(), g.pc_summaries(), g.unique_pcs());
            prop_assert!(g.sets.get().is_none(), "the PC index built the set summary");
        }
    }

    #[test]
    fn unmapped_pc_has_no_function() {
        let f = frame();
        assert!(f.function_name(Pc::new(0x400000)).is_none());
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let f = frame();
        let csv = f.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), f.len() + 1);
        assert!(lines[0].starts_with("index,program_counter"));
        assert!(lines[1].contains("Cache Miss") || lines[1].contains("Cache Hit"));
        // Every data row has the same number of fields as the header.
        let fields = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), fields, "row {l}");
        }
    }
}
