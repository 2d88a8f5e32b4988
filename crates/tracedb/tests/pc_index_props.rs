//! Property tests for the frame's per-PC index.
//!
//! Every read the index serves — `rows_for` with a PC, an address, both
//! or neither, `contains_pc`, `pcs`, `unique_pcs` and the per-PC
//! summaries — must equal a naive scan over all rows exactly: the same
//! rows in the same order, and bit-equal floats. Frames are random (empty
//! ones included), PCs are drawn from a pool wider than any frame's, and
//! addresses repeat within and across PCs, so a read may name a PC the
//! frame lacks, an address no row holds, or an address the frame holds
//! only under other PCs.

use std::sync::Arc;

use cachemind_sim::access::AccessKind;
use cachemind_sim::addr::{Address, Pc, SetId};
use cachemind_tracedb::prelude::*;
use cachemind_workloads::program::ProgramImage;
use proptest::prelude::*;

/// splitmix64, so one generated seed derives a whole case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// PCs a frame may hold are the first `FRAME_PCS` of the pool; queries
/// draw from all of it, so some always miss.
const FRAME_PCS: u64 = 8;
const POOL_PCS: u64 = 12;

fn pool_pc(rng: &mut Mix, pool: u64) -> Pc {
    Pc::new(0x40_0000 + rng.below(pool) * 4)
}

fn address(rng: &mut Mix) -> Address {
    Address::new(0x1000 + rng.below(16) * 64)
}

fn synth_frame(rng: &mut Mix) -> TraceFrame {
    let len = if rng.chance(6) { 0 } else { rng.below(160) };
    let rows = (0..len)
        .map(|index| {
            let is_miss = rng.chance(2);
            EvictionRecord {
                index,
                pc: pool_pc(rng, FRAME_PCS),
                address: address(rng),
                kind: AccessKind::Load,
                set: SetId::new(rng.below(8) as usize),
                is_miss,
                miss_type: None,
                evicted_address: (is_miss && rng.chance(2)).then(|| address(rng)),
                // Large distances make float sums depend on their order.
                accessed_reuse_distance: rng.chance(4).then(|| rng.below(1 << 40)).or(Some(3)),
                evicted_reuse_distance: rng.chance(3).then(|| rng.below(1 << 40)),
                recency: rng.chance(2).then(|| rng.below(64)),
                bypassed: false,
            }
        })
        .collect();
    TraceFrame::new(rows, Arc::new(ProgramImage::new()))
}

/// An address no frame holds.
const ABSENT: Address = Address::new(0xdead_0000);

/// The `(pc, address)` reads checked for `pc`: the PC alone, and with an
/// address the PC repeats, its first address, one the frame holds only
/// under other PCs, one no row holds and a random one; and each address
/// alone.
fn reads(frame: &TraceFrame, pc: Pc, rng: &mut Mix) -> Vec<(Option<Pc>, Option<Address>)> {
    let own: Vec<Address> = frame.rows().iter().filter(|r| r.pc == pc).map(|r| r.address).collect();
    let mut addresses = vec![ABSENT, address(rng)];
    addresses.extend(own.iter().copied().find(|a| own.iter().filter(|b| *b == a).count() > 1));
    addresses.extend(own.first().copied());
    addresses.extend(frame.rows().iter().map(|r| r.address).find(|a| !own.contains(a)));
    let mut out = vec![(Some(pc), None)];
    for a in addresses {
        out.extend([(Some(pc), Some(a)), (None, Some(a))]);
    }
    out
}

/// The reference: a scan of every row.
fn naive(frame: &TraceFrame, pc: Option<Pc>, address: Option<Address>) -> Vec<&EvictionRecord> {
    frame
        .rows()
        .iter()
        .filter(|r| pc.is_none_or(|pc| r.pc == pc) && address.is_none_or(|a| r.address == a))
        .collect()
}

fn same_rows(a: &[&EvictionRecord], b: &[&EvictionRecord]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| std::ptr::eq(*x, *y))
}

fn bits(v: Option<f64>) -> Option<u64> {
    v.map(f64::to_bits)
}

/// Per-PC statistics by a scan, written out independently of the frame's
/// summaries.
fn naive_pc_stats(frame: &TraceFrame, pc: Pc) -> Option<PcStats> {
    let rows: Vec<&EvictionRecord> = frame.rows().iter().filter(|r| r.pc == pc).collect();
    if rows.is_empty() {
        return None;
    }
    let moments = |values: Vec<f64>| {
        if values.is_empty() {
            return (None, None);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        (Some(mean), Some(var.sqrt()))
    };
    let (mean, sd) =
        moments(rows.iter().filter_map(|r| r.accessed_reuse_distance).map(|d| d as f64).collect());
    let (emean, _) =
        moments(rows.iter().filter_map(|r| r.evicted_reuse_distance).map(|d| d as f64).collect());
    let misses = rows.iter().filter(|r| r.is_miss).count() as u64;
    Some(PcStats {
        pc,
        accesses: rows.len() as u64,
        hits: rows.len() as u64 - misses,
        misses,
        mean_accessed_reuse: mean,
        mean_evicted_reuse: emean,
        reuse_stddev: sd,
        evictions_caused: rows.iter().filter(|r| r.evicted_address.is_some()).count() as u64,
    })
}

fn same_stats(a: &PcStats, b: &PcStats) -> bool {
    a.pc == b.pc
        && a.accesses == b.accesses
        && a.hits == b.hits
        && a.misses == b.misses
        && a.evictions_caused == b.evictions_caused
        && bits(a.mean_accessed_reuse) == bits(b.mean_accessed_reuse)
        && bits(a.mean_evicted_reuse) == bits(b.mean_evicted_reuse)
        && bits(a.reuse_stddev) == bits(b.reuse_stddev)
}

/// One column's statistics by a stream-order scan, written out
/// independently of `ColumnStats::of`.
fn naive_column(values: &[f64]) -> Option<ColumnStats> {
    if values.is_empty() {
        return None;
    }
    let n = values.len() as f64;
    let mut sum = 0.0f64;
    for v in values {
        sum += v;
    }
    let mean = sum / n;
    let mut squares = 0.0f64;
    for v in values {
        squares += (v - mean) * (v - mean);
    }
    let (mut min, mut max) = (values[0], values[0]);
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    Some(ColumnStats { count: values.len() as u64, sum, mean, std: (squares / n).sqrt(), min, max })
}

/// A PC's summary by a scan of every row.
fn naive_summary(frame: &TraceFrame, pc: Pc) -> Option<PcSummary> {
    let rows: Vec<&EvictionRecord> = frame.rows().iter().filter(|r| r.pc == pc).collect();
    let column = |value: fn(&EvictionRecord) -> Option<u64>| {
        naive_column(&rows.iter().filter_map(|r| value(r)).map(|d| d as f64).collect::<Vec<_>>())
    };
    Some(PcSummary {
        stats: naive_pc_stats(frame, pc)?,
        accessed_reuse: column(|r| r.accessed_reuse_distance),
        evicted_reuse: column(|r| r.evicted_reuse_distance),
        recency: column(|r| r.recency),
    })
}

fn same_column(a: &Option<ColumnStats>, b: &Option<ColumnStats>) -> bool {
    let fields =
        |c: &ColumnStats| (c.count, [c.sum, c.mean, c.std, c.min, c.max].map(f64::to_bits));
    a.as_ref().map(fields) == b.as_ref().map(fields)
}

fn same_summary(a: &PcSummary, b: &PcSummary) -> bool {
    same_stats(&a.stats, &b.stats)
        && same_column(&a.accessed_reuse, &b.accessed_reuse)
        && same_column(&a.evicted_reuse, &b.evicted_reuse)
        && same_column(&a.recency, &b.recency)
}

/// Checks every indexed read of `frame` against the naive scan.
fn check_frame(frame: &TraceFrame, rng: &mut Mix) -> Result<(), TestCaseError> {
    let all: Vec<&EvictionRecord> = frame.rows_for(None, None).collect();
    prop_assert!(same_rows(&all, &naive(frame, None, None)), "rows_for(None, None)");
    for raw in 0..POOL_PCS {
        let pc = Pc::new(0x40_0000 + raw * 4);
        for (pc, address) in reads(frame, pc, rng) {
            let expected = naive(frame, pc, address);
            let got: Vec<&EvictionRecord> = frame.rows_for(pc, address).collect();
            prop_assert!(same_rows(&got, &expected), "rows_for({:?}, {:?})", pc, address);
        }
        prop_assert_eq!(frame.contains_pc(pc), frame.rows().iter().any(|r| r.pc == pc));
        match (frame.pc_summary(pc), naive_summary(frame, pc)) {
            (None, None) => {}
            (Some(a), Some(b)) => prop_assert!(same_summary(a, &b), "pc_summary {}", pc),
            (a, b) => prop_assert!(false, "pc_summary {}: {:?} vs {:?}", pc, a, b),
        }
    }

    let mut distinct: Vec<Pc> = frame.rows().iter().map(|r| r.pc).collect();
    distinct.sort_unstable();
    distinct.dedup();
    prop_assert_eq!(frame.pcs(), distinct.as_slice());
    prop_assert_eq!(frame.pc_summaries().len(), distinct.len());
    for (summary, pc) in frame.pc_summaries().iter().zip(&distinct) {
        prop_assert!(same_summary(summary, &naive_summary(frame, *pc).unwrap()), "summary {}", pc);
    }

    let mut first_seen = Vec::new();
    for r in frame.rows() {
        if !first_seen.contains(&r.pc) {
            first_seen.push(r.pc);
        }
    }
    prop_assert_eq!(frame.unique_pcs(), first_seen);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_reads_equal_a_full_scan(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let frame = synth_frame(&mut rng);
        let before = format!("{frame:?}");
        check_frame(&frame, &mut rng)?;
        // The index is invisible in the frame's printed form.
        prop_assert_eq!(format!("{frame:?}"), before);
    }

    #[test]
    fn a_clone_of_an_indexed_frame_reads_the_same(seed in any::<u64>()) {
        let mut rng = Mix(seed);
        let frame = synth_frame(&mut rng);
        // Build the index, then clone: the copy carries it along.
        let _ = frame.contains_pc(Pc::new(0x40_0000));
        let copy = frame.clone();
        check_frame(&copy, &mut rng)?;
        // A sub-frame gets an index of its own.
        let misses = copy.rows().iter().filter(|r| r.is_miss).cloned().collect();
        let sub = TraceFrame::new(misses, Arc::new(ProgramImage::new()));
        check_frame(&sub, &mut rng)?;
    }
}
