//! Measurement helpers: latency summaries, process counters from
//! `/proc/self`, and the in-memory span recorder of the traced run.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [f64; 10] = [99.9, 99.75, 99.5, 99.0, 95.0, 90.0, 80.0, 75.0, 66.0, 50.0];

/// Ops per block: a timed phase is cut into blocks of this many
/// consecutive completions, and rates and latency percentiles are the
/// median over the blocks, so a burst of outside load that stalls a few
/// blocks does not move them. A block's tail is its p99, the highest
/// percentile with ten samples beyond it.
const BLOCK_OPS: usize = 1_000;

/// Blocks a phase too short for [`BLOCK_OPS`] is cut into for its rate;
/// its latency percentiles are taken over the whole phase.
const SHORT_BLOCKS: usize = 10;

/// The ops of one timed phase: completion time since the phase started
/// and latency, both in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies(Vec<(u64, u64)>);

/// Nearest-rank percentile `p` (0–100) of sorted samples, in ms.
fn percentile_ms(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1] as f64 / 1e6
}

/// The highest percentile with at least ten samples beyond it.
fn tail_percentile(samples: usize) -> f64 {
    let n = samples as f64;
    // The epsilon absorbs rounding in `1 - p/100` (p99.75 of 4000 ops
    // leaves exactly ten).
    TAIL_PERCENTILES.into_iter().find(|p| n * (100.0 - p) / 100.0 >= 10.0 - 1e-9).unwrap_or(50.0)
}

/// A phase's summary: throughput, median and tail latency.
#[derive(Debug, Clone)]
pub struct Summary {
    pub ops_per_s: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
    /// How the tail was taken, e.g. `p99.5 of 4000 ops, median of 10 blocks`.
    pub tail_label: String,
}

impl Latencies {
    /// Records one op that ended at `end` (since `phase_start`) after
    /// `latency_ns`.
    pub fn push(&mut self, phase_start: Instant, latency_ns: u64) {
        self.0.push((phase_start.elapsed().as_nanos() as u64, latency_ns));
    }

    pub fn extend(&mut self, other: Latencies) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Cuts the phase into blocks of consecutive completions and reports
    /// medians over the blocks.
    pub fn summary(&self) -> Summary {
        let mut ops = self.0.clone();
        ops.sort_unstable();
        let n = ops.len();
        let blocks = if n >= 2 * BLOCK_OPS { n / BLOCK_OPS } else { SHORT_BLOCKS.min(n).max(1) };
        let bounds: Vec<(usize, usize)> =
            (0..blocks).map(|b| (b * n / blocks, (b + 1) * n / blocks)).collect();
        let rates: Vec<f64> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let start = if lo == 0 { 0 } else { ops[lo - 1].0 };
                let span = (ops[hi - 1].0 - start).max(1) as f64 / 1e9;
                (hi - lo) as f64 / span
            })
            .collect();
        let sorted_latencies = |range: &[(u64, u64)]| {
            let mut v: Vec<u64> = range.iter().map(|o| o.1).collect();
            v.sort_unstable();
            v
        };
        let (p50_ms, tail_ms, tail_label) = if n >= 2 * BLOCK_OPS {
            let p = tail_percentile(n / blocks);
            let (mut p50s, mut tails) = (Vec::new(), Vec::new());
            for &(lo, hi) in &bounds {
                let v = sorted_latencies(&ops[lo..hi]);
                p50s.push(percentile_ms(&v, 50.0));
                tails.push(percentile_ms(&v, p));
            }
            let label = format!("p{p} of each {}-op block, median of {blocks} blocks", n / blocks);
            (median(&p50s), median(&tails), label)
        } else {
            let v = sorted_latencies(&ops);
            let p = tail_percentile(n);
            (percentile_ms(&v, 50.0), percentile_ms(&v, p), format!("p{p} of {n} ops"))
        };
        Summary { ops_per_s: median(&rates), p50_ms, tail_ms, tail_label }
    }
}

/// Median of a non-empty list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn status_field(text: &str, field: &str) -> Option<u64> {
    text.lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l[field.len()..].split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads of this process right now.
pub fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "Threads:").unwrap_or(0)
}

/// User plus system CPU time of the whole process, in ms (the kernel
/// counts it in clock ticks of 10 ms).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 * 10.0
}

/// Voluntary plus involuntary context switches summed over the live
/// threads of this process.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .map(|task| {
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0)
        })
        .sum()
}

/// One recorded span: a named interval, the op it belongs to and the
/// span that caused it.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// The traced run's span recorder. Spans live in memory and are written
/// out by [`Tracer::dump`] when the run ends. A disabled tracer records
/// nothing and costs one branch per span.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

/// An open span; closing it returns its duration in ns.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// This span's id, for children.
    pub fn id(&self) -> Option<u64> {
        Some(self.id)
    }
}

thread_local! {
    static NEXT_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&self, name: &'static str, op: u64, parent: Option<u64>) -> Open {
        // Ids are unique per thread in the high bits and per span below.
        let id = NEXT_ID.with(|c| {
            let v = c.get() + 1;
            c.set(v);
            v
        }) | (thread_tag() << 48);
        Open { id, parent, op, name, start: Instant::now() }
    }

    pub fn close(&self, open: Open) -> u64 {
        let dur_ns = open.start.elapsed().as_nanos() as u64;
        if self.enabled {
            let start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            self.spans.lock().expect("span list lock").push(Span {
                id: open.id,
                parent: open.parent,
                op: open.op,
                name: open.name,
                start_ns,
                dur_ns,
            });
        }
        dur_ns
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open(name, op, parent);
        let out = f();
        self.close(open);
        out
    }

    /// Adds to a named count recorded at a layer boundary.
    pub fn count(&self, name: &'static str, n: f64) {
        if self.enabled {
            *self.counts.lock().expect("count map lock").entry(name).or_insert(0.0) += n;
        }
    }

    pub fn count_of(&self, name: &str) -> f64 {
        self.counts.lock().expect("count map lock").get(name).copied().unwrap_or(0.0)
    }

    /// `(calls, total ns)` of every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        let spans = self.spans.lock().expect("span list lock");
        spans.iter().filter(|s| s.name == name).fold((0, 0), |(n, t), s| (n + 1, t + s.dur_ns))
    }

    /// Mean duration of the spans named `name`, in µs (0 when none ran).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self.total(name);
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// Total duration of the spans named `name`, in ms.
    pub fn sum_ms(&self, name: &str) -> f64 {
        self.total(name).1 as f64 / 1e6
    }

    /// Writes every span as one JSON line to `path`.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list lock").iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

fn thread_tag() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(30), 66.0);
        assert_eq!(tail_percentile(4_000), 99.75);
        assert_eq!(tail_percentile(10_000), 99.9);
        let ops: Vec<(u64, u64)> = (1..=30).map(|i| (i * 1_000_000, i * 1_000_000)).collect();
        let s = Latencies(ops).summary();
        assert_eq!((s.p50_ms, s.tail_ms), (15.0, 20.0));
        assert_eq!(s.tail_label, "p66 of 30 ops");
        // One op per ms of phase time: 1000 ops/s in every block.
        assert!((s.ops_per_s - 1000.0).abs() < 1e-9, "{}", s.ops_per_s);
    }

    #[test]
    fn blocks_take_medians() {
        // 40k ops at 1 per 10 µs, except 2k that stall 100x.
        let mut t = 0;
        let ops: Vec<(u64, u64)> = (0..40_000u64)
            .map(|i| {
                let slow = (4_000..6_000).contains(&i);
                t += if slow { 1_000_000 } else { 10_000 };
                (t, if slow { 1_000_000 } else { 10_000 })
            })
            .collect();
        let s = Latencies(ops).summary();
        assert!((s.ops_per_s - 100_000.0).abs() < 1.0, "{}", s.ops_per_s);
        assert_eq!(s.p50_ms, 0.01);
        assert_eq!(s.tail_label, "p99 of each 1000-op block, median of 40 blocks");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}

/// The system allocator, plus a per-thread tally of the bytes a closure
/// leaves allocated (see [`allocated_by`]). Outside such a closure each
/// allocation costs one thread-local flag read.
pub struct TallyingAlloc;

thread_local! {
    static TALLYING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static TALLY: std::cell::Cell<i64> = const { std::cell::Cell::new(0) };
}

fn tally(delta: i64) {
    if TALLYING.with(std::cell::Cell::get) {
        TALLY.with(|t| t.set(t.get() + delta));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments, so
// `System`'s guarantees carry over unchanged; the tally touches only
// const-initialised thread-locals without destructors, which never
// allocate and stay accessible for the thread's whole life.
unsafe impl std::alloc::GlobalAlloc for TallyingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        tally(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        tally(-(layout.size() as i64));
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        tally(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns the heap bytes it left allocated on this thread.
pub fn allocated_by(f: impl FnOnce()) -> i64 {
    TALLY.with(|t| t.set(0));
    TALLYING.with(|t| t.set(true));
    f();
    TALLYING.with(|t| t.set(false));
    TALLY.with(std::cell::Cell::get)
}
