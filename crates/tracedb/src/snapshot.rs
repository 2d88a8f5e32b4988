//! Persistent on-disk snapshots of a [`TraceDatabase`] — the
//! offline-build / online-serve split.
//!
//! Every serve process used to rebuild its trace database from scratch by
//! re-running simulations; a snapshot turns that build into an offline job
//! and makes serve cold-start a millisecond-scale file read. The format is
//! a compact, versioned binary layout (see `docs/SNAPSHOT.md` for the
//! byte-level diagram):
//!
//! ```text
//! +----------------------------------------------------------------------+
//! | header                                                               |
//! |   magic            "CMDBSNAP" (8 bytes)                              |
//! |   version          u32 LE  (SNAPSHOT_VERSION)                        |
//! |   llc config       option<CacheConfig>                               |
//! |   shard count      u32                                               |
//! |   label tables     workload / policy / machine / prefetcher          |
//! |                    (count + length-prefixed UTF-8 strings, sorted)   |
//! |   program table    interned ProgramImages, first-use order           |
//! |   segment directory per shard: entry count, byte length,             |
//! |                    8-lane FNV-1a over the segment payload            |
//! | header checksum    u64 LE  FNV-1a over every header byte above       |
//! +----------------------------------------------------------------------+
//! | shard segment 0    entries in ascending key order (see below)        |
//! | shard segment 1    ...                                               |
//! +----------------------------------------------------------------------+
//! ```
//!
//! Every entry carries its full [`TraceEntry`] payload — trace id (as
//! label-table indices), metadata and description strings, machine and
//! prefetcher labels, prefetch counters, IPC, and the complete row frame
//! (outcome, miss taxonomy, evicted line, reuse distances, recency).
//! Strings that repeat across entries (workload, policy, machine,
//! prefetcher names) are interned once in the header's label tables;
//! program images are interned once per distinct image and shared by
//! [`Arc`] on load, exactly as the builder shares them.
//!
//! Each entry's rows are preceded by their row count and the byte length
//! of their encoded payload (since format v2), so a reader can step over one
//! trace's rows without decoding them. The eager reader requires every
//! payload to decode to exactly its declared length.
//!
//! # Row encoding
//!
//! Rows dominate the byte budget. Each row is two flag bytes followed by
//! LEB128 varints: the index as a delta from the previous row's, the PC,
//! the address, the set, and then only those of the four optional scalars
//! (evicted address, the two reuse distances, recency) whose presence bit
//! is set. A row carries only the columns some answer reads: the paper's
//! set-snapshot columns are derived by replay, never stored (see
//! [`crate::schema`]). The reserved flag bits must be zero; a row that sets
//! one is [`SnapshotError::Corrupt`].
//!
//! # Determinism
//!
//! [`write_snapshot`] is a pure function of the database *contents*:
//! entries are walked in ascending key order, label tables are sorted,
//! program interning follows first use in that same order, and every row
//! encodes as a pure function of itself and its predecessor's index — so
//! the bytes are identical no matter how many threads built the database,
//! and save → load → save reproduces the first byte stream exactly.
//!
//! # Corruption safety
//!
//! The reader never panics and never returns a partial database: magic and
//! version are checked first, the header is structurally scanned and then
//! verified against its FNV-1a checksum before any of its content is
//! trusted, and each shard segment's checksum is verified before a single
//! entry is decoded. Every failure is a typed [`SnapshotError`].
//!
//! # Instant startup
//!
//! [`VerifiedSnapshot`] splits loading into its two halves: `open` reads
//! the file and verifies *every* checksum (so all realistic corruption —
//! bit rot, truncation, partial writes — fails fast at startup), while
//! [`VerifiedSnapshot::into_database`] decodes every entry header into a
//! [`TraceDatabase`] whose frames decode their rows only when something
//! reads them. That makes cold-start an order of magnitude faster than an
//! in-process simulation build and leaves untouched traces undecoded.
//! [`read_snapshot`] reads the same layout eagerly, rows included.
//! Segment checksums use [`fnv64_wide`] — eight interleaved FNV-1a lanes
//! folded with FNV-1a — because a single FNV chain is a serial data
//! dependency that caps verification near 0.6 GB/s; the laned variant
//! verifies the same bytes about four times faster.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use cachemind_sim::access::AccessKind;
use cachemind_sim::addr::{Address, Pc, SetId};
use cachemind_sim::config::CacheConfig;
use cachemind_sim::replay::MissType;
use cachemind_workloads::program::ProgramImage;

use crate::database::{TraceDatabase, TraceEntry, TraceId};
use crate::frame::TraceFrame;
use crate::record::TraceRow;
use crate::store::{fnv64, shard_index, TraceStore};

/// The 8-byte magic prefix of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CMDBSNAP";

/// The format version this build writes and reads. Any layout change —
/// new field, reordered section, different encoding — must bump this (the
/// golden-bytes fixture test fails loudly otherwise).
pub const SNAPSHOT_VERSION: u32 = 3;

/// A failure loading (or writing) a snapshot. The reader returns a typed
/// error for every malformed input — it never panics and never yields a
/// partially-decoded database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic,
    /// The file is a snapshot, but of a format version this build does not
    /// read.
    VersionMismatch {
        /// The version the file declares.
        found: u32,
    },
    /// A section's FNV-1a checksum does not match its bytes.
    ChecksumMismatch {
        /// Which section failed (`"header"` or `"shard segment N"`).
        section: String,
    },
    /// The byte stream ended before a section was complete.
    Truncated {
        /// The section being read when the bytes ran out.
        section: String,
    },
    /// The bytes passed their checksum but decode to an impossible value
    /// (an out-of-range label index, invalid UTF-8, trailing garbage).
    /// Unreachable for files this build wrote; kept so no input panics.
    Corrupt {
        /// What was wrong.
        detail: String,
    },
    /// The underlying file could not be read or written.
    Io {
        /// The rendered `std::io::Error`.
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a trace-database snapshot (bad magic)"),
            SnapshotError::VersionMismatch { found } => {
                write!(f, "snapshot version {found} unsupported (expected {SNAPSHOT_VERSION})")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot {section} checksum mismatch")
            }
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated while reading {section}")
            }
            SnapshotError::Corrupt { detail } => write!(f, "snapshot corrupt: {detail}"),
            SnapshotError::Io { detail } => write!(f, "snapshot io error: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io { detail: e.to_string() }
    }
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Wide (8-lane interleaved) FNV-1a over arbitrary bytes.
///
/// Byte `i` feeds lane `i % 8`, each lane running the standard FNV-1a
/// update; the eight lane values are then folded into one digest with
/// plain FNV-1a over their little-endian bytes. Detection behaviour
/// matches FNV-1a (any single-byte change flips its lane and therefore
/// the fold), but the eight independent multiply chains give the
/// out-of-order core real instruction-level parallelism — segment
/// verification runs ~4x faster than a single chain, which is what keeps
/// [`VerifiedSnapshot::open`] in the low single-digit milliseconds.
pub fn fnv64_wide(bytes: &[u8]) -> u64 {
    const LANES: usize = 8;
    let mut lanes = [FNV_OFFSET; LANES];
    let mut chunks = bytes.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (lane, &byte) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    for (lane, &byte) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = (*lane ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    let mut hash = FNV_OFFSET;
    for lane in lanes {
        for byte in lane.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

// ---------------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// LEB128: seven value bits per byte, high bit = continuation.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    // Bit-exact: the round-trip preserves NaN payloads and signed zeros.
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        None => put_u8(out, 0),
        Some(x) => {
            put_u8(out, 1);
            put_u32(out, x);
        }
    }
}

/// A bounds-checked little-endian reader. Every primitive read fails with
/// [`SnapshotError::Truncated`] naming the current section instead of
/// slicing out of range — the reader never panics on short input.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8], section: &'static str) -> Self {
        Cursor { bytes, pos: 0, section }
    }

    fn section(&mut self, name: &'static str) {
        self.section = name;
    }

    fn truncated(&self) -> SnapshotError {
        SnapshotError::Truncated { section: self.section.to_owned() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        // Checked arithmetic: a corrupt length near usize::MAX must not
        // overflow the position.
        let end = self.pos.checked_add(n).ok_or_else(|| self.truncated())?;
        if end > self.bytes.len() {
            return Err(self.truncated());
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// LEB128 decode, capped at the ten bytes a u64 can need; longer or
    /// overflowing encodings are [`SnapshotError::Corrupt`], not panics.
    fn varint(&mut self) -> Result<u64, SnapshotError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let part = u64::from(byte & 0x7f);
            if shift == 63 && part > 1 {
                return Err(SnapshotError::Corrupt {
                    detail: format!("varint overflow in {}", self.section),
                });
            }
            value |= part << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(SnapshotError::Corrupt { detail: format!("varint too long in {}", self.section) })
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt {
            detail: format!("invalid UTF-8 in {}", self.section),
        })
    }

    /// Skips a length-prefixed string without validating its contents —
    /// the structural pre-scan that locates the header checksum before any
    /// header content is trusted.
    fn skip_str(&mut self) -> Result<(), SnapshotError> {
        let len = self.u32()? as usize;
        self.take(len)?;
        Ok(())
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            tag => Err(SnapshotError::Corrupt {
                detail: format!("bad option tag {tag} in {}", self.section),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Component encodings
// ---------------------------------------------------------------------------

fn put_cache_config(out: &mut Vec<u8>, cfg: &CacheConfig) {
    put_str(out, &cfg.name);
    put_u32(out, cfg.sets_log2);
    put_u64(out, cfg.ways as u64);
    put_u32(out, cfg.line_size_log2);
    put_u64(out, cfg.latency_cycles);
    put_u64(out, cfg.mshr_entries as u64);
}

fn read_cache_config(c: &mut Cursor<'_>) -> Result<CacheConfig, SnapshotError> {
    let name = c.str()?;
    let sets_log2 = c.u32()?;
    let ways = c.u64()? as usize;
    let line_size_log2 = c.u32()?;
    let latency_cycles = c.u64()?;
    let mshr_entries = c.u64()? as usize;
    Ok(CacheConfig::new(&name, sets_log2, ways, line_size_log2)
        .with_latency(latency_cycles)
        .with_mshr(mshr_entries))
}

fn skip_cache_config(c: &mut Cursor<'_>) -> Result<(), SnapshotError> {
    c.skip_str()?;
    c.take(4 + 8 + 4 + 8 + 8)?;
    Ok(())
}

fn put_program(out: &mut Vec<u8>, program: &ProgramImage) {
    let functions = program.functions();
    put_u32(out, functions.len() as u32);
    for f in functions {
        put_str(out, &f.name);
        put_u64(out, f.base_pc.value());
        put_str(out, &f.source);
        put_u32(out, f.instructions.len() as u32);
        for ins in &f.instructions {
            put_u64(out, ins.pc.value());
            put_str(out, &ins.text);
        }
    }
}

fn read_program(c: &mut Cursor<'_>) -> Result<ProgramImage, SnapshotError> {
    let nfuncs = c.u32()?;
    let mut functions = Vec::with_capacity(nfuncs.min(1 << 16) as usize);
    for _ in 0..nfuncs {
        let name = c.str()?;
        let base_pc = c.u64()?;
        let source = c.str()?;
        let nins = c.u32()?;
        let mut instructions = Vec::new();
        for _ in 0..nins {
            let pc = c.u64()?;
            let text = c.str()?;
            instructions.push(cachemind_workloads::program::Instruction { pc: Pc::new(pc), text });
        }
        functions.push(cachemind_workloads::program::Function {
            name,
            base_pc: Pc::new(base_pc),
            instructions,
            source,
        });
    }
    Ok(ProgramImage::from_functions(functions))
}

fn skip_program(c: &mut Cursor<'_>) -> Result<(), SnapshotError> {
    let nfuncs = c.u32()?;
    for _ in 0..nfuncs {
        c.skip_str()?; // name
        c.take(8)?; // base_pc
        c.skip_str()?; // source
        let nins = c.u32()?;
        for _ in 0..nins {
            c.take(8)?; // pc
            c.skip_str()?; // text
        }
    }
    Ok(())
}

// Row flag layout. The kind byte packs the enums; the presence byte
// flags which of the four optional scalars follow. Every other bit is
// reserved and must be zero.
const KIND_RESERVED: u8 = 0b1100_0000;
const PRESENCE_RESERVED: u8 = 0b1111_0000;

fn put_row(out: &mut Vec<u8>, row: &TraceRow, prev_index: u64) {
    let flags = match row.kind {
        AccessKind::Load => 0u8,
        AccessKind::Store => 1,
        AccessKind::Fetch => 2,
        AccessKind::Prefetch => 3,
    } | (row.is_miss as u8) << 2
        | (row.bypassed as u8) << 3
        | match row.miss_type {
            None => 0u8,
            Some(MissType::Compulsory) => 1,
            Some(MissType::Capacity) => 2,
            Some(MissType::Conflict) => 3,
        } << 4;
    let present = (row.evicted_address.is_some() as u8)
        | (row.accessed_reuse_distance.is_some() as u8) << 1
        | (row.evicted_reuse_distance.is_some() as u8) << 2
        | (row.recency.is_some() as u8) << 3;
    put_u8(out, flags);
    put_u8(out, present);

    put_varint(out, row.index.wrapping_sub(prev_index));
    put_varint(out, row.pc.value());
    put_varint(out, row.address.value());
    put_varint(out, row.set.index() as u64);
    for value in [
        row.evicted_address.map(Address::value),
        row.accessed_reuse_distance,
        row.evicted_reuse_distance,
        row.recency,
    ]
    .into_iter()
    .flatten()
    {
        put_varint(out, value);
    }
}

fn read_row(c: &mut Cursor<'_>, prev_index: u64) -> Result<TraceRow, SnapshotError> {
    let flags = c.u8()?;
    let present = c.u8()?;
    if flags & KIND_RESERVED != 0 || present & PRESENCE_RESERVED != 0 {
        return Err(SnapshotError::Corrupt {
            detail: format!("reserved row flag bits set ({flags:#04x}, {present:#04x})"),
        });
    }
    let kind = match flags & 0b11 {
        0 => AccessKind::Load,
        1 => AccessKind::Store,
        2 => AccessKind::Fetch,
        _ => AccessKind::Prefetch,
    };
    let is_miss = flags & (1 << 2) != 0;
    let bypassed = flags & (1 << 3) != 0;
    let miss_type = match (flags >> 4) & 0b11 {
        0 => None,
        1 => Some(MissType::Compulsory),
        2 => Some(MissType::Capacity),
        _ => Some(MissType::Conflict),
    };

    let index = prev_index.wrapping_add(c.varint()?);
    let pc = Pc::new(c.varint()?);
    let address = Address::new(c.varint()?);
    let set = SetId::new(c.varint()? as usize);
    let mut opts = [None; 4];
    for (bit, slot) in opts.iter_mut().enumerate() {
        if present & (1 << bit) != 0 {
            *slot = Some(c.varint()?);
        }
    }
    let [evicted_address, accessed_reuse_distance, evicted_reuse_distance, recency] = opts;

    Ok(TraceRow {
        index,
        pc,
        address,
        kind,
        set,
        is_miss,
        miss_type,
        evicted_address: evicted_address.map(Address::new),
        accessed_reuse_distance,
        evicted_reuse_distance,
        recency,
        bypassed,
    })
}

// ---------------------------------------------------------------------------
// Label + program interning
// ---------------------------------------------------------------------------

/// One of the four header label tables: sorted distinct strings, written
/// once, referenced from entries by `u32` index.
#[derive(Debug, Default)]
struct LabelTable {
    labels: Vec<String>,
    index: BTreeMap<String, u32>,
}

impl LabelTable {
    fn from_sorted<I: IntoIterator<Item = String>>(labels: I) -> Self {
        let mut table = LabelTable::default();
        for label in labels {
            let idx = table.labels.len() as u32;
            table.index.insert(label.clone(), idx);
            table.labels.push(label);
        }
        table
    }

    fn id(&self, label: &str) -> u32 {
        *self.index.get(label).expect("label interned during table construction")
    }

    fn write(&self, out: &mut Vec<u8>) {
        put_u32(out, self.labels.len() as u32);
        for label in &self.labels {
            put_str(out, label);
        }
    }
}

fn read_labels(c: &mut Cursor<'_>) -> Result<Vec<String>, SnapshotError> {
    let n = c.u32()?;
    let mut labels = Vec::with_capacity(n.min(1 << 16) as usize);
    for _ in 0..n {
        labels.push(c.str()?);
    }
    Ok(labels)
}

fn skip_labels(c: &mut Cursor<'_>) -> Result<(), SnapshotError> {
    let n = c.u32()?;
    for _ in 0..n {
        c.skip_str()?;
    }
    Ok(())
}

fn label_at<'t>(labels: &'t [String], idx: u32, what: &str) -> Result<&'t str, SnapshotError> {
    labels.get(idx as usize).map(String::as_str).ok_or_else(|| SnapshotError::Corrupt {
        detail: format!("{what} label index {idx} out of range ({} labels)", labels.len()),
    })
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Serializes a database into the versioned snapshot byte format.
///
/// Each entry goes to segment [`shard_index`] of its key and the
/// database's [`TraceStore::shard_count`]. Deterministic: the bytes are a
/// pure function of the database contents and segment count (entries in
/// ascending key order, sorted label tables, first-use program
/// interning), independent of thread count and build history.
pub fn write_snapshot(db: &TraceDatabase) -> Vec<u8> {
    // Label tables: sorted distinct strings over every entry.
    let mut workloads = std::collections::BTreeSet::new();
    let mut policies = std::collections::BTreeSet::new();
    let mut machines = std::collections::BTreeSet::new();
    let mut prefetchers = std::collections::BTreeSet::new();
    for entry in db.entries() {
        workloads.insert(entry.id.workload.clone());
        policies.insert(entry.id.policy.clone());
        machines.insert(entry.machine.clone());
        if let Some(m) = &entry.id.machine {
            machines.insert(m.clone());
        }
        prefetchers.insert(entry.prefetcher.clone());
        if let Some(p) = &entry.id.prefetcher {
            prefetchers.insert(p.clone());
        }
    }
    let workloads = LabelTable::from_sorted(workloads);
    let policies = LabelTable::from_sorted(policies);
    let machines = LabelTable::from_sorted(machines);
    let prefetchers = LabelTable::from_sorted(prefetchers);

    // Program table: interned by pointer first (entries of one workload
    // share an Arc), then by content, in first-use order over the global
    // ascending key walk — the same walk the loader re-interns in.
    let mut programs: Vec<Arc<ProgramImage>> = Vec::new();
    let mut program_of_entry: BTreeMap<String, u32> = BTreeMap::new();
    for entry in db.entries() {
        let program = entry.frame.program();
        let idx = programs.iter().position(|p| **p == *program).unwrap_or_else(|| {
            programs.push(Arc::new(program.clone()));
            programs.len() - 1
        });
        program_of_entry.insert(entry.id.key(), idx as u32);
    }

    // Shard segments: entries in ascending key order within each segment.
    let shards = db.shard_count();
    let mut by_segment: Vec<Vec<&TraceEntry>> = vec![Vec::new(); shards];
    for entry in db.entries() {
        by_segment[shard_index(&entry.id.key(), shards)].push(entry);
    }
    let mut segments: Vec<(u32, Vec<u8>)> = Vec::with_capacity(shards);
    for entries in by_segment {
        let mut seg = Vec::new();
        for entry in &entries {
            put_u32(&mut seg, workloads.id(&entry.id.workload));
            put_u32(&mut seg, policies.id(&entry.id.policy));
            put_opt_u32(&mut seg, entry.id.machine.as_deref().map(|m| machines.id(m)));
            put_opt_u32(&mut seg, entry.id.prefetcher.as_deref().map(|p| prefetchers.id(p)));
            put_u32(&mut seg, machines.id(&entry.machine));
            put_u32(&mut seg, prefetchers.id(&entry.prefetcher));
            put_str(&mut seg, &entry.metadata);
            put_str(&mut seg, &entry.description);
            put_u32(&mut seg, program_of_entry[&entry.id.key()]);
            put_u64(&mut seg, entry.prefetch_fills);
            put_u64(&mut seg, entry.useful_prefetches);
            put_f64(&mut seg, entry.prefetch_accuracy);
            put_f64(&mut seg, entry.prefetch_coverage);
            put_f64(&mut seg, entry.ipc);
            let rows = entry.frame.rows();
            put_u32(&mut seg, rows.len() as u32);
            // The payload length goes before the rows; patched once known.
            let len_at = seg.len();
            put_u64(&mut seg, 0);
            let mut prev_index = 0u64;
            for row in rows {
                put_row(&mut seg, row, prev_index);
                prev_index = row.index;
            }
            let payload_len = (seg.len() - len_at - 8) as u64;
            seg[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
        }
        segments.push((entries.len() as u32, seg));
    }

    // Header: everything the segments reference, plus the segment
    // directory, checksummed as one unit.
    let mut header = Vec::new();
    header.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u32(&mut header, SNAPSHOT_VERSION);
    match db.llc_config() {
        None => put_u8(&mut header, 0),
        Some(cfg) => {
            put_u8(&mut header, 1);
            put_cache_config(&mut header, cfg);
        }
    }
    put_u32(&mut header, segments.len() as u32);
    workloads.write(&mut header);
    policies.write(&mut header);
    machines.write(&mut header);
    prefetchers.write(&mut header);
    put_u32(&mut header, programs.len() as u32);
    for program in &programs {
        put_program(&mut header, program);
    }
    for (count, seg) in &segments {
        put_u32(&mut header, *count);
        put_u64(&mut header, seg.len() as u64);
        put_u64(&mut header, fnv64_wide(seg));
    }

    let mut out = header;
    let checksum = fnv64(&out);
    put_u64(&mut out, checksum);
    for (_, seg) in &segments {
        out.extend_from_slice(seg);
    }
    out
}

/// Structurally scans the header (no content validation) to locate the
/// header checksum, returning its position: the reader trusts no header
/// byte before the checksum over all of them has been verified. Only
/// [`SnapshotError::BadMagic`], [`SnapshotError::VersionMismatch`] and
/// [`SnapshotError::Truncated`] can come out of the scan.
fn scan_header(bytes: &[u8]) -> Result<usize, SnapshotError> {
    let mut c = Cursor::new(bytes, "magic");
    if c.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    c.section("version");
    let version = c.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::VersionMismatch { found: version });
    }
    c.section("header");
    if c.u8()? != 0 {
        skip_cache_config(&mut c)?;
    }
    let shards = c.u32()? as usize;
    for _ in 0..4 {
        skip_labels(&mut c)?;
    }
    let nprograms = c.u32()?;
    for _ in 0..nprograms {
        skip_program(&mut c)?;
    }
    // Segment directory: (entry count, byte length, checksum) per shard.
    c.take(shards.saturating_mul(4 + 8 + 8))?;
    Ok(c.pos)
}

/// One shard segment as the verified directory describes it.
#[derive(Debug, Clone)]
struct Segment {
    entries: u32,
    bytes: Range<usize>,
}

/// A snapshot's verified layout: the decoded header plus the byte range of
/// every shard segment. Building one checks every checksum; nothing in it
/// depends on the row payloads.
#[derive(Debug, Clone)]
struct Layout {
    llc: Option<CacheConfig>,
    workloads: Vec<String>,
    policies: Vec<String>,
    machines: Vec<String>,
    prefetchers: Vec<String>,
    programs: Vec<Arc<ProgramImage>>,
    segments: Vec<Segment>,
}

impl Layout {
    /// Validation order: magic, version, header checksum, then each shard
    /// segment's bounds and checksum, and finally that no bytes trail the
    /// last segment. Only checksum-verified header bytes are decoded.
    fn verify(bytes: &[u8]) -> Result<Self, SnapshotError> {
        // Phase 1: locate and verify the header before trusting any of it.
        let header_end = scan_header(bytes)?;
        let mut c = Cursor::new(bytes, "header checksum");
        c.pos = header_end;
        let declared = c.u64()?;
        if fnv64(&bytes[..header_end]) != declared {
            return Err(SnapshotError::ChecksumMismatch { section: "header".to_owned() });
        }

        // Phase 2: decode the verified header.
        let mut h = Cursor::new(&bytes[..header_end], "header");
        h.take(SNAPSHOT_MAGIC.len())?;
        h.u32()?; // version, already checked
        let llc = match h.u8()? {
            0 => None,
            1 => Some(read_cache_config(&mut h)?),
            tag => return Err(SnapshotError::Corrupt { detail: format!("bad llc tag {tag}") }),
        };
        let shards = h.u32()? as usize;
        h.section("label tables");
        let workloads = read_labels(&mut h)?;
        let policies = read_labels(&mut h)?;
        let machines = read_labels(&mut h)?;
        let prefetchers = read_labels(&mut h)?;
        h.section("program table");
        let nprograms = h.u32()?;
        let mut programs = Vec::with_capacity(nprograms.min(1 << 16) as usize);
        for _ in 0..nprograms {
            programs.push(Arc::new(read_program(&mut h)?));
        }

        // Phase 3: check every segment against the directory.
        h.section("segment directory");
        let mut segments = Vec::with_capacity(shards.min(1 << 16));
        let mut offset = header_end + 8;
        for shard in 0..shards {
            let entries = h.u32()?;
            let len = h.u64()? as usize;
            let checksum = h.u64()?;
            let end = offset.checked_add(len).filter(|e| *e <= bytes.len()).ok_or_else(|| {
                SnapshotError::Truncated { section: format!("shard segment {shard}") }
            })?;
            if fnv64_wide(&bytes[offset..end]) != checksum {
                return Err(SnapshotError::ChecksumMismatch {
                    section: format!("shard segment {shard}"),
                });
            }
            segments.push(Segment { entries, bytes: offset..end });
            offset = end;
        }
        if offset != bytes.len() {
            return Err(SnapshotError::Corrupt {
                detail: "trailing bytes after last segment".into(),
            });
        }
        Ok(Layout { llc, workloads, policies, machines, prefetchers, programs, segments })
    }

    /// Decodes every entry's header fields in segment order. Row payloads
    /// are not read here: `frame` receives each entry's payload byte range
    /// (within `bytes`), its declared row count and its program, and builds
    /// the frame.
    fn entries(
        &self,
        bytes: &[u8],
        mut frame: impl FnMut(
            Range<usize>,
            usize,
            Arc<ProgramImage>,
        ) -> Result<TraceFrame, SnapshotError>,
    ) -> Result<Vec<TraceEntry>, SnapshotError> {
        let mut entries = Vec::with_capacity(self.trace_count().min(1 << 16));
        for (shard, segment) in self.segments.iter().enumerate() {
            let mut s = Cursor::new(&bytes[..segment.bytes.end], "shard segment");
            s.pos = segment.bytes.start;
            for _ in 0..segment.entries {
                let workload = label_at(&self.workloads, s.u32()?, "workload")?.to_owned();
                let policy = label_at(&self.policies, s.u32()?, "policy")?.to_owned();
                let id_machine = match s.opt_u32()? {
                    None => None,
                    Some(idx) => Some(label_at(&self.machines, idx, "machine")?.to_owned()),
                };
                let id_prefetcher = match s.opt_u32()? {
                    None => None,
                    Some(idx) => Some(label_at(&self.prefetchers, idx, "prefetcher")?.to_owned()),
                };
                let machine = label_at(&self.machines, s.u32()?, "machine")?.to_owned();
                let prefetcher = label_at(&self.prefetchers, s.u32()?, "prefetcher")?.to_owned();
                let metadata = s.str()?;
                let description = s.str()?;
                let program_idx = s.u32()? as usize;
                let program =
                    self.programs.get(program_idx).ok_or_else(|| SnapshotError::Corrupt {
                        detail: format!("program index {program_idx} out of range"),
                    })?;
                let prefetch_fills = s.u64()?;
                let useful_prefetches = s.u64()?;
                let prefetch_accuracy = s.f64()?;
                let prefetch_coverage = s.f64()?;
                let ipc = s.f64()?;
                let nrows = s.u32()? as usize;
                let payload_len = s.u64()?;
                let payload = usize::try_from(payload_len)
                    .ok()
                    .and_then(|len| s.pos.checked_add(len))
                    .filter(|end| *end <= segment.bytes.end)
                    .map(|end| s.pos..end)
                    .ok_or_else(|| SnapshotError::Corrupt {
                        detail: format!(
                            "row payload of {payload_len} bytes overruns shard segment {shard}"
                        ),
                    })?;
                s.pos = payload.end;
                entries.push(TraceEntry {
                    id: TraceId {
                        workload,
                        policy,
                        machine: id_machine,
                        prefetcher: id_prefetcher,
                    },
                    frame: frame(payload, nrows, Arc::clone(program))?,
                    metadata,
                    description,
                    machine,
                    prefetcher,
                    prefetch_fills,
                    useful_prefetches,
                    prefetch_accuracy,
                    prefetch_coverage,
                    ipc,
                });
            }
            if s.pos != segment.bytes.end {
                return Err(SnapshotError::Corrupt {
                    detail: format!("shard segment {shard} has trailing bytes"),
                });
            }
        }
        Ok(entries)
    }

    fn trace_count(&self) -> usize {
        self.segments.iter().map(|s| s.entries as usize).sum()
    }
}

/// Decodes one entry's row payload, which must hold exactly `count` rows
/// and nothing after them. The payload sits inside a checksum-verified
/// segment, so running out of bytes early is corruption, not truncation.
fn decode_rows(payload: &[u8], count: usize) -> Result<Vec<TraceRow>, SnapshotError> {
    let mut c = Cursor::new(payload, "row payload");
    // Every row takes at least one byte, which caps a forged count.
    let mut rows: Vec<TraceRow> = Vec::with_capacity(count.min(payload.len()));
    let mut prev_index = 0u64;
    for _ in 0..count {
        let row = read_row(&mut c, prev_index).map_err(|e| match e {
            SnapshotError::Truncated { .. } => SnapshotError::Corrupt {
                detail: format!("row payload of {} bytes ends before {count} rows", payload.len()),
            },
            other => other,
        })?;
        prev_index = row.index;
        rows.push(row);
    }
    if c.pos != payload.len() {
        return Err(SnapshotError::Corrupt {
            detail: format!(
                "row payload of {} bytes holds {count} rows in {} bytes",
                payload.len(),
                c.pos
            ),
        });
    }
    Ok(rows)
}

/// Deserializes a snapshot produced by [`write_snapshot`], rows included.
///
/// Validation order: magic, version, header checksum, then every shard
/// segment's bounds and checksum — only checksum-verified bytes are ever
/// decoded into entries, so a corrupted file yields a typed
/// [`SnapshotError`], never a partial database. Each entry's row payload
/// must decode to exactly its declared length.
pub fn read_snapshot(bytes: &[u8]) -> Result<TraceDatabase, SnapshotError> {
    let layout = Layout::verify(bytes)?;
    let entries = layout.entries(bytes, |payload, nrows, program| {
        Ok(TraceFrame::new(decode_rows(&bytes[payload], nrows)?, program))
    })?;
    Ok(TraceDatabase::from_entries(entries, layout.segments.len(), layout.llc))
}

/// The keys of each segment of a snapshot, in segment order.
#[cfg(test)]
pub(crate) fn segment_keys(bytes: &[u8]) -> Result<Vec<Vec<String>>, SnapshotError> {
    let layout = Layout::verify(bytes)?;
    let mut keys = Vec::new();
    for segment in &layout.segments {
        let one = Layout { segments: vec![segment.clone()], ..layout.clone() };
        let entries =
            one.entries(bytes, |_, _, program| Ok(TraceFrame::new(Vec::new(), program)))?;
        keys.push(entries.iter().map(|e| e.id.key()).collect());
    }
    Ok(keys)
}

/// Writes `db` to `path` in the snapshot format ([`write_snapshot`]).
pub fn save_to_path(db: &TraceDatabase, path: &Path) -> Result<(), SnapshotError> {
    let _span = cachemind_obs::global().span(cachemind_obs::names::TRACEDB_SNAPSHOT_SAVE);
    std::fs::write(path, write_snapshot(db))?;
    Ok(())
}

/// A snapshot whose *every* checksum has been verified but whose entries
/// have not been decoded yet — the instant-startup half of snapshot
/// serving.
///
/// [`VerifiedSnapshot::open`] reads the file, verifies the header checksum
/// and decodes the header, then verifies every segment's bounds and
/// checksum and that no bytes trail the last segment, so all realistic
/// corruption — bit rot, truncation, a partial write — fails fast with a
/// typed [`SnapshotError`] before the process claims to be ready.
/// [`VerifiedSnapshot::into_database`] then opens the store.
#[derive(Clone)]
pub struct VerifiedSnapshot {
    bytes: Arc<Vec<u8>>,
    layout: Layout,
}

impl std::fmt::Debug for VerifiedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiedSnapshot")
            .field("bytes", &self.bytes.len())
            .field("shards", &self.layout.segments.len())
            .field("trace_count", &self.layout.trace_count())
            .finish()
    }
}

impl VerifiedSnapshot {
    /// Reads `path` and verifies every checksum without decoding entries.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let _span = cachemind_obs::global().span(cachemind_obs::names::TRACEDB_SNAPSHOT_VERIFY);
        Self::verify(std::fs::read(path.as_ref())?)
    }

    /// Verifies an in-memory snapshot byte stream without decoding
    /// entries: magic, version, header checksum, then each segment's
    /// bounds and checksum, and finally that no bytes trail the last
    /// segment.
    pub fn verify(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let layout = Layout::verify(&bytes)?;
        Ok(VerifiedSnapshot { bytes: Arc::new(bytes), layout })
    }

    /// Opens the store: decodes every entry header (ids, labels, metadata,
    /// counters, row counts) and skips over every row payload. Each
    /// [`TraceFrame`] decodes its own rows on first touch
    /// ([`TraceFrame::rows`], the PC index, filters, CSV export); keys,
    /// metadata, name sets and [`TraceFrame::len`] never decode a row, so
    /// an ask that reads only metadata decodes no frame at all.
    ///
    /// Decode telemetry goes to `metrics`: the segments read here add to
    /// `tracedb.lazy_decode_segments`, and each frame decode later is timed
    /// by the `tracedb.lazy_decode` span and counted in
    /// `tracedb.lazy_decode_traces`.
    ///
    /// A malformed entry header (only producible by forging checksums) is
    /// a [`SnapshotError::Corrupt`]. A malformed row payload cannot surface
    /// through a `&self` reader, so it degrades only its own frame, which
    /// reads as empty; [`read_snapshot`] reports it as an error instead.
    pub fn into_database(
        self,
        metrics: &cachemind_obs::MetricsRegistry,
    ) -> Result<TraceDatabase, SnapshotError> {
        let VerifiedSnapshot { bytes, layout } = self;
        let decode_span = metrics.histogram(cachemind_obs::names::TRACEDB_LAZY_DECODE);
        let decoded = metrics.counter(cachemind_obs::names::TRACEDB_LAZY_DECODE_TRACES);
        let entries = layout.entries(&bytes, |range, nrows, program| {
            let payload = RowPayload {
                bytes: Arc::clone(&bytes),
                range,
                decode_span: decode_span.clone(),
                decoded: decoded.clone(),
            };
            Ok(TraceFrame::lazy(payload, nrows, program))
        })?;
        metrics
            .counter(cachemind_obs::names::TRACEDB_LAZY_DECODE_SEGMENTS)
            .add(layout.segments.len() as u64);
        Ok(TraceDatabase::from_entries(entries, layout.segments.len(), layout.llc))
    }
}

/// One entry's row payload inside verified snapshot bytes: what a lazy
/// [`TraceFrame`] decodes on first touch.
#[derive(Clone)]
pub(crate) struct RowPayload {
    bytes: Arc<Vec<u8>>,
    range: Range<usize>,
    /// The `tracedb.lazy_decode` span's histogram.
    decode_span: cachemind_obs::HistogramHandle,
    /// The `tracedb.lazy_decode_traces` counter.
    decoded: cachemind_obs::Counter,
}

impl RowPayload {
    /// Decodes `count` rows, timed by the `tracedb.lazy_decode` span and
    /// counted in `tracedb.lazy_decode_traces`. A malformed payload (only
    /// possible behind forged checksums) decodes to no rows.
    pub(crate) fn decode(&self, count: usize) -> Vec<TraceRow> {
        let span = self.decode_span.start_span();
        let rows = decode_rows(&self.bytes[self.range.clone()], count).unwrap_or_default();
        span.finish();
        self.decoded.inc();
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::TraceDatabaseBuilder;

    fn demo_db() -> TraceDatabase {
        TraceDatabaseBuilder::quick_demo()
            .workloads(["mcf", "lbm"])
            .policies(["lru", "belady"])
            .shards(3)
            .try_build()
            .expect("demo build")
    }

    #[test]
    fn round_trip_preserves_every_entry() {
        let db = demo_db();
        let bytes = write_snapshot(&db);
        let loaded = read_snapshot(&bytes).expect("round trip");
        assert_eq!(loaded.len(), db.len());
        assert_eq!(loaded.shard_count(), db.shard_count());
        assert_eq!(loaded.llc_config(), db.llc_config());
        assert_eq!(loaded.trace_keys(), db.trace_keys());
        for (a, b) in loaded.entries().zip(db.entries()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.metadata, b.metadata);
            assert_eq!(a.description, b.description);
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.prefetcher, b.prefetcher);
            assert_eq!(a.prefetch_fills, b.prefetch_fills);
            assert_eq!(a.useful_prefetches, b.useful_prefetches);
            assert_eq!(a.prefetch_accuracy.to_bits(), b.prefetch_accuracy.to_bits());
            assert_eq!(a.prefetch_coverage.to_bits(), b.prefetch_coverage.to_bits());
            assert_eq!(a.ipc.to_bits(), b.ipc.to_bits());
            assert_eq!(a.frame.rows(), b.frame.rows(), "{} rows diverge", a.id);
            assert_eq!(a.frame.program(), b.frame.program(), "{} program diverges", a.id);
        }
    }

    #[test]
    fn second_save_is_byte_identical() {
        let db = demo_db();
        let first = write_snapshot(&db);
        let loaded = read_snapshot(&first).expect("load");
        let second = write_snapshot(&loaded);
        assert_eq!(first, second, "save -> load -> save must reproduce the byte stream");
    }

    #[test]
    fn loaded_entries_share_program_images() {
        let db = demo_db();
        let loaded = read_snapshot(&write_snapshot(&db)).expect("load");
        // Both mcf entries decode to one shared Arc, like the builder's.
        let a = loaded.get("mcf_evictions_lru").expect("entry");
        let b = loaded.get("mcf_evictions_belady").expect("entry");
        assert!(std::ptr::eq(a.frame.program(), b.frame.program()), "programs must be interned");
    }

    #[test]
    fn empty_input_is_truncated_not_a_panic() {
        assert_eq!(
            read_snapshot(&[]).unwrap_err(),
            SnapshotError::Truncated { section: "magic".into() }
        );
    }

    #[test]
    fn bad_magic_is_detected_first() {
        let mut bytes = write_snapshot(&demo_db());
        bytes[0] ^= 0xff;
        assert_eq!(read_snapshot(&bytes).unwrap_err(), SnapshotError::BadMagic);
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = write_snapshot(&demo_db());
        bytes[8] = 99; // version LSB
        assert_eq!(
            read_snapshot(&bytes).unwrap_err(),
            SnapshotError::VersionMismatch { found: 99 }
        );
    }
}
