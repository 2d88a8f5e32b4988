//! The workspace's one integer mixer and one byte hash: SplitMix64's
//! finalizer, a `Hasher` built on it for maps and sets keyed by integers,
//! and FNV-1a over bytes.
//!
//! The reuse oracle's line interner, the stride prefetcher's PC table, the
//! hierarchy filter's pending-prefetch set, the learned policies' feature
//! hashing and the language layer's embeddings use the mixer. Snapshot
//! segment assignment and checksums, the answer cache's shards, the serve
//! layer's report checksums and the embeddings' word seeds use FNV-1a.
//! Both are deterministic across runs and platforms.

/// SplitMix64 finalizer: a 64-bit bijective mix with full avalanche.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A [`mix64`]-based `Hasher` for maps and sets on integer keys.
///
/// The std `HashMap`'s default SipHash costs more than the rest of a
/// sampler probe or a filter step; this mixer is a fraction of that and
/// deterministic across runs. Only safe where *iteration order* is never
/// observed (lookups, inserts and removals only) — per-key state is
/// layout-independent, so simulated outcomes cannot change.
#[derive(Debug, Clone, Default)]
pub struct Mix64Hasher(u64);

impl std::hash::Hasher for Mix64Hasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Composite-key fallback: fold 8-byte chunks through the mixer.
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix64(self.0 ^ u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix64(self.0 ^ x);
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// `BuildHasher` plugging [`Mix64Hasher`] into `HashMap`/`HashSet`.
pub type Mix64Build = std::hash::BuildHasherDefault<Mix64Hasher>;

/// The 64-bit FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The 64-bit FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over arbitrary bytes.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |hash, &byte| (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME))
}
