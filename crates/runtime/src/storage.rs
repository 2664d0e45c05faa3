//! Bit-packed state storage for the exhaustive checker.
//!
//! The visited set is the model checker's scaling wall. It lives in one
//! table, [`PackedStateTable`], with one optional disk tier selected by
//! [`StorageTier`](crate::StorageTier). Every part is exact:
//!
//! * **Packed keys** — [`pack_key`] encodes each `u32` key slot as a
//!   canonical LEB128-style varint. Interned value ids are dense and
//!   small (the interner hands them out from 0 in first-use order), so
//!   most slots pack into 1–2 bytes instead of 4. The encoding is a pure
//!   function of the slot values — *never* of the interner's current
//!   size — so a key packs identically whenever it is built and packed
//!   keys compare equal iff the original keys do. (A width table derived
//!   from the interner's live id range would be narrower still, but two
//!   probes of the same state at different interner sizes would then
//!   disagree byte-for-byte and dedup would no longer be exact; the
//!   varint form keeps the per-slot width *self-describing*.)
//! * **[`PackedStateTable`]** — an arena of packed keys plus an
//!   8-bytes-per-slot, hash-tagged open-addressing index (kept at most
//!   half full; the tag screens non-matching slots without touching the
//!   arena). Entry ids are handed out in insertion order, so they double
//!   as node indices. The index picks a key's slot from the low bits of
//!   [`hash_packed`], which folds the hash's high half into its low half
//!   so that those bits depend on every key byte.
//! * **Spill runs** — when the resident arena crosses a threshold it is
//!   frozen into an immutable, hash-sorted *run* on disk (full packed
//!   key bytes included, so probes compare exactly — fingerprints alone
//!   would be approximate) and the resident tier restarts empty. The
//!   exact set is then bounded by disk, not RAM. Each run keeps a seeded
//!   Bloom filter ([`KeyFilter`]) in RAM that screens out probes for keys
//!   it does not hold; a *maybe* always falls through to the exact
//!   on-disk search. Spill files live in the system temp directory and
//!   are unlinked at creation (the handle keeps them alive), so nothing
//!   persists past the search.
//! * **[`WitnessLog`]** — parent links compacted into an append-only
//!   log: one packed `u64` per node (parent, action code, deduplicated
//!   permutation id) plus the node's key [`delta_encode`]d against its
//!   parent's. Schedule reconstruction and key reconstruction
//!   ([`WitnessLog::key_of`]) need only the log — they survive the
//!   visited set spilling to disk.
//!
//! Determinism: every structure here is a pure function of the insertion
//! sequence (seeded hashes, load-factor and spill thresholds checked in
//! insertion order), and the DFS drives insertions in one deterministic
//! order — so outcomes stay byte-identical across runs and storage tiers
//! (asserted end to end in `tests/explore_engine.rs`).

use crate::intern::{FxHashMap, FxHasher};
use std::fs::File;
use std::hash::Hasher;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which storage backend the visited set uses. Both tiers are **exact**
/// — identical verdicts, state counts, leaf counts and witnesses — and
/// both hold the keys in a [`PackedStateTable`]; the spill tier trades
/// probe cost for a resident footprint bounded by its threshold. See the
/// module docs for the exactness argument.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StorageTier {
    /// Bit-packed keys in an arena behind an open-addressing index, all
    /// resident. The [`ExploreConfig`](crate::ExploreConfig) default.
    #[default]
    Packed,
    /// [`Packed`](Self::Packed) plus the file-backed spill tier: the
    /// resident arena freezes into hash-sorted on-disk runs at a
    /// threshold, bounding the exact set by disk instead of RAM.
    PackedSpill,
}

impl StorageTier {
    /// Both tiers, the default first.
    pub const ALL: [StorageTier; 2] = [StorageTier::Packed, StorageTier::PackedSpill];

    /// Parses the CI/CLI spelling: `packed`, `packed+spill`.
    pub fn parse(s: &str) -> Option<StorageTier> {
        match s {
            "packed" => Some(StorageTier::Packed),
            "packed+spill" => Some(StorageTier::PackedSpill),
            _ => None,
        }
    }

    /// The CI/CLI spelling ([`parse`](Self::parse)'s inverse).
    pub fn as_str(self) -> &'static str {
        match self {
            StorageTier::Packed => "packed",
            StorageTier::PackedSpill => "packed+spill",
        }
    }
}

impl std::fmt::Display for StorageTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------
// Varint key packing
// ---------------------------------------------------------------------

/// Appends one `u32` as a canonical LEB128 varint (1–5 bytes, low 7
/// bits first). Canonical: exactly one encoding per value, so packed
/// keys compare equal iff the slot sequences do.
#[inline]
fn push_varint(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

#[inline]
fn varint_len(v: u32) -> usize {
    match v {
        0..=0x7f => 1,
        0x80..=0x3fff => 2,
        0x4000..=0x1f_ffff => 3,
        0x20_0000..=0xfff_ffff => 4,
        _ => 5,
    }
}

/// Reads one varint starting at `pos`, returning `(value, next_pos)`.
///
/// # Panics
///
/// Panics on truncated or over-long input — packed keys are produced
/// only by [`pack_key`]/[`delta_encode`], so malformed bytes are a bug,
/// not an input condition.
#[inline]
fn read_varint(bytes: &[u8], mut pos: usize) -> (u32, usize) {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = bytes[pos];
        pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            assert!(value <= u64::from(u32::MAX), "over-long varint");
            return (value as u32, pos);
        }
        shift += 7;
        assert!(shift < 35, "over-long varint");
    }
}

/// Packs a flat `u32` state key into its canonical varint byte form,
/// appending to `out`. Injective on slot sequences of a fixed length
/// (the engine only ever compares keys of one layout), and
/// insert-time-invariant: the bytes depend on the slot values alone.
pub fn pack_key_into(key: &[u32], out: &mut Vec<u8>) {
    out.reserve(key.len() * 5);
    for &slot in key {
        push_varint(out, slot);
    }
}

/// [`pack_key_into`] into a fresh buffer.
pub fn pack_key(key: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    pack_key_into(key, &mut out);
    out
}

/// The exact byte length [`pack_key`] produces, without encoding. This
/// is the deterministic per-state cost model behind
/// [`ExploreConfig::max_bytes`](crate::ExploreConfig::max_bytes): a pure
/// function of the key, identical whichever storage tier actually holds
/// it.
pub fn packed_key_len(key: &[u32]) -> usize {
    key.iter().map(|&slot| varint_len(slot)).sum()
}

/// Decodes a [`pack_key`] buffer back to its `u32` slots.
///
/// # Panics
///
/// Panics if `bytes` is not a whole number of canonical varints.
pub fn unpack_key(bytes: &[u8]) -> Vec<u32> {
    let mut key = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let (value, next) = read_varint(bytes, pos);
        key.push(value);
        pos = next;
    }
    key
}

// ---------------------------------------------------------------------
// Delta encoding against the parent key
// ---------------------------------------------------------------------

/// Encodes `child` as a patch list against `parent`: the child's length
/// followed by `(position-gap, value)` varint pairs for every slot that
/// differs (with `parent` conceptually zero-padded or truncated to the
/// child's length). The engines build child keys exactly this way on the
/// hot patch path — copy the parent, re-intern the few touched slots —
/// so the delta is naturally tiny: one dirty cell, one program key, the
/// raw bookkeeping words.
pub fn delta_encode(parent: &[u32], child: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    push_varint(&mut out, u32::try_from(child.len()).expect("key fits u32"));
    let mut last = 0usize;
    for (pos, &value) in child.iter().enumerate() {
        let base = parent.get(pos).copied().unwrap_or(0);
        if value != base {
            push_varint(&mut out, u32::try_from(pos - last).expect("gap fits u32"));
            push_varint(&mut out, value);
            last = pos + 1;
        }
    }
    out
}

/// Applies a [`delta_encode`] patch to `parent`, reproducing the child:
/// `delta_decode(p, &delta_encode(p, c)) == c` for every `p`, `c`
/// (property-tested in `tests/proptest_runtime.rs`).
pub fn delta_decode(parent: &[u32], delta: &[u8]) -> Vec<u32> {
    let (len, mut pos) = read_varint(delta, 0);
    let len = len as usize;
    let mut child: Vec<u32> = (0..len)
        .map(|i| parent.get(i).copied().unwrap_or(0))
        .collect();
    let mut at = 0usize;
    while pos < delta.len() {
        let (gap, next) = read_varint(delta, pos);
        let (value, next) = read_varint(delta, next);
        pos = next;
        at += gap as usize;
        child[at] = value;
        at += 1;
    }
    child
}

// ---------------------------------------------------------------------
// Seeded Bloom filter
// ---------------------------------------------------------------------

/// A seeded, deterministic Bloom filter over packed-key hashes: the
/// in-RAM screen of each spill run.
///
/// Semantics: [`maybe_contains`](Self::maybe_contains) returning `false`
/// proves the key was never [`insert`](Self::insert)ed; `true` proves
/// nothing and the caller **must** fall through to the exact tier. The
/// filter is a pure function of `(seed, size, inserted set)` — insertion
/// order never matters (property-tested in `tests/proptest_runtime.rs`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyFilter {
    bits: Vec<u64>,
    /// Bit-index mask; `bits.len() * 64` is a power of two.
    mask: u64,
    seed: u64,
}

impl KeyFilter {
    /// Second mixing constant for the filter's two probe positions
    /// (64-bit golden ratio, as in `splitmix64`).
    const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Creates a filter with `2^log2_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `log2_bits < 6` (below one word) or `> 40` (128 GiB of
    /// filter is a configuration error, not a workload).
    pub fn new(seed: u64, log2_bits: u32) -> Self {
        assert!((6..=40).contains(&log2_bits), "unreasonable filter size");
        let words = 1usize << (log2_bits - 6);
        KeyFilter {
            bits: vec![0; words],
            mask: (1u64 << log2_bits) - 1,
            seed,
        }
    }

    /// The two probe bit positions for a key hash: independent
    /// seeded mixes of the 64-bit hash, masked to the filter size.
    #[inline]
    fn probes(&self, hash: u64) -> (u64, u64) {
        let a = (hash ^ self.seed).wrapping_mul(Self::MIX);
        let b = a.rotate_right(32).wrapping_mul(Self::MIX) ^ hash;
        (a & self.mask, b & self.mask)
    }

    #[inline]
    fn bit(&self, idx: u64) -> bool {
        self.bits[(idx >> 6) as usize] & (1u64 << (idx & 63)) != 0
    }

    #[inline]
    fn set_bit(&mut self, idx: u64) {
        self.bits[(idx >> 6) as usize] |= 1u64 << (idx & 63);
    }

    /// Records a key hash (see [`hash_packed`]).
    pub fn insert(&mut self, hash: u64) {
        let (a, b) = self.probes(hash);
        self.set_bit(a);
        self.set_bit(b);
    }

    /// `false` = definitely never inserted; `true` = maybe (fall through
    /// to the exact tier).
    pub fn maybe_contains(&self, hash: u64) -> bool {
        let (a, b) = self.probes(hash);
        self.bit(a) && self.bit(b)
    }

    /// Convenience over a raw `u32` key: hash with [`hash_packed`]'s
    /// byte hash after packing. For the engine the hash is computed
    /// once and shared; tests use this form.
    pub fn insert_key(&mut self, key: &[u32]) {
        self.insert(hash_packed(&pack_key(key)));
    }

    /// [`maybe_contains`](Self::maybe_contains) over a raw key.
    pub fn maybe_contains_key(&self, key: &[u32]) -> bool {
        self.maybe_contains(hash_packed(&pack_key(key)))
    }

    fn bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// The `FxHasher` hash of a packed key's bytes with its high half
/// folded into its low half: the shared key hash of the packed index,
/// the spill runs and their Blooms.
///
/// The fold is what keeps the index's probe runs short. `FxHasher` ends
/// every round in a multiply, so the low bits of its raw hash depend
/// only on the low bytes of each 8-byte chunk (plus a few rotated bits
/// per round), while engine keys mostly differ in other bytes. The index
/// and the Blooms read their first position from the low bits; unfolded,
/// a half-empty index scanned over a hundred slots per probe (DESIGN.md
/// §3). The fold leaves the high 32 bits, the index tag, unchanged.
pub fn hash_packed(packed: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(packed);
    let hash = hasher.finish();
    hash ^ (hash >> 32)
}

// ---------------------------------------------------------------------
// Spill runs (file-backed exact tier)
// ---------------------------------------------------------------------

/// Bytes per on-disk run record: `[hash u64][offset u64][len u32][id u32]`.
const RECORD: usize = 24;

/// Distinguishes this process's spill files across tables.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Creates an anonymous scratch file: created in the temp directory and
/// unlinked immediately, so the handle is its only reference and the
/// bytes vanish when the table drops.
fn scratch_file(label: &str) -> File {
    let n = SPILL_COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!(
        "rc-explore-spill-{}-{n}-{label}",
        std::process::id()
    ));
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("creating spill file {}: {e}", path.display()));
    std::fs::remove_file(&path)
        .unwrap_or_else(|e| panic!("unlinking spill file {}: {e}", path.display()));
    file
}

/// One frozen, immutable, hash-sorted batch of the exact tier on disk:
/// a records file (fixed-width, sorted by `(hash, key bytes)`) and a
/// keys file holding the full packed key bytes — probes binary-search
/// the records by hash, then compare the actual key bytes, so disk
/// residency never weakens exactness.
#[derive(Debug)]
struct SpillRun {
    records: File,
    keys: File,
    count: u64,
    min_hash: u64,
    max_hash: u64,
    /// In-RAM Bloom over this run's record hashes, built at freeze time
    /// (LSM-style, ~2 bytes per spilled key): a probe for a key the run
    /// does not hold costs no disk reads in the common case. Purely a
    /// cost screen — a maybe falls through to the exact binary search.
    bloom: KeyFilter,
}

impl SpillRun {
    fn record(&self, i: u64) -> (u64, u64, u32, u32) {
        let mut buf = [0u8; RECORD];
        self.records
            .read_at(&mut buf, i * RECORD as u64)
            .map(|n| assert_eq!(n, RECORD, "short spill record read"))
            .expect("reading spill record");
        (
            u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes")),
            u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")),
            u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")),
            u32::from_le_bytes(buf[20..24].try_into().expect("4 bytes")),
        )
    }

    /// Exact membership probe: the id of `packed` if this run holds it.
    fn get(&self, hash: u64, packed: &[u8]) -> Option<u32> {
        if self.count == 0
            || hash < self.min_hash
            || hash > self.max_hash
            || !self.bloom.maybe_contains(hash)
        {
            return None;
        }
        // First record with hash >= target.
        let (mut lo, mut hi) = (0u64, self.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.record(mid).0 < hash {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut key_buf = Vec::new();
        while lo < self.count {
            let (h, offset, len, id) = self.record(lo);
            if h != hash {
                return None;
            }
            if len as usize == packed.len() {
                key_buf.resize(len as usize, 0);
                self.keys
                    .read_at(&mut key_buf, offset)
                    .map(|n| assert_eq!(n, len as usize, "short spill key read"))
                    .expect("reading spill key");
                if key_buf == packed {
                    return Some(id);
                }
            }
            lo += 1;
        }
        None
    }
}

// ---------------------------------------------------------------------
// The packed, tiered state table
// ---------------------------------------------------------------------

/// Packed entry metadata: arena offset in the low 40 bits, byte length
/// in the high 24.
#[inline]
fn meta_pack(offset: usize, len: usize) -> u64 {
    assert!(offset < 1 << 40, "arena offset exceeds 40 bits");
    assert!(len < 1 << 24, "packed key exceeds 24-bit length");
    offset as u64 | (len as u64) << 40
}

#[inline]
fn meta_unpack(meta: u64) -> (usize, usize) {
    ((meta & ((1 << 40) - 1)) as usize, (meta >> 40) as usize)
}

/// The visited set: deduplicates `&[u32]` state keys into dense
/// insertion-order ids, holding the keys as canonical varint bytes in
/// one arena behind an open-addressing index, with an optional
/// file-backed spill tier (see the module docs).
///
/// Equal insertion sequences give equal `(id, was_new)` results whether
/// or not the table spills (property-tested against a reference map in
/// `tests/proptest_runtime.rs`).
#[derive(Debug)]
pub struct PackedStateTable {
    /// Packed key bytes of the resident entries, concatenated.
    arena: Vec<u8>,
    /// Resident entry metadata (arena offset + length), in insertion
    /// order; resident entry `i` has global id `resident_start + i`.
    meta: Vec<u64>,
    /// Open-addressing slots over the resident entries: `0` = empty,
    /// else the high 32 bits of the entry's key hash (a tag screening
    /// out almost every non-matching slot without touching the arena)
    /// over `resident position + 1`. Length is a power of two, kept at
    /// most half full — linear probing has no SIMD group scan to hide
    /// long runs behind, so probe chains are bought short with slots.
    index: Vec<u64>,
    /// Global id of the first resident entry (everything below lives in
    /// spill runs).
    resident_start: u32,
    /// Total entries across resident + spilled tiers.
    len: u32,
    /// Frozen on-disk runs, oldest first (empty without the spill tier).
    runs: Vec<SpillRun>,
    /// Freeze the resident arena into a run when it reaches this many
    /// bytes; `None` keeps every entry resident.
    spill_threshold: Option<usize>,
    spilled_bytes: usize,
    peak_resident: usize,
    /// Reused packing buffer, so the per-insert hot path never
    /// allocates.
    scratch: Vec<u8>,
}

/// Index slot for resident position `pos` under `hash`: nonzero because
/// the low half is `pos + 1 ≥ 1`.
#[inline]
fn slot_pack(hash: u64, pos: usize) -> u64 {
    (hash & !0xffff_ffff) | (pos as u64 + 1)
}

impl PackedStateTable {
    /// Seed of the spill runs' Blooms: fixed, so their behaviour (and
    /// therefore probe *cost*, never outcomes) is reproducible.
    const BLOOM_SEED: u64 = 0xcafe_f00d_d15e_a5e5;
    const INITIAL_SLOTS: usize = 64;

    /// Creates a packed table. `spill_threshold` switches the disk tier
    /// on: the resident arena size that triggers a freeze (`None` keeps
    /// every entry resident).
    pub fn new(spill_threshold: Option<usize>) -> Self {
        PackedStateTable {
            arena: Vec::new(),
            meta: Vec::new(),
            index: vec![0; Self::INITIAL_SLOTS],
            resident_start: 0,
            len: 0,
            runs: Vec::new(),
            spill_threshold: spill_threshold.map(|bytes| bytes.max(1)),
            spilled_bytes: 0,
            peak_resident: 0,
            scratch: Vec::new(),
        }
    }

    fn packed_entry(&self, pos: usize) -> &[u8] {
        let (offset, len) = meta_unpack(self.meta[pos]);
        &self.arena[offset..offset + len]
    }

    /// Probes the resident index for `packed`: `Ok(global id)` on a hit,
    /// `Err(free slot)` on a miss. The arena is only compared on an
    /// index-tag match.
    fn probe_resident(&self, hash: u64, packed: &[u8]) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let tag = hash & !0xffff_ffff;
        let mut slot = hash as usize & mask;
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                s => {
                    let pos = (s as u32 - 1) as usize;
                    if s & !0xffff_ffff == tag && self.packed_entry(pos) == packed {
                        return Ok(self.resident_start + pos as u32);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    fn probe_spill(&self, hash: u64, packed: &[u8]) -> Option<u32> {
        self.runs.iter().find_map(|run| run.get(hash, packed))
    }

    /// Looks up `key` without inserting (exact across both tiers).
    pub fn get(&self, key: &[u32]) -> Option<u32> {
        let packed = pack_key(key);
        let hash = hash_packed(&packed);
        self.probe_resident(hash, &packed)
            .ok()
            .or_else(|| self.probe_spill(hash, &packed))
    }

    /// Inserts `key`, returning `(id, was_new)` with ids in insertion
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct keys are inserted.
    pub fn insert(&mut self, key: &[u32]) -> (u32, bool) {
        let mut packed = std::mem::take(&mut self.scratch);
        packed.clear();
        pack_key_into(key, &mut packed);
        let hash = hash_packed(&packed);
        let found = self
            .probe_resident(hash, &packed)
            .or_else(|slot| self.probe_spill(hash, &packed).ok_or(slot));
        let slot = match found {
            Ok(id) => {
                self.scratch = packed;
                return (id, false);
            }
            Err(slot) => slot,
        };
        let id = self.len;
        assert!(id < u32::MAX, "state table overflow");
        self.len += 1;
        let offset = self.arena.len();
        self.arena.extend_from_slice(&packed);
        u32::try_from(self.meta.len() + 1).expect("resident entries fit u32");
        self.index[slot] = slot_pack(hash, self.meta.len());
        self.meta.push(meta_pack(offset, packed.len()));
        self.scratch = packed;
        if self.meta.len() * 2 >= self.index.len() {
            self.rehash(self.index.len() * 2);
        }
        self.peak_resident = self.peak_resident.max(self.resident_bytes());
        if self
            .spill_threshold
            .is_some_and(|threshold| self.arena.len() >= threshold)
        {
            self.freeze_run();
        }
        (id, true)
    }

    /// Number of distinct keys inserted (resident + spilled).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Accounted resident bytes: arena + index slots + entry metadata +
    /// the spill runs' in-RAM Blooms.
    pub fn resident_bytes(&self) -> usize {
        self.arena.len()
            + self.index.len() * 8
            + self.meta.len() * 8
            + self.runs.iter().map(|run| run.bloom.bytes()).sum::<usize>()
    }

    /// Peak accounted resident bytes over the table's lifetime,
    /// including the present (resident usage drops at every spill
    /// freeze, so the peak can exceed the final
    /// [`resident_bytes`](Self::resident_bytes) — never undershoot it).
    pub fn peak_resident_bytes(&self) -> usize {
        self.peak_resident.max(self.resident_bytes())
    }

    /// Total bytes written to spill runs.
    pub fn spilled_bytes(&self) -> usize {
        self.spilled_bytes
    }

    fn rehash(&mut self, slots: usize) {
        self.index = vec![0; slots];
        let mask = slots - 1;
        for pos in 0..self.meta.len() {
            let hash = hash_packed(self.packed_entry(pos));
            let mut slot = hash as usize & mask;
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = slot_pack(hash, pos);
        }
    }

    /// Freezes the resident entries into one immutable hash-sorted
    /// on-disk run and restarts the resident tier empty.
    fn freeze_run(&mut self) {
        let hashes: Vec<u64> = (0..self.meta.len())
            .map(|pos| hash_packed(self.packed_entry(pos)))
            .collect();
        let mut order: Vec<u32> = (0..self.meta.len() as u32).collect();
        order.sort_by(|&a, &b| {
            hashes[a as usize].cmp(&hashes[b as usize]).then_with(|| {
                self.packed_entry(a as usize)
                    .cmp(self.packed_entry(b as usize))
            })
        });
        let bloom_log2 = (order.len().max(4) * 16)
            .next_power_of_two()
            .trailing_zeros()
            .clamp(6, 40);
        let mut bloom = KeyFilter::new(Self::BLOOM_SEED, bloom_log2);
        let mut records = scratch_file("records");
        let mut keys = scratch_file("keys");
        let mut record_buf: Vec<u8> = Vec::with_capacity(order.len() * RECORD);
        let mut key_offset = 0u64;
        let (mut min_hash, mut max_hash) = (u64::MAX, 0u64);
        for &pos in &order {
            let packed = self.packed_entry(pos as usize);
            let hash = hashes[pos as usize];
            bloom.insert(hash);
            min_hash = min_hash.min(hash);
            max_hash = max_hash.max(hash);
            record_buf.extend_from_slice(&hash.to_le_bytes());
            record_buf.extend_from_slice(&key_offset.to_le_bytes());
            record_buf
                .extend_from_slice(&u32::try_from(packed.len()).expect("key len").to_le_bytes());
            record_buf.extend_from_slice(&(self.resident_start + pos).to_le_bytes());
            keys.write_all(packed).expect("writing spill keys");
            key_offset += packed.len() as u64;
        }
        records
            .write_all(&record_buf)
            .expect("writing spill records");
        self.spilled_bytes += record_buf.len() + key_offset as usize;
        self.runs.push(SpillRun {
            records,
            keys,
            count: order.len() as u64,
            min_hash,
            max_hash,
            bloom,
        });
        self.arena.clear();
        self.meta.clear();
        self.index = vec![0; Self::INITIAL_SLOTS];
        self.resident_start = self.len;
    }

    /// Mean slots scanned by a successful resident probe: each entry's
    /// distance from its home slot, plus one.
    #[cfg(test)]
    fn mean_probe_len(&self) -> f64 {
        let mask = self.index.len() - 1;
        let mut scanned = 0usize;
        for (slot, &s) in self.index.iter().enumerate() {
            if s != 0 {
                let pos = (s as u32 - 1) as usize;
                let home = hash_packed(self.packed_entry(pos)) as usize & mask;
                scanned += (slot.wrapping_sub(home) & mask) + 1;
            }
        }
        scanned as f64 / self.meta.len().max(1) as f64
    }
}

// ---------------------------------------------------------------------
// The witness log
// ---------------------------------------------------------------------

/// Packed per-node link: parent in the low 32 bits, deduplicated
/// permutation id in the next 20, action code in the high 12.
#[inline]
fn link_pack(parent: u32, perm_id: u32, action: u16) -> u64 {
    assert!(perm_id < 1 << 20, "more than 2^20 distinct permutations");
    assert!(action < 1 << 12, "action code exceeds 12 bits");
    u64::from(parent) | u64::from(perm_id) << 32 | u64::from(action) << 52
}

#[inline]
fn link_unpack(link: u64) -> (u32, u32, u16) {
    (
        link as u32,
        (link >> 32) as u32 & ((1 << 20) - 1),
        (link >> 52) as u16,
    )
}

/// The append-only witness log: the compacted replacement for one
/// heap-allocated parent link per node.
///
/// Per accepted node it stores one packed `u64` (parent index, action
/// code, permutation id — permutations are interned in a side table, so
/// a canonicalization permutation is boxed once per *distinct*
/// permutation instead of once per node) plus the node's key
/// [`delta_encode`]d against its parent's key. Schedule reconstruction
/// ([`link`](Self::link) walks) and full key reconstruction
/// ([`key_of`](Self::key_of)) read only the log — both survive the
/// visited set spilling to disk.
///
/// Action codes are engine-defined (`u16`, `0` reserved for the root);
/// the log never interprets them.
#[derive(Debug, Default)]
pub struct WitnessLog {
    links: Vec<u64>,
    perms: Vec<Box<[u8]>>,
    perm_ids: FxHashMap<Box<[u8]>, u32>,
    deltas: Vec<u8>,
    /// Exclusive end offset of each node's delta in `deltas`.
    ends: Vec<u64>,
}

impl WitnessLog {
    /// Root sentinel parent (the root has no incoming edge).
    const NO_PARENT: u32 = u32::MAX;

    /// Creates an empty log.
    pub fn new() -> Self {
        WitnessLog::default()
    }

    /// Appends node `len()`'s edge: its parent (or `None` for the root),
    /// the engine's action code (`0` iff root), the canonicalization
    /// permutation (`None` = identity) and the parent → child key delta
    /// (the root deltas against the empty key).
    pub fn push(
        &mut self,
        parent: Option<u32>,
        action: u16,
        perm: Option<&[u8]>,
        parent_key: &[u32],
        key: &[u32],
    ) {
        debug_assert_eq!(parent.is_none(), action == 0, "code 0 is the root's");
        let perm_id = match perm {
            None => 0,
            Some(perm) => match self.perm_ids.get(perm) {
                Some(&id) => id,
                None => {
                    let id = u32::try_from(self.perms.len() + 1).expect("perm ids fit u32");
                    self.perms.push(Box::from(perm));
                    self.perm_ids.insert(Box::from(perm), id);
                    id
                }
            },
        };
        self.links.push(link_pack(
            parent.unwrap_or(Self::NO_PARENT),
            perm_id,
            action,
        ));
        self.deltas
            .extend_from_slice(&delta_encode(parent_key, key));
        self.ends.push(self.deltas.len() as u64);
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether no node was pushed yet.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Node `idx`'s incoming edge: `(parent, action code, permutation)`,
    /// or `None` at the root.
    pub fn link(&self, idx: u32) -> Option<(u32, u16, Option<&[u8]>)> {
        let (parent, perm_id, action) = link_unpack(self.links[idx as usize]);
        if parent == Self::NO_PARENT {
            return None;
        }
        let perm = (perm_id != 0).then(|| &*self.perms[(perm_id - 1) as usize]);
        Some((parent, action, perm))
    }

    fn delta_of(&self, idx: u32) -> &[u8] {
        let end = self.ends[idx as usize] as usize;
        let start = if idx == 0 {
            0
        } else {
            self.ends[idx as usize - 1] as usize
        };
        &self.deltas[start..end]
    }

    /// Reconstructs node `idx`'s full key by replaying deltas root-down
    /// — no visited-set lookup involved (asserted equal to
    /// the engine-built keys in the runtime test suite).
    pub fn key_of(&self, idx: u32) -> Vec<u32> {
        let mut chain = vec![idx];
        let mut at = idx;
        while let Some((parent, _, _)) = self.link(at) {
            chain.push(parent);
            at = parent;
        }
        let mut key: Vec<u32> = Vec::new();
        for &node in chain.iter().rev() {
            key = delta_decode(&key, self.delta_of(node));
        }
        key
    }

    /// Accounted bytes held by the log (links + deltas + interned
    /// permutations).
    pub fn bytes(&self) -> usize {
        self.links.len() * 8
            + self.ends.len() * 8
            + self.deltas.len()
            + self.perms.iter().map(|p| p.len() + 16).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn varint_round_trips_across_widths() {
        for v in [
            0u32,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            0x1f_ffff,
            0x20_0000,
            0xfff_ffff,
            0x1000_0000,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "{v:#x}");
            let (back, used) = read_varint(&buf, 0);
            assert_eq!((back, used), (v, buf.len()), "{v:#x}");
        }
    }

    #[test]
    fn pack_unpack_round_trips_and_len_agrees() {
        let keys: [&[u32]; 4] = [
            &[],
            &[0, 0, 0],
            &[1, 127, 128, 300_000, u32::MAX],
            &[u32::MAX - 2, 0, 42],
        ];
        for key in keys {
            let packed = pack_key(key);
            assert_eq!(packed.len(), packed_key_len(key));
            assert_eq!(unpack_key(&packed), key);
        }
    }

    #[test]
    fn delta_round_trips_including_length_changes() {
        let cases: [(&[u32], &[u32]); 5] = [
            (&[], &[5, 0, 7]),
            (&[5, 0, 7], &[5, 0, 7]),
            (&[5, 0, 7], &[5, 9, 7]),
            (&[5, 0, 7], &[5, 0]),
            (&[1, 2], &[1, 2, 3, 4]),
        ];
        for (parent, child) in cases {
            let delta = delta_encode(parent, child);
            assert_eq!(
                delta_decode(parent, &delta),
                child,
                "{parent:?} -> {child:?}"
            );
        }
    }

    /// The reference semantics: a std map handing out ids in insertion
    /// order.
    fn reference_insert(map: &mut HashMap<Vec<u32>, u32>, key: &[u32]) -> (u32, bool) {
        if let Some(&id) = map.get(key) {
            return (id, false);
        }
        let id = u32::try_from(map.len()).expect("fits u32");
        map.insert(key.to_vec(), id);
        (id, true)
    }

    #[test]
    fn packed_table_matches_a_reference_map() {
        let mut packed = PackedStateTable::new(None);
        let mut reference = HashMap::new();
        let keys: Vec<Vec<u32>> = (0..200u32)
            .map(|i| vec![i % 50, i / 3, 7, i % 2, 1 << (i % 31)])
            .collect();
        assert!(packed.is_empty());
        for key in keys.iter().chain(keys.iter()) {
            assert_eq!(packed.insert(key), reference_insert(&mut reference, key));
        }
        assert_eq!(packed.len(), reference.len());
        for key in &keys {
            assert_eq!(packed.get(key), reference.get(key).copied());
        }
        assert_eq!(packed.get(&[9, 9, 9, 9, 9]), None);
        let next = u32::try_from(packed.len()).expect("fits u32");
        assert_eq!(packed.insert(&[]), (next, true));
        assert_eq!(packed.insert(&[]), (next, false));
    }

    #[test]
    fn spill_tier_stays_exact() {
        // A tiny threshold forces many freezes.
        let mut table = PackedStateTable::new(Some(64));
        let mut reference = HashMap::new();
        let keys: Vec<Vec<u32>> = (0..600u32).map(|i| vec![i, i ^ 0xab, i % 7]).collect();
        for key in keys.iter().chain(keys.iter().rev()) {
            assert_eq!(table.insert(key), reference_insert(&mut reference, key));
        }
        for key in &keys {
            assert_eq!(table.get(key), reference.get(key).copied());
        }
        assert_eq!(table.get(&[1, 2]), None);
        assert!(table.spilled_bytes() > 0, "threshold 64 must have spilled");
    }

    /// `FxHasher`'s raw low bits see only the low bytes of each 8-byte
    /// chunk: without the fold in [`hash_packed`], keys differing in
    /// bytes 2–3 alone would all take one 12-bit slot.
    #[test]
    fn slot_bits_depend_on_every_key_byte() {
        let slots: HashSet<u64> = (0..4096u16)
            .map(|i| {
                let mut bytes = [0u8; 8];
                bytes[2..4].copy_from_slice(&i.to_le_bytes());
                hash_packed(&bytes) & 0xfff
            })
            .collect();
        assert!(slots.len() >= 1024, "{} distinct slots", slots.len());
    }

    /// Engine-shaped keys (mostly equal slots, a few varying) find
    /// their entries within two slots on average; without the fold in
    /// [`hash_packed`] these keys needed over a hundred.
    #[test]
    fn engine_shaped_keys_probe_short() {
        let mut table = PackedStateTable::new(None);
        for i in 0..50_000u32 {
            let mut key = [1u32; 24];
            key[5] = 1 + i % 37;
            key[13] = 1 + i / 37 % 37;
            key[21] = 1 + i / (37 * 37);
            assert!(table.insert(&key).1);
        }
        let mean = table.mean_probe_len();
        assert!(mean <= 2.0, "mean successful probe scans {mean:.2} slots");
    }

    #[test]
    fn key_filter_is_order_independent_and_exactness_safe() {
        let keys: Vec<Vec<u32>> = (0..300u32).map(|i| vec![i, i * 3, 9]).collect();
        let mut forward = KeyFilter::new(7, 14);
        let mut backward = KeyFilter::new(7, 14);
        for key in &keys {
            forward.insert_key(key);
        }
        for key in keys.iter().rev() {
            backward.insert_key(key);
        }
        assert_eq!(forward, backward, "pure function of the set");
        for key in &keys {
            assert!(forward.maybe_contains_key(key), "no false negatives");
        }
    }

    #[test]
    fn witness_log_reconstructs_links_and_keys() {
        let mut log = WitnessLog::new();
        let root = vec![3u32, 0, 5, 0];
        let child = vec![3u32, 9, 5, 1];
        let grand = vec![4u32, 9, 5, 2];
        let perm: &[u8] = &[1, 0];
        log.push(None, 0, None, &[], &root);
        log.push(Some(0), 11, Some(perm), &root, &child);
        log.push(Some(1), 7, Some(perm), &child, &grand);
        assert_eq!(log.len(), 3);
        assert_eq!(log.link(0), None);
        assert_eq!(log.link(1), Some((0, 11, Some(perm))));
        assert_eq!(log.link(2), Some((1, 7, Some(perm))));
        assert_eq!(log.perms.len(), 1, "identical permutations intern once");
        assert_eq!(log.key_of(0), root);
        assert_eq!(log.key_of(1), child);
        assert_eq!(log.key_of(2), grand);
        assert!(log.bytes() > 0);
    }
}
