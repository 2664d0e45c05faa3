//! Bit-packed state storage for the exhaustive checker.
//!
//! The visited set is the model checker's scaling wall. It lives in one
//! in-RAM table, [`PackedStateTable`]. Every part is exact:
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
//!   arena). Entries get dense ids in insertion order. The index picks a
//!   key's slot from the low bits of `hash_packed`, which folds the
//!   hash's high half into its low half so that those bits depend on
//!   every key byte.
//!
//! The table is the only per-state store of a search. Nothing here
//! records how a state was reached: the checker reads a violation's
//! schedule off its DFS stack (see the `explore` module docs).
//!
//! Determinism: every structure here is a pure function of the insertion
//! sequence (a fixed hash, the load factor checked in insertion order),
//! and the DFS drives insertions in one deterministic order — so
//! outcomes stay byte-identical across runs (asserted end to end in
//! `tests/explore_engine.rs`).

use crate::intern::FxHasher;
use std::hash::Hasher;

/// Which storage backend the visited set uses. There is one, the
/// in-RAM [`PackedStateTable`]; the type remains as the type of
/// [`ExploreConfig::storage`](crate::ExploreConfig), which the
/// benchmark harness echoes in its config.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StorageTier {
    /// Bit-packed keys in an arena behind an open-addressing index, all
    /// in RAM.
    #[default]
    Packed,
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

/// Reads one varint starting at `pos`, returning `(value, next_pos)`.
///
/// # Panics
///
/// Panics on truncated or over-long input — packed keys are produced
/// only by [`pack_key`], so malformed bytes are a bug,
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

/// [`pack_key`] appending to `out`, so the table's hot path reuses one
/// buffer.
fn pack_key_into(key: &[u32], out: &mut Vec<u8>) {
    out.reserve(key.len() * 5);
    for &slot in key {
        push_varint(out, slot);
    }
}

/// Packs a flat `u32` state key into its canonical varint byte form.
/// Injective on slot sequences of a fixed length (the engine only ever
/// compares keys of one layout), and insert-time-invariant: the bytes
/// depend on the slot values alone.
pub fn pack_key(key: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    pack_key_into(key, &mut out);
    out
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

/// The `FxHasher` hash of a packed key's bytes with its high half
/// folded into its low half: the key hash of the packed index.
///
/// The fold is what keeps the index's probe runs short. `FxHasher` ends
/// every round in a multiply, so the low bits of its raw hash depend
/// only on the low bytes of each 8-byte chunk (plus a few rotated bits
/// per round), while engine keys mostly differ in other bytes. The index
/// reads its first position from the low bits; unfolded, a half-empty
/// index scanned over a hundred slots per probe (DESIGN.md §3). The fold
/// leaves the high 32 bits, the index tag, unchanged.
fn hash_packed(packed: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(packed);
    let hash = hasher.finish();
    hash ^ (hash >> 32)
}

// ---------------------------------------------------------------------
// The packed state table
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
/// one in-RAM arena behind an open-addressing index (see the module
/// docs).
///
/// Equal insertion sequences give equal `(id, was_new)` results
/// (property-tested against a reference map in
/// `tests/proptest_runtime.rs`).
#[derive(Debug)]
pub struct PackedStateTable {
    /// Packed key bytes of every entry, concatenated.
    arena: Vec<u8>,
    /// Entry metadata (arena offset + length), in insertion order: entry
    /// `id` is `meta[id]`.
    meta: Vec<u64>,
    /// Open-addressing slots over the entries: `0` = empty, else the
    /// high 32 bits of the entry's key hash (a tag screening out almost
    /// every non-matching slot without touching the arena) over
    /// `id + 1`. Length is a power of two, kept at most half full —
    /// linear probing has no SIMD group scan to hide long runs behind,
    /// so probe chains are bought short with slots.
    index: Vec<u64>,
    /// Reused packing buffer, so the per-insert hot path never
    /// allocates.
    scratch: Vec<u8>,
}

/// Index slot for entry `id` under `hash`: nonzero because the low half
/// is `id + 1 ≥ 1`.
#[inline]
fn slot_pack(hash: u64, id: usize) -> u64 {
    (hash & !0xffff_ffff) | (id as u64 + 1)
}

impl Default for PackedStateTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PackedStateTable {
    const INITIAL_SLOTS: usize = 64;

    /// Creates an empty table.
    pub fn new() -> Self {
        PackedStateTable {
            arena: Vec::new(),
            meta: Vec::new(),
            index: vec![0; Self::INITIAL_SLOTS],
            scratch: Vec::new(),
        }
    }

    fn packed_entry(&self, id: usize) -> &[u8] {
        let (offset, len) = meta_unpack(self.meta[id]);
        &self.arena[offset..offset + len]
    }

    /// Probes the index for `packed`: `Ok(id)` on a hit, `Err(free
    /// slot)` on a miss. The arena is only compared on an index-tag
    /// match. Inlined: with this probe out of line, perfbench's
    /// `check-unreduced` read 7% slower (alternated pairs on a 2-vCPU
    /// host).
    #[inline]
    fn probe(&self, hash: u64, packed: &[u8]) -> Result<u32, usize> {
        let mask = self.index.len() - 1;
        let tag = hash & !0xffff_ffff;
        let mut slot = hash as usize & mask;
        loop {
            match self.index[slot] {
                0 => return Err(slot),
                s => {
                    let id = s as u32 - 1;
                    if s & !0xffff_ffff == tag && self.packed_entry(id as usize) == packed {
                        return Ok(id);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Looks up `key` without inserting.
    pub fn get(&self, key: &[u32]) -> Option<u32> {
        let packed = pack_key(key);
        self.probe(hash_packed(&packed), &packed).ok()
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
        let slot = match self.probe(hash, &packed) {
            Ok(id) => {
                self.scratch = packed;
                return (id, false);
            }
            Err(slot) => slot,
        };
        let id = self.meta.len();
        assert!(id < u32::MAX as usize, "state table overflow");
        let offset = self.arena.len();
        self.arena.extend_from_slice(&packed);
        self.index[slot] = slot_pack(hash, id);
        self.meta.push(meta_pack(offset, packed.len()));
        self.scratch = packed;
        if self.meta.len() * 2 >= self.index.len() {
            self.rehash(self.index.len() * 2);
        }
        (id as u32, true)
    }

    /// Number of distinct keys inserted.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Accounted bytes: arena + index slots + entry metadata. The table
    /// only grows, so this is also its peak.
    pub fn resident_bytes(&self) -> usize {
        self.arena.len() + self.index.len() * 8 + self.meta.len() * 8
    }

    fn rehash(&mut self, slots: usize) {
        self.index = vec![0; slots];
        let mask = slots - 1;
        for id in 0..self.meta.len() {
            let hash = hash_packed(self.packed_entry(id));
            let mut slot = hash as usize & mask;
            while self.index[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = slot_pack(hash, id);
        }
    }

    /// Mean slots scanned by a successful probe: each entry's distance
    /// from its home slot, plus one.
    #[cfg(test)]
    fn mean_probe_len(&self) -> f64 {
        let mask = self.index.len() - 1;
        let mut scanned = 0usize;
        for (slot, &s) in self.index.iter().enumerate() {
            if s != 0 {
                let id = (s as u32 - 1) as usize;
                let home = hash_packed(self.packed_entry(id)) as usize & mask;
                scanned += (slot.wrapping_sub(home) & mask) + 1;
            }
        }
        scanned as f64 / self.meta.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Action, ScriptedScheduler};
    use crate::{
        explore_symmetric, replay_on_checker, run, ExploreConfig, ExploreOutcome, MemOps, Memory,
        Program, RunOptions, Step, SymmetrySpec, ViolationKind,
    };
    use rc_spec::Value;
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
            let (back, used) = read_varint(&buf, 0);
            assert_eq!((back, used), (v, buf.len()), "{v:#x}");
        }
    }

    #[test]
    fn pack_unpack_round_trips() {
        let keys: [&[u32]; 4] = [
            &[],
            &[0, 0, 0],
            &[1, 127, 128, 300_000, u32::MAX],
            &[u32::MAX - 2, 0, 42],
        ];
        for key in keys {
            assert_eq!(unpack_key(&pack_key(key)), key);
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
        let mut packed = PackedStateTable::new();
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

    /// The name is the deleted disk tier's; the sequence that forced its
    /// freezes now checks the one in-RAM table while its index doubles
    /// from 64 to 2048 slots: every answer matches the reference map,
    /// and the byte account is the arena plus 8 B per slot and 8 B per
    /// entry.
    #[test]
    fn spill_tier_stays_exact() {
        let mut table = PackedStateTable::new();
        let mut reference = HashMap::new();
        let keys: Vec<Vec<u32>> = (0..600u32).map(|i| vec![i, i ^ 0xab, i % 7]).collect();
        for key in keys.iter().chain(keys.iter().rev()) {
            assert_eq!(table.insert(key), reference_insert(&mut reference, key));
        }
        for key in &keys {
            assert_eq!(table.get(key), reference.get(key).copied());
        }
        assert_eq!(table.get(&[1, 2]), None);
        let arena: usize = keys.iter().map(|key| pack_key(key).len()).sum();
        assert_eq!(table.resident_bytes(), arena + 2048 * 8 + 600 * 8);
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
        let mut table = PackedStateTable::new();
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

    /// The name is the deleted disk tier's Bloom screen; the one table
    /// keeps that contract exactly. Filled forward or backward, it holds
    /// the same keys with the same byte account, misses every key it
    /// was not given, and gives each key its insertion position as id.
    #[test]
    fn key_filter_is_order_independent_and_exactness_safe() {
        let keys: Vec<Vec<u32>> = (0..300u32).map(|i| vec![i, i * 3, 9]).collect();
        let mut forward = PackedStateTable::new();
        let mut backward = PackedStateTable::new();
        for key in &keys {
            forward.insert(key);
        }
        for key in keys.iter().rev() {
            backward.insert(key);
        }
        assert_eq!(forward.resident_bytes(), backward.resident_bytes());
        for (i, key) in (0u32..).zip(&keys) {
            assert_eq!(forward.get(key), Some(i));
            assert_eq!(backward.get(key), Some(299 - i));
            let absent = [key[0], key[1], 8];
            assert_eq!((forward.get(&absent), backward.get(&absent)), (None, None));
        }
    }

    /// Decides its input in its first step.
    #[derive(Clone, Debug)]
    struct DecideOwn(Value);
    impl Program for DecideOwn {
        fn step(&mut self, _: &mut dyn MemOps) -> Step {
            Step::Decided(self.0.clone())
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    /// The name is the deleted witness log's; the checker now reads a
    /// violation's schedule off its DFS stack. Three processes decide
    /// their own inputs 7, 5 and 7, and p0 and p2 form an orbit. Once
    /// p0 has decided, canonicalization moves its payload to slot 2, so
    /// the search's second step, p0 in canonical ids, is p2's. The
    /// schedule, in original pids, replays on `run` and on
    /// `replay_on_checker` to the reported violation.
    #[test]
    fn witness_log_reconstructs_links() {
        let inputs = [7, 5, 7].map(Value::Int);
        let plain = || {
            let programs = inputs
                .iter()
                .map(|v| Box::new(DecideOwn(v.clone())) as Box<dyn Program>)
                .collect();
            (Memory::new(), programs)
        };
        let symmetric = || {
            let (mem, programs) = plain();
            (mem, programs, SymmetrySpec::from_classes(&inputs))
        };
        let config = ExploreConfig {
            inputs: Some(inputs.to_vec()),
            ..ExploreConfig::default()
        };
        let ExploreOutcome::Violation {
            kind,
            schedule,
            outputs,
        } = explore_symmetric(&symmetric, &config)
        else {
            panic!("the inputs disagree");
        };
        assert_eq!(kind, ViolationKind::Agreement);
        assert_eq!(schedule, [0, 2, 1].map(Action::Step));
        assert_eq!(outputs, [7, 5].map(Value::Int));

        // The run stops where the schedule does, so all three processes
        // decide only if its second step is p2's.
        let (mut mem, mut programs) = plain();
        let mut sched = ScriptedScheduler::new(schedule.clone());
        let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
        assert_eq!(exec.all_outputs(), [7, 5, 7].map(Value::Int));
        let replay = replay_on_checker(&plain, &schedule, config.inputs.as_deref());
        assert_eq!(replay.violation, Some((kind, outputs)));
    }
}
