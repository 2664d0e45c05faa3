//! Hash-consing for [`Value`]s, and the hash behind the checker's tables.
//!
//! The exhaustive checker ([`explore`](crate::explore)) memoizes every
//! reached system state. Structural keys — cloned `Vec<Value>` tuples —
//! are exact but allocation-heavy: every visited-set probe cloned the
//! entire shared memory, every program's volatile state and the decided
//! value, then hashed those deep structures with the default `SipHash`.
//!
//! [`ValueInterner`] replaces them: it hash-conses [`Value`]s into dense
//! `u32` ids. Each distinct value is cloned **once** ever; subsequent
//! probes hash the (typically tiny) value and compare ids. Interning is
//! injective: `intern(a) == intern(b)` **iff** `a == b` — so keys built
//! from ids are exactly as collision-free as the structural tuples they
//! replace (property-tested in `tests/proptest_runtime.rs`). The engine
//! builds flat `&[u32]` state keys from these ids (interned memory
//! cells, program keys, packed decided bits, crash count, decided value)
//! and deduplicates them in the packed visited set
//! ([`PackedStateTable`](crate::PackedStateTable)).
//!
//! The interner and the visited set hash with [`FxHasher`], the
//! Firefox/rustc multiply-rotate hash — far cheaper than `SipHash` for
//! short keys and not exposed to untrusted input here.

use rc_spec::Value;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The `FxHash` function (as used by rustc): a fast, non-cryptographic
/// hasher for in-process hash tables keyed by small values.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let remainder = chunks.remainder();
        if !remainder.is_empty() {
            // Length-tagged so e.g. [0] hashes differently from [].
            let mut tail = remainder.len() as u64;
            for &b in remainder {
                tail = (tail << 8) | u64::from(b);
            }
            self.add(tail);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]-backed tables.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A hash-consing table: [`Value`] → dense `u32` id.
///
/// # Example
///
/// ```
/// use rc_runtime::ValueInterner;
/// use rc_spec::Value;
///
/// let mut interner = ValueInterner::new();
/// let a = interner.intern(&Value::Int(3));
/// let b = interner.intern(&Value::pair(Value::Int(3), Value::Bottom));
/// assert_ne!(a, b);
/// assert_eq!(a, interner.intern(&Value::Int(3)), "same value, same id");
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ValueInterner {
    ids: FxHashMap<Value, u32>,
    /// `values[id]` is the value interned as `id`: the way back from an
    /// id, which a step memo miss reads cells and decisions through.
    values: Vec<Value>,
    /// `ranks[id]` is `id`'s position in the structural order
    /// (`Value::cmp`) of every value interned so far, so the checker
    /// orders interned values by comparing two `u32`s
    /// ([`rank`](Self::rank)).
    ranks: Vec<u32>,
    /// Every id, in the structural order of its value:
    /// `sorted[ranks[id]] == id`.
    sorted: Vec<u32>,
    /// Approximate resident bytes of the interned values, accumulated
    /// at first sight (see [`approx_bytes`](Self::approx_bytes)).
    bytes: usize,
}

/// Approximate heap bytes of one [`Value`]: the enum footprint plus
/// recursively-owned payloads (string bytes, tuple/list elements). A
/// pure function of the value, so the account stays deterministic.
fn approx_value_bytes(value: &Value) -> usize {
    let own = std::mem::size_of::<Value>();
    match value {
        Value::Bottom | Value::Unit | Value::Bool(_) | Value::Int(_) => own,
        Value::Sym(s) => own + s.len(),
        Value::Tuple(items) | Value::List(items) => {
            own + items.iter().map(approx_value_bytes).sum::<usize>()
        }
    }
}

impl ValueInterner {
    /// Sentinel id used by key builders for "no value" slots (e.g. the
    /// checker's *no decided value yet*). Never returned by
    /// [`intern`](Self::intern).
    pub const NONE: u32 = u32::MAX;

    /// Approximate per-entry map overhead beyond the value payload:
    /// the `u32` id and hash-bucket slack.
    const ENTRY_OVERHEAD: usize = 40;

    /// Creates an empty interner.
    pub fn new() -> Self {
        ValueInterner::default()
    }

    /// Returns the id of `value`, interning (and cloning) it on first
    /// sight. Injective: two values receive the same id iff they are
    /// structurally equal. Ids are handed out densely in first-intern
    /// order.
    ///
    /// First sight also ranks the value among those interned so far: a
    /// binary search by `Value::cmp`, then every higher rank moves up by
    /// one — `O(len)` per new value. A checker search interns a few
    /// hundred values; a hit costs one hash probe as before.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX - 1` distinct values are interned
    /// (far beyond any feasible state space).
    pub fn intern(&mut self, value: &Value) -> u32 {
        if let Some(&id) = self.ids.get(value) {
            return id;
        }
        let id = u32::try_from(self.ids.len()).expect("interner overflow");
        assert!(id < Self::NONE, "interner overflow");
        self.bytes += approx_value_bytes(value) + Self::ENTRY_OVERHEAD;
        self.ids.insert(value.clone(), id);
        let rank = self
            .sorted
            .partition_point(|&other| self.values[other as usize] < *value);
        self.sorted.insert(rank, id);
        self.ranks.push(0);
        for (r, &other) in self.sorted.iter().enumerate().skip(rank) {
            self.ranks[other as usize] = r as u32;
        }
        self.values.push(value.clone());
        id
    }

    /// The value interned as `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`intern`](Self::intern)
    /// (including [`NONE`](Self::NONE)).
    pub(crate) fn value(&self, id: u32) -> &Value {
        &self.values[id as usize]
    }

    /// The rank of `id`'s value among the values interned so far:
    /// `rank(a) < rank(b)` iff `value(a) < value(b)` by `Value::cmp`.
    /// A later first sight may shift ranks, never their relative order.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`intern`](Self::intern).
    #[inline]
    pub(crate) fn rank(&self, id: u32) -> u32 {
        self.ranks[id as usize]
    }

    /// Approximate resident bytes of the interned values (payloads +
    /// per-entry map overhead), feeding the memory counters in
    /// [`ExploreStats`](crate::ExploreStats). Deterministic: a pure
    /// function of the interned set.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_is_injective_on_a_value_zoo() {
        let zoo = [
            Value::Bottom,
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::sym("A"),
            Value::sym("B"),
            Value::pair(Value::Int(0), Value::Int(1)),
            Value::pair(Value::Int(1), Value::Int(0)),
            Value::Tuple(vec![Value::Int(0)]),
            Value::List(vec![Value::Int(0)]),
            Value::empty_list(),
            Value::Tuple(Vec::new()),
        ];
        let mut interner = ValueInterner::new();
        let ids: Vec<u32> = zoo.iter().map(|v| interner.intern(v)).collect();
        for (i, a) in zoo.iter().enumerate() {
            for (j, b) in zoo.iter().enumerate() {
                assert_eq!((a == b), (ids[i] == ids[j]), "{a} vs {b}");
            }
        }
        // Stability: re-interning yields the same ids.
        let again: Vec<u32> = zoo.iter().map(|v| interner.intern(v)).collect();
        assert_eq!(ids, again);
        // Every id leads back to the value it was interned for.
        for (v, &id) in zoo.iter().zip(&ids) {
            assert_eq!(interner.value(id), v);
        }
        assert_eq!(interner.len(), zoo.len());
    }

    /// Ranks order ids exactly as `Value::cmp` orders their values,
    /// whatever order the values were first interned in; ids stay dense
    /// in first-intern order, and the byte account ignores the ranks.
    #[test]
    fn ranks_follow_the_structural_order_in_every_intern_order() {
        let pair = |a: Value, b: Value| Value::pair(a, b);
        let zoo = [
            Value::Bottom,
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-7),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(1),
            Value::Int(42),
            Value::sym("A"),
            Value::sym("B"),
            Value::sym("AB"),
            Value::Tuple(Vec::new()),
            Value::Tuple(vec![Value::Int(0)]),
            Value::Tuple(vec![Value::Bottom, Value::sym("A"), Value::Int(-1)]),
            Value::empty_list(),
            Value::List(vec![Value::Int(0)]),
            Value::List(vec![Value::Int(0), Value::Int(1)]),
            Value::List(vec![pair(Value::Unit, Value::Bool(true))]),
            pair(Value::Int(0), Value::Int(1)),
            pair(Value::Int(1), Value::Int(0)),
            pair(Value::Int(-1), Value::Bottom),
            pair(pair(Value::Int(0), Value::Bottom), Value::sym("B")),
            pair(pair(Value::Int(0), Value::Unit), Value::sym("A")),
            pair(Value::Bottom, pair(Value::Bool(false), Value::empty_list())),
        ];
        let bytes: usize = zoo
            .iter()
            .map(|v| approx_value_bytes(v) + ValueInterner::ENTRY_OVERHEAD)
            .sum();
        // The zoo forwards, backwards and in a few seeded shuffles.
        let mut orders: Vec<Vec<usize>> =
            vec![(0..zoo.len()).collect(), (0..zoo.len()).rev().collect()];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..6 {
            let mut order: Vec<usize> = (0..zoo.len()).collect();
            for i in (1..order.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                order.swap(i, (state % (i as u64 + 1)) as usize);
            }
            orders.push(order);
        }
        for order in &orders {
            let mut interner = ValueInterner::new();
            for (next, &i) in order.iter().enumerate() {
                assert_eq!(
                    interner.intern(&zoo[i]) as usize,
                    next,
                    "first-intern order"
                );
            }
            for &i in order {
                for &j in order {
                    let (a, b) = (interner.intern(&zoo[i]), interner.intern(&zoo[j]));
                    assert_eq!(
                        interner.rank(a).cmp(&interner.rank(b)),
                        zoo[i].cmp(&zoo[j]),
                        "{} vs {} in order {order:?}",
                        zoo[i],
                        zoo[j]
                    );
                }
            }
            assert_eq!(interner.approx_bytes(), bytes, "order {order:?}");
        }
    }

    #[test]
    fn fx_hasher_distinguishes_byte_strings() {
        fn h(bytes: &[u8]) -> u64 {
            let mut hasher = FxHasher::default();
            hasher.write(bytes);
            hasher.finish()
        }
        assert_ne!(h(b"abc"), h(b"abd"));
        assert_ne!(h(b"abcdefgh"), h(b"abcdefgi"));
        assert_ne!(h(b""), h(b"\0"));
    }
}
