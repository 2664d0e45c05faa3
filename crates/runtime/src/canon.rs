//! Process-symmetry reduction for the model checker.
//!
//! The paper's systems are quantified over *all* processes running the
//! same protocol against one shared object, so the reachable state space
//! is closed under permuting process ids together with their programs,
//! inputs and (declared) per-process memory cells. A [`SymmetrySpec`]
//! names which process ids are interchangeable — *orbits* of processes
//! whose initial program objects (input included) are identical — and
//! the checker then stores only one **canonical representative** per
//! permutation class: before every interner/visited lookup the child
//! state is mapped to the representative, and each frame of the DFS
//! stack keeps the permutation that made its key canonical, so
//! violation witness schedules are renamed back to *original* process
//! ids (see `explore`).
//!
//! ## Soundness
//!
//! Permuting the program slots of two processes `p`, `q` (moving the
//! whole program objects and decided bits together) relabels which
//! scheduler pid drives which program — executions from the permuted
//! state are exactly the pid-renamed executions of the original, and
//! the checked properties (agreement, validity) mention no pid. Two
//! requirements make the quotient exact:
//!
//! * the permutation group **stabilizes the initial state** — otherwise
//!   the quotient search could count states reachable only from a
//!   *renamed* root. That is the orbit condition: members of an orbit
//!   must start with identical program objects (same code, same input;
//!   the checker asserts equal root
//!   [`state_key`](crate::Program::state_key)s, leaning on the same
//!   key-completeness contract the memoization leans on);
//! * shared memory is **address-indexed, not pid-indexed**: program
//!   objects carry their cell addresses internally and travel whole, so
//!   moving a program between slots never de-synchronizes it from the
//!   (unmoved) memory. Systems with per-process *distinguishing* cells
//!   (e.g. one input-masking register per process, written only by its
//!   owner) additionally declare those cells as **owned**
//!   ([`SymmetrySpec::with_owned_cells`]): owned cells permute together
//!   with their owners' payloads, and each relocated program is
//!   *rebound* ([`Program::rebind`](crate::Program::rebind)) so it
//!   points at its destination slot's cells. Soundness of the full-state
//!   quotient needs the **owner-only rule**: a cell owned by a process
//!   of an acting orbit may be referenced by *no other process* — then a
//!   canonical slot's program always references exactly that slot's
//!   cells, `(slot, state key)` still determines behaviour, and every
//!   orbit permutation is a true system automorphism. Cross-referenced
//!   per-process cells (e.g. `SimultaneousRc`'s round registers, which
//!   every process scans) are *not* expressible as owned cells: under a
//!   permutation the scanning program would read other registers than
//!   the original did at the same local state. They *are* expressible
//!   as **scalarset families** ([`SymmetrySpec::with_scalarset`]) when
//!   the cross-reads form an order-insensitive fold: the scalarset
//!   certifier proves every program's local-state graph equivariant
//!   under every family transposition, mid-scan states (which hold
//!   family positions, [`Program::scalarset_pinned`](crate::Program::scalarset_pinned))
//!   are exempted from canonicalization, and the family contents then
//!   permute with the process slots soundly (DESIGN.md §3).
//!   The checker validates both rules at search start against
//!   [`Program::referenced_cells`](crate::Program::referenced_cells)
//!   and the analyzed footprints, and rejects declarations it cannot
//!   prove sound (see DESIGN.md §3).
//!
//! ## Canonical representative
//!
//! Within each orbit, processes are ordered by a total *signature* —
//! `(program state key, decided bit)`, plus the sleep bit and owned and
//! family contents where they apply — compared structurally (the checker
//! reads them as interned ids and compares their interner ranks, which
//! order ids as `Value::cmp` orders their values, never by id order), so
//! the representative choice is identical across runs. Sorting is a true
//! canonical form: two states have equal canonical keys **iff** they are
//! related by an orbit permutation (property-tested in
//! `tests/proptest_runtime.rs`).

use crate::memory::Addr;
use crate::program::Pid;
use std::cmp::Ordering;

/// One orbit: a set of interchangeable process ids.
#[derive(Clone, Debug)]
struct Orbit {
    /// Member pids, ascending. The canonical state keeps these *slots*;
    /// only which member's payload sits in which slot changes.
    pids: Vec<Pid>,
}

/// Which process ids of a system are interchangeable, as declared by the
/// system's factory.
///
/// Use [`SymmetrySpec::full`] when every process runs the same program
/// with the same input, [`SymmetrySpec::from_classes`] to partition by
/// an `Ord` label (team, operation, input, …), or
/// [`SymmetrySpec::trivial`] to declare no symmetry at all. Processes
/// that own per-process *distinguishing* shared cells must stay in
/// separate orbits (see the module docs).
#[derive(Clone, Debug)]
pub struct SymmetrySpec {
    n: usize,
    orbits: Vec<Orbit>,
    /// `owned[p]` — the shared cells owned by process `p`, in declared
    /// order (position `k` of every orbit member's list corresponds).
    /// Empty lists everywhere for a slots-only spec.
    owned: Vec<Vec<Addr>>,
    /// Scalarset families: each entry is one cell per process
    /// (`family[p]` is position `p`'s cell). Family contents permute
    /// with process slots even though the cells are cross-read — sound
    /// only for certified order-insensitive scans (see
    /// [`SymmetrySpec::with_scalarset`]).
    scalarsets: Vec<Vec<Addr>>,
}

impl SymmetrySpec {
    /// No symmetry: every process is its own orbit.
    /// [`is_trivial`](Self::is_trivial) holds, and the checker skips all
    /// canonicalization work.
    pub fn trivial(n: usize) -> Self {
        SymmetrySpec::new(n, (0..n).map(|p| vec![p]).collect())
    }

    /// Full symmetry: all `n` processes are interchangeable (identical
    /// program, identical input).
    pub fn full(n: usize) -> Self {
        SymmetrySpec::new(n, vec![(0..n).collect()])
    }

    /// Builds a spec from explicit orbits.
    ///
    /// # Panics
    ///
    /// Panics if the orbits are not a partition of a subset of `0..n`
    /// (out-of-range, duplicated or repeated pids). Pids missing from
    /// every orbit are treated as singleton orbits.
    pub fn new(n: usize, orbits: Vec<Vec<Pid>>) -> Self {
        assert!(
            n <= u8::MAX as usize,
            "symmetry permutations pack pids into u8"
        );
        let mut seen = vec![false; n];
        let mut parsed = Vec::with_capacity(orbits.len());
        for mut pids in orbits {
            pids.sort_unstable();
            for &p in &pids {
                assert!(p < n, "orbit pid {p} out of range for {n} processes");
                assert!(!seen[p], "pid {p} appears in two orbits");
                seen[p] = true;
            }
            if !pids.is_empty() {
                parsed.push(Orbit { pids });
            }
        }
        SymmetrySpec {
            n,
            orbits: parsed,
            owned: vec![Vec::new(); n],
            scalarsets: Vec::new(),
        }
    }

    /// Groups processes with equal labels into one orbit: processes are
    /// interchangeable iff their `labels` entries compare equal. This is
    /// the factory-facing constructor — label each process by whatever
    /// determines its behaviour (team, operation, input value) and equal
    /// labels become orbits.
    pub fn from_classes<K: Ord>(labels: &[K]) -> Self {
        let mut order: Vec<Pid> = (0..labels.len()).collect();
        order.sort_by(|&a, &b| labels[a].cmp(&labels[b]));
        let mut orbits: Vec<Vec<Pid>> = Vec::new();
        for &p in &order {
            match orbits.last_mut() {
                Some(orbit) if labels[orbit[0]] == labels[p] => orbit.push(p),
                _ => orbits.push(vec![p]),
            }
        }
        SymmetrySpec::new(labels.len(), orbits)
    }

    /// Declares that process `pid` **owns** the given shared cells: under
    /// an orbit permutation that relocates `pid`'s payload, these cells'
    /// contents relocate too (position `k` of the source list moves to
    /// position `k` of the destination process's list), and the moved
    /// program is rebound ([`Program::rebind`](crate::Program::rebind))
    /// to its destination cells. Every member of one orbit must declare
    /// the same number of owned cells, the cells must hold equal values
    /// in the initial state, and no process other than the owner may
    /// ever reference them — all validated at search start (see the
    /// module docs for the soundness argument).
    ///
    /// # Panics
    ///
    /// Panics immediately if `pid` is out of range, already has an
    /// owned-cell list (declare each process once, with its full list),
    /// or a cell is claimed twice (by one process or by two — "claimed
    /// by two orbits" is the cross-orbit shape of the same bug).
    pub fn with_owned_cells(mut self, pid: Pid, cells: Vec<Addr>) -> Self {
        assert!(pid < self.n, "owned-cell pid {pid} out of range");
        assert!(
            self.owned[pid].is_empty(),
            "p{pid} already declared owned cells; declare each process \
             once, with its complete list"
        );
        for &cell in &cells {
            for (q, owned) in self.owned.iter().enumerate() {
                assert!(
                    !owned.contains(&cell),
                    "cell {cell} claimed by two owners (p{q} and p{pid}); \
                     every owned cell belongs to exactly one process"
                );
            }
            assert!(
                cells.iter().filter(|&&c| c == cell).count() == 1,
                "cell {cell} declared twice for p{pid}"
            );
        }
        self.owned[pid] = cells;
        self
    }

    /// Declares a **scalarset family**: one shared cell per process,
    /// `cells[p]` being position `p`'s member. Under an orbit
    /// permutation the family's *contents* permute together with the
    /// process slots — even though, unlike owned cells, every process
    /// may read every member (the Murphi scalarset idea, adapted to
    /// non-atomic scans). This is sound **only** when every program's
    /// reads of the family form an order-insensitive fold; the checker
    /// does not assume it: at search start the scalarset certifier
    /// (`rc_runtime::lint_scalarset` / the `scalarset` module) proves
    /// each program's memoized local-state graph equivariant under
    /// every family transposition, and rejects the declaration
    /// otherwise. Programs whose volatile state holds family positions
    /// mid-scan must report
    /// [`Program::scalarset_pinned`](crate::Program::scalarset_pinned);
    /// pinned states are excluded from canonicalization (bounded loss
    /// of reduction, never unsoundness).
    ///
    /// # Panics
    ///
    /// Panics immediately if the family does not have exactly one cell
    /// per process, repeats a cell, or claims a cell that is already
    /// owned or in another family.
    pub fn with_scalarset(mut self, cells: Vec<Addr>) -> Self {
        assert_eq!(
            cells.len(),
            self.n,
            "a scalarset family names exactly one cell per process \
             ({} processes, {} cells)",
            self.n,
            cells.len()
        );
        for (p, &cell) in cells.iter().enumerate() {
            assert!(
                cells.iter().filter(|&&c| c == cell).count() == 1,
                "cell {cell} appears twice in one scalarset family"
            );
            for (q, owned) in self.owned.iter().enumerate() {
                assert!(
                    !owned.contains(&cell),
                    "scalarset cell {cell} (position {p}) is already owned \
                     by p{q}; a cell is either owned or a family member, \
                     not both"
                );
            }
            for family in &self.scalarsets {
                assert!(
                    !family.contains(&cell),
                    "cell {cell} appears in two scalarset families"
                );
            }
        }
        self.scalarsets.push(cells);
        self
    }

    /// The declared scalarset families (one cell per process each).
    pub fn scalarset_families(&self) -> &[Vec<Addr>] {
        &self.scalarsets
    }

    /// The scalarset cells at position `p`, one per family, in family
    /// declaration order.
    pub(crate) fn scalarset_cells(&self, p: Pid) -> impl Iterator<Item = Addr> + '_ {
        self.scalarsets.iter().map(move |family| family[p])
    }

    /// Whether any scalarset family spans an **acting** orbit — i.e.
    /// whether canonicalization must move family contents (and the
    /// certifier must run). Families on all-singleton specs are inert.
    pub fn has_moving_scalarsets(&self) -> bool {
        !self.scalarsets.is_empty() && self.acting_orbits().next().is_some()
    }

    /// The cells process `p` owns (empty unless declared).
    pub(crate) fn owned(&self, p: Pid) -> &[Addr] {
        &self.owned[p]
    }

    /// Whether any process of an **acting** orbit owns cells — i.e.
    /// whether canonicalization must move cell contents and rebind
    /// programs. Owned declarations on singleton-orbit processes are
    /// inert (singletons never move).
    pub(crate) fn has_moving_owned_cells(&self) -> bool {
        self.acting_orbits()
            .any(|pids| pids.iter().any(|&p| !self.owned[p].is_empty()))
    }

    /// Validates the owned-cell shape against the orbits: members of one
    /// acting orbit must declare the same number of owned cells (the
    /// lists correspond position by position).
    ///
    /// # Panics
    ///
    /// Panics on a mismatch, naming the orbit.
    pub(crate) fn validate_owned_shape(&self) {
        for pids in self.acting_orbits() {
            let first = self.owned[pids[0]].len();
            for &p in &pids[1..] {
                assert_eq!(
                    self.owned[p].len(),
                    first,
                    "orbit {pids:?} members declare differing owned-cell \
                     counts (p{} owns {first}, p{p} owns {}); owned cells \
                     permute position-for-position within an orbit",
                    pids[0],
                    self.owned[p].len(),
                );
            }
        }
    }

    /// Number of processes the spec describes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether the spec declares no usable symmetry (every orbit is a
    /// singleton); the checker then skips canonicalization entirely.
    pub fn is_trivial(&self) -> bool {
        self.orbits.iter().all(|o| o.pids.len() < 2)
    }

    /// The orbits with at least two members (singletons never move).
    pub(crate) fn acting_orbits(&self) -> impl Iterator<Item = &[Pid]> {
        self.orbits
            .iter()
            .filter(|o| o.pids.len() >= 2)
            .map(|o| o.pids.as_slice())
    }

    /// The canonical-representative permutation for the state whose
    /// processes `cmp` orders by signature: within each orbit, members
    /// are sorted by `cmp` (ties keep ascending pid order). Returns
    /// whether the state needs moving; if so, `perm` holds the
    /// permutation, `perm[i] = s` meaning canonical slot `i` takes slot
    /// `s`'s payload. An orbit already in order is left alone, so a
    /// canonical state costs one comparison per adjacent pair of orbit
    /// members and writes nothing.
    ///
    /// `cmp` must be a total order over everything the permutation
    /// moves — program state, decided flag and (when declared) the
    /// values of the process's owned cells — or sorting would not be a
    /// canonical form.
    pub fn canonical_perm_by(
        &self,
        perm: &mut Vec<u8>,
        mut cmp: impl FnMut(Pid, Pid) -> Ordering,
    ) -> bool {
        let mut moved = false;
        for pids in self.acting_orbits() {
            if pids.windows(2).all(|w| cmp(w[0], w[1]).is_le()) {
                continue;
            }
            if !moved {
                perm.clear();
                perm.extend((0..self.n).map(|i| i as u8));
                moved = true;
            }
            // Stable insertion sort of the orbit's payloads over its
            // slots: equal signatures keep their slot order, so the
            // sorted output is the canonical form, and a state one step
            // away from canonical sorts in one pass.
            for i in 1..pids.len() {
                let mut j = i;
                while j > 0
                    && cmp(perm[pids[j - 1]] as Pid, perm[pids[j]] as Pid) == Ordering::Greater
                {
                    perm.swap(pids[j - 1], pids[j]);
                    j -= 1;
                }
            }
        }
        moved
    }

    /// The number of concrete states in the canonical state's
    /// permutation class: per orbit, `m!` arrangements divided by the
    /// multiplicities of equal signatures (members with equal signatures
    /// produce the same state when swapped). The checker weights leaf
    /// counts with this, which makes leaf counts *identical* with
    /// symmetry on and off.
    ///
    /// # Panics
    ///
    /// Panics on overflow (`> u64::MAX` arrangements — far beyond any
    /// explorable state space).
    pub fn orbit_weight_with<K: Ord>(&self, mut sig: impl FnMut(Pid) -> K) -> u64 {
        let mut weight: u64 = 1;
        for pids in self.acting_orbits() {
            let mut sigs: Vec<K> = pids.iter().map(|&p| sig(p)).collect();
            sigs.sort();
            let mut remaining = sigs.len() as u64;
            let mut run = 0u64;
            for i in 0..sigs.len() {
                run += 1;
                if i + 1 == sigs.len() || sigs[i + 1] != sigs[i] {
                    weight = weight
                        .checked_mul(binomial(remaining, run))
                        .expect("orbit weight overflows u64");
                    remaining -= run;
                    run = 0;
                }
            }
        }
        weight
    }
}

/// Composition `m ∘ π`: `result[i] = m[π[i]]`. The checker's witness
/// schedule composes the permutations of the DFS stack's frames with it,
/// root first, into each frame's canonical→original pid map.
pub(crate) fn compose(m: &[u8], pi: &[u8]) -> Box<[u8]> {
    pi.iter().map(|&i| m[i as usize]).collect()
}

/// `C(n, k)` with checked arithmetic.
fn binomial(n: u64, k: u64) -> u64 {
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.checked_mul(n - i).expect("orbit weight overflows u64") / (i + 1);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_classes_groups_equal_labels() {
        let spec = SymmetrySpec::from_classes(&["a", "b", "a", "c", "b"]);
        assert_eq!(spec.n(), 5);
        let orbits: Vec<&[Pid]> = spec.acting_orbits().collect();
        assert_eq!(orbits, vec![&[0usize, 2][..], &[1, 4][..]]);
        assert!(!spec.is_trivial());
        assert!(SymmetrySpec::from_classes(&[1, 2, 3]).is_trivial());
    }

    /// The canonical permutation for signatures `sigs`, or `None` when
    /// the state is already canonical.
    fn perm_of(spec: &SymmetrySpec, sigs: &[u32]) -> Option<Vec<u8>> {
        let mut perm = Vec::new();
        spec.canonical_perm_by(&mut perm, |a, b| sigs[a].cmp(&sigs[b]))
            .then_some(perm)
    }

    #[test]
    fn canonical_perm_sorts_within_orbits_only() {
        // Processes 1..4 interchangeable, 0 fixed.
        let spec = SymmetrySpec::new(4, vec![vec![1, 2, 3]]);
        // Signatures out of order in the orbit.
        let perm = perm_of(&spec, &[9, 7, 5, 6]).expect("non-identity");
        // Canonical slots 1, 2, 3 take payloads of slots 2, 3, 1.
        assert_eq!(perm, [0, 2, 3, 1]);
        // Already-sorted signatures are canonical.
        assert_eq!(perm_of(&spec, &[9, 1, 2, 3]), None);
    }

    #[test]
    fn canonical_perm_is_stable_on_ties() {
        let spec = SymmetrySpec::full(3);
        assert_eq!(perm_of(&spec, &[0, 0, 0]), None);
        // Equal signatures keep their slot order around a moved member.
        assert_eq!(perm_of(&spec, &[1, 0, 1]), Some(vec![1, 0, 2]));
    }

    #[test]
    fn canonical_perm_sorts_non_contiguous_orbits() {
        // Orbits {0, 2, 4} and {1, 3}, interleaved.
        let spec = SymmetrySpec::from_classes(&["a", "b", "a", "b", "a"]);
        let perm = perm_of(&spec, &[5, 8, 3, 7, 4]).expect("non-identity");
        assert_eq!(perm, [2, 3, 4, 1, 0]);
    }

    #[test]
    fn orbit_weight_counts_distinct_arrangements() {
        let spec = SymmetrySpec::full(4);
        // All distinct: 4! arrangements.
        assert_eq!(spec.orbit_weight_with(|p| p), 24);
        // All equal: a single arrangement.
        assert_eq!(spec.orbit_weight_with(|_| 0), 1);
        // Multiset {a, a, b, b}: 4!/(2!2!) = 6.
        assert_eq!(spec.orbit_weight_with(|p| p / 2), 6);
        // Two orbits multiply.
        let spec = SymmetrySpec::new(5, vec![vec![0, 1], vec![2, 3, 4]]);
        assert_eq!(spec.orbit_weight_with(|p| p), 2 * 6);
    }

    #[test]
    fn compose_applies_inner_then_outer() {
        let m: Box<[u8]> = Box::from([2u8, 0, 1]);
        let pi: Box<[u8]> = Box::from([1u8, 2, 0]);
        assert_eq!(&compose(&m, &pi)[..], &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "two orbits")]
    fn overlapping_orbits_are_rejected() {
        let _ = SymmetrySpec::new(3, vec![vec![0, 1], vec![1, 2]]);
    }

    fn addr(i: usize) -> Addr {
        Addr(i)
    }

    #[test]
    fn owned_cells_track_their_processes() {
        let spec = SymmetrySpec::full(3)
            .with_owned_cells(0, vec![addr(3)])
            .with_owned_cells(1, vec![addr(4)])
            .with_owned_cells(2, vec![addr(5)]);
        assert!(spec.has_moving_owned_cells());
        assert_eq!(spec.owned(1), &[addr(4)]);
        spec.validate_owned_shape();
        // Owned cells on singleton orbits never move.
        let inert = SymmetrySpec::trivial(2).with_owned_cells(0, vec![addr(2)]);
        assert!(!inert.has_moving_owned_cells());
        // A slots-only spec owns nothing.
        assert!(!SymmetrySpec::full(3).has_moving_owned_cells());
    }

    #[test]
    #[should_panic(expected = "claimed by two owners")]
    fn doubly_claimed_cell_is_rejected() {
        let _ = SymmetrySpec::new(4, vec![vec![0, 1], vec![2, 3]])
            .with_owned_cells(0, vec![addr(7)])
            .with_owned_cells(2, vec![addr(7)]);
    }

    #[test]
    #[should_panic(expected = "already declared owned cells")]
    fn redeclaring_a_process_is_rejected() {
        let _ = SymmetrySpec::full(2)
            .with_owned_cells(0, vec![addr(0)])
            .with_owned_cells(0, vec![addr(1)]);
    }

    #[test]
    #[should_panic(expected = "differing owned-cell counts")]
    fn uneven_owned_counts_within_an_orbit_are_rejected() {
        SymmetrySpec::full(2)
            .with_owned_cells(0, vec![addr(0), addr(1)])
            .with_owned_cells(1, vec![addr(2)])
            .validate_owned_shape();
    }
}
