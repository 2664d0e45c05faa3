//! Bounded-exhaustive model checking of crash–recovery executions.
//!
//! [`explore`] enumerates **every** execution of a system of [`Program`]s
//! under the paper's adversary, up to a crash budget: at each point the
//! adversary may step any undecided process, or (budget and
//! [`CrashModel`] policy permitting) crash a process / all processes.
//! Reached system states — shared memory contents, every process's
//! volatile state, the decided flags, the crashes used so far — are
//! memoized *exactly* (hash-consed full-fidelity keys, no lossy
//! shortcuts), so the search visits each state once and the verdict is
//! exact.
//!
//! The checked properties are the safety half of recoverable consensus
//! (Section 1):
//!
//! * **agreement** — no two outputs (across processes *and* across re-runs
//!   of one process) differ;
//! * **validity** — every output is one of the declared inputs.
//!
//! [`ExploreOutcome::Verified`] covers these two properties only.
//! Nothing here checks termination (recoverable wait-freedom): a search
//! that reaches a cycle of steps in which no process decides still
//! verifies. A lone process that re-reads a ⊥ register forever verifies
//! with zero leaves under [`ExploreConfig::default`], while the
//! [`swarm`](crate::swarm) flags every seed of it as
//! [`RcViolation::Termination`](crate::verify::RcViolation). ROADMAP.md's
//! cycle-check item plans the exact check: no process decides inside a
//! crash-free cycle, so a reachable cycle is a violation.
//!
//! ## The engine
//!
//! The checker is an **iterative DFS** over explicit stacks — no
//! recursion, so deep crash budgets (very long executions) cannot
//! overflow the call stack. A state is its key — every cell's content,
//! every program's state key, the decided bits, the crash count and the
//! first decided value, as interned `u32` ids ([`ValueInterner`]) — and
//! nothing else. An edge copies the parent's key onto the DFS's key
//! stack, patches the copy from a per-search **step memo** — (action,
//! program-state id, id of the one cell the step accesses) → the step's
//! outcome, already interned — or from the precomputed post-crash
//! program ids, canonicalizes it under symmetry, and probes the visited
//! set. Most edges reach a visited state, and such a duplicate costs
//! that probe and nothing else. A memo miss steps a clone of the
//! search's one program for that slot and program-state id against the
//! one cell it accesses, read from the key through the interner. The
//! memo steps each repeated local transition once. It relies on the
//! [`Program`] contract: a step makes at most one shared-memory access
//! (enforced: a second access panics), and programs with equal
//! `state_key` in one slot behave the same, so one program per (slot,
//! id) stands for all of them. The same transition drives the
//! [`swarm`](crate::swarm)'s sweeps, [`lint_ample`]'s commutation walk
//! and [`replay_on_checker`].
//!
//! The visited set holds each state's packed key and nothing else: a
//! violation's schedule is read off the **DFS stack**. The frames from
//! the root to the violating state are the path, and each frame's
//! cursor has just passed the action it took.
//!
//! The DFS is the **only** engine. Every search — plain, symmetric or
//! reduced — runs on it, in one deterministic acceptance order: a state
//! is accepted when the DFS first reaches it, and the `max_states` cap
//! cuts in that order. The cap is exact (a search truncates iff it
//! would need a `max_states + 1`-th distinct state, and reports exactly
//! `max_states`). The first violation the DFS reaches is reported (a
//! found violation always wins, see the verdict precedence on
//! [`ExploreOutcome`]). Parallelism lives in the
//! [`swarm`](crate::swarm), where independent seeded runs scale across
//! cores; a breadth-first parallel frontier existed until it was
//! measured slower than this DFS at every thread count (DESIGN.md §3).
//!
//! ## Process-symmetry reduction
//!
//! [`explore_symmetric`] accepts a factory that also declares a
//! [`SymmetrySpec`] — which process ids are interchangeable (identical
//! program, identical input, per-process cells registered). The engine
//! then maps every child state to a **canonical representative** under
//! process-id permutation before the interner/visited lookup, so entire
//! permutation classes collapse to one stored state: verdicts are
//! unchanged, state counts shrink by up to the product of the orbit
//! factorials, leaf counts stay identical (canonical leaves are weighted
//! by their class size), and violation witnesses are reported in
//! *original* process ids: each frame on the DFS stack keeps the
//! permutation that made its key canonical, and an action is renamed
//! through the permutations of the frames from the root down to the one
//! that took it. Signatures are read from the child's key as
//! interned ids, and ids compare by their interner *rank* — the position
//! of their value in the structural order of the values interned so far
//! ([`ValueInterner`] keeps it as values are first interned) — never by
//! id order, so the representative of a state does not depend on which
//! values happened to be interned first. See the
//! [`canon`](crate::canon) module for the soundness argument.
//!
//! ## Partial-order reduction
//!
//! [`ExploreConfig::por`] switches on a **persistent-set + sleep-set
//! reduction** driven by the per-local-state footprint analysis
//! ([`crate::footprint::analyze_system_states`]): at each crash-free
//! node the engine expands a singleton persistent set when one enabled
//! step is statically independent of everything the other processes can
//! ever do (crash-free future footprints; the decision pseudo-cell
//! makes any two possibly-deciding steps dependent), and sleep sets —
//! carried in the node keys, so node identity is `(state, sleep set)` —
//! remove interleavings already covered by sibling subtrees. Any
//! enabled crash transition forces full expansion (crashes are
//! dependent with everything), which keeps every [`CrashModel`]
//! adversary complete. Verdicts and leaf counts are identical to the
//! unreduced search; state counts shrink. The reduction composes with
//! symmetry (the sleep set joins the canonical signature and permutes
//! with its processes). [`lint_ample`] checks the
//! eligibility conditions statically and spot-checks pruned
//! interleavings dynamically.
//!
//! Expanding a node allocates nothing once the search has warmed up:
//! the enabled actions come from one enumeration
//! (`Machine::enabled_actions`, reading each program's choices, asked
//! once per slot and program-state id) written onto one action stack
//! the DFS frames index by range, POR groups processes on a pid mask,
//! and it reads each process's footprints through a dense table from
//! interned program-state id to analyzed local state, as
//! `(cells + 1).div_ceil(64)` words per set.

use crate::canon::{self, SymmetrySpec};
use crate::crash::CrashModel;
use crate::footprint::{
    analyze_system, analyze_system_states, system_analysis_cached, AnalysisBudget, CellSet,
    SystemAnalysis, SystemFootprint,
};
use crate::intern::{FxHashMap, ValueInterner};
use crate::memory::{Addr, Cell, MemOps, Memory};
use crate::program::{Pid, Program, Rebinding, Step};
use crate::sched::{Action, SchedContext, Scheduler};
use crate::storage::{PackedStateTable, StorageTier};
use rc_spec::{Operation, TypeHandle, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Configuration for [`explore`].
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// The crash adversary: budget, independent vs simultaneous mode and
    /// post-decide policy — shared with the randomized schedulers, so
    /// the exact and randomized layers agree on crash legality.
    pub crash: CrashModel,
    /// The declared inputs, for the validity check. `None` skips validity.
    pub inputs: Option<Vec<Value>>,
    /// Cap on distinct states visited. The search visits at most this
    /// many states and reports [`ExploreOutcome::Truncated`] — with a
    /// `states` count of exactly `max_states` — when one more would be
    /// needed; a cap equal to the reachable state-space size still
    /// verifies.
    pub max_states: usize,
    /// Ignored: every search runs on the serial DFS. Kept so existing
    /// callers that set it still compile; parallel verification is the
    /// [`swarm`](crate::swarm)'s job ([`SwarmConfig::threads`](crate::SwarmConfig)).
    pub threads: usize,
    /// Switches on the footprint-driven **partial-order reduction**
    /// (persistent + sleep sets; see the module docs). Verdicts and
    /// leaf counts are identical to the unreduced search; state counts
    /// shrink. Panics at search start when the system is ineligible —
    /// the footprint analysis fails, a process's step graph is cyclic,
    /// or (with symmetry) the orbit members' per-state footprints are
    /// not equivariant: an explicit POR request must not silently run
    /// unreduced. [`lint_ample`] reports the same conditions without
    /// running a search.
    pub por: bool,
    /// Cache key for the footprint analysis POR runs on
    /// ([`crate::footprint::system_analysis_cached`]). Must uniquely
    /// identify the system's construction (the catalog benchmarks use
    /// their row labels); `None` analyzes uncached.
    pub analysis_id: Option<String>,
    /// Which storage backend holds the visited set. [`StorageTier`] has
    /// one variant, [`StorageTier::Packed`], the bit-packed arena held
    /// in RAM, so this field selects nothing.
    pub storage: StorageTier,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            crash: CrashModel::default(),
            inputs: None,
            max_states: 5_000_000,
            threads: 1,
            por: false,
            analysis_id: None,
            storage: StorageTier::Packed,
        }
    }
}

/// Diagnostics about how a search executed: which reductions were
/// active, how much work it did, and deterministic byte accounts of the
/// engine's tables. Outcomes never depend on any of this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Always 1: the search runs on one thread. Kept so existing
    /// readers still compile.
    pub max_level_workers: usize,
    /// Whether a non-trivial [`SymmetrySpec`] was active.
    pub symmetry: bool,
    /// Whether partial-order reduction ([`ExploreConfig::por`]) ran.
    pub por: bool,
    /// Edges the search took: one per action applied to a visited
    /// state. Deterministic. A `Verified` search has
    /// `edges == states - 1 + duplicates`.
    pub edges: usize,
    /// Edges whose child key was already visited. Deterministic.
    pub duplicates: usize,
    /// Approximate bytes held by the value interner (structural value
    /// payloads plus per-entry overhead). Deterministic: a pure
    /// function of the interned values.
    pub interned_bytes: usize,
    /// Visited-set bytes at search end (accounted model: the packed
    /// arena, its index and entry metadata). The table only grows, so
    /// this is also its peak.
    pub peak_table_bytes: usize,
    /// Always 0: a violation's schedule is read off the DFS stack, so
    /// nothing per state records how it was reached. Kept so existing
    /// readers still compile, like
    /// [`max_level_workers`](Self::max_level_workers).
    pub witness_bytes: usize,
}

/// The result of an exhaustive exploration.
///
/// # Verdict precedence
///
/// `Violation` > `Truncated` > `Verified`: a violation is definitive the
/// moment it is found (its schedule replays from the initial state
/// regardless of how much of the space was explored), so it is reported
/// even if the state cap was also hit. `Truncated` means the cap stopped
/// the search *without* a violation having been found — safety of the
/// unexplored remainder is unknown, so `Verified` is never claimed for a
/// capped run. `Verified` is exact: every reachable state (under the
/// configured adversary) was visited.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExploreOutcome {
    /// Every reachable execution satisfies agreement (and validity, if
    /// inputs were declared).
    Verified {
        /// Number of distinct system states visited.
        states: usize,
        /// Number of complete executions (leaves) enumerated, counting
        /// each memoized suffix once.
        leaves: usize,
    },
    /// A safety violation was found; the action sequence reproduces it.
    Violation {
        /// What went wrong.
        kind: ViolationKind,
        /// The schedule that exhibits the violation, from the initial
        /// state.
        schedule: Vec<Action>,
        /// The conflicting outputs observed on that schedule.
        outputs: Vec<Value>,
    },
    /// The state cap was hit before the search completed and no
    /// violation had been found.
    Truncated {
        /// Number of distinct system states visited before giving up.
        states: usize,
    },
}

impl ExploreOutcome {
    /// Whether the outcome proves safety over the explored space.
    pub fn is_verified(&self) -> bool {
        matches!(self, ExploreOutcome::Verified { .. })
    }

    /// Whether a violation was found.
    pub fn is_violation(&self) -> bool {
        matches!(self, ExploreOutcome::Violation { .. })
    }

    /// Whether the state cap stopped the search.
    pub fn is_truncated(&self) -> bool {
        matches!(self, ExploreOutcome::Truncated { .. })
    }
}

/// Which safety property failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationKind {
    /// Two outputs differ.
    Agreement,
    /// An output is not among the declared inputs.
    Validity,
}

/// A factory producing the initial system; the model checker clones its
/// output to branch the search.
pub type SystemFactory<'a> = dyn Fn() -> (Memory, Vec<Box<dyn Program>>) + 'a;

/// A factory that additionally declares which process ids are
/// interchangeable (see [`SymmetrySpec`]); consumed by
/// [`explore_symmetric`].
pub type SymmetricSystemFactory<'a> =
    dyn Fn() -> (Memory, Vec<Box<dyn Program>>, SymmetrySpec) + 'a;

/// A cell's kind, taken once per search from the factory's [`Memory`]:
/// `None` for a register, the object's type otherwise. Contents live in
/// the node key.
type CellKind = Option<TypeHandle>;

/// A read-only view of a node's memory that one step runs against. A
/// cell's content is the value its key slot names in the interner, and
/// its kind comes from the search's cell-kind table; with them the
/// overlay has [`Memory`]'s atomicity and type-confusion panics. It
/// records the one cell the step accesses and captures a write or
/// `apply` as the cell's new content instead of performing it, so
/// stepping never touches the node and the outcome is exactly (accessed
/// cell, new content). A second access of any kind panics: the step
/// memo keys outcomes on the value of the one accessed cell
/// ([`Program::step`]'s contract), so a second access would make it
/// unsound.
struct StepOverlay<'a> {
    key: &'a [u32],
    kinds: &'a [CellKind],
    interner: &'a ValueInterner,
    access: Option<usize>,
    write: Option<Value>,
}

impl<'a> StepOverlay<'a> {
    /// Records the step's one access, to `addr`, and returns the cell's
    /// kind and content.
    fn touch(&mut self, addr: Addr) -> (&'a CellKind, &'a Value) {
        assert!(
            self.access.is_none(),
            "Program::step performed more than one shared-memory access; \
             the step contract allows at most one"
        );
        self.access = Some(addr.0);
        let (kinds, key, interner) = (self.kinds, self.key, self.interner);
        (&kinds[addr.0], interner.value(key[addr.0]))
    }

    /// Accesses the register at `addr`, returning its value.
    fn register(&mut self, addr: Addr) -> &'a Value {
        match self.touch(addr) {
            (None, value) => value,
            (Some(_), _) => panic!("{addr} is an object, not a register"),
        }
    }

    /// Accesses the object at `addr`, returning its type and state.
    fn object(&mut self, addr: Addr) -> (&'a TypeHandle, &'a Value) {
        match self.touch(addr) {
            (Some(ty), state) => (ty, state),
            (None, _) => panic!("{addr} is a register, not an object"),
        }
    }
}

impl MemOps for StepOverlay<'_> {
    fn read_register(&mut self, addr: Addr) -> Value {
        self.register(addr).clone()
    }

    fn write_register(&mut self, addr: Addr, value: Value) {
        self.register(addr);
        self.write = Some(value);
    }

    fn read_object(&mut self, addr: Addr) -> Value {
        let (ty, state) = self.object(addr);
        assert!(
            ty.is_readable(),
            "type {} is not readable; Read is not available",
            ty.name()
        );
        state.clone()
    }

    fn apply(&mut self, addr: Addr, op: &Operation) -> Value {
        let (ty, state) = self.object(addr);
        let t = ty.apply(state, op);
        self.write = Some(t.next);
        t.response
    }
}

/// Slot offsets of the flat interned state key:
/// `[cells | program keys | packed decided bits | crashes | decided value
/// | sleep words (POR only)]`.
///
/// The key is the whole state: the program a memo miss steps is the
/// [`Machine`]'s one program for the slot and the program-state id in
/// the key ([`ProgramTable`]). A child's key is a copy of its parent's
/// with only the slots the action touched replaced — the one written
/// memory cell, the stepped or
/// crashed program's key, the decided bit, the crash count and the
/// decided value — all read from the step memo ([`StepMemo`]) or the
/// post-crash program ids as interned ids ([`Machine::patch`]), then
/// canonicalized in place under symmetry. Unchanged slots keep their
/// parent's ids, which is sound because interned ids are stable and
/// injective. The engine probes the visited set with this key, and a new
/// key is the child state.
///
/// With [`ExploreConfig::por`] the key gains trailing **sleep words**
/// holding the node's packed sleep mask raw (never interner ids): node
/// identity under POR is `(state, sleep set)`, the standard fix for
/// sleep sets meeting state memoization — a state re-reached with a
/// different sleep set must be re-explored. POR-off keys are
/// byte-identical to the pre-POR layout.
#[derive(Clone, Copy)]
struct KeyLayout {
    cells: usize,
    n: usize,
    /// Trailing sleep-mask words; `0` when POR is off.
    sleep_words: usize,
}

impl KeyLayout {
    fn new(cells: usize, n: usize, por: bool) -> Self {
        KeyLayout {
            cells,
            n,
            sleep_words: if por { n.div_ceil(32) } else { 0 },
        }
    }

    fn decided_words(&self) -> usize {
        self.n.div_ceil(32)
    }

    fn prog(&self, p: usize) -> usize {
        self.cells + p
    }

    fn decided_word(&self, p: usize) -> usize {
        self.cells + self.n + p / 32
    }

    fn crashes(&self) -> usize {
        self.cells + self.n + self.decided_words()
    }

    fn decided_value(&self) -> usize {
        self.crashes() + 1
    }

    fn sleep_word(&self, w: usize) -> usize {
        self.decided_value() + 1 + w
    }

    fn len(&self) -> usize {
        self.decided_value() + 1 + self.sleep_words
    }

    /// Whether process `p`'s current run has decided, read from `key`.
    fn is_decided(&self, key: &[u32], p: usize) -> bool {
        key[self.decided_word(p)] >> (p % 32) & 1 != 0
    }

    /// The node's decided flags, read back from its key.
    fn read_decided(&self, key: &[u32]) -> u64 {
        (0..self.decided_words()).fold(0, |mask, w| {
            mask | u64::from(key[self.cells + self.n + w]) << (32 * w)
        })
    }

    /// Writes `decided` into the key's decided words.
    fn write_decided(&self, key: &mut [u32], decided: u64) {
        for w in 0..self.decided_words() {
            key[self.cells + self.n + w] = (decided >> (32 * w)) as u32;
        }
    }

    /// The node's sleep mask, read back from its key (`0` without POR).
    fn read_sleep(&self, key: &[u32]) -> u64 {
        let mut mask = 0u64;
        for w in 0..self.sleep_words {
            mask |= u64::from(key[self.sleep_word(w)]) << (32 * w);
        }
        mask
    }

    /// Writes `sleep` into the key's sleep words (no-op without POR).
    fn write_sleep(&self, key: &mut [u32], sleep: u64) {
        for w in 0..self.sleep_words {
            key[self.sleep_word(w)] = (sleep >> (32 * w)) as u32;
        }
    }
}

/// One step of a node's process, run on a clone of its program against
/// a [`StepOverlay`] of the node's key.
struct Stepped {
    prog: Box<dyn Program>,
    /// The cell the step accessed, if any.
    access: Option<usize>,
    /// The written cell and its new content, if the step wrote one.
    write: Option<(usize, Value)>,
    step: Step,
}

/// Checks a fresh decision `v` against the decided value so far and the
/// validity inputs, returning the violated property and the conflicting
/// outputs.
fn check_decision(
    decided: Option<&Value>,
    v: &Value,
    inputs: Option<&[Value]>,
) -> Result<(), (ViolationKind, Vec<Value>)> {
    let kind = if decided.is_some_and(|d| d != v) {
        ViolationKind::Agreement
    } else if inputs.is_some_and(|inputs| !inputs.contains(v)) {
        ViolationKind::Validity
    } else {
        return Ok(());
    };
    Err((kind, decided.into_iter().chain([v]).cloned().collect()))
}

/// A schedule replayed on the checker's executor ([`replay_on_checker`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckerReplay {
    /// Every decision of the replay, in schedule order: the deciding
    /// process and its value, as [`Trace::decisions`](crate::Trace::decisions)
    /// lists them.
    pub decisions: Vec<(Pid, Value)>,
    /// The first decision the checker flags: the violated property and
    /// the conflicting outputs, as an [`ExploreOutcome::Violation`]
    /// reports them.
    pub violation: Option<(ViolationKind, Vec<Value>)>,
}

/// Replays `schedule` on the exhaustive checker's executor: from the
/// factory's root key, each action patches the key by the search's own
/// transition — a step memo outcome or the post-crash program id — and
/// each decision is checked
/// as the search checks it: against the
/// first decided value and `inputs`. Like [`run`](crate::run), a step of a
/// process whose current run has decided is skipped. The replay does not
/// stop at a violation, so it lists every decision the schedule makes.
///
/// Crash legality is not checked: this is the second executor of the
/// crash–recover model, not an adversary. Agreement with
/// [`run`](crate::run) over [`Memory`] — the same decisions in the same
/// order, and a flag exactly when the swarm's verdict is a safety
/// violation — is what [`shrink_schedule`](crate::shrink_schedule)'s
/// `witness_verified` and the swarm suite assert.
pub fn replay_on_checker(
    factory: &SystemFactory<'_>,
    schedule: &[Action],
    inputs: Option<&[Value]>,
) -> CheckerReplay {
    let (mem, programs) = factory();
    let (mut machine, _, mut key) = Machine::root(&mem, programs, None);
    let layout = machine.layout;
    let mut replay = CheckerReplay {
        decisions: Vec::new(),
        violation: None,
    };
    for &action in schedule {
        if let Action::Step(p) | Action::Branch(p, _) = action {
            if layout.is_decided(&key, p) {
                continue;
            }
        }
        // Until the first violation every decision repeats the first
        // decided value, so the key's slot holds it whenever it is read.
        let first = key[layout.decided_value()];
        let change = machine.change(&key, action);
        machine.patch(&mut key, change);
        if let (Change::Step(p, _), Some(id)) = (change, machine.decision(change)) {
            let v = machine.interner.value(id);
            if replay.violation.is_none() {
                let first = (first != ValueInterner::NONE).then(|| machine.interner.value(first));
                replay.violation = check_decision(first, v, inputs).err();
            }
            replay.decisions.push((p, v.clone()));
        }
    }
    replay
}

/// What one memoized step does to its node, as interned ids: the
/// stepped program's key id, the written cell's index and new content
/// id, and the decided value's id.
struct StepOutcome {
    prog_id: u32,
    write: Option<(usize, u32)>,
    decided: Option<u32>,
}

/// The per-search **step memo**: every local transition the search has
/// taken, keyed by (action, program-state id, id of the accessed cell's
/// value). It rests on two clauses of the [`Program`] contract:
///
/// * a step makes at most one shared-memory access, so *which* cell it
///   accesses depends only on the local state (nothing has been read
///   yet), and its outcome only on the value of that one cell;
/// * programs with equal `state_key` in one slot behave the same — the
///   visited set merges states on exactly this, and canonicalization
///   keeps each slot's program bound to that slot's cells (rebinding
///   preserves `state_key`).
///
/// A repeated transition is therefore never stepped, keyed, interned or
/// cloned again. A miss steps a clone of the slot's program for the
/// node's program-state id ([`ProgramTable`]) against a
/// [`StepOverlay`], which enforces the first clause, and interns in the
/// engine's fixed order — written cell, program key, decided value —
/// only once the decision passed the search's checks
/// ([`Machine::checked_outcome`]). A value is always first produced on a
/// miss, so ids, keys and every byte account are the ones stepping every
/// edge would give. A sweep worker's [`MemoExecutor`] keeps one memo for
/// all its seeds and records a miss without checks: the sweep judges
/// whole executions.
#[derive(Default)]
struct StepMemo {
    /// (action code, program-state id) → the cell the step accesses, or
    /// [`NO_CELL`](Self::NO_CELL).
    access: FxHashMap<u64, u32>,
    /// (action code, program-state id), and the accessed cell's value id
    /// ([`ValueInterner::NONE`] without an access) → index into
    /// `outcomes`.
    index: FxHashMap<(u64, u32), u32>,
    outcomes: Vec<StepOutcome>,
}

impl StepMemo {
    const NO_CELL: u32 = u32::MAX;

    /// The transition's local half: (action code, program-state id).
    fn local(key: &[u32], action: Action, p: usize, layout: &KeyLayout) -> u64 {
        u64::from(action_code(action)) << 32 | u64::from(key[layout.prog(p)])
    }

    /// The id of the value in `cell`, read from `key`.
    fn cell_id(key: &[u32], cell: u32) -> u32 {
        match cell {
            Self::NO_CELL => ValueInterner::NONE,
            cell => key[cell as usize],
        }
    }

    /// The memoized outcome of `action`, a step of process `p`, from the
    /// node with key `key`, if the memo has taken that transition.
    fn lookup(&self, key: &[u32], action: Action, p: usize, layout: &KeyLayout) -> Option<u32> {
        let local = Self::local(key, action, p, layout);
        let &cell = self.access.get(&local)?;
        self.index.get(&(local, Self::cell_id(key, cell))).copied()
    }
}

/// One program per (slot, program-state id), and the choice ids it
/// offers ([`Program::choices`]). Each program slot of every key a
/// search builds names an entry, and that entry is the program whatever
/// needs one reads: a memo miss clones and steps it, a node's expansion
/// reads its choices (asked once: asking the program allocates the list
/// every time), canonicalization asks whether it is
/// [`Program::scalarset_pinned`], and [`Machine::relocate`] copies it
/// into another slot. One program stands for all programs with its key
/// in its slot by the contract the [`StepMemo`] rests on: they behave
/// the same.
///
/// [`Machine::root`] enters the post-crash and root programs. Each
/// recorded step enters the program it produced and *replaces* the
/// entry of its (slot, id), so a miss steps the newest program with that
/// key, and a `state_key` that leaves out what picks the accessed cell
/// trips the memo's access assertion instead of hiding behind an older
/// program. [`Machine::relocate`] enters a rebound copy where a (slot,
/// id) has none yet.
struct ProgramTable {
    n: usize,
    /// `entries[id * n + p]`: slot `p`'s entry for state-key id `id`.
    entries: Vec<ProgramEntry>,
    choice_ids: Vec<usize>,
}

/// An entry of the [`ProgramTable`].
struct ProgramEntry {
    prog: Option<Box<dyn Program>>,
    /// Where the program's choices lie in the table's `choice_ids`, as
    /// `(start, len)`; [`UNASKED`](ProgramTable::UNASKED) until first
    /// asked.
    choices: (u32, u32),
}

impl ProgramTable {
    const UNASKED: (u32, u32) = (u32::MAX, 0);

    fn new(n: usize) -> Self {
        ProgramTable {
            n,
            entries: Vec::new(),
            choice_ids: Vec::new(),
        }
    }

    fn at(&self, p: usize, id: u32) -> usize {
        id as usize * self.n + p
    }

    /// Slot `p`'s program with state-key id `id`.
    fn get(&self, p: usize, id: u32) -> &dyn Program {
        self.entries
            .get(self.at(p, id))
            .and_then(|entry| entry.prog.as_deref())
            .expect("every program slot of a key names a program of the table")
    }

    /// Whether slot `p` has a program with state-key id `id`.
    fn contains(&self, p: usize, id: u32) -> bool {
        self.entries
            .get(self.at(p, id))
            .is_some_and(|entry| entry.prog.is_some())
    }

    /// Enters `prog` as slot `p`'s program with state-key id `id`,
    /// replacing the one there.
    fn insert(&mut self, p: usize, id: u32, prog: Box<dyn Program>) {
        let at = self.at(p, id);
        if at >= self.entries.len() {
            self.entries.resize_with(at + 1, || ProgramEntry {
                prog: None,
                choices: Self::UNASKED,
            });
        }
        self.entries[at].prog = Some(prog);
    }

    /// The choice ids slot `p`'s program with state-key id `id` offers;
    /// the first call asks the program.
    #[inline]
    fn choices(&mut self, p: usize, id: u32) -> &[usize] {
        let at = self.at(p, id);
        let (start, len) = match self.entries[at].choices {
            Self::UNASKED => self.ask(at),
            span => span,
        };
        &self.choice_ids[start as usize..][..len as usize]
    }

    /// Asks the program of entry `at` for its choices and keeps them.
    #[cold]
    fn ask(&mut self, at: usize) -> (u32, u32) {
        let entry = &mut self.entries[at];
        let prog = entry.prog.as_ref().expect("an asked entry holds a program");
        let choices = prog.choices();
        entry.choices = (
            u32::try_from(self.choice_ids.len()).expect("choice table fits u32"),
            u32::try_from(choices.len()).expect("choice count fits u32"),
        );
        self.choice_ids.extend(choices);
        entry.choices
    }
}

/// What an action changes in its parent node: a step of a process, by
/// its memoized outcome (an index into the [`StepMemo`]), or a crash of
/// one process or of all of them.
#[derive(Clone, Copy)]
enum Change {
    Step(usize, u32),
    Crash(usize),
    CrashAll,
}

/// The checker's transition system over interned node keys: the key
/// layout, the value interner, the cell-kind table, the post-crash
/// program ids, the step memo and the program table of one system.
/// Every executor of the checker advances its keys through it — the
/// DFS, a sweep worker's [`MemoExecutor`], [`lint_ample`]'s commutation
/// walk and [`replay_on_checker`] — by one transition on the key:
/// [`patch`](Self::patch) writes a memo outcome or the post-crash ids
/// into it. The programs live only in the [`ProgramTable`], so no key
/// carries, copies or swaps one.
struct Machine {
    layout: KeyLayout,
    interner: ValueInterner,
    kinds: Vec<CellKind>,
    /// Interned id of each process's post-crash program key.
    crashed: Vec<u32>,
    memo: StepMemo,
    programs: ProgramTable,
}

impl Machine {
    /// The machine of the system that starts as `mem` and `programs`,
    /// the POR engine over `por`'s analysis, and the root key. Interns
    /// in the engine's fixed order — post-crash program keys, then the
    /// analyzed local states ([`PorEngine::new`]), then the root key's
    /// cells and program keys — so value ids, and therefore every node
    /// key, are a pure function of the system. Nothing bounds the
    /// process count.
    ///
    /// The post-crash programs are computed once per search:
    /// [`Program::on_crash`] resets a program to its initial state
    /// (input retained — the input never changes across runs), so the
    /// reset program and its id are constants whatever state the crash
    /// hit, and a crash patches in a precomputed id. This leans on the
    /// contract the memo leans on (`on_crash` resets *everything*
    /// volatile; `state_key` is complete). The program table receives
    /// the post-crash programs first and the root programs second.
    fn root(
        mem: &Memory,
        programs: Vec<Box<dyn Program>>,
        por: Option<&SystemAnalysis>,
    ) -> (Self, Option<PorEngine>, Vec<u32>) {
        let layout = KeyLayout::new(mem.len(), programs.len(), por.is_some());
        let mut interner = ValueInterner::new();
        let mut table = ProgramTable::new(layout.n);
        let mut crashed = Vec::with_capacity(layout.n);
        for (p, prog) in programs.iter().enumerate() {
            let mut fresh = prog.boxed_clone();
            fresh.on_crash();
            let id = interner.intern(&fresh.state_key());
            table.insert(p, id, fresh);
            crashed.push(id);
        }
        let por = por.map(|analysis| PorEngine::new(analysis, &mut interner));
        let mut key = vec![0; layout.len()];
        for (slot, content) in key.iter_mut().zip(mem.contents()) {
            *slot = interner.intern(content);
        }
        for (p, prog) in programs.into_iter().enumerate() {
            let id = interner.intern(&prog.state_key());
            key[layout.prog(p)] = id;
            table.insert(p, id, prog);
        }
        key[layout.decided_value()] = ValueInterner::NONE;
        let kinds = (0..mem.len())
            .map(|i| match mem.peek_cell(Addr(i)) {
                Cell::Register(_) => None,
                Cell::Object { ty, .. } => Some(ty),
            })
            .collect();
        let machine = Machine {
            layout,
            interner,
            kinds,
            crashed,
            memo: StepMemo::default(),
            programs: table,
        };
        (machine, por, key)
    }

    /// The choice ids slot `p`'s program at `key` offers, from the
    /// [`ProgramTable`].
    #[inline]
    fn choices(&mut self, key: &[u32], p: usize) -> &[usize] {
        self.programs.choices(p, key[self.layout.prog(p)])
    }

    /// Appends to `out` every action the adversary may take from `key`,
    /// each with an empty sleep mask, in the engine's canonical order:
    /// steps of undecided processes (ascending pid), then
    /// internal-nondeterminism branches (ascending pid, then choice id —
    /// only for processes whose [`Program::choices`] offers more than
    /// one alternative; single-choice processes step through plain
    /// [`Action::Step`]), then legal crashes (matching
    /// [`CrashModel::legal_crashes`]). The order agrees with the
    /// `Action` `Ord`, keeping witness selection deterministic. Every
    /// expansion enumerates through here: the DFS, POR and
    /// [`lint_ample`]'s walk.
    fn enabled_actions(&mut self, key: &[u32], model: &CrashModel, out: &mut Vec<(Action, u64)>) {
        let layout = self.layout;
        let decided = |p: usize| layout.is_decided(key, p);
        let mut branching = 0u64;
        for p in (0..layout.n).filter(|&p| !decided(p)) {
            if self.choices(key, p).len() <= 1 {
                out.push((Action::Step(p), 0));
            } else {
                branching |= 1 << p;
            }
        }
        for p in pids_in(branching) {
            let branches = self.choices(key, p).iter();
            out.extend(branches.map(|&c| (Action::Branch(p, c), 0)));
        }
        if !model.exhausted(key[layout.crashes()] as usize) {
            match model.mode {
                crate::crash::CrashMode::Simultaneous => {
                    if model.may_crash_all_mask(layout.read_decided(key)) {
                        out.push((Action::CrashAll, 0));
                    }
                }
                crate::crash::CrashMode::Independent => {
                    let crashes = (0..layout.n).filter(|&p| model.may_crash(decided(p)));
                    out.extend(crashes.map(|p| (Action::Crash(p), 0)));
                }
            }
        }
    }

    /// Steps a clone of process `p`'s program at `key` by `action`.
    #[cold]
    fn run_step(&self, key: &[u32], action: Action, p: usize) -> Stepped {
        let mut prog = self.programs.get(p, key[self.layout.prog(p)]).boxed_clone();
        let mut overlay = StepOverlay {
            key,
            kinds: &self.kinds,
            interner: &self.interner,
            access: None,
            write: None,
        };
        let step = match action {
            Action::Branch(_, choice) => prog.step_choice(&mut overlay, choice),
            _ => prog.step(&mut overlay),
        };
        Stepped {
            prog,
            access: overlay.access,
            write: overlay
                .write
                .map(|content| (overlay.access.expect("a write is an access"), content)),
            step,
        }
    }

    /// Memoizes `stepped`, the step `action` of process `p` from the node
    /// with key `key`, and returns its index in the memo. Interns in the
    /// engine's fixed order — written cell, program key, decided value —
    /// and enters the stepped program in the [`ProgramTable`], replacing
    /// the entry of its (slot, id).
    #[cold]
    fn record(&mut self, key: &[u32], action: Action, p: usize, stepped: Stepped) -> u32 {
        let interner = &mut self.interner;
        let write = stepped
            .write
            .map(|(cell, content)| (cell, interner.intern(&content)));
        let prog_id = interner.intern(&stepped.prog.state_key());
        let decided = match stepped.step {
            Step::Decided(v) => Some(interner.intern(&v)),
            Step::Running => None,
        };
        let cell = stepped.access.map_or(StepMemo::NO_CELL, |cell| {
            u32::try_from(cell).expect("cell index fits u32")
        });
        let local = StepMemo::local(key, action, p, &self.layout);
        let memo = &mut self.memo;
        assert_eq!(
            *memo.access.entry(local).or_insert(cell),
            cell,
            "two programs with equal state_key in p{p}'s slot accessed \
             different cells; Program::state_key must encode the complete \
             volatile state"
        );
        let i = u32::try_from(memo.outcomes.len()).expect("step memo fits u32");
        memo.index.insert((local, StepMemo::cell_id(key, cell)), i);
        memo.outcomes.push(StepOutcome {
            prog_id,
            write,
            decided,
        });
        self.programs.insert(p, prog_id, stepped.prog);
        i
    }

    /// The outcome of `action`, a step of process `p`, at `key`, as an
    /// index into the memo; a miss steps the program and records it.
    #[inline]
    fn outcome(&mut self, key: &[u32], action: Action, p: usize) -> u32 {
        match self.memo.lookup(key, action, p, &self.layout) {
            Some(i) => i,
            None => {
                let stepped = self.run_step(key, action, p);
                self.record(key, action, p, stepped)
            }
        }
    }

    /// [`outcome`](Self::outcome), or the violation its decision commits
    /// against the key's decided value or the declared `inputs`. A miss
    /// checks the decision before it interns anything, so a violating
    /// step leaves the interner as the search found it.
    fn checked_outcome(
        &mut self,
        key: &[u32],
        action: Action,
        p: usize,
        inputs: Option<&[Value]>,
    ) -> Result<u32, (ViolationKind, Vec<Value>)> {
        let first = key[self.layout.decided_value()];
        let check = |interner: &ValueInterner, v: &Value| {
            let first = (first != ValueInterner::NONE).then(|| interner.value(first));
            check_decision(first, v, inputs)
        };
        if let Some(i) = self.memo.lookup(key, action, p, &self.layout) {
            if let Some(id) = self.memo.outcomes[i as usize].decided {
                check(&self.interner, self.interner.value(id))?;
            }
            return Ok(i);
        }
        let stepped = self.run_step(key, action, p);
        if let Step::Decided(v) = &stepped.step {
            check(&self.interner, v)?;
        }
        Ok(self.record(key, action, p, stepped))
    }

    /// What `action` changes at `key`; a step's outcome comes from the
    /// memo ([`outcome`](Self::outcome)).
    fn change(&mut self, key: &[u32], action: Action) -> Change {
        match action {
            Action::Step(p) | Action::Branch(p, _) => Change::Step(p, self.outcome(key, action, p)),
            Action::Crash(p) => Change::Crash(p),
            Action::CrashAll => Change::CrashAll,
        }
    }

    /// The id of the value `change` decides, if it is a deciding step.
    fn decision(&self, change: Change) -> Option<u32> {
        match change {
            Change::Step(_, i) => self.memo.outcomes[i as usize].decided,
            Change::Crash(_) | Change::CrashAll => None,
        }
    }

    /// The transition on keys: writes into `key` what `change` does —
    /// the stepped program's id, the written cell and, on a decision,
    /// the decided bit and value; or the post-crash program ids, cleared
    /// decided bits and one more crash. Always inlined: a sweep takes
    /// one transition per scheduled action, and an inlined copy is
    /// specialized to the change its caller built.
    #[inline(always)]
    fn patch(&self, key: &mut [u32], change: Change) {
        let layout = &self.layout;
        match change {
            Change::Step(p, i) => {
                let outcome = &self.memo.outcomes[i as usize];
                key[layout.prog(p)] = outcome.prog_id;
                if let Some((cell, id)) = outcome.write {
                    key[cell] = id;
                }
                if let Some(id) = outcome.decided {
                    key[layout.decided_word(p)] |= 1 << (p % 32);
                    key[layout.decided_value()] = id;
                }
            }
            Change::Crash(p) => {
                key[layout.prog(p)] = self.crashed[p];
                key[layout.decided_word(p)] &= !(1 << (p % 32));
                key[layout.crashes()] += 1;
            }
            Change::CrashAll => {
                key[layout.prog(0)..layout.prog(layout.n)].copy_from_slice(&self.crashed);
                key[layout.decided_word(0)..layout.crashes()].fill(0);
                key[layout.crashes()] += 1;
            }
        }
    }

    /// Gives each slot that the canonicalization `perm` moved (see
    /// [`canonicalize_key`]) a program for the id the canonical `key`
    /// holds there, where the [`ProgramTable`] has none yet: a clone of
    /// the source slot's program with that id, rebound
    /// ([`Program::rebind`]) to the destination slot's cells when owned
    /// cells or scalarset family members moved with it. So rebinding
    /// runs once per (destination slot, id) in a search, not once per
    /// admitted state.
    fn relocate(&mut self, key: &[u32], perm: &[u8], spec: &SymmetrySpec) {
        let cells = self.layout.cells;
        // Built on the first rebind: most admitted states find every
        // moved slot's program in the table.
        let mut rebinding: Option<Rebinding> = None;
        for (i, &src) in perm.iter().enumerate() {
            let (src, id) = (usize::from(src), key[self.layout.prog(i)]);
            if src == i || self.programs.contains(i, id) {
                continue;
            }
            let mut prog = self.programs.get(src, id).boxed_clone();
            // A relocated program rebinds when its destination owns
            // cells, or when family members moved with it (its own
            // family handle relocated).
            if spec.has_moving_scalarsets() || !spec.owned(i).is_empty() {
                prog.rebind(rebinding.get_or_insert_with(|| cell_map(perm, cells, spec)));
            }
            self.programs.insert(i, id, prog);
        }
    }
}

/// The swarm's executor: runs seeded executions of one build on a
/// [`Machine`], as [`run`](crate::run) runs them over [`Memory`].
///
/// An execution is an interned key plus the decided flags the scheduler
/// reads and each process's decisions as interned ids. It starts from a
/// copy of the root key. A step patches the key
/// from the [`StepMemo`] and steps a clone of the [`ProgramTable`]'s
/// program against a [`StepOverlay`] only on a miss; a crash patches in
/// the precomputed post-crash program id. So an
/// execution rests on the [`Program`] contract the checker rests on — a
/// step makes one access, `state_key` is the complete volatile state,
/// and `on_crash` resets a program to its post-crash state — and the
/// memo's assertions fire on a step that breaks its first two clauses.
/// Nothing bounds the process count.
pub(crate) struct MemoExecutor {
    machine: Machine,
    root: Vec<u32>,
    key: Vec<u32>,
    decided: Vec<bool>,
    outputs: Vec<Vec<u32>>,
}

/// What one [`MemoExecutor::run`] did, as [`Execution`](crate::Execution)
/// reports it.
pub(crate) struct MemoRun {
    pub(crate) steps: usize,
    pub(crate) crashes: usize,
    pub(crate) all_decided: bool,
    pub(crate) hit_step_limit: bool,
}

impl MemoExecutor {
    /// An executor of the system that starts as `mem` and `programs`.
    pub(crate) fn new(mem: &Memory, programs: Vec<Box<dyn Program>>) -> Self {
        let (machine, _, root) = Machine::root(mem, programs, None);
        let n = machine.layout.n;
        MemoExecutor {
            machine,
            key: root.clone(),
            root,
            decided: vec![false; n],
            outputs: vec![Vec::new(); n],
        }
    }

    /// Runs one execution under `sched` until the scheduler ends it or
    /// `max_actions` actions were taken, exactly as [`run`](crate::run)
    /// with that bound would.
    pub(crate) fn run(&mut self, sched: &mut impl Scheduler, max_actions: usize) -> MemoRun {
        let n = self.machine.layout.n;
        self.key.copy_from_slice(&self.root);
        self.decided.fill(false);
        self.outputs.iter_mut().for_each(Vec::clear);
        let (mut steps, mut crashes, mut actions) = (0, 0, 0);
        let hit_step_limit = loop {
            if actions >= max_actions {
                break true;
            }
            let ctx = SchedContext {
                n,
                decided: &self.decided,
                steps_taken: steps,
                crashes_injected: crashes,
            };
            let Some(action) = sched.next_action(&ctx) else {
                break false;
            };
            actions += 1;
            // Each arm patches the key itself (see `Machine::patch`).
            match action {
                Action::Step(p) | Action::Branch(p, _) => {
                    assert!(p < n, "scheduler stepped unknown process {p}");
                    if self.decided[p] {
                        continue;
                    }
                    steps += 1;
                    let change = Change::Step(p, self.machine.outcome(&self.key, action, p));
                    self.machine.patch(&mut self.key, change);
                    if let Some(id) = self.machine.decision(change) {
                        self.decided[p] = true;
                        self.outputs[p].push(id);
                    }
                }
                Action::Crash(p) => {
                    assert!(p < n, "scheduler crashed unknown process {p}");
                    crashes += 1;
                    self.decided[p] = false;
                    self.machine.patch(&mut self.key, Change::Crash(p));
                }
                Action::CrashAll => {
                    crashes += 1;
                    self.decided.fill(false);
                    self.machine.patch(&mut self.key, Change::CrashAll);
                }
            }
        };
        MemoRun {
            steps,
            crashes,
            all_decided: self.decided.iter().all(|&d| d),
            hit_step_limit,
        }
    }

    /// The last execution's final key slots: every cell's content id,
    /// then every program's state-key id.
    pub(crate) fn slots(&self) -> &[u32] {
        let layout = &self.machine.layout;
        &self.key[..layout.prog(layout.n)]
    }

    /// The number of memory cells, the first [`slots`](Self::slots).
    pub(crate) fn cell_count(&self) -> usize {
        self.machine.layout.cells
    }

    /// Every decision of the last execution, per process in run order,
    /// as interned ids.
    pub(crate) fn outputs(&self) -> &[Vec<u32>] {
        &self.outputs
    }

    /// The id of `value` in this executor's interner.
    pub(crate) fn intern(&mut self, value: &Value) -> u32 {
        self.machine.interner.intern(value)
    }

    /// The value behind an id of this executor.
    pub(crate) fn value(&self, id: u32) -> &Value {
        self.machine.interner.value(id)
    }
}

/// Encodes an [`Action`] into the [`StepMemo`]'s action code: `1` is
/// `CrashAll`, steps and crashes interleave from `2` (never exceeding
/// `131` for the asserted `n ≤ 64` processes), and
/// internal-nondeterminism branches pack `(pid, choice)` from `132` up.
/// Choice ids are process-slot-indexed ([`Program::choices`]), and the
/// bound `choice < 61` keeps the code injective.
fn action_code(action: Action) -> u16 {
    match action {
        Action::CrashAll => 1,
        Action::Step(p) => 2 + 2 * u16::try_from(p).expect("pid fits u16"),
        Action::Crash(p) => 3 + 2 * u16::try_from(p).expect("pid fits u16"),
        Action::Branch(p, c) => {
            assert!(
                c < 61,
                "step memo action codes pack branch choice ids below 61; \
                 choice id {c} of p{p} exceeds the supported 60"
            );
            132 + 61 * u16::try_from(p).expect("pid fits u16")
                + u16::try_from(c).expect("choice fits u16")
        }
    }
}

/// Renames an action from canonical coordinates to original pids via the
/// accumulated canonical→original map `m` (`None` = identity). Branch
/// choice ids are process-slot-indexed ([`Program::choices`]), so they
/// rename through the same map as the pids.
fn rename_action(action: Action, m: Option<&[u8]>) -> Action {
    match (m, action) {
        (None, a) => a,
        (Some(m), Action::Step(p)) => Action::Step(m[p] as usize),
        (Some(m), Action::Branch(p, c)) => Action::Branch(m[p] as usize, m[c] as usize),
        (Some(m), Action::Crash(p)) => Action::Crash(m[p] as usize),
        (Some(_), Action::CrashAll) => Action::CrashAll,
    }
}

/// Validates a [`SymmetrySpec`] against the system's initial state: the
/// orbit condition (see the `canon` module docs) requires every orbit's
/// members to start with identical program objects — asserted through
/// equal root [`Program::state_key`]s, the same completeness contract
/// the memoization relies on.
///
/// Declared **owned cells** are additionally validated here, at search
/// start, so an unsound declaration can never corrupt a search:
///
/// * the owned lists of one orbit's members correspond (equal lengths);
/// * every owned cell is a real cell of this system's memory;
/// * the root is stabilized: an orbit's owned cells hold equal values
///   position-for-position across its members;
/// * the **owner-only rule**: a cell owned by a process of an acting
///   orbit is referenced by no other process — checked against the
///   **analyzed footprint** ([`crate::footprint::analyze_system`],
///   computed by the entry points) when the analysis converges, else
///   against the hand-written [`Program::referenced_cells`], and
///   rejected outright when neither is available (soundness cannot be
///   established, so it is not assumed);
/// * when both are available, the hand-written declaration must
///   **cover** the analyzed footprint — an under-declaration would have
///   silently weakened exactly this validation;
/// * every owning member of an acting orbit really supports
///   [`Program::rebind`] (probed with the identity map, which must also
///   preserve [`Program::state_key`]) — a rebind-less program would
///   otherwise panic mid-search, at the first non-identity
///   canonicalization.
///
/// The root programs are read from `machine`'s [`ProgramTable`].
fn validate_symmetry(
    machine: &Machine,
    root: &[u32],
    spec: &SymmetrySpec,
    analyzed: Option<&SystemFootprint>,
) {
    let layout = &machine.layout;
    let programs: Vec<&dyn Program> = (0..layout.n)
        .map(|p| machine.programs.get(p, root[layout.prog(p)]))
        .collect();
    assert_eq!(
        spec.n(),
        layout.n,
        "SymmetrySpec describes {} processes but the system has {}",
        spec.n(),
        layout.n
    );
    for pids in spec.acting_orbits() {
        let first = pids[0];
        let first_key = programs[first].state_key();
        for &p in &pids[1..] {
            assert_eq!(
                programs[p].state_key(),
                first_key,
                "symmetry orbit {pids:?} groups processes with different \
                 initial states (p{first} vs p{p}); orbit members must run \
                 the same program with the same input"
            );
        }
    }
    spec.validate_owned_shape();
    if spec.has_moving_owned_cells() {
        validate_owned_cells(root, &programs, layout.cells, spec, analyzed);
    }
    if spec.has_moving_scalarsets() {
        validate_scalarset_cells(root, &programs, layout.cells, spec);
    }
    // Orbit reference consistency (best-effort, when enumerable): two
    // members of one orbit must reference the *same* cells outside
    // their own owned lists. A per-process distinguishing cell that is
    // not declared owned makes orbit weights wrong — the arrangements
    // the multinomial counts would not all be reachable states of one
    // canonical class — so the declaration is rejected rather than
    // silently miscounting. Programs without `referenced_cells` keep
    // the pre-rebind status quo: the factory contract vouches for them.
    for pids in spec.acting_orbits() {
        let mut reference: Option<(Pid, std::collections::BTreeSet<crate::memory::Addr>)> = None;
        for &p in pids {
            let Some(refs) = programs[p].referenced_cells() else {
                continue;
            };
            let shared: std::collections::BTreeSet<crate::memory::Addr> = refs
                .into_iter()
                .filter(|c| !spec.owned(p).contains(c))
                .collect();
            match &reference {
                None => reference = Some((p, shared)),
                Some((q, expected)) => assert_eq!(
                    &shared, expected,
                    "symmetry orbit {pids:?}: p{q} and p{p} reference \
                     different shared cells outside their owned lists; \
                     per-process cells must be declared owned \
                     (SymmetrySpec::with_owned_cells) or the processes \
                     kept in separate orbits"
                ),
            }
        }
    }
}

/// The owned-cell half of [`validate_symmetry`]: in-range addresses,
/// root stabilization, rebind support and the owner-only reference
/// rule (analyzed-footprint-first; see [`validate_symmetry`]).
fn validate_owned_cells(
    root: &[u32],
    programs: &[&dyn Program],
    cells: usize,
    spec: &SymmetrySpec,
    analyzed: Option<&SystemFootprint>,
) {
    // Root stabilization: owned contents equal across each orbit.
    for pids in spec.acting_orbits() {
        let first = pids[0];
        for &p in pids {
            for &cell in spec.owned(p) {
                assert!(
                    cell.index() < cells,
                    "owned cell {cell} of p{p} is outside this system's \
                     memory ({cells} cells)"
                );
            }
        }
        for &p in &pids[1..] {
            for (k, (&a, &b)) in spec.owned(first).iter().zip(spec.owned(p)).enumerate() {
                assert_eq!(
                    root[a.index()],
                    root[b.index()],
                    "symmetry orbit {pids:?}: owned cells at position {k} \
                     ({a} of p{first}, {b} of p{p}) differ at the root; the \
                     orbit group must stabilize the initial state"
                );
            }
        }
    }
    // The owner-only rule, checked against the analyzed footprint when
    // the analysis converged, else against the hand-written
    // `referenced_cells`. One of the two must be available — an unknown
    // reference set could hide a cross-reference, so the declaration is
    // rejected rather than trusted.
    let moving: Vec<(crate::memory::Addr, Pid)> = spec
        .acting_orbits()
        .flat_map(|pids| pids.iter().copied())
        .flat_map(|p| spec.owned(p).iter().map(move |&c| (c, p)))
        .collect();
    for (p, prog) in programs.iter().enumerate() {
        let declared = prog.referenced_cells();
        if let (Some(fp), Some(declared)) = (analyzed, &declared) {
            // A declaration that misses an analyzed access would have
            // silently weakened this very validation — hard error.
            for (&cell, modes) in &fp.per_process[p].cells {
                assert!(
                    declared.contains(&cell),
                    "p{p} under-declares referenced_cells: the footprint \
                     analysis observes an access to cell {cell} ({}) that \
                     the declaration omits (rule: referenced_cells must \
                     cover every cell the process may access)",
                    modes.label()
                );
            }
        }
        let refs = analyzed
            .map(|fp| fp.per_process[p].accessed())
            .or(declared)
            .unwrap_or_else(|| {
                panic!(
                    "owned cells are declared but process p{p} does not \
                     enumerate its referenced cells \
                     (Program::referenced_cells returned None) and the \
                     footprint analysis did not converge; the owner-only \
                     soundness rule cannot be validated, so the declaration \
                     is rejected"
                )
            });
        for &(cell, owner) in &moving {
            assert!(
                owner == p || !refs.contains(&cell),
                "cell {cell} is owned by p{owner} but referenced by p{p}; \
                 owned cells permute with their owners, so a cell may be \
                 accessed only by the process that owns it (Fig. 4-style \
                 global scans of per-process registers are outside the \
                 sound fragment — see DESIGN.md §3)"
            );
        }
    }
    // Rebind support: canonicalization will call `Program::rebind` on
    // every relocated owner, so probe it up front (identity map on a
    // clone) — a rebind-less program must be rejected here, at search
    // start, not at the first non-identity permutation deep in a
    // search. Probed last: a declaration that already violates the
    // owner-only rule gets the semantic rejection above, not this
    // mechanical one.
    for pids in spec.acting_orbits() {
        for &p in pids.iter().filter(|&&p| !spec.owned(p).is_empty()) {
            assert!(
                supports_rebind(programs[p], p, cells),
                "p{p} declares owned cells but its Program does not \
                 support address rebinding (Program::rebind panicked on \
                 the identity map); implement rebind for it, or drop the \
                 owned-cell declaration — `rc_runtime::lint_system` / \
                 `tables lint` derive sound owned-cell candidates"
            );
        }
    }
}

/// Whether `prog`, process `p`'s program over `cells` cells, supports
/// [`Program::rebind`]: rebinding a clone with the identity map must not
/// panic. Panics if that rebind changes the program's `state_key`.
fn supports_rebind(prog: &dyn Program, p: Pid, cells: usize) -> bool {
    let mut probe = prog.boxed_clone();
    let identity = Rebinding::identity(cells);
    let rebound = crate::footprint::quiet_probe(|| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe.rebind(&identity)))
    })
    .is_ok();
    if rebound {
        assert_eq!(
            probe.state_key(),
            prog.state_key(),
            "p{p}: Program::rebind changed the state_key under the \
             identity map; addresses are identity, not volatile state"
        );
    }
    rebound
}

/// The scalarset half of [`validate_symmetry`]: in-range addresses,
/// root stabilization across each acting orbit, and rebind support for
/// every orbit member (family permutation rebinds relocated programs
/// even when they own no cells). The *semantic* soundness of permuting
/// a family — the order-insensitive fold property — is established by
/// the scalarset certificate in [`prepare_analysis`], not here.
fn validate_scalarset_cells(
    root: &[u32],
    programs: &[&dyn Program],
    cells: usize,
    spec: &SymmetrySpec,
) {
    for (f, family) in spec.scalarset_families().iter().enumerate() {
        for (p, &cell) in family.iter().enumerate() {
            assert!(
                cell.index() < cells,
                "scalarset family {f}: cell {cell} (position {p}) is \
                 outside this system's memory ({cells} cells)"
            );
        }
    }
    for pids in spec.acting_orbits() {
        let first = pids[0];
        for &p in &pids[1..] {
            for (f, family) in spec.scalarset_families().iter().enumerate() {
                assert_eq!(
                    root[family[first].index()],
                    root[family[p].index()],
                    "scalarset family {f}: cells {} (p{first}) and {} (p{p}) \
                     differ at the root; the orbit group must stabilize the \
                     initial state",
                    family[first],
                    family[p]
                );
            }
        }
        for &p in pids {
            assert!(
                supports_rebind(programs[p], p, cells),
                "a scalarset family spans p{p}'s orbit but its Program \
                 does not support address rebinding (Program::rebind \
                 panicked on the identity map); canonicalization rebinds \
                 every relocated member, so implement rebind or drop the \
                 scalarset declaration"
            );
        }
    }
}

/// Footprint-analysis artifacts, computed by the public entry points
/// (which hold the factory's `Memory` and programs before the engine
/// interns them into its root key) and threaded into the engine:
/// the analyzed footprint feeds [`validate_symmetry`].
#[derive(Default)]
struct AnalysisCtx {
    footprint: Option<SystemFootprint>,
    /// The per-local-state analysis backing POR, present iff
    /// [`ExploreConfig::por`] is set (setup panics when the system is
    /// ineligible — see [`ExploreConfig::por`]).
    por: Option<Arc<SystemAnalysis>>,
}

/// Runs the footprint analysis when this search needs it: always when
/// [`ExploreConfig::por`] asks for it (analysis failure is then a panic
/// — an explicit request must not silently no-op), and for owned-cell
/// symmetry validation (failure there falls back to the hand-written
/// `referenced_cells` declarations, the pre-analyzer status quo). POR
/// additionally requires acyclic step graphs and — under symmetry —
/// equivariant per-state footprints across every orbit; both are
/// enforced here, at search start.
fn prepare_analysis(
    mem: &Memory,
    programs: &[Box<dyn Program>],
    config: &ExploreConfig,
    spec: Option<&SymmetrySpec>,
) -> AnalysisCtx {
    let wants_validation = spec.is_some_and(|s| !s.is_trivial() && s.has_moving_owned_cells());
    let mut ctx = AnalysisCtx::default();
    if let Some(spec) = spec.filter(|s| s.has_moving_scalarsets()) {
        // Scalarset families are permuted only under a clean
        // equivariance certificate — soundness is linted, not assumed.
        let cert = crate::scalarset::certify_scalarsets_cached(
            config.analysis_id.as_deref(),
            mem,
            programs,
            spec,
            AnalysisBudget::default(),
        );
        if !cert.is_certified() {
            panic!(
                "the declared scalarset families are not certified \
                 order-insensitive; refusing to permute them:\n  {}",
                cert.errors.join("\n  ")
            );
        }
    }
    if config.por {
        let analysis = match config.analysis_id.as_deref() {
            Some(id) => system_analysis_cached(id, mem, programs, AnalysisBudget::default()),
            None => analyze_system_states(mem, programs, AnalysisBudget::default()).map(Arc::new),
        };
        let analysis = analysis.unwrap_or_else(|e| {
            panic!("ExploreConfig::por is set but the footprint analysis failed: {e}")
        });
        assert!(
            analysis.step_graphs_acyclic(),
            "ExploreConfig::por is set but a process's step graph is \
             cyclic; the per-state future footprints of a spinning \
             process are not grounded in termination, so POR is refused \
             for this system (lint_ample reports which process)"
        );
        if let Some(spec) = spec.filter(|s| !s.is_trivial()) {
            if spec.has_moving_scalarsets() {
                // The pairwise owned-cell rename below cannot express a
                // cross-read family: at a mid-scan key the immediate
                // sets are identical *unrenamed* across members, while
                // own-position accesses need the rename — one map
                // cannot serve both. The scalarset certificate (checked
                // above) subsumes this: its member-exchange and rebind
                // fidelity checks prove the per-slot tables stay valid
                // after relocation.
            } else if let Err(e) = check_por_equivariance(&analysis, spec) {
                panic!("ExploreConfig::por with symmetry: {e}");
            }
        }
        ctx.footprint = Some(analysis.footprint.clone());
        ctx.por = Some(analysis);
    }
    if wants_validation && ctx.footprint.is_none() {
        ctx.footprint = analyze_system(mem, programs, true, AnalysisBudget::default()).ok();
    }
    ctx
}

/// Checks that the per-local-state footprints are **equivariant** across
/// every acting orbit of `spec`: orbit members must memoize the same
/// `(state_key, decided)` local states, and each state's access sets
/// must agree modulo the renaming that swaps the two members' owned
/// cells position-for-position. Canonicalization relocates programs
/// between orbit slots, so the POR engine looks a relocated program's
/// state up in the *destination* slot's map — equivariance is exactly
/// what makes that lookup yield the relocated process's true footprint.
/// Checked for the transposition of each member with the orbit's first
/// (transpositions generate the orbit's symmetric group).
fn check_por_equivariance(analysis: &SystemAnalysis, spec: &SymmetrySpec) -> Result<(), String> {
    let bits = analysis.cells + 1;
    for pids in spec.acting_orbits() {
        let first = pids[0];
        for &p in &pids[1..] {
            // The transposition (first p) on cell indices: identity
            // except the two members' owned cells, swapped
            // position-for-position; the decision pseudo-cell is fixed.
            let mut rename: Vec<usize> = (0..bits).collect();
            for (&a, &b) in spec.owned(first).iter().zip(spec.owned(p)) {
                rename[a.index()] = b.index();
                rename[b.index()] = a.index();
            }
            let (ma, mb) = (&analysis.per_process[first], &analysis.per_process[p]);
            if ma.infos.len() != mb.infos.len() {
                return Err(format!(
                    "orbit {pids:?}: p{first} memoizes {} local states but \
                     p{p} memoizes {}; the per-state footprint maps are \
                     not equivariant, so POR cannot compose with this \
                     symmetry",
                    ma.infos.len(),
                    mb.infos.len()
                ));
            }
            for info in &ma.infos {
                let Some(other) = mb.lookup(&info.key, info.decided) else {
                    return Err(format!(
                        "orbit {pids:?}: p{first} memoizes a local state \
                         p{p} never reaches; the per-state footprint maps \
                         are not equivariant, so POR cannot compose with \
                         this symmetry"
                    ));
                };
                let pairs = [
                    ("imm_accessed", &info.imm_accessed, &other.imm_accessed),
                    ("imm_mutated", &info.imm_mutated, &other.imm_mutated),
                    (
                        "future_accessed",
                        &info.future_accessed,
                        &other.future_accessed,
                    ),
                    (
                        "future_mutated",
                        &info.future_mutated,
                        &other.future_mutated,
                    ),
                ];
                for (label, a, b) in pairs {
                    if !renamed_equal(a, b, &rename) {
                        return Err(format!(
                            "orbit {pids:?}: p{first} and p{p} disagree on \
                             {label} of a shared local state (modulo the \
                             owned-cell renaming); the per-state footprint \
                             maps are not equivariant, so POR cannot \
                             compose with this symmetry"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Whether `rename` maps `a` exactly onto `b` (`rename` is a bijection
/// on bit indices, so image inclusion plus equal cardinality suffices).
fn renamed_equal(a: &CellSet, b: &CellSet, rename: &[usize]) -> bool {
    let mut len_a = 0usize;
    for bit in a.iter() {
        len_a += 1;
        if !b.contains(rename[bit]) {
            return false;
        }
    }
    len_a == b.iter().count()
}

/// The per-search partial-order reduction engine: the four crash-free
/// footprint sets of every analyzed undecided local state, re-keyed by
/// **interned** program-state ids, so the hot expansion path looks a
/// process's footprints up by the `u32` already in the node key, through
/// a dense table, and tests them as words.
struct PorEngine {
    n: usize,
    /// Words per footprint set: `(cells + 1).div_ceil(64)`, the
    /// decision pseudo-cell ([`CellSet`]) included.
    width: usize,
    /// `states[id * n + p]`: which analyzed local state slot `p`'s
    /// undecided program with state-key id `id` is, or
    /// [`NONE`](Self::NONE) when the analysis memoized no such state
    /// (decided states never need a lookup: enabled steps belong to
    /// undecided processes).
    states: Vec<u32>,
    /// Per analyzed undecided local state, its four crash-free sets of
    /// `width` words each, in [`IMM_ACCESSED`](Self::IMM_ACCESSED),
    /// [`IMM_MUTATED`](Self::IMM_MUTATED),
    /// [`FUTURE_ACCESSED`](Self::FUTURE_ACCESSED),
    /// [`FUTURE_MUTATED`](Self::FUTURE_MUTATED) order.
    sets: Vec<u64>,
}

/// The analyzed local state of each enabled process of one node, indexed
/// by pid ([`PorEngine::local_states`]).
type LocalStates = [u32; 64];

impl PorEngine {
    const NONE: u32 = u32::MAX;
    const IMM_ACCESSED: usize = 0;
    const IMM_MUTATED: usize = 1;
    const FUTURE_ACCESSED: usize = 2;
    const FUTURE_MUTATED: usize = 3;

    /// Builds the engine, interning every analyzed state key in a fixed
    /// order (pid-major, discovery order) right after the post-crash
    /// program keys ([`Machine::root`]), so value ids, and therefore
    /// every node key, are a pure function of the system.
    fn new(analysis: &SystemAnalysis, interner: &mut ValueInterner) -> Self {
        let n = analysis.per_process.len();
        let width = (analysis.cells + 1).div_ceil(64);
        let mut undecided: Vec<(usize, u32)> = Vec::new();
        let mut sets = Vec::new();
        for (p, map) in analysis.per_process.iter().enumerate() {
            for info in &map.infos {
                let id = interner.intern(&info.key);
                if info.decided {
                    continue;
                }
                let s = u32::try_from(undecided.len()).expect("local states fit u32");
                undecided.push((id as usize * n + p, s));
                for set in [
                    &info.imm_accessed,
                    &info.imm_mutated,
                    &info.future_accessed,
                    &info.future_mutated,
                ] {
                    let at = sets.len();
                    sets.resize(at + width, 0);
                    for bit in set.iter() {
                        sets[at + bit / 64] |= 1 << (bit % 64);
                    }
                }
            }
        }
        let mut states = vec![Self::NONE; interner.len() * n];
        for (at, s) in undecided {
            states[at] = s;
        }
        PorEngine {
            n,
            width,
            states,
            sets,
        }
    }

    /// The analyzed local state of each process in the pid mask
    /// `enabled` at the node with key `key`, by the interned key id in
    /// its program slot. A reachable state the analysis never memoized
    /// means the analyzer under-approximated the state space — unsound,
    /// so panic.
    fn local_states(&self, key: &[u32], layout: &KeyLayout, enabled: u64) -> LocalStates {
        let mut local = [Self::NONE; 64];
        for p in pids_in(enabled) {
            let at = key[layout.prog(p)] as usize * self.n + p;
            local[p] = match self.states.get(at) {
                Some(&s) if s != Self::NONE => s,
                _ => panic!(
                    "POR: process p{p} reached a local state the footprint \
                     analysis never memoized; the analyzer is unsound for \
                     this system"
                ),
            };
        }
        local
    }

    /// Footprint set `which` of analyzed local state `s`, as words.
    #[inline]
    fn set(&self, s: u32, which: usize) -> &[u64] {
        &self.sets[(s as usize * 4 + which) * self.width..][..self.width]
    }

    /// Whether sets `a` of local state `s` and `b` of local state `t`
    /// share no cell.
    #[inline]
    fn disjoint(&self, (s, a): (u32, usize), (t, b): (u32, usize)) -> bool {
        let (a, b) = (self.set(s, a), self.set(t, b));
        a.iter().zip(b).all(|(x, y)| x & y == 0)
    }

    /// Whether the immediate steps of local states `s` and `t` commute:
    /// neither mutates a cell the other accesses.
    fn steps_commute(&self, s: u32, t: u32) -> bool {
        self.disjoint((t, Self::IMM_MUTATED), (s, Self::IMM_ACCESSED))
            && self.disjoint((s, Self::IMM_MUTATED), (t, Self::IMM_ACCESSED))
    }

    /// The persistent-set rule POR prunes with, at a crash-free node
    /// whose enabled processes are the pid mask `enabled`, with `local`
    /// their analyzed local states: the first enabled pid (ascending) whose
    /// immediate step no other enabled process can ever conflict with —
    /// its immediate writes miss every other process's future accesses,
    /// and every other process's future writes miss its immediate
    /// accesses — or `None` when no enabled step qualifies.
    /// [`spot_check_pruned`] re-checks exactly this choice.
    fn persistent_singleton(&self, local: &LocalStates, enabled: u64) -> Option<usize> {
        pids_in(enabled).find(|&p| {
            let s = local[p];
            pids_in(enabled & !(1 << p)).all(|q| {
                let t = local[q];
                self.disjoint((s, Self::IMM_MUTATED), (t, Self::FUTURE_ACCESSED))
                    && self.disjoint((t, Self::FUTURE_MUTATED), (s, Self::IMM_ACCESSED))
            })
        })
    }
}

/// The pids in `mask`, ascending.
fn pids_in(mask: u64) -> impl Iterator<Item = usize> {
    let mut rest = mask;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let p = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            p
        })
    })
}

/// The pid a step or branch action moves, `None` for a crash.
fn acting_pid(action: Action) -> Option<usize> {
    match action {
        Action::Step(p) | Action::Branch(p, _) => Some(p),
        Action::Crash(_) | Action::CrashAll => None,
    }
}

/// The mask of pids that step or branch in `actions`: a process whose
/// local state offers several `Branch` actions counts once.
fn acting_pids(actions: &[(Action, u64)]) -> u64 {
    actions.iter().fold(0, |mask, &(a, _)| {
        mask | acting_pid(a).map_or(0, |p| 1 << p)
    })
}

/// Expands one node under the optional POR engine: appends the child
/// actions to `out` — each paired with the **sleep mask** its child node
/// will carry — and returns whether the node is terminal (no enabled
/// action at all: a complete execution). Without POR every enabled
/// action is appended with an empty mask.
///
/// With POR, at a crash-free node (any enabled crash forces full
/// expansion — crashes conflict with everything, which keeps every
/// [`CrashModel`] adversary complete; crash-freedom is hereditary along
/// step edges, so sleep sets only ever form below crash-free nodes):
///
/// * the **persistent set** is the singleton
///   [`PorEngine::persistent_singleton`] picks, else all enabled steps;
/// * the node's own sleep set `Z` (read from its key) drops members
///   whose subtrees a sibling already covers;
/// * each expanded child inherits the sleeping pids that remain
///   immediately independent of the step taken, plus its
///   already-expanded siblings — classic sleep-set propagation, in
///   ascending pid order so the set is deterministic.
///
/// Nothing allocates once `out` has grown: processes are grouped on a
/// pid mask, and the reduced list is written above the enabled one and
/// moved down over it.
///
/// Appending nothing for a node that is not terminal means it is fully
/// pruned: visited and counted, but **not** a leaf and expanding
/// nothing.
fn expand_actions(
    machine: &mut Machine,
    key: &[u32],
    model: &CrashModel,
    por: Option<&PorEngine>,
    out: &mut Vec<(Action, u64)>,
) -> bool {
    let start = out.len();
    machine.enabled_actions(key, model, out);
    let terminal = out.len() == start;
    let Some(por) = por else {
        return terminal;
    };
    let layout = &machine.layout;
    let sleep = layout.read_sleep(key);
    debug_assert_eq!(
        sleep & layout.read_decided(key),
        0,
        "a sleeping process is undecided by construction"
    );
    if terminal {
        // A sleeping process stays enabled (nobody else decides it, and
        // crash-free nodes stay crash-free), so terminals carry Z = ∅
        // and POR counts exactly the unreduced leaves.
        assert_eq!(sleep, 0, "terminal node carries a sleep set");
        return true;
    }
    let end = out.len();
    if out[start..end]
        .iter()
        .any(|&(a, _)| acting_pid(a).is_none())
    {
        // Crash-enabled: full expansion, and the sleep set is provably
        // empty — a node with a non-empty sleep set descends from a
        // crash-free node through step edges only, and crash-freedom is
        // hereditary along steps (the budget never recovers, decided
        // bits only get set).
        assert_eq!(sleep, 0, "crash-enabled node carries a sleep set");
        return false;
    }
    // POR reasons per **process**: a pid's internal alternatives
    // (several `Branch` actions) share one footprint entry — the
    // analyzer unions immediate sets over all choices — and are either
    // all expanded or all covered by a sibling subtree together.
    let enabled = acting_pids(&out[start..end]);
    let local = por.local_states(key, layout, enabled);
    // The persistent set: the singleton `persistent_singleton` picks,
    // else every enabled step. The future sets are the crash-free ones —
    // sound precisely because this node is crash-free and stays so along
    // every step-only continuation.
    let persistent = por
        .persistent_singleton(&local, enabled)
        .map_or(enabled, |p| 1 << p);
    // Sleep bits are pure pruning, so propagating fewer is always
    // sound. At a node where some process is mid-branch (several
    // enabled `Branch` alternatives), propagating them is also a net
    // loss: the choice diamonds below are collapsed by the memo table
    // anyway, while a nonzero sleep mask in the child's node key splits
    // every memoized state it reaches — measured on the Fig. 4
    // branching scan, that splitting costs more states than the sleep
    // pruning saves, and suppressing it here restores the persistent-set
    // reduction (E17's scalarset+por composition). Deterministic nodes
    // keep classic sleep-set propagation unchanged.
    let branching = end - start > enabled.count_ones() as usize;
    // `Z ∪ {already-expanded siblings}`: a pid's bit joins as its
    // subtree is scheduled, so later siblings may sleep on it.
    let mut cover = sleep;
    for p in pids_in(persistent & !sleep) {
        // (A sleeping pid is skipped: a sibling subtree covers its step.)
        let mut child_sleep = 0u64;
        if !branching {
            for r in pids_in(cover & enabled & !(1 << p)) {
                if por.steps_commute(local[p], local[r]) {
                    child_sleep |= 1 << r;
                }
            }
        }
        for k in start..end {
            let (action, _) = out[k];
            if acting_pid(action) == Some(p) {
                out.push((action, child_sleep));
            }
        }
        cover |= 1 << p;
    }
    let kept = out.len() - end;
    out.copy_within(end.., start);
    out.truncate(start + kept);
    false
}

/// The key half of canonicalization: maps the child key `key` in place
/// to its canonical representative under `spec`'s orbit permutations.
/// Program slots, decided bits and sleep bits move together, and
/// declared **owned cells** and scalarset family members move with their
/// slots; undeclared shared memory never moves (see the `canon` module
/// docs for the soundness argument and the owner-only reference rule).
/// Once the key turned out to be new, [`Machine::relocate`] gives the
/// moved slots their programs. Whether a program is
/// [`Program::scalarset_pinned`] is read from `machine`'s
/// [`ProgramTable`], by its slot and the id in `key`.
///
/// Orbit members are ordered by signature — program key, decided bit,
/// sleep bit, owned-cell and family contents — all read from the key.
/// Ids compare by their interner **rank**, the position of their value
/// in the structural order (`Value::cmp`) of the values interned so far,
/// so two ids compare as their values do: the representative never
/// depends on which value happened to be interned first and is
/// identical across runs, and a comparison costs two `u32` loads.
///
/// Returns whether processes moved; `perm` then holds the permutation
/// (`perm[i]` = source slot of canonical slot `i`). `tmp` is a reusable
/// buffer.
fn canonicalize_key(
    key: &mut [u32],
    perm: &mut Vec<u8>,
    tmp: &mut Vec<u32>,
    spec: &SymmetrySpec,
    machine: &Machine,
) -> bool {
    let (layout, interner) = (&machine.layout, &machine.interner);
    let pinned = |q: usize| {
        let id = key[layout.prog(q)];
        machine.programs.get(q, id).scalarset_pinned()
    };
    if spec.has_moving_scalarsets() && (0..layout.n).any(pinned) {
        // A pinned program references scalarset family members
        // *positionally* (a mid-scan mask of checked positions);
        // permuting the family under it would dangle those references.
        // Identity is always sound — pinned states simply forgo
        // reduction, and the certifier guarantees the states that carry
        // leaf weights (decided ones) are never pinned.
        return false;
    }
    // The sleep bit joins the signature (constant `false` with POR off,
    // so ties — and therefore representative choices — are unchanged):
    // under POR, node identity is `(state, sleep set)`, and the mask
    // permutes with its processes exactly like the decided bits.
    let decided = layout.read_decided(key);
    let sleep = layout.read_sleep(key);
    let by_value = |a: u32, b: u32| interner.rank(a).cmp(&interner.rank(b));
    let moved = spec.canonical_perm_by(perm, |a, b| {
        // Owned-cell and family contents are part of the signature: the
        // permutation moves them, so the order must be total over them
        // (two members with equal program keys but different owned
        // contents are *different* payloads).
        by_value(key[layout.prog(a)], key[layout.prog(b)])
            .then((decided >> a & 1).cmp(&(decided >> b & 1)))
            .then((sleep >> a & 1).cmp(&(sleep >> b & 1)))
            .then_with(|| {
                moved_cells(spec, a, b)
                    .map(|(x, y)| by_value(key[x.index()], key[y.index()]))
                    .find(|o| o.is_ne())
                    .unwrap_or(Ordering::Equal)
            })
    });
    if !moved {
        return false;
    }
    tmp.clear();
    tmp.extend_from_slice(key);
    for (i, &src) in perm.iter().enumerate() {
        let src = usize::from(src);
        if src != i {
            key[layout.prog(i)] = tmp[layout.prog(src)];
            for (from, to) in moved_cells(spec, src, i) {
                key[to.index()] = tmp[from.index()];
            }
        }
    }
    layout.write_decided(key, permute_mask(decided, perm));
    layout.write_sleep(key, permute_mask(sleep, perm));
    true
}

/// The cells that travel when slot `src`'s payload moves to slot `dst`,
/// as `(from, to)` pairs: `src`'s owned cells onto `dst`'s, position for
/// position, then each scalarset family's member at position `src` onto
/// position `dst`. Family members move with the slots even though they
/// are cross-read — exactly what the scalarset certificate licenses (the
/// scan is an order-insensitive fold, so every program is equivariant
/// under the family permutation).
fn moved_cells(
    spec: &SymmetrySpec,
    src: usize,
    dst: usize,
) -> impl Iterator<Item = (Addr, Addr)> + '_ {
    let owned = spec.owned(src).iter().zip(spec.owned(dst));
    let families = spec
        .scalarset_families()
        .iter()
        .map(move |f| (f[src], f[dst]));
    owned.map(|(&from, &to)| (from, to)).chain(families)
}

/// `mask` with each bit `perm[i]` moved to bit `i`.
fn permute_mask(mask: u64, perm: &[u8]) -> u64 {
    perm.iter()
        .enumerate()
        .fold(0, |out, (i, &src)| out | (mask >> src & 1) << i)
}

/// The cell map of the canonicalization `perm`: each moved slot's
/// travelling cells ([`moved_cells`]) onto its destination's, the
/// identity elsewhere.
fn cell_map(perm: &[u8], cells: usize, spec: &SymmetrySpec) -> Rebinding {
    let mut map = Rebinding::identity(cells);
    for (i, &src) in perm.iter().enumerate() {
        let src = usize::from(src);
        if src != i {
            for (from, to) in moved_cells(spec, src, i) {
                map.map(from, to);
            }
        }
    }
    map
}

/// The leaf weight of an accepted canonical state: how many concrete
/// states its permutation class contains (1 without symmetry). Weighting
/// leaves with this keeps leaf counts identical with symmetry on and
/// off. Signatures come from the **resolved** key (interned ids are
/// injective, so id multiplicities equal value multiplicities).
fn leaf_weight(spec: Option<&SymmetrySpec>, key: &[u32], layout: &KeyLayout) -> usize {
    match spec {
        None => 1,
        Some(spec) => {
            let weight = spec.orbit_weight_with(|p| {
                // Owned-cell and scalarset-family ids join the signature
                // exactly as in the canonical sort: members differing
                // only in owned or family contents are distinct
                // arrangements. (Leaves are decided configurations, and
                // the certifier guarantees decided states are never
                // pinned, so families permute freely here.)
                let owned: Vec<u32> = spec.owned(p).iter().map(|a| key[a.index()]).collect();
                let family: Vec<u32> = spec.scalarset_cells(p).map(|a| key[a.index()]).collect();
                (
                    key[layout.prog(p)],
                    layout.is_decided(key, p),
                    owned,
                    family,
                )
            });
            usize::try_from(weight).expect("leaf weight fits usize")
        }
    }
}

/// A DFS frame: a cursor over the expandable actions of one visited
/// state, each carrying the sleep mask its child will inherit. The
/// actions lie on the DFS-wide action stack ([`SerialEngine::actions`])
/// from `start` to the stack's top: a child frame pushes its actions
/// above its parent's and pops them before the parent is on top again.
/// The cursor moves past an action before the edge is taken, so while
/// a frame is below the top, `actions[next - 1]` is the action that
/// reached the frame above it.
struct Frame {
    start: usize,
    next: usize,
}

/// The DFS. Its stacks are the only record of the current path: frame
/// `d` ([`Frame`]) has its state's key at `keys[d * len..][..len]`
/// ([`KeyLayout::len`]), and under symmetry the permutation that made
/// that key canonical at `perms[d * n..][..n]` (`perm[i]` = the slot
/// whose payload canonical slot `i` took; the identity when the key was
/// canonical already). An edge copies the top key above it, patches and
/// canonicalizes the copy in place, and keeps it only when the child is
/// new and expands ([`enter`](Self::enter)). So the visited set holds
/// each state's packed key and nothing else, and once the stacks have
/// grown the DFS allocates nothing per state.
struct SerialEngine<'a> {
    config: &'a ExploreConfig,
    spec: Option<&'a SymmetrySpec>,
    por: Option<&'a PorEngine>,
    machine: Machine,
    visited: PackedStateTable,
    frames: Vec<Frame>,
    /// One key per frame, and above them the key of the child being
    /// entered.
    keys: Vec<u32>,
    /// One canonicalization permutation per frame, under symmetry.
    perms: Vec<u8>,
    /// The action stack every [`Frame`] indexes into.
    actions: Vec<(Action, u64)>,
    /// The last canonicalization's permutation, and its scratch key.
    perm: Vec<u8>,
    tmp: Vec<u32>,
    leaves: usize,
    edges: usize,
    duplicates: usize,
    truncated: bool,
}

impl SerialEngine<'_> {
    /// Takes the edge `action` from the top frame, its child carrying
    /// the sleep mask `sleep`: copies the top key, patches the copy and
    /// [`enter`](Self::enter)s it. Returns the violation instead when
    /// the step's decision commits one.
    fn step(&mut self, action: Action, sleep: u64) -> Result<(), (ViolationKind, Vec<Value>)> {
        let len = self.machine.layout.len();
        let at = self.keys.len() - len;
        let change = match action {
            Action::Step(p) | Action::Branch(p, _) => {
                let (key, inputs) = (&self.keys[at..], self.config.inputs.as_deref());
                Change::Step(p, self.machine.checked_outcome(key, action, p, inputs)?)
            }
            Action::Crash(p) => Change::Crash(p),
            Action::CrashAll => Change::CrashAll,
        };
        self.keys.extend_from_within(at..);
        let child = &mut self.keys[at + len..];
        self.machine.patch(child, change);
        self.machine.layout.write_sleep(child, sleep);
        self.enter();
        Ok(())
    }

    /// Enters the key on top of the key stack: canonicalizes it under
    /// symmetry, admits it to the visited set and expands it, giving
    /// the slots canonicalization moved their programs
    /// ([`Machine::relocate`]). The key stays on the stack only when
    /// the state is new and expands into a frame.
    fn enter(&mut self) {
        let at = self.keys.len() - self.machine.layout.len();
        let moved = match self.spec {
            Some(spec) => canonicalize_key(
                &mut self.keys[at..],
                &mut self.perm,
                &mut self.tmp,
                spec,
                &self.machine,
            ),
            None => false,
        };
        if self.admit(at) {
            if let (true, Some(spec)) = (moved, self.spec) {
                self.machine.relocate(&self.keys[at..], &self.perm, spec);
            }
            if self.expand(at) {
                if self.spec.is_some() {
                    if !moved {
                        self.perm.clear();
                        self.perm.extend(0..self.machine.layout.n as u8);
                    }
                    self.perms.extend_from_slice(&self.perm);
                }
                return;
            }
        }
        self.keys.truncate(at);
    }

    /// Admits the state whose key starts at `at` on the key stack:
    /// memoizes it and returns whether it is new. Counts a known key as
    /// a duplicate, and sets `truncated` when the state is new but
    /// `max_states` is reached.
    fn admit(&mut self, at: usize) -> bool {
        let key = &self.keys[at..];
        if self.visited.len() >= self.config.max_states {
            // Past the cap, only a *new* state means truncation.
            if self.visited.get(key).is_some() {
                self.duplicates += 1;
            } else {
                self.truncated = true;
            }
            return false;
        }
        let is_new = self.visited.insert(key).1;
        if !is_new {
            self.duplicates += 1;
        }
        is_new
    }

    /// Expands the admitted state whose key starts at `at`: counts it
    /// as a leaf when terminal, and otherwise pushes its actions and
    /// its frame. Returns whether it pushed a frame (it does not when
    /// POR pruned every enabled step).
    fn expand(&mut self, at: usize) -> bool {
        let start = self.actions.len();
        let key = &self.keys[at..];
        let (model, por) = (&self.config.crash, self.por);
        if expand_actions(&mut self.machine, key, model, por, &mut self.actions) {
            self.leaves += leaf_weight(self.spec, key, &self.machine.layout);
            return false;
        }
        if self.actions.len() == start {
            // POR pruned every enabled step (all asleep): the state is
            // visited and counted, but a sibling subtree covers its
            // continuations — not a leaf, nothing to expand.
            return false;
        }
        self.frames.push(Frame { start, next: start });
        true
    }

    /// Pops the top frame with its actions, key and permutation.
    fn pop(&mut self) {
        let frame = self.frames.pop().expect("a frame to pop");
        self.actions.truncate(frame.start);
        let depth = self.frames.len();
        self.keys.truncate(depth * self.machine.layout.len());
        self.perms.truncate(depth * self.machine.layout.n);
    }

    /// The schedule the stack spells, in original process ids: each
    /// frame's cursor has passed the action it took, so
    /// `actions[next - 1]` is that action (the top frame's is the edge
    /// being taken), renamed through the canonical→original map of its
    /// frame — the permutations of the frames from the root down to it,
    /// composed root first. Without symmetry every map is the identity.
    fn schedule(&self) -> Vec<Action> {
        let n = self.machine.layout.n;
        let mut map: Option<Box<[u8]>> = None;
        let mut schedule = Vec::with_capacity(self.frames.len());
        for (d, frame) in self.frames.iter().enumerate() {
            if self.spec.is_some() {
                let perm = &self.perms[d * n..][..n];
                map = Some(match map {
                    None => Box::from(perm),
                    Some(map) => canon::compose(&map, perm),
                });
            }
            let (action, _) = self.actions[frame.next - 1];
            schedule.push(rename_action(action, map.as_deref()));
        }
        schedule
    }
}

/// Runs one rooted search on the DFS engine ([`SerialEngine`]). A
/// trivial [`SymmetrySpec`] is normalized away first, so the
/// symmetry-off hot path stays untouched.
///
/// Each edge builds its child's key from the parent's key and the step
/// memo (or the post-crash ids) and probes the visited set with it; a
/// new key is the child state, and under symmetry the slots its
/// canonicalization moved get their programs ([`Machine::relocate`]). A
/// duplicate edge — most edges of every search — therefore costs a memo
/// lookup, a key copy, canonicalization under symmetry, and one probe.
fn explore_serial(
    mem: &Memory,
    programs: Vec<Box<dyn Program>>,
    config: &ExploreConfig,
    spec: Option<&SymmetrySpec>,
    analysis: &AnalysisCtx,
) -> (ExploreOutcome, ExploreStats) {
    assert_at_most_64_processes(programs.len());
    let spec = spec.filter(|s| !s.is_trivial());
    let (machine, por, root) = Machine::root(mem, programs, analysis.por.as_deref());
    if let Some(spec) = spec {
        validate_symmetry(&machine, &root, spec, analysis.footprint.as_ref());
    }
    let layout = machine.layout;
    let mut engine = SerialEngine {
        config,
        spec,
        por: por.as_ref(),
        machine,
        visited: PackedStateTable::new(),
        frames: Vec::new(),
        keys: root,
        perms: Vec::new(),
        actions: Vec::new(),
        perm: Vec::with_capacity(layout.n),
        tmp: Vec::with_capacity(layout.len()),
        leaves: 0,
        edges: 0,
        duplicates: 0,
        truncated: false,
    };
    engine.enter();
    let outcome = 'search: {
        while !engine.truncated {
            let Some(top) = engine.frames.last_mut() else {
                break;
            };
            let Some(&(action, sleep)) = engine.actions.get(top.next) else {
                engine.pop();
                continue;
            };
            top.next += 1;
            engine.edges += 1;
            if let Err((kind, outputs)) = engine.step(action, sleep) {
                break 'search ExploreOutcome::Violation {
                    kind,
                    schedule: engine.schedule(),
                    outputs,
                };
            }
        }
        if engine.truncated {
            ExploreOutcome::Truncated {
                states: engine.visited.len(),
            }
        } else {
            ExploreOutcome::Verified {
                states: engine.visited.len(),
                leaves: engine.leaves,
            }
        }
    };
    let stats = ExploreStats {
        max_level_workers: 1,
        symmetry: spec.is_some(),
        por: por.is_some(),
        edges: engine.edges,
        duplicates: engine.duplicates,
        interned_bytes: engine.machine.interner.approx_bytes(),
        peak_table_bytes: engine.visited.resident_bytes(),
        witness_bytes: 0,
    };
    (outcome, stats)
}

/// Exhaustively explores every execution of the system produced by
/// `factory` under `config`'s adversary, on the DFS engine.
pub fn explore(factory: &SystemFactory<'_>, config: &ExploreConfig) -> ExploreOutcome {
    explore_with_stats(factory, config).0
}

/// [`explore`], additionally reporting [`ExploreStats`] about how the
/// search executed (reductions, edges, byte accounts).
pub fn explore_with_stats(
    factory: &SystemFactory<'_>,
    config: &ExploreConfig,
) -> (ExploreOutcome, ExploreStats) {
    let (mem, programs) = factory();
    let analysis = prepare_analysis(&mem, &programs, config, None);
    explore_serial(&mem, programs, config, None, &analysis)
}

/// [`explore`] with **process-symmetry reduction**: the factory also
/// declares a [`SymmetrySpec`] naming which process ids are
/// interchangeable, and the engine stores only one canonical
/// representative per permutation class. Verdicts are identical to the
/// plain search, leaf counts are identical (canonical leaves are
/// weighted by their class size), state counts shrink by up to the
/// product of the orbit factorials, and violation witness schedules are
/// reported in original process ids (each frame of the DFS stack keeps
/// its canonicalization permutation, and the schedule is renamed
/// through them). A trivial spec degenerates to [`explore`] exactly.
pub fn explore_symmetric(
    factory: &SymmetricSystemFactory<'_>,
    config: &ExploreConfig,
) -> ExploreOutcome {
    explore_symmetric_with_stats(factory, config).0
}

/// [`explore_symmetric`], additionally reporting [`ExploreStats`].
pub fn explore_symmetric_with_stats(
    factory: &SymmetricSystemFactory<'_>,
    config: &ExploreConfig,
) -> (ExploreOutcome, ExploreStats) {
    let (mem, programs, spec) = factory();
    let analysis = prepare_analysis(&mem, &programs, config, Some(&spec));
    explore_serial(&mem, programs, config, Some(&spec), &analysis)
}

/// The verdict of [`lint_ample`]: the soundness conditions the
/// partial-order reduction rests on, checked without running a reduced
/// search. `errors` name violated conditions (POR on this system would
/// be unsound or refuses to run — the engine panics on the same
/// conditions); `warnings` are diagnostics that do not block POR.
#[derive(Clone, Debug, Default)]
pub struct AmpleLintReport {
    /// Violated eligibility/soundness conditions, one message each
    /// (prefixed `A1`–`A5`, see [`lint_ample`]).
    pub errors: Vec<String>,
    /// Non-blocking diagnostics (e.g. "POR will not reduce this
    /// system").
    pub warnings: Vec<String>,
    /// States visited by the dynamic commutation spot-check (A3).
    pub spot_states: usize,
    /// Pruned-order pair re-executions performed by the spot-check.
    pub spot_pairs: usize,
}

impl AmpleLintReport {
    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Statically checks the ample-set-style soundness conditions the POR
/// engine relies on, plus a dynamic spot-check, without running a
/// reduced search — the `tables lint` / CI-gate companion to
/// [`ExploreConfig::por`]:
///
/// * **A1 — analyzability**: the per-local-state footprint analysis
///   converges for every process.
/// * **A2 — termination grounding**: every process's step-edge graph is
///   acyclic, so the crash-free future footprints are well-founded.
/// * **A3 — dynamic commutation spot-check**: a bounded unreduced walk
///   (at most `spot_check_states` states) re-derives the engine's
///   persistent-set choice at every crash-free branching state and
///   re-executes each pruned step order both ways; any divergence —
///   an under-approximated dependency — is an error.
/// * **A4 — crash closure**: no local state's crash-free future escapes
///   its crash-inclusive future (the analysis ignored no crash edge;
///   the engine's crash gate additionally forces full expansion at
///   every crash-enabled node).
/// * **A5 — symmetry equivariance** (when `spec` is given): orbit
///   members' per-state footprints agree modulo the owned-cell
///   renaming, the condition composing POR with rebind canonicalization.
pub fn lint_ample(
    mem: Memory,
    programs: Vec<Box<dyn Program>>,
    spec: Option<&SymmetrySpec>,
    crash: &CrashModel,
    analysis_id: Option<&str>,
    spot_check_states: usize,
) -> AmpleLintReport {
    let mut report = AmpleLintReport::default();
    let analysis = match analysis_id {
        Some(id) => system_analysis_cached(id, &mem, &programs, AnalysisBudget::default()),
        None => analyze_system_states(&mem, &programs, AnalysisBudget::default()).map(Arc::new),
    };
    let analysis = match analysis {
        Ok(a) => a,
        Err(e) => {
            report
                .errors
                .push(format!("A1: the footprint analysis failed: {e}"));
            return report;
        }
    };
    for (p, map) in analysis.per_process.iter().enumerate() {
        if !map.step_acyclic {
            report.errors.push(format!(
                "A2: process p{p}'s step graph is cyclic (a spinning \
                 read loop); its future footprints are not grounded in \
                 termination, so POR is ineligible"
            ));
        }
        if map
            .infos
            .iter()
            .any(|i| !i.future_accessed.is_subset(&i.crash_future_accessed))
            || map
                .infos
                .iter()
                .any(|i| !i.future_mutated.is_subset(&i.crash_future_mutated))
        {
            report.errors.push(format!(
                "A4: process p{p} has a local state whose crash-free \
                 future escapes its crash-inclusive future; the analysis \
                 ignored a crash edge"
            ));
        }
    }
    if let Some(spec) = spec.filter(|s| !s.is_trivial()) {
        if spec.has_moving_scalarsets() {
            // The pairwise owned-cell rename cannot express cross-read
            // families (see `prepare_analysis`); the scalarset
            // certificate's member-exchange and rebind-fidelity checks
            // are the equivariance condition for these specs.
            let cert = crate::scalarset::certify_scalarsets_cached(
                analysis_id,
                &mem,
                &programs,
                spec,
                AnalysisBudget::default(),
            );
            for e in &cert.errors {
                report.errors.push(format!("A5 (scalarset): {e}"));
            }
        } else if let Err(e) = check_por_equivariance(&analysis, spec) {
            report.errors.push(format!("A5: {e}"));
        }
    }
    if report.errors.is_empty() && spot_check_states > 0 {
        spot_check_pruned(
            &analysis,
            &mem,
            programs,
            crash,
            spot_check_states,
            &mut report,
        );
    }
    report
}

/// The A3 walk of [`lint_ample`]: a bounded breadth-first traversal of
/// the **unreduced** state graph that, at every crash-free state where
/// the engine would prune (a singleton persistent set among several
/// enabled steps), re-executes each pruned pair in both orders and
/// reports any divergence. Keys advance by the checker's own
/// transition ([`Machine::patch`]), and a state is identified by its
/// key without the decided-value slot: cells, program keys, decided bits
/// and the crash count.
fn spot_check_pruned(
    analysis: &SystemAnalysis,
    mem: &Memory,
    programs: Vec<Box<dyn Program>>,
    crash: &CrashModel,
    cap: usize,
    report: &mut AmpleLintReport,
) {
    assert_at_most_64_processes(programs.len());
    let (mut machine, por, root) = Machine::root(mem, programs, Some(analysis));
    let por = por.expect("the machine has the analysis");
    let layout = machine.layout;
    let identity = |key: &[u32]| key[..layout.decided_value()].to_vec();
    let mut visited: std::collections::HashSet<Vec<u32>> = std::collections::HashSet::new();
    let mut queue: std::collections::VecDeque<Vec<u32>> = std::collections::VecDeque::new();
    let mut enabled: Vec<(Action, u64)> = Vec::new();
    let mut saw_singleton = false;
    visited.insert(identity(&root));
    queue.push_back(root);
    while let Some(key) = queue.pop_front() {
        if report.spot_states >= cap {
            break;
        }
        report.spot_states += 1;
        enabled.clear();
        machine.enabled_actions(&key, crash, &mut enabled);
        let crash_free = enabled.iter().all(|&(a, _)| acting_pid(a).is_some());
        // Per pid, matching the engine's lumping of a process's Branch
        // actions.
        let steps = acting_pids(&enabled);
        if crash_free && steps.count_ones() > 1 {
            // Re-derive the engine's persistent-set choice with the
            // engine's own rule.
            let local = por.local_states(&key, &layout, steps);
            if let Some(p) = por.persistent_singleton(&local, steps) {
                saw_singleton = true;
                for q in pids_in(steps & !(1 << p)) {
                    report.spot_pairs += 1;
                    if let Some(diff) = commute_divergence(&mut machine, &key, p, q) {
                        report.errors.push(format!(
                            "A3: a pruned interleaving diverges at a \
                             sampled state: step orders p{p};p{q} and \
                             p{q};p{p} disagree on {diff} — the static \
                             dependency relation under-approximates"
                        ));
                        return;
                    }
                }
            }
        }
        for &(action, _) in &enabled {
            let mut child = key.clone();
            let change = machine.change(&key, action);
            machine.patch(&mut child, change);
            if visited.insert(identity(&child)) {
                queue.push_back(child);
            }
        }
    }
    if !saw_singleton && report.spot_states > 1 {
        report.warnings.push(
            "A3: no sampled state admitted a singleton persistent set; \
             POR will not reduce this system (every enabled pair of \
             steps conflicts)"
                .to_string(),
        );
    }
}

/// Executes each step-like action pair of `p` and `q` in both orders
/// from `key` and names the first divergence — in either process's
/// step outcome or local state, the decided flags, or a memory cell —
/// or `None` when every pair commutes. A nondeterministic local state
/// contributes one action per choice; independence is per process, so
/// every cross-pid pair must commute.
fn commute_divergence(machine: &mut Machine, key: &[u32], p: usize, q: usize) -> Option<String> {
    let mut acts = |w: usize| -> Vec<Action> {
        match machine.choices(key, w) {
            choices if choices.len() <= 1 => vec![Action::Step(w)],
            choices => choices.iter().map(|&c| Action::Branch(w, c)).collect(),
        }
    };
    let (p_acts, q_acts) = (acts(p), acts(q));
    let layout = machine.layout;
    // The key after `a` then `b`, and the values the two decided.
    let mut both = |a: Action, b: Action| {
        let mut end = key.to_vec();
        let mut decisions = [None; 2];
        for (decided, action) in decisions.iter_mut().zip([a, b]) {
            let change = machine.change(&end, action);
            machine.patch(&mut end, change);
            *decided = machine.decision(change);
        }
        (end, decisions)
    };
    for &pa in &p_acts {
        for &qa in &q_acts {
            let (pq, [p_first, q_second]) = both(pa, qa);
            let (qp, [q_first, p_second]) = both(qa, pa);
            if p_first != p_second {
                return Some(format!("p{p}'s step outcome"));
            }
            if q_first != q_second {
                return Some(format!("p{q}'s step outcome"));
            }
            let decided = layout.decided_word(0)..layout.crashes();
            if pq[decided.clone()] != qp[decided] {
                return Some("the decided flags".to_string());
            }
            for who in [p, q] {
                if pq[layout.prog(who)] != qp[layout.prog(who)] {
                    return Some(format!("p{who}'s local state"));
                }
            }
            if let Some(cell) = (0..layout.cells).find(|&cell| pq[cell] != qp[cell]) {
                return Some(format!("cell @{cell}"));
            }
        }
    }
    None
}

/// The exhaustive checker packs decided flags, sleep sets and pid masks
/// into `u64`s, so it checks at most 64 processes.
fn assert_at_most_64_processes(n: usize) {
    assert!(
        n <= 64,
        "the exhaustive checker packs decided flags into a u64; \
         {n}-process systems are far beyond exact exploration anyway"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Addr, MemOps};

    /// A correct 1-process program: decides its input.
    #[derive(Clone, Debug)]
    struct DecideInput {
        input: Value,
    }
    impl Program for DecideInput {
        fn step(&mut self, _: &mut dyn MemOps) -> Step {
            Step::Decided(self.input.clone())
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    /// A deliberately broken 2-process "consensus": each decides its own
    /// input — agreement fails whenever inputs differ.
    #[derive(Clone, Debug)]
    struct DecideOwn {
        input: Value,
    }
    impl Program for DecideOwn {
        fn step(&mut self, _: &mut dyn MemOps) -> Step {
            Step::Decided(self.input.clone())
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    /// Writes 0 on the first run, and after a crash decides 1 — violating
    /// agreement across re-runs of the *same* process when combined with
    /// the first run's decision. Used to check post-decide crash handling.
    #[derive(Clone, Debug)]
    struct ForgetfulDecider {
        addr: Addr,
        pc: u8,
    }
    impl Program for ForgetfulDecider {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            match self.pc {
                0 => {
                    // First run: decide 0 and mark the memory.
                    let seen = mem.read_register(self.addr);
                    self.pc = 1;
                    if seen.is_bottom() {
                        Step::Running
                    } else {
                        // Recovery run: decide differently. BUG by design.
                        Step::Decided(Value::Int(1))
                    }
                }
                _ => {
                    mem.write_register(self.addr, Value::Int(0));
                    Step::Decided(Value::Int(0))
                }
            }
        }
        fn on_crash(&mut self) {
            self.pc = 0;
        }
        fn state_key(&self) -> Value {
            Value::Int(i64::from(self.pc))
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    fn forgetful_factory() -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = vec![Box::new(ForgetfulDecider { addr, pc: 0 })];
        (mem, programs)
    }

    /// Reads two registers in one step: a broken `Program::step`.
    #[derive(Clone, Debug)]
    struct TwoReads {
        a: Addr,
        b: Addr,
    }
    impl Program for TwoReads {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            let first = mem.read_register(self.a);
            let _ = mem.read_register(self.b);
            Step::Decided(first)
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    /// Reads one register and writes another in one step: also broken.
    #[derive(Clone, Debug)]
    struct ReadThenWrite {
        from: Addr,
        to: Addr,
    }
    impl Program for ReadThenWrite {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            let seen = mem.read_register(self.from);
            mem.write_register(self.to, seen.clone());
            Step::Decided(seen)
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    /// A one-process system over two registers holding `0`.
    fn two_register_system(
        build: fn(Addr, Addr) -> Box<dyn Program>,
    ) -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let a = mem.alloc_register(Value::Int(0));
        let b = mem.alloc_register(Value::Int(0));
        (mem, vec![build(a, b)])
    }

    /// The step memo keys a step's outcome on the one cell it accesses,
    /// so a step that reads two registers is refused, not memoized
    /// unsoundly.
    #[test]
    #[should_panic(expected = "more than one shared-memory access")]
    fn a_step_reading_two_registers_breaks_the_step_contract() {
        let _ = explore(
            &|| two_register_system(|a, b| Box::new(TwoReads { a, b })),
            &ExploreConfig::default(),
        );
    }

    /// A read followed by a write is two accesses as well.
    #[test]
    #[should_panic(expected = "more than one shared-memory access")]
    fn a_step_reading_one_cell_and_writing_another_breaks_the_step_contract() {
        let _ = explore(
            &|| two_register_system(|from, to| Box::new(ReadThenWrite { from, to })),
            &ExploreConfig::default(),
        );
    }

    /// Writes `first` once, then reads `then` forever — but keys every
    /// state `Unit`, so its state key misses the counter that picks the
    /// access.
    #[derive(Clone, Debug)]
    struct IncompleteKey {
        first: Addr,
        then: Addr,
        steps: u32,
    }
    impl Program for IncompleteKey {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            if self.steps == 0 {
                mem.write_register(self.first, Value::Int(1));
            } else {
                let _ = mem.read_register(self.then);
            }
            self.steps += 1;
            Step::Running
        }
        fn on_crash(&mut self) {
            self.steps = 0;
        }
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    /// Two equal state keys in one slot that access different cells
    /// expose an incomplete `state_key`, which the step memo would
    /// otherwise merge unsoundly.
    #[test]
    #[should_panic(expected = "must encode the complete volatile state")]
    fn a_state_key_that_misses_the_accessed_cell_is_refused() {
        let _ = explore(
            &|| {
                two_register_system(|first, then| {
                    Box::new(IncompleteKey {
                        first,
                        then,
                        steps: 0,
                    })
                })
            },
            &ExploreConfig::default(),
        );
    }

    /// The sweep's executor steps on the same memo, so it refuses the
    /// same broken programs: an incomplete `state_key` on a round-robin
    /// run.
    #[test]
    #[should_panic(expected = "must encode the complete volatile state")]
    fn the_sweep_refuses_a_state_key_that_misses_the_accessed_cell() {
        let (mem, programs) = two_register_system(|first, then| {
            Box::new(IncompleteKey {
                first,
                then,
                steps: 0,
            })
        });
        let _ = MemoExecutor::new(&mem, programs).run(&mut crate::sched::RoundRobin::new(), 100);
    }

    /// ... and a step that reads two registers.
    #[test]
    #[should_panic(expected = "more than one shared-memory access")]
    fn the_sweep_refuses_a_step_reading_two_registers() {
        let (mem, programs) = two_register_system(|a, b| Box::new(TwoReads { a, b }));
        let _ = MemoExecutor::new(&mem, programs).run(&mut crate::sched::RoundRobin::new(), 100);
    }

    #[test]
    fn verifies_trivial_agreeing_system() {
        let outcome = explore(
            &|| {
                let mem = Memory::new();
                let programs: Vec<Box<dyn Program>> = vec![
                    Box::new(DecideInput {
                        input: Value::Int(3),
                    }),
                    Box::new(DecideInput {
                        input: Value::Int(3),
                    }),
                ];
                (mem, programs)
            },
            &ExploreConfig {
                crash: CrashModel::independent(2),
                inputs: Some(vec![Value::Int(3)]),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_verified(), "{outcome:?}");
    }

    #[test]
    fn finds_agreement_violation() {
        let outcome = explore(
            &|| {
                let mem = Memory::new();
                let programs: Vec<Box<dyn Program>> = vec![
                    Box::new(DecideOwn {
                        input: Value::Int(0),
                    }),
                    Box::new(DecideOwn {
                        input: Value::Int(1),
                    }),
                ];
                (mem, programs)
            },
            &ExploreConfig::default(),
        );
        match outcome {
            ExploreOutcome::Violation {
                kind,
                schedule,
                outputs,
                ..
            } => {
                assert_eq!(kind, ViolationKind::Agreement);
                assert_eq!(schedule.len(), 2, "two steps suffice");
                assert_eq!(outputs.len(), 2);
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn finds_validity_violation() {
        let outcome = explore(
            &|| {
                let mem = Memory::new();
                let programs: Vec<Box<dyn Program>> = vec![Box::new(DecideInput {
                    input: Value::Int(9),
                })];
                (mem, programs)
            },
            &ExploreConfig {
                inputs: Some(vec![Value::Int(0), Value::Int(1)]),
                ..ExploreConfig::default()
            },
        );
        match outcome {
            ExploreOutcome::Violation { kind, .. } => {
                assert_eq!(kind, ViolationKind::Validity)
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn post_decide_crashes_catch_rerun_disagreement() {
        // Without post-decide crashes the bug is invisible…
        let outcome = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: CrashModel::independent(1),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_verified(), "{outcome:?}");
        // …with them, the model checker finds the re-run disagreement.
        let outcome = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: CrashModel::independent(1).after_decide(true),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_violation(), "{outcome:?}");
    }

    /// Regression: the simultaneous branch used to reset decided
    /// processes even with post-decide crashes disabled, finding
    /// "violations" the configured adversary cannot produce.
    #[test]
    fn simultaneous_crashes_respect_post_decide_policy() {
        let outcome = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: CrashModel::simultaneous(1),
                ..ExploreConfig::default()
            },
        );
        assert!(
            outcome.is_verified(),
            "CrashAll must not reset a decided run when post-decide \
             crashes are disabled: {outcome:?}"
        );
        let outcome = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: CrashModel::simultaneous(1).after_decide(true),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_violation(), "{outcome:?}");
    }

    #[test]
    fn simultaneous_mode_explores_crash_all() {
        let outcome = explore(
            &|| {
                let mem = Memory::new();
                let programs: Vec<Box<dyn Program>> = vec![
                    Box::new(DecideInput {
                        input: Value::Int(1),
                    }),
                    Box::new(DecideInput {
                        input: Value::Int(1),
                    }),
                ];
                (mem, programs)
            },
            &ExploreConfig {
                crash: CrashModel::simultaneous(2).after_decide(true),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_verified());
    }

    /// Regression: the cap used to trigger only after `max_states + 1`
    /// states had been visited. Now exactly `max_states` are visited,
    /// and a cap equal to the state-space size still verifies.
    #[test]
    fn state_cap_is_exact() {
        let factory = forgetful_factory;
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..ExploreConfig::default()
        };
        let total = match explore(&factory, &config) {
            ExploreOutcome::Verified { states, .. } => states,
            other => panic!("expected verified, got {other:?}"),
        };
        // A cap exactly at the state-space size does not truncate.
        let outcome = explore(
            &factory,
            &ExploreConfig {
                max_states: total,
                ..config.clone()
            },
        );
        assert!(outcome.is_verified(), "{outcome:?}");
        // One below: truncates having visited exactly the cap.
        let outcome = explore(
            &factory,
            &ExploreConfig {
                max_states: total - 1,
                ..config.clone()
            },
        );
        match outcome {
            ExploreOutcome::Truncated { states } => assert_eq!(states, total - 1),
            other => panic!("expected truncation, got {other:?}"),
        }
        assert!(outcome.is_truncated());
    }

    /// The iterative engine survives crash budgets that would overflow
    /// the recursive seed engine's call stack (execution length grows
    /// linearly with the budget).
    #[test]
    fn deep_crash_budgets_do_not_overflow() {
        let outcome = explore(
            &|| {
                let mut mem = Memory::new();
                let addr = mem.alloc_register(Value::Bottom);
                #[derive(Clone, Debug)]
                struct WriteThenDecide {
                    addr: Addr,
                    pc: u8,
                }
                impl Program for WriteThenDecide {
                    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                        if self.pc == 0 {
                            mem.write_register(self.addr, Value::Int(1));
                            self.pc = 1;
                            Step::Running
                        } else {
                            Step::Decided(mem.read_register(self.addr))
                        }
                    }
                    fn on_crash(&mut self) {
                        self.pc = 0;
                    }
                    fn state_key(&self) -> Value {
                        Value::Int(i64::from(self.pc))
                    }
                    fn boxed_clone(&self) -> Box<dyn Program> {
                        Box::new(self.clone())
                    }
                }
                let programs: Vec<Box<dyn Program>> =
                    vec![Box::new(WriteThenDecide { addr, pc: 0 })];
                (mem, programs)
            },
            &ExploreConfig {
                crash: CrashModel::independent(50_000).after_decide(true),
                ..ExploreConfig::default()
            },
        );
        assert!(outcome.is_verified(), "{outcome:?}");
    }

    /// Symmetry reduction on a fully symmetric system: same verdict,
    /// identical (weighted) leaf counts, strictly fewer states.
    #[test]
    fn symmetry_reduces_states_and_preserves_leaves() {
        #[derive(Clone, Debug)]
        struct WriteThenDecide {
            addr: Addr,
            pc: u8,
        }
        impl Program for WriteThenDecide {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                if self.pc == 0 {
                    mem.write_register(self.addr, Value::Int(1));
                    self.pc = 1;
                    Step::Running
                } else {
                    Step::Decided(mem.read_register(self.addr))
                }
            }
            fn on_crash(&mut self) {
                self.pc = 0;
            }
            fn state_key(&self) -> Value {
                Value::Int(i64::from(self.pc))
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
        }
        let n = 3;
        let plain = || {
            let mut mem = Memory::new();
            let addr = mem.alloc_register(Value::Bottom);
            let programs: Vec<Box<dyn Program>> = (0..n)
                .map(|_| Box::new(WriteThenDecide { addr, pc: 0 }) as Box<dyn Program>)
                .collect();
            (mem, programs)
        };
        let symmetric = || {
            let (mem, programs) = plain();
            (mem, programs, SymmetrySpec::full(n))
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..ExploreConfig::default()
        };
        let off = explore(&plain, &config);
        let (on, stats) = explore_symmetric_with_stats(&symmetric, &config);
        assert!(stats.symmetry);
        let (off_states, off_leaves) = match off {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        match &on {
            ExploreOutcome::Verified { states, leaves } => {
                assert!(
                    *states < off_states,
                    "symmetry must merge permutation classes: {states} vs {off_states}"
                );
                assert_eq!(
                    *leaves, off_leaves,
                    "weighted leaf counts must match the plain engine"
                );
            }
            other => panic!("expected verified, got {other:?}"),
        }
    }

    /// A trivial spec degenerates to the plain engine byte-for-byte, and
    /// an orbit grouping processes with different initial states is
    /// rejected loudly.
    #[test]
    fn trivial_spec_matches_plain_engine_exactly() {
        let symmetric = || {
            let (mem, programs) = forgetful_factory();
            let n = programs.len();
            (mem, programs, SymmetrySpec::trivial(n))
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(2).after_decide(true),
            ..ExploreConfig::default()
        };
        let (outcome, stats) = explore_symmetric_with_stats(&symmetric, &config);
        assert!(!stats.symmetry, "a trivial spec must be normalized away");
        assert_eq!(outcome, explore(&forgetful_factory, &config));
    }

    /// An orbit whose members start in different states (here: different
    /// inputs, visible through honest state keys) is a declaration bug
    /// and must panic, not silently merge inequivalent states.
    #[test]
    #[should_panic(expected = "different")]
    fn mismatched_orbit_declaration_is_rejected() {
        /// Decides its input; the key honestly includes the input, so
        /// cross-process key equality implies behavioural equality.
        #[derive(Clone, Debug)]
        struct KeyedDecider {
            input: Value,
        }
        impl Program for KeyedDecider {
            fn step(&mut self, _: &mut dyn MemOps) -> Step {
                Step::Decided(self.input.clone())
            }
            fn on_crash(&mut self) {}
            fn state_key(&self) -> Value {
                self.input.clone()
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
        }
        let symmetric = || {
            let mem = Memory::new();
            let programs: Vec<Box<dyn Program>> = vec![
                Box::new(KeyedDecider {
                    input: Value::Int(0),
                }),
                Box::new(KeyedDecider {
                    input: Value::Int(1),
                }),
            ];
            (mem, programs, SymmetrySpec::full(2))
        };
        let _ = explore_symmetric(&symmetric, &ExploreConfig::default());
    }

    /// Witness schedules from a symmetric search replay against the
    /// *original* system: the canonicalization permutations kept on the
    /// DFS stack rename every action back to original process ids.
    #[test]
    fn symmetric_violation_witness_replays_in_original_pids() {
        use crate::exec::{run, RunOptions};
        use crate::sched::ScriptedScheduler;
        let inputs = [Value::Int(5), Value::Int(7), Value::Int(7)];
        let plain = || {
            let mem = Memory::new();
            let programs: Vec<Box<dyn Program>> = inputs
                .iter()
                .map(|input| {
                    Box::new(DecideOwn {
                        input: input.clone(),
                    }) as Box<dyn Program>
                })
                .collect();
            (mem, programs)
        };
        let symmetric = || {
            let (mem, programs) = plain();
            (mem, programs, SymmetrySpec::from_classes(&inputs))
        };
        let outcome = explore_symmetric(&symmetric, &ExploreConfig::default());
        let (schedule, outputs) = match outcome {
            ExploreOutcome::Violation {
                kind: ViolationKind::Agreement,
                schedule,
                outputs,
            } => (schedule, outputs),
            other => panic!("expected agreement violation, got {other:?}"),
        };
        // Replay the schedule on the original (un-permuted) system.
        let (mut mem, mut programs) = plain();
        let mut sched = ScriptedScheduler::then_finish(schedule.clone());
        let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
        let mut decisions: Vec<Value> = exec.outputs.iter().flatten().cloned().collect();
        decisions.sort();
        decisions.dedup();
        assert!(
            decisions.len() >= 2,
            "replayed schedule {schedule:?} must reproduce the \
             disagreement, decided {decisions:?}"
        );
        assert_eq!(outputs.len(), 2);
    }

    /// A mask-register-style program: writes its *own* register (owned,
    /// never touched by anyone else), then decides what it reads back.
    /// Implements the full-state symmetry hooks, so processes with equal
    /// inputs form an orbit whose registers permute with them.
    #[derive(Clone, Debug)]
    struct OwnRegWriter {
        reg: Addr,
        input: Value,
        pc: u8,
    }
    impl Program for OwnRegWriter {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            if self.pc == 0 {
                mem.write_register(self.reg, self.input.clone());
                self.pc = 1;
                Step::Running
            } else {
                Step::Decided(mem.read_register(self.reg))
            }
        }
        fn on_crash(&mut self) {
            self.pc = 0;
        }
        fn state_key(&self) -> Value {
            Value::pair(Value::Int(i64::from(self.pc)), self.input.clone())
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
        fn rebind(&mut self, map: &crate::program::Rebinding) {
            self.reg = map.lookup(self.reg);
        }
        fn referenced_cells(&self) -> Option<Vec<Addr>> {
            Some(vec![self.reg])
        }
    }

    fn own_reg_factory(n: usize) -> (Memory, Vec<Box<dyn Program>>, Vec<Addr>) {
        let mut mem = Memory::new();
        let regs: Vec<Addr> = (0..n).map(|_| mem.alloc_register(Value::Bottom)).collect();
        let programs: Vec<Box<dyn Program>> = regs
            .iter()
            .map(|&reg| {
                Box::new(OwnRegWriter {
                    reg,
                    input: Value::Int(1),
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        (mem, programs, regs)
    }

    /// Full-state symmetry on a system of per-process *owned* registers:
    /// without the owned-cell declaration the registers distinguish the
    /// processes (orbits must be singletons — no reduction); with it,
    /// cells permute with their owners and programs are rebound, so the
    /// orbit collapses. Verdicts and weighted leaf counts are identical.
    #[test]
    fn owned_cell_orbits_reduce_and_preserve_leaves() {
        let n = 3;
        let plain = || {
            let (mem, programs, _) = own_reg_factory(n);
            (mem, programs)
        };
        let rebind = || {
            let (mem, programs, regs) = own_reg_factory(n);
            let mut spec = SymmetrySpec::full(n);
            for (p, &reg) in regs.iter().enumerate() {
                spec = spec.with_owned_cells(p, vec![reg]);
            }
            (mem, programs, spec)
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            inputs: Some(vec![Value::Int(1)]),
            ..ExploreConfig::default()
        };
        let off = explore(&plain, &config);
        let (off_states, off_leaves) = match off {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        let (on, stats) = explore_symmetric_with_stats(&rebind, &config);
        assert!(stats.symmetry);
        match &on {
            ExploreOutcome::Verified { states, leaves } => {
                assert!(
                    *states < off_states,
                    "owned-cell orbits must merge permutation classes: \
                     {states} vs {off_states}"
                );
                assert_eq!(*leaves, off_leaves, "weighted leaves must match");
            }
            other => panic!("expected verified, got {other:?}"),
        }
    }

    /// An [`OwnRegWriter`] that counts its `rebind` calls in a counter
    /// its clones share.
    #[derive(Clone, Debug)]
    struct CountedRebinds {
        inner: OwnRegWriter,
        rebinds: Arc<std::sync::atomic::AtomicUsize>,
    }
    impl Program for CountedRebinds {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            self.inner.step(mem)
        }
        fn on_crash(&mut self) {
            self.inner.on_crash();
        }
        fn state_key(&self) -> Value {
            self.inner.state_key()
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
        fn rebind(&mut self, map: &crate::program::Rebinding) {
            self.rebinds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.rebind(map);
        }
        fn referenced_cells(&self) -> Option<Vec<Addr>> {
            self.inner.referenced_cells()
        }
    }

    /// Relocated programs rebind once per (destination slot, program
    /// key) in a search, not once per admitted state that
    /// canonicalization moved: on the owned-register system the count
    /// stays within n rebinds per distinct program key, plus the n
    /// identity probes at search start.
    #[test]
    fn relocated_programs_rebind_once_per_slot_and_key() {
        let n = 4;
        let rebinds = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        // `own_reg_factory`'s system, its programs counting rebinds.
        let factory = || {
            let mut mem = Memory::new();
            let mut spec = SymmetrySpec::full(n);
            let mut programs: Vec<Box<dyn Program>> = Vec::new();
            for p in 0..n {
                let reg = mem.alloc_register(Value::Bottom);
                spec = spec.with_owned_cells(p, vec![reg]);
                programs.push(Box::new(CountedRebinds {
                    inner: OwnRegWriter {
                        reg,
                        input: Value::Int(1),
                        pc: 0,
                    },
                    rebinds: Arc::clone(&rebinds),
                }));
            }
            (mem, programs, spec)
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..ExploreConfig::default()
        };
        let (outcome, stats) = explore_symmetric_with_stats(&factory, &config);
        assert!(outcome.is_verified() && stats.symmetry, "{outcome:?}");
        // Every program has input 1 and `pc` 0 or 1: two program keys.
        let count = rebinds.load(std::sync::atomic::Ordering::Relaxed);
        assert!(count > n, "the search relocates programs: {count} rebinds");
        assert!(count <= n * 2 + n, "{count} rebinds");
    }

    /// The owner-only rule: a process reading another process's owned
    /// register makes the quotient unsound, and the declaration is
    /// rejected at search start.
    #[test]
    #[should_panic(expected = "owned by p1 but referenced by p0")]
    fn cross_referenced_owned_cell_is_rejected() {
        /// Reads p0's register instead of its own — the Fig. 4
        /// round-scan shape in miniature.
        #[derive(Clone, Debug)]
        struct Spy {
            own: Addr,
            other: Addr,
        }
        impl Program for Spy {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                mem.write_register(self.own, Value::Int(1));
                Step::Decided(mem.read_register(self.other))
            }
            fn on_crash(&mut self) {}
            fn state_key(&self) -> Value {
                Value::Unit
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
            fn rebind(&mut self, map: &crate::program::Rebinding) {
                self.own = map.lookup(self.own);
                self.other = map.lookup(self.other);
            }
            fn referenced_cells(&self) -> Option<Vec<Addr>> {
                Some(vec![self.own, self.other])
            }
        }
        let factory = || {
            let mut mem = Memory::new();
            let r0 = mem.alloc_register(Value::Bottom);
            let r1 = mem.alloc_register(Value::Bottom);
            let programs: Vec<Box<dyn Program>> = vec![
                Box::new(Spy { own: r0, other: r1 }),
                Box::new(Spy { own: r1, other: r0 }),
            ];
            let spec = SymmetrySpec::full(2)
                .with_owned_cells(0, vec![r0])
                .with_owned_cells(1, vec![r1]);
            (mem, programs, spec)
        };
        let _ = explore_symmetric(&factory, &ExploreConfig::default());
    }

    /// Programs without a `rebind` implementation cannot be relocated,
    /// so an owned-cell declaration over them is rejected at search
    /// start (the identity-map probe) — not at the first non-identity
    /// canonicalization deep inside a search. (ForgetfulDecider also
    /// has no `referenced_cells`, which used to be the rejection
    /// trigger; the footprint analysis now covers that gap, so the
    /// rebind probe is what stands between this system and a search.)
    #[test]
    #[should_panic(expected = "does not support address rebinding")]
    fn rebindless_programs_reject_owned_declarations() {
        let factory = || {
            let mut mem = Memory::new();
            let r0 = mem.alloc_register(Value::Bottom);
            let r1 = mem.alloc_register(Value::Bottom);
            let programs: Vec<Box<dyn Program>> = vec![
                Box::new(ForgetfulDecider { addr: r0, pc: 0 }),
                Box::new(ForgetfulDecider { addr: r1, pc: 0 }),
            ];
            let spec = SymmetrySpec::full(2)
                .with_owned_cells(0, vec![r0])
                .with_owned_cells(1, vec![r1]);
            (mem, programs, spec)
        };
        let _ = explore_symmetric(&factory, &ExploreConfig::default());
    }

    /// OwnRegWriter minus `referenced_cells`: rebindable, but its
    /// reference set is not hand-enumerable. Before the footprint
    /// analysis this was rejected ("does not enumerate its referenced
    /// cells"); the analyzer now derives the reference sets, proves the
    /// owner-only rule and the search runs — with the same verdict and
    /// weighted leaf count as the symmetry-off search.
    #[test]
    fn analyzer_validates_undeclared_owned_cell_systems() {
        #[derive(Clone, Debug)]
        struct UndeclaredOwnReg {
            reg: Addr,
            pc: u8,
        }
        impl Program for UndeclaredOwnReg {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                if self.pc == 0 {
                    mem.write_register(self.reg, Value::Int(1));
                    self.pc = 1;
                    Step::Running
                } else {
                    Step::Decided(mem.read_register(self.reg))
                }
            }
            fn on_crash(&mut self) {
                self.pc = 0;
            }
            fn state_key(&self) -> Value {
                Value::Int(i64::from(self.pc))
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
            fn rebind(&mut self, map: &crate::program::Rebinding) {
                self.reg = map.lookup(self.reg);
            }
            // No referenced_cells: the analyzer must stand in.
        }
        let n = 3;
        let build = |mem: &mut Memory| -> (Vec<Addr>, Vec<Box<dyn Program>>) {
            let regs: Vec<Addr> = (0..n).map(|_| mem.alloc_register(Value::Bottom)).collect();
            let programs = regs
                .iter()
                .map(|&reg| Box::new(UndeclaredOwnReg { reg, pc: 0 }) as Box<dyn Program>)
                .collect();
            (regs, programs)
        };
        let plain = || {
            let mut mem = Memory::new();
            let (_, programs) = build(&mut mem);
            (mem, programs)
        };
        let symmetric = || {
            let mut mem = Memory::new();
            let (regs, programs) = build(&mut mem);
            let mut spec = SymmetrySpec::full(n);
            for (p, &reg) in regs.iter().enumerate() {
                spec = spec.with_owned_cells(p, vec![reg]);
            }
            (mem, programs, spec)
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..ExploreConfig::default()
        };
        let (off_states, off_leaves) = match explore(&plain, &config) {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        match explore_symmetric(&symmetric, &config) {
            ExploreOutcome::Verified { states, leaves } => {
                assert!(states < off_states, "{states} vs {off_states}");
                assert_eq!(leaves, off_leaves, "weighted leaves must match");
            }
            other => panic!("expected verified, got {other:?}"),
        }
    }

    /// A rebindable program whose local-state graph is unbounded
    /// defeats the footprint analysis (budget exhaustion); without a
    /// hand-written `referenced_cells` to fall back to, the owned-cell
    /// declaration is rejected exactly as before the analyzer existed.
    #[test]
    #[should_panic(expected = "does not enumerate its referenced cells")]
    fn unanalyzable_undeclared_systems_are_still_rejected() {
        #[derive(Clone, Debug)]
        struct UnboundedWriter {
            reg: Addr,
            count: i64,
        }
        impl Program for UnboundedWriter {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                self.count += 1;
                mem.write_register(self.reg, Value::Int(self.count));
                Step::Running
            }
            fn on_crash(&mut self) {
                self.count = 0;
            }
            fn state_key(&self) -> Value {
                Value::Int(self.count)
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
            fn rebind(&mut self, map: &crate::program::Rebinding) {
                self.reg = map.lookup(self.reg);
            }
        }
        let factory = || {
            let mut mem = Memory::new();
            let r0 = mem.alloc_register(Value::Bottom);
            let r1 = mem.alloc_register(Value::Bottom);
            let programs: Vec<Box<dyn Program>> = vec![
                Box::new(UnboundedWriter { reg: r0, count: 0 }),
                Box::new(UnboundedWriter { reg: r1, count: 0 }),
            ];
            let spec = SymmetrySpec::full(2)
                .with_owned_cells(0, vec![r0])
                .with_owned_cells(1, vec![r1]);
            (mem, programs, spec)
        };
        let _ = explore_symmetric(&factory, &ExploreConfig::default());
    }

    /// Steps of processes with disjoint footprints commute: on the
    /// own-register system, at every reachable state, each pair of
    /// undecided processes commutes — [`commute_divergence`] finds no
    /// difference between the two step orders.
    #[test]
    fn cross_validation_accepts_independent_steps() {
        let mut mem = Memory::new();
        let programs: Vec<Box<dyn Program>> = (0..3)
            .map(|_| {
                let reg = mem.alloc_register(Value::Bottom);
                Box::new(OwnRegWriter {
                    reg,
                    input: Value::Int(1),
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        let crash = CrashModel::independent(1).after_decide(false);
        let (mut machine, _, root) = Machine::root(&mem, programs, None);
        let layout = machine.layout;
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        let mut commuted = 0usize;
        while let Some(key) = stack.pop() {
            if !seen.insert(key[..layout.decided_value()].to_vec()) {
                continue;
            }
            for (p, q) in [(0, 1), (0, 2), (1, 2)] {
                if layout.is_decided(&key, p) || layout.is_decided(&key, q) {
                    continue;
                }
                assert_eq!(
                    commute_divergence(&mut machine, &key, p, q),
                    None,
                    "p{p}/p{q}"
                );
                commuted += 1;
            }
            let mut actions = Vec::new();
            machine.enabled_actions(&key, &crash, &mut actions);
            for (action, _) in actions {
                let mut child = key.clone();
                let change = machine.change(&key, action);
                machine.patch(&mut child, change);
                stack.push(child);
            }
        }
        assert!(commuted > 0, "some state has two undecided processes");
    }

    /// An inert owned declaration (all orbits singletons) changes
    /// nothing: the spec is trivial, so the search runs the plain
    /// engine byte-for-byte.
    #[test]
    fn owned_cells_on_singleton_orbits_are_inert() {
        let n = 2;
        let plain = || {
            let (mem, programs, _) = own_reg_factory(n);
            (mem, programs)
        };
        let inert = || {
            let (mem, programs, regs) = own_reg_factory(n);
            let mut spec = SymmetrySpec::trivial(n);
            for (p, &reg) in regs.iter().enumerate() {
                spec = spec.with_owned_cells(p, vec![reg]);
            }
            (mem, programs, spec)
        };
        let config = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(true),
            ..ExploreConfig::default()
        };
        let (outcome, stats) = explore_symmetric_with_stats(&inert, &config);
        assert!(!stats.symmetry, "singleton orbits are trivial");
        assert_eq!(outcome, explore(&plain, &config));
    }

    /// A spinning read loop: re-reads a register forever while it is
    /// `Bottom`. Its local-state graph is a single state with a step
    /// self-edge — the cyclic shape POR must refuse (lint condition A2).
    #[derive(Clone, Debug)]
    struct Spinner {
        addr: Addr,
    }
    impl Program for Spinner {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            if mem.read_register(self.addr).is_bottom() {
                Step::Running
            } else {
                Step::Decided(Value::Int(0))
            }
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    fn spinner_factory() -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        (mem, vec![Box::new(Spinner { addr }) as Box<dyn Program>])
    }

    /// Processes touching one *shared* register: every step pair
    /// conflicts on it, so the persistent set is always the full
    /// enabled set and POR has nothing to prune.
    #[derive(Clone, Debug)]
    struct SharedToucher {
        addr: Addr,
        pc: u8,
    }
    impl Program for SharedToucher {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            if self.pc == 0 {
                mem.write_register(self.addr, Value::Int(1));
                self.pc = 1;
                Step::Running
            } else {
                Step::Decided(mem.read_register(self.addr))
            }
        }
        fn on_crash(&mut self) {
            self.pc = 0;
        }
        fn state_key(&self) -> Value {
            Value::Int(i64::from(self.pc))
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    fn shared_toucher_factory(n: usize) -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = (0..n)
            .map(|_| Box::new(SharedToucher { addr, pc: 0 }) as Box<dyn Program>)
            .collect();
        (mem, programs)
    }

    /// An unbounded local-state graph (the key grows without bound):
    /// the footprint analysis exhausts its budget, so POR must refuse
    /// the system instead of running on partial footprints.
    #[derive(Clone, Debug)]
    struct UnboundedCounter {
        reg: Addr,
        count: i64,
    }
    impl Program for UnboundedCounter {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            self.count += 1;
            mem.write_register(self.reg, Value::Int(self.count));
            Step::Running
        }
        fn on_crash(&mut self) {
            self.count = 0;
        }
        fn state_key(&self) -> Value {
            Value::Int(self.count)
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    fn unbounded_factory() -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let reg = mem.alloc_register(Value::Bottom);
        (
            mem,
            vec![Box::new(UnboundedCounter { reg, count: 0 }) as Box<dyn Program>],
        )
    }

    /// POR on the fully independent own-register system: same verdict
    /// and leaf count as the unreduced search, strictly fewer states.
    /// (Budget 0: every node is crash-free,
    /// so the interleaving reduction is undiluted; with a live crash
    /// budget the crash-enabled layer is fully expanded by design and
    /// its crash children cover most of the crash-free layer, see the
    /// budget-1 equality check at the end.)
    #[test]
    fn por_reduces_states_and_preserves_leaves() {
        let factory = || {
            let (mem, programs, _) = own_reg_factory(3);
            (mem, programs)
        };
        let base = ExploreConfig {
            crash: CrashModel::independent(0),
            inputs: Some(vec![Value::Int(1)]),
            ..ExploreConfig::default()
        };
        let (off_states, off_leaves) = match explore(&factory, &base) {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        let reduced = ExploreConfig {
            por: true,
            ..base.clone()
        };
        let (on, stats) = explore_with_stats(&factory, &reduced);
        assert!(stats.por, "the POR engine must report it ran");
        match &on {
            ExploreOutcome::Verified { states, leaves } => {
                assert!(
                    *states < off_states,
                    "POR must prune commuting interleavings: {states} vs {off_states}"
                );
                assert_eq!(*leaves, off_leaves, "leaf counts must stay exact");
            }
            other => panic!("expected verified, got {other:?}"),
        }
        // With a live crash budget the verdict and leaf count are still
        // exact (states may not shrink: crash-enabled nodes expand
        // fully, and their crash children blanket the crash-free layer).
        let crashy = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..base.clone()
        };
        let (c_states, c_leaves) = match explore(&factory, &crashy) {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        match explore(
            &factory,
            &ExploreConfig {
                por: true,
                ..crashy
            },
        ) {
            ExploreOutcome::Verified { states, leaves } => {
                assert!(states <= c_states, "{states} vs {c_states}");
                assert_eq!(leaves, c_leaves, "budget-1 leaf counts must stay exact");
            }
            other => panic!("expected verified, got {other:?}"),
        }
    }

    /// POR on a fully dependent system (everyone touches one shared
    /// register): no pair of steps commutes, so the reduced search is
    /// byte-identical to the unreduced one — including the state count.
    #[test]
    fn por_is_exact_when_nothing_commutes() {
        let factory = || shared_toucher_factory(3);
        let base = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            ..ExploreConfig::default()
        };
        let off = explore(&factory, &base);
        assert!(off.is_verified(), "{off:?}");
        let on = explore(
            &factory,
            &ExploreConfig {
                por: true,
                ..base.clone()
            },
        );
        assert_eq!(off, on, "a conflict-saturated system admits no pruning");
    }

    /// Truncating caps stay exact under POR — `Truncated {{ states }}`
    /// equals the cap, matching the unreduced search's report.
    #[test]
    fn por_truncation_cap_is_exact() {
        let factory = || {
            let (mem, programs, _) = own_reg_factory(3);
            (mem, programs)
        };
        let reduced = ExploreConfig {
            crash: CrashModel::independent(1).after_decide(false),
            inputs: Some(vec![Value::Int(1)]),
            por: true,
            ..ExploreConfig::default()
        };
        let total = match explore(&factory, &reduced) {
            ExploreOutcome::Verified { states, .. } => states,
            other => panic!("expected verified, got {other:?}"),
        };
        for cap in [1usize, total / 2, total - 1] {
            let capped = ExploreConfig {
                max_states: cap,
                ..reduced.clone()
            };
            let serial = explore(&factory, &capped);
            assert_eq!(serial, ExploreOutcome::Truncated { states: cap });
            // The unreduced engine reports the identical truncation.
            let unreduced = explore(
                &factory,
                &ExploreConfig {
                    por: false,
                    ..capped.clone()
                },
            );
            assert_eq!(serial, unreduced, "cap {cap}");
        }
    }

    /// POR composes with full-state rebind symmetry: the combined
    /// search keeps the exact leaf count and visits fewer states than
    /// either reduction alone.
    #[test]
    fn por_composes_with_rebind_symmetry() {
        let n = 3;
        let plain = || {
            let (mem, programs, _) = own_reg_factory(n);
            (mem, programs)
        };
        let rebind = || {
            let (mem, programs, regs) = own_reg_factory(n);
            let mut spec = SymmetrySpec::full(n);
            for (p, &reg) in regs.iter().enumerate() {
                spec = spec.with_owned_cells(p, vec![reg]);
            }
            (mem, programs, spec)
        };
        let base = ExploreConfig {
            crash: CrashModel::independent(0),
            inputs: Some(vec![Value::Int(1)]),
            ..ExploreConfig::default()
        };
        let reduced = ExploreConfig {
            por: true,
            ..base.clone()
        };
        let verified = |outcome: ExploreOutcome| match outcome {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("expected verified, got {other:?}"),
        };
        let (off_states, off_leaves) = verified(explore(&plain, &base));
        let (por_states, por_leaves) = verified(explore(&plain, &reduced));
        let (sym_states, sym_leaves) = verified(explore_symmetric(&rebind, &base));
        let (combined, stats) = explore_symmetric_with_stats(&rebind, &reduced);
        assert!(stats.symmetry && stats.por);
        let (both_states, both_leaves) = verified(combined);
        assert_eq!(por_leaves, off_leaves);
        assert_eq!(sym_leaves, off_leaves);
        assert_eq!(both_leaves, off_leaves, "leaves stay exact under both");
        assert!(
            both_states < por_states && both_states < sym_states,
            "the reductions must compose: por {por_states}, symmetry \
             {sym_states}, both {both_states} (unreduced {off_states})"
        );
    }

    /// A spinning read loop (cyclic step graph) makes the crash-free
    /// future footprints unsound, so POR is refused at search start.
    #[test]
    #[should_panic(expected = "step graph is cyclic")]
    fn por_refuses_cyclic_step_graphs() {
        let _ = explore(
            &spinner_factory,
            &ExploreConfig {
                por: true,
                ..ExploreConfig::default()
            },
        );
    }

    /// When the footprint analysis itself fails (unbounded local-state
    /// graph), POR is an explicit request that must not silently no-op.
    #[test]
    #[should_panic(expected = "footprint analysis failed")]
    fn por_refuses_unanalyzable_systems() {
        let _ = explore(
            &unbounded_factory,
            &ExploreConfig {
                por: true,
                ..ExploreConfig::default()
            },
        );
    }

    /// The ample lint passes a well-behaved independent system — with
    /// a symmetry spec (A5) and a spot-check walk that really exercises
    /// pruned pairs (A3) — and reports no warnings.
    #[test]
    fn lint_ample_passes_on_independent_systems() {
        let (mem, programs, regs) = own_reg_factory(3);
        let mut spec = SymmetrySpec::full(3);
        for (p, &reg) in regs.iter().enumerate() {
            spec = spec.with_owned_cells(p, vec![reg]);
        }
        let report = lint_ample(
            mem,
            programs,
            Some(&spec),
            &CrashModel::independent(1).after_decide(false),
            None,
            256,
        );
        assert!(report.ok(), "{:?}", report.errors);
        assert!(report.spot_states > 0, "the spot-check walk must run");
        assert!(
            report.spot_pairs > 0,
            "the walk must re-execute pruned pairs on this system"
        );
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    /// The lint names the cyclic step graph (A2) the engine refuses.
    #[test]
    fn lint_ample_reports_cyclic_step_graphs() {
        let (mem, programs) = spinner_factory();
        let report = lint_ample(mem, programs, None, &CrashModel::independent(0), None, 0);
        assert!(!report.ok());
        assert!(
            report.errors.iter().any(|e| e.starts_with("A2")),
            "{:?}",
            report.errors
        );
    }

    /// The lint reports analysis failure (A1) instead of panicking.
    #[test]
    fn lint_ample_reports_unanalyzable_systems() {
        let (mem, programs) = unbounded_factory();
        let report = lint_ample(mem, programs, None, &CrashModel::independent(0), None, 0);
        assert!(!report.ok());
        assert!(
            report.errors.iter().any(|e| e.starts_with("A1")),
            "{:?}",
            report.errors
        );
    }

    /// On a conflict-saturated system the lint passes (POR is *sound*
    /// there, merely useless) but warns that nothing will be pruned.
    #[test]
    fn lint_ample_warns_when_nothing_commutes() {
        let (mem, programs) = shared_toucher_factory(2);
        let report = lint_ample(mem, programs, None, &CrashModel::independent(0), None, 64);
        assert!(report.ok(), "{:?}", report.errors);
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("will not reduce")),
            "{:?}",
            report.warnings
        );
    }
}
