//! Cell-access footprint analysis over the guest-program catalog.
//!
//! The model checker's two soundness-critical *inputs* —
//! [`Program::referenced_cells`] and
//! [`SymmetrySpec::with_owned_cells`]
//! — are hand-written per factory, and an under-declaration silently
//! breaks the exhaustive-exploration quotient. This module derives the
//! same information *from the programs themselves*: an instrumenting
//! [`MemOps`] recorder (`ProbeMem`, internal) tags every shared-memory
//! access with `(Pid, Addr, AccessKind)`, and [`analyze_system`] walks
//! each program's memoized local-state graph to a fixpoint, producing a
//! sound per-process cell footprint with read/write modes.
//!
//! ## The walk
//!
//! Per process, local states are memoized on
//! [`state_key`](crate::Program::state_key) (the same key-completeness
//! contract the checker's memoization leans on: equal keys ⇒ identical
//! behaviour forever, so one representative clone per key suffices).
//! From each state the analyzer probes every enabled internal
//! alternative ([`choices`](crate::Program::choices) /
//! [`step_choice`](crate::Program::step_choice); deterministic programs
//! have exactly one) once per possible *observation*:
//!
//! * a **write** determines its successor outright (the written value is
//!   added to the cell's value domain);
//! * a **read** branches over the cell's current value domain — every
//!   value the cell can hold: its initial value plus every value any
//!   analyzed branch of any process ever wrote to it;
//! * an **RMW** ([`MemOps::apply`]) branches over the object-state
//!   domain, computing each branch's response and next state through the
//!   type's [`try_apply`](rc_spec::ObjectType::try_apply) (invalid
//!   `(state, op)` combinations are discarded — the real engine would
//!   panic on them, so they bound no reachable behaviour);
//! * **crash edges**: every discovered state also takes an
//!   [`on_crash`](crate::Program::on_crash) edge (optional, on by
//!   default — see [`analyze_system`]'s `include_crash`).
//!
//! When a cell's domain grows, every read/RMW site on that cell (any
//! process) is re-probed with the new values — a classic monotone
//! fixpoint. A probe that panics inside guest code is treated as an
//! infeasible branch and discarded (the value fed to it was an
//! over-approximation; a *feasible* panic would equally abort the real
//! exploration).
//!
//! ## Soundness
//!
//! The analysis over-approximates: by induction over execution prefixes,
//! every value a reachable memory state can hold is in the analyzed
//! domain of its cell, and every local state a process can reach is
//! memoized — so every access any real execution performs is recorded.
//! The converse does not hold (domains ignore cross-process ordering),
//! so the footprint may include accesses no feasible execution performs;
//! for the consumers below, over-approximation is the safe direction.
//! Programs whose state space (or written-value domain) is unbounded
//! exhaust the [`AnalysisBudget`] and report
//! [`FootprintError::BudgetExceeded`] instead of looping — callers then
//! fall back to the hand-written declarations.
//!
//! ## Consumers
//!
//! * [`lint_system`] — the declaration linter: analyzed footprint vs
//!   `referenced_cells`/owned-cell declarations. Under-declaration is a
//!   hard error, over-declaration a lost-reduction warning, and cells
//!   touched by exactly one process are reported as derived owned-cell
//!   candidates. The `tables lint` CLI (rc-bench) runs this across the
//!   whole catalog as experiment E14.
//! * [`StaticIndependence`] — steps of distinct processes whose write
//!   footprint is disjoint from each other's access footprint commute in
//!   every state; exported for the partial-order-reduction roadmap item
//!   and cross-validated dynamically by the explore engine
//!   ([`ExploreConfig::cross_validate_independence`](crate::ExploreConfig::cross_validate_independence)).
//! * the symmetry validation in `explore` uses analyzed footprints as
//!   reference sets where the analysis converges, so owned-cell systems
//!   built from programs without `referenced_cells` are validated (or
//!   rejected) on their *actual* accesses.

use crate::canon::SymmetrySpec;
use crate::memory::{Addr, Cell, MemOps, Memory};
use crate::program::{Pid, Program, Step};
use rc_spec::{Operation, TypeHandle, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

thread_local! {
    /// Whether the current thread is inside a caught probe (see
    /// [`quiet_probe`]).
    static IN_PROBE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` — which must catch every panic it provokes — with the panic
/// hook silenced for this thread. Probe panics are control flow here
/// (infeasible branches of the value-domain over-approximation, or a
/// rebind-support check), not defects, and the default hook would spam
/// stderr with a backtrace per caught branch. The first call swaps in a
/// process-global hook that delegates to the previous one except on
/// threads currently probing, so unrelated panics keep their reports.
pub(crate) fn quiet_probe<T>(f: impl FnOnce() -> T) -> T {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_PROBE.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_PROBE.with(|p| p.set(self.0));
        }
    }
    let _reset = Reset(IN_PROBE.with(|p| p.replace(true)));
    f()
}

/// The mode of one shared-memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// `read_register` / `read_object`.
    Read,
    /// `write_register`.
    Write,
    /// `apply` — an atomic read-modify-write.
    Rmw,
}

/// The set of access modes a process uses on one cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccessModes {
    /// The cell is read (`read_register`/`read_object`).
    pub read: bool,
    /// The cell is written (`write_register`).
    pub write: bool,
    /// The cell receives RMW operations (`apply`).
    pub rmw: bool,
}

impl AccessKind {
    /// Whether the access can change the cell (write or RMW).
    pub fn mutates(self) -> bool {
        matches!(self, AccessKind::Write | AccessKind::Rmw)
    }
}

impl AccessModes {
    fn record(&mut self, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.read = true,
            AccessKind::Write => self.write = true,
            AccessKind::Rmw => self.rmw = true,
        }
    }

    /// Whether any mode can change the cell (write or RMW).
    pub fn mutates(&self) -> bool {
        self.write || self.rmw
    }

    /// A compact `r`/`w`/`u` (update) rendering, e.g. `rw`, `u`, `r`.
    pub fn label(&self) -> String {
        let mut s = String::new();
        if self.read {
            s.push('r');
        }
        if self.write {
            s.push('w');
        }
        if self.rmw {
            s.push('u');
        }
        s
    }
}

/// The analyzed footprint of one process.
#[derive(Clone, Debug, Default)]
pub struct ProcessFootprint {
    /// Every cell the process may access, with its modes.
    pub cells: BTreeMap<Addr, AccessModes>,
    /// Number of memoized local states the walk visited.
    pub local_states: usize,
}

impl ProcessFootprint {
    /// The accessed cells (any mode), ascending.
    pub fn accessed(&self) -> Vec<Addr> {
        self.cells.keys().copied().collect()
    }

    /// The cells the process may mutate (write or RMW), ascending.
    pub fn mutated(&self) -> Vec<Addr> {
        self.cells
            .iter()
            .filter(|(_, m)| m.mutates())
            .map(|(&a, _)| a)
            .collect()
    }
}

/// The analyzed footprints of a whole system, one per process.
#[derive(Clone, Debug)]
pub struct SystemFootprint {
    /// `per_process[p]` is process `p`'s footprint.
    pub per_process: Vec<ProcessFootprint>,
    /// Total number of `step` probes the fixpoint ran.
    pub probes: usize,
}

impl SystemFootprint {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.per_process.len()
    }
}

/// Caps on the fixpoint walk, so unbounded-state guests fail fast
/// instead of looping.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisBudget {
    /// Maximum memoized local states, summed over all processes.
    pub max_local_states: usize,
    /// Maximum `step` probes.
    pub max_probes: usize,
}

impl Default for AnalysisBudget {
    fn default() -> Self {
        AnalysisBudget {
            max_local_states: 1 << 16,
            max_probes: 1 << 21,
        }
    }
}

/// Why a footprint analysis gave up.
#[derive(Clone, Debug)]
pub enum FootprintError {
    /// The walk exceeded its [`AnalysisBudget`] — the local-state graph
    /// or a written-value domain is too large (or unbounded).
    BudgetExceeded {
        /// The process whose probe hit the cap.
        pid: Pid,
        /// Memoized local states at the point of failure.
        local_states: usize,
        /// Step probes run at the point of failure.
        probes: usize,
    },
    /// A single `step` performed more than one shared-memory access,
    /// violating the [`Program`] contract the whole execution model
    /// rests on.
    MultipleAccesses {
        /// The offending process.
        pid: Pid,
        /// The local state (its `state_key`) whose step misbehaved.
        state_key: Value,
    },
    /// A probe hit a type-confused access (register op on an object
    /// cell or vice versa, or a `Read` on a non-readable type).
    TypeConfusion {
        /// The offending process.
        pid: Pid,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for FootprintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FootprintError::BudgetExceeded {
                pid,
                local_states,
                probes,
            } => write!(
                f,
                "footprint analysis budget exceeded probing p{pid} \
                 ({local_states} local states, {probes} probes)"
            ),
            FootprintError::MultipleAccesses { pid, state_key } => write!(
                f,
                "p{pid} performs more than one shared-memory access in a \
                 single step (from local state {state_key}); the Program \
                 contract allows at most one"
            ),
            FootprintError::TypeConfusion { pid, message } => {
                write!(f, "p{pid} probe hit a type-confused access: {message}")
            }
        }
    }
}

impl std::error::Error for FootprintError {}

/// What kind of cell sits at each address (probing needs the object
/// type to compute RMW transitions).
#[derive(Clone)]
enum ProbeKind {
    Register,
    Object(TypeHandle),
}

/// The instrumenting [`MemOps`]: records the step's (first) access and
/// answers it with the `branch`-th value of the cell's current domain.
/// Subsequent accesses in the same step are counted (contract
/// violation) and answered benignly so the probe can finish.
struct ProbeMem<'a> {
    kinds: &'a [ProbeKind],
    domains: &'a [BTreeSet<Value>],
    branch: usize,
    /// The first access: `(cell index, kind)`.
    site: Option<(usize, AccessKind)>,
    /// Values this probe wrote (register writes and RMW next-states) —
    /// merged into the domains after the branch loop.
    wrote: Vec<(usize, Value)>,
    /// Accesses beyond the first (each one a contract violation).
    extra: usize,
    /// `false` when the branch fed an RMW a domain state its operation
    /// rejects — the branch is infeasible and its successor discarded.
    valid: bool,
    /// A type-confused access, reported as [`FootprintError::TypeConfusion`].
    fault: Option<String>,
}

impl<'a> ProbeMem<'a> {
    fn new(kinds: &'a [ProbeKind], domains: &'a [BTreeSet<Value>], branch: usize) -> Self {
        ProbeMem {
            kinds,
            domains,
            branch,
            site: None,
            wrote: Vec::new(),
            extra: 0,
            valid: true,
            fault: None,
        }
    }

    /// Records the access; returns `true` iff it is the step's first.
    fn first(&mut self, cell: usize, kind: AccessKind) -> bool {
        if self.site.is_none() {
            self.site = Some((cell, kind));
            true
        } else {
            self.extra += 1;
            false
        }
    }

    fn branch_value(&self, cell: usize) -> Value {
        self.domains[cell]
            .iter()
            .nth(self.branch)
            .cloned()
            .expect("probe branch indexes into the cell's domain")
    }
}

impl MemOps for ProbeMem<'_> {
    fn read_register(&mut self, addr: Addr) -> Value {
        let cell = addr.index();
        if !self.first(cell, AccessKind::Read) {
            return Value::Bottom;
        }
        if !matches!(self.kinds[cell], ProbeKind::Register) {
            self.fault = Some(format!("{addr} is an object, not a register"));
            return Value::Bottom;
        }
        self.branch_value(cell)
    }

    fn write_register(&mut self, addr: Addr, value: Value) {
        let cell = addr.index();
        if !self.first(cell, AccessKind::Write) {
            return;
        }
        if !matches!(self.kinds[cell], ProbeKind::Register) {
            self.fault = Some(format!("{addr} is an object, not a register"));
            return;
        }
        self.wrote.push((cell, value));
    }

    fn read_object(&mut self, addr: Addr) -> Value {
        let cell = addr.index();
        if !self.first(cell, AccessKind::Read) {
            return Value::Bottom;
        }
        match &self.kinds[cell] {
            ProbeKind::Object(ty) if ty.is_readable() => self.branch_value(cell),
            ProbeKind::Object(ty) => {
                self.fault = Some(format!(
                    "type {} is not readable; Read is not available",
                    ty.name()
                ));
                Value::Bottom
            }
            ProbeKind::Register => {
                self.fault = Some(format!("{addr} is a register, not an object"));
                Value::Bottom
            }
        }
    }

    fn apply(&mut self, addr: Addr, op: &Operation) -> Value {
        let cell = addr.index();
        if !self.first(cell, AccessKind::Rmw) {
            return Value::Bottom;
        }
        match &self.kinds[cell] {
            ProbeKind::Object(ty) => {
                let state = self.branch_value(cell);
                match ty.try_apply(&state, op) {
                    Ok(t) => {
                        self.wrote.push((cell, t.next));
                        t.response
                    }
                    Err(_) => {
                        // The real engine's `apply` would panic here, so
                        // no reachable execution performs this (state,
                        // op) combination: discard the branch.
                        self.valid = false;
                        Value::Bottom
                    }
                }
            }
            ProbeKind::Register => {
                self.fault = Some(format!("{addr} is a register, not an object"));
                Value::Bottom
            }
        }
    }
}

/// One probed `(choice, branch)` transition of a memoized local state —
/// the full edge record the scalarset certifier matches under family
/// transpositions (the footprint consumers only need the coarser
/// site/successor projections).
#[derive(Clone, Debug)]
pub(crate) struct ChoiceEdge {
    /// The choice id ([`Program::choices`]) this edge belongs to.
    pub(crate) choice: usize,
    /// The step's access site, `(cell index, kind)`; `None` when the
    /// branch touches no shared cell.
    pub(crate) site: Option<(usize, AccessKind)>,
    /// For read/RMW sites: the domain value the branch observed.
    pub(crate) observed: Option<Value>,
    /// The register value or RMW next-state the branch wrote.
    pub(crate) wrote: Option<(usize, Value)>,
    /// Successor state index; `None` for infeasible/panicking branches.
    pub(crate) succ: Option<usize>,
    /// The decided output, when the branch decides.
    pub(crate) output: Option<Value>,
}

/// `(choice id, access site)` for one enabled choice of a state.
pub(crate) type ChoiceSite = (usize, Option<(usize, AccessKind)>);

/// One process's memoized local-state graph during the walk.
pub(crate) struct PidStates {
    /// Representative clone + decided flag per state index.
    pub(crate) states: Vec<(Box<dyn Program>, bool)>,
    /// `(state_key, decided)` → state index.
    pub(crate) index: BTreeMap<(Value, bool), usize>,
    footprint: ProcessFootprint,
    /// Per state: `(choice id, access site)` per enabled choice, in
    /// [`Program::choices`] order (sites discovered on branch 0).
    pub(crate) choice_sites: Vec<Vec<ChoiceSite>>,
    /// Per state: every probed `(choice, branch)` edge.
    pub(crate) edges: Vec<Vec<ChoiceEdge>>,
    /// Per state: whether the representative reports
    /// [`Program::scalarset_pinned`].
    pub(crate) pinned: Vec<bool>,
    /// Per state: whether some probed branch of the step decides.
    may_decide: Vec<bool>,
    /// Per state: step-successor state indices (all probed branches).
    pub(crate) step_succ: Vec<BTreeSet<usize>>,
    /// Per state: the crash-restart successor (`include_crash` walks).
    pub(crate) crash_succ: Vec<Option<usize>>,
}

/// The raw result of one fixpoint walk: the memoized per-process state
/// graphs plus the probe count.
pub(crate) struct Walk {
    pub(crate) pids: Vec<PidStates>,
    probes: usize,
    /// The fixpoint value domains, per cell (final, post-convergence).
    pub(crate) domains: Vec<BTreeSet<Value>>,
}

/// Global fixpoint-run counter, bumped once per [`walk_system`] call.
/// Exposed through [`analysis_fixpoint_runs`] so tests can assert the
/// analysis cache really prevents recomputation.
static FIXPOINT_RUNS: AtomicUsize = AtomicUsize::new(0);

/// Number of fixpoint walks run by this process so far (all threads).
pub fn analysis_fixpoint_runs() -> usize {
    FIXPOINT_RUNS.load(Ordering::Relaxed)
}

/// The shared fixpoint walk behind [`analyze_system`] and
/// [`analyze_system_states`]: memoizes every reachable local state per
/// process and records, per state, the step's access site, its step
/// successors, its crash successor and whether any branch decides.
pub(crate) fn walk_system(
    mem: &Memory,
    programs: &[Box<dyn Program>],
    include_crash: bool,
    budget: AnalysisBudget,
) -> Result<Walk, FootprintError> {
    FIXPOINT_RUNS.fetch_add(1, Ordering::Relaxed);
    let kinds: Vec<ProbeKind> = (0..mem.len())
        .map(|i| match mem.peek_cell(Addr(i)) {
            Cell::Register(_) => ProbeKind::Register,
            Cell::Object { ty, .. } => ProbeKind::Object(ty),
        })
        .collect();
    let mut domains: Vec<BTreeSet<Value>> = (0..mem.len())
        .map(|i| {
            let mut d = BTreeSet::new();
            d.insert(match mem.peek_cell(Addr(i)) {
                Cell::Register(v) => v,
                Cell::Object { state, .. } => state,
            });
            d
        })
        .collect();

    let mut pids: Vec<PidStates> = programs
        .iter()
        .map(|_| PidStates {
            states: Vec::new(),
            index: BTreeMap::new(),
            footprint: ProcessFootprint::default(),
            choice_sites: Vec::new(),
            edges: Vec::new(),
            pinned: Vec::new(),
            may_decide: Vec::new(),
            step_succ: Vec::new(),
            crash_succ: Vec::new(),
        })
        .collect();
    // Read/RMW sites per cell, for fixpoint re-probing on domain growth.
    let mut read_sites: Vec<BTreeSet<(Pid, usize)>> = vec![BTreeSet::new(); mem.len()];
    let mut work: VecDeque<(Pid, usize)> = VecDeque::new();
    let mut queued: BTreeSet<(Pid, usize)> = BTreeSet::new();
    let mut total_states = 0usize;
    let mut probes = 0usize;

    /// Memoizes `prog` (and, transitively, its crash restart) for `pid`;
    /// enqueues newly discovered states. Returns the index of the state
    /// `prog` memoized to, so the caller can record successor edges.
    #[allow(clippy::too_many_arguments)]
    fn insert(
        pid: Pid,
        prog: Box<dyn Program>,
        decided: bool,
        include_crash: bool,
        pids: &mut [PidStates],
        work: &mut VecDeque<(Pid, usize)>,
        queued: &mut BTreeSet<(Pid, usize)>,
        total_states: &mut usize,
        budget: &AnalysisBudget,
        probes: usize,
    ) -> Result<usize, FootprintError> {
        // Each pending entry carries the state index whose crash edge
        // leads to it (None for the original `prog`).
        let mut pending: Vec<(Box<dyn Program>, bool, Option<usize>)> = vec![(prog, decided, None)];
        let mut first = None;
        while let Some((prog, decided, from)) = pending.pop() {
            let key = (prog.state_key(), decided);
            let idx = match pids[pid].index.get(&key) {
                Some(&idx) => idx,
                None => {
                    *total_states += 1;
                    if *total_states > budget.max_local_states {
                        return Err(FootprintError::BudgetExceeded {
                            pid,
                            local_states: *total_states,
                            probes,
                        });
                    }
                    let idx = pids[pid].states.len();
                    if include_crash {
                        let mut crashed = prog.boxed_clone();
                        crashed.on_crash();
                        pending.push((crashed, false, Some(idx)));
                    }
                    pids[pid].pinned.push(prog.scalarset_pinned());
                    pids[pid].states.push((prog, decided));
                    pids[pid].index.insert(key, idx);
                    pids[pid].footprint.local_states += 1;
                    pids[pid].choice_sites.push(Vec::new());
                    pids[pid].edges.push(Vec::new());
                    pids[pid].may_decide.push(false);
                    pids[pid].step_succ.push(BTreeSet::new());
                    pids[pid].crash_succ.push(None);
                    if queued.insert((pid, idx)) {
                        work.push_back((pid, idx));
                    }
                    idx
                }
            };
            if let Some(from) = from {
                pids[pid].crash_succ[from] = Some(idx);
            }
            if first.is_none() {
                first = Some(idx);
            }
        }
        Ok(first.expect("insert memoizes at least the given state"))
    }

    for (pid, prog) in programs.iter().enumerate() {
        insert(
            pid,
            prog.boxed_clone(),
            false,
            include_crash,
            &mut pids,
            &mut work,
            &mut queued,
            &mut total_states,
            &budget,
            probes,
        )?;
    }

    while let Some((pid, sidx)) = work.pop_front() {
        queued.remove(&(pid, sidx));
        if pids[pid].states[sidx].1 {
            continue; // decided states take no further steps
        }
        // Probe every enabled choice: branch 0 discovers the choice's
        // access site, then the remaining branches of its domain
        // (reads/RMWs only). The domains are frozen during the loop;
        // growth is merged after. Re-probes (domain growth) rebuild the
        // state's per-choice records from scratch.
        let choice_ids = pids[pid].states[sidx].0.choices();
        assert!(
            !choice_ids.is_empty(),
            "Program::choices returned an empty list for p{pid}"
        );
        pids[pid].choice_sites[sidx].clear();
        pids[pid].edges[sidx].clear();
        let mut grew: Vec<(usize, Value)> = Vec::new();
        for &choice in &choice_ids {
            let mut branches = 1usize;
            let mut b = 0usize;
            while b < branches {
                probes += 1;
                if probes > budget.max_probes {
                    return Err(FootprintError::BudgetExceeded {
                        pid,
                        local_states: total_states,
                        probes,
                    });
                }
                let mut prog = pids[pid].states[sidx].0.boxed_clone();
                let mut probe = ProbeMem::new(&kinds, &domains, b);
                let outcome = quiet_probe(|| {
                    catch_unwind(AssertUnwindSafe(|| prog.step_choice(&mut probe, choice)))
                });
                if let Some(message) = probe.fault {
                    return Err(FootprintError::TypeConfusion { pid, message });
                }
                if probe.extra > 0 {
                    return Err(FootprintError::MultipleAccesses {
                        pid,
                        state_key: pids[pid].states[sidx].0.state_key(),
                    });
                }
                if b == 0 {
                    pids[pid].choice_sites[sidx].push((choice, probe.site));
                    if let Some((cell, kind)) = probe.site {
                        pids[pid]
                            .footprint
                            .cells
                            .entry(Addr(cell))
                            .or_default()
                            .record(kind);
                        if matches!(kind, AccessKind::Read | AccessKind::Rmw) {
                            read_sites[cell].insert((pid, sidx));
                            branches = domains[cell].len();
                        }
                    }
                }
                let observed = probe.site.and_then(|(cell, kind)| {
                    matches!(kind, AccessKind::Read | AccessKind::Rmw)
                        .then(|| domains[cell].iter().nth(b).cloned())
                        .flatten()
                });
                let wrote = probe.wrote.first().cloned();
                grew.append(&mut probe.wrote);
                b += 1;
                // A panicking or infeasible branch has no successor (the
                // fed value was an over-approximation); its access record
                // and writes-so-far stand.
                let (succ, output) = match outcome {
                    Ok(step) if probe.valid => {
                        let decided = matches!(step, Step::Decided(_));
                        let output = match &step {
                            Step::Decided(v) => Some(v.clone()),
                            Step::Running => None,
                        };
                        if decided {
                            pids[pid].may_decide[sidx] = true;
                        }
                        let succ = insert(
                            pid,
                            prog,
                            decided,
                            include_crash,
                            &mut pids,
                            &mut work,
                            &mut queued,
                            &mut total_states,
                            &budget,
                            probes,
                        )?;
                        pids[pid].step_succ[sidx].insert(succ);
                        (Some(succ), output)
                    }
                    _ => (None, None),
                };
                pids[pid].edges[sidx].push(ChoiceEdge {
                    choice,
                    site: probe.site,
                    observed,
                    wrote,
                    succ,
                    output,
                });
            }
        }
        for (cell, value) in grew {
            if domains[cell].insert(value) {
                for &(p, s) in &read_sites[cell] {
                    if queued.insert((p, s)) {
                        work.push_back((p, s));
                    }
                }
            }
        }
    }

    Ok(Walk {
        pids,
        probes,
        domains,
    })
}

/// One freshly probed `(choice, branch)` transition of a concrete
/// program object — like [`ChoiceEdge`], but with the successor as a
/// `(state_key, decided)` pair instead of a walk index, so edges of
/// *different* program objects (e.g. a rebound clone vs an orbit
/// sibling's representative) compare directly. Produced by
/// [`probe_state_edges`] for the scalarset certifier's dynamic checks.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ProbedEdge {
    pub(crate) choice: usize,
    pub(crate) site: Option<(usize, AccessKind)>,
    pub(crate) observed: Option<Value>,
    pub(crate) wrote: Option<(usize, Value)>,
    pub(crate) succ: Option<(Value, bool)>,
    pub(crate) output: Option<Value>,
}

/// Probes every `(choice, branch)` transition of `prog` against the
/// given (already converged) value domains — the same probe loop as
/// [`walk_system`], but for one state of one concrete program object,
/// with successors reported by key. Errors on contract violations
/// (multiple accesses per step, type confusion).
pub(crate) fn probe_state_edges(
    mem: &Memory,
    domains: &[BTreeSet<Value>],
    prog: &dyn Program,
) -> Result<Vec<ProbedEdge>, String> {
    let kinds: Vec<ProbeKind> = (0..mem.len())
        .map(|i| match mem.peek_cell(Addr(i)) {
            Cell::Register(_) => ProbeKind::Register,
            Cell::Object { ty, .. } => ProbeKind::Object(ty),
        })
        .collect();
    let mut edges = Vec::new();
    let choice_ids = prog.choices();
    if choice_ids.is_empty() {
        return Err("Program::choices returned an empty list".into());
    }
    for &choice in &choice_ids {
        let mut branches = 1usize;
        let mut b = 0usize;
        while b < branches {
            let mut clone = prog.boxed_clone();
            let mut probe = ProbeMem::new(&kinds, domains, b);
            let outcome = quiet_probe(|| {
                catch_unwind(AssertUnwindSafe(|| clone.step_choice(&mut probe, choice)))
            });
            if let Some(message) = probe.fault {
                return Err(format!("type-confused access: {message}"));
            }
            if probe.extra > 0 {
                return Err(format!(
                    "more than one shared-memory access in a single step \
                     (from local state {})",
                    prog.state_key()
                ));
            }
            if b == 0 {
                if let Some((cell, kind)) = probe.site {
                    if matches!(kind, AccessKind::Read | AccessKind::Rmw) {
                        branches = domains[cell].len();
                    }
                }
            }
            let observed = probe.site.and_then(|(cell, kind)| {
                matches!(kind, AccessKind::Read | AccessKind::Rmw)
                    .then(|| domains[cell].iter().nth(b).cloned())
                    .flatten()
            });
            let wrote = probe.wrote.first().cloned();
            b += 1;
            let (succ, output) = match outcome {
                Ok(step) => {
                    if probe.valid {
                        let output = match &step {
                            Step::Decided(v) => Some(v.clone()),
                            Step::Running => None,
                        };
                        let decided = matches!(step, Step::Decided(_));
                        (Some((clone.state_key(), decided)), output)
                    } else {
                        (None, None)
                    }
                }
                Err(_) => (None, None),
            };
            edges.push(ProbedEdge {
                choice,
                site: probe.site,
                observed,
                wrote,
                succ,
                output,
            });
        }
    }
    Ok(edges)
}

/// Analyzes every process's cell footprint by walking the memoized
/// local-state graphs to a fixpoint (see the module docs).
///
/// `include_crash` adds [`on_crash`](Program::on_crash) edges to the
/// walk; exploration consumers keep it `true` (sound for every crash
/// model — extra edges only grow the over-approximation).
pub fn analyze_system(
    mem: &Memory,
    programs: &[Box<dyn Program>],
    include_crash: bool,
    budget: AnalysisBudget,
) -> Result<SystemFootprint, FootprintError> {
    let walk = walk_system(mem, programs, include_crash, budget)?;
    Ok(SystemFootprint {
        per_process: walk.pids.into_iter().map(|p| p.footprint).collect(),
        probes: walk.probes,
    })
}

/// A compact cell set over `cells + 1` bits: bit `i` is shared cell `i`,
/// and the last bit (index `cells`) is the **decision pseudo-cell** —
/// the analysis models every deciding step as an RMW on it, so the
/// agreement check and the `decided_value` slot count as a dependency
/// between any two steps that may decide (see [`SystemAnalysis`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellSet {
    words: Box<[u64]>,
}

impl CellSet {
    fn empty(bits: usize) -> Self {
        CellSet {
            words: vec![0u64; bits.div_ceil(64).max(1)].into_boxed_slice(),
        }
    }

    fn insert(&mut self, bit: usize) {
        self.words[bit / 64] |= 1u64 << (bit % 64);
    }

    /// Whether `bit` is in the set.
    pub fn contains(&self, bit: usize) -> bool {
        self.words
            .get(bit / 64)
            .is_some_and(|w| w & (1u64 << (bit % 64)) != 0)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether the two sets share no bit.
    pub fn is_disjoint(&self, other: &CellSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// Whether every bit of `self` is in `other`.
    pub fn is_subset(&self, other: &CellSet) -> bool {
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Unions `other` into `self`; returns whether `self` changed.
    fn union_with(&mut self, other: &CellSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let merged = *a | b;
            changed |= merged != *a;
            *a = merged;
        }
        changed
    }

    /// The set bits, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word & (1u64 << b) != 0)
                .map(move |b| w * 64 + b)
        })
    }
}

/// The analyzed behaviour of one memoized local state: what its next
/// step touches *immediately* and what the process may touch on any
/// crash-free continuation *from this state onward*. The immediate sets
/// drive the sleep-set independence test; the future sets drive the
/// persistent-set test (see `explore`'s POR engine).
#[derive(Clone, Debug)]
pub struct LocalStateInfo {
    /// The state's `state_key`.
    pub key: Value,
    /// Whether the state is decided (no further steps).
    pub decided: bool,
    /// The step's single access site, `(cell index, kind)`, when the
    /// state offers exactly one choice; `None` when the step touches no
    /// shared cell **or** the state is internally nondeterministic
    /// (several choices — their union is in the immediate sets).
    pub site: Option<(usize, AccessKind)>,
    /// Whether some probed branch of the step decides.
    pub may_decide: bool,
    /// Cells the next step may access (site + the decision pseudo-cell
    /// when `may_decide`).
    pub imm_accessed: CellSet,
    /// Cells the next step may mutate.
    pub imm_mutated: CellSet,
    /// Cells any **crash-free** continuation from here may access
    /// (closure over step edges; includes this state's own step).
    pub future_accessed: CellSet,
    /// Cells any crash-free continuation from here may mutate.
    pub future_mutated: CellSet,
    /// Cells any continuation **including crash edges** may access —
    /// the crash-closure the ample-set lint checks the crash-free sets
    /// against.
    pub crash_future_accessed: CellSet,
    /// Cells any continuation including crash edges may mutate.
    pub crash_future_mutated: CellSet,
}

/// One process's per-local-state analysis: every memoized `(state_key,
/// decided)` state with its [`LocalStateInfo`].
#[derive(Clone, Debug)]
pub struct ProcessStateMap {
    /// Per-state info, in discovery order.
    pub infos: Vec<LocalStateInfo>,
    /// `(state_key, decided)` → index into `infos`.
    index: BTreeMap<(Value, bool), usize>,
    /// Whether the process's step-edge graph (crash edges excluded) is
    /// acyclic — the termination condition POR eligibility requires.
    pub step_acyclic: bool,
}

impl ProcessStateMap {
    /// Looks up the info of the state with the given key, if analyzed.
    pub fn lookup(&self, key: &Value, decided: bool) -> Option<&LocalStateInfo> {
        self.index
            .get(&(key.clone(), decided))
            .map(|&i| &self.infos[i])
    }
}

/// The per-local-state extension of [`SystemFootprint`]: everything
/// [`analyze_system`] computes plus, per process, a map from memoized
/// local state to immediate/future access footprints (crash-free and
/// crash-inclusive), the step-graph acyclicity flag, and the decision
/// pseudo-cell convention ([`CellSet`]). Built by
/// [`analyze_system_states`] in the same fixpoint walk, so it costs no
/// extra probes over the whole-system footprint.
#[derive(Clone, Debug)]
pub struct SystemAnalysis {
    /// The whole-system footprint (identical to
    /// `analyze_system(mem, programs, true, budget)`).
    pub footprint: SystemFootprint,
    /// `per_process[p]` — process `p`'s per-local-state map.
    pub per_process: Vec<ProcessStateMap>,
    /// Number of real shared cells; the decision pseudo-cell is bit
    /// `cells` of every [`CellSet`].
    pub cells: usize,
    /// The global fixpoint-run serial at which this analysis was
    /// computed (see [`analysis_fixpoint_runs`]); lets tests distinguish
    /// a cache hit from a recomputation.
    pub serial: usize,
}

impl SystemAnalysis {
    /// The decision pseudo-cell's bit index in this analysis's
    /// [`CellSet`]s.
    pub fn decision_cell(&self) -> usize {
        self.cells
    }

    /// Whether every process's step-edge graph is acyclic.
    pub fn step_graphs_acyclic(&self) -> bool {
        self.per_process.iter().all(|p| p.step_acyclic)
    }
}

/// Whether the step-edge graph over `infos` is acyclic (self-loops are
/// cycles). Iterative three-color DFS.
fn step_graph_acyclic(step_succ: &[BTreeSet<usize>]) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; step_succ.len()];
    for root in 0..step_succ.len() {
        if color[root] != Color::White {
            continue;
        }
        // (node, next-successor iterator position)
        let mut stack: Vec<(usize, std::collections::btree_set::Iter<'_, usize>)> = Vec::new();
        color[root] = Color::Gray;
        stack.push((root, step_succ[root].iter()));
        while let Some((node, iter)) = stack.last_mut() {
            match iter.next() {
                Some(&succ) => match color[succ] {
                    Color::Gray => return false,
                    Color::White => {
                        color[succ] = Color::Gray;
                        stack.push((succ, step_succ[succ].iter()));
                    }
                    Color::Black => {}
                },
                None => {
                    color[*node] = Color::Black;
                    stack.pop();
                }
            }
        }
    }
    true
}

/// Runs the fixpoint walk **with crash edges** and derives the
/// per-local-state analysis: immediate access sets per state, the
/// crash-free and crash-inclusive future footprints (backward closure
/// over the recorded successor edges), and per-process step-graph
/// acyclicity. See [`SystemAnalysis`].
pub fn analyze_system_states(
    mem: &Memory,
    programs: &[Box<dyn Program>],
    budget: AnalysisBudget,
) -> Result<SystemAnalysis, FootprintError> {
    let walk = walk_system(mem, programs, true, budget)?;
    let cells = mem.len();
    let decision = cells;
    let bits = cells + 1;
    let mut per_process = Vec::with_capacity(walk.pids.len());
    for pid in walk.pids.iter() {
        let n_states = pid.states.len();
        let mut infos: Vec<LocalStateInfo> = (0..n_states)
            .map(|s| {
                let (prog, decided) = &pid.states[s];
                let mut imm_accessed = CellSet::empty(bits);
                let mut imm_mutated = CellSet::empty(bits);
                if !*decided {
                    // The immediate sets union over every enabled choice
                    // — the step the scheduler actually takes is one of
                    // them, so the union is the sound per-process lump.
                    for &(_, site) in &pid.choice_sites[s] {
                        if let Some((cell, kind)) = site {
                            imm_accessed.insert(cell);
                            if kind.mutates() {
                                imm_mutated.insert(cell);
                            }
                        }
                    }
                    if pid.may_decide[s] {
                        // A deciding step reads and writes the decision
                        // pseudo-cell (the agreement check + the
                        // decided-value slot).
                        imm_accessed.insert(decision);
                        imm_mutated.insert(decision);
                    }
                }
                let site = match pid.choice_sites[s][..] {
                    [(_, site)] => site,
                    _ => None,
                };
                LocalStateInfo {
                    key: prog.state_key(),
                    decided: *decided,
                    site: if *decided { None } else { site },
                    may_decide: !*decided && pid.may_decide[s],
                    future_accessed: imm_accessed.clone(),
                    future_mutated: imm_mutated.clone(),
                    crash_future_accessed: imm_accessed.clone(),
                    crash_future_mutated: imm_mutated.clone(),
                    imm_accessed,
                    imm_mutated,
                }
            })
            .collect();
        // Backward closure to the (monotone, bounded) fixpoint: a
        // state's future covers its own step plus every successor's
        // future — over step edges only for the crash-free sets, over
        // step + crash edges for the crash-inclusive ones.
        let mut changed = true;
        while changed {
            changed = false;
            for s in (0..n_states).rev() {
                for succ in pid.step_succ[s].clone() {
                    let (acc, mutd, cacc, cmut) = {
                        let t = &infos[succ];
                        (
                            t.future_accessed.clone(),
                            t.future_mutated.clone(),
                            t.crash_future_accessed.clone(),
                            t.crash_future_mutated.clone(),
                        )
                    };
                    changed |= infos[s].future_accessed.union_with(&acc);
                    changed |= infos[s].future_mutated.union_with(&mutd);
                    changed |= infos[s].crash_future_accessed.union_with(&cacc);
                    changed |= infos[s].crash_future_mutated.union_with(&cmut);
                }
                if let Some(succ) = pid.crash_succ[s] {
                    let (cacc, cmut) = {
                        let t = &infos[succ];
                        (
                            t.crash_future_accessed.clone(),
                            t.crash_future_mutated.clone(),
                        )
                    };
                    changed |= infos[s].crash_future_accessed.union_with(&cacc);
                    changed |= infos[s].crash_future_mutated.union_with(&cmut);
                }
            }
        }
        per_process.push(ProcessStateMap {
            step_acyclic: step_graph_acyclic(&pid.step_succ),
            infos,
            index: pid.index.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        });
    }
    Ok(SystemAnalysis {
        footprint: SystemFootprint {
            per_process: walk.pids.into_iter().map(|p| p.footprint).collect(),
            probes: walk.probes,
        },
        per_process,
        cells,
        serial: analysis_fixpoint_runs(),
    })
}

/// The process-global analysis cache behind [`system_analysis_cached`].
static ANALYSIS_CACHE: OnceLock<Mutex<HashMap<String, Arc<SystemAnalysis>>>> = OnceLock::new();

/// Returns the [`SystemAnalysis`] for `id`, computing it from `mem` and
/// `programs` only on the first call with that id. The id must uniquely
/// identify the system's construction (memory layout, program wiring and
/// instance size) — the catalog benchmarks use their row labels. The
/// cache lets `tables lint`, the explore engine's owned-cell validation
/// and the POR setup share one fixpoint run per catalog system; tests
/// assert the sharing via [`analysis_fixpoint_runs`] and the returned
/// [`SystemAnalysis::serial`].
pub fn system_analysis_cached(
    id: &str,
    mem: &Memory,
    programs: &[Box<dyn Program>],
    budget: AnalysisBudget,
) -> Result<Arc<SystemAnalysis>, FootprintError> {
    let cache = ANALYSIS_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("analysis cache lock");
    if let Some(hit) = map.get(id) {
        return Ok(hit.clone());
    }
    let analysis = Arc::new(analyze_system_states(mem, programs, budget)?);
    map.insert(id.to_string(), analysis.clone());
    Ok(analysis)
}

/// The static independence relation derived from a [`SystemFootprint`]:
/// steps of two distinct processes commute in **every** state when each
/// one's write footprint is disjoint from the other's access footprint —
/// neither step can change a cell the other touches, so both orders
/// produce identical memory and identical per-process behaviour. This is
/// the conflict relation partial-order reduction needs (see ROADMAP),
/// and the explore engine cross-validates it dynamically on request
/// ([`ExploreConfig::cross_validate_independence`](crate::ExploreConfig::cross_validate_independence)).
#[derive(Clone, Debug)]
pub struct StaticIndependence {
    accessed: Vec<BTreeSet<usize>>,
    mutated: Vec<BTreeSet<usize>>,
}

impl StaticIndependence {
    /// Derives the relation from analyzed footprints.
    pub fn from_footprint(fp: &SystemFootprint) -> Self {
        StaticIndependence {
            accessed: fp
                .per_process
                .iter()
                .map(|p| p.cells.keys().map(|a| a.index()).collect())
                .collect(),
            mutated: fp
                .per_process
                .iter()
                .map(|p| {
                    p.cells
                        .iter()
                        .filter(|(_, m)| m.mutates())
                        .map(|(a, _)| a.index())
                        .collect()
                })
                .collect(),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.accessed.len()
    }

    /// Whether every step of `p` commutes with every step of `q`.
    pub fn are_independent(&self, p: Pid, q: Pid) -> bool {
        p != q
            && self.mutated[p].is_disjoint(&self.accessed[q])
            && self.mutated[q].is_disjoint(&self.accessed[p])
    }

    /// All independent pairs `(p, q)` with `p < q`, ascending.
    pub fn independent_pairs(&self) -> Vec<(Pid, Pid)> {
        let n = self.n();
        (0..n)
            .flat_map(|p| (p + 1..n).map(move |q| (p, q)))
            .filter(|&(p, q)| self.are_independent(p, q))
            .collect()
    }
}

/// The declaration linter's verdict on one system.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Soundness-relevant defects (under-declarations, owner-only
    /// violations). A system with errors must not be explored with the
    /// affected reductions.
    pub errors: Vec<String>,
    /// Lost-reduction / hygiene notes (over-declarations, inert owned
    /// cells).
    pub warnings: Vec<String>,
    /// `derived_owned[p]` — cells only process `p` ever touches:
    /// candidates for `SymmetrySpec::with_owned_cells`.
    pub derived_owned: Vec<Vec<Addr>>,
    /// The analyzed footprint the verdict is based on.
    pub footprint: SystemFootprint,
}

impl LintReport {
    /// Whether the audit found no errors (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Audits a system's hand-written access declarations against the
/// analyzed footprint:
///
/// * a [`referenced_cells`](Program::referenced_cells) declaration that
///   misses an analyzed access is an **error** (rule: `referenced_cells`
///   must cover every cell the process may access — the owned-cell
///   validation trusts it);
/// * a declaration listing cells the analysis never observes is a
///   **warning** (it costs reduction opportunities but breaks nothing);
/// * an owned cell (per `spec`) accessed by a non-owner from an acting
///   orbit is an **error** (rule: owned cells permute with their owners,
///   so a cross-reference would de-synchronize the quotient); on a
///   singleton orbit the same shape is only a **warning** (singletons
///   never move);
/// * cells touched by exactly one process are returned as derived
///   owned-cell candidates.
pub fn lint_system(
    mem: &Memory,
    programs: &[Box<dyn Program>],
    spec: Option<&SymmetrySpec>,
    budget: AnalysisBudget,
) -> Result<LintReport, FootprintError> {
    let analysis = analyze_system_states(mem, programs, budget)?;
    Ok(lint_with_analysis(&analysis, mem, programs, spec))
}

/// [`lint_system`] over an already-computed [`SystemAnalysis`] (e.g. a
/// [`system_analysis_cached`] hit), so the catalog audit and the explore
/// engine share one fixpoint run per system.
pub fn lint_with_analysis(
    analysis: &SystemAnalysis,
    mem: &Memory,
    programs: &[Box<dyn Program>],
    spec: Option<&SymmetrySpec>,
) -> LintReport {
    let footprint = analysis.footprint.clone();
    let mut errors = Vec::new();
    let mut warnings = Vec::new();

    for (pid, fp) in footprint.per_process.iter().enumerate() {
        if let Some(declared) = programs[pid].referenced_cells() {
            let declared: BTreeSet<Addr> = declared.into_iter().collect();
            let missing: Vec<String> = fp
                .cells
                .iter()
                .filter(|(a, _)| !declared.contains(a))
                .map(|(a, m)| format!("{a} ({})", m.label()))
                .collect();
            if !missing.is_empty() {
                errors.push(format!(
                    "p{pid} under-declares referenced_cells: analyzed accesses \
                     to {} are not declared (rule: referenced_cells must cover \
                     every cell the process may access)",
                    missing.join(", ")
                ));
            }
            let unused: Vec<String> = declared
                .iter()
                .filter(|a| !fp.cells.contains_key(a))
                .map(|a| a.to_string())
                .collect();
            if !unused.is_empty() {
                warnings.push(format!(
                    "p{pid} over-declares referenced_cells: {} never analyzed \
                     as accessed (lost reduction: wider declarations veto \
                     owned-cell candidates)",
                    unused.join(", ")
                ));
            }
        }
    }

    if let Some(spec) = spec {
        let moving: BTreeSet<Pid> = spec
            .acting_orbits()
            .flat_map(|pids| pids.iter().copied())
            .collect();
        for pid in 0..footprint.n() {
            for &cell in spec.owned(pid) {
                for (q, fq) in footprint.per_process.iter().enumerate() {
                    if q == pid || !fq.cells.contains_key(&cell) {
                        continue;
                    }
                    if moving.contains(&pid) {
                        errors.push(format!(
                            "cell {cell} is owned by p{pid} but accessed by \
                             p{q} ({}) (rule: owned cells permute with their \
                             owners, so no other process may reference them)",
                            fq.cells[&cell].label()
                        ));
                    } else {
                        warnings.push(format!(
                            "cell {cell} is owned by p{pid} (singleton orbit, \
                             inert) but accessed by p{q}; the declaration \
                             would become unsound if p{pid} joined an orbit"
                        ));
                    }
                }
                if !footprint.per_process[pid].cells.contains_key(&cell) {
                    warnings.push(format!(
                        "cell {cell} is owned by p{pid} but p{pid} never \
                         accesses it (inert ownership)"
                    ));
                }
            }
        }
    }

    let mut derived_owned: Vec<Vec<Addr>> = vec![Vec::new(); footprint.n()];
    for cell in 0..mem.len() {
        let addr = Addr(cell);
        let touchers: Vec<Pid> = footprint
            .per_process
            .iter()
            .enumerate()
            .filter(|(_, fp)| fp.cells.contains_key(&addr))
            .map(|(p, _)| p)
            .collect();
        if let [only] = touchers[..] {
            derived_owned[only].push(addr);
        }
    }

    LintReport {
        errors,
        warnings,
        derived_owned,
        footprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes its input to `mine`, reads `shared`, decides it.
    #[derive(Clone, Debug)]
    struct WriteThenRead {
        mine: Addr,
        shared: Addr,
        input: Value,
        pc: u8,
    }

    impl Program for WriteThenRead {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            match self.pc {
                0 => {
                    mem.write_register(self.mine, self.input.clone());
                    self.pc = 1;
                    Step::Running
                }
                _ => Step::Decided(mem.read_register(self.shared)),
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
        fn referenced_cells(&self) -> Option<Vec<Addr>> {
            Some(vec![self.mine, self.shared])
        }
    }

    fn two_writer_system() -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let a = mem.alloc_register(Value::Bottom);
        let b = mem.alloc_register(Value::Bottom);
        let shared = mem.alloc_register(Value::Int(7));
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(WriteThenRead {
                mine: a,
                shared,
                input: Value::Int(0),
                pc: 0,
            }),
            Box::new(WriteThenRead {
                mine: b,
                shared,
                input: Value::Int(1),
                pc: 0,
            }),
        ];
        (mem, programs)
    }

    #[test]
    fn footprints_record_modes_per_cell() {
        let (mem, programs) = two_writer_system();
        let fp = analyze_system(&mem, &programs, true, AnalysisBudget::default())
            .expect("bounded system analyzes");
        assert_eq!(fp.n(), 2);
        assert_eq!(fp.per_process[0].accessed(), vec![Addr(0), Addr(2)]);
        assert_eq!(fp.per_process[1].accessed(), vec![Addr(1), Addr(2)]);
        assert_eq!(fp.per_process[0].mutated(), vec![Addr(0)]);
        let modes = fp.per_process[0].cells[&Addr(0)];
        assert!(modes.write && !modes.read && !modes.rmw);
        assert_eq!(fp.per_process[0].cells[&Addr(2)].label(), "r");
    }

    #[test]
    fn independence_needs_disjoint_write_and_access_sets() {
        let (mem, programs) = two_writer_system();
        let fp = analyze_system(&mem, &programs, true, AnalysisBudget::default()).unwrap();
        let indep = StaticIndependence::from_footprint(&fp);
        // Both only *read* the shared cell and write disjoint cells.
        assert!(indep.are_independent(0, 1));
        assert!(!indep.are_independent(0, 0));
        assert_eq!(indep.independent_pairs(), vec![(0, 1)]);
    }

    #[test]
    fn writers_of_a_read_cell_are_dependent() {
        let mut mem = Memory::new();
        let shared = mem.alloc_register(Value::Bottom);
        let mine = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = vec![
            // p0 writes the cell p1 reads.
            Box::new(WriteThenRead {
                mine: shared,
                shared: mine,
                input: Value::Int(3),
                pc: 0,
            }),
            Box::new(WriteThenRead {
                mine,
                shared,
                input: Value::Int(4),
                pc: 0,
            }),
        ];
        let fp = analyze_system(&mem, &programs, true, AnalysisBudget::default()).unwrap();
        let indep = StaticIndependence::from_footprint(&fp);
        assert!(!indep.are_independent(0, 1));
        assert!(indep.independent_pairs().is_empty());
    }

    #[test]
    fn read_branching_covers_values_other_processes_write() {
        /// Reads `watch`; if it ever sees `Int(1)` it writes `tattle`.
        #[derive(Clone, Debug)]
        struct Watcher {
            watch: Addr,
            tattle: Addr,
            pc: u8,
        }
        impl Program for Watcher {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                match self.pc {
                    0 => {
                        if mem.read_register(self.watch) == Value::Int(1) {
                            self.pc = 1;
                        } else {
                            self.pc = 2;
                        }
                        Step::Running
                    }
                    1 => {
                        mem.write_register(self.tattle, Value::Unit);
                        self.pc = 2;
                        Step::Running
                    }
                    _ => Step::Decided(Value::Unit),
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
        let mut mem = Memory::new();
        let watch = mem.alloc_register(Value::Int(0));
        let tattle = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(Watcher {
                watch,
                tattle,
                pc: 0,
            }),
            // p1 writes Int(1) into `watch` — only then can p0 reach its
            // `tattle` write. The fixpoint must re-probe p0's read site.
            Box::new(WriteThenRead {
                mine: watch,
                shared: tattle,
                input: Value::Int(1),
                pc: 0,
            }),
        ];
        let fp = analyze_system(&mem, &programs, true, AnalysisBudget::default()).unwrap();
        assert!(
            fp.per_process[0].cells.contains_key(&tattle),
            "the tattle write is reachable only through a value p1 wrote: {:?}",
            fp.per_process[0]
        );
    }

    #[test]
    fn rmw_transitions_grow_object_domains() {
        use rc_spec::types::TestAndSet;
        use std::sync::Arc;

        /// Applies `tas`, decides whether it won.
        #[derive(Clone, Debug)]
        struct TasOnce {
            obj: Addr,
            pc: u8,
        }
        impl Program for TasOnce {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                match self.pc {
                    0 => {
                        let won = mem.apply(self.obj, &Operation::nullary("tas"));
                        self.pc = if won == Value::Bool(false) { 1 } else { 2 };
                        Step::Running
                    }
                    pc => Step::Decided(Value::Bool(pc == 1)),
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
        let mut mem = Memory::new();
        let obj = mem.alloc_object(Arc::new(TestAndSet::new()), Value::Bool(false));
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(TasOnce { obj, pc: 0 }),
            Box::new(TasOnce { obj, pc: 0 }),
        ];
        let fp = analyze_system(&mem, &programs, true, AnalysisBudget::default()).unwrap();
        for p in 0..2 {
            let modes = fp.per_process[p].cells[&obj];
            assert!(modes.rmw && modes.mutates());
            // Both the winning and losing local branches are reached —
            // pc 1 requires seeing `false`, pc 2 requires the `true` the
            // first tas leaves behind (domain growth). Memoized states:
            // (pc 0/1/2, running) plus (pc 1/2, decided).
            assert_eq!(fp.per_process[p].local_states, 5);
        }
        let indep = StaticIndependence::from_footprint(&fp);
        assert!(!indep.are_independent(0, 1), "both RMW the same object");
    }

    #[test]
    fn unbounded_state_exhausts_the_budget() {
        /// `state_key` grows forever: the memoized walk cannot converge.
        #[derive(Clone, Debug)]
        struct Counter {
            reg: Addr,
            count: i64,
        }
        impl Program for Counter {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                self.count += 1;
                mem.write_register(self.reg, Value::Int(self.count));
                Step::Running
            }
            fn on_crash(&mut self) {}
            fn state_key(&self) -> Value {
                Value::Int(self.count)
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
        }
        let mut mem = Memory::new();
        let reg = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = vec![Box::new(Counter { reg, count: 0 })];
        let budget = AnalysisBudget {
            max_local_states: 64,
            max_probes: 1 << 12,
        };
        match analyze_system(&mem, &programs, true, budget) {
            Err(FootprintError::BudgetExceeded { pid: 0, .. }) => {}
            other => panic!("unbounded walk must exhaust the budget, got {other:?}"),
        }
    }

    #[test]
    fn double_access_steps_violate_the_contract() {
        #[derive(Clone, Debug)]
        struct DoubleReader {
            a: Addr,
            b: Addr,
        }
        impl Program for DoubleReader {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                let x = mem.read_register(self.a);
                let _y = mem.read_register(self.b);
                Step::Decided(x)
            }
            fn on_crash(&mut self) {}
            fn state_key(&self) -> Value {
                Value::Unit
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
        }
        let mut mem = Memory::new();
        let a = mem.alloc_register(Value::Bottom);
        let b = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = vec![Box::new(DoubleReader { a, b })];
        match analyze_system(&mem, &programs, true, AnalysisBudget::default()) {
            Err(FootprintError::MultipleAccesses { pid: 0, .. }) => {}
            other => panic!("double access must be detected, got {other:?}"),
        }
    }

    #[test]
    fn lint_flags_under_declaration_as_error() {
        /// Declares only `mine`, but also reads `shared`.
        #[derive(Clone, Debug)]
        struct UnderDeclared {
            mine: Addr,
            shared: Addr,
            pc: u8,
        }
        impl Program for UnderDeclared {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                match self.pc {
                    0 => {
                        mem.write_register(self.mine, Value::Int(1));
                        self.pc = 1;
                        Step::Running
                    }
                    _ => Step::Decided(mem.read_register(self.shared)),
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
            fn referenced_cells(&self) -> Option<Vec<Addr>> {
                Some(vec![self.mine]) // deliberately misses `shared`
            }
        }
        let mut mem = Memory::new();
        let mine = mem.alloc_register(Value::Bottom);
        let shared = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = vec![Box::new(UnderDeclared {
            mine,
            shared,
            pc: 0,
        })];
        let report =
            lint_system(&mem, &programs, None, AnalysisBudget::default()).expect("analyzable");
        assert!(!report.is_clean());
        assert!(
            report.errors[0].contains("p0") && report.errors[0].contains("under-declares"),
            "error must name the pid and rule: {:?}",
            report.errors
        );
    }

    #[test]
    fn lint_reports_over_declaration_and_derived_owned() {
        let (mem, programs) = two_writer_system();
        let report =
            lint_system(&mem, &programs, None, AnalysisBudget::default()).expect("analyzable");
        assert!(report.is_clean());
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        // Each writer is the sole toucher of its own register; the
        // shared register is read by both.
        assert_eq!(report.derived_owned[0], vec![Addr(0)]);
        assert_eq!(report.derived_owned[1], vec![Addr(1)]);
    }

    #[test]
    fn lint_flags_cross_referenced_owned_cells() {
        let mut mem = Memory::new();
        let a = mem.alloc_register(Value::Bottom);
        let b = mem.alloc_register(Value::Bottom);
        let shared = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(WriteThenRead {
                mine: a,
                shared,
                input: Value::Int(0),
                pc: 0,
            }),
            // p1's "private" cell is... p0's cell a? No: p1 reads a.
            Box::new(WriteThenRead {
                mine: b,
                shared: a,
                input: Value::Int(0),
                pc: 0,
            }),
        ];
        let spec = SymmetrySpec::full(2)
            .with_owned_cells(0, vec![a])
            .with_owned_cells(1, vec![b]);
        let report = lint_system(&mem, &programs, Some(&spec), AnalysisBudget::default()).unwrap();
        assert!(!report.is_clean());
        assert!(
            report.errors[0].contains(&format!("{a}"))
                && report.errors[0].contains("owned by p0")
                && report.errors[0].contains("accessed by p1"),
            "error must name cell, owner and accessor: {:?}",
            report.errors
        );
        // On singleton orbits the same shape is only a warning.
        let inert = SymmetrySpec::trivial(2)
            .with_owned_cells(0, vec![a])
            .with_owned_cells(1, vec![b]);
        let report = lint_system(&mem, &programs, Some(&inert), AnalysisBudget::default()).unwrap();
        assert!(report.is_clean());
        assert!(!report.warnings.is_empty());
    }

    #[test]
    fn per_state_futures_shrink_along_steps() {
        let (mem, programs) = two_writer_system();
        let analysis =
            analyze_system_states(&mem, &programs, AnalysisBudget::default()).expect("analyzable");
        assert_eq!(analysis.cells, 3);
        let d = analysis.decision_cell();
        assert!(analysis.step_graphs_acyclic());
        let p0 = &analysis.per_process[0];
        // pc 0: writes `mine` (cell 0) now; the future also reads
        // `shared` (cell 2) and decides (the pseudo-cell).
        let start = p0.lookup(&Value::Int(0), false).expect("pc 0 analyzed");
        assert_eq!(start.site, Some((0, AccessKind::Write)));
        assert!(!start.may_decide);
        assert!(start.imm_mutated.contains(0) && !start.imm_mutated.contains(2));
        assert!(!start.imm_accessed.contains(d));
        assert!(start.future_accessed.contains(2) && start.future_accessed.contains(d));
        // pc 1: reads `shared` and decides; cell 0 is out of its
        // crash-free future but back in the crash-inclusive one (the
        // restart re-runs the write).
        let poised = p0.lookup(&Value::Int(1), false).expect("pc 1 analyzed");
        assert_eq!(poised.site, Some((2, AccessKind::Read)));
        assert!(poised.may_decide);
        assert!(poised.imm_accessed.contains(d) && poised.imm_mutated.contains(d));
        assert!(!poised.future_accessed.contains(0));
        assert!(poised.crash_future_accessed.contains(0));
        assert!(poised
            .future_accessed
            .is_subset(&poised.crash_future_accessed));
        // Decided states step no more: empty immediate and future sets.
        let done = p0.lookup(&Value::Int(1), true).expect("decided analyzed");
        assert!(done.imm_accessed.is_empty() && done.future_accessed.is_empty());
    }

    #[test]
    fn spinning_reader_has_a_cyclic_step_graph() {
        /// Re-reads `watch` until it sees a non-Bottom value: pc 0 has a
        /// step self-loop, so the local step graph is cyclic.
        #[derive(Clone, Debug)]
        struct Spinner {
            watch: Addr,
            pc: u8,
        }
        impl Program for Spinner {
            fn step(&mut self, mem: &mut dyn MemOps) -> Step {
                match self.pc {
                    0 => {
                        if mem.read_register(self.watch) != Value::Bottom {
                            self.pc = 1;
                        }
                        Step::Running
                    }
                    _ => Step::Decided(Value::Unit),
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
        let mut mem = Memory::new();
        let watch = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = vec![
            Box::new(Spinner { watch, pc: 0 }),
            Box::new(WriteThenRead {
                mine: watch,
                shared: watch,
                input: Value::Int(1),
                pc: 0,
            }),
        ];
        let analysis = analyze_system_states(&mem, &programs, AnalysisBudget::default()).unwrap();
        assert!(!analysis.per_process[0].step_acyclic, "pc-0 self-loop");
        assert!(analysis.per_process[1].step_acyclic);
        assert!(!analysis.step_graphs_acyclic());
    }

    #[test]
    fn analysis_cache_runs_the_fixpoint_once_per_id() {
        let (mem, programs) = two_writer_system();
        let id = "footprint-test::cache-once";
        let first = system_analysis_cached(id, &mem, &programs, AnalysisBudget::default())
            .expect("analyzable");
        let runs_after_first = analysis_fixpoint_runs();
        let second = system_analysis_cached(id, &mem, &programs, AnalysisBudget::default())
            .expect("analyzable");
        assert!(Arc::ptr_eq(&first, &second), "second call must be a hit");
        assert_eq!(first.serial, second.serial);
        // Other tests run fixpoints concurrently, so assert through the
        // Arc identity + serial stamp rather than the raw global delta;
        // the serial recorded in the hit predates `runs_after_first`.
        assert!(second.serial <= runs_after_first);
    }
}
