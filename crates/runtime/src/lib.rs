//! # rc-runtime — crash–recovery shared-memory simulation substrate
//!
//! This crate implements the execution model of
//! *“When Is Recoverable Consensus Harder Than Consensus?”* (PODC 2022):
//! an asynchronous shared-memory system in which
//!
//! * **shared memory is non-volatile** — process crashes never affect it;
//! * **process-local memory is volatile** — a crash reinitializes a
//!   process's local state *including its program counter*, and on recovery
//!   the process re-executes its code from the beginning;
//! * crashes are **independent** (any single process, at any step boundary)
//!   or **simultaneous** (all processes at once), per Section 1 and
//!   Section 2 of the paper.
//!
//! ## Pieces
//!
//! * [`Memory`] — the non-volatile heap: registers and typed objects
//!   (specified by `rc-spec`), each access atomic.
//! * [`Program`] — algorithms as explicit state machines; each
//!   [`Program::step`] performs **at most one** shared-memory access, so a
//!   scheduler can interleave and crash programs at every point the paper's
//!   adversary can, and the model checker memoizes each step by slot,
//!   state key and the value of the cell it accesses. [`Program::on_crash`]
//!   wipes local state (the input value is retained across runs, matching
//!   the paper's assumption; the `rc-core` input-masking transformation
//!   removes even that).
//! * [`sched`] — schedulers: seeded random (with crash injection),
//!   round-robin, and fully scripted (for the paper's hand-crafted
//!   adversarial scenarios).
//! * [`run`] — the simulation loop, producing an [`Execution`] with every
//!   decision from every run of every process plus a replayable [`Trace`].
//! * [`CrashModel`] — the crash adversary described once (budget,
//!   independent vs simultaneous mode, post-decide policy) and shared by
//!   the exact and randomized layers, so they cannot drift apart.
//! * [`explore`] — a bounded-exhaustive model checker: one iterative
//!   DFS over *all* interleavings and crash placements (up to a crash
//!   budget) whose states are hash-consed full-fidelity state keys
//!   ([`ValueInterner`] ids) and nothing else (one program per process
//!   slot and program-state id serves every state; a violation's
//!   schedule is read off the DFS stack), advanced by one
//!   step-memo transition that the swarm, the ample lint and
//!   [`replay_on_checker`] share, an exact `max_states` cap cut in its
//!   acceptance order, one in-RAM packed visited-set table
//!   ([`PackedStateTable`]) and opt-in process-symmetry reduction
//!   ([`explore_symmetric`] + [`SymmetrySpec`]) — including *full-state*
//!   symmetry, where declared per-process cells permute with their
//!   owners and relocated programs are rebound ([`Program::rebind`] +
//!   [`SymmetrySpec::with_owned_cells`]) — plus opt-in footprint-driven
//!   **partial-order reduction** ([`ExploreConfig::por`]: persistent +
//!   sleep sets, gated by the ample-set lint [`lint_ample`]).
//! * [`footprint`] — cell-access footprint analysis over the program
//!   catalog: an instrumenting recorder plus a fixpoint walk of each
//!   program's memoized local-state graph, feeding a declaration linter
//!   ([`lint_system`]), the per-local-state access maps POR prunes with
//!   ([`analyze_system_states`], cached per catalog id via
//!   [`system_analysis_cached`]) and the symmetry validation.
//! * `scalarset` — the scalarset equivariance certifier
//!   ([`lint_scalarset`]): proves a declared cross-read cell family
//!   ([`SymmetrySpec::with_scalarset`]) is scanned as an
//!   order-insensitive fold, which licenses permuting the family with
//!   the process slots during symmetry reduction.
//! * [`swarm`] — randomized swarm verification past the exhaustive
//!   frontier: millions of deterministically-seeded schedules fanned
//!   across all cores ([`swarm()`](swarm::swarm)), each executed by the
//!   checker's transition on its step memo and so resting on the same
//!   [`Program`] step contract (one access per step, a complete
//!   `state_key`, an `on_crash` that resets), exact distinct-final-state
//!   coverage through the packed tables, per-seed deterministic replay
//!   through [`run`] ([`replay_seed`]) and delta-debugging of violating
//!   schedules down to 1-minimal, [`CrashModel`]-legal witnesses
//!   ([`shrink_schedule`]) that re-verify on the checker's executor
//!   ([`replay_on_checker`]).
//! * [`threaded`] — a real-thread executor (`parking_lot` mutex per object,
//!   one OS thread per process); its one caller is the
//!   `tests/threaded_executor.rs` suite.
//! * [`verify`] — agreement/validity/termination checkers for consensus-
//!   style outputs.
//!
//! ## Example: a trivial 1-step program under the simulator
//!
//! ```
//! use rc_runtime::{run, Execution, MemOps, Memory, Program, RunOptions, Step};
//! use rc_runtime::sched::RoundRobin;
//! use rc_spec::Value;
//!
//! #[derive(Clone, Debug)]
//! struct WriteAndDecide { addr: rc_runtime::Addr, input: Value }
//!
//! impl Program for WriteAndDecide {
//!     fn step(&mut self, mem: &mut dyn MemOps) -> Step {
//!         mem.write_register(self.addr, self.input.clone());
//!         Step::Decided(self.input.clone())
//!     }
//!     fn on_crash(&mut self) {}
//!     fn state_key(&self) -> Value { Value::Unit }
//!     fn boxed_clone(&self) -> Box<dyn Program> { Box::new(self.clone()) }
//! }
//!
//! let mut mem = Memory::new();
//! let addr = mem.alloc_register(Value::Bottom);
//! let mut programs: Vec<Box<dyn Program>> = vec![
//!     Box::new(WriteAndDecide { addr, input: Value::Int(7) }),
//! ];
//! let mut sched = RoundRobin::new();
//! let exec: Execution = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
//! assert_eq!(exec.outputs[0], vec![Value::Int(7)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canon;
mod crash;
mod exec;
mod explore;
mod intern;
mod memory;
mod program;
mod scalarset;
mod storage;
mod trace;

pub mod footprint;
pub mod sched;
pub mod swarm;
pub mod threaded;
pub mod verify;

pub use canon::SymmetrySpec;
pub use crash::{CrashMode, CrashModel};
pub use exec::{run, Execution, RunOptions};
pub use explore::{
    explore, explore_symmetric, explore_symmetric_with_stats, explore_with_stats, lint_ample,
    replay_on_checker, AmpleLintReport, CheckerReplay, ExploreConfig, ExploreOutcome, ExploreStats,
    SymmetricSystemFactory, SystemFactory, ViolationKind,
};
pub use footprint::{
    analysis_fixpoint_runs, analyze_system, analyze_system_states, lint_system, lint_with_analysis,
    system_analysis_cached, AccessKind, AccessModes, AnalysisBudget, CellSet, FootprintError,
    LintReport, LocalStateInfo, ProcessFootprint, ProcessStateMap, SystemAnalysis, SystemFootprint,
};
// The scalarset equivariance certifier: `lint_scalarset` is the
// `tables lint` entry; the engine consults the cached certificate
// internally before permuting any declared family.
pub use intern::ValueInterner;
pub use memory::{Addr, Cell, MemOps, Memory};
pub use program::{Pid, Program, Rebinding, Step};
pub use scalarset::{lint_scalarset, ScalarsetReport};
// The storage layer: the packed-key codec and the visited-set table
// are exported for the property suite in tests/proptest_runtime.rs;
// `StorageTier` is the type of `ExploreConfig::storage`.
pub use storage::{pack_key, unpack_key, PackedStateTable, StorageTier};
// The swarm service: the engine (`swarm`/`swarm_with_progress`), the
// per-seed replay and the schedule shrinker, re-exported flat for the
// `swarm` binary and the invariant test suites.
pub use swarm::{
    is_subsequence, replay_schedule, replay_seed, shrink_schedule, swarm_with_progress,
    ScheduleReplay, SeedRun, ShrinkError, ShrunkWitness, SwarmConfig, SwarmProgress, SwarmReport,
    SwarmViolation,
};
pub use trace::{Trace, TraceEvent};
