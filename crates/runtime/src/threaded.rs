//! Real-thread executor: the same [`Program`] state machines running on OS
//! threads against lock-protected shared memory.
//!
//! The deterministic simulator ([`run`](crate::run)) is the source of truth
//! for correctness experiments; this executor is a sanity check that the
//! algorithms also survive real hardware interleavings. Its one caller is
//! the `tests/threaded_executor.rs` suite.
//!
//! ## Fidelity
//!
//! * Each shared cell is guarded by its own [`parking_lot::Mutex`]; every
//!   [`MemOps`] call locks exactly one cell for the duration of one
//!   sequential operation, which makes each access an atomic
//!   (linearizable) operation on that object — precisely the paper's base
//!   objects.
//! * Crashes are injected at step boundaries by a per-thread seeded RNG:
//!   the thread calls [`Program::on_crash`] and keeps running from the
//!   beginning, modelling an immediate recovery. (Delayed recoveries are
//!   subsumed by scheduler nondeterminism: a crashed-and-slow process is
//!   indistinguishable from a crashed-and-quickly-recovered process that
//!   is then descheduled.)

use crate::memory::{Addr, Cell, MemOps, Memory};
use crate::program::{Pid, Program, Step};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rc_spec::{ObjectType, Operation, Value};
use std::sync::Arc;

/// Thread-shared, lock-per-cell non-volatile memory.
///
/// Built from a simulator [`Memory`] so systems can be allocated once and
/// run on either executor.
#[derive(Clone, Debug)]
pub struct SharedMemory {
    cells: Arc<Vec<Mutex<Cell>>>,
}

impl SharedMemory {
    /// Wraps the cells of `mem` in per-cell locks.
    pub fn from_memory(mem: &Memory) -> Self {
        let cells = (0..mem.len())
            .map(|i| {
                let addr = Addr(i);
                // Rebuild each cell from the simulator's contents.
                Mutex::new(match mem.peek_cell(addr) {
                    Cell::Register(v) => Cell::Register(v),
                    Cell::Object { ty, state } => Cell::Object { ty, state },
                })
            })
            .collect();
        SharedMemory {
            cells: Arc::new(cells),
        }
    }

    /// A per-thread handle implementing [`MemOps`].
    pub fn handle(&self) -> SharedMemoryHandle {
        SharedMemoryHandle { mem: self.clone() }
    }

    /// Inspection-only view of a cell's current content.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn peek(&self, addr: Addr) -> Value {
        match &*self.cells[addr.0].lock() {
            Cell::Register(v) => v.clone(),
            Cell::Object { state, .. } => state.clone(),
        }
    }
}

/// A cloneable [`MemOps`] view of a [`SharedMemory`].
#[derive(Clone, Debug)]
pub struct SharedMemoryHandle {
    mem: SharedMemory,
}

impl MemOps for SharedMemoryHandle {
    fn read_register(&mut self, addr: Addr) -> Value {
        match &*self.mem.cells[addr.0].lock() {
            Cell::Register(v) => v.clone(),
            Cell::Object { .. } => panic!("{addr} is an object, not a register"),
        }
    }

    fn write_register(&mut self, addr: Addr, value: Value) {
        match &mut *self.mem.cells[addr.0].lock() {
            Cell::Register(v) => *v = value,
            Cell::Object { .. } => panic!("{addr} is an object, not a register"),
        }
    }

    fn read_object(&mut self, addr: Addr) -> Value {
        match &*self.mem.cells[addr.0].lock() {
            Cell::Object { ty, state } => {
                assert!(
                    ty.is_readable(),
                    "type {} is not readable; Read is not available",
                    ty.name()
                );
                state.clone()
            }
            Cell::Register(_) => panic!("{addr} is a register, not an object"),
        }
    }

    fn apply(&mut self, addr: Addr, op: &Operation) -> Value {
        match &mut *self.mem.cells[addr.0].lock() {
            Cell::Object { ty, state } => {
                let t = ty.apply(state, op);
                *state = t.next;
                t.response
            }
            Cell::Register(_) => panic!("{addr} is a register, not an object"),
        }
    }
}

/// Crash-injection settings for the threaded executor.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedCrashPlan {
    /// Base RNG seed (thread `p` uses `seed + p`).
    pub seed: u64,
    /// Per-step probability of crashing before the step executes.
    pub crash_prob: f64,
    /// Maximum crashes per thread.
    pub max_crashes_per_thread: usize,
}

impl Default for ThreadedCrashPlan {
    fn default() -> Self {
        ThreadedCrashPlan {
            seed: 0,
            crash_prob: 0.0,
            max_crashes_per_thread: 0,
        }
    }
}

/// The per-thread result of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadReport {
    /// The process id.
    pub pid: Pid,
    /// The output of the thread's final run.
    pub output: Value,
    /// Steps executed (across all runs).
    pub steps: usize,
    /// Crashes injected into this thread.
    pub crashes: usize,
}

/// Runs one OS thread per program against `shared`, injecting crashes per
/// `plan`, and returns each thread's final decision.
///
/// # Panics
///
/// Panics if a worker thread panics (algorithm bug) or a program fails to
/// decide within `max_steps_per_thread` steps.
pub fn run_threaded(
    shared: &SharedMemory,
    programs: Vec<Box<dyn Program>>,
    plan: ThreadedCrashPlan,
    max_steps_per_thread: usize,
) -> Vec<ThreadReport> {
    let mut handles = Vec::new();
    for (pid, mut program) in programs.into_iter().enumerate() {
        let mut mem = shared.handle();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(plan.seed.wrapping_add(pid as u64));
            let mut steps = 0usize;
            let mut crashes = 0usize;
            loop {
                assert!(
                    steps < max_steps_per_thread,
                    "p{pid} exceeded {max_steps_per_thread} steps without deciding"
                );
                if crashes < plan.max_crashes_per_thread
                    && plan.crash_prob > 0.0
                    && rng.gen_bool(plan.crash_prob)
                {
                    program.on_crash();
                    crashes += 1;
                    continue;
                }
                steps += 1;
                if let Step::Decided(output) = program.step(&mut mem) {
                    return ThreadReport {
                        pid,
                        output,
                        steps,
                        crashes,
                    };
                }
            }
        }));
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("worker thread panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_spec::types::ConsensusObject;

    /// Proposes its input to a consensus object and decides the response.
    #[derive(Clone, Debug)]
    struct Propose {
        obj: Addr,
        input: i64,
    }
    impl Program for Propose {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            let decided = mem.apply(self.obj, &Operation::new("propose", Value::Int(self.input)));
            Step::Decided(decided)
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn threads_agree_via_consensus_object() {
        let mut mem = Memory::new();
        let obj = mem.alloc_object(Arc::new(ConsensusObject::new(8)), Value::Bottom);
        let shared = SharedMemory::from_memory(&mem);
        let programs: Vec<Box<dyn Program>> = (0..8)
            .map(|i| Box::new(Propose { obj, input: i }) as Box<dyn Program>)
            .collect();
        let reports = run_threaded(&shared, programs, ThreadedCrashPlan::default(), 1000);
        let first = &reports[0].output;
        assert!(reports.iter().all(|r| r.output == *first));
        assert_eq!(shared.peek(obj), *first);
    }

    #[test]
    fn crash_injection_reruns_and_still_agrees() {
        let mut mem = Memory::new();
        let obj = mem.alloc_object(Arc::new(ConsensusObject::new(8)), Value::Bottom);
        let shared = SharedMemory::from_memory(&mem);
        let programs: Vec<Box<dyn Program>> = (0..4)
            .map(|i| Box::new(Propose { obj, input: i }) as Box<dyn Program>)
            .collect();
        let plan = ThreadedCrashPlan {
            seed: 42,
            crash_prob: 0.5,
            max_crashes_per_thread: 3,
        };
        let reports = run_threaded(&shared, programs, plan, 1000);
        let first = &reports[0].output;
        assert!(reports.iter().all(|r| r.output == *first));
    }
}
