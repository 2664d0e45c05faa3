//! The [`Program`] trait: algorithms as crashable state machines.

use crate::memory::{Addr, MemOps};
use rc_spec::Value;
use std::fmt;

/// A process identifier, `0..n`.
pub type Pid = usize;

/// A shared-cell address remapping, handed to [`Program::rebind`] by the
/// model checker's full-state symmetry reduction.
///
/// When an orbit permutation moves a process's payload to another slot,
/// the cells that process *owns* (see
/// [`SymmetrySpec::with_owned_cells`](crate::SymmetrySpec::with_owned_cells))
/// move with it — and the relocated program must be told its cells' new
/// addresses. The map is total over the system's cells and is the
/// identity everywhere except the owned cells of the moved processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rebinding {
    /// `map[a]` is the new address of old address `a`.
    map: Vec<Addr>,
}

impl Rebinding {
    /// The identity map over a memory of `cells` addresses.
    pub fn identity(cells: usize) -> Self {
        Rebinding {
            map: (0..cells).map(Addr).collect(),
        }
    }

    /// Redirects `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is outside the memory the map was built for.
    pub fn map(&mut self, from: Addr, to: Addr) {
        self.map[from.0] = to;
    }

    /// The new address of `addr`. Programs implement
    /// [`Program::rebind`] by replacing every held address `a` with
    /// `lookup(a)`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory the map was built for.
    pub fn lookup(&self, addr: Addr) -> Addr {
        self.map[addr.0]
    }

    /// The inverse map.
    ///
    /// # Panics
    ///
    /// Panics if the map is not a bijection.
    pub fn inverse(&self) -> Self {
        let mut inv = vec![None; self.map.len()];
        for (from, to) in self.map.iter().enumerate() {
            assert!(
                inv[to.0].is_none(),
                "rebinding is not a bijection: two addresses map to {to}"
            );
            inv[to.0] = Some(Addr(from));
        }
        Rebinding {
            map: inv
                .into_iter()
                .map(|a| a.expect("bijection covers every address"))
                .collect(),
        }
    }
}

/// The outcome of one program step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// The program performed (at most) one shared-memory access and has
    /// more work to do.
    Running,
    /// The program's current run returned this output value.
    Decided(Value),
}

/// An algorithm for one process, written as an explicit state machine.
///
/// ## Contract
///
/// * Each call to [`step`](Program::step) performs **at most one**
///   shared-memory access (one `MemOps` method call). This granularity is
///   what makes the simulated executions *exactly* the executions of the
///   paper's model — the scheduler can interleave processes and inject
///   crashes between any two shared-memory accesses. The exhaustive
///   checker and the swarm rely on it too: they memoize each step by the
///   process's slot, its [`state_key`](Program::state_key) and the value
///   of the one cell the step accesses, and panic on a step that makes a
///   second access.
/// * [`on_crash`](Program::on_crash) models a process crash: it must reset
///   the program counter and all local variables to their initial values.
///   The paper's model reinitializes everything local; only the *input* is
///   assumed stable across runs ("we assume a process's input value does
///   not change, even across multiple runs" — Section 1), so
///   implementations keep their input and wipe the rest.
///   (The `rc-core::algorithms::input_mask` transformation removes even
///   the stable-input assumption, exactly as described in the paper.)
///   The checker and the swarm compute each post-crash program once and
///   reuse it for every crash of that process.
/// * [`state_key`](Program::state_key) returns a *complete* structural
///   encoding of the volatile state (program counter + locals). The model
///   checker and the swarm memoize on it, so two programs with equal keys
///   must behave identically forever; encoding less than the full state
///   would make the exhaustive exploration unsound and the swarm's
///   executions wrong.
///
/// Programs are passive data (`Send + Sync`): nothing runs without a
/// scheduler calling [`step`](Program::step); the model checker keeps
/// one program per process slot and state key for all the states that
/// share it, and the swarm and the threaded executor run programs on
/// worker threads.
pub trait Program: fmt::Debug + Send + Sync {
    /// Executes one step (at most one shared-memory access).
    ///
    /// Which cell the step accesses must depend only on the volatile
    /// state, and its effect only on that state and the accessed cell's
    /// value: the exhaustive checker and the swarm step each (slot, state
    /// key, cell value) once and reuse the outcome for every state that
    /// repeats it.
    ///
    /// For internally nondeterministic programs this must execute the
    /// *first* alternative of [`choices`](Program::choices) — schedulers
    /// and the threaded executor drive programs through `step` alone, so
    /// `step` is the deterministic resolution the paper's pseudocode
    /// prescribes, while the exhaustive engines additionally branch over
    /// [`step_choice`](Program::step_choice).
    fn step(&mut self, mem: &mut dyn MemOps) -> Step;

    /// The enabled internal alternatives of the next step, as stable
    /// choice ids. The default — a single id `0` — declares the step
    /// deterministic. A program whose next step is internally
    /// nondeterministic (e.g. a scalarset scan free to read any
    /// unchecked family register) returns one id per alternative; the
    /// exhaustive engines then branch over every id via
    /// [`step_choice`](Program::step_choice), while a single-entry list
    /// is executed through [`step`](Program::step).
    ///
    /// Contract: ids must be a deterministic function of the volatile
    /// state, the list must be non-empty, and when more than one id is
    /// offered the ids must be **process-slot-indexed** (e.g. scalarset
    /// family positions) — the witness reconstruction renames them
    /// through orbit permutations together with the pids.
    fn choices(&self) -> Vec<usize> {
        vec![0]
    }

    /// Executes the alternative with the given choice id (at most one
    /// shared-memory access). `step_choice(first)` — for the first entry
    /// of [`choices`](Program::choices) — must behave exactly like
    /// [`step`](Program::step). The default delegates to `step`, which
    /// is correct for every deterministic program.
    fn step_choice(&mut self, mem: &mut dyn MemOps, choice: usize) -> Step {
        debug_assert_eq!(
            choice, 0,
            "default step_choice only serves the default choice id"
        );
        self.step(mem)
    }

    /// Whether the volatile state currently references scalarset family
    /// members *positionally* — e.g. a mid-scan set of already-checked
    /// family positions. While any program of a system is pinned, the
    /// symmetry reduction must not permute the family (the held
    /// positions would dangle), so canonicalization is skipped for such
    /// states; states whose position references are permutation-fixed
    /// (empty or complete scans) report `false` and canonicalize as
    /// usual. The scalarset certifier checks this flag is honest: a
    /// state that pairs with a *different* state under a family
    /// transposition must report pinned. The default — never pinned —
    /// is correct for every program that holds no family positions.
    fn scalarset_pinned(&self) -> bool {
        false
    }

    /// Crashes the process: volatile state (program counter and locals) is
    /// reset; the input, if any, is retained.
    fn on_crash(&mut self);

    /// Complete structural encoding of the volatile state, for exact
    /// model-checker memoization.
    fn state_key(&self) -> Value;

    /// Clones the program as a boxed trait object. The model checker
    /// and the swarm keep one program per process slot and state key,
    /// and step a clone of it on each miss of their step memo.
    fn boxed_clone(&self) -> Box<dyn Program>;

    /// Remaps every shared-cell address the program holds: each held
    /// [`Addr`] — including addresses inside nested programs and
    /// captured layouts — must be replaced by [`Rebinding::lookup`] of
    /// it. The model checker's full-state symmetry reduction calls this
    /// when an orbit permutation relocates the program together with its
    /// owned cells, on a clone, once per destination slot and state key
    /// in a search: the rebound copy then serves every state that holds
    /// that key in that slot. Rebinding must not change
    /// [`state_key`](Program::state_key) (addresses are identity, not
    /// volatile state — two rebound copies of one program differ only in
    /// *where* they point).
    ///
    /// The default implementation panics: it is only ever invoked for
    /// programs of orbits that declare owned cells, and such orbits must
    /// be built from rebindable programs.
    fn rebind(&mut self, map: &Rebinding) {
        let _ = map;
        panic!(
            "this Program does not support address rebinding; implement \
             Program::rebind, or declare no owned cells for its process \
             (SymmetrySpec::with_owned_cells) — the footprint analyzer \
             (rc_runtime::lint_system / `tables lint`) derives sound \
             owned-cell candidates and checks the declarations"
        );
    }

    /// Every shared-cell address the program may access over *any*
    /// execution (its own and all programs it may create), used by the
    /// owned-cell soundness validation: a cell owned by a process in an
    /// acting orbit may be referenced by **no other process** — see
    /// [`SymmetrySpec::with_owned_cells`](crate::SymmetrySpec::with_owned_cells).
    /// `None` (the default) means the reference set is not enumerable;
    /// systems declaring owned cells are then rejected at search start,
    /// because the validation cannot establish soundness.
    fn referenced_cells(&self) -> Option<Vec<Addr>> {
        None
    }
}

impl Clone for Box<dyn Program> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Addr, Memory};

    /// A two-step program: write input, then decide it.
    #[derive(Clone, Debug)]
    struct TwoStep {
        addr: Addr,
        input: Value,
        pc: u8,
    }

    impl Program for TwoStep {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            match self.pc {
                0 => {
                    mem.write_register(self.addr, self.input.clone());
                    self.pc = 1;
                    Step::Running
                }
                _ => Step::Decided(mem.read_register(self.addr)),
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

    #[test]
    fn crash_resets_pc_but_keeps_input() {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        let mut p = TwoStep {
            addr,
            input: Value::Int(9),
            pc: 0,
        };
        assert_eq!(p.step(&mut mem), Step::Running);
        p.on_crash();
        assert_eq!(p.state_key(), Value::Int(0));
        // Shared memory survives the crash (non-volatile).
        assert_eq!(mem.peek(addr), Value::Int(9));
        // Re-run from the beginning.
        assert_eq!(p.step(&mut mem), Step::Running);
        assert_eq!(p.step(&mut mem), Step::Decided(Value::Int(9)));
    }

    #[test]
    fn rebinding_roundtrips_through_its_inverse() {
        let mut map = Rebinding::identity(4);
        // Swap cells 1 and 3 (the shape an orbit transposition produces).
        map.map(Addr(1), Addr(3));
        map.map(Addr(3), Addr(1));
        assert_eq!(map.lookup(Addr(0)), Addr(0));
        assert_eq!(map.lookup(Addr(1)), Addr(3));
        let inv = map.inverse();
        for a in 0..4 {
            assert_eq!(inv.lookup(map.lookup(Addr(a))), Addr(a));
        }
        assert_eq!(Rebinding::identity(4).inverse(), Rebinding::identity(4));
    }

    #[test]
    #[should_panic(expected = "not a bijection")]
    fn non_bijective_rebinding_has_no_inverse() {
        let mut map = Rebinding::identity(3);
        map.map(Addr(0), Addr(2));
        let _ = map.inverse();
    }

    #[test]
    #[should_panic(expected = "does not support address rebinding")]
    fn default_rebind_panics() {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        let mut p = TwoStep {
            addr,
            input: Value::Int(1),
            pc: 0,
        };
        assert_eq!(p.referenced_cells(), None, "default is not enumerable");
        p.rebind(&Rebinding::identity(1));
    }

    #[test]
    fn boxed_clone_is_independent() {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        let p: Box<dyn Program> = Box::new(TwoStep {
            addr,
            input: Value::Int(1),
            pc: 0,
        });
        let mut q = p.clone();
        q.step(&mut mem);
        assert_eq!(p.state_key(), Value::Int(0));
        assert_eq!(q.state_key(), Value::Int(1));
    }
}
