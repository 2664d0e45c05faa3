//! The non-volatile shared memory.

use rc_spec::{ObjectType, Operation, TypeHandle, Value};
use std::fmt;

/// Address of a shared-memory cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub(crate) usize);

impl Addr {
    /// The cell index behind the address (also its slot in the model
    /// checker's flat state key).
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// One shared-memory cell: an atomic read/write register or an atomic
/// object of some `rc-spec` type.
#[derive(Clone, Debug)]
pub enum Cell {
    /// An atomic register holding a [`Value`].
    Register(Value),
    /// An atomic object: a type handle plus its current state.
    Object {
        /// The sequential specification governing this object.
        ty: TypeHandle,
        /// The object's current state.
        state: Value,
    },
}

impl Cell {
    /// The register's value or the object's state.
    fn content(&self) -> &Value {
        match self {
            Cell::Register(v) => v,
            Cell::Object { state, .. } => state,
        }
    }
}

/// The shared-memory operations available to a [`Program`](crate::Program).
///
/// Both the deterministic simulator ([`Memory`]) and the real-thread
/// executor ([`threaded::SharedMemory`](crate::threaded::SharedMemory))
/// implement this trait, so the same algorithm state machines run on
/// either substrate. Every method is one **atomic** access.
///
/// # Panics
///
/// All methods panic on a type-confused access (reading an object cell as
/// a register, applying an operation the type rejects, or an out-of-range
/// address); these are programmer errors in algorithm code, never
/// run-time conditions of the simulated system.
pub trait MemOps {
    /// Atomically reads a register.
    fn read_register(&mut self, addr: Addr) -> Value;
    /// Atomically writes a register.
    fn write_register(&mut self, addr: Addr, value: Value);
    /// Atomically reads the entire state of a *readable* object
    /// (the `Read` operation of the paper's readable types).
    fn read_object(&mut self, addr: Addr) -> Value;
    /// Atomically applies an update operation to an object, returning the
    /// operation's response.
    fn apply(&mut self, addr: Addr, op: &Operation) -> Value;
}

/// The non-volatile shared memory of the simulator.
///
/// Crashes never touch this structure — that is precisely the paper's
/// non-volatile-memory assumption. (The executor resets *program* state on
/// a crash and leaves the `Memory` alone.)
#[derive(Clone, Debug, Default)]
pub struct Memory {
    cells: Vec<Cell>,
    accesses: usize,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Allocates a register initialized to `init` (the paper's registers
    /// start at ⊥; pass [`Value::Bottom`]).
    pub fn alloc_register(&mut self, init: Value) -> Addr {
        self.cells.push(Cell::Register(init));
        Addr(self.cells.len() - 1)
    }

    /// Allocates an object of type `ty` initialized to state `q0`.
    ///
    /// # Panics
    ///
    /// Panics if `q0` is not a valid state of `ty` — i.e. if **any**
    /// operation of the type rejects it
    /// ([`ObjectType::validate_state`]). (An earlier version probed only
    /// the first operation, so a `q0` rejected by every *other* operation
    /// slipped through and the type confusion surfaced much later, deep
    /// inside a search.)
    pub fn alloc_object(&mut self, ty: TypeHandle, q0: Value) -> Addr {
        if let Err(e) = ty.validate_state(&q0) {
            panic!("initial state {q0} rejected by type {}: {e}", ty.name());
        }
        self.cells.push(Cell::Object { ty, state: q0 });
        Addr(self.cells.len() - 1)
    }

    /// Number of allocated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the memory has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total number of shared-memory accesses performed so far.
    pub fn access_count(&self) -> usize {
        self.accesses
    }

    /// Every cell's current value/state, in address order, by
    /// reference — what [`state_key`](Self::state_key) copies out.
    pub(crate) fn contents(&self) -> impl Iterator<Item = &Value> {
        self.cells.iter().map(Cell::content)
    }

    /// A structural snapshot of every cell's current value/state — used
    /// by valency analyses and tests for exact state comparison. (The
    /// model checker does not use this: it converts the memory into an
    /// internal copy-on-write form once and interns cell values
    /// directly.)
    pub fn state_key(&self) -> Vec<Value> {
        self.contents().cloned().collect()
    }

    /// Appends one interned id per cell to `out` — the hash-consed form
    /// of [`state_key`](Self::state_key): nothing is cloned for
    /// already-seen cell contents, and the ids are equal iff the
    /// structural snapshots are. This is the reference implementation of
    /// the flattening the model checker applies to its internal
    /// copy-on-write memory; the key-equivalence property tests build
    /// engine-shaped keys with it.
    pub fn intern_state_key(
        &self,
        interner: &mut crate::intern::ValueInterner,
        out: &mut Vec<u32>,
    ) {
        out.extend(self.contents().map(|v| interner.intern(v)));
    }

    /// Clones a whole cell (type handle included); used by the threaded
    /// executor to build its lock-per-cell
    /// [`SharedMemory`](crate::threaded::SharedMemory) from a simulator
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn peek_cell(&self, addr: Addr) -> Cell {
        self.cells[addr.0].clone()
    }

    /// Direct (non-atomic, inspection-only) view of a cell's current
    /// content; used by trace printers and tests.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn peek(&self, addr: Addr) -> Value {
        self.cells[addr.0].content().clone()
    }

    fn cell_mut(&mut self, addr: Addr) -> &mut Cell {
        self.accesses += 1;
        &mut self.cells[addr.0]
    }
}

impl MemOps for Memory {
    fn read_register(&mut self, addr: Addr) -> Value {
        match self.cell_mut(addr) {
            Cell::Register(v) => v.clone(),
            Cell::Object { .. } => panic!("{addr} is an object, not a register"),
        }
    }

    fn write_register(&mut self, addr: Addr, value: Value) {
        match self.cell_mut(addr) {
            Cell::Register(v) => *v = value,
            Cell::Object { .. } => panic!("{addr} is an object, not a register"),
        }
    }

    fn read_object(&mut self, addr: Addr) -> Value {
        match self.cell_mut(addr) {
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
        match self.cell_mut(addr) {
            Cell::Object { ty, state } => {
                let t = ty.apply(state, op);
                *state = t.next;
                t.response
            }
            Cell::Register(_) => panic!("{addr} is a register, not an object"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_spec::types::{Stack, TestAndSet};
    use std::sync::Arc;

    #[test]
    fn register_round_trip() {
        let mut mem = Memory::new();
        let a = mem.alloc_register(Value::Bottom);
        assert_eq!(mem.read_register(a), Value::Bottom);
        mem.write_register(a, Value::Int(3));
        assert_eq!(mem.read_register(a), Value::Int(3));
        assert_eq!(mem.access_count(), 3);
        assert_eq!(mem.len(), 1);
        assert!(!mem.is_empty());
    }

    #[test]
    fn object_apply_and_read() {
        let mut mem = Memory::new();
        let tas = mem.alloc_object(Arc::new(TestAndSet::new()), Value::Bool(false));
        assert_eq!(mem.read_object(tas), Value::Bool(false));
        assert_eq!(
            mem.apply(tas, &Operation::nullary("tas")),
            Value::Bool(false)
        );
        assert_eq!(mem.read_object(tas), Value::Bool(true));
    }

    #[test]
    fn reading_non_readable_object_panics() {
        let mut mem = Memory::new();
        let stack = mem.alloc_object(Arc::new(Stack::new(3, 2)), Value::empty_list());
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mem.read_object(stack)));
        assert!(result.is_err(), "the classic stack has no Read operation");
    }

    #[test]
    fn state_key_reflects_contents() {
        let mut mem = Memory::new();
        let a = mem.alloc_register(Value::Int(1));
        let _tas = mem.alloc_object(Arc::new(TestAndSet::new()), Value::Bool(false));
        let key1 = mem.state_key();
        mem.write_register(a, Value::Int(2));
        let key2 = mem.state_key();
        assert_ne!(key1, key2);
        assert_eq!(key2[0], Value::Int(2));
        assert_eq!(mem.peek(a), Value::Int(2));
    }

    #[test]
    fn type_confusion_panics() {
        let mut mem = Memory::new();
        let r = mem.alloc_register(Value::Bottom);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mem.read_object(r)));
        assert!(result.is_err());
    }

    #[test]
    fn invalid_initial_state_panics() {
        let mut mem = Memory::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mem.alloc_object(Arc::new(TestAndSet::new()), Value::Int(7))
        }));
        assert!(result.is_err());
    }

    /// A type whose *first* operation accepts any state but whose second
    /// accepts only booleans — the shape that slipped through when
    /// allocation probed only the first operation.
    #[derive(Debug)]
    struct LenientFirstOp;

    impl rc_spec::ObjectType for LenientFirstOp {
        fn name(&self) -> String {
            "lenient-first-op".into()
        }
        fn operations(&self) -> Vec<Operation> {
            vec![Operation::nullary("reset"), Operation::nullary("flip")]
        }
        fn initial_states(&self) -> Vec<Value> {
            vec![Value::Bool(false), Value::Bool(true)]
        }
        fn try_apply(
            &self,
            state: &Value,
            op: &Operation,
        ) -> Result<rc_spec::Transition, rc_spec::SpecError> {
            match op.name.as_str() {
                // `reset` ignores the current state entirely.
                "reset" => Ok(rc_spec::Transition::new(Value::Bool(false), Value::Unit)),
                "flip" => match state {
                    Value::Bool(b) => Ok(rc_spec::Transition::new(Value::Bool(!b), Value::Unit)),
                    _ => Err(rc_spec::SpecError::InvalidState {
                        type_name: self.name(),
                        state: state.clone(),
                    }),
                },
                _ => Err(rc_spec::SpecError::UnknownOperation {
                    type_name: self.name(),
                    op: op.clone(),
                }),
            }
        }
    }

    /// Regression: a `q0` accepted by the first operation but rejected
    /// by a later one must be refused at allocation time (validation now
    /// goes through [`rc_spec::ObjectType::validate_state`], which
    /// checks every operation).
    #[test]
    fn alloc_object_validates_against_all_operations() {
        let mut mem = Memory::new();
        // Valid states still allocate.
        let addr = mem.alloc_object(Arc::new(LenientFirstOp), Value::Bool(false));
        assert_eq!(mem.peek(addr), Value::Bool(false));
        // `reset` (the first op) would accept Int(3); `flip` rejects it.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Memory::new().alloc_object(Arc::new(LenientFirstOp), Value::Int(3))
        }));
        let message = *result
            .expect_err("invalid q0 must be rejected")
            .downcast::<String>()
            .expect("panic payload is a String");
        assert!(
            message.contains("lenient-first-op") && message.contains("3"),
            "panic must name the type and state: {message}"
        );
    }
}
