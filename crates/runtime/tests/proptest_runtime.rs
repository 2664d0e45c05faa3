//! Property tests for the simulation substrate itself.

use proptest::prelude::*;
use rc_runtime::sched::{RandomScheduler, RandomSchedulerConfig, RoundRobin};
use rc_runtime::{
    explore, run, Addr, CrashModel, ExploreConfig, MemOps, Memory, Program, Rebinding, RunOptions,
    Step, SymmetrySpec, ValueInterner,
};
use rc_spec::Value;

/// A little test program: performs `work` register writes, then decides
/// its input.
#[derive(Clone, Debug)]
struct Worker {
    scratch: rc_runtime::Addr,
    input: Value,
    work: u8,
    pc: u8,
}

impl Program for Worker {
    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
        if self.pc < self.work {
            mem.write_register(self.scratch, Value::Int(i64::from(self.pc)));
            self.pc += 1;
            Step::Running
        } else {
            Step::Decided(self.input.clone())
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

/// A rebindable program driving a fixed site list: at pc `i` it writes
/// `Int(i)` to (or reads from) `sites[i]`, then decides. Used by the
/// footprint-equivariance properties.
#[derive(Clone, Debug)]
struct Toucher {
    /// `(cell, is_write)` per step.
    sites: Vec<(Addr, bool)>,
    pc: u8,
}

impl Program for Toucher {
    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
        let Some(&(addr, write)) = self.sites.get(self.pc as usize) else {
            return Step::Decided(Value::Unit);
        };
        if write {
            mem.write_register(addr, Value::Int(i64::from(self.pc)));
        } else {
            let _ = mem.read_register(addr);
        }
        self.pc += 1;
        Step::Running
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
    fn rebind(&mut self, map: &Rebinding) {
        for (a, _) in &mut self.sites {
            *a = map.lookup(*a);
        }
    }
    fn referenced_cells(&self) -> Option<Vec<Addr>> {
        Some(self.sites.iter().map(|&(a, _)| a).collect())
    }
}

/// A small deterministic value zoo covering every `Value` constructor,
/// with enough overlap between nearby seeds to produce collisions.
fn small_value(seed: u64) -> Value {
    match seed % 7 {
        0 => Value::Bottom,
        1 => Value::Unit,
        2 => Value::Bool(seed % 2 == 0),
        3 => Value::Int((seed / 7 % 5) as i64),
        4 => Value::sym(if seed % 2 == 0 { "A" } else { "B" }),
        5 => Value::pair(small_value(seed / 7), Value::Int((seed % 3) as i64)),
        _ => Value::List(vec![small_value(seed / 7)]),
    }
}

/// A system snapshot mid-execution, for key-equivalence tests.
struct Snapshot {
    mem: Memory,
    programs: Vec<Box<dyn Program>>,
    decided: Vec<bool>,
    crashes: usize,
    decided_value: Option<Value>,
}

/// Drives a fresh `system(n, work, ..)` along `actions` seeded random
/// steps/crashes and returns the resulting snapshot.
fn drive(n: usize, work: u8, seed: u64, actions: usize) -> Snapshot {
    use rand::{Rng, SeedableRng};
    let (mut mem, mut programs) = system(n, work, false);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut decided = vec![false; n];
    let mut crashes = 0usize;
    let mut decided_value = None;
    for _ in 0..actions {
        let p = rng.gen_range(0..n);
        if rng.gen_bool(0.25) {
            programs[p].on_crash();
            decided[p] = false;
            crashes += 1;
        } else if !decided[p] {
            if let Step::Decided(v) = programs[p].step(&mut mem) {
                decided[p] = true;
                decided_value.get_or_insert(v);
            }
        }
    }
    Snapshot {
        mem,
        programs,
        decided,
        crashes,
        decided_value,
    }
}

/// Builds the engine's flat interned key from a snapshot: interned
/// memory cells, interned program keys, packed decided bits, crash
/// count, interned decided value.
fn interned_key(s: &Snapshot, interner: &mut ValueInterner) -> Vec<u32> {
    let mut key = Vec::new();
    s.mem.intern_state_key(interner, &mut key);
    for p in &s.programs {
        key.push(interner.intern(&p.state_key()));
    }
    let mut word = 0u32;
    for (i, &d) in s.decided.iter().enumerate() {
        if d {
            word |= 1 << (i % 32);
        }
        if i % 32 == 31 {
            key.push(word);
            word = 0;
        }
    }
    if s.decided.len() % 32 != 0 {
        key.push(word);
    }
    key.push(u32::try_from(s.crashes).expect("small"));
    key.push(match &s.decided_value {
        Some(v) => interner.intern(v),
        None => ValueInterner::NONE,
    });
    key
}

fn system(n: usize, work: u8, same_input: bool) -> (Memory, Vec<Box<dyn Program>>) {
    let mut mem = Memory::new();
    let scratch = mem.alloc_register(Value::Bottom);
    let programs: Vec<Box<dyn Program>> = (0..n)
        .map(|i| {
            Box::new(Worker {
                scratch,
                input: Value::Int(if same_input { 7 } else { i as i64 }),
                work,
                pc: 0,
            }) as Box<dyn Program>
        })
        .collect();
    (mem, programs)
}

/// A spec's canonical permutation for per-process signatures `sigs`,
/// ordered by their `Ord` (the engine orders its signatures the same
/// way, through interned ids); `None` when already canonical.
fn canonical_perm<K: Ord>(spec: &SymmetrySpec, sigs: &[K]) -> Option<Vec<u8>> {
    let mut perm = Vec::new();
    spec.canonical_perm_by(&mut perm, |a, b| sigs[a].cmp(&sigs[b]))
        .then_some(perm)
}

/// Applies a spec's canonical permutation to a signature vector — the
/// canonical form the engine's state keys inherit.
fn canonical_sigs<K: Ord + Clone>(spec: &SymmetrySpec, sigs: &[K]) -> Vec<K> {
    match canonical_perm(spec, sigs) {
        None => sigs.to_vec(),
        Some(perm) => perm.iter().map(|&s| sigs[s as usize].clone()).collect(),
    }
}

/// Enumerates every orbit permutation of `sigs` (brute force, for
/// checking `orbit_weight_with` against ground truth): recursively swaps
/// position `at` with every later same-label position.
fn permute_within_orbits(
    labels: &[u8],
    sigs: &mut Vec<u8>,
    at: usize,
    out: &mut std::collections::BTreeSet<Vec<u8>>,
) {
    if at == sigs.len() {
        out.insert(sigs.clone());
        return;
    }
    permute_within_orbits(labels, sigs, at + 1, out);
    for j in at + 1..sigs.len() {
        if labels[j] == labels[at] {
            sigs.swap(at, j);
            permute_within_orbits(labels, sigs, at + 1, out);
            sigs.swap(at, j);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The random scheduler is fully deterministic in its seed: identical
    /// traces, step counts and outputs.
    #[test]
    fn random_scheduler_is_deterministic(
        seed in any::<u64>(),
        n in 1usize..5,
        work in 0u8..5,
    ) {
        let config = RandomSchedulerConfig {
            seed,
            crash_prob: 0.2,
            crash: CrashModel::independent(3).after_decide(true),
        };
        let run_once = || {
            let (mut mem, mut programs) = system(n, work, false);
            let mut sched = RandomScheduler::new(config);
            run(&mut mem, &mut programs, &mut sched, RunOptions::default())
        };
        let a = run_once();
        let b = run_once();
        prop_assert_eq!(a.trace, b.trace);
        prop_assert_eq!(a.outputs, b.outputs);
        prop_assert_eq!(a.steps, b.steps);
        prop_assert_eq!(a.crashes, b.crashes);
    }

    /// Every decision in the trace appears in the outputs and vice versa.
    #[test]
    fn trace_decisions_match_outputs(
        seed in any::<u64>(),
        n in 1usize..5,
        work in 0u8..4,
    ) {
        let (mut mem, mut programs) = system(n, work, false);
        let mut sched = RandomScheduler::new(RandomSchedulerConfig {
            seed,
            crash_prob: 0.15,
            crash: CrashModel::independent(2).after_decide(true),
        });
        let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
        let mut from_trace: Vec<Vec<Value>> = vec![Vec::new(); n];
        for (pid, v) in exec.trace.decisions() {
            from_trace[pid].push(v);
        }
        prop_assert_eq!(from_trace, exec.outputs);
    }

    /// Crash-free round-robin executes exactly (work + 1) steps per
    /// process.
    #[test]
    fn round_robin_step_count(n in 1usize..6, work in 0u8..6) {
        let (mut mem, mut programs) = system(n, work, true);
        let exec = run(
            &mut mem,
            &mut programs,
            &mut RoundRobin::new(),
            RunOptions::default(),
        );
        prop_assert!(exec.all_decided);
        prop_assert_eq!(exec.steps, n * (usize::from(work) + 1));
        prop_assert_eq!(exec.crashes, 0);
    }

    /// The model checker verifies agreeing systems and refutes
    /// disagreeing ones, for every crash budget.
    #[test]
    fn explorer_verdicts(
        work in 0u8..3,
        budget in 0usize..3,
        same_input in any::<bool>(),
    ) {
        let outcome = explore(
            &|| system(2, work, same_input),
            &ExploreConfig {
                crash: CrashModel::independent(budget),
                inputs: None,
                ..ExploreConfig::default()
            },
        );
        if same_input {
            prop_assert!(outcome.is_verified(), "{outcome:?}");
        } else {
            prop_assert!(outcome.is_violation(), "{outcome:?}");
        }
    }

    /// The interner is injective: ids collide exactly when the values
    /// are structurally equal — the property that makes interned state
    /// keys as collision-free as the seed engine's structural tuples.
    #[test]
    fn interner_ids_collide_iff_values_equal(
        seeds in proptest::collection::vec(0u64..2_000, 2..24),
    ) {
        let values: Vec<Value> = seeds.iter().map(|&s| small_value(s)).collect();
        let mut interner = ValueInterner::new();
        let ids: Vec<u32> = values.iter().map(|v| interner.intern(v)).collect();
        for i in 0..values.len() {
            for j in 0..values.len() {
                prop_assert_eq!(values[i] == values[j], ids[i] == ids[j]);
            }
        }
    }

    /// Interned state keys collide exactly when the seed engine's
    /// structural `StateKey` tuples are equal: two system snapshots,
    /// driven along independent random schedules, have equal interned
    /// keys iff their structural tuples are equal.
    #[test]
    fn interned_state_keys_match_structural_equality(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        n in 1usize..4,
        work in 1u8..4,
        actions_a in 0usize..14,
        actions_b in 0usize..14,
    ) {
        let a = drive(n, work, seed_a, actions_a);
        let b = drive(n, work, seed_b, actions_b);
        let structural = |s: &Snapshot| {
            (
                s.mem.state_key(),
                s.programs.iter().map(|p| p.state_key()).collect::<Vec<_>>(),
                s.decided.clone(),
                s.crashes,
                s.decided_value.clone(),
            )
        };
        // One shared interner, exactly like one engine run.
        let mut interner = ValueInterner::new();
        let key_a = interned_key(&a, &mut interner);
        let key_b = interned_key(&b, &mut interner);
        prop_assert_eq!(structural(&a) == structural(&b), key_a == key_b);
    }

    /// Process-symmetry canonicalization is **invariant** under every
    /// orbit permutation: permuting a state's per-process signatures
    /// within orbits never changes the canonical form. This is the
    /// soundness half of the reduction — every member of a permutation
    /// class maps to the same stored representative.
    #[test]
    fn canonical_form_is_invariant_under_orbit_permutations(
        labels in proptest::collection::vec(0u8..3, 1..7),
        sigs_seed in proptest::collection::vec(0u8..4, 7..8),
        shuffle_seed in any::<u64>(),
    ) {
        let n = labels.len();
        let spec = SymmetrySpec::from_classes(&labels);
        let sigs: Vec<u8> = (0..n).map(|i| sigs_seed[i % sigs_seed.len()]).collect();
        // A random permutation respecting the orbits (Fisher–Yates over
        // each label's positions; the vendored rand stub has no `seq`).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        let mut perm: Vec<usize> = (0..n).collect();
        for label in 0u8..3 {
            let members: Vec<usize> =
                (0..n).filter(|&i| labels[i] == label).collect();
            let mut shuffled = members.clone();
            for i in (1..shuffled.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                shuffled.swap(i, j);
            }
            for (&dst, &src) in members.iter().zip(&shuffled) {
                perm[dst] = src;
            }
        }
        let permuted: Vec<u8> = (0..n).map(|i| sigs[perm[i]]).collect();
        // Orbit-permuted states must share a canonical form.
        prop_assert_eq!(canonical_sigs(&spec, &sigs), canonical_sigs(&spec, &permuted));
    }

    /// Canonicalization is **injective on orbits**: two signature
    /// vectors share a canonical form iff they are orbit permutations of
    /// each other (equal per-orbit multisets). This is the no-false-merge
    /// half — states from different permutation classes never collide.
    #[test]
    fn canonical_form_is_injective_across_orbits(
        labels in proptest::collection::vec(0u8..3, 1..7),
        a_seed in proptest::collection::vec(0u8..4, 7..8),
        b_seed in proptest::collection::vec(0u8..4, 7..8),
    ) {
        let n = labels.len();
        let spec = SymmetrySpec::from_classes(&labels);
        let a: Vec<u8> = (0..n).map(|i| a_seed[i % a_seed.len()]).collect();
        let b: Vec<u8> = (0..n).map(|i| b_seed[i % b_seed.len()]).collect();
        let related = (0u8..3).all(|label| {
            let mut ma: Vec<u8> =
                (0..n).filter(|&i| labels[i] == label).map(|i| a[i]).collect();
            let mut mb: Vec<u8> =
                (0..n).filter(|&i| labels[i] == label).map(|i| b[i]).collect();
            ma.sort_unstable();
            mb.sort_unstable();
            ma == mb
        });
        // Canonical keys collide exactly on orbit-permutation classes.
        prop_assert_eq!(canonical_sigs(&spec, &a) == canonical_sigs(&spec, &b), related);
    }

    /// The orbit weight equals the true permutation-class size: the
    /// number of *distinct* signature vectors reachable by orbit
    /// permutations, counted by brute force.
    #[test]
    fn orbit_weight_counts_the_permutation_class(
        labels in proptest::collection::vec(0u8..3, 1..6),
        sigs_seed in proptest::collection::vec(0u8..3, 6..7),
    ) {
        let n = labels.len();
        let spec = SymmetrySpec::from_classes(&labels);
        let sigs: Vec<u8> = (0..n).map(|i| sigs_seed[i % sigs_seed.len()]).collect();
        let weight = spec.orbit_weight_with(|p| sigs[p]);
        let mut class: std::collections::BTreeSet<Vec<u8>> = std::collections::BTreeSet::new();
        permute_within_orbits(&labels, &mut sigs.clone(), 0, &mut class);
        prop_assert_eq!(weight, class.len() as u64);
    }

    /// Full-state canonicalization — signatures enriched with owned-cell
    /// values, as the engine builds them for owned-cell orbits — is
    /// invariant under orbit permutations that move program payloads and
    /// owned contents *together* (exactly what the engine's canonicalization
    /// does). The slots-only invariance test above is the owned = ∅
    /// special case.
    #[test]
    fn owned_cell_canonical_form_is_invariant_under_orbit_permutations(
        labels in proptest::collection::vec(0u8..3, 1..7),
        sigs_seed in proptest::collection::vec(0u8..3, 7..8),
        owned_seed in proptest::collection::vec(0u8..3, 7..8),
        shuffle_seed in any::<u64>(),
    ) {
        let n = labels.len();
        let spec = SymmetrySpec::from_classes(&labels);
        let sigs: Vec<(u8, u8)> = (0..n)
            .map(|i| (sigs_seed[i % sigs_seed.len()], owned_seed[i % owned_seed.len()]))
            .collect();
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        let mut perm: Vec<usize> = (0..n).collect();
        for label in 0u8..3 {
            let members: Vec<usize> = (0..n).filter(|&i| labels[i] == label).collect();
            let mut shuffled = members.clone();
            for i in (1..shuffled.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                shuffled.swap(i, j);
            }
            for (&dst, &src) in members.iter().zip(&shuffled) {
                perm[dst] = src;
            }
        }
        // Program payload and owned-cell content travel together.
        let permuted: Vec<(u8, u8)> = (0..n).map(|i| sigs[perm[i]]).collect();
        prop_assert_eq!(canonical_sigs(&spec, &sigs), canonical_sigs(&spec, &permuted));
    }

    /// On systems without owned cells the engine's enriched signature
    /// degenerates to the slots-only one: the canonical permutation
    /// computed from `(sig, ∅)` tuples equals the one computed from bare
    /// sigs, for every spec and signature vector (brute-force agreement
    /// at small n).
    #[test]
    fn empty_owned_signatures_agree_with_slots_only_canonicalization(
        labels in proptest::collection::vec(0u8..3, 1..7),
        sigs_seed in proptest::collection::vec(0u8..4, 7..8),
    ) {
        let n = labels.len();
        let spec = SymmetrySpec::from_classes(&labels);
        let sigs: Vec<u8> = (0..n).map(|i| sigs_seed[i % sigs_seed.len()]).collect();
        let enriched: Vec<(u8, Vec<u8>)> = sigs.iter().map(|&s| (s, Vec::new())).collect();
        prop_assert_eq!(canonical_perm(&spec, &sigs), canonical_perm(&spec, &enriched));
    }

    /// `rebind ∘ rebind⁻¹` is the identity on programs: remapping a
    /// program's addresses by a random cell bijection and then by its
    /// inverse restores the original reference list, whatever subset of
    /// cells the program holds.
    #[test]
    fn rebind_roundtrips_through_the_inverse_map(
        cells in 2usize..8,
        picks in proptest::collection::vec(any::<u16>(), 1..6),
        shuffle_seed in any::<u64>(),
    ) {
        /// Holds an arbitrary list of addresses and rebinds them all.
        #[derive(Clone, Debug)]
        struct AddrHolder(Vec<Addr>);
        impl Program for AddrHolder {
            fn step(&mut self, _: &mut dyn MemOps) -> Step {
                Step::Decided(Value::Unit)
            }
            fn on_crash(&mut self) {}
            fn state_key(&self) -> Value {
                Value::Unit
            }
            fn boxed_clone(&self) -> Box<dyn Program> {
                Box::new(self.clone())
            }
            fn rebind(&mut self, map: &Rebinding) {
                for a in &mut self.0 {
                    *a = map.lookup(*a);
                }
            }
            fn referenced_cells(&self) -> Option<Vec<Addr>> {
                Some(self.0.clone())
            }
        }
        let mut mem = Memory::new();
        let addrs: Vec<Addr> = (0..cells).map(|_| mem.alloc_register(Value::Bottom)).collect();
        // A random bijection over the cells (Fisher–Yates).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        let mut target: Vec<usize> = (0..cells).collect();
        for i in (1..cells).rev() {
            let j = rng.gen_range(0..i + 1);
            target.swap(i, j);
        }
        let mut map = Rebinding::identity(cells);
        for (from, &to) in target.iter().enumerate() {
            map.map(addrs[from], addrs[to]);
        }
        let original: Vec<Addr> = picks
            .iter()
            .map(|&p| addrs[p as usize % cells])
            .collect();
        let mut program = AddrHolder(original.clone());
        program.rebind(&map);
        program.rebind(&map.inverse());
        prop_assert_eq!(program.referenced_cells(), Some(original));
        // State keys never change under rebinding (the documented
        // contract: addresses are identity, not volatile state).
        prop_assert_eq!(program.state_key(), Value::Unit);
    }

    /// The analyzed footprint is *equivariant* under address rebinding:
    /// permuting the memory cells by a random bijection and rebinding
    /// every program through it yields exactly the original footprint
    /// with every address mapped — the analysis sees addresses as pure
    /// identity, so a relocation cannot grow, shrink or re-mode any
    /// process's cell set. (The full-state symmetry reduction and the
    /// linter both depend on this: a footprint computed once is valid
    /// for every rebound copy of the program.)
    #[test]
    fn analyzed_footprints_are_equivariant_under_rebinding(
        cells in 2usize..6,
        site_seeds in proptest::collection::vec(any::<u16>(), 1..5),
        n in 1usize..4,
        shuffle_seed in any::<u64>(),
    ) {
        // Registers allocate densely from 0, so both memories share one
        // address list; cell j of the permuted memory holds the initial
        // value of the original cell perm⁻¹(j), so contents travel with
        // the addresses the rebinding redirects.
        let build = |perm: &[usize]| -> (Memory, Vec<Addr>, Rebinding) {
            let mut mem = Memory::new();
            let mut values = vec![0i64; cells];
            for (orig, &img) in perm.iter().enumerate() {
                values[img] = orig as i64;
            }
            let addrs: Vec<Addr> =
                values.iter().map(|&v| mem.alloc_register(Value::Int(v))).collect();
            let mut map = Rebinding::identity(cells);
            for (orig, &img) in perm.iter().enumerate() {
                map.map(addrs[orig], addrs[img]);
            }
            (mem, addrs, map)
        };
        let programs = |map: &Rebinding, addrs: &[Addr]| -> Vec<Box<dyn Program>> {
            (0..n)
                .map(|p| {
                    let mut prog: Box<dyn Program> = Box::new(Toucher {
                        sites: site_seeds
                            .iter()
                            .enumerate()
                            .map(|(i, &pick)| {
                                // Low bit picks the mode, the rest the cell.
                                (addrs[((pick >> 1) as usize + p * i) % cells], pick & 1 == 0)
                            })
                            .collect(),
                        pc: 0,
                    });
                    prog.rebind(map);
                    prog
                })
                .collect()
        };
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        let mut perm: Vec<usize> = (0..cells).collect();
        for i in (1..cells).rev() {
            let j = rng.gen_range(0..i + 1);
            perm.swap(i, j);
        }
        let identity: Vec<usize> = (0..cells).collect();
        let (mem, addrs, id_map) = build(&identity);
        let (mem2, _, map) = build(&perm);
        let budget = rc_runtime::AnalysisBudget::default();
        let original = rc_runtime::analyze_system(&mem, &programs(&id_map, &addrs), true, budget)
            .expect("bounded system");
        let rebound = rc_runtime::analyze_system(&mem2, &programs(&map, &addrs), true, budget)
            .expect("bounded system");
        for p in 0..n {
            let mapped: std::collections::BTreeMap<Addr, _> = original.per_process[p]
                .cells
                .iter()
                .map(|(&a, &m)| (map.lookup(a), m))
                .collect();
            prop_assert_eq!(&mapped, &rebound.per_process[p].cells);
            // Rebinding must not change the local-state graph.
            prop_assert_eq!(
                original.per_process[p].local_states,
                rebound.per_process[p].local_states
            );
        }
    }

    /// The analyzed footprint is equivariant under orbit permutations:
    /// relocating interchangeable processes (program slot + owned
    /// register moving together, as the full-state symmetry reduction
    /// does) permutes the per-process footprints and remaps their owned
    /// addresses — nothing else changes.
    #[test]
    fn analyzed_footprints_are_invariant_under_orbit_permutations(
        n in 2usize..5,
        work in 1u8..4,
        shuffle_seed in any::<u64>(),
    ) {
        // One shared register everyone reads + one owned register each.
        let build = |order: &[usize]| -> (Memory, Vec<Box<dyn Program>>) {
            let mut mem = Memory::new();
            let shared = mem.alloc_register(Value::Bottom);
            let own: Vec<Addr> = (0..n).map(|_| mem.alloc_register(Value::Bottom)).collect();
            let programs: Vec<Box<dyn Program>> = order
                .iter()
                .enumerate()
                .map(|(slot, &src)| {
                    // The program of original process `src`, relocated to
                    // `slot`: its owned register is slot's, exactly as
                    // Program::rebind would leave it.
                    let _ = src;
                    Box::new(Toucher {
                        sites: (0..work)
                            .map(|w| {
                                if w % 2 == 0 {
                                    (own[slot], true)
                                } else {
                                    (shared, false)
                                }
                            })
                            .collect(),
                        pc: 0,
                    }) as Box<dyn Program>
                })
                .collect();
            (mem, programs)
        };
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(shuffle_seed);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..i + 1);
            order.swap(i, j);
        }
        let identity: Vec<usize> = (0..n).collect();
        let (mem, programs) = build(&identity);
        let (mem2, permuted) = build(&order);
        let budget = rc_runtime::AnalysisBudget::default();
        let original =
            rc_runtime::analyze_system(&mem, &programs, true, budget).expect("bounded");
        let moved =
            rc_runtime::analyze_system(&mem2, &permuted, true, budget).expect("bounded");
        // Orbit members are interchangeable, so the footprint at slot i
        // equals original slot i's with the owned register relabelled —
        // which, for this fixture, is slot i's own register either way.
        for p in 0..n {
            prop_assert_eq!(
                &original.per_process[p].cells,
                &moved.per_process[p].cells
            );
        }
        prop_assert_eq!(original.probes, moved.probes);
    }

    /// Statically independent processes really commute: from a random
    /// reachable mid-execution state, executing `p` then `q` and `q`
    /// then `p` yields identical memory contents, local states and
    /// decisions — the semantic fact POR's pruning rests on, here
    /// checked on random systems and random states rather than at the
    /// engine's sampled nodes.
    #[test]
    fn statically_independent_steps_commute_on_random_states(
        cells in 2usize..5,
        site_seeds in proptest::collection::vec(any::<u16>(), 1..5),
        n in 2usize..4,
        schedule in proptest::collection::vec(any::<u16>(), 0..10),
    ) {
        let mut mem = Memory::new();
        let addrs: Vec<Addr> =
            (0..cells).map(|_| mem.alloc_register(Value::Bottom)).collect();
        let mut programs: Vec<Box<dyn Program>> = (0..n)
            .map(|p| {
                Box::new(Toucher {
                    sites: site_seeds
                        .iter()
                        .enumerate()
                        .map(|(i, &pick)| {
                            (
                                addrs[((pick >> 1) as usize + p * (i + 1)) % cells],
                                pick & 1 == 0,
                            )
                        })
                        .collect(),
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        let fp = rc_runtime::analyze_system(
            &mem,
            &programs,
            true,
            rc_runtime::AnalysisBudget::default(),
        )
        .expect("bounded system");
        // Steps of `p` and `q` are statically independent when neither
        // one's writes touch a cell the other accesses.
        let independent = |p: usize, q: usize| {
            let (a, b) = (&fp.per_process[p], &fp.per_process[q]);
            let misses = |writes: Vec<Addr>, accessed: Vec<Addr>| {
                writes.iter().all(|cell| !accessed.contains(cell))
            };
            misses(a.mutated(), b.accessed()) && misses(b.mutated(), a.accessed())
        };
        // Drive to a random reachable state (steps only; crashes reset
        // local state, which only makes the reached states *more*
        // ordinary).
        let mut decided = vec![false; n];
        for &s in &schedule {
            let p = s as usize % n;
            if !decided[p] {
                if let Step::Decided(_) = programs[p].step(&mut mem) {
                    decided[p] = true;
                }
            }
        }
        let run_order = |first: usize, second: usize| {
            let mut m = mem.clone();
            let mut progs: Vec<Box<dyn Program>> =
                programs.iter().map(|p| p.boxed_clone()).collect();
            let mut decisions: Vec<(usize, Value)> = Vec::new();
            for &p in &[first, second] {
                if let Step::Decided(v) = progs[p].step(&mut m) {
                    decisions.push((p, v));
                }
            }
            decisions.sort_by_key(|&(p, _)| p);
            (
                m.state_key(),
                progs.iter().map(|pr| pr.state_key()).collect::<Vec<_>>(),
                decisions,
            )
        };
        for p in 0..n {
            for q in p + 1..n {
                if !independent(p, q) || decided[p] || decided[q] {
                    continue;
                }
                // An independent pair must commute in both orders.
                prop_assert_eq!(run_order(p, q), run_order(q, p));
            }
        }
    }

    /// Memory state keys change exactly when contents change.
    #[test]
    fn state_key_tracks_contents(values in proptest::collection::vec(0i64..50, 1..8)) {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        let mut last = mem.state_key();
        for v in values {
            let before = mem.read_register(addr);
            mem.write_register(addr, Value::Int(v));
            let now = mem.state_key();
            if before == Value::Int(v) {
                prop_assert_eq!(&now, &last);
            } else {
                prop_assert_ne!(&now, &last);
            }
            last = now;
        }
    }
}

// The storage properties: the bit-packed key form is exact (lossless
// and injective) and the visited-set table answers like a flat map —
// the foundations the checker's exactness argument rests on (see
// DESIGN §3).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `unpack ∘ pack` is the identity against the flat `Vec<u32>`
    /// reference, and packing is injective (varints form a prefix code,
    /// so distinct keys — even of different lengths — pack to distinct
    /// bytes).
    #[test]
    fn packed_keys_round_trip_against_the_flat_reference(
        a in proptest::collection::vec(any::<u32>(), 0..24),
        b in proptest::collection::vec(any::<u32>(), 0..24),
    ) {
        let packed = rc_runtime::pack_key(&a);
        prop_assert_eq!(rc_runtime::unpack_key(&packed), a.clone());
        prop_assert_eq!(a == b, packed == rc_runtime::pack_key(&b));
    }

    /// The packed table is observationally identical to a flat map:
    /// same `(id, was_new)` on every insert (ids in insertion order),
    /// same lookups.
    #[test]
    fn packed_table_matches_the_flat_reference(
        keys in proptest::collection::vec(
            proptest::collection::vec(0u32..200, 1..8), 1..120),
    ) {
        let mut table = rc_runtime::PackedStateTable::new();
        let mut reference: std::collections::HashMap<Vec<u32>, u32> =
            std::collections::HashMap::new();
        for key in &keys {
            let expect_id = match reference.get(key) {
                Some(&id) => (id, false),
                None => {
                    let id = u32::try_from(reference.len()).unwrap();
                    reference.insert(key.clone(), id);
                    (id, true)
                }
            };
            prop_assert_eq!(table.insert(key), expect_id);
        }
        for key in &keys {
            prop_assert_eq!(table.get(key), reference.get(key).copied());
        }
        prop_assert_eq!(table.len(), reference.len());
    }

    /// Named for the Bloom screen of the deleted disk tier; the one
    /// table keeps its contract exactly. Filled forward or reversed, it
    /// finds every inserted key, misses every probe it was not given,
    /// and holds the same count and byte account: a pure function of
    /// the key set.
    #[test]
    fn key_filter_is_exact_and_order_independent(
        keys in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 1..8), 1..80),
        probes in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 1..8), 0..20),
    ) {
        let mut forward = rc_runtime::PackedStateTable::new();
        for key in &keys {
            forward.insert(key);
        }
        let mut reversed = rc_runtime::PackedStateTable::new();
        for key in keys.iter().rev() {
            reversed.insert(key);
        }
        for key in &keys {
            prop_assert!(forward.get(key).is_some() && reversed.get(key).is_some());
        }
        for probe in probes.iter().filter(|probe| !keys.contains(probe)) {
            prop_assert_eq!((forward.get(probe), reversed.get(probe)), (None, None));
        }
        prop_assert_eq!(forward.len(), reversed.len());
        prop_assert_eq!(forward.resident_bytes(), reversed.resident_bytes());
    }
}

/// An order-insensitive set scan over a scalarset family (the shape of
/// the Fig. 4 remodel): after announcing itself in its own family
/// member, any unread position may be read next; the fold sums the
/// observed values and decides the sum once every position is read.
#[derive(Clone, Debug)]
struct MaskScan {
    family: Vec<Addr>,
    own: Addr,
    mask: u64,
    sum: i64,
    wrote: bool,
}

impl MaskScan {
    fn full(&self) -> u64 {
        (1u64 << self.family.len()) - 1
    }
}

impl Program for MaskScan {
    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
        let first = self.choices()[0];
        self.step_choice(mem, first)
    }
    fn choices(&self) -> Vec<usize> {
        if !self.wrote {
            return vec![0];
        }
        let open: Vec<usize> = (0..self.family.len())
            .filter(|k| self.mask & (1 << k) == 0)
            .collect();
        if open.is_empty() {
            vec![0]
        } else {
            open
        }
    }
    fn step_choice(&mut self, mem: &mut dyn MemOps, choice: usize) -> Step {
        if !self.wrote {
            mem.write_register(self.own, Value::Int(1));
            self.wrote = true;
            return Step::Running;
        }
        if self.mask == self.full() {
            return Step::Decided(Value::Int(self.sum));
        }
        if let Value::Int(x) = mem.read_register(self.family[choice]) {
            self.sum += x;
        }
        self.mask |= 1 << choice;
        if self.mask == self.full() {
            Step::Decided(Value::Int(self.sum))
        } else {
            Step::Running
        }
    }
    fn scalarset_pinned(&self) -> bool {
        self.wrote && self.mask != 0 && self.mask != self.full()
    }
    fn on_crash(&mut self) {
        self.mask = 0;
        self.sum = 0;
        self.wrote = false;
    }
    fn state_key(&self) -> Value {
        Value::pair(
            Value::Int(self.mask as i64),
            Value::pair(Value::Int(self.sum), Value::Int(i64::from(self.wrote))),
        )
    }
    fn boxed_clone(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn rebind(&mut self, map: &Rebinding) {
        self.own = map.lookup(self.own);
    }
    fn referenced_cells(&self) -> Option<Vec<Addr>> {
        let mut cells = self.family.clone();
        cells.push(self.own);
        Some(cells)
    }
}

/// Builds an `n`-process mask-scan system with the process-to-member
/// assignment relabeled by `perm`: process `p`'s family member (and
/// slot-`p` entry of the declared family) is the `perm[p]`-th allocated
/// register. The identity permutation gives the canonical layout; any
/// other `perm` gives an isomorphic relabeling of the same system.
fn mask_scan_system(
    n: usize,
    init: i64,
    perm: &[usize],
) -> (Memory, Vec<Box<dyn Program>>, SymmetrySpec) {
    let mut mem = Memory::new();
    let registers: Vec<Addr> = (0..n)
        .map(|_| mem.alloc_register(Value::Int(init)))
        .collect();
    let family: Vec<Addr> = perm.iter().map(|&k| registers[k]).collect();
    let programs: Vec<Box<dyn Program>> = (0..n)
        .map(|pid| {
            Box::new(MaskScan {
                family: family.clone(),
                own: family[pid],
                mask: 0,
                sum: 0,
                wrote: false,
            }) as Box<dyn Program>
        })
        .collect();
    let spec = SymmetrySpec::full(n).with_scalarset(family);
    (mem, programs, spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The scalarset certifier is deterministic: two runs over the same
    /// system produce identical reports, counter for counter and
    /// message for message — the `tables lint` CI verdict cannot flap.
    #[test]
    fn scalarset_certifier_is_deterministic(n in 2usize..5, init in 0i64..3) {
        let identity: Vec<usize> = (0..n).collect();
        let (mem, programs, spec) = mask_scan_system(n, init, &identity);
        let a = rc_runtime::lint_scalarset(
            &mem, &programs, &spec, rc_runtime::AnalysisBudget::default());
        let b = rc_runtime::lint_scalarset(
            &mem, &programs, &spec, rc_runtime::AnalysisBudget::default());
        prop_assert!(a.is_certified(), "errors: {:?}", a.errors);
        prop_assert_eq!(a.errors, b.errors);
        prop_assert_eq!(a.warnings, b.warnings);
        prop_assert_eq!(a.families, b.families);
        prop_assert_eq!(a.transpositions, b.transpositions);
        prop_assert_eq!(a.graph_matches, b.graph_matches);
        prop_assert_eq!(a.exchange_states, b.exchange_states);
        prop_assert_eq!(a.spot_reexecutions, b.spot_reexecutions);
    }

    /// The certificate is equivariant under orbit permutations: a
    /// relabeled system — processes and their family members permuted
    /// together — certifies with identical counters. The verdict
    /// depends on the set structure of the scan, not on which slot
    /// holds which member.
    #[test]
    fn scalarset_certificate_is_equivariant_under_orbit_permutations(
        n in 2usize..5,
        init in 0i64..3,
        swaps in proptest::collection::vec(any::<u64>(), 0..5),
    ) {
        let identity: Vec<usize> = (0..n).collect();
        let mut perm = identity.clone();
        for &s in &swaps {
            perm.swap((s as usize) % n, ((s >> 16) as usize) % n);
        }
        let (mem, programs, spec) = mask_scan_system(n, init, &identity);
        let (pmem, pprograms, pspec) = mask_scan_system(n, init, &perm);
        let a = rc_runtime::lint_scalarset(
            &mem, &programs, &spec, rc_runtime::AnalysisBudget::default());
        let b = rc_runtime::lint_scalarset(
            &pmem, &pprograms, &pspec, rc_runtime::AnalysisBudget::default());
        prop_assert!(a.is_certified(), "errors: {:?}", a.errors);
        prop_assert!(b.is_certified(), "errors: {:?}", b.errors);
        prop_assert_eq!(a.families, b.families);
        prop_assert_eq!(a.transpositions, b.transpositions);
        prop_assert_eq!(a.graph_matches, b.graph_matches);
        prop_assert_eq!(a.exchange_states, b.exchange_states);
        prop_assert_eq!(a.warnings.len(), b.warnings.len());
    }
}
