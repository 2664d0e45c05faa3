//! The model-checker engine, end to end on the real Fig. 2 and Fig. 4
//! systems: exact `max_states` truncation boundaries, outcomes, cut
//! points and byte accounts that repeat byte for byte, the unified
//! [`CrashModel`] semantics, the reductions (process symmetry, full-state
//! rebind, certified scalarsets, partial-order reduction: identical
//! verdicts and weighted leaf counts on vs off, replayable un-permuted
//! witnesses), and regressions for the crash-adversary bugs the engine
//! rebuilds fixed (post-decide `CrashAll` handling and the state-cap
//! off-by-one). `tests/explore_oracle.rs` checks the engine's state and
//! leaf counts against an independent naive search.

use rc_core::algorithms::{
    build_broken_team_rc_system, build_masked_broken_team_rc_system,
    build_masked_broken_team_rc_system_sym, build_masked_team_rc_system,
    build_masked_team_rc_system_sym, build_simultaneous_rc_system,
    build_simultaneous_rc_system_sym, build_team_rc_system, build_team_rc_system_sym,
    ConsensusObjectFactory,
};
use rc_core::{check_recording, Assignment, RecordingWitness, Team};
use rc_runtime::sched::{
    Action, RandomScheduler, RandomSchedulerConfig, SchedContext, Scheduler, ScriptedScheduler,
};
use rc_runtime::verify::check_consensus_execution;
use rc_runtime::{
    explore_symmetric_with_stats, explore_with_stats, run, CrashModel, ExploreConfig,
    ExploreOutcome, ExploreStats, MemOps, Memory, Program, RunOptions, Step,
    SymmetricSystemFactory, SystemFactory,
};
use rc_spec::types::Sn;
use rc_spec::{TypeHandle, Value};
use std::sync::Arc;

/// A symmetry mode of the reduction tests: plain search, slots-only
/// orbits, or full-state rebind (owned mask registers permuting with
/// their owners on the input-masked systems).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SymMode {
    Off,
    Slots,
    Rebind,
}

/// Checks the edge counters of a finished search: a `Verified` search
/// took one edge into each state but the root, plus one edge per
/// duplicate.
fn checked_edges(
    (outcome, stats): (ExploreOutcome, ExploreStats),
) -> (ExploreOutcome, ExploreStats) {
    if let ExploreOutcome::Verified { states, .. } = outcome {
        assert_eq!(
            stats.edges,
            states - 1 + stats.duplicates,
            "edges must be new states past the root plus duplicates: {stats:?}"
        );
    }
    (outcome, stats)
}

/// [`rc_runtime::explore`], with the edge counters checked.
fn explore(factory: &SystemFactory<'_>, config: &ExploreConfig) -> ExploreOutcome {
    checked_edges(explore_with_stats(factory, config)).0
}

/// [`rc_runtime::explore_symmetric`], with the edge counters checked.
fn explore_symmetric(
    factory: &SymmetricSystemFactory<'_>,
    config: &ExploreConfig,
) -> ExploreOutcome {
    checked_edges(explore_symmetric_with_stats(factory, config)).0
}

/// `base` with the sleep-set POR engine switched on. The `analysis_id`
/// shares one cached footprint analysis per *system* across every
/// budget/mode combination a test runs (the analysis only depends on
/// the built system, never on the crash model), so the POR runs do not
/// recompute the fixpoint per config.
fn por_config(base: &ExploreConfig, analysis_id: String) -> ExploreConfig {
    ExploreConfig {
        por: true,
        analysis_id: Some(analysis_id),
        ..base.clone()
    }
}

fn sn_system(n: usize) -> (TypeHandle, RecordingWitness, Vec<Value>) {
    let sn = Sn::new(n);
    let a = Assignment::split(Sn::q0(), vec![Sn::op_a()], vec![Sn::op_b(); n - 1]);
    let w = check_recording(&sn, &a).expect("S_n witness");
    let inputs: Vec<Value> = w
        .assignment
        .teams
        .iter()
        .map(|t| match t {
            Team::A => Value::Int(0),
            Team::B => Value::Int(1),
        })
        .collect();
    (Arc::new(sn), w, inputs)
}

/// Every reduction mode agrees on the E2 systems: the plain search,
/// slots-only symmetry and full-rebind symmetry (the latter on the
/// input-masked variant of the same systems), each with POR off and
/// on, all verify with the weighted leaf count of the unreduced search
/// of the same system.
#[test]
fn engines_agree_on_e2_systems() {
    let verified = |outcome: &ExploreOutcome, what: &str| match outcome {
        ExploreOutcome::Verified { states, leaves } => (*states, *leaves),
        other => panic!("{what} must verify: {other:?}"),
    };
    for n in [2usize, 3] {
        let (ty, w, inputs) = sn_system(n);
        let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
        let sym_factory = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
        let masked_factory = || build_masked_team_rc_system(ty.clone(), &w, &inputs);
        let masked_sym_factory = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
        for budget in [0usize, 1, 2] {
            let config = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            for mode in [SymMode::Off, SymMode::Slots, SymMode::Rebind] {
                // The masked S_3/budget-2 instance is an order of
                // magnitude bigger; the full-rebind mode covers it at
                // budgets 0–1 (E13 measures the larger instances in
                // release mode).
                if mode == SymMode::Rebind && n >= 3 && budget >= 2 {
                    continue;
                }
                let what = format!("S_{n} budget {budget} mode {mode:?}");
                let (_, reference) = match mode {
                    SymMode::Rebind => verified(&explore(&masked_factory, &config), &what),
                    _ => verified(&explore(&factory, &config), &what),
                };
                for por in [false, true] {
                    let config = if por {
                        // The plain and slots-sym builders produce the
                        // same memory/program shape, so they share one
                        // analysis; the masked builders differ (extra
                        // mask registers) and get their own.
                        por_config(
                            &config,
                            match mode {
                                SymMode::Rebind => format!("test/masked-S_{n}"),
                                _ => format!("test/S_{n}"),
                            },
                        )
                    } else {
                        config.clone()
                    };
                    let outcome = match mode {
                        SymMode::Off => explore(&factory, &config),
                        SymMode::Slots => explore_symmetric(&sym_factory, &config),
                        SymMode::Rebind => explore_symmetric(&masked_sym_factory, &config),
                    };
                    let (_, leaves) = verified(&outcome, &format!("{what} por {por}"));
                    assert_eq!(
                        leaves, reference,
                        "{what} por {por}: weighted leaves must match the \
                         unreduced search"
                    );
                }
            }
        }
    }
}

/// Symmetry on vs off on every E2 config: identical verdicts, identical
/// (weighted) leaf counts, and never more states — strictly fewer
/// whenever the witness has an orbit to merge (`n ≥ 3`; the `S_2`
/// witness is one process per team, so its quotient is the identity).
#[test]
fn symmetry_on_off_equivalence_on_e2_systems() {
    for n in [2usize, 3, 4] {
        let (ty, w, inputs) = sn_system(n);
        let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
        let sym_factory = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
        let budgets: &[usize] = if n < 4 { &[0, 1, 2] } else { &[0, 1] };
        for &budget in budgets {
            let config = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            let (off_states, off_leaves) = match explore(&factory, &config) {
                ExploreOutcome::Verified { states, leaves } => (states, leaves),
                other => panic!("S_{n} budget {budget} must verify: {other:?}"),
            };
            match explore_symmetric(&sym_factory, &config) {
                ExploreOutcome::Verified { states, leaves } => {
                    assert_eq!(
                        leaves, off_leaves,
                        "S_{n} budget {budget}: weighted leaf counts must \
                         match the plain engine"
                    );
                    if n >= 3 {
                        assert!(
                            states < off_states,
                            "S_{n} budget {budget}: symmetry must merge the \
                             team-B orbit ({states} vs {off_states})"
                        );
                    } else {
                        assert_eq!(states, off_states, "S_2 has no orbit to merge");
                    }
                }
                other => panic!("S_{n} budget {budget} must verify: {other:?}"),
            }
        }
    }
}

/// The `max_states` cap at every boundary of the S_2 budget-2 instance
/// (514 states), POR off and on: below the state-space size the search
/// truncates at exactly the cap, at and above it the search verifies
/// with the uncapped leaf count.
#[test]
fn cap_boundaries_are_exact() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let plain = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    for por in [false, true] {
        // The POR state-space size is computed per setting — reduced
        // spaces are not monotonically smaller (sleep-set node
        // splitting), so the boundaries must come from the engine under
        // test, not the unreduced count.
        let base = if por {
            por_config(&plain, "test/S_2".into())
        } else {
            plain.clone()
        };
        let uncapped = explore(&factory, &base);
        let total = match uncapped {
            ExploreOutcome::Verified { states, .. } => states,
            ref other => panic!("S_2 budget 2 por {por} must verify: {other:?}"),
        };
        for cap in [1usize, 7, total / 2, total - 1, total, total + 1] {
            let config = ExploreConfig {
                max_states: cap,
                ..base.clone()
            };
            let capped = explore(&factory, &config);
            if cap >= total {
                // At (and above) the exact state-space size nothing may
                // truncate, and the leaf count is part of the contract.
                assert_eq!(capped, uncapped, "cap {cap} por {por}");
            } else {
                assert_eq!(
                    capped,
                    ExploreOutcome::Truncated { states: cap },
                    "the cap is exact (por {por})"
                );
            }
        }
    }
}

/// `max_states` boundaries of the *symmetric* search: the cap counts
/// canonical states and stays exact — at/above the quotient size the
/// search verifies, below it truncates at exactly the cap.
#[test]
fn symmetric_cap_boundaries_are_exact() {
    let (ty, w, inputs) = sn_system(3);
    let sym_factory = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
    let plain = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    for por in [false, true] {
        let base = if por {
            por_config(&plain, "test/S_3".into())
        } else {
            plain.clone()
        };
        let total = match explore_symmetric(&sym_factory, &base) {
            ExploreOutcome::Verified { states, .. } => states,
            other => panic!("S_3 budget 2 por {por} must verify: {other:?}"),
        };
        for cap in [1usize, 7, total - 1, total, total + 1] {
            let config = ExploreConfig {
                max_states: cap,
                ..base.clone()
            };
            let capped = explore_symmetric(&sym_factory, &config);
            if cap >= total {
                assert!(capped.is_verified(), "cap {cap} por {por}: {capped:?}");
            } else {
                assert_eq!(
                    capped,
                    ExploreOutcome::Truncated { states: cap },
                    "the symmetric cap is exact (por {por})"
                );
            }
        }
    }
}

/// The E2-recorded baseline: S_2 at 514 and S_3 at 3981 states (crash
/// budget 2, post-decide crashes on). The engine rebuild must not change
/// what "a state" is.
#[test]
fn e2_state_counts_are_preserved() {
    for (n, expected) in [(2usize, 514usize), (3, 3981)] {
        let (ty, w, inputs) = sn_system(n);
        let outcome = explore(
            &|| build_team_rc_system(ty.clone(), &w, &inputs),
            &ExploreConfig {
                crash: CrashModel::independent(2).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            },
        );
        match outcome {
            ExploreOutcome::Verified { states, .. } => assert_eq!(states, expected, "S_{n}"),
            other => panic!("S_{n} must verify: {other:?}"),
        }
    }
}

/// The acceptance instance for the engine rebuild: S_4 with one
/// independent crash model-checks to `Verified` within the default
/// state cap.
#[test]
fn s4_budget_1_verifies_within_default_cap() {
    let (ty, w, inputs) = sn_system(4);
    let outcome = explore(
        &|| build_team_rc_system(ty.clone(), &w, &inputs),
        &ExploreConfig {
            crash: CrashModel::independent(1).after_decide(true),
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        },
    );
    match outcome {
        ExploreOutcome::Verified { states, .. } => {
            assert!(states > 10_000, "S_4 is a real instance: {states}");
            assert!(states < ExploreConfig::default().max_states);
        }
        other => panic!("S_4 budget 1 must verify: {other:?}"),
    }
}

/// A 1-process program that decides 0 on a clean run but 1 on a
/// recovery run — agreement across re-runs breaks only if the adversary
/// may crash it *after* it decided.
#[derive(Clone, Debug)]
struct ForgetfulDecider {
    addr: rc_runtime::Addr,
    pc: u8,
}

impl Program for ForgetfulDecider {
    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
        match self.pc {
            0 => {
                let seen = mem.read_register(self.addr);
                self.pc = 1;
                if seen.is_bottom() {
                    Step::Running
                } else {
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
    (mem, vec![Box::new(ForgetfulDecider { addr, pc: 0 })])
}

/// A process of the wide-memory fixture: it writes its own register,
/// then the register it shares with the processes of its parity, then
/// the register every process shares, and decides 0. Each write is
/// tagged with its pid, so the final contents record the order of every
/// conflicting pair of writes.
#[derive(Clone, Debug)]
struct WideWriter {
    own: rc_runtime::Addr,
    parity: rc_runtime::Addr,
    shared: rc_runtime::Addr,
    tag: Value,
    pc: u8,
}

impl Program for WideWriter {
    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
        self.pc += 1;
        let addr = match self.pc {
            1 => self.own,
            2 => self.parity,
            3 => self.shared,
            _ => return Step::Decided(Value::Int(0)),
        };
        mem.write_register(addr, self.tag.clone());
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
}

/// Three [`WideWriter`]s over 70 registers: the parity registers are
/// cells 0 and 63, the own registers cells 64–66 and the shared one
/// cell 67. A footprint set then spans two 64-bit words (70 cells and
/// the decision pseudo-cell, bit 70), and every conflict but the parity
/// writes lies in the second word.
fn wide_writer_system() -> (Memory, Vec<Box<dyn Program>>) {
    let mut mem = Memory::new();
    let cells: Vec<rc_runtime::Addr> = (0..70).map(|_| mem.alloc_register(Value::Bottom)).collect();
    let programs = (0..3)
        .map(|p| {
            Box::new(WideWriter {
                own: cells[64 + p],
                parity: cells[if p % 2 == 0 { 0 } else { 63 }],
                shared: cells[67],
                tag: Value::Int(p as i64),
                pc: 0,
            }) as Box<dyn Program>
        })
        .collect();
    (mem, programs)
}

/// POR on a system wider than one footprint word ([`wide_writer_system`]):
/// the conflicts that shape every persistent and sleep set lie in the
/// second word, so a reduction that read only the first would prune
/// conflicting write orders and lose terminal states. POR must match
/// the unreduced verdict and weighted leaves, and its state counts are
/// pinned, under no crashes and under one simultaneous crash.
#[test]
fn por_reads_every_footprint_word() {
    assert!(wide_writer_system().0.len() >= 64, "two footprint words");
    let verified = |outcome: ExploreOutcome| match outcome {
        ExploreOutcome::Verified { states, leaves } => (states, leaves),
        other => panic!("the wide writers must verify: {other:?}"),
    };
    for (crash, off_states, por_states, leaves) in [
        (CrashModel::none(), 258, 98, 6),
        (CrashModel::simultaneous(1), 1555, 626, 6),
    ] {
        let base = ExploreConfig {
            crash: crash.after_decide(true),
            inputs: Some(vec![Value::Int(0)]),
            ..ExploreConfig::default()
        };
        let off = verified(explore(&wide_writer_system, &base));
        let reduced = por_config(&base, "test/wide-writers".into());
        let por = verified(explore(&wide_writer_system, &reduced));
        assert_eq!(por.1, off.1, "{crash:?}: POR keeps the weighted leaves");
        assert_eq!(
            (off, por),
            ((off_states, leaves), (por_states, leaves)),
            "{crash:?}"
        );
    }
}

/// Regression (simultaneous crash-adversary asymmetry): with
/// `crash_after_decide: false`, a simultaneous `CrashAll` must not wipe
/// a decided run — the model checker used to reset decided processes
/// unconditionally and so reported violations the configured adversary
/// cannot produce. The independent and simultaneous models must agree.
#[test]
fn crash_all_respects_post_decide_policy_in_explore() {
    for mode in [CrashModel::independent(1), CrashModel::simultaneous(1)] {
        let strict = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: mode,
                ..ExploreConfig::default()
            },
        );
        assert!(
            strict.is_verified(),
            "{mode:?} without post-decide crashes: {strict:?}"
        );
        let lax = explore(
            &forgetful_factory,
            &ExploreConfig {
                crash: mode.after_decide(true),
                ..ExploreConfig::default()
            },
        );
        assert!(
            lax.is_violation(),
            "{mode:?} with post-decide crashes: {lax:?}"
        );
    }
}

/// Regression (`RandomScheduler` emitting `CrashAll` after every process
/// decided with `crash_after_decide: false`): the scheduler now ends the
/// execution instead of wiping decided runs, matching the exact layer.
#[test]
fn random_scheduler_crash_all_respects_post_decide_policy() {
    let mut sched = RandomScheduler::new(RandomSchedulerConfig {
        seed: 11,
        crash_prob: 1.0,
        crash: CrashModel::simultaneous(10),
    });
    let decided = vec![true, true, true];
    let ctx = SchedContext {
        n: 3,
        decided: &decided,
        steps_taken: 9,
        crashes_injected: 0,
    };
    for _ in 0..100 {
        assert_eq!(sched.next_action(&ctx), None, "no action can be legal");
    }
    // Partially decided: a step of the undecided process, never CrashAll.
    let decided = vec![true, false, true];
    let ctx = SchedContext {
        n: 3,
        decided: &decided,
        steps_taken: 9,
        crashes_injected: 0,
    };
    for _ in 0..100 {
        assert_eq!(sched.next_action(&ctx), Some(Action::Step(1)));
    }
}

/// Regression (state-cap off-by-one): the search used to visit
/// `max_states + 1` states before reporting truncation; now it visits
/// exactly `max_states`, and a cap equal to the exact state-space size
/// still verifies.
#[test]
fn state_cap_has_no_off_by_one() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    // 514 states (asserted above). Capping exactly there must verify…
    let outcome = explore(
        &factory,
        &ExploreConfig {
            max_states: 514,
            ..config.clone()
        },
    );
    assert!(outcome.is_verified(), "{outcome:?}");
    // …and one below must truncate having visited exactly the cap.
    match explore(
        &factory,
        &ExploreConfig {
            max_states: 513,
            ..config
        },
    ) {
        ExploreOutcome::Truncated { states } => assert_eq!(states, 513),
        other => panic!("expected truncation: {other:?}"),
    }
}

/// Verdict precedence: a violation reachable within the cap is reported
/// as `Violation` even under a tiny cap (violations are definitive;
/// truncation only blocks `Verified`).
#[test]
fn violation_beats_truncation_when_found_first() {
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
    let factory = || {
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
    };
    // The first DFS branch reaches the violation within 3 visited states.
    let outcome = explore(
        &factory,
        &ExploreConfig {
            max_states: 3,
            ..ExploreConfig::default()
        },
    );
    assert!(outcome.is_violation(), "{outcome:?}");
}

/// The plain search finds violations deterministically, and the
/// reported schedule replays to the claimed failure on the system it
/// was found on.
#[test]
fn plain_search_reports_replayable_violations() {
    let (ty, w, inputs) = sn_system(2);
    // Break validity: declare inputs that exclude what team B decides.
    let bogus = vec![Value::Int(7)];
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::independent(1).after_decide(true),
        inputs: Some(bogus.clone()),
        ..ExploreConfig::default()
    };
    let outcome = explore(&factory, &config);
    assert_eq!(
        outcome,
        explore(&factory, &config),
        "verdicts must be deterministic"
    );
    let schedule = match outcome {
        ExploreOutcome::Violation { schedule, .. } => schedule,
        other => panic!("bogus inputs must violate validity: {other:?}"),
    };
    let (mut mem, mut programs) = factory();
    let mut sched = ScriptedScheduler::then_finish(schedule);
    let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
    check_consensus_execution(&exec, &bogus)
        .expect_err("the replayed witness must reproduce the validity violation");
}

/// Symmetric searches report witnesses in *original* process ids: the
/// schedule a violating symmetric search returns must replay, action for
/// action, on the plain (never-permuted) system and reproduce the
/// violation. (Validity is broken here the same way as in
/// `plain_search_reports_replayable_violations`: declared inputs that
/// exclude what team B decides.)
#[test]
fn symmetric_witness_replays_on_the_original_system() {
    let (ty, w, inputs) = sn_system(3);
    let bogus = vec![Value::Int(7)];
    let sym_factory = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::independent(1).after_decide(true),
        inputs: Some(bogus.clone()),
        ..ExploreConfig::default()
    };
    let schedule = match explore_symmetric(&sym_factory, &config) {
        ExploreOutcome::Violation { schedule, .. } => schedule,
        other => panic!("bogus inputs must violate validity: {other:?}"),
    };
    // Replay on the plain system builder (no symmetry, no
    // canonicalization): the un-permuted schedule must reach the same
    // validity failure.
    let (mut mem, mut programs) = build_team_rc_system(ty.clone(), &w, &inputs);
    let mut sched = ScriptedScheduler::then_finish(schedule);
    let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
    check_consensus_execution(&exec, &bogus).expect_err(
        "the replayed witness must reproduce the validity violation \
         on the original system",
    );
}

/// The broken Fig. 2 variant (Section 3.1) under symmetry: the agreement
/// violation is still found, and its witness replays on the original
/// broken system to an agreement failure.
#[test]
fn symmetric_search_finds_the_broken_guard_violation() {
    use rc_core::algorithms::build_broken_team_rc_system_sym;
    let (cas, w, inputs) = broken_guard_system();
    let sym_factory = || build_broken_team_rc_system_sym(cas.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::none(),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    let schedule = match explore_symmetric(&sym_factory, &config) {
        ExploreOutcome::Violation { schedule, .. } => schedule,
        other => panic!("the broken guard must fail: {other:?}"),
    };
    let (mut mem, mut programs) = build_broken_team_rc_system(cas.clone(), &w, &inputs);
    let mut sched = ScriptedScheduler::then_finish(schedule);
    let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
    let err = check_consensus_execution(&exec, &inputs)
        .expect_err("the replayed witness must violate agreement");
    assert!(err.to_string().contains("agreement"), "{err}");
}

/// Full-state symmetry (owned mask registers + `Program::rebind`) on the
/// masked E2 systems: identical verdicts and weighted leaf counts to the
/// plain masked search, and strictly fewer states (the mask registers no
/// longer block the team-B orbit).
#[test]
fn rebind_on_off_equivalence_on_masked_systems() {
    for n in [2usize, 3] {
        let (ty, w, inputs) = sn_system(n);
        let factory = || build_masked_team_rc_system(ty.clone(), &w, &inputs);
        let sym_factory = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
        for budget in [0usize, 1] {
            let config = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            let (off_states, off_leaves) = match explore(&factory, &config) {
                ExploreOutcome::Verified { states, leaves } => (states, leaves),
                other => panic!("masked S_{n} budget {budget} must verify: {other:?}"),
            };
            match explore_symmetric(&sym_factory, &config) {
                ExploreOutcome::Verified { states, leaves } => {
                    assert_eq!(
                        leaves, off_leaves,
                        "masked S_{n} budget {budget}: weighted leaf counts \
                         must match the plain search"
                    );
                    if n >= 3 {
                        assert!(
                            states < off_states,
                            "masked S_{n} budget {budget}: owned-cell orbits \
                             must merge the team-B processes ({states} vs \
                             {off_states})"
                        );
                    } else {
                        assert_eq!(states, off_states, "masked S_2 has no orbit to merge");
                    }
                }
                other => panic!("masked S_{n} budget {budget} must verify: {other:?}"),
            }
        }
    }
}

/// The certified-scalarset mode on the Fig. 4 `SimultaneousRc` system
/// (the team systems declare no register family, so the mode needs the
/// one catalog system that does): identical verdicts and weighted leaf
/// counts with the scalarset orbits on vs off and strictly fewer states
/// — and the same contract holding *composed* with the persistent-set +
/// sleep-set reduction (each por setting is compared against its own
/// plain baseline, so the strict-reduction assertion proves the two
/// reductions stack rather than cancel).
#[test]
fn scalarset_on_off_equivalence_on_simultaneous_rc() {
    let factory = ConsensusObjectFactory { domain: 4 };
    // Mixed inputs: a two-process orbit beside a singleton — the family
    // permutes under the acting orbit only, which is the harder case
    // for canonicalization (E17 measures the larger budget-1
    // instances in release mode).
    let inputs = vec![Value::Int(0), Value::Int(0), Value::Int(1)];
    let plain = || build_simultaneous_rc_system(&factory, &inputs, 4);
    let sym = || build_simultaneous_rc_system_sym(&factory, &inputs, 4);
    let base = ExploreConfig {
        crash: CrashModel::simultaneous(0).after_decide(true),
        inputs: Some(inputs.clone()),
        analysis_id: Some("test/simultaneous-rc-n3".into()),
        ..ExploreConfig::default()
    };
    for por in [false, true] {
        let config = if por {
            ExploreConfig {
                por: true,
                ..base.clone()
            }
        } else {
            base.clone()
        };
        let (off_states, off_leaves) = match explore(&plain, &config) {
            ExploreOutcome::Verified { states, leaves } => (states, leaves),
            other => panic!("SimultaneousRc por {por} must verify: {other:?}"),
        };
        match explore_symmetric(&sym, &config) {
            ExploreOutcome::Verified { states, leaves } => {
                assert_eq!(
                    leaves, off_leaves,
                    "SimultaneousRc por {por}: weighted leaf counts must \
                     match the plain search"
                );
                assert!(
                    states < off_states,
                    "SimultaneousRc por {por}: the certified family must \
                     merge orbits ({states} vs {off_states})"
                );
            }
            other => panic!("SimultaneousRc scalarset por {por} must verify: {other:?}"),
        }
    }
}

/// POR on vs off on the E2 systems:
///
/// * the verdict and weighted leaf count stay exact, unmasked and
///   masked, plain and composed with full-rebind symmetry, while the
///   state count is the reduction — legitimately different, and *not*
///   monotone: sleep-set node splitting can outweigh the pruning at
///   independent budget 1 (E15 records both directions);
/// * **truncating** configs report the identical `Truncated` outcome in
///   both settings at every cap below both state-space sizes — the cap
///   counts visited nodes exactly, reduced or not.
#[test]
fn por_on_off_equivalence_on_e2_systems() {
    let verified = |outcome: &ExploreOutcome, what: &str| match outcome {
        ExploreOutcome::Verified { states, leaves } => (*states, *leaves),
        other => panic!("{what} must verify: {other:?}"),
    };
    for n in [2usize, 3] {
        let (ty, w, inputs) = sn_system(n);
        let plain = || build_team_rc_system(ty.clone(), &w, &inputs);
        let masked = || build_masked_team_rc_system(ty.clone(), &w, &inputs);
        let masked_sym = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
        for budget in [0usize, 1] {
            let base = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            // Unmasked: exact verdict + leaves (even the plain teams
            // have commuting step pairs, so states may shrink).
            let (_, plain_off_leaves) = verified(
                &explore(&plain, &base),
                &format!("unmasked S_{n} budget {budget} por off"),
            );
            let (_, plain_on_leaves) = verified(
                &explore(&plain, &por_config(&base, format!("test/S_{n}"))),
                &format!("unmasked S_{n} budget {budget} por on"),
            );
            assert_eq!(
                plain_on_leaves, plain_off_leaves,
                "unmasked S_{n} budget {budget}: POR must preserve the \
                 weighted leaf count exactly"
            );
            // Masked: exact verdict + leaves.
            let reduced = por_config(&base, format!("test/masked-S_{n}"));
            let (off_states, off_leaves) = verified(
                &explore(&masked, &base),
                &format!("masked S_{n} budget {budget} por off"),
            );
            let (on_states, on_leaves) = verified(
                &explore(&masked, &reduced),
                &format!("masked S_{n} budget {budget} por on"),
            );
            assert_eq!(
                on_leaves, off_leaves,
                "masked S_{n} budget {budget}: POR must preserve the \
                 weighted leaf count exactly"
            );
            // Composed with full-rebind symmetry: still exact.
            let (_, sym_off_leaves) = verified(
                &explore_symmetric(&masked_sym, &base),
                &format!("masked S_{n} budget {budget} rebind por off"),
            );
            let (_, sym_on_leaves) = verified(
                &explore_symmetric(&masked_sym, &reduced),
                &format!("masked S_{n} budget {budget} rebind por on"),
            );
            assert_eq!(sym_off_leaves, off_leaves, "rebind preserves leaves");
            assert_eq!(
                sym_on_leaves, off_leaves,
                "masked S_{n} budget {budget}: por+rebind must preserve the \
                 weighted leaf count exactly"
            );
            // Truncating configs: below both state-space sizes the two
            // settings report the identical truncation.
            let smallest = off_states.min(on_states);
            for cap in [1usize, smallest / 2, smallest - 1] {
                if cap == 0 {
                    continue;
                }
                for (setting, cfg) in [("off", &base), ("on", &reduced)] {
                    let capped = ExploreConfig {
                        max_states: cap,
                        ..cfg.clone()
                    };
                    assert_eq!(
                        explore(&masked, &capped),
                        ExploreOutcome::Truncated { states: cap },
                        "masked S_{n} budget {budget} cap {cap} por {setting}: \
                         the cap counts visited nodes exactly"
                    );
                }
            }
        }
    }
}

/// Witnesses from a full-rebind symmetric search replay in *original*
/// process ids: the validity-violation schedule reported on the masked
/// system replays, action for action, on the original (never-permuted,
/// never-rebound) masked system.
#[test]
fn rebind_witness_replays_on_the_original_masked_system() {
    let (ty, w, inputs) = sn_system(3);
    let bogus = vec![Value::Int(7)];
    let sym_factory = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::independent(1).after_decide(true),
        inputs: Some(bogus.clone()),
        ..ExploreConfig::default()
    };
    let schedule = match explore_symmetric(&sym_factory, &config) {
        ExploreOutcome::Violation { schedule, .. } => schedule,
        other => panic!("bogus inputs must violate validity: {other:?}"),
    };
    let (mut mem, mut programs) = build_masked_team_rc_system(ty.clone(), &w, &inputs);
    let mut sched = ScriptedScheduler::then_finish(schedule);
    let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
    check_consensus_execution(&exec, &bogus).expect_err(
        "the replayed witness must reproduce the validity violation \
         on the original masked system",
    );
}

/// The **masked-program counterexample**: the broken Fig. 2 guard under
/// input masking. The full-rebind search merges the masked team-B orbit,
/// still finds the Section 3.1 agreement violation, and its witness —
/// un-permuted *and* un-rebound — replays on the original masked broken
/// system to the same agreement failure.
#[test]
fn rebind_search_finds_the_masked_broken_guard_violation() {
    let (cas, w, inputs) = broken_guard_system();
    let sym_factory = || build_masked_broken_team_rc_system_sym(cas.clone(), &w, &inputs);
    let config = ExploreConfig {
        crash: CrashModel::none(),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    let schedule = match explore_symmetric(&sym_factory, &config) {
        ExploreOutcome::Violation { schedule, .. } => schedule,
        other => panic!("the masked broken guard must fail: {other:?}"),
    };
    let (mut mem, mut programs) = build_masked_broken_team_rc_system(cas.clone(), &w, &inputs);
    let mut sched = ScriptedScheduler::then_finish(schedule);
    let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
    let err = check_consensus_execution(&exec, &inputs)
        .expect_err("the replayed witness must violate agreement");
    assert!(err.to_string().contains("agreement"), "{err}");
}

/// Named for the storage tiers the checker once had; with one in-RAM
/// table it checks what is left of their equivalence on the E2
/// systems. A repeat search is byte-identical: outcome and every
/// counter. A `max_states` cut at half the space or one state short of
/// it truncates at exactly the cap, the same way on every run.
#[test]
fn storage_tiers_agree_byte_identically() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    for budget in [1usize, 2] {
        let base = ExploreConfig {
            crash: CrashModel::independent(budget).after_decide(true),
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        };
        let capped = |max_states: usize| {
            checked_edges(explore_with_stats(
                &factory,
                &ExploreConfig {
                    max_states,
                    ..base.clone()
                },
            ))
        };
        let reference = capped(base.max_states);
        let total = match reference.0 {
            ExploreOutcome::Verified { states, .. } => states,
            ref other => panic!("S_2/budget-{budget} must verify: {other:?}"),
        };
        assert_eq!(
            capped(base.max_states),
            reference,
            "budget {budget}: a repeat search moved"
        );
        for cap in [total / 2, total - 1] {
            let cut = capped(cap);
            assert_eq!(
                cut.0,
                ExploreOutcome::Truncated { states: cap },
                "budget {budget} cap {cap}"
            );
            assert_eq!(capped(cap), cut, "budget {budget}: the cut at {cap} moved");
        }
    }
}

/// The byte accounts at a `max_states` cut: cut at half the
/// `S_2`/budget-2 space, one state short of it, or at its size, no
/// witness bytes are held (the schedule is read off the DFS stack), and
/// the table and interner accounts grow with the cap (a larger cap runs
/// the same DFS further).
#[test]
fn byte_cap_boundary_is_exact_across_tiers() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let base = ExploreConfig {
        crash: CrashModel::independent(2).after_decide(true),
        inputs: Some(inputs.clone()),
        ..ExploreConfig::default()
    };
    let total = match explore(&factory, &base) {
        ExploreOutcome::Verified { states, .. } => states,
        other => panic!("S_2/budget-2 must verify: {other:?}"),
    };
    let mut previous: Option<ExploreStats> = None;
    for cap in [total / 2, total - 1, total] {
        let config = ExploreConfig {
            max_states: cap,
            ..base.clone()
        };
        let stats = checked_edges(explore_with_stats(&factory, &config)).1;
        assert_eq!(stats.witness_bytes, 0, "cap {cap}: no per-state witness");
        if let Some(prev) = previous {
            assert!(stats.peak_table_bytes >= prev.peak_table_bytes, "cap {cap}");
            assert!(stats.interned_bytes >= prev.interned_bytes, "cap {cap}");
        }
        previous = Some(stats);
    }
}

/// The memory/occupancy counters in [`rc_runtime::ExploreStats`] are
/// populated and monotone in the searched space: growing the crash
/// budget grows the table and interner accounts (more states, more
/// interned values), and no witness bytes are held at any budget.
#[test]
fn memory_counters_are_monotone_in_the_searched_space() {
    let (ty, w, inputs) = sn_system(2);
    let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
    let mut previous: Option<rc_runtime::ExploreStats> = None;
    for budget in [0usize, 1, 2] {
        let config = ExploreConfig {
            crash: CrashModel::independent(budget).after_decide(true),
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        };
        let (outcome, stats) = checked_edges(explore_with_stats(&factory, &config));
        assert!(outcome.is_verified(), "{outcome:?}");
        assert!(stats.interned_bytes > 0);
        assert!(stats.peak_table_bytes > 0);
        assert_eq!(stats.witness_bytes, 0);
        if let Some(prev) = previous {
            assert!(stats.interned_bytes >= prev.interned_bytes);
            assert!(stats.peak_table_bytes >= prev.peak_table_bytes);
        }
        previous = Some(stats);
    }
}

/// The CAS(2) broken-guard instance of Section 3.1 (E2's last line): a
/// 3-row recording witness with team B holding at least two rows, and
/// team inputs 0 (A) and 1 (B).
fn broken_guard_system() -> (TypeHandle, RecordingWitness, Vec<Value>) {
    use rc_core::find_recording_witness;
    use rc_spec::types::Cas;
    let cas: TypeHandle = Arc::new(Cas::new(2));
    let w = find_recording_witness(&cas, 3)
        .expect("cas witness")
        .normalized();
    let w = if w.assignment.team_size(Team::B) >= 2 {
        w
    } else {
        RecordingWitness {
            assignment: w.assignment.swap_teams(),
            q_a: w.q_b.clone(),
            q_b: w.q_a.clone(),
        }
    };
    let inputs: Vec<Value> = w
        .assignment
        .teams
        .iter()
        .map(|t| match t {
            Team::A => Value::Int(0),
            Team::B => Value::Int(1),
        })
        .collect();
    (cas, w, inputs)
}

/// The search counters of five fixed searches, pinned exactly: the
/// outcome and the whole [`ExploreStats`] — edges, duplicates, the
/// interner and peak-table bytes, the witness bytes (always 0) and the
/// reduction flags. Every one is deterministic, so a checker refactor
/// that keeps the search moves none of them. The searches cover a plain
/// Fig. 2 search, masked `S_4` under POR and rebind symmetry, Fig. 4
/// under scalarset symmetry with a simultaneous crash, and the
/// broken-guard violation with its schedule, crash-free and, masked,
/// under rebind symmetry with a crash: that witness's path crosses
/// states canonicalization moved, so its schedule is renamed back to
/// original pids.
#[test]
fn search_counters_are_pinned() {
    let packed = |crash: CrashModel, inputs: &[Value]| ExploreConfig {
        crash: crash.after_decide(true),
        inputs: Some(inputs.to_vec()),
        ..ExploreConfig::default()
    };
    let stats = |symmetry, por, counts: [usize; 4]| ExploreStats {
        max_level_workers: 1,
        symmetry,
        por,
        edges: counts[0],
        duplicates: counts[1],
        interned_bytes: counts[2],
        peak_table_bytes: counts[3],
        witness_bytes: 0,
    };

    let (ty, w, inputs) = sn_system(3);
    assert_eq!(
        explore_with_stats(
            &|| build_team_rc_system(ty.clone(), &w, &inputs),
            &packed(CrashModel::independent(2), &inputs),
        ),
        (
            ExploreOutcome::Verified {
                states: 3981,
                leaves: 9
            },
            stats(false, false, [16598, 12618, 3222, 138857]),
        ),
        "Fig. 2, S_3, independent budget 2"
    );

    let (ty, w, inputs) = sn_system(4);
    assert_eq!(
        explore_symmetric_with_stats(
            &|| build_masked_team_rc_system_sym(ty.clone(), &w, &inputs),
            &por_config(
                &packed(CrashModel::independent(0), &inputs),
                "test/pin/masked-S_4".into()
            ),
        ),
        (
            ExploreOutcome::Verified {
                states: 1306,
                leaves: 11
            },
            stats(true, true, [2255, 950, 5768, 65026]),
        ),
        "masked S_4, budget 0, POR and rebind symmetry"
    );

    let objects = ConsensusObjectFactory { domain: 4 };
    let inputs = [0, 0, 1].map(Value::Int);
    assert_eq!(
        explore_symmetric_with_stats(
            &|| build_simultaneous_rc_system_sym(&objects, &inputs, 4),
            &packed(CrashModel::simultaneous(1), &inputs),
        ),
        (
            ExploreOutcome::Verified {
                states: 93963,
                leaves: 24
            },
            stats(true, false, [376863, 282901, 13136, 4681623]),
        ),
        "Fig. 4 n=3, simultaneous budget 1, scalarset symmetry"
    );

    let (cas, w, inputs) = broken_guard_system();
    assert_eq!(
        explore_with_stats(
            &|| build_broken_team_rc_system(cas.clone(), &w, &inputs),
            &packed(CrashModel::none(), &inputs),
        ),
        (
            ExploreOutcome::Violation {
                kind: rc_runtime::ViolationKind::Agreement,
                schedule: [1, 1, 1, 0, 0, 2, 2, 1, 0, 0, 0, 1, 1, 2]
                    .map(Action::Step)
                    .to_vec(),
                outputs: vec![Value::Int(1), Value::Int(0)],
            },
            stats(false, false, [506, 268, 2400, 8522]),
        ),
        "the broken guard, crash-free"
    );

    assert_eq!(
        explore_symmetric_with_stats(
            &|| build_masked_broken_team_rc_system_sym(cas.clone(), &w, &inputs),
            &packed(CrashModel::independent(1), &inputs),
        ),
        (
            ExploreOutcome::Violation {
                kind: rc_runtime::ViolationKind::Agreement,
                schedule: [0, 0, 1, 2, 2, 1, 1, 2, 2, 1, 1, 0, 0, 2, 1, 0, 0, 0]
                    .map(Action::Step)
                    .to_vec(),
                outputs: vec![Value::Int(0), Value::Int(1)],
            },
            stats(true, false, [2436, 1665, 4376, 33104]),
        ),
        "the masked broken guard, independent budget 1, rebind symmetry"
    );
}
