//! The experiments (E1–E18); each returns a rendered report.

use crate::table::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rc_core::algorithms::{
    build_broken_team_rc_system, build_broken_team_rc_system_sym,
    build_masked_broken_team_rc_system_sym, build_masked_team_consensus_system_sym,
    build_masked_team_rc_system, build_masked_team_rc_system_sym, build_simultaneous_rc_system,
    build_simultaneous_rc_system_sym, build_team_consensus_system, build_team_consensus_system_sym,
    build_team_rc_system, build_team_rc_system_sym, build_tournament_consensus,
    build_tournament_rc, ConsensusObjectFactory,
};
use rc_core::{
    check_discerning, check_recording, compute_hierarchy, find_recording_witness, is_discerning,
    is_recording, set_rcons_bounds, Assignment, RecordingWitness, Team,
};
use rc_runtime::sched::{RandomScheduler, RandomSchedulerConfig, RoundRobin};
use rc_runtime::verify::check_consensus_execution;
use rc_runtime::{
    explore, explore_with_stats, run, CrashModel, ExploreConfig, Memory, Program, RunOptions,
    StorageTier,
};
use rc_spec::catalog::{catalog, ConsensusNumber};
use rc_spec::random::{random_table_type, RandomTypeConfig};
use rc_spec::types::{Cas, Sn, Stack, Tn};
use rc_spec::{Operation, TypeHandle, Value};
use std::sync::Arc;

pub(crate) fn sn_witness(n: usize) -> (TypeHandle, RecordingWitness) {
    let sn = Sn::new(n);
    let a = Assignment::split(Sn::q0(), vec![Sn::op_a()], vec![Sn::op_b(); n - 1]);
    let w = check_recording(&sn, &a).expect("S_n witness");
    (Arc::new(sn), w)
}

pub(crate) fn team_inputs(w: &Assignment) -> Vec<Value> {
    w.teams
        .iter()
        .map(|t| match t {
            Team::A => Value::Int(0),
            Team::B => Value::Int(1),
        })
        .collect()
}

/// E1 (Fig. 1): check every implication of the diagram on the catalog and
/// on a pile of random deterministic types.
pub fn e1_figure1(random_samples: usize) -> String {
    let mut checked = 0usize;
    let mut rec_implies_disc = 0usize;
    let mut disc_implies_rec2 = 0usize;
    let mut downward = 0usize;
    for seed in 0..random_samples as u64 {
        let ty = random_table_type(
            &mut StdRng::seed_from_u64(seed),
            RandomTypeConfig {
                num_states: 2 + (seed % 3) as usize,
                num_ops: 1 + (seed % 2) as usize,
                num_responses: 2,
            },
        );
        checked += 1;
        for n in 2..=4usize {
            if is_recording(&ty, n) {
                assert!(is_discerning(&ty, n), "Obs. 5 failed on {ty:?}");
                rec_implies_disc += 1;
                if n >= 3 {
                    assert!(is_recording(&ty, n - 1), "Obs. 6 failed on {ty:?}");
                    downward += 1;
                }
            }
        }
        if is_discerning(&ty, 4) {
            assert!(is_recording(&ty, 2), "Thm. 16 failed on {ty:?}");
            disc_implies_rec2 += 1;
        }
        if is_discerning(&ty, 3) {
            assert!(is_recording(&ty, 2), "Prop. 18 failed on {ty:?}");
        }
    }
    let mut t = Table::new(&["implication", "instances verified", "violations"]);
    t.row(&[
        "n-recording ⇒ n-discerning (Obs. 5)".into(),
        rec_implies_disc.to_string(),
        "0".into(),
    ]);
    t.row(&[
        "n-recording ⇒ (n−1)-recording (Obs. 6)".into(),
        downward.to_string(),
        "0".into(),
    ]);
    t.row(&[
        "4-discerning ⇒ 2-recording (Thm. 16/Prop. 18)".into(),
        disc_implies_rec2.to_string(),
        "0".into(),
    ]);
    format!(
        "E1 — Figure 1 implications on {checked} random deterministic types \
         (plus the proptest suite in tests/):\n{}",
        t.render()
    )
}

/// E2 (Fig. 2): the recoverable team consensus algorithm — exhaustive and
/// randomized verification, plus the Section 3.1 broken-guard scenario.
pub fn e2_team_rc(seeds: u64) -> String {
    let mut t = Table::new(&[
        "type",
        "n",
        "model-checked states",
        "random schedules",
        "crashes injected",
        "violations",
    ]);
    for n in [2usize, 3] {
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let outcome = explore(
            &|| build_team_rc_system(ty.clone(), &w, &inputs),
            &ExploreConfig {
                crash: CrashModel::independent(2).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            },
        );
        let states = match outcome {
            rc_runtime::ExploreOutcome::Verified { states, .. } => states.to_string(),
            other => panic!("Fig. 2 must verify: {other:?}"),
        };
        let mut crashes = 0usize;
        let mut violations = 0usize;
        for seed in 0..seeds {
            let (mut mem, mut programs) = build_team_rc_system(ty.clone(), &w, &inputs);
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob: 0.25,
                crash: CrashModel::independent(5).after_decide(true),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            crashes += exec.crashes;
            if check_consensus_execution(&exec, &inputs).is_err() {
                violations += 1;
            }
        }
        t.row(&[
            format!("S_{n}"),
            n.to_string(),
            states,
            seeds.to_string(),
            crashes.to_string(),
            violations.to_string(),
        ]);
    }
    // The broken variant (guard removed) must violate agreement.
    let cas: TypeHandle = Arc::new(Cas::new(2));
    let w = find_recording_witness(&cas, 3)
        .expect("CAS witness")
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
    let inputs = team_inputs(&w.assignment);
    let outcome = explore(
        &|| build_broken_team_rc_system(cas.clone(), &w, &inputs),
        &ExploreConfig {
            crash: CrashModel::independent(0),
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        },
    );
    let broken = match outcome {
        rc_runtime::ExploreOutcome::Violation { schedule, .. } => format!(
            "violation found in {} scheduler steps (no crashes needed)",
            schedule.len()
        ),
        other => panic!("the broken guard must fail: {other:?}"),
    };
    format!(
        "E2 — Fig. 2 recoverable team consensus:\n{}\nbroken |B|=1 guard \
         (Section 3.1 scenario): {broken}\n",
        t.render()
    )
}

/// E3 (Fig. 4 / Theorem 1): the simultaneous-crash transformation — and
/// the two-part independent-crash ablation (safety survives, liveness
/// does not).
pub fn e3_simultaneous(seeds: u64) -> String {
    // Part 1: rounds used vs simultaneous crash count.
    let mut t = Table::new(&[
        "crash budget",
        "schedules",
        "violations",
        "max rounds used",
        "avg steps",
    ]);
    use rc_core::algorithms::{alloc_simultaneous_rc, SimultaneousRc};
    let factory = ConsensusObjectFactory { domain: 8 };
    let inputs: Vec<Value> = (0..4).map(Value::Int).collect();
    for budget in [0usize, 2, 4, 6] {
        let mut violations = 0usize;
        let mut max_rounds = 0usize;
        let mut steps = 0usize;
        for seed in 0..seeds {
            let horizon = budget + 4;
            let mut mem = Memory::new();
            let shared = alloc_simultaneous_rc(&mut mem, &factory, inputs.len(), horizon);
            let mut programs: Vec<Box<dyn Program>> = inputs
                .iter()
                .enumerate()
                .map(|(pid, input)| {
                    Box::new(SimultaneousRc::new(
                        shared.clone(),
                        pid,
                        inputs.len(),
                        input.clone(),
                    )) as Box<dyn Program>
                })
                .collect();
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob: 0.05,
                crash: CrashModel::simultaneous(budget).after_decide(true),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            steps += exec.steps;
            if check_consensus_execution(&exec, &inputs).is_err() {
                violations += 1;
            }
            // Rounds actually used = highest non-⊥ D register.
            let rounds_used = shared
                .d_regs
                .iter()
                .rposition(|a| !mem.peek(*a).is_bottom())
                .map_or(0, |r| r + 1);
            max_rounds = max_rounds.max(rounds_used);
        }
        t.row(&[
            budget.to_string(),
            seeds.to_string(),
            violations.to_string(),
            max_rounds.to_string(),
            (steps / seeds as usize).to_string(),
        ]);
    }
    // Part 2: the independent-crash chase (liveness failure).
    let mut chase = Table::new(&["p0 crashes (independent)", "rounds forced on crash-free p1"]);
    for budget in [4usize, 8, 16, 32] {
        let dragged = starvation_rounds(budget);
        chase.row(&[budget.to_string(), dragged.to_string()]);
    }
    format!(
        "E3 — Fig. 4 under simultaneous crashes (safety + termination):\n{}\n\
         E3b — the same transform under INDEPENDENT crashes: safety still \
         holds (0 violations in the randomized hunt; the Round-guard makes \
         every consensus instance once-per-process), but a never-crashing \
         process is dragged through unboundedly many rounds — recoverable \
         wait-freedom fails, which is exactly why Theorem 1 needs the \
         simultaneous model:\n{}",
        t.render(),
        chase.render()
    )
}

fn starvation_rounds(crash_budget: usize) -> usize {
    use rc_core::algorithms::{alloc_simultaneous_rc, SimultaneousRc};
    use rc_runtime::Step;
    let factory = ConsensusObjectFactory { domain: 4 };
    let mut mem = Memory::new();
    let shared = alloc_simultaneous_rc(&mut mem, &factory, 2, crash_budget + 4);
    let round_reg_p0 = shared.round_regs[0];
    let mut p0 = SimultaneousRc::new(shared.clone(), 0, 2, Value::Int(0));
    let mut p1 = SimultaneousRc::new(shared, 1, 2, Value::Int(1));
    let mut crashes = 0usize;
    while crashes < crash_budget {
        while mem.peek(round_reg_p0).as_int().expect("int") <= p1.current_round() as i64 {
            if let Step::Decided(_) = p0.step(&mut mem) {
                p0.on_crash();
                crashes += 1;
                if crashes >= crash_budget {
                    break;
                }
            }
        }
        if crashes >= crash_budget {
            break;
        }
        let target = p1.current_round() + 1;
        while p1.current_round() < target {
            if let Step::Decided(_) = p1.step(&mut mem) {
                unreachable!("p1 cannot decide while p0 is ahead");
            }
        }
    }
    p1.current_round()
}

/// E4 (Fig. 5 / Prop. 19): the `T_n` family — the gap between the two
/// hierarchies.
pub fn e4_tn(max_n: usize) -> String {
    let mut t = Table::new(&[
        "n",
        "discerning (= cons)",
        "max recording",
        "rcons interval",
        "gap cons − rcons_hi",
    ]);
    for n in 4..=max_n {
        let report = compute_hierarchy(&Tn::new(n), n + 1);
        let hi = report.rcons_upper().expect("finite");
        t.row(&[
            n.to_string(),
            report.max_discerning.to_string(),
            report.max_recording.to_string(),
            format!("[{}, {}]", report.rcons_lower(), hi),
            (n - hi).to_string(),
        ]);
    }
    format!(
        "E4 — T_n (Fig. 5): n-discerning but not (n−1)-recording; \
         rcons(T_n) < cons(T_n) = n (Corollary 20):\n{}\n{}",
        t.render(),
        rc_spec::diagram::render_transitions(&Tn::new(4), &Tn::forget_state())
    )
}

/// E5 (Fig. 6 / Prop. 21): the `S_n` family — every RC level is populated.
pub fn e5_sn(max_n: usize) -> String {
    let mut t = Table::new(&["n", "discerning (= cons)", "max recording", "rcons"]);
    for n in 2..=max_n {
        let report = compute_hierarchy(&Sn::new(n), n + 1);
        let hi = report.rcons_upper().expect("finite");
        let lo = report.rcons_lower();
        assert_eq!(lo, hi, "Prop. 21: rcons(S_n) is exact");
        t.row(&[
            n.to_string(),
            report.max_discerning.to_string(),
            report.max_recording.to_string(),
            lo.to_string(),
        ]);
    }
    format!(
        "E5 — S_n (Fig. 6): rcons(S_n) = cons(S_n) = n (Proposition 21):\n{}\n{}",
        t.render(),
        rc_spec::diagram::render_transitions(&Sn::new(3), &Sn::q0())
    )
}

/// E6 (Fig. 7): RUniversal exactly-once vs the recovery-less baseline.
pub fn e6_universal(seeds: u64) -> String {
    use rc_universal::{audit_history, RUniversalWorker, UniversalLayout};
    let mut t = Table::new(&[
        "crash prob",
        "schedules",
        "crashes",
        "audit failures",
        "duplicate/lost ops",
    ]);
    let n = 3;
    let ops_per = 3;
    for crash_prob in [0.0, 0.02, 0.05] {
        let mut crashes = 0usize;
        let mut audit_failures = 0usize;
        let mut wrong_counts = 0usize;
        for seed in 0..seeds {
            let mut mem = Memory::new();
            let pool = 1 + n * ops_per;
            let layout = UniversalLayout::alloc(
                &mut mem,
                Arc::new(rc_spec::types::Counter::new(4096)),
                Value::Int(0),
                n,
                ops_per,
                &ConsensusObjectFactory {
                    domain: pool as u32,
                },
            );
            let mut programs: Vec<Box<dyn Program>> = (0..n)
                .map(|pid| {
                    Box::new(RUniversalWorker::new(
                        layout.clone(),
                        pid,
                        vec![Operation::nullary("inc"); ops_per],
                    )) as Box<dyn Program>
                })
                .collect();
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob,
                crash: CrashModel::independent(5),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            crashes += exec.crashes;
            match audit_history(&mem, &layout) {
                Ok(report) => {
                    if report.order.len() != n * ops_per {
                        wrong_counts += 1;
                    }
                }
                Err(_) => audit_failures += 1,
            }
        }
        t.row(&[
            format!("{crash_prob:.2}"),
            seeds.to_string(),
            crashes.to_string(),
            audit_failures.to_string(),
            wrong_counts.to_string(),
        ]);
    }
    // Ablation 1: the recovery-less baseline's duplicate rate under the
    // same random crash regime (at-least-once semantics).
    let mut herlihy = Table::new(&["crash prob", "schedules", "runs with duplicated ops"]);
    for crash_prob in [0.02, 0.05] {
        let mut duplicated = 0usize;
        for seed in 0..seeds {
            let mut mem = Memory::new();
            let slots = ops_per + 6; // room for retries
            let pool = 1 + n * slots;
            let layout = rc_universal::UniversalLayout::alloc(
                &mut mem,
                Arc::new(rc_spec::types::Counter::new(4096)),
                Value::Int(0),
                n,
                slots,
                &ConsensusObjectFactory {
                    domain: pool as u32,
                },
            );
            let mut programs: Vec<Box<dyn Program>> = (0..n)
                .map(|pid| {
                    Box::new(rc_universal::HerlihyWorker::new(
                        layout.clone(),
                        pid,
                        vec![Operation::nullary("inc"); ops_per],
                    )) as Box<dyn Program>
                })
                .collect();
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob,
                crash: CrashModel::independent(5),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            if !exec.all_decided {
                continue;
            }
            if let Ok(report) = rc_universal::audit_history(&mem, &layout) {
                if report.order.len() > n * ops_per {
                    duplicated += 1;
                }
            }
        }
        herlihy.row(&[
            format!("{crash_prob:.2}"),
            seeds.to_string(),
            duplicated.to_string(),
        ]);
    }

    // Ablation 2: the per-node RC instances implemented by Fig. 2
    // tournaments over the WEAK type S_3 (with Appendix F input masking) —
    // end-to-end universality from a recording type.
    let weak = {
        let sn: TypeHandle = Arc::new(Sn::new(3));
        let witness = find_recording_witness(&sn, 3).expect("S_3 records");
        let factory = rc_core::algorithms::tournament_rc_factory(sn, witness);
        let workload = rc_universal::Workload::uniform(3, vec![Operation::nullary("inc"); 2]);
        let mut ok = 0usize;
        let runs = seeds.min(25);
        for seed in 0..runs {
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob: 0.01,
                crash: CrashModel::independent(3),
            });
            let outcome = rc_universal::run_workload(
                Arc::new(rc_spec::types::Counter::new(256)),
                Value::Int(0),
                &workload,
                &factory,
                &mut sched,
            );
            if outcome.is_exactly_once() {
                ok += 1;
            }
        }
        format!("{ok}/{runs} schedules exactly-once (must be {runs}/{runs})")
    };

    format!(
        "E6 — RUniversal (Fig. 7), recoverable counter, {n} processes × \
         {ops_per} ops, per-node RC = consensus objects:\n{}\n\
         E6b — recovery-less Herlihy baseline under the same crashes \
         (at-least-once: duplicates appear):\n{}\n\
         E6c — per-node RC = Fig. 2 tournaments over S_3 with Appendix F \
         input masking: {weak}\n",
        t.render(),
        herlihy.render()
    )
}

/// E7 (Fig. 8 / Appendix H): the stack.
pub fn e7_stack() -> String {
    use rc_core::analysis::{analyze_pairs, PairConflict};
    let stack = Stack::new(3, 2);
    let rows = analyze_pairs(&stack);
    let mut commute = 0usize;
    let mut overwrite = 0usize;
    let mut same = 0usize;
    let mut clean = 0usize;
    for r in &rows {
        if r.conflicts.is_empty() {
            clean += 1;
        }
        for c in &r.conflicts {
            match c {
                PairConflict::Commute => commute += 1,
                PairConflict::FirstOverwritesSecond | PairConflict::SecondOverwritesFirst => {
                    overwrite += 1
                }
                PairConflict::SameEffect => same += 1,
            }
        }
    }
    let mut t = Table::new(&["pair classification (all q0 × op × op)", "count"]);
    t.row(&["commute (Fig. 8a)".into(), commute.to_string()]);
    t.row(&["overwrite (Fig. 8b)".into(), overwrite.to_string()]);
    t.row(&["identical effect".into(), same.to_string()]);
    t.row(&[
        "conflict-free (recording witnesses)".into(),
        clean.to_string(),
    ]);
    format!(
        "E7 — the stack (Appendix H): cons(stack) = 2, rcons(stack) = 1.\n{}\
         The conflict-free pairs are push-only witnesses: the stack IS \
         structurally n-recording, but it is NOT readable, so Theorem 8 \
         yields no algorithm — and the crash adversary defeats both \
         recoverable extensions of the classic 2-process protocol \
         (model-checked in tests/stack_impossibility.rs: ⊥-means-lost \
         breaks with 1 crash, ⊥-means-won with 2).\n{}",
        t.render(),
        e7_valency_summary()
    )
}

/// The Fig. 8 valency mechanics, summarized for the E7 table (full
/// walkthrough in tests/fig8_mechanics.rs).
fn e7_valency_summary() -> String {
    use rc_core::valency::{find_critical, replay, System};
    use rc_runtime::{MemOps, Program, Step};

    #[derive(Clone, Debug)]
    struct StackConsensus {
        stack: rc_runtime::Addr,
        my_reg: rc_runtime::Addr,
        other_reg: rc_runtime::Addr,
        input: Value,
        pc: u8,
    }
    impl Program for StackConsensus {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            match self.pc {
                0 => {
                    mem.write_register(self.my_reg, self.input.clone());
                    self.pc = 1;
                    Step::Running
                }
                1 => {
                    let popped = mem.apply(self.stack, &Operation::nullary("pop"));
                    self.pc = if popped == Value::Int(1) { 2 } else { 3 };
                    Step::Running
                }
                2 => Step::Decided(self.input.clone()),
                _ => Step::Decided(mem.read_register(self.other_reg)),
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

    let factory = || {
        let mut mem = Memory::new();
        let stack = mem.alloc_object(
            Arc::new(Stack::new(4, 2)),
            Value::List(vec![Value::Int(0), Value::Int(1)]),
        );
        let regs = [
            mem.alloc_register(Value::Bottom),
            mem.alloc_register(Value::Bottom),
        ];
        let programs: Vec<Box<dyn Program>> = (0..2)
            .map(|i| {
                Box::new(StackConsensus {
                    stack,
                    my_reg: regs[i],
                    other_reg: regs[1 - i],
                    input: Value::Int(i as i64 + 10),
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        System::new(mem, programs)
    };
    let critical = find_critical(&factory).expect("critical execution exists");
    let mut branch_a = replay(&factory, &critical.schedule);
    branch_a.step(0);
    branch_a.step(1);
    let mut branch_b = replay(&factory, &critical.schedule);
    branch_b.step(1);
    branch_b.step(0);
    let commute = branch_a.mem.state_key() == branch_b.mem.state_key();
    branch_a.crash(0);
    branch_b.crash(0);
    let x_a = branch_a.run_solo(0, 100);
    let x_b = branch_b.run_solo(0, 100);
    format!(
        "Fig. 8 valency mechanics: critical execution after {} steps; the two \
         poised pops commute ({}); after a crash of p1 its recovery run decides \
         {} in both branches — contradicting the distinct committed valencies \
         {:?} (the paper's Lemma-15 move, executed).\n",
        critical.schedule.len(),
        commute,
        x_a,
        critical
            .commitments
            .iter()
            .map(|(p, v)| format!("p{}→{}", p + 1, v))
            .collect::<Vec<_>>()
    )
    .replace("decides Int(", "decides (")
        + if x_a == x_b {
            ""
        } else {
            "(branches distinguishable?!)"
        }
}

/// E8 (Corollary 17): the full catalog survey.
pub fn e8_catalog() -> String {
    let mut t = Table::new(&[
        "type",
        "readable",
        "discerning",
        "recording",
        "computed rcons",
        "published cons",
        "published rcons",
    ]);
    for entry in catalog() {
        let cap = match entry.known_cons {
            ConsensusNumber::Finite(n) => (n + 2).min(8),
            ConsensusNumber::Infinite => 5,
        };
        let report = compute_hierarchy(&entry.object, cap);
        assert!(report.satisfies_corollary_17(), "{}", entry.id);
        let rcons = match (report.rcons_lower(), report.rcons_upper()) {
            (lo, Some(hi)) if lo == hi => lo.to_string(),
            (lo, Some(hi)) => format!("[{lo}, {hi}]"),
            (lo, None) => format!("≥{lo}"),
        };
        t.row(&[
            entry.id.to_string(),
            if report.readable { "yes" } else { "no" }.into(),
            report.max_discerning.to_string(),
            report.max_recording.to_string(),
            rcons,
            entry.known_cons.to_string(),
            entry.known_rcons.to_string(),
        ]);
    }
    format!(
        "E8 — hierarchy survey (Corollary 17: cons − 2 ≤ rcons ≤ cons for \
         readable types):\n{}",
        t.render()
    )
}

/// E9 (Theorem 22): RC power of *sets* of types.
pub fn e9_sets() -> String {
    let mut t = Table::new(&["type set", "max individual rcons (lo)", "set rcons bounds"]);
    let pairs: Vec<(&str, Vec<TypeHandle>)> = vec![
        (
            "{S_2, S_3}",
            vec![Arc::new(Sn::new(2)), Arc::new(Sn::new(3))],
        ),
        (
            "{S_3, test-and-set}",
            vec![
                Arc::new(Sn::new(3)),
                Arc::new(rc_spec::types::TestAndSet::new()),
            ],
        ),
        (
            "{T_4, S_4}",
            vec![Arc::new(Tn::new(4)), Arc::new(Sn::new(4))],
        ),
    ];
    for (name, types) in pairs {
        let reports: Vec<_> = types.iter().map(|ty| compute_hierarchy(ty, 6)).collect();
        let max_lo = reports
            .iter()
            .map(|r| r.rcons_lower())
            .max()
            .expect("nonempty");
        let (lo, hi) = set_rcons_bounds(&reports);
        let hi = hi.map_or("∞?".into(), |h| h.to_string());
        t.row(&[name.into(), max_lo.to_string(), format!("[{lo}, {hi}]")]);
    }
    format!(
        "E9 — Theorem 22: a set of readable types is at most one level \
         stronger than its strongest member:\n{}",
        t.render()
    )
}

/// E10: the headline table — per type, the largest n where ordinary
/// consensus is *executably* solvable vs the recoverable bounds.
pub fn e10_headline(seeds: u64) -> String {
    let mut t = Table::new(&[
        "type",
        "consensus solvable at n (verified crash-free)",
        "RC solvable at n (verified under crashes)",
        "RC impossible at n (theory)",
        "crash counterexample",
    ]);
    for n in [4usize, 6] {
        let tn = Tn::new(n);
        let ty: TypeHandle = Arc::new(Tn::new(n));
        let w = check_discerning(
            &tn,
            &Assignment::split(
                Tn::forget_state(),
                vec![Tn::op_a(); n / 2],
                vec![Tn::op_b(); n.div_ceil(2)],
            ),
        )
        .expect("T_n witness");
        // Consensus at n: crash-free execution check.
        let inputs = team_inputs(&w.assignment);
        let (mut mem, mut programs) = build_team_consensus_system(ty.clone(), &w, &inputs);
        let exec = run(
            &mut mem,
            &mut programs,
            &mut RoundRobin::new(),
            RunOptions::default(),
        );
        check_consensus_execution(&exec, &inputs).expect("Theorem 3 crash-free");
        // RC at n−2: tournament over the (n−2)-recording witness.
        let rw = find_recording_witness(&ty, n - 2).expect("Theorem 16");
        let rc_inputs: Vec<Value> = (0..(n - 2) as i64).map(Value::Int).collect();
        let mut violations = 0usize;
        for seed in 0..seeds {
            let (mut mem, mut programs) = build_tournament_rc(ty.clone(), &rw, &rc_inputs);
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob: 0.2,
                crash: CrashModel::independent(4).after_decide(true),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            if check_consensus_execution(&exec, &rc_inputs).is_err() {
                violations += 1;
            }
        }
        assert_eq!(violations, 0);
        t.row(&[
            format!("T_{n}"),
            format!("{n} ✓"),
            format!("{} ✓ ({seeds} crash schedules)", n - 2),
            format!("{n} (not (n−1)-recording + Thm 14)"),
            "1 crash breaks Thm-3 consensus (E2/adversary)".into(),
        ]);
    }
    for n in [3usize, 5] {
        let (ty, w) = sn_witness(n);
        let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let mut violations = 0usize;
        for seed in 0..seeds {
            let (mut mem, mut programs) = build_tournament_rc(ty.clone(), &w, &inputs);
            let mut sched = RandomScheduler::new(RandomSchedulerConfig {
                seed,
                crash_prob: 0.2,
                crash: CrashModel::independent(4).after_decide(true),
            });
            let exec = run(&mut mem, &mut programs, &mut sched, RunOptions::default());
            if check_consensus_execution(&exec, &inputs).is_err() {
                violations += 1;
            }
        }
        assert_eq!(violations, 0);
        t.row(&[
            format!("S_{n}"),
            format!("{n} ✓"),
            format!("{n} ✓ ({seeds} crash schedules)"),
            format!("{} (not ({n}+1)-recording…)", n + 1),
            "none: rcons = cons".into(),
        ]);
    }
    format!(
        "E10 — when is recoverable consensus harder than consensus?\n\
         For T_n: strictly harder (gap ≥ 1 level); for S_n: not harder.\n{}",
        t.render()
    )
}

/// One measured configuration of the E11 engine sweep.
#[derive(Clone, Debug)]
pub struct E11Row {
    /// System under check, e.g. `"S_3"` (the Fig. 2 team-RC algorithm
    /// over that type, as in E2).
    pub system: String,
    /// Crash budget of the (independent, post-decide) adversary.
    pub crash_budget: usize,
    /// `Verified` / `Truncated` (any violation would panic the sweep).
    pub verdict: String,
    /// Distinct states visited — the peak state count of the search.
    pub states: usize,
    /// Complete executions enumerated (memoized suffixes counted once).
    pub leaves: usize,
    /// Wall-clock milliseconds (machine-dependent).
    pub millis: f64,
    /// `states / seconds` (machine-dependent).
    pub states_per_sec: f64,
}

fn e11_measure(
    system: &str,
    budget: usize,
    factory: &rc_runtime::SystemFactory<'_>,
    config: &ExploreConfig,
) -> E11Row {
    use rc_runtime::ExploreOutcome;
    use std::time::{Duration, Instant};
    // Single runs of small instances are milliseconds — far below timer
    // noise. Repeat until a time floor is reached (minimum three runs,
    // first discarded as warm-up) and report the best run, the standard
    // throughput methodology.
    let mut best = Duration::MAX;
    let mut total = Duration::ZERO;
    let mut outcome = explore(factory, config); // warm-up, also the reported verdict
    let mut runs = 0u32;
    while runs < 3 || (total < Duration::from_millis(200) && runs < 50) {
        let start = Instant::now();
        outcome = explore(factory, config);
        let elapsed = start.elapsed();
        total += elapsed;
        best = best.min(elapsed);
        runs += 1;
    }
    let (verdict, states, leaves) = match outcome {
        ExploreOutcome::Verified { states, leaves } => ("Verified".to_string(), states, leaves),
        ExploreOutcome::Truncated { states } => ("Truncated".to_string(), states, 0),
        ExploreOutcome::Violation { schedule, .. } => {
            panic!(
                "E11 systems are correct; violation after {} actions",
                schedule.len()
            )
        }
    };
    E11Row {
        system: system.to_string(),
        crash_budget: budget,
        verdict,
        states,
        leaves,
        millis: best.as_secs_f64() * 1e3,
        states_per_sec: states as f64 / best.as_secs_f64().max(1e-9),
    }
}

/// E11: model-checker scaling — states/sec and peak state counts of the
/// DFS engine on the Fig. 2 team-RC workload (the E2 systems),
/// `S_2..S_5` × crash budgets.
///
/// The adversary matches E2: independent crashes, post-decide crashes
/// enabled, validity inputs declared. State and leaf counts are
/// deterministic; wall-clock figures are machine-dependent
/// (`BENCH_explore.json` tracks them across PRs together with the host
/// core count — the seed recursive engine's and the deleted parallel
/// frontier's last recorded rows live in EXPERIMENTS.md §E11 and the git
/// history of that file).
pub fn e11_explore_scaling(fast: bool) -> (String, Vec<E11Row>) {
    // (n, crash budgets): bigger systems get smaller budgets to keep the
    // exact search inside the default state cap.
    let sweep: &[(usize, &[usize])] = if fast {
        &[(2, &[0, 1, 2]), (3, &[0, 1, 2]), (4, &[0, 1])]
    } else {
        &[
            (2, &[0, 1, 2]),
            (3, &[0, 1, 2]),
            (4, &[0, 1, 2]),
            (5, &[0, 1]),
        ]
    };
    let mut rows = Vec::new();
    for &(n, budgets) in sweep {
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let system = format!("S_{n}");
        let factory = || build_team_rc_system(ty.clone(), &w, &inputs);
        for &budget in budgets {
            let config = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            rows.push(e11_measure(&system, budget, &factory, &config));
        }
    }
    let mut t = Table::new(&[
        "system",
        "crash budget",
        "verdict",
        "states",
        "leaves",
        "ms",
        "states/sec",
    ]);
    for r in &rows {
        t.row(&[
            r.system.clone(),
            r.crash_budget.to_string(),
            r.verdict.clone(),
            r.states.to_string(),
            r.leaves.to_string(),
            format!("{:.1}", r.millis),
            format!("{:.0}", r.states_per_sec),
        ]);
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let report = format!(
        "E11 — model-checker scaling (Fig. 2 team-RC workload, independent \
         crashes, post-decide enabled; one DFS engine, host_cores = {cores}):\n{}\n\
         states/leaves are deterministic, wall-clock is machine-dependent.\n",
        t.render()
    );
    (report, rows)
}

/// One measured configuration of the E12 symmetry sweep.
#[derive(Clone, Debug)]
pub struct E12Row {
    /// System under check (Fig. 2 team-RC over `S_n`, as in E2/E11).
    pub system: String,
    /// Crash budget of the (independent, post-decide) adversary.
    pub crash_budget: usize,
    /// The `max_states` cap this row ran under (the default cap unless
    /// the row demonstrates cap-exceed behaviour).
    pub max_states: usize,
    /// `"off"` (plain serial DFS) or `"on"` (process-symmetry reduction).
    pub symmetry: &'static str,
    /// `Verified` / `Truncated` (a violation would panic the sweep).
    pub verdict: String,
    /// Distinct states visited — canonical representatives when
    /// symmetry is on.
    pub states: usize,
    /// Complete executions enumerated; symmetry-on rows weight each
    /// canonical leaf by its permutation-class size, so Verified rows
    /// match the off rows exactly (asserted).
    pub leaves: usize,
    /// Wall-clock milliseconds of the best run (machine-dependent).
    pub millis: f64,
    /// `states / seconds` (machine-dependent).
    pub states_per_sec: f64,
    /// `states(off) / states(on)` for the on rows (1.0 for off rows);
    /// for the cap-exceed demonstration the off side is a lower bound.
    pub reduction: f64,
}

/// The E12/E13 sweeps' shared measurement policy — lighter repetition
/// than E11 (min one run, 200 ms floor, 30-run cap): their headline
/// figures are the deterministic state counts; the throughput columns
/// are secondary. Returns the verdict string, state and leaf counts and
/// the best run's wall clock. Panics on a violation (both sweeps check
/// correct systems only), naming `experiment`.
fn measure_sweep_run(
    experiment: &str,
    run_once: &dyn Fn() -> rc_runtime::ExploreOutcome,
) -> (String, usize, usize, std::time::Duration) {
    use rc_runtime::ExploreOutcome;
    use std::time::{Duration, Instant};
    let mut best = Duration::MAX;
    let mut total = Duration::ZERO;
    let mut outcome;
    let mut runs = 0u32;
    loop {
        let start = Instant::now();
        outcome = Some(run_once());
        let elapsed = start.elapsed();
        total += elapsed;
        best = best.min(elapsed);
        runs += 1;
        if runs >= 30 || total >= Duration::from_millis(200) {
            break;
        }
    }
    match outcome.expect("at least one run") {
        ExploreOutcome::Verified { states, leaves } => {
            ("Verified".to_string(), states, leaves, best)
        }
        ExploreOutcome::Truncated { states } => ("Truncated".to_string(), states, 0, best),
        ExploreOutcome::Violation { schedule, .. } => panic!(
            "{experiment} systems are correct; violation after {} actions",
            schedule.len()
        ),
    }
}

fn e12_measure(
    system: &str,
    budget: usize,
    symmetry: &'static str,
    config: &ExploreConfig,
    run_once: &dyn Fn() -> rc_runtime::ExploreOutcome,
) -> E12Row {
    let (verdict, states, leaves, best) = measure_sweep_run("E12", run_once);
    E12Row {
        system: system.to_string(),
        crash_budget: budget,
        max_states: config.max_states,
        symmetry,
        verdict,
        states,
        leaves,
        millis: best.as_secs_f64() * 1e3,
        states_per_sec: states as f64 / best.as_secs_f64().max(1e-9),
        reduction: 1.0,
    }
}

/// E12: process-symmetry reduction — states visited and states/sec with
/// symmetry off vs on on the Fig. 2 team-RC workload, `S_3..S_6` ×
/// crash budgets, plus the cap-exceed demonstration: `S_8`/budget-0
/// exceeds the default 5M-state cap without symmetry (`Truncated`) and
/// reaches an exact `Verified` verdict with it.
///
/// The `S_n` witness has one team-A row and `n − 1` identical team-B
/// rows, so the symmetric search collapses the team-B orbit — up to
/// `(n−1)!` states per class. Verdicts and (weighted) leaf counts are
/// asserted identical between the off and on rows of every
/// both-verifying configuration.
pub fn e12_symmetry_reduction(fast: bool) -> (String, Vec<E12Row>) {
    let sweep: &[(usize, &[usize])] = if fast {
        &[(3, &[1, 2]), (4, &[1])]
    } else {
        &[(3, &[1, 2]), (4, &[1, 2]), (5, &[0, 1]), (6, &[0, 1])]
    };
    let mut rows = Vec::new();
    let sweep_one = |n: usize, budget: usize, config: &ExploreConfig| -> (E12Row, E12Row) {
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let system = format!("S_{n}");
        let config = ExploreConfig {
            crash: CrashModel::independent(budget).after_decide(true),
            inputs: Some(inputs.clone()),
            ..config.clone()
        };
        let off = e12_measure(&system, budget, "off", &config, &|| {
            explore(&|| build_team_rc_system(ty.clone(), &w, &inputs), &config)
        });
        let mut on = e12_measure(&system, budget, "on", &config, &|| {
            rc_runtime::explore_symmetric(
                &|| build_team_rc_system_sym(ty.clone(), &w, &inputs),
                &config,
            )
        });
        on.reduction = off.states as f64 / on.states as f64;
        (off, on)
    };
    for &(n, budgets) in sweep {
        for &budget in budgets {
            let (off, on) = sweep_one(n, budget, &ExploreConfig::default());
            assert_eq!(
                off.verdict, on.verdict,
                "S_{n}/{budget}: verdicts must agree"
            );
            assert_eq!(
                off.leaves, on.leaves,
                "S_{n}/{budget}: weighted leaf counts must agree"
            );
            assert!(
                on.states < off.states,
                "S_{n}/{budget}: symmetry must reduce states"
            );
            rows.push(off);
            rows.push(on);
        }
    }
    // The cap-exceed demonstration (full sweep only — the off side costs
    // a cap-length run): S_8/budget-0 truncates at the default cap
    // without symmetry and verifies exactly with it.
    if !fast {
        let (off, on) = sweep_one(8, 0, &ExploreConfig::default());
        assert_eq!(
            off.verdict, "Truncated",
            "S_8/0 must exceed the default cap"
        );
        assert_eq!(on.verdict, "Verified", "S_8/0 must verify under symmetry");
        rows.push(off);
        rows.push(on);
    }
    let mut t = Table::new(&[
        "system",
        "crash budget",
        "cap",
        "symmetry",
        "verdict",
        "states",
        "leaves",
        "ms",
        "states/sec",
        "reduction",
    ]);
    for r in &rows {
        t.row(&[
            r.system.clone(),
            r.crash_budget.to_string(),
            r.max_states.to_string(),
            r.symmetry.to_string(),
            r.verdict.clone(),
            r.states.to_string(),
            r.leaves.to_string(),
            format!("{:.1}", r.millis),
            format!("{:.0}", r.states_per_sec),
            if r.symmetry == "on" {
                format!("{:.1}×", r.reduction)
            } else {
                "1.0×".into()
            },
        ]);
    }
    let headline = rows
        .iter()
        .filter(|r| r.symmetry == "on" && r.verdict == "Verified")
        .map(|r| (r.reduction, r.system.clone(), r.crash_budget))
        .fold((0.0f64, String::new(), 0usize), |acc, x| {
            if x.0 > acc.0 {
                x
            } else {
                acc
            }
        });
    let cap_note = if fast {
        "(the S_8 cap-exceed demonstration runs in the full sweep only)"
    } else {
        "the S_8/budget-0 rows show an instance the plain engine cannot finish \
         within the default cap that the symmetric engine verifies exactly"
    };
    let report = format!(
        "E12 — process-symmetry reduction (Fig. 2 team-RC workload; the team-B \
         orbit of the S_n witness collapses, up to (n−1)! states per class):\n{}\n\
         largest recorded reduction: {:.1}× on {}/budget-{}; verdicts and weighted \
         leaf counts are identical with symmetry off and on (asserted), witness \
         schedules stay in original process ids, and {cap_note}.\n",
        t.render(),
        headline.0,
        headline.1,
        headline.2,
    );
    (report, rows)
}

/// One measured configuration of the E13 full-state symmetry sweep.
#[derive(Clone, Debug)]
pub struct E13Row {
    /// System under check: `"masked S_n"` (the input-masked Fig. 2
    /// team-RC system — per-process mask registers, the introduction's
    /// transformation) or `"SimultaneousRc n=k"` (Fig. 4 over atomic
    /// consensus objects).
    pub system: String,
    /// Crash budget (independent + post-decide for the masked systems,
    /// simultaneous + post-decide for Fig. 4).
    pub crash_budget: usize,
    /// The `max_states` cap the row ran under.
    pub max_states: usize,
    /// `"off"` (plain engine), `"slots"` (the strongest *slots-only*
    /// declaration PR 4 allowed — singleton orbits on these systems, so
    /// byte-identical to off; asserted) or `"rebind"` (owned-cell orbits
    /// with `Program::rebind`).
    pub mode: &'static str,
    /// `Verified` / `Truncated` (a violation would panic the sweep).
    pub verdict: String,
    /// Distinct states visited — canonical representatives under
    /// `rebind`.
    pub states: usize,
    /// Weighted executions enumerated; Verified `rebind` rows must match
    /// the off rows exactly (asserted).
    pub leaves: usize,
    /// Wall-clock milliseconds of the best run (machine-dependent).
    pub millis: f64,
    /// `states / seconds` (machine-dependent).
    pub states_per_sec: f64,
    /// `states(off) / states(this row)`; a **lower bound** when the off
    /// side truncated at the cap (see `reduction_is_lower_bound`).
    pub reduction: f64,
    /// Whether `reduction` is a lower bound (off side hit the cap).
    pub reduction_is_lower_bound: bool,
}

fn e13_measure(
    system: &str,
    budget: usize,
    mode: &'static str,
    config: &ExploreConfig,
    run_once: &dyn Fn() -> rc_runtime::ExploreOutcome,
) -> E13Row {
    let (verdict, states, leaves, best) = measure_sweep_run("E13", run_once);
    E13Row {
        system: system.to_string(),
        crash_budget: budget,
        max_states: config.max_states,
        mode,
        verdict,
        states,
        leaves,
        millis: best.as_secs_f64() * 1e3,
        states_per_sec: states as f64 / best.as_secs_f64().max(1e-9),
        reduction: 1.0,
        reduction_is_lower_bound: false,
    }
}

/// E13: **full-state** symmetry via `Program::rebind` — the systems
/// PR 4's slots-only reduction had to keep asymmetric because each
/// process owns distinguishing shared cells. Three modes per instance:
///
/// * `off` — the plain engine;
/// * `slots` — the strongest slots-only declaration that is *sound* on
///   these systems. For masked programs that is the singleton-orbit
///   (trivial) spec: a non-singleton slots declaration is rejected by
///   the orbit reference-consistency validation (the mask registers are
///   per-process distinguishing state), so `slots` is byte-identical to
///   `off` — which is precisely the point of the column;
/// * `rebind` — the mask registers are declared *owned*
///   (`SymmetrySpec::with_owned_cells`), permute together with their
///   owners, and relocated wrappers are rebound (`Program::rebind`).
///
/// The masked `S_7`/`S_8` budget-0 instances exceed the default 5M-state
/// cap without rebind (`Truncated`) and verify exactly with it —
/// reductions are then reported as lower bounds. Fig. 4
/// (`SimultaneousRc`) rows run `off`/`slots` only: its per-process round
/// registers are read by *every* process (the line-44 termination scan),
/// so no owned-cell declaration is sound — the validator rejects it
/// (tested in `rc-core`). The registers reduce under the certified
/// *scalarset* kind instead (E17); here the all-distinct inputs leave
/// every orbit a singleton, so the family is inert and the sym row is
/// byte-identical to `off`.
pub fn e13_full_state_symmetry(fast: bool) -> (String, Vec<E13Row>) {
    // (n, budgets, slots_row, off_row) per masked S_n instance: the off
    // search of S_7/S_8 at budget 0 is a cap-length run (~5M states), so
    // the fast sweep skips those sizes entirely and the full sweep
    // measures the (identical-by-construction) slots rows only where the
    // off side verifies quickly.
    let masked_sweep: &[(usize, &[usize], bool)] = if fast {
        &[(4, &[0, 1], true), (5, &[0], false)]
    } else {
        &[
            (5, &[0, 1], true),
            (6, &[0], true),
            (7, &[0], false),
            (8, &[0], false),
        ]
    };
    let mut rows: Vec<E13Row> = Vec::new();
    for &(n, budgets, measure_slots) in masked_sweep {
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let system = format!("masked S_{n}");
        for &budget in budgets {
            let config = ExploreConfig {
                crash: CrashModel::independent(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            let off = e13_measure(&system, budget, "off", &config, &|| {
                explore(
                    &|| build_masked_team_rc_system(ty.clone(), &w, &inputs),
                    &config,
                )
            });
            if measure_slots {
                let slots = e13_measure(&system, budget, "slots", &config, &|| {
                    rc_runtime::explore_symmetric(
                        &|| {
                            let (mem, programs) =
                                build_masked_team_rc_system(ty.clone(), &w, &inputs);
                            let n = programs.len();
                            (mem, programs, rc_runtime::SymmetrySpec::trivial(n))
                        },
                        &config,
                    )
                });
                assert_eq!(
                    (&slots.verdict, slots.states, slots.leaves),
                    (&off.verdict, off.states, off.leaves),
                    "{system}/{budget}: slots-only is the identity on masked systems"
                );
                rows.push(slots);
            }
            let mut on = e13_measure(&system, budget, "rebind", &config, &|| {
                rc_runtime::explore_symmetric(
                    &|| build_masked_team_rc_system_sym(ty.clone(), &w, &inputs),
                    &config,
                )
            });
            assert_eq!(
                on.verdict, "Verified",
                "{system}/{budget} must verify under rebind"
            );
            if off.verdict == "Verified" {
                assert_eq!(
                    on.leaves, off.leaves,
                    "{system}/{budget}: weighted leaf counts must agree"
                );
                assert!(
                    on.states < off.states,
                    "{system}/{budget}: rebind must reduce states"
                );
            } else {
                on.reduction_is_lower_bound = true;
            }
            on.reduction = off.states as f64 / on.states as f64;
            rows.push(off);
            rows.push(on);
        }
    }
    // Fig. 4 rows: off and the certified scalarset declaration under
    // all-distinct inputs — every orbit is a singleton, so the family
    // is inert here and the quotient is the identity (the E14 audit
    // warns exactly this); E17 measures the acting-orbit instances,
    // where the same declaration reduces.
    {
        let n = 3;
        let budget = 1;
        let factory = ConsensusObjectFactory { domain: 4 };
        let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let horizon = 4;
        let system = format!("SimultaneousRc n={n}");
        let config = ExploreConfig {
            crash: CrashModel::simultaneous(budget).after_decide(true),
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        };
        let off = e13_measure(&system, budget, "off", &config, &|| {
            explore(
                &|| build_simultaneous_rc_system(&factory, &inputs, horizon),
                &config,
            )
        });
        let slots = e13_measure(&system, budget, "slots", &config, &|| {
            rc_runtime::explore_symmetric(
                &|| build_simultaneous_rc_system_sym(&factory, &inputs, horizon),
                &config,
            )
        });
        assert_eq!(
            (&slots.verdict, slots.states, slots.leaves),
            (&off.verdict, off.states, off.leaves),
            "distinct inputs leave the scalarset family inert, so outcomes \
             are identical"
        );
        rows.push(off);
        rows.push(slots);
    }
    let mut t = Table::new(&[
        "system",
        "crash budget",
        "cap",
        "mode",
        "verdict",
        "states",
        "leaves",
        "ms",
        "states/sec",
        "reduction",
    ]);
    for r in &rows {
        t.row(&[
            r.system.clone(),
            r.crash_budget.to_string(),
            r.max_states.to_string(),
            r.mode.to_string(),
            r.verdict.clone(),
            r.states.to_string(),
            r.leaves.to_string(),
            format!("{:.1}", r.millis),
            format!("{:.0}", r.states_per_sec),
            match (r.mode, r.reduction_is_lower_bound) {
                ("rebind", true) => format!("≥{:.1}×", r.reduction),
                ("rebind", false) => format!("{:.1}×", r.reduction),
                _ => "1.0×".into(),
            },
        ]);
    }
    let headline = rows
        .iter()
        .filter(|r| r.mode == "rebind")
        .map(|r| {
            (
                r.reduction,
                r.reduction_is_lower_bound,
                r.system.clone(),
                r.crash_budget,
            )
        })
        .fold((0.0f64, false, String::new(), 0usize), |acc, x| {
            if x.0 > acc.0 {
                x
            } else {
                acc
            }
        });
    let cap_note = if fast {
        "(the Truncated-without-rebind demonstrations on masked S_7/S_8 run \
         in the full sweep only)"
    } else {
        "the masked S_7/S_8 budget-0 rows exceed the default cap without \
         rebind and verify exactly with it — their reductions are lower \
         bounds"
    };
    let report = format!(
        "E13 — full-state symmetry via Program::rebind (input-masked Fig. 2 \
         team-RC: per-process mask registers permute with their owners; \
         slots-only must keep masked processes in singleton orbits, so it \
         equals off — asserted):\n{}\n\
         largest recorded reduction: {}{:.1}× on {}/budget-{}; Verified \
         rebind rows match off verdicts and weighted leaf counts exactly \
         (asserted), witnesses replay in original pids (tested), and \
         {cap_note}. Fig. 4 (SimultaneousRc) rows stay slots-only here: \
         every process scans every round register (line 44), so \
         owned-cell round-register orbits are *rejected* by the \
         owner-only soundness validation (tested in rc-core) — the \
         registers reduce under the certified *scalarset* fragment \
         instead (E17).\n",
        t.render(),
        if headline.1 { "≥" } else { "" },
        headline.0,
        headline.2,
        headline.3,
    );
    (report, rows)
}

/// One measured configuration of the E15 partial-order-reduction sweep.
#[derive(Clone, Debug)]
pub struct E15Row {
    /// System under check: `"masked S_n"` (the input-masked Fig. 2
    /// team-RC system, as in E13) or `"SimultaneousRc n=k"` (Fig. 4 over
    /// atomic consensus objects — the system no owned-cell orbit is
    /// sound for, so symmetry cannot reduce it and POR is the only
    /// reducer that applies).
    pub system: String,
    /// Crash budget (independent + post-decide for the masked systems,
    /// simultaneous + post-decide for Fig. 4).
    pub crash_budget: usize,
    /// The `max_states` cap the row ran under.
    pub max_states: usize,
    /// `"off"` (plain engine), `"por"` (persistent + sleep sets,
    /// `ExploreConfig::por`), `"rebind"` (full-state symmetry, as in
    /// E13) or `"por+rebind"` (both reducers composed).
    pub mode: &'static str,
    /// `Verified` / `Truncated` (a violation would panic the sweep).
    pub verdict: String,
    /// Distinct states visited — sleep-annotated under `por`, canonical
    /// representatives under `rebind`, both under `por+rebind`.
    pub states: usize,
    /// Weighted executions enumerated; Verified reduced rows must match
    /// the off rows exactly (asserted).
    pub leaves: usize,
    /// Wall-clock milliseconds of the best run (machine-dependent).
    pub millis: f64,
    /// `states / seconds` (machine-dependent).
    pub states_per_sec: f64,
    /// `states(off) / states(this row)`; a **lower bound** when the off
    /// side truncated at the cap (see `reduction_is_lower_bound`).
    pub reduction: f64,
    /// Whether `reduction` is a lower bound (off side hit the cap).
    pub reduction_is_lower_bound: bool,
}

fn e15_measure(
    system: &str,
    budget: usize,
    mode: &'static str,
    config: &ExploreConfig,
    run_once: &dyn Fn() -> rc_runtime::ExploreOutcome,
) -> E15Row {
    let (verdict, states, leaves, best) = measure_sweep_run("E15", run_once);
    E15Row {
        system: system.to_string(),
        crash_budget: budget,
        max_states: config.max_states,
        mode,
        verdict,
        states,
        leaves,
        millis: best.as_secs_f64() * 1e3,
        states_per_sec: states as f64 / best.as_secs_f64().max(1e-9),
        reduction: 1.0,
        reduction_is_lower_bound: false,
    }
}

/// Finishes one E15 instance: computes reductions against the off row
/// and asserts the invariants every reduced mode must satisfy — when
/// the off side verified, every reduced row verifies with the same
/// weighted leaf count. State counts are *not* monotone under POR: the
/// sleep mask is part of node identity (that is what keeps the engines
/// deterministic), so a state re-reached along paths with incomparable
/// sleep sets splits into several entries, and the sweep honestly
/// records the configurations where that cost outweighs the pruning
/// (reduction below 1.0×).
fn e15_finish(off: E15Row, mut reduced: Vec<E15Row>) -> Vec<E15Row> {
    for r in &mut reduced {
        if off.verdict == "Verified" {
            assert_eq!(
                r.verdict, "Verified",
                "{}/{} {}: must verify when off verifies",
                off.system, off.crash_budget, r.mode
            );
            assert_eq!(
                r.leaves, off.leaves,
                "{}/{} {}: weighted leaf counts must agree",
                off.system, off.crash_budget, r.mode
            );
        } else {
            r.reduction_is_lower_bound = true;
        }
        r.reduction = off.states as f64 / r.states as f64;
    }
    let mut rows = vec![off];
    rows.append(&mut reduced);
    rows
}

/// E15: footprint-driven **partial-order reduction** (persistent +
/// sleep sets over the per-local-state access maps of
/// [`rc_runtime::analyze_system_states`], enabled by
/// `ExploreConfig::por`) — alone, against full-state symmetry, and
/// composed with it. Four modes per masked instance
/// (off / por / rebind / por+rebind); Fig. 4 (`SimultaneousRc`) runs
/// off / por only here: E13 showed no *owned-cell* orbit is sound there
/// (every process scans every round register), so within this sweep POR
/// is the reducer that still applies — E17 adds the certified
/// *scalarset* reduction and composes it with POR.
///
/// Where the reduction lives: crash transitions are dependent with
/// everything (the `CrashModel` adversary must stay complete), so a
/// node whose crash budget is not exhausted expands fully and the
/// pruning happens in **crash-free regions** — all of a budget-0 run,
/// and the post-crash layers of budget-≥1 runs. Budget-0 rows therefore
/// show POR's interleaving reduction cleanly and compose
/// multiplicatively with rebind (asserted), and so do the CrashAll
/// budget-1 rows, whose single all-reset crash child per pre-crash
/// state keeps the post-crash entry points few. The *independent*
/// budget-1 rows are recorded as the honest negative: sleep masks are
/// part of node identity (what keeps the engines deterministic), so the
/// many single-process crash children re-reach post-crash states along
/// paths with incomparable sleep sets and the splitting outweighs the
/// pruning. Verified reduced rows are asserted to match the off rows'
/// verdicts and weighted leaf counts exactly in every mode.
pub fn e15_por_reduction(fast: bool) -> (String, Vec<E15Row>) {
    // Masked team-RC instances, `(n, crash model, budget)` per row
    // group. Budget-0 rows show POR's crash-free interleaving reduction
    // cleanly and compose multiplicatively with rebind. The independent
    // budget-1 rows are the honest negative datapoint: each of the many
    // single-process crash children seeds the post-crash layer along
    // paths with incomparable sleep sets, and the resulting node
    // splitting outweighs the pruning (reduction below 1.0×). The
    // CrashAll (simultaneous) budget-1 rows restore the payoff — one
    // all-reset child per pre-crash state keeps the entry points few —
    // and carry the ISSUE's masked S_7/S_8 budget-1 composition
    // demonstration: off and por alone exceed the default 5M-state cap,
    // rebind and por+rebind verify exactly, por+rebind strictly below
    // rebind (asserted).
    struct MaskedInstance {
        n: usize,
        crash: CrashModel,
        budget: usize,
        simultaneous: bool,
    }
    let masked = |n: usize, budget: usize, simultaneous: bool| MaskedInstance {
        n,
        crash: if simultaneous {
            CrashModel::simultaneous(budget).after_decide(true)
        } else {
            CrashModel::independent(budget).after_decide(true)
        },
        budget,
        simultaneous,
    };
    let masked_sweep: Vec<MaskedInstance> = if fast {
        vec![masked(4, 0, false), masked(4, 1, false), masked(4, 1, true)]
    } else {
        vec![
            masked(5, 0, false),
            masked(5, 1, false),
            masked(5, 1, true),
            masked(7, 1, true),
            masked(8, 1, true),
        ]
    };
    let mut rows: Vec<E15Row> = Vec::new();
    for inst in &masked_sweep {
        let n = inst.n;
        let budget = inst.budget;
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let system = if inst.simultaneous {
            format!("masked S_{n} (CrashAll)")
        } else {
            format!("masked S_{n}")
        };
        let base = ExploreConfig {
            crash: inst.crash,
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        };
        let por_cfg = ExploreConfig {
            por: true,
            analysis_id: Some(format!("bench/e15/masked-S_{n}")),
            ..base.clone()
        };
        let off = e15_measure(&system, budget, "off", &base, &|| {
            explore(
                &|| build_masked_team_rc_system(ty.clone(), &w, &inputs),
                &base,
            )
        });
        let por = e15_measure(&system, budget, "por", &por_cfg, &|| {
            explore(
                &|| build_masked_team_rc_system(ty.clone(), &w, &inputs),
                &por_cfg,
            )
        });
        let rebind = e15_measure(&system, budget, "rebind", &base, &|| {
            rc_runtime::explore_symmetric(
                &|| build_masked_team_rc_system_sym(ty.clone(), &w, &inputs),
                &base,
            )
        });
        let both = e15_measure(&system, budget, "por+rebind", &por_cfg, &|| {
            rc_runtime::explore_symmetric(
                &|| build_masked_team_rc_system_sym(ty.clone(), &w, &inputs),
                &por_cfg,
            )
        });
        if budget == 0 {
            // Purely crash-free: POR must prune interleavings, and the
            // composition must beat symmetry alone.
            assert!(
                por.states < off.states,
                "{system}/0: POR must reduce the crash-free search"
            );
            assert!(
                both.states < rebind.states,
                "{system}/0: por+rebind must beat rebind alone"
            );
        }
        if inst.simultaneous {
            // The multiplicative composition demonstration: the CrashAll
            // post-crash layer prunes like a crash-free search, so POR
            // stacks on top of the rebind orbit collapse.
            assert_eq!(
                rebind.verdict, "Verified",
                "{system}/{budget} must verify under rebind"
            );
            assert_eq!(
                both.verdict, "Verified",
                "{system}/{budget} must verify under por+rebind"
            );
            assert!(
                both.states < rebind.states,
                "{system}/{budget}: por+rebind must beat rebind alone"
            );
            if off.verdict == "Verified" {
                assert!(
                    por.states < off.states,
                    "{system}/{budget}: POR must reduce the CrashAll search"
                );
            }
        }
        rows.extend(e15_finish(off, vec![por, rebind, both]));
    }
    // Fig. 4: owned-cell symmetry cannot touch it (the scalarset
    // fragment can — E17). POR's headroom comes from laggards — a
    // process still proposing to an already-settled round's consensus
    // object commutes with every process ahead of it (their crash-free
    // futures never revisit settled rounds).
    {
        let n = 3;
        let factory = ConsensusObjectFactory { domain: 4 };
        let inputs: Vec<Value> = (0..n as i64).map(Value::Int).collect();
        let horizon = 4;
        let system = format!("SimultaneousRc n={n}");
        let budgets: &[usize] = if fast { &[1] } else { &[0, 1] };
        for &budget in budgets {
            let base = ExploreConfig {
                crash: CrashModel::simultaneous(budget).after_decide(true),
                inputs: Some(inputs.clone()),
                ..ExploreConfig::default()
            };
            let por_cfg = ExploreConfig {
                por: true,
                analysis_id: Some(format!("bench/e15/simultaneous-rc-n{n}-h{horizon}")),
                ..base.clone()
            };
            let off = e15_measure(&system, budget, "off", &base, &|| {
                explore(
                    &|| build_simultaneous_rc_system(&factory, &inputs, horizon),
                    &base,
                )
            });
            let por = e15_measure(&system, budget, "por", &por_cfg, &|| {
                explore(
                    &|| build_simultaneous_rc_system(&factory, &inputs, horizon),
                    &por_cfg,
                )
            });
            assert!(
                por.states < off.states,
                "{system}/{budget}: POR must reduce the system symmetry cannot touch"
            );
            rows.extend(e15_finish(off, vec![por]));
        }
    }
    let mut t = Table::new(&[
        "system",
        "crash budget",
        "cap",
        "mode",
        "verdict",
        "states",
        "leaves",
        "ms",
        "states/sec",
        "reduction",
    ]);
    for r in &rows {
        t.row(&[
            r.system.clone(),
            r.crash_budget.to_string(),
            r.max_states.to_string(),
            r.mode.to_string(),
            r.verdict.clone(),
            r.states.to_string(),
            r.leaves.to_string(),
            format!("{:.1}", r.millis),
            format!("{:.0}", r.states_per_sec),
            match (r.mode, r.reduction_is_lower_bound) {
                ("off", _) => "1.0×".into(),
                (_, true) => format!("≥{:.1}×", r.reduction),
                (_, false) => format!("{:.1}×", r.reduction),
            },
        ]);
    }
    let headline = rows
        .iter()
        .filter(|r| r.mode == "por" && r.verdict == "Verified")
        .map(|r| (r.reduction, r.system.clone(), r.crash_budget))
        .fold((0.0f64, String::new(), 0usize), |acc, x| {
            if x.0 > acc.0 {
                x
            } else {
                acc
            }
        });
    let cap_note = if fast {
        "(the masked S_7/S_8 CrashAll budget-1 composition rows run in \
         the full sweep only)"
    } else {
        "the masked S_7/S_8 CrashAll budget-1 rows exceed the default \
         cap both plain and under POR alone and verify exactly under \
         rebind and por+rebind, por+rebind strictly below rebind — the \
         composition verifies instances neither reducer alone can \
         finish, and its reductions are lower bounds"
    };
    let report = format!(
        "E15 — footprint-driven partial-order reduction (persistent + \
         sleep sets over the per-local-state access maps; crash \
         transitions and decisions stay dependent with everything, so \
         the CrashModel adversary is complete and the pruning lives in \
         crash-free regions):\n{}\n\
         largest recorded POR-alone reduction: {:.1}× on {}/budget-{}; \
         Verified reduced rows match off verdicts and weighted leaf \
         counts exactly (asserted). SimultaneousRc — which no sound \
         *owned-cell* declaration can touch (E13; the certified \
         scalarset fragment reduces it in E17) — reduces under POR, and \
         on budget-0 and CrashAll instances por+rebind beats rebind \
         alone (asserted): the reducers compose. The independent \
         budget-1 rows are the honest cost datapoint — many \
         single-process crash children re-reach post-crash states with \
         incomparable sleep sets, and the node splitting outweighs the \
         pruning (below 1.0×). Also {cap_note}.\n",
        t.render(),
        headline.0,
        headline.1,
        headline.2,
    );
    (report, rows)
}

/// One row of the E16 storage-tier scaling sweep.
#[derive(Clone, Debug)]
pub struct E16Row {
    /// System under check: `"S_n"` (Fig. 2 team-RC, as in E11/E12) or
    /// `"masked S_n"` (the input-masked variant, as in E13/E15).
    pub system: String,
    /// Independent crash budget (post-decide crashes enabled).
    pub crash_budget: usize,
    /// Visited-set backend: `flat`, `packed`, `packed+filter` or
    /// `packed+spill` ([`rc_runtime::StorageTier`]). The `flat`
    /// baseline row runs at the catalog's historical cap and re-records
    /// its `Truncated` verdict.
    pub tier: String,
    /// `"unreduced"` (the plain search, the tier-parity grid) or
    /// `"por+rebind"` (both reducers composed on the masked instance —
    /// the storage tiers must stay exact under the reduced search too).
    pub mode: &'static str,
    /// The `max_states` cap the row ran under.
    pub max_states: usize,
    /// The `max_bytes` cap (0 = uncapped), charged in the DFS's
    /// acceptance order.
    pub max_bytes: usize,
    /// `Verified` / `Truncated` (a violation would panic the sweep).
    pub verdict: String,
    /// Distinct states visited — asserted identical across every tier
    /// of an instance's lifted-cap rows.
    pub states: usize,
    /// Weighted executions enumerated — asserted identical across the
    /// lifted-cap rows *and* against the catalog's reduced-engine
    /// record of the same instance, where one exists.
    pub leaves: usize,
    /// Wall-clock milliseconds of the (single) run — cap-scale searches
    /// are too long for a best-of loop (machine-dependent).
    pub millis: f64,
    /// `states / seconds` (machine-dependent).
    pub states_per_sec: f64,
    /// Peak resident visited-set MiB ([`rc_runtime::ExploreStats::peak_table_bytes`]).
    pub peak_table_mb: f64,
    /// MiB frozen into on-disk spill runs (0 without the spill tier).
    pub spilled_mb: f64,
    /// Bloom prefilter bits set (0 without the filter tier).
    pub filter_bits: usize,
    /// MiB held by the compacted witness log.
    pub witness_mb: f64,
}

fn e16_measure(
    system: &str,
    budget: usize,
    config: &ExploreConfig,
    run_once: &dyn Fn() -> (rc_runtime::ExploreOutcome, rc_runtime::ExploreStats),
) -> E16Row {
    use rc_runtime::ExploreOutcome;
    let start = std::time::Instant::now();
    let (outcome, stats) = run_once();
    let elapsed = start.elapsed();
    let (verdict, states, leaves) = match outcome {
        ExploreOutcome::Verified { states, leaves } => ("Verified".to_string(), states, leaves),
        ExploreOutcome::Truncated { states } => ("Truncated".to_string(), states, 0),
        ExploreOutcome::Violation { schedule, .. } => panic!(
            "E16 systems are correct; violation after {} actions",
            schedule.len()
        ),
    };
    const MB: f64 = (1 << 20) as f64;
    E16Row {
        system: system.to_string(),
        crash_budget: budget,
        tier: config.storage.to_string(),
        mode: "unreduced",
        max_states: config.max_states,
        max_bytes: config.max_bytes.unwrap_or(0),
        verdict,
        states,
        leaves,
        millis: elapsed.as_secs_f64() * 1e3,
        states_per_sec: states as f64 / elapsed.as_secs_f64().max(1e-9),
        peak_table_mb: stats.peak_table_bytes as f64 / MB,
        spilled_mb: stats.spilled_bytes as f64 / MB,
        filter_bits: stats.filter_occupancy,
        witness_mb: stats.witness_bytes as f64 / MB,
    }
}

/// E16: tiered, bit-packed state storage — the catalog instances the
/// default cap recorded as `Truncated` (E12's `S_8`/budget-0 off row,
/// E13's masked `S_7`/budget-0 off row), re-run **unreduced** with the
/// cap lifted under every storage tier
/// ([`ExploreConfig::storage`](rc_runtime::ExploreConfig)). Each
/// instance records:
///
/// * a `flat` **baseline** row at the historical 5M cap, re-recording
///   the catalog's `Truncated` verdict (asserted);
/// * a **lifted-cap grid** — one row per tier — every row asserted
///   `Verified` with byte-identical state and weighted-leaf counts, and
///   the leaf count asserted equal to what the catalog's *reduced*
///   searches (rebind / symmetry-on) computed for the same instance:
///   the full unreduced search independently confirms the reduction
///   machinery's answer;
/// * one **byte-capped** row (`ExploreConfig::max_bytes` generous
///   enough to verify) exercising the deterministic byte budget at
///   scale, asserted identical to the grid.
///
/// Exactness is the point: the filter tier can only *skip* probes that
/// would have found nothing and the spill tier compares full key bytes
/// on disk, so — unlike bitstate/supertrace hashing — every tier
/// returns the same exact verdict (see DESIGN §3).
pub fn e16_storage_scaling(fast: bool) -> (String, Vec<E16Row>) {
    struct Instance {
        n: usize,
        masked: bool,
        budget: usize,
        /// The cap the catalog row truncated at (shrunk in fast mode so
        /// the sweep still demonstrates Truncated → Verified cheaply).
        baseline_cap: usize,
        lifted_cap: usize,
        /// The instance's weighted leaf count as previously computed by
        /// a *reduced* catalog run (E12 symmetry-on / E13 rebind).
        expected_leaves: Option<usize>,
    }
    let sweep: Vec<Instance> = if fast {
        vec![
            Instance {
                n: 4,
                masked: true,
                budget: 0,
                baseline_cap: 1_000,
                lifted_cap: 5_000_000,
                expected_leaves: None,
            },
            Instance {
                n: 4,
                masked: false,
                budget: 2,
                baseline_cap: 1_000,
                lifted_cap: 5_000_000,
                expected_leaves: Some(12),
            },
        ]
    } else {
        vec![
            Instance {
                n: 7,
                masked: true,
                budget: 0,
                baseline_cap: 5_000_000,
                lifted_cap: 20_000_000,
                expected_leaves: Some(20),
            },
            Instance {
                n: 8,
                masked: false,
                budget: 0,
                baseline_cap: 5_000_000,
                lifted_cap: 20_000_000,
                expected_leaves: Some(23),
            },
        ]
    };
    // Small enough that every lifted-cap spill row freezes runs; run
    // probes stay cheap behind the per-run Blooms.
    let spill_threshold: usize = if fast { 4 << 10 } else { 8 << 20 };
    let byte_cap: usize = if fast { 256 << 20 } else { 8 << 30 };
    let mut rows: Vec<E16Row> = Vec::new();
    for inst in &sweep {
        let (ty, w) = sn_witness(inst.n);
        let inputs = team_inputs(&w.assignment);
        let system = if inst.masked {
            format!("masked S_{}", inst.n)
        } else {
            format!("S_{}", inst.n)
        };
        let factory = || {
            if inst.masked {
                build_masked_team_rc_system(ty.clone(), &w, &inputs)
            } else {
                build_team_rc_system(ty.clone(), &w, &inputs)
            }
        };
        let base = ExploreConfig {
            crash: CrashModel::independent(inst.budget).after_decide(true),
            inputs: Some(inputs.clone()),
            ..ExploreConfig::default()
        };
        let baseline_cfg = ExploreConfig {
            max_states: inst.baseline_cap,
            // The historical baseline ran on the flat table; it is the
            // opt-out now that `ExploreConfig::storage` defaults to
            // packed, so the row pins it explicitly.
            storage: StorageTier::Flat,
            ..base.clone()
        };
        let baseline = e16_measure(&system, inst.budget, &baseline_cfg, &|| {
            explore_with_stats(&factory, &baseline_cfg)
        });
        assert_eq!(
            baseline.verdict, "Truncated",
            "{system}/{}: the baseline cap must truncate",
            inst.budget
        );
        assert_eq!(
            baseline.states, inst.baseline_cap,
            "{system}/{}: Truncated reports exactly the cap",
            inst.budget
        );
        rows.push(baseline);
        let mut reference: Option<(usize, usize)> = None;
        for tier in StorageTier::ALL {
            let cfg = ExploreConfig {
                max_states: inst.lifted_cap,
                storage: tier,
                spill_threshold: (tier == StorageTier::PackedSpill).then_some(spill_threshold),
                ..base.clone()
            };
            let row = e16_measure(&system, inst.budget, &cfg, &|| {
                explore_with_stats(&factory, &cfg)
            });
            assert_eq!(
                row.verdict, "Verified",
                "{system}/{}: the lifted cap must verify exactly under {tier}",
                inst.budget
            );
            assert!(
                row.states > inst.baseline_cap,
                "{system}/{}: the instance must really exceed the baseline cap",
                inst.budget
            );
            if let Some(expected) = inst.expected_leaves {
                assert_eq!(
                    row.leaves, expected,
                    "{system}/{}: the unreduced search must reproduce the catalog's \
                     reduced-search weighted leaf count",
                    inst.budget
                );
            }
            match reference {
                None => reference = Some((row.states, row.leaves)),
                Some(r) => assert_eq!(
                    (row.states, row.leaves),
                    r,
                    "{system}/{}: byte-identical outcomes across tiers ({tier})",
                    inst.budget
                ),
            }
            if tier == StorageTier::PackedSpill {
                assert!(
                    row.spilled_mb > 0.0,
                    "{system}/{}: the spill row must freeze runs",
                    inst.budget
                );
            }
            if tier == StorageTier::PackedFilter {
                assert!(
                    row.filter_bits > 0,
                    "{system}/{}: the filter row must populate the Bloom",
                    inst.budget
                );
            }
            rows.push(row);
        }
        let byte_cfg = ExploreConfig {
            max_states: inst.lifted_cap,
            storage: StorageTier::PackedSpill,
            spill_threshold: Some(spill_threshold),
            max_bytes: Some(byte_cap),
            ..base.clone()
        };
        let byte_row = e16_measure(&system, inst.budget, &byte_cfg, &|| {
            explore_with_stats(&factory, &byte_cfg)
        });
        assert_eq!(
            (byte_row.verdict.as_str(), byte_row.states, byte_row.leaves),
            (
                "Verified",
                reference.expect("grid ran").0,
                reference.expect("grid ran").1
            ),
            "{system}/{}: the byte-budgeted run must match the grid exactly",
            inst.budget
        );
        rows.push(byte_row);
        if inst.masked {
            // The composed reducers (por+rebind, as in E15) on top of
            // the packed and spill tiers: the storage layer must stay
            // exact under the reduced search too — byte-identical
            // canonical state counts across tiers, and the same weighted
            // leaf count as the unreduced grid.
            let mut reduced_ref: Option<(usize, usize)> = None;
            for tier in [StorageTier::Packed, StorageTier::PackedSpill] {
                let cfg = ExploreConfig {
                    max_states: inst.lifted_cap,
                    storage: tier,
                    spill_threshold: (tier == StorageTier::PackedSpill).then_some(spill_threshold),
                    por: true,
                    analysis_id: Some(format!("bench/e16/masked-S_{}", inst.n)),
                    ..base.clone()
                };
                let mut row = e16_measure(&system, inst.budget, &cfg, &|| {
                    rc_runtime::explore_symmetric_with_stats(
                        &|| build_masked_team_rc_system_sym(ty.clone(), &w, &inputs),
                        &cfg,
                    )
                });
                row.mode = "por+rebind";
                assert_eq!(
                    row.verdict, "Verified",
                    "{system}/{}: the reduced run must verify under {tier}",
                    inst.budget
                );
                assert_eq!(
                    row.leaves,
                    reference.expect("grid ran").1,
                    "{system}/{}: reduced weighted leaves must match the unreduced grid",
                    inst.budget
                );
                assert!(
                    row.states < reference.expect("grid ran").0,
                    "{system}/{}: por+rebind must visit fewer states than unreduced",
                    inst.budget
                );
                match reduced_ref {
                    None => reduced_ref = Some((row.states, row.leaves)),
                    Some(r) => assert_eq!(
                        (row.states, row.leaves),
                        r,
                        "{system}/{}: reduced outcomes byte-identical across tiers ({tier})",
                        inst.budget
                    ),
                }
                rows.push(row);
            }
        }
    }
    let mut t = Table::new(&[
        "system", "budget", "tier", "mode", "cap", "byte cap", "verdict", "states", "leaves", "ms",
        "peak MB", "spill MB", "filter", "wit MB",
    ]);
    for r in &rows {
        t.row(&[
            r.system.clone(),
            r.crash_budget.to_string(),
            r.tier.clone(),
            r.mode.to_string(),
            r.max_states.to_string(),
            if r.max_bytes == 0 {
                "—".into()
            } else {
                format!("{}M", r.max_bytes >> 20)
            },
            r.verdict.clone(),
            r.states.to_string(),
            r.leaves.to_string(),
            format!("{:.0}", r.millis),
            format!("{:.1}", r.peak_table_mb),
            format!("{:.1}", r.spilled_mb),
            r.filter_bits.to_string(),
            format!("{:.1}", r.witness_mb),
        ]);
    }
    let largest = rows
        .iter()
        .filter(|r| r.verdict == "Verified")
        .max_by_key(|r| r.states)
        .expect("grid rows exist");
    let flat_peak = rows
        .iter()
        .filter(|r| r.tier == "flat" && r.verdict == "Verified")
        .map(|r| r.peak_table_mb)
        .fold(0.0f64, f64::max);
    let packed_peak = rows
        .iter()
        .filter(|r| r.tier == "packed" && r.verdict == "Verified")
        .map(|r| r.peak_table_mb)
        .fold(0.0f64, f64::max);
    let cap_note = if fast {
        "(fast mode shrinks both caps; the full sweep lifts the real 5M \
         catalog cap on masked S_7 and S_8)"
    } else {
        "the baseline rows re-record the catalog's 5M-cap Truncated \
         verdicts (E12 §S_8, E13 §masked S_7) that these grids move to \
         exact Verified"
    };
    let report = format!(
        "E16 — tiered, bit-packed state storage (packed arena keys, \
         Bloom prefilter, file-backed spill runs, byte budget): \
         previously-Truncated catalog instances re-run unreduced with \
         the cap lifted, across every storage tier:\n{}\n\
         largest exact search: {} states ({}/budget-{}); outcomes \
         byte-identical across all tiers, weighted leaf counts equal to \
         the catalog's reduced-search records, and the byte-budgeted run \
         matches the grid (all asserted). Peak resident visited-set on \
         the largest run: {:.0} MB flat \
         vs {:.0} MB packed. Spill rows freeze resident arenas to disk \
         behind per-run Blooms and stay exact — full key bytes are \
         compared on disk, never hash fingerprints alone. The masked \
         instance additionally re-runs with both reducers composed \
         (por+rebind, as in E15) on the packed and spill tiers: the \
         reduced search's canonical state counts are byte-identical \
         across tiers and its weighted leaves match the \
         unreduced grid (asserted) — the packed default \
         (`ExploreConfig::storage`) rests on this parity. Also \
         {cap_note}.\n",
        t.render(),
        largest.states,
        largest.system,
        largest.crash_budget,
        flat_peak,
        packed_peak,
    );
    (report, rows)
}

/// One measured configuration of the E17 scalarset-symmetry sweep.
#[derive(Clone, Debug)]
pub struct E17Row {
    /// System under check: `"SimultaneousRc n=k [inputs]"` — Fig. 4
    /// over atomic consensus objects, the system E13/E15 recorded as
    /// untouchable by owned-cell symmetry (reduction pinned at 1.0×).
    pub system: String,
    /// Simultaneous crash budget (post-decide crashes enabled).
    pub crash_budget: usize,
    /// The `max_states` cap the row ran under.
    pub max_states: usize,
    /// `"off"` (plain search), `"scalarset"` (the certified scalarset
    /// family permutes with the process orbits) or `"scalarset+por"`
    /// (composed with partial-order reduction).
    pub mode: &'static str,
    /// `Verified` / `Truncated` (a violation would panic the sweep).
    pub verdict: String,
    /// Distinct states visited (canonical representatives under the
    /// scalarset modes).
    pub states: usize,
    /// Weighted executions enumerated; Verified reduced rows must match
    /// the off rows exactly (asserted).
    pub leaves: usize,
    /// Wall-clock milliseconds of the best run (machine-dependent).
    pub millis: f64,
    /// `states / seconds` (machine-dependent).
    pub states_per_sec: f64,
    /// `states(off) / states(this row)`.
    pub reduction: f64,
}

fn e17_measure(
    system: &str,
    budget: usize,
    mode: &'static str,
    config: &ExploreConfig,
    run_once: &dyn Fn() -> rc_runtime::ExploreOutcome,
) -> E17Row {
    let (verdict, states, leaves, best) = measure_sweep_run("E17", run_once);
    E17Row {
        system: system.to_string(),
        crash_budget: budget,
        max_states: config.max_states,
        mode,
        verdict,
        states,
        leaves,
        millis: best.as_secs_f64() * 1e3,
        states_per_sec: states as f64 / best.as_secs_f64().max(1e-9),
        reduction: 1.0,
    }
}

/// E17: **scalarset symmetry for Fig. 4** — the reduction E13 and E15
/// recorded as impossible under owned-cell orbits. The line-44
/// termination scan cross-reads every round register, so the registers
/// can never be owner-only; but remodeled as an order-insensitive fold
/// (a checked-position mask with the visit order as internal
/// nondeterminism) they form a certifiable **scalarset family**
/// ([`rc_runtime::SymmetrySpec::with_scalarset`]): at search start the
/// scalarset certifier ([`rc_runtime::lint_scalarset`]) proves every
/// family transposition leaves the memoized local-state graphs
/// equivariant — bystander graph matching, member exchange, rebind
/// fidelity, spot re-executions — and only then does the search permute
/// the family with the process slots (mid-scan *pinned* states forgo
/// reduction; decided states are never pinned, so leaf weights stay
/// exact).
///
/// Three modes per instance — off / scalarset / scalarset+por.
/// Asserted: Verified reduced rows match the off rows' weighted leaf
/// counts exactly; the scalarset mode
/// strictly reduces (Fig. 4 leaves 1.0× behind); and scalarset+por
/// strictly beats scalarset alone wherever POR alone reduced (E15's
/// 2.1× composes).
pub fn e17_scalarset_symmetry(fast: bool) -> (String, Vec<E17Row>) {
    struct Instance {
        inputs: Vec<Value>,
        label: &'static str,
        budget: usize,
        horizon: usize,
    }
    let inst = |inputs: Vec<i64>, label, budget, horizon| Instance {
        inputs: inputs.into_iter().map(Value::Int).collect(),
        label,
        budget,
        horizon,
    };
    // Equal inputs put every process in one orbit (the full symmetric
    // group acts); the mixed instance keeps a singleton orbit alongside
    // — the family still permutes under the acting orbit only.
    let sweep: Vec<Instance> = if fast {
        vec![inst(vec![0, 0, 1], "inputs 0,0,1", 1, 4)]
    } else {
        vec![
            inst(vec![0, 0, 0], "inputs 0,0,0", 1, 4),
            inst(vec![0, 0, 1], "inputs 0,0,1", 1, 4),
            inst(vec![0, 0, 0], "inputs 0,0,0", 0, 4),
        ]
    };
    let factory = ConsensusObjectFactory { domain: 4 };
    let mut rows: Vec<E17Row> = Vec::new();
    for inst in &sweep {
        let n = inst.inputs.len();
        let system = format!("SimultaneousRc n={n} ({})", inst.label);
        let analysis_id = format!(
            "bench/e17/simultaneous-rc-n{n}-{}-h{}",
            inst.label, inst.horizon
        );
        let base = ExploreConfig {
            crash: CrashModel::simultaneous(inst.budget).after_decide(true),
            inputs: Some(inst.inputs.clone()),
            analysis_id: Some(analysis_id.clone()),
            ..ExploreConfig::default()
        };
        let por_cfg = ExploreConfig {
            por: true,
            ..base.clone()
        };
        let mut per_mode: Vec<(usize, usize)> = Vec::new(); // (states, leaves) per mode
        for (mode, cfg, symmetric) in [
            ("off", &base, false),
            ("scalarset", &base, true),
            ("scalarset+por", &por_cfg, true),
        ] {
            let row = e17_measure(&system, inst.budget, mode, cfg, &|| {
                if symmetric {
                    rc_runtime::explore_symmetric(
                        &|| build_simultaneous_rc_system_sym(&factory, &inst.inputs, inst.horizon),
                        cfg,
                    )
                } else {
                    explore(
                        &|| build_simultaneous_rc_system(&factory, &inst.inputs, inst.horizon),
                        cfg,
                    )
                }
            });
            assert_eq!(
                row.verdict, "Verified",
                "{system}/{}: every E17 row must verify ({mode})",
                inst.budget
            );
            per_mode.push((row.states, row.leaves));
            rows.push(row);
        }
        let (off, scal, both) = (per_mode[0], per_mode[1], per_mode[2]);
        assert_eq!(
            scal.1, off.1,
            "{system}/{}: scalarset weighted leaves must match off",
            inst.budget
        );
        assert_eq!(
            both.1, off.1,
            "{system}/{}: scalarset+por weighted leaves must match off",
            inst.budget
        );
        assert!(
            scal.0 < off.0,
            "{system}/{}: the certified scalarset must reduce the search \
             ({} vs {} states)",
            inst.budget,
            scal.0,
            off.0
        );
        assert!(
            both.0 < scal.0,
            "{system}/{}: scalarset+por must beat scalarset alone \
             ({} vs {} states)",
            inst.budget,
            both.0,
            scal.0
        );
        let off_states = off.0;
        for row in rows.iter_mut().rev() {
            if row.system != system || row.crash_budget != inst.budget {
                break;
            }
            row.reduction = off_states as f64 / row.states as f64;
        }
    }
    let mut t = Table::new(&[
        "system",
        "crash budget",
        "cap",
        "mode",
        "verdict",
        "states",
        "leaves",
        "ms",
        "states/sec",
        "reduction",
    ]);
    for r in &rows {
        t.row(&[
            r.system.clone(),
            r.crash_budget.to_string(),
            r.max_states.to_string(),
            r.mode.to_string(),
            r.verdict.clone(),
            r.states.to_string(),
            r.leaves.to_string(),
            format!("{:.1}", r.millis),
            format!("{:.0}", r.states_per_sec),
            if r.mode == "off" {
                "1.0×".into()
            } else {
                format!("{:.1}×", r.reduction)
            },
        ]);
    }
    let headline = rows
        .iter()
        .filter(|r| r.mode == "scalarset+por")
        .map(|r| (r.reduction, r.system.clone(), r.crash_budget))
        .fold((0.0f64, String::new(), 0usize), |acc, x| {
            if x.0 > acc.0 {
                x
            } else {
                acc
            }
        });
    let report = format!(
        "E17 — scalarset symmetry for Fig. 4 (SimultaneousRc): the line-44 \
         termination scan, remodeled as an order-insensitive fold over a \
         checked-position mask, makes the round registers a certifiable \
         scalarset family; the equivariance certificate (lint_scalarset: \
         transposition graph matching, member exchange, rebind fidelity, \
         spot re-executions) is checked at search start, and only then \
         does canonicalization permute the family with the process \
         slots — mid-scan pinned states forgo reduction, decided states \
         are never pinned, so weights stay exact:\n{}\n\
         largest composed reduction: {:.1}× on {}/budget-{}; all rows \
         Verified, reduced weighted leaf counts equal to off, scalarset \
         strictly below off, and scalarset+por strictly below scalarset \
         (all asserted) — the reducers compound on the system E13/E15 \
         recorded at 1.0× under owned-cell symmetry.\n",
        t.render(),
        headline.0,
        headline.1,
        headline.2,
    );
    (report, rows)
}

/// One catalog system of the E18 swarm-verification sweep.
#[derive(Clone, Debug)]
pub struct E18Row {
    /// Swarm catalog id (`swarm run --system <id>`).
    pub system: String,
    /// The system's default crash adversary, in the `swarm --crash`
    /// spec grammar (`none`, `independent:<b>[:after-decide]`, …).
    pub crash: String,
    /// Per-decision crash probability of the seeded scheduler.
    pub crash_prob: f64,
    /// Seeds swept (the range starts at seed 0).
    pub seeds: u64,
    /// Worker threads the sweep used (the deterministic columns are
    /// independent of this; asserted inside the experiment).
    pub threads: usize,
    /// Distinct final memory+program states over all runs — an exact
    /// set cardinality via the packed visited-set tables, not a sketch.
    pub distinct_finals: usize,
    /// Violating seeds found (0 on every correct system; asserted).
    pub violations: usize,
    /// Smallest violating seed, when any — `swarm replay --seed N`
    /// reproduces it byte-identically.
    pub first_violating_seed: Option<u64>,
    /// Action count of that seed's replayed schedule.
    pub original_len: Option<usize>,
    /// Action count of its 1-minimal shrunken witness (delta-debugged,
    /// re-verified through the witness-log replay path).
    pub min_witness: Option<usize>,
    /// Wall-clock milliseconds (machine-dependent).
    pub millis: f64,
    /// Executions per second (machine-dependent).
    pub runs_per_sec: f64,
}

/// E18: the swarm-verification sweep — every system of the swarm
/// catalog under its default adversary, seeded schedules fanned across
/// all cores (DESIGN.md §3, *Swarm verification & schedule shrinking*).
///
/// Where E11–E17 verify exhaustively up to a frontier, E18 samples
/// *past* it: millions of independent seeded executions whose verdicts
/// extend the exhaustive result probabilistically. The experiment
/// asserts the service's contract end to end:
///
/// - every correct catalog system sweeps clean under its default
///   adversary, and the seeded `broken-team-rc` bug is found;
/// - the first violating seed replays deterministically to the same
///   violation ([`replay_seed`](rc_runtime::replay_seed));
/// - its schedule shrinks to a 1-minimal, crash-legal subsequence that
///   still violates and re-verifies through the witness log;
/// - the deterministic aggregates (violating seeds, distinct final
///   states, step/crash totals) are byte-identical across thread
///   counts (checked at 1 vs. all cores on the first catalog entry).
///
/// `fast` sweeps 200 seeds per system (the tier-1 suite); the full run
/// sweeps 20 000 (the snapshot row set). The ≥10⁶-seed headline run is
/// recorded in `EXPERIMENTS.md` §E18 from `swarm run` directly — at
/// that scale the row would dominate the `tables` wall clock.
///
/// # Panics
///
/// Panics if any of the asserted contract clauses above fails.
pub fn e18_swarm(fast: bool) -> (String, Vec<E18Row>) {
    use crate::swarm_catalog::swarm_catalog;
    use crate::swarm_cli::crash_spec;
    use rc_runtime::swarm::swarm;
    use rc_runtime::{is_subsequence, replay_seed, shrink_schedule};

    let seeds: u64 = if fast { 200 } else { 20_000 };
    let systems = swarm_catalog();
    let mut rows: Vec<E18Row> = Vec::new();
    for (i, sys) in systems.iter().enumerate() {
        let config = sys.config(0, seeds, 0);
        let report = swarm(sys.factory(), &config);
        assert_eq!(report.runs, seeds, "{}: every seed ran", sys.id);
        assert_eq!(
            report.violations.is_empty(),
            !sys.expect_violation,
            "{}: verdict under the default adversary",
            sys.id
        );
        if i == 0 {
            // Thread-count invariance, spot-checked on the first entry
            // at a reduced seed count: the deterministic summary of a
            // 1-thread sweep must be byte-identical to a parallel one.
            let small = 100.min(seeds);
            let serial = sys.config(0, small, 1);
            let wide = sys.config(0, small, 0);
            assert_eq!(
                swarm(sys.factory(), &serial).deterministic_summary(),
                swarm(sys.factory(), &wide).deterministic_summary(),
                "{}: aggregates depend on thread count",
                sys.id
            );
        }
        let (mut first_seed, mut original_len, mut min_witness) = (None, None, None);
        if let Some(v) = report.violations.first() {
            let rerun = replay_seed(sys.factory(), &config, v.seed);
            assert_eq!(
                rerun.verdict.as_ref().err(),
                Some(&v.violation),
                "{}: seed {} must replay to the reported violation",
                sys.id,
                v.seed
            );
            let schedule = rerun.execution.trace.to_actions();
            let shrunk = shrink_schedule(sys.factory(), &config, &schedule)
                .expect("a replayed safety violation must shrink");
            assert!(
                is_subsequence(&shrunk.schedule, &schedule),
                "{}: witness is a subsequence",
                sys.id
            );
            assert!(shrunk.witness_verified, "{}: witness-log replay", sys.id);
            first_seed = Some(v.seed);
            original_len = Some(schedule.len());
            min_witness = Some(shrunk.schedule.len());
        }
        rows.push(E18Row {
            system: sys.id.to_string(),
            crash: crash_spec(&sys.crash),
            crash_prob: sys.crash_prob,
            seeds,
            threads: report.threads_used,
            distinct_finals: report.distinct_final_states,
            violations: report.violations.len(),
            first_violating_seed: first_seed,
            original_len,
            min_witness,
            millis: report.elapsed_millis,
            runs_per_sec: report.runs_per_sec,
        });
    }
    let mut t = Table::new(&[
        "system",
        "adversary",
        "p",
        "seeds",
        "thr",
        "finals",
        "viol",
        "first",
        "witness",
        "runs/s",
    ]);
    for r in &rows {
        t.row(&[
            r.system.clone(),
            r.crash.clone(),
            format!("{:.2}", r.crash_prob),
            r.seeds.to_string(),
            r.threads.to_string(),
            r.distinct_finals.to_string(),
            r.violations.to_string(),
            r.first_violating_seed
                .map_or_else(|| "—".into(), |s| s.to_string()),
            match (r.original_len, r.min_witness) {
                (Some(o), Some(m)) => format!("{o}→{m}"),
                _ => "—".into(),
            },
            format!("{:.0}", r.runs_per_sec),
        ]);
    }
    let bug = rows
        .iter()
        .find(|r| r.violations > 0)
        .expect("the seeded bug row exists");
    let report = format!(
        "E18 — swarm verification over the catalog: seeded random \
         schedules under each system's default adversary, aggregates \
         thread-count-invariant (asserted), every correct system clean \
         and the Section 3.1 seeded bug surfaced at seed {} with its \
         schedule delta-debugged {} → {} actions into a crash-legal, \
         witness-log-verified 1-minimal counterexample:\n{}\
         replay/shrink any reported seed: `swarm replay --system <id> \
         --seed N`, `swarm shrink --system <id> --seed N`.\n",
        bug.first_violating_seed.expect("violating seed recorded"),
        bug.original_len.expect("original length recorded"),
        bug.min_witness.expect("witness length recorded"),
        t.render(),
    );
    (report, rows)
}

/// Renders the E11 + E12 + E13 + E15 + E16 + E17 + E18 rows as the
/// `BENCH_explore.json` snapshot: a stable, diff-friendly record of the
/// engine trajectory across PRs. The host core count is recorded so
/// trajectory points from different machines stay comparable (it
/// matters for the swarm's E18 rates; the exhaustive searches run on one
/// core) — the CI `bench-record` job regenerates the snapshot and
/// uploads it as an artifact.
///
/// Schema migration: version 6 drops `engine` and `vs_serial` from
/// `e11_rows` and `threads` from `e16_rows` and `e17_rows` (the
/// exhaustive checker has one engine, the DFS, so those columns carried
/// nothing but the deleted parallel frontier); version 5 added `e18_rows` (the swarm-verification
/// sweep; `first_violating_seed`, `original_len` and `min_witness` are
/// `null` on clean rows) and requires `e18` in the regenerate command;
/// version 4 added `e17_rows` (the scalarset-symmetry sweep) and a
/// `mode` field on `e16_rows` (the por+rebind tier-parity rows);
/// version 3 added `e16_rows` (the storage-tier scaling sweep);
/// version 2 added the `schema` field itself plus `e15_rows` (the POR
/// sweep). Up to version 5 earlier row sets were unchanged in shape at
/// each step; version 6 is the first to remove keys, so a reader of the
/// dropped columns must treat them as absent.
pub fn snapshot_json(
    e11: &[E11Row],
    e12: &[E12Row],
    e13: &[E13Row],
    e15: &[E15Row],
    e16: &[E16Row],
    e17: &[E17Row],
    e18: &[E18Row],
) -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 6,\n");
    out.push_str(
        "  \"regenerate\": \"cargo run -p rc-bench --release --bin tables -- e11 e12 e13 e15 \
         e16 e17 e18 --snapshot\",\n",
    );
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str(
        "  \"note\": \"states and leaves are deterministic; millis, states_per_sec, \
         runs_per_sec and reduction are machine-dependent\",\n",
    );
    out.push_str("  \"e11_rows\": [\n");
    for (i, r) in e11.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"crash_budget\": {}, \"verdict\": \"{}\", \
             \"states\": {}, \"leaves\": {}, \"millis\": {:.1}, \"states_per_sec\": {:.0}}}{}\n",
            r.system,
            r.crash_budget,
            r.verdict,
            r.states,
            r.leaves,
            r.millis,
            r.states_per_sec,
            if i + 1 == e11.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"e12_rows\": [\n");
    for (i, r) in e12.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"crash_budget\": {}, \"max_states\": {}, \
             \"symmetry\": \"{}\", \"verdict\": \"{}\", \"states\": {}, \"leaves\": {}, \
             \"millis\": {:.1}, \"states_per_sec\": {:.0}, \"reduction\": {:.1}}}{}\n",
            r.system,
            r.crash_budget,
            r.max_states,
            r.symmetry,
            r.verdict,
            r.states,
            r.leaves,
            r.millis,
            r.states_per_sec,
            r.reduction,
            if i + 1 == e12.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"e13_rows\": [\n");
    for (i, r) in e13.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"crash_budget\": {}, \"max_states\": {}, \
             \"mode\": \"{}\", \"verdict\": \"{}\", \"states\": {}, \"leaves\": {}, \
             \"millis\": {:.1}, \"states_per_sec\": {:.0}, \"reduction\": {:.1}, \
             \"reduction_is_lower_bound\": {}}}{}\n",
            r.system,
            r.crash_budget,
            r.max_states,
            r.mode,
            r.verdict,
            r.states,
            r.leaves,
            r.millis,
            r.states_per_sec,
            r.reduction,
            r.reduction_is_lower_bound,
            if i + 1 == e13.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"e15_rows\": [\n");
    for (i, r) in e15.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"crash_budget\": {}, \"max_states\": {}, \
             \"mode\": \"{}\", \"verdict\": \"{}\", \"states\": {}, \"leaves\": {}, \
             \"millis\": {:.1}, \"states_per_sec\": {:.0}, \"reduction\": {:.1}, \
             \"reduction_is_lower_bound\": {}}}{}\n",
            r.system,
            r.crash_budget,
            r.max_states,
            r.mode,
            r.verdict,
            r.states,
            r.leaves,
            r.millis,
            r.states_per_sec,
            r.reduction,
            r.reduction_is_lower_bound,
            if i + 1 == e15.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"e16_rows\": [\n");
    for (i, r) in e16.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"crash_budget\": {}, \"tier\": \"{}\", \
             \"mode\": \"{}\", \"max_states\": {}, \"max_bytes\": {}, \"verdict\": \"{}\", \
             \"states\": {}, \"leaves\": {}, \"millis\": {:.1}, \"states_per_sec\": {:.0}, \
             \"peak_table_mb\": {:.1}, \"spilled_mb\": {:.1}, \"filter_bits\": {}, \
             \"witness_mb\": {:.1}}}{}\n",
            r.system,
            r.crash_budget,
            r.tier,
            r.mode,
            r.max_states,
            r.max_bytes,
            r.verdict,
            r.states,
            r.leaves,
            r.millis,
            r.states_per_sec,
            r.peak_table_mb,
            r.spilled_mb,
            r.filter_bits,
            r.witness_mb,
            if i + 1 == e16.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"e17_rows\": [\n");
    for (i, r) in e17.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"crash_budget\": {}, \"max_states\": {}, \
             \"mode\": \"{}\", \"verdict\": \"{}\", \"states\": {}, \"leaves\": {}, \
             \"millis\": {:.1}, \"states_per_sec\": {:.0}, \"reduction\": {:.1}}}{}\n",
            r.system,
            r.crash_budget,
            r.max_states,
            r.mode,
            r.verdict,
            r.states,
            r.leaves,
            r.millis,
            r.states_per_sec,
            r.reduction,
            if i + 1 == e17.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"e18_rows\": [\n");
    let or_null = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
    for (i, r) in e18.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"system\": \"{}\", \"crash\": \"{}\", \"crash_prob\": {:.2}, \
             \"seeds\": {}, \"threads\": {}, \"distinct_finals\": {}, \"violations\": {}, \
             \"first_violating_seed\": {}, \"original_len\": {}, \"min_witness\": {}, \
             \"millis\": {:.1}, \"runs_per_sec\": {:.0}}}{}\n",
            r.system,
            r.crash,
            r.crash_prob,
            r.seeds,
            r.threads,
            r.distinct_finals,
            r.violations,
            or_null(r.first_violating_seed),
            or_null(r.original_len.map(|v| v as u64)),
            or_null(r.min_witness.map(|v| v as u64)),
            r.millis,
            r.runs_per_sec,
            if i + 1 == e18.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// A system of the lint catalog: builds the memory, the programs and
/// (when the catalog ships one) the symmetry declaration to audit.
pub type LintSystemFn = Box<
    dyn Fn() -> (
        Memory,
        Vec<Box<dyn Program>>,
        Option<rc_runtime::SymmetrySpec>,
    ),
>;

/// The E14 / `tables lint` system catalog: every shipped system builder
/// (the `_sym` variants where they exist, so the owned-cell and orbit
/// declarations are audited too) at the instance sizes the experiments
/// use. The paper's Fig. 7 universal construction is exercised through
/// its RC building blocks (each `next`-pointer instance is a catalog
/// consensus object); its workers' node-pool state space defeats the
/// per-process fixpoint budget, so it is audited structurally via E6's
/// history audit instead of appearing here.
pub fn lint_catalog() -> Vec<(String, LintSystemFn)> {
    let tn_witness = |n: usize| {
        let tn = Tn::new(n);
        let a = Assignment::split(
            Tn::forget_state(),
            vec![Tn::op_a(); n / 2],
            vec![Tn::op_b(); n - n / 2],
        );
        let w = check_discerning(&tn, &a).expect("T_n witness");
        (Arc::new(tn) as TypeHandle, w)
    };
    let mut catalog: Vec<(String, LintSystemFn)> = Vec::new();
    {
        let (ty, w) = tn_witness(4);
        let inputs = team_inputs(&w.assignment);
        let (ty2, w2, inputs2) = (ty.clone(), w.clone(), inputs.clone());
        catalog.push((
            "team consensus T_4 (sym)".into(),
            Box::new(move || {
                let (mem, programs, spec) =
                    build_team_consensus_system_sym(ty.clone(), &w, &inputs);
                (mem, programs, Some(spec))
            }),
        ));
        catalog.push((
            "masked team consensus T_4 (sym)".into(),
            Box::new(move || {
                let (mem, programs, spec) =
                    build_masked_team_consensus_system_sym(ty2.clone(), &w2, &inputs2);
                (mem, programs, Some(spec))
            }),
        ));
    }
    {
        let (ty, w) = tn_witness(4);
        let inputs = team_inputs(&w.assignment);
        catalog.push((
            "tournament consensus T_4".into(),
            Box::new(move || {
                let (mem, programs) = build_tournament_consensus(ty.clone(), &w, &inputs);
                (mem, programs, None)
            }),
        ));
    }
    for (name, broken) in [("team RC", false), ("broken team RC", true)] {
        let (ty, w) = sn_witness(3);
        let inputs = team_inputs(&w.assignment);
        let (ty2, w2, inputs2) = (ty.clone(), w.clone(), inputs.clone());
        catalog.push((
            format!("{name} S_3 (sym)"),
            Box::new(move || {
                let (mem, programs, spec) = if broken {
                    build_broken_team_rc_system_sym(ty.clone(), &w, &inputs)
                } else {
                    build_team_rc_system_sym(ty.clone(), &w, &inputs)
                };
                (mem, programs, Some(spec))
            }),
        ));
        catalog.push((
            format!("masked {name} S_3 (sym)"),
            Box::new(move || {
                let (mem, programs, spec) = if broken {
                    build_masked_broken_team_rc_system_sym(ty2.clone(), &w2, &inputs2)
                } else {
                    build_masked_team_rc_system_sym(ty2.clone(), &w2, &inputs2)
                };
                (mem, programs, Some(spec))
            }),
        ));
    }
    {
        let (ty, w) = sn_witness(3);
        let inputs: Vec<Value> = (0..3).map(|i| Value::Int(i as i64)).collect();
        catalog.push((
            "tournament RC S_3".into(),
            Box::new(move || {
                let (mem, programs) = build_tournament_rc(ty.clone(), &w, &inputs);
                (mem, programs, None)
            }),
        ));
    }
    {
        // Distinct inputs: every orbit is a singleton, so the declared
        // round-register family is *inert* — the certifier records the
        // warning and the engines never permute it.
        let inputs: Vec<Value> = (0..2i64).map(Value::Int).collect();
        catalog.push((
            "SimultaneousRc n=2 (sym)".into(),
            Box::new(move || {
                let factory = ConsensusObjectFactory { domain: 4 };
                let (mem, programs, spec) = build_simultaneous_rc_system_sym(&factory, &inputs, 3);
                (mem, programs, Some(spec))
            }),
        ));
    }
    {
        // Equal-input orbit: the round-register scalarset family
        // *moves*, so the gate runs the full equivariance certificate —
        // the declaration the E17 reduction rests on.
        let inputs = vec![Value::Int(0), Value::Int(0), Value::Int(1)];
        catalog.push((
            "SimultaneousRc n=3 scalarset (sym)".into(),
            Box::new(move || {
                let factory = ConsensusObjectFactory { domain: 4 };
                let (mem, programs, spec) = build_simultaneous_rc_system_sym(&factory, &inputs, 3);
                (mem, programs, Some(spec))
            }),
        ));
    }
    catalog
}

/// One catalog system's audit result.
pub struct E14Row {
    /// Catalog entry name (`(sym)` marks audited symmetry declarations).
    pub system: String,
    /// Number of processes.
    pub n: usize,
    /// Shared cells allocated by the builder.
    pub cells: usize,
    /// Memoized per-process local states the fixpoint visited (summed).
    pub local_states: usize,
    /// Instrumented step probes the fixpoint ran.
    pub probes: usize,
    /// Total `(process, cell)` access pairs under the **crash-free**
    /// footprint (no `on_crash` edges).
    pub accesses_crash_free: usize,
    /// The same under the **crash** footprint (`on_crash` edges
    /// included) — the sound one the lint verdict is based on.
    pub accesses_crash: usize,
    /// Statically-independent process pairs (disjoint write∩access
    /// footprints), from the crash footprint.
    pub independent_pairs: usize,
    /// Cells touched by exactly one process: derivable owned-cell
    /// candidates.
    pub derived_owned: usize,
    /// Lint errors (under-declarations, owner-only violations).
    pub errors: Vec<String>,
    /// Lint warnings (over-declarations, inert ownership).
    pub warnings: Vec<String>,
    /// Ample-set soundness lint ([`rc_runtime::lint_ample`]) errors.
    /// `A1`/`A2` mark the system *POR-ineligible* (the engine refuses
    /// it, so nothing unsound can run) and do not fail the gate;
    /// `A3`–`A5` are soundness failures and do.
    pub ample_errors: Vec<String>,
    /// Ample-set lint warnings (e.g. "POR will not reduce this system").
    pub ample_warnings: Vec<String>,
    /// Whether the audited spec declares scalarset families
    /// ([`rc_runtime::SymmetrySpec::with_scalarset`]).
    pub has_scalarsets: bool,
    /// Scalarset equivariance certifier ([`rc_runtime::lint_scalarset`])
    /// errors. Any error fails the gate: the engines refuse to permute
    /// an uncertified family at search start, but the catalog must
    /// never ship a declaration the certifier rejects.
    pub scalarset_errors: Vec<String>,
    /// Scalarset certifier warnings (inert families, no declarations).
    pub scalarset_warnings: Vec<String>,
    /// States visited by the ample lint's dynamic commutation
    /// spot-check.
    pub spot_states: usize,
    /// Pruned-order pair re-executions the spot-check performed.
    pub spot_pairs: usize,
}

/// Audits every catalog system; the row order is the catalog order.
///
/// # Panics
///
/// Panics if the footprint analysis itself fails on a catalog system
/// (budget exhaustion or a contract violation) — the catalog is sized to
/// be analyzable, so a failure is a defect, not a verdict.
pub fn catalog_lint_rows() -> Vec<E14Row> {
    use rc_runtime::{
        analyze_system, lint_ample, lint_with_analysis, system_analysis_cached, AnalysisBudget,
        StaticIndependence,
    };
    lint_catalog()
        .into_iter()
        .map(|(system, build)| {
            let (mem, programs, spec) = build();
            let crash_free = analyze_system(&mem, &programs, false, AnalysisBudget::default())
                .unwrap_or_else(|e| panic!("{system}: crash-free analysis failed: {e}"));
            // One cached per-state analysis per catalog id serves the
            // declaration lint, the ample lint below and any POR run on
            // the same id — the fixpoint no longer re-runs per consumer
            // (asserted in `catalog_lint_shares_one_analysis_per_system`).
            let analysis_id = format!("bench/lint/{system}");
            let analysis =
                system_analysis_cached(&analysis_id, &mem, &programs, AnalysisBudget::default())
                    .unwrap_or_else(|e| panic!("{system}: analysis failed: {e}"));
            let report = lint_with_analysis(&analysis, &mem, &programs, spec.as_ref());
            let scalarset = spec
                .as_ref()
                .filter(|s| !s.scalarset_families().is_empty())
                .map(|s| rc_runtime::lint_scalarset(&mem, &programs, s, AnalysisBudget::default()));
            let (mem2, programs2, spec2) = build();
            let ample = lint_ample(
                mem2,
                programs2,
                spec2.as_ref(),
                &CrashModel::independent(1).after_decide(true),
                Some(&analysis_id),
                128,
            );
            let count = |fp: &rc_runtime::SystemFootprint| -> usize {
                fp.per_process.iter().map(|p| p.cells.len()).sum()
            };
            let indep = StaticIndependence::from_footprint(&report.footprint);
            E14Row {
                system,
                n: programs.len(),
                cells: mem.len(),
                local_states: report
                    .footprint
                    .per_process
                    .iter()
                    .map(|p| p.local_states)
                    .sum(),
                probes: report.footprint.probes,
                accesses_crash_free: count(&crash_free),
                accesses_crash: count(&report.footprint),
                independent_pairs: indep.independent_pairs().len(),
                derived_owned: report.derived_owned.iter().map(Vec::len).sum(),
                errors: report.errors,
                warnings: report.warnings,
                ample_errors: ample.errors,
                ample_warnings: ample.warnings,
                has_scalarsets: scalarset.is_some(),
                scalarset_errors: scalarset
                    .as_ref()
                    .map(|r| r.errors.clone())
                    .unwrap_or_default(),
                scalarset_warnings: scalarset
                    .as_ref()
                    .map(|r| r.warnings.clone())
                    .unwrap_or_default(),
                spot_states: ample.spot_states,
                spot_pairs: ample.spot_pairs,
            }
        })
        .collect()
}

/// Classifies a row's ample-set lint result for the E14 gate:
/// `Ok(verdict)` keeps the gate green (`"clean"`, `"clean (k warnings)"`
/// or `"ineligible"` — the engine refuses POR on A1/A2 systems, so
/// nothing unsound can run), `Err(verdict)` fails it (an A3–A5
/// soundness violation: a divergent pruned interleaving, an escaped
/// crash future or a broken symmetry equivariance would make POR
/// unsound *if enabled*, and the catalog must never ship that).
fn ample_verdict(row: &E14Row) -> Result<String, String> {
    let ineligible_only = row
        .ample_errors
        .iter()
        .all(|e| e.starts_with("A1:") || e.starts_with("A2:"));
    if row.ample_errors.is_empty() {
        if row.ample_warnings.is_empty() {
            Ok("clean".to_string())
        } else {
            Ok(format!(
                "clean ({})",
                plural(row.ample_warnings.len(), "warning")
            ))
        }
    } else if ineligible_only {
        Ok("ineligible".to_string())
    } else {
        Err(format!(
            "FAIL ({})",
            plural(row.ample_errors.len(), "error")
        ))
    }
}

/// Classifies a row's scalarset-certificate result for the E14 gate:
/// `Ok(verdict)` keeps the gate green (`"—"` for specs without declared
/// families, `"certified"`, or `"certified (k warnings)"` — inert
/// families warn but stay green because the engines never permute
/// them), `Err(verdict)` fails it: the engines refuse to permute an
/// uncertified family at search start, but the catalog must never ship
/// a declaration the certifier rejects.
fn scalarset_verdict(row: &E14Row) -> Result<String, String> {
    if !row.has_scalarsets {
        Ok("—".to_string())
    } else if !row.scalarset_errors.is_empty() {
        Err(format!(
            "FAIL ({})",
            plural(row.scalarset_errors.len(), "error")
        ))
    } else if row.scalarset_warnings.is_empty() {
        Ok("certified".to_string())
    } else {
        Ok(format!(
            "certified ({})",
            plural(row.scalarset_warnings.len(), "warning")
        ))
    }
}

/// `"1 warning"` / `"2 warnings"` — count annotations for verdicts.
fn plural(count: usize, noun: &str) -> String {
    if count == 1 {
        format!("{count} {noun}")
    } else {
        format!("{count} {noun}s")
    }
}

/// E14: the catalog access-declaration audit (also the `tables lint` CI
/// gate). Returns the rendered report and whether every system passed.
pub fn e14_catalog_lint() -> (String, bool) {
    let rows = catalog_lint_rows();
    let mut t = Table::new(&[
        "system",
        "n",
        "cells",
        "local states",
        "probes",
        "accesses (no crash)",
        "accesses (crash)",
        "indep pairs",
        "derived owned",
        "verdict",
        "ample (spot st/pairs)",
        "scalarset",
    ]);
    let mut clean = true;
    let mut details = String::new();
    for r in &rows {
        let verdict = if r.errors.is_empty() {
            if r.warnings.is_empty() {
                "clean".to_string()
            } else {
                format!("clean ({})", plural(r.warnings.len(), "warning"))
            }
        } else {
            clean = false;
            format!("FAIL ({})", plural(r.errors.len(), "error"))
        };
        let ample = match ample_verdict(r) {
            Ok(v) => v,
            Err(v) => {
                clean = false;
                v
            }
        };
        let scalarset = match scalarset_verdict(r) {
            Ok(v) => v,
            Err(v) => {
                clean = false;
                v
            }
        };
        t.row(&[
            r.system.clone(),
            r.n.to_string(),
            r.cells.to_string(),
            r.local_states.to_string(),
            r.probes.to_string(),
            r.accesses_crash_free.to_string(),
            r.accesses_crash.to_string(),
            r.independent_pairs.to_string(),
            r.derived_owned.to_string(),
            verdict,
            format!("{ample} ({}/{})", r.spot_states, r.spot_pairs),
            scalarset,
        ]);
        for e in &r.errors {
            details.push_str(&format!("  error [{}]: {e}\n", r.system));
        }
        for w in &r.warnings {
            details.push_str(&format!("  warning [{}]: {w}\n", r.system));
        }
        for e in &r.ample_errors {
            details.push_str(&format!("  ample [{}]: {e}\n", r.system));
        }
        for w in &r.ample_warnings {
            details.push_str(&format!("  ample warning [{}]: {w}\n", r.system));
        }
        for e in &r.scalarset_errors {
            details.push_str(&format!("  scalarset [{}]: {e}\n", r.system));
        }
        for w in &r.scalarset_warnings {
            details.push_str(&format!("  scalarset warning [{}]: {w}\n", r.system));
        }
    }
    let report = format!(
        "E14 — catalog access-declaration audit (`tables lint`): every \
         shipped system's `referenced_cells` and owned-cell declarations \
         checked against the analyzed cell-access footprint; crash edges \
         can only widen footprints (a re-run revisits cells from a reset \
         pc), so the crash column is the sound basis for the verdicts and \
         the static independence relation. The ample column is the \
         POR soundness lint (`lint_ample`): static C0–C2-style checks \
         plus a dynamic spot-check that re-executes pruned interleavings \
         at sampled states — `ineligible` (A1/A2) means the engine \
         refuses POR for that system, which keeps the gate green; an \
         A3–A5 soundness violation fails it. The scalarset column is the \
         equivariance certificate (`lint_scalarset`) for declared \
         cross-read cell families: `certified` means every family \
         transposition provably leaves the local-state graphs \
         equivariant (so the engines may permute the family with the \
         process slots, E17); a certificate error fails the gate:\n{}{details}\
         overall: {}\n",
        t.render(),
        if clean { "clean" } else { "FAIL" },
    );
    (report, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_run_small() {
        // Smoke-test each experiment at tiny sizes; correctness assertions
        // are inside the experiment functions themselves.
        assert!(e1_figure1(5).contains("E1"));
        assert!(e2_team_rc(5).contains("E2"));
        assert!(e3_simultaneous(5).contains("E3"));
        assert!(e4_tn(5).contains("E4"));
        assert!(e5_sn(4).contains("E5"));
        assert!(e6_universal(5).contains("E6"));
        assert!(e7_stack().contains("E7"));
        assert!(e9_sets().contains("E9"));
    }

    #[test]
    fn catalog_survey_runs() {
        assert!(e8_catalog().contains("stack"));
    }

    #[test]
    fn headline_runs() {
        assert!(e10_headline(3).contains("T_4"));
    }

    /// The symmetry sweep's own invariants (identical verdicts and
    /// weighted leaf counts, strict state reduction) are asserted inside
    /// the experiment; the fast sweep exercises them.
    #[test]
    fn symmetry_sweep_runs_fast() {
        let (report, rows) = e12_symmetry_reduction(true);
        assert!(report.contains("E12"));
        assert!(rows.iter().any(|r| r.symmetry == "on" && r.reduction > 1.0));
    }

    /// The full-state sweep's invariants (slots ≡ off on masked systems,
    /// rebind reduces with identical weighted leaves) are asserted
    /// inside the experiment; the fast sweep exercises them, and the
    /// snapshot renderer accepts all three row sets.
    #[test]
    fn full_state_sweep_runs_fast() {
        let (report, rows) = e13_full_state_symmetry(true);
        assert!(report.contains("E13"));
        assert!(rows.iter().any(|r| r.mode == "rebind" && r.reduction > 1.0));
        assert!(rows.iter().any(|r| r.mode == "slots"));
        let json = snapshot_json(&[], &[], &rows, &[], &[], &[], &[]);
        assert!(json.contains("\"schema\": 6"));
        assert!(json.contains("\"e13_rows\""));
        assert!(json.contains("\"e15_rows\""));
        assert!(json.contains("\"e16_rows\""));
        assert!(json.contains("\"e17_rows\""));
        assert!(json.contains("\"e18_rows\""));
        assert!(json.contains("masked S_4"));
    }

    /// The POR sweep's invariants (reduced rows match off verdicts and
    /// weighted leaf counts, budget-0 POR strictly reduces, por+rebind
    /// dominates rebind wherever POR alone reduced) are asserted inside
    /// the experiment; the fast sweep exercises them, including the
    /// acceptance-critical SimultaneousRc row — the system symmetry
    /// cannot reduce.
    #[test]
    fn por_sweep_runs_fast() {
        let (report, rows) = e15_por_reduction(true);
        assert!(report.contains("E15"));
        assert!(rows.iter().any(|r| r.mode == "por" && r.reduction > 1.0));
        assert!(rows.iter().any(|r| r.mode == "por+rebind"));
        assert!(rows.iter().any(|r| r.system.starts_with("SimultaneousRc")
            && r.mode == "por"
            && r.reduction > 1.0));
        let json = snapshot_json(&[], &[], &[], &rows, &[], &[], &[]);
        assert!(json.contains("\"e15_rows\""));
        assert!(json.contains("por+rebind"));
    }

    /// The storage sweep's invariants (baseline truncates at the cap,
    /// every lifted-cap tier row verifies byte-identically,
    /// the byte-budgeted run matches the grid, spill rows freeze runs,
    /// filter rows populate the Bloom) are asserted inside the
    /// experiment; the fast sweep exercises them, including the
    /// acceptance-critical Truncated → Verified transition.
    #[test]
    fn storage_sweep_runs_fast() {
        let (report, rows) = e16_storage_scaling(true);
        assert!(report.contains("E16"));
        assert!(rows
            .iter()
            .any(|r| r.tier == "flat" && r.verdict == "Truncated"));
        assert!(rows
            .iter()
            .any(|r| r.tier == "packed+spill" && r.verdict == "Verified" && r.spilled_mb > 0.0));
        assert!(rows.iter().any(|r| r.max_bytes > 0));
        let json = snapshot_json(&[], &[], &[], &[], &rows, &[], &[]);
        assert!(json.contains("\"e16_rows\""));
        assert!(json.contains("packed+filter"));
        assert!(
            rows.iter().any(|r| r.mode == "por+rebind"),
            "the rebind+POR parity rows joined the tier grid"
        );
    }

    /// The scalarset sweep's invariants (every row Verified, reduced
    /// weighted leaf counts equal to off, scalarset strictly below off,
    /// scalarset+por strictly below scalarset) are asserted inside the
    /// experiment; the fast sweep exercises them on the system E13/E15
    /// recorded at 1.0× under owned-cell symmetry, and the snapshot
    /// renderer accepts the rows.
    #[test]
    fn scalarset_sweep_runs_fast() {
        let (report, rows) = e17_scalarset_symmetry(true);
        assert!(report.contains("E17"));
        assert!(rows
            .iter()
            .any(|r| r.mode == "scalarset" && r.reduction > 1.0));
        let scal = rows
            .iter()
            .find(|r| r.mode == "scalarset")
            .expect("scalarset rows present");
        let both = rows
            .iter()
            .find(|r| r.mode == "scalarset+por")
            .expect("composed rows present");
        assert!(
            both.states < scal.states,
            "POR composes on top of the scalarset reduction"
        );
        let json = snapshot_json(&[], &[], &[], &[], &[], &rows, &[]);
        assert!(json.contains("\"e17_rows\""));
        assert!(json.contains("scalarset+por"));
    }

    /// The swarm sweep's contract clauses (correct systems clean, the
    /// seeded bug found / replayed / shrunk / witness-verified,
    /// thread-count-invariant aggregates) are asserted inside the
    /// experiment; the fast sweep exercises them, and the snapshot
    /// renderer writes `null` for the witness columns of clean rows.
    #[test]
    fn swarm_sweep_runs_fast() {
        let (report, rows) = e18_swarm(true);
        assert!(report.contains("E18"));
        assert!(rows
            .iter()
            .any(|r| r.system == "broken-team-rc" && r.violations > 0 && r.min_witness.is_some()));
        assert!(rows
            .iter()
            .all(|r| r.system == "broken-team-rc" || r.violations == 0));
        let json = snapshot_json(&[], &[], &[], &[], &[], &[], &rows);
        assert!(json.contains("\"e18_rows\""));
        assert!(json.contains("\"min_witness\": null"));
        assert!(json.contains("broken-team-rc"));
    }

    /// The per-state footprint analysis behind the declaration lint, the
    /// ample lint and the POR setup is cached per catalog id: a repeated
    /// audit must be served from the cache, not recompute the fixpoint.
    /// (Asserted through Arc identity and the analysis's fixpoint serial
    /// — the raw global run counter is shared with concurrent tests.)
    #[test]
    fn catalog_lint_shares_one_analysis_per_system() {
        use rc_runtime::{system_analysis_cached, AnalysisBudget};
        let rows = catalog_lint_rows();
        assert!(!rows.is_empty());
        let (system, build) = lint_catalog().into_iter().next().expect("catalog nonempty");
        let (mem, programs, _) = build();
        let id = format!("bench/lint/{system}");
        let first = system_analysis_cached(&id, &mem, &programs, AnalysisBudget::default())
            .expect("catalog system analyzable");
        let rows2 = catalog_lint_rows();
        assert_eq!(rows.len(), rows2.len());
        let second = system_analysis_cached(&id, &mem, &programs, AnalysisBudget::default())
            .expect("catalog system analyzable");
        assert!(
            Arc::ptr_eq(&first, &second),
            "the repeated audit recomputed {system}'s analysis"
        );
        assert_eq!(first.serial, second.serial);
    }
}
