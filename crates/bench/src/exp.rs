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
    is_recording, set_rcons_bounds, Assignment, DiscerningWitness, RecordingWitness, Team,
};
use rc_runtime::sched::{RandomScheduler, RandomSchedulerConfig, RoundRobin};
use rc_runtime::swarm::swarm;
use rc_runtime::verify::check_consensus_execution;
use rc_runtime::{
    explore, explore_symmetric_with_stats, explore_with_stats, run, CrashModel, ExploreConfig,
    ExploreOutcome, ExploreStats, Memory, Program, RunOptions, SwarmConfig, SwarmReport,
    SymmetricSystemFactory, SystemFactory,
};
use rc_spec::catalog::{catalog, ConsensusNumber};
use rc_spec::random::{random_table_type, RandomTypeConfig};
use rc_spec::types::{Cas, Sn, Stack, Tn};
use rc_spec::{Operation, TypeHandle, Value};
use std::fmt::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) fn sn_witness(n: usize) -> (TypeHandle, RecordingWitness) {
    let sn = Sn::new(n);
    let a = Assignment::split(Sn::q0(), vec![Sn::op_a()], vec![Sn::op_b(); n - 1]);
    let w = check_recording(&sn, &a).expect("S_n witness");
    (Arc::new(sn), w)
}

/// The Theorem 3 discerning witness for T_n: `n / 2` processes on
/// team A, the rest on team B.
pub(crate) fn tn_witness(n: usize) -> (TypeHandle, DiscerningWitness) {
    let tn = Tn::new(n);
    let a = Assignment::split(
        Tn::forget_state(),
        vec![Tn::op_a(); n / 2],
        vec![Tn::op_b(); n - n / 2],
    );
    let w = check_discerning(&tn, &a).expect("T_n witness");
    (Arc::new(tn), w)
}

/// The recording witness for the Section 3.1 *broken* team-RC
/// counterexample: CAS(2) with a 3-row witness, normalized so team B
/// has at least two rows (the shape whose missing |B| ≥ 2 guard the
/// broken variant exploits).
pub(crate) fn broken_witness() -> (TypeHandle, RecordingWitness) {
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
    (cas, w)
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

/// The randomized hunts of E2 and E10: seeds `0..seeds` of the seeded
/// scheduler under `crash` through the [`swarm`], each execution checked
/// against `inputs`, with [`run`]'s default action bound.
fn random_hunt(
    factory: &SystemFactory<'_>,
    seeds: u64,
    crash_prob: f64,
    crash: CrashModel,
    inputs: &[Value],
) -> SwarmReport {
    swarm(
        factory,
        &SwarmConfig {
            seed_start: 0,
            seeds,
            threads: 0,
            crash_prob,
            crash,
            max_actions: RunOptions::default().max_actions,
            inputs: Some(inputs.to_vec()),
        },
    )
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
        let hunt = random_hunt(
            &|| build_team_rc_system(ty.clone(), &w, &inputs),
            seeds,
            0.25,
            CrashModel::independent(5).after_decide(true),
            &inputs,
        );
        t.row(&[
            format!("S_{n}"),
            n.to_string(),
            states,
            seeds.to_string(),
            hunt.total_crashes.to_string(),
            hunt.violations.len().to_string(),
        ]);
    }
    // The broken variant (guard removed) must violate agreement.
    let (cas, w) = broken_witness();
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
        let (ty, w) = tn_witness(n);
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
        let hunt = random_hunt(
            &|| build_tournament_rc(ty.clone(), &rw, &rc_inputs),
            seeds,
            0.2,
            CrashModel::independent(4).after_decide(true),
            &rc_inputs,
        );
        assert!(hunt.violations.is_empty(), "T_{n}: {:?}", hunt.violations);
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
        let hunt = random_hunt(
            &|| build_tournament_rc(ty.clone(), &w, &inputs),
            seeds,
            0.2,
            CrashModel::independent(4).after_decide(true),
            &inputs,
        );
        assert!(hunt.violations.is_empty(), "S_{n}: {:?}", hunt.violations);
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

/// The system a measured search checks: a plain factory, or one that
/// also declares which process ids are interchangeable.
#[derive(Clone, Copy)]
enum Factory<'a> {
    Plain(&'a SystemFactory<'a>),
    Symmetric(&'a SymmetricSystemFactory<'a>),
}

/// One measured search of the E11–E17 sweeps: what ran, what it found
/// and how long it took.
#[derive(Clone, Debug)]
pub struct Measured {
    /// System under check, e.g. `"S_3"` (the Fig. 2 team-RC algorithm
    /// over that type, as in E2) or `"masked S_5 (CrashAll)"`.
    pub system: String,
    /// The row's mode within its experiment: `"off"` for the plain
    /// search, otherwise the reducers it ran with (`"on"`, `"slots"`,
    /// `"rebind"`, `"por"`, `"por+rebind"`, `"scalarset"`,
    /// `"scalarset+por"`); E16 calls its plain rows `"unreduced"`.
    pub mode: &'static str,
    /// The search's configuration: adversary and crash budget, caps and
    /// reductions.
    pub config: ExploreConfig,
    /// `Verified` or `Truncated` with the state and leaf counts
    /// (deterministic; the sweeps check correct systems only, so a
    /// violation panics instead).
    pub outcome: ExploreOutcome,
    /// The search's storage diagnostics (deterministic byte accounts).
    pub stats: ExploreStats,
    /// Wall clock of every timed run, in run order (machine-dependent).
    pub samples: Vec<Duration>,
    /// `states(off) / states(this row)` against the instance's off row;
    /// 1.0 for off rows.
    pub reduction: f64,
    /// Whether `reduction` is a lower bound (the off row truncated at
    /// its cap).
    pub reduction_is_lower_bound: bool,
}

impl Measured {
    /// The adversary's crash budget.
    pub(crate) fn crash_budget(&self) -> usize {
        self.config.crash.budget
    }

    /// `"Verified"` or `"Truncated"`.
    pub(crate) fn verdict(&self) -> &'static str {
        match self.outcome {
            ExploreOutcome::Verified { .. } => "Verified",
            ExploreOutcome::Truncated { .. } => "Truncated",
            ExploreOutcome::Violation { .. } => "Violation",
        }
    }

    /// Distinct states visited (canonical representatives under
    /// symmetry, sleep-annotated under POR).
    pub(crate) fn states(&self) -> usize {
        match self.outcome {
            ExploreOutcome::Verified { states, .. } | ExploreOutcome::Truncated { states } => {
                states
            }
            ExploreOutcome::Violation { .. } => 0,
        }
    }

    /// Weighted executions enumerated (0 unless `Verified`).
    pub(crate) fn leaves(&self) -> usize {
        match self.outcome {
            ExploreOutcome::Verified { leaves, .. } => leaves,
            _ => 0,
        }
    }

    /// The best run's wall clock in milliseconds.
    pub(crate) fn millis(&self) -> f64 {
        best_ms(&self.samples)
    }

    /// `states / seconds` of the best run.
    pub(crate) fn states_per_sec(&self) -> f64 {
        self.states() as f64 / (self.millis() / 1e3).max(1e-9)
    }

    /// Nanoseconds per edge of the best run.
    pub(crate) fn ns_per_edge(&self) -> f64 {
        self.millis() * 1e6 / self.stats.edges.max(1) as f64
    }

    /// The row as the snapshot writes it; every E11–E17 row has this
    /// one shape.
    pub fn json(&self) -> JsonRow {
        let int = |v: usize| Json::Int(v as u64);
        let mib = |bytes: usize| Json::Fixed(bytes as f64 / (1 << 20) as f64, 1);
        vec![
            ("system", Json::Str(self.system.clone())),
            ("crash_budget", int(self.crash_budget())),
            ("mode", Json::Str(self.mode.into())),
            ("max_states", int(self.config.max_states)),
            ("verdict", Json::Str(self.verdict().into())),
            ("states", int(self.states())),
            ("leaves", int(self.leaves())),
            ("edges", int(self.stats.edges)),
            ("duplicates", int(self.stats.duplicates)),
            ("runs", int(self.samples.len())),
            ("millis", Json::Fixed(self.millis(), 1)),
            ("median_millis", Json::Fixed(median_ms(&self.samples), 1)),
            ("states_per_sec", Json::Fixed(self.states_per_sec(), 0)),
            ("reduction", Json::Fixed(self.reduction, 1)),
            (
                "reduction_is_lower_bound",
                Json::Bool(self.reduction_is_lower_bound),
            ),
            ("peak_table_mb", mib(self.stats.peak_table_bytes)),
        ]
    }
}

/// The one repetition policy of every timed row (E11–E18): `once` runs
/// at least once, and again until the runs total 200 ms or 30 runs.
/// Returns the last run's result and every run's wall clock, in run
/// order; tables report the best run. Cap-scale runs therefore run once.
fn timed_runs<T>(mut once: impl FnMut() -> T) -> (T, Vec<Duration>) {
    let mut samples = Vec::new();
    loop {
        let start = Instant::now();
        let result = once();
        samples.push(start.elapsed());
        if samples.len() >= 30 || samples.iter().sum::<Duration>() >= Duration::from_millis(200) {
            return (result, samples);
        }
    }
}

/// The best of `samples`, in milliseconds.
fn best_ms(samples: &[Duration]) -> f64 {
    let best = samples.iter().min().expect("at least one run");
    best.as_secs_f64() * 1e3
}

/// The median of `samples` in milliseconds (the upper middle run of an
/// even count).
fn median_ms(samples: &[Duration]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort();
    sorted[sorted.len() / 2].as_secs_f64() * 1e3
}

/// Times one search under [`timed_runs`].
///
/// # Panics
///
/// Panics on a violation: every sweep checks correct systems.
fn measure(
    system: &str,
    mode: &'static str,
    factory: Factory<'_>,
    config: &ExploreConfig,
) -> Measured {
    let ((outcome, stats), samples) = timed_runs(|| {
        let (outcome, stats) = match factory {
            Factory::Plain(f) => explore_with_stats(f, config),
            Factory::Symmetric(f) => explore_symmetric_with_stats(f, config),
        };
        if let ExploreOutcome::Violation { schedule, .. } = &outcome {
            panic!(
                "{system}/{} {mode}: the sweeps check correct systems; violation after {} actions",
                config.crash.budget,
                schedule.len()
            );
        }
        (outcome, stats)
    });
    Measured {
        system: system.to_string(),
        mode,
        config: config.clone(),
        outcome,
        stats,
        samples,
        reduction: 1.0,
        reduction_is_lower_bound: false,
    }
}

/// The sweeps' adversary: `crash` with post-decide crashes enabled and
/// the validity inputs declared.
fn sweep_config(crash: CrashModel, inputs: &[Value]) -> ExploreConfig {
    ExploreConfig {
        crash: crash.after_decide(true),
        inputs: Some(inputs.to_vec()),
        ..ExploreConfig::default()
    }
}

/// Sets each reduced row's reduction against its instance's off row and
/// asserts what every reduced mode owes that row: when the off row
/// verified, the reduced row verifies with the same weighted leaf
/// count. State counts are *not* monotone under POR: the sleep mask is
/// part of node identity (that is what keeps the engine deterministic),
/// so a state re-reached along paths with incomparable sleep sets
/// splits into several entries, and the sweeps honestly record the
/// configurations where that cost outweighs the pruning (reduction
/// below 1.0×).
fn against_off(off: &Measured, reduced: &mut [Measured]) {
    for r in reduced {
        let label = format!("{}/{} {}", off.system, off.crash_budget(), r.mode);
        if off.outcome.is_verified() {
            assert_eq!(
                r.verdict(),
                "Verified",
                "{label}: must verify when off verifies"
            );
            assert_eq!(
                r.leaves(),
                off.leaves(),
                "{label}: weighted leaf counts must agree"
            );
        } else {
            r.reduction_is_lower_bound = true;
        }
        r.reduction = off.states() as f64 / r.states() as f64;
    }
}

/// The row with the largest reduction among those `keep` selects (the
/// first on ties), for a report's headline.
fn largest_reduction(rows: &[Measured], keep: impl Fn(&Measured) -> bool) -> &Measured {
    // `max_by` keeps the last maximum; reversed, that is the first.
    let kept = rows.iter().rev().filter(|r| keep(r));
    kept.max_by(|a, b| a.reduction.total_cmp(&b.reduction))
        .expect("the sweep has reduced rows")
}

/// A table column: its header and the cell it draws for a row.
type Column<R> = (&'static str, fn(&R) -> String);

/// Draws `rows` as a table, one cell per column.
fn render<R>(columns: &[Column<R>], rows: &[R]) -> String {
    let mut t = Table::new(&columns.iter().map(|c| c.0).collect::<Vec<_>>());
    for r in rows {
        t.row(&columns.iter().map(|c| (c.1)(r)).collect::<Vec<_>>());
    }
    t.render()
}

const SYSTEM: Column<Measured> = ("system", |r| r.system.clone());
const BUDGET: Column<Measured> = ("crash budget", |r| r.crash_budget().to_string());
const CAP: Column<Measured> = ("cap", |r| r.config.max_states.to_string());
const MODE: Column<Measured> = ("mode", |r| r.mode.to_string());
const VERDICT: Column<Measured> = ("verdict", |r| r.verdict().to_string());
const STATES: Column<Measured> = ("states", |r| r.states().to_string());
const LEAVES: Column<Measured> = ("leaves", |r| r.leaves().to_string());
const MS: Column<Measured> = ("ms", |r| format!("{:.1}", r.millis()));
const RATE: Column<Measured> = ("states/sec", |r| format!("{:.0}", r.states_per_sec()));
const EDGES: Column<Measured> = ("edges", |r| r.stats.edges.to_string());
const NS_PER_EDGE: Column<Measured> = ("ns/edge", |r| format!("{:.0}", r.ns_per_edge()));
const REDUCTION: Column<Measured> = ("reduction", |r| {
    let bound = if r.reduction_is_lower_bound {
        "≥"
    } else {
        ""
    };
    format!("{bound}{:.1}×", r.reduction)
});

const E11_COLUMNS: &[Column<Measured>] = &[
    SYSTEM,
    BUDGET,
    VERDICT,
    STATES,
    LEAVES,
    EDGES,
    MS,
    RATE,
    NS_PER_EDGE,
];

/// E12 names its mode column `symmetry` and prints reductions without
/// the lower-bound mark.
const E12_COLUMNS: &[Column<Measured>] = &[
    SYSTEM,
    BUDGET,
    CAP,
    ("symmetry", |r| r.mode.to_string()),
    VERDICT,
    STATES,
    LEAVES,
    EDGES,
    MS,
    RATE,
    NS_PER_EDGE,
    ("reduction", |r| format!("{:.1}×", r.reduction)),
];

/// The E13, E15 and E17 reduction sweeps: E11's edge count and per-edge
/// cost beside the states, so a reduction's saving in edges and what
/// each remaining edge costs read off one row.
const SWEEP_COLUMNS: &[Column<Measured>] = &[
    SYSTEM,
    BUDGET,
    CAP,
    MODE,
    VERDICT,
    STATES,
    LEAVES,
    EDGES,
    MS,
    RATE,
    NS_PER_EDGE,
    REDUCTION,
];

/// E16's columns. A cap-scale search runs once under [`timed_runs`], so
/// `runs` shows which rows are single samples.
const E16_COLUMNS: &[Column<Measured>] = &[
    SYSTEM,
    ("budget", |r| r.crash_budget().to_string()),
    MODE,
    CAP,
    VERDICT,
    STATES,
    LEAVES,
    EDGES,
    ("ms", |r| format!("{:.0}", r.millis())),
    NS_PER_EDGE,
    ("peak MB", |r| mib(r.stats.peak_table_bytes)),
    ("runs", |r| r.samples.len().to_string()),
];

/// `bytes` in MiB with one decimal.
fn mib(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

/// Logical cores of this host.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// E11: model-checker scaling — states/sec, peak state counts, edges
/// and ns/edge of the DFS engine on the Fig. 2 team-RC workload (the E2
/// systems), `S_2..S_5` × crash budgets. An edge is one action applied
/// to a visited state.
///
/// The adversary matches E2: independent crashes, post-decide crashes
/// enabled, validity inputs declared. State and leaf counts are
/// deterministic; wall-clock figures are machine-dependent
/// (`BENCH_explore.json` tracks them across PRs together with the host
/// core count — the seed recursive engine's and the deleted parallel
/// frontier's last recorded rows live in EXPERIMENTS.md §E11 and the git
/// history of that file).
pub fn e11_explore_scaling(fast: bool) -> (String, Vec<Measured>) {
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
            let config = sweep_config(CrashModel::independent(budget), &inputs);
            rows.push(measure(&system, "off", Factory::Plain(&factory), &config));
        }
    }
    let report = format!(
        "E11 — model-checker scaling (Fig. 2 team-RC workload, independent \
         crashes, post-decide enabled; one DFS engine, host_cores = {}):\n{}\n\
         states/leaves/edges are deterministic, wall-clock is machine-dependent.\n",
        host_cores(),
        render(E11_COLUMNS, &rows)
    );
    (report, rows)
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
pub fn e12_symmetry_reduction(fast: bool) -> (String, Vec<Measured>) {
    let sweep: &[(usize, &[usize])] = if fast {
        &[(3, &[1, 2]), (4, &[1])]
    } else {
        // The last instance is the cap-exceed demonstration (full sweep
        // only — its off side costs a cap-length run).
        &[
            (3, &[1, 2]),
            (4, &[1, 2]),
            (5, &[0, 1]),
            (6, &[0, 1]),
            (8, &[0]),
        ]
    };
    let mut rows = Vec::new();
    for &(n, budgets) in sweep {
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let system = format!("S_{n}");
        let plain = || build_team_rc_system(ty.clone(), &w, &inputs);
        let sym = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
        for &budget in budgets {
            let config = sweep_config(CrashModel::independent(budget), &inputs);
            let off = measure(&system, "off", Factory::Plain(&plain), &config);
            let mut on = measure(&system, "on", Factory::Symmetric(&sym), &config);
            against_off(&off, std::slice::from_mut(&mut on));
            if n == 8 {
                assert_eq!(
                    off.verdict(),
                    "Truncated",
                    "S_8/0 must exceed the default cap"
                );
                assert_eq!(on.verdict(), "Verified", "S_8/0 must verify under symmetry");
            } else {
                assert_eq!(
                    off.verdict(),
                    on.verdict(),
                    "S_{n}/{budget}: verdicts must agree"
                );
                assert!(
                    on.states() < off.states(),
                    "S_{n}/{budget}: symmetry must reduce states"
                );
            }
            rows.push(off);
            rows.push(on);
        }
    }
    let headline = largest_reduction(&rows, |r| r.mode == "on" && r.outcome.is_verified());
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
        render(E12_COLUMNS, &rows),
        headline.reduction,
        headline.system,
        headline.crash_budget(),
    );
    (report, rows)
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
pub fn e13_full_state_symmetry(fast: bool) -> (String, Vec<Measured>) {
    // (n, budgets, slots_row) per masked S_n instance: the off search of
    // S_7/S_8 at budget 0 is a cap-length run (~5M states), so the fast
    // sweep skips those sizes entirely and the full sweep measures the
    // (identical-by-construction) slots rows only where the off side
    // verifies quickly.
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
    let mut rows = Vec::new();
    for &(n, budgets, measure_slots) in masked_sweep {
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let system = format!("masked S_{n}");
        let plain = || build_masked_team_rc_system(ty.clone(), &w, &inputs);
        let sym = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
        let slots = || {
            let (mem, programs) = plain();
            let n = programs.len();
            (mem, programs, rc_runtime::SymmetrySpec::trivial(n))
        };
        for &budget in budgets {
            let config = sweep_config(CrashModel::independent(budget), &inputs);
            let off = measure(&system, "off", Factory::Plain(&plain), &config);
            let mut reduced = Vec::new();
            if measure_slots {
                reduced.push(measure(
                    &system,
                    "slots",
                    Factory::Symmetric(&slots),
                    &config,
                ));
            }
            reduced.push(measure(
                &system,
                "rebind",
                Factory::Symmetric(&sym),
                &config,
            ));
            against_off(&off, &mut reduced);
            let rebind = reduced.pop().expect("rebind row");
            if let Some(slots) = reduced.first() {
                assert_eq!(
                    (slots.verdict(), slots.states(), slots.leaves()),
                    (off.verdict(), off.states(), off.leaves()),
                    "{system}/{budget}: slots-only is the identity on masked systems"
                );
            }
            assert_eq!(
                rebind.verdict(),
                "Verified",
                "{system}/{budget} must verify under rebind"
            );
            if off.outcome.is_verified() {
                assert!(
                    rebind.states() < off.states(),
                    "{system}/{budget}: rebind must reduce states"
                );
            }
            rows.extend(reduced);
            rows.push(off);
            rows.push(rebind);
        }
    }
    // Fig. 4 rows: off and the certified scalarset declaration under
    // all-distinct inputs — every orbit is a singleton, so the family
    // is inert here and the quotient is the identity (the E14 audit
    // warns exactly this); E17 measures the acting-orbit instances,
    // where the same declaration reduces.
    let objects = ConsensusObjectFactory { domain: 4 };
    let inputs: Vec<Value> = (0..3).map(Value::Int).collect();
    let horizon = 4;
    let system = "SimultaneousRc n=3";
    let config = sweep_config(CrashModel::simultaneous(1), &inputs);
    let plain = || build_simultaneous_rc_system(&objects, &inputs, horizon);
    let sym = || build_simultaneous_rc_system_sym(&objects, &inputs, horizon);
    let off = measure(system, "off", Factory::Plain(&plain), &config);
    let mut slots = measure(system, "slots", Factory::Symmetric(&sym), &config);
    against_off(&off, std::slice::from_mut(&mut slots));
    assert_eq!(
        (slots.verdict(), slots.states(), slots.leaves()),
        (off.verdict(), off.states(), off.leaves()),
        "distinct inputs leave the scalarset family inert, so outcomes \
         are identical"
    );
    rows.push(off);
    rows.push(slots);
    let headline = largest_reduction(&rows, |r| r.mode == "rebind");
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
         largest recorded reduction: {} on {}/budget-{}; Verified \
         rebind rows match off verdicts and weighted leaf counts exactly \
         (asserted), witnesses replay in original pids (tested), and \
         {cap_note}. Fig. 4 (SimultaneousRc) rows stay slots-only here: \
         every process scans every round register (line 44), so \
         owned-cell round-register orbits are *rejected* by the \
         owner-only soundness validation (tested in rc-core) — the \
         registers reduce under the certified *scalarset* fragment \
         instead (E17).\n",
        render(SWEEP_COLUMNS, &rows),
        (REDUCTION.1)(headline),
        headline.system,
        headline.crash_budget(),
    );
    (report, rows)
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
pub fn e15_por_reduction(fast: bool) -> (String, Vec<Measured>) {
    // Masked team-RC instances, `(n, budget, CrashAll)` per row group.
    // Budget-0 rows show POR's crash-free interleaving reduction
    // cleanly and compose multiplicatively with rebind. The independent
    // budget-1 rows are the honest negative datapoint: each of the many
    // single-process crash children seeds the post-crash layer along
    // paths with incomparable sleep sets, and the resulting node
    // splitting outweighs the pruning (reduction below 1.0×). The
    // CrashAll (simultaneous) budget-1 rows restore the payoff — one
    // all-reset child per pre-crash state keeps the entry points few —
    // and carry the masked S_7/S_8 budget-1 composition demonstration:
    // off and por alone exceed the default 5M-state cap, rebind and
    // por+rebind verify exactly, por+rebind strictly below rebind
    // (asserted).
    let masked_sweep: &[(usize, usize, bool)] = if fast {
        &[(4, 0, false), (4, 1, false), (4, 1, true)]
    } else {
        &[
            (5, 0, false),
            (5, 1, false),
            (5, 1, true),
            (7, 1, true),
            (8, 1, true),
        ]
    };
    let mut rows = Vec::new();
    for &(n, budget, simultaneous) in masked_sweep {
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let (system, crash) = if simultaneous {
            (
                format!("masked S_{n} (CrashAll)"),
                CrashModel::simultaneous(budget),
            )
        } else {
            (format!("masked S_{n}"), CrashModel::independent(budget))
        };
        let base = sweep_config(crash, &inputs);
        let por_cfg = ExploreConfig {
            por: true,
            analysis_id: Some(format!("bench/e15/masked-S_{n}")),
            ..base.clone()
        };
        let plain = || build_masked_team_rc_system(ty.clone(), &w, &inputs);
        let sym = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
        let off = measure(&system, "off", Factory::Plain(&plain), &base);
        let mut reduced = [
            measure(&system, "por", Factory::Plain(&plain), &por_cfg),
            measure(&system, "rebind", Factory::Symmetric(&sym), &base),
            measure(&system, "por+rebind", Factory::Symmetric(&sym), &por_cfg),
        ];
        against_off(&off, &mut reduced);
        let [por, rebind, both] = &reduced;
        if budget == 0 {
            // Purely crash-free: POR must prune interleavings, and the
            // composition must beat symmetry alone.
            assert!(
                por.states() < off.states(),
                "{system}/0: POR must reduce the crash-free search"
            );
            assert!(
                both.states() < rebind.states(),
                "{system}/0: por+rebind must beat rebind alone"
            );
        }
        if simultaneous {
            // The multiplicative composition demonstration: the CrashAll
            // post-crash layer prunes like a crash-free search, so POR
            // stacks on top of the rebind orbit collapse.
            assert_eq!(
                rebind.verdict(),
                "Verified",
                "{system}/{budget} must verify under rebind"
            );
            assert_eq!(
                both.verdict(),
                "Verified",
                "{system}/{budget} must verify under por+rebind"
            );
            assert!(
                both.states() < rebind.states(),
                "{system}/{budget}: por+rebind must beat rebind alone"
            );
            if off.outcome.is_verified() {
                assert!(
                    por.states() < off.states(),
                    "{system}/{budget}: POR must reduce the CrashAll search"
                );
            }
        }
        rows.push(off);
        rows.extend(reduced);
    }
    // Fig. 4: owned-cell symmetry cannot touch it (the scalarset
    // fragment can — E17). POR's headroom comes from laggards — a
    // process still proposing to an already-settled round's consensus
    // object commutes with every process ahead of it (their crash-free
    // futures never revisit settled rounds).
    let objects = ConsensusObjectFactory { domain: 4 };
    let inputs: Vec<Value> = (0..3).map(Value::Int).collect();
    let horizon = 4;
    let system = "SimultaneousRc n=3";
    let plain = || build_simultaneous_rc_system(&objects, &inputs, horizon);
    let budgets: &[usize] = if fast { &[1] } else { &[0, 1] };
    for &budget in budgets {
        let base = sweep_config(CrashModel::simultaneous(budget), &inputs);
        let por_cfg = ExploreConfig {
            por: true,
            analysis_id: Some(format!("bench/e15/simultaneous-rc-n3-h{horizon}")),
            ..base.clone()
        };
        let off = measure(system, "off", Factory::Plain(&plain), &base);
        let mut por = measure(system, "por", Factory::Plain(&plain), &por_cfg);
        against_off(&off, std::slice::from_mut(&mut por));
        assert!(
            por.states() < off.states(),
            "{system}/{budget}: POR must reduce the system symmetry cannot touch"
        );
        rows.push(off);
        rows.push(por);
    }
    let headline = largest_reduction(&rows, |r| r.mode == "por" && r.outcome.is_verified());
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
        render(SWEEP_COLUMNS, &rows),
        headline.reduction,
        headline.system,
        headline.crash_budget(),
    );
    (report, rows)
}

/// E16: bit-packed state storage at scale — the catalog instances the
/// default cap recorded as `Truncated` (E12's `S_8`/budget-0 off row,
/// E13's masked `S_7`/budget-0 off row), re-run **unreduced** with the
/// cap lifted: every row asserted `Verified` past the catalog's cap,
/// and the leaf count asserted equal to what the catalog's *reduced*
/// searches (rebind / symmetry-on) computed for the same instance — the
/// full unreduced search independently confirms the reduction
/// machinery's answer. The masked instance also re-runs with
/// por+rebind.
///
/// Exactness is the point: the visited set
/// ([`rc_runtime::PackedStateTable`]) compares full key bytes, so —
/// unlike bitstate/supertrace hashing — the verdict is exact (see
/// DESIGN §3).
pub fn e16_storage_scaling(fast: bool) -> (String, Vec<Measured>) {
    // (n, masked, budget, the weighted leaf count a *reduced* catalog
    // run — E12 symmetry-on / E13 rebind — computed for the instance).
    let sweep: &[(usize, bool, usize, Option<usize>)] = if fast {
        &[(4, true, 0, None), (4, false, 2, Some(12))]
    } else {
        &[(7, true, 0, Some(20)), (8, false, 0, Some(23))]
    };
    // The cap the catalog rows truncated at (shrunk in fast mode so the
    // small instances still exceed it), and the lifted cap.
    let (catalog_cap, lifted_cap) = if fast {
        (1_000, 5_000_000)
    } else {
        (5_000_000, 20_000_000)
    };
    let mut rows = Vec::new();
    for &(n, masked, budget, expected_leaves) in sweep {
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let system = if masked {
            format!("masked S_{n}")
        } else {
            format!("S_{n}")
        };
        let build = || {
            if masked {
                build_masked_team_rc_system(ty.clone(), &w, &inputs)
            } else {
                build_team_rc_system(ty.clone(), &w, &inputs)
            }
        };
        let lifted = ExploreConfig {
            max_states: lifted_cap,
            ..sweep_config(CrashModel::independent(budget), &inputs)
        };
        let row = measure(&system, "unreduced", Factory::Plain(&build), &lifted);
        assert_eq!(
            row.verdict(),
            "Verified",
            "{system}/{budget}: the lifted cap must verify exactly"
        );
        assert!(
            row.states() > catalog_cap,
            "{system}/{budget}: the instance must really exceed the catalog's cap"
        );
        if let Some(expected) = expected_leaves {
            assert_eq!(
                row.leaves(),
                expected,
                "{system}/{budget}: the unreduced search must reproduce the catalog's \
                 reduced-search weighted leaf count"
            );
        }
        rows.push(row);
        if masked {
            // The composed reducers (por+rebind, as in E15) under the
            // lifted cap: Verified, with the unreduced row's weighted
            // leaves, on fewer states.
            let sym = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
            let cfg = ExploreConfig {
                por: true,
                analysis_id: Some(format!("bench/e16/masked-S_{n}")),
                ..lifted
            };
            let unreduced = rows.last().expect("the unreduced row");
            let mut reduced = [measure(
                &system,
                "por+rebind",
                Factory::Symmetric(&sym),
                &cfg,
            )];
            against_off(unreduced, &mut reduced);
            assert!(
                reduced[0].states() < unreduced.states(),
                "{system}/{budget}: por+rebind must visit fewer states than unreduced"
            );
            rows.extend(reduced);
        }
    }
    let largest = rows
        .iter()
        .max_by_key(|r| r.states())
        .expect("grid rows exist");
    let peak = rows
        .iter()
        .map(|r| r.stats.peak_table_bytes as f64 / (1 << 20) as f64)
        .fold(0.0f64, f64::max);
    let cap_note = if fast {
        "(fast mode shrinks both caps; the full sweep lifts the real 5M \
         catalog cap on masked S_7 and S_8)"
    } else {
        "every unreduced row exceeds the catalog's 5M cap, at which E12 \
         §S_8 and E13 §masked S_7 record Truncated (asserted)"
    };
    let report = format!(
        "E16 — bit-packed state storage (packed arena keys in one in-RAM \
         table): catalog instances past the catalog's state cap, re-run \
         unreduced with the cap lifted:\n{}\n\
         largest exact search: {} states ({}/budget-{}); weighted leaf \
         counts equal to the catalog's reduced-search records (asserted). \
         Peak visited-set: {:.0} MB. The table compares full key bytes, \
         never hash fingerprints alone, so every verdict is exact. The \
         masked instance additionally re-runs with both reducers composed \
         (por+rebind, as in E15): fewer states, and weighted leaves that \
         match the unreduced row (asserted). Also {cap_note}.\n",
        render(E16_COLUMNS, &rows),
        largest.states(),
        largest.system,
        largest.crash_budget(),
        peak,
    );
    (report, rows)
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
pub fn e17_scalarset_symmetry(fast: bool) -> (String, Vec<Measured>) {
    // (inputs, budget) per instance, all at horizon 4. Equal inputs put
    // every process in one orbit (the full symmetric group acts); the
    // mixed instance keeps a singleton orbit alongside — the family
    // still permutes under the acting orbit only.
    let sweep: &[([i64; 3], usize)] = if fast {
        &[([0, 0, 1], 1)]
    } else {
        &[([0, 0, 0], 1), ([0, 0, 1], 1), ([0, 0, 0], 0)]
    };
    let horizon = 4;
    let objects = ConsensusObjectFactory { domain: 4 };
    let mut rows = Vec::new();
    for &(inputs, budget) in sweep {
        let label = format!("inputs {},{},{}", inputs[0], inputs[1], inputs[2]);
        let system = format!("SimultaneousRc n=3 ({label})");
        let inputs = inputs.map(Value::Int);
        let base = ExploreConfig {
            analysis_id: Some(format!("bench/e17/simultaneous-rc-n3-{label}-h{horizon}")),
            ..sweep_config(CrashModel::simultaneous(budget), &inputs)
        };
        let por_cfg = ExploreConfig {
            por: true,
            ..base.clone()
        };
        let plain = || build_simultaneous_rc_system(&objects, &inputs, horizon);
        let sym = || build_simultaneous_rc_system_sym(&objects, &inputs, horizon);
        let off = measure(&system, "off", Factory::Plain(&plain), &base);
        let mut reduced = [
            measure(&system, "scalarset", Factory::Symmetric(&sym), &base),
            measure(&system, "scalarset+por", Factory::Symmetric(&sym), &por_cfg),
        ];
        against_off(&off, &mut reduced);
        for row in std::iter::once(&off).chain(&reduced) {
            assert_eq!(
                row.verdict(),
                "Verified",
                "{system}/{budget}: every E17 row must verify ({})",
                row.mode
            );
        }
        let [scal, both] = &reduced;
        assert!(
            scal.states() < off.states(),
            "{system}/{budget}: the certified scalarset must reduce the search \
             ({} vs {} states)",
            scal.states(),
            off.states()
        );
        assert!(
            both.states() < scal.states(),
            "{system}/{budget}: scalarset+por must beat scalarset alone \
             ({} vs {} states)",
            both.states(),
            scal.states()
        );
        rows.push(off);
        rows.extend(reduced);
    }
    let headline = largest_reduction(&rows, |r| r.mode == "scalarset+por");
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
        render(SWEEP_COLUMNS, &rows),
        headline.reduction,
        headline.system,
        headline.crash_budget(),
    );
    (report, rows)
}

/// One catalog system of the E18 swarm-verification sweep.
#[derive(Clone, Debug, Default)]
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
    /// re-verified on the checker's executor).
    pub min_witness: Option<usize>,
    /// Wall clock of every timed sweep, in run order (machine-dependent;
    /// the repetition policy of the E11–E17 rows).
    pub samples: Vec<Duration>,
}

impl E18Row {
    /// Executions per second of the best sweep.
    pub(crate) fn runs_per_sec(&self) -> f64 {
        self.seeds as f64 / (best_ms(&self.samples) / 1e3).max(1e-9)
    }

    /// The row as the snapshot writes it (`null` witness columns on
    /// clean rows).
    pub fn json(&self) -> JsonRow {
        let int = |v: usize| Json::Int(v as u64);
        let opt = |v: Option<u64>| v.map_or(Json::Null, Json::Int);
        vec![
            ("system", Json::Str(self.system.clone())),
            ("crash", Json::Str(self.crash.clone())),
            ("crash_prob", Json::Fixed(self.crash_prob, 2)),
            ("seeds", Json::Int(self.seeds)),
            ("threads", int(self.threads)),
            ("distinct_finals", int(self.distinct_finals)),
            ("violations", int(self.violations)),
            ("first_violating_seed", opt(self.first_violating_seed)),
            ("original_len", opt(self.original_len.map(|v| v as u64))),
            ("min_witness", opt(self.min_witness.map(|v| v as u64))),
            ("runs", int(self.samples.len())),
            ("millis", Json::Fixed(best_ms(&self.samples), 1)),
            ("median_millis", Json::Fixed(median_ms(&self.samples), 1)),
            ("runs_per_sec", Json::Fixed(self.runs_per_sec(), 0)),
        ]
    }
}

const E18_COLUMNS: &[Column<E18Row>] = &[
    ("system", |r| r.system.clone()),
    ("adversary", |r| r.crash.clone()),
    ("p", |r| format!("{:.2}", r.crash_prob)),
    ("seeds", |r| r.seeds.to_string()),
    ("thr", |r| r.threads.to_string()),
    ("finals", |r| r.distinct_finals.to_string()),
    ("viol", |r| r.violations.to_string()),
    ("first", |r| {
        r.first_violating_seed
            .map_or_else(|| "—".into(), |s| s.to_string())
    }),
    ("witness", |r| match (r.original_len, r.min_witness) {
        (Some(o), Some(m)) => format!("{o}→{m}"),
        _ => "—".into(),
    }),
    ("runs/s", |r| format!("{:.0}", r.runs_per_sec())),
];

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
///   still violates and re-verifies on the checker's executor
///   ([`replay_on_checker`](rc_runtime::replay_on_checker));
/// - the deterministic aggregates (violating seeds, distinct final
///   states, step/crash totals) are byte-identical across thread
///   counts (checked at 1 vs. all cores on the first catalog entry).
///
/// `fast` sweeps 200 seeds per system (the tier-1 suite); the full run
/// sweeps 20 000 (the snapshot row set). Each sweep repeats under the
/// E11–E17 timing policy (at least once, until 200 ms or 30 runs), and
/// `runs/s` is the best sweep's. The ≥10⁶-seed headline run is
/// recorded in `EXPERIMENTS.md` §E18 from `swarm run` directly — at
/// that scale the row would dominate the `tables` wall clock.
///
/// # Panics
///
/// Panics if any of the asserted contract clauses above fails.
pub fn e18_swarm(fast: bool) -> (String, Vec<E18Row>) {
    use crate::swarm_catalog::swarm_catalog;
    use crate::swarm_cli::crash_spec;
    use rc_runtime::{is_subsequence, replay_seed, shrink_schedule};

    let seeds: u64 = if fast { 200 } else { 20_000 };
    let systems = swarm_catalog();
    let mut rows: Vec<E18Row> = Vec::new();
    for (i, sys) in systems.iter().enumerate() {
        let config = sys.config(0, seeds, 0);
        let (report, samples) = timed_runs(|| swarm(sys.factory(), &config));
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
            assert!(shrunk.witness_verified, "{}: checker replay", sys.id);
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
            samples,
        });
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
         schedule delta-debugged {} → {} actions into a crash-legal \
         1-minimal counterexample that re-verifies on the checker's \
         executor:\n{}\
         replay/shrink any reported seed: `swarm replay --system <id> \
         --seed N`, `swarm shrink --system <id> --seed N`.\n",
        bug.first_violating_seed.expect("violating seed recorded"),
        bug.original_len.expect("original length recorded"),
        bug.min_witness.expect("witness length recorded"),
        render(E18_COLUMNS, &rows),
    );
    (report, rows)
}

/// A JSON value as the snapshot writer emits it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// A string, escaped on output.
    Str(String),
    /// A non-negative integer.
    Int(u64),
    /// A number with a fixed count of decimals (`null` if not finite).
    Fixed(f64, usize),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Str(s) => {
                f.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' | '\\' => write!(f, "\\{c}")?,
                        '\n' => f.write_str("\\n")?,
                        '\t' => f.write_str("\\t")?,
                        c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_char('"')
            }
            Json::Int(v) => write!(f, "{v}"),
            Json::Fixed(v, decimals) if v.is_finite() => write!(f, "{v:.*}", decimals),
            Json::Fixed(..) | Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// One snapshot row: its keys, in writing order, with their values.
pub type JsonRow = Vec<(&'static str, Json)>;

/// `"key": value` members joined by `separator`.
fn json_members(fields: &[(&str, Json)], separator: &str) -> String {
    fields
        .iter()
        .map(|(key, value)| format!("{}: {value}", Json::Str(key.to_string())))
        .collect::<Vec<_>>()
        .join(separator)
}

/// The `BENCH_explore.json` schema [`snapshot_json`] writes.
const SNAPSHOT_SCHEMA: u64 = 13;

/// The workspace root, where `BENCH_explore.json` lives.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The commit checked out at `root`, read from `.git/HEAD` and the ref
/// it names (loose or packed); `"unknown"` outside a checkout.
pub fn git_rev(root: &Path) -> String {
    let read = |path: &str| std::fs::read_to_string(root.join(".git").join(path)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(reference) {
        return rev.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes the `BENCH_explore.json` snapshot: how it was produced
/// (schema, regenerate command, git rev, host cores), then one
/// `<id>_rows` array per experiment, one row object per line. E11–E17
/// rows all have the shape of [`Measured::json`], E18 rows that of
/// [`E18Row::json`]; in both, `millis` is the best of `runs` timed runs
/// and `median_millis` their median.
pub fn snapshot_json(git_rev: &str, experiments: &[(&str, Vec<JsonRow>)]) -> String {
    let header = [
        ("schema", Json::Int(SNAPSHOT_SCHEMA)),
        (
            "regenerate",
            Json::Str("cargo run -p rc-bench --release --bin tables -- --snapshot".into()),
        ),
        ("git_rev", Json::Str(git_rev.into())),
        ("host_cores", Json::Int(host_cores() as u64)),
        (
            "note",
            Json::Str(
                "runs, millis, median_millis, states_per_sec, threads and runs_per_sec \
                 depend on the host; every other field is deterministic"
                    .into(),
            ),
        ),
    ];
    let mut out = format!("{{\n  {}", json_members(&header, ",\n  "));
    for (id, rows) in experiments {
        let rows: Vec<String> = rows
            .iter()
            .map(|row| format!("    {{{}}}", json_members(row, ", ")))
            .collect();
        out.push_str(&format!(
            ",\n  {}: [\n{}\n  ]",
            Json::Str(format!("{id}_rows")),
            rows.join(",\n")
        ));
    }
    out.push_str("\n}\n");
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
pub struct CatalogLintRow {
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
pub fn catalog_lint_rows() -> Vec<CatalogLintRow> {
    use rc_runtime::{
        analyze_system, lint_ample, lint_with_analysis, system_analysis_cached, AnalysisBudget,
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
            CatalogLintRow {
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
fn ample_verdict(row: &CatalogLintRow) -> Result<String, String> {
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
fn scalarset_verdict(row: &CatalogLintRow) -> Result<String, String> {
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
         pc), so the crash column is the sound basis for the verdicts. \
         The ample column is the POR soundness lint (`lint_ample`): \
         static C0–C2-style checks plus a dynamic spot-check that \
         re-executes pruned interleavings at sampled states — \
         `ineligible` (A1/A2) means the engine \
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
    use std::collections::BTreeSet;

    /// Smoke-tests each experiment at tiny sizes; correctness assertions
    /// are inside the experiment functions themselves. E2's and E10's
    /// randomized hunts sweep through `swarm`, and their counts are
    /// pinned at the values of the per-seed loops they replaced: E2's
    /// crashes and violations per row here, E10's zero violations per
    /// row inside `e10_headline` (its table has no violation column).
    #[test]
    fn experiments_run_small() {
        assert!(e1_figure1(5).contains("E1"));
        let e2 = e2_team_rc(5);
        let row = |ty: &str| -> Vec<&str> {
            let line = e2.lines().find(|l| l.starts_with(ty)).expect("E2 row");
            line.split_whitespace().collect()
        };
        // type, n, model-checked states, schedules, crashes, violations
        assert_eq!(row("S_2 "), ["S_2", "2", "514", "5", "21", "0"]);
        assert_eq!(row("S_3 "), ["S_3", "3", "3981", "5", "25", "0"]);
        let e10 = e10_headline(5);
        assert_eq!(e10.matches("✓ (5 crash schedules)").count(), 4, "{e10}");
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

    /// `tables e11 e12 e13 e15 e16 e17 e18 --fast`, row by row: each
    /// row's key (system, budget, mode, caps) and its deterministic
    /// columns (verdict, states, leaves; for E18 finals, violations, first
    /// seed and witness lengths). Each sweep asserts its own invariants
    /// while it runs.
    const E11_FAST: &[&str] = &[
        "S_2 | 0 | off | 5000000 | Verified | 68 | 5",
        "S_2 | 1 | off | 5000000 | Verified | 279 | 6",
        "S_2 | 2 | off | 5000000 | Verified | 514 | 6",
        "S_3 | 0 | off | 5000000 | Verified | 561 | 8",
        "S_3 | 1 | off | 5000000 | Verified | 2161 | 9",
        "S_3 | 2 | off | 5000000 | Verified | 3981 | 9",
        "S_4 | 0 | off | 5000000 | Verified | 4315 | 11",
        "S_4 | 1 | off | 5000000 | Verified | 15557 | 12",
    ];
    const E12_FAST: &[&str] = &[
        "S_3 | 1 | off | 5000000 | Verified | 2161 | 9",
        "S_3 | 1 | on | 5000000 | Verified | 1258 | 9",
        "S_3 | 2 | off | 5000000 | Verified | 3981 | 9",
        "S_3 | 2 | on | 5000000 | Verified | 2328 | 9",
        "S_4 | 1 | off | 5000000 | Verified | 15557 | 12",
        "S_4 | 1 | on | 5000000 | Verified | 4037 | 12",
    ];
    const E13_FAST: &[&str] = &[
        "masked S_4 | 0 | slots | 5000000 | Verified | 9909 | 11",
        "masked S_4 | 0 | off | 5000000 | Verified | 9909 | 11",
        "masked S_4 | 0 | rebind | 5000000 | Verified | 2322 | 11",
        "masked S_4 | 1 | slots | 5000000 | Verified | 48625 | 12",
        "masked S_4 | 1 | off | 5000000 | Verified | 48625 | 12",
        "masked S_4 | 1 | rebind | 5000000 | Verified | 10978 | 12",
        "masked S_5 | 0 | off | 5000000 | Verified | 94781 | 14",
        "masked S_5 | 0 | rebind | 5000000 | Verified | 7610 | 14",
        "SimultaneousRc n=3 | 1 | off | 5000000 | Verified | 175535 | 42",
        "SimultaneousRc n=3 | 1 | slots | 5000000 | Verified | 175535 | 42",
    ];
    const E15_FAST: &[&str] = &[
        "masked S_4 | 0 | off | 5000000 | Verified | 9909 | 11",
        "masked S_4 | 0 | por | 5000000 | Verified | 6416 | 11",
        "masked S_4 | 0 | rebind | 5000000 | Verified | 2322 | 11",
        "masked S_4 | 0 | por+rebind | 5000000 | Verified | 1306 | 11",
        "masked S_4 | 1 | off | 5000000 | Verified | 48625 | 12",
        "masked S_4 | 1 | por | 5000000 | Verified | 56443 | 12",
        "masked S_4 | 1 | rebind | 5000000 | Verified | 10978 | 12",
        "masked S_4 | 1 | por+rebind | 5000000 | Verified | 12589 | 12",
        "masked S_4 (CrashAll) | 1 | off | 5000000 | Verified | 43239 | 11",
        "masked S_4 (CrashAll) | 1 | por | 5000000 | Verified | 21205 | 11",
        "masked S_4 (CrashAll) | 1 | rebind | 5000000 | Verified | 10287 | 11",
        "masked S_4 (CrashAll) | 1 | por+rebind | 5000000 | Verified | 5213 | 11",
        "SimultaneousRc n=3 | 1 | off | 5000000 | Verified | 175535 | 42",
        "SimultaneousRc n=3 | 1 | por | 5000000 | Verified | 126453 | 42",
    ];
    const E16_FAST: &[&str] = &[
        "masked S_4 | 0 | unreduced | 5000000 | Verified | 9909 | 11",
        "masked S_4 | 0 | por+rebind | 5000000 | Verified | 1306 | 11",
        "S_4 | 2 | unreduced | 5000000 | Verified | 28675 | 12",
    ];
    const E17_FAST: &[&str] = &[
        "SimultaneousRc n=3 (inputs 0,0,1) | 1 | off | 5000000 | Verified | 116777 | 24",
        "SimultaneousRc n=3 (inputs 0,0,1) | 1 | scalarset | 5000000 | Verified | 93963 | 24",
        "SimultaneousRc n=3 (inputs 0,0,1) | 1 | scalarset+por | 5000000 | Verified | 67125 | 24",
    ];
    const E18_FAST: &[&str] = &[
        "team-rc-s3 | 24 | 0 | — | —",
        "team-rc-s4 | 34 | 0 | — | —",
        "masked-team-rc-s3 | 25 | 0 | — | —",
        "broken-team-rc | 7 | 17 | 1 | 14→10",
        "team-consensus-t4 | 4 | 0 | — | —",
        "tournament-rc-t6 | 48 | 0 | — | —",
        "simultaneous-rc-n3 | 65 | 0 | — | —",
    ];
    const MEASURED_PIN: &[&str] = &[
        "system", "budget", "mode", "cap", "verdict", "states", "leaves",
    ];
    const E18_PIN: &[&str] = &["system", "finals", "viol", "first", "witness"];

    /// A row's cells in the `keep` columns.
    fn pin<R>(columns: &[Column<R>], keep: &[&str], row: &R) -> String {
        let cells = columns.iter().filter(|c| keep.contains(&c.0));
        cells.map(|c| (c.1)(row)).collect::<Vec<_>>().join(" | ")
    }

    /// The keys of a JSON object written on one line: each string that
    /// a `": ` follows.
    fn object_keys(line: &str) -> Vec<String> {
        line.match_indices("\": ")
            .filter_map(|(end, _)| line[..end].rsplit('"').next().map(str::to_string))
            .collect()
    }

    /// A snapshot's top-level keys, in order.
    fn top_level_keys(json: &str) -> Vec<String> {
        json.lines()
            .filter(|l| l.starts_with("  \""))
            .flat_map(|l| object_keys(l).into_iter().take(1))
            .collect()
    }

    /// Each `<id>_rows` array of a snapshot, with the keys of each row.
    fn snapshot_sections(json: &str) -> Vec<(String, Vec<BTreeSet<String>>)> {
        let mut sections: Vec<(String, Vec<BTreeSet<String>>)> = Vec::new();
        for line in json.lines().map(str::trim) {
            if let Some(id) = line
                .strip_prefix('"')
                .and_then(|l| l.strip_suffix("_rows\": ["))
            {
                sections.push((id.to_string(), Vec::new()));
            } else if line.starts_with('{') && line.len() > 1 {
                let rows = &mut sections.last_mut().expect("rows inside an array").1;
                rows.push(object_keys(line).into_iter().collect());
            }
        }
        sections
    }

    /// The fast sweeps reproduce their pinned rows exactly — a dropped,
    /// added or reordered row, a changed configuration or a changed
    /// count fails — and the snapshot writer writes them: one non-empty
    /// array per experiment, one key set for every E11–E17 row.
    #[test]
    fn fast_sweeps_reproduce_their_pinned_rows() {
        type Sweep = fn(bool) -> (String, Vec<Measured>);
        let sweeps: [(&str, Sweep, &[&str]); 6] = [
            ("e11", e11_explore_scaling, E11_FAST),
            ("e12", e12_symmetry_reduction, E12_FAST),
            ("e13", e13_full_state_symmetry, E13_FAST),
            ("e15", e15_por_reduction, E15_FAST),
            ("e16", e16_storage_scaling, E16_FAST),
            ("e17", e17_scalarset_symmetry, E17_FAST),
        ];
        let (measured, (swarm_report, swarm_rows)) = std::thread::scope(|s| {
            let runs = sweeps.map(|(_, sweep, _)| s.spawn(move || sweep(true)));
            let swarm = e18_swarm(true);
            let measured = runs.map(|run| run.join().expect("the sweep's assertions hold"));
            (measured, swarm)
        });
        let mut experiments = Vec::new();
        for ((id, _, want), (report, rows)) in sweeps.iter().zip(&measured) {
            assert!(report.starts_with(&id.to_uppercase()), "{report}");
            let pins: Vec<_> = rows
                .iter()
                .map(|r| pin(E16_COLUMNS, MEASURED_PIN, r))
                .collect();
            assert_eq!(pins, *want, "{id}");
            experiments.push((*id, rows.iter().map(Measured::json).collect()));
        }
        assert!(swarm_report.starts_with("E18"), "{swarm_report}");
        let pins: Vec<_> = swarm_rows
            .iter()
            .map(|r| pin(E18_COLUMNS, E18_PIN, r))
            .collect();
        assert_eq!(pins, E18_FAST);
        experiments.push(("e18", swarm_rows.iter().map(E18Row::json).collect()));

        let sections = snapshot_sections(&snapshot_json("rev", &experiments));
        let ids: Vec<&str> = sections.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, crate::cli::SNAPSHOT_IDS);
        for (id, rows) in &sections {
            assert!(!rows.is_empty(), "{id}_rows is empty");
        }
        let shapes: BTreeSet<&BTreeSet<String>> = sections
            .iter()
            .filter(|(id, _)| id != "e18")
            .flat_map(|(_, rows)| rows)
            .collect();
        assert_eq!(shapes.len(), 1, "E11–E17 rows differ in shape: {shapes:?}");
    }

    /// The committed `BENCH_explore.json` is what the writer writes
    /// today: the same schema and top-level keys, the snapshot
    /// experiments in order, and rows carrying exactly the writer's keys.
    /// Regenerate it with `tables --snapshot` when this fails.
    #[test]
    fn committed_snapshot_matches_the_writer() {
        let committed = std::fs::read_to_string(workspace_root().join("BENCH_explore.json"))
            .expect("BENCH_explore.json at the workspace root");
        let (ty, w) = sn_witness(2);
        let inputs = team_inputs(&w.assignment);
        let build = || build_team_rc_system(ty.clone(), &w, &inputs);
        let config = sweep_config(CrashModel::independent(0), &inputs);
        let measured = measure("S_2", "off", Factory::Plain(&build), &config).json();
        let experiments: Vec<(&str, Vec<JsonRow>)> = crate::cli::SNAPSHOT_IDS
            .iter()
            .map(|&id| match id {
                "e18" => {
                    let row = E18Row {
                        samples: vec![Duration::ZERO],
                        ..E18Row::default()
                    };
                    (id, vec![row.json()])
                }
                _ => (id, vec![measured.clone()]),
            })
            .collect();
        let written = snapshot_json("rev", &experiments);
        assert!(
            committed.contains(&format!("\n  \"schema\": {SNAPSHOT_SCHEMA},\n")),
            "the committed schema is not the writer's {SNAPSHOT_SCHEMA}"
        );
        assert_eq!(top_level_keys(&committed), top_level_keys(&written));
        let want = snapshot_sections(&written);
        let got = snapshot_sections(&committed);
        assert_eq!(
            got.iter().map(|(id, _)| id).collect::<Vec<_>>(),
            want.iter().map(|(id, _)| id).collect::<Vec<_>>()
        );
        for ((id, rows), (_, want)) in got.iter().zip(&want) {
            for (i, keys) in rows.iter().enumerate() {
                assert_eq!(
                    keys, &want[0],
                    "{id}_rows[{i}] differs from the writer's keys"
                );
            }
        }
    }

    #[test]
    fn json_strings_are_escaped() {
        let s = Json::Str("a\"b\\c\n\u{1}é".into()).to_string();
        assert_eq!(s, r#""a\"b\\c\n\u0001é""#);
        assert_eq!(Json::Fixed(f64::NAN, 1).to_string(), "null");
        assert_eq!(Json::Fixed(2.26, 1).to_string(), "2.3");
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
