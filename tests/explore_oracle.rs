//! An independent oracle for the model checker's state and leaf counts.
//!
//! [`naive_bfs`] is a deliberately simple breadth-first search over fully
//! materialized states: a cloned `Memory`, boxed programs, the decided
//! flags, the crashes used and the first decided value, keyed by
//! `Memory::state_key` and `Program::state_key` in a std `HashSet`.
//! Crashes call `Program::on_crash` on the live program and follow
//! `CrashModel::legal_crashes`; branching follows `Program::choices`.
//! There is no interning, copy-on-write, key packing, symmetry or
//! partial-order reduction, so agreement with `explore` is a check by a
//! second, unrelated search.

use rc_core::algorithms::{
    build_broken_team_rc_system, build_masked_team_rc_system, build_masked_team_rc_system_sym,
    build_simultaneous_rc_system, build_simultaneous_rc_system_sym, build_team_rc_system,
    build_team_rc_system_sym, ConsensusObjectFactory,
};
use rc_core::{check_recording, find_recording_witness, Assignment, RecordingWitness, Team};
use rc_runtime::sched::Action;
use rc_runtime::{
    explore, explore_symmetric, CrashModel, ExploreConfig, ExploreOutcome, Memory, Program, Step,
    ViolationKind,
};
use rc_spec::types::{Cas, Sn};
use rc_spec::{TypeHandle, Value};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// A guard against runaway instances: every instance here has at most
/// this many states, which keeps the suite fast in the debug profile.
const ORACLE_CAP: usize = 5_000;

/// One fully materialized system state.
#[derive(Clone)]
struct Node {
    mem: Memory,
    programs: Vec<Box<dyn Program>>,
    decided: Vec<bool>,
    crashes: usize,
    decided_value: Option<Value>,
}

type Key = (Vec<Value>, Vec<Value>, Vec<bool>, usize, Option<Value>);

impl Node {
    fn key(&self) -> Key {
        (
            self.mem.state_key(),
            self.programs.iter().map(|p| p.state_key()).collect(),
            self.decided.clone(),
            self.crashes,
            self.decided_value.clone(),
        )
    }

    /// Every action the adversary may take: a step (or each internal
    /// alternative) of every undecided process, then the legal crashes.
    fn actions(&self, crash: &CrashModel) -> Vec<Action> {
        let mut actions = Vec::new();
        for p in (0..self.programs.len()).filter(|&p| !self.decided[p]) {
            let choices = self.programs[p].choices();
            if choices.len() <= 1 {
                actions.push(Action::Step(p));
            } else {
                actions.extend(choices.into_iter().map(|c| Action::Branch(p, c)));
            }
        }
        actions.extend(crash.legal_crashes(&self.decided, self.crashes));
        actions
    }

    /// The successor under `action`, or the violated property.
    fn child(&self, action: Action, inputs: Option<&[Value]>) -> Result<Node, ViolationKind> {
        let mut child = self.clone();
        let (p, step) = match action {
            Action::Step(p) => (p, child.programs[p].step(&mut child.mem)),
            Action::Branch(p, c) => (p, child.programs[p].step_choice(&mut child.mem, c)),
            Action::Crash(p) => {
                child.programs[p].on_crash();
                child.decided[p] = false;
                child.crashes += 1;
                return Ok(child);
            }
            Action::CrashAll => {
                for prog in &mut child.programs {
                    prog.on_crash();
                }
                child.decided.iter_mut().for_each(|d| *d = false);
                child.crashes += 1;
                return Ok(child);
            }
        };
        if let Step::Decided(v) = step {
            if child.decided_value.as_ref().is_some_and(|d| *d != v) {
                return Err(ViolationKind::Agreement);
            }
            if inputs.is_some_and(|inputs| !inputs.contains(&v)) {
                return Err(ViolationKind::Validity);
            }
            child.decided[p] = true;
            child.decided_value.get_or_insert(v);
        }
        Ok(child)
    }
}

/// Distinct reachable states and distinct terminal states (no action
/// enabled), or the first violation the search meets.
fn naive_bfs(
    (mem, programs): (Memory, Vec<Box<dyn Program>>),
    crash: &CrashModel,
    inputs: Option<&[Value]>,
) -> Result<(usize, usize), ViolationKind> {
    let n = programs.len();
    let root = Node {
        mem,
        programs,
        decided: vec![false; n],
        crashes: 0,
        decided_value: None,
    };
    let mut seen: HashSet<Key> = HashSet::from([root.key()]);
    let mut queue = VecDeque::from([root]);
    let mut terminals = 0;
    while let Some(node) = queue.pop_front() {
        let actions = node.actions(crash);
        if actions.is_empty() {
            terminals += 1;
        }
        for action in actions {
            let child = node.child(action, inputs)?;
            if seen.insert(child.key()) {
                assert!(seen.len() <= ORACLE_CAP, "oracle instance too large");
                queue.push_back(child);
            }
        }
    }
    Ok((seen.len(), terminals))
}

fn sn_system(n: usize) -> (TypeHandle, RecordingWitness, Vec<Value>) {
    let sn = Sn::new(n);
    let a = Assignment::split(Sn::q0(), vec![Sn::op_a()], vec![Sn::op_b(); n - 1]);
    let w = check_recording(&sn, &a).expect("S_n witness");
    let inputs = team_inputs(&w);
    (Arc::new(sn), w, inputs)
}

fn team_inputs(w: &RecordingWitness) -> Vec<Value> {
    w.assignment
        .teams
        .iter()
        .map(|t| Value::Int(i64::from(*t == Team::B)))
        .collect()
}

fn config(crash: CrashModel, inputs: &[Value]) -> ExploreConfig {
    ExploreConfig {
        crash,
        inputs: Some(inputs.to_vec()),
        ..ExploreConfig::default()
    }
}

/// The oracle's counts, as the `Verified` outcome `explore` must report.
fn expected(
    system: (Memory, Vec<Box<dyn Program>>),
    config: &ExploreConfig,
) -> (ExploreOutcome, usize) {
    let (states, leaves) = naive_bfs(system, &config.crash, config.inputs.as_deref())
        .unwrap_or_else(|kind| panic!("correct systems verify, got {kind:?}"));
    (ExploreOutcome::Verified { states, leaves }, leaves)
}

fn leaves(outcome: ExploreOutcome) -> usize {
    match outcome {
        ExploreOutcome::Verified { leaves, .. } => leaves,
        other => panic!("reduced search must verify: {other:?}"),
    }
}

/// Fig. 2 over `S_2` and `S_3`: every independent budget 0–2 with and
/// without post-decide crashes, and simultaneous budget 1. The plain
/// search's states and leaves equal the oracle's exactly, and the
/// terminal count equals the weighted leaves under slots symmetry and
/// under POR.
#[test]
fn team_rc_counts_match_the_naive_oracle() {
    for n in [2usize, 3] {
        let (ty, w, inputs) = sn_system(n);
        let plain = || build_team_rc_system(ty.clone(), &w, &inputs);
        let sym = || build_team_rc_system_sym(ty.clone(), &w, &inputs);
        let mut crashes = vec![
            CrashModel::simultaneous(1),
            CrashModel::simultaneous(1).after_decide(true),
        ];
        for budget in 0..=2 {
            crashes.push(CrashModel::independent(budget));
            crashes.push(CrashModel::independent(budget).after_decide(true));
        }
        for crash in crashes {
            let config = config(crash, &inputs);
            let (oracle, terminals) = expected(plain(), &config);
            assert_eq!(explore(&plain, &config), oracle, "S_{n} {crash:?}");
            let reduced = ExploreConfig {
                por: true,
                analysis_id: Some(format!("oracle/S_{n}")),
                ..config.clone()
            };
            assert_eq!(
                leaves(explore(&plain, &reduced)),
                terminals,
                "S_{n} {crash:?} por"
            );
            assert_eq!(
                leaves(explore_symmetric(&sym, &config)),
                terminals,
                "S_{n} {crash:?} sym"
            );
        }
    }
}

/// The input-masked Fig. 2 systems: the terminal count equals the
/// weighted leaves of the full-state (rebind) symmetric search, alone
/// and composed with POR.
#[test]
fn rebind_leaves_match_the_naive_oracle() {
    let (ty, w, inputs) = sn_system(3);
    let masked = || build_masked_team_rc_system(ty.clone(), &w, &inputs);
    let masked_sym = || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
    for budget in [0usize, 1] {
        let config = config(CrashModel::independent(budget).after_decide(true), &inputs);
        let (oracle, terminals) = expected(masked(), &config);
        assert_eq!(
            explore(&masked, &config),
            oracle,
            "masked S_3 budget {budget}"
        );
        assert_eq!(leaves(explore_symmetric(&masked_sym, &config)), terminals);
        let reduced = ExploreConfig {
            por: true,
            analysis_id: Some("oracle/masked-S_3".into()),
            ..config
        };
        assert_eq!(leaves(explore_symmetric(&masked_sym, &reduced)), terminals);
    }
}

/// Fig. 4 (`SimultaneousRc`, n = 3, inputs 0,0,1) at budget 0: exact
/// agreement with the plain search, and the terminal count equals the
/// weighted leaves under the certified scalarset symmetry, POR, and
/// both composed.
#[test]
fn simultaneous_rc_counts_match_the_naive_oracle() {
    let factory = ConsensusObjectFactory { domain: 4 };
    let inputs = vec![Value::Int(0), Value::Int(0), Value::Int(1)];
    let plain = || build_simultaneous_rc_system(&factory, &inputs, 4);
    let sym = || build_simultaneous_rc_system_sym(&factory, &inputs, 4);
    let base = ExploreConfig {
        analysis_id: Some("oracle/simultaneous-rc-n3".into()),
        ..config(CrashModel::simultaneous(0).after_decide(true), &inputs)
    };
    let (oracle, terminals) = expected(plain(), &base);
    assert_eq!(explore(&plain, &base), oracle);
    let reduced = ExploreConfig {
        por: true,
        ..base.clone()
    };
    assert_eq!(leaves(explore(&plain, &reduced)), terminals, "por");
    assert_eq!(
        leaves(explore_symmetric(&sym, &base)),
        terminals,
        "scalarset"
    );
    assert_eq!(leaves(explore_symmetric(&sym, &reduced)), terminals, "both");
}

/// The Section 3.1 broken guard: the oracle finds a violation of the
/// same kind as the engine.
#[test]
fn oracle_and_engine_agree_on_the_broken_guard() {
    let cas: TypeHandle = Arc::new(Cas::new(2));
    let w = find_recording_witness(&cas, 3)
        .expect("cas witness")
        .normalized();
    // The scenario needs two team-B processes to race past the guard.
    let w = if w.assignment.team_size(Team::B) >= 2 {
        w
    } else {
        RecordingWitness {
            assignment: w.assignment.swap_teams(),
            q_a: w.q_b.clone(),
            q_b: w.q_a.clone(),
        }
    };
    let inputs = team_inputs(&w);
    let factory = || build_broken_team_rc_system(cas.clone(), &w, &inputs);
    let config = config(CrashModel::none(), &inputs);
    let kind = match explore(&factory, &config) {
        ExploreOutcome::Violation { kind, .. } => kind,
        other => panic!("the broken guard must fail: {other:?}"),
    };
    assert_eq!(
        naive_bfs(factory(), &config.crash, config.inputs.as_deref()),
        Err(kind)
    );
}
