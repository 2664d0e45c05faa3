//! End-to-end properties of the swarm verification service: the
//! determinism contract (equal seeds give byte-identical aggregates at
//! any thread count, equal to an independent fresh-build loop), the
//! cross-executor contract (the exhaustive checker's executor replays
//! every swarm schedule to the same decisions and flags exactly its
//! safety violations) and the shrinker invariants (a shrunken schedule
//! still violates, is crash-legal, is a subsequence of the original and
//! re-verifies on the checker), exercised through the same catalog the
//! `swarm` binary sweeps.

use proptest::prelude::*;
use rc_bench::swarm_catalog::{find_system, swarm_catalog, SwarmSystem};
use rc_runtime::swarm::swarm;
use rc_runtime::verify::{check_consensus_execution, RcViolation};
use rc_runtime::{
    is_subsequence, replay_on_checker, replay_schedule, replay_seed, run, shrink_schedule,
    CrashModel, RunOptions, SwarmConfig,
};
use rc_spec::Value;
use std::collections::HashSet;
use std::sync::OnceLock;

/// The catalog, built once: witness search (`find_recording_witness`,
/// `check_recording`) is the expensive part and is identical across
/// tests.
fn catalog() -> &'static [SwarmSystem] {
    static CATALOG: OnceLock<Vec<SwarmSystem>> = OnceLock::new();
    CATALOG.get_or_init(swarm_catalog)
}

fn system(id: &str) -> &'static SwarmSystem {
    let systems = catalog();
    &systems[find_system(systems, id).unwrap_or_else(|| panic!("{id} in catalog"))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The swarm determinism contract: the same seed range produces
    /// byte-identical deterministic aggregates (violating seeds,
    /// distinct-final-state count, step/crash totals) regardless of
    /// worker thread count — workers race for seed chunks, but every
    /// aggregate is a commutative fold over per-seed results.
    #[test]
    fn equal_seeds_give_byte_identical_runs_across_thread_counts(
        seed_start in 0u64..100_000,
        seeds in 1u64..48,
        threads_a in 1usize..5,
        threads_b in 1usize..5,
    ) {
        let sys = system("team-rc-s3");
        let a = swarm(sys.factory(), &sys.config(seed_start, seeds, threads_a));
        let b = swarm(sys.factory(), &sys.config(seed_start, seeds, threads_b));
        prop_assert_eq!(a.deterministic_summary(), b.deterministic_summary());
        prop_assert_eq!(a.runs, seeds);
    }

    /// Replaying a seed from a sweep reproduces the sweep's verdict for
    /// it exactly — on the seeded bug, where both verdicts occur.
    #[test]
    fn replayed_seeds_reproduce_the_sweep_verdict(seed in 0u64..600) {
        let sys = system("broken-team-rc");
        let config = sys.config(seed, 1, 1);
        let report = swarm(sys.factory(), &config);
        let rerun = replay_seed(sys.factory(), &config, seed);
        match report.violations.first() {
            Some(v) => {
                prop_assert_eq!(v.seed, seed);
                prop_assert_eq!(rerun.verdict.as_ref().err(), Some(&v.violation));
            }
            None => prop_assert!(rerun.verdict.is_ok()),
        }
    }
}

/// The sweep against an independent reference loop, on every catalog
/// system: each seed runs on a fresh `factory()` build under
/// `scheduler_for(seed)`, is checked with `check_consensus_execution`,
/// and its final state goes into a std `HashSet` of structural
/// observables (program state keys, every output, the decided and
/// step-limit flags, `Memory::state_key()`). The swarm shares only the
/// scheduler with it: it runs each seed on the checker's step memo from
/// one build, not through `run`, computes its verdict on interned ids,
/// keys finals as packed words and merges per-worker tables. So this is
/// a check across two executors: at one and at three threads the sweep
/// must report exactly the loop's coverage, step and crash totals and
/// violating seeds.
///
/// Each seed's recorded schedule also replays on the exhaustive
/// checker's executor (`replay_on_checker`: the checker's transition on keys,
/// per-decision checks), which must make the same decisions in the same
/// order and flag a violation exactly when the reference verdict is a
/// safety violation. Flags are compared, not kinds: the reference checks
/// agreement over all outputs before validity, the checker each decision
/// in time order, so an invalid decision followed by a conflicting one
/// reads validity on one side and agreement on the other.
#[test]
fn sweeps_match_a_fresh_build_reference_loop() {
    const SEEDS: u64 = 300;
    for sys in catalog() {
        let config = sys.config(7_000, SEEDS, 1);
        let mut finals = HashSet::new();
        let (mut steps, mut crashes) = (0u64, 0u64);
        let mut violations = Vec::new();
        for seed in config.seed_start..config.seed_start + SEEDS {
            let (mut mem, mut programs) = (sys.factory())();
            let options = RunOptions {
                max_actions: config.max_actions,
                record_trace: true,
            };
            let exec = run(
                &mut mem,
                &mut programs,
                &mut config.scheduler_for(seed),
                options,
            );
            steps += exec.steps as u64;
            crashes += exec.crashes as u64;
            let verdict = check_consensus_execution(&exec, &sys.inputs);
            let checker =
                replay_on_checker(sys.factory(), &exec.trace.to_actions(), Some(&sys.inputs));
            let at = format!("{} seed {seed}", sys.id);
            assert_eq!(checker.decisions, exec.trace.decisions(), "{at}: decisions");
            assert_eq!(
                checker.violation.is_some(),
                matches!(
                    verdict,
                    Err(RcViolation::Agreement { .. } | RcViolation::Validity { .. })
                ),
                "{at}: the checker flags exactly the safety violations ({verdict:?})"
            );
            if let Err(violation) = verdict {
                violations.push((seed, violation));
            }
            let program_keys: Vec<Value> = programs.iter().map(|p| p.state_key()).collect();
            finals.insert((
                program_keys,
                exec.outputs,
                exec.all_decided,
                exec.hit_step_limit,
                mem.state_key(),
            ));
        }
        assert_eq!(
            !violations.is_empty(),
            sys.expect_violation,
            "{}: the reference loop's verdict",
            sys.id
        );
        for threads in [1, 3] {
            let report = swarm(
                sys.factory(),
                &SwarmConfig {
                    threads,
                    ..config.clone()
                },
            );
            let at = format!("{} at {threads} threads", sys.id);
            assert_eq!(report.distinct_final_states, finals.len(), "{at}: finals");
            assert_eq!(report.total_steps, steps, "{at}: steps");
            assert_eq!(report.total_crashes, crashes, "{at}: crashes");
            let found: Vec<_> = report
                .violations
                .iter()
                .map(|v| (v.seed, v.violation.clone()))
                .collect();
            assert_eq!(found, violations, "{at}: violating seeds");
        }
    }
}

/// The shrinker invariants, over every violating seed of a crash-free
/// sweep of the seeded bug: the minimal witness is a subsequence of the
/// replayed schedule, is [`CrashModel`]-legal, still exhibits the same
/// violation kind when replayed, and re-verifies on the checker's
/// executor.
#[test]
fn shrunken_witnesses_violate_legally_as_subsequences() {
    let sys = system("broken-team-rc");
    let config = sys.config(0, 200, 0);
    let report = swarm(sys.factory(), &config);
    assert!(
        !report.violations.is_empty(),
        "the seeded bug surfaces within 200 seeds"
    );
    for v in &report.violations {
        let rerun = replay_seed(sys.factory(), &config, v.seed);
        let schedule = rerun.execution.trace.to_actions();
        let shrunk =
            shrink_schedule(sys.factory(), &config, &schedule).expect("safety violations shrink");
        assert!(
            is_subsequence(&shrunk.schedule, &schedule),
            "seed {}: witness must be a subsequence of the original",
            v.seed
        );
        assert!(shrunk.schedule.len() <= schedule.len());
        assert!(shrunk.witness_verified, "seed {}: checker replay", v.seed);
        assert_eq!(
            std::mem::discriminant(&shrunk.violation),
            std::mem::discriminant(&v.violation),
            "seed {}: the violation kind is preserved",
            v.seed
        );
        let replay = replay_schedule(sys.factory(), &config, &shrunk.schedule);
        assert!(replay.legal, "seed {}: witness must be crash-legal", v.seed);
        let verdict =
            rc_runtime::verify::check_consensus_execution(&replay.execution, sys.inputs.as_slice());
        assert_eq!(
            verdict.as_ref().err().map(std::mem::discriminant),
            Some(std::mem::discriminant(&v.violation)),
            "seed {}: the witness still violates when replayed cold",
            v.seed
        );
    }
}

/// The same invariants when the adversary injects crashes: overriding
/// the seeded bug's crash-free default with an independent-crash model
/// puts `Crash` actions into the violating schedules, and the shrunken
/// witness must stay legal under that model's budget.
#[test]
fn shrinking_respects_the_crash_model_budget() {
    let sys = system("broken-team-rc");
    let mut config = sys.config(0, 150, 0);
    config.crash = CrashModel::independent(2).after_decide(true);
    config.crash_prob = 0.2;
    let report = swarm(sys.factory(), &config);
    assert!(
        !report.violations.is_empty(),
        "the bug still surfaces under crashes"
    );
    let mut crashes_seen = 0usize;
    for v in report.violations.iter().take(5) {
        let rerun = replay_seed(sys.factory(), &config, v.seed);
        let schedule = rerun.execution.trace.to_actions();
        crashes_seen += usize::from(rerun.execution.crashes > 0);
        let shrunk =
            shrink_schedule(sys.factory(), &config, &schedule).expect("safety violations shrink");
        assert!(
            is_subsequence(&shrunk.schedule, &schedule),
            "seed {}",
            v.seed
        );
        let replay = replay_schedule(sys.factory(), &config, &shrunk.schedule);
        assert!(replay.legal, "seed {}: budget-legal witness", v.seed);
        assert!(shrunk.witness_verified, "seed {}: checker replay", v.seed);
    }
    assert!(
        crashes_seen > 0,
        "at least one checked schedule actually contains crashes"
    );
}

/// A progress-enabled sweep returns as soon as its last run completes,
/// not on the next progress tick, and its last sample reports every run.
/// (A 1-seed sweep finishes in well under the 250 ms tick, so a sweep
/// that waited for the tick before noticing completion fails here.)
#[test]
fn progress_sweeps_return_on_completion_with_a_final_sample() {
    use rc_runtime::{swarm_with_progress, SwarmProgress};
    use std::sync::Mutex;
    let sys = system("team-rc-s3");
    let config = sys.config(0, 1, 1);
    let samples = Mutex::new(Vec::new());
    let sink = |p: SwarmProgress| samples.lock().expect("sink lock").push(p);
    let report = swarm_with_progress(sys.factory(), &config, Some(&sink));
    assert_eq!(report.runs, 1);
    assert!(
        report.elapsed_millis < 250.0,
        "the sweep waited for a progress tick: {} ms",
        report.elapsed_millis
    );
    let samples = samples.into_inner().expect("sink lock");
    let last = samples.last().expect("a progress sink gets a final sample");
    assert_eq!((last.runs, last.total), (1, 1));
}
