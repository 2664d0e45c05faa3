//! Swarm verification: millions of deterministically-seeded random
//! schedules fanned across all cores, with counterexample shrinking.
//!
//! The exhaustive checker ([`explore`](crate::explore)) gives exact
//! verdicts on small instances; beyond its frontier the repo used to
//! offer only one-shot [`RandomScheduler`] runs. This module turns that
//! one-shot into a *service*: [`swarm`] partitions a contiguous seed
//! range across worker threads, runs one full seeded execution per seed
//! on the exhaustive checker's step memo, checks every execution
//! against the recoverable-consensus contract
//! ([`verify`](crate::verify)), and aggregates
//!
//! * the **violating seeds** (each reproduces deterministically from the
//!   seed alone — [`replay_seed`]),
//! * **distinct-final-state coverage**, deduplicated exactly through the
//!   packed byte-arena tables of [`storage`](crate::PackedStateTable)
//!   (a canonical injective encoding of shared memory, program states,
//!   decided flags and all outputs), and
//! * throughput counters (runs, steps, crashes).
//!
//! ## Determinism contract
//!
//! Seed `s` always denotes the same execution:
//! `run(factory(), RandomScheduler(seed = s), …)`. Both the factory and
//! the scheduler are deterministic (see the [`sched`](crate::sched)
//! module contract). Consequently every *deterministic* aggregate —
//! violating seed set, distinct-final-state count, total steps and
//! crashes — is a pure function of `(factory, SwarmConfig)` and is
//! **byte-identical across thread counts**: workers only partition the
//! seed range; the merge is a set union and a sort. Wall-clock fields
//! are the only machine-dependent outputs. The property suite asserts
//! this across thread counts.
//!
//! A sweep calls the factory **once**, on the calling thread. Each
//! worker turns that build into a root node of the checker — an
//! interned state key, and nothing else — with its own value interner,
//! post-crash program ids, step memo and programs (one per process slot
//! and program-state id), and runs every seed it claims from that root,
//! not through [`run`]. A seed starts from a copy of the root key and
//! advances by the checker's own transition. A step is a memo lookup on
//! (process slot, program-state id, id of the one cell it accesses)
//! patched into the key, and a clone of the slot's program for that id
//! is stepped only on a miss, against that cell's value read from the
//! key. A crash patches in the precomputed post-crash program id. Each
//! decision is recorded as an interned id. The verdict is
//! computed on ids in [`check_consensus_execution`]'s order — agreement
//! over all outputs, then validity, then termination — and returns the
//! same violation. Final states are deduplicated on ids in the worker's
//! own table, and only the finals new to a worker are translated to
//! value words for the merge.
//!
//! So the sweep relies on the [`Program`](crate::Program) step contract
//! the checker relies on:
//!
//! * a step makes at most one shared-memory access;
//! * `state_key` captures the complete volatile state;
//! * `on_crash` resets the program to its post-crash state.
//!
//! The memo's assertions fire if a program breaks the first two clauses:
//! a second access in one step panics, and so do two programs with equal
//! state keys in one slot that access different cells. [`run`] stays the
//! executor of [`replay_seed`], [`replay_schedule`] and
//! [`shrink_schedule`], so every reported seed is re-derived by a
//! second, independent executor, and the tests compare whole sweeps
//! against a per-seed loop of `run` on fresh builds.
//!
//! ## Shrinking
//!
//! A violating seed's schedule is usually hundreds of actions long.
//! [`shrink_schedule`] delta-debugs it down to a **1-minimal witness**:
//! a subsequence of the original schedule that still exhibits the same
//! violation kind, remains legal for the configured [`CrashModel`], and
//! from which no single action can be removed without losing the
//! violation. The shrunken schedule then re-verifies on the exhaustive
//! checker's executor ([`replay_on_checker`]): the checker's transition
//! on interned keys replays it from the root node, and the witness is
//! `witness_verified` when the checker makes the same decisions in the
//! same order as [`run`] over [`Memory`](crate::Memory) and flags a
//! safety violation. Two executors of the crash–recover model then
//! agree on the witness.
//!
//! Only safety violations (agreement, validity) shrink. A termination
//! violation is a liveness property: *every* prefix of a schedule
//! trivially "fails" it (nothing has decided yet), so delta-debugging
//! would shrink any termination witness to the empty schedule.
//! [`shrink_schedule`] refuses with [`ShrinkError::Termination`] instead
//! of returning that vacuity.

use crate::crash::CrashModel;
use crate::exec::{run, Execution, RunOptions};
use crate::explore::{replay_on_checker, MemoExecutor, MemoRun, SystemFactory};
use crate::sched::{Action, RandomScheduler, RandomSchedulerConfig, SchedContext, Scheduler};
use crate::storage::PackedStateTable;
use crate::verify::{check_agreement, check_consensus_execution, RcViolation};
use rc_spec::Value;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// How often [`swarm_with_progress`] samples progress while workers run.
const PROGRESS_TICK: Duration = Duration::from_millis(250);

/// Configuration of one swarm sweep: the seed range, the per-seed
/// scheduler parameters and the fan-out width.
#[derive(Clone, Debug)]
pub struct SwarmConfig {
    /// First seed of the contiguous range.
    pub seed_start: u64,
    /// Number of seeds (= number of executions).
    pub seeds: u64,
    /// Worker threads; `0` selects `available_parallelism()`. All
    /// deterministic aggregates are independent of this knob.
    pub threads: usize,
    /// Per-decision crash probability of the seeded scheduler.
    pub crash_prob: f64,
    /// The crash adversary — shared [`CrashModel`] semantics, so swarm
    /// runs, exhaustive runs and shrunken witnesses agree on crash
    /// legality.
    pub crash: CrashModel,
    /// Safety bound on scheduled actions per execution
    /// ([`RunOptions::max_actions`]).
    pub max_actions: usize,
    /// Declared inputs for the validity check; `None` checks agreement
    /// and termination only.
    pub inputs: Option<Vec<Value>>,
}

impl Default for SwarmConfig {
    /// A broad default adversary: independent crashes with budget 3,
    /// post-decide crashes enabled (re-runs exercised), 15% crash
    /// probability.
    fn default() -> Self {
        SwarmConfig {
            seed_start: 0,
            seeds: 10_000,
            threads: 0,
            crash_prob: 0.15,
            crash: CrashModel::independent(3).after_decide(true),
            max_actions: 100_000,
            inputs: None,
        }
    }
}

impl SwarmConfig {
    /// The seeded scheduler this configuration assigns to `seed` — the
    /// single definition [`swarm`], [`replay_seed`] and the shrinker all
    /// share, so a reported seed can never replay under a different
    /// adversary than the one that found it.
    pub fn scheduler_for(&self, seed: u64) -> RandomScheduler {
        RandomScheduler::new(RandomSchedulerConfig {
            seed,
            crash_prob: self.crash_prob,
            crash: self.crash,
        })
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

/// One violating seed, with the violation its execution exhibits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwarmViolation {
    /// The scheduler seed; [`replay_seed`] reproduces the execution.
    pub seed: u64,
    /// What went wrong.
    pub violation: RcViolation,
}

/// The aggregate result of a swarm sweep.
///
/// Every field except the wall-clock pair (`elapsed_millis`,
/// `runs_per_sec`) is deterministic given the factory and the
/// [`SwarmConfig`], independently of thread count —
/// [`deterministic_summary`](Self::deterministic_summary) renders
/// exactly that invariant subset.
#[derive(Clone, Debug)]
pub struct SwarmReport {
    /// Executions run (= the configured seed count).
    pub runs: u64,
    /// Violating seeds, sorted ascending.
    pub violations: Vec<SwarmViolation>,
    /// Distinct final states over all runs — exact set cardinality via
    /// the packed visited-set tables, not a sketch.
    pub distinct_final_states: usize,
    /// Total process steps across all runs.
    pub total_steps: u64,
    /// Total crash events across all runs.
    pub total_crashes: u64,
    /// Worker threads actually used.
    pub threads_used: usize,
    /// Wall-clock milliseconds (machine-dependent).
    pub elapsed_millis: f64,
    /// Runs per second (machine-dependent).
    pub runs_per_sec: f64,
}

impl SwarmReport {
    /// Renders the thread-count-invariant fields — the string the
    /// determinism tests compare byte-for-byte across worker counts.
    pub fn deterministic_summary(&self) -> String {
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("seed {}: {}", v.seed, v.violation))
            .collect();
        format!(
            "runs={} distinct_final_states={} total_steps={} total_crashes={} violations=[{}]",
            self.runs,
            self.distinct_final_states,
            self.total_steps,
            self.total_crashes,
            violations.join("; "),
        )
    }
}

/// A progress sample, handed to the [`swarm_with_progress`] callback
/// roughly four times a second while workers are running, and once more
/// (with `runs == total`) as soon as the last worker finishes.
#[derive(Clone, Copy, Debug)]
pub struct SwarmProgress {
    /// Runs completed so far.
    pub runs: u64,
    /// Total runs requested.
    pub total: u64,
    /// Violations found so far.
    pub violations: u64,
    /// Seconds since the sweep started.
    pub elapsed_secs: f64,
}

struct WorkerOutput {
    /// Length-prefixed concatenation of the worker's locally-fresh final
    /// state keys, replayed into the global table during the merge.
    fresh_keys: Vec<u32>,
    violations: Vec<SwarmViolation>,
    steps: u64,
    crashes: u64,
}

/// Runs the swarm sweep; see the [module docs](self) for the contract.
pub fn swarm(factory: &SystemFactory<'_>, config: &SwarmConfig) -> SwarmReport {
    swarm_with_progress(factory, config, None)
}

/// [`swarm`] with a streaming progress callback (invoked from the
/// coordinating thread only, never concurrently with itself).
pub fn swarm_with_progress(
    factory: &SystemFactory<'_>,
    config: &SwarmConfig,
    progress: Option<&(dyn Fn(SwarmProgress) + Sync)>,
) -> SwarmReport {
    let started = Instant::now();
    let threads = config.effective_threads();
    // The one build of the sweep; each worker runs every seed it claims
    // on an executor of its own clone (see the module docs' determinism
    // contract).
    let (proto_mem, proto_programs) = factory();
    // Workers claim fixed-size seed chunks from a shared cursor: which
    // worker runs which seed varies with timing, but every aggregate
    // below is a commutative fold over per-seed results, so the report
    // does not.
    const CHUNK: u64 = 256;
    let cursor = AtomicU64::new(0);
    let runs_done = AtomicU64::new(0);
    let violations_found = AtomicU64::new(0);

    let worker = || -> WorkerOutput {
        let mut exec = MemoExecutor::new(&proto_mem, proto_programs.clone());
        let inputs: Option<Vec<u32>> = config
            .inputs
            .as_ref()
            .map(|inputs| inputs.iter().map(|v| exec.intern(v)).collect());
        let mut table = PackedStateTable::new();
        let mut out = WorkerOutput {
            fresh_keys: Vec::new(),
            violations: Vec::new(),
            steps: 0,
            crashes: 0,
        };
        let mut key = Vec::new();
        loop {
            let chunk = cursor.fetch_add(1, Ordering::Relaxed);
            let lo = chunk.saturating_mul(CHUNK);
            if lo >= config.seeds {
                return out;
            }
            let hi = (lo + CHUNK).min(config.seeds);
            for offset in lo..hi {
                let seed = config.seed_start + offset;
                let run = exec.run(&mut config.scheduler_for(seed), config.max_actions);
                out.steps += run.steps as u64;
                out.crashes += run.crashes as u64;
                let flags = u32::from(run.all_decided) | (u32::from(run.hit_step_limit) << 1);
                key.clear();
                final_state_ids(&exec, flags, &mut key);
                if table.insert(&key).1 {
                    let at = out.fresh_keys.len();
                    out.fresh_keys.push(0);
                    encode_final_state(&exec, flags, &mut out.fresh_keys);
                    out.fresh_keys[at] =
                        u32::try_from(out.fresh_keys.len() - at - 1).expect("key words fit u32");
                }
                if let Err(violation) = verdict(&exec, &run, inputs.as_deref()) {
                    out.violations.push(SwarmViolation { seed, violation });
                    violations_found.fetch_add(1, Ordering::Relaxed);
                }
            }
            runs_done.fetch_add(hi - lo, Ordering::Relaxed);
        }
    };

    let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
        // Every thread runs the same shared closure (`&F: Fn` when
        // `F: Fn`); captures are all by shared reference. Each thread
        // also holds a clone of `done`, dropped when it returns (or
        // unwinds), so the channel disconnects the moment the last
        // worker finishes its last chunk.
        let worker = &worker;
        let (done, finished) = std::sync::mpsc::channel::<()>();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let done = done.clone();
                scope.spawn(move || {
                    let output = worker();
                    drop(done);
                    output
                })
            })
            .collect();
        drop(done);
        if let Some(callback) = progress {
            let sample = || SwarmProgress {
                runs: runs_done.load(Ordering::Relaxed),
                total: config.seeds,
                violations: violations_found.load(Ordering::Relaxed),
                elapsed_secs: started.elapsed().as_secs_f64(),
            };
            // The tick only paces intermediate samples; completion
            // wakes the coordinator at once, and the final sample
            // reports every run: each worker's last `runs_done` update
            // happens before it drops its sender, and observing the
            // disconnect synchronizes with every drop.
            while finished.recv_timeout(PROGRESS_TICK) == Err(RecvTimeoutError::Timeout) {
                callback(sample());
            }
            callback(sample());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("swarm worker panicked"))
            .collect()
    });

    // Merge: set-union the per-worker fresh keys into one exact table
    // and sort the violating seeds — both order-independent, so the
    // deterministic fields cannot depend on thread count or scheduling.
    let mut global = PackedStateTable::new();
    let mut violations = Vec::new();
    let mut total_steps = 0u64;
    let mut total_crashes = 0u64;
    for output in outputs {
        let mut at = 0usize;
        while at < output.fresh_keys.len() {
            let len = output.fresh_keys[at] as usize;
            global.insert(&output.fresh_keys[at + 1..at + 1 + len]);
            at += 1 + len;
        }
        violations.extend(output.violations);
        total_steps += output.steps;
        total_crashes += output.crashes;
    }
    violations.sort_by_key(|v| v.seed);

    let elapsed = started.elapsed();
    SwarmReport {
        runs: config.seeds,
        violations,
        distinct_final_states: global.len(),
        total_steps,
        total_crashes,
        threads_used: threads,
        elapsed_millis: elapsed.as_secs_f64() * 1e3,
        runs_per_sec: config.seeds as f64 / elapsed.as_secs_f64().max(1e-9),
    }
}

/// One deterministically-replayed seed: the full execution (trace
/// recorded) and its verdict.
#[derive(Debug)]
pub struct SeedRun {
    /// The execution seed `seed` denotes under the configuration.
    pub execution: Execution,
    /// `Ok(decision)` or the violation the swarm reported for this seed.
    pub verdict: Result<Option<Value>, RcViolation>,
}

/// Replays one seed exactly as the swarm ran it (same scheduler, same
/// options), with trace recording on — the `swarm replay --seed N`
/// path. The execution is byte-identical to the sweep's run for that
/// seed; only the recorded trace is extra.
pub fn replay_seed(factory: &SystemFactory<'_>, config: &SwarmConfig, seed: u64) -> SeedRun {
    let (mut mem, mut programs) = factory();
    let mut sched = config.scheduler_for(seed);
    let execution = run(
        &mut mem,
        &mut programs,
        &mut sched,
        RunOptions {
            max_actions: config.max_actions,
            record_trace: true,
        },
    );
    let verdict = match check_execution(&execution, config.inputs.as_deref()) {
        Ok(()) => Ok(check_agreement(&execution.all_outputs()).unwrap_or(None)),
        Err(v) => Err(v),
    };
    SeedRun { execution, verdict }
}

/// The result of replaying an explicit schedule (a shrink candidate or
/// a final witness) under legality tracking.
#[derive(Debug)]
pub struct ScheduleReplay {
    /// The deterministic execution of the schedule.
    pub execution: Execution,
    /// Whether every action was legal for the configured [`CrashModel`]
    /// (budget respected, post-decide policy respected, no `Branch`
    /// actions — schedulers never emit those) and the schedule fits in
    /// [`SwarmConfig::max_actions`].
    pub legal: bool,
}

/// Replays `schedule` against a fresh system, tracking [`CrashModel`]
/// legality per action.
///
/// The execution is [`run`]'s own: a private scripted scheduler plays
/// the schedule action by action and checks each crash against
/// [`CrashModel::legal_crashes`] in the context `run` shows it.
/// Legality is checked alongside, not enforced — an illegal schedule
/// still executes, it just reports `legal: false` so the shrinker can
/// reject the candidate.
pub fn replay_schedule(
    factory: &SystemFactory<'_>,
    config: &SwarmConfig,
    schedule: &[Action],
) -> ScheduleReplay {
    let (mut mem, mut programs) = factory();
    let mut script = LegalityScript {
        actions: schedule.iter(),
        crash: config.crash,
        legal: schedule.len() <= config.max_actions,
    };
    let execution = run(
        &mut mem,
        &mut programs,
        &mut script,
        RunOptions {
            max_actions: config.max_actions,
            record_trace: true,
        },
    );
    ScheduleReplay {
        execution,
        legal: script.legal,
    }
}

/// [`replay_schedule`]'s scheduler: plays a fixed schedule, then ends the
/// execution, and clears `legal` at the first action the crash model
/// forbids.
struct LegalityScript<'a> {
    actions: std::slice::Iter<'a, Action>,
    crash: CrashModel,
    legal: bool,
}

impl Scheduler for LegalityScript<'_> {
    fn next_action(&mut self, ctx: &SchedContext<'_>) -> Option<Action> {
        let action = *self.actions.next()?;
        self.legal &= match action {
            Action::Step(_) => true,
            // Branch is engine-internal nondeterminism resolution;
            // scheduler traces never contain it, so a candidate carrying
            // one is ill-formed rather than adversarial.
            Action::Branch(..) => false,
            Action::Crash(_) | Action::CrashAll => self
                .crash
                .legal_crashes(ctx.decided, ctx.crashes_injected)
                .contains(&action),
        };
        Some(action)
    }
}

/// Why a schedule could not be shrunk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShrinkError {
    /// The schedule does not violate under the configuration, so there
    /// is nothing to shrink.
    NotAViolation,
    /// The schedule violates *termination* only — a liveness property
    /// every prefix trivially fails, so delta-debugging would return
    /// the vacuous empty schedule (see the module docs).
    Termination,
}

impl fmt::Display for ShrinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShrinkError::NotAViolation => {
                write!(f, "the schedule does not violate under this configuration")
            }
            ShrinkError::Termination => write!(
                f,
                "termination violations do not shrink (every prefix trivially fails liveness)"
            ),
        }
    }
}

impl std::error::Error for ShrinkError {}

/// A shrunken counterexample schedule.
#[derive(Debug)]
pub struct ShrunkWitness {
    /// The 1-minimal witness: a [`CrashModel`]-legal subsequence of the
    /// original schedule that still exhibits the original violation
    /// kind, from which no single action can be removed.
    pub schedule: Vec<Action>,
    /// The violation the minimal witness exhibits (same kind as the
    /// original's; the conflicting values may differ).
    pub violation: RcViolation,
    /// Length of the schedule that was shrunk.
    pub original_len: usize,
    /// Candidate schedules replayed during delta-debugging.
    pub candidates_tested: usize,
    /// Whether the witness re-verified on the checker's executor
    /// ([`replay_on_checker`], the checker's transition on interned
    /// keys): the checker made the same decisions in the same order as
    /// [`run`] and flagged a safety violation.
    pub witness_verified: bool,
}

/// Delta-debugs a violating schedule down to a 1-minimal witness.
///
/// The candidate predicate is: the candidate is a subsequence of the
/// original (by construction — ddmin only deletes), is legal for the
/// configured [`CrashModel`], and replays to a violation of the same
/// kind as the original's. The minimal witness is then replayed on the
/// checker's executor, and [`ShrunkWitness::witness_verified`] reports
/// whether the checker agrees with [`run`] on it.
///
/// # Errors
///
/// [`ShrinkError::NotAViolation`] if the input schedule does not
/// violate; [`ShrinkError::Termination`] if it violates termination
/// only (not shrinkable — see the module docs).
pub fn shrink_schedule(
    factory: &SystemFactory<'_>,
    config: &SwarmConfig,
    schedule: &[Action],
) -> Result<ShrunkWitness, ShrinkError> {
    let base = replay_schedule(factory, config, schedule);
    let target = match check_execution(&base.execution, config.inputs.as_deref()) {
        Ok(()) => return Err(ShrinkError::NotAViolation),
        Err(RcViolation::Termination) => return Err(ShrinkError::Termination),
        Err(v) => std::mem::discriminant(&v),
    };

    let mut tested = 0usize;
    let mut violates = |candidate: &[Action]| -> bool {
        tested += 1;
        let replay = replay_schedule(factory, config, candidate);
        replay.legal
            && matches!(
                check_execution(&replay.execution, config.inputs.as_deref()),
                Err(v) if std::mem::discriminant(&v) == target
            )
    };

    // Classic ddmin over complements: split into `granularity` chunks,
    // try dropping one chunk at a time; on success restart coarse, on
    // failure refine until single-action granularity fails everywhere —
    // which is exactly 1-minimality.
    let mut current: Vec<Action> = schedule.to_vec();
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if violates(&candidate) {
                current = candidate;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if reduced {
            continue;
        }
        if granularity >= current.len() {
            break;
        }
        granularity = (granularity * 2).min(current.len());
    }

    // Final witness: re-verify on the checker's executor.
    let replay = replay_schedule(factory, config, &current);
    assert!(replay.legal, "shrunken witness must stay CrashModel-legal");
    let checker = replay_on_checker(factory, &current, config.inputs.as_deref());
    let witness_verified =
        checker.violation.is_some() && checker.decisions == replay.execution.trace.decisions();
    let violation = check_execution(&replay.execution, config.inputs.as_deref())
        .expect_err("shrunken witness must still violate");
    assert_eq!(
        std::mem::discriminant(&violation),
        target,
        "shrinking must preserve the violation kind"
    );
    Ok(ShrunkWitness {
        schedule: current,
        violation,
        original_len: schedule.len(),
        candidates_tested: tested,
        witness_verified,
    })
}

/// Whether `needle` is a (not necessarily contiguous) subsequence of
/// `haystack` — the shape every shrunken witness must have relative to
/// its original schedule; exported for the invariant tests.
pub fn is_subsequence(needle: &[Action], haystack: &[Action]) -> bool {
    let mut it = haystack.iter();
    needle.iter().all(|a| it.any(|b| b == a))
}

/// Checks one execution against the recoverable-consensus contract:
/// agreement always, validity when inputs are declared, then
/// termination.
fn check_execution(exec: &Execution, inputs: Option<&[Value]>) -> Result<(), RcViolation> {
    match inputs {
        Some(inputs) => check_consensus_execution(exec, inputs).map(|_| ()),
        None => {
            check_agreement(&exec.all_outputs())?;
            if !exec.all_decided || exec.hit_step_limit {
                return Err(RcViolation::Termination);
            }
            Ok(())
        }
    }
}

/// The verdict of the executor's last execution, computed on interned
/// ids in [`check_execution`]'s order: agreement over every output
/// (process by process, each in run order), then validity against the
/// input ids when inputs are declared, then termination. Ids are
/// injective, so it returns the violation `check_execution` returns on
/// the same execution.
fn verdict(exec: &MemoExecutor, run: &MemoRun, inputs: Option<&[u32]>) -> Result<(), RcViolation> {
    let mut outputs = exec.outputs().iter().flatten();
    if let Some(&first) = outputs.next() {
        if let Some(&second) = outputs.find(|&&id| id != first) {
            return Err(RcViolation::Agreement {
                first: exec.value(first).clone(),
                second: exec.value(second).clone(),
            });
        }
        // Every output equals the first, so the first is the one to check.
        if inputs.is_some_and(|inputs| !inputs.contains(&first)) {
            return Err(RcViolation::Validity {
                output: exec.value(first).clone(),
            });
        }
    }
    if !run.all_decided || run.hit_step_limit {
        return Err(RcViolation::Termination);
    }
    Ok(())
}

/// Appends the executor's last final state as interned ids — every
/// cell's content, every program's state key, each process's outputs
/// (count, then values) and `flags` (all decided, step limit hit). The
/// ids are the worker's own, so equal words mean equal finals within one
/// worker only.
fn final_state_ids(exec: &MemoExecutor, flags: u32, out: &mut Vec<u32>) {
    out.extend_from_slice(exec.slots());
    for outputs in exec.outputs() {
        out.push(u32::try_from(outputs.len()).expect("run count fits u32"));
        out.extend_from_slice(outputs);
    }
    out.push(flags);
}

/// Appends the canonical injective word encoding of the executor's last
/// final state — the process count, then per process its state key and
/// every output of every run, then `flags`, then every memory cell — to
/// `out`. Two finals append equal words iff those observables are
/// structurally equal, whichever worker ran them, so inserting the words
/// into one [`PackedStateTable`] counts distinct final states exactly.
fn encode_final_state(exec: &MemoExecutor, flags: u32, out: &mut Vec<u32>) {
    let (cells, programs) = exec.slots().split_at(exec.cell_count());
    out.push(u32::try_from(programs.len()).expect("process count fits u32"));
    for (&program, outputs) in programs.iter().zip(exec.outputs()) {
        encode_value(exec.value(program), out);
        out.push(u32::try_from(outputs.len()).expect("run count fits u32"));
        for &id in outputs {
            encode_value(exec.value(id), out);
        }
    }
    out.push(flags);
    for &id in cells {
        encode_value(exec.value(id), out);
    }
}

/// Tagged, length-prefixed structural encoding of a [`Value`] into u32
/// words. Injective: two values encode to the same words iff they are
/// equal, which is what makes the coverage count exact.
fn encode_value(v: &Value, out: &mut Vec<u32>) {
    match v {
        Value::Bottom => out.push(0),
        Value::Unit => out.push(1),
        Value::Bool(b) => {
            out.push(2);
            out.push(u32::from(*b));
        }
        Value::Int(i) => {
            out.push(3);
            let bits = *i as u64;
            out.push(bits as u32);
            out.push((bits >> 32) as u32);
        }
        Value::Sym(s) => {
            out.push(4);
            let bytes = s.as_bytes();
            out.push(u32::try_from(bytes.len()).expect("symbol length fits u32"));
            for chunk in bytes.chunks(4) {
                let mut word = [0u8; 4];
                word[..chunk.len()].copy_from_slice(chunk);
                out.push(u32::from_le_bytes(word));
            }
        }
        Value::Tuple(vs) | Value::List(vs) => {
            out.push(if matches!(v, Value::Tuple(_)) { 5 } else { 6 });
            out.push(u32::try_from(vs.len()).expect("sequence length fits u32"));
            for v in vs {
                encode_value(v, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Addr, MemOps, Memory};
    use crate::program::{Program, Step};
    use std::sync::Arc;

    /// Writes its input, reads the register back, decides what it read.
    /// With a *common* input ([`agreeing_system`]) every interleaving
    /// agrees, while post-decide crashes still vary the per-process
    /// output counts — several distinct final states, zero violations.
    #[derive(Clone, Debug)]
    struct WriteReadDecide {
        addr: Addr,
        input: Value,
        pc: u8,
    }

    impl Program for WriteReadDecide {
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

    fn agreeing_system(n: usize) -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = (0..n)
            .map(|_| {
                Box::new(WriteReadDecide {
                    addr,
                    input: Value::Int(42),
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        (mem, programs)
    }

    /// A deliberately broken pair: each decides its *own* input, so any
    /// interleaving violates agreement (inputs differ).
    #[derive(Clone, Debug)]
    struct DecideOwn {
        addr: Addr,
        input: Value,
        pc: u8,
    }

    impl Program for DecideOwn {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            if self.pc == 0 {
                mem.write_register(self.addr, self.input.clone());
                self.pc = 1;
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

    fn broken_system() -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = (0..2)
            .map(|i| {
                Box::new(DecideOwn {
                    addr,
                    input: Value::Int(i as i64),
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        (mem, programs)
    }

    /// Two processes write their inputs, 0 and 5, then decide what they
    /// read: a schedule agrees on 0, agrees on 5 (outside the declared
    /// inputs 0 and 1: validity) or decides both (agreement).
    fn validity_system() -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        let programs: Vec<Box<dyn Program>> = [0, 5]
            .into_iter()
            .map(|input| {
                Box::new(WriteReadDecide {
                    addr,
                    input: Value::Int(input),
                    pc: 0,
                }) as Box<dyn Program>
            })
            .collect();
        (mem, programs)
    }

    /// Re-reads a register until it leaves ⊥; alone, it never decides.
    #[derive(Clone, Debug)]
    struct Spinner {
        addr: Addr,
    }

    impl Program for Spinner {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            match mem.read_register(self.addr) {
                Value::Bottom => Step::Running,
                v => Step::Decided(v),
            }
        }
        fn on_crash(&mut self) {}
        fn state_key(&self) -> Value {
            Value::Unit
        }
        fn boxed_clone(&self) -> Box<dyn Program> {
            Box::new(self.clone())
        }
    }

    fn spinner_system() -> (Memory, Vec<Box<dyn Program>>) {
        let mut mem = Memory::new();
        let addr = mem.alloc_register(Value::Bottom);
        (mem, vec![Box::new(Spinner { addr }) as Box<dyn Program>])
    }

    fn small_config(seeds: u64, threads: usize) -> SwarmConfig {
        SwarmConfig {
            seeds,
            threads,
            crash_prob: 0.2,
            crash: CrashModel::independent(2).after_decide(true),
            ..SwarmConfig::default()
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let factory = || agreeing_system(3);
        let one = swarm(&factory, &small_config(400, 1));
        let four = swarm(&factory, &small_config(400, 4));
        assert_eq!(one.deterministic_summary(), four.deterministic_summary());
        assert!(one.violations.is_empty(), "common-input pair always agrees");
        assert!(one.distinct_final_states > 1, "several final states");
        assert_eq!(four.threads_used, 4);
    }

    /// Every verdict kind through the sweep: on each fixture, sweeps at
    /// one and two threads report exactly what a per-seed loop of `run`
    /// on fresh builds and `check_execution` reports — steps, crashes,
    /// distinct finals (a `HashSet` of structural observables) and the
    /// sorted `(seed, violation)` list. 600 seeds span three 256-seed
    /// chunks, so two workers intern values in different orders. Under
    /// a 5-action limit, two processes that decide within 4 steps end
    /// in finals that differ only in the step-limit flag. The 65-process
    /// system is past the checker's 64-process bound, which the sweep
    /// does not have.
    #[test]
    fn sweeps_match_run_on_every_verdict_kind() {
        type Fixture = (
            &'static str,
            fn() -> (Memory, Vec<Box<dyn Program>>),
            Option<Vec<Value>>,
            usize,
            Option<&'static str>,
        );
        let ints = |vs: &[i64]| Some(vs.iter().map(|&i| Value::Int(i)).collect());
        let fixtures: [Fixture; 7] = [
            (
                "agreeing",
                || agreeing_system(3),
                ints(&[42]),
                100_000,
                None,
            ),
            (
                "decide-own",
                broken_system,
                ints(&[0, 1]),
                100_000,
                Some("agreement"),
            ),
            (
                "decide-own, no inputs",
                broken_system,
                None,
                100_000,
                Some("agreement"),
            ),
            (
                "validity",
                validity_system,
                ints(&[0, 1]),
                100_000,
                Some("validity"),
            ),
            (
                "spinner",
                spinner_system,
                ints(&[1]),
                50,
                Some("termination"),
            ),
            (
                "step limit",
                || agreeing_system(2),
                ints(&[42]),
                5,
                Some("termination"),
            ),
            (
                "65 processes",
                || agreeing_system(65),
                ints(&[42]),
                100_000,
                None,
            ),
        ];
        let kind = |v: &RcViolation| match v {
            RcViolation::Agreement { .. } => "agreement",
            RcViolation::Validity { .. } => "validity",
            RcViolation::Termination => "termination",
        };
        for (name, factory, inputs, max_actions, expect) in fixtures {
            let config = SwarmConfig {
                seed_start: 1_000,
                max_actions,
                inputs,
                ..small_config(600, 1)
            };
            let mut finals = std::collections::HashSet::new();
            let (mut steps, mut crashes) = (0u64, 0u64);
            let mut violations = Vec::new();
            for seed in config.seed_start..config.seed_start + config.seeds {
                let (mut mem, mut programs) = factory();
                let options = RunOptions {
                    max_actions,
                    record_trace: false,
                };
                let exec = run(
                    &mut mem,
                    &mut programs,
                    &mut config.scheduler_for(seed),
                    options,
                );
                steps += exec.steps as u64;
                crashes += exec.crashes as u64;
                if let Err(violation) = check_execution(&exec, config.inputs.as_deref()) {
                    violations.push((seed, violation));
                }
                let keys: Vec<Value> = programs.iter().map(|p| p.state_key()).collect();
                finals.insert((
                    keys,
                    exec.outputs,
                    exec.all_decided,
                    exec.hit_step_limit,
                    mem.state_key(),
                ));
            }
            match expect {
                None => assert!(violations.is_empty(), "{name}: {violations:?}"),
                Some(expected) => assert!(
                    violations.iter().any(|(_, v)| kind(v) == expected),
                    "{name}: the reference loop sees the fixture's violation"
                ),
            }
            for threads in [1, 2] {
                let report = swarm(
                    &factory,
                    &SwarmConfig {
                        threads,
                        ..config.clone()
                    },
                );
                let at = format!("{name} at {threads} threads");
                assert_eq!(report.total_steps, steps, "{at}: steps");
                assert_eq!(report.total_crashes, crashes, "{at}: crashes");
                assert_eq!(report.distinct_final_states, finals.len(), "{at}: finals");
                let found: Vec<_> = report
                    .violations
                    .into_iter()
                    .map(|v| (v.seed, v.violation))
                    .collect();
                assert_eq!(found, violations, "{at}: violating seeds");
            }
        }
    }

    #[test]
    fn violating_system_reports_sorted_seeds_and_replays() {
        let factory = || broken_system();
        let config = small_config(50, 2);
        let report = swarm(&factory, &config);
        assert!(!report.violations.is_empty(), "every schedule violates");
        let seeds: Vec<u64> = report.violations.iter().map(|v| v.seed).collect();
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        assert_eq!(seeds, sorted);
        // Each reported seed replays to the same violation.
        for v in report.violations.iter().take(5) {
            let rerun = replay_seed(&factory, &config, v.seed);
            assert_eq!(rerun.verdict, Err(v.violation.clone()), "seed {}", v.seed);
        }
    }

    #[test]
    fn shrinks_to_minimal_agreement_witness() {
        let factory = || broken_system();
        let config = small_config(10, 1);
        let report = swarm(&factory, &config);
        let seed = report.violations[0].seed;
        let original = replay_seed(&factory, &config, seed)
            .execution
            .trace
            .to_actions();
        let shrunk = shrink_schedule(&factory, &config, &original).expect("shrinks");
        // DecideOwn violates with 4 steps: both write, both decide.
        assert_eq!(shrunk.schedule.len(), 4, "{:?}", shrunk.schedule);
        assert!(is_subsequence(&shrunk.schedule, &original));
        assert!(shrunk.witness_verified);
        assert!(matches!(shrunk.violation, RcViolation::Agreement { .. }));
        // 1-minimality: removing any single action loses the violation.
        for skip in 0..shrunk.schedule.len() {
            let mut candidate = shrunk.schedule.clone();
            candidate.remove(skip);
            let replay = replay_schedule(&factory, &config, &candidate);
            let still_violates = replay.legal
                && matches!(
                    check_execution(&replay.execution, config.inputs.as_deref()),
                    Err(RcViolation::Agreement { .. })
                );
            assert!(!still_violates, "removing action {skip} must lose the bug");
        }
    }

    #[test]
    fn shrink_refuses_non_violations_and_termination() {
        let factory = || agreeing_system(2);
        let config = small_config(1, 1);
        let good = replay_seed(&factory, &config, 0)
            .execution
            .trace
            .to_actions();
        assert!(
            matches!(
                shrink_schedule(&factory, &config, &good),
                Err(ShrinkError::NotAViolation)
            ),
            "a verifying schedule has nothing to shrink"
        );
        // An empty schedule leaves everyone undecided: termination.
        assert!(matches!(
            shrink_schedule(&factory, &config, &[]),
            Err(ShrinkError::Termination)
        ));
    }

    #[test]
    fn replay_schedule_flags_illegal_crashes() {
        let factory = || agreeing_system(2);
        let config = SwarmConfig {
            crash: CrashModel::independent(1),
            ..small_config(1, 1)
        };
        // Two crashes exceed the budget of one.
        let over_budget = [Action::Crash(0), Action::Crash(0)];
        assert!(!replay_schedule(&factory, &config, &over_budget).legal);
        // CrashAll is the wrong mode for an independent model.
        assert!(!replay_schedule(&factory, &config, &[Action::CrashAll]).legal);
        // One legal crash is fine.
        assert!(replay_schedule(&factory, &config, &[Action::Crash(0)]).legal);
        // Post-decide crash against a strict policy is illegal.
        let decide_then_crash = [Action::Step(0), Action::Step(0), Action::Crash(0)];
        assert!(!replay_schedule(&factory, &config, &decide_then_crash).legal);
    }

    /// A seed's schedule replays to the seed's execution through
    /// `replay_schedule`, and the checker's executor makes the same
    /// decisions and flags nothing on this agreeing system.
    #[test]
    fn replay_schedule_matches_run_and_the_checker() {
        let factory = || agreeing_system(3);
        let config = small_config(1, 1);
        for seed in 0..20u64 {
            let seed_run = replay_seed(&factory, &config, seed);
            let schedule = seed_run.execution.trace.to_actions();
            let replay = replay_schedule(&factory, &config, &schedule);
            assert_eq!(replay.execution.outputs, seed_run.execution.outputs);
            assert_eq!(replay.execution.steps, seed_run.execution.steps);
            assert_eq!(replay.execution.crashes, seed_run.execution.crashes);
            assert_eq!(replay.execution.trace, seed_run.execution.trace);
            assert!(replay.legal, "a scheduler-produced schedule is legal");
            let checker = replay_on_checker(&factory, &schedule, config.inputs.as_deref());
            assert_eq!(checker.decisions, seed_run.execution.trace.decisions());
            assert_eq!(checker.violation, None, "seed {seed}");
        }
    }

    #[test]
    fn value_encoding_is_injective_on_a_pile_of_values() {
        let values = vec![
            Value::Bottom,
            Value::Unit,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::sym("A"),
            Value::sym("B"),
            Value::sym("AB"),
            Value::Tuple(vec![]),
            Value::List(vec![]),
            Value::Tuple(vec![Value::Int(1)]),
            Value::List(vec![Value::Int(1)]),
            Value::List(vec![Value::Int(1), Value::Int(2)]),
            Value::Tuple(vec![Value::List(vec![Value::Unit]), Value::Bottom]),
        ];
        let encoded: Vec<Vec<u32>> = values
            .iter()
            .map(|v| {
                let mut out = Vec::new();
                encode_value(v, &mut out);
                out
            })
            .collect();
        for i in 0..values.len() {
            for j in 0..values.len() {
                assert_eq!(
                    encoded[i] == encoded[j],
                    i == j,
                    "{:?} vs {:?}",
                    values[i],
                    values[j]
                );
            }
        }
    }

    #[test]
    fn subsequence_helper() {
        use Action::*;
        let hay = [Step(0), Crash(1), Step(1), Step(0)];
        assert!(is_subsequence(&[], &hay));
        assert!(is_subsequence(&[Crash(1), Step(0)], &hay));
        assert!(is_subsequence(&hay, &hay));
        assert!(!is_subsequence(&[Step(0), Step(0), Step(0)], &hay));
        assert!(!is_subsequence(&[CrashAll], &hay));
    }

    #[test]
    fn progress_callback_fires_on_long_enough_sweeps() {
        use std::sync::atomic::AtomicUsize;
        let factory = || agreeing_system(4);
        let calls = AtomicUsize::new(0);
        let config = SwarmConfig {
            seeds: 30_000,
            threads: 2,
            ..small_config(0, 0)
        };
        let report = swarm_with_progress(
            &factory,
            &config,
            Some(&|p: SwarmProgress| {
                assert!(p.runs <= p.total);
                calls.fetch_add(1, Ordering::Relaxed);
            }),
        );
        assert_eq!(report.runs, 30_000);
        // The callback may or may not have fired (timing), but the
        // sweep must complete correctly either way.
        assert!(report.violations.is_empty());
    }

    /// A factory that copies `Arc`-shared captures into each build — the
    /// shape every catalog builder closure has — sweeps correctly from
    /// its one build.
    #[test]
    fn factory_with_shared_captures_is_usable() {
        let shared = Arc::new(Value::Int(7));
        let factory = move || {
            let mut mem = Memory::new();
            let addr = mem.alloc_register(Value::Bottom);
            let programs: Vec<Box<dyn Program>> = vec![Box::new(WriteReadDecide {
                addr,
                input: (*shared).clone(),
                pc: 0,
            })];
            (mem, programs)
        };
        let report = swarm(&factory, &small_config(20, 2));
        assert_eq!(report.runs, 20);
        assert!(report.violations.is_empty());
    }
}
