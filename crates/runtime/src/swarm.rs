//! Swarm verification: millions of deterministically-seeded random
//! schedules fanned across all cores, with counterexample shrinking.
//!
//! The exhaustive checker ([`explore`](crate::explore)) gives exact
//! verdicts on small instances; beyond its frontier the repo used to
//! offer only one-shot [`RandomScheduler`] runs. This module turns that
//! one-shot into a *service*: [`swarm`] partitions a contiguous seed
//! range across worker threads, runs one full seeded execution per seed
//! through the shared [`run`](crate::run) loop, checks every execution
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
//! Seed `s` always denotes the same execution: the run is
//! `run(factory(), RandomScheduler(seed = s), …)` and both the factory
//! and the scheduler are deterministic (see the
//! [`sched`](crate::sched) module contract). Consequently every
//! *deterministic* aggregate — violating seed set, distinct-final-state
//! count, total steps and crashes — is a pure function of
//! `(factory, SwarmConfig)` and is **byte-identical across thread
//! counts**: workers only partition the seed range; the merge is a set
//! union and a sort. Wall-clock fields are the only machine-dependent
//! outputs. The property suite asserts this across thread counts.
//!
//! ## Shrinking
//!
//! A violating seed's schedule is usually hundreds of actions long.
//! [`shrink_schedule`] delta-debugs it down to a **1-minimal witness**:
//! a subsequence of the original schedule that still exhibits the same
//! violation kind, remains legal for the configured [`CrashModel`], and
//! from which no single action can be removed without losing the
//! violation. The shrunken schedule re-verifies through the
//! [`WitnessLog`] replay path: the final replay records one log node per
//! action (delta-encoded interned state keys, exactly the checker's
//! format) and reconstructs the final state key from the log alone
//! ([`WitnessLog::key_of`]), asserting it equals the directly-computed
//! key.
//!
//! Only safety violations (agreement, validity) shrink. A termination
//! violation is a liveness property: *every* prefix of a schedule
//! trivially "fails" it (nothing has decided yet), so delta-debugging
//! would shrink any termination witness to the empty schedule.
//! [`shrink_schedule`] refuses with [`ShrinkError::Termination`] instead
//! of returning that vacuity.

use crate::crash::{CrashMode, CrashModel};
use crate::exec::{run, Execution, RunOptions};
use crate::intern::ValueInterner;
use crate::memory::Memory;
use crate::program::Program;
use crate::sched::{Action, RandomScheduler, RandomSchedulerConfig};
use crate::storage::{PackedStateTable, WitnessLog};
use crate::trace::{Trace, TraceEvent};
use crate::verify::{check_agreement, check_consensus_execution, RcViolation};
use rc_spec::Value;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::time::{Duration, Instant};

/// How often [`swarm_with_progress`] samples progress while workers run.
const PROGRESS_TICK: Duration = Duration::from_millis(250);

/// A system factory the swarm engine can call from any worker thread.
///
/// Identical in shape to [`SystemFactory`](crate::SystemFactory) plus
/// the `Sync` bound the fan-out needs; every catalog builder closure
/// satisfies it (the captured [`rc_spec::TypeHandle`]s, witnesses and
/// inputs are all `Sync`).
pub type SwarmFactory<'a> = dyn Fn() -> (Memory, Vec<Box<dyn Program>>) + Sync + 'a;

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
pub fn swarm(factory: &SwarmFactory<'_>, config: &SwarmConfig) -> SwarmReport {
    swarm_with_progress(factory, config, None)
}

/// [`swarm`] with a streaming progress callback (invoked from the
/// coordinating thread only, never concurrently with itself).
pub fn swarm_with_progress(
    factory: &SwarmFactory<'_>,
    config: &SwarmConfig,
    progress: Option<&(dyn Fn(SwarmProgress) + Sync)>,
) -> SwarmReport {
    let started = Instant::now();
    let threads = config.effective_threads();
    // Workers claim fixed-size seed chunks from a shared cursor: which
    // worker runs which seed varies with timing, but every aggregate
    // below is a commutative fold over per-seed results, so the report
    // does not.
    const CHUNK: u64 = 256;
    let cursor = AtomicU64::new(0);
    let runs_done = AtomicU64::new(0);
    let violations_found = AtomicU64::new(0);

    let worker = || -> WorkerOutput {
        let mut table = PackedStateTable::new(None);
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
                let (mut mem, mut programs) = factory();
                let mut sched = config.scheduler_for(seed);
                let exec = run(
                    &mut mem,
                    &mut programs,
                    &mut sched,
                    RunOptions {
                        max_actions: config.max_actions,
                        record_trace: false,
                    },
                );
                out.steps += exec.steps as u64;
                out.crashes += exec.crashes as u64;
                key.clear();
                final_state_words(&mem, &programs, &exec, &mut key);
                let (_, fresh) = table.insert(&key);
                if fresh {
                    out.fresh_keys
                        .push(u32::try_from(key.len()).expect("key words fit u32"));
                    out.fresh_keys.extend_from_slice(&key);
                }
                if let Err(violation) = check_execution(&exec, config.inputs.as_deref()) {
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
    let mut global = PackedStateTable::new(None);
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
pub fn replay_seed(factory: &crate::SystemFactory<'_>, config: &SwarmConfig, seed: u64) -> SeedRun {
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
/// a final witness) under legality tracking and, optionally, the
/// [`WitnessLog`] state-reconstruction cross-check.
#[derive(Debug)]
pub struct ScheduleReplay {
    /// The deterministic execution of the schedule.
    pub execution: Execution,
    /// Whether every action was legal for the configured [`CrashModel`]
    /// (budget respected, post-decide policy respected, no `Branch`
    /// actions — schedulers never emit those).
    pub legal: bool,
    /// Witness-log nodes recorded (`0` when the log was not requested).
    pub witness_nodes: usize,
    /// Whether [`WitnessLog::key_of`] reconstructed the final state key
    /// from the log alone, byte-identically to the directly-computed
    /// key (`true` trivially when the log was not requested).
    pub witness_verified: bool,
}

/// Replays `schedule` against a fresh system, tracking [`CrashModel`]
/// legality per action, and (with `with_witness_log`) recording each
/// post-action state into a [`WitnessLog`] — one node per action,
/// interned keys delta-encoded against the parent, the checker's format
/// — then reconstructing the final key from the log as a
/// self-verification of the replay path.
///
/// Execution semantics are exactly [`run`]'s (this drives the same
/// loop through a scripted scheduler); legality is checked alongside,
/// not enforced — an illegal schedule still executes, it just reports
/// `legal: false` so the shrinker can reject the candidate.
pub fn replay_schedule(
    factory: &crate::SystemFactory<'_>,
    config: &SwarmConfig,
    schedule: &[Action],
    with_witness_log: bool,
) -> ScheduleReplay {
    let (mut mem, mut programs) = factory();
    let n = programs.len();
    let model = &config.crash;
    let mut legal = schedule.len() <= config.max_actions;
    // Legality pre-pass: simulate only the decided flags and the crash
    // budget. This needs the real step results (a step may decide), so
    // it is fused with the execution below instead of a separate pass.
    let mut decided = vec![false; n];
    let mut crashes_used = 0usize;

    let mut interner = ValueInterner::new();
    let mut log = WitnessLog::new();
    let mut parent_key: Vec<u32> = Vec::new();
    let state_key = |mem: &Memory,
                     programs: &[Box<dyn Program>],
                     decided: &[bool],
                     interner: &mut ValueInterner| {
        let mut key: Vec<u32> = Vec::with_capacity(n + 2);
        for p in programs {
            key.push(interner.intern(&p.state_key()));
        }
        let mut mask = 0u64;
        for (i, &d) in decided.iter().enumerate() {
            if d {
                mask |= 1 << (i % 64);
            }
        }
        key.push(mask as u32);
        key.push((mask >> 32) as u32);
        mem.intern_state_key(interner, &mut key);
        key
    };
    if with_witness_log {
        let root = state_key(&mem, &programs, &decided, &mut interner);
        log.push(None, 0, None, &[], &root);
        parent_key = root;
    }

    let mut outputs: Vec<Vec<Value>> = vec![Vec::new(); n];
    let mut trace = Trace::new();
    let mut steps = 0usize;
    let mut crash_events = 0usize;
    for (idx, action) in schedule.iter().enumerate() {
        if idx >= config.max_actions {
            break;
        }
        match *action {
            Action::Step(p) => {
                assert!(p < n, "schedule steps unknown process {p}");
                if !decided[p] {
                    steps += 1;
                    trace.push(TraceEvent::Stepped(p));
                    if let crate::program::Step::Decided(v) = programs[p].step(&mut mem) {
                        decided[p] = true;
                        outputs[p].push(v.clone());
                        trace.push(TraceEvent::Decided(p, v));
                    }
                }
            }
            Action::Branch(..) => {
                // Branch is engine-internal nondeterminism resolution;
                // scheduler traces never contain it, so a candidate
                // carrying one is ill-formed rather than adversarial.
                legal = false;
            }
            Action::Crash(p) => {
                assert!(p < n, "schedule crashes unknown process {p}");
                if model.mode != CrashMode::Independent
                    || model.exhausted(crashes_used)
                    || !model.may_crash(decided[p])
                {
                    legal = false;
                }
                crashes_used += 1;
                crash_events += 1;
                programs[p].on_crash();
                decided[p] = false;
                trace.push(TraceEvent::Crashed(p));
            }
            Action::CrashAll => {
                if model.mode != CrashMode::Simultaneous
                    || model.exhausted(crashes_used)
                    || !model.may_crash_all(&decided)
                {
                    legal = false;
                }
                crashes_used += 1;
                crash_events += 1;
                for (p, prog) in programs.iter_mut().enumerate() {
                    prog.on_crash();
                    decided[p] = false;
                }
                trace.push(TraceEvent::CrashedAll);
            }
        }
        if with_witness_log {
            let key = state_key(&mem, &programs, &decided, &mut interner);
            let parent = u32::try_from(log.len() - 1).expect("log index fits u32");
            log.push(
                Some(parent),
                action_code(*action, n),
                None,
                &parent_key,
                &key,
            );
            parent_key = key;
        }
    }

    let witness_verified = if with_witness_log {
        let last = u32::try_from(log.len() - 1).expect("log index fits u32");
        log.key_of(last) == parent_key
    } else {
        true
    };
    ScheduleReplay {
        execution: Execution {
            outputs,
            steps,
            crashes: crash_events,
            all_decided: decided.iter().all(|d| *d),
            hit_step_limit: schedule.len() > config.max_actions,
            trace,
        },
        legal,
        witness_nodes: log.len(),
        witness_verified,
    }
}

/// The [`WitnessLog`] action code of a scheduler action: `1 + p` for
/// steps, `1 + n + p` for independent crashes, `1 + 2n` for `CrashAll`
/// (`0` is the log's reserved root code). Injective for `n < 1365`
/// (the log's 12-bit action field).
fn action_code(action: Action, n: usize) -> u16 {
    let code = match action {
        Action::Step(p) | Action::Branch(p, _) => 1 + p,
        Action::Crash(p) => 1 + n + p,
        Action::CrashAll => 1 + 2 * n,
    };
    u16::try_from(code).expect("action code fits the log's 12-bit field")
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
    /// Whether the final witness re-verified through the [`WitnessLog`]
    /// replay path (always `true`; recorded so callers can assert it).
    pub witness_verified: bool,
}

/// Delta-debugs a violating schedule down to a 1-minimal witness.
///
/// The candidate predicate is: the candidate is a subsequence of the
/// original (by construction — ddmin only deletes), is legal for the
/// configured [`CrashModel`], and replays to a violation of the same
/// kind as the original's. On success the minimal witness has been
/// re-verified through the [`WitnessLog`] replay path
/// ([`replay_schedule`] with the log enabled).
///
/// # Errors
///
/// [`ShrinkError::NotAViolation`] if the input schedule does not
/// violate; [`ShrinkError::Termination`] if it violates termination
/// only (not shrinkable — see the module docs).
pub fn shrink_schedule(
    factory: &crate::SystemFactory<'_>,
    config: &SwarmConfig,
    schedule: &[Action],
) -> Result<ShrunkWitness, ShrinkError> {
    let base = replay_schedule(factory, config, schedule, false);
    let target = match check_execution(&base.execution, config.inputs.as_deref()) {
        Ok(()) => return Err(ShrinkError::NotAViolation),
        Err(RcViolation::Termination) => return Err(ShrinkError::Termination),
        Err(v) => std::mem::discriminant(&v),
    };

    let mut tested = 0usize;
    let mut violates = |candidate: &[Action]| -> bool {
        tested += 1;
        let replay = replay_schedule(factory, config, candidate, false);
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

    // Final witness: re-verify through the WitnessLog replay path.
    let replay = replay_schedule(factory, config, &current, true);
    assert!(replay.legal, "shrunken witness must stay CrashModel-legal");
    assert!(
        replay.witness_verified,
        "WitnessLog replay must reconstruct the final state key"
    );
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
        witness_verified: replay.witness_verified,
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

/// Appends the canonical injective word encoding of one final state —
/// every output of every run, each program's state key, the decided
/// flags and the full shared-memory snapshot — to `out`. Two runs
/// append equal words iff those observables are structurally equal, so
/// inserting the words into a [`PackedStateTable`] counts distinct
/// final states exactly.
fn final_state_words(
    mem: &Memory,
    programs: &[Box<dyn Program>],
    exec: &Execution,
    out: &mut Vec<u32>,
) {
    out.push(u32::try_from(programs.len()).expect("process count fits u32"));
    for (p, program) in programs.iter().enumerate() {
        encode_value(&program.state_key(), out);
        out.push(u32::try_from(exec.outputs[p].len()).expect("run count fits u32"));
        for v in &exec.outputs[p] {
            encode_value(v, out);
        }
    }
    out.push(u32::from(exec.all_decided) | (u32::from(exec.hit_step_limit) << 1));
    for v in mem.state_key() {
        encode_value(&v, out);
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
    use crate::memory::{Addr, MemOps};
    use crate::program::Step;
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
            let replay = replay_schedule(&factory, &config, &candidate, false);
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
        assert!(!replay_schedule(&factory, &config, &over_budget, false).legal);
        // CrashAll is the wrong mode for an independent model.
        assert!(!replay_schedule(&factory, &config, &[Action::CrashAll], false).legal);
        // One legal crash is fine.
        assert!(replay_schedule(&factory, &config, &[Action::Crash(0)], false).legal);
        // Post-decide crash against a strict policy is illegal.
        let decide_then_crash = [Action::Step(0), Action::Step(0), Action::Crash(0)];
        assert!(!replay_schedule(&factory, &config, &decide_then_crash, false).legal);
    }

    #[test]
    fn replay_schedule_matches_run_and_witness_log_verifies() {
        let factory = || agreeing_system(3);
        let config = small_config(1, 1);
        for seed in 0..20u64 {
            let seed_run = replay_seed(&factory, &config, seed);
            let schedule = seed_run.execution.trace.to_actions();
            let replay = replay_schedule(&factory, &config, &schedule, true);
            assert_eq!(replay.execution.outputs, seed_run.execution.outputs);
            assert_eq!(replay.execution.steps, seed_run.execution.steps);
            assert_eq!(replay.execution.crashes, seed_run.execution.crashes);
            assert_eq!(replay.execution.trace, seed_run.execution.trace);
            assert!(replay.legal, "a scheduler-produced schedule is legal");
            assert!(replay.witness_verified);
            assert_eq!(replay.witness_nodes, schedule.len() + 1, "root + actions");
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

    /// Arc'd shared captures satisfy [`SwarmFactory`]'s `Sync` bound —
    /// the shape every catalog builder closure has.
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
