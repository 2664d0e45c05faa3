//! The seeded random scheduler with crash injection.

use super::{Action, SchedContext, Scheduler};
use crate::crash::{CrashMode, CrashModel};
use crate::program::Pid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`RandomScheduler`].
#[derive(Clone, Copy, Debug)]
pub struct RandomSchedulerConfig {
    /// RNG seed — runs are fully reproducible from the seed.
    pub seed: u64,
    /// Probability that the next event is a crash (while budget remains).
    pub crash_prob: f64,
    /// The crash adversary: budget, independent vs simultaneous mode
    /// ([`Action::CrashAll`], the Section 2 model, vs [`Action::Crash`],
    /// the independent model of Section 3) and whether crashes may hit a
    /// process whose current run already decided — forcing *re-runs*,
    /// which exercises the part of the agreement property that spans
    /// "outputs of the same process when it performs multiple runs"
    /// (Section 1). Shared with [`explore`](crate::explore), so the
    /// randomized and exact layers agree on crash legality.
    pub crash: CrashModel,
}

impl Default for RandomSchedulerConfig {
    fn default() -> Self {
        RandomSchedulerConfig {
            seed: 0,
            crash_prob: 0.1,
            crash: CrashModel::independent(3).after_decide(true),
        }
    }
}

/// A seeded pseudo-random scheduler: at each point, with probability
/// [`crash_prob`](RandomSchedulerConfig::crash_prob) (budget and
/// [`CrashModel`] policy permitting) it injects a crash, otherwise it
/// steps a uniformly random undecided process. Ends the execution when
/// every process has decided and either the budget is exhausted or the
/// coin says stop.
///
/// [`Action::CrashAll`] wipes *every* process, so in simultaneous mode
/// with post-decide crashes disabled the scheduler only emits it while
/// no process's current run has decided. (It used to emit `CrashAll`
/// even when every process had decided, silently violating the
/// configured policy; [`CrashModel::may_crash_all`] now gates it.)
#[derive(Clone, Debug)]
pub struct RandomScheduler {
    config: RandomSchedulerConfig,
    rng: StdRng,
}

impl RandomScheduler {
    /// Creates a random scheduler from a configuration.
    pub fn new(config: RandomSchedulerConfig) -> Self {
        RandomScheduler {
            rng: StdRng::seed_from_u64(config.seed),
            config,
        }
    }

    /// Convenience constructor: seed only, defaults elsewhere.
    pub fn from_seed(seed: u64) -> Self {
        RandomScheduler::new(RandomSchedulerConfig {
            seed,
            ..RandomSchedulerConfig::default()
        })
    }

    /// A uniformly random pid among those whose decided flag satisfies
    /// `eligible`, or `None` (and no draw) when there is none. Draws
    /// exactly what indexing the collected eligible list would — one
    /// `gen_range(0..count)` — so it picks the same pid without
    /// allocating the list.
    fn pick(&mut self, decided: &[bool], eligible: impl Fn(bool) -> bool) -> Option<Pid> {
        let count = decided.iter().filter(|&&d| eligible(d)).count();
        if count == 0 {
            return None;
        }
        let k = self.rng.gen_range(0..count);
        (0..decided.len()).filter(|&p| eligible(decided[p])).nth(k)
    }
}

impl Scheduler for RandomScheduler {
    fn next_action(&mut self, ctx: &SchedContext<'_>) -> Option<Action> {
        let model = self.config.crash;
        let want_crash =
            !model.exhausted(ctx.crashes_injected) && self.rng.gen_bool(self.config.crash_prob);
        if want_crash {
            match model.mode {
                CrashMode::Simultaneous => {
                    if model.may_crash_all(ctx.decided) {
                        return Some(Action::CrashAll);
                    }
                    // Policy forbids wiping a decided run: fall through
                    // to a step instead.
                }
                CrashMode::Independent => {
                    if let Some(victim) = self.pick(ctx.decided, |d| model.may_crash(d)) {
                        return Some(Action::Crash(victim));
                    }
                }
            }
        }
        self.pick(ctx.decided, |d| !d).map(Action::Step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(decided: &'a [bool], crashes: usize) -> SchedContext<'a> {
        SchedContext {
            n: decided.len(),
            decided,
            steps_taken: 0,
            crashes_injected: crashes,
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let decided = vec![false; 4];
        let mut a = RandomScheduler::from_seed(7);
        let mut b = RandomScheduler::from_seed(7);
        for _ in 0..50 {
            assert_eq!(
                a.next_action(&ctx(&decided, 0)),
                b.next_action(&ctx(&decided, 0))
            );
        }
    }

    #[test]
    fn respects_crash_budget() {
        let mut s = RandomScheduler::new(RandomSchedulerConfig {
            seed: 3,
            crash_prob: 1.0,
            crash: CrashModel::independent(2).after_decide(true),
        });
        let decided = vec![false; 2];
        // With crash_prob = 1, the first two actions are crashes, after
        // which the budget is spent and only steps are produced.
        assert!(matches!(
            s.next_action(&ctx(&decided, 0)),
            Some(Action::Crash(_))
        ));
        assert!(matches!(
            s.next_action(&ctx(&decided, 1)),
            Some(Action::Crash(_))
        ));
        assert!(matches!(
            s.next_action(&ctx(&decided, 2)),
            Some(Action::Step(_))
        ));
    }

    #[test]
    fn simultaneous_mode_emits_crash_all() {
        let mut s = RandomScheduler::new(RandomSchedulerConfig {
            seed: 3,
            crash_prob: 1.0,
            crash: CrashModel::simultaneous(1),
        });
        let decided = vec![false; 3];
        assert_eq!(s.next_action(&ctx(&decided, 0)), Some(Action::CrashAll));
    }

    /// Regression: with post-decide crashes disabled, `CrashAll` must
    /// not be emitted once a run has decided — it would wipe the decided
    /// run, which is exactly what the policy forbids. Previously the
    /// scheduler emitted it unconditionally, even with *every* process
    /// decided.
    #[test]
    fn crash_all_suppressed_after_decisions_when_policy_forbids() {
        let mut s = RandomScheduler::new(RandomSchedulerConfig {
            seed: 3,
            crash_prob: 1.0,
            crash: CrashModel::simultaneous(5),
        });
        // Every process decided: the execution must end, not crash-loop.
        assert_eq!(s.next_action(&ctx(&[true, true], 0)), None);
        // One process decided: the other is stepped instead.
        assert_eq!(
            s.next_action(&ctx(&[true, false], 0)),
            Some(Action::Step(1))
        );
        // With the policy relaxed, CrashAll is back on the table.
        let mut s = RandomScheduler::new(RandomSchedulerConfig {
            seed: 3,
            crash_prob: 1.0,
            crash: CrashModel::simultaneous(5).after_decide(true),
        });
        assert_eq!(
            s.next_action(&ctx(&[true, true], 0)),
            Some(Action::CrashAll)
        );
    }

    /// The selection `RandomScheduler` made before it picked in place:
    /// collect the eligible pids, index the list with one draw. Kept as
    /// the reference the in-place picks must match draw for draw.
    struct CollectingScheduler {
        config: RandomSchedulerConfig,
        rng: StdRng,
    }

    impl Scheduler for CollectingScheduler {
        fn next_action(&mut self, ctx: &SchedContext<'_>) -> Option<Action> {
            let model = &self.config.crash;
            let undecided = ctx.undecided();
            let want_crash =
                !model.exhausted(ctx.crashes_injected) && self.rng.gen_bool(self.config.crash_prob);
            if want_crash {
                match model.mode {
                    CrashMode::Simultaneous => {
                        if model.may_crash_all(ctx.decided) {
                            return Some(Action::CrashAll);
                        }
                    }
                    CrashMode::Independent => {
                        let crashable = model.crash_candidates(ctx.decided);
                        if !crashable.is_empty() {
                            let victim = crashable[self.rng.gen_range(0..crashable.len())];
                            return Some(Action::Crash(victim));
                        }
                    }
                }
            }
            if undecided.is_empty() {
                return None;
            }
            Some(Action::Step(
                undecided[self.rng.gen_range(0..undecided.len())],
            ))
        }
    }

    /// The in-place picks emit exactly the collecting reference's action
    /// stream — so every seed still denotes the same schedule — under
    /// both crash modes, with post-decide crashes on and off, for one to
    /// six processes, while steps decide and crashes undecide processes
    /// as the run goes on.
    #[test]
    fn in_place_picks_match_the_collecting_reference() {
        let mut seen = [0usize; 3];
        for seed in 0..1_000u64 {
            for n in 1..=6 {
                for model in [CrashModel::independent(3), CrashModel::simultaneous(3)] {
                    for after_decide in [false, true] {
                        let config = RandomSchedulerConfig {
                            seed,
                            crash_prob: 0.3,
                            crash: model.after_decide(after_decide),
                        };
                        let mut in_place = RandomScheduler::new(config);
                        let mut reference = CollectingScheduler {
                            config,
                            rng: StdRng::seed_from_u64(seed),
                        };
                        // Whether a step decides, drawn apart from both
                        // schedulers' streams.
                        let mut world = StdRng::seed_from_u64(!seed);
                        let mut decided = vec![false; n];
                        let mut crashes = 0;
                        loop {
                            let ctx = ctx(&decided, crashes);
                            let action = in_place.next_action(&ctx);
                            assert_eq!(
                                action,
                                reference.next_action(&ctx),
                                "seed {seed}, {n} processes, {config:?}, decided {decided:?}"
                            );
                            match action {
                                None => break,
                                Some(Action::Step(p)) => {
                                    seen[0] += 1;
                                    decided[p] = world.gen_bool(0.4);
                                }
                                Some(Action::Crash(p)) => {
                                    seen[1] += 1;
                                    decided[p] = false;
                                    crashes += 1;
                                }
                                Some(Action::CrashAll) => {
                                    seen[2] += 1;
                                    decided.fill(false);
                                    crashes += 1;
                                }
                                Some(Action::Branch(..)) => panic!("schedulers never branch"),
                            }
                        }
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&k| k > 0),
            "every action kind drawn: {seen:?}"
        );
    }

    #[test]
    fn terminates_when_all_decided_and_no_crash_budget() {
        let mut s = RandomScheduler::new(RandomSchedulerConfig {
            seed: 1,
            crash_prob: 0.0,
            crash: CrashModel::none().after_decide(true),
        });
        let decided = vec![true, true];
        assert_eq!(s.next_action(&ctx(&decided, 0)), None);
    }
}
