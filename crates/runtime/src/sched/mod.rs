//! Schedulers: the adversary that orders steps and injects crashes.
//!
//! The paper's adversary controls (a) the interleaving of process steps and
//! (b) when processes crash — individually in the *independent* model,
//! collectively in the *simultaneous* model. A [`Scheduler`] makes exactly
//! those choices, one [`Action`] at a time:
//!
//! * [`RandomScheduler`] — seeded pseudo-random interleavings with
//!   configurable crash probability, crash budget, and crash model; the
//!   workhorse of the randomized experiments.
//! * [`RoundRobin`] — the simplest fair schedule (crash-free).
//! * [`ScriptedScheduler`] — an exact, hand-written event list; used to
//!   reproduce the paper's adversarial scenarios (Section 3.1's bad
//!   scenarios, Fig. 8's stack executions) step by step.
//!
//! The bounded-*exhaustive* adversary lives in
//! [`explore`](crate::explore), not here: it enumerates every schedule
//! rather than choosing one.
//!
//! ## The scheduler contract
//!
//! Three rules every implementation in this module obeys; downstream
//! layers — most heavily the swarm service ([`swarm`](crate::swarm)) —
//! are built on them:
//!
//! 1. **Seed determinism.** A scheduler's decisions are a pure function
//!    of its construction parameters and the sequence of
//!    [`SchedContext`]s it has been shown. There is no hidden entropy:
//!    [`RandomScheduler`] draws from a PRNG seeded *only* by
//!    [`RandomSchedulerConfig::seed`], so equal seeds replay
//!    byte-identical executions — which is what lets the swarm engine
//!    report a bare seed number as a complete, replayable
//!    counterexample, on any machine and at any thread count.
//! 2. **Crash-budget interaction.** Schedulers never invent crash
//!    legality rules: every crash decision is routed through the shared
//!    [`CrashModel`](crate::CrashModel) — budget via
//!    `exhausted(ctx.crashes_injected)` (the context's counter, not a
//!    private one, so external crash injections count against the same
//!    budget), victim eligibility via `may_crash`/`crash_candidates`,
//!    and simultaneous wipes via `may_crash_all`. A schedule emitted by
//!    any scheduler here is therefore `CrashModel`-legal by
//!    construction, and the swarm shrinker can re-check that same
//!    legality on every delta-debugging candidate without consulting
//!    the scheduler that produced the original.
//! 3. **Termination signalling.** Returning `None` ends the execution;
//!    [`RandomScheduler`] does so only when every process's current
//!    run has decided ([`SchedContext::all_decided`]) and its coin
//!    declines a further (policy-legal) post-decide crash — so a
//!    seeded run is finite whenever the algorithm under test is
//!    recoverable wait-free and the crash budget is finite.
//!    ([`run`](crate::run)'s `max_actions` bound backstops algorithms
//!    that are not.)
//!
//! Schedulers emit only [`Action::Step`], [`Action::Crash`] and
//! [`Action::CrashAll`] — never [`Action::Branch`], which is the
//! exhaustive engines' private vocabulary for internal nondeterminism
//! (schedulers resolve it deterministically through
//! [`Program::step`](crate::Program::step)). The swarm shrinker leans
//! on this too: a `Branch` in a shrink candidate marks the candidate
//! ill-formed rather than adversarial.

mod budgeted;
mod random;
mod round_robin;
mod script;

pub use budgeted::BudgetedCrashScheduler;
pub use random::{RandomScheduler, RandomSchedulerConfig};
pub use round_robin::RoundRobin;
pub use script::ScriptedScheduler;

use crate::program::Pid;

/// One scheduling decision.
///
/// The `Ord` instance (`Step < Branch < Crash < CrashAll`, then by
/// pid/choice) gives schedules a canonical lexicographic order; the
/// model checker expands actions in this order, so its violation
/// witnesses are deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// Let process `pid` execute one step.
    Step(Pid),
    /// Let process `pid` execute the internal alternative with the given
    /// choice id ([`Program::step_choice`](crate::Program::step_choice)).
    /// Emitted only by the exhaustive engines, and only for states
    /// offering more than one choice; schedulers resolve internal
    /// nondeterminism deterministically via [`Action::Step`].
    Branch(Pid, usize),
    /// Crash process `pid` (independent-crash model).
    Crash(Pid),
    /// Crash every process simultaneously (simultaneous-crash model).
    CrashAll,
}

/// What a scheduler can see when making its next decision.
#[derive(Clone, Debug)]
pub struct SchedContext<'a> {
    /// Number of processes.
    pub n: usize,
    /// `decided[p]` — whether process `p`'s *current run* has produced an
    /// output (a later crash clears the flag and forces a re-run).
    pub decided: &'a [bool],
    /// Steps scheduled so far.
    pub steps_taken: usize,
    /// Crash events injected so far.
    pub crashes_injected: usize,
}

impl SchedContext<'_> {
    /// Indices of processes whose current run has not decided.
    pub fn undecided(&self) -> Vec<Pid> {
        (0..self.n).filter(|&p| !self.decided[p]).collect()
    }

    /// Whether every process's current run has decided.
    pub fn all_decided(&self) -> bool {
        self.decided.iter().all(|d| *d)
    }
}

/// A source of scheduling decisions.
pub trait Scheduler {
    /// The next action, or `None` to end the execution.
    fn next_action(&mut self, ctx: &SchedContext<'_>) -> Option<Action>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_helpers() {
        let decided = vec![true, false, true];
        let ctx = SchedContext {
            n: 3,
            decided: &decided,
            steps_taken: 5,
            crashes_injected: 1,
        };
        assert_eq!(ctx.undecided(), vec![1]);
        assert!(!ctx.all_decided());
    }
}
