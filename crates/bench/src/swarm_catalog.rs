//! The swarm system catalog: every system the `swarm` binary can sweep,
//! each with a thread-safe factory, its declared inputs, a per-system
//! default crash adversary and the expected verdict.
//!
//! The catalog reuses the same `rc-core` builders as the exhaustive
//! experiments (E2–E13), so a system id here denotes *exactly* the
//! construction those experiments verify — the swarm service extends
//! their coverage past the exhaustive frontier instead of testing
//! something subtly different. Entries whose `expect_violation` is
//! `true` (the Section 3.1 missing-guard counterexample) are the seeded
//! bugs the CI smoke tier must find and shrink.

use rc_core::algorithms::{
    build_broken_team_rc_system, build_masked_team_rc_system, build_simultaneous_rc_system,
    build_team_consensus_system, build_team_rc_system, build_tournament_rc, ConsensusObjectFactory,
};
use rc_core::find_recording_witness;
use rc_runtime::{CrashModel, Memory, Program, SwarmConfig, SystemFactory};
use rc_spec::types::Tn;
use rc_spec::{TypeHandle, Value};
use std::sync::Arc;

use crate::exp::{broken_witness, sn_witness, team_inputs, tn_witness};

/// An owned system builder (the [`SystemFactory`] borrow the swarm
/// engine consumes is produced by [`SwarmSystem::factory`]). `Send +
/// Sync` so a built catalog can live in a `static`, as the test suites
/// keep it.
type BoxedFactory = Box<dyn Fn() -> (Memory, Vec<Box<dyn Program>>) + Send + Sync>;

/// One swarm-sweepable system: id, construction, inputs and the default
/// adversary under which its `expect_violation` verdict holds.
pub struct SwarmSystem {
    /// Stable catalog id (`swarm run --system <id>`).
    pub id: &'static str,
    /// One-line description for `swarm list`.
    pub description: &'static str,
    /// Declared inputs (the validity check's universe).
    pub inputs: Vec<Value>,
    /// Default crash adversary for this system.
    pub crash: CrashModel,
    /// Default per-decision crash probability.
    pub crash_prob: f64,
    /// Whether seeded sweeps are expected to find violations under the
    /// default adversary (`true` only for the seeded-bug entries).
    pub expect_violation: bool,
    factory: BoxedFactory,
}

impl SwarmSystem {
    /// The system factory, in the shape the swarm engine consumes.
    pub fn factory(&self) -> &SystemFactory<'_> {
        &*self.factory
    }

    /// The swarm configuration this system's defaults produce, with the
    /// given seed range and thread count.
    pub fn config(&self, seed_start: u64, seeds: u64, threads: usize) -> SwarmConfig {
        SwarmConfig {
            seed_start,
            seeds,
            threads,
            crash_prob: self.crash_prob,
            crash: self.crash,
            max_actions: 100_000,
            inputs: Some(self.inputs.clone()),
        }
    }
}

/// Builds the full catalog. Witness search runs once per call; the
/// factories it returns build one system per invocation, and a swarm
/// sweep invokes each once.
pub fn swarm_catalog() -> Vec<SwarmSystem> {
    let mut systems = Vec::new();

    // Fig. 2 team RC over S_n witnesses — correct under independent
    // crashes with post-decide re-runs (Theorem 8).
    for n in [3usize, 4] {
        let (ty, w) = sn_witness(n);
        let inputs = team_inputs(&w.assignment);
        let (id, description) = match n {
            3 => (
                "team-rc-s3",
                "Fig. 2 team RC over the 3-row S_3 witness (Theorem 8)",
            ),
            _ => (
                "team-rc-s4",
                "Fig. 2 team RC over the 4-row S_4 witness (Theorem 8)",
            ),
        };
        let f_inputs = inputs.clone();
        systems.push(SwarmSystem {
            id,
            description,
            inputs,
            crash: CrashModel::independent(3).after_decide(true),
            crash_prob: 0.15,
            expect_violation: false,
            factory: Box::new(move || build_team_rc_system(ty.clone(), &w, &f_inputs)),
        });
    }

    // Input-masked team RC: the Proposition 30 transformation removes
    // the stable-input assumption; still correct.
    {
        let (ty, w) = sn_witness(3);
        let inputs = team_inputs(&w.assignment);
        let f_inputs = inputs.clone();
        systems.push(SwarmSystem {
            id: "masked-team-rc-s3",
            description: "input-masked Fig. 2 team RC over S_3 (Prop. 30 transformation)",
            inputs,
            crash: CrashModel::independent(3).after_decide(true),
            crash_prob: 0.15,
            expect_violation: false,
            factory: Box::new(move || build_masked_team_rc_system(ty.clone(), &w, &f_inputs)),
        });
    }

    // The seeded bug: Section 3.1's missing |B| ≥ 2 guard. Violates
    // agreement on adversarial interleavings with *zero* crashes, so
    // the default adversary is crash-free — the bug is a pure
    // interleaving bug, and shrunken witnesses contain only steps.
    {
        let (ty, w) = broken_witness();
        let inputs = team_inputs(&w.assignment);
        let f_inputs = inputs.clone();
        systems.push(SwarmSystem {
            id: "broken-team-rc",
            description: "Section 3.1 missing-guard team RC (seeded agreement bug)",
            inputs,
            crash: CrashModel::none(),
            crash_prob: 0.0,
            expect_violation: true,
            factory: Box::new(move || build_broken_team_rc_system(ty.clone(), &w, &f_inputs)),
        });
    }

    // Theorem 3 team consensus over T_4 — correct *crash-free* (its
    // whole point: consensus is solvable where RC is not), so its
    // default adversary injects no crashes.
    {
        let (ty, w) = tn_witness(4);
        let inputs = team_inputs(&w.assignment);
        let f_inputs = inputs.clone();
        systems.push(SwarmSystem {
            id: "team-consensus-t4",
            description: "Theorem 3 team consensus over T_4 (crash-free by design)",
            inputs,
            crash: CrashModel::none(),
            crash_prob: 0.0,
            expect_violation: false,
            factory: Box::new(move || build_team_consensus_system(ty.clone(), &w, &f_inputs)),
        });
    }

    // Theorem 16 tournament RC: 4 processes over the 4-recording T_6
    // witness, the E4 construction — correct under independent crashes.
    {
        let ty: TypeHandle = Arc::new(Tn::new(6));
        let w = find_recording_witness(&ty, 4).expect("Theorem 16 witness");
        let inputs: Vec<Value> = (0..4).map(Value::Int).collect();
        let f_inputs = inputs.clone();
        systems.push(SwarmSystem {
            id: "tournament-rc-t6",
            description: "Theorem 16 tournament RC: 4 processes over the T_6 witness",
            inputs,
            crash: CrashModel::independent(4).after_decide(true),
            crash_prob: 0.15,
            expect_violation: false,
            factory: Box::new(move || build_tournament_rc(ty.clone(), &w, &f_inputs)),
        });
    }

    // Fig. 4 / Theorem 1 simultaneous-crash RC, 3 processes — correct
    // under simultaneous crashes (its model).
    {
        let factory = ConsensusObjectFactory { domain: 4 };
        let inputs: Vec<Value> = (0..3).map(Value::Int).collect();
        let f_inputs = inputs.clone();
        systems.push(SwarmSystem {
            id: "simultaneous-rc-n3",
            description: "Fig. 4 simultaneous-crash RC, 3 processes (Theorem 1)",
            inputs,
            crash: CrashModel::simultaneous(2).after_decide(true),
            crash_prob: 0.05,
            expect_violation: false,
            factory: Box::new(move || build_simultaneous_rc_system(&factory, &f_inputs, 6)),
        });
    }

    systems
}

/// Looks up a catalog system by id.
pub fn find_system(systems: &[SwarmSystem], id: &str) -> Option<usize> {
    systems.iter().position(|s| s.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_runtime::swarm::swarm;

    #[test]
    fn catalog_ids_are_unique_and_factories_build() {
        let systems = swarm_catalog();
        let mut ids: Vec<&str> = systems.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate catalog id");
        for sys in &systems {
            let (_, programs) = (sys.factory())();
            assert_eq!(
                programs.len(),
                sys.inputs.len(),
                "{}: one input per process",
                sys.id
            );
        }
        assert!(find_system(&systems, "broken-team-rc").is_some());
        assert!(find_system(&systems, "no-such-system").is_none());
    }

    /// A small sweep over every entry: correct systems report zero
    /// violations under their default adversary; the seeded bug is
    /// found. This is the catalog-level form of the swarm engine's
    /// contract, kept small enough for the tier-1 suite.
    #[test]
    fn default_adversary_matches_expected_verdict() {
        for sys in swarm_catalog() {
            let config = sys.config(0, 60, 0);
            let report = swarm(sys.factory(), &config);
            assert_eq!(report.runs, 60, "{}", sys.id);
            if sys.expect_violation {
                assert!(
                    !report.violations.is_empty(),
                    "{}: the seeded bug must surface within 60 seeds",
                    sys.id
                );
            } else {
                assert!(
                    report.violations.is_empty(),
                    "{}: unexpected violations: {:?}",
                    sys.id,
                    report.violations
                );
            }
        }
    }
}
