//! The exhaustive-checker workloads.
//!
//! `check-unreduced` runs plain serial searches of Fig. 2 team RC whose
//! state counts cannot shrink; `check-reduced` runs the reduced searches
//! (POR, rebind symmetry, process symmetry, the Fig. 4 scalarset), also
//! serially, and its traced run re-times them at two threads, which
//! selects the frontier engine. Every search's `(verdict, states,
//! leaves)` is pinned.

use crate::trace::Tracer;
use crate::{timed, Batch, Scale, SetupTimes, Tally, Workload};
use rc_core::algorithms::{
    build_masked_team_rc_system_sym, build_simultaneous_rc_system_sym, build_team_rc_system,
    build_team_rc_system_sym, ConsensusObjectFactory,
};
use rc_core::{check_recording, Assignment, RecordingWitness, Team};
use rc_runtime::footprint::AnalysisBudget;
use rc_runtime::{
    analyze_system, analyze_system_states, explore_symmetric_with_stats, explore_with_stats,
    lint_scalarset, system_analysis_cached, CrashModel, ExploreConfig, ExploreOutcome,
    ExploreStats, Memory, Program, SymmetrySpec,
};
use rc_spec::types::Sn;
use rc_spec::{TypeHandle, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

type System = (Memory, Vec<Box<dyn Program>>);
type PlainFactory = Box<dyn Fn() -> System>;
type SymFactory = Box<dyn Fn() -> (Memory, Vec<Box<dyn Program>>, SymmetrySpec)>;

/// Factory calls timed per search for `core.build_us`.
const BUILD_SAMPLES: u32 = 200;

enum Factory {
    Plain(PlainFactory),
    Symmetric(SymFactory),
}

/// The system a search checks.
#[derive(Clone, Copy)]
enum Kind {
    /// Fig. 2 team RC over `S_n`, no symmetry.
    Team(usize),
    /// Fig. 2 team RC over `S_n` with process symmetry.
    TeamSym(usize),
    /// Input-masked Fig. 2 team RC over `S_n` with rebind symmetry.
    MaskedSym(usize),
    /// Fig. 4 simultaneous-crash RC with the scalarset family declared.
    Fig4Sym,
}

/// One pinned search: what it checks, under which adversary, and the
/// `Verified` state and leaf counts it must report.
struct Spec {
    name: &'static str,
    kind: Kind,
    crash: CrashModel,
    por: bool,
    states: usize,
    leaves: usize,
}

const fn spec(
    name: &'static str,
    kind: Kind,
    crash: CrashModel,
    por: bool,
    states: usize,
    leaves: usize,
) -> Spec {
    Spec {
        name,
        kind,
        crash,
        por,
        states,
        leaves,
    }
}

fn indep(budget: usize) -> CrashModel {
    CrashModel::independent(budget).after_decide(true)
}

fn crash_all(budget: usize) -> CrashModel {
    CrashModel::simultaneous(budget).after_decide(true)
}

/// Fig. 4 inputs: two processes share an input, so one orbit of two
/// acts on the scalarset family beside a singleton.
const FIG4_INPUTS: [i64; 3] = [0, 0, 1];
/// Fig. 4 round horizon.
const FIG4_ROUNDS: usize = 4;

#[rustfmt::skip]
fn specs(reduced: bool, scale: Scale) -> Vec<Spec> {
    use Kind::*;
    match (reduced, scale) {
        (false, Scale::Full) => vec![
            // Almost all inserts.
            spec("s6_b0", Team(6), indep(0), false, 224_863, 17),
            // Crash edges re-hit stored states.
            spec("s5_b1", Team(5), indep(1), false, 107_501, 15),
        ],
        (false, Scale::Small) => vec![
            spec("s4_b0", Team(4), indep(0), false, 4_315, 11),
            spec("s3_b1", Team(3), indep(1), false, 2_161, 9),
        ],
        (true, Scale::Full) => vec![
            // POR's independent budget-1 regression case.
            spec("masked_s5_b1", MaskedSym(5), indep(1), true, 41_517, 15),
            spec("masked_s7_all_b1", MaskedSym(7), crash_all(1), true, 101_761, 20),
            spec("s8_b0_sym", TeamSym(8), indep(0), false, 29_477, 23),
            spec("fig4_n3_b1", Fig4Sym, crash_all(1), true, 67_125, 24),
        ],
        (true, Scale::Small) => vec![
            spec("masked_s4_b1", MaskedSym(4), indep(1), true, 12_589, 12),
            spec("masked_s4_all_b1", MaskedSym(4), crash_all(1), true, 5_213, 11),
            spec("s5_b0_sym", TeamSym(5), indep(0), false, 3_054, 14),
            spec("fig4_n3_b0", Fig4Sym, crash_all(0), true, 2_611, 2),
        ],
    }
}

/// Names of every search of both checker workloads at `scale`.
pub(crate) fn search_names(scale: Scale) -> Vec<&'static str> {
    [false, true]
        .into_iter()
        .flat_map(|reduced| specs(reduced, scale))
        .map(|s| s.name)
        .collect()
}

/// The `S_n` recording witness: one team-A row, `n - 1` team-B rows.
fn sn_witness(n: usize) -> (TypeHandle, RecordingWitness) {
    let sn = Sn::new(n);
    let a = Assignment::split(Sn::q0(), vec![Sn::op_a()], vec![Sn::op_b(); n - 1]);
    let w = check_recording(&sn, &a).expect("the S_n assignment is recording");
    (Arc::new(sn), w)
}

fn team_inputs(w: &RecordingWitness) -> Vec<Value> {
    w.assignment
        .teams
        .iter()
        .map(|t| match t {
            Team::A => Value::Int(0),
            Team::B => Value::Int(1),
        })
        .collect()
}

struct Search {
    spec: Spec,
    factory: Factory,
    config: ExploreConfig,
}

impl Search {
    fn system(&self) -> System {
        match &self.factory {
            Factory::Plain(f) => f(),
            Factory::Symmetric(f) => {
                let (mem, programs, _) = f();
                (mem, programs)
            }
        }
    }

    fn explore(&self, config: &ExploreConfig) -> Result<(ExploreOutcome, ExploreStats), String> {
        crate::guarded(|| match &self.factory {
            Factory::Plain(f) => explore_with_stats(&**f, config),
            Factory::Symmetric(f) => explore_symmetric_with_stats(&**f, config),
        })
    }

    /// Runs one search and checks it against its pin.
    fn checked(
        &self,
        config: &ExploreConfig,
        tally: &mut Tally,
    ) -> (f64, Option<(ExploreOutcome, ExploreStats)>) {
        let (result, wall_s) = timed(|| self.explore(config));
        let want = ExploreOutcome::Verified {
            states: self.spec.states,
            leaves: self.spec.leaves,
        };
        let ok = matches!(&result, Ok((outcome, _)) if *outcome == want);
        tally.check(ok, || {
            format!(
                "{} (threads {}): expected {want:?}, got {:?}",
                self.spec.name,
                config.threads,
                result.as_ref().map(|r| &r.0)
            )
        });
        (wall_s, result.ok())
    }
}

/// A checker workload; `REDUCED` selects `check-reduced`.
pub(crate) struct CheckWorkload<const REDUCED: bool> {
    searches: Vec<Search>,
}

/// Worker threads of the traced re-time of `check-reduced` on the
/// frontier engine. The timed searches are serial: on a shared two-core
/// host a two-thread search waits on whichever core is contended, and
/// its run-to-run spread exceeded the benchmark's bounds.
const FRONTIER_THREADS: usize = 2;

impl<const REDUCED: bool> Workload for CheckWorkload<REDUCED> {
    fn setup(scale: Scale, _seed: u64, keep: bool, tracer: &mut Tracer) -> (Self, SetupTimes) {
        let mut times = SetupTimes::default();
        let mut searches = Vec::new();
        for spec in specs(REDUCED, scale) {
            let witness = format!("core:witness:{}", spec.name);
            let ((factory, inputs), s) =
                timed(|| tracer.span(&witness, |_| make_factory(spec.kind)));
            times.witness_s += s;
            let config = ExploreConfig {
                crash: spec.crash,
                inputs: Some(inputs),
                threads: 1,
                por: spec.por,
                analysis_id: spec.por.then(|| format!("perfbench/{}", spec.name)),
                ..ExploreConfig::default()
            };
            let search = Search {
                spec,
                factory,
                config,
            };
            let (mem, programs) = tracer.span("core:build", |_| search.system());
            // The kept set-up fills the engine's caches under the
            // searches' analysis ids. A timing-only set-up repeats the
            // same analyses uncached, so repeated set-ups neither hit
            // the caches nor grow them.
            if let Some(id) = &search.config.analysis_id {
                let ((), s) = timed(|| {
                    tracer.span("footprint:analysis", |_| {
                        // A failure resurfaces as a failed search.
                        let budget = AnalysisBudget::default();
                        if keep {
                            let _ = system_analysis_cached(id, &mem, &programs, budget);
                        } else {
                            let _ = analyze_system_states(&mem, &programs, budget);
                        }
                    })
                });
                times.analysis_s += s;
            }
            if let (Kind::Fig4Sym, Factory::Symmetric(f)) = (search.spec.kind, &search.factory) {
                tracer.span("scalarset:prewarm", |_| {
                    if keep {
                        // A one-state search certifies the scalarset
                        // family into the engine's cache.
                        let config = ExploreConfig {
                            max_states: 1,
                            threads: 1,
                            ..search.config.clone()
                        };
                        let _ = search.explore(&config);
                    } else {
                        let (mem, programs, spec) = f();
                        lint_scalarset(&mem, &programs, &spec, AnalysisBudget::default());
                    }
                });
            }
            searches.push(search);
        }
        (CheckWorkload { searches }, times)
    }

    fn batch(&mut self, tracer: &mut Tracer, tally: &mut Tally) -> Batch {
        let mut batch = Batch::default();
        let mut peak_table = 0usize;
        let mut table_bytes = 0usize;
        let mut witness = 0usize;
        let mut interned = 0usize;
        let mut workers = 0usize;
        for s in &self.searches {
            let name = s.spec.name;
            let (wall_s, result) =
                tracer.span(&format!("explore:{name}"), |_| s.checked(&s.config, tally));
            batch.calls.push((name.to_string(), wall_s));
            batch.runs += 1.0;
            let (states, leaves) = match result.as_ref().map(|r| &r.0) {
                Some(ExploreOutcome::Verified { states, leaves }) => (*states, *leaves),
                Some(ExploreOutcome::Truncated { states }) => (*states, 0),
                _ => (0, 0),
            };
            batch.states += states as f64;
            if let Some((_, stats)) = &result {
                peak_table = peak_table.max(stats.peak_table_bytes);
                table_bytes += stats.peak_table_bytes;
                witness = witness.max(stats.witness_bytes);
                interned = interned.max(stats.interned_bytes);
                workers = workers.max(stats.max_level_workers);
            }
            let layer = &mut batch.layer;
            layer.insert(format!("explore.search_s.{name}"), wall_s);
            layer.insert(format!("explore.states.{name}"), states as f64);
            layer.insert(format!("explore.leaves.{name}"), leaves as f64);
            layer.insert(
                format!("explore.states_per_sec.{name}"),
                states as f64 / wall_s.max(1e-9),
            );
        }
        let mib = |bytes: usize| bytes as f64 / (1u64 << 20) as f64;
        let layer = &mut batch.layer;
        layer.insert("explore.max_level_workers".into(), workers as f64);
        layer.insert("storage.peak_table_mb".into(), mib(peak_table));
        layer.insert(
            "storage.bytes_per_state".into(),
            table_bytes as f64 / batch.states.max(1.0),
        );
        layer.insert("storage.witness_mb".into(), mib(witness));
        layer.insert("intern.interned_mb".into(), mib(interned));
        batch
    }

    fn layers(
        &mut self,
        tracer: &mut Tracer,
        tally: &mut Tally,
        untraced: &Batch,
        out: &mut BTreeMap<String, f64>,
    ) {
        let mut build_s = 0.0;
        for s in &self.searches {
            let ((), t) = timed(|| {
                tracer.span("core:build", |_| {
                    for _ in 0..BUILD_SAMPLES {
                        drop(std::hint::black_box(s.system()));
                    }
                })
            });
            build_s += t / f64::from(BUILD_SAMPLES);
        }
        out.insert(
            "core.build_us".into(),
            build_s * 1e6 / self.searches.len() as f64,
        );
        if !REDUCED {
            return;
        }
        let mut frontier_s = 0.0;
        let mut workers = 0usize;
        tracer.span("bench:frontier-retime", |t| {
            for s in &self.searches {
                let config = ExploreConfig {
                    threads: FRONTIER_THREADS,
                    ..s.config.clone()
                };
                let name = format!("explore:{}@t{FRONTIER_THREADS}", s.spec.name);
                let (wall_s, result) = t.span(&name, |_| s.checked(&config, tally));
                frontier_s += wall_s;
                if let Some((_, stats)) = result {
                    workers = workers.max(stats.max_level_workers);
                }
            }
        });
        out.insert("explore.max_level_workers".into(), workers as f64);
        out.insert(
            "explore.frontier_vs_serial".into(),
            untraced.wall_s() / frontier_s.max(1e-9),
        );
        let mut validate_s = 0.0;
        let mut certify_s = 0.0;
        for s in &self.searches {
            let Factory::Symmetric(f) = &s.factory else {
                continue;
            };
            let (mem, programs, spec) = f();
            match s.spec.kind {
                Kind::MaskedSym(_) => {
                    let (ok, t) = timed(|| {
                        tracer.span("footprint:validate", |_| {
                            analyze_system(&mem, &programs, true, AnalysisBudget::default()).is_ok()
                        })
                    });
                    validate_s += t;
                    tally.check(ok, || format!("{}: analyze_system failed", s.spec.name));
                }
                Kind::Fig4Sym => {
                    let (ok, t) = timed(|| {
                        tracer.span("scalarset:certify", |_| {
                            lint_scalarset(&mem, &programs, &spec, AnalysisBudget::default())
                                .is_certified()
                        })
                    });
                    certify_s += t;
                    tally.check(ok, || format!("{}: scalarset not certified", s.spec.name));
                }
                Kind::Team(_) | Kind::TeamSym(_) => {}
            }
        }
        out.insert("footprint.validate_ms".into(), validate_s * 1e3);
        out.insert("scalarset.certify_ms".into(), certify_s * 1e3);
    }

    fn final_checks(&mut self, _tally: &mut Tally) {}

    fn config_json(&self) -> String {
        let searches: Vec<String> = self
            .searches
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"crash\": \"{:?}\", \"por\": {}, \"threads\": {}, \
                     \"storage\": \"{:?}\", \"states\": {}, \"leaves\": {}}}",
                    s.spec.name,
                    s.config.crash,
                    s.config.por,
                    s.config.threads,
                    s.config.storage,
                    s.spec.states,
                    s.spec.leaves
                )
            })
            .collect();
        format!("{{\"searches\": [{}]}}", searches.join(", "))
    }

    fn threads(&self) -> usize {
        1
    }
}

/// Witness search, then the factory over the found witness and the
/// declared inputs.
fn make_factory(kind: Kind) -> (Factory, Vec<Value>) {
    match kind {
        Kind::Team(n) => {
            let (ty, w) = sn_witness(n);
            let inputs = team_inputs(&w);
            let declared = inputs.clone();
            let f = move || build_team_rc_system(ty.clone(), &w, &inputs);
            (Factory::Plain(Box::new(f)), declared)
        }
        Kind::TeamSym(n) => {
            let (ty, w) = sn_witness(n);
            let inputs = team_inputs(&w);
            let declared = inputs.clone();
            let f = move || build_team_rc_system_sym(ty.clone(), &w, &inputs);
            (Factory::Symmetric(Box::new(f)), declared)
        }
        Kind::MaskedSym(n) => {
            let (ty, w) = sn_witness(n);
            let inputs = team_inputs(&w);
            let declared = inputs.clone();
            let f = move || build_masked_team_rc_system_sym(ty.clone(), &w, &inputs);
            (Factory::Symmetric(Box::new(f)), declared)
        }
        Kind::Fig4Sym => {
            let inputs: Vec<Value> = FIG4_INPUTS.into_iter().map(Value::Int).collect();
            let declared = inputs.clone();
            let objects = ConsensusObjectFactory { domain: 4 };
            let f = move || build_simultaneous_rc_system_sym(&objects, &inputs, FIG4_ROUNDS);
            (Factory::Symmetric(Box::new(f)), declared)
        }
    }
}
