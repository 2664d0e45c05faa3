//! The swarm workload: `swarm_with_progress` at two threads with a
//! progress sink, as `swarm run` drives it, over a short-run system, a
//! long-run system and the seeded Section 3.1 bug.

use crate::trace::Tracer;
use crate::{timed, Batch, Scale, SetupTimes, Tally, Workload};
use rc_bench::swarm_catalog::{find_system, swarm_catalog, SwarmSystem};
use rc_runtime::verify::check_consensus_execution;
use rc_runtime::{
    is_subsequence, replay_seed, run, shrink_schedule, swarm_with_progress, RunOptions,
    SwarmConfig, SwarmProgress, SwarmReport, SwarmViolation,
};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Worker threads of the timed sweeps.
const THREADS: usize = 2;
/// The seeded-bug system; every other swept system must stay clean.
const BROKEN: &str = "broken-team-rc";

/// `(catalog id, seeds per sweep)`. Each sweep spans many 250 ms
/// progress ticks, so the poll tail is a small share of its wall time.
fn sweeps(scale: Scale) -> [(&'static str, u64); 3] {
    match scale {
        Scale::Full => [
            ("team-rc-s4", 600_000),
            ("tournament-rc-t6", 100_000),
            (BROKEN, 1_000_000),
        ],
        Scale::Small => [
            ("team-rc-s4", 3_000),
            ("tournament-rc-t6", 1_000),
            (BROKEN, 3_000),
        ],
    }
}

/// Seeds per system run one by one for the exec/verify/build timings.
const SAMPLE: u64 = 4_000;

pub(crate) struct SweepWorkload {
    catalog: Vec<SwarmSystem>,
    /// `(catalog index, configuration)` per sweep.
    sweeps: Vec<(usize, SwarmConfig)>,
    /// The first batch's deterministic summaries; later batches must
    /// reproduce them exactly.
    summaries: Option<Vec<String>>,
    first_violation: Option<SwarmViolation>,
}

impl SweepWorkload {
    fn system(&self, index: usize) -> &SwarmSystem {
        &self.catalog[index]
    }

    /// One sweep; `sink` selects the progress-callback path. Returns the
    /// wall time, the report and, with the sink, the poll tail: the time
    /// from the last run's completion to the progress tick that noticed
    /// it, estimated from the last two ticks and the rate before them.
    fn sweep(&self, index: usize, config: &SwarmConfig, sink: bool) -> (f64, SwarmReport, f64) {
        let ticks = Mutex::new(Vec::new());
        let callback = |p: SwarmProgress| {
            ticks
                .lock()
                .expect("the sink never panics")
                .push((p.elapsed_secs, p.runs));
        };
        let (report, wall) = timed(|| {
            swarm_with_progress(
                self.system(index).factory(),
                config,
                sink.then_some(&callback as &(dyn Fn(SwarmProgress) + Sync)),
            )
        });
        let ticks = ticks.into_inner().expect("the sink never panics");
        let tail = match ticks.as_slice() {
            [.., (t_prev, r_prev), (t_last, _)] if *r_prev > 0 => {
                let rate = *r_prev as f64 / t_prev;
                let finished = t_prev + (config.seeds - r_prev) as f64 / rate;
                (t_last - finished).max(0.0)
            }
            _ => 0.0,
        };
        (wall, report, tail)
    }

    fn check_report(&self, index: usize, report: &SwarmReport, tally: &mut Tally) {
        let system = self.system(index);
        let ok = if system.expect_violation {
            !report.violations.is_empty()
        } else {
            report.violations.is_empty()
        };
        tally.check(ok, || {
            format!(
                "{}: {} violations (expected {})",
                system.id,
                report.violations.len(),
                if system.expect_violation {
                    "some"
                } else {
                    "none"
                }
            )
        });
    }
}

impl Workload for SweepWorkload {
    fn setup(scale: Scale, seed: u64, _keep: bool, tracer: &mut Tracer) -> (Self, SetupTimes) {
        let (catalog, witness_s) = timed(|| tracer.span("core:catalog", |_| swarm_catalog()));
        let mut sweeps = Vec::new();
        for (id, seeds) in self::sweeps(scale) {
            let index = find_system(&catalog, id).expect("swept systems are in the catalog");
            // Disjoint seed ranges per workload seed.
            let config = catalog[index].config(seed.wrapping_mul(1 << 32), seeds, THREADS);
            tracer.span("core:build", |_| drop((catalog[index].factory())()));
            sweeps.push((index, config));
        }
        let workload = SweepWorkload {
            catalog,
            sweeps,
            summaries: None,
            first_violation: None,
        };
        let times = SetupTimes {
            witness_s,
            analysis_s: 0.0,
        };
        (workload, times)
    }

    fn batch(&mut self, tracer: &mut Tracer, tally: &mut Tally) -> Batch {
        let mut batch = Batch::default();
        let mut summaries = Vec::new();
        let (mut distinct, mut violations, mut crashes, mut tail) = (0.0, 0.0, 0.0, 0.0);
        for (index, config) in &self.sweeps {
            let id = self.system(*index).id;
            let (wall_s, report, tail_s) = tracer
                .span(&format!("swarm:{id}"), |_| {
                    crate::guarded(|| self.sweep(*index, config, true))
                })
                .unwrap_or_else(|panic| {
                    tally.check(false, || format!("{id}: sweep panicked: {panic}"));
                    (0.0, empty_report(), 0.0)
                });
            if report.runs > 0 {
                self.check_report(*index, &report, tally);
            }
            batch.calls.push((id.to_string(), wall_s));
            batch.runs += report.runs as f64;
            batch.states += report.total_steps as f64;
            distinct += report.distinct_final_states as f64;
            violations += report.violations.len() as f64;
            crashes += report.total_crashes as f64;
            tail += tail_s;
            if id == BROKEN && self.first_violation.is_none() {
                self.first_violation = report.violations.first().cloned();
            }
            summaries.push(report.deterministic_summary());
        }
        match &self.summaries {
            None => self.summaries = Some(summaries),
            Some(first) => tally.check(*first == summaries, || {
                "a repeated batch changed a deterministic aggregate".into()
            }),
        }
        let layer = &mut batch.layer;
        layer.insert("swarm.distinct_finals".into(), distinct);
        layer.insert("swarm.violations".into(), violations);
        layer.insert("swarm.poll_tail_ms".into(), tail * 1e3);
        layer.insert(
            "exec.steps_per_run".into(),
            batch.states / batch.runs.max(1.0),
        );
        layer.insert("exec.crashes_per_run".into(), crashes / batch.runs.max(1.0));
        batch
    }

    fn layers(
        &mut self,
        tracer: &mut Tracer,
        tally: &mut Tally,
        _untraced: &Batch,
        out: &mut BTreeMap<String, f64>,
    ) {
        // Bare sweeps (no progress sink) at two threads and at one.
        let (mut bare_s, mut serial_s) = (0.0, 0.0);
        let (mut build_s, mut run_s, mut check_s, mut runs) = (0.0, 0.0, 0.0, 0.0);
        let expected = self.summaries.clone().unwrap_or_default();
        for (k, (index, config)) in self.sweeps.iter().enumerate() {
            let id = self.system(*index).id;
            let (wall, _, _) = tracer.span(&format!("swarm:{id}@bare"), |_| {
                self.sweep(*index, config, false)
            });
            bare_s += wall;
            let serial = SwarmConfig {
                threads: 1,
                ..config.clone()
            };
            let (wall, report, _) = tracer.span(&format!("swarm:{id}@t1"), |_| {
                self.sweep(*index, &serial, false)
            });
            serial_s += wall;
            tally.check(
                expected.get(k) == Some(&report.deterministic_summary()),
                || format!("{id}: one thread changed a deterministic aggregate"),
            );

            let (build, run, check) = self.sample(*index, config, tracer, tally);
            let seeds = config.seeds as f64;
            build_s += seeds * build;
            run_s += seeds * run;
            check_s += seeds * check;
            runs += seeds;
        }
        out.insert("core.build_us".into(), build_s / runs * 1e6);
        out.insert("exec.run_us".into(), run_s / runs * 1e6);
        out.insert("verify.check_us".into(), check_s / runs * 1e6);
        out.insert(
            "swarm.keying_merge_share".into(),
            1.0 - (build_s + run_s + check_s) / serial_s.max(1e-9),
        );
        out.insert("swarm.thread_speedup".into(), serial_s / bare_s.max(1e-9));
    }

    fn final_checks(&mut self, tally: &mut Tally) {
        let Some(first) = self.first_violation.clone() else {
            tally.check(false, || format!("{BROKEN}: no violating seed to replay"));
            return;
        };
        let (index, config) = self
            .sweeps
            .iter()
            .find(|(i, _)| self.system(*i).id == BROKEN)
            .expect("the seeded bug is swept");
        let factory = self.system(*index).factory();
        let replayed = crate::guarded(|| replay_seed(factory, config, first.seed));
        let ok = matches!(&replayed, Ok(r) if r.verdict == Err(first.violation.clone()));
        tally.check(ok, || {
            format!("{BROKEN}: seed {} did not replay", first.seed)
        });
        let Ok(replayed) = replayed else { return };
        let schedule = replayed.execution.trace.to_actions();
        let shrunk = crate::guarded(|| shrink_schedule(factory, config, &schedule));
        let ok = matches!(&shrunk, Ok(Ok(w))
            if w.witness_verified && is_subsequence(&w.schedule, &schedule));
        tally.check(ok, || {
            format!(
                "{BROKEN}: seed {} did not shrink to a verified witness",
                first.seed
            )
        });
    }

    fn config_json(&self) -> String {
        let sweeps: Vec<String> = self
            .sweeps
            .iter()
            .map(|(index, c)| {
                format!(
                    "{{\"system\": \"{}\", \"seed_start\": {}, \"seeds\": {}, \"threads\": {}, \
                     \"crash\": \"{:?}\", \"crash_prob\": {}, \"progress_sink\": true}}",
                    self.system(*index).id,
                    c.seed_start,
                    c.seeds,
                    c.threads,
                    c.crash,
                    c.crash_prob
                )
            })
            .collect();
        format!(
            "{{\"sweeps\": [{}], \"sample\": {SAMPLE}}}",
            sweeps.join(", ")
        )
    }

    fn threads(&self) -> usize {
        THREADS
    }
}

impl SweepWorkload {
    /// Runs the first seeds of a sweep one by one, as a one-thread
    /// sweep does, timing the factory call, the execution and the check
    /// of each; returns mean seconds per run for each.
    fn sample(
        &self,
        index: usize,
        config: &SwarmConfig,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) -> (f64, f64, f64) {
        let system = self.system(index);
        let n = SAMPLE.min(config.seeds);
        let (mut build, mut run_s, mut check) = (0.0, 0.0, 0.0);
        let mut violations = 0;
        // Each call is timed inside its span, so span bookkeeping stays
        // out of the per-call times.
        tracer.span(&format!("bench:sample:{}", system.id), |t| {
            for seed in config.seed_start..config.seed_start + n {
                let ((mut mem, mut programs), s) =
                    t.span("core:build", |_| timed(|| (system.factory())()));
                build += s;
                let options = RunOptions {
                    max_actions: config.max_actions,
                    record_trace: false,
                };
                let mut sched = config.scheduler_for(seed);
                let (execution, s) = t.span("exec:run", |_| {
                    timed(|| run(&mut mem, &mut programs, &mut sched, options))
                });
                run_s += s;
                let (verdict, s) = t.span("verify:check", |_| {
                    timed(|| check_consensus_execution(&execution, &system.inputs))
                });
                check += s;
                violations += usize::from(verdict.is_err());
            }
        });
        tally.check(system.expect_violation || violations == 0, || {
            format!(
                "{}: {violations} violations in the serial sample",
                system.id
            )
        });
        let per = |s: f64| s / n as f64;
        (per(build), per(run_s), per(check))
    }
}

fn empty_report() -> SwarmReport {
    SwarmReport {
        runs: 0,
        violations: Vec::new(),
        distinct_final_states: 0,
        total_steps: 0,
        total_crashes: 0,
        threads_used: 0,
        elapsed_millis: 0.0,
        runs_per_sec: 0.0,
    }
}
