//! The swarm verification service: millions of deterministically-seeded
//! schedules fanned across all cores, per-seed replay, and witness
//! shrinking.
//!
//! ```sh
//! cargo run -p rc-bench --release --bin swarm -- list
//! cargo run -p rc-bench --release --bin swarm -- run --system team-rc-s3 --seeds 1000000 --json swarm.json
//! cargo run -p rc-bench --release --bin swarm -- replay --system broken-team-rc --seed 3
//! cargo run -p rc-bench --release --bin swarm -- shrink --system broken-team-rc --seed 3
//! cargo run -p rc-bench --release --bin swarm -- smoke
//! ```
//!
//! `run` streams progress to stderr (`runs/sec`, violation count) and
//! the final aggregate to stdout; `--json` additionally writes the full
//! machine-readable report. Any reported seed replays and shrinks
//! deterministically — adversary overrides (`--crash`, `--crash-prob`)
//! change which execution a seed denotes, so replay/shrink must be
//! given the same overrides as the run that reported the seed (recorded
//! in the JSON artifact). `smoke` is the bounded CI tier: it must find
//! the seeded `broken-team-rc` agreement violation, shrink it to the
//! known 10-action minimal witness, and re-verify the witness on the
//! exhaustive checker's executor (`replay_on_checker`: the same
//! decisions as `run`, and a flagged safety violation) — exit non-zero
//! otherwise.

use rc_bench::swarm_catalog::{find_system, swarm_catalog, SwarmSystem};
use rc_bench::swarm_cli::{crash_spec, parse_args, SwarmArgs, SwarmCmd};
use rc_runtime::sched::Action;
use rc_runtime::swarm::swarm_with_progress;
use rc_runtime::verify::RcViolation;
use rc_runtime::{
    is_subsequence, replay_seed, shrink_schedule, SwarmConfig, SwarmProgress, SwarmReport,
};

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("swarm: {message}");
            std::process::exit(2);
        }
    };
    let systems = swarm_catalog();
    let code = match args.cmd {
        SwarmCmd::List => cmd_list(&systems),
        SwarmCmd::Run => cmd_run(&systems, &args),
        SwarmCmd::Replay => cmd_replay(&systems, &args),
        SwarmCmd::Shrink => cmd_shrink(&systems, &args),
        SwarmCmd::Smoke => cmd_smoke(&systems, &args),
    };
    std::process::exit(code);
}

fn resolve<'a>(systems: &'a [SwarmSystem], args: &SwarmArgs) -> Result<&'a SwarmSystem, String> {
    let id = args.system.as_deref().expect("parser enforces --system");
    find_system(systems, id)
        .map(|i| &systems[i])
        .ok_or_else(|| {
            format!(
                "unknown system `{id}`; valid ids: {}",
                systems.iter().map(|s| s.id).collect::<Vec<_>>().join(", ")
            )
        })
}

/// The sweep configuration a command line denotes: the system's
/// defaults with the CLI overrides applied.
fn config_for(system: &SwarmSystem, args: &SwarmArgs) -> SwarmConfig {
    let mut config = system.config(args.seed_start, args.seeds.unwrap_or(10_000), args.threads);
    if let Some(p) = args.crash_prob {
        config.crash_prob = p;
    }
    if let Some(model) = args.crash {
        config.crash = model;
    }
    config
}

fn cmd_list(systems: &[SwarmSystem]) -> i32 {
    println!(
        "{:<20} {:<28} {:>10} description",
        "id", "default adversary", "seeded bug"
    );
    for sys in systems {
        println!(
            "{:<20} {:<28} {:>10} {}",
            sys.id,
            format!("{} p={}", crash_spec(&sys.crash), sys.crash_prob),
            if sys.expect_violation { "yes" } else { "no" },
            sys.description,
        );
    }
    0
}

fn print_report(system: &SwarmSystem, config: &SwarmConfig, report: &SwarmReport) {
    println!(
        "swarm {}: {} runs ({} threads) in {:.1} ms — {:.0} runs/sec",
        system.id, report.runs, report.threads_used, report.elapsed_millis, report.runs_per_sec
    );
    println!(
        "  seeds [{}, {}), adversary {} p={}, {} steps, {} crashes",
        config.seed_start,
        config.seed_start + config.seeds,
        crash_spec(&config.crash),
        config.crash_prob,
        report.total_steps,
        report.total_crashes
    );
    println!(
        "  distinct final states: {}   violations: {}",
        report.distinct_final_states,
        report.violations.len()
    );
    for v in report.violations.iter().take(10) {
        println!("    seed {}: {}", v.seed, v.violation);
    }
    if report.violations.len() > 10 {
        println!("    … and {} more", report.violations.len() - 10);
    }
    if let Some(v) = report.violations.first() {
        println!(
            "  replay:  cargo run -p rc-bench --release --bin swarm -- replay --system {} --seed {}",
            system.id, v.seed
        );
        println!(
            "  shrink:  cargo run -p rc-bench --release --bin swarm -- shrink --system {} --seed {}",
            system.id, v.seed
        );
    }
}

/// Hand-rolled JSON artifact (same no-dependency idiom as the
/// `BENCH_explore.json` snapshot): the configuration a seed needs to
/// replay, plus every aggregate of the report.
fn report_json(system: &SwarmSystem, config: &SwarmConfig, report: &SwarmReport) -> String {
    let mut violations = String::new();
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            violations.push(',');
        }
        let kind = match &v.violation {
            RcViolation::Agreement { .. } => "agreement",
            RcViolation::Validity { .. } => "validity",
            RcViolation::Termination => "termination",
        };
        violations.push_str(&format!(
            "\n    {{\"seed\": {}, \"kind\": \"{kind}\", \"detail\": \"{}\"}}",
            v.seed, v.violation
        ));
    }
    format!(
        "{{\n  \"schema\": 1,\n  \"system\": \"{}\",\n  \"seed_start\": {},\n  \
         \"seeds\": {},\n  \"crash\": \"{}\",\n  \"crash_prob\": {},\n  \
         \"threads_used\": {},\n  \"runs\": {},\n  \"distinct_final_states\": {},\n  \
         \"total_steps\": {},\n  \"total_crashes\": {},\n  \"elapsed_millis\": {:.3},\n  \
         \"runs_per_sec\": {:.1},\n  \"violations\": [{}{}]\n}}\n",
        system.id,
        config.seed_start,
        config.seeds,
        crash_spec(&config.crash),
        config.crash_prob,
        report.threads_used,
        report.runs,
        report.distinct_final_states,
        report.total_steps,
        report.total_crashes,
        report.elapsed_millis,
        report.runs_per_sec,
        violations,
        if report.violations.is_empty() {
            ""
        } else {
            "\n  "
        },
    )
}

fn cmd_run(systems: &[SwarmSystem], args: &SwarmArgs) -> i32 {
    let system = match resolve(systems, args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swarm: {e}");
            return 2;
        }
    };
    let config = config_for(system, args);
    let report = swarm_with_progress(
        system.factory(),
        &config,
        Some(&|p: SwarmProgress| {
            eprintln!(
                "swarm {:>12}/{} runs  {:>8.0} runs/sec  {} violations",
                p.runs,
                p.total,
                p.runs as f64 / p.elapsed_secs.max(1e-9),
                p.violations
            );
        }),
    );
    print_report(system, &config, &report);
    if let Some(path) = &args.json {
        let json = report_json(system, &config, &report);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("swarm: cannot write {path}: {e}");
            return 1;
        }
        println!("  artifact written to {path}");
    }
    // Exit non-zero when a correct system violated (a real finding) —
    // but finding the seeded bug in a bug entry is the expected result.
    i32::from(!report.violations.is_empty() && !system.expect_violation)
}

fn cmd_replay(systems: &[SwarmSystem], args: &SwarmArgs) -> i32 {
    let system = match resolve(systems, args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swarm: {e}");
            return 2;
        }
    };
    let config = config_for(system, args);
    let seed = args.seed.expect("parser enforces --seed");
    let run = replay_seed(system.factory(), &config, seed);
    println!(
        "replay {} seed {} (adversary {} p={}): {} actions, {} crashes",
        system.id,
        seed,
        crash_spec(&config.crash),
        config.crash_prob,
        run.execution.trace.to_actions().len(),
        run.execution.crashes
    );
    print!("{}", run.execution.trace);
    match &run.verdict {
        Ok(Some(v)) => {
            println!("verdict: consensus on {v}");
            0
        }
        Ok(None) => {
            println!("verdict: no outputs");
            0
        }
        Err(violation) => {
            println!("verdict: VIOLATION — {violation}");
            i32::from(!system.expect_violation)
        }
    }
}

fn render_schedule(schedule: &[Action]) -> String {
    schedule
        .iter()
        .map(|a| match a {
            Action::Step(p) => format!("step p{}", p + 1),
            Action::Branch(p, c) => format!("branch p{}#{c}", p + 1),
            Action::Crash(p) => format!("crash p{}", p + 1),
            Action::CrashAll => "crash ALL".into(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn cmd_shrink(systems: &[SwarmSystem], args: &SwarmArgs) -> i32 {
    let system = match resolve(systems, args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("swarm: {e}");
            return 2;
        }
    };
    let config = config_for(system, args);
    let seed = args.seed.expect("parser enforces --seed");
    let run = replay_seed(system.factory(), &config, seed);
    let schedule = run.execution.trace.to_actions();
    match &run.verdict {
        Err(v) => println!(
            "seed {} violates ({}); shrinking its {}-action schedule…",
            seed,
            v,
            schedule.len()
        ),
        Ok(_) => {
            eprintln!(
                "swarm: seed {seed} of `{}` does not violate — nothing to shrink",
                system.id
            );
            return 1;
        }
    }
    match shrink_schedule(system.factory(), &config, &schedule) {
        Ok(witness) => {
            assert!(is_subsequence(&witness.schedule, &schedule));
            println!(
                "minimal witness: {} actions (from {}; {} candidates tested)",
                witness.schedule.len(),
                witness.original_len,
                witness.candidates_tested
            );
            println!("  {}", render_schedule(&witness.schedule));
            println!("  violation: {}", witness.violation);
            println!(
                "  checker replay: {}",
                if witness.witness_verified {
                    "verified"
                } else {
                    "FAILED"
                }
            );
            i32::from(!witness.witness_verified)
        }
        Err(e) => {
            eprintln!("swarm: {e}");
            1
        }
    }
}

/// The bounded CI tier. Budget-friendly invariants, each fatal:
///
/// 1. a short sweep of the seeded `broken-team-rc` bug finds at least
///    one agreement violation;
/// 2. the first violating seed replays deterministically to the same
///    violation;
/// 3. its schedule shrinks to the known 10-action minimal witness — a
///    legal subsequence that still violates agreement and re-verifies
///    on the checker's executor;
/// 4. a correct control system (`team-rc-s3`) reports zero violations
///    over the same seed budget.
fn cmd_smoke(systems: &[SwarmSystem], args: &SwarmArgs) -> i32 {
    /// The minimal `broken-team-rc` agreement witness: 10 scheduler
    /// actions (all steps, zero crashes) driving two team-B rows through
    /// the unguarded branch against an early team-A decision — shorter
    /// than the 14-step schedule the exhaustive checker reports for the
    /// same system (E2), because delta-debugging minimizes where the
    /// DFS merely finds. Pinned so a regression that changes the
    /// witness fails the smoke tier loudly.
    const KNOWN_MINIMAL_WITNESS_LEN: usize = 10;
    let seeds = args.seeds.unwrap_or(400);

    let broken = &systems[find_system(systems, "broken-team-rc").expect("catalog has the bug")];
    let config = broken.config(0, seeds, 0);
    let report = swarm_with_progress(broken.factory(), &config, None);
    println!(
        "smoke: broken-team-rc swept {} seeds — {} violations, {} distinct final states",
        report.runs,
        report.violations.len(),
        report.distinct_final_states
    );
    let Some(first) = report.violations.first() else {
        eprintln!("swarm: smoke FAILED — the seeded bug was not found in {seeds} seeds");
        return 1;
    };
    if !matches!(first.violation, RcViolation::Agreement { .. }) {
        eprintln!(
            "swarm: smoke FAILED — expected an agreement violation, got: {}",
            first.violation
        );
        return 1;
    }

    let rerun = replay_seed(broken.factory(), &config, first.seed);
    if rerun.verdict != Err(first.violation.clone()) {
        eprintln!(
            "swarm: smoke FAILED — seed {} did not replay deterministically: {:?}",
            first.seed, rerun.verdict
        );
        return 1;
    }
    println!(
        "smoke: seed {} replayed deterministically ({})",
        first.seed, first.violation
    );

    let schedule = rerun.execution.trace.to_actions();
    let witness = match shrink_schedule(broken.factory(), &config, &schedule) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("swarm: smoke FAILED — shrink refused: {e}");
            return 1;
        }
    };
    let ok = witness.schedule.len() == KNOWN_MINIMAL_WITNESS_LEN
        && is_subsequence(&witness.schedule, &schedule)
        && witness.witness_verified
        && matches!(witness.violation, RcViolation::Agreement { .. });
    if !ok {
        eprintln!(
            "swarm: smoke FAILED — witness len {} (expected {KNOWN_MINIMAL_WITNESS_LEN}), \
             subsequence {}, checker-verified {}, violation {}",
            witness.schedule.len(),
            is_subsequence(&witness.schedule, &schedule),
            witness.witness_verified,
            witness.violation
        );
        return 1;
    }
    println!(
        "smoke: shrunk {} → {} actions ({} candidates): {}",
        witness.original_len,
        witness.schedule.len(),
        witness.candidates_tested,
        render_schedule(&witness.schedule)
    );

    let control = &systems[find_system(systems, "team-rc-s3").expect("catalog has the control")];
    let control_report = swarm_with_progress(control.factory(), &control.config(0, seeds, 0), None);
    if !control_report.violations.is_empty() {
        eprintln!(
            "swarm: smoke FAILED — control system team-rc-s3 violated: {:?}",
            control_report.violations
        );
        return 1;
    }
    println!(
        "smoke: control team-rc-s3 clean over {} seeds ({} distinct final states)",
        control_report.runs, control_report.distinct_final_states
    );
    println!("smoke: OK");
    0
}
