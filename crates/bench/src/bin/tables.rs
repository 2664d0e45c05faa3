//! Prints every experiment table (E1–E18); pass experiment ids to select
//! a subset, `--fast` for smaller sample counts, `--snapshot` to run the
//! E11–E18 sweeps as well and refresh `BENCH_explore.json` from them
//! (full sweeps only: it refuses `--fast`), `--list` to print the
//! experiment ids one per line (CI diffs that against EXPERIMENTS.md),
//! and `lint` to run the E14 catalog audit — access declarations plus
//! the POR ample-set soundness lint — as a gate (exit non-zero if any
//! system fails):
//!
//! ```sh
//! cargo run -p rc-bench --release --bin tables           # everything
//! cargo run -p rc-bench --release --bin tables -- e4 e5  # a subset
//! cargo run -p rc-bench --release --bin tables -- --snapshot
//! cargo run -p rc-bench --release --bin tables -- --list
//! cargo run -p rc-bench --release --bin tables -- lint
//! ```
//!
//! Unknown experiment ids and flags exit non-zero with the list of valid
//! ids.

use rc_bench::cli;
use rc_bench::exp::{self, JsonRow};

/// Runs the E14 audit; prints the report and exits 1 if any system
/// fails it.
fn lint_gate() -> String {
    let (report, clean) = exp::e14_catalog_lint();
    if !clean {
        println!("{report}");
        eprintln!("tables: catalog lint failed (see errors above)");
        std::process::exit(1);
    }
    report
}

/// A sweep's report with its rows as the snapshot writes them.
fn with_rows<R>(
    (report, rows): (String, Vec<R>),
    json: fn(&R) -> JsonRow,
) -> (String, Option<Vec<JsonRow>>) {
    (report, Some(rows.iter().map(json).collect()))
}

fn main() {
    let args = match cli::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("tables: {message}");
            std::process::exit(2);
        }
    };
    let fast = args.fast;

    if args.list {
        for id in cli::EXPERIMENT_IDS {
            println!("{id}");
        }
        return;
    }

    if args.lint {
        println!("{}", lint_gate());
        return;
    }

    let (samples, seeds) = if fast { (50, 50) } else { (400, 300) };

    println!("════════════════════════════════════════════════════════════════");
    println!(" When Is Recoverable Consensus Harder Than Consensus? (PODC 2022)");
    println!(" experiment tables — see EXPERIMENTS.md for the paper-vs-measured log");
    println!("════════════════════════════════════════════════════════════════\n");

    let mut snapshot = Vec::new();
    for &id in cli::EXPERIMENT_IDS.iter().filter(|id| args.wants(id)) {
        let (report, rows) = match id {
            "e1" => (exp::e1_figure1(samples), None),
            "e2" => (exp::e2_team_rc(seeds), None),
            "e3" => (exp::e3_simultaneous(seeds), None),
            "e4" => (exp::e4_tn(if fast { 7 } else { 10 }), None),
            "e5" => (exp::e5_sn(if fast { 6 } else { 9 }), None),
            "e6" => (exp::e6_universal(seeds), None),
            "e7" => (exp::e7_stack(), None),
            "e8" => (exp::e8_catalog(), None),
            "e9" => (exp::e9_sets(), None),
            "e10" => (exp::e10_headline(seeds.min(100)), None),
            "e11" => with_rows(exp::e11_explore_scaling(fast), exp::Measured::json),
            "e12" => with_rows(exp::e12_symmetry_reduction(fast), exp::Measured::json),
            "e13" => with_rows(exp::e13_full_state_symmetry(fast), exp::Measured::json),
            "e14" => (lint_gate(), None),
            "e15" => with_rows(exp::e15_por_reduction(fast), exp::Measured::json),
            "e16" => with_rows(exp::e16_storage_scaling(fast), exp::Measured::json),
            "e17" => with_rows(exp::e17_scalarset_symmetry(fast), exp::Measured::json),
            "e18" => with_rows(exp::e18_swarm(fast), exp::E18Row::json),
            _ => unreachable!("parse_args accepts only EXPERIMENT_IDS"),
        };
        println!("{report}");
        if let Some(rows) = rows {
            snapshot.push((id, rows));
        }
    }
    if args.snapshot {
        // The CLI added every snapshot experiment to the selection.
        let root = exp::workspace_root();
        let path = root.join("BENCH_explore.json");
        let json = exp::snapshot_json(&exp::git_rev(&root), &snapshot);
        match std::fs::write(&path, json) {
            Ok(()) => println!("snapshot written to {}", path.display()),
            Err(e) => {
                eprintln!("tables: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
