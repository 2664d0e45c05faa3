//! # rc-bench — the experiment harness
//!
//! One experiment per figure/claim of the paper (the experiment index
//! lives in `DESIGN.md` §5 and results are recorded in `EXPERIMENTS.md`):
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | E1 | Fig. 1 implication diagram | [`exp::e1_figure1`] |
//! | E2 | Fig. 2 recoverable team consensus | [`exp::e2_team_rc`] |
//! | E3 | Fig. 4 / Theorem 1 simultaneous transform | [`exp::e3_simultaneous`] |
//! | E4 | Fig. 5 / Prop. 19 `T_n` | [`exp::e4_tn`] |
//! | E5 | Fig. 6 / Prop. 21 `S_n` | [`exp::e5_sn`] |
//! | E6 | Fig. 7 RUniversal | [`exp::e6_universal`] |
//! | E7 | Fig. 8 / Appendix H stack | [`exp::e7_stack`] |
//! | E8 | Corollary 17 hierarchy survey | [`exp::e8_catalog`] |
//! | E9 | Theorem 22 multi-type bound | [`exp::e9_sets`] |
//! | E10 | headline: when is RC harder? | [`exp::e10_headline`] |
//! | E11 | model-checker engine scaling (states/sec, old vs new) | [`exp::e11_explore_scaling`] |
//! | E12 | process-symmetry reduction sweep | [`exp::e12_symmetry_reduction`] |
//! | E13 | full-state symmetry (`Program::rebind`) sweep | [`exp::e13_full_state_symmetry`] |
//! | E14 | catalog access-declaration + POR ample-set audit (`tables lint`) | [`exp::e14_catalog_lint`] |
//! | E15 | partial-order reduction sweep (POR / rebind / both) | [`exp::e15_por_reduction`] |
//! | E16 | bit-packed state-storage scaling sweep | [`exp::e16_storage_scaling`] |
//! | E17 | scalarset-symmetry sweep for Fig. 4 | [`exp::e17_scalarset_symmetry`] |
//! | E18 | swarm verification: seeded schedules past the exhaustive frontier | [`exp::e18_swarm`] |
//!
//! Run `cargo run -p rc-bench --release --bin tables` for all tables, or
//! `--bin tables -- e4 e5` for a subset (unknown ids exit non-zero with
//! the valid list). `--bin tables -- lint` runs the E14 audit as a CI
//! gate (exit non-zero if any catalog system fails). The repo's
//! benchmark is the `perfbench/` package (its own workspace, run by the
//! command in `BENCHMARK.json`); the E11–E18 engine trajectory is
//! snapshotted in `BENCH_explore.json` via `--bin tables -- --snapshot`.
//!
//! The `swarm` binary is the randomized counterpart of `tables`: it
//! sweeps millions of deterministically seeded schedules over the
//! [`swarm_catalog`] systems, replays any reported seed and
//! delta-debugs failing schedules to minimal witnesses (see
//! `swarm list` / `swarm run` / `swarm replay` / `swarm shrink`, and
//! `swarm smoke` for the bounded CI tier).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod exp;
pub mod swarm_catalog;
pub mod swarm_cli;
pub mod table;
