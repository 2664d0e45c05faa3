//! Argument parsing for the `tables` binary.
//!
//! Split out of the binary so the parsing rules are unit-testable — in
//! particular the rejection of unknown experiment ids: `tables` with a
//! typo'd id used to exit 0 having silently printed nothing, which made
//! typos look like passing runs. (`e12` was the canonical example until
//! the symmetry sweep claimed the id; CI now probes with `e99`.)

/// Every valid experiment id, in printing order.
pub const EXPERIMENT_IDS: &[&str] = &[
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18",
];

/// The experiments `BENCH_explore.json` records, one `<id>_rows` array
/// each; `--snapshot` adds them to the selection.
pub const SNAPSHOT_IDS: &[&str] = &["e11", "e12", "e13", "e15", "e16", "e17", "e18"];

/// Parsed `tables` arguments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TablesArgs {
    /// Smaller sample counts (`--fast`).
    pub fast: bool,
    /// Run the [`SNAPSHOT_IDS`] experiments too and write their rows to
    /// `BENCH_explore.json` (`--snapshot`).
    pub snapshot: bool,
    /// Print the experiment ids, one per line, and exit (`--list`) — CI
    /// diffs this against the experiments indexed in EXPERIMENTS.md so
    /// the two can never drift apart.
    pub list: bool,
    /// Run the catalog access-declaration audit (`tables lint`) and exit
    /// non-zero if any system fails it — the CI gate form of E14.
    pub lint: bool,
    /// Lower-cased experiment ids to print; empty means all.
    pub selected: Vec<String>,
}

impl TablesArgs {
    /// Whether experiment `id` should be printed.
    pub fn wants(&self, id: &str) -> bool {
        self.selected.is_empty() || self.selected.iter().any(|s| s == id)
    }
}

/// Parses the `tables` command line (everything after the binary name).
///
/// # Errors
///
/// Returns a usage message naming the offending argument and listing the
/// valid experiment ids — unknown ids and unknown flags are errors, not
/// silent no-ops.
pub fn parse_args<I, S>(args: I) -> Result<TablesArgs, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut parsed = TablesArgs::default();
    for arg in args {
        let arg = arg.as_ref();
        match arg {
            "--fast" => parsed.fast = true,
            "--snapshot" => parsed.snapshot = true,
            "--list" => parsed.list = true,
            "lint" => parsed.lint = true,
            flag if flag.starts_with("--") => {
                return Err(format!(
                    "unknown flag `{flag}`; valid flags: --fast, --snapshot, --list"
                ));
            }
            id => {
                let id = id.to_lowercase();
                if !EXPERIMENT_IDS.contains(&id.as_str()) {
                    return Err(format!(
                        "unknown experiment id `{id}`; valid ids: {}",
                        EXPERIMENT_IDS.join(", ")
                    ));
                }
                parsed.selected.push(id);
            }
        }
    }
    if parsed.list && parsed.snapshot {
        // `--list` exits before any experiment runs, so honouring both
        // flags would silently skip the requested snapshot write — the
        // same silent-no-op shape as a typo'd experiment id.
        return Err(
            "--list prints the experiment ids and exits; it cannot be combined \
             with --snapshot"
                .into(),
        );
    }
    if parsed.fast && parsed.snapshot {
        // The committed snapshot records the full sweeps; fast rows run
        // smaller instances and would overwrite them unmarked.
        return Err(
            "--fast runs smaller instances; it cannot be combined with --snapshot, \
             which records the full sweeps"
                .into(),
        );
    }
    if parsed.lint && (parsed.list || parsed.snapshot || !parsed.selected.is_empty()) {
        // `lint` is the CI gate: it runs the audit, sets the exit code
        // and prints nothing else. Combining it with experiment
        // selection, `--list` or `--snapshot` would silently skip one of
        // the two requests — same silent-no-op shape as a typo'd id.
        return Err(
            "`lint` runs the catalog audit and exits; it cannot be combined \
             with experiment ids, --list or --snapshot"
                .into(),
        );
    }
    if parsed.snapshot {
        parsed
            .selected
            .extend(SNAPSHOT_IDS.iter().map(|id| id.to_string()));
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_selects_everything() {
        let args = parse_args(Vec::<&str>::new()).expect("valid");
        assert!(!args.fast);
        assert!(!args.snapshot);
        for id in EXPERIMENT_IDS {
            assert!(args.wants(id));
        }
    }

    #[test]
    fn subset_and_flags() {
        let args = parse_args(["E4", "e11", "--fast"]).expect("valid");
        assert!(args.fast && !args.snapshot);
        assert!(args.wants("e4") && args.wants("e11"));
        assert!(!args.wants("e1") && !args.wants("e12"));
    }

    /// `--snapshot` adds the snapshot experiments to the selection, so
    /// `tables --snapshot` alone regenerates the file and an explicit
    /// subset can never silently skip part of it.
    #[test]
    fn snapshot_adds_the_snapshot_experiments() {
        let alone = parse_args(["--snapshot"]).expect("valid");
        let extra = parse_args(["e4", "e12", "--snapshot"]).expect("valid");
        for id in EXPERIMENT_IDS {
            assert_eq!(alone.wants(id), SNAPSHOT_IDS.contains(id), "{id}");
            assert_eq!(
                extra.wants(id),
                *id == "e4" || SNAPSHOT_IDS.contains(id),
                "{id}"
            );
        }
        assert!(alone.snapshot && extra.snapshot);
    }

    /// The committed snapshot records the full sweeps; `--fast` rows
    /// would overwrite them with smaller instances.
    #[test]
    fn fast_snapshot_is_rejected() {
        for combo in [
            vec!["--fast", "--snapshot"],
            vec!["e11", "--snapshot", "--fast"],
        ] {
            let err = parse_args(combo.clone()).expect_err("must reject");
            assert!(
                err.contains("--fast") && err.contains("--snapshot"),
                "{combo:?}: {err}"
            );
        }
    }

    /// `--list` is how CI syncs the id list with EXPERIMENTS.md; it must
    /// parse alone and alongside a selection — but never with
    /// `--snapshot`, whose write the list early-exit would silently
    /// skip.
    #[test]
    fn list_flag_parses_but_refuses_snapshot() {
        assert!(parse_args(["--list"]).expect("valid").list);
        assert!(!parse_args(Vec::<&str>::new()).expect("valid").list);
        assert!(parse_args(["e4", "--list"]).expect("valid").list);
        let err =
            parse_args(["--snapshot", "--list"]).expect_err("must reject the silent snapshot skip");
        assert!(err.contains("--snapshot"), "{err}");
    }

    /// Regression: an unknown id must be an error carrying the full list
    /// of valid ids, not a silent empty run. (`e12` was the canonical
    /// unknown id until the symmetry sweep claimed it; `e99` stays
    /// unknown.)
    #[test]
    fn unknown_id_is_rejected_with_the_valid_list() {
        let err = parse_args(["e99"]).expect_err("must reject");
        assert!(err.contains("e99"), "{err}");
        for id in EXPERIMENT_IDS {
            assert!(err.contains(id), "{err} should list {id}");
        }
    }

    /// `e12` goes through the same known-id path as every other
    /// experiment — no special-cased acceptance.
    #[test]
    fn e12_is_a_known_experiment_id() {
        let args = parse_args(["E12"]).expect("e12 is valid");
        assert!(args.wants("e12"));
        assert!(!args.wants("e11"));
    }

    /// `tables lint` is the CI gate form of E14: it parses alone (with
    /// `--fast` allowed) and refuses experiment selection, `--list` and
    /// `--snapshot` — each combination would silently drop a request.
    #[test]
    fn lint_parses_alone_and_refuses_combinations() {
        assert!(parse_args(["lint"]).expect("valid").lint);
        assert!(!parse_args(Vec::<&str>::new()).expect("valid").lint);
        let fast = parse_args(["lint", "--fast"]).expect("valid");
        assert!(fast.lint && fast.fast);
        for combo in [
            vec!["lint", "e4"],
            vec!["lint", "--list"],
            vec!["lint", "--snapshot"],
        ] {
            let err = parse_args(combo.clone()).expect_err("must reject");
            assert!(err.contains("lint"), "{combo:?}: {err}");
        }
    }

    /// `e14` is a known experiment id (the table form of the audit).
    #[test]
    fn e14_is_a_known_experiment_id() {
        let args = parse_args(["E14"]).expect("e14 is valid");
        assert!(args.wants("e14"));
        assert!(!args.wants("e13"));
    }

    #[test]
    fn unknown_flag_is_rejected() {
        let err = parse_args(["--frobnicate"]).expect_err("must reject");
        assert!(err.contains("--frobnicate"), "{err}");
    }
}
