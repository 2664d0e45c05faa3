//! The E14 / `tables lint` catalog audit, as a test suite: every shipped
//! system (in particular every `_sym` builder, whose owned-cell and
//! orbit declarations the audit checks) must lint clean, and a seeded
//! under-declaration must fail it — the linter is only trustworthy as a
//! CI gate if a real defect is caught, not just absent.

use rc_bench::exp::{catalog_lint_rows, e14_catalog_lint, lint_catalog};
use rc_runtime::{
    lint_scalarset, lint_system, Addr, AnalysisBudget, MemOps, Memory, Program, Rebinding, Step,
    SymmetrySpec,
};
use rc_spec::Value;

/// Every catalog system — all the `_sym` builders among them — passes
/// the audit with zero errors (warnings allowed: over-declaration is a
/// lost-reduction note, not a soundness defect).
#[test]
fn every_catalog_system_lints_clean() {
    let rows = catalog_lint_rows();
    assert!(!rows.is_empty());
    let sym_rows = rows.iter().filter(|r| r.system.contains("(sym)")).count();
    assert!(sym_rows >= 6, "the _sym builders are all audited");
    for row in &rows {
        assert!(
            row.errors.is_empty(),
            "{} must lint clean, got: {:?}",
            row.system,
            row.errors
        );
    }
    let (report, clean) = e14_catalog_lint();
    assert!(clean, "{report}");
    assert!(report.contains("overall: clean"), "{report}");
    // The scalarset certificate column is part of the gate: the catalog
    // carries a moving round-register family (the E17 declaration) that
    // must certify, and an inert one (distinct inputs) that warns.
    let moving = rows
        .iter()
        .find(|r| r.system.contains("scalarset"))
        .expect("the catalog audits a moving scalarset family");
    assert!(moving.has_scalarsets);
    assert!(
        moving.scalarset_errors.is_empty(),
        "{}: {:?}",
        moving.system,
        moving.scalarset_errors
    );
    let inert = rows
        .iter()
        .find(|r| r.system.starts_with("SimultaneousRc n=2"))
        .expect("the distinct-input SimultaneousRc entry is audited");
    assert!(inert.has_scalarsets && inert.scalarset_errors.is_empty());
    assert!(
        inert.scalarset_warnings.iter().any(|w| w.contains("inert")),
        "{:?}",
        inert.scalarset_warnings
    );
    assert!(report.contains("certified"), "{report}");
}

/// E14, row by row: every count the audit reports and the A3
/// spot-check's reach are deterministic, so they are pinned exactly.
/// Each row lists n, cells, local states, probes, the crash-free and
/// crash access counts, derived owned cells, the declaration lint's
/// error and warning counts, the ample lint's error and warning counts,
/// and the A3 walk's states and re-executed pairs.
#[test]
fn catalog_lint_rows_are_pinned() {
    #[rustfmt::skip]
    let expected: [(&str, [usize; 13]); 10] = [
        ("team consensus T_4 (sym)",           [4, 3, 40, 162, 12, 12, 0, 0, 0, 0, 1, 128, 0]),
        ("masked team consensus T_4 (sym)",    [4, 7, 48, 178, 16, 16, 4, 0, 0, 0, 0, 128, 165]),
        ("tournament consensus T_4",           [4, 9, 96, 518, 24, 24, 0, 0, 0, 0, 0, 128, 48]),
        ("team RC S_3 (sym)",                  [3, 3, 26, 111, 9, 9, 0, 0, 0, 0, 1, 128, 0]),
        ("masked team RC S_3 (sym)",           [3, 6, 32, 123, 12, 12, 3, 0, 0, 0, 0, 128, 134]),
        ("broken team RC S_3 (sym)",           [3, 3, 26, 111, 9, 9, 0, 0, 0, 0, 1, 128, 0]),
        ("masked broken team RC S_3 (sym)",    [3, 6, 32, 123, 12, 12, 3, 0, 0, 0, 0, 128, 134]),
        ("tournament RC S_3",                  [3, 6, 68, 302, 15, 15, 0, 0, 0, 0, 0, 128, 12]),
        ("SimultaneousRc n=2 (sym)",           [2, 8, 146, 1215, 16, 16, 0, 0, 0, 0, 0, 128, 71]),
        ("SimultaneousRc n=3 scalarset (sym)", [3, 9, 291, 3987, 27, 27, 0, 0, 0, 0, 0, 128, 134]),
    ];
    let rows = catalog_lint_rows();
    let actual: Vec<(&str, [usize; 13])> = rows
        .iter()
        .map(|r| {
            (
                r.system.as_str(),
                [
                    r.n,
                    r.cells,
                    r.local_states,
                    r.probes,
                    r.accesses_crash_free,
                    r.accesses_crash,
                    r.derived_owned,
                    r.errors.len(),
                    r.warnings.len(),
                    r.ample_errors.len(),
                    r.ample_warnings.len(),
                    r.spot_states,
                    r.spot_pairs,
                ],
            )
        })
        .collect();
    assert_eq!(actual, expected);
}

/// Forwards every `Program` method to the wrapped catalog program but
/// omits one known-accessed cell from `referenced_cells` — the seeded
/// under-declaration the linter must catch.
#[derive(Debug)]
struct OmitCell {
    inner: Box<dyn Program>,
    omit: Addr,
}

impl Program for OmitCell {
    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
        self.inner.step(mem)
    }
    fn on_crash(&mut self) {
        self.inner.on_crash();
    }
    fn state_key(&self) -> Value {
        self.inner.state_key()
    }
    fn boxed_clone(&self) -> Box<dyn Program> {
        Box::new(OmitCell {
            inner: self.inner.boxed_clone(),
            omit: self.omit,
        })
    }
    fn rebind(&mut self, map: &Rebinding) {
        self.inner.rebind(map);
    }
    fn referenced_cells(&self) -> Option<Vec<Addr>> {
        let cells = self.inner.referenced_cells()?;
        Some(cells.into_iter().filter(|&c| c != self.omit).collect())
    }
}

/// Mutation test: clone a catalog system, drop one analyzed-as-accessed
/// cell from one process's declaration, and assert the lint fails with
/// an under-declaration error naming the process and the rule. A linter
/// that cannot catch this seeded defect would pass broken declarations
/// into the owned-cell soundness validation.
#[test]
fn seeded_under_declaration_fails_the_lint() {
    let mut mutated = 0usize;
    for (system, build) in lint_catalog() {
        let (mem, mut programs, spec) = build();
        // Pick a cell the analysis observes p0 accessing *and* p0
        // declares — dropping it is a genuine under-declaration.
        let clean = lint_system(&mem, &programs, spec.as_ref(), AnalysisBudget::default())
            .unwrap_or_else(|e| panic!("{system}: analysis failed: {e}"));
        let Some(declared) = programs[0].referenced_cells() else {
            continue;
        };
        let Some(&omit) = clean.footprint.per_process[0]
            .cells
            .keys()
            .find(|c| declared.contains(c))
        else {
            continue;
        };
        programs[0] = Box::new(OmitCell {
            inner: programs[0].boxed_clone(),
            omit,
        });
        let report = lint_system(&mem, &programs, spec.as_ref(), AnalysisBudget::default())
            .unwrap_or_else(|e| panic!("{system}: analysis failed: {e}"));
        assert!(
            !report.is_clean(),
            "{system}: dropping {omit} from p0's declaration must fail the lint"
        );
        assert!(
            report.errors.iter().any(|e| {
                e.contains("p0") && e.contains("under-declares") && e.contains(&omit.to_string())
            }),
            "{system}: the error must name the process, rule and cell: {:?}",
            report.errors
        );
        mutated += 1;
    }
    assert!(
        mutated >= 6,
        "the mutation ran across the catalog: {mutated}"
    );
}

/// Scans a declared family in positional order and decides the fold's
/// *trace* — a family transposition changes which value is folded
/// first, so the family is not a scalarset. The seeded order-sensitive
/// mutant the certifier must reject.
#[derive(Clone, Debug)]
struct OrderedTrace {
    family: Vec<Addr>,
    own: Addr,
    k: usize,
    trace: i64,
    wrote: bool,
}

impl Program for OrderedTrace {
    fn step(&mut self, mem: &mut dyn MemOps) -> Step {
        if !self.wrote {
            mem.write_register(self.own, Value::Int(1));
            self.wrote = true;
            return Step::Running;
        }
        if self.k == self.family.len() {
            return Step::Decided(Value::Int(self.trace));
        }
        if let Value::Int(x) = mem.read_register(self.family[self.k]) {
            self.trace = self.trace * 3 + x;
        }
        self.k += 1;
        Step::Running
    }
    fn on_crash(&mut self) {
        self.k = 0;
        self.trace = 0;
        self.wrote = false;
    }
    fn state_key(&self) -> Value {
        Value::pair(
            Value::Int(self.k as i64),
            Value::pair(Value::Int(self.trace), Value::Int(i64::from(self.wrote))),
        )
    }
    fn boxed_clone(&self) -> Box<dyn Program> {
        Box::new(self.clone())
    }
    fn rebind(&mut self, map: &Rebinding) {
        self.own = map.lookup(self.own);
    }
    fn referenced_cells(&self) -> Option<Vec<Addr>> {
        let mut cells = self.family.clone();
        cells.push(self.own);
        Some(cells)
    }
}

/// Mutation test for the scalarset half of the gate: the seeded
/// order-sensitive scan must be rejected by the certifier with errors
/// naming the scalarset, its cells and a process — the exact errors the
/// E14 scalarset column turns red on. A certifier that waved this
/// through would let the engines permute a family whose fold order is
/// observable, silently corrupting leaf counts.
#[test]
fn seeded_order_sensitive_scan_fails_the_scalarset_certifier() {
    let mut mem = Memory::new();
    let family: Vec<Addr> = (0..3).map(|_| mem.alloc_register(Value::Int(0))).collect();
    let programs: Vec<Box<dyn Program>> = (0..3)
        .map(|pid| {
            Box::new(OrderedTrace {
                family: family.clone(),
                own: family[pid],
                k: 0,
                trace: 0,
                wrote: false,
            }) as Box<dyn Program>
        })
        .collect();
    let spec = SymmetrySpec::full(3).with_scalarset(family.clone());
    let report = lint_scalarset(&mem, &programs, &spec, AnalysisBudget::default());
    assert!(
        !report.is_certified(),
        "the order-sensitive scan must be rejected"
    );
    let all = report.errors.join("\n");
    assert!(all.contains("scalarset"), "must name the scalarset: {all}");
    assert!(
        all.contains(&family[0].to_string()) || all.contains("cell"),
        "must name the family cells: {all}"
    );
    assert!(all.contains('p'), "must name a process: {all}");
}
