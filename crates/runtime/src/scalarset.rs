//! Scalarset equivariance certification: proving a cross-read cell
//! family safe to permute.
//!
//! The owned-cell symmetry reduction ([`canon`](crate::canon)) moves a
//! cell with its owning process because *no other process ever touches
//! it* — relocation is trivially invisible. A **scalarset family**
//! ([`SymmetrySpec::with_scalarset`]) is the harder case: one cell per
//! process slot (e.g. the `R[1..n]` round registers of the paper's
//! Fig. 4 algorithm) that every process reads. Permuting such a family
//! with the process slots is only sound when each program treats the
//! family as an **unordered set** — its scan must be an
//! order-insensitive fold, so that any transposition of family members
//! leaves the observable transition structure equivariant.
//!
//! That property is *certified statically here*, never assumed. Over
//! the memoized local-state graphs of the footprint fixpoint walk
//! ([`footprint`](crate::footprint)), the certifier checks, for every
//! transposition `τ = (i j)` of an acting orbit:
//!
//! 1. **Bystander equivariance** — for every process `r ∉ {i, j}`, a
//!    bijection `β` on `r`'s local-state graph such that every edge
//!    commutes with the cell rename `τ` (sites renamed, observed
//!    values and outputs equal, writes equal up to `τ`, crash edges
//!    commuting). `β` must be the *identity* on states that do not
//!    report [`Program::scalarset_pinned`] — the engine permutes
//!    unpinned states, so a state that genuinely moves under `τ` but
//!    claims to be unpinned is a soundness bug, reported as such.
//! 2. **Member exchange** — a bijection between the graphs of `i` and
//!    `j` commuting with the full rename (family cells *and* owned
//!    cells swapped), key-preserving on unpinned states: exactly the
//!    shape the engine's canonicalization ([`crate::explore`]) relies
//!    on when an orbit permutation relocates the two programs.
//! 3. **Rebind fidelity** (dynamic) — for every local state of member
//!    `i`, a rebound clone ([`Program::rebind`] with the pair's cell
//!    swap) is re-executed and must step *identically* to member `j`'s
//!    representative at the same state key: the engine's actual
//!    relocation operation realizes the bijection of check 2, and the
//!    per-slot POR tables stay valid after relocation.
//!
//! Transposition **spot checks** re-execute sampled paired states both
//! ways from fresh clones and compare against the memoized graphs,
//! guarding the certificate against non-deterministic `step`
//! implementations. All transpositions of an orbit are checked (not
//! just adjacent ones); transpositions generate the full symmetric
//! group, so the certificate covers every orbit permutation.
//!
//! States that *are* pinned (e.g. a mid-scan "already checked
//! positions {1,3}" mask) are exempt from the identity requirement —
//! the engine skips canonicalization while any program is pinned, so
//! such states cost reduction but never soundness. Decided states must
//! be unpinned: leaf multinomial weights
//! ([`explore`](crate::explore)) count orbit permutations of decided
//! configurations.
//!
//! [`lint_scalarset`] exposes the certificate as a lint report (the
//! `tables lint` CI gate runs it across the spec catalog);
//! [`certify_scalarsets_cached`](certify_scalarsets_cached) is the
//! engine entry point — exploration of a spec with moving scalarsets
//! refuses to start unless the certificate is clean.
//!
//! [`SymmetrySpec::with_scalarset`]: crate::SymmetrySpec::with_scalarset
//! [`Program::scalarset_pinned`]: crate::Program::scalarset_pinned
//! [`Program::rebind`]: crate::Program::rebind

use crate::canon::SymmetrySpec;
use crate::footprint::{
    probe_state_edges, quiet_probe, walk_system, AccessKind, AnalysisBudget, ChoiceEdge, PidStates,
    ProbedEdge, Walk,
};
use crate::memory::{Addr, Cell, Memory};
use crate::program::{Pid, Program, Rebinding};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

/// How many paired states per transposition the spot-check re-executes
/// from fresh clones (both sides of each pair).
const SPOT_SAMPLE: usize = 12;

/// The outcome of a scalarset certification run.
#[derive(Clone, Debug)]
pub struct ScalarsetReport {
    /// Declared scalarset families.
    pub families: usize,
    /// Orbit transpositions checked (all pairs of every acting orbit).
    pub transpositions: usize,
    /// Local-state graph matches performed (bystander + member pairs).
    pub graph_matches: usize,
    /// Member-exchange states re-executed through a rebound clone.
    pub exchange_states: usize,
    /// Sampled states re-executed from fresh clones (both ways).
    pub spot_reexecutions: usize,
    /// Soundness violations; non-empty means the family must **not**
    /// be permuted (exploration refuses to start).
    pub errors: Vec<String>,
    /// Non-fatal observations (inert families, skipped checks).
    pub warnings: Vec<String>,
}

impl ScalarsetReport {
    /// Whether every check passed (an empty-family report is trivially
    /// certified — there is nothing to permute).
    pub fn is_certified(&self) -> bool {
        self.errors.is_empty()
    }
}

/// `a <-> b` up to the cell rename of one family transposition:
/// `map[c]` is the image cell of cell `c` (an involution).
fn family_rename(cells: usize, spec: &SymmetrySpec, i: Pid, j: Pid) -> Vec<usize> {
    let mut map: Vec<usize> = (0..cells).collect();
    for family in spec.scalarset_families() {
        map.swap(family[i].0, family[j].0);
    }
    map
}

/// The full member-exchange rename: family cells *and* positionally
/// paired owned cells swapped.
fn full_rename(cells: usize, spec: &SymmetrySpec, i: Pid, j: Pid) -> Vec<usize> {
    let mut map = family_rename(cells, spec, i, j);
    for (a, b) in spec.owned(i).iter().zip(spec.owned(j).iter()) {
        map.swap(a.0, b.0);
    }
    map
}

fn state_desc(g: &PidStates, s: usize) -> String {
    let (prog, decided) = &g.states[s];
    format!(
        "local state {}{}",
        prog.state_key(),
        if *decided { " (decided)" } else { "" }
    )
}

fn site_desc(site: Option<(usize, AccessKind)>) -> String {
    match site {
        None => "no shared access".to_string(),
        Some((cell, AccessKind::Read)) => format!("a read of cell {cell}"),
        Some((cell, AccessKind::Write)) => format!("a write of cell {cell}"),
        Some((cell, AccessKind::Rmw)) => format!("an RMW of cell {cell}"),
    }
}

/// Proposes the pair `(a, b)` for the bijection under construction.
/// `same_graph` selects the bystander discipline (β must be the
/// identity on unpinned states) over the member-exchange discipline
/// (β must preserve the state key on unpinned states).
#[allow(clippy::too_many_arguments)]
fn propose_pair(
    a: usize,
    b: usize,
    ga: &PidStates,
    gb: &PidStates,
    same_graph: bool,
    fwd: &mut [Option<usize>],
    bwd: &mut [Option<usize>],
    queue: &mut VecDeque<(usize, usize)>,
    ctx: &str,
) -> Result<(), String> {
    match (fwd[a], bwd[b]) {
        (Some(prev), _) if prev == b => return Ok(()),
        (Some(prev), _) => {
            return Err(format!(
                "{ctx}: {} would have to map to both {} and {} — the \
                 transposition does not act as a bijection on the \
                 local-state graph",
                state_desc(ga, a),
                state_desc(gb, prev),
                state_desc(gb, b),
            ));
        }
        (None, Some(prev)) => {
            return Err(format!(
                "{ctx}: {} would be the image of both {} and {} — the \
                 transposition does not act as a bijection on the \
                 local-state graph",
                state_desc(gb, b),
                state_desc(ga, prev),
                state_desc(ga, a),
            ));
        }
        (None, None) => {}
    }
    if ga.states[a].1 != gb.states[b].1 {
        return Err(format!(
            "{ctx}: {} pairs with {}, but only one of them is decided",
            state_desc(ga, a),
            state_desc(gb, b),
        ));
    }
    if ga.pinned[a] != gb.pinned[b] {
        return Err(format!(
            "{ctx}: {} reports scalarset_pinned = {} but its image {} \
             reports {} — the pinned flag must be equivariant",
            state_desc(ga, a),
            ga.pinned[a],
            state_desc(gb, b),
            gb.pinned[b],
        ));
    }
    if !ga.pinned[a] {
        if same_graph && a != b {
            return Err(format!(
                "{ctx}: {} moves to {} under the transposition but does \
                 not report scalarset_pinned — the engine would permute \
                 the family under it unsoundly; implement \
                 Program::scalarset_pinned for position-referencing \
                 mid-scan states",
                state_desc(ga, a),
                state_desc(gb, b),
            ));
        }
        if !same_graph {
            let ka = (ga.states[a].0.state_key(), ga.states[a].1);
            let kb = (gb.states[b].0.state_key(), gb.states[b].1);
            if ka != kb {
                return Err(format!(
                    "{ctx}: unpinned {} pairs with {} across the member \
                     exchange — relocation must preserve state keys; \
                     implement Program::scalarset_pinned for \
                     position-dependent states",
                    state_desc(ga, a),
                    state_desc(gb, b),
                ));
            }
        }
    }
    fwd[a] = Some(b);
    bwd[b] = Some(a);
    queue.push_back((a, b));
    Ok(())
}

/// Constructs the edge-commuting bijection `β : ga → gb` under the
/// cell rename, or explains why none exists. Returns the paired state
/// indices (every reachable state of `ga` appears exactly once).
fn match_graphs(
    ga: &PidStates,
    gb: &PidStates,
    rename: &[usize],
    same_graph: bool,
    ctx: &str,
) -> Result<Vec<(usize, usize)>, String> {
    if ga.states.len() != gb.states.len() {
        return Err(format!(
            "{ctx}: the graphs have {} and {} local states — no \
             bijection exists",
            ga.states.len(),
            gb.states.len(),
        ));
    }
    let mut fwd: Vec<Option<usize>> = vec![None; ga.states.len()];
    let mut bwd: Vec<Option<usize>> = vec![None; gb.states.len()];
    let mut queue: VecDeque<(usize, usize)> = VecDeque::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    // Initial states pair with each other (walk index 0 is the root).
    propose_pair(
        0, 0, ga, gb, same_graph, &mut fwd, &mut bwd, &mut queue, ctx,
    )?;
    while let Some((a, b)) = queue.pop_front() {
        pairs.push((a, b));
        match (ga.crash_succ[a], gb.crash_succ[b]) {
            (None, None) => {}
            (Some(ca), Some(cb)) => {
                propose_pair(
                    ca, cb, ga, gb, same_graph, &mut fwd, &mut bwd, &mut queue, ctx,
                )?;
            }
            _ => {
                return Err(format!(
                    "{ctx}: crash edges of {} and {} do not correspond",
                    state_desc(ga, a),
                    state_desc(gb, b),
                ));
            }
        }
        let ca = &ga.choice_sites[a];
        let cb = &gb.choice_sites[b];
        if ca.len() != cb.len() {
            return Err(format!(
                "{ctx}: {} offers {} choices but its image {} offers {}",
                state_desc(ga, a),
                ca.len(),
                state_desc(gb, b),
                cb.len(),
            ));
        }
        let mut used = vec![false; cb.len()];
        for &(choice_a, site_a) in ca {
            let want = site_a.map(|(cell, kind)| (rename[cell], kind));
            let mut found: Option<(usize, usize)> = None;
            for (k, &(choice_b, site_b)) in cb.iter().enumerate() {
                if used[k] || site_b != want {
                    continue;
                }
                if found.is_some() {
                    return Err(format!(
                        "{ctx}: two choices of {} perform {} — the \
                         choice structure is ambiguous and cannot be \
                         certified",
                        state_desc(gb, b),
                        site_desc(want),
                    ));
                }
                found = Some((k, choice_b));
            }
            let Some((k, choice_b)) = found else {
                return Err(format!(
                    "{ctx}: at {}, the choice performing {} has no \
                     counterpart performing {} in {} — the scan is \
                     order-sensitive (it distinguishes family positions)",
                    state_desc(ga, a),
                    site_desc(site_a),
                    site_desc(want),
                    state_desc(gb, b),
                ));
            };
            used[k] = true;
            let ea: Vec<&ChoiceEdge> = ga.edges[a]
                .iter()
                .filter(|e| e.choice == choice_a)
                .collect();
            let eb: Vec<&ChoiceEdge> = gb.edges[b]
                .iter()
                .filter(|e| e.choice == choice_b)
                .collect();
            if ea.len() != eb.len() {
                return Err(format!(
                    "{ctx}: at {}, the choice performing {} branches {} \
                     ways but its image branches {} ways",
                    state_desc(ga, a),
                    site_desc(site_a),
                    ea.len(),
                    eb.len(),
                ));
            }
            for edge_a in &ea {
                let twins: Vec<&&ChoiceEdge> = eb
                    .iter()
                    .filter(|e| e.observed == edge_a.observed)
                    .collect();
                if twins.len() != 1 {
                    return Err(format!(
                        "{ctx}: at {}, the branch observing {:?} has {} \
                         counterparts in the image (expected exactly one) \
                         — the observed value sets differ under the \
                         transposition",
                        state_desc(ga, a),
                        edge_a.observed,
                        twins.len(),
                    ));
                }
                let edge_b = *twins[0];
                let want_wrote = edge_a.wrote.clone().map(|(c, v)| (rename[c], v));
                if edge_b.wrote != want_wrote {
                    return Err(format!(
                        "{ctx}: at {}, the branch observing {:?} writes \
                         {:?}, but its image writes {:?} (expected {:?} up \
                         to the transposition) — the fold is \
                         order-sensitive",
                        state_desc(ga, a),
                        edge_a.observed,
                        edge_a.wrote,
                        edge_b.wrote,
                        want_wrote,
                    ));
                }
                if edge_b.output != edge_a.output {
                    return Err(format!(
                        "{ctx}: at {}, the branch observing {:?} outputs \
                         {:?} but its image outputs {:?} — the decision \
                         depends on the family order",
                        state_desc(ga, a),
                        edge_a.observed,
                        edge_a.output,
                        edge_b.output,
                    ));
                }
                match (edge_a.succ, edge_b.succ) {
                    (None, None) => {}
                    (Some(sa), Some(sb)) => {
                        propose_pair(
                            sa, sb, ga, gb, same_graph, &mut fwd, &mut bwd, &mut queue, ctx,
                        )?;
                    }
                    _ => {
                        return Err(format!(
                            "{ctx}: at {}, the branch observing {:?} is \
                             feasible on one side of the transposition \
                             but not on the other",
                            state_desc(ga, a),
                            edge_a.observed,
                        ));
                    }
                }
            }
        }
    }
    Ok(pairs)
}

/// Re-expresses a state's memoized [`ChoiceEdge`]s in the fresh-probe
/// shape (successors by key), so a fresh re-execution can be compared
/// against the graph the certificate was computed from.
fn cached_as_probed(g: &PidStates, s: usize) -> Vec<ProbedEdge> {
    g.edges[s]
        .iter()
        .map(|e| ProbedEdge {
            choice: e.choice,
            site: e.site,
            observed: e.observed.clone(),
            wrote: e.wrote.clone(),
            succ: e.succ.map(|t| (g.states[t].0.state_key(), g.states[t].1)),
            output: e.output.clone(),
        })
        .collect()
}

/// Re-executes state `s` of `g` from a fresh clone and checks the
/// probes reproduce the memoized edges exactly.
fn spot_reexecute(mem: &Memory, walk: &Walk, pid: Pid, s: usize, ctx: &str) -> Result<(), String> {
    let g = &walk.pids[pid];
    if g.states[s].1 {
        return Ok(()); // decided states take no steps
    }
    let fresh = probe_state_edges(mem, &walk.domains, pid, g.states[s].0.as_ref())
        .map_err(|e| format!("{ctx}: re-executing {} failed: {e}", state_desc(g, s)))?;
    let cached = cached_as_probed(g, s);
    if fresh != cached {
        return Err(format!(
            "{ctx}: re-executing {} of p{pid} from a fresh clone does \
             not reproduce the memoized transitions — Program::step_choice \
             is not a deterministic function of the volatile state",
            state_desc(g, s),
        ));
    }
    Ok(())
}

/// Certifies every declared scalarset family of `spec` against the
/// system's local-state graphs (see the module docs for the checks).
///
/// Never panics on analyzability problems — they surface as report
/// errors, so the `tables lint` gate can print them.
pub fn lint_scalarset(
    mem: &Memory,
    programs: &[Box<dyn Program>],
    spec: &SymmetrySpec,
    budget: AnalysisBudget,
) -> ScalarsetReport {
    let mut report = ScalarsetReport {
        families: spec.scalarset_families().len(),
        transpositions: 0,
        graph_matches: 0,
        exchange_states: 0,
        spot_reexecutions: 0,
        errors: Vec::new(),
        warnings: Vec::new(),
    };
    if report.families == 0 {
        report
            .warnings
            .push("no scalarset families declared; nothing to certify".into());
        return report;
    }
    if programs.len() != spec.n() {
        report.errors.push(format!(
            "the spec covers {} processes but the system has {}",
            spec.n(),
            programs.len(),
        ));
        return report;
    }
    if !spec.has_moving_scalarsets() {
        report.warnings.push(
            "scalarset families declared but every orbit is a singleton; \
             the families are inert"
                .into(),
        );
        return report;
    }
    let walk = match walk_system(mem, programs, true, budget) {
        Ok(walk) => walk,
        Err(e) => {
            report.errors.push(format!(
                "the system is not analyzable, so the scalarset scan \
                 cannot be certified: {e}"
            ));
            return report;
        }
    };
    let n = programs.len();
    // Decided states must canonicalize: leaf multinomial weights count
    // orbit permutations of decided configurations.
    for (pid, g) in walk.pids.iter().enumerate() {
        for s in 0..g.states.len() {
            if g.states[s].1 && g.pinned[s] {
                report.errors.push(format!(
                    "p{pid}: decided {} reports scalarset_pinned — \
                     decided states must canonicalize (exact leaf counts \
                     depend on it)",
                    state_desc(g, s),
                ));
            }
        }
    }
    for orbit in spec.acting_orbits() {
        // Family cells of one orbit must be indistinguishable at the
        // root and over their reachable value domains.
        for family in spec.scalarset_families() {
            let root = |p: Pid| match mem.peek_cell(family[p]) {
                Cell::Register(v) => v,
                Cell::Object { state, .. } => state,
            };
            let i0 = orbit[0];
            for &p in &orbit[1..] {
                if root(p) != root(i0) {
                    report.errors.push(format!(
                        "scalarset family {:?}: cells {} and {} have \
                         different initial contents across orbit {:?}",
                        family, family[i0], family[p], orbit,
                    ));
                }
                if walk.domains[family[p].0] != walk.domains[family[i0].0] {
                    report.errors.push(format!(
                        "scalarset family {:?}: cells {} and {} reach \
                         different value domains across orbit {:?} — the \
                         scan treats family positions asymmetrically",
                        family, family[i0], family[p], orbit,
                    ));
                }
            }
        }
        for (oi, &i) in orbit.iter().enumerate() {
            for &j in &orbit[oi + 1..] {
                report.transpositions += 1;
                let fam_map = family_rename(mem.len(), spec, i, j);
                let full_map = full_rename(mem.len(), spec, i, j);
                let fam_cells: Vec<Addr> = spec
                    .scalarset_families()
                    .iter()
                    .flat_map(|f| [f[i], f[j]])
                    .collect();
                // 1. Bystander equivariance.
                for r in 0..n {
                    if r == i || r == j {
                        continue;
                    }
                    let ctx = format!(
                        "p{r} under the transposition of scalarset cells \
                         {fam_cells:?} (swap p{i}<->p{j})"
                    );
                    report.graph_matches += 1;
                    match match_graphs(&walk.pids[r], &walk.pids[r], &fam_map, true, &ctx) {
                        Ok(pairs) => {
                            for &(a, b) in pairs.iter().filter(|&&(a, b)| a != b).take(SPOT_SAMPLE)
                            {
                                for s in [a, b] {
                                    report.spot_reexecutions += 1;
                                    if let Err(e) = spot_reexecute(mem, &walk, r, s, &ctx) {
                                        report.errors.push(e);
                                    }
                                }
                            }
                        }
                        Err(e) => report.errors.push(e),
                    }
                }
                // 2. Member exchange (static bijection).
                let ctx = format!(
                    "member exchange p{i}<->p{j} of scalarset cells \
                     {fam_cells:?}"
                );
                report.graph_matches += 1;
                match match_graphs(&walk.pids[i], &walk.pids[j], &full_map, false, &ctx) {
                    Ok(pairs) => {
                        for &(a, b) in pairs.iter().take(SPOT_SAMPLE) {
                            report.spot_reexecutions += 2;
                            if let Err(e) = spot_reexecute(mem, &walk, i, a, &ctx) {
                                report.errors.push(e);
                            }
                            if let Err(e) = spot_reexecute(mem, &walk, j, b, &ctx) {
                                report.errors.push(e);
                            }
                        }
                    }
                    Err(e) => report.errors.push(e),
                }
                // 3. Rebind fidelity (dynamic re-execution).
                let mut rebinding = Rebinding::identity(mem.len());
                for (from, &to) in full_map.iter().enumerate() {
                    if from != to {
                        rebinding.map(Addr(from), Addr(to));
                    }
                }
                match exchange_reexecution(mem, &walk, i, j, &rebinding, &ctx) {
                    Ok(states) => report.exchange_states += states,
                    Err(e) => report.errors.push(e),
                }
            }
        }
    }
    report
}

/// Check 3: every local state of member `i`, rebound with the pair's
/// cell swap, must step identically to member `j`'s representative at
/// the same state key. Returns the number of states re-executed.
fn exchange_reexecution(
    mem: &Memory,
    walk: &Walk,
    i: Pid,
    j: Pid,
    rebinding: &Rebinding,
    ctx: &str,
) -> Result<usize, String> {
    let (ga, gb) = (&walk.pids[i], &walk.pids[j]);
    let mut states = 0usize;
    for s in 0..ga.states.len() {
        let key = (ga.states[s].0.state_key(), ga.states[s].1);
        let Some(&t) = gb.index.get(&key) else {
            return Err(format!(
                "{ctx}: p{i}'s {} has no same-key counterpart in p{j}'s \
                 graph — after relocation the per-slot analysis tables \
                 would miss",
                state_desc(ga, s),
            ));
        };
        let mut rebound = ga.states[s].0.boxed_clone();
        let outcome = quiet_probe(|| catch_unwind(AssertUnwindSafe(|| rebound.rebind(rebinding))));
        if outcome.is_err() {
            return Err(format!(
                "{ctx}: Program::rebind panicked for p{i} at {} — \
                 scalarset symmetry requires rebind support",
                state_desc(ga, s),
            ));
        }
        if (rebound.state_key(), ga.states[s].1) != key {
            return Err(format!(
                "{ctx}: rebind changed p{i}'s state key at {} — \
                 addresses are identity, not volatile state",
                state_desc(ga, s),
            ));
        }
        let crash_key = |p: &dyn Program| {
            let mut c = p.boxed_clone();
            c.on_crash();
            c.state_key()
        };
        if crash_key(rebound.as_ref()) != crash_key(gb.states[t].0.as_ref()) {
            return Err(format!(
                "{ctx}: the crash restart of rebound p{i} at {} differs \
                 from p{j}'s at the same key",
                state_desc(ga, s),
            ));
        }
        states += 1;
        if ga.states[s].1 {
            continue; // decided states take no steps
        }
        let ea = probe_state_edges(mem, &walk.domains, i, rebound.as_ref()).map_err(|e| {
            format!(
                "{ctx}: probing rebound p{i} at {} failed: {e}",
                state_desc(ga, s)
            )
        })?;
        let eb = probe_state_edges(mem, &walk.domains, j, gb.states[t].0.as_ref())
            .map_err(|e| format!("{ctx}: probing p{j} at {} failed: {e}", state_desc(gb, t)))?;
        if ea != eb {
            return Err(format!(
                "{ctx}: rebound p{i} at {} steps differently from p{j} \
                 at the same key — the scan is not an order-insensitive \
                 fold over the family ({} vs {} probed edges; first \
                 divergence: {:?} vs {:?})",
                state_desc(ga, s),
                ea.len(),
                eb.len(),
                ea.iter().find(|e| !eb.contains(e)),
                eb.iter().find(|e| !ea.contains(e)),
            ));
        }
    }
    Ok(states)
}

/// Process-wide certificate cache, keyed by the caller's analysis id
/// plus the spec's family/orbit shape (one system is explored many
/// times across benchmark rows and worker threads).
static CERT_CACHE: OnceLock<Mutex<HashMap<String, Arc<ScalarsetReport>>>> = OnceLock::new();

/// The engine entry point: certifies (or recalls the cached
/// certificate for) the system behind `analysis_id`. Exploration of a
/// spec with moving scalarsets calls this at search start and refuses
/// to run on a report with errors.
pub(crate) fn certify_scalarsets_cached(
    analysis_id: Option<&str>,
    mem: &Memory,
    programs: &[Box<dyn Program>],
    spec: &SymmetrySpec,
    budget: AnalysisBudget,
) -> Arc<ScalarsetReport> {
    let Some(id) = analysis_id else {
        return Arc::new(lint_scalarset(mem, programs, spec, budget));
    };
    let key = format!("{id}|scalarsets={:?}", spec.scalarset_families());
    let cache = CERT_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    if let Some(report) = cache.lock().unwrap().get(&key) {
        return report.clone();
    }
    let report = Arc::new(lint_scalarset(mem, programs, spec, budget));
    cache.lock().unwrap().entry(key).or_insert(report).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemOps;
    use crate::program::Step;
    use rc_spec::Value;

    /// An order-insensitive set scan over a family of `n` registers:
    /// volatile state is the mask of already-read positions; any
    /// unread position may be read next; the fold sums the values.
    /// Decides the sum once every position is read.
    #[derive(Clone, Debug)]
    struct SetSum {
        family: Vec<Addr>,
        own: Addr,
        mask: u64,
        sum: i64,
        wrote: bool,
    }

    impl SetSum {
        fn full(&self) -> u64 {
            (1u64 << self.family.len()) - 1
        }
    }

    impl Program for SetSum {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            let first = self.choices()[0];
            self.step_choice(mem, first)
        }
        fn choices(&self) -> Vec<usize> {
            if !self.wrote {
                return vec![0];
            }
            let open: Vec<usize> = (0..self.family.len())
                .filter(|k| self.mask & (1 << k) == 0)
                .collect();
            if open.is_empty() {
                vec![0]
            } else {
                open
            }
        }
        fn step_choice(&mut self, mem: &mut dyn MemOps, choice: usize) -> Step {
            if !self.wrote {
                mem.write_register(self.own, Value::Int(1));
                self.wrote = true;
                return Step::Running;
            }
            if self.mask == self.full() {
                return Step::Decided(Value::Int(self.sum));
            }
            let v = mem.read_register(self.family[choice]);
            if let Value::Int(x) = v {
                self.sum += x;
            }
            self.mask |= 1 << choice;
            if self.mask == self.full() {
                Step::Decided(Value::Int(self.sum))
            } else {
                Step::Running
            }
        }
        fn scalarset_pinned(&self) -> bool {
            self.wrote && self.mask != 0 && self.mask != self.full()
        }
        fn on_crash(&mut self) {
            self.mask = 0;
            self.sum = 0;
            self.wrote = false;
        }
        fn state_key(&self) -> Value {
            Value::pair(
                Value::Int(self.mask as i64),
                Value::pair(Value::Int(self.sum), Value::Int(i64::from(self.wrote))),
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

    /// The order-*sensitive* mutant: scans the family positionally
    /// (deterministic index order), so a transposition changes which
    /// value is folded first. `lint_scalarset` must reject it.
    #[derive(Clone, Debug)]
    struct PositionalSum {
        family: Vec<Addr>,
        own: Addr,
        k: usize,
        acc: Vec<i64>,
        wrote: bool,
    }

    impl Program for PositionalSum {
        fn step(&mut self, mem: &mut dyn MemOps) -> Step {
            if !self.wrote {
                mem.write_register(self.own, Value::Int(1));
                self.wrote = true;
                return Step::Running;
            }
            if self.k == self.family.len() {
                // Order-sensitive output: the fold's trace, not a set.
                return Step::Decided(Value::Int(
                    self.acc.iter().enumerate().map(|(i, v)| v << i).sum(),
                ));
            }
            let v = mem.read_register(self.family[self.k]);
            if let Value::Int(x) = v {
                self.acc.push(x);
            }
            self.k += 1;
            Step::Running
        }
        fn on_crash(&mut self) {
            self.k = 0;
            self.acc.clear();
            self.wrote = false;
        }
        fn state_key(&self) -> Value {
            Value::pair(
                Value::Int(self.k as i64),
                Value::pair(
                    Value::List(self.acc.iter().map(|&v| Value::Int(v)).collect()),
                    Value::Int(i64::from(self.wrote)),
                ),
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

    fn set_sum_system(n: usize) -> (Memory, Vec<Box<dyn Program>>, SymmetrySpec) {
        let mut mem = Memory::new();
        let family: Vec<Addr> = (0..n).map(|_| mem.alloc_register(Value::Int(0))).collect();
        let programs: Vec<Box<dyn Program>> = (0..n)
            .map(|pid| {
                Box::new(SetSum {
                    family: family.clone(),
                    own: family[pid],
                    mask: 0,
                    sum: 0,
                    wrote: false,
                }) as Box<dyn Program>
            })
            .collect();
        let spec = SymmetrySpec::full(n).with_scalarset(family);
        (mem, programs, spec)
    }

    #[test]
    fn order_insensitive_set_scan_is_certified() {
        let (mem, programs, spec) = set_sum_system(3);
        let report = lint_scalarset(&mem, &programs, &spec, AnalysisBudget::default());
        assert!(
            report.is_certified(),
            "set scan must certify; errors: {:#?}",
            report.errors
        );
        assert_eq!(report.families, 1);
        assert_eq!(report.transpositions, 3, "all pairs of the 3-orbit");
        assert!(report.exchange_states > 0);
        assert!(report.spot_reexecutions > 0);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn positional_scan_is_rejected_naming_the_family() {
        let mut mem = Memory::new();
        let n = 3;
        let family: Vec<Addr> = (0..n).map(|_| mem.alloc_register(Value::Int(0))).collect();
        let programs: Vec<Box<dyn Program>> = (0..n)
            .map(|pid| {
                Box::new(PositionalSum {
                    family: family.clone(),
                    own: family[pid],
                    k: 0,
                    acc: Vec::new(),
                    wrote: false,
                }) as Box<dyn Program>
            })
            .collect();
        let spec = SymmetrySpec::full(n).with_scalarset(family.clone());
        let report = lint_scalarset(&mem, &programs, &spec, AnalysisBudget::default());
        assert!(!report.is_certified(), "positional scan must be rejected");
        let all = report.errors.join("\n");
        assert!(
            all.contains("scalarset"),
            "errors must mention the scalarset: {all}"
        );
        assert!(
            all.contains(&format!("{}", family[0])) || all.contains("cell"),
            "errors must name the family cells: {all}"
        );
        assert!(all.contains('p'), "errors must name a process: {all}");
    }

    #[test]
    fn undeclared_families_certify_trivially_with_a_warning() {
        let (mem, programs, _) = set_sum_system(2);
        let spec = SymmetrySpec::full(2);
        let report = lint_scalarset(&mem, &programs, &spec, AnalysisBudget::default());
        assert!(report.is_certified());
        assert_eq!(report.families, 0);
        assert_eq!(report.transpositions, 0);
        assert!(!report.warnings.is_empty());
    }

    #[test]
    fn singleton_orbits_make_families_inert() {
        let (mem, programs, _) = set_sum_system(2);
        let family = vec![Addr(0), Addr(1)];
        let spec = SymmetrySpec::trivial(2).with_scalarset(family);
        let report = lint_scalarset(&mem, &programs, &spec, AnalysisBudget::default());
        assert!(report.is_certified());
        assert!(
            report.warnings.iter().any(|w| w.contains("inert")),
            "warnings: {:?}",
            report.warnings
        );
    }

    #[test]
    fn asymmetric_initial_contents_are_rejected() {
        let mut mem = Memory::new();
        let a = mem.alloc_register(Value::Int(0));
        let b = mem.alloc_register(Value::Int(7));
        let family = vec![a, b];
        let programs: Vec<Box<dyn Program>> = (0..2)
            .map(|pid| {
                Box::new(SetSum {
                    family: family.clone(),
                    own: family[pid],
                    mask: 0,
                    sum: 0,
                    wrote: false,
                }) as Box<dyn Program>
            })
            .collect();
        let spec = SymmetrySpec::full(2).with_scalarset(family);
        let report = lint_scalarset(&mem, &programs, &spec, AnalysisBudget::default());
        assert!(!report.is_certified());
        assert!(
            report.errors.iter().any(|e| e.contains("initial contents")),
            "errors: {:?}",
            report.errors
        );
    }

    #[test]
    fn certificate_cache_reuses_reports_by_id() {
        let (mem, programs, spec) = set_sum_system(2);
        let a = certify_scalarsets_cached(
            Some("test/scalarset-cache"),
            &mem,
            &programs,
            &spec,
            AnalysisBudget::default(),
        );
        let b = certify_scalarsets_cached(
            Some("test/scalarset-cache"),
            &mem,
            &programs,
            &spec,
            AnalysisBudget::default(),
        );
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert!(a.is_certified());
    }

    #[test]
    fn analyzer_is_deterministic() {
        let (mem, programs, spec) = set_sum_system(3);
        let a = lint_scalarset(&mem, &programs, &spec, AnalysisBudget::default());
        let b = lint_scalarset(&mem, &programs, &spec, AnalysisBudget::default());
        assert_eq!(a.errors, b.errors);
        assert_eq!(a.warnings, b.warnings);
        assert_eq!(a.transpositions, b.transpositions);
        assert_eq!(a.exchange_states, b.exchange_states);
        assert_eq!(a.spot_reexecutions, b.spot_reexecutions);
    }
}
