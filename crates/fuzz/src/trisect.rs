//! The trisection oracle: software model × compiler mapping × hardware
//! model (TriCheck-style), end to end.
//!
//! One [`TrisectCase`] is a *source* program. It reaches the hardware
//! only through a [`MappingTable`] — the correct one, or one with an
//! injected [`MappingBug`] for the harness self-checks — and the
//! trisection invariant is one-directional: **every outcome the lowered
//! program can exhibit must be language-allowed**. The legs:
//!
//! 1. **Axiomatic trisection** — the hardware model's allowed set for
//!    the lowered program ([`allowed_outcomes`] via [`BatchChecker`])
//!    must be a subset of the language's allowed set for the source
//!    program ([`allowed_src_outcomes`] via [`SrcBatchChecker`]). An
//!    escape is the classic compiler-mapping bug signature: the
//!    hardware admits an execution the source program forbids.
//! 2. **Operational machine** — the exhaustive interleaving exploration
//!    of the lowered program (EInject faults included) must observe only
//!    language-allowed outcomes. Outcomes already flagged by leg 1 are
//!    not re-reported: a machine-only escape means the *machine* is
//!    broken (it exceeds its own axiomatic envelope), not the mapping.
//! 3. **Timing simulator** — the lowered program runs once per clock
//!    mode; the stats registries must agree byte for byte and the
//!    post-run invariants must hold, exactly as in the differential
//!    campaign ([`oracle`](crate::oracle)).
//!
//! Findings shrink ([`shrink_src`]) with the same greedy-with-restart
//! delta debugging as hardware findings, plus a source-only pass:
//! weakening a memory order (`seq_cst → release/acquire`,
//! `release/acquire → relaxed`) — so a reproducer keeps only the
//! annotations the bug actually needs.

use crate::src_gen::{generate_src, SrcGenConfig, TrisectCase};
use ise_consistency::program::Outcome;
use ise_consistency::source::{MemOrder, SrcOp, SrcProgram, SrcStmt};
use ise_consistency::{
    buggy_table, correct_table, lower, BatchChecker, MappingBug, MappingTable, SrcBatchChecker,
};
use ise_litmus::machine::{explore, MachineConfig};
use ise_litmus::src_parse::{render_src_litmus, ParsedSrcLitmus};
use ise_telemetry::Registry;
use ise_types::instr::Reg;
use ise_types::json::Json;
use ise_types::model::{ConsistencyModel, DrainPolicy};

#[allow(unused_imports)] // doc links
use ise_consistency::{allowed_outcomes, allowed_src_outcomes};

/// Which trisection leg failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrisectFindingKind {
    /// The hardware model allows an outcome of the lowered program that
    /// the language forbids for the source program — a mapping bug.
    LanguageAxiomEscape,
    /// The operational machine observed a language-forbidden outcome
    /// the hardware axioms do not even allow — a machine bug.
    MachineForbiddenOutcome,
    /// The two simulator clocks produced different stats registries on
    /// the lowered program.
    ClockDivergence,
    /// A simulator post-run invariant failed on the lowered program.
    SimInvariant,
}

impl TrisectFindingKind {
    /// Every kind, in severity order (stable for telemetry keys).
    pub const ALL: [TrisectFindingKind; 4] = [
        TrisectFindingKind::LanguageAxiomEscape,
        TrisectFindingKind::MachineForbiddenOutcome,
        TrisectFindingKind::ClockDivergence,
        TrisectFindingKind::SimInvariant,
    ];

    /// Stable kebab-case name (telemetry key, regression file names).
    pub fn name(self) -> &'static str {
        match self {
            TrisectFindingKind::LanguageAxiomEscape => "language-axiom-escape",
            TrisectFindingKind::MachineForbiddenOutcome => "machine-forbidden-outcome",
            TrisectFindingKind::ClockDivergence => "clock-divergence",
            TrisectFindingKind::SimInvariant => "sim-invariant",
        }
    }
}

/// One trisection disagreement on one case.
#[derive(Debug, Clone)]
pub struct SrcFinding {
    /// Which leg failed.
    pub kind: TrisectFindingKind,
    /// Human-readable explanation.
    pub detail: String,
    /// Language-forbidden outcomes the lowered program exhibits (escape
    /// kinds only) — these become `forbid:` lines in reproducers.
    pub outcomes: Vec<Outcome>,
}

/// How the trisection oracles run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrisectOracleConfig {
    /// Mapping-table mutation for harness self-checks; `None` lowers
    /// through [`correct_table`].
    pub bug: Option<MappingBug>,
    /// Whether to run the timing-simulator leg (orders of magnitude
    /// slower than the axiomatic + machine legs).
    pub run_sim: bool,
}

impl TrisectOracleConfig {
    /// The table this configuration lowers through for `model`.
    pub fn table(&self, model: ConsistencyModel) -> MappingTable {
        match self.bug {
            Some(bug) => buggy_table(model, bug),
            None => correct_table(model),
        }
    }
}

/// Runs every applicable trisection leg on `case` and returns the
/// disagreements (empty for a healthy case).
pub fn check_src_case(
    case: &TrisectCase,
    oracle: &TrisectOracleConfig,
    hw: &mut BatchChecker,
    lang: &mut SrcBatchChecker,
) -> Vec<SrcFinding> {
    let mut findings = Vec::new();
    let table = oracle.table(case.model);
    let lowered = lower(&case.program, &table);
    let allowed_lang = lang.allowed(&case.program);

    // Leg 1: hardware-allowed ⊆ language-allowed.
    let allowed_hw = hw.allowed(&lowered, case.model);
    let escapes: Vec<Outcome> = allowed_hw
        .iter()
        .filter(|o| !allowed_lang.contains(*o))
        .cloned()
        .collect();
    if !escapes.is_empty() {
        findings.push(SrcFinding {
            kind: TrisectFindingKind::LanguageAxiomEscape,
            detail: format!(
                "{} hardware-allowed outcome(s) under {} are language-forbidden",
                escapes.len(),
                case.model,
            ),
            outcomes: escapes.clone(),
        });
    }

    // Leg 2: machine-observed ⊆ language-allowed, beyond what leg 1
    // already explains.
    let mut cfg = MachineConfig::baseline(case.model)
        .with_policy(DrainPolicy::SameStream)
        .with_memoize(true);
    cfg.faulting = case.faulting_set();
    let machine = explore(&lowered, &cfg);
    let machine_only: Vec<Outcome> = machine
        .outcomes
        .iter()
        .filter(|o| !allowed_lang.contains(*o) && !escapes.contains(o))
        .cloned()
        .collect();
    if !machine_only.is_empty() {
        findings.push(SrcFinding {
            kind: TrisectFindingKind::MachineForbiddenOutcome,
            detail: format!(
                "{} machine-observed outcome(s) under {} are language-forbidden yet outside \
                 the hardware-allowed set",
                machine_only.len(),
                case.model,
            ),
            outcomes: machine_only,
        });
    }

    // Leg 3: the timing simulator on the lowered program.
    if oracle.run_sim {
        let overlay = case.overlay.then_some(ise_sim::FaultOverlay {
            seed: case.seed,
            clears_after: 1,
        });
        let slow =
            ise_sim::run_litmus_case(&lowered, &case.faulting, case.model, false, overlay, None);
        let fast =
            ise_sim::run_litmus_case(&lowered, &case.faulting, case.model, true, overlay, None);
        if slow.stats_json != fast.stats_json {
            findings.push(SrcFinding {
                kind: TrisectFindingKind::ClockDivergence,
                detail: "naive and cycle-skipping clocks disagree on the stats registry"
                    .to_string(),
                outcomes: Vec::new(),
            });
        }
        for run in [&slow, &fast] {
            if !run.violations.is_empty() || run.any_killed {
                findings.push(SrcFinding {
                    kind: TrisectFindingKind::SimInvariant,
                    detail: if run.any_killed {
                        "a process was killed on a recoverable workload".to_string()
                    } else {
                        run.violations.join("; ")
                    },
                    outcomes: Vec::new(),
                });
                break;
            }
        }
    }

    findings
}

// ---------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------

/// Upper bound on oracle re-runs during one shrink.
const MAX_ATTEMPTS: usize = 10_000;

/// A shrunk trisection reproducer.
#[derive(Debug, Clone)]
pub struct SrcShrinkResult {
    /// The minimal case that still reproduces the finding kind.
    pub case: TrisectCase,
    /// Accepted simplification steps.
    pub steps: usize,
    /// Oracle re-runs spent.
    pub attempts: usize,
}

/// Drops orphaned dependencies, faulting entries for untouched
/// locations, and the overlay flag of a fault-free case.
fn normalize(mut case: TrisectCase) -> TrisectCase {
    for thread in &mut case.program.threads {
        let mut produced: Vec<Reg> = Vec::new();
        for stmt in thread.iter_mut() {
            if let Some(r) = stmt.dep {
                if !produced.contains(&r) {
                    stmt.dep = None;
                }
            }
            if let Some(dst) = stmt.produced() {
                produced.push(dst);
            }
        }
    }
    let locs = case.program.locations();
    case.faulting.retain(|l| locs.contains(l));
    if case.faulting.is_empty() {
        case.overlay = false;
    }
    case
}

/// One order-weakening step, or `None` if the statement is already at
/// its weakest legal order.
fn weakened(s: &SrcStmt) -> Option<SrcStmt> {
    let next = |op| SrcStmt { op, dep: s.dep };
    match s.op {
        SrcOp::Store { loc, value, order } => match order {
            MemOrder::SeqCst => Some(next(SrcOp::Store {
                loc,
                value,
                order: MemOrder::Release,
            })),
            MemOrder::Release => Some(next(SrcOp::Store {
                loc,
                value,
                order: MemOrder::Relaxed,
            })),
            _ => None,
        },
        SrcOp::Load { loc, dst, order } => match order {
            MemOrder::SeqCst => Some(next(SrcOp::Load {
                loc,
                dst,
                order: MemOrder::Acquire,
            })),
            MemOrder::Acquire => Some(next(SrcOp::Load {
                loc,
                dst,
                order: MemOrder::Relaxed,
            })),
            _ => None,
        },
        // An acquire/release fence is already the weakest fence; its
        // removal is the remove-statement pass's job.
        SrcOp::Fence { order } => match order {
            MemOrder::SeqCst => Some(next(SrcOp::Fence {
                order: MemOrder::Release,
            })),
            _ => None,
        },
    }
}

/// Every one-step simplification of `case`, most aggressive first.
fn candidates(case: &TrisectCase) -> Vec<TrisectCase> {
    let mut out = Vec::new();
    let threads = &case.program.threads;
    if threads.len() > 1 {
        for t in 0..threads.len() {
            let mut next = threads.clone();
            next.remove(t);
            out.push(TrisectCase {
                program: SrcProgram { threads: next },
                ..case.clone()
            });
        }
    }
    for t in 0..threads.len() {
        if threads[t].len() <= 1 && threads.len() == 1 {
            continue; // a program needs at least one statement
        }
        for i in 0..threads[t].len() {
            let mut next = threads.clone();
            next[t].remove(i);
            if next[t].is_empty() {
                next.remove(t);
            }
            out.push(TrisectCase {
                program: SrcProgram { threads: next },
                ..case.clone()
            });
        }
    }
    for t in 0..threads.len() {
        for i in 0..threads[t].len() {
            if threads[t][i].dep.is_some() {
                let mut next = threads.clone();
                next[t][i].dep = None;
                out.push(TrisectCase {
                    program: SrcProgram { threads: next },
                    ..case.clone()
                });
            }
        }
    }
    for t in 0..threads.len() {
        for i in 0..threads[t].len() {
            if let Some(weaker) = weakened(&threads[t][i]) {
                let mut next = threads.clone();
                next[t][i] = weaker;
                out.push(TrisectCase {
                    program: SrcProgram { threads: next },
                    ..case.clone()
                });
            }
        }
    }
    for t in 0..threads.len() {
        for i in 0..threads[t].len() {
            if let SrcOp::Store { loc, value, order } = threads[t][i].op {
                if value != 1 {
                    let mut next = threads.clone();
                    next[t][i].op = SrcOp::Store {
                        loc,
                        value: 1,
                        order,
                    };
                    out.push(TrisectCase {
                        program: SrcProgram { threads: next },
                        ..case.clone()
                    });
                }
            }
        }
    }
    for f in 0..case.faulting.len() {
        let mut next = case.faulting.clone();
        next.remove(f);
        out.push(TrisectCase {
            faulting: next,
            ..case.clone()
        });
    }
    if case.overlay {
        out.push(TrisectCase {
            overlay: false,
            ..case.clone()
        });
    }
    out.into_iter().map(normalize).collect()
}

/// Shrinks `case` while `kind` still reproduces under `oracle`.
///
/// Greedy with restarts, like [`shrink`](crate::shrink::shrink): the
/// first accepted candidate restarts the scan from the most aggressive
/// pass (thread removal).
pub fn shrink_src(
    case: &TrisectCase,
    kind: TrisectFindingKind,
    oracle: &TrisectOracleConfig,
    hw: &mut BatchChecker,
    lang: &mut SrcBatchChecker,
) -> SrcShrinkResult {
    let reproduces = |c: &TrisectCase, hw: &mut BatchChecker, lang: &mut SrcBatchChecker| {
        check_src_case(c, oracle, hw, lang)
            .iter()
            .any(|f| f.kind == kind)
    };
    let mut current = normalize(case.clone());
    debug_assert!(
        reproduces(&current, hw, lang),
        "finding must reproduce before shrinking"
    );
    let mut steps = 0;
    let mut attempts = 0;
    'outer: loop {
        for cand in candidates(&current) {
            if attempts >= MAX_ATTEMPTS {
                break 'outer;
            }
            attempts += 1;
            if reproduces(&cand, hw, lang) {
                current = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    SrcShrinkResult {
        case: current,
        steps,
        attempts,
    }
}

// ---------------------------------------------------------------------
// Campaign.
// ---------------------------------------------------------------------

/// Trisection campaign shape.
#[derive(Debug, Clone, Copy)]
pub struct TrisectConfig {
    /// Master seed; case `i` uses
    /// [`case_seed`](crate::campaign::case_seed)`(seed, i)`.
    pub seed: u64,
    /// Cases to run.
    pub cases: usize,
    /// Source-program shape limits.
    pub gen: SrcGenConfig,
    /// Oracle selection (sim leg on/off, injected mapping bug).
    pub oracle: TrisectOracleConfig,
    /// Whether findings are shrunk before reporting.
    pub shrink: bool,
}

impl Default for TrisectConfig {
    fn default() -> Self {
        TrisectConfig {
            seed: 1,
            cases: 200,
            gen: SrcGenConfig::default(),
            oracle: TrisectOracleConfig::default(),
            shrink: true,
        }
    }
}

/// One reported (and possibly shrunk) trisection finding.
#[derive(Debug, Clone)]
pub struct TrisectFinding {
    /// Campaign index of the case that found it.
    pub index: usize,
    /// The case's seed (regenerate with [`generate_src`]).
    pub seed: u64,
    /// Which leg failed.
    pub kind: TrisectFindingKind,
    /// Explanation, re-derived from the shrunk case.
    pub detail: String,
    /// The minimal reproducer.
    pub case: TrisectCase,
    /// Language-forbidden-but-exhibited outcomes of the shrunk case
    /// (escape kinds only) — these become `forbid:` lines.
    pub outcomes: Vec<Outcome>,
    /// Accepted shrink steps (0 when shrinking is off).
    pub steps: usize,
}

struct Cell {
    model: ConsistencyModel,
    faulting: bool,
    overlay: bool,
    lang_misses: u64,
    hw_misses: u64,
    findings: Vec<TrisectFinding>,
}

/// Trisection campaign results.
#[derive(Debug, Clone)]
pub struct TrisectReport {
    /// Master seed the campaign ran with.
    pub seed: u64,
    /// Cases run.
    pub cases: usize,
    /// Every finding, in case order, shrunk when the campaign asked.
    pub findings: Vec<TrisectFinding>,
    /// Cases per hardware model, in [`ConsistencyModel::ALL`] order.
    pub model_cases: [u64; 3],
    /// Cases with at least one faulting location.
    pub faulting_cases: u64,
    /// Cases using the transient-overlay fault source.
    pub overlay_cases: u64,
    /// Language-level allowed-set enumerations performed.
    pub lang_enumerations: u64,
    /// Hardware-level allowed-set enumerations performed.
    pub hw_enumerations: u64,
}

impl TrisectReport {
    /// Whether every case passed every trisection leg.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The telemetry-registry view, byte-identical across worker counts
    /// by construction (counter keys are pre-seeded; findings reduce in
    /// index order).
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.add("seed", self.seed);
        reg.add("cases", self.cases as u64);
        for (i, model) in ConsistencyModel::ALL.into_iter().enumerate() {
            reg.add(&format!("model.{model}.cases"), self.model_cases[i]);
        }
        reg.add("faulting_cases", self.faulting_cases);
        reg.add("overlay_cases", self.overlay_cases);
        reg.add("lang_enumerations", self.lang_enumerations);
        reg.add("hw_enumerations", self.hw_enumerations);
        reg.add("findings", self.findings.len() as u64);
        for kind in TrisectFindingKind::ALL {
            reg.add(
                &format!("finding.{}", kind.name()),
                self.findings.iter().filter(|f| f.kind == kind).count() as u64,
            );
        }
        reg.put("clean", Json::from(self.clean()));
        reg.put(
            "reproducers",
            Json::arr(self.findings.iter().map(|f| {
                Json::obj([
                    ("index", Json::from(f.index)),
                    ("seed", Json::from(f.seed)),
                    ("kind", Json::str(f.kind.name())),
                    ("detail", Json::str(f.detail.clone())),
                    ("steps", Json::from(f.steps)),
                    ("srclitmus", Json::str(render_src_litmus(&to_src_parsed(f)))),
                ])
            })),
        );
        reg
    }
}

/// Renders a trisection finding as a source-dialect test: the source
/// program, the hardware model it was lowered to, and the
/// language-forbidden outcomes it exhibited as `forbid:` lines.
pub fn to_src_parsed(f: &TrisectFinding) -> ParsedSrcLitmus {
    ParsedSrcLitmus {
        name: format!("trisect/{}-seed{}", f.kind.name(), f.seed),
        model: f.case.model,
        program: f.case.program.clone(),
        forbidden: f.outcomes.clone(),
    }
}

/// Writes each finding's reproducer into `dir` (created if missing) as
/// `<kind>-seed<seed>.srclitmus`, returning the paths written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_src_regressions(
    report: &TrisectReport,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for f in &report.findings {
        let path = dir.join(format!("{}-seed{}.srclitmus", f.kind.name(), f.seed));
        std::fs::write(&path, render_src_litmus(&to_src_parsed(f)))?;
        paths.push(path);
    }
    Ok(paths)
}

fn run_cell(cfg: &TrisectConfig, index: usize) -> Cell {
    let seed = crate::campaign::case_seed(cfg.seed, index);
    let case = generate_src(seed, &cfg.gen);
    let mut hw = BatchChecker::new();
    let mut lang = SrcBatchChecker::new();
    let raw = check_src_case(&case, &cfg.oracle, &mut hw, &mut lang);
    // One report per kind: a single root cause often fires several
    // outcomes at once and shrinking converges per kind.
    let mut kinds: Vec<TrisectFindingKind> = raw.iter().map(|f| f.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut findings = Vec::new();
    for kind in kinds {
        let (shrunk, steps) = if cfg.shrink {
            let SrcShrinkResult { case: c, steps, .. } =
                shrink_src(&case, kind, &cfg.oracle, &mut hw, &mut lang);
            (c, steps)
        } else {
            (case.clone(), 0)
        };
        // Re-derive detail and outcomes from the reproducer itself.
        let fresh: Vec<SrcFinding> = check_src_case(&shrunk, &cfg.oracle, &mut hw, &mut lang)
            .into_iter()
            .filter(|f| f.kind == kind)
            .collect();
        let (detail, outcomes) = fresh
            .into_iter()
            .next()
            .map(|f| (f.detail, f.outcomes))
            .unwrap_or_default();
        findings.push(TrisectFinding {
            index,
            seed,
            kind,
            detail,
            case: shrunk,
            outcomes,
            steps,
        });
    }
    Cell {
        model: case.model,
        faulting: !case.faulting.is_empty(),
        overlay: case.overlay,
        lang_misses: lang.misses(),
        hw_misses: hw.misses(),
        findings,
    }
}

/// Runs the trisection campaign on `workers` threads. The report is
/// independent of `workers`: cases are split by stride and reduced in
/// index order.
pub fn run_trisection(cfg: &TrisectConfig, workers: usize) -> TrisectReport {
    let indices: Vec<usize> = (0..cfg.cases).collect();
    let cells = ise_par::par_map(&indices, workers, |_, &i| run_cell(cfg, i));
    let mut report = TrisectReport {
        seed: cfg.seed,
        cases: cfg.cases,
        findings: Vec::new(),
        model_cases: [0; 3],
        faulting_cases: 0,
        overlay_cases: 0,
        lang_enumerations: 0,
        hw_enumerations: 0,
    };
    for cell in cells {
        let m = ConsistencyModel::ALL
            .into_iter()
            .position(|m| m == cell.model)
            .expect("model is one of ALL");
        report.model_cases[m] += 1;
        report.faulting_cases += u64::from(cell.faulting);
        report.overlay_cases += u64::from(cell.overlay);
        report.lang_enumerations += cell.lang_misses;
        report.hw_enumerations += cell.hw_misses;
        report.findings.extend(cell.findings);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_consistency::program::Loc;
    use ise_litmus::parse_src_litmus;

    const A: Loc = Loc(0);
    const B: Loc = Loc(1);
    const R0: Reg = Reg(0);
    const R1: Reg = Reg(1);

    fn mp_case(model: ConsistencyModel) -> TrisectCase {
        TrisectCase {
            seed: 0,
            program: SrcProgram::new(vec![
                vec![
                    SrcStmt::store(B, 1, MemOrder::Relaxed),
                    SrcStmt::store(A, 1, MemOrder::Release),
                ],
                vec![
                    SrcStmt::load(A, R0, MemOrder::Acquire),
                    SrcStmt::load(B, R1, MemOrder::Relaxed),
                ],
            ]),
            model,
            faulting: Vec::new(),
            overlay: false,
        }
    }

    #[test]
    fn correct_tables_pass_the_mp_shape_on_every_model() {
        let oracle = TrisectOracleConfig::default();
        let mut hw = BatchChecker::new();
        let mut lang = SrcBatchChecker::new();
        for model in ConsistencyModel::ALL {
            let findings = check_src_case(&mp_case(model), &oracle, &mut hw, &mut lang);
            assert!(findings.is_empty(), "{model}: {findings:?}");
        }
    }

    #[test]
    fn the_release_store_bug_is_an_escape_under_wc() {
        let oracle = TrisectOracleConfig {
            bug: Some(MappingBug::WcReleaseStoreNoFence),
            run_sim: false,
        };
        let mut hw = BatchChecker::new();
        let mut lang = SrcBatchChecker::new();
        let findings = check_src_case(&mp_case(ConsistencyModel::Wc), &oracle, &mut hw, &mut lang);
        assert!(
            findings
                .iter()
                .any(|f| f.kind == TrisectFindingKind::LanguageAxiomEscape),
            "{findings:?}"
        );
        // The same bug is invisible under PC (release stores lower plain
        // there anyway).
        let findings = check_src_case(&mp_case(ConsistencyModel::Pc), &oracle, &mut hw, &mut lang);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn the_acquire_load_bug_is_an_escape_under_wc() {
        let oracle = TrisectOracleConfig {
            bug: Some(MappingBug::AcquireLoadAsRelaxed),
            run_sim: false,
        };
        let mut hw = BatchChecker::new();
        let mut lang = SrcBatchChecker::new();
        let findings = check_src_case(&mp_case(ConsistencyModel::Wc), &oracle, &mut hw, &mut lang);
        assert!(
            findings
                .iter()
                .any(|f| f.kind == TrisectFindingKind::LanguageAxiomEscape),
            "{findings:?}"
        );
    }

    #[test]
    fn escapes_shrink_to_a_tiny_reproducer() {
        let oracle = TrisectOracleConfig {
            bug: Some(MappingBug::WcReleaseStoreNoFence),
            run_sim: false,
        };
        let mut hw = BatchChecker::new();
        let mut lang = SrcBatchChecker::new();
        let case = mp_case(ConsistencyModel::Wc);
        let shrunk = shrink_src(
            &case,
            TrisectFindingKind::LanguageAxiomEscape,
            &oracle,
            &mut hw,
            &mut lang,
        );
        assert!(shrunk.case.program.threads.len() <= 2);
        assert!(shrunk.case.program.len() <= 4, "{:?}", shrunk.case.program);
        // Still reproduces.
        assert!(check_src_case(&shrunk.case, &oracle, &mut hw, &mut lang)
            .iter()
            .any(|f| f.kind == TrisectFindingKind::LanguageAxiomEscape));
    }

    #[test]
    fn findings_render_and_reparse_through_the_source_dialect() {
        let oracle = TrisectOracleConfig {
            bug: Some(MappingBug::AcquireLoadAsRelaxed),
            run_sim: false,
        };
        let mut hw = BatchChecker::new();
        let mut lang = SrcBatchChecker::new();
        let case = mp_case(ConsistencyModel::Wc);
        let raw = check_src_case(&case, &oracle, &mut hw, &mut lang);
        let f = TrisectFinding {
            index: 0,
            seed: case.seed,
            kind: raw[0].kind,
            detail: raw[0].detail.clone(),
            case: case.clone(),
            outcomes: raw[0].outcomes.clone(),
            steps: 0,
        };
        let text = render_src_litmus(&to_src_parsed(&f));
        let back = parse_src_litmus(&text).expect("reproducer reparses");
        assert_eq!(back.program, case.program);
        assert_eq!(back.model, case.model);
        assert_eq!(back.forbidden, f.outcomes);
        assert!(!back.forbidden.is_empty());
    }

    #[test]
    fn a_healthy_campaign_is_clean() {
        let cfg = TrisectConfig {
            cases: 60,
            ..TrisectConfig::default()
        };
        let report = run_trisection(&cfg, 2);
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.cases, 60);
        assert_eq!(report.model_cases.iter().sum::<u64>(), 60);
    }

    #[test]
    fn reports_are_identical_across_worker_counts() {
        let cfg = TrisectConfig {
            cases: 40,
            ..TrisectConfig::default()
        };
        let a = run_trisection(&cfg, 1).to_registry().render();
        let b = run_trisection(&cfg, 4).to_registry().render();
        assert_eq!(a, b);
    }
}
