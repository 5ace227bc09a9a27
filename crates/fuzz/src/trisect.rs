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
//! Findings shrink through the one [`shrink`](crate::shrink::shrink)
//! the hardware findings use. [`TrisectCase`] adds a source-only
//! rewrite pass ahead of value → 1: weakening a memory order
//! (`seq_cst → release/acquire`, `release/acquire → relaxed`) — so a
//! reproducer keeps only the annotations the bug actually needs.

use crate::campaign::case_seed;
use crate::oracle::{sim_leg, Finding};
use crate::shrink::{put_findings, shrink_findings, CampaignFinding, Case, Rewrite};
use crate::src_gen::{generate_src, SrcGenConfig, TrisectCase};
use ise_consistency::program::{Loc, Outcome};
use ise_consistency::source::{MemOrder, SrcOp, SrcStmt};
use ise_consistency::{
    buggy_table, correct_table, lower, BatchChecker, MappingBug, MappingTable, SrcBatchChecker,
};
use ise_litmus::machine::{explore, MachineConfig};
use ise_litmus::src_parse::{render_src_litmus, ParsedSrcLitmus};
use ise_telemetry::Registry;
use ise_types::instr::Reg;
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
) -> Vec<Finding<TrisectFindingKind>> {
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
        findings.push(Finding {
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
        findings.push(Finding {
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
        let leg = sim_leg(&lowered, &case.faulting, case.model, overlay, None);
        if let Some(detail) = leg.clock_divergence {
            findings.push(Finding {
                kind: TrisectFindingKind::ClockDivergence,
                detail,
                outcomes: Vec::new(),
            });
        }
        if let Some(detail) = leg.invariant {
            findings.push(Finding {
                kind: TrisectFindingKind::SimInvariant,
                detail,
                outcomes: Vec::new(),
            });
        }
    }

    findings
}

// ---------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------

/// One order-weakening step, or `None` if the statement is already at
/// its weakest legal order.
fn weakened(mut s: SrcStmt) -> Option<SrcStmt> {
    use MemOrder::{Acquire, Relaxed, Release, SeqCst};
    match &mut s.op {
        SrcOp::Store { order, .. } => match order {
            SeqCst => *order = Release,
            Release => *order = Relaxed,
            _ => return None,
        },
        SrcOp::Load { order, .. } => match order {
            SeqCst => *order = Acquire,
            Acquire => *order = Relaxed,
            _ => return None,
        },
        // An acquire/release fence is already the weakest fence; its
        // removal is the remove-statement pass's job.
        SrcOp::Fence { order } => match order {
            SeqCst => *order = Release,
            _ => return None,
        },
    }
    Some(s)
}

/// Rewrites a stored value to 1.
fn value_to_one(mut s: SrcStmt) -> Option<SrcStmt> {
    match &mut s.op {
        SrcOp::Store { value, .. } if *value != 1 => *value = 1,
        _ => return None,
    }
    Some(s)
}

impl Case for TrisectCase {
    type Stmt = SrcStmt;
    type Kind = TrisectFindingKind;
    type Oracle = TrisectOracleConfig;
    type Checkers = (BatchChecker, SrcBatchChecker);
    const KINDS: &'static [TrisectFindingKind] = &TrisectFindingKind::ALL;
    const EXT: &'static str = "srclitmus";
    const REWRITES: &'static [Rewrite<SrcStmt>] = &[weakened, value_to_one];

    fn kind_name(kind: TrisectFindingKind) -> &'static str {
        kind.name()
    }

    fn check(
        &self,
        oracle: &TrisectOracleConfig,
        (hw, lang): &mut (BatchChecker, SrcBatchChecker),
    ) -> Vec<Finding<TrisectFindingKind>> {
        check_src_case(self, oracle, hw, lang)
    }

    fn render(finding: &CampaignFinding<TrisectCase>) -> String {
        render_src_litmus(&to_src_parsed(finding))
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn threads(&mut self) -> &mut Vec<Vec<SrcStmt>> {
        &mut self.program.threads
    }

    fn dep(stmt: &mut SrcStmt) -> &mut Option<Reg> {
        &mut stmt.dep
    }

    fn produced(stmt: &SrcStmt) -> Option<Reg> {
        stmt.produced()
    }

    fn locations(&self) -> Vec<Loc> {
        self.program.locations()
    }

    fn faults(&mut self) -> (&mut Vec<Loc>, &mut bool) {
        (&mut self.faulting, &mut self.overlay)
    }
}

// ---------------------------------------------------------------------
// Campaign.
// ---------------------------------------------------------------------

/// Trisection campaign shape.
#[derive(Debug, Clone, Copy)]
pub struct TrisectConfig {
    /// Master seed; case `i` uses
    /// [`case_seed`]`(seed, i)`.
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

/// Trisection campaign results.
#[derive(Debug, Clone)]
pub struct TrisectReport {
    /// Master seed the campaign ran with.
    pub seed: u64,
    /// Cases run.
    pub cases: usize,
    /// Every finding, in case order, shrunk when the campaign asked.
    pub findings: Vec<CampaignFinding<TrisectCase>>,
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
        put_findings(&mut reg, &self.findings);
        reg
    }
}

/// Renders a trisection finding as a source-dialect test: the source
/// program, the hardware model it was lowered to, and the
/// language-forbidden outcomes it exhibited as `forbid:` lines.
pub fn to_src_parsed(f: &CampaignFinding<TrisectCase>) -> ParsedSrcLitmus {
    ParsedSrcLitmus {
        name: format!("trisect/{}-seed{}", f.kind.name(), f.seed),
        model: f.case.model,
        program: f.case.program.clone(),
        forbidden: f.outcomes.clone(),
    }
}

/// Runs the trisection campaign on `workers` threads. The report is
/// independent of `workers`: cases are split by stride and reduced in
/// index order.
pub fn run_trisection(cfg: &TrisectConfig, workers: usize) -> TrisectReport {
    let cases: Vec<TrisectCase> = (0..cfg.cases)
        .map(|i| generate_src(case_seed(cfg.seed, i), &cfg.gen))
        .collect();
    let cells = ise_par::par_map(&cases, workers, |_, case| {
        let mut checkers = Default::default();
        let raw = case.check(&cfg.oracle, &mut checkers);
        let findings = shrink_findings(case, &raw, &cfg.oracle, &mut checkers, cfg.shrink);
        let (hw, lang) = checkers;
        (lang.misses(), hw.misses(), findings)
    });
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
    for (index, (case, (lang_misses, hw_misses, findings))) in cases.iter().zip(cells).enumerate() {
        report.model_cases[case.model.index()] += 1;
        report.faulting_cases += u64::from(!case.faulting.is_empty());
        report.overlay_cases += u64::from(case.overlay);
        report.lang_enumerations += lang_misses;
        report.hw_enumerations += hw_misses;
        let findings = findings.into_iter().map(|f| CampaignFinding { index, ..f });
        report.findings.extend(findings);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_consistency::source::SrcProgram;
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
        let case = mp_case(ConsistencyModel::Wc);
        let mut checkers = Default::default();
        let kind = TrisectFindingKind::LanguageAxiomEscape;
        let shrunk = crate::shrink(&case, kind, &oracle, &mut checkers);
        assert!(shrunk.case.program.threads.len() <= 2);
        assert!(shrunk.case.program.len() <= 4, "{:?}", shrunk.case.program);
        // Still reproduces.
        assert!(shrunk
            .case
            .check(&oracle, &mut checkers)
            .iter()
            .any(|f| f.kind == kind));
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
        let f = CampaignFinding {
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
