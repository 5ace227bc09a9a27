//! Parallel fuzzing campaigns with deterministic seed striding.
//!
//! A campaign runs `cases` independent [`FuzzCase`]s, each derived from
//! the master seed and its index by a splitmix64 stride — so case *i*
//! is the same program for every worker count, and the whole report
//! (rendered registry included) is byte-identical for every worker
//! count. Findings are shrunk on the worker that found them and surface
//! as minimal reproducers, renderable into the litmus text dialect for
//! the regression corpus under `litmus/regressions/`.

use crate::gen::{generate, FuzzCase, GenConfig};
use crate::oracle::{check_case, Finding, FindingKind, OracleConfig};
use crate::shrink::{put_findings, shrink_findings, CampaignFinding, Case, Rewrite};
use ise_consistency::program::{Loc, Stmt, StmtOp};
use ise_consistency::BatchChecker;
use ise_litmus::{render_litmus, Family, LitmusTest, ParsedLitmus};
use ise_telemetry::Registry;
use ise_types::instr::Reg;
use ise_types::model::{ConsistencyModel, DrainPolicy};

/// Campaign shape.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; case `i` uses `splitmix64(seed, i)`.
    pub seed: u64,
    /// Cases to run.
    pub cases: usize,
    /// Program-shape limits.
    pub gen: GenConfig,
    /// Oracle selection (sim legs on/off, seeded bug for self-tests).
    pub oracle: OracleConfig,
    /// Whether findings are shrunk before reporting.
    pub shrink: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            cases: 200,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            shrink: true,
        }
    }
}

/// The per-case seed: a splitmix64 stream over the master seed, so the
/// mapping index → case is independent of scheduling and worker count.
pub fn case_seed(master: u64, index: usize) -> u64 {
    let mut z = master.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rewrites a stored value / AMO addend to 1.
fn value_to_one(mut s: Stmt) -> Option<Stmt> {
    match &mut s.op {
        StmtOp::Write { value, .. } | StmtOp::Amo { add: value, .. } if *value != 1 => *value = 1,
        _ => return None,
    }
    Some(s)
}

impl Case for FuzzCase {
    type Stmt = Stmt;
    type Kind = FindingKind;
    type Oracle = OracleConfig;
    type Checkers = BatchChecker;
    const KINDS: &'static [FindingKind] = &FindingKind::ALL;
    const EXT: &'static str = "litmus";
    const REWRITES: &'static [Rewrite<Stmt>] = &[value_to_one];

    fn kind_name(kind: FindingKind) -> &'static str {
        kind.name()
    }

    fn check(&self, oracle: &OracleConfig, batch: &mut BatchChecker) -> Vec<Finding<FindingKind>> {
        check_case(self, oracle, batch)
    }

    fn render(finding: &CampaignFinding<FuzzCase>) -> String {
        render_litmus(&to_parsed(finding))
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn threads(&mut self) -> &mut Vec<Vec<Stmt>> {
        &mut self.program.threads
    }

    fn dep(stmt: &mut Stmt) -> &mut Option<Reg> {
        &mut stmt.dep
    }

    fn produced(stmt: &Stmt) -> Option<Reg> {
        match stmt.op {
            StmtOp::Read { dst, .. } | StmtOp::Amo { dst, .. } => Some(dst),
            _ => None,
        }
    }

    fn locations(&self) -> Vec<Loc> {
        self.program.locations()
    }

    fn faults(&mut self) -> (&mut Vec<Loc>, &mut bool) {
        (&mut self.faulting, &mut self.overlay)
    }
}

/// Campaign results.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Master seed the campaign ran with.
    pub seed: u64,
    /// Cases run.
    pub cases: usize,
    /// Cases actually evaluated after content-hash dedupe (≤ `cases`;
    /// seeds that generate byte-identical programs share one oracle
    /// evaluation).
    pub unique_cases: usize,
    /// Every finding, in case order, shrunk when the campaign asked.
    pub findings: Vec<CampaignFinding<FuzzCase>>,
    /// Cases per consistency model, in [`ConsistencyModel::ALL`] order.
    pub model_cases: [u64; 3],
    /// Cases that ran the split-stream ablation.
    pub split_stream_cases: u64,
    /// Cases with at least one faulting location.
    pub faulting_cases: u64,
    /// Cases using the transient-overlay fault source.
    pub overlay_cases: u64,
    /// Allowed-set enumerations performed across all cells.
    pub axiom_enumerations: u64,
}

impl FuzzReport {
    /// Whether every case passed every oracle.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The telemetry-registry view: coverage counters, then one counter
    /// per finding kind (pre-seeded to zero so the key set — and the
    /// rendered bytes — never depend on what was found), then the
    /// findings themselves as structured leaves. Byte-identical across
    /// worker counts by construction.
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.add("seed", self.seed);
        reg.add("cases", self.cases as u64);
        reg.add("unique_cases", self.unique_cases as u64);
        for (i, model) in ConsistencyModel::ALL.into_iter().enumerate() {
            reg.add(&format!("model.{model}.cases"), self.model_cases[i]);
        }
        reg.add("split_stream_cases", self.split_stream_cases);
        reg.add("faulting_cases", self.faulting_cases);
        reg.add("overlay_cases", self.overlay_cases);
        reg.add("axiom_enumerations", self.axiom_enumerations);
        put_findings(&mut reg, &self.findings);
        reg
    }
}

/// Renders a finding as a litmus-dialect test.
///
/// The family is a display heuristic (fences → barriers, dependencies →
/// dep, otherwise external read-from). `forbid:` lines are emitted only
/// for axiom findings under PC or WC: the replay corpus is checked
/// against the PC allowed set, and since `allowed(SC) ⊆ allowed(PC) ⊆
/// allowed(WC)`, a WC-forbidden outcome is PC-forbidden too, but an
/// SC-forbidden outcome need not be.
pub fn to_parsed(f: &CampaignFinding<FuzzCase>) -> ParsedLitmus {
    let stmts = f.case.program.threads.iter().flatten();
    let family = if stmts.clone().any(|s| matches!(s.op, StmtOp::Fence(_))) {
        Family::Barriers
    } else if stmts.clone().any(|s| s.dep.is_some()) {
        Family::Dependencies
    } else {
        Family::ExternalReadFrom
    };
    let forbidden = match f.case.model {
        ConsistencyModel::Pc | ConsistencyModel::Wc if f.kind == FindingKind::AxiomViolation => {
            f.outcomes.clone()
        }
        _ => Vec::new(),
    };
    ParsedLitmus {
        test: LitmusTest {
            name: format!("fuzz/{}-seed{}", f.kind.name(), f.seed),
            family,
            program: f.case.program.clone(),
        },
        forbidden,
    }
}

/// Runs the campaign on `workers` threads. The report is independent of
/// `workers`: cases are split by stride and reduced in index order.
///
/// Generation runs up front (it is cheap next to the oracles), and the
/// expensive oracle/shrink work is deduped by content hash: two seeds
/// whose generated cases render identically share one evaluation, with
/// the cloned findings re-stamped to each slot's own index and seed so
/// the report is byte-identical to a dedupe-free run.
pub fn run_campaign(cfg: &FuzzConfig, workers: usize) -> FuzzReport {
    let cases: Vec<FuzzCase> = (0..cfg.cases)
        .map(|i| generate(case_seed(cfg.seed, i), &cfg.gen))
        .collect();
    // The key covers everything the oracles observe. `seed` is excluded
    // — it is reporting metadata — except for overlay cases, where it
    // seeds the transient-overlay RNG and so *is* behavior.
    let (cells, unique_cases) = ise_par::par_map_dedup(
        &cases,
        workers,
        |case| {
            let overlay_seed = if case.overlay { case.seed } else { 0 };
            let src = format!(
                "{:?}\u{1f}{:?}\u{1f}{:?}\u{1f}{:?}\u{1f}{overlay_seed}",
                case.program, case.model, case.policy, case.faulting
            );
            ise_types::persist::fnv1a(src.as_bytes())
        },
        |_, case| {
            let mut batch = BatchChecker::new();
            let raw = check_case(case, &cfg.oracle, &mut batch);
            let findings = shrink_findings(case, &raw, &cfg.oracle, &mut batch, cfg.shrink);
            (batch.misses(), findings)
        },
    );
    let mut report = FuzzReport {
        seed: cfg.seed,
        cases: cfg.cases,
        unique_cases,
        findings: Vec::new(),
        model_cases: [0; 3],
        split_stream_cases: 0,
        faulting_cases: 0,
        overlay_cases: 0,
        axiom_enumerations: 0,
    };
    for (index, (case, (axiom_misses, findings))) in cases.iter().zip(cells).enumerate() {
        report.model_cases[case.model.index()] += 1;
        report.split_stream_cases += u64::from(case.policy == DrainPolicy::SplitStream);
        report.faulting_cases += u64::from(!case.faulting.is_empty());
        report.overlay_cases += u64::from(case.overlay);
        report.axiom_enumerations += axiom_misses;
        let seed = case.seed;
        report.findings.extend(
            findings
                .into_iter()
                .map(|f| CampaignFinding { index, seed, ..f }),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_litmus::machine::SeededBug;
    use ise_litmus::parse_litmus;

    fn small(cases: usize) -> FuzzConfig {
        FuzzConfig {
            cases,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn case_seeds_are_a_stable_stream() {
        assert_eq!(case_seed(1, 0), case_seed(1, 0));
        assert_ne!(case_seed(1, 0), case_seed(1, 1));
        assert_ne!(case_seed(1, 0), case_seed(2, 0));
    }

    #[test]
    fn a_healthy_campaign_is_clean() {
        let report = run_campaign(&small(80), 2);
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.cases, 80);
        assert_eq!(report.model_cases.iter().sum::<u64>(), 80);
    }

    #[test]
    fn seeded_bug_findings_render_and_reparse() {
        let cfg = FuzzConfig {
            // Master seed 47's stream exposes the drain bug by index 35.
            seed: 47,
            oracle: OracleConfig {
                seeded_bug: Some(SeededBug::PcDrainReorder),
                run_sim: false,
                ..OracleConfig::default()
            },
            ..small(60)
        };
        let report = run_campaign(&cfg, 2);
        assert!(!report.clean(), "the seeded bug was never caught");
        for f in &report.findings {
            assert_eq!(f.kind, FindingKind::AxiomViolation);
            let text = render_litmus(&to_parsed(f));
            let back = parse_litmus(&text).expect("reproducer reparses");
            assert_eq!(back.test.program, f.case.program);
            if f.case.model != ConsistencyModel::Sc {
                assert_eq!(back.forbidden, f.outcomes);
                assert!(!back.forbidden.is_empty());
            }
        }
    }

    #[test]
    fn reports_are_identical_across_worker_counts() {
        let cfg = small(60);
        let a = run_campaign(&cfg, 1).to_registry().render();
        let b = run_campaign(&cfg, 4).to_registry().render();
        assert_eq!(a, b);
    }

    #[test]
    fn duplicate_cases_share_one_evaluation() {
        // A degenerate generator (one thread, one statement, one
        // location, values in {0, 1}) collides constantly, so the
        // campaign must evaluate far fewer cells than it reports cases —
        // and still render identically for every worker count.
        let cfg = FuzzConfig {
            gen: GenConfig {
                max_threads: 1,
                max_stmts_per_thread: 1,
                max_total_stmts: 1,
                max_locs: 1,
                max_value: 1,
                fault_prob: 0.0,
                overlay_prob: 0.0,
                split_stream_prob: 0.0,
                ..GenConfig::default()
            },
            ..small(120)
        };
        let report = run_campaign(&cfg, 2);
        assert_eq!(report.cases, 120);
        assert!(
            report.unique_cases < report.cases,
            "no collisions in {} degenerate cases",
            report.cases
        );
        assert_eq!(report.model_cases.iter().sum::<u64>(), 120);
        assert_eq!(
            report.to_registry().render(),
            run_campaign(&cfg, 1).to_registry().render(),
            "dedupe must not perturb the report"
        );
    }
}
