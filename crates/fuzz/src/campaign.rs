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
use crate::shrink::{shrink, ShrinkResult};
use ise_consistency::program::Outcome;
use ise_consistency::BatchChecker;
use ise_litmus::{render_litmus, Family, LitmusTest, ParsedLitmus};
use ise_telemetry::Registry;
use ise_types::json::Json;
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

/// One reported (and possibly shrunk) finding.
#[derive(Debug, Clone)]
pub struct CampaignFinding {
    /// Campaign index of the case that found it.
    pub index: usize,
    /// The case's seed (regenerate with [`generate`]).
    pub seed: u64,
    /// Which oracle pair disagreed.
    pub kind: FindingKind,
    /// Explanation, re-derived from the shrunk case.
    pub detail: String,
    /// The minimal reproducer.
    pub case: FuzzCase,
    /// Forbidden-but-observed outcomes of the shrunk case (axiom
    /// findings only) — these become `forbid:` lines.
    pub outcomes: Vec<Outcome>,
    /// Accepted shrink steps (0 when shrinking is off).
    pub steps: usize,
}

#[derive(Clone)]
struct Cell {
    model: ConsistencyModel,
    policy: DrainPolicy,
    faulting: bool,
    overlay: bool,
    axiom_misses: u64,
    findings: Vec<CampaignFinding>,
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
    pub findings: Vec<CampaignFinding>,
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
        reg.add("findings", self.findings.len() as u64);
        for kind in FindingKind::ALL {
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
                    ("litmus", Json::str(render_litmus(&to_parsed(f)))),
                ])
            })),
        );
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
pub fn to_parsed(f: &CampaignFinding) -> ParsedLitmus {
    let stmts = f.case.program.threads.iter().flatten();
    let family = if stmts
        .clone()
        .any(|s| matches!(s.op, ise_consistency::program::StmtOp::Fence(_)))
    {
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

/// Writes each finding's reproducer into `dir` (created if missing) as
/// `<kind>-seed<seed>.litmus`, returning the paths written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_regressions(
    report: &FuzzReport,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::new();
    for f in &report.findings {
        let path = dir.join(format!("{}-seed{}.litmus", f.kind.name(), f.seed));
        std::fs::write(&path, render_litmus(&to_parsed(f)))?;
        paths.push(path);
    }
    Ok(paths)
}

fn run_cell(cfg: &FuzzConfig, index: usize, seed: u64, case: &FuzzCase) -> Cell {
    let mut batch = BatchChecker::new();
    let raw = check_case(case, &cfg.oracle, &mut batch);
    // One report per kind: shrinking converges per finding kind, and a
    // single root cause often fires several outcomes at once.
    let mut kinds: Vec<FindingKind> = raw.iter().map(|f| f.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut findings = Vec::new();
    for kind in kinds {
        let (shrunk, steps) = if cfg.shrink {
            let ShrinkResult { case: c, steps, .. } = shrink(case, kind, &cfg.oracle, &mut batch);
            (c, steps)
        } else {
            (case.clone(), 0)
        };
        // Re-derive detail and outcomes from the reproducer itself.
        let fresh: Vec<Finding> = check_case(&shrunk, &cfg.oracle, &mut batch)
            .into_iter()
            .filter(|f| f.kind == kind)
            .collect();
        let (detail, outcomes) = fresh
            .into_iter()
            .next()
            .map(|f| (f.detail, f.outcomes))
            .unwrap_or_default();
        findings.push(CampaignFinding {
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
        policy: case.policy,
        faulting: !case.faulting.is_empty(),
        overlay: case.overlay,
        axiom_misses: batch.misses(),
        findings,
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
    let cases: Vec<(usize, u64, FuzzCase)> = (0..cfg.cases)
        .map(|i| {
            let seed = case_seed(cfg.seed, i);
            (i, seed, generate(seed, &cfg.gen))
        })
        .collect();
    // The key covers everything the oracles observe. `seed` is excluded
    // — it is reporting metadata — except for overlay cases, where it
    // seeds the transient-overlay RNG and so *is* behavior.
    let (cells, unique_cases) = ise_par::par_map_dedup(
        &cases,
        workers,
        |(_, _, case)| {
            let overlay_seed = if case.overlay { case.seed } else { 0 };
            let src = format!(
                "{:?}\u{1f}{:?}\u{1f}{:?}\u{1f}{:?}\u{1f}{overlay_seed}",
                case.program, case.model, case.policy, case.faulting
            );
            ise_types::persist::fnv1a(src.as_bytes())
        },
        |_, (index, seed, case)| run_cell(cfg, *index, *seed, case),
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
    for ((index, seed, _), mut cell) in cases.iter().zip(cells) {
        for f in &mut cell.findings {
            f.index = *index;
            f.seed = *seed;
        }
        let m = ConsistencyModel::ALL
            .into_iter()
            .position(|m| m == cell.model)
            .expect("model is one of ALL");
        report.model_cases[m] += 1;
        report.split_stream_cases += u64::from(cell.policy == DrainPolicy::SplitStream);
        report.faulting_cases += u64::from(cell.faulting);
        report.overlay_cases += u64::from(cell.overlay);
        report.axiom_enumerations += cell.axiom_misses;
        report.findings.extend(cell.findings);
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
