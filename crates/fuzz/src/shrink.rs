//! Delta-debugging findings down to minimal reproducers.
//!
//! A raw finding points at whatever program the generator happened to
//! emit; before it is worth a human's attention (or a slot in the
//! regression corpus) it is shrunk: repeatedly try a simplification,
//! keep it if the *same kind* of finding still reproduces, restart the
//! scan from the most aggressive simplification whenever one lands.
//! One shrinker serves every [`Case`] — hardware [`FuzzCase`](crate::FuzzCase)s and
//! source-level [`TrisectCase`](crate::TrisectCase)s alike. The passes,
//! most to least aggressive:
//!
//! 1. remove a whole thread;
//! 2. remove one statement;
//! 3. drop a dependency annotation;
//! 4. each of the case's per-statement [`Case::REWRITES`], in order —
//!    for source cases, weaken a memory order (`seq_cst →
//!    release/acquire`, `release/acquire → relaxed`); for both, rewrite
//!    a stored value / AMO addend to 1;
//! 5. un-fault one location;
//! 6. turn the transient overlay off.
//!
//! Structural edits can orphan things, so every candidate is
//! re-normalized: dependencies on registers no longer produced earlier
//! in their thread are cleared, faulting locations the program no
//! longer touches are dropped, and the overlay flag is cleared when
//! nothing faults. Progress is monotone (every accepted step strictly
//! shrinks a finite measure), and a global attempt bound caps the cost
//! of re-running the oracles.
//!
//! Around the shrinker sits the one finding pipeline every campaign
//! shares ([`shrink_findings`]: one report per kind, shrunk, with detail
//! and outcomes re-derived from the reproducer) and the one reproducer
//! writer ([`write_reproducers`]).

use crate::oracle::Finding;
use ise_consistency::program::{Loc, Outcome};
use ise_telemetry::Registry;
use ise_types::instr::Reg;
use ise_types::json::Json;
use std::path::{Path, PathBuf};

/// Upper bound on oracle re-runs during one shrink.
const MAX_ATTEMPTS: usize = 10_000;

/// A per-statement simplification; `None` when it does not apply.
pub type Rewrite<S> = fn(S) -> Option<S>;

/// A generated case the finding pipeline can check, shrink and render:
/// a program of per-thread statement lists plus its fault environment.
pub trait Case: Clone {
    /// One program statement.
    type Stmt: Copy + 'static;
    /// Which oracle disagreed.
    type Kind: Copy + Ord + 'static;
    /// Oracle selection.
    type Oracle;
    /// The allowed-set caches the oracles share across checks.
    type Checkers: Default;
    /// Every finding kind, in severity order (stable telemetry keys).
    const KINDS: &'static [Self::Kind];
    /// Reproducer file extension, also its key in report registries.
    const EXT: &'static str;
    /// Per-statement simplifications after dependency dropping, most
    /// aggressive first.
    const REWRITES: &'static [Rewrite<Self::Stmt>];
    /// Stable kebab-case name of `kind` (telemetry key, file names).
    fn kind_name(kind: Self::Kind) -> &'static str;
    /// Runs every oracle on the case; empty for a healthy case.
    fn check(
        &self,
        oracle: &Self::Oracle,
        checkers: &mut Self::Checkers,
    ) -> Vec<Finding<Self::Kind>>;
    /// Renders `finding` as reproducer text.
    fn render(finding: &CampaignFinding<Self>) -> String;
    /// The seed that generated the case.
    fn seed(&self) -> u64;
    /// The program's threads.
    fn threads(&mut self) -> &mut Vec<Vec<Self::Stmt>>;
    /// A statement's dependency annotation.
    fn dep(stmt: &mut Self::Stmt) -> &mut Option<Reg>;
    /// The register a statement produces, if any.
    fn produced(stmt: &Self::Stmt) -> Option<Reg>;
    /// Every location the program touches, sorted.
    fn locations(&self) -> Vec<Loc>;
    /// The faulting locations and the transient-overlay flag.
    fn faults(&mut self) -> (&mut Vec<Loc>, &mut bool);
}

/// One reported (and possibly shrunk) finding.
#[derive(Debug, Clone)]
pub struct CampaignFinding<C: Case> {
    /// Campaign index of the case that found it.
    pub index: usize,
    /// The case's seed (regenerate the case from it).
    pub seed: u64,
    /// Which oracle disagreed.
    pub kind: C::Kind,
    /// Explanation, re-derived from the shrunk case.
    pub detail: String,
    /// The minimal reproducer.
    pub case: C,
    /// Forbidden-but-exhibited outcomes of the shrunk case (axiom and
    /// escape kinds only) — these become `forbid:` lines.
    pub outcomes: Vec<Outcome>,
    /// Accepted shrink steps (0 when shrinking is off).
    pub steps: usize,
}

/// A shrunk reproducer.
#[derive(Debug, Clone)]
pub struct ShrinkResult<C> {
    /// The minimal case that still reproduces the finding kind.
    pub case: C,
    /// Accepted simplification steps.
    pub steps: usize,
}

/// Drops orphaned dependencies, faulting entries for untouched
/// locations, and the overlay flag of a fault-free case.
fn normalize<C: Case>(mut case: C) -> C {
    for thread in case.threads() {
        let mut produced: Vec<Reg> = Vec::new();
        for stmt in thread {
            let dep = C::dep(stmt);
            if dep.is_some_and(|r| !produced.contains(&r)) {
                *dep = None;
            }
            produced.extend(C::produced(stmt));
        }
    }
    let locs = case.locations();
    let (faulting, overlay) = case.faults();
    faulting.retain(|l| locs.contains(l));
    if faulting.is_empty() {
        *overlay = false;
    }
    case
}

fn drop_dep<C: Case>(mut stmt: C::Stmt) -> Option<C::Stmt> {
    C::dep(&mut stmt).take().map(|_| stmt)
}

/// Every one-step simplification of `case`, most aggressive first.
fn candidates<C: Case>(case: &C) -> Vec<C> {
    let mut base = case.clone();
    let threads = base.threads().clone();
    let with = |next: Vec<Vec<C::Stmt>>| {
        let mut c = case.clone();
        *c.threads() = next;
        c
    };
    let mut out = Vec::new();
    if threads.len() > 1 {
        for t in 0..threads.len() {
            let mut next = threads.clone();
            next.remove(t);
            out.push(with(next));
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
            out.push(with(next));
        }
    }
    for rewrite in std::iter::once(&(drop_dep::<C> as Rewrite<C::Stmt>)).chain(C::REWRITES) {
        for t in 0..threads.len() {
            for i in 0..threads[t].len() {
                if let Some(simpler) = rewrite(threads[t][i]) {
                    let mut next = threads.clone();
                    next[t][i] = simpler;
                    out.push(with(next));
                }
            }
        }
    }
    let (faulting, overlay) = base.faults();
    for f in 0..faulting.len() {
        let mut c = case.clone();
        c.faults().0.remove(f);
        out.push(c);
    }
    if *overlay {
        let mut c = case.clone();
        *c.faults().1 = false;
        out.push(c);
    }
    out.into_iter().map(normalize).collect()
}

/// Shrinks `case` while `kind` still reproduces under `oracle`.
///
/// Greedy with restarts: the first accepted candidate restarts the scan
/// from the top (thread removal), so late cheap passes never block
/// early aggressive ones.
pub fn shrink<C: Case>(
    case: &C,
    kind: C::Kind,
    oracle: &C::Oracle,
    checkers: &mut C::Checkers,
) -> ShrinkResult<C> {
    let reproduces = |c: &C, checkers: &mut C::Checkers| {
        c.check(oracle, checkers).iter().any(|f| f.kind == kind)
    };
    let mut current = normalize(case.clone());
    debug_assert!(
        reproduces(&current, checkers),
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
            if reproduces(&cand, checkers) {
                current = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkResult {
        case: current,
        steps,
    }
}

/// Turns `case`'s raw oracle findings into reported ones: one per
/// distinct kind (a single root cause often fires several outcomes at
/// once, and shrinking converges per kind), shrunk when `shrink` is set,
/// with detail and outcomes re-derived from the reproducer itself.
/// Each finding carries `case`'s seed and index 0; campaigns stamp the
/// index.
pub fn shrink_findings<C: Case>(
    case: &C,
    raw: &[Finding<C::Kind>],
    oracle: &C::Oracle,
    checkers: &mut C::Checkers,
    shrink: bool,
) -> Vec<CampaignFinding<C>> {
    let mut kinds: Vec<C::Kind> = raw.iter().map(|f| f.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    kinds
        .into_iter()
        .map(|kind| {
            let (shrunk, steps) = if shrink {
                let r = self::shrink(case, kind, oracle, checkers);
                (r.case, r.steps)
            } else {
                (case.clone(), 0)
            };
            let (detail, outcomes) = shrunk
                .check(oracle, checkers)
                .into_iter()
                .find(|f| f.kind == kind)
                .map(|f| (f.detail, f.outcomes))
                .unwrap_or_default();
            CampaignFinding {
                index: 0,
                seed: case.seed(),
                kind,
                detail,
                case: shrunk,
                outcomes,
                steps,
            }
        })
        .collect()
}

/// Writes each finding's reproducer into `dir` (created if missing) as
/// `<kind>-seed<seed>.<ext>`, returning the paths written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_reproducers<C: Case>(
    findings: &[CampaignFinding<C>],
    dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    findings
        .iter()
        .map(|f| {
            let name = format!("{}-seed{}.{}", C::kind_name(f.kind), f.seed, C::EXT);
            let path = dir.join(name);
            std::fs::write(&path, C::render(f))?;
            Ok(path)
        })
        .collect()
}

/// Appends the findings section every campaign registry ends with: the
/// count, one counter per kind (pre-seeded to zero so the key set — and
/// the rendered bytes — never depend on what was found), the clean
/// flag, and the findings as structured leaves.
pub(crate) fn put_findings<C: Case>(reg: &mut Registry, findings: &[CampaignFinding<C>]) {
    reg.add("findings", findings.len() as u64);
    for &kind in C::KINDS {
        reg.add(
            &format!("finding.{}", C::kind_name(kind)),
            findings.iter().filter(|f| f.kind == kind).count() as u64,
        );
    }
    reg.put("clean", Json::from(findings.is_empty()));
    reg.put(
        "reproducers",
        Json::arr(findings.iter().map(|f| {
            Json::obj([
                ("index", Json::from(f.index)),
                ("seed", Json::from(f.seed)),
                ("kind", Json::str(C::kind_name(f.kind))),
                ("detail", Json::str(f.detail.clone())),
                ("steps", Json::from(f.steps)),
                (C::EXT, Json::str(C::render(f))),
            ])
        })),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FuzzCase, GenConfig};
    use crate::oracle::{check_case, FindingKind, OracleConfig};
    use crate::src_gen::{generate_src, SrcGenConfig, TrisectCase};
    use ise_consistency::program::{LitmusProgram, StmtOp};
    use ise_consistency::source::{MemOrder, SrcOp, SrcProgram};
    use ise_consistency::BatchChecker;
    use ise_litmus::machine::SeededBug;

    #[test]
    fn normalize_clears_orphans() {
        let mut case = generate(0, &GenConfig::default());
        // Fabricate an orphan dep and a stale faulting entry.
        case.program.threads[0][0].dep = Some(Reg(200));
        case.faulting = vec![Loc(7)];
        case.overlay = true;
        let n = normalize(case);
        assert!(n.program.threads[0][0].dep.is_none());
        assert!(n.faulting.is_empty());
        assert!(!n.overlay);
        // The result is still a valid program.
        let _ = LitmusProgram::new(n.program.threads.clone());
    }

    /// Asserts every candidate of `case` is strictly smaller under
    /// `measure`.
    fn assert_shrinks<C: Case>(seed: u64, case: &C, measure: impl Fn(&C) -> usize) {
        for cand in candidates(case) {
            assert!(
                measure(&cand) < measure(case),
                "seed {seed}: candidate did not shrink"
            );
        }
    }

    #[test]
    fn candidates_strictly_simplify() {
        // Hardware and source cases alike; the source measure adds
        // memory-order strength, which the weakening pass must lower.
        let strength = |order: MemOrder| match order {
            MemOrder::Relaxed => 0,
            MemOrder::Acquire | MemOrder::Release => 1,
            MemOrder::SeqCst => 2,
        };
        for seed in 0..40 {
            let case = generate(seed, &GenConfig::default());
            for cand in candidates(&case) {
                let _ = LitmusProgram::new(cand.program.threads.clone());
            }
            assert_shrinks(seed, &case, |c: &FuzzCase| {
                let stmts = c.program.threads.iter().flatten();
                c.program.len() * 100
                    + stmts.clone().filter(|s| s.dep.is_some()).count() * 10
                    + c.faulting.len() * 2
                    + usize::from(c.overlay)
                    + stmts
                        .map(|s| match s.op {
                            StmtOp::Write { value, .. } => value as usize,
                            StmtOp::Amo { add, .. } => add as usize,
                            _ => 0,
                        })
                        .sum::<usize>()
            });

            let case = generate_src(seed, &SrcGenConfig::default());
            for cand in candidates(&case) {
                let _ = SrcProgram::new(cand.program.threads.clone());
            }
            assert_shrinks(seed, &case, |c: &TrisectCase| {
                let stmts = c.program.threads.iter().flatten();
                c.program.len() * 1000
                    + stmts.clone().filter(|s| s.dep.is_some()).count() * 100
                    + c.faulting.len() * 20
                    + usize::from(c.overlay) * 10
                    + stmts
                        .map(|s| match s.op {
                            SrcOp::Store { value, order, .. } => value as usize + strength(order),
                            SrcOp::Load { order, .. } | SrcOp::Fence { order } => strength(order),
                        })
                        .sum::<usize>()
            });
        }
    }

    #[test]
    fn a_seeded_bug_finding_shrinks_to_a_tiny_reproducer() {
        let gen_cfg = GenConfig::default();
        let oracle = OracleConfig {
            seeded_bug: Some(SeededBug::PcDrainReorder),
            run_sim: false,
            ..OracleConfig::default()
        };
        let mut batch = BatchChecker::new();
        let seed = (0..300)
            .find(|&s| {
                let c = generate(s, &gen_cfg);
                check_case(&c, &oracle, &mut batch)
                    .iter()
                    .any(|f| f.kind == FindingKind::AxiomViolation)
            })
            .expect("no seed exposes the bug");
        let case = generate(seed, &gen_cfg);
        let shrunk = shrink(&case, FindingKind::AxiomViolation, &oracle, &mut batch);
        // The PC drain-reorder bug is a two-thread, message-passing-shaped
        // race: the minimal reproducer is small.
        assert!(
            shrunk.case.program.threads.len() <= 2,
            "still {} threads",
            shrunk.case.program.threads.len()
        );
        assert!(
            shrunk.case.program.len() <= 6,
            "still {} statements",
            shrunk.case.program.len()
        );
        // And it still reproduces.
        assert!(check_case(&shrunk.case, &oracle, &mut batch)
            .iter()
            .any(|f| f.kind == FindingKind::AxiomViolation));
    }
}
