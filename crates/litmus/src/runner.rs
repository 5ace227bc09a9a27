//! Running the corpus: operational observations vs axiomatic permission.
//!
//! A test **passes** when every outcome the operational machine reaches is
//! inside the axiomatic model's allowed set — the same criterion the
//! paper's §6.3 campaign uses ("the hardware does not exhibit any behavior
//! that the model does not allow"). Each test runs in four configurations:
//! {PC, WC} × {no faults, all locations faulting}, so the corpus verifies
//! both the plain pipeline and the imprecise-exception machinery.

use crate::corpus::{Family, LitmusTest};
use crate::machine::{explore, MachineConfig};
use ise_consistency::axiom::allowed_outcomes;
use ise_consistency::program::{format_outcome, Outcome};
use ise_telemetry::Registry;
use ise_types::json::{Json, ToJson};
use ise_types::model::{ConsistencyModel, DrainPolicy};
use std::collections::BTreeSet;
use std::fmt;

/// How EInject is programmed for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// No pages faulting (plain pipeline).
    None,
    /// Every location's page faulting (the §6.3 campaign setup).
    All,
    /// Only the program's first location faulting — mixes precise and
    /// imprecise exceptions with clean accesses in one run.
    FirstLocation,
}

impl FaultMode {
    /// All modes, for campaign sweeps.
    pub const ALL: [FaultMode; 3] = [FaultMode::None, FaultMode::All, FaultMode::FirstLocation];
}

impl fmt::Display for FaultMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultMode::None => write!(f, "none"),
            FaultMode::All => write!(f, "all"),
            FaultMode::FirstLocation => write!(f, "first-loc"),
        }
    }
}

/// The verdict for one test under one configuration.
#[derive(Debug, Clone)]
pub struct LitmusReport {
    /// Test name.
    pub name: String,
    /// Table 6 family.
    pub family: Family,
    /// Model the machine ran under.
    pub model: ConsistencyModel,
    /// How EInject was programmed.
    pub fault_mode: FaultMode,
    /// Outcomes the machine reached.
    pub observed: BTreeSet<Outcome>,
    /// Outcomes the axiomatic model allows.
    pub allowed: BTreeSet<Outcome>,
    /// Imprecise exceptions taken during exploration.
    pub imprecise_detections: u64,
    /// Precise (load/atomic/SC-store) exceptions taken during
    /// exploration.
    pub precise_exceptions: u64,
    /// Distinct states explored.
    pub states: usize,
}

impl LitmusReport {
    /// `observed ⊆ allowed`.
    pub fn passed(&self) -> bool {
        self.observed.is_subset(&self.allowed)
    }

    /// Outcomes the machine reached that the model forbids (empty on
    /// pass).
    pub fn violations(&self) -> Vec<&Outcome> {
        self.observed.difference(&self.allowed).collect()
    }
}

impl fmt::Display for LitmusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} faults={}] observed {}/{} allowed: {}",
            self.name,
            self.model,
            self.fault_mode,
            self.observed.len(),
            self.allowed.len(),
            if self.passed() { "OK" } else { "VIOLATION" }
        )?;
        for v in self.violations() {
            write!(f, "\n  !! {}", format_outcome(v))?;
        }
        Ok(())
    }
}

/// Runs one test under one model/fault configuration with the paper's
/// same-stream design.
pub fn run_test(test: &LitmusTest, model: ConsistencyModel, inject_faults: bool) -> LitmusReport {
    let mode = if inject_faults {
        FaultMode::All
    } else {
        FaultMode::None
    };
    run_test_with_policy(test, model, mode, DrainPolicy::SameStream)
}

/// Runs one test with an explicit drain policy and fault mode (the
/// split-stream ablation uses this).
pub fn run_test_with_policy(
    test: &LitmusTest,
    model: ConsistencyModel,
    fault_mode: FaultMode,
    policy: DrainPolicy,
) -> LitmusReport {
    let mut cfg = MachineConfig::baseline(model).with_policy(policy);
    match fault_mode {
        FaultMode::None => {}
        FaultMode::All => cfg = cfg.with_all_faulting(&test.program),
        FaultMode::FirstLocation => {
            cfg.faulting = test.program.locations().into_iter().take(1).collect();
        }
    }
    let result = explore(&test.program, &cfg);
    let allowed = allowed_outcomes(&test.program, model);
    LitmusReport {
        name: test.name.clone(),
        family: test.family,
        model,
        fault_mode,
        observed: result.outcomes,
        allowed,
        imprecise_detections: result.imprecise_detections,
        precise_exceptions: result.precise_exceptions,
        states: result.states,
    }
}

/// Aggregate results of a corpus run.
#[derive(Debug, Clone)]
pub struct CorpusSummary {
    /// One report per (test, model, fault) combination.
    pub reports: Vec<LitmusReport>,
}

impl CorpusSummary {
    /// Total cases (test × configuration) run.
    pub fn cases(&self) -> usize {
        self.reports.len()
    }

    /// Cases that passed.
    pub fn passed(&self) -> usize {
        self.reports.iter().filter(|r| r.passed()).count()
    }

    /// Whether the whole campaign passed.
    pub fn all_passed(&self) -> bool {
        self.passed() == self.cases()
    }

    /// Cases per family, in Table 6 order: `(family, cases, passed)`.
    pub fn by_family(&self) -> Vec<(Family, usize, usize)> {
        Family::ALL
            .iter()
            .map(|&fam| {
                let in_fam: Vec<_> = self.reports.iter().filter(|r| r.family == fam).collect();
                let ok = in_fam.iter().filter(|r| r.passed()).count();
                (fam, in_fam.len(), ok)
            })
            .collect()
    }

    /// Total imprecise exceptions taken across the campaign.
    pub fn imprecise_detections(&self) -> u64 {
        self.reports.iter().map(|r| r.imprecise_detections).sum()
    }

    /// The campaign as a telemetry [`Registry`]: aggregate counters
    /// first, then one `family.<key>.{cases,passed}` counter pair per
    /// Table 6 family. Keys are pre-seeded in Table 6 order before any
    /// report is accumulated, so shards merged in any grouping render
    /// identically — the corpus' worker-count determinism carries over
    /// to the registry plane.
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.add("cases", 0);
        reg.add("passed", 0);
        reg.add("imprecise_detections", 0);
        for fam in Family::ALL {
            reg.add(&format!("family.{}.cases", fam.key()), 0);
            reg.add(&format!("family.{}.passed", fam.key()), 0);
        }
        for r in &self.reports {
            reg.incr("cases");
            reg.add("passed", u64::from(r.passed()));
            reg.add("imprecise_detections", r.imprecise_detections);
            reg.incr(&format!("family.{}.cases", r.family.key()));
            reg.add(
                &format!("family.{}.passed", r.family.key()),
                u64::from(r.passed()),
            );
        }
        reg.put("all_passed", Json::from(self.all_passed()));
        reg
    }
}

impl ToJson for CorpusSummary {
    fn to_json(&self) -> Json {
        self.to_registry().to_json()
    }
}

/// Runs every corpus test under {PC, WC} × {no faults, all faulting,
/// first location faulting}, on `workers` workers.
///
/// Each (test, model, fault-mode) case is an independent exploration, so
/// the frontier hands one case to each worker; results are reduced in
/// case-insertion order, making the summary identical — report for
/// report — to a sequential (`workers == 1`) run.
pub fn run_corpus(tests: &[LitmusTest], workers: usize) -> CorpusSummary {
    let mut cases = Vec::with_capacity(tests.len() * 6);
    for test in tests {
        for model in [ConsistencyModel::Pc, ConsistencyModel::Wc] {
            for mode in FaultMode::ALL {
                cases.push((test, model, mode));
            }
        }
    }
    let reports = ise_par::par_map(&cases, workers, |_, &(test, model, mode)| {
        run_test_with_policy(test, model, mode, DrainPolicy::SameStream)
    });
    CorpusSummary { reports }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::corpus;

    #[test]
    fn whole_corpus_passes_under_pc_and_wc_with_and_without_faults() {
        let summary = run_corpus(&corpus(), 4);
        let failures: Vec<String> = summary
            .reports
            .iter()
            .filter(|r| !r.passed())
            .map(|r| r.to_string())
            .collect();
        assert!(
            failures.is_empty(),
            "{} of {} cases violated the model:\n{}",
            failures.len(),
            summary.cases(),
            failures.join("\n")
        );
        // The faulted half of the campaign must actually exercise the
        // imprecise machinery.
        assert!(summary.imprecise_detections() > 0);
    }

    #[test]
    fn corpus_observes_nontrivial_behaviour() {
        let summary = run_corpus(&corpus(), 4);
        for r in &summary.reports {
            assert!(
                !r.observed.is_empty() || r.allowed.len() == 1,
                "{}: no outcomes observed",
                r.name
            );
        }
    }

    #[test]
    fn split_stream_ablation_fails_somewhere_under_pc() {
        // The split-stream policy with partial faulting admits PC
        // violations (Fig. 2a). Build the witness configuration directly.
        use ise_consistency::program::{LitmusProgram, Loc, Stmt};
        use ise_types::instr::Reg;
        let test = LitmusTest {
            name: "ablation/fig2a".into(),
            family: Family::ExternalReadFrom,
            program: LitmusProgram::new(vec![
                vec![Stmt::write(Loc(0), 1), Stmt::write(Loc(1), 1)],
                vec![Stmt::read(Loc(1), Reg(0)), Stmt::read(Loc(0), Reg(1))],
            ]),
        };
        // Only location A faulting.
        let mut cfg =
            MachineConfig::baseline(ConsistencyModel::Pc).with_policy(DrainPolicy::SplitStream);
        cfg.faulting = [Loc(0)].into_iter().collect();
        let result = explore(&test.program, &cfg);
        let allowed = allowed_outcomes(&test.program, ConsistencyModel::Pc);
        assert!(
            !result.outcomes.is_subset(&allowed),
            "split-stream should exhibit a PC violation"
        );
        // And the same-stream design on the identical setup passes.
        let cfg2 = MachineConfig {
            policy: DrainPolicy::SameStream,
            ..cfg
        };
        let result2 = explore(&test.program, &cfg2);
        assert!(result2.outcomes.is_subset(&allowed));
    }

    #[test]
    fn by_family_covers_all_eight() {
        let summary = run_corpus(&corpus(), 4);
        let fams = summary.by_family();
        assert_eq!(fams.len(), 8);
        for (fam, cases, passed) in fams {
            assert!(cases > 0, "{fam} has no cases");
            assert_eq!(cases, passed, "{fam} has failures");
        }
    }

    #[test]
    fn registry_matches_by_family_and_is_worker_invariant() {
        let tests = corpus();
        let sequential = run_corpus(&tests, 1);
        let sharded = run_corpus(&tests, 4);
        assert_eq!(
            sequential.to_registry().render(),
            sharded.to_registry().render(),
            "registry rendering must not depend on the worker count"
        );
        let reg = sequential.to_registry();
        assert_eq!(reg.counter("cases"), sequential.cases() as u64);
        assert_eq!(reg.counter("passed"), sequential.passed() as u64);
        for (fam, cases, passed) in sequential.by_family() {
            assert_eq!(
                reg.counter(&format!("family.{}.cases", fam.key())),
                cases as u64
            );
            assert_eq!(
                reg.counter(&format!("family.{}.passed", fam.key())),
                passed as u64
            );
        }
        assert_eq!(
            sequential.to_json().render(),
            reg.to_json().render(),
            "ToJson delegates to the registry"
        );
    }
}
