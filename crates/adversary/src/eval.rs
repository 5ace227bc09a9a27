//! Objective evaluation: one fault plan, one full-system run, four
//! damage scores.
//!
//! Every evaluation runs the shared post-run audit
//! ([`ise_sim::invariants`]), so a "win" is never an artifact of a run
//! the simulator itself would reject. The four objectives mirror
//! DESIGN.md §13:
//!
//! 1. **Corrupt** — architectural state diverges (the visibility audit
//!    fires) while every invariant stays green and nothing is killed:
//!    the silent-drop lie of an unhardened kernel.
//! 2. **Stall** — the victim burns dispatch overhead in early-drain
//!    continuation storms.
//! 3. **Exhaust** — a plan pins the handler on the longest backoff
//!    ladder until the retry budget runs out.
//! 4. **Kill** — the kill path fires with maximal in-flight FSB state
//!    to discard.

use crate::plan::AdvPlan;
use crate::target::{pool_page, victim_workload};
use ise_engine::Cycle;
use ise_sim::{fault_cell, invariants};
use ise_types::config::{OsCostConfig, SystemConfig};
use ise_types::model::ConsistencyModel;

/// Default cycle budget per evaluation. The victim completes in well
/// under 100k cycles even on the slowest backoff path; a plan that is
/// still running here has livelocked the recovery and scores zero.
pub const EVAL_MAX_CYCLES: Cycle = 2_000_000;

/// Minimum early-drain continuation chunks for a stall win.
pub const STALL_MIN_CHUNKS: u64 = 4;

/// Minimum continuation dispatch cycles for a stall win: four full
/// unhardened dispatches. A hardened kernel charges continuations
/// `dispatch_overhead / 8`, and the 48-store burst bounds chunks at 12
/// per episode, so the hardened ceiling (~16 × 65) sits far below this.
pub const STALL_MIN_DISPATCH_CYCLES: Cycle = 2_080;

/// Minimum backoff cycles for an exhaustion win: one full jitterless
/// ladder (64 + 128 + 256 + 512) under the ISCA'23 costs.
pub const EXHAUST_MIN_BACKOFF: Cycle = 960;

/// Minimum discarded in-flight stores for a kill win.
pub const KILL_MIN_DISCARDED: u64 = 8;

/// How one evaluation runs: which recovery configuration defends, under
/// what budget.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// OS cost model (and its [`OsCostConfig::hardened`]) under attack.
    pub os: OsCostConfig,
    /// Cycle budget per run: a run cut short reports
    /// [`EvalOutcome::timed_out`] instead of being audited.
    pub max_cycles: Cycle,
}

impl EvalConfig {
    /// The hardened ISCA'23 recovery configuration (the default kernel).
    pub fn hardened() -> Self {
        EvalConfig {
            os: OsCostConfig::isca23(),
            max_cycles: EVAL_MAX_CYCLES,
        }
    }

    /// The deliberately weak recovery configuration the self-check
    /// attacks: no jitter, no kill on exhaustion (silent drop), full
    /// dispatch charge per continuation chunk.
    pub fn unhardened() -> Self {
        EvalConfig {
            os: OsCostConfig {
                hardened: false,
                ..OsCostConfig::isca23()
            },
            ..Self::hardened()
        }
    }
}

/// Everything one evaluation measured, as plain owned data so results
/// cross worker threads and cache lookups freely.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// The evaluated plan's [`AdvPlan::key`].
    pub key: String,
    /// The run exhausted its cycle budget (all objectives score zero).
    pub timed_out: bool,
    /// Audit violations other than corruption (empty = contained).
    pub violations: Vec<String>,
    /// Applied-visibility audit findings (non-empty = architectural
    /// corruption).
    pub corruption: Vec<String>,
    /// Processes killed.
    pub killed: u64,
    /// Stores that exhausted their retry budget.
    pub retry_exhausted: u64,
    /// Total cycles spent in retry backoff.
    pub backoff_cycles: Cycle,
    /// Early-drain continuation chunks after the first.
    pub continuation_invocations: u64,
    /// Dispatch cycles charged to those continuations.
    pub continuation_dispatch_cycles: Cycle,
    /// Early-drain interrupts delivered.
    pub early_drain_interrupts: u64,
    /// Deepest FSB occupancy observed.
    pub fsb_high_water_mark: usize,
    /// In-flight stores discarded by kill paths, across cores.
    pub discarded: u64,
    /// Transactions the injector denied.
    pub denied: u64,
    /// Stores the OS applied.
    pub stores_applied: u64,
    /// Cycles to completion (or to the budget).
    pub cycles: Cycle,
}

/// The four damage objectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Corrupt architectural state while tripping no invariant.
    Corrupt,
    /// Maximize victim stall via FSB early-drain storms.
    Stall,
    /// Exhaust the retry budget on the longest backoff path.
    Exhaust,
    /// Force kill-path entry with maximal in-flight FSB occupancy.
    Kill,
}

impl Objective {
    /// All objectives, in scorecard order.
    pub const ALL: [Objective; 4] = [
        Objective::Corrupt,
        Objective::Stall,
        Objective::Exhaust,
        Objective::Kill,
    ];

    /// Stable name (telemetry keys, CLI output).
    pub fn name(self) -> &'static str {
        match self {
            Objective::Corrupt => "corrupt",
            Objective::Stall => "stall",
            Objective::Exhaust => "exhaust",
            Objective::Kill => "kill",
        }
    }

    /// Whether `outcome` clears this objective's win threshold. Timed
    /// out runs never win: damage the invariants cannot audit does not
    /// count.
    pub fn win(self, outcome: &EvalOutcome) -> bool {
        if outcome.timed_out {
            return false;
        }
        match self {
            Objective::Corrupt => {
                outcome.violations.is_empty()
                    && outcome.killed == 0
                    && !outcome.corruption.is_empty()
            }
            Objective::Stall => {
                outcome.continuation_invocations >= STALL_MIN_CHUNKS
                    && outcome.continuation_dispatch_cycles >= STALL_MIN_DISPATCH_CYCLES
            }
            Objective::Exhaust => {
                outcome.retry_exhausted >= 1 && outcome.backoff_cycles >= EXHAUST_MIN_BACKOFF
            }
            Objective::Kill => outcome.killed >= 1 && outcome.discarded >= KILL_MIN_DISCARDED,
        }
    }

    /// The hill-climbing score (higher = more damage), comparable only
    /// within one objective.
    pub fn score(self, outcome: &EvalOutcome) -> u64 {
        if outcome.timed_out {
            return 0;
        }
        match self {
            Objective::Corrupt => outcome.corruption.len() as u64,
            Objective::Stall => outcome.continuation_dispatch_cycles,
            Objective::Exhaust => outcome.backoff_cycles,
            Objective::Kill => outcome.discarded + outcome.fsb_high_water_mark as u64,
        }
    }
}

/// Runs `plan` against the victim under `cfg`, on the clock `skip`
/// selects, and measures everything the objectives need. Pure: the same
/// (plan, cfg) pair produces the same outcome on any thread and either
/// clock, which is what lets the search cache and parallelize
/// evaluations without perturbing the report.
pub fn evaluate(plan: &AdvPlan, cfg: &EvalConfig, skip: bool) -> EvalOutcome {
    let mut sys_cfg = SystemConfig::prototype2().with_model(ConsistencyModel::Pc);
    sys_cfg.os = cfg.os;
    let pages = plan.pages.iter().map(|&i| pool_page(i));
    let (sys, injector) = fault_cell(sys_cfg, &victim_workload(), 0xAD5E, pages, plan.spec());
    let mut sys = sys.with_fsb_capacity(plan.fsb_capacity);
    let run = invariants::run_audited(&mut sys, cfg.max_cycles, skip);
    let stats = run.stats;

    let os = sys.os_kernel();
    EvalOutcome {
        key: plan.key(),
        timed_out: run.timed_out,
        violations: run.audit.violations,
        corruption: run.audit.corruption,
        killed: stats.killed,
        retry_exhausted: os.retry_exhausted(),
        backoff_cycles: os.backoff_cycles(),
        continuation_invocations: os.continuation_invocations(),
        continuation_dispatch_cycles: os.continuation_dispatch_cycles(),
        early_drain_interrupts: stats.early_drain_interrupts,
        fsb_high_water_mark: stats.fsb_high_water_mark,
        discarded: sys.discarded_per_core().iter().sum(),
        denied: injector.denied_count(),
        stores_applied: stats.stores_applied,
        cycles: stats.cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::{ExceptionKind, FaultKind};

    fn plan(kind: FaultKind, pages: Vec<u8>, fsb: usize) -> AdvPlan {
        AdvPlan {
            pages,
            kind,
            exception: ExceptionKind::BusError,
            fsb_capacity: fsb,
        }
    }

    #[test]
    fn a_clean_ish_plan_holds_every_invariant_under_both_configs() {
        // A single transient page that heals at the drain denial: the
        // recovery path runs but nothing is damaged.
        let p = plan(FaultKind::Transient { clears_after: 1 }, vec![0], 32);
        for cfg in [EvalConfig::hardened(), EvalConfig::unhardened()] {
            let o = evaluate(&p, &cfg, true);
            assert!(!o.timed_out);
            assert!(o.violations.is_empty(), "{:?}", o.violations);
            assert!(o.corruption.is_empty(), "{:?}", o.corruption);
            assert_eq!(o.killed, 0);
            assert!(o.denied > 0, "the plan must actually deny something");
            assert!(Objective::ALL.iter().all(|obj| !obj.win(&o)));
        }
    }

    #[test]
    fn stubborn_transients_silently_corrupt_the_unhardened_kernel_only() {
        let p = plan(FaultKind::Transient { clears_after: 128 }, vec![0, 1], 32);
        let weak = evaluate(&p, &EvalConfig::unhardened(), true);
        assert!(!weak.timed_out);
        assert_eq!(weak.killed, 0, "the unhardened kernel never kills");
        assert!(
            Objective::Corrupt.win(&weak),
            "violations {:?} corruption {:?}",
            weak.violations,
            weak.corruption
        );
        let hard = evaluate(&p, &EvalConfig::hardened(), true);
        assert!(
            !Objective::Corrupt.win(&hard),
            "hardened kernels must not corrupt: {:?}",
            hard.corruption
        );
        assert!(hard.killed >= 1, "hardened exhaustion kills instead");
    }

    #[test]
    fn permanent_pool_wide_faults_stall_only_the_unhardened_kernel() {
        let p = plan(FaultKind::Permanent, (0..8).collect(), 4);
        let weak = evaluate(&p, &EvalConfig::unhardened(), true);
        let hard = evaluate(&p, &EvalConfig::hardened(), true);
        assert!(!weak.timed_out && !hard.timed_out);
        assert!(
            weak.continuation_invocations >= STALL_MIN_CHUNKS,
            "only {} chunks",
            weak.continuation_invocations
        );
        assert!(
            Objective::Stall.win(&weak),
            "continuations {} cycles {}",
            weak.continuation_invocations,
            weak.continuation_dispatch_cycles
        );
        assert!(
            !Objective::Stall.win(&hard),
            "hardened chunking must stay under the stall bar: {} cycles",
            hard.continuation_dispatch_cycles
        );
        // Same chunk count either way — hardening changes the charge,
        // not the drain schedule.
        assert_eq!(weak.continuation_invocations, hard.continuation_invocations);
    }

    #[test]
    fn outcomes_are_identical_across_clock_pins() {
        let p = plan(FaultKind::Transient { clears_after: 128 }, vec![0, 2], 8);
        for cfg in [EvalConfig::hardened(), EvalConfig::unhardened()] {
            let skip = evaluate(&p, &cfg, true);
            let r = evaluate(&p, &cfg, false);
            assert_eq!(skip.cycles, r.cycles);
            assert_eq!(skip.violations, r.violations);
            assert_eq!(skip.corruption, r.corruption);
            assert_eq!(skip.backoff_cycles, r.backoff_cycles);
            assert_eq!(skip.discarded, r.discarded);
        }
    }

    #[test]
    fn exhausted_budget_degrades_to_timeout_outcome() {
        // A 500-cycle budget cannot complete the victim; the evaluation
        // must report timed_out (scoring zero, skipping the audits)
        // instead of panicking, and identically under both clocks.
        let p = plan(FaultKind::Transient { clears_after: 1 }, vec![0], 32);
        let mut cfg = EvalConfig::hardened();
        cfg.max_cycles = 500;
        let skip = evaluate(&p, &cfg, true);
        assert!(skip.timed_out);
        assert!(skip.cycles <= 500);
        assert!(skip.violations.is_empty() && skip.corruption.is_empty());
        assert!(Objective::ALL.iter().all(|obj| obj.score(&skip) == 0));
        assert_eq!(
            format!("{skip:?}"),
            format!("{:?}", evaluate(&p, &cfg, false)),
            "timeout outcomes must be identical across clocks"
        );
    }
}
