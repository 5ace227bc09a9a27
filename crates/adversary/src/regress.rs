//! From a corruption win to a checked-in regression.
//!
//! An objective-(1) win means the unhardened kernel silently dropped a
//! store while reporting it applied. That damage shape is exactly what
//! the fuzz harness's `SimInvariant` oracle detects, so a winning plan
//! is recast as a [`FuzzCase`] — one store per attacked pool page, every
//! page faulting, the stubborn transient overlay, the unhardened cost
//! model — and pushed through the `ise-fuzz` finding pipeline. What
//! survives is a minimal litmus-dialect reproducer ready for
//! `litmus/regressions/` (write it with
//! [`ise_fuzz::write_reproducers`]).

use crate::plan::AdvPlan;
use ise_consistency::program::{LitmusProgram, Loc, Stmt};
use ise_consistency::BatchChecker;
use ise_fuzz::{check_case, shrink_findings, CampaignFinding, FindingKind, FuzzCase, OracleConfig};
use ise_types::config::OsCostConfig;
use ise_types::model::{ConsistencyModel, DrainPolicy};

/// A transient horizon that outlives the whole retry ladder, forcing
/// every faulting store onto the exhaustion path.
const STUBBORN_CLEARS_AFTER: u32 = 100;

/// The fuzz case a corruption-winning `plan` lowers to: one writer
/// thread storing to one symbolic location per attacked pool page, all
/// of them faulting under the transient overlay. Pool page indices and
/// litmus locations share the same EInject-page mapping, so the
/// reproducer faults the very pages the plan did.
pub fn corruption_case(plan: &AdvPlan, seed: u64) -> FuzzCase {
    let n = plan.pages.len().clamp(1, Loc::LIMIT as usize);
    let thread: Vec<Stmt> = (0..n).map(|i| Stmt::write(Loc(i as u8), 1)).collect();
    let faulting: Vec<Loc> = (0..n).map(|i| Loc(i as u8)).collect();
    FuzzCase {
        seed,
        program: LitmusProgram::new(vec![thread]),
        model: ConsistencyModel::Pc,
        policy: DrainPolicy::SameStream,
        faulting,
        overlay: true,
    }
}

/// The oracle configuration that replays the corruption: sim legs on,
/// stubborn overlay, unhardened recovery costs.
pub fn corruption_oracle() -> OracleConfig {
    OracleConfig {
        run_sim: true,
        os_costs: Some(OsCostConfig {
            hardened: false,
            ..OsCostConfig::isca23()
        }),
        overlay_clears_after: STUBBORN_CLEARS_AFTER,
        ..OracleConfig::default()
    }
}

/// Recasts a corruption win as a fuzz finding and shrinks it. Returns
/// `None` when the lowered case does not reproduce the silent drop
/// through the fuzz oracle (the win then stays a scorecard entry
/// without a corpus artifact).
pub fn shrink_corruption(plan: &AdvPlan, seed: u64) -> Option<CampaignFinding<FuzzCase>> {
    let case = corruption_case(plan, seed);
    let oracle = corruption_oracle();
    let mut batch = BatchChecker::new();
    let mut raw = check_case(&case, &oracle, &mut batch);
    raw.retain(|f| {
        f.kind == FindingKind::SimInvariant && f.detail.contains("applied store not visible")
    });
    shrink_findings(&case, &raw, &oracle, &mut batch, true).pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::{ExceptionKind, FaultKind};

    fn winning_plan() -> AdvPlan {
        AdvPlan {
            pages: vec![0, 1],
            kind: FaultKind::Transient { clears_after: 128 },
            exception: ExceptionKind::BusError,
            fsb_capacity: 32,
        }
    }

    #[test]
    fn corruption_case_faults_every_lowered_location() {
        let case = corruption_case(&winning_plan(), 9);
        assert_eq!(case.program.threads.len(), 1);
        assert_eq!(case.faulting.len(), 2);
        assert!(case.overlay);
        assert_eq!(case.program.locations(), case.faulting);
    }

    #[test]
    fn a_corruption_win_shrinks_to_a_reproducing_finding() {
        let finding = shrink_corruption(&winning_plan(), 9)
            .expect("the silent drop must reproduce through the fuzz oracle");
        assert_eq!(finding.kind, FindingKind::SimInvariant);
        assert!(
            finding.detail.contains("applied store not visible"),
            "detail: {}",
            finding.detail
        );
        // The shrinker should get down to a single faulting store.
        assert_eq!(finding.case.program.len(), 1, "{:?}", finding.case.program);
        assert_eq!(finding.case.faulting.len(), 1);
        assert!(finding.case.overlay, "the overlay carries the fault");
    }
}
