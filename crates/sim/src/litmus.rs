//! Bridge from symbolic litmus programs to the timing simulator.
//!
//! The fuzzing harness cross-checks three oracles; this module supplies
//! the third one: it lowers a [`LitmusProgram`] onto the assembled
//! Fig. 4 [`System`] and reports the planes the differential check
//! compares — exception counts, the functional memory image, and the
//! post-run audit every fault campaign shares ([`crate::invariants`]).
//!
//! Lowering maps each symbolic location `A..H` to the base of its own
//! EInject page (`EINJECT_BASE + i * PAGE_SIZE`), so "this location
//! faults" becomes "mark that page in EInject". Dependency annotations
//! are dropped: the timing cores execute in order within a trace, so
//! `po` already subsumes every `dep` edge the generator can emit. The
//! timing simulator follows *one* schedule per run while the operational
//! machine explores all of them, so the caller must only make
//! one-directional comparisons (e.g. "the machine saw no imprecise
//! detection on any path ⇒ the simulator saw none either").

use crate::chaos::fault_cell;
use crate::invariants;
use crate::system::{System, SystemStats};
use ise_consistency::program::{LitmusProgram, Loc, StmtOp};
use ise_engine::Cycle;
use ise_types::addr::{Addr, PAGE_SIZE};
use ise_types::config::{OsCostConfig, SystemConfig};
use ise_types::instr::Instruction;
use ise_types::model::ConsistencyModel;
use ise_types::{FaultKind, FaultSpec};
use ise_workloads::layout::EINJECT_BASE;
use ise_workloads::Workload;

/// Cycle budget for one lowered litmus program. The programs the fuzzer
/// emits are at most eight instructions, so a run that is still going
/// after this many cycles is itself a finding (a livelock).
pub const LITMUS_MAX_CYCLES: Cycle = 5_000_000;

/// The physical address a symbolic litmus location lowers to: the first
/// byte of its own EInject page.
///
/// # Panics
///
/// Panics if `loc` is outside the dialect's `A..H` range ([`Loc::LIMIT`]).
pub fn loc_addr(loc: Loc) -> Addr {
    assert!(
        loc.0 < Loc::LIMIT,
        "location {} is outside the litmus dialect (limit {})",
        loc.0,
        Loc::LIMIT
    );
    Addr::new(EINJECT_BASE + loc.0 as u64 * PAGE_SIZE)
}

/// Lowers a litmus program to a per-core instruction workload.
///
/// `faulting` lists the symbolic locations whose pages EInject marks
/// faulting before the run (the §6.5 setup); pass an empty slice for a
/// clean run.
pub fn litmus_workload(name: &str, prog: &LitmusProgram, faulting: &[Loc]) -> Workload {
    let traces: Vec<ise_workloads::Trace> = prog
        .threads
        .iter()
        .map(|thread| {
            thread
                .iter()
                .map(|stmt| match stmt.op {
                    StmtOp::Write { loc, value } => Instruction::store(loc_addr(loc), value),
                    StmtOp::Read { loc, dst } => Instruction::load(loc_addr(loc), dst),
                    StmtOp::Fence(kind) => Instruction::fence(kind),
                    StmtOp::Amo { loc, add, dst } => Instruction::atomic(loc_addr(loc), add, dst),
                })
                .collect()
        })
        .collect();
    Workload {
        name: name.to_string(),
        traces,
        einject_pages: faulting.iter().map(|&l| loc_addr(l).page()).collect(),
    }
}

/// What one timing-simulator run of a litmus program produced, projected
/// onto the planes the differential oracle compares.
#[derive(Debug, Clone)]
pub struct LitmusRun {
    /// Full run statistics (cycle counts, exception tallies, per-core
    /// pipelines).
    pub stats: SystemStats,
    /// The stats registry rendered to JSON — byte-compared across clock
    /// modes and worker counts by the determinism checks.
    pub stats_json: String,
    /// Final functional-memory value of each program location, in
    /// [`LitmusProgram::locations`] order. Only OS-applied stores land
    /// in functional memory (clean stores complete inside the timing
    /// caches), so each value must be a member of the operational
    /// machine's reachable-value envelope, not equal to one particular
    /// final state.
    pub mem: Vec<u64>,
    /// A `timeout:` entry if the run exhausted [`LITMUS_MAX_CYCLES`],
    /// else every finding of the shared post-run audit. Empty on a
    /// healthy run.
    pub violations: Vec<String>,
    /// Whether any core's process was killed by an irrecoverable fault.
    pub any_killed: bool,
}

/// Parameters of the transient-fault overlay a litmus run can chain in
/// place of EInject: the chaos-campaign idiom, with the healing horizon
/// exposed so campaigns can pin how many denials a cause absorbs.
/// `clears_after: 1` heals at the drain denial (zero retries);
/// `clears_after >= 2 + retry_attempts` outlives the whole retry ladder
/// and forces the exhaustion path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultOverlay {
    /// Seed of the injection plan (intermittent draws etc. derive from
    /// it).
    pub seed: u64,
    /// Denials the transient cause absorbs before healing.
    pub clears_after: u32,
}

/// Runs `prog` on the timing simulator under `model`.
///
/// `skip` selects the clock (event-driven cycle skipping vs the naive
/// tick loop); the differential harness runs both and byte-compares
/// [`LitmusRun::stats_json`].
///
/// `overlay` switches the fault source: `None` marks the `faulting`
/// locations' pages in EInject (permanent faults the OS resolves by
/// retrieving the FSB), while `Some` leaves EInject inert and instead
/// injects transient bus errors on those same pages through
/// [`fault_cell`], exercising the retry/recovery path
/// instead of the page-resolve path. `os_costs` overrides the
/// [`OsCostConfig`], so adversarial campaigns can replay a finding
/// against a deliberately unhardened recovery configuration. A run that
/// exhausts its [`LITMUS_MAX_CYCLES`] budget degrades to a deterministic
/// `timeout:` violation instead of panicking out of a campaign worker.
pub fn run_litmus_case(
    prog: &LitmusProgram,
    faulting: &[Loc],
    model: ConsistencyModel,
    skip: bool,
    overlay: Option<FaultOverlay>,
    os_costs: Option<OsCostConfig>,
) -> LitmusRun {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 2;
    cfg = cfg.with_model(model);
    if let Some(os) = os_costs {
        cfg.os = os;
    }
    assert!(
        prog.threads.len() <= cfg.noc.nodes(),
        "litmus program has more threads than mesh tiles"
    );

    let workload = litmus_workload("fuzz-litmus", prog, faulting);
    let mut sys = match overlay {
        None => System::new(cfg, &workload).with_contract_monitor(),
        Some(FaultOverlay { seed, clears_after }) => {
            let transient = FaultSpec::bus_error(FaultKind::Transient { clears_after });
            let pages = workload.einject_pages.iter().copied();
            fault_cell(cfg, &workload, seed, pages, transient).0
        }
    };
    let run = invariants::run_audited(&mut sys, LITMUS_MAX_CYCLES, skip);
    let mut violations = Vec::new();
    if run.timed_out {
        violations.push(format!(
            "timeout: cell budget of {LITMUS_MAX_CYCLES} cycles exhausted"
        ));
    }
    violations.extend(run.audit.all());

    let mem = prog
        .locations()
        .into_iter()
        .map(|l| sys.memory().read(loc_addr(l)))
        .collect();
    let any_killed = (0..workload.traces.len()).any(|i| sys.process_killed(i));
    let stats_json = run.stats.to_registry().render();
    LitmusRun {
        stats: run.stats,
        stats_json,
        mem,
        violations,
        any_killed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_consistency::program::Stmt;
    use ise_types::instr::Reg;

    fn mp() -> LitmusProgram {
        LitmusProgram::new(vec![
            vec![Stmt::write(Loc(0), 1), Stmt::write(Loc(1), 1)],
            vec![Stmt::read(Loc(1), Reg(0)), Stmt::read(Loc(0), Reg(1))],
        ])
    }

    #[test]
    fn locations_map_to_distinct_einject_pages() {
        let pages: Vec<_> = (0..Loc::LIMIT).map(|i| loc_addr(Loc(i)).page()).collect();
        let mut deduped = pages.clone();
        deduped.dedup();
        assert_eq!(pages, deduped);
        assert_eq!(pages[0], Addr::new(EINJECT_BASE).page());
    }

    #[test]
    #[should_panic(expected = "outside the litmus dialect")]
    fn out_of_range_location_panics() {
        loc_addr(Loc(Loc::LIMIT));
    }

    #[test]
    fn workload_lowers_every_statement_kind() {
        let prog = LitmusProgram::new(vec![vec![
            Stmt::write(Loc(0), 7),
            Stmt::fence(ise_types::instr::FenceKind::Full),
            Stmt::amo(Loc(1), 1, Reg(0)),
            Stmt::read(Loc(0), Reg(1)),
        ]]);
        let wl = litmus_workload("t", &prog, &[Loc(1)]);
        assert_eq!(wl.traces.len(), 1);
        assert_eq!(wl.traces[0].len(), 4);
        assert_eq!(wl.einject_pages, vec![loc_addr(Loc(1)).page()]);
    }

    #[test]
    fn clean_run_is_healthy_and_exception_free() {
        let run = run_litmus_case(&mp(), &[], ConsistencyModel::Pc, true, None, None);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(!run.any_killed);
        assert_eq!(run.stats.imprecise_exceptions, 0);
        assert_eq!(run.stats.precise_exceptions, 0);
        // Clean stores complete in the caches; functional memory keeps
        // its initial zeros.
        assert_eq!(run.mem, vec![0, 0]);
    }

    #[test]
    fn faulting_run_takes_exceptions_and_applies_stores_via_os() {
        let run = run_litmus_case(
            &mp(),
            &[Loc(0), Loc(1)],
            ConsistencyModel::Pc,
            true,
            None,
            None,
        );
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(run.stats.imprecise_exceptions + run.stats.precise_exceptions > 0);
        assert!(run.stats.stores_applied > 0);
        // OS-applied stores land in functional memory.
        assert_eq!(run.mem, vec![1, 1]);
    }

    #[test]
    fn both_clocks_agree_byte_for_byte() {
        let a = run_litmus_case(&mp(), &[Loc(0)], ConsistencyModel::Pc, false, None, None);
        let b = run_litmus_case(&mp(), &[Loc(0)], ConsistencyModel::Pc, true, None, None);
        assert_eq!(a.stats_json, b.stats_json);
        assert_eq!(a.mem, b.mem);
    }

    #[test]
    fn transient_overlay_recovers_without_killing() {
        let overlay = FaultOverlay {
            seed: 9,
            clears_after: 1,
        };
        let run = run_litmus_case(
            &mp(),
            &[Loc(0)],
            ConsistencyModel::Pc,
            true,
            Some(overlay),
            None,
        );
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(!run.any_killed);
    }

    fn stubborn_overlay() -> Option<FaultOverlay> {
        // Outlives the full default retry ladder (1 drain denial + 5
        // apply-check denials), forcing the exhaustion path.
        Some(FaultOverlay {
            seed: 9,
            clears_after: 100,
        })
    }

    #[test]
    fn exhaustion_under_hardened_config_kills_cleanly() {
        let run = run_litmus_case(
            &mp(),
            &[Loc(0)],
            ConsistencyModel::Pc,
            true,
            stubborn_overlay(),
            None,
        );
        assert!(run.any_killed, "hardened kernels kill on exhaustion");
        assert!(
            run.violations.is_empty(),
            "a kill is contained, not a violation: {:?}",
            run.violations
        );
    }

    #[test]
    fn visibility_audit_catches_unhardened_silent_drop() {
        let os = OsCostConfig {
            hardened: false,
            ..OsCostConfig::isca23()
        };
        let run = run_litmus_case(
            &mp(),
            &[Loc(0)],
            ConsistencyModel::Pc,
            true,
            stubborn_overlay(),
            Some(os),
        );
        assert!(!run.any_killed, "the unhardened kernel never kills");
        assert!(
            run.violations
                .iter()
                .any(|v| v.contains("applied store not visible")),
            "the silent drop must surface through the visibility audit, got {:?}",
            run.violations
        );
        // Every *other* invariant stays green — the lie is consistent.
        assert!(
            run.violations
                .iter()
                .all(|v| v.contains("applied store not visible")),
            "only the audit fires: {:?}",
            run.violations
        );
    }
}
