//! The checkpoint-budget sweep behind Table 3's right-hand columns.
//!
//! For a given workload (one trace per core) we measure:
//!
//! 1. the SC machine (store buffer disabled — §2.3's forced-precise
//!    baseline);
//! 2. the WC machine (Table 2's configuration);
//! 3. an ASO machine for each checkpoint budget `C`: a WC-ordered pipeline
//!    whose store drains are capped at `C` concurrently outstanding
//!    (each outstanding store miss holds one checkpoint) backed by a
//!    scalable store buffer whose *peak occupancy* we record.
//!
//! The reported requirement is the cheapest budget whose IPC reaches the
//! WC machine's (within [`WC_TOLERANCE`]), priced by
//! [`crate::SpeculationAccounting`].

use crate::account::SpeculationAccounting;
use ise_cpu::{run_cores, Core, SbPeaks};
use ise_engine::Cycle;
use ise_mem::MemoryHierarchy;
use ise_types::config::{CoreConfig, SystemConfig};
use ise_types::model::ConsistencyModel;
use ise_types::{CoreId, Trace};

/// Fraction of WC IPC that counts as "achieving the full WC performance
/// benefits".
pub const WC_TOLERANCE: f64 = 0.995;

/// Scalable store-buffer capacity used while sweeping (generous: the
/// paper's point is that the *required* state is what we measure, so the
/// sweep must not clip it).
const SCALABLE_SB_CAP: usize = 8192;

/// One sweep sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Checkpoint budget.
    pub checkpoints: usize,
    /// Aggregate IPC achieved.
    pub ipc: f64,
    /// Peak scalable store-buffer occupancy observed (entries).
    pub peak_sb: usize,
    /// Priced speculation state in bytes for this budget.
    pub state_bytes: usize,
}

/// The result of one workload's sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// SC (forced-precise) aggregate IPC.
    pub sc_ipc: f64,
    /// WC aggregate IPC.
    pub wc_ipc: f64,
    /// All sampled budgets.
    pub points: Vec<SweepPoint>,
    /// The cheapest point reaching [`WC_TOLERANCE`] × WC IPC, if any.
    pub required: Option<SweepPoint>,
}

impl SweepResult {
    /// Picks the required point out of `points`.
    fn new(sc_ipc: f64, wc_ipc: f64, points: Vec<SweepPoint>) -> Self {
        let required = points
            .iter()
            .filter(|p| p.ipc >= WC_TOLERANCE * wc_ipc)
            .min_by_key(|p| p.state_bytes)
            .copied();
        SweepResult {
            sc_ipc,
            wc_ipc,
            points,
            required,
        }
    }

    /// WC speedup over SC (Table 3's "WC speedup" column).
    pub fn wc_speedup(&self) -> f64 {
        if self.sc_ipc == 0.0 {
            0.0
        } else {
            self.wc_ipc / self.sc_ipc
        }
    }

    /// Required speculation state in KB (Table 3's right-hand columns), if
    /// some budget achieved WC performance.
    pub fn required_kb(&self) -> Option<f64> {
        self.required.map(|p| p.state_bytes as f64 / 1024.0)
    }
}

/// One core per trace; `budget` caps each core's concurrently
/// outstanding store drains.
fn make_cores(core_cfg: CoreConfig, traces: &[Trace], budget: Option<usize>) -> Vec<Core> {
    traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut core = Core::new(CoreId(i), core_cfg, t.clone());
            if let Some(b) = budget {
                core.set_sb_max_in_flight(b);
            }
            core
        })
        .collect()
}

/// The ASO machine's core: WC-ordered, behind the scalable store buffer.
fn aso_core(cfg: &SystemConfig) -> CoreConfig {
    CoreConfig {
        sb_entries: SCALABLE_SB_CAP,
        ..cfg.core.with_model(ConsistencyModel::Wc)
    }
}

fn aggregate_ipc(cores: &[Core]) -> f64 {
    let retired: u64 = cores.iter().map(|c| c.stats().retired).sum();
    let cycles: u64 = cores.iter().map(|c| c.stats().cycles).max().unwrap_or(0);
    if cycles == 0 {
        0.0
    } else {
        retired as f64 / cycles as f64
    }
}

/// Whether a WC-ordered run with `sb_entries` buffer slots, in-flight
/// cap `budget` (`None`: uncapped) and these peaks was unconstrained:
/// its buffer never refused a store and its cap never refused a drain.
/// Such a run replays the uncapped, unbounded machine step for step.
/// A refused store ends its step with `len == sb_entries`. A refused
/// drain leaves an idle entry behind, so its step ends with
/// `in_flight == budget` and `len > budget` (see [`run_cores`]).
fn unconstrained(peaks: SbPeaks, sb_entries: usize, budget: Option<usize>) -> bool {
    peaks.len < sb_entries && budget.is_none_or(|b| peaks.in_flight < b || peaks.len <= b)
}

#[cfg(test)]
thread_local! {
    /// Machines this thread's sweeps simulated.
    static MACHINE_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Sweeps checkpoint budgets for one workload on the clock `skip`
/// selects (the cycle-skipping one when `true`; both give identical
/// results). `traces` supplies one instruction stream per core; the
/// system is widened to `traces.len()` cores if it has fewer.
///
/// Every machine runs on one hierarchy, [`MemoryHierarchy::reset`]
/// between runs. A budget is simulated only if no earlier run answers
/// it: once a run proves unconstrained (its buffer never refused a store
/// and its cap never refused a drain), with peak in-flight count
/// `m`, every budget of at least `m` would replay it step for step and
/// takes its result. The WC run is tested first, then budgets run
/// largest first (DESIGN.md §15). Points come back in `budgets` order.
///
/// # Panics
///
/// Panics if `traces` is empty, a budget is zero, a workload raises an
/// exception (the Table 3 study is exception-free), or `max_cycles`
/// elapses.
pub fn sweep_checkpoints_clocked(
    cfg: &SystemConfig,
    traces: &[Trace],
    budgets: &[usize],
    max_cycles: Cycle,
    skip: bool,
) -> SweepResult {
    assert!(!traces.is_empty(), "need at least one trace");
    assert!(
        budgets.iter().all(|&b| b > 0),
        "in-flight cap must be positive"
    );
    let mut run_cfg = *cfg;
    run_cfg.cores = run_cfg.cores.max(traces.len());

    // The hierarchy never reads `cfg.core`, so the SC, WC and ASO
    // machines share it. `run` resets it, runs one machine to
    // completion and returns its aggregate IPC, its store-buffer peaks
    // and whether it was unconstrained.
    let mut hier = MemoryHierarchy::new(run_cfg);
    let mut run = |core_cfg: CoreConfig, budget: Option<usize>| {
        #[cfg(test)]
        MACHINE_RUNS.with(|n| n.set(n.get() + 1));
        let mut cores = make_cores(core_cfg, traces, budget);
        hier.reset();
        let peaks = run_cores(&mut cores, &mut hier, max_cycles, skip);
        let free = unconstrained(peaks, core_cfg.sb_entries, budget);
        (aggregate_ipc(&cores), peaks, free)
    };
    let (sc_ipc, ..) = run(run_cfg.core.with_model(ConsistencyModel::Sc), None);
    let (wc_ipc, wc_peaks, wc_free) = run(run_cfg.core.with_model(ConsistencyModel::Wc), None);

    let acc = SpeculationAccounting::for_system(&run_cfg);
    let aso = aso_core(&run_cfg);
    let mut order: Vec<usize> = (0..budgets.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(budgets[i]));
    // The IPC and peaks of the uncapped machine, once an unconstrained
    // run has produced them.
    let mut uncapped = wc_free.then_some((wc_ipc, wc_peaks));
    let mut points: Vec<(usize, SweepPoint)> = order
        .into_iter()
        .map(|i| {
            let budget = budgets[i];
            let (ipc, peaks) = match uncapped {
                Some((ipc, peaks)) if budget >= peaks.in_flight => (ipc, peaks),
                _ => {
                    let (ipc, peaks, free) = run(aso, Some(budget));
                    if free {
                        uncapped = Some((ipc, peaks));
                    }
                    (ipc, peaks)
                }
            };
            let point = SweepPoint {
                checkpoints: budget,
                ipc,
                peak_sb: peaks.len,
                state_bytes: acc.state_bytes(budget, peaks.len),
            };
            (i, point)
        })
        .collect();
    points.sort_by_key(|&(i, _)| i);
    let points: Vec<SweepPoint> = points.into_iter().map(|(_, p)| p).collect();

    SweepResult::new(sc_ipc, wc_ipc, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::addr::Addr;
    use ise_types::Instruction;

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::isca23();
        cfg.cores = 2;
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg
    }

    /// A store-miss-heavy trace: the case WC/ASO accelerate.
    fn store_trace(seed: u64, n: u64) -> Trace {
        let mut v = Vec::new();
        for i in 0..n {
            v.push(Instruction::store(Addr::new((seed + i) * 4096), i));
            v.push(Instruction::other());
            v.push(Instruction::other());
        }
        v.into()
    }

    #[test]
    fn wc_beats_sc_and_big_budget_reaches_wc() {
        let cfg = small_cfg();
        let traces = vec![store_trace(0, 60), store_trace(1 << 20, 60)];
        let r = sweep_checkpoints_clocked(&cfg, &traces, &[1, 8, 32], 10_000_000, true);
        assert!(r.wc_speedup() > 1.2, "speedup {:.2}", r.wc_speedup());
        let best = r.points.last().unwrap();
        assert!(
            best.ipc >= WC_TOLERANCE * r.wc_ipc,
            "32 checkpoints should reach WC ({:.3} vs {:.3})",
            best.ipc,
            r.wc_ipc
        );
        assert!(r.required.is_some());
    }

    #[test]
    fn ipc_is_monotone_in_checkpoints_roughly() {
        let cfg = small_cfg();
        let traces = vec![store_trace(0, 60)];
        let r = sweep_checkpoints_clocked(&cfg, &traces, &[1, 4, 16], 10_000_000, true);
        assert!(
            r.points[0].ipc <= r.points[2].ipc * 1.02,
            "more checkpoints should not hurt: {:?}",
            r.points
        );
    }

    #[test]
    fn state_includes_overlay_floor() {
        let cfg = small_cfg();
        let traces = vec![store_trace(0, 20)];
        let r = sweep_checkpoints_clocked(&cfg, &traces, &[2], 10_000_000, true);
        let acc = SpeculationAccounting::for_system(&cfg);
        assert!(r.points[0].state_bytes >= acc.cache_overlay_bytes);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn empty_traces_rejected() {
        sweep_checkpoints_clocked(&small_cfg(), &[], &[1], 1000, true);
    }

    #[test]
    #[should_panic(expected = "in-flight cap must be positive")]
    fn zero_budget_rejected() {
        // Store-free, so the memo would otherwise answer budget 0.
        let traces = vec![vec![Instruction::other(); 4].into()];
        sweep_checkpoints_clocked(&small_cfg(), &traces, &[8, 0], 10_000, true);
    }

    /// Runs one machine on a fresh hierarchy: its aggregate IPC and
    /// store-buffer peaks.
    fn run_fresh(
        run_cfg: SystemConfig,
        traces: &[Trace],
        core_cfg: CoreConfig,
        budget: Option<usize>,
        skip: bool,
    ) -> (f64, SbPeaks) {
        let mut cores = make_cores(core_cfg, traces, budget);
        let mut hier = MemoryHierarchy::new(run_cfg);
        let peaks = run_cores(&mut cores, &mut hier, 10_000_000, skip);
        (aggregate_ipc(&cores), peaks)
    }

    /// The sweep without hierarchy reuse or answered budgets: a new
    /// hierarchy for every machine, and one run per budget in input
    /// order. Also returns the WC machine's peaks.
    fn reference_sweep(
        cfg: &SystemConfig,
        traces: &[Trace],
        budgets: &[usize],
        skip: bool,
    ) -> (SweepResult, SbPeaks) {
        let mut run_cfg = *cfg;
        run_cfg.cores = run_cfg.cores.max(traces.len());
        let run = |core_cfg, budget| run_fresh(run_cfg, traces, core_cfg, budget, skip);
        let (sc_ipc, _) = run(run_cfg.core.with_model(ConsistencyModel::Sc), None);
        let (wc_ipc, wc_peaks) = run(run_cfg.core.with_model(ConsistencyModel::Wc), None);
        let acc = SpeculationAccounting::for_system(&run_cfg);
        let points = budgets
            .iter()
            .map(|&budget| {
                let (ipc, peaks) = run(aso_core(&run_cfg), Some(budget));
                SweepPoint {
                    checkpoints: budget,
                    ipc,
                    peak_sb: peaks.len,
                    state_bytes: acc.state_bytes(budget, peaks.len),
                }
            })
            .collect();
        (SweepResult::new(sc_ipc, wc_ipc, points), wc_peaks)
    }

    /// Runs one sweep and returns it with the machines it simulated.
    fn counted_sweep(
        cfg: &SystemConfig,
        traces: &[Trace],
        budgets: &[usize],
        skip: bool,
    ) -> (SweepResult, usize) {
        MACHINE_RUNS.with(|n| n.set(0));
        let r = sweep_checkpoints_clocked(cfg, traces, budgets, 10_000_000, skip);
        (r, MACHINE_RUNS.with(|n| n.get()))
    }

    #[test]
    fn sweep_matches_the_fresh_hierarchy_reference_on_every_table3_mix() {
        use ise_workloads::mixes::{synthesize, table3_mixes};
        let mut base = SystemConfig::isca23();
        base.cores = 2;
        // Table 3's systems, and one whose 8-entry WC buffer fills, so
        // that budget runs answer budgets too.
        let mut small_sb = base;
        small_sb.core.sb_entries = 8;
        let systems = [
            base,
            base.with_double_memory_latency(),
            base.with_store_skew(4),
            small_sb,
        ];
        // Unsorted, repeated, single, and far above any peak.
        let lists: [&[usize]; 4] = [
            &[16, 1, 64, 4, 8192, 2, 32],
            &[4, 32, 4, 1, 32],
            &[1],
            &[8192],
        ];
        let (mut simulated, mut by_wc, mut by_budget) = (0, 0, 0);
        for spec in table3_mixes() {
            let w = synthesize(&spec, 1_000, 2, 0x7a31);
            for cfg in &systems {
                for skip in [false, true] {
                    for budgets in lists {
                        let (r, runs) = counted_sweep(cfg, &w.traces, budgets, skip);
                        let (want, wc) = reference_sweep(cfg, &w.traces, budgets, skip);
                        assert_eq!(r, want, "{} {budgets:?} skip={skip}", spec.name);
                        let wc_answers = if unconstrained(wc, cfg.core.sb_entries, None) {
                            budgets.iter().filter(|&&b| b >= wc.in_flight).count()
                        } else {
                            0
                        };
                        simulated += runs - 2;
                        by_wc += wc_answers;
                        by_budget += budgets.len() - (runs - 2) - wc_answers;
                    }
                }
            }
        }
        // Every way a point is produced was exercised: simulated,
        // answered by the WC run, and answered by a budget run.
        assert!(
            simulated > 0 && by_wc > 0 && by_budget > 0,
            "{simulated} simulated, {by_wc} answered by WC, {by_budget} by a budget run"
        );
    }

    /// Back-to-back store misses: retirement outruns the drains.
    fn store_burst(n: u64) -> Trace {
        (0..n)
            .map(|i| Instruction::store(Addr::new(i * 4096), i))
            .collect()
    }

    #[test]
    fn a_full_wc_buffer_does_not_stand_in_for_the_uncapped_machine() {
        let cfg = small_cfg();
        let traces = vec![store_burst(60)];
        let budgets = [8192, 64, 4];
        let (want, wc) = reference_sweep(&cfg, &traces, &budgets, true);
        assert_eq!(wc.len, cfg.core.sb_entries, "the WC buffer must fill");
        assert!(
            want.points[0].peak_sb > wc.len,
            "the uncapped machine must buffer more than WC holds: {want:?}"
        );
        // Budget 4 binds: its run ends at `m == B` and differs from the
        // uncapped machine, so `m == B` must not count as unconstrained.
        let (ipc, peaks) = run_fresh(cfg, &traces, aso_core(&cfg), Some(4), true);
        assert_eq!(peaks.in_flight, 4);
        assert_ne!(ipc, want.points[0].ipc);
        assert!(!unconstrained(peaks, SCALABLE_SB_CAP, Some(4)));
        for skip in [false, true] {
            let (r, runs) = counted_sweep(&cfg, &traces, &budgets, skip);
            assert_eq!(r, want, "skip={skip}");
            // SC, WC, budget 8192 (answering 64) and budget 4.
            assert_eq!(runs, 4, "skip={skip}");
        }
    }

    #[test]
    fn unconstrained_is_tight_on_both_sides() {
        let p = |len, in_flight| SbPeaks { len, in_flight };
        // The WC run: only a full buffer refuses a store.
        assert!(unconstrained(p(31, 31), 32, None));
        assert!(!unconstrained(p(32, 2), 32, None));
        // A capped run: the cap refuses only at `in_flight == B` with an
        // idle entry left over.
        assert!(unconstrained(p(40, 3), SCALABLE_SB_CAP, Some(4)));
        assert!(!unconstrained(p(40, 4), SCALABLE_SB_CAP, Some(4)));
        assert!(unconstrained(p(4, 4), SCALABLE_SB_CAP, Some(4)));
        assert!(!unconstrained(p(5, 4), SCALABLE_SB_CAP, Some(4)));
        assert!(!unconstrained(
            p(SCALABLE_SB_CAP, 3),
            SCALABLE_SB_CAP,
            Some(4)
        ));
    }

    /// The work count of `table3 --quick` (`Table3Scale::quick`): 8
    /// mixes x 3 systems, 2 cores of 3 000 instructions, budgets
    /// `[1, 4, 16, 32]`. Running every machine takes 24 x 6 = 144 runs;
    /// answering only budgets at or above an earlier capped run's peak
    /// occupancy took 120.
    #[test]
    fn table3_quick_sweeps_simulate_93_machines() {
        use ise_workloads::mixes::{synthesize, table3_mixes};
        let mut base = SystemConfig::isca23();
        base.cores = 2;
        let systems = [
            base,
            base.with_double_memory_latency(),
            base.with_store_skew(4),
        ];
        let mut runs = 0;
        for spec in table3_mixes() {
            let w = synthesize(&spec, 3_000, 2, 0x7a31);
            for cfg in &systems {
                runs += counted_sweep(cfg, &w.traces, &[1, 4, 16, 32], true).1;
            }
        }
        assert_eq!(runs, 93);
    }

    #[test]
    fn cycle_skip_sweep_matches_reference() {
        let cfg = small_cfg();
        let traces = vec![store_trace(0, 60), store_trace(1 << 20, 60)];
        let reference = sweep_checkpoints_clocked(&cfg, &traces, &[1, 8, 32], 10_000_000, false);
        let skipped = sweep_checkpoints_clocked(&cfg, &traces, &[1, 8, 32], 10_000_000, true);
        assert_eq!(reference, skipped);
    }
}
