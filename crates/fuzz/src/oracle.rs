//! The tri-oracle differential check.
//!
//! One [`FuzzCase`] is run through three independent implementations of
//! the paper's co-design and every disagreement is a [`Finding`]:
//!
//! 1. **Operational machine** (`ise-litmus::machine`) — exhaustive DFS
//!    over every interleaving, run twice on small cases: memoized and
//!    bare. The two traversals must produce the identical
//!    [`ExplorationResult`].
//! 2. **Axiomatic checker** (`ise-consistency`) — the machine's
//!    observed outcomes must be a subset of the model's allowed set.
//!    Only asserted for same-stream drains: split-stream legitimately
//!    admits the Fig. 2a race under PC (that *is* the paper's point),
//!    so its outcomes are not bounded by the model.
//! 3. **Timing simulator** (`ise-sim::litmus`) — runs once per clock
//!    mode (naive tick loop vs event-driven skipping); the two stats
//!    registries must agree byte for byte, post-run invariants must
//!    hold, and the run must stay consistent with the machine along two
//!    one-directional planes. One-directional because the simulator
//!    takes *one* schedule while the machine explores all of them: the
//!    sim observing something the machine can't is a bug, the machine
//!    reaching states the sim didn't take is not.
//!
//! The exception plane: a case with no faulting locations must take no
//! exceptions, and the simulator must not take an imprecise (resp.
//! precise) exception when no machine path detects one. The value
//! plane: the simulator's functional memory only receives OS-applied
//! stores (clean stores complete inside the timing caches), so each
//! location's final value must be a member of the machine's
//! reachable-value envelope ([`ExplorationResult::mem_values`]), which
//! always contains the initial zero.

use crate::gen::FuzzCase;
use ise_consistency::program::{LitmusProgram, Loc, Outcome};
use ise_consistency::BatchChecker;
use ise_litmus::machine::{explore, ExplorationResult, MachineConfig, SeededBug};
use ise_types::config::OsCostConfig;
use ise_types::model::{ConsistencyModel, DrainPolicy};

/// Which oracle pair disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FindingKind {
    /// Memoized and bare machine explorations differ.
    MemoMismatch,
    /// The machine observed an outcome the axiomatic model forbids.
    AxiomViolation,
    /// The two simulator clocks produced different stats registries.
    ClockDivergence,
    /// A simulator post-run invariant failed (store conservation, FSB
    /// drain, Table 5 contract, livelock, or an unexpected kill).
    SimInvariant,
    /// The simulator took an exception no machine path detects.
    SimExceptionPlane,
    /// A final memory value outside the machine's reachable envelope.
    SimValuePlane,
}

impl FindingKind {
    /// Every kind, in severity order (stable for telemetry keys).
    pub const ALL: [FindingKind; 6] = [
        FindingKind::MemoMismatch,
        FindingKind::AxiomViolation,
        FindingKind::ClockDivergence,
        FindingKind::SimInvariant,
        FindingKind::SimExceptionPlane,
        FindingKind::SimValuePlane,
    ];

    /// Stable kebab-case name (telemetry key, regression file names).
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::MemoMismatch => "memo-mismatch",
            FindingKind::AxiomViolation => "axiom-violation",
            FindingKind::ClockDivergence => "clock-divergence",
            FindingKind::SimInvariant => "sim-invariant",
            FindingKind::SimExceptionPlane => "sim-exception-plane",
            FindingKind::SimValuePlane => "sim-value-plane",
        }
    }
}

/// One oracle disagreement on one case, of kind `K` ([`FindingKind`]
/// here, [`TrisectFindingKind`](crate::TrisectFindingKind) for source
/// cases).
#[derive(Debug, Clone)]
pub struct Finding<K> {
    /// Which check failed.
    pub kind: K,
    /// Human-readable explanation.
    pub detail: String,
    /// For [`FindingKind::AxiomViolation`] and the trisection escape
    /// kinds: the observed-but-forbidden outcomes (these become
    /// `forbid:` lines in rendered reproducers).
    pub outcomes: Vec<Outcome>,
}

/// How the oracles run.
#[derive(Debug, Clone, Copy)]
pub struct OracleConfig {
    /// Opt-in machine mutation for harness self-tests; `None` outside
    /// them.
    pub seeded_bug: Option<SeededBug>,
    /// Whether to run the timing-simulator legs (orders of magnitude
    /// slower than the machine + axiom legs; campaigns that only
    /// exercise the formal oracles turn it off).
    pub run_sim: bool,
    /// OS cost/recovery configuration for the simulator legs; `None`
    /// keeps the litmus default. The adversary campaign replays its
    /// objective-(1) wins here with the *unhardened* recovery config so
    /// the shrinker reproduces the silent-drop corruption it found.
    pub os_costs: Option<OsCostConfig>,
    /// Denial count before a transient fault-overlay page heals. The
    /// default of 1 heals at the drain denial (the overlay only probes
    /// recovery paths); adversary replays raise it to force the retry
    /// ladder into exhaustion.
    pub overlay_clears_after: u32,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            seeded_bug: None,
            run_sim: false,
            os_costs: None,
            overlay_clears_after: 1,
        }
    }
}

fn machine_config(case: &FuzzCase, oracle: &OracleConfig, memoize: bool) -> MachineConfig {
    let mut cfg = MachineConfig::baseline(case.model)
        .with_policy(case.policy)
        .with_memoize(memoize);
    cfg.faulting = case.faulting_set();
    if let Some(bug) = oracle.seeded_bug {
        cfg = cfg.with_seeded_bug(bug);
    }
    cfg
}

/// Whether the case is small enough to re-walk without memoization.
///
/// The bare traversal's cost is the number of *paths*, not states —
/// exponential in interleavings and multiplied further by fault/drain
/// micro-steps (a 3-thread 8-statement faulting case takes seconds
/// where the memoized walk takes a millisecond). The memo oracle
/// therefore runs on the deterministic subset of cases with at most
/// two threads or at most five statements: every machine feature still
/// crosses the gate (faults, fences, atomics, both policies), only the
/// widest interleaving products are skipped.
fn memo_check_feasible(case: &FuzzCase) -> bool {
    case.program.threads.len() <= 2 || case.program.len() <= 5
}

/// Field-by-field agreement on every property of the state graph;
/// `expansions` is the traversal's work count and differs by design.
fn results_equal(a: &ExplorationResult, b: &ExplorationResult) -> bool {
    a.outcomes == b.outcomes
        && a.states == b.states
        && a.imprecise_detections == b.imprecise_detections
        && a.precise_exceptions == b.precise_exceptions
        && a.mem_values == b.mem_values
}

/// Runs every applicable oracle on `case` and returns the
/// disagreements (empty for a healthy case).
pub fn check_case(
    case: &FuzzCase,
    oracle: &OracleConfig,
    batch: &mut BatchChecker,
) -> Vec<Finding<FindingKind>> {
    let mut findings = Vec::new();

    // Oracle 1: the machine against itself (memoized vs bare walk),
    // on cases small enough for the path-exponential bare traversal.
    let machine = explore(&case.program, &machine_config(case, oracle, true));
    if memo_check_feasible(case) {
        let bare = explore(&case.program, &machine_config(case, oracle, false));
        if !results_equal(&machine, &bare) {
            findings.push(Finding {
                kind: FindingKind::MemoMismatch,
                detail: format!(
                    "memoized ({} outcomes, {} states) vs bare ({} outcomes, {} states)",
                    machine.outcomes.len(),
                    machine.states,
                    bare.outcomes.len(),
                    bare.states,
                ),
                outcomes: Vec::new(),
            });
        }
    }

    // Oracle 2: machine vs axioms — same-stream only (split-stream
    // deliberately escapes the model; Fig. 2a).
    if case.policy == DrainPolicy::SameStream {
        let violating = batch.violations(&case.program, case.model, &machine.outcomes);
        if !violating.is_empty() {
            findings.push(Finding {
                kind: FindingKind::AxiomViolation,
                detail: format!(
                    "{} observed outcome(s) forbidden under {}",
                    violating.len(),
                    case.model,
                ),
                outcomes: violating,
            });
        }
    }

    // Oracle 3: the timing simulator — same-stream only (the assembled
    // system implements the paper's design, not the ablation).
    if oracle.run_sim && case.policy == DrainPolicy::SameStream {
        let overlay = case.overlay.then_some(ise_sim::FaultOverlay {
            seed: case.seed,
            clears_after: oracle.overlay_clears_after,
        });
        let leg = sim_leg(
            &case.program,
            &case.faulting,
            case.model,
            overlay,
            oracle.os_costs,
        );
        if let Some(detail) = leg.clock_divergence {
            findings.push(Finding {
                kind: FindingKind::ClockDivergence,
                detail,
                outcomes: Vec::new(),
            });
        }
        if let Some(detail) = leg.invariant {
            findings.push(Finding {
                kind: FindingKind::SimInvariant,
                detail,
                outcomes: Vec::new(),
            });
        }
        // The machine planes only apply when the sim saw the same fault
        // environment the machine modeled (EInject pages, not the
        // transient overlay).
        if !case.overlay {
            let sim = &leg.run;
            let mut plane = Vec::new();
            if case.faulting.is_empty()
                && (sim.stats.imprecise_exceptions > 0 || sim.stats.precise_exceptions > 0)
            {
                plane.push(format!(
                    "faultless case took {} imprecise + {} precise exceptions",
                    sim.stats.imprecise_exceptions, sim.stats.precise_exceptions,
                ));
            }
            if machine.imprecise_detections == 0 && sim.stats.imprecise_exceptions > 0 {
                plane.push(format!(
                    "sim took {} imprecise exceptions but no machine path detects one",
                    sim.stats.imprecise_exceptions,
                ));
            }
            if machine.precise_exceptions == 0 && sim.stats.precise_exceptions > 0 {
                plane.push(format!(
                    "sim took {} precise exceptions but no machine path raises one",
                    sim.stats.precise_exceptions,
                ));
            }
            for detail in plane {
                findings.push(Finding {
                    kind: FindingKind::SimExceptionPlane,
                    detail,
                    outcomes: Vec::new(),
                });
            }
            for (i, loc) in case.program.locations().into_iter().enumerate() {
                if !machine.mem_values[i].contains(&sim.mem[i]) {
                    findings.push(Finding {
                        kind: FindingKind::SimValuePlane,
                        detail: format!(
                            "location {loc} ended at {} — not reachable on any machine path \
                             (envelope {:?})",
                            sim.mem[i], machine.mem_values[i],
                        ),
                        outcomes: Vec::new(),
                    });
                }
            }
        }
    }

    findings
}

/// What the timing-simulator leg of a campaign oracle found.
pub(crate) struct SimLeg {
    /// The cycle-skipping run, whose planes the caller compares.
    pub run: ise_sim::LitmusRun,
    /// Set if the two clocks rendered different stats registries.
    pub clock_divergence: Option<String>,
    /// The first run's kill or audit findings, joined, if either run
    /// killed a process or failed the audit.
    pub invariant: Option<String>,
}

/// Runs `prog` on the timing simulator under both clocks (naive first)
/// — the sim leg the fuzz and trisection oracles share; each maps the
/// result to its own finding kinds.
pub(crate) fn sim_leg(
    prog: &LitmusProgram,
    faulting: &[Loc],
    model: ConsistencyModel,
    overlay: Option<ise_sim::FaultOverlay>,
    os_costs: Option<OsCostConfig>,
) -> SimLeg {
    let [slow, fast] = [false, true]
        .map(|skip| ise_sim::run_litmus_case(prog, faulting, model, skip, overlay, os_costs));
    let invariant = [&slow, &fast]
        .into_iter()
        .find(|run| !run.violations.is_empty() || run.any_killed)
        .map(|run| {
            if run.any_killed {
                "a process was killed on a recoverable workload".to_string()
            } else {
                run.violations.join("; ")
            }
        });
    SimLeg {
        clock_divergence: (slow.stats_json != fast.stats_json)
            .then(|| "naive and cycle-skipping clocks disagree on the stats registry".to_string()),
        invariant,
        run: fast,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    #[test]
    fn healthy_cases_produce_no_findings() {
        let gen_cfg = GenConfig::default();
        let oracle = OracleConfig::default();
        let mut batch = BatchChecker::new();
        for seed in 0..60 {
            let case = generate(seed, &gen_cfg);
            let findings = check_case(&case, &oracle, &mut batch);
            assert!(findings.is_empty(), "seed {seed}: {findings:?}");
        }
    }

    #[test]
    fn a_seeded_pc_drain_bug_is_caught_as_an_axiom_violation() {
        let gen_cfg = GenConfig::default();
        let oracle = OracleConfig {
            seeded_bug: Some(SeededBug::PcDrainReorder),
            run_sim: false,
            ..OracleConfig::default()
        };
        let mut batch = BatchChecker::new();
        let caught = (0..150).any(|seed| {
            let case = generate(seed, &gen_cfg);
            check_case(&case, &oracle, &mut batch)
                .iter()
                .any(|f| f.kind == FindingKind::AxiomViolation)
        });
        assert!(caught, "150 seeds never exposed the PC drain-reorder bug");
    }

    #[test]
    fn a_seeded_fence_bug_is_caught_as_an_axiom_violation() {
        // The shape that exposes a broken `fence w,w` is narrow — a WC
        // message-passing pair with an ordered read side — so drive the
        // oracle with it directly instead of waiting for the generator
        // to stumble into it.
        use ise_consistency::program::{LitmusProgram, Loc, Stmt};
        use ise_types::instr::{FenceKind, Reg};
        let program = LitmusProgram::new(vec![
            vec![
                Stmt::write(Loc(0), 1),
                Stmt::fence(FenceKind::StoreStore),
                Stmt::write(Loc(1), 1),
            ],
            vec![
                Stmt::read(Loc(1), Reg(0)),
                Stmt::read(Loc(0), Reg(1)).depending_on(Reg(0)),
            ],
        ]);
        let case = FuzzCase {
            seed: 0,
            program,
            model: ise_types::model::ConsistencyModel::Wc,
            policy: DrainPolicy::SameStream,
            faulting: Vec::new(),
            overlay: false,
        };
        let mut batch = BatchChecker::new();
        let healthy = check_case(&case, &OracleConfig::default(), &mut batch);
        assert!(healthy.is_empty(), "{healthy:?}");
        let buggy = check_case(
            &case,
            &OracleConfig {
                seeded_bug: Some(SeededBug::FenceIgnoresStoreBuffer),
                run_sim: false,
                ..OracleConfig::default()
            },
            &mut batch,
        );
        assert!(
            buggy.iter().any(|f| f.kind == FindingKind::AxiomViolation),
            "the broken fence admitted no forbidden outcome: {buggy:?}"
        );
    }

    #[test]
    fn sim_legs_agree_on_a_faulting_case() {
        let gen_cfg = GenConfig::default();
        let oracle = OracleConfig {
            seeded_bug: None,
            run_sim: true,
            ..OracleConfig::default()
        };
        let mut batch = BatchChecker::new();
        // Find a same-stream faulting case so all three sim planes run.
        let seed = (0..200)
            .find(|&s| {
                let c = generate(s, &gen_cfg);
                c.policy == DrainPolicy::SameStream && !c.faulting.is_empty() && !c.overlay
            })
            .expect("no faulting same-stream seed in range");
        let case = generate(seed, &gen_cfg);
        let findings = check_case(&case, &oracle, &mut batch);
        assert!(findings.is_empty(), "seed {seed}: {findings:?}");
    }
}
