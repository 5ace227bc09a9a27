//! End-to-end gates for the adversarial fault-plan search: the
//! seeded-weakness self-check, scorecard determinism across worker
//! counts and clock pins, and the corruption-win → shrunk-regression
//! pipeline.

use imprecise_store_exceptions::adversary::{
    evaluate, run_search, self_check, shrink_corruption, AdvPlan, EvalConfig, Objective,
    SearchConfig,
};
use imprecise_store_exceptions::fuzz::write_reproducers;
use imprecise_store_exceptions::litmus::parse_litmus;
use imprecise_store_exceptions::types::{ExceptionKind, FaultKind};

/// A smaller-than-smoke shape for the determinism gates, so tier-1 time
/// stays modest.
fn tiny(seed: u64, eval: EvalConfig) -> SearchConfig {
    SearchConfig {
        rounds: 3,
        beam_width: 2,
        mutations_per_parent: 3,
        ..SearchConfig::smoke(seed, eval)
    }
}

#[test]
fn seeded_weakness_self_check_separates_the_two_kernels() {
    let sc = self_check(1, 4, true);
    assert!(
        sc.unhardened.win(Objective::Corrupt),
        "the search must find a silent-corruption plan against the unhardened kernel:\n{}",
        sc.unhardened.to_registry().render()
    );
    assert!(
        sc.unhardened.win(Objective::Stall),
        "the search must find a continuation-storm plan against the unhardened kernel:\n{}",
        sc.unhardened.to_registry().render()
    );
    assert!(
        !sc.hardened.win(Objective::Corrupt) && !sc.hardened.win(Objective::Stall),
        "the hardened kernel must resist both:\n{}",
        sc.hardened.to_registry().render()
    );
    assert!(sc.passed());
    // The objective-(1) win carries its genome for the regression path.
    assert!(sc.unhardened.winning_genome(Objective::Corrupt).is_some());
}

#[test]
fn scorecard_is_byte_identical_across_worker_counts() {
    let cfg = tiny(5, EvalConfig::unhardened());
    let one = run_search(&cfg, 1, true).to_registry().render();
    let four = run_search(&cfg, 4, true).to_registry().render();
    assert_eq!(one, four);
}

#[test]
fn scorecard_is_byte_identical_across_clock_pins() {
    let cfg = tiny(5, EvalConfig::hardened());
    let skip = run_search(&cfg, 2, true).to_registry().render();
    let r = run_search(&cfg, 2, false).to_registry().render();
    assert_eq!(skip, r);
}

#[test]
fn a_corruption_win_becomes_a_replayable_regression() {
    // The canonical objective-(1) winner: stubborn transients on two
    // pool pages against the unhardened kernel.
    let plan = AdvPlan {
        pages: vec![0, 1],
        kind: FaultKind::Transient { clears_after: 128 },
        exception: ExceptionKind::BusError,
        fsb_capacity: 32,
    };
    let outcome = evaluate(&plan, &EvalConfig::unhardened(), true);
    assert!(
        Objective::Corrupt.win(&outcome),
        "violations {:?} corruption {:?}",
        outcome.violations,
        outcome.corruption
    );

    let finding = shrink_corruption(&plan, 20260808).expect("the win reproduces and shrinks");
    assert!(finding.detail.contains("applied store not visible"));
    assert_eq!(finding.case.program.len(), 1, "shrunk to one store");

    let dir =
        std::env::temp_dir().join(format!("ise-adversary-regress-test-{}", std::process::id()));
    let paths = write_reproducers(std::slice::from_ref(&finding), &dir).expect("regression writes");
    let text = std::fs::read_to_string(&paths[0]).expect("regression reads back");
    let parsed = parse_litmus(&text).expect("regression reparses");
    assert_eq!(parsed.test.program, finding.case.program);
    assert!(
        text.contains("sim-invariant"),
        "the corpus name carries the finding kind: {text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
