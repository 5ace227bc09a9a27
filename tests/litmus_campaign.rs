//! The full litmus campaign as an integration test (Table 6 / §6.3).

use imprecise_store_exceptions::consistency::axiom::allowed_outcomes;
use imprecise_store_exceptions::litmus::corpus::{corpus, Family};
use imprecise_store_exceptions::litmus::machine::{explore, MachineConfig};
use imprecise_store_exceptions::litmus::runner::{run_corpus, run_test_with_policy, FaultMode};
use imprecise_store_exceptions::prelude::*;

#[test]
fn table6_campaign_has_no_violations() {
    let summary = run_corpus(&corpus(), 4);
    assert!(summary.all_passed(), "violations: {:#?}", {
        summary
            .reports
            .iter()
            .filter(|r| !r.passed())
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
    });
    // All eight Table 6 families are covered and each family saw
    // injected faults.
    let fams = summary.by_family();
    assert_eq!(fams.len(), 8);
    for (fam, cases, passed) in &fams {
        assert!(*cases >= 12, "{fam}: only {cases} cases");
        assert_eq!(cases, passed);
    }
    assert!(
        summary.imprecise_detections() > 100,
        "campaign took too few imprecise exceptions: {}",
        summary.imprecise_detections()
    );
}

#[test]
fn split_stream_is_refuted_same_stream_is_not() {
    // The §4.5 ablation across the whole corpus under PC with partial
    // faulting can only be *stronger* on the designed path: same-stream
    // never violates.
    for test in corpus().iter().take(10) {
        let report = run_test_with_policy(
            test,
            ConsistencyModel::Pc,
            FaultMode::All,
            DrainPolicy::SameStream,
        );
        assert!(report.passed(), "{}", report);
    }
}

#[test]
fn sc_machine_observations_are_sc_allowed() {
    // The SC (no store buffer) machine must stay within SC's axiomatic
    // envelope on every corpus program, faults included.
    for test in corpus() {
        for faults in [false, true] {
            let mut cfg = MachineConfig::baseline(ConsistencyModel::Sc);
            if faults {
                cfg = cfg.with_all_faulting(&test.program);
            }
            let result = explore(&test.program, &cfg);
            let allowed = allowed_outcomes(&test.program, ConsistencyModel::Sc);
            assert!(
                result.outcomes.is_subset(&allowed),
                "{} (faults={faults}): SC machine exceeded SC model",
                test.name
            );
        }
    }
}

#[test]
fn machine_observed_outcomes_are_nonempty_and_deterministic() {
    for test in corpus().iter().filter(|t| t.family == Family::Barriers) {
        let cfg = MachineConfig::baseline(ConsistencyModel::Wc).with_all_faulting(&test.program);
        let a = explore(&test.program, &cfg);
        let b = explore(&test.program, &cfg);
        assert_eq!(a.outcomes, b.outcomes, "{}", test.name);
        assert!(!a.outcomes.is_empty(), "{}", test.name);
    }
}

#[test]
fn proof1_agrees_with_operational_machine() {
    use imprecise_store_exceptions::consistency::proofs::store_store_order_preserved;
    // The mechanized Proof 1 and the litmus machine agree on every case:
    // same-stream preserves the store-store rule, split-stream breaks it
    // exactly when the older store faults and the younger does not.
    for (fa, fb) in [(false, false), (false, true), (true, false), (true, true)] {
        assert!(store_store_order_preserved(fa, fb, DrainPolicy::SameStream));
        let split_ok = store_store_order_preserved(fa, fb, DrainPolicy::SplitStream);
        assert_eq!(split_ok, !fa || fb, "case ({fa},{fb})");
    }
}
