//! End-to-end checks of the differential fuzzing harness: a fixed-seed
//! campaign is byte-deterministic across worker counts, a healthy
//! machine survives it clean (with the timing-simulator legs on), and a
//! deliberately seeded ordering bug is caught and shrunk to a
//! minimal reproducer.

use imprecise_store_exceptions::fuzz::{run_campaign, FindingKind, FuzzConfig, OracleConfig};
use imprecise_store_exceptions::litmus::machine::SeededBug;
use imprecise_store_exceptions::types::model::ConsistencyModel;

#[test]
fn fixed_seed_campaign_is_byte_deterministic_across_worker_counts() {
    let cfg = FuzzConfig {
        seed: 12,
        cases: 100,
        ..FuzzConfig::default()
    };
    let one = run_campaign(&cfg, 1).to_registry().render();
    let four = run_campaign(&cfg, 4).to_registry().render();
    assert_eq!(one, four, "worker count leaked into the report");
}

#[test]
fn a_healthy_machine_survives_a_tri_oracle_campaign() {
    let cfg = FuzzConfig {
        seed: 3,
        cases: 40,
        oracle: OracleConfig {
            seeded_bug: None,
            run_sim: true,
            ..OracleConfig::default()
        },
        ..FuzzConfig::default()
    };
    let report = run_campaign(&cfg, 2);
    assert!(report.clean(), "findings: {:#?}", report.findings);
    assert_eq!(report.cases, 40);
    // The campaign exercised all three models and some faulting cases —
    // otherwise "clean" is vacuous.
    assert!(report.model_cases.iter().all(|&n| n > 0));
    assert!(report.faulting_cases > 0);
}

#[test]
fn a_seeded_ordering_bug_is_caught_and_shrunk_to_a_minimal_reproducer() {
    let cfg = FuzzConfig {
        // Master 47's stream hits the drain bug by index 35.
        seed: 47,
        cases: 60,
        oracle: OracleConfig {
            seeded_bug: Some(SeededBug::PcDrainReorder),
            run_sim: false,
            ..OracleConfig::default()
        },
        ..FuzzConfig::default()
    };
    let report = run_campaign(&cfg, 2);
    assert!(!report.clean(), "the seeded bug escaped 60 cases");
    let f = &report.findings[0];
    assert_eq!(f.kind, FindingKind::AxiomViolation);
    assert_eq!(f.case.model, ConsistencyModel::Pc);
    assert!(f.steps > 0, "shrinking accepted no steps");
    assert!(
        f.case.program.threads.len() <= 2,
        "reproducer still has {} threads",
        f.case.program.threads.len()
    );
    assert!(
        f.case.program.len() <= 6,
        "reproducer still has {} statements",
        f.case.program.len()
    );
    assert!(
        !f.outcomes.is_empty(),
        "an axiom finding must carry its forbidden outcomes"
    );
}
