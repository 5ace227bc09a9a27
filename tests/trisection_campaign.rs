//! End-to-end checks of the language-level trisection harness: a
//! fixed-seed campaign is byte-deterministic across worker counts, the
//! correct mapping tables survive it clean (with the timing-simulator
//! legs on), and both seeded-buggy mappings are caught and shrunk to
//! minimal source reproducers.
//!
//! The timing-simulator legs compare both clocks explicitly, so
//! byte-determinism here also covers the clock axis end to end.

use imprecise_store_exceptions::consistency::MappingBug;
use imprecise_store_exceptions::fuzz::{
    run_trisection, TrisectConfig, TrisectFindingKind, TrisectOracleConfig,
};
use imprecise_store_exceptions::types::model::ConsistencyModel;

#[test]
fn fixed_seed_trisection_is_byte_deterministic_across_worker_counts() {
    let cfg = TrisectConfig {
        seed: 12,
        cases: 120,
        ..TrisectConfig::default()
    };
    let renders: Vec<String> = [1, 2, 4, 8]
        .into_iter()
        .map(|w| run_trisection(&cfg, w).to_registry().render())
        .collect();
    for (i, r) in renders.iter().enumerate().skip(1) {
        assert_eq!(
            &renders[0],
            r,
            "worker count leaked into the registry (1 vs {})",
            [1, 2, 4, 8][i]
        );
    }
}

#[test]
fn correct_mappings_survive_a_trisection_campaign() {
    let cfg = TrisectConfig {
        seed: 3,
        cases: 80,
        oracle: TrisectOracleConfig {
            bug: None,
            run_sim: true,
        },
        ..TrisectConfig::default()
    };
    let report = run_trisection(&cfg, 2);
    assert!(report.clean(), "findings: {:#?}", report.findings);
    assert_eq!(report.cases, 80);
    // The campaign exercised all three hardware models, faulting
    // locations, and the transient-overlay fault source — otherwise
    // "clean" is vacuous.
    assert!(report.model_cases.iter().all(|&n| n > 0));
    assert!(report.faulting_cases > 0);
    assert!(report.overlay_cases > 0);
    assert!(report.lang_enumerations > 0 && report.hw_enumerations > 0);
}

/// Runs a 500-case campaign through `bug` and asserts the escape is
/// caught and shrunk to a small source-level reproducer.
fn seeded_bug_is_caught(bug: MappingBug) {
    let cfg = TrisectConfig {
        seed: 1,
        cases: 500,
        oracle: TrisectOracleConfig {
            bug: Some(bug),
            run_sim: false,
        },
        ..TrisectConfig::default()
    };
    let report = run_trisection(&cfg, 2);
    assert!(
        !report.clean(),
        "seeded mapping bug {} escaped 500 cases",
        bug.name()
    );
    let f = &report.findings[0];
    assert_eq!(f.kind, TrisectFindingKind::LanguageAxiomEscape);
    // Both seeded bugs only weaken WC lowerings, so the witness is a
    // WC case.
    assert_eq!(f.case.model, ConsistencyModel::Wc);
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
        "an escape finding must carry the language-forbidden outcomes"
    );
}

#[test]
fn the_release_store_mapping_bug_is_caught_and_shrunk() {
    seeded_bug_is_caught(MappingBug::WcReleaseStoreNoFence);
}

#[test]
fn the_acquire_load_mapping_bug_is_caught_and_shrunk() {
    seeded_bug_is_caught(MappingBug::AcquireLoadAsRelaxed);
}
