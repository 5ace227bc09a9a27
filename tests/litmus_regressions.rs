//! Replays the fuzzer's shrunk reproducers under `litmus/regressions/`
//! through the healthy machine and the axiomatic checker.
//!
//! Each file's `forbid:` outcomes were once *observed* on a broken
//! machine; on the real design they must be (a) forbidden by the PC
//! axioms and (b) unobservable on any exhaustive-machine path, with and
//! without every location faulting. `allowed(SC) ⊆ allowed(PC) ⊆
//! allowed(WC)`, and reproducers only carry `forbid:` lines for
//! PC- or WC-model findings, so checking against the PC envelope is
//! sound for every file.

use imprecise_store_exceptions::consistency::source::allowed_src_outcomes;
use imprecise_store_exceptions::consistency::{
    allowed_outcomes, correct_table, lower, program::format_outcome,
};
use imprecise_store_exceptions::litmus::machine::{explore, MachineConfig};
use imprecise_store_exceptions::litmus::parse::load_litmus_dir;
use imprecise_store_exceptions::litmus::src_parse::load_src_litmus_dir;
use imprecise_store_exceptions::types::model::ConsistencyModel;
use std::path::Path;

#[test]
fn every_regression_reproducer_stays_fixed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus/regressions");
    let corpus = load_litmus_dir(&dir).expect("regression corpus loads");
    assert!(
        !corpus.is_empty(),
        "litmus/regressions/ is checked in non-empty"
    );
    for (file, parsed) in corpus {
        let program = &parsed.test.program;
        let allowed = allowed_outcomes(program, ConsistencyModel::Pc);
        let clean = explore(program, &MachineConfig::baseline(ConsistencyModel::Pc));
        let faulting = explore(
            program,
            &MachineConfig::baseline(ConsistencyModel::Pc).with_all_faulting(program),
        );
        // The machine stays inside the model even while faulting.
        assert!(
            clean.outcomes.is_subset(&allowed) && faulting.outcomes.is_subset(&allowed),
            "{file}: the machine escaped the PC envelope"
        );
        for forbidden in &parsed.forbidden {
            assert!(
                !allowed.contains(forbidden),
                "{file}: {} is now allowed under PC",
                format_outcome(forbidden)
            );
            assert!(
                !clean.outcomes.contains(forbidden) && !faulting.outcomes.contains(forbidden),
                "{file}: the machine observed forbidden outcome {}",
                format_outcome(forbidden)
            );
        }
    }
}

#[test]
fn every_source_regression_reproducer_stays_fixed() {
    // The trisection campaign's shrunk reproducers: each `.srclitmus`
    // file carries a source program, the hardware model the buggy
    // mapping once lowered it to, and the language-forbidden outcomes
    // it exhibited there. Replaying through the *correct* mapping table
    // must close the escape: the outcome stays language-forbidden, the
    // recorded model's axioms no longer admit it for the lowered
    // program, and no exhaustive-machine path observes it — clean or
    // with every location faulting.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus/regressions");
    let corpus = load_src_litmus_dir(&dir).expect("source regression corpus loads");
    assert!(
        !corpus.is_empty(),
        "litmus/regressions/ holds checked-in .srclitmus reproducers"
    );
    for (file, parsed) in corpus {
        assert!(
            !parsed.forbidden.is_empty(),
            "{file}: a reproducer without forbid: lines checks nothing"
        );
        let lowered = lower(&parsed.program, &correct_table(parsed.model));
        let lang_allowed = allowed_src_outcomes(&parsed.program);
        let hw_allowed = allowed_outcomes(&lowered, parsed.model);
        let clean = explore(&lowered, &MachineConfig::baseline(parsed.model));
        let faulting = explore(
            &lowered,
            &MachineConfig::baseline(parsed.model).with_all_faulting(&lowered),
        );
        for forbidden in &parsed.forbidden {
            assert!(
                !lang_allowed.contains(forbidden),
                "{file}: {} is now language-allowed",
                format_outcome(forbidden)
            );
            assert!(
                !hw_allowed.contains(forbidden),
                "{file}: {} leaks through the correct mapping under {}",
                format_outcome(forbidden),
                parsed.model
            );
            assert!(
                !clean.outcomes.contains(forbidden) && !faulting.outcomes.contains(forbidden),
                "{file}: the machine observed forbidden outcome {}",
                format_outcome(forbidden)
            );
        }
    }
}

#[test]
fn the_reproducer_writer_regenerates_the_checked_in_corpus() {
    // The two hardware reproducers were written by the campaigns
    // themselves: the seed-47 `pc-drain` fuzz self-check and the
    // adversary self-check's corruption win. Re-running both through
    // the one reproducer writer must give the checked-in bytes.
    use imprecise_store_exceptions::adversary::{self_check, shrink_corruption, Objective};
    use imprecise_store_exceptions::consistency::MappingBug;
    use imprecise_store_exceptions::fuzz::{
        run_campaign, run_trisection, write_reproducers, FuzzConfig, OracleConfig, TrisectConfig,
        TrisectOracleConfig,
    };
    use imprecise_store_exceptions::litmus::machine::SeededBug;
    use imprecise_store_exceptions::litmus::parse_src_litmus;

    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus/regressions");
    let out = std::env::temp_dir().join(format!("ise-writer-corpus-{}", std::process::id()));
    let same_as_corpus = |paths: Vec<std::path::PathBuf>| {
        assert_eq!(paths.len(), 1, "{paths:?}");
        let name = paths[0].file_name().expect("file name");
        let written = std::fs::read(&paths[0]).expect("reproducer reads back");
        let checked_in = std::fs::read(corpus.join(name))
            .unwrap_or_else(|e| panic!("{name:?} is not in the corpus: {e}"));
        assert_eq!(written, checked_in, "{name:?} drifted from the corpus");
    };

    let fuzz = run_campaign(
        &FuzzConfig {
            seed: 47,
            cases: 60,
            oracle: OracleConfig {
                seeded_bug: Some(SeededBug::PcDrainReorder),
                ..OracleConfig::default()
            },
            ..FuzzConfig::default()
        },
        2,
    );
    same_as_corpus(write_reproducers(&fuzz.findings, &out).expect("fuzz reproducer writes"));

    let sc = self_check(1, 2, true);
    let plan = sc
        .unhardened
        .winning_genome(Objective::Corrupt)
        .expect("the unhardened kernel loses on corruption");
    let win = shrink_corruption(plan, 1).expect("the win reproduces through the fuzz oracle");
    same_as_corpus(write_reproducers(&[win], &out).expect("adversary reproducer writes"));

    // A trisection finding goes through the same writer and re-parses.
    let tri = run_trisection(
        &TrisectConfig {
            cases: 40,
            oracle: TrisectOracleConfig {
                bug: Some(MappingBug::AcquireLoadAsRelaxed),
                run_sim: false,
            },
            ..TrisectConfig::default()
        },
        2,
    );
    let paths = write_reproducers(&tri.findings[..1], &out).expect("source reproducer writes");
    assert!(paths[0].extension().is_some_and(|x| x == "srclitmus"));
    let text = std::fs::read_to_string(&paths[0]).expect("source reproducer reads back");
    let back = parse_src_litmus(&text).expect("source reproducer reparses");
    assert_eq!(back.program, tri.findings[0].case.program);
    assert_eq!(back.forbidden, tri.findings[0].outcomes);
    std::fs::remove_dir_all(&out).ok();
}
