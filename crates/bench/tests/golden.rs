//! Golden snapshot tests: freeze the stdout of the cheap paper
//! experiments, the Table 2, 3, 5 and 6 and Fig. 5 and 6 registries, the campaign
//! verdicts for the four checked-in `litmus/` tests, the compiler
//! mapping tables, and the seeded-bug fuzz and trisection campaign
//! reports. Every paper experiment is run through `paper::run`, the
//! function the `paper` binary calls, and must also pass its verdict.
//!
//! Any drift — in the contract monitor, the recovery pipeline, the
//! litmus parser, the operational machine, or the axiomatic model —
//! fails these tests with a diff. When the change is intentional,
//! regenerate the snapshots and commit them:
//!
//! ```console
//! $ ISE_REGEN_GOLDEN=1 cargo test -p ise-bench --test golden
//! ```

use ise_bench::paper;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn litmus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../litmus")
}

/// Compares `actual` against the checked-in snapshot, or rewrites the
/// snapshot when `ISE_REGEN_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("ISE_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             regenerate with: ISE_REGEN_GOLDEN=1 cargo test -p ise-bench --test golden",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "golden drift in {name}; if intended, regenerate with:\n\
         ISE_REGEN_GOLDEN=1 cargo test -p ise-bench --test golden"
    );
}

/// Runs one paper experiment and asserts its verdict.
fn run_passing(exp: &str, quick: bool, workers: usize, skip: bool) -> paper::Report {
    let report = paper::run(exp, quick, workers, skip);
    assert!(
        report.passed,
        "{exp} (quick {quick}, {workers} workers, skip {skip}) lost the paper's shape:\n{}",
        report.text
    );
    report
}

#[test]
fn cheap_experiments_match_text_snapshots() {
    // What `paper <exp>` prints before its `JSON` line, under both
    // clocks and two worker counts. The `pinned-binaries` CI job `cmp`s
    // the release binary's stdout against the same files.
    for exp in [
        "table1", "table2", "table4", "table5", "table6", "fig1", "fig2", "fig3", "fig4",
    ] {
        for skip in [false, true] {
            for workers in [1, 4] {
                let report = run_passing(exp, false, workers, skip);
                check_golden(&format!("{exp}.txt"), &report.text);
            }
        }
    }
}

#[test]
fn mapping_tables_match_snapshot() {
    // The compiler-mapping tables are data, not code: freeze every
    // correct table and every seeded-buggy variant so an accidental
    // entry change (the exact bug class the trisection harness hunts)
    // shows up as a diff here before a campaign has to find it.
    use ise_consistency::{buggy_table, correct_table, render_mapping_table, MappingBug};
    use ise_types::model::ConsistencyModel;
    let mut out = String::new();
    for model in ConsistencyModel::ALL {
        out.push_str(&render_mapping_table(&correct_table(model)));
        out.push('\n');
    }
    for bug in MappingBug::ALL {
        for model in ConsistencyModel::ALL {
            out.push_str(&format!("with {}:\n", bug.name()));
            out.push_str(&render_mapping_table(&buggy_table(model, bug)));
            out.push('\n');
        }
    }
    check_golden("mapping_table.txt", &out);
}

/// Pins the registry `paper <exp>` emits on its `JSON <exp>:` line, at
/// one scale (`Some(quick)`, golden `<exp>_<quick|full>_registry.json`)
/// or, for an experiment with a single scale, `None` (golden
/// `<exp>_registry.json`), under each clock in `skips`, on 4 workers.
/// The `pinned-binaries` CI job re-derives the same bytes from the
/// release binary under both `ISE_CYCLE_SKIP` pins and worker counts 1
/// and 4, so a change that moves *any* reported counter — or makes the
/// clocks disagree — fails fast.
fn check_registry(exp: &str, quick: Option<bool>, skips: &[bool]) {
    let name = match quick {
        Some(true) => format!("{exp}_quick_registry.json"),
        Some(false) => format!("{exp}_full_registry.json"),
        None => format!("{exp}_registry.json"),
    };
    for &skip in skips {
        let report = run_passing(exp, quick.unwrap_or(false), 4, skip);
        let registry = report.registry.expect("experiment has a registry");
        check_golden(&name, &(registry.render() + "\n"));
    }
}

#[test]
fn single_scale_registries_match_snapshots() {
    // The text goldens drop the `JSON` line, so these pin Table 2's
    // configuration, Table 5's audit counters and Table 6's per-family
    // litmus counters.
    for exp in ["table2", "table5", "table6"] {
        check_registry(exp, None, &[false, true]);
    }
}

#[test]
fn fig5_quick_registry_matches_snapshot() {
    check_registry("fig5", Some(true), &[false, true]);
}

#[test]
fn fig5_full_registry_matches_snapshot() {
    // More faulting-page cells and the largest demand-paging cell: the
    // regime the store-buffer drain and the skip clock's per-core wakes
    // work hardest in.
    check_registry("fig5", Some(false), &[true]);
}

#[test]
fn fig6_quick_registry_matches_snapshot() {
    // Whole-workload runs, so the heaviest golden: the skip clock only
    // in-process. Full-scale `fig6` is too slow for the suite; CI `cmp`s
    // it under every pin.
    check_registry("fig6", Some(true), &[true]);
}

#[test]
fn table3_registries_match_snapshots() {
    check_registry("table3", Some(true), &[false, true]);
    check_registry("table3", Some(false), &[false, true]);
}

#[test]
fn seeded_bug_campaign_reports_match_snapshots() {
    // The stdout of `fuzz --seed 47 --cases 60 --seeded-bug pc-drain`
    // and of `trisection --seed 1 --cases 500 --buggy-mapping <bug>`
    // for both buggy tables: every finding, shrunk, with its rendered
    // reproducer. The `fuzz-smoke` and `trisection-smoke` CI jobs `cmp`
    // the binaries' stdout against the same files.
    use ise_consistency::MappingBug;
    use ise_fuzz::{run_campaign, run_trisection, FuzzConfig, OracleConfig, TrisectConfig};
    use ise_litmus::machine::SeededBug;
    let fuzz = FuzzConfig {
        seed: 47,
        cases: 60,
        oracle: OracleConfig {
            seeded_bug: Some(SeededBug::PcDrainReorder),
            ..OracleConfig::default()
        },
        ..FuzzConfig::default()
    };
    let report = run_campaign(&fuzz, 2).to_registry().render();
    check_golden("fuzz_seed47_pc_drain.json", &(report + "\n"));
    for bug in MappingBug::ALL {
        let mut cfg = TrisectConfig {
            cases: 500,
            ..TrisectConfig::default()
        };
        cfg.oracle.bug = Some(bug);
        let report = run_trisection(&cfg, 2).to_registry().render();
        let name = format!("trisection_seed1_{}.json", bug.name().replace('-', "_"));
        check_golden(&name, &(report + "\n"));
    }
}

#[test]
fn bench_usage_errors_exit_2() {
    // Findings exit 1, so a CI leg that demands exit 1 must not be
    // satisfied by a mistyped flag or bug name; a mistyped `--quick`
    // must not silently run the full scale, nor an experiment without a
    // quick scale ignore it.
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fuzz"), &["--bogus"][..]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--seeded-bug", "nope"]),
        (env!("CARGO_BIN_EXE_fuzz"), &["--cases"]),
        (
            env!("CARGO_BIN_EXE_trisection"),
            &["--buggy-mapping", "nope"],
        ),
        (env!("CARGO_BIN_EXE_trisection"), &["--seed", "x"]),
        (env!("CARGO_BIN_EXE_adversary"), &["--rounds", "-1"]),
        (env!("CARGO_BIN_EXE_paper"), &[]),
        (env!("CARGO_BIN_EXE_paper"), &["nosuch"]),
        (env!("CARGO_BIN_EXE_paper"), &["fig6", "--quik"]),
        (env!("CARGO_BIN_EXE_paper"), &["table1", "--quick"]),
        (env!("CARGO_BIN_EXE_paper"), &["table3", "--bogus"]),
        (env!("CARGO_BIN_EXE_snapshot_smoke"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_snapshot_smoke"), &[]),
        (env!("CARGO_BIN_EXE_litmus"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_litmus"), &["no/such/file.litmus"]),
    ] {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("run bench binary");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    }
}

#[test]
fn checked_in_litmus_corpus_matches_snapshots() {
    let dir = litmus_dir();
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".litmus"))
        .collect();
    names.sort();
    assert_eq!(
        names.len(),
        4,
        "expected the 4-file litmus/ corpus, found {names:?}"
    );
    for name in names {
        let src = std::fs::read_to_string(dir.join(&name)).expect("read litmus source");
        let report = ise_bench::litmus_source_report(&src);
        check_golden(&name.replace(".litmus", ".txt"), &report);
    }
}

#[test]
fn golden_snapshot_restores_resaves_byte_for_byte_and_replays() {
    // `snapshot_smoke --replay-golden` restores `snapshot_v1.ises`,
    // asserts that saving the restored system reproduces the file
    // exactly (every component's encoding is unchanged), then checks
    // the end-of-run registry against `snapshot_v1_registry.json`.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_snapshot_smoke"))
        .arg("--replay-golden")
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .status()
        .expect("run snapshot_smoke");
    assert!(status.success(), "snapshot_smoke --replay-golden failed");
}
