//! Golden snapshot tests: freeze the Table 5 ordering-contract report,
//! the Table 3 reports, the Fig. 5 (quick and full) and Fig. 6 (quick)
//! registries, the campaign verdicts for the four checked-in
//! `litmus/` tests, and the seeded-bug fuzz and trisection campaign
//! reports.
//!
//! Any drift — in the contract monitor, the recovery pipeline, the
//! litmus parser, the operational machine, or the axiomatic model —
//! fails these tests with a diff. When the change is intentional,
//! regenerate the snapshots and commit them:
//!
//! ```console
//! $ ISE_REGEN_GOLDEN=1 cargo test -p ise-bench --test golden
//! ```

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

#[test]
fn table5_contract_report_matches_snapshot() {
    check_golden("table5.txt", &ise_bench::table5_report());
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

#[test]
fn fig5_quick_registry_matches_snapshot() {
    // The exact registry the `fig5 --quick` binary emits on its `JSON
    // fig5:` line, under both clocks. The CI `pinned-binaries` job
    // re-derives the same bytes from the release binary under both
    // `ISE_CYCLE_SKIP` pins and diffs against this file, so a perf
    // rework that changes *any* reported counter — or makes the two
    // clocks disagree — fails fast.
    use ise_sim::experiments::{fig5, fig5_demand_paging};
    use ise_types::ToJson;
    for skip in [false, true] {
        let rows = fig5(ise_bench::FIG5_PAGES_QUICK, 4, skip);
        let io_rows = fig5_demand_paging(
            ise_bench::FIG5_IO_PAGES_QUICK,
            ise_bench::FIG5_IO_LATENCY,
            4,
            skip,
        );
        let registry = ise_bench::report_sections([
            ("rows", rows.to_json()),
            ("demand_paging", io_rows.to_json()),
        ]);
        check_golden("fig5_quick_registry.json", &(registry.render() + "\n"));
    }
}

#[test]
fn fig5_full_registry_matches_snapshot() {
    // The full-scale `fig5` registry: more faulting-page cells and the
    // largest demand-paging cell, the regime the store-buffer drain and
    // the skip clock's per-core wakes work hardest in. Full-scale `fig6`
    // is too slow for the suite; the `pinned-binaries` CI job `cmp`s it
    // under every pin.
    use ise_sim::experiments::{fig5, fig5_demand_paging};
    use ise_types::ToJson;
    let rows = fig5(ise_bench::FIG5_PAGES_FULL, 4, true);
    let io_rows = fig5_demand_paging(
        ise_bench::FIG5_IO_PAGES_FULL,
        ise_bench::FIG5_IO_LATENCY,
        4,
        true,
    );
    let registry = ise_bench::report_sections([
        ("rows", rows.to_json()),
        ("demand_paging", io_rows.to_json()),
    ]);
    check_golden("fig5_full_registry.json", &(registry.render() + "\n"));
}

#[test]
fn fig6_quick_registry_matches_snapshot() {
    // Same contract for `fig6 --quick` (whole-workload runs, so this is
    // the heavier of the two registry goldens). In-process it runs the
    // skip clock only; the reference clock is the pinned `fig6 --quick`
    // binary run in CI.
    use ise_sim::experiments::{fig6, fig6_cloudsuite, Fig6Scale};
    use ise_types::ToJson;
    let scale = Fig6Scale::quick();
    let rows = fig6(&scale, 4, true);
    let ext = fig6_cloudsuite(&scale, 4, true);
    let registry =
        ise_bench::report_sections([("rows", rows.to_json()), ("cloudsuite", ext.to_json())]);
    check_golden("fig6_quick_registry.json", &(registry.render() + "\n"));
}

#[test]
fn table3_reports_match_snapshots() {
    // The `JSON table3:` line of `table3 --quick` and of full-scale
    // `table3`, under both clocks. The `pinned-binaries` CI job `cmp`s
    // the release binary's line against the same files at both clock
    // pins and worker counts 1 and 4.
    use ise_sim::experiments::{table3, Table3Scale};
    use ise_types::ToJson;
    for (scale, name) in [
        (Table3Scale::quick(), "table3_quick_report.json"),
        (Table3Scale::full(), "table3_full_report.json"),
    ] {
        for skip in [false, true] {
            let rows = table3(&scale, 4, skip);
            let report = ise_bench::report_sections([("rows", rows.to_json())]).render();
            check_golden(name, &(report + "\n"));
        }
    }
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
    // satisfied by a mistyped flag or bug name; and a mistyped `--quick`
    // must not silently run the full scale.
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
        (env!("CARGO_BIN_EXE_fig6"), &["--quik"]),
        (env!("CARGO_BIN_EXE_table3"), &["--bogus"]),
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
