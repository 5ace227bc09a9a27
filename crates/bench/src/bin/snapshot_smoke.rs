//! CI smoke tool for the snapshot/restore layer.
//!
//! Four modes, composable on one command line (run in argument order):
//!
//! * `--differential` — builds a fixed microbench cell, snapshots it at
//!   25/50/75% of the cold run, restores each cut into a fresh twin and
//!   runs it out, asserting stats JSON and registry render are
//!   byte-identical to the uninterrupted run, on the clock the
//!   `ISE_CYCLE_SKIP` pin selects (CI runs it under both).
//! * `--write-golden` — regenerates the checked-in golden snapshot
//!   (`crates/bench/tests/golden/snapshot_v2.ises`) and its expected
//!   end-of-run registry render. Run this (and commit the result) only
//!   when the format version is intentionally bumped.
//! * `--replay-golden` — restores the checked-in golden snapshot,
//!   asserts that re-saving it reproduces the image byte for byte, runs
//!   it to completion, and asserts the registry render matches the
//!   checked-in expectation: yesterday's images must stay readable.
//! * `--corrupt-golden` — restores three variants of the golden image
//!   (one header byte flipped, one body byte flipped, the version word
//!   set to 1 with the hash re-stamped) and asserts each fails with its
//!   typed error (`BadMagic`, `HashMismatch`, `UnsupportedVersion(1)`):
//!   the format must reject, not misparse, damaged or outdated images.

use ise_bench::cli::Args;
use ise_sim::System;
use ise_types::persist::{fnv1a, PersistError};
use ise_types::{SystemConfig, ToJson};
use ise_workloads::microbench::{microbench, MicrobenchConfig};
use ise_workloads::Workload;

const GOLDEN_SNAPSHOT: &str = "crates/bench/tests/golden/snapshot_v2.ises";
const GOLDEN_REGISTRY: &str = "crates/bench/tests/golden/snapshot_v2_registry.json";
const MAX_CYCLES: u64 = 2_000_000_000;

/// The fixed cell every mode runs: a single-core microbench iteration
/// with enough faulting pages to exercise the FSB, FSBC, and OS-handler
/// machinery a snapshot must capture.
fn smoke_cell() -> (SystemConfig, Workload) {
    let mb = microbench(&MicrobenchConfig {
        stores_per_iter: 2_000,
        iterations: 1,
        array_bytes: 256 << 10,
        faulting_pages_per_iter: 16,
        seed: 7,
    });
    let workload = Workload {
        name: "snapshot-smoke".into(),
        traces: vec![mb.iterations[0].trace.clone()],
        einject_pages: mb.iterations[0].faulting_pages.clone(),
    };
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 1;
    (cfg, workload)
}

fn build() -> System {
    let (cfg, workload) = smoke_cell();
    System::new(cfg, &workload).with_contract_monitor()
}

fn differential(skip: bool) {
    let mut cold = build();
    let cold_stats = cold.run_clocked(MAX_CYCLES, skip);
    let cold_json = cold_stats.to_json().render();
    let cold_reg = cold.telemetry().registry.to_json().render();
    let total = cold_stats.cycles;
    for pct in [25u64, 50, 75] {
        let cut = total * pct / 100;
        let mut donor = build();
        assert!(!donor.run_to(cut, skip), "cut at {pct}% must land mid-run");
        let snap = donor.snapshot();
        let mut resumed = build();
        resumed.restore_from(&snap).expect("restore must succeed");
        let stats = resumed.run_clocked(MAX_CYCLES, skip);
        assert_eq!(
            stats.to_json().render(),
            cold_json,
            "stats diverge at {pct}%"
        );
        assert_eq!(
            resumed.telemetry().registry.to_json().render(),
            cold_reg,
            "registry diverges at {pct}%"
        );
        resumed
            .check_contract()
            .expect("contract holds across restore");
    }
    println!("differential ok: 3 cuts byte-identical (skip={skip})");
}

/// The golden image always uses the skipping clock explicitly, so the
/// checked-in bytes are independent of the `ISE_CYCLE_SKIP` pin. The
/// cut lands at half the cell's (deterministic) cold duration.
fn golden_snapshot_and_expectation() -> (Vec<u8>, String) {
    let total = build().run_clocked(MAX_CYCLES, true).cycles;
    let mut donor = build();
    assert!(
        !donor.run_to(total / 2, true),
        "golden cut must land mid-run"
    );
    let snap = donor.snapshot();
    let mut rest = build();
    rest.restore_from(&snap).expect("fresh golden replays");
    rest.run_clocked(MAX_CYCLES, true);
    let registry = rest.telemetry().registry.to_json().render();
    (snap, registry)
}

fn write_golden() {
    let (snap, registry) = golden_snapshot_and_expectation();
    std::fs::write(GOLDEN_SNAPSHOT, &snap).expect("write golden snapshot");
    std::fs::write(GOLDEN_REGISTRY, registry + "\n").expect("write golden registry");
    println!(
        "wrote {GOLDEN_SNAPSHOT} ({} bytes) and {GOLDEN_REGISTRY}",
        snap.len()
    );
}

fn replay_golden() {
    let snap = std::fs::read(GOLDEN_SNAPSHOT).expect("read golden snapshot");
    let expect = std::fs::read_to_string(GOLDEN_REGISTRY).expect("read golden registry");
    let mut sys = build();
    sys.restore_from(&snap)
        .expect("the checked-in golden image must stay restorable");
    assert!(
        sys.snapshot() == snap,
        "re-saving the restored golden image changed its bytes"
    );
    sys.run_clocked(MAX_CYCLES, true);
    let registry = sys.telemetry().registry.to_json().render();
    assert_eq!(
        registry,
        expect.trim_end(),
        "golden replay diverged — format or behavior changed without a golden refresh"
    );
    println!("golden replay ok ({} bytes)", snap.len());
}

fn corrupt_golden() {
    let snap = std::fs::read(GOLDEN_SNAPSHOT).expect("read golden snapshot");
    let restore = |bad: &[u8]| {
        build()
            .restore_from(bad)
            .expect_err("a damaged image restored")
    };
    // Header corruption: the magic must be rejected.
    let mut bad = snap.clone();
    bad[0] ^= 0x5a;
    assert_eq!(restore(&bad), PersistError::BadMagic);
    // Body corruption: the trailing content hash must catch it.
    let mut bad = snap.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x5a;
    assert_eq!(restore(&bad), PersistError::HashMismatch);
    // An intact format-version-1 image: there is no v1 reader.
    let mut bad = snap.clone();
    bad[4..8].copy_from_slice(&1u32.to_le_bytes());
    let end = bad.len() - 8;
    let hash = fnv1a(&bad[..end]);
    bad[end..].copy_from_slice(&hash.to_le_bytes());
    assert_eq!(restore(&bad), PersistError::UnsupportedVersion(1));
    println!("corruption rejected ok (header, body and version legs)");
}

fn main() {
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let mut args = Args::new(
        "usage: snapshot_smoke [--differential] [--write-golden] [--replay-golden] [--corrupt-golden]",
    );
    let mut modes: Vec<fn(bool)> = Vec::new();
    while let Some(flag) = args.next_flag() {
        modes.push(match flag.as_str() {
            "--differential" => differential,
            "--write-golden" => |_| write_golden(),
            "--replay-golden" => |_| replay_golden(),
            "--corrupt-golden" => |_| corrupt_golden(),
            _ => args.unknown(),
        });
    }
    if modes.is_empty() {
        args.fail("no mode given");
    }
    for mode in modes {
        mode(skip);
    }
}
