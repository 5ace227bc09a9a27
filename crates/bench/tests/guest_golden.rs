//! Golden end-to-end guest runs: the checked-in RV64 images executed
//! through the `ise-isa` frontend and replayed on the timing model must
//! reproduce `golden/guest_registry.json` byte for byte — under both
//! clocks and across a mid-run snapshot/restore cut. The registry carries the final register file
//! of every hart and the per-hart retired counts, so trace or
//! architectural drift cannot hide from the byte compare.

use ise_isa::programs;
use ise_sim::guest::{run_guest_program, run_guest_program_with_cut};
use ise_telemetry::Registry;
use ise_types::json::ToJson;
use ise_types::persist::save_container;

const GOLDEN: &str = include_str!("golden/guest_registry.json");

/// The same combined registry the `guest` binary emits: one section per
/// checked-in program, guest plane first.
fn combined_registry(skip: bool) -> String {
    let mut report = Registry::new();
    for prog in programs::all() {
        let run = run_guest_program(&prog, skip);
        assert!(
            run.violations.is_empty(),
            "{}: {:?}",
            prog.name,
            run.violations
        );
        report.put(prog.name, run.registry.to_json());
    }
    report.render()
}

#[test]
fn registry_matches_the_golden_under_both_clocks() {
    let golden = GOLDEN.trim_end();
    assert_eq!(
        combined_registry(true),
        golden,
        "cycle-skipping clock drifted from the golden; regenerate with \
         `cargo run -p ise-bench --bin guest | sed -n 's/^JSON guest: //p'` \
         if the change is intentional"
    );
    assert_eq!(
        combined_registry(false),
        golden,
        "reference clock drifted from the golden"
    );
}

#[test]
fn frontend_state_is_clock_invariant() {
    // The functional pre-run happens before the timing replay, so the
    // full machine state — retired-instruction traces, register files,
    // event log, bus RAM — must serialize identically however the
    // replay is clocked.
    for prog in programs::all() {
        let a = run_guest_program(&prog, true);
        let b = run_guest_program(&prog, false);
        assert_eq!(
            save_container(&a.machine),
            save_container(&b.machine),
            "{}: frontend state depends on the timing clock",
            prog.name
        );
    }
}

#[test]
fn snapshot_cut_mid_run_is_invisible() {
    for prog in programs::all() {
        let whole = run_guest_program(&prog, true);
        // Cuts before, inside, and after the victim's drain episodes.
        for cut in [1, 200, 1_000] {
            let resumed = run_guest_program_with_cut(&prog, true, Some(cut));
            assert!(
                resumed.violations.is_empty(),
                "{} cut@{cut}: {:?}",
                prog.name,
                resumed.violations
            );
            assert_eq!(
                whole.registry_json, resumed.registry_json,
                "{} cut@{cut}: snapshot/restore changed the registry",
                prog.name
            );
        }
    }
}

#[test]
fn victim_recovers_through_the_fsb_handler_path() {
    let run = run_guest_program(&programs::store_fault_victim(), true);
    assert!(run.stats.imprecise_exceptions > 0);
    assert!(run.stats.faulting_stores > 0);
    assert_eq!(run.stats.killed, 0);
    assert!(run.stats.fsb_high_water_mark > 0, "the FSB was never used");
}

#[test]
fn checked_in_images_pass_the_full_audit() {
    // The images on disk, not the assembler's output: each replay must
    // clear every check of the shared post-run audit (completion, store
    // conservation, FSB drain, contract, containment, applied
    // visibility) plus the guest's own functional-memory check, under
    // both clocks.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../guest");
    let mut applied = 0;
    for mut prog in programs::all() {
        let path = dir.join(format!("{}.bin", prog.name));
        prog.image =
            std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for skip in [true, false] {
            let run = run_guest_program(&prog, skip);
            assert!(
                run.violations.is_empty(),
                "{} (skip {skip}): {:?}",
                prog.name,
                run.violations
            );
            applied += run.stats.stores_applied;
        }
    }
    // The victim's recovery applies stores through the OS, so
    // conservation and visibility audit real traffic.
    assert!(applied > 0, "no guest store reached the OS apply path");
}
