//! Runs the checked-in RV64 guest programs end to end: the `ise-isa`
//! frontend executes each `guest/*.bin` image functionally, and the
//! timing model replays the lowered traces — the store-fault victim's
//! armed pages fault post-retirement and recover through the
//! FSB/handler path.
//!
//! Usage:
//!
//! * `cargo run -p ise-bench --bin guest` — run every program under the
//!   current clock pin (`ISE_CYCLE_SKIP`), print a summary, and emit
//!   one `JSON guest: {...}` registry line (the `pinned-binaries` CI
//!   job byte-compares it against
//!   `crates/bench/tests/golden/guest_registry.json`).
//! * `cargo run -p ise-bench --bin guest -- --write-bins` — regenerate
//!   the checked-in `guest/*.bin` images from the in-crate assembler.

use ise_bench::cli::Args;
use ise_bench::emit_report;
use ise_isa::programs;
use ise_sim::guest::run_guest_program;
use ise_telemetry::Registry;
use ise_types::json::ToJson;
use std::path::PathBuf;

fn guest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../guest")
}

fn write_bins() {
    let dir = guest_dir();
    std::fs::create_dir_all(&dir).expect("create guest/");
    for prog in programs::all() {
        let path = dir.join(format!("{}.bin", prog.name));
        std::fs::write(&path, &prog.image)
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {} ({} bytes)", path.display(), prog.image.len());
    }
}

fn main() {
    let mut args = Args::new("usage: guest [--write-bins]");
    let mut write = false;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--write-bins" => write = true,
            _ => args.unknown(),
        }
    }
    if write {
        write_bins();
        return;
    }
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);

    let mut report = Registry::new();
    let mut failures = 0;
    for prog in programs::all() {
        // Run what is checked in, not what the assembler would produce
        // today — drift between the two is a failure.
        let mut prog = prog;
        let path = guest_dir().join(format!("{}.bin", prog.name));
        match std::fs::read(&path) {
            Ok(bytes) if bytes == prog.image => {}
            Ok(_) => {
                eprintln!(
                    "{}: checked-in image drifted from the assembler; \
                     rerun with --write-bins",
                    prog.name
                );
                failures += 1;
                continue;
            }
            Err(e) => {
                eprintln!(
                    "{}: cannot read {} ({e}); generate with --write-bins",
                    prog.name,
                    path.display()
                );
                failures += 1;
                continue;
            }
        }
        prog.image = std::fs::read(&path).unwrap();

        let run = run_guest_program(&prog, skip);
        println!(
            "== {} | harts {} | guest steps {} | retired {} | cycles {} | \
             imprecise {} | applied {} | uart {:?}",
            prog.name,
            prog.harts,
            run.machine.steps,
            run.stats.retired(),
            run.stats.cycles,
            run.stats.imprecise_exceptions,
            run.stats.stores_applied,
            String::from_utf8_lossy(run.machine.uart_output()),
        );
        for v in &run.violations {
            eprintln!("   !! {v}");
            failures += 1;
        }
        report.put(prog.name, run.registry.to_json());
    }

    emit_report("guest", &report);
    if failures > 0 {
        eprintln!("{failures} guest failure(s)");
        std::process::exit(1);
    }
}
