//! Differential fuzzing campaigns from the command line.
//!
//! Usage: `cargo run --release -p ise-bench --bin fuzz -- [flags]`
//!
//! Flags:
//!
//! * `--seed N` — master seed (default 1)
//! * `--cases N` — cases to run (default 500)
//! * `--sim` — also run the timing-simulator oracle legs (slow)
//! * `--no-shrink` — report raw findings without delta-debugging
//! * `--seeded-bug pc-drain|fence` — mutate the machine on purpose
//!   (harness self-check: the campaign *must* end dirty)
//! * `--write-regressions DIR` — render each finding into `DIR` as a
//!   replayable `.litmus` reproducer
//!
//! Prints the campaign registry as JSON and exits 1 when any finding
//! survived — so a CI smoke leg is just this binary with a fixed seed.
//! A usage error exits 2.

use ise_bench::cli::{finish_campaign, Args};
use ise_fuzz::{run_campaign, FuzzConfig};
use ise_litmus::machine::SeededBug;

const USAGE: &str = "usage: fuzz [--seed N] [--cases N] [--sim] [--no-shrink] \
                     [--seeded-bug pc-drain|fence] [--write-regressions DIR]";

fn main() {
    let workers = ise_par::worker_count();
    let mut cfg = FuzzConfig {
        cases: 500,
        ..FuzzConfig::default()
    };
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut args = Args::new(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--seed" => cfg.seed = args.value(),
            "--cases" => cfg.cases = args.value(),
            "--sim" => cfg.oracle.run_sim = true,
            "--no-shrink" => cfg.shrink = false,
            "--seeded-bug" => {
                cfg.oracle.seeded_bug = Some(args.value_with(|name| match name {
                    "pc-drain" => Some(SeededBug::PcDrainReorder),
                    "fence" => Some(SeededBug::FenceIgnoresStoreBuffer),
                    _ => None,
                }))
            }
            "--write-regressions" => out_dir = Some(args.value()),
            _ => args.unknown(),
        }
    }
    let report = run_campaign(&cfg, workers);
    finish_campaign(&report.to_registry(), &report.findings, out_dir.as_deref());
}
