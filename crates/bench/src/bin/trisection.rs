//! Trisection campaigns (source model × mapping × hardware model) from
//! the command line.
//!
//! Usage: `cargo run --release -p ise-bench --bin trisection -- [flags]`
//!
//! Flags:
//!
//! * `--seed N` — master seed (default 1)
//! * `--cases N` — cases to run (default 500)
//! * `--sim` — also run the timing-simulator leg on each lowered
//!   program (slow)
//! * `--no-shrink` — report raw findings without delta-debugging
//! * `--buggy-mapping wc-release-store-no-fence|acquire-load-as-relaxed`
//!   — lower through a known-wrong mapping table (harness self-check:
//!   the campaign *must* end dirty)
//! * `--write-regressions DIR` — render each finding into `DIR` as a
//!   replayable `.srclitmus` reproducer
//!
//! Prints the campaign registry as JSON and exits 1 when any finding
//! survived — so a CI smoke leg is just this binary with a fixed seed,
//! and the seeded-bug legs assert the exit code is exactly 1. A usage
//! error exits 2.

use ise_bench::cli::{finish_campaign, Args};
use ise_consistency::MappingBug;
use ise_fuzz::{run_trisection, TrisectConfig};

const USAGE: &str = "usage: trisection [--seed N] [--cases N] [--sim] [--no-shrink] \
                     [--buggy-mapping wc-release-store-no-fence|acquire-load-as-relaxed] \
                     [--write-regressions DIR]";

fn main() {
    let workers = ise_par::worker_count();
    let mut cfg = TrisectConfig {
        cases: 500,
        ..TrisectConfig::default()
    };
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut args = Args::new(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--seed" => cfg.seed = args.value(),
            "--cases" => cfg.cases = args.value(),
            "--sim" => cfg.oracle.run_sim = true,
            "--no-shrink" => cfg.shrink = false,
            "--buggy-mapping" => {
                cfg.oracle.bug = Some(
                    args.value_with(|name| MappingBug::ALL.into_iter().find(|b| b.name() == name)),
                )
            }
            "--write-regressions" => out_dir = Some(args.value()),
            _ => args.unknown(),
        }
    }
    let report = run_trisection(&cfg, workers);
    finish_campaign(&report.to_registry(), &report.findings, out_dir.as_deref());
}
