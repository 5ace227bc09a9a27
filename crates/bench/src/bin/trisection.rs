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
//! Prints the campaign registry as JSON and exits nonzero when any
//! finding survived — so a CI smoke leg is just this binary with a
//! fixed seed, and the seeded-bug legs assert the exit code is 1.

use ise_consistency::MappingBug;
use ise_fuzz::{run_trisection, write_src_regressions, TrisectConfig};

fn main() {
    let workers = ise_par::worker_count();
    let mut cfg = TrisectConfig {
        cases: 500,
        ..TrisectConfig::default()
    };
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => cfg.seed = value("--seed").parse().expect("--seed: not a u64"),
            "--cases" => cfg.cases = value("--cases").parse().expect("--cases: not a count"),
            "--sim" => cfg.oracle.run_sim = true,
            "--no-shrink" => cfg.shrink = false,
            "--buggy-mapping" => {
                let name = value("--buggy-mapping");
                cfg.oracle.bug = Some(
                    MappingBug::ALL
                        .into_iter()
                        .find(|b| b.name() == name)
                        .unwrap_or_else(|| {
                            panic!(
                                "--buggy-mapping: unknown bug {name:?} ({})",
                                MappingBug::ALL.map(|b| b.name()).join("|")
                            )
                        }),
                )
            }
            "--write-regressions" => out_dir = Some(value("--write-regressions").into()),
            other => panic!("unknown flag {other:?}"),
        }
    }
    let report = run_trisection(&cfg, workers);
    println!("{}", report.to_registry().render());
    if let Some(dir) = out_dir {
        let paths = write_src_regressions(&report, &dir).expect("writing reproducers");
        for p in &paths {
            eprintln!("wrote {}", p.display());
        }
    }
    if !report.clean() {
        eprintln!(
            "{} finding(s) — each `reproducers` entry above is a shrunk source program",
            report.findings.len()
        );
        std::process::exit(1);
    }
}
