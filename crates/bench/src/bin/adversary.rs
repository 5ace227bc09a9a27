//! Adversarial fault-plan search from the command line.
//!
//! Usage: `cargo run --release -p ise-bench --bin adversary -- [flags]`
//!
//! Flags:
//!
//! * `--seed N` — master seed (default 1)
//! * `--rounds N` — search rounds (default 6)
//! * `--beam N` — beam width per objective (default 3)
//! * `--mutations N` — children per beam slot per round (default 4)
//! * `--unhardened` — attack the deliberately weak recovery config
//!   instead of the hardened default
//! * `--self-check` — run the seeded-weakness gate: the same search
//!   against both configs; exit 1 unless the unhardened kernel
//!   loses on corruption *and* stalls while the hardened one loses on
//!   neither
//! * `--write-regressions DIR` — shrink a corruption win through the
//!   `ise-fuzz` finding pipeline and render it into `DIR` as a
//!   replayable `.litmus` reproducer
//!
//! Reads `ISE_WORKERS` (worker count) and `ISE_CYCLE_SKIP` (clock) once,
//! here, and prints the resilience scorecard(s) as JSON. The scorecard
//! is byte-identical for every worker count and under either clock —
//! the CI `pinned-binaries` job compares exactly that against its
//! golden. A failed self-check exits 1, a usage error 2.

use ise_adversary::{self_check, shrink_corruption, EvalConfig, Objective, SearchConfig};
use ise_bench::cli::{write_and_list, Args};
use ise_types::ToJson;

const USAGE: &str = "usage: adversary [--seed N] [--rounds N] [--beam N] [--mutations N] \
                     [--unhardened] [--self-check] [--write-regressions DIR]";

fn main() {
    let workers = ise_par::worker_count();
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let mut cfg = SearchConfig::smoke(1, EvalConfig::hardened());
    let mut check = false;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut args = Args::new(USAGE);
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--seed" => cfg.seed = args.value(),
            "--rounds" => cfg.rounds = args.value(),
            "--beam" => cfg.beam_width = args.value(),
            "--mutations" => cfg.mutations_per_parent = args.value(),
            "--unhardened" => cfg.eval = EvalConfig::unhardened(),
            "--self-check" => check = true,
            "--write-regressions" => out_dir = Some(args.value()),
            _ => args.unknown(),
        }
    }

    if check {
        let sc = self_check(cfg.seed, workers, skip);
        println!("{}", sc.unhardened.to_json().render());
        println!("{}", sc.hardened.to_json().render());
        if let Some(dir) = out_dir.as_deref() {
            write_corruption(&sc.unhardened, cfg.seed, dir);
        }
        if !sc.passed() {
            eprintln!(
                "self-check FAILED: unhardened corrupt={} stall={}, hardened corrupt={} stall={}",
                sc.unhardened.win(Objective::Corrupt),
                sc.unhardened.win(Objective::Stall),
                sc.hardened.win(Objective::Corrupt),
                sc.hardened.win(Objective::Stall),
            );
            std::process::exit(1);
        }
        return;
    }

    let report = ise_adversary::run_search(&cfg, workers, skip);
    println!("{}", report.to_json().render());
    if let Some(dir) = out_dir.as_deref() {
        write_corruption(&report, cfg.seed, dir);
    }
}

fn write_corruption(report: &ise_adversary::AdversaryReport, seed: u64, dir: &std::path::Path) {
    let Some(plan) = report.winning_genome(Objective::Corrupt) else {
        eprintln!("no corruption win to shrink");
        return;
    };
    match shrink_corruption(plan, seed) {
        Some(finding) => write_and_list(&[finding], dir),
        None => eprintln!("corruption win did not reproduce through the fuzz oracle"),
    }
}
