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
//!   against both configs; exit nonzero unless the unhardened kernel
//!   loses on corruption *and* stalls while the hardened one loses on
//!   neither
//! * `--write-regressions DIR` — shrink a corruption win through the
//!   `ise-fuzz` shrinker and render it into `DIR` as a replayable
//!   `.litmus` reproducer
//!
//! Reads `ISE_WORKERS` (worker count) and `ISE_CYCLE_SKIP` (clock) once,
//! here, and prints the resilience scorecard(s) as JSON. The scorecard
//! is byte-identical for every worker count and under either clock —
//! the CI `pinned-binaries` job diffs exactly that.

use ise_adversary::{
    self_check, shrink_corruption, write_regression, EvalConfig, Objective, SearchConfig,
};
use ise_types::ToJson;

fn main() {
    let workers = ise_par::worker_count();
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let mut seed = 1u64;
    let mut rounds = 6usize;
    let mut beam = 3usize;
    let mut mutations = 4usize;
    let mut unhardened = false;
    let mut check = false;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--seed" => seed = value("--seed").parse().expect("--seed: not a u64"),
            "--rounds" => rounds = value("--rounds").parse().expect("--rounds: not a count"),
            "--beam" => beam = value("--beam").parse().expect("--beam: not a count"),
            "--mutations" => {
                mutations = value("--mutations")
                    .parse()
                    .expect("--mutations: not a count")
            }
            "--unhardened" => unhardened = true,
            "--self-check" => check = true,
            "--write-regressions" => out_dir = Some(value("--write-regressions").into()),
            other => panic!("unknown flag {other:?}"),
        }
    }

    if check {
        let sc = self_check(seed, workers, skip);
        println!("{}", sc.unhardened.to_json().render());
        println!("{}", sc.hardened.to_json().render());
        if let Some(dir) = out_dir.as_deref() {
            write_corruption(&sc.unhardened, seed, dir);
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

    let mut eval = if unhardened {
        EvalConfig::unhardened()
    } else {
        EvalConfig::hardened()
    };
    eval.reference_clock = !skip;
    let cfg = SearchConfig {
        rounds,
        beam_width: beam,
        mutations_per_parent: mutations,
        ..SearchConfig::smoke(seed, eval)
    };
    let report = ise_adversary::run_search(&cfg, workers);
    println!("{}", report.to_json().render());
    if let Some(dir) = out_dir.as_deref() {
        write_corruption(&report, seed, dir);
    }
}

fn write_corruption(report: &ise_adversary::AdversaryReport, seed: u64, dir: &std::path::Path) {
    let Some(plan) = report.winning_genome(Objective::Corrupt) else {
        eprintln!("no corruption win to shrink");
        return;
    };
    match shrink_corruption(plan, seed) {
        Some(finding) => {
            let path = write_regression(&finding, dir).expect("writing reproducer");
            eprintln!("wrote {}", path.display());
        }
        None => eprintln!("corruption win did not reproduce through the fuzz oracle"),
    }
}
