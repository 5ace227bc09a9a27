//! Regenerates one of the paper's tables or figures:
//! `paper <table1..table6|fig1..fig6> [--quick]`.
//!
//! Prints the rows in the paper's layout, then the experiment's `JSON
//! <exp>:` registry line when it has one. `--quick` (only `table3`,
//! `fig5` and `fig6`) runs the reduced test scale. Exits 1 when the
//! result does not have the paper's shape and 2 on a usage error. The
//! run's wall-clock time goes to stderr so stdout stays byte-stable.

use ise_bench::cli::Args;
use ise_bench::paper;

const USAGE: &str =
    "usage: paper <table1..table6|fig1..fig6> [--quick]  (--quick: table3, fig5, fig6)";

fn main() {
    let mut args = Args::new(USAGE);
    let Some(exp) = args.next_flag() else {
        args.fail("missing experiment")
    };
    if !paper::EXPERIMENTS.contains(&exp.as_str()) {
        args.fail(&format!("unknown experiment {exp:?}"));
    }
    let mut quick = false;
    while let Some(flag) = args.next_flag() {
        match flag.as_str() {
            "--quick" if paper::QUICK.contains(&exp.as_str()) => quick = true,
            _ => args.unknown(),
        }
    }
    let workers = ise_par::worker_count();
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);

    let t0 = std::time::Instant::now();
    let report = paper::run(&exp, quick, workers, skip);
    eprintln!(
        "{exp}: {} ms on {workers} worker(s)",
        t0.elapsed().as_millis()
    );
    print!("{}", report.text);
    if let Some(registry) = &report.registry {
        ise_bench::emit_report(&exp, registry);
    }
    if !report.passed {
        eprintln!("{exp}: the result does not have the paper's shape");
        std::process::exit(1);
    }
}
