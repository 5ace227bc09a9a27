//! The benchmark command:
//!
//! ```text
//! simbench --workload <fig6_quick|fault_storm|chaos_sweep|aso_sweep>
//!          [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One run makes an untimed warm-up pass, then timed passes until
//! `--seconds` have elapsed (at least three), both on one worker, then
//! an untimed pass fanned out on two workers (fewer on a one-CPU host).
//! Every pass is checked against the warm-up pass (so worker counts 1
//! and 2 must agree) and, at seed 0, against the pinned hashes. With
//! `--trace 1` an untraced and a traced pass alternate, and the
//! reference-clock and fault-free twins run afterwards, outside every
//! timed pass. The last line of standard output is the JSON result; the
//! exit code is 1 when any check failed.

use ise_simbench::report::{end_to_end, per_layer, result_line, END_TO_END, PER_LAYER};
use ise_simbench::stats::relative_iqr;
use ise_simbench::suite::{Bench, Kind, Scale};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest timed passes a run makes.
const MIN_PASSES: usize = 3;
/// Fewest set-up samples behind `setup_s`.
const MIN_SETUPS: usize = 7;

const USAGE: &str = "usage: simbench --workload <fig6_quick|fault_storm|chaos_sweep|aso_sweep> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 15;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Removes every `ISE_*` variable before any simulator code reads one:
/// checkpoint emission, tracing, clock, worker and cell-budget
/// overrides would otherwise change what the timed passes do.
fn clear_ise_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ISE_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn main() -> ExitCode {
    let cleared = clear_ise_env();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !cleared.is_empty() {
        eprintln!("simbench: cleared {}", cleared.join(", "));
    }
    // Timed passes run on one worker: on a small shared host the second
    // CPU is intermittently taken by other work, which made 2-worker
    // pass times bimodal (about 1.5x apart) and their medians unsteady.
    // The fan-out runs on every worker (at most 2) in an untimed pass
    // that checks worker-count independence and, traced, gives the
    // `par.*` metrics.
    let workers = 1;
    let fan_workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let bench = Bench {
        kind: args.workload,
        scale: Scale::Bench,
        seed: args.seed,
    };

    // An untimed warm-up pass: the first pass of a process runs
    // measurably slower than the ones after it.
    let warm = bench.pass(workers, false, None);
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while untraced.len() < MIN_PASSES || t0.elapsed() < budget {
        untraced.push(bench.pass(workers, false, Some(&warm)));
        if args.trace {
            traced.push(bench.pass(workers, true, Some(&warm)));
        }
    }
    let fanned = bench.pass(fan_workers, args.trace, Some(&warm));
    let twins = args.trace.then(|| bench.twins(workers, fan_workers));
    let mut setups: Vec<f64> = untraced.iter().map(|p| p.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        drop(bench.synthesize());
        setups.push(t.elapsed().as_secs_f64());
    }

    let passes = [&warm, &fanned].into_iter().chain(&untraced).chain(&traced);
    let mut attempted = 0;
    let mut failed = 0;
    let mut messages = Vec::new();
    for p in passes {
        attempted += p.cells.len();
        failed += p.failed();
        messages.extend(p.messages());
    }
    if let Some(t) = &twins {
        attempted += t.attempted;
        failed += t.failures.len();
        messages.extend(t.failures.iter().cloned());
    }
    messages.sort();
    messages.dedup();
    for m in messages.iter().take(40) {
        eprintln!("simbench: FAIL {m}");
    }

    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    eprintln!(
        "simbench: {} {} timed passes, wall IQR/median {:.3}, walls {:.3?}",
        args.workload.name(),
        walls.len(),
        if walls.len() >= 2 {
            relative_iqr(&walls)
        } else {
            0.0
        },
        walls
    );
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"clock\": \"cycle-skip\", \"workers\": {workers}, \
         \"oracle_workers\": [{workers}, {fan_workers}], \"timed_passes\": {}, \"traced_passes\": {}}}",
        args.workload.name(),
        args.seed,
        untraced.len(),
        traced.len()
    );
    let (names, values) = match &twins {
        Some(t) => (PER_LAYER, per_layer(&traced, &untraced, &fanned, t)),
        None => (END_TO_END, end_to_end(&untraced, &setups)),
    };
    let correct = failed == 0;
    println!(
        "{}",
        result_line(correct, attempted, failed, names, &values)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
