//! Runs litmus tests from text files (see `ise_litmus::parse` for the
//! dialect) under PC and WC, with and without injected faults.
//!
//! Usage: `cargo run -p ise-bench --bin litmus -- <file.litmus>...`
//! With no arguments, runs a built-in demonstration test. Exits 1 when a
//! test fails to parse or shows a violation, 2 on an unknown flag or an
//! unreadable file.

use ise_bench::cli::Args;
use ise_consistency::program::format_outcome;
use ise_litmus::parse::parse_litmus;
use ise_litmus::runner::run_test;
use ise_types::ConsistencyModel;

const DEMO: &str = r#"
name: MP+fence+fence (built-in demo)
family: barriers
P0: W B 1 ; F ; W A 1
P1: R A r0 ; F ; R B r1
forbid: 1:r0=1 & 1:r1=0
"#;

fn main() {
    let mut args = Args::new("usage: litmus [FILE.litmus]...");
    let mut paths = Vec::new();
    while let Some(arg) = args.next_flag() {
        if arg.starts_with('-') {
            args.unknown();
        }
        paths.push(arg);
    }
    let sources: Vec<(String, String)> = if paths.is_empty() {
        println!(
            "(no files given; running the built-in demo — pass .litmus files to run your own)\n"
        );
        vec![("<demo>".into(), DEMO.into())]
    } else {
        paths
            .into_iter()
            .map(|path| {
                let text = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| args.fail(&format!("cannot read {path}: {e}")));
                (path, text)
            })
            .collect()
    };

    let mut failures = 0;
    for (path, text) in sources {
        let parsed = match parse_litmus(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{path}: parse error: {e}");
                failures += 1;
                continue;
            }
        };
        println!(
            "== {} ({}, family {})",
            parsed.test.name, path, parsed.test.family
        );
        for model in [ConsistencyModel::Pc, ConsistencyModel::Wc] {
            for inject in [false, true] {
                let report = run_test(&parsed.test, model, inject);
                let mut ok = report.passed();
                for f in &parsed.forbidden {
                    if report.observed.contains(f) {
                        ok = false;
                        println!("   !! forbidden outcome observed: {}", format_outcome(f));
                    }
                }
                println!(
                    "   {model} faults={inject:<5} observed {:2} / allowed {:2} \
                     [{} states, {} imprecise] -> {}",
                    report.observed.len(),
                    report.allowed.len(),
                    report.states,
                    report.imprecise_detections,
                    if ok { "OK" } else { "VIOLATION" }
                );
                if !ok {
                    failures += 1;
                }
            }
        }
    }
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
