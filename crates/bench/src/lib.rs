//! The benchmark harness: the paper's tables and figures behind one
//! `paper` binary (`cargo run -p ise-bench --bin paper -- <exp>`, one
//! function per experiment in [`paper`]), the litmus report format the
//! golden snapshots freeze, and the campaign binaries' command line
//! ([`cli`]). See DESIGN.md §4 for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.

#![deny(missing_docs)]

pub mod cli;
pub mod paper;

use ise_consistency::program::format_outcome;
use ise_litmus::parse::{parse_litmus, ParsedLitmus};
use ise_litmus::runner::{run_test_with_policy, FaultMode};
use ise_telemetry::Registry;
use ise_types::model::DrainPolicy;
use ise_types::ConsistencyModel;
use std::fmt::Write;

/// Renders one parsed litmus test's campaign verdict as deterministic
/// text: for each {PC, WC} × fault-mode configuration, the observed
/// outcome set, the sizes of observed/allowed, the distinct-state and
/// imprecise-exception counts, and the pass/forbidden verdicts.
///
/// This is the format the golden snapshots under
/// `crates/bench/tests/golden/` freeze for the checked-in `litmus/`
/// corpus; any drift in parser, machine, or axiomatic model shows up as
/// a diff (regenerate intentionally with `ISE_REGEN_GOLDEN=1 cargo test
/// -p ise-bench --test golden`).
pub fn litmus_file_report(parsed: &ParsedLitmus) -> String {
    let mut out = String::new();
    writeln!(out, "test: {}", parsed.test.name).unwrap();
    writeln!(out, "family: {}", parsed.test.family).unwrap();
    for model in [ConsistencyModel::Pc, ConsistencyModel::Wc] {
        for mode in FaultMode::ALL {
            let r = run_test_with_policy(&parsed.test, model, mode, DrainPolicy::SameStream);
            let mut verdict = if r.passed() { "OK" } else { "VIOLATION" };
            for f in &parsed.forbidden {
                if r.observed.contains(f) {
                    verdict = "FORBIDDEN-OBSERVED";
                }
            }
            writeln!(
                out,
                "{model} faults={mode}: observed {}/{} allowed, {} states, \
                 {} imprecise, {} precise -> {verdict}",
                r.observed.len(),
                r.allowed.len(),
                r.states,
                r.imprecise_detections,
                r.precise_exceptions,
            )
            .unwrap();
            for o in &r.observed {
                writeln!(out, "  {}", format_outcome(o)).unwrap();
            }
        }
    }
    out
}

/// Parses litmus source text and renders its [`litmus_file_report`].
///
/// # Panics
///
/// Panics on a parse error (the checked-in corpus must stay parseable).
pub fn litmus_source_report(src: &str) -> String {
    let parsed = parse_litmus(src).expect("checked-in litmus test must parse");
    litmus_file_report(&parsed)
}

/// Prints one `JSON <label>: {...}` report line for machine consumption.
///
/// The one emission path for the `paper` and `guest` binaries: each
/// run assembles one [`Registry`] and emits it exactly once, so
/// downstream scrapers see one deterministic line per run.
pub fn emit_report(label: &str, snapshot: &Registry) {
    println!("JSON {label}: {}", snapshot.render());
}
