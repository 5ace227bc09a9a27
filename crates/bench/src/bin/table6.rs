//! Regenerates Table 6: the litmus campaign, grouped by ordering
//! relation, with case counts and the pass verdict.

use ise_bench::{emit_report, print_table};
use ise_litmus::corpus::corpus;
use ise_litmus::runner::run_corpus;

fn main() {
    ise_bench::cli::switches("usage: table6", []);
    let workers = ise_par::worker_count();
    let tests = corpus();
    // Parallel over (test, model, fault-mode) cases; the merged summary
    // is identical to a sequential run (set ISE_WORKERS to pin).
    eprintln!("running {} tests on {workers} worker(s)", tests.len());
    let summary = run_corpus(&tests, workers);
    let mut rows = vec![vec![
        "ordering relation".into(),
        "cases covered".into(),
        "passed".into(),
    ]];
    for (fam, cases, passed) in summary.by_family() {
        rows.push(vec![fam.to_string(), cases.to_string(), passed.to_string()]);
    }
    rows.push(vec![
        "TOTAL".into(),
        summary.cases().to_string(),
        summary.passed().to_string(),
    ]);
    print_table(
        "Table 6: litmus ordering relations (each test runs under PC and WC \
         with fault modes none / all locations / first location)",
        &rows,
    );
    println!(
        "imprecise store exceptions taken during the campaign: {}",
        summary.imprecise_detections()
    );
    println!(
        "verdict: {}",
        if summary.all_passed() {
            "OK — no behaviour outside the memory model (paper: 'Our prototype \
             does not produce any RVWMO violation for all the litmus tests')"
        } else {
            "VIOLATIONS FOUND"
        }
    );
    // The summary's registry IS the report: aggregate counters plus the
    // per-family pairs, shard-merge-deterministic at any worker count.
    emit_report("table6", &summary.to_registry());
    std::process::exit(if summary.all_passed() { 0 } else { 1 });
}
