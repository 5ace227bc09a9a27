//! Regenerates Fig. 1: the message-passing litmus test and its forbidden
//! outcome.

use ise_bench::print_table;
use ise_consistency::program::format_outcome;
use ise_sim::experiments::fig1;

fn main() {
    ise_bench::cli::switches("usage: fig1", []);
    println!("Fig. 1: message passing with fences");
    println!("  Core 0: S(B,1); F; S(A,1)      Core 1: L(A); F; L(B)");
    println!("  Forbidden: L(A)=1 && L(B)=0 (the payload must follow the flag)\n");
    let result = fig1();
    for report in &result.reports {
        let mut rows = vec![vec!["observed outcome".to_string(), "allowed?".to_string()]];
        for o in &report.observed {
            rows.push(vec![
                format_outcome(o),
                if report.allowed.contains(o) {
                    "yes"
                } else {
                    "NO"
                }
                .into(),
            ]);
        }
        print_table(
            &format!(
                "{} under {} (fault mode: {}) -> {}",
                report.name,
                report.model,
                report.fault_mode,
                if report.passed() { "OK" } else { "VIOLATION" }
            ),
            &rows,
        );
        println!(
            "   states explored: {}, imprecise detections: {}\n",
            report.states, report.imprecise_detections
        );
        assert!(report.passed());
    }
}
