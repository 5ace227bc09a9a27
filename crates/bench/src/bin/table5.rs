//! Regenerates Table 5: the contract among cores, interface, and OS —
//! and *demonstrates* it as executable assertions by auditing a live run
//! and by showing that each rule's violation is caught.
//!
//! The whole report is rendered by [`ise_bench::table5_report`] so the
//! golden snapshot test (`cargo test -p ise-bench --test golden`) can
//! freeze exactly what this binary prints.

fn main() {
    ise_bench::cli::switches("usage: table5", []);
    let (text, snapshot) = ise_bench::table5_report_with_snapshot();
    print!("{text}");
    ise_bench::emit_report("table5", &snapshot);
}
