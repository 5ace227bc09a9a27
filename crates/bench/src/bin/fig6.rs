//! Regenerates Fig. 6: relative performance of GAP and Tailbench
//! workloads with imprecise store exceptions vs the uninjected baseline.
//!
//! Pass `--quick` for the reduced test scale. The wall-clock time of the
//! rows is reported on stderr so stdout stays byte-stable.

use ise_bench::{emit_report, print_table, report_sections};
use ise_sim::experiments::{fig6, fig6_cloudsuite, Fig6Scale};
use ise_sim::report::render_bars;
use ise_types::ToJson;

fn main() {
    let [quick] = ise_bench::cli::switches("usage: fig6 [--quick]", ["--quick"]);
    let workers = ise_par::worker_count();
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let scale = if quick {
        Fig6Scale::quick()
    } else {
        Fig6Scale::full()
    };
    let t0 = std::time::Instant::now();
    let rows = fig6(&scale, workers, skip);
    eprintln!("fig6 rows: {} ms", t0.elapsed().as_millis());
    let mut out = vec![vec![
        "workload".into(),
        "baseline cycles".into(),
        "imprecise cycles".into(),
        "relative perf".into(),
        "imprecise excs".into(),
        "precise excs".into(),
        "faulting stores".into(),
    ]];
    for r in &rows {
        out.push(vec![
            r.name.clone(),
            r.baseline_cycles.to_string(),
            r.imprecise_cycles.to_string(),
            format!("{:.1}%", 100.0 * r.relative_performance()),
            r.exceptions.to_string(),
            r.precise_exceptions.to_string(),
            r.faulting_stores.to_string(),
        ]);
    }
    print_table(
        "Fig. 6: Imprecise vs Baseline (all workload memory EInject-faulted at start)",
        &out,
    );
    let bars: Vec<(String, f64)> = rows
        .iter()
        .map(|r| (r.name.clone(), r.relative_performance()))
        .collect();
    print!("{}", render_bars(&bars, 48, " rel"));
    println!(
        "\npaper: >96.5% of baseline for GAP, <4% throughput loss for Tailbench. \
         All workloads ran start to finish with faults transparently handled."
    );
    // Beyond-paper extension: the Cloudsuite rows under the same protocol.
    let ext = fig6_cloudsuite(&scale, workers, skip);
    let mut out = vec![vec![
        "workload (extension)".into(),
        "relative perf".into(),
        "imprecise excs".into(),
        "precise excs".into(),
    ]];
    for r in &ext {
        out.push(vec![
            r.name.clone(),
            format!("{:.1}%", 100.0 * r.relative_performance()),
            r.exceptions.to_string(),
            r.precise_exceptions.to_string(),
        ]);
    }
    print_table(
        "Extension: Cloudsuite workloads (listed in Table 3, not run in the paper's Fig. 6)",
        &out,
    );
    emit_report(
        "fig6",
        &report_sections([("rows", rows.to_json()), ("cloudsuite", ext.to_json())]),
    );
}
