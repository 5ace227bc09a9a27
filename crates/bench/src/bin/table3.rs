//! Regenerates Table 3: instruction mix, WC speedup over SC, and the ASO
//! speculation state required to reach WC performance on the baseline,
//! 2× memory latency, and 4× store-to-load skew systems.
//!
//! Pass `--quick` for the reduced test scale.

use ise_bench::{emit_report, kb, print_table, report_sections};
use ise_sim::experiments::{table3, Table3Scale};
use ise_types::ToJson;

fn main() {
    let [quick] = ise_bench::cli::switches("usage: table3 [--quick]", ["--quick"]);
    let workers = ise_par::worker_count();
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let scale = if quick {
        Table3Scale::quick()
    } else {
        Table3Scale::full()
    };
    let rows = table3(&scale, workers, skip);
    let mut out = vec![vec![
        "suite".into(),
        "workload".into(),
        "store%".into(),
        "load%".into(),
        "sync%".into(),
        "other%".into(),
        "WC speedup".into(),
        "(paper)".into(),
        "KB base".into(),
        "KB 2xmem".into(),
        "KB 4xskew".into(),
        "(paper KB)".into(),
    ]];
    for r in &rows {
        out.push(vec![
            r.spec.suite.into(),
            r.spec.name.into(),
            format!("{:.0}", r.measured_mix.store_pct),
            format!("{:.0}", r.measured_mix.load_pct),
            format!("{:.1}", r.measured_mix.sync_pct),
            format!("{:.0}", r.measured_mix.other_pct),
            format!("{:.2}", r.wc_speedup),
            format!("{:.2}", r.spec.paper_wc_speedup),
            kb(r.state_kb[0]),
            kb(r.state_kb[1]),
            kb(r.state_kb[2]),
            format!("{:?}", r.spec.paper_state_kb),
        ]);
    }
    print_table(
        "Table 3: mixes, WC speedup over SC, required ASO speculation state",
        &out,
    );
    emit_report("table3", &report_sections([("rows", rows.to_json())]));
}
