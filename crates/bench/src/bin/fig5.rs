//! Regenerates Fig. 5: overhead breakdown of imprecise exceptions, with
//! and without batching.
//!
//! The fault-intensity sweep moves the batching factor: few faulting
//! pages ≈ one faulting store per exception (the "without batching"
//! bars), saturated pages ≈ a store buffer's worth per exception (the
//! "with batching" bars).

use ise_bench::{
    emit_report, print_table, report_sections, FIG5_IO_LATENCY, FIG5_IO_PAGES_FULL,
    FIG5_IO_PAGES_QUICK, FIG5_PAGES_FULL, FIG5_PAGES_QUICK,
};
use ise_sim::experiments::{fig5, fig5_demand_paging};
use ise_sim::report::render_bars;
use ise_types::ToJson;

fn main() {
    let [quick] = ise_bench::cli::switches("usage: fig5 [--quick]", ["--quick"]);
    let workers = ise_par::worker_count();
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let (pages, io_pages) = if quick {
        (FIG5_PAGES_QUICK, FIG5_IO_PAGES_QUICK)
    } else {
        (FIG5_PAGES_FULL, FIG5_IO_PAGES_FULL)
    };
    let rows = fig5(pages, workers, skip);
    let mut out = vec![vec![
        "faulting pages".into(),
        "exceptions".into(),
        "faulting stores".into(),
        "batch factor".into(),
        "uarch/store".into(),
        "apply/store".into(),
        "otherOS/store".into(),
        "total/store".into(),
    ]];
    for r in &rows {
        out.push(vec![
            r.faulting_pages.to_string(),
            r.exceptions.to_string(),
            r.faulting_stores.to_string(),
            format!("{:.2}", r.batch_factor),
            format!("{:.1}", r.uarch_per_store),
            format!("{:.1}", r.apply_per_store),
            format!("{:.1}", r.other_per_store),
            format!("{:.1}", r.total_per_store()),
        ]);
    }
    print_table(
        "Fig. 5: per-faulting-store overhead (cycles) vs fault intensity \
         (10k stores over a 4 MB EInject array)",
        &out,
    );
    let first = rows.first().expect("rows");
    let last = rows.last().expect("rows");
    println!(
        "without batching: ~{:.0} cycles/store (paper: ~600); with batching: \
         ~{:.0} cycles/store — a {:.1}x reduction. The microarchitectural slice \
         is {:.0}% of the unbatched total (paper: 'only a tiny fraction').",
        first.total_per_store(),
        last.total_per_store(),
        first.total_per_store() / last.total_per_store(),
        100.0 * first.uarch_per_store / first.total_per_store()
    );
    let bars: Vec<(String, f64)> = rows
        .iter()
        .map(|r| (format!("{} pages", r.faulting_pages), r.total_per_store()))
        .collect();
    print!("{}", render_bars(&bars, 48, " cyc/store"));

    // Extension: demand paging — batched page-in IO vs the serial
    // precise-fault regime (§5.3's second batching argument).
    let io_rows = fig5_demand_paging(io_pages, FIG5_IO_LATENCY, workers, skip);
    let mut out = vec![vec![
        "faulting pages".into(),
        "exceptions".into(),
        "page-ins".into(),
        "batched IO cycles".into(),
        "serial IO cycles".into(),
        "IO speedup".into(),
    ]];
    for r in &io_rows {
        out.push(vec![
            r.faulting_pages.to_string(),
            r.exceptions.to_string(),
            r.pages_resolved.to_string(),
            r.batched_io_cycles.to_string(),
            r.serial_io_cycles.to_string(),
            format!("{:.1}x", r.io_speedup()),
        ]);
    }
    print_table(
        "Extension: demand-paging IO, batched within imprecise-exception invocations \
         (io_latency = 20k cycles)",
        &out,
    );
    emit_report(
        "fig5",
        &report_sections([
            ("rows", rows.to_json()),
            ("demand_paging", io_rows.to_json()),
        ]),
    );
}
