//! The metrics the benchmark prints, named and unit-tagged exactly as
//! `BENCHMARK.json` lists them, and the result line that carries them.

use crate::layers::{SimCounts, Spans};
use crate::stats::{median, percentile};
use crate::suite::{Pass, Twins};

/// End-to-end metrics (`--trace 0`), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.synth_s", "s"),
    ("workloads.instrs", "count"),
    ("sim.build_s", "s"),
    ("sim.builds", "count"),
    ("sim.build_us_per_minstr", "us/Minstr"),
    ("sim.run_s", "s"),
    ("sim.ns_per_cycle", "ns/cycle"),
    ("sim.ns_per_instr", "ns/instr"),
    ("clock.skip_speedup", "x"),
    ("fault_path.extra_s", "s"),
    ("fault_path.us_per_exception", "us"),
    ("imprecise_exceptions", "count"),
    ("precise_exceptions", "count"),
    ("faulting_stores", "count"),
    ("os.invocations", "count"),
    ("batch_factor", "ratio"),
    ("handler_cycle_share", "ratio"),
    ("os.transient_retries", "count"),
    ("os.backoff_cycles", "cycles"),
    ("early_drain_interrupts", "count"),
    ("killed", "count"),
    ("mem.accesses", "count"),
    ("mem.l1_miss_ratio", "ratio"),
    ("mem.l2_hits", "count"),
    ("tlb.walks", "count"),
    ("cpu.ipc", "instr/cycle"),
    ("cpu.store_stall_cycles", "cycles"),
    ("cpu.sync_stall_cycles", "cycles"),
    ("telemetry.finalize_s", "s"),
    ("telemetry.render_s", "s"),
    ("persist.snapshot_s", "s"),
    ("persist.snapshot_bytes", "B"),
    ("par.efficiency", "ratio"),
    ("par.cell_ms.p50", "ms"),
    ("par.cell_ms.p90", "ms"),
    ("aso.sweep_s", "s"),
    ("aso.ns_per_cycle", "ns/cycle"),
    ("trace.overhead_pct", "%"),
    ("unattributed_s", "s"),
];

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end values from the untraced passes and the set-up samples,
/// in [`END_TO_END`] order.
///
/// `wall_s` and the throughputs come from the fastest pass, not the
/// median one. Other work on a shared host only ever slows a pass (on
/// the 2-CPU reference host, by up to 1.6x, in phases lasting seconds
/// to minutes), so the fastest pass estimates the program's own cost.
/// Over 10 seeds the spread of the per-run median was 0.16
/// (`fault_storm`) and 0.15 (`chaos_sweep`); that of the fastest pass
/// was 0.03 and 0.05.
pub fn end_to_end(passes: &[Pass], setups: &[f64]) -> Vec<f64> {
    let fastest = |per: &dyn Fn(&Pass) -> u64| {
        passes
            .iter()
            .map(|p| per(p) as f64 / (p.wall_s - p.setup_s) / 1e6)
            .fold(0.0, f64::max)
    };
    vec![
        passes
            .iter()
            .map(|p| p.wall_s)
            .fold(f64::INFINITY, f64::min),
        median(setups),
        fastest(&|p| p.instrs()),
        fastest(&|p| p.cycles()),
        peak_rss_mib(),
    ]
}

/// Per-layer values, in [`PER_LAYER`] order, from the traced passes
/// (averaged per pass), the untraced passes (for the tracing overhead)
/// and the twins.
///
/// Workloads whose pass makes one opaque call (the chaos campaign) or
/// no system at all (the ASO sweeps) take their system-layer figures
/// from the twins' layer-by-layer replay instead.
///
/// # Panics
///
/// Panics if `traced` or `untraced` is empty.
pub fn per_layer(traced: &[Pass], untraced: &[Pass], fanned: &Pass, twins: &Twins) -> Vec<f64> {
    let n = traced.len() as f64;
    let mut pass = Spans::new(true);
    for p in traced {
        pass.merge(&p.spans);
        for c in &p.cells {
            pass.merge(&c.spans);
        }
    }
    let sum_counts = |cells: &[crate::suite::CellResult]| {
        let mut total = SimCounts::default();
        for c in cells.iter().filter_map(|c| c.counts.as_ref()) {
            total.add(c);
        }
        total
    };
    let mut replay = Spans::new(true);
    if let Some((cells, _)) = &twins.replay {
        for c in cells {
            replay.merge(&c.spans);
        }
    }
    // The system layers: from the passes when they build systems,
    // otherwise from the replay (which runs once).
    let (sim, div, counts) = if pass.calls("sim.build") > 0 {
        (&pass, n, sum_counts(&traced[0].cells))
    } else {
        let cells = twins.replay.as_ref().map_or(&[][..], |(c, _)| c);
        (&replay, 1.0, sum_counts(cells))
    };
    let per = |layer: &str| sim.secs(layer) / div;
    let run_s = per("sim.run");
    let aso_s = pass.secs("aso.sweep") / n;
    let skip_s = if aso_s > 0.0 { aso_s } else { run_s };

    let fault_free = twins.fault_free.secs("sim.run");
    let extra_s = if twins.fault_free.calls("sim.run") > 0 {
        run_s - fault_free
    } else {
        // Fig. 6: every faulting bar follows its fault-free baseline.
        let mut d = 0.0;
        for c in traced.iter().flat_map(|p| &p.cells) {
            let s = c.spans.secs("sim.run");
            if c.label.ends_with("/baseline") {
                d -= s;
            } else {
                d += s;
            }
        }
        d / n
    };
    let snap = if replay.calls("persist.snapshot") > 0 {
        &replay
    } else {
        &twins.reference
    };

    // Fan-out balance: the fanned-out pass's cells, or the replay's when
    // the pass's fan-out is inside an opaque call.
    let (busy, fanout_wall): (Vec<f64>, f64) = if fanned.cells.iter().any(|c| c.busy_s > 0.0) {
        (
            fanned.cells.iter().map(|c| c.busy_s).collect(),
            fanned.fanout_s,
        )
    } else {
        let (cells, wall) = twins.replay.as_ref().expect("a replay for opaque passes");
        (cells.iter().map(|c| c.busy_s).collect(), *wall)
    };
    let busy_ms: Vec<f64> = busy.iter().map(|b| b * 1e3).collect();

    let fastest = |ps: &[Pass]| ps.iter().map(|p| p.wall_s).fold(f64::INFINITY, f64::min);
    let unattributed: Vec<f64> = traced
        .iter()
        .map(|p| {
            let in_cells: f64 = p.cells.iter().map(|c| c.spans.total_secs()).sum();
            p.wall_s - p.spans.total_secs() - in_cells / p.workers as f64
        })
        .collect();
    let c = counts;
    vec![
        pass.secs("workloads.synth") / n,
        traced[0].input_instrs as f64,
        per("sim.build"),
        sim.calls("sim.build") as f64 / div,
        ratio(per("sim.build") * 1e6, sim.built_instrs as f64 / div / 1e6),
        run_s,
        ratio(run_s * 1e9, c.cycles as f64),
        ratio(run_s * 1e9, c.instrs as f64),
        ratio(twins.reference.secs("clock.reference_run"), skip_s),
        extra_s,
        ratio(extra_s * 1e6, c.imprecise_exceptions as f64),
        c.imprecise_exceptions as f64,
        c.precise_exceptions as f64,
        c.faulting_stores as f64,
        c.os_invocations as f64,
        ratio(c.faulting_stores as f64, c.imprecise_exceptions as f64),
        ratio(c.handler_cycles as f64, c.core_cycles as f64),
        c.os_transient_retries as f64,
        c.os_backoff_cycles as f64,
        c.early_drain_interrupts as f64,
        c.killed as f64,
        c.mem_accesses as f64,
        ratio(c.l1_misses as f64, (c.l1_hits + c.l1_misses) as f64),
        c.l2_hits as f64,
        c.tlb_walks as f64,
        ratio(c.instrs as f64, c.cycles as f64),
        c.store_stall_cycles as f64,
        c.sync_stall_cycles as f64,
        per("telemetry.finalize"),
        per("telemetry.render"),
        snap.secs("persist.snapshot"),
        snap.snapshot_bytes as f64,
        ratio(busy.iter().sum(), fanned.workers as f64 * fanout_wall),
        percentile(&busy_ms, 50.0),
        percentile(&busy_ms, 90.0),
        aso_s,
        ratio(aso_s * 1e9, traced[0].cycles() as f64),
        (fastest(traced) / fastest(untraced) - 1.0) * 100.0,
        median(&unattributed),
    ]
}

/// Renders the result line: `correct`, `attempted`, `failed` and each
/// metric with its unit. Values print with every digit measured.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str)],
    values: &[f64],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .zip(values)
        .map(|(&(name, unit), &v)| {
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
