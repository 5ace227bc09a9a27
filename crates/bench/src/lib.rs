//! Shared helpers for the experiment binaries.
//!
//! Each paper table/figure has a binary (`cargo run -p ise-bench --bin
//! tableN|figN`) that prints the regenerated rows in the paper's layout.
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! recorded paper-vs-measured results.

#![deny(missing_docs)]

pub mod cli;

use ise_consistency::program::format_outcome;
use ise_litmus::parse::{parse_litmus, ParsedLitmus};
use ise_litmus::runner::{run_test_with_policy, FaultMode};
use ise_sim::report::render_table;
use ise_telemetry::Registry;
use ise_types::model::DrainPolicy;
use ise_types::{ConsistencyModel, Json};
use std::fmt::Write;

/// The fault-intensity axis (faulting pages per iteration) the full
/// `fig5` binary sweeps — the paper's Fig. 5 x-axis.
pub const FIG5_PAGES_FULL: &[usize] = &[1, 4, 16, 64, 256, 512, 1024];

/// Reduced sweep for `fig5 --quick`: the unbatched end, the knee, and
/// the batched end. The registry golden and the CI `pinned-binaries`
/// job pin this scale so the comparison is cheap under both clocks.
pub const FIG5_PAGES_QUICK: &[usize] = &[1, 16, 256];

/// Demand-paging extension page counts (full scale).
pub const FIG5_IO_PAGES_FULL: &[usize] = &[4, 64, 512];

/// Demand-paging extension page counts (`--quick`).
pub const FIG5_IO_PAGES_QUICK: &[usize] = &[4, 64];

/// Page-in IO latency (cycles) for the demand-paging extension.
pub const FIG5_IO_LATENCY: u64 = 20_000;

/// Prints a titled table to stdout.
pub fn print_table(title: &str, rows: &[Vec<String>]) {
    println!("== {title}");
    println!("{}", render_table(rows));
}

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

/// Renders Table 5 — the core/interface/OS ordering contract — plus a
/// live contract audit and one caught violation per OS rule, as
/// deterministic text.
///
/// The `table5` binary prints this; the golden test freezes it so any
/// drift in the contract monitor or the recovery pipeline is caught.
pub fn table5_report() -> String {
    table5_report_with_snapshot().0
}

/// [`table5_report`] plus the live audit's telemetry snapshot — the
/// registry the `table5` binary hands to [`emit_report`]. The text
/// component is byte-identical to [`table5_report`] (the golden test
/// freezes it).
pub fn table5_report_with_snapshot() -> (String, Registry) {
    use ise_core::{ContractMonitor, OrderEvent};
    use ise_sim::System;
    use ise_types::addr::{Addr, ByteMask};
    use ise_types::config::SystemConfig;
    use ise_types::exception::ErrorCode;
    use ise_types::{CoreId, FaultingStoreEntry, Instruction};
    use ise_workloads::layout::EINJECT_BASE;
    use ise_workloads::Workload;

    let mut out = String::new();
    let rows = vec![
        vec![
            "component".into(),
            "requirement (PC)".into(),
            "checked by".into(),
        ],
        vec![
            "Cores".into(),
            "Supply faulting stores to the interface in store-buffer order".into(),
            "StoreBuffer::drain_to_fsb (FIFO) + GetOrderMismatch".into(),
        ],
        vec![
            "Interface".into(),
            "Supply faulting stores to the OS in the order received".into(),
            "Fsb ring FIFO + ContractMonitor GET-vs-PUT check".into(),
        ],
        vec![
            "OS (1)".into(),
            "Program resumes only after exception handling".into(),
            "ResumeBeforeResolve".into(),
        ],
        vec![
            "OS (2)".into(),
            "Apply all faulting stores during handling".into(),
            "UnappliedStores".into(),
        ],
        vec![
            "OS (3)".into(),
            "Apply the faulting stores in the interface order".into(),
            "ApplyOrderMismatch (PC only)".into(),
        ],
    ];
    writeln!(out, "== Table 5: the core/interface/OS contract").unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();

    // Live audit: run a faulting workload with the monitor on.
    let base = Addr::new(EINJECT_BASE);
    let trace: Vec<Instruction> = (0..48)
        .map(|i| Instruction::store(base.offset(i * 8), i + 1))
        .collect();
    let workload = Workload {
        name: "table5-audit".into(),
        traces: vec![trace.into()],
        einject_pages: vec![base.page()],
    };
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    let mut sys = System::new(cfg, &workload).with_contract_monitor();
    let stats = sys.run_clocked(10_000_000, true);
    let mut snapshot = Registry::new();
    snapshot.add("imprecise_exceptions", stats.imprecise_exceptions);
    snapshot.add("stores_applied", stats.stores_applied);
    snapshot.put("contract_held", Json::from(sys.check_contract().is_ok()));
    writeln!(
        out,
        "live audit: {} imprecise exception(s), {} stores applied -> contract {}",
        stats.imprecise_exceptions,
        stats.stores_applied,
        match sys.check_contract() {
            Ok(()) => "HELD".to_string(),
            Err(v) => format!("VIOLATED: {v}"),
        }
    )
    .unwrap();

    // Violation demonstrations: each OS rule, when broken, is caught.
    let e0 = FaultingStoreEntry::new(Addr::new(0), 1, ByteMask::FULL, ErrorCode(1));
    let e1 = FaultingStoreEntry::new(Addr::new(8), 2, ByteMask::FULL, ErrorCode(1));
    let c = CoreId(0);

    let mut m = ContractMonitor::new();
    m.record(OrderEvent::Detect { core: c });
    m.record(OrderEvent::Resume { core: c });
    writeln!(
        out,
        "rule 1 violation detected: {:?}",
        m.check(ConsistencyModel::Pc).unwrap_err()
    )
    .unwrap();

    let mut m = ContractMonitor::new();
    m.record(OrderEvent::Put { core: c, entry: e0 });
    m.record(OrderEvent::Get { core: c, entry: e0 });
    m.record(OrderEvent::Resolve { core: c });
    writeln!(
        out,
        "rule 2 violation detected: {:?}",
        m.check(ConsistencyModel::Pc).unwrap_err()
    )
    .unwrap();

    let mut m = ContractMonitor::new();
    m.record(OrderEvent::Put { core: c, entry: e0 });
    m.record(OrderEvent::Put { core: c, entry: e1 });
    m.record(OrderEvent::Get { core: c, entry: e0 });
    m.record(OrderEvent::Get { core: c, entry: e1 });
    m.record(OrderEvent::Sos {
        core: c,
        addr: e1.addr,
    });
    m.record(OrderEvent::Sos {
        core: c,
        addr: e0.addr,
    });
    m.record(OrderEvent::Resolve { core: c });
    writeln!(
        out,
        "rule 3 violation detected: {:?}",
        m.check(ConsistencyModel::Pc).unwrap_err()
    )
    .unwrap();
    writeln!(
        out,
        "rule 3 under WC (no inter-store order mandated): {:?}",
        m.check(ConsistencyModel::Wc)
    )
    .unwrap();
    (out, snapshot)
}

/// Prints one `JSON <label>: {...}` report line for machine consumption.
///
/// This is the single emission path every experiment binary funnels its
/// telemetry snapshot through: each binary assembles one [`Registry`]
/// (usually with [`Registry::from_sections`]) and emits it exactly once,
/// so downstream scrapers see one deterministic line per binary.
pub fn emit_report(label: &str, snapshot: &Registry) {
    println!("JSON {label}: {}", snapshot.render());
}

/// Builds the report snapshot for a list of `(section, value)` pairs —
/// sugar over [`Registry::from_sections`] for binaries whose report is a
/// handful of row arrays.
pub fn report_sections<K: Into<String>>(sections: impl IntoIterator<Item = (K, Json)>) -> Registry {
    Registry::from_sections(sections)
}

/// Formats an `Option<f64>` KB value.
pub fn kb(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.0}"),
        None => "-".into(),
    }
}
