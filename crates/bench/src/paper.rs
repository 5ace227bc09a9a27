//! The paper's tables and figures, one function per experiment.
//!
//! [`run`] regenerates one experiment and returns its [`Report`]: the
//! text the `paper` binary prints, the telemetry registry it emits on
//! its `JSON <exp>:` line, and the verdict its exit code carries. The
//! golden tests call the same function, so the binary, the snapshots
//! and the shape checks share one code path.

use ise_consistency::program::format_outcome;
use ise_core::{ContractMonitor, Fsb, OrderEvent};
use ise_noc::Mesh;
use ise_sim::experiments::{self, Fig6Scale, Table3Scale};
use ise_sim::report::{render_bars, render_table};
use ise_sim::System;
use ise_telemetry::Registry;
use ise_types::addr::{Addr, ByteMask};
use ise_types::config::SystemConfig;
use ise_types::exception::{ErrorCode, ExceptionClass, OriginStage, X86_EXCEPTIONS};
use ise_types::{ConsistencyModel, CoreId, FaultingStoreEntry, Instruction, Json, ToJson};
use ise_workloads::layout::EINJECT_BASE;
use ise_workloads::Workload;

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: [&str; 12] = [
    "table1", "table2", "table3", "table4", "table5", "table6", "fig1", "fig2", "fig3", "fig4",
    "fig5", "fig6",
];

/// The experiments that have a reduced `--quick` scale.
pub const QUICK: [&str; 3] = ["table3", "fig5", "fig6"];

/// One experiment's result.
#[derive(Debug)]
pub struct Report {
    /// The regenerated rows in the paper's layout: everything the
    /// `paper` binary prints before the `JSON` line.
    pub text: String,
    /// The telemetry snapshot of the `JSON <exp>:` line, for the
    /// experiments that have one.
    pub registry: Option<Registry>,
    /// Whether the result has the paper's shape; the binary exits 1
    /// when it does not.
    pub passed: bool,
}

impl Report {
    fn passing(text: String) -> Self {
        Report {
            text,
            registry: None,
            passed: true,
        }
    }
}

/// Runs experiment `exp` (one of [`EXPERIMENTS`]) at the `--quick`
/// scale when `quick` is set (only [`QUICK`] experiments have one), on
/// `workers` threads, under the skip clock when `skip` is set.
///
/// # Panics
///
/// Panics on a name outside [`EXPERIMENTS`].
pub fn run(exp: &str, quick: bool, workers: usize, skip: bool) -> Report {
    match exp {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(quick, workers, skip),
        "table4" => table4(),
        "table5" => table5(),
        "table6" => table6(workers),
        "fig1" => fig1(),
        "fig2" => fig2(),
        "fig3" => fig3(skip),
        "fig4" => fig4(),
        "fig5" => fig5(quick, workers, skip),
        "fig6" => fig6(quick, workers, skip),
        _ => panic!("unknown experiment {exp:?}"),
    }
}

/// Appends a titled table.
fn table(out: &mut String, title: &str, rows: &[Vec<String>]) {
    out.push_str(&format!("== {title}\n{}\n", render_table(rows)));
}

/// Parses a table written one row per line, its cells separated by
/// ` | `.
fn cells(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .map(|line| line.split(" | ").map(String::from).collect())
        .collect()
}

/// Formats an `Option<f64>` KB value.
fn kb(v: Option<f64>) -> String {
    match v {
        Some(v) => format!("{v:.0}"),
        None => "-".into(),
    }
}

/// Table 1: classification of x86 exceptions by origin stage and
/// fault/trap/abort class.
fn table1() -> Report {
    let mut rows = cells("class | stage | exceptions");
    for class in [
        ExceptionClass::Fault,
        ExceptionClass::Trap,
        ExceptionClass::Abort,
    ] {
        for stage in [
            OriginStage::Fetch,
            OriginStage::Decode,
            OriginStage::Execute,
            OriginStage::Memory,
            OriginStage::Machine,
        ] {
            let names: Vec<&str> = X86_EXCEPTIONS
                .iter()
                .filter(|e| e.class == class && e.origin == stage)
                .map(|e| e.name)
                .collect();
            if !names.is_empty() {
                rows.push(vec![class.to_string(), stage.to_string(), names.join(", ")]);
            }
        }
    }
    let mut out = String::new();
    table(&mut out, "Table 1: x86 exception classification", &rows);
    out += &format!(
        "Every exception above originates inside the core; only machine checks are \
         imprecise today. The paper adds the '{}' origin: compute in the\n\
         cache/memory hierarchy detecting store exceptions post-retirement.\n",
        OriginStage::Hierarchy
    );
    Report::passing(out)
}

/// Table 2: the simulated system parameters.
fn table2() -> Report {
    let c = SystemConfig::isca23();
    let rows = vec![
        vec!["component".into(), "parameters".into()],
        vec![
            "Core".into(),
            format!(
                "{}x {}-way OoO, {}, {}-entry ROB, {}-entry SB",
                c.cores, c.core.width, c.core.model, c.core.rob_entries, c.core.sb_entries
            ),
        ],
        vec![
            "TLB".into(),
            format!(
                "L1(I,D): {} entries, L2: {} entries",
                c.tlb.l1_entries, c.tlb.l2_entries
            ),
        ],
        vec![
            "L1 caches".into(),
            format!(
                "{} KB {}-way L1D, 64-byte blocks, {} MSHRs, {}-cycle latency",
                c.l1d.capacity_bytes / 1024,
                c.l1d.ways,
                c.l1d.mshrs,
                c.l1d.latency
            ),
        ],
        vec![
            "L2".into(),
            format!(
                "{} MB/tile, {}-way, {}-cycle access, non-inclusive",
                c.l2.capacity_bytes / (1024 * 1024),
                c.l2.ways,
                c.l2.latency
            ),
        ],
        vec!["Coherence".into(), "Directory-based MESI".into()],
        vec![
            "Interconnect".into(),
            format!(
                "{}x{} 2D mesh, {} B links, {} cycles/hop",
                c.noc.mesh_x, c.noc.mesh_y, c.noc.link_bytes, c.noc.hop_latency
            ),
        ],
        vec![
            "Memory".into(),
            format!("{} cycle access latency (default)", c.memory.access_latency),
        ],
    ];
    let mut out = String::new();
    table(
        &mut out,
        "Table 2: system parameters (SystemConfig::isca23)",
        &rows,
    );
    Report {
        registry: Some(Registry::from_sections([("config", c.to_json())])),
        ..Report::passing(out)
    }
}

/// Table 3: instruction mix, WC speedup over SC, and the ASO speculation
/// state required to reach WC performance on the baseline, 2× memory
/// latency, and 4× store-to-load skew systems.
///
/// Passes when every mix is within 2 points of its spec, WC reaches at
/// least 0.95× SC, some baseline budget reaches WC, and among GAP the
/// store-heavy, bursty BC gains the most and SSSP the least.
fn table3(quick: bool, workers: usize, skip: bool) -> Report {
    let scale = if quick {
        Table3Scale::quick()
    } else {
        Table3Scale::full()
    };
    let rows = experiments::table3(&scale, workers, skip);
    let mut out = cells(
        "suite | workload | store% | load% | sync% | other% | WC speedup | (paper) | \
         KB base | KB 2xmem | KB 4xskew | (paper KB)",
    );
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
    let mut text = String::new();
    table(
        &mut text,
        "Table 3: mixes, WC speedup over SC, required ASO speculation state",
        &out,
    );
    let speedup = |name: &str| {
        rows.iter()
            .find(|r| r.spec.name == name)
            .map_or(f64::NAN, |r| r.wc_speedup)
    };
    let passed = rows.iter().all(|r| {
        (r.measured_mix.store_pct - r.spec.store_pct).abs() < 2.0
            && r.wc_speedup >= 0.95
            && r.state_kb[0].is_some()
    }) && speedup("BC") > speedup("BFS")
        && speedup("BFS") > speedup("SSSP");
    Report {
        text,
        registry: Some(Registry::from_sections([("rows", rows.to_json())])),
        passed,
    }
}

/// Table 4: the memory-consistency formalism notation, as implemented
/// in this repository.
fn table4() -> Report {
    let rows = cells(
        "notation | definition | implementation\n\
         L(A) | Load latest value from address A | \
         consistency::StmtOp::Read / machine load transition\n\
         S(A, D) | Store data D to address A | consistency::StmtOp::Write / store-buffer drain\n\
         S_OS(A, D) | OS stores data D at address A | os::OsKernel::handle_imprecise apply step\n\
         F | Fence as a memory ordering primitive | \
         consistency::StmtOp::Fence(Full|StoreStore|LoadLoad)\n\
         X <p Y | X before Y in program order on the same core | axiom::po_pairs\n\
         X <m Y | X before Y in the global memory order | \
         axiom acyclicity over ppo ∪ rf ∪ co ∪ fr\n\
         PUT(S(A)) | Send S(A) to the architectural interface | \
         core_hw::Fsbc::drain / OrderEvent::Put\n\
         GET | Retrieve one faulting store from the interface | \
         core_hw::Fsb::pop_head / OrderEvent::Get\n\
         DETECT | Detect an exception | \
         cpu::StoreBuffer::pump denied response / OrderEvent::Detect\n\
         RESOLVE | Resolve the exception and resume execution | \
         os handler completion / OrderEvent::Resolve\n\
         MAX<m({S(A)}) | Latest value in memory order among stores to A | \
         axiom coherence-order maximum (reads-from candidates)",
    );
    let mut out = String::new();
    table(
        &mut out,
        "Table 4: formalism notation -> implementation map",
        &rows,
    );
    out.push_str(
        "Mandated order per faulting store: DETECT <m PUT(S(A)) <m GET <m S_OS(A) <m RESOLVE\n\
         (enforced at runtime by core_hw::ContractMonitor; see `table5`).\n",
    );
    Report::passing(out)
}

/// A workload of `stores` consecutive 8-byte stores into one EInject
/// page, and the 2×1-mesh system that runs it with the contract monitor
/// on: the live runs of Table 5 and Fig. 3.
fn faulting_page_system(name: &str, stores: u64) -> System {
    let base = Addr::new(EINJECT_BASE);
    let trace: Vec<Instruction> = (0..stores)
        .map(|i| Instruction::store(base.offset(i * 8), i + 1))
        .collect();
    let workload = Workload {
        name: name.into(),
        traces: vec![trace.into()],
        einject_pages: vec![base.page()],
    };
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    System::new(cfg, &workload).with_contract_monitor()
}

/// Table 5: the core/interface/OS ordering contract, a live contract
/// audit, and one caught violation per OS rule. Passes when the live
/// audit holds the contract.
fn table5() -> Report {
    let rows = cells(
        "component | requirement (PC) | checked by\n\
         Cores | Supply faulting stores to the interface in store-buffer order | \
         StoreBuffer::drain_to_fsb (FIFO) + GetOrderMismatch\n\
         Interface | Supply faulting stores to the OS in the order received | \
         Fsb ring FIFO + ContractMonitor GET-vs-PUT check\n\
         OS (1) | Program resumes only after exception handling | ResumeBeforeResolve\n\
         OS (2) | Apply all faulting stores during handling | UnappliedStores\n\
         OS (3) | Apply the faulting stores in the interface order | ApplyOrderMismatch (PC only)",
    );
    let mut out = String::new();
    table(&mut out, "Table 5: the core/interface/OS contract", &rows);

    // Live audit: run a faulting workload with the monitor on.
    let mut sys = faulting_page_system("table5-audit", 48);
    let stats = sys.run_clocked(10_000_000, true);
    let contract = sys.check_contract();
    let mut snapshot = Registry::new();
    snapshot.add("imprecise_exceptions", stats.imprecise_exceptions);
    snapshot.add("stores_applied", stats.stores_applied);
    snapshot.put("contract_held", Json::from(contract.is_ok()));
    out += &format!(
        "live audit: {} imprecise exception(s), {} stores applied -> contract {}\n",
        stats.imprecise_exceptions,
        stats.stores_applied,
        match &contract {
            Ok(()) => "HELD".to_string(),
            Err(v) => format!("VIOLATED: {v}"),
        }
    );

    // Violation demonstrations: each OS rule, when broken, is caught.
    let e0 = FaultingStoreEntry::new(Addr::new(0), 1, ByteMask::FULL, ErrorCode(1));
    let e1 = FaultingStoreEntry::new(Addr::new(8), 2, ByteMask::FULL, ErrorCode(1));
    let c = CoreId(0);
    let monitor = |events: &[OrderEvent]| {
        let mut m = ContractMonitor::new();
        for &ev in events {
            m.record(ev);
        }
        m
    };
    let rule1 = monitor(&[
        OrderEvent::Detect { core: c },
        OrderEvent::Resume { core: c },
    ]);
    let rule2 = monitor(&[
        OrderEvent::Put { core: c, entry: e0 },
        OrderEvent::Get { core: c, entry: e0 },
        OrderEvent::Resolve { core: c },
    ]);
    let rule3 = monitor(&[
        OrderEvent::Put { core: c, entry: e0 },
        OrderEvent::Put { core: c, entry: e1 },
        OrderEvent::Get { core: c, entry: e0 },
        OrderEvent::Get { core: c, entry: e1 },
        OrderEvent::Sos {
            core: c,
            addr: e1.addr,
        },
        OrderEvent::Sos {
            core: c,
            addr: e0.addr,
        },
        OrderEvent::Resolve { core: c },
    ]);
    for (rule, m) in [(1, &rule1), (2, &rule2), (3, &rule3)] {
        out += &format!(
            "rule {rule} violation detected: {:?}\n",
            m.check(ConsistencyModel::Pc)
                .expect_err("the monitor catches the broken rule")
        );
    }
    out += &format!(
        "rule 3 under WC (no inter-store order mandated): {:?}\n",
        rule3.check(ConsistencyModel::Wc)
    );
    Report {
        text: out,
        registry: Some(snapshot),
        passed: contract.is_ok(),
    }
}

/// Table 6: the litmus campaign, grouped by ordering relation, with case
/// counts and the pass verdict. Passes when no test leaves the model.
fn table6(workers: usize) -> Report {
    let summary = experiments::table6(workers);
    let mut rows = cells("ordering relation | cases covered | passed");
    for (fam, cases, passed) in summary.by_family() {
        rows.push(vec![fam.to_string(), cases.to_string(), passed.to_string()]);
    }
    rows.push(vec![
        "TOTAL".into(),
        summary.cases().to_string(),
        summary.passed().to_string(),
    ]);
    let mut out = String::new();
    table(
        &mut out,
        "Table 6: litmus ordering relations (each test runs under PC and WC \
         with fault modes none / all locations / first location)",
        &rows,
    );
    out += &format!(
        "imprecise store exceptions taken during the campaign: {}\nverdict: {}\n",
        summary.imprecise_detections(),
        if summary.all_passed() {
            "OK — no behaviour outside the memory model (paper: 'Our prototype \
             does not produce any RVWMO violation for all the litmus tests')"
        } else {
            "VIOLATIONS FOUND"
        }
    );
    // The summary's registry IS the report: aggregate counters plus the
    // per-family pairs, shard-merge-deterministic at any worker count.
    Report {
        text: out,
        registry: Some(summary.to_registry()),
        passed: summary.all_passed(),
    }
}

/// Fig. 1: the message-passing litmus test and its forbidden outcome.
/// Passes when every run stays inside the model.
fn fig1() -> Report {
    let mut out = String::from(
        "Fig. 1: message passing with fences\n  \
         Core 0: S(B,1); F; S(A,1)      Core 1: L(A); F; L(B)\n  \
         Forbidden: L(A)=1 && L(B)=0 (the payload must follow the flag)\n\n",
    );
    let result = experiments::fig1();
    for report in &result.reports {
        let mut rows = cells("observed outcome | allowed?");
        for o in &report.observed {
            let allowed = if report.allowed.contains(o) {
                "yes"
            } else {
                "NO"
            };
            rows.push(vec![format_outcome(o), allowed.into()]);
        }
        table(
            &mut out,
            &format!(
                "{} under {} (fault mode: {}) -> {}",
                report.name,
                report.model,
                report.fault_mode,
                if report.passed() { "OK" } else { "VIOLATION" }
            ),
            &rows,
        );
        out += &format!(
            "   states explored: {}, imprecise detections: {}\n\n",
            report.states, report.imprecise_detections
        );
    }
    Report {
        passed: result.reports.iter().all(|r| r.passed()),
        ..Report::passing(out)
    }
}

/// Fig. 2: the race between PUT(S(A)) and GET. Passes when split-stream
/// (Fig. 2a) exhibits the PC violation and same-stream (Fig. 2b) hides it.
fn fig2() -> Report {
    let r = experiments::fig2();
    let out = format!(
        "Fig. 2: Core 0 runs S(A,1); S(B,1) with only A's page faulting.\n\
         Core 1 reads B then A. PC forbids L(B)=1 && L(A)=0.\n\n\
         (a) split-stream (§4.5): violation reachable = {}  [{} states explored]\n\
         (b) same-stream  (§4.6): violation reachable = {}  [{} states explored]\n\n\
         Conclusion (paper §4.6): supplying younger non-faulting stores through \
         the interface together with the faulting store lets the OS enforce \
         S_OS(A) <m S_OS(B), closing the race without any HW/SW barrier.\n",
        r.split_stream_violates, r.states.0, !r.same_stream_clean, r.states.1
    );
    Report {
        passed: r.split_stream_violates && r.same_stream_clean,
        ..Report::passing(out)
    }
}

/// Fig. 3: the imprecise store exception detection and handling flow,
/// traced from a live run. Passes when the run holds the contract.
fn fig3(skip: bool) -> Report {
    let mut sys = faulting_page_system("fig3-flow", 4);
    let stats = sys.run_clocked(1_000_000, skip);
    let mut out = String::from(
        "Fig. 3: detection and handling flow, as executed:\n\n \
         1. ROB retires the store into the store buffer (WC: no stall).\n \
         2. SB drain issues the memory request; the LLC misses; the request\n    \
         crosses the LLC<->memory boundary where EInject denies it.\n \
         3. The denied response backtracks (MSHRs freed) to the SB: DETECT.\n \
         4. Fetch stops; the SB drains ALL entries to the FSBC, which writes\n    \
         them to the FSB tail in order (same-stream, §4.6): PUT.\n \
         5. The pipeline flushes; the imprecise exception is pinned on the\n    \
         oldest instruction; the OS handler is entered.\n \
         6. The OS reads head..tail (GET), resolves each cause, applies each\n    \
         store in order (S_OS), advances the head pointer.\n \
         7. head == tail: RESOLVE; the program resumes.\n\n\
         recorded event log from the run above:\n",
    );
    for ev in sys.contract_log().expect("monitor enabled") {
        out += &format!("   {ev:?}\n");
    }
    let contract = sys.check_contract();
    out += &format!(
        "\ncontract check: {contract:?}\n\
         stats: {} imprecise exception(s), {} stores drained and applied\n",
        stats.imprecise_exceptions, stats.stores_applied
    );
    Report {
        passed: contract.is_ok(),
        ..Report::passing(out)
    }
}

/// Fig. 4: the modified multicore system — which components are stock
/// and which the co-design adds, plus the prototype's silicon accounting.
fn fig4() -> Report {
    let cfg = SystemConfig::isca23();
    let mesh = Mesh::new(cfg.noc);
    let mut out = format!(
        "Fig. 4: {} tiles on a {}x{} mesh; per tile: core (ROB {}, SB {}), L1I/L1D, \
         L2 slice, directory slice.\n\n",
        mesh.nodes(),
        cfg.noc.mesh_x,
        cfg.noc.mesh_y,
        cfg.core.rob_entries,
        cfg.core.sb_entries
    );
    let fsb = Fsb::new(Addr::new(0x2000_0000), cfg.core.sb_entries);
    let rows = cells(&format!(
        "addition | location | size / cost\n\
         FSBC (controller) | per core, co-located with the store buffer | \
         paper prototype: 354 CLB LUTs + 763 CLB registers (0.12% / 0.48% of core)\n\
         FSB (ring buffer) | main memory, OS-pinned pages | \
         {} entries x {} B = {} B ({} page(s) pinned per core)\n\
         System registers | per-core ISA state | 4 registers: base, mask, head, tail\n\
         EInject | LLC<->memory boundary (evaluation only) | page bitmap + set/clr MMIO registers\n\
         Core changes | SB drain path, exception pinning, IE serialization | \
         no change to load/store queue or SB capacity (paper §5.2)",
        fsb.capacity(),
        FaultingStoreEntry::WIRE_BYTES,
        fsb.capacity() * FaultingStoreEntry::WIRE_BYTES,
        fsb.backing_pages().len()
    ));
    table(&mut out, "co-design additions", &rows);
    out += &format!(
        "Contrast with ASO speculation state: {} B of cache overlays alone \
         (see `table3` for the full requirement).\n",
        ise_aso::SpeculationAccounting::for_system(&cfg).cache_overlay_bytes
    );
    Report::passing(out)
}

/// Fig. 5: overhead breakdown of imprecise exceptions, with and without
/// batching, plus the demand-paging extension.
///
/// The fault-intensity sweep moves the batching factor: few faulting
/// pages ≈ one faulting store per exception (the "without batching"
/// bars), saturated pages ≈ a store buffer's worth per exception (the
/// "with batching" bars). Passes when the batching factor grows with
/// the page count (within 0.2), batching lowers the per-store total,
/// and the µarch slice never exceeds the other-OS slice.
fn fig5(quick: bool, workers: usize, skip: bool) -> Report {
    // Faulting pages per iteration, and the demand-paging page counts:
    // the paper's x-axis at full scale; the unbatched end, the knee and
    // the batched end at `--quick`.
    let (pages, io_pages): (&[usize], &[usize]) = if quick {
        (&[1, 16, 256], &[4, 64])
    } else {
        (&[1, 4, 16, 64, 256, 512, 1024], &[4, 64, 512])
    };
    let rows = experiments::fig5(pages, workers, skip);
    let mut out = cells(
        "faulting pages | exceptions | faulting stores | batch factor | uarch/store | \
         apply/store | otherOS/store | total/store",
    );
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
    let mut text = String::new();
    table(
        &mut text,
        "Fig. 5: per-faulting-store overhead (cycles) vs fault intensity \
         (10k stores over a 4 MB EInject array)",
        &out,
    );
    let first = rows.first().expect("rows");
    let last = rows.last().expect("rows");
    text += &format!(
        "without batching: ~{:.0} cycles/store (paper: ~600); with batching: \
         ~{:.0} cycles/store — a {:.1}x reduction. The microarchitectural slice \
         is {:.0}% of the unbatched total (paper: 'only a tiny fraction').\n",
        first.total_per_store(),
        last.total_per_store(),
        first.total_per_store() / last.total_per_store(),
        100.0 * first.uarch_per_store / first.total_per_store()
    );
    let bars: Vec<(String, f64)> = rows
        .iter()
        .map(|r| (format!("{} pages", r.faulting_pages), r.total_per_store()))
        .collect();
    text.push_str(&render_bars(&bars, 48, " cyc/store"));
    let passed = rows
        .windows(2)
        .all(|w| w[0].batch_factor <= w[1].batch_factor + 0.2)
        && last.total_per_store() < first.total_per_store()
        && rows.iter().all(|r| r.uarch_per_store <= r.other_per_store);

    // Extension: demand paging — batched page-in IO vs the serial
    // precise-fault regime (§5.3's second batching argument).
    let io_rows = experiments::fig5_demand_paging(io_pages, workers, skip);
    let mut out = cells(
        "faulting pages | exceptions | page-ins | batched IO cycles | \
         serial IO cycles | IO speedup",
    );
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
    table(
        &mut text,
        &format!(
            "Extension: demand-paging IO, batched within imprecise-exception invocations \
             (io_latency = {}k cycles)",
            SystemConfig::isca23().os.io_latency / 1000
        ),
        &out,
    );
    Report {
        text,
        registry: Some(Registry::from_sections([
            ("rows", rows.to_json()),
            ("demand_paging", io_rows.to_json()),
        ])),
        passed,
    }
}

/// Fig. 6: relative performance of GAP and Tailbench workloads with
/// imprecise store exceptions vs the uninjected baseline, plus the
/// Cloudsuite extension. Passes when every GAP and Tailbench row keeps
/// more than 88% of its baseline performance.
fn fig6(quick: bool, workers: usize, skip: bool) -> Report {
    let scale = if quick {
        Fig6Scale::quick()
    } else {
        Fig6Scale::full()
    };
    let rows = experiments::fig6(&scale, workers, skip);
    let mut out = cells(
        "workload | baseline cycles | imprecise cycles | relative perf | imprecise excs | \
         precise excs | faulting stores",
    );
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
    let mut text = String::new();
    table(
        &mut text,
        "Fig. 6: Imprecise vs Baseline (all workload memory EInject-faulted at start)",
        &out,
    );
    let bars: Vec<(String, f64)> = rows
        .iter()
        .map(|r| (r.name.clone(), r.relative_performance()))
        .collect();
    text.push_str(&render_bars(&bars, 48, " rel"));
    text.push_str(
        "\npaper: >96.5% of baseline for GAP, <4% throughput loss for Tailbench. \
         All workloads ran start to finish with faults transparently handled.\n",
    );
    // Beyond-paper extension: the Cloudsuite rows under the same protocol.
    let ext = experiments::fig6_cloudsuite(&scale, workers, skip);
    let mut out = cells("workload (extension) | relative perf | imprecise excs | precise excs");
    for r in &ext {
        out.push(vec![
            r.name.clone(),
            format!("{:.1}%", 100.0 * r.relative_performance()),
            r.exceptions.to_string(),
            r.precise_exceptions.to_string(),
        ]);
    }
    table(
        &mut text,
        "Extension: Cloudsuite workloads (listed in Table 3, not run in the paper's Fig. 6)",
        &out,
    );
    Report {
        passed: rows.iter().all(|r| r.relative_performance() > 0.88),
        registry: Some(Registry::from_sections([
            ("rows", rows.to_json()),
            ("cloudsuite", ext.to_json()),
        ])),
        text,
    }
}
