//! Differential tests for the telemetry plane: metrics and reports must
//! be byte-identical across worker counts × clock modes, and tracing
//! must be a pure observer (identical stats and registry with the ring
//! on or off).
//!
//! A new `System` never traces; tracing is only the explicit
//! `with_trace`, so each test compares the ring on and off in-process.

use imprecise_store_exceptions::sim::{ChaosCampaign, ChaosConfig, System};
use imprecise_store_exceptions::telemetry::TraceEventKind;
use imprecise_store_exceptions::types::config::SystemConfig;
use imprecise_store_exceptions::types::{ConsistencyModel, FaultKind, Instruction, ToJson};
use imprecise_store_exceptions::workloads::kvstore::{kv_workload, KvConfig, KvEngine};
use imprecise_store_exceptions::workloads::layout::EINJECT_BASE;
use imprecise_store_exceptions::workloads::Workload;
use ise_types::addr::Addr;

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 2;
    cfg
}

fn faulting_workload() -> Workload {
    let base = Addr::new(EINJECT_BASE);
    let mk = |seed: u64| {
        (0..40u64)
            .flat_map(|i| {
                [
                    Instruction::store(base.offset((seed * 4096 + i) * 8), i + 1),
                    Instruction::other(),
                ]
            })
            .collect::<Vec<_>>()
    };
    Workload {
        name: "telemetry-determinism".into(),
        traces: vec![mk(0).into(), mk(1).into()],
        einject_pages: vec![base.page(), base.offset(4096 * 8).page()],
    }
}

fn chaos_campaign() -> (ChaosCampaign, Vec<Workload>) {
    let mut kv = KvConfig::small(2);
    kv.preload = 200;
    kv.ops_per_core = 40;
    kv.in_einject = true;
    let chaos = ChaosConfig {
        seed: 0x7E1E,
        kinds: vec![
            FaultKind::Permanent,
            FaultKind::Transient { clears_after: 2 },
        ],
        rates: vec![0.5],
        max_cycles: 200_000_000,
    };
    (
        ChaosCampaign::new(small_cfg().with_model(ConsistencyModel::Pc), chaos),
        vec![kv_workload(KvEngine::Silo, &kv)],
    )
}

/// Chaos reports — now rendered through the telemetry registry — stay
/// byte-identical for every worker count, exactly as before the
/// refactor.
#[test]
fn chaos_registry_reports_identical_across_worker_counts() {
    let (campaign, workloads) = chaos_campaign();
    let reference = campaign.run_with_workers(&workloads, 1);
    assert!(reference.all_ok(), "reference invariants must hold");
    let reference_json = reference.to_registry().render();
    assert_eq!(
        reference_json,
        reference.to_json().render(),
        "ToJson must delegate to the registry"
    );
    for workers in [2usize, 4] {
        assert_eq!(
            campaign
                .run_with_workers(&workloads, workers)
                .to_registry()
                .render(),
            reference_json,
            "workers={workers}: registry rendering must be byte-identical"
        );
    }
}

/// The full metric registry a run exports is byte-identical across both
/// clocks and across tracing on/off: 2×2 runs, one rendering.
#[test]
fn registry_identical_across_clocks_and_tracing() {
    let w = faulting_workload();
    let mut renderings = Vec::new();
    for skip in [false, true] {
        for traced in [false, true] {
            let sys = System::new(small_cfg(), &w);
            let mut sys = if traced { sys.with_trace(4096) } else { sys };
            let stats = sys.run_clocked(10_000_000, skip);
            renderings.push((
                skip,
                traced,
                stats.to_json().render(),
                sys.telemetry().registry.to_json().render(),
            ));
        }
    }
    let (_, _, stats0, reg0) = &renderings[0];
    for (skip, traced, stats, reg) in &renderings {
        assert_eq!(
            stats, stats0,
            "skip={skip} traced={traced}: stats must be byte-identical"
        );
        assert_eq!(
            reg, reg0,
            "skip={skip} traced={traced}: registry must be byte-identical"
        );
    }
}

/// The trace itself is deterministic: two identical traced runs under
/// either clock record identical event streams.
#[test]
fn trace_identical_across_repeated_runs_per_clock() {
    let w = faulting_workload();
    let run = |skip: bool| {
        let mut sys = System::new(small_cfg(), &w).with_trace(8192);
        sys.run_clocked(10_000_000, skip);
        sys.trace_json().render()
    };
    for skip in [false, true] {
        assert_eq!(run(skip), run(skip), "skip={skip}: trace must be stable");
    }
}

/// Sanity on trace content through the facade: drain episodes pair up
/// and the chaos trace cell reports the fault lifecycle.
#[test]
fn trace_cell_exposes_fault_lifecycle_events() {
    let (campaign, workloads) = chaos_campaign();
    // Inject every touched page permanently so the store stream is
    // guaranteed to hit faults (a sub-1.0 rate can sample load-only
    // pages and never drain), and size the ring for the whole run
    // rather than a recent window.
    let (run, trace) = campaign.trace_cell(&workloads[0], FaultKind::Permanent, 1.0, 1 << 20);
    assert!(run.ok(), "violations: {:?}", run.violations);
    let rendered = trace.render();
    for needle in [
        TraceEventKind::FaultActivated { page: 0 }.name(),
        TraceEventKind::FaultCleared { page: 0 }.name(),
        TraceEventKind::FsbDrainBegin { pending: 0 }.name(),
        TraceEventKind::FsbDrainEnd {
            applied: 0,
            cycles: 0,
        }
        .name(),
    ] {
        assert!(
            rendered.contains(&format!("\"{needle}\"")),
            "trace must contain {needle}"
        );
    }
}
