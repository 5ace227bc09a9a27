//! Chaos-campaign acceptance tests: the fault-injection sweep holds its
//! invariants across kinds × rates × workloads, reports are reproducible
//! byte for byte, transient bus errors recover by retry, and
//! irrecoverable faults kill exactly the faulting process.

use imprecise_store_exceptions::core_hw::{FaultPlan, FaultResolver};
use imprecise_store_exceptions::prelude::*;
use imprecise_store_exceptions::sim::{ChaosCampaign, ChaosConfig, System};
use imprecise_store_exceptions::workloads::graph::{gap_workload, GapConfig, GapKernel};
use imprecise_store_exceptions::workloads::kvstore::{kv_workload, KvConfig, KvEngine};
use ise_types::exception::ExceptionKind;
use ise_types::{FaultKind, FaultSpec, ToJson};
use std::rc::Rc;

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 2;
    cfg.with_model(ConsistencyModel::Pc)
}

fn tiny_kv() -> Workload {
    let mut kv = KvConfig::small(2);
    kv.preload = 200;
    kv.ops_per_core = 40;
    kv.in_einject = true;
    kv_workload(KvEngine::Silo, &kv)
}

fn tiny_gap() -> Workload {
    let mut gap = GapConfig::small(2);
    gap.nodes = 300;
    gap.in_einject = true;
    gap_workload(GapKernel::Bfs, &gap)
}

fn sweep_config(seed: u64) -> ChaosConfig {
    ChaosConfig {
        seed,
        kinds: vec![
            FaultKind::Permanent,
            FaultKind::Transient { clears_after: 2 },
            FaultKind::Intermittent { probability: 0.5 },
            FaultKind::Windowed {
                from: 0,
                until: 100_000,
            },
        ],
        rates: vec![0.1, 0.5, 1.0],
        max_cycles: 500_000_000,
    }
}

#[test]
fn sweep_holds_invariants_across_kinds_rates_workloads() {
    let campaign = ChaosCampaign::new(small_cfg(), sweep_config(0xC4A05));
    let report = campaign.run_with_workers(&[tiny_kv(), tiny_gap()], 2);
    // 4 kinds × 3 rates × 2 workloads.
    assert_eq!(report.runs.len(), 24);
    for run in &report.runs {
        assert!(
            run.ok(),
            "{} / {} / rate {}: {:?}",
            run.workload,
            run.kind,
            run.rate,
            run.violations
        );
    }
    assert!(report.all_ok());
    // The sweep must actually have injected and exercised the machinery.
    assert!(report.runs.iter().any(|r| r.denied > 0));
    assert!(report.runs.iter().any(|r| r.imprecise_exceptions > 0));
    assert_eq!(
        report.runs.iter().map(|r| r.killed).sum::<u64>(),
        0,
        "every injected fault in this sweep is recoverable"
    );
}

#[test]
fn same_seed_yields_byte_identical_reports() {
    let mut cfg = sweep_config(0xBEEF);
    cfg.kinds.truncate(3);
    cfg.rates.truncate(1);
    let render = || {
        ChaosCampaign::new(small_cfg(), cfg.clone())
            .run_with_workers(&[tiny_kv()], 2)
            .to_json()
            .render()
    };
    let a = render();
    assert_eq!(a, render(), "same seed must replay byte-identically");

    let mut other = cfg.clone();
    other.seed = 0xF00D;
    let b = ChaosCampaign::new(small_cfg(), other)
        .run_with_workers(&[tiny_kv()], 2)
        .to_json()
        .render();
    assert_ne!(a, b, "the seed must actually steer the campaign");
}

/// A two-core hand-rolled workload: each core stores through its own
/// private pages (one store per page, so a planted fault is denied
/// exactly once before the handler runs), and a fault on core 0's pages
/// cannot touch core 1.
fn two_core_stores(base_raw: u64) -> Workload {
    let mk = |core: u64| {
        let base = Addr::new(base_raw + core * 0x100_0000);
        (0..24u64)
            .flat_map(|i| {
                [
                    Instruction::store(base.offset(i * 0x1000), i + 1),
                    Instruction::other(),
                ]
            })
            .collect::<Vec<_>>()
    };
    Workload {
        name: "two-core-stores".into(),
        traces: vec![mk(0).into(), mk(1).into()],
        einject_pages: vec![],
    }
}

#[test]
fn transient_bus_errors_recover_without_killing() {
    let w = two_core_stores(0x5000_0000);
    let faulting = Addr::new(0x5000_0000);
    let injector = Rc::new(
        FaultPlan::new(11)
            .page(
                faulting.page(),
                FaultSpec::bus_error(FaultKind::Transient { clears_after: 3 }),
            )
            .build(),
    );
    let mut sys = System::with_fault_sources(
        small_cfg(),
        &w,
        vec![injector.clone() as Rc<dyn FaultResolver>],
    );
    let stats = sys.run_clocked(10_000_000, true);
    assert_eq!(stats.killed, 0, "transient faults must be survivable");
    assert!(stats.imprecise_exceptions >= 1);
    assert!(stats.transient_recovered >= 1, "retry path must have fired");
    assert!(stats.transient_retries >= stats.transient_recovered);
    assert_eq!(stats.retired(), 96, "both cores finish their traces");
    assert!(injector.transient_clears() >= 1, "the cause healed");
    assert_eq!(sys.memory().read(faulting), 1, "the store was not lost");
}

#[test]
fn irrecoverable_fault_kills_one_core_while_the_other_completes() {
    let w = two_core_stores(0x5000_0000);
    let doomed_page = Addr::new(0x5000_0000).page();
    let injector = Rc::new(
        FaultPlan::new(23)
            .page(
                doomed_page,
                FaultSpec::bus_error(FaultKind::Permanent)
                    .with_exception(ExceptionKind::MachineCheck),
            )
            .build(),
    );
    let mut sys =
        System::with_fault_sources(small_cfg(), &w, vec![injector as Rc<dyn FaultResolver>]);
    let stats = sys.run_clocked(10_000_000, true);
    assert_eq!(stats.killed, 1, "exactly the faulting process dies");
    assert!(sys.process_killed(0));
    assert!(!sys.process_killed(1));
    assert_eq!(
        stats.cores[1].retired, 48,
        "the surviving core completes its whole trace"
    );
    assert!(sys.fsbs_empty(), "the killed core's FSB is drained clean");
    // Core 1's stores are all accounted for (conservation on survivors).
    assert_eq!(
        sys.cores()[1].sb_drained() + sys.cores()[1].sb_coalesced() + stats.applied_per_core[1],
        24
    );
}
