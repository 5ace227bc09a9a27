//! End-to-end integration: cores + hierarchy + FSB/FSBC + EInject + OS.

use imprecise_store_exceptions::prelude::*;
use ise_types::addr::PAGE_SIZE;
use ise_types::exception::ErrorCode;
use ise_workloads::layout::EINJECT_BASE;

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 2;
    cfg
}

fn store_workload(stores: u64, faulting_pages: u64) -> Workload {
    let base = Addr::new(EINJECT_BASE);
    let mut trace = Vec::new();
    for i in 0..stores {
        trace.push(Instruction::store(base.offset(i * 8), i + 1));
        trace.push(Instruction::other());
    }
    Workload {
        name: "stores".into(),
        traces: vec![trace.into()],
        einject_pages: (0..faulting_pages)
            .map(|p| Addr::new(EINJECT_BASE + p * PAGE_SIZE).page())
            .collect(),
    }
}

#[test]
fn all_faulting_stores_reach_memory_in_program_order_values() {
    let mut sys = System::new(small_cfg(), &store_workload(200, 1)).with_contract_monitor();
    let stats = sys.run_clocked(50_000_000, true);
    assert!(stats.imprecise_exceptions >= 1);
    assert_eq!(stats.retired(), 400);
    // Every store value visible: the last writer of each word wins, and
    // each word was written once.
    let base = Addr::new(EINJECT_BASE);
    for i in 0..200u64 {
        let v = sys.memory().read(base.offset(i * 8));
        // Stores past the faulting episode complete in caches (not the
        // flat memory), so we can only assert the OS-applied prefix here.
        if v != 0 {
            assert_eq!(v, i + 1, "word {i} has the wrong value");
        }
    }
    // The first store was in the drained batch, so it must be present.
    assert_eq!(sys.memory().read(base), 1);
    sys.check_contract().expect("Table 5 contract");
}

#[test]
fn wc_and_pc_systems_handle_faults_sc_takes_precise() {
    for model in [ConsistencyModel::Pc, ConsistencyModel::Wc] {
        let stats = System::new(small_cfg().with_model(model), &store_workload(64, 1))
            .run_clocked(50_000_000, true);
        assert!(
            stats.imprecise_exceptions >= 1,
            "{model}: no imprecise exceptions"
        );
        assert_eq!(stats.retired(), 128, "{model}");
    }
    let stats = System::new(
        small_cfg().with_model(ConsistencyModel::Sc),
        &store_workload(64, 1),
    )
    .run_clocked(50_000_000, true);
    assert_eq!(stats.imprecise_exceptions, 0, "SC has no store buffer");
    assert!(stats.precise_exceptions >= 1);
}

#[test]
fn segfault_terminates_the_process_and_discards_stores() {
    // Build a system whose oracle is EInject, then inject an
    // irrecoverable entry directly through the OS path by running a
    // workload and checking the kill accounting instead. Here we exercise
    // the handler directly for the irrecoverable case.
    use imprecise_store_exceptions::core_hw::{EInject, Fsb};
    use imprecise_store_exceptions::os::OsKernel;
    use ise_mem::FlatMemory;
    use ise_types::addr::ByteMask;
    use ise_types::CoreId;

    let mut os = OsKernel::new(SystemConfig::isca23().os);
    let einject = EInject::new(Addr::new(EINJECT_BASE), 4 * PAGE_SIZE);
    let mut fsb = Fsb::new(Addr::new(0x2000_0000), 32);
    let mut mem = FlatMemory::new();
    fsb.push(FaultingStoreEntry::new(
        Addr::new(EINJECT_BASE),
        7,
        ByteMask::FULL,
        ise_types::exception::ExceptionKind::SegmentationFault.error_code(),
    ))
    .unwrap();
    fsb.push(FaultingStoreEntry::non_faulting(
        Addr::new(EINJECT_BASE + 8),
        9,
        ByteMask::FULL,
    ))
    .unwrap();
    let out = os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, None);
    assert!(out.terminated);
    assert_eq!(mem.read(Addr::new(EINJECT_BASE)), 0);
    assert_eq!(mem.read(Addr::new(EINJECT_BASE + 8)), 0);
    assert_eq!(os.processes_killed(), 1);
}

#[test]
fn einject_pages_clear_exactly_once() {
    let mut sys = System::new(small_cfg(), &store_workload(600, 2));
    let stats = sys.run_clocked(100_000_000, true);
    assert!(!sys.einject().is_faulting(Addr::new(EINJECT_BASE)));
    assert!(!sys
        .einject()
        .is_faulting(Addr::new(EINJECT_BASE + PAGE_SIZE)));
    // 600 stores cover 4800 bytes: both marked pages were touched.
    assert!(stats.denied >= 2);
    assert_eq!(stats.killed, 0);
}

#[test]
fn mixed_load_store_workload_with_faults_completes() {
    use ise_types::instr::Reg;
    let base = Addr::new(EINJECT_BASE);
    let mut trace = Vec::new();
    for i in 0..150u64 {
        match i % 3 {
            0 => trace.push(Instruction::store(base.offset(i * 8), i)),
            1 => trace.push(Instruction::load(base.offset((i - 1) * 8), Reg(0))),
            _ => trace.push(Instruction::other()),
        }
    }
    let w = Workload {
        name: "mixed".into(),
        traces: vec![trace.clone().into(), trace.into()],
        einject_pages: vec![base.page()],
    };
    let stats = System::new(small_cfg(), &w).run_clocked(100_000_000, true);
    assert_eq!(stats.retired(), 300);
    assert!(stats.imprecise_exceptions + stats.precise_exceptions > 0);
}

#[test]
fn fsb_error_codes_survive_the_full_path() {
    // The error code embedded at the LLC<->memory boundary must be the
    // one the OS observes.
    let w = store_workload(8, 1);
    let mut sys = System::new(small_cfg(), &w).with_contract_monitor();
    sys.run_clocked(10_000_000, true);
    // The monitor recorded PUT events whose entries carry BusError codes.
    let log = sys.check_contract();
    assert!(log.is_ok());
    let code = ise_types::exception::ExceptionKind::BusError.error_code();
    assert_ne!(code, ErrorCode(0));
}

#[test]
fn three_fault_sources_compose_in_one_system() {
    use imprecise_store_exceptions::core_hw::{FaultPlan, FaultResolver};
    use ise_types::exception::ExceptionKind;
    use ise_types::faults::{FaultKind, FaultSpec};
    use std::rc::Rc;

    let einject_base = Addr::new(EINJECT_BASE);
    let paging_base = Addr::new(0x5000_0000);
    let bus_base = Addr::new(0x6000_0000);
    let injector = |base: Addr, exception| {
        let spec = FaultSpec {
            kind: FaultKind::Permanent,
            exception,
        };
        let pages = (0..4).map(|p| base.offset(p * PAGE_SIZE).page());
        Rc::new(FaultPlan::new(7).pages(pages, spec).build())
    };
    let paging = injector(paging_base, ExceptionKind::PageFault);
    let bus = injector(bus_base, ExceptionKind::BusError);

    // One core stores into all three regions.
    let mut trace = Vec::new();
    for i in 0..24u64 {
        let base = [einject_base, paging_base, bus_base][i as usize % 3];
        trace.push(Instruction::store(base.offset((i / 3) * 64), i + 1));
        trace.push(Instruction::other());
    }
    let w = Workload {
        name: "three-sources".into(),
        traces: vec![trace.into()],
        einject_pages: vec![einject_base.page()],
    };
    let extra: Vec<Rc<dyn FaultResolver>> = vec![paging.clone(), bus.clone()];
    let mut sys = System::with_fault_sources(small_cfg(), &w, extra).with_contract_monitor();
    let stats = sys.run_clocked(100_000_000, true);
    assert_eq!(stats.retired(), 48);
    assert_eq!(stats.killed, 0);
    assert!(stats.imprecise_exceptions > 0);
    // Each source's cause was resolved, and only on the touched page.
    assert!(!sys.einject().is_faulting(einject_base));
    assert_eq!(paging.cleared_pages(), vec![paging_base.page()]);
    assert_eq!(bus.cleared_pages(), vec![bus_base.page()]);
    sys.check_contract()
        .expect("contract holds with composed sources");
}
