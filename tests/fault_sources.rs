//! Integration of the §2.2 fault sources (täkō, Midgard) with the full
//! system: imprecise store exceptions raised by an accelerator or by
//! late translation are handled by the same FSB/OS machinery as EInject
//! bus errors.

use imprecise_store_exceptions::core_hw::tako::Callback;
use imprecise_store_exceptions::core_hw::{CompositeResolver, FaultResolver, MidgardMmu, Tako};
use imprecise_store_exceptions::prelude::*;
use imprecise_store_exceptions::sim::System;
use ise_mem::FaultOracle;
use ise_types::addr::PAGE_SIZE;
use std::rc::Rc;

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 2;
    cfg
}

fn stores_into(base: Addr, n: u64) -> Workload {
    let trace: Vec<Instruction> = (0..n)
        .flat_map(|i| {
            [
                Instruction::store(base.offset(i * 64), i + 1),
                Instruction::other(),
            ]
        })
        .collect();
    Workload {
        name: "stores".into(),
        traces: vec![trace.into()],
        einject_pages: Vec::new(),
    }
}

#[test]
fn tako_faults_flow_through_the_fsb_and_resolve() {
    let base = Addr::new(0x5000_0000);
    let tako = Rc::new(Tako::new(base, 8 * PAGE_SIZE, Callback::Encryption));
    tako.make_all_cold();
    let mut sys =
        System::with_fault_sources(small_cfg(), &stores_into(base, 128), vec![tako.clone()])
            .with_contract_monitor();
    let stats = sys.run_clocked(100_000_000, true);
    assert!(stats.imprecise_exceptions > 0, "accelerator must fault");
    assert_eq!(stats.retired(), 256);
    assert_eq!(stats.killed, 0);
    // Touched pages were resolved by the handler; the first store's value
    // reached memory through S_OS.
    assert!(!tako.probe(base));
    assert_eq!(sys.memory().read(base), 1);
    sys.check_contract()
        .expect("contract holds for accelerator faults");
}

#[test]
fn poisoned_tako_pages_raise_accelerator_codes_and_recover() {
    let base = Addr::new(0x5000_0000);
    let tako = Rc::new(Tako::new(base, 4 * PAGE_SIZE, Callback::Compression));
    tako.poison(base);
    let mut sys =
        System::with_fault_sources(small_cfg(), &stores_into(base, 32), vec![tako.clone()]);
    let stats = sys.run_clocked(100_000_000, true);
    assert!(stats.imprecise_exceptions > 0);
    // The accelerator-specific code was observed at least once.
    let counts = tako.fault_counts();
    assert!(
        counts
            .iter()
            .any(|&(c, n)| c == Callback::Compression.error_code() && n > 0),
        "{counts:?}"
    );
    // The OS "repaired" the page via the resolver; the run completed.
    assert!(!tako.probe(base));
    assert_eq!(stats.retired(), 64);
}

#[test]
fn midgard_back_side_faults_are_imprecise_for_stores() {
    let base = Addr::new(0x6000_0000);
    let mmu = Rc::new(MidgardMmu::new());
    mmu.map_vma(base, 8 * PAGE_SIZE, true);
    let mut sys =
        System::with_fault_sources(small_cfg(), &stores_into(base, 64), vec![mmu.clone()]);
    let stats = sys.run_clocked(100_000_000, true);
    assert!(
        stats.imprecise_exceptions > 0,
        "late translation must fault"
    );
    assert!(mmu.back_faults() > 0);
    // Every touched page got mapped by the OS.
    assert!(mmu.is_mapped(base));
    assert_eq!(stats.retired(), 128);
}

#[test]
fn three_fault_sources_compose_in_one_system() {
    let tako_base = Addr::new(0x5000_0000);
    let midgard_base = Addr::new(0x6000_0000);
    let einject_base = Addr::new(ise_workloads::layout::EINJECT_BASE);
    let tako = Rc::new(Tako::new(tako_base, 4 * PAGE_SIZE, Callback::Scatter));
    tako.make_all_cold();
    let mmu = Rc::new(MidgardMmu::new());
    mmu.map_vma(midgard_base, 4 * PAGE_SIZE, true);

    // One core stores into all three regions.
    let mut trace = Vec::new();
    for i in 0..24u64 {
        let base = match i % 3 {
            0 => einject_base,
            1 => tako_base,
            _ => midgard_base,
        };
        trace.push(Instruction::store(base.offset((i / 3) * 64), i + 1));
        trace.push(Instruction::other());
    }
    let w = Workload {
        name: "three-sources".into(),
        traces: vec![trace.into()],
        einject_pages: vec![einject_base.page()],
    };
    let mut sys = System::with_fault_sources(small_cfg(), &w, vec![tako.clone(), mmu.clone()])
        .with_contract_monitor();
    let stats = sys.run_clocked(100_000_000, true);
    assert_eq!(stats.retired(), 48);
    assert!(stats.imprecise_exceptions + stats.precise_exceptions > 0);
    // Each source's cause was resolved.
    assert!(!sys.einject().is_faulting(einject_base));
    assert!(!tako.probe(tako_base));
    assert!(mmu.is_mapped(midgard_base));
    sys.check_contract()
        .expect("contract holds with composed sources");
}

#[test]
fn composite_resolver_is_priority_ordered() {
    // If two sources overlap, the first one's verdict wins for check();
    // resolve() clears both.
    let a = Rc::new(Tako::new(
        Addr::new(0x8000_0000),
        PAGE_SIZE,
        Callback::Scatter,
    ));
    let b = Rc::new(Tako::new(
        Addr::new(0x8000_0000),
        PAGE_SIZE,
        Callback::Encryption,
    ));
    a.poison(Addr::new(0x8000_0000));
    b.poison(Addr::new(0x8000_0000));
    let c = CompositeResolver::new(vec![a.clone(), b.clone()]);
    match c.check(Addr::new(0x8000_0000), true) {
        Some(ise_types::exception::ExceptionKind::AcceleratorFault(code)) => {
            assert_eq!(code, Callback::Scatter.error_code(), "first source wins");
        }
        other => panic!("unexpected verdict {other:?}"),
    }
    c.resolve(Addr::new(0x8000_0000));
    assert!(!FaultResolver::is_faulting(&c, Addr::new(0x8000_0000)));
}
