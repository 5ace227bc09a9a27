//! The paper's two motivating systems (§2.2), end to end:
//!
//! * **täkō** (Example 1): a near-cache accelerator whose callbacks can
//!   page-fault or trap while servicing plain stores — detected
//!   post-retirement, delivered as imprecise store exceptions, with
//!   accelerator-specific error codes exposed through the FSB.
//! * **Midgard** (Example 2): intermediate-address-space translation
//!   whose heavyweight page-level half runs only on LLC misses — a store
//!   can pass its VMA translation, retire, and fault later.
//!
//! Both plug into the same LLC↔memory fault seam as EInject and are
//! resolved by the same OS handler.
//!
//! Run with: `cargo run --release --example near_memory_accelerator`

use imprecise_store_exceptions::core_hw::midgard::FrontSide;
use imprecise_store_exceptions::core_hw::tako::Callback;
use imprecise_store_exceptions::core_hw::{FaultResolver, MidgardMmu, Tako};
use imprecise_store_exceptions::prelude::*;
use ise_types::addr::PAGE_SIZE;
use std::rc::Rc;

fn main() {
    let skip = imprecise_store_exceptions::engine::cycle_skip_override().unwrap_or(true);
    // ---- täkō ----------------------------------------------------------
    // A compression callback covers 16 pages; all callback metadata is
    // cold at start (demand-loaded dictionaries).
    let tako_base = Addr::new(0x5000_0000);
    let tako = Rc::new(Tako::new(tako_base, 16 * PAGE_SIZE, Callback::Compression));
    tako.make_all_cold();

    // A store-heavy workload into the accelerated region.
    let trace: Vec<Instruction> = (0..256u64)
        .flat_map(|i| {
            [
                Instruction::store(tako_base.offset(i * 128), i),
                Instruction::other(),
                Instruction::other(),
            ]
        })
        .collect();
    let workload = Workload {
        name: "tako-compress".into(),
        traces: vec![trace.into()],
        einject_pages: Vec::new(), // faults come from the accelerator
    };
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    let mut sys = imprecise_store_exceptions::sim::System::with_fault_sources(
        cfg,
        &workload,
        vec![tako.clone()],
    )
    .with_contract_monitor();
    let stats = sys.run_clocked(100_000_000, skip);
    println!("== täkō (compression callbacks, all metadata cold at start)");
    println!(
        "   retired {} instructions in {} cycles",
        stats.retired(),
        stats.cycles
    );
    println!(
        "   imprecise exceptions: {}   precise: {}   stores applied by OS: {}",
        stats.imprecise_exceptions, stats.precise_exceptions, stats.stores_applied
    );
    println!(
        "   accelerator fault log (code, count): {:?}",
        tako.fault_counts()
    );
    println!("   cold pages remaining: {}", tako.cold_count());
    sys.check_contract()
        .expect("Table 5 holds for accelerator faults too");
    println!("   Table 5 contract: OK");

    // ---- Midgard --------------------------------------------------------
    println!("\n== Midgard (two-level translation)");
    let mmu = MidgardMmu::new();
    let vma = Addr::new(0x6000_0000);
    mmu.map_vma(vma, 8 * PAGE_SIZE, true);

    // The §2.2 scenario: a store passes the VMA-level translation (so it
    // retires), then faults at the page-level translation on an LLC miss.
    assert_eq!(mmu.front_translate(vma, true), FrontSide::Ok);
    println!("   front (VMA) translation: OK -> the store retires");
    let back = ise_mem::FaultOracle::check(&mmu, vma, true);
    println!("   back (page) translation on LLC miss: {back:?} (post-retirement!)");
    // The OS resolves by installing the mapping — the FaultResolver verb.
    FaultResolver::resolve(&mmu, vma);
    assert!(!FaultResolver::is_faulting(&mmu, vma));
    println!("   after OS maps the page: access clean");
    println!(
        "   front faults so far: {}   back faults so far: {}",
        mmu.front_faults(),
        mmu.back_faults()
    );
    // Read-only VMAs still fault precisely at the front side.
    let ro = Addr::new(0x7000_0000);
    mmu.map_vma(ro, PAGE_SIZE, false);
    assert_eq!(mmu.front_translate(ro, true), FrontSide::ReadOnly);
    println!("   store to read-only VMA: precise protection fault at the core (not imprecise)");
}
