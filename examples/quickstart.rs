//! Quickstart: run a faulting store workload end to end.
//!
//! A single core executes stores into an EInject-denied page. Watch the
//! pipeline take an imprecise store exception, the FSBC drain the store
//! buffer into the FSB, and the OS model resolve + apply the stores in
//! order before resuming.
//!
//! Run with: `cargo run --release --example quickstart`

use imprecise_store_exceptions::prelude::*;

fn main() {
    let skip = imprecise_store_exceptions::engine::cycle_skip_override().unwrap_or(true);
    // Allocate a page inside the EInject-reserved region and mark it
    // faulting (the ioctl of paper §6.2).
    let base = Addr::new(ise_workloads::layout::EINJECT_BASE);
    let trace: Vec<Instruction> = (0..64)
        .flat_map(|i| {
            [
                Instruction::store(base.offset(i * 8), i + 1),
                Instruction::other(),
                Instruction::other(),
            ]
        })
        .collect();
    let workload = Workload {
        name: "quickstart".into(),
        traces: vec![trace.into()],
        einject_pages: vec![base.page()],
    };

    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    println!(
        "system: {} core(s), {} model, {}-entry store buffer",
        1, cfg.core.model, cfg.core.sb_entries
    );

    let mut system = System::new(cfg, &workload).with_contract_monitor();
    let stats = system.run_clocked(10_000_000, skip);

    println!("retired instructions : {}", stats.retired());
    println!("cycles               : {}", stats.cycles);
    println!("IPC                  : {:.3}", stats.ipc());
    println!("imprecise exceptions : {}", stats.imprecise_exceptions);
    println!("faulting stores      : {}", stats.faulting_stores);
    println!("stores applied by OS : {}", stats.stores_applied);
    println!("batch factor         : {:.2}", stats.batch_factor());
    println!(
        "handler overhead     : uarch {} + apply {} + other {} cycles",
        stats.breakdown.uarch, stats.breakdown.apply, stats.breakdown.other_os
    );

    // The OS applied the faulting store: the value is visible in memory.
    assert_eq!(system.memory().read(base), 1);
    // And the Table 5 contract held throughout.
    system.check_contract().expect("contract violated");
    println!("Table 5 contract     : OK");
}
