//! Regenerates Fig. 3: the imprecise store exception detection and
//! handling flow, traced from a live run of the assembled system.

use ise_sim::System;
use ise_types::addr::Addr;
use ise_types::config::SystemConfig;
use ise_types::Instruction;
use ise_workloads::layout::EINJECT_BASE;
use ise_workloads::Workload;

fn main() {
    ise_bench::cli::switches("usage: fig3", []);
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let base = Addr::new(EINJECT_BASE);
    let trace: Vec<Instruction> = (0..4)
        .map(|i| Instruction::store(base.offset(i * 8), i + 1))
        .collect();
    let workload = Workload {
        name: "fig3-flow".into(),
        traces: vec![trace.into()],
        einject_pages: vec![base.page()],
    };
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    let mut sys = System::new(cfg, &workload).with_contract_monitor();
    let stats = sys.run_clocked(1_000_000, skip);

    println!("Fig. 3: detection and handling flow, as executed:\n");
    println!(" 1. ROB retires the store into the store buffer (WC: no stall).");
    println!(" 2. SB drain issues the memory request; the LLC misses; the request");
    println!("    crosses the LLC<->memory boundary where EInject denies it.");
    println!(" 3. The denied response backtracks (MSHRs freed) to the SB: DETECT.");
    println!(" 4. Fetch stops; the SB drains ALL entries to the FSBC, which writes");
    println!("    them to the FSB tail in order (same-stream, §4.6): PUT.");
    println!(" 5. The pipeline flushes; the imprecise exception is pinned on the");
    println!("    oldest instruction; the OS handler is entered.");
    println!(" 6. The OS reads head..tail (GET), resolves each cause, applies each");
    println!("    store in order (S_OS), advances the head pointer.");
    println!(" 7. head == tail: RESOLVE; the program resumes.\n");

    println!("recorded event log from the run above:");
    for ev in sys.contract_log().expect("monitor enabled") {
        println!("   {ev:?}");
    }
    println!("\ncontract check: {:?}", sys.check_contract());
    println!(
        "stats: {} imprecise exception(s), {} stores drained and applied",
        stats.imprecise_exceptions, stats.stores_applied
    );
}
