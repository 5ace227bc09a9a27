//! Graph analytics under heavy fault injection (a miniature Fig. 6).
//!
//! Runs BFS, SSSP and BC over a synthetic graph whose arrays live in the
//! EInject region with every page marked faulting, and compares against
//! the uninjected baseline.
//!
//! Run with: `cargo run --release --example graph_analytics`

use imprecise_store_exceptions::prelude::*;
use imprecise_store_exceptions::workloads::graph::{gap_workload, GapConfig, GapKernel};

fn main() {
    let skip = imprecise_store_exceptions::engine::cycle_skip_override().unwrap_or(true);
    let cores = 2;
    println!(
        "{:<6} {:>12} {:>12} {:>9} {:>10} {:>10}",
        "kernel", "base cycles", "imp cycles", "relative", "imprecise", "precise"
    );
    for kernel in [GapKernel::Bfs, GapKernel::Sssp, GapKernel::Bc] {
        let cfg = GapConfig {
            nodes: 4000,
            degree: 8,
            cores,
            trials: 8,
            seed: 42,
            in_einject: true,
        };
        let faulting = gap_workload(kernel, &cfg);
        let baseline = Workload {
            name: faulting.name.clone(),
            traces: faulting.traces.clone(),
            einject_pages: Vec::new(),
        };
        let mut sys_cfg = SystemConfig::isca23();
        sys_cfg.cores = cores;
        let base = System::new(sys_cfg, &baseline).run_clocked(u64::MAX / 4, skip);
        let imp = System::new(sys_cfg, &faulting).run_clocked(u64::MAX / 4, skip);
        println!(
            "{:<6} {:>12} {:>12} {:>8.1}% {:>10} {:>10}",
            faulting.name,
            base.cycles,
            imp.cycles,
            100.0 * base.cycles as f64 / imp.cycles as f64,
            imp.imprecise_exceptions,
            imp.precise_exceptions,
        );
        assert_eq!(base.retired(), imp.retired(), "same user work either way");
    }
    println!("\nAll kernels completed with faults transparently handled.");
}
