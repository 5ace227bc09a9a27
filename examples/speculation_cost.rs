//! The cost of keeping exceptions precise via post-retirement
//! speculation (a miniature Table 3 / §3.3).
//!
//! Sweeps the ASO checkpoint budget on a store-heavy workload and prints
//! how much speculation state is needed to reach WC performance.
//!
//! Run with: `cargo run --release --example speculation_cost`

use imprecise_store_exceptions::aso::sweep::sweep_checkpoints_clocked;
use imprecise_store_exceptions::prelude::*;
use imprecise_store_exceptions::workloads::mixes::{synthesize, table3_mixes};

fn main() {
    let skip = imprecise_store_exceptions::engine::cycle_skip_override().unwrap_or(true);
    let spec = table3_mixes()
        .into_iter()
        .find(|m| m.name == "BC")
        .expect("BC is a Table 3 row");
    let workload = synthesize(&spec, 10_000, 2, 1);

    let mut cfg = SystemConfig::isca23();
    cfg.cores = 2;
    let result = sweep_checkpoints_clocked(
        &cfg,
        &workload.traces,
        &[1, 2, 4, 8, 16, 32],
        u64::MAX / 4,
        skip,
    );

    println!("workload: {} ({})", spec.name, spec.suite);
    println!(
        "SC IPC: {:.3}   WC IPC: {:.3}   WC speedup: {:.2}x (paper: {:.2}x)",
        result.sc_ipc,
        result.wc_ipc,
        result.wc_speedup(),
        spec.paper_wc_speedup
    );
    println!();
    println!(
        "{:>11} {:>8} {:>9} {:>11}",
        "checkpoints", "IPC", "peak SB", "state (KB)"
    );
    for p in &result.points {
        println!(
            "{:>11} {:>8.3} {:>9} {:>11.1}{}",
            p.checkpoints,
            p.ipc,
            p.peak_sb,
            p.state_bytes as f64 / 1024.0,
            if Some(*p) == result.required {
                "  <- required"
            } else {
                ""
            }
        );
    }
    match result.required_kb() {
        Some(kb) => println!(
            "\nReaching WC performance costs {kb:.1} KB of speculation state per core \
             (paper reports {} KB for BC).",
            spec.paper_state_kb.0
        ),
        None => println!("\nNo sampled budget reached WC performance."),
    }
    println!("Imprecise store exceptions need none of it.");
}
