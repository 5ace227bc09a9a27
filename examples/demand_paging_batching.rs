//! The batching optimization for demand paging (paper §5.3).
//!
//! One imprecise store exception can cover many faulting stores, so one
//! handler invocation can schedule many overlapping page-in IOs —
//! instead of the traditional one-precise-fault-per-IO serialization.
//!
//! Run with: `cargo run --release --example demand_paging_batching`

use imprecise_store_exceptions::os::paging::IoScheduler;
use imprecise_store_exceptions::sim::experiments::fig5;

fn main() {
    let workers = imprecise_store_exceptions::par::worker_count();
    let skip = imprecise_store_exceptions::engine::cycle_skip_override().unwrap_or(true);
    // IO overlap: the §5.3 argument in isolation.
    let io = IoScheduler::new(20_000);
    println!("demand-paging IO for N page faults (io_latency = 20k cycles):");
    println!(
        "{:>4} {:>14} {:>14} {:>8}",
        "N", "serial cycles", "batched cycles", "speedup"
    );
    for n in [1, 4, 16, 64] {
        let mut s = IoScheduler::new(20_000);
        let serial = s.serial(n, 0);
        let mut b = IoScheduler::new(20_000);
        let batched = b.batched(n, 0);
        println!(
            "{n:>4} {serial:>14} {batched:>14} {:>7.1}x",
            io.batching_speedup(n)
        );
    }

    // End-to-end: the §6.4 microbenchmark at increasing fault intensity
    // (Fig. 5's with/without batching axis).
    println!("\nmicrobenchmark overhead per faulting store (Fig. 5):");
    println!(
        "{:>8} {:>6} {:>7} {:>8} {:>8} {:>8} {:>8}",
        "pages", "excs", "batch", "uarch", "apply", "otherOS", "total"
    );
    for row in fig5(&[1, 16, 128, 1024], workers, skip) {
        println!(
            "{:>8} {:>6} {:>7.2} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            row.faulting_pages,
            row.exceptions,
            row.batch_factor,
            row.uarch_per_store,
            row.apply_per_store,
            row.other_per_store,
            row.total_per_store()
        );
    }
    println!("\nBatching amortizes the dispatch overhead exactly as §5.3 predicts.");
}
