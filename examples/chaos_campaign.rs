//! Chaos campaign demo: sweep fault rate × kind over the kvstore
//! workload and print the invariant-checked JSON report.
//!
//! ```sh
//! cargo run --release --example chaos_campaign
//! ```
//!
//! With `ISE_TRACE=1` (or `on`/`true`/`yes`; a malformed value aborts)
//! the demo also re-runs one sweep cell with the cycle-stamped event
//! trace enabled and dumps it to stderr — fault activations, FSB drain
//! episodes, page walks, and fault clearings, each stamped with its
//! cycle and core:
//!
//! ```sh
//! ISE_TRACE=1 cargo run --release --example chaos_campaign 2>trace.json
//! ```

use imprecise_store_exceptions::sim::{ChaosCampaign, ChaosConfig};
use imprecise_store_exceptions::types::config::SystemConfig;
use imprecise_store_exceptions::types::{ConsistencyModel, FaultKind, ToJson};
use imprecise_store_exceptions::workloads::kvstore::{kv_workload, KvConfig, KvEngine};

fn main() {
    let workers = imprecise_store_exceptions::par::worker_count();
    let skip = imprecise_store_exceptions::engine::cycle_skip_override().unwrap_or(true);
    let trace = imprecise_store_exceptions::types::env::env_flag("ISE_TRACE").unwrap_or(false);
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 2;
    let cfg = cfg
        .with_model(ConsistencyModel::Pc)
        .with_reference_clock(!skip);

    let mut kv = KvConfig::small(2);
    kv.preload = 400;
    kv.ops_per_core = 80;
    kv.in_einject = true;
    let workload = kv_workload(KvEngine::Silo, &kv);

    let chaos = ChaosConfig {
        seed: 0xC4A05,
        kinds: vec![
            FaultKind::Permanent,
            FaultKind::Transient { clears_after: 2 },
            FaultKind::Intermittent { probability: 0.5 },
            FaultKind::Windowed {
                from: 0,
                until: 100_000,
            },
        ],
        rates: vec![0.1, 0.25, 0.5, 1.0],
        max_cycles: 500_000_000,
    };

    let campaign = ChaosCampaign::new(cfg, chaos);
    let report = campaign.run_with_workers(std::slice::from_ref(&workload), workers);
    eprintln!(
        "{} runs, all invariants {}",
        report.runs.len(),
        if report.all_ok() { "held" } else { "VIOLATED" }
    );
    println!("{}", report.to_json().render());
    assert!(report.all_ok(), "invariant violation — see report");

    // ISE_TRACE: replay one sweep cell with the event trace on and
    // dump the ring — the telemetry quickstart in README.md.
    if trace {
        let (run, trace) = campaign.trace_cell(&workload, FaultKind::Permanent, 1.0, 1 << 20);
        eprintln!(
            "traced cell: {} imprecise exception(s), {} store(s) applied",
            run.imprecise_exceptions, run.stores_applied
        );
        eprintln!("{}", trace.render());
    }
}
