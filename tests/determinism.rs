//! Cross-stack determinism: identical seeds and configurations must
//! produce bit-identical results — the property every experiment in
//! EXPERIMENTS.md relies on.

use imprecise_store_exceptions::prelude::*;
use imprecise_store_exceptions::sim::experiments::{fig5, fig6, Fig6Scale};
use imprecise_store_exceptions::workloads::graph::{gap_workload, GapConfig, GapKernel};
use imprecise_store_exceptions::workloads::kvstore::{kv_workload, KvConfig, KvEngine};
use imprecise_store_exceptions::workloads::microbench::{microbench, MicrobenchConfig};

#[test]
fn workload_generation_is_deterministic() {
    let a = gap_workload(GapKernel::Bc, &GapConfig::small(2));
    let b = gap_workload(GapKernel::Bc, &GapConfig::small(2));
    assert_eq!(a.traces, b.traces);
    let ka = kv_workload(KvEngine::Masstree, &KvConfig::small(2));
    let kb = kv_workload(KvEngine::Masstree, &KvConfig::small(2));
    assert_eq!(ka.traces, kb.traces);
    let ma = microbench(&MicrobenchConfig::small(8));
    let mb = microbench(&MicrobenchConfig::small(8));
    assert_eq!(
        ma.iterations[0].faulting_pages,
        mb.iterations[0].faulting_pages
    );
}

#[test]
fn system_runs_are_deterministic() {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 2;
    let w = {
        let mut c = GapConfig::small(2);
        c.in_einject = true;
        gap_workload(GapKernel::Bfs, &c)
    };
    let a = System::new(cfg, &w).run_clocked(u64::MAX / 4, true);
    let b = System::new(cfg, &w).run_clocked(u64::MAX / 4, true);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.imprecise_exceptions, b.imprecise_exceptions);
    assert_eq!(a.stores_applied, b.stores_applied);
    assert_eq!(a.retired(), b.retired());
}

#[test]
fn experiment_drivers_are_deterministic() {
    let a = fig5(&[64], 1, true);
    let b = fig5(&[64], 1, true);
    assert_eq!(a[0].exceptions, b[0].exceptions);
    assert_eq!(a[0].faulting_stores, b[0].faulting_stores);

    let fa = fig6(&Fig6Scale::quick(), 4, true);
    let fb = fig6(&Fig6Scale::quick(), 4, true);
    for (x, y) in fa.iter().zip(&fb) {
        assert_eq!(x.baseline_cycles, y.baseline_cycles, "{}", x.name);
        assert_eq!(x.imprecise_cycles, y.imprecise_cycles, "{}", x.name);
    }
}
