//! Criterion bench for the Fig. 6 machinery: workload generation and
//! Baseline-vs-Imprecise system runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_sim::System;
use ise_types::config::SystemConfig;
use ise_workloads::graph::{gap_workload, GapConfig, GapKernel};
use ise_workloads::kvstore::{kv_workload, KvConfig, KvEngine};
use ise_workloads::Workload;

fn small_gap(kernel: GapKernel, in_einject: bool) -> Workload {
    gap_workload(
        kernel,
        &GapConfig {
            nodes: 1500,
            degree: 8,
            cores: 2,
            trials: 2,
            seed: 42,
            in_einject,
        },
    )
}

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6/generation");
    group.sample_size(10);
    group.bench_function("bfs_trace", |b| b.iter(|| small_gap(GapKernel::Bfs, false)));
    group.bench_function("silo_trace", |b| {
        b.iter(|| kv_workload(KvEngine::Silo, &KvConfig::small(2)))
    });
    group.finish();
}

fn bench_runs(c: &mut Criterion) {
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let mut group = c.benchmark_group("fig6/system_run");
    group.sample_size(10);
    let mut cfg = SystemConfig::isca23();
    cfg.cores = 2;
    for (label, faulted) in [("baseline", false), ("imprecise", true)] {
        let w = small_gap(GapKernel::Bfs, faulted);
        group.bench_with_input(BenchmarkId::new("bfs", label), &w, |b, w| {
            b.iter(|| System::new(cfg, w).run_clocked(u64::MAX / 4, skip))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation, bench_runs);
criterion_main!(benches);
