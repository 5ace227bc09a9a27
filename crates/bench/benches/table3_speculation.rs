//! Criterion bench for the Table 3 machinery: the checkpoint sweep on
//! one representative workload per suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_aso::sweep::sweep_checkpoints_clocked;
use ise_types::config::SystemConfig;
use ise_workloads::mixes::{synthesize, table3_mixes};

fn bench_sweep(c: &mut Criterion) {
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let mut group = c.benchmark_group("table3");
    group.sample_size(10);
    let mut cfg = SystemConfig::isca23();
    cfg.cores = 2;
    for name in ["BFS", "Silo", "Data Caching"] {
        let spec = table3_mixes()
            .into_iter()
            .find(|m| m.name == name)
            .expect("known row");
        let w = synthesize(&spec, 4_000, 2, 0x7a31);
        group.bench_with_input(BenchmarkId::new("sweep", name), &w, |b, w| {
            b.iter(|| sweep_checkpoints_clocked(&cfg, &w.traces, &[1, 8, 32], u64::MAX / 4, skip))
        });
    }
    group.finish();
}

fn bench_synthesis(c: &mut Criterion) {
    let spec = table3_mixes()[0];
    c.bench_function("table3/synthesize_20k", |b| {
        b.iter(|| synthesize(&spec, 20_000, 1, 7))
    });
}

criterion_group!(benches, bench_sweep, bench_synthesis);
criterion_main!(benches);
