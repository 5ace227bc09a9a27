//! Criterion bench for the Fig. 5 machinery: the §6.4 microbenchmark at
//! the two ends of the batching axis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_sim::experiments::fig5;
use ise_sim::System;
use ise_types::config::SystemConfig;
use ise_workloads::microbench::{microbench, MicrobenchConfig};
use ise_workloads::Workload;

fn bench_microbench_run(c: &mut Criterion) {
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let mut group = c.benchmark_group("fig5/system_run");
    group.sample_size(10);
    for pages in [4usize, 512] {
        let mb = microbench(&MicrobenchConfig {
            stores_per_iter: 10_000,
            iterations: 1,
            array_bytes: 4 << 20,
            faulting_pages_per_iter: pages,
            seed: 99,
        });
        let workload = Workload {
            name: format!("mbench-{pages}"),
            traces: vec![mb.iterations[0].trace.clone()],
            einject_pages: mb.iterations[0].faulting_pages.clone(),
        };
        let mut cfg = SystemConfig::isca23();
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg.cores = 1;
        group.bench_with_input(BenchmarkId::new("pages", pages), &workload, |b, w| {
            b.iter(|| System::new(cfg, w).run_clocked(u64::MAX / 4, skip))
        });
    }
    group.finish();
}

fn bench_fig5_driver(c: &mut Criterion) {
    let workers = ise_par::worker_count();
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let mut group = c.benchmark_group("fig5/driver");
    group.sample_size(10);
    group.bench_function("two_points", |b| b.iter(|| fig5(&[4, 512], workers, skip)));
    group.finish();
}

criterion_group!(benches, bench_microbench_run, bench_fig5_driver);
criterion_main!(benches);
