//! Criterion bench for the Table 6 machinery: axiomatic enumeration and
//! exhaustive operational exploration of representative litmus tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_consistency::axiom::allowed_outcomes;
use ise_litmus::corpus::corpus;
use ise_litmus::machine::{explore, MachineConfig};
use ise_litmus::runner::run_corpus;
use ise_types::ConsistencyModel;

fn bench_axiomatic(c: &mut Criterion) {
    let tests = corpus();
    let mut group = c.benchmark_group("table6/axiomatic");
    for name in ["erf/MP+po+po", "co/2+2W+po", "ppo/amo-lost-update"] {
        let t = tests.iter().find(|t| t.name == name).expect("known test");
        group.bench_with_input(BenchmarkId::from_parameter(name), t, |b, t| {
            b.iter(|| allowed_outcomes(&t.program, ConsistencyModel::Pc))
        });
    }
    group.finish();
}

fn bench_operational(c: &mut Criterion) {
    let tests = corpus();
    let mut group = c.benchmark_group("table6/operational");
    for name in ["erf/MP+po+po", "barrier/SB+fence+fence"] {
        let t = tests.iter().find(|t| t.name == name).expect("known test");
        let cfg = MachineConfig::baseline(ConsistencyModel::Wc).with_all_faulting(&t.program);
        group.bench_with_input(BenchmarkId::from_parameter(name), t, |b, t| {
            b.iter(|| explore(&t.program, &cfg))
        });
    }
    group.finish();
}

fn bench_whole_campaign(c: &mut Criterion) {
    let workers = ise_par::worker_count();
    let tests = corpus();
    let mut group = c.benchmark_group("table6/campaign");
    group.sample_size(10);
    group.bench_function("full", |b| b.iter(|| run_corpus(&tests, workers)));
    // The parallel frontier at pinned worker counts ("full" follows
    // ISE_WORKERS / machine parallelism).
    for workers in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &w| {
            b.iter(|| run_corpus(&tests, w))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_axiomatic,
    bench_operational,
    bench_whole_campaign
);
criterion_main!(benches);
