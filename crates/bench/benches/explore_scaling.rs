//! Scaling study for the exploration engine:
//!
//! * memoized vs. un-memoized `explore()` on the mp/sb corpus (the
//!   acceptance bar is memoized ≥ 2× faster sequentially — in practice
//!   it is orders of magnitude, since memoization turns path-count work
//!   into state-count work);
//! * whole-corpus throughput at 1/2/4/8 workers through the `ise-par`
//!   frontier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_litmus::corpus::corpus;
use ise_litmus::machine::{explore, MachineConfig};
use ise_litmus::parse::{parse_litmus, ParsedLitmus};
use ise_litmus::runner::run_corpus;
use ise_types::ConsistencyModel;
use std::time::Instant;

/// The mp/sb tests of the checked-in `litmus/` corpus.
fn mp_sb() -> Vec<ParsedLitmus> {
    ["mp", "sb"]
        .iter()
        .map(|stem| {
            let path = format!("{}/../../litmus/{stem}.litmus", env!("CARGO_MANIFEST_DIR"));
            let src = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            parse_litmus(&src).expect("checked-in litmus test parses")
        })
        .collect()
}

fn bench_memoization(c: &mut Criterion) {
    let tests = mp_sb();
    let mut group = c.benchmark_group("explore_scaling/memoization");
    for parsed in &tests {
        let cfg = MachineConfig::baseline(ConsistencyModel::Pc);
        group.bench_with_input(
            BenchmarkId::new("memoized", &parsed.test.name),
            &parsed.test,
            |b, t| b.iter(|| explore(&t.program, &cfg)),
        );
        let bare = cfg.clone().with_memoize(false);
        group.bench_with_input(
            BenchmarkId::new("unmemoized", &parsed.test.name),
            &parsed.test,
            |b, t| b.iter(|| explore(&t.program, &bare)),
        );
    }
    group.finish();

    // The acceptance ratio, measured directly over the whole mp/sb set.
    let cfg = MachineConfig::baseline(ConsistencyModel::Pc);
    let bare = cfg.clone().with_memoize(false);
    let time = |cfg: &MachineConfig| {
        let start = Instant::now();
        for parsed in &tests {
            for _ in 0..20 {
                criterion::black_box(explore(&parsed.test.program, cfg));
            }
        }
        start.elapsed()
    };
    let memoized = time(&cfg);
    let unmemoized = time(&bare);
    println!(
        "explore_scaling/memoization: mp/sb corpus {:?} memoized vs {:?} unmemoized \
         ({:.1}x speedup)",
        memoized,
        unmemoized,
        unmemoized.as_secs_f64() / memoized.as_secs_f64().max(f64::EPSILON),
    );
}

fn bench_worker_scaling(c: &mut Criterion) {
    let tests = corpus();
    let mut group = c.benchmark_group("explore_scaling/corpus_workers");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| run_corpus(&tests, w))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_memoization, bench_worker_scaling);
criterion_main!(benches);
