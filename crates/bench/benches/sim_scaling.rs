//! Scaling study for the timing-simulator clock and the experiment
//! fan-out:
//!
//! * cycle-skipping vs. per-cycle reference clock on a DRAM-bound
//!   workload (the acceptance bar is ≥ 5× — nearly every cycle of a
//!   memory-latency-dominated run is a dead cycle the event-driven
//!   loop jumps over);
//! * Fig. 5 sweep throughput at 1/2/4/8 workers through the `ise-par`
//!   fan-out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_sim::experiments::fig5;
use ise_sim::System;
use ise_types::addr::Addr;
use ise_types::instr::FenceKind;
use ise_types::{Instruction, SystemConfig};
use ise_workloads::Workload;
use std::time::Instant;

const MAX_CYCLES: u64 = 2_000_000_000;

/// One core alternating a page-stride store with a full fence: every
/// store misses the whole hierarchy and the fence parks the pipeline for
/// the DRAM round trip — the dead-cycle-dominated regime the
/// cycle-skipping clock collapses.
fn dram_bound_workload(stores: u64) -> Workload {
    let base = Addr::new(0x1000_0000);
    Workload {
        name: "dram-bound".into(),
        traces: vec![(0..stores)
            .flat_map(|i| {
                [
                    Instruction::store(base.offset(i * 4096), i),
                    Instruction::fence(FenceKind::Full),
                ]
            })
            .collect()],
        einject_pages: Vec::new(),
    }
}

/// The 2×1-mesh single-core system the scaling study runs on.
fn scaling_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 1;
    cfg
}

fn bench_clock_speedup(c: &mut Criterion) {
    let workload = dram_bound_workload(2_000);
    let cfg = scaling_cfg();
    let mut group = c.benchmark_group("sim_scaling/clock");
    group.sample_size(10);
    group.bench_function("cycle_skip", |b| {
        b.iter(|| System::new(cfg, &workload).run_clocked(MAX_CYCLES, true))
    });
    group.bench_function("reference", |b| {
        b.iter(|| System::new(cfg, &workload).run_clocked(MAX_CYCLES, false))
    });
    group.finish();

    // The acceptance ratio, measured directly.
    let time = |skip: bool| {
        let start = Instant::now();
        for _ in 0..5 {
            criterion::black_box(System::new(cfg, &workload).run_clocked(MAX_CYCLES, skip));
        }
        start.elapsed()
    };
    let skipping = time(true);
    let reference = time(false);
    println!(
        "sim_scaling/clock: DRAM-bound run {:?} cycle-skip vs {:?} reference \
         ({:.1}x speedup; acceptance bar 5x)",
        skipping,
        reference,
        reference.as_secs_f64() / skipping.as_secs_f64().max(f64::EPSILON),
    );
}

fn bench_sweep_worker_scaling(c: &mut Criterion) {
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let pages = [2usize, 64, 256];
    let mut group = c.benchmark_group("sim_scaling/fig5_workers");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, &w| {
            b.iter(|| fig5(&pages, w, skip))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_clock_speedup, bench_sweep_worker_scaling);
criterion_main!(benches);
