//! Ablation benches for the design choices DESIGN.md calls out:
//! split-stream vs same-stream drains, batching, FSB sizing, and the
//! store-to-load latency skew axis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ise_consistency::program::{LitmusProgram, Loc, Stmt};
use ise_litmus::machine::{explore, MachineConfig};
use ise_sim::System;
use ise_types::addr::Addr;
use ise_types::config::SystemConfig;
use ise_types::instr::Reg;
use ise_types::{ConsistencyModel, DrainPolicy, Instruction};
use ise_workloads::layout::EINJECT_BASE;
use ise_workloads::Workload;

/// Split-stream vs same-stream: exploration cost of the Fig. 2 program
/// under each drain policy (the correctness difference is asserted by
/// tests; here we measure the state-space cost).
fn ablation_split_stream(c: &mut Criterion) {
    let prog = LitmusProgram::new(vec![
        vec![Stmt::write(Loc(0), 1), Stmt::write(Loc(1), 1)],
        vec![Stmt::read(Loc(1), Reg(0)), Stmt::read(Loc(0), Reg(1))],
    ]);
    let mut group = c.benchmark_group("ablation/drain_policy");
    for policy in [DrainPolicy::SameStream, DrainPolicy::SplitStream] {
        let mut cfg = MachineConfig::baseline(ConsistencyModel::Pc).with_policy(policy);
        cfg.faulting = [Loc(0)].into_iter().collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{policy}")),
            &prog,
            |b, p| b.iter(|| explore(p, &cfg)),
        );
    }
    group.finish();
}

fn faulting_store_workload(stores: u64) -> Workload {
    let base = Addr::new(EINJECT_BASE);
    let trace: Vec<Instruction> = (0..stores)
        .flat_map(|i| {
            [
                Instruction::store(base.offset(i * 8), i),
                Instruction::other(),
            ]
        })
        .collect();
    Workload {
        name: "ablation".into(),
        traces: vec![trace.into()],
        einject_pages: (0..(stores * 8).div_ceil(4096).max(1))
            .map(|p| Addr::new(EINJECT_BASE + p * 4096).page())
            .collect(),
    }
}

/// FSB sizing: the paper sizes the FSB to the store buffer. Shrinking the
/// *store buffer* (and with it the FSB) changes how much one exception
/// batches and how often the pipeline stalls.
fn ablation_fsb_size(c: &mut Criterion) {
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let mut group = c.benchmark_group("ablation/sb_fsb_size");
    group.sample_size(10);
    let w = faulting_store_workload(512);
    for sb in [8usize, 32, 128] {
        let mut cfg = SystemConfig::isca23();
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg.cores = 1;
        cfg.core.sb_entries = sb;
        group.bench_with_input(BenchmarkId::new("sb_entries", sb), &w, |b, w| {
            b.iter(|| System::new(cfg, w).run_clocked(u64::MAX / 4, skip))
        });
    }
    group.finish();
}

/// The Table 3 skew axis: end-to-end runtime of a store-heavy faulting
/// workload as the store-to-load latency skew grows.
fn ablation_skew(c: &mut Criterion) {
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let mut group = c.benchmark_group("ablation/store_skew");
    group.sample_size(10);
    let w = faulting_store_workload(256);
    for skew in [1u64, 2, 4] {
        let mut cfg = SystemConfig::isca23();
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg.cores = 1;
        cfg.memory.store_latency_skew = skew;
        group.bench_with_input(BenchmarkId::new("skew", skew), &w, |b, w| {
            b.iter(|| System::new(cfg, w).run_clocked(u64::MAX / 4, skip))
        });
    }
    group.finish();
}

/// Batching: one system run per fault intensity (the Fig. 5 axis), as a
/// wall-clock measurement of the simulator itself.
fn ablation_batching(c: &mut Criterion) {
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    use ise_workloads::microbench::{microbench, MicrobenchConfig};
    let mut group = c.benchmark_group("ablation/batching");
    group.sample_size(10);
    for pages in [2usize, 1024] {
        let mb = microbench(&MicrobenchConfig {
            stores_per_iter: 5_000,
            iterations: 1,
            array_bytes: 4 << 20,
            faulting_pages_per_iter: pages,
            seed: 5,
        });
        let w = Workload {
            name: "mb".into(),
            traces: vec![mb.iterations[0].trace.clone()],
            einject_pages: mb.iterations[0].faulting_pages.clone(),
        };
        let mut cfg = SystemConfig::isca23();
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg.cores = 1;
        group.bench_with_input(BenchmarkId::new("pages", pages), &w, |b, w| {
            b.iter(|| System::new(cfg, w).run_clocked(u64::MAX / 4, skip))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_split_stream,
    ablation_fsb_size,
    ablation_skew,
    ablation_batching
);
criterion_main!(benches);
