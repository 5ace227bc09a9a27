//! Host-time spans around the benchmark's calls into the simulator's
//! layers, and the simulated counts those calls report.
//!
//! Spans are recorded from the benchmark's own code, around each public
//! entry point it calls; nothing inside the simulator is instrumented.
//! With spans disabled (`--trace 0`) every wrapped call runs untimed.

use ise_sim::{System, SystemStats};
use ise_telemetry::Registry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Cycle budget of one simulated cell; a cell that reaches it counts
/// as timed out.
pub const MAX_CYCLES: u64 = 20_000_000_000;

/// Accumulated host nanoseconds and call counts per layer span.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    enabled: bool,
    ns: BTreeMap<&'static str, u64>,
    calls: BTreeMap<&'static str, u64>,
    /// Bytes of the boot snapshots taken under `persist.snapshot`.
    pub snapshot_bytes: u64,
    /// Trace instructions of the systems built under `sim.build`.
    pub built_instrs: u64,
}

impl Spans {
    /// A span recorder; when `enabled` is false it times nothing.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            ..Spans::default()
        }
    }

    /// Runs `f`, charging its host time (one call) to `layer` when
    /// enabled.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        *self.ns.entry(layer).or_default() += t0.elapsed().as_nanos() as u64;
        *self.calls.entry(layer).or_default() += 1;
        r
    }

    /// Host seconds charged to `layer`.
    pub fn secs(&self, layer: &str) -> f64 {
        self.ns.get(layer).copied().unwrap_or(0) as f64 * 1e-9
    }

    /// Calls charged to `layer`.
    pub fn calls(&self, layer: &str) -> u64 {
        self.calls.get(layer).copied().unwrap_or(0)
    }

    /// Host seconds summed over every layer.
    pub fn total_secs(&self) -> f64 {
        self.ns.values().sum::<u64>() as f64 * 1e-9
    }

    /// Adds `other`'s spans into these.
    pub fn merge(&mut self, other: &Spans) {
        for (&k, &v) in &other.ns {
            *self.ns.entry(k).or_default() += v;
        }
        for (&k, &v) in &other.calls {
            *self.calls.entry(k).or_default() += v;
        }
        self.snapshot_bytes += other.snapshot_bytes;
        self.built_instrs += other.built_instrs;
    }
}

/// Simulated counts of one or more runs, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Retired instructions.
    pub instrs: u64,
    /// Simulated cycles (each run's last-core cycle count).
    pub cycles: u64,
    /// Cycles summed over every core of every run.
    pub core_cycles: u64,
    /// Imprecise store exceptions.
    pub imprecise_exceptions: u64,
    /// Precise exceptions.
    pub precise_exceptions: u64,
    /// Faulting stores the OS applied.
    pub faulting_stores: u64,
    /// OS handler invocations.
    pub os_invocations: u64,
    /// Handler retries on still-present transient faults.
    pub os_transient_retries: u64,
    /// Cycles spent in retry backoff.
    pub os_backoff_cycles: u64,
    /// Chunked FSB early-drain interrupts.
    pub early_drain_interrupts: u64,
    /// Processes killed.
    pub killed: u64,
    /// Handler cycles (µarch + apply + other OS, the Fig. 5 total).
    pub handler_cycles: u64,
    /// Memory (DRAM) accesses.
    pub mem_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// TLB page walks.
    pub tlb_walks: u64,
    /// Cycles cores stalled on a full store buffer.
    pub store_stall_cycles: u64,
    /// Cycles cores stalled on fences and atomics.
    pub sync_stall_cycles: u64,
}

impl SimCounts {
    /// The counts of one finished run: its stats plus the component
    /// counters merged into its telemetry registry.
    pub fn of_run(stats: &SystemStats, reg: &Registry) -> Self {
        SimCounts {
            instrs: stats.retired(),
            cycles: stats.cycles,
            core_cycles: stats.cores.iter().map(|c| c.cycles).sum(),
            imprecise_exceptions: stats.imprecise_exceptions,
            precise_exceptions: stats.precise_exceptions,
            faulting_stores: stats.faulting_stores,
            os_invocations: reg.counter("os.invocations"),
            os_transient_retries: reg.counter("os.transient_retries"),
            os_backoff_cycles: reg.counter("os.backoff_cycles"),
            early_drain_interrupts: stats.early_drain_interrupts,
            killed: stats.killed,
            handler_cycles: stats.breakdown.total(),
            mem_accesses: reg.counter("mem.accesses"),
            l1_hits: reg.counter("mem.l1_hits"),
            l1_misses: reg.counter("mem.l1_misses"),
            l2_hits: reg.counter("mem.l2_hits"),
            tlb_walks: reg.counter("tlb.walks"),
            store_stall_cycles: stats.cores.iter().map(|c| c.store_stall_cycles).sum(),
            sync_stall_cycles: stats.cores.iter().map(|c| c.sync_stall_cycles).sum(),
        }
    }

    /// Adds `o` into these counts.
    pub fn add(&mut self, o: &SimCounts) {
        self.instrs += o.instrs;
        self.cycles += o.cycles;
        self.core_cycles += o.core_cycles;
        self.imprecise_exceptions += o.imprecise_exceptions;
        self.precise_exceptions += o.precise_exceptions;
        self.faulting_stores += o.faulting_stores;
        self.os_invocations += o.os_invocations;
        self.os_transient_retries += o.os_transient_retries;
        self.os_backoff_cycles += o.os_backoff_cycles;
        self.early_drain_interrupts += o.early_drain_interrupts;
        self.killed += o.killed;
        self.handler_cycles += o.handler_cycles;
        self.mem_accesses += o.mem_accesses;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.l2_hits += o.l2_hits;
        self.tlb_walks += o.tlb_walks;
        self.store_stall_cycles += o.store_stall_cycles;
        self.sync_stall_cycles += o.sync_stall_cycles;
    }
}

/// What one simulated system run produced.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The finished run's stats.
    pub stats: SystemStats,
    /// Its simulated counts.
    pub counts: SimCounts,
    /// FNV-1a of the rendered telemetry registry: the run's
    /// simulated-stats hash.
    pub hash: String,
}

/// Builds a system with `build` (whose traces hold `instrs`
/// instructions), runs it to completion on the chosen clock, finalizes
/// its statistics and renders its registry, charging each step to its
/// layer span. `snapshot` additionally takes (and times) one boot
/// snapshot before the first cycle. A reference-clock run (`skip`
/// false) is charged to `clock.reference_run` instead of `sim.run`.
///
/// # Errors
///
/// Returns a description when the run exhausts [`MAX_CYCLES`].
pub fn run_system(
    spans: &mut Spans,
    skip: bool,
    snapshot: bool,
    instrs: u64,
    build: impl FnOnce() -> System,
) -> Result<SimRun, String> {
    let mut sys = spans.time("sim.build", build);
    spans.built_instrs += instrs;
    if snapshot {
        let bytes = spans.time("persist.snapshot", || sys.snapshot());
        spans.snapshot_bytes += bytes.len() as u64;
    }
    let run_layer = if skip {
        "sim.run"
    } else {
        "clock.reference_run"
    };
    if !spans.time(run_layer, || sys.run_to(MAX_CYCLES, skip)) {
        return Err(format!("exceeded the {MAX_CYCLES}-cycle budget"));
    }
    // The run has completed, so this only finalizes stats and telemetry.
    let stats = spans.time("telemetry.finalize", || sys.run_clocked(MAX_CYCLES, skip));
    let rendered = spans.time("telemetry.render", || sys.telemetry().registry.render());
    let counts = SimCounts::of_run(&stats, &sys.telemetry().registry);
    Ok(SimRun {
        stats,
        counts,
        hash: crate::stats::fnv1a_hex(rendered.as_bytes()),
    })
}
