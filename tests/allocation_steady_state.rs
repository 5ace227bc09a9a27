//! Allocation accounting for the clocked hot path.
//!
//! The data-plane rework moved every per-cycle structure (ROB/replay
//! rings, store buffer, paged flat memory, cache tag arrays, directory
//! table, TLB arena, NoC link counters, event queues) to arena/SoA
//! layouts that reach a high-water mark during warm-up and then recycle
//! slots. This binary installs a counting global allocator and pins the
//! consequence: once a system is in steady state, simulating more cycles
//! performs **zero** additional heap allocations.
//!
//! The windows advance with `System::run_to`, which neither builds the
//! end-of-run statistics nor merges the telemetry registry (that is
//! `System::finalize`, paid once per run), so the test asserts a literal
//! zero for two consecutive windows, the second simulating twice as many
//! cycles as the first.
//!
//! The counter is process-global and the harness runs tests on parallel
//! threads, so every measurement holds [`MEASURE`]: otherwise one test's
//! windows would also count the other test's allocations.

use imprecise_store_exceptions::sim::System;
use imprecise_store_exceptions::types::addr::Addr;
use imprecise_store_exceptions::types::{Instruction, SystemConfig};
use imprecise_store_exceptions::workloads::Workload;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts every allocation and reallocation; frees are not counted (the
/// assertion is about acquiring memory, not churning it).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serialises the tests that read [`ALLOCATIONS`].
static MEASURE: Mutex<()> = Mutex::new(());

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A long, exception-free, cache-and-NoC-exercising workload: two cores
/// looping stores and loads over a bounded working set (so flat-memory
/// pages, directory lines, and TLB entries all hit their high-water mark
/// during warm-up) with enough instructions to outlast every window.
fn steady_workload() -> Workload {
    let base = Addr::new(0x4000_0000);
    // Small enough that warm-up touches every word, line, and page —
    // after that no structure has a first-touch left to allocate for.
    let pages: u64 = 8;
    let mk = |core: u64| {
        let mut t = Vec::with_capacity(400_000);
        for i in 0..100_000u64 {
            let slot = (i * 7 + core * 13) % (pages * 512);
            t.push(Instruction::store(base.offset(slot * 8), i));
            t.push(Instruction::load(
                base.offset(((slot + 64) % (pages * 512)) * 8),
                imprecise_store_exceptions::types::instr::Reg(0),
            ));
            t.push(Instruction::other());
            t.push(Instruction::other());
        }
        t.into()
    };
    Workload {
        name: "steady".into(),
        traces: vec![mk(0), mk(1)],
        einject_pages: Vec::new(),
    }
}

/// Warm a system up, then measure two windows where the second simulates
/// twice as many cycles as the first; returns (allocs_1x, allocs_2x).
fn window_allocs(skip: bool) -> (u64, u64) {
    // A failed assertion in the other test poisons the lock; the counter
    // itself is still sound.
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    const WARM: u64 = 60_000;
    const WINDOW: u64 = 20_000;
    let w = steady_workload();
    let cfg = SystemConfig::isca23();
    let mut sys = System::new(cfg, &w);
    assert!(
        !sys.run_to(WARM, skip),
        "workload must outlast the warm-up window"
    );
    let before = allocations();
    assert!(
        !sys.run_to(WARM + WINDOW, skip),
        "workload must outlast the 1x window"
    );
    let after_one = allocations();
    assert!(
        !sys.run_to(WARM + WINDOW + 2 * WINDOW, skip),
        "workload must outlast the 2x window"
    );
    let after_two = allocations();
    (after_one - before, after_two - after_one)
}

#[test]
fn reference_clock_steady_state_is_allocation_free_per_cycle() {
    let (one_x, two_x) = window_allocs(false);
    assert_eq!(
        (one_x, two_x),
        (0, 0),
        "steady-state windows allocated ({one_x} for 1x, {two_x} for 2x): \
         the clocked hot path is not allocation-free"
    );
}

#[test]
fn skip_clock_steady_state_is_allocation_free_per_cycle() {
    let (one_x, two_x) = window_allocs(true);
    assert_eq!(
        (one_x, two_x),
        (0, 0),
        "steady-state windows allocated under the skip clock \
         ({one_x} for 1x, {two_x} for 2x)"
    );
}
