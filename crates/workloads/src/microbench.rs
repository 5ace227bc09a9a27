//! The §6.4 microbenchmark: iterations of 10 K stores over a 512 MB
//! array allocated from the EInject region, with a random subset of 4 KiB
//! pages marked faulting at the start of each iteration.

use crate::layout::MemoryLayout;
use crate::recorder::TraceRecorder;
use ise_engine::SimRng;
use ise_types::addr::{Addr, PAGE_SIZE};
use ise_types::PageId;

/// Microbenchmark configuration.
#[derive(Debug, Clone, Copy)]
pub struct MicrobenchConfig {
    /// Stores per iteration (paper: 10 K).
    pub stores_per_iter: usize,
    /// Iterations of the loop.
    pub iterations: usize,
    /// Array size in bytes (paper: 512 MB).
    pub array_bytes: u64,
    /// Pages marked faulting at the start of each iteration — the knob
    /// that moves Fig. 5 between unbatched (few) and batched (many).
    pub faulting_pages_per_iter: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MicrobenchConfig {
    /// The paper's parameters (10 K stores, 512 MB array), scaled to a
    /// given fault intensity.
    pub fn isca23(faulting_pages_per_iter: usize) -> Self {
        MicrobenchConfig {
            stores_per_iter: 10_000,
            iterations: 1,
            array_bytes: 512 << 20,
            faulting_pages_per_iter,
            seed: 1234,
        }
    }

    /// A scaled-down configuration for fast tests.
    pub fn small(faulting_pages_per_iter: usize) -> Self {
        MicrobenchConfig {
            stores_per_iter: 1000,
            iterations: 2,
            array_bytes: 4 << 20,
            faulting_pages_per_iter,
            seed: 1234,
        }
    }
}

/// One iteration's materials.
#[derive(Debug, Clone)]
pub struct MicrobenchIter {
    /// The 10 K-store trace.
    pub trace: crate::Trace,
    /// Pages to mark faulting before running the trace.
    pub faulting_pages: Vec<PageId>,
}

/// The generated microbenchmark.
#[derive(Debug, Clone)]
pub struct Microbench {
    /// Array base (inside the EInject region).
    pub array_base: Addr,
    /// Array size in bytes.
    pub array_bytes: u64,
    /// The iterations.
    pub iterations: Vec<MicrobenchIter>,
}

/// Generates the microbenchmark.
///
/// # Panics
///
/// Panics if more faulting pages are requested than the array has.
pub fn microbench(cfg: &MicrobenchConfig) -> Microbench {
    let mut layout = MemoryLayout::new();
    let base = layout.alloc_einject(cfg.array_bytes);
    let pages = (cfg.array_bytes / PAGE_SIZE) as usize;
    assert!(
        cfg.faulting_pages_per_iter <= pages,
        "cannot mark {} of {} pages",
        cfg.faulting_pages_per_iter,
        pages
    );
    let mut rng = SimRng::seed_from(cfg.seed);
    let mut iters = Vec::with_capacity(cfg.iterations);
    for _ in 0..cfg.iterations {
        let faulting: Vec<PageId> = rng
            .sample_indices(pages, cfg.faulting_pages_per_iter)
            .into_iter()
            .map(|p| Addr::new(base.raw() + p as u64 * PAGE_SIZE).page())
            .collect();
        // One store and three ALU instructions per loop iteration.
        let mut rec = TraceRecorder::with_capacity(cfg.stores_per_iter * 4);
        for i in 0..cfg.stores_per_iter {
            // Random 8-byte slot in the array; light loop overhead.
            let slot = rng.range(0, cfg.array_bytes / 8);
            rec.store_elem(base, slot, i as u64);
            rec.alu(3);
        }
        iters.push(MicrobenchIter {
            trace: rec.into_trace(),
            faulting_pages: faulting,
        });
    }
    Microbench {
        array_base: base,
        array_bytes: cfg.array_bytes,
        iterations: iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::EINJECT_BASE;

    #[test]
    fn array_lives_in_einject_region() {
        let mb = microbench(&MicrobenchConfig::small(4));
        assert!(mb.array_base.raw() >= EINJECT_BASE);
        assert_eq!(mb.iterations.len(), 2);
    }

    #[test]
    fn traces_have_requested_store_count() {
        let cfg = MicrobenchConfig::small(4);
        let mb = microbench(&cfg);
        for it in &mb.iterations {
            let stores = it
                .trace
                .iter()
                .filter(|i| matches!(i.kind, ise_types::instr::InstrKind::Store { .. }))
                .count();
            assert_eq!(stores, cfg.stores_per_iter);
            assert_eq!(it.faulting_pages.len(), 4);
        }
    }

    #[test]
    fn faulting_pages_are_distinct_and_in_array() {
        let mb = microbench(&MicrobenchConfig::small(16));
        for it in &mb.iterations {
            let mut p = it.faulting_pages.clone();
            p.sort_unstable();
            p.dedup();
            assert_eq!(p.len(), 16);
            for page in p {
                let a = page.base().raw();
                assert!(a >= mb.array_base.raw());
                assert!(a < mb.array_base.raw() + mb.array_bytes);
            }
        }
    }

    #[test]
    fn stores_stay_inside_array() {
        let mb = microbench(&MicrobenchConfig::small(1));
        for it in &mb.iterations {
            for ins in it.trace.iter() {
                if let Some(a) = ins.kind.addr() {
                    assert!(a.raw() >= mb.array_base.raw());
                    assert!(a.raw() < mb.array_base.raw() + mb.array_bytes);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot mark")]
    fn too_many_pages_rejected() {
        let mut cfg = MicrobenchConfig::small(0);
        cfg.faulting_pages_per_iter = 10_000_000;
        microbench(&cfg);
    }
}
