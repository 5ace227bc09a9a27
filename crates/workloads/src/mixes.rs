//! Table 3 instruction-mix synthesizers.
//!
//! The speculation-state study (§3.3) depends on a workload's instruction
//! mix and miss behaviour, not on its semantics, so the Table 3 harness
//! drives the timing cores with synthesized traces that match the paper's
//! store/load/sync/other percentages and have tunable locality. The
//! paper-reported WC speedups and speculation-state figures ride along so
//! the experiment can print paper-vs-measured side by side.

use crate::layout::MemoryLayout;
use crate::recorder::TraceRecorder;
use crate::Workload;
use ise_engine::SimRng;
use ise_types::addr::LINE_SIZE;

/// One Table 3 row's workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixSpec {
    /// Workload name (paper row).
    pub name: &'static str,
    /// Suite (GAP / Tailbench / Cloudsuite).
    pub suite: &'static str,
    /// Store percentage.
    pub store_pct: f64,
    /// Load percentage.
    pub load_pct: f64,
    /// Sync percentage (atomics + fences).
    pub sync_pct: f64,
    /// Fraction of stores that hit recently-touched lines (the rest miss
    /// and exercise the store buffer).
    pub store_locality: f64,
    /// Fraction of loads that hit recently-touched lines.
    pub load_locality: f64,
    /// Store misses arrive in runs of this length (frontier flushes, log
    /// commits, BC's backward phase): the expected miss *rate* is still
    /// `1 - store_locality`, but misses cluster, which is what stresses
    /// the ASO checkpoint budget.
    pub store_burst: usize,
    /// Working-set size in bytes.
    pub working_set: u64,
    /// WC speedup the paper reports (Table 3).
    pub paper_wc_speedup: f64,
    /// Speculation-state KB the paper reports: (baseline, 2× memory
    /// latency, 4× store-to-load skew).
    pub paper_state_kb: (u64, u64, u64),
}

impl MixSpec {
    /// Other percentage (remainder).
    pub fn other_pct(&self) -> f64 {
        100.0 - self.store_pct - self.load_pct - self.sync_pct
    }
}

/// The eight Table 3 workloads with the paper's mixes and results.
pub fn table3_mixes() -> Vec<MixSpec> {
    vec![
        MixSpec {
            name: "BFS",
            suite: "GAP",
            store_pct: 11.0,
            load_pct: 22.0,
            sync_pct: 0.5,
            store_locality: 0.985,
            load_locality: 0.80,
            store_burst: 16,
            working_set: 16 << 20,
            paper_wc_speedup: 1.53,
            paper_state_kb: (14, 14, 17),
        },
        MixSpec {
            name: "SSSP",
            suite: "GAP",
            store_pct: 3.0,
            load_pct: 22.0,
            sync_pct: 1.0,
            store_locality: 0.995,
            load_locality: 0.75,
            store_burst: 4,
            working_set: 16 << 20,
            paper_wc_speedup: 1.06,
            paper_state_kb: (21, 21, 21),
        },
        MixSpec {
            name: "BC",
            suite: "GAP",
            store_pct: 25.0,
            load_pct: 25.0,
            sync_pct: 0.0,
            store_locality: 0.965,
            load_locality: 0.80,
            store_burst: 24,
            working_set: 16 << 20,
            paper_wc_speedup: 3.24,
            paper_state_kb: (18, 18, 18),
        },
        MixSpec {
            name: "Silo",
            suite: "Tailbench",
            store_pct: 7.0,
            load_pct: 13.0,
            sync_pct: 2.0,
            store_locality: 0.992,
            load_locality: 0.85,
            store_burst: 8,
            working_set: 8 << 20,
            paper_wc_speedup: 1.15,
            paper_state_kb: (18, 18, 25),
        },
        MixSpec {
            name: "Masstree",
            suite: "Tailbench",
            store_pct: 14.0,
            load_pct: 13.0,
            sync_pct: 0.5,
            store_locality: 0.975,
            load_locality: 0.80,
            store_burst: 8,
            working_set: 8 << 20,
            paper_wc_speedup: 1.60,
            paper_state_kb: (16, 16, 16),
        },
        MixSpec {
            name: "Data Caching",
            suite: "Cloudsuite",
            store_pct: 11.0,
            load_pct: 24.0,
            sync_pct: 0.5,
            store_locality: 0.997,
            load_locality: 0.85,
            store_burst: 4,
            working_set: 8 << 20,
            paper_wc_speedup: 1.12,
            paper_state_kb: (17, 17, 22),
        },
        MixSpec {
            name: "Media Streaming",
            suite: "Cloudsuite",
            store_pct: 9.0,
            load_pct: 13.0,
            sync_pct: 0.5,
            store_locality: 0.996,
            load_locality: 0.90,
            store_burst: 8,
            working_set: 8 << 20,
            paper_wc_speedup: 1.16,
            paper_state_kb: (14, 14, 17),
        },
        MixSpec {
            name: "Data Serving",
            suite: "Cloudsuite",
            store_pct: 9.0,
            load_pct: 24.0,
            sync_pct: 0.5,
            store_locality: 0.995,
            load_locality: 0.85,
            store_burst: 16,
            working_set: 8 << 20,
            paper_wc_speedup: 1.10,
            paper_state_kb: (14, 17, 23),
        },
    ]
}

/// Synthesizes one trace per core matching `spec`'s instruction mix.
///
/// Hot accesses reuse a small window of recently-touched lines (cache
/// hits); cold accesses walk fresh lines of the working set (misses that
/// occupy the store buffer / MSHRs).
pub fn synthesize(spec: &MixSpec, instrs_per_core: usize, cores: usize, seed: u64) -> Workload {
    let mut layout = MemoryLayout::new();
    let lines = spec.working_set / LINE_SIZE;
    let mut traces = Vec::with_capacity(cores);
    for core in 0..cores {
        let base = layout.alloc(spec.working_set);
        let mut rng = SimRng::seed_from(seed ^ (core as u64).wrapping_mul(0x9e37_79b9));
        // Every step of the loop below records exactly one instruction.
        let mut rec = TraceRecorder::with_capacity(instrs_per_core);
        let mut hot: Vec<u64> = (0..16).collect();
        let mut cold_cursor: u64 = 16;
        let mut burst_left: usize = 0;
        let burst = spec.store_burst.max(1);
        let pick = |rng: &mut SimRng, locality: f64, hot: &mut Vec<u64>, cursor: &mut u64| {
            if rng.chance(locality) {
                hot[rng.index(hot.len())]
            } else {
                *cursor = (*cursor + 1 + rng.range(0, 7)) % lines;
                let line = *cursor;
                let slot = rng.index(hot.len());
                hot[slot] = line;
                line
            }
        };
        let cold_line = |rng: &mut SimRng, cursor: &mut u64| {
            *cursor = (*cursor + 1 + rng.range(0, 7)) % lines;
            *cursor
        };
        while rec.len() < instrs_per_core {
            let roll = rng.unit() * 100.0;
            if roll < spec.store_pct {
                // Cluster store misses into runs of `burst` while keeping
                // the expected miss rate at 1 - store_locality.
                let line = if burst_left > 0 {
                    burst_left -= 1;
                    cold_line(&mut rng, &mut cold_cursor)
                } else if rng.chance((1.0 - spec.store_locality) / burst as f64) {
                    burst_left = burst - 1;
                    cold_line(&mut rng, &mut cold_cursor)
                } else {
                    hot[rng.index(hot.len())]
                };
                rec.store_elem(base, line * 8, rec.len() as u64);
            } else if roll < spec.store_pct + spec.load_pct {
                let line = pick(&mut rng, spec.load_locality, &mut hot, &mut cold_cursor);
                rec.load_elem(base, line * 8);
            } else if roll < spec.store_pct + spec.load_pct + spec.sync_pct {
                if rng.chance(0.5) {
                    rec.fence();
                } else {
                    rec.atomic_elem(base, hot[0] * 8, 1);
                }
            } else {
                rec.alu(1);
            }
        }
        traces.push(rec.into_trace());
    }
    Workload {
        name: spec.name.to_string(),
        traces,
        einject_pages: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::instr::InstructionMix;

    #[test]
    fn eight_rows_matching_table3() {
        let mixes = table3_mixes();
        assert_eq!(mixes.len(), 8);
        let bc = mixes.iter().find(|m| m.name == "BC").unwrap();
        assert_eq!(bc.store_pct, 25.0);
        assert_eq!(bc.paper_wc_speedup, 3.24);
        assert_eq!(bc.paper_state_kb, (18, 18, 18));
        for m in &mixes {
            assert!(m.other_pct() > 40.0, "{}: other {}", m.name, m.other_pct());
        }
    }

    #[test]
    fn synthesized_mix_tracks_spec() {
        for spec in table3_mixes() {
            let w = synthesize(&spec, 20_000, 1, 1);
            let mix = InstructionMix::measure(w.traces[0].iter());
            assert!(
                (mix.store_pct - spec.store_pct).abs() < 1.5,
                "{}: wanted {} stores, got {}",
                spec.name,
                spec.store_pct,
                mix.store_pct
            );
            assert!(
                (mix.load_pct - spec.load_pct).abs() < 1.5,
                "{}: wanted {} loads, got {}",
                spec.name,
                spec.load_pct,
                mix.load_pct
            );
        }
    }

    #[test]
    fn per_core_traces_differ_but_are_deterministic() {
        let spec = table3_mixes()[0];
        let a = synthesize(&spec, 5000, 2, 9);
        let b = synthesize(&spec, 5000, 2, 9);
        assert_eq!(a.traces, b.traces);
        assert_ne!(a.traces[0], a.traces[1], "cores get distinct streams");
    }
}
