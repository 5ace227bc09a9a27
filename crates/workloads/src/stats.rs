//! Trace analysis: footprint, locality, and mix statistics for generated
//! workloads.
//!
//! [`touched_pages`] is what the chaos campaign (and its clock
//! differentials) use: the pages a trace touches, to aim faults at.
//! [`analyze`] has no caller outside its own tests yet; it is kept to
//! check a generated trace against the instruction mix its spec
//! promises (the Table 3 mixes), and it is handy when writing new
//! workloads against this library.

use ise_telemetry::Registry;
use ise_types::addr::{Addr, LINE_SIZE, PAGE_SIZE};
use ise_types::instr::{InstrKind, InstructionMix};
use ise_types::json::{Json, ToJson};
use ise_types::TraceBuf;
use std::collections::{HashMap, HashSet};

/// Summary statistics of one instruction trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Instruction-class percentages.
    pub mix: InstructionMix,
    /// Total instructions.
    pub instructions: usize,
    /// Memory operations (loads + stores + atomics).
    pub memory_ops: usize,
    /// Distinct 64 B cache lines touched.
    pub distinct_lines: usize,
    /// Distinct 4 KiB pages touched.
    pub distinct_pages: usize,
    /// Span of the touched address range in bytes (max − min + 8).
    pub address_span: u64,
    /// Fraction of memory ops that re-touch one of the last 16 lines
    /// accessed (a cheap locality proxy).
    pub hot_reuse_fraction: f64,
    /// Mean distinct memory ops per touched page — how much work each
    /// first-touch fault is amortized over (the quantity that governs
    /// Fig. 6's overhead).
    pub ops_per_page: f64,
}

impl TraceStats {
    /// The recorder's measurements as a telemetry [`Registry`]:
    /// counters for the discrete footprint numbers, gauges for the
    /// ratio-valued locality proxies, and the mix percentages as a
    /// nested value.
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.put(
            "mix",
            Json::obj([
                ("store_pct", Json::from(self.mix.store_pct)),
                ("load_pct", Json::from(self.mix.load_pct)),
                ("sync_pct", Json::from(self.mix.sync_pct)),
                ("other_pct", Json::from(self.mix.other_pct)),
            ]),
        );
        reg.add("instructions", self.instructions as u64);
        reg.add("memory_ops", self.memory_ops as u64);
        reg.add("distinct_lines", self.distinct_lines as u64);
        reg.add("distinct_pages", self.distinct_pages as u64);
        reg.add("address_span", self.address_span);
        reg.gauge("hot_reuse_fraction", self.hot_reuse_fraction);
        reg.gauge("ops_per_page", self.ops_per_page);
        reg
    }
}

impl ToJson for TraceStats {
    fn to_json(&self) -> Json {
        self.to_registry().to_json()
    }
}

/// Analyzes a trace.
pub fn analyze(trace: &TraceBuf) -> TraceStats {
    let mut lines: HashSet<u64> = HashSet::new();
    let mut pages: HashMap<u64, u64> = HashMap::new();
    let mut memory_ops = 0usize;
    let (mut min_a, mut max_a) = (u64::MAX, 0u64);
    let mut recent: Vec<u64> = Vec::with_capacity(16);
    let mut hot_hits = 0usize;
    for i in trace {
        let addr = match i.kind {
            InstrKind::Load { addr, .. }
            | InstrKind::Store { addr, .. }
            | InstrKind::Atomic { addr, .. } => addr,
            _ => continue,
        };
        memory_ops += 1;
        let line = addr.raw() / LINE_SIZE;
        if recent.contains(&line) {
            hot_hits += 1;
        }
        if recent.len() == 16 {
            recent.remove(0);
        }
        recent.push(line);
        lines.insert(line);
        *pages.entry(addr.raw() / PAGE_SIZE).or_insert(0) += 1;
        min_a = min_a.min(addr.raw());
        max_a = max_a.max(addr.raw());
    }
    TraceStats {
        mix: InstructionMix::measure(trace),
        instructions: trace.len(),
        memory_ops,
        distinct_lines: lines.len(),
        distinct_pages: pages.len(),
        address_span: if memory_ops == 0 {
            0
        } else {
            max_a - min_a + 8
        },
        hot_reuse_fraction: if memory_ops == 0 {
            0.0
        } else {
            hot_hits as f64 / memory_ops as f64
        },
        ops_per_page: if pages.is_empty() {
            0.0
        } else {
            memory_ops as f64 / pages.len() as f64
        },
    }
}

/// The pages a trace touches, ascending — useful for marking exactly the
/// touched footprint faulting instead of a whole region.
pub fn touched_pages(trace: &TraceBuf) -> Vec<ise_types::PageId> {
    let mut pages: Vec<u64> = trace
        .iter()
        .filter_map(|i| i.kind.addr())
        .map(|a: Addr| a.raw() / PAGE_SIZE)
        .collect();
    pages.sort_unstable();
    pages.dedup();
    pages.into_iter().map(ise_types::PageId::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{gap_workload, GapConfig, GapKernel};
    use crate::mixes::{synthesize, table3_mixes};
    use ise_types::instr::Reg;
    use ise_types::{Instruction, Trace};

    #[test]
    fn analyze_counts_the_basics() {
        let base = Addr::new(0x1000);
        let trace: Trace = vec![
            Instruction::store(base, 1),
            Instruction::load(base, Reg(0)), // same line: hot reuse
            Instruction::load(base.offset(4096 * 3), Reg(1)),
            Instruction::other(),
        ]
        .into();
        let s = analyze(&trace);
        assert_eq!(s.instructions, 4);
        assert_eq!(s.memory_ops, 3);
        assert_eq!(s.distinct_lines, 2);
        assert_eq!(s.distinct_pages, 2);
        assert!(s.hot_reuse_fraction > 0.3);
        assert_eq!(s.address_span, 4096 * 3 + 8);
    }

    #[test]
    fn trace_stats_json_round_trips_through_the_registry() {
        let base = Addr::new(0x1000);
        let trace: Trace = vec![
            Instruction::store(base, 1),
            Instruction::load(base, Reg(0)),
            Instruction::other(),
        ]
        .into();
        let s = analyze(&trace);
        let reg = s.to_registry();
        assert_eq!(reg.counter("instructions"), 3);
        assert_eq!(reg.counter("memory_ops"), 2);
        let rendered = s.to_json().render();
        assert!(
            rendered.starts_with(r#"{"mix":{"store_pct":"#),
            "{rendered}"
        );
        assert!(rendered.contains("\"ops_per_page\":"));
    }

    #[test]
    fn empty_trace_is_zeroes() {
        let s = analyze(&Trace::default());
        assert_eq!(s.memory_ops, 0);
        assert_eq!(s.address_span, 0);
        assert_eq!(s.ops_per_page, 0.0);
    }

    #[test]
    fn touched_pages_sorted_and_deduped() {
        let base = Addr::new(0x10_000);
        let trace: Trace = vec![
            Instruction::store(base.offset(4096), 1),
            Instruction::store(base, 2),
            Instruction::store(base.offset(4), 3),
        ]
        .into();
        let p = touched_pages(&trace);
        assert_eq!(p.len(), 2);
        assert!(p[0] < p[1]);
    }

    #[test]
    fn synthesized_mixes_have_promised_locality_ordering() {
        // BC's store stream is the coldest of the GAP rows: it must show
        // the lowest hot-reuse among them.
        let specs = table3_mixes();
        let stats: Vec<(String, TraceStats)> = specs
            .iter()
            .filter(|s| s.suite == "GAP")
            .map(|s| {
                (
                    s.name.to_string(),
                    analyze(&synthesize(s, 10_000, 1, 3).traces[0]),
                )
            })
            .collect();
        for (name, s) in &stats {
            assert!(s.memory_ops > 1000, "{name}: too few memory ops");
            assert!(s.distinct_pages > 10, "{name}");
        }
    }

    #[test]
    fn gap_traces_amortize_pages_well() {
        let mut cfg = GapConfig::small(1);
        cfg.trials = 4;
        let w = gap_workload(GapKernel::Bfs, &cfg);
        let s = analyze(&w.traces[0]);
        // Multi-trial runs re-touch the same pages: high ops/page is what
        // keeps Fig. 6 overhead low.
        assert!(s.ops_per_page > 100.0, "ops/page {:.1}", s.ops_per_page);
    }

    #[test]
    fn touched_pages_subset_of_declared_einject_pages() {
        let mut cfg = GapConfig::small(1);
        cfg.in_einject = true;
        let w = gap_workload(GapKernel::Sssp, &cfg);
        let declared: std::collections::HashSet<_> = w.einject_pages.iter().copied().collect();
        for p in touched_pages(&w.traces[0]) {
            assert!(declared.contains(&p), "{p} touched but not declared");
        }
    }
}
