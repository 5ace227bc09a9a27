//! Workload generators for the evaluation (paper §3.3, §6.4, §6.5).
//!
//! The paper evaluates on GAP (BFS, SSSP, BC), Tailbench (Silo,
//! Masstree), and Cloudsuite (Data Caching, Media Streaming, Data
//! Serving). We rebuild those workloads as *executed algorithms over
//! synthetic data* whose memory accesses are recorded into instruction
//! traces for the timing simulator:
//!
//! * [`graph`] — CSR graphs plus real BFS / SSSP / Betweenness-Centrality
//!   kernels, trace-recorded element by element;
//! * [`kvstore`] — an arena-allocated B+tree with Silo-style transactions
//!   and a Masstree-style read-mostly index;
//! * [`cloud`] — memcached-style caching, sequential media streaming, and
//!   log-structured data serving loops;
//! * [`mixes`] — Table 3's instruction-mix synthesizers: traces matching
//!   the paper's store/load/sync/other percentages with tunable locality
//!   (used by the speculation-state study, which needs the mix, not the
//!   semantics);
//! * [`microbench`] — §6.4's loop of 10 K stores over a 512 MB array with
//!   a random subset of pages marked faulting per iteration.
//!
//! Traces carry addresses from a [`layout::MemoryLayout`] so data can be
//! placed inside or outside the EInject region, exactly like the paper's
//! modified workloads that "allocate memory for the graph ... from the
//! EInject region".

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cloud;
pub mod graph;
pub mod kvstore;
pub mod layout;
pub mod microbench;
pub mod mixes;
pub mod recorder;
pub mod stats;

pub use layout::MemoryLayout;
pub use mixes::{table3_mixes, MixSpec};
pub use recorder::TraceRecorder;

pub use ise_types::Trace;

use ise_types::PageId;

/// A generated workload: a per-core trace plus the pages that must be
/// marked faulting in EInject before the run (empty for baseline runs).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name (paper row, e.g. "BFS").
    pub name: String,
    /// One instruction stream per core.
    pub traces: Vec<Trace>,
    /// Pages to mark faulting before the run starts (§6.5 setup).
    pub einject_pages: Vec<PageId>,
}

impl Workload {
    /// Total instructions across cores.
    pub fn total_instructions(&self) -> usize {
        self.traces.iter().map(|t| t.len()).sum()
    }
}
