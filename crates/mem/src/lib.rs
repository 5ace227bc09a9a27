//! Cache/memory hierarchy substrate for the Imprecise Store Exceptions
//! reproduction.
//!
//! This crate models the Table 2 memory system: per-core L1 data caches
//! with MSHRs ([`cache`], [`mshr`]), two-level TLBs ([`tlb`]), distributed
//! L2 tiles kept coherent by a directory-based MESI protocol ([`mesi`]),
//! and a DRAM backend ([`backend`]) behind which a *fault oracle* —
//! implemented by EInject in `ise-core` — can deny transactions at the
//! LLC↔memory boundary exactly as §6.2 of the paper describes.
//!
//! The hierarchy is **timing-directed**: it tracks tags, coherence states
//! and occupancy to price every access in cycles, while architectural data
//! lives in the separate functional [`flat::FlatMemory`]. See DESIGN.md §3
//! for why this split is faithful to the paper's evaluation.
//!
//! # Example
//!
//! ```
//! use ise_mem::hierarchy::{Access, MemoryHierarchy};
//! use ise_types::{addr::Addr, config::SystemConfig, CoreId};
//!
//! let mut h = MemoryHierarchy::new(SystemConfig::isca23());
//! let miss = h.access(Access::load(CoreId(0), Addr::new(0x4000)), 0);
//! let hit = h.access(Access::load(CoreId(0), Addr::new(0x4000)), miss.latency);
//! assert!(miss.latency > hit.latency);
//! assert!(miss.fault.is_none());
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod backend;
pub mod cache;
pub mod flat;
pub mod hierarchy;
pub mod mesi;
pub mod mshr;
pub mod tlb;

pub use backend::{Dram, FaultOracle, MemRequest, NoFaults};
pub use flat::FlatMemory;
pub use hierarchy::{Access, AccessResult, MemoryHierarchy, ServicedBy};
