//! # Imprecise Store Exceptions — a Rust reproduction
//!
//! A from-scratch reproduction of *Imprecise Store Exceptions* (Gupta,
//! Li, Kang, Bhattacharjee, Falsafi, Oh, Payer — ISCA 2023): the
//! formalism, the hardware/OS co-design (Faulting Store Buffer, FSB
//! controller, EInject), a multicore out-of-order timing simulator to
//! evaluate it on, an exhaustive-interleaving litmus machine to verify
//! it with, and a benchmark harness regenerating every table and figure
//! of the paper's evaluation. See `DESIGN.md` for the system inventory
//! and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! This crate is a facade: each subsystem lives in its own crate under
//! `crates/` and is re-exported here under a short name.
//!
//! ## Quickstart
//!
//! Run a store-heavy workload over pages that EInject denies at the
//! LLC↔memory boundary; the system detects the imprecise store
//! exceptions, drains the store buffer through the FSB, lets the OS model
//! resolve and apply the faulting stores in order, and resumes:
//!
//! ```
//! use imprecise_store_exceptions::prelude::*;
//!
//! // A one-core workload: 32 stores into the EInject region.
//! let base = Addr::new(ise_workloads::layout::EINJECT_BASE);
//! let trace: ise_workloads::Trace =
//!     (0..32).map(|i| Instruction::store(base.offset(i * 8), i + 1)).collect();
//! let workload = Workload {
//!     name: "quickstart".into(),
//!     traces: vec![trace],
//!     einject_pages: vec![base.page()],
//! };
//!
//! let mut cfg = SystemConfig::isca23();
//! cfg.noc.mesh_x = 2;
//! cfg.noc.mesh_y = 1;
//! let mut system = System::new(cfg, &workload).with_contract_monitor();
//! let stats = system.run_clocked(10_000_000, true); // true: the cycle-skipping clock
//!
//! assert!(stats.imprecise_exceptions >= 1);
//! assert_eq!(stats.retired(), 32);
//! assert_eq!(system.memory().read(base), 1); // S_OS applied the store
//! system.check_contract()?;                  // Table 5 held
//! # Ok::<(), ise_core::ContractViolation>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use ise_adversary as adversary;
pub use ise_aso as aso;
pub use ise_consistency as consistency;
pub use ise_core as core_hw;
pub use ise_cpu as cpu;
pub use ise_engine as engine;
pub use ise_fuzz as fuzz;
pub use ise_litmus as litmus;
pub use ise_mem as mem;
pub use ise_noc as noc;
pub use ise_os as os;
pub use ise_par as par;
pub use ise_sim as sim;
pub use ise_telemetry as telemetry;
pub use ise_types as types;
pub use ise_workloads as workloads;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use ise_core::{ContractMonitor, EInject, Fsb, Fsbc};
    pub use ise_litmus::{corpus, explore, run_corpus, run_test, MachineConfig};
    pub use ise_os::OsKernel;
    pub use ise_sim::{System, SystemStats};
    pub use ise_types::{
        addr::Addr, config::SystemConfig, ConsistencyModel, DrainPolicy, FaultingStoreEntry,
        Instruction,
    };
    pub use ise_workloads::Workload;
}
