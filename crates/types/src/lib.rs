//! Common model types for the *Imprecise Store Exceptions* reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: memory addresses and pages ([`addr`]), the trace instruction
//! set executed by the timing cores ([`instr`]), the exception taxonomy —
//! including the x86 classification of Table 1 and the imprecise store
//! exception codes introduced by the paper ([`exception`]), faulting-store
//! records as drained into the Faulting Store Buffer ([`faulting`]),
//! memory-consistency model selectors ([`model`]), system configuration
//! mirroring Table 2 of the paper ([`config`]), statistics containers
//! ([`stats`]), and the shared parser for the repo's `ISE_*` environment
//! pins ([`env`](mod@env)).
//!
//! # Example
//!
//! ```
//! use ise_types::config::SystemConfig;
//! use ise_types::model::ConsistencyModel;
//!
//! let cfg = SystemConfig::isca23();
//! assert_eq!(cfg.cores, 16);
//! assert_eq!(cfg.core.rob_entries, 128);
//! assert_eq!(cfg.core.model, ConsistencyModel::Wc);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod addr;
pub mod config;
pub mod env;
pub mod error;
pub mod exception;
pub mod faulting;
pub mod faults;
pub mod instr;
pub mod json;
pub mod model;
pub mod persist;
pub mod stats;
pub mod trace;
pub mod trap;

pub use addr::{AccessSize, Addr, ByteMask, CoreId, PageId};
pub use config::{RecoveryHardening, SystemConfig};
pub use error::SimError;
pub use exception::{ExceptionClass, ExceptionKind};
pub use faulting::FaultingStoreEntry;
pub use faults::{FaultKind, FaultSpec};
pub use instr::{InstrKind, Instruction};
pub use json::{Json, ToJson};
pub use model::{ConsistencyModel, DrainPolicy};
pub use trace::{Trace, TraceBuf, TraceCursor};
pub use trap::Trap;
