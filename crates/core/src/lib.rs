//! The paper's contribution: hardware support for imprecise store
//! exceptions.
//!
//! Three hardware pieces live here, mirroring §5 of the paper:
//!
//! * [`fsb::Fsb`] — the **Faulting Store Buffer**, a per-core in-memory
//!   ring buffer holding drained faulting stores, exposed to the OS
//!   through four system registers (base, mask, head, tail);
//! * [`fsbc::Fsbc`] — the **FSB Controller**, co-located with the store
//!   buffer, which writes drained entries to the FSB tail in the order
//!   the memory model mandates and triggers the imprecise exception;
//! * [`einject::EInject`] — the error-injection device of §6.2, which
//!   watches the LLC↔memory boundary and denies transactions to pages
//!   marked faulting in its bitmap (it implements
//!   [`ise_mem::FaultOracle`], the seam `ise-mem` provides for exactly
//!   this purpose).
//!
//! [`interface::ContractMonitor`] records the formalism's operations
//! (DETECT, PUT, GET, S_OS, RESOLVE — Table 4) as they happen and checks
//! the Table 5 contract between cores, interface and OS at runtime.
//!
//! [`resolver::CompositeResolver`] chains further fault sources behind
//! EInject on the same seam — the chaos layer's [`faults::FaultInjector`]
//! — and routes the OS's *resolve* to whichever source raised a fault.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use ise_types::persist;

pub mod einject;
pub mod faults;
pub mod fsb;
pub mod fsbc;
pub mod interface;
pub mod resolver;

pub use einject::EInject;
pub use faults::{FaultInjector, FaultPlan};
pub use fsb::{Fsb, FsbFullError, FsbRegisters};
pub use fsbc::{DrainReceipt, Fsbc};
pub use interface::{ContractMonitor, ContractViolation, OrderEvent};
pub use resolver::{CompositeResolver, FaultResolver};
