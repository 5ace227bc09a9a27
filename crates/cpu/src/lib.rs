//! Trace-driven out-of-order core model.
//!
//! A [`core::Core`] consumes a stream of [`ise_types::Instruction`]s and
//! models the pipeline phenomena the paper's argument rests on:
//!
//! * a reorder buffer with in-order retirement and a configurable width;
//! * a store buffer ([`store_buffer`]) into which stores retire *before*
//!   completion under PC and WC — the optimization that makes
//!   post-retirement store exceptions possible at all (§2.2);
//! * SC as the "store buffer disabled" baseline of §2.3, where every
//!   memory operation completes before retiring;
//! * precise exceptions on loads (resolved before retirement) and
//!   *imprecise* exceptions on retired stores, detected when a store-buffer
//!   drain comes back denied and surfaced to the embedding system as a
//!   drained batch of [`ise_types::FaultingStoreEntry`]s (§5.3's flow).
//!
//! The core deliberately knows nothing about the FSB, EInject or the OS —
//! those live in `ise-core`/`ise-os` and are wired together by `ise-sim` —
//! so the pipeline model stays reusable for the ASO baseline study.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod core;
mod rob;
pub mod store_buffer;

pub use crate::core::{run_cores, Core, SbPeaks, StepOutcome};
pub use store_buffer::{DrainFault, SbEntry, StoreBuffer};
