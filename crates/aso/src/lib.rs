//! ASO-style post-retirement speculation baseline (paper §3).
//!
//! The paper's first alternative to imprecise store exceptions keeps
//! exceptions precise by running an SC machine with Atomic Sequence
//! Ordering [Wenisch et al., ISCA '07]: when retirement would stall on an
//! ordering requirement (a store miss at the head of the ROB), the core
//! takes a checkpoint and retires the store *speculatively* into a
//! scalable store buffer; the checkpoint is merged away once the miss
//! resolves without an exception, or used to roll back to a precise state
//! when one is detected.
//!
//! What matters for the paper's argument is not ASO's mechanics but its
//! **cost**: the speculation state required to match WC performance —
//! checkpoints (map table + preserved physical registers), scalable
//! store-buffer entries, and the speculatively-read/-written bit overlays
//! on L1D and L2. [`account`] prices those structures; [`sweep`] finds the
//! minimum budget whose IPC reaches the WC core's, reproducing the
//! right-hand columns of Table 3.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod account;
pub mod sweep;

pub use account::SpeculationAccounting;
pub use sweep::{sweep_checkpoints_clocked, SweepPoint, SweepResult};
