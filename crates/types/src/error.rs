//! The simulator-wide error type.
//!
//! Fallible paths that used to `unwrap()`/`expect()` mid-simulation —
//! FSB pushes, FSBC drains, store-buffer bookkeeping, OS handler steps —
//! propagate a [`SimError`] instead, so a mis-sized or chaos-stressed
//! configuration surfaces as a diagnosable error rather than a panic.
//! Construction-time invariants (zero capacities, unaligned regions)
//! remain asserts: they are programming errors, not simulated faults.

use crate::addr::{Addr, CoreId};
use std::fmt;

/// An error produced while advancing the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A Faulting Store Buffer had no room for a drained entry.
    FsbFull {
        /// Core whose FSB overflowed.
        core: CoreId,
        /// Ring capacity in entries.
        capacity: usize,
        /// Entries the failed operation needed to queue.
        needed: usize,
    },
    /// A store-buffer operation referenced an entry that does not exist.
    StoreBufferIndex {
        /// Core whose store buffer was addressed.
        core: CoreId,
        /// The out-of-range index.
        index: usize,
        /// Entries currently buffered.
        len: usize,
    },
    /// The OS handler exhausted its retry budget for a store that kept
    /// faulting (the recovery path of the chaos subsystem declares the
    /// store irrecoverable; the caller decides to kill the process).
    RetryExhausted {
        /// Core whose handler gave up.
        core: CoreId,
        /// Address of the unrecoverable store.
        addr: Addr,
        /// Retries attempted before giving up.
        attempts: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::FsbFull {
                core,
                capacity,
                needed,
            } => write!(
                f,
                "core {core:?}: FSB full (capacity {capacity}, needed {needed})"
            ),
            SimError::StoreBufferIndex { core, index, len } => write!(
                f,
                "core {core:?}: store-buffer index {index} out of range (len {len})"
            ),
            SimError::RetryExhausted {
                core,
                addr,
                attempts,
            } => write!(
                f,
                "core {core:?}: store to {addr:?} still faulting after {attempts} retries"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_descriptive() {
        let e = SimError::FsbFull {
            core: CoreId(3),
            capacity: 32,
            needed: 40,
        };
        let s = e.to_string();
        assert!(s.contains("FSB full"));
        assert!(s.contains("32"));
        assert!(s.contains("40"));
    }

    #[test]
    fn errors_compare() {
        let a = SimError::StoreBufferIndex {
            core: CoreId(0),
            index: 4,
            len: 2,
        };
        assert_eq!(a, a);
        assert_ne!(
            a,
            SimError::StoreBufferIndex {
                core: CoreId(1),
                index: 4,
                len: 2,
            }
        );
    }
}
