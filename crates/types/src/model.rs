//! Memory-consistency model and drain-policy selectors.

use std::fmt;

/// The memory consistency model a core (and the checker) enforces.
///
/// The paper studies PC (used interchangeably with TSO, §4.2) and WC, with
/// SC as the degenerate "store buffer disabled" baseline of §2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConsistencyModel {
    /// Sequential Consistency: no store buffer; every memory operation
    /// completes before the next retires.
    Sc,
    /// Processor Consistency / Total Store Order: stores retire into a FIFO
    /// store buffer; only the store→load ordering is relaxed.
    Pc,
    /// Weak Consistency (RVWMO-like fragment): all orderings relaxed except
    /// same-address, fences, and dependencies.
    Wc,
}

impl ConsistencyModel {
    /// Whether this model permits a store buffer at all.
    pub fn has_store_buffer(self) -> bool {
        !matches!(self, ConsistencyModel::Sc)
    }

    /// Whether the store buffer must drain (and the interface must be fed)
    /// in FIFO program order. True for PC; WC only orders same-address
    /// stores, which coalesce in the buffer (paper §4.4).
    pub fn requires_fifo_drain(self) -> bool {
        matches!(self, ConsistencyModel::Sc | ConsistencyModel::Pc)
    }

    /// All models, for exhaustive sweeps.
    pub const ALL: [ConsistencyModel; 3] = [
        ConsistencyModel::Sc,
        ConsistencyModel::Pc,
        ConsistencyModel::Wc,
    ];

    /// This model's position in [`Self::ALL`] (declaration order).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for ConsistencyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistencyModel::Sc => write!(f, "SC"),
            ConsistencyModel::Pc => write!(f, "PC/TSO"),
            ConsistencyModel::Wc => write!(f, "WC"),
        }
    }
}

/// How non-faulting stores that share the store buffer with a faulting
/// store are treated (paper §4.5 vs §4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DrainPolicy {
    /// Same-stream (§4.6, the paper's design): on detection, *all* store
    /// buffer entries — faulting and younger non-faulting — drain to the
    /// FSB in buffer order, and the OS applies them all in that order.
    #[default]
    SameStream,
    /// Split-stream (§4.5): non-faulting stores drain directly to memory
    /// while faulting stores go to the FSB. Correct for PC only with an
    /// additional HW/SW barrier; without one it admits the Fig. 2a race.
    /// Implemented as an ablation.
    SplitStream,
}

impl fmt::Display for DrainPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DrainPolicy::SameStream => write!(f, "same-stream"),
            DrainPolicy::SplitStream => write!(f, "split-stream"),
        }
    }
}

mod persist_impls {
    use super::*;
    use crate::persist::{Persist, PersistError, Reader, Writer};

    impl Persist for ConsistencyModel {
        fn save(&self, w: &mut Writer) {
            w.u8(match self {
                ConsistencyModel::Sc => 0,
                ConsistencyModel::Pc => 1,
                ConsistencyModel::Wc => 2,
            });
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(match r.u8()? {
                0 => ConsistencyModel::Sc,
                1 => ConsistencyModel::Pc,
                2 => ConsistencyModel::Wc,
                _ => return Err(PersistError::Corrupt("ConsistencyModel discriminant")),
            })
        }
    }

    impl Persist for DrainPolicy {
        fn save(&self, w: &mut Writer) {
            w.u8(match self {
                DrainPolicy::SameStream => 0,
                DrainPolicy::SplitStream => 1,
            });
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(match r.u8()? {
                0 => DrainPolicy::SameStream,
                1 => DrainPolicy::SplitStream,
                _ => return Err(PersistError::Corrupt("DrainPolicy discriminant")),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sc_has_no_store_buffer() {
        assert!(!ConsistencyModel::Sc.has_store_buffer());
        assert!(ConsistencyModel::Pc.has_store_buffer());
        assert!(ConsistencyModel::Wc.has_store_buffer());
    }

    #[test]
    fn fifo_drain_required_for_pc_not_wc() {
        assert!(ConsistencyModel::Pc.requires_fifo_drain());
        assert!(!ConsistencyModel::Wc.requires_fifo_drain());
    }

    #[test]
    fn default_drain_policy_is_same_stream() {
        assert_eq!(DrainPolicy::default(), DrainPolicy::SameStream);
    }

    #[test]
    fn all_covers_every_model() {
        assert_eq!(ConsistencyModel::ALL.len(), 3);
        for (i, model) in ConsistencyModel::ALL.into_iter().enumerate() {
            assert_eq!(model.index(), i);
        }
    }
}
