//! The trace instruction set executed by the timing cores.
//!
//! Workload generators (crate `ise-workloads`) emit streams of
//! [`Instruction`]s; the out-of-order core model (crate `ise-cpu`) consumes
//! them. The set is deliberately small — loads, stores, atomics, fences and
//! non-memory "other" work — because that is the granularity at which the
//! paper's phenomena (store-buffer occupancy, retirement blocking,
//! post-retirement exceptions) manifest.

use crate::addr::Addr;
use std::fmt;

/// An architectural register name in the trace ISA.
///
/// Registers exist so that litmus tests and traces can express address,
/// data, and control dependencies — the "Dependencies" family of Table 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Fence flavours, mirroring the strength hierarchy RVWMO offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// Full fence: orders every earlier memory operation before every later
    /// one (`fence rw,rw`). This is the `F` of the paper's formalism
    /// (Table 4) and drains the store buffer.
    Full,
    /// Store-store fence (`fence w,w`): orders earlier stores before later
    /// stores.
    StoreStore,
    /// Load-load fence (`fence r,r`): orders earlier loads before later
    /// loads.
    LoadLoad,
}

impl fmt::Display for FenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FenceKind::Full => write!(f, "fence rw,rw"),
            FenceKind::StoreStore => write!(f, "fence w,w"),
            FenceKind::LoadLoad => write!(f, "fence r,r"),
        }
    }
}

/// The operation performed by one trace instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Load 8 bytes from `addr` into `dst`.
    Load {
        /// Target address.
        addr: Addr,
        /// Destination register receiving the loaded value.
        dst: Reg,
    },
    /// Store the 8-byte `value` to `addr`.
    Store {
        /// Target address.
        addr: Addr,
        /// Immediate value written (traces are value-resolved).
        value: u64,
    },
    /// An atomic read-modify-write (AMO-add flavour): loads the old value
    /// into `dst` and stores `old + add`. Atomics never retire before
    /// completion and act as an acquire+release point, matching the
    /// "Preserved program order" family of Table 6.
    Atomic {
        /// Target address.
        addr: Addr,
        /// Addend applied to the old value.
        add: u64,
        /// Destination register receiving the old value.
        dst: Reg,
    },
    /// A memory fence.
    Fence(FenceKind),
    /// Non-memory work occupying one issue slot with the given execution
    /// latency in cycles (ALU/branch/FP — the "Others" column of Table 3).
    Other {
        /// Execution latency in cycles (≥ 1).
        latency: u32,
    },
}

impl InstrKind {
    /// Whether this instruction reads or writes memory.
    pub fn is_memory(&self) -> bool {
        matches!(
            self,
            InstrKind::Load { .. } | InstrKind::Store { .. } | InstrKind::Atomic { .. }
        )
    }

    /// The memory address accessed, if any.
    pub fn addr(&self) -> Option<Addr> {
        match self {
            InstrKind::Load { addr, .. }
            | InstrKind::Store { addr, .. }
            | InstrKind::Atomic { addr, .. } => Some(*addr),
            _ => None,
        }
    }
}

/// One instruction of a trace: an operation plus its classification.
///
/// ```
/// use ise_types::instr::{Instruction, InstrKind};
/// use ise_types::addr::Addr;
///
/// let st = Instruction::store(Addr::new(0x100), 7);
/// assert!(st.kind.is_memory());
/// assert_eq!(st.kind.addr(), Some(Addr::new(0x100)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The operation.
    pub kind: InstrKind,
}

impl Instruction {
    /// Convenience constructor for a load.
    pub fn load(addr: Addr, dst: Reg) -> Self {
        Instruction {
            kind: InstrKind::Load { addr, dst },
        }
    }

    /// Convenience constructor for a store.
    pub fn store(addr: Addr, value: u64) -> Self {
        Instruction {
            kind: InstrKind::Store { addr, value },
        }
    }

    /// Convenience constructor for an atomic add.
    pub fn atomic(addr: Addr, add: u64, dst: Reg) -> Self {
        Instruction {
            kind: InstrKind::Atomic { addr, add, dst },
        }
    }

    /// Convenience constructor for a fence.
    pub fn fence(kind: FenceKind) -> Self {
        Instruction {
            kind: InstrKind::Fence(kind),
        }
    }

    /// Convenience constructor for single-cycle non-memory work.
    pub fn other() -> Self {
        Instruction {
            kind: InstrKind::Other { latency: 1 },
        }
    }

    /// Convenience constructor for non-memory work with a latency.
    ///
    /// # Panics
    ///
    /// Panics if `latency == 0`.
    pub fn other_with_latency(latency: u32) -> Self {
        assert!(latency > 0, "instruction latency must be positive");
        Instruction {
            kind: InstrKind::Other { latency },
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            InstrKind::Load { addr, dst } => write!(f, "ld {dst}, [{addr}]"),
            InstrKind::Store { addr, value } => write!(f, "st [{addr}], {value:#x}"),
            InstrKind::Atomic { addr, add, dst } => {
                write!(f, "amoadd {dst}, [{addr}], {add:#x}")
            }
            InstrKind::Fence(k) => write!(f, "{k}"),
            InstrKind::Other { latency } => write!(f, "alu(lat={latency})"),
        }
    }
}

/// Aggregate instruction-mix fractions, as reported in Table 3.
///
/// Fractions are in percent and need not sum exactly to 100 (the paper's
/// rows round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionMix {
    /// Percentage of stores.
    pub store_pct: f64,
    /// Percentage of loads.
    pub load_pct: f64,
    /// Percentage of synchronization instructions (atomics + fences).
    pub sync_pct: f64,
    /// Percentage of everything else.
    pub other_pct: f64,
}

impl InstructionMix {
    /// Computes the mix of a finished trace.
    pub fn measure(instrs: impl IntoIterator<Item = Instruction>) -> Self {
        let (mut s, mut l, mut y, mut o, mut n) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for i in instrs {
            n += 1;
            match i.kind {
                InstrKind::Store { .. } => s += 1,
                InstrKind::Load { .. } => l += 1,
                InstrKind::Atomic { .. } | InstrKind::Fence(_) => y += 1,
                InstrKind::Other { .. } => o += 1,
            }
        }
        let pct = |c: u64| {
            if n == 0 {
                0.0
            } else {
                100.0 * c as f64 / n as f64
            }
        };
        InstructionMix {
            store_pct: pct(s),
            load_pct: pct(l),
            sync_pct: pct(y),
            other_pct: pct(o),
        }
    }
}

impl fmt::Display for InstructionMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "store {:.0}% load {:.0}% sync {:.1}% other {:.0}%",
            self.store_pct, self.load_pct, self.sync_pct, self.other_pct
        )
    }
}

mod persist_impls {
    use super::*;
    use crate::persist::{Persist, PersistError, Reader, Writer};

    impl Persist for Reg {
        fn save(&self, w: &mut Writer) {
            w.u8(self.0);
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(Reg(r.u8()?))
        }
    }

    impl Persist for FenceKind {
        fn save(&self, w: &mut Writer) {
            w.u8(match self {
                FenceKind::Full => 0,
                FenceKind::StoreStore => 1,
                FenceKind::LoadLoad => 2,
            });
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            match r.u8()? {
                0 => Ok(FenceKind::Full),
                1 => Ok(FenceKind::StoreStore),
                2 => Ok(FenceKind::LoadLoad),
                _ => Err(PersistError::Corrupt("FenceKind discriminant")),
            }
        }
    }

    impl Persist for InstrKind {
        fn save(&self, w: &mut Writer) {
            match self {
                InstrKind::Load { addr, dst } => {
                    w.u8(0);
                    addr.save(w);
                    dst.save(w);
                }
                InstrKind::Store { addr, value } => {
                    w.u8(1);
                    addr.save(w);
                    w.u64(*value);
                }
                InstrKind::Atomic { addr, add, dst } => {
                    w.u8(2);
                    addr.save(w);
                    w.u64(*add);
                    dst.save(w);
                }
                InstrKind::Fence(k) => {
                    w.u8(3);
                    k.save(w);
                }
                InstrKind::Other { latency } => {
                    w.u8(4);
                    w.u32(*latency);
                }
            }
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(match r.u8()? {
                0 => InstrKind::Load {
                    addr: Persist::restore(r)?,
                    dst: Persist::restore(r)?,
                },
                1 => InstrKind::Store {
                    addr: Persist::restore(r)?,
                    value: r.u64()?,
                },
                2 => InstrKind::Atomic {
                    addr: Persist::restore(r)?,
                    add: r.u64()?,
                    dst: Persist::restore(r)?,
                },
                3 => InstrKind::Fence(Persist::restore(r)?),
                4 => InstrKind::Other { latency: r.u32()? },
                _ => return Err(PersistError::Corrupt("InstrKind discriminant")),
            })
        }
    }

    impl Persist for Instruction {
        fn save(&self, w: &mut Writer) {
            self.kind.save(w);
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(Instruction {
                kind: Persist::restore(r)?,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_classify() {
        assert!(Instruction::load(Addr::new(0), Reg(1)).kind.is_memory());
        assert!(Instruction::store(Addr::new(0), 1).kind.is_memory());
        assert!(Instruction::atomic(Addr::new(0), 1, Reg(0))
            .kind
            .is_memory());
        assert!(!Instruction::fence(FenceKind::Full).kind.is_memory());
        assert!(!Instruction::other().kind.is_memory());
    }

    #[test]
    fn addr_extraction() {
        let a = Addr::new(0x80);
        assert_eq!(Instruction::load(a, Reg(0)).kind.addr(), Some(a));
        assert_eq!(Instruction::fence(FenceKind::Full).kind.addr(), None);
    }

    #[test]
    #[should_panic(expected = "latency must be positive")]
    fn zero_latency_rejected() {
        let _ = Instruction::other_with_latency(0);
    }

    #[test]
    fn mix_measures_percentages() {
        let trace = vec![
            Instruction::store(Addr::new(0), 1),
            Instruction::load(Addr::new(8), Reg(0)),
            Instruction::load(Addr::new(16), Reg(1)),
            Instruction::other(),
        ];
        let mix = InstructionMix::measure(trace);
        assert_eq!(mix.store_pct, 25.0);
        assert_eq!(mix.load_pct, 50.0);
        assert_eq!(mix.sync_pct, 0.0);
        assert_eq!(mix.other_pct, 25.0);
    }

    #[test]
    fn mix_of_empty_trace_is_zero() {
        let mix = InstructionMix::measure([]);
        assert_eq!(mix.store_pct, 0.0);
        assert_eq!(mix.other_pct, 0.0);
    }

    #[test]
    fn display_is_assembly_like() {
        let s = Instruction::store(Addr::new(0x40), 0xff).to_string();
        assert_eq!(s, "st [0x40], 0xff");
        let l = Instruction::load(Addr::new(0x40), Reg(2)).to_string();
        assert_eq!(l, "ld r2, [0x40]");
    }
}
