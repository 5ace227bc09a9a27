//! Exception taxonomy.
//!
//! Two layers live here. [`X86Exception`] reproduces Table 1 of the paper —
//! the classification of x86 exceptions by pipeline stage of origin and by
//! fault/trap/abort class — used to make the point that, machine checks
//! aside, every modern exception originates *inside* the core. The second
//! layer, [`ExceptionKind`], is the exception vocabulary of our simulated
//! system, including the imprecise store exception codes that components in
//! the memory hierarchy (the EInject device, injected chaos faults) can
//! attach to a store response.

use std::fmt;

/// Architectural classification of an exception (x86 terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExceptionClass {
    /// Restartable: reported on the faulting instruction before it commits.
    Fault,
    /// Reported after the triggering instruction commits.
    Trap,
    /// Non-restartable; the process (or machine) cannot continue precisely.
    Abort,
}

impl fmt::Display for ExceptionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExceptionClass::Fault => write!(f, "Fault"),
            ExceptionClass::Trap => write!(f, "Trap"),
            ExceptionClass::Abort => write!(f, "Abort"),
        }
    }
}

/// Pipeline stage in which an exception is generated (Table 1's left
/// column). `Hierarchy` is the new point of origin the paper introduces:
/// compute units embedded in the cache/memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OriginStage {
    /// Instruction fetch.
    Fetch,
    /// Decode.
    Decode,
    /// Execute (ALU/FP).
    Execute,
    /// Memory stage (address translation in the core).
    Memory,
    /// Asynchronous / cross-cutting (machine checks).
    Machine,
    /// Generated in the cache/memory hierarchy, post-retirement — the
    /// paper's subject.
    Hierarchy,
}

impl fmt::Display for OriginStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OriginStage::Fetch => "Fetch",
            OriginStage::Decode => "Decode",
            OriginStage::Execute => "Execute",
            OriginStage::Memory => "Memory",
            OriginStage::Machine => "Machine",
            OriginStage::Hierarchy => "Hierarchy",
        };
        write!(f, "{s}")
    }
}

/// One row entry of Table 1: a named x86 exception with its class and the
/// stage that generates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct X86Exception {
    /// Human-readable exception name.
    pub name: &'static str,
    /// Fault / trap / abort.
    pub class: ExceptionClass,
    /// Stage of origin.
    pub origin: OriginStage,
}

/// The full Table 1 taxonomy, in paper order.
pub const X86_EXCEPTIONS: &[X86Exception] = &[
    x(
        "Control protection exception",
        ExceptionClass::Fault,
        OriginStage::Fetch,
    ),
    x("Code page fault", ExceptionClass::Fault, OriginStage::Fetch),
    x(
        "Code-segment limit violation",
        ExceptionClass::Fault,
        OriginStage::Fetch,
    ),
    x("Invalid opcode", ExceptionClass::Fault, OriginStage::Decode),
    x(
        "Device not available",
        ExceptionClass::Fault,
        OriginStage::Decode,
    ),
    x("Debug", ExceptionClass::Fault, OriginStage::Decode),
    x(
        "Divide by zero",
        ExceptionClass::Fault,
        OriginStage::Execute,
    ),
    x(
        "Bound range exceeded",
        ExceptionClass::Fault,
        OriginStage::Execute,
    ),
    x("FP error", ExceptionClass::Fault, OriginStage::Execute),
    x(
        "Alignment check",
        ExceptionClass::Fault,
        OriginStage::Execute,
    ),
    x(
        "SIMD FP exception",
        ExceptionClass::Fault,
        OriginStage::Execute,
    ),
    x("Invalid TSS", ExceptionClass::Fault, OriginStage::Execute),
    x(
        "Segment not present",
        ExceptionClass::Fault,
        OriginStage::Memory,
    ),
    x(
        "Stack-segment fault",
        ExceptionClass::Fault,
        OriginStage::Memory,
    ),
    x("Page fault", ExceptionClass::Fault, OriginStage::Memory),
    x(
        "General protection fault",
        ExceptionClass::Fault,
        OriginStage::Memory,
    ),
    x(
        "Virtualization exception",
        ExceptionClass::Fault,
        OriginStage::Memory,
    ),
    x("Debug (trap)", ExceptionClass::Trap, OriginStage::Execute),
    x("Breakpoint", ExceptionClass::Trap, OriginStage::Execute),
    x("Overflow", ExceptionClass::Trap, OriginStage::Execute),
    x("Double fault", ExceptionClass::Abort, OriginStage::Machine),
    x("Triple fault", ExceptionClass::Abort, OriginStage::Machine),
    x("Machine Check", ExceptionClass::Abort, OriginStage::Machine),
];

const fn x(name: &'static str, class: ExceptionClass, origin: OriginStage) -> X86Exception {
    X86Exception {
        name,
        class,
        origin,
    }
}

/// An accelerator-specific error code carried in a store response and in
/// each FSB entry (paper §5.1: "a response with an embedded error code").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ErrorCode(pub u16);

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "err:{:#06x}", self.0)
    }
}

/// The exceptions our simulated system can raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExceptionKind {
    /// A recoverable page fault detected in the hierarchy (demand paging,
    /// lazy allocation).
    PageFault,
    /// An EInject-denied bus transaction (paper §6.2): the device set the
    /// `denied` bit on the TileLink-UL response.
    BusError,
    /// An irrecoverable access violation; the OS terminates the process.
    SegmentationFault,
    /// A fatal ECC machine check (the one pre-existing imprecise exception;
    /// kept for completeness).
    MachineCheck,
}

impl ExceptionKind {
    /// Whether the OS can resolve this exception and let the program
    /// continue (paper §4.1: recoverable → apply faulting stores and
    /// resume; irrecoverable → discard and terminate).
    pub fn is_recoverable(self) -> bool {
        match self {
            ExceptionKind::PageFault | ExceptionKind::BusError => true,
            ExceptionKind::SegmentationFault | ExceptionKind::MachineCheck => false,
        }
    }

    /// The wire error code embedded in a faulting response.
    pub fn error_code(self) -> ErrorCode {
        match self {
            ExceptionKind::PageFault => ErrorCode(0x0001),
            ExceptionKind::BusError => ErrorCode(0x0002),
            ExceptionKind::SegmentationFault => ErrorCode(0x000e),
            ExceptionKind::MachineCheck => ErrorCode(0x00fe),
        }
    }
}

impl fmt::Display for ExceptionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExceptionKind::PageFault => write!(f, "page fault"),
            ExceptionKind::BusError => write!(f, "bus error"),
            ExceptionKind::SegmentationFault => write!(f, "segmentation fault"),
            ExceptionKind::MachineCheck => write!(f, "machine check"),
        }
    }
}

mod persist_impls {
    use super::*;
    use crate::persist::{Persist, PersistError, Reader, Writer};

    impl Persist for ErrorCode {
        fn save(&self, w: &mut Writer) {
            w.u16(self.0);
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(ErrorCode(r.u16()?))
        }
    }

    impl Persist for ExceptionKind {
        fn save(&self, w: &mut Writer) {
            match self {
                ExceptionKind::PageFault => w.u8(0),
                ExceptionKind::BusError => w.u8(1),
                ExceptionKind::SegmentationFault => w.u8(3),
                ExceptionKind::MachineCheck => w.u8(4),
            }
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(match r.u8()? {
                0 => ExceptionKind::PageFault,
                1 => ExceptionKind::BusError,
                3 => ExceptionKind::SegmentationFault,
                4 => ExceptionKind::MachineCheck,
                _ => return Err(PersistError::Corrupt("ExceptionKind discriminant")),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_all_rows() {
        assert_eq!(X86_EXCEPTIONS.len(), 23);
        let faults = X86_EXCEPTIONS
            .iter()
            .filter(|e| e.class == ExceptionClass::Fault)
            .count();
        let traps = X86_EXCEPTIONS
            .iter()
            .filter(|e| e.class == ExceptionClass::Trap)
            .count();
        let aborts = X86_EXCEPTIONS
            .iter()
            .filter(|e| e.class == ExceptionClass::Abort)
            .count();
        assert_eq!((faults, traps, aborts), (17, 3, 3));
    }

    #[test]
    fn only_machine_checks_originate_outside_core_in_table1() {
        for e in X86_EXCEPTIONS {
            if e.origin == OriginStage::Machine {
                assert_eq!(e.class, ExceptionClass::Abort);
            } else {
                assert_ne!(e.origin, OriginStage::Hierarchy);
            }
        }
    }

    #[test]
    fn recoverability_matches_paper() {
        assert!(ExceptionKind::PageFault.is_recoverable());
        assert!(ExceptionKind::BusError.is_recoverable());
        assert!(!ExceptionKind::SegmentationFault.is_recoverable());
        assert!(!ExceptionKind::MachineCheck.is_recoverable());
    }

    #[test]
    fn error_codes_are_distinct() {
        let codes = [
            ExceptionKind::PageFault.error_code(),
            ExceptionKind::BusError.error_code(),
            ExceptionKind::SegmentationFault.error_code(),
            ExceptionKind::MachineCheck.error_code(),
        ];
        for i in 0..codes.len() {
            for j in i + 1..codes.len() {
                assert_ne!(codes[i], codes[j]);
            }
        }
    }

    #[test]
    fn retired_discriminant_2_is_rejected() {
        use crate::persist::{Persist, PersistError, Reader, Writer};
        let mut w = Writer::container();
        w.u8(2);
        let bytes = w.finish();
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            ExceptionKind::restore(&mut r),
            Err(PersistError::Corrupt("ExceptionKind discriminant"))
        ));
    }
}
