//! RV64I interpreter frontend for the *Imprecise Store Exceptions*
//! reproduction.
//!
//! This crate executes real guest machine code and lowers it into the
//! trace instruction set the timing cores (crate `ise-cpu`) consume:
//!
//! * [`decode`](mod@decode) — a canonical RV64I (+Zifencei, +`amoadd`) decoder and
//!   exact re-encoder: every 32-bit word either round-trips through
//!   `encode(decode(w)) == w` or is an illegal-instruction trap.
//! * [`asm`] — a label-resolving assembler; the checked-in `guest/*.bin`
//!   images are produced (and verified) with it.
//! * [`csr`] — the minimal machine-mode CSR file (mstatus/mtvec/mepc/
//!   mcause/mtval plus identity and counters).
//! * [`bus`] — the guest physical address space: RAM shared 1:1 with
//!   the timing model, a CLINT-style timer/software-interrupt device,
//!   and a UART.
//! * [`hart`] — fetch/decode/execute with RISC-V trap semantics, each
//!   retirement lowered to one trace [`ise_types::instr::Instruction`].
//! * [`machine`] — deterministic round-robin multi-hart interleaving,
//!   event log, and [`ise_workloads::Workload`] packaging.
//! * [`programs`] — the checked-in guest programs (an MP litmus test
//!   and the EInject store-fault victim).
//!
//! The trap taxonomy follows the RISC-V privileged spec subset that the
//! `mizu` emulator models, mapped onto the simulator's exception
//! vocabulary by [`ise_types::trap::Trap::to_exception_kind`].

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod asm;
pub mod bus;
pub mod csr;
pub mod decode;
pub mod hart;
pub mod machine;
pub mod programs;

pub use asm::Asm;
pub use bus::{BusTarget, DeviceBus};
pub use csr::CsrFile;
pub use decode::{decode, encode, Decoded};
pub use hart::{Hart, MmioAccess, Step};
pub use machine::{GuestEvent, GuestEventKind, GuestMachine};
pub use programs::GuestProgram;
