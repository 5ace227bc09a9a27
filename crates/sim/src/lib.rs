//! Full-system simulation: the Fig. 4 machine, assembled.
//!
//! [`system::System`] wires together everything the other crates provide —
//! out-of-order cores with store buffers (`ise-cpu`), the MESI/NoC memory
//! hierarchy (`ise-mem`), the per-core FSB + FSBC and the EInject device
//! (`ise-core`), and the OS handler (`ise-os`) — and runs workload traces
//! through it, handling precise and imprecise exceptions exactly as §5.3
//! prescribes (drain → FSB → flush → handler → apply-in-order → resume).
//!
//! [`experiments`] contains one driver per paper table/figure; the
//! `ise-bench` crate's binaries print their results in the paper's format.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//!
//! [`chaos`] adds the fault-injection campaign runner: sweeps of fault
//! kind × rate × workload through `ise-core`'s [`chaos
//! layer`](ise_core::faults). Its [`fault_cell`] builds the injected
//! system every fault campaign runs, and [`invariants`] holds the one
//! post-run audit that chaos, adversary, litmus `--sim` and guest runs
//! share.

//!
//! [`litmus`] lowers the symbolic litmus programs of `ise-consistency`
//! onto this machine, so the differential fuzzing harness can use the
//! timing simulator as its third oracle.

//!
//! [`guest`] runs real RV64 machine code (crate `ise-isa`) end to end:
//! the frontend's functional pre-run lowers each retired guest
//! instruction to one trace instruction, and the timing model replays
//! the result — EInject store faults included — through the same
//! FSB/handler recovery path every other workload uses.

pub mod chaos;
pub mod experiments;
pub mod guest;
pub mod invariants;
pub mod litmus;
pub mod report;
pub mod system;

pub use chaos::{fault_cell, ChaosCampaign, ChaosConfig, ChaosReport, ChaosRun};
pub use guest::{run_guest_program, run_guest_program_with_cut, GuestRun};
pub use litmus::{litmus_workload, loc_addr, run_litmus_case, FaultOverlay, LitmusRun};
pub use system::{System, SystemStats};
