//! The guest machine: N harts round-robin over one [`DeviceBus`],
//! producing per-hart trace streams for the timing pipeline.
//!
//! Execution is a *functional pre-run*: the frontend interleaves harts
//! deterministically (hart 0, 1, …, then a CLINT tick, repeat), so the
//! value-resolved traces it emits are a pure function of the program
//! image. The timing model then replays those traces with real
//! store-buffer/FSB/cache behaviour. The interleaving is part of the
//! determinism contract — the same image always yields byte-identical
//! traces, registries, and snapshots.

use crate::bus::DeviceBus;
use crate::hart::{Hart, MmioAccess, Step};
use crate::programs::GuestProgram;
use ise_types::addr::PageId;
use ise_types::persist::{Persist, PersistError, Reader, Writer};
use ise_types::trap::Trap;
use ise_types::Trace;
use ise_workloads::Workload;
use std::fmt;

/// Safety valve for runaway guests (spin loops that never exit).
pub const DEFAULT_STEP_BUDGET: u64 = 1_000_000;

/// Something notable that happened during guest execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestEventKind {
    /// A trap vectored into the handler at `mtvec`.
    Trap(Trap),
    /// A trap with no handler installed halted the hart (an `ecall`
    /// here is the clean-exit convention).
    Halt(Trap),
    /// A device access.
    Mmio(MmioAccess),
}

/// One event, stamped with the interleave round and hart that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestEvent {
    /// Interleave round (machine step count when it happened).
    pub step: u64,
    /// Hart index.
    pub hart: u8,
    /// What happened.
    pub kind: GuestEventKind,
}

/// Error from [`GuestMachine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestError {
    /// The guest did not halt within the step budget.
    StepBudget {
        /// The budget that was exhausted.
        budget: u64,
    },
}

impl fmt::Display for GuestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuestError::StepBudget { budget } => {
                write!(f, "guest did not halt within {budget} interleave rounds")
            }
        }
    }
}

impl std::error::Error for GuestError {}

/// The whole guest: harts, bus, and everything executed so far.
#[derive(Debug, Clone)]
pub struct GuestMachine {
    /// The harts, stepped in index order each round.
    pub harts: Vec<Hart>,
    /// RAM + devices.
    pub bus: DeviceBus,
    /// Per-hart lowered trace streams (what the timing cores will run).
    /// [`GuestMachine::to_workload`] shares them with the timing model.
    pub traces: Vec<Trace>,
    /// Trap/halt/MMIO event log, in interleave order.
    pub events: Vec<GuestEvent>,
    /// Interleave rounds completed.
    pub steps: u64,
}

impl GuestMachine {
    /// A machine with `harts` harts all entering at `entry`.
    pub fn new(harts: usize, entry: u64) -> Self {
        assert!(harts > 0, "guest machine needs at least one hart");
        GuestMachine {
            harts: (0..harts).map(|i| Hart::new(i as u64, entry)).collect(),
            bus: DeviceBus::new(harts),
            traces: vec![Trace::default(); harts],
            events: Vec::new(),
            steps: 0,
        }
    }

    /// Boots a checked-in guest program: loads its image and points
    /// every hart at its base.
    pub fn from_program(program: &GuestProgram) -> Self {
        let mut m = GuestMachine::new(program.harts, program.base);
        m.bus.load_image(program.base, &program.image);
        m
    }

    /// Whether every hart has halted.
    pub fn halted(&self) -> bool {
        self.harts.iter().all(|h| h.halted)
    }

    /// Runs one interleave round: each live hart steps once (in index
    /// order), then the CLINT ticks.
    pub fn step_round(&mut self) {
        for (i, hart) in self.harts.iter_mut().enumerate() {
            hart.csrs.mip = self.bus.clint.mip_bits(i);
            match hart.step(&mut self.bus) {
                Step::Retired { lowered, mmio } => {
                    self.traces[i].make_mut().push(lowered);
                    if let Some(m) = mmio {
                        self.events.push(GuestEvent {
                            step: self.steps,
                            hart: i as u8,
                            kind: GuestEventKind::Mmio(m),
                        });
                    }
                }
                Step::Trapped(t) => self.events.push(GuestEvent {
                    step: self.steps,
                    hart: i as u8,
                    kind: GuestEventKind::Trap(t),
                }),
                Step::Halted(t) => self.events.push(GuestEvent {
                    step: self.steps,
                    hart: i as u8,
                    kind: GuestEventKind::Halt(t),
                }),
                Step::Idle => {}
            }
        }
        self.bus.clint.tick();
        self.steps += 1;
    }

    /// Runs until every hart halts.
    ///
    /// # Errors
    ///
    /// [`GuestError::StepBudget`] if the guest is still live after
    /// `budget` rounds.
    pub fn run(&mut self, budget: u64) -> Result<(), GuestError> {
        let end = self.steps + budget;
        while !self.halted() {
            if self.steps >= end {
                return Err(GuestError::StepBudget { budget });
            }
            self.step_round();
        }
        Ok(())
    }

    /// Everything the guest printed to the UART.
    pub fn uart_output(&self) -> &[u8] {
        &self.bus.uart.output
    }

    /// Packages the emitted traces as a [`Workload`] for the timing
    /// model, with the given EInject page arming. The workload shares
    /// each hart's trace buffer; nothing is copied.
    pub fn to_workload(&self, name: &str, einject_pages: Vec<PageId>) -> Workload {
        assert!(self.halted(), "package the workload after the guest halts");
        Workload {
            name: name.to_string(),
            traces: self.traces.clone(),
            einject_pages,
        }
    }
}

mod persist_impls {
    use super::*;

    impl Persist for MmioAccess {
        fn save(&self, w: &mut Writer) {
            w.bool(self.write);
            self.addr.save(w);
            w.u64(self.value);
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(MmioAccess {
                write: r.bool()?,
                addr: Persist::restore(r)?,
                value: r.u64()?,
            })
        }
    }

    impl Persist for GuestEventKind {
        fn save(&self, w: &mut Writer) {
            match self {
                GuestEventKind::Trap(t) => {
                    w.u8(0);
                    t.save(w);
                }
                GuestEventKind::Halt(t) => {
                    w.u8(1);
                    t.save(w);
                }
                GuestEventKind::Mmio(m) => {
                    w.u8(2);
                    m.save(w);
                }
            }
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(match r.u8()? {
                0 => GuestEventKind::Trap(Persist::restore(r)?),
                1 => GuestEventKind::Halt(Persist::restore(r)?),
                2 => GuestEventKind::Mmio(Persist::restore(r)?),
                _ => return Err(PersistError::Corrupt("GuestEventKind discriminant")),
            })
        }
    }

    impl Persist for GuestEvent {
        fn save(&self, w: &mut Writer) {
            w.u64(self.step);
            w.u8(self.hart);
            self.kind.save(w);
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(GuestEvent {
                step: r.u64()?,
                hart: r.u8()?,
                kind: Persist::restore(r)?,
            })
        }
    }

    impl Persist for GuestMachine {
        fn save(&self, w: &mut Writer) {
            w.section(*b"GSTM", |w| {
                self.harts.save(w);
                self.bus.save(w);
                self.traces.save(w);
                self.events.save(w);
                w.u64(self.steps);
            });
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            r.section(*b"GSTM", |r| {
                let m = GuestMachine {
                    harts: Persist::restore(r)?,
                    bus: Persist::restore(r)?,
                    traces: Persist::restore(r)?,
                    events: Persist::restore(r)?,
                    steps: r.u64()?,
                };
                if m.harts.is_empty() || m.traces.len() != m.harts.len() {
                    return Err(PersistError::Corrupt("GuestMachine shape"));
                }
                Ok(m)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use ise_types::persist::{restore_container, save_container};

    #[test]
    fn mp_litmus_runs_to_completion_and_passes_the_message() {
        let prog = programs::mp_litmus();
        let mut m = GuestMachine::from_program(&prog);
        m.run(DEFAULT_STEP_BUDGET).unwrap();
        // Hart 1's a0 observed the data value through the flag.
        assert_eq!(m.harts[1].x(10), 42);
        // Both harts exited via ecall-halt.
        assert_eq!(
            m.events
                .iter()
                .filter(|e| matches!(
                    e.kind,
                    GuestEventKind::Halt(Trap::EnvironmentCallFromMMode(_))
                ))
                .count(),
            2
        );
        // Traces are non-empty for every hart (a System precondition).
        assert!(m.traces.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn victim_stores_into_the_einject_window() {
        use ise_types::instr::InstrKind;
        let prog = programs::store_fault_victim();
        let mut m = GuestMachine::from_program(&prog);
        m.run(DEFAULT_STEP_BUDGET).unwrap();
        let armed: std::collections::HashSet<_> = prog.einject_pages.iter().copied().collect();
        let faulting_stores = m.traces[0]
            .iter()
            .filter(|i| match i.kind {
                InstrKind::Store { addr, .. } => armed.contains(&addr.page()),
                _ => false,
            })
            .count();
        assert!(faulting_stores > 0, "victim must store to armed pages");
        assert_eq!(m.uart_output(), b"V");
    }

    #[test]
    fn reruns_are_byte_identical() {
        let prog = programs::mp_litmus();
        let mut a = GuestMachine::from_program(&prog);
        let mut b = GuestMachine::from_program(&prog);
        a.run(DEFAULT_STEP_BUDGET).unwrap();
        b.run(DEFAULT_STEP_BUDGET).unwrap();
        assert_eq!(save_container(&a), save_container(&b));
    }

    #[test]
    fn snapshot_mid_run_resumes_identically() {
        let prog = programs::mp_litmus();
        let mut whole = GuestMachine::from_program(&prog);
        whole.run(DEFAULT_STEP_BUDGET).unwrap();

        let mut cut = GuestMachine::from_program(&prog);
        for _ in 0..5 {
            cut.step_round();
        }
        let snap = save_container(&cut);
        let mut resumed: GuestMachine = restore_container(&snap).unwrap();
        resumed.run(DEFAULT_STEP_BUDGET).unwrap();
        assert_eq!(save_container(&resumed), save_container(&whole));
    }

    #[test]
    fn step_budget_is_an_error_not_a_hang() {
        // A guest that spins forever (jal to self).
        let mut asm = crate::asm::Asm::new(0x1_0000);
        let spin = asm.here();
        asm.jal(0, spin);
        let mut m = GuestMachine::new(1, 0x1_0000);
        m.bus.load_image(0x1_0000, &asm.assemble());
        assert_eq!(m.run(100), Err(GuestError::StepBudget { budget: 100 }));
    }

    #[test]
    fn workload_packaging_carries_traces_and_pages() {
        let prog = programs::store_fault_victim();
        let mut m = GuestMachine::from_program(&prog);
        m.run(DEFAULT_STEP_BUDGET).unwrap();
        let wl = m.to_workload(prog.name, prog.einject_pages.clone());
        assert_eq!(wl.traces.len(), prog.harts);
        assert_eq!(wl.einject_pages, prog.einject_pages);
        assert!(wl.total_instructions() > 0);
    }
}
