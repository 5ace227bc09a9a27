//! End-to-end guest runs: real RV64 machine code through the `ise-isa`
//! frontend, lowered traces through the assembled Fig. 4 timing model.
//!
//! The frontend executes a checked-in [`GuestProgram`] functionally
//! (fetch/decode/execute with RISC-V trap semantics), emitting one
//! value-resolved trace [`ise_types::instr::Instruction`] per retired
//! guest instruction. This module packages those traces as a
//! [`Workload`](ise_workloads::Workload), arms the program's EInject pages, and replays the
//! traces on the timing [`System`] — so a guest store into the armed
//! window retires, faults post-retirement at the LLC↔memory boundary,
//! and recovers through the real FSB/handler path.
//!
//! The run's surface is a merged telemetry registry: the guest plane
//! (final register files, trap/halt/MMIO tallies, UART output) followed
//! by the timing plane ([`SystemStats::to_registry`]). Both planes are
//! pure functions of the program image, so the rendered registry is
//! byte-identical across clock modes, worker counts, and mid-run
//! snapshot/restore cuts — the golden contract the `pinned-binaries` CI
//! job and the `guest_golden` test pin.

use crate::invariants;
use crate::system::{System, SystemStats};
use ise_engine::Cycle;
use ise_isa::machine::{GuestEventKind, DEFAULT_STEP_BUDGET};
use ise_isa::{GuestMachine, GuestProgram};
use ise_telemetry::{Registry, TraceEventKind};
use ise_types::config::SystemConfig;
use ise_types::json::Json;
use ise_types::InstrKind;

/// Cycle budget for one guest program on the timing model. The
/// checked-in guests retire a few hundred instructions; a run still
/// going after this many cycles is a finding.
pub const GUEST_MAX_CYCLES: Cycle = 5_000_000;

/// One guest program run end to end: frontend pre-run plus timing
/// replay, projected onto the planes the golden checks compare.
#[derive(Debug)]
pub struct GuestRun {
    /// The halted frontend machine (register files, bus, event log).
    pub machine: GuestMachine,
    /// Timing-model statistics for the replayed traces.
    pub stats: SystemStats,
    /// The merged guest+timing registry (guest plane first).
    pub registry: Registry,
    /// [`GuestRun::registry`], rendered — the byte-compared golden
    /// surface.
    pub registry_json: String,
    /// Every finding of the shared post-run audit, then any functional
    /// memory word that disagrees with the frontend's resolved value
    /// (empty on a healthy run).
    pub violations: Vec<String>,
}

/// The timing configuration guest programs run under: the paper's
/// ISCA '23 machine shrunk to a 2×2 mesh (the checked-in guests use at
/// most two harts).
pub fn guest_config() -> SystemConfig {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 2;
    cfg
}

/// The guest plane of the registry: everything the frontend pre-run
/// determined, in a fixed key order.
pub fn guest_registry(machine: &GuestMachine) -> Registry {
    let mut reg = Registry::new();
    reg.add("guest_steps", machine.steps);
    reg.add("guest_harts", machine.harts.len() as u64);
    reg.put(
        "guest_retired",
        Json::arr(machine.traces.iter().map(|t| Json::from(t.len()))),
    );
    let mut traps = 0u64;
    let mut halts = 0u64;
    let mut mmio = 0u64;
    for e in &machine.events {
        match e.kind {
            GuestEventKind::Trap(_) => traps += 1,
            GuestEventKind::Halt(_) => halts += 1,
            GuestEventKind::Mmio(_) => mmio += 1,
        }
    }
    reg.add("guest_traps", traps);
    reg.add("guest_halts", halts);
    reg.add("guest_mmio", mmio);
    reg.put(
        "guest_uart",
        Json::str(String::from_utf8_lossy(machine.uart_output()).into_owned()),
    );
    reg.put(
        "guest_regs",
        Json::arr(
            machine
                .harts
                .iter()
                .map(|h| Json::arr((0u8..32).map(|r| Json::from(h.x(r))))),
        ),
    );
    reg.put(
        "guest_pc",
        Json::arr(machine.harts.iter().map(|h| Json::from(h.pc))),
    );
    reg
}

/// Runs `prog` end to end under the clock selected by `skip`.
///
/// # Panics
///
/// Panics if the guest does not halt within [`DEFAULT_STEP_BUDGET`]
/// interleave rounds or the replay exceeds [`GUEST_MAX_CYCLES`].
pub fn run_guest_program(prog: &GuestProgram, skip: bool) -> GuestRun {
    run_guest_program_with_cut(prog, skip, None)
}

/// [`run_guest_program`] with an optional mid-run snapshot/restore cut:
/// the replay runs to `cut` cycles, snapshots, restores the snapshot
/// into a *fresh* system built from the same inputs, and finishes
/// there. The result must be byte-identical to an uninterrupted run —
/// the golden test pins exactly that.
pub fn run_guest_program_with_cut(prog: &GuestProgram, skip: bool, cut: Option<Cycle>) -> GuestRun {
    let mut machine = GuestMachine::from_program(prog);
    machine
        .run(DEFAULT_STEP_BUDGET)
        .expect("checked-in guest programs halt");
    let workload = machine.to_workload(prog.name, prog.einject_pages.clone());

    let cfg = guest_config();
    let mut sys = System::new(cfg, &workload).with_contract_monitor();
    // Surface the frontend's trap/MMIO log in the event trace (a no-op
    // branch when tracing is off). The pre-run precedes timing cycle 0.
    for e in &machine.events {
        let kind = match e.kind {
            GuestEventKind::Trap(t) | GuestEventKind::Halt(t) => {
                TraceEventKind::GuestTrap { cause: t.mcause() }
            }
            GuestEventKind::Mmio(m) => TraceEventKind::GuestMmio {
                write: m.write,
                addr: m.addr.raw(),
            },
        };
        sys.record_event(e.hart as u32, kind);
    }

    let stats = match cut {
        None => sys.run_clocked(GUEST_MAX_CYCLES, skip),
        Some(target) => {
            sys.run_to(target, skip);
            let snap = sys.snapshot();
            let mut resumed = System::new(cfg, &workload).with_contract_monitor();
            resumed
                .restore_from(&snap)
                .expect("snapshot restores into a same-input system");
            sys = resumed;
            sys.run_clocked(GUEST_MAX_CYCLES, skip)
        }
    };

    let mut violations = invariants::audit(&sys).all();
    // Every OS-applied store must have landed with the value the
    // frontend resolved: functional memory, where written, matches the
    // guest bus RAM byte for byte (the value-resolved lowering
    // contract — trace stores carry merged containing words).
    for trace in workload.traces.iter() {
        for ins in trace.iter() {
            if let InstrKind::Store { addr, value } = ins.kind {
                let timing = sys.memory().read(addr);
                if timing != 0 && timing != value {
                    // Zero means the store completed inside the caches
                    // and never reached functional memory; any other
                    // value must be a (possibly later) lowered word.
                    let newest = trace
                        .iter()
                        .filter_map(|i| match i.kind {
                            InstrKind::Store { addr: a, value: v } if a == addr => Some(v),
                            _ => None,
                        })
                        .last()
                        .unwrap_or(value);
                    if timing != newest {
                        violations.push(format!(
                            "functional memory at {addr:?} holds {timing:#x}, frontend \
                             resolved {newest:#x}"
                        ));
                    }
                }
            }
        }
    }

    let mut registry = guest_registry(&machine);
    registry.merge(&stats.to_registry());
    let registry_json = registry.render();
    GuestRun {
        machine,
        stats,
        registry,
        registry_json,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_isa::programs;

    #[test]
    fn mp_litmus_replays_cleanly() {
        let run = run_guest_program(&programs::mp_litmus(), true);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        // The forbidden outcome: hart 1 saw the flag but stale data.
        assert_eq!(run.machine.harts[1].x(10), 42);
        assert_eq!(run.stats.imprecise_exceptions, 0);
        assert_eq!(run.stats.killed, 0);
    }

    #[test]
    fn victim_faults_post_retirement_and_recovers() {
        let prog = programs::store_fault_victim();
        let run = run_guest_program(&prog, true);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(
            run.stats.imprecise_exceptions > 0,
            "armed pages must fault imprecisely"
        );
        assert!(run.stats.faulting_stores > 0);
        assert!(run.stats.stores_applied >= run.stats.faulting_stores);
        assert_eq!(run.stats.killed, 0, "recovery must not kill the process");
        // The OS-applied stores landed with the frontend-resolved value.
        let base = ise_types::addr::Addr::new(ise_workloads::layout::EINJECT_BASE);
        assert_eq!(run.stats.pages_resolved, prog.einject_pages.len() as u64);
        assert_eq!(run.machine.uart_output(), b"V");
        assert_eq!(run.machine.bus.ram.read(base), sys_mem_value(&run, base));
    }

    fn sys_mem_value(run: &GuestRun, addr: ise_types::addr::Addr) -> u64 {
        // The victim's first store to the armed page is OS-applied, so
        // functional memory holds the frontend value (0xa5).
        assert_eq!(run.machine.bus.ram.read(addr), 0xa5);
        0xa5
    }

    #[test]
    fn both_clocks_render_identical_registries() {
        let prog = programs::store_fault_victim();
        let a = run_guest_program(&prog, false);
        let b = run_guest_program(&prog, true);
        assert_eq!(a.registry_json, b.registry_json);
    }

    #[test]
    fn snapshot_cut_is_invisible_in_the_registry() {
        let prog = programs::store_fault_victim();
        let whole = run_guest_program(&prog, true);
        let cut = run_guest_program_with_cut(&prog, true, Some(200));
        assert!(cut.violations.is_empty(), "{:?}", cut.violations);
        assert_eq!(whole.registry_json, cut.registry_json);
    }
}
