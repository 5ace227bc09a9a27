//! The one post-run audit every fault campaign applies: chaos cells,
//! adversary evaluations, litmus `--sim` runs and guest replays.
//!
//! [`run_audited`] runs a built [`System`] to its cycle budget,
//! finalizes it and, unless the budget cut it short, calls [`audit`]. A
//! timed-out run is reported, not audited: mid-flight state legitimately
//! violates end-of-run conservation. Callers that drive the clock
//! themselves (the guest's snapshot cut) finalize and call [`audit`]
//! directly.
//!
//! The audit reads the consistency model and the workload from the
//! system and checks, in this order:
//!
//! 1. **Completion** — every instruction retired, unless a process was
//!    killed.
//! 2. **Store conservation** — for every surviving core, each store its
//!    trace retires is drained to memory, coalesced in the store buffer
//!    or applied by the OS. (Discarding a killed process's stores is the
//!    documented outcome of an irrecoverable fault.)
//! 3. **FSB drained** — every ring ends with head == tail.
//! 4. **Ordering contract** — the recorded DETECT/PUT/GET/S_OS/RESOLVE
//!    stream satisfies the Table 5 axioms for the run's model.
//! 5. **Containment** — each core's FSB GET stream is a prefix of its
//!    PUT stream (no cross-process value leak through a shared ring),
//!    killed-core conservation closes through the discard ledger, and
//!    the stats, per-core and kernel store tallies agree.
//! 6. **Applied visibility** — for every address, the *last* `S_OS` the
//!    kernel recorded is visible (mask-aware) in final functional
//!    memory. Tautological for an honest kernel, which writes memory
//!    before recording the event; it fires exactly when a kernel *lies*,
//!    e.g. the unhardened recovery config that silently drops a store on
//!    retry exhaustion while still reporting it applied. Its findings
//!    are [`Audit::corruption`], kept apart from the rest because the
//!    adversary's Corrupt objective scores them.
//!
//! Conservation and containment count store-buffer traffic, so both are
//! skipped under a model without a store buffer (SC), where stores
//! complete through the caches and those terms are structurally zero.

use crate::system::{System, SystemStats};
use ise_core::OrderEvent;
use ise_engine::Cycle;
use ise_types::addr::{Addr, ByteMask};
use ise_types::CoreId;
use std::collections::{BTreeMap, HashMap};

/// What the audit of one completed run found (both lists empty = every
/// invariant held).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Audit {
    /// Completion, conservation, FSB, contract and containment
    /// violations, in check order.
    pub violations: Vec<String>,
    /// Applied-visibility findings, one per corrupted address in address
    /// order (non-empty = architectural corruption).
    pub corruption: Vec<String>,
}

impl Audit {
    /// Every finding, violations first.
    pub fn all(mut self) -> Vec<String> {
        self.violations.append(&mut self.corruption);
        self.violations
    }
}

/// One run to its budget, finalized and (unless cut short) audited.
#[derive(Debug, Clone)]
pub struct AuditedRun {
    /// The finalized statistics.
    pub stats: SystemStats,
    /// The run exhausted its cycle budget; its [`Audit`] is then empty.
    pub timed_out: bool,
    /// The post-run audit.
    pub audit: Audit,
}

/// Runs `sys` until it completes or reaches `max_cycles` on the clock
/// `skip` selects, finalizes it and audits it unless it timed out.
///
/// # Panics
///
/// Panics if the system was built without a contract monitor and the
/// run completed.
pub fn run_audited(sys: &mut System, max_cycles: Cycle, skip: bool) -> AuditedRun {
    let timed_out = !sys.run_to(max_cycles, skip);
    let stats = sys.finalize();
    let audit = if timed_out {
        Audit::default()
    } else {
        audit(sys)
    };
    AuditedRun {
        stats,
        timed_out,
        audit,
    }
}

/// Audits a finalized run (see the module docs for the checks).
///
/// # Panics
///
/// Panics if the system has not been finalized or was built without a
/// contract monitor.
pub fn audit(sys: &System) -> Audit {
    let stats = sys.stats();
    let workload = sys.workload();
    let buffered = sys.model().has_store_buffer();
    let mut violations = Vec::new();
    if stats.retired() != workload.total_instructions() as u64 && stats.killed == 0 {
        violations.push(format!(
            "run did not complete: {} of {} instructions retired in {} cycles",
            stats.retired(),
            workload.total_instructions(),
            stats.cycles,
        ));
    }
    if buffered {
        conservation(sys, stats, &mut violations);
    }
    if !sys.fsbs_empty() {
        violations.push("an FSB ring ended with head != tail".to_string());
    }
    if let Err(v) = sys.check_contract() {
        violations.push(format!("ordering contract violated: {v:?}"));
    }
    if buffered {
        containment(sys, stats, &mut violations);
    }
    Audit {
        violations,
        corruption: applied_visibility(sys),
    }
}

/// Store conservation on surviving cores.
fn conservation(sys: &System, stats: &SystemStats, violations: &mut Vec<String>) {
    for (i, trace) in sys.workload().traces.iter().enumerate() {
        if sys.process_killed(i) {
            continue;
        }
        let retired_stores = trace.stores() as u64;
        let core = &sys.cores()[i];
        let accounted = core.sb_drained() + core.sb_coalesced() + stats.applied_per_core[i];
        if retired_stores != accounted {
            violations.push(format!(
                "core {i}: {retired_stores} stores retired but {accounted} accounted \
                 (drained {} + coalesced {} + os-applied {})",
                core.sb_drained(),
                core.sb_coalesced(),
                stats.applied_per_core[i],
            ));
        }
    }
}

/// The recovery-path containment checks. All three hold on every legal
/// run, hardened or not: a violation means a recovery path mishandled
/// state, not merely that a fault occurred.
fn containment(sys: &System, stats: &SystemStats, violations: &mut Vec<String>) {
    // 1. No cross-process value leak through a shared FSB: each core's
    //    GET stream is a prefix of its PUT stream. (Kill paths pop the
    //    drained remainder without recording GETs, so a strict prefix is
    //    legal; a divergent or over-long GET stream means the OS read an
    //    entry some other process supplied.)
    if let Some(log) = sys.contract_log() {
        let mut puts: HashMap<CoreId, Vec<_>> = HashMap::new();
        let mut gets: HashMap<CoreId, Vec<_>> = HashMap::new();
        for e in log {
            match e {
                OrderEvent::Put { core, entry } => puts.entry(*core).or_default().push(*entry),
                OrderEvent::Get { core, entry } => gets.entry(*core).or_default().push(*entry),
                _ => {}
            }
        }
        for i in 0..sys.cores().len() {
            let core = CoreId(i);
            let put = puts.get(&core).map(Vec::as_slice).unwrap_or(&[]);
            let get = gets.get(&core).map(Vec::as_slice).unwrap_or(&[]);
            if get.len() > put.len() {
                violations.push(format!(
                    "core {i}: {} FSB entries retrieved but only {} supplied",
                    get.len(),
                    put.len()
                ));
            } else if let Some(k) = (0..get.len()).find(|&k| get[k] != put[k]) {
                violations.push(format!(
                    "core {i}: FSB GET stream diverges from its PUT stream at index {k}"
                ));
            }
        }
    }
    // 2. Killed-core conservation: every store ever retired into a store
    //    buffer is drained, coalesced, OS-applied, discarded by a kill
    //    path, or still buffered — on *every* core, and the discard
    //    ledger is only ever used on killed ones.
    for (i, core) in sys.cores().iter().enumerate() {
        let discarded = sys.discarded_per_core()[i];
        let accounted = core.sb_drained()
            + core.sb_coalesced()
            + stats.applied_per_core[i]
            + discarded
            + core.sb_len() as u64;
        if core.sb_retired() != accounted {
            violations.push(format!(
                "core {i}: {} stores retired into the buffer but {accounted} accounted \
                 (drained {} + coalesced {} + os-applied {} + discarded {discarded} + buffered {})",
                core.sb_retired(),
                core.sb_drained(),
                core.sb_coalesced(),
                stats.applied_per_core[i],
                core.sb_len(),
            ));
        }
        if discarded > 0 && !sys.process_killed(i) {
            violations.push(format!(
                "core {i}: {discarded} stores discarded but the process survived"
            ));
        }
    }
    // 3. Telemetry conserves store counts: the stats surface, the
    //    per-core ledger, and the kernel's own tally must agree — and
    //    kill decisions must match killed processes one-to-one (the
    //    idempotent-kill guarantee).
    let per_core: u64 = stats.applied_per_core.iter().sum();
    let kernel = sys.os_kernel().stores_applied();
    if stats.stores_applied != per_core || stats.stores_applied != kernel {
        violations.push(format!(
            "telemetry store counts diverge: stats {} vs per-core {per_core} vs kernel {kernel}",
            stats.stores_applied
        ));
    }
    if stats.killed != sys.os_kernel().processes_killed() {
        violations.push(format!(
            "kill accounting diverges: {} processes killed but the kernel recorded {} kills",
            stats.killed,
            sys.os_kernel().processes_killed()
        ));
    }
}

/// The applied-visibility audit: every address's *last* recorded `S_OS`
/// must be visible, mask-aware, in final functional memory. Returns one
/// finding per corrupted address, in address order.
fn applied_visibility(sys: &System) -> Vec<String> {
    let Some(log) = sys.contract_log() else {
        return Vec::new();
    };
    // Pair each S_OS with the nearest preceding GET on its core (the
    // entry carries the data/mask the kernel claimed to apply); the last
    // claim per address, in log order, is the one memory must show.
    let mut last_get: HashMap<CoreId, (Addr, u64, ByteMask)> = HashMap::new();
    let mut last_claim: BTreeMap<Addr, (u64, ByteMask)> = BTreeMap::new();
    for e in log {
        match e {
            OrderEvent::Get { core, entry } => {
                last_get.insert(*core, (entry.addr, entry.data, entry.mask));
            }
            OrderEvent::Sos { core, addr } => {
                if let Some(&(gaddr, data, mask)) = last_get.get(core) {
                    if gaddr == *addr {
                        last_claim.insert(*addr, (data, mask));
                    }
                }
            }
            _ => {}
        }
    }
    let mut corruption = Vec::new();
    for (addr, (data, mask)) in &last_claim {
        let got = sys.memory().read(*addr);
        if mask.merge(0, got) != mask.merge(0, *data) {
            corruption.push(format!(
                "applied store not visible: S_OS recorded at {:#x} claiming {:#x} \
                 (mask {:#04x}) but memory holds {got:#x}",
                addr.raw(),
                data,
                mask.bits()
            ));
        }
    }
    corruption
}
