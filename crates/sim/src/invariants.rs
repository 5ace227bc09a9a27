//! The shared invariant set for fault campaigns (chaos, fuzz, adversary).
//!
//! Three layers, each returning human-readable violation strings in a
//! deterministic order (empty = all held):
//!
//! * [`standard_violations`] — the original chaos-campaign trio: store
//!   conservation on surviving cores, every FSB ring drained, and the
//!   Table 5 ordering contract.
//! * [`containment_violations`] — the recovery-path containment checks
//!   the adversary campaign added: the GET stream of every core's FSB is
//!   a prefix of its PUT stream (no cross-process value leak through a
//!   shared ring), kill paths leave no store unaccounted (killed-core
//!   conservation closes through the discard ledger), and post-recovery
//!   telemetry conserves store counts across its three independent
//!   tallies.
//! * [`applied_visibility_violations`] — the architectural-corruption
//!   audit: for every address, the *last* `S_OS` the kernel recorded
//!   must actually be visible (mask-aware) in final functional memory.
//!   Tautological for an honest kernel, which writes memory before
//!   recording the event; it fires exactly when a kernel *lies* — e.g.
//!   the unhardened recovery config that silently drops a store on retry
//!   exhaustion while still reporting it applied.
//!
//! The functions take the post-run [`System`] (plus the workload/stats
//! where needed) rather than doing their own bookkeeping, so every
//! campaign audits the same state the run actually produced.

use crate::system::{System, SystemStats};
use ise_core::OrderEvent;
use ise_types::addr::{Addr, ByteMask};
use ise_types::CoreId;
use ise_workloads::Workload;
use std::collections::{BTreeMap, HashMap};

/// The original chaos-campaign invariants: store conservation on
/// surviving cores, FSB rings drained, ordering contract.
///
/// # Panics
///
/// Panics if the system was built without a contract monitor.
pub fn standard_violations(sys: &System, workload: &Workload, stats: &SystemStats) -> Vec<String> {
    let mut violations = Vec::new();
    // 1. Store conservation on surviving cores.
    for (i, trace) in workload.traces.iter().enumerate() {
        if sys.process_killed(i) {
            continue;
        }
        let retired_stores = trace.stores() as u64;
        let accounted =
            sys.cores()[i].sb_drained() + sys.cores()[i].sb_coalesced() + stats.applied_per_core[i];
        if retired_stores != accounted {
            violations.push(format!(
                "core {i}: {retired_stores} stores retired but {accounted} accounted \
                 (drained {} + coalesced {} + os-applied {})",
                sys.cores()[i].sb_drained(),
                sys.cores()[i].sb_coalesced(),
                stats.applied_per_core[i],
            ));
        }
    }
    // 2. Every FSB drained to head == tail.
    if !sys.fsbs_empty() {
        violations.push("an FSB ring ended with head != tail".to_string());
    }
    // 3. The ordering contract for the run's consistency model.
    if let Err(v) = sys.check_contract() {
        violations.push(format!("ordering contract violated: {v:?}"));
    }
    violations
}

/// The recovery-path containment invariants (see module docs). All three
/// hold on every legal run, hardened or not — a violation means a
/// recovery path mishandled state, not merely that a fault occurred.
pub fn containment_violations(sys: &System, stats: &SystemStats) -> Vec<String> {
    let mut violations = Vec::new();
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
    violations
}

/// The applied-visibility audit: every address's *last* recorded `S_OS`
/// must be visible, mask-aware, in final functional memory. Returns one
/// violation per corrupted address, in address order. Empty when the
/// system has no contract monitor (nothing to audit against).
pub fn applied_visibility_violations(sys: &System) -> Vec<String> {
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
    let mut violations = Vec::new();
    for (addr, (data, mask)) in &last_claim {
        let got = sys.memory().read(*addr);
        if mask.merge(0, got) != mask.merge(0, *data) {
            violations.push(format!(
                "applied store not visible: S_OS recorded at {:#x} claiming {:#x} \
                 (mask {:#04x}) but memory holds {got:#x}",
                addr.raw(),
                data,
                mask.bits()
            ));
        }
    }
    violations
}

/// All three layers concatenated, in severity-stable order — the full
/// invariant set every adversary objective evaluation runs.
pub fn all_violations(sys: &System, workload: &Workload, stats: &SystemStats) -> Vec<String> {
    let mut v = standard_violations(sys, workload, stats);
    v.extend(containment_violations(sys, stats));
    v.extend(applied_visibility_violations(sys));
    v
}
