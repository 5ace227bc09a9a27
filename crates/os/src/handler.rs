//! The imprecise store exception handler.

use crate::paging::IoScheduler;
use ise_core::{ContractMonitor, FaultResolver, Fsb, OrderEvent};
use ise_engine::Cycle;
use ise_mem::FlatMemory;
use ise_types::config::OsCostConfig;
use ise_types::exception::{ErrorCode, ExceptionKind};
use ise_types::json::{Json, ToJson};
use ise_types::{CoreId, FaultingStoreEntry, PageId, SimError};
use std::collections::HashSet;

/// The Fig. 5 cost decomposition of one handler invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverheadBreakdown {
    /// Microarchitectural cycles (FSB drain + pipeline flush) — charged
    /// by the FSBC, folded in here by the caller for reporting.
    pub uarch: Cycle,
    /// Cycles spent applying faulting stores (`S_OS`).
    pub apply: Cycle,
    /// Everything else the OS does: dispatch, context switch, cause
    /// resolution.
    pub other_os: Cycle,
}

impl OverheadBreakdown {
    /// Total cycles.
    pub fn total(&self) -> Cycle {
        self.uarch + self.apply + self.other_os
    }

    /// Per-store average over `n` faulting stores.
    pub fn per_store(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.total() as f64 / n as f64
        }
    }

    /// Element-wise sum.
    pub fn merge(&mut self, other: &OverheadBreakdown) {
        self.uarch += other.uarch;
        self.apply += other.apply;
        self.other_os += other.other_os;
    }
}

impl ToJson for OverheadBreakdown {
    fn to_json(&self) -> Json {
        Json::obj([
            ("uarch", Json::from(self.uarch)),
            ("apply", Json::from(self.apply)),
            ("other_os", Json::from(self.other_os)),
        ])
    }
}

impl ise_types::persist::Persist for OverheadBreakdown {
    fn save(&self, w: &mut ise_types::persist::Writer) {
        w.u64(self.uarch);
        w.u64(self.apply);
        w.u64(self.other_os);
    }

    fn restore(
        r: &mut ise_types::persist::Reader,
    ) -> Result<Self, ise_types::persist::PersistError> {
        Ok(OverheadBreakdown {
            uarch: r.u64()?,
            apply: r.u64()?,
            other_os: r.u64()?,
        })
    }
}

/// The result of one handler invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandlerOutcome {
    /// Cycle at which the interrupted program may resume.
    pub resume_at: Cycle,
    /// Stores applied to memory.
    pub applied: usize,
    /// Distinct faulting pages resolved.
    pub pages_resolved: usize,
    /// Cost decomposition (OS parts only; add the FSBC receipt's µarch
    /// cycles for the full Fig. 5 bar).
    pub breakdown: OverheadBreakdown,
    /// Whether the exception was irrecoverable and the process was
    /// terminated (remaining faulting stores discarded, §5.3).
    pub terminated: bool,
    /// FSB entries discarded by this invocation's kill path: the
    /// triggering entry plus the drained remainder. Zero unless
    /// `terminated`.
    pub discarded: usize,
    /// Demand-paging IO cycles overlapped within this invocation (zero
    /// unless [`OsKernel::with_demand_paging_io`] is enabled).
    pub io_cycles: Cycle,
}

/// The OS kernel model.
#[derive(Debug, Clone)]
pub struct OsKernel {
    costs: OsCostConfig,
    /// When set, each resolved page schedules a demand-paging IO of this
    /// latency; IOs within one invocation overlap (§5.3 batching).
    demand_io: Option<IoScheduler>,
    invocations: u64,
    stores_applied: u64,
    faulting_applied: u64,
    pages_resolved: u64,
    processes_killed: u64,
    transient_retries: u64,
    transient_recovered: u64,
    backoff_cycles: u64,
    retry_exhausted: u64,
    kill_discarded: u64,
    silently_dropped: u64,
    continuation_invocations: u64,
    continuation_dispatch_cycles: u64,
}

/// Backoff before retry number `attempt` (1-based): exponential from
/// `retry_backoff_base`, saturating at `u64::MAX` instead of shifting
/// past the value's width (an attacker-chosen base/budget pair must not
/// overflow into a *tiny* backoff, and a shift ≥ 64 is outright UB).
/// With [`OsCostConfig::hardened`] set, a deterministic
/// per-(core, addr, attempt) jitter in `[0, base)` is added so that
/// colliding victims do not re-issue in lockstep.
///
/// Public so exact-cycle tests and the adversary's objective scoring can
/// compute the same ladder the kernel charges.
pub fn retry_backoff(
    costs: &OsCostConfig,
    core: CoreId,
    addr: ise_types::addr::Addr,
    attempt: u32,
) -> Cycle {
    let base = costs.retry_backoff_base;
    let shift = attempt.saturating_sub(1);
    let exp = if base == 0 {
        0
    } else if shift > base.leading_zeros() {
        u64::MAX
    } else {
        base << shift
    };
    if costs.hardened && base > 0 {
        exp.saturating_add(backoff_jitter(core, addr, attempt) % base)
    } else {
        exp
    }
}

/// Deterministic jitter hash (splitmix64 finalizer over the retry
/// coordinates). No RNG state: the same (core, addr, attempt) always
/// jitters identically, keeping every differential leg byte-stable.
fn backoff_jitter(core: CoreId, addr: ise_types::addr::Addr, attempt: u32) -> u64 {
    let mut x = (core.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ addr.raw().rotate_left(17)
        ^ u64::from(attempt).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

impl OsKernel {
    /// Creates a kernel with the given cost parameters.
    pub fn new(costs: OsCostConfig) -> Self {
        OsKernel {
            costs,
            demand_io: None,
            invocations: 0,
            stores_applied: 0,
            faulting_applied: 0,
            pages_resolved: 0,
            processes_killed: 0,
            transient_retries: 0,
            transient_recovered: 0,
            backoff_cycles: 0,
            retry_exhausted: 0,
            kill_discarded: 0,
            silently_dropped: 0,
            continuation_invocations: 0,
            continuation_dispatch_cycles: 0,
        }
    }

    /// Enables demand-paging IO: resolving a faulting page schedules a
    /// page-in of `io_latency` cycles on the backing device. All page-ins
    /// of one handler invocation are submitted back to back and overlap —
    /// the paper's §5.3 batching argument ("the OS can schedule multiple
    /// IO requests for all the faulting stores covered by the exception").
    ///
    /// # Panics
    ///
    /// Panics if `io_latency` is zero.
    pub fn with_demand_paging_io(mut self, io_latency: Cycle) -> Self {
        self.demand_io = Some(IoScheduler::new(io_latency));
        self
    }

    /// Demand-paging IOs issued so far (zero unless enabled).
    pub fn ios_issued(&self) -> u64 {
        self.demand_io.as_ref().map_or(0, |s| s.ios_issued())
    }

    /// Handler invocations so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Stores applied so far (faulting + same-stream companions).
    pub fn stores_applied(&self) -> u64 {
        self.stores_applied
    }

    /// Applied stores that were actually faulting: a nonzero error code,
    /// or a target page still marked faulting when applied (a same-stream
    /// companion whose own drain would also have been denied).
    pub fn faulting_applied(&self) -> u64 {
        self.faulting_applied
    }

    /// Pages resolved so far.
    pub fn pages_resolved(&self) -> u64 {
        self.pages_resolved
    }

    /// Processes terminated on irrecoverable exceptions.
    pub fn processes_killed(&self) -> u64 {
        self.processes_killed
    }

    /// Kernel store re-issues that still found the cause present and
    /// backed off (transient bus errors).
    pub fn transient_retries(&self) -> u64 {
        self.transient_retries
    }

    /// Stores that eventually applied after at least one retry — the
    /// recovery path working as intended.
    pub fn transient_recovered(&self) -> u64 {
        self.transient_recovered
    }

    /// Total backoff cycles charged across all retries (the adversary's
    /// objective-3 damage metric).
    pub fn backoff_cycles(&self) -> Cycle {
        self.backoff_cycles
    }

    /// Stores whose full retry budget ran dry, regardless of whether the
    /// kernel then killed the process or (unhardened) dropped the store.
    pub fn retry_exhausted(&self) -> u64 {
        self.retry_exhausted
    }

    /// FSB entries discarded by kill paths: the triggering entry plus the
    /// drained remainder of each killed episode.
    pub fn kill_discarded(&self) -> u64 {
        self.kill_discarded
    }

    /// Stores the *unhardened* kernel silently counted as applied after
    /// retry exhaustion without ever writing memory. Always zero with
    /// [`OsCostConfig::hardened`] set. Deliberately
    /// not exported to telemetry — the lie is consistent there; only the
    /// applied-visibility audit (and this accessor, for tests) sees it.
    pub fn silently_dropped(&self) -> u64 {
        self.silently_dropped
    }

    /// Early-drain continuation chunks handled (invocations past the
    /// first chunk of an episode).
    pub fn continuation_invocations(&self) -> u64 {
        self.continuation_invocations
    }

    /// Dispatch cycles charged to continuation chunks — the adversary's
    /// objective-2 stall metric, and the quantity
    /// [`OsCostConfig::hardened`] shrinks 8×.
    pub fn continuation_dispatch_cycles(&self) -> Cycle {
        self.continuation_dispatch_cycles
    }

    /// Exports the kernel's handler counters into the shared telemetry
    /// registry under the `os.` prefix.
    pub fn export_telemetry(&self, reg: &mut ise_telemetry::Registry) {
        reg.add("os.invocations", self.invocations);
        reg.add("os.stores_applied", self.stores_applied);
        reg.add("os.faulting_applied", self.faulting_applied);
        reg.add("os.pages_resolved", self.pages_resolved);
        reg.add("os.processes_killed", self.processes_killed);
        reg.add("os.transient_retries", self.transient_retries);
        reg.add("os.transient_recovered", self.transient_recovered);
        reg.add("os.backoff_cycles", self.backoff_cycles);
        reg.add("os.retry_exhausted", self.retry_exhausted);
        reg.add("os.kill_discarded", self.kill_discarded);
        reg.add("os.continuation_invocations", self.continuation_invocations);
        reg.add(
            "os.continuation_dispatch_cycles",
            self.continuation_dispatch_cycles,
        );
        reg.add("os.ios_issued", self.ios_issued());
    }

    /// Saves the kernel's dynamic state under an `OSKN` section: every
    /// handler counter plus the demand-paging device's issue counter.
    /// The cost configuration and the IO device's latency are rebuilt by
    /// the embedder; the saved IO-presence flag is validated against that
    /// reconstruction on restore.
    pub fn save_state(&self, w: &mut ise_types::persist::Writer) {
        w.section(*b"OSKN", |w| {
            w.bool(self.demand_io.is_some());
            if let Some(io) = &self.demand_io {
                io.save_state(w);
            }
            w.u64(self.invocations);
            w.u64(self.stores_applied);
            w.u64(self.faulting_applied);
            w.u64(self.pages_resolved);
            w.u64(self.processes_killed);
            w.u64(self.transient_retries);
            w.u64(self.transient_recovered);
            w.u64(self.backoff_cycles);
            w.u64(self.retry_exhausted);
            w.u64(self.kill_discarded);
            w.u64(self.silently_dropped);
            w.u64(self.continuation_invocations);
            w.u64(self.continuation_dispatch_cycles);
        });
    }

    /// Restores the kernel's counters in place. The kernel must have been
    /// built with the same cost configuration (and the same
    /// [`OsKernel::with_demand_paging_io`] choice) as the snapshot.
    pub fn restore_state(
        &mut self,
        r: &mut ise_types::persist::Reader,
    ) -> Result<(), ise_types::persist::PersistError> {
        use ise_types::persist::PersistError;
        r.section(*b"OSKN", |r| {
            let has_io = r.bool()?;
            if has_io != self.demand_io.is_some() {
                return Err(PersistError::Corrupt("demand-IO configuration mismatch"));
            }
            if let Some(io) = self.demand_io.as_mut() {
                io.restore_state(r)?;
            }
            self.invocations = r.u64()?;
            self.stores_applied = r.u64()?;
            self.faulting_applied = r.u64()?;
            self.pages_resolved = r.u64()?;
            self.processes_killed = r.u64()?;
            self.transient_retries = r.u64()?;
            self.transient_recovered = r.u64()?;
            self.backoff_cycles = r.u64()?;
            self.retry_exhausted = r.u64()?;
            self.kill_discarded = r.u64()?;
            self.silently_dropped = r.u64()?;
            self.continuation_invocations = r.u64()?;
            self.continuation_dispatch_cycles = r.u64()?;
            Ok(())
        })
    }

    /// Handles one imprecise store exception for `core`, starting at
    /// `now` (which should already include the FSBC drain receipt's
    /// `ready_at`).
    ///
    /// Implements §6.2's minimal handler: for each FSB entry, mark the
    /// corresponding EInject page non-faulting, perform the store with a
    /// normal store instruction (functionally: write `mem`), and
    /// increment the head pointer; repeat until head catches tail.
    /// Entries whose error code is [`irrecoverable`](ExceptionKind) kill
    /// the process: remaining stores are discarded. A store whose
    /// re-issue is *still* denied after resolution (a transient bus
    /// error) is retried with exponential backoff; exhausting the budget
    /// also kills the process.
    ///
    /// Events are recorded into `monitor` (GET, S_OS, RESOLVE) when one is
    /// supplied, so the Table 5 contract can be audited after the run.
    pub fn handle_imprecise(
        &mut self,
        core: CoreId,
        fsb: &mut Fsb,
        resolver: &dyn FaultResolver,
        mem: &mut FlatMemory,
        now: Cycle,
        monitor: Option<&mut ContractMonitor>,
    ) -> HandlerOutcome {
        self.handle_imprecise_chunk(core, fsb, resolver, mem, now, monitor, false)
    }

    /// [`handle_imprecise`](Self::handle_imprecise) with explicit chunk position: `continuation`
    /// marks an invocation past the first chunk of one early-drain
    /// episode. With [`OsCostConfig::hardened`] set,
    /// continuations re-enter through a warm handler path and pay only
    /// `dispatch_overhead / 8` — the episode state is already pinned, so
    /// the full dispatch/context-switch bill would be pure stall
    /// amplification for an attacker who forces many tiny chunks.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_imprecise_chunk(
        &mut self,
        core: CoreId,
        fsb: &mut Fsb,
        resolver: &dyn FaultResolver,
        mem: &mut FlatMemory,
        now: Cycle,
        mut monitor: Option<&mut ContractMonitor>,
        continuation: bool,
    ) -> HandlerOutcome {
        self.invocations += 1;
        let dispatch = if continuation && self.costs.hardened {
            self.costs.dispatch_overhead / 8
        } else {
            self.costs.dispatch_overhead
        };
        if continuation {
            self.continuation_invocations += 1;
            self.continuation_dispatch_cycles += dispatch;
        }
        let mut t = now + dispatch;
        let mut breakdown = OverheadBreakdown {
            uarch: 0,
            apply: 0,
            other_os: dispatch,
        };
        let mut applied = 0usize;
        let mut resolved_pages: HashSet<PageId> = HashSet::new();
        let mut terminated = false;
        let mut discarded = 0usize;

        while let Some(entry) = fsb.pop_head() {
            if let Some(m) = monitor.as_deref_mut() {
                m.record(OrderEvent::Get { core, entry });
            }
            if entry.error == ExceptionKind::SegmentationFault.error_code()
                || entry.error == ExceptionKind::MachineCheck.error_code()
            {
                // Irrecoverable: terminate; discard the rest (§5.3).
                terminated = true;
                self.processes_killed += 1;
                discarded += 1;
                while fsb.pop_head().is_some() {
                    discarded += 1;
                }
                break;
            }
            // Resolve the cause once per distinct page. Entries with a
            // zero error code were drained alongside a faulting store
            // (same-stream) — their target page may nonetheless be
            // faulting, and applying them with a normal kernel store
            // would fault precisely, so the kernel resolves first.
            let page = entry.addr.page();
            let was_faulting = entry.error != ErrorCode(0) || resolver.is_faulting(entry.addr);
            if was_faulting {
                self.faulting_applied += 1;
                if resolved_pages.insert(page) {
                    resolver.resolve(entry.addr);
                    t += self.costs.resolve_per_page;
                    breakdown.other_os += self.costs.resolve_per_page;
                }
            }
            // Apply the store in retrieved order (Table 5 rule 3). The
            // kernel's store is itself a memory access: if the cause is
            // still present (a transient bus error resolution cannot
            // clear), retry with exponential backoff before giving up.
            match self.apply_with_retry(core, &entry, resolver, mem, &mut t, &mut breakdown) {
                Ok(()) => {
                    applied += 1;
                    self.stores_applied += 1;
                    if let Some(m) = monitor.as_deref_mut() {
                        m.record(OrderEvent::Sos {
                            core,
                            addr: entry.addr,
                        });
                    }
                }
                Err(_) => {
                    // Retry budget exhausted (or the re-issue came back
                    // irrecoverable): the store cannot be made visible,
                    // so the process dies rather than lose it silently.
                    terminated = true;
                    self.processes_killed += 1;
                    discarded += 1;
                    while fsb.pop_head().is_some() {
                        discarded += 1;
                    }
                    break;
                }
            }
        }
        self.kill_discarded += discarded as u64;
        self.pages_resolved += resolved_pages.len() as u64;
        // Demand-paging: one batched IO submission for every resolved
        // page; the program resumes only when the slowest page-in lands.
        let mut io_cycles = 0;
        if let Some(io) = self.demand_io.as_mut() {
            if !resolved_pages.is_empty() {
                let done = io.batched(resolved_pages.len(), t);
                io_cycles = done - t;
                t = done;
            }
        }
        // A killed process discards its remaining stores, so the episode
        // never reaches the "all faulting stores resolved" state the
        // RESOLVE event asserts — recording it would (correctly) trip the
        // contract monitor's unapplied-stores check.
        if !terminated {
            if let Some(m) = monitor {
                m.record(OrderEvent::Resolve { core });
            }
        }
        HandlerOutcome {
            resume_at: t,
            applied,
            pages_resolved: resolved_pages.len(),
            breakdown,
            terminated,
            discarded,
            io_cycles,
        }
    }

    /// Re-issues one drained store as a kernel store. A denial of the
    /// re-issue is retried up to `retry_attempts` times with exponential
    /// backoff starting at `retry_backoff_base` cycles (saturating, and
    /// jittered under [`OsCostConfig::hardened`] — see
    /// [`retry_backoff`]); the cause heals underneath (transient faults
    /// absorb denials) or the budget runs out.
    ///
    /// On exhaustion, behaviour splits on
    /// [`OsCostConfig::hardened`]: hardened kernels
    /// return the error and the caller kills the process; the unhardened
    /// kernel *silently drops* the store — it reports success without
    /// writing memory, keeping every counter consistent with the lie.
    /// That is the architectural-corruption seam the adversary's
    /// applied-visibility audit exists to catch.
    ///
    /// # Errors
    ///
    /// [`SimError::RetryExhausted`] when the store still faults after the
    /// full budget (hardened), or immediately if a re-issue comes back
    /// with an irrecoverable exception — either way the caller kills the
    /// process.
    fn apply_with_retry(
        &mut self,
        core: CoreId,
        entry: &FaultingStoreEntry,
        resolver: &dyn FaultResolver,
        mem: &mut FlatMemory,
        t: &mut Cycle,
        breakdown: &mut OverheadBreakdown,
    ) -> Result<(), SimError> {
        let mut attempts = 0u32;
        loop {
            match resolver.check(entry.addr, true) {
                None => {
                    mem.write(entry.addr, entry.data, entry.mask);
                    *t += self.costs.apply_per_store;
                    breakdown.apply += self.costs.apply_per_store;
                    if attempts > 0 {
                        self.transient_recovered += 1;
                    }
                    return Ok(());
                }
                Some(kind) if kind.is_recoverable() => {
                    attempts += 1;
                    self.transient_retries += 1;
                    if attempts > self.costs.retry_attempts {
                        self.retry_exhausted += 1;
                        if self.costs.hardened {
                            return Err(SimError::RetryExhausted {
                                core,
                                addr: entry.addr,
                                attempts,
                            });
                        }
                        // Unhardened: pretend the store applied. No
                        // memory write, no error — the caller records
                        // S_OS and bumps `stores_applied` as usual, so
                        // every conservation invariant still balances.
                        self.silently_dropped += 1;
                        *t += self.costs.apply_per_store;
                        breakdown.apply += self.costs.apply_per_store;
                        return Ok(());
                    }
                    let backoff = retry_backoff(&self.costs, core, entry.addr, attempts);
                    self.backoff_cycles = self.backoff_cycles.saturating_add(backoff);
                    *t = t.saturating_add(backoff);
                    breakdown.other_os = breakdown.other_os.saturating_add(backoff);
                }
                Some(_) => {
                    return Err(SimError::RetryExhausted {
                        core,
                        addr: entry.addr,
                        attempts,
                    });
                }
            }
        }
    }

    /// Handles a *precise* exception (faulting load/atomic): resolve the
    /// cause and return the resume time. No stores to apply.
    pub fn handle_precise(
        &mut self,
        _core: CoreId,
        addr: ise_types::addr::Addr,
        kind: ExceptionKind,
        resolver: &dyn FaultResolver,
        now: Cycle,
    ) -> HandlerOutcome {
        self.invocations += 1;
        let mut t = now + self.costs.dispatch_overhead;
        let mut terminated = false;
        if kind.is_recoverable() {
            resolver.resolve(addr);
            self.pages_resolved += 1;
            t += self.costs.resolve_per_page;
        } else {
            terminated = true;
            self.processes_killed += 1;
        }
        let mut io_cycles = 0;
        if kind.is_recoverable() {
            if let Some(io) = self.demand_io.as_mut() {
                let done = io.serial(1, t);
                io_cycles = done - t;
                t = done;
            }
        }
        HandlerOutcome {
            resume_at: t,
            applied: 0,
            pages_resolved: usize::from(kind.is_recoverable()),
            breakdown: OverheadBreakdown {
                uarch: 0,
                apply: 0,
                other_os: t - now - io_cycles,
            },
            terminated,
            discarded: 0,
            io_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_core::EInject;
    use ise_types::addr::{Addr, ByteMask, PAGE_SIZE};
    use ise_types::FaultingStoreEntry;

    fn setup() -> (OsKernel, Fsb, EInject, FlatMemory) {
        (
            OsKernel::new(OsCostConfig::isca23()),
            Fsb::new(Addr::new(0x8000_0000), 32),
            EInject::new(Addr::new(0x10_0000), 64 * PAGE_SIZE),
            FlatMemory::new(),
        )
    }

    fn faulting_entry(addr: Addr, data: u64) -> FaultingStoreEntry {
        FaultingStoreEntry::new(
            addr,
            data,
            ByteMask::FULL,
            ExceptionKind::BusError.error_code(),
        )
    }

    #[test]
    fn handler_applies_all_stores_in_order_and_clears_pages() {
        let (mut os, mut fsb, einject, mut mem) = setup();
        let a0 = Addr::new(0x10_0000);
        let a1 = Addr::new(0x10_0000 + PAGE_SIZE);
        einject.set_faulting(a0);
        einject.set_faulting(a1);
        fsb.push(faulting_entry(a0, 11)).unwrap();
        fsb.push(FaultingStoreEntry::non_faulting(a1, 22, ByteMask::FULL))
            .unwrap();
        let mut mon = ContractMonitor::new();
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, Some(&mut mon));
        assert_eq!(out.applied, 2);
        assert_eq!(
            out.pages_resolved, 2,
            "non-faulting entry on a faulting page resolves too"
        );
        assert!(!out.terminated);
        assert_eq!(mem.read(a0), 11);
        assert_eq!(mem.read(a1), 22);
        assert!(!einject.is_faulting(a0));
        assert!(!einject.is_faulting(a1));
        assert!(fsb.is_empty());
        // The recorded GET/S_OS/RESOLVE sequence satisfies the PC
        // contract (PUTs added here to complete the log).
        let mut full = ContractMonitor::new();
        full.record(OrderEvent::Put {
            core: CoreId(0),
            entry: faulting_entry(a0, 11),
        });
        full.record(OrderEvent::Put {
            core: CoreId(0),
            entry: FaultingStoreEntry::non_faulting(a1, 22, ByteMask::FULL),
        });
        for e in mon.log() {
            full.record(*e);
        }
        assert_eq!(full.check(ise_types::ConsistencyModel::Pc), Ok(()));
    }

    #[test]
    fn resume_only_after_all_work() {
        let (mut os, mut fsb, einject, mut mem) = setup();
        let a = Addr::new(0x10_0000);
        einject.set_faulting(a);
        fsb.push(faulting_entry(a, 1)).unwrap();
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 100, None);
        let c = OsCostConfig::isca23();
        assert_eq!(
            out.resume_at,
            100 + c.dispatch_overhead + c.resolve_per_page + c.apply_per_store
        );
    }

    #[test]
    fn batching_amortizes_dispatch() {
        let (mut os, mut fsb, einject, mut mem) = setup();
        // 8 faulting stores to the same page: resolved once, applied 8x,
        // dispatched once.
        let base = Addr::new(0x10_0000);
        einject.set_faulting(base);
        for i in 0..8 {
            fsb.push(faulting_entry(base.offset(i * 8), i)).unwrap();
        }
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, None);
        let c = OsCostConfig::isca23();
        assert_eq!(out.pages_resolved, 1);
        assert_eq!(
            out.breakdown.other_os,
            c.dispatch_overhead + c.resolve_per_page
        );
        assert_eq!(out.breakdown.apply, 8 * c.apply_per_store);
        // Per-store cost well under the unbatched ~600 cycles.
        assert!(out.breakdown.per_store(8) < 150.0);
    }

    #[test]
    fn unbatched_per_store_cost_near_600_cycles() {
        // One store per invocation, as in Fig. 5's "without batching".
        let (mut os, mut fsb, einject, mut mem) = setup();
        let a = Addr::new(0x10_0000);
        einject.set_faulting(a);
        fsb.push(faulting_entry(a, 1)).unwrap();
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, None);
        let total = out.breakdown.total();
        assert!(
            (450..=700).contains(&total),
            "unbatched per-store OS cost should be ≈600 cycles, got {total}"
        );
    }

    #[test]
    fn irrecoverable_kills_and_discards() {
        let (mut os, mut fsb, einject, mut mem) = setup();
        let a = Addr::new(0x10_0000);
        fsb.push(FaultingStoreEntry::new(
            a,
            1,
            ByteMask::FULL,
            ExceptionKind::SegmentationFault.error_code(),
        ))
        .unwrap();
        fsb.push(faulting_entry(a.offset(8), 2)).unwrap();
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, None);
        assert!(out.terminated);
        assert_eq!(out.applied, 0);
        assert!(fsb.is_empty(), "remaining stores are discarded");
        assert_eq!(mem.read(a), 0, "discarded stores never reach memory");
        assert_eq!(os.processes_killed(), 1);
    }

    #[test]
    fn transient_bus_error_recovered_by_retry() {
        use ise_core::FaultPlan;
        use ise_types::{FaultKind, FaultSpec};
        let mut os = OsKernel::new(OsCostConfig::isca23());
        let mut fsb = Fsb::new(Addr::new(0x8000_0000), 32);
        let mut mem = FlatMemory::new();
        let a = Addr::new(0x10_0000);
        let inj = FaultPlan::new(1)
            .page(
                a.page(),
                FaultSpec::bus_error(FaultKind::Transient { clears_after: 2 }),
            )
            .build();
        fsb.push(faulting_entry(a, 77)).unwrap();
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &inj, &mut mem, 0, None);
        assert!(!out.terminated, "transient faults must not kill");
        assert_eq!(out.applied, 1);
        assert_eq!(mem.read(a), 77);
        assert_eq!(os.transient_retries(), 2);
        assert_eq!(os.transient_recovered(), 1);
        let c = OsCostConfig::isca23();
        // Two backoffs (base then doubled, plus deterministic jitter under
        // the default-hardened config) on top of the usual costs — the
        // public ladder helper computes the exact same cycles the kernel
        // charged.
        let ladder = retry_backoff(&c, CoreId(0), a, 1) + retry_backoff(&c, CoreId(0), a, 2);
        assert_eq!(
            out.breakdown.other_os,
            c.dispatch_overhead + c.resolve_per_page + ladder
        );
        assert_eq!(os.backoff_cycles(), ladder);
        assert!(
            ladder >= c.retry_backoff_base + 2 * c.retry_backoff_base,
            "jitter only ever adds to the exponential floor"
        );
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let c = OsCostConfig::isca23();
        let a = Addr::new(0x10_0000);
        let b1 = retry_backoff(&c, CoreId(0), a, 1);
        assert_eq!(b1, retry_backoff(&c, CoreId(0), a, 1));
        assert!(b1 >= c.retry_backoff_base);
        assert!(b1 < 2 * c.retry_backoff_base, "jitter stays under one base");
        // Unhardened config: the bare exponential ladder, no jitter.
        let plain = OsCostConfig {
            hardened: false,
            ..c
        };
        assert_eq!(retry_backoff(&plain, CoreId(0), a, 1), c.retry_backoff_base);
        assert_eq!(
            retry_backoff(&plain, CoreId(0), a, 3),
            4 * c.retry_backoff_base
        );
        // Different cores desynchronise.
        assert_ne!(
            retry_backoff(&c, CoreId(0), a, 1),
            retry_backoff(&c, CoreId(1), a, 1),
        );
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing_the_shift() {
        // Attacker-chosen config: a huge retry budget walks the shift
        // past 63 bits. Before the fix `base << (attempts - 1)` was a
        // shift-width overflow (debug panic, silent wrap in release);
        // now the ladder pins at u64::MAX.
        let mut c = OsCostConfig::isca23();
        c.retry_attempts = 100;
        c.hardened = false;
        let a = Addr::new(0x10_0000);
        assert_eq!(retry_backoff(&c, CoreId(0), a, 58), 64 << 57);
        assert_eq!(retry_backoff(&c, CoreId(0), a, 59), u64::MAX);
        assert_eq!(retry_backoff(&c, CoreId(0), a, 65), u64::MAX);
        assert_eq!(retry_backoff(&c, CoreId(0), a, 100), u64::MAX);
        // Value overflow short of shift-width overflow saturates too.
        c.retry_backoff_base = u64::MAX / 2 + 1;
        assert_eq!(retry_backoff(&c, CoreId(0), a, 2), u64::MAX);
        // Degenerate base never shifts at all.
        c.retry_backoff_base = 0;
        assert_eq!(retry_backoff(&c, CoreId(0), a, 100), 0);
    }

    #[test]
    fn saturated_ladder_runs_to_completion_without_panicking() {
        use ise_core::FaultPlan;
        use ise_types::{FaultKind, FaultSpec};
        let mut c = OsCostConfig::isca23();
        c.retry_attempts = 70; // would shift past 63 bits pre-fix
        let mut os = OsKernel::new(c);
        let mut fsb = Fsb::new(Addr::new(0x8000_0000), 32);
        let mut mem = FlatMemory::new();
        let a = Addr::new(0x10_0000);
        let inj = FaultPlan::new(1)
            .page(
                a.page(),
                FaultSpec::bus_error(FaultKind::Transient { clears_after: 1000 }),
            )
            .build();
        fsb.push(faulting_entry(a, 77)).unwrap();
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &inj, &mut mem, 0, None);
        assert!(out.terminated, "hardened kernel still kills on exhaustion");
        assert_eq!(os.retry_exhausted(), 1);
        assert_eq!(
            os.backoff_cycles(),
            u64::MAX,
            "accumulated backoff saturates rather than wrapping"
        );
    }

    #[test]
    fn unhardened_kernel_silently_drops_on_exhaustion() {
        use ise_core::FaultPlan;
        use ise_types::{FaultKind, FaultSpec};
        let c = OsCostConfig {
            hardened: false,
            ..OsCostConfig::isca23()
        };
        let mut os = OsKernel::new(c);
        let mut fsb = Fsb::new(Addr::new(0x8000_0000), 32);
        let mut mem = FlatMemory::new();
        let a = Addr::new(0x10_0000);
        let inj = FaultPlan::new(1)
            .page(
                a.page(),
                FaultSpec::bus_error(FaultKind::Transient { clears_after: 100 }),
            )
            .build();
        fsb.push(faulting_entry(a, 77)).unwrap();
        let mut mon = ContractMonitor::new();
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &inj, &mut mem, 0, Some(&mut mon));
        // The lie: success reported everywhere...
        assert!(!out.terminated);
        assert_eq!(out.applied, 1);
        assert_eq!(os.stores_applied(), 1);
        assert!(
            mon.log()
                .iter()
                .any(|e| matches!(e, OrderEvent::Sos { .. })),
            "the unhardened kernel records S_OS for the dropped store"
        );
        // ...but memory never saw the value.
        assert_eq!(mem.read(a), 0);
        assert_eq!(os.silently_dropped(), 1);
        assert_eq!(os.retry_exhausted(), 1);
        assert_eq!(os.processes_killed(), 0);
    }

    #[test]
    fn continuation_chunks_pay_reduced_dispatch_when_hardened() {
        let (mut os, mut fsb, einject, mut mem) = setup();
        let a = Addr::new(0x10_0000);
        einject.set_faulting(a);
        fsb.push(faulting_entry(a, 1)).unwrap();
        let out = os.handle_imprecise_chunk(CoreId(0), &mut fsb, &einject, &mut mem, 0, None, true);
        let c = OsCostConfig::isca23();
        assert_eq!(
            out.breakdown.other_os,
            c.dispatch_overhead / 8 + c.resolve_per_page,
            "hardened continuation re-enters through the warm path"
        );
        assert_eq!(os.continuation_invocations(), 1);
        assert_eq!(os.continuation_dispatch_cycles(), c.dispatch_overhead / 8);
        // Unhardened: full dispatch on every chunk.
        let plain = OsCostConfig {
            hardened: false,
            ..c
        };
        let mut os2 = OsKernel::new(plain);
        einject.set_faulting(a);
        fsb.push(faulting_entry(a, 1)).unwrap();
        let out2 =
            os2.handle_imprecise_chunk(CoreId(0), &mut fsb, &einject, &mut mem, 0, None, true);
        assert_eq!(
            out2.breakdown.other_os,
            c.dispatch_overhead + c.resolve_per_page
        );
        assert_eq!(os2.continuation_dispatch_cycles(), c.dispatch_overhead);
    }

    #[test]
    fn kill_path_reports_discarded_entries() {
        let (mut os, mut fsb, einject, mut mem) = setup();
        let a = Addr::new(0x10_0000);
        fsb.push(faulting_entry(a, 1)).unwrap();
        fsb.push(FaultingStoreEntry::new(
            a.offset(8),
            2,
            ByteMask::FULL,
            ExceptionKind::MachineCheck.error_code(),
        ))
        .unwrap();
        fsb.push(faulting_entry(a.offset(16), 3)).unwrap();
        fsb.push(faulting_entry(a.offset(24), 4)).unwrap();
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, None);
        assert!(out.terminated);
        assert_eq!(out.applied, 1, "entries before the machine check apply");
        assert_eq!(
            out.discarded, 3,
            "the triggering entry plus the drained remainder"
        );
        assert_eq!(os.kill_discarded(), 3);
    }

    #[test]
    fn retry_budget_exhaustion_kills() {
        use ise_core::FaultPlan;
        use ise_types::{FaultKind, FaultSpec};
        let mut os = OsKernel::new(OsCostConfig::isca23());
        let mut fsb = Fsb::new(Addr::new(0x8000_0000), 32);
        let mut mem = FlatMemory::new();
        let a = Addr::new(0x10_0000);
        let inj = FaultPlan::new(1)
            .page(
                a.page(),
                FaultSpec::bus_error(FaultKind::Transient { clears_after: 100 }),
            )
            .build();
        fsb.push(faulting_entry(a, 77)).unwrap();
        fsb.push(faulting_entry(a.offset(8), 78)).unwrap();
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &inj, &mut mem, 0, None);
        assert!(out.terminated);
        assert_eq!(out.applied, 0);
        assert!(fsb.is_empty(), "remaining stores discarded on kill");
        assert_eq!(mem.read(a), 0);
        assert_eq!(os.processes_killed(), 1);
        assert_eq!(
            os.transient_retries(),
            u64::from(OsCostConfig::isca23().retry_attempts) + 1
        );
        assert_eq!(os.transient_recovered(), 0);
    }

    #[test]
    fn kill_skips_resolve_event() {
        let (mut os, mut fsb, einject, mut mem) = setup();
        fsb.push(FaultingStoreEntry::new(
            Addr::new(0x10_0000),
            1,
            ByteMask::FULL,
            ExceptionKind::SegmentationFault.error_code(),
        ))
        .unwrap();
        let mut mon = ContractMonitor::new();
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, Some(&mut mon));
        assert!(out.terminated);
        assert!(
            !mon.log()
                .iter()
                .any(|e| matches!(e, OrderEvent::Resolve { .. })),
            "a killed episode never reaches the resolved state"
        );
    }

    #[test]
    fn precise_handler_resolves_recoverable() {
        let (mut os, _fsb, einject, _mem) = setup();
        let a = Addr::new(0x10_0000);
        einject.set_faulting(a);
        let out = os.handle_precise(CoreId(0), a, ExceptionKind::BusError, &einject, 50);
        assert!(!out.terminated);
        assert!(!einject.is_faulting(a));
        assert!(out.resume_at > 50);
    }

    #[test]
    fn precise_handler_kills_on_segfault() {
        let (mut os, _fsb, einject, _mem) = setup();
        let out = os.handle_precise(
            CoreId(0),
            Addr::new(0),
            ExceptionKind::SegmentationFault,
            &einject,
            0,
        );
        assert!(out.terminated);
    }

    #[test]
    fn demand_paging_ios_overlap_within_one_invocation() {
        let (mut os0, _, _, _) = setup();
        let mut os = os0.clone().with_demand_paging_io(20_000);
        let _ = &mut os0;
        let mut fsb = Fsb::new(Addr::new(0x8000_0000), 32);
        let einject = EInject::new(Addr::new(0x10_0000), 64 * PAGE_SIZE);
        let mut mem = FlatMemory::new();
        // 8 faulting stores on 8 distinct pages -> 8 page-ins, batched.
        for i in 0..8u64 {
            let a = Addr::new(0x10_0000 + i * PAGE_SIZE);
            einject.set_faulting(a);
            fsb.push(faulting_entry(a, i)).unwrap();
        }
        let out = os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, None);
        assert_eq!(out.pages_resolved, 8);
        assert_eq!(os.ios_issued(), 8);
        // Batched: far less than 8 serial IOs.
        assert!(out.io_cycles >= 20_000);
        assert!(
            out.io_cycles < 8 * 20_000 / 2,
            "io {} not overlapped",
            out.io_cycles
        );
        assert!(out.resume_at >= out.io_cycles);
    }

    #[test]
    fn precise_demand_paging_is_serial() {
        let (os0, _, einject, _) = setup();
        let mut os = os0.clone().with_demand_paging_io(20_000);
        let a = Addr::new(0x10_0000);
        einject.set_faulting(a);
        let out = os.handle_precise(CoreId(0), a, ExceptionKind::PageFault, &einject, 0);
        assert_eq!(out.io_cycles, 20_000, "one precise fault = one full IO");
        assert_eq!(os.ios_issued(), 1);
    }

    #[test]
    fn persist_round_trip_keeps_every_counter() {
        use ise_types::persist::{Reader, Writer};
        let (os0, _, einject, _) = setup();
        let mut os = os0.clone().with_demand_paging_io(20_000);
        let mut fsb = Fsb::new(Addr::new(0x8000_0000), 32);
        let mut mem = FlatMemory::new();
        let a = Addr::new(0x10_0000);
        einject.set_faulting(a);
        fsb.push(faulting_entry(a, 1)).unwrap();
        os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, None);
        let mut w = Writer::container();
        os.save_state(&mut w);
        let bytes = w.finish();
        let mut back = OsKernel::new(OsCostConfig::isca23()).with_demand_paging_io(20_000);
        let mut r = Reader::container(&bytes).unwrap();
        back.restore_state(&mut r).unwrap();
        let mut w2 = Writer::container();
        back.save_state(&mut w2);
        assert_eq!(w2.finish(), bytes);
        assert_eq!(back.invocations(), os.invocations());
        assert_eq!(back.stores_applied(), os.stores_applied());
        assert_eq!(back.pages_resolved(), os.pages_resolved());
        assert_eq!(back.ios_issued(), os.ios_issued());
        // Telemetry export of the restored kernel is indistinguishable.
        let mut reg_a = ise_telemetry::Registry::new();
        let mut reg_b = ise_telemetry::Registry::new();
        os.export_telemetry(&mut reg_a);
        back.export_telemetry(&mut reg_b);
        assert_eq!(reg_a.render(), reg_b.render());
        // And the restored kernel keeps handling identically.
        einject.set_faulting(a);
        fsb.push(faulting_entry(a.offset(8), 2)).unwrap();
        let out = back.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, None);
        assert_eq!(out.applied, 1);
        assert_eq!(back.invocations(), 2);
    }

    #[test]
    fn persist_restore_rejects_io_configuration_mismatch() {
        use ise_types::persist::{PersistError, Reader, Writer};
        let (os, _, _, _) = setup(); // no demand IO
        let mut w = Writer::container();
        os.save_state(&mut w);
        let bytes = w.finish();
        let mut with_io = OsKernel::new(OsCostConfig::isca23()).with_demand_paging_io(20_000);
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            with_io.restore_state(&mut r),
            Err(PersistError::Corrupt("demand-IO configuration mismatch"))
        ));
    }

    #[test]
    fn stats_accumulate() {
        let (mut os, mut fsb, einject, mut mem) = setup();
        let a = Addr::new(0x10_0000);
        einject.set_faulting(a);
        fsb.push(faulting_entry(a, 1)).unwrap();
        os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, None);
        fsb.push(faulting_entry(a.offset(8), 2)).unwrap();
        os.handle_imprecise(CoreId(0), &mut fsb, &einject, &mut mem, 0, None);
        assert_eq!(os.invocations(), 2);
        assert_eq!(os.stores_applied(), 2);
    }
}
