//! The store buffer: retired-but-incomplete stores.
//!
//! Under PC the buffer drains strictly in FIFO order, one store at a time
//! (the order the architectural interface must preserve, Table 5). Under
//! WC any idle entry may issue, several drains proceed concurrently, and
//! stores to the same 8-byte word coalesce on insert — the paper's
//! "already coalesced" same-address case (§4.4).
//!
//! A drain whose response comes back denied is an **imprecise store
//! exception**: [`StoreBuffer::pump`] reports it as a [`DrainFault`] and
//! the core takes over (stop fetch, drain everything to the FSB, flush).
//!
//! Entries live in a struct-of-arrays ring (no per-entry allocation on
//! push or drain). Drain state is positional: issue always takes the
//! oldest idle entries, so the in-flight entries are the FIFO prefix
//! `[0, len − idle)` and the idle ones the suffix. Each in-flight entry
//! also keeps the minimum completion time from it to the end of the
//! prefix, so the head holds the exact earliest completion and the
//! matured drains all sit before the first entry whose suffix minimum
//! lies in the future. Completion, issue and coalescing therefore touch
//! only the entries they concern, and a pump on a cycle where nothing
//! completes and nothing can issue is O(1) — the dominant case under the
//! per-cycle reference clock.

use ise_engine::Cycle;
use ise_mem::hierarchy::{Access, MemoryHierarchy};
use ise_types::addr::{Addr, ByteMask};
use ise_types::exception::ExceptionKind;
use ise_types::model::ConsistencyModel;
use ise_types::{CoreId, FaultingStoreEntry, SimError};

/// Drain status of one store-buffer entry (a by-value view: the buffer
/// stores it positionally, and snapshots write it per entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DrainState {
    /// Not yet issued to the hierarchy.
    Idle,
    /// Issued; the response arrives at `complete_at`.
    InFlight {
        /// Completion time.
        complete_at: Cycle,
        /// Fault embedded in the response, if the transaction was denied.
        fault: Option<ExceptionKind>,
    },
}

/// One retired store awaiting completion (a by-value view; storage is
/// struct-of-arrays inside [`StoreBuffer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SbEntry {
    /// Store target address.
    pub addr: Addr,
    /// Store data.
    pub value: u64,
    /// Bytes written.
    pub mask: ByteMask,
}

/// A detected imprecise store exception: which entry faulted and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainFault {
    /// Index of the faulting entry in buffer (FIFO) order.
    pub index: usize,
    /// The embedded exception.
    pub kind: ExceptionKind,
}

/// The store buffer of one core.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    core: CoreId,
    capacity: usize,
    model: ConsistencyModel,
    addrs: Box<[Addr]>,
    values: Box<[u64]>,
    masks: Box<[ByteMask]>,
    /// Completion time of each in-flight entry (meaningless for idle
    /// entries).
    complete_at: Box<[Cycle]>,
    /// Minimum `complete_at` over the in-flight entries from this one to
    /// the end of the prefix: non-decreasing along the prefix, and the
    /// head's value is the earliest completion.
    suffix_min: Box<[Cycle]>,
    /// Fault embedded in each in-flight entry's response.
    faults: Box<[Option<ExceptionKind>]>,
    head: usize,
    len: usize,
    ring_mask: usize,
    /// Idle entries: the FIFO suffix `[len − idle, len)`. Everything
    /// before it is in flight.
    idle: usize,
    /// Per-cycle issue ports for WC drains.
    drain_width: usize,
    /// Cap on concurrently in-flight drains (ASO checkpoint budget).
    max_in_flight: usize,
    coalesced: u64,
    drained: u64,
    retired: u64,
}

impl StoreBuffer {
    /// Creates a store buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (SC cores simply never push).
    pub fn new(core: CoreId, capacity: usize, model: ConsistencyModel) -> Self {
        assert!(capacity > 0, "store buffer needs capacity");
        // Large "effectively unbounded" capacities start at a modest ring
        // and grow by doubling if occupancy ever demands it.
        let ring = capacity.min(1024).next_power_of_two();
        StoreBuffer {
            core,
            capacity,
            model,
            addrs: vec![Addr::new(0); ring].into_boxed_slice(),
            values: vec![0; ring].into_boxed_slice(),
            masks: vec![ByteMask::FULL; ring].into_boxed_slice(),
            complete_at: vec![0; ring].into_boxed_slice(),
            suffix_min: vec![0; ring].into_boxed_slice(),
            faults: vec![None; ring].into_boxed_slice(),
            head: 0,
            len: 0,
            ring_mask: ring - 1,
            idle: 0,
            drain_width: 2,
            max_in_flight: usize::MAX,
            coalesced: 0,
            drained: 0,
            retired: 0,
        }
    }

    /// Caps the number of concurrently in-flight drains. The ASO baseline
    /// uses this to model a finite checkpoint budget (each outstanding
    /// store miss holds one checkpoint, paper §3.2).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn set_max_in_flight(&mut self, cap: usize) {
        assert!(cap > 0, "in-flight cap must be positive");
        self.max_in_flight = cap;
    }

    /// Whether another retired store fits.
    pub fn has_space(&self) -> bool {
        self.len < self.capacity
    }

    /// Whether the buffer is empty (fences and atomics wait for this).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Entries whose drain is currently in flight (the quantity ASO maps
    /// to checkpoints).
    pub fn in_flight(&self) -> usize {
        self.len - self.idle
    }

    /// Total stores coalesced away (WC only).
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Earliest completion time among in-flight drains, if any — the
    /// store buffer's next wake-up for the cycle-skipping clock.
    ///
    /// This is deliberately conservative for PC: a non-front in-flight
    /// entry completing is a non-event there (only the front may leave
    /// the buffer), so waking at it merely re-evaluates and charges the
    /// same stall the reference clock would have charged cycle by cycle.
    pub fn next_completion(&self) -> Option<Cycle> {
        (self.in_flight() > 0).then(|| self.suffix_min[self.head])
    }

    /// Total stores drained to the hierarchy.
    pub fn drained(&self) -> u64 {
        self.drained
    }

    /// Total stores ever accepted by [`StoreBuffer::push`], whether they
    /// later drained, coalesced away, were handed to the FSB, or still
    /// sit in the buffer. The left-hand side of the store conservation
    /// invariant — on a killed core it must equal drained + coalesced +
    /// OS-applied + kill-discarded + still-buffered.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    fn slot(&self, i: usize) -> usize {
        (self.head + i) & self.ring_mask
    }

    /// The buffered entry at FIFO index `i` (for the drain paths).
    fn entry(&self, i: usize) -> SbEntry {
        let s = self.slot(i);
        SbEntry {
            addr: self.addrs[s],
            value: self.values[s],
            mask: self.masks[s],
        }
    }

    /// The drain state of the entry at FIFO index `i`.
    fn state(&self, i: usize) -> DrainState {
        if i >= self.in_flight() {
            return DrainState::Idle;
        }
        let s = self.slot(i);
        DrainState::InFlight {
            complete_at: self.complete_at[s],
            fault: self.faults[s],
        }
    }

    /// Re-derives the suffix minima of the in-flight entries before FIFO
    /// index `end`; the ones from `end` on are still exact. Called after
    /// a removal that moved older in-flight entries (WC completion,
    /// split-stream extraction) and on restore, never on dead cycles.
    fn refresh_suffix_min(&mut self, end: usize) {
        let mut min = if end < self.in_flight() {
            self.suffix_min[self.slot(end)]
        } else {
            Cycle::MAX
        };
        for i in (0..end).rev() {
            let s = self.slot(i);
            min = min.min(self.complete_at[s]);
            self.suffix_min[s] = min;
        }
    }

    /// Copies the entry in ring slot `src` to ring slot `dst`.
    #[inline]
    fn move_slot(&mut self, src: usize, dst: usize) {
        self.addrs[dst] = self.addrs[src];
        self.values[dst] = self.values[src];
        self.masks[dst] = self.masks[src];
        self.complete_at[dst] = self.complete_at[src];
        self.faults[dst] = self.faults[src];
    }

    /// Doubles the ring (only reached when `capacity` exceeds the initial
    /// ring size and occupancy demands it; never on the steady-state
    /// path for the paper's 32-entry buffers).
    fn grow_ring(&mut self) {
        let new = (self.ring_mask + 1) * 2;
        let mut addrs = vec![Addr::new(0); new].into_boxed_slice();
        let mut values = vec![0u64; new].into_boxed_slice();
        let mut masks = vec![ByteMask::FULL; new].into_boxed_slice();
        let mut complete_at = vec![0; new].into_boxed_slice();
        let mut suffix_min = vec![0; new].into_boxed_slice();
        let mut faults = vec![None; new].into_boxed_slice();
        for i in 0..self.len {
            let s = self.slot(i);
            addrs[i] = self.addrs[s];
            values[i] = self.values[s];
            masks[i] = self.masks[s];
            complete_at[i] = self.complete_at[s];
            suffix_min[i] = self.suffix_min[s];
            faults[i] = self.faults[s];
        }
        self.addrs = addrs;
        self.values = values;
        self.masks = masks;
        self.complete_at = complete_at;
        self.suffix_min = suffix_min;
        self.faults = faults;
        self.head = 0;
        self.ring_mask = new - 1;
    }

    /// Accepts a retired store.
    ///
    /// Under WC a store to a word already buffered (and not yet issued)
    /// coalesces into the existing entry, preserving the same-address
    /// ordering WC requires without a new slot.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — callers must check
    /// [`StoreBuffer::has_space`] first.
    pub fn push(&mut self, addr: Addr, value: u64, mask: ByteMask) {
        self.retired += 1;
        if self.model == ConsistencyModel::Wc {
            // Only idle entries coalesce: scan the idle suffix, youngest
            // first.
            let word = addr.raw() >> 3;
            for i in (self.in_flight()..self.len).rev() {
                let s = self.slot(i);
                if self.addrs[s].raw() >> 3 == word {
                    self.values[s] = mask.merge(self.values[s], value);
                    self.masks[s] = self.masks[s] | mask;
                    self.coalesced += 1;
                    return;
                }
            }
        }
        assert!(self.has_space(), "store buffer overflow");
        if self.len > self.ring_mask {
            self.grow_ring();
        }
        let s = self.slot(self.len);
        self.addrs[s] = addr;
        self.values[s] = value;
        self.masks[s] = mask;
        self.len += 1;
        self.idle += 1;
    }

    /// Whether a load to `addr`'s word can forward from the buffer.
    pub fn forwards(&self, addr: Addr) -> bool {
        let word = addr.raw() >> 3;
        (0..self.len).any(|i| self.addrs[self.slot(i)].raw() >> 3 == word)
    }

    /// Advances drains by one cycle: completes finished drains, reports a
    /// fault if one came back denied, and issues new drains according to
    /// the model's ordering rules.
    pub fn pump(&mut self, now: Cycle, hier: &mut MemoryHierarchy) -> Option<DrainFault> {
        // Complete finished drains. The earliest completion gates the
        // scan: on cycles where no in-flight drain has matured there is
        // nothing to do.
        if self.in_flight() > 0 && self.suffix_min[self.head] <= now {
            let fault = match self.model {
                ConsistencyModel::Sc => None,
                ConsistencyModel::Pc => self.complete_front(now),
                ConsistencyModel::Wc => self.complete_matured(now),
            };
            if fault.is_some() {
                return fault;
            }
        }

        // Issue new drains: the oldest idle entries, which start at
        // index `len − idle`. Skipped outright when nothing is idle or
        // the in-flight cap is already met.
        if self.model != ConsistencyModel::Sc {
            let room = self.max_in_flight.saturating_sub(self.in_flight());
            for _ in 0..self.drain_width.min(room).min(self.idle) {
                let end = self.in_flight();
                let s = self.slot(end);
                let r = hier.access(Access::store(self.core, self.addrs[s]), now);
                let complete_at = now + r.latency;
                self.complete_at[s] = complete_at;
                self.suffix_min[s] = complete_at;
                self.faults[s] = r.fault;
                self.idle -= 1;
                // Lower the older suffix minima this completion undercuts;
                // drains mostly complete in issue order, so this stops at
                // once.
                for i in (0..end).rev() {
                    let t = self.slot(i);
                    if self.suffix_min[t] <= complete_at {
                        break;
                    }
                    self.suffix_min[t] = complete_at;
                }
            }
        }
        None
    }

    /// PC completion: stores become globally visible strictly in FIFO
    /// order (ownership requests pipeline, but only the front entry may
    /// leave the buffer), so matured drains leave by advancing the head.
    fn complete_front(&mut self, now: Cycle) -> Option<DrainFault> {
        while self.in_flight() > 0 && self.complete_at[self.head] <= now {
            if let Some(kind) = self.faults[self.head] {
                return Some(DrainFault { index: 0, kind });
            }
            self.head = (self.head + 1) & self.ring_mask;
            self.len -= 1;
            self.drained += 1;
        }
        None
    }

    /// WC completion: every matured drain leaves, in one forward pass
    /// that stops at the first matured faulting drain (reported at its
    /// index after the removals). The pass ends at the last matured entry
    /// at the latest: after it, every suffix minimum is in the future.
    /// The holes are closed by moving the older survivors toward the tail
    /// and advancing the head, so the idle suffix and every entry after
    /// the last hole stay put — WC drains complete almost in order, so
    /// the older side holds few survivors, and only their suffix minima
    /// need recomputing.
    fn complete_matured(&mut self, now: Cycle) -> Option<DrainFault> {
        let mut fault = None;
        let mut removed = 0;
        let mut last_hole = 0;
        for i in 0..self.in_flight() {
            let s = self.slot(i);
            if self.suffix_min[s] > now {
                break;
            }
            if self.complete_at[s] <= now {
                if let Some(kind) = self.faults[s] {
                    fault = Some(DrainFault {
                        index: i - removed,
                        kind,
                    });
                    break;
                }
                removed += 1;
                last_hole = i;
            }
        }
        if removed > 0 {
            // Survivors older than the last hole all have
            // `complete_at > now` (every matured one before the stop is a
            // hole); move them up against it, youngest first.
            let survivors = last_hole + 1 - removed;
            let mut to_move = survivors;
            let mut dst = last_hole;
            let mut src = last_hole;
            while to_move > 0 {
                src -= 1;
                let s = self.slot(src);
                if self.complete_at[s] > now {
                    self.move_slot(s, self.slot(dst));
                    dst -= 1;
                    to_move -= 1;
                }
            }
            self.head = (self.head + removed) & self.ring_mask;
            self.len -= removed;
            self.drained += removed as u64;
            self.refresh_suffix_min(survivors);
        }
        fault
    }

    /// Drains the entire buffer into FSB records in buffer (FIFO) order —
    /// the same-stream policy of §4.6. The entry at `fault_index` carries
    /// the fault's error code; every other entry (drained without its own
    /// memory access, or still in flight) carries code 0.
    ///
    /// The buffer is left empty.
    pub fn drain_to_fsb(&mut self, fault: DrainFault) -> Vec<FaultingStoreEntry> {
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let e = self.entry(i);
            if i == fault.index {
                out.push(FaultingStoreEntry::new(
                    e.addr,
                    e.value,
                    e.mask,
                    fault.kind.error_code(),
                ));
            } else {
                out.push(FaultingStoreEntry::non_faulting(e.addr, e.value, e.mask));
            }
        }
        self.clear();
        out
    }

    /// Split-stream drain (§4.5 ablation): removes and returns *only* the
    /// faulting entry as an FSB record; younger non-faulting stores stay
    /// in the buffer and keep draining to memory. The paper shows this
    /// policy needs an extra HW/SW barrier to be PC-correct — the timing
    /// pipeline supports it so the ablation can measure its cost, while
    /// the operational machine demonstrates its race (Fig. 2a).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StoreBufferIndex`] if `fault.index` no longer
    /// names a buffered entry (a stale fault report).
    pub fn extract_faulting(
        &mut self,
        fault: DrainFault,
    ) -> Result<Vec<FaultingStoreEntry>, SimError> {
        if fault.index >= self.len {
            return Err(SimError::StoreBufferIndex {
                core: self.core,
                index: fault.index,
                len: self.len,
            });
        }
        let e = self.entry(fault.index);
        let was_in_flight = fault.index < self.in_flight();
        // Close the hole from the older side, as completion does.
        for i in (0..fault.index).rev() {
            self.move_slot(self.slot(i), self.slot(i + 1));
        }
        self.head = (self.head + 1) & self.ring_mask;
        self.len -= 1;
        if was_in_flight {
            self.refresh_suffix_min(fault.index);
        } else {
            self.idle -= 1;
        }
        Ok(vec![FaultingStoreEntry::new(
            e.addr,
            e.value,
            e.mask,
            fault.kind.error_code(),
        )])
    }

    /// Abandons all buffered stores (process teardown in tests).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
        self.idle = 0;
    }

    /// Saves the buffer's dynamic state: identity fields for validation,
    /// then the logical FIFO contents (entry fields plus per-entry drain
    /// state, oldest → youngest) and the lifetime counters. The ring
    /// layout and the derived `idle` count and suffix minima are
    /// recomputed on restore and are not part of the audited contract.
    pub fn save_state(&self, w: &mut ise_types::persist::Writer) {
        use ise_types::persist::Persist;
        w.section(*b"SBUF", |w| {
            w.usize(self.capacity);
            self.model.save(w);
            w.usize(self.drain_width);
            w.usize(self.max_in_flight);
            w.usize(self.len);
            for i in 0..self.len {
                let e = self.entry(i);
                e.addr.save(w);
                w.u64(e.value);
                e.mask.save(w);
                match self.state(i) {
                    DrainState::Idle => w.u8(0),
                    DrainState::InFlight { complete_at, fault } => {
                        w.u8(1);
                        w.u64(complete_at);
                        fault.save(w);
                    }
                }
            }
            w.u64(self.coalesced);
            w.u64(self.drained);
            w.u64(self.retired);
        });
    }

    /// Restores the buffer in place. `core`, `capacity` and `model` come
    /// from construction; the saved identity fields must match, and the
    /// in-flight entries must form a FIFO prefix (the buffer stores drain
    /// state by position).
    pub fn restore_state(
        &mut self,
        r: &mut ise_types::persist::Reader,
    ) -> Result<(), ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"SBUF", |r| {
            let capacity = r.usize()?;
            let model: ConsistencyModel = Persist::restore(r)?;
            if capacity != self.capacity || model != self.model {
                return Err(PersistError::Corrupt("store buffer identity mismatch"));
            }
            self.drain_width = r.usize()?;
            self.max_in_flight = r.usize()?;
            let len = r.usize()?;
            if len > capacity {
                return Err(PersistError::Corrupt(
                    "store buffer occupancy beyond capacity",
                ));
            }
            // Size the ring the way construction + growth would have.
            let mut ring = self.capacity.min(1024).next_power_of_two();
            while ring < len {
                ring *= 2;
            }
            let mut addrs = vec![Addr::new(0); ring].into_boxed_slice();
            let mut values = vec![0u64; ring].into_boxed_slice();
            let mut masks = vec![ByteMask::FULL; ring].into_boxed_slice();
            let mut complete_at = vec![0; ring].into_boxed_slice();
            let mut faults = vec![None; ring].into_boxed_slice();
            let mut idle = 0;
            for i in 0..len {
                addrs[i] = Persist::restore(r)?;
                values[i] = r.u64()?;
                masks[i] = Persist::restore(r)?;
                match r.u8()? {
                    0 => idle += 1,
                    1 if idle > 0 => {
                        return Err(PersistError::Corrupt("in-flight store after an idle one"))
                    }
                    1 => {
                        complete_at[i] = r.u64()?;
                        faults[i] = Persist::restore(r)?;
                    }
                    _ => return Err(PersistError::Corrupt("DrainState discriminant")),
                }
            }
            self.addrs = addrs;
            self.values = values;
            self.masks = masks;
            self.complete_at = complete_at;
            self.suffix_min = vec![0; ring].into_boxed_slice();
            self.faults = faults;
            self.head = 0;
            self.len = len;
            self.ring_mask = ring - 1;
            self.idle = idle;
            self.refresh_suffix_min(len - idle);
            self.coalesced = r.u64()?;
            self.drained = r.u64()?;
            self.retired = r.u64()?;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::config::SystemConfig;

    fn hier() -> MemoryHierarchy {
        let mut cfg = SystemConfig::isca23();
        cfg.cores = 2;
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        MemoryHierarchy::new(cfg)
    }

    fn sb(model: ConsistencyModel) -> StoreBuffer {
        StoreBuffer::new(CoreId(0), 4, model)
    }

    #[test]
    fn push_and_space_accounting() {
        let mut b = sb(ConsistencyModel::Pc);
        for i in 0..4 {
            assert!(b.has_space());
            b.push(Addr::new(i * 64), i, ByteMask::FULL);
        }
        assert!(!b.has_space());
        assert_eq!(b.len(), 4);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut b = sb(ConsistencyModel::Pc);
        for i in 0..5 {
            b.push(Addr::new(i * 64), i, ByteMask::FULL);
        }
    }

    #[test]
    fn pc_pipelines_drains_but_completes_in_order() {
        let mut b = sb(ConsistencyModel::Pc);
        let mut h = hier();
        b.push(Addr::new(0), 1, ByteMask::FULL);
        b.push(Addr::new(64), 2, ByteMask::FULL);
        b.pump(0, &mut h);
        assert_eq!(b.in_flight(), 2, "PC pipelines ownership requests");
        // Run forward until both drained; the front must always leave
        // first (FIFO order), which `pump` enforces structurally.
        let mut t = 0;
        while !b.is_empty() && t < 10_000 {
            t += 1;
            assert!(b.pump(t, &mut h).is_none());
        }
        assert!(b.is_empty());
        assert_eq!(b.drained(), 2);
    }

    #[test]
    fn wc_drains_concurrently() {
        let mut b = sb(ConsistencyModel::Wc);
        let mut h = hier();
        b.push(Addr::new(0), 1, ByteMask::FULL);
        b.push(Addr::new(64), 2, ByteMask::FULL);
        b.pump(0, &mut h);
        assert_eq!(b.in_flight(), 2, "WC issues multiple drains");
    }

    #[test]
    fn wc_coalesces_same_word() {
        let mut b = sb(ConsistencyModel::Wc);
        b.push(Addr::new(8), 0xff, ByteMask::span(0, 1));
        b.push(Addr::new(8), 0xaa00, ByteMask::span(1, 1));
        assert_eq!(b.len(), 1);
        assert_eq!(b.coalesced(), 1);
        let mut h = hier();
        let entries = b.drain_to_fsb(DrainFault {
            index: 0,
            kind: ExceptionKind::BusError,
        });
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].mask.bits(), 0b11);
        assert_eq!(entries[0].data & 0xffff, 0xaaff);
        let _ = &mut h;
    }

    #[test]
    fn pc_does_not_coalesce() {
        let mut b = sb(ConsistencyModel::Pc);
        b.push(Addr::new(8), 1, ByteMask::FULL);
        b.push(Addr::new(8), 2, ByteMask::FULL);
        assert_eq!(b.len(), 2);
        assert_eq!(b.coalesced(), 0);
    }

    #[test]
    fn next_completion_tracks_earliest_in_flight() {
        let mut b = sb(ConsistencyModel::Wc);
        let mut h = hier();
        assert_eq!(b.next_completion(), None, "empty buffer has no wake-up");
        b.push(Addr::new(0), 1, ByteMask::FULL);
        assert_eq!(b.next_completion(), None, "idle entries are not in flight");
        b.pump(0, &mut h);
        let wake = b.next_completion().expect("issued drain is in flight");
        assert!(wake > 0, "completion is in the future");
        // Pumping exactly at the wake-up completes the drain.
        let mut t = wake;
        while !b.is_empty() && t < 10_000 {
            assert!(b.pump(t, &mut h).is_none());
            t += 1;
        }
        assert!(b.is_empty());
        assert_eq!(b.next_completion(), None);
    }

    #[test]
    fn forwarding_sees_buffered_words() {
        let mut b = sb(ConsistencyModel::Wc);
        b.push(Addr::new(0x100), 7, ByteMask::FULL);
        assert!(b.forwards(Addr::new(0x100)));
        assert!(b.forwards(Addr::new(0x104))); // same word
        assert!(!b.forwards(Addr::new(0x108)));
    }

    #[test]
    fn drain_to_fsb_preserves_order_and_marks_fault() {
        let mut b = sb(ConsistencyModel::Pc);
        b.push(Addr::new(0), 1, ByteMask::FULL);
        b.push(Addr::new(64), 2, ByteMask::FULL);
        b.push(Addr::new(128), 3, ByteMask::FULL);
        let entries = b.drain_to_fsb(DrainFault {
            index: 1,
            kind: ExceptionKind::BusError,
        });
        assert_eq!(entries.len(), 3);
        assert_eq!(
            entries.iter().map(|e| e.addr.raw()).collect::<Vec<_>>(),
            vec![0, 64, 128]
        );
        assert!(!entries[0].is_faulting());
        assert!(entries[1].is_faulting());
        assert!(!entries[2].is_faulting());
        assert!(b.is_empty());
    }

    #[test]
    fn large_capacity_ring_grows_on_demand() {
        // Capacity above the initial ring size: pushes past the ring must
        // grow it (the "effectively unbounded buffer" configurations).
        let mut b = StoreBuffer::new(CoreId(0), 5000, ConsistencyModel::Pc);
        for i in 0..2000u64 {
            assert!(b.has_space());
            b.push(Addr::new(i * 64), i, ByteMask::FULL);
        }
        assert_eq!(b.len(), 2000);
        for i in 0..2000u64 {
            let e = b.entry(i as usize);
            assert_eq!(e.addr.raw(), i * 64, "order preserved across growth");
        }
    }

    #[test]
    fn persist_round_trip_mid_drain_continues_identically() {
        use ise_types::persist::{Reader, Writer};
        for model in [ConsistencyModel::Pc, ConsistencyModel::Wc] {
            let mut orig = StoreBuffer::new(CoreId(0), 8, model);
            let mut h_orig = hier();
            for i in 0..6u64 {
                orig.push(Addr::new(i * 64), i, ByteMask::FULL);
            }
            // Issue drains so the snapshot catches entries in flight.
            assert!(orig.pump(0, &mut h_orig).is_none());
            assert!(orig.in_flight() > 0, "snapshot must be mid-drain");
            let mut w = Writer::container();
            orig.save_state(&mut w);
            // The hierarchy rides along so the restored buffer sees the
            // same latencies the original will.
            h_orig.save_state(&mut w);
            let bytes = w.finish();
            let mut back = StoreBuffer::new(CoreId(0), 8, model);
            let mut h_back = hier();
            let mut r = Reader::container(&bytes).unwrap();
            back.restore_state(&mut r).unwrap();
            h_back.restore_state(&mut r).unwrap();
            // Logical contents are the canonical form: re-save is
            // byte-identical even though the restored ring is compacted.
            let mut w2 = Writer::container();
            back.save_state(&mut w2);
            h_back.save_state(&mut w2);
            assert_eq!(w2.finish(), bytes, "model {model:?}");
            assert_eq!(back.in_flight(), orig.in_flight());
            assert_eq!(back.next_completion(), orig.next_completion());
            // The restored buffer forwards the pushed words (word 6 is
            // never stored) and stops forwarding each as it drains.
            let forwards = |b: &StoreBuffer| {
                (0..=6u64)
                    .map(|i| b.forwards(Addr::new(i * 64)))
                    .collect::<Vec<_>>()
            };
            assert_eq!(forwards(&back), [true, true, true, true, true, true, false]);
            // Lockstep continuation: every completion, issue, and counter
            // must agree cycle by cycle until both buffers drain dry.
            for now in 1..4000u64 {
                assert!(orig.pump(now, &mut h_orig).is_none());
                assert!(back.pump(now, &mut h_back).is_none());
                assert_eq!(back.len(), orig.len(), "len at {now} ({model:?})");
                assert_eq!(back.in_flight(), orig.in_flight());
                assert_eq!(back.drained(), orig.drained());
                assert_eq!(back.next_completion(), orig.next_completion());
                assert_eq!(forwards(&back), forwards(&orig), "forwards at {now}");
                if orig.is_empty() {
                    break;
                }
            }
            assert!(orig.is_empty(), "original drains to empty");
            assert!(back.is_empty(), "restored buffer drains to empty");
            assert_eq!(
                forwards(&back),
                [false; 7],
                "a drained buffer forwards nothing"
            );
            assert_eq!(back.retired(), orig.retired());
        }
    }

    #[test]
    fn persist_restore_rejects_identity_mismatch() {
        use ise_types::persist::{PersistError, Reader, Writer};
        let mut orig = StoreBuffer::new(CoreId(0), 8, ConsistencyModel::Wc);
        orig.push(Addr::new(0), 1, ByteMask::FULL);
        let mut w = Writer::container();
        orig.save_state(&mut w);
        let bytes = w.finish();
        let mut wrong_cap = StoreBuffer::new(CoreId(0), 4, ConsistencyModel::Wc);
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            wrong_cap.restore_state(&mut r),
            Err(PersistError::Corrupt("store buffer identity mismatch"))
        ));
        let mut wrong_model = StoreBuffer::new(CoreId(0), 8, ConsistencyModel::Pc);
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            wrong_model.restore_state(&mut r),
            Err(PersistError::Corrupt("store buffer identity mismatch"))
        ));
    }

    #[test]
    fn persist_restore_rejects_in_flight_after_idle() {
        // The buffer stores drain state by position (in-flight prefix,
        // idle suffix), so a snapshot listing an in-flight entry after an
        // idle one has no faithful restore and must be refused.
        use ise_types::persist::{Persist, PersistError, Reader, Writer};
        let mut w = Writer::container();
        w.section(*b"SBUF", |w| {
            w.usize(8);
            ConsistencyModel::Wc.save(w);
            w.usize(2);
            w.usize(usize::MAX);
            w.usize(2);
            for (i, state) in [0u8, 1].into_iter().enumerate() {
                Addr::new(i as u64 * 64).save(w);
                w.u64(i as u64);
                ByteMask::FULL.save(w);
                w.u8(state);
            }
            w.u64(40);
            None::<ExceptionKind>.save(w);
            w.u64(0);
            w.u64(0);
            w.u64(2);
        });
        let bytes = w.finish();
        let mut b = StoreBuffer::new(CoreId(0), 8, ConsistencyModel::Wc);
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            b.restore_state(&mut r),
            Err(PersistError::Corrupt("in-flight store after an idle one"))
        ));
    }

    /// Denies every drain to an address at or above `0x10_0000`.
    struct DenyHigh;
    impl ise_mem::backend::FaultOracle for DenyHigh {
        fn check(&self, addr: Addr, _is_store: bool) -> Option<ExceptionKind> {
            (addr.raw() >= 0x10_0000).then_some(ExceptionKind::BusError)
        }
    }

    /// The pre-rework layout: a `VecDeque` of entries, each carrying its
    /// own drain state, with every derived quantity recomputed by
    /// scanning and every completion removed by a restart-from-the-front
    /// scan. The differential below drives it and the positional ring
    /// through the same op sequence.
    mod naive {
        use super::*;
        use std::collections::VecDeque;

        pub struct NaiveBuffer {
            pub entries: VecDeque<(Addr, u64, ByteMask, DrainState)>,
            capacity: usize,
            model: ConsistencyModel,
            pub max_in_flight: usize,
            pub drained: u64,
            pub coalesced: u64,
        }

        impl NaiveBuffer {
            pub fn new(capacity: usize, model: ConsistencyModel) -> Self {
                NaiveBuffer {
                    entries: VecDeque::new(),
                    capacity,
                    model,
                    max_in_flight: usize::MAX,
                    drained: 0,
                    coalesced: 0,
                }
            }

            pub fn has_space(&self) -> bool {
                self.entries.len() < self.capacity
            }

            pub fn in_flight(&self) -> usize {
                self.entries
                    .iter()
                    .filter(|e| matches!(e.3, DrainState::InFlight { .. }))
                    .count()
            }

            pub fn next_completion(&self) -> Option<Cycle> {
                self.entries
                    .iter()
                    .filter_map(|e| match e.3 {
                        DrainState::InFlight { complete_at, .. } => Some(complete_at),
                        DrainState::Idle => None,
                    })
                    .min()
            }

            pub fn push(&mut self, addr: Addr, value: u64, mask: ByteMask) {
                if self.model == ConsistencyModel::Wc {
                    let word = addr.raw() >> 3;
                    if let Some(e) = self
                        .entries
                        .iter_mut()
                        .rev()
                        .find(|e| e.0.raw() >> 3 == word && e.3 == DrainState::Idle)
                    {
                        e.1 = mask.merge(e.1, value);
                        e.2 = e.2 | mask;
                        self.coalesced += 1;
                        return;
                    }
                }
                self.entries
                    .push_back((addr, value, mask, DrainState::Idle));
            }

            pub fn forwards(&self, addr: Addr) -> bool {
                let word = addr.raw() >> 3;
                self.entries.iter().any(|e| e.0.raw() >> 3 == word)
            }

            /// `pump` against a scripted latency/fault function instead
            /// of a live hierarchy, mirroring the original loop shape.
            pub fn pump(
                &mut self,
                now: Cycle,
                drain_width: usize,
                mut issue: impl FnMut(Addr) -> (Cycle, Option<ExceptionKind>),
            ) -> Option<DrainFault> {
                match self.model {
                    ConsistencyModel::Sc => {}
                    ConsistencyModel::Pc => {
                        while let Some(front) = self.entries.front() {
                            match front.3 {
                                DrainState::InFlight { complete_at, fault }
                                    if complete_at <= now =>
                                {
                                    if let Some(kind) = fault {
                                        return Some(DrainFault { index: 0, kind });
                                    }
                                    self.entries.pop_front();
                                    self.drained += 1;
                                }
                                _ => break,
                            }
                        }
                    }
                    ConsistencyModel::Wc => loop {
                        let mut acted = false;
                        for i in 0..self.entries.len() {
                            if let DrainState::InFlight { complete_at, fault } = self.entries[i].3 {
                                if complete_at <= now {
                                    if let Some(kind) = fault {
                                        return Some(DrainFault { index: i, kind });
                                    }
                                    self.entries.remove(i);
                                    self.drained += 1;
                                    acted = true;
                                    break;
                                }
                            }
                        }
                        if !acted {
                            break;
                        }
                    },
                }
                if self.model != ConsistencyModel::Sc {
                    let mut issued = 0;
                    for i in 0..self.entries.len() {
                        if issued >= drain_width || self.in_flight() >= self.max_in_flight {
                            break;
                        }
                        if self.entries[i].3 == DrainState::Idle {
                            let (latency, fault) = issue(self.entries[i].0);
                            self.entries[i].3 = DrainState::InFlight {
                                complete_at: now + latency,
                                fault,
                            };
                            issued += 1;
                        }
                    }
                }
                None
            }

            fn record(
                e: &(Addr, u64, ByteMask, DrainState),
                code: Option<ExceptionKind>,
            ) -> FaultingStoreEntry {
                match code {
                    Some(kind) => FaultingStoreEntry::new(e.0, e.1, e.2, kind.error_code()),
                    None => FaultingStoreEntry::non_faulting(e.0, e.1, e.2),
                }
            }

            pub fn drain_to_fsb(&mut self, fault: DrainFault) -> Vec<FaultingStoreEntry> {
                let out = self
                    .entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| Self::record(e, (i == fault.index).then_some(fault.kind)))
                    .collect();
                self.entries.clear();
                out
            }

            pub fn extract_faulting(&mut self, fault: DrainFault) -> Vec<FaultingStoreEntry> {
                let e = self
                    .entries
                    .remove(fault.index)
                    .expect("fault names an entry");
                vec![Self::record(&e, Some(fault.kind))]
            }
        }
    }

    #[test]
    fn soa_ring_matches_naive_deque_buffer() {
        // Differential against the pre-rework layout: both buffers see
        // the same op stream, each issuing into its own (identical,
        // deterministic) hierarchy, so as long as they issue the same
        // addresses in the same order they receive the same latencies —
        // and every fault report, FSB record, entry and derived quantity
        // must agree each cycle. The naive buffer stores each entry's
        // drain state, so the per-entry comparison also checks that the
        // positional layout (in-flight prefix, idle suffix) describes it.
        // Up to three stores a cycle outpace the two issue ports; words
        // repeat, so WC coalesces; a denying oracle makes drains fault,
        // and each fault goes through both FSB drain policies.
        let mut cfg = SystemConfig::isca23();
        cfg.cores = 2;
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        let mut fault_after_removal = 0;
        for model in [ConsistencyModel::Pc, ConsistencyModel::Wc] {
            for cap in [None, Some(1), Some(3)] {
                for split in [false, true] {
                    let ctx = format!("({model:?}, cap {cap:?}, split {split})");
                    let mut real = StoreBuffer::new(CoreId(0), 8, model);
                    let mut naive = naive::NaiveBuffer::new(8, model);
                    if let Some(c) = cap {
                        real.set_max_in_flight(c);
                        naive.max_in_flight = c;
                    }
                    let deny = || std::rc::Rc::new(DenyHigh);
                    let mut h_real = MemoryHierarchy::with_oracle(cfg, deny());
                    let mut h_naive = MemoryHierarchy::with_oracle(cfg, deny());
                    let mut x = 0x00d1_5ea5_ed0d_dba1u64;
                    let mut lcg = move || {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        x >> 33
                    };
                    let (mut faults, mut mixed) = (0, 0);
                    for now in 0..6000u64 {
                        for _ in 0..lcg() % 4 {
                            if real.has_space() {
                                // Denied, cold (a DRAM miss, like a denial) or
                                // one of 24 hot words.
                                let word = match lcg() % 60 {
                                    0 => 0x2_0000 + lcg() % 24,
                                    1..=20 => 0x1000 + (lcg() % 2048) * 8,
                                    _ => lcg() % 24,
                                };
                                let addr = Addr::new(word * 8 + lcg() % 8);
                                let mask = ByteMask::span((addr.raw() % 8) as u8, 1);
                                let value = lcg();
                                real.push(addr, value, mask);
                                naive.push(addr, value, mask);
                            }
                        }
                        let drained_before = real.drained();
                        let rf = real.pump(now, &mut h_real);
                        let nf = naive.pump(now, 2, |addr| {
                            let r = h_naive.access(Access::store(CoreId(0), addr), now);
                            (r.latency, r.fault)
                        });
                        assert_eq!(rf, nf, "fault report at {now} {ctx}");
                        assert_eq!(
                            real.next_completion(),
                            naive.next_completion(),
                            "next_completion at fault {now} {ctx}"
                        );
                        if let Some(fault) = rf {
                            faults += 1;
                            if model == ConsistencyModel::Wc && real.drained() > drained_before {
                                fault_after_removal += 1;
                            }
                            let (r, n) = if split {
                                (
                                    real.extract_faulting(fault).unwrap(),
                                    naive.extract_faulting(fault),
                                )
                            } else {
                                (real.drain_to_fsb(fault), naive.drain_to_fsb(fault))
                            };
                            assert_eq!(r, n, "FSB records at {now} {ctx}");
                        }
                        assert_eq!(real.len(), naive.entries.len(), "len at {now} {ctx}");
                        for (i, e) in naive.entries.iter().enumerate() {
                            let got = real.entry(i);
                            assert_eq!(
                                (got.addr, got.value, got.mask),
                                (e.0, e.1, e.2),
                                "entry {i} at {now} {ctx}"
                            );
                            assert_eq!(
                                real.state(i),
                                e.3,
                                "drain state of entry {i} at {now} {ctx}"
                            );
                        }
                        assert_eq!(real.drained(), naive.drained, "drained at {now} {ctx}");
                        assert_eq!(
                            real.coalesced(),
                            naive.coalesced,
                            "coalesced at {now} {ctx}"
                        );
                        assert_eq!(
                            real.in_flight(),
                            naive.in_flight(),
                            "in_flight at {now} {ctx}"
                        );
                        assert_eq!(real.has_space(), naive.has_space());
                        assert_eq!(
                            real.next_completion(),
                            naive.next_completion(),
                            "next_completion at {now} {ctx}"
                        );
                        // Forwarding for every buffered word, a hot and a
                        // denied word that may have just left, and a word
                        // never stored.
                        let probes = naive.entries.iter().map(|e| e.0).chain([
                            Addr::new((now % 24) * 8),
                            Addr::new((0x2_0000 + now % 24) * 8),
                            Addr::new(0x4_0000 * 8),
                        ]);
                        for probe in probes {
                            assert_eq!(
                                real.forwards(probe),
                                naive.forwards(probe),
                                "forwards {probe:?} at {now} {ctx}"
                            );
                        }
                        if real.idle > 0 && real.in_flight() > 0 {
                            mixed += 1;
                        }
                    }
                    assert!(faults > 0, "no drain faulted {ctx}");
                    assert!(mixed > 0, "never idle and in flight together {ctx}");
                    if model == ConsistencyModel::Wc {
                        assert!(real.coalesced() > 0, "nothing coalesced {ctx}");
                    }
                }
            }
        }
        assert!(
            fault_after_removal > 0,
            "no fault reported after a same-cycle completion"
        );
    }
}
