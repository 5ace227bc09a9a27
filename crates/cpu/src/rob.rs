//! Ring arenas for the reorder buffer and the replay queue.
//!
//! Both queues are bounded by `rob_entries` (flushed instructions move
//! ROB → replay one-for-one and the trace only feeds the ROB while the
//! replay queue is empty, so `rob.len + replay.len <= rob_entries` is an
//! invariant), which makes a fixed ring over struct-of-arrays storage
//! sufficient: no per-entry allocation on dispatch, retire, or flush.
//!
//! [`RobRing`] additionally maintains an open-addressed multiset of the
//! 8-byte words targeted by in-ROB stores, so the store-to-load
//! forwarding probe ([`RobRing::forwards_store`]) is a hash lookup
//! instead of a scan over every ROB entry per dispatched load.
//!
//! The per-instruction operations (`push_back`, `front`, `pop_front`)
//! are `#[inline]`, and `push_back` takes the instruction and its
//! outcome as separate arguments, so an `Instruction` moves from the
//! trace into its ring slot with no stack temporary in between. A
//! temporary copied across an out-of-line call is reloaded with
//! narrower loads than it was stored with: a store-forwarding stall on
//! every dispatch.

use ise_engine::Cycle;
use ise_types::exception::ExceptionKind;
use ise_types::instr::InstrKind;
use ise_types::Instruction;

/// One in-flight instruction, as the retirement stage sees it
/// ([`RobRing::front`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RobEntry {
    pub instr: Instruction,
    pub complete_at: Cycle,
    pub fault: Option<ExceptionKind>,
    /// For atomics and SC stores: whether the memory access has been
    /// issued (they access memory non-speculatively at the ROB head).
    pub issued: bool,
}

#[inline]
fn store_word(instr: &Instruction) -> Option<u64> {
    match instr.kind {
        InstrKind::Store { addr, .. } => Some(addr.raw() >> 3),
        _ => None,
    }
}

/// The reorder buffer: a fixed-capacity FIFO ring in SoA layout.
#[derive(Debug)]
pub(crate) struct RobRing {
    instrs: Box<[Instruction]>,
    complete_at: Box<[Cycle]>,
    faults: Box<[Option<ExceptionKind>]>,
    issued: Box<[bool]>,
    head: usize,
    len: usize,
    ring_mask: usize,
    /// Open-addressed word -> count multiset of in-ROB store targets
    /// (tagged keys: `word + 1`, 0 = empty slot).
    word_keys: Box<[u64]>,
    word_counts: Box<[u32]>,
    word_mask: usize,
}

impl RobRing {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ROB needs capacity");
        let ring = capacity.next_power_of_two();
        // <= 50% load at full occupancy keeps probe chains short.
        let words = (capacity * 2).next_power_of_two();
        RobRing {
            instrs: vec![Instruction::other(); ring].into_boxed_slice(),
            complete_at: vec![0; ring].into_boxed_slice(),
            faults: vec![None; ring].into_boxed_slice(),
            issued: vec![false; ring].into_boxed_slice(),
            head: 0,
            len: 0,
            ring_mask: ring - 1,
            word_keys: vec![0; words].into_boxed_slice(),
            word_counts: vec![0; words].into_boxed_slice(),
            word_mask: words - 1,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) & self.ring_mask
    }

    #[inline]
    fn entry_at(&self, s: usize) -> RobEntry {
        RobEntry {
            instr: self.instrs[s],
            complete_at: self.complete_at[s],
            fault: self.faults[s],
            issued: self.issued[s],
        }
    }

    /// The oldest entry, by value.
    #[inline]
    pub fn front(&self) -> Option<RobEntry> {
        (self.len > 0).then(|| self.entry_at(self.head))
    }

    /// Marks the head issued with its access outcome (atomics and SC
    /// stores issuing non-speculatively at the head).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn head_mark_issued(&mut self, complete_at: Cycle, fault: Option<ExceptionKind>) {
        assert!(self.len > 0, "no head to mark issued");
        self.issued[self.head] = true;
        self.complete_at[self.head] = complete_at;
        self.faults[self.head] = fault;
    }

    /// Appends a dispatched instruction with its completion cycle and
    /// access outcome. It enters unissued: only the head is ever issued
    /// ([`RobRing::head_mark_issued`]).
    ///
    /// # Panics
    ///
    /// Panics if the ring is full (callers gate on `rob_entries`).
    #[inline]
    pub fn push_back(
        &mut self,
        instr: Instruction,
        complete_at: Cycle,
        fault: Option<ExceptionKind>,
    ) {
        assert!(self.len <= self.ring_mask, "ROB ring overflow");
        let s = self.slot(self.len);
        self.instrs[s] = instr;
        self.complete_at[s] = complete_at;
        self.faults[s] = fault;
        self.issued[s] = false;
        self.len += 1;
        if let Some(w) = store_word(&instr) {
            self.word_insert(w);
        }
    }

    /// Retires the oldest entry.
    #[inline]
    pub fn pop_front(&mut self) -> Option<Instruction> {
        if self.len == 0 {
            return None;
        }
        let instr = self.instrs[self.head];
        self.head = (self.head + 1) & self.ring_mask;
        self.len -= 1;
        if let Some(w) = store_word(&instr) {
            self.word_remove(w);
        }
        Some(instr)
    }

    /// Squashes the youngest entry (pipeline flush walks back to front).
    pub fn pop_back(&mut self) -> Option<Instruction> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let instr = self.instrs[self.slot(self.len)];
        if let Some(w) = store_word(&instr) {
            self.word_remove(w);
        }
        Some(instr)
    }

    /// Whether an in-ROB store targets the 8-byte word containing `word`
    /// (the `addr >> 3` key) — the store-to-load forwarding source.
    pub fn forwards_store(&self, word: u64) -> bool {
        let tagged = word + 1;
        let mut i = Self::hash(word) & self.word_mask;
        loop {
            let k = self.word_keys[i];
            if k == tagged {
                return true;
            }
            if k == 0 {
                return false;
            }
            i = (i + 1) & self.word_mask;
        }
    }

    fn hash(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    fn word_insert(&mut self, word: u64) {
        let tagged = word + 1;
        let mut i = Self::hash(word) & self.word_mask;
        loop {
            let k = self.word_keys[i];
            if k == tagged {
                self.word_counts[i] += 1;
                return;
            }
            if k == 0 {
                self.word_keys[i] = tagged;
                self.word_counts[i] = 1;
                return;
            }
            i = (i + 1) & self.word_mask;
        }
    }

    fn word_remove(&mut self, word: u64) {
        let tagged = word + 1;
        let mut i = Self::hash(word) & self.word_mask;
        while self.word_keys[i] != tagged {
            // Checked in release too: an untracked word would cycle the
            // probe table forever.
            assert_ne!(self.word_keys[i], 0, "removing an untracked store word");
            i = (i + 1) & self.word_mask;
        }
        self.word_counts[i] -= 1;
        if self.word_counts[i] == 0 {
            self.word_remove_at(i);
        }
    }

    /// Saves the logical FIFO contents: occupancy, then entries oldest →
    /// youngest. Ring slot positions and the store-word index layout are
    /// rebuild artifacts (the restore replays `push_back`, which
    /// re-derives both), so they are *not* part of the audited snapshot
    /// contract.
    pub fn save_state(&self, w: &mut ise_types::persist::Writer) {
        use ise_types::persist::Persist;
        w.section(*b"ROB0", |w| {
            w.usize(self.len);
            for i in 0..self.len {
                let e = self.entry_at(self.slot(i));
                e.instr.save(w);
                w.u64(e.complete_at);
                e.fault.save(w);
                w.bool(e.issued);
            }
        });
    }

    /// Rebuilds a ring of `capacity` entries by replaying the saved
    /// entries through [`RobRing::push_back`] (then restoring each
    /// entry's issued flag).
    pub fn restore_state(
        r: &mut ise_types::persist::Reader,
        capacity: usize,
    ) -> Result<Self, ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"ROB0", |r| {
            let len = r.usize()?;
            if len > capacity {
                return Err(PersistError::Corrupt("ROB occupancy beyond capacity"));
            }
            let mut ring = RobRing::new(capacity);
            for _ in 0..len {
                let instr = Persist::restore(r)?;
                let complete_at = r.u64()?;
                let fault = Persist::restore(r)?;
                ring.push_back(instr, complete_at, fault);
                let s = ring.slot(ring.len - 1);
                ring.issued[s] = r.bool()?;
            }
            Ok(ring)
        })
    }

    /// Removes the index entry at `pos`, back-shifting displaced
    /// neighbours so linear probe chains stay intact without tombstones.
    fn word_remove_at(&mut self, mut pos: usize) {
        let mask = self.word_mask;
        self.word_keys[pos] = 0;
        let mut cur = (pos + 1) & mask;
        while self.word_keys[cur] != 0 {
            let ideal = Self::hash(self.word_keys[cur] - 1) & mask;
            // `cur` may fill the hole iff the hole lies on its probe path.
            let d_hole = pos.wrapping_sub(ideal) & mask;
            let d_cur = cur.wrapping_sub(ideal) & mask;
            if d_hole < d_cur {
                self.word_keys[pos] = self.word_keys[cur];
                self.word_counts[pos] = self.word_counts[cur];
                self.word_keys[cur] = 0;
                pos = cur;
            }
            cur = (cur + 1) & mask;
        }
    }
}

/// The replay queue: flushed instructions awaiting re-dispatch, oldest
/// first. A fixed ring sized like the ROB (see the module docs for why
/// that bound holds); flushes prepend, dispatch pops from the front.
#[derive(Debug)]
pub(crate) struct ReplayRing {
    instrs: Box<[Instruction]>,
    head: usize,
    len: usize,
    ring_mask: usize,
}

impl ReplayRing {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay queue needs capacity");
        let ring = capacity.next_power_of_two();
        ReplayRing {
            instrs: vec![Instruction::other(); ring].into_boxed_slice(),
            head: 0,
            len: 0,
            ring_mask: ring - 1,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Prepends a squashed instruction (it is older than everything
    /// already queued).
    ///
    /// # Panics
    ///
    /// Panics if the ring is full.
    pub fn push_front(&mut self, instr: Instruction) {
        assert!(self.len <= self.ring_mask, "replay ring overflow");
        self.head = self.head.wrapping_sub(1) & self.ring_mask;
        self.instrs[self.head] = instr;
        self.len += 1;
    }

    /// Pops the oldest queued instruction.
    pub fn pop_front(&mut self) -> Option<Instruction> {
        if self.len == 0 {
            return None;
        }
        let instr = self.instrs[self.head];
        self.head = (self.head + 1) & self.ring_mask;
        self.len -= 1;
        Some(instr)
    }

    /// Saves the queued instructions oldest → youngest.
    pub fn save_state(&self, w: &mut ise_types::persist::Writer) {
        use ise_types::persist::Persist;
        w.section(*b"RPLY", |w| {
            w.usize(self.len);
            for i in 0..self.len {
                self.instrs[(self.head + i) & self.ring_mask].save(w);
            }
        });
    }

    /// Rebuilds a ring of `capacity` entries. Replays `push_front` in
    /// reverse saved order (youngest first) so the oldest instruction
    /// ends up at the front, as it was.
    pub fn restore_state(
        r: &mut ise_types::persist::Reader,
        capacity: usize,
    ) -> Result<Self, ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"RPLY", |r| {
            let len = r.usize()?;
            if len > capacity {
                return Err(PersistError::Corrupt("replay occupancy beyond capacity"));
            }
            let mut instrs = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                instrs.push(Instruction::restore(r)?);
            }
            let mut ring = ReplayRing::new(capacity);
            for instr in instrs.into_iter().rev() {
                ring.push_front(instr);
            }
            Ok(ring)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::addr::Addr;
    use ise_types::instr::Reg;
    use std::collections::VecDeque;

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 33
    }

    #[test]
    fn ring_matches_naive_deque_under_random_ops() {
        // Differential: the SoA ring plus its store-word index must agree
        // with a naive `VecDeque<RobEntry>` (the pre-rework layout, with
        // forwarding as a linear scan) under a random op mix.
        let cap = 16;
        let mut ring = RobRing::new(cap);
        let mut naive: VecDeque<RobEntry> = VecDeque::new();
        let mut x = 0x5eed_cafe_f00d_0001u64;
        for step in 0..20_000u64 {
            match lcg(&mut x) % 10 {
                // Push (bounded like dispatch is).
                0..=4 => {
                    if naive.len() < cap {
                        let instr = if lcg(&mut x).is_multiple_of(2) {
                            Instruction::store(Addr::new((lcg(&mut x) % 96) * 8), step)
                        } else {
                            Instruction::load(Addr::new((lcg(&mut x) % 96) * 8), Reg(0))
                        };
                        let e = RobEntry {
                            instr,
                            complete_at: lcg(&mut x) % 1000,
                            fault: None,
                            issued: false,
                        };
                        ring.push_back(e.instr, e.complete_at, e.fault);
                        naive.push_back(e);
                    }
                }
                5..=6 => {
                    assert_eq!(
                        ring.pop_front().map(|i| i.kind),
                        naive.pop_front().map(|e| e.instr.kind)
                    );
                }
                7 => {
                    assert_eq!(
                        ring.pop_back().map(|i| i.kind),
                        naive.pop_back().map(|e| e.instr.kind)
                    );
                }
                8 => {
                    if !naive.is_empty() {
                        let c = lcg(&mut x) % 500;
                        ring.head_mark_issued(c, None);
                        let h = naive.front_mut().unwrap();
                        h.issued = true;
                        h.complete_at = c;
                    }
                }
                _ => {
                    let word = lcg(&mut x) % 96;
                    let scan = naive.iter().any(|e| {
                        matches!(e.instr.kind,
                            InstrKind::Store { addr, .. } if addr.raw() >> 3 == word)
                    });
                    assert_eq!(ring.forwards_store(word), scan, "word {word} at {step}");
                }
            }
            assert_eq!(ring.len(), naive.len());
            match (ring.front(), naive.front()) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a.instr.kind, b.instr.kind);
                    assert_eq!(a.complete_at, b.complete_at);
                    assert_eq!(a.issued, b.issued);
                }
                (a, b) => panic!("front diverged: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn replay_ring_is_a_deque_front() {
        let mut r = ReplayRing::new(8);
        assert!(r.is_empty());
        r.push_front(Instruction::store(Addr::new(8), 1));
        r.push_front(Instruction::store(Addr::new(16), 2));
        // Last pushed is oldest, so it pops first.
        assert!(matches!(
            r.pop_front().unwrap().kind,
            InstrKind::Store { addr, .. } if addr.raw() == 16
        ));
        assert!(matches!(
            r.pop_front().unwrap().kind,
            InstrKind::Store { addr, .. } if addr.raw() == 8
        ));
        assert!(r.pop_front().is_none());
    }

    #[test]
    fn rob_persist_round_trip_rebuilds_word_index() {
        use ise_types::persist::{Reader, Writer};
        let mut ring = RobRing::new(8);
        // Wrap the head so saved logical order differs from slot order.
        for i in 0..5u64 {
            ring.push_back(Instruction::store(Addr::new(i * 8), i), 10 + i, None);
        }
        ring.pop_front();
        ring.pop_front();
        ring.push_back(
            Instruction::load(Addr::new(0x40), Reg(1)),
            99,
            Some(ise_types::exception::ExceptionKind::BusError),
        );
        // The issued flag and access outcome round-trip at the head.
        ring.head_mark_issued(77, Some(ise_types::exception::ExceptionKind::PageFault));
        let mut w = Writer::container();
        ring.save_state(&mut w);
        let bytes = w.finish();
        let mut r = Reader::container(&bytes).unwrap();
        let back = RobRing::restore_state(&mut r, 8).unwrap();
        // Re-save is byte-identical: logical order is the canonical form.
        let mut w2 = Writer::container();
        back.save_state(&mut w2);
        assert_eq!(w2.finish(), bytes);
        assert_eq!(back.len(), ring.len());
        let (a, b) = (back.front().unwrap(), ring.front().unwrap());
        assert_eq!(a.instr, b.instr);
        assert_eq!(a.complete_at, b.complete_at);
        assert_eq!(a.fault, b.fault);
        assert_eq!(a.issued, b.issued);
        // The store-word multiset was rebuilt by the push_back replay.
        for word in 0..8u64 {
            assert_eq!(back.forwards_store(word), ring.forwards_store(word));
        }
    }

    #[test]
    fn rob_restore_rejects_occupancy_beyond_capacity() {
        use ise_types::persist::{PersistError, Reader, Writer};
        let mut ring = RobRing::new(8);
        for i in 0..6u64 {
            ring.push_back(Instruction::store(Addr::new(i * 8), i), 0, None);
        }
        let mut w = Writer::container();
        ring.save_state(&mut w);
        let bytes = w.finish();
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            RobRing::restore_state(&mut r, 4),
            Err(PersistError::Corrupt("ROB occupancy beyond capacity"))
        ));
    }

    #[test]
    fn replay_persist_round_trip_preserves_pop_order() {
        use ise_types::persist::{Reader, Writer};
        let mut ring = ReplayRing::new(8);
        for i in 0..4u64 {
            ring.push_front(Instruction::store(Addr::new(i * 8), i));
        }
        let mut w = Writer::container();
        ring.save_state(&mut w);
        let bytes = w.finish();
        let mut r = Reader::container(&bytes).unwrap();
        let mut back = ReplayRing::restore_state(&mut r, 8).unwrap();
        let mut w2 = Writer::container();
        back.save_state(&mut w2);
        assert_eq!(w2.finish(), bytes);
        loop {
            let (a, b) = (ring.pop_front(), back.pop_front());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn word_index_survives_wraparound_churn() {
        // Push/pop far past the ring size so head wraps many times; the
        // word index must stay exact throughout.
        let mut ring = RobRing::new(4);
        for i in 0..1000u64 {
            ring.push_back(Instruction::store(Addr::new((i % 7) * 8), i), 0, None);
            assert!(ring.forwards_store(i % 7));
            if i % 3 == 0 {
                ring.pop_back();
            } else {
                ring.pop_front();
            }
            assert_eq!(ring.len(), 0, "every iteration drains what it pushed");
        }
        for w in 0..7 {
            assert!(!ring.forwards_store(w), "empty ROB forwards nothing");
        }
    }

    #[test]
    #[should_panic(expected = "removing an untracked store word")]
    fn removing_an_untracked_word_panics_instead_of_spinning() {
        let mut ring = RobRing::new(4);
        ring.push_back(Instruction::store(Addr::new(8), 1), 0, None);
        ring.word_remove(2);
    }
}
