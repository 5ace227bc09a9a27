//! Two-level TLB model (Table 2: L1 48 entries, L2 1024 entries).

use ise_engine::Cycle;
use ise_types::addr::PageId;
use ise_types::config::TlbConfig;

/// Sentinel for "no slot" in the intrusive list links.
const NIL: u32 = u32::MAX;

/// A single fully-associative LRU TLB level.
///
/// Entries live in a slot arena fixed at `capacity`: per-slot dense
/// arrays hold the page, a generation stamp (bumped every time the slot
/// is recycled, so a stale slot handle can never silently alias a new
/// resident), and intrusive prev/next links forming the LRU list — MRU
/// at the head, the eviction victim at the tail. A small open-addressed
/// index maps a page to its slot, replacing the previous
/// `HashMap` + `BTreeMap` tick mirror: a hit on the MRU page is one
/// compare, any other hit one probe plus a list unlink/relink, an
/// eviction pops the tail, and nothing allocates after construction.
#[derive(Debug, Clone)]
struct TlbLevel {
    capacity: usize,
    /// Page resident in each slot (valid only for linked slots).
    pages: Box<[PageId]>,
    /// Generation stamp per slot, bumped on recycle.
    gens: Box<[u32]>,
    /// Intrusive LRU list links over slots.
    next: Box<[u32]>,
    prev: Box<[u32]>,
    head: u32,
    tail: u32,
    /// Free-slot stack chained through `next`.
    free: u32,
    len: usize,
    /// Open-addressed index: `page.index() + 1` (0 = empty) -> slot.
    idx_keys: Box<[u64]>,
    idx_slots: Box<[u32]>,
    idx_gens: Box<[u32]>,
    idx_mask: usize,
}

impl TlbLevel {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB level capacity must be positive");
        // Index at <= 50% load so linear probes stay short.
        let idx_size = (capacity * 2).next_power_of_two();
        let mut level = TlbLevel {
            capacity,
            pages: vec![PageId::new(0); capacity].into_boxed_slice(),
            gens: vec![0; capacity].into_boxed_slice(),
            next: vec![NIL; capacity].into_boxed_slice(),
            prev: vec![NIL; capacity].into_boxed_slice(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
            idx_keys: vec![0; idx_size].into_boxed_slice(),
            idx_slots: vec![0; idx_size].into_boxed_slice(),
            idx_gens: vec![0; idx_size].into_boxed_slice(),
            idx_mask: idx_size - 1,
        };
        level.reset_free_list();
        level
    }

    fn reset_free_list(&mut self) {
        self.free = NIL;
        for slot in (0..self.capacity as u32).rev() {
            self.next[slot as usize] = self.free;
            self.free = slot;
        }
    }

    fn hash(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// Index position holding `page`, if resident.
    fn idx_find(&self, page: PageId) -> Option<usize> {
        let tagged = page.index() + 1;
        let mut i = Self::hash(page.index()) & self.idx_mask;
        loop {
            let k = self.idx_keys[i];
            if k == tagged {
                return Some(i);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & self.idx_mask;
        }
    }

    fn idx_insert(&mut self, page: PageId, slot: u32) {
        let tagged = page.index() + 1;
        let mut i = Self::hash(page.index()) & self.idx_mask;
        while self.idx_keys[i] != 0 {
            debug_assert_ne!(self.idx_keys[i], tagged, "page double-indexed");
            i = (i + 1) & self.idx_mask;
        }
        self.idx_keys[i] = tagged;
        self.idx_slots[i] = slot;
        self.idx_gens[i] = self.gens[slot as usize];
    }

    /// Removes the index entry at `pos`, back-shifting displaced
    /// neighbours so linear probe chains stay intact without tombstones.
    fn idx_remove_at(&mut self, mut pos: usize) {
        let mask = self.idx_mask;
        self.idx_keys[pos] = 0;
        let mut cur = (pos + 1) & mask;
        while self.idx_keys[cur] != 0 {
            let ideal = Self::hash(self.idx_keys[cur] - 1) & mask;
            // `cur` may fill the hole iff the hole lies on its probe path.
            let d_hole = pos.wrapping_sub(ideal) & mask;
            let d_cur = cur.wrapping_sub(ideal) & mask;
            if d_hole < d_cur {
                self.idx_keys[pos] = self.idx_keys[cur];
                self.idx_slots[pos] = self.idx_slots[cur];
                self.idx_gens[pos] = self.idx_gens[cur];
                self.idx_keys[cur] = 0;
                pos = cur;
            }
            cur = (cur + 1) & mask;
        }
    }

    fn unlink(&mut self, slot: u32) {
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    fn link_front(&mut self, slot: u32) {
        self.prev[slot as usize] = NIL;
        self.next[slot as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn lookup(&mut self, page: PageId) -> bool {
        // A hit on the MRU entry leaves the list as it is: relinking the
        // head is a no-op, so skip the index probe too.
        if self.head != NIL && self.pages[self.head as usize] == page {
            return true;
        }
        if let Some(i) = self.idx_find(page) {
            let slot = self.idx_slots[i];
            debug_assert_eq!(
                self.idx_gens[i], self.gens[slot as usize],
                "stale generational slot handle in TLB index"
            );
            self.unlink(slot);
            self.link_front(slot);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, page: PageId) {
        if let Some(i) = self.idx_find(page) {
            // Re-insert of a resident page: refresh to MRU.
            let slot = self.idx_slots[i];
            self.unlink(slot);
            self.link_front(slot);
            return;
        }
        if self.len >= self.capacity {
            // Evict the LRU entry: the list tail.
            let victim = self.tail;
            let vpage = self.pages[victim as usize];
            let vi = self.idx_find(vpage).expect("victim must be indexed");
            debug_assert_eq!(self.idx_slots[vi], victim);
            self.idx_remove_at(vi);
            self.unlink(victim);
            self.gens[victim as usize] = self.gens[victim as usize].wrapping_add(1);
            self.next[victim as usize] = self.free;
            self.free = victim;
            self.len -= 1;
        }
        let slot = self.free;
        debug_assert_ne!(slot, NIL, "free list exhausted below capacity");
        self.free = self.next[slot as usize];
        self.pages[slot as usize] = page;
        self.link_front(slot);
        self.idx_insert(page, slot);
        self.len += 1;
    }

    fn flush(&mut self) {
        self.idx_keys.fill(0);
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
        for g in self.gens.iter_mut() {
            *g = g.wrapping_add(1);
        }
        self.reset_free_list();
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Saves the level's logical state: capacity plus the resident pages
    /// in MRU-to-LRU order. The LRU link order is the audited contract —
    /// it fully determines future hits and eviction victims. Slot
    /// numbers, generation stamps, free-list order, and the
    /// open-addressed index layout are rebuild artifacts: no slot handle
    /// outlives a snapshot (the index is reconstructed on restore), so
    /// they are deliberately *not* captured.
    fn save_state(&self, w: &mut ise_types::persist::Writer) {
        w.section(*b"TLBL", |w| {
            w.usize(self.capacity);
            w.usize(self.len);
            let mut cur = self.head;
            while cur != NIL {
                w.u64(self.pages[cur as usize].index());
                cur = self.next[cur as usize];
            }
        });
    }

    fn restore_state(
        r: &mut ise_types::persist::Reader,
    ) -> Result<Self, ise_types::persist::PersistError> {
        use ise_types::persist::PersistError;
        r.section(*b"TLBL", |r| {
            let capacity = r.usize()?;
            if capacity == 0 {
                return Err(PersistError::Corrupt("zero-capacity TLB level"));
            }
            let n = r.usize()?;
            if n > capacity {
                return Err(PersistError::Corrupt("TLB occupancy beyond capacity"));
            }
            let mut pages = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                pages.push(PageId::new(r.u64()?));
            }
            let mut level = TlbLevel::new(capacity);
            // Insert LRU-first so each insert lands at the list head and
            // the final MRU-to-LRU order matches the saved order.
            for &page in pages.iter().rev() {
                if level.idx_find(page).is_some() {
                    return Err(PersistError::Corrupt("duplicate TLB resident page"));
                }
                level.insert(page);
            }
            Ok(level)
        })
    }

    /// Resident pages in MRU-to-LRU order (test/debug; allocates).
    #[cfg(test)]
    fn resident(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.pages[cur as usize]);
            cur = self.next[cur as usize];
        }
        out
    }
}

/// A per-core two-level data TLB.
///
/// [`Tlb::access`] returns the extra translation latency an access pays:
/// zero on an L1 hit, the L2 latency on an L1 miss that hits L2, and the
/// full page-walk latency on a double miss (with both levels refilled).
#[derive(Debug, Clone)]
pub struct Tlb {
    l1: TlbLevel,
    l2: TlbLevel,
    cfg: TlbConfig,
    l1_misses: u64,
    walks: u64,
    refill_log: Option<Vec<(PageId, bool)>>,
}

impl Tlb {
    /// Builds a TLB from its configuration.
    pub fn new(cfg: TlbConfig) -> Self {
        Tlb {
            l1: TlbLevel::new(cfg.l1_entries),
            l2: TlbLevel::new(cfg.l2_entries),
            cfg,
            l1_misses: 0,
            walks: 0,
            refill_log: None,
        }
    }

    /// Turns the refill log on or off. While on, every L1 refill and
    /// page walk is appended to a log the owner drains with
    /// [`Tlb::drain_refill_log`] — the hook the system's event trace
    /// uses. Off (the default) costs one branch per miss.
    pub fn set_refill_logging(&mut self, on: bool) {
        self.refill_log = if on { Some(Vec::new()) } else { None };
    }

    /// Takes the refills logged since the last drain as
    /// `(page, walked)` pairs: `walked` distinguishes a full page walk
    /// from an L1 refill served by the L2 TLB. Empty when logging is
    /// off.
    pub fn drain_refill_log(&mut self) -> Vec<(PageId, bool)> {
        match &mut self.refill_log {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Translates an access to `page`, returning extra latency in cycles.
    pub fn access(&mut self, page: PageId) -> Cycle {
        if self.l1.lookup(page) {
            return 0;
        }
        self.l1_misses += 1;
        if self.l2.lookup(page) {
            self.l1.insert(page);
            if let Some(log) = &mut self.refill_log {
                log.push((page, false));
            }
            return self.cfg.l2_latency;
        }
        self.walks += 1;
        self.l2.insert(page);
        self.l1.insert(page);
        if let Some(log) = &mut self.refill_log {
            log.push((page, true));
        }
        self.cfg.walk_latency
    }

    /// Invalidates all entries (TLB shootdown / context switch).
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
    }

    /// Returns the TLB to the state [`Tlb::new`] builds: both levels
    /// flushed, the miss and walk counters zeroed, refill logging off.
    pub(crate) fn reset(&mut self) {
        self.flush();
        self.l1_misses = 0;
        self.walks = 0;
        self.refill_log = None;
    }

    /// L1 TLB misses observed.
    pub fn l1_misses(&self) -> u64 {
        self.l1_misses
    }

    /// Page walks performed.
    pub fn walks(&self) -> u64 {
        self.walks
    }

    /// Exports this TLB's counters into the shared telemetry registry.
    /// Counters *add*, so calling this for every core's TLB under the
    /// same keys yields the system-wide aggregate.
    pub fn export_telemetry(&self, reg: &mut ise_telemetry::Registry) {
        reg.add("tlb.l1_misses", self.l1_misses);
        reg.add("tlb.walks", self.walks);
    }
}

impl ise_types::persist::Persist for Tlb {
    /// Both levels' LRU orders, the miss/walk counters, and any
    /// undrained refill-log entries are captured, so a restored TLB hits,
    /// misses, evicts, and traces exactly like the original.
    fn save(&self, w: &mut ise_types::persist::Writer) {
        w.section(*b"TLB0", |w| {
            w.usize(self.cfg.l1_entries);
            w.usize(self.cfg.l2_entries);
            w.u64(self.cfg.l2_latency);
            w.u64(self.cfg.walk_latency);
            self.l1.save_state(w);
            self.l2.save_state(w);
            w.u64(self.l1_misses);
            w.u64(self.walks);
            self.refill_log.save(w);
        });
    }
    fn restore(
        r: &mut ise_types::persist::Reader,
    ) -> Result<Self, ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"TLB0", |r| {
            let cfg = TlbConfig {
                l1_entries: r.usize()?,
                l2_entries: r.usize()?,
                l2_latency: r.u64()?,
                walk_latency: r.u64()?,
            };
            let l1 = TlbLevel::restore_state(r)?;
            let l2 = TlbLevel::restore_state(r)?;
            if l1.capacity != cfg.l1_entries || l2.capacity != cfg.l2_entries {
                return Err(PersistError::Corrupt("TLB level/config capacity skew"));
            }
            Ok(Tlb {
                l1,
                l2,
                cfg,
                l1_misses: r.u64()?,
                walks: r.u64()?,
                refill_log: Persist::restore(r)?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(TlbConfig::isca23())
    }

    #[test]
    fn first_access_walks_then_hits() {
        let mut t = tlb();
        let p = PageId::new(7);
        assert_eq!(t.access(p), TlbConfig::isca23().walk_latency);
        assert_eq!(t.access(p), 0);
        assert_eq!(t.walks(), 1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut t = tlb();
        // Fill L1 beyond capacity.
        for i in 0..49 {
            t.access(PageId::new(i));
        }
        // Page 0 was LRU-evicted from the 48-entry L1 but still sits in L2.
        assert_eq!(t.access(PageId::new(0)), TlbConfig::isca23().l2_latency);
    }

    #[test]
    fn flush_forces_rewalk() {
        let mut t = tlb();
        let p = PageId::new(3);
        t.access(p);
        t.flush();
        assert_eq!(t.access(p), TlbConfig::isca23().walk_latency);
        assert_eq!(t.walks(), 2);
    }

    #[test]
    fn l2_capacity_much_larger_than_l1() {
        let mut t = tlb();
        for i in 0..1024 {
            t.access(PageId::new(i));
        }
        // A page well within L2 reach but outside L1 hits L2.
        let lat = t.access(PageId::new(500));
        assert_eq!(lat, TlbConfig::isca23().l2_latency);
    }

    #[test]
    fn refill_log_distinguishes_walks_from_l2_hits() {
        let mut t = tlb();
        t.set_refill_logging(true);
        let p = PageId::new(9);
        t.access(p);
        assert_eq!(t.drain_refill_log(), vec![(p, true)]);
        // Evict `p` from the 48-entry L1 (it stays resident in L2).
        for i in 100..148 {
            t.access(PageId::new(i));
        }
        t.drain_refill_log();
        t.access(p);
        assert_eq!(t.drain_refill_log(), vec![(p, false)]);
        t.set_refill_logging(false);
        t.access(PageId::new(999));
        assert!(t.drain_refill_log().is_empty());
    }

    /// A naive full-scan LRU, kept as the behavioural reference for the
    /// intrusive-list arena level.
    struct NaiveLru {
        capacity: usize,
        entries: std::collections::HashMap<PageId, u64>,
        tick: u64,
    }

    impl NaiveLru {
        fn lookup(&mut self, page: PageId) -> bool {
            self.tick += 1;
            if let Some(lru) = self.entries.get_mut(&page) {
                *lru = self.tick;
                true
            } else {
                false
            }
        }

        fn insert(&mut self, page: PageId) {
            self.tick += 1;
            if self.entries.len() >= self.capacity && !self.entries.contains_key(&page) {
                if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, &lru)| lru) {
                    self.entries.remove(&victim);
                }
            }
            let tick = self.tick;
            self.entries.insert(page, tick);
        }
    }

    impl NaiveLru {
        /// Resident pages, most recently used first.
        fn order(&self) -> Vec<PageId> {
            let mut by_age: Vec<_> = self.entries.iter().map(|(&p, &t)| (t, p)).collect();
            by_age.sort_unstable_by(|a, b| b.cmp(a));
            by_age.into_iter().map(|(_, p)| p).collect()
        }
    }

    /// Drives the arena level and the naive scan through the same
    /// lookup stream (inserting on every miss, as `Tlb::access` does)
    /// and checks hits, occupancy and the full MRU-to-LRU order after
    /// every step. Returns how many lookups hit the list head.
    fn replay_against_naive(pages: impl Iterator<Item = PageId>) -> usize {
        let mut fast = TlbLevel::new(8);
        let mut naive = NaiveLru {
            capacity: 8,
            entries: std::collections::HashMap::new(),
            tick: 0,
        };
        let mut head_hits = 0;
        for (step, page) in pages.enumerate() {
            head_hits += usize::from(fast.resident().first() == Some(&page));
            let hit_fast = fast.lookup(page);
            let hit_naive = naive.lookup(page);
            assert_eq!(hit_fast, hit_naive, "hit/miss diverged on {page:?}");
            if !hit_fast {
                fast.insert(page);
                naive.insert(page);
            }
            assert!(fast.len() <= 8, "capacity exceeded");
            assert_eq!(fast.len(), naive.entries.len(), "occupancy skew");
            assert_eq!(fast.resident(), naive.order(), "LRU order at step {step}");
        }
        head_hits
    }

    fn xorshift(mut x: u64) -> impl Iterator<Item = u64> {
        std::iter::repeat_with(move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
    }

    #[test]
    fn arena_level_matches_naive_lru_scan() {
        // A deterministic pseudo-random mix of hits, misses, and
        // re-touches over a working set larger than the capacity.
        let random = xorshift(0x2545_F491).map(|x| PageId::new(x % 24));
        replay_against_naive(random.take(4_000));
        // Runs of one to eight lookups of the same page, the way a core
        // walks through a page: most lookups hit the list head, which
        // `lookup` answers without touching the list.
        let runs = xorshift(0x9E37_79B9)
            .flat_map(|x| std::iter::repeat_n(PageId::new(x % 24), (x >> 40) as usize % 8 + 1));
        let head_hits = replay_against_naive(runs.take(4_000));
        assert!(head_hits > 2_000, "only {head_hits} head hits");
    }

    #[test]
    fn arena_list_order_is_mru_to_lru() {
        let mut l = TlbLevel::new(3);
        for p in [1, 2, 3] {
            l.insert(PageId::new(p));
        }
        assert_eq!(
            l.resident(),
            vec![PageId::new(3), PageId::new(2), PageId::new(1)]
        );
        // Touch 1: becomes MRU.
        assert!(l.lookup(PageId::new(1)));
        assert_eq!(
            l.resident(),
            vec![PageId::new(1), PageId::new(3), PageId::new(2)]
        );
        // Insert over capacity: 2 (the tail) is evicted.
        l.insert(PageId::new(4));
        assert_eq!(
            l.resident(),
            vec![PageId::new(4), PageId::new(1), PageId::new(3)]
        );
        assert!(!l.lookup(PageId::new(2)));
    }

    #[test]
    fn persist_round_trip_preserves_lru_order_and_counters() {
        use ise_types::persist::{restore_container, save_container};
        let mut t = tlb();
        t.set_refill_logging(true);
        // Populate both levels with an L1-overflowing working set, leave
        // undrained refill-log entries pending.
        for i in 0..200 {
            t.access(PageId::new(i % 80));
        }
        let bytes = save_container(&t);
        let mut back: Tlb = restore_container(&bytes).unwrap();
        assert_eq!(save_container(&back), bytes);
        assert_eq!(back.l1_misses(), t.l1_misses());
        assert_eq!(back.walks(), t.walks());
        assert_eq!(back.l1.resident(), t.l1.resident());
        assert_eq!(back.l2.resident(), t.l2.resident());
        // Identical latency stream from here: same hits, same victims.
        for i in 0..400u64 {
            let p = PageId::new((i * 7) % 90);
            assert_eq!(back.access(p), t.access(p), "diverged at access {i}");
        }
        assert_eq!(back.drain_refill_log(), t.drain_refill_log());
    }

    #[test]
    fn flush_bumps_generations_and_empties_level() {
        let mut l = TlbLevel::new(4);
        l.insert(PageId::new(10));
        l.insert(PageId::new(11));
        let g_before = l.gens[0];
        l.flush();
        assert_eq!(l.len(), 0);
        assert!(l.resident().is_empty());
        assert_eq!(l.gens[0], g_before.wrapping_add(1));
        assert!(!l.lookup(PageId::new(10)));
        // The level is fully usable after a flush.
        for p in 0..8 {
            l.insert(PageId::new(p));
        }
        assert_eq!(l.len(), 4);
    }
}
