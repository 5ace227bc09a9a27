//! Set-associative cache tag arrays with LRU replacement.
//!
//! Tag state is struct-of-arrays, allocated on first touch. The sets are
//! grouped into chunks of `CHUNK_SETS`; one allocation per chunk holds
//! its tags (each carrying its valid flag), LRU stamps and packed dirty
//! flags, indexed by `(set % CHUNK_SETS) * ways + way`. The first
//! `insert` into a chunk's sets creates it. Probing a chunk that does
//! not exist reports a miss and allocates nothing, so building an array
//! costs one pointer per chunk instead of zero-filling every slot (an
//! `l2_isca23` tile has 16 384 lines; a short run touches a few
//! hundred). A chunk, once created, never reallocates.
//!
//! A missing chunk behaves exactly like a zero-filled one, so the
//! persisted `CACH` section keeps the dense encoding of a flat array:
//! missing chunks are written as zeros, and restore creates only the
//! chunks that hold a nonzero byte.
//!
//! Splitting a line into set and tag divides its block number by the
//! set count, which need not be a power of two. `BlockDivisor` does
//! that with one multiply and a shift, for every set count.

use ise_types::addr::{Addr, LINE_SIZE};
use ise_types::config::CacheConfig;
use ise_types::persist::{Persist, PersistError, Reader, Writer};

const FLAG_VALID: u8 = 1 << 0;
const FLAG_DIRTY: u8 = 1 << 1;
/// A chunk keeps each way's valid flag in the top bit of its tag word
/// (tags are block numbers over the set count, below `2^58`), so a way
/// search compares tag words only and never reads the flag bytes.
const TAG_VALID: u64 = 1 << 63;

/// Sets per lazily allocated chunk. Smaller chunks zero-fill less per
/// touched set; eight keeps a chunk of an `l2_isca23` tile near 2 KiB
/// and its chunk table at 128 entries (DESIGN.md §15 on why not 16).
const CHUNK_SETS: usize = 8;

/// Division-free `block / d` and `block % d` for any divisor `d >= 1`,
/// where `block` is the block number of a line address
/// (`addr / LINE_SIZE`, so below `2^BLOCK_BITS`).
///
/// The quotient is `(block * magic) >> shift` with
/// `magic = ceil(2^shift / d)` and `shift = BLOCK_BITS + ceil(log2 d)`.
/// That is exact: `block * magic / 2^shift = block / d + ε` with
/// `0 <= ε < 2^BLOCK_BITS / 2^shift <= 1 / d`, too small to carry
/// `block / d` past the next integer. `magic` fits 64 bits
/// (`2^58 <= magic <= 2^59`) and the product 128. A power of two takes
/// the same path (`magic` is then exactly `2^shift / d`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockDivisor {
    d: u64,
    magic: u64,
    shift: u32,
}

impl BlockDivisor {
    /// Bits in the block number of a 64-bit line address.
    const BLOCK_BITS: u32 = u64::BITS - LINE_SIZE.trailing_zeros();

    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub(crate) fn new(d: u64) -> Self {
        assert!(d > 0, "division by zero");
        let shift = Self::BLOCK_BITS + (u64::BITS - (d - 1).leading_zeros());
        let magic = (1u128 << shift).div_ceil(u128::from(d));
        BlockDivisor {
            d,
            magic: u64::try_from(magic).expect("magic fits 64 bits"),
            shift,
        }
    }

    /// The divisor.
    pub(crate) fn get(self) -> u64 {
        self.d
    }

    /// `(block / d, block % d)` of the line at `line`.
    #[inline]
    pub(crate) fn split(self, line: Addr) -> (u64, u64) {
        let block = line.raw() / LINE_SIZE;
        let q = ((u128::from(block) * u128::from(self.magic)) >> self.shift) as u64;
        (q, block - q * self.d)
    }
}

/// The slots of up to `CHUNK_SETS` consecutive sets in one allocation:
/// the `slots` tags (each with its valid flag, see [`TAG_VALID`]), then
/// the `slots` LRU stamps, then the `slots` other flag bytes packed
/// eight to a word in little-endian byte order.
#[derive(Debug, Clone)]
struct Chunk {
    words: Box<[u64]>,
    slots: usize,
}

impl Chunk {
    fn zeroed(slots: usize) -> Self {
        Chunk {
            words: vec![0; 2 * slots + slots.div_ceil(8)].into_boxed_slice(),
            slots,
        }
    }

    fn tag(&self, i: usize) -> u64 {
        self.words[i] & !TAG_VALID
    }

    fn is_valid(&self, i: usize) -> bool {
        self.words[i] & TAG_VALID != 0
    }

    fn lru(&self, i: usize) -> u64 {
        self.words[self.slots + i]
    }

    fn flags(&self, i: usize) -> u8 {
        (self.words[2 * self.slots + i / 8] >> (i % 8 * 8)) as u8 | u8::from(self.is_valid(i))
    }

    fn set_lru(&mut self, i: usize, stamp: u64) {
        self.words[self.slots + i] = stamp;
    }

    fn set_flags(&mut self, i: usize, flags: u8) {
        self.words[i] = self.words[i] & !TAG_VALID | u64::from(flags & FLAG_VALID) << 63;
        let shift = i % 8 * 8;
        let word = &mut self.words[2 * self.slots + i / 8];
        *word = *word & !(0xff << shift) | u64::from(flags & !FLAG_VALID) << shift;
    }

    fn fill(&mut self, i: usize, tag: u64, stamp: u64, flags: u8) {
        self.words[i] = tag;
        self.set_lru(i, stamp);
        self.set_flags(i, flags);
    }

    /// Slot of the valid way holding `tag` in the `ways` slots from
    /// `base` (an invalidated way keeps its stale tag without the valid
    /// bit, so it never matches).
    #[inline]
    fn find(&self, base: usize, ways: usize, tag: u64) -> Option<usize> {
        self.search(base, ways, tag).0
    }

    /// The slots of the valid way holding `tag` ([`Chunk::find`]) and of
    /// the first invalid way. One pass over the set's tag words with no
    /// early exit: it runs from the last way down and keeps each match
    /// with a select, so the value left is the first way, and the control
    /// flow does not depend on which way holds the line.
    #[inline]
    fn search(&self, base: usize, ways: usize, tag: u64) -> (Option<usize>, Option<usize>) {
        let key = tag | TAG_VALID;
        let (mut hit, mut free) = (usize::MAX, usize::MAX);
        for (way, &t) in self.words[base..base + ways].iter().enumerate().rev() {
            hit = if t == key { way } else { hit };
            free = if t & TAG_VALID == 0 { way } else { free };
        }
        let slot = |way| (way != usize::MAX).then(|| base + way);
        (slot(hit), slot(free))
    }

    /// Slot of the first way with the least LRU stamp among the `ways`
    /// slots from `base`, in one pass with no early exit like
    /// [`Chunk::search`]'s.
    #[inline]
    fn victim(&self, base: usize, ways: usize) -> usize {
        let stamps = &self.words[self.slots + base..self.slots + base + ways];
        let (mut victim, mut least) = (0, u64::MAX);
        for (way, &stamp) in stamps.iter().enumerate().rev() {
            let older = stamp <= least;
            victim = if older { way } else { victim };
            least = if older { stamp } else { least };
        }
        base + victim
    }
}

/// A set-associative tag array (no data — the hierarchy is
/// timing-directed; see the crate docs).
///
/// Lines are identified by their line-aligned address.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// One entry per `CHUNK_SETS` sets, `None` until a line is inserted
    /// into one of them.
    chunks: Box<[Option<Chunk>]>,
    ways: usize,
    /// The set count, as the divisor that splits a line into tag and set.
    sets: BlockDivisor,
    tick: u64,
}

/// The result of inserting a line: what had to leave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eviction {
    /// An invalid way was used; nothing evicted.
    None,
    /// A clean line was silently dropped.
    Clean(Addr),
    /// A dirty line must be written back.
    Dirty(Addr),
}

impl CacheArray {
    /// Builds an array from a cache configuration and the global 64 B
    /// block size.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or zero ways.
    pub fn new(cfg: &CacheConfig) -> Self {
        let set_count = cfg.sets(LINE_SIZE as usize);
        assert!(set_count > 0 && cfg.ways > 0, "degenerate cache geometry");
        Self::empty(cfg.ways, set_count, 0)
    }

    fn empty(ways: usize, set_count: usize, tick: u64) -> Self {
        CacheArray {
            chunks: vec![None; set_count.div_ceil(CHUNK_SETS)].into_boxed_slice(),
            ways,
            sets: BlockDivisor::new(set_count as u64),
            tick,
        }
    }

    /// Slots of chunk `c` (the last chunk holds fewer sets when
    /// `CHUNK_SETS` does not divide the set count).
    fn chunk_len(&self, c: usize) -> usize {
        (self.set_count() - c * CHUNK_SETS).min(CHUNK_SETS) * self.ways
    }

    fn set_count(&self) -> usize {
        self.sets.get() as usize
    }

    /// The set of `line`, its chunk, the set's first slot in that chunk,
    /// and the line's tag.
    #[inline]
    fn locate(&self, line: Addr) -> (usize, usize, usize, u64) {
        let (tag, set) = self.sets.split(line);
        let set = set as usize;
        (set, set / CHUNK_SETS, set % CHUNK_SETS * self.ways, tag)
    }

    /// The chunk and slot holding `line`, if resident.
    fn find_mut(&mut self, line: Addr) -> Option<(&mut Chunk, usize)> {
        let (_, c, base, tag) = self.locate(line);
        let chunk = self.chunks[c].as_mut()?;
        let i = chunk.find(base, self.ways, tag)?;
        Some((chunk, i))
    }

    /// Returns the array to the state [`CacheArray::new`] builds. The
    /// chunks it has created are zeroed in place, not freed: a zero
    /// chunk behaves, and saves, exactly like a missing one.
    pub(crate) fn reset(&mut self) {
        for chunk in self.chunks.iter_mut().flatten() {
            chunk.words.fill(0);
        }
        self.tick = 0;
    }

    /// Probes for `line` (line-aligned address), refreshing LRU on hit.
    pub fn lookup(&mut self, line: Addr) -> bool {
        self.probe(line, false)
    }

    /// A store's probe: [`CacheArray::lookup`] that also marks the line
    /// dirty on a hit, through the slot the probe found.
    pub fn store_hit(&mut self, line: Addr) -> bool {
        self.probe(line, true)
    }

    #[inline]
    fn probe(&mut self, line: Addr, dirty: bool) -> bool {
        debug_assert_eq!(line, line.line(), "lookup requires a line-aligned address");
        self.tick += 1;
        let tick = self.tick;
        if let Some((chunk, i)) = self.find_mut(line) {
            chunk.set_lru(i, tick);
            if dirty {
                chunk.set_flags(i, chunk.flags(i) | FLAG_DIRTY);
            }
            true
        } else {
            false
        }
    }

    /// Probes without touching LRU state (used by coherence forwards).
    pub fn contains(&self, line: Addr) -> bool {
        let (_, c, base, tag) = self.locate(line);
        self.chunks[c]
            .as_ref()
            .is_some_and(|chunk| chunk.find(base, self.ways, tag).is_some())
    }

    /// Installs `line`, evicting the LRU way if the set is full.
    /// Installing an already-resident line just refreshes it.
    pub fn insert(&mut self, line: Addr, dirty: bool) -> Eviction {
        debug_assert_eq!(line, line.line(), "insert requires a line-aligned address");
        let (set, c, base, tag) = self.locate(line);
        self.tick += 1;
        let tick = self.tick;
        let (ways, set_count) = (self.ways, self.sets.get());
        let slots = self.chunk_len(c);
        let chunk = self.chunks[c].get_or_insert_with(|| Chunk::zeroed(slots));
        let flags = FLAG_VALID | if dirty { FLAG_DIRTY } else { 0 };
        let (hit, free) = chunk.search(base, ways, tag);
        // Already present: refresh.
        if let Some(i) = hit {
            chunk.set_lru(i, tick);
            if dirty {
                chunk.set_flags(i, chunk.flags(i) | FLAG_DIRTY);
            }
            return Eviction::None;
        }
        // Free way.
        if let Some(i) = free {
            chunk.fill(i, tag, tick, flags);
            return Eviction::None;
        }
        // A full set: only now read the stamps, which sit in another
        // line of the chunk.
        let victim = chunk.victim(base, ways);
        let victim_block = chunk.tag(victim) * set_count + set as u64;
        let evicted = Addr::new(victim_block * LINE_SIZE);
        let was_dirty = chunk.flags(victim) & FLAG_DIRTY != 0;
        chunk.fill(victim, tag, tick, flags);
        if was_dirty {
            Eviction::Dirty(evicted)
        } else {
            Eviction::Clean(evicted)
        }
    }

    /// Invalidates `line` if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: Addr) -> Option<bool> {
        let (chunk, i) = self.find_mut(line)?;
        let flags = chunk.flags(i);
        chunk.set_flags(i, flags & !FLAG_VALID);
        Some(flags & FLAG_DIRTY != 0)
    }

    /// Number of resident lines (for tests and occupancy stats).
    pub fn occupancy(&self) -> usize {
        self.chunks
            .iter()
            .flatten()
            .map(|chunk| (0..chunk.slots).filter(|&i| chunk.is_valid(i)).count())
            .sum()
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.set_count() * self.ways
    }

    /// Writes one dense per-slot array, length-prefixed, in slot order:
    /// `width` bytes per slot, a missing chunk as one run of zeros.
    fn save_dense(&self, w: &mut Writer, width: usize, slot: impl Fn(&Chunk, usize, &mut Writer)) {
        w.usize(self.capacity_lines());
        for (c, chunk) in self.chunks.iter().enumerate() {
            match chunk {
                Some(chunk) => (0..chunk.slots).for_each(|i| slot(chunk, i, w)),
                None => w.zeros(self.chunk_len(c) * width),
            }
        }
    }
}

/// Reads a length-prefixed dense `u64` array as its raw bytes (the same
/// reads, and so the same errors, as restoring a `Box<[u64]>`).
fn dense_words<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], PersistError> {
    let n = r.usize()?;
    r.raw(n.checked_mul(8).ok_or(PersistError::Truncated)?)
}

fn le_word(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8-byte word"))
}

impl Persist for CacheArray {
    /// The LRU `tick` counter and per-way stamps are saved verbatim:
    /// victim selection compares raw stamps, so replacement decisions
    /// after a restore are identical to the uninterrupted run.
    fn save(&self, w: &mut Writer) {
        w.section(*b"CACH", |w| {
            w.usize(self.ways);
            w.usize(self.set_count());
            w.u64(self.tick);
            self.save_dense(w, 8, |chunk, i, w| w.u64(chunk.tag(i)));
            self.save_dense(w, 8, |chunk, i, w| w.u64(chunk.lru(i)));
            self.save_dense(w, 1, |chunk, i, w| w.u8(chunk.flags(i)));
        });
    }
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        r.section(*b"CACH", |r| {
            let ways = r.usize()?;
            let set_count = r.usize()?;
            if ways == 0 || set_count == 0 {
                return Err(PersistError::Corrupt("degenerate cache geometry"));
            }
            let tick = r.u64()?;
            let tags = dense_words(r)?;
            let lru = dense_words(r)?;
            let flags = r.bytes()?;
            let slots = set_count
                .checked_mul(ways)
                .ok_or(PersistError::Corrupt("cache slot overflow"))?;
            if tags.len() / 8 != slots || lru.len() / 8 != slots || flags.len() != slots {
                return Err(PersistError::Corrupt("cache array lengths"));
            }
            let mut array = CacheArray::empty(ways, set_count, tick);
            for c in 0..array.chunks.len() {
                let lo = c * CHUNK_SETS * ways;
                let hi = lo + array.chunk_len(c);
                let (tags, lru, flags) =
                    (&tags[8 * lo..8 * hi], &lru[8 * lo..8 * hi], &flags[lo..hi]);
                if tags.iter().chain(lru).chain(flags).all(|&b| b == 0) {
                    continue;
                }
                let mut chunk = Chunk::zeroed(hi - lo);
                for (i, &f) in flags.iter().enumerate() {
                    let tag = le_word(tags, i);
                    if tag & TAG_VALID != 0 {
                        return Err(PersistError::Corrupt("cache tag out of range"));
                    }
                    // At most one valid way per line, so a way search has
                    // one match (or none) to find.
                    let base = i - i % ways;
                    if f & FLAG_VALID != 0 && chunk.find(base, i - base, tag).is_some() {
                        return Err(PersistError::Corrupt("cache line in two ways"));
                    }
                    chunk.fill(i, tag, le_word(lru, i), f);
                }
                array.chunks[c] = Some(chunk);
            }
            Ok(array)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Line addresses for the geometry tests: the extremes (0 through
    /// `u64::MAX & !63`, and the lines around powers of two and around
    /// multiples of the tested divisors) plus pseudo-random lines.
    pub(crate) fn geometry_lines() -> Vec<Addr> {
        // The block of the top line, `u64::MAX & !63`.
        let top = u64::MAX / LINE_SIZE;
        let mut blocks = vec![0, 1, 2, 3, top, top - 1, top - 2, top / 2, top / 2 + 1];
        for bit in 0..58 {
            blocks.extend([(1 << bit) - 1, 1 << bit, (1 << bit) + 1]);
        }
        for d in [3u64, 16, 37, 256, 1024] {
            let last = top / d * d;
            blocks.extend([
                d - 1,
                d,
                d + 1,
                last - 1,
                last,
                last.saturating_add(1).min(top),
            ]);
        }
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4096 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            blocks.push(x >> 6);
        }
        blocks.into_iter().map(line).collect()
    }

    #[test]
    fn block_divisor_matches_division_on_every_geometry() {
        // Set counts, then tile counts.
        for d in [1u64, 2, 37, 256, 1024, 3, 16] {
            let div = BlockDivisor::new(d);
            for l in geometry_lines() {
                let block = l.raw() / LINE_SIZE;
                assert_eq!(div.split(l), (block / d, block % d), "{block} / {d}");
            }
        }
    }

    #[test]
    fn evicting_insert_returns_the_victims_line_address() {
        for sets in [1u64, 2, 37, 256, 1024] {
            let cfg = CacheConfig {
                capacity_bytes: sets as usize * 2 * 64,
                ways: 2,
                latency: 1,
                mshrs: 4,
            };
            for victim in geometry_lines().into_iter().step_by(7) {
                let mut c = CacheArray::new(&cfg);
                let (tag, set) = (
                    victim.raw() / LINE_SIZE / sets,
                    victim.raw() / LINE_SIZE % sets,
                );
                // Two other lines of the same set fill it; a third evicts
                // the oldest, the victim.
                let mut rivals = (0..4).filter(|&t| t != tag).map(|t| line(t * sets + set));
                c.insert(victim, true);
                c.insert(rivals.next().unwrap(), false);
                assert_eq!(
                    c.insert(rivals.next().unwrap(), false),
                    Eviction::Dirty(victim),
                    "{sets} sets"
                );
            }
        }
    }

    fn tiny() -> CacheArray {
        // 2 sets x 2 ways of 64B lines = 256B.
        CacheArray::new(&CacheConfig {
            capacity_bytes: 256,
            ways: 2,
            latency: 1,
            mshrs: 4,
        })
    }

    fn line(i: u64) -> Addr {
        Addr::new(i * LINE_SIZE)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.lookup(line(0)));
        c.insert(line(0), false);
        assert!(c.lookup(line(0)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 map to set 0 (even line numbers with 2 sets).
        c.insert(line(0), false);
        c.insert(line(2), false);
        // Touch 0 so 2 is LRU.
        assert!(c.lookup(line(0)));
        let ev = c.insert(line(4), false);
        assert_eq!(ev, Eviction::Clean(line(2)));
        assert!(c.contains(line(0)));
        assert!(!c.contains(line(2)));
        assert!(c.contains(line(4)));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = tiny();
        c.insert(line(0), true);
        c.insert(line(2), false);
        c.lookup(line(2));
        let ev = c.insert(line(4), false);
        assert_eq!(ev, Eviction::Dirty(line(0)));
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let mut c = tiny();
        c.insert(line(0), false);
        assert_eq!(c.insert(line(0), true), Eviction::None);
        assert_eq!(c.occupancy(), 1);
        // And the dirty bit stuck.
        c.insert(line(2), false);
        c.lookup(line(2));
        assert_eq!(c.insert(line(4), false), Eviction::Dirty(line(0)));
    }

    #[test]
    fn invalidate_removes_and_reports_dirty() {
        let mut c = tiny();
        c.insert(line(0), false);
        assert!(c.store_hit(line(0)));
        assert_eq!(c.invalidate(line(0)), Some(true));
        assert_eq!(c.invalidate(line(0)), None);
        assert!(!c.contains(line(0)));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        c.insert(line(0), false);
        c.insert(line(1), false); // odd line -> set 1
        c.insert(line(2), false);
        assert_eq!(c.occupancy(), 3);
        assert!(c.contains(line(0)));
    }

    #[test]
    fn persist_round_trip_replays_identical_evictions() {
        use ise_types::persist::{restore_container, save_container};
        let mut c = tiny();
        c.insert(line(0), true);
        c.insert(line(2), false);
        c.lookup(line(0));
        let bytes = save_container(&c);
        let mut back: CacheArray = restore_container(&bytes).unwrap();
        assert_eq!(save_container(&back), bytes);
        // Same LRU stamps => same victim choices from here on.
        assert_eq!(back.insert(line(4), false), c.insert(line(4), false));
        assert_eq!(back.insert(line(6), true), c.insert(line(6), true));
        assert_eq!(back.occupancy(), c.occupancy());
    }

    #[test]
    fn restore_rejects_a_tag_with_the_valid_bit() {
        // The top bit of an in-memory tag word is the valid flag, so a
        // saved tag that sets it has no faithful restore.
        let mut dense = DenseArray::new(&CacheConfig::l1d_isca23());
        dense.tags[0] = TAG_VALID | 1;
        let bytes = ise_types::persist::save_container(&dense);
        assert!(matches!(
            ise_types::persist::restore_container::<CacheArray>(&bytes),
            Err(PersistError::Corrupt("cache tag out of range"))
        ));
    }

    #[test]
    fn restore_rejects_a_line_in_two_valid_ways() {
        use ise_types::persist::{restore_container, save_container};
        let cfg = CacheConfig::l1d_isca23();
        let mut dense = DenseArray::new(&cfg);
        // Set 1: ways 1 and 3 both hold tag 5.
        for (way, valid) in [(1, FLAG_VALID), (3, 0)] {
            dense.tags[cfg.ways + way] = 5;
            dense.flags[cfg.ways + way] = valid;
        }
        // A stale copy without the valid flag is a state `invalidate`
        // leaves; it restores.
        let bytes = save_container(&dense);
        let back: CacheArray = restore_container(&bytes).unwrap();
        assert_eq!(save_container(&back), bytes);
        dense.flags[cfg.ways + 3] = FLAG_VALID | FLAG_DIRTY;
        assert!(matches!(
            restore_container::<CacheArray>(&save_container(&dense)),
            Err(PersistError::Corrupt("cache line in two ways"))
        ));
    }

    #[test]
    fn a_miss_fills_the_first_free_way_else_the_first_least_stamp() {
        use ise_types::persist::{restore_container, save_container};
        // `l1d_isca23`: 4 ways x 256 sets; the lines `t * 256` share set 0.
        let cfg = CacheConfig::l1d_isca23();
        let set0 = |t: u64| line(t * 256);
        let way = |c: &CacheArray, l: Addr| {
            let (_, ch, base, tag) = c.locate(l);
            let chunk = c.chunks[ch].as_ref()?;
            Some(chunk.find(base, c.ways, tag)? - base)
        };
        let mut c = CacheArray::new(&cfg);
        for t in 0..4 {
            assert_eq!(c.insert(set0(t), false), Eviction::None);
            assert_eq!(way(&c, set0(t)), Some(t as usize));
        }
        // Way 2 is freed (keeping its stamp, 3); way 1 (stamp 2) is then
        // the least recently used valid way.
        assert_eq!(c.invalidate(set0(2)), Some(false));
        assert!(c.lookup(set0(0)));
        assert_eq!(c.insert(set0(4), false), Eviction::None);
        assert_eq!(way(&c, set0(4)), Some(2));
        assert_eq!(c.insert(set0(5), false), Eviction::Clean(set0(1)));
        assert_eq!(way(&c, set0(5)), Some(1));
        // Tied stamps (only a restore makes them): the first of them.
        let mut dense = DenseArray::new(&cfg);
        for (w, stamp) in [5, 3, 3, 7].into_iter().enumerate() {
            dense.tags[w] = 10 + w as u64;
            dense.lru[w] = stamp;
            dense.flags[w] = FLAG_VALID;
        }
        dense.tick = 7;
        let mut c: CacheArray = restore_container(&save_container(&dense)).unwrap();
        assert_eq!(c.insert(set0(20), true), Eviction::Clean(set0(11)));
        assert_eq!(way(&c, set0(20)), Some(1));
        // Two free ways: the first, though the later one's stamp is less.
        dense.flags[1] = 0;
        dense.flags[2] = 0;
        dense.lru[2] = 0;
        let mut c: CacheArray = restore_container(&save_container(&dense)).unwrap();
        assert_eq!(c.insert(set0(20), false), Eviction::None);
        assert_eq!(way(&c, set0(20)), Some(1));
    }

    /// The flat layout this array replaced, kept as the naive model:
    /// every slot zero-filled at construction, one dense array per
    /// field indexed by `set * ways + way`, saved in the same `CACH`
    /// encoding.
    struct DenseArray {
        tags: Vec<u64>,
        lru: Vec<u64>,
        flags: Vec<u8>,
        ways: usize,
        set_count: usize,
        tick: u64,
    }

    impl DenseArray {
        fn new(cfg: &CacheConfig) -> Self {
            let set_count = cfg.sets(LINE_SIZE as usize);
            let slots = set_count * cfg.ways;
            DenseArray {
                tags: vec![0; slots],
                lru: vec![0; slots],
                flags: vec![0; slots],
                ways: cfg.ways,
                set_count,
                tick: 0,
            }
        }

        fn index_tag(&self, line: Addr) -> (usize, u64) {
            let block = line.raw() / LINE_SIZE;
            (
                (block % self.set_count as u64) as usize,
                block / self.set_count as u64,
            )
        }

        fn find(&self, set: usize, tag: u64) -> Option<usize> {
            let base = set * self.ways;
            (base..base + self.ways)
                .find(|&i| self.flags[i] & FLAG_VALID != 0 && self.tags[i] == tag)
        }

        fn lookup(&mut self, line: Addr) -> bool {
            let (set, tag) = self.index_tag(line);
            self.tick += 1;
            let hit = self.find(set, tag);
            if let Some(i) = hit {
                self.lru[i] = self.tick;
            }
            hit.is_some()
        }

        fn contains(&self, line: Addr) -> bool {
            let (set, tag) = self.index_tag(line);
            self.find(set, tag).is_some()
        }

        fn store_hit(&mut self, line: Addr) -> bool {
            let hit = self.lookup(line);
            let (set, tag) = self.index_tag(line);
            if let Some(i) = self.find(set, tag) {
                self.flags[i] |= FLAG_DIRTY;
            }
            hit
        }

        fn insert(&mut self, line: Addr, dirty: bool) -> Eviction {
            let (set, tag) = self.index_tag(line);
            self.tick += 1;
            let base = set * self.ways;
            let flags = FLAG_VALID | if dirty { FLAG_DIRTY } else { 0 };
            if let Some(i) = self.find(set, tag) {
                self.lru[i] = self.tick;
                if dirty {
                    self.flags[i] |= FLAG_DIRTY;
                }
                return Eviction::None;
            }
            let free = (base..base + self.ways).find(|&i| self.flags[i] & FLAG_VALID == 0);
            let victim = free.unwrap_or_else(|| {
                (base + 1..base + self.ways).fold(base, |v, i| {
                    if self.lru[i] < self.lru[v] {
                        i
                    } else {
                        v
                    }
                })
            });
            let evicted =
                Addr::new((self.tags[victim] * self.set_count as u64 + set as u64) * LINE_SIZE);
            let was_dirty = self.flags[victim] & FLAG_DIRTY != 0;
            self.tags[victim] = tag;
            self.lru[victim] = self.tick;
            self.flags[victim] = flags;
            match (free, was_dirty) {
                (Some(_), _) => Eviction::None,
                (None, true) => Eviction::Dirty(evicted),
                (None, false) => Eviction::Clean(evicted),
            }
        }

        fn invalidate(&mut self, line: Addr) -> Option<bool> {
            let (set, tag) = self.index_tag(line);
            let i = self.find(set, tag)?;
            self.flags[i] &= !FLAG_VALID;
            Some(self.flags[i] & FLAG_DIRTY != 0)
        }

        fn occupancy(&self) -> usize {
            self.flags.iter().filter(|&&f| f & FLAG_VALID != 0).count()
        }
    }

    impl Persist for DenseArray {
        fn save(&self, w: &mut Writer) {
            w.section(*b"CACH", |w| {
                w.usize(self.ways);
                w.usize(self.set_count);
                w.u64(self.tick);
                self.tags.save(w);
                self.lru.save(w);
                self.flags.save(w);
            });
        }
        fn restore(_: &mut Reader) -> Result<Self, PersistError> {
            unreachable!("the model is only ever saved")
        }
    }

    /// Replays `steps` random operations against the lazy array and the
    /// dense model. Lines fall into a few sets spread over the whole
    /// array (so some chunks stay missing) with more tags per set than
    /// ways (so sets fill and evict). Returns the lazy array.
    fn replay_against_dense(cfg: CacheConfig, steps: u64) -> CacheArray {
        use ise_types::persist::save_container;
        let mut lazy = CacheArray::new(&cfg);
        let mut dense = DenseArray::new(&cfg);
        let sets = dense.set_count as u64;
        let hot_sets: Vec<u64> = (0..7).map(|k| (k * 2 * sets / 13 + k) % sets).collect();
        let tags = cfg.ways as u64 * 3 / 2 + 1;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut evictions = 0;
        for step in 0..steps {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let set = hot_sets[((state >> 40) % hot_sets.len() as u64) as usize];
            let l = line(((state >> 20) % tags) * sets + set);
            match (state >> 60) % 8 {
                0..=2 => {
                    let dirty = state & (1 << 7) != 0;
                    let ev = lazy.insert(l, dirty);
                    assert_eq!(ev, dense.insert(l, dirty), "insert at step {step}");
                    evictions += usize::from(ev != Eviction::None);
                }
                3 | 4 => assert_eq!(lazy.lookup(l), dense.lookup(l), "lookup at step {step}"),
                5 => assert_eq!(
                    lazy.contains(l),
                    dense.contains(l),
                    "contains at step {step}"
                ),
                6 => assert_eq!(
                    lazy.store_hit(l),
                    dense.store_hit(l),
                    "store hit at step {step}"
                ),
                _ => assert_eq!(
                    lazy.invalidate(l),
                    dense.invalidate(l),
                    "invalidate at step {step}"
                ),
            }
            assert_eq!(
                lazy.occupancy(),
                dense.occupancy(),
                "occupancy at step {step}"
            );
            if step % 4096 == 0 {
                assert_eq!(
                    save_container(&lazy),
                    save_container(&dense),
                    "bytes at step {step}"
                );
            }
        }
        assert!(evictions > 0, "the replay must fill sets");
        let bytes = save_container(&lazy);
        assert_eq!(bytes, save_container(&dense));
        let back: CacheArray = ise_types::persist::restore_container(&bytes).unwrap();
        assert_eq!(save_container(&back), bytes);
        let created = |a: &CacheArray| a.chunks.iter().map(Option::is_some).collect::<Vec<_>>();
        assert_eq!(
            created(&back),
            created(&lazy),
            "restore creates exactly the touched chunks"
        );
        lazy
    }

    #[test]
    fn lazy_array_matches_dense_array_on_l2_geometry() {
        let lazy = replay_against_dense(CacheConfig::l2_isca23(), 24_000);
        assert!(
            lazy.chunks.iter().any(Option::is_none),
            "some chunks stay untouched"
        );
    }

    #[test]
    fn lazy_array_matches_dense_array_on_l1d_geometry() {
        replay_against_dense(CacheConfig::l1d_isca23(), 24_000);
    }

    #[test]
    fn lazy_array_matches_dense_array_with_a_partial_last_chunk() {
        // 37 sets: the last chunk holds only 5 of `CHUNK_SETS` sets.
        let lazy = replay_against_dense(
            CacheConfig {
                capacity_bytes: 37 * 3 * 64,
                ways: 3,
                latency: 1,
                mshrs: 4,
            },
            24_000,
        );
        assert!(
            lazy.chunks.last().is_some_and(Option::is_some),
            "the partial chunk is exercised"
        );
    }

    #[test]
    fn fresh_l2_array_allocates_no_chunks() {
        let mut c = CacheArray::new(&CacheConfig::l2_isca23());
        assert_eq!(c.chunks.len(), 1024 / CHUNK_SETS);
        assert!(c.chunks.iter().all(Option::is_none));
        // Probes of untouched sets miss without creating a chunk.
        assert!(!c.lookup(line(5)));
        assert!(!c.contains(line(5)));
        assert!(!c.store_hit(line(5)));
        assert_eq!(c.invalidate(line(5)), None);
        assert!(c.chunks.iter().all(Option::is_none));
        c.insert(line(5), false);
        assert_eq!(c.chunks.iter().filter(|c| c.is_some()).count(), 1);
    }

    #[test]
    fn geometry_matches_table2() {
        let l1 = CacheArray::new(&CacheConfig::l1d_isca23());
        assert_eq!(l1.capacity_lines(), 64 * 1024 / 64);
        let l2 = CacheArray::new(&CacheConfig::l2_isca23());
        assert_eq!(l2.capacity_lines(), 1024 * 1024 / 64);
    }
}
