//! Directory-based MESI coherence (Table 2: "Directory-based MESI").
//!
//! The directory tracks, per cache line, which cores hold the line and in
//! what state. The hierarchy consults it on every L1 miss (and on store
//! upgrades) to learn *who must be contacted* — the owner to forward from,
//! or the sharers to invalidate — and prices those messages on the mesh.
//! Stores pay more than loads under sharing because invalidations fan out;
//! this asymmetry is exactly the store-to-load latency skew that §3.3 of
//! the paper studies.
//!
//! Directory state lives in an open-addressed struct-of-arrays table
//! ([`LineTable`]) keyed by line index — dense arrays probed linearly, no
//! per-entry boxing — and write actions carry the victim set as a
//! [`SharerSet`] bit mask instead of an allocated list, so a directory
//! transition on the hot path performs no heap allocation.

use ise_types::addr::Addr;
use ise_types::CoreId;
use std::fmt;

/// Stable MESI state of a line as recorded at the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MesiState {
    /// One core holds the only, dirty copy.
    Modified,
    /// One core holds the only, clean copy.
    Exclusive,
    /// One or more cores hold read-only copies.
    Shared,
    /// No core holds the line.
    Invalid,
}

impl fmt::Display for MesiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MesiState::Modified => "M",
            MesiState::Exclusive => "E",
            MesiState::Shared => "S",
            MesiState::Invalid => "I",
        };
        write!(f, "{s}")
    }
}

/// A set of cores as a bit vector (supports up to 64 cores; Table 2 uses
/// 16). Iteration is in ascending core-id order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet(pub u64);

impl SharerSet {
    /// The empty set.
    pub const EMPTY: SharerSet = SharerSet(0);

    /// Whether no core is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of cores in the set.
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether `core` is in the set.
    pub fn contains(self, core: CoreId) -> bool {
        self.0 & (1u64 << core.index()) != 0
    }

    /// Iterates the member cores in ascending id order without
    /// allocating.
    pub fn iter(self) -> impl Iterator<Item = CoreId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(CoreId(i))
            }
        })
    }

    /// The members as a vector (test/debug convenience; allocates).
    pub fn to_vec(self) -> Vec<CoreId> {
        self.iter().collect()
    }
}

impl FromIterator<CoreId> for SharerSet {
    fn from_iter<I: IntoIterator<Item = CoreId>>(iter: I) -> Self {
        let mut bits = 0u64;
        for c in iter {
            bits |= 1u64 << c.index();
        }
        SharerSet(bits)
    }
}

/// One directory entry: state plus a sharer bit-vector (supports up to 64
/// cores; Table 2 uses 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// Current stable state.
    pub state: MesiState,
    /// Bit *i* set means core *i* holds a copy.
    pub sharers: u64,
}

impl DirEntry {
    fn empty() -> Self {
        DirEntry {
            state: MesiState::Invalid,
            sharers: 0,
        }
    }

    /// Cores currently holding the line, in ascending id order.
    pub fn sharer_list(&self) -> Vec<CoreId> {
        self.sharer_set().to_vec()
    }

    /// Cores currently holding the line as an allocation-free bit set.
    pub fn sharer_set(&self) -> SharerSet {
        SharerSet(self.sharers)
    }

    /// Number of sharers.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }

    fn has(&self, core: CoreId) -> bool {
        self.sharers & (1u64 << core.index()) != 0
    }
}

/// What the requesting core must do to complete a read miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadAction {
    /// Line uncached anywhere: fetch from L2/memory; requester becomes
    /// Exclusive.
    FromMemory,
    /// A clean copy exists at the L2/home or other sharers: deliver from
    /// home; requester joins the sharer set.
    FromHome,
    /// `owner` holds an M (or E) copy: forward from the owner's cache
    /// (3-hop miss); both end Shared.
    ForwardFrom(CoreId),
}

/// What the requesting core must do to complete a write (GetM/upgrade).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAction {
    /// Cores whose copies must be invalidated (excludes the requester).
    pub invalidate: SharerSet,
    /// If some other core held M, its dirty data must be pulled first.
    pub pull_dirty_from: Option<CoreId>,
    /// Whether the line must be fetched from memory (no cached copy
    /// anywhere).
    pub from_memory: bool,
}

/// Open-addressed struct-of-arrays map from line index to directory
/// state. Linear probing over power-of-two dense arrays; slots are never
/// tombstoned (an evicted line parks as `Invalid` in place, exactly like
/// the hash-map predecessor which never removed keys), so probe chains
/// stay valid without back-shifting.
#[derive(Debug, Clone)]
struct LineTable {
    /// Line index + 1; 0 marks an empty slot.
    keys: Box<[u64]>,
    states: Box<[MesiState]>,
    sharers: Box<[u64]>,
    /// Occupied slots (including Invalid parked lines).
    len: usize,
    mask: usize,
}

impl LineTable {
    const INITIAL_SLOTS: usize = 1024;

    fn new() -> Self {
        LineTable {
            keys: vec![0; Self::INITIAL_SLOTS].into_boxed_slice(),
            states: vec![MesiState::Invalid; Self::INITIAL_SLOTS].into_boxed_slice(),
            sharers: vec![0; Self::INITIAL_SLOTS].into_boxed_slice(),
            len: 0,
            mask: Self::INITIAL_SLOTS - 1,
        }
    }

    fn hash(key: u64) -> usize {
        // Fibonacci multiplicative mix: line indices are sequential, so
        // spread them before masking.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// Slot holding `key`, or `None`.
    fn find(&self, key: u64) -> Option<usize> {
        let tagged = key + 1;
        let mut i = Self::hash(key) & self.mask;
        loop {
            let k = self.keys[i];
            if k == tagged {
                return Some(i);
            }
            if k == 0 {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Slot holding `key`, inserting an Invalid entry if absent.
    fn find_or_insert(&mut self, key: u64) -> usize {
        if self.len * 4 >= self.keys.len() * 3 {
            self.grow();
        }
        let tagged = key + 1;
        let mut i = Self::hash(key) & self.mask;
        loop {
            let k = self.keys[i];
            if k == tagged {
                return i;
            }
            if k == 0 {
                self.keys[i] = tagged;
                self.states[i] = MesiState::Invalid;
                self.sharers[i] = 0;
                self.len += 1;
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_slots].into_boxed_slice());
        let old_states = std::mem::replace(
            &mut self.states,
            vec![MesiState::Invalid; new_slots].into_boxed_slice(),
        );
        let old_sharers =
            std::mem::replace(&mut self.sharers, vec![0; new_slots].into_boxed_slice());
        self.mask = new_slots - 1;
        for (slot, &k) in old_keys.iter().enumerate() {
            if k == 0 {
                continue;
            }
            let mut i = Self::hash(k - 1) & self.mask;
            while self.keys[i] != 0 {
                i = (i + 1) & self.mask;
            }
            self.keys[i] = k;
            self.states[i] = old_states[slot];
            self.sharers[i] = old_sharers[slot];
        }
    }
}

/// The full-map directory.
#[derive(Debug, Clone)]
pub struct Directory {
    table: LineTable,
    /// Counters for stats: (read_forwards, invalidations_sent).
    invalidations: u64,
    forwards: u64,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Self {
        Directory {
            table: LineTable::new(),
            invalidations: 0,
            forwards: 0,
        }
    }

    /// Returns the directory to the state [`Directory::new`] builds,
    /// except that its table keeps the size it has grown to. Only probe
    /// chain lengths depend on that size; no entry, counter or saved
    /// byte does.
    pub(crate) fn reset(&mut self) {
        self.table.keys.fill(0);
        self.table.states.fill(MesiState::Invalid);
        self.table.sharers.fill(0);
        self.table.len = 0;
        self.invalidations = 0;
        self.forwards = 0;
    }

    fn key(line: Addr) -> u64 {
        debug_assert_eq!(line, line.line());
        line.raw()
    }

    /// Current entry for a line (Invalid if never seen).
    pub fn entry(&self, line: Addr) -> DirEntry {
        match self.table.find(Self::key(line)) {
            Some(i) => DirEntry {
                state: self.table.states[i],
                sharers: self.table.sharers[i],
            },
            None => DirEntry::empty(),
        }
    }

    /// Handles a read miss by `core`: returns the action the hierarchy
    /// must price, and transitions the directory.
    pub fn read(&mut self, line: Addr, core: CoreId) -> ReadAction {
        let i = self.table.find_or_insert(Self::key(line));
        let e = DirEntry {
            state: self.table.states[i],
            sharers: self.table.sharers[i],
        };
        let bit = 1u64 << core.index();
        match e.state {
            MesiState::Invalid => {
                self.table.states[i] = MesiState::Exclusive;
                self.table.sharers[i] = bit;
                ReadAction::FromMemory
            }
            MesiState::Shared => {
                self.table.sharers[i] |= bit;
                ReadAction::FromHome
            }
            MesiState::Exclusive | MesiState::Modified => {
                if e.has(core) {
                    // Silent re-read by the owner.
                    return ReadAction::FromHome;
                }
                let owner = CoreId(e.sharers.trailing_zeros() as usize);
                self.table.states[i] = MesiState::Shared;
                self.table.sharers[i] |= bit;
                self.forwards += 1;
                ReadAction::ForwardFrom(owner)
            }
        }
    }

    /// Handles a write (GetM or upgrade) by `core`: returns the action and
    /// transitions the line to Modified owned by `core`.
    pub fn write(&mut self, line: Addr, core: CoreId) -> WriteAction {
        let i = self.table.find_or_insert(Self::key(line));
        let state = self.table.states[i];
        let sharers = self.table.sharers[i];
        let bit = 1u64 << core.index();
        let action = match state {
            MesiState::Invalid => WriteAction {
                invalidate: SharerSet::EMPTY,
                pull_dirty_from: None,
                from_memory: true,
            },
            MesiState::Exclusive | MesiState::Modified if sharers == bit => {
                // Silent upgrade by the sole owner.
                WriteAction {
                    invalidate: SharerSet::EMPTY,
                    pull_dirty_from: None,
                    from_memory: false,
                }
            }
            MesiState::Modified => {
                let owner = CoreId(sharers.trailing_zeros() as usize);
                self.invalidations += 1;
                WriteAction {
                    invalidate: SharerSet(1u64 << owner.index()),
                    pull_dirty_from: Some(owner),
                    from_memory: false,
                }
            }
            MesiState::Exclusive | MesiState::Shared => {
                let victims = SharerSet(sharers & !bit);
                self.invalidations += u64::from(victims.len());
                WriteAction {
                    invalidate: victims,
                    pull_dirty_from: None,
                    // If the requester already shared it, data is local;
                    // otherwise the home supplies it (not memory).
                    from_memory: false,
                }
            }
        };
        self.table.states[i] = MesiState::Modified;
        self.table.sharers[i] = bit;
        action
    }

    /// Records that `core` evicted its copy of `line` (PutS/PutM).
    pub fn evict(&mut self, line: Addr, core: CoreId) {
        if let Some(i) = self.table.find(Self::key(line)) {
            self.table.sharers[i] &= !(1u64 << core.index());
            if self.table.sharers[i] == 0 {
                self.table.states[i] = MesiState::Invalid;
            } else if self.table.states[i] == MesiState::Modified {
                // Owner left; remaining copies are clean shared.
                self.table.states[i] = MesiState::Shared;
            }
        }
    }

    /// Total invalidation messages the directory has ordered.
    pub fn invalidations_sent(&self) -> u64 {
        self.invalidations
    }

    /// Total owner-forwards the directory has ordered.
    pub fn forwards_ordered(&self) -> u64 {
        self.forwards
    }

    /// Slots in the line table (it starts at 1 024 and doubles).
    #[cfg(test)]
    pub(crate) fn table_slots(&self) -> usize {
        self.table.keys.len()
    }

    /// Number of tracked (non-invalid) lines.
    pub fn tracked_lines(&self) -> usize {
        self.table
            .keys
            .iter()
            .zip(self.table.states.iter())
            .filter(|(&k, &s)| k != 0 && s != MesiState::Invalid)
            .count()
    }
}

mod persist_impls {
    use super::*;
    use ise_types::persist::{Persist, PersistError, Reader, Writer};

    impl Persist for MesiState {
        fn save(&self, w: &mut Writer) {
            w.u8(match self {
                MesiState::Modified => 0,
                MesiState::Exclusive => 1,
                MesiState::Shared => 2,
                MesiState::Invalid => 3,
            });
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(match r.u8()? {
                0 => MesiState::Modified,
                1 => MesiState::Exclusive,
                2 => MesiState::Shared,
                3 => MesiState::Invalid,
                _ => return Err(PersistError::Corrupt("MesiState discriminant")),
            })
        }
    }

    impl Persist for SharerSet {
        fn save(&self, w: &mut Writer) {
            w.u64(self.0);
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            Ok(SharerSet(r.u64()?))
        }
    }

    /// Occupied slots are written sorted by line key — canonical
    /// regardless of probe-chain layout. Invalid *parked* lines are kept
    /// (they occupy slots and trigger growth at the same thresholds, so
    /// the rebuilt table reaches the same size), and replaying
    /// `find_or_insert` in sorted order reproduces an equivalent table.
    impl Persist for Directory {
        fn save(&self, w: &mut Writer) {
            w.section(*b"MDIR", |w| {
                let t = &self.table;
                let mut entries: Vec<(u64, MesiState, u64)> = t
                    .keys
                    .iter()
                    .zip(t.states.iter())
                    .zip(t.sharers.iter())
                    .filter(|((&k, _), _)| k != 0)
                    .map(|((&k, &s), &sh)| (k - 1, s, sh))
                    .collect();
                entries.sort_unstable_by_key(|&(k, _, _)| k);
                w.usize(entries.len());
                for (key, state, sharers) in entries {
                    w.u64(key);
                    state.save(w);
                    w.u64(sharers);
                }
                w.u64(self.invalidations);
                w.u64(self.forwards);
            });
        }
        fn restore(r: &mut Reader) -> Result<Self, PersistError> {
            r.section(*b"MDIR", |r| {
                let n = r.usize()?;
                let mut table = LineTable::new();
                let mut last_key = None;
                for _ in 0..n {
                    let key = r.u64()?;
                    if last_key.is_some_and(|k| key <= k) {
                        return Err(PersistError::Corrupt("directory keys out of order"));
                    }
                    last_key = Some(key);
                    let state = MesiState::restore(r)?;
                    let sharers = r.u64()?;
                    let i = table.find_or_insert(key);
                    table.states[i] = state;
                    table.sharers[i] = sharers;
                }
                Ok(Directory {
                    table,
                    invalidations: r.u64()?,
                    forwards: r.u64()?,
                })
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> Addr {
        Addr::new(i * 64)
    }

    #[test]
    fn first_read_is_exclusive_from_memory() {
        let mut d = Directory::new();
        assert_eq!(d.read(line(1), CoreId(0)), ReadAction::FromMemory);
        let e = d.entry(line(1));
        assert_eq!(e.state, MesiState::Exclusive);
        assert_eq!(e.sharer_list(), vec![CoreId(0)]);
    }

    #[test]
    fn second_reader_forwards_from_owner_and_shares() {
        let mut d = Directory::new();
        d.read(line(1), CoreId(0));
        assert_eq!(
            d.read(line(1), CoreId(1)),
            ReadAction::ForwardFrom(CoreId(0))
        );
        let e = d.entry(line(1));
        assert_eq!(e.state, MesiState::Shared);
        assert_eq!(e.sharer_count(), 2);
    }

    #[test]
    fn third_reader_hits_home() {
        let mut d = Directory::new();
        d.read(line(1), CoreId(0));
        d.read(line(1), CoreId(1));
        assert_eq!(d.read(line(1), CoreId(2)), ReadAction::FromHome);
    }

    #[test]
    fn write_to_uncached_goes_to_memory() {
        let mut d = Directory::new();
        let a = d.write(line(2), CoreId(3));
        assert!(a.from_memory);
        assert!(a.invalidate.is_empty());
        assert_eq!(d.entry(line(2)).state, MesiState::Modified);
    }

    #[test]
    fn write_invalidates_all_sharers() {
        let mut d = Directory::new();
        d.read(line(1), CoreId(0));
        d.read(line(1), CoreId(1));
        d.read(line(1), CoreId(2));
        let a = d.write(line(1), CoreId(2));
        assert_eq!(a.invalidate.to_vec(), vec![CoreId(0), CoreId(1)]);
        assert!(!a.from_memory);
        assert_eq!(d.entry(line(1)).sharers, 1 << 2);
        assert_eq!(d.invalidations_sent(), 2);
    }

    #[test]
    fn write_to_modified_pulls_dirty_copy() {
        let mut d = Directory::new();
        d.write(line(1), CoreId(0));
        let a = d.write(line(1), CoreId(1));
        assert_eq!(a.pull_dirty_from, Some(CoreId(0)));
        assert_eq!(a.invalidate.to_vec(), vec![CoreId(0)]);
        assert_eq!(d.entry(line(1)).sharer_list(), vec![CoreId(1)]);
    }

    #[test]
    fn silent_upgrade_for_sole_owner() {
        let mut d = Directory::new();
        d.read(line(1), CoreId(0)); // E
        let a = d.write(line(1), CoreId(0));
        assert!(a.invalidate.is_empty() && a.pull_dirty_from.is_none() && !a.from_memory);
        assert_eq!(d.entry(line(1)).state, MesiState::Modified);
    }

    #[test]
    fn owner_reread_is_local() {
        let mut d = Directory::new();
        d.write(line(1), CoreId(0));
        assert_eq!(d.read(line(1), CoreId(0)), ReadAction::FromHome);
        assert_eq!(d.entry(line(1)).state, MesiState::Modified);
    }

    #[test]
    fn eviction_clears_sharer_and_state() {
        let mut d = Directory::new();
        d.read(line(1), CoreId(0));
        d.read(line(1), CoreId(1));
        d.evict(line(1), CoreId(0));
        assert_eq!(d.entry(line(1)).sharer_list(), vec![CoreId(1)]);
        d.evict(line(1), CoreId(1));
        assert_eq!(d.entry(line(1)).state, MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn modified_owner_eviction_leaves_clean_state() {
        let mut d = Directory::new();
        d.write(line(1), CoreId(0));
        d.evict(line(1), CoreId(0));
        assert_eq!(d.entry(line(1)).state, MesiState::Invalid);
    }

    #[test]
    fn sharer_set_iterates_in_ascending_order() {
        let s = SharerSet(0b1010_0101);
        assert_eq!(s.to_vec(), vec![CoreId(0), CoreId(2), CoreId(5), CoreId(7)]);
        assert_eq!(s.len(), 4);
        assert!(s.contains(CoreId(5)));
        assert!(!s.contains(CoreId(1)));
    }

    #[test]
    fn dense_directory_matches_naive_hash_directory() {
        // Differential: the open-addressed SoA table must order exactly
        // the same coherence actions as a naive hash-map directory (the
        // pre-rework layout) under a random mix of reads, writes and
        // evictions from several cores over a clashing line set.
        use std::collections::HashMap;
        #[derive(Default)]
        struct Naive {
            map: HashMap<u64, DirEntry>,
        }
        impl Naive {
            fn entry(&self, line: Addr) -> DirEntry {
                self.map.get(&line.raw()).copied().unwrap_or(DirEntry {
                    state: MesiState::Invalid,
                    sharers: 0,
                })
            }
            fn read(&mut self, line: Addr, core: CoreId) -> ReadAction {
                let e = self.entry(line);
                let bit = 1u64 << core.index();
                let (new, action) = match e.state {
                    MesiState::Invalid => (
                        DirEntry {
                            state: MesiState::Exclusive,
                            sharers: bit,
                        },
                        ReadAction::FromMemory,
                    ),
                    MesiState::Shared => (
                        DirEntry {
                            state: MesiState::Shared,
                            sharers: e.sharers | bit,
                        },
                        ReadAction::FromHome,
                    ),
                    MesiState::Exclusive | MesiState::Modified => {
                        if e.sharers & bit != 0 {
                            (e, ReadAction::FromHome)
                        } else {
                            let owner = CoreId(e.sharers.trailing_zeros() as usize);
                            (
                                DirEntry {
                                    state: MesiState::Shared,
                                    sharers: e.sharers | bit,
                                },
                                ReadAction::ForwardFrom(owner),
                            )
                        }
                    }
                };
                self.map.insert(line.raw(), new);
                action
            }
            fn write(&mut self, line: Addr, core: CoreId) -> WriteAction {
                let e = self.entry(line);
                let bit = 1u64 << core.index();
                let action = match e.state {
                    MesiState::Invalid => WriteAction {
                        invalidate: SharerSet::EMPTY,
                        pull_dirty_from: None,
                        from_memory: true,
                    },
                    MesiState::Exclusive | MesiState::Modified if e.sharers == bit => WriteAction {
                        invalidate: SharerSet::EMPTY,
                        pull_dirty_from: None,
                        from_memory: false,
                    },
                    MesiState::Modified => {
                        let owner = CoreId(e.sharers.trailing_zeros() as usize);
                        WriteAction {
                            invalidate: SharerSet(1u64 << owner.index()),
                            pull_dirty_from: Some(owner),
                            from_memory: false,
                        }
                    }
                    MesiState::Exclusive | MesiState::Shared => WriteAction {
                        invalidate: SharerSet(e.sharers & !bit),
                        pull_dirty_from: None,
                        from_memory: false,
                    },
                };
                self.map.insert(
                    line.raw(),
                    DirEntry {
                        state: MesiState::Modified,
                        sharers: bit,
                    },
                );
                action
            }
            fn evict(&mut self, line: Addr, core: CoreId) {
                if let Some(e) = self.map.get_mut(&line.raw()) {
                    e.sharers &= !(1u64 << core.index());
                    if e.sharers == 0 {
                        e.state = MesiState::Invalid;
                    } else if e.state == MesiState::Modified {
                        e.state = MesiState::Shared;
                    }
                }
            }
        }
        let mut dense = Directory::new();
        let mut naive = Naive::default();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..30_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // A clashing line set (few thousand lines over initial table
            // capacity) so the table grows and probe chains collide.
            let l = line((state >> 33) % 3000);
            let core = CoreId(((state >> 17) % 8) as usize);
            match state % 5 {
                0 | 1 => assert_eq!(
                    dense.read(l, core),
                    naive.read(l, core),
                    "read diverged at step {step}"
                ),
                2 | 3 => assert_eq!(
                    dense.write(l, core),
                    naive.write(l, core),
                    "write diverged at step {step}"
                ),
                _ => {
                    dense.evict(l, core);
                    naive.evict(l, core);
                }
            }
            assert_eq!(
                dense.entry(l),
                naive.entry(l),
                "entry diverged at step {step}"
            );
        }
        // Full-table sweep: every line the naive side tracks agrees.
        for (&k, &e) in &naive.map {
            assert_eq!(dense.entry(Addr::new(k)), e, "final state of line {k}");
        }
    }

    #[test]
    fn persist_round_trip_continues_identical_coherence() {
        use ise_types::persist::{restore_container, save_container};
        let mut d = Directory::new();
        // Drive past the initial table capacity so parked Invalid lines
        // and grown probe chains are in play.
        let mut state = 0xdecafu64;
        for _ in 0..8_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let l = line((state >> 33) % 2_000);
            let core = CoreId(((state >> 17) % 8) as usize);
            match state % 5 {
                0 | 1 => {
                    d.read(l, core);
                }
                2 | 3 => {
                    d.write(l, core);
                }
                _ => d.evict(l, core),
            }
        }
        let bytes = save_container(&d);
        let mut back: Directory = restore_container(&bytes).unwrap();
        assert_eq!(save_container(&back), bytes);
        assert_eq!(back.tracked_lines(), d.tracked_lines());
        assert_eq!(back.invalidations_sent(), d.invalidations_sent());
        assert_eq!(back.forwards_ordered(), d.forwards_ordered());
        // Same actions ordered for the same request stream from here.
        for i in 0..2_000u64 {
            let l = line((i * 13) % 2_100);
            let core = CoreId((i % 8) as usize);
            if i % 3 == 0 {
                assert_eq!(back.write(l, core), d.write(l, core), "write {i}");
            } else {
                assert_eq!(back.read(l, core), d.read(l, core), "read {i}");
            }
        }
    }

    #[test]
    fn table_growth_preserves_every_entry() {
        // Push far past the initial open-addressed capacity and verify
        // every line's state survives the rehash.
        let mut d = Directory::new();
        let n = 10_000u64;
        for i in 0..n {
            d.read(line(i), CoreId((i % 4) as usize));
        }
        for i in 0..n {
            let e = d.entry(line(i));
            assert_eq!(e.state, MesiState::Exclusive, "line {i}");
            assert_eq!(e.sharers, 1u64 << (i % 4), "line {i}");
        }
        assert_eq!(d.tracked_lines(), n as usize);
    }
}
