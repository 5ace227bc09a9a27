//! Miss Status Handling Registers.
//!
//! The L1D has a bounded number of outstanding misses (32 in Table 2).
//! When the file is full, a new miss must wait for the earliest in-flight
//! miss to complete; [`MshrFile::allocate`] returns that stall so the core
//! model can charge it.

use ise_engine::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A bounded file of in-flight misses, tracked by completion time.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    completions: BinaryHeap<Reverse<Cycle>>,
    full_stalls: u64,
}

impl MshrFile {
    /// Creates a file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            capacity,
            completions: BinaryHeap::new(),
            full_stalls: 0,
        }
    }

    /// Releases entries whose misses completed at or before `now`.
    fn drain(&mut self, now: Cycle) {
        while matches!(self.completions.peek(), Some(Reverse(t)) if *t <= now) {
            self.completions.pop();
        }
    }

    /// Allocates an entry for a miss issued at `now` that will complete at
    /// `now + stall + service`. Returns the extra stall cycles spent
    /// waiting for a free entry (0 if one was available).
    pub fn allocate(&mut self, now: Cycle, service: Cycle) -> Cycle {
        self.drain(now);
        let stall = if self.completions.len() >= self.capacity {
            let Reverse(earliest) = self.completions.pop().expect("full file has entries");
            earliest.saturating_sub(now)
        } else {
            0
        };
        if stall > 0 {
            self.full_stalls += 1;
        }
        self.completions.push(Reverse(now + stall + service));
        stall
    }

    /// In-flight misses as of `now`.
    pub fn outstanding(&mut self, now: Cycle) -> usize {
        self.drain(now);
        self.completions.len()
    }

    /// Returns the file to the state [`MshrFile::new`] builds.
    pub(crate) fn reset(&mut self) {
        self.completions.clear();
        self.full_stalls = 0;
    }

    /// Times the file was found full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }
}

impl ise_types::persist::Persist for MshrFile {
    /// Completion times are written sorted ascending — the canonical
    /// form of the heap's contents — so the serialization is independent
    /// of the heap's internal array layout (which depends on push/pop
    /// history).
    fn save(&self, w: &mut ise_types::persist::Writer) {
        w.section(*b"MSHR", |w| {
            w.usize(self.capacity);
            w.u64(self.full_stalls);
            let mut times: Vec<Cycle> = self.completions.iter().map(|Reverse(t)| *t).collect();
            times.sort_unstable();
            times.save(w);
        });
    }
    fn restore(
        r: &mut ise_types::persist::Reader,
    ) -> Result<Self, ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"MSHR", |r| {
            let capacity = r.usize()?;
            if capacity == 0 {
                return Err(PersistError::Corrupt("zero-capacity MSHR file"));
            }
            let full_stalls = r.u64()?;
            let times: Vec<Cycle> = Persist::restore(r)?;
            if times.len() > capacity {
                return Err(PersistError::Corrupt("MSHR occupancy beyond capacity"));
            }
            Ok(MshrFile {
                capacity,
                completions: times.into_iter().map(Reverse).collect(),
                full_stalls,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_without_pressure_is_free() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(0, 100), 0);
        assert_eq!(m.allocate(0, 100), 0);
        assert_eq!(m.outstanding(0), 2);
    }

    #[test]
    fn full_file_stalls_until_earliest_completion() {
        let mut m = MshrFile::new(2);
        m.allocate(0, 50); // completes at 50
        m.allocate(0, 100); // completes at 100
        let stall = m.allocate(10, 80);
        assert_eq!(stall, 40); // waits for the 50-cycle miss
        assert_eq!(m.full_stalls(), 1);
    }

    #[test]
    fn completions_free_entries() {
        let mut m = MshrFile::new(1);
        m.allocate(0, 10);
        assert_eq!(m.outstanding(10), 0);
        assert_eq!(m.allocate(10, 10), 0);
    }

    #[test]
    fn stall_accounts_into_new_completion_time() {
        let mut m = MshrFile::new(1);
        m.allocate(0, 100); // completes at 100
        let stall = m.allocate(0, 10); // waits 100, completes at 110
        assert_eq!(stall, 100);
        assert_eq!(m.outstanding(105), 1);
        assert_eq!(m.outstanding(110), 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }

    #[test]
    fn persist_round_trip_with_in_flight_misses() {
        use ise_types::persist::{restore_container, save_container};
        let mut m = MshrFile::new(2);
        m.allocate(0, 50);
        m.allocate(0, 100);
        let bytes = save_container(&m);
        let mut back: MshrFile = restore_container(&bytes).unwrap();
        assert_eq!(save_container(&back), bytes);
        // The restored file stalls exactly like the original.
        assert_eq!(back.allocate(10, 80), m.allocate(10, 80));
        assert_eq!(back.full_stalls(), m.full_stalls());
        assert_eq!(back.outstanding(200), m.outstanding(200));
    }

    #[test]
    fn persist_rejects_occupancy_beyond_capacity() {
        use ise_types::persist::{restore_container, save_container, PersistError};
        let mut m = MshrFile::new(4);
        m.allocate(0, 50);
        m.allocate(0, 60);
        m.allocate(0, 70);
        let bytes = save_container(&m);
        // Shrink the stored capacity below the in-flight count
        // (capacity is the first u64 after the section header).
        let mut bad = bytes.clone();
        bad[20..28].copy_from_slice(&2u64.to_le_bytes());
        let off = bad.len() - 8;
        let h = ise_types::persist::fnv1a(&bad[..off]);
        bad[off..].copy_from_slice(&h.to_le_bytes());
        assert!(matches!(
            restore_container::<MshrFile>(&bad),
            Err(PersistError::Corrupt("MSHR occupancy beyond capacity"))
        ));
    }
}
