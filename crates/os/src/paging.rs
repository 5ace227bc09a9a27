//! Demand-paging IO and the batching optimization (paper §5.3).
//!
//! "Within a single invocation of the imprecise store exception handler,
//! the OS can schedule multiple IO requests for all the faulting stores
//! covered by the exception, effectively overlapping IO latencies and
//! improving IO throughput." [`IoScheduler`] models both regimes: serial
//! (one precise page fault at a time) and batched (one handler invocation
//! issuing overlapping IOs).

use ise_engine::Cycle;

/// Cycles between consecutive IO submissions within one batch (queueing
/// one request on the device).
pub const IO_ISSUE_GAP: Cycle = 200;

/// Models a storage device servicing page-in requests.
#[derive(Debug, Clone)]
pub struct IoScheduler {
    io_latency: Cycle,
    ios_issued: u64,
}

impl IoScheduler {
    /// Creates a scheduler whose device takes `io_latency` cycles per
    /// request (tens of ms in reality; scaled in simulation).
    ///
    /// # Panics
    ///
    /// Panics if `io_latency` is zero.
    pub fn new(io_latency: Cycle) -> Self {
        assert!(io_latency > 0, "IO latency must be positive");
        IoScheduler {
            io_latency,
            ios_issued: 0,
        }
    }

    /// Total IOs issued.
    pub fn ios_issued(&self) -> u64 {
        self.ios_issued
    }

    /// Completion time of `n` page-ins issued at `now`, overlapped within
    /// one handler invocation: submissions are pipelined every
    /// [`IO_ISSUE_GAP`] cycles and the device works on them concurrently.
    pub fn batched(&mut self, n: usize, now: Cycle) -> Cycle {
        if n == 0 {
            return now;
        }
        self.ios_issued += n as u64;
        now + (n as Cycle - 1) * IO_ISSUE_GAP + self.io_latency
    }

    /// Completion time of `n` page-ins under the traditional regime: each
    /// precise page fault blocks the program, so the next IO is issued
    /// only after the previous one finished and the process resumed.
    pub fn serial(&mut self, n: usize, now: Cycle) -> Cycle {
        self.ios_issued += n as u64;
        now + n as Cycle * self.io_latency
    }

    /// Saves the device's dynamic state (the issue counter; `io_latency`
    /// is configuration the embedder rebuilds).
    pub fn save_state(&self, w: &mut ise_types::persist::Writer) {
        w.u64(self.ios_issued);
    }

    /// Restores the issue counter in place.
    pub fn restore_state(
        &mut self,
        r: &mut ise_types::persist::Reader,
    ) -> Result<(), ise_types::persist::PersistError> {
        self.ios_issued = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_io_costs_the_same_either_way() {
        let mut s = IoScheduler::new(20_000);
        assert_eq!(s.batched(1, 0), 20_000);
        assert_eq!(s.serial(1, 0), 20_000);
    }

    #[test]
    fn batching_overlaps_io() {
        let mut s = IoScheduler::new(20_000);
        let batched = s.batched(10, 0);
        let serial = s.serial(10, 0);
        assert!(batched < serial / 4, "batched {batched} vs serial {serial}");
        assert_eq!(s.ios_issued(), 20);
    }

    #[test]
    fn speedup_grows_with_batch_size() {
        let speedup = |n| {
            let mut s = IoScheduler::new(20_000);
            s.serial(n, 0) as f64 / s.batched(n, 0) as f64
        };
        assert!(speedup(2) > 1.5);
        assert!(speedup(32) > speedup(2));
        assert_eq!(speedup(1), 1.0);
        // The figures EXPERIMENTS.md quotes for 4/16/64 IOs.
        let tenths = [4, 16, 64].map(|n| (speedup(n) * 10.0).round());
        assert_eq!(tenths, [39.0, 139.0, 393.0]);
    }

    #[test]
    fn persist_round_trip_keeps_issue_counter() {
        use ise_types::persist::{Reader, Writer};
        let mut s = IoScheduler::new(20_000);
        s.batched(5, 0);
        s.serial(2, 0);
        let mut w = Writer::container();
        s.save_state(&mut w);
        let bytes = w.finish();
        let mut back = IoScheduler::new(20_000);
        let mut r = Reader::container(&bytes).unwrap();
        back.restore_state(&mut r).unwrap();
        assert_eq!(back.ios_issued(), s.ios_issued());
        assert_eq!(back.batched(3, 100), s.batched(3, 100));
    }

    #[test]
    fn zero_ios_complete_immediately() {
        let mut s = IoScheduler::new(100);
        assert_eq!(s.batched(0, 42), 42);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_latency_rejected() {
        let _ = IoScheduler::new(0);
    }
}
