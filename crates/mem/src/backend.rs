//! The DRAM timing model and the fault-oracle hook.
//!
//! The paper's EInject device "monitors each non-coherent TileLink-UL
//! transaction between the LLC and memory" and can deny it (§6.2). We
//! reproduce that boundary: the hierarchy consults a [`FaultOracle`]
//! exactly when a request crosses from the LLC toward memory, and a denied
//! transaction returns an error response instead of data. EInject itself
//! lives in `ise-core`; this crate only defines the seam.

use ise_engine::Cycle;
use ise_types::addr::Addr;
use ise_types::config::MemoryConfig;
use ise_types::exception::ExceptionKind;
use ise_types::CoreId;

/// One request reaching the LLC↔memory boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Requesting core.
    pub core: CoreId,
    /// Line-aligned address.
    pub addr: Addr,
    /// Whether this is a store (write-allocate fetch for ownership).
    pub is_store: bool,
}

/// Fixed-latency DRAM with the §3.3 store-latency skew knob.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: MemoryConfig,
    reads: u64,
    writes: u64,
}

impl Dram {
    /// Builds DRAM from its configuration.
    pub fn new(cfg: MemoryConfig) -> Self {
        Dram {
            cfg,
            reads: 0,
            writes: 0,
        }
    }

    /// Returns DRAM to the state [`Dram::new`] builds.
    pub(crate) fn reset(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }

    /// Read accesses served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Write (ownership-fetch) accesses served.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Saves the mutable DRAM state (access counters). The timing
    /// configuration stays with the owner — restore is in-place into a
    /// DRAM built from the same config.
    pub fn save_state(&self, w: &mut ise_types::persist::Writer) {
        w.section(*b"DRAM", |w| {
            w.u64(self.reads);
            w.u64(self.writes);
        });
    }

    /// Restores counters captured by [`Dram::save_state`].
    pub fn restore_state(
        &mut self,
        r: &mut ise_types::persist::Reader,
    ) -> Result<(), ise_types::persist::PersistError> {
        r.section(*b"DRAM", |r| {
            self.reads = r.u64()?;
            self.writes = r.u64()?;
            Ok(())
        })
    }

    /// Services `req`, returning its latency in cycles.
    pub fn access(&mut self, req: &MemRequest) -> Cycle {
        if req.is_store {
            self.writes += 1;
            self.cfg.access_latency * self.cfg.store_latency_skew
        } else {
            self.reads += 1;
            self.cfg.access_latency
        }
    }
}

/// Decides whether a transaction crossing the LLC↔memory boundary is
/// denied. Implemented by EInject (`ise-core`) and by accelerator models.
pub trait FaultOracle {
    /// Returns the exception to embed in the response, or `None` to let
    /// the transaction through.
    fn check(&self, addr: Addr, is_store: bool) -> Option<ExceptionKind>;

    /// Informs the oracle of the cycle of the hierarchy's latest access.
    /// Stateless oracles (EInject's bitmap) ignore it; time-dependent
    /// ones (windowed chaos faults) use it to decide whether they are
    /// active. The hierarchy hands the cycle over only before the
    /// oracle's clock is read: before each of its own LLC-miss checks,
    /// and when its owner calls `MemoryHierarchy::sync_oracle_clock`
    /// before reading the oracle another way. Every read therefore sees
    /// the cycle of the latest access, as if it were handed over on
    /// every access.
    fn advance_to(&self, _now: Cycle) {}
}

/// An oracle that never faults (the Baseline configuration of §6.5).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultOracle for NoFaults {
    fn check(&self, _addr: Addr, _is_store: bool) -> Option<ExceptionKind> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_charges_flat_latency() {
        let mut d = Dram::new(MemoryConfig::isca23());
        let req = MemRequest {
            core: CoreId(0),
            addr: Addr::new(0),
            is_store: false,
        };
        assert_eq!(d.access(&req), 80);
        assert_eq!(d.reads(), 1);
    }

    #[test]
    fn store_skew_multiplies_store_latency_only() {
        let mut d = Dram::new(MemoryConfig::isca23());
        let mut skewed = Dram::new({
            let mut c = MemoryConfig::isca23();
            c.store_latency_skew = 4;
            c
        });
        let ld = MemRequest {
            core: CoreId(0),
            addr: Addr::new(0),
            is_store: false,
        };
        let st = MemRequest {
            is_store: true,
            ..ld
        };
        assert_eq!(skewed.access(&ld), d.access(&ld));
        assert_eq!(skewed.access(&st), 320);
        assert_eq!(skewed.writes(), 1);
    }

    #[test]
    fn no_faults_oracle_always_allows() {
        assert_eq!(NoFaults.check(Addr::new(0xdead), true), None);
        assert_eq!(NoFaults.check(Addr::new(0xdead), false), None);
    }
}
