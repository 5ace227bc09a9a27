//! Fault sources the OS can *resolve*.
//!
//! [`ise_mem::FaultOracle`] is the hardware-side seam: deny or allow a
//! transaction at the LLC↔memory boundary. The OS handler needs one more
//! verb — *resolve the cause* for an address so the re-issued (or
//! OS-applied) store succeeds. EInject resolves by clearing the page
//! bit; the chaos [`FaultInjector`](crate::faults::FaultInjector) by
//! clearing its planned page (a transient cause only heals itself).
//!
//! [`CompositeResolver`] chains several sources in priority order, so a
//! system can run EInject *and* injected chaos faults at once — each
//! denial resolved by whichever source raised it.

use crate::einject::EInject;
use ise_mem::FaultOracle;
use ise_types::addr::Addr;
use ise_types::exception::ExceptionKind;
use ise_types::persist::{PersistError, Reader, Writer};
use std::rc::Rc;

/// A fault source whose causes the OS knows how to resolve.
pub trait FaultResolver: FaultOracle {
    /// Whether an access to `addr` would currently be denied (a pure
    /// probe: unlike [`FaultOracle::check`], never counts as a denial).
    fn is_faulting(&self, addr: Addr) -> bool;

    /// Resolves whatever cause this source has for `addr` (page-in,
    /// repair, mapping install). Idempotent; a no-op if the source has
    /// no cause there.
    fn resolve(&self, addr: Addr);

    /// Saves the source's dynamic state into a system snapshot. `&self`
    /// because shared sources (behind `Rc`) keep their mutable state in
    /// cells; the default is a no-op for stateless sources.
    fn save_state(&self, _w: &mut Writer) {}

    /// Restores the state written by [`FaultResolver::save_state`]. Must
    /// consume exactly what `save_state` wrote.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed or mismatched snapshots.
    fn restore_state(&self, _r: &mut Reader) -> Result<(), PersistError> {
        Ok(())
    }
}

impl FaultResolver for EInject {
    fn is_faulting(&self, addr: Addr) -> bool {
        EInject::is_faulting(self, addr)
    }

    fn resolve(&self, addr: Addr) {
        self.clear_faulting(addr);
    }

    fn save_state(&self, w: &mut Writer) {
        EInject::save_state(self, w);
    }

    fn restore_state(&self, r: &mut Reader) -> Result<(), PersistError> {
        EInject::restore_state(self, r)
    }
}

/// Chains fault sources: the first denial wins; resolution goes to every
/// source that currently has a cause for the address.
pub struct CompositeResolver {
    sources: Vec<Rc<dyn FaultResolver>>,
}

impl std::fmt::Debug for CompositeResolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeResolver")
            .field("sources", &self.sources.len())
            .finish()
    }
}

impl CompositeResolver {
    /// Chains `sources` in priority order.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty.
    pub fn new(sources: Vec<Rc<dyn FaultResolver>>) -> Self {
        assert!(!sources.is_empty(), "composite needs at least one source");
        CompositeResolver { sources }
    }

    /// Number of chained sources.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether the composite has no sources (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

impl FaultOracle for CompositeResolver {
    fn check(&self, addr: Addr, is_store: bool) -> Option<ExceptionKind> {
        self.sources.iter().find_map(|s| s.check(addr, is_store))
    }

    fn advance_to(&self, now: ise_engine::Cycle) {
        for s in &self.sources {
            s.advance_to(now);
        }
    }
}

impl FaultResolver for CompositeResolver {
    fn is_faulting(&self, addr: Addr) -> bool {
        self.sources.iter().any(|s| s.is_faulting(addr))
    }

    fn resolve(&self, addr: Addr) {
        for s in &self.sources {
            if s.is_faulting(addr) {
                s.resolve(addr);
            }
        }
    }

    fn save_state(&self, w: &mut Writer) {
        w.section(*b"CMPR", |w| {
            w.usize(self.sources.len());
            for s in &self.sources {
                s.save_state(w);
            }
        });
    }

    fn restore_state(&self, r: &mut Reader) -> Result<(), PersistError> {
        r.section(*b"CMPR", |r| {
            let n = r.usize()?;
            if n != self.sources.len() {
                return Err(PersistError::Corrupt("composite source count mismatch"));
            }
            for s in &self.sources {
                s.restore_state(r)?;
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultInjector, FaultPlan};
    use ise_types::addr::PAGE_SIZE;
    use ise_types::faults::{FaultKind, FaultSpec};

    const E_BASE: u64 = 0x10_0000;
    /// Planned in the injector and inside EInject's region.
    const SHARED: Addr = Addr::new(E_BASE);
    /// Inside EInject's region only.
    const IN_E: Addr = Addr::new(E_BASE + PAGE_SIZE);
    /// Planned in the injector, past EInject's four pages.
    const IN_F: Addr = Addr::new(E_BASE + 4 * PAGE_SIZE);

    /// EInject ahead of an injector that raises permanent page faults on
    /// `SHARED` and `IN_F`.
    fn sources() -> (Rc<EInject>, Rc<FaultInjector>, CompositeResolver) {
        let e = Rc::new(EInject::new(Addr::new(E_BASE), 4 * PAGE_SIZE));
        let spec = FaultSpec {
            kind: FaultKind::Permanent,
            exception: ExceptionKind::PageFault,
        };
        let f = Rc::new(
            FaultPlan::new(1)
                .pages([SHARED.page(), IN_F.page()], spec)
                .build(),
        );
        let c = CompositeResolver::new(vec![e.clone(), f.clone()]);
        (e, f, c)
    }

    #[test]
    fn einject_resolver_clears_pages() {
        let e = EInject::new(Addr::new(0x10_0000), 4 * PAGE_SIZE);
        let a = Addr::new(0x10_0000);
        e.set_faulting(a);
        assert!(FaultResolver::is_faulting(&e, a));
        FaultResolver::resolve(&e, a);
        assert!(!FaultResolver::is_faulting(&e, a));
    }

    #[test]
    fn composite_chains_and_resolves_the_right_source() {
        let (e, f, c) = sources();
        assert_eq!(c.len(), 2);
        e.set_faulting(SHARED);
        e.set_faulting(IN_E);
        // The first denial wins: EInject answers for the shared page and
        // the injector behind it is never consulted there.
        assert_eq!(c.check(SHARED, true), Some(ExceptionKind::BusError));
        assert_eq!(c.check(IN_F, true), Some(ExceptionKind::PageFault));
        assert_eq!(f.denied_count(), 1);
        // Resolution reaches only the sources that fault at the address.
        c.resolve(IN_E);
        assert!(!e.is_faulting(IN_E));
        assert_eq!(f.resolved_count(), 0);
        c.resolve(IN_F);
        assert_eq!(f.resolved_count(), 1);
        assert_eq!(e.mmio_writes().1, 1, "EInject's clr register untouched");
        c.resolve(SHARED);
        assert!(!e.is_faulting(SHARED));
        assert_eq!(f.resolved_count(), 2);
        for a in [SHARED, IN_E, IN_F] {
            assert_eq!(c.check(a, true), None);
        }
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_composite_rejected() {
        let _ = CompositeResolver::new(vec![]);
    }

    #[test]
    fn composite_persists_every_source_in_order() {
        let (e, f, c) = sources();
        e.set_faulting(IN_E);
        f.resolve(IN_F);
        let mut w = Writer::container();
        FaultResolver::save_state(&c, &mut w);
        let bytes = w.finish();

        let (e2, f2, c2) = sources();
        let mut r = Reader::container(&bytes).unwrap();
        FaultResolver::restore_state(&c2, &mut r).unwrap();
        assert!(e2.is_faulting(IN_E));
        assert_eq!(f2.cleared_pages(), vec![IN_F.page()]);
        assert!(c2.is_faulting(IN_E));
        assert!(c2.is_faulting(SHARED));
        assert!(!c2.is_faulting(IN_F));
        // The same sources chained in the other order do not restore.
        let (e3, f3, _) = sources();
        let swapped = CompositeResolver::new(vec![f3, e3]);
        let mut r = Reader::container(&bytes).unwrap();
        assert!(FaultResolver::restore_state(&swapped, &mut r).is_err());
        // Source-count mismatch is rejected.
        let lone = CompositeResolver::new(vec![Rc::new(EInject::new(
            Addr::new(E_BASE),
            4 * PAGE_SIZE,
        ))]);
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            FaultResolver::restore_state(&lone, &mut r),
            Err(PersistError::Corrupt("composite source count mismatch"))
        ));
    }
}
