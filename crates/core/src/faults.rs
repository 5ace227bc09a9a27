//! Chaos fault injection behind the EInject seam.
//!
//! [`EInject`](crate::einject::EInject) models one failure shape: a page
//! faults until the OS clears its bitmap bit. The chaos campaigns need
//! richer shapes — transient bus errors that heal after a few denials,
//! intermittent flaky-link denials, time-windowed outages, and per-page
//! error codes. [`FaultInjector`] interprets a [`FaultPlan`] of
//! [`FaultSpec`]s behind the *same* two seams EInject uses
//! ([`ise_mem::FaultOracle`] for the hierarchy,
//! [`FaultResolver`](crate::resolver::FaultResolver) for the OS), so the
//! hierarchy, FSBC and handler consume it unchanged.
//!
//! Temporal semantics, per [`FaultKind`]:
//!
//! * `Permanent` — denies until [`resolve`](FaultInjector) clears it;
//!   exactly EInject's behaviour.
//! * `Transient { clears_after }` — each denied transaction counts; after
//!   `clears_after` denials the cause heals itself. `resolve` is a
//!   **no-op**: the OS cannot clear a transient bus error, only retrying
//!   gets through. This is what drives the handler's bounded
//!   retry-with-backoff path.
//! * `Intermittent { probability }` — each transaction is denied
//!   independently with the given probability, drawn from the injector's
//!   seeded [`SimRng`] so campaigns replay byte-identically.
//! * `Windowed { from, until }` — denies only while the injector's clock
//!   (advanced by the hierarchy via [`FaultOracle::advance_to`]) lies in
//!   `[from, until)`.

use ise_engine::{Cycle, SimRng};
use ise_mem::FaultOracle;
use ise_types::addr::Addr;
use ise_types::exception::ExceptionKind;
use ise_types::faults::{FaultKind, FaultSpec};
use ise_types::PageId;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use crate::resolver::FaultResolver;

/// A declarative map from pages to the fault each injects, plus the seed
/// governing intermittent draws.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    pages: Vec<(PageId, FaultSpec)>,
}

impl FaultPlan {
    /// An empty plan drawing intermittent denials from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            pages: Vec::new(),
        }
    }

    /// Adds one page with its spec. Re-adding a page replaces its spec.
    pub fn page(mut self, page: PageId, spec: FaultSpec) -> Self {
        if let Some(slot) = self.pages.iter_mut().find(|(p, _)| *p == page) {
            slot.1 = spec;
        } else {
            self.pages.push((page, spec));
        }
        self
    }

    /// Adds every page in `pages` with the same spec.
    pub fn pages<I: IntoIterator<Item = PageId>>(mut self, pages: I, spec: FaultSpec) -> Self {
        for p in pages {
            self = self.page(p, spec);
        }
        self
    }

    /// Number of planned pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Materialises the injector.
    pub fn build(self) -> FaultInjector {
        FaultInjector::new(self)
    }
}

/// Per-page runtime state.
#[derive(Debug, Clone)]
struct PageState {
    spec: FaultSpec,
    /// Denials charged so far (drives transient healing).
    denials: u32,
    /// Healed or resolved; a cleared page never denies again.
    cleared: bool,
}

/// Interprets a [`FaultPlan`] as a shareable fault source.
///
/// Like [`EInject`](crate::einject::EInject) it uses interior mutability
/// so one injector can sit behind an `Rc` shared by the memory hierarchy
/// (as a [`FaultOracle`]) and the OS handler (as a
/// [`FaultResolver`](crate::resolver::FaultResolver)).
#[derive(Debug)]
pub struct FaultInjector {
    state: RefCell<HashMap<PageId, PageState>>,
    rng: RefCell<SimRng>,
    now: Cell<Cycle>,
    denied: Cell<u64>,
    transient_clears: Cell<u64>,
    resolved: Cell<u64>,
}

impl FaultInjector {
    /// Builds the injector from a plan.
    pub fn new(plan: FaultPlan) -> Self {
        let state = plan
            .pages
            .into_iter()
            .map(|(page, spec)| {
                let cleared = matches!(spec.kind, FaultKind::Transient { clears_after: 0 });
                (
                    page,
                    PageState {
                        spec,
                        denials: 0,
                        cleared,
                    },
                )
            })
            .collect();
        FaultInjector {
            state: RefCell::new(state),
            rng: RefCell::new(SimRng::seed_from(plan.seed)),
            now: Cell::new(0),
            denied: Cell::new(0),
            transient_clears: Cell::new(0),
            resolved: Cell::new(0),
        }
    }

    /// Transactions denied so far (across all pages and kinds).
    pub fn denied_count(&self) -> u64 {
        self.denied.get()
    }

    /// Transient causes that have healed themselves.
    pub fn transient_clears(&self) -> u64 {
        self.transient_clears.get()
    }

    /// Causes cleared by OS resolution.
    pub fn resolved_count(&self) -> u64 {
        self.resolved.get()
    }

    /// Pages whose cause has cleared (healed or OS-resolved), sorted by
    /// page index so callers iterating the set stay deterministic.
    pub fn cleared_pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self
            .state
            .borrow()
            .iter()
            .filter(|(_, s)| s.cleared)
            .map(|(&p, _)| p)
            .collect();
        pages.sort_by_key(|p| p.index());
        pages
    }

    /// The injector's current clock, as last advanced by the hierarchy.
    pub fn now(&self) -> Cycle {
        self.now.get()
    }

    /// Saves the injector's runtime state: per-page denial counts,
    /// cleared flags, and specs (sorted by page index — the canonical
    /// form), the intermittent-draw RNG position, the clock last pushed
    /// by [`FaultOracle::advance_to`], and the campaign counters. The
    /// specs are configuration — the embedder rebuilds the injector from
    /// the same [`FaultPlan`] before restoring — but they travel in the
    /// image anyway so a snapshot's content hash distinguishes plans
    /// that fault the same pages differently.
    pub fn save_state(&self, w: &mut ise_types::persist::Writer) {
        use ise_types::persist::Persist;
        w.section(*b"FINJ", |w| {
            let state = self.state.borrow();
            let mut pages: Vec<(&PageId, &PageState)> = state.iter().collect();
            pages.sort_by_key(|(p, _)| p.index());
            w.usize(pages.len());
            for (page, ps) in pages {
                page.save(w);
                ps.spec.save(w);
                w.u32(ps.denials);
                w.bool(ps.cleared);
            }
            self.rng.borrow().save(w);
            w.u64(self.now.get());
            w.u64(self.denied.get());
            w.u64(self.transient_clears.get());
            w.u64(self.resolved.get());
        });
    }

    /// Restores the runtime state in place.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Corrupt`](ise_types::persist::PersistError)
    /// if the snapshot's page set does not match this injector's plan —
    /// the plan is the injector's identity and must be rebuilt unchanged.
    pub fn restore_state(
        &self,
        r: &mut ise_types::persist::Reader,
    ) -> Result<(), ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"FINJ", |r| {
            let n = r.usize()?;
            {
                let mut state = self.state.borrow_mut();
                if n != state.len() {
                    return Err(PersistError::Corrupt("fault plan page-set mismatch"));
                }
                for _ in 0..n {
                    let page = PageId::restore(r)?;
                    let spec = ise_types::FaultSpec::restore(r)?;
                    let denials = r.u32()?;
                    let cleared = r.bool()?;
                    let Some(ps) = state.get_mut(&page) else {
                        return Err(PersistError::Corrupt("fault plan page-set mismatch"));
                    };
                    if ps.spec != spec {
                        return Err(PersistError::Corrupt("fault plan spec mismatch"));
                    }
                    ps.denials = denials;
                    ps.cleared = cleared;
                }
            }
            *self.rng.borrow_mut() = SimRng::restore(r)?;
            self.now.set(r.u64()?);
            self.denied.set(r.u64()?);
            self.transient_clears.set(r.u64()?);
            self.resolved.set(r.u64()?);
            Ok(())
        })
    }

    /// Whether `addr`'s page currently has an uncleared cause. Windowed
    /// causes only count while the clock is inside their window.
    fn has_cause(&self, addr: Addr) -> bool {
        let state = self.state.borrow();
        let Some(page) = state.get(&addr.page()) else {
            return false;
        };
        if page.cleared {
            return false;
        }
        match page.spec.kind {
            FaultKind::Windowed { from, until } => {
                let now = self.now.get();
                from <= now && now < until
            }
            _ => true,
        }
    }
}

impl FaultOracle for FaultInjector {
    fn check(&self, addr: Addr, _is_store: bool) -> Option<ExceptionKind> {
        let mut state = self.state.borrow_mut();
        let page = state.get_mut(&addr.page())?;
        if page.cleared {
            return None;
        }
        let deny = match page.spec.kind {
            FaultKind::Permanent => true,
            FaultKind::Transient { clears_after } => {
                page.denials += 1;
                if page.denials >= clears_after {
                    page.cleared = true;
                    self.transient_clears.set(self.transient_clears.get() + 1);
                }
                true
            }
            FaultKind::Intermittent { probability } => self.rng.borrow_mut().chance(probability),
            FaultKind::Windowed { from, until } => {
                let now = self.now.get();
                from <= now && now < until
            }
        };
        if deny {
            self.denied.set(self.denied.get() + 1);
            Some(page.spec.exception)
        } else {
            None
        }
    }

    fn advance_to(&self, now: Cycle) {
        self.now.set(now);
    }
}

impl FaultResolver for FaultInjector {
    fn is_faulting(&self, addr: Addr) -> bool {
        self.has_cause(addr)
    }

    fn resolve(&self, addr: Addr) {
        let mut state = self.state.borrow_mut();
        let Some(page) = state.get_mut(&addr.page()) else {
            return;
        };
        if page.cleared {
            return;
        }
        // A transient cause cannot be resolved from software — it heals
        // only by absorbing denials; the handler must retry through it.
        if matches!(page.spec.kind, FaultKind::Transient { .. }) {
            return;
        }
        page.cleared = true;
        self.resolved.set(self.resolved.get() + 1);
    }

    fn save_state(&self, w: &mut ise_types::persist::Writer) {
        FaultInjector::save_state(self, w);
    }

    fn restore_state(
        &self,
        r: &mut ise_types::persist::Reader,
    ) -> Result<(), ise_types::persist::PersistError> {
        FaultInjector::restore_state(self, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::addr::PAGE_SIZE;

    fn addr(page: u64) -> Addr {
        Addr::new(page * PAGE_SIZE)
    }

    fn injector(kind: FaultKind) -> FaultInjector {
        FaultPlan::new(7)
            .page(addr(5).page(), FaultSpec::bus_error(kind))
            .build()
    }

    #[test]
    fn permanent_denies_until_resolved() {
        let inj = injector(FaultKind::Permanent);
        assert_eq!(inj.check(addr(5), true), Some(ExceptionKind::BusError));
        assert_eq!(inj.check(addr(5), true), Some(ExceptionKind::BusError));
        assert!(inj.is_faulting(addr(5)));
        inj.resolve(addr(5));
        assert!(!inj.is_faulting(addr(5)));
        assert_eq!(inj.check(addr(5), true), None);
        assert_eq!(inj.denied_count(), 2);
        assert_eq!(inj.resolved_count(), 1);
    }

    #[test]
    fn transient_heals_after_denials_and_ignores_resolve() {
        let inj = injector(FaultKind::Transient { clears_after: 3 });
        inj.resolve(addr(5)); // no-op on transients
        assert!(inj.is_faulting(addr(5)));
        for _ in 0..3 {
            assert_eq!(inj.check(addr(5), true), Some(ExceptionKind::BusError));
        }
        assert_eq!(inj.check(addr(5), true), None);
        assert!(!inj.is_faulting(addr(5)));
        assert_eq!(inj.transient_clears(), 1);
        assert_eq!(inj.resolved_count(), 0);
    }

    #[test]
    fn transient_zero_never_denies() {
        let inj = injector(FaultKind::Transient { clears_after: 0 });
        assert_eq!(inj.check(addr(5), true), None);
        assert!(!inj.is_faulting(addr(5)));
    }

    #[test]
    fn intermittent_is_deterministic_per_seed() {
        let draws = |seed: u64| {
            let inj = FaultPlan::new(seed)
                .page(
                    addr(5).page(),
                    FaultSpec::bus_error(FaultKind::Intermittent { probability: 0.5 }),
                )
                .build();
            (0..64)
                .map(|_| inj.check(addr(5), true).is_some())
                .collect::<Vec<_>>()
        };
        let a = draws(11);
        assert_eq!(a, draws(11), "same seed must replay identically");
        assert!(a.iter().any(|d| *d) && a.iter().any(|d| !*d));
        assert_ne!(a, draws(12));
    }

    #[test]
    fn windowed_denies_only_inside_window() {
        let inj = injector(FaultKind::Windowed {
            from: 100,
            until: 200,
        });
        inj.advance_to(50);
        assert_eq!(inj.check(addr(5), true), None);
        assert!(!inj.is_faulting(addr(5)));
        inj.advance_to(150);
        assert_eq!(inj.check(addr(5), true), Some(ExceptionKind::BusError));
        assert!(inj.is_faulting(addr(5)));
        inj.advance_to(200);
        assert_eq!(inj.check(addr(5), true), None);
    }

    #[test]
    fn per_page_error_codes() {
        let inj = FaultPlan::new(1)
            .page(addr(1).page(), FaultSpec::bus_error(FaultKind::Permanent))
            .page(
                addr(2).page(),
                FaultSpec::bus_error(FaultKind::Permanent)
                    .with_exception(ExceptionKind::MachineCheck),
            )
            .build();
        assert_eq!(inj.check(addr(1), true), Some(ExceptionKind::BusError));
        assert_eq!(inj.check(addr(2), true), Some(ExceptionKind::MachineCheck));
        assert_eq!(inj.check(addr(3), true), None);
    }

    #[test]
    fn persist_round_trip_resumes_intermittent_stream_mid_campaign() {
        use ise_types::persist::{Reader, Writer};
        let plan = || {
            FaultPlan::new(23)
                .page(
                    addr(1).page(),
                    FaultSpec::bus_error(FaultKind::Intermittent { probability: 0.5 }),
                )
                .page(
                    addr(2).page(),
                    FaultSpec::bus_error(FaultKind::Transient { clears_after: 5 }),
                )
                .page(addr(3).page(), FaultSpec::bus_error(FaultKind::Permanent))
        };
        let orig = plan().build();
        // Consume part of the campaign: burn intermittent draws, charge
        // transient denials, advance the clock, resolve nothing yet.
        for _ in 0..10 {
            orig.check(addr(1), true);
        }
        for _ in 0..2 {
            orig.check(addr(2), true);
        }
        orig.advance_to(777);
        let mut w = Writer::container();
        orig.save_state(&mut w);
        let bytes = w.finish();

        let back = plan().build();
        let mut r = Reader::container(&bytes).unwrap();
        back.restore_state(&mut r).unwrap();
        assert_eq!(back.now(), 777);
        assert_eq!(back.denied_count(), orig.denied_count());
        // Canonical: re-save is byte-identical despite HashMap order.
        let mut w2 = Writer::container();
        back.save_state(&mut w2);
        assert_eq!(w2.finish(), bytes);
        // The restored injector replays the exact same future: the RNG
        // stream tail and the transient healing point must coincide.
        for _ in 0..64 {
            assert_eq!(back.check(addr(1), true), orig.check(addr(1), true));
            assert_eq!(back.check(addr(2), true), orig.check(addr(2), true));
        }
        assert_eq!(back.transient_clears(), orig.transient_clears());
        assert_eq!(back.cleared_pages(), orig.cleared_pages());
    }

    #[test]
    fn persist_rejects_plan_mismatch() {
        use ise_types::persist::{PersistError, Reader, Writer};
        let orig = injector(FaultKind::Permanent);
        let mut w = Writer::container();
        orig.save_state(&mut w);
        let bytes = w.finish();
        // A plan naming a different page set must be rejected.
        let other = FaultPlan::new(7)
            .page(addr(6).page(), FaultSpec::bus_error(FaultKind::Permanent))
            .build();
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            other.restore_state(&mut r),
            Err(PersistError::Corrupt("fault plan page-set mismatch"))
        ));
        // Same pages, different spec: also rejected — and because the
        // spec travels in the image, two plans faulting the same pages
        // differently can never hash to the same snapshot.
        let respecced = FaultPlan::new(7)
            .page(
                addr(5).page(),
                FaultSpec::bus_error(FaultKind::Transient { clears_after: 1 }),
            )
            .build();
        let mut r = Reader::container(&bytes).unwrap();
        assert!(matches!(
            respecced.restore_state(&mut r),
            Err(PersistError::Corrupt("fault plan spec mismatch"))
        ));
    }

    #[test]
    fn plan_replaces_respecified_pages() {
        let plan = FaultPlan::new(0)
            .page(addr(1).page(), FaultSpec::bus_error(FaultKind::Permanent))
            .page(
                addr(1).page(),
                FaultSpec::bus_error(FaultKind::Transient { clears_after: 1 }),
            );
        assert_eq!(plan.len(), 1);
        let inj = plan.build();
        assert_eq!(inj.check(addr(1), true), Some(ExceptionKind::BusError));
        assert_eq!(inj.check(addr(1), true), None, "transient spec won");
    }
}
