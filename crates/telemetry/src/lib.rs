//! Unified telemetry: one metrics registry and one event-trace spine for
//! every stats/report surface in the reproduction.
//!
//! The paper's evaluation (§6, Tables 3/5/6, Figs. 5/6) is a counting
//! exercise over micro-events — FSB drains, exception deliveries,
//! deferred interrupts, fault activations. This crate gives those events
//! a single home:
//!
//! * [`Registry`] — typed metrics (monotonic counters, gauges,
//!   [`Summary`](ise_types::stats::Summary)-style streaming stats,
//!   latency [`Histogram`](ise_types::stats::Histogram)s), name-keyed
//!   and rendered in insertion order so snapshots are byte-deterministic
//!   and shard merges under `ise-par` reproduce the sequential bytes.
//! * [`TraceRing`] — a bounded, cycle-stamped ring of structured
//!   [`TraceEvent`]s, off by default, so disabled tracing compiles down to
//!   one predictable branch per record site.
//!
//! `SystemStats`, chaos reports, litmus summaries, and workload stats
//! all render through a [`Registry`] snapshot; the experiment binaries
//! share one emission path over the same snapshots (see
//! `ise-bench::emit_report`). DESIGN.md §11 documents the architecture,
//! the event taxonomy, and the determinism rules.

#![deny(missing_docs)]

mod registry;
mod trace;

pub use registry::{MetricValue, Registry};
pub use trace::{TraceEvent, TraceEventKind, TraceRing};

/// A component's telemetry plane: its metrics and its event trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    /// The metrics registry (always collecting).
    pub registry: Registry,
    /// The event trace (disabled in a default plane; records only in
    /// a [`traced`](Self::traced) one).
    pub trace: TraceRing,
}

impl Telemetry {
    /// A plane whose trace keeps the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn traced(capacity: usize) -> Self {
        Telemetry {
            registry: Registry::new(),
            trace: TraceRing::new(capacity),
        }
    }

    /// Records a trace event (no-op when tracing is off).
    #[inline]
    pub fn event(&mut self, cycle: u64, core: u32, kind: TraceEventKind) {
        self.trace.record(cycle, core, kind);
    }
}

impl ise_types::persist::Persist for Telemetry {
    fn save(&self, w: &mut ise_types::persist::Writer) {
        w.section(*b"TELE", |w| {
            self.registry.save(w);
            self.trace.save(w);
        });
    }
    fn restore(
        r: &mut ise_types::persist::Reader,
    ) -> Result<Self, ise_types::persist::PersistError> {
        r.section(*b"TELE", |r| {
            Ok(Telemetry {
                registry: ise_types::persist::Persist::restore(r)?,
                trace: ise_types::persist::Persist::restore(r)?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::ToJson;

    #[test]
    fn disabled_plane_keeps_registry_live() {
        let mut t = Telemetry::default();
        t.event(1, 0, TraceEventKind::InterruptDelivered);
        t.registry.incr("events");
        assert!(t.trace.is_empty());
        assert_eq!(t.registry.counter("events"), 1);
    }

    #[test]
    fn traced_plane_records() {
        let mut t = Telemetry::traced(8);
        t.event(5, 1, TraceEventKind::PageWalk { page: 3 });
        assert_eq!(t.trace.len(), 1);
        assert!(t.trace.to_json().render().contains("\"page_walk\""));
    }
}
