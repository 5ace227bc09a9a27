//! The cycle-stamped structured event trace.
//!
//! A bounded ring of micro-events — FSB drain episodes, exception and
//! interrupt deliveries, fault activations, page walks — that the
//! evaluation attributes its counters to. Tracing is off by default:
//! a disabled ring rejects every record through one inlined branch, so
//! the instrumented hot paths cost nothing measurable when tracing is
//! off (every simbench run has tracing disabled, so its no-regression
//! gate covers that cost).

use ise_types::json::{Json, ToJson};
use ise_types::persist::{Persist, PersistError, Reader, Writer};
use std::collections::VecDeque;

/// The event taxonomy (DESIGN.md §11).
///
/// Each variant is one micro-event the paper's evaluation counts;
/// payloads carry the attribution the aggregate counters lose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// An FSB drain episode began with `pending` faulting-store entries.
    FsbDrainBegin {
        /// Entries queued for the episode.
        pending: usize,
    },
    /// The episode's handler chain finished; `applied` stores landed in
    /// `cycles` total handler time (detection → resume).
    FsbDrainEnd {
        /// Stores the OS applied for the episode.
        applied: u64,
        /// Handler cycles from detection to program resume.
        cycles: u64,
    },
    /// An episode chunk beyond the first — the ring was smaller than the
    /// episode and the FSBC delivered an early-drain interrupt.
    EarlyDrainChunk,
    /// A faulting store was detected at the LLC↔memory boundary.
    FaultDetected {
        /// The 4 KiB page the store targeted.
        page: u64,
    },
    /// A precise exception was delivered.
    PreciseException {
        /// The architectural error code.
        code: u16,
    },
    /// A timer interrupt was delivered to a core.
    InterruptDelivered,
    /// A timer interrupt was deferred because the IE bit was held by an
    /// exception handler (§5.3 serialization).
    InterruptDeferred,
    /// A chaos fault plan activated a fault on `page`.
    FaultActivated {
        /// The injected page.
        page: u64,
    },
    /// A fault on `page` cleared (resolved or expired).
    FaultCleared {
        /// The cleared page.
        page: u64,
    },
    /// A page walk completed (double TLB miss).
    PageWalk {
        /// The walked page.
        page: u64,
    },
    /// A TLB refill installed a translation.
    TlbRefill {
        /// The refilled page.
        page: u64,
    },
    /// The guest frontend (crate `ise-isa`) took an architectural trap
    /// during its functional pre-run; `cause` is the RISC-V mcause value.
    GuestTrap {
        /// The mcause encoding (interrupt bit in bit 63).
        cause: u64,
    },
    /// The guest frontend touched a device window (UART/CLINT) — an
    /// access that never reaches the timing hierarchy.
    GuestMmio {
        /// True for a store, false for a load.
        write: bool,
        /// The device address.
        addr: u64,
    },
}

impl TraceEventKind {
    /// The event's wire name (`kind` field of the JSON encoding).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::FsbDrainBegin { .. } => "fsb_drain_begin",
            TraceEventKind::FsbDrainEnd { .. } => "fsb_drain_end",
            TraceEventKind::EarlyDrainChunk => "early_drain_chunk",
            TraceEventKind::FaultDetected { .. } => "fault_detected",
            TraceEventKind::PreciseException { .. } => "precise_exception",
            TraceEventKind::InterruptDelivered => "interrupt_delivered",
            TraceEventKind::InterruptDeferred => "interrupt_deferred",
            TraceEventKind::FaultActivated { .. } => "fault_activated",
            TraceEventKind::FaultCleared { .. } => "fault_cleared",
            TraceEventKind::PageWalk { .. } => "page_walk",
            TraceEventKind::TlbRefill { .. } => "tlb_refill",
            TraceEventKind::GuestTrap { .. } => "guest_trap",
            TraceEventKind::GuestMmio { .. } => "guest_mmio",
        }
    }
}

/// One recorded event: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle the event occurred at.
    pub cycle: u64,
    /// Core the event is attributed to.
    pub core: u32,
    /// What happened.
    pub kind: TraceEventKind,
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("cycle".to_string(), Json::from(self.cycle)),
            ("core".to_string(), Json::from(self.core)),
            ("kind".to_string(), Json::str(self.kind.name())),
        ];
        match self.kind {
            TraceEventKind::FsbDrainBegin { pending } => {
                fields.push(("pending".into(), Json::from(pending)));
            }
            TraceEventKind::FsbDrainEnd { applied, cycles } => {
                fields.push(("applied".into(), Json::from(applied)));
                fields.push(("cycles".into(), Json::from(cycles)));
            }
            TraceEventKind::FaultDetected { page }
            | TraceEventKind::FaultActivated { page }
            | TraceEventKind::FaultCleared { page }
            | TraceEventKind::PageWalk { page }
            | TraceEventKind::TlbRefill { page } => {
                fields.push(("page".into(), Json::from(page)));
            }
            TraceEventKind::PreciseException { code } => {
                fields.push(("code".into(), Json::from(code)));
            }
            TraceEventKind::GuestTrap { cause } => {
                fields.push(("cause".into(), Json::from(cause)));
            }
            TraceEventKind::GuestMmio { write, addr } => {
                fields.push(("write".into(), Json::from(write)));
                fields.push(("addr".into(), Json::from(addr)));
            }
            TraceEventKind::EarlyDrainChunk
            | TraceEventKind::InterruptDelivered
            | TraceEventKind::InterruptDeferred => {}
        }
        Json::Obj(fields)
    }
}

/// A bounded ring of [`TraceEvent`]s.
///
/// When full, the oldest events are evicted and counted in `dropped`, so
/// a long run keeps its most recent window and still reports how much it
/// shed. A disabled ring (the default) ignores [`TraceRing::record`]
/// entirely.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceRing {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl TraceRing {
    /// An enabled ring keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring needs capacity");
        TraceRing {
            enabled: true,
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event; a single inlined branch when disabled.
    #[inline]
    pub fn record(&mut self, cycle: u64, core: u32, kind: TraceEventKind) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TraceEvent { cycle, core, kind });
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl ToJson for TraceRing {
    fn to_json(&self) -> Json {
        Json::obj([
            ("enabled", Json::from(self.enabled)),
            ("capacity", Json::from(self.capacity)),
            ("dropped", Json::from(self.dropped)),
            ("events", Json::arr(self.events.iter().map(ToJson::to_json))),
        ])
    }
}

impl Persist for TraceEventKind {
    fn save(&self, w: &mut Writer) {
        match *self {
            TraceEventKind::FsbDrainBegin { pending } => {
                w.u8(0);
                w.usize(pending);
            }
            TraceEventKind::FsbDrainEnd { applied, cycles } => {
                w.u8(1);
                w.u64(applied);
                w.u64(cycles);
            }
            TraceEventKind::EarlyDrainChunk => w.u8(2),
            TraceEventKind::FaultDetected { page } => {
                w.u8(3);
                w.u64(page);
            }
            TraceEventKind::PreciseException { code } => {
                w.u8(4);
                w.u16(code);
            }
            TraceEventKind::InterruptDelivered => w.u8(5),
            TraceEventKind::InterruptDeferred => w.u8(6),
            TraceEventKind::FaultActivated { page } => {
                w.u8(7);
                w.u64(page);
            }
            TraceEventKind::FaultCleared { page } => {
                w.u8(8);
                w.u64(page);
            }
            TraceEventKind::PageWalk { page } => {
                w.u8(9);
                w.u64(page);
            }
            TraceEventKind::TlbRefill { page } => {
                w.u8(10);
                w.u64(page);
            }
            TraceEventKind::GuestTrap { cause } => {
                w.u8(11);
                w.u64(cause);
            }
            TraceEventKind::GuestMmio { write, addr } => {
                w.u8(12);
                w.bool(write);
                w.u64(addr);
            }
        }
    }
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        Ok(match r.u8()? {
            0 => TraceEventKind::FsbDrainBegin {
                pending: r.usize()?,
            },
            1 => TraceEventKind::FsbDrainEnd {
                applied: r.u64()?,
                cycles: r.u64()?,
            },
            2 => TraceEventKind::EarlyDrainChunk,
            3 => TraceEventKind::FaultDetected { page: r.u64()? },
            4 => TraceEventKind::PreciseException { code: r.u16()? },
            5 => TraceEventKind::InterruptDelivered,
            6 => TraceEventKind::InterruptDeferred,
            7 => TraceEventKind::FaultActivated { page: r.u64()? },
            8 => TraceEventKind::FaultCleared { page: r.u64()? },
            9 => TraceEventKind::PageWalk { page: r.u64()? },
            10 => TraceEventKind::TlbRefill { page: r.u64()? },
            11 => TraceEventKind::GuestTrap { cause: r.u64()? },
            12 => TraceEventKind::GuestMmio {
                write: r.bool()?,
                addr: r.u64()?,
            },
            _ => return Err(PersistError::Corrupt("TraceEventKind discriminant")),
        })
    }
}

impl Persist for TraceEvent {
    fn save(&self, w: &mut Writer) {
        w.u64(self.cycle);
        w.u32(self.core);
        self.kind.save(w);
    }
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        Ok(TraceEvent {
            cycle: r.u64()?,
            core: r.u32()?,
            kind: Persist::restore(r)?,
        })
    }
}

/// The ring serializes its retained window oldest-first together with
/// the `dropped` eviction count — both are part of the rendered JSON,
/// so both must survive a checkpoint.
impl Persist for TraceRing {
    fn save(&self, w: &mut Writer) {
        w.bool(self.enabled);
        w.usize(self.capacity);
        w.u64(self.dropped);
        w.usize(self.events.len());
        for e in &self.events {
            e.save(w);
        }
    }
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        let enabled = r.bool()?;
        let capacity = r.usize()?;
        let dropped = r.u64()?;
        let n = r.usize()?;
        if enabled && capacity == 0 {
            return Err(PersistError::Corrupt("enabled ring without capacity"));
        }
        if n > capacity {
            return Err(PersistError::Corrupt("ring holds more than capacity"));
        }
        // Cap the pre-allocation: the capacity is a header field that a
        // crafted image sets, and the ring grows as it records anyway.
        let mut events = VecDeque::with_capacity(capacity.min(1 << 16));
        for _ in 0..n {
            events.push_back(TraceEvent::restore(r)?);
        }
        Ok(TraceRing {
            enabled,
            capacity,
            events,
            dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ring_records_nothing() {
        let mut t = TraceRing::default();
        t.record(1, 0, TraceEventKind::InterruptDelivered);
        assert!(t.is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut t = TraceRing::new(2);
        for c in 0..5 {
            t.record(c, 0, TraceEventKind::EarlyDrainChunk);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let cycles: Vec<u64> = t.events().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![3, 4], "keeps the most recent window");
    }

    #[test]
    fn event_json_carries_payloads() {
        let e = TraceEvent {
            cycle: 7,
            core: 1,
            kind: TraceEventKind::FsbDrainEnd {
                applied: 3,
                cycles: 120,
            },
        };
        assert_eq!(
            e.to_json().render(),
            r#"{"cycle":7,"core":1,"kind":"fsb_drain_end","applied":3,"cycles":120}"#
        );
    }

    #[test]
    fn guest_events_render_and_round_trip() {
        use ise_types::persist::{restore_container, save_container};
        let mut t = TraceRing::new(4);
        t.record(3, 0, TraceEventKind::GuestTrap { cause: 1 << 63 | 7 });
        t.record(
            4,
            1,
            TraceEventKind::GuestMmio {
                write: true,
                addr: 0x1000_0000,
            },
        );
        let json = t.to_json().render();
        assert!(json.contains("\"guest_trap\""));
        assert!(json.contains("\"guest_mmio\""));
        assert!(json.contains("\"write\":true"));
        let back: TraceRing = restore_container(&save_container(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn ring_json_is_deterministic() {
        let mut t = TraceRing::new(4);
        t.record(1, 0, TraceEventKind::FaultActivated { page: 9 });
        t.record(2, 1, TraceEventKind::PreciseException { code: 11 });
        assert_eq!(t.to_json().render(), t.to_json().render());
        assert!(t.to_json().render().contains("\"fault_activated\""));
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_rejected() {
        let _ = TraceRing::new(0);
    }

    #[test]
    fn persist_round_trip_keeps_window_and_dropped_count() {
        use ise_types::persist::{restore_container, save_container};
        let mut t = TraceRing::new(2);
        for c in 0..5 {
            t.record(
                c,
                1,
                TraceEventKind::FsbDrainBegin {
                    pending: c as usize,
                },
            );
        }
        t.record(9, 0, TraceEventKind::PreciseException { code: 3 });
        let bytes = save_container(&t);
        let mut back: TraceRing = restore_container(&bytes).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.dropped(), t.dropped());
        assert_eq!(back.to_json().render(), t.to_json().render());
        // The restored ring keeps evicting at the same capacity.
        back.record(10, 0, TraceEventKind::EarlyDrainChunk);
        t.record(10, 0, TraceEventKind::EarlyDrainChunk);
        assert_eq!(back, t);
        // A disabled ring round-trips too.
        let d = TraceRing::default();
        assert_eq!(
            restore_container::<TraceRing>(&save_container(&d)).unwrap(),
            d
        );
    }

    #[test]
    fn restore_caps_the_preallocation_a_header_claims() {
        use ise_types::persist::{restore_container, Writer};
        let mut w = Writer::container();
        w.bool(true);
        w.usize(1 << 40);
        w.u64(0);
        w.usize(0);
        let back: TraceRing = restore_container(&w.finish()).unwrap();
        assert!(back.is_empty());
        assert!(
            back.events.capacity() <= 1 << 16,
            "reserved {} slots",
            back.events.capacity()
        );
    }
}
