//! Link-level traffic accounting and congestion surcharge.
//!
//! The paper's Table 3 study runs server workloads whose coherence traffic
//! loads the mesh unevenly. [`TrafficMeter`] tracks bytes crossing each
//! directed link and converts recent utilization into a queuing surcharge,
//! so heavily shared home tiles cost more to reach — the effect that makes
//! stores slower than loads under invalidation-heavy sharing.
//!
//! Counters live in two fixed dense arrays indexed by [`Mesh::link_index`]
//! (current window / previous window), so the hot path walks the route's
//! precomputed link slots (the mesh's route table) with no hashing, no
//! coordinate arithmetic and no allocation; a whole message is priced
//! and recorded in one pass.

use crate::mesh::{Mesh, NodeId};

/// Tracks per-link utilization over a sliding window and derives a
/// congestion surcharge.
///
/// The model is a coarse M/D/1 approximation: if a link carried `u`
/// byte-cycles of traffic during the last window of `w` cycles at link
/// width `b`, its utilization is `ρ = u / (w·b)` and each message crossing
/// it pays an extra `ρ/(1-ρ)` serialization quanta, capped.
#[derive(Debug, Clone)]
pub struct TrafficMeter {
    window: u64,
    link_bytes: u64,
    epoch_start: u64,
    current: Box<[u64]>,
    previous: Box<[u64]>,
    /// Per-link `ρ/(1-ρ)` derived from `previous`, refreshed once per
    /// window roll: the surcharge factor is constant within a window, so
    /// the per-message path multiplies by it instead of re-deriving the
    /// utilization quotient per hop (bit-identical — the same division
    /// happens once at the roll instead of per message).
    factor: Box<[f64]>,
    total_bytes: u64,
    total_messages: u64,
}

/// Cap on the congestion surcharge per link, in cycles, to keep the
/// approximation stable near saturation.
const MAX_SURCHARGE: u64 = 16;

impl TrafficMeter {
    /// Creates a meter for `mesh` with the given accounting window
    /// (cycles) and link width (bytes/cycle). Both counter arrays are
    /// sized to the mesh's dense link-slot space up front, so recording
    /// never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `link_bytes` is zero.
    pub fn new(mesh: &Mesh, window: u64, link_bytes: u64) -> Self {
        assert!(
            window > 0 && link_bytes > 0,
            "window and link width must be positive"
        );
        TrafficMeter {
            window,
            link_bytes,
            epoch_start: 0,
            current: vec![0; mesh.link_slots()].into_boxed_slice(),
            previous: vec![0; mesh.link_slots()].into_boxed_slice(),
            factor: vec![0.0; mesh.link_slots()].into_boxed_slice(),
            total_bytes: 0,
            total_messages: 0,
        }
    }

    /// Returns the meter to the state [`TrafficMeter::new`] builds,
    /// reusing its counter arrays.
    pub fn reset(&mut self) {
        self.epoch_start = 0;
        self.current.fill(0);
        self.previous.fill(0);
        self.factor.fill(0.0);
        self.total_bytes = 0;
        self.total_messages = 0;
    }

    /// Rolls the accounting epoch forward if `now` has left the current
    /// window.
    fn roll(&mut self, now: u64) {
        if now >= self.epoch_start + self.window {
            std::mem::swap(&mut self.previous, &mut self.current);
            self.current.fill(0);
            // Skip any number of fully idle windows.
            let elapsed = now - self.epoch_start;
            self.epoch_start += (elapsed / self.window) * self.window;
            if elapsed >= 2 * self.window {
                self.previous.fill(0);
            }
            let denom = (self.window * self.link_bytes) as f64;
            for (f, &prev) in self.factor.iter_mut().zip(self.previous.iter()) {
                *f = if prev > 0 {
                    let rho = (prev as f64 / denom).min(0.95);
                    rho / (1.0 - rho)
                } else {
                    0.0
                };
            }
        }
    }

    /// Records a `bytes`-sized message traversing the XY route from `src`
    /// to `dst` at time `now` and returns the congestion surcharge it
    /// experiences (cycles). Pricing and accounting happen in one
    /// allocation-free pass over the route's precomputed link slots
    /// (the mesh's route table).
    pub fn record(&mut self, mesh: &Mesh, src: NodeId, dst: NodeId, bytes: u64, now: u64) -> u64 {
        self.roll(now);
        self.total_bytes += bytes;
        self.total_messages += 1;
        let ser = mesh.serialization(bytes as usize) as f64;
        let mut surcharge = 0u64;
        for &li in mesh.route_links(src, dst) {
            let li = li as usize;
            let f = self.factor[li];
            if f > 0.0 {
                surcharge += ((f * ser) as u64).min(MAX_SURCHARGE);
            }
            self.current[li] += bytes;
        }
        surcharge
    }

    /// Total bytes recorded over the meter's lifetime.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total messages recorded over the meter's lifetime.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }
}

impl ise_types::persist::Persist for TrafficMeter {
    /// Mid-window state is part of the contract: the partially filled
    /// `current` array, the `previous` window that prices the running
    /// epoch, and the derived `factor` table (saved as raw f64 bits so
    /// the restored meter prices messages bit-identically without
    /// re-deriving the quotients).
    fn save(&self, w: &mut ise_types::persist::Writer) {
        w.section(*b"TRAF", |w| {
            w.u64(self.window);
            w.u64(self.link_bytes);
            w.u64(self.epoch_start);
            self.current.save(w);
            self.previous.save(w);
            self.factor.save(w);
            w.u64(self.total_bytes);
            w.u64(self.total_messages);
        });
    }
    fn restore(
        r: &mut ise_types::persist::Reader,
    ) -> Result<Self, ise_types::persist::PersistError> {
        use ise_types::persist::{Persist, PersistError};
        r.section(*b"TRAF", |r| {
            let window = r.u64()?;
            let link_bytes = r.u64()?;
            if window == 0 || link_bytes == 0 {
                return Err(PersistError::Corrupt("traffic meter geometry"));
            }
            let epoch_start = r.u64()?;
            let current: Box<[u64]> = Persist::restore(r)?;
            let previous: Box<[u64]> = Persist::restore(r)?;
            let factor: Box<[f64]> = Persist::restore(r)?;
            if previous.len() != current.len() || factor.len() != current.len() {
                return Err(PersistError::Corrupt("traffic meter array lengths"));
            }
            Ok(TrafficMeter {
                window,
                link_bytes,
                epoch_start,
                current,
                previous,
                factor,
                total_bytes: r.u64()?,
                total_messages: r.u64()?,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::config::NocConfig;

    fn mesh() -> Mesh {
        Mesh::new(NocConfig::isca23())
    }

    #[test]
    fn idle_network_has_no_surcharge() {
        let m = mesh();
        let mut t = TrafficMeter::new(&m, 1000, 16);
        assert_eq!(t.record(&m, NodeId(0), NodeId(15), 64, 0), 0);
    }

    #[test]
    fn saturated_link_accrues_surcharge() {
        let m = mesh();
        let mut t = TrafficMeter::new(&m, 100, 16);
        // Saturate window 0 beyond capacity (100 cycles * 16 B = 1600 B).
        for _ in 0..100 {
            t.record(&m, NodeId(0), NodeId(1), 64, 10);
        }
        // Next window sees high prior utilization.
        let s = t.record(&m, NodeId(0), NodeId(1), 64, 150);
        assert!(s > 0, "expected congestion surcharge, got {s}");
        assert!(s <= MAX_SURCHARGE * m.hops(NodeId(0), NodeId(1)));
    }

    #[test]
    fn long_idle_gap_clears_history() {
        let m = mesh();
        let mut t = TrafficMeter::new(&m, 100, 16);
        for _ in 0..100 {
            t.record(&m, NodeId(0), NodeId(1), 64, 10);
        }
        // Two+ windows later, history is gone.
        let s = t.record(&m, NodeId(0), NodeId(1), 64, 500);
        assert_eq!(s, 0);
    }

    #[test]
    fn totals_accumulate() {
        let m = mesh();
        let mut t = TrafficMeter::new(&m, 100, 16);
        t.record(&m, NodeId(0), NodeId(5), 64, 0);
        t.record(&m, NodeId(0), NodeId(5), 8, 1);
        assert_eq!(t.total_bytes(), 72);
        assert_eq!(t.total_messages(), 2);
    }

    #[test]
    fn dense_meter_matches_naive_hash_meter() {
        // Differential: the dense-array meter must price and account
        // byte-identically with a naive per-link hash-map mirror of the
        // pre-rework implementation.
        use std::collections::HashMap;
        struct Naive {
            window: u64,
            link_bytes: u64,
            epoch_start: u64,
            current: HashMap<(usize, usize), u64>,
            previous: HashMap<(usize, usize), u64>,
        }
        impl Naive {
            fn record(&mut self, mesh: &Mesh, route: &[NodeId], bytes: u64, now: u64) -> u64 {
                if now >= self.epoch_start + self.window {
                    self.previous = std::mem::take(&mut self.current);
                    let elapsed = now - self.epoch_start;
                    self.epoch_start += (elapsed / self.window) * self.window;
                    if elapsed >= 2 * self.window {
                        self.previous.clear();
                    }
                }
                let mut surcharge = 0u64;
                for w in route.windows(2) {
                    let link = (w[0].index(), w[1].index());
                    let prev = self.previous.get(&link).copied().unwrap_or(0);
                    let rho = (prev as f64 / (self.window * self.link_bytes) as f64).min(0.95);
                    let extra =
                        (rho / (1.0 - rho) * mesh.serialization(bytes as usize) as f64) as u64;
                    surcharge += extra.min(MAX_SURCHARGE);
                    *self.current.entry(link).or_insert(0) += bytes;
                }
                surcharge
            }
        }
        // The 4x4 Table 2 mesh and a non-square 3x5 one, each under a
        // sparse schedule (idle gaps up to 36 cycles, never congested) and
        // a dense one (gaps up to 2 cycles, which drives surcharges).
        for (mesh_x, mesh_y, gap) in [(4, 4, 37), (3, 5, 37), (4, 4, 3), (3, 5, 3)] {
            let m = Mesh::new(NocConfig {
                mesh_x,
                mesh_y,
                ..NocConfig::isca23()
            });
            let mut dense = TrafficMeter::new(&m, 100, 16);
            let mut naive = Naive {
                window: 100,
                link_bytes: 16,
                epoch_start: 0,
                current: HashMap::new(),
                previous: HashMap::new(),
            };
            // Deterministic pseudo-random message schedule with idle gaps.
            let mut state = 0x9e3779b97f4a7c15u64;
            let mut now = 0u64;
            let mut surcharged = 0;
            for _ in 0..4000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let src = NodeId((state >> 33) as usize % m.nodes());
                let dst = NodeId((state >> 12) as usize % m.nodes());
                let bytes = if state & 1 == 0 { 72 } else { 8 };
                now += state % gap;
                let route = m.route(src, dst);
                let s = dense.record(&m, src, dst, bytes, now);
                assert_eq!(
                    s,
                    naive.record(&m, &route, bytes, now),
                    "{mesh_x}x{mesh_y}: surcharge diverged at now={now} src={src} dst={dst}"
                );
                surcharged += usize::from(s > 0);
            }
            assert_eq!(
                surcharged > 0,
                gap == 3,
                "{mesh_x}x{mesh_y}: only the dense schedule congests"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_window_rejected() {
        let _ = TrafficMeter::new(&mesh(), 0, 16);
    }

    #[test]
    fn persist_round_trip_mid_window_prices_identically() {
        use ise_types::persist::{restore_container, save_container};
        let m = mesh();
        let mut t = TrafficMeter::new(&m, 100, 16);
        // Load a window, roll into the next one (live surcharge factors),
        // then snapshot mid-window with a partially filled `current`.
        for _ in 0..100 {
            t.record(&m, NodeId(0), NodeId(1), 64, 10);
        }
        t.record(&m, NodeId(0), NodeId(3), 72, 150);
        let bytes = save_container(&t);
        let mut back: TrafficMeter = restore_container(&bytes).unwrap();
        assert_eq!(save_container(&back), bytes);
        // Both meters must price the same schedule identically from here:
        // same surcharges inside the restored window and across the roll.
        for (now, dst) in [(160, 1), (170, 5), (260, 1), (400, 9)] {
            assert_eq!(
                back.record(&m, NodeId(0), NodeId(dst), 64, now),
                t.record(&m, NodeId(0), NodeId(dst), 64, now),
                "diverged at now={now}"
            );
        }
        assert_eq!(back.total_bytes(), t.total_bytes());
        assert_eq!(back.total_messages(), t.total_messages());
    }

    #[test]
    fn persist_rejects_corrupt_geometry() {
        use ise_types::persist::{restore_container, save_container, PersistError};
        let m = mesh();
        let t = TrafficMeter::new(&m, 100, 16);
        let bytes = save_container(&t);
        // Zero the window field (first u64 after the section header:
        // 4-byte magic + 4-byte version + 4-byte tag + 8-byte length).
        let mut bad = bytes.clone();
        bad[20..28].fill(0);
        // Re-stamp the trailing content hash so corruption reaches the
        // field validator rather than the hash check.
        let off = bad.len() - 8;
        let h = ise_types::persist::fnv1a(&bad[..off]);
        bad[off..].copy_from_slice(&h.to_le_bytes());
        match restore_container::<TrafficMeter>(&bad) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("geometry")),
            other => panic!("expected corrupt geometry, got {other:?}"),
        }
    }
}
