//! Deterministic discrete-event simulation kernel.
//!
//! The timing simulator is a hybrid: cores are cycle-stepped, while memory
//! responses, NoC deliveries and OS wakeups are scheduled as future events
//! on an [`EventQueue`]. Determinism is a hard requirement (the paper's
//! experiments must be reproducible), so:
//!
//! * the queue breaks time ties by insertion sequence number, and
//! * all randomness flows through [`SimRng`], a small, seedable PRNG.
//!
//! # Example
//!
//! ```
//! use ise_engine::EventQueue;
//!
//! let mut q = EventQueue::new();
//! q.schedule(10, "memory response");
//! q.schedule(5, "noc delivery");
//! assert_eq!(q.next_time(), Some(5));
//! assert_eq!(q.pop_at_or_before(7), Some((5, "noc delivery")));
//! assert_eq!(q.pop_at_or_before(7), None);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod clock;
pub mod queue;
pub mod rng;

pub use clock::cycle_skip_override;
pub use queue::EventQueue;
pub use rng::SimRng;

/// Simulation time, in core clock cycles.
pub type Cycle = u64;
