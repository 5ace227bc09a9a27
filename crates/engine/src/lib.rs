//! Simulation time, randomness and the clock pin.
//!
//! The timing simulator is cycle-stepped: each core carries its own next
//! wake time, and both advancing loops jump the clock to the earliest one
//! (DESIGN.md §10). This crate holds what those loops share:
//!
//! * [`Cycle`], the unit of simulated time;
//! * [`SimRng`], the one seedable PRNG every experiment draws from, so
//!   one seed gives one run (the paper's experiments must be
//!   reproducible byte for byte);
//! * [`cycle_skip_override`], the `ISE_CYCLE_SKIP` pin binaries read to
//!   choose between the skip clock and the per-cycle reference clock.
//!
//! # Example
//!
//! ```
//! use ise_engine::{Cycle, SimRng};
//!
//! let mut rng = SimRng::seed_from(7);
//! let latency: Cycle = rng.range(40, 80);
//! assert!((40..80).contains(&latency));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod clock;
pub mod rng;

pub use clock::cycle_skip_override;
pub use rng::SimRng;

/// Simulation time, in core clock cycles.
pub type Cycle = u64;
