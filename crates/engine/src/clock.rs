//! Clock-policy selection for the cycle-skipping simulator loops.
//!
//! Both per-cycle loops in the repo (`System::run_to` in `ise-sim` and
//! the bare-core `run_cores` kernel in `ise-cpu`) have two equivalent
//! drivers: the *reference* clock that ticks `now += 1`
//! unconditionally, and the *cycle-skipping* clock that jumps `now`
//! straight to the earliest next wake-up. Every library entry point
//! takes the choice as an explicit `skip: bool`; the skip clock is the
//! default, and the reference clock is kept as the differential-testing
//! oracle.
//!
//! The `ISE_CYCLE_SKIP` environment variable is read only at the binary
//! edge: each binary and example calls [`cycle_skip_override`]
//! once at the top of `main` and passes the result down. No library
//! code reads the environment; a campaign cell's cycle budget, for
//! instance, is its configuration's own `max_cycles`. CI runs the
//! pin-reading binaries under `ISE_CYCLE_SKIP=0` (reference) and
//! `ISE_CYCLE_SKIP=1` (skip) and asserts byte-identical reports. The
//! spellings are the shared ones from [`ise_types::env`], and a
//! malformed value aborts the run instead of silently falling back to
//! the default.

/// The `ISE_CYCLE_SKIP` environment pin. `Some(false)` selects the
/// reference per-cycle clock, `Some(true)` cycle skipping, `None`
/// (unset) leaves the choice to the binary (the skip clock, or
/// `SystemConfig::reference_clock` where a campaign is handed one).
///
/// # Panics
///
/// Panics if `ISE_CYCLE_SKIP` is set to an unrecognised value — a typo
/// here would silently pick the wrong clock for a whole differential
/// leg.
pub fn cycle_skip_override() -> Option<bool> {
    ise_types::env::env_flag("ISE_CYCLE_SKIP")
}
