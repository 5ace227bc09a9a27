//! Adversarial fault-plan search against the OS recovery paths
//! (DESIGN.md §13).
//!
//! The chaos campaigns sample fault plans at random; this crate *searches*
//! for the worst one. A seeded hill-climb with random restarts and a
//! per-objective beam ([`search`]) mutates fault plans ([`plan`]) — pages,
//! temporal behaviour, window alignment to FSB drain boundaries, exception
//! codes, ring capacity — against a fixed two-core victim ([`target`]),
//! scoring each candidate on four damage objectives ([`eval`]):
//!
//! 1. corrupt architectural state while tripping no invariant,
//! 2. maximize victim stall via FSB early-drain storms,
//! 3. exhaust the retry budget on the longest backoff path,
//! 4. force kill-path entry with maximal in-flight FSB occupancy.
//!
//! Every evaluation runs the full shared invariant set
//! ([`ise_sim::invariants`]), a corruption win is auto-shrunk through the
//! `ise-fuzz` finding pipeline into a litmus-dialect regression
//! ([`regress`]), and
//! each campaign emits a deterministic JSON resilience scorecard —
//! byte-identical at any worker count and under either clock. The
//! CI self-check runs the same seeded search against the unhardened and
//! hardened recovery ([`ise_types::config::OsCostConfig::hardened`]) and
//! demands the search win against the former and fail against the
//! latter.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod eval;
pub mod plan;
pub mod regress;
pub mod search;
pub mod target;

pub use eval::{evaluate, EvalConfig, EvalOutcome, Objective};
pub use plan::{drain_boundary, AdvPlan, FSB_CAPACITIES, POOL_PAGES};
pub use regress::{corruption_case, corruption_oracle, shrink_corruption};
pub use search::{
    run_search, self_check, AdversaryReport, ObjectiveResult, SearchConfig, SelfCheck,
};
pub use target::{pool_page, pool_pages, victim_workload, BURST_STORES};
