//! Differential fuzzing of the whole reproduction (the §6.3 campaign,
//! turned adversarial).
//!
//! Hand-written litmus tests check the designs we *thought* of; this
//! crate generates the ones we didn't. A seeded generator emits small
//! random programs ([`gen`]), three independent implementations run
//! each one ([`oracle`]): the exhaustive operational machine
//! (`ise-litmus`), the axiomatic checker (`ise-consistency`) and the
//! full timing simulator (`ise-sim`) — and any disagreement is shrunk
//! to a minimal reproducer ([`mod@shrink`]) that can be checked into
//! `litmus/regressions/` and replayed as an ordinary corpus test
//! ([`campaign`]).
//!
//! The *trisection* layer lifts the same machinery to the language
//! level (TriCheck-style: software model × compiler mapping × hardware
//! model). A second generator emits C11-like source programs
//! ([`src_gen`]), a data-driven mapping table lowers them to machine
//! primitives (`ise-consistency::lowering`), and the oracle
//! ([`trisect`]) flags any lowered execution — axiomatic, operational,
//! or simulated — that exhibits an outcome the *source* model forbids.
//! Seeded-buggy tables (a WC release store without its fence, an
//! acquire load mapped as relaxed) are the self-check: campaigns
//! through them must end dirty, and the witnesses shrink to
//! `.srclitmus` reproducers.
//!
//! Both layers — and the `ise-adversary` corruption replay — share one
//! finding machinery in [`mod@shrink`]: the [`Case`] trait that
//! [`FuzzCase`] and [`TrisectCase`] implement, one greedy shrinker
//! whose per-statement passes are the case's [`Case::REWRITES`] (order
//! weakening exists only for source cases), one pipeline
//! ([`shrink_findings`]: a report per kind, shrunk, re-derived from the
//! reproducer) and one reproducer writer ([`write_reproducers`]).
//!
//! Everything is deterministic: one master seed fixes the entire
//! campaign, per-case seeds are derived by index (never by worker), and
//! the report registry renders byte-identically for every worker
//! count.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod campaign;
pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod src_gen;
pub mod trisect;

pub use campaign::{case_seed, run_campaign, to_parsed, FuzzConfig, FuzzReport};
pub use gen::{generate, FuzzCase, GenConfig};
pub use oracle::{check_case, Finding, FindingKind, OracleConfig};
pub use shrink::{shrink, shrink_findings, write_reproducers, CampaignFinding, Case, ShrinkResult};
pub use src_gen::{generate_src, SrcGenConfig, TrisectCase};
pub use trisect::{
    check_src_case, run_trisection, to_src_parsed, TrisectConfig, TrisectFindingKind,
    TrisectOracleConfig, TrisectReport,
};
