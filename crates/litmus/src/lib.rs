//! Litmus infrastructure: the paper's correctness campaign (§6.3),
//! reproduced with exhaustive schedules.
//!
//! * [`machine`] — an operational model of the whole co-design: per-core
//!   in-order execution with a store buffer (FIFO drains under PC,
//!   relaxed under WC), EInject-style page faulting at the memory
//!   boundary, same-stream or split-stream FSB drains on detection, and a
//!   step-by-step OS handler applying retrieved stores in order. A DFS
//!   with state memoization enumerates **every** interleaving — strictly
//!   stronger coverage than the FPGA prototype's sampled runs.
//! * [`corpus`](mod@corpus) — generated litmus tests covering the eight ordering
//!   relations of Table 6.
//! * [`runner`] — runs a test on the machine (with and without injected
//!   faults) and checks `observed ⊆ allowed`, where the allowed set comes
//!   from the axiomatic checker in `ise-consistency`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

//! * [`parse`] — a plain-text litmus dialect, so corpora can live as
//!   files and run through `cargo run -p ise-bench --bin litmus`.
//! * [`src_parse`] — the source-level (C11-like) twin dialect for the
//!   trisection harness: `.srclitmus` files carrying memory-order
//!   annotations and the hardware model a reproducer was found against.

pub mod corpus;
pub mod machine;
pub mod parse;
pub mod runner;
pub mod src_parse;

pub use corpus::{corpus, Family, LitmusTest};
pub use machine::{explore, ExplorationResult, MachineConfig, SeededBug};
pub use parse::{load_litmus_dir, parse_litmus, render_litmus, ParseError, ParsedLitmus};
pub use runner::{run_corpus, run_test, CorpusSummary, LitmusReport};
pub use src_parse::{load_src_litmus_dir, parse_src_litmus, render_src_litmus, ParsedSrcLitmus};
