//! Memory-consistency formalism (paper §4).
//!
//! This crate mechanizes the paper's formal machinery:
//!
//! * [`program`] — small litmus programs over symbolic locations, with
//!   address/data/control dependencies, fences and atomics (the event
//!   vocabulary of Table 4);
//! * [`axiom`] — an axiomatic checker in the herding-cats style: it
//!   enumerates candidate executions (reads-from and coherence-order
//!   assignments), filters them through per-model axioms (SC, PC/TSO,
//!   WC/RVWMO-fragment), and returns the set of **allowed outcomes** a
//!   program may produce;
//! * [`batch`] — memoizing front-ends over the axiom checkers for
//!   callers (the fuzzing harness, shrinkers) that query the same
//!   programs repeatedly;
//! * [`source`] — a C11-like source language (relaxed / acquire /
//!   release / seq_cst loads, stores, and fences) with its own
//!   language-level allowed-outcome enumerator;
//! * [`lowering`] — the compiler-mapping pass from source programs to
//!   the hardware litmus primitives, driven by a per-model
//!   [`MappingTable`](lowering::MappingTable) that is data, not code —
//!   so the trisection harness can inject known-wrong mappings.
//!
//! The operational machine in `ise-litmus` explores real interleavings of
//! the store buffer + FSB + OS pipeline and checks its observed outcomes
//! against [`axiom::allowed_outcomes`] — reproducing the paper's litmus
//! campaign (§6.3) with exhaustive schedules instead of FPGA sampling.
//! Proof 1 (§4.6) is checked the same way, over every small 2-thread
//! program, by the workspace test `tests/litmus_campaign.rs`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod axiom;
pub mod batch;
pub mod lowering;
pub mod program;
pub mod source;

pub use axiom::allowed_outcomes;
pub use batch::{BatchChecker, SrcBatchChecker};
pub use lowering::{
    buggy_table, correct_table, lower, render_mapping_table, MappingBug, MappingTable,
};
pub use program::{LitmusProgram, Loc, Outcome, Stmt, StmtOp};
pub use source::{allowed_src_outcomes, MemOrder, SrcOp, SrcProgram, SrcStmt};
