//! The repository benchmark.
//!
//! It synthesizes each workload's inputs from a seed with the public
//! `ise-workloads` generators, drives the simulator's public layer entry
//! points (`System::new`/`with_fault_sources`, `run_to`/`run_clocked`,
//! `snapshot`, `ChaosCampaign::run_with_workers`,
//! `sweep_checkpoints_clocked`, `ise_par::par_map`) and checks every
//! result. `BENCHMARK.json` at the repository root describes the
//! workloads and metrics; `src/main.rs` is the command.

#![deny(missing_docs)]

pub mod layers;
pub mod pins;
pub mod report;
pub mod stats;
pub mod suite;
