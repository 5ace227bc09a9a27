//! Seeded random litmus-program generation.
//!
//! One seed deterministically produces one [`FuzzCase`]: a small
//! multi-threaded program over symbolic locations plus the knobs the
//! oracles care about — consistency model, same-stream vs split-stream
//! drain policy, which locations start out faulting, and whether the
//! run uses the transient-fault overlay instead of EInject.
//!
//! The size caps are not cosmetic: the axiomatic checker enumerates
//! candidate executions (reads-from choices × per-location coherence
//! orders), which is factorial in writes per location, and the
//! operational machine enumerates every interleaving. The defaults keep
//! the worst case comfortably below a millisecond per oracle while
//! still covering every statement kind, every Table 6 family shape, and
//! multi-location interactions.

use ise_consistency::program::{LitmusProgram, Loc, Stmt};
use ise_engine::SimRng;
use ise_types::instr::{FenceKind, Reg};
use ise_types::model::{ConsistencyModel, DrainPolicy};

/// Shape limits for generated programs.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Most threads per program (the sim bridge caps at its mesh size).
    pub max_threads: usize,
    /// Most statements per thread.
    pub max_stmts_per_thread: usize,
    /// Most statements across all threads (exploration cost is
    /// exponential in this).
    pub max_total_stmts: usize,
    /// Distinct locations a program may touch (≤ [`Loc::LIMIT`]).
    pub max_locs: u8,
    /// Most writes (stores + atomics) to any one location (the axiom
    /// checker enumerates coherence orders, factorial in this).
    pub max_writes_per_loc: usize,
    /// Largest value a store writes (small values collide on purpose:
    /// outcome mismatches need reads that could observe several write
    /// sources).
    pub max_value: u64,
    /// Probability each location a program touches starts out faulting.
    pub fault_prob: f64,
    /// Probability a faulting case uses the transient-overlay fault
    /// source instead of EInject.
    pub overlay_prob: f64,
    /// Probability a case runs the split-stream ablation.
    pub split_stream_prob: f64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_threads: 3,
            max_stmts_per_thread: 4,
            max_total_stmts: 8,
            max_locs: 3,
            max_writes_per_loc: 3,
            max_value: 3,
            fault_prob: 0.4,
            overlay_prob: 0.15,
            split_stream_prob: 0.25,
        }
    }
}

/// One generated differential-test case.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The seed that produced this case (reproduce with
    /// [`generate`]`(seed, cfg)`).
    pub seed: u64,
    /// The program under test.
    pub program: LitmusProgram,
    /// Consistency model all three oracles run under.
    pub model: ConsistencyModel,
    /// FSB drain policy for the operational machine.
    pub policy: DrainPolicy,
    /// Locations whose pages start out faulting (sorted, deduped).
    pub faulting: Vec<Loc>,
    /// Whether the sim leg replaces EInject with the transient
    /// `ise_core::FaultPlan` overlay.
    pub overlay: bool,
}

impl FuzzCase {
    /// The faulting set as the machine wants it.
    pub fn faulting_set(&self) -> std::collections::BTreeSet<Loc> {
        self.faulting.iter().copied().collect()
    }
}

/// Deterministically generates the case for `seed`.
pub fn generate(seed: u64, cfg: &GenConfig) -> FuzzCase {
    let mut rng = SimRng::seed_from(seed);
    let n_threads = rng.range(1, cfg.max_threads as u64 + 1) as usize;
    let n_locs = rng.range(1, u64::from(cfg.max_locs.min(Loc::LIMIT)) + 1) as u8;

    let mut writes_per_loc = vec![0usize; n_locs as usize];
    let mut total = 0usize;
    let mut threads: Vec<Vec<Stmt>> = Vec::with_capacity(n_threads);
    for _ in 0..n_threads {
        // Every thread gets at least one statement; the global budget is
        // spent left to right.
        let budget = (cfg.max_total_stmts - total).saturating_sub(n_threads - threads.len() - 1);
        let want = rng.range(1, cfg.max_stmts_per_thread as u64 + 1) as usize;
        let n_stmts = want.min(budget).max(1);
        let mut stmts = Vec::with_capacity(n_stmts);
        let mut produced: Vec<Reg> = Vec::new();
        let mut next_reg = 0u8;
        for _ in 0..n_stmts {
            let loc = Loc(rng.range(0, u64::from(n_locs)) as u8);
            let roll = rng.range(0, 100);
            let mut stmt = if roll < 35 && writes_per_loc[loc.0 as usize] < cfg.max_writes_per_loc {
                writes_per_loc[loc.0 as usize] += 1;
                Stmt::write(loc, rng.range(1, cfg.max_value + 1))
            } else if roll < 45 {
                let kind = match rng.range(0, 3) {
                    0 => FenceKind::Full,
                    1 => FenceKind::StoreStore,
                    _ => FenceKind::LoadLoad,
                };
                Stmt::fence(kind)
            } else if roll < 60 && writes_per_loc[loc.0 as usize] < cfg.max_writes_per_loc {
                writes_per_loc[loc.0 as usize] += 1;
                let dst = Reg(next_reg);
                next_reg += 1;
                Stmt::amo(loc, rng.range(1, cfg.max_value + 1), dst)
            } else {
                let dst = Reg(next_reg);
                next_reg += 1;
                Stmt::read(loc, dst)
            };
            // Table 6 "Dependencies": occasionally order this statement
            // after an earlier load of this thread.
            if !produced.is_empty() && rng.chance(0.2) {
                stmt = stmt.depending_on(produced[rng.index(produced.len())]);
            }
            if let Some(dst) = stmt.produced() {
                produced.push(dst);
            }
            stmts.push(stmt);
            total += 1;
        }
        threads.push(stmts);
    }
    let program = LitmusProgram::new(threads);

    let model = match rng.range(0, 10) {
        0 | 1 => ConsistencyModel::Sc,
        2..=5 => ConsistencyModel::Pc,
        _ => ConsistencyModel::Wc,
    };
    let policy = if rng.chance(cfg.split_stream_prob) {
        DrainPolicy::SplitStream
    } else {
        DrainPolicy::SameStream
    };
    let faulting: Vec<Loc> = program
        .locations()
        .into_iter()
        .filter(|_| rng.chance(cfg.fault_prob))
        .collect();
    let overlay = !faulting.is_empty() && rng.chance(cfg.overlay_prob);

    FuzzCase {
        seed,
        program,
        model,
        policy,
        faulting,
        overlay,
    }
}

/// Helper: the register a statement produces, if any.
trait Produces {
    fn produced(&self) -> Option<Reg>;
}

impl Produces for Stmt {
    fn produced(&self) -> Option<Reg> {
        match self.op {
            ise_consistency::program::StmtOp::Read { dst, .. }
            | ise_consistency::program::StmtOp::Amo { dst, .. } => Some(dst),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_consistency::program::StmtOp;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let a = generate(seed, &cfg);
            let b = generate(seed, &cfg);
            assert_eq!(a.program, b.program, "seed {seed}");
            assert_eq!(a.model, b.model);
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.faulting, b.faulting);
            assert_eq!(a.overlay, b.overlay);
        }
    }

    #[test]
    fn generated_programs_respect_every_cap() {
        let cfg = GenConfig::default();
        for seed in 0..500 {
            let case = generate(seed, &cfg);
            let p = &case.program;
            assert!(p.threads.len() <= cfg.max_threads, "seed {seed}");
            assert!(p.len() <= cfg.max_total_stmts, "seed {seed}");
            assert!(p.threads.iter().all(|t| !t.is_empty()), "seed {seed}");
            assert!(
                p.threads
                    .iter()
                    .all(|t| t.len() <= cfg.max_stmts_per_thread),
                "seed {seed}"
            );
            let locs = p.locations();
            assert!(locs.len() <= cfg.max_locs as usize, "seed {seed}");
            assert!(locs.iter().all(|l| l.0 < Loc::LIMIT), "seed {seed}");
            for loc in &locs {
                let writes = p
                    .threads
                    .iter()
                    .flatten()
                    .filter(|s| match s.op {
                        StmtOp::Write { loc: l, .. } | StmtOp::Amo { loc: l, .. } => l == *loc,
                        _ => false,
                    })
                    .count();
                assert!(writes <= cfg.max_writes_per_loc, "seed {seed}");
            }
            // Faulting locations are ones the program actually touches.
            assert!(
                case.faulting.iter().all(|l| locs.contains(l)),
                "seed {seed}"
            );
            if case.overlay {
                assert!(!case.faulting.is_empty(), "seed {seed}");
            }
        }
    }

    #[test]
    fn the_corpus_covers_every_statement_kind_and_knob() {
        let cfg = GenConfig::default();
        let cases: Vec<FuzzCase> = (0..400).map(|s| generate(s, &cfg)).collect();
        let stmts: Vec<&Stmt> = cases
            .iter()
            .flat_map(|c| c.program.threads.iter().flatten())
            .collect();
        assert!(stmts.iter().any(|s| matches!(s.op, StmtOp::Write { .. })));
        assert!(stmts.iter().any(|s| matches!(s.op, StmtOp::Read { .. })));
        assert!(stmts.iter().any(|s| matches!(s.op, StmtOp::Amo { .. })));
        assert!(stmts
            .iter()
            .any(|s| matches!(s.op, StmtOp::Fence(FenceKind::Full))));
        assert!(stmts
            .iter()
            .any(|s| matches!(s.op, StmtOp::Fence(FenceKind::StoreStore))));
        assert!(stmts.iter().any(|s| s.dep.is_some()));
        for model in ConsistencyModel::ALL {
            assert!(cases.iter().any(|c| c.model == model), "{model:?} missing");
        }
        assert!(cases.iter().any(|c| c.policy == DrainPolicy::SplitStream));
        assert!(cases.iter().any(|c| !c.faulting.is_empty()));
        assert!(cases.iter().any(|c| c.faulting.is_empty()));
        assert!(cases.iter().any(|c| c.overlay));
    }
}
