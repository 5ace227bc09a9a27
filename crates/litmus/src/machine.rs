//! The operational machine: exhaustive interleaving exploration of the
//! store-buffer + FSB + EInject + OS pipeline.

use ise_consistency::program::{LitmusProgram, Loc, Outcome, StmtOp};
use ise_types::instr::{FenceKind, Reg};
use ise_types::model::{ConsistencyModel, DrainPolicy};
use std::collections::{BTreeSet, HashSet};

/// A deliberate, opt-in machine mutation for fuzzer self-tests.
///
/// The differential harness in `ise-fuzz` proves it can actually catch
/// ordering bugs by seeding one of these (mutation-testing style,
/// DESIGN.md §12): the mutated machine exhibits outcomes the axiomatic
/// model forbids, the tri-oracle flags them, and the shrinker reduces
/// the witness to a minimal reproducer. Production paths never set
/// this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// PC drains its store buffer like WC: any entry with no older
    /// same-location entry may complete, instead of the FIFO head only
    /// — breaking the store-store rule Proof 1 protects.
    PcDrainReorder,
    /// `F.ww` fences retire without waiting for the store buffer to
    /// drain, silently losing the W→W edge they exist to enforce.
    FenceIgnoresStoreBuffer,
}

/// How the machine is configured for one exploration.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Consistency model the cores implement (SC disables the store
    /// buffer entirely).
    pub model: ConsistencyModel,
    /// Same-stream (§4.6) or split-stream (§4.5) FSB drain policy.
    pub policy: DrainPolicy,
    /// Locations whose backing pages start out marked faulting in
    /// EInject.
    pub faulting: BTreeSet<Loc>,
    /// Safety valve on the state-space size.
    pub max_states: usize,
    /// Seen-state memoization: prune subtrees rooted at states already
    /// expanded, making exploration proportional to distinct states
    /// rather than paths. Disabling it (differential/property tests)
    /// re-walks every path but must produce the same
    /// [`ExplorationResult`], except for its work counter
    /// [`ExplorationResult::expansions`].
    pub memoize: bool,
    /// Opt-in mutation for fuzzer self-tests; `None` (always, outside
    /// those tests) runs the faithful machine.
    pub seeded_bug: Option<SeededBug>,
}

impl MachineConfig {
    /// The paper's design under `model`: same-stream drains, no faults.
    pub fn baseline(model: ConsistencyModel) -> Self {
        MachineConfig {
            model,
            policy: DrainPolicy::SameStream,
            faulting: BTreeSet::new(),
            max_states: 1 << 22,
            memoize: true,
            seeded_bug: None,
        }
    }

    /// Marks every location the program touches as initially faulting —
    /// how the litmus campaign runs (§6.3: "mark the allocated memory as
    /// faulting ... to inject bus errors on all load, store, and atomic
    /// instructions").
    pub fn with_all_faulting(mut self, prog: &LitmusProgram) -> Self {
        self.faulting = prog.locations().into_iter().collect();
        self
    }

    /// Switches to the split-stream ablation.
    pub fn with_policy(mut self, policy: DrainPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables seen-state memoization.
    pub fn with_memoize(mut self, memoize: bool) -> Self {
        self.memoize = memoize;
        self
    }

    /// Seeds a deliberate bug (fuzzer self-tests only).
    pub fn with_seeded_bug(mut self, bug: SeededBug) -> Self {
        self.seeded_bug = Some(bug);
        self
    }
}

/// What one exploration produced.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    /// Every reachable final outcome.
    pub outcomes: BTreeSet<Outcome>,
    /// Distinct states visited.
    pub states: usize,
    /// Imprecise store exceptions taken across all explored paths.
    pub imprecise_detections: u64,
    /// Precise (load/atomic/SC-store) exceptions taken across all paths.
    pub precise_exceptions: u64,
    /// For each location (in [`LitmusProgram::locations`] order) every
    /// value memory holds at that location in some reachable state —
    /// the value-plane envelope the sim bridge checks final
    /// flat-memory contents against. Collected on first expansion of
    /// each distinct state, so memoized and bare runs agree.
    pub mem_values: Vec<BTreeSet<u64>>,
    /// States popped from the worklist: the traversal's work, not a
    /// property of the state graph. The only field memoized and bare
    /// runs may disagree on; memoization exists to make it smaller.
    pub expansions: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    W { loc: u8, val: u64 },
    R { loc: u8, dst: u8 },
    F(FenceKind),
    A { loc: u8, add: u64, dst: u8 },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CoreSt {
    pc: u16,
    regs: Vec<u64>,
    /// Retired-but-incomplete stores, oldest first.
    sb: Vec<(u8, u64)>,
    /// Faulting Store Buffer contents, oldest first.
    fsb: Vec<(u8, u64)>,
    /// Whether an imprecise exception is pending (fetch stopped).
    faulted: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    cores: Vec<CoreSt>,
    mem: Vec<u64>,
    faulting: Vec<bool>,
}

/// A canonical, injective encoding of a [`State`] — the seen-state key.
///
/// Within one exploration the core count, register-file width, memory
/// size, and faulting-vector length are fixed, so every field below is
/// either fixed-width or (for the variable-length SB/FSB) explicitly
/// length-prefixed. That makes decoding unambiguous, hence the encoding
/// injective: two states collide iff they are the same observable state
/// (DESIGN.md §9). Keying the visited set on this flat byte string
/// instead of the nested `State` both shrinks the memoization table and
/// makes hashing a single pass over contiguous memory.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CanonKey(Box<[u8]>);

fn canonicalize(s: &State) -> CanonKey {
    let mut buf = Vec::with_capacity(
        s.cores
            .iter()
            .map(|c| 7 + 8 * c.regs.len() + 9 * (c.sb.len() + c.fsb.len()))
            .sum::<usize>()
            + 8 * s.mem.len()
            + s.faulting.len(),
    );
    let push_entries = |buf: &mut Vec<u8>, entries: &[(u8, u64)]| {
        buf.extend_from_slice(&(entries.len() as u16).to_le_bytes());
        for &(loc, val) in entries {
            buf.push(loc);
            buf.extend_from_slice(&val.to_le_bytes());
        }
    };
    for c in &s.cores {
        buf.extend_from_slice(&c.pc.to_le_bytes());
        buf.push(c.faulted as u8);
        for &r in &c.regs {
            buf.extend_from_slice(&r.to_le_bytes());
        }
        push_entries(&mut buf, &c.sb);
        push_entries(&mut buf, &c.fsb);
    }
    for &m in &s.mem {
        buf.extend_from_slice(&m.to_le_bytes());
    }
    for &f in &s.faulting {
        buf.push(f as u8);
    }
    CanonKey(buf.into_boxed_slice())
}

struct Compiled {
    threads: Vec<Vec<Op>>,
    locs: Vec<Loc>,
    read_regs: Vec<(usize, Reg)>,
}

fn compile(prog: &LitmusProgram) -> Compiled {
    let locs = prog.locations();
    let loc_idx = |l: Loc| locs.iter().position(|&x| x == l).expect("known loc") as u8;
    let mut read_regs = Vec::new();
    let threads = prog
        .threads
        .iter()
        .enumerate()
        .map(|(t, stmts)| {
            stmts
                .iter()
                .map(|s| match s.op {
                    StmtOp::Write { loc, value } => Op::W {
                        loc: loc_idx(loc),
                        val: value,
                    },
                    StmtOp::Read { loc, dst } => {
                        read_regs.push((t, dst));
                        Op::R {
                            loc: loc_idx(loc),
                            dst: dst.0,
                        }
                    }
                    StmtOp::Fence(k) => Op::F(k),
                    StmtOp::Amo { loc, add, dst } => {
                        read_regs.push((t, dst));
                        Op::A {
                            loc: loc_idx(loc),
                            add,
                            dst: dst.0,
                        }
                    }
                })
                .collect()
        })
        .collect();
    read_regs.sort_unstable_by_key(|&(t, r)| (t, r.0));
    read_regs.dedup();
    Compiled {
        threads,
        locs,
        read_regs,
    }
}

struct Explorer<'a> {
    compiled: &'a Compiled,
    cfg: &'a MachineConfig,
    /// States already *expanded*, by canonical key. In a memoized run
    /// reaching a visited state prunes its whole subtree; in an
    /// unmemoized run the subtree is re-walked, but the set still
    /// gates the exception counters so both modes report the same
    /// graph properties (DESIGN.md §9).
    visited: HashSet<CanonKey>,
    outcomes: BTreeSet<Outcome>,
    imprecise: u64,
    precise: u64,
    /// Per-location values seen in memory across distinct states
    /// (collected on first expansion, like the exception counters).
    mem_values: Vec<BTreeSet<u64>>,
    expansions: u64,
}

impl<'a> Explorer<'a> {
    fn terminal(&self, s: &State) -> bool {
        s.cores.iter().enumerate().all(|(i, c)| {
            c.pc as usize == self.compiled.threads[i].len()
                && c.sb.is_empty()
                && c.fsb.is_empty()
                && !c.faulted
        })
    }

    fn record_outcome(&mut self, s: &State) {
        let mut o = Outcome::new();
        for &(t, r) in &self.compiled.read_regs {
            o.insert((t, r), s.cores[t].regs[r.0 as usize]);
        }
        self.outcomes.insert(o);
    }

    /// Indices of store-buffer entries eligible to drain: the head under
    /// PC (FIFO visibility), any entry with no older same-location entry
    /// under WC (same-address order is always kept).
    fn drainable(&self, sb: &[(u8, u64)]) -> Vec<usize> {
        if sb.is_empty() {
            return Vec::new();
        }
        let relaxed = || {
            (0..sb.len())
                .filter(|&j| sb[..j].iter().all(|&(l, _)| l != sb[j].0))
                .collect()
        };
        match self.cfg.model {
            ConsistencyModel::Sc => Vec::new(),
            ConsistencyModel::Pc => {
                if self.cfg.seeded_bug == Some(SeededBug::PcDrainReorder) {
                    // Mutation: PC forgets its FIFO and drains like WC.
                    relaxed()
                } else {
                    vec![0]
                }
            }
            ConsistencyModel::Wc => relaxed(),
        }
    }

    /// Enumerates every enabled transition out of `s`. The exception
    /// counters are graph properties (one event per distinct-state
    /// transition), so they only advance when `count` is set — the
    /// first time `s` is expanded.
    fn successors(&mut self, s: &State, count: bool) -> Vec<State> {
        let mut out = Vec::new();
        for i in 0..s.cores.len() {
            let core = &s.cores[i];

            // --- Drain transitions (enabled in both phases). ---
            for j in self.drainable(&core.sb) {
                let (loc, val) = core.sb[j];
                let mut n = s.clone();
                if n.faulting[loc as usize] {
                    // DETECT: imprecise store exception.
                    self.imprecise += count as u64;
                    let c = &mut n.cores[i];
                    match self.cfg.policy {
                        DrainPolicy::SameStream => {
                            // The whole buffer, faulting and younger
                            // non-faulting alike, moves to the FSB in
                            // order (§4.6).
                            let drained: Vec<_> = c.sb.drain(..).collect();
                            c.fsb.extend(drained);
                        }
                        DrainPolicy::SplitStream => {
                            // Only the faulting store is supplied to the
                            // interface; the rest keep draining to
                            // memory (§4.5).
                            let e = c.sb.remove(j);
                            c.fsb.push(e);
                        }
                    }
                    c.faulted = true;
                } else {
                    n.mem[loc as usize] = val;
                    n.cores[i].sb.remove(j);
                }
                out.push(n);
            }

            if core.faulted {
                // --- OS handler micro-steps (only once the SB has fully
                //     drained: the handler is entered after the drain
                //     completes, §5.3). ---
                if core.sb.is_empty() {
                    if let Some(&(loc, val)) = core.fsb.first() {
                        // GET + resolve-cause + S_OS for one entry.
                        let mut n = s.clone();
                        n.faulting[loc as usize] = false;
                        n.mem[loc as usize] = val;
                        n.cores[i].fsb.remove(0);
                        out.push(n);
                    } else {
                        // RESOLVE: resume the program.
                        let mut n = s.clone();
                        n.cores[i].faulted = false;
                        out.push(n);
                    }
                }
                continue; // fetch is stopped while faulted
            }

            // --- Program-order execution. ---
            let ops = &self.compiled.threads[i];
            if (core.pc as usize) < ops.len() {
                match ops[core.pc as usize] {
                    Op::W { loc, val } => {
                        if self.cfg.model.has_store_buffer() {
                            let mut n = s.clone();
                            let c = &mut n.cores[i];
                            c.sb.push((loc, val));
                            c.pc += 1;
                            out.push(n);
                        } else {
                            // SC: write-through; a faulting page raises a
                            // precise exception, resolved before the
                            // store re-executes.
                            let mut n = s.clone();
                            if n.faulting[loc as usize] {
                                self.precise += count as u64;
                                n.faulting[loc as usize] = false;
                            }
                            n.mem[loc as usize] = val;
                            n.cores[i].pc += 1;
                            out.push(n);
                        }
                    }
                    Op::R { loc, dst } => {
                        // Store-to-load forwarding from the newest
                        // same-location SB entry never reaches memory.
                        let fwd = core
                            .sb
                            .iter()
                            .rev()
                            .find(|&&(l, _)| l == loc)
                            .map(|&(_, v)| v);
                        match fwd {
                            Some(v) => {
                                let mut n = s.clone();
                                let c = &mut n.cores[i];
                                c.regs[dst as usize] = v;
                                c.pc += 1;
                                out.push(n);
                            }
                            None => {
                                if s.faulting[loc as usize] {
                                    // Precise exception: the store buffer
                                    // must drain first (§5.3); until then
                                    // this transition is not enabled.
                                    if core.sb.is_empty() {
                                        self.precise += count as u64;
                                        let mut n = s.clone();
                                        n.faulting[loc as usize] = false;
                                        let v = n.mem[loc as usize];
                                        let c = &mut n.cores[i];
                                        c.regs[dst as usize] = v;
                                        c.pc += 1;
                                        out.push(n);
                                    }
                                } else {
                                    let mut n = s.clone();
                                    let v = n.mem[loc as usize];
                                    let c = &mut n.cores[i];
                                    c.regs[dst as usize] = v;
                                    c.pc += 1;
                                    out.push(n);
                                }
                            }
                        }
                    }
                    Op::F(kind) => {
                        let needs_empty = match kind {
                            FenceKind::StoreStore
                                if self.cfg.seeded_bug
                                    == Some(SeededBug::FenceIgnoresStoreBuffer) =>
                            {
                                // Mutation: the W→W fence stops fencing.
                                false
                            }
                            FenceKind::Full | FenceKind::StoreStore => !core.sb.is_empty(),
                            FenceKind::LoadLoad => false,
                        };
                        if !needs_empty {
                            let mut n = s.clone();
                            n.cores[i].pc += 1;
                            out.push(n);
                        }
                    }
                    Op::A { loc, add, dst } => {
                        // Atomics drain the SB first, then execute
                        // non-speculatively; a fault is precise.
                        if core.sb.is_empty() {
                            let mut n = s.clone();
                            if n.faulting[loc as usize] {
                                self.precise += count as u64;
                                n.faulting[loc as usize] = false;
                            }
                            let old = n.mem[loc as usize];
                            n.mem[loc as usize] = old.wrapping_add(add);
                            let c = &mut n.cores[i];
                            c.regs[dst as usize] = old;
                            c.pc += 1;
                            out.push(n);
                        }
                    }
                }
            }
        }
        out
    }

    fn run(&mut self, init: State) {
        let mut stack = vec![init];
        while let Some(s) = stack.pop() {
            self.expansions += 1;
            // First expansion of this state? (Injective key, so this is
            // exactly "first time this observable state is seen".)
            let fresh = self.visited.insert(canonicalize(&s));
            if fresh {
                for (i, &m) in s.mem.iter().enumerate() {
                    self.mem_values[i].insert(m);
                }
            }
            if self.cfg.memoize && !fresh {
                continue; // prune the revisited subtree
            }
            assert!(
                self.visited.len() <= self.cfg.max_states,
                "state space exceeded {} states",
                self.cfg.max_states
            );
            if self.terminal(&s) {
                self.record_outcome(&s);
                continue;
            }
            let succ = self.successors(&s, fresh);
            debug_assert!(
                !succ.is_empty() || self.terminal(&s),
                "non-terminal state with no successors (deadlock): {s:?}"
            );
            stack.extend(succ);
        }
    }
}

/// Exhaustively explores every interleaving of `prog` on the configured
/// machine and returns all reachable outcomes.
///
/// With `cfg.memoize` (the default) revisited states prune their
/// subtree, so the walk does work proportional to *distinct states*;
/// with it disabled every path is re-walked. Both modes return the
/// same [`ExplorationResult`] apart from
/// [`expansions`](ExplorationResult::expansions), the traversal's work
/// count: outcomes, distinct-state count, exception counters and the
/// value envelope are all properties of the state graph, not of the
/// traversal (DESIGN.md §9).
///
/// # Panics
///
/// Panics if the state space exceeds `cfg.max_states`.
pub fn explore(prog: &LitmusProgram, cfg: &MachineConfig) -> ExplorationResult {
    let compiled = compile(prog);
    let max_reg = prog
        .threads
        .iter()
        .flatten()
        .filter_map(|s| match s.op {
            StmtOp::Read { dst, .. } | StmtOp::Amo { dst, .. } => Some(dst.0),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let init = State {
        cores: (0..prog.threads.len())
            .map(|_| CoreSt {
                pc: 0,
                regs: vec![0; max_reg as usize + 1],
                sb: Vec::new(),
                fsb: Vec::new(),
                faulted: false,
            })
            .collect(),
        mem: vec![0; compiled.locs.len()],
        faulting: compiled
            .locs
            .iter()
            .map(|l| cfg.faulting.contains(l))
            .collect(),
    };
    let mut ex = Explorer {
        compiled: &compiled,
        cfg,
        visited: HashSet::new(),
        outcomes: BTreeSet::new(),
        imprecise: 0,
        precise: 0,
        mem_values: vec![BTreeSet::new(); compiled.locs.len()],
        expansions: 0,
    };
    ex.run(init);
    ExplorationResult {
        outcomes: ex.outcomes,
        states: ex.visited.len(),
        imprecise_detections: ex.imprecise,
        precise_exceptions: ex.precise,
        mem_values: ex.mem_values,
        expansions: ex.expansions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_consistency::program::Stmt;

    const A: Loc = Loc(0);
    const B: Loc = Loc(1);
    const R0: Reg = Reg(0);
    const R1: Reg = Reg(1);

    fn outcome(pairs: &[(usize, Reg, u64)]) -> Outcome {
        pairs.iter().map(|&(t, r, v)| ((t, r), v)).collect()
    }

    fn mp() -> LitmusProgram {
        LitmusProgram::new(vec![
            vec![Stmt::write(B, 1), Stmt::write(A, 1)],
            vec![Stmt::read(A, R0), Stmt::read(B, R1)],
        ])
    }

    #[test]
    fn pc_machine_preserves_mp_without_faults() {
        let r = explore(&mp(), &MachineConfig::baseline(ConsistencyModel::Pc));
        let bad = outcome(&[(1, R0, 1), (1, R1, 0)]);
        assert!(
            !r.outcomes.contains(&bad),
            "PC machine must not reorder stores"
        );
        assert!(r.outcomes.contains(&outcome(&[(1, R0, 1), (1, R1, 1)])));
        assert!(r.outcomes.contains(&outcome(&[(1, R0, 0), (1, R1, 0)])));
        assert_eq!(r.imprecise_detections, 0);
    }

    #[test]
    fn wc_machine_can_reorder_stores() {
        let r = explore(&mp(), &MachineConfig::baseline(ConsistencyModel::Wc));
        let reordered = outcome(&[(1, R0, 1), (1, R1, 0)]);
        assert!(
            r.outcomes.contains(&reordered),
            "WC drains out of order: the relaxed outcome must be reachable"
        );
    }

    #[test]
    fn pc_machine_with_faults_still_preserves_mp() {
        let cfg = MachineConfig::baseline(ConsistencyModel::Pc).with_all_faulting(&mp());
        let r = explore(&mp(), &cfg);
        let bad = outcome(&[(1, R0, 1), (1, R1, 0)]);
        assert!(
            !r.outcomes.contains(&bad),
            "same-stream imprecise handling must not break PC (Proof 1)"
        );
        assert!(r.imprecise_detections > 0, "faults must actually fire");
        assert!(r.precise_exceptions > 0, "loads fault precisely too");
    }

    #[test]
    fn split_stream_exhibits_fig2a_violation() {
        // Only A faulting, B clean: §4.5's race.
        let mut cfg =
            MachineConfig::baseline(ConsistencyModel::Pc).with_policy(DrainPolicy::SplitStream);
        cfg.faulting = [A].into_iter().collect();
        // Program: T0 stores A then B; T1 reads B then A (observer order
        // chosen to witness S(B) <m S_OS(A)).
        let prog = LitmusProgram::new(vec![
            vec![Stmt::write(A, 1), Stmt::write(B, 1)],
            vec![Stmt::read(B, R0), Stmt::read(A, R1)],
        ]);
        let r = explore(&prog, &cfg);
        let violation = outcome(&[(1, R0, 1), (1, R1, 0)]);
        assert!(
            r.outcomes.contains(&violation),
            "split-stream must expose the PC violation of Fig. 2a; got {:?}",
            r.outcomes
        );
        // Same-stream on the identical program forbids it.
        let cfg2 = MachineConfig {
            policy: DrainPolicy::SameStream,
            ..cfg
        };
        let r2 = explore(&prog, &cfg2);
        assert!(
            !r2.outcomes.contains(&violation),
            "same-stream must hide the violation (Fig. 2b)"
        );
    }

    #[test]
    fn sc_machine_is_sequentially_consistent() {
        // Dekker: r0 = r1 = 0 must be unreachable under SC.
        let prog = LitmusProgram::new(vec![
            vec![Stmt::write(A, 1), Stmt::read(B, R0)],
            vec![Stmt::write(B, 1), Stmt::read(A, R1)],
        ]);
        let r = explore(&prog, &MachineConfig::baseline(ConsistencyModel::Sc));
        assert!(!r.outcomes.contains(&outcome(&[(0, R0, 0), (1, R1, 0)])));
    }

    #[test]
    fn pc_machine_allows_dekker_relaxation() {
        let prog = LitmusProgram::new(vec![
            vec![Stmt::write(A, 1), Stmt::read(B, R0)],
            vec![Stmt::write(B, 1), Stmt::read(A, R1)],
        ]);
        let r = explore(&prog, &MachineConfig::baseline(ConsistencyModel::Pc));
        assert!(r.outcomes.contains(&outcome(&[(0, R0, 0), (1, R1, 0)])));
    }

    #[test]
    fn forwarding_works_even_on_faulting_pages() {
        // The core reads its own buffered store without touching memory,
        // so no exception fires for the forwarded load.
        let prog = LitmusProgram::new(vec![vec![Stmt::write(A, 7), Stmt::read(A, R0)]]);
        let cfg = MachineConfig::baseline(ConsistencyModel::Wc).with_all_faulting(&prog);
        let r = explore(&prog, &cfg);
        assert_eq!(r.outcomes.len(), 1);
        assert!(r.outcomes.contains(&outcome(&[(0, R0, 7)])));
    }

    #[test]
    fn fence_blocks_until_drain() {
        let prog = LitmusProgram::new(vec![
            vec![
                Stmt::write(B, 1),
                Stmt::fence(FenceKind::Full),
                Stmt::write(A, 1),
            ],
            vec![
                Stmt::read(A, R0),
                Stmt::fence(FenceKind::Full),
                Stmt::read(B, R1),
            ],
        ]);
        for model in [ConsistencyModel::Pc, ConsistencyModel::Wc] {
            for faults in [false, true] {
                let mut cfg = MachineConfig::baseline(model);
                if faults {
                    cfg = cfg.with_all_faulting(&prog);
                }
                let r = explore(&prog, &cfg);
                assert!(
                    !r.outcomes.contains(&outcome(&[(1, R0, 1), (1, R1, 0)])),
                    "{model} faults={faults}: fenced MP must hold"
                );
            }
        }
    }

    #[test]
    fn atomics_are_atomic_under_faults() {
        let prog = LitmusProgram::new(vec![vec![Stmt::amo(A, 1, R0)], vec![Stmt::amo(A, 1, R1)]]);
        let cfg = MachineConfig::baseline(ConsistencyModel::Wc).with_all_faulting(&prog);
        let r = explore(&prog, &cfg);
        assert!(!r.outcomes.contains(&outcome(&[(0, R0, 0), (1, R1, 0)])));
        assert_eq!(r.outcomes.len(), 2);
    }

    #[test]
    fn mem_values_cover_every_store_value_and_the_initial_zero() {
        let r = explore(&mp(), &MachineConfig::baseline(ConsistencyModel::Wc));
        // locations() order: A then B; both hold 0 initially and 1 after
        // their store drains on some path.
        let expect: BTreeSet<u64> = [0, 1].into_iter().collect();
        assert_eq!(r.mem_values, vec![expect.clone(), expect]);
    }

    #[test]
    fn seeded_pc_drain_bug_reorders_mp_stores() {
        // The faithful PC machine forbids the MP relaxation; the seeded
        // mutation drains like WC and exhibits it — the signal the fuzz
        // harness' self-test relies on.
        let cfg = MachineConfig::baseline(ConsistencyModel::Pc)
            .with_seeded_bug(SeededBug::PcDrainReorder);
        let r = explore(&mp(), &cfg);
        assert!(r.outcomes.contains(&outcome(&[(1, R0, 1), (1, R1, 0)])));
    }

    #[test]
    fn seeded_fence_bug_breaks_ww_fences_only() {
        let prog = LitmusProgram::new(vec![
            vec![
                Stmt::write(B, 1),
                Stmt::fence(FenceKind::StoreStore),
                Stmt::write(A, 1),
            ],
            vec![Stmt::read(A, R0), Stmt::read(B, R1)],
        ]);
        let bad = outcome(&[(1, R0, 1), (1, R1, 0)]);
        let faithful = explore(&prog, &MachineConfig::baseline(ConsistencyModel::Wc));
        assert!(!faithful.outcomes.contains(&bad));
        let mutated = explore(
            &prog,
            &MachineConfig::baseline(ConsistencyModel::Wc)
                .with_seeded_bug(SeededBug::FenceIgnoresStoreBuffer),
        );
        assert!(mutated.outcomes.contains(&bad), "F.ww must stop fencing");
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = explore(&mp(), &MachineConfig::baseline(ConsistencyModel::Wc));
        let b = explore(&mp(), &MachineConfig::baseline(ConsistencyModel::Wc));
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.states, b.states);
    }

    #[test]
    fn memoization_prunes_without_changing_results() {
        for model in [
            ConsistencyModel::Sc,
            ConsistencyModel::Pc,
            ConsistencyModel::Wc,
        ] {
            for faults in [false, true] {
                let mut cfg = MachineConfig::baseline(model);
                if faults {
                    cfg = cfg.with_all_faulting(&mp());
                }
                let memo = explore(&mp(), &cfg);
                let bare = explore(&mp(), &cfg.clone().with_memoize(false));
                assert_eq!(memo.outcomes, bare.outcomes, "{model} faults={faults}");
                assert_eq!(memo.states, bare.states, "{model} faults={faults}");
                assert_eq!(
                    memo.imprecise_detections, bare.imprecise_detections,
                    "{model} faults={faults}"
                );
                assert_eq!(
                    memo.precise_exceptions, bare.precise_exceptions,
                    "{model} faults={faults}"
                );
            }
        }
    }

    #[test]
    fn canonical_key_separates_sb_from_fsb() {
        // The length prefixes are load-bearing: a store sitting in the SB
        // is a different observable state from the same store already
        // supplied to the FSB, even though the flattened entry bytes are
        // identical.
        let core = |sb: Vec<(u8, u64)>, fsb: Vec<(u8, u64)>| CoreSt {
            pc: 1,
            regs: vec![0],
            sb,
            fsb,
            faulted: false,
        };
        let mk = |sb, fsb| State {
            cores: vec![core(sb, fsb)],
            mem: vec![0],
            faulting: vec![true],
        };
        let in_sb = mk(vec![(0, 7)], vec![]);
        let in_fsb = mk(vec![], vec![(0, 7)]);
        assert_ne!(canonicalize(&in_sb), canonicalize(&in_fsb));
    }

    /// A random but well-formed machine state over fixed dimensions
    /// (2 cores × 2 regs × 2 locations), the shape one mp/sb-sized
    /// exploration works in.
    fn random_state(g: &mut quickprop::Gen) -> State {
        let entry = |g: &mut quickprop::Gen| (g.range_u64(0, 2) as u8, g.range_u64(0, 3));
        let cores = (0..2)
            .map(|_| {
                let sb_len = g.range_usize(0, 3);
                let fsb_len = g.range_usize(0, 3);
                CoreSt {
                    pc: g.range_u64(0, 4) as u16,
                    regs: g.vec_of(2, |g| g.range_u64(0, 3)),
                    sb: g.vec_of(sb_len, entry),
                    fsb: g.vec_of(fsb_len, entry),
                    faulted: g.bool(),
                }
            })
            .collect();
        State {
            cores,
            mem: g.vec_of(2, |g| g.range_u64(0, 3)),
            faulting: g.vec_of(2, |g| g.bool()),
        }
    }

    #[test]
    fn prop_canonicalization_is_injective_on_observable_states() {
        quickprop::check(512, |g| {
            let a = random_state(g);
            // Half the cases compare against an equal state, half
            // against an independently drawn one.
            let b = if g.bool() { a.clone() } else { random_state(g) };
            assert_eq!(
                a == b,
                canonicalize(&a) == canonicalize(&b),
                "canonical keys must collide exactly on equal states:\n{a:?}\n{b:?}"
            );
        });
    }

    /// A random small program: 1–2 threads × 1–3 statements over two
    /// locations, all four statement kinds represented.
    fn random_program(g: &mut quickprop::Gen) -> LitmusProgram {
        let threads = g.range_usize(1, 3);
        let stmts = (0..threads)
            .map(|_| {
                let len = g.range_usize(1, 4);
                g.vec_of(len, |g| {
                    let loc = Loc(g.range_u64(0, 2) as u8);
                    match g.range_usize(0, 4) {
                        0 => Stmt::write(loc, g.range_u64(1, 4)),
                        1 => Stmt::read(loc, Reg(g.range_u64(0, 2) as u8)),
                        2 => Stmt::fence(*g.choose(&[
                            FenceKind::Full,
                            FenceKind::StoreStore,
                            FenceKind::LoadLoad,
                        ])),
                        _ => Stmt::amo(loc, g.range_u64(1, 3), Reg(g.range_u64(0, 2) as u8)),
                    }
                })
            })
            .collect();
        LitmusProgram::new(stmts)
    }

    #[test]
    fn prop_memoized_explore_matches_unmemoized_reference() {
        quickprop::check(96, |g| {
            let prog = random_program(g);
            let model = *g.choose(&[
                ConsistencyModel::Sc,
                ConsistencyModel::Pc,
                ConsistencyModel::Wc,
            ]);
            let policy = *g.choose(&[DrainPolicy::SameStream, DrainPolicy::SplitStream]);
            let mut cfg = MachineConfig::baseline(model).with_policy(policy);
            // A random subset of the touched locations starts faulting.
            cfg.faulting = prog.locations().into_iter().filter(|_| g.bool()).collect();
            let memo = explore(&prog, &cfg);
            let bare = explore(&prog, &cfg.clone().with_memoize(false));
            assert_eq!(memo.outcomes, bare.outcomes, "cfg {cfg:?} prog {prog:?}");
            assert_eq!(memo.states, bare.states, "cfg {cfg:?} prog {prog:?}");
            assert_eq!(
                memo.mem_values, bare.mem_values,
                "cfg {cfg:?} prog {prog:?}"
            );
            assert_eq!(
                memo.imprecise_detections, bare.imprecise_detections,
                "cfg {cfg:?} prog {prog:?}"
            );
            assert_eq!(
                memo.precise_exceptions, bare.precise_exceptions,
                "cfg {cfg:?} prog {prog:?}"
            );
        });
    }
}
