//! A C11-like source language over the litmus `Loc` space.
//!
//! The trisection checker (TriCheck-style: software model × compiler
//! mapping × hardware model) needs a *language-level* program
//! representation whose semantics are defined independently of any
//! hardware model. This module provides it:
//!
//! * [`SrcProgram`] — multi-threaded programs of atomic loads, stores,
//!   and fences, each annotated with a C11-like [`MemOrder`]
//!   (`relaxed` / `acquire` / `release` / `seq_cst`), over the same
//!   [`Loc`]/[`Reg`] vocabulary as [`LitmusProgram`](crate::program);
//! * [`allowed_src_outcomes`] — an axiomatic allowed-outcome enumerator
//!   at the language level, mirroring the candidate-execution machinery
//!   of [`axiom`](crate::axiom): every reads-from assignment × every
//!   per-location modification order, filtered through the language
//!   axioms.
//!
//! The axioms are a deliberately *weak* C11 fragment (RC11 minus
//! release sequences and minus the no-thin-air rule):
//!
//! * **coherence** — with `hb = (sb ∪ sw)⁺` and
//!   `eco = (rf ∪ mo ∪ fr)⁺`, require `hb` acyclic and `hb ; eco`
//!   irreflexive. `sw` (synchronizes-with) connects a release-or-stronger
//!   store (or a release fence sequenced before the store) to an
//!   acquire-or-stronger load reading from it (or an acquire fence
//!   sequenced after the load).
//! * **seq_cst** — a partial `psc` order over `seq_cst` events must be
//!   acyclic: direct `hb`/`rf`/`mo`/`fr` between two `seq_cst` events,
//!   plus the fence forms `[F_sc] ; sb ; eco ; sb ; [F_sc]`,
//!   `[F_sc] ; sb ; eco ; [E_sc]` and `[E_sc] ; eco ; sb ; [F_sc]`.
//!
//! Weak is the *sound* direction for trisection: every outcome a
//! correctly-lowered program can exhibit on the hardware models must be
//! language-allowed, so the language model must never forbid more than
//! the mapping + hardware enforce. The seeded-buggy-mapping self-checks
//! (see `ise-fuzz`) pin the other direction: the model is still strong
//! enough to catch a release store lowered without its fence or an
//! acquire load lowered as relaxed.

use crate::program::{Loc, Outcome};
use ise_types::instr::Reg;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A C11-like memory-order annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemOrder {
    /// `memory_order_relaxed`: atomicity only, no ordering.
    Relaxed,
    /// `memory_order_acquire` (loads and fences).
    Acquire,
    /// `memory_order_release` (stores and fences).
    Release,
    /// `memory_order_seq_cst`: globally ordered.
    SeqCst,
}

impl MemOrder {
    /// Every order, in [`MemOrder`] declaration order.
    pub const ALL: [MemOrder; 4] = [
        MemOrder::Relaxed,
        MemOrder::Acquire,
        MemOrder::Release,
        MemOrder::SeqCst,
    ];

    /// The stable text-dialect token (`rlx`, `acq`, `rel`, `sc`).
    pub fn token(self) -> &'static str {
        match self {
            MemOrder::Relaxed => "rlx",
            MemOrder::Acquire => "acq",
            MemOrder::Release => "rel",
            MemOrder::SeqCst => "sc",
        }
    }

    /// Whether a store with this order carries release semantics.
    pub fn is_release(self) -> bool {
        matches!(self, MemOrder::Release | MemOrder::SeqCst)
    }

    /// Whether a load with this order carries acquire semantics.
    pub fn is_acquire(self) -> bool {
        matches!(self, MemOrder::Acquire | MemOrder::SeqCst)
    }
}

impl fmt::Display for MemOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One source statement's operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrcOp {
    /// An atomic store (valid orders: relaxed, release, seq_cst).
    Store {
        /// Target location.
        loc: Loc,
        /// Stored value.
        value: u64,
        /// Memory order.
        order: MemOrder,
    },
    /// An atomic load (valid orders: relaxed, acquire, seq_cst).
    Load {
        /// Source location.
        loc: Loc,
        /// Destination register.
        dst: Reg,
        /// Memory order.
        order: MemOrder,
    },
    /// A fence (valid orders: acquire, release, seq_cst).
    Fence {
        /// Memory order.
        order: MemOrder,
    },
}

/// One source statement: an operation plus an optional syntactic
/// dependency on an earlier load's destination register. Dependencies
/// don't change the language semantics (`sb ⊆ hb` already), but they
/// survive lowering and constrain the hardware models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SrcStmt {
    /// The operation.
    pub op: SrcOp,
    /// If `Some(r)`, the lowered access is dependency-ordered after the
    /// load producing `r`.
    pub dep: Option<Reg>,
}

impl SrcStmt {
    /// An atomic store.
    pub fn store(loc: Loc, value: u64, order: MemOrder) -> Self {
        SrcStmt {
            op: SrcOp::Store { loc, value, order },
            dep: None,
        }
    }

    /// An atomic load.
    pub fn load(loc: Loc, dst: Reg, order: MemOrder) -> Self {
        SrcStmt {
            op: SrcOp::Load { loc, dst, order },
            dep: None,
        }
    }

    /// A fence.
    pub fn fence(order: MemOrder) -> Self {
        SrcStmt {
            op: SrcOp::Fence { order },
            dep: None,
        }
    }

    /// Marks this statement dependent on register `r`.
    pub fn depending_on(mut self, r: Reg) -> Self {
        self.dep = Some(r);
        self
    }

    /// The register this statement produces, if any.
    pub fn produced(&self) -> Option<Reg> {
        match self.op {
            SrcOp::Load { dst, .. } => Some(dst),
            _ => None,
        }
    }
}

impl fmt::Display for SrcStmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op {
            SrcOp::Store { loc, value, order } => write!(f, "W.{order} {loc}={value}")?,
            SrcOp::Load { loc, dst, order } => write!(f, "R.{order} {dst}<-{loc}")?,
            SrcOp::Fence { order } => write!(f, "F.{order}")?,
        }
        if let Some(r) = self.dep {
            write!(f, " [dep {r}]")?;
        }
        Ok(())
    }
}

/// A multi-threaded source program. Memory is zero-initialized.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SrcProgram {
    /// One statement list per thread.
    pub threads: Vec<Vec<SrcStmt>>,
}

impl SrcProgram {
    /// Builds a program from per-thread statement lists.
    ///
    /// # Panics
    ///
    /// Panics if there are no threads, a statement carries an order its
    /// operation cannot (acquire store, release load, relaxed fence), a
    /// fence carries a dependency annotation, or a dependency references
    /// a register not produced by an earlier load on the same thread.
    pub fn new(threads: Vec<Vec<SrcStmt>>) -> Self {
        assert!(!threads.is_empty(), "program needs at least one thread");
        for (t, stmts) in threads.iter().enumerate() {
            let mut produced: Vec<Reg> = Vec::new();
            for (i, s) in stmts.iter().enumerate() {
                match s.op {
                    SrcOp::Store { order, .. } => assert!(
                        !matches!(order, MemOrder::Acquire),
                        "thread {t} stmt {i}: a store cannot be acquire"
                    ),
                    SrcOp::Load { order, .. } => assert!(
                        !matches!(order, MemOrder::Release),
                        "thread {t} stmt {i}: a load cannot be release"
                    ),
                    SrcOp::Fence { order } => {
                        assert!(
                            !matches!(order, MemOrder::Relaxed),
                            "thread {t} stmt {i}: a relaxed fence is a no-op"
                        );
                        assert!(
                            s.dep.is_none(),
                            "thread {t} stmt {i}: a fence cannot carry a dependency"
                        );
                    }
                }
                if let Some(r) = s.dep {
                    assert!(
                        produced.contains(&r),
                        "thread {t} stmt {i}: dependency on {r} not produced earlier"
                    );
                }
                if let Some(dst) = s.produced() {
                    produced.push(dst);
                }
            }
        }
        SrcProgram { threads }
    }

    /// All locations the program touches, ascending.
    pub fn locations(&self) -> Vec<Loc> {
        let mut locs: Vec<Loc> = self
            .threads
            .iter()
            .flatten()
            .filter_map(|s| match s.op {
                SrcOp::Store { loc, .. } | SrcOp::Load { loc, .. } => Some(loc),
                SrcOp::Fence { .. } => None,
            })
            .collect();
        locs.sort_unstable();
        locs.dedup();
        locs
    }

    /// Total statements across threads.
    pub fn len(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Whether the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------
// Language-level candidate-execution enumeration.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SrcEv {
    id: usize,
    thread: usize,
    idx: usize,
    op: SrcOp,
}

impl SrcEv {
    fn loc(&self) -> Option<Loc> {
        match self.op {
            SrcOp::Store { loc, .. } | SrcOp::Load { loc, .. } => Some(loc),
            SrcOp::Fence { .. } => None,
        }
    }
    fn is_read(&self) -> bool {
        matches!(self.op, SrcOp::Load { .. })
    }
    fn is_write(&self) -> bool {
        matches!(self.op, SrcOp::Store { .. })
    }
    fn is_fence(&self) -> bool {
        matches!(self.op, SrcOp::Fence { .. })
    }
    fn order(&self) -> MemOrder {
        match self.op {
            SrcOp::Store { order, .. } | SrcOp::Load { order, .. } | SrcOp::Fence { order } => {
                order
            }
        }
    }
    fn is_sc(&self) -> bool {
        self.order() == MemOrder::SeqCst
    }
}

fn src_events(prog: &SrcProgram) -> Vec<SrcEv> {
    let mut evs = Vec::new();
    for (t, stmts) in prog.threads.iter().enumerate() {
        for (i, s) in stmts.iter().enumerate() {
            evs.push(SrcEv {
                id: evs.len(),
                thread: t,
                idx: i,
                op: s.op,
            });
        }
    }
    evs
}

/// Boolean reachability matrix: the transitive closure of `edges` over
/// `n` events (Floyd–Warshall; litmus-sized `n` keeps this trivial).
fn closure(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut reach = vec![vec![false; n]; n];
    for &(a, b) in edges {
        reach[a][b] = true;
    }
    for k in 0..n {
        let via_k = reach[k].clone();
        for row in &mut reach {
            if row[k] {
                for (cell, &step) in row.iter_mut().zip(&via_k) {
                    *cell |= step;
                }
            }
        }
    }
    reach
}

fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x);
            out.push(p);
        }
    }
    out
}

fn acyclic(n: usize, edges: &[(usize, usize)]) -> bool {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        if a != b {
            adj[a].push(b);
        } else {
            return false;
        }
    }
    let mut color = vec![0u8; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        color[start] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < adj[node].len() {
                let child = adj[node][*next];
                *next += 1;
                match color[child] {
                    0 => {
                        color[child] = 1;
                        stack.push((child, 0));
                    }
                    1 => return false,
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }
    true
}

/// `sb`: sequenced-before pairs (all same-thread index-ordered pairs,
/// fences included — the language `hb` contains *all* of `sb`).
fn sb_pairs(evs: &[SrcEv]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for a in evs {
        for b in evs {
            if a.thread == b.thread && a.idx < b.idx {
                out.push((a.id, b.id));
            }
        }
    }
    out
}

/// Synchronizes-with edges induced by one rf edge `(w, r)`: release
/// sources (the store itself if release-or-stronger, plus release
/// fences sequenced before it) to acquire sinks (the load itself if
/// acquire-or-stronger, plus acquire fences sequenced after it).
fn sw_edges(evs: &[SrcEv], rf: &HashMap<usize, Option<usize>>) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (&r, &src) in rf {
        let Some(w) = src else { continue };
        let (we, re) = (&evs[w], &evs[r]);
        let mut sources: Vec<usize> = Vec::new();
        if we.order().is_release() {
            sources.push(w);
        }
        sources.extend(
            evs.iter()
                .filter(|f| {
                    f.is_fence()
                        && matches!(f.order(), MemOrder::Release | MemOrder::SeqCst)
                        && f.thread == we.thread
                        && f.idx < we.idx
                })
                .map(|f| f.id),
        );
        let mut sinks: Vec<usize> = Vec::new();
        if re.order().is_acquire() {
            sinks.push(r);
        }
        sinks.extend(
            evs.iter()
                .filter(|f| {
                    f.is_fence()
                        && matches!(f.order(), MemOrder::Acquire | MemOrder::SeqCst)
                        && f.thread == re.thread
                        && f.idx > re.idx
                })
                .map(|f| f.id),
        );
        for &s in &sources {
            for &d in &sinks {
                if s != d {
                    out.push((s, d));
                }
            }
        }
    }
    out
}

/// Enumerates all outcomes the C11-like language axioms allow for
/// `prog`.
///
/// Mirrors [`allowed_outcomes`](crate::axiom::allowed_outcomes): every
/// reads-from assignment × every per-location modification order is a
/// candidate execution; candidates surviving the coherence and seq_cst
/// axioms contribute their register values to the allowed set.
pub fn allowed_src_outcomes(prog: &SrcProgram) -> BTreeSet<Outcome> {
    let evs = src_events(prog);
    let n = evs.len();
    let reads: Vec<usize> = evs.iter().filter(|e| e.is_read()).map(|e| e.id).collect();
    let mut writes_by_loc: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
    for e in &evs {
        if e.is_write() {
            writes_by_loc
                .entry(e.loc().expect("stores have locations"))
                .or_default()
                .push(e.id);
        }
    }
    for loc in prog.locations() {
        writes_by_loc.entry(loc).or_default();
    }

    // rf choices per read: any same-location store, or the initial zero.
    let rf_options: Vec<Vec<Option<usize>>> = reads
        .iter()
        .map(|&r| {
            let loc = evs[r].loc().expect("loads have locations");
            let mut opts: Vec<Option<usize>> = vec![None];
            opts.extend(writes_by_loc[&loc].iter().map(|&w| Some(w)));
            opts
        })
        .collect();

    // mo (coherence/modification order) choices per location.
    let locs: Vec<Loc> = writes_by_loc.keys().copied().collect();
    let mo_options: Vec<Vec<Vec<usize>>> = locs
        .iter()
        .map(|l| permutations(&writes_by_loc[l]))
        .collect();

    let sb = sb_pairs(&evs);
    let sc_events: Vec<usize> = evs.iter().filter(|e| e.is_sc()).map(|e| e.id).collect();
    let sc_fences: Vec<usize> = evs
        .iter()
        .filter(|e| e.is_sc() && e.is_fence())
        .map(|e| e.id)
        .collect();
    let sb_reach = closure(n, &sb);

    let mut outcomes = BTreeSet::new();
    let mut rf_idx = vec![0usize; reads.len()];
    loop {
        let rf: HashMap<usize, Option<usize>> = reads
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, rf_options[i][rf_idx[i]]))
            .collect();
        let sw = sw_edges(&evs, &rf);
        let mut hb_base = sb.clone();
        hb_base.extend(&sw);
        // sw can only create a cycle through sb (it follows rf); a
        // cyclic hb is an inconsistent candidate for every mo choice.
        if acyclic(n, &hb_base) {
            let hb = closure(n, &hb_base);
            let rf_e: Vec<(usize, usize)> = rf
                .iter()
                .filter_map(|(&r, &src)| src.map(|w| (w, r)))
                .collect();

            let mut mo_idx = vec![0usize; locs.len()];
            loop {
                let mut eco_base = rf_e.clone();
                let mut mo_pos: HashMap<usize, usize> = HashMap::new();
                for (i, _) in locs.iter().enumerate() {
                    let order = &mo_options[i][mo_idx[i]];
                    for (p, &w) in order.iter().enumerate() {
                        mo_pos.insert(w, p);
                    }
                    for a in 0..order.len() {
                        for b in a + 1..order.len() {
                            eco_base.push((order[a], order[b]));
                        }
                    }
                }
                // fr: each read is before every store mo-later than its
                // source (all stores at its location, for an init read).
                for (&r, &src) in &rf {
                    let loc = evs[r].loc().expect("loads have locations");
                    let li = locs.iter().position(|&l| l == loc).expect("known loc");
                    let order = &mo_options[li][mo_idx[li]];
                    let start = match src {
                        None => 0,
                        Some(w) => mo_pos[&w] + 1,
                    };
                    for &w in &order[start..] {
                        eco_base.push((r, w));
                    }
                }
                let eco = closure(n, &eco_base);

                // Coherence: hb acyclic (checked above) and hb;eco
                // irreflexive.
                let coherent =
                    (0..n).all(|x| (0..n).all(|y| !(hb[x][y] && eco[y][x])) && !hb[x][x]);

                if coherent && psc_acyclic(&evs, &sc_events, &sc_fences, &sb_reach, &hb, &eco) {
                    let mut o = Outcome::new();
                    for &r in &reads {
                        let v = match rf[&r] {
                            None => 0,
                            Some(w) => match evs[w].op {
                                SrcOp::Store { value, .. } => value,
                                _ => unreachable!("rf sources are stores"),
                            },
                        };
                        let SrcOp::Load { dst, .. } = evs[r].op else {
                            unreachable!("reads are loads")
                        };
                        o.insert((evs[r].thread, dst), v);
                    }
                    outcomes.insert(o);
                }

                // Advance mo indices.
                let mut k = 0;
                loop {
                    if k == locs.len() {
                        break;
                    }
                    mo_idx[k] += 1;
                    if mo_idx[k] < mo_options[k].len() {
                        break;
                    }
                    mo_idx[k] = 0;
                    k += 1;
                }
                if k == locs.len() {
                    break;
                }
            }
        }

        // Advance rf indices.
        let mut k = 0;
        loop {
            if k == reads.len() {
                break;
            }
            rf_idx[k] += 1;
            if rf_idx[k] < rf_options[k].len() {
                break;
            }
            rf_idx[k] = 0;
            k += 1;
        }
        if k == reads.len() {
            break;
        }
    }
    outcomes
}

/// The seq_cst axiom: the partial `psc` order over seq_cst events must
/// be acyclic.
fn psc_acyclic(
    evs: &[SrcEv],
    sc_events: &[usize],
    sc_fences: &[usize],
    sb: &[Vec<bool>],
    hb: &[Vec<bool>],
    eco: &[Vec<bool>],
) -> bool {
    if sc_events.len() < 2 {
        return true;
    }
    let n = evs.len();
    let mut edges: Vec<(usize, usize)> = Vec::new();
    // Direct hb / eco between two sc events.
    for &a in sc_events {
        for &b in sc_events {
            if a != b && (hb[a][b] || eco[a][b]) {
                edges.push((a, b));
            }
        }
    }
    // Fence forms. `[F_sc]; sb; eco; sb; [F_sc]` and the one-sided
    // variants against sc accesses.
    for &fa in sc_fences {
        for &fb in sc_fences {
            if fa == fb {
                continue;
            }
            let hit = (0..n).any(|x| sb[fa][x] && (0..n).any(|y| eco[x][y] && sb[y][fb]));
            if hit {
                edges.push((fa, fb));
            }
        }
    }
    for &fa in sc_fences {
        for &b in sc_events {
            if fa != b && (0..n).any(|x| sb[fa][x] && eco[x][b]) {
                edges.push((fa, b));
            }
        }
    }
    for &a in sc_events {
        for &fb in sc_fences {
            if a != fb && (0..n).any(|y| eco[a][y] && sb[y][fb]) {
                edges.push((a, fb));
            }
        }
    }
    acyclic(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Loc = Loc(0);
    const B: Loc = Loc(1);
    const R0: Reg = Reg(0);
    const R1: Reg = Reg(1);

    use MemOrder::{Acquire, Relaxed, Release, SeqCst};

    fn outcome(pairs: &[(usize, Reg, u64)]) -> Outcome {
        pairs.iter().map(|&(t, r, v)| ((t, r), v)).collect()
    }

    fn mp(store_order: MemOrder, load_order: MemOrder) -> SrcProgram {
        SrcProgram::new(vec![
            vec![
                SrcStmt::store(B, 1, Relaxed),
                SrcStmt::store(A, 1, store_order),
            ],
            vec![
                SrcStmt::load(A, R0, load_order),
                SrcStmt::load(B, R1, Relaxed),
            ],
        ])
    }

    #[test]
    fn relaxed_mp_allows_the_stale_read() {
        let allowed = allowed_src_outcomes(&mp(Relaxed, Relaxed));
        assert!(allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 0)])));
        assert!(allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 1)])));
    }

    #[test]
    fn release_acquire_mp_forbids_the_stale_read() {
        let allowed = allowed_src_outcomes(&mp(Release, Acquire));
        assert!(!allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 0)])));
        assert!(allowed.contains(&outcome(&[(1, R0, 0), (1, R1, 0)])));
        assert!(allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 1)])));
    }

    #[test]
    fn one_sided_synchronization_is_not_enough() {
        // Release store + relaxed load (or relaxed store + acquire load):
        // no sw edge, so the stale read stays allowed.
        for (s, l) in [(Release, Relaxed), (Relaxed, Acquire)] {
            let allowed = allowed_src_outcomes(&mp(s, l));
            assert!(
                allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 0)])),
                "store {s} / load {l}: one-sided sync must not forbid"
            );
        }
    }

    #[test]
    fn fences_synchronize_relaxed_accesses() {
        // Release fence before the store, acquire fence after the load:
        // same guarantee as release/acquire on the accesses.
        let p = SrcProgram::new(vec![
            vec![
                SrcStmt::store(B, 1, Relaxed),
                SrcStmt::fence(Release),
                SrcStmt::store(A, 1, Relaxed),
            ],
            vec![
                SrcStmt::load(A, R0, Relaxed),
                SrcStmt::fence(Acquire),
                SrcStmt::load(B, R1, Relaxed),
            ],
        ]);
        let allowed = allowed_src_outcomes(&p);
        assert!(!allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 0)])));
        assert!(allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 1)])));
    }

    #[test]
    fn seq_cst_dekker_forbids_both_zero() {
        let p = SrcProgram::new(vec![
            vec![SrcStmt::store(A, 1, SeqCst), SrcStmt::load(B, R0, SeqCst)],
            vec![SrcStmt::store(B, 1, SeqCst), SrcStmt::load(A, R1, SeqCst)],
        ]);
        let allowed = allowed_src_outcomes(&p);
        assert!(!allowed.contains(&outcome(&[(0, R0, 0), (1, R1, 0)])));
        assert!(allowed.contains(&outcome(&[(0, R0, 1), (1, R1, 0)])));
        assert!(allowed.contains(&outcome(&[(0, R0, 1), (1, R1, 1)])));
    }

    #[test]
    fn release_acquire_dekker_allows_both_zero() {
        // Store buffering is visible through release/acquire: only
        // seq_cst forbids it.
        let p = SrcProgram::new(vec![
            vec![SrcStmt::store(A, 1, Release), SrcStmt::load(B, R0, Acquire)],
            vec![SrcStmt::store(B, 1, Release), SrcStmt::load(A, R1, Acquire)],
        ]);
        let allowed = allowed_src_outcomes(&p);
        assert!(allowed.contains(&outcome(&[(0, R0, 0), (1, R1, 0)])));
    }

    #[test]
    fn seq_cst_fences_forbid_dekker_with_relaxed_accesses() {
        let p = SrcProgram::new(vec![
            vec![
                SrcStmt::store(A, 1, Relaxed),
                SrcStmt::fence(SeqCst),
                SrcStmt::load(B, R0, Relaxed),
            ],
            vec![
                SrcStmt::store(B, 1, Relaxed),
                SrcStmt::fence(SeqCst),
                SrcStmt::load(A, R1, Relaxed),
            ],
        ]);
        let allowed = allowed_src_outcomes(&p);
        assert!(!allowed.contains(&outcome(&[(0, R0, 0), (1, R1, 0)])));
    }

    #[test]
    fn coherence_holds_for_relaxed_same_location() {
        // CoRR: two relaxed reads of one location never observe
        // anti-coherence order.
        let p = SrcProgram::new(vec![
            vec![SrcStmt::store(A, 1, Relaxed)],
            vec![SrcStmt::load(A, R0, Relaxed), SrcStmt::load(A, R1, Relaxed)],
        ]);
        let allowed = allowed_src_outcomes(&p);
        assert!(!allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 0)])));
        assert!(allowed.contains(&outcome(&[(1, R0, 0), (1, R1, 1)])));
    }

    #[test]
    fn a_thread_reads_its_own_store() {
        let p = SrcProgram::new(vec![vec![
            SrcStmt::store(A, 1, Relaxed),
            SrcStmt::load(A, R0, Relaxed),
        ]]);
        let allowed = allowed_src_outcomes(&p);
        assert!(allowed.contains(&outcome(&[(0, R0, 1)])));
        assert!(!allowed.contains(&outcome(&[(0, R0, 0)])));
    }

    #[test]
    fn load_buffering_is_allowed_without_the_thin_air_rule() {
        // LB with relaxed (or even acquire) loads: both reads observing
        // the other thread's later store is allowed — the language model
        // deliberately omits the no-thin-air axiom because the hardware
        // mappings of relaxed accesses do not forbid it.
        let p = SrcProgram::new(vec![
            vec![SrcStmt::load(A, R0, Relaxed), SrcStmt::store(B, 1, Relaxed)],
            vec![SrcStmt::load(B, R1, Relaxed), SrcStmt::store(A, 1, Relaxed)],
        ]);
        let allowed = allowed_src_outcomes(&p);
        assert!(allowed.contains(&outcome(&[(0, R0, 1), (1, R1, 1)])));
    }

    #[test]
    fn lb_with_release_acquire_pairs_is_forbidden() {
        // T0: Racq A; Wrel B  ∥  T1: Racq B; Wrel A — both-1 would put
        // each rf source hb-after its own read: a coherence violation.
        let p = SrcProgram::new(vec![
            vec![SrcStmt::load(A, R0, Acquire), SrcStmt::store(B, 1, Release)],
            vec![SrcStmt::load(B, R1, Acquire), SrcStmt::store(A, 1, Release)],
        ]);
        let allowed = allowed_src_outcomes(&p);
        assert!(!allowed.contains(&outcome(&[(0, R0, 1), (1, R1, 1)])));
        assert!(allowed.contains(&outcome(&[(0, R0, 0), (1, R1, 0)])));
    }

    #[test]
    fn validation_rejects_bad_orders() {
        use std::panic::catch_unwind;
        assert!(
            catch_unwind(|| SrcProgram::new(vec![vec![SrcStmt::store(A, 1, Acquire)]])).is_err()
        );
        assert!(
            catch_unwind(|| SrcProgram::new(vec![vec![SrcStmt::load(A, R0, Release)]])).is_err()
        );
        assert!(catch_unwind(|| SrcProgram::new(vec![vec![SrcStmt::fence(Relaxed)]])).is_err());
        assert!(catch_unwind(|| SrcProgram::new(vec![vec![
            SrcStmt::store(A, 1, Relaxed).depending_on(R0)
        ]]))
        .is_err());
    }

    #[test]
    fn locations_and_len() {
        let p = mp(Release, Acquire);
        assert_eq!(p.locations(), vec![A, B]);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn display_reads_like_annotated_litmus() {
        assert_eq!(SrcStmt::store(A, 1, Release).to_string(), "W.rel A=1");
        assert_eq!(SrcStmt::load(B, R0, Acquire).to_string(), "R.acq r0<-B");
        assert_eq!(SrcStmt::fence(SeqCst).to_string(), "F.sc");
        assert_eq!(
            SrcStmt::store(A, 1, Relaxed).depending_on(R0).to_string(),
            "W.rlx A=1 [dep r0]"
        );
    }
}
