//! Axiomatic allowed-outcome enumeration (herding-cats style).
//!
//! For a [`LitmusProgram`] we enumerate *candidate executions* — every
//! assignment of a reads-from source to each read and of a coherence
//! (total write) order to each location — and keep the candidates that
//! satisfy the selected model's axioms:
//!
//! * **uniproc** (all models): `po_loc ∪ rf ∪ co ∪ fr` is acyclic —
//!   SC-per-location, the "Coherence order" discipline of Table 6;
//! * **SC**: `po ∪ rf ∪ co ∪ fr` acyclic;
//! * **PC/TSO**: `ppo ∪ rfe ∪ co ∪ fr` acyclic, where ppo drops
//!   write→read pairs (the store buffer's relaxation) and fences/atomics
//!   restore order;
//! * **WC** (RVWMO fragment): ppo keeps only same-location order (minus
//!   forwardable write→read), fence-imposed order, syntactic
//!   dependencies, and atomics.
//!
//! The surviving candidates' register values form the **allowed outcome
//! set** that the operational machine's observations must stay inside.

use crate::program::{LitmusProgram, Loc, Outcome, StmtOp};
use ise_types::instr::{FenceKind, Reg};
use ise_types::model::ConsistencyModel;
use std::collections::{BTreeMap, BTreeSet, HashMap};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Write {
        loc: Loc,
        value: u64,
    },
    Read {
        loc: Loc,
        dst: Reg,
    },
    Fence(FenceKind),
    /// Atomic fetch-add: both a read and a write.
    Amo {
        loc: Loc,
        add: u64,
        dst: Reg,
    },
}

#[derive(Debug, Clone, Copy)]
struct Ev {
    id: usize,
    thread: usize,
    idx: usize,
    kind: EvKind,
    dep: Option<Reg>,
}

impl Ev {
    fn loc(&self) -> Option<Loc> {
        match self.kind {
            EvKind::Write { loc, .. } | EvKind::Read { loc, .. } | EvKind::Amo { loc, .. } => {
                Some(loc)
            }
            EvKind::Fence(_) => None,
        }
    }
    fn is_read(&self) -> bool {
        matches!(self.kind, EvKind::Read { .. } | EvKind::Amo { .. })
    }
    fn is_write(&self) -> bool {
        matches!(self.kind, EvKind::Write { .. } | EvKind::Amo { .. })
    }
    fn is_plain_read(&self) -> bool {
        matches!(self.kind, EvKind::Read { .. })
    }
    fn is_mem(&self) -> bool {
        !matches!(self.kind, EvKind::Fence(_))
    }
    fn dst(&self) -> Option<Reg> {
        match self.kind {
            EvKind::Read { dst, .. } | EvKind::Amo { dst, .. } => Some(dst),
            _ => None,
        }
    }
}

fn events_of(prog: &LitmusProgram) -> Vec<Ev> {
    let mut evs = Vec::new();
    for (t, stmts) in prog.threads.iter().enumerate() {
        for (i, s) in stmts.iter().enumerate() {
            let kind = match s.op {
                StmtOp::Write { loc, value } => EvKind::Write { loc, value },
                StmtOp::Read { loc, dst } => EvKind::Read { loc, dst },
                StmtOp::Fence(k) => EvKind::Fence(k),
                StmtOp::Amo { loc, add, dst } => EvKind::Amo { loc, add, dst },
            };
            evs.push(Ev {
                id: evs.len(),
                thread: t,
                idx: i,
                kind,
                dep: s.dep,
            });
        }
    }
    evs
}

/// One candidate execution: rf source per read (None = initial zero) and
/// co position list per location.
struct Candidate<'a> {
    evs: &'a [Ev],
    /// For each read event id: source write event id, or None for init.
    rf: HashMap<usize, Option<usize>>,
    /// Per location: write event ids in coherence order.
    co: HashMap<Loc, Vec<usize>>,
    /// Resolved value of each write event (Amo values depend on rf).
    wval: HashMap<usize, u64>,
    /// Resolved value of each read event.
    rval: HashMap<usize, u64>,
}

impl<'a> Candidate<'a> {
    /// Resolves Amo read/write values through the rf graph. Returns false
    /// on an unresolvable cycle.
    fn resolve_values(&mut self) -> bool {
        for ev in self.evs {
            if let EvKind::Write { value, .. } = ev.kind {
                self.wval.insert(ev.id, value);
            }
        }
        // Iterate until fixpoint (chains of Amos resolve one per pass).
        let reads: Vec<usize> = self
            .evs
            .iter()
            .filter(|e| e.is_read())
            .map(|e| e.id)
            .collect();
        for _ in 0..=reads.len() {
            let mut progress = false;
            for &r in &reads {
                if self.rval.contains_key(&r) {
                    continue;
                }
                let v = match self.rf[&r] {
                    None => Some(0),
                    Some(src) => self.wval.get(&src).copied(),
                };
                if let Some(v) = v {
                    self.rval.insert(r, v);
                    if let EvKind::Amo { add, .. } = self.evs[r].kind {
                        self.wval.insert(r, v.wrapping_add(add));
                    }
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        reads.iter().all(|r| self.rval.contains_key(r))
    }

    /// The atomicity axiom: an Amo's write must immediately follow its
    /// read source in co (no intervening write to the same location).
    fn atomicity_ok(&self) -> bool {
        for ev in self.evs {
            if let EvKind::Amo { loc, .. } = ev.kind {
                let order = &self.co[&loc];
                let my_pos = order.iter().position(|&w| w == ev.id).expect("amo in co");
                match self.rf[&ev.id] {
                    None => {
                        if my_pos != 0 {
                            return false;
                        }
                    }
                    Some(src) => {
                        let Some(src_pos) = order.iter().position(|&w| w == src) else {
                            return false; // source at another location: ill-formed
                        };
                        if my_pos != src_pos + 1 {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    fn co_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for order in self.co.values() {
            for i in 0..order.len() {
                for j in i + 1..order.len() {
                    out.push((order[i], order[j]));
                }
            }
        }
        out
    }

    fn rf_edges(&self) -> Vec<(usize, usize)> {
        self.rf
            .iter()
            .filter_map(|(&r, &src)| src.map(|s| (s, r)))
            .collect()
    }

    fn fr_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (&r, &src) in &self.rf {
            let loc = self.evs[r].loc().expect("reads have locations");
            let order = &self.co[&loc];
            let start = match src {
                None => 0,
                Some(s) => order
                    .iter()
                    .position(|&w| w == s)
                    .map(|p| p + 1)
                    .unwrap_or(usize::MAX),
            };
            if start == usize::MAX {
                continue;
            }
            for &w in &order[start..] {
                if w != r {
                    out.push((r, w));
                }
            }
        }
        out
    }
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
    // Iterative three-color DFS.
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

/// Fence-imposed ordering edges for one thread.
fn fence_edges(evs: &[Ev]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for f in evs.iter().filter(|e| matches!(e.kind, EvKind::Fence(_))) {
        let EvKind::Fence(kind) = f.kind else {
            unreachable!()
        };
        let before: Vec<&Ev> = evs
            .iter()
            .filter(|e| e.thread == f.thread && e.idx < f.idx && e.is_mem())
            .collect();
        let after: Vec<&Ev> = evs
            .iter()
            .filter(|e| e.thread == f.thread && e.idx > f.idx && e.is_mem())
            .collect();
        for b in &before {
            for a in &after {
                let ordered = match kind {
                    FenceKind::Full => true,
                    FenceKind::StoreStore => b.is_write() && a.is_write(),
                    FenceKind::LoadLoad => b.is_read() && a.is_read(),
                };
                if ordered {
                    out.push((b.id, a.id));
                }
            }
        }
    }
    out
}

/// Syntactic dependency edges: each statement with `dep = Some(r)` is
/// ordered after the most recent earlier load producing `r`.
fn dep_edges(evs: &[Ev]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for e in evs {
        let Some(r) = e.dep else { continue };
        let src = evs
            .iter()
            .filter(|s| s.thread == e.thread && s.idx < e.idx && s.dst() == Some(r))
            .max_by_key(|s| s.idx);
        if let Some(s) = src {
            out.push((s.id, e.id));
        }
    }
    out
}

/// Program-order pairs between memory events of the same thread.
fn po_pairs(evs: &[Ev]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for a in evs {
        for b in evs {
            if a.thread == b.thread && a.idx < b.idx && a.is_mem() && b.is_mem() {
                out.push((a.id, b.id));
            }
        }
    }
    out
}

fn ppo(evs: &[Ev], model: ConsistencyModel) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for &(ai, bi) in &po_pairs(evs) {
        let (a, b) = (&evs[ai], &evs[bi]);
        let keep = match model {
            ConsistencyModel::Sc => true,
            ConsistencyModel::Pc => {
                // TSO relaxes write -> (plain) read; atomics are fully
                // ordered.
                !(a.is_write() && !a.is_read() && b.is_plain_read())
            }
            ConsistencyModel::Wc => {
                let same_loc = a.loc().is_some() && a.loc() == b.loc();
                let amo_order =
                    matches!(a.kind, EvKind::Amo { .. }) || matches!(b.kind, EvKind::Amo { .. });
                // Same-location order holds except forwardable W->R.
                let loc_order = same_loc && !(a.is_write() && !a.is_read() && b.is_plain_read());
                loc_order || amo_order
            }
        };
        if keep {
            edges.push((ai, bi));
        }
    }
    edges.extend(fence_edges(evs));
    edges.extend(dep_edges(evs));
    edges
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

/// Enumerates all outcomes `model` allows for `prog`.
///
/// Each outcome maps `(thread, register)` to the value the load left in
/// the register. Programs of litmus size (≤ ~10 events, ≤ 3 writes per
/// location) enumerate in microseconds; the cost is exponential in writes
/// per location.
pub fn allowed_outcomes(prog: &LitmusProgram, model: ConsistencyModel) -> BTreeSet<Outcome> {
    let evs = events_of(prog);
    let reads: Vec<usize> = evs.iter().filter(|e| e.is_read()).map(|e| e.id).collect();
    let mut writes_by_loc: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
    for e in &evs {
        if e.is_write() {
            writes_by_loc
                .entry(e.loc().expect("writes have locations"))
                .or_default()
                .push(e.id);
        }
    }
    for loc in prog.locations() {
        writes_by_loc.entry(loc).or_default();
    }

    // rf choices per read: any same-location write, or init.
    let rf_options: Vec<Vec<Option<usize>>> = reads
        .iter()
        .map(|&r| {
            let loc = evs[r].loc().expect("reads have locations");
            let mut opts: Vec<Option<usize>> = vec![None];
            for &w in writes_by_loc.get(&loc).map(|v| v.as_slice()).unwrap_or(&[]) {
                if w != r {
                    opts.push(Some(w));
                }
            }
            opts
        })
        .collect();

    // co choices per location.
    let locs: Vec<Loc> = writes_by_loc.keys().copied().collect();
    let co_options: Vec<Vec<Vec<usize>>> = locs
        .iter()
        .map(|l| permutations(&writes_by_loc[l]))
        .collect();

    let ppo_edges = ppo(&evs, model);
    let po_loc: Vec<(usize, usize)> = po_pairs(&evs)
        .into_iter()
        .filter(|&(a, b)| evs[a].loc().is_some() && evs[a].loc() == evs[b].loc())
        .collect();

    let mut outcomes = BTreeSet::new();
    let mut rf_idx = vec![0usize; reads.len()];
    loop {
        // Current rf assignment.
        let rf: HashMap<usize, Option<usize>> = reads
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, rf_options[i][rf_idx[i]]))
            .collect();

        let mut co_idx = vec![0usize; locs.len()];
        loop {
            let co: HashMap<Loc, Vec<usize>> = locs
                .iter()
                .enumerate()
                .map(|(i, &l)| (l, co_options[i][co_idx[i]].clone()))
                .collect();
            let mut cand = Candidate {
                evs: &evs,
                rf: rf.clone(),
                co,
                wval: HashMap::new(),
                rval: HashMap::new(),
            };
            if cand.resolve_values() && cand.atomicity_ok() {
                let rf_e = cand.rf_edges();
                let co_e = cand.co_edges();
                let fr_e = cand.fr_edges();
                // uniproc: SC per location.
                let mut uni = po_loc.clone();
                uni.extend(&rf_e);
                uni.extend(&co_e);
                uni.extend(&fr_e);
                if acyclic(evs.len(), &uni) {
                    // model axiom.
                    let mut global = ppo_edges.clone();
                    match model {
                        ConsistencyModel::Sc => global.extend(&rf_e),
                        _ => global.extend(
                            rf_e.iter()
                                .filter(|&&(w, r)| evs[w].thread != evs[r].thread),
                        ),
                    }
                    global.extend(&co_e);
                    global.extend(&fr_e);
                    if acyclic(evs.len(), &global) {
                        let mut o = Outcome::new();
                        for &r in &reads {
                            o.insert(
                                (evs[r].thread, evs[r].dst().expect("reads have dst")),
                                cand.rval[&r],
                            );
                        }
                        outcomes.insert(o);
                    }
                }
            }

            // Advance co indices.
            let mut k = 0;
            loop {
                if k == locs.len() {
                    break;
                }
                co_idx[k] += 1;
                if co_idx[k] < co_options[k].len() {
                    break;
                }
                co_idx[k] = 0;
                k += 1;
            }
            if k == locs.len() {
                break;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Stmt;

    const A: Loc = Loc(0);
    const B: Loc = Loc(1);
    const R0: Reg = Reg(0);
    const R1: Reg = Reg(1);

    fn outcome(pairs: &[(usize, Reg, u64)]) -> Outcome {
        pairs.iter().map(|&(t, r, v)| ((t, r), v)).collect()
    }

    /// Message passing with full fences: Fig. 1 of the paper.
    fn mp_fenced() -> LitmusProgram {
        LitmusProgram::new(vec![
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
        ])
    }

    #[test]
    fn mp_with_fences_forbids_stale_b() {
        for model in ConsistencyModel::ALL {
            let allowed = allowed_outcomes(&mp_fenced(), model);
            // Three results allowed, the fourth (A=1, B=0) forbidden.
            assert!(allowed.contains(&outcome(&[(1, R0, 0), (1, R1, 0)])));
            assert!(allowed.contains(&outcome(&[(1, R0, 0), (1, R1, 1)])));
            assert!(allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 1)])));
            assert!(
                !allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 0)])),
                "{model}: MP violation must be forbidden"
            );
        }
    }

    #[test]
    fn mp_unfenced_allowed_under_wc_only() {
        let p = LitmusProgram::new(vec![
            vec![Stmt::write(B, 1), Stmt::write(A, 1)],
            vec![Stmt::read(A, R0), Stmt::read(B, R1)],
        ]);
        let bad = outcome(&[(1, R0, 1), (1, R1, 0)]);
        assert!(!allowed_outcomes(&p, ConsistencyModel::Sc).contains(&bad));
        assert!(!allowed_outcomes(&p, ConsistencyModel::Pc).contains(&bad));
        // WC relaxes store-store and load-load order: observable.
        assert!(allowed_outcomes(&p, ConsistencyModel::Wc).contains(&bad));
    }

    /// Store buffering (Dekker): the classic TSO relaxation.
    #[test]
    fn sb_relaxation_separates_sc_from_pc() {
        let p = LitmusProgram::new(vec![
            vec![Stmt::write(A, 1), Stmt::read(B, R0)],
            vec![Stmt::write(B, 1), Stmt::read(A, R1)],
        ]);
        let both_zero = outcome(&[(0, R0, 0), (1, R1, 0)]);
        assert!(
            !allowed_outcomes(&p, ConsistencyModel::Sc).contains(&both_zero),
            "SC forbids r0=r1=0"
        );
        assert!(
            allowed_outcomes(&p, ConsistencyModel::Pc).contains(&both_zero),
            "TSO allows r0=r1=0 (store buffering)"
        );
        assert!(allowed_outcomes(&p, ConsistencyModel::Wc).contains(&both_zero));
    }

    #[test]
    fn sb_with_full_fences_restores_sc() {
        let p = LitmusProgram::new(vec![
            vec![
                Stmt::write(A, 1),
                Stmt::fence(FenceKind::Full),
                Stmt::read(B, R0),
            ],
            vec![
                Stmt::write(B, 1),
                Stmt::fence(FenceKind::Full),
                Stmt::read(A, R1),
            ],
        ]);
        let both_zero = outcome(&[(0, R0, 0), (1, R1, 0)]);
        for model in ConsistencyModel::ALL {
            assert!(
                !allowed_outcomes(&p, model).contains(&both_zero),
                "{model}: fenced SB forbids r0=r1=0"
            );
        }
    }

    #[test]
    fn corr_same_location_reads_never_go_backwards() {
        // CoRR: two reads of the same location on one thread must not see
        // values in anti-coherence order.
        let p = LitmusProgram::new(vec![
            vec![Stmt::write(A, 1)],
            vec![Stmt::read(A, R0), Stmt::read(A, R1)],
        ]);
        for model in ConsistencyModel::ALL {
            let allowed = allowed_outcomes(&p, model);
            assert!(
                !allowed.contains(&outcome(&[(1, R0, 1), (1, R1, 0)])),
                "{model}: CoRR violation must be forbidden"
            );
            assert!(allowed.contains(&outcome(&[(1, R0, 0), (1, R1, 1)])));
        }
    }

    #[test]
    fn store_forwarding_allows_own_value_early() {
        // A thread reads its own buffered store before it is globally
        // visible (rfi): allowed everywhere.
        let p = LitmusProgram::new(vec![vec![Stmt::write(A, 1), Stmt::read(A, R0)]]);
        for model in ConsistencyModel::ALL {
            let allowed = allowed_outcomes(&p, model);
            assert!(allowed.contains(&outcome(&[(0, R0, 1)])));
            assert!(
                !allowed.contains(&outcome(&[(0, R0, 0)])),
                "{model}: cannot read 0 past own store of 1"
            );
        }
    }

    #[test]
    fn dependency_orders_wc() {
        // MP with address dependency on the consumer side and SS fence on
        // the producer: WC must forbid the stale read.
        let p = LitmusProgram::new(vec![
            vec![
                Stmt::write(B, 1),
                Stmt::fence(FenceKind::StoreStore),
                Stmt::write(A, 1),
            ],
            vec![Stmt::read(A, R0), Stmt::read(B, R1).depending_on(R0)],
        ]);
        let bad = outcome(&[(1, R0, 1), (1, R1, 0)]);
        assert!(
            !allowed_outcomes(&p, ConsistencyModel::Wc).contains(&bad),
            "dependency + SS fence forbids MP violation under WC"
        );
        // Without the dependency, WC allows it (load-load reordering).
        let p2 = LitmusProgram::new(vec![
            vec![
                Stmt::write(B, 1),
                Stmt::fence(FenceKind::StoreStore),
                Stmt::write(A, 1),
            ],
            vec![Stmt::read(A, R0), Stmt::read(B, R1)],
        ]);
        assert!(allowed_outcomes(&p2, ConsistencyModel::Wc).contains(&bad));
    }

    #[test]
    fn amo_is_atomic() {
        // Two increments of A: final read must be able to see 2 and must
        // never lose an update.
        let p = LitmusProgram::new(vec![vec![Stmt::amo(A, 1, R0)], vec![Stmt::amo(A, 1, R1)]]);
        for model in ConsistencyModel::ALL {
            let allowed = allowed_outcomes(&p, model);
            // One of the AMOs must observe the other: (0,1) or (1,0),
            // never (0,0) or (1,1).
            assert!(allowed.contains(&outcome(&[(0, R0, 0), (1, R1, 1)])));
            assert!(allowed.contains(&outcome(&[(0, R0, 1), (1, R1, 0)])));
            assert!(
                !allowed.contains(&outcome(&[(0, R0, 0), (1, R1, 0)])),
                "{model}: lost update must be forbidden"
            );
        }
    }

    #[test]
    fn coherence_ww_total_order() {
        // 2+2W with SS fences: writes to each location must not be
        // observed in contradictory orders.
        let p = LitmusProgram::new(vec![
            vec![
                Stmt::write(A, 1),
                Stmt::fence(FenceKind::StoreStore),
                Stmt::write(B, 1),
            ],
            vec![
                Stmt::write(B, 2),
                Stmt::fence(FenceKind::StoreStore),
                Stmt::write(A, 2),
            ],
        ]);
        // No registers: this test just must not blow up and must produce
        // the single empty outcome.
        for model in ConsistencyModel::ALL {
            let allowed = allowed_outcomes(&p, model);
            assert_eq!(allowed.len(), 1);
        }
    }

    #[test]
    fn pc_keeps_store_store_order_without_fences() {
        // MP without fences under PC: store-store and load-load order are
        // preserved, so the violation stays forbidden.
        let p = LitmusProgram::new(vec![
            vec![Stmt::write(B, 1), Stmt::write(A, 1)],
            vec![Stmt::read(A, R0), Stmt::read(B, R1)],
        ]);
        let bad = outcome(&[(1, R0, 1), (1, R1, 0)]);
        assert!(!allowed_outcomes(&p, ConsistencyModel::Pc).contains(&bad));
    }
}
