//! GAP-style graph kernels: BFS, SSSP, and Betweenness Centrality,
//! executed for real over synthetic graphs with their memory accesses
//! trace-recorded (paper §6.5 runs BFS/SSSP/BC on ~1 M-node, ~8 M-edge
//! graphs allocated from the EInject region).

use crate::layout::MemoryLayout;
use crate::recorder::TraceRecorder;
use crate::Workload;
use ise_engine::SimRng;
use ise_types::addr::Addr;
use ise_types::PageId;

/// Infinity marker for distances.
pub const INF: u64 = u64::MAX;

/// A graph in Compressed Sparse Row form with unit-to-small edge weights.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    /// Offsets into `col_idx`, length `nodes + 1`.
    pub row_ptr: Vec<u32>,
    /// Flattened adjacency lists.
    pub col_idx: Vec<u32>,
    /// Edge weights (parallel to `col_idx`), in `1..=8`.
    pub weights: Vec<u32>,
}

impl CsrGraph {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges.
    pub fn edges(&self) -> usize {
        self.col_idx.len()
    }

    /// Generates a uniform random multigraph with `nodes` nodes and
    /// `nodes * degree` directed edges.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `degree == 0`.
    pub fn uniform(nodes: usize, degree: usize, rng: &mut SimRng) -> Self {
        assert!(nodes > 0 && degree > 0, "graph must be non-trivial");
        let edges = nodes * degree;
        let mut pairs: Vec<(u32, u32, u32)> = Vec::with_capacity(edges);
        for _ in 0..edges {
            let src = rng.index(nodes) as u32;
            let dst = rng.index(nodes) as u32;
            let w = rng.range(1, 9) as u32;
            pairs.push((src, dst, w));
        }
        pairs.sort_unstable();
        let mut row_ptr = vec![0u32; nodes + 1];
        for &(s, _, _) in &pairs {
            row_ptr[s as usize + 1] += 1;
        }
        for i in 0..nodes {
            row_ptr[i + 1] += row_ptr[i];
        }
        CsrGraph {
            row_ptr,
            col_idx: pairs.iter().map(|&(_, d, _)| d).collect(),
            weights: pairs.iter().map(|&(_, _, w)| w).collect(),
        }
    }
}

/// Array placement for a graph kernel's data structures.
#[derive(Debug, Clone, Copy)]
pub struct GraphArrays {
    /// `row_ptr` base address.
    pub row_ptr: Addr,
    /// `col_idx` base address.
    pub col_idx: Addr,
    /// Weights base address.
    pub weights: Addr,
    /// Distance / property array base address.
    pub dist: Addr,
    /// Auxiliary array (frontier / sigma) base address.
    pub aux: Addr,
    /// Second auxiliary array (delta / stack) base address.
    pub aux2: Addr,
}

impl GraphArrays {
    /// Lays the arrays out for `g`, inside the EInject region when
    /// `in_einject` (the §6.5 configuration).
    pub fn layout(g: &CsrGraph, l: &mut MemoryLayout, in_einject: bool) -> Self {
        let n = g.nodes() as u64 + 1;
        let m = g.edges() as u64;
        let mut alloc = |bytes: u64| {
            if in_einject {
                l.alloc_einject(bytes)
            } else {
                l.alloc(bytes)
            }
        };
        GraphArrays {
            row_ptr: alloc(n * 8),
            col_idx: alloc(m.max(1) * 8),
            weights: alloc(m.max(1) * 8),
            dist: alloc(n * 8),
            aux: alloc(n * 8),
            aux2: alloc(n * 8),
        }
    }

    /// All pages covered by the arrays of graph `g` (marked faulting for
    /// Fig. 6's Imprecise runs).
    pub fn pages(&self, g: &CsrGraph) -> Vec<PageId> {
        let n = g.nodes() as u64 + 1;
        let m = g.edges().max(1) as u64;
        let mut pages = Vec::new();
        pages.extend(MemoryLayout::pages_of(self.row_ptr, n * 8));
        pages.extend(MemoryLayout::pages_of(self.col_idx, m * 8));
        pages.extend(MemoryLayout::pages_of(self.weights, m * 8));
        pages.extend(MemoryLayout::pages_of(self.dist, n * 8));
        pages.extend(MemoryLayout::pages_of(self.aux, n * 8));
        pages.extend(MemoryLayout::pages_of(self.aux2, n * 8));
        pages.sort_unstable();
        pages.dedup();
        pages
    }
}

/// Breadth-first search from `source`; returns hop distances and records
/// the trace.
pub fn bfs(g: &CsrGraph, source: u32, arrays: &GraphArrays, rec: &mut TraceRecorder) -> Vec<u64> {
    let n = g.nodes();
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    rec.store_elem(arrays.dist, source as u64, 0);
    let mut frontier = vec![source];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            rec.load_elem(arrays.row_ptr, u as u64);
            rec.load_elem(arrays.row_ptr, u as u64 + 1);
            rec.alu(2);
            let lo = g.row_ptr[u as usize];
            for e in lo..g.row_ptr[u as usize + 1] {
                rec.load_elem(arrays.col_idx, e as u64);
                let v = g.col_idx[e as usize];
                rec.load_elem(arrays.dist, v as u64);
                rec.alu(1);
                if dist[v as usize] == INF {
                    dist[v as usize] = dist[u as usize] + 1;
                    rec.store_elem(arrays.dist, v as u64, dist[v as usize]);
                    rec.store_elem(arrays.aux, next.len() as u64, v as u64);
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Bellman-Ford-style SSSP with an active set; returns weighted
/// distances. A node joins the next round's active set once, at its
/// first relaxation in the round.
pub fn sssp(g: &CsrGraph, source: u32, arrays: &GraphArrays, rec: &mut TraceRecorder) -> Vec<u64> {
    let n = g.nodes();
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    rec.store_elem(arrays.dist, source as u64, 0);
    let mut active = vec![source];
    let mut queued = vec![false; n];
    while !active.is_empty() {
        let mut next = Vec::new();
        for &u in &active {
            rec.load_elem(arrays.row_ptr, u as u64);
            rec.load_elem(arrays.row_ptr, u as u64 + 1);
            rec.load_elem(arrays.dist, u as u64);
            rec.alu(4);
            let du = dist[u as usize];
            let lo = g.row_ptr[u as usize];
            for e in lo..g.row_ptr[u as usize + 1] {
                rec.load_elem(arrays.col_idx, e as u64);
                rec.load_elem(arrays.weights, e as u64);
                let v = g.col_idx[e as usize];
                let w = g.weights[e as usize] as u64;
                rec.load_elem(arrays.dist, v as u64);
                rec.alu(3);
                if du.saturating_add(w) < dist[v as usize] {
                    dist[v as usize] = du + w;
                    rec.store_elem(arrays.dist, v as u64, du + w);
                    if !std::mem::replace(&mut queued[v as usize], true) {
                        next.push(v);
                    }
                }
            }
        }
        for &v in &next {
            queued[v as usize] = false;
        }
        active = next;
    }
    dist
}

/// Brandes betweenness centrality from `sources.len()` roots; returns the
/// (unnormalized) centrality scores. Store-heavy, like the paper's BC
/// (25 % stores in Table 3).
pub fn bc(
    g: &CsrGraph,
    sources: &[u32],
    arrays: &GraphArrays,
    rec: &mut TraceRecorder,
) -> Vec<f64> {
    let n = g.nodes();
    let mut centrality = vec![0.0f64; n];
    for &s in sources {
        // Forward phase: BFS computing path counts (sigma).
        let mut dist = vec![INF; n];
        let mut sigma = vec![0u64; n];
        let mut stack: Vec<u32> = Vec::new();
        dist[s as usize] = 0;
        sigma[s as usize] = 1;
        rec.store_elem(arrays.dist, s as u64, 0);
        rec.store_elem(arrays.aux, s as u64, 1);
        let mut frontier = vec![s];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                stack.push(u);
                rec.store_elem(arrays.aux2, stack.len() as u64 - 1, u as u64);
                rec.load_elem(arrays.row_ptr, u as u64);
                rec.load_elem(arrays.row_ptr, u as u64 + 1);
                let lo = g.row_ptr[u as usize];
                for e in lo..g.row_ptr[u as usize + 1] {
                    rec.load_elem(arrays.col_idx, e as u64);
                    let v = g.col_idx[e as usize] as usize;
                    rec.load_elem(arrays.dist, v as u64);
                    rec.alu(1);
                    if dist[v] == INF {
                        dist[v] = dist[u as usize] + 1;
                        rec.store_elem(arrays.dist, v as u64, dist[v]);
                        next.push(v as u32);
                    }
                    if dist[v] == dist[u as usize] + 1 {
                        sigma[v] += sigma[u as usize];
                        rec.load_elem(arrays.aux, v as u64);
                        rec.store_elem(arrays.aux, v as u64, sigma[v]);
                    }
                }
            }
            frontier = next;
        }
        // Backward phase: dependency accumulation (delta) — store-heavy.
        let mut delta = vec![0.0f64; n];
        for &w in stack.iter().rev() {
            rec.load_elem(arrays.aux2, w as u64);
            let lo = g.row_ptr[w as usize];
            for e in lo..g.row_ptr[w as usize + 1] {
                rec.load_elem(arrays.col_idx, e as u64);
                let v = g.col_idx[e as usize] as usize;
                rec.load_elem(arrays.dist, v as u64);
                if dist[v] == dist[w as usize] + 1 && sigma[v] > 0 {
                    let share = sigma[w as usize] as f64 / sigma[v] as f64 * (1.0 + delta[v]);
                    delta[w as usize] += share;
                    rec.store_elem(arrays.aux2, w as u64, delta[w as usize].to_bits());
                    rec.alu(2);
                }
            }
            if w != s {
                centrality[w as usize] += delta[w as usize];
                rec.store_elem(arrays.dist, w as u64, centrality[w as usize].to_bits());
            }
        }
    }
    centrality
}

/// Which GAP kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapKernel {
    /// Breadth-first search.
    Bfs,
    /// Single-source shortest paths.
    Sssp,
    /// Betweenness centrality.
    Bc,
}

impl GapKernel {
    /// Paper row name.
    pub fn name(self) -> &'static str {
        match self {
            GapKernel::Bfs => "BFS",
            GapKernel::Sssp => "SSSP",
            GapKernel::Bc => "BC",
        }
    }
}

/// Configuration for a GAP workload.
#[derive(Debug, Clone, Copy)]
pub struct GapConfig {
    /// Node count.
    pub nodes: usize,
    /// Average out-degree (paper: ~8 M edges on ~1 M nodes → 8).
    pub degree: usize,
    /// Cores (one kernel instance per core).
    pub cores: usize,
    /// Kernel trials per core (the GAP suite runs each kernel from many
    /// roots — 64 by default upstream; faults fire on first touch only,
    /// so later trials run clean, as in the paper's §6.5 runs).
    pub trials: usize,
    /// RNG seed.
    pub seed: u64,
    /// Allocate graph data inside the EInject region and mark it
    /// faulting (the Imprecise configuration of §6.5).
    pub in_einject: bool,
}

impl GapConfig {
    /// A small, test-friendly configuration.
    pub fn small(cores: usize) -> Self {
        GapConfig {
            nodes: 2000,
            degree: 8,
            cores,
            trials: 1,
            seed: 42,
            in_einject: false,
        }
    }
}

/// Builds a GAP workload: each core runs the kernel from its own root
/// over a shared graph.
pub fn gap_workload(kernel: GapKernel, cfg: &GapConfig) -> Workload {
    let mut rng = SimRng::seed_from(cfg.seed);
    let g = CsrGraph::uniform(cfg.nodes, cfg.degree, &mut rng);
    let mut layout = MemoryLayout::new();
    let arrays = GraphArrays::layout(&g, &mut layout, cfg.in_einject);
    let mut traces = Vec::with_capacity(cfg.cores);
    let trials = cfg.trials.max(1);
    for core in 0..cfg.cores {
        let mut rec = TraceRecorder::new();
        for trial in 0..trials {
            let slot = core * trials + trial;
            let root = (slot * cfg.nodes / (cfg.cores * trials).max(1)) as u32;
            match kernel {
                GapKernel::Bfs => {
                    bfs(&g, root, &arrays, &mut rec);
                }
                GapKernel::Sssp => {
                    sssp(&g, root, &arrays, &mut rec);
                }
                GapKernel::Bc => {
                    bc(&g, &[root], &arrays, &mut rec);
                }
            }
        }
        traces.push(rec.into_trace());
    }
    Workload {
        name: kernel.name().to_string(),
        traces,
        einject_pages: if cfg.in_einject {
            arrays.pages(&g)
        } else {
            Vec::new()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::instr::InstructionMix;

    fn path_graph(n: usize) -> CsrGraph {
        // 0 -> 1 -> 2 -> ... -> n-1, weight 2 each.
        let mut row_ptr = vec![0u32];
        let mut col_idx = Vec::new();
        let mut weights = Vec::new();
        for i in 0..n {
            if i + 1 < n {
                col_idx.push(i as u32 + 1);
                weights.push(2);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        CsrGraph {
            row_ptr,
            col_idx,
            weights,
        }
    }

    fn arrays_for(g: &CsrGraph) -> GraphArrays {
        GraphArrays::layout(g, &mut MemoryLayout::new(), false)
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let a = arrays_for(&g);
        let mut rec = TraceRecorder::new();
        let d = bfs(&g, 0, &a, &mut rec);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        assert!(!rec.is_empty());
    }

    #[test]
    fn sssp_respects_weights() {
        let g = path_graph(4);
        let a = arrays_for(&g);
        let mut rec = TraceRecorder::new();
        let d = sssp(&g, 0, &a, &mut rec);
        assert_eq!(d, vec![0, 2, 4, 6]);
    }

    /// [`sssp`] with the active-set dedup as a linear scan of the set.
    fn sssp_scan(
        g: &CsrGraph,
        source: u32,
        arrays: &GraphArrays,
        rec: &mut TraceRecorder,
    ) -> Vec<u64> {
        let mut dist = vec![INF; g.nodes()];
        dist[source as usize] = 0;
        rec.store_elem(arrays.dist, source as u64, 0);
        let mut active = vec![source];
        while !active.is_empty() {
            let mut next = Vec::new();
            for &u in &active {
                rec.load_elem(arrays.row_ptr, u as u64);
                rec.load_elem(arrays.row_ptr, u as u64 + 1);
                rec.load_elem(arrays.dist, u as u64);
                rec.alu(4);
                let du = dist[u as usize];
                for e in g.row_ptr[u as usize]..g.row_ptr[u as usize + 1] {
                    rec.load_elem(arrays.col_idx, e as u64);
                    rec.load_elem(arrays.weights, e as u64);
                    let v = g.col_idx[e as usize];
                    let w = g.weights[e as usize] as u64;
                    rec.load_elem(arrays.dist, v as u64);
                    rec.alu(3);
                    if du.saturating_add(w) < dist[v as usize] {
                        dist[v as usize] = du + w;
                        rec.store_elem(arrays.dist, v as u64, du + w);
                        if !next.contains(&v) {
                            next.push(v);
                        }
                    }
                }
            }
            active = next;
        }
        dist
    }

    #[test]
    fn sssp_queued_bitmap_matches_the_scan() {
        for (seed, nodes, degree) in [(1, 50, 2), (2, 300, 4), (3, 1000, 8), (4, 2000, 16)] {
            let g = CsrGraph::uniform(nodes, degree, &mut SimRng::seed_from(seed));
            let a = arrays_for(&g);
            for source in [0, nodes as u32 / 2] {
                let (mut fast, mut scan) = (TraceRecorder::new(), TraceRecorder::new());
                let d = sssp(&g, source, &a, &mut fast);
                assert_eq!(d, sssp_scan(&g, source, &a, &mut scan), "seed {seed}");
                assert_eq!(fast.into_trace(), scan.into_trace(), "seed {seed}");
            }
        }
    }

    #[test]
    fn sssp_equals_bfs_on_unit_weights() {
        let mut rng = SimRng::seed_from(7);
        let mut g = CsrGraph::uniform(200, 4, &mut rng);
        for w in g.weights.iter_mut() {
            *w = 1;
        }
        let a = arrays_for(&g);
        let bfs_d = bfs(&g, 0, &a, &mut TraceRecorder::new());
        let sssp_d = sssp(&g, 0, &a, &mut TraceRecorder::new());
        assert_eq!(bfs_d, sssp_d);
    }

    #[test]
    fn bc_middle_of_path_has_highest_centrality() {
        let g = path_graph(5);
        let a = arrays_for(&g);
        // All-sources for an exact answer on the path.
        let roots: Vec<u32> = (0..5).collect();
        let c = bc(&g, &roots, &a, &mut TraceRecorder::new());
        // On a directed path, interior nodes carry through-traffic.
        assert!(c[1] > 0.0 && c[2] > 0.0 && c[3] > 0.0);
        assert_eq!(c[0], 0.0);
        assert!(
            c[2] >= c[3],
            "upstream interior nodes relay more paths: {c:?}"
        );
    }

    #[test]
    fn bc_is_store_heavier_than_bfs() {
        let mut rng = SimRng::seed_from(3);
        let g = CsrGraph::uniform(500, 8, &mut rng);
        let a = arrays_for(&g);
        let mut rec_bfs = TraceRecorder::new();
        bfs(&g, 0, &a, &mut rec_bfs);
        let mut rec_bc = TraceRecorder::new();
        bc(&g, &[0], &a, &mut rec_bc);
        let mix_bfs = InstructionMix::measure(rec_bfs.into_trace().iter());
        let mix_bc = InstructionMix::measure(rec_bc.into_trace().iter());
        assert!(
            mix_bc.store_pct > mix_bfs.store_pct,
            "BC {mix_bc} vs BFS {mix_bfs}"
        );
    }

    #[test]
    fn workload_in_einject_lists_pages() {
        let mut cfg = GapConfig::small(2);
        cfg.in_einject = true;
        let w = gap_workload(GapKernel::Bfs, &cfg);
        assert_eq!(w.traces.len(), 2);
        assert!(!w.einject_pages.is_empty());
        assert!(w.total_instructions() > 1000);
        // Pages are unique and inside the region.
        let mut p = w.einject_pages.clone();
        p.sort_unstable();
        p.dedup();
        assert_eq!(p.len(), w.einject_pages.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let w1 = gap_workload(GapKernel::Sssp, &GapConfig::small(1));
        let w2 = gap_workload(GapKernel::Sssp, &GapConfig::small(1));
        assert_eq!(w1.traces, w2.traces);
    }

    #[test]
    fn uniform_graph_has_requested_shape() {
        let mut rng = SimRng::seed_from(1);
        let g = CsrGraph::uniform(100, 8, &mut rng);
        assert_eq!(g.nodes(), 100);
        assert_eq!(g.edges(), 800);
        // row_ptr is monotone.
        assert!(g.row_ptr.windows(2).all(|w| w[0] <= w[1]));
    }
}
