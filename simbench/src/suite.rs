//! The four benchmark workloads: seeded input synthesis, one pass
//! (synthesis, fan-out, result check), and the traced run's twins.

use crate::layers::{run_system, SimCounts, Spans, MAX_CYCLES};
use crate::pins;
use crate::stats::fnv1a_hex;
use ise_aso::sweep::{sweep_checkpoints_clocked, SweepResult};
use ise_core::{FaultPlan, FaultResolver};
use ise_engine::SimRng;
use ise_sim::experiments::{Fig6Row, Fig6Scale, Table3Scale};
use ise_sim::{ChaosCampaign, ChaosConfig, System};
use ise_telemetry::Registry;
use ise_types::config::SystemConfig;
use ise_types::{ConsistencyModel, FaultKind, FaultSpec, ToJson};
use ise_workloads::cloud::{cloud_workload, CloudConfig, CloudService};
use ise_workloads::graph::{gap_workload, GapConfig, GapKernel};
use ise_workloads::kvstore::{kv_workload, KvConfig, KvEngine};
use ise_workloads::microbench::{microbench, MicrobenchConfig};
use ise_workloads::mixes::{synthesize, table3_mixes};
use ise_workloads::stats::touched_pages;
use ise_workloads::{Trace, Workload};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig. 6 at the `--quick` scale: 8 bars × {baseline, all-faulting}.
    Fig6Quick,
    /// The Fig. 5 microbenchmark cells across fault intensities, plus
    /// the demand-paging IO variant.
    FaultStorm,
    /// A chaos campaign over small faulting Silo and BFS workloads.
    ChaosSweep,
    /// Table 3's SC/WC/checkpoint-budget sweeps over the mixes.
    AsoSweep,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::Fig6Quick,
        Kind::FaultStorm,
        Kind::ChaosSweep,
        Kind::AsoSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig6Quick => "fig6_quick",
            Kind::FaultStorm => "fault_storm",
            Kind::ChaosSweep => "chaos_sweep",
            Kind::AsoSweep => "aso_sweep",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Input scale: the benchmark's own, or a reduced one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's own scale (the `--quick` scales of the `fig6`
    /// and `table3` binaries, the full Fig. 5 and chaos sweeps).
    Bench,
    /// A reduced scale that runs in well under a second.
    Smoke,
}

/// The generator seed a workload uses under benchmark seed `seed`:
/// `base` (the paper experiment's own seed) for seed 0, so a default run
/// reproduces today's outputs, and a splitmix64 derivation otherwise.
pub fn derive_seed(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut z = base ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One independent system run of `fig6_quick` or `fault_storm`.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// Unique label, `<workload>/<cell>`.
    pub label: String,
    /// System configuration.
    pub cfg: SystemConfig,
    /// The traces and the pages marked faulting.
    pub workload: Workload,
    /// Demand-paging IO latency, for the IO variant.
    pub io_latency: Option<u64>,
    /// Whether this is a fault-free bar whose faulting twin follows it.
    pub baseline: bool,
}

impl SimCell {
    fn build(&self, fault_free: bool) -> System {
        let sys = if fault_free {
            let mut quiet = self.workload.clone();
            quiet.einject_pages.clear();
            System::new(self.cfg, &quiet)
        } else {
            System::new(self.cfg, &self.workload)
        };
        match self.io_latency {
            Some(latency) => sys.with_demand_paging_io(latency),
            None => sys,
        }
    }
}

/// One checkpoint-budget sweep of `aso_sweep`.
#[derive(Debug, Clone)]
pub struct AsoCell {
    /// Unique label, `aso_sweep/<mix>/<system>`.
    pub label: String,
    /// The swept system.
    pub cfg: SystemConfig,
    /// One trace per core.
    pub traces: Vec<Trace>,
}

/// A workload's synthesized inputs.
#[derive(Debug, Clone)]
pub enum Inputs {
    /// `fig6_quick`, `fault_storm`: independent system cells.
    Cells(Vec<SimCell>),
    /// `chaos_sweep`: the campaign and the workloads it sweeps.
    Chaos {
        /// The 2-core PC system every cell runs on.
        cfg: SystemConfig,
        /// Kinds, rates, master seed, cycle budget.
        chaos: ChaosConfig,
        /// The faulting workloads.
        workloads: Vec<Workload>,
    },
    /// `aso_sweep`: one sweep per (mix, system), plus the mixes.
    Aso {
        /// The sweeps.
        cells: Vec<AsoCell>,
        /// The synthesized mixes (for the traced run's system twins).
        mixes: Vec<Workload>,
        /// System the mixes' twins run on.
        cfg: SystemConfig,
        /// Checkpoint budgets sampled by every sweep.
        budgets: &'static [usize],
    },
}

impl Inputs {
    /// Trace instructions the pass feeds the simulator.
    pub fn instructions(&self) -> u64 {
        let n: usize = match self {
            Inputs::Cells(cells) => cells.iter().map(|c| c.workload.total_instructions()).sum(),
            Inputs::Chaos { workloads, .. } => {
                workloads.iter().map(Workload::total_instructions).sum()
            }
            Inputs::Aso { mixes, .. } => mixes.iter().map(Workload::total_instructions).sum(),
        };
        n as u64
    }
}

/// The result of one fan-out cell.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    /// The cell's label.
    pub label: String,
    /// Its simulated-stats hash.
    pub hash: String,
    /// Why it failed (mismatch, timeout, invariant violation, panic).
    pub error: Option<String>,
    /// Simulated instructions.
    pub instrs: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Simulated counts, for cells that run a full system.
    pub counts: Option<SimCounts>,
    /// Host seconds the cell kept its worker busy (traced runs only).
    pub busy_s: f64,
    /// The cell's layer spans (traced runs only).
    pub spans: Spans,
}

/// What a cell body reports on success.
struct Outcome {
    hash: String,
    instrs: u64,
    cycles: u64,
    counts: Option<SimCounts>,
}

impl Outcome {
    fn of_sim(run: crate::layers::SimRun) -> Self {
        Outcome {
            hash: run.hash,
            instrs: run.counts.instrs,
            cycles: run.counts.cycles,
            counts: Some(run.counts),
        }
    }
}

/// Runs one cell body, timing it when traced and turning an error or a
/// panic into a failed [`CellResult`].
fn guarded(
    label: &str,
    traced: bool,
    body: impl FnOnce(&mut Spans) -> Result<Outcome, String>,
) -> CellResult {
    let mut spans = Spans::new(traced);
    let t0 = traced.then(Instant::now);
    let res = catch_unwind(AssertUnwindSafe(|| body(&mut spans)));
    let busy_s = t0.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let mut cell = CellResult {
        label: label.to_string(),
        busy_s,
        spans,
        ..CellResult::default()
    };
    match res {
        Ok(Ok(o)) => {
            cell.hash = o.hash;
            cell.instrs = o.instrs;
            cell.cycles = o.cycles;
            cell.counts = o.counts;
        }
        Ok(Err(e)) => cell.error = Some(e),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            cell.error = Some(format!("panicked: {msg}"));
        }
    }
    cell
}

/// One timed pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Workers the fan-out ran on.
    pub workers: usize,
    /// Synthesis + fan-out + check, host seconds.
    pub wall_s: f64,
    /// Input synthesis, host seconds.
    pub setup_s: f64,
    /// The fan-out alone, host seconds.
    pub fanout_s: f64,
    /// Every cell's result, in cell order.
    pub cells: Vec<CellResult>,
    /// Spans recorded on the driving thread (synthesis, campaign, check).
    pub spans: Spans,
    /// Failures not tied to one cell.
    pub failures: Vec<String>,
    /// Trace instructions of the synthesized inputs.
    pub input_instrs: u64,
}

impl Pass {
    /// Simulated instructions over every cell.
    pub fn instrs(&self) -> u64 {
        self.cells.iter().map(|c| c.instrs).sum()
    }

    /// Simulated cycles over every cell.
    pub fn cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.cycles).sum()
    }

    /// Cells that failed plus failures not tied to a cell.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.error.is_some()).count() + self.failures.len()
    }

    /// Every failure message.
    pub fn messages(&self) -> Vec<String> {
        self.cells
            .iter()
            .filter_map(|c| c.error.as_ref().map(|e| format!("{}: {e}", c.label)))
            .chain(self.failures.iter().cloned())
            .collect()
    }
}

/// The twin runs of a traced run, kept out of every timed pass.
#[derive(Debug, Clone, Default)]
pub struct Twins {
    /// Layer-by-layer replay cells (for workloads whose pass calls an
    /// opaque call), with their fan-out wall.
    pub replay: Option<(Vec<CellResult>, f64)>,
    /// Spans of the reference-clock runs (`clock.reference_run`) and
    /// their boot snapshots.
    pub reference: Spans,
    /// Spans of the fault-free twins (`sim.run`).
    pub fault_free: Spans,
    /// Twin cells run.
    pub attempted: usize,
    /// Why twin cells failed.
    pub failures: Vec<String>,
}

impl Twins {
    /// Records `cells`' failures and returns their merged spans.
    fn absorb(&mut self, cells: &[CellResult]) -> Spans {
        let mut spans = Spans::new(true);
        for c in cells {
            self.attempted += 1;
            if let Some(e) = &c.error {
                self.failures.push(format!("twin {}: {e}", c.label));
            }
            spans.merge(&c.spans);
        }
        spans
    }
}

/// One workload at one scale and seed.
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    /// Input scale.
    pub scale: Scale,
    /// Benchmark seed.
    pub seed: u64,
}

impl Bench {
    /// Synthesizes the workload's inputs from the seed.
    pub fn synthesize(&self) -> Inputs {
        match self.kind {
            Kind::Fig6Quick => Inputs::Cells(self.fig6_cells()),
            Kind::FaultStorm => Inputs::Cells(self.storm_cells()),
            Kind::ChaosSweep => self.chaos_inputs(),
            Kind::AsoSweep => self.aso_inputs(),
        }
    }

    fn fig6_cells(&self) -> Vec<SimCell> {
        let s = match self.scale {
            Scale::Bench => Fig6Scale::quick(),
            Scale::Smoke => Fig6Scale {
                gap_nodes: 300,
                gap_trials: 1,
                kv_preload: 200,
                kv_ops: 150,
                cores: 2,
            },
        };
        let seed = derive_seed(42, self.seed);
        let mut cfg = SystemConfig::isca23();
        cfg.cores = s.cores;
        let mut faulting = Vec::new();
        for kernel in [GapKernel::Bfs, GapKernel::Sssp, GapKernel::Bc] {
            let gap = GapConfig {
                nodes: s.gap_nodes,
                degree: 8,
                cores: s.cores,
                trials: s.gap_trials,
                seed,
                in_einject: true,
            };
            faulting.push(gap_workload(kernel, &gap));
        }
        for engine in [KvEngine::Silo, KvEngine::Masstree] {
            // As `experiments::fig6`: a fixed-duration run completes ~4x more
            // of Masstree's lighter operations.
            let ops_factor = if engine == KvEngine::Masstree { 4 } else { 1 };
            let kv = KvConfig {
                preload: s.kv_preload,
                ops_per_core: s.kv_ops * ops_factor,
                cores: s.cores,
                seed,
                in_einject: true,
            };
            faulting.push(kv_workload(engine, &kv));
        }
        for svc in [
            CloudService::DataCaching,
            CloudService::MediaStreaming,
            CloudService::DataServing,
        ] {
            let cloud = CloudConfig {
                requests_per_core: s.kv_ops * 6,
                cores: s.cores,
                working_set: 128 << 10,
                seed,
                in_einject: true,
            };
            faulting.push(cloud_workload(svc, &cloud));
        }
        faulting
            .into_iter()
            .flat_map(|w| {
                let mut baseline = w.clone();
                baseline.einject_pages = Vec::new();
                [
                    SimCell {
                        label: format!("fig6_quick/{}/baseline", w.name),
                        cfg,
                        workload: baseline,
                        io_latency: None,
                        baseline: true,
                    },
                    SimCell {
                        label: format!("fig6_quick/{}/imprecise", w.name),
                        cfg,
                        workload: w,
                        io_latency: None,
                        baseline: false,
                    },
                ]
            })
            .collect()
    }

    fn storm_cells(&self) -> Vec<SimCell> {
        let (stores, pages, io_pages): (usize, &[usize], &[usize]) = match self.scale {
            Scale::Bench => (10_000, &[1, 4, 16, 64, 256, 512, 1024], &[4, 64, 512]),
            Scale::Smoke => (1_000, &[1, 64], &[4]),
        };
        let seed = derive_seed(99, self.seed);
        let mut cfg = SystemConfig::isca23();
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg.cores = 1;
        let cell = |pages: usize, io_latency: Option<u64>| {
            let mb = microbench(&MicrobenchConfig {
                stores_per_iter: stores,
                iterations: 1,
                array_bytes: 4 << 20,
                faulting_pages_per_iter: pages,
                seed,
            });
            let io = if io_latency.is_some() { "io-" } else { "" };
            SimCell {
                label: format!("fault_storm/{io}{pages}"),
                cfg,
                workload: Workload {
                    name: format!("mbench-{io}{pages}"),
                    traces: vec![mb.iterations[0].trace.clone()],
                    einject_pages: mb.iterations[0].faulting_pages.clone(),
                },
                io_latency,
                baseline: false,
            }
        };
        pages
            .iter()
            .map(|&p| cell(p, None))
            .chain(io_pages.iter().map(|&p| cell(p, Some(20_000))))
            .collect()
    }

    fn chaos_inputs(&self) -> Inputs {
        let mut cfg = SystemConfig::isca23();
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg.cores = 2;
        let cfg = cfg.with_model(ConsistencyModel::Pc);
        let all_kinds = vec![
            FaultKind::Permanent,
            FaultKind::Transient { clears_after: 2 },
            FaultKind::Intermittent { probability: 0.5 },
            FaultKind::Windowed {
                from: 0,
                until: 100_000,
            },
        ];
        let (preload, ops, nodes, kinds, rates) = match self.scale {
            Scale::Bench => (400, 80, 2000, all_kinds, vec![0.1, 0.5, 1.0]),
            Scale::Smoke => (100, 20, 200, all_kinds[..2].to_vec(), vec![1.0]),
        };
        let silo = kv_workload(
            KvEngine::Silo,
            &KvConfig {
                preload,
                ops_per_core: ops,
                cores: 2,
                seed: derive_seed(7, self.seed),
                in_einject: true,
            },
        );
        let bfs = gap_workload(
            GapKernel::Bfs,
            &GapConfig {
                nodes,
                degree: 8,
                cores: 2,
                trials: 1,
                seed: derive_seed(42, self.seed),
                in_einject: true,
            },
        );
        Inputs::Chaos {
            cfg,
            chaos: ChaosConfig {
                seed: derive_seed(0xC4A05, self.seed),
                kinds,
                rates,
                max_cycles: 500_000_000,
            },
            workloads: vec![silo, bfs],
        }
    }

    fn aso_inputs(&self) -> Inputs {
        let s = match self.scale {
            Scale::Bench => Table3Scale::quick(),
            Scale::Smoke => Table3Scale {
                instrs_per_core: 1_000,
                cores: 2,
                budgets: &[1, 8],
            },
        };
        let mut base = SystemConfig::isca23();
        base.cores = s.cores;
        let systems = [
            ("base", base),
            ("2x-mem", base.with_double_memory_latency()),
            ("4x-skew", base.with_store_skew(4)),
        ];
        let seed = derive_seed(0x7a31, self.seed);
        let mixes: Vec<Workload> = table3_mixes()
            .iter()
            .map(|spec| synthesize(spec, s.instrs_per_core, s.cores, seed))
            .collect();
        let cells = mixes
            .iter()
            .flat_map(|mix| {
                systems.iter().map(|(sys_name, cfg)| AsoCell {
                    label: format!("aso_sweep/{}/{sys_name}", mix.name),
                    cfg: *cfg,
                    traces: mix.traces.clone(),
                })
            })
            .collect();
        Inputs::Aso {
            cells,
            mixes,
            cfg: base,
            budgets: s.budgets,
        }
    }

    /// One pass: synthesize, fan out on `workers`, check every result
    /// against the pins (seed 0, benchmark scale) and against `reference`
    /// (an earlier pass of the same seed, e.g. at another worker count).
    pub fn pass(&self, workers: usize, traced: bool, reference: Option<&Pass>) -> Pass {
        let t0 = Instant::now();
        let mut spans = Spans::new(traced);
        let inputs = spans.time("workloads.synth", || self.synthesize());
        let setup_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut cells = match &inputs {
            Inputs::Cells(cells) => ise_par::par_map(cells, workers, |_, cell| {
                guarded(&cell.label, traced, |sp| {
                    let instrs = cell.workload.total_instructions() as u64;
                    run_system(sp, true, false, instrs, || cell.build(false)).map(Outcome::of_sim)
                })
            }),
            Inputs::Chaos {
                cfg,
                chaos,
                workloads,
            } => spans.time("chaos.campaign", || {
                chaos_campaign(*cfg, chaos, workloads, workers)
            }),
            Inputs::Aso { cells, budgets, .. } => ise_par::par_map(cells, workers, |_, cell| {
                guarded(&cell.label, traced, |sp| {
                    let r = sp.time("aso.sweep", || {
                        sweep_checkpoints_clocked(
                            &cell.cfg,
                            &cell.traces,
                            budgets,
                            MAX_CYCLES,
                            true,
                        )
                    });
                    let (instrs, cycles) = aso_work(&cell.traces, &r);
                    Ok(Outcome {
                        hash: fnv1a_hex(format!("{r:?}").as_bytes()),
                        instrs,
                        cycles,
                        counts: None,
                    })
                })
            }),
        };
        let fanout_s = t1.elapsed().as_secs_f64();
        let failures = spans.time("check", || self.check(&mut cells, reference));
        let input_instrs = inputs.instructions();
        drop(inputs);
        Pass {
            workers,
            wall_s: t0.elapsed().as_secs_f64(),
            setup_s,
            fanout_s,
            cells,
            spans,
            failures,
            input_instrs,
        }
    }

    /// Marks every mismatching cell failed; returns failures not tied
    /// to one cell.
    fn check(&self, cells: &mut [CellResult], reference: Option<&Pass>) -> Vec<String> {
        let mut failures = Vec::new();
        if let Some(r) = reference {
            if r.cells.len() != cells.len() {
                failures.push(format!(
                    "{} cells, the reference pass had {}",
                    cells.len(),
                    r.cells.len()
                ));
            }
            for (c, rc) in cells.iter_mut().zip(&r.cells) {
                if c.error.is_none() && (c.label != rc.label || c.hash != rc.hash) {
                    c.error = Some(format!(
                        "hash {} differs from the reference pass's {} ({})",
                        c.hash, rc.hash, rc.label
                    ));
                }
            }
        }
        if self.seed == 0 && self.scale == Scale::Bench {
            for c in cells.iter_mut().filter(|c| c.error.is_none()) {
                match pins::pin(&c.label) {
                    Some(p) if p == c.hash => {}
                    Some(p) => c.error = Some(format!("hash {} differs from pin {p}", c.hash)),
                    None => c.error = Some(format!("no pin for hash {}", c.hash)),
                }
            }
            if self.kind == Kind::Fig6Quick {
                let got = fig6_registry_hash(cells);
                if got != pins::FIG6_QUICK_REGISTRY_HASH {
                    failures.push(format!(
                        "fig6 rows hash {got}, the fig6 --quick golden hashes to {}",
                        pins::FIG6_QUICK_REGISTRY_HASH
                    ));
                }
            }
        }
        failures
    }

    /// The traced run's twins: reference-clock runs (with a boot
    /// snapshot each), fault-free twins, and for the workloads whose
    /// pass makes a call that cannot be split, a layer-by-layer replay.
    ///
    /// Twins compared with the timed passes run on the passes' `workers`,
    /// so both sides of a ratio ran under the same load. The chaos
    /// replay, which is compared only with its own twins and also gives
    /// the `par.*` metrics, runs on `fan_workers`.
    pub fn twins(&self, workers: usize, fan_workers: usize) -> Twins {
        let mut t = Twins::default();
        match self.synthesize() {
            Inputs::Cells(cells) => {
                let reference = ise_par::par_map(&cells, workers, |_, cell| {
                    let instrs = cell.workload.total_instructions() as u64;
                    guarded(&cell.label, true, |sp| {
                        run_system(sp, false, true, instrs, || cell.build(false))
                            .map(Outcome::of_sim)
                    })
                });
                t.reference = t.absorb(&reference);
                // Fig. 6's baseline bars are already the fault-free twins.
                if !cells.iter().any(|c| c.baseline) {
                    let quiet = ise_par::par_map(&cells, workers, |_, cell| {
                        let instrs = cell.workload.total_instructions() as u64;
                        guarded(&cell.label, true, |sp| {
                            run_system(sp, true, false, instrs, || cell.build(true))
                                .map(Outcome::of_sim)
                        })
                    });
                    t.fault_free = t.absorb(&quiet);
                }
            }
            Inputs::Chaos {
                cfg,
                chaos,
                workloads,
            } => {
                let mut shapes = Vec::new();
                for wi in 0..workloads.len() {
                    for &kind in &chaos.kinds {
                        for &rate in &chaos.rates {
                            shapes.push((
                                wi,
                                kind,
                                rate,
                                derive_seed(chaos.seed, shapes.len() as u64 + 1),
                            ));
                        }
                    }
                }
                let run = |skip: bool, snapshot: bool, faults: bool| {
                    ise_par::par_map(&shapes, fan_workers, |_, &(wi, kind, rate, seed)| {
                        let w = &workloads[wi];
                        let label = format!("chaos_sweep/{}/{kind}/{rate}", w.name);
                        guarded(&label, true, |sp| {
                            let instrs = w.total_instructions() as u64;
                            run_system(sp, skip, snapshot, instrs, || {
                                chaos_cell(cfg, w, kind, rate, seed, faults)
                            })
                            .map(Outcome::of_sim)
                        })
                    })
                };
                let t0 = Instant::now();
                let replay = run(true, true, true);
                t.absorb(&replay);
                t.replay = Some((replay, t0.elapsed().as_secs_f64()));
                t.reference = t.absorb(&run(false, false, true));
                t.fault_free = t.absorb(&run(true, false, false));
            }
            Inputs::Aso {
                cells,
                mixes,
                cfg,
                budgets,
            } => {
                let t0 = Instant::now();
                let replay = ise_par::par_map(&mixes, workers, |_, mix| {
                    guarded(&format!("aso_sweep/{}/system-twin", mix.name), true, |sp| {
                        let instrs = mix.total_instructions() as u64;
                        run_system(sp, true, true, instrs, || System::new(cfg, mix))
                            .map(Outcome::of_sim)
                    })
                });
                t.absorb(&replay);
                t.replay = Some((replay, t0.elapsed().as_secs_f64()));
                let reference = ise_par::par_map(&cells, workers, |_, cell| {
                    guarded(&cell.label, true, |sp| {
                        sp.time("clock.reference_run", || {
                            sweep_checkpoints_clocked(
                                &cell.cfg,
                                &cell.traces,
                                budgets,
                                MAX_CYCLES,
                                false,
                            )
                        });
                        Ok(Outcome {
                            hash: String::new(),
                            instrs: 0,
                            cycles: 0,
                            counts: None,
                        })
                    })
                });
                t.reference = t.absorb(&reference);
            }
        }
        t
    }
}

/// Runs the chaos campaign and turns its report into one result per
/// sweep cell (the campaign's `all_ok` is every cell passing).
fn chaos_campaign(
    cfg: SystemConfig,
    chaos: &ChaosConfig,
    workloads: &[Workload],
    workers: usize,
) -> Vec<CellResult> {
    let expected = workloads.len() * chaos.kinds.len() * chaos.rates.len();
    let campaign = ChaosCampaign::new(cfg, chaos.clone());
    let report = catch_unwind(AssertUnwindSafe(|| {
        campaign.run_with_workers(workloads, workers)
    }));
    let Ok(report) = report else {
        return (0..expected)
            .map(|i| CellResult {
                label: format!("chaos_sweep/cell{i}"),
                error: Some("the campaign panicked".into()),
                ..CellResult::default()
            })
            .collect();
    };
    let all_ok = report.all_ok();
    report
        .runs
        .iter()
        .map(|run| {
            let instrs = workloads
                .iter()
                .find(|w| w.name == run.workload)
                .map_or(0, Workload::total_instructions) as u64;
            let error = if run.timed_out {
                Some("timed out".to_string())
            } else if !run.ok() {
                Some(format!("violations: {}", run.violations.join("; ")))
            } else if !all_ok {
                Some("the campaign reported all_ok = false".to_string())
            } else {
                None
            };
            CellResult {
                label: format!("chaos_sweep/{}/{}/{}", run.workload, run.kind, run.rate),
                hash: fnv1a_hex(run.to_json().render().as_bytes()),
                error,
                instrs,
                cycles: run.cycles,
                ..CellResult::default()
            }
        })
        .collect()
}

/// Builds one chaos cell shape the way the campaign does: the quiet
/// workload, with a fault injector over a `rate` share of the faulting
/// pages its traces touch (none when `faults` is false).
fn chaos_cell(
    cfg: SystemConfig,
    workload: &Workload,
    kind: FaultKind,
    rate: f64,
    seed: u64,
    faults: bool,
) -> System {
    let mut quiet = workload.clone();
    quiet.einject_pages.clear();
    if !faults {
        return System::new(cfg, &quiet).with_contract_monitor();
    }
    let touched: HashSet<_> = workload
        .traces
        .iter()
        .flat_map(|t| touched_pages(t))
        .collect();
    let pool: Vec<_> = workload
        .einject_pages
        .iter()
        .copied()
        .filter(|p| touched.contains(p))
        .collect();
    let k = ((pool.len() as f64 * rate).ceil() as usize).clamp(1, pool.len().max(1));
    let picked: Vec<_> = SimRng::seed_from(seed)
        .sample_indices(pool.len(), k.min(pool.len()))
        .into_iter()
        .map(|i| pool[i])
        .collect();
    let injector = Rc::new(
        FaultPlan::new(seed ^ 0xF417)
            .pages(picked, FaultSpec::bus_error(kind))
            .build(),
    );
    System::with_fault_sources(cfg, &quiet, vec![injector as Rc<dyn FaultResolver>])
        .with_contract_monitor()
}

/// Instructions and cycles one sweep simulated: every machine (SC, WC,
/// one per budget) retires the whole trace set; its cycles follow from
/// its aggregate IPC.
fn aso_work(traces: &[Trace], r: &SweepResult) -> (u64, u64) {
    let retired: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let ipcs = [r.sc_ipc, r.wc_ipc]
        .into_iter()
        .chain(r.points.iter().map(|p| p.ipc));
    let mut instrs = 0;
    let mut cycles = 0;
    for ipc in ipcs {
        instrs += retired;
        if ipc > 0.0 {
            cycles += (retired as f64 / ipc).round() as u64;
        }
    }
    (instrs, cycles)
}

/// The `fig6` binary's registry hash, rebuilt from the cells: the five
/// paper bars under `rows`, the Cloudsuite bars under `cloudsuite`.
fn fig6_registry_hash(cells: &[CellResult]) -> String {
    let rows: Vec<Fig6Row> = cells
        .chunks(2)
        .map(|pair| {
            let (base, imp) = (&pair[0], &pair[1]);
            let c = imp.counts.unwrap_or_default();
            Fig6Row {
                name: imp.label.split('/').nth(1).unwrap_or_default().to_string(),
                baseline_cycles: base.cycles,
                imprecise_cycles: imp.cycles,
                exceptions: c.imprecise_exceptions,
                precise_exceptions: c.precise_exceptions,
                faulting_stores: c.faulting_stores,
            }
        })
        .collect();
    let split = rows.len().min(5);
    let registry = Registry::from_sections([
        ("rows", rows[..split].to_vec().to_json()),
        ("cloudsuite", rows[split..].to_vec().to_json()),
    ]);
    fnv1a_hex(registry.render().as_bytes())
}
