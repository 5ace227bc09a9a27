//! Chaos campaigns: fault-injection sweeps with invariant checks.
//!
//! A campaign takes the workloads' own faulting pages, replaces EInject
//! with a [`FaultInjector`] interpreting a richer [`FaultKind`] — see
//! `ise-core`'s fault layer — and sweeps fault **kind** × injection
//! **rate** × **workload**. Every cell is built by [`fault_cell`] and
//! run through [`invariants::run_audited`], the post-run audit every
//! fault campaign shares.
//!
//! The campaign is deterministic: the same [`ChaosConfig::seed`] yields
//! a byte-identical JSON report.

use crate::invariants::{self, AuditedRun};
use crate::system::{system_identity, System};
use ise_core::{FaultInjector, FaultPlan, FaultResolver};
use ise_engine::{Cycle, SimRng};
use ise_telemetry::{Registry, TraceEventKind};
use ise_types::config::SystemConfig;
use ise_types::{FaultKind, FaultSpec, Json, PageId, ToJson};
use ise_workloads::stats::touched_pages;
use ise_workloads::Workload;
use std::collections::HashSet;
use std::rc::Rc;

/// Sweep parameters of one campaign.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed; page sampling and intermittent draws derive from it.
    pub seed: u64,
    /// Fault kinds to sweep (each with its concrete parameters).
    pub kinds: Vec<FaultKind>,
    /// Fractions of each workload's faulting pages to inject, in `(0, 1]`
    /// (the campaign panics on any other value, `NaN` included).
    pub rates: Vec<f64>,
    /// Cycle budget per run: each cell stops after this many cycles and
    /// a cell cut short reports [`ChaosRun::timed_out`].
    pub max_cycles: Cycle,
}

/// The outcome of one sweep cell (workload × kind × rate).
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Workload name.
    pub workload: String,
    /// Injected fault kind (with parameters).
    pub kind: FaultKind,
    /// Requested injection rate.
    pub rate: f64,
    /// Pages actually injected.
    pub pages_injected: usize,
    /// Total cycles to completion.
    pub cycles: Cycle,
    /// Imprecise exceptions taken.
    pub imprecise_exceptions: u64,
    /// Stores the OS applied.
    pub stores_applied: u64,
    /// Transactions the injector denied.
    pub denied: u64,
    /// Handler retries on still-present causes.
    pub transient_retries: u64,
    /// Stores recovered after at least one retry.
    pub transient_recovered: u64,
    /// Early-drain interrupts (chunked episodes).
    pub early_drain_interrupts: u64,
    /// Deepest FSB occupancy observed.
    pub fsb_high_water_mark: usize,
    /// Processes killed.
    pub killed: u64,
    /// Whether the run exhausted its cycle budget
    /// ([`ChaosConfig::max_cycles`]) and was cut off. Invariant checks
    /// are skipped on a timed-out cell — mid-flight state legitimately
    /// violates end-of-run conservation.
    pub timed_out: bool,
    /// Invariant violations (empty = all held).
    pub violations: Vec<String>,
}

impl ChaosRun {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The cell as a telemetry [`Registry`]: counters for everything
    /// monotone, JSON values for identity and verdict fields, in the
    /// report's historical key order (the parallel-equivalence suite
    /// pins the rendering byte-for-byte).
    pub fn to_registry(&self) -> Registry {
        let mut reg = Registry::new();
        reg.put("workload", Json::str(self.workload.clone()));
        reg.put("kind", Json::str(self.kind.to_string()));
        reg.put("rate", Json::from(self.rate));
        reg.add("pages_injected", self.pages_injected as u64);
        reg.add("cycles", self.cycles);
        reg.add("imprecise_exceptions", self.imprecise_exceptions);
        reg.add("stores_applied", self.stores_applied);
        reg.add("denied", self.denied);
        reg.add("transient_retries", self.transient_retries);
        reg.add("transient_recovered", self.transient_recovered);
        reg.add("early_drain_interrupts", self.early_drain_interrupts);
        reg.add("fsb_high_water_mark", self.fsb_high_water_mark as u64);
        reg.add("killed", self.killed);
        reg.put("timed_out", Json::from(self.timed_out));
        reg.put("ok", Json::from(self.ok()));
        reg.put(
            "violations",
            Json::arr(self.violations.iter().map(Json::str)),
        );
        reg
    }
}

impl ToJson for ChaosRun {
    fn to_json(&self) -> Json {
        self.to_registry().to_json()
    }
}

/// A whole campaign's results.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The master seed the campaign ran under.
    pub seed: u64,
    /// Cells actually simulated after content-key dedupe (≤
    /// `runs.len()`; duplicate sweep entries share one evaluation).
    pub unique_cells: usize,
    /// One entry per sweep cell, in sweep order.
    pub runs: Vec<ChaosRun>,
}

impl ChaosReport {
    /// Whether every run's invariants held.
    pub fn all_ok(&self) -> bool {
        self.runs.iter().all(ChaosRun::ok)
    }

    /// The campaign as a telemetry [`Registry`] (seed, per-cell runs in
    /// sweep order, verdict).
    pub fn to_registry(&self) -> Registry {
        Registry::from_sections([
            ("seed", Json::from(self.seed)),
            ("unique_cells", Json::from(self.unique_cells)),
            ("runs", self.runs.to_json()),
            ("all_ok", Json::from(self.all_ok())),
        ])
    }
}

impl ToJson for ChaosReport {
    fn to_json(&self) -> Json {
        self.to_registry().to_json()
    }
}

/// Sweeps fault kind × rate × workload, checking invariants per run.
#[derive(Debug, Clone)]
pub struct ChaosCampaign {
    cfg: SystemConfig,
    chaos: ChaosConfig,
}

impl ChaosCampaign {
    /// A campaign running each cell on `cfg` (its consistency model is
    /// the one the ordering contract is checked against).
    pub fn new(cfg: SystemConfig, chaos: ChaosConfig) -> Self {
        ChaosCampaign { cfg, chaos }
    }

    /// One deterministic stream per cell, derived from the cell's
    /// *content* (workload name, fault kind, rate) rather than its sweep
    /// position: reordering or extending the sweep leaves every other
    /// cell's stream untouched, and duplicate sweep entries get equal
    /// seeds, so their content keys collide and the dedupe collapses them.
    fn cell_seed(&self, workload: &Workload, kind: FaultKind, rate: f64) -> u64 {
        let key = format!("{}\u{1f}{kind:?}\u{1f}{}", workload.name, rate.to_bits());
        self.chaos.seed.wrapping_add(
            0x9e37_79b9_7f4a_7c15u64.wrapping_mul(ise_types::persist::fnv1a(key.as_bytes()) | 1),
        )
    }

    /// Keys one cell by its content: the workload's `system_identity`
    /// (configuration, traces, declared faulting pages), the fault kind
    /// with its parameters, the rate's bits and the cell seed.
    /// [`ChaosCampaign::build_cell`] is a pure function of these inputs,
    /// so equal keys mean equal boot states and equal trajectories.
    fn content_key(identity: u64, kind: FaultKind, rate: f64, seed: u64) -> u64 {
        let key = format!(
            "{identity:016x}\u{1f}{kind:?}\u{1f}{}\u{1f}{seed}",
            rate.to_bits()
        );
        ise_types::persist::fnv1a(key.as_bytes())
    }

    /// [`ChaosCampaign::run_clocked`] on the cycle-skipping clock.
    pub fn run_with_workers(&self, workloads: &[Workload], workers: usize) -> ChaosReport {
        self.run_clocked(workloads, workers, true)
    }

    /// Runs the full sweep over `workloads`, one kind × rate × workload
    /// cell per worker, on `workers` threads. Each cell runs on the
    /// clock `skip` selects: the cycle-skipping clock when `true`, the
    /// per-cycle reference loop when `false`; the two report
    /// byte-identically.
    ///
    /// Each workload must declare `einject_pages` (the pool faults are
    /// sampled from); the campaign clears that list so EInject stays
    /// inert and the [`FaultInjector`] is the only fault source.
    ///
    /// A cell that would exceed its cycle budget
    /// ([`ChaosConfig::max_cycles`]) degrades to a reported
    /// [`ChaosRun::timed_out`] outcome instead of panicking out of a
    /// worker.
    ///
    /// Every cell is fully independent — it seeds its own RNG stream and
    /// builds its own [`System`] — and results are reduced in sweep
    /// order, so the report (and its JSON rendering) is byte-identical
    /// for every worker count. Cells with equal content keys (workload
    /// content, kind, rate and seed; duplicate sweep entries) are
    /// simulated once and their result replicated into each sweep slot.
    ///
    /// # Panics
    ///
    /// Panics if a rate is not in `(0, 1]` (`NaN` included), or if a
    /// workload declares no faulting pages or never touches them.
    pub fn run_clocked(&self, workloads: &[Workload], workers: usize, skip: bool) -> ChaosReport {
        self.chaos.rates.iter().for_each(|&rate| check_rate(rate));
        let pools: Vec<Vec<PageId>> = workloads.iter().map(fault_pool).collect();
        let identities: Vec<u64> = workloads
            .iter()
            .map(|w| system_identity(&self.cfg, w))
            .collect();
        let mut cells =
            Vec::with_capacity(workloads.len() * self.chaos.kinds.len() * self.chaos.rates.len());
        for (wi, workload) in workloads.iter().enumerate() {
            for &kind in &self.chaos.kinds {
                for &rate in &self.chaos.rates {
                    cells.push((wi, kind, rate, self.cell_seed(workload, kind, rate)));
                }
            }
        }
        let (runs, unique_cells) = ise_par::par_map_dedup(
            &cells,
            workers,
            |&(wi, kind, rate, seed)| Self::content_key(identities[wi], kind, rate, seed),
            |_, &(wi, kind, rate, seed)| {
                let (w, pool) = (&workloads[wi], &pools[wi]);
                let cell = self.build_cell(w, pool, kind, rate, seed);
                self.run_cell(cell, w, kind, rate, skip, None).0
            },
        );
        ChaosReport {
            seed: self.chaos.seed,
            unique_cells,
            runs,
        }
    }

    /// Runs one sweep cell with the event trace enabled (a ring of
    /// `capacity` events) and returns the cell's result together with
    /// the trace as JSON. The trace opens with one `fault_activated`
    /// event per injected page and closes with `fault_cleared` for every
    /// cause that healed or was resolved — the campaign-level events the
    /// per-run counters lose. Cell seeding matches what
    /// [`ChaosCampaign::run_clocked`] would use for the matching sweep
    /// cell of `workload`, so the traced run on the same clock `skip`
    /// reproduces a sweep cell exactly.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `(0, 1]` (`NaN` included), or if
    /// `workload` declares no faulting pages or never touches them.
    pub fn trace_cell(
        &self,
        workload: &Workload,
        kind: FaultKind,
        rate: f64,
        capacity: usize,
        skip: bool,
    ) -> (ChaosRun, Json) {
        check_rate(rate);
        let seed = self.cell_seed(workload, kind, rate);
        let cell = self.build_cell(workload, &fault_pool(workload), kind, rate, seed);
        let (run, trace) = self.run_cell(cell, workload, kind, rate, skip, Some(capacity));
        (run, trace.expect("tracing was requested"))
    }

    /// Builds one sweep cell up to (but not including) its first cycle:
    /// the quiet workload's [`System`] armed with the cell's fault plan,
    /// `rate` of `pool` (the workload's [`fault_pool`]) sampled under
    /// `seed`. A pure function of the campaign configuration, the
    /// workload, `kind`, `rate` and `seed` — the inputs
    /// [`ChaosCampaign::content_key`] hashes.
    fn build_cell(
        &self,
        workload: &Workload,
        pool: &[PageId],
        kind: FaultKind,
        rate: f64,
        seed: u64,
    ) -> (System, Rc<FaultInjector>, Vec<PageId>) {
        let k = ((pool.len() as f64 * rate).ceil() as usize).clamp(1, pool.len());
        let mut rng = SimRng::seed_from(seed);
        let picked: Vec<_> = rng
            .sample_indices(pool.len(), k)
            .into_iter()
            .map(|i| pool[i])
            .collect();
        let (sys, injector) = fault_cell(
            self.cfg,
            workload,
            seed,
            picked.iter().copied(),
            FaultSpec::bus_error(kind),
        );
        (sys, injector, picked)
    }

    /// Runs a built cell under [`ChaosConfig::max_cycles`] on the clock
    /// `skip` selects and audits it, with the event trace on when
    /// `trace_capacity` is set.
    fn run_cell(
        &self,
        (mut sys, injector, picked): (System, Rc<FaultInjector>, Vec<PageId>),
        workload: &Workload,
        kind: FaultKind,
        rate: f64,
        skip: bool,
        trace_capacity: Option<usize>,
    ) -> (ChaosRun, Option<Json>) {
        let k = picked.len();
        if let Some(cap) = trace_capacity {
            sys = sys.with_trace(cap);
            for &page in &picked {
                sys.record_event(0, TraceEventKind::FaultActivated { page: page.index() });
            }
        }
        let AuditedRun {
            stats,
            timed_out,
            audit,
        } = invariants::run_audited(&mut sys, self.chaos.max_cycles, skip);

        let trace = if trace_capacity.is_some() {
            for page in injector.cleared_pages() {
                sys.record_event(0, TraceEventKind::FaultCleared { page: page.index() });
            }
            Some(sys.trace_json())
        } else {
            None
        };

        let run = ChaosRun {
            workload: workload.name.clone(),
            kind,
            rate,
            pages_injected: k,
            cycles: stats.cycles,
            imprecise_exceptions: stats.imprecise_exceptions,
            stores_applied: stats.stores_applied,
            denied: injector.denied_count(),
            transient_retries: stats.transient_retries,
            transient_recovered: stats.transient_recovered,
            early_drain_interrupts: stats.early_drain_interrupts,
            fsb_high_water_mark: stats.fsb_high_water_mark,
            killed: stats.killed,
            timed_out,
            violations: audit.all(),
        };
        (run, trace)
    }
}

/// Builds an injected fault cell: `workload` on `cfg` with EInject left
/// inert, a [`FaultInjector`] seeded from `seed` denying `pages` with
/// `spec` as the only fault source, and the contract monitor on — the
/// shape every fault campaign (chaos, adversary, litmus overlay) runs.
/// Returns the system, not yet run, and the injector for its counters.
///
/// # Panics
///
/// Panics if the workload has no traces or more traces than the
/// configuration has mesh tiles.
pub fn fault_cell(
    cfg: SystemConfig,
    workload: &Workload,
    seed: u64,
    pages: impl IntoIterator<Item = PageId>,
    spec: FaultSpec,
) -> (System, Rc<FaultInjector>) {
    let injector = Rc::new(FaultPlan::new(seed ^ 0xF417).pages(pages, spec).build());
    let sys = System::with_fault_sources(
        cfg,
        &quiet(workload),
        vec![injector.clone() as Rc<dyn FaultResolver>],
    )
    .with_contract_monitor();
    (sys, injector)
}

/// `workload` with its declared faulting pages cleared, so EInject stays
/// inert in a fault cell.
fn quiet(workload: &Workload) -> Workload {
    Workload {
        einject_pages: Vec::new(),
        ..workload.clone()
    }
}

/// Panics unless `rate` lies in the documented `(0, 1]` (`NaN` fails too).
fn check_rate(rate: f64) {
    assert!(
        rate > 0.0 && rate <= 1.0,
        "chaos rate {rate} is not in (0, 1]"
    );
}

/// The pages faults are sampled from: the declared `einject_pages` the
/// traces actually reach. Regions are reserved generously, and injecting
/// only cold pages would make the whole sweep vacuous.
fn fault_pool(workload: &Workload) -> Vec<PageId> {
    assert!(
        !workload.einject_pages.is_empty(),
        "workload {} declares no faulting pages to sample from",
        workload.name
    );
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
    assert!(
        !pool.is_empty(),
        "workload {} never touches its declared faulting pages",
        workload.name
    );
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_types::model::ConsistencyModel;
    use ise_workloads::kvstore::{kv_workload, KvConfig, KvEngine};

    fn tiny_workload() -> Workload {
        silo(200, 40)
    }

    fn silo(preload: usize, ops_per_core: usize) -> Workload {
        let kv = KvConfig {
            preload,
            ops_per_core,
            in_einject: true,
            ..KvConfig::small(2)
        };
        kv_workload(KvEngine::Silo, &kv)
    }

    fn small_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::isca23();
        cfg.noc.mesh_x = 2;
        cfg.noc.mesh_y = 1;
        cfg.cores = 2;
        cfg.with_model(ConsistencyModel::Pc)
    }

    #[test]
    fn single_cell_holds_invariants() {
        let chaos = ChaosConfig {
            seed: 3,
            kinds: vec![FaultKind::Permanent],
            rates: vec![0.5],
            max_cycles: 200_000_000,
        };
        let report = ChaosCampaign::new(small_cfg(), chaos).run_with_workers(&[tiny_workload()], 2);
        assert_eq!(report.runs.len(), 1);
        let run = &report.runs[0];
        assert!(run.ok(), "violations: {:?}", run.violations);
        assert!(run.denied > 0, "permanent faults must deny something");
        assert!(run.imprecise_exceptions > 0);
    }

    #[test]
    fn sc_cells_hold_invariants() {
        // SC has no store buffer: stores complete through the caches, so
        // a cell must not be charged for stores the buffer never saw.
        for kind in [
            FaultKind::Permanent,
            FaultKind::Transient { clears_after: 2 },
        ] {
            let chaos = ChaosConfig {
                seed: 3,
                kinds: vec![kind],
                rates: vec![0.5],
                max_cycles: 200_000_000,
            };
            let cfg = small_cfg().with_model(ConsistencyModel::Sc);
            let report = ChaosCampaign::new(cfg, chaos).run_with_workers(&[tiny_workload()], 1);
            let run = &report.runs[0];
            assert!(!run.timed_out, "{kind}");
            assert!(run.denied > 0, "{kind}: the cell must inject something");
            assert!(run.ok(), "{kind}: {:?}", run.violations);
        }
    }

    #[test]
    fn report_json_is_deterministic_per_seed() {
        let chaos = ChaosConfig {
            seed: 9,
            kinds: vec![FaultKind::Intermittent { probability: 0.4 }],
            rates: vec![0.3],
            max_cycles: 200_000_000,
        };
        let mk = || {
            ChaosCampaign::new(small_cfg(), chaos.clone())
                .run_with_workers(&[tiny_workload()], 2)
                .to_json()
                .render()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn exhausted_budget_degrades_to_timeout_outcome() {
        // A 500-cycle budget cannot complete the workload; the cell must
        // report timed_out instead of panicking out of the campaign, and
        // identically under both clocks.
        let chaos = ChaosConfig {
            seed: 3,
            kinds: vec![FaultKind::Permanent],
            rates: vec![0.5],
            max_cycles: 500,
        };
        let mk = |skip: bool| {
            ChaosCampaign::new(small_cfg(), chaos.clone()).run_clocked(&[tiny_workload()], 2, skip)
        };
        let skipped = mk(true);
        let run = &skipped.runs[0];
        assert!(run.timed_out);
        assert!(run.ok(), "timed-out cells skip invariant audits");
        assert!(run.cycles <= 500);
        assert_eq!(
            skipped.to_json().render(),
            mk(false).to_json().render(),
            "timeout outcomes must be byte-identical across clocks"
        );
    }

    #[test]
    fn trace_cell_records_fault_lifecycle_without_perturbing_the_run() {
        let kind = FaultKind::Transient { clears_after: 2 };
        // Seed 7's content-derived cell samples store-touched pages, so
        // the trace shows the full detect→drain→heal lifecycle.
        let chaos = ChaosConfig {
            seed: 7,
            kinds: vec![kind],
            rates: vec![0.5],
            max_cycles: 200_000_000,
        };
        let campaign = ChaosCampaign::new(small_cfg(), chaos);
        let w = tiny_workload();
        let (run, trace) = campaign.trace_cell(&w, kind, 0.5, 8192, true);
        assert!(run.ok(), "violations: {:?}", run.violations);
        let rendered = trace.render();
        assert!(rendered.contains("\"fault_activated\""));
        assert!(rendered.contains("\"fault_cleared\""), "transients heal");
        assert!(rendered.contains("\"fsb_drain_begin\""));
        // Tracing is a pure observer: the traced cell reproduces the
        // corresponding sweep cell byte-for-byte.
        let report = campaign.run_with_workers(&[w], 2);
        assert_eq!(
            run.to_json().render(),
            report.runs[0].to_json().render(),
            "traced cell must match the sweep cell"
        );
    }

    fn rate_sweep(rates: Vec<f64>) -> ChaosCampaign {
        let chaos = ChaosConfig {
            seed: 3,
            kinds: vec![FaultKind::Permanent],
            rates,
            max_cycles: 200_000_000,
        };
        ChaosCampaign::new(small_cfg(), chaos)
    }

    #[test]
    #[should_panic(expected = "is not in (0, 1]")]
    fn zero_rate_is_rejected() {
        rate_sweep(vec![0.0]).run_with_workers(&[tiny_workload()], 1);
    }

    #[test]
    #[should_panic(expected = "is not in (0, 1]")]
    fn above_one_rate_is_rejected() {
        rate_sweep(vec![0.5, 1.5]).run_with_workers(&[tiny_workload()], 1);
    }

    #[test]
    #[should_panic(expected = "is not in (0, 1]")]
    fn nan_rate_is_rejected() {
        rate_sweep(vec![0.5]).trace_cell(
            &tiny_workload(),
            FaultKind::Permanent,
            f64::NAN,
            64,
            true,
        );
    }

    #[test]
    fn content_keys_agree_with_boot_snapshots() {
        // Two workloads share a name, so every cell seed, but not their
        // traces; the sweep repeats one rate.
        let mut other = silo(150, 30);
        other.name = tiny_workload().name;
        let workloads = [tiny_workload(), other];
        assert_ne!(workloads[0].traces, workloads[1].traces);
        let campaign = rate_sweep(vec![0.5, 0.25, 0.5]);
        let kind = FaultKind::Permanent;
        let mut cells = Vec::new();
        for (wi, w) in workloads.iter().enumerate() {
            let (identity, pool) = (system_identity(&campaign.cfg, w), fault_pool(w));
            for &rate in &campaign.chaos.rates {
                let seed = campaign.cell_seed(w, kind, rate);
                let (sys, _, _) = campaign.build_cell(w, &pool, kind, rate, seed);
                // The identity hashed from the campaign's configuration
                // (core count unadjusted) is the built system's own.
                assert_eq!(system_identity(&campaign.cfg, &quiet(w)), sys.identity());
                let key = ChaosCampaign::content_key(identity, kind, rate, seed);
                cells.push((wi, key, sys.snapshot()));
            }
        }
        // Equal content keys ⇔ byte-equal boot snapshots (the key the
        // campaign used to hash); same-named workloads never collide.
        for (wi, key, snap) in &cells {
            for (wj, other_key, other_snap) in &cells {
                assert_eq!(key == other_key, snap == other_snap);
                assert!(
                    wi == wj || key != other_key,
                    "same-named workloads collapsed"
                );
            }
        }
        // 2 workloads × 1 kind × 2 distinct rates.
        let report = campaign.run_with_workers(&workloads, 2);
        assert_eq!((report.runs.len(), report.unique_cells), (6, 4));
    }

    #[test]
    fn duplicate_sweep_cells_evaluate_once_and_report_identically() {
        // A sweep with repeated (kind, rate) entries has equal content
        // keys, so the campaign must simulate one representative and
        // replicate its result into every matching slot.
        let chaos = ChaosConfig {
            seed: 5,
            kinds: vec![FaultKind::Permanent, FaultKind::Permanent],
            rates: vec![0.5, 0.5],
            max_cycles: 200_000_000,
        };
        let report =
            ChaosCampaign::new(small_cfg(), chaos.clone()).run_with_workers(&[tiny_workload()], 2);
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.unique_cells, 1, "all four cells hash equal");
        let first = report.runs[0].to_json().render();
        for run in &report.runs[1..] {
            assert_eq!(run.to_json().render(), first);
        }
        // The deduped result matches what a single-entry sweep computes.
        let single = ChaosConfig {
            kinds: vec![FaultKind::Permanent],
            rates: vec![0.5],
            ..chaos
        };
        let solo = ChaosCampaign::new(small_cfg(), single).run_with_workers(&[tiny_workload()], 2);
        assert_eq!(solo.unique_cells, 1);
        assert_eq!(solo.runs[0].to_json().render(), first);
    }
}
