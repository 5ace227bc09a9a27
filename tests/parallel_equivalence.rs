//! Differential tests for the parallel exploration frontiers: at every
//! worker count, the parallel runs must be indistinguishable — report
//! for report, byte for byte — from the sequential reference
//! (`workers == 1`), and the memoized machine must be indistinguishable
//! from its path-enumerating reference while popping at least 2× fewer
//! states.

use imprecise_store_exceptions::litmus::corpus::{corpus, Family};
use imprecise_store_exceptions::litmus::machine::{explore, MachineConfig};
use imprecise_store_exceptions::litmus::runner::{run_corpus, CorpusSummary};
use imprecise_store_exceptions::sim::{ChaosCampaign, ChaosConfig};
use imprecise_store_exceptions::types::config::SystemConfig;
use imprecise_store_exceptions::types::{ConsistencyModel, FaultKind, ToJson};
use imprecise_store_exceptions::workloads::kvstore::{kv_workload, KvConfig, KvEngine};
use imprecise_store_exceptions::workloads::Workload;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn assert_summaries_identical(seq: &CorpusSummary, par: &CorpusSummary, workers: usize) {
    assert_eq!(seq.cases(), par.cases(), "workers={workers}: case count");
    assert_eq!(seq.passed(), par.passed(), "workers={workers}: pass count");
    for (s, p) in seq.reports.iter().zip(&par.reports) {
        let ctx = format!(
            "workers={workers} test={} {:?} {}",
            s.name, s.model, s.fault_mode
        );
        assert_eq!(s.name, p.name, "{ctx}: merge order");
        assert_eq!(s.model, p.model, "{ctx}: merge order");
        assert_eq!(s.fault_mode, p.fault_mode, "{ctx}: merge order");
        assert_eq!(s.observed, p.observed, "{ctx}: outcome set");
        assert_eq!(s.allowed, p.allowed, "{ctx}: allowed set");
        assert_eq!(s.states, p.states, "{ctx}: state count");
        assert_eq!(
            s.imprecise_detections, p.imprecise_detections,
            "{ctx}: imprecise count"
        );
        assert_eq!(
            s.precise_exceptions, p.precise_exceptions,
            "{ctx}: precise count"
        );
    }
}

#[test]
fn parallel_corpus_runs_match_sequential_for_every_family() {
    let tests = corpus();
    // Every family participates, so the differential covers all eight
    // exploration shapes (fences, AMOs, dependencies, 4-thread tests).
    for fam in Family::ALL {
        assert!(tests.iter().any(|t| t.family == fam), "{fam} missing");
    }
    let sequential = run_corpus(&tests, 1);
    for workers in WORKER_COUNTS {
        let parallel = run_corpus(&tests, workers);
        assert_summaries_identical(&sequential, &parallel, workers);
    }
}

#[test]
fn memoized_exploration_matches_path_enumeration_on_small_tests() {
    // The unmemoized reference walks every path, so restrict the
    // differential to the 2-thread tests where path enumeration stays
    // tractable; the memoized-vs-memoized equivalence above covers the
    // rest.
    let tests = corpus();
    let small: Vec<_> = tests
        .iter()
        .filter(|t| t.program.threads.len() <= 2 && t.program.len() <= 5)
        .collect();
    assert!(small.len() >= 10, "need a representative small subset");
    let (mut memo_total, mut bare_total) = (0u64, 0u64);
    for t in small {
        for model in [ConsistencyModel::Pc, ConsistencyModel::Wc] {
            let cfg = MachineConfig::baseline(model).with_all_faulting(&t.program);
            let memo = explore(&t.program, &cfg);
            let bare = explore(&t.program, &cfg.clone().with_memoize(false));
            assert_eq!(memo.outcomes, bare.outcomes, "{} {model}", t.name);
            assert_eq!(memo.states, bare.states, "{} {model}", t.name);
            assert_eq!(
                memo.imprecise_detections, bare.imprecise_detections,
                "{} {model}",
                t.name
            );
            assert_eq!(
                memo.precise_exceptions, bare.precise_exceptions,
                "{} {model}",
                t.name
            );
            assert_eq!(memo.mem_values, bare.mem_values, "{} {model}", t.name);
            // The work memoization saves: pruning can only drop pops.
            assert!(
                bare.expansions >= memo.expansions,
                "{} {model}: bare {} < memoized {} expansions",
                t.name,
                bare.expansions,
                memo.expansions
            );
            memo_total += memo.expansions;
            bare_total += bare.expansions;
        }
    }
    assert!(
        bare_total >= 2 * memo_total,
        "bare walk popped {bare_total} states, memoized {memo_total}: below the 2x bar"
    );
}

fn campaign_workloads() -> Vec<Workload> {
    let mut a = KvConfig::small(2);
    a.preload = 200;
    a.ops_per_core = 40;
    a.in_einject = true;
    let mut b = a;
    b.ops_per_core = 30;
    let mut wb = kv_workload(KvEngine::Silo, &b);
    wb.name = "kv-short".into();
    vec![kv_workload(KvEngine::Silo, &a), wb]
}

fn campaign() -> ChaosCampaign {
    let mut cfg = SystemConfig::isca23();
    cfg.noc.mesh_x = 2;
    cfg.noc.mesh_y = 1;
    cfg.cores = 2;
    let chaos = ChaosConfig {
        seed: 0xC4A05,
        kinds: vec![
            FaultKind::Permanent,
            FaultKind::Transient { clears_after: 2 },
            FaultKind::Intermittent { probability: 0.5 },
            FaultKind::Windowed {
                from: 0,
                until: 100_000,
            },
        ],
        rates: vec![0.1, 0.5, 1.0],
        max_cycles: 200_000_000,
    };
    ChaosCampaign::new(cfg.with_model(ConsistencyModel::Pc), chaos)
}

#[test]
fn chaos_campaign_json_is_byte_identical_across_worker_counts() {
    // 4 kinds × 3 rates × 2 workloads = the 24-cell sweep.
    let workloads = campaign_workloads();
    let campaign = campaign();
    let reference = campaign.run_with_workers(&workloads, 1);
    assert_eq!(reference.runs.len(), 24, "expected the 24-cell sweep");
    assert!(reference.all_ok(), "reference invariants must hold");
    let reference_json = reference.to_json().render();
    for workers in WORKER_COUNTS {
        let report = campaign.run_with_workers(&workloads, workers);
        assert_eq!(
            report.to_json().render(),
            reference_json,
            "workers={workers}: campaign JSON must be byte-identical"
        );
    }
}
