//! Self-tests of the benchmark: metric naming, the order statistics,
//! seed determinism, and a reduced-scale run of every workload.

use ise_simbench::report::{per_layer, result_line, END_TO_END, PER_LAYER};
use ise_simbench::stats::{median, percentile, quartiles, relative_iqr};
use ise_simbench::suite::{derive_seed, Bench, Inputs, Kind, Scale};
use ise_workloads::Trace;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_unique_and_listed_in_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits beside the benchmark directory");
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "metric name {name:?}");
        assert!(seen.insert(*name), "metric {name} listed twice");
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {unit:?}"
        );
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for kind in Kind::ALL {
        assert!(valid_name(kind.name()));
        assert!(json.contains(&format!("\"name\": \"{}\"", kind.name())));
        assert_eq!(Kind::parse(kind.name()), Some(kind));
    }
}

#[test]
fn median_and_percentiles_match_known_vectors() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let v = [1.0, 2.0, 3.0, 4.0];
    assert_eq!(percentile(&v, 0.0), 1.0);
    assert_eq!(percentile(&v, 50.0), 2.5);
    assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
    assert_eq!(percentile(&v, 100.0), 4.0);
    assert_eq!(percentile(&[7.0], 90.0), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let one_to_ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&one_to_ten), [2.75, 5.5, 8.25]);
    assert_eq!(relative_iqr(&one_to_ten), 1.0);
    // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
    assert_eq!(
        quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
        [1.25, 3.5, 5.75]
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
}

fn smoke(kind: Kind, seed: u64) -> Bench {
    Bench {
        kind,
        scale: Scale::Smoke,
        seed,
    }
}

fn traces(inputs: &Inputs) -> Vec<Trace> {
    match inputs {
        Inputs::Cells(cells) => cells
            .iter()
            .flat_map(|c| c.workload.traces.clone())
            .collect(),
        Inputs::Chaos { workloads, .. } => {
            workloads.iter().flat_map(|w| w.traces.clone()).collect()
        }
        Inputs::Aso { mixes, .. } => mixes.iter().flat_map(|w| w.traces.clone()).collect(),
    }
}

#[test]
fn seed_zero_keeps_the_experiment_seeds_and_others_derive_new_ones() {
    assert_eq!(derive_seed(42, 0), 42);
    assert_ne!(derive_seed(42, 1), 42);
    assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
    assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
}

#[test]
fn same_seed_same_hashes_and_different_seed_different_inputs() {
    for kind in Kind::ALL {
        let a = smoke(kind, 5).pass(1, false, None);
        let b = smoke(kind, 5).pass(1, false, None);
        let hashes = |p: &ise_simbench::suite::Pass| -> Vec<String> {
            p.cells.iter().map(|c| c.hash.clone()).collect()
        };
        assert_eq!(hashes(&a), hashes(&b), "{}", kind.name());
        assert_ne!(
            traces(&smoke(kind, 5).synthesize()),
            traces(&smoke(kind, 6).synthesize()),
            "{}: seeds 5 and 6 synthesized the same inputs",
            kind.name()
        );
    }
}

#[test]
fn smoke_run_of_every_workload_passes_its_checks() {
    for kind in Kind::ALL {
        let bench = smoke(kind, 0);
        let warm = bench.pass(1, false, None);
        assert_eq!(warm.failed(), 0, "{}: {:?}", kind.name(), warm.messages());
        assert!(!warm.cells.is_empty() && warm.instrs() > 0 && warm.cycles() > 0);
        let untraced = vec![bench.pass(1, false, Some(&warm))];
        let traced = vec![bench.pass(1, true, Some(&warm))];
        let fanned = bench.pass(2, true, Some(&warm));
        for p in untraced.iter().chain(&traced).chain([&fanned]) {
            assert_eq!(p.failed(), 0, "{}: {:?}", kind.name(), p.messages());
        }
        let twins = bench.twins(1, 2);
        let values = per_layer(&traced, &untraced, &fanned, &twins);
        assert_eq!(values.len(), PER_LAYER.len());
        assert!(
            values.iter().all(|v| v.is_finite()),
            "{}: {values:?}",
            kind.name()
        );
        let line = result_line(true, 1, 0, PER_LAYER, &values);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
    }
}
