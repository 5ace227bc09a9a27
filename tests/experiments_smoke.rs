//! Smoke tests over the experiment drivers (quick scales).

use imprecise_store_exceptions::sim::experiments::{
    fig1, fig2, fig5, fig6, table3, table6, Fig6Scale, Table3Scale,
};

#[test]
fn table3_rows_track_paper_shape() {
    let rows = table3(&Table3Scale::quick(), 4, true);
    assert_eq!(rows.len(), 8);
    for r in &rows {
        // Mix matches the spec within tolerance.
        assert!(
            (r.measured_mix.store_pct - r.spec.store_pct).abs() < 2.0,
            "{}: mix drifted: {}",
            r.spec.name,
            r.measured_mix
        );
        // WC never loses to SC.
        assert!(r.wc_speedup >= 0.95, "{}", r.spec.name);
        // Some budget reached WC performance on the baseline system.
        assert!(
            r.state_kb[0].is_some(),
            "{}: no budget reached WC",
            r.spec.name
        );
    }
    // Cross-row shape: BC (store-heavy, bursty) gains the most among
    // GAP; SSSP the least.
    let get = |n: &str| rows.iter().find(|r| r.spec.name == n).unwrap().wc_speedup;
    assert!(get("BC") > get("BFS"));
    assert!(get("BFS") > get("SSSP"));
}

#[test]
fn fig5_batching_trend() {
    let rows = fig5(&[4, 256, 1024], 4, true);
    assert!(rows
        .windows(2)
        .all(|w| w[0].batch_factor <= w[1].batch_factor + 0.2));
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!(last.total_per_store() < first.total_per_store());
    // µarch remains the smallest slice everywhere (Fig. 5's observation).
    for r in &rows {
        assert!(r.uarch_per_store <= r.other_per_store, "{r:?}");
    }
}

#[test]
fn fig6_relative_performance_holds_up() {
    let rows = fig6(&Fig6Scale::quick(), 4, true);
    let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, vec!["BFS", "SSSP", "BC", "Silo", "Masstree"]);
    for r in &rows {
        assert!(
            r.relative_performance() > 0.88,
            "{}: {:.3}",
            r.name,
            r.relative_performance()
        );
    }
}

#[test]
fn table6_fig1_fig2_verdicts() {
    let summary = table6(4);
    assert!(summary.all_passed());
    assert!(summary.cases() >= 150, "cases {}", summary.cases());

    let f1 = fig1();
    assert!(f1.reports.iter().all(|r| r.passed()));

    let f2 = fig2();
    assert!(f2.split_stream_violates);
    assert!(f2.same_stream_clean);
}
