//! Order statistics and hashing shared by the benchmark's metrics and
//! its correctness oracle.

/// Median of `values` (mean of the two middle elements for even
/// lengths).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) computes them.
///
/// # Panics
///
/// Panics if `values` has fewer than two elements.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let v = sorted(values);
    let ld = v.len();
    let m = ld + 1;
    let n = 4;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median — the spread measure
/// the benchmark's bounds are stated in.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between the two nearest ranks.
///
/// # Panics
///
/// Panics if `values` is empty or `p` is outside `0..=100`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let v = sorted(values);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// FNV-1a over `bytes`, rendered `fnv1a:<16 hex digits>` (the format
/// of the registry hashes in the checked-in `BENCH_*.json` files).
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("fnv1a:{:016x}", ise_types::persist::fnv1a(bytes))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}
