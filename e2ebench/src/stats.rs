//! Order statistics used by the harness and by `--check`.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending `sorted` slice: the smallest
/// sample with at least `p` percent of the samples at or below it. With
/// 200 samples `p = 95` is the 190th, leaving ten samples beyond it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The three quartiles of `values`, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so that
/// `--check` reports the spread an outside driver would compute.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the
/// median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&v, 50), 100);
        assert_eq!(percentile(&v, 95), 190);
        assert_eq!(percentile(&v, 100), 200);
        assert_eq!(percentile(&[7], 95), 7);
        // Ten samples lie beyond p95 of 200.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 95)).count(), 10);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
