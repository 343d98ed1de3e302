//! Order statistics over small samples: the only summaries the benchmark
//! reports (no means over timings, no normalisation).

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the spreads printed here
/// are the ones the acceptance rule computes. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median (0 when the
/// median is 0): the run-to-run spread the acceptance rule bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of an unsorted integer sample;
/// 0 for an empty one. The same rule `pipeline::service` uses for its
/// class reports, so the numbers line up.
pub fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let (q1, q3) = quartiles(&[4.0, 3.0, 2.0, 1.0]);
        assert!((q1 - 1.25).abs() < 1e-12 && (q3 - 3.75).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], which
        // extrapolates; the sample's own range is the honest answer here.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn iqr_share_of_constant_is_zero() {
        assert_eq!(iqr_share(&[2.0; 10]), 0.0);
        assert_eq!(iqr_share(&[0.0; 4]), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.9), 9);
        assert_eq!(percentile(&v, 0.99), 10);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        // Four samples: p90 is the slowest one.
        assert_eq!(percentile(&[10, 40, 20, 30], 0.9), 40);
    }
}
