//! Order statistics over latency samples.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q ≤ 1`) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The `q`-quantile when at least [`MIN_BEYOND`] samples lie beyond it.
pub fn reportable(sorted: &[f64], q: f64) -> Option<f64> {
    (beyond(sorted.len(), q) >= MIN_BEYOND).then(|| quantile(sorted, q))
}

/// Median of unsorted values (upper median on even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Sorts a sample set in place and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        // 100 samples: p90 has exactly 10 beyond, p99 only 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(reportable(&v, 0.9), Some(90.0));
        assert_eq!(reportable(&v, 0.99), None);
        // 99 samples: p90 keeps only 9 beyond, so it is refused too.
        assert_eq!(reportable(&v[..99], 0.9), None);
        // 1000 samples: p99 has 10 beyond.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(reportable(&w, 0.99), Some(990.0));
        assert_eq!(reportable(&w, 0.999), None);
        assert_eq!(reportable(&[], 0.5), None);
    }
}
