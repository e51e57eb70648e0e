//! Order statistics for the benchmark's timings.

/// `xs` sorted ascending (NaN-free input).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of ascending `sorted`:
/// the smallest sample with at least `p`% of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank percentile `p` of ascending `sorted` when ten samples
/// lie beyond it, and otherwise the highest percentile that has ten
/// beyond it, but never one below the median. Returns the value and the
/// percentile it is.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(sorted: &[f64], p: f64) -> (f64, f64) {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize)
        .min(n.saturating_sub(10))
        .max(n.div_ceil(2))
        .clamp(1, n);
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0), (990.0, 99.0));
        assert!(tail(&v[..999], 99.0).1 < 99.0);
        // 20 samples: rank 10, the median, is the highest with ten beyond
        assert_eq!(tail(&v[..20], 99.0), (10.0, 50.0));
        assert_eq!(tail(&v[..40], 99.0), (30.0, 75.0));
        // fewer than 20: never below the median
        assert_eq!(tail(&v[..5], 99.0), (3.0, 60.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        // exactly ten samples (991..=1000) lie beyond the p99
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 99.0)).count(), 10);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
