//! Zipf sampling from a precomputed CDF table.
//!
//! `SimRng::gen_zipf` rebuilds the normaliser and scans up to `n`
//! `powf` terms on every draw, which at `n = 4096` costs far more than
//! the operation the draw feeds. The benchmark draws from the same
//! distribution — rank `k` (0-based) with weight `1 / (k + 1)^s` — by
//! binary search over a table built once.

use ecoscale_sim::SimRng;

/// Cumulative distribution of Zipf(`n`, `s`) over ranks `0..n`.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
}

impl ZipfTable {
    /// Builds the table for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative or not finite.
    pub fn new(n: usize, s: f64) -> ZipfTable {
        assert!(n > 0, "zipf needs a non-empty support");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be >= 0");
        let mut cdf: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w;
            *w = acc;
        }
        for c in &mut cdf {
            *c /= acc;
        }
        cdf[n - 1] = 1.0;
        ZipfTable { cdf }
    }

    /// Exact probability of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.gen_unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Empirical frequencies of `draws` samples from `draw`.
    fn histogram(n: usize, draws: usize, mut draw: impl FnMut() -> usize) -> Vec<f64> {
        let mut h = vec![0.0; n];
        for _ in 0..draws {
            h[draw()] += 1.0;
        }
        h.iter().map(|c| c / draws as f64).collect()
    }

    #[test]
    fn table_matches_gen_zipf_distribution() {
        for &(n, s) in &[(4usize, 0.8), (64, 1.1), (4096, 0.9)] {
            let table = ZipfTable::new(n, s);
            let draws = 60_000;
            let mut a = SimRng::seed_from(11);
            let mut b = SimRng::seed_from(12);
            let from_table = histogram(n, draws, || table.sample(&mut a));
            let from_rng = histogram(n, draws, || b.gen_zipf(n, s));
            // Both empirical pmfs sit within sampling noise of the exact
            // one: a few standard errors of a binomial proportion.
            for k in 0..n {
                let p = table.pmf(k);
                let tol = 5.0 * (p * (1.0 - p) / draws as f64).sqrt() + 1e-4;
                assert!((from_table[k] - p).abs() <= tol, "table n={n} k={k}");
                assert!((from_rng[k] - p).abs() <= tol, "gen_zipf n={n} k={k}");
            }
        }
    }

    #[test]
    fn pmf_follows_the_power_law() {
        let t = ZipfTable::new(4, 0.8);
        let total: f64 = (0..4).map(|k| t.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let ratio = t.pmf(0) / t.pmf(3);
        assert!((ratio - 4f64.powf(0.8)).abs() < 1e-9);
    }
}
