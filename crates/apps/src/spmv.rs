//! Sparse matrix–vector multiply (CSR).
//!
//! The irregular-access counterpoint to GEMM: its inner trip count is
//! data-dependent (`rowptr[i+1] - rowptr[i]`), so the HLS estimator
//! cannot resolve it and the function stays **software-only** — the
//! realistic outcome for irregular kernels, and a useful negative case
//! for the runtime's device selection.

use ecoscale_hls::KernelArgs;
use ecoscale_sim::SimRng;

/// CSR SpMV as an HLS kernel. The executor runs it fine; the
/// estimator rejects it (unresolvable trip counts), as intended.
pub const KERNEL: &str = "kernel spmv(in float vals[], in float cols[], in float rowptr[], in float x[], out float y[], int rows) {
    for (i in 0 .. rows) {
        acc = 0.0;
        for (k in rowptr[i] .. rowptr[i + 1]) {
            acc = acc + vals[k] * x[cols[k]];
        }
        y[i] = acc;
    }
}";

/// A CSR matrix with f64-encoded indices (the kernel language is
/// mono-typed).
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    /// Non-zero values.
    pub vals: Vec<f64>,
    /// Column index of each value.
    pub cols: Vec<f64>,
    /// Row start offsets (`rows + 1` entries).
    pub rowptr: Vec<f64>,
    /// Number of rows/columns (square).
    pub n: usize,
}

impl CsrMatrix {
    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }
}

/// Generates a random sparse matrix with ~`nnz_per_row` entries per row.
pub fn generate(n: usize, nnz_per_row: usize, seed: u64) -> CsrMatrix {
    let mut rng = SimRng::seed_from(seed);
    let mut vals = Vec::new();
    let mut cols = Vec::new();
    let mut rowptr = vec![0.0];
    for _ in 0..n {
        let count = rng.gen_range_usize(1, 2 * nnz_per_row.max(1) + 1).min(n);
        let mut picked: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut picked);
        let mut row_cols: Vec<usize> = picked[..count].to_vec();
        row_cols.sort_unstable();
        for c in row_cols {
            vals.push(rng.gen_range_f64(-1.0, 1.0));
            cols.push(c as f64);
        }
        rowptr.push(vals.len() as f64);
    }
    CsrMatrix {
        vals,
        cols,
        rowptr,
        n,
    }
}

/// Generates a dense vector.
pub fn generate_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect()
}

/// Reference SpMV.
pub fn reference(m: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    assert_eq!(x.len(), m.n);
    let mut y = vec![0.0; m.n];
    for (i, yi) in y.iter_mut().enumerate() {
        let start = m.rowptr[i] as usize;
        let end = m.rowptr[i + 1] as usize;
        for k in start..end {
            *yi += m.vals[k] * x[m.cols[k] as usize];
        }
    }
    y
}

/// Binds kernel arguments.
pub fn bind_args(m: &CsrMatrix, x: &[f64]) -> KernelArgs {
    let mut args = KernelArgs::new();
    args.bind_array("vals", m.vals.clone())
        .bind_array("cols", m.cols.clone())
        .bind_array("rowptr", m.rowptr.clone())
        .bind_array("x", x.to_vec())
        .bind_array("y", vec![0.0; m.n])
        .bind_scalar("rows", m.n as f64);
    args
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecoscale_hls::{estimate::estimate, parse_kernel, EstimateError, HlsDirectives, OpCosts};
    use std::collections::HashMap;

    #[test]
    fn kernel_matches_reference() {
        let m = generate(32, 4, 3);
        let x = generate_vector(32, 4);
        let k = parse_kernel(KERNEL).unwrap();
        let mut args = bind_args(&m, &x);
        args.run(&k).unwrap();
        let expect = reference(&m, &x);
        for (g, r) in args.array("y").unwrap().iter().zip(&expect) {
            assert!((g - r).abs() < 1e-9);
        }
    }

    #[test]
    fn estimator_rejects_irregular_kernel() {
        let k = parse_kernel(KERNEL).unwrap();
        let err = estimate(
            &k,
            &HashMap::from([("rows".to_owned(), 32.0)]),
            HlsDirectives::default(),
            &OpCosts::default(),
        )
        .unwrap_err();
        assert_eq!(err, EstimateError::UnresolvedTripCount);
    }

    #[test]
    fn csr_structure_valid() {
        let m = generate(50, 5, 9);
        assert_eq!(m.rowptr.len(), 51);
        assert_eq!(m.rowptr[0], 0.0);
        assert_eq!(*m.rowptr.last().unwrap() as usize, m.nnz());
        // rowptr monotone
        assert!(m.rowptr.windows(2).all(|w| w[0] <= w[1]));
        // cols in range
        assert!(m.cols.iter().all(|&c| (c as usize) < m.n));
    }

    #[test]
    fn zero_vector_gives_zero_result() {
        let m = generate(16, 3, 1);
        let y = reference(&m, &[0.0; 16]);
        assert!(y.iter().all(|&v| v == 0.0));
    }
}
