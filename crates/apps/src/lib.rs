//! HPC workloads for the ECOSCALE reproduction.
//!
//! The paper motivates its architecture with the application classes its
//! related work accelerates: dense linear algebra, stencils, N-body,
//! Monte-Carlo financial simulation (Maxeler \[18\]), CART decision-tree
//! data mining (Convey HC-1 \[17\]), and hybrid MPI+PGAS out-of-core
//! sorting \[5\]. Each module here provides:
//!
//! * a pure-Rust **reference implementation** (the ground truth),
//! * the same computation as an **HLS kernel** in the textual kernel
//!   language (so it can be synthesized, placed, and "run in hardware"
//!   by the simulation with bit-identical results),
//! * a deterministic **input generator**, and
//! * `hints` for the HLS trip-count resolution.
//!
//! The test-suite of every module checks `executed kernel ==
//! reference`, which is exactly the property that makes the simulated
//! accelerator results trustworthy.

pub mod blackscholes;
pub mod cart;
pub mod fir;
pub mod gemm;
pub mod mix;
pub mod montecarlo;
pub mod nbody;
pub mod sort;
pub mod spmv;
pub mod stencil;

use std::collections::HashMap;

/// Convenience: builds an HLS scalar-hint map from pairs.
///
/// # Example
///
/// ```
/// let h = ecoscale_apps::hints(&[("n", 1024.0)]);
/// assert_eq!(h["n"], 1024.0);
/// ```
pub fn hints(pairs: &[(&str, f64)]) -> HashMap<String, f64> {
    pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn hints_builds_map() {
        let h = super::hints(&[("a", 1.0), ("b", 2.0)]);
        assert_eq!(h.len(), 2);
        assert_eq!(h["b"], 2.0);
    }
}
