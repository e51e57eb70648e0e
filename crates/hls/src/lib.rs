//! The ECOSCALE high-level synthesis tool (FASTCUDA lineage, §4.3).
//!
//! The paper's HLS flow takes non-hardware-specific OpenCL-style kernels
//! and, "providing a way to specify performance and area constraints",
//! automatically explores "pipelining, loop unrolling, as well as data
//! storage and data-path partitioning and duplication" to produce an
//! accelerator module library — with *no hardware design experience
//! required from the programmer*. This crate implements that flow:
//!
//! * [`ir`] — the kernel intermediate representation (loops, array
//!   loads/stores, scalar dataflow),
//! * [`parser`] — a compact OpenCL-like textual kernel language,
//! * [`exec`] — kernel execution: each kernel is lowered once into a
//!   slot-resolved register program, so the *same IR* that is costed is
//!   also executed and accelerated results are bit-identical to software
//!   results (a property the test-suite leans on),
//! * [`transform`] — constant folding and algebraic simplification,
//! * [`analysis`] — trip counts, operation censuses, loop-carried
//!   dependence detection,
//! * [`estimate`] — area (CLB/BRAM/DSP), clock, initiation interval and
//!   latency estimation for a kernel under [`HlsDirectives`],
//! * [`dse`] — automated design-space exploration: enumerate directive
//!   combinations, prune to the Pareto front, pick the best implementation
//!   under a resource budget, and emit [`ecoscale_fpga::AcceleratorModule`]s.

pub mod analysis;
pub mod dse;
pub mod estimate;
pub mod exec;
pub mod ir;
pub mod parser;
pub mod transform;

pub use analysis::{KernelAnalysis, LoopInfo, OpCensus};
pub use dse::{DesignPoint, Explorer, ModuleLibrary};
pub use estimate::{DesignEstimate, EstimateError, HlsDirectives, OpCosts};
pub use exec::{ExecKernelError, KernelArgs, Value};
pub use ir::{BinOp, Expr, Kernel, Param, ParamKind, Stmt, UnOp};
pub use parser::{parse_kernel, ParseKernelError};
pub use transform::{fold_expr, fold_kernel};
