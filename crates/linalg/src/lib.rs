//! Minimal dense linear-algebra substrate for the MRSch reproduction.
//!
//! The MRSch paper implements its agent in TensorFlow; this crate provides
//! the small set of dense operations the hand-rolled replacement network
//! stack ([`mrsch-nn`](../mrsch_nn/index.html)) needs:
//!
//! * a row-major [`Matrix`] of `f32` with shape-checked arithmetic,
//! * a layered, packed micro-kernel GEMM (optionally thread-parallel)
//!   in [`gemm`], with panel packing in [`pack`],
//! * fused matrix–vector kernels with a bias/rectifier epilogue and
//!   exact skipping of zero-input rows (the decision-serving hot path)
//!   in [`gemv`],
//! * weight initializers (Xavier/He, Box–Muller normal) in [`init`],
//! * summary statistics helpers in [`stats`].
//!
//! The crate is deliberately tiny and dependency-light: everything is
//! `f32`, row-major, and owned `Vec<f32>` storage. The GEMM is a
//! BLIS-style layered design — cache-aligned A/B panel packing, an
//! MR×NR register-tiled FMA micro-kernel, runtime AVX2+FMA dispatch —
//! and keeps results bit-reproducible: every output element is one
//! fused-multiply-add chain in increasing-k order, identical across
//! kernel paths, [`ParallelPolicy`] variants, and thread counts
//! (parallelism splits output rows, never reduction dimensions). See
//! the [`gemm`] module docs for the full determinism contract.

pub mod gemm;
pub mod gemv;
pub mod init;
pub mod matrix;
pub mod pack;
pub mod stats;

pub use gemm::{
    default_policy, kernel_isa, matmul, matmul_a_bt, matmul_a_bt_into, matmul_a_bt_with,
    matmul_at_b, matmul_at_b_with, matmul_into, matmul_with, set_default_policy, ParallelPolicy,
};
pub use gemv::{gemv, gemv_at, gemv_at_into, gemv_into, Epilogue, ZeroRows};
pub use matrix::Matrix;

/// Absolute tolerance used by the crate's own tests when comparing floats.
pub const TEST_EPS: f32 = 1e-4;
