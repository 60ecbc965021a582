//! Property test: the fused batch-1 gemv kernels are **bit-identical**
//! to the naive triple-loop reference across random `K`/`N` (including
//! the `K = 0`, `K = 1`, `N = 1` edges and widths off the 64-column
//! register block), on both ISA instantiations (hardware-dispatched and
//! forced-portable), with or without the fused bias / bias+ReLU /
//! bias+leaky-ReLU epilogue, and with or without skipping zero-input
//! rows — over inputs that are 0–90% exact zeros of either sign.
//!
//! This extends the GEMM determinism contract to the serving hot path:
//! routing `matmul` through `gemv` when `m == 1` must never change a
//! single bit, fusing the dense-layer epilogue must match the unfused
//! `add_row_broadcast` + rectifier sequence exactly, and skipping a
//! zero-input row must be invisible whenever the weights are finite.

use mrsch_linalg::gemv::{
    gemv_at_into, gemv_at_portable_into, gemv_into, gemv_portable_into, Epilogue, ZeroRows,
    REGISTER_BLOCK_MAX_BYTES,
};
use mrsch_linalg::{gemm, Matrix};
use proptest::prelude::*;

/// Deterministic matrix fill from a seed (exact zeros sprinkled in).
fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = ((state >> 33) as f32 / (1u64 << 28) as f32) - 16.0;
        if (state >> 21) & 0xF == 0 {
            0.0
        } else {
            v
        }
    };
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
}

/// An input row whose entries are exact zeros with probability
/// `zero_pct` percent, half of them `-0.0`; the rest as [`lcg_matrix`].
fn sparse_input(k: usize, seed: u64, zero_pct: u64) -> Matrix {
    let mut x = lcg_matrix(1, k, seed);
    let mut state = seed ^ 0x5EED_0000_2E60;
    for v in x.as_mut_slice() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let draw = (state >> 33) % 200;
        if draw < 2 * zero_pct {
            *v = if draw < zero_pct { 0.0 } else { -0.0 };
        }
    }
    x
}

fn assert_bits(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{}: length", what);
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{}: element {} differs: {} vs {}",
            what,
            i,
            x,
            y
        );
    }
    Ok(())
}

/// The rectifier an epilogue fuses, as its unfused scalar op.
#[derive(Clone, Copy, Debug)]
enum Rect {
    None,
    Relu,
    Leaky(f32),
}

impl Rect {
    fn epilogue(self, bias: &[f32]) -> Epilogue<'_> {
        match self {
            Rect::None => Epilogue::Bias(bias),
            Rect::Relu => Epilogue::BiasRelu(bias),
            Rect::Leaky(a) => Epilogue::BiasLeakyRelu(bias, a),
        }
    }
}

const RECTS: [Rect; 3] = [Rect::None, Rect::Relu, Rect::Leaky(0.2)];

/// The unfused specification of each epilogue, applied to the reference
/// contraction result (the leaky branch is `Activation::LeakyRelu`'s).
fn apply_reference_epilogue(y: &mut Matrix, bias: &Matrix, rect: Rect) {
    y.add_row_broadcast(bias);
    match rect {
        Rect::None => {}
        Rect::Relu => y.map_inplace(|v| v.max(0.0)),
        Rect::Leaky(a) => y.map_inplace(|v| if v >= 0.0 { v } else { a * v }),
    }
}

/// `y = x · B` through both ISA paths and both row policies, against
/// `want`.
fn check_both_paths(
    x: &Matrix,
    b: &Matrix,
    ep: Epilogue<'_>,
    want: &[f32],
    what: &str,
) -> Result<(), TestCaseError> {
    let mut got = vec![0.0f32; b.cols()];
    for zero_rows in [ZeroRows::Stream, ZeroRows::Skip] {
        gemv_into(&mut got, x.as_slice(), b, ep, zero_rows);
        assert_bits(&got, want, &format!("{what} {zero_rows:?}"))?;
        gemv_portable_into(&mut got, x.as_slice(), b, ep, zero_rows);
        assert_bits(&got, want, &format!("{what} portable {zero_rows:?}"))?;
    }
    Ok(())
}

/// One (k, n, seed, zero share) case: both kernels, both ISA paths, all
/// epilogues, against the naive reference.
fn check_gemv(k: usize, n: usize, seed: u64, zero_pct: u64) -> Result<(), TestCaseError> {
    let x = sparse_input(k, seed, zero_pct);
    let b = lcg_matrix(k, n, seed ^ 0x9E37);
    let bt = lcg_matrix(n, k, seed ^ 0x51DE);
    let bias = lcg_matrix(1, n, seed ^ 0xB1A5);

    // y = x · B, no epilogue, vs reference.
    let want = gemm::reference::matmul(&x, &b);
    check_both_paths(&x, &b, Epilogue::None, want.as_slice(), &format!("gemv {k}x{n}"))?;
    let mut got = vec![0.0f32; n];

    // y = x · Bᵀ likewise.
    let want_at = gemm::reference::matmul_a_bt(&x, &bt);
    gemv_at_into(&mut got, x.as_slice(), &bt, Epilogue::None);
    assert_bits(&got, want_at.as_slice(), &format!("gemv_at {k}x{n}"))?;
    gemv_at_portable_into(&mut got, x.as_slice(), &bt, Epilogue::None);
    assert_bits(&got, want_at.as_slice(), &format!("gemv_at portable {k}x{n}"))?;

    // Fused epilogues vs the unfused op sequence, both ISA paths.
    for rect in RECTS {
        let ep = rect.epilogue(bias.as_slice());
        let mut want_ep = want.clone();
        apply_reference_epilogue(&mut want_ep, &bias, rect);
        check_both_paths(&x, &b, ep, want_ep.as_slice(), &format!("gemv {rect:?} {k}x{n}"))?;

        let mut want_at_ep = want_at.clone();
        apply_reference_epilogue(&mut want_at_ep, &bias, rect);
        gemv_at_into(&mut got, x.as_slice(), &bt, ep);
        assert_bits(&got, want_at_ep.as_slice(), &format!("gemv_at epilogue {rect:?} {k}x{n}"))?;
        gemv_at_portable_into(&mut got, x.as_slice(), &bt, ep);
        assert_bits(
            &got,
            want_at_ep.as_slice(),
            &format!("gemv_at portable epilogue {rect:?} {k}x{n}"),
        )?;
    }

    // The matmul routing itself (m == 1 dispatches into gemv).
    let routed = mrsch_linalg::matmul(&x, &b);
    assert_bits(routed.as_slice(), want.as_slice(), &format!("matmul routing {k}x{n}"))?;
    let routed_at = mrsch_linalg::matmul_a_bt(&x, &bt);
    assert_bits(routed_at.as_slice(), want_at.as_slice(), &format!("a_bt routing {k}x{n}"))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random K/N straddling the 64-column register block, the 4-row
    /// chunking of the transposed kernel and the 256-row gather pass,
    /// with 0–90% zero inputs.
    #[test]
    fn random_kn_bit_identical(
        k in 0usize..300,
        n in 1usize..200,
        seed in 0u64..1_000_000,
        zero_pct in 0u64..=90,
    ) {
        check_gemv(k, n, seed, zero_pct)?;
    }

    /// Degenerate extents pinned: empty reduction, single-element
    /// reduction, single output column.
    #[test]
    fn edge_kn_bit_identical(
        k in 0usize..48,
        n in 1usize..48,
        seed in 0u64..1_000_000,
        zero_pct in 0u64..=90,
    ) {
        check_gemv(0, n, seed, zero_pct)?;  // K = 0
        check_gemv(1, n, seed, zero_pct)?;  // K = 1
        check_gemv(k, 1, seed, zero_pct)?;  // N = 1
        check_gemv(1, 1, seed, zero_pct)?;  // scalar
    }
}

/// Operands on both sides of the register-block size limit (the larger
/// one takes the axpy streaming order), with every zero share.
#[test]
fn both_loop_orders_bit_identical_on_sparse_inputs() {
    let (k, n) = (616, 200);
    assert!(k * n * 4 <= REGISTER_BLOCK_MAX_BYTES);
    let big_k = REGISTER_BLOCK_MAX_BYTES / (4 * n) + 3;
    for zero_pct in [0, 50, 90] {
        check_gemv(k, n, 7, zero_pct).unwrap();
        check_gemv(big_k, n, 8, zero_pct).unwrap();
    }
}

/// A chain can reach `-0.0` when a nonzero product underflows; the row
/// skipped after it would have turned it back into `+0.0`. The skipping
/// kernel must still return the reference's `+0.0`.
#[test]
fn underflow_to_negative_zero_keeps_reference_sign() {
    let x = Matrix::row_vector(vec![-1e-30, 0.0]);
    let b = Matrix::from_vec(2, 1, vec![1e-30, 1.0]);
    let want = gemm::reference::matmul(&x, &b);
    assert_eq!(want.as_slice()[0].to_bits(), 0.0f32.to_bits());
    check_both_paths(&x, &b, Epilogue::None, want.as_slice(), "underflow").unwrap();
}

/// `0 · inf` and `0 · NaN` are NaN: a non-finite weight in a row whose
/// input is zero must reach the output, so the finite-weights guard
/// turns skipping off and the result keeps the reference's NaN bits.
#[test]
fn non_finite_weight_in_zero_input_row_matches_reference_nan() {
    for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
        let x = sparse_input(40, 3, 50);
        let zero_row = x.as_slice().iter().position(|&v| v == 0.0).expect("a zero input");
        let mut b = lcg_matrix(40, 70, 4);
        b.set(zero_row, 5, bad);
        let guard = ZeroRows::when_finite(&b);
        assert_eq!(guard, ZeroRows::Stream);
        let want = gemm::reference::matmul(&x, &b);
        assert!(want.as_slice()[5].is_nan());
        let mut got = vec![0.0f32; 70];
        gemv_into(&mut got, x.as_slice(), &b, Epilogue::None, guard);
        assert_bits(&got, want.as_slice(), "non-finite").unwrap();
        gemv_portable_into(&mut got, x.as_slice(), &b, Epilogue::None, guard);
        assert_bits(&got, want.as_slice(), "non-finite portable").unwrap();
    }
    assert_eq!(ZeroRows::when_finite(&lcg_matrix(4, 4, 5)), ZeroRows::Skip);
}

#[test]
fn k_zero_is_exact_positive_zero() {
    let x = Matrix::zeros(1, 0);
    let b = Matrix::zeros(0, 7);
    for zero_rows in [ZeroRows::Stream, ZeroRows::Skip] {
        let mut y = vec![1.0f32; 7];
        gemv_into(&mut y, x.as_slice(), &b, Epilogue::None, zero_rows);
        for &v in &y {
            assert_eq!(v.to_bits(), 0.0f32.to_bits(), "K=0 must give +0.0, got {v}");
        }
    }
    let bt = Matrix::zeros(7, 0);
    let mut y = vec![1.0f32; 7];
    gemv_at_into(&mut y, x.as_slice(), &bt, Epilogue::None);
    for &v in &y {
        assert_eq!(v.to_bits(), 0.0f32.to_bits(), "K=0 must give +0.0, got {v}");
    }
}
