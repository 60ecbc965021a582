//! Fused batch-1 matrix–vector kernels: the decision-serving hot path.
//!
//! A one-row GEMM cannot amortize panel packing — the packed path would
//! pad the single row to an `MR`-row panel (wasting 5/6 of the
//! micro-kernel FLOPs) and stream the whole B operand through a packing
//! pass first (tripling memory traffic on a shape that is already
//! memory-bound). These kernels skip packing entirely:
//!
//! * [`gemv_into`]    — `y = x · B`   (B stored `k x n`). Two loop
//!   orders, chosen on the byte size of B:
//!   - **register blocks** (B up to [`REGISTER_BLOCK_MAX_BYTES`], e.g.
//!     a DFP layer that stays cache-resident from one decision to the
//!     next): 64 output columns live in registers while the
//!     contraction runs down the rows of B, so `y` is loaded and stored
//!     once per pass instead of once per row;
//!   - **axpy streaming** (larger B, which comes from memory on every
//!     call): each row of B is read once at unit stride and accumulated
//!     into the L1-resident output row, so the prefetcher sees one
//!     sequential stream.
//! * [`gemv_at_into`] — `y = x · Bᵀ`  (B stored `n x k`): per-output
//!   dot-product chains, four rows in flight for FMA-latency overlap.
//!
//! Both take a fusable [`Epilogue`] (bias add, bias + ReLU, bias +
//! leaky ReLU) so a dense layer's inference is one pass over the
//! weights with no intermediate write-back.
//!
//! # Determinism contract
//!
//! Same as [`crate::gemm`]: every output element is a single
//! `f32::mul_add` chain over `k` in increasing order starting from
//! `+0.0`. Vectorization happens across output columns `j` only — the
//! reduction is never split or reassociated — so results are
//! bit-identical to [`crate::gemm::reference`], to the direct and packed
//! GEMM paths, and across the AVX2+FMA and portable instantiations. The
//! fused bias is the same single `+` the unfused
//! `Matrix::add_row_broadcast` performs, and the fused rectifiers are
//! exactly `Activation::Relu`'s `x.max(0.0)` and
//! `Activation::LeakyRelu`'s `if x >= 0.0 { x } else { a * x }` — one
//! rounding either way.
//!
//! # Zero-input rows
//!
//! With [`ZeroRows::Skip`], [`gemv_into`] does not read row `k` of B
//! when `x[k]` is `±0` — about half of the DFP state encoder's inputs.
//! This stays bit-identical to the full chain whenever every element of
//! B is finite:
//!
//! * a skipped term is `acc + x[k]·B[k][j]` with an exact `±0` product,
//!   which returns `acc` unchanged unless `acc` is itself a zero. So
//!   the skipping chain and the full chain either hold the same bits or
//!   both hold a zero, possibly of opposite sign (a chain reaches `-0.0`
//!   only when a nonzero product underflows to it);
//! * the next nonzero product overwrites such a zero identically on
//!   both chains, so a **nonzero** result of the skipping chain is the
//!   full chain's result. A zero result is recomputed over every row,
//!   which settles its sign.
//!
//! A non-finite weight breaks the first step (`0 · inf` is NaN, which
//! must reach the output), so skipping is allowed only under the
//! finite-weights guard: callers pass [`ZeroRows::when_finite`] (or a
//! cached copy of it, as `mrsch_nn::layer::Dense` does), and with
//! [`ZeroRows::Stream`] every row is read.

use crate::matrix::Matrix;

/// Operation fused onto the kernel's output before write-back.
#[derive(Clone, Copy, Debug)]
pub enum Epilogue<'a> {
    /// Plain contraction: `y = x · op(B)`.
    None,
    /// `y = x · op(B) + bias` — bit-identical to the separate
    /// `add_row_broadcast` (one `+` either way).
    Bias(&'a [f32]),
    /// `y = max(x · op(B) + bias, 0)` — the ReLU is exactly
    /// `Activation::Relu`'s `x.max(0.0)`.
    BiasRelu(&'a [f32]),
    /// `y = leaky(x · op(B) + bias)` with slope `a` — exactly
    /// `Activation::LeakyRelu(a)`'s `if v >= 0.0 { v } else { a * v }`.
    BiasLeakyRelu(&'a [f32], f32),
}

/// Apply the epilogue to the full accumulator row.
#[inline(always)]
fn apply_epilogue(acc: &mut [f32], epilogue: Epilogue<'_>) {
    match epilogue {
        Epilogue::None => {}
        Epilogue::Bias(bias) => {
            for (a, &bv) in acc.iter_mut().zip(bias) {
                *a += bv;
            }
        }
        Epilogue::BiasRelu(bias) => {
            for (a, &bv) in acc.iter_mut().zip(bias) {
                *a = (*a + bv).max(0.0);
            }
        }
        Epilogue::BiasLeakyRelu(bias, slope) => {
            for (a, &bv) in acc.iter_mut().zip(bias) {
                let v = *a + bv;
                *a = if v >= 0.0 { v } else { slope * v };
            }
        }
    }
}

/// Whether [`gemv_into`] may skip the rows of B whose input is `±0`
/// (see the module docs for why that is exact only for finite B).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZeroRows {
    /// Read every row: exact for any B, inf and NaN included.
    Stream,
    /// Skip rows whose input is `±0`. Bit-identical to [`Self::Stream`]
    /// only when every element of B is finite; obtain it through
    /// [`Self::when_finite`].
    Skip,
}

impl ZeroRows {
    /// [`ZeroRows::Skip`] when every element of `b` is finite, else
    /// [`ZeroRows::Stream`]. Scans `b` once; callers that contract the
    /// same operand repeatedly cache the answer.
    pub fn when_finite(b: &Matrix) -> Self {
        if b.all_finite() {
            ZeroRows::Skip
        } else {
            ZeroRows::Stream
        }
    }
}

/// Largest B, in bytes, that [`gemv_into`] contracts in register
/// blocks. The blocked order reads each row of B in pieces of up to
/// 256 bytes, one column block at a time: that wins while B stays in
/// L2 between calls, but a larger B comes from memory every call, and
/// there the single sequential stream of the axpy order keeps the
/// prefetcher ahead.
pub const REGISTER_BLOCK_MAX_BYTES: usize = 1 << 20;

/// Output columns per register block: eight 8-lane AVX2 accumulators.
const NB: usize = 64;

/// Rows of B gathered per pass; bounds the on-stack row-index list.
const KC: usize = 256;

// ---------------------------------------------------------------------------
// y = x · B  (B stored k x n)
// ---------------------------------------------------------------------------

/// `y = x · B` with a fused epilogue; `B` is `k x n`, `x` has length
/// `k`, `y` length `n`. Dispatches to the widest kernel the host
/// supports (see [`crate::kernel_isa`]); both instantiations are
/// bit-identical.
///
/// # Panics
/// Panics when `x.len() != B.rows()` or `y.len() != B.cols()`, or when a
/// bias epilogue is shorter than `y`.
pub fn gemv_into(
    y: &mut [f32],
    x: &[f32],
    b: &Matrix,
    epilogue: Epilogue<'_>,
    zero_rows: ZeroRows,
) {
    assert_eq!(x.len(), b.rows(), "gemv: x length != B rows");
    assert_eq!(y.len(), b.cols(), "gemv: y length != B cols");
    assert_epilogue_len(y.len(), epilogue);
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`.
        unsafe { gemv_fma(y, x, b, epilogue, zero_rows) };
        return;
    }
    gemv_body(y, x, b, epilogue, zero_rows);
}

/// The portable instantiation of [`gemv_into`], callable on any host —
/// exists so bit-identity tests can compare both ISA paths on one
/// machine.
pub fn gemv_portable_into(
    y: &mut [f32],
    x: &[f32],
    b: &Matrix,
    epilogue: Epilogue<'_>,
    zero_rows: ZeroRows,
) {
    assert_eq!(x.len(), b.rows(), "gemv: x length != B rows");
    assert_eq!(y.len(), b.cols(), "gemv: y length != B cols");
    assert_epilogue_len(y.len(), epilogue);
    gemv_body(y, x, b, epilogue, zero_rows);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemv_fma(
    y: &mut [f32],
    x: &[f32],
    b: &Matrix,
    epilogue: Epilogue<'_>,
    zero_rows: ZeroRows,
) {
    gemv_body(y, x, b, epilogue, zero_rows);
}

/// The shared kernel body. Rows of B are taken in passes of up to
/// [`KC`]: a pass first lists the rows it contracts (all of them, or
/// those with a nonzero input under [`ZeroRows::Skip`]) without a
/// branch, then runs them in increasing order through register blocks
/// (narrowing from [`NB`] columns so the last columns are register
/// chains too) or through the axpy row stream. A pass reloads each
/// block from `y`, which continues every chain exactly where the
/// previous pass left it.
#[inline(always)]
fn gemv_body(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>, zero_rows: ZeroRows) {
    let n = b.cols();
    let bs = b.as_slice();
    let skip = zero_rows == ZeroRows::Skip;
    let blocked = std::mem::size_of_val(bs) <= REGISTER_BLOCK_MAX_BYTES;
    y.fill(0.0);
    let mut live_rows = [0usize; KC];
    let mut skipped = false;
    for (pass, xs) in x.chunks(KC).enumerate() {
        let mut live = 0;
        for (i, &xv) in xs.iter().enumerate() {
            live_rows[live] = pass * KC + i;
            live += usize::from(!(skip && xv == 0.0));
        }
        skipped |= live < xs.len();
        let rows = &live_rows[..live];
        if blocked {
            let mut j0 = 0;
            while j0 + NB <= n {
                j0 = register_block::<NB>(y, x, bs, j0, rows);
            }
            if j0 + 32 <= n {
                j0 = register_block::<32>(y, x, bs, j0, rows);
            }
            if j0 + 16 <= n {
                j0 = register_block::<16>(y, x, bs, j0, rows);
            }
            if j0 + 8 <= n {
                j0 = register_block::<8>(y, x, bs, j0, rows);
            }
            if j0 + 4 <= n {
                j0 = register_block::<4>(y, x, bs, j0, rows);
            }
            while j0 < n {
                j0 = register_block::<1>(y, x, bs, j0, rows);
            }
        } else {
            for &kk in rows {
                let xv = x[kk];
                for (a, &bv) in y.iter_mut().zip(&bs[kk * n..kk * n + n]) {
                    *a = xv.mul_add(bv, *a);
                }
            }
        }
    }
    if skipped {
        // Only a zero can differ from the full chain (module docs):
        // recompute those over every row.
        for (j, out) in y.iter_mut().enumerate() {
            if *out == 0.0 {
                *out = x
                    .iter()
                    .enumerate()
                    .fold(0.0f32, |acc, (kk, &xv)| xv.mul_add(bs[kk * n + j], acc));
            }
        }
    }
    apply_epilogue(y, epilogue);
}

/// Continue the chains of columns `j0..j0 + W` over `rows`, holding
/// them in registers; returns the next column.
#[inline(always)]
fn register_block<const W: usize>(
    y: &mut [f32],
    x: &[f32],
    bs: &[f32],
    j0: usize,
    rows: &[usize],
) -> usize {
    let n = y.len();
    let mut acc = [0.0f32; W];
    acc.copy_from_slice(&y[j0..j0 + W]);
    for &kk in rows {
        let xv = x[kk];
        let brow = &bs[kk * n + j0..kk * n + j0 + W];
        for (a, &bv) in acc.iter_mut().zip(brow) {
            *a = xv.mul_add(bv, *a);
        }
    }
    y[j0..j0 + W].copy_from_slice(&acc);
    j0 + W
}

// ---------------------------------------------------------------------------
// y = x · Bᵀ  (B stored n x k)
// ---------------------------------------------------------------------------

/// `y = x · Bᵀ` with a fused epilogue; `B` is `n x k` (each output is a
/// dot against a row of B), `x` has length `k`, `y` length `n`.
///
/// # Panics
/// Panics when `x.len() != B.cols()` or `y.len() != B.rows()`, or when a
/// bias epilogue is shorter than `y`.
pub fn gemv_at_into(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    assert_eq!(x.len(), b.cols(), "gemv_at: x length != B cols");
    assert_eq!(y.len(), b.rows(), "gemv_at: y length != B rows");
    assert_epilogue_len(y.len(), epilogue);
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::fma_available() {
        // SAFETY: avx2 + fma presence verified by `fma_available`.
        unsafe { gemv_at_fma(y, x, b, epilogue) };
        return;
    }
    gemv_at_body(y, x, b, epilogue);
}

/// The portable instantiation of [`gemv_at_into`] (see
/// [`gemv_portable_into`]).
pub fn gemv_at_portable_into(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    assert_eq!(x.len(), b.cols(), "gemv_at: x length != B cols");
    assert_eq!(y.len(), b.rows(), "gemv_at: y length != B rows");
    assert_epilogue_len(y.len(), epilogue);
    gemv_at_body(y, x, b, epilogue);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn gemv_at_fma(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    gemv_at_body(y, x, b, epilogue);
}

/// Per-output-row dot chains, four rows in flight so independent FMA
/// chains overlap. Each chain is scalar — vectorizing it would split the
/// reduction and break bit-identity.
#[inline(always)]
fn gemv_at_body(y: &mut [f32], x: &[f32], b: &Matrix, epilogue: Epilogue<'_>) {
    let n = b.rows();
    let mut j = 0usize;
    while j + 4 <= n {
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
        let rows = (b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
        for ((((&xv, &v0), &v1), &v2), &v3) in
            x.iter().zip(rows.0).zip(rows.1).zip(rows.2).zip(rows.3)
        {
            a0 = xv.mul_add(v0, a0);
            a1 = xv.mul_add(v1, a1);
            a2 = xv.mul_add(v2, a2);
            a3 = xv.mul_add(v3, a3);
        }
        y[j] = a0;
        y[j + 1] = a1;
        y[j + 2] = a2;
        y[j + 3] = a3;
        j += 4;
    }
    for (jj, out) in y.iter_mut().enumerate().skip(j) {
        let mut acc = 0.0f32;
        for (&xv, &bv) in x.iter().zip(b.row(jj)) {
            acc = xv.mul_add(bv, acc);
        }
        *out = acc;
    }
    apply_epilogue(y, epilogue);
}

fn assert_epilogue_len(n: usize, epilogue: Epilogue<'_>) {
    if let Epilogue::Bias(bias) | Epilogue::BiasRelu(bias) | Epilogue::BiasLeakyRelu(bias, _) =
        epilogue
    {
        assert!(bias.len() >= n, "gemv: bias shorter than output ({} < {n})", bias.len());
    }
}

// ---------------------------------------------------------------------------
// Matrix-shaped conveniences
// ---------------------------------------------------------------------------

/// `y = x · B` as matrices: `x` is `1 x k`, `B` is `k x n`, result `1 x n`.
/// Reads every row of B ([`ZeroRows::Stream`]).
pub fn gemv(x: &Matrix, b: &Matrix, epilogue: Epilogue<'_>) -> Matrix {
    assert_eq!(x.rows(), 1, "gemv: x must be a row vector");
    let mut y = Matrix::zeros(1, b.cols());
    gemv_into(y.as_mut_slice(), x.as_slice(), b, epilogue, ZeroRows::Stream);
    y
}

/// `y = x · Bᵀ` as matrices: `x` is `1 x k`, `B` is `n x k`, result `1 x n`.
pub fn gemv_at(x: &Matrix, b: &Matrix, epilogue: Epilogue<'_>) -> Matrix {
    assert_eq!(x.rows(), 1, "gemv_at: x must be a row vector");
    let mut y = Matrix::zeros(1, b.rows());
    gemv_at_into(y.as_mut_slice(), x.as_slice(), b, epilogue);
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::reference;

    fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let data = (0..rows * cols).map(|_| next()).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn gemv_matches_reference_bitwise() {
        // Shapes straddling the NB block edge and the scalar tail.
        for (k, n) in [(1, 1), (3, 7), (17, 31), (40, 32), (65, 100), (128, 96)] {
            let x = lcg_matrix(1, k, 11 + k as u64);
            let b = lcg_matrix(k, n, 23 + n as u64);
            let fast = gemv(&x, &b, Epilogue::None);
            assert_eq!(fast, reference::matmul(&x, &b), "{k}x{n}");
        }
    }

    #[test]
    fn gemv_at_matches_reference_bitwise() {
        for (k, n) in [(1, 1), (3, 7), (17, 31), (40, 4), (65, 100)] {
            let x = lcg_matrix(1, k, 31 + k as u64);
            let bt = lcg_matrix(n, k, 43 + n as u64);
            let fast = gemv_at(&x, &bt, Epilogue::None);
            assert_eq!(fast, reference::matmul_a_bt(&x, &bt), "{k}x{n}");
        }
    }

    #[test]
    fn fused_bias_matches_separate_broadcast_bitwise() {
        let (k, n) = (37, 50);
        let x = lcg_matrix(1, k, 5);
        let b = lcg_matrix(k, n, 6);
        let bias = lcg_matrix(1, n, 7);
        let fused = gemv(&x, &b, Epilogue::Bias(bias.as_slice()));
        let mut separate = reference::matmul(&x, &b);
        separate.add_row_broadcast(&bias);
        assert_eq!(fused, separate);
    }

    #[test]
    fn fused_bias_relu_matches_separate_ops_bitwise() {
        let (k, n) = (37, 50);
        let x = lcg_matrix(1, k, 8);
        let b = lcg_matrix(k, n, 9);
        let bias = lcg_matrix(1, n, 10);
        let fused = gemv(&x, &b, Epilogue::BiasRelu(bias.as_slice()));
        let mut separate = reference::matmul(&x, &b);
        separate.add_row_broadcast(&bias);
        separate.map_inplace(|v| v.max(0.0));
        assert_eq!(fused, separate);
    }

    #[test]
    fn portable_path_is_bit_identical_to_dispatched() {
        let (k, n) = (71, 45);
        let x = lcg_matrix(1, k, 12);
        let b = lcg_matrix(k, n, 13);
        let bias = lcg_matrix(1, n, 14);
        for ep in [Epilogue::None, Epilogue::Bias(bias.as_slice()), Epilogue::BiasRelu(bias.as_slice())] {
            let mut fast = vec![0.0f32; n];
            let mut portable = vec![0.0f32; n];
            gemv_into(&mut fast, x.as_slice(), &b, ep, ZeroRows::Stream);
            gemv_portable_into(&mut portable, x.as_slice(), &b, ep, ZeroRows::Stream);
            assert_eq!(fast, portable);
        }
        let bt = lcg_matrix(n, k, 15);
        let mut fast = vec![0.0f32; n];
        let mut portable = vec![0.0f32; n];
        gemv_at_into(&mut fast, x.as_slice(), &bt, Epilogue::None);
        gemv_at_portable_into(&mut portable, x.as_slice(), &bt, Epilogue::None);
        assert_eq!(fast, portable);
    }

    #[test]
    fn k_zero_contracts_to_bias_or_exact_zero() {
        let b = Matrix::zeros(0, 5);
        let bias = lcg_matrix(1, 5, 16);
        let plain = gemv(&Matrix::zeros(1, 0), &b, Epilogue::None);
        assert!(plain.as_slice().iter().all(|&v| v == 0.0 && v.is_sign_positive()));
        let biased = gemv(&Matrix::zeros(1, 0), &b, Epilogue::Bias(bias.as_slice()));
        assert_eq!(biased.as_slice(), bias.as_slice());
    }
}
