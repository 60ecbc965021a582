//! Network layers with manual forward/backward passes.
//!
//! Each layer caches whatever it needs from the forward pass (inputs or
//! pre-activations) so that `backward` can be called immediately after.
//! Parameter gradients accumulate into `grad_*` buffers and are consumed by
//! the optimizers in [`crate::opt`].
//!
//! Every contraction routes through the packed GEMM micro-kernel in
//! `mrsch_linalg`: `Dense` calls the fused entry points directly
//! (`matmul` forward, `matmul_at_b`/`matmul_a_bt` backward — no
//! transpose is ever materialized), and `Conv1d` lowers to im2col +
//! GEMM. Results stay bit-reproducible across thread counts; see the
//! `mrsch_linalg::gemm` determinism contract.

use mrsch_linalg::{
    gemv, init, matmul, matmul_a_bt, matmul_a_bt_into, matmul_at_b, Matrix, ZeroRows,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Element-wise activation functions.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Activation {
    /// `max(x, alpha * x)` — the paper's state module uses leaky rectifiers.
    LeakyRelu(f32),
    /// `max(x, 0)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through (useful for testing containers).
    Identity,
}

impl Activation {
    /// Apply the activation to one value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::LeakyRelu(a) => {
                if x >= 0.0 {
                    x
                } else {
                    a * x
                }
            }
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative w.r.t. the input, expressed in terms of input `x` and
    /// output `y = apply(x)` (tanh uses `y`, rectifiers use `x`).
    #[inline]
    pub fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::LeakyRelu(a) => {
                if x >= 0.0 {
                    1.0
                } else {
                    a
                }
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// Fully-connected layer: `y = x · W + b`.
///
/// `W` has shape `(in, out)`; inputs are `(batch, in)` row-major.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, `(fan_in, fan_out)`.
    pub(crate) w: Matrix,
    /// Bias row vector, `(1, fan_out)`.
    pub(crate) b: Matrix,
    /// Accumulated weight gradient.
    pub(crate) grad_w: Matrix,
    /// Accumulated bias gradient.
    pub(crate) grad_b: Matrix,
    #[serde(skip)]
    cached_input: Option<Matrix>,
    /// [`ZeroRows::when_finite`] of `w`, computed on the first inference
    /// and cleared by every `&mut` path that can change `w`
    /// ([`Layer::visit_params`]), so inference skips zero-input rows
    /// only while the weights are known finite.
    #[serde(skip)]
    zero_rows: OnceLock<ZeroRows>,
}

impl Dense {
    /// He-normal initialized dense layer (appropriate for the leaky-ReLU
    /// stacks used throughout MRSch).
    pub fn new<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Self {
        Self {
            w: init::he_normal(rng, fan_in, fan_out),
            b: Matrix::zeros(1, fan_out),
            grad_w: Matrix::zeros(fan_in, fan_out),
            grad_b: Matrix::zeros(1, fan_out),
            cached_input: None,
            zero_rows: OnceLock::new(),
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        let y = self.forward_inference(x);
        self.cached_input = Some(x.clone());
        y
    }

    /// Forward pass without caching: usable through a shared reference,
    /// bit-identical to [`Dense::forward`] (same operations, same order).
    fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut y = matmul(x, &self.w);
        y.add_row_broadcast(&self.b);
        y
    }

    /// Allocation-free forward into a caller-owned buffer, optionally
    /// fusing the activation layer that follows.
    ///
    /// Every input row runs through the fused gemv kernel with the bias
    /// (and a `Relu` / `LeakyRelu` `then`) in its epilogue, skipping
    /// zero-input weight rows while the weights are finite. Bit-identical
    /// to [`Dense::forward_inference`] followed by `then` as a separate
    /// activation layer: each output element is the same `mul_add` chain
    /// and the epilogue performs the same scalar ops. Returns whether
    /// `then` was fused.
    pub(crate) fn forward_inference_into(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        then: Option<Activation>,
    ) -> bool {
        let bias = self.b.as_slice();
        let (ep, fused) = match then {
            Some(Activation::Relu) => (gemv::Epilogue::BiasRelu(bias), true),
            Some(Activation::LeakyRelu(a)) => (gemv::Epilogue::BiasLeakyRelu(bias, a), true),
            _ => (gemv::Epilogue::Bias(bias), false),
        };
        let zero_rows = *self.zero_rows.get_or_init(|| ZeroRows::when_finite(&self.w));
        out.reset_to_zeros(x.rows(), self.fan_out());
        for r in 0..x.rows() {
            gemv::gemv_into(out.row_mut(r), x.row(r), &self.w, ep, zero_rows);
        }
        fused
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let x = self
            .cached_input
            .as_ref()
            .expect("Dense::backward called before forward");
        // dW += xᵀ · dY ; db += Σ_rows dY ; dX = dY · Wᵀ
        self.grad_w.add_assign(&matmul_at_b(x, grad_out));
        self.grad_b.add_assign(&grad_out.sum_rows());
        matmul_a_bt(grad_out, &self.w)
    }
}

/// 1-D convolution over a flat `(batch, in_channels * length)` signal.
///
/// Used only by the CNN state-module ablation (Fig. 3). The layout is
/// channel-major: element `(c, t)` of a sample lives at `c * length + t`.
/// `stride >= 1`, no padding (valid convolution), output length
/// `out_len = (length - kernel) / stride + 1`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Conv1d {
    /// Number of input channels.
    pub in_channels: usize,
    /// Number of output channels (filters).
    pub out_channels: usize,
    /// Kernel width.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Input signal length per channel.
    pub length: usize,
    /// Filter bank, shape `(out_channels, in_channels * kernel)`.
    pub w: Matrix,
    /// Per-filter bias, `(1, out_channels)`.
    pub b: Matrix,
    /// Accumulated filter gradient.
    pub grad_w: Matrix,
    /// Accumulated bias gradient.
    pub grad_b: Matrix,
    /// im2col patches saved by `forward` — the backward pass contracts
    /// against these directly, so the input itself is never re-gathered.
    #[serde(skip)]
    cached_patches: Option<Matrix>,
}

impl Conv1d {
    /// He-normal initialized valid 1-D convolution.
    ///
    /// # Panics
    /// Panics when `kernel > length` or `stride == 0`.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        length: usize,
        rng: &mut R,
    ) -> Self {
        assert!(stride >= 1, "Conv1d: stride must be >= 1");
        assert!(kernel <= length, "Conv1d: kernel {kernel} > length {length}");
        let fan_in = in_channels * kernel;
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            length,
            w: init::he_normal(rng, out_channels, fan_in),
            b: Matrix::zeros(1, out_channels),
            grad_w: Matrix::zeros(out_channels, fan_in),
            grad_b: Matrix::zeros(1, out_channels),
            cached_patches: None,
        }
    }

    /// Output length per channel.
    pub fn out_len(&self) -> usize {
        (self.length - self.kernel) / self.stride + 1
    }

    /// Flat output width (`out_channels * out_len`), channel-major.
    pub fn out_width(&self) -> usize {
        self.out_channels * self.out_len()
    }

    /// Flat input width this layer expects.
    pub fn in_width(&self) -> usize {
        self.in_channels * self.length
    }

    fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.cols(),
            self.in_width(),
            "Conv1d: input width {} != expected {}",
            x.cols(),
            self.in_width()
        );
        let patches = self.im2col(x);
        let y = self.apply_filters(&patches, x.rows());
        self.cached_patches = Some(patches);
        y
    }

    /// Gather the convolution windows into an im2col patch matrix:
    /// row `s * out_len + t` holds the `(ic, k)`-ordered window of
    /// sample `s` at output position `t`, matching the filter-bank
    /// layout so the convolution becomes one GEMM.
    fn im2col(&self, x: &Matrix) -> Matrix {
        let mut patches = Matrix::zeros(0, 0);
        self.im2col_into(x, &mut patches);
        patches
    }

    /// [`Conv1d::im2col`] into a caller-owned buffer (reused across calls
    /// by the inference scratch arena).
    pub(crate) fn im2col_into(&self, x: &Matrix, patches: &mut Matrix) {
        let batch = x.rows();
        let out_len = self.out_len();
        patches.reset_to_zeros(batch * out_len, self.in_channels * self.kernel);
        for s in 0..batch {
            let row = x.row(s);
            for t in 0..out_len {
                let start = t * self.stride;
                let dst = patches.row_mut(s * out_len + t);
                for ic in 0..self.in_channels {
                    let sig = &row[ic * self.length..(ic + 1) * self.length];
                    dst[ic * self.kernel..(ic + 1) * self.kernel]
                        .copy_from_slice(&sig[start..start + self.kernel]);
                }
            }
        }
    }

    /// Forward pass without caching: usable through a shared reference,
    /// bit-identical to [`Conv1d::forward`] (same operations, same order).
    ///
    /// Runs as im2col + `patches · Wᵀ` so the convolution rides the
    /// packed GEMM micro-kernel instead of a scalar quadruple loop; the
    /// per-element reduction order (`ic`-major, `k`-minor) is exactly
    /// the one the filter loop used.
    fn forward_inference(&self, x: &Matrix) -> Matrix {
        assert_eq!(
            x.cols(),
            self.in_width(),
            "Conv1d: input width {} != expected {}",
            x.cols(),
            self.in_width()
        );
        self.apply_filters(&self.im2col(x), x.rows())
    }

    /// The shared forward contraction: `patches · Wᵀ` plus bias, with
    /// the position-major GEMM rows scattered into the channel-major
    /// output layout.
    fn apply_filters(&self, patches: &Matrix, batch: usize) -> Matrix {
        // (batch·out_len, fan_in) x (out_channels, fan_in)ᵀ
        let scores = matmul_a_bt(patches, &self.w);
        let mut y = Matrix::zeros(batch, self.out_width());
        self.scatter_scores(&scores, batch, &mut y);
        y
    }

    /// The position-major → channel-major output scatter shared by the
    /// allocating and scratch-buffer forward paths. `y` must already be
    /// sized `(batch, out_width)`.
    fn scatter_scores(&self, scores: &Matrix, batch: usize, y: &mut Matrix) {
        let out_len = self.out_len();
        let bias = self.b.as_slice();
        for s in 0..batch {
            let dst = y.row_mut(s);
            for t in 0..out_len {
                let src = scores.row(s * out_len + t);
                for (oc, &v) in src.iter().enumerate() {
                    dst[oc * out_len + t] = bias[oc] + v;
                }
            }
        }
    }

    /// Allocation-free forward into caller-owned buffers: im2col into
    /// `patches`, contract into `scores`, scatter into `out`.
    /// Bit-identical to [`Conv1d::forward_inference`] (same GEMM entry
    /// point, same scatter order).
    pub(crate) fn forward_inference_into(
        &self,
        x: &Matrix,
        out: &mut Matrix,
        patches: &mut Matrix,
        scores: &mut Matrix,
    ) {
        assert_eq!(
            x.cols(),
            self.in_width(),
            "Conv1d: input width {} != expected {}",
            x.cols(),
            self.in_width()
        );
        let batch = x.rows();
        self.im2col_into(x, patches);
        matmul_a_bt_into(patches, &self.w, scores);
        out.reset_to_zeros(batch, self.out_width());
        self.scatter_scores(scores, batch, out);
    }

    /// Backward pass, lowered to the same two GEMM shapes `Dense` uses.
    ///
    /// The channel-major output gradient is first gathered position-major
    /// (`dScores`, the exact transpose of the forward scatter); then
    ///
    /// * `dW += dScoresᵀ · patches`   ([`matmul_at_b`]),
    /// * `dB += column sums of dScores`,
    /// * `dPatches = dScores · W`     ([`matmul`]),
    ///
    /// and `dPatches` scatter-adds back through the im2col map (col2im:
    /// overlapping windows accumulate in increasing-`t` order).
    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let patches = self
            .cached_patches
            .as_ref()
            .expect("Conv1d::backward called before forward");
        let batch = grad_out.rows();
        let out_len = self.out_len();
        let mut d_scores = Matrix::zeros(batch * out_len, self.out_channels);
        for s in 0..batch {
            let gout = grad_out.row(s);
            for t in 0..out_len {
                let dst = d_scores.row_mut(s * out_len + t);
                for (oc, slot) in dst.iter_mut().enumerate() {
                    *slot = gout[oc * out_len + t];
                }
            }
        }
        let dw = matmul_at_b(&d_scores, patches);
        for (acc, &v) in self.grad_w.as_mut_slice().iter_mut().zip(dw.as_slice()) {
            *acc += v;
        }
        for r in 0..d_scores.rows() {
            for (acc, &v) in self.grad_b.as_mut_slice().iter_mut().zip(d_scores.row(r)) {
                *acc += v;
            }
        }
        let d_patches = matmul(&d_scores, &self.w);
        let mut grad_in = Matrix::zeros(batch, self.in_width());
        for s in 0..batch {
            let dst = grad_in.row_mut(s);
            for t in 0..out_len {
                let src = d_patches.row(s * out_len + t);
                let start = t * self.stride;
                for ic in 0..self.in_channels {
                    let gin = &mut dst[ic * self.length..(ic + 1) * self.length];
                    for k in 0..self.kernel {
                        gin[start + k] += src[ic * self.kernel + k];
                    }
                }
            }
        }
        grad_in
    }
}

/// A single network layer.
///
/// Modeled as an enum (rather than trait objects) so networks serialize
/// naturally with serde and clone cheaply for target-network copies.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Layer {
    /// Fully connected.
    Dense(Dense),
    /// Element-wise activation. Caches pre- and post-activation values.
    Activation {
        /// The function applied element-wise.
        func: Activation,
        /// Cached forward input (pre-activation).
        #[serde(skip)]
        cached_in: Option<Matrix>,
        /// Cached forward output (post-activation).
        #[serde(skip)]
        cached_out: Option<Matrix>,
    },
    /// Valid 1-D convolution (CNN ablation only).
    Conv1d(Conv1d),
}

impl Layer {
    /// Run the layer forward, caching state for a subsequent backward call.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        match self {
            Layer::Dense(d) => d.forward(x),
            Layer::Activation { func, cached_in, cached_out } => {
                let y = x.map(|v| func.apply(v));
                *cached_in = Some(x.clone());
                *cached_out = Some(y.clone());
                y
            }
            Layer::Conv1d(c) => c.forward(x),
        }
    }

    /// Run the layer forward without caching backward state. Numerically
    /// identical to [`Layer::forward`]; usable through `&self`, so frozen
    /// networks can be shared across threads (e.g. one rollout snapshot
    /// behind an `Arc` instead of a clone per worker).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        match self {
            Layer::Dense(d) => d.forward_inference(x),
            Layer::Activation { func, .. } => x.map(|v| func.apply(v)),
            Layer::Conv1d(c) => c.forward_inference(x),
        }
    }

    /// Propagate `grad_out` backwards, accumulating parameter gradients and
    /// returning the gradient w.r.t. this layer's input.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        match self {
            Layer::Dense(d) => d.backward(grad_out),
            Layer::Activation { func, cached_in, cached_out } => {
                let x = cached_in.as_ref().expect("Activation backward before forward");
                let y = cached_out.as_ref().expect("Activation backward before forward");
                let mut g = grad_out.clone();
                let gs = g.as_mut_slice();
                for (i, gv) in gs.iter_mut().enumerate() {
                    *gv *= func.derivative(x.as_slice()[i], y.as_slice()[i]);
                }
                g
            }
            Layer::Conv1d(c) => c.backward(grad_out),
        }
    }

    /// Reset accumulated parameter gradients to zero.
    pub fn zero_grad(&mut self) {
        match self {
            Layer::Dense(d) => {
                d.grad_w.scale_assign(0.0);
                d.grad_b.scale_assign(0.0);
            }
            Layer::Conv1d(c) => {
                c.grad_w.scale_assign(0.0);
                c.grad_b.scale_assign(0.0);
            }
            Layer::Activation { .. } => {}
        }
    }

    /// Visit every `(param, grad)` pair in a stable order.
    pub fn visit_params(&mut self, f: &mut impl FnMut(&mut Matrix, &mut Matrix)) {
        match self {
            Layer::Dense(d) => {
                d.zero_rows = OnceLock::new();
                f(&mut d.w, &mut d.grad_w);
                f(&mut d.b, &mut d.grad_b);
            }
            Layer::Conv1d(c) => {
                f(&mut c.w, &mut c.grad_w);
                f(&mut c.b, &mut c.grad_b);
            }
            Layer::Activation { .. } => {}
        }
    }

    /// Number of trainable scalars in this layer.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Dense(d) => d.w.len() + d.b.len(),
            Layer::Conv1d(c) => c.w.len() + c.b.len(),
            Layer::Activation { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn activation_functions() {
        let lr = Activation::LeakyRelu(0.1);
        assert_eq!(lr.apply(2.0), 2.0);
        assert_eq!(lr.apply(-2.0), -0.2);
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-9);
        assert_eq!(Activation::Identity.apply(3.5), 3.5);
    }

    #[test]
    fn activation_derivatives() {
        let lr = Activation::LeakyRelu(0.1);
        assert_eq!(lr.derivative(2.0, 2.0), 1.0);
        assert_eq!(lr.derivative(-2.0, -0.2), 0.1);
        let y = Activation::Tanh.apply(0.5);
        assert!((Activation::Tanh.derivative(0.5, y) - (1.0 - y * y)).abs() < 1e-9);
    }

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = Dense::new(3, 2, &mut rng);
        d.b = Matrix::row_vector(vec![10.0, 20.0]);
        let x = Matrix::zeros(4, 3);
        let y = d.forward(&x);
        assert_eq!(y.shape(), (4, 2));
        // Zero input -> output equals bias.
        for r in 0..4 {
            assert_eq!(y.row(r), &[10.0, 20.0]);
        }
    }

    /// Finite-difference check of Dense backward.
    #[test]
    fn dense_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = init::rand_x(&mut rng, 2, 3);
        // Loss = 0.5 * ||y||^2, so dL/dy = y.
        let y = d.forward(&x);
        let gin = d.backward(&y);
        let eps = 1e-3f32;
        // Check dL/dw[0][0].
        let analytic = d.grad_w.get(0, 0);
        let mut dp = d.clone();
        dp.w.set(0, 0, dp.w.get(0, 0) + eps);
        let mut dm = d.clone();
        dm.w.set(0, 0, dm.w.get(0, 0) - eps);
        let lp = 0.5 * dp.forward(&x).norm_sq();
        let lm = 0.5 * dm.forward(&x).norm_sq();
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "dW analytic {analytic} vs numeric {numeric}"
        );
        // Check dL/dx[0][0].
        let analytic_x = gin.get(0, 0);
        let mut xp = x.clone();
        xp.set(0, 0, xp.get(0, 0) + eps);
        let mut xm = x.clone();
        xm.set(0, 0, xm.get(0, 0) - eps);
        let lp = 0.5 * d.clone().forward(&xp).norm_sq();
        let lm = 0.5 * d.clone().forward(&xm).norm_sq();
        let numeric_x = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic_x - numeric_x).abs() < 1e-2,
            "dX analytic {analytic_x} vs numeric {numeric_x}"
        );
    }

    mod init {
        use super::*;
        pub fn rand_x(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
            mrsch_linalg::init::gaussian_matrix(rng, rows, cols, 1.0)
        }
    }

    #[test]
    fn conv1d_known_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv1d::new(1, 1, 2, 1, 4, &mut rng);
        // Filter [1, -1], bias 0: discrete difference.
        c.w = Matrix::from_vec(1, 2, vec![1.0, -1.0]);
        c.b = Matrix::zeros(1, 1);
        let x = Matrix::from_vec(1, 4, vec![1.0, 3.0, 6.0, 10.0]);
        let y = c.forward(&x);
        assert_eq!(y.shape(), (1, 3));
        assert_eq!(y.as_slice(), &[-2.0, -3.0, -4.0]);
    }

    #[test]
    fn conv1d_stride_and_channels_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = Conv1d::new(2, 3, 4, 2, 10, &mut rng);
        assert_eq!(c.out_len(), 4);
        assert_eq!(c.out_width(), 12);
        assert_eq!(c.in_width(), 20);
    }

    #[test]
    fn conv1d_gradients_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut c = Conv1d::new(2, 2, 3, 2, 7, &mut rng);
        let x = mrsch_linalg::init::gaussian_matrix(&mut rng, 2, c.in_width(), 1.0);
        let y = c.forward(&x);
        let gin = c.backward(&y); // loss 0.5||y||^2
        let eps = 1e-3f32;
        // Spot-check several weight coordinates and one input coordinate.
        for &(r, col) in &[(0usize, 0usize), (1, 2), (0, 5)] {
            let analytic = c.grad_w.get(r, col);
            let mut cp = c.clone();
            cp.w.set(r, col, cp.w.get(r, col) + eps);
            let mut cm = c.clone();
            cm.w.set(r, col, cm.w.get(r, col) - eps);
            let lp = 0.5 * cp.forward(&x).norm_sq();
            let lm = 0.5 * cm.forward(&x).norm_sq();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2,
                "conv dW[{r}][{col}] analytic {analytic} vs numeric {numeric}"
            );
        }
        let analytic_x = gin.get(0, 3);
        let mut xp = x.clone();
        xp.set(0, 3, xp.get(0, 3) + eps);
        let mut xm = x.clone();
        xm.set(0, 3, xm.get(0, 3) - eps);
        let lp = 0.5 * c.clone().forward(&xp).norm_sq();
        let lm = 0.5 * c.clone().forward(&xm).norm_sq();
        let numeric_x = (lp - lm) / (2.0 * eps);
        assert!(
            (analytic_x - numeric_x).abs() < 2e-2,
            "conv dX analytic {analytic_x} vs numeric {numeric_x}"
        );
    }

    /// The GEMM-lowered backward is bit-identical to scalar loops written
    /// in the GEMM's documented per-element reduction: a `mul_add` chain
    /// in increasing contraction order starting from `+0.0` (the
    /// bit-exactness spec of `mrsch_linalg::gemm`, honored by both the
    /// direct and the packed path).
    #[test]
    fn conv1d_backward_gemm_matches_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut c = Conv1d::new(3, 4, 3, 2, 11, &mut rng);
        let batch = 5;
        let x = mrsch_linalg::init::gaussian_matrix(&mut rng, batch, c.in_width(), 1.0);
        let y = c.forward(&x);
        let gout = y; // loss 0.5·||y||², so dL/dy = y
        let gin = c.backward(&gout);

        let out_len = c.out_len();
        let (noc, fan_in) = (c.out_channels, c.in_channels * c.kernel);
        let rows = batch * out_len;
        let patches = c.im2col(&x);
        // Position-major gather of the channel-major output gradient.
        let mut ds = vec![0.0f32; rows * noc];
        for s in 0..batch {
            for t in 0..out_len {
                for oc in 0..noc {
                    ds[(s * out_len + t) * noc + oc] = gout.get(s, oc * out_len + t);
                }
            }
        }
        // dW = dScoresᵀ · patches: chains over rows, increasing.
        let mut gw = vec![0.0f32; noc * fan_in];
        for oc in 0..noc {
            for f in 0..fan_in {
                let mut acc = 0.0f32;
                for r in 0..rows {
                    acc = ds[r * noc + oc].mul_add(patches.get(r, f), acc);
                }
                gw[oc * fan_in + f] = acc;
            }
        }
        assert_eq!(c.grad_w.as_slice(), &gw[..], "dW must be bit-identical");
        // dB: plain column sums in increasing-row order.
        let mut gb = vec![0.0f32; noc];
        for r in 0..rows {
            for (acc, &v) in gb.iter_mut().zip(&ds[r * noc..(r + 1) * noc]) {
                *acc += v;
            }
        }
        assert_eq!(c.grad_b.as_slice(), &gb[..], "dB must be bit-identical");
        // dX: dPatches = dScores · W (chain over out-channels), col2im
        // scatter-added in the implementation's (t, ic, k) order.
        let mut gi = vec![0.0f32; batch * c.in_width()];
        for s in 0..batch {
            for t in 0..out_len {
                let start = t * c.stride;
                for ic in 0..c.in_channels {
                    for k in 0..c.kernel {
                        let f = ic * c.kernel + k;
                        let mut acc = 0.0f32;
                        for oc in 0..noc {
                            acc = ds[(s * out_len + t) * noc + oc].mul_add(c.w.get(oc, f), acc);
                        }
                        gi[s * c.in_width() + ic * c.length + start + k] += acc;
                    }
                }
            }
        }
        assert_eq!(gin.as_slice(), &gi[..], "dX must be bit-identical");
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = Layer::Dense(Dense::new(2, 2, &mut rng));
        let x = Matrix::filled(1, 2, 1.0);
        let y = layer.forward(&x);
        layer.backward(&y);
        layer.zero_grad();
        layer.visit_params(&mut |_, g| assert!(g.as_slice().iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn param_count_accounts_weights_and_biases() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Layer::Dense(Dense::new(3, 4, &mut rng));
        assert_eq!(d.param_count(), 3 * 4 + 4);
        let c = Layer::Conv1d(Conv1d::new(1, 2, 3, 1, 8, &mut rng));
        assert_eq!(c.param_count(), 2 * 3 + 2);
    }
}
