//! Sequential network container with manual backprop.

use crate::layer::{Activation, Conv1d, Dense, Layer};
use mrsch_linalg::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Reusable buffers for allocation-free inference.
///
/// A forward pass ping-pongs between two activation buffers (plus two
/// im2col side buffers for convolution layers), so after warm-up a
/// [`Sequential::forward_inference_scratch`] call performs **zero heap
/// allocations** — the decision-serving hot path requirement. Buffers
/// grow to the high-water mark of whatever shapes pass through and stay
/// there.
#[derive(Debug)]
pub struct InferenceScratch {
    /// Ping-pong activation buffers.
    bufs: [Matrix; 2],
    /// im2col patch buffer (Conv1d layers only).
    patches: Matrix,
    /// Position-major convolution scores (Conv1d layers only).
    scores: Matrix,
}

impl InferenceScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            bufs: [Matrix::zeros(0, 0), Matrix::zeros(0, 0)],
            patches: Matrix::zeros(0, 0),
            scores: Matrix::zeros(0, 0),
        }
    }
}

impl Default for InferenceScratch {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Per-thread scratch backing [`Sequential::forward_inference`], so the
    /// allocating signature keeps its zero-per-layer-allocation behavior
    /// without threading a scratch handle through every caller.
    static INFERENCE_SCRATCH: RefCell<InferenceScratch> = RefCell::new(InferenceScratch::new());
}

/// A feed-forward stack of [`Layer`]s applied in order.
///
/// `forward` caches per-layer state; `backward` must be called with the
/// loss gradient w.r.t. the network output produced by the *most recent*
/// forward call.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    /// An empty network (identity function).
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Append an arbitrary layer.
    pub fn push(mut self, layer: Layer) -> Self {
        self.layers.push(layer);
        self
    }

    /// Append a He-initialized dense layer.
    pub fn dense<R: Rng + ?Sized>(self, fan_in: usize, fan_out: usize, rng: &mut R) -> Self {
        self.push(Layer::Dense(Dense::new(fan_in, fan_out, rng)))
    }

    /// Append an activation layer.
    pub fn activation(self, func: Activation) -> Self {
        self.push(Layer::Activation { func, cached_in: None, cached_out: None })
    }

    /// Append a valid 1-D convolution layer.
    #[allow(clippy::too_many_arguments)]
    pub fn conv1d<R: Rng + ?Sized>(
        self,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        length: usize,
        rng: &mut R,
    ) -> Self {
        self.push(Layer::Conv1d(Conv1d::new(
            in_channels,
            out_channels,
            kernel,
            stride,
            length,
            rng,
        )))
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass over a `(batch, features)` input, caching intermediate
    /// state for `backward`.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Forward pass without caching backward state: usable through a
    /// shared reference and bit-identical to [`Sequential::forward`].
    /// This is what lets a frozen policy network act from many threads
    /// at once without per-thread copies.
    ///
    /// Internally rides a per-thread [`InferenceScratch`], so after
    /// warm-up the only allocation left is the clone of the final output
    /// row. Latency-critical callers that own a scratch can use
    /// [`Sequential::forward_inference_scratch`] to drop that one too.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        INFERENCE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.forward_inference_scratch(x, &mut scratch).clone(),
            // Re-entrant call (same thread, scratch already borrowed):
            // fall back to a throwaway scratch. Identical arithmetic.
            Err(_) => {
                let mut scratch = InferenceScratch::new();
                self.forward_inference_scratch(x, &mut scratch).clone()
            }
        })
    }

    /// [`Sequential::forward_inference`] into caller-owned scratch
    /// buffers: zero heap allocations once the scratch is warm, and
    /// bit-identical output (the returned reference points into the
    /// scratch and is valid until its next use).
    ///
    /// Every `Dense` layer runs row by row through the fused gemv kernel
    /// with its bias in the epilogue, and a `Dense` followed by a `Relu`
    /// or `LeakyRelu` folds the rectifier into that same epilogue —
    /// without changing a single output bit (the epilogue performs the
    /// exact `+ bias` / rectifier scalar ops of the unfused sequence).
    pub fn forward_inference_scratch<'a>(
        &self,
        x: &Matrix,
        scratch: &'a mut InferenceScratch,
    ) -> &'a Matrix {
        let InferenceScratch { bufs, patches, scores } = scratch;
        let (front, back) = bufs.split_at_mut(1);
        let mut cur = &mut front[0];
        let mut next = &mut back[0];
        cur.copy_from(x);
        let mut i = 0;
        while i < self.layers.len() {
            match &self.layers[i] {
                Layer::Dense(d) => {
                    let then = match self.layers.get(i + 1) {
                        Some(Layer::Activation { func, .. }) => Some(*func),
                        _ => None,
                    };
                    if d.forward_inference_into(cur, next, then) {
                        i += 1; // the activation was folded into the gemv epilogue
                    }
                    std::mem::swap(&mut cur, &mut next);
                }
                Layer::Activation { func, .. } => {
                    let f = *func;
                    cur.map_inplace(|v| f.apply(v));
                }
                Layer::Conv1d(c) => {
                    c.forward_inference_into(cur, next, patches, scores);
                    std::mem::swap(&mut cur, &mut next);
                }
            }
            i += 1;
        }
        cur
    }

    /// Run `B` independent feature rows through the network as one
    /// `(B, features)` batch.
    ///
    /// Bit-identical to `B` separate single-row
    /// [`Sequential::forward_inference`] calls: every row takes the same
    /// per-row gemv kernel, and activations are element-wise. This is
    /// what lets the serving micro-batcher coalesce concurrent decision
    /// requests without changing any decision.
    ///
    /// # Panics
    /// Panics when `rows` is empty or the rows have unequal widths.
    pub fn forward_inference_batched(&self, rows: &[&[f32]]) -> Matrix {
        assert!(!rows.is_empty(), "forward_inference_batched: empty batch");
        let cols = rows[0].len();
        let mut x = Matrix::zeros(rows.len(), cols);
        for (r, src) in rows.iter().enumerate() {
            assert_eq!(src.len(), cols, "forward_inference_batched: ragged row {r}");
            x.row_mut(r).copy_from_slice(src);
        }
        self.forward_inference(&x)
    }

    /// Backward pass. `grad_out` is dLoss/dOutput; returns dLoss/dInput.
    ///
    /// Parameter gradients accumulate (are *not* zeroed first), enabling
    /// multi-head gradient accumulation as used by the DFP module network.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut cur = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    /// Zero all accumulated parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Visit every `(param, grad)` pair across layers in a stable order.
    pub fn visit_params(&mut self, f: &mut impl FnMut(&mut Matrix, &mut Matrix)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&mut self) -> f32 {
        let mut acc = 0.0f32;
        self.visit_params(&mut |_, g| acc += g.norm_sq());
        acc.sqrt()
    }

    /// Scale all gradients so their global norm is at most `max_norm`.
    ///
    /// Returns the pre-clip norm. Standard stabilizer for RL regression
    /// targets with occasional large errors.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let k = max_norm / norm;
            self.visit_params(&mut |_, g| g.scale_assign(k));
        }
        norm
    }

    /// Copy parameters (not gradients) from another network with identical
    /// architecture. Used to refresh DFP/RL target networks.
    pub fn copy_params_from(&mut self, other: &Sequential) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "copy_params_from: layer count mismatch"
        );
        let mut src: Vec<Matrix> = Vec::new();
        let mut other = other.clone();
        other.visit_params(&mut |p, _| src.push(p.clone()));
        let mut idx = 0usize;
        self.visit_params(&mut |p, _| {
            *p = src[idx].clone();
            idx += 1;
        });
        assert_eq!(idx, src.len(), "copy_params_from: parameter count mismatch");
    }

    /// Check every parameter is finite. Training invariant.
    pub fn all_finite(&mut self) -> bool {
        let mut ok = true;
        self.visit_params(&mut |p, _| ok &= p.all_finite());
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use crate::opt::{Adam, Optimizer, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_data() -> (Matrix, Matrix) {
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let y = Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]);
        (x, y)
    }

    #[test]
    fn empty_network_is_identity() {
        let mut net = Sequential::new();
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(net.forward(&x), x);
    }

    #[test]
    fn learns_xor_with_adam() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut net = Sequential::new()
            .dense(2, 16, &mut rng)
            .activation(Activation::LeakyRelu(0.01))
            .dense(16, 1, &mut rng);
        let mut opt = Adam::new(5e-2);
        let (x, y) = xor_data();
        let mut last = f32::MAX;
        for _ in 0..800 {
            let pred = net.forward(&x);
            let (l, g) = mse(&pred, &y);
            last = l;
            net.zero_grad();
            net.backward(&g);
            opt.step(&mut net);
        }
        assert!(last < 1e-2, "XOR loss did not converge: {last}");
    }

    #[test]
    fn learns_linear_map_with_sgd() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new().dense(2, 1, &mut rng);
        let mut opt = Sgd::new(0.05).momentum(0.9);
        // y = 3a - 2b
        let x = Matrix::from_vec(4, 2, vec![1., 0., 0., 1., 1., 1., 2., 1.]);
        let y = Matrix::from_vec(4, 1, vec![3., -2., 1., 4.]);
        let mut last = f32::MAX;
        for _ in 0..500 {
            let pred = net.forward(&x);
            let (l, g) = mse(&pred, &y);
            last = l;
            net.zero_grad();
            net.backward(&g);
            opt.step(&mut net);
        }
        assert!(last < 1e-4, "linear fit loss {last}");
    }

    #[test]
    fn whole_network_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Sequential::new()
            .dense(3, 5, &mut rng)
            .activation(Activation::Tanh)
            .dense(5, 2, &mut rng);
        let x = mrsch_linalg::init::gaussian_matrix(&mut rng, 2, 3, 1.0);
        let y = net.forward(&x);
        net.zero_grad();
        net.backward(&y); // loss = 0.5 ||out||²
        // Finite-difference the very first weight.
        let mut analytic = None;
        net.visit_params(&mut |_, g| {
            if analytic.is_none() {
                analytic = Some(g.get(0, 0));
            }
        });
        let analytic = analytic.unwrap();
        let eps = 1e-3;
        let perturb = |delta: f32, net: &Sequential| -> f32 {
            let mut n = net.clone();
            let mut first = true;
            n.visit_params(&mut |p, _| {
                if first {
                    p.set(0, 0, p.get(0, 0) + delta);
                    first = false;
                }
            });
            0.5 * n.forward(&x).norm_sq()
        };
        let numeric = (perturb(eps, &net) - perturb(-eps, &net)) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn forward_inference_is_bit_identical_to_forward() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = Sequential::new()
            .dense(6, 9, &mut rng)
            .activation(Activation::LeakyRelu(0.01))
            .conv1d(1, 2, 3, 2, 9, &mut rng)
            .activation(Activation::Tanh)
            .dense(8, 3, &mut rng);
        let x = mrsch_linalg::init::gaussian_matrix(&mut rng, 4, 6, 1.0);
        let cached = net.forward(&x);
        let shared = net.forward_inference(&x);
        assert_eq!(cached, shared, "inference path must not drift from training path");
        // Single-row inputs take the fused gemv path: still bit-identical.
        let x1 = mrsch_linalg::init::gaussian_matrix(&mut rng, 1, 6, 1.0);
        assert_eq!(
            net.forward(&x1),
            net.forward_inference(&x1),
            "single-row (gemv) inference must not drift from training path"
        );
        // Zero inputs of either sign, whose weight rows inference skips.
        let mut xs = mrsch_linalg::init::gaussian_matrix(&mut rng, 3, 6, 1.0);
        for (i, v) in xs.as_mut_slice().iter_mut().enumerate() {
            match i % 3 {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        assert_bits_eq(&net.forward(&xs), &net.forward_inference(&xs), "sparse rows");
        let xs1 = Matrix::from_vec(1, 6, xs.row(0).to_vec());
        assert_bits_eq(&net.forward(&xs1), &net.forward_inference(&xs1), "sparse row");
    }

    fn assert_bits_eq(want: &Matrix, got: &Matrix, what: &str) {
        assert_eq!(want.shape(), got.shape(), "{what}: shape");
        for (i, (a, b)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    /// Set `w[r][c]` of the first `Dense` layer through `visit_params`,
    /// the only `&mut` route to a layer's weights.
    fn set_first_weight(net: &mut Sequential, r: usize, c: usize, v: f32) {
        let mut first = true;
        net.visit_params(&mut |p, _| {
            if std::mem::take(&mut first) {
                p.set(r, c, v);
            }
        });
    }

    fn leaky_net(rng: &mut StdRng) -> Sequential {
        Sequential::new()
            .dense(6, 5, rng)
            .activation(Activation::LeakyRelu(0.2))
            .dense(5, 3, rng)
    }

    /// `0 · inf` and `0 · NaN` are NaN: a non-finite weight in a row
    /// whose input is zero must reach the inference output with the
    /// training path's (the GEMM reference's) bits, single- and
    /// multi-row.
    #[test]
    fn non_finite_weight_in_zero_input_row_reaches_output() {
        for bad in [f32::INFINITY, f32::NAN] {
            let mut rng = StdRng::seed_from_u64(23);
            let mut net = leaky_net(&mut rng);
            set_first_weight(&mut net, 2, 1, bad);
            let mut x = mrsch_linalg::init::gaussian_matrix(&mut rng, 3, 6, 1.0);
            for r in 0..3 {
                x.set(r, 2, 0.0);
            }
            let want = net.forward(&x);
            assert!(want.as_slice().iter().all(|v| v.is_nan()));
            assert_bits_eq(&want, &net.forward_inference(&x), "non-finite rows");
            let x1 = Matrix::from_vec(1, 6, x.row(0).to_vec());
            assert_bits_eq(&net.forward(&x1), &net.forward_inference(&x1), "non-finite row");
        }
    }

    /// The finiteness a `Dense` caches on its first inference must not
    /// outlive a weight change made through `visit_params`.
    #[test]
    fn visit_params_resets_cached_finiteness() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut net = leaky_net(&mut rng);
        let mut x = mrsch_linalg::init::gaussian_matrix(&mut rng, 1, 6, 1.0);
        x.set(0, 4, 0.0);
        assert!(net.forward_inference(&x).all_finite(), "finite weights cached");
        set_first_weight(&mut net, 4, 0, f32::NAN);
        let got = net.forward_inference(&x);
        assert!(got.as_slice().iter().all(|v| v.is_nan()), "stale cache skipped the NaN row");
        assert_bits_eq(&net.forward(&x), &got, "after visit_params");
    }

    /// The Dense+ReLU and Dense+LeakyReLU epilogue fusions and the
    /// explicit-scratch entry point must reproduce the layer-by-layer
    /// training path bit for bit, across repeated calls that reuse (and
    /// re-shape) the same scratch buffers.
    #[test]
    fn scratch_inference_bit_identical_and_reusable() {
        let mut rng = StdRng::seed_from_u64(21);
        let net = Sequential::new()
            .dense(5, 12, &mut rng)
            .activation(Activation::Relu) // fused into the gemv epilogue
            .dense(12, 7, &mut rng)
            .activation(Activation::LeakyRelu(0.01))
            .dense(7, 4, &mut rng);
        let conv_net = Sequential::new()
            .dense(5, 9, &mut rng)
            .activation(Activation::Relu)
            .conv1d(1, 2, 3, 2, 9, &mut rng)
            .activation(Activation::Tanh)
            .dense(8, 3, &mut rng);
        let mut scratch = InferenceScratch::new();
        for rows in [1usize, 3, 1, 8] {
            let x = mrsch_linalg::init::gaussian_matrix(&mut rng, rows, 5, 1.0);
            for net in [&net, &conv_net] {
                let want = net.clone().forward(&x);
                let got = net.forward_inference_scratch(&x, &mut scratch);
                assert_eq!(got.shape(), want.shape());
                for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "scratch path drifted (rows={rows})");
                }
            }
        }
    }

    /// One `(B, features)` batch must decide exactly like `B`
    /// independent single-row calls — the micro-batching correctness
    /// contract.
    #[test]
    fn batched_inference_bit_identical_to_sequential_rows() {
        let mut rng = StdRng::seed_from_u64(22);
        let net = Sequential::new()
            .dense(6, 11, &mut rng)
            .activation(Activation::Relu)
            .dense(11, 4, &mut rng);
        let x = mrsch_linalg::init::gaussian_matrix(&mut rng, 7, 6, 1.0);
        let rows: Vec<&[f32]> = (0..x.rows()).map(|r| x.row(r)).collect();
        let batched = net.forward_inference_batched(&rows);
        assert_eq!(batched.shape(), (7, 4));
        for (r, row) in rows.iter().enumerate() {
            let single = net.forward_inference(&Matrix::from_vec(1, 6, row.to_vec()));
            for (a, b) in batched.row(r).iter().zip(single.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "batched row {r} drifted from single-row call");
            }
        }
    }

    #[test]
    fn clip_grad_norm_bounds_gradients() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = Sequential::new().dense(4, 4, &mut rng);
        let x = Matrix::filled(8, 4, 10.0);
        let y = net.forward(&x);
        net.zero_grad();
        net.backward(&y.scale(100.0));
        let pre = net.clip_grad_norm(1.0);
        assert!(pre > 1.0);
        assert!((net.grad_norm() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn copy_params_from_transfers_weights() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut a = Sequential::new().dense(3, 3, &mut rng).activation(Activation::Relu);
        let mut b = Sequential::new().dense(3, 3, &mut rng).activation(Activation::Relu);
        let x = Matrix::filled(1, 3, 1.0);
        assert_ne!(a.forward(&x), b.forward(&x));
        b.copy_params_from(&a);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn param_count_sums_layers() {
        let mut rng = StdRng::seed_from_u64(10);
        let net = Sequential::new()
            .dense(10, 20, &mut rng)
            .activation(Activation::Relu)
            .dense(20, 5, &mut rng);
        assert_eq!(net.param_count(), 10 * 20 + 20 + 20 * 5 + 5);
    }

    #[test]
    fn gradient_accumulation_across_backward_calls() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Sequential::new().dense(2, 2, &mut rng);
        let x = Matrix::filled(1, 2, 1.0);
        let g = Matrix::filled(1, 2, 1.0);
        net.forward(&x);
        net.zero_grad();
        net.backward(&g);
        let norm_once = net.grad_norm();
        net.forward(&x);
        net.backward(&g); // no zero_grad: should accumulate
        let norm_twice = net.grad_norm();
        assert!((norm_twice - 2.0 * norm_once).abs() < 1e-4);
    }
}
