//! Multi-layer perceptrons with flat-parameter access.
//!
//! Every block of the LTE classifier (UIS-feature embedding `f_θR`, tuple
//! embedding `f_θτ`, classification `f_θclf`; §VI-A) is an [`Mlp`]. The
//! meta-learner manipulates block parameters as flat vectors:
//! `|θR|`-length slices are stored per-row in the UIS-feature memory `MR`
//! (Eq. 8) and blended into initializations (Eq. 6), so [`Mlp::write_params`]
//! / [`Mlp::read_params`] define a stable flat layout (per layer: weights
//! row-major, then biases).

use crate::activation::Activation;
use crate::dense::Dense;
use crate::matrix::Matrix;
use crate::matrix32::Matrix32;
use rand::Rng;

/// A sequential stack of dense layers with per-layer activations.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    acts: Vec<Activation>,
}

/// Cached intermediate state of one forward pass, needed for backprop,
/// plus the backward pass's scratch. Reusable: [`Mlp::forward_into`] and
/// the `*_into` backward passes overwrite it in place, so after its first
/// use with a network it allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct MlpCache {
    /// `values[0]` is the network input, `values[i + 1]` the output of
    /// layer `i` (so the last entry is the network output).
    values: Vec<Vec<f64>>,
    /// Pre-activation output of each layer.
    pre_acts: Vec<Vec<f64>>,
    /// Backward scratch: `dL/d(pre-activation)` of each layer.
    deltas: Vec<Vec<f64>>,
}

impl MlpCache {
    /// The forward output this cache corresponds to.
    ///
    /// # Panics
    /// Panics when no forward pass has been run through the cache.
    pub fn output(&self) -> &[f64] {
        self.values.last().expect("no forward pass cached")
    }
}

/// The one backward traversal of an MLP: walks the layers top-down,
/// turning each layer's output gradient into its pre-activation gradient
/// `dz`, and hands `(layer, layer input, dz, dx)` to `layer_backward`,
/// which consumes the parameter gradient and writes `dx = Wᵀ·dz` — into
/// the next layer's scratch, or for the first layer into `dx_out` (`None`
/// skips that product).
fn backward_layers(
    acts: &[Activation],
    cache: &mut MlpCache,
    grad_out: &[f64],
    mut dx_out: Option<&mut [f64]>,
    mut layer_backward: impl FnMut(usize, &[f64], &[f64], Option<&mut [f64]>),
) {
    let n = acts.len();
    let MlpCache {
        values,
        pre_acts,
        deltas,
    } = cache;
    assert_eq!(pre_acts.len(), n, "cache is not from this network");
    assert_eq!(
        grad_out.len(),
        pre_acts[n - 1].len(),
        "output gradient width mismatch"
    );
    deltas.resize_with(n, Vec::new);
    let top = &mut deltas[n - 1];
    top.clear();
    top.extend(
        grad_out
            .iter()
            .zip(&pre_acts[n - 1])
            .map(|(&g, &z)| g * acts[n - 1].derivative(z)),
    );
    for i in (0..n).rev() {
        let (below, here) = deltas.split_at_mut(i);
        let dx = match below.last_mut() {
            Some(d) => {
                d.resize(pre_acts[i - 1].len(), 0.0);
                Some(d.as_mut_slice())
            }
            None => dx_out.take(),
        };
        layer_backward(i, &values[i], &here[0], dx);
        if let Some(d) = below.last_mut() {
            for (dv, &z) in d.iter_mut().zip(&pre_acts[i - 1]) {
                *dv *= acts[i - 1].derivative(z);
            }
        }
    }
}

/// Flat-parameter range of layer `i` (the [`Mlp::write_params`] layout).
fn layer_range(layers: &[Dense], i: usize) -> std::ops::Range<usize> {
    let start: usize = layers[..i].iter().map(Dense::param_count).sum();
    start..start + layers[i].param_count()
}

impl Mlp {
    /// Build an MLP with the given layer dimensions and hidden activation.
    ///
    /// `dims = [in, h1, ..., out]` produces `dims.len() - 1` layers; all but
    /// the last use `hidden_act`, the last uses `out_act`. Weights are
    /// He-uniform initialized.
    ///
    /// # Panics
    /// Panics when `dims` has fewer than two entries.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least one layer");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        let mut acts = Vec::with_capacity(dims.len() - 1);
        for w in dims.windows(2) {
            layers.push(Dense::he_init(w[0], w[1], rng));
        }
        for i in 0..layers.len() {
            acts.push(if i + 1 == layers.len() {
                out_act
            } else {
                hidden_act
            });
        }
        Self { layers, acts }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Copy all parameters into a flat vector.
    pub fn params(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.param_count()];
        self.write_params(&mut out);
        out
    }

    /// Copy all parameters into a flat slice.
    ///
    /// # Panics
    /// Panics when `out.len() != param_count()`.
    pub fn write_params(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.param_count(), "flat size mismatch");
        let mut off = 0;
        for layer in &self.layers {
            let n = layer.param_count();
            layer.write_params(&mut out[off..off + n]);
            off += n;
        }
    }

    /// Load all parameters from a flat slice.
    ///
    /// # Panics
    /// Panics when `src.len() != param_count()`.
    pub fn read_params(&mut self, src: &[f64]) {
        assert_eq!(src.len(), self.param_count(), "flat size mismatch");
        let mut off = 0;
        for layer in &mut self.layers {
            let n = layer.param_count();
            layer.read_params(&src[off..off + n]);
            off += n;
        }
    }

    /// Plain forward pass.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut cur = x.to_vec();
        for (layer, act) in self.layers.iter().zip(&self.acts) {
            let mut z = layer.forward(&cur);
            act.apply_slice(&mut z);
            cur = z;
        }
        cur
    }

    /// Batched forward pass: one input tuple per row of `x`
    /// (`batch × in_dim`), one output per row of the result
    /// (`batch × out_dim`). The batch form is the serving hot path: pool
    /// scoring does one matrix product per layer instead of a per-point
    /// `dot` loop. Each output row agrees with [`Mlp::forward`] on the
    /// corresponding input row bitwise (see [`Matrix::matmul_nt`]: the
    /// tiled kernel preserves per-output summation order) and depends
    /// only on that row — batch composition never changes a row's result.
    ///
    /// ```
    /// use lte_nn::{Activation, Matrix, Mlp};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let mlp = Mlp::new(&[4, 8, 1], Activation::Relu, Activation::Identity, &mut rng);
    /// let rows = vec![vec![0.1, 0.2, 0.3, 0.4], vec![0.5, 0.6, 0.7, 0.8]];
    /// let batch = mlp.forward_batch(&Matrix::from_rows(&rows, 4));
    /// assert_eq!(batch.row(1), mlp.forward(&rows[1]).as_slice());
    /// ```
    ///
    /// # Panics
    /// Panics when `x.cols() != in_dim()`.
    pub fn forward_batch(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.in_dim(), "batch input width mismatch");
        let mut cur = None;
        for (layer, act) in self.layers.iter().zip(&self.acts) {
            let mut z = layer.forward_batch(cur.as_ref().unwrap_or(x));
            act.apply_slice(z.data_mut());
            cur = Some(z);
        }
        cur.expect("an MLP has at least one layer")
    }

    /// Single-precision batched forward pass: [`Mlp::forward_batch`] on
    /// the SIMD `f32` kernels with each layer's bias add and activation
    /// **fused into the kernel epilogue**
    /// ([`Dense::forward_batch_f32_act`]) — one sweep per layer output
    /// instead of three (matmul, bias pass, activation pass).
    /// Use for pool *ranking*, where only the order of outputs matters:
    /// outputs track the `f64` path to within `f32` round-off accumulated
    /// over the layers (see [`lte_nn::matrix32`](crate::matrix32) for the
    /// contract), but are not bit-comparable to it, and the `f64` path
    /// remains the reference for gradcheck and training.
    ///
    /// # Panics
    /// Panics when `x.cols() != in_dim()`.
    pub fn forward_batch_f32(&self, x: &Matrix32) -> Matrix32 {
        assert_eq!(x.cols(), self.in_dim(), "batch input width mismatch");
        let mut cur = None;
        for (layer, act) in self.layers.iter().zip(&self.acts) {
            let z = layer.forward_batch_f32_act(cur.as_ref().unwrap_or(x), *act);
            cur = Some(z);
        }
        cur.expect("an MLP has at least one layer")
    }

    /// Forward pass retaining the per-layer state needed by
    /// [`Mlp::backward`].
    pub fn forward_cache(&self, x: &[f64]) -> MlpCache {
        let mut cache = MlpCache::default();
        self.forward_into(x, &mut cache);
        cache
    }

    /// [`Mlp::forward_cache`] into a reusable cache (bitwise identical;
    /// allocation-free once the cache has seen this network).
    ///
    /// # Panics
    /// Panics when `x.len() != in_dim()`.
    pub fn forward_into(&self, x: &[f64], cache: &mut MlpCache) {
        let n = self.layers.len();
        cache.values.resize_with(n + 1, Vec::new);
        cache.pre_acts.resize_with(n, Vec::new);
        cache.values[0].clear();
        cache.values[0].extend_from_slice(x);
        for (i, (layer, act)) in self.layers.iter().zip(&self.acts).enumerate() {
            let pre = &mut cache.pre_acts[i];
            pre.resize(layer.out_dim(), 0.0);
            let (done, rest) = cache.values.split_at_mut(i + 1);
            layer.forward_into(&done[i], pre);
            let out = &mut rest[0];
            out.clear();
            out.extend(pre.iter().map(|&z| act.apply(z)));
        }
    }

    /// Backward pass. `grad_out` is `dL/d(output)`; gradients are
    /// *accumulated* into `grad` (flat layout, same as [`Mlp::write_params`])
    /// and `dL/d(input)` is returned.
    ///
    /// # Panics
    /// Panics when `grad.len() != param_count()`.
    pub fn backward(&self, cache: &MlpCache, grad_out: &[f64], grad: &mut [f64]) -> Vec<f64> {
        let mut cache = cache.clone();
        let mut dx = vec![0.0; self.in_dim()];
        self.backward_into(&mut cache, grad_out, grad, Some(&mut dx));
        dx
    }

    /// Allocation-free [`Mlp::backward`] through a warm cache: gradients
    /// accumulated into `grad`, `dL/d(input)` written into `dx` only when
    /// asked for (skipping the first layer's `Wᵀ·dz` otherwise).
    ///
    /// # Panics
    /// Panics when `grad.len() != param_count()` or the cache holds no
    /// forward pass of this network.
    pub fn backward_into(
        &self,
        cache: &mut MlpCache,
        grad_out: &[f64],
        grad: &mut [f64],
        dx: Option<&mut [f64]>,
    ) {
        assert_eq!(grad.len(), self.param_count(), "flat size mismatch");
        backward_layers(&self.acts, cache, grad_out, dx, |i, x, dz, dx| {
            let range = layer_range(&self.layers, i);
            self.layers[i].backward_into(x, dz, &mut grad[range], dx);
        });
    }

    /// Fused SGD backward pass through a warm cache: every layer computes
    /// its `dx` with its pre-update weights, then updates its parameters in
    /// place (`p -= lr·(0.0 + g)`, see [`Dense::sgd_backward`]), adding each
    /// gradient into `acc` (flat layout) when given. Bitwise
    /// [`Mlp::backward_into`] on a zeroed gradient followed by
    /// [`Mlp::sgd_step`] for `lr ≥ 0`.
    ///
    /// # Panics
    /// Panics when `acc` is not `param_count()` long or the cache holds no
    /// forward pass of this network.
    pub fn sgd_backward(
        &mut self,
        cache: &mut MlpCache,
        grad_out: &[f64],
        lr: f64,
        mut acc: Option<&mut [f64]>,
        dx: Option<&mut [f64]>,
    ) {
        if let Some(acc) = &acc {
            assert_eq!(acc.len(), self.param_count(), "flat size mismatch");
        }
        let Mlp { layers, acts } = self;
        backward_layers(acts, cache, grad_out, dx, |i, x, dz, dx| {
            let range = layer_range(layers, i);
            let acc = acc.as_deref_mut().map(|a| &mut a[range]);
            layers[i].sgd_backward(x, dz, lr, acc, dx);
        });
    }

    /// In-place SGD step: `params -= lr · grad` (flat layout).
    ///
    /// # Panics
    /// Panics when `grad.len() != param_count()`.
    pub fn sgd_step(&mut self, grad: &[f64], lr: f64) {
        assert_eq!(grad.len(), self.param_count(), "flat size mismatch");
        let mut grad = grad;
        for layer in &mut self.layers {
            for part in [layer.w.data_mut(), layer.b.as_mut_slice()] {
                let (g, rest) = grad.split_at(part.len());
                for (p, g) in part.iter_mut().zip(g) {
                    *p -= lr * g;
                }
                grad = rest;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_and_counts() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[4, 8, 2], Activation::Relu, Activation::Identity, &mut rng);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 2);
        assert_eq!(mlp.n_layers(), 2);
        assert_eq!(mlp.param_count(), (4 * 8 + 8) + (8 * 2 + 2));
        assert_eq!(mlp.forward(&[0.1, 0.2, 0.3, 0.4]).len(), 2);
    }

    #[test]
    fn param_round_trip_preserves_behavior() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[3, 5, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let flat = mlp.params();
        let mut other = Mlp::new(&[3, 5, 1], Activation::Tanh, Activation::Identity, &mut rng);
        other.read_params(&flat);
        let x = [0.5, -0.5, 0.25];
        assert_eq!(mlp.forward(&x), other.forward(&x));
    }

    #[test]
    fn forward_cache_output_matches_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&[2, 4, 3], Activation::Relu, Activation::Sigmoid, &mut rng);
        let x = [0.3, -1.2];
        assert_eq!(mlp.forward(&x), mlp.forward_cache(&x).output());
    }

    #[test]
    fn forward_batch_rows_match_forward() {
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(
            &[6, 10, 4, 2],
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        let rows: Vec<Vec<f64>> = (0..17)
            .map(|i| (0..6).map(|j| ((i * 6 + j) as f64 * 0.21).cos()).collect())
            .collect();
        let batch = mlp.forward_batch(&Matrix::from_rows(&rows, 6));
        assert_eq!(batch.rows(), 17);
        assert_eq!(batch.cols(), 2);
        for (i, row) in rows.iter().enumerate() {
            let single = mlp.forward(row);
            for (a, b) in batch.row(i).iter().zip(&single) {
                assert!((a - b).abs() <= 1e-12, "row {i}: {a} vs {b}");
            }
        }
        let empty = mlp.forward_batch(&Matrix::from_rows(&[], 6));
        assert_eq!(empty.rows(), 0);
        assert_eq!(empty.cols(), 2);
    }

    #[test]
    fn backward_matches_finite_differences() {
        // Smooth activations only: ReLU kinks break finite differences.
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(
            &[3, 6, 4, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        );
        let x = [0.7, -0.2, 0.4];
        let max_err = gradcheck::max_param_grad_error(&mlp, &x);
        assert!(max_err < 1e-5, "max grad error {max_err}");
    }

    #[test]
    fn backward_input_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(
            &[3, 5, 1],
            Activation::Sigmoid,
            Activation::Identity,
            &mut rng,
        );
        let x = [0.1, 0.9, -0.4];
        let err = gradcheck::max_input_grad_error(&mlp, &x);
        assert!(err < 1e-5, "max input grad error {err}");
    }

    #[test]
    fn sgd_step_reduces_simple_loss() {
        // Minimize ||f(x)||² for a fixed input: loss must go down.
        let mut rng = StdRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Identity, &mut rng);
        let x = [0.5, -0.25];
        let loss = |m: &Mlp| -> f64 { m.forward(&x)[0].powi(2) };
        let before = loss(&mlp);
        for _ in 0..50 {
            let cache = mlp.forward_cache(&x);
            let dout = vec![2.0 * cache.output()[0]];
            let mut grad = vec![0.0; mlp.param_count()];
            mlp.backward(&cache, &dout, &mut grad);
            mlp.sgd_step(&grad, 0.1);
        }
        let after = loss(&mlp);
        assert!(after < before * 0.1, "before {before}, after {after}");
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn single_dim_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        Mlp::new(&[3], Activation::Relu, Activation::Identity, &mut rng);
    }
}
