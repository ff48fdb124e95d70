use super::split_grad;
use crate::{init, ops, Result, Tensor};
use rand::rngs::SmallRng;

/// A dense layer `y = x @ W + b` with `W: [in_features, out_features]`.
///
/// [`Linear::backward`] accumulates into the caller's gradient slice
/// (`[weight | bias]`), which is exactly what FPDT's chunked backward needs:
/// each sequence chunk contributes a partial weight gradient.
///
/// # Example
///
/// ```
/// use fpdt_tensor::{init, nn::Linear, Tensor};
/// # fn main() -> Result<(), fpdt_tensor::TensorError> {
/// let mut rng = init::seeded_rng(0);
/// let layer = Linear::new(4, 2, true, &mut rng);
/// let x = Tensor::ones(&[3, 4]);
/// let y = layer.forward(&x)?;
/// assert_eq!(y.shape(), &[3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix `[in_features, out_features]`.
    pub weight: Tensor,
    /// Optional bias `[out_features]`.
    pub bias: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut SmallRng) -> Self {
        Linear {
            weight: init::xavier(rng, in_features, out_features),
            bias: bias.then(|| Tensor::zeros(&[out_features])),
        }
    }

    /// Creates a layer of the same shape with every entry zero, for a
    /// caller that is about to overwrite the parameters.
    pub fn zeros(in_features: usize, out_features: usize, bias: bool) -> Self {
        Linear {
            weight: Tensor::zeros(&[in_features, out_features]),
            bias: bias.then(|| Tensor::zeros(&[out_features])),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.weight.numel() + self.bias.as_ref().map_or(0, Tensor::numel)
    }

    /// Computes `x @ W (+ b)` for `x: [..., in_features]`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying matmul.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let y = ops::matmul(x, &self.weight)?;
        match &self.bias {
            Some(b) => ops::add_bias(&y, b),
            None => Ok(y),
        }
    }

    /// Adds the parameter gradients into `grad` (`[weight | bias]`,
    /// [`Linear::param_count`] floats) and returns `dx`: the composition of
    /// [`Linear::backward_dx`] and [`Linear::backward_params`].
    ///
    /// `x` must be the same activation passed to the matching
    /// [`Linear::forward`] call (FPDT re-materializes it per chunk).
    ///
    /// # Errors
    ///
    /// As [`Linear::backward_dx`] and [`Linear::backward_params`]; `grad`
    /// is left as it was on error.
    pub fn backward(&self, x: &Tensor, dy: &Tensor, grad: &mut [f32]) -> Result<Tensor> {
        let dx = self.backward_dx(dy)?;
        self.backward_params(x, dy, grad)?;
        Ok(dx)
    }

    /// The input gradient `dx = dy @ Wᵀ` for `dy: [..., out_features]`:
    /// the half of the backward that needs no saved activation, so a
    /// caller can form it before it rebuilds the layer's input.
    ///
    /// # Errors
    ///
    /// [`crate::TensorError::ShapeMismatch`] unless `dy` has rank 2 or more
    /// and ends in `out_features`.
    pub fn backward_dx(&self, dy: &Tensor) -> Result<Tensor> {
        let (k, n) = (self.in_features(), self.out_features());
        if dy.shape().len() < 2 || dy.shape().last() != Some(&n) {
            return Err(self.shape_error(dy));
        }
        let rows = dy.numel() / n.max(1);
        let mut shape = dy.shape().to_vec();
        *shape.last_mut().expect("rank 2 or more") = k;
        let mut dx = vec![0.0; rows * k];
        ops::gemm_nt(rows, n, k, dy.data(), self.weight.data(), &mut dx);
        Tensor::from_vec(dx, &shape)
    }

    /// Adds the parameter gradients `xᵀ @ dy` (and the column sums of `dy`
    /// for the bias) into `grad` (`[weight | bias]`,
    /// [`Linear::param_count`] floats). Each element sums its rows in
    /// ascending order, so the bits match [`Linear::backward`]'s.
    ///
    /// # Errors
    ///
    /// A `grad` of the wrong length is a
    /// [`crate::TensorError::LengthMismatch`]; an `x` and `dy` that do not
    /// hold the same rows of `in_features` and `out_features` values a
    /// [`crate::TensorError::ShapeMismatch`]. Nothing is written on error.
    pub fn backward_params(&self, x: &Tensor, dy: &Tensor, grad: &mut [f32]) -> Result<()> {
        let (k, n) = (self.in_features(), self.out_features());
        let bias_len = self.bias.as_ref().map_or(0, Tensor::numel);
        let [gw, gb] = split_grad(grad, [self.weight.numel(), bias_len])?;
        let rows = dy.numel() / n.max(1);
        if dy.shape().len() < 2
            || dy.shape().last() != Some(&n)
            || x.shape().last() != Some(&k)
            || x.numel() != rows * k
        {
            return Err(self.shape_error(x));
        }
        ops::gemm_tn(k, rows, n, x.data(), dy.data(), gw);
        ops::add_bias_bwd_into(dy, gb);
        Ok(())
    }

    fn shape_error(&self, got: &Tensor) -> crate::TensorError {
        crate::TensorError::ShapeMismatch {
            op: "linear_bwd",
            lhs: got.shape().to_vec(),
            rhs: self.weight.shape().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_bias() {
        let mut rng = init::seeded_rng(50);
        let mut layer = Linear::new(3, 2, true, &mut rng);
        layer.weight = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0], &[3, 2]).unwrap();
        layer.bias = Some(Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap());
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = layer.forward(&x).unwrap();
        // y0 = 1*1 + 2*0 + 3*1 + 0.5 = 4.5 ; y1 = 0 + 2 + 3 - 0.5 = 4.5
        assert_eq!(y.data(), &[4.5, 4.5]);
    }

    #[test]
    fn backward_accumulates_over_chunks() {
        let mut rng = init::seeded_rng(51);
        let x = init::randn(&mut rng, &[4, 3], 1.0);
        let dy = init::randn(&mut rng, &[4, 2], 1.0);

        let layer = Linear::new(3, 2, true, &mut rng);
        let mut whole = vec![0.0f32; layer.param_count()];
        let mut chunked = whole.clone();

        layer.backward(&x, &dy, &mut whole).unwrap();
        for c in 0..2 {
            let xc = x.narrow(0, c * 2, 2).unwrap();
            let dyc = dy.narrow(0, c * 2, 2).unwrap();
            layer.backward(&xc, &dyc, &mut chunked).unwrap();
        }
        assert!(
            whole.iter().all(|g| *g != 0.0),
            "weight and bias both filled"
        );
        for (c, w) in chunked.iter().zip(&whole) {
            assert!((c - w).abs() <= 1e-6 + 1e-5 * w.abs(), "{c} vs {w}");
        }
    }

    #[test]
    fn backward_adds_into_a_prefilled_slice() {
        let mut rng = init::seeded_rng(54);
        let x = init::randn(&mut rng, &[5, 3], 1.0);
        let dy = init::randn(&mut rng, &[5, 2], 1.0);
        for bias in [true, false] {
            let layer = Linear::new(3, 2, bias, &mut rng);
            let mut fresh = vec![0.0f32; layer.param_count()];
            layer.backward(&x, &dy, &mut fresh).unwrap();
            assert!(fresh.iter().all(|g| *g != 0.0));
            let prefill: Vec<f32> = (0..fresh.len()).map(|i| 10.0 + i as f32).collect();
            let mut grad = prefill.clone();
            layer.backward(&x, &dy, &mut grad).unwrap();
            for ((g, p), f) in grad.iter().zip(&prefill).zip(&fresh) {
                assert!((g - (p + f)).abs() <= 1e-5, "{g} vs {p} + {f}");
            }
        }
    }

    #[test]
    fn backward_is_its_two_halves_bit_for_bit() {
        let mut rng = init::seeded_rng(55);
        let x = init::randn(&mut rng, &[2, 7, 5], 1.0);
        let dy = init::randn(&mut rng, &[2, 7, 3], 1.0);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for bias in [true, false] {
            let layer = Linear::new(5, 3, bias, &mut rng);
            let mut whole = vec![0.5f32; layer.param_count()];
            let dx = layer.backward(&x, &dy, &mut whole).unwrap();
            let mut halves = vec![0.5f32; layer.param_count()];
            let dx2 = layer.backward_dx(&dy).unwrap();
            layer.backward_params(&x, &dy, &mut halves).unwrap();
            assert_eq!(dx.shape(), x.shape());
            assert_eq!(bits(dx.data()), bits(dx2.data()));
            assert_eq!(bits(&whole), bits(&halves));
            assert!(layer.backward_dx(&x).is_err());
            assert!(layer.backward_params(&dy, &dy, &mut halves).is_err());
        }
    }

    #[test]
    fn backward_rejects_a_slice_of_the_wrong_length() {
        let mut rng = init::seeded_rng(52);
        let x = Tensor::ones(&[2, 3]);
        let dy = Tensor::ones(&[2, 2]);
        for bias in [true, false] {
            let layer = Linear::new(3, 2, bias, &mut rng);
            let n = layer.param_count();
            for len in [n - 1, n + 1] {
                assert!(matches!(
                    layer.backward(&x, &dy, &mut vec![0.0; len]),
                    Err(crate::TensorError::LengthMismatch { .. })
                ));
            }
        }
    }

    #[test]
    fn param_count() {
        let mut rng = init::seeded_rng(53);
        assert_eq!(Linear::new(3, 2, true, &mut rng).param_count(), 8);
        assert_eq!(Linear::new(3, 2, false, &mut rng).param_count(), 6);
    }
}
