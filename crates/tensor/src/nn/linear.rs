use crate::{init, ops, Result, Tensor};
use rand::rngs::SmallRng;

/// A dense layer `y = x @ W + b` with `W: [in_features, out_features]`.
///
/// Gradients accumulate into `dweight`/`dbias` across calls to
/// [`Linear::backward`], which is exactly what FPDT's chunked backward needs:
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
    /// Accumulated weight gradient.
    pub dweight: Tensor,
    /// Accumulated bias gradient.
    pub dbias: Option<Tensor>,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, bias: bool, rng: &mut SmallRng) -> Self {
        Linear {
            weight: init::xavier(rng, in_features, out_features),
            bias: bias.then(|| Tensor::zeros(&[out_features])),
            dweight: Tensor::zeros(&[in_features, out_features]),
            dbias: bias.then(|| Tensor::zeros(&[out_features])),
        }
    }

    /// Creates a layer of the same shape with every entry zero, for a
    /// caller that is about to overwrite the parameters.
    pub fn zeros(in_features: usize, out_features: usize, bias: bool) -> Self {
        Linear {
            weight: Tensor::zeros(&[in_features, out_features]),
            bias: bias.then(|| Tensor::zeros(&[out_features])),
            dweight: Tensor::zeros(&[in_features, out_features]),
            dbias: bias.then(|| Tensor::zeros(&[out_features])),
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

    /// Accumulates parameter gradients and returns `dx`.
    ///
    /// `x` must be the same activation passed to the matching
    /// [`Linear::forward`] call (FPDT re-materializes it per chunk).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying matmul.
    pub fn backward(&mut self, x: &Tensor, dy: &Tensor) -> Result<Tensor> {
        let (dx, dw) = ops::matmul_bwd(x, &self.weight, dy)?;
        self.dweight.add_assign(&dw)?;
        let out = self.out_features();
        if let Some(db) = &mut self.dbias {
            let grad = ops::add_bias_bwd(dy, out);
            db.add_assign(&grad)?;
        }
        Ok(dx)
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.dweight.zero_();
        if let Some(db) = &mut self.dbias {
            db.zero_();
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

        let mut whole = Linear::new(3, 2, true, &mut rng);
        let mut chunked = whole.clone();

        whole.backward(&x, &dy).unwrap();
        for c in 0..2 {
            let xc = x.narrow(0, c * 2, 2).unwrap();
            let dyc = dy.narrow(0, c * 2, 2).unwrap();
            chunked.backward(&xc, &dyc).unwrap();
        }
        assert!(chunked.dweight.allclose(&whole.dweight, 1e-5, 1e-6));
        assert!(chunked.dbias.as_ref().unwrap().allclose(
            whole.dbias.as_ref().unwrap(),
            1e-5,
            1e-6
        ));
    }

    #[test]
    fn zero_grad_resets() {
        let mut rng = init::seeded_rng(52);
        let mut layer = Linear::new(3, 2, true, &mut rng);
        let x = Tensor::ones(&[2, 3]);
        let dy = Tensor::ones(&[2, 2]);
        layer.backward(&x, &dy).unwrap();
        assert!(layer.dweight.max_abs() > 0.0);
        layer.zero_grad();
        assert_eq!(layer.dweight.max_abs(), 0.0);
        assert_eq!(layer.dbias.as_ref().unwrap().max_abs(), 0.0);
    }

    #[test]
    fn param_count() {
        let mut rng = init::seeded_rng(53);
        assert_eq!(Linear::new(3, 2, true, &mut rng).param_count(), 8);
        assert_eq!(Linear::new(3, 2, false, &mut rng).param_count(), 6);
    }
}
