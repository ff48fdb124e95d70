use crate::{init, Result, Tensor, TensorError};
use rand::rngs::SmallRng;

/// A token embedding table `[vocab, dim]`.
///
/// Also provides the tied output projection used by the reproduction's GPT
/// (logits = hidden @ tableᵀ), so the final vocabulary GEMM — the §5.4
/// memory-spike — reuses these weights.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Embedding table `[vocab, dim]`.
    pub weight: Tensor,
}

impl Embedding {
    /// Creates an embedding table with `N(0, 0.02)` entries.
    pub fn new(vocab: usize, dim: usize, rng: &mut SmallRng) -> Self {
        Embedding {
            weight: init::randn(rng, &[vocab, dim], 0.02),
        }
    }

    /// Creates an all-zero table of the same shape, for a caller that is
    /// about to overwrite the parameters.
    pub fn zeros(vocab: usize, dim: usize) -> Self {
        Embedding {
            weight: Tensor::zeros(&[vocab, dim]),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.weight.shape()[0]
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.weight.shape()[1]
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.weight.numel()
    }

    /// Gathers rows for the given token ids, producing `[n, dim]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSlice`] if any id is out of range.
    pub fn forward(&self, ids: &[usize]) -> Result<Tensor> {
        let (v, d) = (self.vocab(), self.dim());
        let mut out = Vec::with_capacity(ids.len() * d);
        for &id in ids {
            if id >= v {
                return Err(TensorError::InvalidSlice {
                    what: format!("token id {id} out of vocab {v}"),
                });
            }
            out.extend_from_slice(&self.weight.data()[id * d..(id + 1) * d]);
        }
        Tensor::from_vec(out, &[ids.len(), d])
    }

    /// Scatter-adds `dy` rows into `grad`, the table's gradient
    /// (`vocab * dim` floats, row-major like the table).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `dy` is not
    /// `[ids.len(), dim]` and [`TensorError::LengthMismatch`] when `grad`
    /// is not the table's size.
    pub fn backward(&self, ids: &[usize], dy: &Tensor, grad: &mut [f32]) -> Result<()> {
        let d = self.dim();
        if grad.len() != self.param_count() {
            return Err(TensorError::LengthMismatch {
                expected: self.param_count(),
                actual: grad.len(),
            });
        }
        if dy.shape() != [ids.len(), d] {
            return Err(TensorError::ShapeMismatch {
                op: "embedding_bwd",
                lhs: vec![ids.len(), d],
                rhs: dy.shape().to_vec(),
            });
        }
        for (row, &id) in ids.iter().enumerate() {
            let src = &dy.data()[row * d..(row + 1) * d];
            for (g, s) in grad[id * d..(id + 1) * d].iter_mut().zip(src) {
                *g += s;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gathers_expected_rows() {
        let mut rng = init::seeded_rng(60);
        let emb = Embedding::new(5, 3, &mut rng);
        let out = emb.forward(&[4, 0, 4]).unwrap();
        assert_eq!(out.shape(), &[3, 3]);
        assert_eq!(&out.data()[..3], &out.data()[6..9]);
        assert_eq!(&out.data()[..3], &emb.weight.data()[12..15]);
    }

    #[test]
    fn rejects_out_of_vocab() {
        let mut rng = init::seeded_rng(61);
        let emb = Embedding::new(5, 3, &mut rng);
        assert!(emb.forward(&[5]).is_err());
    }

    #[test]
    fn backward_scatter_adds_duplicates() {
        let mut rng = init::seeded_rng(62);
        let emb = Embedding::new(4, 2, &mut rng);
        let dy = Tensor::ones(&[3, 2]);
        let mut grad = vec![0.0f32; 8];
        emb.backward(&[1, 1, 3], &dy, &mut grad).unwrap();
        assert_eq!(&grad[2..4], &[2.0, 2.0]); // id 1 twice
        assert_eq!(&grad[6..8], &[1.0, 1.0]); // id 3 once
        assert_eq!(&grad[0..2], &[0.0, 0.0]);
    }

    #[test]
    fn backward_shape_checked() {
        let mut rng = init::seeded_rng(63);
        let emb = Embedding::new(4, 2, &mut rng);
        assert!(emb
            .backward(&[0], &Tensor::zeros(&[2, 2]), &mut [0.0; 8])
            .is_err());
        assert!(emb
            .backward(&[0], &Tensor::zeros(&[1, 2]), &mut [0.0; 7])
            .is_err());
    }
}
