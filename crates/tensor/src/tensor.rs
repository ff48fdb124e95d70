use crate::{Result, TensorError};
use serde::{Deserialize, Serialize};

/// A contiguous, row-major, arbitrarily-ranked `f32` tensor.
///
/// `Tensor` is the carrier type for all real numerics in the FPDT
/// reproduction: activations, parameters, gradients and sequence chunks.
/// It is intentionally simple — contiguous storage, copy-on-slice — because
/// FPDT's chunk pipeline is expressed entirely in terms of axis splitting,
/// concatenation and dense kernels.
///
/// # Example
///
/// ```
/// use fpdt_tensor::Tensor;
///
/// # fn main() -> Result<(), fpdt_tensor::TensorError> {
/// let t = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0], &[2, 3])?;
/// let halves = t.split(1, 3)?;
/// assert_eq!(halves.len(), 3);
/// assert_eq!(halves[0].data(), &[0.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor {
            data: Vec::new(),
            shape: vec![0],
        }
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    ///
    /// ```
    /// # use fpdt_tensor::Tensor;
    /// let z = Tensor::zeros(&[2, 4]);
    /// assert_eq!(z.numel(), 8);
    /// ```
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a rank-1 tensor `[0, 1, ..., n-1]`.
    pub fn arange(n: usize) -> Self {
        Tensor {
            data: (0..n).map(|i| i as f32).collect(),
            shape: vec![n],
        }
    }

    /// Wraps an existing buffer in a tensor of the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if data.len() != expected {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            data,
            shape: shape.to_vec(),
        })
    }

    /// The shape of the tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns a copy with a new shape covering the same elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            data: self.data.clone(),
            shape: shape.to_vec(),
        })
    }

    /// In-place variant of [`Tensor::reshape`]; avoids the copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the element counts differ.
    pub fn reshape_in_place(&mut self, shape: &[usize]) -> Result<()> {
        let expected: usize = shape.iter().product();
        if expected != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected,
                actual: self.data.len(),
            });
        }
        self.shape = shape.to_vec();
        Ok(())
    }

    /// Element access by multi-dimensional index (test/debug helper).
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Sets the element at a multi-dimensional index (test/debug helper).
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                ix < dim,
                "index {ix} out of bounds for axis {i} (len {dim})"
            );
            off = off * dim + ix;
        }
        off
    }

    /// Decomposes the shape around `axis` into `(outer, len, inner)` extents.
    fn axis_extents(&self, axis: usize) -> Result<(usize, usize, usize)> {
        if axis >= self.shape.len() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                ndim: self.shape.len(),
            });
        }
        let outer: usize = self.shape[..axis].iter().product();
        let len = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        Ok((outer, len, inner))
    }

    /// Copies out the sub-tensor `[.., start..start+len, ..]` along `axis`.
    ///
    /// This is the primitive FPDT uses to carve a local sequence into
    /// pipeline chunks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] or
    /// [`TensorError::InvalidSlice`] when the range exceeds the axis.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Result<Self> {
        let (outer, axis_len, inner) = self.axis_extents(axis)?;
        if start + len > axis_len {
            return Err(TensorError::InvalidSlice {
                what: format!(
                    "range {start}..{} exceeds axis length {axis_len}",
                    start + len
                ),
            });
        }
        let mut out = Vec::with_capacity(outer * len * inner);
        for o in 0..outer {
            let base = (o * axis_len + start) * inner;
            out.extend_from_slice(&self.data[base..base + len * inner]);
        }
        let mut shape = self.shape.clone();
        shape[axis] = len;
        Ok(Tensor { data: out, shape })
    }

    /// Splits the tensor into `parts` equal pieces along `axis`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSlice`] if `parts` does not evenly
    /// divide the axis, or [`TensorError::AxisOutOfRange`].
    pub fn split(&self, axis: usize, parts: usize) -> Result<Vec<Self>> {
        let (_, axis_len, _) = self.axis_extents(axis)?;
        if parts == 0 || axis_len % parts != 0 {
            return Err(TensorError::InvalidSlice {
                what: format!("cannot split axis of length {axis_len} into {parts} parts"),
            });
        }
        let step = axis_len / parts;
        (0..parts)
            .map(|p| self.narrow(axis, p * step, step))
            .collect()
    }

    /// Concatenates tensors along `axis`. All other axes must match.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSlice`] for an empty input list and
    /// [`TensorError::ShapeMismatch`] when non-`axis` extents differ.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Result<Self> {
        let first = *tensors.first().ok_or_else(|| TensorError::InvalidSlice {
            what: "concat of zero tensors".into(),
        })?;
        let (outer, _, inner) = first.axis_extents(axis)?;
        let mut total_axis = 0;
        for t in tensors {
            if t.ndim() != first.ndim()
                || t.shape[..axis] != first.shape[..axis]
                || t.shape[axis + 1..] != first.shape[axis + 1..]
            {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.shape.clone(),
                    rhs: t.shape.clone(),
                });
            }
            total_axis += t.shape[axis];
        }
        let mut shape = first.shape.clone();
        shape[axis] = total_axis;
        let mut data = Vec::with_capacity(outer * total_axis * inner);
        for o in 0..outer {
            for t in tensors {
                let len = t.shape[axis];
                let base = o * len * inner;
                data.extend_from_slice(&t.data[base..base + len * inner]);
            }
        }
        Ok(Tensor { data, shape })
    }

    /// Transposes a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose2(&self) -> Result<Self> {
        if self.ndim() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose2",
                expected: 2,
                actual: self.ndim(),
            });
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Tensor {
            data: out,
            shape: vec![c, r],
        })
    }

    /// Swaps the last two axes of a tensor of rank >= 2.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for rank < 2.
    pub fn swap_last_two(&self) -> Result<Self> {
        let nd = self.ndim();
        if nd < 2 {
            return Err(TensorError::RankMismatch {
                op: "swap_last_two",
                expected: 2,
                actual: nd,
            });
        }
        let r = self.shape[nd - 2];
        let c = self.shape[nd - 1];
        let batch: usize = self.shape[..nd - 2].iter().product();
        let mut out = vec![0.0; self.data.len()];
        for b in 0..batch {
            let base = b * r * c;
            for i in 0..r {
                for j in 0..c {
                    out[base + j * r + i] = self.data[base + i * c + j];
                }
            }
        }
        let mut shape = self.shape.clone();
        shape.swap(nd - 2, nd - 1);
        Ok(Tensor { data: out, shape })
    }

    /// Elementwise addition of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, "add", |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Self> {
        self.zip_map(other, "mul", |a, b| a * b)
    }

    /// In-place `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other` (BLAS `axpy`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a copy scaled by `alpha`.
    pub fn scale(&self, alpha: f32) -> Self {
        self.map(|x| x * alpha)
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Tensor {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    fn zip_map(
        &self,
        other: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(Tensor {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest absolute element (0 for an empty tensor).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// `true` when `self` and `other` have the same shape and every element
    /// differs by at most `atol + rtol * |other|`.
    pub fn allclose(&self, other: &Tensor, rtol: f32, atol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= atol + rtol * b.abs())
    }
}

impl std::fmt::Display for Tensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tensor{:?}[{} elems]", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_have_expected_contents() {
        assert!(Tensor::zeros(&[2, 3]).data().iter().all(|&x| x == 0.0));
        assert!(Tensor::ones(&[4]).data().iter().all(|&x| x == 1.0));
        assert_eq!(Tensor::full(&[2], 7.5).data(), &[7.5, 7.5]);
        let e = Tensor::eye(3);
        assert_eq!(e.at(&[1, 1]), 1.0);
        assert_eq!(e.at(&[1, 2]), 0.0);
        assert_eq!(Tensor::arange(4).data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert_eq!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]).unwrap_err(),
            TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn reshape_round_trips() {
        let t = Tensor::arange(12).reshape(&[3, 4]).unwrap();
        let u = t.reshape(&[2, 6]).unwrap();
        assert_eq!(u.shape(), &[2, 6]);
        assert_eq!(u.data(), t.data());
        assert!(t.reshape(&[5, 5]).is_err());
    }

    #[test]
    fn narrow_middle_axis() {
        // shape [2, 4, 3]
        let t = Tensor::arange(24).reshape(&[2, 4, 3]).unwrap();
        let n = t.narrow(1, 1, 2).unwrap();
        assert_eq!(n.shape(), &[2, 2, 3]);
        // first outer block, rows 1..3 of original
        assert_eq!(&n.data()[..6], &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        // second outer block starts at 12 + 3
        assert_eq!(&n.data()[6..12], &[15.0, 16.0, 17.0, 18.0, 19.0, 20.0]);
    }

    #[test]
    fn split_concat_round_trip() {
        let t = Tensor::arange(24).reshape(&[2, 4, 3]).unwrap();
        for axis in 0..3 {
            let parts = t.shape()[axis];
            let pieces = t.split(axis, parts).unwrap();
            let refs: Vec<&Tensor> = pieces.iter().collect();
            let back = Tensor::concat(&refs, axis).unwrap();
            assert_eq!(back, t, "axis {axis}");
        }
    }

    #[test]
    fn split_rejects_uneven() {
        let t = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        assert!(t.split(1, 2).is_err());
        assert!(t.split(0, 0).is_err());
        assert!(t.split(3, 1).is_err());
    }

    #[test]
    fn concat_rejects_mismatched() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 3]);
        assert!(Tensor::concat(&[&a, &b], 1).is_err());
        assert!(Tensor::concat(&[], 0).is_err());
    }

    #[test]
    fn transpose2_is_involution() {
        let t = Tensor::arange(6).reshape(&[2, 3]).unwrap();
        let tt = t.transpose2().unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), t.at(&[1, 2]));
        assert_eq!(tt.transpose2().unwrap(), t);
        assert!(Tensor::arange(3).transpose2().is_err());
    }

    #[test]
    fn swap_last_two_batched() {
        let t = Tensor::arange(12).reshape(&[2, 2, 3]).unwrap();
        let s = t.swap_last_two().unwrap();
        assert_eq!(s.shape(), &[2, 3, 2]);
        assert_eq!(s.at(&[1, 2, 0]), t.at(&[1, 0, 2]));
    }

    #[test]
    fn elementwise_math() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[3.0, 10.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.data(), &[7.0, 12.0]);
        assert!(a.add(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-3.0, 4.0], &[2]).unwrap();
        assert_eq!(t.sum(), 1.0);
        assert_eq!(t.mean(), 0.5);
        assert_eq!(t.max_abs(), 4.0);
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn allclose_tolerances() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0 + 1e-6, 2.0 - 1e-6], &[2]).unwrap();
        assert!(a.allclose(&b, 1e-5, 1e-5));
        assert!(!a.allclose(&Tensor::zeros(&[2]), 1e-5, 1e-5));
        assert!(!a.allclose(&Tensor::zeros(&[3]), 1.0, 1e9));
    }

    #[test]
    fn default_is_empty_but_debug_nonempty() {
        let d = Tensor::default();
        assert_eq!(d.numel(), 0);
        assert!(!format!("{d:?}").is_empty());
        assert!(!format!("{d}").is_empty());
    }
}
