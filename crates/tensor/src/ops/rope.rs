//! Rotary position embeddings (RoPE).
//!
//! FPDT processes the sequence in chunks, so RoPE must be applied with
//! *global* token positions rather than chunk-local offsets — a
//! [`RopeTable`] is therefore built from an explicit position per row. The
//! angles depend on nothing else, so a caller that rotates several
//! tensors at the same positions (q and k of every layer, then their
//! gradients) builds the table once. The backward pass is a rotation by
//! the negative angle (rotations are orthogonal).

use crate::{par, Result, Tensor, TensorError};

/// Tokens per pool item of [`RopeTable::apply_rows`]; the rotation is purely
/// per-element, so any partition gives identical bits.
const TOKEN_BLOCK: usize = 64;

/// `sin`/`cos` of `pos · base^(-2i/d)` for every row position and feature
/// pair: two `[seq, d/2]` tables, the only place RoPE evaluates a
/// transcendental.
#[derive(Debug, Clone)]
pub struct RopeTable {
    positions: Vec<usize>,
    half: usize,
    sin: Vec<f32>,
    cos: Vec<f32>,
}

impl RopeTable {
    /// Tabulates the rotation angles of `positions` for heads of
    /// `head_dim` features.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidSlice`] when `head_dim` is odd.
    pub fn new(positions: &[usize], head_dim: usize, base: f32) -> Result<Self> {
        if !head_dim.is_multiple_of(2) {
            return Err(TensorError::InvalidSlice {
                what: format!("rope head dim {head_dim} must be even"),
            });
        }
        let half = head_dim / 2;
        // inverse frequencies: base^(-2i/d)
        let inv_freq: Vec<f32> = (0..half)
            .map(|i| base.powf(-2.0 * i as f32 / head_dim as f32))
            .collect();
        let mut sin = Vec::with_capacity(positions.len() * half);
        let mut cos = Vec::with_capacity(positions.len() * half);
        for &pos in positions {
            for &f in &inv_freq {
                let (s, c) = (pos as f32 * f).sin_cos();
                sin.push(s);
                cos.push(c);
            }
        }
        Ok(RopeTable {
            positions: positions.to_vec(),
            half,
            sin,
            cos,
        })
    }

    /// The row positions the table was built for.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Rotates a `[n, heads, head_dim]` tensor whose rows are table rows
    /// `r0..r0 + n`, in place: each consecutive pair of features of row
    /// `t` turns by `positions[r0 + t] * base^(-2i/d)`. Any row range gives
    /// those rows' bits of a whole-table rotation.
    ///
    /// # Errors
    ///
    /// Returns a rank/shape error unless `x` is rank 3 with the table's
    /// head dim and its rows lie inside the table.
    pub fn apply_rows(&self, r0: usize, x: Tensor) -> Result<Tensor> {
        self.rotate(x, 1.0, r0)
    }

    /// Backward pass of [`RopeTable::apply_rows`]: rotates the upstream
    /// gradient of the same rows by the negative angles (the Jacobian of a
    /// rotation is its transpose), in place.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RopeTable::apply_rows`].
    pub fn apply_bwd_rows(&self, r0: usize, dy: Tensor) -> Result<Tensor> {
        self.rotate(dy, -1.0, r0)
    }

    /// Rotates `x`, whose rows are table rows `r0..`, in place.
    fn rotate(&self, mut x: Tensor, sign: f32, r0: usize) -> Result<Tensor> {
        check_rank(&x)?;
        let (s, h, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        if r0.saturating_add(s) > self.positions.len() || d != 2 * self.half {
            return Err(TensorError::ShapeMismatch {
                op: "rope",
                lhs: x.shape().to_vec(),
                rhs: vec![self.positions.len(), 2 * self.half],
            });
        }
        let (half, work) = (self.half, x.numel());
        par::run_rows(x.data_mut(), TOKEN_BLOCK * h * d, work, |blk, rows| {
            for (t, token) in rows.chunks_mut(h * d).enumerate() {
                let at = (r0 + blk * TOKEN_BLOCK + t) * half;
                let (sin, cos) = (&self.sin[at..at + half], &self.cos[at..at + half]);
                for head in token.chunks_mut(d) {
                    for (i, pair) in head.chunks_exact_mut(2).enumerate() {
                        let (a, b) = (pair[0], pair[1]);
                        let sn = sign * sin[i];
                        pair[0] = a * cos[i] - b * sn;
                        pair[1] = a * sn + b * cos[i];
                    }
                }
            }
        });
        Ok(x)
    }
}

fn check_rank(x: &Tensor) -> Result<()> {
    if x.ndim() != 3 {
        return Err(TensorError::RankMismatch {
            op: "rope",
            expected: 3,
            actual: x.ndim(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    const BASE: f32 = 10_000.0;

    fn table(positions: &[usize], head_dim: usize) -> RopeTable {
        RopeTable::new(positions, head_dim, BASE).unwrap()
    }

    fn rope(x: &Tensor, positions: &[usize]) -> Tensor {
        table(positions, x.shape()[2])
            .apply_rows(0, x.clone())
            .unwrap()
    }

    #[test]
    fn position_zero_is_identity() {
        let mut rng = init::seeded_rng(40);
        let x = init::randn(&mut rng, &[1, 2, 8], 1.0);
        let y = rope(&x, &[0]);
        assert!(y.allclose(&x, 1e-6, 1e-7));
    }

    #[test]
    fn rope_preserves_norm() {
        let mut rng = init::seeded_rng(41);
        let x = init::randn(&mut rng, &[4, 2, 8], 1.0);
        let y = rope(&x, &[0, 5, 10, 1000]);
        assert!((x.norm() - y.norm()).abs() < 1e-3);
    }

    #[test]
    fn bwd_inverts_fwd() {
        let mut rng = init::seeded_rng(42);
        let x = init::randn(&mut rng, &[3, 2, 8], 1.0);
        let pos = [7, 20, 33];
        let y = rope(&x, &pos);
        let back = table(&pos, 8).apply_bwd_rows(0, y).unwrap();
        assert!(back.allclose(&x, 1e-4, 1e-5));
    }

    #[test]
    fn dot_products_depend_only_on_relative_position() {
        // The defining property of RoPE: <rope(q, m), rope(k, n)> depends
        // only on (m - n) for a fixed pair (q, k).
        let mut rng = init::seeded_rng(43);
        let q = init::randn(&mut rng, &[1, 1, 16], 1.0);
        let k = init::randn(&mut rng, &[1, 1, 16], 1.0);
        let dot = |m: usize, n: usize| {
            let qr = rope(&q, &[m]);
            let kr = rope(&k, &[n]);
            qr.data()
                .iter()
                .zip(kr.data())
                .map(|(&a, &b)| a * b)
                .sum::<f32>()
        };
        let d1 = dot(10, 3);
        let d2 = dot(107, 100);
        assert!((d1 - d2).abs() < 1e-3, "{d1} vs {d2}");
    }

    #[test]
    fn chunked_positions_match_global() {
        // Applying rope to a full sequence equals applying it per chunk
        // with global positions — the invariant FPDT relies on.
        let mut rng = init::seeded_rng(44);
        let x = init::randn(&mut rng, &[8, 2, 8], 1.0);
        let pos: Vec<usize> = (0..8).collect();
        let full = rope(&x, &pos);
        let mut parts = Vec::new();
        for c in 0..4 {
            let chunk = x.narrow(0, c * 2, 2).unwrap();
            parts.push(rope(&chunk, &pos[c * 2..c * 2 + 2]));
        }
        let refs: Vec<&Tensor> = parts.iter().collect();
        let stitched = Tensor::concat(&refs, 0).unwrap();
        assert!(stitched.allclose(&full, 1e-6, 1e-7));
    }

    #[test]
    fn a_row_range_rotation_is_those_rows_of_the_whole_one() {
        // 70 rows straddle a token block; ranges start inside one. Both
        // directions: the forward's per-chunk rotation and the backward's.
        let pos: Vec<usize> = (0..70).map(|p| 3 * p + 1).collect();
        let t = table(&pos, 8);
        let x = init::randn(&mut init::seeded_rng(9), &[70, 3, 8], 1.0);
        let bits = |x: &Tensor| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        type Rows = fn(&RopeTable, usize, Tensor) -> Result<Tensor>;
        let ways: [(Tensor, Rows); 2] = [
            (t.apply_rows(0, x.clone()).unwrap(), RopeTable::apply_rows),
            (
                t.apply_bwd_rows(0, x.clone()).unwrap(),
                RopeTable::apply_bwd_rows,
            ),
        ];
        for (whole, rows_of) in ways {
            for (r0, n) in [(0, 70), (0, 5), (5, 64), (66, 4)] {
                let rows = rows_of(&t, r0, x.narrow(0, r0, n).unwrap()).unwrap();
                assert_eq!(
                    bits(&rows),
                    bits(&whole.narrow(0, r0, n).unwrap()),
                    "rows {r0}..{}",
                    r0 + n
                );
            }
            assert!(
                rows_of(&t, 67, x.narrow(0, 0, 4).unwrap()).is_err(),
                "past the table"
            );
        }
    }

    #[test]
    fn rope_errors() {
        assert!(RopeTable::new(&[0, 1], 7, BASE).is_err()); // odd head dim
        let x = Tensor::zeros(&[2, 2, 8]);
        assert!(table(&[0], 8).apply_rows(0, x).is_err()); // wrong positions len
        assert!(table(&[0], 4)
            .apply_rows(0, Tensor::zeros(&[4, 4]))
            .is_err()); // rank
    }
}
