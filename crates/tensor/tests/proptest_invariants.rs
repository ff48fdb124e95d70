//! Property-based invariants of the tensor core: slicing round-trips,
//! linearity of the kernels, and gradient consistency.

use fpdt_tensor::{init, ops, Tensor};
use proptest::prelude::*;

/// Textbook triple loop, the oracle for the tiled/packed gemm.
fn naive_matmul(a: &Tensor, b: &Tensor, m: usize, k: usize, n: usize) -> Tensor {
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for l in 0..k {
            let av = a.data()[i * k + l];
            for j in 0..n {
                c[i * n + j] += av * b.data()[l * n + j];
            }
        }
    }
    Tensor::from_vec(c, &[m, n]).unwrap()
}

/// Maps a sampled index to a dimension that straddles a gemm tile
/// boundary (`MC = 32`, `KC = 256`, `NC = 512`) or is degenerate.
fn edge_dim(tile: usize, idx: usize) -> usize {
    [1, 2, 3, tile - 1, tile, tile + 1][idx % 6]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn tiled_matmul_matches_naive(
        seed in 0u64..1000,
        mi in 0usize..6,
        ki in 0usize..6,
        ni in 0usize..6,
    ) {
        let (m, k, n) = (edge_dim(32, mi), edge_dim(256, ki), edge_dim(64, ni));
        let mut rng = init::seeded_rng(seed);
        let a = init::randn(&mut rng, &[m, k], 1.0);
        let b = init::randn(&mut rng, &[k, n], 1.0);
        let got = ops::matmul(&a, &b).unwrap();
        let want = naive_matmul(&a, &b, m, k, n);
        prop_assert!(got.allclose(&want, 1e-3, 1e-4));
    }

    #[test]
    fn tiled_matmul_bwd_matches_naive_transposes(
        seed in 0u64..1000,
        mi in 0usize..6,
        ki in 0usize..6,
        ni in 0usize..6,
    ) {
        // dA = dC Bᵀ and dB = Aᵀ dC; validate the gemm_nt / gemm_tn tiles
        // against naive matmuls of explicitly transposed operands.
        let (m, k, n) = (edge_dim(32, mi), edge_dim(64, ki), edge_dim(64, ni));
        let mut rng = init::seeded_rng(seed);
        let a = init::randn(&mut rng, &[m, k], 1.0);
        let b = init::randn(&mut rng, &[k, n], 1.0);
        let dc = init::randn(&mut rng, &[m, n], 1.0);
        let (da, db) = ops::matmul_bwd(&a, &b, &dc).unwrap();
        let bt = b.transpose2().unwrap();
        let at = a.transpose2().unwrap();
        let want_da = naive_matmul(&dc, &bt, m, n, k);
        let want_db = naive_matmul(&at, &dc, k, m, n);
        prop_assert!(da.allclose(&want_da, 1e-3, 1e-4));
        prop_assert!(db.allclose(&want_db, 1e-3, 1e-4));
    }

    #[test]
    fn split_concat_identity(
        seed in 0u64..1000,
        outer in 1usize..4,
        axis_len in 1usize..7,
        inner in 1usize..4,
        axis in 0usize..3,
    ) {
        let mut rng = init::seeded_rng(seed);
        let t = init::randn(&mut rng, &[outer, axis_len, inner], 1.0);
        let parts = t.shape()[axis];
        let pieces = t.split(axis, parts).unwrap();
        let refs: Vec<&Tensor> = pieces.iter().collect();
        let back = Tensor::concat(&refs, axis).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn narrow_agrees_with_split(
        seed in 0u64..1000,
        parts in 1usize..5,
        pick in 0usize..5,
    ) {
        let mut rng = init::seeded_rng(seed);
        let axis_len = parts * 3;
        let t = init::randn(&mut rng, &[2, axis_len, 2], 1.0);
        let pieces = t.split(1, parts).unwrap();
        let i = pick % parts;
        let via_narrow = t.narrow(1, i * 3, 3).unwrap();
        prop_assert_eq!(&pieces[i], &via_narrow);
    }

    #[test]
    fn matmul_distributes_over_addition(
        seed in 0u64..1000,
        m in 1usize..6,
        k in 1usize..6,
        n in 1usize..6,
    ) {
        let mut rng = init::seeded_rng(seed);
        let a = init::randn(&mut rng, &[m, k], 1.0);
        let b = init::randn(&mut rng, &[m, k], 1.0);
        let c = init::randn(&mut rng, &[k, n], 1.0);
        let lhs = ops::matmul(&a.add(&b).unwrap(), &c).unwrap();
        let rhs = ops::matmul(&a, &c).unwrap().add(&ops::matmul(&b, &c).unwrap()).unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-3, 1e-4));
    }

    #[test]
    fn matmul_identity_is_noop(
        seed in 0u64..1000,
        m in 1usize..8,
        n in 1usize..8,
    ) {
        let mut rng = init::seeded_rng(seed);
        let a = init::randn(&mut rng, &[m, n], 1.0);
        let got = ops::matmul(&a, &Tensor::eye(n)).unwrap();
        prop_assert!(got.allclose(&a, 1e-5, 1e-6));
    }

    #[test]
    fn transpose_respects_matmul(
        seed in 0u64..1000,
        m in 1usize..5,
        k in 1usize..5,
        n in 1usize..5,
    ) {
        // (A B)^T = B^T A^T
        let mut rng = init::seeded_rng(seed);
        let a = init::randn(&mut rng, &[m, k], 1.0);
        let b = init::randn(&mut rng, &[k, n], 1.0);
        let lhs = ops::matmul(&a, &b).unwrap().transpose2().unwrap();
        let rhs = ops::matmul(&b.transpose2().unwrap(), &a.transpose2().unwrap()).unwrap();
        prop_assert!(lhs.allclose(&rhs, 1e-3, 1e-4));
    }

    #[test]
    fn softmax_rows_are_distributions(
        seed in 0u64..1000,
        rows in 1usize..6,
        cols in 1usize..10,
        scale in 0.1f32..20.0,
    ) {
        let mut rng = init::seeded_rng(seed);
        let x = init::randn(&mut rng, &[rows, cols], scale);
        let y = ops::softmax_rows(&x);
        for row in y.data().chunks(cols) {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
    }

    #[test]
    fn layernorm_is_scale_invariant(
        seed in 0u64..1000,
        alpha in 0.5f32..8.0,
    ) {
        // LN(a * x) == LN(x) for gamma=1, beta=0 (mean/var both scale).
        let mut rng = init::seeded_rng(seed);
        let x = init::randn(&mut rng, &[3, 16], 1.0);
        let g = Tensor::ones(&[16]);
        let b = Tensor::zeros(&[16]);
        let (y1, _) = ops::layernorm(&x, &g, &b, 1e-6).unwrap();
        let (y2, _) = ops::layernorm(&x.scale(alpha), &g, &b, 1e-6).unwrap();
        prop_assert!(y1.allclose(&y2, 1e-2, 1e-3));
    }

    #[test]
    fn rope_is_norm_preserving_and_invertible(
        seed in 0u64..1000,
        p0 in 0usize..512,
        p1 in 0usize..512,
    ) {
        let mut rng = init::seeded_rng(seed);
        let x = init::randn(&mut rng, &[2, 2, 8], 1.0);
        let pos = [p0, p1];
        let table = ops::RopeTable::new(&pos, 8, 10_000.0).unwrap();
        let y = table.apply_rows(0, x.clone()).unwrap();
        prop_assert!((x.norm() - y.norm()).abs() < 1e-3);
        let back = table.apply_bwd_rows(0, y).unwrap();
        prop_assert!(back.allclose(&x, 1e-3, 1e-4));
    }

    #[test]
    fn cross_entropy_chunking_is_exact(
        seed in 0u64..1000,
        rows_half in 1usize..5,
        vocab in 2usize..12,
    ) {
        let rows = rows_half * 2;
        let mut rng = init::seeded_rng(seed);
        let logits = init::randn(&mut rng, &[rows, vocab], 2.0);
        let targets: Vec<usize> = (0..rows).map(|i| (i * 7 + seed as usize) % vocab).collect();
        let full = ops::cross_entropy(&logits, &targets, usize::MAX).unwrap();
        let top = logits.narrow(0, 0, rows / 2).unwrap();
        let bot = logits.narrow(0, rows / 2, rows / 2).unwrap();
        let a = ops::cross_entropy(&top, &targets[..rows / 2], usize::MAX).unwrap();
        let b = ops::cross_entropy(&bot, &targets[rows / 2..], usize::MAX).unwrap();
        prop_assert!((full.loss_sum - (a.loss_sum + b.loss_sum)).abs() < 1e-3);
        prop_assert_eq!(full.tokens, a.tokens + b.tokens);
    }
}
