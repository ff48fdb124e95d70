//! Bitwise equivalence of every tensor kernel across kernel-pool thread
//! budgets (1, 2, and 8 threads).
//!
//! The kernel contract is determinism-by-fixed-partition: items are a
//! fixed partition of disjoint output data and all accumulation inside an
//! item (and in every cross-item reduction) happens sequentially in a
//! fixed order, so the thread count may change *who* computes an item but
//! never *what* it computes. These tests force the parallel path with a
//! parallel-split threshold of 1 and compare raw output bits.

use fpdt_tensor::{init, ops, KernelCtx};

/// The calling thread's kernel context at `threads` threads with the
/// parallel-split threshold at 1 (every kernel takes the pool path).
fn forced(threads: usize) -> KernelCtx {
    KernelCtx {
        threads,
        par_threshold: 1,
        ..KernelCtx::current()
    }
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` under thread budgets 1, 2, and 8 (threshold forced to 1 so
/// every kernel takes the pool path) and asserts the flattened outputs
/// are bitwise identical.
fn assert_thread_invariant(name: &str, f: impl Fn() -> Vec<f32>) {
    let reference = forced(1).enter(&f);
    assert!(
        reference.iter().any(|&v| v != 0.0),
        "{name}: all-zero output would make the comparison vacuous"
    );
    for threads in [2usize, 8] {
        let got = forced(threads).enter(&f);
        assert_eq!(
            bits(&reference),
            bits(&got),
            "{name}: output differs between 1 and {threads} threads"
        );
    }
}

#[test]
fn matmul_family_is_thread_invariant() {
    let mut rng = init::seeded_rng(7);
    // Straddles MC=32 rows and stays irregular in every dimension.
    let a = init::randn(&mut rng, &[67, 43], 1.0);
    let b = init::randn(&mut rng, &[43, 35], 1.0);
    let dc = init::randn(&mut rng, &[67, 35], 1.0);
    assert_thread_invariant("matmul", || ops::matmul(&a, &b).unwrap().data().to_vec());
    assert_thread_invariant("matmul_bwd", || {
        let (da, db) = ops::matmul_bwd(&a, &b, &dc).unwrap();
        let mut out = da.data().to_vec();
        out.extend_from_slice(db.data());
        out
    });
}

#[test]
fn softmax_and_cross_entropy_are_thread_invariant() {
    let mut rng = init::seeded_rng(8);
    let x = init::randn(&mut rng, &[33, 19], 2.0);
    let dy = init::randn(&mut rng, &[33, 19], 1.0);
    assert_thread_invariant("softmax_rows", || ops::softmax_rows(&x).data().to_vec());
    assert_thread_invariant("softmax_rows_bwd", || {
        let y = ops::softmax_rows(&x);
        ops::softmax_rows_bwd(&y, &dy).unwrap().data().to_vec()
    });
    let logits = init::randn(&mut rng, &[31, 23], 1.5);
    let targets: Vec<usize> = (0..31)
        .map(|i| if i % 5 == 0 { usize::MAX } else { (i * 3) % 23 })
        .collect();
    assert_thread_invariant("cross_entropy", || {
        let out = ops::cross_entropy(&logits, &targets, usize::MAX).unwrap();
        let mut flat = out.dlogits.data().to_vec();
        flat.push(out.loss_sum);
        flat.push(out.tokens as f32);
        flat
    });
}

#[test]
fn norms_are_thread_invariant() {
    let mut rng = init::seeded_rng(9);
    // 70 columns straddles the COL_BLOCK=64 reduction boundary.
    let x = init::randn(&mut rng, &[21, 70], 1.0);
    let gamma = init::randn(&mut rng, &[70], 0.5);
    let beta = init::randn(&mut rng, &[70], 0.5);
    let dy = init::randn(&mut rng, &[21, 70], 1.0);
    assert_thread_invariant("layernorm", || {
        let (y, ctx) = ops::layernorm(&x, &gamma, &beta, 1e-5).unwrap();
        let mut flat = y.data().to_vec();
        flat.extend_from_slice(&ctx.mean);
        flat.extend_from_slice(&ctx.rstd);
        flat
    });
    assert_thread_invariant("layernorm_bwd", || {
        let (_, ctx) = ops::layernorm(&x, &gamma, &beta, 1e-5).unwrap();
        let (dx, dg, db) = ops::layernorm_bwd(&x, &gamma, &ctx, &dy).unwrap();
        let mut flat = dx.data().to_vec();
        flat.extend_from_slice(dg.data());
        flat.extend_from_slice(db.data());
        flat
    });
    assert_thread_invariant("rmsnorm", || {
        let (y, ctx) = ops::rmsnorm(&x, &gamma, 1e-6).unwrap();
        let mut flat = y.data().to_vec();
        flat.extend_from_slice(&ctx.rrms);
        flat
    });
    assert_thread_invariant("rmsnorm_bwd", || {
        let (_, ctx) = ops::rmsnorm(&x, &gamma, 1e-6).unwrap();
        let (dx, dg) = ops::rmsnorm_bwd(&x, &gamma, &ctx, &dy).unwrap();
        let mut flat = dx.data().to_vec();
        flat.extend_from_slice(dg.data());
        flat
    });
}

#[test]
fn elementwise_kernels_are_thread_invariant() {
    let mut rng = init::seeded_rng(10);
    // > ELEM_BLOCK = 4096 elements so the block split actually happens.
    let x = init::randn(&mut rng, &[9001], 1.5);
    let dy = init::randn(&mut rng, &[9001], 1.0);
    assert_thread_invariant("gelu", || ops::gelu(&x).data().to_vec());
    assert_thread_invariant("gelu_bwd", || {
        ops::gelu_bwd(&x, &dy).unwrap().data().to_vec()
    });
    assert_thread_invariant("silu", || ops::silu(&x).data().to_vec());
    assert_thread_invariant("silu_bwd", || {
        ops::silu_bwd(&x, &dy).unwrap().data().to_vec()
    });
    let xb = init::randn(&mut rng, &[37, 70], 1.0);
    let bias = init::randn(&mut rng, &[70], 1.0);
    assert_thread_invariant("add_bias", || {
        ops::add_bias(&xb, &bias).unwrap().data().to_vec()
    });
    assert_thread_invariant("add_bias_bwd", || {
        ops::add_bias_bwd(&xb, 70).data().to_vec()
    });
}

#[test]
fn rope_table_is_thread_invariant() {
    let mut rng = init::seeded_rng(12);
    // 150 tokens straddle the table rotation's 64-token pool items.
    let x = init::randn(&mut rng, &[150, 3, 10], 1.0);
    let pos: Vec<usize> = (0..150).map(|t| (t * 37) % 4096).collect();
    let table = ops::RopeTable::new(&pos, 10, 10_000.0).unwrap();
    assert_thread_invariant("rope", || table.apply(&x).unwrap().data().to_vec());
    assert_thread_invariant("rope_bwd", || table.apply_bwd(&x).unwrap().data().to_vec());
}

#[test]
fn parallel_path_actually_differs_from_gated_path_in_schedule_only() {
    // Sanity: with the default threshold a tiny matmul stays sequential;
    // forcing threshold 1 must not change its bits either.
    let mut rng = init::seeded_rng(11);
    let a = init::randn(&mut rng, &[5, 4], 1.0);
    let b = init::randn(&mut rng, &[4, 3], 1.0);
    let gated = ops::matmul(&a, &b).unwrap();
    let pooled = forced(8).enter(|| ops::matmul(&a, &b).unwrap());
    assert_eq!(bits(gated.data()), bits(pooled.data()));
}
