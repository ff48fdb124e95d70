//! Bitwise equivalence of the attention kernels between the AVX2/FMA and
//! AVX-512 microkernel backends and the portable scalar fallback, including GQA
//! head grouping (fewer KV heads than query heads) and chunked KV
//! arrival, at 1, 2, and 8 kernel threads.
//!
//! The online-softmax update, finalize, and blockwise backward all reduce
//! through `fpdt_tensor::mk` primitives (panel gemms, the polynomial
//! `exp`, the block softmax) whose paths share one generic kernel with a
//! fixed reduction tree — AVX-512 widens only the panel gemms, whose
//! elements are single fused chains — so the backend must never change a
//! single bit of the attention output or gradients.

mod common;

use fpdt_attention::online::{attention_block_bwd, rowwise_dot, OnlineAttention};
use fpdt_attention::{default_scale, reference};
use fpdt_tensor::mk::{self, Backend};
use fpdt_tensor::{init, KernelCtx, Tensor};
use proptest::prelude::*;

/// A kernel context with `backend` forced and `threads` threads at a
/// parallel-split threshold of 1 (every op actually splits).
fn forced(backend: Backend, threads: usize) -> KernelCtx {
    KernelCtx {
        threads,
        par_threshold: 1,
        backend,
    }
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` under every (backend, threads) combination and asserts the
/// flattened output is bitwise identical to scalar at 1 thread.
fn assert_backend_invariant(name: &str, f: impl Fn() -> Vec<f32>) {
    let reference = forced(Backend::Scalar, 1).enter(&f);
    assert!(
        reference.iter().any(|&v| v != 0.0),
        "{name}: all-zero output would make the comparison vacuous"
    );
    for be in mk::backends() {
        for threads in [1usize, 2, 8] {
            let got = forced(be, threads).enter(&f);
            assert_eq!(
                bits(&reference),
                bits(&got),
                "{name}: {be:?} backend at {threads} threads diverged from scalar"
            );
        }
    }
}

fn qkv(seed: u64, s: usize, h: usize, hkv: usize, d: usize) -> (Tensor, Tensor, Tensor) {
    let mut rng = init::seeded_rng(seed);
    (
        init::randn(&mut rng, &[s, h, d], 1.0),
        init::randn(&mut rng, &[s, hkv, d], 1.0),
        init::randn(&mut rng, &[s, hkv, d], 1.0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chunked online forward across GQA ratios and head dims straddling
    /// the 8-lane vector width (d < 8, d = 8 + tail, ...).
    #[test]
    fn online_forward_backend_invariant(
        ratio in 1usize..4,
        hkv in 1usize..4,
        d in 1usize..12,
        seed in 0u64..100,
    ) {
        let h = hkv * ratio;
        let s = 12usize;
        let (q, k, v) = qkv(seed, s, h, hkv, d);
        let pos: Vec<usize> = (0..s).collect();
        assert_backend_invariant("online_fwd", || {
            let mut st = OnlineAttention::new(&q, &pos, None).unwrap();
            for c in 0..3 {
                let kc = k.narrow(0, c * 4, 4).unwrap();
                let vc = v.narrow(0, c * 4, 4).unwrap();
                st.update(&kc, &vc, &pos[c * 4..(c + 1) * 4]).unwrap();
            }
            let (o, lse) = st.finalize();
            let mut flat = o.data().to_vec();
            flat.extend(lse.iter().map(|&x| if x.is_finite() { x } else { 0.0 }));
            flat
        });
    }
}

#[test]
fn blockwise_backward_backend_invariant() {
    // GQA layout: 6 query heads over 3 KV heads, d=10 (8-lane + tail).
    let (q, k, v) = qkv(7, 10, 6, 3, 10);
    let mut rng = init::seeded_rng(8);
    let dout = init::randn(&mut rng, &[10, 6, 10], 1.0);
    let pos: Vec<usize> = (0..10).collect();
    let scale = default_scale(10);
    assert_backend_invariant("attention_bwd", || {
        let mut st = OnlineAttention::new(&q, &pos, None).unwrap();
        st.update(&k, &v, &pos).unwrap();
        let (o, lse) = st.finalize();
        let dsum = rowwise_dot(&o, &dout).unwrap();
        let mut dq = Tensor::zeros(q.shape());
        let mut dk = Tensor::zeros(k.shape());
        let mut dv = Tensor::zeros(v.shape());
        attention_block_bwd(
            &q, &k, &v, &dout, &lse, &dsum, &pos, &pos, scale, &mut dq, &mut dk, &mut dv,
        )
        .unwrap();
        let mut flat = dq.data().to_vec();
        flat.extend_from_slice(dk.data());
        flat.extend_from_slice(dv.data());
        flat.extend_from_slice(&dsum);
        flat
    });
}

#[test]
fn reference_attention_backend_invariant() {
    let (q, k, v) = qkv(9, 9, 4, 2, 6);
    assert_backend_invariant("reference_attention", || {
        reference::causal_attention(&q, &k, &v)
            .unwrap()
            .data()
            .to_vec()
    });
}

/// Tiles on and past every block edge (full 8-lane panels, full and
/// partial row blocks, `sq != sk`, GQA, shuffled positions, all three
/// causal relations): forward and backward, every backend, 1/2/8 threads.
#[test]
fn block_edge_tiles_backend_invariant() {
    for (i, c) in common::curated().iter().enumerate() {
        let t = common::build(c, 200 + i as u64);
        assert_backend_invariant(&format!("{c:?}"), || common::online_all(&t));
    }
}
