//! The chunk schedule on one device: a one-rank `DistAttention`
//! (`LocalAttention::new(chunks)`) against the materializing reference of
//! `fpdt-attention`, forward and backward, multi-head and grouped-query,
//! for every chunk count that divides the sequence — and the typed errors
//! for a chunking or a position layout the plan does not allow, which
//! Ring attention's executor gives for positions off its shard too.

use fpdt_attention::reference;
use fpdt_comm::run_group;
use fpdt_core::chunk::ChunkPlan;
use fpdt_core::runtime::exec::{AttentionExec, DistAttention, LocalAttention, RingAttentionExec};
use fpdt_core::runtime::RuntimeOptions;
use fpdt_tensor::{init, Tensor, TensorError};
use proptest::prelude::*;
use std::sync::Arc;

fn rand_qkv(seed: u64, s: usize, h: usize, d: usize) -> (Tensor, Tensor, Tensor) {
    rand_gqa(seed, s, h, h, d)
}

fn rand_gqa(seed: u64, s: usize, hq: usize, hkv: usize, d: usize) -> (Tensor, Tensor, Tensor) {
    let mut rng = init::seeded_rng(seed);
    (
        init::randn(&mut rng, &[s, hq, d], 1.0),
        init::randn(&mut rng, &[s, hkv, d], 1.0),
        init::randn(&mut rng, &[s, hkv, d], 1.0),
    )
}

/// Chunk counts that divide the sequence length.
fn divisors(s: usize) -> Vec<usize> {
    (1..=s).filter(|c| s.is_multiple_of(*c)).collect()
}

/// Positions `0..s`, the one-rank plan's layout.
fn positions(s: usize) -> Vec<usize> {
    (0..s).collect()
}

fn forward(ex: &mut LocalAttention, q: &Tensor, k: &Tensor, v: &Tensor) -> Tensor {
    ex.forward(0, q, k, v, &positions(q.shape()[0])).unwrap()
}

/// Forward then backward of layer 0: `(dq, dk, dv)`.
fn grads(
    chunks: usize,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    dout: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let mut ex = LocalAttention::new(chunks);
    let o = forward(&mut ex, q, k, v);
    ex.backward(0, &o, dout).unwrap()
}

#[test]
fn forward_matches_reference_various_chunk_counts() {
    let (q, k, v) = rand_qkv(0, 24, 2, 4);
    let want = reference::causal_attention(&q, &k, &v).unwrap();
    for chunks in [1, 2, 3, 4, 6, 8, 12, 24] {
        let o = forward(&mut LocalAttention::new(chunks), &q, &k, &v);
        assert!(o.allclose(&want, 1e-4, 1e-5), "chunks={chunks}");
    }
}

#[test]
fn backward_matches_reference_various_chunk_counts() {
    let (q, k, v) = rand_qkv(1, 16, 2, 4);
    let mut rng = init::seeded_rng(2);
    let dout = init::randn(&mut rng, &[16, 2, 4], 1.0);
    let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
    for chunks in [1, 2, 4, 8, 16] {
        let (dq, dk, dv) = grads(chunks, &q, &k, &v, &dout);
        assert!(dq.allclose(&rdq, 1e-3, 1e-4), "dq chunks={chunks}");
        assert!(dk.allclose(&rdk, 1e-3, 1e-4), "dk chunks={chunks}");
        assert!(dv.allclose(&rdv, 1e-3, 1e-4), "dv chunks={chunks}");
    }
}

#[test]
fn gqa_chunked_forward_equals_reference() {
    let (q, k, v) = rand_gqa(1, 24, 6, 3, 4);
    let want = reference::causal_attention(&q, &k, &v).unwrap();
    for chunks in [1, 2, 3, 4, 6] {
        let got = forward(&mut LocalAttention::new(chunks), &q, &k, &v);
        assert!(got.allclose(&want, 1e-4, 1e-5), "chunks={chunks}");
    }
}

#[test]
fn gqa_chunked_backward_equals_reference() {
    let (q, k, v) = rand_gqa(4, 16, 8, 2, 4);
    let mut rng = init::seeded_rng(5);
    let dout = init::randn(&mut rng, &[16, 8, 4], 1.0);
    let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
    for chunks in [1, 2, 4, 8] {
        let (dq, dk, dv) = grads(chunks, &q, &k, &v, &dout);
        assert!(dq.allclose(&rdq, 1e-3, 1e-4), "dq chunks={chunks}");
        assert!(dk.allclose(&rdk, 1e-3, 1e-4), "dk chunks={chunks}");
        assert!(dv.allclose(&rdv, 1e-3, 1e-4), "dv chunks={chunks}");
    }
}

#[test]
fn one_executor_serves_every_length() {
    // The plan comes from each call's row count: lengths 8, 32 and 16
    // through one 4-chunk executor, each backward after its forward.
    let mut ex = LocalAttention::new(4);
    for (seed, s) in [(10u64, 8usize), (11, 32), (12, 16)] {
        let (q, k, v) = rand_qkv(seed, s, 2, 4);
        let dout = init::randn(&mut init::seeded_rng(seed ^ 0xd0), &[s, 2, 4], 1.0);
        let o = forward(&mut ex, &q, &k, &v);
        let (dq, dk, dv) = ex.backward(0, &o, &dout).unwrap();
        let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
        assert!(
            o.allclose(
                &reference::causal_attention(&q, &k, &v).unwrap(),
                1e-4,
                1e-5
            ),
            "o s={s}"
        );
        assert!(dq.allclose(&rdq, 1e-3, 1e-4), "dq s={s}");
        assert!(dk.allclose(&rdk, 1e-3, 1e-4), "dk s={s}");
        assert!(dv.allclose(&rdv, 1e-3, 1e-4), "dv s={s}");
    }
}

/// The error a call returns, as the `TensorError` it must be.
fn tensor_error<T: std::fmt::Debug>(
    r: Result<T, Box<dyn std::error::Error + Send + Sync>>,
) -> TensorError {
    let e = r.expect_err("the call must fail");
    e.downcast_ref::<TensorError>()
        .cloned()
        .unwrap_or_else(|| panic!("not a TensorError: {e}"))
}

#[test]
fn rejects_bad_chunk_counts() {
    // 6 rows in 4 chunks, and 0 chunks: a typed error from the call, no
    // panic, and nothing cached.
    let (q, k, v) = rand_qkv(6, 6, 1, 4);
    for chunks in [4, 0] {
        let mut ex = LocalAttention::new(chunks);
        let err = tensor_error(ex.forward(0, &q, &k, &v, &positions(6)));
        assert!(
            matches!(err, TensorError::InvalidSlice { .. }),
            "chunks={chunks}: {err}"
        );
        assert!(ex.backward(0, &q, &q).is_err(), "chunks={chunks}");
    }
}

#[test]
fn backward_needs_its_own_forward() {
    // The backward of a layer that never ran forward, a second backward of
    // one that did, and one whose dO is shorter than the forward's input
    // all fail without a panic.
    let (q, k, v) = rand_qkv(7, 8, 1, 4);
    let dout = Tensor::ones(&[8, 1, 4]);
    let mut ex = LocalAttention::new(2);
    assert!(ex.backward(0, &dout, &dout).is_err(), "no forward");
    let o = forward(&mut ex, &q, &k, &v);
    assert!(ex.backward(0, &o, &dout).is_ok());
    assert!(ex.backward(0, &o, &dout).is_err(), "state consumed");
    let o = forward(&mut ex, &q, &k, &v);
    let short = Tensor::ones(&[4, 1, 4]);
    assert!(
        ex.backward(0, &o.narrow(0, 0, 4).unwrap(), &short).is_err(),
        "short dO"
    );
}

#[test]
fn positions_off_the_plan_are_an_error() {
    // Reversed positions name the same tokens in another order; the
    // schedule attends by the plan's order, so both a one-rank and a
    // two-rank executor refuse them.
    let s = 8;
    let (q, k, v) = rand_qkv(8, s, 2, 4);
    let mut reversed = positions(s);
    reversed.reverse();
    let err = tensor_error(LocalAttention::new(2).forward(0, &q, &k, &v, &reversed));
    assert!(matches!(err, TensorError::InvalidSlice { .. }), "{err}");

    let plan = ChunkPlan::new(s, 2, 2).unwrap();
    let errs = run_group(2, |comm| {
        let mut pos = plan.local_positions(comm.rank());
        let shard = |t: &Tensor| {
            let rows: Vec<Tensor> = pos.iter().map(|&p| t.narrow(0, p, 1).unwrap()).collect();
            Tensor::concat(&rows.iter().collect::<Vec<_>>(), 0).unwrap()
        };
        let (q, k, v) = (shard(&q), shard(&k), shard(&v));
        pos.reverse();
        let opts = RuntimeOptions::from_env().with_payload_bf16(false);
        let mut ex = DistAttention::with_opts(Arc::new(comm), 2, false, opts);
        tensor_error(ex.forward(0, &q, &k, &v, &pos))
    });
    for err in errs {
        assert!(matches!(err, TensorError::InvalidSlice { .. }), "{err}");
    }
}

#[test]
fn ring_positions_off_the_shard_are_an_error() {
    // Ring attention attends by its contiguous shard's positions, rank r
    // holding tokens r·s/p..(r+1)·s/p. Handed the other rank's positions,
    // both ranks fail the forward with a typed error before any ring hop,
    // in release builds as in debug ones.
    let s = 8;
    let (q, k, v) = rand_qkv(9, s / 2, 2, 4);
    let errs = run_group(2, |comm| {
        let other = 1 - comm.rank();
        let pos: Vec<usize> = (other * s / 2..(other + 1) * s / 2).collect();
        tensor_error(RingAttentionExec::new(&comm, s).forward(0, &q, &k, &v, &pos))
    });
    for err in errs {
        assert!(matches!(err, TensorError::InvalidSlice { .. }), "{err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chunked_forward_equals_reference(
        seed in 0u64..1000,
        s_pow in 2usize..6, // s = 4..32
        h in 1usize..4,
        d_pow in 1usize..4, // d = 2..8
        chunk_sel in 0usize..8,
    ) {
        let s = 1 << s_pow;
        let d = 1 << d_pow;
        let (q, k, v) = rand_qkv(seed, s, h, d);
        let divs = divisors(s);
        let chunks = divs[chunk_sel % divs.len()];
        let want = reference::causal_attention(&q, &k, &v).unwrap();
        let got = forward(&mut LocalAttention::new(chunks), &q, &k, &v);
        prop_assert!(got.allclose(&want, 1e-3, 1e-4), "chunks={chunks} s={s}");
    }

    #[test]
    fn chunked_backward_equals_reference(
        seed in 0u64..1000,
        s_pow in 2usize..5, // s = 4..16
        h in 1usize..3,
        chunk_sel in 0usize..8,
    ) {
        let s = 1 << s_pow;
        let d = 4;
        let (q, k, v) = rand_qkv(seed, s, h, d);
        let mut rng = init::seeded_rng(seed ^ 0xdead);
        let dout = init::randn(&mut rng, &[s, h, d], 1.0);
        let divs = divisors(s);
        let chunks = divs[chunk_sel % divs.len()];
        let (dq, dk, dv) = grads(chunks, &q, &k, &v, &dout);
        let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
        prop_assert!(dq.allclose(&rdq, 5e-3, 5e-4), "dq chunks={chunks}");
        prop_assert!(dk.allclose(&rdk, 5e-3, 5e-4), "dk chunks={chunks}");
        prop_assert!(dv.allclose(&rdv, 5e-3, 5e-4), "dv chunks={chunks}");
    }

    #[test]
    fn attention_is_causal_for_random_prefix_edits(
        seed in 0u64..1000,
        cut in 1usize..15,
    ) {
        // Changing tokens at positions >= cut must not change outputs < cut.
        let s = 16usize;
        let (q, k, v) = rand_qkv(seed, s, 1, 4);
        let o1 = forward(&mut LocalAttention::new(4), &q, &k, &v);
        let mut k2 = k.clone();
        let mut v2 = v.clone();
        for i in cut * 4..s * 4 {
            k2.data_mut()[i] = -k2.data()[i] + 1.0;
            v2.data_mut()[i] *= 2.0;
        }
        let o2 = forward(&mut LocalAttention::new(4), &q, &k2, &v2);
        let a = o1.narrow(0, 0, cut).unwrap();
        let b = o2.narrow(0, 0, cut).unwrap();
        prop_assert!(a.allclose(&b, 1e-5, 1e-6));
    }
}

mod gqa_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn gqa_chunked_equals_reference_for_any_grouping(
            seed in 0u64..1000,
            hkv in 1usize..4,
            ratio in 1usize..4,
            chunk_sel in 0usize..4,
        ) {
            let s = 16usize;
            let hq = hkv * ratio;
            let (q, k, v) = rand_gqa(seed, s, hq, hkv, 4);
            let chunks = [1usize, 2, 4, 8][chunk_sel];
            let want = reference::causal_attention(&q, &k, &v).unwrap();
            let got = forward(&mut LocalAttention::new(chunks), &q, &k, &v);
            prop_assert!(got.allclose(&want, 1e-3, 1e-4), "hq={hq} hkv={hkv} chunks={chunks}");
        }

        #[test]
        fn gqa_gradients_agree_with_reference(
            seed in 0u64..1000,
            hkv in 1usize..3,
            ratio in 1usize..4,
        ) {
            let s = 8usize;
            let hq = hkv * ratio;
            let (q, k, v) = rand_gqa(seed, s, hq, hkv, 4);
            let mut rng = init::seeded_rng(seed ^ 0xbeef);
            let dout = init::randn(&mut rng, &[s, hq, 4], 1.0);
            let (dq, dk, dv) = grads(2, &q, &k, &v, &dout);
            let (rdq, rdk, rdv) = reference::causal_attention_bwd(&q, &k, &v, &dout).unwrap();
            prop_assert!(dq.allclose(&rdq, 5e-3, 5e-4));
            prop_assert!(dk.allclose(&rdk, 5e-3, 5e-4));
            prop_assert!(dv.allclose(&rdv, 5e-3, 5e-4));
        }
    }
}
