//! Bitwise equivalence of the attention kernels across kernel-pool thread
//! budgets (1, 2, and 8 threads), including GQA head grouping and the
//! chunked online-softmax state.
//!
//! Items in these kernels are fixed 32-row blocks of query rows (forward,
//! `dq`) or key rows (`dk`/`dv`) owning disjoint output slices; each item
//! accumulates over the other operand in ascending order, so the thread
//! count cannot change the numbers.

mod common;

use fpdt_attention::online::{attention_block_bwd, rowwise_dot, OnlineAttention};
use fpdt_attention::{default_scale, reference};
use fpdt_tensor::{init, KernelCtx, Tensor};

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

fn qkv(seed: u64, s: usize, h: usize, hkv: usize, d: usize) -> (Tensor, Tensor, Tensor) {
    let mut rng = init::seeded_rng(seed);
    (
        init::randn(&mut rng, &[s, h, d], 1.0),
        init::randn(&mut rng, &[s, hkv, d], 1.0),
        init::randn(&mut rng, &[s, hkv, d], 1.0),
    )
}

#[test]
fn online_forward_is_thread_invariant() {
    // GQA layout: 6 query heads sharing 3 KV heads, chunked KV arrival.
    let (q, k, v) = qkv(1, 12, 6, 3, 5);
    let pos: Vec<usize> = (0..12).collect();
    assert_thread_invariant("online_attention_fwd", || {
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

#[test]
fn blockwise_backward_is_thread_invariant() {
    let (q, k, v) = qkv(2, 10, 4, 2, 6);
    let mut rng = init::seeded_rng(3);
    let dout = init::randn(&mut rng, &[10, 4, 6], 1.0);
    let pos: Vec<usize> = (0..10).collect();
    let scale = default_scale(6);
    assert_thread_invariant("attention_block_bwd", || {
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
fn reference_attention_is_thread_invariant() {
    let (q, k, v) = qkv(4, 9, 2, 2, 4);
    assert_thread_invariant("reference_attention", || {
        reference::causal_attention(&q, &k, &v)
            .unwrap()
            .data()
            .to_vec()
    });
}

/// Tiles on and past every block edge — several items per call, partial
/// last items, `sq != sk`, GQA, shuffled positions — forward and backward.
#[test]
fn block_edge_tiles_are_thread_invariant() {
    for (i, c) in common::curated().iter().enumerate() {
        let t = common::build(c, 300 + i as u64);
        assert_thread_invariant(&format!("{c:?}"), || common::online_all(&t));
    }
}
