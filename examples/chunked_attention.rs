//! The FPDT attention schedule on one device: stream a long sequence
//! through the chunked executor (`LocalAttention`, the one-rank
//! `DistAttention` every FPDT rank runs) chunk by chunk and verify it
//! matches the materializing reference — the numerical heart of the paper.
//!
//! ```sh
//! cargo run --release --example chunked_attention
//! ```

use fpdt_attention::{online::OnlineAttention, reference};
use fpdt_core::runtime::exec::{AttentionExec, LocalAttention};
use fpdt_tensor::{init, Tensor};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let (s, h, d) = (512, 8, 32);
    let mut rng = init::seeded_rng(0);
    let q = init::randn(&mut rng, &[s, h, d], 1.0);
    let k = init::randn(&mut rng, &[s, h, d], 1.0);
    let v = init::randn(&mut rng, &[s, h, d], 1.0);

    // Ground truth: O(N^2) memory.
    let full = reference::causal_attention(&q, &k, &v)?;
    let score_matrix_bytes = s * s * h * 4;

    println!("sequence {s}, {h} heads x {d} dims");
    println!(
        "reference materializes {:.1} MiB of scores",
        score_matrix_bytes as f64 / (1 << 20) as f64
    );

    // FPDT streaming: the resident working set is one KV chunk.
    let pos: Vec<usize> = (0..s).collect();
    for chunks in [1usize, 4, 16, 64] {
        let mut exec = LocalAttention::new(chunks);
        let o = exec.forward(0, &q, &k, &v, &pos)?;
        exec.discard(0);
        let max_err = o
            .data()
            .iter()
            .zip(full.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        let resident = (s / chunks) * h * d * 4 * 2; // one K + one V chunk
        println!(
            "chunks {chunks:>3}: resident KV {:>8.1} KiB, max |err| vs reference {max_err:.2e}",
            resident as f64 / 1024.0
        );
        assert!(max_err < 1e-3);
    }

    // The carried state survives arbitrary arrival order — what makes
    // host-offloaded chunks legal.
    let mut st = OnlineAttention::new(&q, &pos, None)?;
    for j in (0..8).rev() {
        let kc = k.narrow(0, j * (s / 8), s / 8)?;
        let vc = v.narrow(0, j * (s / 8), s / 8)?;
        st.update(&kc, &vc, &pos[j * (s / 8)..(j + 1) * (s / 8)])?;
    }
    let (o_rev, _) = st.finalize();
    assert!(o_rev.allclose(&full, 1e-3, 1e-4));
    println!("\nreverse-order chunk arrival: still exact (online softmax rescaling)");

    // And gradients flow the same way (Figure 7's nested loop).
    let dout = Tensor::ones(&[s, h, d]);
    let mut exec = LocalAttention::new(16);
    let o = exec.forward(0, &q, &k, &v, &pos)?;
    let (dq, ..) = exec.backward(0, &o, &dout)?;
    let (rdq, ..) = reference::causal_attention_bwd(&q, &k, &v, &dout)?;
    assert!(dq.allclose(&rdq, 1e-2, 1e-3));
    println!("chunked backward (the causal tile triangle) matches reference gradients");
    Ok(())
}
