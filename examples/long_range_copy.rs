//! Long-range recall through the chunk pipeline: train on the copy task
//! (second half of the sequence repeats the first), where every prediction
//! requires attending half a sequence back — across FPDT chunk boundaries,
//! the all-to-all, the shuffle and the host pool.
//!
//! ```sh
//! cargo run --release --example long_range_copy
//! ```

use fpdt_core::runtime::data::CopyCorpus;
use fpdt_core::runtime::exec::LocalAttention;
use fpdt_core::runtime::gpt::GptModel;
use fpdt_model::config::ModelConfig;
use fpdt_tensor::nn::{AdamW, AdamWConfig};

fn main() {
    let cfg = ModelConfig::tiny(2, 64, 4, 16);
    let mut model = GptModel::new(&cfg, 0);
    // 4 chunks of 16 tokens: the copy source is always 2 chunks away.
    let mut exec = LocalAttention::new(4);
    let mut opt = AdamW::new(AdamWConfig {
        lr: 3e-3,
        ..Default::default()
    });
    let mut corpus = CopyCorpus::new(16, 0);
    let half = 32;
    let pos: Vec<usize> = (0..2 * half).collect();

    println!(
        "copy task: predict position i from position i-{half} (uniform loss = {:.3})\n",
        (16f32).ln()
    );
    let mut final_loss = f32::INFINITY;
    for step in 0..400 {
        let (x, y) = corpus.sample(half);
        model.zero_grad();
        let s = model
            .forward_backward(&mut exec, &x, &y, &pos, 2, 1)
            .unwrap();
        final_loss = s.loss_sum / s.tokens as f32;
        model.optimizer_step(&mut opt, 1.0 / s.tokens as f32);
        if step % 50 == 0 {
            println!("step {step:>3}  copy loss {final_loss:.4}");
        }
    }
    println!("\nfinal copy loss: {final_loss:.5} — the induction circuit formed, and the");
    println!("information it needs flowed across chunk boundaries every single step.");
    assert!(
        final_loss < 0.05,
        "the copy task should be essentially solved"
    );
}
