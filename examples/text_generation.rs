//! End-to-end payoff: train a small GPT with the FPDT pipeline, then
//! generate tokens greedily and check it learned the corpus dynamics.
//!
//! ```sh
//! cargo run --release --example text_generation
//! ```

use fpdt_core::runtime::data::Corpus;
use fpdt_core::runtime::exec::LocalAttention;
use fpdt_core::runtime::gpt::GptModel;
use fpdt_model::config::ModelConfig;
use fpdt_tensor::nn::{AdamW, AdamWConfig};

fn main() {
    let cfg = ModelConfig::tiny(2, 64, 8, 64);
    let mut model = GptModel::new(&cfg, 3);
    // The chunked executor — the same streaming attention FPDT runs.
    let mut exec = LocalAttention::new(4);
    let mut opt = AdamW::new(AdamWConfig {
        lr: 3e-3,
        ..Default::default()
    });
    let mut corpus = Corpus::new(cfg.vocab, 0.02, 3);

    println!(
        "training tiny GPT ({} params) on the Markov corpus...",
        model.param_count()
    );
    for step in 0..60 {
        let (x, y) = corpus.sample(256);
        let pos: Vec<usize> = (0..256).collect();
        model.zero_grad();
        let stats = model
            .forward_backward(&mut exec, &x, &y, &pos, 8, 4)
            .unwrap();
        model.optimizer_step(&mut opt, 1.0 / stats.tokens as f32);
        if step % 15 == 0 {
            println!(
                "  step {step:>3}  loss {:.4}",
                stats.loss_sum / stats.tokens as f32
            );
        }
    }

    // Generate: starting from a prompt, predict the next 24 tokens and
    // compare against the chain's deterministic successor function
    // t -> (5t + 3) mod vocab.
    let mut prompt = vec![11usize, (11 * 5 + 3) % cfg.vocab];
    let mut hits = 0;
    let total = 24;
    // Each call plans for its prompt's length, and one chunk divides any.
    let mut gen_exec = LocalAttention::new(1);
    println!(
        "\ngreedy generation (chain rule: next = (5*t + 3) mod {}):",
        cfg.vocab
    );
    print!("  {} {} ", prompt[0], prompt[1]);
    for _ in 0..total {
        let next = model.greedy_next(&mut gen_exec, &prompt).unwrap();
        let expect = (prompt.last().unwrap() * 5 + 3) % cfg.vocab;
        if next == expect {
            hits += 1;
            print!("{next} ");
        } else {
            print!("[{next}≠{expect}] ");
        }
        prompt.push(next);
    }
    println!("\n\nchain-following accuracy: {hits}/{total}");
    assert!(
        hits * 3 >= total * 2,
        "model should follow the chain most of the time"
    );
}
