//! The paper's Future Work section, investigated: the gradient-reduction
//! memory spike. "PyTorch can also incur a high memory spike when it
//! reduces the gradients across all GPUs. In certain cases, this memory
//! spike can be more significant than the activation's memory spikes." We
//! quantify the flat fp32 reducer buffer per model and show that
//! FPDT-style chunked (bucketed, double-buffered) reduction removes it.

use fpdt_bench::{gib, write_json};
use fpdt_model::config::ModelConfig;
use fpdt_model::memory::BlockActivations;
use fpdt_parallel::zero::grad_reduce_spike_bytes;
use serde::Serialize;

#[derive(Serialize)]
struct SpikeRow {
    model: String,
    flat_fp32_gib: f64,
    flat_per_gpu_gib: f64,
    bucketed_gib: f64,
    activation_spike_gib: f64,
}

fn main() {
    println!("== Future work 1: the gradient-reduction memory spike ==\n");
    println!(
        "{:<12} {:>14} {:>14} {:>14} {:>16}",
        "model", "flat fp32", "flat / 8 GPUs", "bucketed 2x500M", "act spike (ref)"
    );
    let mut rows = Vec::new();
    for m in ModelConfig::paper_suite() {
        let flat = grad_reduce_spike_bytes(&m, None);
        let bucketed = grad_reduce_spike_bytes(&m, Some(500 << 20));
        // compare against the activation working set FPDT already tamed
        let act = BlockActivations::new(&m, 65_536).bwd_monolithic();
        println!(
            "{:<12} {:>13.1}G {:>13.1}G {:>13.1}G {:>15.1}G",
            m.name,
            gib(flat),
            gib(flat / 8),
            gib(bucketed),
            gib(act)
        );
        rows.push(SpikeRow {
            model: m.name.clone(),
            flat_fp32_gib: gib(flat),
            flat_per_gpu_gib: gib(flat / 8),
            bucketed_gib: gib(bucketed),
            activation_spike_gib: gib(act),
        });
    }
    println!("\nthe per-GPU flat reducer buffer grows linearly with model size — by 70B it");
    println!("exceeds even the *monolithic* attention working set FPDT was built to kill,");
    println!("confirming the paper's warning that it \"can be more significant than the");
    println!("activation's memory spikes\". A chunked, double-buffered reducer (the FPDT");
    println!("recipe applied to gradients) caps it at two buckets regardless of size.");
    write_json("future_work_grad_spike", &rows);
}
