//! Figures 8 & 9: the two failure modes that bracket the chunk-size
//! choice, measured on the pipeline simulator.
//!
//! * Figure 8 — **GPU starving**: chunks so short that attention finishes
//!   before the next fetch arrives; the compute stream idles on PCIe.
//! * Figure 9 — **HBM wasting**: chunks so long that resident buffers
//!   balloon while the copy streams idle.

use fpdt_core::pipeline::{simulate_block, PipelineOpts};
use fpdt_model::config::ModelConfig;
use fpdt_sim::hw::ClusterSpec;

fn main() {
    let model = ModelConfig::gpt_2_7b(); // MHA: full-size KV traffic
    let cluster = ClusterSpec::a100_80g(1, 4);
    let seq = 512 * 1024u64;

    println!(
        "Figures 8/9: chunk size vs starving/wasting — {} @ 512K, 4 GPUs\n",
        model.name
    );
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>14}",
        "chunk", "chunks", "block time", "peak HBM", "compute util"
    );
    let mut rows = Vec::new();
    for chunks in [256usize, 64, 16, 4, 1] {
        let chunk_tokens = seq / chunks as u64;
        let rep = simulate_block(&model, &cluster, seq, PipelineOpts::paper(chunks))
            .expect("simulation runs");
        let time = rep.fwd_seconds + rep.bwd_seconds;
        // compute utilization = busy compute time / makespan, from records
        let busy: f64 = rep
            .sim
            .task_records()
            .iter()
            .filter(|r| r.stream == "gpu0.compute")
            .map(|r| r.finish - r.start)
            .sum();
        let util = busy / time;
        println!(
            "{:>7}K {:>8} {:>10.1}ms {:>10.1}MiB {:>13.1}%",
            chunk_tokens / 1024,
            chunks,
            time * 1e3,
            rep.hbm_peak as f64 / (1 << 20) as f64,
            util * 100.0
        );
        rows.push((chunk_tokens, util, rep.hbm_peak));
    }
    let starving = rows.first().unwrap();
    let wasting = rows.last().unwrap();
    println!(
        "\nFigure 8 (starving): {}K chunks -> compute only {:.0}% busy, PCIe-bound",
        starving.0 / 1024,
        starving.1 * 100.0
    );
    println!(
        "Figure 9 (wasting):  {}K chunk -> {:.0}x the resident HBM of the 64-chunk point",
        wasting.0 / 1024,
        wasting.2 as f64 / rows[1].2 as f64
    );
    println!("\nthe sweet spot sits between the two — paper §5.3 picks 64K.");
}
