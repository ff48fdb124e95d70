//! Traced training: run the real multi-thread trainer with a
//! `fpdt_trace::Recorder` attached, then print the collective traffic
//! counters and write the wall-clock span timeline as a Chrome trace
//! (open `target/experiments/traced_training.trace.json` in Perfetto).

use fpdt_core::runtime::{train_traced, Mode, TrainConfig};
use fpdt_trace::Recorder;

fn main() {
    let cfg = TrainConfig {
        steps: 4,
        mode: Mode::Fpdt {
            chunks: 2,
            offload: true,
        },
        ..TrainConfig::default()
    };
    let recorder = Recorder::new();
    let report = train_traced(&cfg, Some(&recorder));

    println!("losses: {:?}", report.losses);
    println!("\ncollective traffic (per op, rank 0):");
    for (name, op) in &report.comm.ops {
        println!(
            "  {name:<14} sends {:>4}  bytes_sent {:>9}",
            op.sends, op.bytes_sent
        );
    }
    println!("  total recv wait {:?}", report.comm.total_recv_wait());

    let spans = recorder.records();
    println!("\n{} spans recorded; busiest prefixes:", spans.len());
    for prefix in ["attn.fwd.", "attn.bwd.", "a2a.", "offload.", "allreduce."] {
        println!("  {prefix:<12} {:>10.1} us", recorder.total_us(prefix));
    }

    let dir = std::path::PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join("traced_training.trace.json");
    std::fs::write(&path, recorder.chrome_trace_json()).expect("write trace");
    println!("\n[wrote {}]", path.display());
}
