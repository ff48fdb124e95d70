//! # fpdt-bench
//!
//! The benchmark harness of the FPDT reproduction. One binary per table
//! and figure of the paper's evaluation section:
//!
//! | binary     | reproduces |
//! |------------|------------|
//! | `table1`   | Table 1 — max context per (model, GPU count, HBM) |
//! | `table2`   | Table 2 — per-step activation footprint of a block |
//! | `table3`   | Table 3 — training-strategy ablation (8B, 8 GPUs) |
//! | `figure1`  | Figure 1 — MFU and max context per GPU, 3 sizes |
//! | `figure2`  | Figures 2/3 — the Ulysses all-to-all and ZeRO-3 over its group |
//! | `figure4_5` | Figures 4/5 — distributed attention with offload and fetch |
//! | `figure6`  | Figure 6 — rank-ordinal chunk shuffle validity |
//! | `figure7`  | Figure 7 — the simulated three-stream pipeline, as a trace |
//! | `figure8_9` | Figures 8/9 — starving vs wasting across chunk sizes |
//! | `figure10` | Figure 10 — op latencies vs sequence chunk size |
//! | `figure11` | Figure 11 — MFU vs context for all six models |
//! | `figure12` | Figure 12 — MFU + HBM vs chunk size at 256K |
//! | `figure13` | Figure 13 — backward-pass memory timeline |
//! | `figure14` | Figure 14 — loss-curve equivalence (real training) |
//! | `ablation` | nest order, double buffer, copy streams, chunk count |
//! | `future_work` | §6: the gradient-reduction memory spike |
//! | `waits` | stream waits of a traced run, by block and slot |
//!
//! Run them with `cargo run --release -p fpdt-bench --bin <name>`. Each
//! prints the paper-style table and writes machine-readable rows to
//! `target/experiments/<name>.json`. The `kernels` binary gates the
//! compute kernels in CI; `autotune` probes the real runtime's chunk
//! count and payload format and prints the fastest; `ledger` prints each
//! rank's device high-water from real training runs.

use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Formats a token count the way the paper does (32K, 512K, 2M...).
pub fn human_tokens(n: u64) -> String {
    const M: u64 = 1024 * 1024;
    const K: u64 = 1024;
    if n == 0 {
        "-".to_string()
    } else if n >= M {
        format!("{}M", n / M)
    } else {
        format!("{}K", n / K)
    }
}

/// Formats bytes as GiB with one decimal.
pub fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Writes experiment rows as JSON next to the human-readable output so
/// EXPERIMENTS.md numbers stay reproducible by script.
///
/// # Panics
///
/// Panics when the target directory cannot be created or written — a
/// harness environment problem the operator should see immediately.
pub fn write_json<T: Serialize>(name: &str, rows: &T) {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    let path = dir.join(format!("{name}.json"));
    let body = serde_json::to_string_pretty(rows).expect("serialize rows");
    fs::write(&path, body).expect("write experiment json");
    eprintln!("[wrote {}]", path.display());
}

/// Machine-readable benchmark artifacts: a `BENCH_<name>.json` metrics
/// document plus a Chrome-trace timeline (`<name>.trace.json`, load in
/// Perfetto), both under `target/experiments/`. The metrics document
/// bundles the figure's data rows with the schedule metrics derived from
/// a representative simulated block (per-stream occupancy, compute/copy
/// overlap ratio, PCIe busy fraction, HBM peak).
///
/// Both documents are re-parsed after writing; `--json` smoke steps in CI
/// key off the `BENCH_JSON_OK` lines this prints.
///
/// # Panics
///
/// Panics when the artifacts cannot be written or do not parse back — a
/// broken exporter must fail the run, not ship bad JSON.
pub fn emit_bench_artifacts<T: Serialize>(
    name: &str,
    rows: &T,
    report: &fpdt_sim::engine::SimReport,
) {
    let dir = PathBuf::from("target/experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");

    let metrics = fpdt_trace::ScheduleMetrics::from_report(report);
    let rows_json = serde_json::to_string_pretty(rows).expect("serialize rows");
    let body = format!(
        "{{\n\"bench\": \"{name}\",\n\"schedule_metrics\": {},\n\"rows\": {rows_json}\n}}",
        metrics.to_json()
    );
    let metrics_path = dir.join(format!("BENCH_{name}.json"));
    fs::write(&metrics_path, &body).expect("write bench metrics json");

    let trace = fpdt_trace::sim_chrome_trace(report);
    let trace_path = dir.join(format!("{name}.trace.json"));
    fs::write(&trace_path, &trace).expect("write chrome trace json");

    for (path, doc) in [(&metrics_path, &body), (&trace_path, &trace)] {
        serde_json::from_str(doc)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        println!("BENCH_JSON_OK {}", path.display());
    }
}

/// True when the benchmark was invoked with `--json`: suppress the
/// human-readable tables and emit only machine-readable artifacts.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Renders a monotone byte series as an ASCII sparkline (for the memory
/// timeline figure).
pub fn sparkline(values: &[u64]) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(1).max(1);
    values
        .iter()
        .map(|&v| GLYPHS[((v as f64 / max as f64) * 7.0).round() as usize])
        .collect()
}

/// The paper's per-model GPU allocation for the overall-performance
/// comparison (§5.2): 2.7B/6.7B on one node, 8B on two, 13B on two,
/// 30B on four, 70B on eight (4 GPUs per node).
pub fn paper_gpu_allocation(model_name: &str) -> (usize, usize) {
    match model_name {
        "GPT-2.7B" | "GPT-6.7B" => (1, 4),
        "Llama3-8B" | "GPT-13B" => (2, 4),
        "GPT-30B" => (4, 4),
        "Llama-70B" => (8, 4),
        other => panic!("unknown model {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_tokens_formats() {
        assert_eq!(human_tokens(32 * 1024), "32K");
        assert_eq!(human_tokens(2 * 1024 * 1024), "2M");
        assert_eq!(human_tokens(0), "-");
    }

    #[test]
    fn gib_math() {
        assert!((gib(1 << 30) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sparkline_shapes() {
        let s = sparkline(&[0, 50, 100]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.ends_with('█'));
    }

    #[test]
    fn allocations_cover_paper_suite() {
        for m in fpdt_model::config::ModelConfig::paper_suite() {
            let (nodes, gpn) = paper_gpu_allocation(&m.name);
            assert!(nodes * gpn >= 4);
        }
    }
}
