//! Measured autotuner CLI: trains every `(chunks, bf16)` cell as it will
//! run ([`fpdt_core::runtime::autotune::autotune`], fastest of three) and
//! prints the probe table and the pick.
//!
//! Transfers cost wall-clock time per wire byte at `FPDT_SIM_GBPS`
//! (1 GB/s unless set; the link travels in the probes' runtime options),
//! or there would be no transfer cost to tune against. `--quick` probes
//! chunk count 4 only; `--json` prints nothing but writes the probed
//! cells and the pick to `target/experiments/BENCH_autotune.json`.

use fpdt_bench::{json_mode, write_json};
use fpdt_core::runtime::autotune::{autotune, CellProfile, Workload};
use fpdt_core::runtime::RuntimeOptions;
use fpdt_model::config::ModelConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    seq: usize,
    steps: usize,
    sim_gbps: f64,
    cells: Vec<CellProfile>,
    best: CellProfile,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    #[expect(
        clippy::disallowed_methods,
        reason = "unset FPDT_SIM_GBPS means 1 GB/s"
    )]
    let sim_gbps = if std::env::var_os("FPDT_SIM_GBPS").is_some() {
        RuntimeOptions::from_env().sim_gbps
    } else {
        1.0
    };
    let workload = Workload {
        probe_steps: if quick { 2 } else { 3 },
        chunk_candidates: if quick { vec![4] } else { vec![2, 4] },
        allow_bf16: true,
        sim_gbps,
        ..Workload::new(ModelConfig::tiny(2, 64, 4, 50), 256)
    };
    let outcome = autotune(&workload);
    let tokens_per_s = |cell: &CellProfile| workload.seq as f64 / (cell.step_us * 1e-6);

    if json_mode() {
        write_json(
            "BENCH_autotune",
            &Report {
                bench: "autotune",
                seq: workload.seq,
                steps: workload.probe_steps,
                sim_gbps,
                cells: outcome.cells,
                best: outcome.best,
            },
        );
        return;
    }
    println!(
        "autotune: seq {}, {} steps per probe, {sim_gbps} GB/s simulated link",
        workload.seq, workload.probe_steps
    );
    println!(
        "{:<8}{:<7}{:>10}{:>12}",
        "chunks", "bf16", "step us", "tokens/s"
    );
    for cell in &outcome.cells {
        println!(
            "{:<8}{:<7}{:>10.0}{:>12.0}",
            cell.chunks,
            cell.payload_bf16,
            cell.step_us,
            tokens_per_s(cell)
        );
    }
    let best = &outcome.best;
    println!(
        "pick: {} chunks, bf16 {} ({:.0} tokens/s)",
        best.chunks,
        best.payload_bf16,
        tokens_per_s(best)
    );
}
