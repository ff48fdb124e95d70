//! Figure 14: loss curves in pretraining GPT models — the baseline, FPDT
//! without offloading, and FPDT with offloading must coincide, because
//! FPDT is a pure system-level optimization (paper §5.6).
//!
//! Runs *real* training on the thread-based runtime: the baseline on one
//! rank, FPDT on 4.

use fpdt_bench::write_json;
use fpdt_core::runtime::{train, Mode, TrainConfig};
use fpdt_model::config::ModelConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Curve {
    label: String,
    losses: Vec<f32>,
}

fn main() {
    let base = TrainConfig {
        model: ModelConfig::tiny(2, 64, 8, 64),
        seq: 256,
        steps: 40,
        lr: 3e-3,
        seed: 2024,
        ..TrainConfig::default()
    };

    // (label, mode, ranks, activation checkpointing)
    let runs = [
        ("baseline", Mode::Ulysses, 1, false),
        (
            "FPDT",
            Mode::Fpdt {
                chunks: 4,
                offload: false,
            },
            4,
            false,
        ),
        (
            "FPDT w. offload",
            Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            4,
            false,
        ),
        (
            "FPDT w. offload + AC",
            Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            4,
            true,
        ),
    ];

    let mut curves = Vec::new();
    for (label, mode, world, ac) in runs {
        let t0 = std::time::Instant::now();
        let report = train(&TrainConfig {
            mode,
            world,
            activation_checkpoint: ac,
            ..base.clone()
        });
        println!(
            "{label:<18} {} steps in {:.1}s, loss {:.4} -> {:.4}",
            base.steps,
            t0.elapsed().as_secs_f64(),
            report.losses[0],
            report.losses.last().unwrap()
        );
        curves.push(Curve {
            label: label.to_string(),
            losses: report.losses,
        });
    }

    println!("\nstep      baseline     FPDT     FPDT w. offload    + AC");
    for step in (0..base.steps).step_by(4) {
        println!(
            "{:>4}   {:>9.4} {:>9.4} {:>14.4} {:>11.4}",
            step,
            curves[0].losses[step],
            curves[1].losses[step],
            curves[2].losses[step],
            curves[3].losses[step]
        );
    }

    let max_div = curves[1..]
        .iter()
        .flat_map(|c| {
            c.losses
                .iter()
                .zip(&curves[0].losses)
                .map(|(a, b)| (a - b).abs())
        })
        .fold(0.0f32, f32::max);
    println!("\nmax divergence from baseline across all steps: {max_div:.2e}");
    println!("paper reference (Figure 14): the three curves are indistinguishable.");
    assert!(max_div < 5e-3, "curves must coincide");
    write_json("figure14", &curves);
}
