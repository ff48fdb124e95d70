//! The Figure 14 experiment, interactive: train the same model under the
//! baseline, Ulysses, and FPDT (with and without host offload) and print
//! the loss curves side by side — they coincide, because FPDT is a pure
//! system optimization.
//!
//! ```sh
//! cargo run --release --example distributed_training
//! ```

use fpdt_core::runtime::{train, Mode, TrainConfig};
use fpdt_model::config::ModelConfig;

fn main() {
    let base = TrainConfig {
        model: ModelConfig::tiny(2, 64, 8, 64),
        seq: 256,
        steps: 20,
        lr: 3e-3,
        seed: 123,
        ..TrainConfig::default()
    };

    let runs = [
        ("baseline (1 device)", Mode::Ulysses, 1),
        ("Ulysses (4 ranks)", Mode::Ulysses, 4),
        ("Ring Attention (4 ranks)", Mode::Ring, 4),
        (
            "FPDT 4 chunks",
            Mode::Fpdt {
                chunks: 4,
                offload: false,
            },
            4,
        ),
        (
            "FPDT 4 chunks + offload",
            Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            4,
        ),
    ];

    let mut curves = Vec::new();
    for (name, mode, world) in runs {
        let report = train(&TrainConfig {
            mode,
            world,
            ..base.clone()
        });
        println!(
            "{name:<26} final loss {:.4}   host offloads {}",
            report.losses.last().unwrap(),
            report.host.offloads
        );
        curves.push((name, report.losses));
    }

    println!(
        "\nstep  {}",
        curves
            .iter()
            .map(|(n, _)| format!("{n:>26}"))
            .collect::<String>()
    );
    for step in 0..base.steps {
        print!("{step:>4}  ");
        for (_, losses) in &curves {
            print!("{:>26.4}", losses[step]);
        }
        println!();
    }

    // All curves must agree: FPDT does not change the training trajectory.
    let reference = &curves[0].1;
    for (name, losses) in &curves[1..] {
        let max_diff = losses
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!("max |Δloss| vs baseline for {name}: {max_diff:.2e}");
        assert!(max_diff < 5e-3, "{name} diverged from the baseline");
    }
}
