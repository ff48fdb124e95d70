//! Kernel settings are not part of the numerics, and not process state.
//!
//! The determinism suite (`determinism.rs`) proves seeded runs repeat at
//! one fixed configuration, and `offload_determinism.rs` that the kernel
//! thread budget does not move a bit; this suite proves the same for the
//! threshold that decides *whether* a kernel fans out at all, and that two
//! runs with different settings share one process without touching each
//! other's.

mod common;

use common::{fixture_model, forced, grad_run};
use fpdt_core::runtime::{train, Mode, RuntimeOptions, TrainConfig, TrainReport};
use std::sync::Barrier;

#[test]
fn default_threshold_matches_forced_parallel_bits() {
    // The split threshold only gates *whether* a kernel fans out, never
    // what it computes: a run at the default threshold (small kernels stay
    // sequential) must equal a run with everything forced onto the pool.
    let default_cfg = grad_run(7, 2, false, RuntimeOptions::from_env());
    let forced = grad_run(7, 2, false, forced(RuntimeOptions::from_env(), 8));
    for ((la, ga, _), (lb, gb, _)) in default_cfg.iter().zip(&forced) {
        assert_eq!(la.to_bits(), lb.to_bits(), "loss bits differ");
        let ga_bits: Vec<u32> = ga.iter().map(|x| x.to_bits()).collect();
        let gb_bits: Vec<u32> = gb.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ga_bits, gb_bits, "gradient bits differ");
    }
}

#[test]
fn trainers_with_different_budgets_run_side_by_side_bitwise() {
    // Two Trainers at kernel thread budgets 1 and 4 train at the same time
    // on two threads of this process, with no lock between them; each
    // reproduces its solo run bit for bit, traffic counters included.
    let budgets = [1usize, 4];
    let run = |threads: usize, start: Option<&Barrier>| -> TrainReport {
        let cfg = TrainConfig {
            model: fixture_model(),
            world: 2,
            seq: 64,
            steps: 4,
            mode: Mode::Fpdt {
                chunks: 4,
                offload: true,
            },
            runtime: forced(RuntimeOptions::from_env().with_payload_bf16(false), threads),
            ..TrainConfig::default()
        };
        start.map(Barrier::wait);
        train(&cfg)
    };
    let solo = budgets.map(|threads| run(threads, None));
    let start = Barrier::new(budgets.len());
    let together = std::thread::scope(|s| {
        let start = &start;
        budgets
            .map(|threads| s.spawn(move || run(threads, Some(start))))
            .map(|h| h.join().expect("trainer thread"))
    });
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for ((threads, a), b) in budgets.iter().zip(&solo).zip(&together) {
        assert_eq!(
            bits(&a.losses),
            bits(&b.losses),
            "losses at {threads} threads"
        );
        assert!(!a.grads.is_empty());
        assert_eq!(
            bits(&a.grads),
            bits(&b.grads),
            "gradients at {threads} threads"
        );
        assert_eq!(a.comm, b.comm, "comm counters at {threads} threads");
        assert_eq!(a.host, b.host, "pool counters at {threads} threads");
        assert!(
            a.host.fetches > 0,
            "the runs must move chunks through the pool"
        );
    }
}
