//! The parallel-split threshold is not part of the numerics.
//!
//! The determinism suite (`determinism.rs`) proves seeded runs repeat at
//! one fixed configuration, and `offload_determinism.rs` that the kernel
//! pool's thread budget does not move a bit; this suite proves the same
//! for the threshold that decides *whether* a kernel fans out at all.

mod common;

use common::{config_lock, grad_run, ForcedParallel};
use fpdt_core::runtime::RuntimeOptions;

#[test]
fn default_threshold_matches_forced_parallel_bits() {
    // The split threshold only gates *whether* a kernel fans out, never
    // what it computes: a run at the default threshold (small kernels stay
    // sequential) must equal a run with everything forced onto the pool.
    let default_cfg = {
        let _g = config_lock();
        grad_run(7, 2, false, RuntimeOptions::from_env())
    };
    let forced = {
        let _cfg = ForcedParallel::new(8);
        grad_run(7, 2, false, RuntimeOptions::from_env())
    };
    for ((la, ga, _), (lb, gb, _)) in default_cfg.iter().zip(&forced) {
        assert_eq!(la.to_bits(), lb.to_bits(), "loss bits differ");
        let ga_bits: Vec<u32> = ga.iter().map(|x| x.to_bits()).collect();
        let gb_bits: Vec<u32> = gb.iter().map(|x| x.to_bits()).collect();
        assert_eq!(ga_bits, gb_bits, "gradient bits differ");
    }
}
