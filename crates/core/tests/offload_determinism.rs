//! The streams and the host pool are pure system optimisations, checked
//! as one cross-product.
//!
//! The comm stream always runs the per-chunk all-to-alls, and with
//! offload on the two copy streams carry every host-pool transfer; with
//! offload off chunks stay in the device map and no copy worker exists.
//! Both paths must compute the same thing: a 2-layer model on 2 ranks
//! produces bitwise identical losses, gradients and
//! [`fpdt_comm::CommStats`] for offload on and off × kernel-pool threads
//! {1, 2, 8} × chunks {2, 4} (compared within a chunk count — the chunk
//! count re-associates floats), and the whole `train` loop reports the
//! same loss trajectory and traffic either way while offload really
//! moves chunks through the pool. (Per-chunk transfer and post counts
//! are audited in `exec.rs::schedule_audit_transfer_and_post_counts`.)

mod common;

use common::{fixture_model, grad_run, ForcedParallel};
use fpdt_comm::CommStats;
use fpdt_core::offload::PoolStats;
use fpdt_core::runtime::{train, Mode, RuntimeOptions, TrainConfig};

/// Loss and gradient bits plus the wire statistics, per rank.
type Bits = Vec<(u32, Vec<u32>, CommStats)>;

fn bits(runs: Vec<(f32, Vec<f32>, CommStats)>) -> Bits {
    runs.into_iter()
        .map(|(loss, grads, comm)| {
            (
                loss.to_bits(),
                grads.iter().map(|g| g.to_bits()).collect(),
                comm,
            )
        })
        .collect()
}

/// f32 payloads on both sides: bf16 rounds offloaded KV chunks, which
/// the device map never does.
fn opts() -> RuntimeOptions {
    RuntimeOptions::from_env().with_payload_bf16(false)
}

#[test]
fn offload_thread_budget_and_chunk_cross_product_is_bitwise_identical() {
    for chunks in [2usize, 4] {
        let reference = {
            let _cfg = ForcedParallel::new(1);
            bits(grad_run(42, chunks, false, opts()))
        };
        assert!(
            reference.iter().all(|(_, g, _)| g.iter().any(|&b| b != 0)),
            "all-zero gradients would make the comparison vacuous"
        );
        assert!(
            reference
                .iter()
                .all(|(_, _, c)| c.op("all_to_all").is_some_and(|o| o.sends > 0)),
            "no all-to-all traffic would make the stats comparison vacuous"
        );
        for offload in [false, true] {
            for threads in [1usize, 2, 8] {
                let got = {
                    let _cfg = ForcedParallel::new(threads);
                    bits(grad_run(42, chunks, offload, opts()))
                };
                assert!(
                    reference == got,
                    "{chunks} chunks, offload {offload}, {threads} threads differ from \
                     offload off at 1 thread"
                );
            }
        }
    }
}

#[test]
fn training_reports_identical_losses_and_comm_traffic_with_and_without_offload() {
    // The whole training loop (optimizer and gradient all-reduce
    // included) through the public `train` entry point.
    let run = |offload: bool| {
        train(&TrainConfig {
            model: fixture_model(),
            world: 2,
            seq: 64,
            steps: 3,
            mode: Mode::Fpdt { chunks: 4, offload },
            runtime: opts(),
            ..TrainConfig::default()
        })
    };
    let (on, off) = {
        let _cfg = ForcedParallel::new(4);
        (run(true), run(false))
    };
    let on_bits: Vec<u32> = on.losses.iter().map(|x| x.to_bits()).collect();
    let off_bits: Vec<u32> = off.losses.iter().map(|x| x.to_bits()).collect();
    assert_eq!(on_bits, off_bits, "loss trajectories differ");
    assert_eq!(on.comm, off.comm, "comm statistics differ");
    assert!(
        on.comm.op("all_to_all").is_some_and(|o| o.bytes_sent > 0),
        "comm counters must actually move"
    );
    assert!(
        on.host.fetches > 0 && on.host.bytes_fetched > 0 && on.host.bytes_offloaded > 0,
        "offload must move chunks through the pool: {:?}",
        on.host
    );
    assert_eq!(
        off.host,
        PoolStats::default(),
        "the device map never touches the pool"
    );
}
