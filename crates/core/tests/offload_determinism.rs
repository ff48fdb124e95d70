//! The streams and the host pool are pure system optimisations, checked
//! as one cross-product.
//!
//! The comm stream runs the per-chunk all-to-alls, and with offload on the
//! two copy streams carry every host-pool transfer; with offload off
//! chunks stay in the device map. Over a priced simulated link the
//! streams run on worker threads, over a free one inline on the rank
//! threads. Every path must compute the same thing: a 2-layer model on 2
//! ranks produces bitwise identical losses, gradients and
//! [`fpdt_comm::CommStats`] for offload on and off × stream placement
//! (inline, workers) × kernel-pool threads {1, 2, 8} × chunks {2, 4}
//! (compared within a chunk count — the chunk count re-associates
//! floats). With bf16 payloads the offloaded run rounds its KV chunks,
//! which the device map never does, so that leg is compared across
//! placements and thread counts only. The whole `train` loop reports the
//! same loss trajectory and traffic either way while offload really
//! moves chunks through the pool. (Per-chunk transfer and post counts
//! are audited in `exec.rs::schedule_audit_transfer_and_post_counts`.)

mod common;

use common::{fixture_model, forced, grad_run};
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

/// f32 payloads on both sides (bf16 rounds offloaded KV chunks, which
/// the device map never does), over a free link.
fn opts() -> RuntimeOptions {
    RuntimeOptions::from_env()
        .with_payload_bf16(false)
        .with_sim_gbps(0.0)
}

/// The two stream placements: a free link (every stream job inline on
/// its rank thread) and a priced one (comm and copy workers). 100 GB/s
/// prices the link while the fixture's transfers stay below the sleep
/// resolution.
const LINKS: [f64; 2] = [0.0, 100.0];

#[test]
fn offload_thread_budget_and_chunk_cross_product_is_bitwise_identical() {
    for chunks in [2usize, 4] {
        let reference = bits(grad_run(42, chunks, false, forced(opts(), 1)));
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
            for gbps in LINKS {
                for threads in [1usize, 2, 8] {
                    let run_opts = forced(opts().with_sim_gbps(gbps), threads);
                    let got = bits(grad_run(42, chunks, offload, run_opts));
                    assert!(
                        reference == got,
                        "{chunks} chunks, offload {offload}, {gbps} GB/s, {threads} threads \
                         differ from offload off, link off, at 1 thread"
                    );
                }
            }
        }
        let bf16_opts = opts().with_payload_bf16(true);
        let bf16 = bits(grad_run(42, chunks, true, forced(bf16_opts, 1)));
        assert!(
            bf16 != reference,
            "bf16 payloads must really round the KV chunks"
        );
        for gbps in LINKS {
            for threads in [1usize, 2, 8] {
                let run_opts = forced(bf16_opts.with_sim_gbps(gbps), threads);
                let got = bits(grad_run(42, chunks, true, run_opts));
                assert!(
                    bf16 == got,
                    "{chunks} chunks, bf16 offload, {gbps} GB/s, {threads} threads differ \
                     from link off at 1 thread"
                );
            }
        }
    }
}

#[test]
fn training_reports_identical_losses_and_comm_traffic_with_and_without_offload() {
    // The whole training loop (optimizer and gradient all-reduce
    // included) through the public `train` entry point, under either
    // stream placement.
    let run = |offload: bool, gbps: f64| {
        train(&TrainConfig {
            model: fixture_model(),
            world: 2,
            seq: 64,
            steps: 3,
            mode: Mode::Fpdt { chunks: 4, offload },
            runtime: forced(opts().with_sim_gbps(gbps), 4),
            ..TrainConfig::default()
        })
    };
    let (on, off) = (run(true, 0.0), run(false, 0.0));
    let loss_bits = |losses: &[f32]| losses.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(loss_bits(&on.losses), loss_bits(&off.losses), "loss trajectories differ");
    assert_eq!(on.comm, off.comm, "comm statistics differ");
    for offload in [true, false] {
        let (inline, workers) = (run(offload, LINKS[0]), run(offload, LINKS[1]));
        assert_eq!(
            loss_bits(&inline.losses),
            loss_bits(&workers.losses),
            "offload {offload}: placement changed the trajectory"
        );
        assert_eq!(inline.comm, workers.comm, "offload {offload}: comm statistics");
        assert_eq!(inline.host, workers.host, "offload {offload}: pool statistics");
    }
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
