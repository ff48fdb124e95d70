//! Ring Attention (Liu et al., 2023): shard the sequence, keep heads
//! whole, and rotate KV blocks around a ring of devices, overlapping each
//! hop with blockwise attention on the block in hand. Implemented as the
//! third comparator (paper §2.2) and as an ablation target: unlike FPDT it
//! needs `p-1` communication rounds per attention call and its overlap
//! breaks when a hop outlasts a block's compute.

use crate::setup::{StepEstimate, Strategy, TrainSetup};
use crate::ulysses::sharded_compute_seconds;
use crate::zero::ZeroStage;
use fpdt_model::flops;
use fpdt_model::memory::{loss_spike_bytes, static_bytes, BlockActivations, BF16};
use fpdt_sim::cost::CostModel;

/// Configuration of the Ring Attention baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingAttention {
    /// ZeRO stage for model state.
    pub zero: ZeroStage,
    /// Re-compute block activations in backward.
    pub activation_checkpoint: bool,
    /// Move checkpoints to host memory.
    pub offload_checkpoint: bool,
    /// Zigzag query-chunk pairing (DISTFLASHATTN / LightSeq): each rank
    /// holds query chunks `i` and `2p-1-i`, so under the causal mask
    /// every rank sweeps the same `(p+1)/(2p)` share of KV blocks instead
    /// of rank `p-1` sweeping everything while rank 0 sweeps one block.
    /// The ring still moves the same KV bytes per hop; only the compute
    /// skew (and the wasted upper-triangle work) disappears.
    pub load_balanced: bool,
}

impl RingAttention {
    /// Defaults matching the other baselines (ZeRO-3 + AC + OC).
    pub fn paper_baseline() -> Self {
        RingAttention {
            zero: ZeroStage::Three,
            activation_checkpoint: true,
            offload_checkpoint: true,
            load_balanced: false,
        }
    }

    /// Load-balanced variant: zigzag chunk assignment on top of the
    /// paper baseline, halving the worst hop's compute skew.
    pub fn zigzag() -> Self {
        RingAttention {
            load_balanced: true,
            ..Self::paper_baseline()
        }
    }
}

impl Default for RingAttention {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

impl Strategy for RingAttention {
    fn name(&self) -> String {
        if self.load_balanced {
            "RingAttention+zigzag+ZeRO-3+AC+OC".to_string()
        } else {
            "RingAttention+ZeRO-3+AC+OC".to_string()
        }
    }

    fn estimate(&self, setup: &TrainSetup) -> StepEstimate {
        let p = setup.world();
        let cost = CostModel::new(setup.cluster.clone());
        let m = &setup.model;
        let s_local = (setup.seq_len * setup.batch).div_ceil(p as u64);
        let act = BlockActivations::new(m, s_local);
        let unit = BF16 * s_local * m.hidden as u64;

        // --- time ---
        // Dense compute is identical to Ulysses; the attention part runs
        // as p ring steps per layer, each hop moving the local KV block to
        // the neighbor while computing on the current one. Per-layer
        // attention time = sum over steps of max(block_compute, hop_time):
        // overlap is perfect only when compute >= hop (the paper's
        // "performance can be unpredictably affected by network latency").
        let compute = sharded_compute_seconds(setup, &cost, self.activation_checkpoint);
        let attn_total_fwd = flops::attention_core_fwd_flops(m, setup.seq_len) / p as f64;
        let passes: f64 = if self.activation_checkpoint { 2.0 } else { 1.0 }; // fwd (+recompute)
                                                                              // With zigzag pairing every rank computes the same (p+1)/(2p)
                                                                              // causal share of each ring step's block; the naive contiguous
                                                                              // assignment is priced as the full block because the slowest rank
                                                                              // (the one holding the last query chunk) gates every hop.
        let causal_share = if self.load_balanced {
            (p as f64 + 1.0) / (2.0 * p as f64)
        } else {
            1.0
        };
        let block_fwd = causal_share * cost.attention_time(attn_total_fwd / p as f64);
        let block_bwd = causal_share * cost.attention_time(2.5 * attn_total_fwd / p as f64);
        let kv_bytes = (2.0 * unit as f64 * m.kv_heads as f64 / m.heads as f64) as u64;
        let hop = cost.p2p_time(kv_bytes)
            + if setup.cluster.spans_nodes(p) {
                kv_bytes as f64 / setup.cluster.ib_bw
            } else {
                0.0
            };
        let ring_overhead_per_layer =
            (p as f64 - 1.0) * ((hop - block_fwd).max(0.0) * passes + (hop - block_bwd).max(0.0));
        // the already-counted attention compute stays; only stalls add.
        // `compute` prices the full (non-causal) attention share — what
        // the contiguous assignment actually costs on the critical rank
        // holding the last query chunk; zigzag reclaims the share the
        // causal mask skips. `attn_total_fwd` already spans all layers,
        // and `passes + 2.5` mirrors `sharded_compute_seconds`'s
        // fwd (+recompute) + bwd accounting.
        let attn_saving =
            (1.0 - causal_share) * cost.attention_time(attn_total_fwd * (passes + 2.5));
        let zero_comm = self.zero.comm_seconds(m, &cost, p);
        let step_time = compute
            + zero_comm
            + m.layers as f64 * ring_overhead_per_layer
            + m.layers as f64 * 2.0 * (p as f64) * setup.cluster.node.link_latency
            - attn_saving
            + crate::setup::PER_STEP_FRAMEWORK_SECONDS;

        // --- memory ---
        let static_hbm =
            static_bytes(m, self.zero.shard_spec(p)) + self.zero.live_param_overhead(m);
        let saved = if self.activation_checkpoint {
            if self.offload_checkpoint {
                2 * unit
            } else {
                m.layers as u64 * unit
            }
        } else {
            m.layers as u64 * act.saved_per_layer()
        };
        // Working set: like Ulysses minus the all-to-all receive buffers,
        // plus the in-flight KV block double buffer.
        let working_set =
            act.bwd_monolithic() - 2 * kv_bytes.min(act.bwd_monolithic() / 4) + 2 * kv_bytes;
        let loss = loss_spike_bytes(s_local, m.vocab as u64, 4);
        let host = if self.offload_checkpoint {
            m.layers as u64 * unit * setup.cluster.node.gpus as u64
        } else {
            0
        };
        StepEstimate::from_parts(
            setup,
            step_time,
            static_hbm,
            saved + working_set + loss,
            host,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::max_seq_len;
    use crate::ulysses::Ulysses;
    use fpdt_model::config::ModelConfig;
    use fpdt_sim::hw::ClusterSpec;

    const K: u64 = 1024;

    #[test]
    fn ring_reaches_similar_context_to_ulysses() {
        let m = ModelConfig::llama3_8b();
        let cluster = ClusterSpec::a100_80g(2, 4);
        let ring = max_seq_len(&RingAttention::paper_baseline(), &m, &cluster).unwrap();
        let uly = max_seq_len(&Ulysses::paper_baseline(), &m, &cluster).unwrap();
        let ratio = ring as f64 / uly as f64;
        assert!((0.5..=2.0).contains(&ratio), "ring {ring} vs ulysses {uly}");
    }

    #[test]
    fn ring_and_ulysses_converge_at_long_context() {
        // At short context the two methods differ (Ulysses pays blocking
        // all-to-alls, ring pays per-hop latency); once attention compute
        // dominates, both approach the same attention-bound MFU and the
        // gap shrinks toward zero.
        let m = ModelConfig::llama3_8b();
        let cluster = ClusterSpec::a100_80g(2, 4);
        let ring = RingAttention::paper_baseline();
        let uly = Ulysses::paper_baseline();
        let short = TrainSetup::new(m.clone(), cluster.clone(), 32 * K);
        let long = TrainSetup::new(m, cluster, 512 * K);
        let gap_short = uly.estimate(&short).mfu - ring.estimate(&short).mfu;
        let gap_long = uly.estimate(&long).mfu - ring.estimate(&long).mfu;
        assert!(
            gap_long.abs() < gap_short.abs(),
            "gap shrinks: {gap_short} -> {gap_long}"
        );
    }

    #[test]
    fn zigzag_outruns_the_contiguous_ring_with_identical_memory() {
        // Zigzag only re-times compute: the step gets faster (the causal
        // share drops from 1 to (p+1)/(2p)) while every memory number —
        // same KV blocks, same checkpoints, same ZeRO shards — is
        // untouched.
        let m = ModelConfig::llama3_8b();
        let cluster = ClusterSpec::a100_80g(2, 4);
        let setup = TrainSetup::new(m, cluster, 256 * K);
        let base = RingAttention::paper_baseline().estimate(&setup);
        let zz = RingAttention::zigzag().estimate(&setup);
        assert!(
            zz.step_time < base.step_time,
            "zigzag step {} vs contiguous {}",
            zz.step_time,
            base.step_time
        );
        assert!(zz.mfu > base.mfu, "mfu {} vs {}", zz.mfu, base.mfu);
        assert_eq!(zz.peak_hbm, base.peak_hbm, "memory must be untouched");
        assert_eq!(zz.host_bytes_per_node, base.host_bytes_per_node);
    }

    #[test]
    fn golden_step_estimates_for_both_ring_variants() {
        // Pinned numbers for the comparator table: any cost-model drift
        // that moves either ring row shows up here first. Captured from
        // the implementation at introduction time (gpt-6.7b, 1x4 A100
        // 80G, 256K tokens).
        let m = ModelConfig::gpt_6_7b();
        let cluster = ClusterSpec::a100_80g(1, 4);
        let setup = TrainSetup::new(m, cluster, 256 * K);
        let base = RingAttention::paper_baseline().estimate(&setup);
        let zz = RingAttention::zigzag().estimate(&setup);
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-6 * want.abs();
        assert!(
            close(base.step_time, 128.879840163),
            "base step_time {}",
            base.step_time
        );
        assert!(close(base.mfu, 0.457028711), "base mfu {}", base.mfu);
        assert!(
            close(zz.step_time, 86.882576049),
            "zigzag step_time {}",
            zz.step_time
        );
        assert!(close(zz.mfu, 0.677947062), "zigzag mfu {}", zz.mfu);
    }

    #[test]
    fn mfu_in_sane_range() {
        let m = ModelConfig::gpt_6_7b();
        let cluster = ClusterSpec::a100_80g(1, 4);
        let e = RingAttention::paper_baseline().estimate(&TrainSetup::new(m, cluster, 256 * K));
        assert!((0.1..0.7).contains(&e.mfu), "mfu {}", e.mfu);
    }
}
