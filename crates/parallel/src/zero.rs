//! ZeRO redundancy-optimizer stages (Rajbhandari et al.) — sharding specs
//! plus the collective traffic each stage adds to a training step.

use fpdt_model::config::ModelConfig;
use fpdt_model::memory::{ShardSpec, BF16};
use fpdt_sim::cost::CostModel;
use serde::{Deserialize, Serialize};

/// Which ZeRO stage is enabled (the paper evaluates all three in Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ZeroStage {
    /// No sharding (plain DDP).
    None,
    /// Optimizer-state sharding.
    One,
    /// + gradient sharding.
    Two,
    /// + parameter sharding.
    Three,
}

impl ZeroStage {
    /// The sharding divisors this stage implies over `world` ranks.
    pub fn shard_spec(self, world: usize) -> ShardSpec {
        match self {
            ZeroStage::None => ShardSpec::ddp(),
            ZeroStage::One => ShardSpec::zero1(world),
            ZeroStage::Two => ShardSpec::zero2(world),
            ZeroStage::Three => ShardSpec::zero3(world),
        }
    }

    /// Transient HBM bytes ZeRO-3 holds for *gathered* parameters during
    /// compute: the current layer plus a prefetch window of two more, in
    /// bf16. Stages 0-2 keep full parameters resident anyway (already in
    /// the static accounting), so this is zero for them.
    pub fn live_param_overhead(self, model: &ModelConfig) -> u64 {
        match self {
            ZeroStage::Three => 3 * BF16 * model.block_params(),
            _ => 0,
        }
    }

    /// Collective seconds per training step attributable to ZeRO over a
    /// data/sequence-parallel group of `world` GPUs.
    ///
    /// * Stages 0-2: one gradient all-reduce / reduce-scatter (`2P` bytes).
    /// * Stage 3 additionally all-gathers parameters for the forward and
    ///   again for the backward re-materialization.
    ///
    /// DeepSpeed overlaps most of this with compute; callers decide how
    /// much of it lands on the critical path.
    pub fn comm_seconds(self, model: &ModelConfig, cost: &CostModel, world: usize) -> f64 {
        if world <= 1 {
            return 0.0;
        }
        let param_bytes = BF16 * model.param_count();
        match self {
            ZeroStage::None | ZeroStage::One => cost.all_reduce_time(param_bytes, world),
            ZeroStage::Two => cost.reduce_scatter_time(param_bytes, world),
            ZeroStage::Three => {
                cost.reduce_scatter_time(param_bytes, world)
                    + 2.0 * cost.all_gather_time(param_bytes, world)
            }
        }
    }
}

/// The gradient-reduction memory spike the paper's Future Work section
/// identifies: "PyTorch can also incur a high memory spike when it reduces
/// the gradients across all GPUs ... in certain cases more significant
/// than the activation's memory spikes."
///
/// The reducer flattens gradients into fp32 buckets before the collective;
/// an unbucketed reduce materializes the full fp32 gradient (4 bytes per
/// parameter) at once, while a bucketed/chunked reducer caps the transient
/// at two in-flight buckets (double buffering, FPDT-style).
pub fn grad_reduce_spike_bytes(model: &ModelConfig, bucket_bytes: Option<u64>) -> u64 {
    match bucket_bytes {
        None => 4 * model.param_count(), // flat fp32 copy of every gradient
        Some(b) => 2 * b,                // two in-flight buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdt_model::memory::static_bytes;
    use fpdt_sim::hw::ClusterSpec;

    #[test]
    fn stage_shard_specs() {
        assert_eq!(ZeroStage::None.shard_spec(8), ShardSpec::ddp());
        assert_eq!(ZeroStage::One.shard_spec(8).optimizer, 8);
        assert_eq!(ZeroStage::Two.shard_spec(8).grads, 8);
        assert_eq!(ZeroStage::Three.shard_spec(8).params, 8);
    }

    #[test]
    fn higher_stages_use_less_memory_more_comm() {
        let m = ModelConfig::llama3_8b();
        let cost = CostModel::new(ClusterSpec::a100_80g(2, 4));
        let mem1 = static_bytes(&m, ZeroStage::One.shard_spec(8));
        let mem3 = static_bytes(&m, ZeroStage::Three.shard_spec(8));
        assert!(mem3 < mem1);
        let c1 = ZeroStage::One.comm_seconds(&m, &cost, 8);
        let c3 = ZeroStage::Three.comm_seconds(&m, &cost, 8);
        assert!(c3 > c1 * 1.2, "stage 3 pays parameter gathers");
    }

    #[test]
    fn single_gpu_is_free() {
        let m = ModelConfig::tiny(2, 64, 4, 100);
        let cost = CostModel::new(ClusterSpec::a100_80g(1, 1));
        assert_eq!(ZeroStage::Three.comm_seconds(&m, &cost, 1), 0.0);
    }
}

#[cfg(test)]
mod grad_reduce_tests {
    use super::*;

    #[test]
    fn unbucketed_spike_dwarfs_activations_for_large_models() {
        // For a 70B model the flat fp32 gradient is ~282 GB across the
        // group — per GPU (sharded by 32) still ~8.8 GB of transient, and
        // unsharded it alone exceeds an A100's HBM, which is exactly the
        // paper's warning.
        let m = ModelConfig::llama_70b();
        let spike = grad_reduce_spike_bytes(&m, None);
        assert!(spike > 250 * (1 << 30), "{} GiB", spike >> 30);
    }

    #[test]
    fn bucketing_caps_the_spike() {
        let m = ModelConfig::llama_70b();
        let bucketed = grad_reduce_spike_bytes(&m, Some(500 << 20));
        assert_eq!(bucketed, 1000 << 20);
        assert!(bucketed < grad_reduce_spike_bytes(&m, None) / 100);
    }
}
