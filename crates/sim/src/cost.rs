//! Closed-form duration estimates for kernels, collectives and transfers
//! on a [`ClusterSpec`].
//!
//! These are the per-task durations the strategy schedulers feed into the
//! event engine. The constants come from `hw`; none of the *shapes* the
//! paper reports (e.g. the 32-64K chunk-size crossover of Figure 10) are
//! hard-coded — they emerge from FLOPs vs bytes arithmetic.

use crate::hw::ClusterSpec;

/// The scalar rate/overhead constants every closed-form estimate reads,
/// derived from a [`ClusterSpec`] by [`CostConstants::from_cluster`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostConstants {
    /// Effective GEMM throughput, FLOP/s.
    pub gemm_flops: f64,
    /// Effective fused-attention throughput, FLOP/s.
    pub attention_flops: f64,
    /// Fixed launch/scheduling overhead per kernel, seconds.
    pub kernel_overhead: f64,
    /// Intra-node peer (NVLink) bandwidth, bytes/s.
    pub nvlink_bw: f64,
    /// Host↔device (PCIe) bandwidth, bytes/s.
    pub pcie_bw: f64,
    /// Inter-node (InfiniBand) bandwidth per GPU, bytes/s.
    pub ib_bw: f64,
    /// Per-message link latency, seconds.
    pub link_latency: f64,
}

impl CostConstants {
    /// The paper-calibrated constants of a cluster specification.
    pub fn from_cluster(cluster: &ClusterSpec) -> Self {
        let node = &cluster.node;
        CostConstants {
            gemm_flops: node.gpu.gemm_flops(),
            attention_flops: node.gpu.attention_flops(),
            kernel_overhead: node.gpu.kernel_overhead,
            nvlink_bw: node.nvlink_bw,
            pcie_bw: node.pcie_bw,
            ib_bw: cluster.ib_bw,
            link_latency: node.link_latency,
        }
    }
}

/// Analytic cost model over a cluster: topology from the [`ClusterSpec`],
/// rates and overheads from its [`CostConstants`].
#[derive(Debug, Clone)]
pub struct CostModel {
    cluster: ClusterSpec,
    constants: CostConstants,
}

impl CostModel {
    /// Wraps a cluster specification with its own paper-calibrated
    /// constants ([`CostConstants::from_cluster`]).
    pub fn new(cluster: ClusterSpec) -> Self {
        let constants = CostConstants::from_cluster(&cluster);
        CostModel { cluster, constants }
    }

    /// The wrapped cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Duration of a GEMM-shaped kernel of `flops` floating-point ops.
    pub fn gemm_time(&self, flops: f64) -> f64 {
        self.constants.kernel_overhead + flops / self.constants.gemm_flops
    }

    /// Duration of a fused attention kernel of `flops` ops.
    pub fn attention_time(&self, flops: f64) -> f64 {
        self.constants.kernel_overhead + flops / self.constants.attention_flops
    }

    /// Effective per-GPU bandwidth for a collective over `group` GPUs
    /// (groups fill nodes in order). Within a node this is NVLink; across
    /// nodes each GPU drives its own IB rail.
    fn group_bw(&self, group: usize) -> f64 {
        if self.cluster.spans_nodes(group) {
            self.constants.ib_bw
        } else {
            self.constants.nvlink_bw
        }
    }

    /// All-to-all where each GPU holds `bytes_per_gpu` and exchanges
    /// `(p-1)/p` of it. Intra-node traffic rides NVLink; for multi-node
    /// groups the inter-node fraction rides the shared IB NIC and the two
    /// overlap (max, not sum).
    pub fn all_to_all_time(&self, bytes_per_gpu: u64, group: usize) -> f64 {
        if group <= 1 {
            return 0.0;
        }
        let c = &self.constants;
        let p = group as f64;
        let b = bytes_per_gpu as f64;
        let lat = c.link_latency;
        if !self.cluster.spans_nodes(group) {
            return lat + b * (p - 1.0) / p / c.nvlink_bw;
        }
        let gpn = self.cluster.node.gpus.min(group) as f64;
        let intra = b * (gpn - 1.0) / p / c.nvlink_bw;
        let inter = b * (p - gpn) / p / c.ib_bw;
        lat * (p.log2().ceil()) + intra.max(inter)
    }

    /// Ring all-gather producing `gathered_bytes` on every GPU of the
    /// group.
    pub fn all_gather_time(&self, gathered_bytes: u64, group: usize) -> f64 {
        if group <= 1 {
            return 0.0;
        }
        let p = group as f64;
        let lat = self.constants.link_latency * (p - 1.0);
        lat + gathered_bytes as f64 * (p - 1.0) / p / self.group_bw(group)
    }

    /// Ring reduce-scatter over an input of `bytes` per GPU.
    pub fn reduce_scatter_time(&self, bytes: u64, group: usize) -> f64 {
        // Same traffic pattern as all-gather.
        self.all_gather_time(bytes, group)
    }

    /// Ring all-reduce (reduce-scatter + all-gather) over `bytes` per GPU.
    pub fn all_reduce_time(&self, bytes: u64, group: usize) -> f64 {
        2.0 * self.all_gather_time(bytes, group)
    }

    /// Host↔device copy of `bytes` when `sharing` GPUs of the node copy
    /// simultaneously (paper: "all GPUs will share the PCIe bandwidth").
    /// Concurrent DMA engines also contend for PCIe lanes, which the paper
    /// identifies as the overhead making this strategy "worse at smaller
    /// data sizes" — modeled as one arbitration latency per active engine.
    /// Use `sharing = 1` for an uncontended copy; the event engine models
    /// dynamic bandwidth contention exactly, this closed form is for
    /// Figure 10.
    pub fn h2d_time(&self, bytes: u64, sharing: usize) -> f64 {
        let c = &self.constants;
        let sharing = sharing.max(1) as f64;
        c.link_latency * sharing + bytes as f64 / (c.pcie_bw / sharing)
    }

    /// The "one GPU fetches all, then scatters" strategy of Figure 10:
    /// a single uncontended PCIe copy of `group * bytes` followed by an
    /// NVLink scatter, plus a synchronization barrier.
    pub fn h2d_via_scatter_time(&self, bytes: u64, group: usize) -> f64 {
        let c = &self.constants;
        let fetch = c.link_latency + (bytes as f64 * group as f64) / c.pcie_bw;
        let scatter =
            c.link_latency + bytes as f64 * (group as f64 - 1.0) / group as f64 / c.nvlink_bw;
        fetch + scatter + c.link_latency
    }

    /// Direct NVLink peer-to-peer copy.
    pub fn p2p_time(&self, bytes: u64) -> f64 {
        self.constants.link_latency + bytes as f64 / self.constants.nvlink_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hw::ClusterSpec;

    fn model() -> CostModel {
        CostModel::new(ClusterSpec::a100_80g(1, 4))
    }

    #[test]
    fn gemm_time_scales_linearly() {
        let m = model();
        let t1 = m.gemm_time(1e12);
        let t2 = m.gemm_time(2e12);
        let overhead = m.cluster().node.gpu.kernel_overhead;
        assert!(((t2 - overhead) / (t1 - overhead) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn attention_slower_than_gemm_per_flop() {
        let m = model();
        assert!(m.attention_time(1e12) > m.gemm_time(1e12));
    }

    #[test]
    fn single_gpu_collectives_are_free() {
        let m = model();
        assert_eq!(m.all_to_all_time(1 << 30, 1), 0.0);
        assert_eq!(m.all_gather_time(1 << 30, 1), 0.0);
    }

    #[test]
    fn internode_collectives_slower() {
        let multi = CostModel::new(ClusterSpec::a100_80g(2, 4));
        let intra = multi.all_to_all_time(1 << 30, 4);
        let inter = multi.all_to_all_time(1 << 30, 8);
        assert!(inter > 2.0 * intra, "intra {intra} inter {inter}");
    }

    #[test]
    fn figure10_crossover_between_32k_and_64k() {
        // Paper §4.2: "latencies of both [fetch] methods are overpassed by
        // attention computation at around 32k to 64k". Configuration: one
        // node, 4 GPUs, h_local = 8 heads of d=128 per GPU, bf16.
        let m = model();
        let h = 8u64;
        let d = 128u64;
        let crossed_at = |bwd: bool| {
            let mut prev = false;
            for log_s in 10..20 {
                let s = 1u64 << log_s;
                let flops = if bwd {
                    5 * s * s * h * d
                } else {
                    2 * s * s * h * d
                };
                let attn = m.attention_time(flops as f64);
                let fetch = m.h2d_time(3 * s * h * d * 2, 4);
                let now = attn > fetch;
                if now && !prev {
                    return Some(s);
                }
                prev = now;
            }
            None
        };
        let fwd_cross = crossed_at(false).expect("fwd crossover exists");
        assert!(
            (16_384..=131_072).contains(&fwd_cross),
            "fwd crossover at {fwd_cross}"
        );
        let bwd_cross = crossed_at(true).expect("bwd crossover exists");
        assert!(bwd_cross <= fwd_cross, "bwd kernel crosses earlier");
    }

    #[test]
    fn alltoall_is_much_faster_than_fetch_intranode() {
        // Paper Figure 10: "Alltoall is much faster since this is only the
        // intra-node communication using NVLink."
        let m = model();
        let bytes = 3 * 65_536 * 8 * 128 * 2; // a 64K qkv chunk
        assert!(m.all_to_all_time(bytes, 4) < m.h2d_time(bytes, 4) / 3.0);
    }

    #[test]
    fn scatter_strategy_wins_only_for_small_transfers() {
        // Figure 10's two fetch strategies: per-GPU HtoD loses at small
        // sizes (lane contention), and the difference becomes negligible
        // as the sequence grows.
        let m = model();
        let small = 1u64 << 16;
        let large = 1u64 << 30;
        assert!(
            m.h2d_time(small, 4) > m.h2d_via_scatter_time(small, 4),
            "per-GPU fetch worse at small sizes"
        );
        let rel =
            (m.h2d_time(large, 4) - m.h2d_via_scatter_time(large, 4)).abs() / m.h2d_time(large, 4);
        assert!(rel < 0.1, "negligible at large sizes: {rel}");
    }

    #[test]
    fn allreduce_is_twice_allgather() {
        let m = model();
        assert!(
            (m.all_reduce_time(1 << 20, 4) - 2.0 * m.all_gather_time(1 << 20, 4)).abs() < 1e-12
        );
    }
}
