//! The benchmark's metric tables — the one place a metric's name, unit and
//! direction are written down. `BENCHMARK.json` repeats them for the
//! driver; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// An end-to-end metric: something a user of the trainer sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// A metric of one layer (module). No bound: these explain, they do not
/// gate.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The three times are stated at the reference host speed (`host.rs`), not
/// as the clock read them. Bounds are set from the spread of ten
/// differently seeded runs on the 2-core host the benchmark was written on
/// (see `README.md`): 3-7% for the restated step times where the raw ones
/// spread 10-35%; a bound is at least three times the widest spread seen.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "tokens_per_s",
        unit: "tokens/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "step_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // tensor: direct timed calls at the workload's shapes
    layer("tensor.gemm_gflops", "GFLOP/s", "higher"),
    layer("tensor.matmul_bwd_gflops", "GFLOP/s", "higher"),
    layer("tensor.cross_entropy_ms", "ms", "lower"),
    layer("tensor.layernorm_us", "us", "lower"),
    layer("tensor.adamw_ns_per_param", "ns", "lower"),
    // attention: one gathered tile [chunk_global_len, heads/world, head_dim]
    layer("attention.update_gflops", "GFLOP/s", "higher"),
    layer("attention.update_diag_gflops", "GFLOP/s", "higher"),
    layer("attention.bwd_gflops", "GFLOP/s", "higher"),
    layer("attention.vs_gemm", "ratio", "higher"),
    layer("attention.max_abs_err", "abs", "lower"),
    // comm
    layer("comm.a2a_us", "us", "lower"),
    layer("comm.allreduce_ms", "ms", "lower"),
    layer("comm.bytes_sent_per_step", "bytes", "lower"),
    layer("comm.msgs_per_step", "count", "lower"),
    layer("comm.retries", "count", "lower"),
    layer("comm.recv_wait_ms_per_step", "ms", "lower"),
    layer("comm.posts_per_step", "count", "lower"),
    layer("comm.inflight_ms_per_step", "ms", "lower"),
    layer("comm.overlap_fraction", "ratio", "higher"),
    layer("comm.exposed_ms_per_step", "ms", "lower"),
    // core::offload
    layer("offload.roundtrip_us", "us", "lower"),
    layer("offload.puts_per_step", "count", "lower"),
    layer("offload.fetches_per_step", "count", "lower"),
    layer("offload.bytes_d2h_per_step", "bytes", "lower"),
    layer("offload.bytes_h2d_per_step", "bytes", "lower"),
    layer("offload.peak_bytes", "bytes", "lower"),
    layer("offload.busy_ms_per_step", "ms", "lower"),
    layer("offload.overlap_fraction", "ratio", "higher"),
    layer("offload.exposed_ms_per_step", "ms", "lower"),
    // runtime::exec (DistAttention)
    layer("exec.attn_fwd_ms_per_step", "ms", "lower"),
    layer("exec.attn_bwd_ms_per_step", "ms", "lower"),
    layer("exec.kernel_ms_per_step", "ms", "lower"),
    layer("exec.a2a_ms_per_step", "ms", "lower"),
    layer("exec.tiles_per_step", "count", "lower"),
    layer("exec.slot_skew_fwd", "ratio", "lower"),
    layer("exec.slot_skew_bwd", "ratio", "lower"),
    layer("exec.attn_share", "ratio", "lower"),
    // runtime::gpt
    layer("gpt.block_fwd_ms_per_step", "ms", "lower"),
    layer("gpt.block_bwd_ms_per_step", "ms", "lower"),
    layer("gpt.dense_ms_per_step", "ms", "lower"),
    layer("gpt.outside_blocks_ms_per_step", "ms", "lower"),
    layer("gpt.local_fwdbwd_ms", "ms", "lower"),
    layer("gpt.loss_at_step_12", "nats", "lower"),
    // runtime::dist (Trainer)
    layer("dist.step_ms_p50", "ms", "lower"),
    layer("dist.step_ms_tail", "ms", "lower"),
    layer("dist.segment_spinup_ms", "ms", "lower"),
    layer("dist.allreduce_ms_per_step", "ms", "lower"),
    layer("dist.opt_state_bytes", "bytes", "lower"),
    layer("dist.host_mfu", "ratio", "higher"),
    layer("dist.trace_overhead_pct", "%", "lower"),
    // runtime::ckpt
    layer("ckpt.save_ms", "ms", "lower"),
    layer("ckpt.resume_ms", "ms", "lower"),
    layer("ckpt.shard_bytes", "bytes", "lower"),
    // planner face, the same in every workload
    layer("pipeline.simulate_block_ms", "ms", "lower"),
    layer("strategy.max_seq_len_ms", "ms", "lower"),
];

/// Measured values keyed by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let known =
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name);
        assert!(known, "metric {name} is not in the tables");
        // an empty float sum is -0.0; report it as plain zero
        self.0.insert(name, value + 0.0);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was never measured"))
    }

    pub fn absorb(&mut self, other: Values) {
        self.0.extend(other.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, items};
    use serde_json::Value;

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        json::field(obj, key).unwrap_or_else(|| panic!("missing key {key}"))
    }

    fn text(v: &Value) -> &str {
        json::text(v).unwrap_or_else(|| panic!("expected a string, got {v:?}"))
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// `BENCHMARK.json` is what the driver reads; it must list exactly
    /// the workloads and metrics this program emits.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");

        let e2e = items(field(&doc, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(field(got, "name")), want.name);
            assert_eq!(text(field(got, "unit")), want.unit);
            assert_eq!(text(field(got, "better")), want.better);
            assert_eq!(
                field(got, "bound"),
                &Value::Float(want.bound),
                "{}",
                want.name
            );
        }

        let layers = items(field(&doc, "per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(field(got, "name")), want.name);
            assert_eq!(text(field(got, "unit")), want.unit);
            assert_eq!(text(field(got, "better")), want.better);
        }

        let workloads = items(field(&doc, "workloads"));
        let ours = crate::workloads::all();
        assert_eq!(workloads.len(), ours.len());
        for (got, want) in workloads.iter().zip(&ours) {
            assert_eq!(text(field(got, "name")), want.name);
            assert_eq!(text(field(got, "why")), want.why);
        }
        assert_eq!(field(&doc, "run_seconds"), &Value::UInt(crate::RUN_SECONDS));
    }
}
